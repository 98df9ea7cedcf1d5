"""Print how far the numbers moved between two output trees.

    python tools/output_drift.py OLD NEW

OLD and NEW are output trees kept by tools/output_digests.py --keep, say one
from a parent commit and one from a change.  Each file whose bytes differ is
named, and under it each quantity whose numbers moved gets one line: the
largest relative change |new - old| / max(|old|, |new|), with the line and
the two tokens where it occurs, and the largest absolute change, also as a
share of the largest |old| of that quantity.  A line follows for each
non-numeric token that differs, and for a file present in one tree only or
whose token counts differ.

Tokens are the text between whitespace, commas, colons, quotes and brackets.
A number's quantity is the name at its column in a first line of names (a
CSV header) when its line has as many tokens, else the last non-numeric token
before it on its line (a JSON key), else "values" (the rows of a field file).  No threshold: the exit
code is 0.  Standard library only.
"""

import math
import re
import sys
from pathlib import Path

SEPARATORS = re.compile(r'[\s,:"\[\]{}]+')


def number(token: str):
    """The float a token spells, or None when it spells none or a non-finite one."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def tokens(path: Path) -> list:
    """(line number, quantity, token) of every token of the text file at path."""
    rows = [[t for t in SEPARATORS.split(line) if t]
            for line in path.read_text(encoding="utf-8").splitlines()]
    header = rows[0] if rows and all(number(t) is None for t in rows[0]) else []
    out = []
    for line, row in enumerate(rows, 1):
        if line > 1 and len(row) == len(header):
            out.extend((line, name, token) for name, token in zip(header, row))
            continue
        key = "values"
        for token in row:
            if number(token) is None:
                key = token
            out.append((line, key, token))
    return out


def drift(old: Path, new: Path) -> list:
    """The report lines of one pair of files whose bytes differ."""
    a, b = tokens(old), tokens(new)
    if len(a) != len(b):
        return [f"  {len(a)} tokens -> {len(b)} tokens: not compared"]
    moved, scale, lines = {}, {}, []
    for (line, key, s), (_, _, t) in zip(a, b):
        x, y = number(s), number(t)
        if x is None or y is None:
            if s != t:
                lines.append(f"  line {line}: {s!r} -> {t!r}")
            continue
        scale[key] = max(scale.get(key, 0.0), abs(x))
        if x != y:
            rel, where, absolute = moved.get(key, (0.0, "", 0.0))
            r = abs(y - x) / max(abs(x), abs(y))
            if r > rel:
                rel, where = r, f"line {line}: {s} -> {t}"
            moved[key] = (rel, where, max(absolute, abs(y - x)))
    heads = [f"  {key}: max rel {rel:.3g} ({where}), max abs {absolute:.3g}"
             f" = {absolute / scale[key] if scale[key] else math.inf:.3g} of max |old|"
             for key, (rel, where, absolute) in moved.items()]
    return heads + lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/output_drift.py OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = (Path(arg) for arg in argv)
    paths = sorted({p.relative_to(root) for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    changed = 0
    for rel_path in paths:
        old, new = old_root / rel_path, new_root / rel_path
        if not (old.is_file() and new.is_file()):
            print(f"{rel_path.as_posix()}: only in {old_root if old.is_file() else new_root}")
            changed += 1
        elif old.read_bytes() != new.read_bytes():
            print(rel_path.as_posix())
            print("\n".join(drift(old, new)))
            changed += 1
    print(f"{changed} of {len(paths)} file(s) differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
