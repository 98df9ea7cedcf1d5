"""Print a digest of every file a fixed set of CLI runs writes.

    python tools/output_digests.py [--src DIR] [--keep DIR]

Imports kirchlab from DIR (default: this checkout's src/), runs each call of
runs() through kirchlab.cli.main with --quiet into a temporary directory, and
prints one line per run (tag, exit code, stderr) and one "sha256  path" line
per output file.  Two commits write the same bytes when their printouts are
identical; to compare a change with its parent, run it once as is and once
with --src pointing at the src/ of a checkout of the parent.  --keep copies the
output tree to DIR, so that tools/output_drift.py can compare two such trees
where their digests differ.  BLAS is pinned
to one thread before numpy loads, since another thread count may change the
last digits of eigen outputs.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (24, 32, 64)
ALL_FIVE = (("solve",), ("certify",),
            ("eigen", "--alphas", "logspace:0.01,100,8", "--write-fields"),
            ("scan-study", "--scales", "0,0.5,1,2,4"), ("example",))
BUMP = "a = 2 - 0.8*sin(pi*x)*sin(pi*y)\nb = 1\nh = 1"


def sized(config: str, n: int) -> str:
    return re.sub(r"(?m)^(n[xy]) = \d+", rf"\1 = {n}", config)


def write_field_text(path: Path, header: str, values) -> None:
    """A field file of one row per grid row, each value as "%.17g" prints it."""
    nx = int(header.split()[0])
    rows = [" ".join("%.17g" % v for v in values[i:i + nx]) for i in range(0, len(values), nx)]
    path.write_text(f"# field {header}\n" + "\n".join(rows) + "\n", encoding="ascii")


def strip_config(work: Path, tag: str, scale: dict) -> str:
    """The three-root strip problem of tests/conftest.py, each coefficient times
    its factor in scale (default 1), read from field files."""
    from conftest import THREE_ROOT_STRIPS
    from kirchlab.grid import Grid

    header = Grid.over_rectangle(64, 1).header()
    lines = []
    for name, strips in THREE_ROOT_STRIPS.items():
        path = work / f"{tag}_{name}.field"
        factor = scale.get(name, 1.0)
        write_field_text(path, header, [factor * strips[i // 8] for i in range(64)])
        lines.append(f"{name}_file = {path}")
    return "[grid]\nnx = 64\nny = 1\n\n[coefficients]\n" + "\n".join(lines) + "\n"


def runs(work: Path) -> list:
    """(tag, config text, CLI arguments) of every run, in order."""
    from test_readme import example_config

    readme = example_config() + "\n"
    bump = f"[grid]\nnx = 24\nny = 24\n\n[coefficients]\n{BUMP}\n"
    out = []
    for label, config in (("readme", readme), ("bump", bump)):
        for n in SIZES:
            out += [(f"{label}-{n}", sized(config, n), args) for args in ALL_FIVE]
    # its scan works in blocks of 2 samples; those of the runs above hold 56, 32 and 8
    out.append(("readme-128", sized(readme, 128), ("solve",)))
    # a user ceiling in place of the provable one: the scan skips its check atop the bracket
    override = sized(readme, 32).replace("# s_max_override = 10", "s_max_override = 10")
    assert override.count("\ns_max_override = 10") == 1, "README's s_max_override line moved"
    out.append(("override-32", override, ("solve",)))
    json_only = sized(readme, 16).replace("formats = csv,json,fields", "formats = json")
    assert json_only.count("formats = json\n") == 1, "README's formats line moved"
    out += [("json-16", json_only, args) for args in ALL_FIVE[:3]]
    out.append(("constant-ratio-16", "[grid]\nnx = 16\nny = 16\n\n[coefficients]\n"
                "a = 2\nb = 1\nh = sin(pi*x)*sin(pi*y)\n", ("eigen", "--alphas", "0.1,1,10")))
    out.append(("strip", strip_config(work, "strip", {}), ("solve",)))
    # u = 2^-15 v: the roots are 4^-15 times the strip's
    tiny = strip_config(work, "tiny_strip", {"a": 4.0 ** -15, "h": 8.0 ** -15})
    out.append(("tiny-strip", tiny, ("solve",)))
    # ratios rescaled far from 1: a certificate depends on a/b only up to a factor
    for tag, a, commands in (("tiny-ramp-8", "1e-12*(1+8*x)", ("certify",)),
                             ("huge-a-8", "1e200", ("solve", "certify")),
                             ("tiny-a-8", "1e-200", ("certify",)),
                             ("const-8", "0.1", ("certify",))):
        config = f"[grid]\nnx = 8\nny = 8\n\n[coefficients]\na = {a}\nb = 1\nh = 1\n"
        out += [(tag, config, (command,)) for command in commands]
    # (c + alpha)^2 underflows to 0: the weight flux is not finite, and the run fails
    tiny_ratio = ("[grid]\nnx = 24\nny = 24\n\n[coefficients]\n"
                  "a = 1e-170*(1 + 0.8*x + 0.3*y)\nb = 1\nh = 1\n")
    out.append(("tiny-ratio", tiny_ratio, ("eigen", "--alphas", "1e-172,1e-170")))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the kirchlab package")
    parser.add_argument("--keep", help="directory to copy the output tree to")
    opts = parser.parse_args()
    src = Path(opts.src).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before kirchlab loads numpy
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    from kirchlab.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for tag, config, args in runs(work):
            cfg = work / f"{tag}.ini"
            cfg.write_text(config, encoding="ascii")
            out = work / "out" / tag / args[0]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main([args[0], "--config", str(cfg), "--out", str(out), "--quiet",
                                 *args[1:]])
            print(f"{tag} {args[0]}: exit {code}, stderr {err.getvalue()!r}")
        for path in sorted((work / "out").rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(work / 'out').as_posix()}")
        if opts.keep:
            shutil.copytree(work / "out", opts.keep, dirs_exist_ok=True)


if __name__ == "__main__":
    main()
