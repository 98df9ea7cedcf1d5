"""Print every executable line of src/kirchlab that no test runs.

    python tools/untested_lines.py [pytest arguments]

Runs pytest in this process (on tests/ by default) with a sys.settrace line
tracer on the files of src/kirchlab, and prints one "file:line  source" line
for each executable line that no test reached, then a count.  Executable lines
are the line numbers of the files' compiled code objects, docstrings excluded.
CPython drops a tracer that raises, as one does in a test that exhausts the
recursion limit, so the tracer is installed again before each test.  Standard
library and pytest only; the exit code is pytest's.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kirchlab"


def executable_lines(path: Path) -> set:
    """The line numbers of the code objects compiled from path, without its docstrings."""
    source = path.read_text(encoding="utf-8")
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts at line 0, before its source
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


class LineTracer:
    """Records (file, line) of every line run in a file under the package directory."""

    def __init__(self, package: Path):
        self.prefix = str(package) + "/"
        self.hits = set()

    def __call__(self, frame, event, arg):
        return self.local if frame.f_code.co_filename.startswith(self.prefix) else None

    def local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    @pytest.hookimpl(hookwrapper=True, tryfirst=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self)
        yield


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(PACKAGE)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])],
                           plugins=[tracer])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in tracer.hits:
                print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
                missed += 1
    print(f"{missed} executable line(s) that no test ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
