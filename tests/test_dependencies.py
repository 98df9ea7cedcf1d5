import ast
import sys
from pathlib import Path

import kirchlab


def test_numpy_is_the_only_runtime_dependency():
    # scipy and friends may be installed where the tests run; the package must not need them
    for path in sorted(Path(kirchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, name)
