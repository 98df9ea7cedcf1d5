import ast
import importlib
import inspect
import sys
from collections import Counter
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


def _references(tree: ast.AST) -> Counter:
    """How often each name is used by the Name and Attribute nodes of tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_used_by_the_library():
    # src/ holds what the library runs: a top-level def or class is referenced by
    # other package code, exported from kirchlab, or is the cli.main entry point;
    # code that only tests call belongs in tests/
    package = Path(kirchlab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defs = {f"{module}.{node.name}": node for module, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    inside = {key: _references(node) for key, node in defs.items()}
    total = sum(map(_references, trees.values()), Counter())
    # a definition referenced only from unused ones is unused too
    unused = set()
    while True:
        live = total - sum((inside[key] for key in unused), Counter())
        found = {key for key, node in defs.items()
                 if key not in unused and key != "cli.main" and node.name not in exported
                 and live[node.name] <= inside[key][node.name]}
        if not found:
            break
        unused |= found
    assert sorted(unused) == []


def test_three_exception_classes():
    # input a function cannot accept raises ValueError, a computation that failed
    # on accepted input KirchlabError; only the two subclasses that carry data
    # (the last iterate, the parse offset) are defined besides
    defined = set()
    for path in sorted(Path(kirchlab.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"kirchlab.{path.stem}")
        defined |= {name for name, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__ and issubclass(cls, BaseException)}
    assert defined == {"KirchlabError", "NoConvergence", "ExprError"}


def test_every_raise_names_one_of_the_failure_classes():
    # TypeError and AssertionError stay for programming errors
    allowed = {"ValueError", "KirchlabError", "NoConvergence", "ExprError", "TypeError",
               "AssertionError"}
    raised = Counter()
    for path in sorted(Path(kirchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised[func.id if isinstance(func, ast.Name) else ast.unparse(func)] += 1
    assert set(raised) <= allowed, raised
    assert raised["ValueError"] > 0 and raised["KirchlabError"] > 0
