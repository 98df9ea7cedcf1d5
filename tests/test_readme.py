"""README's examples run as written and do what their comments say."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from kirchlab.cli import main, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_python_example():
    (code,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    roots_line, verdict_line = out.getvalue().splitlines()
    roots = ast.literal_eval(roots_line)
    assert len(roots) == 1 and roots[0] > 0.0          # one solution
    assert verdict_line == "UniqueRatioBound"


def example_config() -> str:
    block = README.split("Example config:\n\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line[4:])
    return "\n".join(lines)


def test_readme_example_config_is_accepted(tmp_path):
    cfg = tmp_path / "problem.ini"
    cfg.write_text(example_config())
    config = parse_config(str(cfg))
    grid = config.problem.grid
    assert (grid.nx, grid.ny, config.n_samples) == (64, 64, 256)
    assert config.formats == ("csv", "json", "fields")


def table_files(command: str, argv: list) -> list:
    """The files README's format table lists for one command line, every format on."""
    (row,) = re.findall(rf"^\| `{command}` \|(.*)\|$", README, flags=re.MULTILINE)
    names = []
    for cell in row.split("|"):
        if "`--write-fields`" in cell and "--write-fields" not in argv:
            continue
        names += [n.replace("NNN", "000") for n in re.findall(r"`(\w+\.\w+)`", cell)]
    return names


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch):
    block = README.split("## Command line", 1)[1].split("Example config:", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("    kirchlab ")]
    assert [argv[0] for argv in commands] == ["solve", "certify", "eigen", "scan-study",
                                              "example"]
    monkeypatch.chdir(tmp_path)
    Path("problem.ini").write_text(example_config())
    for argv in commands:
        assert main(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1] if "--out" in argv
                   else parse_config("problem.ini").out_dir)
        files = table_files(argv[0], argv)
        assert files
        for name in files:
            assert (out / name).is_file(), (argv, name)
