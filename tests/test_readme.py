"""README's examples run as written and do what their comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

from kirchlab.cli import parse_config

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


def test_readme_example_config_is_accepted(tmp_path):
    block = README.split("Example config:\n\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line[4:])
    cfg = tmp_path / "problem.ini"
    cfg.write_text("\n".join(lines))
    config = parse_config(str(cfg))
    assert (config.grid.nx, config.grid.ny, config.n_samples) == (64, 64, 256)
    assert config.formats == ("csv", "json", "fields")
