import json
import math
import random
import re
import warnings
from functools import partial

import pytest

import kirchlab.eigen
import kirchlab.kirchhoff
from kirchlab import KirchlabError, cli, expr, linalg
from kirchlab.cli import main, parse_config, to_json_text
from kirchlab.eigen import EigenCurve, principal_eigenpair
from kirchlab.grid import (Grid, ScalarField, dirichlet_lambda1, grad_norm_sq, read_field,
                           write_field)
from kirchlab.certify import certify, interior_min, pointwise_criterion
from kirchlab.kirchhoff import Problem

from conftest import three_root_fields, unit_grid


def write_config(path, grid="nx = 24\nny = 24", coeffs="a = 1\nb = 1\nh = sin(pi*x)*sin(pi*y)",
                 solver="", output=""):
    text = f"[grid]\n{grid}\n\n[coefficients]\n{coeffs}\n"
    if solver:
        text += f"\n[solver]\n{solver}\n"
    if output:
        text += f"\n[output]\n{output}\n"
    path.write_text(text)
    return str(path)


def cubic_config(path, n=24):
    # scale h so the fixed-point map starts at 4: the unique root is s = 1
    lam1 = dirichlet_lambda1(unit_grid(n))
    k = 4.0 * math.sqrt(lam1)
    return write_config(
        path,
        grid=f"nx = {n}\nny = {n}",
        coeffs=f"a = 1\nb = 1\nh = {k:.17g}*sin(pi*x)*sin(pi*y)",
        solver="n_samples = 64",
    )


def test_solve_cubic_reports_unit_root(tmp_path):
    cfg = cubic_config(tmp_path / "cfg.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_roots"] == 1
    assert abs(summary["roots"][0]["s"] - 1.0) <= 1e-8
    assert summary["newton"]["converged"] is True
    assert summary["newton"]["reason"] is None
    scan_lines = (out / "scan.csv").read_text().strip().split("\n")
    assert scan_lines[0] == "s,phi_s,kind"
    assert any(line.endswith(",root") for line in scan_lines[1:])
    root_field = read_field(out / "root_000.field")
    assert grad_norm_sq(root_field) == pytest.approx(1.0, abs=1e-7)


def test_solve_zero_forcing(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1\nb = 1\nh = 0",
                       solver="n_samples = 32")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_roots"] == 1
    assert summary["roots"][0]["s"] == pytest.approx(0.0, abs=1e-12)


def test_solve_deterministic_output(tmp_path):
    cfg = cubic_config(tmp_path / "cfg.ini", n=16)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("scan.csv", "summary.json", "root_000.field"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the refinement facts are part of the compared bytes
    summary = json.loads((out1 / "summary.json").read_text())
    (root,) = summary["roots"]
    assert root["dphi"] == pytest.approx(-1.0, rel=1e-6)
    assert root["refine_evals"] >= 1
    assert summary["n_phi_evals"] == 64 + root["refine_evals"]


def test_solve_records_newton_failure_reason(tmp_path):
    cfg = cubic_config(tmp_path / "cfg.ini")
    with open(cfg, "a") as fh:
        fh.write("newton_tol = 1e-30\n")
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    newton = json.loads((outs[0] / "summary.json").read_text())["newton"]
    assert newton["converged"] is False
    assert isinstance(newton["reason"], str) and newton["reason"]
    assert newton["steps"] is None
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_solve_reports_newton_steps(tmp_path, monkeypatch):
    # steps counts the linearized steps of the Newton cross-check
    calls = []
    step = kirchlab.kirchhoff._linearized_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(kirchlab.kirchhoff, "_linearized_step", counted)
    cfg = cubic_config(tmp_path / "cfg.ini")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    newton = json.loads((out / "summary.json").read_text())["newton"]
    assert list(newton) == ["converged", "s", "residual", "steps", "reason"]
    assert newton["converged"] is True
    assert newton["steps"] == len(calls) >= 1


COEFFICIENT_RULE = [  # (a, b, the text Problem and certify raise); a and b live on 8x8
    # nodes, except "9x9", which is 1 on 9x9 nodes
    ("x-0.5", "1", "coefficients must be positive: min a = -0.388889, min b = 1"),
    ("1", "x-0.5", "coefficients must be positive: min a = 1, min b = -0.388889"),
    ("1", "9x9", "a and b live on different grids"),
]


@pytest.mark.parametrize("source", ["expression", "file"])
@pytest.mark.parametrize("command", [
    ["solve"], ["certify"], ["eigen", "--alphas", "0.5,2"], ["scan-study", "--scales", "1"]])
def test_nonpositive_coefficient_exits_2(tmp_path, capsys, command, source):
    # one text per coefficient rule: Problem and certify raise it, and the CLI
    # prints it after "config error: ", with a and b given as expressions or as
    # field files.  A field file on another grid never reaches Problem: the
    # [grid] check refuses it first and names the coefficient
    g, g9 = unit_grid(8), unit_grid(9)
    for a_text, b_text, message in COEFFICIENT_RULE:
        fields, lines = {}, []
        for name, text in (("a", a_text), ("b", b_text)):
            f = ScalarField.full(g9, 1.0) if text == "9x9" else \
                expr.eval_field(expr.parse(text), g)
            fields[name] = f
            if source == "file" or text == "9x9":
                write_field(f, tmp_path / f"{name}.field")
                lines.append(f"{name}_file = {tmp_path / f'{name}.field'}")
            else:
                lines.append(f"{name} = {text}")
        for build in (partial(Problem, fields["a"], fields["b"], ScalarField.zeros(g)),
                      partial(certify, fields["a"], fields["b"])):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        if b_text == "9x9":
            message = f"coefficient 'b': field file grid {g9} does not match the [grid] section"
        cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                           coeffs="\n".join(lines) + "\nh = 1", solver="n_samples = 16")
        out = tmp_path / "out"
        assert main([command[0], "--config", cfg, "--out", str(out), "--quiet",
                     *command[1:]]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_certify_and_eigen_deterministic_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 12",
                       coeffs="a = 1+x\nb = 1\nh = x-y")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert main(["eigen", "--config", cfg, "--alphas", "0.5,2",
                     "--out", str(out), "--quiet"]) == 0
    for name in ("certificate.json", "eigen_curve.csv", "eigen_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_missing_coefficient_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1\nb = 1")
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "'h'" in capsys.readouterr().err


def test_solve_double_coefficient_exits_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini",
                       coeffs="a = 1\na_file = x.field\nb = 1\nh = 0")
    assert main(["solve", "--config", cfg, "--quiet"]) == 2


def test_solve_bad_expression_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = sin(pi*x\nb = 1\nh = 0")
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "'a'" in capsys.readouterr().err


@pytest.mark.parametrize("where,text", [
    ("solver", "n_sample = 16"),                        # n_samples
    ("solver", "newton_tolerance = 1e-30"),             # newton_tol
    ("output", "format = csv"),                         # formats
    ("grid", "nz = 4"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, where, text):
    lines = {"grid": "nx = 8\nny = 8", "solver": "", "output": ""}
    lines[where] = f"{lines[where]}\n{text}".strip()
    cfg = write_config(tmp_path / "cfg.ini", grid=lines["grid"], solver=lines["solver"],
                       output=lines["output"])
    out = tmp_path / "out"
    for command in ("solve", "certify", "example"):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        key = text.split(" = ")[0]
        assert f"config error: unknown key '{key}' in section [{where}]" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_section_and_default_keys_exit_2(tmp_path, capsys):
    base = write_config(tmp_path / "base.ini", grid="nx = 8\nny = 8")
    cases = {"[solvers]\nn_samples = 16\n": "unknown section [solvers]",
             "[DEFAULT]\nnx = 8\n": "unknown key 'nx' in section [DEFAULT]"}
    for i, (extra, message) in enumerate(cases.items()):
        cfg = tmp_path / f"cfg{i}.ini"
        cfg.write_text(extra + "\n" + (tmp_path / "base.ini").read_text())
        assert main(["solve", "--config", str(cfg), "--quiet"]) == 2
        assert message in capsys.readouterr().err
    assert main(["solve", "--config", base, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_non_ascii_digits_are_not_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[grid]\nnx = 8\nny = 8\n[coefficients]\na = １\nb = ٣\nh = 1\n",
                   encoding="utf-8")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "coefficient 'a': unexpected character '１' (offset 0)" in capsys.readouterr().err


def test_empty_format_list_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8", output="formats = ,")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "empty output format list ','" in capsys.readouterr().err
    assert not out.exists()


BASE_CONFIG = "[grid]\nnx = 4\nny = 4\n\n[coefficients]\na = 1\nb = 1\nh = 1\n"
CONFIG_ERRORS = {  # id: (config text, command, message after "config error: ")
    "missing-nx": (BASE_CONFIG.replace("nx = 4\n", ""), ["certify"],
                   "missing required key 'nx' in section [grid]"),
    "key-before-section": ("nx = 4\n" + BASE_CONFIG, ["certify"],
                           "malformed config {cfg}: File contains no section headers. "
                           "file: '{cfg}', line: 1 "),
    "duplicate-key": (BASE_CONFIG.replace("nx = 4\n", "nx = 4\nnx = 4\n"), ["certify"],
                      "malformed config {cfg}: While reading from '{cfg}' [line 3]: "
                      "option 'nx' in section 'grid' already exists"),
    "unreadable-field": (BASE_CONFIG.replace("a = 1", "a_file = {missing}"), ["certify"],
                         "coefficient 'a': cannot read {missing}: "),
    "no-grid": (BASE_CONFIG.replace("[grid]\nnx = 4\nny = 4\n", ""), ["certify"],
                "missing required section [grid]"),
    "no-coefficients": (BASE_CONFIG.split("\n[coefficients]")[0], ["certify"],
                        "missing required section [coefficients]"),
    "unknown-format": (BASE_CONFIG + "\n[output]\nformats = csv,xml\n", ["certify"],
                       "unknown output format 'xml' "),
    "logspace-count": (BASE_CONFIG, ["eigen", "--alphas=logspace:1,2,0"],
                       "malformed alpha 'logspace:1,2,0': logspace needs count >= 1"),
    "empty-alphas": (BASE_CONFIG, ["eigen", "--alphas=,"], "empty alpha list"),
    "empty-scales": (BASE_CONFIG, ["scan-study", "--scales=,"], "empty scale list"),
    "logspace-end": (BASE_CONFIG, ["eigen", "--alphas=logspace:0,1,3"],
                     "malformed alpha 'logspace:0,1,3': logspace end must be positive and "
                     "finite, got 0.0"),
    # the [solver] values go through the scan's and Newton's own checks
    "few-samples": (BASE_CONFIG + "\n[solver]\nn_samples = 15\n", ["solve"],
                    "bad value for 'n_samples' in [solver]: need at least 16 samples, got 15"),
    "zero-newton-tol": (BASE_CONFIG + "\n[solver]\nnewton_tol = 0\n", ["solve"],
                        "bad value for 'newton_tol' in [solver]: tol must be positive and "
                        "finite, got 0.0"),
    "negative-s-max": (BASE_CONFIG + "\n[solver]\ns_max_override = -1\n", ["solve"],
                       "bad value for 's_max_override' in [solver]: s_max must be positive "
                       "and finite, got -1.0"),
}


@pytest.mark.parametrize("config,command,message", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS.keys())
def test_config_error_exits_2_before_any_output(tmp_path, capsys, config, command, message):
    # one stderr line, which names the file and line of a malformed config
    missing = tmp_path / "missing.field"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config.format(missing=missing))
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(missing=missing, cfg=cfg))
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_empty_optional_key_takes_its_default(tmp_path):
    # an empty lx is the default side length 1, as if lx were absent
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 4\nny = 4\nlx =\nly = 2",
                       coeffs="a = 1\nb = 1\nh = 1")
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["grid"] == Grid.over_rectangle(4, 4, 1.0, 2.0).header()


def test_certify_constant_ratio_exit_0(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1\nb = 1\nh = x-y")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert list(cert) == ["verdict", "ratio_value", "min_D", "theta", "lambda1", "grid",
                          "details"]
    assert cert["verdict"] == "UniqueConstantRatio"
    assert cert["theta"] == pytest.approx(1.0)


def test_certify_ratio_bound_exit_0(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 32\nny = 32",
                       coeffs="a = 1+x\nb = 1\nh = x-y")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "UniqueRatioBound"


def test_certify_inconclusive_exit_1(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 32\nny = 32",
                       coeffs="a = 1+2*x^2*y\nb = 1\nh = x-y")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "Inconclusive"


def test_eigen_constant_ratio_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 2\nb = 1\nh = 0")
    assert main(["eigen", "--config", cfg, "--alphas", "0.1,1", "--quiet"]) == 1
    assert "admissible set empty" in capsys.readouterr().err


def test_eigen_huge_alpha_exits_1_without_warnings(tmp_path, capsys):
    # the weight's squared denominator overflows at alpha = 1e200: the flux is 0
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    assert main(["eigen", "--config", cfg, "--alphas", "1e200",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "eigen: admissible set empty for the sampled alphas\n"


def test_eigen_ramp_writes_curve(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 16\nny = 16",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "0.5,1,2",
                 "--write-fields", "--out", str(out), "--quiet"]) == 0
    lines = (out / "eigen_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,lambda,ee_bound,rayleigh_gap"
    assert len(lines) == 4
    for i in range(3):
        alpha, lam, bound, gap = (float(t) for t in lines[i + 1].split(","))
        assert lam >= bound - 1e-8
        assert gap <= 1e-8
        f = read_field(out / f"eigenfunction_{i:03d}.field")
        assert grad_norm_sq(f) == pytest.approx(alpha, rel=1e-7)


def test_eigen_write_fields_solves_each_alpha_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 12",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    stacks, weights = [], []
    solve_stack, weight = kirchlab.eigen._lobpcg_stack, kirchlab.eigen.eigen_weight

    def counted_stack(g, W, B, where):
        stacks.append(list(where))      # one label per alpha handed to the solver
        return solve_stack(g, W, B, where)

    def counted_weight(c, alpha):
        weights.append(alpha)
        return weight(c, alpha)

    monkeypatch.setattr(kirchlab.eigen, "_lobpcg_stack", counted_stack)
    monkeypatch.setattr(kirchlab.eigen, "eigen_weight", counted_weight)
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "0.5,1,2",
                 "--write-fields", "--out", str(out), "--quiet"]) == 0
    assert sorted(label for stack in stacks for label in stack) == \
        [" at alpha = 0.5", " at alpha = 1", " at alpha = 2"]
    assert weights == [0.5, 1.0, 2.0]
    monkeypatch.undo()

    P = parse_config(cfg).problem
    c = ScalarField(P.grid, P.a.values / P.b.values)
    assert not (out / "eigenfunction_003.field").exists()
    for i, alpha in enumerate([0.5, 1.0, 2.0]):
        write_field(principal_eigenpair(c, alpha).u, tmp_path / "reference.field")
        assert (out / f"eigenfunction_{i:03d}.field").read_bytes() == \
            (tmp_path / "reference.field").read_bytes()


def test_eigen_no_convergence_names_the_alpha(tmp_path, capsys, monkeypatch):
    # every alpha runs out of steps; the first in order is the one reported
    monkeypatch.setattr(linalg, "LOBPCG_MAX_ITER", 2)
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 12",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    assert main(["eigen", "--config", cfg, "--alphas", "0.5,1,2",
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: LOBPCG: residual ")
    assert err.rstrip().endswith("after 2 iterations at alpha = 0.5")
    assert "Traceback" not in err


def test_eigen_large_grid_runs(tmp_path):
    # 10,100 nodes: above the size the dense eigensolve accepted
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 101\nny = 100",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "1", "--write-fields",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "eigen_curve.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    alpha, lam, bound, gap = (float(t) for t in lines[1].split(","))
    assert alpha == 1.0
    assert lam >= bound - 1e-8
    assert gap <= 1e-8
    f = read_field(out / "eigenfunction_000.field")
    assert f.grid.n_nodes == 10100
    assert f.values.min() >= -1e-8 * f.values.max()


def test_unwritable_out_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1+x\nb = 1\nh = x-y")
    (tmp_path / "afile").write_text("")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "afile" / "sub"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert "Traceback" not in err


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    # the directory exists, but the file certify writes is a directory
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1+x\nb = 1\nh = x-y")
    (tmp_path / "wout" / "certificate.json").mkdir(parents=True)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "wout"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize("h", ["(x-2)^0.5", "sin(1e308*x*10)"])
def test_domain_failing_forcing_exits_2_without_warnings(tmp_path, capsys, h):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs=f"a = 1\nb = 1\nh = {h}", solver="n_samples = 16")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coefficient 'h': ")
    assert "Warning" not in err
    assert "Traceback" not in err


def _robustness_case(rng: random.Random, tmp_path, i: int) -> tuple:
    """One seeded config and output directory; most of them are wrong on purpose."""
    good = ["1", "1+x", "2-0.8*sin(pi*x)*sin(pi*y)", "exp(x*y)", "1+0.5*x^2+y",
            "sin(pi*x)*sin(2*pi*y)"]
    broken = ["sin(pi*x", "1+*2", "foo(x)", "x$", "", "2^", "(1))",
              "log(x-1)", "1/(x-0.5)", "sqrt(-1-x)", "(x-2)^0.5", "0^(-x)",
              "10^(500*x)", "exp(1000*x)", "sin(1e308*x*10)", "1e308*x*10",
              "x-0.5", "0", "-1", "nan"]
    grids = ["nx = 8\nny = 8", "nx = 3\nny = 5", "nx = 1\nny = 1",
             "nx = 6\nny = 4\nx0 = -1\nlx = 2", "nx = 4\nny = 4\nlx = 1e200"]
    bad_grids = ["nx = 0\nny = 4", "nx = -3\nny = 4", "nx = abc\nny = 4", "nx = 4",
                 "nx = 4\nny = 4\nlx = 0", "nx = 4\nny = 4\nly = -1", "nx = 2.5\nny = 4",
                 "nx = -1\nny = 4", "nx = 4\nny = 4\nx0 = nan", "nx = 4\nny = 4\nly = inf"]
    coeffs = {key: rng.choice(good) for key in "abh"}
    for _ in range(rng.randint(0, 2)):
        coeffs[rng.choice("abh")] = rng.choice(broken)
    grid = rng.choice(bad_grids) if rng.random() < 0.2 else rng.choice(grids)
    solver = rng.choice(["n_samples = 16", "n_samples = 16", "n_samples = 3",
                         "n_samples = 16\nnewton_tol = -1", "n_samples = 16\ns_max_override = 0",
                         "n_samples = 16\nnewton_tol = nan", "n_samples = 16\ns_max_override = inf"])
    cfg = write_config(tmp_path / f"cfg{i}.ini", grid=grid, solver=solver,
                       coeffs="\n".join(f"{k} = {v}" for k, v in coeffs.items()))
    out = tmp_path / f"out{i}"
    blocker = rng.random()
    if blocker < 0.1:
        (tmp_path / f"file{i}").write_text("")
        out = tmp_path / f"file{i}" / "sub"
    elif blocker < 0.2:
        for name in ("scan.csv", "summary.json", "certificate.json", "eigen_curve.csv",
                     "scan_study.csv", "example_ratio.field"):
            (out / name).mkdir(parents=True)
    return cfg, out


def test_cli_never_raises_on_random_inputs(tmp_path, capsys):
    rng = random.Random(20261018)
    commands = [["solve"], ["certify"], ["eigen", "--alphas", "0.5,2"],
                ["scan-study", "--scales", "0.5,1"], ["example"]]
    codes = []
    for i in range(40):
        cfg, out = _robustness_case(rng, tmp_path, i)
        for command in commands:
            code = main([command[0], "--config", cfg, "--out", str(out), "--quiet",
                         *command[1:]])
            assert code in (0, 1, 2, 3), (i, command, code)
            codes.append(code)
    assert "Traceback" not in capsys.readouterr().err
    assert {0, 1, 2} <= set(codes)


def test_solve_overflow_exits_3(tmp_path, capsys):
    # a valid config whose energy bound overflows: a numerical failure, not a config error
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1\nb = 1\nh = 1e200", solver="n_samples = 16")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: energy bound")
    assert "Traceback" not in err


def test_solve_coefficient_overflow_exits_3_without_warnings(tmp_path, capsys):
    # a ceiling that fits in a double, but a + s*b overflows at the second scan
    # sample, s = 1.05 * 2.5e300 / 255 = 1.03e298
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1e-100\nb = 1e20\nh = 1e50", solver="s_max_override = 2.5e300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: frozen coefficient a + s*b is not a finite "
                          "double at s = 1.")
    assert "Warning" not in err
    assert "Traceback" not in err


def test_solve_overflow_config_records_newton_failure(tmp_path, capsys):
    # the tight ceiling (3.4e19) keeps every scan sample finite; Newton, which
    # starts from the frozen solve at s = 0, overflows a + s*b on its way
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1e-100\nb = 1e20\nh = 1e50")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_roots"] == 1
    assert summary["newton"]["converged"] is False
    assert summary["newton"]["reason"].startswith(
        "frozen coefficient a + s*b is not a finite double")


EXTREME_CONFIGS = [  # (extra [grid] line, a, extra [solver] line, subcommands, exit code)
    ("", "1e200", "", ["solve", "certify"], 0),
    ("lx = 1e200", "1", "", ["solve", "certify", "example"], 3),
    ("lx = 1e-300", "1", "", ["solve", "certify", "example"], 3),
    ("x0 = nan", "1", "", ["solve"], 2),
    ("y0 = inf", "1", "", ["solve"], 2),
    ("lx = inf", "1", "", ["solve", "certify"], 2),
    ("", "1", "newton_tol = nan", ["solve"], 2),
    ("", "1", "newton_tol = inf", ["solve"], 2),
    ("", "1", "s_max_override = nan", ["solve"], 2),
    ("", "1", "s_max_override = inf", ["solve"], 2),
]


@pytest.mark.parametrize(
    "command,grid_line,a,solver_line,code",
    [(command, grid_line, a, solver_line, code)
     for grid_line, a, solver_line, commands, code in EXTREME_CONFIGS for command in commands],
    ids=[f"{command}-{grid_line or solver_line or 'a = ' + a}".replace(" ", "")
         for grid_line, a, solver_line, commands, _ in EXTREME_CONFIGS for command in commands])
def test_extreme_config_exit_code(tmp_path, capsys, command, grid_line, a, solver_line, code):
    # a = 1e200 is solved and certified like a = 1 (0); finite extreme geometry
    # overflows Python floats during the run (3); non-finite geometry or
    # [solver] values are bad input (2) and create no output directory
    cfg = write_config(tmp_path / "cfg.ini", grid=f"nx = 8\nny = 8\n{grid_line}",
                       coeffs=f"a = {a}\nb = 1\nh = 1", solver=f"n_samples = 16\n{solver_line}")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        if command == "solve":
            summary = json.loads((out / "summary.json").read_text())
            assert [root["s"] for root in summary["roots"]] == [0.0]
            assert summary["newton"]["converged"] is True
        else:
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["verdict"] == "UniqueConstantRatio"
        return
    assert err.startswith("config error: " if code == 2 else "numerical failure: ")
    assert "Traceback" not in err
    assert "Warning" not in err
    if code == 2:
        assert not out.exists()


HUGE = 10 ** 15  # doubles: 8 PB is past a 47-bit address space, so numpy refuses at once
ABSURD_SIZES = [  # (subcommand, [grid] lines, [solver] lines, extra arguments, exit code)
    ("solve", "nx = 8\nny = 8", f"n_samples = {HUGE}", [], 3),
    ("certify", f"nx = {HUGE}\nny = 8", "", [], 2),
    ("example", f"nx = {HUGE}\nny = 8", "", [], 3),
    ("eigen", "nx = 8\nny = 8", "", ["--alphas", f"logspace:1,2,{HUGE}"], 2),
]


@pytest.mark.parametrize("command,grid_lines,solver_line,extra,code", ABSURD_SIZES,
                         ids=[case[0] for case in ABSURD_SIZES])
def test_absurd_size_exit_code(tmp_path, capsys, command, grid_lines, solver_line, extra, code):
    # an array too large to allocate is bad input while the config is read (2)
    # and a numerical failure during the run (3), never a traceback
    cfg = write_config(tmp_path / "cfg.ini", grid=grid_lines,
                       coeffs="a = 1+x\nb = 1\nh = 1", solver=solver_line)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet", *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "numerical failure: ")
    assert "MemoryError: Unable to allocate" in err
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()


DEEP = 5000
DEEP_EXPRESSIONS = {
    "sum": "+".join(["1"] * DEEP),
    "parentheses": "(" * DEEP + "1" + ")" * DEEP,
    "unary-minus": "-" * DEEP + "1",
    "sin": "sin(" * DEEP + "1" + ")" * DEEP,
    "power": "^".join(["1"] * DEEP),
}


@pytest.mark.parametrize("a", DEEP_EXPRESSIONS.values(), ids=DEEP_EXPRESSIONS.keys())
def test_deep_expression_is_a_config_error(tmp_path, capsys, a):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 4\nny = 4", coeffs=f"a = {a}\nb = 1\nh = 1")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coefficient 'a': RecursionError: maximum recursion depth")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("a", ["1", "1+x"])
def test_overflowing_far_edge_exits_2_without_warnings(tmp_path, capsys, a):
    # x0 and lx are finite doubles, but x0 + lx and the last node coordinates are not
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 4\nny = 4\nx0 = 1.7e308\nlx = 1e308",
                       coeffs=f"a = {a}\nb = 1\nh = 1")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error: grid far edge x0 + (nx+1)*hx = inf")
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_three_root_problem_from_field_files(tmp_path):
    fields = three_root_fields()
    lines = []
    for name, f in fields.items():
        write_field(f, tmp_path / f"{name}.field")
        lines.append(f"{name}_file = {tmp_path / f'{name}.field'}")
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 64\nny = 1", coeffs="\n".join(lines),
                       solver="n_samples = 64")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_roots"] == 3
    assert [root["s"] for root in summary["roots"]] == pytest.approx(
        [0.014602577044, 0.022932092594, 0.069306972350], abs=1e-8)


def test_solve_energy_overflow_exits_3_without_warnings(tmp_path, capsys):
    # s_max_override skips the energy bound; the frozen solve at s = 0 is about
    # 1e198, and its squared face differences overflow the gradient energy
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1e-150\nb = 1\nh = 1e50", solver="s_max_override = 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: gradient energy")
    assert "Warning" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["certify"], ["eigen", "--alphas", "1"]],
                         ids=["certify", "eigen"])
def test_underflowing_ratio_exits_3(tmp_path, capsys, command):
    # a, b > 0 pass the load check, but a/b underflows to 0 inside the run
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1e-300*(1+x)\nb = 1e300\nh = 1")
    assert main([command[0], "--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
                 *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ratio field must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["certify"], ["eigen", "--alphas", "1"]],
                         ids=["certify", "eigen"])
def test_overflowing_ratio_exits_3_without_warnings(tmp_path, capsys, command):
    # a, b > 0 pass the load check, but a/b overflows a double inside the run
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1e300\nb = 1e-10\nh = 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
                     *command[1:]])
    assert code == 3
    assert caught == []
    assert capsys.readouterr().err == ("numerical failure: ratio a/b overflows a double "
                                       "(max a = 1e+300, min b = 1e-10)\n")


def test_eigen_underflowing_squared_shift_exits_3_without_warnings(tmp_path, capsys):
    # (c + alpha)^2 underflows to 0, so the weight flux and its end-face
    # extrapolation are not finite
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1e-170*(1 + 0.8*x + 0.3*y)\nb = 1\nh = 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eigen", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
                     "--alphas", "1e-172,1e-170"])
    assert code == 3
    assert caught == []
    assert capsys.readouterr().err == "numerical failure: face field contains non-finite values\n"


# each failure that once had a class of its own, named by that class, and the
# class its raise sites use now
FOLDED_FAILURES = [
    ("EmptyInput", expr.ExprError, (0,)), ("UnbalancedParen", expr.ExprError, (0,)),
    ("UnknownIdentifier", expr.ExprError, (0,)), ("UnexpectedToken", expr.ExprError, (0,)),
    ("DomainError", ValueError, ()), ("DimensionMismatch", ValueError, ()),
    ("NonPositiveWeight", ValueError, ()), ("NegativeS", ValueError, ()),
    ("NotInA", ValueError, ()), ("NonPositiveC", ValueError, ()),
    ("GridMismatch", ValueError, ()), ("NonPositiveCoefficient", ValueError, ()),
    ("ZeroDenominator", ValueError, ()), ("ConfigError", ValueError, ()),
    ("NotPositiveDefinite", KirchlabError, ()), ("SingularJacobian", KirchlabError, ()),
    ("SignChange", KirchlabError, ()), ("ConstructionFailed", KirchlabError, ()),
]


@pytest.mark.parametrize("error,args", [(cls, ()) for cls in cli.FAILURES]
                         + [(linalg.NoConvergence, ()), (expr.ExprError, (0,))]
                         + [(cls, args) for _, cls, args in FOLDED_FAILURES],
                         ids=[cls.__name__ for cls in cli.FAILURES] + ["NoConvergence", "ExprError"]
                         + [name for name, _, _ in FOLDED_FAILURES])
def test_library_error_in_run_phase_exits_3(tmp_path, capsys, monkeypatch, error, args):
    # every failure the CLI handles, and the two error classes that carry data;
    # Python's own errors name their class
    def failing_certify(a, b):
        raise error("injected failure", *args)

    monkeypatch.setattr(kirchlab.cli, "certify", failing_certify)
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 4\nny = 4")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    named = "" if issubclass(error, (KirchlabError, ValueError)) else f"{error.__name__}: "
    assert err.startswith(f"numerical failure: {named}injected failure")
    assert "Traceback" not in err


def test_eigen_summary_reports_each_row(tmp_path):
    # one entry per curve row, in the order of --alphas, with the solver's own counts
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 10",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "2,0.5,1",
                 "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "eigen_summary.json").read_text())
    P = parse_config(cfg).problem
    assert summary["grid"] == P.grid.header()
    c = ScalarField(P.grid, P.a.values / P.b.values)
    assert [row["alpha"] for row in summary["rows"]] == [2.0, 0.5, 1.0]
    for row in summary["rows"]:
        pair = principal_eigenpair(c, row["alpha"])
        assert set(row) == {"alpha", "iterations", "residual"}
        assert row["iterations"] == pair.iterations >= 1
        assert row["residual"] == pair.residual <= 1e-10


def test_eigen_curve_csv_format(tmp_path, monkeypatch):
    # a header, then one line per curve row with every value in 17 significant digits
    monkeypatch.setattr(cli, "eigen_curve",
                        lambda c, alphas: EigenCurve([(0.5, 2.25, 1.0, 1e-12)]))
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "0.5", "--out", str(out), "--quiet"]) == 0
    assert (out / "eigen_curve.csv").read_text() == \
        "alpha,lambda,ee_bound,rayleigh_gap\n0.5,2.25,1,9.9999999999999998e-13\n"


def test_eigen_summary_follows_json_format(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1+x\nb = 1\nh = 0", output="formats = csv")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "1", "--out", str(out), "--quiet"]) == 0
    assert (out / "eigen_curve.csv").exists()
    assert not (out / "eigen_summary.json").exists()


# the files each subcommand writes under each one-format [output] formats list:
# solve obeys formats throughout, eigen for its summary and fields only, and
# certify, scan-study and example always write their one file
FORMAT_FILES = {
    "solve": {"csv": ["scan.csv"], "json": ["summary.json"], "fields": ["root_000.field"]},
    "eigen": {"csv": ["eigen_curve.csv"], "json": ["eigen_curve.csv", "eigen_summary.json"],
              "fields": ["eigen_curve.csv", "eigenfunction_000.field"]},
    "certify": dict.fromkeys(("csv", "json", "fields"), ["certificate.json"]),
    "scan-study": dict.fromkeys(("csv", "json", "fields"), ["scan_study.csv"]),
    "example": dict.fromkeys(("csv", "json", "fields"), ["example_ratio.field"]),
}
EXTRA_ARGS = {"eigen": ["--alphas", "1", "--write-fields"], "scan-study": ["--scales", "1"]}


@pytest.mark.parametrize("fmt", ["csv", "json", "fields"])
@pytest.mark.parametrize("command", list(FORMAT_FILES))
def test_output_formats_select_the_files_written(tmp_path, command, fmt):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 6\nny = 6",
                       coeffs="a = 1+x\nb = 1\nh = sin(pi*x)*sin(pi*y)",
                       solver="n_samples = 16", output=f"formats = {fmt}")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet",
                 *EXTRA_ARGS.get(command, [])]) == 0
    assert sorted(p.name for p in out.iterdir()) == FORMAT_FILES[command][fmt]


@pytest.mark.parametrize("command", list(FORMAT_FILES))
def test_one_note_per_run(tmp_path, capsys, command):
    # main prints the one note, with the wall time and the output directory,
    # unless --quiet
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 6\nny = 6",
                       coeffs="a = 1+x\nb = 1\nh = sin(pi*x)*sin(pi*y)",
                       solver="n_samples = 16")
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out), *EXTRA_ARGS.get(command, [])]
    assert main(argv) == 0
    note = rf"{re.escape(command)}: [^\n]+ in \d+\.\d\ds -> {re.escape(str(out))}\n"
    assert re.fullmatch(note, capsys.readouterr().err)
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_main_parses_each_call_with_the_one_cached_parser(tmp_path, capsys):
    # the parser is built once per process; no argument of one call leaks into
    # the next, whatever the subcommand
    ramp = write_config(tmp_path / "ramp.ini", grid="nx = 8\nny = 8",
                        coeffs="a = 1+x\nb = 1\nh = 0")
    flat = write_config(tmp_path / "flat.ini", grid="nx = 8\nny = 8",
                        coeffs="a = 2\nb = 1\nh = 0")
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["eigen", "--config", ramp, "--alphas", "0.5,1", "--write-fields",
                 "--out", str(first), "--quiet"]) == 0
    assert main(["certify", "--config", flat, "--out", str(tmp_path / "cert")]) == 0
    assert json.loads((tmp_path / "cert" / "certificate.json").read_text())["verdict"] \
        == "UniqueConstantRatio"
    assert main(["eigen", "--config", ramp, "--alphas", "2", "--out", str(second),
                 "--quiet"]) == 0
    assert main(["eigen", "--config", flat, "--alphas", "0.1", "--quiet"]) == 1
    assert len((first / "eigen_curve.csv").read_text().strip().split("\n")) == 3
    assert sorted(p.name for p in first.glob("*.field")) == ["eigenfunction_000.field",
                                                             "eigenfunction_001.field"]
    assert (second / "eigen_curve.csv").read_text().strip().split("\n")[1].startswith("2,")
    assert list(second.glob("*.field")) == []
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--quiet"])
    assert exc.value.code == 2
    assert main(["example", "--config", flat, "--out", str(tmp_path / "ex"), "--quiet"]) == 0
    assert (tmp_path / "ex" / "example_ratio.field").exists()


def test_eigen_logspace_alphas(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 12",
                       coeffs="a = 1+x\nb = 1\nh = 0")
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "logspace:0.1,10,3",
                 "--out", str(out), "--quiet"]) == 0
    assert len((out / "eigen_curve.csv").read_text().strip().split("\n")) == 4


def test_eigen_malformed_alphas_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1+x\nb = 1\nh = 0")
    for alphas in ("0.1,zebra", "-1,2", "inf", "0.5,nan", "logspace:0.1,inf,3"):
        assert main(["eigen", "--config", cfg, f"--alphas={alphas}", "--quiet"]) == 2


def test_scan_study_nonfinite_scales_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1\nb = 1\nh = 1")
    assert main(["scan-study", "--config", cfg, "--scales", "nan", "--quiet"]) == 2


def test_scan_study_constant_ratio(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 16\nny = 16",
                       coeffs="a = 2\nb = 1\nh = sin(2*pi*x)*sin(pi*y)",
                       solver="n_samples = 48")
    out = tmp_path / "out"
    assert main(["scan-study", "--config", cfg, "--scales", "0,0.5,1,2",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "scan_study.csv").read_text().strip().split("\n")
    assert lines[0] == "k,n_roots,s_values"
    assert len(lines) == 5
    for line in lines[1:]:
        k, n_roots, s_values = line.split(",")
        assert int(n_roots) == 1
        if float(k) == 0.0:
            assert float(s_values) == pytest.approx(0.0, abs=1e-12)


def test_example_emits_certified_field(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 32\nny = 32", coeffs="")
    out = tmp_path / "out"
    assert main(["example", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    c = read_field(out / "example_ratio.field")
    assert float(c.values.min()) > 0
    assert interior_min(pointwise_criterion(c)) >= -1e-6


@pytest.mark.parametrize("nx,ny,code", [(1, 1, 2), (2, 2, 2), (1, 8, 2), (8, 2, 2),
                                        (3, 3, 0), (3, 5, 0)])
def test_example_grid_minimum(tmp_path, capsys, nx, ny, code):
    cfg = write_config(tmp_path / "cfg.ini", grid=f"nx = {nx}\nny = {ny}", coeffs="")
    out = tmp_path / "out"
    assert main(["example", "--config", cfg, "--out", str(out), "--quiet"]) == code
    if code == 2:
        assert capsys.readouterr().err == (f"config error: example needs at least 3 "
                                           f"interior nodes per axis, got {nx}x{ny}\n")
        assert not out.exists()
    else:
        assert (out / "example_ratio.field").exists()


def test_coefficients_from_field_files(tmp_path):
    # write a field with the example command, then feed it back as coefficient a
    cfg0 = write_config(tmp_path / "c0.ini", grid="nx = 16\nny = 16", coeffs="")
    out = tmp_path / "fields"
    assert main(["example", "--config", cfg0, "--out", str(out), "--quiet"]) == 0
    cfg = write_config(
        tmp_path / "cfg.ini", grid="nx = 16\nny = 16",
        coeffs=f"a_file = {out / 'example_ratio.field'}\nb = 1\nh = x-y",
        solver="n_samples = 32")
    out2 = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    cert = json.loads((out2 / "certificate.json").read_text())
    assert cert["verdict"] == "UniquePointwise"


def test_field_file_grid_mismatch_exit_2(tmp_path):
    cfg0 = write_config(tmp_path / "c0.ini", grid="nx = 8\nny = 8", coeffs="")
    out = tmp_path / "fields"
    assert main(["example", "--config", cfg0, "--out", str(out), "--quiet"]) == 0
    cfg = write_config(
        tmp_path / "cfg.ini", grid="nx = 16\nny = 16",
        coeffs=f"a_file = {out / 'example_ratio.field'}\nb = 1\nh = 0")
    assert main(["solve", "--config", cfg, "--quiet"]) == 2


def test_missing_config_exit_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"), "--quiet"]) == 2


def test_json_writer_is_deterministic():
    obj = {"b": 1.5, "a": [1, 2.25, None, True], "s": 'quote"ed\nline',
           "inf": math.inf, "empty": {}, "seq": []}
    one = to_json_text(obj)
    two = to_json_text(obj)
    assert one == two
    assert json.loads(one) == json.loads(two)
    assert "1.5" in one


def test_json_writer_refuses_an_object_it_cannot_serialize():
    with pytest.raises(TypeError, match=r"^cannot serialize <class 'object'>$"):
        to_json_text({"rows": [object()]})
