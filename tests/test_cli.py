import json
import math

import pytest

import kirchlab.eigen
from kirchlab.cli import main, parse_config, to_json_text
from kirchlab.eigen import principal_eigenpair
from kirchlab.grid import ScalarField, dirichlet_lambda1, grad_norm_sq, read_field, write_field
from kirchlab.certify import interior_min, pointwise_criterion

from conftest import unit_grid


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
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


@pytest.mark.parametrize("source", ["expression", "file"])
@pytest.mark.parametrize("command", [
    ["solve"], ["certify"], ["eigen", "--alphas", "0.5,2"], ["scan-study", "--scales", "1"]])
def test_nonpositive_coefficient_exits_2(tmp_path, capsys, command, source):
    if source == "expression":
        b_line = "b = x-0.5"
    else:
        g = unit_grid(8)
        X, _ = g.node_coords()
        write_field(ScalarField(g, X - 0.5), tmp_path / "b.field")
        b_line = f"b_file = {tmp_path / 'b.field'}"
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs=f"a = 1\n{b_line}\nh = 1", solver="n_samples = 16")
    assert main([command[0], "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "'b'" in err
    assert "Traceback" not in err


def test_certify_and_eigen_deterministic_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 12\nny = 12",
                       coeffs="a = 1+x\nb = 1\nh = x-y")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert main(["eigen", "--config", cfg, "--alphas", "0.5,2",
                     "--out", str(out), "--quiet"]) == 0
    for name in ("certificate.json", "eigen_curve.csv"):
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


def test_certify_constant_ratio_exit_0(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", coeffs="a = 1\nb = 1\nh = x-y")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
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
    calls = {"lobpcg_smallest_positive": 0, "eigen_weight": 0}

    def counted(name):
        fn = getattr(kirchlab.eigen, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kirchlab.eigen, name, counted(name))
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfg, "--alphas", "0.5,1,2",
                 "--write-fields", "--out", str(out), "--quiet"]) == 0
    assert calls == {"lobpcg_smallest_positive": 3, "eigen_weight": 3}
    monkeypatch.undo()

    parsed = parse_config(cfg)
    c = ScalarField(parsed.grid, parsed.a.values / parsed.b.values)
    assert not (out / "eigenfunction_003.field").exists()
    for i, alpha in enumerate([0.5, 1.0, 2.0]):
        write_field(principal_eigenpair(c, alpha).u, tmp_path / "reference.field")
        assert (out / f"eigenfunction_{i:03d}.field").read_bytes() == \
            (tmp_path / "reference.field").read_bytes()


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


def test_solve_overflow_exits_3(tmp_path, capsys):
    # a valid config whose energy bound overflows: a numerical failure, not a config error
    cfg = write_config(tmp_path / "cfg.ini", grid="nx = 8\nny = 8",
                       coeffs="a = 1\nb = 1\nh = 1e200", solver="n_samples = 16")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: energy bound")
    assert "Traceback" not in err


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
