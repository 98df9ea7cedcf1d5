"""The benchmark workloads: seeded inputs, CLI operations and output oracles.

Inputs are INI configs whose coefficients are expressions drawn with the
standard library's ``random.Random(seed)``, so the same seed gives the same
bytes whatever numpy version is installed.  Each workload is a closed loop: a
single client runs its operations one after another.  An operation is one
``kirchlab.cli.main(argv)`` call; the oracles read its output files and return
a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Tolerances fixed by the benchmark, not by the program under test.
FIXED_POINT_RTOL = 1e-8     # |Phi(s) - s| <= tol * (1 + s) at a reported root
NEWTON_AGREE_RTOL = 1e-6    # |s_newton - s_scan| <= tol * (1 + s_scan)
EIGEN_TOL = 1e-8            # bound, Rayleigh gap and sign tolerance (criterion 07)
POINTWISE_TOL = 1e-8        # min_D floor of a UniquePointwise verdict
RATIO_LIMIT = 1.5           # ratio ceiling of a UniqueRatioBound verdict

SCAN_SCALES = "0,0.5,1,2,4"
N_ALPHAS = 8                # every alpha is admissible, so also the curve rows
EIGEN_ALPHAS = f"logspace:0.01,100,{N_ALPHAS}"


@dataclass
class Operation:
    """One CLI invocation; ``argv`` leaves out ``--out output_dir(work, name)``,
    which the runner adds."""

    name: str
    subcommand: str
    argv: list
    check: object  # callable(out_dir: Path, exit_code: int) -> list[str]


@dataclass
class Workload:
    name: str
    configs: dict       # file name -> INI text
    operations: list


def output_dir(work: Path, op_name: str) -> Path:
    return work / "out" / op_name


# --- seeded expressions -----------------------------------------------------

def _term(w: float, k: int, l: int) -> str:
    sign = "+" if w >= 0.0 else "-"
    return f" {sign} {abs(w):.6f}*sin({k}*pi*x)*sin({l}*pi*y)"


def positive_expr(rng: random.Random, terms: int = 4) -> str:
    """1 plus up to four small sine modes; the minimum stays above 0.43."""
    modes = ((1, 1), (1, 2), (2, 1), (2, 2))[:terms]
    return "1" + "".join(_term(0.4 * rng.uniform(-1.0, 1.0) / (k + l), k, l)
                         for k, l in modes)


def smooth_expr(rng: random.Random, modes: int) -> str:
    """Random low-frequency combination of Dirichlet sine modes."""
    terms = "".join(_term(rng.gauss(0.0, 1.0) / (k * l), k, l)
                    for k in range(1, modes + 1) for l in range(1, modes + 1))
    return "0" + terms


def sign_changing_expr(rng: random.Random) -> str:
    """A dominant sin(2 pi x) sin(pi y) mode, so h is positive near (1/4, 1/2)
    and negative near (3/4, 1/2) whatever the three smaller modes add."""
    amp = rng.uniform(0.5, 2.0)
    small = [rng.uniform(-1.0, 1.0) * amp / 9.0 for _ in range(3)]
    return (f"{amp:.6f}*sin(2*pi*x)*sin(pi*y)" + _term(small[0], 1, 1)
            + _term(small[1], 1, 2) + _term(small[2], 2, 2))


def _ini(n: int, coefficients: dict) -> str:
    lines = ["[grid]", f"nx = {n}", f"ny = {n}", "", "[coefficients]"]
    lines += [f"{key} = {value}" for key, value in coefficients.items()]
    return "\n".join(lines) + "\n"


# --- oracle helpers ---------------------------------------------------------

def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def _field_values(path: Path) -> list:
    """Values of a field file, parsed here rather than by the program's reader."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        values = [float(t) for t in fh.read().split()]
    nx, ny = int(header[2]), int(header[3])
    if len(values) != nx * ny:
        raise ValueError(f"{path.name}: {len(values)} values for a {nx}x{ny} field")
    return values


class _Phi:
    """Independent Phi(s) evaluations for the roots a solve reported.

    Problems are built lazily from the same expressions the configs hold, so
    building them is neither set-up nor timed work.
    """

    def __init__(self, n: int, a: str, b: str, h: str):
        self.spec = (n, a, b, h)
        self.problems = {}

    def residual(self, s: float, scale: float = 1.0) -> float:
        from kirchlab.expr import eval_field, parse
        from kirchlab.grid import Grid, ScalarField
        from kirchlab.kirchhoff import Problem, fixed_point_map

        if scale not in self.problems:
            n, a, b, h = self.spec
            grid = Grid.over_rectangle(n, n)
            hf = eval_field(parse(h), grid)
            self.problems[scale] = Problem(eval_field(parse(a), grid),
                                           eval_field(parse(b), grid),
                                           ScalarField(grid, scale * hf.values))
        return abs(fixed_point_map(self.problems[scale], s) - s)


def _exit_problem(code: int, expected: int = 0) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


# --- solve_scan -------------------------------------------------------------

SOLVE_N = 64
STUDY_N = 32


def solve_scan(seed: int, work: Path) -> Workload:
    """64^2 solve with one-signed forcing, then a 32^2 constant-ratio scan study."""
    rng = random.Random(f"solve_scan:{seed}")
    a, b = positive_expr(rng), positive_expr(rng)
    sign = rng.choice(("", "-"))
    h = f"{sign}abs({smooth_expr(rng, 3)})"
    # theta is drawn from [0.5, 2] rather than criterion 03's [0.1, 10]: the
    # wider range made the scan study's CG work vary by +-18% between seeds.
    theta = rng.uniform(0.5, 2.0)
    b_study = positive_expr(rng)
    a_study = f"{theta:.6f}*({b_study})"
    h_study = sign_changing_expr(rng)

    solve_phi = _Phi(SOLVE_N, a, b, h)
    study_phi = _Phi(STUDY_N, a_study, b_study, h_study)

    def check_solve(out: Path, code: int) -> list:
        problems = _exit_problem(code)
        if problems:
            return problems
        summary = _read_json(out / "summary.json")
        if summary["n_roots"] != 1:
            return [f"solve found {summary['n_roots']} roots, the family has one"]
        s = summary["roots"][0]["s"]
        gap = solve_phi.residual(s)
        if gap > FIXED_POINT_RTOL * (1.0 + s):
            problems.append(f"|Phi(s) - s| = {gap:.3e} at s = {s:.17g}")
        newton = summary["newton"]
        if newton["converged"] and abs(newton["s"] - s) > NEWTON_AGREE_RTOL * (1.0 + s):
            problems.append(f"Newton s = {newton['s']:.17g} disagrees with scan s = {s:.17g}")
        if not (out / summary["roots"][0]["file"]).is_file():
            problems.append("root field file missing")
        return problems

    def check_study(out: Path, code: int) -> list:
        problems = _exit_problem(code)
        if problems:
            return problems
        rows = _read_csv(out / "scan_study.csv")
        if [float(r["k"]) for r in rows] != [float(k) for k in SCAN_SCALES.split(",")]:
            return [f"scan-study rows {[r['k'] for r in rows]} do not match the scales"]
        for row in rows:
            k = float(row["k"])
            if int(row["n_roots"]) != 1:
                problems.append(f"k = {k}: {row['n_roots']} roots, the family has one")
                continue
            s = float(row["s_values"])
            gap = study_phi.residual(s, k)
            if gap > FIXED_POINT_RTOL * (1.0 + s):
                problems.append(f"k = {k}: |Phi(s) - s| = {gap:.3e} at s = {s:.17g}")
        return problems

    configs = {
        "solve.ini": _ini(SOLVE_N, {"a": a, "b": b, "h": h}),
        "study.ini": _ini(STUDY_N, {"a": a_study, "b": b_study, "h": h_study}),
    }
    return Workload("solve_scan", configs, [
        Operation("solve", "solve", ["solve", "--config", str(work / "solve.ini")],
                  check_solve),
        Operation("scan_study", "scan-study",
                  ["scan-study", "--config", str(work / "study.ini"),
                   "--scales", SCAN_SCALES], check_study),
    ])


# --- eigen_curve ------------------------------------------------------------

EIGEN_N = 32


def eigen_curve(seed: int, work: Path) -> Workload:
    """32^2 eigenvalue curve over 8 alphas for a linear ratio c = 1 + p x + q y."""
    rng = random.Random(f"eigen_curve:{seed}")
    # |p|, |q| >= 0.25 keeps grad c away from zero (every alpha admissible);
    # a negative slope is at most 0.45 so c stays above 0.1 on the unit square.
    p, q = (rng.uniform(0.25, 1.5) if rng.random() < 0.7 else -rng.uniform(0.25, 0.45)
            for _ in range(2))
    b = positive_expr(rng)
    a = f"(1 {'+' if p >= 0 else '-'} {abs(p):.6f}*x {'+' if q >= 0 else '-'} " \
        f"{abs(q):.6f}*y)*({b})"

    def check(out: Path, code: int) -> list:
        problems = _exit_problem(code)
        if problems:
            return problems
        rows = _read_csv(out / "eigen_curve.csv")
        if len(rows) != N_ALPHAS:
            return [f"{len(rows)} curve rows, expected {N_ALPHAS}"]
        for i, row in enumerate(rows):
            lam, bound, gap = (float(row[k]) for k in ("lambda", "ee_bound", "rayleigh_gap"))
            if lam < bound - EIGEN_TOL:
                problems.append(f"row {i}: lambda {lam:.17g} below bound {bound:.17g}")
            if gap > EIGEN_TOL:
                problems.append(f"row {i}: Rayleigh gap {gap:.3e}")
            values = _field_values(out / f"eigenfunction_{i:03d}.field")
            if min(values) < -EIGEN_TOL * max(values):
                problems.append(f"row {i}: eigenfunction changes sign")
        return problems

    configs = {"eigen.ini": _ini(EIGEN_N, {"a": a, "b": b, "h": "1"})}
    return Workload("eigen_curve", configs, [
        Operation("eigen", "eigen",
                  ["eigen", "--config", str(work / "eigen.ini"), "--alphas", EIGEN_ALPHAS,
                   "--write-fields"], check),
    ])


# --- large_grid -------------------------------------------------------------

LARGE_N = 256


def _check_certificate(out: Path, code: int, expect: str | None = None) -> list:
    cert = _read_json(out / "certificate.json")
    verdict, ratio, min_d = cert["verdict"], cert["ratio_value"], cert["min_D"]
    problems = _exit_problem(code, 1 if verdict == "Inconclusive" else 0)
    if expect is not None and verdict != expect:
        problems.append(f"verdict {verdict}, expected {expect}")
    if verdict == "UniquePointwise" and min_d < -POINTWISE_TOL:
        problems.append(f"UniquePointwise with min_D = {min_d:.3e}")
    if verdict == "UniqueRatioBound" and ratio > RATIO_LIMIT:
        problems.append(f"UniqueRatioBound with ratio {ratio:.6g}")
    if verdict == "Inconclusive" and (ratio <= RATIO_LIMIT or min_d >= -POINTWISE_TOL):
        problems.append(f"Inconclusive although ratio {ratio:.6g}, min_D {min_d:.3e}")
    if not math.isfinite(ratio):
        problems.append("ratio_value is not finite")
    return problems


def large_grid(seed: int, work: Path) -> Workload:
    """256^2 example field, then certify it from file and certify seeded expressions."""
    rng = random.Random(f"large_grid:{seed}")
    example_field = output_dir(work, "example") / "example_ratio.field"
    # Short expressions: on 65,536 nodes each node of an expression tree
    # costs about 20 ms to evaluate.
    beta = rng.uniform(0.5, 2.0)
    h_file = smooth_expr(rng, 1)
    a, b, h = positive_expr(rng, 2), positive_expr(rng, 2), smooth_expr(rng, 1)

    def check_example(out: Path, code: int) -> list:
        problems = _exit_problem(code)
        if not problems and min(_field_values(out / "example_ratio.field")) <= 0.0:
            problems.append("example ratio field is not positive")
        return problems

    configs = {
        "example.ini": _ini(LARGE_N, {}),
        "certify_file.ini": _ini(LARGE_N, {"a_file": str(example_field),
                                           "b": f"{beta:.6f}", "h": h_file}),
        "certify_expr.ini": _ini(LARGE_N, {"a": a, "b": b, "h": h}),
    }
    return Workload("large_grid", configs, [
        Operation("example", "example", ["example", "--config", str(work / "example.ini")],
                  check_example),
        Operation("certify_file", "certify",
                  ["certify", "--config", str(work / "certify_file.ini")],
                  lambda out, code: _check_certificate(out, code, "UniquePointwise")),
        Operation("certify_expr", "certify",
                  ["certify", "--config", str(work / "certify_expr.ini")],
                  _check_certificate),
    ])


def solve_certify(seed: int, work: Path) -> Workload:
    """solve_scan's operations, then large_grid's, as one workload.

    On a shared two-core host whose speed drifted by up to a third over tens
    of minutes, three workloads of 40-second runs spread too much between
    runs; two workloads leave room for 55-second runs within the benchmark's
    time budget.  Both parts bypass the eigensolver.
    """
    parts = (solve_scan(seed, work), large_grid(seed, work))
    return Workload("solve_certify", {k: v for p in parts for k, v in p.configs.items()},
                    [op for p in parts for op in p.operations])


WORKLOADS = {"solve_certify": solve_certify, "eigen_curve": eigen_curve}


def count_outcomes(workload: Workload, work: Path) -> dict:
    """Useful results of one iteration, the bases of the waste ratios:
    roots reported by solve and scan-study, curve rows and requested alphas."""
    counts = {"roots": 0, "rows": 0, "alphas": 0}
    for op in workload.operations:
        out = output_dir(work, op.name)
        if op.subcommand == "solve":
            counts["roots"] += _read_json(out / "summary.json")["n_roots"]
        elif op.subcommand == "scan-study":
            counts["roots"] += sum(int(r["n_roots"]) for r in _read_csv(out / "scan_study.csv"))
        elif op.subcommand == "eigen":
            counts["rows"] += len(_read_csv(out / "eigen_curve.csv"))
            counts["alphas"] += N_ALPHAS
    return counts
