"""Command-line front end: INI configs in, CSV/JSON/field files out.

Subcommands: solve, certify, eigen, scan-study, example.  Exit codes are
0 success, 1 negative scientific result (Inconclusive certificate or empty
admissible set), 2 configuration error, 3 numerical failure.  Output is
deterministic: identical configs give byte-identical CSV and JSON (floats are
written with 17 significant digits, rows in fixed order; wall time goes to
stderr, never into files).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import expr
from .certify import _ratio_field, certify, pointwise_certified_ratio
from .eigen import eigen_curve
from .grid import Grid, KirchlabError, ScalarField, read_field, write_field
from .kirchhoff import (NEWTON_TOL, Problem, _check_positive, _check_samples,
                        fixed_point_scan, newton_solve)

ALL_FORMATS = ("csv", "json", "fields")
KEYS = {  # every key a config may set, by section
    "grid": ("nx", "ny", "x0", "y0", "lx", "ly"),
    "coefficients": ("a", "b", "h", "a_file", "b_file", "h_file"),
    "solver": ("n_samples", "newton_tol", "s_max_override"),
    "output": ("directory", "formats"),
}

# What a phase can fail with: input the library refuses (ValueError), a computation
# that failed on accepted input (KirchlabError), Python float arithmetic
# (OverflowError, ZeroDivisionError), an array too large to allocate and an
# expression nested too deep to walk.  The phase decides the exit code: 2 while
# parsing, 3 while running.
FAILURES = (KirchlabError, ValueError, ArithmeticError, MemoryError, RecursionError)


def _reason(err: Exception) -> str:
    """A failure as text; Python's own errors say little, so they carry their class."""
    if isinstance(err, (KirchlabError, ValueError)):
        return str(err)
    return f"{type(err).__name__}: {err}"


@dataclass
class Config:
    problem: Problem
    n_samples: int
    newton_tol: float
    s_max_override: float | None
    out_dir: str
    formats: tuple


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ValueError(f"missing required key '{key}' in section [{section.name}]")
        return default
    raw = section[key].strip()
    if raw == "" and not required:
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise ValueError(f"bad value for '{key}' in [{section.name}]: {err}") from None


def _load_coefficient(section, name: str, grid: Grid) -> ScalarField:
    has_expr = name in section and section[name].strip() != ""
    file_key = f"{name}_file"
    has_file = file_key in section and section[file_key].strip() != ""
    if has_expr == has_file:
        raise ValueError(
            f"coefficient '{name}' needs exactly one of '{name}' (expression) "
            f"or '{file_key}' (field file) in [coefficients]")
    path = section[file_key].strip() if has_file else None
    try:
        if has_expr:
            return expr.eval_field(expr.parse(section[name].strip()), grid)
        f = read_field(path)
    except OSError as err:
        raise ValueError(f"coefficient '{name}': cannot read {path}: {err}") from None
    except FAILURES as err:
        raise ValueError(f"coefficient '{name}': {_reason(err)}") from None
    if f.grid != grid:
        raise ValueError(f"coefficient '{name}': field file grid {f.grid} does not "
                         f"match the [grid] section")
    return f


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err}") from None
    except configparser.Error as err:  # its text, file and line included, on one line
        raise ValueError(f"malformed config {path}: {' '.join(str(err).split())}") from None
    for name, section in parser.items():
        if name not in KEYS and name != "DEFAULT":
            raise ValueError(f"unknown section [{name}] (choose from {tuple(KEYS)})")
        for key in section:
            if key not in KEYS.get(name, ()):
                raise ValueError(f"unknown key '{key}' in section [{name}]")
    return parser


def _section(parser: configparser.ConfigParser, name: str):
    """An optional section; the empty DEFAULT section when it is absent."""
    return parser[name] if name in parser else parser["DEFAULT"]


def _grid_and_out_dir(parser: configparser.ConfigParser) -> tuple:
    """The [grid] section as a Grid, which checks the geometry, and the output directory."""
    if "grid" not in parser:
        raise ValueError("missing required section [grid]")
    gsec = parser["grid"]
    grid = Grid.over_rectangle(
        _get(gsec, "nx", int, required=True), _get(gsec, "ny", int, required=True),
        _get(gsec, "lx", float, 1.0), _get(gsec, "ly", float, 1.0),
        _get(gsec, "x0", float, 0.0), _get(gsec, "y0", float, 0.0))
    return grid, _get(_section(parser, "output"), "directory", str, ".")


def parse_config(path: str) -> Config:
    parser = _read_ini(path)
    grid, out_dir = _grid_and_out_dir(parser)
    if "coefficients" not in parser:
        raise ValueError("missing required section [coefficients]")

    csec = parser["coefficients"]
    problem = Problem(*(_load_coefficient(csec, name, grid) for name in "abh"))

    ssec = _section(parser, "solver")
    n_samples = _get(ssec, "n_samples", lambda raw: _check_samples(int(raw)), 256)
    newton_tol = _get(ssec, "newton_tol", lambda raw: _check_positive("tol", float(raw)),
                      NEWTON_TOL)
    s_max_override = _get(ssec, "s_max_override",
                          lambda raw: _check_positive("s_max", float(raw)), None)

    formats_raw = _get(_section(parser, "output"), "formats", str, ",".join(ALL_FORMATS))
    formats = tuple(tok.strip() for tok in formats_raw.split(",") if tok.strip())
    if not formats:
        raise ValueError(f"empty output format list '{formats_raw}' (choose from {ALL_FORMATS})")
    for tok in formats:
        if tok not in ALL_FORMATS:
            raise ValueError(f"unknown output format '{tok}' (choose from {ALL_FORMATS})")

    return Config(problem, n_samples=n_samples, newton_tol=newton_tol,
                  s_max_override=s_max_override, out_dir=out_dir, formats=formats)


# --- deterministic serialization -------------------------------------------

def fmt(v: float) -> str:
    return f"{v:.17g}"


def to_json_text(obj, indent: int = 0) -> str:
    pad, pad_in = " " * indent, " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {to_json_text(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{to_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)}")


# --- subcommand runners -----------------------------------------------------
# Each runner returns (exit code, files, note) and writes nothing: a file is
# (name, format, text or ScalarField), with format None for a file written
# whatever [output] formats lists.  main writes the files and prints the note.

def run_solve(cfg: Config) -> tuple:
    report = fixed_point_scan(cfg.problem, cfg.n_samples, s_max=cfg.s_max_override)

    try:
        sol = newton_solve(cfg.problem, tol=cfg.newton_tol)
        newton_info = {"converged": True, "s": sol.s, "residual": sol.residual,
                       "steps": sol.steps, "reason": None}
    except FAILURES as err:
        # the scan remains the ground truth; record why the cross-check failed
        newton_info = {"converged": False, "s": None, "residual": None, "steps": None,
                       "reason": _reason(err)}

    rows = [(s, phi, "sample") for s, phi in report.samples]
    rows += [(r.s, r.s, "root") for r in report.roots]
    rows.sort(key=lambda t: (t[0], t[2]))
    csv_text = "s,phi_s,kind\n" + "".join(
        f"{fmt(s)},{fmt(p)},{kind}\n" for s, p, kind in rows)

    files, root_entries = [], []
    for i, r in enumerate(report.roots):
        fname = f"root_{i:03d}.field"
        files.append((fname, "fields", r.u))
        root_entries.append({"s": r.s, "residual": r.residual, "method": r.method,
                             "dphi": r.dphi, "refine_evals": r.refine_evals,
                             "file": fname if "fields" in cfg.formats else None})
    summary = {
        "n_roots": len(report.roots),
        "s_max": report.s_max,
        "n_phi_evals": report.n_phi_evals,
        "roots": root_entries,
        "suspected_tangencies": list(report.suspected_tangencies),
        "newton": newton_info,
        "grid": cfg.problem.grid.header(),
    }
    files += [("scan.csv", "csv", csv_text),
              ("summary.json", "json", to_json_text(summary) + "\n")]
    return (0 if report.roots else 3), files, f"{len(report.roots)} root(s)"


def run_certify(cfg: Config) -> tuple:
    cert = certify(cfg.problem.a, cfg.problem.b)
    doc = {"verdict": cert.verdict, "ratio_value": cert.ratio_value, "min_D": cert.min_d,
           "theta": cert.theta, "lambda1": cert.lambda1, "grid": cert.grid.header(),
           "details": cert.details}
    return ((0 if cert.verdict != "Inconclusive" else 1),
            [("certificate.json", None, to_json_text(doc) + "\n")],
            f"{cert.verdict} (ratio {cert.ratio_value:.4g}, min_D {cert.min_d:.4g})")


def run_eigen(cfg: Config, alphas: list, write_fields: bool) -> tuple:
    curve = eigen_curve(_ratio_field(cfg.problem.a, cfg.problem.b), alphas)
    if not curve.rows:
        print("eigen: admissible set empty for the sampled alphas", file=sys.stderr)
        return 1, [], None
    csv_text = "alpha,lambda,ee_bound,rayleigh_gap\n" + "".join(
        ",".join(map(fmt, row)) + "\n" for row in curve.rows)
    summary = {
        "grid": cfg.problem.grid.header(),
        "rows": [{"alpha": p.alpha, "iterations": p.iterations, "residual": p.residual}
                 for p in curve.pairs],
    }
    files = [("eigen_curve.csv", None, csv_text),
             ("eigen_summary.json", "json", to_json_text(summary) + "\n")]
    if write_fields:
        files += [(f"eigenfunction_{i:03d}.field", "fields", pair.u)
                  for i, pair in enumerate(curve.pairs)]
    return 0, files, f"{len(curve.rows)} admissible alpha(s)"


def run_scan_study(cfg: Config, scales: list) -> tuple:
    P, lines = cfg.problem, ["k,n_roots,s_values"]
    for k in scales:
        problem = replace(P, h=ScalarField(P.grid, k * P.h.values))
        report = fixed_point_scan(problem, cfg.n_samples, s_max=cfg.s_max_override)
        s_vals = ";".join(fmt(r.s) for r in report.roots)
        lines.append(f"{fmt(k)},{len(report.roots)},{s_vals}")
    return 0, [("scan_study.csv", None, "\n".join(lines) + "\n")], f"{len(scales)} scale(s)"


def run_example(grid: Grid) -> tuple:
    return (0, [("example_ratio.field", None, pointwise_certified_ratio(grid))],
            f"ratio field on {grid.nx}x{grid.ny}")


# --- argument parsing -------------------------------------------------------

def _parse_float_list(raw: str, what: str) -> list:
    raw = raw.strip()
    try:
        if raw.startswith("logspace:"):
            lo, hi, count = raw[len("logspace:"):].split(",")
            lo, hi, count = (_check_positive("logspace end", float(lo)),
                             _check_positive("logspace end", float(hi)), int(count))
            if count < 1:
                raise ValueError("logspace needs count >= 1")
            return list(np.logspace(math.log10(lo), math.log10(hi), count))
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
        if not all(map(math.isfinite, values)):
            raise ValueError("values must be finite")
    except ValueError as err:
        raise ValueError(f"malformed {what} '{raw}': {err}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="kirchlab",
        description="Nonlocal Kirchhoff-type Dirichlet problems: solve, certify "
                    "uniqueness, and explore the associated eigenvalue curve.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI configuration file")
    common.add_argument("--out", default=None, help="output directory (overrides config)")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="enumerate all solutions by the fixed-point scan")
    sub.add_parser("certify", parents=[common],
                   help="run the uniqueness certificates on a/b")
    eig = sub.add_parser("eigen", parents=[common],
                         help="eigenvalue curve over a list of alphas")
    eig.add_argument("--alphas", required=True,
                     help="comma list '0.01,0.1,1' or 'logspace:0.01,100,20'")
    eig.add_argument("--write-fields", action="store_true",
                     help="also write one eigenfunction field file per row")
    study = sub.add_parser("scan-study", parents=[common],
                           help="root counts under rescaled forcing")
    study.add_argument("--scales", required=True,
                       help="comma list of scale factors for h")
    sub.add_parser("example", parents=[common],
                   help="emit the constructed ratio field that passes the pointwise test")
    return parser


def _parse(args) -> tuple:
    """Parse phase: config, grid, --alphas and --scales.

    Returns the run phase as a callable of no arguments, the output directory,
    which main creates before the run phase, and the formats main writes.
    """
    if args.command == "example":
        grid, cfg_out = _grid_and_out_dir(_read_ini(args.config))
        if grid.nx < 3 or grid.ny < 3:
            raise ValueError(f"example needs at least 3 interior nodes per axis, "
                             f"got {grid.nx}x{grid.ny}")
        return partial(run_example, grid), args.out if args.out is not None else cfg_out, ()
    cfg = parse_config(args.config)
    if args.command == "eigen":
        alphas = _parse_float_list(args.alphas, "alpha")
        if any(alpha <= 0 for alpha in alphas):
            raise ValueError("alphas must be positive")
        run = partial(run_eigen, cfg, alphas, args.write_fields)
    elif args.command == "scan-study":
        run = partial(run_scan_study, cfg, _parse_float_list(args.scales, "scale"))
    else:
        run = partial({"solve": run_solve, "certify": run_certify}[args.command], cfg)
    return run, args.out if args.out is not None else cfg.out_dir, cfg.formats


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run, out, formats = _parse(args)
    except FAILURES as err:
        print(f"config error: {_reason(err)}", file=sys.stderr)
        return 2
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: cannot create output directory {out}: {err}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        code, files, note = run()
        for name, kind, content in files:
            if kind is not None and kind not in formats:
                continue
            if isinstance(content, str):
                (out_dir / name).write_text(content, encoding="ascii")
            else:
                write_field(content, out_dir / name)
    except OSError as err:
        print(f"config error: cannot write output in {out}: {err}", file=sys.stderr)
        return 2
    except FAILURES as err:
        print(f"numerical failure: {_reason(err)}", file=sys.stderr)
        return 3
    if note is not None and not args.quiet:
        print(f"{args.command}: {note} in {time.perf_counter() - t0:.2f}s -> {out_dir}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
