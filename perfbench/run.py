"""kirchlab benchmark runner.

    python3 perfbench/run.py --workload solve_certify --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The workload's configs are
generated from the seed, its operations drive ``kirchlab.cli.main(argv)`` in
this process, one after another, and the loop repeats them while the time
budget allows, at least twice so that every output file can be compared with
its repeat byte for byte.  Every output is checked by the workload's oracles
outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` one untraced and one traced iteration run, and the last line
reports per-layer metrics from the spans of the traced one.  Scratch files go
to ``.perfbench_work/`` in the checkout; the per-run directory is removed at
exit, the result record and span file are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, count_outcomes, output_dir

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_ITERATIONS = 2   # a repeat is needed for the byte-determinism check
SETUP_REPEATS = 5    # set-up is repeated; setup_s takes the medians
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import kirchlab.cli; "
                "print(time.perf_counter() - t0)")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# One BLAS thread: on a shared two-core machine the dense eigensolves ran
# faster with two threads but spread 15% between repeats, against 3% with
# one.  A single-threaded run is also the plain baseline for later changes.
BLAS_THREADS = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_package():
    """Import kirchlab from this checkout's src/ and return its cli module."""
    if not (SRC / "kirchlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kirchlab sources under {SRC}; "
                         "run from the root of a source checkout")
    # Limit every BLAS/OpenMP pool before numpy loads its library.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # Compile the package afresh on every run, so set-up time never depends
    # on a bytecode cache an earlier run left behind.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import kirchlab
    import kirchlab.cli
    if Path(kirchlab.__file__).resolve().parent != (SRC / "kirchlab").resolve():
        raise SystemExit(f"perfbench: imported kirchlab from {kirchlab.__file__}, "
                         f"not from {SRC}")
    return kirchlab.cli


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter.

    A process pays for an import once, so the repeats run in short-lived
    child processes, one after another, with the same environment, writing
    no bytecode.  Interpreter start-up is not counted.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def hash_outputs(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_operation(cli, argv: list) -> tuple:
    """(exit code or None, error text or None, seconds) of one CLI call."""
    t0 = time.perf_counter()
    try:
        # keep stdout for the result line; the CLI reports on stderr anyway
        with contextlib.redirect_stdout(sys.stderr):
            code, error = cli.main(argv), None
    except SystemExit as stop:
        code, error = None, f"exited with {stop.code!r}"
    except Exception as err:  # an escaped exception is a failed operation
        code, error = None, f"{type(err).__name__}: {err}"
    return code, error, time.perf_counter() - t0


class Iterations:
    """Runs the workload's operations and keeps what each iteration produced."""

    def __init__(self, cli, workload, work: Path):
        self.cli, self.workload, self.work = cli, workload, work
        self.first_hashes: dict = {}
        self.walls: list = []
        self.attempted = 0
        self.failed = 0

    def out_dir(self, op) -> Path:
        return output_dir(self.work, op.name)

    def run(self, tracer=None) -> dict:
        """One timed pass over the operations; returns seconds per subcommand."""
        for op in self.workload.operations:
            shutil.rmtree(self.out_dir(op), ignore_errors=True)
        results, per_subcommand = [], {}
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for op in self.workload.operations:
                argv = op.argv + ["--out", str(self.out_dir(op)), "--quiet"]
                code, error, seconds = run_operation(self.cli, argv)
                results.append((op, code, error))
                per_subcommand[op.subcommand] = per_subcommand.get(op.subcommand, 0.0) + seconds
            self.walls.append(time.perf_counter() - t0)
        for op, code, error in results:
            self.attempted += 1
            problems = [error] if error else self.check(op, code)
            if problems:
                self.failed += 1
                print(f"perfbench: {op.name} failed: {'; '.join(problems)}", file=sys.stderr)
        return per_subcommand

    def check(self, op, code) -> list:
        out = self.out_dir(op)
        try:
            problems = op.check(out, code)
        except Exception as err:  # missing or malformed output, or a failed re-check
            problems = [f"oracle could not check the output: {type(err).__name__}: {err}"]
        hashes = hash_outputs(out)
        first = self.first_hashes.setdefault(op.name, hashes)
        if hashes != first:
            changed = sorted(k for k in set(hashes) | set(first)
                             if hashes.get(k) != first.get(k))
            problems.append(f"output differs from the first iteration: {changed}")
        return problems


def end_to_end(setup_s: float, it: Iterations) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(it.walls), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "ok_frac": ((it.attempted - it.failed) / it.attempted, "ratio"),
    }


SUBCOMMAND_METRICS = (("solve", "solve_s"), ("scan-study", "scan_study_s"),
                      ("eigen", "eigen_s"), ("example", "example_s"),
                      ("certify", "certify_s"))

# Stats reported for each traced function, from the traced iteration.
LAYER_STATS = {
    "cli.main": ("calls", "total_s", "cpu_s"),
    "cli.parse_config": ("total_s", "self_s"),
    "expr.eval_field": ("calls", "total_s", "nodes"),
    "grid.write_field": ("calls", "total_s", "bytes"),
    "grid.read_field": ("calls", "total_s", "bytes"),
    "linalg.cg_solve": ("calls", "total_s"),
    "linalg.pencil_eigensolve": ("calls", "total_s"),
    "linalg.assemble_weighted_laplacian": ("calls", "total_s"),
    "kirchhoff.fixed_point_scan": ("calls", "total_s", "self_s"),
    "kirchhoff.solve_frozen": ("calls", "total_s", "self_s"),
    "kirchhoff.fixed_point_map": ("calls", "total_s"),
    "kirchhoff.newton_solve": ("calls", "total_s", "failures"),
    "kirchhoff.linearized_solve": ("calls", "total_s"),
    "eigen.eigen_curve": ("calls", "total_s", "self_s"),
    "eigen.principal_eigenpair": ("calls", "total_s", "self_s"),
    "eigen.eigen_weight": ("calls",),
    "eigen.is_admissible": ("calls",),
    "certify.certify": ("calls", "total_s"),
    "certify.pointwise_certified_ratio": ("calls", "total_s", "self_s"),
}
STAT_UNITS = {"calls": "count", "failures": "count", "nodes": "count", "bytes": "B",
              "total_s": "s", "self_s": "s", "cpu_s": "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats: dict, outcomes: dict, untraced: dict, untraced_wall: float,
              traced_wall: float) -> dict:
    from spans import Stat

    metrics = {}
    for fn, fn_stats in LAYER_STATS.items():
        for stat in fn_stats:
            metrics[f"{fn}.{stat}"] = (getattr(stats.get(fn, Stat()), stat), STAT_UNITS[stat])
    ev = stats.get("expr.eval_field", Stat())
    metrics["expr.eval_field.us_per_node"] = (1e6 * _ratio(ev.total_s, ev.nodes), "us")

    def calls(fn):
        return stats.get(fn, Stat()).calls

    # waste ratios, each with its base
    metrics["kirchhoff.roots"] = (outcomes["roots"], "count")
    metrics["kirchhoff.solves_per_root"] = (
        _ratio(calls("kirchhoff.solve_frozen"), outcomes["roots"]), "ratio")
    metrics["eigen.rows"] = (outcomes["rows"], "count")
    metrics["eigen.eigensolves_per_row"] = (
        _ratio(calls("linalg.pencil_eigensolve"), outcomes["rows"]), "ratio")
    metrics["eigen.alphas"] = (outcomes["alphas"], "count")
    metrics["eigen.weights_per_alpha"] = (
        _ratio(calls("eigen.eigen_weight"), outcomes["alphas"]), "ratio")
    # untraced subcommand times from the same process
    for subcommand, name in SUBCOMMAND_METRICS:
        metrics[name] = (untraced.get(subcommand, 0.0), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)

    cli = import_package()
    env = environment(args.seed)
    print("perfbench env: " + json.dumps(env), file=sys.stderr)

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        generate = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            workload = WORKLOADS[args.workload](args.seed, work)
            for name, text in workload.configs.items():
                (work / name).write_text(text, encoding="ascii")
            generate.append(time.perf_counter() - t0)

        it = Iterations(cli, workload, work)
        if args.trace:
            from spans import Tracer, aggregate

            untraced = it.run()
            tracer = Tracer()
            it.run(tracer)
            outcomes = count_outcomes(workload, work)
            metrics = per_layer(aggregate(tracer.spans), outcomes, untraced,
                                it.walls[0], it.walls[1])
            (WORK_ROOT / "traces").mkdir(exist_ok=True)
            tracer.write(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            loop_start = time.perf_counter()
            while True:
                it.run()
                elapsed = time.perf_counter() - loop_start
                if (len(it.walls) >= MIN_ITERATIONS
                        and elapsed + statistics.median(it.walls) > args.seconds):
                    break
            metrics = end_to_end(import_seconds() + statistics.median(generate), it)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": it.failed == 0,
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK_ROOT / "results").mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, env=env,
                  iterations=len(it.walls), wall_s=it.walls)
    (WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
