"""Run the benchmark in pairs, at a base commit and in this checkout, and record both.

    python tools/bench_pairs.py --base HEAD~1 --workload solve_certify \
        --seeds 2601-2610 --seconds 55 --out BENCH_26.json

Exports the base commit's tree with `git archive` into a temporary directory,
then runs the unchanged perfbench/run.py once there and once here for each
seed, alternating which side runs first, one run at a time.  Every run's
metrics are recorded, then each side's median and quartiles per metric, and
per metric the pairs this checkout won (ties count for neither side, and
"better" is read from BENCHMARK.json where it names the metric, else lower is
better).  With --trace 1 the per-layer metrics of traced runs are recorded the
same way.  An existing --out file with the same two commits gains one more set;
a file for other commits is replaced.  Standard library only.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "perfbench env: "


def parse_seeds(text: str) -> list:
    """'3' -> [3]; '1-4' -> [1, 2, 3, 4]; '1,5-6' -> [1, 5, 6]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export_tree(rev: str, into: Path) -> None:
    """The files of commit rev, written under into."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(metrics, env) of one perfbench/run.py run in checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in proc.stderr.splitlines()
               if line.startswith(ENV_PREFIX))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["correct"] = result["correct"]
    return metrics, env


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs this checkout won."""
    summary = {}
    for name in runs[0]["base"]:
        if name == "correct":
            continue
        sides = {side: [run[side][name] for run in runs] for side in ("base", "head")}
        lower = better.get(name, "lower") == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(sides["base"], sides["head"]))
        summary[name] = {"better": "lower" if lower else "higher", "head_wins": wins,
                         "pairs": len(runs)}
        for side, values in sides.items():
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            summary[name][side] = {"median": median, "q1": q1, "q3": q3}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2601-2610")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD"),
               "head_tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}
    runs, env = [], None
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export_tree(commits["base"], Path(tmp))
        checkouts = {"base": Path(tmp), "head": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side], env = run_once(checkouts[side], args.workload, seed, args.seconds,
                                          args.trace)
            runs.append(run)
            print(f"seed {seed}: wall_s base {run['base'].get('wall_s')} "
                  f"head {run['head'].get('wall_s')}", file=sys.stderr)

    record = {"commits": commits, "env": {k: v for k, v in env.items() if k != "seed"},
              "sets": []}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if old.get("commits", {}).get("base") == commits["base"] and \
                old["commits"].get("head") == commits["head"]:
            record["sets"] = old["sets"]
    record["sets"].append({"workload": args.workload, "trace": args.trace,
                           "seconds": args.seconds, "seeds": args.seeds,
                           "summary": summarize(runs, better), "runs": runs})
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
