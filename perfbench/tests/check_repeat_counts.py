"""Two traced runs with the same seed report identical per-layer counts, every
operation passes its oracles, and the runner reports exactly the metrics
BENCHMARK.json declares.

These tests run the full workloads, about two minutes, so the file name keeps
them out of the default collection.  Run them with

    python -m pytest perfbench/tests/check_repeat_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("solve_certify", "eigen_curve")
# metrics whose value is a count or a ratio of counts, never a time
EXACT_SUFFIXES = (".calls", ".nodes", ".bytes", ".failures", ".roots", ".rows",
                  ".alphas", "_per_root", "_per_row", "_per_alpha")


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, 7, 1), run(workload, 7, 1)
    layer = declared("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == layer
    exact = [name for name in layer if name.endswith(EXACT_SUFFIXES)]
    assert [first["metrics"][n]["value"] for n in exact] == \
        [second["metrics"][n]["value"] for n in exact]


def test_end_to_end_metrics_match_declaration():
    result = run("eigen_curve", 7, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0
