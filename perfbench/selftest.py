"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Each test runs the benchmark as a subprocess, as a user would.  The file is
not named test_*.py, so the package's test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

COUNT_UNIT = "count"


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(workload, trace, hash_seed, root=ROOT, seed=1, seconds=1):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    # Different hash seeds: a count that depends on set or dict order of
    # strings would differ between the two runs.
    first = _result(_bench(workload, 1, hash_seed=1))
    second = _result(_bench(workload, 1, hash_seed=2, seed=2))
    assert {k: v["unit"] for k, v in first.items()} == _declared("per_layer")
    counts = {k: v["value"] for k, v in first.items()
              if v["unit"] == COUNT_UNIT}
    assert counts, "no count metrics reported"
    assert counts == {k: second[k]["value"] for k in counts}
    if workload == "ybe":
        # The bypass workload for gcd-path and elimination changes.
        assert counts["scalars.gcd_constructs"] == 0
        assert counts["linalg.elim_calls"] == 0
        assert counts["linalg.products"] > 0


def test_end_to_end_run_reports_every_metric():
    metrics = _result(_bench("plane", 0, hash_seed=0))
    assert {k: v["unit"] for k, v in metrics.items()} == _declared(
        "end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("ybe", 0, hash_seed=0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
