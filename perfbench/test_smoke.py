"""The benchmark's own test: every workload at reduced size, in both modes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
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

import run  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--seed", "3", "--seconds", "0.5", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = _result(_bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = set(run.PER_LAYER) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == expected
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_work_counters_repeat_for_a_seed():
    def counters(done):
        assert done.returncode == 0, done.stderr
        return [line for line in done.stdout.splitlines() if "counters" in line]

    first = counters(_bench("--workload", "lp-scale"))
    assert first and first == counters(_bench("--workload", "lp-scale"))


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "desk-exact", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_layer_times_count_set_up_plus_one_round():
    import probe

    spans = [
        ["lp", 0.0, 2.0, -1, "setup", 1],
        ["simplex", 0.5, 1.5, 0, "setup", 10],
        ["lp", 0.0, 4.0, -1, "r0.0", 3],
        ["lp", 0.0, 4.0, -1, "r1.0", 3],
    ]
    per_round = probe.summarize(spans, weight=lambda op: 1.0 if op == "setup" else 0.5)
    assert per_round["lp"] == {"calls": 3, "s": 6.0, "self_s": 5.0, "extra": 4.0}
    assert per_round["simplex"]["s"] == 1.0
