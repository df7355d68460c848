"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the counts made exactly; two traced runs of one seed must agree on them
EXACT_COUNTS = [k for k, unit in bench.PER_LAYER.items() if unit == "count"]


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


_cache = {}


def _result(workload: str, trace: int, attempt: int = 0) -> dict:
    key = (workload, trace, attempt)
    if key not in _cache:
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[key]


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == bench.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    commands = bench._commands(workload, bench._params(workload, "tiny", 3))
    assert result["attempted"] >= bench.MIN_REPEATS * len(commands)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = _result(workload, 1), _result(workload, 1, attempt=1)
    counts = {k: first["metrics"][k]["value"] for k in EXACT_COUNTS}
    assert counts == {k: second["metrics"][k]["value"] for k in EXACT_COUNTS}
    assert counts["audit.binomial_cdf.calls"] > 0


def test_model_free_workload_does_no_model_work():
    metrics = _result("logits-audit", 1)["metrics"]
    assert metrics["lipnet.forward.calls"]["value"] == 0
    assert metrics["attack.grad_rows"]["value"] == 0
    assert _result("pipeline", 1)["metrics"]["attack.grad_rows"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("pipeline", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_come_only_from_the_command():
    # spans recorded after cli.main returns (the tracer's own post-processing)
    # would have no parent; every span but cli.main's must sit under it
    _result("pipeline", 1)
    spans_file = ROOT / ".perfbench_work" / "spans-pipeline-3.jsonl"
    records = [json.loads(line) for line in spans_file.read_text().splitlines()]
    spans = [r for r in records if "counters" not in r]
    assert spans and all(s["name"] == "cli.main" for s in spans if s["parent"] is None)


def test_a_killed_command_is_reported_as_killed():
    results = [{"cmd": "train", "code": -9, "killed": True, "summary": None, "problems": []}]
    bench._check(results, 100)
    assert results[0]["problems"] == ["killed by the run's time limit"]
