"""The program surface that the benchmark's tracer, perfbench/traced.py, binds.

The tracer patches liprcp from outside by name, so renaming or deleting a
function it wraps breaks the traced benchmark without failing any other
test. These tests load the tracer by path, unchanged, check that every name
it binds resolves, and run it on a tiny synth -> train -> calibrate ->
attack-eval pipeline.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bound_name_resolves(traced):
    names = [(m, f) for m, f, _ in traced.SPANNED] + list(traced.COUNTED)
    assert names
    for mod_name, fn_name in names:
        module = importlib.import_module(f"liprcp.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    assert callable(importlib.import_module("liprcp.audit").StepCurve.__call__)


def test_traced_pipeline_runs_under_cli_main(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    spans_path = tmp_path / "spans.jsonl"
    files = {k: str(tmp_path / v) for k, v in
             {"train": "train.csv", "eval": "eval.csv", "model": "model.json",
              "record": "record.json", "attack": "attack.csv"}.items()}
    commands = [
        ["synth", "--out", files["train"], "--n", "200", "--d", "4", "--c", "2",
         "--seed", "1"],
        ["synth", "--out", files["eval"], "--n", "100", "--d", "4", "--c", "2",
         "--seed", "2"],
        ["train", "--data", files["train"], "--out", files["model"], "--epochs", "5",
         "--hidden-dims", "4", "--seed", "3"],
        ["calibrate", "--data", files["eval"], "--model", files["model"],
         "--out", files["record"], "--alpha", "0.1"],
        ["attack-eval", "--data", files["eval"], "--eval-data", files["eval"],
         "--model", files["model"], "--record", files["record"],
         "--out", files["attack"], "--epsilon-grid", "0.0,0.5",
         "--attack-steps", "2", "--attack-restarts", "1"],
    ]
    for run_id, argv in enumerate(commands):
        proc = subprocess.run(
            [sys.executable, str(TRACED), str(spans_path), str(run_id), "--", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)

    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    seen = set()
    for run_id in range(len(commands)):
        # the tracer writes the run id as it was given on the command line
        spans = [r for r in records if r["run"] == str(run_id) and "counters" not in r]
        assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
        for span in spans:
            ancestor = span
            while ancestor["parent"] is not None:
                ancestor = spans[ancestor["parent"]]
            assert ancestor is spans[0], span["name"]
            seen.add(span["name"])
    assert {
        "datasets.save_csv", "lipnet.train_toy", "conformal.calibrate",
        "attack.coverage_under_attack", "attack.pgd_attack_batch", "audit.certified_band",
    } <= seen
