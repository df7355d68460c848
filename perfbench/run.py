"""Seeded end-to-end benchmark of the liprcp CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Each workload is a fixed sequence of CLI commands run one after another, each
in a fresh interpreter (a closed loop with one client). The sequence is
repeated until --seconds have passed, at least 3 times, and every timing is a
median over the repetitions. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
extra repetition whose commands run under perfbench/traced.py. The line
before it holds the details: machine and library versions, the medians per
command, the sha256 of every artifact and any failed check.

The program is taken from ./src of the working directory, never from an
installed copy, so the benchmark measures the checkout it runs in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
ENTRY = "import sys; from liprcp.cli import main; sys.exit(main())"

RUN_LIMIT_S = 165.0  # a run must end within 180 s, set-up included
MIN_REPEATS = 3  # a median that can drop one slow repetition; digests compared
SETUPS = 5
ALPHA = 0.1

# rows per generated file; "default" is what BENCHMARK.json runs, "full" the
# sizes of the ROADMAP baseline, "tiny" the smoke test's
SIZES = {
    "pipeline": {"tiny": 300, "default": 5000, "full": 20000},
    "logits-audit": {"tiny": 500, "default": 20000, "full": 100000},
    "attack-wide": {"tiny": 300, "default": 6000, "full": 10000},
}
WORKLOADS = list(SIZES)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "datasets.save_csv.s": "s",
    "datasets.save_csv.rows": "count",
    "datasets.load_csv.s": "s",
    "datasets.load_csv.rows": "count",
    "datasets.load_csv.useful_ratio": "ratio",
    "lipnet.train_toy.s": "s",
    "lipnet.epoch_s": "s",
    "lipnet.bjorck_project.s": "s",
    "lipnet.bjorck_project.calls": "count",
    "lipnet.groupsort2.s": "s",
    "lipnet.groupsort2.calls": "count",
    "lipnet.forward.s": "s",
    "lipnet.forward.calls": "count",
    "lipnet.forward.rows": "count",
    "lipnet.input_gradient_batch.s": "s",
    "lipnet.input_gradient_batch.calls": "count",
    "lipnet.input_gradient_batch.rows": "count",
    "lipnet.from_json.calls": "count",
    "scores.score.s": "s",
    "scores.lower_bound_all.s": "s",
    "scores.upper_bound_all.s": "s",
    "conformal.calibrate.s": "s",
    "conformal.vanilla_membership.s": "s",
    "conformal.vanilla_membership.rows": "count",
    "robust.conservative_membership.s": "s",
    "robust.restrictive_membership.s": "s",
    "robust.overhead_ratio": "ratio",
    "audit.critical_epsilons.s": "s",
    "audit.coverage_curves.s": "s",
    "audit.certified_band.s": "s",
    "audit.covmax_plus.calls": "count",
    "audit.binomial_cdf.calls": "count",
    "audit.step_curve_evals": "count",
    "poison.quantile_shift.s": "s",
    "attack.coverage_under_attack.s": "s",
    "attack.pgd_attack_batch.s": "s",
    "attack.pgd_attack_batch.rows": "count",
    "attack.grad_rows": "count",
    "attack.useful_ratio": "ratio",
    "train_s": "s",
    "attack_eval_s": "s",
    "sets_s": "s",
    "audit_s": "s",
    "failed_frac": "ratio",
    "trace_overhead_s": "s",
}


class SetupError(RuntimeError):
    pass


# --------------------------------------------------------------- workloads


def _params(workload: str, size: str, seed: int) -> dict:
    tiny = size == "tiny"
    rng = random.Random(f"{workload}/{seed}")
    p = {
        "n": SIZES[workload][size],
        "seeds": [rng.randrange(1, 2**31) for _ in range(5)],
        "k": 5 if tiny else 50,
        "steps": 3 if tiny else 40,
        "restarts": 1 if tiny else 3,
    }
    if workload == "pipeline":
        p.update(separation=4.0, epochs=5 if tiny else 100, grid="0,0.1,0.25,0.5")
    elif workload == "attack-wide":
        p.update(separation=1.5, epochs=5 if tiny else 30, grid="1.0,2.0,4.0")
    else:
        p.update(classes=10, shift=3.0)
    return p


def _commands(workload: str, p: dict) -> list[tuple[str, list[str]]]:
    """(command, argv) pairs, with paths relative to the workspace."""
    s = [str(v) for v in p["seeds"]]
    sets = [
        ("predict", ["--out", "out/sets.csv"]),
        ("robust-predict", ["--out", "out/rsets.csv", "--epsilon", "0.25"]),
        ("audit", ["--out", "out/band.csv", "--delta", "0.1"]),
    ]
    if workload == "logits-audit":
        cal, test = "inputs/cal.csv", "inputs/test.csv"
        cmds = [("calibrate", ["--data", cal, "--out", "out/record.json", "--alpha", str(ALPHA)])]
        cmds += [(c, ["--data", test, "--record", "out/record.json", *a]) for c, a in sets]
        cmds.append(
            ("poison-certify", ["--data", cal, "--out", "out/cert.json",
                                "--alpha", str(ALPHA), "--k", str(p["k"]), "--epsilon", "0.1"])
        )
        return cmds

    n = str(p["n"])
    synth = ["--n", n, "--d", "32", "--c", "8", "--separation", str(p["separation"])]
    model = ["--model", "out/model.json"]
    every = workload == "pipeline"  # the workload that runs all 8 commands
    cmds = [
        ("synth", ["--out", "out/train.csv", *synth, "--seed", s[0]]),
        ("synth", ["--out", "out/eval.csv", *synth, "--seed", s[1]]),
    ]
    if every:
        cmds.append(("synth", ["--out", "out/test.csv", *synth, "--seed", s[2]]))
    cmds += [
        ("train", ["--data", "out/train.csv", "--out", "out/model.json",
                   "--hidden-dims", "32,32", "--epochs", str(p["epochs"]), "--seed", s[3]]),
        ("calibrate", ["--data", "out/eval.csv", *model, "--out", "out/record.json",
                       "--alpha", str(ALPHA)]),
    ]
    if every:
        for c, a in sets:
            data = "out/eval.csv" if c == "audit" else "out/test.csv"
            cmds.append((c, ["--data", data, *model, "--record", "out/record.json", *a]))
    # the attacked rows are the band's own rows, as in the README example:
    # the certificate then bounds every row exactly and --check cannot fail
    # by sampling chance, which it can on a separate test set
    cmds.append(
        ("attack-eval", ["--data", "out/eval.csv", "--eval-data", "out/eval.csv", *model,
                         "--record", "out/record.json", "--out", "out/attack.csv",
                         "--epsilon-grid", p["grid"], "--attack-steps", str(p["steps"]),
                         "--attack-restarts", str(p["restarts"]), "--seed", s[4]])
    )
    if every:
        cmds.append(
            ("poison-certify", ["--data", "out/eval.csv", *model, "--out", "out/cert.json",
                                "--alpha", str(ALPHA), "--k", str(p["k"]), "--epsilon", "0.1"])
        )
    return cmds


def _write_logits(path: Path, n: int, classes: int, shift: float, seed: int) -> None:
    """Class-shifted Gaussian logits, as an external Lipschitz model would emit."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    logits = rng.standard_normal((n, classes))
    logits[np.arange(n), labels] += shift
    table = np.column_stack([np.arange(n), labels, logits])
    header = "id,label," + ",".join(f"logit_{j}" for j in range(classes))
    fmt = ["%d", "%d"] + ["%.17g"] * classes
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


# --------------------------------------------------------------- processes


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    # the program derives its BLAS caps from LIPRCP_THREADS; drop inherited ones
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["LIPRCP_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv, cwd: Path, env: dict, log: Path, timeout: float):
    """Run one process; return (seconds, exit code, peak RSS in MB, stdout, killed).

    `killed` says the process passed `timeout` and was killed by the benchmark.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
    stdout = log.with_suffix(".out").read_text()
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, stdout, bool(killed)


def _setup(workload: str, p: dict, ws: Path, env: dict, deadline: float) -> float:
    """Fresh workspace, a warm import of the package, and the input files."""
    t0 = time.perf_counter()
    shutil.rmtree(ws, ignore_errors=True)
    for sub in ("inputs", "out", "logs"):
        (ws / sub).mkdir(parents=True)
    argv = [sys.executable, "-c", "import liprcp.cli"]
    log = ws / "logs" / "warm"
    _, code, _, _, killed = _spawn(argv, ws, env, log, deadline - time.perf_counter())
    if killed:
        raise SetupError("set-up passed the run's time limit")
    if code != 0:
        raise SetupError(log.with_suffix(".err").read_text()[-2000:])
    if workload == "logits-audit":
        for name, seed in (("cal", p["seeds"][0]), ("test", p["seeds"][1])):
            _write_logits(ws / "inputs" / f"{name}.csv", p["n"], p["classes"], p["shift"], seed)
    return time.perf_counter() - t0


# --------------------------------------------------------------- checks


def _summary(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def _coverage_tolerance(n_cal: int, n_test: int) -> float:
    """Five standard deviations of split-CP coverage, plus the rank slack."""
    spread = math.sqrt(ALPHA * (1 - ALPHA) * (1.0 / n_cal + 1.0 / n_test))
    return 5.0 * spread + 1.0 / (n_cal + 1)


def _check(results: list[dict], n: int) -> None:
    """Attach output checks to each command result as `problem` strings."""
    by_cmd = {r["cmd"]: r for r in results}
    for r in results:
        if r["killed"]:
            r["problems"].append("killed by the run's time limit")
        elif r["code"] != 0:
            r["problems"].append(f"exit code {r['code']}")
        elif r["summary"] is None:
            r["problems"].append("no JSON summary on stdout")
    predict, robust = by_cmd.get("predict"), by_cmd.get("robust-predict")
    if predict and predict["summary"] and robust and robust["summary"]:
        cov, rcov = predict["summary"]["coverage"], robust["summary"]["coverage"]
        if abs(cov - (1 - ALPHA)) > _coverage_tolerance(n, n):
            predict["problems"].append(f"coverage {cov} far from {1 - ALPHA}")
        if rcov < cov:
            robust["problems"].append(f"robust coverage {rcov} < vanilla {cov}")
    attack = by_cmd.get("attack-eval")
    if attack and attack["summary"] and attack["summary"].get("band_escapes") != 0:
        attack["problems"].append("attack coverage escapes the certified band")


def _digests(out_dir: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
        if f.is_file()
    }


# --------------------------------------------------------------- runs


def _repeat(cmds, ws: Path, env: dict, n: int, deadline: float, spans: Path | None = None):
    """One pass over the command sequence in a cleared output directory."""
    shutil.rmtree(ws / "out")
    (ws / "out").mkdir()
    results = []
    for i, (cmd, args) in enumerate(cmds):
        if spans is None:
            argv = [sys.executable, "-c", ENTRY, cmd, *args, "--check"]
        else:
            argv = [sys.executable, str(TRACED), str(spans), f"{i}:{cmd}", "--",
                    cmd, *args, "--check"]
        seconds, code, rss, stdout, killed = _spawn(
            argv, ws, env, ws / "logs" / f"{i}", deadline - time.perf_counter()
        )
        out_arg = args[args.index("--out") + 1]
        results.append({
            "cmd": cmd, "out": Path(out_arg).stem, "seconds": seconds, "code": code,
            "rss_mb": rss, "summary": _summary(stdout), "killed": killed, "problems": [],
        })
    _check(results, n)
    return {"results": results, "digests": _digests(ws / "out")}


def _compare_digests(reps: list[dict]) -> None:
    """An artifact whose bytes differ between repetitions fails its command."""
    first = reps[0]["digests"]
    for rep in reps[1:]:
        for r in rep["results"]:
            written = {k for k in set(first) | set(rep["digests"]) if k.split(".")[0] == r["out"]}
            if any(first.get(k) != rep["digests"].get(k) for k in written):
                r["problems"].append("artifact bytes differ from the first repetition")


def _loop(cmds, ws, env, n, seconds: float, deadline: float, reserve: float) -> list[dict]:
    """Repeat the sequence; leave `reserve` times a repetition for what follows."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(_repeat(cmds, ws, env, n, deadline))
        elapsed = time.perf_counter() - t0
        per_rep = elapsed / len(reps)
        if time.perf_counter() + per_rep * (1 + reserve) > deadline:
            break
        if len(reps) >= MIN_REPEATS and elapsed + per_rep * (1 + reserve) > seconds:
            break
    return reps


def _median(reps: list[dict], *names: str) -> float:
    """Sum over the named commands (all if none) of each one's median time.

    Taking the median per command drops a slow spell that hits one command
    in one repetition, which a median of whole-sequence sums would keep
    whenever spells hit different commands in different repetitions.
    """
    cmds = reps[0]["results"]
    return sum(
        statistics.median(rep["results"][i]["seconds"] for rep in reps)
        for i, r in enumerate(cmds)
        if not names or r["cmd"] in names
    )


def _wall(rep: dict) -> float:
    return sum(r["seconds"] for r in rep["results"])


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": _median(reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(x["rss_mb"] for x in r["results"]) for r in reps),
    }


def per_layer(records: list[dict], reps: list[dict], traced: dict, failed_frac: float) -> dict:
    """Per-layer metrics from the spans of one traced repetition."""
    runs: dict[str, list[dict]] = {}
    summaries = []
    for rec in records:
        if "counters" in rec:
            summaries.append(rec)
        else:
            runs.setdefault(rec["run"], []).append(rec)
    spans = [s for run in runs.values() for s in run]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(s["end"] - s["start"] for name in names for s in of(name))

    def rows(*names):
        return sum(s.get("rows", 0) for name in names for s in of(name))

    def counter(name):
        return sum(s["counters"].get(name, 0) for s in summaries)

    def ratio(a, b):
        return a / b if b else 0.0

    self_s = grad_rows = 0.0
    for run in runs.values():
        for idx, s in enumerate(run):
            if s["name"] == "cli.main":
                children = sum(c["end"] - c["start"] for c in run if c["parent"] == idx)
                self_s += s["end"] - s["start"] - children
            if s["name"] == "lipnet.input_gradient_batch":
                parent = s["parent"]
                while parent is not None and run[parent]["name"] != "attack.pgd_attack_batch":
                    parent = run[parent]["parent"]
                if parent is not None:
                    grad_rows += s.get("rows", 0)
    robust_run = next((run for rid, run in runs.items() if rid.endswith(":robust-predict")), [])

    def robust_total(name):
        return sum(s["end"] - s["start"] for s in robust_run if s["name"] == name)

    loads = of("datasets.load_logits_csv") + of("datasets.load_inputs_csv")
    m = {
        "cli.import_s": sum(s["import_s"] for s in summaries),
        "cli.self_s": self_s,
        "datasets.save_csv.s": total("datasets.save_csv"),
        "datasets.save_csv.rows": rows("datasets.save_csv"),
        "datasets.load_csv.s": total("datasets.load_logits_csv", "datasets.load_inputs_csv"),
        "datasets.load_csv.rows": rows("datasets.load_logits_csv", "datasets.load_inputs_csv"),
        "datasets.load_csv.useful_ratio": ratio(sum(s["ok"] for s in loads), len(loads)),
        "lipnet.train_toy.s": total("lipnet.train_toy"),
        "lipnet.epoch_s": ratio(total("lipnet.train_toy"), rows("lipnet.train_toy")),
        "lipnet.from_json.calls": len(of("lipnet.from_json")),
        "scores.score.s": total("scores.score"),
        "scores.lower_bound_all.s": total("scores.lower_bound_all"),
        "scores.upper_bound_all.s": total("scores.upper_bound_all"),
        "conformal.calibrate.s": total("conformal.calibrate"),
        "conformal.vanilla_membership.s": total("conformal.vanilla_membership"),
        "conformal.vanilla_membership.rows": rows("conformal.vanilla_membership"),
        "robust.conservative_membership.s": total("robust.conservative_membership"),
        "robust.restrictive_membership.s": total("robust.restrictive_membership"),
        "robust.overhead_ratio": ratio(
            robust_total("robust.conservative_membership"),
            robust_total("conformal.vanilla_membership"),
        ),
        "audit.critical_epsilons.s": total("audit.critical_epsilons"),
        "audit.coverage_curves.s": total("audit.coverage_curves"),
        "audit.certified_band.s": total("audit.certified_band"),
        "audit.covmax_plus.calls": counter("audit.covmax_plus"),
        "audit.binomial_cdf.calls": counter("audit.binomial_cdf"),
        "audit.step_curve_evals": counter("audit.step_curve_evals"),
        "poison.quantile_shift.s": total("poison.quantile_shift"),
        "attack.coverage_under_attack.s": total("attack.coverage_under_attack"),
        "attack.pgd_attack_batch.s": total("attack.pgd_attack_batch"),
        "attack.pgd_attack_batch.rows": rows("attack.pgd_attack_batch"),
        "attack.grad_rows": int(grad_rows),
        "attack.useful_ratio": ratio(
            counter("attack.useful_rows"), counter("attack.attacked_rows")
        ),
        "train_s": _median(reps, "train"),
        "attack_eval_s": _median(reps, "attack-eval"),
        "sets_s": _median(reps, "predict", "robust-predict"),
        "audit_s": _median(reps, "audit"),
        "failed_frac": failed_frac,
        # the tracer's own post-command computation is not the program's time
        "trace_overhead_s": (
            _wall(traced) - sum(s["post_s"] for s in summaries) - _median(reps)
        ),
    }
    for name in ("bjorck_project", "groupsort2", "forward", "input_gradient_batch"):
        m[f"lipnet.{name}.s"] = total(f"lipnet.{name}")
        m[f"lipnet.{name}.calls"] = len(of(f"lipnet.{name}"))
    m["lipnet.forward.rows"] = rows("lipnet.forward")
    m["lipnet.input_gradient_batch.rows"] = rows("lipnet.input_gradient_batch")
    return m


def wall_share(records: list[dict], traced: dict) -> dict:
    """Share of the traced repetition's wall time spent in each layer.

    A layer's time is that of the module calls `cli.main` makes directly, so
    nested calls count once, in the layer the command called. `cli.import_s`
    is the package import, `cli.self_s` command time outside any module call,
    and `process` interpreter start-up and exit.
    """
    share: dict[str, float] = defaultdict(float)
    total = 0.0
    seconds = {f"{i}:{r['cmd']}": r["seconds"] for i, r in enumerate(traced["results"])}
    runs: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        runs[rec["run"]].append(rec)
    for run_id, recs in runs.items():
        summary = next(r for r in recs if "counters" in r)
        spans = [r for r in recs if "counters" not in r]
        main = next(idx for idx, s in enumerate(spans) if s["name"] == "cli.main")
        main_s = spans[main]["end"] - spans[main]["start"]
        share["cli.self_s"] += main_s
        for c in spans:
            if c["parent"] == main:
                share[c["name"].split(".")[0]] += c["end"] - c["start"]
                share["cli.self_s"] -= c["end"] - c["start"]
        wall = seconds[run_id] - summary["post_s"]
        share["cli.import_s"] += summary["import_s"]
        share["process"] += wall - summary["import_s"] - main_s
        total += wall
    return {k: round(v / total, 4) for k, v in sorted(share.items())}


def _environment(threads: int, seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "LIPRCP_THREADS": threads,
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (result, details)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    threads = min(2, len(os.sched_getaffinity(0)))
    env = _child_env(threads)
    p = _params(workload, size, seed)
    cmds = _commands(workload, p)
    ws = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = [_setup(workload, p, ws, env, deadline) for _ in range(1 if trace else SETUPS)]
        # a traced repetition runs slower than an untraced one; leave it room
        reps = _loop(cmds, ws, env, p["n"], seconds, deadline, reserve=1.5 if trace else 0.0)
        traced = None
        if trace:
            spans_path = ws / "logs" / "spans.jsonl"
            traced = _repeat(cmds, ws, env, p["n"], deadline, spans=spans_path)
            # a command that dies before its tracer starts writes no spans
            records = []
            if spans_path.exists():
                records = [json.loads(line) for line in spans_path.read_text().splitlines()]
                shutil.copy(spans_path, WORK / f"spans-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    all_reps = reps + ([traced] if traced else [])
    _compare_digests(all_reps)
    problems = [
        f"repetition {i} {r['cmd']}: {msg}"
        for i, rep in enumerate(all_reps) for r in rep["results"] for msg in r["problems"]
    ]
    attempted = sum(len(rep["results"]) for rep in all_reps)
    failed = sum(bool(r["problems"]) for rep in all_reps for r in rep["results"])
    if trace:
        values, units = per_layer(records, reps, traced, failed / attempted), PER_LAYER
    else:
        values, units = end_to_end(reps, setups), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    details = {
        "workload": workload,
        "size": size,
        "rows": p["n"],
        "environment": _environment(threads, seed),
        "repetitions": len(reps),
        "repetition_wall_s": [_wall(rep) for rep in reps],
        "command_median_s": {
            f"{i}:{cmd}": statistics.median(rep["results"][i]["seconds"] for rep in reps)
            for i, (cmd, _) in enumerate(cmds)
        },
        "digests": reps[0]["digests"],
        "problems": problems,
    }
    if trace:
        details["undecided"] = [u for rec in records if "counters" in rec for u in rec["undecided"]]
        details["wall_share"] = wall_share(records, traced)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("tiny", "default", "full"), default="default")
    args = parser.parse_args(argv)
    if not (SRC / "liprcp" / "cli.py").is_file():
        print(f"no liprcp sources under {SRC}: run from the repository root", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
