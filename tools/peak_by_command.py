"""Median peak RSS and wall time of each CLI command of one perfbench workload.

Usage (from the repository root):

    python3 tools/peak_by_command.py --workload pipeline --seed 7 [--repeats 5] \
        [--size default] [--parent DIR]

It sets up the workload as ``perfbench/run.py`` does and runs its command
sequence ``--repeats`` times, each command in a fresh interpreter. For each
command it prints the median of its ``ru_maxrss`` (from ``os.wait4``) and of
its wall time, and marks the command whose median peak is the highest: the
one that sets the workload's ``peak_rss_mb``. A last ``floor`` row gives the
same medians for ``python -c "import liprcp.cli"``, spawned the same way in
every repetition: ``ru_maxrss`` counts the spawner's own pages from before
``exec``, so no command reads below it, and a command's peak shows its own
memory only as its distance above that row. The workload definitions and
the process runner are imported from ``perfbench/run.py`` and used as they
are, so the commands and their sizes are the benchmark's own.

With ``--parent DIR`` the same commands also run on the package under
``DIR/src``, a fresh copy of the parent tree (``git archive``), in a
workspace of their own. The two sides alternate, each repetition starting
with the other side, and the table gets a parent and a change column.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FLOOR = [sys.executable, "-c", "import liprcp.cli"]


def floor(run, ws: Path, env: dict, deadline: float) -> dict:
    """The result of one `FLOOR` spawn, in the fields of a command's result."""
    seconds, code, rss, _, killed = run._spawn(
        FLOOR, ws, env, ws / "logs" / "floor", deadline - time.perf_counter()
    )
    problems = ["killed by the run's time limit"] if killed else []
    problems += [f"exit code {code}"] if code and not killed else []
    return {"seconds": seconds, "rss_mb": rss, "problems": problems}


def medians(cmds, reps):
    """(name, median MB, median s, problems) of each command over `reps`,
    then of the floor."""
    rows = []
    names = [f"{i}:{cmd}" for i, (cmd, _) in enumerate(cmds)] + ["floor"]
    for i, name in enumerate(names):
        results = [(rep["results"] + [rep["floor"]])[i] for rep in reps]
        problems = sorted({msg for r in results for msg in r["problems"]})
        rows.append((name, statistics.median(r["rss_mb"] for r in results),
                     statistics.median(r["seconds"] for r in results), problems))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "logits-audit", "attack-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--size", choices=("tiny", "default", "full"), default="default")
    parser.add_argument("--parent", type=Path, help="a copy of the parent tree to compare")
    args = parser.parse_args()
    run = load_run()
    trees = {"change": run.SRC}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve() / "src", **trees}
    for src in trees.values():
        if not (src / "liprcp" / "cli.py").is_file():
            print(f"no liprcp sources under {src}: run from the repository root",
                  file=sys.stderr)
            return 2
    env = run._child_env(min(2, len(os.sched_getaffinity(0))))
    envs = {side: {**env, "PYTHONPATH": str(src)} for side, src in trees.items()}
    p = run._params(args.workload, args.size, args.seed)
    cmds = run._commands(args.workload, p)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    ws = {side: run.WORK / f"peak-{side}-{tag}" for side in trees}
    deadline = time.perf_counter() + 3600.0
    reps = {side: [] for side in trees}
    try:
        for side in trees:
            run._setup(args.workload, p, ws[side], envs[side], deadline)
        order = list(trees)
        for _ in range(args.repeats):
            for side in order:
                rep = run._repeat(cmds, ws[side], envs[side], p["n"], deadline)
                rep["floor"] = floor(run, ws[side], envs[side], deadline)
                reps[side].append(rep)
            order.reverse()
    finally:
        for path in ws.values():
            shutil.rmtree(path, ignore_errors=True)
    rows = {side: medians(cmds, reps[side]) for side in trees}
    print(f"{args.workload}, seed {args.seed}, {args.size} size, "
          f"medians of {args.repeats} repetitions")
    sides = list(trees)
    name = {side: f"{side} " if len(sides) > 1 else "" for side in sides}
    heads = [f"{name[s]}peak RSS (MB)" for s in sides] + [f"{name[s]}wall (s)" for s in sides]
    print(f"| command | {' | '.join(heads)} |")
    print("| --- " * (len(heads) + 1) + "|")
    tops = {side: max(rss for _, rss, _, _ in rows[side][:-1]) for side in sides}
    failed = False
    for i, (command, *_) in enumerate(rows["change"]):
        peaks, walls, notes = [], [], []
        for side in sides:
            _, rss, seconds, problems = rows[side][i]
            top = rss == tops[side] and command != "floor"
            peaks.append(f"{rss:.1f}{' (peak)' if top else ''}")
            walls.append(f"{seconds:.2f}")
            notes += [f"{name[side]}{msg}" for msg in problems]
        failed = failed or bool(notes)
        note = f" {'; '.join(notes)}" if notes else ""
        print(f"| {command}{note} | {' | '.join(peaks + walls)} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
