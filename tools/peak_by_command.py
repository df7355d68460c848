"""Median peak RSS and wall time of each CLI command of one perfbench workload.

Usage (from the repository root):

    python3 tools/peak_by_command.py --workload pipeline --seed 7 [--repeats 5] \
        [--size default]

It sets up the workload as ``perfbench/run.py`` does and runs its command
sequence ``--repeats`` times, each command in a fresh interpreter. For each
command it prints the median of its ``ru_maxrss`` (from ``os.wait4``) and of
its wall time, and marks the command whose median peak is the highest: the
one that sets the workload's ``peak_rss_mb``. The workload definitions and
the process runner are imported from ``perfbench/run.py`` and used as they
are, so the commands and their sizes are the benchmark's own.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "logits-audit", "attack-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--size", choices=("tiny", "default", "full"), default="default")
    args = parser.parse_args()
    run = load_run()
    if not (run.SRC / "liprcp" / "cli.py").is_file():
        print(f"no liprcp sources under {run.SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    env = run._child_env(min(2, len(os.sched_getaffinity(0))))
    p = run._params(args.workload, args.size, args.seed)
    cmds = run._commands(args.workload, p)
    ws = run.WORK / f"peak-{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.perf_counter() + 3600.0
    try:
        run._setup(args.workload, p, ws, env, deadline)
        reps = [run._repeat(cmds, ws, env, p["n"], deadline) for _ in range(args.repeats)]
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    rows = []
    for i, (cmd, _) in enumerate(cmds):
        results = [rep["results"][i] for rep in reps]
        problems = sorted({msg for r in results for msg in r["problems"]})
        rows.append((f"{i}:{cmd}", statistics.median(r["rss_mb"] for r in results),
                     statistics.median(r["seconds"] for r in results), problems))
    top = max(rss for _, rss, _, _ in rows)
    print(f"{args.workload}, seed {args.seed}, {args.size} size, "
          f"medians of {args.repeats} repetitions")
    print("| command | peak RSS (MB) | wall (s) |")
    print("| --- | --- | --- |")
    for name, rss, seconds, problems in rows:
        mark = " (peak)" if rss == top else ""
        note = f" {'; '.join(problems)}" if problems else ""
        print(f"| {name}{note} | {rss:.1f}{mark} | {seconds:.2f} |")
    return 0 if not any(problems for *_, problems in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
