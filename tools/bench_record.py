"""Record perfbench runs as one BENCH file.

Usage (from the repository root):

    python3 tools/bench_record.py --out BENCH_12.json --seeds 501,502 \
        [--workloads pipeline,logits-audit,attack-wide] [--parent PATH] \
        [--seconds 30] [--trace 0]

For each seed and workload it runs ``perfbench/run.py`` once in this checkout
and, with ``--parent``, once in the parent's checkout; the side that runs
first alternates from pair to pair. Each run's two output lines, the details
and the result, are saved under "runs"; runs already in the file are kept.
"src_lines" gives each side's line count of ``src/liprcp/*.py``, as
``cat src/liprcp/*.py | wc -l`` prints it.
"summary" gives, per workload and side, the median and quartiles of every
untraced end-to-end metric, and how many pairs the change read lower; its
"digests_differ" names each artifact whose sha256 differs between the two
sides at one seed, with those seeds. With both sides, each metric also gets
its relative median change and a verdict against its ``bound`` in
``BENCHMARK.json``, read as a fraction of the parent's median: "worse" when
the change's median is worse by more than the bound, "unresolved" when the
parent's interquartile range is wider than the bound and not every change
run beats every parent run, and "within" otherwise. Its "gain" is true when
the change may claim a gain on that metric: it wins at least nine tenths of
the pairs, ties counting for neither side, and its median is better than the
parent's by more than the parent's interquartile range.

Run it from a fresh copy of the change and point ``--parent`` at a fresh
copy of the parent (``git archive``): with bytecode writing off, a tree that
holds ``__pycache__`` from earlier runs imports faster than one that does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=repo, capture_output=True, text=True, check=True).stdout
    details, result = (json.loads(line) for line in lines.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, "trace": trace, "details": details,
            "result": result}


BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def src_lines(repo: Path) -> int:
    """The line count of the package's modules in the checkout `repo`."""
    return sum(f.read_bytes().count(b"\n") for f in (repo / "src" / "liprcp").glob("*.py"))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The relative median change of `change` against `parent` and its verdict."""
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
    relative = statistics.median(change) / p_med - 1.0
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        word = "unresolved"
    else:
        word = "worse" if sign * relative > bound else "within"
    return {"relative_change": relative, "verdict": word}


def gain(pairs: list[tuple[float, float]], better: str) -> bool:
    """Whether the (parent, change) pairs show a gain for the change: it wins
    at least 9 in 10 of them, ties winning for neither side, and the change's
    median beats the parent's by more than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in pairs)
    p_q1, p_med, p_q3 = statistics.quantiles([p for p, _ in pairs], n=4, method="inclusive")
    margin = sign * (p_med - statistics.median(c for _, c in pairs))
    return 10 * wins >= 9 * len(pairs) and margin > p_q3 - p_q1


def summary(runs: list[dict]) -> dict:
    out: dict = {}
    untraced = [r for r in runs if not r["trace"]]
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for workload in sorted({r["workload"] for r in untraced}):
        for metric in untraced[0]["result"]["metrics"]:
            value = {(r["side"], r["seed"]): r["result"]["metrics"][metric]["value"]
                     for r in untraced if r["workload"] == workload}
            row, vals = {}, {}
            for side in ("parent", "change"):
                vals[side] = [v for (s, _), v in value.items() if s == side]
                if len(vals[side]) >= 2:
                    q1, med, q3 = statistics.quantiles(vals[side], n=4, method="inclusive")
                    row[side] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals[side])}
            pairs = [(value[("parent", s)], v) for (side, s), v in value.items()
                     if side == "change" and ("parent", s) in value]
            if pairs:
                row["change_lower_in"] = f"{sum(c < p for p, c in pairs)}/{len(pairs)}"
            if "parent" in row and "change" in row:
                spec = metrics[metric]
                row.update(verdict(vals["parent"], vals["change"], spec["better"],
                                   spec["bound"]))
                if len(pairs) >= 2:
                    row["gain"] = gain(pairs, spec["better"])
            out.setdefault(workload, {})[metric] = row
        out[workload]["digests_differ"] = digests_differ(
            [r for r in untraced if r["workload"] == workload]
        )
    return out


def digests_differ(runs: list[dict]) -> dict:
    """Each artifact whose sha256 differs between parent and change at the
    same seed, with those seeds (empty when every pair matches)."""
    digests = {(r["side"], r["seed"]): r["details"]["digests"] for r in runs}
    differ: dict = {}
    for (side, seed), change in sorted(digests.items()):
        parent = digests.get(("parent", seed))
        if side != "change" or parent is None:
            continue
        for name in sorted(set(parent) | set(change)):
            if parent.get(name) != change.get(name):
                differ.setdefault(name, []).append(seed)
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--workloads", default="pipeline,logits-audit,attack-wide")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sides = [("change", Path.cwd())] + ([("parent", args.parent)] if args.parent else [])
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    lines = {side: src_lines(repo) for side, repo in sides}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        for workload in args.workloads.split(","):
            for side, repo in sides[::-1] if i % 2 else sides:
                run = bench(repo, workload, seed, args.seconds, args.trace)
                runs.append({"side": side, **run})
                doc = {"runs": runs, "src_lines": lines, "summary": summary(runs)}
                args.out.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
