"""The summary rules of tools/bench_record.py, on hand-made runs.

The script is loaded by path, unchanged; no benchmark runs here.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


class TestVerdict:
    def test_worse_beyond_the_bound(self, bench_record):
        doc = bench_record.verdict(PARENT, [11.5] * 10, "lower", 0.1)
        assert doc["verdict"] == "worse"
        assert doc["relative_change"] == pytest.approx(0.15)

    def test_within_the_bound(self, bench_record):
        assert bench_record.verdict(PARENT, [10.5] * 10, "lower", 0.1)["verdict"] == "within"
        # a metric where higher is better reads a rise as no worse
        assert bench_record.verdict(PARENT, [11.5] * 10, "higher", 0.1)["verdict"] == "within"
        assert bench_record.verdict(PARENT, [8.5] * 10, "higher", 0.1)["verdict"] == "worse"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self, bench_record):
        parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # interquartile range 40 % of the median
        assert bench_record.verdict(parent, [9.0, 10.0, 11.0], "lower", 0.25)["verdict"] == (
            "unresolved"
        )
        # unless every change run beats every parent run
        assert bench_record.verdict(parent, [5.0, 5.5, 5.9], "lower", 0.25)["verdict"] == (
            "within"
        )


class TestGain:
    def test_nine_wins_in_ten_and_a_gap_beyond_the_spread(self, bench_record):
        change = [p - 1.0 for p in PARENT]
        change[3] = PARENT[3] + 1.0  # one loss
        assert bench_record.gain(list(zip(PARENT, change)), "lower")

    def test_eight_wins_in_ten_are_not_enough(self, bench_record):
        change = [p - 1.0 for p in PARENT]
        change[3] = PARENT[3] + 1.0
        change[5] = PARENT[5] + 1.0
        assert not bench_record.gain(list(zip(PARENT, change)), "lower")

    def test_ties_count_for_neither_side(self, bench_record):
        change = [p - 1.0 for p in PARENT]
        change[3] = PARENT[3]
        assert bench_record.gain(list(zip(PARENT, change)), "lower")
        change[5] = PARENT[5]
        assert not bench_record.gain(list(zip(PARENT, change)), "lower")

    def test_the_medians_must_differ_by_more_than_the_parent_spread(self, bench_record):
        # parent quartiles 9.9625 and 10.0375: a 0.05 gap wins every pair, yet
        # is within the parent's interquartile range of 0.075
        change = [p - 0.05 for p in PARENT]
        assert not bench_record.gain(list(zip(PARENT, change)), "lower")
        change = [p - 0.1 for p in PARENT]
        assert bench_record.gain(list(zip(PARENT, change)), "lower")

    def test_higher_is_better(self, bench_record):
        pairs = [(p, p + 1.0) for p in PARENT]
        assert bench_record.gain(pairs, "higher")
        assert not bench_record.gain(pairs, "lower")


def _run(side, seed, peak, digests):
    metrics = {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": peak}
    return {
        "side": side, "workload": "w", "seed": seed, "trace": 0,
        "details": {"digests": digests},
        "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}},
    }


class TestSummary:
    def test_digests_differ_names_artifact_and_seeds(self, bench_record):
        runs = [
            _run("parent", 1, 60.0, {"band.csv": "a", "record.json": "r"}),
            _run("change", 1, 58.0, {"band.csv": "a", "record.json": "r"}),
            _run("parent", 2, 60.1, {"band.csv": "b", "record.json": "r"}),
            _run("change", 2, 58.1, {"band.csv": "c", "record.json": "r", "new.csv": "n"}),
            _run("change", 3, 58.2, {"band.csv": "x"}),  # no parent run at seed 3
        ]
        assert bench_record.digests_differ(runs) == {"band.csv": [2], "new.csv": [2]}
        assert bench_record.digests_differ(runs[:2]) == {}

    def test_summary_gives_each_metric_its_verdict_and_gain(self, bench_record):
        runs = []
        for seed, p in enumerate(PARENT):
            digests = {"band.csv": str(seed)}
            runs += [_run("parent", seed, p, digests), _run("change", seed, p - 1.0, digests)]
        row = bench_record.summary(runs)["w"]
        assert row["peak_rss_mb"]["change_lower_in"] == "10/10"
        assert row["peak_rss_mb"]["verdict"] == "within"
        assert row["peak_rss_mb"]["gain"] is True
        # equal runs: no pair won, no gain
        assert row["wall_s"]["change_lower_in"] == "0/10"
        assert row["wall_s"]["gain"] is False
        assert row["digests_differ"] == {}


class TestSrcLines:
    def test_counts_the_package_modules_of_each_tree(self, bench_record, tmp_path):
        for name, texts in (("change", ["a\nb\n", "c\n"]), ("parent", ["a\nb\nc\n", "d\ne"])):
            pkg = tmp_path / name / "src" / "liprcp"
            (pkg / "sub").mkdir(parents=True)
            for i, text in enumerate(texts):
                (pkg / f"m{i}.py").write_text(text)
            # neither another file type nor a subpackage counts
            (pkg / "notes.txt").write_text("x\n" * 5)
            (pkg / "sub" / "deep.py").write_text("x\n" * 7)
        # as wc -l counts: newlines, so an unterminated last line adds none
        assert bench_record.src_lines(tmp_path / "change") == 3
        assert bench_record.src_lines(tmp_path / "parent") == 4
