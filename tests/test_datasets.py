import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp import datasets
from liprcp.datasets import (
    PRECOMPUTED_LOGITS,
    RAW_INPUTS,
    CsvFormatError,
    LabeledDataset,
    load_inputs_csv,
    load_logits_csv,
    make_gaussian_mixture,
    save_csv,
)


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), np.arange(3))
        with pytest.raises(ValueError):
            LabeledDataset(
                np.zeros((3, 2)), np.zeros(3, dtype=int), np.array([0, 0, 1])
            )
        with pytest.raises(ValueError):
            LabeledDataset(
                np.zeros((2, 2)), np.zeros(2, dtype=int), np.arange(2), kind="other"
            )

    def test_take_preserves_ids(self):
        ds = LabeledDataset(np.arange(8).reshape(4, 2), [0, 1, 0, 1], [10, 11, 12, 13])
        sub = ds.take(np.array([3, 1]))
        np.testing.assert_array_equal(sub.ids, [13, 11])
        np.testing.assert_array_equal(sub.data, [[6, 7], [2, 3]])


class TestGaussianMixture:
    def test_shapes_and_determinism(self):
        a = make_gaussian_mixture(200, 5, 3, separation=2.0, seed=7)
        b = make_gaussian_mixture(200, 5, 3, separation=2.0, seed=7)
        assert a.data.shape == (200, 5)
        assert a.kind == RAW_INPUTS
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_gaussian_mixture(200, 5, 3, separation=2.0, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_pairwise_mean_distances(self):
        # the class means of a huge sample are `separation` apart, with
        # O(1/sqrt(n)) estimation noise
        sep = 4.0
        ds = make_gaussian_mixture(60000, 6, 4, separation=sep, seed=1)
        means = np.stack([ds.data[ds.labels == y].mean(axis=0) for y in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(means[i] - means[j])
                assert d == pytest.approx(sep, abs=0.1)

    def test_unit_covariance(self):
        ds = make_gaussian_mixture(60000, 4, 2, separation=3.0, seed=2)
        centered = np.concatenate(
            [ds.data[ds.labels == y] - ds.data[ds.labels == y].mean(0) for y in (0, 1)]
        )
        cov = np.cov(centered.T)
        np.testing.assert_allclose(cov, np.eye(4), atol=0.05)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_fewer_than_one_row(self, n):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            make_gaussian_mixture(n, 4, 2, 3.0, seed=0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            make_gaussian_mixture(10, 2, 3, 1.0, seed=0)


def whole_file_loader(path):
    """Raw-input loading as one str.splitlines over the whole file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    expected = ["id", "label"] + [f"x_{j}" for j in range(len(header) - 2)]
    if header != expected:
        raise CsvFormatError(
            f"{path}:1: malformed header {lines[0]!r}, expected {','.join(expected)!r}"
        )
    width = len(header) - 2
    ids, labels, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width + 2:
            raise CsvFormatError(
                f"{path}:{lineno}: expected {width + 2} columns, got {len(cells)}"
            )
        try:
            label = int(cells[1])
            rows.append([float(v) for v in cells[2:]])
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
        if not 0 <= label < 2**63:
            raise CsvFormatError(f"{path}:{lineno}: label {label} is not in [0, 2^63)")
        bad = [v for v in cells[2:] if not np.isfinite(float(v))]
        if bad:
            raise CsvFormatError(f"{path}:{lineno}: non-finite cell {bad[0]!r}")
        labels.append(label)
        ids.append(cells[0])
    return LabeledDataset(
        np.array(rows, dtype=float).reshape(len(rows), width),
        np.array(labels), np.array(ids), kind=RAW_INPUTS,
    )


class TestCsvRoundTrip:
    def test_inputs_round_trip_bitwise(self, tmp_path):
        ds = make_gaussian_mixture(50, 3, 2, 2.0, seed=6)
        p = tmp_path / "inputs.csv"
        save_csv(ds, p)
        back = load_inputs_csv(p)
        np.testing.assert_array_equal(back.data, ds.data)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.kind == RAW_INPUTS

    def test_logits_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = LabeledDataset(
            rng.standard_normal((20, 4)),
            rng.integers(0, 4, 20),
            np.arange(20),
            kind=PRECOMPUTED_LOGITS,
        )
        p = tmp_path / "logits.csv"
        save_csv(ds, p)
        back = load_logits_csv(p)
        np.testing.assert_array_equal(back.data, ds.data)
        assert back.kind == PRECOMPUTED_LOGITS

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,label,z_0\n0,1,0.5\n")
        with pytest.raises(CsvFormatError):
            load_logits_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,label,logit_0,logit_1\n0,1,0.5\n")
        with pytest.raises(CsvFormatError) as exc:
            load_logits_csv(p)
        assert "2" in str(exc.value)  # the offending line number

    def test_wrong_kind_reads_only_the_header(self, tmp_path, monkeypatch):
        # probing a raw-input file as logits stops after its first line
        p = tmp_path / "inputs.csv"
        save_csv(make_gaussian_mixture(50, 3, 2, 2.0, seed=6), p)
        calls = []

        class Spy:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def readline(self):
                calls.append("readline")
                return self.fh.readline()

            def __iter__(self):
                calls.append("iter")
                return iter(self.fh)

            def seek(self, pos):
                calls.append("seek")
                return self.fh.seek(pos)

            def read(self, size=-1):
                calls.append("read" if size is None or size < 0 else f"read({size})")
                return self.fh.read(size)

        monkeypatch.setattr(
            datasets, "open", lambda *a, **k: Spy(open(*a, **k)), raising=False
        )
        with pytest.raises(CsvFormatError):
            load_logits_csv(p)
        assert calls == ["readline"]
        assert load_inputs_csv(p).n == 50
        # the body is read line by line, never as one whole text
        assert calls == ["readline", "readline", "iter"]

    @settings(max_examples=200, deadline=None)
    @given(
        breaks=st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from(
                ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028", ""]
            )),
            max_size=4,
        ),
        cut=st.integers(0, 200),
    )
    def test_same_lines_and_errors_as_whole_file_splitlines(
        self, tmp_path_factory, breaks, cut
    ):
        body = "id,label,x_0,x_1\n0,1,0.5,-2.0\n1,0,3.25,1e-3\n2,1,7.0,8.5\n"
        text = body[:cut]
        for pos, sep in breaks:
            text = text[:pos] + sep + text[pos:]
        p = tmp_path_factory.getbasetemp() / "odd.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def outcome(load):
            try:
                ds = load(p)
            except CsvFormatError as exc:
                return str(exc)
            return ds.data.tolist(), ds.labels.tolist(), ds.ids.tolist()

        assert outcome(load_inputs_csv) == outcome(whole_file_loader)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,label,logit_0\n0,1,abc\n")
        with pytest.raises(CsvFormatError):
            load_logits_csv(p)


class TestBlocks:
    """The body is parsed `datasets.BLOCK_LINES` lines at a time."""

    @pytest.mark.parametrize("block", [1, 2])
    @settings(max_examples=200, deadline=None)
    @given(
        breaks=st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from(
                ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028", ""]
            )),
            max_size=4,
        ),
        cut=st.integers(0, 200),
    )
    def test_same_lines_and_errors_across_block_boundaries(
        self, tmp_path_factory, block, breaks, cut
    ):
        # the whole-file property again, with blocks of one or two lines, so
        # that every line meets a block boundary
        same_lines = TestCsvRoundTrip.test_same_lines_and_errors_as_whole_file_splitlines
        with mock.patch.object(datasets, "BLOCK_LINES", block):
            same_lines.hypothesis.inner_test(self, tmp_path_factory, breaks, cut)

    def test_bad_line_in_second_block_names_its_line(self, tmp_path):
        n = datasets.BLOCK_LINES + 50
        rows = [f"{i},1,{i}.5" for i in range(n)]
        rows[datasets.BLOCK_LINES + 7] = "x,1,oops"
        p = tmp_path / "bad.csv"
        p.write_text("id,label,x_0\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match=f"bad.csv:{datasets.BLOCK_LINES + 9}: "):
            load_inputs_csv(p)

    def test_duplicate_id_across_blocks_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datasets, "BLOCK_LINES", 2)
        p = tmp_path / "dup.csv"
        p.write_text("id,label,x_0\na,0,1.0\nb,1,2.0\nc,0,3.0\na,1,4.0\n")
        with pytest.raises(ValueError, match="row ids must be unique"):
            load_inputs_csv(p)

    @pytest.mark.parametrize("text", ["id,label,x_0", "id,label,x_0\r\n", "id,label,x_0\r"])
    def test_header_only_file_reads_zero_rows_without_warning(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_inputs_csv(p)
        assert _bits(ds) == _bits(whole_file_loader(p))
        assert ds.data.shape == (0, 1)

    def test_load_peak_is_a_small_multiple_of_the_data(self, tmp_path):
        # a whole-file read holds the text and all its lines at once: about
        # 5x the parsed data at this size; blocks leave the concatenation
        p = tmp_path / "big.csv"
        ds = make_gaussian_mixture(20_000, 32, 8, 2.0, seed=3)
        save_csv(ds, p)
        load_inputs_csv(p)  # warm up
        tracemalloc.start()
        try:
            back = load_inputs_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == ds.data.tobytes()
        assert peak < 3 * back.data.nbytes


def save_csv_per_row(ds, path):
    """The writer before blocks: every row converted at once, written one by one."""
    prefix = "logit" if ds.kind == PRECOMPUTED_LOGITS else "x"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label," + ",".join(f"{prefix}_{j}" for j in range(ds.data.shape[1])) + "\n")
        for rid, label, row in zip(ds.ids.tolist(), ds.labels.tolist(), ds.data.tolist()):
            fh.write(f"{rid},{label},{','.join(map(repr, row))}\n")


class TestSaveBlocks:
    """The body is formatted `datasets.BLOCK_LINES` rows at a time."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_same_bytes_as_the_per_row_writer(self, tmp_path, offset):
        ds = make_gaussian_mixture(datasets.BLOCK_LINES + offset, 3, 2, 2.0, seed=4)
        logits = LabeledDataset(ds.data, ds.labels, ds.ids, kind=PRECOMPUTED_LOGITS)
        for i, data in enumerate((ds, logits)):
            save_csv(data, tmp_path / f"blocks{i}.csv")
            save_csv_per_row(data, tmp_path / f"rows{i}.csv")
            got = (tmp_path / f"blocks{i}.csv").read_bytes()
            assert got == (tmp_path / f"rows{i}.csv").read_bytes()

    def test_peak_is_one_block_of_python_floats(self, tmp_path):
        # a Python float and its list slot take 32 bytes, its repr more: the
        # whole table at once took 370 bytes a cell of one block at 8 blocks
        width = 8
        ds = make_gaussian_mixture(8 * datasets.BLOCK_LINES, width, 4, 2.0, seed=3)
        save_csv(ds, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * datasets.BLOCK_LINES * width


# str.splitlines breaks a line at each of these; no cell or id may hold one
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_ODD_CELLS = [
    "nan", "-nan", "+nan", "NaN", "inf", "-inf", "+Infinity", "1e5", "1E-5", "-0",
    "+.5", "5.", "007", "1_0", "\u0661\u0662", "\u0663", "#", "#1", "1#", "", " ",
    "0x10", "1e", "1e400", "1.5j", "abc", "+1", "--1", "9223372036854775808", "1.0",
]
_number = st.one_of(
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(_ODD_CELLS),
)


def _padded(number):
    """Numbers, bare or padded with whitespace, ASCII or not."""
    pad = st.sampled_from(["", "", " ", "\t", "\u2003", "\u00a0"])
    return st.tuples(pad, number, pad).map("".join)


_int = st.integers(-(2**63), 2**63).map(str)
_junk = st.text(alphabet="0123456789+-.eE_ #nai\u0660\t", max_size=6)
_id = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="," + _LINE_BREAKS),
    max_size=40,
) | st.text(alphabet="ab", min_size=200, max_size=300)


@st.composite
def _cell_file(draw):
    """(width, body lines): rows of an id, a label and width cells, now and
    then one cell more or fewer. Half the files draw labels from integers
    and cells from numbers only, so that whole files often reach loadtxt's
    verdict; the others draw every cell from all strategies."""
    width = draw(st.integers(0, 3))
    numbers_only = draw(st.booleans())
    cell = _padded(_number) if numbers_only else _padded(_number) | _junk
    label = _padded(_int) if numbers_only else _padded(_int) | cell
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        columns = width + 2 + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        cells = draw(st.lists(cell, min_size=width + 1, max_size=width + 1))
        lines.append(",".join([draw(_id), draw(label), *cells][:columns]))
    return width, lines


def _bits(ds):
    return ds.data.shape, ds.data.tobytes(), ds.labels.tolist(), ds.ids.dtype, ds.ids.tolist()


class TestFastPath:
    """`_parse_fast` (one np.loadtxt call) against the cell-by-cell loop."""

    @settings(max_examples=300, deadline=None)
    @given(cell_file=_cell_file())
    def test_accepts_only_what_the_loop_reads_the_same(self, tmp_path_factory, cell_file):
        width, lines = cell_file
        header = ",".join(["id", "label", *(f"x_{j}" for j in range(width))])
        p = tmp_path_factory.getbasetemp() / "cells.csv"
        p.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")

        body = p.read_text(encoding="utf-8").splitlines()[1:]
        fast = datasets._parse_fast(body, width)
        if fast is not None:
            ids, labels, data = datasets._parse(p, body, width)  # must not raise
            assert ids.dtype == fast[0].dtype and ids.tolist() == fast[0].tolist()
            assert labels.dtype == fast[1].dtype and labels.tolist() == fast[1].tolist()
            assert data.shape == fast[2].shape and data.tobytes() == fast[2].tobytes()

        def outcome(load):
            try:
                return _bits(load(p))
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                return type(exc).__name__, str(exc)

        assert outcome(load_inputs_csv) == outcome(whole_file_loader)

    def test_clean_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        p = tmp_path / "inputs.csv"
        ds = make_gaussian_mixture(300, 4, 3, 2.0, seed=9)
        save_csv(ds, p)
        monkeypatch.setattr(datasets, "_parse", None)  # the loop would fail
        back = load_inputs_csv(p)
        assert back.data.tobytes() == ds.data.tobytes()
        assert back.data.flags.c_contiguous and back.labels.flags.c_contiguous
        assert back.ids.tolist() == [str(i) for i in range(300)]

    def test_header_only_file_reads_zero_rows_without_warning(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("id,label,x_0,x_1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_inputs_csv(p)
        assert _bits(ds) == _bits(whole_file_loader(p))
        assert ds.data.shape == (0, 2)

    @pytest.mark.parametrize("label", ["-1", str(2**63), str(2**64)])
    def test_label_outside_int64_class_indices_names_its_line(self, tmp_path, label):
        # -1 would pass loadtxt's int64 cells and then read as the last class
        p = tmp_path / "labels.csv"
        p.write_text(f"id,label,x_0\na,0,1.5\nb,{label},2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match=f"labels.csv:3: label {label} is not in"):
                load_inputs_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("load", [load_inputs_csv, load_logits_csv])
    def test_non_finite_cell_names_its_line(self, tmp_path, load, cell):
        prefix = "x" if load is load_inputs_csv else "logit"
        p = tmp_path / "cells.csv"
        p.write_text(f"id,label,{prefix}_0,{prefix}_1\na,0,1.5,2\nb,1,2.5,{cell}\n")
        assert datasets._parse_fast(p.read_text().splitlines()[1:], 2) is None
        with pytest.raises(CsvFormatError, match=f"cells.csv:3: non-finite cell '{cell}'"):
            load(p)

    def test_extra_cell_is_not_dropped(self, tmp_path):
        # loadtxt's usecols would read only the first three cells
        p = tmp_path / "extra.csv"
        p.write_text("id,label,x_0\na,1,1,5\n")
        with pytest.raises(CsvFormatError, match="expected 3 columns, got 4"):
            load_inputs_csv(p)
