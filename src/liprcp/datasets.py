"""Synthetic data generation and lossless CSV I/O for inputs and logits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .rng import substream

RAW_INPUTS = "raw_inputs"
PRECOMPUTED_LOGITS = "precomputed_logits"

# CSV body lines read or written at a time: a load or save holds one block
BLOCK_LINES = 2048


class CsvFormatError(ValueError):
    pass


class CsvHeaderError(CsvFormatError):
    """The header names the columns of another kind of file."""


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of either raw inputs (n, d) or precomputed logits (n, c)."""

    data: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    kind: str = RAW_INPUTS

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        ids = np.asarray(self.ids)
        if not (data.shape[0] == labels.shape[0] == ids.shape[0]):
            raise ValueError("inconsistent row counts")
        # sorted neighbours, not np.unique, which imports numpy.ma
        ids_sorted = np.sort(ids)
        if np.any(ids_sorted[1:] == ids_sorted[:-1]):
            raise ValueError("row ids must be unique")
        if self.kind not in (RAW_INPUTS, PRECOMPUTED_LOGITS):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            data=self.data[indices],
            labels=self.labels[indices],
            ids=self.ids[indices],
            kind=self.kind,
        )

    def metadata(self) -> str:
        return json.dumps(
            {"n": self.n, "d_or_c": self.data.shape[1], "kind": self.kind}
        )


def make_gaussian_mixture(
    n: int, d: int, c: int, separation: float, seed: int
) -> LabeledDataset:
    """i.i.d. mixture with unit covariance and equidistant class means.

    Means sit on a regular simplex scaled so every pairwise distance equals
    `separation`; labels are drawn uniformly. Requires c <= d so the simplex
    embeds isometrically.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if c < 2 or d < 2:
        raise ValueError("need c >= 2 and d >= 2")
    if c > d:
        raise ValueError(f"c={c} class means need c <= d={d} dimensions")
    means = np.zeros((c, d))
    # unit vectors e_i are sqrt(2) apart; rescale to the requested separation
    means[np.arange(c), np.arange(c)] = separation / np.sqrt(2.0)
    rng = substream(seed, "gaussian-mixture")
    labels = rng.integers(0, c, size=n)
    inputs = means[labels] + rng.standard_normal((n, d))
    return LabeledDataset(
        data=inputs, labels=labels, ids=np.arange(n), kind=RAW_INPUTS
    )


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write id,label,logit_0..logit_{c-1} rows; floats use repr (lossless)."""
    width = dataset.data.shape[1]
    prefix = "logit" if dataset.kind == PRECOMPUTED_LOGITS else "x"
    header = "id,label," + ",".join(f"{prefix}_{j}" for j in range(width))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        columns = (dataset.ids, dataset.labels, dataset.data)
        for k in range(0, dataset.n, BLOCK_LINES):  # tolist(): floats with a lossless repr
            for rid, label, row in zip(*(a[k : k + BLOCK_LINES].tolist() for a in columns)):
                fh.write(f"{rid},{label},{','.join(map(repr, row))}\n")


def _load_csv(path, prefix: str, kind: str) -> LabeledDataset:
    with open(path, encoding="utf-8") as fh:
        # the header is checked before the body is read, so probing a file
        # of the other kind costs one line
        first = fh.readline().splitlines()
        if not first:
            raise CsvFormatError(f"{path}: empty file")
        header = first[0].split(",")
        expected = ["id", "label"] + [f"{prefix}_{j}" for j in range(len(header) - 2)]
        if header != expected:
            raise CsvHeaderError(
                f"{path}:1: malformed header {first[0]!r}, expected {','.join(expected)!r}"
            )
        ids, labels, data = _parse_blocks(path, fh, first[1:], len(header) - 2)
    return LabeledDataset(data=data, labels=labels, ids=ids, kind=kind)


def _parse_blocks(path, fh, rest: list, width: int):
    """(ids, labels, data) of the body, BLOCK_LINES lines at a time: `rest`
    (the header line's pieces after the header), then the rest of `fh`.
    These are the lines of str.splitlines over the whole text: universal
    newlines leave only "\\n" between physical lines, and splitting each one
    breaks it at the others (\\v \\f \\x1c-\\x1e \\x85 \\u2028 \\u2029)."""
    lines = chain(rest, (piece for line in fh for piece in line.splitlines()))
    parts, lineno = [], 2
    while block := list(islice(lines, BLOCK_LINES)):
        parts.append(_parse_fast(block, width) or _parse(path, block, width, lineno))
        lineno += len(block)
    if not parts:
        return _parse(path, [], width)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _parse_fast(body: list, width: int):
    """(ids, labels, data) of the body lines from one np.loadtxt call, or
    None when `_parse` must decide: on an empty body, a line with another
    column count (loadtxt's usecols would drop extra cells), a negative
    label, a value that is not finite, or any cell that loadtxt rejects, a
    label of 2^63 or more among them. loadtxt reads a number as float() and
    int() do, and rejects every form they alone accept (1_0, Unicode
    digits), so the lines it accepts read the same on either path."""
    if {line.count(",") for line in body} != {width + 1}:
        return None
    try:
        rows = np.loadtxt(
            body, dtype=[("label", np.int64), ("x", np.float64, (width,))],
            delimiter=",", comments=None, usecols=range(1, width + 2), ndmin=1,
        )
    except ValueError:
        return None
    if np.any(rows["label"] < 0) or not np.all(np.isfinite(rows["x"])):
        return None
    ids = np.array([line[: line.index(",")] for line in body])
    # contiguous copies, as the loop makes: the record array is then freed
    return ids, rows["label"].copy(), rows["x"].copy()


def _parse(path, body: list, width: int, first_lineno: int = 2):
    """(ids, labels, data) of the body lines, cell by cell; the first bad
    line raises with its number, counting the first as `first_lineno`. A
    label must be an int64 class index, in [0, 2^63), and every value
    finite."""
    ids, labels, rows = [], [], []
    for lineno, line in enumerate(body, start=first_lineno):
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
        if not all(map(math.isfinite, rows[-1])):
            cell = next(v for v in cells[2:] if not math.isfinite(float(v)))
            raise CsvFormatError(f"{path}:{lineno}: non-finite cell {cell!r}")
        labels.append(label)
        ids.append(cells[0])
    data = np.array(rows, dtype=float).reshape(len(rows), width)
    return np.array(ids), np.array(labels), data


def load_logits_csv(path) -> LabeledDataset:
    """Parse externally produced logits (header id,label,logit_0..)."""
    return _load_csv(path, "logit", PRECOMPUTED_LOGITS)


def load_inputs_csv(path) -> LabeledDataset:
    """Parse raw input features (header id,label,x_0..)."""
    return _load_csv(path, "x", RAW_INPUTS)
