"""Non-conformity scores and certified worst-case bounds over l2 balls.

Two score families are supported:

* LAC sigmoid: ``1 - sigmoid((logit_y - b) / T)``.
* LAC softmax: ``1 - softmax(logits / T)_y``.

Both are ``1 - sigmoid((h - offset) / scale)`` of a per-class margin h: the
logit, b and T for sigmoid; ``-(T/2) log sum_{j != y} exp((l_j - l_y) / T)``,
0 and T/2 for softmax. Each margin moves by at most as much as the logits
in l2 (the softmax margin's gradient has l1 norm 1), so every score is
``L_s = 1 / (4 scale)``-Lipschitz in the logits: 1/(4T) for sigmoid, 1/(2T)
for softmax.

For an ``L_n``-Lipschitz classifier and a perturbation budget ``epsilon``,
two bounding methods are provided: the global Lipschitz bound
``score +- L_n * L_s * epsilon`` and a tighter bound that moves every
margin by ``L_n * epsilon``. The tight bound dominates the global one; for
sigmoid it is exact on a single orthogonal affine layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAC_SIGMOID = "lac_sigmoid"
LAC_SOFTMAX = "lac_softmax"

GLOBAL_LIPSCHITZ = "global_lipschitz"
TIGHT_MONOTONE = "tight_monotone"


@dataclass(frozen=True)
class ScoreSpec:
    """Score configuration: family, temperature, and (sigmoid only) bias."""

    kind: str = LAC_SIGMOID
    temperature: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        if self.kind not in (LAC_SIGMOID, LAC_SOFTMAX):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be in (0, inf), got {self.temperature}")
        if not math.isfinite(self.bias) or (self.kind == LAC_SOFTMAX and self.bias != 0):
            raise ValueError(f"bias must be finite, and 0 for {LAC_SOFTMAX}, got {self.bias}")

    @property
    def score_lipschitz(self) -> float:
        """Lipschitz constant of the score w.r.t. the logits in l2:
        1 / (4 scale) of the margin form, 1/(4T) for sigmoid and 1/(2T)
        for softmax."""
        return 1.0 / (4.0 * _margin_form(self)[1])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "temperature": self.temperature,
            "bias": self.bias,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ScoreSpec":
        require_keys(doc, ("kind", "temperature"), "score_spec")
        return ScoreSpec(
            kind=doc["kind"],
            temperature=json_number(doc, "temperature", "score_spec"),
            bias=json_number(doc, "bias", "score_spec") if "bias" in doc else 0.0,
        )


def require_keys(doc, keys, what: str):
    """Return the parsed JSON value `doc` if it is an object with every key.

    Otherwise raise ValueError naming `what` and the first missing key, so
    a malformed file fails as a ValueError, not as a KeyError or TypeError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} is missing key {key!r}")
    return doc


def json_number(doc: dict, key: str, what: str, kind: type = float):
    """doc[key], a JSON number, as `kind` (float, or int for a JSON integer).

    A boolean, a string, null or any other value raises ValueError naming
    `what` and the key, as does an integer too large for a float.
    """
    value = doc[key]
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        name = "an integer" if kind is int else "a number"
        raise ValueError(f"{what}: {key!r} must be {name}, got {type(value).__name__}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ValueError(f"{what}: {key!r} is out of range ({exc})") from exc


def check_budget(epsilon: float) -> None:
    """Raise ValueError unless the perturbation budget is in [0, inf)."""
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the float array `z`, written over `z`."""
    z -= np.max(z, axis=-1, keepdims=True)
    z /= np.sum(np.exp(z, out=z), axis=-1, keepdims=True)
    return z


def _margin_form(spec: ScoreSpec) -> tuple[float, float]:
    """(offset, scale) with score = 1 - sigmoid((margin - offset) / scale)."""
    if spec.kind == LAC_SIGMOID:
        return spec.bias, spec.temperature
    return 0.0, spec.temperature / 2.0


def _margins(spec: ScoreSpec, lg: np.ndarray, y=None) -> np.ndarray:
    """Margins of the (n, c) logits: every class's, or, given labels y,
    label y's alone as an (n, 1) column. Both run the same operations, so a
    label's margin equals its entry of the full matrix bit for bit.

    Sigmoid margins are the logits. For softmax, h_k = -(T/2) log A_k with
    A_k = sum_{j != k} exp((l_j - l_k) / T). With m1 the top logit and m2
    the runner-up, e_j = exp((l_j - m2) / T) for j != top and 0 at top, so
    e_j <= 1 <= r = sum e_j; then, free of cancellation, A_top = exp((m2 -
    m1) / T) r and A_k = exp((m1 - l_k) / T) (1 + exp((m2 - m1) / T) (r -
    e_k)). Logits are differenced before dividing by T, so large logits
    keep their digits.
    """
    n, c = lg.shape
    cols = np.arange(c) if y is None else np.reshape(y, (-1, 1))

    def pick(a):
        return a if y is None else a[np.arange(n)[:, None], cols]

    if spec.kind == LAC_SIGMOID:
        return pick(lg)
    if c == 1:  # no other class: A = 0, the score is 0
        return np.full(pick(lg).shape, np.inf)
    t = spec.temperature
    rows, top = np.arange(n), np.argmax(lg, axis=1)
    m1 = lg[rows, top]
    e = lg.copy()
    e[rows, top] = -np.inf
    m2 = e.max(axis=1)
    # in place: the margins of one label then hold a single (n, c) array
    e -= m2[:, None]
    e /= t
    np.exp(e, out=e)
    r = e.sum(axis=1)[:, None]
    e = pick(e)
    m1, m2 = m1[:, None], m2[:, None]
    rest = np.exp((m2 - m1) / t) * (r - e)
    h = (pick(lg) - m1) / 2 - t / 2 * np.log1p(rest)
    np.copyto(h, (m1 - m2) / 2 - t / 2 * np.log(r), where=cols % c == top[:, None])
    return h


def _scores(spec: ScoreSpec, logits, shift: float = 0.0, y=None):
    """Scores of every class of the logits, (c,) or batched (n, c), each
    margin moved by `shift`; given labels y, label y's score alone, a float
    for (c,) logits. Over a ball that moves each logit by at most r, the
    lowest scores are those at shift +r and the highest those at -r."""
    logits = np.asarray(logits, dtype=float)
    offset, scale = _margin_form(spec)
    h = _margins(spec, logits.reshape(-1, logits.shape[-1]), y)
    s = 1.0 - _sigmoid((h + shift - offset) / scale)
    if y is None:
        return s.reshape(logits.shape)
    return float(s[0, 0]) if logits.ndim == 1 else s.ravel()


def global_shift(spec: ScoreSpec, epsilon: float, lipschitz_product: float) -> float:
    """L_n * L_s * epsilon: how far any score moves over the epsilon-ball of
    an L_n-Lipschitz classifier. The global bound, the shifted calibration
    and the poisoning certificate all move scores by it."""
    return (lipschitz_product * spec.score_lipschitz) * epsilon


def margin_gap(spec: ScoreSpec, s, t):
    """How far the margin of score s lies above that of score t:
    scale * log((1 - s) t / (s (1 - t))), the offset cancelled.

    Taken as log1p((t - s) / (s (1 - t))) with s the smaller score, it is
    good to a few ulps relative however close s and t are. Scores are
    clipped to [0, 1], and a nonzero smaller one to at least 2^-900, which
    keeps the ratio finite and only shrinks the gap: +inf at s = 0 or t = 1,
    -inf at s = 1 or t = 0, nan at s = t = 0 or 1.
    """
    _, scale = _margin_form(spec)
    s, t = np.clip(s, 0.0, 1.0), np.clip(t, 0.0, 1.0)
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    lo = np.where(lo > 0.0, np.maximum(lo, 2.0**-900), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = scale * np.log1p((hi - lo) / (lo * (1.0 - hi)))
    return np.where(s <= t, gap, -gap)


def score_all(spec: ScoreSpec, logits: np.ndarray) -> np.ndarray:
    """Scores of every class; logits may be (c,) or batched (n, c)."""
    return _scores(spec, logits)


def score(spec: ScoreSpec, logits: np.ndarray, y) -> float | np.ndarray:
    """Non-conformity score of label y; vectorized over a logits batch.

    Only label y's margin is computed, so a batch costs O(n) beyond the
    logits: none for sigmoid, whose margins are the logits, and one (n, c)
    array of exponentials for softmax. Equal, bit for bit, to
    ``score_all(spec, logits)[rows, y]``. A label outside [0, c) raises
    ValueError.
    """
    c = np.shape(logits)[-1]
    ys = np.asarray(y)
    outside = ys.astype(np.uint64) >= c  # one comparison: negatives wrap above c
    if outside.any():
        raise ValueError(f"label {ys[outside].flat[0]} names no class of {c}")
    return _scores(spec, logits, y=y)


def lower_bound_all(
    spec: ScoreSpec,
    logits: np.ndarray,
    epsilon: float,
    lipschitz_product: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Certified lower bounds of every class score over the epsilon-ball."""
    return _ball_bound(spec, logits, epsilon, lipschitz_product, method, 1.0)


def upper_bound_all(
    spec: ScoreSpec,
    logits: np.ndarray,
    epsilon: float,
    lipschitz_product: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Certified upper bounds of every class score over the epsilon-ball."""
    return _ball_bound(spec, logits, epsilon, lipschitz_product, method, -1.0)


def _ball_bound(spec, logits, epsilon, lipschitz_product, method, sign):
    """The lower (sign 1) or upper (sign -1) bound of `method`."""
    check_budget(epsilon)
    if method == TIGHT_MONOTONE:
        return _scores(spec, logits, sign * lipschitz_product * epsilon)
    if method != GLOBAL_LIPSCHITZ:
        raise ValueError(f"unknown bound method {method!r}")
    shift = sign * global_shift(spec, epsilon, lipschitz_product)
    return np.clip(_scores(spec, logits) - shift, 0.0, 1.0)
