"""Non-conformity scores and certified worst-case bounds over l2 balls.

Two score families are supported:

* LAC sigmoid: ``1 - sigmoid((logit_y - b) / T)``, whose Lipschitz constant
  w.r.t. the target logit is ``1 / (4 T)``.
* LAC softmax: ``1 - softmax(logits / T)_y``.

For an ``L_n``-Lipschitz classifier and a perturbation budget ``epsilon``,
two bounding methods are provided: the global Lipschitz bound
``score +- L_n * L_s * epsilon`` (sigmoid only, since no global logit-space
constant is available for the softmax score) and a tighter bound that
pushes the logits to the worst corner of the reachable box and re-evaluates
the score there. The tight bound dominates the global one and is exact for
single affine models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LAC_SIGMOID = "lac_sigmoid"
LAC_SOFTMAX = "lac_softmax"

GLOBAL_LIPSCHITZ = "global_lipschitz"
TIGHT_MONOTONE = "tight_monotone"


class UnsupportedMethodError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreSpec:
    """Score configuration: family, temperature, and (sigmoid only) bias."""

    kind: str = LAC_SIGMOID
    temperature: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        if self.kind not in (LAC_SIGMOID, LAC_SOFTMAX):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def score_lipschitz(self) -> float:
        """Lipschitz constant of the score w.r.t. the target logit.

        Only defined for the sigmoid family: 1 / (4 T).
        """
        if self.kind != LAC_SIGMOID:
            raise UnsupportedMethodError(
                "no global Lipschitz constant is available for the softmax "
                "score; use the tight_monotone bound"
            )
        return 1.0 / (4.0 * self.temperature)

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
            temperature=float(doc["temperature"]),
            bias=float(doc.get("bias", 0.0)),
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


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _softmax(z):
    z = np.asarray(z, dtype=float)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def score_all(spec: ScoreSpec, logits: np.ndarray) -> np.ndarray:
    """Scores of every class; logits may be (c,) or batched (n, c)."""
    logits = np.asarray(logits, dtype=float)
    if spec.kind == LAC_SIGMOID:
        return 1.0 - _sigmoid((logits - spec.bias) / spec.temperature)
    return 1.0 - _softmax(logits / spec.temperature)


def score(spec: ScoreSpec, logits: np.ndarray, y) -> float | np.ndarray:
    """Non-conformity score of label y; vectorized over a logits batch."""
    logits = np.asarray(logits, dtype=float)
    all_scores = score_all(spec, logits)
    if logits.ndim == 1:
        return float(all_scores[y])
    return all_scores[np.arange(logits.shape[0]), np.asarray(y)]


def lower_bound_all(
    spec: ScoreSpec,
    logits: np.ndarray,
    epsilon: float,
    lipschitz_product: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Certified lower bounds of every class score over the epsilon-ball."""
    _check_args(spec, epsilon, method)
    logits = np.asarray(logits, dtype=float)
    shift = lipschitz_product * epsilon
    if method == GLOBAL_LIPSCHITZ:
        s = score_all(spec, logits)
        return np.clip(s - spec.score_lipschitz * shift, 0.0, 1.0)
    if spec.kind == LAC_SIGMOID:
        # score decreases in the target logit: worst (lowest) at logit + shift
        return 1.0 - _sigmoid((logits + shift - spec.bias) / spec.temperature)
    return _softmax_corner_scores(spec, logits, shift, lower=True)


def upper_bound_all(
    spec: ScoreSpec,
    logits: np.ndarray,
    epsilon: float,
    lipschitz_product: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Certified upper bounds of every class score over the epsilon-ball."""
    _check_args(spec, epsilon, method)
    logits = np.asarray(logits, dtype=float)
    shift = lipschitz_product * epsilon
    if method == GLOBAL_LIPSCHITZ:
        s = score_all(spec, logits)
        return np.clip(s + spec.score_lipschitz * shift, 0.0, 1.0)
    if spec.kind == LAC_SIGMOID:
        return 1.0 - _sigmoid((logits - shift - spec.bias) / spec.temperature)
    return _softmax_corner_scores(spec, logits, shift, lower=False)


def _softmax_corner_scores(
    spec: ScoreSpec, logits: np.ndarray, shift: float, lower: bool
) -> np.ndarray:
    """Per-class corner bounds for the softmax score.

    The softmax in class y is monotone increasing in logit y and decreasing
    in every other logit, so its extremum over the box [l - shift, l + shift]
    sits at the corner where logit y moves one way and all others the
    opposite way.
    """
    logits = np.asarray(logits, dtype=float)
    batched = logits.ndim == 2
    l2 = logits if batched else logits[None, :]
    n, c = l2.shape
    sign = 1.0 if lower else -1.0
    # corner logits for target y: all classes shifted by -sign*shift except
    # y shifted by +sign*shift
    corner = np.tile((l2[:, None, :] - sign * shift) / spec.temperature, (1, c, 1))
    idx = np.arange(c)
    corner[:, idx, idx] = (l2 + sign * shift) / spec.temperature
    probs = _softmax(corner)  # (n, c, c); row y is the corner for target y
    out = 1.0 - probs[:, idx, idx]
    return out if batched else out[0]


def _check_args(spec: ScoreSpec, epsilon: float, method: str) -> None:
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if method not in (GLOBAL_LIPSCHITZ, TIGHT_MONOTONE):
        raise ValueError(f"unknown bound method {method!r}")
    if method == GLOBAL_LIPSCHITZ and spec.kind != LAC_SIGMOID:
        raise UnsupportedMethodError(
            "global Lipschitz bound is only defined for the sigmoid score; "
            "use the tight_monotone bound for softmax"
        )


def sigmoid_inverse_threshold(spec: ScoreSpec, q: float) -> float:
    """The unique logit whose sigmoid score equals q: b + T * logit(1 - q)."""
    if spec.kind != LAC_SIGMOID:
        raise UnsupportedMethodError("threshold inversion needs a sigmoid score")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return spec.bias + spec.temperature * float(np.log((1.0 - q) / q))
