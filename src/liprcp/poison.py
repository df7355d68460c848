"""Certificates against calibration-set feature poisoning.

If at most k calibration samples have their scores moved by at most
delta_score in absolute value, the conformal quantile (the r-th order
statistic) can only reach values inside an exactly computable interval
[q_min, q_max]: since the order statistic is coordinate-wise monotone in
each score, the extremal configurations shift the k sorted scores adjacent
to rank r by the full +-delta_score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conformal import CalibrationRecord, conformal_rank
from .scores import ScoreSpec, check_budget


@dataclass(frozen=True)
class PoisonBudget:
    """At most k samples poisoned, each input moved by at most epsilon."""

    k: int
    epsilon: float
    lipschitz_product: float = 1.0
    score_lipschitz: float = 0.25

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        check_budget(self.epsilon)

    @property
    def delta_score(self) -> float:
        return self.lipschitz_product * self.score_lipschitz * self.epsilon


@dataclass(frozen=True)
class QuantileShiftCertificate:
    q_min: float
    q_max: float
    q_nominal: float
    rank: int
    budget: PoisonBudget

    def to_json(self) -> str:
        return json.dumps(
            {
                "q_min": self.q_min,
                "q_max": self.q_max,
                "q_nominal": self.q_nominal,
                "rank": self.rank,
                "k": self.budget.k,
                "epsilon": self.budget.epsilon,
                "delta_score": self.budget.delta_score,
            },
            indent=2,
        )


def _shifted_order_stat(sorted_scores, rank, k, delta, direction, clip_range):
    """r-th order statistic after the extremal shift of k adjacent ranks.

    Raising the k ranks starting at the target rank yields
    min(s_(r+k), s_(r) + delta); lowering the k ranks ending at it yields
    max(s_(r-k), s_(r) - delta). A counting argument shows no other choice
    of k samples does better. The value is recomputed by re-sorting so
    that clipping is handled exactly.
    """
    n = sorted_scores.size
    scores = sorted_scores.copy()
    r = rank - 1  # 0-based
    if direction > 0:
        scores[r : min(n, r + k)] += delta
    else:
        scores[max(0, r - k + 1) : r + 1] -= delta
    if clip_range is not None:
        scores = np.clip(scores, clip_range[0], clip_range[1])
    return float(np.sort(scores)[r])


def quantile_shift(
    scores,
    alpha: float,
    budget: PoisonBudget,
    clip_range: tuple[float, float] | None = None,
) -> QuantileShiftCertificate:
    """Exact reachable range of the conformal quantile under poisoning.

    ``clip_range`` constrains poisoned scores to an interval (pass (0, 1)
    when scores are probabilities); None leaves shifts unconstrained.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration scores")
    if budget.k > scores.size:
        raise ValueError(f"k={budget.k} exceeds n={scores.size}")
    rank = conformal_rank(scores.size, alpha)
    sorted_scores = np.sort(scores)
    q_nominal = float(sorted_scores[rank - 1])
    k, delta = budget.k, budget.delta_score
    if k == 0 or delta == 0.0:
        return QuantileShiftCertificate(q_nominal, q_nominal, q_nominal, rank, budget)
    q_max = _shifted_order_stat(sorted_scores, rank, k, delta, +1, clip_range)
    q_min = _shifted_order_stat(sorted_scores, rank, k, delta, -1, clip_range)
    return QuantileShiftCertificate(q_min, q_max, q_nominal, rank, budget)


def poison_robust_calibrate(
    scores,
    alpha: float,
    budget: PoisonBudget,
    score_spec: ScoreSpec,
    lipschitz_product: float = 1.0,
    clip_range: tuple[float, float] | None = (0.0, 1.0),
) -> CalibrationRecord:
    """Calibrate at the pessimistic quantile q_max.

    Whatever (k, epsilon)-poisoning was applied to the calibration scores,
    the clean-data quantile cannot exceed q_max, so coverage is preserved.
    """
    cert = quantile_shift(scores, alpha, budget, clip_range)
    return CalibrationRecord(
        q_alpha=cert.q_max,
        alpha=alpha,
        n_cal=int(np.asarray(scores).size),
        score_spec=score_spec,
        lipschitz_product=lipschitz_product,
        epsilon_calibrated=budget.epsilon,
    )
