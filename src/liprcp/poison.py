"""Certificates against calibration-set feature poisoning.

If at most k calibration samples have their inputs moved by at most
epsilon, each of their scores moves by at most delta_score =
`scores.global_shift`, L_n * L_s * epsilon, and the conformal quantile (the
r-th order statistic) can only reach values inside an exactly computable
interval [q_min, q_max]: since the order statistic is coordinate-wise
monotone in each score, the extremal configurations shift the k sorted
scores adjacent to rank r by the full +-delta_score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .conformal import CalibrationRecord, conformal_rank
from .scores import ScoreSpec, check_budget, global_shift


@dataclass(frozen=True)
class PoisonBudget:
    """At most k samples poisoned, each input moved by at most epsilon, for
    a classifier of Lipschitz product L_n and the score of `score_spec`."""

    k: int
    epsilon: float
    lipschitz_product: float = 1.0
    score_spec: ScoreSpec = ScoreSpec()

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        check_budget(self.epsilon)

    @property
    def delta_score(self) -> float:
        return global_shift(self.score_spec, self.epsilon, self.lipschitz_product)


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


def quantile_shift(
    scores,
    alpha: float,
    budget: PoisonBudget,
    clip_range: tuple[float, float] | None = None,
) -> QuantileShiftCertificate:
    """Exact reachable range of the conformal quantile under poisoning.

    ``clip_range`` constrains poisoned scores to an interval (pass (0, 1)
    when scores are probabilities); None leaves shifts unconstrained.

    Raising the k ranks from the target rank r up yields q_max =
    min(s_(r+k), s_(r) + delta); lowering the k ranks up to it yields q_min =
    max(s_(r-k), s_(r) - delta). A counting argument shows no other choice
    of k samples does better, and clipping, being monotone, commutes with
    taking an order statistic.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration scores")
    if budget.k > scores.size:
        raise ValueError(f"k={budget.k} exceeds n={scores.size}")
    rank = conformal_rank(scores.size, alpha)
    s, r = np.sort(scores), rank - 1  # r 0-based
    q_nominal = float(s[r])
    k, delta = budget.k, budget.delta_score
    if k == 0 or delta == 0.0:
        return QuantileShiftCertificate(q_nominal, q_nominal, q_nominal, rank, budget)
    # s_(r+k) and s_(r-k) beyond the ends are +inf and -inf
    q_max = min(s[r + k] if r + k < s.size else np.inf, s[r] + delta)
    q_min = max(s[r - k] if r >= k else -np.inf, s[r] - delta)
    if clip_range is not None:
        q_min, q_max = np.clip([q_min, q_max], *clip_range)
    return QuantileShiftCertificate(float(q_min), float(q_max), q_nominal, rank, budget)


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
    The certificate uses `score_spec` and `lipschitz_product`, the values
    the record states, in place of the budget's own.
    """
    budget = replace(budget, lipschitz_product=lipschitz_product, score_spec=score_spec)
    cert = quantile_shift(scores, alpha, budget, clip_range)
    return CalibrationRecord(
        q_alpha=cert.q_max,
        alpha=alpha,
        n_cal=int(np.asarray(scores).size),
        score_spec=score_spec,
        lipschitz_product=lipschitz_product,
        epsilon_calibrated=budget.epsilon,
    )
