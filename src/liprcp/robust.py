"""Robust (conservative) and restrictive prediction sets, plus the unified
robust calibration that folds the certified score shift into the quantile.

The canonical path is "vanilla threshold + bounded scores": a label enters
the conservative set when its certified lower score bound is below q_alpha,
and the restrictive set when its certified upper bound is. The shifted-
quantile path (`robust_calibrate`, the calibration-time shift of RSCP) is
`calibrate` on scores raised by L_n * L_s * epsilon, for either score
family. It is equivalent to the global method by translation equivariance
of rank statistics and exists to make that equivalence checkable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .conformal import CalibrationRecord, calibrate
from .scores import (TIGHT_MONOTONE, ScoreSpec, check_budget, global_shift,
                     lower_bound_all, upper_bound_all)


def conservative_membership(
    cal: CalibrationRecord,
    logits: np.ndarray,
    epsilon: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Membership matrix of the conservative set: lower bound <= q_alpha."""
    lower = lower_bound_all(
        cal.score_spec, np.atleast_2d(logits), epsilon, cal.lipschitz_product, method
    )
    return lower <= cal.q_alpha


def restrictive_membership(
    cal: CalibrationRecord,
    logits: np.ndarray,
    epsilon: float,
    method: str = TIGHT_MONOTONE,
) -> np.ndarray:
    """Membership matrix of the restrictive set: upper bound <= q_alpha."""
    upper = upper_bound_all(
        cal.score_spec, np.atleast_2d(logits), epsilon, cal.lipschitz_product, method
    )
    return upper <= cal.q_alpha


def robust_calibrate(
    cal_scores,
    alpha: float,
    epsilon: float,
    score_spec: ScoreSpec,
    lipschitz_product: float = 1.0,
) -> CalibrationRecord:
    """Shifted calibration: quantile of scores raised by L_n * L_s * epsilon.

    Testing vanilla scores against the shifted quantile gives exactly the
    same sets as testing globally lower-bounded scores against the vanilla
    quantile.
    """
    check_budget(epsilon)
    shift = global_shift(score_spec, epsilon, lipschitz_product)
    scores = np.asarray(cal_scores, dtype=float) + shift
    record = calibrate(scores, alpha, score_spec, lipschitz_product)
    return replace(record, epsilon_calibrated=epsilon)
