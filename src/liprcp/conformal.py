"""Vanilla split conformal prediction: quantile, sets, coverage."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .scores import ScoreSpec, json_number, require_keys, score_all


class InvalidRiskError(ValueError):
    """alpha below 1/(n+1): the conformal quantile is undefined."""


@dataclass(frozen=True)
class CalibrationRecord:
    """Portable artifact of a calibration run.

    ``epsilon_calibrated`` is 0 for vanilla calibration and the certified
    perturbation budget for robust (shifted) calibration.
    """

    q_alpha: float
    alpha: float
    n_cal: int
    score_spec: ScoreSpec
    lipschitz_product: float
    epsilon_calibrated: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "q_alpha": self.q_alpha,
                "alpha": self.alpha,
                "n_cal": self.n_cal,
                "epsilon_calibrated": self.epsilon_calibrated,
                "lipschitz_product": self.lipschitz_product,
                "score_spec": self.score_spec.to_dict(),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "CalibrationRecord":
        """Parse a record; a malformed document raises ValueError."""
        keys = ("q_alpha", "alpha", "n_cal", "score_spec", "lipschitz_product",
                "epsilon_calibrated")
        what = "calibration record"
        doc = require_keys(json.loads(text), keys, what)
        record = CalibrationRecord(
            q_alpha=json_number(doc, "q_alpha", what),
            alpha=json_number(doc, "alpha", what),
            n_cal=json_number(doc, "n_cal", what, int),
            score_spec=ScoreSpec.from_dict(doc["score_spec"]),
            lipschitz_product=json_number(doc, "lipschitz_product", what),
            epsilon_calibrated=json_number(doc, "epsilon_calibrated", what),
        )
        # every certificate scales its budget by the product, so a product
        # that is not a positive finite number would silently invert them
        if not (0.0 < record.lipschitz_product < math.inf):
            raise ValueError(
                "calibration record: 'lipschitz_product' must be positive and finite,"
                f" got {record.lipschitz_product}"
            )
        if not math.isfinite(record.q_alpha):  # a NaN threshold empties every set
            raise ValueError(f"calibration record: 'q_alpha' must be finite, got {record.q_alpha}")
        return record


def conformal_rank(n: int, alpha: float) -> int:
    """1-based calibration rank ceil((n + 1) (1 - alpha))."""
    if not (alpha < 1.0):
        raise InvalidRiskError(f"alpha must be < 1, got {alpha}")
    if alpha < 1.0 / (n + 1):
        raise InvalidRiskError(
            f"alpha={alpha} below 1/(n+1)={1.0 / (n + 1)}: quantile undefined"
        )
    return math.ceil((n + 1) * (1.0 - alpha))


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest calibration score."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration scores")
    rank = conformal_rank(scores.size, alpha)
    return float(np.sort(scores)[rank - 1])


def calibrate(
    cal_scores,
    alpha: float,
    score_spec: ScoreSpec,
    lipschitz_product: float = 1.0,
) -> CalibrationRecord:
    """Vanilla calibration: wrap the conformal quantile in a record."""
    scores = np.asarray(cal_scores, dtype=float)
    return CalibrationRecord(
        q_alpha=conformal_quantile(scores, alpha),
        alpha=alpha,
        n_cal=int(scores.size),
        score_spec=score_spec,
        lipschitz_product=lipschitz_product,
        epsilon_calibrated=0.0,
    )


def vanilla_membership(cal: CalibrationRecord, logits: np.ndarray) -> np.ndarray:
    """Boolean membership matrix (n, c): score(y) <= q_alpha."""
    return score_all(cal.score_spec, np.atleast_2d(logits)) <= cal.q_alpha


def coverage_from_membership(membership: np.ndarray, labels) -> float:
    """Fraction of rows whose true label is in their set."""
    labels = np.asarray(labels)
    return float(np.mean(membership[np.arange(labels.size), labels]))
