"""l2 projected-gradient attack on toy Lipschitz models.

The attack climbs the non-conformity score of a chosen class (equivalently,
descends its logit, since every supported score is strictly decreasing in
the target logit), with normalized steps, hard projection onto the
epsilon-ball after every step, and best-of-restarts selection. It is the
empirical adversary every certificate in the toolkit is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import CalibrationRecord, coverage_from_membership, vanilla_membership
from .lipnet import LipschitzClassifier, forward, input_gradient_batch
from .rng import substream
from .scores import lower_bound_all, upper_bound_all

MAXIMIZE_TRUE_SCORE = "maximize_true_score"
MINIMIZE_TRUE_SCORE = "minimize_true_score"


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    steps: int = 40
    step_size: float | None = None  # defaults to epsilon / 4
    restarts: int = 3
    seed: int = 0
    objective: str = MAXIMIZE_TRUE_SCORE

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.objective not in (MAXIMIZE_TRUE_SCORE, MINIMIZE_TRUE_SCORE):
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def effective_step(self) -> float:
        return self.step_size if self.step_size is not None else self.epsilon / 4.0


def _project_ball(delta: np.ndarray, epsilon: float) -> np.ndarray:
    norms = np.linalg.norm(delta, axis=-1, keepdims=True)
    scale = np.minimum(1.0, epsilon / np.maximum(norms, 1e-300))
    return delta * scale


def _pgd_step(model, x, y, delta, signed_step, epsilon) -> np.ndarray:
    """One normalized gradient step on the true logit, projected to the ball.

    A function of its own so that its full-size temporaries are freed
    before the caller's next allocation.
    """
    grad = input_gradient_batch(model, x + delta, y)
    norms = np.linalg.norm(grad, axis=-1, keepdims=True)
    direction = np.where(norms > 0, grad / np.maximum(norms, 1e-300), 0.0)
    return _project_ball(delta + signed_step * direction, epsilon)


def pgd_attack_batch(
    model: LipschitzClassifier,
    x: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Attack a batch of inputs; returns perturbed inputs within the ball.

    Since the score is a strictly monotone decreasing function of the true
    logit, maximizing the score means minimizing logits[:, y] and vice
    versa. Zero-gradient steps keep the iterate. Each restart starts from
    the clean point or a random point in the ball, and a row's result only
    moves to a restart's end point when it strictly improves the objective,
    so, up to rounding, no row ends worse off than at the clean point.

    ``mask`` (boolean, one entry per row) limits the attack to the rows it
    selects; the other rows come back unperturbed. The restart noise is
    still drawn for the whole batch and then indexed, so an attacked row
    sees the same random draws as in an unmasked run. Without a mask every
    row is attacked; that is the unpruned reference path.
    `coverage_under_attack` masks out the rows whose outcome is settled:
    certified rows, whose score bound keeps the label in the set over the
    whole ball, and rows lost at the clean point, which by the property
    above stay lost (for the minimize objective, the mirror images).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_1d(y)
    if mask is None:
        rows = slice(None)
    else:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (x.shape[0],):
            raise ValueError("mask must be a boolean array with one entry per row")
        rows = np.flatnonzero(mask)
    ys = y[rows]
    if cfg.epsilon == 0.0 or cfg.steps == 0 or ys.size == 0:
        return x.copy()
    # x[rows] is gathered afresh where needed rather than kept as a copy,
    # so a masked attack holds no more full-size arrays than an unmasked one
    sign = -1.0 if cfg.objective == MAXIMIZE_TRUE_SCORE else 1.0
    rng = substream(cfg.seed, "pgd-restarts")
    step = cfg.effective_step
    best_delta = np.zeros((ys.size, x.shape[1]))
    best_logit = forward(model, x[rows])[np.arange(ys.size), ys]
    for restart in range(max(1, cfg.restarts)):
        if restart == 0:
            delta = np.zeros_like(best_delta)
        else:
            delta = _project_ball(
                rng.standard_normal(x.shape)[rows] * cfg.epsilon, cfg.epsilon
            )
        for _ in range(cfg.steps):
            delta = _pgd_step(model, x[rows], ys, delta, sign * step, cfg.epsilon)
        logit = forward(model, x[rows] + delta)[np.arange(ys.size), ys]
        better = sign * logit > sign * best_logit
        best_delta[better] = delta[better]
        best_logit[better] = logit[better]
    out = x.copy()
    out[rows] += _project_ball(best_delta, cfg.epsilon)
    return out


def undecided_rows(
    model: LipschitzClassifier,
    cal: CalibrationRecord,
    logits: np.ndarray,
    labels: np.ndarray,
    cfg: AttackConfig,
) -> np.ndarray:
    """Rows whose coverage the certificate leaves open under `cfg`'s attack.

    ``logits`` are the clean logits. Every other row keeps its clean-point
    coverage anywhere in the epsilon-ball (see `coverage_under_attack`).
    The bounds use the attacked model's own Lipschitz product, applied at
    epsilon * (1 + 1e-6) so that rounding cannot settle a row the attack
    could flip: in the forward pass, and in layers flagged orthogonal, which
    count as exactly 1 though their norm may exceed it by ~1e-8.
    """
    labels = np.asarray(labels)
    idx = np.arange(labels.size)
    covered = vanilla_membership(cal, logits)[idx, labels]
    eps = cfg.epsilon * (1.0 + 1e-6)
    ln = model.lipschitz_product
    if cfg.objective == MAXIMIZE_TRUE_SCORE:
        worst = upper_bound_all(cal.score_spec, logits, eps, ln)[idx, labels]
        return covered & (worst > cal.q_alpha)
    best = lower_bound_all(cal.score_spec, logits, eps, ln)[idx, labels]
    return ~covered & (best <= cal.q_alpha)


def coverage_under_attack(
    model: LipschitzClassifier,
    cal: CalibrationRecord,
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
    cfg: AttackConfig,
) -> tuple[float, float]:
    """Coverage and mean size of vanilla sets at attacked points.

    One clean forward pass splits the rows in three with the tight score
    bounds. For the maximize objective:

    * certified: the true label's upper score bound over the ball is
      <= q_alpha, so the label stays covered wherever the attack goes;
    * lost: the label is uncovered at the clean point, and stays so because
      PGD starts there and keeps the best score it has seen;
    * undecided: all other rows.

    The minimize objective mirrors this: rows covered at the clean point
    stay covered, and rows whose label is outside the conservative set
    (lower score bound > q_alpha) stay uncovered. Only undecided rows run
    PGD; the others are evaluated at their clean point, so the coverage
    equals that of attacking every row with `pgd_attack_batch`. The mean
    set size is that of the sets at the inputs the attack returns.
    """
    x = np.atleast_2d(test_inputs)
    labels = np.atleast_1d(test_labels)
    undecided = undecided_rows(model, cal, forward(model, x), labels, cfg)
    attacked = pgd_attack_batch(model, x, labels, cfg, mask=undecided)
    membership = vanilla_membership(cal, forward(model, attacked))
    return (
        coverage_from_membership(membership, labels),
        float(membership.sum(axis=1).mean()),
    )
