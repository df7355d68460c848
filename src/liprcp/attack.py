"""l2 projected-gradient attack on toy Lipschitz models.

The attack descends the logit of a chosen class (for the sigmoid score,
the same as climbing its score), with normalized steps, hard projection onto
the epsilon-ball after every step, and best-of-restarts selection. It is the
empirical adversary every certificate in the toolkit is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audit import critical_epsilons
from .conformal import CalibrationRecord, coverage_from_membership, vanilla_membership
from .lipnet import LipschitzClassifier, forward, input_gradient_batch
from .rng import substream
from .scores import score

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

    Maximizing the score means minimizing logits[:, y] and vice versa (for
    softmax a proxy, since the other logits move too). Zero-gradient steps
    keep the iterate. Each restart starts from the clean point or a random
    point in the ball, and a row's result only moves to a restart's end
    point when it strictly improves the objective, so, up to rounding, no
    row ends worse off than at the clean point.

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

    ``logits`` are the clean logits. A covered row is undecided when its
    exit budget is below epsilon (minimize: an uncovered row whose entry is
    at most epsilon); the others are settled (see `coverage_under_attack`).
    The budgets use the model's own Lipschitz product, and
    epsilon * (1 + 1e-6) covers rounding in the forward pass and in layers
    flagged orthogonal, whose norm may exceed 1 by ~1e-8.
    """
    own = replace(cal, lipschitz_product=model.lipschitz_product)
    crit = critical_epsilons(own, score(cal.score_spec, logits, labels))
    eps = cfg.epsilon * (1.0 + 1e-6)
    if cfg.objective == MAXIMIZE_TRUE_SCORE:
        return (crit.exit >= 0) & (crit.exit < eps)
    return (crit.entry > 0) & (crit.entry <= eps)


def coverage_under_attack(
    model: LipschitzClassifier,
    cal: CalibrationRecord,
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
    cfg: AttackConfig,
) -> tuple[float, float]:
    """Coverage and mean size of vanilla sets at attacked points.

    One clean forward pass splits the rows in three with the critical
    budgets (`undecided_rows`). For the maximize objective:

    * certified: the exit budget is >= epsilon, so the label stays covered
      wherever the attack goes;
    * lost: the label is uncovered at the clean point, where PGD starts and
      whose objective it only ever improves on;
    * undecided: all other rows, the only ones that run PGD.

    The minimize objective mirrors this. For the sigmoid score the coverage
    equals that of attacking every row with `pgd_attack_batch`. For softmax
    a lower true logit need not mean a higher score, so attacking a lost
    row can end at a covered point: the pruned coverage can fall below the
    unpruned one (minimize: rise above it), still inside the certified
    band. The mean set size is that of the sets at the inputs the attack
    returns.
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
