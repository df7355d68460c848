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
from .lipnet import LipschitzClassifier, Trace, forward, input_gradient_batch
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


# rows per PGD block: a block's trace and work arrays stay cache-resident
PGD_BLOCK_ROWS = 1024


def _row_norms(a: np.ndarray, squares: np.ndarray, out: np.ndarray) -> None:
    """l2 norm of each row of `a` into `out`, as np.linalg.norm(a, axis=-1).

    `squares` is a work array of a's shape.
    """
    np.multiply(a, a, out=squares)
    np.add.reduce(squares, axis=-1, out=out)
    np.sqrt(out, out=out)


def _project_ball(
    delta: np.ndarray, epsilon: float, squares: np.ndarray, norms: np.ndarray
) -> None:
    """Scale, in place, each row of `delta` longer than `epsilon` onto the ball.

    `squares` and `norms` are work arrays of delta's shape and row count.
    """
    _row_norms(delta, squares, norms)
    np.maximum(norms, 1e-300, out=norms)
    np.divide(epsilon, norms, out=norms)
    np.minimum(1.0, norms, out=norms)
    delta *= norms[:, None]


def _blocks(n: int) -> list[tuple[int, int]]:
    """Split n rows into ceil(n / PGD_BLOCK_ROWS) blocks of near-equal size."""
    count = -(-n // PGD_BLOCK_ROWS)
    bounds = [k * n // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def pgd_attack_batch(
    model: LipschitzClassifier,
    x: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Attack a batch of inputs; returns perturbed inputs within the ball.

    Maximizing the score means minimizing logits[:, y] and vice versa (for
    softmax a proxy, since the other logits move too). Each step moves the
    perturbation by the step size along the normalized gradient of the
    true logit and projects it back onto the ball; zero-gradient steps keep
    the iterate. Each restart starts from the clean point or a random
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

    Within a restart the attacked rows run in blocks of at most
    `PGD_BLOCK_ROWS`, each through all its steps in one preallocated
    `lipnet.Trace`. Every row's arithmetic is independent of the others',
    so the result does not depend on the block size.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_1d(y)
    if mask is None:
        rows = np.arange(x.shape[0])
    else:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (x.shape[0],):
            raise ValueError("mask must be a boolean array with one entry per row")
        rows = np.flatnonzero(mask)
    ys = y[rows]
    if cfg.epsilon == 0.0 or cfg.steps == 0 or ys.size == 0:
        return x.copy()
    eps = cfg.epsilon
    sign = -1.0 if cfg.objective == MAXIMIZE_TRUE_SCORE else 1.0
    signed_step = sign * cfg.effective_step
    rng = substream(cfg.seed, "pgd-restarts")
    blocks = _blocks(ys.size)
    width = max(stop - start for start, stop in blocks)
    trace = Trace(model, width)
    delta_buf, inputs_buf, squares_buf = (np.empty((width, x.shape[1])) for _ in range(3))
    norms_buf = np.empty(width)
    best_delta = np.zeros((ys.size, x.shape[1]))
    best_logit = np.empty(ys.size)
    for restart in range(max(1, cfg.restarts)):
        noise = None if restart == 0 else rng.standard_normal(x.shape)
        for start, stop in blocks:
            m = stop - start
            xb, yb, picked = x[rows[start:stop]], ys[start:stop], np.arange(m)
            delta, inputs = delta_buf[:m], inputs_buf[:m]
            squares, norms = squares_buf[:m], norms_buf[:m]
            if noise is None:
                delta.fill(0.0)
                best_logit[start:stop] = trace.forward(xb)[picked, yb]
            else:
                np.multiply(noise[rows[start:stop]], eps, out=delta)
                _project_ball(delta, eps, squares, norms)
            for _ in range(cfg.steps):
                np.add(xb, delta, out=inputs)
                grad = input_gradient_batch(model, inputs, yb, trace)
                # the step direction is grad / |grad|, or 0 where |grad| is
                # not positive
                _row_norms(grad, squares, norms)
                flat = ~(norms > 0)
                np.maximum(norms, 1e-300, out=norms)
                grad /= norms[:, None]
                if flat.any():
                    grad[flat] = 0.0
                grad *= signed_step
                delta += grad
                _project_ball(delta, eps, squares, norms)
            np.add(xb, delta, out=inputs)
            logit = trace.forward(inputs)[picked, yb]
            better = sign * logit > sign * best_logit[start:stop]
            best_delta[start:stop][better] = delta[better]
            best_logit[start:stop][better] = logit[better]
        noise = None  # freed before the next restart draws its own
    out = x.copy()
    for start, stop in blocks:
        m = stop - start
        chosen = best_delta[start:stop]
        _project_ball(chosen, eps, squares_buf[:m], norms_buf[:m])
        out[rows[start:stop]] += chosen
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
