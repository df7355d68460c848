"""l2 projected-gradient attack on toy Lipschitz models.

The attack descends the true class's logit (for the sigmoid score, the
same as climbing its score), with normalized steps, hard projection onto
the epsilon-ball after every step, and best-of-restarts selection. It is the
empirical adversary every certificate in the toolkit is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audit import critical_epsilons
from .conformal import CalibrationRecord, coverage_from_membership, vanilla_membership
from .lipnet import (
    BLOCK_ROWS,
    LipschitzClassifier,
    Trace,
    forward,
    input_gradient_batch,
    row_blocks,
)
from .rng import substream
from .scores import check_budget, score


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    steps: int = 40
    step_size: float | None = None  # defaults to epsilon / 4
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        check_budget(self.epsilon)
        if self.steps < 0:
            raise ValueError(f"attack steps must be nonnegative, got {self.steps}")
        if self.restarts < 1:
            raise ValueError(f"attack restarts must be at least 1, got {self.restarts}")
        # a negative step would climb the wrong way
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError(f"attack step size must be positive, got {self.step_size}")

    @property
    def effective_step(self) -> float:
        return self.step_size if self.step_size is not None else self.epsilon / 4.0


def _project_ball(delta: np.ndarray, epsilon: float) -> np.ndarray:
    """`delta` with each row longer than `epsilon` scaled onto the ball."""
    norms = np.linalg.norm(delta, axis=-1, keepdims=True)
    return delta * np.minimum(1.0, epsilon / np.maximum(norms, 1e-300))


def pgd_attack_batch(
    model: LipschitzClassifier,
    x: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
    mask: np.ndarray | None = None,
    cal: CalibrationRecord | None = None,
) -> np.ndarray:
    """Attack a batch of inputs; returns perturbed inputs within the ball.

    The attack raises the true label's score by lowering logits[:, y] (for
    softmax a proxy, since the other logits move too). Each step moves the
    perturbation by the step size against the normalized gradient of the
    true logit and projects it back onto the ball; zero-gradient steps keep
    the iterate. Each restart starts from the clean point or a random
    point in the ball, and a row's result only moves to a restart's end
    point when its true logit is strictly lower there, so, up to rounding,
    no row ends with a higher true logit than at the clean point.

    With a calibration record ``cal`` the attack stops each row at its
    first flip: at every iterate it tests the true label with
    `vanilla_membership`'s rule, ``score <= q_alpha``, on the logits the
    gradient pass computed there. A row stops once its label has left the
    set, and its result is that iterate, exactly as tested. Later restarts
    attack only the rows no restart has flipped. A row that never stops runs
    and ends as without a record, so every row the record-less attack flips
    is flipped here too, at that point or earlier.

    ``mask`` (boolean, one entry per row) limits the attack to the rows it
    selects; the other rows come back unperturbed. The restart noise is
    still drawn for the whole batch and then indexed, so an attacked row
    sees the same random draws as in an unmasked run. Without a mask every
    row is attacked; that is the unpruned reference path.
    `coverage_under_attack` masks out the rows whose outcome is settled:
    certified rows, whose score bound keeps the label in the set over the
    whole ball, and rows lost at the clean point, which by the property
    above stay lost.

    Within a restart the attacked rows run in blocks of at most
    `lipnet.BLOCK_ROWS`, each through all its steps in one `lipnet.Trace`
    sized for restart 0's widest block; a step is plain array arithmetic on the
    block's rows, and stopped rows leave it by boolean indexing. Every row's
    arithmetic is independent of the others', so the result does not depend
    on the block size, as far as BLAS rounds each row of a product the same
    at any row count. OpenBLAS may not for a product of few rows (a single
    row goes through its matrix-vector path), which a block shrinks to once
    most of its rows have stopped.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_1d(y)
    mask = np.ones(x.shape[0], dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != bool or mask.shape != (x.shape[0],):
        raise ValueError("mask must be a boolean array with one entry per row")
    rows = np.flatnonzero(mask)
    ys = y[rows]
    if cfg.epsilon == 0.0 or cfg.steps == 0 or ys.size == 0:
        return x.copy()
    eps = cfg.epsilon
    rng = substream(cfg.seed, "pgd-restarts")
    # later restarts, over fewer rows, use blocks no wider than restart 0's
    width = max(end - start for start, end in row_blocks(ys.size, BLOCK_ROWS))
    trace = Trace(model, width)
    best_delta = np.zeros((ys.size, x.shape[1]))
    best_logit, stopped = np.empty(ys.size), np.zeros(ys.size, dtype=bool)

    def drop_stopped(
        slots: np.ndarray, yb: np.ndarray, delta: np.ndarray, *more: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Stop the block's rows whose label flipped at the last pass's logits,
        their deltas becoming their results; returns the arrays without them."""
        if cal is None:
            return (slots, yb, delta, *more)
        # a NaN score counts as flipped, as it leaves the vanilla set
        flipped = ~(score(cal.score_spec, trace.logits[: slots.size], yb) <= cal.q_alpha)
        best_delta[slots[flipped]] = delta[flipped]
        stopped[slots[flipped]] = True
        return tuple(a[~flipped] for a in (slots, yb, delta, *more))

    for restart in range(cfg.restarts):
        live = np.flatnonzero(~stopped)
        if live.size == 0:
            break
        noise = None if restart == 0 else rng.standard_normal(x.shape)
        for start, end in row_blocks(live.size, width):
            # each block row's position in ys, its input and its label
            slots = live[start:end]
            xb, yb = x[rows[slots]], ys[slots]
            if noise is None:
                delta = np.zeros_like(xb)
                best_logit[slots] = trace.forward(xb)[np.arange(slots.size), yb]
            else:
                delta = _project_ball(noise[rows[slots]] * eps, eps)
            for _ in range(cfg.steps):
                grad = input_gradient_batch(model, xb + delta, yb, trace)
                slots, yb, delta, xb, grad = drop_stopped(slots, yb, delta, xb, grad)
                if slots.size == 0:
                    break
                norms = np.linalg.norm(grad, axis=-1, keepdims=True)
                direction = np.where(norms > 0, grad / np.maximum(norms, 1e-300), 0.0)
                delta = _project_ball(delta - cfg.effective_step * direction, eps)
            slots, yb, delta, logits = drop_stopped(slots, yb, delta, trace.forward(xb + delta))
            logit = logits[np.arange(slots.size), yb]
            better = logit < best_logit[slots]
            # a result that did not stop is projected once more (a few ulps)
            best_delta[slots[better]] = _project_ball(delta, eps)[better]
            best_logit[slots[better]] = logit[better]
        noise = None  # freed before the next restart draws its own
    best_delta += x[rows]  # the attacked inputs, with no third batch-sized array
    out = x.copy()
    out[rows] = best_delta
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
    exit budget is below epsilon; the others are settled (see
    `coverage_under_attack`). The budgets use the model's own Lipschitz
    product, and epsilon * (1 + 1e-6) covers rounding in the forward pass
    and in layers flagged orthogonal, whose norm may exceed 1 by ~1e-8.
    """
    own = replace(cal, lipschitz_product=model.lipschitz_product)
    crit = critical_epsilons(own, score(cal.score_spec, logits, labels))
    return (crit.exit >= 0) & (crit.exit < cfg.epsilon * (1.0 + 1e-6))


def coverage_under_attack(
    model: LipschitzClassifier,
    cal: CalibrationRecord,
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
    cfg: AttackConfig,
) -> tuple[float, float]:
    """Coverage and mean size of vanilla sets at attacked points.

    One clean forward pass splits the rows in three with the critical
    budgets (`undecided_rows`):

    * certified: the exit budget is >= epsilon, so the label stays covered
      wherever the attack goes;
    * lost: the label is uncovered at the clean point, where PGD starts and
      whose true logit it only ever lowers;
    * undecided: all other rows, the only ones that run PGD.

    PGD gets `cal`, so each undecided row stops at its first flip and later
    restarts attack only the rows still standing (see `pgd_attack_batch`).
    Up to rounding, the coverage can therefore only fall below that of a
    record-less attack, and for the sigmoid score it equals that of
    attacking every row with `pgd_attack_batch` and the same record. For
    softmax a lower true logit need not mean a higher score, so attacking a
    lost row can end at a covered point: the pruned coverage can fall below
    the unpruned one, still inside the certified band. The mean set size is
    that of the sets at the inputs the attack returns.
    """
    x = np.atleast_2d(test_inputs)
    labels = np.atleast_1d(test_labels)
    undecided = undecided_rows(model, cal, forward(model, x), labels, cfg)
    attacked = pgd_attack_batch(model, x, labels, cfg, mask=undecided, cal=cal)
    membership = vanilla_membership(cal, forward(model, attacked))
    return (
        coverage_from_membership(membership, labels),
        float(membership.sum(axis=1).mean()),
    )
