"""Certified coverage bands for vanilla CP under attack.

For each evaluation sample we compute two critical perturbation budgets:
the entry budget at which the true label enters the conservative set and
the exit budget past which it leaves the restrictive set. Sorting those
thresholds yields the exact empirical coverage curves (step functions of
epsilon). Inverting binomial tails at each achievable count then gives a
band that brackets the population coverage-under-attack simultaneously for
every epsilon with probability 1 - delta.

The inversion is the Clopper-Pearson closed form (Clopper & Pearson, 1934):
the largest p with P(Bin(m, p) <= k) >= delta is the beta quantile
betaincinv(k + 1, m - k, 1 - delta), computed for all counts in one array
call. Every value is checked against the bracket
F(p - 1e-8) > delta > F(p + 1e-8) before it is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conformal import CalibrationRecord
from .scores import GLOBAL_LIPSCHITZ, TIGHT_MONOTONE, global_shift, margin_gap

RIGHT_CONTINUOUS = "right_continuous"
LEFT_CONTINUOUS = "left_continuous"

APPENDIX_CORRECTED = "appendix_corrected"
MAIN_TEXT_RAW = "main_text_raw"

NEVER = -np.inf  # exit threshold for samples that are never set members

# A computed score is within 1.5 * 2^-53 of the true one (200-bit oracle):
# moving it 2^-52 away from q absorbs that, and shrinking the budget by
# 2^-49 absorbs margin_gap's few ulps and the division by L.
_WIDEN = 2.0**-52
_SHRINK = 1.0 - 2.0**-49

# half-width of the bracket every inverted tail value must straddle
_BRACKET = 1e-8

# counts inverted per covmax_plus call, and band rows tabulated and
# formatted per block: the temporaries of one block stay small whatever m is.
# They are allocated after scipy is resident, so they add to the band
# commands' peak. On 20 000 scores, writing the band peaks at 0.4 MB with 512
# rows against 1.4 MB with 2 048, and the band takes a few ms longer.
BLOCK_ROWS = 512


class BandInversionError(ValueError):
    """A Clopper-Pearson value failed its bracket check."""


def check_delta(delta: float) -> None:
    """Reject a risk level outside (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta={delta} outside (0, 1)")


# scipy is imported inside these two calls, not at the top of the module:
# only the band needs it, and importing it costs more than most commands'
# arithmetic, so the commands that build no band never load it.
def betainc(a, b, x):
    """``scipy.special.betainc``, the regularized incomplete beta function."""
    from scipy.special import betainc as _betainc

    return _betainc(a, b, x)


def betaincinv(a, b, y):
    """``scipy.special.betaincinv``, the inverse of `betainc` in ``x``."""
    from scipy.special import betaincinv as _betaincinv

    return _betaincinv(a, b, y)


@dataclass(frozen=True)
class StepCurve:
    """Piecewise-constant function of epsilon on [0, inf).

    ``values`` has one more entry than ``breakpoints``: values[j] is taken
    between breakpoints j-1 and j. A right-continuous curve takes
    values[j+1] at breakpoint j; a left-continuous one takes values[j].
    """

    breakpoints: np.ndarray
    values: np.ndarray
    continuity: str

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.size != bp.size + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if bp.size and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.continuity not in (RIGHT_CONTINUOUS, LEFT_CONTINUOUS):
            raise ValueError(f"unknown continuity {self.continuity!r}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, eps) -> np.ndarray:
        eps = np.asarray(eps, dtype=float)
        side = "right" if self.continuity == RIGHT_CONTINUOUS else "left"
        idx = np.searchsorted(self.breakpoints, eps, side=side)
        out = self.values[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CriticalEpsilons:
    """Per-sample (entry, exit) budgets of the true label.

    entry[i]: smallest epsilon at which sample i joins the conservative
    set (0 if its vanilla score is already below the quantile).
    exit[i]: largest epsilon at which it is still in the restrictive set;
    -inf when it is never a member.
    """

    entry: np.ndarray
    exit: np.ndarray
    method: str

    @property
    def m(self) -> int:
        return self.entry.size


def critical_epsilons(
    cal: CalibrationRecord,
    eval_scores_true_label,
    method: str = TIGHT_MONOTONE,
) -> CriticalEpsilons:
    """Membership-flip budgets of the true label, from its scores alone.

    A row is covered at epsilon = 0 iff its score is <= q_alpha, as in the
    vanilla set. A tight budget is the margin gap between the score and
    q_alpha (`scores.margin_gap`) over L, for both score families; a global
    one is the score gap over L * L_s, `scores.global_shift` at epsilon = 1.
    Both are rounded toward 0. q_alpha is clipped to [0, 1]; at 0 or 1
    budgets are infinite.
    """
    s = np.asarray(eval_scores_true_label, dtype=float)
    q = cal.q_alpha
    spec = cal.score_spec
    ln = cal.lipschitz_product
    covered = s <= q
    # one budget per row: the exit of a covered row, the entry of the others
    if method not in (TIGHT_MONOTONE, GLOBAL_LIPSCHITZ):
        raise ValueError(f"unknown bound method {method!r}")
    above = np.where(covered, s + _WIDEN, q)
    below = np.where(covered, q, s - _WIDEN)
    if method == TIGHT_MONOTONE:
        budget = margin_gap(spec, above, below) / ln * _SHRINK
    else:
        budget = (below - above) / global_shift(spec, 1.0, ln) * _SHRINK
    # fmax turns a nan budget (score within 2^-52 of q = 0 or 1) into ~0
    entry = np.where(covered, 0.0, np.fmax(budget, np.nextafter(0.0, 1.0)))
    exit_ = np.where(covered, np.fmax(budget, 0.0), NEVER)
    return CriticalEpsilons(entry=entry, exit=exit_, method=method)


def coverage_curves(crit: CriticalEpsilons) -> tuple[StepCurve, StepCurve]:
    """Exact empirical curves (covmax non-decreasing, covmin non-increasing).

    covmax(eps) is the fraction of entry thresholds <= eps
    (right-continuous); covmin(eps) the fraction of exit thresholds >= eps
    (left-continuous). Both equal vanilla coverage at eps = 0.
    """
    m = crit.m
    if m < 1:
        raise ValueError("need at least one evaluation sample")
    entry = np.sort(crit.entry)
    bp_max = np.unique(entry[entry > 0])
    counts_max = np.searchsorted(entry, np.concatenate([[0.0], bp_max]), side="right")
    covmax = StepCurve(
        breakpoints=bp_max,
        values=counts_max / m,
        continuity=RIGHT_CONTINUOUS,
    )
    finite_exit = np.sort(crit.exit[np.isfinite(crit.exit)])
    # a sample is a member at eps iff its exit threshold >= eps; the curve
    # drops just AFTER each exit value (left-continuity), and 0 itself is a
    # breakpoint when some sample only covers the single point eps = 0
    bp_min = np.unique(finite_exit)
    counts_min = np.concatenate(
        [
            [finite_exit.size],
            finite_exit.size - np.searchsorted(finite_exit, bp_min, side="right"),
        ]
    )
    covmin = StepCurve(
        breakpoints=bp_min,
        values=counts_min / m,
        continuity=LEFT_CONTINUOUS,
    )
    return covmax, covmin


def binomial_cdf(m: int, p, k):
    """CDF of Binomial(m, p) at k, via the regularized incomplete beta.

    ``p`` and ``k`` broadcast against each other; scalar arguments give a
    float.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k)
    if np.any((k < 0) | (k > m)):
        raise ValueError(f"k outside [0, {m}]")
    if np.any(~((p >= 0.0) & (p <= 1.0))):
        raise ValueError("p outside [0, 1]")
    full = k == m
    # betainc(0, ., .) is undefined; F(m) = 1 for every p
    out = np.where(full, 1.0, betainc(np.where(full, 1, m - k), k + 1, 1.0 - p))
    return out if out.ndim else float(out)


def covmax_plus(m: int, count, delta: float):
    """max{p : F_{m,p}(count) >= delta}, the Clopper-Pearson upper bound.

    Closed form: the root of F_{m,p}(count) = delta is the beta quantile
    betaincinv(count + 1, m - count, 1 - delta) (Clopper & Pearson, 1934);
    count == m gives exactly 1.0. An array of counts gives an array, a
    scalar count a float. Every value with count < m must satisfy
    F(p - 1e-8) > delta > F(p + 1e-8), checked with two array calls of
    ``binomial_cdf``; a miss raises ``BandInversionError``.
    """
    count = np.asarray(count)
    if np.any((count < 0) | (count > m)):
        raise ValueError(f"count outside [0, {m}]")
    check_delta(delta)
    full = count == m
    b = np.where(full, 1, m - count)  # betaincinv(., 0, .) is undefined
    p = np.where(full, 1.0, betaincinv(count + 1, b, 1.0 - delta))
    k, p_k = count[~full], p[~full]
    below = binomial_cdf(m, np.clip(p_k - _BRACKET, 0.0, 1.0), k)
    above = binomial_cdf(m, np.clip(p_k + _BRACKET, 0.0, 1.0), k)
    bad = ~((below > delta) & (above < delta))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise BandInversionError(
            f"Clopper-Pearson bound {p_k[j]!r} for m={m}, count={int(k[j])}, "
            f"delta={delta!r} fails its +-{_BRACKET} bracket check"
        )
    return p if p.ndim else float(p)


def covmin_minus(m: int, miss_count, delta: float):
    """Lower confidence bound: 1 - covmax_plus applied to the miss count."""
    return 1.0 - covmax_plus(m, miss_count, delta)


def _in_blocks(bound, m: int, counts: np.ndarray, delta: float) -> np.ndarray:
    """``bound(m, counts, delta)`` for an array of counts, `BLOCK_ROWS` counts
    per call. Each value depends on its own count alone, so the result is
    that of one call, and the first block that fails its bracket check names
    the first bad count."""
    out = np.empty(counts.size)
    for start in range(0, counts.size, BLOCK_ROWS):
        out[start : start + BLOCK_ROWS] = bound(m, counts[start : start + BLOCK_ROWS], delta)
    return out


@dataclass(frozen=True)
class CertifiedBand:
    """Simultaneous (over all epsilon) bracket of coverage under attack,
    with the empirical curves it brackets."""

    m: int
    delta: float
    delta_prime: float
    lower: StepCurve
    upper: StepCurve
    correction_mode: str
    covmax: StepCurve
    covmin: StepCurve

    def sidecar(self, extra: dict | None = None) -> str:
        doc = {
            "m": self.m,
            "delta": self.delta,
            "delta_prime": self.delta_prime,
            "correction_mode": self.correction_mode,
        }
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=2)


def certified_band(
    crit: CriticalEpsilons,
    delta: float,
    correction_mode: str = APPENDIX_CORRECTED,
) -> CertifiedBand:
    """Invert binomial tails around the empirical curves.

    The risk delta, in (0, 1), is split as delta' = delta / (2m - 2) across both one-sided
    bounds and the per-curve union over achievable counts. The corrected
    mode adds the +-1/m slack the uniform concentration proofs carry; the
    raw mode reproduces the uncorrected main statement for comparison.
    Each curve's counts are inverted `BLOCK_ROWS` at a time.
    """
    m = crit.m
    check_delta(delta)
    if m < 2:
        raise ValueError("certified band needs m >= 2 evaluation samples")
    if correction_mode not in (APPENDIX_CORRECTED, MAIN_TEXT_RAW):
        raise ValueError(f"unknown correction mode {correction_mode!r}")
    delta_prime = delta / (2 * m - 2)
    covmax, covmin = coverage_curves(crit)
    slack = 1.0 / m if correction_mode == APPENDIX_CORRECTED else 0.0

    # each curve's inversions, on the counts behind its steps
    counts = np.rint(covmax.values * m).astype(int)
    upper_vals = np.minimum(1.0, _in_blocks(covmax_plus, m, counts, delta_prime) + slack)
    misses = np.rint((1.0 - covmin.values) * m).astype(int)
    lower_vals = np.maximum(0.0, _in_blocks(covmin_minus, m, misses, delta_prime) - slack)

    return CertifiedBand(
        m=m,
        delta=delta,
        delta_prime=delta_prime,
        lower=StepCurve(covmin.breakpoints, lower_vals, LEFT_CONTINUOUS),
        upper=StepCurve(covmax.breakpoints, upper_vals, RIGHT_CONTINUOUS),
        correction_mode=correction_mode,
        covmax=covmax,
        covmin=covmin,
    )
