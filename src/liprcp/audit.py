"""Certified coverage bands for vanilla CP under attack.

For each evaluation sample we compute two critical perturbation budgets:
the entry budget at which the true label enters the conservative set and
the exit budget past which it leaves the restrictive set. Sorting those
thresholds yields the exact empirical coverage curves (step functions of
epsilon). Inverting binomial tails at each achievable count then gives a
band that brackets the population coverage-under-attack simultaneously for
every epsilon with probability 1 - delta.

The inversion is the Clopper-Pearson bound (Clopper & Pearson, 1934): the
largest p with P(Bin(m, p) <= k) >= delta. It runs in numpy alone, for a
whole array of counts at a time: the binomial pmf in Loader's (2000)
saddle-point form, the tail as Didonato & Morris's (1992) continued fraction
of the incomplete beta function, and the root by Newton's method in logit p.
The root is within a few units in the last place of the exact one, on
either side, so each bound is raised by `_RAISE_ULPS` of them to lie above
it. Every value is checked against the bracket
F(p - 1e-8) > delta > F(p + 1e-8) before it is returned. The lower bound
1 - p and the +-1/m slack are each stepped one unit in the last place
outward past their rounding, so no band value claims more than its data.

`certified_band` inverts each curve in one call of `INVERT_COUNTS`-count
blocks and keeps its grid, 0 and both curves' breakpoints, which
`CertifiedBand.table` tabulates `BLOCK_ROWS` rows at a time.
"""

from __future__ import annotations

import json
import math
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
# units in the last place each Clopper-Pearson root is raised by: at the
# band's delta', on 364 random triples with m <= 20 000 and 117 edge ones
# with m up to 100 000, the computed root lay within 3.3 of the exact one
# (200-bit oracle), on either side, so the raised one lies above it
_RAISE_ULPS = 8

# band rows tabulated and formatted per block: the temporaries of one block
# stay small whatever m is. On 20 000 scores, writing the band peaks at
# 0.4 MB with 512 rows against 1.4 MB with 2 048, and takes a few ms longer.
BLOCK_ROWS = 512
# counts covmax_plus inverts per block: enough that each numpy call of the
# Newton and continued-fraction loops amortizes its overhead. Inverting the
# 20 000 counts of m = 20 000 at the band's delta' took 320 ms in blocks of
# 512, 144 ms in 2 048, 128 ms in 4 096 and 126 ms in 8 192, whose
# temporaries peak at 3.1 MB against 1.4 MB (2 cores, numpy 2.4).
INVERT_COUNTS = 4096


class BandInversionError(ValueError):
    """A Clopper-Pearson value failed its bracket check."""


def check_delta(delta: float) -> None:
    """Reject a risk level outside (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta={delta} outside (0, 1)")


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


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, by its sorted neighbours:
    ``np.unique`` would sort again, and it imports ``numpy.ma``."""
    keep = np.ones(values.size, bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


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
    bp_max = sorted_unique(entry[entry > 0])
    counts_max = np.searchsorted(entry, np.concatenate([[0.0], bp_max]), side="right")
    covmax = StepCurve(bp_max, counts_max / m, RIGHT_CONTINUOUS)
    finite_exit = np.sort(crit.exit[np.isfinite(crit.exit)])
    # a sample is a member at eps iff its exit threshold >= eps; the curve
    # drops just AFTER each exit value (left-continuity), and 0 itself is a
    # breakpoint when some sample only covers the single point eps = 0
    bp_min = sorted_unique(finite_exit)
    counts_min = np.concatenate(
        [
            [finite_exit.size],
            finite_exit.size - np.searchsorted(finite_exit, bp_min, side="right"),
        ]
    )
    return covmax, StepCurve(bp_min, counts_min / m, LEFT_CONTINUOUS)


# The binomial tail, in numpy alone. The pmf is Loader's (2000) saddle-point
# form, which avoids the cancellation of lgamma differences; the tail is the
# continued fraction of the regularized incomplete beta function I_x(a, b).

_LN_2PI = math.log(2.0 * math.pi)
# log n! - log(sqrt(2 pi n) (n / e)^n) for n = 0..15, rounded from 200-bit
# values (n = 0 is never used)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_CF_TERMS = 10_000  # a cap: at m = 10^7 the slowest tail, at k = mp, takes under 1 600
_NEWTON_STEPS = 100  # the band's roots take at most 6
_THETA_MAX = 700.0  # |logit p| kept where p and 1 - p stay normal doubles


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log n! - log(sqrt(2 pi n) (n / e)^n) for integers n >= 1: the table
    up to 15, Stirling's series above."""
    small = n <= 15
    big = np.where(small, 16.0, n)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(small, _STIRLERR[np.where(small, n, 0).astype(int)], series)


def _bd0(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x log(x / mu) + mu - x for x, mu > 0, by its series in
    v = (x - mu) / (x + mu) where x is near mu (Loader, 2000)."""
    out = x * np.log(x / mu) + mu - x
    near = np.abs(x - mu) < 0.1 * (x + mu)
    x, mu = x[near], mu[near]
    v = (x - mu) / (x + mu)
    s, term, v2, j = (x - mu) * v, 2.0 * x * v, v * v, 1
    while True:  # the terms shrink by v^2 < 0.01: a term that leaves s is the last
        term = term * v2
        nxt = s + term / (2 * j + 1)
        if np.array_equal(nxt, s):
            out[near] = s
            return out
        s, j = nxt, j + 1


def _log_pmf(m: int, k: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log P(Bin(m, p) = k) for integers 0 <= k < m and 0 < p < 1, with
    q = 1 - p given apart so that each keeps its relative accuracy."""
    out = np.empty(k.shape)
    mid = k > 0
    x, pm, qm = k[mid], p[mid], q[mid]
    out[mid] = (
        _stirlerr(np.float64(m)) - _stirlerr(x) - _stirlerr(m - x)
        - _bd0(x, m * pm) - _bd0(m - x, m * qm)
        - 0.5 * (_LN_2PI + np.log(x * (m - x) / m))
    )
    p0, q0 = p[~mid], q[~mid]  # P(0) = q^m
    out[~mid] = m * np.where(p0 < 0.5, np.log1p(-p0), np.log(q0))
    return out


def _bfrac(a, b, x, y, lam) -> np.ndarray:
    """I_x(a, b) B(a, b) / (x^a y^b), elementwise, for y = 1 - x and
    lam = (a + b) y - b >= 0, both given apart: the continued fraction of
    Didonato & Morris (1992, TOMS 708 ``bfrac``), whose n-th terms are

        alpha = (a + n - 1)(a + b + n - 1) n (b - n) x^2 / (a + 2n - 1)^2
        beta = n + n (b - n) x / (a + 2n - 1) + (a + n)(1 + lam + n (1 + y)) / (a + 2n + 1)

    They stay positive, so no step cancels, and for an integer b the
    fraction ends at n = b. Each element stops on its own, once a term moves
    it by at most 2^-52 relative, so its value does not depend on the
    others."""
    c, y1 = 1.0 + lam, 1.0 + y
    r = (1.0 + 1.0 / a) / c
    # the convergents' numerators and denominators, rescaled so that the
    # last denominator is 1 and the last numerator is r
    an, bn = np.zeros(x.shape), r
    out = np.empty(x.shape)
    idx = np.arange(x.size)
    for n in range(1, _CF_TERMS + 1):
        s = a + (2 * n - 1)
        w = n * (b - n) * x
        alpha = (a + (n - 1)) * (a + (b + (n - 1))) * w * x / s / s
        beta = n + w / s + (a + n) * (c + n * y1) / (s + 2.0)
        den = alpha * bn + beta
        r0, r = r, (alpha * an + beta * r) / den
        an, bn = r0 / den, 1.0 / den
        done = np.abs(r - r0) <= 2.0**-52 * r
        if done.any():
            out[idx[done]] = r[done]
            live = ~done
            idx, a, b, x, y1, c, r, an, bn = (
                v[live] for v in (idx, a, b, x, y1, c, r, an, bn))
        if not idx.size:
            return out
    raise BandInversionError(f"binomial tail: continued fraction unsettled after {_CF_TERMS} terms")


def _log_tail(m: int, k: np.ndarray, p: np.ndarray, q: np.ndarray):
    """log F and log h, elementwise, for F the Binomial(m, p) cdf at integers
    0 <= k < m, 0 < p < 1 with q = 1 - p given apart, and
    h = (m - k) p P(k) = q^(m-k) p^(k+1) / B(m - k, k + 1).

    F = I_q(m - k, k + 1) is h times a continued fraction for
    p >= (k + 1) / (m + 1), and 1 - h times the fraction of
    I_p(k + 1, m - k) below, where F is about 1/2 or more."""
    log_head = np.log((m - k) * p) + _log_pmf(m, k, p, q)
    log_f = np.empty(k.shape)
    # (m + 1) p - (k + 1), from the smaller of p and q
    lam = np.where(p < q, (m + 1) * p - (k + 1), (m - k) - (m + 1) * q)
    low = lam >= 0
    x, pl, ql = k[low], p[low], q[low]
    log_f[low] = log_head[low] + np.log(_bfrac(m - x, x + 1, ql, pl, lam[low]))
    x, ph, qh = k[~low], p[~low], q[~low]
    log_f[~low] = np.log1p(-np.exp(log_head[~low]) * _bfrac(x + 1, m - x, ph, qh, -lam[~low]))
    return log_f, log_head


def binomial_cdf(m: int, p, k):
    """CDF of Binomial(m, p) at k, from the continued fraction of the
    regularized incomplete beta function.

    ``p`` and ``k`` broadcast against each other; scalar arguments give a
    float.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k)
    if np.any((k < 0) | (k > m)):
        raise ValueError(f"k outside [0, {m}]")
    if np.any(~((p >= 0.0) & (p <= 1.0))):
        raise ValueError("p outside [0, 1]")
    p, k = np.broadcast_arrays(p, k)
    out = np.where((p == 1.0) & (k < m), 0.0, 1.0)  # F(m) = 1, and F = 1 at p = 0
    inner = (p > 0.0) & (p < 1.0) & (k < m)
    pi = p[inner]
    out[inner] = np.exp(_log_tail(m, k[inner].astype(float), pi, 1.0 - pi)[0])
    return out if out.ndim else float(out)


def _expit(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), without overflow."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _clopper_pearson_root(m: int, count: np.ndarray, delta: float) -> np.ndarray:
    """The root p of F_{m,p}(count) = delta, elementwise, for integers
    0 <= count < m, to within a few units in the last place on either side.

    count = 0 and m - 1 have closed forms, F = (1 - p)^m and 1 - p^m. Other
    counts take Newton's method on log F in theta = logit p, whose slope is
    -(m - k) p P(k) / F, from the continuity-corrected Wilson bound
    (Newcombe, 1998). log F is concave in theta, so after the first step the
    iterates fall to the root from above. An element stops one step after
    its step is within 1e-8, or once p stops changing.
    """
    k = np.asarray(count, dtype=float)
    log_delta = math.log(delta)
    p = np.where(k == m - 1, math.exp(math.log1p(-delta) / m), 0.0)
    p[k == 0] = -math.expm1(log_delta / m)
    inner = (k > 0) & (k < m - 1)
    k = k[inner]
    # the upper min(delta, 1/2) normal quantile (Abramowitz & Stegun 26.2.23)
    t = math.sqrt(-2.0 * math.log(min(delta, 0.5)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t**3)
    wilson = (2 * k + z * z + 1 + z * np.sqrt(z * z + 2 - 1 / m + 4 * k * (m - k - 1) / m)) / (
        2 * (m + z * z))
    wilson = np.minimum(wilson, 1.0 - 2.0**-52)
    theta = np.log(wilson) - np.log1p(-wilson)
    root = np.empty(k.shape)
    idx, near = np.arange(k.size), np.zeros(k.shape, bool)
    p_k, q_k = _expit(theta), _expit(-theta)
    for _ in range(_NEWTON_STEPS):
        # the last step moves p itself, which theta holds to only about
        # |theta| units of 2^-53
        q_k = np.where(near, 1.0 - p_k, q_k)
        log_f, log_head = _log_tail(m, k, p_k, q_k)
        step = (log_f - log_delta) * np.exp(log_f - log_head)  # F / h = F / ((m - k) p P(k))
        theta = np.clip(theta + step, -_THETA_MAX, _THETA_MAX)
        nxt = np.where(near, p_k + p_k * q_k * step, _expit(theta))
        done = near | (nxt == p_k)
        root[idx[done]] = nxt[done]
        live = ~done
        idx, k, theta, p_k = idx[live], k[live], theta[live], nxt[live]
        q_k, near = _expit(-theta), np.abs(step[live]) <= 1e-8
        if not idx.size:
            break
    else:
        raise BandInversionError(
            f"Clopper-Pearson root for m={m}, delta={delta!r}: Newton's method "
            f"unsettled after {_NEWTON_STEPS} steps"
        )
    p[inner] = root
    return p


def covmax_plus(m: int, count, delta: float):
    """max{p : F_{m,p}(count) >= delta}, the Clopper-Pearson upper bound
    (Clopper & Pearson, 1934).

    The root of F_{m,p}(count) = delta, raised by `_RAISE_ULPS` units in the
    last place so that it lies above the exact root, and clipped at 1;
    count == m gives exactly 1.0. An array of counts gives an array, a
    scalar count a float. The counts below m are inverted `INVERT_COUNTS`
    at a time; each value depends on its own count alone, so the blocks do
    not change it. Every value must satisfy F(p - 1e-8) > delta >
    F(p + 1e-8), checked with two array calls of ``binomial_cdf`` per
    block; the first miss raises ``BandInversionError``.
    """
    count = np.asarray(count)
    if np.any((count < 0) | (count > m)):
        raise ValueError(f"count outside [0, {m}]")
    check_delta(delta)
    p = np.ones(count.shape)
    todo = np.flatnonzero(count < m)
    for start in range(0, todo.size, INVERT_COUNTS):
        idx = todo[start : start + INVERT_COUNTS]
        k = count.flat[idx]
        p_k = _clopper_pearson_root(m, k, delta)
        p.flat[idx] = p_k = np.minimum(1.0, p_k + _RAISE_ULPS * np.spacing(p_k))
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
    """Lower confidence bound: 1 - covmax_plus applied to the miss count,
    stepped one unit in the last place down past the rounding of that
    difference. An array of counts gives an array, a scalar count a float."""
    lower = np.nextafter(1.0 - covmax_plus(m, miss_count, delta), 0.0)
    return lower if lower.ndim else float(lower)


@dataclass(frozen=True)
class CertifiedBand:
    """Simultaneous (over all epsilon) bracket of coverage under attack,
    with the empirical curves it brackets and the grid it is tabulated on:
    0 and every breakpoint of either curve, in increasing order."""

    m: int
    delta: float
    delta_prime: float
    lower: StepCurve
    upper: StepCurve
    correction_mode: str
    covmax: StepCurve
    covmin: StepCurve
    grid: np.ndarray

    def table(self):
        """The band's (epsilon, covmin_minus, covmin_emp, covmax_emp,
        covmax_plus) rows on its grid, as arrays of `BLOCK_ROWS` rows at
        most, so that only one block's temporaries are alive at a time."""
        for start in range(0, self.grid.size, BLOCK_ROWS):
            eps = self.grid[start : start + BLOCK_ROWS]
            yield np.stack([eps, self.lower(eps), self.covmin(eps), self.covmax(eps),
                            self.upper(eps)], 1)

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
    Each curve's counts are inverted in one call. Every sample is a
    breakpoint of at most one curve, so the grid holds at most m + 1 values.
    """
    m = crit.m
    check_delta(delta)
    if m < 2:
        raise ValueError("certified band needs m >= 2 evaluation samples")
    if correction_mode not in (APPENDIX_CORRECTED, MAIN_TEXT_RAW):
        raise ValueError(f"unknown correction mode {correction_mode!r}")
    delta_prime = delta / (2 * m - 2)
    covmax, covmin = coverage_curves(crit)
    slack = math.nextafter(1.0 / m, 1.0) if correction_mode == APPENDIX_CORRECTED else 0.0

    # each curve's inversions, on the counts behind its steps; the slack is
    # rounded up, and each sum stepped one ulp outward past its rounding
    counts = np.rint(covmax.values * m).astype(int)
    upper_vals = np.minimum(1.0, np.nextafter(covmax_plus(m, counts, delta_prime) + slack, np.inf))
    miss = np.rint((1.0 - covmin.values) * m).astype(int)
    lower_vals = np.maximum(0.0, np.nextafter(covmin_minus(m, miss, delta_prime) - slack, -np.inf))
    grid = np.sort(np.concatenate([[0.0], covmax.breakpoints, covmin.breakpoints]))

    return CertifiedBand(
        m=m,
        delta=delta,
        delta_prime=delta_prime,
        lower=StepCurve(covmin.breakpoints, lower_vals, LEFT_CONTINUOUS),
        upper=StepCurve(covmax.breakpoints, upper_vals, RIGHT_CONTINUOUS),
        correction_mode=correction_mode,
        covmax=covmax,
        covmin=covmin,
        grid=sorted_unique(grid),
    )
