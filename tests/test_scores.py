import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp import lipnet
from liprcp.conformal import calibrate
from liprcp.poison import PoisonBudget
from liprcp.robust import robust_calibrate
from liprcp.scores import (
    GLOBAL_LIPSCHITZ,
    LAC_SOFTMAX,
    TIGHT_MONOTONE,
    ScoreSpec,
    global_shift,
    lower_bound_all,
    _margins,
    margin_gap,
    score,
    score_all,
    upper_bound_all,
)

SIGMOID = ScoreSpec()
SOFTMAX = ScoreSpec(kind=LAC_SOFTMAX)


def bounds(spec, logits, y, eps, lip, method=TIGHT_MONOTONE):
    """Lower and upper bounds of class y's score, from the batch functions."""
    lo = lower_bound_all(spec, logits, eps, lip, method)[..., y]
    hi = upper_bound_all(spec, logits, eps, lip, method)[..., y]
    return lo, hi


class TestScore:
    def test_sigmoid_at_bias(self):
        for t in (0.5, 1.0, 3.0):
            spec = ScoreSpec(temperature=t, bias=0.7)
            assert score(spec, np.array([0.7, 0.0]), 0) == pytest.approx(0.5)

    def test_sigmoid_ln3(self):
        assert score(SIGMOID, np.array([np.log(3.0), 0.0]), 0) == pytest.approx(0.25)

    def test_softmax_two_equal_logits(self):
        assert score(SOFTMAX, np.array([1.3, 1.3]), 1) == pytest.approx(0.5)

    def test_score_lipschitz_constant(self):
        assert ScoreSpec(temperature=0.25).score_lipschitz == pytest.approx(1.0)
        assert ScoreSpec(temperature=1.0).score_lipschitz == pytest.approx(0.25)

    @given(
        st.floats(-30, 30),
        st.floats(0.1, 10),
        st.floats(-5, 5),
    )
    def test_sigmoid_score_in_unit_interval(self, logit, temp, bias):
        spec = ScoreSpec(temperature=temp, bias=bias)
        s = score(spec, np.array([logit, 0.0]), 0)
        assert 0.0 <= s <= 1.0


@st.composite
def _true_label_case(draw):
    """(spec, logits, y): either family, T in [0.05, 5], logits up to +-60
    with signed zeros and ties at the top class, softmax with a single
    class, and a 1-D input (y a scalar) as well as batches."""
    kind = draw(st.sampled_from([SIGMOID.kind, LAC_SOFTMAX]))
    bias = draw(st.floats(-5, 5)) if kind == SIGMOID.kind else 0.0
    spec = ScoreSpec(kind=kind, temperature=draw(st.floats(0.05, 5)), bias=bias)
    c = draw(st.integers(1, 8))
    one_d = draw(st.booleans())
    n = 1 if one_d else draw(st.integers(0, 12))
    cell = st.one_of(st.floats(-60, 60), st.sampled_from([0.0, -0.0]))
    logits = np.array(draw(st.lists(cell, min_size=n * c, max_size=n * c))).reshape(n, c)
    if n and draw(st.booleans()):  # a second class ties the top one
        rows = np.arange(n)
        logits[rows, draw(st.integers(0, c - 1))] = logits.max(axis=1)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), dtype=int)
    return (spec, logits[0], int(y[0])) if one_d else (spec, logits, y)


class TestTrueLabelScore:
    @settings(max_examples=400, deadline=None)
    @given(_true_label_case())
    def test_equals_the_gathered_score_matrix_bit_for_bit(self, case):
        spec, logits, y = case
        got = score(spec, logits, y)
        if logits.ndim == 1:
            assert isinstance(got, float)
            want = score_all(spec, logits)[y]
        else:
            want = score_all(spec, logits)[np.arange(logits.shape[0]), y]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_sigmoid_memory_is_linear_in_rows(self):
        rng = np.random.default_rng(34)
        n, c = 20_000, 10
        logits, y = rng.standard_normal((n, c)), rng.integers(0, c, n)
        score(SIGMOID, logits, y)  # warm up
        tracemalloc.start()
        try:
            score(SIGMOID, logits, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few n-sized arrays; an (n, c) score matrix would not fit
        assert peak < 6 * n * 8

    def test_softmax_memory_is_one_copy_of_the_logits(self):
        rng = np.random.default_rng(35)
        n, c = 20_000, 10
        logits, y = rng.standard_normal((n, c)), rng.integers(0, c, n)
        score(SOFTMAX, logits, y)  # warm up
        tracemalloc.start()
        try:
            score(SOFTMAX, logits, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the exponentials and a few n-sized arrays; the (n, c) margins and
        # their temporaries took 4.5 times the logits
        assert peak < 2 * logits.nbytes

    @pytest.mark.parametrize("spec", [SIGMOID, SOFTMAX], ids=["sigmoid", "softmax"])
    @pytest.mark.parametrize("y, bad", [(-1, -1), (3, 3), ([0, -3], -3), ([2, 3], 3)])
    def test_label_that_names_no_class_is_rejected(self, spec, y, bad):
        # a negative label used to index from the end: -1 read class 2's score
        logits = np.array([1.0, 0.0, -1.0])
        if np.ndim(y):
            logits, y = np.tile(logits, (len(y), 1)), np.array(y)
        with pytest.raises(ValueError, match=f"^label {bad} names no class of 3$"):
            score(spec, logits, y)


class TestGlobalBound:
    def test_arithmetic(self):
        logits = np.array([[0.0, 1.0], [1.0, 0.0]])
        lo, hi = bounds(SIGMOID, logits, 0, 0.2, 1.0, GLOBAL_LIPSCHITZ)
        np.testing.assert_allclose(lo, [0.45, 1.0 / (1.0 + np.e) - 0.05])
        np.testing.assert_allclose(hi, [0.55, 1.0 / (1.0 + np.e) + 0.05])

    def test_epsilon_zero_collapses(self):
        logits = np.array([[0.3, -0.2], [-1.5, 2.0]])
        lo, hi = bounds(SIGMOID, logits, 0, 0.0, 2.0, GLOBAL_LIPSCHITZ)
        s = score(SIGMOID, logits, np.zeros(2, dtype=int))
        np.testing.assert_array_equal(lo, s)
        np.testing.assert_array_equal(hi, s)

    def test_softmax_constant(self):
        # the softmax margin form has scale T/2, so L_s = 1/(2T)
        spec = ScoreSpec(kind=LAC_SOFTMAX, temperature=0.5)
        assert spec.score_lipschitz == 1.0
        logits = np.array([[1.0, 0.0]])
        s = 1.0 / (1.0 + np.exp(2.0))
        lo, hi = bounds(spec, logits, 0, 0.05, 1.0, GLOBAL_LIPSCHITZ)
        np.testing.assert_allclose(lo, [s - 0.05])
        np.testing.assert_allclose(hi, [s + 0.05])

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, epsilon):
        for method in (TIGHT_MONOTONE, GLOBAL_LIPSCHITZ):
            for bound in (lower_bound_all, upper_bound_all):
                with pytest.raises(ValueError, match="epsilon"):
                    bound(SIGMOID, np.array([[0.0, 1.0]]), epsilon, 1.0, method)


    def test_one_shift_for_the_bound_the_calibration_and_the_poisoning(self):
        # at softmax T = 3, L = 1.1 and eps = 0.37 the three orders of the
        # product L * L_s * eps give three doubles; every user takes one
        spec, lip, eps = ScoreSpec(kind=LAC_SOFTMAX, temperature=3.0), 1.1, 0.37
        shift = global_shift(spec, eps, lip)
        assert shift == (lip * spec.score_lipschitz) * eps
        ls = spec.score_lipschitz
        assert shift not in (ls * (lip * eps), lip * (ls * eps))
        logits = np.random.default_rng(36).standard_normal((50, 4))
        s = score_all(spec, logits)
        for bound, sign in ((lower_bound_all, -1.0), (upper_bound_all, 1.0)):
            got = bound(spec, logits, eps, lip, GLOBAL_LIPSCHITZ)
            np.testing.assert_array_equal(got, np.clip(s + sign * shift, 0.0, 1.0))
        cal = s[:, 0]
        rec = robust_calibrate(cal, 0.1, eps, spec, lip)
        assert rec.q_alpha == calibrate(cal + shift, 0.1, spec, lip).q_alpha
        budget = PoisonBudget(k=1, epsilon=eps, lipschitz_product=lip, score_spec=spec)
        assert budget.delta_score == shift


class TestTightBound:
    def test_sigmoid_closed_form(self):
        lo, hi = bounds(SIGMOID, np.array([[0.0, 1.0]]), 0, 1.0, 1.0)
        np.testing.assert_allclose(lo, [1.0 / (1.0 + np.e)], rtol=0, atol=1e-9)
        np.testing.assert_allclose(hi, [np.e / (1.0 + np.e)], rtol=0, atol=1e-9)

    def test_dominates_global(self):
        for spec in (SIGMOID, SOFTMAX):
            rng = np.random.default_rng(0)
            for _ in range(200):
                logits = rng.standard_normal((1, 4)) * 3
                eps = float(rng.uniform(0.01, 2.0))
                t_lo, t_hi = bounds(spec, logits, slice(None), eps, 1.0)
                g_lo, g_hi = bounds(spec, logits, slice(None), eps, 1.0, GLOBAL_LIPSCHITZ)
                assert np.all(t_lo > g_lo - 1e-15)
                assert np.all(t_hi < g_hi + 1e-15)
                assert np.all(t_lo[g_lo > 0.0] > g_lo[g_lo > 0.0])

    def test_epsilon_zero_collapses(self):
        logits = np.array([[0.4, -1.0, 0.2], [2.0, 0.1, -3.0]])
        for spec in (SIGMOID, SOFTMAX):
            lo, hi = bounds(spec, logits, 1, 0.0, 1.0)
            expected = score(spec, logits, np.ones(2, dtype=int))
            np.testing.assert_allclose(lo, expected)
            np.testing.assert_allclose(hi, expected)

    def test_monotone_in_epsilon(self):
        logits = np.array([[0.5, -0.5, 1.5]])
        grid = np.linspace(0.0, 2.0, 21)
        for spec in (SIGMOID, SOFTMAX):
            lowers = [bounds(spec, logits, 0, e, 1.0)[0][0] for e in grid]
            uppers = [bounds(spec, logits, 0, e, 1.0)[1][0] for e in grid]
            assert np.all(np.diff(lowers) <= 1e-15)
            assert np.all(np.diff(uppers) >= -1e-15)

    def test_exact_on_orthogonal_linear_model(self):
        # logits of an orthogonal single layer span exactly [l - eps, l + eps]
        # over the ball, so the tight sigmoid bound is the true inf/sup
        layer = lipnet.build_orthogonal(4, 4, seed=8)
        model = lipnet.LipschitzClassifier(layers=(layer,))
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(4)
            eps = float(rng.uniform(0.0, 1.5))
            y = int(rng.integers(4))
            logits = lipnet.forward(model, x[None])
            lo, hi = bounds(SIGMOID, logits, y, eps, model.lipschitz_product)
            worst = lipnet.forward(model, x - eps * layer.weight[y])[y]
            best = lipnet.forward(model, x + eps * layer.weight[y])[y]
            assert hi[0] == pytest.approx(score(SIGMOID, np.array([worst]), 0), abs=1e-9)
            assert lo[0] == pytest.approx(score(SIGMOID, np.array([best]), 0), abs=1e-9)


class TestSoundnessSampling:
    @pytest.mark.parametrize("spec", [SIGMOID, SOFTMAX], ids=["sigmoid", "softmax"])
    def test_sampled_perturbations_respect_bounds(self, spec):
        rng = np.random.default_rng(17)
        layers = tuple(lipnet.build_orthogonal(5, 5, seed=s) for s in (1, 2, 3))
        model = lipnet.LipschitzClassifier(layers=layers)
        for _ in range(100):
            x = rng.standard_normal(5)
            eps = float(rng.uniform(0.0, 1.0))
            y = int(rng.integers(5))
            logits = lipnet.forward(model, x)
            noise = rng.standard_normal((200, 5))
            noise *= (
                eps
                * rng.uniform(0, 1, size=(200, 1)) ** (1 / 5)
                / np.linalg.norm(noise, axis=1, keepdims=True)
            )
            sampled = score(spec, lipnet.forward(model, x + noise), np.full(200, y))
            for method in (TIGHT_MONOTONE, GLOBAL_LIPSCHITZ):
                lo = lower_bound_all(spec, logits, eps, 1.0, method)[y]
                hi = upper_bound_all(spec, logits, eps, 1.0, method)[y]
                assert np.all(sampled >= lo - 1e-12)
                assert np.all(sampled <= hi + 1e-12)


class TestInverseThreshold:
    """`margin_gap(spec, s, 0.5)` is the margin of score s less the offset."""

    def test_half(self):
        for spec in (SIGMOID, SOFTMAX):
            assert margin_gap(spec, 0.5, 0.5) == 0.0

    def test_quarter(self):
        assert margin_gap(SIGMOID, 0.25, 0.5) == pytest.approx(np.log(3.0))
        # softmax margins run on half the temperature
        assert margin_gap(SOFTMAX, 0.25, 0.5) == pytest.approx(np.log(3.0) / 2)

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(0.1, 5), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_round_trip(self, q, temp, bias):
        spec = ScoreSpec(temperature=temp, bias=bias)
        logit = bias + margin_gap(spec, q, 0.5)
        assert score(spec, np.array([logit]), 0) == pytest.approx(q, abs=1e-12)
        # two classes: logits (h, -h) give class 0 the softmax margin h
        soft = ScoreSpec(kind=LAC_SOFTMAX, temperature=temp)
        h = margin_gap(soft, q, 0.5)
        assert score(soft, np.array([h, -h]), 0) == pytest.approx(q, abs=1e-12)

    def test_domain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in (SIGMOID, SOFTMAX):
                assert margin_gap(spec, 0.0, 0.5) == np.inf
                assert margin_gap(spec, 1.0, 0.5) == -np.inf
                assert margin_gap(spec, 0.3, 1.0) == np.inf
                assert margin_gap(spec, 0.3, 0.0) == -np.inf
                gaps = margin_gap(spec, np.array([0.0, 0.2, 1.0]), 0.2)
                np.testing.assert_array_equal(gaps, [np.inf, 0.0, -np.inf])


def _softmax_corner_scores(spec, logits, shift, lower):
    """The corner routine the margin form replaced, kept as an oracle.

    The softmax in class y is monotone increasing in logit y and decreasing
    in every other logit, so its extremum over the box [l - shift, l + shift]
    sits at the corner where logit y moves one way and all others the
    opposite way. Tiles an (n, c, c) array.
    """
    n, c = logits.shape
    sign = 1.0 if lower else -1.0
    corner = np.tile((logits[:, None, :] - sign * shift) / spec.temperature, (1, c, 1))
    idx = np.arange(c)
    corner[:, idx, idx] = (logits + sign * shift) / spec.temperature
    corner -= corner.max(axis=-1, keepdims=True)
    probs = np.exp(corner)
    probs /= probs.sum(axis=-1, keepdims=True)
    return 1.0 - probs[:, idx, idx]


class TestSoftmaxMargins:
    def test_bounds_match_corner_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            n, c = int(rng.integers(1, 40)), int(rng.integers(2, 12))
            spec = ScoreSpec(kind=LAC_SOFTMAX, temperature=float(rng.uniform(0.1, 3.0)))
            logits = rng.standard_normal((n, c)) * float(rng.uniform(0.1, 6.0))
            eps, lip = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.5, 2.0))
            q = rng.uniform(size=(n, c))
            for bound, lower in ((lower_bound_all, True), (upper_bound_all, False)):
                new = bound(spec, logits, eps, lip)
                old = _softmax_corner_scores(spec, logits, lip * eps, lower)
                np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(new <= q, old <= q)

    def test_one_row_of_logits(self):
        logits = np.array([0.4, -1.0, 2.2])
        batched = upper_bound_all(SOFTMAX, logits[None], 0.3, 1.0)
        single = upper_bound_all(SOFTMAX, logits, 0.3, 1.0)
        np.testing.assert_array_equal(single, batched[0])

    @pytest.mark.parametrize("temperature", [0.05, 1.0, 4.0])
    def test_huge_logit_gaps_stay_finite(self, temperature):
        spec = ScoreSpec(kind=LAC_SOFTMAX, temperature=temperature)
        rows = []
        for g in np.array([0.0, 1.0, 10.0, 1e2, 1e3]) / temperature:
            # gaps of up to 1e3 / T, with a clear top, a tie at the top and
            # a tie below it
            rows += [[0.0, -g, -g, -g], [g, g, 0.0, -g], [0.0, g, 0.0, 0.0]]
        logits = np.array(rows)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            h = _margins(spec, logits)
            bounds = [lower_bound_all(spec, logits, 0.5, 1.0),
                      upper_bound_all(spec, logits, 0.5, 1.0)]
        assert np.all(np.isfinite(h))
        for s in bounds:
            assert np.all((s >= 0.0) & (s <= 1.0))
        # two classes: each margin is half the logit gap
        g = 1e3 / temperature
        pair = _margins(spec, np.array([[0.0, -g]]))
        np.testing.assert_allclose(pair, [[g / 2, -g / 2]])

    def test_memory_is_linear_in_classes(self):
        logits = np.random.default_rng(31).standard_normal((20, 500))
        upper_bound_all(SOFTMAX, logits, 0.1, 1.0)  # warm up
        tracemalloc.start()
        upper_bound_all(SOFTMAX, logits, 0.1, 1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 10 * logits.size * 8
