import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp.conformal import conformal_rank
from liprcp.poison import PoisonBudget, poison_robust_calibrate, quantile_shift
from liprcp.scores import ScoreSpec


def brute_force_range(scores, alpha, k, delta, clip_range=None):
    """Exhaustive oracle: try every subset of <= k samples with every
    combination of extremal shifts {-delta, 0, +delta} and track the
    reachable quantile range."""
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    rank = conformal_rank(n, alpha)
    q_min = np.inf
    q_max = -np.inf
    for shifts in itertools.product((-delta, 0.0, delta), repeat=n):
        shifts = np.asarray(shifts)
        if np.count_nonzero(shifts) > k:
            continue
        pert = scores + shifts
        if clip_range is not None:
            pert = np.clip(pert, *clip_range)
        q = np.sort(pert)[rank - 1]
        q_min = min(q_min, q)
        q_max = max(q_max, q)
    return q_min, q_max


class TestQuantileShift:
    def test_single_shift_example(self):
        budget = PoisonBudget(k=1, epsilon=40.0)  # delta_score = 10
        cert = quantile_shift([1.0, 2.0, 3.0, 4.0, 5.0], 0.5, budget)
        assert cert.q_nominal == 3.0
        assert cert.q_max == 4.0
        assert cert.q_min == 2.0

    def test_budget_exceeds_n_between_ranks(self):
        budget = PoisonBudget(k=3, epsilon=2.0)  # delta_score = 0.5
        cert = quantile_shift([1.0, 2.0, 3.0], 0.5, budget)
        assert cert.q_nominal == 2.0
        assert cert.q_max == 2.5
        assert cert.q_min == 1.5

    def test_zero_budget_is_nominal(self):
        cert = quantile_shift([0.3, 0.1, 0.5], 0.5, PoisonBudget(k=0, epsilon=1.0))
        assert cert.q_min == cert.q_max == cert.q_nominal
        cert = quantile_shift([0.3, 0.1, 0.5], 0.5, PoisonBudget(k=2, epsilon=0.0))
        assert cert.q_min == cert.q_max == cert.q_nominal

    @pytest.mark.parametrize("clip", [None, (0.0, 1.0)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exhaustive_oracle(self, k, clip):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            scores = rng.uniform(size=n)
            alpha = float(rng.uniform(1.2 / (n + 1), 0.6))
            eps = float(rng.uniform(0.05, 1.0))
            budget = PoisonBudget(k=min(k, n), epsilon=eps)
            cert = quantile_shift(scores, alpha, budget, clip_range=clip)
            lo, hi = brute_force_range(
                scores, alpha, budget.k, budget.delta_score, clip
            )
            assert cert.q_min == pytest.approx(lo, abs=1e-12)
            assert cert.q_max == pytest.approx(hi, abs=1e-12)

    @given(
        st.lists(st.floats(0, 1), min_size=4, max_size=30),
        st.integers(0, 5),
        st.floats(0, 0.5),
    )
    @settings(max_examples=100)
    def test_range_properties(self, vals, k, eps):
        scores = np.asarray(vals)
        budget = PoisonBudget(k=min(k, scores.size), epsilon=eps)
        cert = quantile_shift(scores, 0.25, budget)
        assert cert.q_min <= cert.q_nominal <= cert.q_max
        # one poisoned point moves the quantile by at most delta_score
        assert cert.q_max - cert.q_nominal <= budget.delta_score + 1e-12
        assert cert.q_nominal - cert.q_min <= budget.delta_score + 1e-12

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            quantile_shift([0.1, 0.2], 0.5, PoisonBudget(k=3, epsilon=0.1))

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            PoisonBudget(k=1, epsilon=epsilon)

    def test_certificate_json(self):
        cert = quantile_shift(
            [0.1, 0.2, 0.3, 0.4], 0.5, PoisonBudget(k=1, epsilon=0.4)
        )
        doc = json.loads(cert.to_json())
        assert set(doc) == {
            "q_min",
            "q_max",
            "q_nominal",
            "rank",
            "k",
            "epsilon",
            "delta_score",
        }
        assert doc["delta_score"] == pytest.approx(0.1)


class TestPoisonRobustCalibrate:
    def test_record_uses_pessimistic_quantile(self):
        scores = np.linspace(0.05, 0.95, 19)
        budget = PoisonBudget(k=2, epsilon=0.2)
        rec = poison_robust_calibrate(scores, 0.1, budget, ScoreSpec())
        cert = quantile_shift(scores, 0.1, budget, clip_range=(0.0, 1.0))
        assert rec.q_alpha == cert.q_max
        assert rec.epsilon_calibrated == budget.epsilon
        assert rec.n_cal == 19

    def test_coverage_preserved_under_worst_case_poisoning(self):
        # adversary corrupts k calibration scores downward (shrinking the
        # quantile); the certified record still covers at the nominal rate
        rng = np.random.default_rng(32)
        alpha, k, eps = 0.1, 5, 0.4
        budget = PoisonBudget(k=k, epsilon=eps)
        hits = []
        for _ in range(200):
            clean = rng.uniform(size=100)
            poisoned = clean.copy()
            worst = np.argsort(clean)[-k:]  # push high scores past the rank
            poisoned[worst] = np.clip(poisoned[worst] - budget.delta_score, 0, 1)
            rec = poison_robust_calibrate(poisoned, alpha, budget, ScoreSpec())
            test_scores = rng.uniform(size=200)
            hits.append(np.mean(test_scores <= rec.q_alpha))
        assert np.mean(hits) >= 1 - alpha

    def test_certifies_with_the_spec_and_product_it_records(self):
        # softmax at T = 0.5 has L_s = 1, so with L = 2 the shift is 0.2; the
        # budget's own L = 1 and sigmoid L_s = 1/4 once certified 0.025
        scores = np.random.default_rng(33).uniform(size=1000)
        spec = ScoreSpec(kind="lac_softmax", temperature=0.5)
        rec = poison_robust_calibrate(
            scores, 0.1, PoisonBudget(k=50, epsilon=0.1), spec, lipschitz_product=2.0
        )
        stated = PoisonBudget(k=50, epsilon=0.1, lipschitz_product=2.0, score_spec=spec)
        assert stated.delta_score == pytest.approx(0.2, rel=1e-15)
        cert = quantile_shift(scores, 0.1, stated, clip_range=(0.0, 1.0))
        assert cert.q_max > cert.q_nominal + 0.025  # beyond the reach of 0.025
        assert rec.q_alpha == cert.q_max
        assert (rec.score_spec, rec.lipschitz_product) == (spec, 2.0)
