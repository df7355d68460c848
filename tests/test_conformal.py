import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp import conformal
from liprcp.conformal import (
    CalibrationRecord,
    InvalidRiskError,
    calibrate,
    conformal_quantile,
    coverage_from_membership,
    vanilla_membership,
)
from liprcp.scores import ScoreSpec, score


class TestQuantile:
    def test_rank_examples(self):
        assert conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.5) == pytest.approx(0.3)
        assert conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.2) == pytest.approx(0.4)

    def test_alpha_too_small(self):
        with pytest.raises(InvalidRiskError):
            conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.1)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(size=50)
        assert conformal_quantile(s, 0.3) == conformal_quantile(np.sort(s)[::-1], 0.3)

    @given(
        st.lists(st.floats(0, 1), min_size=5, max_size=60),
        st.floats(0.2, 0.9),
    )
    @settings(max_examples=100)
    def test_quantile_monotone_in_alpha(self, vals, alpha):
        q_hi = conformal_quantile(vals, alpha)
        q_lo = conformal_quantile(vals, alpha / 2 + 0.1)
        if alpha / 2 + 0.1 <= alpha:
            assert q_lo >= q_hi


class TestPredictionSet:
    def setup_method(self):
        self.spec = ScoreSpec()

    def record(self, q):
        return CalibrationRecord(
            q_alpha=q, alpha=0.1, n_cal=100, score_spec=self.spec, lipschitz_product=1.0
        )

    def test_full_set_at_max_quantile(self):
        member = vanilla_membership(self.record(1.0), np.array([[5.0, -5.0, 0.0]]))
        np.testing.assert_array_equal(member, [[True, True, True]])

    def test_empty_set_below_min_score(self):
        member = vanilla_membership(self.record(1e-9), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(member, [[False, False]])

    def test_two_class_arithmetic(self):
        member = vanilla_membership(self.record(0.3), np.array([[2.0, -2.0]]))
        np.testing.assert_array_equal(member, [[True, False]])

    def test_threshold_consistency_exact(self):
        rng = np.random.default_rng(4)
        rec = self.record(0.5)
        logits = rng.standard_normal((200, 3))
        member = conformal.vanilla_membership(rec, logits)
        for i in range(200):
            for y in range(3):
                assert member[i, y] == (score(self.spec, logits[i], y) <= 0.5)

    def test_nested_in_alpha(self):
        rng = np.random.default_rng(5)
        cal_scores = rng.uniform(size=500)
        logits = rng.standard_normal((100, 4))
        prev = None
        for alpha in (0.3, 0.2, 0.1, 0.05):
            rec = calibrate(cal_scores, alpha, self.spec)
            member = conformal.vanilla_membership(rec, logits)
            if prev is not None:
                assert np.all(prev <= member)
            prev = member


class TestCoverage:
    def test_degenerate_sets(self):
        full = vanilla_membership(
            CalibrationRecord(1.0, 0.1, 10, ScoreSpec(), 1.0), np.zeros((5, 3))
        )
        assert coverage_from_membership(full, [0, 1, 2, 0, 1]) == 1.0
        empty = np.zeros((5, 3), dtype=bool)
        assert coverage_from_membership(empty, [0, 1, 2, 0, 1]) == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_exchangeability_coverage(self, alpha):
        # i.i.d. scores; mean coverage over resamplings concentrates at 1-alpha
        rng = np.random.default_rng(100)
        spec = ScoreSpec()
        covs = []
        for _ in range(100):
            cal_scores = rng.uniform(size=500)
            test_scores = rng.uniform(size=500)
            q = conformal_quantile(cal_scores, alpha)
            covs.append(np.mean(test_scores <= q))
        assert 1 - alpha - 0.01 <= np.mean(covs) <= 1 - alpha + 0.015


class TestRecordSerialization:
    def test_round_trip(self):
        rec = CalibrationRecord(
            q_alpha=0.312,
            alpha=0.1,
            n_cal=999,
            score_spec=ScoreSpec(temperature=2.0, bias=-0.5),
            lipschitz_product=1.0,
            epsilon_calibrated=0.25,
        )
        back = CalibrationRecord.from_json(rec.to_json())
        assert back == rec

    def test_json_fields(self):
        rec = calibrate(np.linspace(0, 1, 99), 0.1, ScoreSpec())
        doc = json.loads(rec.to_json())
        assert set(doc) == {
            "q_alpha",
            "alpha",
            "n_cal",
            "epsilon_calibrated",
            "lipschitz_product",
            "score_spec",
        }
