import numpy as np
import pytest

from liprcp.conformal import CalibrationRecord, calibrate, vanilla_membership
from liprcp.robust import (
    conservative_membership,
    restrictive_membership,
    robust_calibrate,
)
from liprcp.scores import GLOBAL_LIPSCHITZ, LAC_SOFTMAX, TIGHT_MONOTONE, ScoreSpec, score_all

FAMILIES = pytest.mark.parametrize(
    "spec",
    [ScoreSpec(temperature=1.5), ScoreSpec(kind=LAC_SOFTMAX, temperature=1.5)],
    ids=["sigmoid", "softmax"],
)


def make_record(q=0.5, lip=1.0, spec=None):
    return CalibrationRecord(
        q_alpha=q,
        alpha=0.1,
        n_cal=100,
        score_spec=spec or ScoreSpec(),
        lipschitz_product=lip,
    )


class TestNesting:
    @pytest.mark.parametrize("method", [GLOBAL_LIPSCHITZ, TIGHT_MONOTONE])
    def test_restrictive_vanilla_conservative(self, method):
        rng = np.random.default_rng(7)
        rec = make_record(q=0.4)
        logits = rng.standard_normal((300, 5)) * 2
        lo = conservative_membership(rec, logits, 0.3, method)
        van = vanilla_membership(rec, logits)
        hi = restrictive_membership(rec, logits, 0.3, method)
        assert np.all(hi <= van)
        assert np.all(van <= lo)

    def test_epsilon_zero_collapse(self):
        rng = np.random.default_rng(8)
        rec = make_record(q=0.37)
        logits = rng.standard_normal((100, 4))
        van = vanilla_membership(rec, logits)
        for method in (GLOBAL_LIPSCHITZ, TIGHT_MONOTONE):
            assert np.array_equal(conservative_membership(rec, logits, 0.0, method), van)
            assert np.array_equal(restrictive_membership(rec, logits, 0.0, method), van)

    def test_epsilon_monotone_sets(self):
        rng = np.random.default_rng(9)
        rec = make_record(q=0.45)
        logits = rng.standard_normal((200, 3))
        prev_lo = prev_hi = None
        for eps in (0.0, 0.1, 0.3, 0.8):
            lo = conservative_membership(rec, logits, eps, TIGHT_MONOTONE)
            hi = restrictive_membership(rec, logits, eps, TIGHT_MONOTONE)
            if prev_lo is not None:
                assert np.all(prev_lo <= lo)
                assert np.all(hi <= prev_hi)
            prev_lo, prev_hi = lo, hi

    def test_pair_matches_individual_sets(self):
        # one logits vector gives the same rows as the batch it sits in
        rec = make_record(q=0.5)
        logits = np.array([[1.0, 0.2, -0.4], [-2.0, 0.6, 0.1], [0.3, 0.3, 3.0]])
        for membership in (conservative_membership, restrictive_membership):
            batch = membership(rec, logits, 0.2, TIGHT_MONOTONE)
            for i, row in enumerate(logits):
                single = membership(rec, row, 0.2, TIGHT_MONOTONE)
                np.testing.assert_array_equal(single, batch[i : i + 1])


class TestRobustCalibrate:
    def test_quantile_shift_example(self):
        # quantile 0.3 at this alpha; inflation adds L * (1/4T) * eps
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        rec = robust_calibrate(scores, 0.5, 0.1, ScoreSpec(), lipschitz_product=1.0)
        assert rec.q_alpha == pytest.approx(0.325, abs=1e-12)
        assert rec.epsilon_calibrated == 0.1

    @FAMILIES
    def test_zero_epsilon_matches_vanilla(self, spec):
        scores = np.linspace(0, 1, 37)
        a = robust_calibrate(scores, 0.2, 0.0, spec, lipschitz_product=1.7)
        b = calibrate(scores, 0.2, spec, lipschitz_product=1.7)
        assert a == b
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            robust_calibrate(np.linspace(0, 1, 37), 0.2, epsilon, ScoreSpec())

    @FAMILIES
    def test_equivalence_with_conservative_inference(self, spec):
        # Calibrating on inflated scores then thresholding plain scores gives
        # the same sets as plain calibration plus a global lower bound check.
        rng = np.random.default_rng(11)
        cal_logits = rng.standard_normal((200, 4))
        cal_labels = rng.integers(0, 4, size=200)
        cal_scores = score_all(spec, cal_logits)[np.arange(200), cal_labels]
        eps, lip = 0.3, 1.0

        rec_plain = calibrate(cal_scores, 0.1, spec)
        rec_robust = robust_calibrate(cal_scores, 0.1, eps, spec, lip)

        test_logits = rng.standard_normal((300, 4))
        via_conservative = conservative_membership(
            rec_plain, test_logits, eps, GLOBAL_LIPSCHITZ
        )
        via_inflated_q = vanilla_membership(
            CalibrationRecord(rec_robust.q_alpha, 0.1, 200, spec, lip), test_logits
        )
        assert np.array_equal(via_conservative, via_inflated_q)
