import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp.audit import (
    APPENDIX_CORRECTED,
    INVERT_COUNTS,
    LEFT_CONTINUOUS,
    MAIN_TEXT_RAW,
    NEVER,
    RIGHT_CONTINUOUS,
    StepCurve,
    binomial_cdf,
    certified_band,
    coverage_curves,
    covmax_plus,
    covmin_minus,
    critical_epsilons,
)
from liprcp.conformal import CalibrationRecord
from liprcp.robust import conservative_membership, restrictive_membership
from liprcp.scores import (
    GLOBAL_LIPSCHITZ,
    LAC_SIGMOID,
    LAC_SOFTMAX,
    TIGHT_MONOTONE,
    ScoreSpec,
    score_all,
)


def make_record(q=0.5, lip=1.0, spec=None):
    return CalibrationRecord(
        q_alpha=q,
        alpha=0.1,
        n_cal=100,
        score_spec=spec or ScoreSpec(),
        lipschitz_product=lip,
    )


class TestStepCurve:
    def test_right_continuous_evaluation(self):
        c = StepCurve(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]), RIGHT_CONTINUOUS)
        assert c(0.5) == 0.0
        assert c(1.0) == 0.5  # jumps at the breakpoint
        assert c(1.5) == 0.5
        assert c(2.0) == 1.0

    def test_left_continuous_evaluation(self):
        c = StepCurve(np.array([1.0, 2.0]), np.array([1.0, 0.5, 0.0]), LEFT_CONTINUOUS)
        assert c(1.0) == 1.0  # holds the old value at the breakpoint
        assert c(1.5) == 0.5
        assert c(2.0) == 0.5
        assert c(2.5) == 0.0

    def test_vectorized(self):
        c = StepCurve(np.array([1.0]), np.array([0.0, 1.0]), RIGHT_CONTINUOUS)
        np.testing.assert_array_equal(c(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            StepCurve(np.array([2.0, 1.0]), np.array([0, 0, 0]), RIGHT_CONTINUOUS)
        with pytest.raises(ValueError):
            StepCurve(np.array([1.0]), np.array([0.0]), RIGHT_CONTINUOUS)


class TestCriticalEpsilons:
    @pytest.mark.parametrize("method", [TIGHT_MONOTONE, GLOBAL_LIPSCHITZ])
    def test_flip_budgets_match_set_membership(self, method):
        # for each sample, stepping just inside/outside the critical budget
        # flips exactly the predicted membership
        rng = np.random.default_rng(21)
        spec = ScoreSpec(temperature=1.3, bias=0.2)
        rec = make_record(q=0.42, spec=spec)
        logits = rng.standard_normal((80, 3)) * 2
        labels = rng.integers(0, 3, size=80)
        s_true = score_all(spec, logits)[np.arange(80), labels]
        crit = critical_epsilons(rec, s_true, method=method)

        tick = 1e-6
        for i in range(80):
            lg = logits[i : i + 1]
            e = crit.entry[i]
            lo = conservative_membership(rec, lg, max(e - tick, 0.0), method)[0, labels[i]]
            hi = conservative_membership(rec, lg, e + tick, method)[0, labels[i]]
            assert hi  # inside the conservative set just past entry
            if e > tick:
                assert not lo
            x = crit.exit[i]
            if x == NEVER:
                assert not restrictive_membership(rec, lg, 0.0, method)[0, labels[i]]
            else:
                assert restrictive_membership(rec, lg, max(x - tick, 0.0), method)[
                    0, labels[i]
                ]
                assert not restrictive_membership(rec, lg, x + tick, method)[0, labels[i]]

    def test_tight_no_looser_than_global(self):
        rng = np.random.default_rng(22)
        rec = make_record(q=0.35)
        s = rng.uniform(0.01, 0.99, size=200)
        tight = critical_epsilons(rec, s, TIGHT_MONOTONE)
        glob = critical_epsilons(rec, s, GLOBAL_LIPSCHITZ)
        assert np.all(tight.entry >= glob.entry - 1e-12)
        finite = np.isfinite(glob.exit)
        assert np.all(tight.exit[finite] >= glob.exit[finite] - 1e-12)

    @pytest.mark.parametrize("kind", [LAC_SIGMOID, LAC_SOFTMAX])
    def test_global_exit_keeps_the_label(self, kind):
        # the global restrictive set at a row's exit budget still holds its
        # label; unrounded, |q - s| / (L L_s) dropped 53 (sigmoid) and 47
        # (softmax) of these 2 000 rows
        rng = np.random.default_rng(32)
        spec = ScoreSpec(kind=kind)
        kept = []
        for _ in range(100):
            logits = rng.normal(0.0, 3.0, size=(500, 4))
            labels = rng.integers(0, 4, size=500)
            s = score_all(spec, logits)[np.arange(500), labels]
            rec = make_record(q=float(np.median(s)), lip=rng.uniform(0.5, 2.0), spec=spec)
            crit = critical_epsilons(rec, s, GLOBAL_LIPSCHITZ)
            for i in np.flatnonzero(crit.exit > 0)[:20]:
                member = restrictive_membership(rec, logits[i], crit.exit[i], GLOBAL_LIPSCHITZ)
                kept.append(member[0, labels[i]])
        assert len(kept) == 2000 and all(kept)

    def test_softmax_flip_budgets_match_set_membership(self):
        rng = np.random.default_rng(31)
        spec = ScoreSpec(kind=LAC_SOFTMAX, temperature=0.7)
        rec = make_record(q=0.55, lip=1.3, spec=spec)
        logits = rng.standard_normal((80, 5)) * 2
        labels = rng.integers(0, 5, size=80)
        crit = critical_epsilons(rec, score_all(spec, logits)[np.arange(80), labels])
        idx = np.arange(80)
        tick = 1e-6
        for eps, budget in ((crit.entry, "entry"), (crit.exit, "exit")):
            eps = np.where(np.isfinite(eps), eps, 0.0)
            for step in (-tick, tick):
                at = np.maximum(eps + step, 0.0)
                for i in range(80):
                    lg = logits[i : i + 1]
                    if budget == "entry":
                        member = conservative_membership(rec, lg, at[i])[0, labels[i]]
                        assert member == (crit.entry[i] <= at[i]), (i, step)
                    else:
                        member = restrictive_membership(rec, lg, at[i])[0, labels[i]]
                        assert member == (crit.exit[i] >= at[i]), (i, step)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.05])
    def test_degenerate_quantile_gives_infinite_budgets(self, q):
        # q above 1 comes from a robust-calibrated record
        rec = make_record(q=q)
        s = np.array([0.0, 1e-20, 0.2, 0.8, 1.0 - 1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crit = critical_epsilons(rec, s, TIGHT_MONOTONE)
        assert crit.method == TIGHT_MONOTONE
        if q == 0.0:
            # only a zero score is covered, and only at epsilon 0; a score
            # too close to 0 to widen gets the entry nearest 0, not nan
            tiny = np.nextafter(0.0, 1.0)
            np.testing.assert_array_equal(crit.entry, [0.0, tiny] + [np.inf] * 3)
            np.testing.assert_array_equal(crit.exit, [0.0] + [NEVER] * 4)
        else:
            np.testing.assert_array_equal(crit.entry, np.zeros(5))
            np.testing.assert_array_equal(crit.exit, np.full(5, np.inf))

    def test_tiny_quantile_keeps_entries_finite(self):
        # an odds ratio past the float range must not turn into an infinite,
        # overstated entry budget
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        s = np.array([0.5, 1.0 - 2.0**-53])
        for q in (1e-300, 1e-310, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entry = critical_epsilons(make_record(q=q), s).entry
            for si, ei in zip(s, entry):
                odds = (1 - mp.mpf(q)) * mp.mpf(si) / (mp.mpf(q) * (1 - mp.mpf(si)))
                assert 0.0 < ei <= mp.log(odds), (q, si)

    @pytest.mark.parametrize("logit,temperature", [(40.0, 1.0), (4.0, 0.1)])
    def test_label_still_covered_at_its_exit(self, logit, temperature):
        # the score of a confident logit rounds to 0; its exit must still be
        # one at which the label is in the restrictive set
        spec = ScoreSpec(temperature=temperature)
        rec = make_record(q=0.3, spec=spec)
        logits = np.array([[logit, 0.0]])
        crit = critical_epsilons(rec, score_all(spec, logits)[:, 0])
        true_exit = logit - temperature * np.log(0.7 / 0.3)
        assert 0.0 < crit.exit[0] <= true_exit
        assert restrictive_membership(rec, logits, crit.exit[0])[0, 0]

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.floats(-60, 60),
        temperature=st.floats(0.05, 5),
        bias=st.floats(-3, 3),
        q=st.floats(1e-12, 1 - 1e-12),
        lip=st.sampled_from([1.0, 0.37, 2.9]),
    )
    def test_budgets_never_overstate_mpmath(self, z, temperature, bias, q, lip):
        # the side of 0 follows the computed score, as vanilla membership
        # does; each budget's size must not exceed the 200-bit value
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        spec = ScoreSpec(temperature=temperature, bias=bias)
        rec = make_record(q=q, lip=lip, spec=spec)
        s = score_all(spec, np.array([[z]]))[:, 0]
        crit = critical_epsilons(rec, s)
        odds = (1 - mp.mpf(q)) / mp.mpf(q)
        threshold = mp.mpf(bias) + mp.mpf(temperature) * mp.log(odds)
        exit_true = (mp.mpf(z) - threshold) / mp.mpf(lip)
        tiny = np.nextafter(0.0, 1.0)
        if s[0] <= q:
            assert crit.entry[0] == 0.0
            assert 0.0 <= crit.exit[0] <= max(exit_true, 0)
        else:
            assert crit.exit[0] == NEVER
            assert tiny <= crit.entry[0] <= max(-exit_true, tiny)


class TestCoverageCurves:
    def reconstruct(self, rec, logits, labels, method, grid):
        """Direct oracle: recompute both coverages at every grid epsilon."""
        covmax = np.empty_like(grid)
        covmin = np.empty_like(grid)
        idx = np.arange(len(labels))
        for j, eps in enumerate(grid):
            covmax[j] = conservative_membership(rec, logits, eps, method)[
                idx, labels
            ].mean()
            covmin[j] = restrictive_membership(rec, logits, eps, method)[
                idx, labels
            ].mean()
        return covmax, covmin

    @pytest.mark.parametrize("method", [TIGHT_MONOTONE, GLOBAL_LIPSCHITZ])
    def test_curves_match_direct_reconstruction(self, method):
        rng = np.random.default_rng(23)
        spec = ScoreSpec()
        rec = make_record(q=0.45, spec=spec)
        logits = rng.standard_normal((60, 4)) * 1.5
        labels = rng.integers(0, 4, size=60)
        s_true = score_all(spec, logits)[np.arange(60), labels]
        crit = critical_epsilons(rec, s_true, method)
        covmax, covmin = coverage_curves(crit)

        grid = np.linspace(0, 3, 100)
        oracle_max, oracle_min = self.reconstruct(rec, logits, labels, method, grid)
        np.testing.assert_allclose(covmax(grid), oracle_max, atol=1e-12)
        np.testing.assert_allclose(covmin(grid), oracle_min, atol=1e-12)

    def test_monotonicity_and_start(self):
        rng = np.random.default_rng(24)
        rec = make_record(q=0.5)
        s = rng.uniform(size=100)
        crit = critical_epsilons(rec, s, TIGHT_MONOTONE)
        covmax, covmin = coverage_curves(crit)
        grid = np.linspace(0, 5, 400)
        assert np.all(np.diff(covmax(grid)) >= 0)
        assert np.all(np.diff(covmin(grid)) <= 0)
        # at zero budget both curves equal the vanilla coverage
        vanilla = np.mean(s <= 0.5)
        assert covmax(0.0) == pytest.approx(vanilla)
        assert covmin(0.0) == pytest.approx(vanilla)
        assert covmax(grid) [-1] == 1.0
        assert covmin(grid)[-1] == 0.0


def _exact_cdf(m, k, p):
    """P(Bin(m, p) <= k) at 200 bits: the binomial sum from its shorter side,
    each term from the last by their ratio. It converges at m = 20 000, where
    mpmath's betainc does not."""
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 200
    p = mp.mpf(p)
    if k >= m or p == 0:
        return mp.mpf(1)
    if p == 1:
        return mp.mpf(0)
    q = 1 - p
    if 2 * k < m:
        term = total = q**m
        for j in range(k):
            term *= (m - j) * p / ((j + 1) * q)
            total += term
        return total
    term = total = p**m
    for j in range(m, k + 1, -1):  # P(X = j) for j = m, ..., k + 1
        term *= j * q / ((m - j + 1) * p)
        total += term
    return 1 - total


# p anywhere in (0, 1), and within 1e-9 .. 0.1 of either end
_PROBABILITIES = st.one_of(
    st.floats(1e-9, 1 - 1e-9),
    st.floats(-9, -1).map(lambda e: 10.0**e),
    st.floats(-9, -1).map(lambda e: 1 - 10.0**e),
)


class TestBinomialTail:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([2, 3, 10, 100, 1000, 5000, 20_000]),
        p=_PROBABILITIES,
        z=st.floats(-8, 8),
    )
    def test_cdf_matches_the_exact_sum(self, m, p, z):
        # k within 8 standard deviations of mp: both continued fractions,
        # I_q(m - k, k + 1) above p = (k + 1) / (m + 1) and I_p below
        k = int(np.clip(np.rint(m * p + z * np.sqrt(m * p * (1 - p))), 0, m - 1))
        assert binomial_cdf(m, p, k) == pytest.approx(float(_exact_cdf(m, k, p)), rel=1e-12)

    @staticmethod
    def _assert_bound_above_the_root(m, frac, delta):
        # the band's own risk; covmin_minus is 1 - covmax_plus of a miss
        # count, so this covers both curves
        count = min(int(frac * m), m - 1)
        d = delta / (2 * m - 2)
        assert _exact_cdf(m, count, covmax_plus(m, count, d)) <= d

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 1000),
        frac=st.floats(0, 1),
        delta=st.sampled_from([0.001, 0.05, 0.1]),
    )
    def test_upper_bound_lies_above_the_exact_root(self, m, frac, delta):
        self._assert_bound_above_the_root(m, frac, delta)

    @settings(max_examples=6, deadline=None)
    @given(
        m=st.sampled_from([5000, 20_000]),
        frac=st.floats(0, 1),
        delta=st.sampled_from([0.001, 0.05, 0.1]),
    )
    def test_upper_bound_lies_above_the_exact_root_at_large_m(self, m, frac, delta):
        self._assert_bound_above_the_root(m, frac, delta)

    def test_cdf_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        for m, p, k in [(20, 0.3, 7), (50, 0.9, 45), (7, 0.05, 0), (100, 0.5, 50)]:
            exact = sum(
                mp.binomial(m, j) * mp.mpf(p) ** j * (1 - mp.mpf(p)) ** (m - j)
                for j in range(k + 1)
            )
            assert binomial_cdf(m, p, k) == pytest.approx(float(exact), rel=1e-12)

    def test_cdf_edges(self):
        assert binomial_cdf(10, 0.3, 10) == 1.0
        assert binomial_cdf(10, 0.0, 0) == 1.0
        assert binomial_cdf(10, 1.0, 9) == 0.0

    def test_covmax_plus_defining_property(self):
        # p = covmax_plus is the largest p with P(Bin(m,p) <= count) >= delta
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        m, count, delta = 20, 10, 0.05
        p = covmax_plus(m, count, delta)
        h = 1e-8

        def cdf_hp(pp):
            pp = mp.mpf(pp)
            return sum(
                mp.binomial(m, j) * pp**j * (1 - pp) ** (m - j)
                for j in range(count + 1)
            )

        assert cdf_hp(p - h) > delta
        assert cdf_hp(p + h) < delta

    def test_covmax_plus_edges(self):
        assert covmax_plus(20, 20, 0.05) == 1.0
        # count == 0: closed form 1 - delta**(1/m)
        assert covmax_plus(20, 0, 0.05) == pytest.approx(1 - 0.05 ** (1 / 20), abs=1e-12)
        assert covmin_minus(20, 20, 0.05) == 0.0

    def test_covmin_complementarity(self):
        assert covmin_minus(30, 4, 0.1) == pytest.approx(
            1 - covmax_plus(30, 4, 0.1), abs=1e-15
        )


class TestCertifiedBand:
    def make_band(self, m=50, delta=0.1, mode=APPENDIX_CORRECTED, seed=25):
        rng = np.random.default_rng(seed)
        rec = make_record(q=0.6)
        s = rng.uniform(size=m)
        crit = critical_epsilons(rec, s, TIGHT_MONOTONE)
        return crit, certified_band(crit, delta, mode)

    def test_band_brackets_empirical_curves(self):
        crit, band = self.make_band()
        covmax, covmin = coverage_curves(crit)
        grid = np.linspace(0, 4, 300)
        assert np.all(band.upper(grid) >= covmax(grid) - 1e-12)
        assert np.all(band.lower(grid) <= covmin(grid) + 1e-12)
        assert np.all(band.upper(grid) <= 1.0)
        assert np.all(band.lower(grid) >= 0.0)

    def test_delta_prime_split(self):
        _, band = self.make_band(m=50, delta=0.1)
        assert band.delta_prime == pytest.approx(0.1 / 98)

    def test_corrected_wider_than_raw(self):
        crit, corrected = self.make_band(mode=APPENDIX_CORRECTED)
        raw = certified_band(crit, 0.1, MAIN_TEXT_RAW)
        grid = np.linspace(0, 4, 200)
        assert np.all(corrected.upper(grid) >= raw.upper(grid) - 1e-12)
        assert np.all(corrected.lower(grid) <= raw.lower(grid) + 1e-12)
        # slack is exactly 1/m wherever neither curve is clipped
        interior = (corrected.upper(grid) < 1.0) & (raw.upper(grid) < 1.0)
        np.testing.assert_allclose(
            corrected.upper(grid)[interior] - raw.upper(grid)[interior],
            1.0 / crit.m,
            atol=1e-12,
        )

    def test_small_m_rejected(self):
        rec = make_record()
        crit = critical_epsilons(rec, np.array([0.4]), TIGHT_MONOTONE)
        with pytest.raises(ValueError):
            certified_band(crit, 0.1)

    def test_sidecar_is_json(self):
        import json

        _, band = self.make_band()
        doc = json.loads(band.sidecar({"alpha": 0.1}))
        assert doc["m"] == 50
        assert doc["correction_mode"] == APPENDIX_CORRECTED
        assert doc["alpha"] == 0.1


def _assert_band_rows_match_per_epsilon_loop(s, q):
    """`cli._band_rows` of the band of scores `s` equals the CSV formatted
    row by row over the whole grid of breakpoints."""
    from liprcp import cli

    crit = critical_epsilons(make_record(q=q), s, TIGHT_MONOTONE)
    band = certified_band(crit, 0.1)
    covmax, covmin = coverage_curves(crit)
    grid = np.unique(np.concatenate([[0.0], covmax.breakpoints, covmin.breakpoints]))
    lines = ["epsilon,covmin_minus,covmin_emp,covmax_emp,covmax_plus"]
    for eps in grid:
        cells = [eps, band.lower(eps), covmin(eps), covmax(eps), band.upper(eps)]
        lines.append(",".join(repr(float(v)) for v in cells))
    assert "".join(cli._band_rows(band)) == "\n".join(lines) + "\n"


class TestClopperPearsonArrays:
    def test_array_calls_match_scalar_calls(self):
        rng = np.random.default_rng(26)
        for m in (1, 2, 7, 50, 1000):
            counts = np.unique(np.concatenate([[0, m], rng.integers(0, m + 1, 40)]))
            delta = 0.1 / max(2 * m - 2, 1)
            upper = covmax_plus(m, counts, delta)
            lower = covmin_minus(m, counts, delta)
            assert isinstance(upper, np.ndarray) and upper.shape == counts.shape
            np.testing.assert_array_equal(
                upper, [covmax_plus(m, int(k), delta) for k in counts]
            )
            np.testing.assert_array_equal(
                lower, [covmin_minus(m, int(k), delta) for k in counts]
            )
        assert isinstance(covmax_plus(30, 4, 0.1), float)
        assert isinstance(covmin_minus(30, 4, 0.1), float)
        cdf = binomial_cdf(20, np.array([0.0, 0.3, 1.0]), np.array([5, 20, 19]))
        np.testing.assert_array_equal(
            cdf, [binomial_cdf(20, 0.0, 5), binomial_cdf(20, 0.3, 20), 0.0]
        )
        assert isinstance(binomial_cdf(20, 0.3, 7), float)

    @pytest.mark.parametrize("m", [2, 3, 1000, 20_000, 50_000])
    @pytest.mark.parametrize("delta", [0.001, 0.1, 0.5])
    def test_bracket_at_large_m_and_extreme_counts(self, m, delta):
        # the band's risk split delta / (2m - 2) at the counts criterion 5
        # rarely draws; F(0) = (1 - p)^m and F(m - 1) = 1 - p^m are exact
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 200
        d = delta / (2 * m - 2)
        h = mp.mpf(1e-8)
        tails = {0: lambda p: (1 - p) ** m, m - 1: lambda p: 1 - p**m}
        p_hat = covmax_plus(m, np.array([0, m - 1, m]), d)
        assert p_hat[2] == 1.0
        for p, (count, cdf) in zip(p_hat[:2], tails.items()):
            p = mp.mpf(p)
            assert cdf(max(p - h, mp.mpf(0))) > d, count
            assert cdf(min(p + h, mp.mpf(1))) < d, count

    def test_bracket_guard_rejects_a_wrong_inverse(self, monkeypatch, tmp_path, capsys):
        import json

        from liprcp import audit, cli, datasets

        exact = audit._clopper_pearson_root
        monkeypatch.setattr(audit, "_clopper_pearson_root", lambda m, c, d: exact(m, c, d) + 1e-6)
        rec = make_record(q=0.6)
        crit = critical_epsilons(rec, np.random.default_rng(27).uniform(size=40))
        with pytest.raises(audit.BandInversionError):
            certified_band(crit, 0.1)

        rng = np.random.default_rng(28)
        logits = datasets.LabeledDataset(
            data=rng.standard_normal((40, 3)),
            labels=rng.integers(0, 3, size=40),
            ids=np.arange(40),
            kind=datasets.PRECOMPUTED_LOGITS,
        )
        datasets.save_csv(logits, tmp_path / "logits.csv")
        (tmp_path / "record.json").write_text(rec.to_json())
        code = cli.main(
            ["audit", "--data", str(tmp_path / "logits.csv"),
             "--record", str(tmp_path / "record.json"),
             "--out", str(tmp_path / "band.csv")]
        )
        assert code == 1
        assert "bracket" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "band.csv").exists()

    @pytest.mark.parametrize("m", [2, 50, 3000])
    def test_band_rows_match_per_epsilon_loop(self, m):
        rng = np.random.default_rng(29)
        # rounded scores give tied thresholds and repeated counts
        s = np.round(rng.uniform(size=m), 2)
        _assert_band_rows_match_per_epsilon_loop(s, q=0.6)

    @pytest.mark.parametrize("q", [0.6, 0.97])
    def test_band_rows_merge_blocks_of_both_curves(self, q):
        # distinct scores give each curve several blocks of breakpoints
        _assert_band_rows_match_per_epsilon_loop(
            np.random.default_rng(29).uniform(size=9000), q
        )

    @pytest.mark.parametrize(
        "m",
        [2, 511, 512, 513, 2047, 2048, 2049, 5000,
         INVERT_COUNTS - 1, INVERT_COUNTS, INVERT_COUNTS + 1, 2 * INVERT_COUNTS + 1],
    )
    def test_blocked_inversion_equals_one_call(self, m, monkeypatch):
        from liprcp import audit

        rng = np.random.default_rng(30)
        counts = np.sort(rng.integers(0, m + 1, size=m))
        delta = 0.1 / (2 * m - 2)
        for bound in (covmax_plus, covmin_minus):
            monkeypatch.setattr(audit, "INVERT_COUNTS", m + 1)
            whole = bound(m, counts, delta).tobytes()
            for size in (511, 2048, INVERT_COUNTS):
                monkeypatch.setattr(audit, "INVERT_COUNTS", size)
                assert bound(m, counts, delta).tobytes() == whole
        # the band's own steps, when they span several blocks
        crit = critical_epsilons(make_record(q=0.6), rng.uniform(size=m), TIGHT_MONOTONE)
        band = certified_band(crit, 0.1)
        covmax, covmin = coverage_curves(crit)
        dp, slack = band.delta_prime, np.nextafter(1.0 / m, 1.0)
        upper = covmax_plus(m, np.rint(covmax.values * m).astype(int), dp) + slack
        upper = np.minimum(1.0, np.nextafter(upper, np.inf))
        misses = np.rint((1.0 - covmin.values) * m).astype(int)
        lower = np.maximum(0.0, np.nextafter(covmin_minus(m, misses, dp) - slack, -np.inf))
        assert band.upper.values.tobytes() == upper.tobytes()
        assert band.lower.values.tobytes() == lower.tobytes()

    def test_blocked_inversion_names_the_first_bad_count(self, monkeypatch):
        from liprcp import audit

        exact = audit._clopper_pearson_root
        # counts 2100 and 4500, in two later blocks, get a wrong root
        monkeypatch.setattr(audit, "INVERT_COUNTS", 1024)
        monkeypatch.setattr(audit, "_clopper_pearson_root", lambda m, c, d: np.where(
            np.isin(c, [2100, 4500]), exact(m, c, d) + 1e-6, exact(m, c, d)))
        for bound in (covmax_plus, covmin_minus):
            with pytest.raises(audit.BandInversionError, match=r"m=5000, count=2100,"):
                bound(5000, np.arange(5001), 1e-5)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_band_rows_match_per_epsilon_loop_in_small_blocks(self, rows, monkeypatch):
        from liprcp import audit

        monkeypatch.setattr(audit, "BLOCK_ROWS", rows)
        s = np.round(np.random.default_rng(31).uniform(size=120), 2)
        _assert_band_rows_match_per_epsilon_loop(s, q=0.6)

    @pytest.mark.parametrize("q", [0.6, 0.97])
    def test_table_blocks_hold_at_most_block_rows(self, q):
        from liprcp import audit

        m = 3 * audit.BLOCK_ROWS + 5
        s = np.random.default_rng(32).uniform(size=m)
        band = certified_band(critical_epsilons(make_record(q=q), s, TIGHT_MONOTONE), 0.1)
        blocks = list(band.table())
        assert all(1 <= len(b) <= audit.BLOCK_ROWS for b in blocks)
        # together the blocks are the grid: 0, then both curves' breakpoints
        eps = np.concatenate([b[:, 0] for b in blocks])
        assert eps.tobytes() == band.grid.tobytes()
        assert eps[0] == 0.0 and np.all(np.diff(eps) > 0) and eps.size <= m + 1


def _exact_root(m, k, delta):
    """A bracket (lo, hi), at most 2^-100 wide, of the root p of
    P(Bin(m, p) <= k) = delta: bisection on the 200-bit sum, from just below
    the upper bound that `covmax_plus` gives."""
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 200
    hi = mp.mpf(covmax_plus(m, k, delta))
    lo = hi - mp.mpf(2) ** -40
    assert _exact_cdf(m, k, lo) > delta > _exact_cdf(m, k, hi)
    while hi - lo > mp.mpf(2) ** -100:
        mid = (lo + hi) / 2
        if _exact_cdf(m, k, mid) > delta:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestOutwardRounding:
    def test_band_lies_outside_the_exact_bounds(self):
        mp = pytest.importorskip("mpmath")
        # 1 - p rounded to nearest exceeded 1 - the root at miss counts 2, 7
        # and 8; the bracket's upper end makes the check hold for the root
        delta = 0.1 / 1998
        for k in range(1, 40):
            assert mp.mpf(covmin_minus(1000, k, delta)) <= 1 - _exact_root(1000, k, delta)[1], k
        for m in (37, 200):
            rng = np.random.default_rng(m)
            crit = critical_epsilons(make_record(q=0.6), rng.uniform(size=m), TIGHT_MONOTONE)
            band = certified_band(crit, 0.1)
            covmax, covmin = coverage_curves(crit)
            dp, slack = band.delta_prime, mp.mpf(1) / m
            # F is decreasing in p, so a value v lies on the safe side of
            # root + 1/m (or 1 - root - 1/m) iff F at v - 1/m (1 - 1/m - v)
            # is at most delta': one exact sum per value, not a bisection
            for v, k in zip(band.upper.values, np.rint(covmax.values * m).astype(int)):
                assert v == 1.0 or _exact_cdf(m, int(k), mp.mpf(v) - slack) <= dp, (m, k)
            misses = np.rint((1.0 - covmin.values) * m).astype(int)
            for v, k in zip(band.lower.values, misses):
                assert v == 0.0 or _exact_cdf(m, int(k), 1 - slack - mp.mpf(v)) <= dp, (m, k)
