import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liprcp import attack
from liprcp.attack import (
    AttackConfig,
    coverage_under_attack,
    pgd_attack_batch,
    undecided_rows,
)
from liprcp.conformal import (
    CalibrationRecord,
    calibrate,
    coverage_from_membership,
    vanilla_membership,
)
from liprcp.datasets import make_gaussian_mixture
from liprcp.lipnet import (
    BLOCK_ROWS,
    AffineLayer,
    LipschitzClassifier,
    Trace,
    build_orthogonal,
    forward,
    input_gradient_batch,
    train_toy,
)
from liprcp.rng import substream
from liprcp.scores import LAC_SIGMOID, LAC_SOFTMAX, ScoreSpec, score


def linear_model(W, b=None):
    W = np.asarray(W, dtype=float)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=float)
    return LipschitzClassifier(layers=(AffineLayer(W, b, orthogonal=False),))


class TestConfig:
    def test_default_step(self):
        assert AttackConfig(epsilon=0.8).effective_step == 0.2
        assert AttackConfig(epsilon=0.8, step_size=0.05).effective_step == 0.05

    def test_validation(self):
        for epsilon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                AttackConfig(epsilon=epsilon)

    @pytest.mark.parametrize(
        "option",
        [{"steps": -3}, {"restarts": 0}, {"restarts": -2}, {"step_size": -0.5},
         {"step_size": 0.0}, {"step_size": float("nan")}],
    )
    def test_rejects_bad_attack_options(self, option):
        with pytest.raises(ValueError):
            AttackConfig(epsilon=0.1, **option)


class TestBallConstraint:
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_perturbation_stays_in_ball(self, restarts):
        rng = np.random.default_rng(41)
        model = LipschitzClassifier(layers=(build_orthogonal(6, 3, seed=1),))
        x = rng.standard_normal((20, 6))
        y = rng.integers(0, 3, size=20)
        cfg = AttackConfig(epsilon=0.5, steps=15, restarts=restarts, seed=2)
        xa = pgd_attack_batch(model, x, y, cfg)
        norms = np.linalg.norm(xa - x, axis=1)
        assert np.all(norms <= 0.5 + 1e-10)

    def test_zero_epsilon_identity(self):
        model = LipschitzClassifier(layers=(build_orthogonal(4, 2, seed=3),))
        x = np.ones((5, 4))
        xa = pgd_attack_batch(model, x, np.zeros(5, dtype=int), AttackConfig(epsilon=0.0))
        np.testing.assert_array_equal(xa, x)


class TestLinearOptimality:
    def test_matches_closed_form_on_linear_model(self):
        # for a linear logit w.x + b the worst case in the ball is
        # logit - epsilon * ||w||, reached exactly by normalized descent
        rng = np.random.default_rng(42)
        W = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        model = linear_model(W, b)
        x = rng.standard_normal(5)
        eps = 0.7
        cfg = AttackConfig(epsilon=eps, steps=60, restarts=2, seed=5)
        xa = pgd_attack_batch(model, x[None, :], np.array([1]), cfg)
        achieved = forward(model, xa)[0, 1]
        target = W[1] @ x + b[1] - eps * np.linalg.norm(W[1])
        assert achieved == pytest.approx(target, abs=1e-9)

    def test_attack_never_hurts_objective(self):
        rng = np.random.default_rng(43)
        model = LipschitzClassifier(
            layers=(build_orthogonal(4, 4, seed=6), build_orthogonal(4, 3, seed=7))
        )
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        cfg = AttackConfig(epsilon=0.4, steps=25, restarts=3, seed=8)
        clean = forward(model, x)[np.arange(30), y]
        attacked = forward(model, pgd_attack_batch(model, x, y, cfg))[np.arange(30), y]
        # the attack lowers the true logit, never raises it
        assert np.all(attacked <= clean + 1e-12)

    def test_score_drop_bounded_by_lipschitz(self):
        rng = np.random.default_rng(44)
        model = LipschitzClassifier(
            layers=(build_orthogonal(5, 5, seed=9), build_orthogonal(5, 2, seed=10))
        )
        spec = ScoreSpec()
        x = rng.standard_normal((20, 5))
        y = rng.integers(0, 2, size=20)
        eps = 0.6
        cfg = AttackConfig(epsilon=eps, steps=30, restarts=2, seed=11)
        xa = pgd_attack_batch(model, x, y, cfg)
        bound = model.lipschitz_product * spec.score_lipschitz * eps
        for i in range(20):
            s0 = score(spec, forward(model, x[i : i + 1])[0], int(y[i]))
            s1 = score(spec, forward(model, xa[i : i + 1])[0], int(y[i]))
            assert s1 - s0 <= bound + 1e-12


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(45)
        model = LipschitzClassifier(layers=(build_orthogonal(4, 3, seed=12),))
        x = rng.standard_normal((10, 4))
        y = rng.integers(0, 3, size=10)
        cfg = AttackConfig(epsilon=0.3, steps=10, restarts=4, seed=99)
        a = pgd_attack_batch(model, x, y, cfg)
        b = pgd_attack_batch(model, x, y, cfg)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(46)
        model = LipschitzClassifier(
            layers=(build_orthogonal(4, 4, seed=13), build_orthogonal(4, 3, seed=14))
        )
        x = rng.standard_normal((10, 4))
        y = rng.integers(0, 3, size=10)
        # a single step keeps the random restart offsets visible
        cfg1 = AttackConfig(epsilon=0.3, steps=1, restarts=5, seed=1)
        cfg2 = AttackConfig(epsilon=0.3, steps=1, restarts=5, seed=2)
        a = pgd_attack_batch(model, x, y, cfg1)
        b = pgd_attack_batch(model, x, y, cfg2)
        assert not np.array_equal(a, b)


class TestCoverageUnderAttack:
    def test_monotone_in_epsilon_and_within_certificate(self):
        rng = np.random.default_rng(47)
        model = LipschitzClassifier(layers=(build_orthogonal(4, 3, seed=15),))
        spec = ScoreSpec()
        rec = CalibrationRecord(
            q_alpha=0.6, alpha=0.1, n_cal=100, score_spec=spec, lipschitz_product=1.0
        )
        x = rng.standard_normal((100, 4))
        y = rng.integers(0, 3, size=100)
        prev = None
        for eps in (0.0, 0.2, 0.5, 1.0):
            cov, _ = coverage_under_attack(
                model, rec, x, y, AttackConfig(epsilon=eps, steps=20, seed=16)
            )
            if prev is not None:
                assert cov <= prev + 1e-12
            prev = cov

    def test_set_size_is_measured_at_the_attacked_inputs(self):
        rng = np.random.default_rng(50)
        model = LipschitzClassifier(
            layers=(build_orthogonal(4, 4, seed=19), build_orthogonal(4, 3, seed=20))
        )
        rec = CalibrationRecord(
            q_alpha=0.7, alpha=0.1, n_cal=100, score_spec=ScoreSpec(), lipschitz_product=1.0
        )
        x = rng.standard_normal((200, 4))
        y = rng.integers(0, 3, size=200)
        sizes = []
        for eps in (0.0, 0.5, 1.5):
            cfg = AttackConfig(epsilon=eps, steps=10, seed=21)
            cov, size = coverage_under_attack(model, rec, x, y, cfg)
            mask = undecided_rows(model, rec, forward(model, x), y, cfg)
            member = vanilla_membership(
                rec, forward(model, pgd_attack_batch(model, x, y, cfg, mask=mask, cal=rec))
            )
            assert cov == coverage_from_membership(member, y)
            assert size == member.sum(axis=1).mean()
            sizes.append(size)
        # the attack moves the sets, so the size is not the clean one repeated
        assert len(set(sizes)) == 3


@pytest.fixture(scope="module")
def trained_model():
    """The trained all-orthogonal classifier of the acceptance suite."""
    ds = make_gaussian_mixture(2000, 6, 3, separation=6.0, seed=101)
    model = LipschitzClassifier(
        layers=(build_orthogonal(6, 6, seed=1), build_orthogonal(6, 3, seed=2))
    )
    return train_toy(model, ds.data, ds.labels, epochs=120, lr=0.5, seed=3)


def unpruned_coverage(model, rec, x, y, cfg):
    member = vanilla_membership(rec, forward(model, pgd_attack_batch(model, x, y, cfg, cal=rec)))
    return coverage_from_membership(member, y)


class TestPruning:
    def test_matches_unpruned_on_acceptance_mixtures(self, trained_model):
        # the 20 seeded mixtures and the epsilon grid of acceptance criterion 7
        spec = ScoreSpec()
        undecided_total = 0
        for run in range(20):
            ds = make_gaussian_mixture(1200, 6, 3, separation=6.0, seed=4000 + run)
            cal, ev = ds.take(np.arange(1000)), ds.take(np.arange(1000, 1200))
            cal_scores = score(spec, forward(trained_model, cal.data), cal.labels)
            rec = calibrate(cal_scores, 0.1, spec, trained_model.lipschitz_product)
            for eps in (0.0, 0.1, 0.25, 0.5):
                cfg = AttackConfig(epsilon=eps, steps=10, restarts=2, seed=run)
                pruned, _ = coverage_under_attack(trained_model, rec, ev.data, ev.labels, cfg)
                full = unpruned_coverage(trained_model, rec, ev.data, ev.labels, cfg)
                assert pruned * ev.n == full * ev.n
                logits = forward(trained_model, ev.data)
                undecided_total += undecided_rows(
                    trained_model, rec, logits, ev.labels, cfg
                ).sum()
        # the comparison is only informative if some rows were attacked
        assert undecided_total > 0

    def test_full_and_empty_masks(self, trained_model):
        rng = np.random.default_rng(48)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, size=40)
        cfg = AttackConfig(epsilon=0.4, steps=8, restarts=3, seed=17)
        full = pgd_attack_batch(trained_model, x, y, cfg)
        masked = pgd_attack_batch(trained_model, x, y, cfg, mask=np.ones(40, bool))
        np.testing.assert_array_equal(masked, full)
        none = pgd_attack_batch(trained_model, x, y, cfg, mask=np.zeros(40, bool))
        np.testing.assert_array_equal(none, x)

    def test_masked_rows_match_unmasked_run(self, trained_model):
        # several restarts with few steps keep the restart noise visible, so
        # this fails if masked rows drew different noise
        rng = np.random.default_rng(49)
        x = rng.standard_normal((60, 6))
        y = rng.integers(0, 3, size=60)
        mask = rng.uniform(size=60) < 0.3
        cfg = AttackConfig(epsilon=0.5, steps=2, restarts=5, seed=18)
        full = pgd_attack_batch(trained_model, x, y, cfg)
        masked = pgd_attack_batch(trained_model, x, y, cfg, mask=mask)
        np.testing.assert_allclose(masked[mask], full[mask], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(masked[~mask], x[~mask])

    def test_mask_must_be_boolean_per_row(self, trained_model):
        x = np.zeros((4, 6))
        y = np.zeros(4, dtype=int)
        cfg = AttackConfig(epsilon=0.1, steps=1)
        for bad in (np.array([0, 2]), np.ones(3, bool)):
            with pytest.raises(ValueError):
                pgd_attack_batch(trained_model, x, y, cfg, mask=bad)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        weight_scale=st.floats(0.3, 4.0),
        temperature=st.sampled_from([0.1, 1.0]),
        q=st.one_of(
            st.sampled_from([1e-12, 1e-6, 1e-3, 1 - 1e-3, 1 - 1e-6, 1 - 1e-12]),
            st.floats(0.01, 0.99),
        ),
        eps=st.floats(0.05, 1.5),
    )
    def test_settled_rows_never_flip_under_full_attack(
        self, seed, weight_scale, temperature, q, eps
    ):
        # the first layer is not orthogonal, so the Lipschitz product comes
        # from its spectral norm; the 1e-6 certification margin covers rounding
        rng = np.random.default_rng(seed)
        w = weight_scale * rng.standard_normal((6, 5)) / np.sqrt(5)
        model = LipschitzClassifier(
            layers=(
                AffineLayer(w, rng.standard_normal(6), orthogonal=False),
                build_orthogonal(6, 3, seed=seed),
            )
        )
        spec = ScoreSpec(temperature=temperature)
        rec = CalibrationRecord(
            q_alpha=q, alpha=0.1, n_cal=100, score_spec=spec, lipschitz_product=1.0
        )
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 3, size=40)
        cfg = AttackConfig(epsilon=eps, steps=15, restarts=2, seed=seed)
        logits = forward(model, x)
        covered = vanilla_membership(rec, logits)[np.arange(40), y]
        settled = ~undecided_rows(model, rec, logits, y, cfg)
        attacked = pgd_attack_batch(model, x, y, cfg)
        after = vanilla_membership(rec, forward(model, attacked))[np.arange(40), y]
        np.testing.assert_array_equal(after[settled], covered[settled])


def stopping_case(n, kind, seed=0):
    """A model with a hidden GroupSort2 layer, n rows, and a record whose
    quantile puts about half the true labels in their sets."""
    rng = np.random.default_rng(seed)
    model = LipschitzClassifier(
        layers=(
            AffineLayer(rng.standard_normal((6, 5)) / np.sqrt(5), rng.standard_normal(6)),
            AffineLayer(rng.standard_normal((3, 6)) / np.sqrt(6), rng.standard_normal(3)),
        )
    )
    x = rng.standard_normal((n, 5))
    y = rng.integers(0, 3, size=n)
    spec = ScoreSpec(kind=kind)
    rec = calibrate(score(spec, forward(model, x), y), 0.5, spec, model.lipschitz_product)
    return model, x, y, rec


def flipped_at(model, rec, out, y):
    """Rows whose true label is out of the set at `out`."""
    return ~vanilla_membership(rec, forward(model, out))[np.arange(y.size), y]


class TestStopping:
    """With a record, a row stops at its first coverage flip."""

    @pytest.mark.parametrize("kind", [LAC_SIGMOID, LAC_SOFTMAX])
    def test_flips_every_row_the_record_less_attack_flips(self, kind):
        model, x, y, rec = stopping_case(400, kind)
        cfg = AttackConfig(epsilon=0.5, steps=6, restarts=3, seed=1)
        full = flipped_at(model, rec, pgd_attack_batch(model, x, y, cfg), y)
        stopping = flipped_at(model, rec, pgd_attack_batch(model, x, y, cfg, cal=rec), y)
        assert 0 < full.sum() < y.size
        # so coverage never rises
        assert np.all(stopping[full])

    @pytest.mark.parametrize("kind", [LAC_SIGMOID, LAC_SOFTMAX])
    def test_a_row_ends_flipped_or_as_without_a_record(self, kind):
        # a row that never stops runs exactly as without a record; one that
        # stops returns the iterate it was tested at
        model, x, y, rec = stopping_case(400, kind, seed=1)
        cfg = AttackConfig(epsilon=0.5, steps=6, restarts=3, seed=2)
        full = pgd_attack_batch(model, x, y, cfg)
        out = pgd_attack_batch(model, x, y, cfg, cal=rec)
        # beyond rounding: a block that shrinks to one row multiplies it
        # through BLAS's matrix-vector path, which may round differently
        moved = np.abs(out - full).max(axis=1) > 1e-9
        assert moved.any()
        assert np.all(flipped_at(model, rec, out, y)[moved])
        assert np.all(np.linalg.norm(out - x, axis=1) <= 0.5 + 1e-10)

    @pytest.mark.parametrize(
        "n", [BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
    )
    def test_bit_identical_under_a_mask_and_in_one_block(self, monkeypatch, n):
        # few steps and several restarts keep the restart noise visible, so
        # this fails if masked rows drew different noise
        model, x, y, rec = stopping_case(n, LAC_SIGMOID, seed=n)
        mask = np.random.default_rng(n).uniform(size=n) < 0.7
        cfg = AttackConfig(epsilon=0.5, steps=3, restarts=3, seed=n)
        ref = pgd_attack_batch(model, x, y, cfg, cal=rec)
        masked = pgd_attack_batch(model, x, y, cfg, mask=mask, cal=rec)
        np.testing.assert_array_equal(bits(masked[mask]), bits(ref[mask]))
        np.testing.assert_array_equal(masked[~mask], x[~mask])
        with monkeypatch.context() as m:
            m.setattr(attack, "BLOCK_ROWS", n)
            whole = pgd_attack_batch(model, x, y, cfg, cal=rec)
        np.testing.assert_array_equal(bits(whole), bits(ref))


# The attack as first written, kept as the bit-for-bit reference: every
# attacked row at once, one `_pgd_step` per step, and a trace that
# allocates its arrays afresh in every pass.


def sort_pairs_oracle(z):
    """groupsort2 and the boolean mask of the pairs it swapped."""
    npairs = z.shape[-1] // 2
    a, b = z[..., 0 : 2 * npairs : 2], z[..., 1 : 2 * npairs : 2]
    out = z.copy()
    out[..., 0 : 2 * npairs : 2] = np.minimum(a, b)
    out[..., 1 : 2 * npairs : 2] = np.maximum(a, b)
    return out, a > b


def apply_swaps_oracle(v, swaps):
    out = v.copy()
    npairs = swaps.shape[-1]
    a = v[..., 0 : 2 * npairs : 2]
    b = v[..., 1 : 2 * npairs : 2]
    out[..., 0 : 2 * npairs : 2] = np.where(swaps, b, a)
    out[..., 1 : 2 * npairs : 2] = np.where(swaps, a, b)
    return out


def input_gradient_oracle(model, x, ys):
    params = [(layer.weight, layer.bias) for layer in model.layers]
    last = len(params) - 1
    h, swaps = x, []
    for i, (weight, bias) in enumerate(params):
        h = h @ weight.T + bias
        if i < last:
            h, swapped = sort_pairs_oracle(h)
            swaps.append(swapped)
    delta = np.eye(h.shape[-1])[ys]
    for i in range(last, -1, -1):
        if i < last:
            delta = apply_swaps_oracle(delta, swaps[i])
        delta = delta @ params[i][0]
    return delta


def project_ball_oracle(delta, epsilon):
    norms = np.linalg.norm(delta, axis=-1, keepdims=True)
    return delta * np.minimum(1.0, epsilon / np.maximum(norms, 1e-300))


def pgd_step_oracle(model, x, y, delta, step, epsilon):
    grad = input_gradient_oracle(model, x + delta, y)
    norms = np.linalg.norm(grad, axis=-1, keepdims=True)
    direction = np.where(norms > 0, grad / np.maximum(norms, 1e-300), 0.0)
    return project_ball_oracle(delta - step * direction, epsilon)


def pgd_attack_oracle(model, x, y, cfg, mask=None):
    rows = slice(None) if mask is None else np.flatnonzero(mask)
    ys = y[rows]
    rng = substream(cfg.seed, "pgd-restarts")
    best_delta = np.zeros((ys.size, x.shape[1]))
    best_logit = forward(model, x[rows])[np.arange(ys.size), ys]
    for restart in range(max(1, cfg.restarts)):
        if restart == 0:
            delta = np.zeros_like(best_delta)
        else:
            delta = project_ball_oracle(
                rng.standard_normal(x.shape)[rows] * cfg.epsilon, cfg.epsilon
            )
        for _ in range(cfg.steps):
            delta = pgd_step_oracle(model, x[rows], ys, delta, cfg.effective_step, cfg.epsilon)
        logit = forward(model, x[rows] + delta)[np.arange(ys.size), ys]
        better = logit < best_logit
        best_delta[better] = delta[better]
        best_logit[better] = logit[better]
    out = x.copy()
    out[rows] += project_ball_oracle(best_delta, cfg.epsilon)
    return out


def oracle_models(rng, d=6, c=3):
    """A one-layer linear model and one with a hidden width of 5 (one
    coordinate passes GroupSort2 unsorted). Class 0's logit has zero weights
    in the last layer, so rows labelled 0 have a zero gradient."""
    last_linear = rng.standard_normal((c, d))
    last_linear[0] = 0.0
    last_hidden = rng.standard_normal((c, 5))
    last_hidden[0] = 0.0
    return {
        "linear": LipschitzClassifier(layers=(AffineLayer(last_linear, rng.standard_normal(c)),)),
        "hidden5": LipschitzClassifier(
            layers=(
                AffineLayer(0.5 * rng.standard_normal((5, d)), rng.standard_normal(5)),
                AffineLayer(last_hidden, rng.standard_normal(c)),
            )
        ),
    }


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestAgainstParentOracle:
    """The blocked, preallocated attack reproduces the reference bit for bit."""

    @pytest.mark.parametrize("model_name", ["linear", "hidden5"])
    @pytest.mark.parametrize(
        "n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
    )
    def test_pgd_bit_identical(self, model_name, n):
        rng = np.random.default_rng(n)
        model = oracle_models(rng)[model_name]
        x = rng.standard_normal((n, 6))
        y = rng.integers(0, 3, size=n)
        assert np.any(y == 0)  # rows with a zero gradient
        masks = [None, rng.uniform(size=n) < 0.7]
        for restarts in (1, 3):
            cfg = AttackConfig(epsilon=0.6, steps=3, restarts=restarts, seed=n)
            for mask in masks:
                np.testing.assert_array_equal(
                    bits(pgd_attack_batch(model, x, y, cfg, mask=mask)),
                    bits(pgd_attack_oracle(model, x, y, cfg, mask=mask)),
                )

    @pytest.mark.parametrize("model_name", ["linear", "hidden5"])
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_input_gradient_bit_identical(self, model_name, integer_valued):
        rng = np.random.default_rng(7)
        model = oracle_models(rng)[model_name]
        n = BLOCK_ROWS + 1
        x = rng.standard_normal((n, 6))
        if integer_valued:
            # integer inputs and weights make tied GroupSort2 pairs common
            x = np.round(2 * x)
            model = LipschitzClassifier(
                layers=tuple(
                    AffineLayer(np.round(2 * layer.weight), np.round(layer.bias))
                    for layer in model.layers
                )
            )
        y = rng.integers(0, 3, size=n)
        expected = bits(input_gradient_oracle(model, x, y))
        np.testing.assert_array_equal(bits(input_gradient_batch(model, x, y)), expected)
        # through a larger trace whose buffers hold an earlier pass
        trace = Trace(model, n + 10)
        input_gradient_batch(model, rng.standard_normal((n + 10, 6)), np.zeros(n + 10, int), trace)
        np.testing.assert_array_equal(
            bits(input_gradient_batch(model, x, y, trace)), expected
        )


class TestMemory:
    @pytest.mark.parametrize("n", [4096, 16384])
    def test_peak_stays_linear_with_a_small_factor(self, n):
        # the restart noise and the best perturbations are the only
        # batch-sized arrays alive together (the reference attack peaked at
        # 6.4 n d 8 bytes here); a block's trace and the few arrays each
        # step allocates, all of BLOCK_ROWS rows, do not grow with n
        d = 32
        rng = np.random.default_rng(3)
        model = LipschitzClassifier(
            layers=(build_orthogonal(d, d, seed=1), build_orthogonal(d, 8, seed=2))
        )
        x = rng.standard_normal((n, d))
        y = rng.integers(0, 8, size=n)
        cfg = AttackConfig(epsilon=0.5, steps=3, restarts=2, seed=4)
        spec = ScoreSpec()
        rec = calibrate(score(spec, forward(model, x), y), 0.5, spec)
        block_constant = 16 * BLOCK_ROWS * d * 8
        # without a record, and with one that stops about half the rows
        for cal in (None, rec):
            tracemalloc.start()
            try:
                pgd_attack_batch(model, x, y, cfg, cal=cal)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * n * d * 8 + block_constant
