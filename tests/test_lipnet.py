import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from liprcp import lipnet
from liprcp.lipnet import (
    BLOCK_ROWS,
    AffineLayer,
    DimensionError,
    LipschitzClassifier,
    build_orthogonal,
    forward,
    groupsort2,
    input_gradient,
    train_toy,
)
from liprcp.scores import _softmax


def groupsort2_oracle(x):
    """groupsort2 as first written: a full copy, then half-size min and max."""
    out = x.copy()
    npairs = x.shape[-1] // 2
    a = out[..., 0 : 2 * npairs : 2]
    b = out[..., 1 : 2 * npairs : 2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    out[..., 0 : 2 * npairs : 2] = lo
    out[..., 1 : 2 * npairs : 2] = hi
    return out


def groupsort2_swaps_oracle(z):
    """Boolean mask of the pairs groupsort2 swaps (ties and NaN keep order)."""
    npairs = z.shape[-1] // 2
    return z[..., 0 : 2 * npairs : 2] > z[..., 1 : 2 * npairs : 2]


def apply_swaps_oracle(v, swaps):
    """The pairwise swap as first written: copies of both halves and np.where."""
    out = v.copy()
    npairs = swaps.shape[-1]
    a = out[..., 0 : 2 * npairs : 2].copy()
    b = out[..., 1 : 2 * npairs : 2].copy()
    out[..., 0 : 2 * npairs : 2] = np.where(swaps, b, a)
    out[..., 1 : 2 * npairs : 2] = np.where(swaps, a, b)
    return out


def linear_model(weight, bias=None, orthogonal=False):
    weight = np.asarray(weight, dtype=float)
    if bias is None:
        bias = np.zeros(weight.shape[0])
    return LipschitzClassifier(
        layers=(AffineLayer(weight=weight, bias=bias, orthogonal=orthogonal),)
    )


def random_deep_model(rng, dims=(6, 6, 6, 4)):
    layers = tuple(
        build_orthogonal(dims[i], dims[i + 1], seed=int(rng.integers(1 << 30)))
        for i in range(len(dims) - 1)
    )
    return LipschitzClassifier(layers=layers)


class TestBuildOrthogonal:
    def test_rows_orthonormal(self):
        for seed in (0, 1, 42):
            layer = build_orthogonal(3, 3, seed=seed)
            assert layer.orthogonal
            assert lipnet.orthogonality_residual(layer.weight) <= 1e-9

    def test_single_householder_reflector(self):
        # I - 2 v v^T with v = (1, 0) reflects the first axis
        v = np.array([1.0, 0.0])
        w = np.eye(2) - 2.0 * np.outer(v, v)
        np.testing.assert_allclose(w, np.diag([-1.0, 1.0]))

    def test_operator_norm_is_one(self):
        layer = build_orthogonal(5, 5, seed=42)
        # independent oracle: full SVD
        top_singular = np.linalg.svd(layer.weight, compute_uv=False)[0]
        assert abs(top_singular - 1.0) <= 1e-9
        assert abs(lipnet.spectral_norm(layer.weight) - 1.0) <= 1e-9

    def test_wide_truncation(self):
        layer = build_orthogonal(6, 3, seed=5)
        assert layer.weight.shape == (3, 6)
        assert lipnet.orthogonality_residual(layer.weight) <= 1e-9

    def test_out_dim_too_large(self):
        with pytest.raises(DimensionError):
            build_orthogonal(3, 4, seed=0)


class TestForward:
    def test_groupsort2_pairs(self):
        np.testing.assert_allclose(
            groupsort2(np.array([3.0, 1.0, 2.0, 5.0])), [1.0, 3.0, 2.0, 5.0]
        )

    def test_groupsort2_odd_tail_passthrough(self):
        np.testing.assert_allclose(
            groupsort2(np.array([2.0, 1.0, -7.0])), [1.0, 2.0, -7.0]
        )

    def test_groupsort2_norm_preserving(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((100, 8))
        np.testing.assert_array_equal(
            np.linalg.norm(groupsort2(v), axis=1), np.linalg.norm(v, axis=1)
        )

    def test_groupsort2_kernels_match_copy_based_oracle(self):
        rng = np.random.default_rng(5)
        for shape in [(1,), (2,), (7,), (8,), (30, 5), (30, 8), (3, 20, 5), (3, 20, 6)]:
            # ties, NaN and both signed zeros, compared bit for bit
            x = rng.integers(-2, 3, size=shape).astype(float)
            x.flat[::7] = np.nan
            x.flat[3::11] = -0.0
            np.testing.assert_array_equal(
                groupsort2(x).view(np.uint64), groupsort2_oracle(x).view(np.uint64)
            )
            # the trace's kernels: the sort records its swaps as -1 / 0, in
            # int64 masks and in the trace's int8 ones
            swaps = groupsort2_swaps_oracle(x)
            v = rng.standard_normal(shape)
            v.flat[::5] = np.nan
            v.flat[1::6] = -0.0
            v.flat[2::6] = 0.0
            for dtype in (np.int64, np.int8):
                recorded = np.empty(swaps.shape, dtype=dtype)
                sorted_x = np.empty(shape)
                lipnet._sort_pairs(x, sorted_x, recorded)
                np.testing.assert_array_equal(
                    sorted_x.view(np.uint64), groupsort2_oracle(x).view(np.uint64)
                )
                np.testing.assert_array_equal(recorded, -swaps.astype(dtype))
                swapped = v.copy()
                lipnet._swap_pairs(swapped, recorded, np.empty(swaps.shape, dtype=np.int64))
                np.testing.assert_array_equal(
                    swapped.view(np.uint64), apply_swaps_oracle(v, swaps).view(np.uint64)
                )

    def test_identity_model(self):
        model = linear_model(np.eye(3))
        x = np.array([0.1, -2.0, 7.0])
        np.testing.assert_allclose(forward(model, x), x)

    def test_scaling_layer(self):
        model = linear_model(2.0 * np.eye(2))
        np.testing.assert_allclose(forward(model, np.array([1.0, 1.0])), [2.0, 2.0])

    def test_dimension_mismatch(self):
        model = linear_model(np.eye(3))
        with pytest.raises(DimensionError):
            forward(model, np.zeros(4))


def forward_oracle(model, x):
    """The forward pass as first written: one layer loop over the whole batch."""
    h = np.asarray(x, dtype=float)
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        h = h @ layer.weight.T + layer.bias
        if i < last:
            h = groupsort2(h)
    return h


def blocked_forward_models(rng):
    """A linear model, one with an odd hidden width of 5, and a 32-32-32-8 stack."""
    last_hidden = rng.standard_normal((3, 5))
    return {
        "linear": (6, linear_model(rng.standard_normal((3, 6)), rng.standard_normal(3))),
        "hidden5": (6, LipschitzClassifier(layers=(
            AffineLayer(0.5 * rng.standard_normal((5, 6)), rng.standard_normal(5)),
            AffineLayer(last_hidden, rng.standard_normal(3)),
        ))),
        "32-32-32-8": (32, random_deep_model(rng, dims=(32, 32, 32, 8))),
    }


class TestBlockedForward:
    @pytest.mark.parametrize("model_name", ["linear", "hidden5", "32-32-32-8"])
    def test_bit_identical_to_one_layer_loop(self, model_name):
        rng = np.random.default_rng(17)
        d, model = blocked_forward_models(rng)[model_name]
        # one block up to BLOCK_ROWS rows, then 2 blocks of 512 and 513
        # rows, 3 of 683 and 5 of 1 000; and a single input vector
        shapes = [(n, d) for n in (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1, 5000)] + [(d,)]
        for shape in shapes:
            x = rng.standard_normal(shape)
            got, expected = forward(model, x), forward_oracle(model, x)
            assert got.shape == expected.shape == shape[:-1] + (model.n_classes,)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_peak_is_the_logits_plus_one_block(self, n):
        # the layer loop peaked at about 3 n d 8 bytes; the blocked pass
        # holds the (n, c) logits and one trace of BLOCK_ROWS rows
        d = 32
        model = random_deep_model(np.random.default_rng(5), dims=(d, d, d, 8))
        x = np.random.default_rng(6).standard_normal((n, d))
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * model.n_classes * 8 + 8 * BLOCK_ROWS * d * 8


class TestLipschitzConstant:
    def test_all_orthogonal_is_exactly_one(self):
        rng = np.random.default_rng(3)
        model = random_deep_model(rng)
        assert model.lipschitz_product == 1.0

    def test_scaling(self):
        assert linear_model(2.0 * np.eye(3)).lipschitz_product == pytest.approx(2.0)

    def test_random_layer_vs_sampled_sup(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((4, 4))
        sigma = lipnet.spectral_norm(w)
        dirs = rng.standard_normal((1_000_000, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled_sup = np.max(np.linalg.norm(dirs @ w.T, axis=1))
        assert sampled_sup <= sigma + 1e-12
        assert sigma - sampled_sup <= 1e-3

    def test_lipschitz_inequality_random_pairs(self):
        rng = np.random.default_rng(7)
        model = random_deep_model(rng)
        lip = model.lipschitz_product
        x = rng.standard_normal((10_000, 6))
        x2 = x + rng.standard_normal((10_000, 6))
        out_gap = np.linalg.norm(forward(model, x) - forward(model, x2), axis=1)
        in_gap = np.linalg.norm(x - x2, axis=1)
        assert np.all(out_gap <= lip * in_gap + 1e-9)


def sigma_max_oracle(w) -> mpmath.mpf:
    """Largest singular value of `w` to 200 bits.

    Power iteration in 200-bit arithmetic, started at LAPACK's top right
    singular vector. The Rayleigh quotient's error is quadratic in the
    vector's, so three steps from a float64 start leave it far below 1e-25
    relative (the eigsy cross-check below).
    """
    with mpmath.workprec(200):
        a = mpmath.matrix(w.tolist())
        v = mpmath.matrix(np.linalg.svd(w)[2][0].tolist())
        for _ in range(3):
            v = a.T * (a * v)
            v /= mpmath.norm(v)
        return mpmath.norm(a * v) / mpmath.norm(v)


class TestSpectralNorm:
    def test_oracle_matches_full_eigensolver(self):
        rng = np.random.default_rng(2024)
        for _ in range(2):
            w = rng.standard_normal((16, 16))
            with mpmath.workprec(200):
                a = mpmath.matrix(w.tolist())
                exact = mpmath.sqrt(max(mpmath.eigsy(a.T * a, eigvals_only=True)))
                assert abs(sigma_max_oracle(w) - exact) <= mpmath.mpf(1e-25) * exact

    def test_never_below_200_bit_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            w = rng.standard_normal((16, 16))
            with mpmath.workprec(200):
                assert mpmath.mpf(lipnet.spectral_norm(w)) >= sigma_max_oracle(w)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            lipnet.spectral_norm(np.array([[1.0, np.nan]]))


class TestInputGradient:
    def test_linear_model_gradient_is_row(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 5))
        model = linear_model(w)
        rec = input_gradient(model, rng.standard_normal(5), 2)
        np.testing.assert_allclose(rec.input_gradient, w[2])

    def test_zero_weights_zero_gradient(self):
        model = linear_model(np.zeros((2, 3)))
        rec = input_gradient(model, np.ones(3), 0)
        np.testing.assert_array_equal(rec.input_gradient, 0.0)

    def test_against_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(20):
            model = random_deep_model(rng, dims=(4, 4, 3))
            x = rng.standard_normal(4)
            y = int(rng.integers(3))
            grad = input_gradient(model, x, y).input_gradient
            fd = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd[i] = (forward(model, x + e)[y] - forward(model, x - e)[y]) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-4

    def test_gradient_norm_bounded_by_lipschitz_product(self):
        rng = np.random.default_rng(13)
        model = random_deep_model(rng)
        for _ in range(50):
            rec = input_gradient(model, rng.standard_normal(6), int(rng.integers(4)))
            assert np.linalg.norm(rec.input_gradient) <= model.lipschitz_product + 1e-6


class TestTrainToy:
    def make_task(self, seed=0, n=200):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        means = np.array([[-3.0, 0.0], [3.0, 0.0]])
        return means[labels] + rng.standard_normal((n, 2)), labels

    def test_zero_epochs_is_identity(self):
        model = linear_model(np.eye(2), orthogonal=True)
        x, y = self.make_task()
        assert train_toy(model, x, y, epochs=0, lr=0.1) is model

    def test_learns_separable_task(self):
        x, y = self.make_task(seed=5)
        model = LipschitzClassifier(
            layers=(build_orthogonal(2, 2, seed=1), build_orthogonal(2, 2, seed=2))
        )
        trained = train_toy(model, x, y, epochs=200, lr=0.5)
        acc = np.mean(np.argmax(forward(trained, x), axis=1) == y)
        assert acc >= 0.9

    def test_orthogonality_preserved(self):
        x, y = self.make_task(seed=6)
        model = LipschitzClassifier(
            layers=(build_orthogonal(2, 2, seed=3), build_orthogonal(2, 2, seed=4))
        )
        trained = train_toy(model, x, y, epochs=50, lr=0.3)
        for layer in trained.layers:
            assert lipnet.orthogonality_residual(layer.weight) <= 1e-8
        assert trained.lipschitz_product == 1.0

    @pytest.mark.parametrize(
        "option, message",
        [({"epochs": -1}, "epochs must be 0 or more"), ({"lr": 0.0}, "lr must be positive"),
         ({"lr": -1e3}, "lr must be positive"), ({"lr": float("nan")}, "lr must be positive")],
    )
    def test_rejects_bad_options(self, option, message):
        model = linear_model(np.eye(2), orthogonal=True)
        x, y = self.make_task()
        with pytest.raises(ValueError, match=message):
            train_toy(model, x, y, **{"epochs": 3, "lr": 0.1, **option})

    def test_non_finite_update_raises_without_warnings(self):
        x, y = self.make_task(seed=7)
        model = LipschitzClassifier(
            layers=(build_orthogonal(2, 2, seed=5), build_orthogonal(2, 2, seed=6))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lipnet.TrainingDivergedError, match="update diverged"):
                train_toy(model, x, y, epochs=5, lr=1e308)

    @pytest.mark.parametrize("seed", [2, 3, 5])
    @pytest.mark.parametrize("fill", [0.7, 0.0])
    def test_extreme_rows_end_without_warnings(self, seed, fill):
        # the loader accepts ±1e308 as finite: logits that far apart overflow
        # the softmax's shift, and with every cell extreme the first product
        rng = np.random.default_rng(seed)
        x = rng.choice([-1e308, 0.0, 1e308], size=(40, 4),
                       p=[(1 - fill) / 2, fill, (1 - fill) / 2])
        y = rng.integers(0, 2, size=40)
        model = LipschitzClassifier(
            layers=(build_orthogonal(4, 4, seed=seed), build_orthogonal(4, 2, seed=seed + 1))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                trained = train_toy(model, x, y, epochs=3, lr=0.5)
            except lipnet.TrainingDivergedError:
                return
        assert all(np.isfinite(layer.weight).all() for layer in trained.layers)

    def test_non_finite_softmax_is_loss_diverged(self):
        # 2e308 overflows to inf, and inf - inf makes the softmax NaN
        model = linear_model(np.array([[2.0, 0.0], [0.0, 1.0]]))
        x = np.array([[1e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lipnet.TrainingDivergedError, match="loss diverged"):
                train_toy(model, x, np.array([0, 1]), epochs=2, lr=0.1)

    def test_peak_is_one_trace_without_deltas(self):
        # one full-batch trace: the GroupSort2 outputs, the pre-activations,
        # the logits, int8 swap masks and the input-gradient buffer, which
        # training allocates but never writes, plus one (n, c) array of
        # room; delta buffers, int64 masks or a one-hot matrix would not fit
        n, d, c = 4096, 32, 8
        model = random_deep_model(np.random.default_rng(8), dims=(d, d, d, c))
        x = np.random.default_rng(9).standard_normal((n, d))
        y = np.random.default_rng(10).integers(0, c, size=n)
        tracemalloc.start()
        try:
            train_toy(model, x, y, epochs=2, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = 2 * n * d * 8 + n * d * 8 + n * c * 8 + 2 * n * (d // 2) + n * d * 8
        assert peak <= trace + n * c * 8

    def test_stalled_projection_is_a_value_error(self):
        # a singular value of 1e-200 needs about 1 100 Bjorck steps to reach 1
        with pytest.raises(ValueError, match="Bjorck projection stalled"):
            lipnet.bjorck_project(np.diag([1.0, 1e-200]))


def train_toy_oracle(model, x, ys, epochs, lr, temperature):
    """The trainer as one inlined forward and backward loop per epoch."""
    weights = [layer.weight.copy() for layer in model.layers]
    biases = [layer.bias.copy() for layer in model.layers]
    n = x.shape[0]
    onehot = np.zeros((n, model.n_classes))
    onehot[np.arange(n), ys] = 1.0
    last = len(weights) - 1
    for _ in range(epochs):
        h = x
        layer_inputs = []
        swap_masks = []
        for i in range(len(weights)):
            layer_inputs.append(h)
            z = h @ weights[i].T + biases[i]
            if i < last:
                swap_masks.append(groupsort2_swaps_oracle(z))
                z = groupsort2(z)
            h = z
        probs = _softmax(h / temperature)
        delta = (probs - onehot) / (n * temperature)
        for i in range(last, -1, -1):
            if i < last:
                delta = apply_swaps_oracle(delta, swap_masks[i])
            grad_w = delta.T @ layer_inputs[i]
            grad_b = delta.sum(axis=0)
            delta = delta @ weights[i]
            weights[i] -= lr * grad_w
            biases[i] -= lr * grad_b
        for i, layer in enumerate(model.layers):
            if layer.orthogonal:
                weights[i] = lipnet.bjorck_project(weights[i])
    return weights, biases


class TestTrainToyOracle:
    def test_bit_identical_to_inlined_loop(self):
        # a non-orthogonal first layer, an odd hidden width (5, so one
        # coordinate passes the activation unsorted) and T != 1
        rng = np.random.default_rng(31)
        x = rng.standard_normal((120, 6))
        ys = rng.integers(0, 3, size=120)
        model = LipschitzClassifier(
            layers=(
                AffineLayer(0.6 * rng.standard_normal((5, 6)), rng.standard_normal(5)),
                build_orthogonal(5, 5, seed=4),
                build_orthogonal(5, 3, seed=5),
            )
        )
        trained = train_toy(model, x, ys, epochs=25, lr=0.4, seed=9, temperature=0.7)
        weights, biases = train_toy_oracle(model, x, ys, 25, 0.4, 0.7)
        for layer, w, b in zip(trained.layers, weights, biases):
            np.testing.assert_array_equal(layer.weight, w)
            np.testing.assert_array_equal(layer.bias, b)
        # the trained model's certificate bounds its true Lipschitz product
        with mpmath.workprec(200):
            assert mpmath.mpf(trained.lipschitz_product) >= sigma_max_oracle(weights[0])


class TestSerialization:
    def test_round_trip_bit_stable(self):
        rng = np.random.default_rng(9)
        model = random_deep_model(rng)
        text = lipnet.to_json(model)
        back = lipnet.from_json(text)
        for a, b in zip(model.layers, back.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.orthogonal == b.orthogonal
        assert lipnet.to_json(back) == text

    def test_linear_ball_infimum_closed_form(self):
        # single affine model: inf of logit y over the ball is exactly
        # logit_y - eps * ||row_y||
        rng = np.random.default_rng(21)
        w = rng.standard_normal((3, 4))
        model = linear_model(w)
        x = rng.standard_normal(4)
        eps = 0.7
        for y in range(3):
            direction = -w[y] / np.linalg.norm(w[y])
            achieved = forward(model, x + eps * direction)[y]
            expected = forward(model, x)[y] - eps * np.linalg.norm(w[y])
            assert achieved == pytest.approx(expected, abs=1e-12)
