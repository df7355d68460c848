"""Small 1-Lipschitz classifiers with certified constants and analytic gradients.

Models are stacks of affine layers interleaved with the GroupSort2
activation (sort each consecutive disjoint pair of coordinates ascending).
GroupSort2 is a norm-preserving permutation of its input, so the Lipschitz
constant of the whole network is the product of the affine layers' spectral
norms, and it equals 1 exactly when every layer has orthonormal rows.

Everything here is plain numpy; forward passes and gradients accept batches
so the attack and audit pipelines stay vectorized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rng import substream
from .scores import _softmax, require_keys

ORTHO_TOL = 1e-9
PROJ_TOL = 1e-10
PROJ_MAX_ITERS = 200


class DimensionError(ValueError):
    pass


class TrainingDivergedError(ValueError):
    pass


@dataclass(frozen=True)
class AffineLayer:
    """Affine map x -> W x + b, optionally constrained to orthonormal rows."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    orthogonal: bool = False

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionError(
                f"weight {w.shape} incompatible with bias {b.shape}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        if self.orthogonal:
            res = orthogonality_residual(w)
            # NaN weights give a NaN residual, which this rejects too
            if not res <= ORTHO_TOL:
                raise ValueError(
                    f"layer flagged orthogonal but residual {res:.3e} > {ORTHO_TOL}"
                )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def orthogonality_residual(weight: np.ndarray) -> float:
    """Max-abs deviation of W W^T from the identity (orthonormal rows)."""
    w = np.asarray(weight, dtype=float)
    gram = w @ w.T
    return float(np.max(np.abs(gram - np.eye(w.shape[0]))))


def groupsort2(x: np.ndarray) -> np.ndarray:
    """Sort each consecutive disjoint pair of coordinates ascending.

    Works on a single vector or a batch (last axis is the feature axis).
    An odd trailing coordinate passes through unchanged. The pair minima
    and maxima are written straight into the one output array, so a call
    allocates nothing else of the input's size.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    _sort_pairs(x, out)
    return out


def _sort_pairs(z: np.ndarray, out: np.ndarray, swaps: np.ndarray | None = None) -> None:
    """Write groupsort2(z) into `out`; mark the pairs it swapped in `swaps`.

    `swaps` (int8 in the trace, one entry per pair) gets -1, all bits set,
    where the pair was out of order and 0 elsewhere: ties and NaN keep order.
    """
    npairs = z.shape[-1] // 2
    a = z[..., 0 : 2 * npairs : 2]
    b = z[..., 1 : 2 * npairs : 2]
    if swaps is not None:
        np.greater(a, b, out=swaps)
        np.negative(swaps, out=swaps)
    np.minimum(a, b, out=out[..., 0 : 2 * npairs : 2])
    np.maximum(a, b, out=out[..., 1 : 2 * npairs : 2])
    if z.shape[-1] % 2:
        out[..., -1] = z[..., -1]


def _swap_pairs(v: np.ndarray, swaps: np.ndarray, scratch: np.ndarray) -> None:
    """Exchange, in place, the pairs of `v` that `swaps` marks with -1.

    Bit-exact for every value, NaN and signed zeros included: the XOR of a
    pair's int64 views, masked by `swaps` (an int8 mask sign-extends), is
    XORed into both halves. `scratch` is an int64 array of `swaps`' shape.
    """
    npairs = swaps.shape[-1]
    bits = v.view(np.int64)
    a = bits[..., 0 : 2 * npairs : 2]
    b = bits[..., 1 : 2 * npairs : 2]
    np.bitwise_xor(a, b, out=scratch)
    np.bitwise_and(scratch, swaps, out=scratch)
    np.bitwise_xor(a, scratch, out=a)
    np.bitwise_xor(b, scratch, out=b)


def spectral_norm(weight: np.ndarray) -> float:
    """Certified upper bound on the operator 2-norm of `weight`.

    LAPACK's largest singular value, raised by a relative 1e-12 so that its
    rounding (at most a few ulps low) cannot make the bound too small.
    """
    w = np.asarray(weight, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weight entries")
    return float(np.linalg.norm(w, 2)) * (1.0 + 1e-12)


@dataclass(frozen=True)
class LipschitzClassifier:
    """Affine + GroupSort2 stack with a certified Lipschitz product.

    GroupSort2 is applied between consecutive affine layers (never after
    the last one, whose outputs are the class logits).
    """

    layers: tuple[AffineLayer, ...]
    lipschitz_product: float = field(init=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionError("model needs at least one affine layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise DimensionError(
                    f"layer dims {prev.out_dim} -> {nxt.in_dim} do not chain"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "lipschitz_product", _lipschitz_product(layers))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_dim


def _lipschitz_product(layers) -> float:
    """Product of the layers' spectral-norm bounds.

    Layers flagged orthogonal contribute exactly 1, so all-orthogonal stacks
    get lipschitz_product == 1.0 with no floating-point drift. A flagged
    layer passed the check |W W^T - I| <= ORTHO_TOL entrywise, so
    sigma^2 <= 1 + out_dim * ORTHO_TOL and sigma <= 1 + 1.6e-8 at width 32.
    The attack's certificate applies its bounds at epsilon * (1 + 1e-6),
    which covers that slack for stacks of up to a few dozen layers.
    """
    prod = 1.0
    for layer in layers:
        prod *= 1.0 if layer.orthogonal else spectral_norm(layer.weight)
    return prod


def build_orthogonal(in_dim: int, out_dim: int, seed: int) -> AffineLayer:
    """Random layer with orthonormal rows, built from Householder reflectors.

    The product of `in_dim` reflectors I - 2 v v^T (v seeded, unit norm) is
    orthogonal by construction; the first `out_dim` rows are kept. Bias is
    zero.
    """
    if not (1 <= out_dim <= in_dim):
        raise DimensionError(
            f"need 1 <= out_dim <= in_dim, got out_dim={out_dim}, in_dim={in_dim}"
        )
    rng = substream(seed, "householder")
    q = np.eye(in_dim)
    for _ in range(in_dim):
        v = rng.standard_normal(in_dim)
        v /= np.linalg.norm(v)
        q = q - 2.0 * np.outer(v, v @ q)
    return AffineLayer(weight=q[:out_dim], bias=np.zeros(out_dim), orthogonal=True)


# rows per block of a batched pass: a block's trace stays cache-resident,
# and the arrays of a pass do not grow with its row count
BLOCK_ROWS = 1024


def row_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """Split n rows into ceil(n / most) near-equal (start, end) blocks; no
    rows make one empty block."""
    count = max(1, -(-n // most))
    bounds = [k * n // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def forward(model: LipschitzClassifier, x: np.ndarray) -> np.ndarray:
    """Logits for a single input (d,) or a batch (n, d).

    The rows run through one `Trace` in the near-equal blocks of
    `row_blocks(n, BLOCK_ROWS)`, each block's logits copied into one (n, c)
    array, so a pass holds one block's layer arrays, not n rows of each.
    Every row's arithmetic is independent of the others', so the logits
    equal those of one full-batch pass as far as BLAS rounds each row of a
    product the same at any row count. OpenBLAS does not for a product of
    few rows (a single row takes its matrix-vector path); in the shapes
    probed it matched the full-batch product from 151 rows up. Above
    `BLOCK_ROWS` rows every block has at least `BLOCK_ROWS` // 2 rows, and
    up to `BLOCK_ROWS` rows there is one block, the full-batch pass itself.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.in_dim:
        raise DimensionError(
            f"input dim {x.shape[-1]} != model in_dim {model.in_dim}"
        )
    rows = x.reshape(-1, model.in_dim)
    blocks = row_blocks(rows.shape[0], BLOCK_ROWS)
    trace = Trace(model, max(end - start for start, end in blocks))
    out = np.empty((rows.shape[0], model.n_classes))
    for start, end in blocks:
        out[start:end] = trace.forward(rows[start:end])
    return out.reshape(x.shape[:-1] + (model.n_classes,))


class Trace:
    """Preallocated buffers for forward and backward passes through a model.

    Sized for `rows` rows of the model's layer stack. Each hidden layer
    keeps its GroupSort2 outputs (the next layer's inputs) and int8 swap
    masks. The pre-activations share one buffer, whose int64 view is the
    swap scratch; backward writes each hidden delta over the layer input it
    has just used. A pass over m <= rows rows uses the leading m rows of
    every buffer, so the arrays it returns are views that the next pass
    overwrites. The passes allocate no array with a row per input row.
    `Trace.forward` is the one forward pass of the package: inference
    (`forward`, block by block), training and the attack all run it.

    `params` holds the (weight, bias) pairs the passes use; training
    replaces it after every update.
    """

    def __init__(self, model: LipschitzClassifier, rows: int):
        self.params = [(layer.weight, layer.bias) for layer in model.layers]
        hidden = [layer.out_dim for layer in model.layers[:-1]]
        self.post = [np.empty((rows, w)) for w in hidden]
        self.swaps = [np.empty((rows, w // 2), dtype=np.int8) for w in hidden]
        self.logits = np.empty((rows, model.n_classes))
        self._pre = np.empty(rows * max(hidden, default=0))
        self._scratch = self._pre.view(np.int64)  # forward alone reads _pre
        self._input_grad = np.empty((rows, model.in_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of the rows of `x`, recording what `backward` needs."""
        m = x.shape[0]
        h = x
        last = len(self.params) - 1
        for i, (weight, bias) in enumerate(self.params):
            z = self.logits[:m] if i == last else _rows_view(self._pre, m, weight.shape[0])
            np.matmul(h, weight.T, out=z)
            z += bias
            if i < last:
                h = self.post[i][:m]
                _sort_pairs(z, h, self.swaps[i][:m])
        return z

    def backward(self, delta: np.ndarray, x: np.ndarray | None = None):
        """Pull `delta`, the gradient at the last forward's logits, back.

        Without `x`, returns the gradient at the network input (a view
        into the trace). With `x`, the input of that forward pass, returns
        each layer's (grad_w, grad_b) instead. At tied pairs the
        subgradient keeps the input order. Either pass overwrites `post`.
        """
        m = delta.shape[0]
        grads = []
        for i in range(len(self.params) - 1, -1, -1):
            weight = self.params[i][0]
            if i < len(self.params) - 1:
                # the transpose of a permutation is its inverse, and
                # pairwise swaps are their own inverse
                npairs = self.swaps[i].shape[1]
                _swap_pairs(delta, self.swaps[i][:m], _rows_view(self._scratch, m, npairs))
            if x is not None:
                layer_input = x if i == 0 else self.post[i - 1][:m]
                grads.append((delta.T @ layer_input, delta.sum(axis=0)))
                if i == 0:
                    return grads[::-1]
            out = self.post[i - 1][:m] if i else self._input_grad[:m]  # its last read is done
            np.matmul(delta, weight, out=out)
            delta = out
        return delta


def _rows_view(flat: np.ndarray, m: int, width: int) -> np.ndarray:
    """The leading m * width entries of `flat` as a contiguous (m, width) array."""
    return flat[: m * width].reshape(m, width)


@dataclass(frozen=True)
class GradientRecord:
    input_gradient: np.ndarray
    output_index: int


def input_gradient(
    model: LipschitzClassifier, x: np.ndarray, class_index: int
) -> GradientRecord:
    """Gradient of logits[class_index] w.r.t. a single input x.

    Reverse accumulation through the affine maps and the sort permutations;
    at tied pairs the subgradient keeps the input order.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError("input_gradient expects a single input vector")
    g = input_gradient_batch(model, x[None, :], np.array([class_index]))[0]
    return GradientRecord(input_gradient=g, output_index=int(class_index))


def input_gradient_batch(
    model: LipschitzClassifier,
    x: np.ndarray,
    class_indices: np.ndarray,
    trace: Trace | None = None,
) -> np.ndarray:
    """Per-sample gradient of logits[:, y_i] w.r.t. x_i, shape (n, d).

    Given `trace`, a `Trace` of `model` with at least n rows, the pass runs
    in its buffers and the result is a view into it that the trace's next
    pass overwrites.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(class_indices)
    if np.any(ys < 0) or np.any(ys >= model.n_classes):
        raise DimensionError("class index out of range")
    if trace is None:
        trace = Trace(model, x.shape[0])
    trace.forward(x)
    return trace.backward(np.eye(model.n_classes)[ys])


def bjorck_project(weight: np.ndarray) -> np.ndarray:
    """Project onto matrices with orthonormal rows via Bjorck iteration, to
    a residual of PROJ_TOL within PROJ_MAX_ITERS steps or a ValueError."""
    w = np.asarray(weight, dtype=float)
    # the iteration W <- 1.5 W - 0.5 W W^T W converges for spectral norm < sqrt(3)
    sigma = np.linalg.norm(w, ord=2)
    if sigma > 1.5:
        w = w / sigma
    for _ in range(PROJ_MAX_ITERS):
        gram = w @ w.T
        res = np.max(np.abs(gram - np.eye(w.shape[0])))
        if res <= PROJ_TOL:
            return w
        w = 1.5 * w - 0.5 * (gram @ w)
    raise ValueError(f"Bjorck projection stalled at residual {res:.3e}")


def train_toy(
    model: LipschitzClassifier,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    lr: float,
    seed: int = 0,
    temperature: float = 1.0,
) -> LipschitzClassifier:
    """Full-batch gradient descent on temperature-scaled cross-entropy.

    After every step each orthogonal layer is re-projected onto the
    orthogonal manifold, so the returned model keeps lipschitz_product == 1
    when the input model was all-orthogonal. A loss or an update that is not
    finite, or a layer that Bjorck iteration cannot project back, raises
    TrainingDivergedError.
    """
    x = np.asarray(inputs, dtype=float)
    ys = np.asarray(labels)
    if x.shape[0] != ys.shape[0]:
        raise DimensionError("inputs and labels disagree on sample count")
    if epochs < 0:
        raise ValueError(f"epochs must be 0 or more, got {epochs}")
    if not lr > 0:  # a negative rate would climb the loss
        raise ValueError(f"lr must be positive, got {lr}")
    if epochs == 0:
        return model
    ortho = [layer.orthogonal for layer in model.layers]
    rows, trace = np.arange(x.shape[0]), Trace(model, x.shape[0])
    for _ in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # both results are checked
            delta = trace.forward(x)  # softmax, then (probs - onehot) / (n T), in place
            delta /= temperature
            # each p is in [0, 1] or NaN, so the loss is finite exactly when every p is
            if not np.isfinite(_softmax(delta)).all():
                raise TrainingDivergedError("loss diverged: the softmax is not finite")
            delta[rows, ys] -= 1.0
            delta /= x.shape[0] * temperature
            grads = trace.backward(delta, x)
            params = [(w - lr * gw, b - lr * gb) for (w, b), (gw, gb) in zip(trace.params, grads)]
        if not all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in params):
            raise TrainingDivergedError(f"update diverged at lr={lr}")
        for i, ((w, b), o) in enumerate(zip(params, ortho)):
            try:
                trace.params[i] = (bjorck_project(w) if o else w, b)
            except ValueError as exc:
                raise TrainingDivergedError(f"{exc} in layer {i} at lr={lr}") from exc
    layers = [
        AffineLayer(weight=w, bias=b, orthogonal=o)
        for (w, b), o in zip(trace.params, ortho)
    ]
    return LipschitzClassifier(layers=tuple(layers))


def to_json(model: LipschitzClassifier) -> str:
    """Serialize to the portable JSON model format (row-major weights)."""
    doc = {
        "layers": [
            {
                "weight": [[float(v) for v in row] for row in layer.weight],
                "bias": [float(v) for v in layer.bias],
                "orthogonal": bool(layer.orthogonal),
            }
            for layer in model.layers
        ],
        "activation": "groupsort2",
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> LipschitzClassifier:
    """Parse the JSON model format; a malformed document raises ValueError."""
    doc = require_keys(json.loads(text), ("activation", "layers"), "model")
    if doc["activation"] != "groupsort2":
        raise ValueError(f"unsupported activation {doc['activation']!r}")
    specs = doc["layers"]
    if not isinstance(specs, list):
        raise ValueError(f"model 'layers' must be a list, got {type(specs).__name__}")
    for i, spec in enumerate(specs):
        require_keys(spec, ("weight", "bias", "orthogonal"), f"model layer {i}")
        if not isinstance(spec["orthogonal"], bool):
            raise ValueError(f"model layer {i}: 'orthogonal' must be a JSON boolean, "
                             f"got {type(spec['orthogonal']).__name__}")
    try:
        layers = tuple(
            AffineLayer(
                weight=np.array(spec["weight"], dtype=float),
                bias=np.array(spec["bias"], dtype=float),
                orthogonal=spec["orthogonal"],
            )
            for spec in specs
        )
    except TypeError as exc:  # a non-numeric weight or bias entry
        raise ValueError(f"model layer: {exc}") from exc
    return LipschitzClassifier(layers=layers)
