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


class DimensionError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
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
            if res > ORTHO_TOL:
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
    d = x.shape[-1]
    npairs = d // 2
    a = x[..., 0 : 2 * npairs : 2]
    b = x[..., 1 : 2 * npairs : 2]
    np.minimum(a, b, out=out[..., 0 : 2 * npairs : 2])
    np.maximum(a, b, out=out[..., 1 : 2 * npairs : 2])
    if d % 2:
        out[..., -1] = x[..., -1]
    return out


def _groupsort2_swaps(z: np.ndarray) -> np.ndarray:
    """Boolean mask of pairs swapped by groupsort2 (ties keep input order)."""
    d = z.shape[-1]
    npairs = d // 2
    return z[..., 0 : 2 * npairs : 2] > z[..., 1 : 2 * npairs : 2]


def _apply_swaps(v: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """Permute `v` with the pairwise swaps recorded in `swaps`.

    One copy of `v`; the swapped entries are then written over it in place.
    """
    out = v.copy()
    npairs = swaps.shape[-1]
    np.copyto(out[..., 0 : 2 * npairs : 2], v[..., 1 : 2 * npairs : 2], where=swaps)
    np.copyto(out[..., 1 : 2 * npairs : 2], v[..., 0 : 2 * npairs : 2], where=swaps)
    return out


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


def forward(model: LipschitzClassifier, x: np.ndarray) -> np.ndarray:
    """Logits for a single input (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.in_dim:
        raise DimensionError(
            f"input dim {x.shape[-1]} != model in_dim {model.in_dim}"
        )
    h = x
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        h = h @ layer.weight.T + layer.bias
        if i < last:
            h = groupsort2(h)
    return h


def _forward_trace(params, x: np.ndarray):
    """Forward pass over (weight, bias) pairs; records layer inputs and swaps."""
    inputs = []
    swaps = []
    h = np.asarray(x, dtype=float)
    last = len(params) - 1
    for i, (weight, bias) in enumerate(params):
        inputs.append(h)
        z = h @ weight.T + bias
        if i < last:
            swaps.append(_groupsort2_swaps(z))
            z = groupsort2(z)
        h = z
    return h, inputs, swaps


def _backward(params, swaps, delta: np.ndarray, inputs=None):
    """Pull `delta`, the gradient at the logits, back to the network input.

    Also returns each layer's (grad_w, grad_b) when given the trace's layer
    inputs (else []). At tied pairs the subgradient keeps the input order.
    """
    grads = []
    for i in range(len(params) - 1, -1, -1):
        if i < len(params) - 1:
            # transpose of a permutation is its inverse; pairwise swaps are
            # their own inverse
            delta = _apply_swaps(delta, swaps[i])
        if inputs is not None:
            grads.append((delta.T @ inputs[i], delta.sum(axis=0)))
        delta = delta @ params[i][0]
    return delta, grads[::-1]


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
    model: LipschitzClassifier, x: np.ndarray, class_indices: np.ndarray
) -> np.ndarray:
    """Per-sample gradient of logits[:, y_i] w.r.t. x_i, shape (n, d)."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(class_indices)
    params = [(layer.weight, layer.bias) for layer in model.layers]
    logits, _, swaps = _forward_trace(params, x)
    if np.any(ys < 0) or np.any(ys >= logits.shape[-1]):
        raise DimensionError("class index out of range")
    return _backward(params, swaps, np.eye(logits.shape[-1])[ys])[0]


def bjorck_project(weight: np.ndarray, tol: float = PROJ_TOL, max_iters: int = 200) -> np.ndarray:
    """Project onto matrices with orthonormal rows via Bjorck iteration."""
    w = np.asarray(weight, dtype=float)
    # the iteration W <- 1.5 W - 0.5 W W^T W converges for spectral norm < sqrt(3)
    sigma = np.linalg.norm(w, ord=2)
    if sigma > 1.5:
        w = w / sigma
    for _ in range(max_iters):
        gram = w @ w.T
        res = np.max(np.abs(gram - np.eye(w.shape[0])))
        if res <= tol:
            return w
        w = 1.5 * w - 0.5 * (gram @ w)
    raise RuntimeError(f"Bjorck projection stalled at residual {res:.3e}")


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
    when the input model was all-orthogonal.
    """
    x = np.asarray(inputs, dtype=float)
    ys = np.asarray(labels)
    if x.shape[0] != ys.shape[0]:
        raise DimensionError("inputs and labels disagree on sample count")
    if epochs == 0:
        return model
    params = [(layer.weight, layer.bias) for layer in model.layers]
    ortho = [layer.orthogonal for layer in model.layers]
    onehot = np.eye(model.n_classes)[ys]
    for _ in range(epochs):
        logits, layer_inputs, swaps = _forward_trace(params, x)
        probs = _softmax(logits / temperature)
        loss = -np.mean(np.sum(onehot * np.log(probs + 1e-300), axis=1))
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"loss diverged to {loss}")
        delta = (probs - onehot) / (x.shape[0] * temperature)
        delta, grads = _backward(params, swaps, delta, layer_inputs)
        params = [(w - lr * gw, b - lr * gb) for (w, b), (gw, gb) in zip(params, grads)]
        params = [(bjorck_project(w) if o else w, b) for (w, b), o in zip(params, ortho)]
        # freed before the next forward pass, so one trace is alive at a time
        del layer_inputs, swaps
    layers = [
        AffineLayer(weight=w, bias=b, orthogonal=o)
        for (w, b), o in zip(params, ortho)
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
    try:
        layers = tuple(
            AffineLayer(
                weight=np.array(spec["weight"], dtype=float),
                bias=np.array(spec["bias"], dtype=float),
                orthogonal=bool(spec["orthogonal"]),
            )
            for spec in specs
        )
    except TypeError as exc:  # a non-numeric weight or bias entry
        raise ValueError(f"model layer: {exc}") from exc
    return LipschitzClassifier(layers=layers)
