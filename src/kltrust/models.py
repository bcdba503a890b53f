"""Manually differentiated classifiers over a flat parameter vector.

Two small architectures: a ReLU MLP and a conv-pool-conv-pool-dense CNN.
Parameters live in a single flat float64 vector (the models compute in
float64 only) with a deterministic layer-major (W then b) layout;
unflatten(v) gives each layer's views of it, and the models compose with
vector-space optimizers. Each backward pass writes every layer's gradient
straight into that layer's view of one fresh flat vector. Losses are mean
softmax cross-entropy; gradients are exact (ReLU subgradient at 0 taken as 0).
Each ReLU writes over its pre-activation z, and its backward mask reads the
activation: max(z, 0) > 0 exactly where z > 0, NaN included.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import check, halves


@dataclass(frozen=True)
class Batch:
    """Input rows and one integer (not bool) label >= 0 per row; the model checks the rest."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim == 0 or len(self.inputs) == 0:
            raise ValueError("batch must be nonempty")
        if self.targets.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {self.targets.dtype}")
        if self.targets.shape != (len(self.inputs),):
            raise ValueError(f"labels of shape {self.targets.shape}, expected one per row")
        if np.any(self.targets < 0):
            raise ValueError("labels must be nonnegative")


def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient wrt logits, numerically stable."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumexp = expz.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sumexp)
    batch = logits.shape[0]
    loss = -float(log_probs[np.arange(batch), targets].mean())
    dlogits = expz / sumexp
    dlogits[np.arange(batch), targets] -= 1.0
    return loss, dlogits / batch


def _matmul_by_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.matmul(a, b, out=out), its rows written by two threads (halves) when
    b's width is a multiple of 8.

    A row's bits then do not depend on the split: probed on OpenBLAS 0.3.31's
    SkylakeX, Haswell, Zen, SandyBridge, Nehalem and Prescott kernels, with
    BLAS on one thread and the split at a multiple of 64 rows. At other
    widths the SkylakeX kernels round some rows near the split differently,
    so those products are one call.
    """
    if out is None:
        out = np.empty((len(a), b.shape[1]))
    if b.shape[1] % 8:
        return np.matmul(a, b, out=out)
    halves(lambda s: np.matmul(a[s], b, out=out[s]), len(a), b.shape[1])
    return out


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _FlatParams:
    """Flat layer-major layout shared by the models: each layer's weight, then its bias.

    `shapes` lists (weight_shape, bias_shape) per layer. Dense weights are
    (fan_in, fan_out) and conv weights (out, in, kh, kw), so the Kaiming fan-in
    is the product of a conv weight's trailing axes, or a dense weight's first.
    `in_shape` is one input row's shape and `num_classes` bounds the labels.
    """

    def __init__(self, shapes, in_shape, num_classes):
        self._shapes = shapes
        self.in_shape = in_shape
        self.num_classes = num_classes
        self.n_params = sum(math.prod(ws) + math.prod(bs) for ws, bs in shapes)

    def _check_batch(self, batch: Batch) -> np.ndarray:
        """The inputs as float64, each row flattened when `in_shape` is 1-d."""
        x = np.asarray(batch.inputs, dtype=np.float64)
        if len(self.in_shape) == 1 and x.ndim > 2:
            x = x.reshape(len(x), -1)
        if x.shape[1:] != self.in_shape:
            raise ValueError(f"input rows of shape {x.shape[1:]}, expected {self.in_shape}")
        if np.any(batch.targets >= self.num_classes):
            raise ValueError("label out of range")
        return x

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        parts = []
        for ws, bs in self._shapes:
            fan_in = math.prod(ws[1:]) if len(ws) == 4 else ws[0]
            parts.append(_kaiming_uniform(rng, ws, fan_in))
            parts.append(np.zeros(bs))
        return np.concatenate([p.ravel() for p in parts])

    def unflatten(self, flat: np.ndarray):
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        parts = []
        off = 0
        for ws, bs in self._shapes:
            for shape in (ws, bs):
                size = math.prod(shape)
                parts.append(flat[off : off + size].reshape(shape))
                off += size
        return parts

    def _empty_grad(self):
        """A fresh flat gradient vector and its per-layer views, for a backward pass to fill."""
        grad = np.empty(self.n_params)
        return grad, self.unflatten(grad)


def _sizes(name: str, value, length: int | None = None) -> tuple[int, ...]:
    """The entries of `value`, each an integer >= 1, as ints: `length` of them,
    or at least two when length is None."""
    entries = tuple(value) if isinstance(value, Iterable) else None
    if entries is None or (len(entries) != length if length else len(entries) < 2):
        raise ValueError(f"{name} must have {length or '>= 2'} entries, got {value!r}")
    check("count", **{f"{name}[{i}]": v for i, v in enumerate(entries)})
    return tuple(map(int, entries))


class MLP(_FlatParams):
    """Fully connected ReLU network; layer_sizes like (784, 256, 10)."""

    def __init__(self, layer_sizes):
        self.layer_sizes = layer_sizes = _sizes("layer_sizes", layer_sizes)
        super().__init__([((i, o), (o,)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])],
                         layer_sizes[:1], layer_sizes[-1])

    def _forward(self, params: np.ndarray, x: np.ndarray):
        parts = self.unflatten(np.asarray(params, dtype=np.float64))
        acts = [x]
        for li in range(len(self._shapes)):
            z = _matmul_by_rows(acts[-1], parts[2 * li]) + parts[2 * li + 1]
            if li < len(self._shapes) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return parts, acts

    def forward_loss(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        logits = self._forward(params, x)[1][-1]
        return _softmax_ce(logits, batch.targets)[0], logits

    def loss_and_grad(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        parts, acts = self._forward(params, x)
        loss, delta = _softmax_ce(acts[-1], batch.targets)
        grad, views = self._empty_grad()
        for li in reversed(range(len(self._shapes))):
            _matmul_by_rows(acts[li].T, delta, out=views[2 * li])
            delta.sum(axis=0, out=views[2 * li + 1])
            if li > 0:
                delta = (delta @ parts[2 * li].T) * (acts[li] > 0.0)
        return loss, grad


def _conv3x3_forward(x, w, b):
    # x (B,C,H,W), w (F,C,3,3): stride 1, zero padding 1 ("same"); the patches
    # cols (B,C,H,W,3,3) are a read-only strided view of the padded x, not a copy
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(2, 3))
    out = np.einsum("bchwij,fcij->bfhw", cols, w, optimize=True)
    out += b[None, :, None, None]
    return out, cols


def _conv3x3_param_grads(dout, cols, dw, db):
    """Writes the weight and bias gradients into dw and db."""
    np.einsum("bfhw,bchwij->fcij", dout, cols, optimize=True, out=dw)
    dout.sum(axis=(0, 2, 3), out=db)


def _conv3x3_input_grad(dout, w, x_shape):
    """The gradient with respect to the conv's input, of shape x_shape."""
    B, C, H, W = x_shape
    dxp = np.zeros((B, C, H + 2, W + 2))
    for i in range(3):
        for j in range(3):
            dxp[:, :, i : i + H, j : j + W] += np.einsum(
                "bfhw,fc->bchw", dout, w[:, :, i, j], optimize=True
            )
    return dxp[:, :, 1:-1, 1:-1]


def _pool2_forward(x):
    B, C, H, W = x.shape
    r = (
        x.reshape(B, C, H // 2, 2, W // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(B, C, H // 2, W // 2, 4)
    )
    idx = r.argmax(axis=-1)  # first cell wins ties
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _pool2_backward(dout, idx, x_shape):
    B, C, H, W = x_shape
    dr = np.zeros((B, C, H // 2, W // 2, 4))
    np.put_along_axis(dr, idx[..., None], dout[..., None], axis=-1)
    return (
        dr.reshape(B, C, H // 2, W // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(B, C, H, W)
    )


class SmallCNN(_FlatParams):
    """conv3x3(c1) - relu - pool2 - conv3x3(c2) - relu - pool2 - dense."""

    def __init__(self, in_shape=(1, 28, 28), num_classes=10, channels=(16, 32)):
        c, h, w = _sizes("in_shape", in_shape, 3)
        self.channels = c1, c2 = _sizes("channels", channels, 2)
        check("count", num_classes=num_classes)
        if h % 4 != 0 or w % 4 != 0:
            raise ValueError("input height/width must be divisible by 4")
        self._dense_in = c2 * (h // 4) * (w // 4)
        k = int(num_classes)
        super().__init__([((c1, c, 3, 3), (c1,)), ((c2, c1, 3, 3), (c2,)),
                          ((self._dense_in, k), (k,))], (c, h, w), k)

    def _forward(self, params: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2, wd, bd = self.unflatten(np.asarray(params, dtype=np.float64))
        a1, cols1 = _conv3x3_forward(x, w1, b1)
        p1, idx1 = _pool2_forward(np.maximum(a1, 0.0, out=a1))
        a2, cols2 = _conv3x3_forward(p1, w2, b2)
        p2, idx2 = _pool2_forward(np.maximum(a2, 0.0, out=a2))
        flat = p2.reshape(x.shape[0], -1)
        logits = flat @ wd + bd
        cache = (w2, wd, a1, cols1, idx1, p1, a2, cols2, idx2, flat)
        return logits, cache

    def forward_loss(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        logits, _ = self._forward(params, x)
        loss, _ = _softmax_ce(logits, batch.targets)
        return loss, logits

    def loss_and_grad(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        logits, cache = self._forward(params, x)
        w2, wd, a1, cols1, idx1, p1, a2, cols2, idx2, flat = cache
        loss, dlogits = _softmax_ce(logits, batch.targets)
        grad, (dw1, db1, dw2, db2, dwd, dbd) = self._empty_grad()

        np.matmul(flat.T, dlogits, out=dwd)
        dlogits.sum(axis=0, out=dbd)
        dp2 = (dlogits @ wd.T).reshape(idx2.shape)
        da2 = _pool2_backward(dp2, idx2, a2.shape)
        dz2 = da2 * (a2 > 0.0)
        _conv3x3_param_grads(dz2, cols2, dw2, db2)
        dp1 = _conv3x3_input_grad(dz2, w2, p1.shape)
        da1 = _pool2_backward(dp1, idx1, a1.shape)
        dz1 = da1 * (a1 > 0.0)
        _conv3x3_param_grads(dz1, cols1, dw1, db1)  # the input needs no gradient
        return loss, grad


def fd_check(model, params: np.ndarray, batch: Batch, coords, h: float = 1e-5) -> float:
    """Max relative error between loss_and_grad() and central finite differences.

    Relative error per coordinate is |g_fd - g_bp| / max(|g_fd|, |g_bp|, 1e-8);
    a coordinate whose error is NaN makes the result inf, never a match.
    """
    check("positive", h=h)
    coords = np.asarray(coords, dtype=int)
    if np.any(coords < 0) or np.any(coords >= model.n_params):
        raise ValueError("coordinate index out of range")
    g_bp = model.loss_and_grad(params, batch)[1]
    errs = []
    for c in coords:
        bumped = np.array(params, dtype=np.float64)
        bumped[c] += h
        up, _ = model.forward_loss(bumped, batch)
        bumped[c] -= 2.0 * h
        down, _ = model.forward_loss(bumped, batch)
        g_fd = (up - down) / (2.0 * h)
        errs.append(abs(g_fd - g_bp[c]) / max(abs(g_fd), abs(g_bp[c]), 1e-8))
    worst = float(np.max(errs, initial=0.0))  # np.max keeps a NaN
    return math.inf if math.isnan(worst) else worst
