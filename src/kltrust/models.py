"""Manually differentiated classifiers over a flat parameter vector.

Two small architectures: a ReLU MLP and a conv-pool-conv-pool-dense CNN.
Parameters live in a single flat float64 vector (the models compute in
float64 only) with a deterministic layer-major (W then b) layout;
unflatten(v) gives each layer's views of it, and the models compose with
vector-space optimizers. Each backward pass writes every layer's gradient
straight into that layer's view of one fresh flat vector. Losses are mean
softmax cross-entropy; gradients are exact (ReLU subgradient at 0 taken as 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] == 0:
            raise ValueError("batch must be nonempty")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets must be one integer label per input row")
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


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _FlatParams:
    """Flat layer-major layout shared by the models: each layer's weight, then its bias.

    `shapes` lists (weight_shape, bias_shape) per layer. Dense weights are
    (fan_in, fan_out) and conv weights (out, in, kh, kw), so the Kaiming fan-in
    is the product of a conv weight's trailing axes, or a dense weight's first.
    """

    def __init__(self, shapes):
        self._shapes = shapes
        self.n_params = sum(math.prod(ws) + math.prod(bs) for ws, bs in shapes)

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


class MLP(_FlatParams):
    """Fully connected ReLU network; layer_sizes like (784, 256, 10)."""

    def __init__(self, layer_sizes):
        layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValueError(f"need >= 2 positive layer sizes, got {layer_sizes}")
        self.layer_sizes = layer_sizes
        self.num_classes = layer_sizes[-1]
        super().__init__([((i, o), (o,)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])])

    def _check_batch(self, batch: Batch) -> np.ndarray:
        x = np.asarray(batch.inputs, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"inputs have {x.shape[1]} features, expected {self.layer_sizes[0]}"
            )
        if np.any(batch.targets >= self.num_classes):
            raise ValueError("label out of range")
        return x

    def _forward(self, params: np.ndarray, x: np.ndarray):
        parts = self.unflatten(np.asarray(params, dtype=np.float64))
        acts = [x]
        pre = []
        h = x
        for li in range(len(self._shapes)):
            w, b = parts[2 * li], parts[2 * li + 1]
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0) if li < len(self._shapes) - 1 else z
            acts.append(h)
        return parts, acts, pre

    def forward_loss(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        _, acts, _ = self._forward(params, x)
        loss, _ = _softmax_ce(acts[-1], batch.targets)
        return loss, acts[-1]

    def loss_and_grad(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        parts, acts, pre = self._forward(params, x)
        loss, delta = _softmax_ce(acts[-1], batch.targets)
        grad, views = self._empty_grad()
        for li in reversed(range(len(self._shapes))):
            np.matmul(acts[li].T, delta, out=views[2 * li])
            delta.sum(axis=0, out=views[2 * li + 1])
            if li > 0:
                delta = (delta @ parts[2 * li].T) * (pre[li - 1] > 0.0)
        return loss, grad


def _conv3x3_forward(x, w, b):
    # x (B,C,H,W), w (F,C,3,3): stride 1, zero padding 1 ("same")
    B, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((B, C, 3, 3, H, W))
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[:, :, i : i + H, j : j + W]
    out = np.einsum("bcijhw,fcij->bfhw", cols, w, optimize=True)
    out += b[None, :, None, None]
    return out, cols


def _conv3x3_param_grads(dout, cols, dw, db):
    """Writes the weight and bias gradients into dw and db."""
    np.einsum("bfhw,bcijhw->fcij", dout, cols, optimize=True, out=dw)
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
        c, h, w = in_shape
        if h % 4 != 0 or w % 4 != 0:
            raise ValueError("input height/width must be divisible by 4")
        self.in_shape = (int(c), int(h), int(w))
        self.num_classes = int(num_classes)
        self.channels = (int(channels[0]), int(channels[1]))
        c1, c2 = self.channels
        self._dense_in = c2 * (h // 4) * (w // 4)
        super().__init__(
            [
                ((c1, c, 3, 3), (c1,)),
                ((c2, c1, 3, 3), (c2,)),
                ((self._dense_in, self.num_classes), (self.num_classes,)),
            ]
        )

    def _check_batch(self, batch: Batch) -> np.ndarray:
        x = np.asarray(batch.inputs, dtype=np.float64)
        if x.shape[1:] != self.in_shape:
            raise ValueError(f"inputs of shape {x.shape[1:]}, expected {self.in_shape}")
        if np.any(batch.targets >= self.num_classes):
            raise ValueError("label out of range")
        return x

    def _forward(self, params: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2, wd, bd = self.unflatten(np.asarray(params, dtype=np.float64))
        z1, cols1 = _conv3x3_forward(x, w1, b1)
        a1 = np.maximum(z1, 0.0)
        p1, idx1 = _pool2_forward(a1)
        z2, cols2 = _conv3x3_forward(p1, w2, b2)
        a2 = np.maximum(z2, 0.0)
        p2, idx2 = _pool2_forward(a2)
        flat = p2.reshape(x.shape[0], -1)
        logits = flat @ wd + bd
        cache = (w1, w2, wd, x, z1, cols1, idx1, p1, z2, cols2, idx2, a2, flat)
        return logits, cache

    def forward_loss(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        logits, _ = self._forward(params, x)
        loss, _ = _softmax_ce(logits, batch.targets)
        return loss, logits

    def loss_and_grad(self, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
        x = self._check_batch(batch)
        logits, cache = self._forward(params, x)
        w1, w2, wd, x, z1, cols1, idx1, p1, z2, cols2, idx2, a2, flat = cache
        loss, dlogits = _softmax_ce(logits, batch.targets)
        grad, (dw1, db1, dw2, db2, dwd, dbd) = self._empty_grad()

        np.matmul(flat.T, dlogits, out=dwd)
        dlogits.sum(axis=0, out=dbd)
        dp2 = (dlogits @ wd.T).reshape(a2.shape[0], a2.shape[1],
                                       a2.shape[2] // 2, a2.shape[3] // 2)
        da2 = _pool2_backward(dp2, idx2, a2.shape)
        dz2 = da2 * (z2 > 0.0)
        _conv3x3_param_grads(dz2, cols2, dw2, db2)
        dp1 = _conv3x3_input_grad(dz2, w2, p1.shape)
        da1 = _pool2_backward(dp1, idx1, (x.shape[0], w1.shape[0],
                                          x.shape[2], x.shape[3]))
        dz1 = da1 * (z1 > 0.0)
        _conv3x3_param_grads(dz1, cols1, dw1, db1)  # the input needs no gradient
        return loss, grad


def fd_check(model, params: np.ndarray, batch: Batch, coords, h: float = 1e-5) -> float:
    """Max relative error between loss_and_grad() and central finite differences.

    Relative error per coordinate is |g_fd - g_bp| / max(|g_fd|, |g_bp|, 1e-8).
    """
    if h <= 0.0:
        raise ValueError(f"step size h must be > 0, got {h}")
    coords = np.asarray(coords, dtype=int)
    if np.any(coords < 0) or np.any(coords >= model.n_params):
        raise ValueError("coordinate index out of range")
    g_bp = model.loss_and_grad(params, batch)[1]
    worst = 0.0
    for c in coords:
        bumped = np.array(params, dtype=np.float64)
        bumped[c] += h
        up, _ = model.forward_loss(bumped, batch)
        bumped[c] -= 2.0 * h
        down, _ = model.forward_loss(bumped, batch)
        g_fd = (up - down) / (2.0 * h)
        err = abs(g_fd - g_bp[c]) / max(abs(g_fd), abs(g_bp[c]), 1e-8)
        worst = max(worst, err)
    return worst
