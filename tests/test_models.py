import math
import tracemalloc

import numpy as np
import pytest

from kltrust import models
from kltrust.models import (
    MLP,
    Batch,
    SmallCNN,
    _conv3x3_input_grad,
    _pool2_backward,
    _softmax_ce,
    fd_check,
)


def scalar_mlp_loss(model, params, x, y):
    """Scalar-by-scalar forward pass, independent of the vectorized path."""
    parts = model.unflatten(params)
    total = 0.0
    for s in range(len(y)):
        h = list(x[s])
        for li in range(len(model.layer_sizes) - 1):
            w, b = parts[2 * li], parts[2 * li + 1]
            z = []
            for j in range(w.shape[1]):
                acc = float(b[j])
                for i in range(w.shape[0]):
                    acc += h[i] * float(w[i, j])
                z.append(acc)
            if li < len(model.layer_sizes) - 2:
                h = [max(v, 0.0) for v in z]
            else:
                h = z
        mx = max(h)
        lse = mx + math.log(sum(math.exp(v - mx) for v in h))
        total += lse - h[y[s]]
    return total / len(y)


@pytest.fixture
def tiny_batch():
    x = np.array([[0.1, -0.2, 0.3, 0.4], [0.9, 0.8, -0.7, 0.6]])
    return Batch(x, np.array([0, 1]))


# ---------------------------------------------------------------------------
# forward_loss
# ---------------------------------------------------------------------------

def test_uniform_logits_give_log_c():
    model = MLP((5, 10))
    params = np.zeros(model.n_params)
    batch = Batch(np.random.default_rng(0).normal(size=(4, 5)), np.arange(4) % 10)
    loss, logits = model.forward_loss(params, batch)
    assert loss == pytest.approx(math.log(10.0), rel=1e-12)
    assert logits.shape == (4, 10)


def test_confident_correct_logits_give_tiny_loss():
    model = MLP((2, 3))
    params = np.zeros(model.n_params)
    model.unflatten(params)[1][:] = [-50.0, 50.0, -50.0]  # bias picks class 1
    loss, _ = model.forward_loss(params, Batch(np.zeros((2, 2)), np.array([1, 1])))
    assert loss < 1e-6


def test_seed0_regression_fixture(tiny_batch):
    model = MLP((4, 3, 2))
    params = model.init_params(seed=0)
    loss, _ = model.forward_loss(params, tiny_batch)
    # frozen value pinned by the scalar-by-scalar oracle
    assert loss == pytest.approx(0.4719811312424067, rel=1e-12)
    assert loss == pytest.approx(
        scalar_mlp_loss(model, params, tiny_batch.inputs, tiny_batch.targets),
        rel=1e-12,
    )


def test_forward_shape_mismatch():
    model = MLP((4, 2))
    with pytest.raises(ValueError):
        model.forward_loss(np.zeros(model.n_params), Batch(np.zeros((1, 5)), np.zeros(1, int)))
    cnn = SmallCNN(in_shape=(1, 28, 28))
    with pytest.raises(ValueError):
        cnn.forward_loss(np.zeros(cnn.n_params), Batch(np.zeros((1, 3, 28, 28)), np.zeros(1, int)))


@pytest.mark.parametrize("in_shape,channels,match", [
    ((1, 8, 8), (2, 3, 4), r"^channels must have 2 entries, got \(2, 3, 4\)$"),
    ((1, 8, 8), (2,), r"^channels must have 2 entries, got \(2,\)$"),
    ((8, 8), (2, 3), r"^in_shape must have 3 entries, got \(8, 8\)$"),
    (5, (2, 3), r"^in_shape must have 3 entries, got 5$"),
    ((1, 8, 8), 4, r"^channels must have 2 entries, got 4$"),
], ids=["three-channels", "one-channel", "no-channel-axis", "scalar-in-shape", "scalar-channels"])
def test_small_cnn_names_a_mis_sized_shape(in_shape, channels, match):
    # not a bare unpacking error ("too many values to unpack") or a TypeError
    with pytest.raises(ValueError, match=match):
        SmallCNN(in_shape, 3, channels=channels)


@pytest.mark.parametrize("layer_sizes,match", [
    (5, r"^layer_sizes must have >= 2 entries, got 5$"),
    ((5,), r"^layer_sizes must have >= 2 entries, got \(5,\)$"),
], ids=["scalar", "one-size"])
def test_mlp_names_mis_sized_layer_sizes(layer_sizes, match):
    with pytest.raises(ValueError, match=match):
        MLP(layer_sizes)


def test_label_out_of_range():
    model = MLP((4, 2))
    with pytest.raises(ValueError):
        model.forward_loss(np.zeros(model.n_params), Batch(np.zeros((1, 4)), np.array([2])))
    cnn = SmallCNN(in_shape=(1, 8, 8), num_classes=3, channels=(4, 5))
    with pytest.raises(ValueError, match="label out of range"):
        cnn.forward_loss(np.zeros(cnn.n_params), Batch(np.zeros((1, 1, 8, 8)), np.array([3])))


def test_batch_rejects_a_negative_label():
    with pytest.raises(ValueError, match="nonnegative"):
        Batch(np.zeros((2, 4)), np.array([0, -1]))


@pytest.mark.parametrize("method", ["loss_and_grad", "forward_loss"])
@pytest.mark.parametrize("arch,inputs,labels,match", [
    ("mlp", (2, 4), [0.0, 1.0], "labels must be integers, got dtype float64"),
    ("mlp", (2, 4), [True, False], "labels must be integers, got dtype bool"),
    ("cnn", (2, 1, 8, 8), [0.5, 1.0], "labels must be integers, got dtype float64"),
    ("mlp", (4,), [0, 1, 0, 1], r"input rows of shape \(\), expected \(4,\)"),
    ("cnn", (2, 1, 8, 4), [0, 1], r"input rows of shape \(1, 8, 4\), expected \(1, 8, 8\)"),
    ("cnn", (2, 64), [0, 1], r"input rows of shape \(64,\), expected \(1, 8, 8\)"),
    ("mlp", (0, 4), [], "batch must be nonempty"),
    ("mlp", (), [], "batch must be nonempty"),
    ("mlp", (3, 4), [0, 1], r"labels of shape \(2,\), expected one per row"),
    ("cnn", (2, 1, 8, 8), [[0], [1]], r"labels of shape \(2, 1\), expected one per row"),
], ids=["float-labels", "bool-labels", "cnn-float-labels", "mlp-1d-input", "cnn-wrong-shape",
        "cnn-flat-input", "no-rows", "scalar-input", "fewer-labels", "label-column"])
def test_batch_contract_is_one_value_error(arch, inputs, labels, match, method):
    # a bad batch is a ValueError that names it, never an IndexError from the
    # forward pass, and bool labels are not read as indices ([True, False] -> [0, 0])
    model = MLP((4, 2)) if arch == "mlp" else SmallCNN((1, 8, 8), num_classes=3, channels=(2, 3))
    with pytest.raises(ValueError, match=match):
        getattr(model, method)(np.zeros(model.n_params), Batch(np.zeros(inputs), np.array(labels)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_single_layer_closed_form_gradient():
    # softmax regression: dW = x^T (p - onehot) / B, db = sum(p - onehot) / B
    model = MLP((3, 4))
    rng = np.random.default_rng(2)
    params = model.init_params(seed=2)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 4, size=5)
    _, grad = model.loss_and_grad(params, Batch(x, y))
    w, b = model.unflatten(params)
    logits = x @ w + b
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    p[np.arange(5), y] -= 1.0
    p /= 5.0
    dw, db = model.unflatten(grad)
    assert np.allclose(dw, x.T @ p, rtol=1e-12, atol=1e-15)
    assert np.allclose(db, p.sum(axis=0), rtol=1e-12, atol=1e-15)


def test_mlp_gradient_matches_finite_differences(tiny_batch):
    model = MLP((4, 6, 3, 2))
    params = model.init_params(seed=1)
    coords = np.random.default_rng(3).choice(model.n_params, size=30, replace=False)
    assert fd_check(model, params, tiny_batch, coords) < 1e-4


def mlp_diag_gauss_newton(model, params, batch):
    """The exact diagonal Gauss-Newton of a one-hidden-layer ReLU MLP's mean
    loss on `batch`, in the flat layout. With p = softmax, m = relu'(z1),
    d = p - p^2 and c[s, h] = sum_k W2[h, k]^2 p[s, k] - (sum_k W2[h, k] p[s, k])^2:
    W1 (x^2)^T (m c) / B, b1 mean_s(m c), W2 (a1^2)^T d / B and b2 mean_s d.
    The logits are linear in W2 and, between ReLU kinks, in W1, so this is
    the Hessian's diagonal almost everywhere."""
    w1, b1, w2, b2 = model.unflatten(params)
    x = batch.inputs
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2 + b2
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    d = p - p * p
    mc = (z1 > 0.0) * (p @ (w2 * w2).T - (p @ w2.T) ** 2)
    return np.concatenate([((x * x).T @ mc).ravel() / len(x), mc.mean(axis=0),
                           ((a1 * a1).T @ d).ravel() / len(x), d.mean(axis=0)])


@pytest.mark.parametrize("width", [8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diag_gauss_newton_is_the_hessian_diagonal(width, seed):
    # central differences of loss_and_grad on up to 40 random coordinates of
    # each block; over these six cases the largest relative error is 1.9e-9
    rng = np.random.default_rng(seed)
    model = MLP((20, width, 10))
    params = model.init_params(seed)
    batch = Batch(rng.random((32, 20)), rng.integers(0, 10, 32))
    exact = mlp_diag_gauss_newton(model, params, batch)
    offset, coords = 0, []
    for part in model.unflatten(params):
        coords.extend(offset + rng.choice(part.size, min(part.size, 40), replace=False))
        offset += part.size
    h = 1e-5
    for j in coords:
        bumped = params.copy()
        bumped[j] += h
        up = model.loss_and_grad(bumped, batch)[1][j]
        bumped[j] -= 2.0 * h
        fd = (up - model.loss_and_grad(bumped, batch)[1][j]) / (2.0 * h)
        assert abs(fd - exact[j]) <= 1e-8 * max(abs(fd), abs(exact[j]), 1e-12), j


def test_cnn_gradient_matches_finite_differences():
    model = SmallCNN(in_shape=(1, 8, 8), num_classes=3, channels=(4, 5))
    params = model.init_params(seed=4)
    rng = np.random.default_rng(5)
    batch = Batch(rng.uniform(0.0, 1.0, size=(3, 1, 8, 8)), rng.integers(0, 3, size=3))
    coords = rng.choice(model.n_params, size=50, replace=False)
    assert fd_check(model, params, batch, coords) < 1e-4


def test_zero_last_layer_blocks_upstream_gradient(tiny_batch):
    model = MLP((4, 3, 2))
    params = model.init_params(seed=0)
    model.unflatten(params)[2][:] = 0.0  # last-layer weights, through their view
    grads = model.unflatten(model.loss_and_grad(params, tiny_batch)[1])
    assert np.all(grads[0] == 0.0) and np.all(grads[1] == 0.0)
    assert np.any(grads[2] != 0.0)  # dW2 = h^T delta is generally nonzero


def reference_grad(model, params, batch):
    """Each layer's gradient as its own array, concatenated in the flat layout."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    if isinstance(model, MLP):
        # its own forward, with a fresh ReLU output and a mask read off z, so
        # the model's in-place ReLU is checked against arithmetic it does not share
        parts = model.unflatten(params)
        acts, masks = [x], []
        for li in range(len(parts) // 2):
            z = acts[-1] @ parts[2 * li] + parts[2 * li + 1]
            masks.append(z > 0.0)
            acts.append(np.maximum(z, 0.0) if li < len(parts) // 2 - 1 else z)
        _, delta = _softmax_ce(acts[-1], batch.targets)
        grads = [None] * len(parts)
        for li in reversed(range(len(parts) // 2)):
            grads[2 * li] = acts[li].T @ delta
            grads[2 * li + 1] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ parts[2 * li].T) * masks[li - 1]
        return np.concatenate([g.ravel() for g in grads])
    logits, cache = model._forward(params, x)
    w2, wd, a1, cols1, idx1, p1, a2, cols2, idx2, flat = cache
    # the model's patches are views of its padded inputs; the oracle copies its own
    assert not cols1.flags.owndata and not cols2.flags.owndata
    _, dlogits = _softmax_ce(logits, batch.targets)
    dp2 = (dlogits @ wd.T).reshape(idx2.shape)
    dz2 = _pool2_backward(dp2, idx2, a2.shape) * (a2 > 0.0)
    dp1 = _conv3x3_input_grad(dz2, w2, p1.shape)
    dz1 = _pool2_backward(dp1, idx1, a1.shape) * (a1 > 0.0)
    grads = [np.einsum("bfhw,bcijhw->fcij", dz1, im2col_copy(x), optimize=True),
             dz1.sum(axis=(0, 2, 3)),
             np.einsum("bfhw,bcijhw->fcij", dz2, im2col_copy(p1), optimize=True),
             dz2.sum(axis=(0, 2, 3)), flat.T @ dlogits, dlogits.sum(axis=0)]
    return np.concatenate([g.ravel() for g in grads])


def im2col_copy(x):
    """The 3x3 patches of the zero-padded x (B,C,H,W), copied slice by slice
    into a (B,C,3,3,H,W) buffer."""
    B, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((B, C, 3, 3, H, W))
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[:, :, i : i + H, j : j + W]
    return cols


@pytest.mark.parametrize("model,in_shape", [
    (MLP((784, 256, 10)), (128, 784)),
    (MLP((20, 16, 8, 5)), (33, 20)),
    (SmallCNN(in_shape=(1, 28, 28), num_classes=10), (8, 1, 28, 28)),
    (SmallCNN(in_shape=(3, 8, 8), num_classes=7, channels=(4, 6)), (5, 3, 8, 8)),
], ids=["mlp-784-256-10", "mlp-4-layer", "cnn-1x28x28", "cnn-3x8x8"])
def test_gradient_is_written_once_into_a_fresh_vector(model, in_shape):
    rng = np.random.default_rng(13)
    params = model.init_params(seed=3)
    batch = Batch(rng.normal(size=in_shape), rng.integers(0, model.num_classes, in_shape[0]))
    _, previous = model.loss_and_grad(params, batch)
    _, grad = model.loss_and_grad(params, batch)
    assert grad.tobytes() == reference_grad(model, params, batch).tobytes()
    assert grad.dtype == np.float64 and grad.shape == (model.n_params,)
    assert grad.base is None and grad.flags.c_contiguous
    assert not np.shares_memory(grad, params) and not np.shares_memory(grad, previous)


def test_cnn_builds_an_input_gradient_for_conv2_only(monkeypatch):
    # conv1's input is the batch itself: its gradient would be built and dropped
    calls = []

    def counted(dout, w, x_shape):
        calls.append(x_shape)
        return _conv3x3_input_grad(dout, w, x_shape)

    monkeypatch.setattr(models, "_conv3x3_input_grad", counted)
    model = SmallCNN(in_shape=(3, 8, 8), num_classes=7, channels=(4, 6))
    rng = np.random.default_rng(2)
    batch = Batch(rng.normal(size=(5, 3, 8, 8)), rng.integers(0, 7, 5))
    model.loss_and_grad(model.init_params(seed=1), batch)
    assert calls == [(5, 4, 4, 4)]  # conv2's input: conv1's 4 channels, pooled to 4x4


def test_mlp_gradient_peak_memory_is_below_two_gradients():
    # one vector of n_params for the whole gradient: no per-layer arrays that
    # are then copied into it
    model = MLP((784, 256, 10))
    rng = np.random.default_rng(0)
    params = model.init_params(seed=0)
    batch = Batch(rng.random((128, 784)), rng.integers(0, 10, 128))
    tracemalloc.start()
    try:
        _, grad = model.loss_and_grad(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * grad.nbytes, peak / grad.nbytes


# ---------------------------------------------------------------------------
# fd_check utility
# ---------------------------------------------------------------------------

def test_fd_check_rejects_bad_args(tiny_batch):
    model = MLP((4, 2))
    params = model.init_params(seed=0)
    with pytest.raises(ValueError):
        fd_check(model, params, tiny_batch, [0], h=0.0)
    with pytest.raises(ValueError):
        fd_check(model, params, tiny_batch, [model.n_params])


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_fd_check_rejects_a_non_finite_step(tiny_batch, h):
    # NaN passes `h <= 0`, and an infinite step makes every difference NaN
    model = MLP((4, 2))
    with pytest.raises(ValueError, match="finite"):
        fd_check(model, model.init_params(seed=0), tiny_batch, [0, 1], h=h)


class NaNBackward(MLP):
    """A correct forward pass with a gradient that is NaN everywhere."""

    def loss_and_grad(self, params, batch):
        loss, grad = super().loss_and_grad(params, batch)
        return loss, np.full_like(grad, np.nan)


def test_fd_check_never_scores_a_nan_as_a_match(tiny_batch):
    model = NaNBackward((4, 2))
    params = model.init_params(seed=0)
    assert fd_check(model, params, tiny_batch, range(model.n_params)) == math.inf


def test_fd_check_small_on_analytic_case(tiny_batch):
    model = MLP((4, 2))
    params = model.init_params(seed=0)
    assert fd_check(model, params, tiny_batch, range(model.n_params)) < 1e-7


# ---------------------------------------------------------------------------
# init / unflatten
# ---------------------------------------------------------------------------

def test_init_is_deterministic_per_seed():
    model = SmallCNN(in_shape=(1, 8, 8), num_classes=3, channels=(2, 3))
    assert np.array_equal(model.init_params(7), model.init_params(7))
    assert not np.array_equal(model.init_params(7), model.init_params(8))


def test_parameter_count_mlp_784_256_10():
    assert MLP((784, 256, 10)).n_params == 784 * 256 + 256 + 256 * 10 + 10 == 203530


def test_flatten_round_trip_exact():
    for model in (MLP((4, 3, 2)), SmallCNN(in_shape=(1, 8, 8), num_classes=3, channels=(2, 3))):
        flat = model.init_params(seed=11)
        parts = model.unflatten(flat)
        assert np.array_equal(np.concatenate([p.ravel() for p in parts]), flat)
        assert all(np.shares_memory(p, flat) for p in parts)


@pytest.mark.parametrize("model", [MLP((4, 3, 2)), SmallCNN((1, 8, 8), 3, channels=(2, 3))],
                         ids=["mlp", "cnn"])
def test_unflatten_rejects_a_vector_of_the_wrong_length(model):
    for shape in ((model.n_params - 1,), (model.n_params + 1,), (1, model.n_params)):
        with pytest.raises(ValueError, match=f"expected {model.n_params} parameters"):
            model.unflatten(np.zeros(shape))


def test_gradient_length_equals_n(tiny_batch):
    model = MLP((4, 3, 2))
    _, grad = model.loss_and_grad(model.init_params(0), tiny_batch)
    assert grad.shape == (model.n_params,)


def test_loss_decreases_under_small_gradient_step(tiny_batch):
    model = MLP((4, 3, 2))
    params = model.init_params(seed=0)
    loss0, _ = model.forward_loss(params, tiny_batch)
    _, grad = model.loss_and_grad(params, tiny_batch)
    loss1, _ = model.forward_loss(params - 0.01 * grad, tiny_batch)
    assert loss1 < loss0
