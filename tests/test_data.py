import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from kltrust.data import (
    Dataset,
    SyntheticQuadraticTask,
    load_cifar_binary,
    load_fashion_mnist,
    load_idx,
    minibatches,
    synthetic_grad,
)
from kltrust.harness import _evaluate_accuracy, _with_channel
from kltrust.models import MLP, Batch


def write_idx_images(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        f.write(labels.tobytes())


@pytest.fixture
def idx_images(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    path = tmp_path / "imgs-idx3-ubyte"
    write_idx_images(path, arr)
    return path, arr


# ---------------------------------------------------------------------------
# load_idx
# ---------------------------------------------------------------------------

def test_idx_images_shape_and_scaling(idx_images):
    path, arr = idx_images
    out = load_idx(path)
    assert out.shape == (5, 4, 3)
    assert out.dtype == np.float64
    assert np.array_equal(out, arr.astype(np.float64) / 255.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_idx_labels_are_ints(tmp_path):
    path = tmp_path / "labels-idx1-ubyte"
    write_idx_labels(path, [3, 1, 9, 0])
    out = load_idx(path)
    assert out.dtype == np.int64
    assert np.array_equal(out, [3, 1, 9, 0])
    assert np.all((out >= 0) & (out < 10))


def test_idx_gzip_transparent(idx_images, tmp_path):
    path, arr = idx_images
    gz = tmp_path / "imgs-idx3-ubyte.gz"
    gz.write_bytes(gzip.compress(path.read_bytes()))
    assert np.array_equal(load_idx(gz), load_idx(path))


def test_idx_repeated_loads_identical(idx_images):
    path, _ = idx_images
    assert np.array_equal(load_idx(path), load_idx(path))


def test_idx_bad_magic_named_in_error(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">II", 0x00000805, 3) + b"\x00" * 3)
    with pytest.raises(ValueError, match="0x00000805"):
        load_idx(path)


def test_idx_truncated_file(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 5, 4, 3) + b"\x00" * 10)
    with pytest.raises(ValueError, match="truncated|expected"):
        load_idx(path)


@pytest.mark.parametrize("raw,message", [
    (b"\x00\x00\x08", "too short for an IDX header"),
    (struct.pack(">II", 0x00000803, 5), "truncated IDX header"),  # 3 dims declared, 1 given
    (struct.pack(">I", 0x00000801), "truncated IDX header"),
], ids=["no-magic", "images-header-cut", "labels-header-missing"])
def test_idx_header_too_short(tmp_path, raw, message):
    path = tmp_path / "short"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        load_idx(path)


def test_idx_dimension_overflow(tmp_path):
    path = tmp_path / "huge"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4) + b"\x00" * 4)
    with pytest.raises(ValueError, match="overflow"):
        load_idx(path)


def test_fashion_mnist_loader_composes(tmp_path):
    rng = np.random.default_rng(1)
    for split, n in (("train", 7), ("t10k", 4)):
        write_idx_images(tmp_path / f"{split}-images-idx3-ubyte",
                         rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / f"{split}-labels-idx1-ubyte",
                         rng.integers(0, 10, size=n, dtype=np.uint8))
    train, test = load_fashion_mnist(tmp_path)
    assert len(train) == 7 and len(test) == 4
    assert train.inputs.shape == (7, 28, 28)


def test_fashion_mnist_loader_reads_gzipped_files(tmp_path):
    for name in ("plain", "gz"):
        (tmp_path / name).mkdir()
    write_fashion_mnist(tmp_path / "plain", 7, 4)
    for path in (tmp_path / "plain").iterdir():
        (tmp_path / "gz" / (path.name + ".gz")).write_bytes(gzip.compress(path.read_bytes()))
    for plain, gz in zip(load_fashion_mnist(tmp_path / "plain"),
                         load_fashion_mnist(tmp_path / "gz"), strict=True):
        assert np.array_equal(plain.pixels, gz.pixels)
        assert np.array_equal(plain.labels, gz.labels)


def test_fashion_mnist_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_fashion_mnist(tmp_path)


# ---------------------------------------------------------------------------
# load_cifar_binary
# ---------------------------------------------------------------------------

def write_cifar10_batch(path, labels, rng):
    recs = []
    for lab in labels:
        recs.append(bytes([lab]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
    path.write_bytes(b"".join(recs))


def test_cifar10_record_arithmetic(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(1, 6):
        write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", [i % 10, (i + 1) % 10], rng)
    write_cifar10_batch(tmp_path / "test_batch.bin", [7], rng)
    train, test = load_cifar_binary(tmp_path, 10)
    assert len(train) == 10 and len(test) == 1
    assert train.inputs.shape == (10, 3, 32, 32)
    assert test.labels[0] == 7
    assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0


def test_cifar100_keeps_fine_label(tmp_path):
    rng = np.random.default_rng(3)
    rec = bytes([5, 42]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
    (tmp_path / "train.bin").write_bytes(rec * 3)
    (tmp_path / "test.bin").write_bytes(rec)
    train, test = load_cifar_binary(tmp_path, 100)
    assert np.array_equal(train.labels, [42, 42, 42])  # coarse byte 5 dropped
    assert len(test) == 1


def test_cifar_truncated_record(tmp_path):
    (tmp_path / "train.bin").write_bytes(b"\x00" * 100)
    (tmp_path / "test.bin").write_bytes(b"\x00" * 3074)
    with pytest.raises(ValueError, match="record"):
        load_cifar_binary(tmp_path, 100)


def test_cifar_missing_file(tmp_path):
    rng = np.random.default_rng(4)
    for i in (1, 2, 3, 5):  # data_batch_4.bin is missing
        write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", [1], rng)
    write_cifar10_batch(tmp_path / "test_batch.bin", [1], rng)
    with pytest.raises(FileNotFoundError, match="missing dataset file .*data_batch_4.bin"):
        load_cifar_binary(tmp_path, 10)


def test_cifar_bad_which(tmp_path):
    with pytest.raises(ValueError):
        load_cifar_binary(tmp_path, 20)


# ---------------------------------------------------------------------------
# minibatches
# ---------------------------------------------------------------------------

@pytest.fixture
def indexed_dataset():
    # labels equal the row index so batch order is observable
    inputs = np.arange(10, dtype=float).reshape(10, 1) / 10.0
    return Dataset(inputs, np.arange(10))


def test_minibatch_order_reproducible(indexed_dataset):
    a = [b.targets.tolist() for b in minibatches(indexed_dataset, 4, seed=3, epoch=2)]
    b = [b.targets.tolist() for b in minibatches(indexed_dataset, 4, seed=3, epoch=2)]
    assert a == b


def test_minibatch_order_changes_with_epoch(indexed_dataset):
    a = [b.targets.tolist() for b in minibatches(indexed_dataset, 4, seed=3, epoch=0)]
    b = [b.targets.tolist() for b in minibatches(indexed_dataset, 4, seed=3, epoch=1)]
    assert a != b


def test_minibatches_cover_dataset_once(indexed_dataset):
    batches = list(minibatches(indexed_dataset, 4, seed=0, epoch=0))
    assert [len(b.targets) for b in batches] == [4, 4, 2]  # partial final batch kept
    seen = sorted(int(t) for b in batches for t in b.targets)
    assert seen == list(range(10))


def test_minibatch_bad_size(indexed_dataset):
    with pytest.raises(ValueError):
        list(minibatches(indexed_dataset, 0, seed=0, epoch=0))


# ---------------------------------------------------------------------------
# source-precision storage: uint8 pixels, scaled as rows are read
# ---------------------------------------------------------------------------

def write_fashion_mnist(root, train, test, seed=5):
    rng = np.random.default_rng(seed)
    for split, n in (("train", train), ("t10k", test)):
        write_idx_images(root / f"{split}-images-idx3-ubyte",
                         rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
        write_idx_labels(root / f"{split}-labels-idx1-ubyte",
                         rng.integers(0, 10, size=n, dtype=np.uint8))


def test_minibatches_of_a_loaded_split_equal_load_idx_rows(tmp_path):
    write_fashion_mnist(tmp_path, 37, 3)
    train, _ = load_fashion_mnist(tmp_path)
    scaled = Dataset(load_idx(tmp_path / "train-images-idx3-ubyte"), train.labels)
    for epoch in (0, 1):
        pairs = zip(minibatches(train, 8, seed=2, epoch=epoch),
                    minibatches(scaled, 8, seed=2, epoch=epoch), strict=True)
        for got, want in pairs:
            assert got.inputs.dtype == np.float64
            assert np.array_equal(got.inputs.view(np.int64), want.inputs.view(np.int64))
            assert np.array_equal(got.targets, want.targets)


def test_evaluation_reads_uint8_and_float_splits_alike(tmp_path):
    write_fashion_mnist(tmp_path, 3, 70)
    _, loaded = load_fashion_mnist(tmp_path)
    model = MLP((784, 16, 10))
    params = np.random.default_rng(3).normal(scale=0.1, size=model.n_params)
    # label every image with the class the model predicts from its scaled
    # pixels, so only reading the rows scaled scores 1
    _, logits = model.forward_loss(params, Batch(load_idx(tmp_path / "t10k-images-idx3-ubyte"),
                                                 loaded.labels))
    test = Dataset(loaded.pixels, logits.argmax(axis=1))
    as_float = Dataset(test.inputs, test.labels)
    for chunk in (16, 512):  # several chunks, the last partial, and one
        assert _evaluate_accuracy(model, params, test, chunk=chunk) == 1.0
        assert _evaluate_accuracy(model, params, as_float, chunk=chunk) == 1.0


def test_loaders_keep_source_precision(tmp_path):
    write_fashion_mnist(tmp_path, 6, 2)
    train, test = load_fashion_mnist(tmp_path)
    for ds, n in ((train, 6), (test, 2)):
        assert ds.pixels.dtype == np.uint8 and ds.pixels.nbytes == n * 784
        assert ds.inputs.dtype == np.float64 and ds.inputs.max() <= 1.0
    channel = _with_channel(train)
    assert channel.pixels.shape == (6, 1, 28, 28)
    assert np.shares_memory(channel.pixels, train.pixels)
    assert np.array_equal(channel.rows([4, 0])[:, 0], train.rows([4, 0]))

    rng = np.random.default_rng(2)
    for i in range(1, 6):
        write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", [i, 0, 3], rng)
    write_cifar10_batch(tmp_path / "test_batch.bin", [7], rng)
    for ds, n in zip(load_cifar_binary(tmp_path, 10), (15, 1)):
        assert ds.pixels.dtype == np.uint8 and ds.pixels.nbytes == n * 3072


def test_float_dataset_is_not_rescaled():
    inputs = np.linspace(-3.0, 300.0, 12).reshape(6, 2)
    ds = Dataset(inputs, np.arange(6))
    assert np.array_equal(ds.rows([5, 1]), inputs[[5, 1]])
    assert np.array_equal(ds.inputs, inputs)
    batches = list(minibatches(ds, 4, seed=0, epoch=0))
    got = np.concatenate([b.inputs for b in batches])
    order = np.concatenate([b.targets for b in batches])
    assert np.array_equal(got, inputs[order])


def test_loading_holds_no_float_copy_of_a_split(tmp_path):
    # a float64 copy of the pixels would be 8x their bytes; the traced peak
    # of a load stays below twice the uint8 bytes
    write_fashion_mnist(tmp_path, 2048, 256)
    pixel_bytes = (2048 + 256) * 784
    tracemalloc.start()
    try:
        train, test = load_fashion_mnist(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train.pixels.nbytes + test.pixels.nbytes == pixel_bytes
    assert peak < 2 * pixel_bytes, peak / pixel_bytes


# ---------------------------------------------------------------------------
# synthetic quadratic task
# ---------------------------------------------------------------------------

def make_task(s=0.0):
    return SyntheticQuadraticTask(
        theta_star=np.array([1.0, -2.0]), diag=np.array([0.5, 3.0]), noise_scale=s
    )


def test_noiseless_gradient_exact():
    task = make_task(0.0)
    mu = np.array([2.0, 0.0])
    for draws in (1, 3):
        assert np.array_equal(synthetic_grad(task, mu, 0, draws),
                              task.diag * (mu - task.theta_star))


def test_gradient_zero_at_optimum():
    task = make_task(0.0)
    assert np.array_equal(synthetic_grad(task, task.theta_star.copy(), 5, 3), np.zeros(2))


def test_batched_draw_mean_and_variance():
    # each step's gradient is the mean of `draws` samples, so over N steps its
    # mean lies within 3 standard errors of D (mu - theta*) and its
    # per-coordinate variance is D^2 noise^2 / draws: (N - 1) s^2 / sigma^2 is
    # chi-square with N - 1 dof, whose sd over its mean is sqrt(2 / (N - 1));
    # the bound is 4 of those
    task = make_task(1.0)
    mu = np.array([0.3, 0.6])
    steps = 2000
    exact = task.diag * (mu - task.theta_star)
    for draws in (1, 32):
        grads = np.array([synthetic_grad(task, mu, k, draws) for k in range(steps)])
        sigma2 = (task.noise_scale * task.diag) ** 2 / draws
        assert np.all(np.abs(grads.mean(axis=0) - exact) <= 3.0 * np.sqrt(sigma2 / steps))
        ratio = grads.var(axis=0, ddof=1) / sigma2
        assert np.all(np.abs(ratio - 1.0) <= 4.0 * np.sqrt(2.0 / (steps - 1))), (draws, ratio)


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticQuadraticTask(np.zeros(2), np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        SyntheticQuadraticTask(np.zeros(2), np.ones(2), -1.0)
    for theta_star, diag, noise_scale in [
        (np.array([np.nan, 0.0]), np.ones(2), 1.0),
        (np.array([0.0, np.inf]), np.ones(2), 1.0),
        (np.zeros(2), np.array([np.nan, 1.0]), 1.0),
        (np.zeros(2), np.array([1.0, np.inf]), 1.0),
        (np.zeros(2), np.ones(2), np.nan),
        (np.zeros(2), np.ones(2), np.inf),
    ]:
        with pytest.raises(ValueError):
            SyntheticQuadraticTask(theta_star, diag, noise_scale)
    task = make_task(1.0)
    for draws in (0, -1, 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="draws"):
            synthetic_grad(task, np.zeros(2), 0, draws)


def test_dataset_length_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
