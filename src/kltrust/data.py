"""Dataset ingestion (IDX and CIFAR binaries), batching, synthetic objectives.

A split keeps its pixels as the uint8 array the files hold; the rows a
minibatch or an eval chunk reads are scaled by 1/255 to float64 as they are
read. That is the only normalization. Mini-batch order is a pure function of
(seed, epoch) and the final partial batch is kept.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .baselines import check
from .models import Batch

IDX_LABELS_MAGIC = 0x00000801
IDX_IMAGES_MAGIC = 0x00000803

_FASHION_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class Dataset:
    """One split: uint8 pixels, scaled by 1/255 as rows are read, or float
    inputs (datasets built in memory), read as they are."""

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape[0] != self.labels.shape[0]:
            raise ValueError("pixels and labels must have equal length")

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def rows(self, idx) -> np.ndarray:
        """The inputs at `idx` (an index array or a slice) as model inputs."""
        if self.pixels.dtype == np.uint8:
            # bitwise equal to astype(float64) / 255
            return np.divide(self.pixels[idx], 255.0)
        return self.pixels[idx]

    @property
    def inputs(self) -> np.ndarray:
        """Every row as model inputs; for uint8 pixels, a new float64 array
        of the whole split."""
        return self.rows(slice(None))


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def load_idx(path) -> np.ndarray:
    """Parse one big-endian IDX file (gzip transparently accepted).

    Image files (magic 0x00000803) come back as float64 scaled by 1/255 in
    the header-declared shape; label files (magic 0x00000801) as int64.
    """
    data = _read_idx(path)
    if data.dtype == np.uint8:
        return np.divide(data, 255.0)
    return data


def _read_idx(path) -> np.ndarray:
    """load_idx without the scaling: images stay the file's uint8 bytes
    (a read-only view of them, no copy); labels come back as int64."""
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise ValueError(f"{path}: too short for an IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_LABELS_MAGIC:
        ndim = 1
    elif magic == IDX_IMAGES_MAGIC:
        ndim = 3
    else:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    if dims[0] == 0:
        raise ValueError(f"{path}: no records (header dimensions {dims})")
    count = 1
    for d in dims:
        count *= d
        if count > 2**40:
            raise ValueError(f"{path}: header dimensions {dims} overflow")
    if len(raw) - header != count:
        raise ValueError(
            f"{path}: expected {count} data bytes for dims {dims}, "
            f"found {len(raw) - header}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)
    if magic == IDX_LABELS_MAGIC:
        return data.astype(np.int64)
    return data


def load_fashion_mnist(root) -> tuple[Dataset, Dataset]:
    """Load the four standard IDX files (plain or .gz) under `root`."""
    root = Path(root)
    out = []
    for images_name, labels_name in _FASHION_MNIST_FILES.values():
        paths = []
        for name in (images_name, labels_name):
            plain, gz = root / name, root / (name + ".gz")
            if plain.exists():
                paths.append(plain)
            elif gz.exists():
                paths.append(gz)
            else:
                raise FileNotFoundError(f"missing dataset file {plain} (or .gz)")
        out.append(Dataset(_read_idx(paths[0]), _read_idx(paths[1])))
    return out[0], out[1]


def _parse_cifar_records(raw: bytes, label_bytes: int, path) -> tuple[np.ndarray, np.ndarray]:
    record = label_bytes + 3072
    if len(raw) == 0 or len(raw) % record != 0:
        raise ValueError(
            f"{path}: size {len(raw)} is not a multiple of the {record}-byte record"
        )
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    labels = data[:, label_bytes - 1].astype(np.int64)  # fine label is last
    return data[:, label_bytes:].reshape(-1, 3, 32, 32), labels


def load_cifar_binary(directory, which: int) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 (five train batches) or CIFAR-100 (coarse byte dropped)."""
    directory = Path(directory)
    if which == 10:
        train_files = [directory / f"data_batch_{i}.bin" for i in range(1, 6)]
        test_files = [directory / "test_batch.bin"]
        label_bytes = 1
    elif which == 100:
        train_files = [directory / "train.bin"]
        test_files = [directory / "test.bin"]
        label_bytes = 2
    else:
        raise ValueError(f"which must be 10 or 100, got {which}")

    def load_split(files):
        xs, ys = [], []
        for f in files:
            if not f.exists():
                raise FileNotFoundError(f"missing dataset file {f}")
            x, y = _parse_cifar_records(f.read_bytes(), label_bytes, f)
            xs.append(x)
            ys.append(y)
        return Dataset(np.concatenate(xs), np.concatenate(ys))

    return load_split(train_files), load_split(test_files)


def minibatches(dataset: Dataset, batch_size: int, seed: int, epoch: int) -> Iterator[Batch]:
    """Seeded per-(seed, epoch) permutation; the last partial batch is kept."""
    check("count", batch_size=batch_size)
    perm = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = perm[start : start + batch_size]
        yield Batch(dataset.rows(idx), dataset.labels[idx])


@dataclass(frozen=True)
class SyntheticQuadraticTask:
    """Diagonal quadratic objective with Gaussian-perturbed minimizer.

    A single "sample" draws c ~ N(theta_star, noise_scale^2 I) and exposes
    the gradient D * (mu - c); the expectation over draws is the exact
    gradient D * (mu - theta_star).
    """

    theta_star: np.ndarray
    diag: np.ndarray
    noise_scale: float
    seed: int = 0

    def __post_init__(self):
        if self.theta_star.shape != self.diag.shape or self.theta_star.ndim != 1:
            raise ValueError("theta_star and diag must be 1-d vectors of equal length")
        if not (np.isfinite(self.theta_star).all() and np.isfinite(self.diag).all()
                and (self.diag > 0.0).all()):
            raise ValueError("theta_star must be finite, and diag entries finite and > 0")
        check("non_negative", noise_scale=self.noise_scale)
        object.__setattr__(self, "noise_scale", float(self.noise_scale))

    @property
    def n(self) -> int:
        return self.theta_star.shape[0]

    def loss(self, mu: np.ndarray) -> float:
        d = mu - self.theta_star
        return 0.5 * float(np.sum(self.diag * d * d))


def synthetic_grad(task: SyntheticQuadraticTask, mu: np.ndarray, step: int,
                   draws: int) -> np.ndarray:
    """Mean gradient at `mu` of step `step`'s `draws` samples: one (draws, n) block
    from the generator keyed [task.seed, step, 1]. A key ending in 1 never equals,
    even zero-padded, the [seed, 90210] key of the quadratic task's initial point."""
    check("count", draws=draws)
    z = np.random.default_rng([task.seed, step, 1]).standard_normal((draws, task.n))
    return task.diag * (mu - (task.theta_star + task.noise_scale * z).mean(axis=0))
