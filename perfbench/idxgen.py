"""Synthetic Fashion-MNIST-shaped IDX files, generated from a seed.

Pixels are uniform random uint8 28x28 images. Labels come from a random
linear teacher on the pixels (argmax over ten directions), so the task is
learnable and test accuracy can move off chance. The files use the real
IDX layout (magic 0x803 for images, 0x801 for labels, big-endian dims), so
the harness reads them through the same parser as the real dataset.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
SIDE = 28
CLASSES = 10

FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def idx_bytes(array: np.ndarray) -> bytes:
    """Encode a uint8 array of rank 1 (labels) or 3 (images) as IDX."""
    if array.dtype != np.uint8 or array.ndim not in (1, 3):
        raise ValueError(f"need a uint8 array of rank 1 or 3, got {array.dtype} rank {array.ndim}")
    magic = LABELS_MAGIC if array.ndim == 1 else IMAGES_MAGIC
    header = struct.pack(f">I{array.ndim}I", magic, *array.shape)
    return header + np.ascontiguousarray(array).tobytes()


def make_split(rng: np.random.Generator, teacher: np.ndarray, count: int):
    images = rng.integers(0, 256, size=(count, SIDE, SIDE), dtype=np.uint8)
    centered = images.reshape(count, -1).astype(np.float64) / 255.0 - 0.5
    labels = (centered @ teacher).argmax(axis=1).astype(np.uint8)
    return images, labels


def write_fashion_mnist(root, seed: int, train: int, test: int) -> Path:
    """Write the four Fashion-MNIST IDX files under `root`/fashion_mnist.

    Returns `root`, the directory to pass as the harness `data_dir`.
    """
    root = Path(root)
    out = root / "fashion_mnist"
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1D8])
    teacher = rng.standard_normal((SIDE * SIDE, CLASSES))
    for split, count in (("train", train), ("test", test)):
        images, labels = make_split(rng, teacher, count)
        images_name, labels_name = FILES[split]
        (out / images_name).write_bytes(idx_bytes(images))
        (out / labels_name).write_bytes(idx_bytes(labels))
    return root
