"""IDX image/label loading, normalization, and deterministic mini-batching.

Handles the classic big-endian IDX layout used by the MNIST family
(optionally gzip-compressed), plus a float64 variant (type code 0x0E) used
to persist adversarial images without quantization loss.
"""

from __future__ import annotations

import gzip
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .tensor import Array, Rng

IDX_UBYTE = 0x08
IDX_FLOAT64 = 0x0E

_DTYPE_BY_CODE = {IDX_UBYTE: np.dtype(">u1"), IDX_FLOAT64: np.dtype(">f8")}


class IdxFormatError(ValueError):
    """Malformed IDX header or type code."""


class DataConsistencyError(ValueError):
    """Image/label files disagree, or labels out of range."""


def _open_maybe_gzip(path):
    return gzip.open(path) if str(path).endswith(".gz") else open(path, "rb")


def read_idx(path) -> np.ndarray:
    """Read one IDX file into an ndarray (ubyte or float64 payload)."""
    try:
        return _read_idx(path)
    except (EOFError, zlib.error) as exc:     # a cut or corrupt gzip stream
        raise OSError(f"corrupt gzip IDX file {path}: {exc}") from exc


def _read_idx(path) -> np.ndarray:
    with _open_maybe_gzip(path) as f:
        header = f.read(4)
        if len(header) < 4:
            raise OSError(f"truncated IDX file (no header): {path}")
        if header[0] != 0 or header[1] != 0:
            raise IdxFormatError(f"bad IDX magic {header[:4].hex()} in {path}")
        type_code, ndim = header[2], header[3]
        if type_code not in _DTYPE_BY_CODE:
            raise IdxFormatError(f"unsupported IDX type code 0x{type_code:02x} in {path}")
        if ndim == 0:
            raise IdxFormatError(f"IDX header with no dims in {path}")
        dim_bytes = f.read(4 * ndim)
        if len(dim_bytes) < 4 * ndim:
            raise OSError(f"truncated IDX file (header dims): {path}")
        dims = [int.from_bytes(dim_bytes[4 * i:4 * i + 4], "big") for i in range(ndim)]
        dtype = _DTYPE_BY_CODE[type_code]
        # Python ints: a header's dims may multiply past any fixed width.
        left = math.prod(dims) * dtype.itemsize
        chunks = []     # bounded reads: memory grows with the bytes present
        while left and (chunk := f.read(min(left, 1 << 24))):
            chunks.append(chunk)
            left -= len(chunk)
        if left:
            raise OSError(f"truncated IDX file (payload): {path}")
        return np.frombuffer(b"".join(chunks), dtype=dtype).reshape(dims)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A temp file beside ``path``, renamed onto it when the block exits
    cleanly and removed when the block raises: readers never see a torn
    file, and a failed write leaves an earlier file at ``path`` as it was."""
    tmp = f"{path}.tmp"
    f = open(tmp, mode)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_idx(path, array: np.ndarray, type_code: int = IDX_UBYTE) -> None:
    """Write an ndarray as an IDX file (big-endian, matching ``read_idx``),
    through ``atomic_open``."""
    if type_code not in _DTYPE_BY_CODE:
        raise IdxFormatError(f"unsupported IDX type code 0x{type_code:02x}")
    dtype = _DTYPE_BY_CODE[type_code]
    # Compression follows the final name, not the temp file's.
    with atomic_open(path, "wb") as raw, (
            gzip.GzipFile(str(path), "wb", fileobj=raw)
            if str(path).endswith(".gz") else raw) as f:
        f.write(bytes([0, 0, type_code, array.ndim]))
        for d in array.shape:
            f.write(int(d).to_bytes(4, "big"))
        f.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


@dataclass
class Dataset:
    """Flattened image matrix (n x 784, pixels in [0,1]) with class labels."""

    images: Array
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.images.shape[0] != len(self.labels):
            raise DataConsistencyError(
                f"{self.images.shape[0]} images vs {len(self.labels)} labels")

    @property
    def n(self) -> int:
        return self.images.shape[0]


def load_idx(images_path, labels_path, name: str = "") -> Dataset:
    """Load an IDX image/label pair, scaling ubyte pixels to [0,1]."""
    raw_images = read_idx(images_path)
    raw_labels = read_idx(labels_path)
    if raw_images.ndim != 3:
        raise IdxFormatError(
            f"expected 3-D image file, got {raw_images.ndim}-D: {images_path}")
    if raw_labels.ndim != 1:
        raise IdxFormatError(
            f"expected 1-D label file, got {raw_labels.ndim}-D: {labels_path}")
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise DataConsistencyError(
            f"image count {raw_images.shape[0]} != label count {raw_labels.shape[0]}")
    n = raw_images.shape[0]
    if n == 0:
        raise DataConsistencyError(f"no images in {images_path}")
    images = raw_images.reshape(n, -1).astype(np.float64)
    if raw_images.dtype == np.dtype(">u1"):
        images /= 255.0
    labels = raw_labels.astype(np.int64)
    if n and (labels.min() < 0 or labels.max() > 9):
        raise DataConsistencyError(
            f"labels outside 0..9 in {labels_path}: range "
            f"[{labels.min()}, {labels.max()}]")
    return Dataset(images=images, labels=labels, name=name)


def save_idx(dataset: Dataset, images_path, labels_path,
             type_code: int = IDX_UBYTE, side: int = 28) -> None:
    """Persist a Dataset back to an IDX pair.

    With the default ubyte code, pixels are rescaled by 255; datasets loaded
    from ubyte files round-trip bit-identically.  Float64 keeps exact values
    (used for adversarial batches).
    """
    n = dataset.n
    cols = dataset.images.shape[1]
    if cols != side * side:
        side = int(np.sqrt(cols))
        if side * side != cols:
            raise ValueError(f"cannot reshape {cols} pixels to a square image")
    images = dataset.images.reshape(n, side, side)
    if type_code == IDX_UBYTE:
        images = np.rint(images * 255.0)
    write_idx(images_path, images, type_code)
    write_idx(labels_path, dataset.labels.astype(np.uint8), IDX_UBYTE)


def take_prefix(dataset: Dataset, n: int) -> Dataset:
    """First ``n`` samples in file order (no shuffling)."""
    if n > dataset.n:
        raise ValueError(f"prefix of {n} requested from {dataset.n} samples")
    if n < 0:
        raise ValueError(f"prefix length must be nonnegative, got {n}")
    return Dataset(images=dataset.images[:n].copy(),
                   labels=dataset.labels[:n].copy(),
                   name=dataset.name)


_STANDARD_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    "ood": ("notmnist-images-idx3-ubyte", "notmnist-labels-idx1-ubyte"),
}


def find_split(data_dir, split: str):
    """Locate the IDX pair for a split under ``data_dir`` (gz accepted).

    Returns (images_path, labels_path) or None if either file is missing.
    """
    img_name, lab_name = _STANDARD_FILES[split]
    paths = []
    for base in (img_name, lab_name):
        found = None
        for cand in (base, base + ".gz"):
            p = os.path.join(data_dir, cand)
            if os.path.exists(p):
                found = p
                break
        if found is None:
            return None
        paths.append(found)
    return tuple(paths)


def load_split(data_dir, split: str, name: str = "") -> Dataset:
    pair = find_split(data_dir, split)
    if pair is None:
        raise FileNotFoundError(
            f"no {split} IDX pair ({'/'.join(_STANDARD_FILES[split])}) under {data_dir}")
    return load_idx(pair[0], pair[1], name=name or split)


# Spawn tag namespacing epoch permutations away from other streams derived
# from the same training seed.
_SHUFFLE_STREAM = 1


class BatchIterator:
    """Serves shuffled mini-batches; each epoch is an exact permutation.

    The permutation for epoch e is derived from (seed, e), so two iterators
    with the same seed produce identical batch sequences.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        if dataset.n == 0:
            raise ValueError("cannot iterate over an empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.epoch = 0
        self._pos = 0
        self._perm = self._permutation_for_epoch(0)

    def _permutation_for_epoch(self, epoch: int) -> np.ndarray:
        return Rng(self.seed).derive(_SHUFFLE_STREAM, epoch).permutation(self.dataset.n)

    def next_size(self) -> int:
        """The size of the batch that ``next_batch`` serves next."""
        pos = self._pos if self._pos < self.dataset.n else 0
        return min(self.batch_size, self.dataset.n - pos)

    def next_batch(self):
        """Next (images, labels) batch; reshuffles at epoch boundaries."""
        if self._pos >= self.dataset.n:
            self.epoch += 1
            self._perm = self._permutation_for_epoch(self.epoch)
            self._pos = 0
        idx = self._perm[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.dataset.images[idx], self.dataset.labels[idx]
