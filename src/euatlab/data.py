"""Datasets: synthetic 2-D generators, an IDX image loader, and binary
one-vs-rest reduction.

Inputs are always float64 matrices scaled to [0, 1]; splits are disjoint
index arrays tagged train / validation / test, and a dataset stores its
rows split by split, so each split is one contiguous block of rows that
``Dataset.split`` returns as read-only views. The synthetic generators
are deterministic given their seed and expose a noise knob that controls
class overlap (for Gaussian blobs the Bayes error floor).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng

DATASET_KINDS = ("two_moons", "gaussian_blobs", "rings")

# blob class centers sit on this circle around (0.5, 0.5); for two classes
# they are diametrically opposite at distance 2 * radius
BLOB_CENTER_RADIUS = 0.12


class DataError(ValueError):
    """Dataset construction or parsing failure; ``code`` names the cause."""

    def __init__(self, message, code="data"):
        super().__init__(message)
        self.code = code


@dataclass
class Dataset:
    """Rows, labels and their splits, stored split by split.

    The rows of each split form one contiguous block of ``inputs``: the
    blocks follow the order of ``splits`` and keep the order of each
    split's ids, and rows in no split come last. Arrays given in any other
    order are regrouped once on construction, and ``splits`` then holds the
    new ids (``np.arange`` ranges). ``split`` returns read-only views.
    """

    inputs: np.ndarray  # (n, d) in [0, 1]
    labels: np.ndarray  # (n,) integer class ids
    splits: dict[str, np.ndarray]
    _rows: dict[str, slice] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.labels)
        if self.inputs.ndim != 2 or len(self.inputs) != n:
            raise DataError("inputs must be (n, d) with one label per row")
        order, grouped = _grouped(self.splits)
        if not np.array_equal(order, np.arange(len(order))):
            if len(np.unique(order)) != len(order):
                raise DataError("splits must be disjoint")
            if len(order) and (order.min() < 0 or order.max() >= n):
                raise DataError("split index out of range")
            rest = np.setdiff1d(np.arange(n), order, assume_unique=True)
            order = np.concatenate([order, rest])
            self.inputs, self.labels = self.inputs[order], self.labels[order]
            self.splits = grouped
        self._rows = _blocks(self.splits)

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the split's rows and labels."""
        rows = self._rows[name]
        inputs, labels = self.inputs[rows], self.labels[rows]
        inputs.flags.writeable = labels.flags.writeable = False
        return inputs, labels


def _blocks(splits: dict[str, np.ndarray]) -> dict[str, slice]:
    """The block of rows each split holds when the rows are stored split by
    split in the order of ``splits``."""
    stops = np.cumsum([len(ids) for ids in splits.values()], dtype=np.int64).tolist()
    return {name: slice(stop - len(ids), stop)
            for (name, ids), stop in zip(splits.items(), stops)}


def _grouped(splits: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The split ids concatenated in split order, and each split's ids once
    the rows are stored in that order."""
    ids = np.concatenate([np.empty(0, np.int64), *map(np.asarray, splits.values())])
    return ids, {name: np.arange(b.start, b.stop) for name, b in _blocks(splits).items()}


def split_indices(
    n: int, seed: int, val_fraction: float = 0.1, test_fraction: float = 0.2
) -> dict[str, np.ndarray]:
    """Disjoint shuffled train/validation/test index arrays."""
    # every comparison with NaN is False, so a NaN fraction fails too
    if not (val_fraction >= 0 and test_fraction >= 0
            and val_fraction + test_fraction < 1):
        raise DataError("split fractions must be non-negative and sum below 1")
    order = rng.substream(seed, "split").permutation(n)
    n_val = int(round(n * val_fraction))
    n_test = int(round(n * test_fraction))
    return {
        "validation": np.sort(order[:n_val]),
        "test": np.sort(order[n_val : n_val + n_test]),
        "train": np.sort(order[n_val + n_test :]),
    }


def _blob_centers(class_count: int, dim: int = 2) -> np.ndarray:
    """Class centers on a circle in the first two coordinates; any further
    coordinates are uninformative (all centers at 0.5)."""
    angles = 2.0 * np.pi * np.arange(class_count) / class_count
    centers = np.full((class_count, dim), 0.5)
    centers[:, 0] += BLOB_CENTER_RADIUS * np.cos(angles)
    centers[:, 1] += BLOB_CENTER_RADIUS * np.sin(angles)
    return centers


def _gen_blobs(n, noise, seed, class_count, dim=2):
    # built in the normal draw itself: the same products and sums as
    # centers[labels] + noise * z, with no temporary of the output's size
    centers = _blob_centers(class_count, dim)
    points = rng.substream(seed, "blobs").standard_normal((n, dim))
    points *= noise
    # row i is labelled i % class_count: each whole block of class_count
    # rows takes every center at once, and the last rows the first centers
    whole = n - n % class_count
    blocks = points[:whole].reshape(-1, class_count, dim)
    blocks += centers
    points[whole:] += centers[: n - whole]
    return points, np.arange(n) % class_count


def _gen_two_moons(n, noise, seed, class_count, dim=2):
    if class_count != 2:
        raise DataError("two_moons is a binary dataset")
    if dim != 2:
        raise DataError("two_moons is a 2-d dataset")
    n_upper = n // 2
    gen = rng.substream(seed, "moons")
    t_up = np.pi * gen.random(n_upper)
    t_lo = np.pi * gen.random(n - n_upper)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)])
    points = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n_upper, np.int64), np.ones(n - n_upper, np.int64)])
    points += noise * gen.standard_normal(points.shape)
    # fixed affine map of the moon bounding box into the unit square
    points[:, 0] = (points[:, 0] + 1.3) / 3.6
    points[:, 1] = (points[:, 1] + 0.8) / 2.6
    return points, labels


def _gen_rings(n, noise, seed, class_count, dim=2):
    if dim != 2:
        raise DataError("rings is a 2-d dataset")
    labels = np.arange(n) % class_count
    radii = 0.35 * (labels + 1) / class_count
    gen = rng.substream(seed, "rings")
    theta = 2.0 * np.pi * gen.random(n)
    r = radii + noise * gen.standard_normal(n)
    points = 0.5 + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return points, labels


_GENERATORS = {
    "gaussian_blobs": _gen_blobs,
    "two_moons": _gen_two_moons,
    "rings": _gen_rings,
}


def generate_dataset(
    kind: str,
    n: int,
    noise: float,
    seed: int,
    class_count: int = 2,
    val_fraction: float = 0.1,
    test_fraction: float = 0.2,
    dim: int = 2,
) -> Dataset:
    """Deterministic synthetic dataset with shuffled rows and splits.

    ``dim`` (blobs only) appends uninformative noise coordinates beyond the
    first two; the Bayes error of the two-class geometry is unchanged. The
    rows are stored split by split (validation, test, train, each in
    ascending id order), so ``split`` returns read-only views.
    """
    if kind not in _GENERATORS:
        raise DataError(f"unknown dataset kind {kind!r}")
    if n < class_count:
        raise DataError(f"need at least one row per class: n={n} < {class_count}")
    if dim < 2:
        raise DataError(f"dim must be >= 2, got {dim}")
    if not np.isfinite(noise):
        raise DataError(f"noise must be finite, got {noise}")
    points, labels = _GENERATORS[kind](n, noise, seed, class_count, dim)
    ids, splits = _grouped(split_indices(n, seed, val_fraction, test_fraction))
    # the rows are shuffled, then stored split by split: dataset row i is
    # shuffled row ids[i], so one gather does both
    order = rng.substream(seed, "row-shuffle").permutation(n)[ids]
    inputs = points[order]
    return Dataset(
        inputs=np.clip(inputs, 0.0, 1.0, out=inputs),
        labels=labels[order],
        splits=splits,
    )


IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, count, path):
    blob = fh.read(count)
    if len(blob) != count:
        raise DataError(f"{path}: truncated file", code="truncated")
    return blob


def _read_body(fh, header_size, count, path):
    # checked before reading, so a forged header never drives an allocation
    size = os.fstat(fh.fileno()).st_size
    if size != header_size + count:
        raise DataError(
            f"{path}: {size} bytes, header declares {header_size + count}",
            code="truncated" if size < header_size + count else "trailing_bytes",
        )
    return _read_exact(fh, count, path)


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}", code="unreadable") from exc


def load_idx(
    images_path,
    labels_path,
    seed: int = 0,
    val_fraction: float = 0.1,
    test_fraction: float = 0.2,
) -> Dataset:
    """Load an IDX image/label file pair (big-endian, magic 0x803/0x801).

    Pixels are scaled to [0, 1] and flattened row-major to one feature
    vector per image. A file shorter or longer than its header declares
    raises ``DataError`` code ``truncated`` or ``trailing_bytes``; a header
    that declares 0 rows or 0 columns per image, code ``empty_image``; a
    path that cannot be opened (missing, a directory), code ``unreadable``.
    """
    with _open(images_path) as fh:
        magic, n_images, n_rows, n_cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path)
        )
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(
                f"{images_path}: bad image magic 0x{magic:08x}", code="bad_magic"
            )
        if n_rows == 0 or n_cols == 0:
            raise DataError(
                f"{images_path}: empty images ({n_rows} x {n_cols} pixels)",
                code="empty_image",
            )
        raw = _read_body(fh, 16, n_images * n_rows * n_cols, images_path)

    with _open(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise DataError(
                f"{labels_path}: bad label magic 0x{magic:08x}", code="bad_magic"
            )
        labels = np.frombuffer(_read_body(fh, 8, n_labels, labels_path), dtype=np.uint8)

    if n_labels != n_images:
        raise DataError(
            f"count mismatch: {n_images} images vs {n_labels} labels",
            code="count_mismatch",
        )
    ids, splits = _grouped(split_indices(n_images, seed, val_fraction, test_fraction))
    # the rows are grouped while they are bytes, the file's bytes go before
    # the one float64 copy is made, and that copy is scaled in place
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n_images, n_rows * n_cols)[ids]
    del raw
    inputs = pixels.astype(np.float64)
    inputs /= 255.0
    return Dataset(
        inputs=inputs,
        labels=labels[ids].astype(np.int64),
        splits=splits,
    )


def make_binary_task(dataset: Dataset, positive_class: int) -> Dataset:
    """One-vs-rest label reduction; the positive class becomes label 1. The
    inputs and split indices are the source's own arrays, not copies:
    nothing writes to them."""
    if positive_class not in dataset.labels:
        raise DataError(f"positive class {positive_class} absent from labels")
    return Dataset(
        inputs=dataset.inputs,
        labels=(dataset.labels == positive_class).astype(np.int64),
        splits=dict(dataset.splits),
    )

