"""Synthetic data families, label corruption, and analytic risk oracles.

Families are small frozen specs; sample(spec, n) turns one into a Dataset.
Every Dataset is two-class: its labels are exactly -1.0 or +1.0, and
to_labels is the one rule that turns a real prediction into such a label
(0 and -0 go to +1). Sampling is bit-reproducible:
the same spec and n always produce the same arrays, regardless of what else
has been sampled in the process.

Duplicate input rows are dropped at dataset construction (keeping the first
occurrence) because exact duplicates with conflicting labels make
interpolation impossible; the count of dropped rows is kept on the dataset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    InvalidInput,
    InvalidSpec,
    TruncatedFile,
    UnknownClass,
)
from .rng import substream

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of inputs and their +-1 labels."""

    X: np.ndarray
    y: np.ndarray
    n_duplicates_dropped: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def make_dataset(X, y) -> Dataset:
    """Validate arrays, drop exact duplicate rows, and freeze a Dataset."""
    X = np.array(X, dtype=float, order="C", copy=True)
    y = np.array(y, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInput(f"X must be a nonempty 2-D array, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise InvalidInput(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise InvalidInput("dataset has non-finite entries")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidInput("labels must be exactly +1 or -1")
    _, first = np.unique(X, axis=0, return_index=True)
    if first.size < X.shape[0]:
        keep = np.sort(first)
        dropped = X.shape[0] - keep.size
        X, y = X[keep], y[keep]
    else:
        dropped = 0
    X.setflags(write=False)
    y.setflags(write=False)
    return Dataset(X=X, y=y, n_duplicates_dropped=dropped)


def to_labels(values) -> np.ndarray:
    """The +-1 label of each real prediction: +1 where it is >= 0 (0 and -0
    included), -1 elsewhere."""
    return np.where(np.asarray(values) >= 0.0, 1.0, -1.0)


# --- distribution specs ---

@dataclass(frozen=True)
class TwoGaussians:
    """Two spherical Gaussian classes with means +-(separation/2) on axis 0."""

    separation: float = 2.0
    scale: float = 1.0
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.separation < 0:
            raise InvalidSpec("separation must be non-negative")
        if self.scale <= 0:
            raise InvalidSpec("scale must be positive")
        if self.dim < 1:
            raise InvalidSpec("dim must be at least 1")


@dataclass(frozen=True)
class UniformSimplex:
    """Uniform draws from the standard simplex, every label +1."""

    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidSpec("dim must be at least 1")


DistributionSpec = TwoGaussians | UniformSimplex


def sample(spec: DistributionSpec, n: int) -> Dataset:
    """Draw n points from the family described by spec."""
    if n < 1:
        raise InvalidSpec("n must be at least 1")
    if isinstance(spec, TwoGaussians):
        rng = substream(spec.seed, "sample-two-gaussians", n)
        y = rng.integers(0, 2, size=n) * 2.0 - 1.0
        # make_dataset rejects the entries that overflow here
        with np.errstate(over="ignore", invalid="ignore"):
            X = spec.scale * rng.standard_normal((n, spec.dim))
            X[:, 0] += y * (spec.separation / 2.0)
        return make_dataset(X, y)
    if isinstance(spec, UniformSimplex):
        rng = substream(spec.seed, "sample-uniform-simplex", n)
        e = rng.standard_exponential((n, spec.dim + 1))
        X = (e / e.sum(axis=1, keepdims=True))[:, : spec.dim]
        return make_dataset(X, np.ones(n))
    raise InvalidSpec(f"unknown distribution spec {type(spec)!r}")


# --- label corruption ---

@dataclass(frozen=True)
class CorruptionSpec:
    """Replace each label, independently with probability q, by a fair coin."""

    q: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise InvalidSpec("q must lie in [0, 1]")


def corrupt(ds: Dataset, spec: CorruptionSpec) -> Dataset:
    """Return a copy of ds with coin-replaced labels.

    A replaced label actually flips only half the time, so the expected
    flip rate is q/2.
    """
    rng = substream(spec.seed, "corrupt", ds.n)
    hit = rng.random(ds.n) < spec.q
    coin = rng.integers(0, 2, size=ds.n) * 2.0 - 1.0
    y = np.where(hit, coin, ds.y)
    out = Dataset(X=ds.X, y=y, n_duplicates_dropped=ds.n_duplicates_dropped)
    out.y.setflags(write=False)
    return out


def _phi(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def bayes_risk(spec: DistributionSpec, q: float) -> float:
    """Risk of the optimal rule under q-corrupted labels: q/2 + (1-q) R*.

    R* is the clean Bayes risk of the family.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidSpec("q must lie in [0, 1]")
    if isinstance(spec, TwoGaussians):
        r_star = _phi(-spec.separation / (2.0 * spec.scale))
    elif isinstance(spec, UniformSimplex):
        r_star = 0.0
    else:
        raise InvalidSpec(f"unknown distribution spec {type(spec)!r}")
    return q / 2.0 + (1.0 - q) * r_star


# --- IDX loading ---

def _read_idx(path: str, want_magic: int, kind: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise TruncatedFile(f"{kind} file shorter than its magic number")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != want_magic:
        raise BadMagic(f"{kind} file has magic 0x{magic:08x}, expected 0x{want_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise TruncatedFile(f"{kind} file ends inside its dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) < header + count:
        raise TruncatedFile(
            f"{kind} file declares {count} bytes of payload but only "
            f"{len(raw) - header} are present"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header)
    return dims, data


def load_idx(images_path: str, labels_path: str, classes, n: int) -> Dataset:
    """Load a two-class subset from an IDX image/label file pair.

    Pixels are scaled to [0, 1]. Rows whose label is the first entry of
    classes map to -1, the second to +1; other rows are skipped. The first
    n matching rows in file order are returned.
    """
    cls = tuple(classes)
    if len(cls) != 2 or cls[0] == cls[1]:
        raise InvalidSpec("classes must be two distinct labels")
    if n < 1:
        raise InvalidSpec("n must be at least 1")
    img_dims, img_data = _read_idx(images_path, _IMAGES_MAGIC, "images")
    lab_dims, lab_data = _read_idx(labels_path, _LABELS_MAGIC, "labels")
    n_img, d = img_dims[0], int(np.prod(img_dims[1:]))
    if lab_dims[0] != n_img:
        raise InvalidSpec(f"{n_img} images but {lab_dims[0]} labels")
    labels = lab_data.astype(int)
    for c in cls:
        if not np.any(labels == c):
            raise UnknownClass(f"class {c} absent from label file")
    mask = (labels == cls[0]) | (labels == cls[1])
    avail = int(mask.sum())
    if n > avail:
        raise TruncatedFile(f"requested {n} rows but only {avail} match classes {cls}")
    rows = np.flatnonzero(mask)[:n]
    X = img_data.reshape(n_img, d)[rows].astype(float) / 255.0
    y = np.where(labels[rows] == cls[0], -1.0, 1.0)
    return make_dataset(X, y)
