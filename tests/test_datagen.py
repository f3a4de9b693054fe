import math
import struct

import numpy as np
import pytest

from interplab import datagen
from interplab.datagen import (
    CorruptionSpec,
    TwoGaussians,
    UniformSimplex,
)
from interplab.errors import (
    BadMagic,
    InvalidInput,
    InvalidSpec,
    TruncatedFile,
    UnknownClass,
)


# --- sampling ---

def test_two_gaussians_labels_and_shape():
    ds = datagen.sample(TwoGaussians(separation=2.0, scale=1.0, dim=3, seed=1), 500)
    assert ds.X.shape == (500, 3)
    assert set(np.unique(ds.y)) == {-1.0, 1.0}


def test_two_gaussians_class_means_separate():
    spec = TwoGaussians(separation=4.0, scale=1.0, dim=2, seed=5)
    ds = datagen.sample(spec, 4000)
    mean_pos = ds.X[ds.y > 0, 0].mean()
    mean_neg = ds.X[ds.y < 0, 0].mean()
    # Each class mean is within 4 standard errors of +-2.
    se = 1.0 / math.sqrt(2000.0)
    assert abs(mean_pos - 2.0) < 4 * se * 2
    assert abs(mean_neg + 2.0) < 4 * se * 2
    # Off-axis coordinates carry no signal.
    assert abs(ds.X[ds.y > 0, 1].mean()) < 4 * se * 2


def test_sampling_is_bit_reproducible():
    spec = TwoGaussians(seed=42)
    a = datagen.sample(spec, 100)
    b = datagen.sample(spec, 100)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = datagen.sample(TwoGaussians(seed=43), 100)
    assert not np.array_equal(a.X, c.X)


def test_uniform_simplex_support_and_labels():
    ds = datagen.sample(UniformSimplex(dim=4, seed=0), 1000)
    assert np.all(ds.X >= 0.0)
    assert np.all(ds.X.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(ds.y == 1.0)


def test_uniform_simplex_is_uniform_in_mean():
    # Uniform on the standard simplex in R^d has coordinate mean 1/(d+1).
    ds = datagen.sample(UniformSimplex(dim=3, seed=9), 20000)
    assert np.allclose(ds.X.mean(axis=0), 0.25, atol=0.01)


def test_make_dataset_dedups_with_report():
    X = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 3.0]])
    ds = datagen.make_dataset(X, np.array([1.0, -1.0, 1.0]))
    assert ds.n == 2
    assert ds.n_duplicates_dropped == 1
    assert ds.y[0] == 1.0  # first occurrence wins


def test_make_dataset_rejects_bad_labels():
    with pytest.raises(InvalidInput):
        datagen.make_dataset(np.eye(2), np.array([1.0, 0.5]))


def test_to_labels_sends_zero_and_minus_zero_to_plus_one():
    got = datagen.to_labels(np.array([-1.0, -0.0, 0.0, 5e-324, 1.0]))
    assert got.dtype == float and got.tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0]


def test_dataset_arrays_are_frozen():
    ds = datagen.sample(TwoGaussians(seed=0), 10)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0


# --- corruption ---

def test_corrupt_q_zero_is_identity():
    ds = datagen.sample(TwoGaussians(seed=1), 200)
    out = datagen.corrupt(ds, CorruptionSpec(q=0.0, seed=7))
    assert np.array_equal(out.y, ds.y)


def test_corrupt_q_one_decorrelates_labels():
    ds = datagen.sample(TwoGaussians(seed=2), 10000)
    out = datagen.corrupt(ds, CorruptionSpec(q=1.0, seed=8))
    corr = float(np.mean(out.y * ds.y))
    assert abs(corr) < 3.0 / math.sqrt(10000)


def test_corrupt_flip_rate_is_half_q():
    # Labels are deterministically +1, so any -1 after corruption is a flip.
    q = 0.8
    rates = []
    for seed in range(20):
        ds = datagen.sample(UniformSimplex(dim=2, seed=seed), 2000)
        out = datagen.corrupt(ds, CorruptionSpec(q=q, seed=seed))
        rates.append(float(np.mean(out.y != 1.0)))
    rate = float(np.mean(rates))
    sigma = math.sqrt(0.4 * 0.6 / (2000 * 20))
    assert abs(rate - q / 2) < 3 * sigma


def test_corruption_spec_validates_q():
    with pytest.raises(InvalidSpec):
        CorruptionSpec(q=1.5)


# --- bayes risk oracle ---

def _gauss_pdf(t, mu):
    return np.exp(-0.5 * (t - mu) ** 2) / math.sqrt(2 * math.pi)


def test_bayes_risk_two_gaussians_matches_quadrature():
    # Direct numerical integration of min(p_+, p_-)/2 for means +-1, unit var.
    spec = TwoGaussians(separation=2.0, scale=1.0, dim=1, seed=0)
    t = np.linspace(-12, 12, 200001)
    integrand = 0.5 * np.minimum(_gauss_pdf(t, 1.0), _gauss_pdf(t, -1.0))
    oracle = float(np.trapezoid(integrand, t))
    got = datagen.bayes_risk(spec, 0.0)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(0.15865525393145707, abs=1e-12)


def test_bayes_risk_is_affine_in_q():
    spec = TwoGaussians(separation=2.0, scale=1.0, dim=2, seed=0)
    r0 = datagen.bayes_risk(spec, 0.0)
    assert datagen.bayes_risk(spec, 1.0) == pytest.approx(0.5)
    q = 0.37
    assert datagen.bayes_risk(spec, q) == pytest.approx(q / 2 + (1 - q) * r0)


def test_bayes_risk_deterministic_family():
    assert datagen.bayes_risk(UniformSimplex(dim=3), 0.0) == 0.0
    assert datagen.bayes_risk(UniformSimplex(dim=3), 0.8) == pytest.approx(0.4)


def test_bayes_risk_error_paths():
    with pytest.raises(InvalidSpec):
        datagen.bayes_risk(object(), 0.1)
    with pytest.raises(InvalidSpec):
        datagen.bayes_risk(TwoGaussians(), -0.1)


# --- IDX loading ---

def _write_idx(tmp_path, images, labels, image_magic=0x00000803, label_magic=0x00000801,
               truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, r, c = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, r, c) + images.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-truncate_images]
    lab_bytes = struct.pack(">II", label_magic, labels.shape[0]) + labels.tobytes()
    ip = tmp_path / "imgs.idx3-ubyte"
    lp = tmp_path / "labs.idx1-ubyte"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lab_bytes)
    return str(ip), str(lp)


def _tiny_corpus(rng):
    images = rng.integers(0, 256, size=(12, 2, 3))
    labels = np.array([3, 8, 3, 8, 3, 8, 3, 8, 5, 3, 8, 3])
    return images, labels


def test_load_idx_happy_path(tmp_path):
    rng = np.random.default_rng(0)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels)
    ds = datagen.load_idx(ip, lp, (3, 8), 6)
    assert ds.X.shape == (6, 6)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0
    # First six rows with label in {3, 8} are file rows 0..5.
    assert np.array_equal(ds.y, [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    flat = images.reshape(12, 6)[0].astype(float) / 255.0
    assert np.allclose(ds.X[0], flat)


def test_load_idx_class_order_controls_sign(tmp_path):
    rng = np.random.default_rng(1)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels)
    ds = datagen.load_idx(ip, lp, (8, 3), 6)
    assert np.array_equal(ds.y, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def test_load_idx_bad_magic(tmp_path):
    rng = np.random.default_rng(2)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels, image_magic=0x00000804)
    with pytest.raises(BadMagic):
        datagen.load_idx(ip, lp, (3, 8), 2)


def test_load_idx_truncated_payload(tmp_path):
    rng = np.random.default_rng(3)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels, truncate_images=5)
    with pytest.raises(TruncatedFile):
        datagen.load_idx(ip, lp, (3, 8), 2)


def test_load_idx_refuses_oversized_request(tmp_path):
    rng = np.random.default_rng(4)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels)
    with pytest.raises(TruncatedFile, match="11"):
        datagen.load_idx(ip, lp, (3, 8), 12)


def test_load_idx_unknown_class(tmp_path):
    rng = np.random.default_rng(5)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels)
    with pytest.raises(UnknownClass):
        datagen.load_idx(ip, lp, (3, 7), 2)
    with pytest.raises(InvalidSpec):
        datagen.load_idx(ip, lp, (3, 3), 2)


def test_load_idx_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    images, labels = _tiny_corpus(rng)
    ip, lp = _write_idx(tmp_path, images, labels)
    a = datagen.load_idx(ip, lp, (3, 8), 5)
    b = datagen.load_idx(ip, lp, (3, 8), 5)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

