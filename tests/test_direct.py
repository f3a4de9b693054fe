import numpy as np
import pytest

from interplab import datagen, direct
from interplab.datagen import TwoGaussians
from interplab.errors import DimensionMismatch, InvalidSpec, OutsideSimplex
from interplab.rng import substream


def _toy(X, y, task=datagen.REGRESSION):
    return datagen.make_dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=float), task)


def _noisy_line(n, slope=1.0, noise_sd=0.1, seed=0):
    """y = slope * x + Gaussian noise at n points x uniform on [0, 1]."""
    rng = substream(seed, "sample-noisy-line", n)
    x = rng.random(n)
    return _toy(x[:, None], slope * x + noise_sd * rng.standard_normal(n))


# --- nearest neighbor rules ---

def test_one_nn_interpolates_training_points():
    ds = datagen.sample(TwoGaussians(seed=0), 80)
    p = direct.make_neighbor_predictor(ds, k=1)
    got = direct.knn_predict_batch(p, ds.X)
    assert np.array_equal(got, ds.y)


def test_one_nn_tie_breaks_to_lowest_index():
    ds = _toy([[0.0], [2.0]], [-1.0, 1.0], datagen.CLASSIFICATION)
    p = direct.make_neighbor_predictor(ds, k=1)
    assert direct.knn_predict_batch(p, np.array([[1.0]]))[0] == -1.0


def test_singular_equidistant_pair_averages():
    # Two neighbors at equal distance with labels 0 and 2 mix to 1.
    ds = _toy([[-1.0], [1.0]], [0.0, 2.0])
    p = direct.make_neighbor_predictor(ds, k=2, weighting=direct.SINGULAR)
    assert direct.knn_predict_batch(p, np.array([[0.0]]))[0] == pytest.approx(1.0)


def test_singular_interpolates_for_any_k():
    ds = datagen.sample(TwoGaussians(seed=3, dim=2), 60)
    p = direct.make_neighbor_predictor(ds, k=7, weighting=direct.SINGULAR)
    got = direct.knn_predict_batch(p, ds.X)
    assert np.array_equal(got, ds.y)


def test_singular_near_coincidence_returns_label():
    ds = _noisy_line(50, seed=4)
    p = direct.make_neighbor_predictor(ds, k=5, weighting=direct.SINGULAR)
    x = ds.X[17] + 1e-13
    assert direct.knn_predict_batch(p, x[None, :])[0] == ds.y[17]
    x = ds.X[17] + 1e-9
    assert direct.knn_predict_batch(p, x[None, :])[0] == pytest.approx(ds.y[17], abs=1e-6)


def test_uniform_knn_is_neighbor_mean():
    ds = _toy([[0.0], [1.0], [10.0]], [3.0, 5.0, 100.0])
    p = direct.make_neighbor_predictor(ds, k=2)
    assert direct.knn_predict_batch(p, np.array([[0.4]]))[0] == pytest.approx(4.0)


def test_uniform_knn_classification_sign_tie_is_negative():
    ds = _toy([[0.0], [1.0]], [1.0, -1.0], datagen.CLASSIFICATION)
    p = direct.make_neighbor_predictor(ds, k=2)
    assert direct.knn_predict_batch(p, np.array([[0.3]]))[0] == -1.0


def test_singular_regression_tracks_clean_line():
    # Singular-kernel smoothing of a noisy line should beat the raw noise
    # level on a fresh grid.
    errs = []
    grid = np.linspace(0.05, 0.95, 101)[:, None]
    for seed in range(20):
        ds = _noisy_line(200, slope=1.0, noise_sd=0.25, seed=seed)
        p = direct.make_neighbor_predictor(ds, k=10, weighting=direct.SINGULAR)
        pred = direct.knn_predict_batch(p, grid)
        errs.append(float(np.mean((pred - grid[:, 0]) ** 2)))
    assert float(np.mean(errs)) < 0.0625


def test_neighbor_predictor_validation():
    ds = _toy([[0.0]], [1.0])
    with pytest.raises(InvalidSpec):
        direct.make_neighbor_predictor(ds, k=2)
    with pytest.raises(InvalidSpec):
        direct.make_neighbor_predictor(ds, weighting="gauss")
    with pytest.raises(DimensionMismatch):
        direct.knn_predict_batch(direct.make_neighbor_predictor(ds), np.zeros((1, 3)))


# --- standard-simplex closed form ---

def test_simplex_example_vertices_and_origin():
    assert direct.simplex_example_predict(np.array([1.0, 0.0, 0.0])) == 1.0
    assert direct.simplex_example_predict(np.zeros(3)) == -1.0


def test_simplex_example_tie_goes_negative():
    assert direct.simplex_example_predict(np.array([0.25, 0.25])) == -1.0
    assert direct.simplex_example_predict(np.array([0.5])) == -1.0


def test_simplex_example_outside():
    with pytest.raises(OutsideSimplex):
        direct.simplex_example_predict(np.array([0.8, 0.3]))
    with pytest.raises(OutsideSimplex):
        direct.simplex_example_predict(np.array([-0.1, 0.2]))


def test_simplex_minority_volume_d3():
    frac, se = direct.simplex_minority_volume(3, 200_000, seed=0)
    assert abs(frac - 0.125) < 4 * se


def test_simplex_minority_volume_agrees_with_scalar_predictor():
    rng = np.random.default_rng(9)
    e = rng.standard_exponential((500, 4))
    pts = (e / e.sum(axis=1, keepdims=True))[:, :3]
    scalar = np.array([direct.simplex_example_predict(p) for p in pts])
    vector = np.where(2.0 * pts.sum(axis=1) - 1.0 > 0, 1.0, -1.0)
    assert np.array_equal(scalar, vector)


def _normalized_hits(d, draws, seed, rng=None):
    """Hit count of the normalize-then-sum form simplex_minority_volume
    replaced, on the same stream; kept as its oracle."""
    rng = substream(seed, "simplex-volume", d) if rng is None else rng
    hits = done = 0
    while done < draws:
        chunk = min(200_000, draws - done)
        e = rng.standard_exponential((chunk, d + 1))
        coords = (e / e.sum(axis=1, keepdims=True))[:, :d]
        hits += int(np.count_nonzero(2.0 * coords.sum(axis=1) - 1.0 <= 0.0))
        done += chunk
    return hits


@pytest.mark.parametrize("seed", range(3))
def test_simplex_hit_count_matches_normalized_form(seed):
    draws = 200_007                       # a full chunk, then a partial one
    for d in range(1, 17):
        frac, _ = direct.simplex_minority_volume(d, draws, seed)
        assert frac == _normalized_hits(d, draws, seed) / draws, d


class _FixedRows:
    """Stands in for the generator: every draw repeats the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def standard_exponential(self, shape):
        assert shape[1] == self.rows.shape[1]
        return np.resize(self.rows, shape)


def test_simplex_boundary_counts_as_hit(monkeypatch):
    # integer draws whose totals are powers of two, so the normalized form
    # is exact too: a tie e[d] == sum(e[:d]) lies on 2 * sum(x) = 1, which
    # simplex_example_predict classifies as -1, so it is a hit
    cases = {1: [[1, 1], [2, 1], [1, 2], [3, 1]],
             2: [[1, 1, 2], [1, 2, 1], [1, 3, 4], [2, 1, 1]],
             3: [[1, 1, 2, 4], [2, 2, 3, 1], [1, 2, 5, 8], [2, 1, 1, 3]]}
    for d, rows in cases.items():
        monkeypatch.setattr(direct, "substream", lambda *path: _FixedRows(rows))
        frac, _ = direct.simplex_minority_volume(d, len(rows), seed=0)
        assert frac * len(rows) == 2
        assert frac * len(rows) == _normalized_hits(d, len(rows), 0, _FixedRows(rows))


# --- risk sanity ---

def test_one_nn_risk_close_to_twice_bayes():
    spec = TwoGaussians(separation=2.0, scale=1.0, dim=2, seed=100)
    r_star = datagen.bayes_risk(spec, 0.0)
    risks = []
    for seed in range(5):
        train = datagen.sample(TwoGaussians(separation=2.0, dim=2, seed=200 + seed), 1000)
        test = datagen.sample(TwoGaussians(separation=2.0, dim=2, seed=900 + seed), 1000)
        p = direct.make_neighbor_predictor(train, k=1)
        pred = direct.knn_predict_batch(p, test.X)
        risks.append(float(np.mean(pred != test.y)))
    mean_risk = float(np.mean(risks))
    assert r_star - 0.02 <= mean_risk <= 2 * r_star + 0.1
