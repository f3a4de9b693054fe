import numpy as np
import pytest

from interplab import datagen, direct, numlin
from interplab.datagen import TwoGaussians
from interplab.errors import DimensionMismatch, InvalidSpec
from interplab.rng import substream

from oracles import simplex_rule


def _toy(X, y):
    return datagen.make_dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=float))


# --- nearest neighbor rule ---

def test_one_nn_interpolates_training_points():
    ds = datagen.sample(TwoGaussians(seed=0), 80)
    got = direct.nearest_neighbor_predict(ds, ds.X)
    assert np.array_equal(got, ds.y)


def test_one_nn_tie_breaks_to_lowest_index():
    ds = _toy([[0.0], [2.0]], [-1.0, 1.0])
    assert direct.nearest_neighbor_predict(ds, np.array([[1.0]]))[0] == -1.0
    ds = _toy([[0.0], [2.0]], [1.0, -1.0])
    assert direct.nearest_neighbor_predict(ds, np.array([[1.0]]))[0] == 1.0


def test_neighbor_predictor_validation():
    ds = _toy([[0.0]], [1.0])
    with pytest.raises(DimensionMismatch):
        direct.nearest_neighbor_predict(ds, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        direct.nearest_neighbor_predict(ds, np.zeros(1))


# --- standard-simplex closed form ---

def test_simplex_example_vertices_and_origin():
    assert simplex_rule(np.array([1.0, 0.0, 0.0])) == 1.0
    assert simplex_rule(np.zeros(3)) == -1.0


def test_simplex_example_tie_goes_negative():
    assert simplex_rule(np.array([0.25, 0.25])) == -1.0
    assert simplex_rule(np.array([0.5])) == -1.0


def test_simplex_minority_volume_d3():
    frac, se = direct.simplex_minority_volume(3, 200_000, seed=0)
    assert abs(frac - 0.125) < 4 * se


def _simplex_rule_rows(coords):
    """The simplex rule on each row of coords, as _normalized_hits applies it."""
    return np.where(2.0 * coords.sum(axis=1) - 1.0 > 0, 1.0, -1.0)


def test_simplex_minority_volume_agrees_with_scalar_predictor():
    rng = np.random.default_rng(9)
    e = rng.standard_exponential((500, 4))
    pts = (e / e.sum(axis=1, keepdims=True))[:, :3]
    scalar = np.array([simplex_rule(p) for p in pts])
    assert np.array_equal(scalar, _simplex_rule_rows(pts))


def _normalized_hits(d, draws, rng):
    """Hit count of the d + 1 exponential form: each point e[:d] / sum(e)
    is formed on the simplex and classified as the simplex rule does.
    Kept as the reference for the law of simplex_minority_volume."""
    hits = done = 0
    while done < draws:
        chunk = min(200_000, draws - done)
        e = rng.standard_exponential((chunk, d + 1))
        coords = (e / e.sum(axis=1, keepdims=True))[:, :d]
        hits += int(np.count_nonzero(_simplex_rule_rows(coords) < 0.0))
        done += chunk
    return hits


SIMPLEX_LAW_SE = 5.0     # agreement bound in standard errors, fixed in advance


@pytest.mark.parametrize("block", range(3))
def test_simplex_hit_count_matches_normalized_form(block):
    # The Gamma form draws a new stream, so the two forms agree in law,
    # not draw by draw. Pool each form's hits over two seeds per block, on
    # independent streams, and compare them per dim and summed over dims
    # 1-16. Under equal laws the difference has mean 0 and variance
    # 2 N p (1 - p) with p = 2**-d.
    draws = 200_007                       # a full chunk, then a partial one
    seeds = (2 * block, 2 * block + 1)
    n = draws * len(seeds)
    diff_sum = var_sum = 0.0
    for d in range(1, 17):
        gamma_hits = sum(round(direct.simplex_minority_volume(d, draws, s)[0] * draws)
                         for s in seeds)
        ref_hits = sum(_normalized_hits(d, draws, substream(s, "simplex-reference", d))
                       for s in seeds)
        p = 2.0**-d
        var = 2.0 * n * p * (1.0 - p)
        assert abs(gamma_hits - ref_hits) <= SIMPLEX_LAW_SE * np.sqrt(var), d
        diff_sum += gamma_hits - ref_hits
        var_sum += var
    assert abs(diff_sum) <= SIMPLEX_LAW_SE * np.sqrt(var_sum)


class _FixedDraws:
    """Stands in for the generator: Gamma and exponential draws repeat the
    given values."""

    def __init__(self, g, e):
        self.g, self.e = np.asarray(g, dtype=float), np.asarray(e, dtype=float)

    def standard_gamma(self, shape, *, out):
        out[:] = np.resize(self.g, out.size)

    def standard_exponential(self, *, out):
        out[:] = np.resize(self.e, out.size)


def test_simplex_boundary_counts_as_hit(monkeypatch):
    # a tie e == g puts the point on 2 * sum(x) = 1, with sum(x) =
    # g / (g + e), which the simplex rule classifies as -1: a hit
    g = [1.0, 2.0, 0.75, 3.0, 0.5, 0.5]
    e = [1.0, 1.0, 0.75, 3.0, 0.25, 0.75]
    for d in (1, 2, 7):
        monkeypatch.setattr(direct, "substream", lambda *path: _FixedDraws(g, e))
        frac, _ = direct.simplex_minority_volume(d, len(g), seed=0)
        assert frac * len(g) == 4                 # the three ties and e > g
    for gi, ei in zip(g, e):
        hit = simplex_rule(np.array([gi / (gi + ei)])) == -1.0
        assert hit == (ei >= gi), (gi, ei)


class _RecordingDraws:
    """Records each draw request and answers it from a real generator."""

    def __init__(self):
        self.calls = []
        self.rng = np.random.default_rng(0)

    def standard_gamma(self, shape, *, out):
        self.calls.append(("gamma", shape, out.size))
        self.rng.standard_gamma(shape, out=out)

    def standard_exponential(self, *, out):
        self.calls.append(("exponential", out.size))
        self.rng.standard_exponential(out=out)


def test_simplex_draws_two_numbers_per_point_whatever_d(monkeypatch):
    for d in (1, 7, 1000):
        stub = _RecordingDraws()
        monkeypatch.setattr(direct, "substream", lambda *path: stub)
        direct.simplex_minority_volume(d, 200_007, seed=0)
        assert stub.calls == [("gamma", d, 200_000), ("exponential", 200_000),
                              ("gamma", d, 7), ("exponential", 7)], d


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_simplex_threads_reusing_scratch_match_serial_calls(cores, force_cores):
    # each thread reuses one set of buffers across its dims, and a partial
    # last chunk reads only its prefix: the estimates match fresh buffers
    draws = 200_007
    dims = (1, 4, 9, 2, 17)
    serial = [direct.simplex_minority_volume(d, draws, seed=3 + d) for d in dims]
    force_cores(cores)
    parts = min(numlin.core_count(), len(dims))
    scratch = [direct.simplex_scratch(draws) for _ in range(parts)]

    def cells(part):
        return [direct.simplex_minority_volume(d, draws, 3 + d, scratch[part])
                for d in dims[part::parts]]

    done = numlin.on_cores(cells, parts)
    assert [done[i % parts][i // parts] for i in range(len(dims))] == serial


def test_simplex_scratch_sizes_and_validation(monkeypatch):
    for draws, size in ((1, 1), (7, 7), (200_000, 200_000), (10**9, 200_000)):
        g, e, hit = direct.simplex_scratch(draws)
        assert (g.size, e.size, hit.size) == (size, size, size)
        assert g.dtype == e.dtype == float and hit.dtype == bool
    # bad counts raise before anything is allocated
    monkeypatch.setattr(direct.np, "empty", None)
    for draws in (0, -5):
        with pytest.raises(InvalidSpec, match="draws"):
            direct.simplex_scratch(draws)
        with pytest.raises(InvalidSpec, match="draws"):
            direct.simplex_minority_volume(3, draws, seed=0)
    with pytest.raises(InvalidSpec, match="d must"):
        direct.simplex_minority_volume(0, 10, seed=0)


# --- risk sanity ---

def test_one_nn_risk_close_to_twice_bayes():
    spec = TwoGaussians(separation=2.0, scale=1.0, dim=2, seed=100)
    r_star = datagen.bayes_risk(spec, 0.0)
    risks = []
    for seed in range(5):
        train = datagen.sample(TwoGaussians(separation=2.0, dim=2, seed=200 + seed), 1000)
        test = datagen.sample(TwoGaussians(separation=2.0, dim=2, seed=900 + seed), 1000)
        pred = direct.nearest_neighbor_predict(train, test.X)
        risks.append(float(np.mean(pred != test.y)))
    mean_risk = float(np.mean(risks))
    assert r_star - 0.02 <= mean_risk <= 2 * r_star + 0.1
