"""Local interpolating predictors built directly from the training set.

Three families live here:

* nearest-neighbor rules (1-NN, uniform k-NN, and singular-kernel weighted
  k-NN whose weights blow up at zero distance, so the rule interpolates);
* simplicial interpolation, linear on each cell of a triangulation of the
  training inputs (dimension 3 or lower);
* a closed-form special case of the simplicial rule on the standard
  simplex, used to measure how much volume a single bad label can claim.

All neighbor searches are brute force; at the problem sizes this lab
targets the O(n) scan is cheaper than building any index. Distance ties
are broken toward the lowest training index. Classification outputs are
the sign of the interpolated value, with exact zero mapped to -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import CLASSIFICATION, Dataset
from .errors import (
    DegeneratePosition,
    DimensionMismatch,
    DimensionTooHigh,
    EmptyTrainingSet,
    InvalidSpec,
    OutsideHull,
    OutsideSimplex,
)
from .rng import substream

COINCIDENCE_TOL = 1e-12
UNIFORM = "uniform"
SINGULAR = "singular"


def _classify(values: np.ndarray) -> np.ndarray:
    return np.where(values > 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class NeighborPredictor:
    train: Dataset
    k: int
    weighting: str
    alpha: float


def make_neighbor_predictor(train: Dataset, k: int = 1, weighting: str = UNIFORM,
                            alpha: float | None = None) -> NeighborPredictor:
    """Configure a k-nearest-neighbor predictor over a training set.

    weighting "uniform" averages the k nearest labels; "singular" weights
    them by distance**(-alpha), which interpolates the training data. The
    default alpha equals the input dimension.
    """
    if train.n == 0:
        raise EmptyTrainingSet("predictor needs at least one training point")
    if not 1 <= k <= train.n:
        raise InvalidSpec(f"k must lie in [1, {train.n}], got {k}")
    if weighting not in (UNIFORM, SINGULAR):
        raise InvalidSpec(f"unknown weighting {weighting!r}")
    if alpha is None:
        alpha = float(train.dim)
    if alpha <= 0:
        raise InvalidSpec("alpha must be positive")
    return NeighborPredictor(train=train, k=k, weighting=weighting, alpha=alpha)


def _query_matrix(p: NeighborPredictor, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != p.train.dim:
        raise DimensionMismatch(
            f"queries must be (m, {p.train.dim}), got shape {X.shape}")
    return X


def knn_predict_batch(p: NeighborPredictor, X) -> np.ndarray:
    """Vectorized knn_predict over the rows of X."""
    X = _query_matrix(p, X)
    Xt, yt = p.train.X, p.train.y
    d2 = np.maximum(
        (X * X).sum(axis=1)[:, None] + (Xt * Xt).sum(axis=1)[None, :] - 2.0 * X @ Xt.T,
        0.0,
    )
    if p.k == 1 and p.weighting == UNIFORM:
        nearest = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        values = yt[nearest]
    else:
        order = np.argsort(d2, axis=1, kind="stable")[:, : p.k]
        rows = np.arange(X.shape[0])[:, None]
        labels = yt[order]
        if p.weighting == UNIFORM:
            values = labels.mean(axis=1)
        else:
            dist = np.sqrt(d2[rows, order])
            hit = dist < COINCIDENCE_TOL
            with np.errstate(divide="ignore", over="ignore"):
                w = dist ** (-p.alpha)
            w = np.where(np.isfinite(w), w, 0.0)
            values = np.empty(X.shape[0])
            any_hit = hit.any(axis=1)
            if np.any(any_hit):
                # Coincident training point: its label verbatim. The order
                # array is distance-sorted with stable ties, so the first
                # hit is the lowest-index one.
                first = hit[any_hit].argmax(axis=1)
                values[any_hit] = labels[any_hit, first]
            rest = ~any_hit
            if np.any(rest):
                wr = w[rest]
                values[rest] = (wr * labels[rest]).sum(axis=1) / wr.sum(axis=1)
    if p.train.task == CLASSIFICATION:
        return _classify(values)
    return values


def knn_predict(p: NeighborPredictor, x) -> float:
    """Predict at a single query point.

    Regression returns the (weighted) neighbor mean; classification
    returns its sign. With singular weighting, a query within 1e-12 of a
    training input returns that point's label exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"query must be 1-D, got shape {x.shape}")
    return float(knn_predict_batch(p, x[None, :])[0])


# --- simplicial interpolation ---

@dataclass(frozen=True)
class SimplicialInterpolant:
    train: Dataset
    simplices: tuple
    _tri: object = None  # scipy Delaunay for dim >= 2
    _order: np.ndarray | None = None  # sorted point order for dim 1


def build_simplicial(train: Dataset) -> SimplicialInterpolant:
    """Triangulate the training inputs for piecewise-linear interpolation.

    Supports input dimension 1 to 3. In dimension 1 cells are the sorted
    consecutive segments; in higher dimension a Delaunay triangulation is
    used, so every cell satisfies the empty-circumsphere property up to
    degeneracy tolerance. Raises DegeneratePosition when the points admit
    no full-dimensional triangulation (for example, collinear points in
    the plane) and DimensionTooHigh above dimension 3.
    """
    if train.n == 0:
        raise EmptyTrainingSet("triangulation needs training points")
    d = train.dim
    if d > 3:
        raise DimensionTooHigh(f"simplicial interpolation supports dim <= 3, got {d}")
    if train.n < d + 1:
        raise DegeneratePosition(f"need at least {d + 1} points in dimension {d}")
    if d == 1:
        order = np.argsort(train.X[:, 0], kind="stable")
        simplices = tuple(
            (int(order[i]), int(order[i + 1])) for i in range(train.n - 1)
        )
        return SimplicialInterpolant(train=train, simplices=simplices, _order=order)
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(train.X)
    except QhullError as exc:
        raise DegeneratePosition(f"no valid triangulation: {exc}") from exc
    simplices = tuple(tuple(int(v) for v in row) for row in tri.simplices)
    return SimplicialInterpolant(train=train, simplices=simplices, _tri=tri)


def simplicial_predict(interp: SimplicialInterpolant, x) -> float:
    """Linearly interpolate inside the containing cell of the query.

    The value is the barycentric mix of the cell's vertex labels;
    classification takes its sign. Queries outside the convex hull of the
    training inputs raise OutsideHull.
    """
    x = np.asarray(x, dtype=float)
    train = interp.train
    if x.ndim != 1 or x.shape[0] != train.dim:
        raise DimensionMismatch(f"query must have shape ({train.dim},), got {x.shape}")
    if train.dim == 1:
        xs = train.X[interp._order, 0]
        ys = train.y[interp._order]
        t = x[0]
        if t < xs[0] or t > xs[-1]:
            raise OutsideHull(f"query {t} outside [{xs[0]}, {xs[-1]}]")
        j = int(np.searchsorted(xs, t, side="right"))
        j = min(max(j, 1), xs.size - 1)
        lam = (t - xs[j - 1]) / (xs[j] - xs[j - 1])
        value = (1.0 - lam) * ys[j - 1] + lam * ys[j]
    else:
        tri = interp._tri
        idx = int(tri.find_simplex(x[None, :])[0])
        if idx < 0:
            raise OutsideHull("query outside the convex hull of the training inputs")
        T = tri.transform[idx]
        b = T[: train.dim] @ (x - T[train.dim])
        weights = np.append(b, 1.0 - b.sum())
        value = float(weights @ train.y[list(interp.simplices[idx])])
    if train.task == CLASSIFICATION:
        return float(_classify(np.array([value]))[0])
    return float(value)


# --- standard-simplex worked example ---

def simplex_example_predict(x) -> float:
    """Closed-form simplicial classifier on the standard simplex.

    This is the piecewise-linear interpolant of the canonical training
    set: the d unit vertices labeled +1 and the origin labeled -1. On the
    simplex it reduces to sign(2*sum(x) - 1); an exact tie classifies as
    -1. Queries outside the standard simplex raise OutsideSimplex.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatch(f"query must be a nonempty 1-D point, got shape {x.shape}")
    s = float(x.sum())
    if np.any(x < -COINCIDENCE_TOL) or s > 1.0 + 1e-9:
        raise OutsideSimplex("query outside the standard simplex")
    value = 2.0 * s - 1.0
    return 1.0 if value > 0.0 else -1.0


def simplex_minority_volume(d: int, draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo volume fraction of the -1 region of simplex_example_predict.

    Returns (fraction, standard error) over uniform draws from the
    standard d-simplex. The exact value is 2**-d.

    A uniform point is x = e[:d] / sum(e) for d + 1 iid standard
    exponentials e, and its -1 region 2 * sum(x) <= 1 is the event
    e[d] >= sum(e[:d]). That event is counted directly, so no point is
    ever normalized; the boundary counts as a hit, as a tie does in
    simplex_example_predict.
    """
    if d < 1:
        raise InvalidSpec("d must be at least 1")
    if draws < 1:
        raise InvalidSpec("draws must be at least 1")
    rng = substream(seed, "simplex-volume", d)
    ones = np.ones(d)
    hits = 0.0
    done = 0
    while done < draws:
        chunk = min(200_000, draws - done)
        e = rng.standard_exponential((chunk, d + 1))
        hits += float(np.count_nonzero(e[:, d] >= e[:, :d] @ ones))
        done += chunk
    p = hits / draws
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / draws))
    return p, se
