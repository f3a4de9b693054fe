"""Local interpolating predictors built directly from the training set.

Two families live here:

* nearest-neighbor rules (1-NN, uniform k-NN, and singular-kernel weighted
  k-NN whose weights blow up at zero distance, so the rule interpolates);
* the simplicial interpolant (linear on each cell of a triangulation) of
  one canonical training set on the standard simplex, in closed form, used
  to measure how much volume a single bad label can claim.

All neighbor searches are brute force; at the problem sizes this lab
targets the O(n) scan is cheaper than building any index. Distance ties
are broken toward the lowest training index. Classification outputs are
the sign of the interpolated value, with exact zero mapped to -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import CLASSIFICATION, Dataset
from .errors import DimensionMismatch, EmptyTrainingSet, InvalidSpec, OutsideSimplex
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
    """Predict at each row of X.

    Regression returns the (weighted) neighbor mean; classification
    returns its sign. With singular weighting, a query within 1e-12 of a
    training input returns that point's label exactly.
    """
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
    e[d] >= sum(e[:d]). That event reads e[:d] only through its sum,
    which is Gamma(d, 1) (Devroye 1986), so each point costs two draws
    whatever d is: per chunk, first one standard_gamma(d) per point, then
    one standard_exponential per point, and a hit is e >= g. No point is
    ever formed; the boundary counts as a hit, as a tie does in
    simplex_example_predict.
    """
    if d < 1:
        raise InvalidSpec("d must be at least 1")
    if draws < 1:
        raise InvalidSpec("draws must be at least 1")
    rng = substream(seed, "simplex-volume", d)
    hits = 0.0
    done = 0
    while done < draws:
        chunk = min(200_000, draws - done)
        g = rng.standard_gamma(d, chunk)
        e = rng.standard_exponential(chunk)
        hits += float(np.count_nonzero(e >= g))
        done += chunk
    p = hits / draws
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / draws))
    return p, se
