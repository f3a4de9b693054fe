"""Local interpolating predictors built directly from the training set.

Two rules live here:

* the 1-nearest-neighbor rule, which interpolates its training set;
* the simplicial interpolant (linear on each cell of a triangulation) of
  one canonical training set on the standard simplex, in closed form, used
  to measure how much volume a single bad label can claim.

The neighbor search is brute force; at the problem sizes this lab targets
the O(n) scan is cheaper than building any index. Distance ties are broken
toward the lowest training index.
"""

from __future__ import annotations

import numpy as np

from .datagen import Dataset
from .errors import DimensionMismatch, InvalidSpec
from .rng import substream


def nearest_neighbor_predict(train: Dataset, X) -> np.ndarray:
    """Label of the nearest training point to each row of X.

    Squared distances come from one GEMM, |x|^2 + |z|^2 - 2 x.z clipped at
    0; a tie goes to the lowest training index. The result is a +-1 label
    per row, because every Dataset is two-class.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != train.dim:
        raise DimensionMismatch(
            f"queries must be (m, {train.dim}), got shape {X.shape}")
    Xt = train.X
    d2 = np.maximum(
        (X * X).sum(axis=1)[:, None] + (Xt * Xt).sum(axis=1)[None, :] - 2.0 * X @ Xt.T,
        0.0,
    )
    return train.y[np.argmin(d2, axis=1)]   # argmin takes the lowest index on ties


# --- standard-simplex worked example ---

def simplex_scratch(draws: int) -> tuple:
    """Buffers for simplex_minority_volume at this draw count.

    The (g, e, hit) arrays hold one chunk of min(200_000, draws) points:
    Gamma draws, exponential draws and hit flags, 3.4 MB at full size.
    draws is checked first, so a bad count raises InvalidSpec before
    anything is allocated.
    """
    if draws < 1:
        raise InvalidSpec("draws must be at least 1")
    chunk = min(200_000, draws)
    return np.empty(chunk), np.empty(chunk), np.empty(chunk, dtype=bool)


def simplex_minority_volume(d: int, draws: int, seed: int,
                            scratch: tuple | None = None) -> tuple[float, float]:
    """Monte Carlo volume fraction of the -1 region of the simplicial rule.

    The rule is the piecewise-linear interpolant of the canonical
    training set, the d unit vertices labeled +1 and the origin labeled
    -1; on the standard simplex it is sign(2 sum(x) - 1), a tie going to
    -1. Returns (fraction, standard error) over uniform draws from the
    standard d-simplex. The exact value is 2**-d.

    A uniform point is x = e[:d] / sum(e) for d + 1 iid standard
    exponentials e, and its -1 region 2 * sum(x) <= 1 is the event
    e[d] >= sum(e[:d]). That event reads e[:d] only through its sum,
    which is Gamma(d, 1) (Devroye 1986), so each point costs two draws
    whatever d is: per chunk, first one standard_gamma(d) per point, then
    one standard_exponential per point, and a hit is e >= g. No point is
    ever formed; the boundary counts as a hit, as the rule's tie does.

    The chunks are filled in place, in the buffers simplex_scratch(draws)
    returns; their length is the chunk size, which fixes which draws land
    in g and which in e. ``scratch`` passes such buffers in, so that
    callers running several dimensions at once (labcli's simplex command,
    one set per thread) allocate them once on the calling thread; without
    it the call allocates its own. d and draws are checked before any
    buffer is made.
    """
    if d < 1:
        raise InvalidSpec("d must be at least 1")
    if draws < 1:
        raise InvalidSpec("draws must be at least 1")
    g, e, hit = simplex_scratch(draws) if scratch is None else scratch
    rng = substream(seed, "simplex-volume", d)
    hits = 0.0
    done = 0
    while done < draws:
        chunk = min(g.size, draws - done)
        rng.standard_gamma(d, out=g[:chunk])
        rng.standard_exponential(out=e[:chunk])
        np.greater_equal(e[:chunk], g[:chunk], out=hit[:chunk])
        hits += float(np.count_nonzero(hit[:chunk]))
        done += chunk
    p = hits / draws
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / draws))
    return p, se
