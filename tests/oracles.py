"""Reference methods that the tests check the package against.

None of them is run by a command. Each is the general or textbook method
behind a fast path or a paper claim, kept minimal: callers pass valid
arguments, and nothing is validated.
"""

import math

import numpy as np

from interplab import netmodels, optim
from interplab.rng import substream


def hessian(model, w, x):
    """Dense Hessian of the network's scalar output, one hvp per column."""
    eye = np.eye(netmodels.param_count(model))
    return np.column_stack([netmodels.hvp(model, w, x, e) for e in eye])


def gd_path(X, y, w0, step, iters, loss=optim.SQUARE, model=None):
    """(losses, plstar, w) along optim.gd: the loss at each iterate 0..iters,
    the gradient-domination ratio 0.5 |grad|^2 / loss there (+inf at zero
    loss), and the last iterate.

    Each iterate is one optim.gd step from the one before; gd(k) takes the
    same operations as k calls of gd(1), so these are gd's own iterates.
    """
    w = np.array(w0, dtype=float)
    losses, plstar = [], []
    for t in range(iters + 1):
        if t:
            w = optim.gd(X, y, w, step, 1, loss=loss, model=model)
        lv, g = optim._loss_grad(X, y, w, loss, model)
        gn = float(np.linalg.norm(g))
        losses.append(lv)
        plstar.append(0.5 * gn * gn / lv if lv > 0.0 else math.inf)
    return np.array(losses), np.array(plstar), w


def sgd(X, y, w0, step, batch, iters, seed, record_every=1, loss=optim.SQUARE,
        model=None):
    """(iters, losses, w) of mini-batch descent, batches uniform without
    replacement each step: the full loss every record_every steps and at
    the end, and the last iterate.

    The batch gradient is scaled by n/batch so it estimates the full
    gradient; with batch = n every step is optim.gd's, bit for bit.
    """
    w = np.array(w0, dtype=float)
    n = X.shape[0]
    rng = substream(seed, "sgd-batches")
    ts, losses = [], []
    for t in range(iters + 1):
        if t % record_every == 0 or t == iters:
            ts.append(t)
            losses.append(optim._loss_grad(X, y, w, loss, model)[0])
        if t < iters:
            idx = np.sort(rng.choice(n, size=batch, replace=False))
            w -= step * (n / batch) * optim._loss_grad(X[idx], y[idx], w, loss, model)[1]
    return np.array(ts), np.array(losses), w


def rate_fit(iters, losses, window):
    """(slope, r_squared) of the least-squares line through log loss over
    the records whose iteration lies in window; a flat window fits exactly."""
    lo, hi = window
    keep = (iters >= lo) & (iters <= hi)
    t, logl = iters[keep].astype(float), np.log(losses[keep])
    slope, intercept = np.polyfit(t, logl, 1)
    ss_res = float(np.sum((logl - (slope * t + intercept)) ** 2))
    ss_tot = float(np.sum((logl - logl.mean()) ** 2))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def solve_spd(a, b, jitter):
    """(A + jitter I)^-1 b from numpy's Cholesky factor of a shifted copy
    of A and two triangular solves: the path numlin.solve_spd took before
    it called LAPACK dpotrf and dpotrs. np.linalg.LinAlgError when the
    copy is not positive definite."""
    from scipy.linalg import solve_triangular

    chol = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
    y = solve_triangular(chol, b, lower=True)
    return solve_triangular(chol.T, y, lower=False)


def simplex_rule(x):
    """The simplicial interpolant of the d unit vertices (+1) and the
    origin (-1) at a point x of the standard simplex: sign(2 sum(x) - 1),
    a tie going to -1."""
    return 1.0 if 2.0 * float(np.sum(x)) - 1.0 > 0.0 else -1.0
