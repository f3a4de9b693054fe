"""Reference methods that the tests check the package against.

None of them is run by a command. Each is the general or textbook method
behind a fast path or a paper claim, kept minimal: callers pass valid
arguments, and nothing is validated.
"""

import dataclasses

import numpy as np

from interplab import netmodels, optim
from interplab.rng import substream


def hessian(model, w, x):
    """Dense Hessian of the network's scalar output, one hvp per column."""
    eye = np.eye(netmodels.param_count(model))
    return np.column_stack([netmodels.hvp(model, w, x, e) for e in eye])


def sgd(obj, w0, step, batch, iters, seed, record_every=1):
    """Mini-batch descent, batches uniform without replacement each step.

    The batch gradient is scaled by n/batch so it estimates the full
    gradient; with batch = n every step is optim.gd's, bit for bit. The
    trace records the full loss and gradient every record_every steps and
    at the end.
    """
    w = np.array(w0, dtype=float)
    n = obj.X.shape[0]
    rng = substream(seed, "sgd-batches")
    rec = optim._Recorder()
    for t in range(iters + 1):
        if t % record_every == 0 or t == iters:
            rec.add(t, w, *optim._loss_grad(obj, w))
        if t < iters:
            idx = np.sort(rng.choice(n, size=batch, replace=False))
            rows = dataclasses.replace(obj, X=obj.X[idx], y=obj.y[idx])
            w -= step * (n / batch) * optim._loss_grad(rows, w)[1]
    return rec.done(w)


def rate_fit(trace, window):
    """(slope, r_squared) of the least-squares line through log loss over
    the records whose iteration lies in window; a flat window fits exactly."""
    lo, hi = window
    keep = (trace.iters >= lo) & (trace.iters <= hi)
    t, logl = trace.iters[keep].astype(float), np.log(trace.loss[keep])
    slope, intercept = np.polyfit(t, logl, 1)
    ss_res = float(np.sum((logl - (slope * t + intercept)) ** 2))
    ss_tot = float(np.sum((logl - logl.mean()) ** 2))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def simplex_rule(x):
    """The simplicial interpolant of the d unit vertices (+1) and the
    origin (-1) at a point x of the standard simplex: sign(2 sum(x) - 1),
    a tie going to -1."""
    return 1.0 if 2.0 * float(np.sum(x)) - 1.0 > 0.0 else -1.0
