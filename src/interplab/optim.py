"""Gradient descent, and the batch-size scan of mini-batch SGD.

The square loss is L(w) = (1/2) sum_i (F(w)_i - y_i)^2, summed rather
than averaged, so for linear models the gradient is X^T r, the Gram
matrix X X^T sets the contraction per step, and a unit step solves
the 1-d quadratic in one move. One function, _loss_grad, gives the loss
and the gradient of every objective: square or cross-entropy loss, on a
linear model or a network.

Alongside gradient descent, a batch-size scan locates where mini-batch
SGD stops scaling linearly. The scan rescales each mini-batch gradient
by n/m, so that it stays unbiased for the full gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import netmodels, numlin
from .errors import (
    Diverged,
    DimensionMismatch,
    InvalidSpec,
    TargetUnreachable,
)
from .rng import substream

SQUARE = "square"
CROSS_ENTROPY = "cross_entropy"
DIVERGE_CAP = 1e12
DEFAULT_ITER_CAP = 1_000_000


def _arrays(X, y):
    """X and y as float arrays, checked: X 2-D with one target per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DimensionMismatch(f"rows {X.shape} incompatible with targets {y.shape}")
    return X, y


def _loss_grad(X, y, w, loss: str = SQUARE, model=None) -> tuple:
    """(loss, gradient) at w over the whole dataset.

    model=None means the linear model F(w) = X w, where the rows of X are
    whatever features the caller built. Otherwise X holds network inputs
    and w follows the model's flat parameter layout.
    """
    if model is None:
        f, J = X @ np.asarray(w, dtype=float), X
    else:
        f = netmodels.forward_batch(model, w, X)
        J = netmodels.jacobian(model, w, X)
    if loss == SQUARE:
        r = f - y
        return 0.5 * float(r @ r), J.T @ r
    from scipy.special import expit

    margins = -y * f
    return float(np.sum(np.logaddexp(0.0, margins))), J.T @ (-y * expit(margins))


def gd(X, y, w0, step: float, iters: int, loss: str = SQUARE, model=None) -> np.ndarray:
    """The weights after iters steps of full-gradient descent from w0, on
    the loss and model that _loss_grad takes.

    Raises Diverged as soon as an iterate's loss, the last one's included,
    exceeds DIVERGE_CAP or is not a number.
    """
    X, y = _arrays(X, y)
    if loss not in (SQUARE, CROSS_ENTROPY):
        raise InvalidSpec(f"unknown loss {loss!r}")
    dim = X.shape[1] if model is None else netmodels.param_count(model)
    w = np.array(w0, dtype=float)
    if w.shape != (dim,):
        raise DimensionMismatch(f"w0 has shape {w.shape}, expected ({dim},)")
    if not 0.0 < step < math.inf:
        raise InvalidSpec(f"step must be positive and finite, got {step}")
    if iters < 0:
        raise InvalidSpec(f"iters must be nonnegative, got {iters}")
    for t in range(iters + 1):
        lv, g = _loss_grad(X, y, w, loss, model)
        if not lv <= DIVERGE_CAP:     # a NaN loss diverged too
            raise Diverged(f"loss {lv:.3e} exceeded {DIVERGE_CAP:.0e} at step {t}")
        if t < iters:
            w -= step * g
    return w


# --- batch-size scaling ---

@dataclass(frozen=True)
class BatchScalingReport:
    batch_grid: np.ndarray
    median_iters: np.ndarray
    regimes: tuple           # "linear" or "saturation" per batch size
    mstar: float             # trace-over-top-eigenvalue estimate
    tr_h: float
    lambda_max_h: float
    max_row_norm_sq: float
    target_loss: float


def scan_step_rule(m: int, n: int, max_row_norm_sq: float, lambda_max_h: float) -> float:
    """Step size used by the batch scan at batch size m.

    Interpolates between the safe single-sample step and the full-batch
    step as the batch grows; with the n/m gradient scaling used here the
    denominators carry a factor n on the single-sample term.
    """
    return m / (n * max_row_norm_sq + (m - 1) * lambda_max_h)


_BATCH_ONE_BLOCK = 4096   # batch-1 indices drawn per generator call
_STEP_BLOCK = 64          # batch-1 steps taken as one triangular solve
_SUBSET_BLOCK = 256       # batch subsets drawn per block for 1 < m < n


def _floyd_subsets(rng, n: int, m: int, rows: int) -> np.ndarray:
    """rows independent uniform m-subsets of range(n), each sorted.

    Floyd's sampler, vectorized over rows: for j = n-m, ..., n-1 it draws
    one column v = rng.integers(0, j + 1, size=rows), and each row takes
    v, or j when v is already in that row's set (j never is yet).
    Membership lives in one flat rows*n mask, whose nonzero positions
    come back row by row and sorted, as a (rows, m) array.
    """
    offs = np.arange(0, rows * n, n)
    mask = np.zeros(rows * n, dtype=bool)
    for j in range(n - m, n):
        pos = offs + rng.integers(0, j + 1, size=rows)
        np.putmask(pos, mask[pos], offs + j)
        mask[pos] = True
    return np.flatnonzero(mask).reshape(rows, m) - offs[:, None]


def _batches(rng, n: int, m: int):
    """Endless row selectors for the batch scan at batch size 1 < m <= n.

    Below n, the selectors are the rows of successive _floyd_subsets
    blocks of _SUBSET_BLOCK draws: iid uniform m-subsets, sorted, the law
    of a sorted rng.choice(n, m, replace=False) draw per step at a
    fraction of its cost. At m = n every subset is range(n), so no draw
    is made.
    """
    if m == n:
        while True:
            yield slice(None)
    while True:
        yield from _floyd_subsets(rng, n, m, _SUBSET_BLOCK)


def _batch_one_steps(G, G2, r, c: float, target: float, iter_cap: int, rng):
    """Steps of batch-1 SGD until 0.5 |r|^2 <= target, or None at iter_cap.

    Step t picks row i_t and sets r <- r - c r[i_t] G[i_t]; r is updated
    in place. The indices are drawn _BATCH_ONE_BLOCK at a time by
    integers(0, n), which is Floyd's sampler at m = 1 and spends the
    stream as choice(n, 1, replace=False) does, and taken B = _STEP_BLOCK
    steps at a time. Within a block with rows ii, the scaled step
    coefficients a_t = c r_{t-1}[i_t] solve the unit lower triangular
    system (I + c strict_lower(G[ii][:, ii])) a = c r[ii], and the block
    ends at r - a @ G[ii]. With h = G[ii] @ r and H = G2[ii][:, ii]
    (G2 = G G), the loss after step t of the block is
    0.5 (|r|^2 - 2 sum_{s<=t} a_s h_s + sum_{s,u<=t} a_s a_u H_su).

    That screen is rounded differently from the per-step loop. So when a
    screened loss comes within a slack of the target, the block is
    replayed one step at a time, and the count is taken from the replay.
    The slack is B eps (|r| + sum_s |a_s| |G[i_s]|)^2, a bound on every
    term of the expansion: at least B eps |r|^2, however small the target.
    A screen that is not finite, as when G2 overflowed, replays too.
    """
    from scipy.linalg.blas import dtrsv

    n = G.shape[0]
    eps = np.finfo(float).eps
    t = 0
    while t < iter_cap:
        for ii in rng.integers(0, n, size=_BATCH_ONE_BLOCK).reshape(-1, _STEP_BLOCK):
            ii = ii[:iter_cap - t]
            Gi = G[ii]
            H = G2[ii][:, ii]
            a = dtrsv(c * Gi[:, ii], c * r[ii], lower=1, diag=1)
            r_sq = float(r @ r)
            with np.errstate(over="ignore", invalid="ignore"):
                # tril(H) @ a in numpy: scipy's dtrmv wakes BLAS threads at B = 64
                two_loss = r_sq + np.cumsum(
                    a * (2.0 * (np.tril(H) @ a) - np.diagonal(H) * a - 2.0 * (Gi @ r)))
                bound = math.sqrt(r_sq) + float(np.abs(a) @ np.sqrt(np.diagonal(H)))
            # negated, so that a screen gone inf or nan (G2 overflowed) replays
            if not two_loss.min() > 2.0 * target + ii.size * eps * bound * bound:
                for k, i in enumerate(ii.tolist(), start=t + 1):
                    r -= c * (r[i:i + 1] @ G[i:i + 1])
                    if 0.5 * float(r @ r) <= target:
                        return k
            else:
                r -= a @ Gi
            t += ii.size
            if t == iter_cap:
                break
    return None


def critical_batch_scan(X, y, batch_grid, target_loss: float,
                        seeds: int, iter_cap: int = DEFAULT_ITER_CAP
                        ) -> BatchScalingReport:
    """Median steps-to-target per batch size on an interpolated linear fit.

    Starts every run at zero and tracks the residual directly through
    the n-by-n Gram matrix G = X X^T (cheap per step). Batch size 1 is
    always scanned, even if absent from the grid: it anchors the
    classification, which calls a batch size linear while its total
    sample budget stays within twice the single-sample budget and
    saturated after. The predicted crossover is tr(H)/lambda_max(H) for
    H = X^T X; lambda_max(H) is the top eigenvalue of G (one
    numlin.max_eig call), and tr(H) the sum of squared row norms.

    A step multiplies the batch residual by the batch rows of G. numpy
    forms G with a symmetric rank-k update, so G equals its transpose
    exactly. The row gather G[idx] then holds the same bytes as the
    F-ordered column gather G[:, idx], and both products make the same
    BLAS call; but a row gather copies contiguous memory, several times
    faster than the strided column gather. For 1 < m < n, _batches draws
    the sorted batches _SUBSET_BLOCK at a time with Floyd's sampler
    (_floyd_subsets), so every step is bit for bit what gathering columns
    of the same sorted subsets gives (tests keep that loop, fed by a
    scalar Floyd loop, as the reference); no step calls rng.choice.
    Batch 1 runs in blocks of steps (_batch_one_steps) on integer draws.
    Its residual differs from the per-step loop's only by rounding, so
    its count differs only if a loss falls within that rounding of the
    target; tests compare its counts with the per-step loop's. The full
    batch (m = n) draws no random numbers, so its cell runs once and its
    count stands for every seed.

    Each cell, one per (batch size, seed), draws from its own substream,
    starts from its own copy of -y and only reads G and G2, so the cells
    are independent. Their step loops hold the GIL, so they run on forked
    processes (numlin.on_processes), longest first: the batch sizes from
    2 up, then batch 1, whose blocked steps make it quicker than its step
    count. A cell's count is the one a serial run gives it, so no byte
    depends on the core count. A cell that misses its target raises
    TargetUnreachable, for the first such cell in grid order (batch size,
    then seed), as a loop over the grid would: when a cell fails, the
    batch-1 cells are run again before the first failure in the order
    run is raised.

    Targets whose y @ y overflows or is zero, and data whose first step
    could overflow (n max|y| max_i |x_i|^2 beyond the float range), raise
    InvalidSpec before any step is taken.
    """
    X, y = _arrays(X, y)
    n = X.shape[0]
    grid = sorted({1} | {int(m) for m in np.asarray(batch_grid).ravel()})
    if grid[0] < 1 or grid[-1] > n:
        raise InvalidSpec(f"batch sizes must lie in [1, {n}]")
    if seeds < 1:
        raise InvalidSpec(f"need at least one seed, got {seeds}")
    if iter_cap < 1:
        raise InvalidSpec(f"iter_cap must be at least 1, got {iter_cap}")
    with np.errstate(over="ignore"):
        y_sq = float(y @ y)
    if not np.isfinite(y_sq):
        raise InvalidSpec("the targets' squared norm y @ y overflows")
    if y_sq == 0.0:
        zero = "every feature and target" if not X.any() else "every target"
        raise InvalidSpec(f"{zero} is zero, so the starting loss is already zero")
    if not target_loss > 0.0:
        raise InvalidSpec(f"the target loss must be positive, got {target_loss:g}")
    if 0.5 * y_sq <= target_loss:
        raise InvalidSpec("target not below the starting loss")

    row_sq = np.einsum("ij,ij->i", X, X)
    tr_h = float(row_sq.sum())
    max_row = float(row_sq.max())
    if tr_h == 0.0:
        raise TargetUnreachable("every feature is zero, so the loss cannot fall")
    # |G_ij| <= |x_i| |x_j| (Cauchy-Schwarz), so every entry of the first
    # step's r[idx] @ G[idx] (r = -y, at most n terms) is at most this
    first_step = n * float(np.abs(y).max()) * max_row
    if not first_step < np.finfo(float).max:
        raise InvalidSpec(f"a first step could overflow: n max|y| max_i |x_i|^2 = "
                          f"{first_step:.3e}")
    G = X @ X.T
    lam = numlin.max_eig(G)
    mstar = max(1.0, tr_h / lam)
    with np.errstate(over="ignore"):    # an inf in G G only sends blocks to replay
        G2 = G @ G.T                    # G G, one symmetric rank-k update

    def run_cell(m, s):
        c = scan_step_rule(m, n, max_row, lam) * (n / m)
        rng = substream(s, "batch-scan", m)
        r = -y.copy()                   # residual X w - y at w = 0
        if m == 1:
            t = _batch_one_steps(G, G2, r, c, target_loss, iter_cap, rng)
            if t is not None:
                return t
        else:
            for t, idx in zip(range(1, iter_cap + 1), _batches(rng, n, m)):
                r -= c * (r[idx] @ G[idx])
                if 0.5 * float(r @ r) <= target_loss:
                    return t
        raise TargetUnreachable(
            f"batch {m}, seed {s}: loss {0.5 * float(r @ r):.3e} above "
            f"target {target_loss:.3e} after {iter_cap} steps")

    # the full batch draws nothing, so its one cell (seed 0) serves every seed
    cells = [(m, s) for m in sorted(grid, key=lambda m: (m == 1, m))
             for s in (range(seeds) if m < n else (0,))]
    # batch 1's dtrsv, imported before the fork: a worker importing scipy
    # itself spends about 0.25 s on it
    from scipy.linalg.blas import dtrsv  # noqa: F401

    try:
        counts = numlin.on_processes(lambda i: run_cell(*cells[i]), len(cells))
    except TargetUnreachable as exc:
        # exc names the first failing cell in the order run, which is the
        # grid's order but for batch 1: a loop over the grid would name a
        # failing batch-1 cell first
        for s in (range(seeds) if n > 1 else (0,)):
            run_cell(1, s)
        raise exc
    found = dict(zip(cells, counts))
    by_m = np.array([[found[m, s if m < n else 0] for s in range(seeds)] for m in grid],
                    dtype=float)
    med = [float(np.median(row)) for row in by_m]
    ref = med[0]
    regimes = tuple(
        "linear" if m * it <= 2.0 * ref else "saturation"
        for m, it in zip(grid, med))
    return BatchScalingReport(
        batch_grid=np.array(grid), median_iters=np.array(med), regimes=regimes,
        mstar=float(mstar), tr_h=tr_h, lambda_max_h=lam,
        max_row_norm_sq=max_row, target_loss=float(target_loss))
