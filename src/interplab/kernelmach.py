"""Interpolating kernel machines and random Fourier feature models.

A kernel machine here is the exact interpolant f(x) = sum_i alpha_i
K(x_i, x) with alpha solving K alpha = y; no regularization is applied on
purpose. Solves go through a Cholesky factorization with an escalating
diagonal jitter ladder, and the fit is accepted only if the achieved
training residual certifies interpolation.

Random Fourier feature models tell the same story at finite width:
f(w, x) = sum_k w_k exp(i <v_k, x>) with iid standard normal frequency
rows v_k, fitted by the minimum-norm least-squares rule on the complex
feature matrix: the pseudo-inverse solution, which is the least-squares
fit below the interpolation threshold and the minimum-norm interpolant
above it. Predictions use the real part of f; the recorded training
residual is the complex one, which bounds the real-part residual from
above.

The width sweep reuses one frequency draw per replicate and takes nested
prefixes of its rows, so the spanned feature spaces grow with m and the
feature matrices of every width are column prefixes of one matrix. That
makes the per-replicate training residual non-increasing in m and the
coefficient norm non-increasing beyond the interpolation threshold, not
just on average but path by path. It also makes the Gram matrices of the
widths nest, so numlin.minnorm_prefixes solves every width of a replicate
with one linear solve of a Gram matrix per width. A width takes that
solution only when the Gram's eigenvalues certify it as well
conditioned: one shifted Cholesky factorization vouches for them, and
eigvalsh decides where it cannot. Any other width, such as one near
m = n where the norm spikes, is solved through the SVD
(numlin.pinv_apply).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .datagen import Dataset, to_labels
from .errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidInput,
    InvalidSpec,
    NotPositiveDefinite,
)
from .rng import substream

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)
INTERPOLATION_TOL = 1e-6
TRAIN_MSE_THRESHOLD = 1e-6
_BLOCK_BYTES = 1 << 18      # kernel_matrix row block: fits a core's L2 cache


@dataclass(frozen=True)
class KernelSpec:
    family: str = LAPLACE
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LAPLACE):
            raise InvalidSpec(f"unknown kernel family {self.family!r}")
        if not 0.0 < self.bandwidth < np.inf:
            raise InvalidSpec(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if self.family == GAUSSIAN:
            # kernel_matrix divides by 2 bw^2, which must stay a normal float
            try:
                scale = 2.0 * float(self.bandwidth)**2
            except OverflowError:
                scale = np.inf
            if not np.finfo(float).tiny <= scale < np.inf:
                raise InvalidSpec(f"gaussian bandwidth {self.bandwidth} is out of range: "
                                  f"2 * bandwidth**2 must be a positive finite normal float")


def kernel_matrix(spec: KernelSpec, X, Z=None) -> np.ndarray:
    """Cross-kernel matrix K[i, j] = K(X[i], Z[j]); Z defaults to X.

    One GEMM gives 2 X Z^T, which becomes K in place. Its rows are then
    finished in blocks of about _BLOCK_BYTES, each on one contiguous
    scratch block that stays in cache through the whole epilogue: the
    squared distance max(|x|^2 + |z|^2 - 2 x.z, 0), then exp(-d / bw) for
    laplace with d = sqrt(d^2), or exp(-d^2 / (2 bw^2)) for gaussian. All
    of it runs on the calling thread; a command spreads its work over the
    cores at its outer loop instead. Every entry goes through the same
    IEEE operations in the same order as the one-expression form, so the
    blocking moves no bit.

    When Z is X (or None), K is exactly symmetric: the epilogue finishes
    the lower triangle only, each block up to its last row's column, and
    numlin.mirror_lower copies it onto the upper one. The GEMM's 2 X X^T is
    not always symmetric in the last bits (with OpenBLAS it is not at
    n = 300 or 500), so the lower triangle is the one-expression form's,
    bit for bit, and the upper one its transpose. The squared distance's
    diagonal is also set to 0 in each block, so K(x, x) is exactly 1; the
    one-expression form leaves there a rounding residue of about
    1e-16 |x|^2, which laplace's sqrt lifts to about 1e-8.

    InvalidInput is raised, before the GEMM, when s = max |x|^2 + max |z|^2
    is not below 0.99 times the float maximum. s bounds every |2 x.z| and
    every partial sum of it, so the GEMM cannot overflow. A squared
    distance, which can reach 2 s, may: it becomes inf, and its kernel
    value exp(-inf) is 0, the limit of the kernel, as is any entry whose
    d / bw or d^2 / (2 bw^2) overflows.
    """
    X = np.asarray(X, dtype=float)
    Z = X if Z is None else np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise DimensionMismatch(f"incompatible point sets {X.shape} and {Z.shape}")
    with np.errstate(over="ignore"):
        x_sq = (X * X).sum(axis=1)
        z_sq = x_sq if Z is X else (Z * Z).sum(axis=1)
        norms_fit = x_sq.max() + z_sq.max() < 0.99 * np.finfo(float).max
    if not norms_fit:
        raise InvalidInput("kernel matrix would overflow: squared point norms reach "
                           f"{max(x_sq.max(), z_sq.max()):.3e}; lower data.scale")
    K = 2.0 * X @ Z.T
    n, cols = K.shape
    rows = max(1, _BLOCK_BYTES // (K.itemsize * max(1, cols)))
    scratch = np.empty(min(rows, n) * cols)
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            end = min(start + rows, n)
            # the epilogue runs on a contiguous copy, since numpy's loops
            # over a strided triangle block run several times slower; when
            # Z is X it covers the block's rows up to its last row's column
            block = K[start:end, :end if Z is X else cols]
            sq = scratch[:block.size].reshape(block.shape)
            np.add(x_sq[start:end, None], z_sq[:block.shape[1]], out=sq)
            np.subtract(sq, block, out=sq)
            np.maximum(sq, 0.0, out=sq)
            if Z is X:
                np.fill_diagonal(sq[:, start:end], 0.0)
            if spec.family == GAUSSIAN:
                np.negative(sq, out=sq)
                np.divide(sq, 2.0 * spec.bandwidth**2, out=sq)
            else:
                np.sqrt(sq, out=sq)
                np.negative(sq, out=sq)
                np.divide(sq, spec.bandwidth, out=sq)
            np.exp(sq, out=block)
    if Z is X:
        numlin.mirror_lower(K)
    return K


@dataclass(frozen=True)
class KernelMachine:
    spec: KernelSpec
    centers: np.ndarray
    alpha: np.ndarray        # (n,), or (n, k) for k label columns
    fit_jitter: float
    fit_residual: float      # worst column's max_i |f(x_i) - y_i|
    train_pred: np.ndarray   # f at the centers, K @ alpha, shaped like alpha


def fit_interpolating(spec: KernelSpec, train: Dataset, labels=None) -> KernelMachine:
    """Solve K alpha = y and certify that the machine interpolates.

    The targets are train.y, or ``labels``: an (n,) vector or an (n, k)
    matrix whose columns are fitted on one kernel matrix and one Cholesky
    factorization per jitter rung. The kernel matrix gets each jitter from
    JITTER_LADDER in turn until the factorization succeeds and, in every
    column, the worst-case training residual max_i |f(x_i) - y_i| stays
    within INTERPOLATION_TOL * (1 + max |y|) of that column; both module
    constants are read at call time. If no rung manages that,
    IllConditioned is raised; a fit with a worse residual is never
    silently accepted.
    """
    labels = np.asarray(train.y if labels is None else labels, dtype=float)
    if labels.ndim not in (1, 2) or labels.shape[0] != train.n:
        raise DimensionMismatch(
            f"labels have shape {labels.shape}, expected ({train.n},) or ({train.n}, k)")
    K = kernel_matrix(spec, train.X)
    # one bound per column
    bound = INTERPOLATION_TOL * (1.0 + np.atleast_1d(np.abs(labels).max(axis=0)))
    best = (np.inf, np.inf, float(bound.max()))   # (ratio, residual, bound)
    for jitter in JITTER_LADDER:
        try:
            alpha = numlin.solve_spd(K, labels, jitter=jitter)
        except NotPositiveDefinite:
            continue
        fitted = K @ alpha
        residual = np.atleast_1d(np.abs(fitted - labels).max(axis=0))
        if np.all(residual <= bound):
            return KernelMachine(spec=spec, centers=train.X, alpha=alpha,
                                 fit_jitter=jitter,
                                 fit_residual=float(residual.max()),
                                 train_pred=fitted)
        worst = int(np.argmax(residual / bound))
        best = min(best, (residual[worst] / bound[worst], residual[worst],
                          bound[worst]))
    raise IllConditioned(
        f"{spec.family} kernel, bandwidth {spec.bandwidth:g}, n={train.n}: training "
        f"residual {best[1]:.3e} exceeds {best[2]:.3e} at every jitter in "
        f"{tuple(JITTER_LADDER)}")


def kernel_predict(machine: KernelMachine, X) -> np.ndarray:
    """Evaluate f(x) = sum_i alpha_i K(x_i, x) at the rows of X.

    With k label columns the result has one column per label column.
    """
    K = kernel_matrix(machine.spec, np.asarray(X, dtype=float), machine.centers)
    return K @ machine.alpha


# --- random Fourier feature models ---

@dataclass(frozen=True)
class RFFModel:
    freqs: np.ndarray    # (m, d) frequency rows
    weights: np.ndarray  # (m,) complex coefficients


def draw_rff_freqs(m: int, dim: int, seed: int, replicate: int = 0) -> np.ndarray:
    """Draw m iid standard normal frequency rows in dimension dim."""
    if m < 1 or dim < 1:
        raise InvalidSpec("m and dim must be at least 1")
    rng = substream(seed, "rff-freqs", replicate, dim)
    return rng.standard_normal((m, dim))


def rff_features(freqs: np.ndarray, X) -> np.ndarray:
    """Complex feature matrix exp(i X freqs^T), one row per input point.

    The phases X freqs^T come from one GEMM, then i * phase and the
    complex exp are taken in place on one output array, the same
    operations as in np.exp((X @ freqs.T) * 1j). Phases that overflow
    raise InvalidInput.
    """
    X = np.asarray(X, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if X.ndim != 2 or freqs.ndim != 2 or X.shape[1] != freqs.shape[1]:
        raise DimensionMismatch(f"points {X.shape} do not match frequencies {freqs.shape}")
    with np.errstate(over="ignore"):
        phase = X @ freqs.T
    if not np.all(np.isfinite(phase)):
        raise InvalidInput("random Fourier feature phases X freqs^T overflow; "
                           "lower data.scale")
    out = np.multiply(phase, 1j)
    return np.exp(out, out=out)


def rff_fit_minnorm(X, y, freqs) -> RFFModel:
    """Fit minimum-norm least-squares weights for fixed frequencies.

    Solves the complex system Phi w = y; with more features than points
    this is the minimum-norm interpolant, otherwise the least-squares fit,
    with pinv_apply's rank cutoff numlin.RANK_TOL.
    """
    y = np.asarray(y, dtype=float)
    phi = rff_features(freqs, X)
    if y.shape != (phi.shape[0],):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({phi.shape[0]},)")
    w = numlin.pinv_apply(phi, y)
    return RFFModel(freqs=np.array(freqs, dtype=float, copy=True), weights=w)


# --- double descent sweep ---

@dataclass(frozen=True)
class SweepResult:
    m_grid: np.ndarray
    replicates: int
    rows: tuple              # (m, rep, train_mse, test_mse, test_01, coeff_norm, threshold)
    paths: tuple             # per row: numlin.GRAM_PATH or SVD_PATH, the solve it took
    thresholds: np.ndarray   # per replicate; -1 when never below threshold
    train_mean: np.ndarray
    test_mse_mean: np.ndarray
    test_mse_se: np.ndarray
    test_01_mean: np.ndarray
    test_01_se: np.ndarray
    norm_mean: np.ndarray
    norm_se: np.ndarray


def double_descent_sweep(train: Dataset, test: Dataset, m_grid, replicates: int,
                         seed: int) -> SweepResult:
    """Sweep feature-model width across the interpolation threshold.

    For each replicate a single stack of frequency rows is drawn and each
    width m uses its first m rows, so the train and test features are
    computed once per replicate and each width fits on their first m
    columns, all widths in one numlin.minnorm_prefixes call. Records per
    (m, replicate): complex training MSE, real-part test square loss, test
    0-1 loss, coefficient norm, and the replicate's empirical
    interpolation threshold (the smallest m in the grid whose training MSE
    is at most 1e-6; -1 if none); ``paths`` records which solve each row
    took, "gram" or "svd". The replicates run on forked workers
    (numlin.on_processes) and are gathered in replicate order, so the
    result does not depend on the core count.
    """
    m_grid = np.asarray(sorted(set(int(m) for m in np.asarray(m_grid).ravel())))
    if m_grid.size == 0 or m_grid[0] < 1:
        raise InvalidSpec("m_grid must hold positive widths")
    if replicates < 1:
        raise InvalidSpec("replicates must be at least 1")
    m_max = int(m_grid[-1])

    def replicate(rep):
        """[(m, train_mse, test_mse, test_01, norm, path)] per width, as
        plain Python numbers, so that a worker's result pickles small."""
        stack = draw_rff_freqs(m_max, train.dim, seed, replicate=rep)
        phi_train = rff_features(stack, train.X)
        phi_test = rff_features(stack, test.X)
        out = []
        for m, (w, path) in zip(m_grid, numlin.minnorm_prefixes(phi_train, train.y, m_grid)):
            pred = np.real(phi_test[:, :m] @ w)
            out.append((int(m), float(np.mean(np.abs(phi_train[:, :m] @ w - train.y) ** 2)),
                        float(np.mean((pred - test.y) ** 2)),
                        float(np.mean(to_labels(pred) != test.y)),
                        float(np.linalg.norm(w)), path))
        return out

    # the replicates are the command's outer loop, the one that uses the cores
    per_rep = numlin.on_processes(replicate, replicates)
    rows, paths = [], []
    thresholds = np.full(replicates, -1, dtype=int)
    per_m = {m: {"train": [], "test": [], "zo": [], "norm": []} for m in m_grid}
    for rep, widths in enumerate(per_rep):
        thresholds[rep] = next((m for m, tr, *_ in widths if tr <= TRAIN_MSE_THRESHOLD), -1)
        for m, tr, te, zo, nrm, path in widths:
            rows.append((m, rep, tr, te, zo, nrm, int(thresholds[rep])))
            paths.append(path)
            per_m[m]["train"].append(tr)
            per_m[m]["test"].append(te)
            per_m[m]["zo"].append(zo)
            per_m[m]["norm"].append(nrm)

    def _mean(key):
        return np.array([float(np.mean(per_m[m][key])) for m in m_grid])

    def _se(key):
        out = []
        for m in m_grid:
            vals = np.asarray(per_m[m][key])
            out.append(float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0)
        return np.array(out)

    return SweepResult(
        m_grid=m_grid,
        replicates=replicates,
        rows=tuple(rows),
        paths=tuple(paths),
        thresholds=thresholds,
        train_mean=_mean("train"),
        test_mse_mean=_mean("test"),
        test_mse_se=_se("test"),
        test_01_mean=_mean("zo"),
        test_01_se=_se("zo"),
        norm_mean=_mean("norm"),
        norm_se=_se("norm"),
    )
