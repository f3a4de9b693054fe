import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from interplab import numlin
from interplab.errors import (
    DimensionMismatch,
    InvalidInput,
    NotPositiveDefinite,
    NotSymmetric,
    TargetUnreachable,
)

import oracles


# --- solve_spd ---

def test_solve_spd_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = numlin.solve_spd(np.eye(3), b)
    assert np.allclose(x, b, rtol=0, atol=1e-14)


def test_solve_spd_2x2_known_value():
    # Inverse of [[1,.5],[.5,1]] is (1/0.75) [[1,-.5],[-.5,1]], so
    # A^{-1} (1,1) = (2/3, 2/3).
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = numlin.solve_spd(a, np.array([1.0, 1.0]))
    assert np.allclose(x, [2.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_solve_spd_residual_randomized(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 40)
    b_mat = rng.standard_normal((n, n))
    a = b_mat.T @ b_mat + 1e-3 * np.eye(n)
    b = rng.standard_normal(n)
    for jitter in (0.0, 1e-10):
        x = numlin.solve_spd(a, b, jitter=jitter)
        resid = np.linalg.norm((a + jitter * np.eye(n)) @ x - b)
        assert resid <= 1e-8 * (np.linalg.norm(b) + 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_solve_spd_matrix_rhs_matches_column_solves(seed):
    # a matrix of right-hand sides is solved on one factorization; each
    # column must agree with its own vector solve to roundoff
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 60)), int(rng.integers(1, 6))
    b_mat = rng.standard_normal((n, n))
    a = b_mat.T @ b_mat + 1e-3 * np.eye(n)
    rhs = rng.standard_normal((n, k))
    for jitter in (0.0, 1e-10):
        x = numlin.solve_spd(a, rhs, jitter=jitter)
        assert x.shape == (n, k)
        for j in range(k):
            col = numlin.solve_spd(a, rhs[:, j], jitter=jitter)
            assert np.abs(x[:, j] - col).max() <= 1e-12 * np.abs(col).max()


def test_solve_spd_rejects_bad_matrix_rhs():
    a = np.eye(3)
    with pytest.raises(InvalidInput):
        numlin.solve_spd(a, np.array([[1.0, np.nan]] * 3))
    with pytest.raises(InvalidInput):
        numlin.solve_spd(a, np.full((3, 2), np.inf))
    with pytest.raises(InvalidInput):
        numlin.solve_spd(a, np.ones((3, 0)))
    with pytest.raises(InvalidInput):
        numlin.solve_spd(a, np.ones((3, 2, 1)))
    with pytest.raises(DimensionMismatch):
        numlin.solve_spd(a, np.ones((2, 2)))
    with pytest.raises(NotSymmetric):
        numlin.solve_spd(np.array([[1.0, 0.2], [0.0, 1.0]]), np.ones((2, 3)))


def test_solve_spd_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        numlin.solve_spd(np.array([[1.0, 0.2], [0.0, 1.0]]), np.ones(2))


def _task_count():
    """Threads of this process; skips where /proc is absent."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    return len(os.listdir("/proc/self/task"))


def test_concurrent_solves_match_serial_bits():
    # two Python threads solve threaded-size systems at once, with no lock
    # around solve_spd's pin, factorization and solve
    rng = np.random.default_rng(7)
    systems = [(_spd(rng, n, 1e-2), rng.standard_normal((n, k) if k else n), jitter)
               for n, k, jitter in ((600, 0, 0.0), (700, 3, 1e-10), (650, 0, 1e-8),
                                    (800, 2, 0.0))]
    serial = [numlin.solve_spd(a, b, jitter=j).tobytes() for a, b, j in systems]
    results, errors = {}, []

    def worker(k):
        # solve_spd factors in a itself, so each thread solves on its own copies
        own = [(a.copy(), b, j) for a, b, j in systems]
        order = range(len(systems)) if k == 0 else range(len(systems) - 1, -1, -1)
        try:
            for rep in range(3):
                for i in order:
                    a, b, j = own[i]
                    results[k, rep, i] = numlin.solve_spd(a, b, jitter=j).tobytes()
        except Exception as exc:   # reported on the main thread below
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert len(results) == 2 * 3 * len(systems)
    assert all(got == serial[i] for (_, _, i), got in results.items())


def _require_symmetric_full_scan(a, name="matrix"):
    """The untiled check require_symmetric replaced, kept as its oracle."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale == 0.0:
        return
    skew = np.abs(a - a.T).max()
    if skew > numlin._SYM_RTOL * scale:
        raise NotSymmetric(f"{name} asymmetry {skew:.3e} exceeds "
                           f"{numlin._SYM_RTOL:.0e} * {scale:.3e}")


def _symmetry_outcome(check, a):
    try:
        check(a, "A")
    except (DimensionMismatch, NotSymmetric) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(3))
def test_tiled_symmetry_check_matches_full_scan(seed):
    rng = np.random.default_rng(seed)
    t = numlin._SYM_TILE

    def same(a):
        outcome = _symmetry_outcome(numlin.require_symmetric, a)
        assert outcome == _symmetry_outcome(_require_symmetric_full_scan, a)
        return outcome

    for n in (1, t - 1, t, t + 1, 2 * t + 5):
        b = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
        a = b + b.T
        assert same(a) is None
        assert same(np.zeros((n, n))) is None
        assert (same(b) is None) == (n == 1)
        # one pair (i, j) off by just under and just over the tolerance, in a
        # diagonal tile and in an off-diagonal one, so a tile the scan
        # misses changes the outcome
        scale = np.abs(a).max()
        pairs = [(i, j) for i, j in ((0, 1), (t - 2, t - 1), (n - 2, n - 1),
                                     (0, n - 1), (t - 1, t), (1, t + 3))
                 if 0 <= i < j < n]
        assert n < 2 or any(i // t == j // t for i, j in pairs)
        assert n <= t or any(i // t != j // t for i, j in pairs)
        for i, j in pairs:
            for factor, fails in ((0.99, False), (1.01, True)):
                bent = a.copy()
                bent[j, i] = bent[i, j] + factor * numlin._SYM_RTOL * scale
                outcome = same(bent)
                assert (outcome is not None) == fails, (n, i, j, factor)
                if fails:
                    assert outcome[0] is NotSymmetric
    for shape in ((3, 5), (5, 3), (1, 2)):
        a = rng.standard_normal(shape)
        assert same(a) == (DimensionMismatch, f"A must be square, got shape {shape}")


def _spd(rng, n, low):
    """Symmetric n x n matrix with eigenvalues log-uniform in [low, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.exp(rng.uniform(np.log(low), 0.0, n))) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("seed", range(8))
def test_solve_spd_matches_numpy_cholesky_reference(seed):
    # both are backward stable, so they agree to n * eps * cond(A) relative
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 150))
    a = _spd(rng, n, low=10.0 ** -rng.uniform(0, 6))
    for jitter in (0.0, 1e-4):
        shifted = a + jitter * np.eye(n)
        bound = n * np.finfo(float).eps * np.linalg.cond(shifted)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = numlin.solve_spd(a, b, jitter=jitter)
            ref = oracles.solve_spd(a, b, jitter)
            assert x.shape == b.shape
            assert np.abs(x - ref).max() <= bound * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(4))
def test_solve_spd_indefinite_raises_until_jitter_covers_it(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    a = _spd(rng, n, low=1e-2)
    q = np.linalg.qr(rng.standard_normal((n, 1)))[0]
    a = a - 2.0 * (q @ q.T)   # q^T A q <= -1, and A + 2I stays positive definite
    b = rng.standard_normal(n)
    for jitter in (0.0, 1e-8, 0.3):
        with pytest.raises(NotPositiveDefinite):
            numlin.solve_spd(a, b, jitter=jitter)
    x = numlin.solve_spd(a, b, jitter=2.0)
    assert np.linalg.norm((a + 2.0 * np.eye(n)) @ x - b) <= 1e-12 * n * np.linalg.norm(b)


def test_solve_spd_leaves_a_unchanged():
    # fit_interpolating reuses K after the solve: the factorization works
    # in a and must give it back bit for bit, also when it fails
    rng = np.random.default_rng(11)
    spd = _spd(rng, 70, low=1e-3)
    q = np.linalg.qr(rng.standard_normal((70, 1)))[0]
    indefinite = spd - 2.0 * (q @ q.T)    # A + 2I stays positive definite
    for a, jitters, fails in ((spd, (0.0, 1e-3), False),
                              (indefinite, (0.0, 1e-8, 0.3), True)):
        for order in ("C", "F"):
            a_in = np.array(a, order=order)
            for jitter in jitters:
                for b in (rng.standard_normal(70), rng.standard_normal((70, 2))):
                    if fails:
                        with pytest.raises(NotPositiveDefinite):
                            numlin.solve_spd(a_in, b, jitter=jitter)
                    else:
                        numlin.solve_spd(a_in, b, jitter=jitter)
                    assert a_in.tobytes() == a.tobytes(), (order, jitter)


def test_solve_spd_exact_symmetry_and_aliased_rhs():
    # the lower triangle is rebuilt from the upper one, so a pair that
    # differs in one ulp, or in the sign of a zero, is refused untouched
    rng = np.random.default_rng(12)
    a = _spd(rng, 200, low=1e-2)
    a[150, 3] = a[3, 150] = 0.0
    b = rng.standard_normal(200)
    x = numlin.solve_spd(a, b)
    for i, j, value in ((150, 3, np.nextafter(a[3, 150], 1.0)), (150, 3, -0.0),
                        (5, 1, np.nextafter(a[1, 5], 0.0))):
        bent = a.copy()
        bent[i, j] = value
        before = bent.tobytes()
        with pytest.raises(NotSymmetric):
            numlin.solve_spd(bent, b)
        assert bent.tobytes() == before
        numlin.require_symmetric(bent)      # within the default tolerance
    # a right-hand side that is a column of a is read before a is written
    col = a[:, 7]
    assert numlin.solve_spd(a, col).tobytes() == numlin.solve_spd(a, col.copy()).tobytes()
    # a read-only a is solved on a copy
    frozen = a.copy()
    frozen.flags.writeable = False
    assert numlin.solve_spd(frozen, b).tobytes() == x.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_mirror_lower_matches_where(seed):
    rng = np.random.default_rng(seed)
    t = numlin._SYM_TILE
    for n in (1, 2, t - 1, t, t + 1, 2 * t + 5):
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < 0.1] = -0.0
        lower = np.tri(n, dtype=bool)
        got = a.copy()
        numlin.mirror_lower(got)
        assert got.tobytes() == np.where(lower, a, a.T).tobytes(), n
        got = a.copy()
        numlin.mirror_lower(got.T)    # the Fortran-ordered view
        assert got.tobytes() == np.where(lower, a.T, a).tobytes(), n


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        numlin.solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_solve_spd_shape_errors():
    with pytest.raises(DimensionMismatch):
        numlin.solve_spd(np.eye(3), np.ones(2))
    with pytest.raises(InvalidInput):
        numlin.solve_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_finiteness_check_allocates_no_mask():
    # the check reads min and max: a solve holds no n x n mask beside its
    # input (an isfinite mask would be 0.125 * 8n^2), yet a NaN or an
    # infinity anywhere, in either part of a complex entry, is refused
    n = 1000
    rng = np.random.default_rng(30)
    m = rng.standard_normal((n, 20))
    a = m @ m.T
    numlin.mirror_lower(a)
    a[np.diag_indices(n)] += n
    b = rng.standard_normal(n)
    numlin.solve_spd(np.eye(1), np.ones(1))   # imports scipy's LAPACK before the count
    tracemalloc.start()
    try:
        numlin.solve_spd(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * n * n, peak / (8 * n * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            real = np.ones((4, 3))
            real[2, 1] = bad
            with pytest.raises(InvalidInput, match="non-finite"):
                numlin.as_array(real, 2, "A")
            for entry in (complex(bad, 0.0), complex(0.0, bad)):
                cplx = np.ones((4, 3), dtype=complex)
                cplx[1, 2] = entry
                with pytest.raises(InvalidInput, match="non-finite"):
                    numlin.as_array(cplx, 2, "A", allow_complex=True)
                with pytest.raises(InvalidInput, match="non-finite"):
                    numlin.pinv_apply(cplx, np.ones(4))


def test_solve_spd_jitter_shifts_system():
    a = np.diag([2.0, 4.0])
    x = numlin.solve_spd(a, np.array([1.0, 1.0]), jitter=1.0)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 5.0], atol=1e-14)


# --- max_eig ---

def test_sym_eig_diagonal():
    assert numlin.max_eig(np.diag([1.0, 3.0])) == 3.0


def test_sym_eig_exchange_matrix():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = numlin.max_eig(a)
    assert abs(lam - 1.0) <= 1e-14
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(a @ v, lam * v, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_sym_eig_reconstruction_and_orthonormality(seed):
    # the top eigenvalue is scipy's, a - lam I is singular, and no Rayleigh
    # quotient exceeds it
    rng = np.random.default_rng(100 + seed)
    n = rng.integers(2, 30)
    m = rng.standard_normal((n, n))
    a = 0.5 * (m + m.T)
    lam = numlin.max_eig(a)
    scale = max(np.abs(a).max(), 1.0)
    assert abs(lam - eigh(a, eigvals_only=True)[-1]) <= 1e-12 * scale
    shifted = a - lam * np.eye(n)
    assert np.linalg.svd(shifted, compute_uv=False)[-1] <= 1e-10 * scale
    v = rng.standard_normal((n, 50))
    rayleigh = np.einsum("ij,ij->j", v, a @ v) / np.einsum("ij,ij->j", v, v)
    assert np.all(rayleigh <= lam + 1e-12 * scale)


def test_sym_eig_det_sign_2x2():
    # for a 2 x 2 matrix the other eigenvalue is trace - lam, and the two
    # multiply to the determinant
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        a = 0.5 * (m + m.T)
        lam = numlin.max_eig(a)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        closed = 0.5 * (np.trace(a) + np.hypot(a[0, 0] - a[1, 1], 2.0 * a[0, 1]))
        assert abs(lam - closed) <= 1e-14 * max(1.0, abs(closed))
        assert np.sign(lam * (np.trace(a) - lam)) == np.sign(det) or abs(det) < 1e-12


# --- pinv_apply ---

def _pinv_columns(a):
    """pinv(A), one pinv_apply call per column."""
    return np.column_stack([numlin.pinv_apply(a, e) for e in np.eye(a.shape[0])])


def _numpy_pinv(a):
    """numpy's pseudo-inverse at pinv_apply's rank cutoff, the reference."""
    return np.linalg.pinv(a, rcond=numlin.RANK_TOL)


def test_pinv_identity():
    assert np.allclose(_pinv_columns(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_row_vector_known_value():
    # Minimum-norm preimage of 1 under [1 1] is (1/2, 1/2).
    p = _pinv_columns(np.array([[1.0, 1.0]]))
    assert p.shape == (2, 1)
    assert np.allclose(p, [[0.5], [0.5]], atol=1e-14)
    assert np.allclose(_numpy_pinv(np.array([[1.0, 1.0]])), p, atol=1e-14)


def test_pinv_zero_matrix():
    p = _pinv_columns(np.zeros((3, 5)))
    assert p.shape == (5, 3)
    assert np.all(p == 0.0)
    assert np.all(_numpy_pinv(np.zeros((3, 5))) == 0.0)


def _penrose_gap(a, p):
    gaps = [
        np.abs(a @ p @ a - a).max(),
        np.abs(p @ a @ p - p).max(),
        np.abs((a @ p).T - a @ p).max(),
        np.abs((p @ a).T - p @ a).max(),
    ]
    scale = max(np.abs(a).max(), np.abs(p).max(), 1.0)
    return max(gaps) / scale


@pytest.mark.parametrize("seed", range(10))
def test_pinv_penrose_identities(seed):
    rng = np.random.default_rng(200 + seed)
    n, m = rng.integers(2, 25, size=2)
    r = int(min(n, m) if seed % 2 == 0 else max(1, min(n, m) // 2))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
    p = _pinv_columns(a)
    assert _penrose_gap(a, p) <= 1e-7


def test_pinv_overparam_matches_right_inverse_formula():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 12))
    oracle = x.T @ np.linalg.inv(x @ x.T)
    assert np.abs(_pinv_columns(x) - oracle).max() <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_pinv_apply_matches_pinv(seed):
    rng = np.random.default_rng(300 + seed)
    n, m = rng.integers(2, 30, size=2)
    a = rng.standard_normal((n, m))
    b = rng.standard_normal(n)
    assert np.allclose(numlin.pinv_apply(a, b), _numpy_pinv(a) @ b, atol=1e-10)


def test_pinv_rank_tol_zeroes_small_directions():
    # RANK_TOL is 1e-10: a singular value at 1e-13 of the largest is dropped,
    # one at 1e-9 is kept, by pinv_apply and by numpy's cutoff alike
    a = np.diag([1.0, 1e-13])
    for p in (_pinv_columns(a), _numpy_pinv(a)):
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-14)
    keep = np.diag([1.0, 1e-9])
    for p in (_pinv_columns(keep), _numpy_pinv(keep)):
        assert p[1, 1] == pytest.approx(1e9, rel=1e-10)


# --- spectral_norm ---

def test_spectral_norm_diagonal():
    assert numlin.spectral_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0, rel=1e-7)


def test_spectral_norm_nilpotent():
    assert numlin.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-7)


def test_spectral_norm_zero():
    assert numlin.spectral_norm(np.zeros((4, 2))) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_spectral_norm_constructed_factorization(seed):
    # matrix assembled from known singular values and orthonormal factors,
    # so the expected norm is exact by construction
    rng = np.random.default_rng(400 + seed)
    n, m = rng.integers(2, 40, size=2)
    k = min(n, m)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    svals = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
    a = (q1[:, :k] * svals) @ q2[:k, :]
    got = numlin.spectral_norm(a)
    assert got == pytest.approx(svals[0], rel=1e-9)
    assert numlin.spectral_norm(a.T) == pytest.approx(svals[0], rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_norm_two_sided_bounds(seed):
    # the reported value must dominate every Rayleigh quotient and sit
    # below the Frobenius bound; a few in-test power steps close the gap
    rng = np.random.default_rng(450 + seed)
    a = rng.standard_normal((rng.integers(3, 25), rng.integers(3, 25)))
    got = numlin.spectral_norm(a)
    for _ in range(25):
        v = rng.standard_normal(a.shape[1])
        assert np.linalg.norm(a @ v) / np.linalg.norm(v) <= got * (1 + 1e-12)
    assert got ** 2 <= np.trace(a.T @ a) * (1 + 1e-12)
    v = rng.standard_normal(a.shape[1])
    for _ in range(300):
        w = a.T @ (a @ v)
        v = w / np.linalg.norm(w)
    lower = np.linalg.norm(a @ v) / np.linalg.norm(v)
    assert got >= lower * (1 - 1e-12)
    assert got == pytest.approx(lower, rel=1e-2)


def test_spectral_norm_scaling_and_rotation_invariance():
    rng = np.random.default_rng(470)
    a = rng.standard_normal((8, 5))
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    base = numlin.spectral_norm(a)
    assert numlin.spectral_norm(q @ a) == pytest.approx(base, rel=1e-10)
    assert numlin.spectral_norm(-2.5 * a) == pytest.approx(2.5 * base, rel=1e-12)


def test_spectral_norm_near_tied_singular_values():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag([3.0, 3.0 * (1 - 1e-9), 1.0, 0.5, 0.1, 0.0]) @ q.T
    assert numlin.spectral_norm(a) == pytest.approx(3.0, rel=1e-6)


# --- max_eig ---

def _top_eig(a):
    """The top eigenvalue alone, from a second LAPACK routine (scipy's)."""
    n = a.shape[0]
    return float(eigh(a, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


def _spectrum_matrix(rng, vals):
    """Q diag(vals) Q^T for a random orthogonal Q, made exactly symmetric."""
    q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    a = (q * vals) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("seed", range(6))
def test_max_eig_of_gram_matches_top_eig_and_spectral_norm(seed):
    # G = X X^T as the critical-batch scan forms it; the top eigenvalue
    # must agree with scipy's top-eigenvalue-only solver and with the
    # squared top singular value of X, including when the top eigenvalues
    # are clustered or tied
    rng = np.random.default_rng(800 + seed)
    n, d = (int(v) for v in rng.integers(1, 60, size=2))
    k = min(n, d)
    plain = rng.standard_normal((n, d))
    svals = rng.uniform(0.1, 5.0, size=k)
    svals[: min(3, k)] = 5.0                        # tied top values
    clustered = svals.copy()
    clustered[: min(3, k)] = 5.0 * (1.0 - 1e-12 * np.arange(min(3, k)))
    for X in (plain,
              (np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k] * svals)
              @ np.linalg.qr(rng.standard_normal((d, d)))[0][:k],
              (np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k] * clustered)
              @ np.linalg.qr(rng.standard_normal((d, d)))[0][:k]):
        G = X @ X.T
        got = numlin.max_eig(G)
        assert abs(got - _top_eig(G)) <= 1e-13 * got
        assert abs(got - numlin.spectral_norm(X) ** 2) <= 1e-13 * got


@pytest.mark.parametrize("seed", range(4))
def test_max_eig_indefinite(seed):
    # relative to the spectral radius: the top eigenvalue itself may be
    # negative or near zero
    rng = np.random.default_rng(850 + seed)
    n = int(rng.integers(2, 40))
    for vals in (rng.uniform(-3.0, 3.0, size=n),
                 -rng.uniform(0.5, 2.0, size=n),
                 np.concatenate([[2.0, 2.0], rng.uniform(-4.0, 2.0, size=n)])):
        a = _spectrum_matrix(rng, vals)
        radius = np.abs(vals).max()
        assert abs(numlin.max_eig(a) - _top_eig(a)) <= 1e-13 * radius
        assert abs(numlin.max_eig(a) - vals.max()) <= 1e-13 * radius * len(vals)


def test_max_eig_small_and_zero():
    assert numlin.max_eig(np.array([[-2.5]])) == -2.5
    assert numlin.max_eig(np.array([[7.0]])) == 7.0
    assert numlin.max_eig(np.zeros((5, 5))) == 0.0


def test_max_eig_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        numlin.max_eig(np.ones((3, 4)))
    with pytest.raises(NotSymmetric):
        numlin.max_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    for bad in (np.nan, np.inf):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(InvalidInput):
            numlin.max_eig(a)
    with pytest.raises(InvalidInput):
        numlin.max_eig(np.ones(3))


# --- complex embedding ---

def test_complex_embed_matrix_layout():
    a = np.array([[1.0 + 2.0j]])
    e = numlin.complex_embed_matrix(a)
    assert np.allclose(e, [[1.0, -2.0], [2.0, 1.0]])


def _stack(z):
    return np.concatenate([np.real(z), np.imag(z)])


@pytest.mark.parametrize("seed", range(6))
def test_complex_embedding_commutes_with_matvec(seed):
    # the embedding is the reference for the complex solves, so check it
    rng = np.random.default_rng(500 + seed)
    n, m = rng.integers(1, 20, size=2)
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    direct = a @ z
    embedded = numlin.complex_embed_matrix(a) @ _stack(z)
    assert np.allclose(embedded[:n] + 1j * embedded[n:], direct, atol=1e-12)


def _kept_rank(a):
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > numlin.RANK_TOL * s[0]))


def _oracle_case(rng, case):
    """A random complex system; cases 1 and 2 are rank deficient."""
    n = int(rng.integers(1, 41))
    m = int(rng.integers(max(1, n // 2), 2 * n + 3))
    if case == 2:
        # feature matrix exp(i X F^T) whose m > n frequency rows repeat
        m = n + 1 + int(rng.integers(0, n + 2))
        distinct = max(1, m // 3)
        F = rng.standard_normal((distinct, 3))[rng.integers(0, distinct, m)]
        a = np.exp(1j * (rng.standard_normal((n, 3)) @ F.T))
    else:
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    if case == 1 and m > 1:
        src = rng.integers(0, m, size=m // 2)
        a[:, rng.permutation(m)[: m // 2]] = a[:, src]
    b = rng.standard_normal(n)
    if case == 0:
        b = b + 1j * rng.standard_normal(n)
    return a, b


@pytest.mark.parametrize("seed", range(6))
def test_embedded_minnorm_solve_matches_complex_lstsq(seed):
    # complex pinv_apply against the real solve on the 2n x 2m embedding,
    # with vectors stacked as (real part, imaginary part)
    rng = np.random.default_rng(600 + seed)
    for trial in range(12):
        a, b = _oracle_case(rng, trial % 3)
        n, m = a.shape
        emb = numlin.complex_embed_matrix(a)
        assert 2 * _kept_rank(a) == _kept_rank(emb)
        x_emb = numlin.pinv_apply(emb, _stack(b.astype(complex)))
        ref = x_emb[:m] + 1j * x_emb[m:]
        got = numlin.pinv_apply(a, b)
        assert np.iscomplexobj(got) and got.shape == (m,)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        oracle = np.linalg.lstsq(a, b.astype(complex), rcond=None)[0]
        assert np.allclose(got, oracle, atol=1e-9)
        assert numlin.spectral_norm(a) == pytest.approx(
            numlin.spectral_norm(emb), rel=1e-12)


# --- minnorm_prefixes ---

def _prefix_case(rng):
    """A complex n x cols matrix, Gaussian or random-feature, and widths
    on both sides of n, n included."""
    n = int(rng.integers(4, 61))
    cols = int(rng.integers(n + 1, 3 * n + 2))
    if rng.integers(2):
        a = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    else:
        a = np.exp(1j * (rng.standard_normal((n, 5)) @ rng.standard_normal((cols, 5)).T))
    widths = np.unique(np.concatenate(
        [[n], rng.choice(np.arange(1, cols + 1), size=5, replace=False)]))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n) * rng.integers(2)
    return a, b, widths


@pytest.mark.parametrize("seed", range(8))
def test_minnorm_prefixes_match_pinv_apply(seed):
    # A Gram solve is accurate to about n eps cond(A_m)^2; the worst seen
    # here is 0.62 of that (6.4e-11 relative), and 0.90 over seeds 0-299.
    # A width that falls back is the very pinv_apply call.
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for _ in range(10):
        a, b, widths = _prefix_case(rng)
        n = a.shape[0]
        solves = numlin.minnorm_prefixes(a, b, widths)
        assert len(solves) == len(widths)
        for m, (x, path) in zip(widths, solves):
            ref = numlin.pinv_apply(a[:, :m], b)
            assert x.shape == ref.shape
            if path == numlin.SVD_PATH:
                assert np.array_equal(x, ref)
                continue
            assert path == numlin.GRAM_PATH
            s = np.linalg.svd(a[:, :m], compute_uv=False)
            cond_sq = (s[0] / s[-1]) ** 2
            assert cond_sq < 1.01 / numlin.GRAM_CERT
            assert np.linalg.norm(x - ref) <= n * eps * cond_sq * np.linalg.norm(ref)


def test_minnorm_prefixes_rank_deficient_widths_take_the_svd():
    rng = np.random.default_rng(11)
    n, cols = 30, 90
    a = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    a[:, 12] = a[:, 3]          # widths 13 to n are rank deficient, wider ones are not
    low = (rng.standard_normal((n, 10)) + 1j * rng.standard_normal((n, 10))) @ \
        (rng.standard_normal((10, cols)) + 1j * rng.standard_normal((10, cols)))
    b = rng.standard_normal(n)
    widths = [5, 12, 13, 20, 30, 45, 90]
    solves = numlin.minnorm_prefixes(a, b, widths)
    assert [path for _, path in solves] == ["gram", "gram", "svd", "svd", "svd", "gram", "gram"]
    # rank 10 < n: every width past 10 is rank deficient on both sides of n
    low_solves = numlin.minnorm_prefixes(low, b, widths)
    assert [path for _, path in low_solves] == ["gram"] + ["svd"] * 6
    for mat, got in ((a, solves), (low, low_solves)):
        for m, (x, path) in zip(widths, got):
            if path == numlin.SVD_PATH:
                assert np.array_equal(x, numlin.pinv_apply(mat[:, :m], b))


def test_minnorm_prefixes_overflowing_gram_takes_the_svd():
    rng = np.random.default_rng(12)
    a = 1e200 * (rng.standard_normal((8, 20)) + 1j * rng.standard_normal((8, 20)))
    b = rng.standard_normal(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solves = numlin.minnorm_prefixes(a, b, [4, 8, 20])
    for m, (x, path) in zip([4, 8, 20], solves):
        assert path == numlin.SVD_PATH
        assert np.array_equal(x, numlin.pinv_apply(a[:, :m], b))


def test_minnorm_prefixes_rejects_bad_input():
    a = np.ones((3, 5), dtype=complex)
    b = np.ones(3)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        a_bad = a.copy()
        a_bad[1, 2] = bad
        with pytest.raises(InvalidInput):
            numlin.minnorm_prefixes(a_bad, b, [2, 5])
    with pytest.raises(InvalidInput):
        numlin.minnorm_prefixes(a, np.array([1.0, np.inf, 1.0]), [2, 5])
    with pytest.raises(DimensionMismatch):
        numlin.minnorm_prefixes(a, np.ones(4), [2, 5])
    for widths in ([], [0, 2], [2, 6], [3, 2], [2, 2]):
        with pytest.raises(InvalidInput):
            numlin.minnorm_prefixes(a, b, widths)


# --- _gram_solve's Cholesky screen ---

def _eigvalsh_gram_solve(gram, rhs):
    """_gram_solve with the eigvalsh certificate alone: the reference that
    the shifted Cholesky screen in front of it must reproduce."""
    if not np.all(np.isfinite(gram)):
        return None
    vals = np.linalg.eigvalsh(gram)
    if not vals[0] > numlin.GRAM_CERT * vals[-1]:
        return None
    return np.linalg.solve(gram, rhs)


def _straddling_gram(rng, k, cplx, tight):
    """A Hermitian k x k Gram whose lambda_min / lambda_max straddles GRAM_CERT.

    tight: one dominant eigenvalue, so ||G||_F is lambda_max to rounding,
    and lambda_min within 1e-6 relative of GRAM_CERT * lambda_max, where
    the screen's rounding margin decides. Otherwise the ratio spreads over
    10^-9.5 to 10^-6.5, and 1 to k eigenvalues sit at lambda_max, so
    ||G||_F / lambda_max runs from 1 to sqrt(k).
    """
    z = rng.standard_normal((k, k))
    if cplx:
        z = z + 1j * rng.standard_normal((k, k))
    q, _ = np.linalg.qr(z)
    cert = numlin.GRAM_CERT
    if tight:
        ratio = cert * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -6.0))
        lam = cert * np.exp(rng.uniform(0.0, np.log(1e4), k))
        top = 1
    else:
        ratio = 10.0 ** rng.uniform(-9.5, -6.5)
        lam = np.exp(rng.uniform(np.log(ratio), 0.0, k))
        top = int(rng.integers(1, k + 1))
    lam[:top] = 1.0
    lam[-1] = ratio
    gram = (q * lam) @ np.conj(q).T
    return (gram + np.conj(gram).T) / 2 * 10.0 ** rng.uniform(-3.0, 3.0)


@pytest.mark.parametrize("seed", range(3))
def test_gram_solve_screen_matches_eigvalsh_certificate(seed):
    # Without the k^2 eps term in the shift, the screen passes about one
    # tight Gram in thirty that eigvalsh refuses; with a shift scaled by
    # max |g_ij|, the largest diagonal entry or trace / k (each can lie far
    # below lambda_max), it passes many of the refused spread ones.
    rng = np.random.default_rng(seed)
    verdicts = {True: 0, False: 0}
    for i in range(240):
        tight = i % 8 != 0
        if tight:
            k = int(rng.integers(2, 13))
        else:
            k = 300 if i == 0 else int(np.exp(rng.uniform(0.0, np.log(300.5))))
        cplx = bool(rng.integers(2))
        gram = _straddling_gram(rng, k, cplx, tight)
        rhs = rng.standard_normal(k) + (1j * rng.standard_normal(k) if cplx else 0.0)
        got = numlin._gram_solve(gram, rhs)
        want = _eigvalsh_gram_solve(gram, rhs)
        assert (got is None) == (want is None), (i, k, cplx, tight)
        if want is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        verdicts[want is not None] += 1
    assert min(verdicts.values()) > 60


# --- pin_one_blas_thread ---

def test_pinned_pools_start_no_thread_across_a_fork(force_cores):
    # the pin sets one thread again after a later change of the count;
    # OpenBLAS stops both pools at a fork, and only a change of the count
    # would start them again, so neither the caller nor a worker gains a
    # thread from large numpy and scipy calls after the fork
    from scipy.linalg import _flapack

    for extension in (np.linalg._umath_linalg, _flapack):
        calls = numlin._blas_calls(extension)
        if calls is None:
            pytest.skip(f"{extension.__name__}'s BLAS has no thread setter or shutdown call")
        get, set_, _ = calls
        set_(2)
        numlin.pin_one_blas_thread(extension)
        assert get() == 1
    force_cores(2)
    rng = np.random.default_rng(8)
    a, b = _spd(rng, 800, 1e-2), rng.standard_normal(800)
    before, caller = _task_count(), os.getpid()

    def work(i):
        if i == 0:
            time.sleep(0.2)     # so that the other process takes index 1
        np.linalg.eigvalsh(a @ a)
        numlin.solve_spd(a, b)
        return os.getpid(), len(os.listdir("/proc/self/task"))

    ran = numlin.on_processes(work, 2)
    assert len({pid for pid, _ in ran}) == 2
    for pid, tasks in ran:
        assert tasks == (before if pid == caller else 1), ran
    assert _task_count() == before


# --- on_cores ---

def test_core_count_is_the_affinity():
    assert numlin.core_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_on_cores_returns_results_in_index_order(cores, force_cores):
    started = force_cores(cores)
    before = threading.active_count()
    for count in sorted({0, 1, max(1, cores - 1), cores, cores + 1, 3 * cores + 2}):
        started.clear()
        ran_on = {}

        def fn(i):
            ran_on[i] = threading.get_ident()
            return i * i

        assert numlin.on_cores(fn, count) == [i * i for i in range(count)]
        assert sorted(ran_on) == list(range(count))
        assert len(started) == max(0, min(cores, count) - 1), count
        assert len(set(ran_on.values())) <= min(cores, count)
        if count:
            assert ran_on[0] == threading.get_ident()   # the caller is one of them
        assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_on_cores_raises_the_lowest_index_after_every_join(force_cores):
    started = force_cores(2)
    before = threading.active_count()
    finished = []

    def fn(i):
        if i == 0:
            raise ValueError(i)
        if i == 1:
            time.sleep(0.1)        # still running long after index 0 raised
            finished.append(i)
            raise KeyError(i)
        finished.append(i)
        return i

    with pytest.raises(ValueError) as info:
        numlin.on_cores(fn, 4)
    assert info.value.args == (0,)
    assert finished == [1]          # index 1 finished; the caller's 2 never ran
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before

    def late(i):
        if i >= 2:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as info:
        numlin.on_cores(late, 5)
    assert info.value.args == (2,)


# --- on_processes ---

def _log_index(path, i):
    """Append 'i pid' to path: a forked worker's record of what it ran."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{i} {os.getpid()}\n")


def _ran_where(path):
    """[(index, pid)] in the order _log_index recorded them."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _assert_no_child_left():
    # every worker was reaped: this process has no child, running or dead
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """This process's open file descriptors; skips where /proc is absent."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_on_processes_returns_results_in_index_order(cores, force_cores, tmp_path):
    started = force_cores(cores)
    log = tmp_path / "ran"
    for count in sorted({0, 1, max(1, cores - 1), cores, cores + 1, 3 * cores + 2}):
        started.clear()
        log.write_text("")
        fds = _open_fds()

        def fn(i):
            _log_index(log, i)
            return i * i, np.full(3, float(i))     # an array comes back pickled

        got = numlin.on_processes(fn, count)
        assert [sq for sq, _ in got] == [i * i for i in range(count)]
        assert all(np.array_equal(a, np.full(3, float(i))) for i, (_, a) in enumerate(got))
        assert len(started.forked) == max(0, min(cores, count) - 1), count
        ran = _ran_where(log)
        assert sorted(i for i, _ in ran) == list(range(count))   # each index once
        assert {pid for _, pid in ran} <= {os.getpid(), *started.forked}
        assert _open_fds() == fds               # every pipe end closed
        _assert_no_child_left()


def _fails_at_5_and_8(i):
    if i == 5:
        raise TargetUnreachable(f"cell {i} missed its target")
    if i == 8:
        raise ValueError(i)
    return i


def test_on_processes_raises_the_lowest_index_from_a_worker(force_cores, tmp_path):
    started = force_cores(2)
    caller, log, napped = os.getpid(), tmp_path / "ran", []

    def fn(i):
        _log_index(log, i)
        if os.getpid() == caller and not napped:
            napped.append(i)
            time.sleep(0.3)    # meanwhile the worker claims the indices up to 5
        return _fails_at_5_and_8(i)

    with pytest.raises(TargetUnreachable) as info:
        numlin.on_processes(fn, 12)
    assert type(info.value) is TargetUnreachable
    assert str(info.value) == "cell 5 missed its target"
    assert dict(_ran_where(log))[5] == started.forked[0]   # raised in the worker
    _assert_no_child_left()

    # one process: the plain loop's exception, and nothing forked
    started = force_cores(1)
    started.clear()
    with pytest.raises(TargetUnreachable, match="^cell 5 missed its target$"):
        numlin.on_processes(_fails_at_5_and_8, 12)
    assert not started.forked


@pytest.mark.parametrize("cores", [2, 3])
def test_on_processes_runs_what_a_dead_worker_claimed(cores, force_cores):
    started = force_cores(cores)
    caller = os.getpid()

    def dies_at_once(i):
        if os.getpid() != caller:
            os._exit(0)          # leaves with its claim unsent
        return -i

    def killed_later(i):
        if os.getpid() != caller and i % 3 == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return -i

    for fn in (dies_at_once, killed_later):
        started.clear()
        assert numlin.on_processes(fn, 12) == [-i for i in range(12)]
        assert len(started.forked) == cores - 1
        _assert_no_child_left()

    # a result that cannot be pickled is computed again by the caller
    got = numlin.on_processes(lambda i: (lambda: i), 7)
    assert [f() for f in got] == list(range(7))
    _assert_no_child_left()


def test_on_processes_claims_runs_of_indices(force_cores, tmp_path, monkeypatch):
    # past PIPE_BUF / 4 indices every claim is a run; a PIPE_BUF of 16 makes
    # 11 indices four runs: 0-2, 3-5, 6-8 and 9-10
    real_fpathconf = os.fpathconf
    monkeypatch.setattr(numlin.os, "fpathconf", lambda fd, name: 16 if name == "PC_PIPE_BUF"
                        else real_fpathconf(fd, name))
    force_cores(2)
    log, runs = tmp_path / "ran", [range(0, 3), range(3, 6), range(6, 9), range(9, 11)]

    def fn(i):
        _log_index(log, i)
        return _fails_at_5_and_8(i) if fails else -i

    for fails in (False, True):
        log.write_text("")
        if fails:
            with pytest.raises(TargetUnreachable, match="^cell 5 missed its target$"):
                numlin.on_processes(fn, 11)
        else:
            assert numlin.on_processes(fn, 11) == [-i for i in range(11)]
        ran = _ran_where(log)
        where = dict(ran)
        assert len(where) == len(ran)           # no index ran twice
        by_pid = {}
        for i, pid in ran:
            by_pid.setdefault(pid, []).append(i)
        assert all(got == sorted(got) for got in by_pid.values())
        for run in runs:                        # a run is one process's, up to its raise
            assert len({where[i] for i in run if i in where}) <= 1, run
        if fails:
            # the process that raised at 5 ran nothing after it; the
            # indices before 5 all ran
            assert by_pid[where[5]][-1] == 5
            assert all(i in where for i in range(5))
        else:
            assert sorted(where) == list(range(11))
        _assert_no_child_left()


def test_a_worker_whose_caller_is_gone_claims_nothing():
    tasks_fd, fill_fd = os.pipe()
    os.write(fill_fd, b"".join(i.to_bytes(numlin._TOKEN_BYTES, "little") for i in (0, 1)))
    os.close(fill_fd)
    try:
        # this process's own pid is never its parent's: the caller is gone
        assert numlin._claim_and_run(lambda i: -i, 2, 1, tasks_fd, os.getpid()) == {}
        assert numlin._claim_and_run(lambda i: -i, 2, 1, tasks_fd, os.getppid()) == {
            0: (0, None), 1: (-1, None)}
    finally:
        os.close(tasks_fd)


def test_on_processes_kills_its_workers_when_the_caller_is_interrupted(force_cores):
    started = force_cores(3)
    caller = os.getpid()

    def fn(i):
        if os.getpid() == caller:
            time.sleep(0.2)       # the workers are in their long cells by now
            raise KeyboardInterrupt
        time.sleep(60)
        return i

    fds, t0 = _open_fds(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        numlin.on_processes(fn, 6)
    assert time.monotonic() - t0 < 30
    assert len(started.forked) == 2
    assert _open_fds() == fds
    _assert_no_child_left()


def test_on_processes_forks_nothing_while_another_thread_lives(force_cores):
    started = force_cores(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = numlin.on_processes(lambda i: (i, os.getpid()), 4)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == [(i, os.getpid()) for i in range(4)]
    assert not started.forked
