"""Dense linear algebra kernels used everywhere else in the lab.

Matrices are 2-D float64 numpy arrays in row-major order, vectors are 1-D
float64 arrays (pinv_apply, minnorm_prefixes and spectral_norm also take
complex128; solve_spd also takes a matrix of right-hand sides), and
every entry must be finite. Factorizations and eigensolvers are
delegated to LAPACK through numpy. The one exception is solve_spd's
Cholesky factor and solve, which call LAPACK dpotrf and dpotrs through
scipy's LAPACK module, imported inside solve_spd so that importing this
module loads no scipy. This module pins down the conventions
(pseudo-inverse rank cutoff, jitter handling) and the error surface,
which the rest of the package relies on.

solve_spd factors in place, so that a kernel fit holds one n x n array:
it writes the factor over the lower triangle of its input and, before it
returns or raises, puts the diagonal back and refills that triangle from
the upper one (mirror_lower). Its input must therefore be exactly
symmetric, bit for bit, and no two threads may solve on one array at
once. require_symmetric checks exact symmetry for it and symmetry within
a relative tolerance for max_eig, in one tiled scan.

numpy and scipy each link an OpenBLAS of their own, and a result that a
threaded OpenBLAS computes can round differently per core count:
double-descent's complex Gram products do, max_eig's eigvalsh does, and
so does solve_spd's Cholesky factor. pin_one_blas_thread sets one
library to one thread and stops its worker threads for the rest of the
process, which makes such results independent of the core count. The CLI
pins numpy's library before every command. Only solve_spd (LAPACK dpotrf,
dpotrs) and optim.critical_batch_scan (BLAS dtrsv) import scipy, for what
numpy lacks, and each pins scipy's library right after the import, so
commands that call neither load no scipy. Once both counts are one, no
pool starts again: OpenBLAS stops its pool at every fork, and only a
change of the count would restart it.

The package uses several cores only at a command's outer loop, through
two helpers with one contract: each computes [fn(0), ..., fn(count - 1)]
on at most one worker per core the process may run on, the caller among
them, is done with every worker before it returns, and re-raises the
exception of the lowest index that raised. on_processes runs fn in
forked worker processes: optim.critical_batch_scan runs its (batch
size, seed) cells through it, whose step loops spend their time in the
interpreter, labcli's noise-interp command its seeds, each one Cholesky
factorization, and kernelmach.double_descent_sweep its replicates. It
forks only while the caller is the one Python thread, and a worker that
dies costs time, not a result. on_cores runs fn on threads, for work
that releases the GIL; its one caller is labcli's simplex command, whose
dimensions run in numpy loops, each on per-thread scratch arrays that
the caller allocates before calling it: buffers that workers allocate
come from fresh malloc arenas and raise the peak resident memory.

minnorm_prefixes gives pinv_apply's solution for every column prefix of
one matrix in a list of widths. It solves each width through the nested
Gram matrices with one linear solve, and keeps that solution only when
the Gram is certified well conditioned (lambda_min > GRAM_CERT *
lambda_max). The certificate is one Cholesky factorization of the Gram
shifted down by a little more than GRAM_CERT * ||G||_F, which can only
complete when that holds; eigvalsh (no eigenvectors) decides exactly for
a Gram the shifted factorization refuses. Any width that fails the
certificate falls back to pinv_apply's SVD, which also serves as the
tests' reference.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NoConvergence,
    NotPositiveDefinite,
    NotSymmetric,
)

RANK_TOL = 1e-10     # pinv_apply drops singular values <= this * the largest
GRAM_CERT = 1e-8     # minnorm_prefixes keeps a Gram solve when lambda_min > this * lambda_max
GRAM_PATH, SVD_PATH = "gram", "svd"
_SCREEN_C = 4        # the Gram screen shifts by (GRAM_CERT + this * k^2 * eps) * ||G||_F
_SYM_RTOL = 1e-10
_SYM_TILE = 128      # require_symmetric and mirror_lower tile edge; a tile pair fits in L2


# (get, set) symbol pairs of an OpenBLAS thread count, first match wins:
# numpy's library exports the 64-bit names, scipy's the plain ones
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _blas_calls(extension):
    """(get, set, shutdown) of the OpenBLAS an extension module links, as
    ctypes functions: the first pair of _BLAS_THREAD_SYMBOLS it exports,
    and the call that stops its worker threads. None if any is missing.

    The symbols are looked up through the handle of the extension; dlsym
    on that handle also searches its dependencies. ctypes.PyDLL keeps the
    GIL held across each call, so no Python thread enters that BLAS while
    its pool stops. Each lookup is made once per process: made afresh,
    their small allocations between sgd-scaling's large arrays raised its
    peak resident memory by 2 MB.
    """
    lib = ctypes.PyDLL(extension.__file__)
    for names in _BLAS_THREAD_SYMBOLS:
        calls = [getattr(lib, name, None) for name in (*names, "blas_thread_shutdown_")]
        if all(call is not None for call in calls):
            return calls
    return None


def pin_one_blas_thread(extension) -> None:
    """Set the OpenBLAS that an extension module links to one thread, and
    stop that pool's worker threads. Nothing is restored.

    The count is set only where it is not one already: setting it on a
    pool that a shutdown or a fork stopped starts the pool again. Where the
    library exports no such calls (another BLAS), this does nothing.
    """
    calls = _blas_calls(extension)
    if calls is None:
        return
    get, set_, shutdown = calls
    if get() != 1:
        set_(1)
    shutdown()


def core_count() -> int:
    """The number of cores this process may run on (its CPU affinity)."""
    return len(os.sched_getaffinity(0))


def on_cores(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], computed on min(core_count(), count) threads.

    The calling thread is one of them and takes indices 0, t, 2t, ... for
    t threads; thread w takes w, w + t, and so on. Every thread started is
    joined before the return, also when fn raises. A thread stops at the
    first index whose fn raises, and once all are joined the exception of
    the lowest such index is re-raised: the one a plain loop over the
    indices would raise. fn runs concurrently with itself, so it should
    write only to its own index's part of any shared array, and spend its
    time in numpy loops that release the GIL.
    """
    threads = min(core_count(), count)
    if threads < 1:
        return []
    results, errors = [None] * count, [None] * count

    def run(w):
        for i in range(w, count, threads):
            try:
                results[i] = fn(i)
            except BaseException as exc:   # re-raised on the calling thread
                errors[i] = exc
                return

    started = []
    try:
        for w in range(1, threads):
            worker = threading.Thread(target=run, args=(w,))
            worker.start()
            started.append(worker)
        run(0)
    finally:
        for worker in started:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


_TOKEN_BYTES = 4        # one claim on on_processes's task pipe: a run's first index


def _claim_and_run(fn, count: int, per: int, tasks_fd: int, parent=None) -> dict:
    """{i: (fn(i), None) or (None, exception)} for the runs of per indices
    this process claims from tasks_fd, until the pipe is empty or an fn
    raises an Exception, whose index is the last one run. A worker passes
    the pid of its parent, and claims nothing more once that is gone."""
    done = {}
    while (parent is None or os.getppid() == parent) and (
            token := os.read(tasks_fd, _TOKEN_BYTES)):
        start = int.from_bytes(token, "little")
        for i in range(start, min(start + per, count)):
            try:
                done[i] = (fn(i), None)
            except Exception as exc:   # re-raised by the caller if it is the lowest
                done[i] = (None, exc)
                return done
    return done


def _worker(fn, count: int, per: int, tasks_fd: int, out_fd: int, parent: int) -> None:
    """A forked worker's life: claim and run indices, send what it ran
    down out_fd as one pickle, and leave by os._exit.

    A worker whose results cannot be pickled, or that is interrupted
    before it sends them, sends nothing; the caller then runs the indices
    it claimed.
    """
    import pickle

    status = 1
    try:
        done = _claim_and_run(fn, count, per, tasks_fd, parent)
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(out_fd, data):]
        status = 0
    finally:
        os._exit(status)


def _read_results(fd: int) -> dict:
    """The pickled results a worker sent down fd; {} if it sent none."""
    import pickle

    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
    except Exception:   # nothing, or a cut-off pickle: the worker died first
        return {}


def _run_forked(fn, count: int, procs: int) -> dict:
    """_claim_and_run's results of the caller and of procs - 1 forked
    workers, all claiming from one task pipe; every worker reaped.

    signal and pickle are imported where they are used, signal only when
    the caller is interrupted, so that importing this module costs the
    commands that never fork nothing more.
    """
    try:
        tasks_fd, fill_fd = os.pipe()
    except OSError:     # no descriptor to spare: the caller runs every index
        return {}
    try:
        # the tokens fit in one atomic pipe write, so writing them never blocks
        per = -(-count * _TOKEN_BYTES // os.fpathconf(fill_fd, "PC_PIPE_BUF"))
        os.write(fill_fd, b"".join(i.to_bytes(_TOKEN_BYTES, "little")
                                   for i in range(0, count, per)))
    finally:
        os.close(fill_fd)   # so that a drained pipe reads as empty
    caller, workers = os.getpid(), []     # workers: (pid, read end of its pipe)
    try:
        for _ in range(1, procs):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:     # no process to spare: the others claim its share
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _worker(fn, count, per, tasks_fd, write_fd, caller)
            os.close(write_fd)
            workers.append((pid, read_fd))
        done = _claim_and_run(fn, count, per, tasks_fd)
        for _, read_fd in workers:
            done.update(_read_results(read_fd))
    except BaseException:
        if os.getpid() != caller:   # a worker interrupted before its own handler
            os._exit(1)
        import signal

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)    # not reaped yet, so the pid is still ours
        raise
    finally:
        for pid, read_fd in workers:
            os.waitpid(pid, 0)
            os.close(read_fd)
        os.close(tasks_fd)
    return done


def on_processes(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], computed on min(core_count(), count) processes.

    on_cores's contract for work that holds the GIL. The calling process
    is one of the processes; it forks the others, which run on a copy of
    its memory. Each process claims the next index not yet claimed, in
    index order, from one pipe, so the indices listed first start first
    and a process that finishes early takes more. A worker sends what it
    computed back through a pipe of its own, pickled; what does not
    survive pickling the caller computes again. fn must change nothing
    the caller reads afterwards: a worker's changes stay in the worker. A
    process stops at the first index whose fn raises, and the exception
    of the lowest such index is re-raised, with its class and message:
    the one a plain loop over the indices would raise.

    It runs serially on one core, and while any other Python thread is
    alive (an on_cores worker among them), since a fork copies the locks
    such a thread may hold. A worker that dies without sending its
    results costs time, not a result: the caller runs the indices it had
    claimed. Every worker is reaped before the return; if the caller
    leaves by an exception (KeyboardInterrupt included), it kills the
    workers still running first. A worker whose caller was killed
    finishes its current index and claims no more.

    It forks by hand rather than through multiprocessing: a fork-context
    ProcessPoolExecutor, one per call, made the benchmark's batch-scan
    pass about 0.10 s slower on 2 vCPUs (BENCH_26.json), its threads,
    queues and idle caller costing most of what the second core gains.
    """
    procs = 1 if threading.active_count() > 1 else min(core_count(), count)
    done = _run_forked(fn, count, procs) if procs > 1 else {}
    results = []
    for i in range(count):
        result, exc = done[i] if i in done else (fn(i), None)
        if exc is not None:
            raise exc
        results.append(result)
    return results


def as_array(a, ndim: int, name: str, allow_complex: bool = False) -> np.ndarray:
    """a as a nonempty, finite float64 (or complex128) array with ndim axes."""
    dtype = None if allow_complex else float
    arr = np.asarray(a, dtype=dtype)
    if allow_complex and not np.iscomplexobj(arr):
        arr = arr.astype(float)
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidInput(f"{name} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    # min and max allocate nothing the size of arr: a NaN carries through
    # both, and an infinity is one of them
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    if not all(np.isfinite(part.min()) and np.isfinite(part.max()) for part in parts):
        raise InvalidInput(f"{name} has non-finite entries")
    return arr


def require_symmetric(a: np.ndarray, name: str = "matrix", rtol: float = _SYM_RTOL) -> None:
    """Raise NotSymmetric unless max |a_ij - a_ji| <= rtol * max |a_ij|.

    rtol = 0 asks for exact symmetry: a_ij and a_ji must have the same
    bits, so zeros of opposite sign differ too. The skew is taken over
    square tiles of the upper triangle, diagonal tiles included: a[I, J]
    against a[J, I]^T over tile pairs J >= I. That covers every pair
    (i, j) once, because |a_ij - a_ji| = |a_ji - a_ij|, and each tile's
    transposed read stays in cache. The check runs for every caller,
    matrices symmetric by construction included.
    """
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    n, t = a.shape[0], _SYM_TILE
    pairs = ((a[i:i + t, j:j + t], a[j:j + t, i:i + t].T)
             for i in range(0, n, t) for j in range(i, n, t))
    if rtol == 0.0:
        if any(np.any(u.view(np.uint64) != v.view(np.uint64)) for u, v in pairs):
            raise NotSymmetric(f"{name} is not exactly symmetric")
        return
    scale = max(a.max(), -a.min())
    if scale == 0.0:
        return
    skew = max(np.abs(u - v).max() for u, v in pairs)
    if skew > rtol * scale:
        raise NotSymmetric(f"{name} asymmetry {skew:.3e} exceeds {rtol:.0e} * {scale:.3e}")


def mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of a square array onto its strict upper
    triangle, in place, so that a equals its transpose bit for bit.

    The copy runs over _SYM_TILE square tiles, so each transposed read
    stays in cache: a tile below the diagonal is written, transposed, to
    its mirror above it, and a diagonal tile copies its own strict lower
    part. a may be any square view; on a.T it fills a's strict lower
    triangle from its upper one.
    """
    n, t = a.shape[0], _SYM_TILE
    upper = np.triu(np.ones((t, t), dtype=bool), 1)
    for i in range(0, n, t):
        tile = a[i:i + t, i:i + t]
        m = tile.shape[0]
        np.copyto(tile, tile.T, where=upper[:m, :m])
        for j in range(i + t, n, t):
            a[i:i + t, j:j + t] = a[j:j + t, i:i + t].T


def solve_spd(a, b, jitter: float = 0.0) -> np.ndarray:
    """Solve (A + jitter*I) x = b for symmetric positive definite A.

    Uses a Cholesky factorization, LAPACK dpotrf then dpotrs, on scipy's
    OpenBLAS, pinned to one thread (pin_one_blas_thread) so that x does not
    depend on the core count. b is a vector, or a matrix whose columns are
    solved on the one factorization; x has the shape of b.
    NotPositiveDefinite is raised if the shifted matrix fails to factor.

    A must be exactly symmetric (NotSymmetric otherwise), because a serves
    as the factorization's workspace and no copy of it is made: the jitter
    is added to a's diagonal, and dpotrf writes the factor over a's lower
    triangle. Before solve_spd returns or raises, a's diagonal is put back
    and its lower triangle refilled from the upper one (mirror_lower), so
    the caller finds a with the same bits again. An a that is not a
    writeable C-ordered float64 array is copied once first. a holds the
    factor while solve_spd runs, so two threads must not solve on one a.
    """
    a = as_array(np.asarray(a, dtype=float, order="C"), 2, "A")
    b = as_array(b, 2 if np.ndim(b) == 2 else 1, "b")
    require_symmetric(a, "A", rtol=0.0)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"A is {a.shape} but b has {b.shape[0]} rows")
    if jitter < 0.0:
        raise InvalidInput("jitter must be non-negative")
    if not a.flags.writeable:
        a = a.copy()
    elif np.may_share_memory(a, b):
        b = b.copy()    # dpotrf writes over a before dpotrs reads b
    from scipy.linalg import _flapack

    pin_one_blas_thread(_flapack)
    diagonal = a.diagonal().copy()
    try:
        if jitter != 0.0:
            a.flat[::a.shape[0] + 1] += jitter
        # a.T is the Fortran-ordered view, so LAPACK factors a itself, and
        # the upper triangle it reads and overwrites is a's lower triangle
        factor, info = _flapack.dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            raise NotPositiveDefinite(
                f"Cholesky failed at jitter={jitter:g}: leading minor {info} is not positive")
        x, _ = _flapack.dpotrs(factor, b, lower=0)
    finally:
        np.fill_diagonal(a, diagonal)
        mirror_lower(a.T)
    return x


def max_eig(a) -> float:
    """Largest eigenvalue of a symmetric matrix.

    The critical-batch scan reads lambda_max(X^T X) this way from the Gram
    matrix X X^T, which has the same nonzero spectrum, and loss-compare
    its step size from the tangent kernel. numpy's eigvalsh
    computes no eigenvectors; scipy's eigh can compute the top eigenvalue
    alone, a few ms sooner at n = 512. The CLI pins numpy's OpenBLAS to
    one thread (pin_one_blas_thread), so eigvalsh's last bits do not
    depend on the core count.
    """
    a = as_array(a, 2, "A")
    require_symmetric(a, "A")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver did not converge: {exc}") from exc
    return float(vals[-1])


def pinv_apply(a, b) -> np.ndarray:
    """The minimum-norm least-squares solution of A x = b, pinv(A) @ b.

    Singular values at or below RANK_TOL times the largest count as exact
    zeros, the cutoff of np.linalg.pinv(A, rcond=RANK_TOL); the zero
    matrix gives the zero vector. A and b may be complex, in which case
    the transposes are conjugate ones and the result is complex.
    """
    a = as_array(a, 2, "A", allow_complex=True)
    b = as_array(b, 1, "b", allow_complex=True)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"A is {a.shape} but b has length {b.shape[0]}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    if s[0] == 0.0:
        return np.zeros(a.shape[1], dtype=np.result_type(a, b))
    # s is sorted descending, so the kept values are a prefix and the
    # slices below are views; conj(conj(b) @ u) is u^H b with no copy of u
    k = int(np.count_nonzero(s > RANK_TOL * s[0]))
    coeff = np.conj(np.conj(b) @ u[:, :k]) / s[:k]
    return np.conj(np.conj(coeff) @ vt[:k])


def _gram_solve(gram: np.ndarray, rhs: np.ndarray):
    """gram^-1 rhs for a Hermitian Gram matrix certified as well conditioned.

    None unless the Gram matrix is finite (it overflows on huge entries
    that the SVD scales away) and its eigenvalues, as eigvalsh computes
    them, satisfy lambda_min > GRAM_CERT * lambda_max. A shifted Cholesky
    screen (_screen_certifies) vouches for that first, and eigvalsh, the
    exact test, runs only on a Gram the screen refuses; either way a
    width takes the same path and the same solve, one LU factorization.
    All three LAPACK calls are numpy's, not scipy's, so double-descent
    loads no scipy. The CLI pins numpy's OpenBLAS to one thread, so these
    calls give the same bits on every core count.
    """
    if not np.all(np.isfinite(gram)):
        return None
    if not _screen_certifies(gram):
        try:
            vals = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Hermitian eigensolver did not converge: {exc}") from exc
        if not vals[0] > GRAM_CERT * vals[-1]:
            return None
    return np.linalg.solve(gram, rhs)


def _screen_certifies(gram: np.ndarray) -> bool:
    """True when a Cholesky factorization of gram - shift * I completes.

    With F = ||G||_F >= lambda_max and k the order of G, shift =
    (GRAM_CERT + _SCREEN_C * k^2 * eps) * F, subtracted from a copy. A
    factorization that completes is exact for a perturbation of norm at
    most gamma_(k+1) * trace / (1 - gamma_(k+1)) <= (k + 1) sqrt(k) u F
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3,
    with trace <= sqrt(k) F and u = eps / 2), and the subtraction rounds
    the diagonal by at most u F. So lambda_min(G) >= GRAM_CERT * F +
    (8 k^2 - (k + 1) sqrt(k) - 1) u F, at least 5 k^2 u F above GRAM_CERT
    * lambda_max: room for complex arithmetic's larger constants and for
    eigvalsh's own backward error (Householder tridiagonalization's worst
    case grows like k^2 u), so eigvalsh accepts every Gram this accepts.
    """
    k = gram.shape[0]
    shifted = gram.copy()
    shifted.flat[::k + 1] -= ((GRAM_CERT + _SCREEN_C * k * k * np.finfo(float).eps)
                              * np.linalg.norm(gram))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def minnorm_prefixes(a, b, widths) -> list:
    """pinv_apply(A[:, :m], b) for each width m, and the path that solved it.

    Returns one (x, path) pair per width, path GRAM_PATH or SVD_PATH;
    widths must increase strictly. Every width's matrix A_m is a column
    prefix of A (n rows), so the Gram matrices nest. Below n, A_m^H A_m is
    the leading m x m block of the Gram at the largest such width, and
    x = (A_m^H A_m)^-1 (A_m^H b). From n up, the n x n Gram A_m A_m^H is
    a running sum over the column blocks between widths, and
    x = A_m^H (A_m A_m^H)^-1 b. A width takes its Gram solution only when
    lambda_min > GRAM_CERT * lambda_max. Then every singular value of A_m
    lies within a factor 1e-4 of the largest, far above RANK_TOL,
    so the SVD keeps the same full rank. Any other width, such as an
    ill-conditioned one near m = n or one whose Gram overflows, is solved
    by pinv_apply.

    The certificate for a k x k Gram G is one Cholesky factorization of
    G - (GRAM_CERT + 4 k^2 eps) ||G||_F I. If it completes, lambda_min(G)
    >= (GRAM_CERT + 5 k^2 u) ||G||_F with u = eps / 2 (Higham, Thm 10.3;
    see _screen_certifies), which leaves 5 k^2 u ||G||_F above GRAM_CERT *
    lambda_max for eigvalsh's rounding. A Gram the factorization refuses
    is decided by eigvalsh, so every width takes the path and the solve
    that eigvalsh alone would give it.
    """
    a = as_array(a, 2, "A", allow_complex=True)
    b = as_array(b, 1, "b", allow_complex=True)
    n, cols = a.shape
    if b.shape[0] != n:
        raise DimensionMismatch(f"A is {a.shape} but b has length {b.shape[0]}")
    widths = [int(m) for m in widths]
    if (not widths or widths[0] < 1 or widths[-1] > cols
            or any(p >= q for p, q in zip(widths, widths[1:]))):
        raise InvalidInput(f"widths must increase strictly within [1, {cols}], got {widths}")

    def solved(m, x):
        if x is None:
            return pinv_apply(a[:, :m], b), SVD_PATH
        return x, GRAM_PATH

    out = []
    below = [m for m in widths if m < n]
    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails the certificate
        if below:
            top = a[:, :below[-1]]
            gram = np.conj(top).T @ top
            atb = np.conj(np.conj(b) @ top)
            out += [solved(m, _gram_solve(gram[:m, :m], atb[:m])) for m in below]
        gram = np.zeros((n, n), dtype=a.dtype)
        start = 0
        for m in widths[len(below):]:
            block = a[:, start:m]
            gram += block @ np.conj(block).T
            start = m
            z = _gram_solve(gram, b)
            out.append(solved(m, None if z is None else np.conj(np.conj(z) @ a[:, :m])))
    return out


def spectral_norm(a) -> float:
    """Largest singular value of a dense matrix.

    Computed from the full singular spectrum: iterative schemes stall on
    the tightly clustered spectra this package routinely produces (wide
    nets give Hessians whose top eigenvalues are order statistics with
    vanishing gaps), while the dense factorization is exact regardless of
    clustering. Complex input is accepted.
    """
    a = as_array(a, 2, "A", allow_complex=True)
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    try:
        s = np.linalg.svd(a / scale, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value computation failed: {exc}") from exc
    return float(s[0]) * scale


def complex_embed_matrix(a) -> np.ndarray:
    """Real 2n x 2m image of a complex n x m matrix.

    Layout is [[Re, -Im], [Im, Re]], acting on vectors stacked as
    (real part, imaginary part). Composition and pseudo-inversion commute
    with the embedding, so a real solve on the image is the reference
    that the complex pinv_apply is tested against; no solver uses it.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInput(f"matrix must be nonempty 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInput("matrix has non-finite entries")
    re, im = np.real(a), np.imag(a)
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    return np.vstack([top, bot]).astype(float)
