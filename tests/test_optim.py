"""Optimizer behavior: descent certificates, min-norm limits, batch scaling."""

import itertools
import math
import warnings

import numpy as np
import pytest

from interplab import netmodels, numlin, optim
from interplab.errors import (
    DimensionMismatch,
    Diverged,
    InvalidSpec,
    TargetUnreachable,
)
from interplab.rng import substream

from oracles import rate_fit, sgd


def _handrolled_gd(X, y, w0, step, iters):
    """Scalar-loop gradient descent, the independent route."""
    n, d = X.shape
    w = [float(v) for v in w0]
    for _ in range(iters):
        g = [0.0] * d
        for i in range(n):
            r = sum(X[i, j] * w[j] for j in range(d)) - y[i]
            for j in range(d):
                g[j] += r * X[i, j]
        for j in range(d):
            w[j] -= step * g[j]
    return np.array(w)


def _gram_extremes(X):
    vals = np.linalg.eigh(X @ X.T)[0]
    return float(vals[-1]), float(vals[0])


def _random_problem(seed, n, d, noisy=False):
    rng = substream(seed, "optim-tests", n, d)
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d)
    if noisy:
        y = y + rng.standard_normal(n)
    return X, y


def test_gd_one_step_solves_scalar_quadratic():
    obj = optim.linear_objective(np.array([[1.0]]), np.array([0.0]))
    tr = optim.gd(obj, np.array([3.0]), step=1.0, iters=1)
    assert tr.final_w[0] == 0.0
    assert tr.loss[-1] == 0.0
    assert math.isinf(tr.plstar[-1])
    assert tr.loss[0] == 4.5


def test_gd_matches_handrolled_loop():
    for seed, n, d in [(0, 7, 4), (1, 7, 4), (2, 4, 9), (3, 4, 9), (4, 5, 5)]:
        X, y = _random_problem(seed, n, d)
        rng = substream(seed, "optim-w0", d)
        w0 = rng.standard_normal(d)
        lam_max, _ = _gram_extremes(X)
        step = 0.5 / lam_max
        want = _handrolled_gd(X, y, w0, step, 25)
        got = optim.gd(optim.linear_objective(X, y), w0, step, 25,
                       record_every=25).final_w
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_gd_reaches_minnorm_from_zero():
    for seed in range(10):
        X, y = _random_problem(seed, 8, 24)
        pin = np.linalg.pinv(X) @ y
        lam_max, _ = _gram_extremes(X)
        tr = optim.gd(optim.linear_objective(X, y), np.zeros(24),
                      1.0 / lam_max, 2000, record_every=2000)
        assert np.linalg.norm(tr.final_w - pin) <= 1e-6


def test_gd_never_leaves_row_span_offset():
    for seed in range(5):
        X, y = _random_problem(seed, 8, 24)
        pinv = np.linalg.pinv(X)
        span_proj = pinv @ X
        rng = substream(seed, "offspan", 24)
        c = rng.standard_normal(24)
        c -= span_proj @ c
        lam_max, _ = _gram_extremes(X)
        step = 1.0 / lam_max

        obj = optim.linear_objective(X, y)
        w = c.copy()
        for _ in range(25):
            w = optim.gd(obj, w, step, 1, record_every=1).final_w
            drift = (np.eye(24) - span_proj) @ (w - c)
            assert np.linalg.norm(drift) <= 1e-10
        final = optim.gd(obj, c, step, 2000, record_every=2000).final_w
        assert np.linalg.norm(final - (c + pinv @ y)) <= 1e-6


def test_gd_monotone_descent_and_pl_certificate():
    for seed in range(10):
        X, y = _random_problem(seed, 10, 30)
        lam_max, lam_min = _gram_extremes(X)
        step = (1.0 if seed == 0 else 0.9) / lam_max
        tr = optim.gd(optim.linear_objective(X, y),
                      np.zeros(30), step, 150, record_every=1)
        assert np.all(np.diff(tr.loss) <= 0.0)
        bound = (1.0 - step * lam_min) * tr.loss[:-1]
        assert np.all(tr.loss[1:] <= bound * (1.0 + 1e-10) + 1e-300)


def test_gd_diverges_at_oversized_step():
    X, y = _random_problem(3, 6, 12)
    lam_max, _ = _gram_extremes(X)
    with pytest.raises(Diverged):
        optim.gd(optim.linear_objective(X, y), np.zeros(12),
                 10.0 / lam_max, 200, record_every=50)


def test_nan_loss_is_divergence():
    # a finite step overflows w to (+inf, -inf), so the first row's
    # prediction inf - inf is nan; nan > DIVERGE_CAP is false, so only a
    # test that the loss is at most the cap catches it
    X, y = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.0, 4.0])
    obj = optim.linear_objective(X, y)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(Diverged, match="loss nan"):
        optim.gd(obj, np.zeros(2), 1e308, 3)


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
def test_step_must_be_positive_and_finite(step):
    X, y = _random_problem(6, 8, 20)
    with pytest.raises(InvalidSpec, match="step must be positive and finite"):
        optim.gd(optim.linear_objective(X, y), np.zeros(20), step, 3)


def test_trace_recording_and_csv():
    X, y = _random_problem(6, 8, 20)
    lam_max, _ = _gram_extremes(X)
    tr = optim.gd(optim.linear_objective(X, y), np.zeros(20),
                  1.0 / lam_max, 23, record_every=7)
    assert list(tr.iters) == [0, 7, 14, 21, 23]
    assert np.all(np.diff(tr.iters) > 0)
    assert np.all(np.isfinite(tr.loss))
    assert tr.param_norm[-1] == pytest.approx(np.linalg.norm(tr.final_w), rel=1e-12)


def test_sgd_full_batch_is_gd_bitwise():
    for seed in range(3):
        X, y = _random_problem(seed, 6, 5, noisy=True)
        lam_max, _ = _gram_extremes(X)
        model = netmodels.init_mlp(5, 7, "tanh", seed=seed)
        cases = [
            (optim.linear_objective(X, y), substream(seed, "fb-w0").standard_normal(5)),
            (optim.linear_objective(X, np.sign(y), loss=optim.CROSS_ENTROPY),
             substream(seed, "fb-w0").standard_normal(5)),
            (optim.mlp_objective(model, X, y), netmodels.flatten_params(model)),
            (optim.mlp_objective(model, X, np.sign(y), loss=optim.CROSS_ENTROPY),
             netmodels.flatten_params(model)),
        ]
        for obj, w0 in cases:
            a = optim.gd(obj, w0, 0.3 / lam_max, 40, record_every=8)
            b = sgd(obj, w0, 0.3 / lam_max, batch=6, iters=40, seed=seed,
                          record_every=8)
            assert np.array_equal(a.final_w, b.final_w)
            assert np.array_equal(a.loss, b.loss)
            assert np.array_equal(a.grad_norm, b.grad_norm)
            assert np.array_equal(a.param_norm, b.param_norm)
            assert not np.array_equal(a.final_w, w0)


def test_trace_norms_do_not_overflow():
    # g = X^T r = (1e160, 3e159) at a loss of 0.5: g @ g overflows
    X = np.array([[1e160, 3e159]])
    obj = optim.linear_objective(X, np.array([0.0]))
    w0 = np.array([1e-160, 0.0])
    g = X[0] * float(X[0] @ w0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = optim.gd(obj, w0, 1.0, 0)
    s = float(np.abs(g).max())
    want = s * float(np.linalg.norm(g / s))
    assert np.isfinite(tr.grad_norm[0])
    assert abs(tr.grad_norm[0] - want) <= 1e-12 * want
    assert tr.plstar[0] == math.inf and tr.loss[0] == 0.5
    # below the overflow the recorded norm is np.linalg.norm's, bit for bit
    for seed in range(5):
        v = substream(seed, "trace-norm").standard_normal(9) * 10.0 ** (seed - 2)
        assert optim._norm(v) == float(np.linalg.norm(v))


def test_sgd_deterministic_and_seed_sensitive():
    X, y = _random_problem(9, 12, 30)
    obj = optim.linear_objective(X, y)
    lam_max, _ = _gram_extremes(X)
    kw = dict(step=0.2 / lam_max, batch=3, iters=80, record_every=20)
    a = sgd(obj, np.zeros(30), seed=5, **kw)
    b = sgd(obj, np.zeros(30), seed=5, **kw)
    c = sgd(obj, np.zeros(30), seed=6, **kw)
    assert np.array_equal(a.final_w, b.final_w)
    assert np.array_equal(a.loss, b.loss)
    assert not np.array_equal(a.loss, c.loss)


def test_sgd_interpolated_decay_is_loglinear():
    for seed in range(5):
        rng = substream(seed, "probe-interp")
        X = rng.standard_normal((16, 64))
        y = rng.standard_normal(16)
        obj = optim.linear_objective(X, y)
        lam = numlin.spectral_norm(X) ** 2
        row = float(np.einsum("ij,ij->i", X, X).max())
        step = optim.scan_step_rule(4, 16, row, lam) / 8.0
        tr = sgd(obj, np.zeros(64), step, batch=4, iters=2000,
                       seed=seed, record_every=25)
        rate, r2 = rate_fit(tr, (200, 2000))
        assert rate < 0.0
        assert r2 >= 0.99


def test_sgd_underparam_plateaus_above_ls_floor():
    worst = math.inf
    for seed in range(12):
        rng = substream(seed, "probe-under")
        X = rng.standard_normal((40, 20))
        y = X @ rng.standard_normal(20) + rng.standard_normal(40)
        obj = optim.linear_objective(X, y)
        ls_min = 0.5 * float(np.sum((X @ (np.linalg.pinv(X) @ y) - y) ** 2))
        lam = numlin.spectral_norm(X) ** 2
        row = float(np.einsum("ij,ij->i", X, X).max())
        step = optim.scan_step_rule(1, 40, row, lam) * 1.75
        tr = sgd(obj, np.zeros(20), step, batch=1, iters=4000,
                       seed=seed, record_every=100)
        worst = min(worst, float(np.median(tr.loss[-10:])) / ls_min)
    assert worst >= 1.5


def _plstar_ratio(obj, w):
    """The trace's gradient-domination ratio 0.5*||grad||^2 / L at w."""
    return float(optim.gd(obj, w, 1.0, 0).plstar[0])


def test_plstar_ratio_identity_quadratic():
    obj = optim.linear_objective(np.eye(5), np.zeros(5))
    for seed in range(5):
        w = substream(seed, "plstar-w").standard_normal(5)
        assert abs(_plstar_ratio(obj, w) - 1.0) <= 1e-12
    assert math.isinf(_plstar_ratio(obj, np.zeros(5)))


def test_plstar_ratio_bounded_below_by_gram_min_eig():
    for seed in range(10):
        X, y = _random_problem(seed, 6, 20)
        obj = optim.linear_objective(X, y)
        _, lam_min = _gram_extremes(X)
        w = substream(seed, "plstar-rand", 20).standard_normal(20)
        assert _plstar_ratio(obj, w) >= lam_min * (1.0 - 1e-9)


def test_plstar_ratio_vanishes_at_ls_solution():
    X, y = _random_problem(2, 30, 6, noisy=True)
    obj = optim.linear_objective(X, y)
    w_ls = np.linalg.pinv(X) @ y
    assert optim._loss_grad(obj, w_ls)[0] > 0.1
    assert _plstar_ratio(obj, w_ls) <= 1e-15


def test_tangent_kernel_wide_net_stays_conditioned():
    X = substream(99, "tk-inputs", 8).standard_normal((8, 8))
    for seed in range(12):
        model = netmodels.init_mlp(8, 32, "tanh", seed=seed)
        K = netmodels.tangent_kernel(model, None, X)
        vals = np.linalg.eigh(K)[0]
        assert vals[0] >= 0.01 * vals[-1]


def _synthetic_trace(losses):
    t = np.arange(len(losses), dtype=float)
    z = np.zeros(len(losses))
    return optim.OptimTrace(iters=t.astype(int), loss=np.array(losses, dtype=float),
                            grad_norm=z, param_norm=z, plstar=z,
                            final_w=np.zeros(1))


def test_rate_fit_geometric_and_constant():
    tr = _synthetic_trace([0.5 ** t for t in range(10)])
    rate, r2 = rate_fit(tr, (0, 9))
    assert rate == pytest.approx(math.log(0.5), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    flat = _synthetic_trace([2.0] * 8)
    rate, r2 = rate_fit(flat, (0, 7))
    assert abs(rate) <= 1e-15
    assert r2 == 1.0


def test_rate_fit_matches_slow_mode_prediction():
    lams = np.array([1.0, 0.5, 0.04, 0.03, 0.025, 0.02])
    for seed in range(5):
        rng = substream(seed, "probe-rate")
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        X = q1 @ np.diag(np.sqrt(lams)) @ q2.T
        y = X @ rng.standard_normal(6)
        tr = optim.gd(optim.linear_objective(X, y), np.zeros(6), 0.8, 600,
                      record_every=10)
        rate, r2 = rate_fit(tr, (300, 600))
        pred = 2.0 * math.log(1.0 - 0.8 * lams[-1])
        assert abs(rate - pred) <= 0.1 * abs(pred)
        assert r2 >= 0.999


def test_scan_identity_features():
    y = substream(3, "probe-id").standard_normal(8)
    obj = optim.linear_objective(np.eye(8), y)
    rep = optim.critical_batch_scan(obj, [1, 2, 4, 8],
                                    1e-8 * 0.5 * float(y @ y), seeds=9)
    assert rep.mstar == pytest.approx(8.0, abs=1e-9)
    assert rep.tr_h == pytest.approx(8.0, abs=1e-12)
    assert rep.lambda_max_h == pytest.approx(1.0, abs=1e-9)
    assert np.all(rep.median_iters > 0)


def test_scan_rank_one_features():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    obj = optim.linear_objective(X, np.array([1.0, 0.0]))
    rep = optim.critical_batch_scan(obj, [1, 2], 1e-8 * 0.5, seeds=9)
    assert rep.mstar == pytest.approx(1.0, abs=1e-12)
    assert rep.regimes[0] == "linear"
    assert rep.regimes[-1] == "saturation"


def test_scan_gaussian_features_regimes():
    rng = substream(7, "probe-scan")
    n, d = 128, 256
    a = (d - 1) / 7.0
    cov_sqrt = np.sqrt(np.concatenate([[a], np.ones(d - 1)]))
    X = rng.standard_normal((n, d)) * cov_sqrt
    y = X @ rng.standard_normal(d)
    obj = optim.linear_objective(X, y)
    rep = optim.critical_batch_scan(obj, [1, 2, 4, 32, 64, 128],
                                    1e-8 * 0.5 * float(y @ y), seeds=5)
    assert 5.0 < rep.mstar < 10.0
    by_m = dict(zip(rep.batch_grid.tolist(), rep.regimes))
    assert by_m[1] == "linear" and by_m[2] == "linear" and by_m[4] == "linear"
    assert by_m[32] == "saturation" and by_m[128] == "saturation"
    assert np.all(np.diff(rep.median_iters) < 0)


def test_scan_always_anchors_at_batch_one():
    y = substream(8, "probe-anchor").standard_normal(4)
    obj = optim.linear_objective(np.eye(4), y)
    rep = optim.critical_batch_scan(obj, [2, 4], 1e-6 * 0.5 * float(y @ y),
                                    seeds=3)
    assert rep.batch_grid.tolist() == [1, 2, 4]


def _floyd_oracle(rng, n, m, rows):
    """Reference for optim._floyd_subsets: Floyd's sampler one row at a
    time with a Python set, on the same rng.integers columns."""
    cols = [rng.integers(0, j + 1, size=rows).tolist() for j in range(n - m, n)]
    out = []
    for k in range(rows):
        chosen = set()
        for j, col in zip(range(n - m, n), cols):
            chosen.add(j if col[k] in chosen else col[k])
        out.append(sorted(chosen))
    return np.array(out, dtype=np.int64).reshape(rows, m)


def _floyd_oracle_rows(rng, n, m):
    while True:
        yield from _floyd_oracle(rng, n, m, 256)


def _column_gather_scan(obj, grid, target, seeds):
    """Reference for critical_batch_scan: sorted subsets from the scalar
    Floyd loop, 256 per block, and a column gather of the Gram matrix at
    every step. At m = 1 the blocks are integers(0, n) draws, the stream
    of the scan's batch-1 blocks; at m = n every subset is range(n)."""
    X, y = obj.X, obj.y
    n = X.shape[0]
    row_sq = np.einsum("ij,ij->i", X, X)
    lam = numlin.spectral_norm(X) ** 2
    G = X @ X.T
    counts = []
    for m in grid:
        c = optim.scan_step_rule(m, n, float(row_sq.max()), lam) * (n / m)
        for s in range(seeds):
            rows = _floyd_oracle_rows(substream(s, "batch-scan", m), n, m)
            r = -y.copy()
            t = 0
            while True:
                t += 1
                idx = next(rows)
                r -= c * (G[:, idx] @ r[idx])
                if 0.5 * float(r @ r) <= target:
                    break
            counts.append(t)
    med = [float(np.median(row))
           for row in np.array(counts, dtype=float).reshape(len(grid), seeds)]
    regimes = tuple("linear" if m * it <= 2.0 * med[0] else "saturation"
                    for m, it in zip(grid, med))
    return np.array(med), regimes


def test_scan_matches_column_gather_reference():
    rng = substream(21, "probe-scan-oracle")
    # d < n included: y = X w stays in the range of X, so the target is
    # still reachable
    for n, d in [(5, 3), (9, 160), (17, 8), (40, 12), (64, 24), (80, 160)]:
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d)
        obj = optim.linear_objective(X, y)
        grid = [1, 2, max(3, n // 2), n - 1, n]
        target = 1e-10 * 0.5 * float(y @ y)
        want_med, want_reg = _column_gather_scan(obj, sorted(set(grid)), target, 3)
        rep = optim.critical_batch_scan(obj, grid, target, seeds=3)
        assert np.array_equal(rep.median_iters, want_med), (n, d)
        assert rep.regimes == want_reg, (n, d)


def test_floyd_subsets_sorted_and_in_range():
    for n in (2, 3, 7, 40, 512):
        for m in sorted({2, 3, n // 2, n - 1} & set(range(2, n))):
            idx = optim._floyd_subsets(substream(n, "floyd-range", m), n, m, 300)
            assert idx.shape == (300, m) and idx.dtype.kind == "i", (n, m)
            assert idx.min() >= 0 and idx.max() < n, (n, m)
            assert np.all(np.diff(idx, axis=1) > 0), (n, m)


def test_floyd_subsets_uniform():
    # each m-subset is one of C(n, m) equally likely outcomes: every count
    # lies within 5 binomial standard deviations of its expectation
    for n, m in [(6, 3), (5, 2), (4, 3), (7, 5)]:
        rows = 40_000
        idx = optim._floyd_subsets(substream(n, "floyd-uniform", m), n, m, rows)
        codes = (1 << idx).sum(axis=1)
        counts = np.bincount(codes, minlength=2 ** n)[
            [sum(1 << i for i in c) for c in itertools.combinations(range(n), m)]]
        p = 1.0 / math.comb(n, m)
        assert counts.sum() == rows, (n, m)
        assert np.all(np.abs(counts - rows * p) <= 5.0 * math.sqrt(rows * p * (1 - p))), (n, m)


def test_floyd_subsets_match_scalar_oracle():
    for n, m in [(2, 1), (2, 2), (3, 2), (6, 3), (7, 6), (40, 17), (64, 63),
                 (512, 2), (512, 128)]:
        got = optim._floyd_subsets(substream(n, "floyd-oracle", m), n, m, 256)
        want = _floyd_oracle(substream(n, "floyd-oracle", m), n, m, 256)
        assert np.array_equal(got, want), (n, m)


def test_scan_makes_no_choice_call(monkeypatch):
    calls = {}

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            calls[name] = calls.get(name, 0) + 1
            return getattr(self.rng, name)

    rng = substream(36, "probe-scan-choice")
    X = rng.standard_normal((24, 40))
    y = X @ rng.standard_normal(40)
    obj = optim.linear_objective(X, y)
    args = (obj, [1, 2, 5, 23, 24], 1e-8 * 0.5 * float(y @ y))
    want = optim.critical_batch_scan(*args, seeds=3)
    real_substream = optim.substream
    monkeypatch.setattr(optim, "substream",
                        lambda *key: CountingGenerator(real_substream(*key)))
    got = optim.critical_batch_scan(*args, seeds=3)
    assert "choice" not in calls and calls["integers"] > 0, calls
    assert np.array_equal(got.median_iters, want.median_iters)


def test_single_choice_draws_like_integers():
    # the batch-1 selectors rely on choice(n, 1, replace=False) spending
    # the stream exactly as integers(0, n) does
    for n in (1, 2, 7, 100, 512, 1000, 65_537):
        a = substream(n, "choice-vs-integers")
        b = substream(n, "choice-vs-integers")
        picks = [int(a.choice(n, size=1, replace=False)[0]) for _ in range(300)]
        assert picks == b.integers(0, n, size=300).tolist(), n


def _batch_one_step_loop(G, y, c, target, iter_cap, rng):
    """Reference for the blocked batch-1 steps: one step and one loss
    check per index, the indices drawn 4096 at a time. Returns the count
    (None at the cap) and the per-step losses."""
    n = G.shape[0]
    r = -y.copy()
    losses = []
    while len(losses) < iter_cap:
        for i in rng.integers(0, n, size=4096).tolist():
            r -= c * (r[i:i + 1] @ G[i:i + 1])
            losses.append(0.5 * float(r @ r))
            if losses[-1] <= target:
                return len(losses), losses
            if len(losses) == iter_cap:
                break
    return None, losses


def _batch_one_case(rng, n, d, near_orthogonal=False):
    if near_orthogonal:
        # rows nearly orthonormal: one block of steps takes the loss from
        # about 1 to far below 1e-10 of its start
        d = max(d, n)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X = q[:n] + 1e-7 * rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d)
        y /= np.linalg.norm(y)
    else:
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d)
    G = X @ X.T
    row = float(np.einsum("ij,ij->i", X, X).max())
    c = optim.scan_step_rule(1, n, row, numlin.max_eig(G)) * n
    return G, y, c


def _blocked_count(G, y, c, target, iter_cap, seed):
    r = -y.copy()
    t = optim._batch_one_steps(G, G @ G.T, r, c, target, iter_cap,
                               substream(seed, "blocked-vs-loop"))
    return t, r


def test_blocked_batch_one_matches_step_loop():
    rng = substream(31, "probe-blocked")
    for trial in range(24):
        # d well below or well above n keeps X well conditioned, so every
        # run reaches the target within a few thousand steps
        n = int(rng.integers(1, 90))
        if trial % 2:
            d = int(rng.integers(1, max(2, n // 2)))
        else:
            d = int(rng.integers(2 * n, 3 * n + 2))
        G, y, c = _batch_one_case(rng, n, d)
        target = 1e-10 * 0.5 * float(y @ y)
        want, _ = _batch_one_step_loop(G, y, c, target, 20_000,
                                       substream(trial, "blocked-vs-loop"))
        got, _ = _blocked_count(G, y, c, target, 20_000, trial)
        assert want is not None and got == want, (trial, n, d)


def test_blocked_batch_one_single_block_drop():
    rng = substream(32, "probe-blocked-drop")
    for trial in range(12):
        n = int(rng.integers(2, 9))     # 64 draws hit every row
        G, y, c = _batch_one_case(rng, n, n + int(rng.integers(0, 20)),
                                  near_orthogonal=True)
        start = 0.5 * float(y @ y)
        target = 1e-10 * start
        want, losses = _batch_one_step_loop(G, y, c, target, 64,
                                            substream(trial, "blocked-vs-loop"))
        assert want is not None and min(losses) < 1e-12 * start, trial
        assert _blocked_count(G, y, c, target, 64, trial)[0] == want, trial


def test_blocked_batch_one_crossing_at_the_target():
    # the target is the smallest per-step loss of the first block, so the
    # loop crosses exactly there; a screen rounded the other way must
    # still send the block to the replay
    rng = substream(33, "probe-blocked-edge")
    for trial in range(40):
        n = int(rng.integers(2, 70))
        G, y, c = _batch_one_case(rng, n, int(rng.integers(1, 100)),
                                  near_orthogonal=trial % 2 == 1)
        _, losses = _batch_one_step_loop(G, y, c, 0.0, 64,
                                         substream(trial, "blocked-vs-loop"))
        target = min(losses)
        want = losses.index(target) + 1
        assert _blocked_count(G, y, c, target, 10_000, trial)[0] == want, trial


def test_blocked_batch_one_respects_iter_cap():
    rng = substream(34, "probe-blocked-cap")
    G, y, c = _batch_one_case(rng, 30, 50)
    target = 1e-10 * 0.5 * float(y @ y)
    want, losses = _batch_one_step_loop(G, y, c, target, 20_000,
                                        substream(0, "blocked-vs-loop"))
    assert want is not None and want > 200
    assert _blocked_count(G, y, c, target, want, 0)[0] == want
    for cap in (want - 1, 1, 63, 64, 65, 130):
        got, r = _blocked_count(G, y, c, target, cap, 0)
        assert got is None, cap
        assert 0.5 * float(r @ r) == pytest.approx(losses[cap - 1], rel=1e-9), cap


def test_blocked_batch_one_overflowing_gram_square():
    # with a spiked feature G G overflows, so every screen is inf or nan:
    # each block replays, with the loop's counts and no RuntimeWarning
    rng = substream(37, "probe-blocked-overflow")
    for spike in (1e160, 1e200):
        X = rng.standard_normal((16, 32)) * np.sqrt(
            np.concatenate([[spike], np.ones(31)]))
        y = X @ rng.standard_normal(32)
        G = X @ X.T
        with np.errstate(over="ignore"):
            G2 = G @ G.T
        assert not np.isfinite(G2).all()
        row = float(np.einsum("ij,ij->i", X, X).max())
        c = optim.scan_step_rule(1, 16, row, numlin.max_eig(G)) * 16
        target = 1e-8 * 0.5 * float(y @ y)
        for seed in range(5):
            want, _ = _batch_one_step_loop(G, y, c, target, 20_000,
                                           substream(seed, "blocked-vs-loop"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = optim._batch_one_steps(G, G2, -y.copy(), c, target, 20_000,
                                             substream(seed, "blocked-vs-loop"))
            assert want is not None and got == want, (spike, seed)


def test_scan_takes_one_top_eigenvalue_and_no_svd(monkeypatch):
    calls = {"max_eig": 0, "svd": 0}
    real_max_eig, real_svd = numlin.max_eig, np.linalg.svd

    def counting_max_eig(a):
        calls["max_eig"] += 1
        return real_max_eig(a)

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return real_svd(*args, **kwargs)

    def no_spectral_norm(a):
        raise AssertionError("spectral_norm called")

    monkeypatch.setattr(numlin, "max_eig", counting_max_eig)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(numlin, "spectral_norm", no_spectral_norm)
    rng = substream(35, "probe-scan-calls")
    X = rng.standard_normal((40, 60))
    y = X @ rng.standard_normal(60)
    obj = optim.linear_objective(X, y)
    rep = optim.critical_batch_scan(obj, [1, 4, 40], 1e-6 * 0.5 * float(y @ y),
                                    seeds=2)
    assert calls == {"max_eig": 1, "svd": 0}
    assert rep.mstar == max(1.0, rep.tr_h / rep.lambda_max_h)

    # a target at or above the starting loss fails before any eigensolve
    with pytest.raises(InvalidSpec, match="target not below"):
        optim.critical_batch_scan(obj, [1], 0.5 * float(y @ y), seeds=1)
    assert calls == {"max_eig": 1, "svd": 0}


def test_scan_unreachable_target_raises():
    X = np.diag([1.0, 0.01])
    obj = optim.linear_objective(X, np.array([1.0, 1.0]))
    with pytest.raises(TargetUnreachable):
        optim.critical_batch_scan(obj, [1], 1e-12, seeds=2, iter_cap=2)


def test_mlp_objective_gradient_spot_check():
    model = netmodels.init_mlp(2, 6, "tanh", seed=1)
    X = substream(11, "mlp-obj").standard_normal((5, 2))
    y = substream(12, "mlp-obj-y").standard_normal(5)
    obj = optim.mlp_objective(model, X, y)
    w = netmodels.flatten_params(model)
    g = optim._loss_grad(obj, w)[1]
    h = 1e-6
    for j in [0, 3, 7, g.size - 1]:
        e = np.zeros(g.size)
        e[j] = h
        fd = (optim._loss_grad(obj, w + e)[0] - optim._loss_grad(obj, w - e)[0]) / (2 * h)
        assert abs(g[j] - fd) <= 1e-6 * (1.0 + abs(fd))


def test_sgd_on_mlp_objective_descends():
    model = netmodels.init_mlp(1, 8, "tanh", seed=2)
    X = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
    y = np.sin(2.0 * X[:, 0])
    obj = optim.mlp_objective(model, X, y)
    w0 = netmodels.flatten_params(model)
    a = sgd(obj, w0, 0.05, batch=2, iters=120, seed=3, record_every=30)
    b = sgd(obj, w0, 0.05, batch=2, iters=120, seed=3, record_every=30)
    assert a.loss[-1] < a.loss[0]
    assert np.array_equal(a.loss, b.loss)
    tr = optim.gd(obj, w0, 0.05, 60, record_every=15)
    assert tr.loss[-1] < tr.loss[0]


def test_cross_entropy_objective_path():
    rng = substream(13, "ce-probe")
    X = rng.standard_normal((12, 30))
    y = np.sign(rng.standard_normal(12))
    obj = optim.linear_objective(X, y, loss="cross_entropy")

    w = rng.standard_normal(30) * 0.1
    want = sum(math.log1p(math.exp(-yi * fi))
               for yi, fi in zip(y, X @ w))
    loss, g = optim._loss_grad(obj, w)
    assert loss == pytest.approx(want, rel=1e-12)

    h = 1e-6
    for j in [0, 11, 29]:
        e = np.zeros(30)
        e[j] = h
        fd = (optim._loss_grad(obj, w + e)[0] - optim._loss_grad(obj, w - e)[0]) / (2 * h)
        assert abs(g[j] - fd) <= 1e-6 * (1.0 + abs(fd))

    lam_max, _ = _gram_extremes(X)
    tr = optim.gd(obj, np.zeros(30), 1.0 / lam_max, 100, record_every=10)
    assert np.all(np.diff(tr.loss) <= 0.0)


def test_validation_errors():
    X, y = _random_problem(1, 5, 4)
    obj = optim.linear_objective(X, y)
    with pytest.raises(DimensionMismatch):
        optim.linear_objective(X, y[:-1])
    with pytest.raises(InvalidSpec):
        optim.linear_objective(X, y, loss="hinge")
    with pytest.raises(DimensionMismatch):
        optim.gd(obj, np.zeros(3), 0.1, 5)
    with pytest.raises(InvalidSpec):
        optim.gd(obj, np.zeros(4), 0.0, 5)
    with pytest.raises(InvalidSpec):
        optim.gd(obj, np.zeros(4), 0.1, 5, record_every=0)
    with pytest.raises(InvalidSpec):
        optim.critical_batch_scan(obj, [1, 9], 1e-8, seeds=2)
    with pytest.raises(InvalidSpec):
        optim.critical_batch_scan(obj, [1], 1e6, seeds=2)
    for cap in (0, -1):
        with pytest.raises(InvalidSpec, match="iter_cap"):
            optim.critical_batch_scan(obj, [1], 1e-8, seeds=2, iter_cap=cap)
    with pytest.raises(TargetUnreachable, match="every feature is zero"):
        optim.critical_batch_scan(optim.linear_objective(np.zeros_like(X), y),
                                  [1], 1e-8, seeds=2)
    with pytest.raises(InvalidSpec, match="need at least one seed, got 0"):
        optim.critical_batch_scan(obj, [1], 1e-8, seeds=0)
    for target in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidSpec, match="target loss must be positive"):
            optim.critical_batch_scan(obj, [1], target, seeds=2)
    with pytest.raises(InvalidSpec, match="^every target is zero"):
        optim.critical_batch_scan(optim.linear_objective(X, np.zeros_like(y)),
                                  [1], 1e-8, seeds=2)
    with pytest.raises(InvalidSpec, match="every feature and target is zero"):
        optim.critical_batch_scan(optim.linear_objective(np.zeros_like(X),
                                                         np.zeros_like(y)),
                                  [1], 0.0, seeds=2)
    model = netmodels.init_mlp(4, 4, "tanh", seed=0)
    mobj = optim.mlp_objective(model, X, y)
    with pytest.raises(InvalidSpec):
        optim.critical_batch_scan(mobj, [1], 1e-8, seeds=2)


def test_scan_runs_the_full_batch_cell_once(monkeypatch):
    # the per-seed loop at m = n gives every seed the count the scan reports
    rng = substream(22, "probe-full-batch")
    n, d, seeds = 24, 40, 5
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d)
    obj = optim.linear_objective(X, y)
    target = 1e-10 * 0.5 * float(y @ y)
    batches, calls = optim._batches, []

    def counted(rng, n, m):
        calls.append(m)
        return batches(rng, n, m)

    monkeypatch.setattr(optim, "_batches", counted)
    rep = optim.critical_batch_scan(obj, [1, 4, n], target, seeds=seeds)
    assert calls.count(n) == 1 and calls.count(4) == seeds
    G = X @ X.T
    c = optim.scan_step_rule(n, n, float(np.einsum("ij,ij->i", X, X).max()),
                             numlin.max_eig(G))
    counts = []
    for s in range(seeds):
        r = -y.copy()
        for t, idx in enumerate(batches(substream(s, "batch-scan", n), n, n), start=1):
            r -= c * (r[idx] @ G[idx])
            if 0.5 * float(r @ r) <= target:
                break
        counts.append(t)
    assert counts == [rep.median_iters[-1]] * seeds
