"""End-to-end acceptance checks for the whole laboratory at desk scale.

Each test exercises one headline behavior across module boundaries with a
frozen seed set and prints a single PASS line with its runtime budget.
Tolerances are deliberately loose enough to be stable across BLAS builds
but tight enough that a wrong convention (loss scaling, batch scaling,
kernel sign) fails loudly.
"""

import math
import time

import numpy as np

from interplab import datagen, direct, kernelmach, labcli, numlin, optim
from interplab import netmodels as nm
from interplab.rng import substream

import oracles


def _done(label, t0, limit, detail):
    elapsed = time.time() - t0
    assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeded {limit}s budget"
    print(f"PASS {label}: {detail} ({elapsed:.1f}s < {limit}s)")


# 1. minority volume of the halved simplex

def test_simplex_blessing_monte_carlo():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3, 6, 10):
        est, se = direct.simplex_minority_volume(d, 1_000_000, seed=100 + d)
        sigmas = abs(est - 2.0 ** -d) / se
        worst = max(worst, sigmas)
        assert sigmas <= 3.0, f"d={d}: {sigmas:.2f} sigma off 2^-{d}"
    _done("simplex-blessing", t0, 60, f"max deviation {worst:.2f} sigma")


# 2. interpolating kernel machine tracks the noisy oracle risk

def test_noisy_interpolation_tracks_oracle_risk():
    t0 = time.time()
    params = {"data.dim": "20", "data.train_n": "2000", "data.test_n": "2000",
              "noise.grid": "0.2,0.5,0.8", "seeds.count": "10"}
    cfg = labcli.experiment_config("noise-interp", params, 42, "/tmp/unused")
    arts = labcli.run_noise_interp(cfg)
    lines = [l for l in arts["noise-interp.csv"].splitlines()
             if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        sel = [r for r in rows if float(r[0]) == q]
        assert len(sel) == 10
        risks = np.array([float(r[3]) for r in sel])
        bayes = float(sel[0][4])
        gaps = np.array([float(r[5]) for r in sel])
        dev = abs(float(risks.mean()) - bayes)
        worst = max(worst, dev)
        assert dev <= 0.05, f"q={q}: mean risk {risks.mean():.4f} vs {bayes:.4f}"
        assert float(gaps.mean()) >= q / 2 - 0.03
    _done("noise-interpolation", t0, 300, f"max |risk-oracle| {worst:.4f}")


# 3. feature-count sweep produces the double-descent signature

def test_double_descent_peak_and_norm_spike():
    t0 = time.time()
    train = datagen.sample(datagen.TwoGaussians(3.0, 1.0, 10, seed=11), 300)
    test = datagen.sample(datagen.TwoGaussians(3.0, 1.0, 10, seed=12), 2000)
    grid = [30, 60, 120, 180, 240, 270, 300, 330, 390, 480, 600, 900,
            1500, 2250, 3000]
    sweep = kernelmach.double_descent_sweep(train, test, grid, 10, seed=21)

    rows = {(int(m), int(r)): t01 for m, r, _tr, _te, t01, _nrm, _th in sweep.rows}
    wins = 0
    for rep, thr in enumerate(sweep.thresholds):
        thr = int(thr)
        assert thr > 0, f"replicate {rep} never interpolated"
        far = next((g for g in grid if g >= 10 * thr), grid[-1])
        wins += rows[(thr, rep)] > rows[(far, rep)]
    assert wins >= 8, f"risk peak beat the tail in only {wins}/10 replicates"

    peak = int(np.argmax(sweep.norm_mean))
    thr_idx = grid.index(int(np.median(sweep.thresholds)))
    assert abs(peak - thr_idx) <= 1, \
        f"norm peak at m={grid[peak]}, threshold at m={grid[thr_idx]}"
    nm_, ns_ = sweep.norm_mean, sweep.norm_se
    for i in range(peak, len(grid) - 1):
        assert nm_[i + 1] <= nm_[i] + ns_[i], \
            f"norm rose after the peak at m={grid[i + 1]}"
    _done("double-descent", t0, 600,
          f"{wins}/10 risk wins, norm peak at m={grid[peak]}")


# 4. gradient descent lands on the pseudoinverse solution

def test_min_norm_alignment_50_problems():
    t0 = time.time()
    worst_sol, worst_span = 0.0, 0.0
    for seed in range(50):
        rng = substream(seed, "accept-minnorm")
        X = rng.standard_normal((10, 30))
        y = rng.standard_normal(10)
        pinv = np.linalg.pinv(X, rcond=numlin.RANK_TOL)
        wstar = pinv @ y
        vals = np.linalg.eigh(X @ X.T)[0]
        step = 1.0 / float(vals[-1])
        rho = 1.0 - step * float(vals[0])
        span_scale = float(np.linalg.norm(wstar)) + 1.0
        iters = min(int(math.log(1e-8 / span_scale) / math.log(rho)) + 10,
                    200_000)

        w = optim.gd(X, y, np.zeros(30), step, iters)
        err = float(np.linalg.norm(w - wstar))
        worst_sol = max(worst_sol, err)
        assert err <= 1e-6, f"seed {seed}: |w - pinv solution| = {err:.2e}"

        v = rng.standard_normal(30)
        off = v - pinv @ (X @ v)      # component GD cannot touch
        w = optim.gd(X, y, off, step, iters)
        drift = float(np.linalg.norm(w - off - wstar))
        off_final = w - pinv @ (X @ w)
        span_err = float(np.linalg.norm(off_final - off))
        worst_span = max(worst_span, span_err)
        assert drift <= 1e-6
        assert span_err <= 1e-10, f"seed {seed}: off-span moved {span_err:.2e}"
    _done("min-norm-alignment", t0, 60,
          f"worst solution error {worst_sol:.1e}, off-span drift {worst_span:.1e}")


# 5. interpolation makes fixed-step SGD exponential; scarcity makes it stall

def test_sgd_exponential_vs_plateau():
    t0 = time.time()
    worst_r2 = 1.0
    for seed in range(5):
        rng = substream(seed, "probe-interp")
        X = rng.standard_normal((16, 64))
        w_true = rng.standard_normal(64)
        y = X @ w_true
        row = float(np.max(np.einsum("ij,ij->i", X, X)))
        lam = numlin.spectral_norm(X) ** 2
        step = optim.scan_step_rule(4, 16, row, lam) / 8.0
        iters, losses, _ = oracles.sgd(X, y, np.zeros(64), step, 4, 2000, seed=seed,
                                       record_every=25)
        rate, r2 = oracles.rate_fit(iters, losses, (200, 2000))
        worst_r2 = min(worst_r2, r2)
        assert rate < 0.0
        assert r2 >= 0.99, f"seed {seed}: log-loss fit R^2 = {r2:.4f}"

    ratios = []
    for seed in range(12):
        rng = substream(seed, "probe-under")
        X = rng.standard_normal((40, 20))
        y = X @ rng.standard_normal(20) + rng.standard_normal(40)
        wls = np.linalg.pinv(X, rcond=numlin.RANK_TOL) @ y
        floor = optim._loss_grad(X, y, wls)[0]
        row = float(np.max(np.einsum("ij,ij->i", X, X)))
        lam = numlin.spectral_norm(X) ** 2
        step = optim.scan_step_rule(1, 40, row, lam) * 1.75
        _, losses, _ = oracles.sgd(X, y, np.zeros(20), step, 1, 4000, seed=seed,
                                   record_every=100)
        ratios.append(float(np.median(losses[-10:])) / floor)
    plateau = min(ratios)
    assert plateau >= 1.5, f"noise floor only {plateau:.2f}x the optimum"
    _done("sgd-exponential-vs-plateau", t0, 120,
          f"min R^2 {worst_r2:.4f}, plateau {plateau:.2f}x")


# 6. batch-size scan splits at the predicted critical batch

def test_critical_batch_scaling_bands():
    t0 = time.time()
    n, d = 512, 1024
    rng = substream(17, "accept-scan")
    cov_sqrt = np.sqrt(np.concatenate([[(d - 1) / 7.0], np.ones(d - 1)]))
    X = rng.standard_normal((n, d)) * cov_sqrt
    y = X @ rng.standard_normal(d)
    target = 1e-8 * 0.5 * float(y @ y)
    grid = [1, 2, 4, 16, 32, 64, 128, 512]
    report = optim.critical_batch_scan(X, y, grid, target, seeds=5)

    assert abs(report.mstar - report.tr_h / report.lambda_max_h) <= 1e-12
    assert 5.0 < report.mstar < 10.0
    med = dict(zip(report.batch_grid, report.median_iters))
    lin_band = [m for m in grid if m <= report.mstar / 2]
    sat_band = [m for m in grid if m >= 4 * report.mstar]
    assert lin_band and sat_band
    worst_lin = max(m * med[m] / med[1] for m in lin_band)
    worst_sat = max(med[m] / med[grid[-1]] for m in sat_band)
    for m in lin_band:
        assert 0.5 <= m * med[m] / med[1] <= 2.0, \
            f"m={m}: work ratio {m * med[m] / med[1]:.2f} outside [0.5, 2]"
    for m in sat_band:
        assert med[m] / med[grid[-1]] <= 2.0, \
            f"m={m}: {med[m] / med[grid[-1]]:.2f}x the full-batch iterations"
    _done("critical-batch", t0, 600,
          f"m*={report.mstar:.2f}, linear band ratio {worst_lin:.2f}, "
          f"saturation ratio {worst_sat:.2f}")


# 7. curvature shrinks with width unless the output is re-nonlinearized

def test_transition_to_linearity_and_wrap():
    t0 = time.time()
    plain = nm.linearity_scan(
        1, "tanh", "none", [64, 128, 256, 512, 1024, 2048, 4096], probes=16, seed=1)
    assert -0.6 <= plain.hess_slope <= -0.4, \
        f"curvature decay slope {plain.hess_slope:.3f}"
    assert -0.1 <= plain.grad_slope <= 0.1, \
        f"gradient scale slope {plain.grad_slope:.3f}"

    wrapped = nm.linearity_scan(
        1, "tanh", "softplus", [64, 181, 512, 1448, 4096], probes=8, seed=1)
    assert -0.1 <= wrapped.hess_slope <= 0.1, \
        f"wrapped output should not decay, slope {wrapped.hess_slope:.3f}"

    # wrapped curvature = wrap' * plain curvature + wrap'' * grad outer product
    worst = 0.0
    for width, seed, x in ((20, 30, (0.7, -0.4)), (48, 31, (-1.1, 0.3))):
        model = nm.init_mlp(2, width, "tanh", seed=seed)
        wrap = nm.init_mlp(2, width, "tanh", seed=seed, output_wrap="softplus")
        w = nm.flatten_params(model)
        xv = np.array(x)
        s = nm.forward_batch(model, w, xv[None, :])[0]
        g = nm.grad(model, w, xv)
        H = oracles.hessian(model, w, xv)
        Hg = oracles.hessian(wrap, w, xv)
        sig = 1.0 / (1.0 + math.exp(-s))
        want = sig * H + sig * (1.0 - sig) * np.outer(g, g)
        rel = float(np.abs(Hg - want).max() / max(np.abs(Hg).max(), 1e-30))
        worst = max(worst, rel)
        assert rel <= 1e-6
    _done("transition-to-linearity", t0, 600,
          f"slopes {plain.hess_slope:.3f}/{plain.grad_slope:.3f}, "
          f"wrapped {wrapped.hess_slope:.3f}, split error {worst:.1e}")


# 8. per-step contraction certificate from the gradient-domination bound

def test_plstar_certificate_every_step():
    t0 = time.time()
    certified = 0
    for seed in range(10):
        rng = substream(seed, "accept-plstar")
        X = rng.standard_normal((12, 36))
        y = rng.standard_normal(12)
        vals = np.linalg.eigh(X @ X.T)[0]
        lam_max, mu = float(vals[-1]), float(vals[0])
        for frac in (1.0, 0.65):
            eta = frac / lam_max
            loss, plstar, _ = oracles.gd_path(X, y, np.zeros(36), eta, 300)
            factor = 1.0 - eta * mu
            # below ~eps^2 of the initial loss the squared residual is pure
            # rounding noise, so the certificate applies above that floor
            floor = 1e-24 * loss[0]
            live = loss[:-1] > floor
            assert int(live.sum()) >= 50, "loss hit the floor suspiciously fast"
            ok = loss[1:][live] <= factor * loss[:-1][live] * (1.0 + 1e-10)
            assert np.all(ok), f"seed {seed}, step {frac}/lam: bound broken"
            if not bool(live.all()):
                assert float(loss[-1]) <= floor   # stayed in the noise band
            ratios = plstar[:-1][live]
            assert np.all(ratios >= mu * (1.0 - 1e-9))
            certified += int(live.sum())
    _done("plstar-certificate", t0, 60,
          f"contraction held at all {certified} certified steps")


# 9. oracle cross-checks: finite differences, Penrose, residuals, 1-NN risk

def test_oracle_suites():
    t0 = time.time()
    # finite-difference gradients and curvature, plain and wrapped outputs
    for wrapname, seed in (("none", 5), ("softplus", 6)):
        model = nm.init_mlp(3, 10, "tanh", seed=seed, output_wrap=wrapname)
        w = nm.flatten_params(model)
        x = substream(seed, "accept-fd").standard_normal(3)
        g = nm.grad(model, w, x)
        h = 1e-6
        for j in range(0, w.size, max(1, w.size // 7)):
            e = np.zeros(w.size)
            e[j] = h
            fd = (nm.forward_batch(model, w + e, x[None, :])[0]
                  - nm.forward_batch(model, w - e, x[None, :])[0]) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * (1.0 + abs(fd))
        H = oracles.hessian(model, w, x)
        h = 1e-4
        scale = max(1.0, float(np.abs(H).max()))
        for j in range(0, w.size, max(1, w.size // 5)):
            e = np.zeros(w.size)
            e[j] = h
            fd_col = (nm.grad(model, w + e, x) - nm.grad(model, w - e, x)) / (2 * h)
            assert float(np.abs(H[:, j] - fd_col).max()) <= 1e-5 * scale

    # Penrose identities for the pseudoinverse
    shapes = ((8, 5), (5, 8), (9, 9))
    for i, shape in enumerate(shapes):
        rng = substream(i, "accept-penrose")
        A = rng.standard_normal(shape)
        if shape == (9, 9):
            u, s, vt = np.linalg.svd(A)
            s[5:] = 0.0                      # genuinely rank-deficient
            A = (u * s) @ vt
        P = np.linalg.pinv(A, rcond=numlin.RANK_TOL)
        scale = max(1.0, float(np.abs(A).max()), float(np.abs(P).max()))
        assert float(np.abs(A @ P @ A - A).max()) <= 1e-7 * scale
        assert float(np.abs(P @ A @ P - P).max()) <= 1e-7 * scale
        assert float(np.abs((A @ P).T - A @ P).max()) <= 1e-7 * scale
        assert float(np.abs((P @ A).T - P @ A).max()) <= 1e-7 * scale

    # exact interpolation residuals for both kernel families
    train = datagen.sample(datagen.TwoGaussians(3.0, 1.0, 5, seed=77), 300)
    for family in (kernelmach.LAPLACE, kernelmach.GAUSSIAN):
        machine = kernelmach.fit_interpolating(
            kernelmach.KernelSpec(family, 1.5), train)
        resid = kernelmach.kernel_predict(machine, train.X) - train.y
        assert float(np.abs(resid).max()) <= 1e-6

    # nearest neighbor obeys the classical factor-two risk bound
    spec = datagen.TwoGaussians(3.0, 1.0, 2, seed=0)
    big_train = datagen.sample(datagen.TwoGaussians(3.0, 1.0, 2, seed=301), 5000)
    big_test = datagen.sample(datagen.TwoGaussians(3.0, 1.0, 2, seed=302), 5000)
    preds = direct.nearest_neighbor_predict(big_train, big_test.X)
    risk = float(np.mean(preds != big_test.y))
    rstar = datagen.bayes_risk(spec, 0.0)
    assert risk <= 2.0 * rstar + 0.05, f"1-NN risk {risk:.4f}"
    _done("oracle-suites", t0, 300, f"1-NN risk {risk:.4f} <= {2 * rstar + 0.05:.4f}")


# 10. targeted flips shrink with data size and beat random directions

def test_raisin_radius_shrinks_with_data():
    t0 = time.time()
    decreases, targeted, random_rates = 0, [], []
    for seed in range(10):
        med = {}
        for n in (200, 2000):
            params = {"data.train_n": str(n), "noise.q": "0.2",
                      "query.count": "25", "random.trials": "12"}
            cfg = labcli.experiment_config("raisin", params, seed, "/tmp/unused")
            arts = labcli.run_raisin_search(cfg)
            lines = [l for l in arts["raisin.csv"].splitlines()
                     if not l.startswith("#")]
            body = [l.split(",") for l in lines[1:]
                    if not l.startswith("summary")]
            radii = [float(r[3]) for r in body if r[4] == "1"]
            assert radii, f"seed {seed} n={n}: no successful flips"
            med[n] = float(np.median(radii))
            targeted.append(float(np.mean([int(r[4]) for r in body])))
            random_rates.append(
                float(np.mean([float(r[5]) for r in body if r[4] == "1"])))
        decreases += med[2000] < med[200]
    assert decreases >= 8, f"radius shrank in only {decreases}/10 seeds"
    t_rate, r_rate = float(np.mean(targeted)), float(np.mean(random_rates))
    assert r_rate < t_rate, \
        f"random flips ({r_rate:.3f}) not rarer than targeted ({t_rate:.3f})"
    _done("raisin-search", t0, 300,
          f"{decreases}/10 radius decreases, targeted {t_rate:.2f} "
          f"vs random {r_rate:.2f}")
