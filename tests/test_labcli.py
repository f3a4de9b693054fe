"""Experiment-runner tests: config plumbing, per-command output schemas,
reproducibility, the process exit contract, and which commands load scipy."""

import dataclasses
import errno
import itertools
import math
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import interplab
from interplab import artifacts, datagen, direct, kernelmach, labcli, netmodels, numlin, optim
from interplab.errors import ConfigError, NoConvergence, NoCorruptedNeighbor
from interplab.rng import substream
from test_trace_targets import _workloads


def _cfg(name, params, seed=5):
    return labcli.experiment_config(name, params, seed, "/tmp/unused")


def _rows(csv_text):
    lines = [l for l in csv_text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


# --- config plumbing ---

def test_parse_config_text():
    text = """
    # a comment
    data.dim = 10
    noise.grid = 0.2, 0.5   # trailing comment
    name=bare
    """
    params = labcli.parse_config_text(text)
    assert params == {"data.dim": "10", "noise.grid": "0.2, 0.5",
                      "name": "bare"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        labcli.parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        labcli.parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        labcli.parse_config_text("= 3\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        labcli.load_config("/nonexistent/path.cfg")


def test_config_hash_is_order_free_and_value_sensitive():
    a = labcli.config_hash({"x": "1", "y": "2"})
    b = labcli.config_hash({"y": "2", "x": "1"})
    c = labcli.config_hash({"x": "1", "y": "3"})
    assert a == b
    assert a != c
    assert len(a) == 12


def test_experiment_config_version_gate():
    ok = labcli.experiment_config("simplex", {"version": "1"}, 0, "out")
    assert ok.name == "simplex"
    labcli.experiment_config("simplex", {}, 0, "out")   # absent key tolerated
    with pytest.raises(ConfigError):
        labcli.experiment_config("simplex", {"version": "9"}, 0, "out")
    with pytest.raises(ConfigError):
        labcli.experiment_config("warp-drive", {}, 0, "out")
    with pytest.raises(ConfigError):
        labcli.experiment_config("simplex", {"typo.key": "3"}, 0, "out")


def test_experiment_config_seed_has_one_value():
    # --seed overrides the config's seed in values too
    cfg = labcli.experiment_config("simplex", {"seed": "4"}, 9, "out")
    assert cfg.seed == cfg.values["seed"] == 9
    cfg = labcli.experiment_config("simplex", {"seed": "4"}, None, "out")
    assert cfg.seed == cfg.values["seed"] == 4


def test_bad_values_raise_config_error():
    with pytest.raises(ConfigError):
        labcli.run_simplex_blessing(_cfg("simplex", {"simplex.draws": "many"}))
    with pytest.raises(ConfigError):
        labcli.run_simplex_blessing(_cfg("simplex", {"simplex.dims": ",,"}))
    with pytest.raises(ConfigError):
        labcli.run_noise_interp(_cfg("noise-interp", {"data.family": "moons"}))


def _check_comment(csv_text, params, seed):
    first = csv_text.splitlines()[0]
    assert first == (f"# config_hash={labcli.config_hash(params)} "
                     f"seed={seed} version={labcli.FORMAT_VERSION}")


# --- simplex ---

def test_simplex_schema_and_accuracy():
    params = {"simplex.draws": "40000", "simplex.dims": "1,2,3"}
    arts = labcli.run_simplex_blessing(_cfg("simplex", params, seed=3))
    text = arts["simplex.csv"]
    _check_comment(text, params, 3)
    header, rows = _rows(text)
    assert header == ["d", "estimate", "stderr", "expected"]
    assert len(rows) == 3
    for row in rows:
        d, est, se, expect = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        assert expect == 2.0 ** -d
        assert se > 0.0
        assert abs(est - expect) <= 4.0 * se


def _numpy_blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; skips where not found."""
    calls = numlin._blas_thread_calls()
    if calls is None:
        pytest.skip("no thread-count setter found for numpy's OpenBLAS")
    return calls


def _main_at_one_and_two_blas_threads(tmp_path, command, params, seed):
    """The files ``labcli.main`` writes for ``command``, as {name: bytes},
    with numpy's OpenBLAS set to one thread, then to two."""
    get, set_ = _numpy_blas_threads()
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in params.items()))
    before, runs = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            out = tmp_path / f"threads-{threads}"
            assert labcli.main([command, "--config", str(cfg), "--seed", str(seed),
                                "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    finally:
        set_(before)
    return runs


# (command, params, seed) runs whose numpy BLAS calls are large enough to
# thread at two; main must write the same bytes at one thread and at two
_THREAD_CHECK_RUNS = [
    pytest.param("simplex", {}, 1, id="simplex"),
    # numpy's kernel-matrix GEMMs run threaded at two
    pytest.param("noise-interp", {"data.train_n": "400", "data.test_n": "400",
                                  "seeds.count": "2", "noise.grid": "0.2",
                                  "data.dim": "20"}, 5, id="noise-interp"),
    # at two numpy BLAS threads the complex Gram products round differently
    # from one, unless the command runs them at one
    pytest.param("double-descent", {"data.train_n": "300",
                                    "rff.grid": "150, 300, 450, 600",
                                    "rff.replicates": "2"}, 1, id="double-descent"),
    # the kernel GEMMs thread in numpy, the Cholesky solve in scipy
    pytest.param("raisin", {"data.train_n": "1000"}, 1, id="raisin"),
    pytest.param("loss-compare", {}, 1, id="loss-compare"),
    # the tangent kernel J J^T rounds differently at two numpy BLAS threads,
    # unless the command runs it at one
    pytest.param("loss-compare", {"model.kind": "mlp", "data.train_n": "300",
                                  "mlp.width": "64", "seeds.count": "2",
                                  "train.iters": "50"}, 1, id="loss-compare-mlp"),
    # at this draw numpy's eigvalsh gives lambda_max_h 70476.20274073446
    # with two threads and ...444 with one, unless the command runs it at one
    pytest.param("sgd-scaling", {"scan.n": "512", "scan.d": "1024",
                                 "scan.target_factor": "1e-2"}, 10, id="sgd-scaling"),
    pytest.param("linearity", {}, 1, id="linearity"),
    # so does this wide scan, unless the command runs at one
    pytest.param("linearity", {"lin.input_dim": "32", "lin.widths": "512, 2048",
                               "lin.wrap": "softplus"}, 1, id="linearity-wide"),
]


def test_thread_check_covers_every_command():
    # every command is checked at one and two threads, and no run is excused
    assert {p.values[0] for p in _THREAD_CHECK_RUNS} == set(labcli.COMMANDS)
    assert not any(p.marks for p in _THREAD_CHECK_RUNS)


@pytest.mark.parametrize("command, params, seed", _THREAD_CHECK_RUNS)
def test_main_thread_invariant(tmp_path, command, params, seed):
    one_thread, two_threads = _main_at_one_and_two_blas_threads(
        tmp_path, command, params, seed)
    assert one_thread == two_threads


def test_simplex_bytes_match_at_any_core_count(force_cores):
    # the dims split over the cores, one set of chunk buffers per thread
    params = {"simplex.draws": "200007", "simplex.dims": "1, 2, 3, 6, 10"}
    runs = {}
    for cores in (1, 2, 3):
        started = force_cores(cores)
        started.clear()
        runs[cores] = labcli.run_simplex_blessing(_cfg("simplex", params))
        assert len(started) == cores - 1
        assert not any(t.is_alive() for t in started)
    assert runs[1] == runs[2] == runs[3]


def test_simplex_reproducible_and_thread_invariant(tmp_path):
    params = {"simplex.draws": "5000"}
    one = labcli.run_simplex_blessing(_cfg("simplex", params))
    two = labcli.run_simplex_blessing(_cfg("simplex", params))
    assert one == two
    other_seed = labcli.run_simplex_blessing(_cfg("simplex", params, seed=6))
    assert other_seed != one
    one_thread, two_threads = _main_at_one_and_two_blas_threads(
        tmp_path, "simplex", params, 5)
    assert one_thread == two_threads


# --- noise interpolation ---

def test_noise_interp_schema_and_interpolation():
    params = {"data.train_n": "200", "data.test_n": "200",
              "seeds.count": "2", "noise.grid": "0,0.5", "data.dim": "5"}
    arts = labcli.run_noise_interp(_cfg("noise-interp", params, seed=2))
    header, rows = _rows(arts["noise-interp.csv"])
    assert header == ["q", "seed", "train_risk", "test_risk", "bayes_risk", "gap"]
    assert len(rows) == 4
    spec = datagen.TwoGaussians(separation=3.0, scale=1.0, dim=5, seed=0)
    for row in rows:
        q, train_risk = float(row[0]), float(row[2])
        test_risk, bayes, gap = float(row[3]), float(row[4]), float(row[5])
        assert train_risk == 0.0          # interpolation on the train set
        assert bayes == datagen.bayes_risk(spec, q)
        assert abs(gap - (test_risk - train_risk)) < 1e-15
    # rows ordered by (q, seed)
    assert [(float(r[0]), int(r[1])) for r in rows] == \
        [(0.0, 0), (0.0, 1), (0.5, 0), (0.5, 1)]


def _noise_interp_reference(cfg):
    """The per-cell loop: each (q, seed) cell corrupts the seed's shared
    draw and fits and predicts on its own kernel matrices."""
    values = cfg.values
    kspec = labcli._kernel_spec(values)
    rows = []
    for q in values["noise.grid"]:
        for s in range(values["seeds.count"]):
            train, test, family = labcli._train_test(
                cfg, labcli._subseed(cfg.seed, "ni", s),
                values["data.train_n"], values["data.test_n"])
            train_c = datagen.corrupt(train, datagen.CorruptionSpec(
                q=q, seed=labcli._subseed(cfg.seed, "ni-noise", q, s)))
            test_c = datagen.corrupt(test, datagen.CorruptionSpec(
                q=q, seed=labcli._subseed(cfg.seed, "ni-tnoise", q, s)))
            machine = kernelmach.fit_interpolating(kspec, train_c)
            train_risk = labcli._zero_one(
                kernelmach.kernel_predict(machine, train_c.X), train_c.y)
            test_risk = labcli._zero_one(
                kernelmach.kernel_predict(machine, test_c.X), test_c.y)
            rows.append((q, s, train_risk, test_risk, datagen.bayes_risk(family, q),
                         test_risk - train_risk))
    return labcli._csv(cfg, "q,seed,train_risk,test_risk,bayes_risk,gap", rows)


@pytest.mark.parametrize("params", [
    {"data.train_n": "120", "data.test_n": "150", "seeds.count": "3",
     "noise.grid": "0, 0.3, 0.3, 1", "data.dim": "4"},
    {"data.train_n": "90", "data.test_n": "60", "seeds.count": "2",
     "noise.grid": "0.5, 0.1", "data.dim": "6", "kernel.family": "gaussian",
     "kernel.bandwidth": "2.5"},
    {"data.train_n": "70", "data.test_n": "80", "seeds.count": "2",
     "noise.grid": "0.2, 0.8, 0.2", "data.family": "uniform_simplex",
     "data.dim": "3", "kernel.bandwidth": "0.5"},
])
def test_noise_interp_matches_per_cell_reference(params):
    # one fit per seed on the shared draw gives the rows of fitting every
    # cell on its own, a duplicated noise level included
    for seed in (3, 8):
        cfg = _cfg("noise-interp", params, seed=seed)
        text = labcli.run_noise_interp(cfg)["noise-interp.csv"]
        assert text == _noise_interp_reference(cfg)
        _header, rows = _rows(text)
        grid = [float(q) for q in params["noise.grid"].split(",")]
        assert [(float(r[0]), int(r[1])) for r in rows] == \
            [(q, s) for q in grid for s in range(int(params["seeds.count"]))]


def test_noise_interp_one_factorization_per_seed(monkeypatch):
    calls = {"kernel_matrix": 0, "fit_interpolating": 0, "solve_spd": 0}
    for module, name in ((kernelmach, "kernel_matrix"),
                         (kernelmach, "fit_interpolating"),
                         (kernelmach.numlin, "solve_spd")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    params = {"data.train_n": "60", "data.test_n": "40", "seeds.count": "3",
              "noise.grid": "0.1, 0.4, 0.4, 0.9", "data.dim": "3"}
    labcli.run_noise_interp(_cfg("noise-interp", params))
    # one train and one test kernel matrix per seed; jitter zero suffices
    assert calls == {"kernel_matrix": 6, "fit_interpolating": 3, "solve_spd": 3}


# --- double descent ---

def test_double_descent_threshold_and_schema():
    params = {"data.train_n": "40", "data.test_n": "80",
              "rff.grid": "10,20,40,80", "rff.replicates": "3"}
    arts = labcli.run_double_descent(_cfg("double-descent", params, seed=4))
    header, rows = _rows(arts["double-descent.csv"])
    assert header == ["m", "replicate", "train_mse", "test_mse", "test_01",
                      "coeff_norm", "threshold"]
    assert len(rows) == 12
    by_rep = {}
    for row in rows:
        by_rep.setdefault(int(row[1]), []).append(row)
    for rep, rrows in by_rep.items():
        thresholds = {int(r[6]) for r in rrows}
        assert len(thresholds) == 1       # constant within a replicate
        thr = thresholds.pop()
        small = [int(r[0]) for r in rrows if float(r[2]) <= 1e-6]
        assert thr == (min(small) if small else -1)

    sheader, srows = _rows(arts["double-descent-summary.csv"])
    assert sheader[0] == "m" and len(srows) == 4
    plot = arts["double-descent.gp"]
    assert "double-descent-summary.csv" in plot and "set arrow" in plot


def test_rff_sweep_config_certifies_every_gram_without_eigvalsh(monkeypatch):
    # the benchmark's rff-sweep config: every width's Gram passes the
    # Cholesky screen, so the eigensolver, the screen's fallback, never runs
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    sweeps = []
    sweep = kernelmach.double_descent_sweep

    def recorded(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(kernelmach, "double_descent_sweep", recorded)
    params = {"data.train_n": "300", "rff.grid": "150, 250, 300, 350, 600",
              "rff.replicates": "2"}
    labcli.run_double_descent(_cfg("double-descent", params, seed=1))
    assert calls == []
    assert sweeps[0].paths == (numlin.GRAM_PATH,) * 10
    # the count sees the fallback: a Gram the screen refuses reaches eigvalsh
    assert numlin._gram_solve(np.diag([1.0, 1e-12]), np.ones(2)) is None
    assert calls == [(2, 2)]


def _main_unwarned(tmp_path, capsys, command, params):
    """main's exit code and stderr for one run with every warning an error."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in params.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = labcli.main([command, "--config", str(cfg), "--seed", "1",
                            "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


def test_double_descent_overflowing_phases_exit_two(tmp_path, capsys):
    # the points are finite, but X freqs^T overflows
    code, err = _main_unwarned(tmp_path, capsys, "double-descent", {
        "data.train_n": "40", "data.test_n": "40", "rff.grid": "20, 40, 80",
        "data.scale": "5e307"})
    assert code == 2
    assert err.startswith("config error: ") and "data.scale" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["noise-interp", "raisin"])
def test_overflowing_kernel_matrix_exits_two(tmp_path, capsys, command):
    # the points are finite, but their squared norms overflow
    params = {"data.scale": "1e160", "data.train_n": "40"}
    if command == "noise-interp":
        params["data.test_n"] = "40"
    code, err = _main_unwarned(tmp_path, capsys, command, params)
    assert code == 2
    assert err.startswith("config error: kernel matrix would overflow") and "data.scale" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_overflowing_two_gaussians_exit_two(tmp_path, capsys):
    code, err = _main_unwarned(tmp_path, capsys, "double-descent", {
        "data.scale": "1e308", "data.separation": "1e308"})
    assert (code, err) == (2, "config error: dataset has non-finite entries\n")
    assert not (tmp_path / "o").exists()


# --- raisin search ---

def test_raisin_radius_bounded_by_corrupted_distance():
    params = {"data.train_n": "250", "query.count": "12",
              "random.trials": "8"}
    arts = labcli.run_raisin_search(_cfg("raisin", params, seed=9))
    header, rows = _rows(arts["raisin.csv"])
    assert header == ["query", "clean_pred", "dist_corrupt", "flip_radius",
                      "success", "random_flip_frac"]
    body = [r for r in rows if r[0] != "summary"]
    assert body, "no correctly-classified queries survived"
    for row in body:
        dist, radius, success = float(row[2]), float(row[3]), int(row[4])
        assert success == 1
        # the corrupted neighbor itself is interpolated, so the flip
        # happens at or before its distance
        assert radius <= dist + 1e-3
        assert 0.0 <= float(row[5]) <= 1.0
    summary = [r for r in rows if r[0] == "summary"]
    assert len(summary) == 1


def test_raisin_knn_model():
    params = {"data.train_n": "150", "query.count": "8",
              "model.kind": "knn", "random.trials": "4"}
    arts = labcli.run_raisin_search(_cfg("raisin", params, seed=1))
    _header, rows = _rows(arts["raisin.csv"])
    body = [r for r in rows if r[0] != "summary"]
    for row in body:
        if int(row[4]) == 1:
            assert float(row[3]) <= float(row[2]) + 1e-3


def test_direction_block_draws_like_successive_draws():
    # raisin draws a query's random directions as one (trials, d) block in
    # place of trials successive d-draws; both must take the same stream
    for trials, d in ((1, 1), (20, 2), (7, 20), (12, 784)):
        block = substream(4, "raisin-random").standard_normal((trials, d))
        rng = substream(4, "raisin-random")
        rows = np.array([rng.standard_normal(d) for _ in range(trials)])
        assert np.array_equal(block, rows)


@pytest.mark.parametrize("params", [
    {"data.train_n": "250", "query.count": "12", "random.trials": "16"},
    {"data.train_n": "200", "query.count": "10", "random.trials": "9",
     "kernel.family": "gaussian", "data.dim": "5", "kernel.bandwidth": "2"},
    {"data.train_n": "150", "query.count": "8", "random.trials": "6",
     "model.kind": "knn"},
])
def test_raisin_random_flips_match_per_direction_loop(params):
    # the per-direction loop, kept as the reference for the batched flips:
    # replay the random-direction stream over the rows that reached it,
    # drawing, normalizing and evaluating one direction at a time
    cfg = _cfg("raisin", params, seed=9)
    values = cfg.values
    _header, rows = _rows(labcli.run_raisin_search(cfg)["raisin.csv"])
    train, queries, _ = labcli._train_test(cfg, 0, values["data.train_n"],
                                           values["query.count"])
    corrupted = datagen.corrupt(train, datagen.CorruptionSpec(
        q=values["noise.q"], seed=labcli._subseed(cfg.seed, "raisin-noise")))
    if values["model.kind"] == "kernel":
        machine = kernelmach.fit_interpolating(labcli._kernel_spec(values), corrupted)
        evaluate = lambda p: kernelmach.kernel_predict(machine, p[None, :])[0]
    else:
        evaluate = lambda p: direct.nearest_neighbor_predict(corrupted, p[None, :])[0]
    rng = substream(cfg.seed, "raisin-random")
    trials = values["random.trials"]
    replayed = 0
    for row in rows[:-1]:
        if not math.isfinite(float(row[3])):
            continue
        x, pred, radius = queries.X[int(row[0])], float(row[1]), float(row[3])
        flips = 0
        for _ in range(trials):
            v = rng.standard_normal(x.size)
            v /= np.linalg.norm(v)
            flips += evaluate(x + radius * v) * pred < 0.0
        assert float(row[5]) == flips / trials, row
        replayed += 1
    assert replayed >= 5


def _raisin_per_query_rows(cfg):
    """raisin's rows from one query at a time: one single-row prediction
    per bracket or bisection step, the reference for the lockstep search."""
    values = cfg.values
    trials, tol = values["random.trials"], values["search.tol"]
    train, queries, _ = labcli._train_test(cfg, 0, values["data.train_n"],
                                           values["query.count"])
    corrupted = datagen.corrupt(train, datagen.CorruptionSpec(
        q=values["noise.q"], seed=labcli._subseed(cfg.seed, "raisin-noise")))
    flipped = corrupted.y != train.y
    if values["model.kind"] == "kernel":
        machine = kernelmach.fit_interpolating(labcli._kernel_spec(values), corrupted)
        predict = lambda P: kernelmach.kernel_predict(machine, P)
    else:
        predict = lambda P: direct.nearest_neighbor_predict(corrupted, P)
    evaluate = lambda x: float(predict(x[None, :])[0])

    def bisect_flip(base_sign, x, u, hi):
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if evaluate(x + mid * u) * base_sign < 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    rng = substream(cfg.seed, "raisin-random")
    rows = []
    for i in range(queries.n):
        x = queries.X[i]
        pred = 1.0 if evaluate(x) >= 0.0 else -1.0
        if pred != queries.y[i]:
            continue
        cand = np.where(flipped & (corrupted.y == -pred))[0]
        dists = np.linalg.norm(corrupted.X[cand] - x, axis=1)
        dist = float(dists.min())
        u = (corrupted.X[cand[np.argmin(dists)]] - x) / dist
        hi, cap = dist, 4.0 * dist
        while evaluate(x + hi * u) * pred >= 0.0 and hi < cap:
            hi *= 1.3
        if evaluate(x + hi * u) * pred >= 0.0:
            rows.append((i, pred, dist, math.inf, 0, math.nan))
            continue
        radius = bisect_flip(pred, x, u, hi)
        success = int(evaluate(x + radius * u) * pred < 0.0)
        V = rng.standard_normal((trials, x.size))
        for v in V:
            v /= np.linalg.norm(v)
        flips = int(np.count_nonzero(predict(x + radius * V) * pred < 0.0))
        rows.append((i, pred, dist, radius, success, flips / trials))
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("params", [
    {"data.train_n": "300", "query.count": "30", "random.trials": "8"},
    {"data.train_n": "200", "query.count": "20", "random.trials": "5",
     "kernel.family": "gaussian", "data.dim": "5", "kernel.bandwidth": "2"},
    {"data.train_n": "200", "query.count": "30", "random.trials": "6",
     "model.kind": "knn"},
])
def test_raisin_lockstep_search_matches_per_query_loop(params, seed):
    cfg = _cfg("raisin", params, seed=seed)
    _header, rows = _rows(labcli.run_raisin_search(cfg)["raisin.csv"])
    reference = _raisin_per_query_rows(cfg)
    assert [r for r in rows if r[0] != "summary"] == [
        [labcli._cell(v) for v in row] for row in reference]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_raisin_lockstep_unbracketed_rows_match_per_query_loop(monkeypatch, seed):
    # a plane wave in place of the fitted machine flips sign at distances
    # unrelated to the corrupted points: some queries bracket only after
    # hi grew past 1.3**4 * dist, others never within 4 * dist (radius inf)
    monkeypatch.setattr(kernelmach, "kernel_predict",
                        lambda machine, P: np.sin(P @ np.array([0.6, 0.8])))
    cfg = _cfg("raisin", {"data.train_n": "300", "query.count": "30",
                          "random.trials": "8"}, seed=seed)
    _header, rows = _rows(labcli.run_raisin_search(cfg)["raisin.csv"])
    reference = _raisin_per_query_rows(cfg)
    assert any(math.isinf(r[3]) for r in reference)
    assert any(r[3] > 1.3 ** 4 * r[2] for r in reference if math.isfinite(r[3]))
    assert [r for r in rows if r[0] != "summary"] == [
        [labcli._cell(v) for v in row] for row in reference]


def test_raisin_without_corruption_raises():
    params = {"data.train_n": "60", "noise.q": "0", "query.count": "4"}
    with pytest.raises(NoCorruptedNeighbor):
        labcli.run_raisin_search(_cfg("raisin", params))


def test_raisin_rejects_unknown_model():
    params = {"model.kind": "forest", "data.train_n": "60"}
    with pytest.raises(ConfigError):
        labcli.run_raisin_search(_cfg("raisin", params))


# --- loss comparison ---

def test_loss_compare_shared_init_and_train_accuracy():
    params = {"seeds.count": "3", "data.train_n": "60", "data.test_n": "200"}
    arts = labcli.run_loss_comparison(_cfg("loss-compare", params, seed=7))
    header, rows = _rows(arts["loss-compare.csv"])
    assert header == ["seed", "loss", "init_hash", "train_acc", "test_acc",
                      "margin_median"]
    assert len(rows) == 6
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row[0], []).append(row)
    for seed, pair in by_seed.items():
        assert len(pair) == 2
        assert pair[0][2] == pair[1][2]   # same start point, checked by hash
        assert {pair[0][1], pair[1][1]} == {"square", "cross_entropy"}
        for row in pair:
            assert float(row[3]) >= 0.95

    sheader, srows = _rows(arts["loss-compare-summary.csv"])
    assert sheader == ["loss", "test_acc_mean", "test_acc_se", "train_acc_mean"]
    assert [r[0] for r in srows] == ["square", "cross_entropy"]
    for row in srows:
        assert 0.5 <= float(row[1]) <= 1.0


def test_loss_compare_mlp_arm():
    params = {"seeds.count": "2", "data.train_n": "50", "data.test_n": "80",
              "model.kind": "mlp", "mlp.width": "10", "train.iters": "150"}
    arts = labcli.run_loss_comparison(_cfg("loss-compare", params, seed=3))
    _header, rows = _rows(arts["loss-compare.csv"])
    hashes = {r[0]: set() for r in rows}
    for row in rows:
        hashes[row[0]].add(row[2])
    for seed, hs in hashes.items():
        assert len(hs) == 1
    assert len(set(frozenset(h) for h in hashes.values())) == 2


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("scale", ["1e-170", "1e-160"])
def test_loss_compare_tiny_data_scale_is_a_config_error(tmp_path, capsys, kind, scale):
    # the kernel's top eigenvalue underflows: to 0 at 1e-170, where 1 / 0
    # has no value, and to a subnormal at 1e-160, whose reciprocal step is
    # inf and would turn every weight into nan
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("data.train_n = 4\ndata.test_n = 2\nseeds.count = 1\n"
                   f"data.separation = 0\ndata.scale = {scale}\nmodel.kind = {kind}\n")
    out = tmp_path / "o"
    code = labcli.main(["loss-compare", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: loss-compare needs a finite "
                                        "positive step 1/lambda_max")
    assert f"at data.scale = {float(scale)!r}" in err
    assert not out.exists()


def test_loss_compare_overflowing_linear_kernel_is_a_config_error(tmp_path):
    # X X^T overflows at this scale; the run must say so, and print no
    # RuntimeWarning on the way
    (tmp_path / "huge.cfg").write_text(
        "model.kind = linear\ndata.scale = 1e160\ndata.train_n = 4\n"
        "data.test_n = 2\nseeds.count = 1\ndata.separation = 0\n")
    proc = _fresh_python(tmp_path, "-m", "interplab", "loss-compare",
                         "--config", "huge.cfg", "--out", "out")
    assert proc.returncode == 2
    assert proc.stderr == ("config error: loss-compare's linear kernel overflows "
                           "at data.scale = 1e+160\n")
    assert not (tmp_path / "out").exists()


def test_loss_compare_gradient_norm_past_sqrt_float_max_exits_zero(tmp_path, capsys):
    # the gradient is finite but its squared norm overflows: the run must
    # finish without a RuntimeWarning
    cfg = tmp_path / "big.cfg"
    cfg.write_text("model.kind = linear\ndata.scale = 4.204639961228302e+153\n"
                   "data.train_n = 4\ndata.test_n = 2\nseeds.count = 1\n"
                   "data.separation = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = labcli.main(["loss-compare", "--config", str(cfg), "--seed", "0",
                            "--out", str(tmp_path / "o")])
    assert code == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_loss_compare_needs_one_iteration(tmp_path, capsys, iters):
    cfg = tmp_path / "iters.cfg"
    cfg.write_text(_TINY["loss-compare"].replace("train.iters = 5", f"train.iters = {iters}"))
    out = tmp_path / "o"
    code = labcli.main(["loss-compare", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"config error: train.iters must be at least 1, got {iters}\n"
    assert not out.exists()


# --- sgd scaling and linearity wrappers ---

def test_sgd_scaling_csv(monkeypatch):
    calls = []
    real_scan = optim.critical_batch_scan

    def recording_scan(*args, **kwargs):
        calls.append((args, kwargs))
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(optim, "critical_batch_scan", recording_scan)
    params = {"scan.n": "24", "scan.d": "48", "batch.grid": "1,2,8,24",
              "scan.seeds": "3"}
    arts = labcli.run_sgd_scaling(_cfg("sgd-scaling", params, seed=11))
    text = arts["sgd-scaling.csv"]
    _check_comment(text, params, 11)
    header, rows = _rows(text)
    assert header == ["m", "median_iters", "regime", "mstar_theory"]
    assert "set arrow" in arts["sgd-scaling.gp"]

    # every cell is its field of a scan run again on the same inputs
    (args, kwargs), = calls
    assert list(args[2]) == [1, 2, 8, 24] and args[4] == 3
    rep = real_scan(*args, **kwargs)
    stats = dict(f.split("=") for f in text.splitlines()[1][2:].split())
    assert list(stats) == ["tr_h", "lambda_max_h", "max_row_norm_sq",
                           "target_loss"]
    for key, value in stats.items():
        assert float(value) == getattr(rep, key)
    assert [int(r[0]) for r in rows] == list(rep.batch_grid)
    assert [float(r[1]) for r in rows] == list(rep.median_iters)
    assert [r[2] for r in rows] == list(rep.regimes)
    assert rows[0][2] == "linear"
    mstar = max(1.0, float(stats["tr_h"]) / float(stats["lambda_max_h"]))
    assert all(float(r[3]) == mstar == rep.mstar for r in rows)


def test_sgd_scaling_overflowing_gram_square_exits_zero(tmp_path, capsys):
    # a feature spiked by 1e200 overflows G G; the batch-1 screen must not
    # keep the scan from the target, nor warn
    cfg = tmp_path / "spike.cfg"
    cfg.write_text("scan.n = 16\nscan.d = 32\nscan.spike = 1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = labcli.main(["sgd-scaling", "--config", str(cfg), "--seed", "1",
                            "--out", str(tmp_path / "o")])
    assert code == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("spike", ["1e220", "1e250", "1e308"])
def test_sgd_scaling_overflowing_spike_is_a_config_error(tmp_path, capsys, spike):
    # 1e220 and 1e250 could overflow the first step's r[idx] @ G[idx];
    # at 1e308 y @ y overflows. Each is refused before a step, unwarned.
    cfg = tmp_path / "spike.cfg"
    cfg.write_text(f"scan.n = 16\nscan.d = 32\nscan.spike = {spike}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = labcli.main(["sgd-scaling", "--config", str(cfg), "--seed", "1",
                            "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: ") and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    # scan.d = 1 leaves only the spiked feature, and the default spike
    # (scan.d - 1) / 7 is zero, so every feature and target is zero
    ("scan.d = 1\n", "every feature and target is zero"),
    ("scan.d = 1\nscan.spike = 0\n", "every feature and target is zero"),
    ("scan.target_factor = 0\n", "the target loss must be positive, got 0"),
])
def test_sgd_scaling_zero_target_names_its_cause(tmp_path, capsys, settings, message):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("scan.n = 16\n" + settings)
    out = tmp_path / "o"
    code = labcli.main(["sgd-scaling", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: ") and message in err
    assert not out.exists()


def test_sgd_scaling_default_grid_follows_scan_n(tmp_path):
    # without batch.grid the scan keeps the default sizes below scan.n,
    # then scan.n itself
    cfg = tmp_path / "s.cfg"
    cfg.write_text("scan.n = 100\nscan.d = 8\nscan.seeds = 1\n"
                   "scan.target_factor = 1e-2\n")
    out = tmp_path / "o"
    assert labcli.main(["sgd-scaling", "--config", str(cfg), "--out", str(out)]) == 0
    _header, rows = _rows((out / "sgd-scaling.csv").read_text())
    assert [int(r[0]) for r in rows] == [1, 2, 4, 16, 32, 64, 100]


def _sgd_scaling_main(tmp_path, capsys, params, seed, name):
    """(exit code, stderr, CSV bytes or None) of labcli.main on sgd-scaling."""
    cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in params.items()))
    code = labcli.main(["sgd-scaling", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(out)])
    csv = out / "sgd-scaling.csv"
    return code, capsys.readouterr().err, csv.read_bytes() if csv.exists() else None


def test_sgd_scaling_bytes_match_at_any_core_count(tmp_path, capsys, force_cores):
    # the cells run on forked workers; each comes back with the count a
    # serial run gives it, on randomized small configs
    rng = np.random.default_rng(26)
    for case in range(4):
        n = int(rng.integers(6, 33))
        d = int(rng.choice([rng.integers(2, n // 2 + 1), rng.integers(2 * n, 3 * n)]))
        grid = sorted({int(m) for m in rng.integers(1, n + 1, size=int(rng.integers(1, 6)))})
        params = {"scan.n": n, "scan.d": d, "batch.grid": ", ".join(map(str, grid)),
                  "scan.seeds": int(rng.integers(1, 4)),
                  "scan.target_factor": f"{10.0 ** -rng.uniform(2, 6):.3g}"}
        seed = int(rng.integers(0, 2**32))
        # the full batch runs once; batch 1 is always scanned
        cells = sum(1 if m == n else params["scan.seeds"] for m in {1, *grid})
        runs = {}
        for cores in (1, 2, 3):
            started = force_cores(cores)
            started.clear()
            runs[cores] = _sgd_scaling_main(tmp_path, capsys, params, seed,
                                             f"{case}-{cores}")
            assert len(started.forked) == min(cores, cells) - 1, params
        assert runs[1][:2] == (0, ""), params
        assert runs[1] == runs[2] == runs[3], params


def test_sgd_scaling_unreachable_in_a_worker_exits_three(tmp_path, capsys, force_cores,
                                                          monkeypatch):
    # batch 4 meets the target within 1000 steps at every seed and batch 1
    # at none. The caller sleeps in each cell it takes, so the worker
    # takes the first batch-1 cell, the lowest failing one.
    params = {"scan.n": 16, "scan.d": 8, "batch.grid": "1, 4", "scan.seeds": 3,
              "scan.iter_cap": 1000}
    force_cores(1)
    code, serial, csv = _sgd_scaling_main(tmp_path, capsys, params, 1, "serial")
    assert code == 3 and csv is None
    assert serial.startswith("numerical failure: batch 1, seed 0: loss ")
    assert serial.endswith(" after 1000 steps\n")

    caller, log, real_substream = os.getpid(), tmp_path / "cells", optim.substream

    def logged_substream(seed, *key):
        if key[0] == "batch-scan":
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{key[1]} {seed} {os.getpid()}\n")
            if os.getpid() == caller:
                time.sleep(0.3)
        return real_substream(seed, *key)

    monkeypatch.setattr(optim, "substream", logged_substream)
    started = force_cores(2)
    started.clear()
    code, forked, csv = _sgd_scaling_main(tmp_path, capsys, params, 1, "forked")
    assert (code, forked, csv) == (3, serial, None)
    assert "Traceback" not in forked
    # where each cell ran first: once a cell fails, the caller reruns the
    # batch-1 cells to find the first failure in grid order
    ran = {}
    for m, s, pid in (line.split() for line in log.read_text().splitlines()):
        ran.setdefault((int(m), int(s)), int(pid))
    assert ran[1, 0] == started.forked[0]


@pytest.mark.parametrize("slow, first", [((), "batch 1, seed 0"),
                                          ((4, 8), "batch 4, seed 0")])
def test_sgd_scaling_names_the_first_failing_cell_in_grid_order(
        tmp_path, capsys, force_cores, monkeypatch, slow, first):
    # batch 1 runs last but leads the grid. With every cell failing, the
    # message names batch 1, as a loop over the grid would; with batch 1
    # passing and batches 4 and 8 held back by a tiny step, it names batch 4
    real_rule = optim.scan_step_rule
    monkeypatch.setattr(optim, "scan_step_rule",
                        lambda m, *a: real_rule(m, *a) * (1e-9 if m in slow else 1.0))
    params = {"scan.n": 16, "scan.d": 32, "batch.grid": "1, 2, 4, 8", "scan.seeds": 2,
              "scan.iter_cap": 3000 if slow else 3}
    for cores in (1, 2, 3):
        force_cores(cores)
        code, err, csv = _sgd_scaling_main(tmp_path, capsys, params, 1, f"{cores}")
        assert (code, csv) == (3, None)
        assert err.startswith(f"numerical failure: {first}: loss "), (cores, err)
        assert "Traceback" not in err


def test_linearity_csv_and_plot_range():
    params = {"lin.widths": "24,48,96", "lin.probes": "3", "lin.points": "3"}
    arts = labcli.run_linearity(_cfg("linearity", params, seed=2))
    header, rows = _rows(arts["linearity.csv"])
    assert header == ["m", "grad_norm", "hess_norm_max", "ntk_drift"]
    assert rows[-1][0] == "slope"
    assert len(rows) == 4
    # plot must stop before the slope footer row
    assert "every ::0::2" in arts["linearity.gp"]

    # every cell is its field of a scan run again on the same inputs
    rep = netmodels.linearity_scan(1, "tanh", "none", (24, 48, 96), ball_radius=1.0,
                                   probes=3, seed=labcli._subseed(2, "linearity"),
                                   kernel_points=3)
    assert [int(r[0]) for r in rows[:-1]] == list(rep.widths) == [24, 48, 96]
    assert [float(r[1]) for r in rows[:-1]] == list(rep.grad_norms)
    assert [float(r[2]) for r in rows[:-1]] == list(rep.hess_norms)
    assert [float(r[3]) for r in rows[:-1]] == list(rep.ntk_drifts)
    assert [float(c) for c in rows[-1][1:]] == [rep.grad_slope, rep.hess_slope,
                                                rep.drift_slope]


def test_linearity_small_widths_exit_zero(tmp_path):
    # width 2 at input dim 8: 16 parameters, an output Hessian of rank 2
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("lin.input_dim = 8\nlin.widths = 2, 4, 8, 16\nlin.probes = 8\n")
    for seed in ("7", "11"):
        assert labcli.main(["linearity", "--config", str(cfg), "--seed", seed,
                            "--out", str(tmp_path / seed)]) == 0


def test_linearity_reproducible_in_process():
    params = {"lin.widths": "16, 24, 32, 48, 64", "lin.probes": "24"}
    first = labcli.run_linearity(_cfg("linearity", params, seed=3))
    second = labcli.run_linearity(_cfg("linearity", params, seed=3))
    assert first["linearity.csv"] == second["linearity.csv"]


# --- command line ---

def test_main_end_to_end(tmp_path):
    cfg = tmp_path / "simplex.cfg"
    cfg.write_text("simplex.draws = 4000\nsimplex.dims = 1,2\nseed = 4\n")
    out = tmp_path / "out"
    rc = labcli.main(["simplex", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    first = (out / "simplex.csv").read_text()
    assert "seed=4" in first.splitlines()[0]

    rc = labcli.main(["simplex", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "simplex.csv").read_text() == first   # byte-identical rerun

    rc = labcli.main(["simplex", "--config", str(cfg), "--seed", "9",
                      "--out", str(out)])
    assert rc == 0
    assert (out / "simplex.csv").read_text() != first   # flag overrides config


@pytest.mark.parametrize("command", labcli.COMMANDS)
@pytest.mark.parametrize("code, error", [(0, None), (2, ConfigError("bad value")),
                                         (3, NoConvergence("stalled")),
                                         (None, RuntimeError("bug"))])
def test_main_holds_numpy_blas_to_one_thread(tmp_path, capsys, monkeypatch,
                                              command, code, error):
    get, set_ = _numpy_blas_threads()
    inside = []

    def runner(cfg):
        inside.append(get())
        if error is not None:
            raise error
        return {}

    monkeypatch.setitem(labcli.RUNNERS, command, runner)
    argv = [command, "--out", str(tmp_path / "o")]
    before = get()
    try:
        set_(2)
        if code is None:
            with pytest.raises(RuntimeError):
                labcli.main(argv)
        else:
            assert labcli.main(argv) == code
        assert inside == [1]
        assert get() == 2
    finally:
        set_(before)
    capsys.readouterr()


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("version = 9\n")
    assert labcli.main(["simplex", "--config", str(bad)]) == 2

    missing = labcli.main(["simplex", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 2

    capped = tmp_path / "capped.cfg"
    capped.write_text("scan.n = 16\nscan.d = 8\nscan.iter_cap = 3\n"
                      "batch.grid = 1,4\nscan.seeds = 2\n")
    out = tmp_path / "out3"
    assert labcli.main(["sgd-scaling", "--config", str(capped),
                        "--out", str(out)]) == 3

    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("simplex.draws = 100\nsimplex.dims = 1\n")
    out = tmp_path / "out0"
    assert labcli.main(["simplex", "--config", str(tiny), "--out", str(out),
                        "--threads", "0"]) == 2
    assert not out.exists()
    assert labcli.main(["simplex", "--config", str(tiny), "--out", str(out),
                        "--threads", "3"]) == 0

    # the config's seed is cast even when --seed overrides it
    bad_seed = tmp_path / "seed.cfg"
    bad_seed.write_text("simplex.draws = 100\nsimplex.dims = 1\nseed = abc\n")
    assert labcli.main(["simplex", "--config", str(bad_seed), "--seed", "1",
                        "--out", str(tmp_path / "o4")]) == 2
    assert not (tmp_path / "o4").exists()

    with pytest.raises(SystemExit) as exc:
        labcli.main(["warp-drive"])
    assert exc.value.code == 2


def test_main_rejects_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("seed = -1\n")
    out = tmp_path / "o"
    for argv in (["--seed", "-1"], ["--config", str(cfg)]):
        assert labcli.main(["simplex", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be non-negative")
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,setting", [
    ("simplex", "simplex.dims = 1,,2"),
    ("noise-interp", "noise.grid = 0.2, 0.8,"),
    ("linearity", "lin.widths = , 4, 8"),
])
def test_main_rejects_empty_list_items(tmp_path, capsys, command, setting):
    # a doubled, leading or trailing comma is a typo, not a shorter list
    key = setting.split("=")[0].strip()
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(_tiny_without(command, {key}) + setting + "\n")
    out = tmp_path / "o"
    assert labcli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key!r}: empty item"), err
    assert not out.exists()


def test_main_unwritable_out_exits_two(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("simplex.draws = 100\nsimplex.dims = 1\n")
    out = cfg / "out"                     # a path under a regular file
    assert labcli.main(["simplex", "--config", str(cfg),
                        "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {str(out)!r}")
    assert "Traceback" not in err


def _no_hard_links(monkeypatch):
    def link(src, dst, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted", src)

    monkeypatch.setattr(artifacts.os, "link", link)


@pytest.mark.parametrize("links", [True, False])
def test_directory_in_the_way_leaves_the_old_files(tmp_path, capsys, monkeypatch, links):
    # sgd-scaling.gp is a directory, which can be neither linked nor
    # copied to a backup: the CSV already replaced is put back with the
    # bytes of the earlier run, with hard links and without
    params = {"scan.n": 16, "scan.d": 8}
    code, _, old = _sgd_scaling_main(tmp_path, capsys, params, 1, "out")
    assert code == 0
    (tmp_path / "out" / "sgd-scaling.gp").unlink()
    (tmp_path / "out" / "sgd-scaling.gp").mkdir()
    if not links:
        _no_hard_links(monkeypatch)
    code, err, kept = _sgd_scaling_main(tmp_path, capsys, params, 2, "out")
    assert code == 2 and "Is a directory" in err
    assert kept == old
    assert sorted(os.listdir(tmp_path / "out")) == ["sgd-scaling.csv", "sgd-scaling.gp"]
    assert (tmp_path / "out" / "sgd-scaling.gp").is_dir()


@pytest.mark.parametrize("links", [True, False])
def test_failed_rename_puts_the_old_files_back(tmp_path, capsys, monkeypatch, links):
    # the second rename into place fails: the first file is put back, and
    # no target is missing at any rename
    params = {"scan.n": 16, "scan.d": 8}
    code, _, old_csv = _sgd_scaling_main(tmp_path, capsys, params, 1, "out")
    old_gp = (tmp_path / "out" / "sgd-scaling.gp").read_bytes()
    real_replace, missing = os.replace, []

    def failing_replace(src, dst):
        missing.extend(name for name in ("sgd-scaling.csv", "sgd-scaling.gp")
                       if not (tmp_path / "out" / name).exists())
        if src.endswith(".tmp") and dst.endswith("sgd-scaling.gp"):
            raise OSError(errno.EIO, "Input/output error", dst)
        return real_replace(src, dst)

    monkeypatch.setattr(artifacts.os, "replace", failing_replace)
    if not links:
        _no_hard_links(monkeypatch)
    code, err, csv = _sgd_scaling_main(tmp_path, capsys, params, 2, "out")
    assert code == 2 and "Input/output error" in err
    assert csv == old_csv
    assert (tmp_path / "out" / "sgd-scaling.gp").read_bytes() == old_gp
    assert sorted(os.listdir(tmp_path / "out")) == ["sgd-scaling.csv", "sgd-scaling.gp"]
    assert missing == []


@pytest.mark.parametrize("links", [True, False])
def test_rewrite_replaces_every_file_and_leaves_no_backup(tmp_path, capsys, monkeypatch,
                                                         links):
    params = {"scan.n": 16, "scan.d": 8}
    _sgd_scaling_main(tmp_path, capsys, params, 1, "out")
    fresh = _sgd_scaling_main(tmp_path, capsys, params, 2, "fresh")
    if not links:
        _no_hard_links(monkeypatch)
    again = _sgd_scaling_main(tmp_path, capsys, params, 2, "out")
    assert again == fresh and again[0] == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["sgd-scaling.csv", "sgd-scaling.gp"]
    assert ((tmp_path / "out" / "sgd-scaling.gp").read_bytes()
            == (tmp_path / "fresh" / "sgd-scaling.gp").read_bytes())


def test_failed_write_leaves_no_artifact(tmp_path, capsys, monkeypatch):
    # the second of linearity's two files fails to write: neither file, nor
    # any temporary, may be left behind
    real_open = open

    def failing_open(path, *args, **kwargs):
        if "linearity.gp" in os.path.basename(path):
            raise OSError(errno.ENOSPC, "No space left on device", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(artifacts, "open", failing_open, raising=False)
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("lin.widths = 4, 8\nlin.probes = 2\nlin.points = 2\n")
    out = tmp_path / "out"
    assert labcli.main(["linearity", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {str(out)!r}")
    assert captured.out == ""
    assert os.listdir(out) == []


def test_gaussian_raisin_on_dense_planar_data_exits_three(tmp_path, capsys):
    # a gaussian kernel on 1000 points in the plane is numerically singular:
    # no jitter rung certifies the fit, which is a numerical failure
    cfg = tmp_path / "r.cfg"
    cfg.write_text("kernel.family = gaussian\ndata.train_n = 1000\nnoise.q = 0.3\n")
    out = tmp_path / "o"
    assert labcli.main(["raisin", "--config", str(cfg), "--seed", "1",
                        "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: gaussian kernel, bandwidth 1, "
                          "n=1000: training residual ")
    assert "Traceback" not in err
    assert not out.exists()


# one small config per command; each runs in well under a second
_TINY = {
    "simplex": "simplex.draws = 200\nsimplex.dims = 1, 2\n",
    "noise-interp": "data.train_n = 30\ndata.test_n = 30\nseeds.count = 1\n"
                    "noise.grid = 0.2\ndata.dim = 3\n",
    "double-descent": "data.train_n = 20\ndata.test_n = 20\nrff.grid = 10, 30\n"
                      "rff.replicates = 1\n",
    "raisin": "data.train_n = 100\nquery.count = 3\nrandom.trials = 2\n",
    "loss-compare": "seeds.count = 1\ndata.train_n = 20\ndata.test_n = 20\n"
                    "train.iters = 5\nmodel.kind = mlp\nmlp.width = 4\n",
    "sgd-scaling": "scan.n = 16\nscan.d = 8\nbatch.grid = 1, 16\nscan.seeds = 1\n"
                   "scan.target_factor = 1e-2\n",
    "linearity": "lin.widths = 4, 8\nlin.probes = 2\nlin.points = 2\n",
}


_FAMILY_SPECIFIC = {key for keys in labcli.FAMILY_KEYS.values() for key in keys}


def _tiny_without(command, keys):
    """The tiny config of ``command`` without the given keys."""
    return "".join(line + "\n" for line in _TINY[command].splitlines()
                   if line.split("=")[0].strip() not in keys)


@pytest.mark.parametrize("command", labcli.COMMANDS)
def test_main_rejects_unknown_key_before_writing(tmp_path, capsys, command):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(_TINY[command] + "typo.key = 3\n")
    out = tmp_path / "o"
    assert labcli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: unknown config key(s) for {command}: 'typo.key'")
    assert not out.exists()


class _Reads(dict):
    """Config values that record every key looked up."""

    def __init__(self, values, seen):
        super().__init__(values)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_declared_keys_cover_every_key_read(tmp_path, monkeypatch):
    # every command runs once on synthetic data and once pointed at missing
    # idx files; a read of an undeclared key escapes main as a KeyError, and
    # every declared key is read by one of the two runs
    make = labcli.experiment_config
    read = set()

    def recording(*args):
        cfg = make(*args)
        assert set(cfg.values) == \
            set(labcli.CONFIG_KEYS[cfg.name]) | set(labcli.GLOBAL_KEYS)
        return dataclasses.replace(cfg, values=_Reads(cfg.values, read))

    monkeypatch.setattr(labcli, "experiment_config", recording)
    idx = ("data.family = idx\ndata.images = {0}/none\ndata.labels = {0}/none\n"
           "data.classes = 3, 8\n").format(tmp_path)
    for command in labcli.COMMANDS:
        read.clear()
        for extra, code in (("", 0), (idx, 2)):
            if extra and "data.family" not in labcli.CONFIG_KEYS[command]:
                continue
            cfg = tmp_path / f"{command}.cfg"
            tiny = _tiny_without(command, _FAMILY_SPECIFIC if extra else ())
            cfg.write_text(tiny + extra)
            assert labcli.main([command, "--config", str(cfg), "--seed", "1",
                                "--out", str(tmp_path / command)]) == code
        assert read == set(labcli.CONFIG_KEYS[command]), \
            (command, set(labcli.CONFIG_KEYS[command]) ^ read)


_FAMILY_VALUES = {"data.dim": "3", "data.separation": "2.5", "data.scale": "1.5",
                  "data.images": "{0}/none", "data.labels": "{0}/none",
                  "data.classes": "3, 8"}


@pytest.mark.parametrize("family", sorted(labcli.FAMILY_KEYS))
def test_data_family_reads_exactly_its_keys(tmp_path, capsys, monkeypatch, family):
    # each command reads every data key its family lists, and rejects the
    # other families' data keys before --out is created
    make = labcli.experiment_config
    read = set()

    def recording(*args):
        cfg = make(*args)
        return dataclasses.replace(cfg, values=_Reads(cfg.values, read))

    monkeypatch.setattr(labcli, "experiment_config", recording)
    own = set(labcli.FAMILY_KEYS[family])
    lines = [f"data.family = {family}"] + [
        f"{key} = {_FAMILY_VALUES[key].format(tmp_path)}" for key in sorted(own)]
    cfg, out = tmp_path / "f.cfg", tmp_path / "o"
    for command in labcli.COMMANDS:
        if "data.family" not in labcli.CONFIG_KEYS[command]:
            continue
        base = _tiny_without(command, _FAMILY_SPECIFIC) + "\n".join(lines) + "\n"
        read.clear()
        cfg.write_text(base)
        code = labcli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code == (2 if family == "idx" else 0), (command, capsys.readouterr())
        assert read & _FAMILY_SPECIFIC == own, command
        for key in sorted(_FAMILY_SPECIFIC - own):
            capsys.readouterr()
            cfg.write_text(base + f"{key} = {_FAMILY_VALUES[key].format(tmp_path)}\n")
            shutil.rmtree(out, ignore_errors=True)
            assert labcli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: config key(s) not read by data.family {family}: "
                f"{key!r}\n"), (command, key)
            assert not out.exists()


def _write_idx(path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    (path / "images").write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                                  + images.tobytes())
    (path / "labels").write_bytes(struct.pack(">II", 0x00000801, n)
                                  + np.asarray(labels, dtype=np.uint8).tobytes())


def test_main_idx_file_errors_exit_two(tmp_path, capsys):
    rng = np.random.default_rng(0)
    _write_idx(tmp_path, rng.integers(0, 256, size=(60, 4, 4)),
               np.arange(60) % 3)
    base = ("data.family = idx\ndata.images = {0}/images\n"
            "data.labels = {0}/labels\ndata.train_n = 20\ndata.test_n = 20\n"
            "rff.grid = 10, 30\nrff.replicates = 1\n").format(tmp_path)
    cfg = tmp_path / "dd.cfg"
    cfg.write_text(base + "data.classes = 1, 2\n")
    assert labcli.main(["double-descent", "--config", str(cfg),
                        "--out", str(tmp_path / "ok")]) == 0

    images = (tmp_path / "images").read_bytes()
    cases = {
        "magic": (b"\x00garbage", "data.classes = 1, 2\n"),
        "truncated": (images[:-5], "data.classes = 1, 2\n"),
        "absent-class": (images, "data.classes = 1, 7\n"),
    }
    for name, (payload, classes) in cases.items():
        (tmp_path / "images").write_bytes(payload)
        cfg.write_text(base + classes)
        out = tmp_path / name
        assert labcli.main(["double-descent", "--config", str(cfg),
                            "--out", str(out)]) == 2, name
        assert capsys.readouterr().err.startswith(
            "config error: cannot read idx data: "), name
        assert not out.exists()


def test_csv_formats_cells_by_type():
    cfg = _cfg("simplex", {"simplex.draws": "7"}, seed=3)
    floats = [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0,
              float(np.float64(np.pi) * 1e-7)]
    rows = [("label", 7, np.int64(-4), 2.5, np.float64(0.1), math.nan,
             math.inf, "")]
    rows += [(f"r{i}", i, np.int64(i), x, np.float64(x), -math.inf, x, "")
             for i, x in enumerate(floats)]
    text = labcli._csv(cfg, "name,i,j,x,y,u,v,blank", rows, "# one", "# two")
    lines = text.split("\n")
    _check_comment(text, {"simplex.draws": "7"}, 3)
    assert lines[1:4] == ["# one", "# two", "name,i,j,x,y,u,v,blank"]
    assert lines[4] == "label,7,-4,2.5,0.1,nan,inf,"
    assert lines[-1] == "" and len(lines) == 5 + len(floats) + 1
    for i, (line, x) in enumerate(zip(lines[5:-1], floats)):
        cells = line.split(",")
        assert cells[:3] == [f"r{i}", str(i), str(i)]
        for cell in (cells[3], cells[4], cells[6]):
            assert float(cell) == x
            assert math.copysign(1.0, float(cell)) == math.copysign(1.0, x)
        assert cells[5] == "-inf" and cells[7] == ""
    assert labcli._csv(cfg, "h", []) == lines[0] + "\nh\n"


# values tried for every declared key, and the cases among them that must be
# rejected as config errors, not hang, trace back or write a degenerate CSV
_FUZZ_VALUES = ("0", "-1", "nan", "1e400", "abc", ",")
_MUST_REJECT = {
    ("raisin", "search.tol", "0"), ("raisin", "search.tol", "-1"),
    ("raisin", "random.trials", "0"), ("raisin", "random.trials", "-1"),
    ("simplex", "simplex.dims", "-1"), ("linearity", "lin.input_dim", "-1"),
    ("sgd-scaling", "scan.d", "0"), ("sgd-scaling", "scan.d", "-1"),
    ("sgd-scaling", "scan.n", "-1"), ("sgd-scaling", "scan.target_factor", "nan"),
    ("linearity", "lin.points", "0"), ("linearity", "lin.points", "-1"),
    ("noise-interp", "seeds.count", "0"), ("loss-compare", "seeds.count", "0"),
    ("loss-compare", "seeds.count", "-1"), ("double-descent", "noise.q", "-1"),
    ("sgd-scaling", "scan.spike", "-1"), ("sgd-scaling", "scan.spike", "1e400"),
    ("raisin", "search.tol", "1e400"),
    ("sgd-scaling", "scan.iter_cap", "0"), ("sgd-scaling", "scan.iter_cap", "-1"),
    ("linearity", "lin.radius", "1e400"),
    ("noise-interp", "kernel.bandwidth", "1e400"),
    ("raisin", "kernel.bandwidth", "1e400"),
}


def _fuzz_case(tmp_path, capsys, command, settings, name):
    """Run command on its tiny config with settings overriding keys. A
    run exits 0, 2 or 3, writes nothing when it fails, and exits 2 with
    a config error when any one setting is in _MUST_REJECT."""
    base = [line for line in _TINY[command].splitlines()
            if line.split("=")[0].strip() not in settings]
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("\n".join(base + [f"{k} = {v}" for k, v in settings.items()]) + "\n")
    out = tmp_path / name
    code = labcli.main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    cases = [(command, k, v) for k, v in settings.items()]
    assert code in (0, 2, 3), cases
    if code:
        assert not out.exists(), cases
    if any(case in _MUST_REJECT for case in cases):
        assert code == 2 and err.startswith("config error: "), (cases, err)
    return code


@pytest.mark.parametrize("command", labcli.COMMANDS)
def test_config_fuzz_over_key_table(tmp_path, capsys, command):
    keys = list(labcli.GLOBAL_KEYS) + list(labcli.CONFIG_KEYS[command])
    accepted = {}
    for key in keys:
        accepted[key] = [value for i, value in enumerate(_FUZZ_VALUES)
                         if _fuzz_case(tmp_path, capsys, command, {key: value},
                                       f"{key}-{i}") == 0]

    # pairs of keys: the p-th pair tries each value of its first key against
    # the value p places further on for its second, so every shift is met,
    # and every pair of values that the two keys each accept alone
    nv = len(_FUZZ_VALUES)
    for p, (a, b) in enumerate(itertools.combinations(keys, 2)):
        shifted = [(v, _FUZZ_VALUES[(i + p) % nv]) for i, v in enumerate(_FUZZ_VALUES)]
        both = itertools.product(accepted[a], accepted[b])
        for i, (u, v) in enumerate(sorted(set(shifted).union(both))):
            _fuzz_case(tmp_path, capsys, command, {a: u, b: v}, f"{a}-{b}-{i}")

    # flags: each case is a config error or argparse's usage error, exit 2,
    # and writes nothing
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_TINY[command])
    big_seed = tmp_path / "seed.cfg"
    big_seed.write_text(_TINY[command] + f"seed = {2**64}\n")
    existing = tmp_path / "existing"
    existing.write_text("keep\n")
    cases = [["--config", str(cfg), "--seed", v] for v in ("-1", "abc", str(2**64))]
    cases += [["--config", str(cfg), "--threads", v] for v in ("0", "-1", "abc")]
    cases += [["--config", str(big_seed)]]
    for i, flags in enumerate(cases):
        out = tmp_path / f"flag-{i}"
        try:
            code = labcli.main([command, "--out", str(out)] + flags)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, (command, flags)
        assert err.startswith(("config error: ", "usage: ")), (flags, err)
        assert not out.exists(), flags
    assert labcli.main([command, "--config", str(cfg), "--out", str(existing)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write ")
    assert existing.read_text() == "keep\n"


def test_main_raisin_exit_two_without_corruption(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("noise.q = 0\ndata.train_n = 50\nquery.count = 3\n")
    assert labcli.main(["raisin", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2


def test_every_csv_carries_provenance_comment(tmp_path):
    params = {"simplex.draws": "2000", "simplex.dims": "1"}
    arts = labcli.run_simplex_blessing(_cfg("simplex", params, seed=8))
    for name, text in arts.items():
        if name.endswith(".csv"):
            assert text.startswith("# config_hash=")
            assert "seed=8" in text.splitlines()[0]


# --- start-up: scipy is imported only inside the functions that call it ---

def _fresh_python(tmp_path, *argv):
    """Run ``python argv`` in a new interpreter, which imports interplab from
    this tree; this test process loaded scipy long ago."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(interplab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def _main_source(command, text):
    """Source lines that run command on config text through labcli.main."""
    return (f"open('{command}.cfg', 'w').write({text!r})\n"
            f"code = labcli.main([{command!r}, '--config', '{command}.cfg', "
            f"'--out', 'out-{command}'])\n"
            f"assert code == 0, ({command!r}, code)\n")


def test_commands_without_scipy_never_load_it(tmp_path):
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import interplab\n"
            "from interplab import labcli\n"
            "print('import', scipy_modules())\n"
            + "".join(_main_source(c, _TINY[c])
                      for c in ("simplex", "double-descent", "linearity"))
            + "print('runs', scipy_modules())\n")
    proc = _fresh_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import []" and lines[-1] == "runs []"


# a run that reaches each lazy scipy import, so a broken import fails its run
_LAZY_SCIPY_SITES = {
    "numlin.solve_spd": _main_source("noise-interp", _TINY["noise-interp"]),
    "optim._batch_one_steps": _main_source("sgd-scaling", _TINY["sgd-scaling"]),
    "netmodels._softplus_d": _main_source(
        "linearity", _TINY["linearity"] + "lin.wrap = softplus\n"),
    # every loss-compare run takes a cross-entropy pass
    "optim._loss_grad": _main_source("loss-compare", _TINY["loss-compare"]),
}


@pytest.mark.parametrize("site", sorted(_LAZY_SCIPY_SITES))
def test_lazy_scipy_import_sites_run(tmp_path, site):
    proc = _fresh_python(tmp_path, "-c", "from interplab import labcli\n"
                               + _LAZY_SCIPY_SITES[site])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["noise-interp", "raisin"])
@pytest.mark.parametrize("bandwidth", ["1e200", "1e-200"])
def test_gaussian_bandwidth_out_of_range_exits_2(tmp_path, command, bandwidth):
    # 2 * bandwidth**2 overflows, or underflows to zero, in kernel_matrix
    (tmp_path / "run.cfg").write_text(
        _TINY[command] + f"kernel.family = gaussian\nkernel.bandwidth = {bandwidth}\n")
    proc = _fresh_python(tmp_path, "-m", "interplab", command,
                         "--config", "run.cfg", "--out", "out")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: gaussian bandwidth {float(bandwidth)} ")
    assert not (tmp_path / "out").exists()


# --- kernel fits: K(x, x) is exactly 1 ---

@pytest.mark.parametrize("command", ["noise-interp", "raisin"])
def test_laplace_identity_kernel_interpolates(tmp_path, capsys, command):
    # at bandwidth 1e-300 every off-diagonal laplace entry underflows to 0,
    # so K(X, X) is the identity, which interpolates any labels
    (tmp_path / "run.cfg").write_text(
        _tiny_without(command, {"data.train_n"})
        + "data.train_n = 200\nkernel.bandwidth = 1e-300\n")
    out = tmp_path / "out"
    assert labcli.main([command, "--config", str(tmp_path / "run.cfg"),
                        "--out", str(out)]) == 0, capsys.readouterr().err
    if command == "noise-interp":
        header, rows = _rows((out / "noise-interp.csv").read_text())
        col = header.index("train_risk")
        assert rows and all(float(r[col]) == 0.0 for r in rows)


def test_interp_risk_fits_need_no_jitter(tmp_path, capsys, monkeypatch):
    # a fit that needs a second Cholesky rung costs the benchmark's
    # interp-risk workload a second factorization of a 2000 x 2000 K
    workloads = _workloads()
    jitters = []

    def recorded(*args, _real=kernelmach.fit_interpolating, **kwargs):
        machine = _real(*args, **kwargs)
        jitters.append(machine.fit_jitter)
        return machine

    monkeypatch.setattr(kernelmach, "fit_interpolating", recorded)
    for inv in workloads.WORKLOADS["interp-risk"](1):
        if inv.command == "simplex":
            continue
        cfg = tmp_path / f"{inv.command}.cfg"
        cfg.write_text(workloads.config_text(inv.params))
        assert labcli.main([inv.command, "--config", str(cfg), "--seed", str(inv.seed),
                            "--out", str(tmp_path / inv.command)]) == 0
    capsys.readouterr()
    assert jitters == [0.0] * 3, jitters      # two noise-interp seeds, one raisin fit


def test_readme_documents_the_current_format():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        assert f"Format {labcli.FORMAT_VERSION}" in fh.read()
