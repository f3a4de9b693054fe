"""Experiment runner: every lab scenario behind one command-line tool.

Configs are flat ``key = value`` text with dotted prefixes (``data.dim = 10``).
Each experiment writes CSV files whose first line is a comment recording
the config hash, the seed, and the format version, so outputs are
self-describing and byte-identical across reruns. Plot scripts are plain
gnuplot text; the CSVs stay authoritative when no plotting tool exists.

Exit codes: 0 success; 2 for configuration problems (unparseable or
inconsistent config, bad values caught by module validation, data files
that cannot back the requested experiment); 3 for numerical failures
discovered mid-run (non-convergence, divergence, unreachable targets).
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import datagen, direct, kernelmach, netmodels, numlin, optim
from .errors import (
    ConfigError,
    InterpLabError,
    InvalidInput,
    InvalidSpec,
    NoAnalyticOracle,
    NoCorruptedNeighbor,
    NotClassification,
    NumericalError,
)
from .rng import substream

CONFIG_VERSION = "1"   # config files this build accepts
FORMAT_VERSION = "3"   # CSV bytes; bumped whenever a result moves
COMMANDS = ("noise-interp", "double-descent", "raisin", "loss-compare",
            "simplex", "sgd-scaling", "linearity")

_CONFIG_ERRORS = (ConfigError, InvalidInput, InvalidSpec, NotClassification,
                  NoAnalyticOracle, NoCorruptedNeighbor)


# --- config plumbing ---

def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; duplicates rejected."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def config_hash(params: dict) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(params.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    params: dict
    seed: int
    out_dir: str


def experiment_config(name: str, params: dict, seed: int,
                      out_dir: str) -> ExperimentConfig:
    version = params.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config version {version!r} not supported (this build speaks "
            f"{CONFIG_VERSION!r})")
    if name not in COMMANDS:
        raise ConfigError(f"unknown experiment {name!r}")
    unknown = sorted(set(params) - set(GLOBAL_KEYS) - set(CONFIG_KEYS[name]))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {name}: "
                          + ", ".join(map(repr, unknown)))
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return ExperimentConfig(name=name, params=dict(params), seed=int(seed),
                            out_dir=out_dir)


def _get(params, key, default=None, cast=str):
    if key not in params:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return cast(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _get_list(params, key, default, cast=float):
    raw = params.get(key)
    if raw is None:
        return list(default)
    try:
        items = [cast(tok) for tok in str(raw).split(",") if tok.strip()]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if not items:
        raise ConfigError(f"config key {key!r}: empty list")
    return items


def _subseed(seed: int, *tags) -> int:
    path = [repr(t) if isinstance(t, float) else t for t in tags]
    return int(substream(seed, "labcli", *path).integers(1 << 62))


def _comment(cfg: ExperimentConfig) -> str:
    return (f"# config_hash={config_hash(cfg.params)} seed={cfg.seed} "
            f"version={FORMAT_VERSION}")


def _fmt(value) -> str:
    return repr(float(value))


# --- data construction ---

def _family_spec(params, seed_tag_seed):
    family = _get(params, "data.family", "two_gaussians")
    if family == "two_gaussians":
        return datagen.TwoGaussians(
            separation=_get(params, "data.separation", 3.0, float),
            scale=_get(params, "data.scale", 1.0, float),
            dim=_get(params, "data.dim", 2, int),
            seed=seed_tag_seed)
    if family == "uniform_simplex":
        return datagen.UniformSimplex(dim=_get(params, "data.dim", 2, int),
                                      seed=seed_tag_seed)
    raise ConfigError(f"unsupported data.family {family!r}")


def _train_test(cfg: ExperimentConfig, cell: int, train_n: int, test_n: int,
                defaults: dict | None = None):
    """Fresh train/test draw for one experiment cell.

    Synthetic families resample per cell; IDX-backed data is fixed by the
    files, so only downstream randomness (corruption, queries) varies.
    ``defaults`` supplies per-experiment fallbacks for missing data keys.
    Returns (train, test, family_spec_or_None).
    """
    params = {**(defaults or {}), **cfg.params}
    if _get(params, "data.family", "two_gaussians") == "idx":
        classes = _get_list(params, "data.classes", None, int) \
            if "data.classes" in params else [0, 1]
        try:
            ds = datagen.load_idx(_get(params, "data.images"),
                                  _get(params, "data.labels"),
                                  classes, train_n + test_n)
        except OSError as exc:
            raise ConfigError(f"cannot read idx data: {exc}") from exc
        if ds.n < train_n + test_n:
            raise ConfigError(
                f"idx files hold only {ds.n} usable rows, need {train_n + test_n}")
        train = datagen.make_dataset(ds.X[:train_n], ds.y[:train_n], ds.task)
        test = datagen.make_dataset(ds.X[train_n:], ds.y[train_n:], ds.task)
        return train, test, None
    spec_train = _family_spec(params, _subseed(cfg.seed, "train", cell))
    spec_test = _family_spec(params, _subseed(cfg.seed, "test", cell))
    return (datagen.sample(spec_train, train_n),
            datagen.sample(spec_test, test_n), spec_train)


def _kernel_spec(params) -> kernelmach.KernelSpec:
    return kernelmach.KernelSpec(
        family=_get(params, "kernel.family", kernelmach.LAPLACE),
        bandwidth=_get(params, "kernel.bandwidth", 1.0, float))


def _zero_one(pred_values, labels) -> float:
    signs = np.where(np.asarray(pred_values) >= 0.0, 1.0, -1.0)
    return float(np.mean(signs != np.asarray(labels)))


# --- experiments ---

def run_simplex_blessing(cfg: ExperimentConfig) -> dict:
    dims = _get_list(cfg.params, "simplex.dims", (1, 2, 3, 6, 10), int)
    draws = _get(cfg.params, "simplex.draws", 1_000_000, int)

    def cell(d):
        est, se = direct.simplex_minority_volume(
            d, draws, _subseed(cfg.seed, "simplex", d))
        return d, est, se

    rows = [cell(d) for d in dims]
    lines = [_comment(cfg), "d,estimate,stderr,expected"]
    for d, est, se in rows:
        lines.append(f"{d},{_fmt(est)},{_fmt(se)},{_fmt(2.0 ** -d)}")
    return {"simplex.csv": "\n".join(lines) + "\n"}


def run_noise_interp(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    q_grid = _get_list(params, "noise.grid", (0.0, 0.2, 0.5, 0.8), float)
    n_seeds = _get(params, "seeds.count", 10, int)
    train_n = _get(params, "data.train_n", 2000, int)
    test_n = _get(params, "data.test_n", 2000, int)
    kspec = _kernel_spec(params)

    def cell(job):
        q, s = job
        train, test, family = _train_test(cfg, _subseed(cfg.seed, "ni", q, s),
                                          train_n, test_n,
                                          defaults={"data.dim": "20"})
        if family is None:
            raise NoAnalyticOracle(
                "noise-interp needs a family with a closed-form risk")
        bayes = datagen.bayes_risk(family, q)
        spec = datagen.CorruptionSpec(q=q, seed=_subseed(cfg.seed, "ni-noise", q, s))
        test_spec = datagen.CorruptionSpec(q=q,
                                           seed=_subseed(cfg.seed, "ni-tnoise", q, s))
        train_c = datagen.corrupt(train, spec)
        test_c = datagen.corrupt(test, test_spec)
        machine = kernelmach.fit_interpolating(kspec, train_c)
        train_risk = _zero_one(kernelmach.kernel_predict(machine, train_c.X),
                               train_c.y)
        test_risk = _zero_one(kernelmach.kernel_predict(machine, test_c.X),
                              test_c.y)
        return q, s, train_risk, test_risk, bayes, test_risk - train_risk

    jobs = [(q, s) for q in q_grid for s in range(n_seeds)]
    rows = [cell(job) for job in jobs]
    lines = [_comment(cfg), "q,seed,train_risk,test_risk,bayes_risk,gap"]
    for q, s, tr, te, by, gap in rows:
        lines.append(f"{_fmt(q)},{s},{_fmt(tr)},{_fmt(te)},{_fmt(by)},{_fmt(gap)}")
    return {"noise-interp.csv": "\n".join(lines) + "\n"}


_DD_GRID = (30, 60, 120, 180, 240, 270, 300, 330, 390, 480, 600, 900,
            1500, 2400, 3000)


def run_double_descent(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    train_n = _get(params, "data.train_n", 300, int)
    test_n = _get(params, "data.test_n", 2000, int)
    grid = _get_list(params, "rff.grid", _DD_GRID, int)
    replicates = _get(params, "rff.replicates", 10, int)
    q = _get(params, "noise.q", 0.0, float)

    train, test, _ = _train_test(cfg, 0, train_n, test_n,
                                 defaults={"data.dim": "10"})
    if q > 0.0:
        train = datagen.corrupt(
            train, datagen.CorruptionSpec(q=q, seed=_subseed(cfg.seed, "dd-noise")))
    sweep = kernelmach.double_descent_sweep(train, test, grid, replicates,
                                            seed=_subseed(cfg.seed, "dd"))

    lines = [_comment(cfg),
             "m,replicate,train_mse,test_mse,test_01,coeff_norm,threshold"]
    for m, rep, tr, te, t01, nrm, thr in sweep.rows:
        lines.append(f"{int(m)},{int(rep)},{_fmt(tr)},{_fmt(te)},{_fmt(t01)},"
                     f"{_fmt(nrm)},{int(thr)}")
    csv_rows = "\n".join(lines) + "\n"

    lines = [_comment(cfg),
             "m,train_mean,test_mse_mean,test_mse_se,test_01_mean,test_01_se,"
             "norm_mean,norm_se"]
    for i, m in enumerate(sweep.m_grid):
        lines.append(
            f"{int(m)},{_fmt(sweep.train_mean[i])},{_fmt(sweep.test_mse_mean[i])},"
            f"{_fmt(sweep.test_mse_se[i])},{_fmt(sweep.test_01_mean[i])},"
            f"{_fmt(sweep.test_01_se[i])},{_fmt(sweep.norm_mean[i])},"
            f"{_fmt(sweep.norm_se[i])}")
    csv_summary = "\n".join(lines) + "\n"

    reached = sweep.thresholds[sweep.thresholds > 0]
    marker = float(np.median(reached)) if reached.size else float(train_n)
    plot = "\n".join([
        "set datafile separator \",\"",
        "set key autotitle columnhead",
        "set logscale x",
        "set xlabel \"feature count m\"",
        "set arrow from {0},graph 0 to {0},graph 1 nohead dashtype 2".format(
            _fmt(marker)),
        "set multiplot layout 2,1",
        "set ylabel \"test 0-1 risk\"",
        "plot \"double-descent-summary.csv\" using 1:5 with linespoints",
        "set ylabel \"coefficient norm\"",
        "set logscale y",
        "plot \"double-descent-summary.csv\" using 1:7 with linespoints",
        "unset multiplot",
    ]) + "\n"
    return {"double-descent.csv": csv_rows,
            "double-descent-summary.csv": csv_summary,
            "double-descent.gp": plot}


@dataclass(frozen=True)
class RaisinReport:
    """Per-query targeted-perturbation search results."""

    rows: tuple              # (query, clean_pred, dist_corrupt, radius, success, random_frac)
    median_radius: float
    success_rate: float
    random_flip_rate: float


def _bisect_flip(evaluate, base_sign, x, u, hi, tol):
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if evaluate(x + mid * u) * base_sign < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def run_raisin_search(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    train_n = _get(params, "data.train_n", 500, int)
    q = _get(params, "noise.q", 0.2, float)
    n_query = _get(params, "query.count", 40, int)
    trials = _get(params, "random.trials", 20, int)
    tol = _get(params, "search.tol", 1e-4, float)
    kind = _get(params, "model.kind", "kernel")

    train, queries, _ = _train_test(cfg, 0, train_n, n_query)
    corrupted = datagen.corrupt(
        train, datagen.CorruptionSpec(q=q, seed=_subseed(cfg.seed, "raisin-noise")))
    flipped = corrupted.y != train.y
    if not np.any(flipped):
        raise NoCorruptedNeighbor(
            f"corruption q={q} flipped no labels in {train_n} points")

    if kind == "kernel":
        machine = kernelmach.fit_interpolating(_kernel_spec(params), corrupted)

        def evaluate(x):
            return float(kernelmach.kernel_predict(machine, x[None, :])[0])
    elif kind == "knn":
        predictor = direct.make_neighbor_predictor(corrupted, k=1)

        def evaluate(x):
            return float(direct.knn_predict(predictor, x))
    else:
        raise ConfigError(f"model.kind must be kernel or knn, got {kind!r}")

    rng = substream(cfg.seed, "raisin-random")
    rows = []
    for i in range(queries.n):
        x = queries.X[i]
        value = evaluate(x)
        pred = 1.0 if value >= 0.0 else -1.0
        if pred != queries.y[i]:
            continue                      # only correctly-classified queries
        opposing = flipped & (corrupted.y == -pred)
        if not np.any(opposing):
            raise NoCorruptedNeighbor(
                "no corrupted training point opposes the query prediction")
        cand = np.where(opposing)[0]
        dists = np.linalg.norm(corrupted.X[cand] - x, axis=1)
        target = cand[np.argmin(dists)]
        dist = float(dists.min())
        u = (corrupted.X[target] - x) / dist

        hi, cap = dist, 4.0 * dist
        while evaluate(x + hi * u) * pred >= 0.0 and hi < cap:
            hi *= 1.3
        if evaluate(x + hi * u) * pred >= 0.0:
            rows.append((i, pred, dist, math.inf, 0, math.nan))
            continue
        radius = _bisect_flip(evaluate, pred, x, u, hi, tol)
        success = int(evaluate(x + radius * u) * pred < 0.0)

        flips = 0
        for _ in range(trials):
            v = rng.standard_normal(x.size)
            v /= np.linalg.norm(v)
            if evaluate(x + radius * v) * pred < 0.0:
                flips += 1
        rows.append((i, pred, dist, radius, success, flips / trials))

    finite = [r[3] for r in rows if math.isfinite(r[3])]
    succ = [r[4] for r in rows]
    rand = [r[5] for r in rows if not math.isnan(r[5])]
    report = RaisinReport(
        rows=tuple(rows),
        median_radius=float(np.median(finite)) if finite else math.inf,
        success_rate=float(np.mean(succ)) if succ else 0.0,
        random_flip_rate=float(np.mean(rand)) if rand else 0.0)

    lines = [_comment(cfg),
             "query,clean_pred,dist_corrupt,flip_radius,success,random_flip_frac"]
    for i, pred, dist, radius, success, frac in report.rows:
        lines.append(f"{i},{_fmt(pred)},{_fmt(dist)},{_fmt(radius)},{success},"
                     f"{_fmt(frac)}")
    lines.append(f"summary,{_fmt(report.success_rate)},{_fmt(report.median_radius)},"
                 f"{_fmt(report.random_flip_rate)},,")
    return {"raisin.csv": "\n".join(lines) + "\n"}


def run_loss_comparison(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    train_n = _get(params, "data.train_n", 80, int)
    test_n = _get(params, "data.test_n", 400, int)
    n_seeds = _get(params, "seeds.count", 10, int)
    iters = _get(params, "train.iters", 400, int)
    kind = _get(params, "model.kind", "linear")
    width = _get(params, "mlp.width", 16, int)

    def cell(s):
        train, test, _ = _train_test(cfg, _subseed(cfg.seed, "lc", s),
                                     train_n, test_n,
                                     defaults={"data.separation": "5.0"})
        if kind == "linear":
            w0 = np.zeros(train.dim)
            make = lambda loss: optim.linear_objective(train.X, train.y, loss=loss)
            K = train.X @ train.X.T
        elif kind == "mlp":
            model = netmodels.init_mlp((train.dim, width), "tanh",
                                       seed=_subseed(cfg.seed, "lc-init", s))
            w0 = netmodels.flatten_params(model)
            make = lambda loss: optim.mlp_objective(model, train.X, train.y,
                                                    loss=loss)
            K = netmodels.tangent_kernel(model, None, train.X)
        else:
            raise ConfigError(f"model.kind must be linear or mlp, got {kind!r}")
        vals, _vecs = numlin.sym_eig(0.5 * (K + K.T))
        step = 1.0 / float(vals[0])
        init_hash = hashlib.sha256(w0.tobytes()).hexdigest()[:12]

        out = []
        for loss in (optim.SQUARE, optim.CROSS_ENTROPY):
            obj = make(loss)
            trace = optim.gd(obj, w0, step, iters, record_every=iters)
            w = trace.final_w
            if kind == "linear":
                f_train, f_test = train.X @ w, test.X @ w
            else:
                f_train = netmodels.forward_batch(model, w, train.X)
                f_test = netmodels.forward_batch(model, w, test.X)
            out.append((s, loss, init_hash,
                        1.0 - _zero_one(f_train, train.y),
                        1.0 - _zero_one(f_test, test.y),
                        float(np.median(train.y * f_train))))
        return out

    cells = [cell(s) for s in range(n_seeds)]
    lines = [_comment(cfg),
             "seed,loss,init_hash,train_acc,test_acc,margin_median"]
    for pair in cells:
        for s, loss, ih, tra, tea, mm in pair:
            lines.append(f"{s},{loss},{ih},{_fmt(tra)},{_fmt(tea)},{_fmt(mm)}")
    csv_rows = "\n".join(lines) + "\n"

    lines = [_comment(cfg), "loss,test_acc_mean,test_acc_se,train_acc_mean"]
    for loss in (optim.SQUARE, optim.CROSS_ENTROPY):
        accs = np.array([row[4] for pair in cells for row in pair
                         if row[1] == loss])
        tras = np.array([row[3] for pair in cells for row in pair
                         if row[1] == loss])
        se = float(accs.std(ddof=1) / math.sqrt(accs.size)) if accs.size > 1 else 0.0
        lines.append(f"{loss},{_fmt(accs.mean())},{_fmt(se)},{_fmt(tras.mean())}")
    return {"loss-compare.csv": csv_rows,
            "loss-compare-summary.csv": "\n".join(lines) + "\n"}


def run_sgd_scaling(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    n = _get(params, "scan.n", 512, int)
    d = _get(params, "scan.d", 1024, int)
    spike = _get(params, "scan.spike", (d - 1) / 7.0, float)
    grid = _get_list(params, "batch.grid", (1, 2, 4, 16, 32, 64, 128, n), int)
    factor = _get(params, "scan.target_factor", 1e-8, float)
    seeds = _get(params, "scan.seeds", 5, int)
    cap = _get(params, "scan.iter_cap", optim.DEFAULT_ITER_CAP, int)

    rng = substream(cfg.seed, "labcli", "scan-data")
    cov_sqrt = np.sqrt(np.concatenate([[spike], np.ones(d - 1)]))
    X = rng.standard_normal((n, d)) * cov_sqrt
    y = X @ rng.standard_normal(d)
    obj = optim.linear_objective(X, y)
    target = factor * 0.5 * float(y @ y)
    report = optim.critical_batch_scan(obj, grid, target, seeds, iter_cap=cap)

    body = optim.batch_report_csv(report)
    stats = (f"# tr_h={_fmt(report.tr_h)} lambda_max_h={_fmt(report.lambda_max_h)} "
             f"max_row_norm_sq={_fmt(report.max_row_norm_sq)} "
             f"target_loss={_fmt(report.target_loss)}")
    csv_text = "\n".join([_comment(cfg), stats, body.rstrip("\n")]) + "\n"
    plot = "\n".join([
        "set datafile separator \",\"",
        "set key autotitle columnhead",
        "set logscale xy",
        "set xlabel \"batch size m\"",
        "set ylabel \"median iterations to target\"",
        "set arrow from {0},graph 0 to {0},graph 1 nohead dashtype 2".format(
            _fmt(report.mstar)),
        "plot \"sgd-scaling.csv\" using 1:2 with linespoints",
    ]) + "\n"
    return {"sgd-scaling.csv": csv_text, "sgd-scaling.gp": plot}


_LIN_WIDTHS = (64, 91, 128, 181, 256, 362, 512, 724, 1024, 1448, 2048,
               2896, 4096)


def run_linearity(cfg: ExperimentConfig) -> dict:
    params = cfg.params
    widths = _get_list(params, "lin.widths", _LIN_WIDTHS, int)
    probes = _get(params, "lin.probes", 32, int)
    radius = _get(params, "lin.radius", 1.0, float)
    points = _get(params, "lin.points", 8, int)
    wrap = _get(params, "lin.wrap", "none")
    activation = _get(params, "lin.activation", "tanh")
    input_dim = _get(params, "lin.input_dim", 1, int)

    template = netmodels.ArchTemplate(input_dim=input_dim, activation=activation,
                                      output_wrap=wrap)
    report = netmodels.linearity_scan(template, widths, ball_radius=radius,
                                      probes=probes,
                                      seed=_subseed(cfg.seed, "linearity"),
                                      kernel_points=points)
    body = netmodels.linearity_report_csv(report)
    csv_text = _comment(cfg) + "\n" + body
    n_rows = len(report.widths)
    plot = "\n".join([
        "set datafile separator \",\"",
        "set key autotitle columnhead",
        "set logscale xy",
        "set xlabel \"width m\"",
        "set ylabel \"max-ball hessian norm / gradient norm\"",
        f"plot \"linearity.csv\" every ::0::{n_rows - 1} using 1:3 "
        f"with linespoints, \"\" every ::0::{n_rows - 1} using 1:2 "
        "with linespoints",
    ]) + "\n"
    return {"linearity.csv": csv_text, "linearity.gp": plot}


RUNNERS = {
    "simplex": run_simplex_blessing,
    "noise-interp": run_noise_interp,
    "double-descent": run_double_descent,
    "raisin": run_raisin_search,
    "loss-compare": run_loss_comparison,
    "sgd-scaling": run_sgd_scaling,
    "linearity": run_linearity,
}

# Every config key a command reads; experiment_config rejects the rest, so
# a misspelt key fails before any work instead of silently changing the
# config hash. The data keys are read by _train_test and _family_spec.
GLOBAL_KEYS = ("seed", "version")
_DATA_KEYS = ("data.family", "data.dim", "data.separation", "data.scale",
              "data.images", "data.labels", "data.classes", "data.train_n")
_KERNEL_KEYS = ("kernel.family", "kernel.bandwidth")
CONFIG_KEYS = {
    "simplex": ("simplex.dims", "simplex.draws"),
    "noise-interp": _DATA_KEYS + _KERNEL_KEYS + (
        "data.test_n", "noise.grid", "seeds.count"),
    "double-descent": _DATA_KEYS + (
        "data.test_n", "rff.grid", "rff.replicates", "noise.q"),
    "raisin": _DATA_KEYS + _KERNEL_KEYS + (
        "noise.q", "query.count", "random.trials", "search.tol", "model.kind"),
    "loss-compare": _DATA_KEYS + (
        "data.test_n", "seeds.count", "train.iters", "model.kind", "mlp.width"),
    "sgd-scaling": ("scan.n", "scan.d", "scan.spike", "batch.grid",
                    "scan.target_factor", "scan.seeds", "scan.iter_cap"),
    "linearity": ("lin.widths", "lin.probes", "lin.radius", "lin.points",
                  "lin.wrap", "lin.activation", "lin.input_dim"),
}


# --- command line ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interplab",
        description="Interpolation-regime experiment runner.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config's seed key)")
    parser.add_argument("--out", default="interplab-out",
                        help="output directory for CSVs and plot scripts")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; cells "
                             "run in order (must be at least 1)")
    return parser


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in sorted(artifacts.items()):
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir!r}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = load_config(args.config) if args.config else {}
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
        seed = args.seed if args.seed is not None else \
            _get(params, "seed", 0, int)
        cfg = experiment_config(args.command, params, seed, args.out)
        artifacts = RUNNERS[args.command](cfg)
        _write_artifacts(cfg.out_dir, artifacts)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InterpLabError as exc:
        print(f"experiment failure: {exc}", file=sys.stderr)
        return 3
