"""Experiment runner: every lab scenario behind one command-line tool.

Configs are flat ``key = value`` text with dotted prefixes (``data.dim = 10``).
``CONFIG_KEYS`` is the reference for the keys each command reads, with the
type and the default of each; ``experiment_config`` casts every declared
key once, so a misspelt key or a malformed value fails before any work.
Each experiment writes CSV files (all through ``_csv``) whose first line is
a comment recording the config hash, the seed, and the format version, so
outputs are self-describing and byte-identical across reruns. Plot scripts
are plain gnuplot text; the CSVs stay authoritative when no plotting tool
exists.

Exit codes: 0 success; 2 for configuration problems (unparseable or
inconsistent config, bad values caught by module validation, data files
that cannot back the requested experiment); 3 for numerical failures
discovered mid-run (non-convergence, divergence, unreachable targets).
"""

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import datagen, direct, kernelmach, netmodels, numlin, optim
from .artifacts import write_artifacts
from .errors import (
    BadMagic,
    ConfigError,
    InterpLabError,
    InvalidInput,
    InvalidSpec,
    NoAnalyticOracle,
    NoCorruptedNeighbor,
    NumericalError,
    TruncatedFile,
    UnknownClass,
)
from .rng import substream

CONFIG_VERSION = "1"   # config files this build accepts
FORMAT_VERSION = "12"  # CSV bytes; bumped whenever a result moves
COMMANDS = ("noise-interp", "double-descent", "raisin", "loss-compare",
            "simplex", "sgd-scaling", "linearity")

_CONFIG_ERRORS = (ConfigError, InvalidInput, InvalidSpec, NoAnalyticOracle,
                  NoCorruptedNeighbor)


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


def _list(cast):
    """Cast for a comma-separated list key; an empty list or item is rejected."""
    def parse(text):
        if not text.strip():
            raise ValueError("empty list")
        tokens = text.split(",")
        if not all(tok.strip() for tok in tokens):
            raise ValueError(f"empty item in list {text!r}")
        return tuple(cast(tok) for tok in tokens)
    return parse


# Every config key a command reads, as key: (cast, default); the table is
# the reference for types and defaults. experiment_config rejects any
# other key, so a misspelt key fails before any work instead of silently
# changing the config hash. A None default means the key is absent: the
# idx paths are then rejected where idx data is loaded, and sgd-scaling
# derives scan.spike and batch.grid from scan.d and scan.n. Range checks
# stay where each value is consumed.
GLOBAL_KEYS = {"seed": (int, 0), "version": (str, CONFIG_VERSION)}
_DATA_KEYS = {                      # read by _train_test and _family_spec
    "data.family": (str, "two_gaussians"), "data.dim": (int, 2),
    "data.separation": (float, 3.0), "data.scale": (float, 1.0),
    "data.images": (str, None), "data.labels": (str, None),
    "data.classes": (_list(int), (0, 1))}
# the data.* keys each data.family reads; experiment_config rejects a
# family-specific key that the chosen family does not read
FAMILY_KEYS = {
    "two_gaussians": ("data.dim", "data.separation", "data.scale"),
    "uniform_simplex": ("data.dim",),
    "idx": ("data.images", "data.labels", "data.classes")}
_KERNEL_KEYS = {"kernel.family": (str, kernelmach.LAPLACE),
                "kernel.bandwidth": (float, 1.0)}
CONFIG_KEYS = {
    "simplex": {"simplex.dims": (_list(int), (1, 2, 3, 6, 10)),
                "simplex.draws": (int, 1_000_000)},
    "noise-interp": {
        **_DATA_KEYS, **_KERNEL_KEYS, "data.dim": (int, 20),
        "data.train_n": (int, 2000), "data.test_n": (int, 2000),
        "noise.grid": (_list(float), (0.0, 0.2, 0.5, 0.8)),
        "seeds.count": (int, 10)},
    "double-descent": {
        **_DATA_KEYS, "data.dim": (int, 10),
        "data.train_n": (int, 300), "data.test_n": (int, 2000),
        "rff.grid": (_list(int), (30, 60, 120, 180, 240, 270, 300, 330, 390,
                                  480, 600, 900, 1500, 2400, 3000)),
        "rff.replicates": (int, 10), "noise.q": (float, 0.0)},
    "raisin": {
        **_DATA_KEYS, **_KERNEL_KEYS, "data.train_n": (int, 500),
        "noise.q": (float, 0.2), "query.count": (int, 40),
        "random.trials": (int, 20), "search.tol": (float, 1e-4),
        "model.kind": (str, "kernel")},
    "loss-compare": {
        **_DATA_KEYS, "data.separation": (float, 5.0),
        "data.train_n": (int, 80), "data.test_n": (int, 400),
        "seeds.count": (int, 10), "train.iters": (int, 400),
        "model.kind": (str, "linear"), "mlp.width": (int, 16)},
    "sgd-scaling": {
        "scan.n": (int, 512), "scan.d": (int, 1024),
        "scan.spike": (float, None), "batch.grid": (_list(int), None),
        "scan.target_factor": (float, 1e-8), "scan.seeds": (int, 5),
        "scan.iter_cap": (int, optim.DEFAULT_ITER_CAP)},
    "linearity": {
        "lin.widths": (_list(int), (64, 91, 128, 181, 256, 362, 512, 724,
                                    1024, 1448, 2048, 2896, 4096)),
        "lin.probes": (int, 32), "lin.radius": (float, 1.0),
        "lin.points": (int, 8), "lin.wrap": (str, "none"),
        "lin.activation": (str, "tanh"), "lin.input_dim": (int, 1)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    params: dict     # the raw config text values; config_hash reads these
    seed: int
    out_dir: str
    values: dict     # every declared key, cast, or its default when absent


def experiment_config(name: str, params: dict, seed: int | None,
                      out_dir: str) -> ExperimentConfig:
    """Validate a config for one command; ``seed=None`` takes the config's."""
    if name not in COMMANDS:
        raise ConfigError(f"unknown experiment {name!r}")
    declared = {**GLOBAL_KEYS, **CONFIG_KEYS[name]}
    values = {}
    for key, (cast, default) in declared.items():
        if key not in params:
            values[key] = default
            continue
        try:
            values[key] = cast(params[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    if values["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"config version {values['version']!r} not supported (this build "
            f"speaks {CONFIG_VERSION!r})")
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {name}: "
                          + ", ".join(map(repr, unknown)))
    if "data.family" in declared:
        family = values["data.family"]
        if family not in FAMILY_KEYS:
            raise ConfigError(f"unsupported data.family {family!r}")
        unread = sorted({key for keys in FAMILY_KEYS.values() for key in keys
                         if key in params and key not in FAMILY_KEYS[family]})
        if unread:
            raise ConfigError(f"config key(s) not read by data.family {family}: "
                              + ", ".join(map(repr, unread)))
    if seed is None:
        seed = values["seed"]
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be non-negative and below 2**64, got {seed}")
    values["seed"] = seed = int(seed)     # the seed in use, --seed included
    return ExperimentConfig(name=name, params=dict(params), seed=seed,
                            out_dir=out_dir, values=values)


def _subseed(seed: int, *tags) -> int:
    path = [repr(t) if isinstance(t, float) else t for t in tags]
    return int(substream(seed, "labcli", *path).integers(1 << 62))


def _fmt(value) -> str:
    return repr(float(value))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def _csv(cfg: ExperimentConfig, header: str, rows, *comment_lines) -> str:
    """One CSV artifact, the only place the CSV format is written.

    The provenance comment (config hash, seed, format version) comes
    first, then ``comment_lines``, the header and one line per row.
    Strings are written as is, integers in decimal, and every other cell
    as the repr of a float, which reads back to the same float.
    """
    lines = [f"# config_hash={config_hash(cfg.params)} seed={cfg.seed} "
             f"version={FORMAT_VERSION}", *comment_lines, header]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# --- data construction ---

def _family_spec(values, seed_tag_seed):
    family = values["data.family"]
    if family == "two_gaussians":
        return datagen.TwoGaussians(separation=values["data.separation"],
                                    scale=values["data.scale"],
                                    dim=values["data.dim"], seed=seed_tag_seed)
    # uniform_simplex: experiment_config admits no other synthetic family
    return datagen.UniformSimplex(dim=values["data.dim"], seed=seed_tag_seed)


def _train_test(cfg: ExperimentConfig, cell: int, train_n: int, test_n: int):
    """Fresh train/test draw for one experiment cell.

    Synthetic families resample per cell; IDX-backed data is fixed by the
    files, so only downstream randomness (corruption, queries) varies.
    Returns (train, test, family_spec_or_None).
    """
    values = cfg.values
    if values["data.family"] == "idx":
        for key in ("data.images", "data.labels"):
            if values[key] is None:
                raise ConfigError(f"missing required config key {key!r}")
        try:
            ds = datagen.load_idx(values["data.images"], values["data.labels"],
                                  values["data.classes"], train_n + test_n)
        except (OSError, BadMagic, TruncatedFile, UnknownClass) as exc:
            raise ConfigError(f"cannot read idx data: {exc}") from exc
        if ds.n < train_n + test_n:
            raise ConfigError(
                f"idx files hold only {ds.n} usable rows, need {train_n + test_n}")
        train = datagen.make_dataset(ds.X[:train_n], ds.y[:train_n])
        test = datagen.make_dataset(ds.X[train_n:], ds.y[train_n:])
        return train, test, None
    spec_train = _family_spec(values, _subseed(cfg.seed, "train", cell))
    spec_test = _family_spec(values, _subseed(cfg.seed, "test", cell))
    return (datagen.sample(spec_train, train_n),
            datagen.sample(spec_test, test_n), spec_train)


def _kernel_spec(values) -> kernelmach.KernelSpec:
    return kernelmach.KernelSpec(family=values["kernel.family"],
                                 bandwidth=values["kernel.bandwidth"])


def _zero_one(pred_values, labels) -> float:
    return float(np.mean(datagen.to_labels(pred_values) != np.asarray(labels)))


def _seed_count(values) -> int:
    n_seeds = values["seeds.count"]
    if n_seeds < 1:
        raise ConfigError(f"seeds.count must be at least 1, got {n_seeds}")
    return n_seeds


# --- experiments ---

def run_simplex_blessing(cfg: ExperimentConfig) -> dict:
    dims, draws = cfg.values["simplex.dims"], cfg.values["simplex.draws"]
    if min(dims) < 1:
        raise ConfigError(f"simplex.dims must be positive, got {min(dims)}")

    # one set of chunk buffers per thread, made here before any thread starts
    parts = min(numlin.core_count(), len(dims))
    scratch = [direct.simplex_scratch(draws) for _ in range(parts)]

    def cells(part):
        rows = []
        for d in dims[part::parts]:
            est, se = direct.simplex_minority_volume(
                d, draws, _subseed(cfg.seed, "simplex", d), scratch[part])
            rows.append((d, est, se, 2.0 ** -d))
        return rows

    done = numlin.on_cores(cells, parts)
    rows = [done[i % parts][i // parts] for i in range(len(dims))]
    return {"simplex.csv": _csv(cfg, "d,estimate,stderr,expected", rows)}


def run_noise_interp(cfg: ExperimentConfig) -> dict:
    """Risk of the interpolating kernel machine at each noise level.

    Each seed draws one train/test pair, shared by every noise level, so
    the comparison across q is paired. The labels are corrupted once per
    level, and every level is fitted on the seed's one kernel matrix and
    one factorization and predicted with its one test kernel matrix.
    """
    values = cfg.values
    n_seeds = _seed_count(values)
    train_n, test_n = values["data.train_n"], values["data.test_n"]
    grid = values["noise.grid"]
    kspec = _kernel_spec(values)

    def draw(s):
        train, test, family = _train_test(cfg, _subseed(cfg.seed, "ni", s),
                                          train_n, test_n)
        if family is None:
            raise NoAnalyticOracle(
                "noise-interp needs a family with a closed-form risk")

        def labels(ds, tag):
            return np.column_stack([datagen.corrupt(ds, datagen.CorruptionSpec(
                q=q, seed=_subseed(cfg.seed, tag, q, s))).y for q in grid])

        train_y, test_y = labels(train, "ni-noise"), labels(test, "ni-tnoise")
        machine = kernelmach.fit_interpolating(kspec, train, train_y)
        test_pred = kernelmach.kernel_predict(machine, test.X)
        rows = []
        for j, q in enumerate(grid):
            train_risk = _zero_one(machine.train_pred[:, j], train_y[:, j])
            test_risk = _zero_one(test_pred[:, j], test_y[:, j])
            rows.append((q, s, train_risk, test_risk, datagen.bayes_risk(family, q),
                         test_risk - train_risk))
        return rows

    per_seed = [draw(s) for s in range(n_seeds)]
    rows = [seed_rows[j] for j in range(len(grid)) for seed_rows in per_seed]
    return {"noise-interp.csv": _csv(
        cfg, "q,seed,train_risk,test_risk,bayes_risk,gap", rows)}


def run_double_descent(cfg: ExperimentConfig) -> dict:
    values = cfg.values
    train_n = values["data.train_n"]
    noise = datagen.CorruptionSpec(q=values["noise.q"],
                                   seed=_subseed(cfg.seed, "dd-noise"))

    train, test, _ = _train_test(cfg, 0, train_n, values["data.test_n"])
    if noise.q > 0.0:
        train = datagen.corrupt(train, noise)
    sweep = kernelmach.double_descent_sweep(train, test, values["rff.grid"],
                                            values["rff.replicates"],
                                            seed=_subseed(cfg.seed, "dd"))

    csv_rows = _csv(cfg, "m,replicate,train_mse,test_mse,test_01,coeff_norm,"
                         "threshold", sweep.rows)
    csv_summary = _csv(
        cfg, "m,train_mean,test_mse_mean,test_mse_se,test_01_mean,test_01_se,"
             "norm_mean,norm_se",
        zip(sweep.m_grid, sweep.train_mean, sweep.test_mse_mean,
            sweep.test_mse_se, sweep.test_01_mean, sweep.test_01_se,
            sweep.norm_mean, sweep.norm_se))

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


def run_raisin_search(cfg: ExperimentConfig) -> dict:
    """Flip radius of each correctly classified query toward its nearest
    opposing corrupted training point, and the flip rate of random
    directions at that radius.

    Every query's line search runs in lockstep with the others: the
    bracket growth (hi *= 1.3 from the corrupted point's distance up to
    four times it) and the bisection to search.tol each predict all
    still-active rows in one call per round.
    """
    values = cfg.values
    train_n, q = values["data.train_n"], values["noise.q"]
    trials, tol = values["random.trials"], values["search.tol"]
    if trials < 1:
        raise ConfigError(f"random.trials must be at least 1, got {trials}")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"search.tol must be positive and finite, got {tol}")
    kind = values["model.kind"]

    train, queries, _ = _train_test(cfg, 0, train_n, values["query.count"])
    corrupted = datagen.corrupt(
        train, datagen.CorruptionSpec(q=q, seed=_subseed(cfg.seed, "raisin-noise")))
    flipped = corrupted.y != train.y
    if not np.any(flipped):
        raise NoCorruptedNeighbor(
            f"corruption q={q} flipped no labels in {train_n} points")

    if kind == "kernel":
        machine = kernelmach.fit_interpolating(_kernel_spec(values), corrupted)

        def predict(P):
            return kernelmach.kernel_predict(machine, P)
    elif kind == "knn":
        def predict(P):
            return direct.nearest_neighbor_predict(corrupted, P)
    else:
        raise ConfigError(f"model.kind must be kernel or knn, got {kind!r}")

    pred = datagen.to_labels(predict(queries.X))
    index = np.flatnonzero(pred == queries.y)   # only correctly-classified queries
    X, pred = queries.X[index], pred[index]
    dist, U = np.empty(index.size), np.empty_like(X)
    for j, x in enumerate(X):
        opposing = flipped & (corrupted.y == -pred[j])
        if not np.any(opposing):
            raise NoCorruptedNeighbor(
                "no corrupted training point opposes the query prediction")
        cand = np.where(opposing)[0]
        dists = np.linalg.norm(corrupted.X[cand] - x, axis=1)
        dist[j] = dists.min()
        U[j] = (corrupted.X[cand[np.argmin(dists)]] - x) / dist[j]

    def flips(rows, radii):
        return predict(X[rows] + radii[:, None] * U[rows]) * pred[rows] < 0.0

    hi, found = dist.copy(), np.zeros(index.size, dtype=bool)
    active = np.arange(index.size)
    while active.size:
        hit = flips(active, hi[active])
        found[active[hit]] = True
        active = active[~hit & (hi[active] < 4.0 * dist[active])]
        hi[active] *= 1.3
    lo = np.zeros(index.size)
    active = np.flatnonzero(found & (hi > tol))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        hit = flips(active, mid)
        hi[active[hit]] = mid[hit]
        lo[active[~hit]] = mid[~hit]
        active = active[hi[active] - lo[active] > tol]
    # each bracketed query draws trials successive directions, in query
    # order; each row is normalized on its own so its norm keeps the bits
    # of a one-vector norm. The probes are scored in blocks of at most
    # train_n rows, so no cross-kernel block outgrows the fit's n x n one.
    bracketed = np.flatnonzero(found)
    success, flip_frac = np.zeros(index.size, dtype=bool), np.full(index.size, math.nan)
    if bracketed.size:
        success[bracketed] = flips(bracketed, hi[bracketed])
        rng = substream(cfg.seed, "raisin-random")
        probes = np.empty((bracketed.size, trials, X.shape[1]))
        for j, r in enumerate(bracketed):
            V = rng.standard_normal((trials, X.shape[1]))
            for v in V:
                v /= np.linalg.norm(v)
            probes[j] = X[r] + hi[r] * V
        probes = probes.reshape(-1, X.shape[1])
        scores = np.concatenate([predict(probes[at:at + train_n])
                                 for at in range(0, len(probes), train_n)])
        flip_frac[bracketed] = np.count_nonzero(
            scores.reshape(bracketed.size, trials) * pred[bracketed, None] < 0.0,
            axis=1) / trials

    radius = np.where(found, hi, math.inf)
    rows = [(int(i), float(p), float(d), float(r), int(ok), float(f))
            for i, p, d, r, ok, f in zip(index, pred, dist, radius, success, flip_frac)]
    finite = [r[3] for r in rows if math.isfinite(r[3])]
    succ = [r[4] for r in rows]
    rand = [r[5] for r in rows if not math.isnan(r[5])]
    summary = ("summary", float(np.mean(succ)) if succ else 0.0,
               float(np.median(finite)) if finite else math.inf,
               float(np.mean(rand)) if rand else 0.0, "", "")
    return {"raisin.csv": _csv(
        cfg, "query,clean_pred,dist_corrupt,flip_radius,success,random_flip_frac",
        rows + [summary])}


def run_loss_comparison(cfg: ExperimentConfig) -> dict:
    values = cfg.values
    n_seeds = _seed_count(values)
    train_n, test_n = values["data.train_n"], values["data.test_n"]
    iters, kind = values["train.iters"], values["model.kind"]
    if iters < 1:
        raise ConfigError(f"train.iters must be at least 1, got {iters}")

    def cell(s):
        train, test, _ = _train_test(cfg, _subseed(cfg.seed, "lc", s),
                                     train_n, test_n)
        if kind == "linear":
            model = None
            w0 = np.zeros(train.dim)
            with np.errstate(over="ignore", invalid="ignore"):   # checked below
                K = train.X @ train.X.T
        elif kind == "mlp":
            model = netmodels.init_mlp(train.dim, values["mlp.width"], "tanh",
                                       seed=_subseed(cfg.seed, "lc-init", s))
            w0 = netmodels.flatten_params(model)
            K = netmodels.tangent_kernel(model, None, train.X)
        else:
            raise ConfigError(f"model.kind must be linear or mlp, got {kind!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            K = 0.5 * (K + K.T)
        if not np.all(np.isfinite(K)):
            raise ConfigError(f"loss-compare's {kind} kernel overflows at data.scale = "
                              f"{values['data.scale']!r}")
        top = numlin.max_eig(K)
        step = 1.0 / top if top > 0.0 else math.inf
        if not step < math.inf:
            raise ConfigError(
                f"loss-compare needs a finite positive step 1/lambda_max, but the "
                f"{kind} kernel's lambda_max is {top:.3e} at data.scale = "
                f"{values['data.scale']!r}")
        init_hash = hashlib.sha256(w0.tobytes()).hexdigest()[:12]

        out = []
        for loss in (optim.SQUARE, optim.CROSS_ENTROPY):
            w = optim.gd(train.X, train.y, w0, step, iters, loss=loss, model=model)
            if model is None:
                f_train, f_test = train.X @ w, test.X @ w
            else:
                f_train = netmodels.forward_batch(model, w, train.X)
                f_test = netmodels.forward_batch(model, w, test.X)
            out.append((s, loss, init_hash,
                        1.0 - _zero_one(f_train, train.y),
                        1.0 - _zero_one(f_test, test.y),
                        float(np.median(train.y * f_train))))
        return out

    rows = [row for s in range(n_seeds) for row in cell(s)]
    summary = []
    for loss in (optim.SQUARE, optim.CROSS_ENTROPY):
        accs = np.array([row[4] for row in rows if row[1] == loss])
        tras = np.array([row[3] for row in rows if row[1] == loss])
        se = float(accs.std(ddof=1) / math.sqrt(accs.size)) if accs.size > 1 else 0.0
        summary.append((loss, accs.mean(), se, tras.mean()))
    return {"loss-compare.csv": _csv(
                cfg, "seed,loss,init_hash,train_acc,test_acc,margin_median", rows),
            "loss-compare-summary.csv": _csv(
                cfg, "loss,test_acc_mean,test_acc_se,train_acc_mean", summary)}


_BATCH_SIZES = (1, 2, 4, 16, 32, 64, 128)   # the default grid, then scan.n


def run_sgd_scaling(cfg: ExperimentConfig) -> dict:
    values = cfg.values
    n, d = values["scan.n"], values["scan.d"]
    if n < 1 or d < 1:
        raise ConfigError(f"scan.n and scan.d must be at least 1, got {n} and {d}")
    spike = values["scan.spike"]
    if spike is None:
        spike = (d - 1) / 7.0
    if not 0.0 <= spike < np.inf:
        raise ConfigError(f"scan.spike must be non-negative and finite, got {spike}")
    grid = values["batch.grid"]
    if grid is None:
        grid = tuple(m for m in _BATCH_SIZES if m < n) + (n,)

    rng = substream(cfg.seed, "labcli", "scan-data")
    cov_sqrt = np.sqrt(np.concatenate([[spike], np.ones(d - 1)]))
    X = rng.standard_normal((n, d)) * cov_sqrt
    y = X @ rng.standard_normal(d)
    with np.errstate(over="ignore"):    # the scan rejects an overflowed y @ y
        target = values["scan.target_factor"] * 0.5 * float(y @ y)
    report = optim.critical_batch_scan(X, y, grid, target, values["scan.seeds"],
                                       iter_cap=values["scan.iter_cap"])

    stats = (f"# tr_h={_fmt(report.tr_h)} lambda_max_h={_fmt(report.lambda_max_h)} "
             f"max_row_norm_sq={_fmt(report.max_row_norm_sq)} "
             f"target_loss={_fmt(report.target_loss)}")
    rows = [(m, iters, regime, report.mstar) for m, iters, regime in
            zip(report.batch_grid, report.median_iters, report.regimes)]
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
    return {"sgd-scaling.csv": _csv(cfg, "m,median_iters,regime,mstar_theory",
                                    rows, stats),
            "sgd-scaling.gp": plot}


def run_linearity(cfg: ExperimentConfig) -> dict:
    values = cfg.values
    report = netmodels.linearity_scan(values["lin.input_dim"], values["lin.activation"],
                                      values["lin.wrap"], values["lin.widths"],
                                      ball_radius=values["lin.radius"],
                                      probes=values["lin.probes"],
                                      seed=_subseed(cfg.seed, "linearity"),
                                      kernel_points=values["lin.points"])
    rows = list(zip(report.widths, report.grad_norms, report.hess_norms,
                    report.ntk_drifts))
    rows.append(("slope", report.grad_slope, report.hess_slope,
                 report.drift_slope))      # footer record: log-log slopes
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
    return {"linearity.csv": _csv(cfg, "m,grad_norm,hess_norm_max,ntk_drift", rows),
            "linearity.gp": plot}


RUNNERS = {
    "simplex": run_simplex_blessing,
    "noise-interp": run_noise_interp,
    "double-descent": run_double_descent,
    "raisin": run_raisin_search,
    "loss-compare": run_loss_comparison,
    "sgd-scaling": run_sgd_scaling,
    "linearity": run_linearity,
}
# the commands that fork worker processes (numlin.on_processes), around
# which numlin.one_blas_thread parks numpy's BLAS pool from the start
_FORKING = frozenset({"sgd-scaling"})


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
                        help="accepted for compatibility and ignored (must be "
                             "at least 1); numpy's BLAS runs on one thread, and "
                             "work split over the cores uses every core")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = load_config(args.config) if args.config else {}
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
        cfg = experiment_config(args.command, params, args.seed, args.out)
        # on one numpy BLAS thread, no result depends on the core count
        with numlin.one_blas_thread(park=args.command in _FORKING):
            artifacts = RUNNERS[args.command](cfg)
        write_artifacts(cfg.out_dir, artifacts)
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
