"""Output checks for the CSVs each CLI invocation writes.

Each check reads only the artifact text and the config the benchmark wrote,
and uses the oracle columns the CSVs already carry. A check returns a list
of problems; an empty list means the invocation's outputs are correct.
Pure Python, so it runs without importing numpy or the package.
"""

import math
import re

_COMMENT = re.compile(r"# config_hash=[0-9a-f]{12} seed=(\d+) version=\S+$")
SIMPLEX_SIGMAS = 5.0   # |estimate - 2^-d| allowed in stderr units; 3 trips on ~1 seed in 75


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _table(text, seed, header, comments=1):
    """Split a CSV into (comment lines, data rows) after checking its head."""
    lines = text.splitlines()
    if len(lines) < comments + 1:
        raise ValueError("truncated file")
    match = _COMMENT.match(lines[0])
    if not match or int(match.group(1)) != seed:
        raise ValueError(f"bad first comment line {lines[0]!r}")
    if lines[comments] != header:
        raise ValueError(f"header {lines[comments]!r}, expected {header!r}")
    return lines[:comments], [line.split(",") for line in lines[comments + 1:]]


def _rows(rows, want, name):
    if len(rows) != want:
        raise ValueError(f"{name}: {len(rows)} rows, expected {want}")


def check_noise_interp(params, seed, files):
    _, rows = _table(files["noise-interp.csv"], seed,
                     "q,seed,train_risk,test_risk,bayes_risk,gap")
    _rows(rows, len(params["noise.grid"].split(",")) * int(params["seeds.count"]),
          "noise-interp.csv")
    bad = [r for r in rows if float(r[2]) != 0.0]
    if bad:
        raise ValueError(f"interpolating machine has train_risk != 0 in {bad[0]}")


def check_simplex(params, seed, files):
    _, rows = _table(files["simplex.csv"], seed, "d,estimate,stderr,expected")
    dims = _ints(params["simplex.dims"])
    _rows(rows, len(dims), "simplex.csv")
    for d, (dd, est, se, expected) in zip(dims, rows):
        est, se, expected = float(est), float(se), float(expected)
        if int(dd) != d or expected != 2.0 ** -d:
            raise ValueError(f"row for d={dd} does not match dimension {d}")
        if not se > 0.0 or abs(est - expected) > SIMPLEX_SIGMAS * se:
            raise ValueError(f"d={d}: estimate {est} is more than "
                             f"{SIMPLEX_SIGMAS} stderr ({se}) from {expected}")


def check_double_descent(params, seed, files):
    grid = len(set(_ints(params["rff.grid"])))
    _, rows = _table(files["double-descent.csv"], seed,
                     "m,replicate,train_mse,test_mse,test_01,coeff_norm,threshold")
    _rows(rows, grid * int(params["rff.replicates"]), "double-descent.csv")
    missed = sorted({r[1] for r in rows if int(r[6]) <= 0})
    if missed:
        raise ValueError(f"replicates {missed} never reached the interpolation threshold")
    _, summary = _table(files["double-descent-summary.csv"], seed,
                        "m,train_mean,test_mse_mean,test_mse_se,test_01_mean,"
                        "test_01_se,norm_mean,norm_se")
    _rows(summary, grid, "double-descent-summary.csv")


def check_raisin(params, seed, files):
    _, rows = _table(files["raisin.csv"], seed,
                     "query,clean_pred,dist_corrupt,flip_radius,success,random_flip_frac")
    if not rows or rows[-1][0] != "summary":
        raise ValueError("raisin.csv lacks its summary row")
    queries = rows[:-1]
    if not 1 <= len(queries) <= int(params["query.count"]):
        raise ValueError(f"raisin.csv: {len(queries)} query rows, expected 1 to "
                         f"{params['query.count']}")
    for row in queries:
        if not float(row[2]) > 0.0:
            raise ValueError(f"query {row[0]}: distance {row[2]} is not positive")


def check_sgd_scaling(params, seed, files):
    head, rows = _table(files["sgd-scaling.csv"], seed,
                        "m,median_iters,regime,mstar_theory", comments=2)
    stats = dict(tok.split("=", 1) for tok in head[1].lstrip("# ").split())
    _rows(rows, len({1} | set(_ints(params["batch.grid"]))), "sgd-scaling.csv")
    mstar = max(1.0, float(stats["tr_h"]) / float(stats["lambda_max_h"]))
    for row in rows:
        if float(row[3]) != mstar:
            raise ValueError(f"m={row[0]}: mstar_theory {row[3]} != "
                             f"tr_h/lambda_max_h = {mstar!r}")
        if not float(row[1]) >= 1.0:
            raise ValueError(f"m={row[0]}: median_iters {row[1]} below one step")


def check_linearity(params, seed, files):
    _, rows = _table(files["linearity.csv"], seed,
                     "m,grad_norm,hess_norm_max,ntk_drift")
    _rows(rows, len(set(_ints(params["lin.widths"]))) + 1, "linearity.csv")
    for row in rows[:-1]:
        for value in row[1:]:
            if not (math.isfinite(float(value)) and float(value) > 0.0):
                raise ValueError(f"m={row[0]}: norm {value} is not finite and positive")
    slope = rows[-1]
    if slope[0] != "slope":
        raise ValueError("linearity.csv lacks its slope row")
    if params.get("lin.wrap", "none") == "none" and not float(slope[2]) < 0.0:
        raise ValueError(f"plain-output hess_norm slope {slope[2]} is not negative")


CHECKS = {
    "noise-interp": check_noise_interp,
    "simplex": check_simplex,
    "double-descent": check_double_descent,
    "raisin": check_raisin,
    "sgd-scaling": check_sgd_scaling,
    "linearity": check_linearity,
}


def check(command, params, seed, files):
    """Problems found in one invocation's artifacts (``{name: text}``)."""
    try:
        CHECKS[command](params, seed, files)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{command}: {type(exc).__name__}: {exc}"]
    return []


def median_iters_sum(text):
    """Sum of the median_iters column of one sgd-scaling.csv."""
    return sum(float(line.split(",")[1]) for line in text.splitlines()[3:])
