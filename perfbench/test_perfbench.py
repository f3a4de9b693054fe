"""Self-tests for the benchmark. Run: python3 -m pytest perfbench -q"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import TRACED, WORKLOADS  # noqa: E402


# --- tracer ---

def _fake_package():
    """fakepkg.a defines inner/outer; fakepkg.b binds inner by name."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        a.inner()
        b.inner()
        now[0] += 3.0

    a.inner, a.outer, b.inner = inner, outer, inner
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}, now


def test_self_time_of_nested_calls(monkeypatch):
    mods, now = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    targets = {"fakepkg.a": ("inner", "outer")}
    with Tracer(targets, clock=lambda: now[0], package="fakepkg") as tracer:
        mods["fakepkg.a"].outer()
    stats = tracer.stats()
    assert stats["a.outer"] == (1, 4.0, 0)     # 8 s span minus two 2 s children
    assert stats["a.inner"] == (2, 4.0, 0)     # both bindings of inner were traced


def test_self_time_subtracts_union_of_children():
    spans = [["p", 0.0, 10.0, -1, False],
             ["c", 1.0, 4.0, 0, False],
             ["c", 3.0, 6.0, 0, True],         # overlaps the first child
             ["g", 1.5, 2.0, 1, False]]
    stats = self_times(spans)
    assert stats["p"] == (1, 5.0, 0)
    assert stats["c"] == (2, 5.5, 1)
    assert stats["g"] == (1, 0.5, 0)


def _bindings():
    return {(name, attr): id(value) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "interplab" or name.startswith("interplab."))
            for attr, value in vars(mod).items()}


def test_traced_run_restores_every_binding(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import interplab
    from interplab import datagen, kernelmach, labcli, rng

    before = _bindings()
    original = rng.substream
    cfg = tmp_path / "simplex.cfg"
    cfg.write_text("simplex.dims = 1, 2\nsimplex.draws = 1000\n")
    with Tracer(TRACED) as tracer:
        assert datagen.substream is kernelmach.substream is interplab.substream
        assert rng.substream is datagen.substream is not original
        assert labcli.main(["simplex", "--config", str(cfg), "--seed", "1",
                            "--out", str(tmp_path / "out")]) == 0
    assert _bindings() == before
    stats = tracer.stats()
    assert stats["labcli.main"].calls == 1
    assert stats["direct.simplex_minority_volume"].calls == 2
    assert stats["rng.substream"].calls >= 2


# --- output checks ---

HEAD = "# config_hash=0123456789ab seed=7 version=1"
VALID = {
    "noise-interp": ({"noise.grid": "0.2, 0.5", "seeds.count": "1"}, {
        "noise-interp.csv": [HEAD, "q,seed,train_risk,test_risk,bayes_risk,gap",
                             "0.2,0,0.0,0.15,0.15,0.15", "0.5,0,0.0,0.3,0.28,0.3"]}),
    "simplex": ({"simplex.dims": "1, 2"}, {
        "simplex.csv": [HEAD, "d,estimate,stderr,expected",
                        "1,0.5001,0.0005,0.5", "2,0.2499,0.0004,0.25"]}),
    "double-descent": ({"rff.grid": "10, 20", "rff.replicates": "2"}, {
        "double-descent.csv": [HEAD, "m,replicate,train_mse,test_mse,test_01,coeff_norm,threshold",
                               "10,0,0.1,1.0,0.3,1.0,20", "20,0,0.0,9.0,0.4,5.0,20",
                               "10,1,0.1,1.0,0.3,1.0,20", "20,1,0.0,8.0,0.4,4.0,20"],
        "double-descent-summary.csv": [HEAD, "m,train_mean,test_mse_mean,test_mse_se,"
                                       "test_01_mean,test_01_se,norm_mean,norm_se",
                                       "10,0.1,1.0,0.0,0.3,0.0,1.0,0.0",
                                       "20,0.0,8.5,0.5,0.4,0.0,4.5,0.5"]}),
    "raisin": ({"query.count": "3"}, {
        "raisin.csv": [HEAD, "query,clean_pred,dist_corrupt,flip_radius,success,random_flip_frac",
                       "0,1.0,0.5,0.2,1,0.0", "2,-1.0,0.7,0.3,1,0.05", "summary,1.0,0.25,0.025,,"]}),
    "sgd-scaling": ({"batch.grid": "16, 4"}, {
        "sgd-scaling.csv": [HEAD, "# tr_h=10.0 lambda_max_h=4.0 max_row_norm_sq=1.0 target_loss=0.1",
                            "m,median_iters,regime,mstar_theory",
                            "1,100.0,linear,2.5", "4,30.0,linear,2.5", "16,20.0,saturation,2.5"]}),
    "linearity": ({"lin.widths": "16, 32"}, {
        "linearity.csv": [HEAD, "m,grad_norm,hess_norm_max,ntk_drift",
                          "16,0.6,0.16,0.5", "32,0.6,0.11,0.35", "slope,0.0,-0.5,-0.5"]}),
}

# (command, file, line index, replacement line) — each breaks one check
CORRUPTIONS = [
    ("noise-interp", "noise-interp.csv", 2, "0.2,0,0.0005,0.15,0.15,0.15"),
    ("noise-interp", "noise-interp.csv", 3, None),
    ("simplex", "simplex.csv", 3, "2,0.2600,0.0004,0.25"),
    ("simplex", "simplex.csv", 0, "# config_hash=0123456789ab seed=8 version=1"),
    ("double-descent", "double-descent.csv", 5, "20,1,0.1,8.0,0.4,4.0,-1"),
    ("double-descent", "double-descent-summary.csv", 1, "m,train_mean"),
    ("raisin", "raisin.csv", 4, "3,1.0,0.5,0.2,1,0.0"),
    ("sgd-scaling", "sgd-scaling.csv", 4, "1,100.0,linear,2.4999999999999996"),
    ("sgd-scaling", "sgd-scaling.csv", 5, None),
    ("linearity", "linearity.csv", 3, "32,0.6,nan,0.35"),
    ("linearity", "linearity.csv", 4, "slope,0.0,0.01,-0.5"),
]


def _files(command):
    params, files = VALID[command]
    return params, {name: "\n".join(lines) + "\n" for name, lines in files.items()}


@pytest.mark.parametrize("command", sorted(VALID))
def test_checks_accept_valid_output(command):
    params, files = _files(command)
    assert checks.check(command, params, 7, files) == []


@pytest.mark.parametrize("command,name,index,line", CORRUPTIONS)
def test_checks_reject_corrupted_output(command, name, index, line):
    params, files = _files(command)
    lines = files[name].splitlines()
    if line is None:
        del lines[index]
    else:
        lines[index] = line
    files[name] = "\n".join(lines) + "\n"
    assert checks.check(command, params, 7, files)


def test_checks_reject_missing_file():
    params, files = _files("simplex")
    assert checks.check("simplex", params, 7, {})
    assert checks.CHECKS.keys() >= {inv.command for make in WORKLOADS.values()
                                    for inv in make(0)}


# --- the contract file ---

def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
