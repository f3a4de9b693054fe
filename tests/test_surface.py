"""Guard against library surface that no experiment needs.

Every command runs once through labcli.main under a profile hook that
records each Python function called. Each public module-level function of
the package must then be reached by a command or be wrapped by the
benchmark's traced run (perfbench/workloads.py TRACED). Reference methods
that only tests use live in tests/oracles.py. Each error class must be
raised by package code, or be a base class of one that is.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys

import numpy as np

import interplab
from interplab import errors, labcli
from test_labcli import _TINY, _write_idx
from test_trace_targets import _workloads


def _public_functions():
    """{dotted name: function} over every module of the package."""
    found = {}
    for info in pkgutil.iter_modules(interplab.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"interplab.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = obj
    return found


def _runs(tmp_path):
    """(command, config text) for every command and each branch variant."""
    rng = np.random.default_rng(0)
    _write_idx(tmp_path, rng.integers(0, 256, size=(60, 4, 4)), np.arange(60) % 3)
    idx = ("data.family = idx\ndata.images = {0}/images\ndata.labels = {0}/labels\n"
           "data.classes = 1, 2\n").format(tmp_path)
    runs = list(_TINY.items())
    runs += [
        ("loss-compare", _TINY["loss-compare"].replace("model.kind = mlp", "model.kind = linear")),
        ("raisin", _TINY["raisin"] + "model.kind = knn\n"),
        ("linearity", _TINY["linearity"] + "lin.wrap = softplus\n"),
        ("noise-interp", _TINY["noise-interp"] + "data.family = uniform_simplex\n"),
        ("double-descent", _TINY["double-descent"] + idx),
    ]
    return runs


def _reached_code(tmp_path):
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cfg = tmp_path / "run.cfg"
    codes = []
    for i, (command, text) in enumerate(_runs(tmp_path)):
        cfg.write_text(text)
        sys.setprofile(record)
        try:
            codes.append(labcli.main([command, "--config", str(cfg),
                                      "--out", str(tmp_path / f"out-{i}")]))
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(codes), codes
    return seen


def test_every_public_function_is_reached_traced_or_an_oracle(tmp_path, capsys):
    traced = {f"{module}.{name}" for module, names in _workloads().TRACED.items()
              for name in names}
    reached = _reached_code(tmp_path)
    capsys.readouterr()
    unreached = {name for name, fn in _public_functions().items()
                 if fn.__code__ not in reached}
    orphans = sorted(unreached - traced)
    assert not orphans, f"no command or traced run uses {orphans}"


def _raised_names():
    """Names of the classes that the package's raise statements construct."""
    names = set()
    for path in pathlib.Path(interplab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                names.add(ast.unparse(node.exc.func).rsplit(".", 1)[-1])
    return names


def test_every_error_class_is_raised():
    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, Exception)}
    names = _raised_names()
    raised = [cls for name, cls in classes.items() if name in names]
    unused = sorted(name for name, cls in classes.items()
                    if not any(issubclass(r, cls) for r in raised))
    assert not unused, f"no package code raises {unused}"


# names the package used to export; each was deleted with the code behind it
_DELETED = {"knn_predict_batch", "make_neighbor_predictor", "NeighborPredictor",
            "CLASSIFICATION", "REGRESSION", "NotClassification", "EmptyTrainingSet",
            "ArchTemplate", "sgd", "rate_fit", "rff_predict", "OptimTrace",
            "linear_objective", "mlp_objective"}


def test_all_names_resolve_and_match_the_package_namespace():
    exported = interplab.__all__
    assert exported == sorted(set(exported)), "__all__ must be sorted and unique"
    namespace = {}
    exec("from interplab import *", namespace)
    for name in exported:
        obj = getattr(interplab, name)
        assert namespace[name] is obj, name
        # a re-export is the object its home module still defines
        home = getattr(obj, "__module__", None)
        if home is not None and not inspect.ismodule(obj):
            assert getattr(importlib.import_module(home), name, None) is obj, name
    public = {name for name in vars(interplab) if not name.startswith("_")}
    assert set(exported) == public, sorted(set(exported) ^ public)
    assert not _DELETED & (set(exported) | public), sorted(_DELETED & (set(exported) | public))
