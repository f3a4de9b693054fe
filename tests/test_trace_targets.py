"""Guards for the benchmark in perfbench/: the functions its traced run
wraps must exist, and the configs its workloads pass must be accepted."""

import importlib
import importlib.util
from pathlib import Path

from interplab import labcli

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module_name, names in _workloads().TRACED.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module_name} lacks {missing}"


def test_every_workload_config_is_accepted():
    workloads = _workloads()
    for name, invocations in workloads.WORKLOADS.items():
        for inv in invocations(1):
            params = labcli.parse_config_text(workloads.config_text(inv.params))
            labcli.experiment_config(inv.command, params, inv.seed, "unused")
