"""Child interpreter of the benchmark: runs one workload's passes.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

The request names the workload, seed, measuring time, trace flag, the
package's source directory and a scratch directory. The child imports the
package from that source directory only, then runs an unmeasured warm-up
pass followed by measured passes until the time is used up. Every pass is
checked: an invocation fails if it exits non-zero, prints a traceback,
fails an output check, or writes CSV bytes that differ from the warm-up
pass at the same seed. In trace mode the measured passes alternate between
untraced and traced. The child writes its findings to RESULT.json and
prints nothing of its own.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from checks import check, median_iters_sum
from tracer import Tracer
from workloads import TRACED, WORKLOADS, config_text

MIN_PASSES = {False: 3, True: 4}   # measured passes; trace mode needs two of each kind


def blas_threads():
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_invocation(labcli, argv):
    """Run one CLI invocation as a user would; return (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = labcli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def read_artifacts(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Workload:
    """One workload's invocations, their config files and output dirs."""

    def __init__(self, labcli, name, seed, work_dir):
        self.labcli = labcli
        self.invocations = WORKLOADS[name](seed)
        self.argvs, self.out_dirs = [], []
        for j, inv in enumerate(self.invocations):
            cfg = os.path.join(work_dir, f"{j}-{inv.command}.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config_text(inv.params))
            out_dir = os.path.join(work_dir, f"{j}-{inv.command}")
            self.out_dirs.append(out_dir)
            self.argvs.append([inv.command, "--config", cfg, "--seed", str(inv.seed),
                               "--out", out_dir, "--threads", "1"])

    def run_pass(self, traced, reference=None):
        """Run every invocation once and check it; ``reference`` holds the
        CSV hashes each invocation must reproduce."""
        for out_dir in self.out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)
        tracer = Tracer(TRACED) if traced else contextlib.nullcontext()
        with tracer:
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            runs = [run_invocation(self.labcli, argv) for argv in self.argvs]
            wall = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        record = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "failures": [],
                  "csv_bytes": 0, "median_iters_sum": 0.0, "hashes": {}}
        for j, (inv, (code, output)) in enumerate(zip(self.invocations, runs)):
            label = f"{j}-{inv.command}"
            files = read_artifacts(self.out_dirs[j]) if os.path.isdir(self.out_dirs[j]) else {}
            csvs = {name: data for name, data in files.items() if name.endswith(".csv")}
            record["hashes"][label] = {name: hashlib.sha256(data).hexdigest()
                                       for name, data in csvs.items()}
            record["csv_bytes"] += sum(len(data) for data in csvs.values())
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {output.strip()[-300:]}")
            if "Traceback (most recent call last)" in output:
                problems.append("printed a traceback")
            texts = {name: data.decode("utf-8", "replace") for name, data in csvs.items()}
            problems += check(inv.command, inv.params, inv.seed, texts)
            if reference is not None and record["hashes"][label] != reference[label]:
                problems.append("CSV bytes differ from the warm-up pass at the same seed")
            if inv.command == "sgd-scaling" and "sgd-scaling.csv" in texts and not problems:
                record["median_iters_sum"] += median_iters_sum(texts["sgd-scaling.csv"])
            if problems:
                record["failures"].append(f"{label}: " + "; ".join(problems))
        if traced:
            record["stats"] = {name: list(stat) for name, stat in tracer.stats().items()}
        return record


def main(request_path, result_path):
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    src = os.path.realpath(req["src"])
    sys.path.insert(0, src)
    import interplab
    from interplab import labcli

    if not os.path.realpath(interplab.__file__).startswith(src + os.sep):
        print(f"interplab imported from {interplab.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = Workload(labcli, req["workload"], req["seed"], req["work_dir"])
    warm = work.run_pass(traced=False)
    passes = []
    deadline = time.perf_counter() + req["seconds"]
    while True:
        traced = req["trace"] and len(passes) % 2 == 1
        passes.append(work.run_pass(traced, reference=warm["hashes"]))
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES[req["trace"]] and time.perf_counter() + typical > deadline:
            break
    result = {
        "env": environment(),
        "warmup": warm,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "invocations": [inv._asdict() for inv in work.invocations],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
