"""interplab benchmark: real CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload rff-sweep --seed 1 --seconds 20 --trace 0

Each workload is a fixed sequence of ``interplab`` CLI invocations (see
workloads.py) run one after another in a single child interpreter, a closed
loop with one client and ``--threads 1``; OpenBLAS keeps its default thread
count, which the environment block records. The child runs an unmeasured
warm-up pass, then measured passes until ``--seconds`` are used up, and
checks every pass's CSVs (checks.py).

With ``--trace 0`` the end-to-end metrics are reported, medians over the
measured passes with tracing off:

    wall_s       time from the start of a pass's first invocation to the
                 return of its last
    setup_s      time for a fresh interpreter to finish ``import interplab``,
                 median over SETUP_RUNS interpreters, half started before the
                 child and half after it, so that a burst of host load does
                 not meet them all
    cpu_s        user plus system CPU time of the child over wall_s
    peak_rss_mb  peak resident memory of the child (getrusage)
    ok_frac      invocations that succeeded over invocations attempted, i.e.
                 1 - failed_frac; failed and attempted are also the result's
                 top-level counts

With ``--trace 1`` the measured passes alternate between untraced and traced
(tracer.py), and the per-layer metrics (PER_LAYER) are reported from the
traced ones. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The environment block, CSV
hashes and every pass's raw figures go to .perfbench-out/ in the checkout.

``--record-hashes`` stores this run's CSV SHA-256 hashes in
perfbench/csv_hashes.json, the reference later runs at the same seed report
a match or a difference against. The comparison is informational: a format
version bump changes the bytes on purpose.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import BATCH_SCAN, TRACED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
HASHES = os.path.join(HERE, "csv_hashes.json")
SETUP_RUNS = 8
CHILD_GRACE_S = 110      # on top of --seconds: warm-up pass, imports, last pass

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}


def _span_names():
    for modname, fns in TRACED.items():
        short = modname.rsplit(".", 1)[-1]
        for fn in fns:
            if (short, fn) != ("labcli", "main"):
                yield f"{short}.{fn}"


PER_LAYER = {
    "labcli.self_s": "s",
    "labcli.main.calls": "count",
    "labcli.csv_bytes": "bytes",
    **{f"{name}.{kind}": unit for name in _span_names()
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "kernelmach.solves_per_fit": "ratio",
    "direct.draws_per_s": "1/s",
    "netmodels.hvp_per_probe": "ratio",
    "optim.median_iters_sum": "count",
    "optim.us_per_step_approx": "us",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(result):
    """Per-layer metrics from the traced passes; medians across passes."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]

    def med(name, field):
        index = ("calls", "self_s").index(field)
        return statistics.median(p["stats"].get(name, (0, 0.0, 0))[index] for p in traced)

    values = {"labcli.self_s": med("labcli.main", "self_s"),
              "labcli.main.calls": med("labcli.main", "calls"),
              "labcli.csv_bytes": statistics.median(p["csv_bytes"] for p in traced)}
    for name in _span_names():
        values[f"{name}.calls"] = med(name, "calls")
        values[f"{name}.self_s"] = med(name, "self_s")
    values["kernelmach.solves_per_fit"] = _ratio(values["numlin.solve_spd.calls"],
                                                 values["kernelmach.fit_interpolating.calls"])
    invs = result["invocations"]
    draws = sum(len(i["params"]["simplex.dims"].split(",")) * int(i["params"]["simplex.draws"])
                for i in invs if i["command"] == "simplex")
    values["direct.draws_per_s"] = _ratio(draws, values["direct.simplex_minority_volume.self_s"])
    probes = sum(len(i["params"]["lin.widths"].split(",")) * int(i["params"]["lin.probes"])
                 for i in invs if i["command"] == "linearity")
    values["netmodels.hvp_per_probe"] = _ratio(values["netmodels.hvp.calls"], probes)
    iters = statistics.median(p["median_iters_sum"] for p in traced)
    values["optim.median_iters_sum"] = iters
    # median steps per cell times the seed count stands in for the steps taken
    values["optim.us_per_step_approx"] = 1e6 * _ratio(
        values["optim.critical_batch_scan.self_s"], iters * int(BATCH_SCAN["scan.seeds"]))
    values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in untraced))
    return values


def end_to_end(result, setup_s, attempted, failed):
    passes = result["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


_IMPORT = [sys.executable, "-c",
           "import interplab, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]


def import_times(env, runs):
    """Times from spawning a fresh interpreter to ``import interplab`` done.

    The interpreter reads CLOCK_MONOTONIC, which is system-wide, once the
    import returns; timing the parent's wait instead would add the 50 ms
    polling steps of ``subprocess.run`` with a timeout.
    """
    times = []
    for _ in range(runs):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(_IMPORT, env=env, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        times.append(float(done.stdout) - t0)
    return times


def top_self_times(result, count=5):
    totals = {}
    for p in result["passes"]:
        for name, (_, self_s, _) in p.get("stats", {}).items():
            totals[name] = totals.get(name, 0.0) + self_s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:count]


def load_reference():
    if not os.path.exists(HASHES):
        return {}
    with open(HASHES, encoding="utf-8") as fh:
        return json.load(fh)


def seed_arg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "interplab", "__init__.py")):
        print(f"perfbench: no interplab package under {SRC}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        setup = []
        if not args.trace:
            subprocess.run(_IMPORT, env=env, cwd=ROOT, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)          # compiles bytecode
            setup = import_times(env, SETUP_RUNS // 2)
        request = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": bool(args.trace), "src": SRC, "work_dir": work_dir}
        request_path = os.path.join(work_dir, "request.json")
        result_path = os.path.join(work_dir, "result.json")
        with open(request_path, "w", encoding="utf-8") as fh:
            json.dump(request, fh)
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), request_path, result_path],
            env=env, cwd=ROOT, timeout=args.seconds + CHILD_GRACE_S)
        if child.returncode != 0:
            print(f"perfbench: child exited with code {child.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not args.trace:
            setup += import_times(env, SETUP_RUNS - SETUP_RUNS // 2)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = [result["warmup"]] + result["passes"]
    attempted = len(result["invocations"]) * len(every)
    failures = [f for p in every for f in p["failures"]]
    if args.trace:
        values, units = per_layer(result), PER_LAYER
    else:
        values = end_to_end(result, statistics.median(setup), attempted, len(failures))
        units = END_TO_END
    hashes = result["warmup"]["hashes"]
    reference = load_reference().get(args.workload, {}).get(str(args.seed))
    versus = "none recorded" if reference is None else \
        ("match" if reference == hashes else "differ")
    if args.record_hashes and not failures:
        table = load_reference()
        table.setdefault(args.workload, {})[str(args.seed)] = hashes
        with open(HASHES, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    env_block = {**result["env"], "workload": args.workload, "seed": args.seed}
    sidecar = {"env": env_block, "csv_sha256": hashes, "csv_sha256_vs_reference": versus,
               "failures": failures, "metrics": values, "passes": result["passes"],
               "top_self_s": top_self_times(result)}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)

    timed = [p for p in result["passes"] if not p["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {len(result['invocations'])} "
          f"invocations per pass, {len(timed)} untraced and "
          f"{len(result['passes']) - len(timed)} traced passes after one warm-up")
    print("env " + json.dumps(env_block, sort_keys=True))
    print(f"csv_sha256 (vs reference: {versus}) " + json.dumps(hashes, sort_keys=True))
    for failure in failures:
        print("FAILED " + failure)
    if args.trace:
        print("top self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top_self_times(result)))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
