"""Benchmark of the gqcovers verification engine.

    python3 bench/run.py --workload classical|groups|kk-q9 --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload run is a fresh
single-threaded Python process (``bench/workloads.py``) with GQCOV_CACHE
unset and its own temporary directory under ``.bench_work/``; the runs repeat
until ``--seconds`` is used up, at least once.  Set-up time is the median of
several fresh processes that import gqcovers, numpy and scipy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, medians over the
runs; with ``--trace 1`` one untraced and one traced run give the per-layer
metrics.  The line before it records the seed and the environment, and a
full report (every run, every traced function, the spans) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_CODE = (
    "import time, numpy, scipy, scipy.sparse\n"
    + "".join(f"import gqcovers.{m}\n" for m in tracer.LAYER_OF_MODULE)
    + "print(time.monotonic())\n"
)


def hermetic_env(root):
    env = dict(os.environ)
    for var in ("GQCOV_CACHE", "GQCOV_KK_CHECKPOINT", "GQCOV_RUN_KK"):
        env.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "bench")])
    return env


def measure_setup(env, deadline):
    """Seconds from process start until the library is imported, per sample;
    one unmeasured import first so every sample sees compiled bytecode."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                             capture_output=True, text=True, timeout=deadline - t0)
        if i:
            samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def run_workload(workload, seed, iteration, workdir, env, deadline, *, trace):
    rundir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    out = os.path.join(rundir, "result.json")
    cmd = [sys.executable, os.path.join("bench", "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--iteration", str(iteration), "--workdir", rundir,
           "--out", out] + ["--trace"] * trace
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} run stopped after {RUN_LIMIT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    with open(out) as fh:
        return json.load(fh)


def end_to_end_metrics(runs, setup):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pass_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def per_layer_metrics(traced, plain):
    """Per-layer metrics from one traced and one untraced run."""
    t = traced["trace"]
    funcs = t["functions"]

    def stat(name, key):
        return funcs.get(name, {}).get(key, 0)

    m = {f"{layer}.s": t["layers"][layer] for layer in tracer.LAYERS}
    m["bench.s"] = t["bench_s"]
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    m["trace.errors"] = sum(f["errors"] for f in funcs.values())
    m["process.cpu_s"] = plain["cpu_s"]
    m["process.wait_s"] = plain["wall_s"] - plain["cpu_s"]
    m["constructions.points"] = sum(
        f["count"] for name, f in funcs.items() if tracer.layer_of(name) == "constructions"
    )
    for name in ("incidence.verify_gq_axioms", "subtension.build_derived_pair",
                 "subtension.theta_census", "spg.verify_spg", "covers.enumerate_covers",
                 "covers.factorize_lower", "covers.reconstruct_from_cover",
                 "covers.find_isomorphism", "covers.transversal_instances",
                 "autgroup.graph_automorphisms", "autgroup.setwise_stabilizer",
                 "autgroup.induced_action_on_sub", "autgroup.extend_automorphism",
                 "autgroup.higher_decomposition_check",
                 "kkcensus.enumerate_subgqs_through_line", "kkcensus.record_census"):
        m[f"{name}.s"] = stat(name, "s")
    m["incidence.verify_gq_axioms.rss_mb"] = stat("incidence.verify_gq_axioms", "rss_mb")
    m["covers.enumerate_covers.covers"] = stat("covers.enumerate_covers", "count")
    m["autgroup.automorphism_group.calls"] = stat("autgroup.automorphism_group", "calls")
    m["autgroup.setwise_stabilizer.generators"] = stat("autgroup.setwise_stabilizer", "count")
    m["autgroup.extend_automorphism.calls"] = stat("autgroup.extend_automorphism", "calls")
    m["autgroup.extend_automorphism.extended"] = stat("autgroup.extend_automorphism", "count")
    enum = "kkcensus.enumerate_subgqs_through_line"
    m[f"{enum}.wait_s"] = stat(enum, "incl_s") - stat(enum, "incl_cpu_s")
    closures = tracer.closures_from_log(traced["counters"].get("kk.log"))
    m["kkcensus.closures"] = closures
    records = traced["counters"].get("kk.records", 0)
    m["kkcensus.records_per_closure"] = records / closures if closures else 0.0
    m["kkcensus.checkpoint_bytes"] = traced["counters"].get("kk.checkpoint_bytes", 0)
    ms = t["record_census_ms"]
    m["kkcensus.record_census.samples"] = len(ms)
    m["kkcensus.record_census.p50_ms"] = tracer.nearest_rank(ms, 50) if ms else 0.0
    m["kkcensus.record_census.p95_ms"] = tracer.nearest_rank(ms, 95) if ms else 0.0
    return m


def environment(root, seed):
    env = {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "git_commit": "unknown",
    }
    try:
        import numpy
        import scipy

        env["numpy"], env["scipy"] = numpy.__version__, scipy.__version__
    except ImportError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            ref = open(ref_path).read().strip() if os.path.isfile(ref_path) else ref
        env["git_commit"] = ref
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["classical", "groups", "kk-q9"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gqcovers", "__init__.py")):
        print("bench: no gqcovers sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = hermetic_env(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        setup = measure_setup(env, deadline)
        runs = []
        start = time.monotonic()
        # traced: one untraced and one traced run of the same inputs;
        # untraced: repeat with fresh labellings while the next run fits
        plan = [(0, 0), (0, 1)] if args.trace else ((i, 0) for i in itertools.count())
        for iteration, trace in plan:
            t0 = time.monotonic()
            result = run_workload(args.workload, args.seed, iteration, workdir, env,
                                  deadline, trace=trace)
            if result is None:
                print("bench: a workload run failed", file=sys.stderr)
                return 1
            runs.append(result)
            now = time.monotonic()
            if not args.trace and now - start + (now - t0) > args.seconds:
                break
        report = {"environment": environment(root, args.seed), "setup_s": setup, "runs": runs}
        if args.trace:
            values = per_layer_metrics(runs[1], runs[0])
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(runs[1]["spans_file"], spans)
            report["spans"] = os.path.relpath(spans, root)
        else:
            values = end_to_end_metrics(runs, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report["metrics"] = values
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"bench: check failed: {json.dumps(f)}", file=sys.stderr)
    print(json.dumps({"environment": report["environment"], "report": os.path.relpath(path, root)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
