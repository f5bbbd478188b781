"""Fast self-test of the benchmark, a few seconds.

    python3 bench/selftest.py        # from the root of a source checkout

Runs the q=2 part of the classical workload in this process twice: on
seed 1 untraced, and on seed 0 traced with one wrong expected value injected
into the table.  It checks that every other check passes, that the injected
value shows up as a failure in pass_frac, that the reported metrics carry
exactly the names of BENCHMARK.json, and that the layer self times add up to
the traced wall time.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from expected import EXPECTED  # noqa: E402


def require(ok, message):
    if not ok:
        raise SystemExit(f"selftest: FAIL: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        plain = workloads.run_once("classical", 1, tmp, small=True)
        require(plain["attempted"] > 0 and not plain["failures"], str(plain["failures"]))
        e2e = run.end_to_end_metrics([plain], [0.2])
        require(set(e2e) == {m["name"] for m in spec["end_to_end"]},
                f"end-to-end names {sorted(e2e)}")
        require(all(v > 0 for v in e2e.values()), f"zero end-to-end metric: {e2e}")
        require(e2e["pass_frac"] == 1.0, "pass_frac below 1 on a correct run")

        # traced run of seed 0 with one wrong expected value injected
        bad = dict(EXPECTED)
        bad["covers.q2"] = dataclasses.replace(EXPECTED["covers.q2"], value=721)
        t = tracer.Tracer(run_id="selftest")
        t.install()
        traced = workloads.run_once("classical", 0, tmp, small=True, expected=bad, tracer=t)
    require([f["check"] for f in traced["failures"]] == ["covers.q2"],
            f"injected failure not reported: {traced['failures']}")
    frac = run.end_to_end_metrics([traced], [0.2])["pass_frac"]
    require(frac == 1.0 - 1 / traced["attempted"], f"pass_frac {frac}")
    layer = run.per_layer_metrics(traced, plain)
    names = {m["name"] for m in spec["per_layer"]}
    require(set(layer) == names, f"per-layer names differ: {sorted(set(layer) ^ names)}")
    accounted = sum(traced["trace"]["layers"].values()) + traced["trace"]["bench_s"]
    require(abs(accounted - traced["wall_s"]) < 1e-6 * max(1.0, traced["wall_s"]),
            f"layer self times {accounted} do not add up to wall {traced['wall_s']}")
    require(layer["covers.enumerate_covers.covers"] == 720, "cover counter")
    require(all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"]), "missing unit")
    print(f"selftest: PASS ({plain['attempted']} checks, "
          f"wall {plain['wall_s']:.2f} s untraced, {traced['wall_s']:.2f} s traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
