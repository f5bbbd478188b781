"""One run of one benchmark workload, in the calling process.

Each workload calls the public library functions directly, the way the
suites in ``gqcovers.cli`` do, and checks every output against the table in
``expected.py``.  The seed relabels the points of every input geometry (lines
follow, in the canonical sorted order) together with its embedding,
coordinates and Kantor-Knuth infinity line; the program only sees the
relabelled files, loaded with the library's own loaders.  Seed 0 keeps the
labelling the constructions produce.  Relabelling and writing the files are
not timed; everything else from the first library call to the verdict is.

Run as a script it executes one workload and writes the result as JSON:

    PYTHONPATH=src:bench python3 bench/workloads.py --workload classical \
        --seed 0 [--iteration 0] --workdir work --out result.json [--trace]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import sys
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from expected import EXPECTED, THETA_TABLE
from gqcovers import autgroup, constructions, covers, gf, incidence, kkcensus, spg, subtension

# records of the q=9 census whose subtender census is timed; sets the length
# of the kk-q9 workload
KK_CENSUS_PREFIX = 200


class Clock:
    """Wall and CPU time of the timed region, excluding paused stretches."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self._t0 = self._c0 = None

    def start(self):
        self._t0, self._c0 = time.perf_counter(), time.process_time()

    def stop(self):
        self.wall += time.perf_counter() - self._t0
        self.cpu += time.process_time() - self._c0
        self._t0 = self._c0 = None

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()


class Checks:
    """Output checks against the expected table; failures feed fail_frac."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def value(self, key):
        return self.expected[key].value

    def run(self, keys, fn):
        """Call fn, which returns {key: actual}; a raise fails every key."""
        try:
            actual = fn()
        except Exception as exc:  # a raising library call is a failed check
            for key in keys:
                self._record(key, None, f"raised {type(exc).__name__}: {exc}")
            return
        for key in keys:
            self._record(key, actual.get(key), None)

    def _record(self, key, actual, error):
        self.attempted += 1
        entry = self.expected[key]
        if error is None and actual == entry.value:
            return
        self.failures.append({
            "check": key,
            "mirrors": entry.mirrors,
            "expected": repr(entry.value),
            "actual": error or repr(actual),
        })


class Relabeller:
    """Seeded relabelling of input geometries, written to files in workdir.

    Repeated runs of one seed (``iteration`` 1, 2, ...) draw fresh
    labellings from the same seed, so a run's median averages over them."""

    def __init__(self, seed, workdir, iteration=0):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, iteration])
        self.count = 0

    def write(self, g, emb=None, line=None, relabel=True):
        """Files for the relabelled geometry (and embedding); returns the
        geometry path, the embedding path or None, and the new index of
        `line`."""
        n = g.point_count
        perm = self.rng.permutation(n) if self.seed and relabel else np.arange(n)
        moved = [tuple(sorted(perm[list(ln)].tolist())) for ln in g.lines]
        order = sorted(range(len(moved)), key=moved.__getitem__)
        line_map = np.empty(len(order), dtype=np.int64)
        line_map[order] = np.arange(len(order))
        data = g.to_json_dict()
        data["lines"] = [list(moved[i]) for i in order]
        if g.coords is not None:
            coords = [None] * n
            for p, c in enumerate(g.coords):
                coords[perm[p]] = list(c)
            data["coords"] = coords
        self.count += 1
        geo_path = os.path.join(self.workdir, f"geometry-{self.count}.json")
        with open(geo_path, "w") as fh:
            json.dump(data, fh)
        emb_path = None
        if emb is not None:
            emb_path = os.path.join(self.workdir, f"geometry-{self.count}.embedding.json")
            with open(emb_path, "w") as fh:
                json.dump({
                    "points": sorted(perm[list(emb.point_subset)].tolist()),
                    "lines": sorted(line_map[list(emb.line_subset)].tolist()),
                }, fh)
        new_line = None if line is None else int(line_map[line])
        return geo_path, emb_path, new_line


class Context:
    def __init__(self, seed, workdir, expected=EXPECTED, iteration=0):
        self.seed = seed
        self.workdir = workdir
        self.clock = Clock()
        self.checks = Checks(expected)
        self.relabel = Relabeller(seed, workdir, iteration)
        self.counters = {}

    def load(self, built, line=None, relabel=True):
        """Relabel a construction result (untimed), then load the files."""
        g, emb = built if isinstance(built, tuple) else (built, None)
        with self.clock.paused():
            geo_path, emb_path, new_line = self.relabel.write(g, emb, line, relabel)
        g = incidence.IncidenceStructure.load(geo_path)
        emb = incidence.SubGeometryEmbedding.load(emb_path, g) if emb_path else None
        return g, emb, new_line


def _orders(amb, emb):
    return (tuple(incidence.verify_gq_axioms(amb)),
            tuple(incidence.verify_gq_axioms(emb.substructure)))


# -- classical ---------------------------------------------------------------------


def classical(ctx, small=False):
    """Suites lower-q2, reconstruct, spg-all, extension-grid and higher-q2q3;
    with small=True only the q=2 part."""
    checks = ctx.checks
    sections = {}
    for q in (2,) if small else (2, 3, 4):
        amb, emb, _ = ctx.load(constructions.build_Q5_with_Q4(q))
        checks.run([f"axioms.Q5Q4.{q}"], lambda: {f"axioms.Q5Q4.{q}": _orders(amb, emb)})
        sections[("build_Q5_with_Q4", q)] = emb
    spg_cases = [("Q5Q4", 2)] if small else [("Q5Q4", 2), ("Q5Q4", 3), ("H4H3", 2)]
    if not small:
        q55, _, _ = ctx.load(constructions.build_Q5(5))
        checks.run(["axioms.Q5.5"],
                   lambda: {"axioms.Q5.5": tuple(incidence.verify_gq_axioms(q55))})
        amb, emb, _ = ctx.load(constructions.build_H4_with_H3(2))
        checks.run(["axioms.H4H3.2"], lambda: {"axioms.H4H3.2": _orders(amb, emb)})
        sections[("build_H4_with_H3", 2)] = emb

    pairs = {}
    for fam, q in spg_cases:
        key = f"spg.{fam}.{q}"
        emb = sections[("build_Q5_with_Q4" if fam == "Q5Q4" else "build_H4_with_H3", q)]

        def derive(key=key, fam=fam, q=q, emb=emb):
            pair = subtension.build_derived_pair(emb)
            pairs[(fam, q)] = pair
            gate = spg.hypothesis_gate(emb, pair.census)
            rep = spg.verify_spg(pair.E, spg.SPGParameters(*checks.value(key)[2]))
            params = rep.parameters.as_tuple() if rep.ok else None
            return {key: (pair.census.theta if pair.census.uniform else None, gate.passes, params)}

        checks.run([key], derive)

    # theta-census table over every section family
    for (name, q), _theta in THETA_TABLE.items():
        if small and q != 2:
            continue
        key = f"theta.{name}.{q}"

        def census(key=key, name=name, q=q):
            emb = sections.get((name, q))
            if emb is None:
                _amb, emb, _ = ctx.load(getattr(constructions, name)(q))
                sections[(name, q)] = emb
            c = subtension.theta_census(emb)
            return {key: c.theta if c.uniform else None}

        checks.run([key], census)
    if not small:
        def gate_negative():
            fails = [
                spg.hypothesis_gate(e, subtension.theta_census(e)).passes
                for e in (sections[("build_Q5_with_Q3", q)] for q in (2, 3))
            ]
            return {"gate.Q5Q3": any(fails)}

        checks.run(["gate.Q5Q3"], gate_negative)

    _covers_q2(ctx, pairs.get(("Q5Q4", 2)))
    for fam, q in [("Q5Q4", 2)] if small else [("Q5Q4", 2), ("Q5Q4", 3)]:
        key = f"reconstruct.q{q}"

        def rebuild(key=key, pair=pairs.get((fam, q))):
            rec = covers.reconstruct_from_cover(pair, pair.A, pair.pi)
            iso = covers.find_isomorphism(rec.quadrangle, pair.embedding.ambient)
            return {key: iso is not None}

        checks.run([key], rebuild)
    for fam, q in [c for c in spg_cases if c != ("Q5Q4", 3)]:
        _transversals(ctx, fam, pairs.get((fam, q)))
    if not small:
        _extension_grid3(ctx)
    for q in (2,) if small else (2, 3):
        key = f"higher.q{q}"

        def higher(key=key, pair=pairs.get(("Q5Q4", q))):
            group = autgroup.automorphism_group(pair.E)
            alpha = autgroup.Permutation.from_domain_perm(
                pair.E, group.random_element(random.Random(ctx.seed))
            )
            gamma = pair.pi.compose_perm_after(alpha.point_images, alpha.line_images)
            rep = autgroup.higher_decomposition_check(pair, cover=gamma)
            return {key: bool(rep.verdict and rep.cover_lift is not None)}

        checks.run([key], higher)


def _covers_q2(ctx, pair):
    keys = ["covers.q2", "covers.q2.aut_e", "covers.q2.canonical_found",
            "covers.q2.factorized", "covers.q2.identified"]

    def run():
        found = covers.enumerate_covers(pair.A, pair.E)
        aut_e = autgroup.automorphism_group(pair.E).order()
        pi_points = pair.pi.point_map
        exact = identified = 0
        for gamma in found:
            f = covers.factorize_lower(pair, gamma)
            exact += all(
                f.e_point_perm[pi_points[p]] == gamma.point_map[p]
                for p in range(pair.A.point_count)
            )
            rec = covers.reconstruct_from_cover(pair, pair.A, gamma)
            identified += covers.identify_reconstructed_hyperplane(pair, rec).ok
        return dict(zip(keys, (len(found), aut_e, pair.pi in found, exact, identified)))

    ctx.checks.run(keys, run)


def _transversals(ctx, fam, pair):
    keys = [f"transversal.{fam}.single",
            f"transversal.{fam}.multi" if fam == "Q5Q4" else f"transversal.{fam}.multi_inside"]

    def run():
        theta = pair.census.theta
        singles = covers.transversal_instances(pair, r_values=[1], samples=100, seed=ctx.seed)
        multis = covers.transversal_instances(
            pair, r_values=list(range(2, theta + 1)), samples=100, seed=ctx.seed
        )
        sc = sum(covers.instance_coplanar(pair, i) for i in singles)
        mc = sum(covers.instance_coplanar(pair, i) for i in multis)
        multi = mc if fam == "Q5Q4" else 0 < mc < len(multis)
        return dict(zip(keys, (sc, multi)))

    ctx.checks.run(keys, run)


def _extension_grid3(ctx):
    keys = ["extension.grid3.order", "extension.grid3.extendable"]

    def run():
        _amb, emb, _ = ctx.load(constructions.build_Q4_with_Q3(3))
        group = autgroup.automorphism_group(emb.substructure)
        extendable = 0
        for el in group.elements(cap=2000):
            phi = autgroup.Permutation.from_domain_perm(emb.substructure, el)
            rep = autgroup.extend_automorphism(emb, phi, mode="find_one", compute_kernel=False)
            extendable += bool(rep.extensions)
        return dict(zip(keys, (group.order(), extendable)))

    ctx.checks.run(keys, run)


# -- groups ------------------------------------------------------------------------


def groups(ctx):
    """Automorphism groups, a setwise stabilizer with its induced action, and
    the two-way derived-group comparison."""
    checks = ctx.checks
    # The search trees of these two full-group computations vary with the
    # labelling (151 to 220 nodes, 8.8 to 18.1 s for Q(5,3) over ten
    # labellings), which would swamp any change to the code in the run-to-run
    # spread; they keep the constructions' labelling on every seed.
    q44, _, _ = ctx.load(constructions.build_Q4(4), relabel=False)
    checks.run(["aut.Q4.4"], lambda: {
        "aut.Q4.4": autgroup.automorphism_group(q44, node_budget=2_000_000).order()
    })
    q53, _, _ = ctx.load(constructions.build_Q5(3), relabel=False)
    checks.run(["aut.Q5.3"], lambda: {"aut.Q5.3": autgroup.automorphism_group(q53).order()})

    keys = ["aut.Q4.3", "stab.grid3.order", "stab.grid3.image", "stab.grid3.kernel"]

    def stabilizer():
        amb, emb, _ = ctx.load(constructions.build_Q4_with_Q3(3))
        group = autgroup.automorphism_group(amb)
        n = amb.point_count
        domain = set(emb.point_subset) | {n + li for li in emb.line_subset}
        stab = autgroup.setwise_stabilizer(group, domain)
        act = autgroup.induced_action_on_sub(stab, emb)
        return dict(zip(keys, (group.order(), stab.order(), act.group.order(), act.kernel_order)))

    checks.run(keys, stabilizer)
    for q in (2, 3):
        key = f"derived_aut.q{q}"

        def two_ways(key=key, q=q):
            _amb, emb, _ = ctx.load(constructions.build_Q5_with_Q4(q))
            pair = subtension.build_derived_pair(emb)
            rep = autgroup.compare_derived_automorphisms(pair)
            return {key: (rep.equal, rep.direct_order)}

        checks.run([key], two_ways)


# -- kk-q9 -------------------------------------------------------------------------


def kk_q9(ctx):
    """KK(9): axioms, the census enumeration over every seed pair with a
    checkpoint, and the subtender census of a fixed prefix of the records."""
    checks = ctx.checks
    records = []

    def enumerate_census():
        m = gf.field_of_order(9).nonsquare()
        res = constructions.build_kantor_knuth(constructions.QClanSpec(9, 1, m))
        g, _, infinity = ctx.load(res.structure, line=res.infinity_line)
        order = tuple(incidence.verify_gq_axioms(g))
        with ctx.clock.paused():
            checkpoint = tempfile.mkdtemp(prefix="checkpoint-", dir=ctx.workdir)
        log = []
        records.extend(kkcensus.enumerate_subgqs_through_line(
            g, infinity, expected_total=810, checkpoint_dir=checkpoint, log=log.append
        ))
        with ctx.clock.paused():
            ctx.counters["kk.log"] = log[-1] if log else ""
            ctx.counters["kk.checkpoint_bytes"] = sum(
                os.path.getsize(os.path.join(checkpoint, f)) for f in os.listdir(checkpoint)
            )
            ctx.counters["kk.records"] = len(records)
        return {"kk.axioms": order, "kk.classical": res.classical, "kk.records": len(records)}

    checks.run(["kk.axioms", "kk.classical", "kk.records"], enumerate_census)

    def census():
        ok = bool(records)
        for rec in records[:KK_CENSUS_PREFIX]:
            kkcensus.record_census(rec, s=9, tprime=9)
            ok &= rec.doubly_subtended or rec.one_subtended_ovoid_count == 6480
        return {"kk.record_census": ok}

    checks.run(["kk.record_census"], census)


WORKLOADS = {"classical": classical, "groups": groups, "kk-q9": kk_q9}


def run_once(workload, seed, workdir, *, iteration=0, small=False, expected=EXPECTED,
             tracer=None):
    """Run one workload; returns the result dictionary.  small=True runs
    only the q=2 part of the classical workload."""
    ctx = Context(seed, workdir, expected, iteration)
    body = functools.partial(classical, small=True) if small else WORKLOADS[workload]
    ctx.clock.start()
    body(ctx)
    ctx.clock.stop()
    result = {
        "workload": workload,
        "seed": seed,
        "iteration": iteration,
        "wall_s": ctx.clock.wall,
        "cpu_s": ctx.clock.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ctx.checks.attempted,
        "failures": ctx.checks.failures,
        "counters": ctx.counters,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(ctx.clock.wall)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    result = run_once(args.workload, args.seed, args.workdir, iteration=args.iteration,
                      tracer=tracer)
    if tracer is not None:
        result["spans_file"] = tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
