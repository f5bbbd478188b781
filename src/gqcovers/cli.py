"""Command-line front end: constructions, derived pairs, covers, groups and
the reproducible verification suites.  Every command writes a JSON report
with a schema_version and a verdict; suites write a manifest whose content
is byte-identical across reruns apart from the timing block.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

import numpy as np

from . import covers as covers_mod
from .autgroup import (
    Permutation,
    automorphism_group,
    compare_derived_automorphisms,
    elementwise_kernel,
    extend_automorphism,
    higher_decomposition_check,
    setwise_stabilizer,
)
from .constructions import (
    QClanSpec,
    build_grid,
    build_H4_with_H3,
    build_kantor_knuth,
    build_Q4_with_Q3,
    build_Q5_with_Q3,
    build_Q5_with_Q4,
    build_W,
)
from .errors import BudgetExceeded
from .incidence import (
    GQOrder,
    IncidenceStructure,
    SubGeometryEmbedding,
    verify_gq_axioms,
)
from .kkcensus import census_report, enumerate_subgqs_through_line
from .spg import SPGParameters, expected_parameters, hypothesis_gate, verify_spg
from .subtension import build_derived_pair, theta_census

SCHEMA_VERSION = "1"


def _write_report(path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(payload, sort_keys=True, indent=1)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return payload


# -- construction with caching ----------------------------------------------------


def _cache_dir(args):
    return getattr(args, "cache", None) or os.environ.get("GQCOV_CACHE")


def build_family(family, q, sigma=None, m=None):
    """Geometry plus optional embedding for one of the supported families."""
    if family == "grid":
        return build_grid(q), None
    if family == "w":
        return build_W(q), None
    if family == "q4":
        from .constructions import build_Q4

        return build_Q4(q), None
    if family == "q5q4":
        return build_Q5_with_Q4(q)
    if family == "q4q3":
        return build_Q4_with_Q3(q)
    if family == "h4h3":
        return build_H4_with_H3(q)
    if family == "kk":
        gfq_sigma = 1 if sigma is None else sigma
        from .gf import field_of_order

        mm = m if m is not None else field_of_order(q).nonsquare()
        res = build_kantor_knuth(QClanSpec(q, gfq_sigma, mm))
        return res.structure, res
    raise ValueError(f"unknown family {family}")


def construct_cached(family, q, *, cache=None, no_build=False, sigma=None):
    """Family construction backed by the GQCOV_CACHE directory."""
    tag = f"{family}-{q}" + (f"-s{sigma}" if sigma is not None else "")
    geo_path = emb_path = None
    if cache:
        geo_path = os.path.join(cache, f"{tag}.json")
        emb_path = os.path.join(cache, f"{tag}.embedding.json")
        if os.path.exists(geo_path):
            g = IncidenceStructure.load(geo_path)
            emb = None
            if os.path.exists(emb_path):
                emb = SubGeometryEmbedding.load(emb_path, g)
            return g, emb
    if no_build:
        raise FileNotFoundError(
            f"construction {tag} not cached and --no-build was given"
        )
    g, extra = build_family(family, q, sigma=sigma)
    emb = extra if isinstance(extra, SubGeometryEmbedding) else None
    if cache:
        os.makedirs(cache, exist_ok=True)
        g.save(geo_path)
        if emb is not None:
            emb.save(emb_path)
    return g, emb


# -- subcommands ------------------------------------------------------------------


def cmd_construct(args):
    g, extra = build_family(args.family, args.q, sigma=args.sigma)
    order = verify_gq_axioms(g)
    if not isinstance(order, GQOrder):
        raise SystemExit(f"construction failed the axiom check: {order.message}")
    g.save(args.out)
    payload = {
        "verdict": "pass",
        "points": g.point_count,
        "lines": g.line_count,
        "order": list(order),
    }
    if isinstance(extra, SubGeometryEmbedding):
        companion = os.path.splitext(args.out)[0] + ".embedding.json"
        extra.save(companion)
        payload["embedding_file"] = companion
    elif extra is not None:  # Kantor-Knuth result
        payload["infinity_line"] = extra.infinity_line
        payload["classical"] = extra.classical
    _write_report(None, payload)
    return 0


def load_pair_dir(path):
    ambient = IncidenceStructure.load(os.path.join(path, "ambient.json"))
    emb = SubGeometryEmbedding.load(os.path.join(path, "embedding.json"), ambient)
    return build_derived_pair(emb)


def cmd_subtend(args):
    ambient = IncidenceStructure.load(args.ambient)
    emb = SubGeometryEmbedding.load(args.embedding, ambient)
    pair = build_derived_pair(emb)
    os.makedirs(args.out, exist_ok=True)
    ambient.save(os.path.join(args.out, "ambient.json"))
    emb.save(os.path.join(args.out, "embedding.json"))
    pair.A.save(os.path.join(args.out, "A.json"))
    pair.E.save(os.path.join(args.out, "E.json"))
    if pair.pi is not None:
        with open(os.path.join(args.out, "pi.json"), "w") as fh:
            json.dump(
                {"points": list(pair.pi.point_map), "lines": list(pair.pi.line_map)},
                fh,
            )
            fh.write("\n")
    report = {
        "verdict": "pass",
        "census": {str(k): v for k, v in sorted(pair.census.counts.items())},
        "uniform": pair.census.uniform,
        "is_cover": pair.is_cover,
        "A": [pair.A.point_count, pair.A.line_count],
        "E": [pair.E.point_count, pair.E.line_count],
    }
    _write_report(os.path.join(args.out, "census.json"), report)
    print(json.dumps(report))
    return 0


def _load_morphism(path, source, target):
    with open(path) as fh:
        data = json.load(fh)
    return covers_mod.GeometryMorphism(
        source, target, tuple(data["points"]), tuple(data["lines"])
    )


def cmd_factorize(args):
    pair = load_pair_dir(args.pair)
    gamma = _load_morphism(args.cover, pair.A, pair.E)
    f = covers_mod.factorize_lower(pair, gamma)
    _write_report(
        args.out,
        {
            "verdict": "pass",
            "e_point_perm": list(f.e_point_perm),
            "e_line_perm": list(f.e_line_perm),
            "base_point_map": list(f.base_point_map),
            "orientation": f.orientation,
        },
    )
    return 0


def cmd_enumerate_covers(args):
    pair = load_pair_dir(args.pair)
    found = covers_mod.enumerate_covers(pair.A, pair.E, node_budget=args.budget)
    _write_report(
        args.out,
        {
            "verdict": "pass",
            "count": len(found),
            "covers": [
                {"points": list(c.point_map), "lines": list(c.line_map)} for c in found
            ],
        },
    )
    return 0


def cmd_reconstruct(args):
    pair = load_pair_dir(args.pair)
    gamma = _load_morphism(args.cover, pair.A, pair.E)
    rec = covers_mod.reconstruct_from_cover(pair, pair.A, gamma)
    ident = covers_mod.identify_reconstructed_hyperplane(pair, rec)
    _write_report(
        args.out,
        {
            "verdict": "pass",
            "points": rec.quadrangle.point_count,
            "lines": rec.quadrangle.line_count,
            "identification": list(ident.as_sub_permutation),
        },
    )
    return 0


def cmd_transversal_config(args):
    pair = load_pair_dir(args.pair)
    theta = pair.census.theta
    singles = covers_mod.transversal_instances(
        pair, r_values=[1], samples=args.samples, seed=args.seed
    )
    multis = covers_mod.transversal_instances(
        pair, r_values=list(range(2, theta + 1)), samples=args.samples, seed=args.seed
    )
    single_planar = [covers_mod.instance_coplanar(pair, i) for i in singles]
    multi_planar = [covers_mod.instance_coplanar(pair, i) for i in multis]
    ok = all(single_planar) and not any(multi_planar)
    _write_report(
        args.out,
        {
            "verdict": "pass" if ok else "fail",
            "single_coplanar": sum(single_planar),
            "single_total": len(singles),
            "multi_coplanar": sum(multi_planar),
            "multi_total": len(multis),
        },
    )
    return 0 if ok else 1


def cmd_aut(args):
    g = IncidenceStructure.load(args.geometry)
    group = automorphism_group(g, node_budget=args.budget or 500_000)
    payload = {
        "verdict": "pass",
        "order": group.order(),
        "generators": [p.to_json_dict() for p in group.geometry_generators],
    }
    if args.stabilize:
        with open(args.stabilize) as fh:
            subset = json.load(fh)
        domain = set(subset.get("points", [])) | {
            g.point_count + li for li in subset.get("lines", [])
        }
        stab = setwise_stabilizer(group, domain)
        payload["stabilizer_order"] = stab.order()
    _write_report(args.out, payload)
    return 0


def cmd_extend(args):
    ambient = IncidenceStructure.load(args.ambient)
    emb = SubGeometryEmbedding.load(args.embedding, ambient)
    with open(args.phi) as fh:
        data = json.load(fh)
    phi = Permutation(emb.substructure, tuple(data["points"]), tuple(data["lines"]))
    rep = extend_automorphism(emb, phi, mode="find_all" if args.all else "find_one")
    _write_report(
        args.out,
        {
            "verdict": "pass" if rep.extensions else "fail",
            "extension_count": len(rep.extensions),
            "kernel_order": rep.kernel_order,
            "extensions": [p.to_json_dict() for p in rep.extensions],
        },
    )
    return 0


def cmd_spg_check(args):
    g = IncidenceStructure.load(args.geometry)
    expected = None
    if args.expect:
        s, t, a, m = (int(x) for x in args.expect.split(","))
        expected = SPGParameters(s, t, a, m)
    rep = verify_spg(g, expected)
    payload = {
        "verdict": "pass" if rep.ok else "fail",
        "parameters": list(rep.parameters.as_tuple()) if rep.parameters else None,
        "mu_vacuous": rep.mu_vacuous,
    }
    if rep.failure:
        payload["failure"] = {
            "axiom": rep.failure.axiom,
            "witness": list(rep.failure.witness),
            "message": rep.failure.message,
        }
    _write_report(args.out, payload)
    return 0 if rep.ok else 1


def cmd_kk_census(args):
    from .gf import field_of_order

    m = args.m if args.m is not None else field_of_order(args.q).nonsquare()
    res = build_kantor_knuth(QClanSpec(args.q, args.sigma, m))
    records = _enumerate_kk(res, args)
    report = census_report(records, q=args.q)
    payload = report.to_json_dict()
    payload["verdict"] = "pass"
    payload["classical"] = res.classical
    _write_report(args.out, payload)
    return 0


def _enumerate_kk(res, args):
    g = res.structure
    logger = (lambda msg: print(msg, flush=True)) if args.verbose else None
    return enumerate_subgqs_through_line(
        g,
        res.infinity_line,
        expected_total=args.q**3 + args.q**2,
        checkpoint_dir=args.checkpoint,
        log=logger,
    )


# -- suites -----------------------------------------------------------------------


def run_suite(name, *, out_dir=None, seed=0, budget=None, no_build=False, cache=None):
    """Run a named verification suite; returns (exit_status, manifest dict)."""
    start = time.time()
    verdicts = []
    timings = {}

    def check(label, fn):
        t0 = time.time()
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        timings[label] = round(time.time() - t0, 3)
        verdicts.append({"name": label, "pass": ok, "details": detail})

    suite_fns = {
        "lower-q2": _suite_lower_q2,
        "lower-q3": _suite_lower_q3,
        "spg-all": _suite_spg_all,
        "reconstruct": _suite_reconstruct,
        "extension-grid": _suite_extension_grid,
        "higher-q2q3": _suite_higher,
        "kk-q9": _suite_kk,
    }
    if name not in suite_fns:
        raise ValueError(f"unknown suite {name}; choose from {sorted(suite_fns)}")
    suite_fns[name](check, seed=seed, budget=budget, no_build=no_build, cache=cache)

    ok = all(v["pass"] for v in verdicts)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": f"run-suite {name}",
        "inputs": {},
        "params": {"seed": seed, "budget": budget},
        "verdicts": verdicts,
        "timings": {**timings, "total": round(time.time() - start, 3)},
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
    status = 0 if ok else 1
    if not ok:
        first = next(v for v in verdicts if not v["pass"])
        print(f"suite {name}: FAIL at {first['name']}: {first['details']}", file=sys.stderr)
    return status, manifest


def _suite_lower_q2(check, *, seed, budget, no_build, cache):
    amb, emb = construct_cached("q5q4", 2, cache=cache, no_build=no_build)
    pair = build_derived_pair(emb)

    def counts():
        assert (amb.point_count, amb.line_count) == (27, 45)
        assert (len(emb.point_subset), len(emb.line_subset)) == (15, 15)
        return "Q(5,2) 27/45 with 15/15 section"

    check("construction-counts", counts)
    found = {}

    def enum():
        found["covers"] = covers_mod.enumerate_covers(
            pair.A, pair.E, node_budget=budget or 2_000_000
        )
        group = automorphism_group(pair.E)
        assert len(found["covers"]) == group.order(), (
            len(found["covers"]),
            group.order(),
        )
        assert pair.pi in found["covers"]
        return f"{len(found['covers'])} covers == |Aut(E)|"

    check("cover-enumeration", enum)

    def factorizations():
        f0 = covers_mod.factorize_lower(pair, pair.pi)
        assert f0.e_point_perm == tuple(range(pair.E.point_count))
        assert f0.base_point_map == tuple(range(len(emb.point_subset)))
        orientations = set()
        for c in found["covers"]:
            orientations.add(covers_mod.factorize_lower(pair, c).orientation)
        return f"all factorized, orientations {sorted(orientations)}"

    check("lower-factorization", factorizations)

    def initial():
        covs = found["covers"]
        pts = np.array([c.point_map for c in covs])
        lns = np.array([c.line_map for c in covs])
        f = [covers_mod.factorize_lower(pair, c) for c in covs]
        pperm = np.array([x.e_point_perm for x in f])
        lperm = np.array([x.e_line_perm for x in f])
        inv_p = np.argsort(pperm, axis=1)
        inv_l = np.argsort(lperm, axis=1)
        for i in range(len(covs)):
            # delta(i -> j) = perm_j o perm_i^-1 must carry cover i to cover j
            dp = pperm[:, inv_p[i]]
            dl = lperm[:, inv_l[i]]
            assert (dp[:, pts[i]] == pts).all() and (dl[:, lns[i]] == lns).all()
            # inverse pairing: delta(i->j) inverse equals delta(j->i)
        k = min(25, len(covs))
        for i in range(k):
            for j in range(k):
                dij_p = pperm[j][inv_p[i]]
                dji_p = pperm[i][inv_p[j]]
                assert (dij_p[dji_p] == np.arange(dij_p.size)).all()
        return "unique connecting map for every ordered pair, inverse-compatible"

    check("initial-object", initial)


def _suite_lower_q3(check, *, seed, budget, no_build, cache):
    amb, emb = construct_cached("q5q4", 3, cache=cache, no_build=no_build)
    pair = build_derived_pair(emb)

    def canonical():
        f0 = covers_mod.factorize_lower(pair, pair.pi)
        assert f0.e_point_perm == tuple(range(pair.E.point_count))
        return "canonical cover factors through the identity"

    check("canonical-identity", canonical)

    def sampled():
        group = automorphism_group(pair.E)
        rng = random.Random(seed)
        for _ in range(5):
            alpha = Permutation.from_domain_perm(pair.E, group.random_element(rng))
            gamma = pair.pi.compose_perm_after(alpha.point_images, alpha.line_images)
            f = covers_mod.factorize_lower(pair, gamma)
            assert f.e_point_perm == alpha.point_images
            assert f.e_line_perm == alpha.line_images
        return "sampled automorphism-after-projection covers factor back exactly"

    check("sampled-factorization", sampled)


def _suite_spg_all(check, *, seed, budget, no_build, cache):
    cases = [
        ("q5q4", 2, (27, 45, 15, 15), (1, 4, 2, 4), 2),
        ("q5q4", 3, (112, 280, 40, 40), (2, 9, 2, 12), 2),
        ("h4h3", 2, (165, 297, 45, 27), (3, 8, 3, 18), 3),
    ]
    for family, q, counts, params, theta in cases:
        amb, emb = construct_cached(family, q, cache=cache, no_build=no_build)

        def one(amb=amb, emb=emb, counts=counts, params=params, theta=theta):
            assert (amb.point_count, amb.line_count) == counts[:2]
            assert (len(emb.point_subset), len(emb.line_subset)) == counts[2:]
            pair = build_derived_pair(emb)
            assert pair.census.uniform and pair.census.theta == theta
            gate = hypothesis_gate(emb, pair.census)
            assert gate.passes
            rep = verify_spg(pair.E, SPGParameters(*params))
            assert rep.ok and rep.parameters.as_tuple() == params
            return f"census theta={theta}, parameters {params}"

        check(f"spg-{family}-q{q}", one)

    def gate_fails():
        for q in (2, 3):
            _a, e = build_Q5_with_Q3(q)
            gate = hypothesis_gate(e, theta_census(e))
            assert not gate.passes
        return "grid embeddings fail the hypothesis gate"

    check("gate-negative", gate_fails)

    def census_table():
        expected = [
            (build_Q5_with_Q4, 2, 2),
            (build_Q5_with_Q4, 3, 2),
            (build_Q5_with_Q3, 2, 3),
            (build_Q5_with_Q3, 3, 4),
            (build_Q4_with_Q3, 2, 1),
            (build_Q4_with_Q3, 3, 2),
            (build_Q4_with_Q3, 4, 1),
            (build_H4_with_H3, 2, 3),
        ]
        for builder, q, theta in expected:
            _a, e = builder(q)
            c = theta_census(e)
            assert c.uniform and c.theta == theta, (builder.__name__, q, c.counts)
        return "all eight censuses uniform with the expected multiplicity"

    check("theta-census-table", census_table)


def _suite_reconstruct(check, *, seed, budget, no_build, cache):
    for q in (2, 3):
        amb, emb = construct_cached("q5q4", q, cache=cache, no_build=no_build)
        pair = build_derived_pair(emb)

        def canonical(amb=amb, pair=pair):
            rec = covers_mod.reconstruct_from_cover(pair, pair.A, pair.pi)
            iso = covers_mod.find_isomorphism(rec.quadrangle, amb)
            assert iso is not None
            return "rebuilt quadrangle isomorphic to the ambient"

        check(f"reconstruct-canonical-q{q}", canonical)

    amb, emb = construct_cached("q5q4", 2, cache=cache, no_build=no_build)
    pair = build_derived_pair(emb)

    def all_covers():
        covs = covers_mod.enumerate_covers(pair.A, pair.E)
        for c in covs:
            rec = covers_mod.reconstruct_from_cover(pair, pair.A, c)
            ident = covers_mod.identify_reconstructed_hyperplane(pair, rec)
            assert ident.ok
        return f"identification succeeded on all {len(covs)} covers"

    check("identify-all-q2", all_covers)

    for family, q in (("q5q4", 2), ("h4h3", 2)):
        ambX, embX = construct_cached(family, q, cache=cache, no_build=no_build)
        pairX = build_derived_pair(embX)

        def planarity(pair=pairX):
            theta = pair.census.theta
            singles = covers_mod.transversal_instances(
                pair, r_values=[1], samples=100, seed=seed
            )
            multis = covers_mod.transversal_instances(
                pair, r_values=list(range(2, theta + 1)), samples=100, seed=seed
            )
            sc = sum(covers_mod.instance_coplanar(pair, i) for i in singles)
            mc = sum(covers_mod.instance_coplanar(pair, i) for i in multis)
            assert sc == 100, f"{sc}/100 single-line instances coplanar"
            assert mc == 0, f"{mc}/100 multi-line instances coplanar"
            return "planarity dichotomy holds on 100 + 100 seeded samples"

        check(f"transversal-planarity-{family}", planarity)


def _suite_extension_grid(check, *, seed, budget, no_build, cache):
    def identity_case():
        _amb, emb = construct_cached("q5q4", 2, cache=cache, no_build=no_build)
        rep = extend_automorphism(emb, Permutation.identity(emb.substructure))
        assert len(rep.extensions) == 2 and rep.kernel_order == 2
        return "identity has exactly 2 extensions; kernel order 2"

    check("identity-two-extensions", identity_case)

    for s in (2, 3, 4):

        def order_check(s=s):
            import math

            G = automorphism_group(build_grid(s))
            expected = 2 * math.factorial(s + 1) ** 2
            assert G.order() == expected
            return f"|Aut(grid({s}))| = {expected}"

        check(f"grid-order-{s}", order_check)

    for s in (2, 3):

        def gens_extend(s=s):
            _amb, emb = construct_cached("q4q3", s, cache=cache, no_build=no_build)
            G = automorphism_group(emb.substructure)
            misses = []
            for gen in G.geometry_generators:
                rep = extend_automorphism(emb, gen, mode="find_one", compute_kernel=False)
                if not rep.extensions:
                    misses.append(gen)
            assert not misses, f"{len(misses)} of {len(G.geometry_generators)} generators do not extend"
            return "every generator extends"

        check(f"grid-generators-extend-{s}", gens_extend)

    def s4_negative():
        _amb, emb = construct_cached("q4q3", 4, cache=cache, no_build=no_build)
        G = automorphism_group(emb.substructure)
        missing = 0
        for gen in G.geometry_generators:
            rep = extend_automorphism(emb, gen, mode="find_one", compute_kernel=False)
            if not rep.extensions:
                missing += 1
        assert missing >= 1
        return f"{missing} generators admit no extension"

    check("grid4-nonextension", s4_negative)


def _suite_higher(check, *, seed, budget, no_build, cache):
    for q in (2, 3):
        amb, emb = construct_cached("q5q4", q, cache=cache, no_build=no_build)
        pair = build_derived_pair(emb)

        def higher(pair=pair, q=q):
            group = automorphism_group(pair.E)
            rng = random.Random(seed)
            alpha = Permutation.from_domain_perm(pair.E, group.random_element(rng))
            gamma = pair.pi.compose_perm_after(alpha.point_images, alpha.line_images)
            rep = higher_decomposition_check(pair, cover=gamma)
            assert rep.verdict and rep.cover_lift is not None
            return f"verdict true over {rep.generators_checked} generators; witness verified"

        check(f"higher-decomposition-q{q}", higher)

        def two_ways(pair=pair):
            rep = compare_derived_automorphisms(pair)
            assert rep.equal
            return f"both computations give order {rep.direct_order}"

        check(f"derived-aut-two-ways-q{q}", two_ways)


def _suite_kk(check, *, seed, budget, no_build, cache):
    def census():
        from .gf import field_of_order

        m = field_of_order(9).nonsquare()
        res = build_kantor_knuth(QClanSpec(9, 1, m))
        assert not res.classical
        order = verify_gq_axioms(res.structure)
        assert order == GQOrder(9, 81)
        ck = os.environ.get("GQCOV_KK_CHECKPOINT")
        records = enumerate_subgqs_through_line(
            res.structure, res.infinity_line, expected_total=810, checkpoint_dir=ck
        )
        report = census_report(records, q=9)
        assert report.omega1 == 162 and report.omega2 == 648
        assert set(report.one_subtended_per_omega2) == {6480}
        return "810 subquadrangles: 162 + 648, each of the 648 with 6480 one-subtended ovoids"

    check("kk-census-q9", census)


def cmd_run_suite(args):
    status, manifest = run_suite(
        args.name,
        out_dir=args.out,
        seed=args.seed,
        budget=args.budget,
        no_build=args.no_build,
        cache=_cache_dir(args),
    )
    print(json.dumps(manifest["verdicts"], indent=1))
    return status


# -- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="gqcov", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a geometry family")
    c.add_argument("--family", required=True,
                   choices=["grid", "w", "q4", "q5q4", "q4q3", "h4h3", "kk"])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--sigma", type=int, default=None)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("subtend", help="derived pair of an embedding")
    c.add_argument("--ambient", required=True)
    c.add_argument("--embedding", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_subtend)

    c = sub.add_parser("factorize", help="factor a cover through the projection")
    c.add_argument("--pair", required=True)
    c.add_argument("--cover", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_factorize)

    c = sub.add_parser("enumerate-covers", help="all covers of the derived pair")
    c.add_argument("--pair", required=True)
    c.add_argument("--budget", type=int, default=2_000_000)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_enumerate_covers)

    c = sub.add_parser("reconstruct", help="rebuild the quadrangle from a cover")
    c.add_argument("--pair", required=True)
    c.add_argument("--cover", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_reconstruct)

    c = sub.add_parser("transversal-config", help="planarity of transversal configurations")
    c.add_argument("--pair", required=True)
    c.add_argument("--samples", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_transversal_config)

    c = sub.add_parser("aut", help="automorphism group of a geometry")
    c.add_argument("--geometry", required=True)
    c.add_argument("--stabilize", default=None)
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_aut)

    c = sub.add_parser("extend", help="extend a subgeometry automorphism")
    c.add_argument("--ambient", required=True)
    c.add_argument("--embedding", required=True)
    c.add_argument("--phi", required=True)
    c.add_argument("--all", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_extend)

    c = sub.add_parser("spg-check", help="semipartial geometry parameters")
    c.add_argument("--geometry", required=True)
    c.add_argument("--expect", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_spg_check)

    c = sub.add_parser("kk-census", help="subquadrangle census through the fixed line")
    c.add_argument("--q", type=int, default=9)
    c.add_argument("--sigma", type=int, default=1)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--checkpoint", default=None)
    c.add_argument("--verbose", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_kk_census)

    c = sub.add_parser("run-suite", help="named verification suite")
    c.add_argument("--name", required=True)
    c.add_argument("--out", default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--no-build", action="store_true")
    c.add_argument("--cache", default=None)
    c.set_defaults(fn=cmd_run_suite)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
