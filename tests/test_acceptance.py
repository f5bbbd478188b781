"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact integer or combinatorial equalities.  Two sub-clauses
are expected red and carry an explanation in their assertion message: the
multi-line planarity clause on the Hermitian pair (criterion 7) and the
grid(3) generator-extension clause (criterion 8); both assert exactly what
the criterion states and fail because the advertised facts are false, with
machine-checked counterexamples (see the failure messages).
"""

import math
import os
import random

import numpy as np
import pytest

from gqcovers.autgroup import (
    Permutation,
    automorphism_group,
    compare_derived_automorphisms,
    elementwise_kernel,
    extend_automorphism,
    higher_decomposition_check,
)
from gqcovers.constructions import (
    QClanSpec,
    build_grid,
    build_H4_with_H3,
    build_kantor_knuth,
    build_Q4_with_Q3,
    build_Q5_with_Q3,
    build_Q5_with_Q4,
    build_W,
)
from gqcovers.covers import (
    enumerate_covers,
    factorize_lower,
    find_isomorphism,
    identify_reconstructed_hyperplane,
    instance_coplanar,
    reconstruct_from_cover,
    transversal_instances,
)
from gqcovers.incidence import GQOrder, verify_gq_axioms
from gqcovers.kkcensus import census_report, enumerate_subgqs_through_line
from gqcovers.spg import SPGParameters, hypothesis_gate, verify_spg
from gqcovers.subtension import build_derived_pair, theta_census


def report(criterion, ok, detail):
    """Print a criterion's verdict; ok=None marks a skipped criterion."""
    verdict = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {verdict} - {detail}")
    return ok


def test_criterion_01_constructions(q5q4_2, q5q4_3, h4h3):
    amb2, emb2 = q5q4_2
    amb3, emb3 = q5q4_3
    ambh, embh = h4h3
    checks = [
        (amb2.point_count, 27),
        (amb2.line_count, 45),
        (len(emb2.point_subset), 15),
        (len(emb2.line_subset), 15),
        (amb3.point_count, 112),
        (amb3.line_count, 280),
        (len(emb3.point_subset), 40),
        (len(emb3.line_subset), 40),
        (ambh.point_count, 165),
        (embh.sub_order, GQOrder(4, 2)),
        (verify_gq_axioms(amb2), GQOrder(2, 4)),
        (verify_gq_axioms(amb3), GQOrder(3, 9)),
        (verify_gq_axioms(ambh), GQOrder(4, 8)),
        (verify_gq_axioms(emb2.substructure), GQOrder(2, 2)),
        (verify_gq_axioms(emb3.substructure), GQOrder(3, 3)),
        (verify_gq_axioms(build_grid(2)), GQOrder(2, 1)),
        (verify_gq_axioms(build_W(2)), GQOrder(2, 2)),
        (verify_gq_axioms(build_W(3)), GQOrder(3, 3)),
    ]
    bad = [(a, b) for a, b in checks if a != b]
    assert report(1, not bad, f"{len(checks)} count/order identities" if not bad else str(bad))


def test_criterion_02_theta_census():
    table = [
        (build_Q5_with_Q4, 2, 2),
        (build_Q5_with_Q4, 3, 2),
        (build_Q5_with_Q3, 2, 3),
        (build_Q5_with_Q3, 3, 4),
        (build_Q4_with_Q3, 3, 2),
        (build_Q4_with_Q3, 2, 1),
        (build_Q4_with_Q3, 4, 1),
        (build_H4_with_H3, 2, 3),
    ]
    bad = []
    for builder, q, theta in table:
        _amb, emb = builder(q)
        census = theta_census(emb)
        if not (census.uniform and census.theta == theta):
            bad.append((builder.__name__, q, census.counts))
    assert report(2, not bad, "eight uniform censuses" if not bad else str(bad))


@pytest.fixture(scope="module")
def covers_q2(pair_q2):
    return enumerate_covers(pair_q2.A, pair_q2.E)


@pytest.fixture(scope="module")
def factorizations_q2(pair_q2, covers_q2):
    return [factorize_lower(pair_q2, c) for c in covers_q2]


def test_criterion_03_lower_decomposition(pair_q2, covers_q2, factorizations_q2):
    group = automorphism_group(pair_q2.E)
    ok = len(covers_q2) == group.order()
    f0 = factorize_lower(pair_q2, pair_q2.pi)
    ok &= f0.e_point_perm == tuple(range(6)) and f0.e_line_perm == tuple(range(15))
    # exactness gamma = alpha o pi holds for every cover (factorize_lower
    # raises otherwise; recheck explicitly)
    for gamma, f in zip(covers_q2, factorizations_q2):
        for p in range(pair_q2.A.point_count):
            ok &= f.e_point_perm[pair_q2.pi.point_map[p]] == gamma.point_map[p]
    assert report(
        3, ok, f"{len(covers_q2)} covers enumerated == |Aut(E)| = {group.order()}, all factor exactly"
    )


def test_criterion_04_initial_object(pair_q2, covers_q2, factorizations_q2):
    n = len(covers_q2)
    pts = np.array([c.point_map for c in covers_q2], dtype=np.int8)
    lns = np.array([c.line_map for c in covers_q2], dtype=np.int8)
    npts, nlns = pair_q2.E.point_count, pair_q2.E.line_count

    deltas_p = np.empty((n, n, npts), dtype=np.int8)
    deltas_l = np.empty((n, n, nlns), dtype=np.int8)
    ok = True
    for i in range(n):
        # forced connecting maps from cover i to all covers at once
        dp = np.full((n, npts), -1, dtype=np.int8)
        dp[:, pts[i]] = pts
        ok &= bool((dp[:, pts[i]] == pts).all()) and not (dp < 0).any()
        dl = np.full((n, nlns), -1, dtype=np.int8)
        dl[:, lns[i]] = lns
        ok &= bool((dl[:, lns[i]] == lns).all()) and not (dl < 0).any()
        deltas_p[i] = dp
        deltas_l[i] = dl
    # delta(i,j) must invert delta(j,i)
    ident = np.arange(npts, dtype=np.int8)
    for i in range(n):
        composed = np.take_along_axis(deltas_p[i], deltas_p[:, i].astype(np.intp), axis=1)
        ok &= bool((composed == ident).all())
    assert report(4, ok, f"unique connecting map for all {n}x{n} ordered pairs, inverse-compatible")


def test_criterion_05_spg(pair_q2, pair_q3, pair_h):
    cases = [
        (pair_q2, (1, 4, 2, 4)),
        (pair_q3, (2, 9, 2, 12)),
        (pair_h, (3, 8, 3, 18)),
    ]
    ok = True
    for pair, params in cases:
        gate = hypothesis_gate(pair.embedding, pair.census)
        rep = verify_spg(pair.E, SPGParameters(*params))
        ok &= gate.passes and rep.ok and rep.parameters.as_tuple() == params
    for q in (2, 3):
        _amb, emb = build_Q5_with_Q3(q)
        ok &= not hypothesis_gate(emb, theta_census(emb)).passes
    assert report(5, ok, "(1,4,2,4), (2,9,2,12), (3,8,3,18); gate passes exactly there")


def test_criterion_06_reconstruction(pair_q2, pair_q3, q5q4_2, q5q4_3, covers_q2):
    ok = True
    for pair, (amb, _e) in ((pair_q2, q5q4_2), (pair_q3, q5q4_3)):
        rec = reconstruct_from_cover(pair, pair.A, pair.pi)
        ok &= find_isomorphism(rec.quadrangle, amb) is not None
    identified = 0
    for gamma in covers_q2:
        rec = reconstruct_from_cover(pair_q2, pair_q2.A, gamma)
        ident = identify_reconstructed_hyperplane(pair_q2, rec)
        identified += ident.ok
    ok &= identified == len(covers_q2)
    assert report(
        6, ok, f"canonical covers rebuild the ambient at q=2,3; identification on {identified}/720 covers"
    )


def test_criterion_07_transversal_planarity(pair_q2, pair_h):
    results = {}
    for label, pair in (("q5q4", pair_q2), ("h4h3", pair_h)):
        theta = pair.census.theta
        ones = transversal_instances(pair, r_values=[1], samples=100, seed=0)
        multi = transversal_instances(
            pair, r_values=list(range(2, theta + 1)), samples=100, seed=0
        )
        results[label] = (
            sum(instance_coplanar(pair, i) for i in ones),
            sum(instance_coplanar(pair, i) for i in multi),
        )
    ok = all(v == (100, 0) for v in results.values())
    report(7, ok, f"single/multi coplanar counts {results}")
    assert ok, (
        f"multi-line instances must never be coplanar, got {results}. "
        "The Hermitian clause is a documented erratum: plain-variant |M|=2 "
        "configurations sit in two planes meeting in a line through the base "
        "transversal's point, and their s+1 marked points are coplanar for "
        "about 29% of valid seeded samples (each violator passes an "
        "independent hypothesis validator and a span-enumeration rank oracle)."
    )


def test_criterion_08_extension(q5q4_2):
    _amb, emb = q5q4_2
    rep = extend_automorphism(emb, Permutation.identity(emb.substructure))
    ok = len(rep.extensions) == 2 and rep.kernel_order == 2
    amb_group = automorphism_group(emb.ambient)
    ok &= elementwise_kernel(amb_group, emb).order() == 2

    orders_ok = all(
        automorphism_group(build_grid(s)).order() == 2 * math.factorial(s + 1) ** 2
        for s in (2, 3, 4)
    )
    ok &= orders_ok

    _amb4, emb4 = build_Q4_with_Q3(4)
    g4 = automorphism_group(emb4.substructure)
    missing4 = sum(
        not extend_automorphism(emb4, gen, mode="find_one", compute_kernel=False).extensions
        for gen in g4.geometry_generators
    )
    ok &= missing4 >= 1

    failures = {}
    for s in (2, 3):
        _ambs, embs = build_Q4_with_Q3(s)
        G = automorphism_group(embs.substructure)
        misses = sum(
            not extend_automorphism(embs, gen, mode="find_one", compute_kernel=False).extensions
            for gen in G.geometry_generators
        )
        failures[s] = (misses, len(G.geometry_generators))
    generators_ok = all(m == 0 for m, _n in failures.values())
    ok &= generators_ok
    report(
        8,
        ok,
        f"identity extensions 2/kernel 2: yes; grid orders: {orders_ok}; "
        f"s=4 non-extension witnesses: {missing4}; generator extension misses {failures}",
    )
    assert ok, (
        f"every generator of Aut(grid(s)) must extend for s in {{2,3}}, got misses {failures}. "
        "The s=3 clause is a documented erratum: only 576 of the 1152 grid(3) "
        "automorphisms extend into Q(4,3) (exhaustively verified; the grid "
        "stabilizer has order 1152 with elementwise kernel 2, and extensions "
        "must preserve the 12 subtended ovoids among all 24, which the "
        "ovoid-transitive Aut(grid(3)) cannot), so no generating set can "
        "consist of extendable elements only."
    )


def test_criterion_09_higher_decomposition(pair_q2, pair_q3):
    ok = True
    for pair in (pair_q2, pair_q3):
        group = automorphism_group(pair.E)
        rng = random.Random(0)
        alpha = Permutation.from_domain_perm(pair.E, group.random_element(rng))
        gamma = pair.pi.compose_perm_after(alpha.point_images, alpha.line_images)
        rep = higher_decomposition_check(pair, cover=gamma)
        ok &= rep.verdict and rep.cover_lift is not None
    assert report(9, ok, "verdict true at q=2,3 with verified projection witnesses")


def test_criterion_10_derived_aut_crosscheck(pair_q2, pair_q3):
    r2 = compare_derived_automorphisms(pair_q2)
    r3 = compare_derived_automorphisms(pair_q3)
    ok = r2.equal and r3.equal and r2.direct_order == 720
    assert report(
        10, ok, f"orders {r2.direct_order} and {r3.direct_order}, equal as groups on the ovoids"
    )


@pytest.mark.slow
def test_criterion_11_kantor_knuth_census():
    if not os.environ.get("GQCOV_RUN_KK"):
        report(11, None, "skipped (set GQCOV_RUN_KK=1 or run `gqcov run-suite --name kk-q9`)")
        pytest.skip("stretch criterion; enable with GQCOV_RUN_KK=1")
    res = build_kantor_knuth(QClanSpec(q=9, sigma_exp=1, m=3))
    assert not res.classical
    assert verify_gq_axioms(res.structure) == GQOrder(9, 81)
    records = enumerate_subgqs_through_line(
        res.structure,
        res.infinity_line,
        expected_total=810,
        checkpoint_dir=os.environ.get("GQCOV_KK_CHECKPOINT"),
    )
    rep = census_report(records, q=9)
    ok = (
        rep.total == 810
        and rep.omega1 == 162
        and rep.omega2 == 648
        and set(rep.one_subtended_per_omega2) == {6480}
    )
    assert report(
        11, ok, f"total {rep.total}, doubly subtended {rep.omega1}, rest {rep.omega2}, "
        f"one-subtended counts {set(rep.one_subtended_per_omega2)}"
    )
