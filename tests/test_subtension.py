import runpy
from pathlib import Path

import pytest

from gqcovers import constructions
from gqcovers.constructions import (
    THETA_TABLE,
    build_Q4_with_Q3,
    build_Q5_with_Q3,
    build_Q5_with_Q4,
)
from gqcovers.errors import HypothesisError
from gqcovers.incidence import IncidenceStructure
from gqcovers.subtension import (
    build_derived_pair,
    check_outside_contacts,
    check_ovoid_intersections,
    subtended_ovoid,
    theta_census,
)

from .oracles import brute_census


def test_subtended_ovoid_q2(q5q4_2):
    _amb, emb = q5q4_2
    ov = subtended_ovoid(emb, emb.external_points[0])
    assert len(ov.points) == 5
    assert len(ov.subtenders) == 2


def test_subtended_ovoid_rejects_inner_point(q5q4_2):
    _amb, emb = q5q4_2
    with pytest.raises(ValueError):
        subtended_ovoid(emb, emb.point_subset[0])


def test_single_subtender_even_grid():
    _amb, emb = build_Q4_with_Q3(2)
    ov = subtended_ovoid(emb, emb.external_points[0])
    assert len(ov.subtenders) == 1


def test_hermitian_three_subtenders(h4h3):
    _amb, emb = h4h3
    ov = subtended_ovoid(emb, emb.external_points[0])
    assert len(ov.subtenders) == 3


THETA_CASES = [(name, q, theta) for (name, q), theta in THETA_TABLE.items()]


@pytest.mark.parametrize("builder,q,theta", THETA_CASES)
def test_theta_census_table(builder, q, theta):
    amb, emb = getattr(constructions, builder)(q)
    census = theta_census(emb)
    assert census.uniform and census.theta == theta
    # oracle recount by definition
    oracle, _traces = brute_census(amb, emb.point_subset)
    assert oracle == census.counts


def test_theta_table_matches_benchmark():
    """The benchmark keeps its own copy of the table; the two must agree."""
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.py"
    assert THETA_TABLE == runpy.run_path(str(path))["THETA_TABLE"]


def test_census_ovoid_count_q3(q5q4_3):
    _amb, emb = q5q4_3
    census = theta_census(emb)
    assert census.counts == {2: 36}


def test_derived_pair_q2(pair_q2):
    assert (pair_q2.A.point_count, pair_q2.A.line_count) == (12, 30)
    assert (pair_q2.E.point_count, pair_q2.E.line_count) == (6, 15)
    cert = pair_q2.cover_certificate
    assert cert is not None and cert.theta == 2
    assert all(len(f) == 2 for f in cert.point_fibers)
    assert all(len(f) == 2 for f in cert.line_fibers)


def test_derived_pair_q3(pair_q3):
    assert (pair_q3.E.point_count, pair_q3.E.line_count) == (36, 120)
    degrees = [len(pair_q3.E.point_lines[x]) for x in range(36)]
    assert set(degrees) == {10}  # each ovoid on t+1 rosettes
    assert all(len(r.ovoids) == 3 for r in pair_q3.rosettes)


def test_derived_pair_hermitian(pair_h):
    assert pair_h.census.counts == {3: 40}
    assert (pair_h.E.point_count, pair_h.E.line_count) == (40, 90)
    assert all(len(r.ovoids) == 4 for r in pair_h.rosettes)


def test_rosette_invariants(pair_q3):
    sub = pair_q3.embedding.substructure
    for rosette in pair_q3.rosettes:
        sets = [pair_q3.ovoids[k].points for k in rosette.ovoids]
        assert len(sets) == 3
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i] & sets[j] == {rosette.base_point}
        union = frozenset().union(*sets)
        expected = (frozenset(range(sub.point_count)) - sub.perp(rosette.base_point)) | {
            rosette.base_point
        }
        assert union == expected


def test_non_hyperplane_pair_flagged():
    _amb, emb = build_Q5_with_Q3(2)
    pair = build_derived_pair(emb)
    assert pair.pi is None and not pair.is_cover
    assert pair.E.point_count == 6


def test_projection_local_bijectivity(pair_q2, pair_q3):
    for pair in (pair_q2, pair_q3):
        pi = pair.pi
        for x in range(pair.A.point_count):
            pencil = [pi.line_map[li] for li in pair.A.point_lines[x]]
            assert sorted(pencil) == sorted(pair.E.point_lines[pi.point_map[x]])
        for li, line in enumerate(pair.A.lines):
            row = [pi.point_map[p] for p in line]
            assert sorted(row) == sorted(pair.E.lines[pi.line_map[li]])


@pytest.mark.parametrize("which", ["q2", "q3"])
def test_same_ovoid_iff_disjoint_perp(which, pair_q2, pair_q3):
    """Both directions of the disjoint-perp characterization, exhaustively."""
    pair = pair_q2 if which == "q2" else pair_q3
    A = pair.A
    pm = pair.pi.point_map
    for u in range(A.point_count):
        for v in range(u + 1, A.point_count):
            disjoint = not (A.perp(u) & A.perp(v))
            assert disjoint == (pm[u] == pm[v])


def test_equivalence_classes_are_fibers(pair_q2):
    A = pair_q2.A
    pm = pair_q2.pi.point_map

    def related(x, y):
        return x != y and not (A.perp(x) & A.perp(y))

    classes = {}
    for x in range(A.point_count):
        classes.setdefault(pm[x], set()).add(x)
    for x in range(A.point_count):
        for y in range(A.point_count):
            if x != y:
                assert related(x, y) == (pm[x] == pm[y])
    # transitivity comes for free from the fiber characterization
    assert sorted(len(c) for c in classes.values()) == [2] * 6


def test_ovoid_intersection_dichotomy_q2(q5q4_2):
    """Exhaustive scan; at q=2 the two subtender perps cover the whole affine
    part, so the disjoint case is vacuous and every pair lands on size 1."""
    _amb, emb = q5q4_2
    amb = emb.ambient
    ext = emb.external_points
    seen = {}
    for x in ext:
        ov = subtended_ovoid(emb, x)
        common_perp = amb.perp_set([emb.point_subset[i] for i in sorted(ov.points)])
        for xp in ext:
            if xp == x or xp in common_perp:
                continue
            rep = check_ovoid_intersections(emb, x, xp)
            assert rep.ok
            seen[rep.intersection_size] = seen.get(rep.intersection_size, 0) + 1
    assert set(seen) == {1}


def test_ovoid_intersection_dichotomy_q3(q5q4_3):
    """At q=3 both cases occur; the disjoint case must give t/s + 1 = 4."""
    _amb, emb = q5q4_3
    amb = emb.ambient
    ext = emb.external_points
    x = ext[0]
    ov = subtended_ovoid(emb, x)
    common_perp = amb.perp_set([emb.point_subset[i] for i in sorted(ov.points)])
    seen = {}
    for xp in ext[1:]:
        if xp in common_perp:
            continue
        rep = check_ovoid_intersections(emb, x, xp)
        assert rep.ok
        seen[rep.intersection_size] = seen.get(rep.intersection_size, 0) + 1
    assert seen.get(4, 0) > 0 and seen.get(1, 0) > 0


def test_axiom_check_runs_once(monkeypatch):
    """The axiom verdict is cached on the structure: the first intersection
    check runs the axiom (b) sweep on the ambient quadrangle, and repeated
    checks run it no further."""
    calls = []
    sweep = IncidenceStructure._line_sweeps

    def counting(self):
        calls.append(self)
        return sweep(self)

    monkeypatch.setattr(IncidenceStructure, "_line_sweeps", counting)
    _amb, emb = build_Q5_with_Q4(2)
    x = emb.external_points[0]
    ov = subtended_ovoid(emb, x)
    common_perp = emb.ambient.perp_set([emb.point_subset[i] for i in sorted(ov.points)])
    xp = next(y for y in emb.external_points if y != x and y not in common_perp)
    check_ovoid_intersections(emb, x, xp)
    after_first = len(calls)
    assert any(g is emb.ambient for g in calls)
    check_ovoid_intersections(emb, x, xp)
    check_ovoid_intersections(emb, x, xp)
    assert len(calls) == after_first


def test_ovoid_intersection_hypotheses_checked():
    _amb, emb = build_Q4_with_Q3(3)  # t' = 1 violates the hypotheses
    with pytest.raises(HypothesisError):
        check_ovoid_intersections(emb, emb.external_points[0], emb.external_points[1])


@pytest.mark.parametrize("q", [2, 3])
def test_outside_contact_property(q):
    _amb, emb = build_Q5_with_Q3(q)
    rep = check_outside_contacts(emb)
    assert rep.ok
    assert rep.checked_ovoids == theta_census(emb).ovoid_count
    assert not rep.violations


def test_outside_contact_hypothesis_error(q5q4_2):
    _amb, emb = q5q4_2  # t' = 2, theta = 2 != s + 1
    with pytest.raises(HypothesisError):
        check_outside_contacts(emb)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=11))
def test_property_fiber_partner_has_disjoint_perp(pair_q2, x):
    """Any two members of one projection fiber have disjoint affine perps."""
    pm = pair_q2.pi.point_map
    partner = next(y for y in range(12) if y != x and pm[y] == pm[x])
    assert not (pair_q2.A.perp(x) & pair_q2.A.perp(partner))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_every_subtended_ovoid_hits_each_line_once(pair_q3, data):
    ov = pair_q3.ovoids[data.draw(st.integers(min_value=0, max_value=35))]
    sub = pair_q3.embedding.substructure
    li = data.draw(st.integers(min_value=0, max_value=sub.line_count - 1))
    assert len(ov.points & set(sub.lines[li])) == 1
