import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqcovers import constructions
from gqcovers.constructions import THETA_TABLE
from gqcovers.errors import ConsistencyViolation, EmptyGeometryError
from gqcovers.incidence import (
    AxiomFailure,
    GQOrder,
    IncidenceStructure,
    classify_hyperplane,
    has_triangle,
    induced_subgeometry,
    is_connected,
    ovoid_classes,
    verify_gq_axioms,
)
from gqcovers.spg import verify_spg

from .oracles import (
    brute_cl,
    brute_collinear,
    brute_collinearity,
    brute_contacts,
    brute_gq_axioms,
    brute_ovoid_classes,
    brute_perp,
    brute_perp_set,
    brute_triangle,
)

FANO = [[0, 1, 2], [2, 3, 4], [4, 5, 0], [1, 3, 5], [0, 6, 3], [2, 6, 5], [1, 6, 4]]
PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def test_construction_canonicalizes():
    g = IncidenceStructure(4, [[3, 1], [0, 2], [1, 0]])
    assert g.lines == ((0, 1), (0, 2), (1, 3))


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        IncidenceStructure(3, [[0, 1], [1, 0]])  # repeated line
    with pytest.raises(ValueError):
        IncidenceStructure(3, [[0, 0, 1]])  # repeated point
    with pytest.raises(ValueError):
        IncidenceStructure(2, [[0, 5]])  # out of range


def test_grid_axioms(grid2):
    assert verify_gq_axioms(grid2) == GQOrder(2, 1)


def test_q4_axioms(q4_2):
    assert verify_gq_axioms(q4_2) == GQOrder(2, 2)


def test_deleted_line_fails_axiom_a(q4_2):
    g = IncidenceStructure(15, q4_2.lines[:-1])
    res = verify_gq_axioms(g)
    assert isinstance(res, AxiomFailure)
    assert res.axiom == "a"
    assert isinstance(res.witness[0], int)  # a witness point


def test_empty_distinct_from_failure():
    with pytest.raises(EmptyGeometryError):
        verify_gq_axioms(IncidenceStructure(0, []))


def test_fano_fails_projection_axiom():
    res = verify_gq_axioms(IncidenceStructure(7, FANO))
    assert isinstance(res, AxiomFailure)
    assert res.axiom in ("b", "c")


def test_perp_against_oracle(q4_2, grid2):
    for g in (q4_2, grid2):
        for x in range(g.point_count):
            assert g.perp(x) == brute_perp(g, x)
    # 1 + s(t+1) on Q(4,2)
    assert len(q4_2.perp(0)) == 7


def test_perp_set_conventions(grid2):
    assert grid2.perp_set(()) == set(range(9))
    non_collinear = [
        (u, v)
        for u in range(9)
        for v in range(u + 1, 9)
        if not grid2.collinearity[u, v]
    ]
    for u, v in non_collinear:
        assert grid2.perp_set({u, v}) == brute_perp_set(grid2, {u, v})
        assert len(grid2.perp_set({u, v})) == 2


def test_perp_symmetry_and_biperp(q4_2):
    for x in range(q4_2.point_count):
        for y in range(q4_2.point_count):
            assert q4_2.collinearity[x, y] == q4_2.collinearity[y, x]


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=14), max_size=5))
def test_biperp_contains_set(q4_2, Y):
    assert Y <= q4_2.biperp(Y)


def test_cl_against_oracle(q4_2, grid2):
    # collinear pair in the grid covers all points
    assert grid2.cl(0, 1) == set(range(9))
    for g in (grid2, q4_2):
        for u in range(0, g.point_count, 3):
            for v in range(u + 1, g.point_count, 4):
                assert g.cl(u, v) == brute_cl(g, u, v)
                assert u in g.cl(u, v)
    with pytest.raises(ValueError):
        q4_2.cl(3, 3)


def test_induced_subgeometry_flags(q5q4_2):
    amb, emb = q5q4_2
    assert emb.flags.is_full
    assert emb.flags.is_geometric_hyperplane
    assert emb.sub_order == GQOrder(2, 2)

    # a single line with its points: full, not a quadrangle
    line = amb.lines[0]
    one = induced_subgeometry(amb, line, [0])
    assert one.flags.is_full and one.sub_order is None


def _find_ovoid(g):
    """Greedy/backtracking search for a point set meeting every line once."""

    def rec(chosen, banned):
        if all(any(p in chosen for p in line) for line in g.lines):
            return chosen
        for x in range(g.point_count):
            if x in banned:
                continue
            if any(g.collinearity[x, y] for y in chosen):
                continue
            out = rec(chosen | {x}, banned | {x})
            if out:
                return out
        return None

    return rec(frozenset(), frozenset())


def test_ovoid_subgeometry_is_hyperplane(q4_2):
    ovoid = _find_ovoid(q4_2)
    assert ovoid and len(ovoid) == 5
    emb = induced_subgeometry(q4_2, sorted(ovoid), [])
    assert emb.flags.is_geometric_hyperplane
    assert classify_hyperplane(emb).kind == "ovoid"


def test_classify_full_subgq(q5q4_2):
    _amb, emb = q5q4_2
    cls = classify_hyperplane(emb)
    assert cls.kind == "full_subgq"
    assert cls.sub_order == GQOrder(2, 2)


def test_classify_grid_hyperplane():
    from gqcovers.constructions import build_Q4_with_Q3

    amb, emb = build_Q4_with_Q3(2)
    cls = classify_hyperplane(emb)
    assert cls.kind == "full_subgq"
    assert cls.sub_order == GQOrder(2, 1)  # forces t == s


def test_classify_requires_hyperplane(q4_2):
    emb = induced_subgeometry(q4_2, q4_2.lines[0], [0])
    assert not emb.flags.is_geometric_hyperplane
    with pytest.raises(ValueError):
        classify_hyperplane(emb)


def test_connectivity_and_triangles(q4_2, grid2):
    assert is_connected(q4_2)
    assert has_triangle(q4_2) is None

    # disjoint union of two grids
    lines = list(grid2.lines) + [tuple(p + 9 for p in line) for line in grid2.lines]
    double = IncidenceStructure(18, lines)
    assert not is_connected(double)

    fano = IncidenceStructure(7, FANO)
    tri = has_triangle(fano)
    assert tri is not None
    a, b, c = tri.points
    assert fano.collinearity[a, b] and fano.collinearity[b, c] and fano.collinearity[a, c]
    assert len(set(tri.lines)) == 3


def test_gqs_have_no_triangles(q5q4_2, h4h3):
    assert has_triangle(q5q4_2[0]) is None
    assert has_triangle(h4h3[0]) is None


def test_count_formulas(q5q4_2, q5q4_3, h4h3):
    for amb in (q5q4_2[0], q5q4_3[0], h4h3[0]):
        order = verify_gq_axioms(amb)
        s, t = order
        assert amb.point_count == (s + 1) * (s * t + 1)
        assert amb.line_count == (t + 1) * (s * t + 1)


def test_json_roundtrip(q4_2, tmp_path):
    path = tmp_path / "g.json"
    q4_2.save(path)
    loaded = IncidenceStructure.load(path)
    assert loaded.lines == q4_2.lines
    assert loaded.coords == q4_2.coords
    assert loaded.field == q4_2.field
    data = json.loads(path.read_text())
    assert set(data) >= {"name", "points", "lines"}


@pytest.mark.parametrize("lines", [128, 256])
def test_collinearity_of_points_on_many_common_lines(lines):
    """Common-line counts must not wrap: 128 lines read -128 and 256 lines
    read 0 in an 8-bit signed product."""
    g = IncidenceStructure(lines + 2, [(0, 1, j) for j in range(2, lines + 2)])
    for x, y in [(0, 1), (0, 2), (2, 3), (1, 5)]:
        assert g.collinearity[x, y] == brute_collinear(g, x, y)


def test_contact_counts_on_a_long_line():
    """A point on a 130-point line sees all 130 of its points."""
    g = IncidenceStructure(131, [tuple(range(130)), (129, 130)])
    counts = g.point_line_collinearity_counts()
    for x in (0, 129, 130):
        for li, line in enumerate(g.lines):
            assert counts[x, li] == sum(brute_collinear(g, x, y) for y in line)


@pytest.mark.parametrize("name", ["fano", "grid2", "q4_2", "two_common", "long_line"])
def test_contact_kernel_against_oracle(name, request):
    g = {
        "fano": lambda: IncidenceStructure(7, FANO),
        "grid2": lambda: request.getfixturevalue("grid2"),
        "q4_2": lambda: request.getfixturevalue("q4_2"),
        "two_common": lambda: IncidenceStructure(
            6, [[0, 1, 2], [0, 1, 3], [2, 4, 5], [3, 4, 5]]
        ),
        "long_line": lambda: IncidenceStructure(131, [tuple(range(130)), (129, 130)]),
    }[name]()
    assert g.point_line_collinearity_counts().tolist() == brute_contacts(g)


def test_collinearity_is_c_contiguous(q4_2):
    """The contact counts and the line sweep gather collinearity rows."""
    assert q4_2.collinearity.flags.c_contiguous


def test_fano_witnesses():
    fano = IncidenceStructure(7, FANO)
    assert verify_gq_axioms(fano) == AxiomFailure("b", (3, 0), "point 3 sees 3 points of line 0")
    tri = has_triangle(fano)
    assert (tri.points, tri.lines) == ((3, 0, 1), (1, 3, 0))


def test_prism_witnesses():
    prism = IncidenceStructure(6, PRISM)
    rep = verify_spg(prism)
    assert (rep.failure.axiom, rep.failure.witness, rep.failure.message) == (
        "alpha", (3, 0), "contact counts [1, 2]"
    )
    assert verify_gq_axioms(prism) == AxiomFailure("b", (5, 0), "point 5 sees 0 points of line 0")
    tri = has_triangle(prism)
    assert (tri.points, tri.lines) == ((2, 0, 1), (1, 3, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.frozensets(st.integers(0, n - 1), min_size=2, max_size=3),
                min_size=1, max_size=10),
    )
))
def test_triangles_fail_the_axioms(structure):
    """A triangle breaks (b) or (c) by definition, so no structure with one
    passes the axiom check."""
    n, lines = structure
    g = IncidenceStructure(n, [sorted(line) for line in lines])
    if has_triangle(g) is None:
        return
    assert isinstance(verify_gq_axioms(g), AxiomFailure)
    contacts = brute_contacts(g)
    sees_two = any(contacts[x][li] >= 2 for li, line in enumerate(g.lines)
                   for x in range(n) if x not in line)
    two_common = any(len(set(a) & set(b)) >= 2 for a in g.lines for b in g.lines if a < b)
    assert sees_two or two_common


def _verdict(g):
    """verify_gq_axioms in the form of the oracle's answer."""
    res = verify_gq_axioms(g)
    if isinstance(res, GQOrder):
        return ("order", *res)
    return res.axiom, res.witness, res.message


def _triangle(g):
    tri = has_triangle(g)
    return None if tri is None else (tri.points, tri.lines)


def _relabelled(n, lines, seed):
    """The lines on n points after a seeded permutation of the points."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return IncidenceStructure(n, [[perm[p] for p in line] for line in lines])


def _grid_with_switched_points(s):
    """grid(s) with the points (0, 0) and (1, 1) swapped between rows 0 and
    1: every line size and point degree stays, so axiom (a) holds."""
    rows = [[(s + 1) * i + j for j in range(s + 1)] for i in range(s + 1)]
    cols = [[(s + 1) * i + j for i in range(s + 1)] for j in range(s + 1)]
    rows[0][0], rows[1][1] = rows[1][1], rows[0][0]
    return IncidenceStructure((s + 1) ** 2, rows + cols)


def _bipartite(m, matched):
    """K(m, m) on the points 0..2m-1 (the dual grid of order (1, m - 1)), with
    lines the pairs across the sides; when matched, also the pairs {2i, 2i+1}
    inside each side, so that a point sees both points of such a line."""
    lines = [(i, m + j) for i in range(m) for j in range(m)]
    if matched:
        lines += [(i, i + 1) for i in range(0, 2 * m, 2)]
    return IncidenceStructure(2 * m, lines)


def _boundary_structures(n):
    """Structures on n points: a polygon ((a) holds, (b) fails), consecutive
    triples ((a) holds, (c) fails), and the Fano plane, the prism and a long
    line among isolated points, each with its points scattered over the
    uint64 words."""
    polygon = [(i, (i + 1) % n) for i in range(n)]
    triples = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    return {
        "polygon": IncidenceStructure(n, polygon),
        "polygon-relabelled": _relabelled(n, polygon, n),
        "triples-relabelled": _relabelled(n, triples, n),
        "fano": _relabelled(n, FANO, n),
        "prism": _relabelled(n, PRISM, n),
        "long-line-and-polygon": _relabelled(n, polygon[:n // 2] + [tuple(range(n // 2, n))], n),
    }


ORACLE_CASES = {
    **{f"{name}-{n}": (lambda n=n, name=name: _boundary_structures(n)[name])
       for n in (63, 64, 65, 128, 129) for name in _boundary_structures(8)},
    "grid7": lambda: _relabelled(64, constructions.build_grid(7).lines, 64),
    "bipartite-64": lambda: _relabelled(64, _bipartite(32, False).lines, 32),
    "bipartite-matched-64": lambda: _relabelled(64, _bipartite(32, True).lines, 32),
    "bipartite-matched-128": lambda: _relabelled(128, _bipartite(64, True).lines, 64),
    "grid7-switched": lambda: _relabelled(64, _grid_with_switched_points(7).lines, 7),
    "grid7-twice": lambda: IncidenceStructure(
        128, [line for i in (0, 64) for line in
              [tuple(p + i for p in line) for line in constructions.build_grid(7).lines]]
    ),
    "q4_4": lambda: constructions.build_Q4(4),
    "q5_3": lambda: _relabelled(128, constructions.build_Q5(3).lines, 128),
    "long-line": lambda: IncidenceStructure(131, [tuple(range(130)), (129, 130)]),
    "mixed-sizes": lambda: IncidenceStructure(
        70, [(0, 1), (1, 2, 3), (3, 4, 5, 6), (0, 65, 69), (2, 66), (4, 67, 68),
             tuple(range(6, 66))]
    ),
    "common-128": lambda: IncidenceStructure(130, [(0, 1, j) for j in range(2, 130)]),
    "common-256": lambda: IncidenceStructure(258, [(0, 1, j) for j in range(2, 258)]),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_sweep_against_oracle(name):
    """Collinearity, contact counts, the per-line bitsets of the sweep, the
    axiom verdict with its witness, and the triangle witness, each against
    a definition-level oracle, on structures that cross the uint64 word
    boundaries and on non-uniform lines."""
    g = ORACLE_CASES[name]()
    n = g.point_count
    assert g.collinearity.tolist() == brute_collinearity(g)
    contacts = np.array(brute_contacts(g), dtype=np.int64).reshape(n, g.line_count)
    assert (g.point_line_collinearity_counts() == contacts).all()
    swept = 0
    for lines, one, two, own in g._line_sweeps():
        for bits, expected in [(one, contacts[:, lines].T >= 1), (two, contacts[:, lines].T >= 2)]:
            unpacked = np.unpackbits(bits.astype("<u8").view(np.uint8), axis=1, bitorder="little")
            assert not unpacked[:, n:].any()
            assert (unpacked[:, :n] == expected).all()
        unpacked = np.unpackbits(own.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        own_points = [np.flatnonzero(row).tolist() for row in unpacked]
        assert own_points == [list(g.lines[i]) for i in lines]
        swept += len(lines)
    assert swept == g.line_count
    assert _verdict(g) == brute_gq_axioms(g)
    assert _triangle(g) == brute_triangle(g)


def test_oracle_cases_reach_every_verdict():
    """The cases above exercise each axiom's failure, a pass, and triangles."""
    verdicts = {brute_gq_axioms(build())[0] for build in ORACLE_CASES.values()}
    assert verdicts == {"a", "b", "c", "order"}
    assert verify_gq_axioms(ORACLE_CASES["q4_4"]()) == GQOrder(4, 4)
    assert brute_triangle(ORACLE_CASES["fano-129"]()) is not None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=4, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=2, max_value=3).flatmap(
            lambda k: st.sets(st.frozensets(st.integers(0, n - 1), min_size=k, max_size=k),
                              min_size=2, max_size=12)),
    )
))
def test_axioms_and_triangles_against_oracle(structure):
    """Random structures with one line size: the verdict, its witness and the
    triangle witness agree with the definition-level oracles."""
    n, lines = structure
    g = IncidenceStructure(n, [sorted(line) for line in lines])
    assert _verdict(g) == brute_gq_axioms(g)
    assert _triangle(g) == brute_triangle(g)


def test_triangle_and_connectivity_are_cached(monkeypatch):
    """Each structure runs the triangle sweep and the connectivity search
    once: with their inputs taken away, the answers still come back."""
    g = IncidenceStructure(7, FANO)
    first = has_triangle(g)
    assert first is not None and is_connected(g)
    monkeypatch.setattr(IncidenceStructure, "_line_sweeps", None)
    monkeypatch.setattr(g, "point_lines", None)
    assert has_triangle(g) is first and is_connected(g)


def _classes_by_trace(point_subset, classes):
    """The kernel's classes in the oracle's form: trace -> external points."""
    sub = np.array(point_subset)
    assert (classes.rows == classes.rows[classes.representatives][classes.class_of]).all()
    out = {}
    for k, r in enumerate(classes.representatives):
        members = classes.external[classes.class_of == k].tolist()
        assert len(members) == classes.sizes[k] and classes.class_of[r] == k
        out[frozenset(sub[classes.rows[r]].tolist())] = members
    return out


@pytest.mark.parametrize(
    "builder,q,theta", [(name, q, theta) for (name, q), theta in THETA_TABLE.items()]
)
def test_ovoid_classes_against_oracle(builder, q, theta):
    amb, emb = getattr(constructions, builder)(q)
    classes = emb.ovoid_classes
    assert _classes_by_trace(emb.point_subset, classes) == brute_ovoid_classes(
        amb, emb.point_subset
    )
    assert set(classes.sizes.tolist()) == {theta}


def test_ovoid_classes_of_a_record_against_oracle(q53_records):
    g, recs = q53_records
    points = recs[0].points
    classes = ovoid_classes(g, points)
    assert _classes_by_trace(points, classes) == brute_ovoid_classes(g, points)
