import hashlib
import json

import pytest

from gqcovers.constructions import (
    QClanSpec,
    _form_matrix,
    _polar_structure,
    build_H,
    build_grid,
    build_H4_with_H3,
    build_kantor_knuth,
    build_Q4,
    build_Q4_with_Q3,
    build_Q5,
    build_Q5_with_Q3,
    build_Q5_with_Q4,
    build_W,
    points_coplanar,
)
from gqcovers.covers import find_isomorphism
from gqcovers.errors import ConsistencyViolation, MissingCoordinatesError
from gqcovers.gf import field
from gqcovers.incidence import GQOrder, verify_gq_axioms

from .oracles import brute_classical_gq, rank_by_span


def _build(family, q):
    if family.startswith("H"):
        return build_H(int(family[1:]), q)
    return {"Q4": build_Q4, "Q5": build_Q5, "W": build_W}[family](q)


# sha256 of json.dumps(g.to_json_dict(), sort_keys=True) for every classical
# quadrangle the tests and the benchmark build, taken from the scalar
# pair-by-pair builder the form-matrix builder replaced.
CONSTRUCTION_DIGESTS = {
    ("Q4", 2): "a05e5a73b043a533d5f54248116f3611b35a4f797c1941daf07d6ae609956c3f",
    ("Q4", 3): "e09bad2590b0b91b53880acb91f8f42f95af19f8078feda495db559a4db5083f",
    ("Q4", 4): "ae04b9a41d0f434d62cc446fc0762107e09ebe39dfdaf75108f29fec9d75c866",
    ("Q4", 5): "fa116d3256ace66ce6b90ea81e15d0924fc606ac6460ffbb7ace5ada1969ea50",
    ("Q5", 2): "9c7ee44cdcd004280bdace3c0bf506748e59a9dec1bd6d17e35ac1ac3fc31b14",
    ("Q5", 3): "4e6b8ecd86c5c5b577818f9f2cfdf538b1aaf74c384aa883d8ae1a2ed4d5ea92",
    ("Q5", 4): "43a8c45293e6f4190a675c0d74151ac92c372389fcb869484767d910ac09ccf3",
    ("Q5", 5): "c99d54b4a26e218a4a1562ee57169f10b93caffcc7a1bf6b45fb12c081f472a3",
    ("W", 2): "4b08c8076e62f7b35ad26d570da99c6ef78e85ddf74885f33fdb619762fa1759",
    ("W", 3): "ab9ed8c37f68c563671ed395ead0e5d7cd8d528beee2add1a5367707b480d2b0",
    ("W", 4): "d58c486cbf21290a0afd4ea26220f254632c41129bd959785a961f4016d16f2b",
    ("W", 5): "e5a4976ad18fe8541e7d1efbee39688b0293d58bcdc0ae5b59f1189b57554d2d",
    ("H3", 2): "a67b6fe0b40742c5efa3d111ea736161fcce270ccb6d33e36123ee52c1371085",
    ("H4", 2): "40f09e060948568ecc8fd377e178f2f56bd9706570dd1dc187b3ca0c95a8c0ef",
    ("H3", 3): "9fd485f587027991d3947e6212f62e40d9d650136e52c921b8e626b03ebee285",
}


@pytest.mark.parametrize("family,q", list(CONSTRUCTION_DIGESTS))
def test_construction_digest(family, q):
    g = _build(family, q)
    data = json.dumps(g.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == CONSTRUCTION_DIGESTS[(family, q)]


@pytest.mark.parametrize(
    "family,q",
    [(f, q) for f in ("Q4", "Q5", "W") for q in (2, 3, 4)] + [("H3", 2), ("H4", 2)],
)
def test_polar_builder_against_oracle(family, q):
    g = _build(family, q)
    points, lines = brute_classical_gq(family, q)
    assert g.coords == tuple(points)
    assert list(g.lines) == lines


def test_polar_builder_checks_lines_stay_on_variety():
    """With polar = form (not symmetrized) some orthogonal pairs of Q(4,3)
    span a line off the quadric; the builder must refuse, not assert."""
    gfq = field(3)
    m = gfq.neg(1)
    form = _form_matrix(5, {(0, 0): 1, (1, 2): m, (3, 4): m})
    with pytest.raises(ConsistencyViolation, match="leaves the variety"):
        _polar_structure(gfq, form, form, 1, "bad")
    polar = gfq.add_table[form, form.T]
    assert _polar_structure(gfq, form, polar, 1, "Q(4,3)").line_count == 40


@pytest.mark.parametrize(
    "s,points,lines,order",
    [(1, 4, 4, (1, 1)), (2, 9, 6, (2, 1)), (4, 25, 10, (4, 1))],
)
def test_grid(s, points, lines, order):
    g = build_grid(s)
    assert (g.point_count, g.line_count) == (points, lines)
    assert verify_gq_axioms(g) == GQOrder(*order)


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        build_grid(0)


def test_q5_with_q4_counts(q5q4_2, q5q4_3):
    amb2, emb2 = q5q4_2
    assert (amb2.point_count, amb2.line_count) == (27, 45)
    assert (len(emb2.point_subset), len(emb2.line_subset)) == (15, 15)
    assert verify_gq_axioms(amb2) == GQOrder(2, 4)
    assert emb2.sub_order == GQOrder(2, 2)
    assert emb2.flags.is_full and emb2.flags.is_geometric_hyperplane

    amb3, emb3 = q5q4_3
    assert (amb3.point_count, amb3.line_count) == (112, 280)
    assert (len(emb3.point_subset), len(emb3.line_subset)) == (40, 40)
    assert emb3.flags.is_geometric_hyperplane


def test_hermitian_counts(h4h3):
    amb, emb = h4h3
    assert amb.point_count == 165
    assert verify_gq_axioms(amb) == GQOrder(4, 8)
    assert emb.sub_order == GQOrder(4, 2)
    assert emb.flags.is_full and emb.flags.is_geometric_hyperplane


def test_w_and_symplectic_duality(q4_2):
    w = build_W(2)
    assert verify_gq_axioms(w) == GQOrder(2, 2)
    assert find_isomorphism(w, q4_2) is not None
    w3 = build_W(3)
    assert verify_gq_axioms(w3) == GQOrder(3, 3)


def test_grid_sections():
    for q in (2, 3):
        amb, emb = build_Q4_with_Q3(q)
        assert emb.sub_order == GQOrder(q, 1)
        assert emb.flags.is_full and emb.flags.is_geometric_hyperplane
    _amb, emb = build_Q5_with_Q3(2)
    assert emb.sub_order == GQOrder(2, 1)
    assert emb.flags.is_full and not emb.flags.is_geometric_hyperplane


def test_kantor_knuth_classical(kk3):
    g = kk3.structure
    assert kk3.classical
    assert (g.point_count, g.line_count) == (112, 280)
    assert verify_gq_axioms(g) == GQOrder(3, 9)
    assert g.lines[kk3.infinity_line] == (0, 1, 2, 3)
    assert find_isomorphism(g, build_Q5(3)) is not None


def test_kantor_knuth_rejects_bad_input():
    with pytest.raises(ValueError):
        build_kantor_knuth(QClanSpec(q=3, sigma_exp=0, m=1))  # square m
    with pytest.raises(ValueError):
        build_kantor_knuth(QClanSpec(q=4, sigma_exp=0, m=2))  # wrong characteristic
    # A_1 - A_0 = diag(1, 2) is isotropic over GF(3): (1,1) is a zero
    tampered = {0: (0, 0, 0, 0), 1: (1, 0, 0, 2), 2: (2, 0, 0, 1)}
    with pytest.raises(ValueError):
        build_kantor_knuth(QClanSpec(q=3, sigma_exp=0, m=2), clan_override=tampered)


@pytest.mark.slow
def test_kantor_knuth_q9_order():
    res = build_kantor_knuth(QClanSpec(q=9, sigma_exp=1, m=3))
    assert not res.classical
    g = res.structure
    assert g.point_count == 7300
    assert verify_gq_axioms(g) == GQOrder(9, 81)


def test_coplanar_trivial_cases(q4_2):
    line = q4_2.lines[0]
    assert points_coplanar(q4_2, line)  # collinear implies coplanar
    # four points spanning the space are not coplanar
    gfq = field(2)
    pts = list(range(q4_2.point_count))
    spanning = []
    for p in pts:
        if gfq.rank([q4_2.coords[x] for x in spanning + [p]]) > len(spanning):
            spanning.append(p)
        if len(spanning) == 4:
            break
    assert not points_coplanar(q4_2, spanning)


def test_coplanar_against_rank_oracle(q5q4_3):
    amb, emb = q5q4_3
    gfq = field(3)
    import random

    rng = random.Random(1)
    for _ in range(25):
        pts = rng.sample(range(amb.point_count), 5)
        expected = rank_by_span(gfq, [amb.coords[p] for p in pts]) <= 3
        assert points_coplanar(amb, pts) == expected


def test_coplanar_requires_coordinates(grid2):
    with pytest.raises(MissingCoordinatesError):
        points_coplanar(grid2, [0, 1])


def test_elliptic_ovoid_section_not_coplanar():
    """A 10-point hyperplane section of Q(4,3) without lines is an ovoid and
    spans the whole space; rank checked against the span oracle."""
    from gqcovers.incidence import induced_subgeometry

    g = build_Q4(3)
    gfq = field(3)
    section = None
    for h in range(1, 3**5):
        hv = tuple((h // 3**i) % 3 for i in range(5))
        nz = next(i for i, c in enumerate(hv) if c)
        if hv[nz] != 1:
            continue
        pts = [p for p in range(g.point_count) if gfq.dot(hv, g.coords[p]) == 0]
        if len(pts) == 10:
            section = pts
            break
    assert section is not None
    emb = induced_subgeometry(g, section, [])
    assert emb.flags.is_geometric_hyperplane  # an ovoid of Q(4,3)
    assert not points_coplanar(g, section)
    assert rank_by_span(gfq, [g.coords[p] for p in section]) == 4
