"""Builders for the concrete geometries: grids, symplectic and orthogonal
quadrangles, Hermitian quadrangles, their standard sections, and the
Kantor-Knuth flock quadrangle (built on the coset model and dualized).

Each classical quadrangle is the polar space of one fixed form matrix (Payne &
Thas, Finite Generalized Quadrangles, ch. 3), so outputs are byte-deterministic:
  Q(4,q):   x0^2 - x1*x2 - x3*x4, upper triangular; polar form + form^T
  Q(5,q):   f(x0,x1) + x2*x3 + x4*x5, upper triangular, f = x0^2 + b*x0*x1 +
            c*x1^2 the lex-least irreducible; polar form + form^T
  W(q):     alternating x0*y1 - x1*y0 + x2*y3 - x3*y2; polar = form
  H(n,q^2): identity, sum x_i * y_i^q (conjugation x -> x^q); polar = form
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyViolation, MissingCoordinatesError
from .gf import GF, field, field_of_order
from .incidence import IncidenceStructure, induced_subgeometry


# -- polar spaces from their form matrices ---------------------------------------


def _polar_structure(gfq: GF, form, polar, conj, name):
    """The polar-space GQ of a form matrix over gfq, a numpy build.

    Points: the projective points x (first nonzero coordinate 1, lex sorted)
    with x.form.x^conj = 0, where x^conj raises each coordinate to the power
    conj.  Lines: the spans of two points x, y with x.polar.y^conj = 0; every
    point of every span is checked to lie on the variety.  A quadric's polar
    is form + form^T, added in the field so characteristic 2 is right.  Each
    point is paired with the later points in one pass, and each line is kept
    once, from its first two points.
    """
    add, mul, inv = gfq.add_table, gfq.mul_table, gfq.inv_table
    q, n = gfq.q, len(form)
    weights = q ** np.arange(n - 1, -1, -1)
    # normalized vectors in lex order: leading 1 at position n-1-k, k free digits
    codes = np.concatenate([q**k + np.arange(q**k) for k in range(n)])
    vecs = (codes[:, None] // weights) % q
    power = np.array([gfq.power(a, conj) for a in gfq.elements()])

    def pair_values(left, right):
        """sum_b left_b * right_b^conj, over broadcast rows."""
        acc = 0
        for b in range(n):
            acc = add[acc, mul[left[..., b], power[right[..., b]]]]
        return acc

    def times(x, matrix):
        """The row vectors x.matrix over the field."""
        acc = 0
        for a in range(n):
            acc = add[acc, mul[x[..., a, None], matrix[a]]]
        return acc

    pts = vecs[pair_values(times(vecs, form), vecs) == 0]
    pt_codes = pts @ weights
    ids = list(range(len(pts)))  # one int object per point, shared by its lines
    lines = []
    for i, x in enumerate(pts):
        js = i + 1 + np.flatnonzero(pair_values(times(x, polar), pts[i + 1:]) == 0)
        span = add[x, mul[np.arange(1, q)[:, None], pts[js][:, None]]]  # x + lam*y
        lead = np.take_along_axis(span, (span != 0).argmax(axis=2)[..., None], axis=2)
        span_codes = mul[inv[lead], span] @ weights
        at = np.minimum(np.searchsorted(pt_codes, span_codes), len(pts) - 1)
        if not (pt_codes[at] == span_codes).all():
            raise ConsistencyViolation(f"a line of {name} leaves the variety")
        first = at.min(axis=1, initial=len(pts)) > js  # x, y: the line's first two points
        for j, rest in zip(js[first].tolist(), at[first].tolist()):
            lines.append((ids[i], ids[j], *map(ids.__getitem__, rest)))
    return IncidenceStructure(len(pts), lines, name=name, coords=pts.tolist(), field=gfq.spec)


def _form_matrix(n, entries):
    """The n x n matrix of field elements, zero but for {(row, col): value}."""
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[tuple(zip(*entries))] = list(entries.values())
    return matrix


def _irreducible_binary_quadratic(gfq):
    """Lex-least (b, c) with x^2 + b*x + c having no root in the field."""
    for b in gfq.elements():
        for c in gfq.elements():
            if all(
                gfq.add(gfq.add(gfq.mul(r, r), gfq.mul(b, r)), c) != 0
                for r in gfq.elements()
            ):
                return b, c
    raise AssertionError("no irreducible binary quadratic found")


def build_grid(s) -> IncidenceStructure:
    """Grid of order (s, 1): (s+1)^2 points in two parallel line classes."""
    if s < 1:
        raise ValueError("grid needs s >= 1")
    k = s + 1
    lines = [tuple(range(i * k, (i + 1) * k)) for i in range(k)]
    lines += [tuple(range(j, k * k, k)) for j in range(k)]
    return IncidenceStructure(k * k, lines, name=f"grid({s})")


def build_Q4(q) -> IncidenceStructure:
    gfq = field_of_order(q)
    m = gfq.neg(1)
    form = _form_matrix(5, {(0, 0): 1, (1, 2): m, (3, 4): m})
    return _polar_structure(gfq, form, gfq.add_table[form, form.T], 1, f"Q(4,{q})")


def build_Q5(q) -> IncidenceStructure:
    gfq = field_of_order(q)
    b, c = _irreducible_binary_quadratic(gfq)
    form = _form_matrix(6, {(0, 0): 1, (0, 1): b, (1, 1): c, (2, 3): 1, (4, 5): 1})
    return _polar_structure(gfq, form, gfq.add_table[form, form.T], 1, f"Q(5,{q})")


def build_W(q) -> IncidenceStructure:
    gfq = field_of_order(q)
    m = gfq.neg(1)
    form = _form_matrix(4, {(0, 1): 1, (1, 0): m, (2, 3): 1, (3, 2): m})
    return _polar_structure(gfq, form, form, 1, f"W({q})")


def build_H(n, q) -> IncidenceStructure:
    """Hermitian variety H(n, q^2) over GF(q^2), conjugation x -> x^q."""
    gfq = field_of_order(q * q)
    form = np.eye(n + 1, dtype=np.int64)
    return _polar_structure(gfq, form, form, q, f"H({n},{q * q})")


def _coordinate_section(g, zero_positions):
    """Embedding of the sub-variety cut out by vanishing coordinates."""
    pts = [
        i for i, c in enumerate(g.coords) if all(c[k] == 0 for k in zero_positions)
    ]
    pset = set(pts)
    lines = [li for li, line in enumerate(g.lines) if set(line) <= pset]
    return induced_subgeometry(g, pts, lines)


def build_Q5_with_Q4(q):
    """Elliptic quadrangle with its parabolic hyperplane section (x1 = 0)."""
    amb = build_Q5(q)
    return amb, _coordinate_section(amb, (1,))


def build_Q4_with_Q3(q):
    """Parabolic quadrangle with its hyperbolic grid section (x0 = 0)."""
    amb = build_Q4(q)
    return amb, _coordinate_section(amb, (0,))


def build_Q5_with_Q3(q):
    """Elliptic quadrangle with a codimension-2 grid section (x0 = x1 = 0)."""
    amb = build_Q5(q)
    return amb, _coordinate_section(amb, (0, 1))


def build_H4_with_H3(q):
    """Hermitian quadrangle H(4,q^2) with the H(3,q^2) section (x4 = 0)."""
    amb = build_H(4, q)
    return amb, _coordinate_section(amb, (4,))


# The theta-census table: (section builder, q) -> theta, the number of external
# points subtending each subtended ovoid (the same for every ovoid).
THETA_TABLE = {
    ("build_Q5_with_Q4", 2): 2,
    ("build_Q5_with_Q4", 3): 2,
    ("build_Q5_with_Q3", 2): 3,
    ("build_Q5_with_Q3", 3): 4,
    ("build_Q4_with_Q3", 2): 1,
    ("build_Q4_with_Q3", 3): 2,
    ("build_Q4_with_Q3", 4): 1,
    ("build_H4_with_H3", 2): 3,
}

# The semipartial geometry table: (section builder, q) -> (s, t, alpha, mu) of
# the derived geometry E of the theta-cover pairs.
SPG_TABLE = {
    ("build_Q5_with_Q4", 2): (1, 4, 2, 4),
    ("build_Q5_with_Q4", 3): (2, 9, 2, 12),
    ("build_H4_with_H3", 2): (3, 8, 3, 18),
}


def points_coplanar(g, points) -> bool:
    """True iff the homogeneous coordinates of the points span <= 3 dimensions."""
    if g.coords is None or g.field is None:
        raise MissingCoordinatesError("geometry carries no ambient coordinates")
    gfq = field(g.field.p, g.field.h)
    return gfq.rank([g.coords[p] for p in points]) <= 3


# -- Kantor-Knuth flock quadrangle ----------------------------------------------


@dataclass(frozen=True)
class QClanSpec:
    """Parameters of the Kantor-Knuth clan A_t = diag(t, -m * t^sigma).

    sigma is the field automorphism x -> x^(3^sigma_exp); m must be a
    non-square.  sigma_exp == 0 (mod h) gives the classical degeneration.
    """

    q: int
    sigma_exp: int
    m: int


@dataclass(frozen=True)
class KKResult:
    structure: IncidenceStructure
    infinity_line: int
    classical: bool
    spec: QClanSpec


def _check_qclan(gfq, clan):
    """Anisotropy of A_t - A_u for all t != u, checked exhaustively."""
    for t in gfq.elements():
        for u in gfq.elements():
            if t == u:
                continue
            a, b, c, d = (
                gfq.sub(clan[t][0], clan[u][0]),
                gfq.sub(clan[t][1], clan[u][1]),
                gfq.sub(clan[t][2], clan[u][2]),
                gfq.sub(clan[t][3], clan[u][3]),
            )
            for x in gfq.elements():
                for y in gfq.elements():
                    if x == 0 and y == 0:
                        continue
                    val = gfq.add(
                        gfq.add(gfq.mul(a, gfq.mul(x, x)), gfq.mul(gfq.add(b, c), gfq.mul(x, y))),
                        gfq.mul(d, gfq.mul(y, y)),
                    )
                    if val == 0:
                        raise ValueError(
                            f"q-clan condition fails at t={t}, u={u}, vector=({x},{y})"
                        )


def build_kantor_knuth(spec: QClanSpec, clan_override=None) -> KKResult:
    """Flock quadrangle of order (q^2, q) from the coset model, then dualized
    to order (q, q^2); the line [inf] fixed by every automorphism is marked.

    The coset model: G = {(a, c, b): a, b in F^2, c in F} with
    (a,c,b)(a',c',b') = (a+a', c+c'+b.a', b+b'); one member subgroup per clan
    matrix plus one at infinity; points are G, the tangent-space cosets and a
    symbol; lines are the member-subgroup cosets and one symbol per member.
    """
    q = spec.q
    gfq = field_of_order(q)
    if gfq.p != 3:
        raise ValueError("Kantor-Knuth clan needs characteristic 3")
    if gfq.is_square(spec.m):
        raise ValueError(f"m={spec.m} is a square; clan needs a non-square")
    h = gfq.h
    classical = spec.sigma_exp % h == 0

    if clan_override is not None:
        clan = dict(clan_override)
    else:
        clan = {}
        for t in gfq.elements():
            tsig = gfq.frobenius(t, spec.sigma_exp)
            clan[t] = (t, 0, 0, gfq.neg(gfq.mul(spec.m, tsig)))
    _check_qclan(gfq, clan)

    add = gfq.add_table.astype(np.int64)
    mul = gfq.mul_table.astype(np.int64)
    neg = gfq.neg_table.astype(np.int64)

    # all group elements, componentwise
    codes = np.arange(q**5, dtype=np.int64)
    a1 = codes % q
    a2 = (codes // q) % q
    cc = (codes // q**2) % q
    b1 = (codes // q**3) % q
    b2 = (codes // q**4) % q

    n_g = q**5
    tvals = list(gfq.elements())  # finite clan members; infinity handled apart
    n_members = q + 1

    # flock line ids: symbols [A(t)] first (0..q), then member-subgroup cosets;
    # flock point ids: G elements, then tangent cosets, then the symbol
    def tangent_point_id(member_idx, label):
        return n_g + member_idx * q**2 + label

    sym_point = n_g + n_members * q**2

    incid_pts = []
    incid_lns = []

    for idx in range(n_members):
        if idx < q:
            t = tvals[idx]
            at11, at12, at21, at22 = clan[t]
            k11 = add[at11, at11]
            k12 = add[at12, at21]
            k22 = add[at22, at22]
            # quadratic form Q_t(a) = a A_t a^T and the vector a K_t
            qf = add[
                add[mul[at11, mul[a1, a1]], mul[add[at12, at21], mul[a1, a2]]],
                mul[at22, mul[a2, a2]],
            ]
            ak1 = add[mul[a1, k11], mul[a2, k12]]
            ak2 = add[mul[a1, k12], mul[a2, k22]]
            # canonical coset representative has a = 0:
            #   rep = (0, c - Q_t(a), b - a K_t) for the member coset,
            #   rep = (0, 0, b - a K_t)          for the tangent coset.
            c_rep = add[cc, neg[qf]]
            br1 = add[b1, neg[ak1]]
            br2 = add[b2, neg[ak2]]
            beta_label = br1 + q * br2
            member_label = c_rep + q * beta_label
            tangent_label = beta_label
        else:
            # member at infinity: A(inf) = {(0,0,b)}, A*(inf) = {(0,c,b)}
            badota = add[mul[b1, a1], mul[b2, a2]]
            c_rep = add[cc, neg[badota]]
            member_label = a1 + q * a2 + q * q * c_rep
            tangent_label = a1 + q * a2

        lid = n_members + idx * q**3 + member_label
        incid_pts.append(codes.copy())
        incid_lns.append(lid)

        # each member coset carries its tangent coset point exactly once
        uniq_member, first = np.unique(member_label, return_index=True)
        assert uniq_member.size == q**3
        incid_pts.append(tangent_point_id(idx, tangent_label[first]))
        incid_lns.append(n_members + idx * q**3 + uniq_member)

        # symbol line [A(t)] carries the q^2 tangent points and the symbol point
        sym_line_pts = np.concatenate(
            [
                np.arange(n_g + idx * q**2, n_g + (idx + 1) * q**2, dtype=np.int64),
                np.array([sym_point], dtype=np.int64),
            ]
        )
        incid_pts.append(sym_line_pts)
        incid_lns.append(np.full(sym_line_pts.shape, idx, dtype=np.int64))

    flat_pts = np.concatenate([np.asarray(p, dtype=np.int64).ravel() for p in incid_pts])
    flat_lns = np.concatenate([np.asarray(l, dtype=np.int64).ravel() for l in incid_lns])

    n_flock_points = n_g + n_members * q**2 + 1
    n_flock_lines = n_members + n_members * q**3

    # dualize: KK points are flock lines, KK lines are flock points
    order = np.argsort(flat_pts, kind="stable")
    sorted_pts = flat_pts[order]
    sorted_lns = flat_lns[order]
    boundaries = np.searchsorted(sorted_pts, np.arange(n_flock_points + 1))
    kk_lines = []
    for p in range(n_flock_points):
        segment = sorted_lns[boundaries[p] : boundaries[p + 1]]
        kk_lines.append(tuple(sorted(int(x) for x in segment)))

    structure = IncidenceStructure(
        n_flock_lines,
        kk_lines,
        name=f"KK({q};sigma^{spec.sigma_exp},m={spec.m})"
        if not classical
        else f"KKclassical({q})",
    )
    infinity = structure.line_index[tuple(range(n_members))]
    return KKResult(structure, infinity, classical, spec)
