"""Subtended ovoids, rosettes, the subtension census, and the derived pair:
the affine geometry A (ambient minus hyperplane) and the ovoid-rosette
geometry E with the canonical projection between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .errors import ConsistencyViolation, HypothesisError
from .incidence import IncidenceStructure, SubGeometryEmbedding, gq_order
from . import covers


@dataclass(frozen=True)
class Ovoid:
    """A subtended ovoid: its point set (substructure indices) plus every
    external point subtending it (ambient indices).  Identity is the point set."""

    geometry: IncidenceStructure
    points: frozenset
    subtenders: tuple

    @property
    def theta(self):
        return len(self.subtenders)


@dataclass(frozen=True)
class Rosette:
    """The s ovoids subtended from one ambient line off the subgeometry; all
    witness lines realizing this ovoid set are retained."""

    base_point: int  # substructure index shared by all member ovoids
    ovoids: tuple  # indices into the ovoid list of the derived pair
    witness_lines: tuple  # ambient line indices


@dataclass(frozen=True)
class CensusReport:
    counts: dict  # theta value -> number of ovoids
    uniform: bool
    theta: Optional[int]
    ovoid_count: int
    external_count: int


def _census(sizes, *, s, tprime) -> CensusReport:
    """The census of a list of class sizes, with the bound (theta-1)*t' <= s
    asserted for every occurring theta."""
    counts = {}
    for theta in sizes.tolist():
        counts[theta] = counts.get(theta, 0) + 1
    for theta in counts:
        if (theta - 1) * tprime > s:
            raise ConsistencyViolation(
                f"subtension bound violated: theta={theta}, t'={tprime}, s={s}"
            )
    uniform = len(counts) == 1
    return CensusReport(
        counts=counts,
        uniform=uniform,
        theta=next(iter(counts)) if uniform else None,
        ovoid_count=len(sizes),
        external_count=int(sizes.sum()),
    )


def subtended_ovoid(emb: SubGeometryEmbedding, x) -> Ovoid:
    """The ovoid cut out by the perp of an external point, with all of its
    subtenders."""
    if x in emb.point_fwd:
        raise ValueError(f"point {x} lies in the subgeometry")
    if not 0 <= x < emb.ambient.point_count:
        raise ValueError(f"invalid point {x}")
    classes = emb.ovoid_classes
    i = int(np.searchsorted(classes.external, x))
    subtenders = classes.external[classes.class_of == classes.class_of[i]]
    pts = frozenset(np.nonzero(classes.rows[i])[0].tolist())
    if emb.sub_order is not None:
        expected = emb.sub_order.s * emb.sub_order.t + 1
        if len(pts) != expected:
            raise ConsistencyViolation(
                f"subtended ovoid has {len(pts)} points, expected {expected}"
            )
    return Ovoid(emb.substructure, pts, tuple(subtenders.tolist()))


def theta_census(emb: SubGeometryEmbedding) -> CensusReport:
    """Subtender counts of every subtended ovoid, with the bound
    (theta-1)*t' <= s asserted for every occurring theta."""
    if emb.sub_order is None:
        raise HypothesisError("census needs a subgeometry that is a quadrangle")
    s, _t = gq_order(emb.ambient)
    return _census(emb.ovoid_classes.sizes, s=s, tprime=emb.sub_order.t)


# -- the derived pair -------------------------------------------------------------


@dataclass
class DerivedPair:
    embedding: SubGeometryEmbedding
    A: IncidenceStructure
    E: IncidenceStructure
    pi: Optional[covers.GeometryMorphism]
    census: CensusReport
    ovoids: tuple  # Ovoid, index == E point index
    rosettes: tuple  # Rosette, index == E line index
    cover_certificate: Optional[covers.CoverCertificate]
    a_point_of_external: dict = dfield(repr=False, default_factory=dict)
    external_of_a_point: tuple = dfield(repr=False, default=())
    a_line_of_ambient: dict = dfield(repr=False, default_factory=dict)
    ambient_of_a_line: tuple = dfield(repr=False, default=())

    @property
    def is_cover(self):
        return self.cover_certificate is not None


def build_derived_pair(emb: SubGeometryEmbedding) -> DerivedPair:
    """Build A, E and the canonical projection for a full subGQ embedding.

    For geometric hyperplanes the projection is verified surjective and a
    cover; otherwise (some ambient lines miss the subgeometry entirely) the
    pair carries no projection or certificate and is only fit for census and
    parameter work.
    """
    if not emb.flags.is_full:
        raise HypothesisError("derived pair needs a full subgeometry")
    if emb.sub_order is None:
        raise HypothesisError("derived pair needs a subgeometry that is a quadrangle")
    amb = emb.ambient
    is_hyp = emb.flags.is_geometric_hyperplane

    ext = list(emb.external_points)
    ext_index = {p: i for i, p in enumerate(ext)}
    pset = set(emb.point_subset)
    lset = set(emb.line_subset)

    a_lines = []
    restricted_of_ambient = {}
    for li, line in enumerate(amb.lines):
        if li in lset:
            continue
        restricted = tuple(sorted(ext_index[p] for p in line if p not in pset))
        a_lines.append(restricted)
        restricted_of_ambient[li] = restricted
    A = IncidenceStructure(len(ext), a_lines, name=f"{amb.name}|affine")
    # the constructor re-sorts lines canonically; rebuild both translations
    a_line_of_ambient = {
        li: A.line_index[restricted] for li, restricted in restricted_of_ambient.items()
    }
    ambient_of_a_line = [0] * A.line_count
    for li, ai in a_line_of_ambient.items():
        ambient_of_a_line[ai] = li

    classes = emb.ovoid_classes
    class_of = classes.class_of
    ovoids = tuple(
        Ovoid(
            emb.substructure,
            frozenset(np.nonzero(classes.rows[r])[0].tolist()),
            tuple(members.tolist()),
        )
        for r, members in zip(classes.representatives, classes.subtenders())
    )
    s = emb.sub_order.s
    census = _census(classes.sizes, s=s, tprime=emb.sub_order.t)

    # rosettes: ambient lines meeting the subgeometry in exactly one point
    rosette_base_of_key = {}
    rosette_witness_of_key = {}
    line_rosette_key = {}  # ambient line -> member tuple
    for li, line in enumerate(amb.lines):
        if li in lset:
            continue
        inside = [p for p in line if p in pset]
        if len(inside) != 1:
            continue
        z_sub = emb.point_fwd[inside[0]]
        members = tuple(sorted({int(class_of[ext_index[p]]) for p in line if p not in pset}))
        if len(members) != s:
            raise ConsistencyViolation(
                f"rosette from line {li} has {len(members)} distinct ovoids, expected {s}"
            )
        if rosette_base_of_key.setdefault(members, z_sub) != z_sub:
            raise ConsistencyViolation("one ovoid set realized over two base points")
        rosette_witness_of_key.setdefault(members, []).append(li)
        line_rosette_key[li] = members

    E = IncidenceStructure(
        len(ovoids), rosette_base_of_key.keys(), name=f"{amb.name}|derived"
    )
    # E's canonical line order defines the rosette indexing
    rosettes = tuple(
        Rosette(
            rosette_base_of_key[key],
            key,
            tuple(rosette_witness_of_key[key]),
        )
        for key in E.lines
    )
    _verify_rosettes(
        emb, ovoids, [r.ovoids for r in rosettes], [r.base_point for r in rosettes]
    )

    pi = None
    certificate = None
    if is_hyp:
        point_map = class_of.tolist()
        line_map = []
        for ai in range(A.line_count):
            li = ambient_of_a_line[ai]
            if li not in line_rosette_key:
                raise ConsistencyViolation(
                    "hyperplane embedding with an affine line missing the subgeometry"
                )
            line_map.append(E.line_index[line_rosette_key[li]])
        pi = covers.GeometryMorphism(A, E, tuple(point_map), tuple(line_map))
        if set(point_map) != set(range(E.point_count)) or set(line_map) != set(
            range(E.line_count)
        ):
            raise ConsistencyViolation("canonical projection is not surjective")
        res = covers.verify_cover(pi)
        if not isinstance(res, covers.CoverCertificate):
            raise ConsistencyViolation(f"canonical projection is not a cover: {res}")
        certificate = res

    return DerivedPair(
        embedding=emb,
        A=A,
        E=E,
        pi=pi,
        census=census,
        ovoids=ovoids,
        rosettes=rosettes,
        cover_certificate=certificate,
        a_point_of_external=ext_index,
        external_of_a_point=tuple(ext),
        a_line_of_ambient=a_line_of_ambient,
        ambient_of_a_line=tuple(ambient_of_a_line),
    )


def _verify_rosettes(emb, ovoids, rosette_members, rosette_base):
    """Size, pairwise-intersection and coverage identities for every rosette.

    Coverage: the member ovoids cover exactly the base point plus everything
    not collinear with it in the subgeometry (the sizes force equality).
    """
    sub = emb.substructure
    for members, base in zip(rosette_members, rosette_base):
        sets = [ovoids[k].points for k in members]
        union = frozenset().union(*sets)
        for i in range(len(sets)):
            if base not in sets[i]:
                raise ConsistencyViolation("rosette member missing the base point")
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j] != {base}:
                    raise ConsistencyViolation(
                        "two rosette members share more than the base point"
                    )
        expected = (frozenset(range(sub.point_count)) - sub.perp(base)) | {base}
        if union != expected:
            raise ConsistencyViolation("rosette coverage identity failed")


# -- pointwise checks -------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionReport:
    ovoid_x: frozenset
    ovoid_xprime: frozenset
    intersection_size: int
    sees_common_perp: bool
    expected: int
    ok: bool


def check_ovoid_intersections(emb: SubGeometryEmbedding, x, xp) -> IntersectionReport:
    """Two-ovoid intersection dichotomy under the hypotheses t' != 1,
    t = s t', (theta-1) t = s^2 with a uniform census: size t/s + 1 when the
    second point sees none of the first ovoid's common perp, size 1 when it
    sees some of it."""
    s, t = gq_order(emb.ambient)
    if emb.sub_order is None:
        raise HypothesisError("subgeometry is not a quadrangle")
    tprime = emb.sub_order.t
    census = theta_census(emb)
    if tprime == 1:
        raise HypothesisError("hypothesis t' != 1 fails")
    if t != s * tprime:
        raise HypothesisError("hypothesis t = s*t' fails")
    if not census.uniform:
        raise HypothesisError("census is not uniform")
    if (census.theta - 1) * t != s * s:
        raise HypothesisError("hypothesis (theta-1)*t = s^2 fails")

    ov_x = subtended_ovoid(emb, x)
    ov_xp = subtended_ovoid(emb, xp)
    amb = emb.ambient
    ovoid_ambient = [emb.point_subset[i] for i in sorted(ov_x.points)]
    common_perp = amb.perp_set(ovoid_ambient)
    if xp in common_perp:
        raise HypothesisError("second point lies in the ovoid's common perp")
    sees = any(amb.collinearity[xp, w] for w in common_perp)
    inter = len(ov_x.points & ov_xp.points)
    expected = 1 if sees else t // s + 1
    return IntersectionReport(
        ov_x.points, ov_xp.points, inter, sees, expected, inter == expected
    )


@dataclass(frozen=True)
class ContactReport:
    checked_ovoids: int
    checked_points: int
    ok: bool
    violations: tuple


def check_outside_contacts(emb: SubGeometryEmbedding) -> ContactReport:
    """For theta = s+1, t' = 1: every point outside (ovoid union subtenders)
    is collinear with exactly two of its points; exhaustive scan."""
    s, _t = gq_order(emb.ambient)
    if emb.sub_order is None or emb.sub_order.t != 1:
        raise HypothesisError("hypothesis t' = 1 fails")
    census = theta_census(emb)
    if not census.uniform or census.theta != s + 1:
        raise HypothesisError(f"hypothesis theta = s+1 fails (census {census.counts})")

    amb = emb.ambient
    classes = emb.ovoid_classes
    sub = np.array(emb.point_subset, dtype=np.int64)
    violations = []
    checked_points = 0
    for k, (r, subs) in enumerate(zip(classes.representatives, classes.subtenders())):
        members = np.concatenate([sub[classes.rows[r]], subs])
        counts = amb.collinearity[members].sum(axis=0)
        counts[members] = 2  # only the points outside the members are checked
        checked_points += amb.point_count - len(members)
        violations += [(int(z), k, int(counts[z])) for z in np.flatnonzero(counts != 2)]
    return ContactReport(len(classes.sizes), checked_points, not violations, tuple(violations))
