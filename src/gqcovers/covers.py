"""Morphisms and covers between incidence structures: verification, the one
backtracking morphism search behind cover enumeration, isomorphism search
and automorphism extension, factorization through the canonical
projection, the initial-object property, rebuilding the ambient quadrangle
from an abstract cover, and the planar transversal configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autgroup import Permutation, inverse
from .errors import BudgetExceeded, ConsistencyViolation, HypothesisError

# -- morphisms -----------------------------------------------------------------


@dataclass(frozen=True)
class GeometryMorphism:
    """Total point and line maps preserving incidence."""

    source: object
    target: object
    point_map: tuple
    line_map: tuple

    def compose_perm_after(self, point_perm, line_perm):
        """(perm o self): apply a target permutation after this morphism."""
        return GeometryMorphism(
            self.source,
            self.target,
            tuple(point_perm[p] for p in self.point_map),
            tuple(line_perm[l] for l in self.line_map),
        )

    def __eq__(self, other):
        return (
            isinstance(other, GeometryMorphism)
            and self.point_map == other.point_map
            and self.line_map == other.line_map
            and self.source is other.source
            and self.target is other.target
        )

    def __hash__(self):
        return hash((self.point_map, self.line_map))


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    witness: Optional[tuple]
    message: str


@dataclass(frozen=True)
class CoverCertificate:
    morphism: GeometryMorphism
    theta: Optional[int]  # present iff all fibers share one size
    point_fibers: tuple  # tuple of tuples, indexed by target point
    line_fibers: tuple


@dataclass(frozen=True)
class CoverFailure:
    kind: str  # 'not_morphism', 'local_point' or 'local_line'
    witness: tuple
    message: str


def verify_morphism(m: GeometryMorphism) -> MorphismCheck:
    src, tgt = m.source, m.target
    if len(m.point_map) != src.point_count or len(m.line_map) != src.line_count:
        return MorphismCheck(False, None, "maps are not total")
    for li, line in enumerate(src.lines):
        image_line = tgt.lines[m.line_map[li]]
        for p in line:
            if m.point_map[p] not in image_line:
                return MorphismCheck(
                    False,
                    (p, li),
                    f"incidence broken: point {p} on line {li} maps off the image line",
                )
    return MorphismCheck(True, None, "ok")


def verify_cover(m: GeometryMorphism):
    """CoverCertificate (fibers, constant size when it exists) or CoverFailure.

    Local bijectivity: the pencil of every point maps bijectively onto the
    pencil of its image, and the points of every line map bijectively onto
    the points of the image line.  When the target is connected the map is
    also checked surjective.
    """
    chk = verify_morphism(m)
    if not chk.ok:
        return CoverFailure("not_morphism", chk.witness, chk.message)
    src, tgt = m.source, m.target
    for x in range(src.point_count):
        images = [m.line_map[li] for li in src.point_lines[x]]
        if len(set(images)) != len(images) or set(images) != set(
            tgt.point_lines[m.point_map[x]]
        ):
            return CoverFailure(
                "local_point", (x,), f"pencil of point {x} does not map bijectively"
            )
    for li, line in enumerate(src.lines):
        images = [m.point_map[p] for p in line]
        if len(set(images)) != len(images) or set(images) != set(
            tgt.lines[m.line_map[li]]
        ):
            return CoverFailure(
                "local_line", (li,), f"row of line {li} does not map bijectively"
            )
    point_fibers = [[] for _ in range(tgt.point_count)]
    for p, ip in enumerate(m.point_map):
        point_fibers[ip].append(p)
    line_fibers = [[] for _ in range(tgt.line_count)]
    for li, il in enumerate(m.line_map):
        line_fibers[il].append(li)
    if tgt.is_connected() and (
        any(not f for f in point_fibers) or any(not f for f in line_fibers)
    ):
        return CoverFailure("local_point", (), "cover of a connected target must be onto")
    sizes = {len(f) for f in point_fibers} | {len(f) for f in line_fibers}
    theta = sizes.pop() if len(sizes) == 1 else None
    return CoverCertificate(
        m,
        theta,
        tuple(tuple(f) for f in point_fibers),
        tuple(tuple(f) for f in line_fibers),
    )


# -- the morphism search: covers, isomorphisms, extensions --------------------------


def _morphism_search(src, tgt, domains, *, injective, first_only, node_budget):
    """Every locally bijective point map src -> tgt inside the starting domains.

    Domain-filtering backtracking after Ullmann, "An algorithm for subgraph
    isomorphism" (J. ACM 1976).  domains[x] is a bitmask over the target
    points x may map to, so a singleton fixes x; it is cut to the points of
    x's degree.  The point with the smallest domain is assigned first and
    unit domains are assigned eagerly.  Assigning x -> w restricts the points
    collinear with x to the strict neighbours of w.  A line's image is
    derived the moment two of its points are assigned: the target line
    through their images, of the same size, with pencil bijectivity enforced
    at every assigned point; its unassigned points are restricted to that
    line.  With `injective` w also leaves every other domain, and the points
    not collinear with x are restricted to the points not collinear with w,
    so collinearity is kept both ways.

    Returns the complete assignments as sorted (point_map, line_map) tuples,
    only the first one found with `first_only`; callers certify them.  Past
    `node_budget` candidate images it raises BudgetExceeded, reporting the
    nodes visited, the most points assigned at once and the solutions found.
    """
    n, nt = src.point_count, tgt.point_count
    line_through = [{} for _ in range(nt)]
    line_mask = []
    for e, line in enumerate(tgt.lines):
        mask = 0
        for a in line:
            mask |= 1 << a
            for b in line:
                if a != b:
                    line_through[a][b] = e
        line_mask.append(mask)
    nbr, far, by_degree = [], [], {}
    for w in range(nt):
        mask = 0
        for e in tgt.point_lines[w]:
            mask |= line_mask[e]
        nbr.append(mask & ~(1 << w))
        far.append(((1 << nt) - 1) & ~mask & ~(1 << w))
        deg = len(tgt.point_lines[w])
        by_degree[deg] = by_degree.get(deg, 0) | (1 << w)
    src_nbr = [
        sorted({y for li in src.point_lines[x] for y in src.lines[li]} - {x})
        for x in range(n)
    ]
    src_far = [sorted(set(range(n)) - set(src_nbr[x]) - {x}) for x in range(n)]

    def assign(dom, img, limg, queue):
        """Assign the queued (point, image) pairs and propagate; False on a
        wiped-out domain or a clash of line images."""
        while queue:
            x, w = queue.pop()
            if img[x] >= 0:
                continue
            img[x] = w
            pencil = [limg[li] for li in src.point_lines[x] if limg[li] >= 0]
            if len(set(pencil)) != len(pencil):
                return False
            cuts = [(src_nbr[x], nbr[w])]
            if injective:
                cuts.append((src_far[x], far[w]))
            for li in src.point_lines[x]:
                if limg[li] >= 0:
                    continue
                partner = next((y for y in src.lines[li] if y != x and img[y] >= 0), -1)
                if partner < 0:
                    continue
                e = line_through[w].get(img[partner])
                if e is None or len(tgt.lines[e]) != len(src.lines[li]):
                    return False
                for y in src.lines[li]:
                    if img[y] >= 0 and any(limg[mj] == e for mj in src.point_lines[y]):
                        return False
                limg[li] = e
                cuts.append((src.lines[li], line_mask[e]))
            for ys, keep in cuts:
                for y in ys:
                    if img[y] < 0:
                        new = dom[y] & keep
                        if new != dom[y]:
                            if not new:
                                return False
                            dom[y] = new
                            if not new & (new - 1):
                                queue.append((y, new.bit_length() - 1))
        return True

    solutions = []
    nodes = deepest = 0

    def search(dom, img, limg):
        nonlocal nodes, deepest
        free = [x for x in range(n) if img[x] < 0]
        deepest = max(deepest, n - len(free))
        if not free:
            if -1 not in limg:
                solutions.append((tuple(img), tuple(limg)))
            return
        x = min(free, key=lambda y: dom[y].bit_count())
        cand = dom[x]
        while cand and not (first_only and solutions):
            low = cand & -cand
            cand ^= low
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(
                    f"morphism search exceeded {node_budget} nodes: visited {nodes} "
                    f"nodes, deepest {deepest} of {n} points assigned, "
                    f"{len(solutions)} solutions found"
                )
            child = (dom[:], img[:], limg[:])
            if assign(*child, [(x, low.bit_length() - 1)]):
                search(*child)

    dom = [d & by_degree.get(len(src.point_lines[x]), 0) for x, d in enumerate(domains)]
    img, limg = [-1] * n, [-1] * src.line_count
    units = [(x, d.bit_length() - 1) for x, d in enumerate(dom) if not d & (d - 1)]
    if 0 not in dom and assign(dom, img, limg, units):
        search(dom, img, limg)
    return sorted(solutions)


def _certified_cover(src, tgt, point_map, line_map):
    m = GeometryMorphism(src, tgt, point_map, line_map)
    cert = verify_cover(m)
    if not isinstance(cert, CoverCertificate):
        raise ConsistencyViolation(f"morphism search produced a non-cover: {cert.message}")
    return m


def enumerate_covers(A, E, *, node_budget=2_000_000, first_only=False):
    """All covers A -> E, sorted by (point_map, line_map); with `first_only`
    the first one found.  `_morphism_search` runs non-injective with every
    point of E open to every point of A (it keeps those of equal degree), and
    each result is certified by verify_cover.  Requires a connected source.
    """
    if not A.is_connected():
        raise ValueError("cover enumeration requires a connected source")
    found = _morphism_search(
        A, E, [(1 << E.point_count) - 1] * A.point_count,
        injective=False, first_only=first_only, node_budget=node_budget,
    )
    return [_certified_cover(A, E, pm, lm) for pm, lm in found]


def find_isomorphism(g1, g2, *, node_budget=5_000_000):
    """An isomorphism g1 -> g2 as a GeometryMorphism, or None.

    After the size and degree prechecks, `_morphism_search` runs injective
    from every point's same-degree candidates and stops at its first
    solution, which is certified through verify_cover (a bijective cover is
    an isomorphism).
    """
    n = g1.point_count
    if (
        n != g2.point_count
        or g1.line_count != g2.line_count
        or sorted(map(len, g1.lines)) != sorted(map(len, g2.lines))
        or sorted(map(len, g1.point_lines)) != sorted(map(len, g2.point_lines))
    ):
        return None
    found = _morphism_search(
        g1, g2, [(1 << n) - 1] * n, injective=True, first_only=True,
        node_budget=node_budget,
    )
    return _certified_cover(g1, g2, *found[0]) if found else None


# -- factorization through the canonical projection -----------------------------------


@dataclass(frozen=True)
class FactorizationResult:
    """gamma = (automorphism of E) o (canonical projection), with the induced
    permutation of the subgeometry points and its measured orientation."""

    e_point_perm: tuple
    e_line_perm: tuple
    base_point_map: tuple  # permutation of substructure points
    orientation: str  # 'direct' or 'inverse'


def factorize_lower(pair, gamma: GeometryMorphism) -> FactorizationResult:
    """Factor a cover gamma: A -> E as automorphism-after-projection.

    The automorphism is defined fiberwise (image of any projection preimage)
    and well-definedness is verified over whole fibers, never assumed; the
    induced permutation of subgeometry points is read off the line fibers
    and checked to be a collinearity-preserving bijection both ways.
    """
    if pair.pi is None or pair.cover_certificate is None:
        raise HypothesisError("factorization needs the canonical projection cover")
    cert = verify_cover(gamma)
    if not isinstance(cert, CoverCertificate):
        raise HypothesisError(f"gamma is not a cover: {cert}")
    A, E = pair.A, pair.E
    pi = pair.pi
    pi_cert = pair.cover_certificate

    e_point_perm = [-1] * E.point_count
    for target_pt, fiber in enumerate(pi_cert.point_fibers):
        images = {gamma.point_map[p] for p in fiber}
        if len(images) != 1:
            raise ConsistencyViolation(
                f"point fiber over {target_pt} maps to {sorted(images)}; "
                "factorization is not well defined"
            )
        e_point_perm[target_pt] = images.pop()
    e_line_perm = [-1] * E.line_count
    for target_ln, fiber in enumerate(pi_cert.line_fibers):
        images = {gamma.line_map[l] for l in fiber}
        if len(images) != 1:
            raise ConsistencyViolation(
                f"line fiber over {target_ln} maps to {sorted(images)}; "
                "factorization is not well defined"
            )
        e_line_perm[target_ln] = images.pop()

    try:
        Permutation(E, tuple(e_point_perm), tuple(e_line_perm))
    except ValueError as exc:
        raise ConsistencyViolation(f"factorization breaks E: {exc}") from exc
    for p in range(A.point_count):
        if e_point_perm[pi.point_map[p]] != gamma.point_map[p]:
            raise ConsistencyViolation("factorization identity fails on a point")
    for l in range(A.line_count):
        if e_line_perm[pi.line_map[l]] != gamma.line_map[l]:
            raise ConsistencyViolation("factorization identity fails on a line")

    base_map = _base_point_map(pair, cert)
    orientation = _orientation(pair, e_point_perm, base_map)
    return FactorizationResult(
        tuple(e_point_perm), tuple(e_line_perm), base_map, orientation
    )


def _base_point_map(pair, gamma_cert) -> tuple:
    """For each rosette, all gamma-preimage lines (the certificate's line
    fiber) share one subgeometry point; send it to the rosette's base point.
    Totality, injectivity and collinearity preservation (both ways) are
    verified."""
    emb = pair.embedding
    amb = emb.ambient
    sub = emb.substructure
    n_sub = sub.point_count
    zeta = [-1] * n_sub
    for ridx, rosette in enumerate(pair.rosettes):
        fiber = gamma_cert.line_fibers[ridx]
        feet = set()
        for al in fiber:
            ambient_line = amb.lines[pair.ambient_of_a_line[al]]
            inside = [p for p in ambient_line if p in emb.point_fwd]
            if len(inside) != 1:
                raise ConsistencyViolation("affine line without a unique foot")
            feet.add(emb.point_fwd[inside[0]])
        if len(feet) != 1:
            raise ConsistencyViolation(
                f"lines covering rosette {ridx} stand on several points {sorted(feet)}"
            )
        u = feet.pop()
        uprime = rosette.base_point
        if zeta[u] not in (-1, uprime):
            raise ConsistencyViolation(
                f"base point map not functional at subgeometry point {u}"
            )
        zeta[u] = uprime
    if -1 in zeta or sorted(zeta) != list(range(n_sub)):
        raise ConsistencyViolation("base point map is not a bijection")
    coll = sub.collinearity
    arr = np.array(zeta)
    inv = np.empty_like(arr)
    inv[arr] = np.arange(n_sub)
    if not (coll[np.ix_(arr, arr)] == coll).all():
        raise ConsistencyViolation("base point map does not preserve collinearity")
    if not (coll[np.ix_(inv, inv)] == coll).all():
        raise ConsistencyViolation("inverse base point map does not preserve collinearity")
    return tuple(int(x) for x in zeta)


def _orientation(pair, e_point_perm, base_map) -> str:
    """Whether the E-automorphism acts on ovoid point sets as the base point
    map or as its inverse; one orientation must fit all of E."""
    arr = np.array(base_map)
    inv = np.empty_like(arr)
    inv[arr] = np.arange(len(base_map))
    direct = all(
        frozenset(int(arr[p]) for p in pair.ovoids[o].points)
        == pair.ovoids[e_point_perm[o]].points
        for o in range(len(pair.ovoids))
    )
    if direct:
        return "direct"
    backward = all(
        frozenset(int(inv[p]) for p in pair.ovoids[o].points)
        == pair.ovoids[e_point_perm[o]].points
        for o in range(len(pair.ovoids))
    )
    if backward:
        return "inverse"
    raise ConsistencyViolation("no orientation of the base point map fits the action")


@dataclass(frozen=True)
class ConnectingReport:
    point_perm: tuple
    line_perm: tuple
    unique: bool


def verify_initial_object(pair, gamma, gamma_prime) -> ConnectingReport:
    """The unique automorphism delta of E with delta o gamma = gamma'.

    delta is computed from the two factorizations and cross-checked against
    the pointwise forcing delta(gamma(v)) = gamma'(v); surjectivity of gamma
    makes that forcing total, which is what uniqueness means here.
    """
    f1 = factorize_lower(pair, gamma)
    f2 = factorize_lower(pair, gamma_prime)
    inv_pt = inverse(f1.e_point_perm)
    inv_ln = inverse(f1.e_line_perm)
    delta_pt = tuple(f2.e_point_perm[inv_pt[i]] for i in range(len(inv_pt)))
    delta_ln = tuple(f2.e_line_perm[inv_ln[i]] for i in range(len(inv_ln)))

    forced_pt = {}
    for p in range(pair.A.point_count):
        key = gamma.point_map[p]
        val = gamma_prime.point_map[p]
        if forced_pt.setdefault(key, val) != val:
            raise ConsistencyViolation("no connecting map exists")
    forced_ln = {}
    for l in range(pair.A.line_count):
        key = gamma.line_map[l]
        val = gamma_prime.line_map[l]
        if forced_ln.setdefault(key, val) != val:
            raise ConsistencyViolation("no connecting map exists")
    unique = len(forced_pt) == pair.E.point_count and len(forced_ln) == pair.E.line_count
    for k, v in forced_pt.items():
        if delta_pt[k] != v:
            raise ConsistencyViolation("connecting map disagrees with the forcing")
    for k, v in forced_ln.items():
        if delta_ln[k] != v:
            raise ConsistencyViolation("connecting map disagrees with the forcing")
    try:
        Permutation(pair.E, delta_pt, delta_ln)
    except ValueError as exc:
        raise ConsistencyViolation(f"connecting map breaks E: {exc}") from exc
    return ConnectingReport(delta_pt, delta_ln, unique)


# -- rebuilding the ambient quadrangle from an abstract cover ---------------------------


@dataclass
class CoverReconstruction:
    quadrangle: object  # the rebuilt GQ
    hyperplane_points: tuple  # its point indices forming the rebuilt subGQ
    hyperplane_lines: tuple
    point_iso: tuple  # rebuilt hyperplane point index -> substructure point
    star_sets: tuple  # per substructure point, the tuple of cover lines
    cover_point_ids: tuple  # cover point -> rebuilt point index
    cover_line_ids: tuple


def reconstruct_from_cover(pair, C, gamma: GeometryMorphism) -> CoverReconstruction:
    """Extend a triangle-free constant-fiber cover of E to a quadrangle with a
    hyperplane isomorphic to the original subgeometry.

    Per substructure point, the cover lines over the rosettes based there are
    collected (their pairwise disjointness is verified, not assumed) and become
    one new point; tuples of collinear substructure points become new lines.
    The result is checked for order and counts, which rules out triangles,
    and for reproducing E through the point identification.
    """
    from .incidence import IncidenceStructure, gq_order, verify_gq_axioms, GQOrder

    tri = C.has_triangle()
    if tri is not None:
        raise HypothesisError(f"cover source contains a triangle: {tri}")
    cert = verify_cover(gamma)
    if not isinstance(cert, CoverCertificate):
        raise HypothesisError(f"gamma is not a cover: {cert}")
    if cert.theta is None:
        raise HypothesisError("cover fibers are not of constant size")
    theta = cert.theta

    emb = pair.embedding
    sub = emb.substructure
    s, t = gq_order(emb.ambient)
    tprime = emb.sub_order.t

    rosettes_at = [[] for _ in range(sub.point_count)]
    for ridx, rosette in enumerate(pair.rosettes):
        rosettes_at[rosette.base_point].append(ridx)

    star_sets = []
    for x in range(sub.point_count):
        if len(rosettes_at[x]) * theta != t - tprime:
            raise ConsistencyViolation(
                f"substructure point {x} carries {len(rosettes_at[x])} rosettes, "
                f"expected {(t - tprime) // theta}"
            )
        lines = [l for r in rosettes_at[x] for l in cert.line_fibers[r]]
        seen = set()
        for l in lines:
            pts = set(C.lines[l])
            if seen & pts:
                raise ConsistencyViolation(
                    f"cover lines over the rosettes at {x} are not mutually disjoint"
                )
            seen |= pts
        star_sets.append(tuple(sorted(lines)))

    nC, mC = C.point_count, C.line_count
    new_point_of_sub = tuple(nC + x for x in range(sub.point_count))
    all_lines = []
    # cover lines gain their star point
    star_of_cover_line = {}
    for x, lines in enumerate(star_sets):
        for l in lines:
            if l in star_of_cover_line:
                raise ConsistencyViolation("a cover line lies in two star sets")
            star_of_cover_line[l] = x
    if len(star_of_cover_line) != mC:
        raise ConsistencyViolation("star sets do not partition the cover lines")
    for l in range(mC):
        all_lines.append(tuple(sorted(C.lines[l] + (nC + star_of_cover_line[l],))))
    # hyperplane lines from collinear substructure tuples
    hyper_lines = []
    for line in sub.lines:
        members = [nC + x for x in line]
        stars = [star_sets[x] for x in line]
        flat = [l for st in stars for l in st]
        covered = set()
        for l in flat:
            pts = set(C.lines[l])
            if covered & pts:
                raise ConsistencyViolation(
                    "star sets along a substructure line are not mutually disjoint"
                )
            covered |= pts
        hyper_lines.append(tuple(sorted(members)))
    all_lines.extend(hyper_lines)

    chi = IncidenceStructure(
        nC + sub.point_count, all_lines, name=f"{C.name}|rebuilt"
    )
    if chi.point_count != (s + 1) * (s * t + 1) or chi.line_count != (t + 1) * (
        s * t + 1
    ):
        raise ConsistencyViolation("rebuilt structure has wrong counts")
    # the axioms rule out triangles: a third vertex off the line through the
    # other two breaks (b), one on it breaks (c)
    res = verify_gq_axioms(chi)
    if res != GQOrder(s, t):
        raise ConsistencyViolation(f"rebuilt structure fails the axioms: {res}")

    hyper_point_ids = tuple(range(nC, nC + sub.point_count))
    hyper_line_ids = tuple(
        chi.line_index[line] for line in hyper_lines
    )
    point_iso = tuple(range(sub.point_count))  # rebuilt index x <-> sub point x

    _verify_rebuilt_derived(pair, chi, hyper_point_ids, hyper_line_ids, point_iso)

    cover_line_ids = tuple(
        chi.line_index[tuple(sorted(C.lines[l] + (nC + star_of_cover_line[l],)))]
        for l in range(mC)
    )
    return CoverReconstruction(
        quadrangle=chi,
        hyperplane_points=hyper_point_ids,
        hyperplane_lines=hyper_line_ids,
        point_iso=point_iso,
        star_sets=tuple(star_sets),
        cover_point_ids=tuple(range(nC)),
        cover_line_ids=cover_line_ids,
    )


def _verify_rebuilt_derived(pair, chi, hyper_points, hyper_lines, point_iso):
    """The ovoid-rosette geometry of the rebuilt pair, read through the point
    identification, must equal E on the nose."""
    from .incidence import induced_subgeometry
    from .subtension import build_derived_pair

    emb2 = induced_subgeometry(chi, hyper_points, hyper_lines)
    if not emb2.flags.is_geometric_hyperplane:
        raise ConsistencyViolation("rebuilt hyperplane is not a geometric hyperplane")
    pair2 = build_derived_pair(emb2)
    # rebuilt hyperplane point i corresponds to substructure point point_iso[i]
    translated_ovoids = {
        frozenset(point_iso[p] for p in ov.points) for ov in pair2.ovoids
    }
    original = {ov.points for ov in pair.ovoids}
    if translated_ovoids != original:
        raise ConsistencyViolation("rebuilt ovoid set differs from the original")
    translated_rosettes = {
        frozenset(
            frozenset(point_iso[p] for p in pair2.ovoids[o].points)
            for o in ros.ovoids
        )
        for ros in pair2.rosettes
    }
    original_r = {
        frozenset(pair.ovoids[o].points for o in ros.ovoids) for ros in pair.rosettes
    }
    if translated_rosettes != original_r:
        raise ConsistencyViolation("rebuilt rosette set differs from the original")


@dataclass(frozen=True)
class IdentificationReport:
    common_point_map: tuple  # substructure point x -> ambient common point of its star
    as_sub_permutation: tuple  # same map in substructure indices
    ok: bool


def identify_reconstructed_hyperplane(pair, rec: CoverReconstruction) -> IdentificationReport:
    """When the cover source is the affine geometry itself, the lines of each
    star set meet in one ambient subgeometry point; that assignment must be an
    isomorphism onto the subgeometry (collinearity preserved both ways)."""
    emb = pair.embedding
    amb = emb.ambient
    if rec.quadrangle.point_count != amb.point_count:
        raise HypothesisError("identification applies to covers borne by the affine part")
    common = []
    for x, star in enumerate(rec.star_sets):
        feet = None
        for al in star:
            ambient_line = amb.lines[pair.ambient_of_a_line[al]]
            inside = {p for p in ambient_line if p in emb.point_fwd}
            feet = inside if feet is None else (feet & inside)
        if not feet or len(feet) != 1:
            raise ConsistencyViolation(
                f"star lines of point {x} share {0 if not feet else len(feet)} points"
            )
        common.append(feet.pop())
    as_sub = tuple(emb.point_fwd[p] for p in common)
    coll = emb.substructure.collinearity
    n = emb.substructure.point_count
    if sorted(as_sub) != list(range(n)):
        raise ConsistencyViolation("identification map is not a bijection")
    arr = np.array(as_sub)
    if not (coll[np.ix_(arr, arr)] == coll).all():
        raise ConsistencyViolation("identification map does not preserve collinearity")
    return IdentificationReport(tuple(common), as_sub, True)


# -- transversal configurations -------------------------------------------------------


@dataclass(frozen=True)
class TransversalInstance:
    """Lines through a common rosette base, an external line, and the points of
    the subgeometry standing on the connecting transversals."""

    base_line_ids: tuple  # the chosen lines M_1..M_r (ambient indices)
    external_line: int  # ambient index of L
    base_point: int  # ambient index of x0
    chosen_points: tuple  # ambient external points x_1..x_alpha
    transversal_lines: tuple  # ambient indices of N_0..N_alpha
    marked_points: tuple  # ambient subgeometry points on the N_i
    through_subgeometry: bool  # True when N_0 is a subgeometry line
    r: int


def transversal_instances(pair, *, r_values, samples, seed=0, max_attempts_factor=200):
    """Sample transversal configurations of the derived pair.

    For each sample: pick a rosette and r of its witness lines, an external
    line L disjoint from all of them, then the transversal from the base and
    from chosen affine points on the witness lines, requiring distinct feet
    on L and at least one chosen point per witness line (instances whose feet
    collide are degenerate and skipped, per the defining hypothesis).
    """
    import random

    emb = pair.embedding
    amb = emb.ambient
    from .incidence import gq_order

    s, _t = gq_order(amb)
    rng = random.Random(seed)
    out = []
    attempts = 0
    max_attempts = samples * max_attempts_factor
    while len(out) < samples and attempts < max_attempts:
        attempts += 1
        r = rng.choice(list(r_values))
        rosette = pair.rosettes[rng.randrange(len(pair.rosettes))]
        if len(rosette.witness_lines) < r:
            continue
        base_lines = rng.sample(list(rosette.witness_lines), r)
        base_pts = set()
        for li in base_lines:
            inside = [p for p in amb.lines[li] if p in emb.point_fwd]
            base_pts.update(inside)
        if len(base_pts) != 1:
            raise ConsistencyViolation("witness lines of one rosette disagree on the base")
        x0 = base_pts.pop()
        blocked = set()
        for li in base_lines:
            blocked.update(amb.lines[li])
        ext_lines = [
            li
            for li in range(amb.line_count)
            if li not in base_lines
            and li not in emb.sub_line_of_ambient
            and not (set(amb.lines[li]) & blocked)
        ]
        if not ext_lines:
            continue
        L = ext_lines[rng.randrange(len(ext_lines))]
        inst = _build_instance(pair, base_lines, L, x0, s, r, rng=rng)
        if inst is not None:
            out.append(inst)
    if len(out) < samples:
        raise BudgetExceeded(
            f"only {len(out)} of {samples} instances found in {max_attempts} attempts"
        )
    return out


def _build_instance(pair, base_lines, L, x0, s, r, rng=None):
    emb = pair.embedding
    amb = emb.ambient
    line_pts = set(amb.lines[L])

    def transversal(p):
        # unique line through p meeting L (p not on L)
        for li in amb.point_lines[p]:
            hit = set(amb.lines[li]) & line_pts
            if hit:
                return li, hit.pop()
        return None, None

    n0, f0 = transversal(x0)
    if n0 is None:
        return None
    affine = {}
    for li in base_lines:
        pts = [p for p in amb.lines[li] if p not in emb.point_fwd]
        if rng is not None:
            rng.shuffle(pts)
        affine[li] = pts
    feet = {f0}
    chosen = []
    transversals = [n0]
    # coverage pass: one point with a fresh foot per chosen witness line
    for li in base_lines:
        for p in affine[li]:
            ni, fi = transversal(p)
            if ni is not None and fi not in feet:
                feet.add(fi)
                chosen.append(p)
                transversals.append(ni)
                break
        else:
            return None
    # fill pass: extra fresh-foot points anywhere up to alpha = s
    for li in base_lines:
        for p in affine[li]:
            if len(chosen) >= s:
                break
            if p in chosen:
                continue
            ni, fi = transversal(p)
            if ni is not None and fi not in feet:
                feet.add(fi)
                chosen.append(p)
                transversals.append(ni)
    alpha = len(chosen)
    if alpha not in (s - 1, s):
        return None
    marked = set()
    through_sub = n0 in emb.sub_line_of_ambient
    for ni in transversals:
        if ni in emb.sub_line_of_ambient:
            marked.update(amb.lines[ni])
        else:
            inside = [p for p in amb.lines[ni] if p in emb.point_fwd]
            if len(inside) != 1:
                raise ConsistencyViolation("transversal without a unique subgeometry point")
            marked.add(inside[0])
    return TransversalInstance(
        tuple(sorted(base_lines)),
        L,
        x0,
        tuple(chosen),
        tuple(transversals),
        tuple(sorted(marked)),
        through_sub,
        r,
    )


def instance_coplanar(pair, inst: TransversalInstance) -> bool:
    """Whether the marked subgeometry points lie in a plane of the ambient
    projective space (rank of their coordinate span at most 3)."""
    from .constructions import points_coplanar

    return points_coplanar(pair.embedding.ambient, inst.marked_points)
