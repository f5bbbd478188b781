"""Automorphism groups of incidence structures, stabilizers, induced actions
and the extension problem for subquadrangle automorphisms.

The group search is individualization-refinement backtracking on the colored
bipartite incidence graph (points and lines are never mixed): splitter-queue
equitable refinement, first-leaf comparison for candidate automorphisms,
orbit pruning along the first path and subtree abandonment after a success
off it.  Groups are stored as generators plus a deterministic Schreier-Sims
stabilizer chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, ConsistencyViolation, HypothesisError

# -- elementary permutation helpers (tuples, p[i] = image of i) -----------------


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Apply p first, then q."""
    return tuple(q[x] for x in p)


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_identity(p):
    return all(i == x for i, x in enumerate(p))


def _orbit(gens, x):
    """Orbit of x under the group the permutations generate; orbits of a
    finite group are closed under forward images, so no inverses are needed."""
    seen = {x}
    queue = [x]
    while queue:
        y = queue.pop()
        for g in gens:
            z = g[y]
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return seen


# -- geometry-level permutations -------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """Point and line permutation of one structure, incidence preserving both
    ways (verified at construction)."""

    structure: object
    point_images: tuple
    line_images: tuple

    def __post_init__(self):
        g = self.structure
        n, m = g.point_count, g.line_count
        if sorted(self.point_images) != list(range(n)):
            raise ValueError("point map is not a permutation")
        if sorted(self.line_images) != list(range(m)):
            raise ValueError("line map is not a permutation")
        for li, line in enumerate(g.lines):
            image = tuple(sorted(self.point_images[p] for p in line))
            if image != g.lines[self.line_images[li]]:
                raise ValueError(f"incidence broken at line {li}")

    @classmethod
    def from_points(cls, g, point_images):
        """Derive the line map from a point permutation (unique when valid)."""
        line_images = []
        for line in g.lines:
            image = tuple(sorted(point_images[p] for p in line))
            li = g.line_index.get(image)
            if li is None:
                raise ValueError("point map does not send lines to lines")
            line_images.append(li)
        return cls(g, tuple(point_images), tuple(line_images))

    @classmethod
    def identity(cls, g):
        return cls(g, identity_perm(g.point_count), identity_perm(g.line_count))

    def compose_with(self, other):
        """self then other."""
        return Permutation(
            self.structure,
            compose(self.point_images, other.point_images),
            compose(self.line_images, other.line_images),
        )

    def inverse(self):
        return Permutation(
            self.structure, inverse(self.point_images), inverse(self.line_images)
        )

    def domain_perm(self):
        """Combined-domain form: points 0..n-1, lines offset by n."""
        n = self.structure.point_count
        return self.point_images + tuple(n + l for l in self.line_images)

    @classmethod
    def from_domain_perm(cls, g, perm):
        n = g.point_count
        return cls(g, tuple(perm[:n]), tuple(x - n for x in perm[n:]))

    def to_json_dict(self):
        return {"points": list(self.point_images), "lines": list(self.line_images)}


# -- Schreier-Sims stabilizer chains ------------------------------------------------


class PermutationGroup:
    """Generators plus a stabilizer chain.

    Classical Schreier-Sims with full reverification: whenever a Schreier
    generator fails to sift to the identity its residue joins the strong set
    and the whole chain is rebuilt.  Slower than the incremental variants but
    transparently correct, and fast enough at degree <= a few hundred.
    """

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        seen = set()
        self.generators = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation of the domain")
            if not is_identity(g) and g not in seen:
                seen.add(g)
                self.generators.append(g)
        self._base = list(base_prefix)
        self._strong = list(self.generators)
        self._levels = []  # (base_point, level_gens, transversal)
        self._schreier_sims()

    # chain construction ----------------------------------------------------

    def _ensure_base_coverage(self, g):
        if all(g[b] == b for b in self._base):
            for i, x in enumerate(g):
                if x != i:
                    self._base.append(i)
                    return

    def _rebuild_levels(self):
        self._levels = []
        for i, b in enumerate(self._base):
            prefix = self._base[:i]
            level_gens = [
                g for g in self._strong if all(g[bb] == bb for bb in prefix)
            ]
            transversal = {b: identity_perm(self.degree)}
            queue = [b]
            head = 0
            while head < len(queue):
                x = queue[head]
                head += 1
                tx = transversal[x]
                for g in level_gens:
                    y = g[x]
                    if y not in transversal:
                        transversal[y] = compose(tx, g)
                        queue.append(y)
            self._levels.append((b, level_gens, transversal))

    def _sift_levels(self, perm, start=0):
        for i in range(start, len(self._levels)):
            b, _gens, transversal = self._levels[i]
            x = perm[b]
            if x == b:
                continue
            if x not in transversal:
                return perm
            perm = compose(perm, inverse(transversal[x]))
        return perm

    def _schreier_sims(self):
        for g in self._strong:
            self._ensure_base_coverage(g)
        while True:
            self._rebuild_levels()
            residue = None
            for i, (b, level_gens, transversal) in enumerate(self._levels):
                for x in sorted(transversal):
                    tx = transversal[x]
                    for s in level_gens:
                        y = s[x]
                        schreier = compose(compose(tx, s), inverse(transversal[y]))
                        if is_identity(schreier):
                            continue
                        r = self._sift_levels(schreier, i + 1)
                        if not is_identity(r):
                            residue = r
                            break
                    if residue:
                        break
                if residue:
                    break
            if residue is None:
                return
            self._ensure_base_coverage(residue)
            self._strong.append(residue)

    # queries -----------------------------------------------------------------

    def order(self):
        n = 1
        for _b, _g, transversal in self._levels:
            n *= len(transversal)
        return n

    def contains(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(self.degree)):
            return False
        return is_identity(self._sift_levels(perm))

    @property
    def base(self):
        return tuple(b for b, _g, _t in self._levels)

    def orbit(self, x):
        return _orbit(self.generators, x)

    def orbits(self):
        left = set(range(self.degree))
        out = []
        while left:
            x = min(left)
            orb = self.orbit(x)
            out.append(sorted(orb))
            left -= orb
        return out

    def elements(self, cap=10_000):
        if self.order() > cap:
            raise BudgetExceeded(f"refusing to list {self.order()} > {cap} elements")
        out = [identity_perm(self.degree)]
        for _b, _g, transversal in reversed(self._levels):
            out = [compose(h, t) for t in transversal.values() for h in out]
        assert len(set(out)) == self.order()
        return out

    def stabilizer_suffix(self, k):
        """Pointwise stabilizer of the first k base points, generated by the
        strong generators fixing them (valid because the strong set is a
        strong generating set relative to the base)."""
        prefix = self._base[:k]
        gens = [g for g in self._strong if all(g[b] == b for b in prefix)]
        return PermutationGroup(self.degree, gens)

    def random_element(self, rng):
        g = identity_perm(self.degree)
        for _b, _gens, transversal in reversed(self._levels):
            reps = sorted(transversal)
            g = compose(g, transversal[reps[rng.randrange(len(reps))]])
        return g


def pointwise_stabilizer(group: PermutationGroup, points) -> PermutationGroup:
    """Subgroup fixing every listed domain point, via a chain rebuilt with
    those points as base prefix."""
    prefix = tuple(points)
    rebased = PermutationGroup(group.degree, group.generators, base_prefix=prefix)
    assert rebased.order() == group.order()
    return rebased.stabilizer_suffix(len(prefix))


def setwise_stabilizer(group: PermutationGroup, subset, *, leaf_budget=2_000_000):
    """Subgroup preserving the subset, by chain backtracking with the subset
    points promoted to the front of the base (every element of the stabilizer
    is visited; pruning only discards provably bad branches).  A leaf becomes
    a generator only if it does not sift into the group found so far, so each
    one at least doubles it: at most log2 |stabilizer| generators."""
    subset = frozenset(subset)
    if not subset or subset == frozenset(range(group.degree)):
        return PermutationGroup(group.degree, group.generators)
    prefix = tuple(sorted(subset))
    G = PermutationGroup(group.degree, group.generators, base_prefix=prefix)
    levels = G._levels
    found = PermutationGroup(group.degree, [])
    leaves = 0

    def dfs(i, current):
        nonlocal leaves, found
        if i == len(levels):
            leaves += 1
            if leaves > leaf_budget:
                raise BudgetExceeded("setwise stabilizer search exceeded its budget")
            if all(
                (current[x] in subset) == (x in subset) for x in range(group.degree)
            ) and not found.contains(current):
                found = PermutationGroup(group.degree, found.generators + [current])
            return
        base, _gens, transversal = levels[i]
        for x in sorted(transversal):
            final = current[x]
            if (base in subset) != (final in subset):
                continue
            dfs(i + 1, compose(transversal[x], current))

    dfs(0, identity_perm(group.degree))
    return found


# -- automorphism search on colored graphs --------------------------------------------


def _color_partition(adj, colors):
    """Coarsest equitable partition finer than the color classes, ordered by
    color, as (lab, cell_of, size): the vertices cell by cell, the start
    position of each vertex's cell, and the length of the cell starting at
    each start position."""
    lab = sorted(range(len(adj)), key=colors.__getitem__)
    cell_of, size = [0] * len(lab), [0] * len(lab)
    for i, v in enumerate(lab):
        s = cell_of[lab[i - 1]] if i and colors[lab[i - 1]] == colors[v] else i
        cell_of[v] = s
        size[s] += 1
    return _refine(adj, (lab, cell_of, size), sorted(set(cell_of)))


def _cells(part):
    lab, _cell_of, size = part
    out, s = [], 0
    while s < len(lab):
        out.append(lab[s:s + size[s]])
        s += size[s]
    return out


def _refine(adj, part, queue):
    """Refine an ordered partition in place to the coarsest equitable
    partition finer than it, splitting by the cells whose starts are queued
    (the splitter queue of McKay and Piperno, Practical graph isomorphism II).

    A split cell's fragments take its place ordered by neighbour count, and
    the queue order depends only on cell positions and sizes, so refinement
    commutes with every relabelling of the graph."""
    lab, cell_of, size = part
    waiting = [False] * len(lab)
    for s in queue:
        waiting[s] = True
    queue = deque(queue)
    count = [0] * len(lab)
    while queue:
        s = queue.popleft()
        waiting[s] = False
        touched = []
        for v in lab[s:s + size[s]]:
            for w in adj[v]:
                if not count[w]:
                    touched.append(w)
                count[w] += 1
        hit = {}
        for w in touched:
            hit.setdefault(cell_of[w], []).append(w)
        for c in sorted(hit):
            groups = {}
            for w in hit[c]:
                groups.setdefault(count[w], []).append(w)
            if len(hit[c]) < size[c]:
                groups[0] = [v for v in lab[c:c + size[c]] if not count[v]]
            elif len(groups) == 1:
                continue
            frags, pos = [], c
            for k in sorted(groups):
                frag = groups[k]
                lab[pos:pos + len(frag)] = frag
                for v in frag:
                    cell_of[v] = pos
                size[pos] = len(frag)
                frags.append(pos)
                pos += len(frag)
            if not waiting[c]:
                # counts into the whole cell are already uniform, so those
                # into its largest fragment follow from the others
                frags.remove(max(frags, key=size.__getitem__))
            for f in frags:
                if not waiting[f]:
                    waiting[f] = True
                    queue.append(f)
        for w in touched:
            count[w] = 0
    return part


def _individualize(adj, part, v):
    """Copy of an equitable partition with v split off at the front of its
    cell, refined; only {v} is queued, since the parent is equitable."""
    lab, cell_of, size = (list(x) for x in part)
    c = cell_of[v]
    i = lab.index(v, c)
    lab[i], lab[c] = lab[c], v
    for w in lab[c + 1:c + size[c]]:
        cell_of[w] = c + 1
    size[c + 1], size[c] = size[c] - 1, 1
    return _refine(adj, (lab, cell_of, size), [c])


def graph_automorphisms(adj, colors, *, node_budget=500_000):
    """Generators of the automorphism group of a vertex-colored graph.

    Each node of the search tree is an equitable ordered partition; a child
    individualizes one vertex of the first smallest non-singleton cell and
    is refined by `_refine`.  The first leaf is the reference: a later leaf
    whose path has the same cell sizes at every level pairs with it into a
    candidate map, kept only if `check_automorphism` certifies it.  Orbits of
    the generators found so far prune the first path, and a subtree off it is
    abandoned after its first success.  Past `node_budget` nodes the search
    raises BudgetExceeded, reporting the nodes visited, the deepest level
    reached and the generators found so far.
    """
    n = len(adj)
    adj = [tuple(sorted(ws)) for ws in adj]
    part = _color_partition(adj, colors)

    gens = []
    base_leaf = None
    first_shapes = {}
    base_seq = []
    nodes = deepest = 0

    def check_automorphism(perm):
        for v in range(n):
            if colors[v] != colors[perm[v]]:
                return False
            if tuple(sorted(perm[w] for w in adj[v])) != adj[perm[v]]:
                return False
        return True

    def search(part, depth, first_path):
        nonlocal base_leaf, nodes, deepest
        nodes += 1
        deepest = max(deepest, depth)
        if nodes > node_budget:
            raise BudgetExceeded(
                f"automorphism search exceeded {node_budget} nodes: visited {nodes}, "
                f"deepest level {deepest}, {len(gens)} generators found"
            )
        cells = _cells(part)
        shape = tuple(len(c) for c in cells)
        if base_leaf is None:
            first_shapes[depth] = shape
        elif first_shapes.get(depth) != shape:
            return False
        target = min((c for c in cells if len(c) > 1), key=len, default=None)
        if target is None:
            if base_leaf is None:
                base_leaf = part[0]
                return False
            perm = compose(inverse(base_leaf), part[0])
            if check_automorphism(perm):
                gens.append(perm)
                return True
            return False
        cell = sorted(target)
        if first_path:
            base_seq.append(cell[0])
        for idx, v in enumerate(cell):
            if first_path and idx:
                fixers = [g for g in gens if all(g[b] == b for b in base_seq[:depth])]
                if not _orbit(fixers, v).isdisjoint(cell[:idx]):
                    continue
            child = _individualize(adj, part, v)
            if search(child, depth + 1, first_path and not idx) and not first_path:
                return True
        return False

    search(part, 0, True)
    return gens


def _structure_graph(g, extra_vertex_sets=None):
    """Colored graph of a structure: points, then lines, then one vertex per
    extra point set (hyperedges used for setwise stabilizers)."""
    n, m = g.point_count, g.line_count
    extra = [tuple(sorted(s)) for s in (extra_vertex_sets or [])]
    total = n + m + len(extra)
    adj = [[] for _ in range(total)]
    for li, line in enumerate(g.lines):
        for p in line:
            adj[p].append(n + li)
            adj[n + li].append(p)
    for k, s in enumerate(extra):
        v = n + m + k
        for p in s:
            adj[p].append(v)
            adj[v].append(p)
    sizes = sorted({len(line) for line in g.lines})
    colors = [0] * total
    for li, line in enumerate(g.lines):
        colors[n + li] = 1 + sizes.index(len(line))
    for k in range(len(extra)):
        colors[n + m + k] = 1 + len(sizes)
    return adj, colors


def automorphism_group(g, *, max_points=200, node_budget=500_000):
    """Full automorphism group of an incidence structure as a permutation
    group on points plus lines, with the geometry-level generators attached."""
    if g.point_count > max_points:
        raise BudgetExceeded(
            f"{g.point_count} points exceeds the full-group budget {max_points}"
        )
    adj, colors = _structure_graph(g)
    raw = graph_automorphisms(adj, colors, node_budget=node_budget)
    perms = [Permutation.from_domain_perm(g, r) for r in raw]
    group = PermutationGroup(g.point_count + g.line_count, raw)
    group.geometry = g
    group.geometry_generators = perms
    return group


def elementwise_kernel(group: PermutationGroup, emb) -> PermutationGroup:
    """Subgroup fixing every point and line of the subgeometry."""
    n = emb.ambient.point_count
    fixed = list(emb.point_subset) + [n + li for li in emb.line_subset]
    return pointwise_stabilizer(group, fixed)


# -- induced actions ---------------------------------------------------------------


@dataclass
class InducedActionReport:
    group: PermutationGroup  # action on the target domain
    kernel_order: int
    faithful_modulo_kernel: bool


def induced_action_on_sub(group: PermutationGroup, emb) -> InducedActionReport:
    """Restriction of a subgeometry-stabilizing ambient group to the
    subgeometry, with the kernel compared against the elementwise kernel."""
    amb = emb.ambient
    n = amb.point_count
    restricted = []
    for g in group.generators:
        pts = [0] * len(emb.point_subset)
        for p in emb.point_subset:
            img = g[p]
            if img not in emb.point_fwd:
                raise HypothesisError("group does not stabilize the subgeometry")
            pts[emb.point_fwd[p]] = emb.point_fwd[img]
        lns = [0] * len(emb.line_subset)
        for li in emb.line_subset:
            img = g[n + li] - n
            if img not in emb.line_fwd:
                raise HypothesisError("group does not stabilize the subgeometry lines")
            lns[emb.line_fwd[li]] = emb.line_fwd[img]
        restricted.append(tuple(pts) + tuple(len(emb.point_subset) + l for l in lns))
    sub_n = len(emb.point_subset) + len(emb.line_subset)
    image = PermutationGroup(sub_n, restricted)
    kernel = elementwise_kernel(group, emb)
    korder = kernel.order()
    faithful = image.order() * korder == group.order()
    return InducedActionReport(image, korder, faithful)


def induced_action_on_derived(group: PermutationGroup, pair) -> InducedActionReport:
    """Action of a subgeometry-stabilizing ambient group on the ovoid-rosette
    geometry: ovoids map by point-set image; leaving the subtended family is
    an error."""
    emb = pair.embedding
    sub_report = induced_action_on_sub(group, emb)
    ovoid_index = {ov.points: k for k, ov in enumerate(pair.ovoids)}
    rosette_index = {frozenset(r.ovoids): k for k, r in enumerate(pair.rosettes)}
    n_sub = len(emb.point_subset)
    e_perm_gens = []
    for g in sub_report.group.generators:
        opoints = []
        for ov in pair.ovoids:
            image = frozenset(g[p] for p in ov.points)
            if image not in ovoid_index:
                raise HypothesisError(
                    "an element maps a subtended ovoid outside the family"
                )
            opoints.append(ovoid_index[image])
        olines = []
        for r in pair.rosettes:
            image = frozenset(opoints[o] for o in r.ovoids)
            if image not in rosette_index:
                raise ConsistencyViolation("ovoid action does not send rosettes to rosettes")
            olines.append(rosette_index[image])
        e_perm_gens.append(
            tuple(opoints) + tuple(len(pair.ovoids) + l for l in olines)
        )
    e_group = PermutationGroup(pair.E.point_count + pair.E.line_count, e_perm_gens)
    kernel = elementwise_kernel(group, emb)
    korder = kernel.order()
    faithful = e_group.order() * korder == group.order()
    return InducedActionReport(e_group, korder, faithful)


# -- the two routes to the derived automorphism group ---------------------------------


@dataclass(frozen=True)
class DerivedAutComparison:
    direct_order: int
    stabilizer_order: int
    stabilizer_image_order: int
    equal: bool


def compare_derived_automorphisms(pair, *, allow_any_theta=False, node_budget=500_000):
    """Aut of the derived geometry computed directly versus the stabilizer of
    the subtended-ovoid family inside Aut of the subgeometry, compared as
    permutation groups on the ovoids."""
    emb = pair.embedding
    from .incidence import gq_order

    s, t = gq_order(emb.ambient)
    theta_ok = pair.census.uniform and pair.census.theta == 2
    shape_ok = emb.sub_order is not None and (
        emb.sub_order.s == emb.sub_order.t == s and t == s * s
    )
    if not (theta_ok and shape_ok) and not allow_any_theta:
        raise HypothesisError(
            "two-way comparison stated for doubly-subtended (u,u^2)/(u,u) pairs; "
            "pass allow_any_theta=True to compute it anyway"
        )

    e_group = automorphism_group(pair.E, node_budget=node_budget)
    n_omega = pair.E.point_count
    direct_on_omega = PermutationGroup(
        n_omega, [g[:n_omega] for g in e_group.generators]
    )

    sub = emb.substructure
    ovoid_sets = [tuple(sorted(ov.points)) for ov in pair.ovoids]
    adj, colors = _structure_graph(sub, extra_vertex_sets=ovoid_sets)
    raw = graph_automorphisms(adj, colors, node_budget=node_budget)
    offset = sub.point_count + sub.line_count
    stab_on_omega = PermutationGroup(
        n_omega, [tuple(g[offset + k] - offset for k in range(n_omega)) for g in raw]
    )
    stab_order = PermutationGroup(offset, [g[:offset] for g in raw]).order()

    equal = direct_on_omega.order() == stab_on_omega.order() and all(
        stab_on_omega.contains(g) for g in direct_on_omega.generators
    ) and all(direct_on_omega.contains(g) for g in stab_on_omega.generators)
    report = DerivedAutComparison(
        direct_on_omega.order(), stab_order, stab_on_omega.order(), equal
    )
    if not equal and theta_ok and shape_ok:
        raise ConsistencyViolation(f"derived automorphism comparison failed: {report}")
    return report


# -- extension of subgeometry automorphisms -------------------------------------------


@dataclass
class ExtensionReport:
    base_automorphism: Permutation
    extensions: list
    kernel_order: Optional[int]


def extend_automorphism(emb, phi: Permutation, mode="find_all", *, node_budget=2_000_000,
                        compute_kernel=True):
    """Ambient automorphisms restricting to a given subgeometry automorphism.

    One injective run of the morphism search of `covers` from the ambient to
    itself: a subgeometry point starts fixed at its phi-image, an external
    point starts at the subtenders of the phi-image of its ovoid, and mode
    "find_one" stops at the first extension.  Each extension is certified by
    Permutation.from_points.  When extensions exist their number must equal
    the elementwise kernel order (checked whenever both are computed).
    """
    from .covers import _morphism_search

    amb = emb.ambient
    sub = emb.substructure
    if phi.structure is not sub:
        raise ValueError("phi must permute the subgeometry")

    classes = emb.ovoid_classes
    traces = classes.rows[classes.representatives]
    class_of_trace = {row.tobytes(): k for k, row in enumerate(traces)}
    members = classes.subtenders()
    subtenders = [sum(1 << p for p in m.tolist()) for m in members]

    domains = [0] * amb.point_count
    for x, p in enumerate(emb.point_subset):
        domains[p] = 1 << emb.point_subset[phi.point_images[x]]
    inv_phi = list(inverse(phi.point_images))
    for m, image in zip(members, traces[:, inv_phi]):
        k = class_of_trace.get(image.tobytes())
        if k is not None:
            for p in m.tolist():
                domains[p] = subtenders[k]
    found = _morphism_search(
        amb, amb, domains, injective=True, first_only=mode == "find_one",
        node_budget=node_budget,
    )
    solutions = [Permutation.from_points(amb, point_map) for point_map, _ in found]

    kernel_order = None
    if compute_kernel:
        if _is_sub_identity(phi):
            kernel_order = len(solutions) if mode == "find_all" else None
        else:
            ident = extend_automorphism(
                emb, Permutation.identity(sub), mode="find_all",
                node_budget=node_budget, compute_kernel=False,
            )
            kernel_order = len(ident.extensions)
    if (
        mode == "find_all"
        and kernel_order is not None
        and solutions
        and len(solutions) != kernel_order
    ):
        raise ConsistencyViolation(
            f"{len(solutions)} extensions found, expected 0 or {kernel_order}"
        )
    return ExtensionReport(phi, solutions, kernel_order)


def _is_sub_identity(phi):
    return is_identity(phi.point_images) and is_identity(phi.line_images)


# -- higher decomposition ---------------------------------------------------------------


@dataclass
class HigherDecompositionReport:
    verdict: bool
    generators_checked: int
    lifted: list  # ambient Permutation per generator of the derived group
    cover_lift: Optional[Permutation]


def higher_decomposition_check(pair, ambient_group=None, cover=None,
                               *, node_budget=2_000_000) -> HigherDecompositionReport:
    """Whether every automorphism of the derived geometry is induced by an
    ambient automorphism; per generator the candidate subgeometry automorphism
    comes from the cover factorization and is lifted by the extension search.
    For a supplied cover the ambient witness with projection-after-witness
    equal to the cover is emitted and verified elementwise."""
    from . import covers as covers_mod

    if pair.pi is None:
        raise HypothesisError("higher decomposition needs the canonical cover")
    e_group = automorphism_group(pair.E, node_budget=node_budget)
    lifted = []
    verdict = True
    for gen in e_group.geometry_generators:
        lift = _lift_e_automorphism(pair, gen, node_budget=node_budget)
        if lift is None:
            verdict = False
            break
        if ambient_group is not None and not ambient_group.contains(lift.domain_perm()):
            raise ConsistencyViolation("lift not contained in the supplied ambient group")
        lifted.append(lift)

    cover_lift = None
    if verdict and cover is not None:
        f = covers_mod.factorize_lower(pair, cover)
        alpha = Permutation(pair.E, f.e_point_perm, f.e_line_perm)
        cover_lift = _lift_e_automorphism(pair, alpha, node_budget=node_budget)
        if cover_lift is None:
            raise ConsistencyViolation(
                "verdict true but the supplied cover's automorphism would not lift"
            )
        _verify_projection_identity(pair, cover_lift, cover)
    return HigherDecompositionReport(verdict, len(e_group.geometry_generators),
                                     lifted, cover_lift)


def _lift_e_automorphism(pair, alpha: Permutation, *, node_budget):
    """Ambient automorphism inducing a given derived-geometry automorphism, or
    None; tries the factorization's base-point map in both orientations."""
    from . import covers as covers_mod

    emb = pair.embedding
    sub = emb.substructure
    gamma = pair.pi.compose_perm_after(alpha.point_images, alpha.line_images)
    f = covers_mod.factorize_lower(pair, gamma)
    for zeta in (f.base_point_map, inverse(f.base_point_map)):
        try:
            phi = Permutation.from_points(sub, zeta)
        except ValueError:
            continue
        rep = extend_automorphism(emb, phi, mode="find_all", node_budget=node_budget)
        for ext in rep.extensions:
            if _projection_matches(pair, ext, gamma):
                return ext
    return None


def _projection_matches(pair, ambient_perm: Permutation, gamma) -> bool:
    emb = pair.embedding
    for a_pt in range(pair.A.point_count):
        p = pair.external_of_a_point[a_pt]
        image = ambient_perm.point_images[p]
        a_img = pair.a_point_of_external[image]
        if pair.pi.point_map[a_img] != gamma.point_map[a_pt]:
            return False
    for a_ln in range(pair.A.line_count):
        li = pair.ambient_of_a_line[a_ln]
        image = ambient_perm.line_images[li]
        a_img = pair.a_line_of_ambient[image]
        if pair.pi.line_map[a_img] != gamma.line_map[a_ln]:
            return False
    return True


def _verify_projection_identity(pair, ambient_perm, cover):
    if not _projection_matches(pair, ambient_perm, cover):
        raise ConsistencyViolation("projection-after-witness differs from the cover")
