"""Immutable point-line incidence structures and the quadrangle axioms.

Points are dense integer indices 0..n-1.  Lines are stored as sorted tuples
of point indices, in lexicographic order, with duplicate lines rejected at
construction.  The point by line incidence matrix is one scipy.sparse CSC
matrix.  Collinearity is cached as a dense, C-contiguous boolean matrix; it
is symmetric, so it is always gathered along rows.  One contact kernel,
`point_line_collinearity_counts`, gives c[x, L] = |perp(x) meet L| block by
block; axiom (b), the triangle scan, the SPG alpha and the KK completion
test all read it.  Line and contact counts use the smallest unsigned type
that cannot wrap.  A structure never changes after construction, so its
axiom verdict is computed once and cached.
`ovoid_classes` groups the points off a subset by their traces on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy import sparse

from .errors import ConsistencyViolation, EmptyGeometryError

# point x line cells per block of the contact kernel (8 MB as uint8)
CONTACT_BLOCK_CELLS = 1 << 23


class GQOrder(NamedTuple):
    s: int
    t: int


@dataclass(frozen=True)
class AxiomFailure:
    """Names the violated quadrangle axiom and a witness element pair."""

    axiom: str  # 'a', 'b' or 'c'
    witness: tuple
    message: str


@dataclass(frozen=True)
class TriangleWitness:
    points: tuple[int, int, int]
    lines: tuple[int, int, int]


class IncidenceStructure:
    def __init__(self, point_count, lines, name="", coords=None, field=None):
        if point_count < 0:
            raise ValueError("negative point count")
        canon = []
        for line in lines:
            pts = list(line)
            if len(set(pts)) != len(pts):
                raise ValueError(f"line with repeated point: {pts}")
            pts = tuple(sorted(pts))
            if pts and (pts[0] < 0 or pts[-1] >= point_count):
                raise ValueError(f"line with point index out of range: {pts}")
            canon.append(pts)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"repeated line: {a}")
        self.point_count = point_count
        self.lines = tuple(canon)
        self.name = name
        self.coords = tuple(tuple(c) for c in coords) if coords is not None else None
        self.field = field
        if self.coords is not None and len(self.coords) != point_count:
            raise ValueError("coords length must match point count")

    # -- derived data --------------------------------------------------------

    @property
    def line_count(self):
        return len(self.lines)

    @cached_property
    def line_index(self):
        return {line: i for i, line in enumerate(self.lines)}

    @cached_property
    def point_lines(self):
        """For each point, the tuple of indices of lines through it."""
        pls = [[] for _ in range(self.point_count)]
        for li, line in enumerate(self.lines):
            for p in line:
                pls[p].append(li)
        return tuple(tuple(x) for x in pls)

    @cached_property
    def incidence(self):
        """Point x line incidence matrix, scipy.sparse CSC with unit entries."""
        indptr = np.cumsum([0] + [len(line) for line in self.lines])
        indices = np.fromiter(chain.from_iterable(self.lines), dtype=np.int64, count=indptr[-1])
        return sparse.csc_matrix(
            (np.ones(len(indices), dtype=np.uint8), indices, indptr),
            shape=(self.point_count, self.line_count),
        )

    def _common_lines(self):
        """Sparse symmetric count of the lines through both of two points, in
        the smallest unsigned type that holds the largest point degree."""
        inc = self.incidence
        inc = inc.astype(np.min_scalar_type(np.bincount(inc.indices).max(initial=0)))
        return inc @ inc.T

    @cached_property
    def collinearity(self):
        """Dense C-contiguous boolean matrix; entry (x,y) true iff x,y share a
        line or x == y."""
        # symmetric: the transpose is the same matrix in CSR form, whose dense
        # form is C-ordered
        common = self._common_lines().T
        common.data = common.data > 0
        coll = common.toarray()
        np.fill_diagonal(coll, True)
        return coll

    @cached_property
    def _axiom_verdict(self):
        return _check_gq_axioms(self)

    @cached_property
    def uniform_line_size(self):
        sizes = {len(line) for line in self.lines}
        return sizes.pop() if len(sizes) == 1 else None

    @cached_property
    def line_points_array(self):
        """Lines as a dense (m, k) int array; only for uniform line size."""
        k = self.uniform_line_size
        if k is None:
            raise ValueError("line sizes are not uniform")
        return np.array(self.lines, dtype=np.int32).reshape(self.line_count, k)

    # -- perp operators --------------------------------------------------------

    def perp(self, x):
        """All points collinear with x, including x itself."""
        self._check_point(x)
        return set(np.nonzero(self.collinearity[x])[0].tolist())

    def perp_set(self, Y):
        """Intersection of perps; the empty intersection is the full point set."""
        pts = None
        for y in Y:
            self._check_point(y)
            row = self.collinearity[y]
            pts = row.copy() if pts is None else (pts & row)
        if pts is None:
            return set(range(self.point_count))
        return set(np.nonzero(pts)[0].tolist())

    def biperp(self, Y):
        return self.perp_set(self.perp_set(Y))

    def cl(self, u, v):
        """Points whose perp meets the biperp of {u, v}."""
        if u == v:
            raise ValueError("cl requires two distinct points")
        self._check_point(u)
        self._check_point(v)
        hull = sorted(self.biperp({u, v}))
        if not hull:
            return set()
        mask = self.collinearity[hull].any(axis=0)
        return set(np.nonzero(mask)[0].tolist())

    def _check_point(self, x):
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.point_count):
            raise ValueError(f"invalid point index {x!r}")

    # -- contact kernel ---------------------------------------------------------

    def point_line_collinearity_counts(self, line_block=None):
        """Matrix c[x, L] = |perp(x) meet L| for lines in the block (all by default).

        The one contact kernel: the sparse product of the block's incidence
        columns with the collinearity rows.  Callers scan the lines in blocks
        (`_contact_blocks`) so the stretch-size geometry stays within memory.
        """
        if line_block is None:
            line_block = np.arange(self.line_count)
        return _contacts(self.incidence[:, line_block], self.collinearity).T

    def _contact_blocks(self, on_line):
        """Yield (lines, counts) over consecutive line blocks of at most
        CONTACT_BLOCK_CELLS cells: counts[i, x] is the contact count of point x
        with the i-th line, with the cells of the points on that line set to
        on_line."""
        step = max(1, CONTACT_BLOCK_CELLS // max(self.point_count, 1))
        for start in range(0, self.line_count, step):
            lines = np.arange(start, min(start + step, self.line_count))
            counts = self.point_line_collinearity_counts(lines).T
            block = self.incidence[:, lines]
            counts[np.repeat(np.arange(len(lines)), np.diff(block.indptr)), block.indices] = on_line
            yield lines, counts

    # -- global predicates ----------------------------------------------------

    def is_connected(self):
        """Connectivity of the bipartite point-line incidence graph."""
        n, m = self.point_count, self.line_count
        total = n + m
        if total == 0:
            return True
        seen = np.zeros(total, dtype=bool)
        stack = [0] if n else [n]
        seen[stack[0]] = True
        while stack:
            v = stack.pop()
            if v < n:
                nbrs = [n + li for li in self.point_lines[v]]
            else:
                nbrs = list(self.lines[v - n])
            for w in nbrs:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return bool(seen.all())

    def has_triangle(self):
        """Witness of three pairwise-collinear points on three distinct lines
        sharing no common line, or None."""
        for lines, counts in self._contact_blocks(on_line=0):
            for i, z in zip(*np.nonzero(counts >= 2)):
                li = int(lines[i])
                line = self.lines[li]
                nbrs = [y for y in line if self.collinearity[z, y]]
                for a, b in combinations(nbrs, 2):
                    for m1 in self._joining_lines(z, a):
                        for m2 in self._joining_lines(z, b):
                            if m1 != m2 and m1 != li and m2 != li:
                                return TriangleWitness(
                                    points=(int(z), int(a), int(b)),
                                    lines=(int(m1), int(m2), li),
                                )
        return None

    def _joining_lines(self, x, y):
        return [li for li in self.point_lines[x] if y in self.lines[li]]

    def joining_line(self, x, y):
        """Index of a line through both points, or None."""
        ls = self._joining_lines(x, y)
        return ls[0] if ls else None

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self):
        out = {
            "name": self.name,
            "points": self.point_count,
            "lines": [list(line) for line in self.lines],
        }
        if self.coords is not None:
            out["coords"] = [list(c) for c in self.coords]
        if self.field is not None:
            out["field"] = self.field.to_json()
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data):
        fieldspec = None
        if data.get("field"):
            from .gf import field as make_field

            fieldspec = make_field(data["field"]["p"], data["field"]["h"]).spec
        return cls(
            data["points"],
            data["lines"],
            name=data.get("name", ""),
            coords=data.get("coords"),
            field=fieldspec,
        )

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return (
            f"IncidenceStructure({self.name or 'unnamed'}: "
            f"{self.point_count} points, {self.line_count} lines)"
        )


# -- quadrangle axioms ----------------------------------------------------------


def verify_gq_axioms(g: IncidenceStructure) -> Union[GQOrder, AxiomFailure]:
    """Check the quadrangle axioms; return the order (s,t) or a failure report.

    (a) every line has s+1 points and every point is on t+1 lines;
    (b) for every non-incident point-line pair there is exactly one
        collinear point on the line;
    (c) two distinct points share at most one line.

    The verdict is computed once per structure and cached on it.
    """
    return g._axiom_verdict


def _check_gq_axioms(g: IncidenceStructure) -> Union[GQOrder, AxiomFailure]:
    if g.point_count == 0 and g.line_count == 0:
        raise EmptyGeometryError("empty structure")
    if g.line_count == 0:
        return AxiomFailure("a", (0,), "point 0 lies on 0 lines")
    sizes = {len(line) for line in g.lines}
    if len(sizes) > 1:
        small = min(g.lines, key=len)
        big = max(g.lines, key=len)
        return AxiomFailure(
            "a",
            (g.line_index[small], g.line_index[big]),
            f"line sizes differ: {len(small)} vs {len(big)}",
        )
    size = sizes.pop()
    if size < 2:
        return AxiomFailure("a", (0,), f"lines have {size} < 2 points")
    degrees = np.bincount(g.incidence.indices, minlength=g.point_count)
    if degrees.min() != degrees.max():
        worst = int(degrees.argmin())
        return AxiomFailure(
            "a", (worst,), f"point {worst} lies on {int(degrees[worst])} lines"
        )
    deg = int(degrees[0])
    if deg < 2:
        return AxiomFailure("a", (0,), f"points lie on {deg} < 2 lines")
    s, t = size - 1, deg - 1

    shared = _repeated_line_pair(g)
    if shared is not None:
        x, y, count = shared
        return AxiomFailure("c", (x, y), f"points {x},{y} share {count} lines")

    # a point on the line reads as one contact, so every cell must be 1
    for lines, counts in g._contact_blocks(on_line=1):
        bad = np.flatnonzero((counts != 1).any(axis=1))
        if bad.size:
            li, col = int(lines[bad[0]]), counts[bad[0]]
            x = int(col.argmin() if col.min() < 1 else col.argmax())
            return AxiomFailure("b", (x, li), f"point {x} sees {int(col[x])} points of line {li}")
    return GQOrder(s, t)


def _contacts(members, rows):
    """members.T @ rows for a sparse 0/1 matrix and a boolean matrix with as
    many rows: how many of each member set's points each column sees.
    Counted in the smallest unsigned type that holds the largest member set;
    a C-ordered boolean matrix is read as uint8 without a copy."""
    dtype = np.min_scalar_type(np.diff(members.indptr).max(initial=0))
    dense = rows.view(np.uint8) if dtype == np.uint8 else rows.astype(dtype)
    return members.T.astype(dtype) @ dense


def _repeated_line_pair(g: IncidenceStructure):
    """(x, y, count) for the first point pair in row-major order on the most
    common lines, when that is more than one line; None otherwise."""
    common = g._common_lines()
    common.setdiag(0)
    if not common.nnz or common.data.max() <= 1:
        return None
    # symmetric: the compressed axis can be read as the row
    common.sort_indices()
    first = int(common.data.argmax())
    x = int(np.searchsorted(common.indptr, first, side="right")) - 1
    return x, int(common.indices[first]), int(common.data[first])


def gq_order(g: IncidenceStructure) -> GQOrder:
    """verify_gq_axioms that raises on failure (for callers that require a GQ)."""
    res = verify_gq_axioms(g)
    if isinstance(res, AxiomFailure):
        raise ConsistencyViolation(f"{g!r} is not a generalized quadrangle: {res.message}")
    return res


# -- ovoid classes ----------------------------------------------------------------


class OvoidClasses(NamedTuple):
    """The points off a point subset, grouped by the subset points they are
    collinear with (their trace); classes in ascending order of trace row."""

    external: np.ndarray  # ambient indices of the points off the subset, ascending
    rows: np.ndarray  # bool (external x subset): the trace of each external point
    class_of: np.ndarray  # class id of each external point
    sizes: np.ndarray  # external points per class (its theta)
    representatives: np.ndarray  # row of the first external point of each class

    def subtenders(self):
        """The external points of each class, ascending."""
        order = np.argsort(self.class_of, kind="stable")
        return np.split(self.external[order], np.cumsum(self.sizes)[:-1])


def ovoid_classes(g: IncidenceStructure, point_subset) -> OvoidClasses:
    """Group the points off point_subset by their trace on it.  Rows are
    packed to bits and stably sorted as raw bytes, whose order is the order
    of the bool rows; a class starts wherever the sorted rows change."""
    sub = np.asarray(point_subset, dtype=np.int64)
    off = np.ones(g.point_count, dtype=bool)
    off[sub] = False
    external = np.flatnonzero(off)
    rows = g.collinearity[sub][:, external].T
    packed = np.packbits(rows, axis=1)
    keys = np.zeros((len(external), max(packed.shape[1], 1)), dtype=np.uint8)
    keys[:, :packed.shape[1]] = packed
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(), kind="stable")
    ranked = keys[order]
    starts = np.ones(len(external), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    class_of = np.empty(len(external), dtype=np.intp)
    class_of[order] = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    sizes = np.diff(np.append(starts, len(external)))
    return OvoidClasses(external, rows, class_of, sizes, order[starts])


def _validate_ovoid_rows(emb, rows):
    """Every trace row must meet every substructure line exactly once."""
    counts = _contacts(emb.substructure.incidence, rows.T).T
    if counts.size and (counts.min() < 1 or counts.max() > 1):
        bad = np.argwhere((counts < 1) | (counts > 1))[0]
        raise ConsistencyViolation(
            f"external point {emb.external_points[bad[0]]} traces a non-ovoid: "
            f"line {bad[1]} met {counts[bad[0], bad[1]]} times"
        )


# -- subgeometries ----------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingFlags:
    is_full: bool
    is_ideal: bool
    is_geometric_hyperplane: bool


class SubGeometryEmbedding:
    """A subgeometry of an ambient structure with fullness/hyperplane flags.

    point_subset / line_subset hold ambient indices (sorted tuples); the
    reindexed substructure and both translation maps are cached on it.
    """

    def __init__(self, ambient, point_subset, line_subset):
        self.ambient = ambient
        self.point_subset = tuple(sorted(set(point_subset)))
        self.line_subset = tuple(sorted(set(line_subset)))
        for p in self.point_subset:
            if not 0 <= p < ambient.point_count:
                raise ValueError(f"invalid point {p}")
        for li in self.line_subset:
            if not 0 <= li < ambient.line_count:
                raise ValueError(f"invalid line {li}")
        self.point_fwd = {p: i for i, p in enumerate(self.point_subset)}
        self.line_fwd = {li: i for i, li in enumerate(self.line_subset)}
        pset = set(self.point_subset)
        for li in self.line_subset:
            if not set(ambient.lines[li]) & pset:
                raise ValueError(f"line {li} of the subgeometry carries no subset point")
        self.flags = self._compute_flags()
        sub_lines = [
            tuple(sorted(self.point_fwd[p] for p in ambient.lines[li] if p in self.point_fwd))
            for li in self.line_subset
        ]
        coords = None
        if ambient.coords is not None:
            coords = [ambient.coords[p] for p in self.point_subset]
        self.substructure = IncidenceStructure(
            len(self.point_subset),
            sub_lines,
            name=f"{ambient.name}|sub",
            coords=coords,
            field=ambient.field,
        )
        res = verify_gq_axioms(self.substructure) if self.point_subset else None
        self.sub_order = res if isinstance(res, GQOrder) else None

    def _compute_flags(self):
        amb = self.ambient
        pset = set(self.point_subset)
        lset = set(self.line_subset)
        is_full = all(set(amb.lines[li]) <= pset for li in self.line_subset)
        is_ideal = all(
            set(amb.point_lines[p]) <= lset for p in self.point_subset
        )
        is_hyp = True
        for li, line in enumerate(amb.lines):
            inside = len(set(line) & pset)
            if li in lset:
                if inside != len(line):
                    is_hyp = False
                    break
            else:
                if inside != 1:
                    is_hyp = False
                    break
        if is_hyp and any(len(amb.lines[li]) < 2 for li in self.line_subset):
            is_hyp = False
        return EmbeddingFlags(is_full, is_ideal, is_hyp)

    @cached_property
    def external_points(self):
        pset = set(self.point_subset)
        return tuple(p for p in range(self.ambient.point_count) if p not in pset)

    @cached_property
    def ovoid_classes(self) -> OvoidClasses:
        """The external points classed by their traces, each trace checked to
        meet every subgeometry line exactly once."""
        classes = ovoid_classes(self.ambient, self.point_subset)
        _validate_ovoid_rows(self, classes.rows)
        return classes

    @cached_property
    def sub_line_of_ambient(self):
        return {li: i for i, li in enumerate(self.line_subset)}

    def to_json_dict(self):
        return {
            "points": list(self.point_subset),
            "lines": list(self.line_subset),
            "flags": {
                "is_full": self.flags.is_full,
                "is_ideal": self.flags.is_ideal,
                "is_geometric_hyperplane": self.flags.is_geometric_hyperplane,
            },
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path, ambient):
        with open(path) as fh:
            data = json.load(fh)
        return cls(ambient, data["points"], data["lines"])

    def __repr__(self):
        o = f" order {tuple(self.sub_order)}" if self.sub_order else ""
        return (
            f"SubGeometryEmbedding({len(self.point_subset)} pts, "
            f"{len(self.line_subset)} lines{o} in {self.ambient.name or 'ambient'})"
        )


def induced_subgeometry(g, point_subset, line_subset) -> SubGeometryEmbedding:
    return SubGeometryEmbedding(g, point_subset, line_subset)


@dataclass(frozen=True)
class HyperplaneClass:
    kind: str  # 'ovoid' or 'full_subgq'
    sub_order: Optional[GQOrder] = None


def classify_hyperplane(e: SubGeometryEmbedding) -> HyperplaneClass:
    """Split a geometric hyperplane of a thick GQ into its two possible kinds."""
    if not e.flags.is_geometric_hyperplane:
        raise ValueError("embedding is not a geometric hyperplane")
    order = gq_order(e.ambient)
    s, t = order
    if not e.line_subset:
        return HyperplaneClass("ovoid")
    if not e.flags.is_full or e.sub_order is None:
        raise ConsistencyViolation(
            "geometric hyperplane with lines is neither an ovoid nor a full subGQ"
        )
    if t % s != 0 or e.sub_order != GQOrder(s, t // s):
        raise ConsistencyViolation(
            f"hyperplane subGQ has order {tuple(e.sub_order)}, expected {(s, t // s)}"
        )
    if e.sub_order.t == 1 and t != s:
        raise ConsistencyViolation("order-(s,1) hyperplane forces t == s")
    return HyperplaneClass("full_subgq", e.sub_order)


def is_connected(g):
    return g.is_connected()


def has_triangle(g):
    return g.has_triangle()

