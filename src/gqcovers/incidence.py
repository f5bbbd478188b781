"""Immutable point-line incidence structures and the quadrangle axioms.

Points are dense integer indices 0..n-1.  Lines are stored as sorted tuples
of point indices, in lexicographic order, with duplicate lines rejected at
construction.  Collinearity is cached as a dense boolean matrix; the point
by line incidence matrix is dense for small structures and scipy.sparse
above ~5e7 cells (the 7300-point stretch geometry would need ~437MB dense).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy import sparse

from .errors import ConsistencyViolation, EmptyGeometryError

DENSE_CELL_LIMIT = 50_000_000


class GQOrder(NamedTuple):
    s: int
    t: int

    @property
    def thick(self):
        return self.s >= 2 and self.t >= 2


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
        """Point x line incidence matrix (bool); sparse CSC above the size cap."""
        n, m = self.point_count, self.line_count
        rows, cols = [], []
        for li, line in enumerate(self.lines):
            rows.extend(line)
            cols.extend([li] * len(line))
        mat = sparse.csc_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, m)
        )
        if n * m <= DENSE_CELL_LIMIT:
            return np.asarray(mat.todense(), dtype=bool)
        return mat

    @cached_property
    def _incidence_sparse(self):
        inc = self.incidence
        if sparse.issparse(inc):
            return inc
        return sparse.csc_matrix(inc.astype(np.int8))

    @cached_property
    def collinearity(self):
        """Dense boolean matrix; entry (x,y) true iff x,y share a line or x == y."""
        inc = self._incidence_sparse
        common = (inc @ inc.T).toarray()
        coll = common > 0
        np.fill_diagonal(coll, True)
        return coll

    @cached_property
    def _common_line_counts(self):
        inc = self._incidence_sparse
        return (inc @ inc.T).toarray().astype(np.int32)

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
        mask = self.collinearity[:, hull].any(axis=1)
        return set(np.nonzero(mask)[0].tolist())

    def _check_point(self, x):
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.point_count):
            raise ValueError(f"invalid point index {x!r}")

    # -- incidence-count scan -----------------------------------------------

    def point_line_collinearity_counts(self, line_block=None):
        """Matrix c[x, L] = |perp(x) meet L| for lines in the block (all by default).

        This is the workhorse behind the projection axiom check and the
        triangle scan; done blockwise through the sparse incidence matrix so
        the stretch-size geometry stays within memory.
        """
        coll8 = self.collinearity.astype(np.int8)
        inc = self._incidence_sparse
        if line_block is None:
            line_block = np.arange(self.line_count)
        sub = inc[:, line_block]
        return np.asarray((sub.T @ coll8).T)

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
        block = 4096
        for start in range(0, self.line_count, block):
            idx = np.arange(start, min(start + block, self.line_count))
            counts = self.point_line_collinearity_counts(idx)
            for off, li in enumerate(idx):
                line = self.lines[li]
                col = counts[:, off]
                on_line = np.zeros(self.point_count, dtype=bool)
                on_line[list(line)] = True
                bad = np.nonzero((col >= 2) & ~on_line)[0]
                for z in bad:
                    nbrs = [y for y in line if self.collinearity[z, y]]
                    for a in nbrs:
                        for b in nbrs:
                            if a >= b:
                                continue
                            la = self._joining_lines(z, a)
                            lb = self._joining_lines(z, b)
                            for m1 in la:
                                for m2 in lb:
                                    if m1 != m2 and m1 != li and m2 != li:
                                        return TriangleWitness(
                                            points=(int(z), int(a), int(b)),
                                            lines=(int(m1), int(m2), int(li)),
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
    """
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
    degrees = np.zeros(g.point_count, dtype=np.int64)
    for line in g.lines:
        degrees[list(line)] += 1
    if degrees.min() != degrees.max():
        worst = int(degrees.argmin())
        return AxiomFailure(
            "a", (worst,), f"point {worst} lies on {int(degrees[worst])} lines"
        )
    deg = int(degrees[0])
    if deg < 2:
        return AxiomFailure("a", (0,), f"points lie on {deg} < 2 lines")
    s, t = size - 1, deg - 1

    common = g._common_line_counts
    off = common - np.diag(np.diag(common))
    if off.max() > 1:
        x, y = np.unravel_index(int(off.argmax()), off.shape)
        return AxiomFailure(
            "c", (int(x), int(y)), f"points {x},{y} share {int(off.max())} lines"
        )

    block = 4096
    for start in range(0, g.line_count, block):
        idx = np.arange(start, min(start + block, g.line_count))
        counts = g.point_line_collinearity_counts(idx)
        for offcol, li in enumerate(idx):
            col = counts[:, offcol]
            on_line = np.zeros(g.point_count, dtype=bool)
            on_line[list(g.lines[li])] = True
            outside = col[~on_line]
            if outside.size and (outside.min() < 1 or outside.max() > 1):
                pts = np.nonzero(~on_line)[0]
                bad = pts[int(outside.argmin() if outside.min() < 1 else outside.argmax())]
                return AxiomFailure(
                    "b",
                    (int(bad), int(li)),
                    f"point {int(bad)} sees {int(col[bad])} points of line {int(li)}",
                )
    return GQOrder(s, t)


def gq_order(g: IncidenceStructure) -> GQOrder:
    """verify_gq_axioms that raises on failure (for callers that require a GQ)."""
    res = verify_gq_axioms(g)
    if isinstance(res, AxiomFailure):
        raise ConsistencyViolation(f"{g!r} is not a generalized quadrangle: {res.message}")
    return res


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

