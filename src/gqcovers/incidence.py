"""Immutable point-line incidence structures and the quadrangle axioms.

Points are dense integer indices 0..n-1.  Lines are stored as sorted tuples
of point indices, in lexicographic order, with duplicate lines rejected at
construction, and again as flat numpy line-point rows, grouped by line size
wherever lines are gathered.  Collinearity is a dense, C-contiguous boolean
matrix scattered from each line's point pairs; it is symmetric, so it is
always gathered along rows.  Axiom (c) is a count: a line of k points joins
k(k-1) ordered point pairs, so no two points share two lines exactly when
the collinearity matrix holds sum k(k-1) pairs off its diagonal.  Axiom (b)
and the triangle scan are one sweep over blocks of lines, with the
collinearity rows packed into uint64 bitsets: per line, the points that see
at least one and at least two of its points.  The contact count
`point_line_collinearity_counts` (c[x, L] = |perp(x) meet L|, in the
smallest unsigned type that cannot wrap) serves the SPG alpha, the KK
completion test and the failure witnesses.  A structure never changes after
construction, so its axiom verdict, triangle witness and connectivity are
computed once and cached.
`ovoid_classes` groups the points off a subset by their traces on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConsistencyViolation, EmptyGeometryError

# point pairs per chunk of the collinearity scatter
SCATTER_CELLS = 1 << 16
# uint64 words per bitset in a block of the axiom (b) and triangle sweep
SWEEP_WORDS = 1 << 15
# BIT[i] is the uint64 word with bit i set
BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


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
    def _line_rows(self):
        """The lines as flat numpy rows (starts, points): line i holds
        points[starts[i]:starts[i + 1]], ascending."""
        starts = np.zeros(self.line_count + 1, dtype=np.intp)
        np.cumsum([len(line) for line in self.lines], out=starts[1:])
        points = np.fromiter(chain.from_iterable(self.lines), dtype=np.intp, count=starts[-1])
        return starts, points

    def _line_groups(self, lines):
        """Yield (positions, points) for each line size among the given line
        indices: where the lines of that size sit in `lines`, and their
        points as a (count, size) array."""
        if self.uniform_line_size:
            yield np.arange(len(lines)), self.line_points_array[lines]
            return
        starts, points = self._line_rows
        first = starts[lines]
        sizes = starts[lines + 1] - first
        for k in np.flatnonzero(np.bincount(sizes)):
            pos = np.flatnonzero(sizes == k)
            yield pos, points[first[pos, None] + np.arange(k)]

    @cached_property
    def point_degrees(self):
        """The number of lines through each point."""
        return np.bincount(self._line_rows[1], minlength=self.point_count)

    @cached_property
    def collinearity(self):
        """Dense C-contiguous boolean matrix; entry (x,y) true iff x,y share a
        line or x == y.  Scattered from each line's point pairs."""
        n = self.point_count
        coll = np.zeros((n, n), dtype=bool)
        cells = coll.reshape(-1)
        for _pos, pts in self._line_groups(np.arange(self.line_count)):
            step = max(1, SCATTER_CELLS // max(pts.shape[1] ** 2, 1))
            for start in range(0, len(pts), step):
                part = pts[start:start + step]
                cells[(part[:, :, None] * n + part[:, None, :]).ravel()] = True
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
        """Lines as a dense (m, k) int array, a view of the line-point rows;
        only for uniform line size."""
        k = self.uniform_line_size
        if k is None:
            raise ValueError("line sizes are not uniform")
        return self._line_rows[1].reshape(self.line_count, k)

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

    # -- contact counts and the line sweep ---------------------------------------

    def point_line_collinearity_counts(self, line_block=None):
        """Matrix c[x, L] = |perp(x) meet L| for lines in the block (all by
        default): per line, the sum of its points' collinearity rows."""
        lines = np.arange(self.line_count) if line_block is None else line_block
        return _line_sums(self, self.collinearity, np.asarray(lines, dtype=np.intp)).T

    def _line_sweeps(self):
        """Yield (lines, one, two, own) over blocks of consecutive lines, each
        a uint64 bitset over the points per line: the points that see at
        least one and at least two of the line's points (a point sees
        itself), and the line's own points."""
        rows = _bitsets(self.collinearity)
        words = rows.shape[1]
        step = max(1, SWEEP_WORDS // max(words, 1))
        for start in range(0, self.line_count, step):
            lines = np.arange(start, min(start + step, self.line_count))
            one, two, own = np.zeros((3, len(lines), words), dtype=np.uint64)
            for pos, pts in self._line_groups(lines):
                seen, twice = np.zeros((2, len(pos), words), dtype=np.uint64)
                for col in pts.T:
                    row = rows[col]
                    twice |= seen & row
                    seen |= row
                one[pos], two[pos] = seen, twice
                np.bitwise_or.at(own, (pos[:, None], pts >> 6), BIT[pts & 63])
            yield lines, one, two, own

    # -- global predicates ----------------------------------------------------

    def is_connected(self):
        """Connectivity of the bipartite point-line incidence graph (cached)."""
        return self._connected

    @cached_property
    def _connected(self):
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
        sharing no common line, or None (cached).  The candidates are the
        points off a line that see two of its points, in line-then-point
        order."""
        return self._triangle

    @cached_property
    def _triangle(self):
        for lines, _one, two, own in self._line_sweeps():
            off_line = two & ~own
            for i in np.flatnonzero(off_line.any(axis=1)):
                li = int(lines[i])
                line = self.lines[li]
                bits = np.unpackbits(off_line[i].astype("<u8").view(np.uint8), bitorder="little")
                for z in np.flatnonzero(bits):
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
    size = g.uniform_line_size
    if size is None:
        small = min(g.lines, key=len)
        big = max(g.lines, key=len)
        return AxiomFailure(
            "a",
            (g.line_index[small], g.line_index[big]),
            f"line sizes differ: {len(small)} vs {len(big)}",
        )
    if size < 2:
        return AxiomFailure("a", (0,), f"lines have {size} < 2 points")
    degrees = g.point_degrees
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

    # every point sees a point of each line, and only the line's own points
    # see two of them
    everyone = _bitsets(np.ones(g.point_count, dtype=bool))
    for lines, one, two, own in g._line_sweeps():
        bad = np.flatnonzero((one != everyone).any(axis=1) | (two != own).any(axis=1))
        if bad.size:
            li = int(lines[bad[0]])
            col = g.point_line_collinearity_counts([li])[:, 0]
            col[list(g.lines[li])] = 1
            x = int(col.argmin() if col.min() < 1 else col.argmax())
            return AxiomFailure("b", (x, li), f"point {x} sees {int(col[x])} points of line {li}")
    return GQOrder(s, t)


def _bitsets(rows):
    """Boolean rows packed into uint64 words: bit i of word w is column
    64w + i, and the bits past the last column are clear."""
    n = rows.shape[-1]
    packed = np.zeros(rows.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    packed[..., :-(-n // 8)] = np.packbits(rows, axis=-1, bitorder="little")
    return packed.view("<u8")


def _line_sums(g, rows, lines):
    """sums[i] = the sum of rows[p] over the points p of line lines[i] of g
    (for collinearity rows, every point's contact count with that line), in
    the smallest unsigned type that holds the longest of those lines."""
    sizes = np.diff(g._line_rows[0])[lines]
    sums = np.zeros((len(lines), rows.shape[1]), dtype=np.min_scalar_type(sizes.max(initial=0)))
    for pos, pts in g._line_groups(lines):
        for col in pts.T:
            sums[pos] += rows[col]
    return sums


def _repeated_line_pair(g: IncidenceStructure):
    """(x, y, count) for the first point pair in row-major order on the most
    common lines, when that is more than one line; None otherwise.

    A line of k points joins k(k-1) ordered pairs of distinct points, so two
    points share two lines exactly when the collinearity matrix holds fewer
    ordered pairs off its diagonal than the sum of k(k-1) over the lines
    (the double count of Payne & Thas, 1.2).  The pairs are listed only
    when that count fails."""
    sizes = np.diff(g._line_rows[0])
    if np.count_nonzero(g.collinearity) - g.point_count == int((sizes * (sizes - 1)).sum()):
        return None
    n = g.point_count
    codes = []
    for _pos, pts in g._line_groups(np.arange(g.line_count)):
        first, second = np.triu_indices(pts.shape[1], 1)
        codes.append((pts[:, first] * n + pts[:, second]).ravel())
    pairs, counts = np.unique(np.concatenate(codes), return_counts=True)
    x, y = divmod(int(pairs[counts.argmax()]), n)
    return x, y, int(counts.max())


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
    sub = emb.substructure
    counts = _line_sums(sub, rows.T, np.arange(sub.line_count)).T
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

