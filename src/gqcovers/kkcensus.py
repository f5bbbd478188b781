"""Census of the order-q subquadrangles through the distinguished line of the
Kantor-Knuth quadrangle: enumeration by span closure over line-pair seeds,
subtension census per subquadrangle, and the orbit accounting.

The enumeration walks every pair (L1, L2) of lines through the first two
points of the distinguished line.  Each pair spans a grid.  In a GQ a point
off a line is collinear with exactly one of its points, so the q + 1
subquadrangles through the grid partition the points off it.  A pair whose
recorded subquadrangles already cover every point is therefore skipped: any
closure from it would stay inside one of them.  Otherwise the untried
uncovered completing points are closed in ascending order, and every proper
closure of the right order is recorded.  The completing points are filtered
by an ovoid-subtension test, which on a GQ passes every point off the grid;
it stays because the walk never checks that its input is a GQ.
Completeness is certified only by comparing the final count with the
expected total.  The walk checkpoints after every pair and is resumable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ConsistencyViolation
from .incidence import (IncidenceStructure, SubGeometryEmbedding, gq_order,
                        induced_subgeometry, ovoid_classes)
from .subtension import _census


@dataclass
class SubGQRecord:
    ambient: IncidenceStructure
    points: tuple
    lines: tuple
    census: Optional[dict] = None
    doubly_subtended: Optional[bool] = None
    one_subtended_ovoid_count: Optional[int] = None

    @property
    def orbit_label(self):
        if self.doubly_subtended is None:
            return None
        return "Omega1" if self.doubly_subtended else "Omega2"

    def embedding(self) -> SubGeometryEmbedding:
        return induced_subgeometry(self.ambient, self.points, self.lines)


@dataclass(frozen=True)
class ClosureReport:
    proper: bool  # closed up strictly inside the ambient structure
    point_count: int
    line_count: int
    embedding: Optional[SubGeometryEmbedding]


def _closure_masks(g, seed_points, seed_lines, line_pts, point_lns, max_points=None):
    """Boolean masks of the smallest full line-closed subgeometry containing
    the seeds, or None once it exceeds max_points.  A running count of the
    member points on every line finds the lines that gain a second point, and
    a mark array over the points collects their new points."""
    pts = np.zeros(g.point_count, dtype=bool)
    lns = np.zeros(g.line_count, dtype=bool)
    seed_lines = np.asarray(seed_lines, dtype=np.int64)
    pts[np.asarray(seed_points, dtype=np.int64)] = True
    pts[line_pts[seed_lines]] = True
    lns[seed_lines] = True
    on_line = np.zeros(g.line_count, dtype=np.int64)
    frontier = np.flatnonzero(pts)
    while frontier.size:
        if max_points is not None and int(pts.sum()) > max_points:
            return None, None
        on_line += np.bincount(point_lns[frontier].ravel(), minlength=g.line_count)
        newly = np.flatnonzero((on_line >= 2) & ~lns)
        if newly.size == 0:
            break
        lns[newly] = True
        member = np.zeros(g.point_count, dtype=bool)
        member[line_pts[newly]] = True
        frontier = np.flatnonzero(member & ~pts)
        pts[frontier] = True
    return pts, lns


def span_closure(g, seed_points=(), seed_lines=(), *, max_points=None) -> ClosureReport:
    """Close a seed under taking full lines and joining lines of collinear
    point pairs; budget overrun raises."""
    line_pts = g.line_points_array
    point_lns = _point_lines_array(g)
    pts, lns = _closure_masks(g, seed_points, seed_lines, line_pts, point_lns, max_points)
    if pts is None:
        raise BudgetExceeded(f"closure exceeded {max_points} points")
    npts, nlns = int(pts.sum()), int(lns.sum())
    proper = npts < g.point_count
    emb = None
    if proper:
        emb = induced_subgeometry(
            g, np.nonzero(pts)[0].tolist(), np.nonzero(lns)[0].tolist()
        )
    return ClosureReport(proper, npts, nlns, emb)


def _point_lines_array(g):
    degs = {len(pl) for pl in g.point_lines}
    if len(degs) != 1:
        raise ValueError("point degrees are not uniform")
    return np.array(g.point_lines, dtype=np.int64)


def enumerate_subgqs_through_line(
    g,
    infinity_line,
    *,
    expected_total=None,
    checkpoint_dir=None,
    closure_budget=None,
    log=None,
    pair_range=None,
):
    """All full subquadrangles of order (s, s) containing the given line,
    where s+1 is the line size; deduplicated, canonically ordered records.

    closure_budget bounds the number of closure computations; exhaustion
    raises with the checkpoint left behind so the walk can resume.
    """
    s = len(g.lines[infinity_line]) - 1
    target_pts = (s + 1) * (s * s + 1)
    line_pts = g.line_points_array
    point_lns = _point_lines_array(g)

    linf = g.lines[infinity_line]
    p1, p2 = linf[0], linf[1]
    through_p1 = [li for li in g.point_lines[p1] if li != infinity_line]
    through_p2 = [li for li in g.point_lines[p2] if li != infinity_line]
    pairs = [
        (l1, l2)
        for l1 in through_p1
        for l2 in through_p2
        if not set(g.lines[l1]) & set(g.lines[l2])
    ]
    lo, hi = pair_range if pair_range is not None else (0, len(pairs))

    found_points = {}  # point tuple -> line tuple
    done_pairs = set()
    ck_path = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ck_path = os.path.join(checkpoint_dir, "progress.jsonl")
        _load_checkpoint(ck_path, found_points, done_pairs)

    # rows 0..len(found_points)-1 hold the record masks; the capacity doubles
    masks = _stack_masks(g.point_count, found_points)
    closures = 0

    def closure(seed_pts, seed_lns):
        nonlocal closures
        closures += 1
        if closure_budget is not None and closures > closure_budget:
            raise BudgetExceeded(
                f"enumeration exceeded {closure_budget} closures; partial results "
                "are checkpointed and not authoritative"
            )
        return _closure_masks(g, seed_pts, seed_lns, line_pts, point_lns, target_pts)

    ck_handle = open(ck_path, "a") if ck_path else None

    def record(cpts, clns):
        nonlocal masks
        key = tuple(np.nonzero(cpts)[0].tolist())
        if key in found_points:
            return
        val = tuple(np.nonzero(clns)[0].tolist())
        if len(found_points) == len(masks):
            masks = np.concatenate([masks, np.zeros_like(masks)])
        masks[len(found_points)] = cpts
        found_points[key] = val
        if ck_handle:
            ck_handle.write(
                json.dumps({"type": "subgq", "points": list(key), "lines": list(val)})
                + "\n"
            )

    def walk_pair(l1, l2):
        seed = line_pts[[l1, l2]].ravel()
        covered = _covering_union(masks[:len(found_points)], seed)
        # Every closure from this pair stays inside a record holding both
        # lines, so once those records cover every point the pair is spent.
        if covered.all():
            return
        pts, lns = closure((), (l1, l2))
        if _is_full_subgq(pts, lns, point_lns, s):
            record(pts, lns)
        if pts is None or int(pts.sum()) == target_pts:
            return
        grid_pts = np.flatnonzero(pts)
        untried = None
        while not (covered | pts).all():
            if untried is None:
                untried = np.zeros(g.point_count, dtype=bool)
                untried[_completion_candidates(g, pts, np.flatnonzero(lns))] = True
            open_pts = untried & ~covered
            if not open_pts.any():
                return
            x = int(np.argmax(open_pts))
            untried[x] = False
            cpts, clns = closure(np.append(grid_pts, x), (l1, l2))
            if _is_full_subgq(cpts, clns, point_lns, s):
                record(cpts, clns)
                covered = _covering_union(masks[:len(found_points)], seed)

    todo = [k for k in range(lo, hi) if k not in done_pairs]
    started = time.monotonic()
    try:
        for walked, k in enumerate(todo, 1):
            walk_pair(*pairs[k])
            done_pairs.add(k)
            if ck_handle:
                ck_handle.write(json.dumps({"type": "pair_done", "index": k}) + "\n")
                ck_handle.flush()
            if log and (k % 250 == 0 or walked == len(todo)):
                rate = walked / max(time.monotonic() - started, 1e-9)
                log(f"pair {k + 1}/{len(pairs)}: {len(found_points)} subGQs, "
                    f"{closures} closures, {rate:.1f} pairs/s, "
                    f"ETA {(len(todo) - walked) / rate:.0f} s")
    finally:
        if ck_handle:
            ck_handle.close()

    records = [
        SubGQRecord(g, pts, lns) for pts, lns in sorted(found_points.items())
    ]
    if expected_total is not None and len(records) != expected_total:
        raise ConsistencyViolation(
            f"enumeration found {len(records)} subquadrangles, expected {expected_total}"
        )
    return records


def _completion_candidates(g, grid_mask, grid_lines):
    """Points off the grid whose perp meets every grid line exactly once."""
    counts = g.point_line_collinearity_counts(grid_lines)
    return np.flatnonzero((counts == 1).all(axis=1) & ~grid_mask)


def _covering_union(found_masks, seed):
    """Union of the recorded point masks holding every seed point.  Records
    are closed, so one holds the grid of two lines exactly when it holds
    their points."""
    holding = found_masks[:, seed].all(axis=1)
    return found_masks[holding].any(axis=0)


def _stack_masks(n, found_points):
    out = np.zeros((max(len(found_points), 16), n), dtype=bool)
    for i, key in enumerate(found_points):
        out[i, list(key)] = True
    return out


def _is_full_subgq(pts, lns, point_lns, s):
    """The closure (None past its budget) is full and line-closed by
    construction; it is an (s, s) subquadrangle precisely when it has
    (s+1)(s^2+1) points, each on exactly s+1 member lines (the remaining
    axioms are inherited from the ambient GQ)."""
    if pts is None or int(pts.sum()) != (s + 1) * (s * s + 1):
        return False
    deg = lns[point_lns[np.flatnonzero(pts)]].sum(axis=1)
    return bool((deg == s + 1).all())


# -- censuses and the orbit report ------------------------------------------------


def record_census(rec: SubGQRecord, *, s, tprime):
    """Subtender census of one record, classed straight from its point set
    (the embedding machinery is too heavy to rebuild hundreds of times)."""
    classes = ovoid_classes(rec.ambient, rec.points)
    # a trace holds at most len(rec.points) points, so this sum cannot wrap
    sizes = classes.rows.sum(axis=1, dtype=np.min_scalar_type(len(rec.points)))
    expected = s * tprime + 1
    if sizes.size and (sizes.min() != expected or sizes.max() != expected):
        raise ConsistencyViolation(
            f"external point traces {int(sizes.min())}..{int(sizes.max())} "
            f"points, expected {expected}"
        )
    census = _census(classes.sizes, s=s, tprime=tprime).counts
    if sum(t * k for t, k in census.items()) != len(classes.external):
        raise ConsistencyViolation("external-point accounting failed")
    rec.census = census
    rec.doubly_subtended = set(census) == {2}
    rec.one_subtended_ovoid_count = census.get(1, 0)
    return census


def doubling_involution(rec: SubGQRecord):
    """For a doubly subtended record, the ambient map fixing the
    subquadrangle pointwise and swapping the two subtenders of every ovoid;
    verified to be an automorphism (or None when the census is not all 2)."""
    from .autgroup import Permutation

    g = rec.ambient
    classes = ovoid_classes(g, rec.points)
    if set(classes.sizes.tolist()) != {2}:
        return None
    x, y = np.stack(classes.subtenders()).T
    images = np.arange(g.point_count)
    images[x], images[y] = y, x
    try:
        return Permutation.from_points(g, tuple(images.tolist()))
    except ValueError:
        return None


@dataclass(frozen=True)
class OrbitReport:
    total: int
    omega1: int
    omega2: int
    one_subtended_per_omega2: tuple

    def to_json_dict(self):
        return {
            "total": self.total,
            "omega1": self.omega1,
            "omega2": self.omega2,
            "one_subtended_per_omega2": list(self.one_subtended_per_omega2),
        }


def census_report(records, *, q=None) -> OrbitReport:
    """Orbit accounting over a complete record list.  With q given the
    expected counts are asserted: 2q^2 doubly subtended, (q-1)q^2 not, and
    (q+1)q^2(q-1) one-subtended ovoids in each of the latter."""
    if not records:
        raise ValueError("census_report needs at least one record")
    g = records[0].ambient
    s, _t = gq_order(g)
    for rec in records:
        if rec.census is None:
            record_census(rec, s=s, tprime=s)
    omega1 = [r for r in records if r.doubly_subtended]
    omega2 = [r for r in records if not r.doubly_subtended]
    ones = tuple(r.one_subtended_ovoid_count for r in omega2)
    report = OrbitReport(len(records), len(omega1), len(omega2), ones)
    if q is not None:
        if len(records) != q**3 + q**2:
            raise ConsistencyViolation(
                f"{len(records)} subquadrangles, expected {q ** 3 + q ** 2}"
            )
        if len(omega1) != 2 * q**2 or len(omega2) != (q - 1) * q**2:
            raise ConsistencyViolation(
                f"orbit sizes {len(omega1)}/{len(omega2)}, expected "
                f"{2 * q ** 2}/{(q - 1) * q ** 2}"
            )
        expected_ones = (q + 1) * q**2 * (q - 1)
        bad = [c for c in ones if c != expected_ones]
        if bad:
            raise ConsistencyViolation(
                f"one-subtended counts {sorted(set(bad))}, expected {expected_ones}"
            )
    return report


def _load_checkpoint(path, found_points, done_pairs):
    """Read the complete lines of a checkpoint.  A torn tail from an
    interrupted write is cut off, so the walk appends after the last complete
    line and redoes the torn pair."""
    if not os.path.exists(path):
        return
    good = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break
            if raw.strip():
                try:
                    item = json.loads(raw)
                except json.JSONDecodeError:
                    break
                if item["type"] == "subgq":
                    found_points[tuple(item["points"])] = tuple(item["lines"])
                elif item["type"] == "pair_done":
                    done_pairs.add(item["index"])
            good += len(raw)
    if good < os.path.getsize(path):
        os.truncate(path, good)
