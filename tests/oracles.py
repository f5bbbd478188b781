"""Independent brute-force oracles for the test suite.

Everything here works straight from definitions (double loops over points
and lines, span enumeration over the field) and deliberately avoids the
library's cached matrices and optimized paths.
"""

import itertools

from gqcovers.gf import field_of_order


def brute_collinear(g, x, y):
    if x == y:
        return True
    return any(x in line and y in line for line in g.lines)




def brute_joining_lines(g):
    """(x, y) -> the ascending indices of the lines through both points, for
    every pair of distinct points on a common line, both ways round."""
    through = {}
    for i, line in enumerate(g.lines):
        for x, y in itertools.permutations(line, 2):
            through.setdefault((x, y), []).append(i)
    return through


def brute_collinearity(g):
    """rows[x][y]: x == y, or x and y lie on a common line."""
    through = brute_joining_lines(g)
    return [[x == y or (x, y) in through for y in range(g.point_count)]
            for x in range(g.point_count)]


def brute_contacts(g):
    """c[x][L]: how many points of line L are collinear with x (x counts
    itself when it lies on L)."""
    through = brute_joining_lines(g)
    return [[sum(x == y or (x, y) in through for y in line) for line in g.lines]
            for x in range(g.point_count)]


def brute_gq_axioms(g):
    """The quadrangle axioms from their definitions, (a), then (c), then (b):
    ("order", s, t) when they hold, else (axiom, witness, message).  The
    witnesses: for (a) the first shortest and first longest line, the first
    point on the fewest lines, or element 0; for (c) the first pair x < y in
    row-major order on the most common lines; for (b) the first line with a
    point off it seeing no or several of its points, and on that line the
    first point seeing none, else the first seeing the most (a point on the
    line counts as seeing one)."""
    n, lines = g.point_count, g.lines
    if not lines:
        return "a", (0,), "point 0 lies on 0 lines"
    sizes = [len(line) for line in lines]
    if min(sizes) != max(sizes):
        return ("a", (sizes.index(min(sizes)), sizes.index(max(sizes))),
                f"line sizes differ: {min(sizes)} vs {max(sizes)}")
    if sizes[0] < 2:
        return "a", (0,), f"lines have {sizes[0]} < 2 points"
    degrees = [sum(x in line for line in lines) for x in range(n)]
    if min(degrees) != max(degrees):
        worst = degrees.index(min(degrees))
        return "a", (worst,), f"point {worst} lies on {degrees[worst]} lines"
    if degrees[0] < 2:
        return "a", (0,), f"points lie on {degrees[0]} < 2 lines"
    through = brute_joining_lines(g)
    most = max(len(ls) for ls in through.values())
    if most > 1:
        x, y = min(pair for pair, ls in through.items() if len(ls) == most)
        return "c", (x, y), f"points {x},{y} share {most} lines"
    for i, line in enumerate(lines):
        seen = [1 if x in line else sum((x, y) in through for y in line) for x in range(n)]
        if any(c != 1 for c in seen):
            x = seen.index(0) if 0 in seen else seen.index(max(seen))
            return "b", (x, i), f"point {x} sees {seen[x]} points of line {i}"
    return "order", sizes[0] - 1, degrees[0] - 1


def brute_triangle(g):
    """The first triangle in line-then-point order: a line L, a point z off
    L collinear with two points a < b of L, and lines m1 through z, a and m2
    through z, b with L, m1, m2 distinct.  Returns ((z, a, b), (m1, m2, L)),
    or None when there is no triangle."""
    through = brute_joining_lines(g)
    for i, line in enumerate(g.lines):
        for z in range(g.point_count):
            if z in line:
                continue
            for a, b in itertools.combinations([y for y in line if (z, y) in through], 2):
                for m1 in through[(z, a)]:
                    for m2 in through[(z, b)]:
                        if m1 != m2 and i not in (m1, m2):
                            return (z, a, b), (m1, m2, i)
    return None


def brute_perp(g, x):
    return {y for y in range(g.point_count) if brute_collinear(g, x, y)}


def brute_perp_set(g, Y):
    pts = set(range(g.point_count))
    for y in Y:
        pts &= brute_perp(g, y)
    return pts


def brute_cl(g, u, v):
    biperp = brute_perp_set(g, brute_perp_set(g, {u, v}))
    return {w for w in range(g.point_count) if brute_perp(g, w) & biperp}


def brute_ovoid_classes(g, point_subset):
    """The external points grouped by their traced point sets with a plain
    dict: trace -> the external points tracing it, ascending."""
    pset = set(point_subset)
    classes = {}
    for x in range(g.point_count):
        if x in pset:
            continue
        trace = frozenset(y for y in point_subset if brute_collinear(g, x, y))
        classes.setdefault(trace, []).append(x)
    return classes


def brute_census(g, point_subset):
    """Multiset of subtender counts, and the count of every traced set."""
    traces = {t: len(xs) for t, xs in brute_ovoid_classes(g, point_subset).items()}
    census = {}
    for count in traces.values():
        census[count] = census.get(count, 0) + 1
    return census, traces


def rank_by_span(gfq, vectors):
    """Rank via explicit span enumeration: |span| = q^rank."""
    dim = len(vectors[0])
    span = {(0,) * dim}
    for v in vectors:
        v = tuple(v)
        if v in span:
            continue
        extended = set(span)
        for u in span:
            for c in range(1, gfq.q):
                extended.add(tuple(gfq.add(a, gfq.mul(c, b)) for a, b in zip(u, v)))
        span = extended
    size = len(span)
    rank = 0
    while gfq.q**rank < size:
        rank += 1
    assert gfq.q**rank == size
    return rank


def brute_spg_parameters(g):
    """Measure (s*, t*, alpha*, mu*) straight from the definition; returns
    None for a parameter without witnesses."""
    sizes = {len(line) for line in g.lines}
    assert len(sizes) == 1
    s_star = sizes.pop() - 1
    degrees = {}
    for line in g.lines:
        for p in line:
            degrees[p] = degrees.get(p, 0) + 1
    assert len(set(degrees.values())) == 1
    t_star = next(iter(degrees.values())) - 1
    alphas = set()
    for line in g.lines:
        for x in range(g.point_count):
            if x in line:
                continue
            c = sum(1 for y in line if brute_collinear(g, x, y))
            if c:
                alphas.add(c)
    mus = set()
    for x, y in itertools.combinations(range(g.point_count), 2):
        if brute_collinear(g, x, y):
            continue
        mus.add(
            sum(
                1
                for z in range(g.point_count)
                if z not in (x, y)
                and brute_collinear(g, x, z)
                and brute_collinear(g, y, z)
            )
        )
    alpha = alphas.pop() if len(alphas) == 1 else None
    mu = mus.pop() if len(mus) == 1 else None
    return s_star, t_star, alpha, mu


def brute_pencils(g):
    """The lines through each point, ascending."""
    return [[i for i, line in enumerate(g.lines) if x in line] for x in range(g.point_count)]


def brute_covers(src, tgt):
    """Every point map src -> tgt whose derived line map is locally
    bijective: each line onto a target line of the same size, each pencil
    onto the pencil of the image point.  Returns the set of (point_map,
    line_map) pairs (tiny structures)."""
    line_of = {frozenset(line): i for i, line in enumerate(tgt.lines)}
    src_pencil, tgt_pencil = brute_pencils(src), brute_pencils(tgt)
    out = set()
    for pm in itertools.product(range(tgt.point_count), repeat=src.point_count):
        images = [frozenset(pm[p] for p in line) for line in src.lines]
        if any(len(im) != len(line) or im not in line_of
               for im, line in zip(images, src.lines)):
            continue
        lm = tuple(line_of[im] for im in images)
        if all(sorted(lm[i] for i in src_pencil[x]) == tgt_pencil[pm[x]]
               for x in range(src.point_count)):
            out.add((pm, lm))
    return out


def brute_automorphism_count(g):
    """Count point permutations sending lines to lines (tiny structures)."""
    lineset = set(g.lines)
    count = 0
    for pm in itertools.permutations(range(g.point_count)):
        if all(tuple(sorted(pm[p] for p in line)) in lineset for line in g.lines):
            count += 1
    return count


def brute_group(degree, generators):
    """Every product of the generators, as tuples p[i] = image of i: the
    closure of the identity under right multiplication by each generator,
    by breadth-first search (a finite group needs no inverses)."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    for p in queue:
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def brute_setwise_stabilizer(group, subset):
    """The elements of the group, listed in full, that map the subset of its
    domain onto itself."""
    subset = set(subset)
    return [el for el in group.elements(cap=group.order())
            if {el[x] for x in subset} == subset]


def brute_is_equitable(adj, cells):
    """Every vertex of a cell has the same number of neighbours in each cell."""
    for other in cells:
        other = set(other)
        for cell in cells:
            if len({sum(1 for w in adj[v] if w in other) for v in cell}) > 1:
                return False
    return True


def brute_refines(fine, coarse):
    """Ordered refinement: both partition the same vertices, every cell of
    fine lies inside one cell of coarse, and the cells of fine inside each
    coarse cell sit where that cell sat."""
    if sorted(v for c in fine for v in c) != sorted(v for c in coarse for v in c):
        return False
    where = {v: i for i, cell in enumerate(coarse) for v in cell}
    owners = []
    for cell in fine:
        if len({where[v] for v in cell}) != 1:
            return False
        owners.append(where[cell[0]])
    return owners == sorted(owners)


def brute_closure(g, seed_points=(), seed_lines=(), pencils=None):
    """Smallest point/line set holding the seeds, every point of its lines
    and every line through two of its points: a worklist fixpoint over
    Python sets.  Returns (points, lines)."""
    pencils = pencils or brute_pencils(g)
    pts, lns = set(), set(seed_lines)
    todo = list(seed_points) + [p for i in seed_lines for p in g.lines[i]]
    while todo:
        p = todo.pop()
        if p in pts:
            continue
        pts.add(p)
        for i in pencils[p]:
            if i not in lns and sum(y in pts for y in g.lines[i]) >= 2:
                lns.add(i)
                todo.extend(g.lines[i])
    return pts, lns


def brute_subgqs_through_line(g, infinity_line):
    """Every full order-(s, s) subquadrangle through the line, s + 1 its
    size: for each pair of lines through its first two points, close the
    pair alone and the pair with each point off its grid, and keep every
    closure with (s+1)(s^2+1) points each on s + 1 of its lines.  Returns
    {frozenset(points): frozenset(lines)}."""
    linf = g.lines[infinity_line]
    s = len(linf) - 1
    pencils = brute_pencils(g)
    through = [[i for i in pencils[p] if i != infinity_line] for p in linf[:2]]
    found = {}
    for l1 in through[0]:
        for l2 in through[1]:
            if set(g.lines[l1]) & set(g.lines[l2]):
                continue
            grid, _ = brute_closure(g, (), (l1, l2), pencils)
            for x in [None] + [x for x in range(g.point_count) if x not in grid]:
                pts, lns = brute_closure(g, () if x is None else (x,), (l1, l2), pencils)
                degree = {}
                for i in lns:
                    for p in g.lines[i]:
                        degree[p] = degree.get(p, 0) + 1
                if len(pts) == (s + 1) * (s * s + 1) and all(
                        degree.get(p) == s + 1 for p in pts):
                    found[frozenset(pts)] = frozenset(lns)
    return found


def _brute_normalize(gfq, vec):
    lead = next(x for x in vec if x)
    c = gfq.inv(lead)
    return tuple(gfq.mul(c, x) for x in vec)


def brute_polar_space(gfq, ncoords, singular, pair_ok):
    """Points and lines of a polar space from scalar predicates: the
    normalized projective points with singular(x), lex sorted, and the line
    through every pair with pair_ok(x, y), found by enumerating the span
    {a*x + b*y} and checked to lie on the variety.  Returns (points, sorted
    lines as sorted index tuples)."""
    pts = sorted(
        _brute_normalize(gfq, v)
        for v in itertools.product(gfq.elements(), repeat=ncoords)
        if any(v) and _brute_normalize(gfq, v) == v and singular(v)
    )
    index = {p: i for i, p in enumerate(pts)}
    lines = set()
    for x, y in itertools.combinations(pts, 2):
        if not pair_ok(x, y):
            continue
        span = {
            _brute_normalize(gfq, [gfq.add(gfq.mul(a, u), gfq.mul(b, v)) for u, v in zip(x, y)])
            for a, b in itertools.product(gfq.elements(), repeat=2)
            if a or b
        }
        assert len(span) == gfq.q + 1 and span <= index.keys()
        lines.add(tuple(sorted(index[p] for p in span)))
    return pts, sorted(lines)


def brute_classical_gq(family, q):
    """(points, lines) of Q(4,q), Q(5,q), W(q) or H(n,q^2), family "Q4",
    "Q5", "W" or "H<n>", from the scalar forms of the classical quadrangles
    (Payne & Thas, ch. 3), written out term by term."""
    if family == "W":
        gfq = field_of_order(q)

        def alt(x, y):
            return gfq.add(
                gfq.sub(gfq.mul(x[0], y[1]), gfq.mul(x[1], y[0])),
                gfq.sub(gfq.mul(x[2], y[3]), gfq.mul(x[3], y[2])),
            )

        return brute_polar_space(gfq, 4, lambda x: True, lambda x, y: alt(x, y) == 0)
    if family in ("Q4", "Q5"):
        gfq = field_of_order(q)
        if family == "Q4":
            def qform(x):
                return gfq.sub(gfq.sub(gfq.mul(x[0], x[0]), gfq.mul(x[1], x[2])),
                               gfq.mul(x[3], x[4]))
        else:
            F = gfq.elements()
            b, c = next(
                (b, c) for b in F for c in F
                if all(gfq.add(gfq.add(gfq.mul(r, r), gfq.mul(b, r)), c) for r in F)
            )

            def qform(x):
                f = gfq.add(gfq.add(gfq.mul(x[0], x[0]), gfq.mul(b, gfq.mul(x[0], x[1]))),
                            gfq.mul(c, gfq.mul(x[1], x[1])))
                return gfq.add(f, gfq.add(gfq.mul(x[2], x[3]), gfq.mul(x[4], x[5])))

        def polar(x, y):
            s = tuple(gfq.add(a, b) for a, b in zip(x, y))
            return gfq.sub(gfq.sub(qform(s), qform(x)), qform(y))

        return brute_polar_space(gfq, 5 if family == "Q4" else 6,
                                 lambda x: qform(x) == 0, lambda x, y: polar(x, y) == 0)
    n = int(family[1:])
    gfq = field_of_order(q * q)

    def herm(x, y):
        acc = 0
        for a, b in zip(x, y):
            acc = gfq.add(acc, gfq.mul(a, gfq.power(b, q)))
        return acc

    return brute_polar_space(gfq, n + 1, lambda x: herm(x, x) == 0,
                             lambda x, y: herm(x, y) == 0)
