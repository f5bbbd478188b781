"""Independent brute-force oracles for the test suite.

Everything here works straight from definitions (double loops over points
and lines, span enumeration over the field) and deliberately avoids the
library's cached matrices and optimized paths.
"""

import itertools


def brute_collinear(g, x, y):
    if x == y:
        return True
    return any(x in line and y in line for line in g.lines)


def brute_contacts(g):
    """c[x][L]: how many points of line L are collinear with x (x counts
    itself when it lies on L)."""
    return [[sum(brute_collinear(g, x, y) for y in line) for line in g.lines]
            for x in range(g.point_count)]


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


def brute_covers(src, tgt):
    """Every point map src -> tgt whose derived line map is locally
    bijective: each line onto a target line of the same size, each pencil
    onto the pencil of the image point.  Returns the set of (point_map,
    line_map) pairs (tiny structures)."""
    line_of = {frozenset(line): i for i, line in enumerate(tgt.lines)}

    def pencils(g):
        return [sorted(i for i, line in enumerate(g.lines) if x in line)
                for x in range(g.point_count)]

    src_pencil, tgt_pencil = pencils(src), pencils(tgt)
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
