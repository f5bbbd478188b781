import math
import random
import re

import pytest

from gqcovers.autgroup import (
    Permutation,
    PermutationGroup,
    _cells,
    _color_partition,
    _individualize,
    _structure_graph,
    automorphism_group,
    compare_derived_automorphisms,
    elementwise_kernel,
    extend_automorphism,
    higher_decomposition_check,
    induced_action_on_derived,
    induced_action_on_sub,
    pointwise_stabilizer,
    setwise_stabilizer,
)
from gqcovers.constructions import (
    build_grid,
    build_Q4,
    build_Q4_with_Q3,
    build_Q5,
    build_Q5_with_Q4,
)
from gqcovers.covers import _morphism_search
from gqcovers.errors import BudgetExceeded, HypothesisError
from gqcovers.incidence import IncidenceStructure
from gqcovers.subtension import build_derived_pair

from .oracles import (
    brute_automorphism_count,
    brute_group,
    brute_is_equitable,
    brute_refines,
    brute_setwise_stabilizer,
)


def _section_domain(amb, emb):
    """Domain indices of the section's points and lines."""
    return set(emb.point_subset) | {amb.point_count + li for li in emb.line_subset}


def test_permutation_validation(grid2):
    with pytest.raises(ValueError):
        Permutation(grid2, tuple(range(9)), tuple([0] * 6))
    ident = Permutation.identity(grid2)
    assert ident.compose_with(ident).point_images == ident.point_images
    # a reflection of the grid: swap the two parallel classes
    transpose = tuple(3 * (i % 3) + i // 3 for i in range(9))
    p = Permutation.from_points(grid2, transpose)
    assert p.inverse().point_images == transpose  # involution


@pytest.mark.parametrize(
    "lines,expected",
    [
        ([[0, 1], [1, 2], [2, 3], [3, 0]], 8),
        ([[0, 1, 2]], 6),
        ([[0, 1, 2], [2, 3, 4], [4, 5, 0], [1, 3, 5], [0, 6, 3], [2, 6, 5], [1, 6, 4]], 168),
    ],
)
def test_group_order_vs_brute_force(lines, expected):
    n = max(max(line) for line in lines) + 1
    g = IncidenceStructure(n, lines)
    assert brute_automorphism_count(g) == expected
    assert automorphism_group(g).order() == expected
    autos = _morphism_search(
        g, g, [(1 << n) - 1] * n, injective=True, first_only=False, node_budget=10**6
    )
    assert len(autos) == len(set(autos)) == expected


@pytest.mark.parametrize("s", [2, 3, 4])
def test_grid_automorphism_order(s):
    G = automorphism_group(build_grid(s))
    assert G.order() == 2 * math.factorial(s + 1) ** 2


def test_q4_group(q4_2):
    G = automorphism_group(q4_2)
    assert G.order() == 720
    # transitive on points with stabilizer of order 48
    assert len([x for x in G.orbit(0) if x < 15]) == 15
    stab = pointwise_stabilizer(G, [0])
    assert stab.order() == 48


def test_generators_preserve_incidence(q4_2):
    G = automorphism_group(q4_2)
    for p in G.geometry_generators:
        # Permutation.__post_init__ verifies; double-check both directions
        inv = p.inverse()
        assert inv.compose_with(p).point_images == tuple(range(15))


def test_order_stable_under_base_reordering(q4_2):
    G = automorphism_group(q4_2)
    rng = random.Random(5)
    for _ in range(3):
        prefix = rng.sample(range(30), 4)
        re = PermutationGroup(G.degree, G.generators, base_prefix=prefix)
        assert re.order() == G.order()


def test_kernel_and_stabilizer(q5q4_2, q5q4_3):
    for (amb, emb), order, sub_order in ((q5q4_2, 51_840, 720), (q5q4_3, 26_127_360, 51_840)):
        G = automorphism_group(amb)
        assert G.order() == order
        # the kernel's chain is rebuilt on a base prefix of every section
        # point and line: 30 entries at q = 2, 80 at q = 3
        ker = elementwise_kernel(G, emb)
        assert ker.order() == 2
        with pytest.raises(HypothesisError):
            induced_action_on_sub(G, emb)  # G moves the section
        stab = setwise_stabilizer(G, _section_domain(amb, emb))
        assert stab.order() == 2 * sub_order
        act = induced_action_on_sub(stab, emb)
        assert act.group.order() == sub_order  # the whole Aut(Q(4,q))
        assert act.kernel_order == 2 and act.faithful_modulo_kernel


def _section_image():
    """Aut(Q(4,2)) given by the restrictions of the section stabilizer's
    generators, with no base from the search."""
    amb, emb = build_Q5_with_Q4(2)
    stab = setwise_stabilizer(automorphism_group(amb), _section_domain(amb, emb))
    return induced_action_on_sub(stab, emb).group


def _random_even_group(degree, count, seed):
    """Seeded random even permutations: they generate a subgroup of the
    alternating group, so swapping two points leaves it."""
    rng = random.Random(seed)
    gens = []
    for _ in range(count):
        p = rng.sample(range(degree), degree)
        if sum(p[i] > p[j] for i in range(degree) for j in range(i + 1, degree)) % 2:
            p[0], p[1] = p[1], p[0]
        gens.append(p)
    return PermutationGroup(degree, gens)


@pytest.mark.parametrize(
    "build",
    [
        lambda: automorphism_group(build_Q4(2)),
        lambda: automorphism_group(build_grid(2)),
        _section_image,
        # the search's generators, without its base
        lambda: PermutationGroup(24, automorphism_group(build_grid(3)).generators),
        # S3 wr S2 on six of eight points, order 72
        lambda: PermutationGroup(8, [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 0, 3, 4, 5, 6, 7),
                                     (3, 4, 5, 0, 1, 2, 6, 7)]),
        lambda: _random_even_group(7, 2, 1),
        lambda: _random_even_group(6, 3, 4),
    ],
    ids=["Q4_2", "grid2", "section-image", "grid3-unbased", "wreath", "random7", "random6"],
)
def test_chain_against_brute_group(build):
    """Order, membership, listing and pointwise stabilizers of the chain
    against the closure of the generators."""
    G = build()
    oracle = brute_group(G.degree, G.generators)
    assert G.order() == len(oracle)
    assert set(G.elements(cap=len(oracle))) == oracle
    assert all(G.contains(el) for el in oracle)
    rng = random.Random(0)
    swap = (1, 0) + tuple(range(2, G.degree))
    others = [rng.sample(range(G.degree), G.degree) for _ in range(50)]
    others += [tuple(swap[x] for x in el) for el in sorted(oracle)[:50]]
    assert any(tuple(p) not in oracle for p in others)
    assert all(G.contains(p) == (tuple(p) in oracle) for p in others)
    for prefix in ([0], [G.degree - 1], [1, 0, 1], rng.sample(range(G.degree), 3),
                   range(G.degree)):
        H = pointwise_stabilizer(G, prefix)
        fixers = {el for el in oracle if all(el[b] == b for b in prefix)}
        assert H.order() == len(fixers)
        assert set(H.elements(cap=len(fixers))) == fixers


def test_stabilizer_of_empty_set_is_group(q4_2):
    G = automorphism_group(q4_2)
    assert setwise_stabilizer(G, set()).order() == G.order()
    assert setwise_stabilizer(G, range(G.degree)).order() == G.order()


def _check_stabilizer_against_oracle(G, subset, order):
    oracle = brute_setwise_stabilizer(G, subset)
    stab = setwise_stabilizer(G, subset)
    assert len(oracle) == stab.order() == order
    assert all(stab.contains(el) for el in oracle)


@pytest.mark.parametrize(
    "build,order",
    [(lambda: build_Q5_with_Q4(2), 1440), (lambda: build_Q4_with_Q3(3), 1152)],
    ids=["Q4_2-in-Q5_2", "grid3-in-Q4_3"],
)
def test_section_stabilizer_against_oracle(build, order):
    amb, emb = build()
    _check_stabilizer_against_oracle(automorphism_group(amb), _section_domain(amb, emb), order)


def test_small_stabilizers_against_oracle(q4_2):
    G = automorphism_group(q4_2)
    n = q4_2.point_count
    perp = {y for line in q4_2.point_lines[0] for y in q4_2.lines[line]}
    for subset in ({0}, {n}, perp, set(q4_2.lines[0]) | {n}):
        _check_stabilizer_against_oracle(G, subset, 48)


def test_stabilizer_needs_the_full_group(q4_2):
    G = automorphism_group(q4_2)
    H = pointwise_stabilizer(G, [0])
    with pytest.raises(HypothesisError):
        setwise_stabilizer(H, set())  # no geometry attached
    H.geometry = q4_2
    with pytest.raises(HypothesisError):
        setwise_stabilizer(H, set())  # Aut(Q(4,2)) leaves the point stabilizer
    assert setwise_stabilizer(H, {0}).order() == 48  # Stab({0}) lies inside H
    for bad in ({-1}, {G.degree}):
        with pytest.raises(ValueError):
            setwise_stabilizer(G, bad)


def test_induced_action_on_derived(pair_q2, q5q4_2):
    amb, emb = q5q4_2
    G = automorphism_group(amb)
    stab = setwise_stabilizer(G, _section_domain(amb, emb))
    act = induced_action_on_derived(stab, pair_q2)
    assert act.group.order() == stab.order() // 2  # kernel of order 2
    assert act.kernel_order == 2 and act.faithful_modulo_kernel


def test_two_ways_q2(pair_q2):
    rep = compare_derived_automorphisms(pair_q2)
    assert rep.equal and rep.direct_order == 720


def test_two_ways_requires_hypotheses(pair_h):
    with pytest.raises(HypothesisError):
        compare_derived_automorphisms(pair_h)
    rep = compare_derived_automorphisms(pair_h, allow_any_theta=True)
    assert rep.direct_order >= 1  # reported, not asserted


def test_identity_extension_and_eta_bijection(q5q4_2):
    _amb, emb = q5q4_2
    rep = extend_automorphism(emb, Permutation.identity(emb.substructure))
    assert len(rep.extensions) == 2 and rep.kernel_order == 2
    # eta: left multiplication by one extension maps the kernel onto the
    # extension set of any extendable automorphism
    G = automorphism_group(emb.substructure)
    phi = G.geometry_generators[0]
    rep2 = extend_automorphism(emb, phi)
    assert len(rep2.extensions) in (0, rep2.kernel_order)
    if rep2.extensions:
        kernel_maps = {k.point_images for k in rep.extensions}
        base = rep2.extensions[0]
        translated = {
            base.compose_with(k).point_images
            for k in rep.extensions
        }
        assert translated == {e.point_images for e in rep2.extensions} or {
            k.compose_with(base).point_images for k in rep.extensions
        } == {e.point_images for e in rep2.extensions}
        assert len(kernel_maps) == 2


def test_grid2_all_automorphisms_extend():
    _amb, emb = build_Q4_with_Q3(2)
    G = automorphism_group(emb.substructure)
    for el in G.elements(cap=100):
        phi = Permutation.from_domain_perm(emb.substructure, el)
        rep = extend_automorphism(emb, phi, mode="find_one", compute_kernel=False)
        assert rep.extensions, "an automorphism of grid(2) failed to extend"


def test_grid3_extension_index_two():
    """Exactly half of the 1152 grid automorphisms extend at s = 3: the
    extendable ones preserve the 12-element subtended-ovoid family."""
    _amb, emb = build_Q4_with_Q3(3)
    G = automorphism_group(emb.substructure)
    extendable = 0
    for el in G.elements(cap=2000):
        phi = Permutation.from_domain_perm(emb.substructure, el)
        rep = extend_automorphism(emb, phi, mode="find_one", compute_kernel=False)
        extendable += bool(rep.extensions)
    assert G.order() == 1152
    assert extendable == 576


def test_grid4_has_nonextendable_generator():
    _amb, emb = build_Q4_with_Q3(4)
    G = automorphism_group(emb.substructure)
    assert G.order() == 28800
    missing = 0
    for gen in G.geometry_generators:
        rep = extend_automorphism(emb, gen, mode="find_one", compute_kernel=False)
        missing += not rep.extensions
    assert missing >= 1


def test_higher_decomposition_q2(pair_q2):
    group = automorphism_group(pair_q2.E)
    rng = random.Random(0)
    alpha = Permutation.from_domain_perm(pair_q2.E, group.random_element(rng))
    gamma = pair_q2.pi.compose_perm_after(alpha.point_images, alpha.line_images)
    rep = higher_decomposition_check(pair_q2, cover=gamma)
    assert rep.verdict
    assert rep.cover_lift is not None


def test_elements_listing_cap(q4_2):
    G = automorphism_group(q4_2)
    els = G.elements()  # order 720 < cap
    assert len(els) == 720
    with pytest.raises(BudgetExceeded):
        G.elements(cap=100)


def test_full_group_node_budget(q5q4_3):
    amb, _emb = q5q4_3
    with pytest.raises(BudgetExceeded, match="exceeded 50 nodes: visited 51"):
        automorphism_group(amb, node_budget=50)


@pytest.mark.slow
def test_q5_4_group_order():
    """|Aut(Q(5,4))| = |PGammaO^-(6,4)| = 4,073,472,000."""
    G = automorphism_group(build_Q5(4), node_budget=2_000_000)
    assert G.order() == 4_073_472_000


@pytest.mark.slow
def test_derived_group_order_q5():
    """No point cap: Aut(E) of the q = 5 pair, on 300 points, has the order
    of Aut(Q(4,5))."""
    pair = build_derived_pair(build_Q5_with_Q4(5)[1])
    assert pair.E.point_count == 300
    assert automorphism_group(pair.E).order() == 9_360_000


def test_node_budget_reports_progress(q4_2):
    with pytest.raises(BudgetExceeded) as err:
        automorphism_group(q4_2, node_budget=3)
    msg = str(err.value)
    assert "visited 4" in msg
    assert re.search(r"deepest level [1-9]", msg)
    assert re.search(r"\d+ generators found", msg)


def _checked_refinements(g, v=None):
    """Refined color partition of the structure graph of g, and the refined
    child after individualizing v (by default the least vertex of the first
    smallest non-singleton cell), both checked against the oracle."""
    adj, colors = _structure_graph(g)
    classes = [[x for x in range(len(adj)) if colors[x] == c] for c in sorted(set(colors))]
    part = _color_partition(adj, colors)
    cells = _cells(part)
    assert brute_is_equitable(adj, cells) and brute_refines(cells, classes)
    if v is None:
        v = min(min((c for c in cells if len(c) > 1), key=len))
    split = []
    for c in cells:
        split += [[v], [x for x in c if x != v]] if v in c else [c]
    child = _cells(_individualize(adj, part, v))
    assert brute_is_equitable(adj, child) and brute_refines(child, split)
    return cells, v, child


@pytest.mark.parametrize(
    "build,order",
    [(lambda: build_grid(3), 1152), (lambda: build_Q4(2), 720), (lambda: build_Q4(3), 51840)],
    ids=["grid3", "Q4_2", "Q4_3"],
)
def test_refinement_equitable_and_relabelling_invariant(build, order):
    """Refinement commutes with relabelling: under a seeded relabelling of
    the points (lines follow), the refined partition and the child after
    individualizing the corresponding vertex are the relabelled originals."""
    g = build()
    cells, v, child = _checked_refinements(g)
    assert automorphism_group(g).order() == order
    n = g.point_count
    for seed in range(3):
        pi = list(range(n))
        random.Random(seed).shuffle(pi)
        h = IncidenceStructure(n, [[pi[p] for p in line] for line in g.lines])
        vmap = pi + [n + h.line_index[tuple(sorted(pi[p] for p in line))] for line in g.lines]
        h_cells, _v, h_child = _checked_refinements(h, vmap[v])
        assert [len(c) for c in h_cells] == [len(c) for c in cells]
        assert [len(c) for c in h_child] == [len(c) for c in child]
        assert [set(c) for c in h_cells] == [{vmap[x] for x in c} for c in cells]
        assert [set(c) for c in h_child] == [{vmap[x] for x in c} for c in child]
        assert automorphism_group(h).order() == order


def test_refinement_equitable_on_random_graphs():
    """Irregular two-colored graphs, where a fragment left out of the
    splitter queue wrongly would leave the partition unequitable."""
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(5, 14)
        adj = [set() for _ in range(n)]
        for _ in range(rng.randrange(n, 3 * n)):
            a, b = rng.sample(range(n), 2)
            adj[a].add(b)
            adj[b].add(a)
        colors = [rng.randrange(2) for _ in range(n)]
        part = _color_partition(adj, colors)
        assert brute_is_equitable(adj, _cells(part))
        for v in range(n):
            if part[2][part[1][v]] > 1:
                child = _cells(_individualize(adj, part, v))
                assert brute_is_equitable(adj, child)
                assert brute_refines(child, _cells(part))


def test_grid4_stabilizer_image_order():
    """Full-group route for the s=4 case: the grid stabilizer in Aut(Q(4,4))
    induces an image of order 14400 = (s+1)^2 s^2 (s-1)^2 * 2h < 28800."""
    amb, emb = build_Q4_with_Q3(4)
    G = automorphism_group(amb, node_budget=2_000_000)
    assert G.order() == 1958400
    stab = setwise_stabilizer(G, _section_domain(amb, emb))
    act = induced_action_on_sub(stab, emb)
    assert act.group.order() == 14400 < 28800
    assert act.kernel_order == 1  # even characteristic: no elementwise fixer


def test_induced_action_faithful_q3(q5q4_3, pair_q3):
    """Build the section stabilizer from lifted subquadrangle generators plus
    the elementwise kernel; its action on the derived geometry must be
    faithful exactly modulo that kernel."""
    _amb, emb = q5q4_3
    G_sub = automorphism_group(emb.substructure)
    lifted = []
    for gen in G_sub.geometry_generators:
        rep = extend_automorphism(emb, gen, mode="find_one", compute_kernel=False)
        assert rep.extensions, "subquadrangle generator failed to lift"
        lifted.append(rep.extensions[0].domain_perm())
    ident = extend_automorphism(emb, Permutation.identity(emb.substructure))
    assert len(ident.extensions) == 2  # kernel of order 2
    lifted.extend(e.domain_perm() for e in ident.extensions)
    stab = PermutationGroup(emb.ambient.point_count + emb.ambient.line_count, lifted)
    assert stab.order() == 2 * G_sub.order()
    act = induced_action_on_derived(stab, pair_q3)
    assert act.kernel_order == 2
    assert act.faithful_modulo_kernel
    assert act.group.order() == G_sub.order()
