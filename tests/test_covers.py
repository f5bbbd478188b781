import dataclasses
import random
import re

import pytest

from gqcovers.autgroup import Permutation, automorphism_group, extend_automorphism
from gqcovers.constructions import build_Q4, build_W
from gqcovers.covers import (
    CoverCertificate,
    CoverFailure,
    GeometryMorphism,
    enumerate_covers,
    factorize_lower,
    find_isomorphism,
    identify_reconstructed_hyperplane,
    instance_coplanar,
    reconstruct_from_cover,
    transversal_instances,
    verify_cover,
    verify_initial_object,
    verify_morphism,
)
from gqcovers.errors import BudgetExceeded, ConsistencyViolation, HypothesisError
from gqcovers.incidence import IncidenceStructure

from .oracles import brute_covers


def test_pi_is_a_cover(pair_q2):
    cert = verify_cover(pair_q2.pi)
    assert isinstance(cert, CoverCertificate)
    assert cert.theta == 2


def test_constant_map_is_morphism_not_cover(q4_2):
    x = 0
    li = q4_2.point_lines[x][0]
    const = GeometryMorphism(
        q4_2, q4_2, (x,) * q4_2.point_count, (li,) * q4_2.line_count
    )
    assert verify_morphism(const).ok
    res = verify_cover(const)
    assert isinstance(res, CoverFailure)
    assert res.kind in ("local_point", "local_line")


def test_identity_is_theta_one_cover(pair_q2):
    A = pair_q2.A
    ident = GeometryMorphism(
        A, A, tuple(range(A.point_count)), tuple(range(A.line_count))
    )
    cert = verify_cover(ident)
    assert isinstance(cert, CoverCertificate) and cert.theta == 1


def test_broken_incidence_detected(pair_q2):
    pi = pair_q2.pi
    pm = list(pi.point_map)
    pm[0] = (pm[0] + 1) % pair_q2.E.point_count
    bad = GeometryMorphism(pi.source, pi.target, tuple(pm), pi.line_map)
    res = verify_cover(bad)
    assert isinstance(res, CoverFailure)
    assert res.kind == "not_morphism"


def test_enumerate_covers_q2(pair_q2):
    covs = enumerate_covers(pair_q2.A, pair_q2.E)
    group = automorphism_group(pair_q2.E)
    assert len(covs) == group.order() == 720
    assert pair_q2.pi in covs
    assert len(set(covs)) == len(covs)
    assert covs == sorted(covs, key=lambda c: (c.point_map, c.line_map))


def _cycle(k):
    return IncidenceStructure(k, [(i, (i + 1) % k) for i in range(k)])


@pytest.mark.parametrize("k,j,count", [(6, 3, 6), (9, 3, 6), (6, 6, 12), (6, 4, 0)])
def test_enumerate_covers_vs_brute_force(k, j, count):
    """Covers of a j-cycle by a k-cycle (points with 2-point lines)."""
    src, tgt = _cycle(k), _cycle(j)
    found = {(c.point_map, c.line_map) for c in enumerate_covers(src, tgt)}
    assert found == brute_covers(src, tgt)
    assert len(found) == count


def test_enumerate_covers_empty_for_wrong_target(pair_q2):
    # a 6-point path-like geometry with the wrong shape admits no cover
    other = IncidenceStructure(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
    assert enumerate_covers(pair_q2.A, other) == []


def test_factorize_canonical_is_identity(pair_q2):
    f = factorize_lower(pair_q2, pair_q2.pi)
    assert f.e_point_perm == tuple(range(6))
    assert f.e_line_perm == tuple(range(15))
    assert f.base_point_map == tuple(range(15))
    assert f.orientation == "direct"


def test_factorize_checks_whole_certificate_fibers(pair_q2):
    """The fibers are read from the projection's certificate; a certificate
    whose fibers disagree with pi is refused, not trusted."""
    cert = pair_q2.cover_certificate
    fibers = [list(f) for f in cert.point_fibers]
    fibers[0][-1], fibers[1][-1] = fibers[1][-1], fibers[0][-1]
    forged = dataclasses.replace(cert, point_fibers=tuple(map(tuple, fibers)))
    with pytest.raises(ConsistencyViolation, match="not well defined"):
        factorize_lower(dataclasses.replace(pair_q2, cover_certificate=forged), pair_q2.pi)


def test_factorize_recovers_sampled_automorphism(pair_q3):
    group = automorphism_group(pair_q3.E)
    rng = random.Random(7)
    for _ in range(3):
        alpha = Permutation.from_domain_perm(pair_q3.E, group.random_element(rng))
        gamma = pair_q3.pi.compose_perm_after(alpha.point_images, alpha.line_images)
        f = factorize_lower(pair_q3, gamma)
        assert f.e_point_perm == alpha.point_images
        assert f.e_line_perm == alpha.line_images


def test_all_covers_factorize_exactly(pair_q2):
    covs = enumerate_covers(pair_q2.A, pair_q2.E)
    orientations = set()
    for gamma in covs:
        f = factorize_lower(pair_q2, gamma)
        for p in range(pair_q2.A.point_count):
            assert f.e_point_perm[pair_q2.pi.point_map[p]] == gamma.point_map[p]
        for l in range(pair_q2.A.line_count):
            assert f.e_line_perm[pair_q2.pi.line_map[l]] == gamma.line_map[l]
        orientations.add(f.orientation)
    assert len(orientations) == 1  # one fixed orientation across all covers


def test_initial_object_pairs(pair_q2):
    covs = enumerate_covers(pair_q2.A, pair_q2.E)[:40]
    for i in (0, 3):
        for j in (1, 5):
            rep = verify_initial_object(pair_q2, covs[i], covs[j])
            assert rep.unique
            back = verify_initial_object(pair_q2, covs[j], covs[i])
            inv = [0] * len(rep.point_perm)
            for a, b in enumerate(rep.point_perm):
                inv[b] = a
            assert tuple(inv) == back.point_perm
    same = verify_initial_object(pair_q2, covs[0], covs[0])
    assert same.point_perm == tuple(range(6))


def test_reconstruct_canonical(pair_q2, q5q4_2):
    amb, _emb = q5q4_2
    rec = reconstruct_from_cover(pair_q2, pair_q2.A, pair_q2.pi)
    assert rec.quadrangle.point_count == 27
    assert rec.quadrangle.line_count == 45
    assert find_isomorphism(rec.quadrangle, amb) is not None


def test_reconstruct_rejects_triangles(pair_q2):
    A = pair_q2.A
    # add a line that closes a triangle: two collinear pairs sharing a point
    x = 0
    y = next(p for p in A.perp(x) if p != x)
    z = next(
        p
        for p in A.perp(x)
        if p not in (x, y) and not A.collinearity[p, y] and A.joining_line(x, p) != A.joining_line(x, y)
    )
    tampered = IncidenceStructure(A.point_count, list(A.lines) + [(y, z)])
    gamma = GeometryMorphism(
        tampered, pair_q2.E, pair_q2.pi.point_map, pair_q2.pi.line_map + (0,)
    )
    with pytest.raises(HypothesisError, match="triangle"):
        reconstruct_from_cover(pair_q2, tampered, gamma)


def test_identify_canonical_is_identity(pair_q2):
    rec = reconstruct_from_cover(pair_q2, pair_q2.A, pair_q2.pi)
    ident = identify_reconstructed_hyperplane(pair_q2, rec)
    assert ident.as_sub_permutation == tuple(range(15))


def test_identify_matches_orientation(pair_q2):
    group = automorphism_group(pair_q2.E)
    rng = random.Random(3)
    for _ in range(5):
        alpha = Permutation.from_domain_perm(pair_q2.E, group.random_element(rng))
        gamma = pair_q2.pi.compose_perm_after(alpha.point_images, alpha.line_images)
        f = factorize_lower(pair_q2, gamma)
        rec = reconstruct_from_cover(pair_q2, pair_q2.A, gamma)
        ident = identify_reconstructed_hyperplane(pair_q2, rec)
        assert f.orientation == "direct"
        zeta = f.base_point_map
        inv = [0] * len(zeta)
        for a, b in enumerate(zeta):
            inv[b] = a
        # the identification is the inverse of the base point map here:
        # a star set built at subgeometry point x consists of the cover lines
        # standing (in the ambient) on the point the factorization sends to x
        assert ident.as_sub_permutation == tuple(inv)


def test_transversal_instances_validity(pair_q2):
    insts = transversal_instances(pair_q2, r_values=[1, 2], samples=60, seed=2)
    for inst in insts:
        assert len(inst.transversal_lines) == len(inst.chosen_points) + 1
        assert inst.r in (1, 2)
        assert len(inst.marked_points) >= 3


def test_transversal_planarity_q2(pair_q2):
    ones = transversal_instances(pair_q2, r_values=[1], samples=100, seed=0)
    multi = transversal_instances(pair_q2, r_values=[2], samples=100, seed=0)
    assert all(instance_coplanar(pair_q2, i) for i in ones)
    assert not any(instance_coplanar(pair_q2, i) for i in multi)


def test_find_isomorphism_negative(grid2, q4_2):
    assert find_isomorphism(grid2, q4_2) is None  # different sizes
    other = IncidenceStructure(9, grid2.lines[:-1])
    assert find_isomorphism(other, grid2) is None  # different line counts
    # equal sizes and degrees: W(q) is the dual of Q(4,q), self-dual only for even q
    assert find_isomorphism(build_W(3), build_Q4(3)) is None


def _progress(err):
    """(visited, deepest, points, solutions) from a morphism-search budget error."""
    m = re.search(
        r"visited (\d+) nodes, deepest (\d+) of (\d+) points assigned, "
        r"(\d+) solutions found",
        str(err.value),
    )
    assert m, str(err.value)
    return tuple(int(v) for v in m.groups())


def test_budget_reports_progress_covers(pair_q2):
    with pytest.raises(BudgetExceeded) as err:
        enumerate_covers(pair_q2.A, pair_q2.E, node_budget=100)
    visited, deepest, points, solutions = _progress(err)
    assert visited == 101 and deepest == points == pair_q2.A.point_count
    assert 0 < solutions < 720


def test_budget_reports_progress_isomorphism(q4_2):
    with pytest.raises(BudgetExceeded) as err:
        find_isomorphism(build_W(2), q4_2, node_budget=3)
    visited, deepest, points, solutions = _progress(err)
    assert visited == 4 and 0 < deepest < points == 15 and solutions == 0


def test_budget_reports_progress_extension(q5q4_2):
    amb, emb = q5q4_2
    with pytest.raises(BudgetExceeded) as err:
        extend_automorphism(emb, Permutation.identity(emb.substructure), node_budget=1)
    assert _progress(err) == (2, amb.point_count, amb.point_count, 1)


def test_initial_object_alpha_composition(pair_q2):
    """Connecting the canonical cover to an automorphism-after-projection
    cover recovers exactly that automorphism."""
    group = automorphism_group(pair_q2.E)
    rng = random.Random(11)
    alpha = Permutation.from_domain_perm(pair_q2.E, group.random_element(rng))
    gamma = pair_q2.pi.compose_perm_after(alpha.point_images, alpha.line_images)
    rep = verify_initial_object(pair_q2, pair_q2.pi, gamma)
    assert rep.point_perm == alpha.point_images
    assert rep.line_perm == alpha.line_images
