import json
import os
import random
import re

import pytest

from gqcovers.constructions import build_Q5
from gqcovers.errors import BudgetExceeded, ConsistencyViolation
from gqcovers.gf import field
from gqcovers.incidence import GQOrder, verify_gq_axioms
from gqcovers.kkcensus import (
    census_report,
    enumerate_subgqs_through_line,
    record_census,
    span_closure,
)
from gqcovers.subtension import theta_census

from .oracles import brute_closure, brute_pencils, brute_subgqs_through_line


def test_closure_of_single_line(q5q4_2):
    amb, _emb = q5q4_2
    rep = span_closure(amb, seed_lines=[0])
    assert rep.proper
    assert rep.point_count == 3 and rep.line_count == 1
    assert rep.embedding.sub_order is None  # a single line is not a quadrangle


def test_closure_of_section_is_itself(q5q4_2):
    amb, emb = q5q4_2
    rep = span_closure(amb, seed_points=emb.point_subset)
    assert rep.proper
    assert rep.point_count == 15 and rep.line_count == 15
    assert set(rep.embedding.point_subset) == set(emb.point_subset)


def test_closure_budget(q5q4_2):
    amb, _emb = q5q4_2
    # six seed points already overrun four; their closure is a 9-point grid,
    # which overruns six at the first round with 8 points on 4 lines
    with pytest.raises(BudgetExceeded, match="6 points and 0 lines reached at closure round 0"):
        span_closure(amb, seed_points=range(6), max_points=4)
    with pytest.raises(BudgetExceeded, match="8 points and 4 lines reached at closure round 1"):
        span_closure(amb, seed_points=range(6), max_points=6)
    assert span_closure(amb, seed_points=range(6), max_points=9).point_count == 9


def test_closure_against_oracle(q5q4_2, kk3):
    rng = random.Random(1505)
    for g in (q5q4_2[0], kk3.structure):
        pencils = brute_pencils(g)
        for _ in range(60):
            seed_points = rng.sample(range(g.point_count), rng.randint(0, 3))
            seed_lines = rng.sample(range(g.line_count), rng.randint(not seed_points, 2))
            rep = span_closure(g, seed_points, seed_lines)
            pts, lns = brute_closure(g, seed_points, seed_lines, pencils)
            assert (rep.point_count, rep.line_count) == (len(pts), len(lns))
            assert rep.proper == (len(pts) < g.point_count)
            if rep.proper:
                assert set(rep.embedding.point_subset) == pts
                assert set(rep.embedding.line_subset) == lns


def test_walk_against_oracle(kk3, q53_records):
    kk_recs = enumerate_subgqs_through_line(kk3.structure, kk3.infinity_line)
    for g, line, recs in ((kk3.structure, kk3.infinity_line, kk_recs),
                          (q53_records[0], 0, q53_records[1])):
        found = {frozenset(r.points): frozenset(r.lines) for r in recs}
        assert len(found) == len(recs)
        assert found == brute_subgqs_through_line(g, line)


def test_records_through_a_seed_pair_partition_the_rest(kk3):
    """The identity the walk's covered-pair skip rests on: the q + 1 records
    holding two seed lines contain their grid and partition the points off
    it, so once they are found no closure from the pair can find another.
    A walk that still closes every pair fails the closure count."""
    g, inf, q = kk3.structure, kk3.infinity_line, 3
    log = []
    recs = enumerate_subgqs_through_line(g, inf, log=log.append)
    p1, p2 = g.lines[inf][:2]
    pairs = [(l1, l2) for l1 in g.point_lines[p1] for l2 in g.point_lines[p2]
             if inf not in (l1, l2) and not set(g.lines[l1]) & set(g.lines[l2])]
    assert len(pairs) == q**4
    for l1, l2 in pairs:
        grid = set(span_closure(g, seed_lines=(l1, l2)).embedding.point_subset)
        holding = [set(r.points) for r in recs if {l1, l2} <= set(r.lines)]
        assert len(grid) == (q + 1) ** 2 and len(holding) == q + 1
        assert all(grid <= pts for pts in holding)
        rest = set(range(g.point_count)) - grid
        assert len(rest) == (q + 1) ** 2 * q * (q - 1)
        assert sum(len(pts - grid) for pts in holding) == len(rest)
        assert set().union(*holding) - grid == rest
    closures = int(re.search(r"(\d+) closures", log[-1]).group(1))
    assert closures < len(pairs) + len(recs)


def test_progress_log_line_format(kk3):
    log = []
    enumerate_subgqs_through_line(kk3.structure, kk3.infinity_line, log=log.append)
    line_format = r"pair (\d+)/81: (\d+) subGQs, \d+ closures, \d+\.\d pairs/s, ETA \d+ s"
    assert len(log) == 2 and all(re.fullmatch(line_format, line) for line in log)
    assert re.fullmatch(line_format, log[-1]).group(1, 2) == ("81", "36")


def test_q53_count_differs_from_kk(q53_records):
    _g, recs = q53_records
    assert len(recs) != 810
    assert len(recs) == 36


def test_q53_against_hyperplane_oracle(q53_records):
    """Independent oracle: subquadrangles through the line are exactly the
    40-point nondegenerate hyperplane sections containing it."""
    g, recs = q53_records
    gfq = field(3)
    line_coords = [g.coords[p] for p in g.lines[0]]
    sections = set()
    for h in range(1, 3**6):
        hv = tuple((h // 3**i) % 3 for i in range(6))
        nz = next(i for i, c in enumerate(hv) if c)
        if hv[nz] != 1:
            continue
        if any(gfq.dot(hv, c) != 0 for c in line_coords):
            continue
        sec = frozenset(
            p for p in range(g.point_count) if gfq.dot(hv, g.coords[p]) == 0
        )
        if len(sec) == 40:
            sections.add(sec)
    assert {frozenset(r.points) for r in recs} == sections


def test_q53_records_are_subgqs(q53_records):
    _g, recs = q53_records
    for rec in recs[:4]:
        emb = rec.embedding()
        assert emb.sub_order == GQOrder(3, 3)
        assert emb.flags.is_full and emb.flags.is_geometric_hyperplane
        assert 0 in rec.lines  # the distinguished line


def test_record_census_matches_subtension_module(q53_records):
    _g, recs = q53_records
    rec = recs[0]
    census = record_census(rec, s=3, tprime=3)
    reference = theta_census(rec.embedding())
    assert census == reference.counts == {2: 36}
    assert rec.doubly_subtended and rec.orbit_label == "Omega1"


def test_census_report_classical(q53_records):
    _g, recs = q53_records
    report = census_report(recs)  # no expectations on classical input
    assert report.total == 36
    assert report.omega1 == 36 and report.omega2 == 0
    with pytest.raises(ConsistencyViolation):
        census_report(recs, q=9)


def test_checkpoint_resume(tmp_path):
    g = build_Q5(3)
    ck = tmp_path / "ck"
    with pytest.raises(BudgetExceeded):
        enumerate_subgqs_through_line(g, 0, checkpoint_dir=str(ck), closure_budget=40)
    assert os.path.exists(ck / "progress.jsonl")
    resumed = enumerate_subgqs_through_line(g, 0, checkpoint_dir=str(ck))
    fresh = enumerate_subgqs_through_line(g, 0)
    assert [r.points for r in resumed] == [r.points for r in fresh]


def _readable_checkpoint(path):
    """Pair indices and subquadrangle point sets in the readable prefix of a
    checkpoint: its lines up to the first one that does not parse."""
    done, recs = [], []
    with open(path) as fh:
        for line in fh:
            try:
                item = json.loads(line)
            except json.JSONDecodeError:
                break
            if item["type"] == "pair_done":
                done.append(item["index"])
            else:
                recs.append(tuple(item["points"]))
    return done, recs


def test_checkpoint_torn_tail_resume(kk3, tmp_path):
    """A resume after a torn last line moves the readable prefix forward and
    counts no pair and no subquadrangle twice."""
    g, inf = kk3.structure, kk3.infinity_line
    ck = tmp_path / "ck"
    path = ck / "progress.jsonl"
    enumerate_subgqs_through_line(g, inf, checkpoint_dir=str(ck), pair_range=(0, 20))
    assert sorted(_readable_checkpoint(path)[0]) == list(range(20))
    os.truncate(path, path.stat().st_size - 7)
    assert sorted(_readable_checkpoint(path)[0]) == list(range(19))
    for hi in (40, 60):
        resumed = enumerate_subgqs_through_line(
            g, inf, checkpoint_dir=str(ck), pair_range=(0, hi)
        )
        done, recs = _readable_checkpoint(path)
        assert sorted(done) == list(range(hi))
        assert len(set(recs)) == len(recs)
        fresh = enumerate_subgqs_through_line(g, inf, pair_range=(0, hi))
        assert sorted(recs) == [r.points for r in fresh] == [r.points for r in resumed]


def test_kk3_classical_census(kk3):
    recs = enumerate_subgqs_through_line(kk3.structure, kk3.infinity_line)
    assert len(recs) == 36  # isomorphic to the classical case
    report = census_report(recs)
    assert report.omega1 == 36 and report.omega2 == 0


@pytest.mark.slow
def test_kk9_full_census(kk9_records):
    res, recs = kk9_records
    assert verify_gq_axioms(res.structure) == GQOrder(9, 81)
    report = census_report(recs, q=9)
    assert report.total == 810
    assert report.omega1 == 162 and report.omega2 == 648
    assert set(report.one_subtended_per_omega2) == {6480}


def test_doubling_involution_classical(q53_records):
    from gqcovers.kkcensus import doubling_involution

    _g, recs = q53_records
    census_report(recs)
    inv = doubling_involution(recs[0])
    assert inv is not None
    assert inv.compose_with(inv).point_images == tuple(range(recs[0].ambient.point_count))
    assert all(inv.point_images[p] == p for p in recs[0].points)


@pytest.mark.slow
def test_kk9_involutions_fix_distinguished_line(kk9_records):
    """A doubly subtended record yields a genuine ambient involution fixing
    the record pointwise, hence the distinguished line; records that are not
    doubly subtended admit no such map.  Sampled records also pass the full
    axiom checker at order (9,9)."""
    from gqcovers.kkcensus import doubling_involution

    res, recs = kk9_records
    report = census_report(recs, q=9)
    omega1 = [r for r in recs if r.doubly_subtended]
    omega2 = [r for r in recs if not r.doubly_subtended]
    for rec in omega1[:2]:
        inv = doubling_involution(rec)
        assert inv is not None
        assert inv.line_images[res.infinity_line] == res.infinity_line
        n = res.structure.point_count
        assert inv.compose_with(inv).point_images == tuple(range(n))
    assert doubling_involution(omega2[0]) is None
    for rec in (omega1[0], omega2[0]):
        emb = rec.embedding()
        assert emb.sub_order == GQOrder(9, 9)
        assert emb.flags.is_full and emb.flags.is_geometric_hyperplane
