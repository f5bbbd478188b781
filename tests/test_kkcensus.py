import json
import os

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
    # two points plus a full pencil forces growth beyond two points
    with pytest.raises(BudgetExceeded):
        span_closure(amb, seed_points=range(6), max_points=4)


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
