import pytest

from gqcovers.constructions import build_Q5_with_Q3
from gqcovers.errors import HypothesisError
from gqcovers.incidence import IncidenceStructure, verify_gq_axioms
from gqcovers.spg import SPGParameters, expected_parameters, hypothesis_gate, verify_spg
from gqcovers.subtension import theta_census

from .oracles import brute_spg_parameters


@pytest.mark.parametrize(
    "pair_name,params",
    [("pair_q2", (1, 4, 2, 4)), ("pair_q3", (2, 9, 2, 12)), ("pair_h", (3, 8, 3, 18))],
)
def test_spg_parameters(pair_name, params, request):
    pair = request.getfixturevalue(pair_name)
    expected = SPGParameters(*params)
    rep = verify_spg(pair.E, expected)
    assert rep.ok
    assert rep.parameters.as_tuple() == params
    # the derived expectation from the embedding data matches
    assert expected_parameters(pair.embedding, pair.census) == expected


def test_spg_against_definition_oracle(pair_q3):
    s, t, a, m = brute_spg_parameters(pair_q3.E)
    rep = verify_spg(pair_q3.E)
    assert rep.parameters.as_tuple() == (s, t, a, m) == (2, 9, 2, 12)


def test_mu_vacuous_at_q2(pair_q2):
    rep = verify_spg(pair_q2.E, SPGParameters(1, 4, 2, 4))
    assert rep.ok and rep.mu_vacuous
    bare = verify_spg(pair_q2.E)
    assert not bare.ok and bare.failure.axiom == "mu"


def test_gate(pair_q2, pair_q3, pair_h):
    for pair in (pair_q2, pair_q3, pair_h):
        assert hypothesis_gate(pair.embedding, pair.census).passes
    for q in (2, 3):
        _amb, emb = build_Q5_with_Q3(q)
        gate = hypothesis_gate(emb, theta_census(emb))
        assert not gate.passes
        assert not gate.t_prime_not_one


def test_alpha_independent_of_witness_line(pair_q3):
    """Recompute the contact count from each witness line of each rosette;
    the answer must not depend on the choice."""
    E = pair_q3.E
    amb = pair_q3.embedding.ambient
    for ridx, rosette in enumerate(pair_q3.rosettes[:20]):
        counts = set()
        for witness in rosette.witness_lines:
            # rosettes through an ovoid off this one realized via this witness
            a_line = pair_q3.a_line_of_ambient[witness]
            assert pair_q3.pi.line_map[a_line] == ridx
            for o in range(E.point_count):
                if o in E.lines[ridx]:
                    continue
                c = sum(
                    1
                    for member in E.lines[ridx]
                    if any(o in E.lines[l] and member in E.lines[l] for l in range(E.line_count))
                )
                counts.add(c)
                break  # one probe point per witness line is enough
        assert len(counts) == 1


def test_failure_witnesses(q4_2):
    broken = IncidenceStructure(15, q4_2.lines[:-1])
    rep = verify_spg(broken)
    assert not rep.ok and rep.failure.axiom == "point_degree"

    two_common = IncidenceStructure(6, [[0, 1, 2], [0, 1, 3], [2, 4, 5], [3, 4, 5]])
    rep2 = verify_spg(two_common)
    assert not rep2.ok and rep2.failure.axiom == "linearity"
    # the witness is the first pair in row-major order: (0, 1) before (4, 5)
    assert rep2.failure.witness == (0, 1)
    res = verify_gq_axioms(two_common)
    assert res.axiom == "c" and res.witness == (0, 1)
    assert res.message == "points 0,1 share 2 lines"

    with pytest.raises(HypothesisError):
        verify_spg(IncidenceStructure(0, []))


def test_expectation_mismatch(pair_q3):
    rep = verify_spg(pair_q3.E, SPGParameters(2, 9, 2, 13))
    assert not rep.ok and rep.failure.axiom == "expectation"
    assert rep.parameters.as_tuple() == (2, 9, 2, 12)
