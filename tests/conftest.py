import pytest

from gqcovers.constructions import (
    QClanSpec,
    build_grid,
    build_H4_with_H3,
    build_kantor_knuth,
    build_Q4,
    build_Q4_with_Q3,
    build_Q5,
    build_Q5_with_Q3,
    build_Q5_with_Q4,
    build_W,
)
from gqcovers.kkcensus import enumerate_subgqs_through_line
from gqcovers.subtension import build_derived_pair


@pytest.fixture(scope="session")
def q5q4_2():
    return build_Q5_with_Q4(2)


@pytest.fixture(scope="session")
def q5q4_3():
    return build_Q5_with_Q4(3)


@pytest.fixture(scope="session")
def h4h3():
    return build_H4_with_H3(2)


@pytest.fixture(scope="session")
def pair_q2(q5q4_2):
    return build_derived_pair(q5q4_2[1])


@pytest.fixture(scope="session")
def pair_q3(q5q4_3):
    return build_derived_pair(q5q4_3[1])


@pytest.fixture(scope="session")
def pair_h(h4h3):
    return build_derived_pair(h4h3[1])


@pytest.fixture(scope="session")
def grid2():
    return build_grid(2)


@pytest.fixture(scope="session")
def q4_2():
    return build_Q4(2)


@pytest.fixture(scope="session")
def kk3():
    return build_kantor_knuth(QClanSpec(q=3, sigma_exp=0, m=2))


@pytest.fixture(scope="session")
def q53_records():
    g = build_Q5(3)
    return g, enumerate_subgqs_through_line(g, 0)


@pytest.fixture(scope="session")
def kk9_records():
    """KK(9) and its 810 subquadrangles through the infinity line: the q=9
    build and enumeration take seconds, so the tests that need it share one
    run."""
    res = build_kantor_knuth(QClanSpec(q=9, sigma_exp=1, m=3))
    recs = enumerate_subgqs_through_line(
        res.structure, res.infinity_line, expected_total=810
    )
    return res, recs
