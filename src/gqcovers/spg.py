"""Semipartial geometry verification.

Works on any abstract incidence structure so it can serve as an independent
oracle for derived geometries; it deliberately shares no code with the
rosette construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HypothesisError
from .incidence import _repeated_line_pair

# point x line cells per block of contact counts (8 MB as uint8)
CONTACT_BLOCK_CELLS = 1 << 23


@dataclass(frozen=True)
class SPGParameters:
    s_star: int
    t_star: int
    alpha_star: int
    mu_star: int

    def as_tuple(self):
        return (self.s_star, self.t_star, self.alpha_star, self.mu_star)


@dataclass(frozen=True)
class SPGFailure:
    axiom: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class SPGReport:
    parameters: Optional[SPGParameters]
    failure: Optional[SPGFailure]
    mu_vacuous: bool  # no non-collinear point pairs exist
    alpha_vacuous: bool  # no non-incident pair with a positive contact count

    @property
    def ok(self):
        return self.failure is None


def verify_spg(E, expected: Optional[SPGParameters] = None) -> SPGReport:
    """Measure the four semipartial-geometry parameters and check the axioms:
    constant line size, constant point degree, at most one line through two
    points, zero-or-constant contacts from a point to a non-incident line,
    and a constant number of common neighbours over non-collinear pairs.

    When a parameter has no witnesses (a complete collinearity graph leaves
    the common-neighbour count vacuous) the expected value, if supplied, is
    adopted and flagged vacuous; without an expectation the check fails.
    """
    if E.point_count == 0 or E.line_count == 0:
        raise HypothesisError("semipartial geometry check needs a nonempty structure")
    sizes = {len(line) for line in E.lines}
    if len(sizes) != 1:
        return SPGReport(None, SPGFailure("line_size", (), f"line sizes {sorted(sizes)}"), False, False)
    s_star = sizes.pop() - 1

    degrees = E.point_degrees
    if degrees.min() != degrees.max():
        p = int(degrees.argmin())
        return SPGReport(
            None, SPGFailure("point_degree", (p,), f"point {p} has degree {degrees[p]}"),
            False, False,
        )
    t_star = int(degrees[0]) - 1

    shared = _repeated_line_pair(E)
    if shared is not None:
        return SPGReport(
            None,
            SPGFailure("linearity", shared[:2], "two points on two common lines"),
            False, False,
        )

    # the positive contact counts off the line; the witness is the first
    # (x, L) in line-then-point order that differs from the first one
    alpha_values = set()
    first = alpha_witness = None
    line_pts = E.line_points_array
    step = max(1, CONTACT_BLOCK_CELLS // E.point_count)
    for start in range(0, E.line_count, step):
        lines = np.arange(start, min(start + step, E.line_count))
        counts = E.point_line_collinearity_counts(lines).T
        counts[np.arange(len(lines))[:, None], line_pts[lines]] = 0
        alpha_values.update(np.unique(counts).tolist())
        if first is None and counts.any():
            first = counts.flat[np.flatnonzero(counts)[0]]
        if alpha_witness is None and first is not None:
            other = np.flatnonzero((counts != 0) & (counts != first))
            if other.size:
                i, x = divmod(int(other[0]), E.point_count)
                alpha_witness = (x, int(lines[i]))
    alpha_values.discard(0)
    if len(alpha_values) > 1:
        return SPGReport(
            None,
            SPGFailure("alpha", alpha_witness, f"contact counts {sorted(alpha_values)}"),
            False, False,
        )
    alpha_vacuous = not alpha_values
    if alpha_vacuous:
        if expected is None:
            return SPGReport(
                None, SPGFailure("alpha", (), "no positive contact count exists"),
                False, True,
            )
        alpha_star = expected.alpha_star
    else:
        alpha_star = alpha_values.pop()

    coll = E.collinearity
    strict = coll.copy()
    np.fill_diagonal(strict, False)
    noncoll = ~coll
    mu_values = set()
    mu_witness = None
    pairs = np.argwhere(np.triu(noncoll, 1))
    for x, y in pairs:
        c = int((strict[x] & strict[y]).sum())
        mu_values.add(c)
        if len(mu_values) > 1:
            mu_witness = (int(x), int(y))
            break
    if len(mu_values) > 1:
        return SPGReport(
            None,
            SPGFailure("mu", mu_witness, f"common-neighbour counts {sorted(mu_values)}"),
            False, False,
        )
    mu_vacuous = not mu_values
    if mu_vacuous:
        if expected is None:
            return SPGReport(
                None, SPGFailure("mu", (), "no non-collinear pairs exist"), True, alpha_vacuous
            )
        mu_star = expected.mu_star
    else:
        mu_star = mu_values.pop()
        if mu_star == 0:
            return SPGReport(
                None, SPGFailure("mu", (), "non-collinear pair with no common neighbour"),
                False, alpha_vacuous,
            )

    params = SPGParameters(s_star, t_star, alpha_star, mu_star)
    if expected is not None and params != expected:
        return SPGReport(
            params,
            SPGFailure("expectation", (), f"measured {params.as_tuple()} differs from "
                                          f"expected {expected.as_tuple()}"),
            mu_vacuous, alpha_vacuous,
        )
    return SPGReport(params, None, mu_vacuous, alpha_vacuous)


@dataclass(frozen=True)
class GateReport:
    t_prime_not_one: bool
    t_equals_s_tprime: bool
    theta_square_identity: bool
    uniform_theta_above_one: bool

    @property
    def passes(self):
        return (
            self.t_prime_not_one
            and self.t_equals_s_tprime
            and self.theta_square_identity
            and self.uniform_theta_above_one
        )


def hypothesis_gate(emb, census) -> GateReport:
    """The semipartial-geometry hypotheses: t' != 1, t = s t',
    (theta - 1) t = s^2, with a uniform census above 1."""
    from .incidence import gq_order

    s, t = gq_order(emb.ambient)
    if emb.sub_order is None:
        raise HypothesisError("gate needs a quadrangle subgeometry")
    tprime = emb.sub_order.t
    uniform = census.uniform and (census.theta or 0) > 1
    theta = census.theta if census.uniform else None
    return GateReport(
        t_prime_not_one=tprime != 1,
        t_equals_s_tprime=t == s * tprime,
        theta_square_identity=(theta is not None and (theta - 1) * t == s * s),
        uniform_theta_above_one=uniform,
    )


def expected_parameters(emb, census) -> SPGParameters:
    """The parameter tuple the derived geometry must realize when the gate
    passes: line size s, degree t+1, contact theta, and theta*(t - t')
    common neighbours."""
    from .incidence import gq_order

    s, t = gq_order(emb.ambient)
    tprime = emb.sub_order.t
    theta = census.theta
    return SPGParameters(s - 1, t, theta, theta * (t - tprime))
