"""The benchmark's own table of expected values.

Each entry holds the value a correct run must produce and names the test or
acceptance criterion it mirrors.  Where the paper's claim is refuted by the
engine (acceptance criteria 7 and 8), the entry holds the value the engine
proves, so that a correct run fails no check.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Expected:
    value: object
    mirrors: str


# theta-census table: (construction function, q) -> uniform multiplicity theta
THETA_TABLE = {
    ("build_Q5_with_Q4", 2): 2,
    ("build_Q5_with_Q4", 3): 2,
    ("build_Q5_with_Q3", 2): 3,
    ("build_Q5_with_Q3", 3): 4,
    ("build_Q4_with_Q3", 2): 1,
    ("build_Q4_with_Q3", 3): 2,
    ("build_Q4_with_Q3", 4): 1,
    ("build_H4_with_H3", 2): 3,
}

EXPECTED = {
    # constructions and axioms: ambient order, section order
    "axioms.Q5Q4.2": Expected(((2, 4), (2, 2)), "acceptance criterion 1"),
    "axioms.Q5Q4.3": Expected(((3, 9), (3, 3)), "acceptance criterion 1"),
    "axioms.Q5Q4.4": Expected(((4, 16), (4, 4)), "tests/test_constructions.py"),
    "axioms.Q5.5": Expected((5, 25), "tests/test_constructions.py"),
    "axioms.H4H3.2": Expected(((4, 8), (4, 2)), "acceptance criterion 1"),
    # derived pairs: uniform theta, hypothesis gate, SPG parameters (s, t, alpha, mu)
    "spg.Q5Q4.2": Expected((2, True, (1, 4, 2, 4)), "acceptance criterion 5"),
    "spg.Q5Q4.3": Expected((2, True, (2, 9, 2, 12)), "acceptance criterion 5"),
    "spg.H4H3.2": Expected((3, True, (3, 8, 3, 18)), "acceptance criterion 5"),
    "gate.Q5Q3": Expected(False, "acceptance criterion 5 (gate fails on grid sections)"),
    **{
        f"theta.{name}.{q}": Expected(theta, "acceptance criterion 2")
        for (name, q), theta in THETA_TABLE.items()
    },
    # covers at q=2
    "covers.q2": Expected(720, "acceptance criterion 3: 720 covers = |Aut(E)|"),
    "covers.q2.aut_e": Expected(720, "acceptance criterion 3"),
    "covers.q2.canonical_found": Expected(True, "suite lower-q2 cover-enumeration"),
    "covers.q2.factorized": Expected(720, "acceptance criterion 3"),
    "covers.q2.identified": Expected(720, "acceptance criterion 6"),
    "reconstruct.q2": Expected(True, "acceptance criterion 6"),
    "reconstruct.q3": Expected(True, "acceptance criterion 6"),
    # transversal planarity, 100 + 100 seeded samples per pair
    "transversal.Q5Q4.single": Expected(100, "acceptance criterion 7"),
    "transversal.Q5Q4.multi": Expected(0, "acceptance criterion 7"),
    "transversal.H4H3.single": Expected(100, "acceptance criterion 7"),
    # refuted clause: some, but not all, Hermitian multi-line samples are
    # coplanar (about 29%); the check is that the count is strictly inside
    "transversal.H4H3.multi_inside": Expected(
        True, "acceptance criterion 7 erratum (0 < coplanar < 100)"
    ),
    # extension of grid(3) automorphisms into Q(4,3)
    "extension.grid3.order": Expected(1152, "tests/test_autgroup.py::test_grid3_extension_index_two"),
    "extension.grid3.extendable": Expected(
        576, "acceptance criterion 8 erratum; tests/test_autgroup.py::test_grid3_extension_index_two"
    ),
    "higher.q2": Expected(True, "acceptance criterion 9"),
    "higher.q3": Expected(True, "acceptance criterion 9"),
    # groups
    "aut.Q4.4": Expected(1_958_400, "tests/test_autgroup.py::test_grid4_stabilizer_image_order"),
    "aut.Q5.3": Expected(26_127_360, "ROADMAP baseline automorphism_group(Q(5,3))"),
    "aut.Q4.3": Expected(51_840, "PGammaO(5,3); tests/test_autgroup.py"),
    "stab.grid3.order": Expected(1152, "acceptance criterion 8 erratum message"),
    "stab.grid3.image": Expected(576, "acceptance criterion 8 erratum message"),
    "stab.grid3.kernel": Expected(2, "acceptance criterion 8 erratum message"),
    "derived_aut.q2": Expected((True, 720), "acceptance criterion 10"),
    "derived_aut.q3": Expected((True, 51_840), "acceptance criterion 10"),
    # Kantor-Knuth q=9
    "kk.axioms": Expected((9, 81), "acceptance criterion 11"),
    "kk.classical": Expected(False, "acceptance criterion 11"),
    "kk.records": Expected(810, "acceptance criterion 11"),
    "kk.record_census": Expected(
        True, "acceptance criterion 11: doubly subtended or 6480 one-subtended ovoids"
    ),
}
