"""Differential tests against perfbench/reference.py, which computes the same answers with plain integers.

The reference shares no code with the package: the trace-2 fixed-line rule for the fixed lattice, a
parallel-columns rank for b1 and the folded polynomial for the degree-zero value.  It and the input
generator are imported read-only from perfbench/, which is put on sys.path explicitly.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import SL2Z, TorusBundle, is_symplectic, sw4_zero_routes

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import reference  # noqa: E402

_CONJUGATOR = 10**12  # conjugating by (1 + st, s; t, 1) with |s|, |t| up to this gives entries near 10^50
_FREE = 10**25  # (1 + st, s; t, 1) itself, for tuples that mostly violate the surface relation
_EULER = 10**30


def _elementary(s: int, t: int) -> tuple[int, int, int, int]:
    """(1, s; 0, 1) times (1, 0; t, 1)."""
    return (1 + s * t, s, t, 1)


@st.composite
def classified_inputs(draw):
    """(genus, matrices as tuples, Euler class): trivial, unconstrained or relation-satisfying monodromy."""
    genus = draw(st.integers(2, 64))
    family = draw(st.sampled_from(("trivial", "free", "handles", "unipotent")))
    if family == "trivial":
        mats = [reference.IDENTITY] * (2 * genus)
    elif family == "free":
        entry = st.integers(-_FREE, _FREE)
        mats = [_elementary(draw(entry), draw(entry)) for _ in range(2 * genus)]
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        p = _elementary(draw(st.integers(-_CONJUGATOR, _CONJUGATOR)), draw(st.integers(-_CONJUGATOR, _CONJUGATOR)))
        # conjugating every matrix by one p keeps the surface relation
        mats = [
            reference.mul(reference.mul(p, m), reference.inv(p))
            for m in inputs.valid_monodromy(rng, genus, 5, family == "unipotent")
        ]
    fixed_rank, z = reference.fixed_lattice(mats)
    if fixed_rank == 1 and draw(st.booleans()):
        t = draw(st.integers(-_EULER, _EULER))
        euler = (t * z[0], t * z[1])
    else:
        euler = (draw(st.integers(-_EULER, _EULER)), draw(st.integers(-_EULER, _EULER)))
        euler = draw(st.sampled_from((euler, (0, 0), (euler[0], 0))))
    return genus, mats, euler


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(classified_inputs())
def test_classification_matches_the_reference(case):
    genus, mats, euler = case
    report = is_symplectic(TorusBundle(genus, tuple(SL2Z(*m) for m in mats), euler))
    got = {
        "b1": report.b1,
        "b2": report.b2,
        "has_circle_action": report.has_circle_action,
        "symplectic": report.symplectic,
        "betti_oracle": report.cross_checks.betti_oracle,
        "spectral_oracle": report.cross_checks.spectral_oracle,
    }
    assert got == reference.expected_classification(genus, mats, euler)


# |n| stays small while ResidueSet's closure check is cubic in the subgroup order
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 64), st.integers(-_EULER, _EULER), st.integers(-64, 64).filter(bool))
def test_degree_zero_routes_match_the_reference(g, m, n):
    coset, closed = sw4_zero_routes(g, m, n)
    want = reference.sw0_value(g, m, n)
    assert coset == want
    assert closed == (want if reference.closed_form_defined(m, n) else None)
