"""Answers that must not change under operations giving an isomorphic bundle.

Each example runs is_symplectic, so the rule route's Hermite kernel is checked against the oracles'
Smith diagonal on every matrix drawn, before and after the operation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import SL2Z, TorusBundle, betti, h1_total_space, is_symplectic

from support import random_valid_bundle


def _answers(b):
    report = is_symplectic(b)
    return h1_total_space(b), betti(b)[1], report.symplectic, report.rationale[0].rule


@st.composite
def _bundles(draw):
    """A relation-satisfying bundle of genus 2-6 and a Random for the operation, both from one drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    b = random_valid_bundle(rng, rng.randint(2, 6), euler_bound=rng.choice([5, 10**30]))
    return b, rng


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_bundles())
def test_euler_class_matters_only_modulo_the_relation_span(drawn):
    """Adding (A_i - I)x to the Euler class is a column operation on the H1 relation matrix, and every A_i
    fixes the orbit class z, so (A_i - I)x lies on the line of z: H1, b2, verdict and rule all stay."""
    b, rng = drawn
    m, n = b.euler
    for _ in range(rng.randint(1, 3)):
        a = rng.choice(b.monodromy)
        x = (rng.randint(-10**30, 10**30), rng.randint(-7, 7))
        m, n = m + (a.a - 1) * x[0] + a.b * x[1], n + a.c * x[0] + (a.d - 1) * x[1]
    assert _answers(TorusBundle(b.genus, b.monodromy, (m, n))) == _answers(b)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_bundles())
def test_reversing_the_fiber_orientation(drawn):
    """Conjugating every A_i by P = [[0,1],[1,0]] (det -1) and sending the Euler class through P gives the
    same manifold with the other fiber orientation: P*A*P swaps a with d and b with c."""
    b, _ = drawn
    flipped = TorusBundle(b.genus, tuple(SL2Z(a.d, a.c, a.b, a.a) for a in b.monodromy), b.euler[::-1])
    assert _answers(flipped) == _answers(b)
