"""Answers that must not change under operations giving an isomorphic bundle.

Each example runs is_symplectic, so the rule route's Hermite kernel is checked against the oracles'
2x2-minor ranks on every matrix drawn, before and after the operation.  Each property runs on genus
2-6, and under --runslow also on genus 20-50.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import (
    SL2Z,
    TorusBundle,
    betti,
    e2_ranks,
    h1_total_space,
    is_symplectic,
    relation_sublattice,
)

from support import random_valid_bundle


def _answers(b):
    report = is_symplectic(b)
    return h1_total_space(b), betti(b)[1], report.symplectic, report.rationale[0].rule


@st.composite
def _bundles(draw, low=2, high=6):
    """A relation-satisfying bundle of genus low-high and a Random for the operation, both from one drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    b = random_valid_bundle(rng, rng.randint(low, high), euler_bound=rng.choice([5, 10**30]))
    return b, rng


def _at_genus_20_to_50(test):
    """The property that test checks, as a slow test of 20 examples on genus 20-50."""
    slow = settings(max_examples=20, derandomize=True, database=None, deadline=None)
    return pytest.mark.slow(slow(given(_bundles(20, 50))(test.hypothesis.inner_test)))


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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_bundles())
def test_nielsen_moves_on_the_base(drawn):
    """A Dehn twist on the base acts on its generators by a Nielsen move, B_i -> B_i A_i or A_i -> A_i B_i;
    pulling the bundle back along the twist gives a diffeomorphic total space with the moved monodromy.

    How (m, n) is carried: the total space's group is generated by lifts a~_i, b~_i of the base generators
    and the fiber Z^2, with the relator lifting to prod [a~_i, b~_i] = (m, n).  The moves are the free-group
    identities [a, ba] = a b a a^-1 a^-1 b^-1 = [a, b] and [ab, b] = a b b b^-1 a^-1 b^-1 = [a, b], so the
    moved lifts satisfy the same lifted relator word for word: (m, n) is carried unchanged, not merely
    modulo the relation span.  That span {(A_i - I)x} is unchanged too, since B_i = (B_i A_i) A_i^-1 and
    A_i = (A_i B_i) B_i^-1 keep the image group.  So H1 with its torsion, b2, the verdict, the rule and
    rank E11 (the twisted H1 of the base, which an automorphism of the group preserves) all stay.
    """
    b, rng = drawn
    mats = list(b.monodromy)
    for _ in range(rng.randint(1, 4)):
        i = 2 * rng.randrange(b.genus)
        a, bb = mats[i], mats[i + 1]
        mats[i : i + 2] = (a, bb * a) if rng.random() < 0.5 else (a * bb, bb)
    moved = TorusBundle(b.genus, tuple(mats), b.euler)
    assert moved.surface_relation_holds()
    assert relation_sublattice(moved) == relation_sublattice(b)
    assert _answers(moved) == _answers(b)
    assert e2_ranks(b.genus, moved.monodromy).rank_e11 == e2_ranks(b.genus, b.monodromy).rank_e11


test_euler_class_matters_only_modulo_the_relation_span_at_genus_20_to_50 = _at_genus_20_to_50(
    test_euler_class_matters_only_modulo_the_relation_span
)
test_reversing_the_fiber_orientation_at_genus_20_to_50 = _at_genus_20_to_50(test_reversing_the_fiber_orientation)
test_nielsen_moves_on_the_base_at_genus_20_to_50 = _at_genus_20_to_50(test_nielsen_moves_on_the_base)
