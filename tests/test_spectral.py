import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusbundles import (
    SL2Z,
    TorusBundle,
    ValidationError,
    betti,
    e2_ranks,
    fiber_class_via_spectral,
    fixed_sublattice,
    fox_boundary_matrices,
    integer_kernel,
    is_symplectic,
    rank,
)
from torusbundles import IntMatrix, cokernel_structure

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    columns,
    conjugate,
    random_arbitrary_monodromy,
    random_mirrored_monodromy,
    random_sl2z,
    random_valid_monodromy,
    reference_fox_matrices,
    relation_sublattice,
    sl2z_with_column,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


class TestBoundaryMatrices:
    def test_rejects_monodromy_that_is_not_sl2z(self):
        # the Fox matrices are built from the entries without a second check, so only SL2Z values get in
        with pytest.raises(ValueError, match="SL2Z"):
            fox_boundary_matrices(2, [[[1, 0], [0, 1]]] * 4)

    @pytest.mark.parametrize("op", [fox_boundary_matrices, e2_ranks])
    def test_rejects_a_monodromy_count_or_genus_the_bundle_type_rejects(self, op):
        with pytest.raises(ValidationError, match=r"^monodromy has 3 matrices, expected 2\*genus = 4$"):
            op(2, (IDENTITY,) * 3)
        with pytest.raises(ValidationError, match=r"^genus 1 is below the supported range \(need g >= 2\)$"):
            op(1, (IDENTITY,) * 2)

    def test_trivial_monodromy_gives_zero_maps(self):
        d2, d1 = fox_boundary_matrices(2, (IDENTITY,) * 4)
        assert d1.is_zero()
        assert d2.is_zero()
        assert (d1.rows, d1.cols) == (2, 8)
        assert (d2.rows, d2.cols) == (8, 2)

    def test_unipotent_blocks(self):
        d2, d1 = fox_boundary_matrices(2, (UPPER, IDENTITY, IDENTITY, IDENTITY))
        # D1 carries a single nonzero block at the first generator slot
        assert d1.entries == ((0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0))
        # D2 carries a single nonzero block at the second (partner) slot
        assert d2.entries == (
            (0, 0),
            (0, 0),
            (0, 1),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
        )

    def test_chain_condition_on_valid_tuples(self):
        rng = random.Random(2718)
        for _ in range(120):
            g = rng.choice([2, 2, 3])
            monodromy = random_valid_monodromy(rng, g, max_len=6)
            d2, d1 = fox_boundary_matrices(g, monodromy)
            assert (d1 @ d2).is_zero()

    def test_kernel_of_d2_is_the_fixed_lattice(self):
        rng = random.Random(1618)
        for _ in range(80):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            d2, _ = fox_boundary_matrices(g, monodromy)
            b = bundle(monodromy, genus=g)
            fixed = fixed_sublattice(b)
            kernel = integer_kernel(d2)
            assert kernel.cols == fixed.rank
            assert set(columns(kernel)) == set(fixed.basis)

    def test_rank_identities_against_the_lattices(self):
        rng = random.Random(4242)
        for _ in range(80):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            d2, d1 = fox_boundary_matrices(g, monodromy)
            b = bundle(monodromy, genus=g)
            stacked = IntMatrix([row for m in monodromy for row in ((m.a - 1, m.b), (m.c, m.d - 1))])
            assert rank(d1) == relation_sublattice(b).rank
            assert rank(d2) == rank(stacked)

    def test_coinvariants_match_the_relation_presentation(self):
        rng = random.Random(4243)
        for _ in range(60):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            _, d1 = fox_boundary_matrices(g, monodromy)
            relation_matrix = IntMatrix(
                [[x for m in monodromy for x in (m.a - 1, m.b)], [x for m in monodromy for x in (m.c, m.d - 1)]]
            )
            assert cokernel_structure(d1) == cokernel_structure(relation_matrix)


class TestE2Ranks:
    def test_trivial_coefficient_rows(self):
        ranks = e2_ranks(2, (UPPER, IDENTITY, IDENTITY, IDENTITY))
        assert ranks.rank_e00 == ranks.rank_e02 == ranks.rank_e20 == ranks.rank_e22 == 1
        assert ranks.rank_e10 == 4

    def test_rank_e11_examples(self):
        assert e2_ranks(2, (IDENTITY,) * 4).rank_e11 == 8
        assert e2_ranks(2, (UPPER, IDENTITY, IDENTITY, IDENTITY)).rank_e11 == 6
        assert e2_ranks(2, (ROTATION, IDENTITY, IDENTITY, IDENTITY)).rank_e11 == 4

    def test_invariant_coinvariant_ranks(self):
        ranks = e2_ranks(2, (UPPER, IDENTITY, IDENTITY, IDENTITY))
        assert ranks.rank_e01 == 1  # coinvariants
        assert ranks.rank_e21 == 1  # invariants

    def test_euler_characteristic_identity(self):
        rng = random.Random(97)
        for _ in range(60):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            ranks = e2_ranks(g, monodromy)
            assert ranks.rank_e11 == ranks.rank_e01 + ranks.rank_e21 + 2 * (2 * g - 2)
            fixed_rank = fixed_sublattice(bundle(monodromy, genus=g)).rank
            assert ranks.rank_e21 == fixed_rank

    def test_conjugation_invariance(self):
        rng = random.Random(98)
        for _ in range(40):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            p = random_sl2z(rng, 4)
            conjugated = tuple(conjugate(m, p) for m in monodromy)
            assert e2_ranks(g, monodromy) == e2_ranks(g, conjugated)


class TestFiberClassViaSpectral:
    def test_flat_bundles_always_pass(self):
        rng = random.Random(303)
        for _ in range(60):
            g = rng.choice([2, 3])
            b = bundle(random_valid_monodromy(rng, g), genus=g)
            assert fiber_class_via_spectral(b)

    def test_unipotent_transverse_euler_fails(self):
        assert not fiber_class_via_spectral(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(0, 1)))

    def test_rotation_any_euler_passes(self):
        assert fiber_class_via_spectral(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY], euler=(5, 7)))

    def test_b2_matches_corner_sum_for_flat_bundles(self):
        rng = random.Random(304)
        for _ in range(40):
            g = rng.choice([2, 3])
            b = bundle(random_valid_monodromy(rng, g), genus=g)
            ranks = e2_ranks(g, b.monodromy)
            _, b2 = betti(b)
            assert b2 == ranks.rank_e20 + ranks.rank_e11 + ranks.rank_e02


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 6),
    st.booleans(),
    st.integers(0, 2**32),
    st.integers(-(10**50), 10**50),
    st.integers(-(10**50), 10**50),
)
# random draws rarely exceed 2**64, so two examples pin conjugators with entries at 10**50
@example(g=6, valid=True, seed=1, a=10**50, c=10**50 - 1)
@example(g=5, valid=False, seed=2, a=-(10**50), c=7 * 10**49 + 3)
def test_fox_matrices_match_the_reference_walk(g, valid, seed, a, c):
    """D2 and D1 equal the plain walk that inverts a matrix at every positive letter, on relation-satisfying
    and arbitrary tuples conjugated by a matrix with entries up to 10**50."""
    draw = random_valid_monodromy if valid else random_arbitrary_monodromy
    p = sl2z_with_column(a, c)
    monodromy = tuple(conjugate(m, p) for m in draw(random.Random(seed), g))
    d2, d1 = fox_boundary_matrices(g, monodromy)
    assert (d2.entries, d1.entries) == reference_fox_matrices(g, monodromy)


@pytest.mark.parametrize("valid", [True, False])
@pytest.mark.parametrize("g", [16, 32])
def test_fox_matrices_match_the_reference_walk_above_genus_6(g, valid):
    """The hypothesis test above draws g <= 6; seeded draws hold the walk to the reference at g = 16 and 32,
    plain and conjugated by a matrix with entries near 10**50."""
    draw = random_valid_monodromy if valid else random_arbitrary_monodromy
    rng = random.Random(1000 * g + valid)
    for p in (IDENTITY, IDENTITY, sl2z_with_column(10**50, 10**50 - 1)):
        monodromy = tuple(conjugate(m, p) for m in draw(rng, g))
        d2, d1 = fox_boundary_matrices(g, monodromy)
        assert (d2.entries, d1.entries) == reference_fox_matrices(g, monodromy)


def _longest_carried_prefix(monodromy: tuple[SL2Z, ...]) -> int:
    """The most consecutive handles after which the running product of commutators is not the identity."""
    longest = run = 0
    prefix = IDENTITY
    for x, y in zip(monodromy[::2], monodromy[1::2]):
        prefix = prefix * x * y * x.inverse() * y.inverse()
        run = 0 if prefix.is_identity else run + 1
        longest = max(longest, run)
    return longest


def test_fox_matrices_match_the_reference_walk_on_mirrored_tuples():
    """random_valid_monodromy's shapes reset the running commutator product within a handle; mirrored tuples carry
    it across handles, so a walk that mishandles a prefix carried from an earlier handle fails here.  Every draw
    satisfies the relation, so the spectral oracle runs and must agree with the rule."""
    rng = random.Random(3619)
    carried = 0
    for _ in range(400):
        g = rng.randint(2, 9)
        monodromy = random_mirrored_monodromy(rng, g)
        d2, d1 = fox_boundary_matrices(g, monodromy)
        assert (d2.entries, d1.entries) == reference_fox_matrices(g, monodromy)
        euler = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert is_symplectic(TorusBundle(g, monodromy, euler)).cross_checks.spectral_oracle is True
        carried += _longest_carried_prefix(monodromy) >= 2
    assert carried >= 200


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 6), st.integers(0, 4), st.booleans(), st.integers(0, 2**32))
# an edit to this body redraws every derandomized example, so these stay fixed: the first and the last handle
# before a replaced tail, on relation-satisfying and arbitrary tuples
@example(g=2, h=0, valid=True, seed=1)
@example(g=2, h=0, valid=False, seed=2)
@example(g=6, h=4, valid=True, seed=3)
@example(g=6, h=4, valid=False, seed=4)
@example(g=5, h=1, valid=True, seed=5)
def test_d2_rows_up_to_a_handle_ignore_every_later_matrix(g, h, valid, seed):
    """x_j occurs only in its own handle, so D2's rows for the generators of handles 0..h stay the same when
    every matrix after handle h is replaced (here by itself times a random conjugate of UPPER, never equal)."""
    h %= g - 1  # leaves at least one handle after h
    rng = random.Random(seed)
    draw = random_valid_monodromy if valid else random_arbitrary_monodromy
    monodromy = draw(rng, g)
    kept = 2 * (h + 1)  # a_0, b_0, ..., a_h, b_h
    replaced = monodromy[:kept] + tuple(m * conjugate(UPPER, random_sl2z(rng)) for m in monodromy[kept:])
    d2, _ = fox_boundary_matrices(g, monodromy)
    d2_replaced, _ = fox_boundary_matrices(g, replaced)
    assert d2_replaced.entries[: 2 * kept] == d2.entries[: 2 * kept]  # two rows per generator
    assert d2_replaced.entries == reference_fox_matrices(g, replaced)[0]
