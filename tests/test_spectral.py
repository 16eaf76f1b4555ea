import random

import pytest

from torusbundles import (
    TorusBundle,
    betti,
    e2_ranks,
    fiber_class_via_spectral,
    fixed_sublattice,
    fox_boundary_matrices,
    integer_kernel,
    rank,
    relation_sublattice,
    surface_relator,
)
from torusbundles import cokernel_structure
from torusbundles.exactla import stack_columns, stack_rows

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    random_sl2z,
    random_valid_monodromy,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


class TestRelator:
    def test_word_shape(self):
        word = surface_relator(2)
        assert word == (1, 2, -1, -2, 3, 4, -3, -4)

    def test_zero_exponent_sums(self):
        for g in (2, 3, 5):
            word = surface_relator(g)
            assert len(word) == 4 * g
            for j in range(1, 2 * g + 1):
                assert sum(1 if x == j else -1 if x == -j else 0 for x in word) == 0


class TestBoundaryMatrices:
    def test_rejects_monodromy_that_is_not_sl2z(self):
        # the Fox matrices are built from the entries without a second check, so only SL2Z values get in
        with pytest.raises(ValueError, match="SL2Z"):
            fox_boundary_matrices(2, [[[1, 0], [0, 1]]] * 4)

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
            assert set(kernel.columns()) == set(fixed.basis)

    def test_rank_identities_against_the_lattices(self):
        rng = random.Random(4242)
        for _ in range(80):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            d2, d1 = fox_boundary_matrices(g, monodromy)
            b = bundle(monodromy, genus=g)
            stacked = stack_rows([m.minus_identity() for m in monodromy])
            assert rank(d1) == relation_sublattice(b).rank
            assert rank(d2) == rank(stacked)

    def test_coinvariants_match_the_relation_presentation(self):
        rng = random.Random(4243)
        for _ in range(60):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g)
            _, d1 = fox_boundary_matrices(g, monodromy)
            relation_matrix = stack_columns([m.minus_identity() for m in monodromy])
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
            conjugated = tuple(m.conjugate(p) for m in monodromy)
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
