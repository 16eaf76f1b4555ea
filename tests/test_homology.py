import random

import pytest

from torusbundles import (
    AbelianGroup,
    NotFlatError,
    TorusBundle,
    Trichotomy,
    betti,
    fixed_sublattice,
    h1_circle_bundle,
    h1_total_space,
    trichotomy,
)

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    conjugate_bundle,
    random_arbitrary_monodromy,
    random_sl2z,
    random_valid_bundle,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


TRIVIAL = bundle([IDENTITY] * 4)
UNIPOTENT_FLAT = bundle([UPPER, IDENTITY, IDENTITY, IDENTITY])
ROTATION_FLAT = bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY])


class TestH1TotalSpace:
    def test_trivial_flat(self):
        assert h1_total_space(TRIVIAL) == AbelianGroup(6, ())

    def test_rotation_flat_has_torsion(self):
        assert h1_total_space(ROTATION_FLAT) == AbelianGroup(4, (2,))

    def test_unipotent_with_transverse_euler(self):
        b = bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(0, 1))
        assert h1_total_space(b) == AbelianGroup(4, ())

    def test_conjugation_invariance(self):
        rng = random.Random(21)
        for _ in range(50):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            p = random_sl2z(rng, 4)
            assert h1_total_space(conjugate_bundle(b, p)) == h1_total_space(b)


class TestH1CircleBundle:
    def test_examples(self):
        assert h1_circle_bundle(2, 3) == AbelianGroup(4, (3,))
        assert h1_circle_bundle(2, 0) == AbelianGroup(5, ())
        assert h1_circle_bundle(3, 1) == AbelianGroup(6, ())

    def test_sign_of_euler_number_is_irrelevant(self):
        assert h1_circle_bundle(2, -3) == h1_circle_bundle(2, 3)

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError):
            h1_circle_bundle(1, 3)


class TestBetti:
    def test_examples(self):
        assert betti(TRIVIAL) == (6, 10)
        assert betti(UNIPOTENT_FLAT) == (5, 8)
        assert betti(ROTATION_FLAT) == (4, 6)

    def test_b2_identity_everywhere(self):
        rng = random.Random(33)
        for _ in range(100):
            g = rng.choice([2, 3])
            b = bundle(
                random_arbitrary_monodromy(rng, g),
                euler=(rng.randint(-5, 5), rng.randint(-5, 5)),
                genus=g,
            )
            b1, b2 = betti(b)
            assert b2 == 2 * b1 - 2

    def test_euler_class_drops_rank_by_at_most_one(self):
        rng = random.Random(34)
        for _ in range(100):
            g = rng.choice([2, 3])
            b = bundle(
                random_arbitrary_monodromy(rng, g),
                euler=(rng.randint(-5, 5), rng.randint(-5, 5)),
                genus=g,
            )
            twin_b1, _ = betti(b.flat_twin())
            b1, _ = betti(b)
            assert b1 in (twin_b1, twin_b1 - 1)


class TestTrichotomy:
    def test_three_cases(self):
        assert trichotomy(TRIVIAL) is Trichotomy.TRIVIAL_BUNDLE
        assert trichotomy(UNIPOTENT_FLAT) is Trichotomy.NONTRIVIAL_WITH_CIRCLE_ACTION
        assert trichotomy(ROTATION_FLAT) is Trichotomy.NO_CIRCLE_ACTION

    def test_betti_correspondence(self):
        assert betti(TRIVIAL)[0] == 6
        assert betti(UNIPOTENT_FLAT)[0] == 5
        assert betti(ROTATION_FLAT)[0] == 4

    def test_rejects_non_flat(self):
        with pytest.raises(NotFlatError):
            trichotomy(bundle([IDENTITY] * 4, euler=(0, 1)))

    def test_both_directions_on_random_flat_bundles(self):
        # b1 determines the case and the case determines b1
        expected_b1 = {
            Trichotomy.TRIVIAL_BUNDLE: lambda g: 2 * g + 2,
            Trichotomy.NONTRIVIAL_WITH_CIRCLE_ACTION: lambda g: 2 * g + 1,
            Trichotomy.NO_CIRCLE_ACTION: lambda g: 2 * g,
        }
        rng = random.Random(47)
        for _ in range(200):
            g = rng.choice([2, 3])
            b = bundle(random_arbitrary_monodromy(rng, g), genus=g)
            case = trichotomy(b)
            b1, _ = betti(b)
            assert b1 == expected_b1[case](g)
            assert b1 in (2 * g, 2 * g + 1, 2 * g + 2)


class TestCircleAction:
    def test_euler_class_is_irrelevant(self):
        assert fixed_sublattice(bundle([IDENTITY] * 4, euler=(3, 2))).rank >= 1
        assert fixed_sublattice(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(1, 1))).rank >= 1
        assert fixed_sublattice(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY], euler=(1, 1))).rank == 0
