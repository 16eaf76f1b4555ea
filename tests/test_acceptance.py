"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them on success).  Tolerances are zero everywhere; the stated runtime
bounds are asserted as part of the criteria.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from torusbundles import (
    AbelianGroup,
    IntMatrix,
    TorusBundle,
    Trichotomy,
    betti,
    e2_ranks,
    fiber_class_via_spectral,
    fixed_sublattice,
    fold_product_poly,
    fox_boundary_matrices,
    h1_circle_bundle,
    h1_total_space,
    is_symplectic,
    snf,
    sw4_zero_closed,
    sw4_zero_coset,
    sw_poly_circle_bundle,
    trichotomy,
)
from torusbundles.cli import run

from support import (
    IDENTITY,
    LOWER,
    ROTATION,
    UPPER,
    random_valid_bundle,
    random_valid_monodromy,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_parity_reproduction(capsys):
    with criterion(1, "parity sweep g 2..20, m,n -20..20"):
        start = time.monotonic()
        code = run(["verify-parity", "--g", "2..20", "--mn", "-20..20", "--format=json"])
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cases"] == 19 * 40 * 40 == 30400
        assert payload["all_even"] is True
        assert payload["counterexamples"] == []
        assert elapsed < 60.0


def test_criterion_2_two_route_polynomial_equality():
    with criterion(2, "direct formula equals folded product coefficients"):
        start = time.monotonic()
        count = 0
        for g in range(2, 9):
            for n in itertools.chain(range(-10, 0), range(1, 11)):
                assert sw_poly_circle_bundle(g, n) == fold_product_poly(g, n), (g, n)
                count += 1
        elapsed = time.monotonic() - start
        assert count == 140
        assert elapsed < 1.0


def test_criterion_3_closed_form_equals_coset_sum():
    with criterion(3, "closed form equals coset evaluation on its parity domain"):
        start = time.monotonic()
        checked = 0
        for g in range(2, 11):
            for m in itertools.chain(range(-12, 0), range(1, 13)):
                for n in itertools.chain(range(-12, 0), range(1, 13)):
                    if n % 2 != 0 or m % 2 == 0:
                        assert sw4_zero_closed(g, m, n) == sw4_zero_coset(g, m, n), (g, m, n)
                        checked += 1
        elapsed = time.monotonic() - start
        assert checked > 0
        assert elapsed < 5.0


def test_criterion_4_classification_triple_agreement():
    with criterion(4, "rule, Betti oracle and spectral oracle agree on 1000 bundles"):
        rng = random.Random(73_031_527)
        start = time.monotonic()
        for _ in range(1000):
            b = random_valid_bundle(rng, rng.choice([2, 3]), euler_bound=5)
            # is_symplectic raises InternalInconsistencyError on any oracle mismatch
            report = is_symplectic(b)
            assert report.cross_checks.betti_oracle is True
            assert report.cross_checks.spectral_oracle is True
            twin_b1 = h1_total_space(b.flat_twin()).free_rank
            assert (twin_b1 == report.b1) == report.symplectic
            assert fiber_class_via_spectral(b) == report.symplectic
            assert report.b2 == 2 * report.b1 - 2
        elapsed = time.monotonic() - start
        assert elapsed < 10.0


def test_criterion_5_trichotomy_exhaustive():
    with criterion(5, "flat trichotomy over all 256 four-letter monodromies at g=2"):
        letters = (IDENTITY, UPPER, LOWER, ROTATION)
        expected_b1 = {
            Trichotomy.TRIVIAL_BUNDLE: 6,
            Trichotomy.NONTRIVIAL_WITH_CIRCLE_ACTION: 5,
            Trichotomy.NO_CIRCLE_ACTION: 4,
        }
        count = 0
        for monodromy in itertools.product(letters, repeat=4):
            b = TorusBundle(2, monodromy, (0, 0))
            b1, b2 = betti(b)
            assert b1 in (4, 5, 6)
            assert b2 == 2 * b1 - 2
            case = trichotomy(b)
            assert b1 == expected_b1[case]
            # both directions: the case is also determined by the fixed lattice
            fixed_rank = fixed_sublattice(b).rank
            assert (case is Trichotomy.TRIVIAL_BUNDLE) == (fixed_rank == 2)
            assert (case is Trichotomy.NONTRIVIAL_WITH_CIRCLE_ACTION) == (fixed_rank == 1)
            assert (case is Trichotomy.NO_CIRCLE_ACTION) == (fixed_rank == 0)
            count += 1
        assert count == 256


def test_criterion_6_fixed_worked_values():
    with criterion(6, "pinned worked values"):
        assert sw4_zero_coset(2, 3, 3) == -2
        assert sw4_zero_closed(2, 3, 3) == -2
        assert sw_poly_circle_bundle(2, 5).coefficients == (-2, 1, 0, 0, 1)
        assert h1_circle_bundle(2, 3) == AbelianGroup(4, (3,))
        rotation_flat = TorusBundle(2, (ROTATION, IDENTITY, IDENTITY, IDENTITY), (0, 0))
        assert h1_total_space(rotation_flat) == AbelianGroup(4, (2,))


def test_criterion_7_structural_property_suites():
    from sympy import Matrix

    with criterion(7, "SNF contract, boundary chain condition, rank identities"):
        rng = random.Random(90125)

        for _ in range(500):
            nr, nc = rng.randint(0, 6), rng.randint(0, 6)
            m = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)], cols=nc
            )
            u, d, v = snf(m)
            assert (u @ m @ v) == d
            assert abs(Matrix(u.entries).det()) == 1
            assert abs(Matrix(v.entries).det()) == 1
            diag = d.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b == 0 if a == 0 else b % a == 0

        for _ in range(200):
            g = rng.choice([2, 3])
            monodromy = random_valid_monodromy(rng, g, max_len=6)
            d2, d1 = fox_boundary_matrices(g, monodromy)
            assert (d1 @ d2).is_zero()
            ranks = e2_ranks(g, monodromy)
            assert ranks.rank_e11 == ranks.rank_e01 + ranks.rank_e21 + 2 * (2 * g - 2)
            bundle = TorusBundle(g, monodromy, (rng.randint(-5, 5), rng.randint(-5, 5)))
            assert ranks.rank_e21 == fixed_sublattice(bundle).rank
            b1, b2 = betti(bundle)
            assert b2 == 2 * b1 - 2
