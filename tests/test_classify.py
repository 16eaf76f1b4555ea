import random

import pytest

from torusbundles import (
    AbelianGroup,
    E2Ranks,
    IntMatrix,
    InternalInconsistencyError,
    ProductH1Class,
    ProductH2Class,
    TorusBundle,
    cokernel_structure,
    conjugate_bundle,
    e2_ranks,
    cup_product_annihilator,
    fiber_class_nonzero,
    fiber_class_via_spectral,
    h1_total_space,
    integer_kernel,
    invariant_symplectic_exists,
    is_symplectic,
    snf,
    thurston_norm_product,
)
from torusbundles import exactla

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    count_calls,
    random_sl2z,
    random_valid_bundle,
    replace_everywhere,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


class TestFiberClass:
    def test_trivial_bundle(self):
        assert fiber_class_nonzero(bundle([IDENTITY] * 4))

    def test_nontrivial_principal(self):
        assert not fiber_class_nonzero(bundle([IDENTITY] * 4, euler=(1, 1)))

    def test_euler_multiple_of_orbit_class(self):
        assert fiber_class_nonzero(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(2, 0)))

    def test_no_circle_action_any_euler(self):
        assert fiber_class_nonzero(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY], euler=(3, 4)))


class TestIsSymplectic:
    def test_principal_mixed_euler(self):
        report = is_symplectic(bundle([IDENTITY] * 4, euler=(2, 3)))
        assert not report.symplectic
        assert report.rationale[0].rule == "principal-both-euler-components-nonzero"
        assert report.cross_checks.betti_oracle
        assert report.cross_checks.spectral_oracle

    def test_principal_axis_euler(self):
        report = is_symplectic(bundle([IDENTITY] * 4, euler=(3, 0)))
        assert not report.symplectic
        assert report.rationale[0].rule == "principal-one-euler-component-zero"

    def test_rotation_monodromy_any_euler(self):
        report = is_symplectic(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY], euler=(5, 7)))
        assert report.symplectic
        assert report.rationale[0].rule == "no-fiber-circle-action"

    def test_unipotent_transverse_euler(self):
        report = is_symplectic(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(0, 1)))
        assert not report.symplectic
        assert report.rationale[0].rule == "euler-not-multiple-of-orbit-class"
        assert report.b1 == 4

    def test_report_invariants(self):
        report = is_symplectic(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(2, 0)))
        assert report.symplectic == report.fiber_class_nonzero
        assert report.b2 == 2 * report.b1 - 2
        assert report.cross_checks.all_pass()

    def test_principal_specialization(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                report = is_symplectic(bundle([IDENTITY] * 4, euler=(m, n)))
                assert report.symplectic == ((m, n) == (0, 0))

    def test_triple_agreement_on_random_bundles(self):
        rng = random.Random(20240601)
        for _ in range(300):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            report = is_symplectic(b)  # raises InternalInconsistencyError on any disagreement
            assert report.cross_checks.betti_oracle
            assert report.cross_checks.spectral_oracle is True
            twin_b1 = h1_total_space(b.flat_twin()).free_rank
            assert (twin_b1 == report.b1) == report.symplectic
            assert fiber_class_via_spectral(b) == report.symplectic

    def test_verdicts_invariant_under_basis_change(self):
        rng = random.Random(606)
        for _ in range(60):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            p = random_sl2z(rng, 4)
            moved = conjugate_bundle(b, p)
            r1, r2 = is_symplectic(b), is_symplectic(moved)
            assert r1.symplectic == r2.symplectic
            assert r1.has_circle_action == r2.has_circle_action
            assert (r1.b1, r1.b2) == (r2.b1, r2.b2)

    def test_each_h1_is_reduced_once(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(2, 0))
        assert b.surface_relation_holds()  # so the spectral oracle runs too
        calls = count_calls(monkeypatch, cokernel_structure)
        assert is_symplectic(b).cross_checks.all_pass()
        assert len(calls) == 2  # the bundle's H1 and its flat twin's; the spectral test reuses b2

    @pytest.mark.parametrize("oracle", ["betti", "spectral"])
    def test_oracle_disagreement_raises(self, oracle, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(2, 0))
        assert is_symplectic(b).symplectic
        if oracle == "betti":  # the flat twin gains a Betti number, so b1 seems to drop
            real = h1_total_space
            replace_everywhere(
                monkeypatch,
                h1_total_space,
                lambda x: AbelianGroup(real(x).free_rank + x.is_flat, real(x).invariant_factors),
            )
        else:  # rank E11 = 0 makes b2 == 2 + rank E11 fail
            replace_everywhere(monkeypatch, e2_ranks, lambda g, mono: E2Ranks(1, 0, 1, 2 * g, 0, 1, 0, 1))
        with pytest.raises(InternalInconsistencyError, match=f"^{oracle} oracle \\(False\\) disagrees"):
            is_symplectic(b)


class TestKernelSplit:
    """The rule route runs on the Hermite kernel (integer_kernel), both oracles on the Smith diagonal."""

    def test_no_smith_transform_is_built(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(2, 0))
        assert b.surface_relation_holds()  # so the spectral oracle runs too
        snf_calls = count_calls(monkeypatch, snf)
        kernel_calls = count_calls(monkeypatch, integer_kernel)
        diagonal_calls = count_calls(monkeypatch, exactla._smith_diagonal)
        assert is_symplectic(b).cross_checks.all_pass()
        assert len(snf_calls) == 0
        assert len(kernel_calls) == 1  # the fixed lattice
        assert len(diagonal_calls) == 4  # H1 of the bundle and of its flat twin, Fox D1 and D2

    def test_a_wrong_diagonal_kernel_is_caught(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(0, 2))
        assert not is_symplectic(b).symplectic
        # a kernel that reads every matrix as zero gives the bundle and its flat twin the same b1
        monkeypatch.setattr(exactla, "_smith_diagonal", lambda m: [])
        with pytest.raises(InternalInconsistencyError, match="^betti oracle \\(True\\) disagrees"):
            is_symplectic(b)

    def test_a_wrong_hermite_kernel_is_caught(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(0, 2))
        assert not is_symplectic(b).symplectic
        # an empty fixed lattice turns the rule verdict to "no circle action, symplectic"
        replace_everywhere(monkeypatch, integer_kernel, lambda m: IntMatrix.zeros(m.cols, 0))
        with pytest.raises(InternalInconsistencyError, match="^betti oracle \\(False\\) disagrees"):
            is_symplectic(b)


class TestCupProductAnnihilator:
    def test_zero_class_gives_everything(self):
        basis = cup_product_annihilator(2, ProductH2Class(0, (0, 0, 0, 0)))
        assert len(basis) == 5

    def test_volume_class_gives_surface_pullbacks(self):
        basis = cup_product_annihilator(2, ProductH2Class(3, (0, 0, 0, 0)))
        assert len(basis) == 4
        assert all(v[-1] == 0 for v in basis)

    def test_torus_class_keeps_circle_direction(self):
        basis = cup_product_annihilator(2, ProductH2Class(0, (1, 0, 0, 0)))
        assert len(basis) == 4
        assert any(v[-1] != 0 for v in basis)
        # pairing functional is against J*kvec: second base coordinate is constrained
        for v in basis:
            assert v[1] == 0

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            cup_product_annihilator(2, ProductH2Class(0, (1, 0)))


class TestInvariantSymplecticExists:
    def test_zero_class(self):
        assert invariant_symplectic_exists(2, ProductH2Class(0, (0, 0, 0, 0)))

    def test_pure_volume_class(self):
        assert not invariant_symplectic_exists(2, ProductH2Class(5, (0, 0, 0, 0)))
        assert not invariant_symplectic_exists(2, ProductH2Class(-1, (0, 0, 0, 0)))

    def test_any_nonzero_torus_part(self):
        assert invariant_symplectic_exists(2, ProductH2Class(7, (0, 0, 1, 0)))
        assert invariant_symplectic_exists(3, ProductH2Class(0, (0, 2, 0, 0, 0, 0)))

    def test_agrees_with_fiber_class_on_trivial_bundle(self):
        assert invariant_symplectic_exists(2, ProductH2Class(0, (0, 0, 0, 0))) == fiber_class_nonzero(
            bundle([IDENTITY] * 4)
        )


class TestThurstonNorm:
    def test_examples(self):
        assert thurston_norm_product(2, ProductH1Class(1, (9, -1, 4, 0))) == 2
        assert thurston_norm_product(3, ProductH1Class(-2, (0, 0, 0, 0, 0, 0))) == 8
        assert thurston_norm_product(2, ProductH1Class(0, (1, 2, 3, 4))) == 0

    def test_independent_of_base_coefficients(self):
        rng = random.Random(13)
        for _ in range(20):
            base = tuple(rng.randint(-9, 9) for _ in range(4))
            assert thurston_norm_product(2, ProductH1Class(3, base)) == 6
