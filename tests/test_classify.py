import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import (
    CrossChecks,
    E2Ranks,
    InternalInconsistencyError,
    TorusBundle,
    betti,
    e2_ranks,
    fiber_class_via_spectral,
    fixed_sublattice,
    h1_total_space,
    integer_kernel,
    is_symplectic,
    snf,
)
from torusbundles import exactla
from torusbundles.homology import fiber_relation_matrix

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    conjugate_bundle,
    count_calls,
    random_arbitrary_monodromy,
    random_sl2z,
    random_valid_bundle,
    random_valid_monodromy,
    replace_everywhere,
    zero_matrix,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


class TestFiberClass:
    def test_trivial_bundle(self):
        assert is_symplectic(bundle([IDENTITY] * 4)).fiber_class_nonzero

    def test_nontrivial_principal(self):
        assert not is_symplectic(bundle([IDENTITY] * 4, euler=(1, 1))).fiber_class_nonzero

    def test_euler_multiple_of_orbit_class(self):
        assert is_symplectic(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY], euler=(2, 0))).fiber_class_nonzero

    def test_no_circle_action_any_euler(self):
        assert is_symplectic(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY], euler=(3, 4))).fiber_class_nonzero


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
        assert report.cross_checks == CrossChecks(betti_oracle=True, spectral_oracle=True)

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
        relation_calls = count_calls(monkeypatch, fiber_relation_matrix)
        thin_calls = count_calls(monkeypatch, exactla._thin_rank)
        invariant_calls = count_calls(monkeypatch, exactla._thin_invariants)
        assert is_symplectic(b).cross_checks == CrossChecks(betti_oracle=True, spectral_oracle=True)
        assert len(relation_calls) == 2  # the bundle's b1 and its flat twin's; the spectral test reuses b2
        assert len(thin_calls) == 4  # those two ranks, Fox D1 and D2
        assert len(invariant_calls) == 0  # no cokernel is built

    @pytest.mark.parametrize("oracle", ["betti", "spectral"])
    def test_oracle_disagreement_raises(self, oracle, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(2, 0))
        assert is_symplectic(b).symplectic
        if oracle == "betti":  # the flat twin gains a Betti number, so b1 seems to drop
            real = betti
            replace_everywhere(monkeypatch, betti, lambda x: (real(x)[0] + x.is_flat, real(x)[1] + 2 * x.is_flat))
        else:  # rank E11 = 0 makes b2 == 2 + rank E11 fail
            replace_everywhere(monkeypatch, e2_ranks, lambda g, mono: E2Ranks(1, 0, 1, 2 * g, 0, 1, 0, 1))
        with pytest.raises(InternalInconsistencyError, match=f"^{oracle} oracle \\(False\\) disagrees"):
            is_symplectic(b)


_FIBER_CLASS_RULES = {"trivial-bundle", "no-fiber-circle-action", "euler-multiple-of-orbit-class"}
_RULES = _FIBER_CLASS_RULES | {
    "euler-not-multiple-of-orbit-class",
    "principal-both-euler-components-nonzero",
    "principal-one-euler-component-zero",
}


@st.composite
def _rule_bundles(draw):
    """A genus 2-6 bundle with valid, arbitrary or trivial monodromy.

    The Euler class is drawn small, as a multiple of the fixed lattice's first basis vector (the orbit class at
    rank 1, an axis vector under trivial monodromy), or near 10^30.
    """
    g = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(("valid", "arbitrary", "trivial")))
    if family == "valid":
        monodromy = random_valid_monodromy(rng, g)
    elif family == "arbitrary":
        monodromy = random_arbitrary_monodromy(rng, g)
    else:
        monodromy = (IDENTITY,) * (2 * g)
    basis = fixed_sublattice(TorusBundle(g, monodromy, (0, 0))).basis
    kind = draw(st.sampled_from(("small", "multiple", "huge")))
    if kind == "multiple" and basis:
        t = draw(st.integers(-3, 3) | st.integers(-(10**30), 10**30))
        return TorusBundle(g, monodromy, (t * basis[0][0], t * basis[0][1]))
    entry = st.integers(-5, 5) if kind == "small" else st.integers(-5, 5).map(lambda k: (k or 1) * 10**30 + k)
    return TorusBundle(g, monodromy, (draw(entry), draw(entry)))


def test_the_printed_rule_decides_the_verdict():
    """The fiber class is nonzero exactly under the three rules that keep it, and every rule is reached."""
    seen = set()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_rule_bundles())
    def check(b):
        report = is_symplectic(b)
        rule = report.rationale[0].rule
        seen.add(rule)
        assert report.fiber_class_nonzero == (rule in _FIBER_CLASS_RULES)
        assert report.rationale[1].rule == "symplectic-iff-fiber-class"

    check()
    assert seen == _RULES


class TestKernelSplit:
    """The rule route runs on the Hermite kernel (integer_kernel), both oracles on the thin rank's 2x2 minors."""

    def test_no_smith_transform_is_built(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(2, 0))
        assert b.surface_relation_holds()  # so the spectral oracle runs too
        snf_calls = count_calls(monkeypatch, snf)
        kernel_calls = count_calls(monkeypatch, integer_kernel)
        thin_calls = count_calls(monkeypatch, exactla._thin_rank)
        invariant_calls = count_calls(monkeypatch, exactla._thin_invariants)
        assert is_symplectic(b).cross_checks == CrossChecks(betti_oracle=True, spectral_oracle=True)
        assert len(snf_calls) == 0
        assert len(kernel_calls) == 1  # the fixed lattice
        assert len(thin_calls) == 4  # the relation matrices of the bundle and of its flat twin, Fox D1 and D2
        assert len(invariant_calls) == 0

    def test_a_wrong_diagonal_kernel_is_caught(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(0, 2))
        assert not is_symplectic(b).symplectic
        # a rank that reads every matrix as zero gives the bundle and its flat twin the same b1
        monkeypatch.setattr(exactla, "_thin_rank", lambda rows: 0)
        with pytest.raises(InternalInconsistencyError, match="^betti oracle \\(True\\) disagrees"):
            is_symplectic(b)

    def test_a_wrong_hermite_kernel_is_caught(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(0, 2))
        assert not is_symplectic(b).symplectic
        # an empty fixed lattice turns the rule verdict to "no circle action, symplectic"
        replace_everywhere(monkeypatch, integer_kernel, lambda m: zero_matrix(m.cols, 0))
        with pytest.raises(InternalInconsistencyError, match="^betti oracle \\(False\\) disagrees"):
            is_symplectic(b)

    def test_a_wrong_two_column_step_is_caught(self, monkeypatch):
        b = bundle([UPPER, IDENTITY, IDENTITY, UPPER.inverse()], euler=(0, 2))
        assert not is_symplectic(b).symplectic

        def keeps_the_pivot(rows):  # one wrong step: at the first nonzero row, keep the pivot column (a, b)
            x, y = next(row for row in rows if any(row))
            _, a, c = exactla.xgcd(x, y)
            return ((a, c),)

        # the stack's first nonzero row is UPPER's (0, 1), so the fixed lattice turns from Z(1, 0) to Z(0, 1),
        # which holds the Euler class: the rule says symplectic, and the Betti oracle does not
        monkeypatch.setattr(exactla, "_two_column_kernel", keeps_the_pivot)
        assert fixed_sublattice(b).basis == ((0, 1),)
        with pytest.raises(InternalInconsistencyError, match="^betti oracle \\(False\\) disagrees"):
            is_symplectic(b)
