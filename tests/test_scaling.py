"""How classification scales with the genus, measured in bytes and counts rather than seconds."""

import json
import tracemalloc

import pytest

from torusbundles import (
    SL2Z,
    TorusBundle,
    fixed_sublattice,
    fox_boundary_matrices,
    h1_total_space,
    integer_kernel,
    is_symplectic,
    parse_bundle,
)

from support import IDENTITY, UPPER, conjugate, relation_sublattice, replace_everywhere, snf_kernel


def _one_unipotent(g):
    return TorusBundle(g, (UPPER,) + (IDENTITY,) * (2 * g - 1), (3, 0))


def _peak_bytes(b, fn=fixed_sublattice):
    fn(b)  # once untraced, so the traced call allocates only what the bundle's size needs
    tracemalloc.start()
    try:
        fn(b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_lattice_memory_is_linear_in_genus():
    # a 4g x 2 stack and a column reduction grow 4-fold from g = 50 to 200; a 4g x 4g transform grows 16-fold
    assert _peak_bytes(_one_unipotent(200)) / _peak_bytes(_one_unipotent(50)) <= 4.5


def test_h1_memory_is_linear_in_genus():
    # the 2 x (4g + 1) relation matrix grows 4-fold from g = 50 to 200, and its invariants are read in one pass
    assert _peak_bytes(_one_unipotent(200), h1_total_space) / _peak_bytes(_one_unipotent(50), h1_total_space) <= 4.5


@pytest.mark.parametrize("g", [2, 50, 200])
def test_sl2z_is_checked_at_the_boundary_only(monkeypatch, g):
    # products and inverses of checked matrices have determinant 1, so the Fox walk builds them unchecked, and
    # the identity it starts from is checked once, at import; a check per product made 69 / 30,501 / 482,001
    # constructions at g = 2 / 50 / 200
    b = _one_unipotent(g)
    text = json.dumps(b.to_dict())
    calls, checked = [], SL2Z.__init__

    def counted(self, *entries):
        calls.append(entries)
        checked(self, *entries)

    monkeypatch.setattr(SL2Z, "__init__", counted)
    is_symplectic(b)
    assert calls == []
    assert parse_bundle(text) == b
    assert len(calls) == 2 * g


@pytest.mark.parametrize("g", [2, 50, 200])
def test_bundle_is_checked_at_the_boundary_only(monkeypatch, g):
    # parse_bundle checks each field once itself, SL2Z the 2g matrices, and builds the bundle unchecked;
    # the flat twin reuses checked fields, where a checked twin re-tested all 2g matrices per is_symplectic
    b = _one_unipotent(g)
    text = json.dumps(b.to_dict())
    calls, checked = [], TorusBundle._check

    def counted(self):
        calls.append(self.genus)
        checked(self)

    monkeypatch.setattr(TorusBundle, "_check", counted)
    is_symplectic(b)
    assert calls == []
    assert parse_bundle(text) == b
    assert calls == []
    assert TorusBundle(g, b.monodromy, b.euler) == b  # the public constructor still checks
    assert calls == [g]


@pytest.mark.parametrize("g", [2, 50, 200])
def test_fox_walk_inverts_each_matrix_once(monkeypatch, g):
    # one inverse per monodromy matrix per build, shared by D1 and all g walks; inverting at every positive
    # letter made 24 / 10,200 / 160,800 inverses per is_symplectic at g = 2 / 50 / 200
    b = _one_unipotent(g)
    inverses, products = [], []
    inverse, product = SL2Z.inverse, SL2Z.__mul__

    def counted_inverse(self):
        inverses.append(self)
        return inverse(self)

    def counted_product(self, other):
        products.append(other)
        return product(self, other)

    monkeypatch.setattr(SL2Z, "inverse", counted_inverse)
    monkeypatch.setattr(SL2Z, "__mul__", counted_product)
    fox_boundary_matrices(g, b.monodromy)
    assert len(inverses) == 2 * g
    inverses.clear()
    products.clear()
    is_symplectic(b)
    assert len(inverses) == 2 * g  # surface_relation_holds works on plain integers, so all come from the build
    # still quadratic: 2g build products (each handle's rho(x) rho(y)^-1, then K = rho(x) rho(y)^-1 rho(x)^-1),
    # then one walk per handle h shared by its a- and b-block: 2 products per handle over handles 0..h-1, and K p,
    # rho(y) K p and rho(x)^-1 p at h itself.  The sum of 2h + 3 over h = 0..g-1 is g^2 + 2g, so g^2 + 4g in all
    # (12 / 2,700 / 40,800 at g = 2 / 50 / 200), where a walk per generator made 2g^2 + 4g.  Bringing the products
    # to linear is the one-walk Fox walk's job
    assert len(products) == g * g + 4 * g


@pytest.mark.slow
def test_lattices_at_genus_1000_match_the_snf_kernel(monkeypatch):
    p = SL2Z(2, 1, 1, 1)
    powers = (UPPER, UPPER.inverse(), UPPER * UPPER, IDENTITY)
    # commuting conjugates of unipotent matrices: the surface relation holds and p*(1, 0) spans both lattices
    b = TorusBundle(1000, tuple(conjugate(powers[i % 4], p) for i in range(2000)), (4, 2))
    fixed, relation = fixed_sublattice(b), relation_sublattice(b)
    assert fixed.basis == relation.basis == ((2, 1),)
    replace_everywhere(monkeypatch, integer_kernel, snf_kernel)
    assert fixed_sublattice(b) == fixed
    assert relation_sublattice(b) == relation
