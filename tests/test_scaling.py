"""How classification scales with the genus, in bytes and counts; only the opt-in g = 10^4 test bounds seconds."""

import gc
import json
import time
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
from torusbundles import spectral

from support import IDENTITY, UPPER, conjugate, relation_sublattice, replace_everywhere, snf_kernel


def _one_unipotent(g):
    return TorusBundle(g, (UPPER,) + (IDENTITY,) * (2 * g - 1), (3, 0))


def _peak_bytes(b, fn=fixed_sublattice):
    fn(b)  # once untraced, so the traced call allocates only what the bundle's size needs
    # a full collection empties the tuple free lists that the untraced call filled; up to 2,000 tuples of each size
    # taken from them went uncounted, so a small genus read too little (fox_boundary_matrices 418 KB, not 674 KB, at
    # g = 10^3) and a ratio from it too much
    gc.collect()
    tracemalloc.start()
    try:
        fn(b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fox(b):
    return fox_boundary_matrices(b.genus, b.monodromy)


def _counted_products(monkeypatch):
    products, product = [], spectral._mul

    def counted_product(p, q):
        products.append(q)
        return product(p, q)

    monkeypatch.setattr(spectral, "_mul", counted_product)
    return products


def test_fixed_lattice_memory_is_linear_in_genus():
    # a 4g x 2 stack and a column reduction grow 4-fold from g = 50 to 200; a 4g x 4g transform grows 16-fold
    assert _peak_bytes(_one_unipotent(200)) / _peak_bytes(_one_unipotent(50)) <= 4.5


def test_h1_memory_is_linear_in_genus():
    # the 2 x (4g + 1) relation matrix grows 4-fold from g = 50 to 200, and its invariants are read in one pass
    assert _peak_bytes(_one_unipotent(200), h1_total_space) / _peak_bytes(_one_unipotent(50), h1_total_space) <= 4.5


@pytest.mark.parametrize("g", [2, 50, 200])
def test_sl2z_is_checked_at_the_boundary_only(monkeypatch, g):
    # the Fox walk multiplies 4-tuples read off the checked matrices, and surface_relation_holds plain integers,
    # so is_symplectic constructs no SL2Z; a check per product made 69 / 30,501 / 482,001 constructions at
    # g = 2 / 50 / 200
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
    # the build reads each monodromy matrix once into a row-major 4-tuple and writes its inverse as the tuple
    # (d, -b, -c, a), shared by D1 and the walk, so no SL2Z is inverted or multiplied; inverting at every positive
    # letter made 24 / 10,200 / 160,800 inverses per is_symplectic at g = 2 / 50 / 200
    b = _one_unipotent(g)
    products, sl2z_calls = _counted_products(monkeypatch), []
    inverse, sl2z_product = SL2Z.inverse, SL2Z.__mul__

    def counted_inverse(self):
        sl2z_calls.append("inverse")
        return inverse(self)

    def counted_sl2z_product(self, other):
        sl2z_calls.append("__mul__")
        return sl2z_product(self, other)

    monkeypatch.setattr(SL2Z, "inverse", counted_inverse)
    monkeypatch.setattr(SL2Z, "__mul__", counted_sl2z_product)
    is_symplectic(b)
    assert sl2z_calls == []  # surface_relation_holds works on plain integers, and the build on 4-tuples
    # one walk: per handle 2 products for K = rho(x) rho(y)^-1 rho(x)^-1 and 3 to cross it (K p, rho(y) K p and
    # rho(x)^-1 p), so 5g in all (10 / 250 / 1,000 at g = 2 / 50 / 200), where a walk per handle made g^2 + 4g
    assert len(products) == 5 * g


def test_fox_matrices_memory_is_linear_in_genus():
    # D2's 4g rows and D1's two rows of 4g entries grow 4-fold from g = 50 to 200; the walk keeps one prefix at a time
    assert _peak_bytes(_one_unipotent(200), _fox) / _peak_bytes(_one_unipotent(50), _fox) <= 4.5


@pytest.mark.slow
def test_fox_walk_is_linear_at_genus_10000(monkeypatch):
    # is_symplectic took 0.11 s on a 2-vCPU Xeon host with Python 3.11.7, and 18.2 s with a walk per handle;
    # the Fox build's peak, D2's 4g rows and D1's 4g columns, grows tenfold from g = 10^3
    b = _one_unipotent(10**4)
    start = time.perf_counter()
    is_symplectic(b)
    assert time.perf_counter() - start < 1.0
    assert _peak_bytes(b, _fox) / _peak_bytes(_one_unipotent(10**3), _fox) <= 11
    products = _counted_products(monkeypatch)
    is_symplectic(b)
    assert len(products) == 5 * 10**4


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
