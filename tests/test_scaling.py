"""How the rule route's fixed lattice scales with the genus, measured in bytes rather than seconds."""

import tracemalloc

import pytest

from torusbundles import SL2Z, TorusBundle, fixed_sublattice, integer_kernel, relation_sublattice

from support import IDENTITY, UPPER, replace_everywhere, snf_kernel


def _one_unipotent(g):
    return TorusBundle(g, (UPPER,) + (IDENTITY,) * (2 * g - 1), (3, 0))


def _peak_bytes(b):
    fixed_sublattice(b)  # once untraced, so the traced call allocates only what the bundle's size needs
    tracemalloc.start()
    try:
        fixed_sublattice(b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_lattice_memory_is_linear_in_genus():
    # a 4g x 2 stack and a column reduction grow 4-fold from g = 50 to 200; a 4g x 4g transform grows 16-fold
    assert _peak_bytes(_one_unipotent(200)) / _peak_bytes(_one_unipotent(50)) <= 4.5


@pytest.mark.slow
def test_lattices_at_genus_1000_match_the_snf_kernel(monkeypatch):
    p = SL2Z(2, 1, 1, 1)
    powers = (UPPER, UPPER.inverse(), UPPER * UPPER, IDENTITY)
    # commuting conjugates of unipotent matrices: the surface relation holds and p*(1, 0) spans both lattices
    b = TorusBundle(1000, tuple(powers[i % 4].conjugate(p) for i in range(2000)), (4, 2))
    fixed, relation = fixed_sublattice(b), relation_sublattice(b)
    assert fixed.basis == relation.basis == ((2, 1),)
    replace_everywhere(monkeypatch, integer_kernel, snf_kernel)
    assert fixed_sublattice(b) == fixed
    assert relation_sublattice(b) == relation
