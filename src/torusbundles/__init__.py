"""Exact-arithmetic classification of symplectic torus bundles over genus >= 2 surfaces.

Each public name is imported from its home module on first use (PEP 562), so a
process compiles only the modules it reaches.  Submodules resolve the same way:
after a bare ``import torusbundles``, ``torusbundles.swcalc`` loads swcalc.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines; add a new public name here
_HOMES = {
    "_record": ("InternalInconsistencyError", "ValidationError"),
    "bundle": (
        "Lattice",
        "ParseError",
        "SL2Z",
        "TorusBundle",
        "fixed_sublattice",
        "parse_bundle",
    ),
    "classify": (
        "ClassificationReport",
        "CrossChecks",
        "RationaleEntry",
        "is_symplectic",
    ),
    "exactla": ("AbelianGroup", "IntMatrix", "cokernel_structure", "integer_kernel", "rank", "snf", "xgcd"),
    "homology": ("NotFlatError", "Trichotomy", "betti", "h1_circle_bundle", "h1_total_space", "trichotomy"),
    "spectral": ("E2Ranks", "e2_ranks", "fiber_class_via_spectral", "fox_boundary_matrices"),
    "swcalc": (
        "ResidueSet",
        "SweepCounterexample",
        "SweepReport",
        "SWPolynomial",
        "UnsupportedParityError",
        "cyclic_subgroup",
        "fold_product_poly",
        "parity_sweep",
        "product_sw_coefficients",
        "sw4_zero_closed",
        "sw4_zero_coset",
        "sw4_zero_gcd",
        "sw4_zero_routes",
        "sw_poly_circle_bundle",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {*_HOMES, "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
