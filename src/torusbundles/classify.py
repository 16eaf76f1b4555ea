"""Symplectic classification of torus bundles.

The governing criterion: the total space carries a symplectic structure if
and only if the fiber class is nonzero in real second homology.  That
condition is decided purely from monodromy and Euler class:

  * trivial monodromy: nonzero fiber class exactly for Euler class (0, 0);
  * no common fixed vector of the monodromy: always nonzero;
  * common fixed vector with primitive generator z: nonzero exactly when
    the Euler class is an integer multiple of z.

Every verdict is cross-checked against two independent oracles: the first
Betti number of the flat twin (adding the Euler relation must not drop the
rank) and the spectral-sequence rank test.
"""

from __future__ import annotations

from ._record import InternalInconsistencyError, Record
from .bundle import Lattice, TorusBundle, fixed_sublattice
from .homology import betti
from .spectral import e2_ranks


class RationaleEntry(Record):
    rule: str
    statement: str


class CrossChecks(Record):
    """Agreement flags for the two verdict oracles.

    The spectral flag is None when the monodromy tuple violates the surface
    relation, in which case no fibration realizes it and the spectral
    sequence does not apply.
    """

    betti_oracle: bool
    spectral_oracle: bool | None


class ClassificationReport(Record):
    b1: int
    b2: int
    has_circle_action: bool
    fiber_class_nonzero: bool
    symplectic: bool
    rationale: tuple[RationaleEntry, ...]
    cross_checks: CrossChecks


_STATEMENTS = {
    "trivial-bundle": "trivial monodromy and zero Euler class: the product bundle, fiber class nonzero",
    "principal-both-euler-components-nonzero": (
        "principal bundle with m*n != 0: the degree-zero invariant is even, "
        "so no structure of unit invariant exists and the bundle is not symplectic"
    ),
    "principal-one-euler-component-zero": (
        "nontrivial principal bundle with Euler class on an axis: the quotient "
        "circle bundle cannot fiber over the circle, so the bundle is not symplectic"
    ),
    "no-fiber-circle-action": (
        "no nonzero vector is fixed by all monodromy matrices: the rank of E11 is "
        "Euler-class independent and forces a nonzero fiber class"
    ),
    "euler-multiple-of-orbit-class": (
        "circle action with orbit class z = {z}; the Euler class {euler} is an "
        "integer multiple of z, so the fiber class survives"
    ),
    "euler-not-multiple-of-orbit-class": (
        "circle action with orbit class z = {z}; the Euler class {euler} is not a "
        "multiple of z, the first Betti number drops and the fiber class dies"
    ),
}
# the rationale's second entry, the same for every bundle
_SYMPLECTIC_IFF_FIBER_CLASS = RationaleEntry(
    "symplectic-iff-fiber-class",
    "a torus bundle over a genus >= 2 surface is symplectic exactly when the fiber "
    "class is nonzero in real second homology",
)


def _rule(b: TorusBundle, fixed: Lattice) -> tuple[str, bool]:
    """The rule that decides the bundle, and its fiber-class verdict, from one split on the fixed lattice's rank."""
    if fixed.rank == 0:
        return "no-fiber-circle-action", True
    if fixed.rank == 1:
        member = fixed.contains(b.euler)
        return ("euler-multiple-of-orbit-class" if member else "euler-not-multiple-of-orbit-class"), member
    if b.is_flat:  # trivial monodromy: only the product bundle keeps the fiber class
        return "trivial-bundle", True
    return ("principal-one-euler-component-zero" if 0 in b.euler else "principal-both-euler-components-nonzero"), False


def is_symplectic(b: TorusBundle) -> ClassificationReport:
    """Full classification with rationale and oracle cross-checks.

    Raises InternalInconsistencyError if any applicable oracle disagrees
    with the rule-based verdict.
    """
    fixed = fixed_sublattice(b)
    rule, verdict = _rule(b, fixed)
    b1, b2 = betti(b)

    oracles = {"betti": betti(b.flat_twin())[0] == b1}
    if b.surface_relation_holds():  # the spectral sequence needs a fibration that realizes the tuple
        oracles["spectral"] = e2_ranks(b.genus, b.monodromy).fiber_class_nonzero(b2)
    for name, value in oracles.items():
        if value != verdict:
            raise InternalInconsistencyError(
                f"{name} oracle ({value}) disagrees with rule verdict ({verdict}) on {b.to_dict()}"
            )

    statement = _STATEMENTS[rule].format(z=fixed.basis[0] if fixed.basis else None, euler=b.euler)
    rationale = (RationaleEntry(rule, statement), _SYMPLECTIC_IFF_FIBER_CLASS)
    cross_checks = CrossChecks(True, True if "spectral" in oracles else None)  # any disagreement raised above
    return ClassificationReport(b1, b2, fixed.rank >= 1, verdict, verdict, rationale, cross_checks)
