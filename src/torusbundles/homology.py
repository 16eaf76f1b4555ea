"""First homology of torus-bundle total spaces and the flat trichotomy.

H1 of the total space is presented on generators b_1..b_2g (base) and x1, x2
(fiber) with relations A_i*x - x for every monodromy matrix, plus the single
relation m*x1 + n*x2 when the Euler class (m, n) is nonzero.  Only the fiber
generators meet relations, so H1 = Z^2g (+) coker(R) for the 2-row relation
matrix R.
"""

from __future__ import annotations

from enum import Enum

from .bundle import TorusBundle, fixed_sublattice, require_genus
from .exactla import AbelianGroup, IntMatrix, cokernel_structure, rank


class NotFlatError(ValueError):
    """Raised when a flat-only operation receives a bundle with nonzero Euler class."""


class Trichotomy(Enum):
    TRIVIAL_BUNDLE = "trivial bundle"
    NONTRIVIAL_WITH_CIRCLE_ACTION = "nontrivial, free fiberwise circle action"
    NO_CIRCLE_ACTION = "no free fiberwise circle action"


def fiber_relation_matrix(b: TorusBundle) -> IntMatrix:
    """Relation matrix R on the fiber generators: columns (A_i - I)e_j, plus (m, n) if nonzero."""
    top, bottom = [], []
    for m in b.monodromy:
        top += (m.a - 1, m.b)
        bottom += (m.c, m.d - 1)
    if b.euler != (0, 0):
        top.append(b.euler[0])
        bottom.append(b.euler[1])
    return IntMatrix._trusted((tuple(top), tuple(bottom)), len(top))


def h1_total_space(b: TorusBundle) -> AbelianGroup:
    """H1 of the total space, including torsion."""
    fiber_part = cokernel_structure(fiber_relation_matrix(b))
    return AbelianGroup(
        free_rank=2 * b.genus + fiber_part.free_rank,
        invariant_factors=fiber_part.invariant_factors,
    )


def h1_circle_bundle(g: int, n: int) -> AbelianGroup:
    """H1 of the circle bundle over a genus-g surface with Euler number n.

    Presented as <b_1..b_2g, x | n*x> where x is the fiber class, so the
    result is Z^2g (+) Z_|n|, the torsion summand turning free when n = 0.
    """
    require_genus(g)
    if n == 0:
        return AbelianGroup(free_rank=2 * g + 1)
    if abs(n) == 1:
        return AbelianGroup(free_rank=2 * g)
    return AbelianGroup(free_rank=2 * g, invariant_factors=(abs(n),))


def betti(b: TorusBundle) -> tuple[int, int]:
    """(b1, b2) of the total space: b1 = 2g + 2 - rank(R), b2 = 2*b1 - 2 as the Euler characteristic is 0."""
    b1 = 2 * b.genus + 2 - rank(fiber_relation_matrix(b))
    return b1, 2 * b1 - 2


def trichotomy(b: TorusBundle) -> Trichotomy:
    """Classify a flat bundle by its fiberwise circle actions.

    The three cases correspond exactly to b1 = 2g+2, 2g+1, 2g.  Rejects
    non-flat input, where the correspondence does not apply.
    """
    if not b.is_flat:
        raise NotFlatError(f"trichotomy requires a flat bundle, got euler = {b.euler}")
    fixed_rank = fixed_sublattice(b).rank
    if fixed_rank == 2:
        return Trichotomy.TRIVIAL_BUNDLE
    if fixed_rank == 1:
        return Trichotomy.NONTRIVIAL_WITH_CIRCLE_ACTION
    return Trichotomy.NO_CIRCLE_ACTION
