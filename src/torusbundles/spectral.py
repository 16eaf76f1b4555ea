"""E2-page ranks of the fibration's homology spectral sequence.

The base surface group is <a_1, b_1, ..., a_g, b_g | [a_1,b_1]...[a_g,b_g]>
with [a, b] = a b a^-1 b^-1, generators ordered a_1, b_1, ..., a_g, b_g.
Its one-relator free resolution, tensored with the fiber lattice Z^2 twisted
by the monodromy, yields a three-term integer complex

    Z^2  --D2-->  Z^4g  --D1-->  Z^2

whose boundary blocks are Fox derivatives of the relator and generator
difference blocks.  Group elements act on the coefficient block through the
inverses of their monodromy images (the usual left-to-right module
conversion); with that convention D1*D2 = 0 whenever the monodromy satisfies
the surface relation, and the kernel of D2 is exactly the lattice of
monodromy-fixed vectors.  On unipotent images the blocks coincide with the
plain differences A - I.

Only ranks are consumed downstream: the row q = 1 of the E2 page is the
homology of the complex above, while rows q = 0 and q = 2 carry trivial
coefficients.  None of this depends on the Euler class.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .bundle import SL2Z, TorusBundle, require_monodromy
from .exactla import IntMatrix, rank
from .homology import betti


class E2Ranks(Record):
    """Free ranks of the E2 entries feeding the fiber-class criterion; the four trivial corners default to 1."""

    rank_e00: int = 1
    rank_e01: int
    rank_e02: int = 1
    rank_e10: int
    rank_e11: int
    rank_e20: int = 1
    rank_e21: int
    rank_e22: int = 1

    def fiber_class_nonzero(self, b2: int) -> bool:
        """The rank criterion: the fiber class survives exactly when the total space has b2 = 2 + rank E11."""
        return b2 == 2 + self.rank_e11


# every Fox block's walk starts from this one identity
_IDENTITY = SL2Z.identity()


def _fox_block(j: int, handles: Sequence[tuple[SL2Z, SL2Z, SL2Z]]) -> tuple[tuple[int, int], ...]:
    """Coefficient block of the relator boundary at generator j.

    Accumulates the Fox derivative d(word)/dx_j with each group element w
    contributing through rho(w)^-1, sign-normalized so unipotent input
    reproduces the difference block A - I.  The walk goes handle by handle:
    handle i is the commutator x y x^-1 y^-1 with x = a_i and y = b_i, given
    by the caller as (rho(x)^-1, K, rho(y)), K = rho(x) rho(y)^-1 rho(x)^-1.
    Two products per handle left-multiply the prefix p = rho(w)^-1: K p is
    the prefix after x^-1, and rho(y) K p the one after y^-1.  At j's own
    handle the block is the prefix after x_j^-1 less the one before x_j, so
    an a-block reads (K - I) p and a b-block (rho(y) K - rho(x)^-1) p: only a
    b-block makes the prefix after x, and no block the one after y.
    """
    own, second = divmod(j, 2)  # j's handle, and whether j is its b
    p = _IDENTITY
    for i, (x_inv, k, y) in enumerate(handles):
        after_x_inv = k * p
        after_y_inv = y * after_x_inv
        if i == own:
            minus, plus = (x_inv * p, after_y_inv) if second else (p, after_x_inv)
        p = after_y_inv
    return (plus.a - minus.a, plus.b - minus.b), (plus.c - minus.c, plus.d - minus.d)


def fox_boundary_matrices(g: int, monodromy: Sequence[SL2Z]) -> tuple[IntMatrix, IntMatrix]:
    """Boundary matrices (D2: 4g x 2, D1: 2 x 4g) of the twisted complex.

    D1's j-th 2x2 block is the generator difference block (the identity minus
    the inverse image of x_j); D2's j-th block is the relator's Fox
    derivative with respect to x_j, evaluated as in _fox_block.  D1 @ D2 = 0
    whenever the monodromy satisfies the surface relation.
    """
    mats = require_monodromy(g, monodromy)  # the Fox matrices are built unchecked from their entries
    invs = [m.inverse() for m in mats]
    d1 = (
        tuple(x for inv in invs for x in (1 - inv.a, -inv.b)),
        tuple(x for inv in invs for x in (-inv.c, 1 - inv.d)),
    )
    handles = tuple((invs[i], mats[i] * invs[i + 1] * invs[i], mats[i + 1]) for i in range(0, 2 * g, 2))
    d2 = tuple(row for j in range(2 * g) for row in _fox_block(j, handles))
    return IntMatrix._trusted(d2, 2), IntMatrix._trusted(d1, 4 * g)


def e2_ranks(g: int, monodromy: Sequence[SL2Z]) -> E2Ranks:
    """Ranks of the E2 page.

    Row q = 1 comes from the twisted complex: coinvariants at p = 0,
    invariants at p = 2, and ker/im at p = 1.  Rows q = 0 and q = 2 carry
    trivial coefficients with ranks (1, 2g, 1).
    """
    d2, d1 = fox_boundary_matrices(g, monodromy)
    rank_d1 = rank(d1)
    rank_d2 = rank(d2)
    return E2Ranks(1, 2 - rank_d1, 1, 2 * g, 4 * g - rank_d1 - rank_d2, 1, 2 - rank_d2, 1)  # E00 to E22


def fiber_class_via_spectral(b: TorusBundle) -> bool:
    """Rank test for a nonzero fiber class in real second homology.

    Applies E2Ranks.fiber_class_nonzero to the bundle's b2.  rank E11
    depends only on the monodromy, never on the Euler class.
    """
    _, b2 = betti(b)
    return e2_ranks(b.genus, b.monodromy).fiber_class_nonzero(b2)
