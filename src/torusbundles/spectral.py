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


def _mul(p: tuple[int, int, int, int], q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The product p q of two 2x2 integer matrices, each a row-major 4-tuple (a, b, c, d)."""
    a, b, c, d = p
    w, x, y, z = q
    return (a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z)


def fox_boundary_matrices(g: int, monodromy: Sequence[SL2Z]) -> tuple[IntMatrix, IntMatrix]:
    """Boundary matrices (D2: 4g x 2, D1: 2 x 4g) of the twisted complex.

    Each matrix is read once into a row-major 4-tuple and inverted once as
    (d, -b, -c, a); every product is one _mul, in the counts that
    tests/test_scaling.py::test_fox_walk_inverts_each_matrix_once pins.
    D1's j-th 2x2 block is the generator difference block (the identity minus
    the inverse image of x_j).  D2 stacks the relator's Fox derivatives: each
    group element w of d(word)/dx_j contributes through rho(w)^-1,
    sign-normalized so unipotent input reproduces A - I.  Handle i is the
    commutator x y x^-1 y^-1 with x = a_i, y = b_i and
    K = rho(x) rho(y)^-1 rho(x)^-1.  One walk carries the prefix p = rho(w)^-1
    across the handles: K p is the prefix after x^-1, and rho(y) K p the one
    after y^-1, which the next handle starts from.  a_i and b_i occur only in
    handle i, so both blocks are read there, each the prefix after the inverse
    letter less the one before the letter: K p - p at a_i and
    rho(y) K p - rho(x)^-1 p at b_i.  D1 @ D2 = 0 whenever the relation holds.
    """
    mats = [(m.a, m.b, m.c, m.d) for m in require_monodromy(g, monodromy)]  # built unchecked from these entries
    invs = [(d, -b, -c, a) for a, b, c, d in mats]
    d1 = (
        tuple(x for a, b, _, _ in invs for x in (1 - a, -b)),
        tuple(x for _, _, c, d in invs for x in (-c, 1 - d)),
    )
    d2: list[tuple[int, int]] = []
    p = (1, 0, 0, 1)
    for i in range(0, 2 * g, 2):
        kp = _mul(_mul(_mul(mats[i], invs[i + 1]), invs[i]), p)
        ykp = _mul(mats[i + 1], kp)
        for u, v in ((kp, p), (ykp, _mul(invs[i], p))):  # (prefix after the inverse letter, before the letter)
            d2 += ((u[0] - v[0], u[1] - v[1]), (u[2] - v[2], u[3] - v[3]))
        p = ykp
    return IntMatrix._trusted(tuple(d2), 2), IntMatrix._trusted(d1, 4 * g)


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
