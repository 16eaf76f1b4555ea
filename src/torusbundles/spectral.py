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
from .bundle import SL2Z, TorusBundle, require_genus
from .exactla import IntMatrix, rank
from .homology import betti


class E2Ranks(Record):
    """Free ranks of the E2 entries feeding the fiber-class criterion."""

    rank_e00: int
    rank_e01: int
    rank_e02: int
    rank_e10: int
    rank_e11: int
    rank_e20: int
    rank_e21: int
    rank_e22: int

    def fiber_class_nonzero(self, b2: int) -> bool:
        """The rank criterion: the fiber class survives exactly when the total space has b2 = 2 + rank E11."""
        return b2 == 2 + self.rank_e11


def surface_relator(g: int) -> tuple[int, ...]:
    """Relator word over signed 1-based letters: generator j is letter j+1, its inverse -(j+1)."""
    word: list[int] = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2
        word.extend((a, b, -a, -b))
    return tuple(word)


def _validate_monodromy(g: int, monodromy: Sequence[SL2Z]) -> tuple[SL2Z, ...]:
    mats = tuple(monodromy)
    require_genus(g)
    if len(mats) != 2 * g:
        raise ValueError(f"expected {2 * g} monodromy matrices, got {len(mats)}")
    if not all(isinstance(m, SL2Z) for m in mats):  # the Fox matrices are built unchecked from their entries
        raise ValueError("monodromy entries must be SL2Z values")
    return mats


def _fox_block(word: Sequence[int], j: int, mats: Sequence[SL2Z]) -> list[list[int]]:
    """Coefficient block of the relator boundary at generator j.

    Accumulates the Fox derivative d(word)/dx_j with each group element w
    contributing through rho(w)^-1, sign-normalized so unipotent input
    reproduces the difference block A - I.
    """
    res = [[0, 0], [0, 0]]
    prefix_inv = SL2Z.identity()
    for letter in word:
        idx = abs(letter) - 1
        m = mats[idx]
        if letter > 0:
            if idx == j:
                res[0][0] -= prefix_inv.a
                res[0][1] -= prefix_inv.b
                res[1][0] -= prefix_inv.c
                res[1][1] -= prefix_inv.d
            prefix_inv = m.inverse() * prefix_inv
        else:
            prefix_inv = m * prefix_inv
            if idx == j:
                res[0][0] += prefix_inv.a
                res[0][1] += prefix_inv.b
                res[1][0] += prefix_inv.c
                res[1][1] += prefix_inv.d
    return res


def fox_boundary_matrices(g: int, monodromy: Sequence[SL2Z]) -> tuple[IntMatrix, IntMatrix]:
    """Boundary matrices (D2: 4g x 2, D1: 2 x 4g) of the twisted complex.

    D1's j-th 2x2 block is the generator difference block (the identity minus
    the inverse image of x_j); D2's j-th block is the relator's Fox
    derivative with respect to x_j, evaluated as in _fox_block.  D1 @ D2 = 0
    whenever the monodromy satisfies the surface relation.
    """
    mats = _validate_monodromy(g, monodromy)
    relator = surface_relator(g)

    d1_rows = [[0] * (4 * g) for _ in range(2)]
    for j, m in enumerate(mats):
        inv = m.inverse()
        block = [[1 - inv.a, -inv.b], [-inv.c, 1 - inv.d]]
        for r in range(2):
            for c in range(2):
                d1_rows[r][2 * j + c] = block[r][c]

    d2_rows = [[0, 0] for _ in range(4 * g)]
    for j in range(2 * g):
        block = _fox_block(relator, j, mats)
        for r in range(2):
            for c in range(2):
                d2_rows[2 * j + r][c] = block[r][c]

    d2 = IntMatrix._trusted(tuple(map(tuple, d2_rows)), 2)
    return d2, IntMatrix._trusted(tuple(map(tuple, d1_rows)), 4 * g)


def e2_ranks(g: int, monodromy: Sequence[SL2Z]) -> E2Ranks:
    """Ranks of the E2 page.

    Row q = 1 comes from the twisted complex: coinvariants at p = 0,
    invariants at p = 2, and ker/im at p = 1.  Rows q = 0 and q = 2 carry
    trivial coefficients with ranks (1, 2g, 1).
    """
    d2, d1 = fox_boundary_matrices(g, monodromy)
    rank_d1 = rank(d1)
    rank_d2 = rank(d2)
    return E2Ranks(
        rank_e00=1,
        rank_e01=2 - rank_d1,
        rank_e02=1,
        rank_e10=2 * g,
        rank_e11=4 * g - rank_d1 - rank_d2,
        rank_e20=1,
        rank_e21=2 - rank_d2,
        rank_e22=1,
    )


def fiber_class_via_spectral(b: TorusBundle) -> bool:
    """Rank test for a nonzero fiber class in real second homology.

    Applies E2Ranks.fiber_class_nonzero to the bundle's b2.  rank E11
    depends only on the monodromy, never on the Euler class.
    """
    _, b2 = betti(b)
    return e2_ranks(b.genus, b.monodromy).fiber_class_nonzero(b2)
