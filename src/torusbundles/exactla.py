"""Exact integer linear algebra.

Every matrix the package builds is at most two rows or two columns wide.  The
rule route's fixed lattice runs on `integer_kernel`, a column echelon (Hermite)
reduction carrying only the column transform, 2x2 on the 4g x 2 stack: a row
meets the one live column in a dot product, never in a 2x2 minor.  The oracles'
ranks run on `rank`, one pass of 2x2 minors, and `cokernel_structure` (H1 for
`homology`) reads d1 | d2 off a running Hermite basis of the column span, so
the rule route and the oracles reach every verdict on different kernels.  Both
read the thin side and refuse any other shape.  `snf`, the general Smith
algorithm, is the tests' reference; `integer_kernel` reads any width but two
off it, and no package code passes one.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import gcd
from typing import Sequence

from ._record import Record


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix(Record):
    """Immutable integer matrix; rows and columns may be zero, and `cols` defaults to the row width."""

    entries: tuple[tuple[int, ...], ...]
    cols: int | None = None

    def _check(self) -> None:
        rows = []
        for row in self.entries:
            checked = []
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"matrix entries must be integers, got {x!r}")
                checked.append(x)
            rows.append(tuple(checked))
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix input")
            if self.cols is not None and self.cols != width:
                raise ValueError(f"cols={self.cols} disagrees with row length {width}")
        else:
            width = 0 if self.cols is None else self.cols
        if width < 0:
            raise ValueError("negative column count")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "cols", width)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Wrap row tuples the package built from already-checked integers, skipping the checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "cols", cols)
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        entries = self.entries
        columns = tuple(tuple(row[j] for row in entries) for j in range(self.cols))
        return IntMatrix._trusted(columns, len(entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = tuple(
            tuple(sum(row[k] * other.entries[k][j] for k in range(self.cols)) for j in range(other.cols))
            for row in self.entries
        )
        return IntMatrix._trusted(out, other.cols)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


class AbelianGroup(Record):
    """Finitely generated abelian group: free rank plus invariant-factor chain.

    Factors satisfy d1 | d2 | ... with every di >= 2; rank-contributing zeros
    and trivial factors are never stored.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def _check(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} violate the divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _gcd_op(p: int, q: int) -> tuple[int, int, int, int]:
    """snf's unimodular 2x2 step taking (p, q), p != 0, to (+-gcd, 0): a subtraction when p | q, else xgcd."""
    if q % p == 0:
        return 1, 0, -(q // p), 1
    g, x, y = xgcd(p, q)
    return x, y, -(q // g), p // g


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms, the tests' reference: returns (U, D, V) with U*m*V = D.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... and any
    zeros trailing; U and V are unimodular.  Total on all integer matrices,
    including empty and zero ones.  No classification or CLI path calls it;
    `integer_kernel` does on a width other than two.  One loop of gcd
    elimination (Cohen 2.4), every step folded into U and V: step t swaps the
    smallest nonzero entry left to (t, t) and clears its column and row by
    `_gcd_op`; while an entry left is not a multiple of that pivot, its row is
    added into row t and cleared again, so each pivot divides everything after
    it.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i1: int, i2: int, e11: int, e12: int, e21: int, e22: int) -> None:
        # rows (i1, i2) <- (e11*r1 + e12*r2, e21*r1 + e22*r2) on a and u
        for mat in (a, u):
            r1, r2 = mat[i1], mat[i2]
            for j in range(len(r1)):
                x, y = r1[j], r2[j]
                r1[j] = e11 * x + e12 * y
                r2[j] = e21 * x + e22 * y

    def col_op(j1: int, j2: int, f11: int, f21: int, f12: int, f22: int) -> None:
        # cols (j1, j2) <- (f11*c1 + f21*c2, f12*c1 + f22*c2) on a and v
        for mat in (a, v):
            for row in mat:
                x, y = row[j1], row[j2]
                row[j1] = f11 * x + f21 * y
                row[j2] = f12 * x + f22 * y

    for t in range(min(nr, nc)):
        pivot = None  # (|entry|, i, j): the smallest absolute value, ties by position
        for i, j in product(range(t, nr), range(t, nc)):
            if a[i][j] and (pivot is None or abs(a[i][j]) < pivot[0]):
                pivot = abs(a[i][j]), i, j
        if pivot is None:
            break
        if pivot[1] != t:
            row_op(t, pivot[1], 0, 1, 1, 0)  # swaps, as 2x2 steps
        if pivot[2] != t:
            col_op(t, pivot[2], 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_op(t, i, *_gcd_op(a[t][t], a[i][t]))
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_op(t, j, *_gcd_op(a[t][t], a[t][j]))
            if any(a[i][t] for i in range(t + 1, nr)):
                continue  # an xgcd step on row t refilled column t; the pivot has shrunk
            p = a[t][t]
            if p in (1, -1):  # a unit divides everything
                break
            i = next((i for i in range(t + 1, nr) if any(x % p for x in a[i])), None)
            if i is None:
                break
            row_op(t, i, 1, 1, 0, 1)  # row t += row i; clearing it again shrinks the pivot
        if a[t][t] < 0:
            for mat in (a, u):
                mat[t] = [-x for x in mat[t]]

    return (
        IntMatrix._trusted(tuple(map(tuple, u)), nr),
        IntMatrix._trusted(tuple(map(tuple, a)), nc),
        IntMatrix._trusted(tuple(map(tuple, v)), nc),
    )


def _thin_invariants(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero Smith invariants d1 | d2 of at most two rows, from a running Hermite basis of the column span.

    The span is kept as Z(a, b) + Z(0, c).  A column (0, y) joins c; any other column (x, y) folds into
    (a, b) by xgcd, a plain subtraction when a divides x, and sends (0, (a*y - x*b)/gcd(a, x)) into c.
    Then d1 = gcd(a, b, c) and d1 * d2 = a * c, the gcd of the 2x2 minors.
    """
    a = b = c = 0
    top, bottom = (*rows, (), ())[:2]
    for x, y in zip_longest(top, bottom, fillvalue=0):
        if not x:
            if y:
                c = gcd(c, y)
        elif a and x % a == 0:  # (x, y) - (x/a)(a, b) = (0, y - (x/a)b), the common case once a is small
            c = gcd(c, y - x // a * b)
        else:  # a shrinks to a proper divisor, so this runs at most log2(a) + 1 times
            g, s, t = xgcd(a, x)
            a, b, c = g, s * b + t * y, gcd(c, (a * y - x * b) // g)
            if c:
                b %= c  # keeps b small; only b mod c enters d1
    d1 = gcd(a, b, c)
    return [d for d in (d1, a * c // d1) if d] if d1 else []


def _thin_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of at most two rows: past the first nonzero column (a, b), a column (c, d) with ad != bc gives 2."""
    if len(rows) < 2:
        return int(any(map(any, rows)))
    columns = zip(*rows)
    for a, b in columns:
        if a or b:
            return 1 + any(a * d != b * c for c, d in columns)
    return 0


def _thin_side(m: IntMatrix) -> Sequence[Sequence[int]]:
    """m's rows if it has at most two, else its columns if it has at most two; no package code builds other shapes."""
    if m.rows <= 2:
        return m.entries
    if m.cols <= 2:
        return tuple(zip(*m.entries))
    raise ValueError(f"a {m.rows}x{m.cols} matrix has more than two rows and columns; only thin shapes are read")


def rank(m: IntMatrix) -> int:
    """Rank of a matrix at most two rows or two columns wide, by 2x2 minors; any other shape is a ValueError."""
    return _thin_rank(_thin_side(m))


def _normalize_column_sign(column: Sequence[int]) -> tuple[int, ...]:
    first = next((x for x in column if x), 0)
    return tuple(-x for x in column) if first < 0 else tuple(column)


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated lattice {v : m*v = 0}, one vector per column.

    Two columns, as in the fixed lattice's 4g x 2 stack, take
    `_two_column_kernel`: a column echelon (Hermite) reduction, Cohen 2.4,
    carrying only the 2x2 column transform.  No package code passes another
    width; those read the kernel off `snf`: U*m*V = D with V unimodular, so
    V's columns past D's rank are a saturated kernel basis.  Each column's
    sign is normalized so its first nonzero entry is positive.
    """
    if m.cols == 2:
        columns = _two_column_kernel(m.entries)
    else:
        _, d, v = snf(m)
        r = sum(map(bool, d.diagonal()))
        columns = tuple(_normalize_column_sign(v.column(j)) for j in range(r, m.cols))
    return IntMatrix._trusted(tuple(tuple(column[i] for column in columns) for i in range(m.cols)), len(columns))


def _two_column_kernel(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """integer_kernel's reduction on k x 2: V is the 2x2 identity until the first nonzero row (x, y).

    There the gcd column operation makes V = [[a, -y/g], [b, x/g]], a*x + b*y = g.  The pivot (a, b) is set
    aside unread; the live column (-y/g, x/g) becomes a pivot at any later row it meets in a nonzero dot product.
    """
    rows = iter(rows)
    x, y = next((row for row in rows if any(row)), (0, 0))
    if not (x or y):
        return ((1, 0), (0, 1))
    g = gcd(x, y)
    q, s = -y // g, x // g
    return () if any(u * q + w * s for u, w in rows) else (_normalize_column_sign((q, s)),)


def cokernel_structure(m: IntMatrix) -> AbelianGroup:
    """Z^rows / column-span(m), read off the Smith invariants of its thin side; other shapes raise ValueError."""
    nonzero = _thin_invariants(_thin_side(m))
    return AbelianGroup(
        free_rank=m.rows - len(nonzero),
        invariant_factors=tuple(x for x in nonzero if x >= 2),
    )
