"""Exact integer linear algebra.

Three reductions that share no code serve different callers.  `snf` returns
the Smith diagonal with both unimodular transforms; it is public and tested,
but no classification calls it.  `integer_kernel` is a column echelon
(Hermite) reduction that carries only the column transform, and the fixed
lattice behind the rule-based verdict runs on it.  `_smith_diagonal` returns
only the nonzero invariant factors; `rank` and `cokernel_structure` use it,
and with them b1/b2, the Betti oracle and the spectral oracle's E2 ranks.
So the rule route and the oracles reach every verdict on different kernels.
The module also computes determinants and binomial coefficients, all with
Python's unbounded integers; nothing in this package touches floating point.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Sequence

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


class IntMatrix:
    """Immutable integer matrix; rows and columns may be zero."""

    __slots__ = ("_entries", "_cols")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = []
        for row in entries:
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
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} disagrees with row length {width}")
        else:
            width = 0 if cols is None else cols
        if width < 0:
            raise ValueError("negative column count")
        self._entries = tuple(rows)
        self._cols = width

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Wrap row tuples the package built from already-checked integers, skipping the checks."""
        m = object.__new__(cls)
        m._entries = rows
        m._cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def rows(self) -> int:
        return len(self._entries)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._entries

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self._entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        entries = self._entries
        columns = tuple(tuple(row[j] for row in entries) for j in range(self._cols))
        return IntMatrix._trusted(columns, len(entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = tuple(
            tuple(sum(row[k] * other._entries[k][j] for k in range(self.cols)) for j in range(other.cols))
            for row in self._entries
        )
        return IntMatrix._trusted(out, other.cols)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self._entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._entries for x in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._entries == other._entries and self._cols == other._cols

    def __hash__(self) -> int:
        return hash((self._entries, self._cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._entries]!r}, cols={self._cols})"


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


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V) with U*m*V = D.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... and any
    zeros trailing; U and V are unimodular.  Total on all integer matrices,
    including empty and zero ones.  The reduction is plain gcd elimination
    with every row/column operation folded into U and V, which keeps the
    U*m*V = D contract checkable by direct multiplication.
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

    def swap_rows(i1: int, i2: int) -> None:
        if i1 != i2:
            for mat in (a, u):
                mat[i1], mat[i2] = mat[i2], mat[i1]

    def swap_cols(j1: int, j2: int) -> None:
        if j1 != j2:
            for mat in (a, v):
                for row in mat:
                    row[j1], row[j2] = row[j2], row[j1]

    size = min(nr, nc)
    for t in range(size):
        # deterministic pivot: smallest absolute value, ties by position
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, nr):
                q = a[i][t]
                if q == 0:
                    continue
                p = a[t][t]
                if q % p == 0:
                    row_op(t, i, 1, 0, -(q // p), 1)
                else:
                    g, x, y = xgcd(p, q)
                    row_op(t, i, x, y, -(q // g), p // g)
            if all(a[t][j] == 0 for j in range(t + 1, nc)):
                break
            for j in range(t + 1, nc):
                q = a[t][j]
                if q == 0:
                    continue
                p = a[t][t]
                if q % p == 0:
                    col_op(t, j, 1, 0, -(q // p), 1)
                else:
                    g, x, y = xgcd(p, q)
                    col_op(t, j, x, y, -(q // g), p // g)
            if all(a[i][t] == 0 for i in range(t + 1, nr)):
                break

    # nonnegative diagonal, sign flips folded into U
    for i in range(size):
        if a[i][i] < 0:
            for mat in (a, u):
                mat[i] = [-x for x in mat[i]]

    # enforce the divisibility chain (zeros migrate to the end)
    changed = True
    while changed:
        changed = False
        for i in range(size):
            for j in range(i + 1, size):
                di, dj = a[i][i], a[j][j]
                if di == 0 and dj != 0:
                    swap_rows(i, j)
                    swap_cols(i, j)
                    changed = True
                elif di != 0 and dj % di != 0:
                    g, x, y = xgcd(di, dj)
                    # diag (di, dj) -> (g, lcm) via a unimodular pair of ops
                    row_op(i, j, x, y, -(dj // g), di // g)
                    col_op(i, j, 1, 1, -(y * dj) // g, (x * di) // g)
                    changed = True

    return (
        IntMatrix._trusted(tuple(map(tuple, u)), nr),
        IntMatrix._trusted(tuple(map(tuple, a)), nc),
        IntMatrix._trusted(tuple(map(tuple, v)), nc),
    )


def _smith_diagonal(m: IntMatrix) -> list[int]:
    """Nonzero Smith invariants d1 | d2 | ... of m, computed without transforms.

    Works on the thin side: a matrix with more rows than columns is reduced
    as its transpose, which has the same invariants, so each pivot sweeps
    the long side once.  Every pivot row is cleared by gcd column operations
    and its column by row operations until the pivot is alone; the collected
    pivots are the diagonal of an equivalent matrix, and pairwise gcd/lcm
    steps then bring them into the divisibility chain.
    """
    a = [list(r) for r in (m.entries if m.rows <= m.cols else zip(*m.entries))]
    diag = []
    while a := [r for r in a if any(r)]:
        # start from the smallest entry, which keeps the cofactors and so the entries small
        _, i, j = min((abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x)
        for r in a:
            r[0], r[j] = r[j], r[0]
        pivot_row, rest = a[i], a[:i] + a[i + 1:]
        while True:
            for j in range(1, len(pivot_row)):
                q = pivot_row[j]
                if q == 0:
                    continue
                p = pivot_row[0]
                if q % p == 0:
                    f = q // p
                    for r in a:
                        r[j] -= f * r[0]
                else:
                    g, x, y = xgcd(p, q)
                    p, q = p // g, q // g
                    for r in a:
                        r[0], r[j] = x * r[0] + y * r[j], p * r[j] - q * r[0]
            p = pivot_row[0]
            for r in rest:
                q = r[0]
                if q % p:
                    g, x, y = xgcd(p, q)
                    p, q = p // g, q // g
                    pivot_row[:], r[:] = (
                        [x * u + y * w for u, w in zip(pivot_row, r)],
                        [p * w - q * u for u, w in zip(pivot_row, r)],
                    )
                    break
                r[0] = 0  # the pivot row is (p, 0, ..., 0) here, so subtracting q/p of it touches only r[0]
            else:
                break
        diag.append(abs(pivot_row[0]))
        a = [r[1:] for r in rest]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def rank(m: IntMatrix) -> int:
    """Rank of an integer matrix (count of nonzero Smith invariants)."""
    return len(_smith_diagonal(m))


def _normalize_column_sign(column: Sequence[int]) -> tuple[int, ...]:
    first = next((x for x in column if x), 0)
    return tuple(-x for x in column) if first < 0 else tuple(column)


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated lattice {v : m*v = 0}, one vector per column.

    Column echelon (Hermite) reduction, Cohen 2.4, carrying only the column
    transform V: each column of m is extended by the matching column of the
    identity, and row by row, gcd column operations leave one column with a
    nonzero entry there, which is set aside as that row's pivot.  The columns
    left have zero m part, and V is unimodular, so their V parts are a
    saturated kernel basis.  Without a left transform a 4g x 2 stack costs a
    constant number of column operations of length 4g + 2.  Each column's
    sign is normalized so its first nonzero entry is positive.
    """
    nr, nc = m.rows, m.cols
    live = [[*m.column(j), *(int(i == j) for i in range(nc))] for j in range(nc)]
    for i in [i for i, row in enumerate(m.entries) if any(row)]:  # column operations keep a zero row zero
        if not live:
            break
        hits = [c for c in live if c[i]]
        if not hits:
            continue
        hits.sort(key=lambda c: abs(c[i]))
        pivot, live = hits[0], [c for c in live if c is not hits[0]]
        for c in hits[1:]:
            p, q = pivot[i], c[i]
            if q % p == 0:
                f = q // p
                c[:] = [w - f * u for u, w in zip(pivot, c)]
            else:
                g, x, y = xgcd(p, q)
                p, q = p // g, q // g
                pivot[:], c[:] = (
                    [x * u + y * w for u, w in zip(pivot, c)],
                    [p * w - q * u for u, w in zip(pivot, c)],
                )
    columns = tuple(_normalize_column_sign(c[nr:]) for c in live)
    return IntMatrix._trusted(columns, nc).transpose()


def cokernel_structure(m: IntMatrix) -> AbelianGroup:
    """Isomorphism type of Z^rows / column-span(m), read off the Smith invariants."""
    nonzero = _smith_diagonal(m)
    return AbelianGroup(
        free_rank=m.rows - len(nonzero),
        invariant_factors=tuple(x for x in nonzero if x >= 2),
    )


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def binomial(p: int, q: int) -> int:
    """C(p, q) with the convention that out-of-range q gives 0.

    Returns 0 for q < 0 or q > p; rejects negative p, which no in-scope
    formula ever produces.
    """
    if p < 0:
        raise ValueError(f"binomial requires p >= 0, got p={p}")
    if q < 0 or q > p:
        return 0
    return comb(p, q)


def stack_rows(matrices: Iterable[IntMatrix]) -> IntMatrix:
    """Stack matrices vertically; all must share a column count."""
    mats = list(matrices)
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vertical stack")
    return IntMatrix._trusted(tuple(row for m in mats for row in m.entries), cols)


def stack_columns(matrices: Iterable[IntMatrix]) -> IntMatrix:
    """Stack matrices horizontally; all must share a row count."""
    mats = list(matrices)
    if not mats:
        raise ValueError("nothing to stack")
    height = mats[0].rows
    if any(m.rows != height for m in mats):
        raise ValueError("row count mismatch in horizontal stack")
    rows = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(height))
    return IntMatrix._trusted(rows, sum(m.cols for m in mats))
