"""Shared helpers for the test suite.

Random monodromy tuples are drawn so that the product of commutators
[A_1,A_2][A_3,A_4]... is the identity, i.e. so the tuple is the monodromy of
an honest bundle (a homomorphism from the base surface group).  The mixed
families below cover all three fixed-lattice ranks:

  * one slot of a handle pair arbitrary, the partner the identity
    (commutator trivially cancels);
  * both slots powers of a common matrix (commuting pair);
  * two consecutive handles carrying (A, B) and (B, A) (mirrored pair,
    the second commutator inverts the first);
  * every slot a conjugated upper-unitriangular matrix (common fixed line).

In all of these the running product of commutators is never nontrivial
after two handles in a row.  random_mirrored_monodromy draws tuples
whose running product stays nontrivial across handles; such tuples fix no
nonzero vector, because the stabilizer of one in SL(2,Z) is abelian.

A final global conjugation preserves the relation and spreads the tuples
over SL(2,Z).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import torusbundles
from torusbundles import SL2Z, IntMatrix, Lattice, TorusBundle, exactla, fixed_sublattice, snf, xgcd

IDENTITY = SL2Z.identity()
UPPER = SL2Z(1, 1, 0, 1)
LOWER = SL2Z(1, 0, 1, 1)
ROTATION = SL2Z(0, -1, 1, 0)

WORD_LETTERS = (UPPER, UPPER.inverse(), LOWER, LOWER.inverse(), ROTATION)


def apply(m: SL2Z, v: tuple[int, int]) -> tuple[int, int]:
    """m * v for a column vector v."""
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def conjugate(m: SL2Z, p: SL2Z) -> SL2Z:
    """p * m * p^-1, by the package's trusted product and inverse."""
    return p * m * p.inverse()


def conjugate_bundle(b: TorusBundle, p: SL2Z) -> TorusBundle:
    """Change of fiber basis: conjugate the monodromy by p and push the Euler class through p."""
    return TorusBundle(b.genus, tuple(conjugate(m, p) for m in b.monodromy), apply(p, b.euler))


def relation_sublattice(b: TorusBundle) -> Lattice:
    """Saturation of the subgroup of Z^2 generated by the vectors A*x - x, the reference for rank D1.

    The generators are the columns of the matrices A_i - I.  Rank 0 exactly for trivial monodromy; rank 1
    exactly for nontrivial monodromy with a common fixed vector, in which case the lattice spans the same
    line as fixed_sublattice.  It does not call fixed_sublattice, and it reads integer_kernel off
    torusbundles.exactla at each call, so a test that replaces the kernel everywhere reaches it too.
    """
    # the 4g x 2 stack of the transposed blocks (A_i - I)^T, one row per generator
    generators = [row for m in b.monodromy for row in ((m.a - 1, m.c), (m.b, m.d - 1))]
    orthogonal = exactla.integer_kernel(IntMatrix(generators, cols=2))
    saturation = exactla.integer_kernel(orthogonal.transpose())
    return Lattice(tuple(zip(*saturation.entries)))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)


def columns(m: IntMatrix) -> list[tuple[int, ...]]:
    return [m.column(j) for j in range(m.cols)]


def random_sl2z(rng: random.Random, max_len: int = 5) -> SL2Z:
    """Random word of length <= max_len in the standard SL(2,Z) letters."""
    out = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        out = out * rng.choice(WORD_LETTERS)
    return out


def _power(m: SL2Z, k: int) -> SL2Z:
    out = IDENTITY
    base = m if k >= 0 else m.inverse()
    for _ in range(abs(k)):
        out = out * base
    return out


def random_valid_monodromy(rng: random.Random, g: int, max_len: int = 5) -> tuple[SL2Z, ...]:
    """Random 2g-tuple satisfying the surface relation."""
    if rng.random() < 0.3:
        # common fixed line: conjugated unitriangular tuple (all commute)
        p = random_sl2z(rng, max_len)
        mats = []
        for _ in range(2 * g):
            k = rng.randint(-2, 2)
            mats.append(conjugate(_power(UPPER, k), p))
        return tuple(mats)

    slots: list[SL2Z | None] = [None] * (2 * g)
    handle = 0
    while handle < g:
        mode = rng.randint(0, 2)
        if mode == 0:
            a = random_sl2z(rng, max_len)
            if rng.random() < 0.5:
                slots[2 * handle], slots[2 * handle + 1] = a, IDENTITY
            else:
                slots[2 * handle], slots[2 * handle + 1] = IDENTITY, a
            handle += 1
        elif mode == 1:
            c = random_sl2z(rng, max_len)
            slots[2 * handle] = _power(c, rng.randint(-2, 2))
            slots[2 * handle + 1] = _power(c, rng.randint(-2, 2))
            handle += 1
        else:
            if handle + 1 < g:
                a, b = random_sl2z(rng, max_len), random_sl2z(rng, max_len)
                slots[2 * handle], slots[2 * handle + 1] = a, b
                slots[2 * handle + 2], slots[2 * handle + 3] = b, a
                handle += 2
            else:
                slots[2 * handle], slots[2 * handle + 1] = random_sl2z(rng, max_len), IDENTITY
                handle += 1

    p = random_sl2z(rng, 3)
    return tuple(conjugate(m, p) for m in slots)  # type: ignore[arg-type]


def random_mirrored_monodromy(rng: random.Random, g: int, max_len: int = 4) -> tuple[SL2Z, ...]:
    """Random 2g-tuple satisfying the surface relation whose running commutator product stays nontrivial.

    The handles (a_1, b_1), ..., (a_h, b_h) with h = g // 2, each pair drawn until it does not commute, are
    followed by their mirror (b_h, a_h), ..., (b_1, a_1); since [b, a] = [a, b]^-1 the second half unwinds the
    first, so the prefix a Fox walk carries into each handle is a product of up to h commutators rather than one
    that resets within a handle, as random_valid_monodromy's shapes do.  An odd genus gets one identity handle at
    a seeded position, and a final common conjugation spreads the tuple over SL(2,Z).
    """
    pairs: list[tuple[SL2Z, SL2Z]] = []
    while len(pairs) < g // 2:
        a, b = random_sl2z(rng, max_len), random_sl2z(rng, max_len)
        if a * b != b * a:
            pairs.append((a, b))
    handles = pairs + [(b, a) for a, b in reversed(pairs)]
    if g % 2:
        handles.insert(rng.randint(0, len(handles)), (IDENTITY, IDENTITY))
    p = random_sl2z(rng, 3)
    return tuple(conjugate(m, p) for handle in handles for m in handle)


# A word in the free group on a_1, b_1, ..., a_g, b_g is a tuple of letters (j, e): generator j (a_i = 2i - 2,
# b_i = 2i - 1) to the power e = 1 or -1.  A move on the base is the images of the 2g generators as words.
def free_reduce(word: tuple) -> tuple:
    out: list = []
    for j, e in word:
        if out and out[-1] == (j, -e):
            out.pop()
        else:
            out.append((j, e))
    return tuple(out)


def inverse_word(word: tuple) -> tuple:
    return tuple((j, -e) for j, e in reversed(word))


def surface_relator(g: int) -> tuple:
    """[a_1, b_1] ... [a_g, b_g] with [x, y] = x y x^-1 y^-1, the product surface_relation_holds multiplies out."""
    return tuple(letter for i in range(g) for letter in ((2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)))


def substitute(word: tuple, images: list) -> tuple:
    """The free reduction of word with each generator replaced by its image under a move."""
    return free_reduce(tuple(x for j, e in word for x in (images[j] if e > 0 else inverse_word(images[j]))))


def evaluate(word: tuple, monodromy) -> SL2Z:
    """The product of the word's letters in monodromy, left to right."""
    out = IDENTITY
    for j, e in word:
        out = out * (monodromy[j] if e > 0 else monodromy[j].inverse())
    return out


def handle_swap(g: int, h: int) -> list:
    """Swap handles h and h + 1: (a, b, a', b') -> (a', b', C^-1 a C, C^-1 b C) with C = [a', b']."""
    images = [((j, 1),) for j in range(2 * g)]
    a, b, a2, b2 = images[2 * h : 2 * h + 4]
    c = a2 + b2 + inverse_word(a2) + inverse_word(b2)
    images[2 * h : 2 * h + 4] = [a2, b2, inverse_word(c) + a + c, inverse_word(c) + b + c]
    return images


def random_arbitrary_monodromy(rng: random.Random, g: int, max_len: int = 5) -> tuple[SL2Z, ...]:
    """Unconstrained tuple of 2g random matrices (may violate the surface relation)."""
    return tuple(random_sl2z(rng, max_len) for _ in range(2 * g))


def random_valid_bundle(rng: random.Random, g: int, euler_bound: int = 5) -> TorusBundle:
    """Random bundle with relation-satisfying monodromy and Euler class in the box.

    With some probability the Euler class is forced onto the orbit-class
    line when one exists, so the multiple-of-z branch gets exercised.
    """
    monodromy = random_valid_monodromy(rng, g)
    euler = (rng.randint(-euler_bound, euler_bound), rng.randint(-euler_bound, euler_bound))
    probe = TorusBundle(g, monodromy, (0, 0))
    fixed = fixed_sublattice(probe)
    if fixed.rank == 1 and rng.random() < 0.4:
        z = fixed.basis[0]
        t = rng.randint(-2, 2)
        candidate = (t * z[0], t * z[1])
        if abs(candidate[0]) <= euler_bound and abs(candidate[1]) <= euler_bound:
            euler = candidate
    return TorusBundle(g, monodromy, euler)


def replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Rebind fn to replacement in every torusbundles module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "torusbundles" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn everywhere it is bound; each call appends its arguments to the returned list."""
    calls: list = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    replace_everywhere(monkeypatch, fn, counted)
    return calls


def snf_kernel(m: IntMatrix) -> IntMatrix:
    """Saturated kernel basis read off snf's right transform, the reference for integer_kernel.

    A matrix taller than wide is replaced by M^T M, which has the same kernel (x^T M^T M x = |Mx|^2) and is
    only cols x cols, so snf builds no rows x rows left transform.
    """
    if m.rows > m.cols:
        m = m.transpose() @ m
    _, d, v = snf(m)
    diag = d.diagonal()
    keep = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return IntMatrix([[v[i, j] for j in keep] for i in range(m.cols)], cols=len(keep))


def _mul2(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3], x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _inv2(x: tuple) -> tuple:
    return (x[3], -x[1], -x[2], x[0])


def reference_fox_matrices(g: int, monodromy) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Rows of (D2, D1) by the plain Fox walk, the reference for spectral.fox_boundary_matrices.

    Works on (a, b, c, d) integer tuples and spells out the relator
    a_1 b_1 a_1^-1 b_1^-1 ... itself, so it shares no code with the package's
    walk or its SL2Z arithmetic.  Each generator x_j walks the whole relator
    with the prefix inverse rho(w)^-1, recomputing the inverse of a matrix at
    every positive letter: a positive x_j subtracts the prefix before the
    letter, a negative one adds the prefix after it.
    """
    mats = [(m.a, m.b, m.c, m.d) for m in monodromy]
    word = surface_relator(g)
    d2: list[tuple[int, int]] = []
    for j in range(2 * g):
        block, prefix = [0, 0, 0, 0], (1, 0, 0, 1)
        for idx, sign in word:
            if sign > 0:
                if idx == j:
                    block = [s - p for s, p in zip(block, prefix)]
                prefix = _mul2(_inv2(mats[idx]), prefix)
            else:
                prefix = _mul2(mats[idx], prefix)
                if idx == j:
                    block = [s + p for s, p in zip(block, prefix)]
        d2 += [(block[0], block[1]), (block[2], block[3])]
    d1_top, d1_bottom = [], []
    for m in mats:
        a, b, c, d = _inv2(m)
        d1_top += [1 - a, -b]
        d1_bottom += [-c, 1 - d]
    return tuple(d2), (tuple(d1_top), tuple(d1_bottom))


def sl2z_with_column(a: int, c: int) -> SL2Z:
    """A checked SL(2,Z) matrix whose first column is (a, c) made primitive, completed by Bezout."""
    g = gcd(a, c) or 1
    a, c = (a // g, c // g) if a or c else (1, 0)
    _, x, y = xgcd(a, c)
    return SL2Z(a, -y, c, x)


def fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's package; return the last line it prints."""
    src = str(Path(torusbundles.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        check=True,
    )
    return proc.stdout.splitlines()[-1]
