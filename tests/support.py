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
from torusbundles import SL2Z, IntMatrix, TorusBundle, fixed_sublattice, snf, xgcd

IDENTITY = SL2Z.identity()
UPPER = SL2Z(1, 1, 0, 1)
LOWER = SL2Z(1, 0, 1, 1)
ROTATION = SL2Z(0, -1, 1, 0)

WORD_LETTERS = (UPPER, UPPER.inverse(), LOWER, LOWER.inverse(), ROTATION)


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
            mats.append(_power(UPPER, k).conjugate(p))
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
    return tuple(m.conjugate(p) for m in slots)  # type: ignore[union-attr]


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
    word = [letter for i in range(g) for letter in ((2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1))]
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
