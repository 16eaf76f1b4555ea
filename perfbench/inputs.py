"""Seeded inputs for every workload, built without calling into torusbundles.

Matrices are plain integer tuples (a, b, c, d).  Relation-satisfying
monodromy comes from the same families the test suite draws from: one slot
of a handle arbitrary with the identity as its partner, commuting powers of
one matrix, mirrored handle pairs (A, B)(B, A), and conjugated
upper-unitriangular tuples that share a fixed line.

Where a workload's median or tail depends on a few large inputs (high
genus, large cyclic subgroups), their sizes are stratified rather than
drawn, and the seed picks everything else: the order, the matrices, the
signs.  So a second seed gives other inputs of the same sizes, and the
figures move with the program, not with the draw.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import gcd, log

from reference import IDENTITY, fixed_lattice, inv, mul, relation_holds

UPPER = (1, 1, 0, 1)
LOWER = (1, 0, 1, 1)
ROTATION = (0, -1, 1, 0)
LETTERS = (UPPER, inv(UPPER), LOWER, inv(LOWER), ROTATION)

# steps of a Kronecker sequence; 1 and the three are independent over Q
STEPS = ((5**0.5 - 1) / 2, 2**0.5 - 1, 3**0.5 - 1)

CLASSIFY_OPS = 800
MINORITY_EVERY = 33  # one op in 33 (about 3%) is a high-genus bundle
MINORITY_GENUS = (16, 64)
SW_LARGE_OPS = 100
SW_LARGE_MODULUS = (40, 256)
GRID_GENUS = range(2, 21)
GRID_MN = range(-20, 21)
GRID_SAMPLE_CELLS = 200
CLI_ROUNDS = 3
CLI_PARITY_ARGS = {"g": (2, 3), "mn": (-4, 4)}


def stratified(count: int, lo: int, hi: int) -> list[int]:
    """count integers spread evenly over [lo, hi], both ends included."""
    return [lo + round((hi - lo) * k / (count - 1)) for k in range(count)]


def kronecker(count: int) -> list[tuple[float, ...]]:
    """count points ((k + 1/2) * step mod 1 for each of STEPS): evenly spread over the unit cube."""
    return [tuple((k + 0.5) * step % 1.0 for step in STEPS) for k in range(count)]


def _word(rng: random.Random, max_len: int):
    out = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        out = mul(out, rng.choice(LETTERS))
    return out


def _power(m, k: int):
    out = IDENTITY
    base = m if k >= 0 else inv(m)
    for _ in range(abs(k)):
        out = mul(out, base)
    return out


def _conjugate(m, p):
    return mul(mul(p, m), inv(p))


def valid_monodromy(rng: random.Random, g: int, max_len: int, unipotent: bool | None = None) -> list:
    """Random 2g-tuple satisfying the surface relation.

    unipotent picks the family: conjugated powers of one unipotent matrix,
    or a mixture of handles.  None draws it, the first with chance 0.3.
    """
    if unipotent is None:
        unipotent = rng.random() < 0.3
    if unipotent:
        p = _word(rng, max_len)
        return [_conjugate(_power(UPPER, rng.randint(-2, 2)), p) for _ in range(2 * g)]
    slots = []
    while len(slots) < 2 * g:
        mode = rng.randint(0, 2)
        if mode == 2 and len(slots) + 4 <= 2 * g:
            a, b = _word(rng, max_len), _word(rng, max_len)
            slots += [a, b, b, a]
        elif mode == 1:
            c = _word(rng, max_len)
            slots += [_power(c, rng.randint(-2, 2)), _power(c, rng.randint(-2, 2))]
        else:
            a = _word(rng, max_len)
            slots += [a, IDENTITY] if rng.random() < 0.5 else [IDENTITY, a]
    p = _word(rng, 3)
    return [_conjugate(m, p) for m in slots]


def _euler(rng: random.Random, mats) -> tuple[int, int]:
    if rng.random() < 0.05:
        big = 10**30
        return (rng.choice((-1, 1)) * (big + rng.randint(0, 999)), rng.randint(-big, big))
    euler = (rng.randint(-5, 5), rng.randint(-5, 5))
    rank, z = fixed_lattice(mats)
    if rank == 1 and rng.random() < 0.4:
        t = rng.randint(-2, 2)
        euler = (t * z[0], t * z[1])
    return euler


def bundle_doc(genus: int, mats, euler) -> dict:
    return {
        "genus": genus,
        "monodromy": [[[a, b], [c, d]] for a, b, c, d in mats],
        "euler": list(euler),
    }


def classify_inputs(rng: random.Random) -> list[dict]:
    """Bundle documents: g 2-4, with every 33rd op a relation-satisfying bundle at g 16-64.

    Among the g 2-4 ops, 5% have trivial monodromy (fixed rank 2), 11% are
    unconstrained tuples (most violate the surface relation), 5% use
    SL(2,Z) words of length up to 40; 5% of all ops have Euler components
    near 10^30.  The high-genus ops, which set the tail, alternate between
    the two families in genus order and use words of length up to 5, so the
    seed changes their matrices but not their family or word length: drawn,
    those moved the cost of one op at a given genus by up to 25%.
    """
    slots = [i for i in range(CLASSIFY_OPS) if i % MINORITY_EVERY == MINORITY_EVERY // 2]
    minority = [(genus, k % 2 == 0) for k, genus in enumerate(stratified(len(slots), *MINORITY_GENUS))]
    rng.shuffle(minority)
    ops = []
    for i in range(CLASSIFY_OPS):
        max_len = 40 if rng.random() < 0.05 else 5
        if i % MINORITY_EVERY == MINORITY_EVERY // 2:
            genus, unipotent = minority.pop()
            mats = valid_monodromy(rng, genus, 5, unipotent)
        else:
            genus = rng.randint(2, 4)
            kind = rng.random()
            if kind < 0.05:
                mats = [IDENTITY] * (2 * genus)
            elif kind < 0.16:
                mats = [_word(rng, max_len) for _ in range(2 * genus)]
            else:
                mats = valid_monodromy(rng, genus, max_len)
        euler = _euler(rng, mats)
        doc = bundle_doc(genus, mats, euler)
        ops.append({"text": json.dumps(doc), "genus": genus, "mats": mats, "euler": euler})
    return ops


def classify_histogram(ops: list[dict]) -> dict:
    return {
        "genus": dict(sorted(Counter(op["genus"] for op in ops).items())),
        "fixed_rank": dict(sorted(Counter(fixed_lattice(op["mats"])[0] for op in ops).items())),
        "relation_holds": dict(Counter(relation_holds(op["mats"]) for op in ops)),
    }


def sw_large_inputs(rng: random.Random) -> list[dict]:
    """Cells (g, m, n) with g 2-12 and |n| 40-256, both signs and parities.

    The order |<m>| = |n| / gcd(m, n) is placed near |n|^min(1, 2.5t) with t
    spread over [0, 1]: 60% of the cells generate all of Z_|n|, as a random
    m mostly does, so the median falls among them, and the rest range from
    {0} upwards.
    """
    lo, hi = SW_LARGE_MODULUS
    points = kronecker(SW_LARGE_OPS)
    rng.shuffle(points)
    ops = []
    for u, t, v in points:
        modulus = lo + int((hi - lo + 1) * u)
        divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
        d = min(divisors, key=lambda d: abs(log(modulus / d) - min(1.0, 2.5 * t) * log(modulus)))
        order = modulus // d
        unit = rng.choice([k for k in range(1, order + 1) if gcd(k, order) == 1])
        m = rng.choice((-1, 1)) * d * unit
        n = rng.choice((-1, 1)) * modulus
        # keeps the literal coset sum within any budget of 10^5 pairs
        assert order * (modulus // gcd(2 * m, modulus)) <= 10**5
        ops.append({"g": 2 + int(11 * v), "m": m, "n": n})
    return ops


def grid_inputs(rng: random.Random) -> tuple[list[dict], list[tuple[int, int, int]]]:
    """Rows (g, m != 0) of the paper's default grid in ascending order, and cells to spot-check.

    The grid itself is fixed; the seed picks which cells are evaluated
    singly after the timed loop.
    """
    rows = [{"g": g, "m": m} for g in GRID_GENUS for m in GRID_MN if m != 0]
    cells = [(g, m, n) for g in GRID_GENUS for m in GRID_MN for n in GRID_MN if m and n]
    return rows, sorted(rng.sample(cells, GRID_SAMPLE_CELLS))


def cli_inputs(rng: random.Random) -> list[dict]:
    """Each round: all six subcommands in text and JSON on small seeded inputs.

    Bundle-file ops carry the document; the file path is filled in when the
    files are written.
    """
    ops = []
    for _ in range(CLI_ROUNDS):
        genus = rng.randint(2, 3)
        mats = valid_monodromy(rng, genus, 5)
        bundle = bundle_doc(genus, mats, _euler(rng, mats))
        swpoly = {"genus": rng.randint(2, 4), "n": rng.choice((-1, 1)) * rng.randint(1, 12)}
        sw0 = {
            "genus": rng.randint(2, 4),
            "m": rng.choice((-1, 1)) * rng.randint(1, 12),
            "n": rng.choice((-1, 1)) * rng.randint(1, 12),
        }
        for fmt in ("text", "json"):
            for command in ("classify", "homology", "spectral"):
                ops.append({"command": command, "format": fmt, "bundle": bundle})
            ops.append({"command": "swpoly", "format": fmt, **swpoly})
            ops.append({"command": "sw0", "format": fmt, **sw0})
            ops.append({"command": "verify-parity", "format": fmt, **CLI_PARITY_ARGS})
    return ops


def cli_argv(op: dict, bundle_path: str | None) -> list[str]:
    command = op["command"]
    if command in ("classify", "homology", "spectral"):
        argv = [command, bundle_path]
    elif command == "swpoly":
        argv = [command, "--genus", str(op["genus"]), "--n", str(op["n"])]
    elif command == "sw0":
        argv = [command, "--genus", str(op["genus"]), "--m", str(op["m"]), "--n", str(op["n"])]
    else:
        (g_lo, g_hi), (lo, hi) = op["g"], op["mn"]
        argv = [command, "--g", f"{g_lo}..{g_hi}", "--mn", f"{lo}..{hi}"]
    return argv + [f"--format={op['format']}"]
