"""Reference answers and output checks, computed with plain integers.

Nothing here imports torusbundles: a check must not share code with the
program it checks.  A 2x2 matrix is the tuple (a, b, c, d) for
[[a, b], [c, d]], acting on column vectors.

Each check_* function returns None when the output is right and a one-line
reason when it is not; the benchmark counts every reason as a failed op.
"""

from __future__ import annotations

import json
from math import comb, gcd

IDENTITY = (1, 0, 0, 1)


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def relation_holds(mats) -> bool:
    """Whether [A1,A2][A3,A4]... is the identity, with [a, b] = a b a^-1 b^-1."""
    acc = IDENTITY
    for i in range(0, len(mats), 2):
        a, b = mats[i], mats[i + 1]
        acc = mul(mul(mul(mul(acc, a), b), inv(a)), inv(b))
    return acc == IDENTITY


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def relation_rank(mats, euler) -> int:
    """Rank of the 2 x (4g+1) matrix with columns (A_i - I)e_1, (A_i - I)e_2 and the Euler class.

    A 2-row matrix has rank 2 exactly when two of its columns are not parallel.
    """
    columns = []
    for a, b, c, d in mats:
        columns.append((a - 1, c))
        columns.append((b, d - 1))
    columns.append(tuple(euler))
    nonzero = [v for v in columns if v != (0, 0)]
    if not nonzero:
        return 0
    first = nonzero[0]
    return 2 if any(_cross(first, v) != 0 for v in nonzero[1:]) else 1


def fixed_lattice(mats):
    """Common fixed lattice of the monodromy: (rank, primitive generator or None).

    A non-identity A in SL(2,Z) fixes a line exactly when its trace is 2, and
    then the line is the kernel of the rank-1 matrix A - I.
    """
    line = None
    for a, b, c, d in mats:
        if (a, b, c, d) == IDENTITY:
            continue
        if a + d != 2:
            return 0, None
        v = (-b, a - 1) if (a - 1, b) != (0, 0) else (1 - d, c)
        if line is None:
            line = v
        elif _cross(line, v) != 0:
            return 0, None
    if line is None:
        return 2, None
    k = gcd(line[0], line[1])
    return 1, (line[0] // k, line[1] // k)


def expected_classification(genus: int, mats, euler) -> dict:
    """The fields of is_symplectic's report, from trace and kernel-line tests alone."""
    b1 = 2 * genus + 2 - relation_rank(mats, euler)
    fixed_rank, z = fixed_lattice(mats)
    if fixed_rank == 2:
        verdict = tuple(euler) == (0, 0)
    elif fixed_rank == 0:
        verdict = True
    else:
        verdict = _cross(z, euler) == 0
    return {
        "b1": b1,
        "b2": 2 * b1 - 2,
        "has_circle_action": fixed_rank >= 1,
        "symplectic": verdict,
        "betti_oracle": True,
        "spectral_oracle": True if relation_holds(mats) else None,
    }


def circle_poly(g: int, n: int) -> list[int]:
    """Dense SW polynomial of the circle bundle, by folding the product coefficients.

    c_s = (-1)^(g-1+s) C(2g-2, g-1+s) lands at s mod |n| for odd n and at
    2 (s mod |n|/2) for even n, times sign(n).
    """
    modulus = abs(n)
    sign = 1 if n > 0 else -1
    coeffs = [0] * modulus
    for q in range(2 * g - 1):
        s = q - (g - 1)
        c = comb(2 * g - 2, q) * (-1 if q % 2 else 1)
        index = s % modulus if n % 2 else 2 * (s % (modulus // 2))
        coeffs[index] += sign * c
    return coeffs


def sw0_value(g: int, m: int, n: int) -> int:
    """Degree-zero invariant: |<2m>| times the sum of P_j over j in <m>, inside Z_|n|.

    The coset sum over i in <m> and delta in <2m> collapses to this because
    <2m> is contained in <m>.
    """
    modulus = abs(n)
    poly = circle_poly(g, n)
    inner = sum(poly[j] for j in range(0, modulus, gcd(m, modulus)))
    return (modulus // gcd(2 * m, modulus)) * inner


def closed_form_defined(m: int, n: int) -> bool:
    return n % 2 != 0 or m % 2 == 0


def check_classify(expected: dict, got: dict) -> str | None:
    if "error" in got:
        return f"raised {got['error']}"
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key} = {got.get(key)!r}, expected {want!r}"
    if got["b2"] != 2 * got["b1"] - 2:
        return "b2 != 2*b1 - 2"
    return None


def check_sw0(g: int, m: int, n: int, got: dict) -> str | None:
    if "error" in got:
        return f"raised {got['error']}"
    want = sw0_value(g, m, n)
    if got["coset"] != want:
        return f"coset {got['coset']} != reference {want}"
    if want % 2:
        return f"value {want} is odd"
    if closed_form_defined(m, n) and got["closed"] != want:
        return f"closed {got['closed']} != coset {want}"
    if not closed_form_defined(m, n) and got["closed"] is not None:
        return "closed form reported where it is undefined"
    return None


def check_poly_pair(g: int, n: int, direct, folded) -> str | None:
    want = circle_poly(g, n)
    if list(direct) != want:
        return f"sw_poly_circle_bundle({g}, {n}) differs from the reference fold"
    if list(folded) != want:
        return f"fold_product_poly({g}, {n}) differs from the reference fold"
    return None


def check_sweep_row(m: int, n_values, got: dict) -> str | None:
    if "error" in got:
        return f"raised {got['error']}"
    want = {
        "cases": sum(1 for n in n_values if n != 0) if m != 0 else 0,
        "skipped": sum(1 for n in n_values if n == 0) if m != 0 else len(n_values),
        "all_even": True,
        "counterexamples": 0,
    }
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key} = {got.get(key)!r}, expected {value!r}"
    return None


def expected_cli_payload(op: dict) -> dict:
    """Fields of a --format=json payload that the reference can recompute."""
    cmd = op["command"]
    if cmd in ("classify", "homology", "spectral"):
        bundle = op["bundle"]
        mats = [tuple(x for row in m for x in row) for m in bundle["monodromy"]]
        want = expected_classification(bundle["genus"], mats, bundle["euler"])
        if cmd == "classify":
            return {k: want[k] for k in ("b1", "b2", "symplectic", "has_circle_action")}
        if cmd == "homology":
            return {"b1": want["b1"], "b2": want["b2"]}
        if want["spectral_oracle"] is None:
            # the rank test says nothing about a tuple that no fibration realizes
            return {"surface_relation_holds": False}
        return {"fiber_class_nonzero": want["symplectic"], "surface_relation_holds": True}
    if cmd == "swpoly":
        return {"coefficients": circle_poly(op["genus"], op["n"])}
    if cmd == "sw0":
        g, m, n = op["genus"], op["m"], op["n"]
        value = sw0_value(g, m, n)
        return {
            "coset_route": value,
            "closed_route": value if closed_form_defined(m, n) else None,
            "even": True,
        }
    g_lo, g_hi = op["g"]
    mn = range(op["mn"][0], op["mn"][1] + 1)
    cells = (g_hi - g_lo + 1) * len(mn) * len(mn)
    cases = (g_hi - g_lo + 1) * sum(1 for m in mn if m) * sum(1 for n in mn if n)
    return {"cases": cases, "skipped": cells - cases, "all_even": True, "counterexamples": []}


def check_cli(op: dict, got: dict, library: dict | None) -> str | None:
    """Exit code 0; a JSON payload must also match the library's answer and the reference."""
    if "error" in got:
        return f"raised {got['error']}"
    if got["returncode"] != 0:
        return f"exit code {got['returncode']}: {got['stderr'].strip()[:200]}"
    if not got["stdout"].strip():
        return "empty output"
    if op["format"] != "json":
        return None
    try:
        payload = json.loads(got["stdout"])
    except ValueError:
        return "output is not JSON"
    for key, want in (library or {}).items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)!r}, library says {want!r}"
    for key, want in expected_cli_payload(op).items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)!r}, reference says {want!r}"
    return None
