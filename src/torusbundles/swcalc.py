"""Seiberg-Witten polynomial combinatorics for circle bundles.

The circle bundle over a genus-g surface with Euler number n =/= 0 has a
Seiberg-Witten polynomial supported on residues mod |n|; its coefficients are
alternating binomial sums.  Everything here is reported with the sign(n)
normalization (the underlying invariant is only defined up to a global sign,
and this package always prints the sign(n) representative).

Two independent routes compute the same polynomial:

  * the direct alternating-binomial-sum formula, and
  * folding the product-bundle coefficient sequence
    c_s = (-1)^(g-1+s) * C(2g-2, g-1+s),  s in [-(g-1), g-1],
    into residues (even n folds into even indices only).

The routes share no binomial code: each builds its own row of C(2g-2, q), one
upward and one downward, so a fault in either row shows up as a disagreement.

On top of the polynomial sit the degree-zero invariants of the associated
principal torus bundle: a coset-sum evaluation, and a closed form with a
multiplicity prefactor |n| / gcd(|2m|, |n|).  The closed form sums the direct
polynomial over the subgroup <m>, i.e. over the residues divisible by
gcd(|m|, |n|), and agrees exactly with the coset evaluation.  That agreement
holds for n even with m odd too, but the closed form is offered only off those
cells, where the coset route is the contract; sw4_zero_routes evaluates
both routes for the CLI and the parity sweep.  sw4_zero_gcd reads the value off
the product coefficients and two gcds, and carries the proof that it is always even.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from ._record import Record, require_genus


class UnsupportedParityError(ValueError):
    """Raised when the closed form is requested for even n with odd m."""


class ResidueSet(Record):
    """Subgroup of Z_modulus, stored as the sorted tuple of member residues."""

    modulus: int
    members: tuple[int, ...]

    def _check(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if members[:1] != (0,) or members[-1] >= self.modulus:  # sorted, so the two ends bound every member
            raise ValueError(f"members must include 0 and lie in [0, {self.modulus - 1}]")
        for x in members:
            for y in members:
                if (x + y) % self.modulus not in members:
                    raise ValueError("member set is not closed under addition")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class SWPolynomial(Record):
    """Integer coefficients indexed by residues mod |n|, stored as the sorted nonzero (residue, coefficient) pairs."""

    modulus: int
    terms: tuple[tuple[int, int], ...]

    def _check(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        terms = sorted(self.terms)
        residues = {r for r, _ in terms}
        if len(residues) < len(terms) or not all(0 <= r < self.modulus for r in residues):
            raise ValueError(f"residues must be distinct and lie in [0, {self.modulus - 1}]")
        object.__setattr__(self, "terms", tuple((r, c) for r, c in terms if c != 0))

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The dense view: one coefficient for every residue 0..modulus-1."""
        dense = [0] * self.modulus
        for r, c in self.terms:
            dense[r] = c
        return tuple(dense)

    def nonzero_terms(self) -> tuple[tuple[int, int], ...]:
        return self.terms

    def render(self) -> str:
        terms = [str(c) if k == 0 else f"{c}*t^{k}" for k, c in self.nonzero_terms()]
        return " + ".join(terms) if terms else "0"


# The largest subgroup order cyclic_subgroup enumerates; ResidueSet's closure check is cubic in the order.  The opt-in
# tests/test_cli.py::test_sw0_finishes_at_the_subgroup_order_budget_and_refuses_one_above times sw0 at n = 800
MAX_SUBGROUP_ORDER = 800


def cyclic_subgroup(m: int, n: int) -> ResidueSet:
    """Subgroup of Z_|n| generated by m mod |n|.

    Its cardinality is |n| / gcd(|m|, |n|); n = 0 is rejected, and so is an
    order above MAX_SUBGROUP_ORDER, whose cubic closure check
    tests/test_cli.py::test_sw0_finishes_at_the_subgroup_order_budget_and_refuses_one_above
    times at the budget.
    """
    _require_nonzero(n)
    modulus = abs(n)
    step = gcd(abs(m), modulus)  # gcd(0, |n|) = |n|, so m = 0 yields {0}
    order = modulus // step
    if order > MAX_SUBGROUP_ORDER:
        raise ValueError(
            f"the subgroup generated by m = {m} mod n = {n} has order {order}, "
            f"above the {MAX_SUBGROUP_ORDER} that cyclic_subgroup enumerates"
        )
    return ResidueSet(modulus=modulus, members=tuple(range(0, modulus, step)))


# The largest genus the SW routes take: every value must print under Python's default 4,300-digit limit, which the
# CLI holds while it renders every SW command.  An sw0 value is at most MAX_SUBGROUP_ORDER * 2^(2g-2), 4,217 digits at
# g = 7,000 (past 4,300 from g = 7,139).  The opt-in
# tests/test_cli.py::test_swpoly_finishes_at_the_sw_genus_budget_and_refuses_one_above times swpoly there.
MAX_SW_GENUS = 7000


def _require_sw_genus(g: int) -> None:
    """require_genus, and refuse a genus above MAX_SW_GENUS, whose values could pass the digit limit for printing."""
    require_genus(g)
    if g > MAX_SW_GENUS:
        raise ValueError(f"genus {g} is above the {MAX_SW_GENUS} that the SW routes take")


def product_sw_coefficients(g: int) -> tuple[int, ...]:
    """Coefficient sequence c_s of the product S^1 x surface, s = -(g-1)..(g-1).

    Symmetric, alternating in sign, summing to zero; pinned down by the
    requirement that folding it mod n reproduces the circle-bundle
    polynomial for every n.
    """
    _require_sw_genus(g)
    # q = (g-1) + s runs over 0..2g-2, built upward: C(2g-2, q+1) = C(2g-2, q) (2g-2-q) / (q+1), exactly
    row = [1]
    for q in range(2 * g - 2):
        row.append(-row[-1] * (2 * g - 2 - q) // (q + 1))
    return tuple(row)


def _require_nonzero(n: int) -> None:
    if n == 0:
        raise ValueError("Euler number n must be nonzero")


def _sign(n: int) -> int:
    return 1 if n > 0 else -1


def _alternating_binomial_sum(row: list[int], start: int, step: int) -> int:
    """Sum of the signed row (-1)^q C(2g-2, q) over q = start, start + step, ... up to 2g-2."""
    return sum(row[start::step])


def sw_poly_circle_bundle(g: int, n: int) -> SWPolynomial:
    """Seiberg-Witten polynomial of the circle bundle with Euler number n over genus g.

    For even n = 2l the support sits at even indices 2i, 0 <= i < |l|, with
    coefficient sign(n) * sum_k (-1)^q C(2g-2, q), q = (g-1) + i + k|l|; for
    odd n the same sum with |l| replaced by |n| lands at index i directly.
    Only the residues i = (q - (g-1)) mod step, 0 <= q <= 2g-2, have a term
    in the sum, so each is evaluated once, from its smallest q.
    """
    _require_sw_genus(g)
    _require_nonzero(n)
    sign = _sign(n)
    spacing = 2 if n % 2 == 0 else 1
    step = abs(n) // spacing
    top = 2 * g - 2
    row = [0] * top + [1]  # (-1)^q C(top, q), built downward from q = top (even): C(top, q-1) = C(top, q) q / (top-q+1)
    for q in range(top, 0, -1):
        row[q - 1] = -row[q] * q // (top - q + 1)
    terms = tuple(
        (spacing * ((q - (g - 1)) % step), sign * _alternating_binomial_sum(row, q, step))
        for q in range(min(step, top + 1))
    )
    return SWPolynomial(modulus=abs(n), terms=terms)


@lru_cache(maxsize=1024)  # at least one genus row of n-values, which parity_sweep revisits for every m
def fold_product_poly(g: int, n: int) -> SWPolynomial:
    """Independent oracle: fold the product coefficients c_s into residues mod |n|.

    Odd n adds c_s at index s mod |n|; even n = 2l adds c_s at index
    2*(s mod |l|).  The sign(n) normalization matches the direct formula, so
    the two routes must agree coefficient for coefficient.
    """
    _require_sw_genus(g)
    _require_nonzero(n)
    sign = _sign(n)
    spacing = 2 if n % 2 == 0 else 1
    step = abs(n) // spacing
    terms: dict[int, int] = {}
    for s, c in enumerate(product_sw_coefficients(g), start=-(g - 1)):
        r = spacing * (s % step)
        terms[r] = terms.get(r, 0) + sign * c
    return SWPolynomial(modulus=abs(n), terms=tuple(terms.items()))


def sw4_zero_coset(g: int, m: int, n: int) -> int:
    """Degree-zero invariant of the principal torus bundle, summed coset by coset.

    Sums the circle-bundle polynomial coefficients over j with i - j in the
    doubled subgroup, for every i in the subgroup generated by m; this is
    the definition-level evaluation and is total for every nonzero n.  It
    reads the folded product coefficients, so it shares no polynomial kernel
    with the closed form's alternating sums.
    """
    poly = fold_product_poly(g, n)
    coefficient = dict(poly.terms)
    subgroup_m = cyclic_subgroup(m, n)
    # <k> is the multiples of gcd(k, n), so <2m> = <m> exactly when doubling m keeps the gcd (every odd n)
    subgroup_2m = subgroup_m if gcd(2 * m, n) == gcd(m, n) else cyclic_subgroup(2 * m, n)
    modulus = poly.modulus
    total = 0
    for i in subgroup_m:
        for delta in subgroup_2m:
            total += coefficient.get((i + delta) % modulus, 0)
    return total


def sw4_zero_closed(g: int, m: int, n: int) -> int:
    """Closed form for the degree-zero invariant.

    |n| / gcd(|2m|,|n|) times the direct polynomial summed over <m>: its
    terms whose residue is divisible by gcd(|m|,|n|), which carry sign(n).
    The prefactor is |<2m>|, the order of the doubled subgroup; gcd(|2m|,|n|)
    is d or 2d for d = gcd(|m|,|n|), according to whether doubling m doubles
    the gcd (never for odd n).  Even n requires even m (else
    UnsupportedParityError).  Must equal sw4_zero_coset everywhere it is
    defined.
    """
    _require_sw_genus(g)
    _require_nonzero(n)
    if n % 2 == 0 and m % 2 != 0:
        raise UnsupportedParityError(
            f"closed form undefined for even n = {n} with odd m = {m}; use the coset evaluation"
        )
    d = gcd(m, n)
    inner = sum(c for r, c in sw_poly_circle_bundle(g, n).terms if r % d == 0)
    return (abs(n) // gcd(2 * m, n)) * inner


def sw4_zero_routes(g: int, m: int, n: int) -> tuple[int, int | None]:
    """The degree-zero invariant by both routes, as (coset, closed).

    closed is None where the closed form is undefined (even n with odd m);
    the coset route is total and is the value reported.
    """
    coset = sw4_zero_coset(g, m, n)
    try:
        return coset, sw4_zero_closed(g, m, n)
    except UnsupportedParityError:
        return coset, None


def sw4_zero_gcd(g: int, m: int, n: int) -> int:
    """The degree-zero invariant as sign(n) * |<2m>| * S_g(e): even for every g >= 2, m and nonzero n.

    d = gcd(m, n); e = d / 2 when m and n are both even, else e = d; S_g(e) sums the product coefficients
    c_s over |s| <= g - 1 with e | s.  It equals sw4_zero_coset everywhere, by three lemmas:
      A. <2m> lies in <m>, so i + delta over i in <m> and delta in <2m> hits each element of <m> exactly
         |<2m>| times: the coset sum is |<2m>| times the folded polynomial summed over <m>.
      B. <m> is the multiples of d in Z_|n|.  c_s folds to s mod |n| (odd n) or 2 (s mod |n|/2) (even n),
         a multiple of d exactly when e | s, so the folded polynomial sums to sign(n) * S_g(e) over <m>.
      C. c_s = c_-s, so S_g(e) = c_0 + 2 * (the c_s with 0 < s <= g - 1, e | s), and
         c_0 = +-C(2g-2, g-1) = +-2 C(2g-3, g-2) is even for g >= 2.
    It reads only product_sw_coefficients, and builds no subgroup and no polynomial mod |n|.
    """
    _require_nonzero(n)
    d = gcd(m, n)
    e = d // 2 if m % 2 == 0 and n % 2 == 0 else d
    total = sum(c for s, c in enumerate(product_sw_coefficients(g), start=1 - g) if s % e == 0)
    return _sign(n) * (abs(n) // gcd(2 * m, n)) * total


class SweepCounterexample(Record):
    g: int
    m: int
    n: int
    value: int
    kind: str  # "odd-value" or "route-disagreement"
    detail: str


class SweepReport(Record):
    cases: int
    skipped: int
    all_even: bool
    counterexamples: tuple[SweepCounterexample, ...] = ()


def parity_sweep(
    g_values: Iterable[int],
    m_values: Iterable[int],
    n_values: Iterable[int],
) -> SweepReport:
    """Evaluate the degree-zero invariant over a grid and check it is always even.

    Cells with m = 0 or n = 0 are skipped and counted.  Each cell is
    evaluated by sw4_zero_routes; an odd value, and a closed route that
    disagrees with the coset route where it is defined, are reported as
    counterexamples with full inputs.  Cells are visited in ascending
    (g, m, n) order, so the report is deterministic.
    """
    gs = sorted(set(g_values))
    ms = sorted(set(m_values))
    ns = sorted(set(n_values))
    cases = 0
    skipped = 0
    counterexamples: list[SweepCounterexample] = []
    for g in gs:
        _require_sw_genus(g)
        for m in ms:
            for n in ns:
                if m == 0 or n == 0:
                    skipped += 1
                    continue
                cases += 1
                value, closed = sw4_zero_routes(g, m, n)
                if value % 2 != 0:
                    counterexamples.append(
                        SweepCounterexample(g, m, n, value, "odd-value", f"value {value} is odd")
                    )
                if closed is not None and closed != value:
                    counterexamples.append(
                        SweepCounterexample(
                            g, m, n, value, "route-disagreement", f"coset {value} != closed {closed}"
                        )
                    )
    return SweepReport(
        cases=cases,
        skipped=skipped,
        all_even=not any(c.kind == "odd-value" for c in counterexamples),
        counterexamples=tuple(counterexamples),
    )
