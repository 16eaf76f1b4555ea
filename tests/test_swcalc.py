from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusbundles import (
    ResidueSet,
    SWPolynomial,
    UnsupportedParityError,
    cyclic_subgroup,
    fold_product_poly,
    parity_sweep,
    product_sw_coefficients,
    sw4_zero_closed,
    sw4_zero_coset,
    sw4_zero_gcd,
    sw4_zero_routes,
    sw_poly_circle_bundle,
    swcalc,
)

from support import count_calls


def signed_row(g):
    """(-1)^q C(2g-2, q) for q = 0..2g-2 by math.comb, the reference for both routes' rows."""
    return tuple((-1) ** q * comb(2 * g - 2, q) for q in range(2 * g - 1))


class TestCyclicSubgroup:
    def test_examples(self):
        assert cyclic_subgroup(3, 3).members == (0,)
        assert cyclic_subgroup(1, 3).members == (0, 1, 2)
        assert cyclic_subgroup(4, 6).members == (0, 2, 4)

    def test_cardinality(self):
        from math import gcd

        for m in range(-15, 16):
            for n in list(range(-12, 0)) + list(range(1, 13)):
                # gcd(0, |n|) = |n|, so the formula covers m = 0 as well
                assert len(cyclic_subgroup(m, n)) == abs(n) // gcd(abs(m), abs(n))

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError, match="^Euler number n must be nonzero$"):
            cyclic_subgroup(1, 0)

    def test_rejects_an_order_above_the_budget(self, monkeypatch):
        with pytest.raises(ValueError, match=r"m = 1 mod n = -(10{30}) has order \1, above the 800 "):
            cyclic_subgroup(1, -(10**30))
        with pytest.raises(ValueError, match="has order 801"):
            sw4_zero_routes(3, 2, 801)
        assert len(cyclic_subgroup(4 * 10**29, 2 * 10**30)) == 5  # a huge n with a small order still runs
        monkeypatch.setattr(swcalc, "MAX_SUBGROUP_ORDER", 4)
        assert len(cyclic_subgroup(3, 4)) == 4
        with pytest.raises(ValueError, match="order 5, above the 4 "):
            cyclic_subgroup(3, 5)

    def test_residue_set_closure_enforced(self):
        with pytest.raises(ValueError):
            ResidueSet(modulus=4, members=(0, 1))

    @pytest.mark.parametrize("members", [(), (1,), (0, 4), (-1, 0)])
    def test_residue_set_must_contain_zero_and_stay_in_range(self, members):
        with pytest.raises(ValueError, match="include 0"):
            ResidueSet(modulus=4, members=members)


class TestProductCoefficients:
    def test_examples(self):
        assert product_sw_coefficients(2) == (1, -2, 1)
        assert product_sw_coefficients(3) == (1, -4, 6, -4, 1)
        for g in range(2, 301):
            assert product_sw_coefficients(g) == signed_row(g), g

    def test_central_value_and_evenness(self):
        for g in range(2, 301):
            central = product_sw_coefficients(g)[g - 1]  # c_0 = (-1)^(g-1) C(2g-2, g-1)
            assert central % 2 == 0
            assert abs(central) == 2 * comb(2 * g - 3, g - 1)

    def test_symmetry_alternation_and_zero_sum(self):
        for g in range(2, 12):
            cs = product_sw_coefficients(g)
            assert len(cs) == 2 * g - 1
            assert cs == tuple(reversed(cs))
            assert sum(cs) == 0
            for i, c in enumerate(cs):
                assert (c > 0) == (i % 2 == 0) or c == 0


class TestPolynomial:
    def test_odd_example(self):
        poly = sw_poly_circle_bundle(2, 5)
        assert poly.coefficients == (-2, 1, 0, 0, 1)
        assert poly.render() == "-2 + 1*t^1 + 1*t^4"
        for g in range(2, 301):
            n = 2 * g - 1  # odd and above 2g - 2, so residue (q - (g-1)) mod n holds the single term q
            coefficients = sw_poly_circle_bundle(g, n).coefficients
            assert tuple(coefficients[(q - (g - 1)) % n] for q in range(2 * g - 1)) == signed_row(g), g

    def test_even_example(self):
        assert sw_poly_circle_bundle(2, 4).coefficients == (-2, 0, 2, 0)

    def test_unit_euler_number_gives_zero(self):
        assert sw_poly_circle_bundle(2, 1).terms == ()

    def test_each_route_builds_its_row_once(self, monkeypatch):
        sums = count_calls(monkeypatch, swcalc._alternating_binomial_sum)
        for g, n in [(2, 3), (3, -2), (5, 7), (5, 100), (6, -101), (20, 10**30)]:
            sums.clear()
            sw_poly_circle_bundle(g, n)
            step = abs(n) // (2 if n % 2 == 0 else 1)
            residues = {(q - (g - 1)) % step for q in range(2 * g - 1)}
            assert len(sums) == len(residues) <= 2 * g - 1, (g, n)
            assert len({start for _, start, _ in sums}) == len(sums)
        rows = count_calls(monkeypatch, swcalc.product_sw_coefficients)
        fold_product_poly.cache_clear()
        fold_product_poly(20, 10**30)
        assert len(rows) == 1

    def test_fold_examples(self):
        assert fold_product_poly(2, 3).coefficients == (-2, 1, 1)
        assert fold_product_poly(2, 4).coefficients == (-2, 0, 2, 0)
        assert fold_product_poly(2, 2).terms == ()

    def test_two_route_equality(self):
        for g in range(2, 7):
            for n in list(range(-8, 0)) + list(range(1, 9)):
                assert sw_poly_circle_bundle(g, n) == fold_product_poly(g, n), (g, n)

    def test_even_support_and_zero_sum(self):
        for g in range(2, 7):
            for n in list(range(-10, 0)) + list(range(1, 11)):
                poly = sw_poly_circle_bundle(g, n)
                assert sum(poly.coefficients) == 0
                if n % 2 == 0:
                    assert all(c == 0 for k, c in enumerate(poly.coefficients) if k % 2 == 1)

    def test_sign_flip(self):
        for g in (2, 3, 4):
            for n in (1, 2, 3, 5, 8):
                plus = sw_poly_circle_bundle(g, n).coefficients
                minus = sw_poly_circle_bundle(g, -n).coefficients
                assert minus == tuple(-c for c in plus)

    def test_huge_n_stores_at_most_2g_minus_1_terms(self):
        for g in (2, 20, 200):
            direct = sw_poly_circle_bundle(g, 10**30)
            assert direct == fold_product_poly(g, 10**30)
            assert len(direct.terms) <= 2 * g - 1

    def test_cache_is_bounded(self):
        maxsize = fold_product_poly.cache_info().maxsize
        assert maxsize >= 40  # parity_sweep revisits one genus row, 40 n-values on the default grid, per m
        for k in range(maxsize + 1):
            fold_product_poly(2 + k // 200, 1 + k % 200)
        assert fold_product_poly.cache_info().currsize <= maxsize

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sw_poly_circle_bundle(1, 3)
        with pytest.raises(ValueError):
            sw_poly_circle_bundle(2, 0)

    def test_rejects_a_genus_above_the_budget(self, monkeypatch):
        assert swcalc.MAX_SW_GENUS >= 200  # the largest genus that the tests and the SW ladder use
        huge = swcalc.MAX_SW_GENUS + 1
        calls = [
            lambda: product_sw_coefficients(huge),
            lambda: sw_poly_circle_bundle(huge, 3),
            lambda: fold_product_poly(huge, 3),
            lambda: sw4_zero_routes(huge, 1, 3),
            lambda: sw4_zero_closed(huge, 2, 4),
            lambda: sw4_zero_gcd(huge, 2, 4),
            lambda: parity_sweep([2, huge], [1], [3]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^genus {huge} is above the {swcalc.MAX_SW_GENUS} "):
                call()
        monkeypatch.setattr(swcalc, "MAX_SW_GENUS", 4)
        coset, closed = sw4_zero_routes(4, 1, 3)  # the bound itself is taken
        assert closed == coset
        with pytest.raises(ValueError, match="^genus 5 is above the 4 "):
            sw4_zero_routes(5, 1, 3)

    def test_modulus_mismatch_rejected(self):
        for terms in [((3, 1),), ((-1, 1),), ((1, 2), (1, -2))]:  # out of range, below 0, repeated
            with pytest.raises(ValueError, match="distinct and lie in"):
                SWPolynomial(modulus=3, terms=terms)


class TestSw4Zero:
    def test_coset_examples(self):
        assert sw4_zero_coset(2, 3, 3) == -2
        assert sw4_zero_coset(2, 1, 3) == 0
        assert sw4_zero_coset(2, 4, 4) == -2

    def test_closed_examples(self):
        assert sw4_zero_closed(2, 3, 3) == -2
        assert sw4_zero_closed(2, 4, 4) == -2
        assert sw4_zero_closed(2, 2, 2) == 0
        assert sw4_zero_closed(2, 1, 3) == 0
        assert sw4_zero_closed(3, 1, 1) == 0

    def test_closed_matches_coset_on_its_domain(self):
        for g in (2, 3, 4):
            for m in range(-8, 9):
                for n in list(range(-8, 0)) + list(range(1, 9)):
                    if m == 0:
                        continue
                    if n % 2 != 0 or m % 2 == 0:
                        assert sw4_zero_closed(g, m, n) == sw4_zero_coset(g, m, n), (g, m, n)

    @pytest.mark.parametrize(
        "m, n, builds",
        [(1, 3, 1), (3, -5, 1), (2, 6, 1), (-4, 12, 1), (1, 4, 2), (2, 8, 2), (3, -2, 2)],
    )
    def test_coset_builds_the_doubled_subgroup_only_where_it_differs(self, monkeypatch, m, n, builds):
        """<2m> = <m> exactly when gcd(2m, n) = gcd(m, n): every odd n, and even n with n / gcd(m, n) odd."""
        calls = count_calls(monkeypatch, swcalc.cyclic_subgroup)
        sw4_zero_coset(2, m, n)
        assert len(calls) == builds
        assert (builds == 1) == (gcd(2 * m, n) == gcd(m, n))

    def test_even_n_odd_m_has_no_closed_form(self):
        with pytest.raises(UnsupportedParityError, match="^closed form undefined for even n = 2 with odd m = 1; "):
            sw4_zero_closed(2, 1, 2)
        with pytest.raises(UnsupportedParityError, match="even n = -4 with odd m = 3"):
            sw4_zero_closed(2, 3, -4)
        # the coset route stays total there
        assert sw4_zero_coset(2, 1, 2) % 2 == 0

    def test_sign_symmetry(self):
        for g in (2, 3):
            for m in (1, 2, 3, 4):
                for n in (1, 2, 3, 4, 5):
                    assert sw4_zero_coset(g, m, -n) == -sw4_zero_coset(g, m, n)
                    assert sw4_zero_closed(g, 2 * m, -2 * n) == -sw4_zero_closed(g, 2 * m, 2 * n)


class TestParitySweep:
    def test_single_cell(self):
        report = parity_sweep([2], [3], [3])
        assert report.cases == 1
        assert report.skipped == 0
        assert report.all_even
        assert report.counterexamples == ()

    def test_zero_cells_are_skipped(self):
        report = parity_sweep([2], range(-1, 2), range(-1, 2))
        # 3x3 grid minus the m=0 row and n=0 column
        assert report.cases == 4
        assert report.skipped == 5

    def test_small_grid_matches_pointwise_evaluation(self):
        report = parity_sweep([2, 3], range(-4, 5), range(-4, 5))
        assert report.all_even
        assert report.counterexamples == ()
        assert report.cases == 2 * 8 * 8

    def test_closed_route_disagreement_is_reported_where_defined(self, monkeypatch):
        closed = swcalc.sw4_zero_closed
        monkeypatch.setattr(swcalc, "sw4_zero_closed", lambda g, m, n: closed(g, m, n) + 2)
        report = parity_sweep([2, 3], range(-4, 5), range(-4, 5))
        cells = [(g, m, n) for g in (2, 3) for m in range(-4, 5) for n in range(-4, 5) if m and n]
        defined = [(g, m, n) for g, m, n in cells if n % 2 != 0 or m % 2 == 0]
        assert report.all_even
        assert [(c.g, c.m, c.n) for c in report.counterexamples] == defined
        for c in report.counterexamples:
            assert c.kind == "route-disagreement"
            assert c.value == sw4_zero_coset(c.g, c.m, c.n)
            assert c.detail == f"coset {c.value} != closed {c.value + 2}"

    def test_odd_value_is_reported(self, monkeypatch):
        coset = swcalc.sw4_zero_coset
        monkeypatch.setattr(swcalc, "sw4_zero_coset", lambda g, m, n: coset(g, m, n) + 1)
        report = parity_sweep([2], range(-3, 4), range(-3, 4))
        odd = [c for c in report.counterexamples if c.kind == "odd-value"]
        assert not report.all_even
        assert len(odd) == report.cases == 36
        assert all(c.value % 2 != 0 and c.detail == f"value {c.value} is odd" for c in odd)


class TestRoutesShareNoPolynomialKernel:
    """A fault in either route's polynomial kernel shows up as a disagreement, not as a shared wrong value."""

    def test_scaled_alternating_sum_is_a_route_disagreement(self, monkeypatch):
        real = swcalc._alternating_binomial_sum
        monkeypatch.setattr(swcalc, "_alternating_binomial_sum", lambda row, start, step: 3 * real(row, start, step))
        report = parity_sweep(range(2, 6), range(-6, 7), range(-6, 7))
        monkeypatch.undo()
        cells = [(g, m, n) for g in range(2, 6) for m in range(-6, 7) for n in range(-6, 7) if m and n]
        # the coset route reads the fold, so it keeps the true value and the closed route triples it
        wrong = [c for c in cells if (c[2] % 2 or c[1] % 2 == 0) and sw4_zero_coset(*c)]
        assert report.all_even
        assert [(c.g, c.m, c.n) for c in report.counterexamples] == wrong
        for c in report.counterexamples:
            assert c.kind == "route-disagreement"
            assert c.detail == f"coset {c.value} != closed {3 * c.value}"

    def test_perturbed_product_coefficient_is_a_route_disagreement(self, monkeypatch):
        real = swcalc.product_sw_coefficients
        # c_0 sits at index g - 1 and folds onto residue 0, which every coset sum counts |<2m>| times
        monkeypatch.setattr(
            swcalc, "product_sw_coefficients", lambda g: tuple(c + 2 * (q == g - 1) for q, c in enumerate(real(g)))
        )
        report = parity_sweep(range(2, 6), range(-6, 7), range(-6, 7))
        cells = [(g, m, n) for g in range(2, 6) for m in range(-6, 7) for n in range(-6, 7) if m and n]
        defined = [c for c in cells if c[2] % 2 or c[1] % 2 == 0]
        assert report.all_even
        assert [(c.g, c.m, c.n) for c in report.counterexamples] == defined
        assert {c.kind for c in report.counterexamples} == {"route-disagreement"}


class TestGcdForm:
    """sw4_zero_gcd, sign(n) * |<2m>| * S_g(e), whose docstring proves the degree-zero value even."""

    def test_examples(self):
        assert sw4_zero_gcd(2, 3, 3) == -2
        assert sw4_zero_gcd(2, 1, 3) == 0
        assert sw4_zero_gcd(2, 4, 4) == -2
        assert sw4_zero_gcd(3, 0, -5) == -6  # <0> = {0}: only c_0 = 6 folds onto residue 0

    @staticmethod
    def assert_equals_the_coset_route(genera):
        for g in genera:
            for m in range(-20, 21):
                for n in range(-20, 21):
                    if n:
                        assert sw4_zero_gcd(g, m, n) == sw4_zero_coset(g, m, n), (g, m, n)

    def test_equals_the_coset_route_on_a_grid(self):
        self.assert_equals_the_coset_route(range(2, 9))

    @pytest.mark.slow
    def test_equals_the_coset_route_on_the_default_grid(self):
        self.assert_equals_the_coset_route(range(2, 21))

    def test_rejects_a_zero_n_and_a_genus_out_of_range(self):
        with pytest.raises(ValueError, match="nonzero"):
            sw4_zero_gcd(2, 1, 0)
        with pytest.raises(ValueError, match="genus"):
            sw4_zero_gcd(1, 1, 3)

    def test_a_raised_c0_turns_the_value_odd(self, monkeypatch):
        real = swcalc.product_sw_coefficients
        monkeypatch.setattr(
            swcalc, "product_sw_coefficients", lambda g: tuple(c + (q == g - 1) for q, c in enumerate(real(g)))
        )
        # S_g(e) turns odd, so the value is odd wherever |<2m>| = |n| / gcd(2m, n) is odd: every odd n
        for g in range(2, 60):
            for m, n in ((1, 3), (0, 5), (2, -7), (3, 1), (4, 12)):
                assert sw4_zero_gcd(g, m, n) % 2 == 1, (g, m, n)
        report = parity_sweep(range(2, 5), range(-4, 5), range(-4, 5))
        odd = {(c.g, c.m, c.n) for c in report.counterexamples if c.kind == "odd-value"}
        cells = [(g, m, n) for g in range(2, 5) for m in range(-4, 5) for n in range(-4, 5) if m and n]
        assert not report.all_even
        assert odd == {(g, m, n) for g, m, n in cells if (abs(n) // gcd(2 * m, n)) % 2}


@st.composite
def _huge_euler_classes(draw):
    """(m, n) with |n| up to 10^30 and a drawn common factor q, so gcd(m, n) runs from 1 to about 10^30."""
    q = draw(st.sampled_from((1, 2, 4, 3 * 2**40)) | st.integers(1, 10**15))
    m = q * draw(st.integers(-(10**15), 10**15))
    return m, q * draw(st.integers(-(10**15), 10**15).filter(bool))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 40), _huge_euler_classes())
def test_gcd_form_equals_the_closed_form_for_huge_n(g, euler):
    m, n = euler
    assume(n % 2 != 0 or m % 2 == 0)  # where the closed form is defined
    value = sw4_zero_gcd(g, m, n)
    assert value == sw4_zero_closed(g, m, n)
    assert value % 2 == 0


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 300), st.integers(1, 301))
def test_lemma_c_the_sum_over_multiples_of_e_is_even(g, e):
    """S_g(e) = c_0 + 2 * (the c_s with 0 < s <= g - 1, e | s), and c_0 = (-1)^(g-1) * 2 * C(2g-3, g-2)."""
    c = dict(enumerate(product_sw_coefficients(g), start=1 - g))
    total = sum(v for s, v in c.items() if s % e == 0)
    assert total == c[0] + 2 * sum(c[s] for s in range(e, g, e))
    assert c[0] == (-1) ** (g - 1) * 2 * comb(2 * g - 3, g - 2)
    assert total % 2 == 0


_NONZERO = st.integers(-60, 60).filter(bool)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 6), _NONZERO, _NONZERO)
def test_routes_are_paired_exactly_where_the_closed_form_is_defined(g, m, n):
    coset, closed = sw4_zero_routes(g, m, n)
    assert coset == sw4_zero_coset(g, m, n)
    if n % 2 == 0 and m % 2 != 0:
        assert closed is None
    else:
        assert closed == coset


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 30), st.integers(-(10**30), 10**30).filter(bool))
def test_polynomial_routes_agree_for_huge_n(g, n):
    direct = sw_poly_circle_bundle(g, n)
    assert direct == fold_product_poly(g, n)
    assert len(direct.terms) <= 2 * g - 1


@st.composite
def _small_order_euler_classes(draw):
    """(m, n) with |n| <= 10^6 and |<m>| = k <= 32: m = q*u and n = +-k*q with gcd(u, k) = 1.

    The order bound keeps ResidueSet's closure check, which is cubic in k, cheap.
    """
    k = draw(st.integers(1, 32))
    q = draw(st.integers(1, 10**6 // k))
    u = draw(st.integers(-(10**6), 10**6).filter(lambda u: gcd(u, k) == 1))
    return q * u, draw(st.sampled_from((k * q, -k * q)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 30), _small_order_euler_classes())
def test_degree_zero_routes_agree_for_large_n(g, euler):
    m, n = euler
    assume(n % 2 != 0 or m % 2 == 0)  # where the closed form is defined
    coset = sw4_zero_coset(g, m, n)
    assert sw4_zero_closed(g, m, n) == coset


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 6), st.integers(-25, 25).filter(bool), st.integers(-24, 24).filter(bool))
def test_closed_formula_holds_off_its_domain_too(g, m, n):
    """|<2m>| times the direct polynomial summed over <m> is the coset value on every cell, even n with odd m
    included, where sw4_zero_closed refuses; the sum over <m> is even, as sw4_zero_gcd's lemma C says."""
    d = gcd(m, n)
    inner = sum(c for r, c in sw_poly_circle_bundle(g, n).terms if r % d == 0)
    assert inner % 2 == 0
    assert (abs(n) // gcd(2 * m, n)) * inner == sw4_zero_coset(g, m, n)
