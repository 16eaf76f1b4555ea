import random
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import (
    AbelianGroup,
    IntMatrix,
    binomial,
    cokernel_structure,
    determinant,
    integer_kernel,
    rank,
    snf,
)
from torusbundles.exactla import _smith_diagonal

from support import snf_kernel


def random_matrix(rng, max_dim=6, bound=9):
    nr = rng.randint(0, max_dim)
    nc = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)], cols=nc)


def assert_snf_contract(m):
    u, d, v = snf(m)
    assert (u @ m @ v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = d.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d[i, j] == 0
    for x in diag:
        assert x >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return u, d, v


class TestSnf:
    def test_worked_example(self):
        m = IntMatrix([[2, 4], [6, 8]])
        _, d, _ = assert_snf_contract(m)
        assert d.diagonal() == (2, 4)

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 2)
        u, d, v = snf(m)
        assert d == IntMatrix.zeros(2, 2)
        assert u == IntMatrix.identity(2)
        assert v == IntMatrix.identity(2)

    def test_identity(self):
        m = IntMatrix.identity(3)
        _, d, _ = assert_snf_contract(m)
        assert d == IntMatrix.identity(3)

    def test_empty_shapes(self):
        for m in (IntMatrix([], cols=3), IntMatrix([[], []]), IntMatrix([], cols=0)):
            u, d, v = snf(m)
            assert (u.rows, u.cols) == (m.rows, m.rows)
            assert (v.rows, v.cols) == (m.cols, m.cols)
            assert (d.rows, d.cols) == (m.rows, m.cols)

    def test_contract_on_random_matrices(self):
        rng = random.Random(1293)
        for _ in range(200):
            assert_snf_contract(random_matrix(rng))

    def test_first_invariant_factor_is_entry_gcd(self):
        rng = random.Random(77)
        for _ in range(100):
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
            _, d, _ = snf(m)
            g = 0
            for row in m.entries:
                for x in row:
                    g = gcd(g, abs(x))
            assert d.diagonal()[0] == g


class TestCokernel:
    def test_diagonal_presentation(self):
        assert cokernel_structure(IntMatrix([[1, 0], [0, 6]])) == AbelianGroup(0, (6,))

    def test_order_four_rotation_relation_matrix(self):
        assert cokernel_structure(IntMatrix([[-1, -1], [1, -1]])) == AbelianGroup(0, (2,))

    def test_no_relations(self):
        assert cokernel_structure(IntMatrix([[], []])) == AbelianGroup(2, ())

    def test_invariant_under_unimodular_transforms(self):
        rng = random.Random(4021)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=6)
            left = random_unimodular(rng, m.rows)
            right = random_unimodular(rng, m.cols)
            assert cokernel_structure(left @ m @ right) == cokernel_structure(m)


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randint(0, 2)
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if op == 0:
            f = rng.randint(-3, 3)
            for k in range(n):
                m[i][k] += f * m[j][k]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m, cols=n)


class TestKernel:
    def test_single_relation(self):
        k = integer_kernel(IntMatrix([[1, 2]]))
        assert k.columns() == [(2, -1)]

    def test_identity_has_no_kernel(self):
        assert integer_kernel(IntMatrix.identity(2)).cols == 0

    def test_zero_matrix_full_kernel(self):
        k = integer_kernel(IntMatrix.zeros(2, 4))
        assert k.cols == 4
        assert abs(determinant(k)) == 1  # basis of all of Z^4

    def test_kernel_annihilates_and_saturates(self):
        rng = random.Random(555)
        for _ in range(120):
            m = random_matrix(rng, max_dim=5, bound=7)
            k = integer_kernel(m)
            if m.rows and k.cols:
                assert (m @ k).is_zero()
            assert rank(m) + k.cols == m.cols
            for col in k.columns():
                g = 0
                for x in col:
                    g = gcd(g, abs(x))
                assert g == 1  # primitive vector, so the lattice is saturated


class TestBinomial:
    def test_out_of_range_convention(self):
        assert binomial(2, 3) == 0
        assert binomial(2, -1) == 0

    def test_central_value_and_evenness(self):
        assert binomial(2, 1) == 2
        for g in range(2, 51):
            central = binomial(2 * g - 2, g - 1)
            assert central % 2 == 0
            assert central == 2 * binomial(2 * g - 3, g - 1)

    def test_symmetry(self):
        for p in range(0, 25):
            for q in range(0, p + 1):
                assert binomial(p, q) == binomial(p, p - q)

    def test_pascal(self):
        for p in range(1, 30):
            for q in range(-3, p + 4):
                assert binomial(p, q) == binomial(p - 1, q) + binomial(p - 1, q - 1)

    def test_matches_comb_in_range(self):
        for p in range(0, 20):
            for q in range(0, p + 1):
                assert binomial(p, q) == comb(p, q)

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestAbelianGroup:
    def test_str(self):
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(4, (3,))) == "Z^4 + Z_3"
        assert str(AbelianGroup(0, (2, 4))) == "Z_2 + Z_4"

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())


def _sympy_invariants(m):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    d = smith_normal_form(Matrix(m.rows, m.cols, [x for row in m.entries for x in row]), domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(m.rows, m.cols)) if d[i, i] != 0]


@st.composite
def _matrices(draw):
    """Thin 2 x N and N x 2 (N up to 257, the H1 width at genus 64), small squares, empty and zero.

    Entries come from a drawn Random, since drawing up to 514 integers one by one costs seconds.
    """
    shape = draw(st.sampled_from(["wide", "tall", "square", "zero"]))
    if shape in ("wide", "tall"):
        n = draw(st.integers(0, 257))
        rows, cols = (2, n) if shape == "wide" else (n, 2)
    else:
        rows = draw(st.integers(0, 5))
        cols = rows if shape == "square" else draw(st.integers(0, 5))
    bound = 0 if shape == "zero" else draw(st.sampled_from([1, 3, 10**6, 10**30]))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return rng.randint(-bound, bound) if rng.random() < density else 0

    return IntMatrix([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestSmithDiagonal:
    """The transform-free kernel behind rank and cokernel_structure against snf and sympy."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_matrices())
    def test_matches_snf_and_sympy(self, m):
        diagonal = _smith_diagonal(m)
        assert diagonal == [x for x in snf(m)[1].diagonal() if x != 0]
        assert diagonal == _sympy_invariants(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 2), (1, 257), (257, 1)])
    def test_empty_and_zero_matrices(self, shape):
        assert _smith_diagonal(IntMatrix.zeros(*shape)) == []


def _sympy_hermite(k):
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    return hermite_normal_form(Matrix(k.rows, k.cols, [x for row in k.entries for x in row]))


@st.composite
def _kernel_matrices(draw):
    """4g x 2 stacks (g <= 64), 2 x N and 1 x N (N <= 40), small squares, empty and zero.

    Stacks and squares are rank-deficient half the time, since a random one has no kernel.  Every
    choice comes from a drawn Random: hypothesis' own choices favour the smallest shapes.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = rng.choice(["stack", "stack", "wide", "row", "square", "zero"])
    bound = 0 if shape == "zero" else rng.choice([1, 3, 10**6, 10**30])
    density = rng.choice([0.1, 0.5, 1.0])
    deficient = rng.random() < 0.5

    def entry(b=bound):
        return rng.randint(-b, b) if rng.random() < density else 0

    if shape == "stack":
        rows = 4 * rng.randint(0, 64)
        if deficient:
            a, b = entry(), entry()
            # every row a multiple of (b, -a) kills (a, b)
            return IntMatrix([[t * b, -t * a] for t in (entry(9) for _ in range(rows))], cols=2)
        return IntMatrix([[entry(), entry()] for _ in range(rows)], cols=2)
    if shape in ("wide", "row"):
        rows, cols = (2 if shape == "wide" else 1), rng.randint(0, 40)
        return IntMatrix([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)
    n = rng.randint(0, 5)
    cols = n if shape == "square" else rng.randint(0, 5)
    if shape == "square" and deficient and n:
        k = rng.randint(0, n - 1)
        left = IntMatrix([[entry() for _ in range(k)] for _ in range(n)], cols=k)
        right = IntMatrix([[entry(9) for _ in range(n)] for _ in range(k)], cols=n)
        return left @ right
    return IntMatrix([[entry() for _ in range(cols)] for _ in range(n)], cols=cols)


class TestHermiteKernel:
    """integer_kernel, the rule route's kernel, against rank, the Smith diagonal and sympy's Hermite form."""

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(_kernel_matrices())
    def test_annihilating_saturated_and_equal_to_the_snf_kernel(self, m):
        k = integer_kernel(m)
        assert k.rows == m.cols
        assert (m @ k).is_zero()
        assert rank(m) + k.cols == m.cols
        assert _smith_diagonal(k) == [1] * k.cols  # saturated: Z^cols / lattice is torsion-free
        reference = snf_kernel(m)
        assert k.cols == reference.cols
        if k.cols:
            assert _sympy_hermite(k) == _sympy_hermite(reference)
