import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import (
    AbelianGroup,
    IntMatrix,
    cokernel_structure,
    fox_boundary_matrices,
    integer_kernel,
    rank,
    snf,
)
from torusbundles import exactla
from torusbundles.exactla import _thin_invariants
from torusbundles.homology import fiber_relation_matrix

from support import columns, count_calls, identity_matrix, random_valid_bundle, snf_kernel, zero_matrix


def random_matrix(rng, max_dim=6, bound=9, thin=False):
    """thin=True draws at most two rows, transposed half the time into at most two columns."""
    nr = rng.randint(0, 2 if thin else max_dim)
    nc = rng.randint(0, max_dim)
    m = IntMatrix([[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)], cols=nc)
    return m.transpose() if thin and rng.random() < 0.5 else m


def smith_rank(m):
    """The rank of any shape, read off snf's diagonal; rank itself reads only thin shapes."""
    return sum(map(bool, snf(m)[1].diagonal()))


def assert_snf_contract(m):
    from sympy import Matrix

    u, d, v = snf(m)
    assert (u @ m @ v) == d
    assert abs(Matrix(u.entries).det()) == 1
    assert abs(Matrix(v.entries).det()) == 1
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


def test_the_checked_constructor_refuses_bad_input_and_normalizes_rows():
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match=f"matrix entries must be integers, got {bad!r}"):
            IntMatrix([[bad]])
    with pytest.raises(ValueError, match="ragged rows in matrix input"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="cols=3 disagrees with row length 2"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="negative column count"):
        IntMatrix([], cols=-1)
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.entries == ((1, 2), (3, 4))
    assert m.cols == 2
    assert IntMatrix([], cols=3).cols == 3


class TestSnf:
    def test_worked_example(self):
        m = IntMatrix([[2, 4], [6, 8]])
        _, d, _ = assert_snf_contract(m)
        assert d.diagonal() == (2, 4)

    def test_zero_matrix(self):
        m = zero_matrix(2, 2)
        u, d, v = snf(m)
        assert d == zero_matrix(2, 2)
        assert u == identity_matrix(2)
        assert v == identity_matrix(2)

    def test_identity(self):
        m = identity_matrix(3)
        _, d, _ = assert_snf_contract(m)
        assert d == identity_matrix(3)

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


def _largest_transform_bits(matrices):
    """Largest bit length of any entry of snf's U or V over the matrices."""
    return max(abs(x).bit_length() for m in matrices for t in snf(m)[::2] for row in t.entries for x in row)


# Upper bounds on _largest_transform_bits, measured on the two-phase snf (elimination, then a pass repairing the
# divisibility chain) that the single loop replaced: 62 bits (U 32, V 62) on TestSnf's 200 random matrices and
# 9 (U 6, V 9) on its 100 2x2 ones.  A worse pivot rule shows here: the largest entry as pivot reached 86 bits on
# the random matrices, the first nonzero entry 76.
@pytest.mark.parametrize(
    "seed, count, make, bound",
    [
        (1293, 200, random_matrix, 62),
        (77, 100, lambda rng: IntMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]), 9),
    ],
    ids=["random", "2x2"],
)
def test_snf_transforms_stay_within_the_measured_bits_on_random_matrices(seed, count, make, bound):
    rng = random.Random(seed)
    assert _largest_transform_bits([make(rng) for _ in range(count)]) <= bound


# The same bounds for the fiber relation matrix, D2 and D1 of random_valid_bundle(Random(seed), g), seeds 0-4,
# measured alike: at g = 16 U/V reached 2/5, 6/3 and 2/4 bits, at g = 64 2/6, 6/3 and 2/6.
@pytest.mark.parametrize("g, bounds", [(16, (5, 6, 4)), (64, (6, 6, 6))])
def test_snf_transforms_stay_within_the_measured_bits_on_fiber_matrices(g, bounds):
    bundles = [random_valid_bundle(random.Random(seed), g) for seed in range(5)]
    kinds = zip(*((fiber_relation_matrix(b), *fox_boundary_matrices(g, b.monodromy)) for b in bundles))
    measured = [_largest_transform_bits(ms) for ms in kinds]
    assert all(bits <= bound for bits, bound in zip(measured, bounds)), measured


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
            m = random_matrix(rng, max_dim=4, bound=6, thin=True)
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
        assert columns(k) == [(2, -1)]

    def test_identity_has_no_kernel(self):
        assert integer_kernel(identity_matrix(2)).cols == 0

    def test_zero_matrix_full_kernel(self):
        from sympy import Matrix

        k = integer_kernel(zero_matrix(2, 4))
        assert k.cols == 4
        assert abs(Matrix(k.entries).det()) == 1  # basis of all of Z^4

    def test_kernel_annihilates_and_saturates(self):
        rng = random.Random(555)
        for _ in range(120):
            m = random_matrix(rng, max_dim=5, bound=7)
            k = integer_kernel(m)
            if m.rows and k.cols:
                assert (m @ k).is_zero()
            assert smith_rank(m) + k.cols == m.cols
            for col in columns(k):
                g = 0
                for x in col:
                    g = gcd(g, abs(x))
                assert g == 1  # primitive vector, so the lattice is saturated


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
def _thin_matrices(draw):
    """0 x N, 1 x N, 2 x N, N x 1 and N x 2 (N <= 257), entries up to 10^50.

    Half the draws are rank 1: zero columns, then integer multiples (some zero) of one vector.
    Half of those end in one independent column, which a rank that starts from a zero column,
    or compares a column only with its neighbour, reads as rank 1.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, tall, bound = rng.randint(0, 257), rng.random() < 0.5, rng.choice([1, 3, 10**6, 10**50])

    def entry(b=bound):
        return rng.randint(-b, b) if rng.random() < 0.7 else 0

    if rng.random() < 0.5:
        a, b = entry(), entry()
        b = b if a or b else 1
        zeros = rng.randint(0, n)
        ts = [entry(9) for _ in range(n - zeros)]
        rows = [[0] * zeros + [t * a for t in ts], [0] * zeros + [t * b for t in ts]]
        if n and rng.random() < 0.5:
            rows[0][-1], rows[1][-1] = rows[0][-1] + b, rows[1][-1] - a  # a*(tb - a) - b*(ta + b) != 0
    else:
        rows = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    m = IntMatrix(rows, cols=n)
    return m.transpose() if tall else m


def _thin_rows(m):
    """The thin side of m, read as at most two rows."""
    return m.entries if m.rows <= 2 else m.transpose().entries


class TestSmithDiagonal:
    """_thin_invariants, the nonzero Smith diagonal behind cokernel_structure, against snf and sympy."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_thin_matrices())
    def test_matches_snf_and_sympy(self, m):
        diagonal = _thin_invariants(_thin_rows(m))
        assert diagonal == [x for x in snf(m)[1].diagonal() if x != 0]
        assert diagonal == _sympy_invariants(m)
        assert cokernel_structure(m) == AbelianGroup(m.rows - len(diagonal), tuple(x for x in diagonal if x > 1))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 2), (1, 257), (257, 1)])
    def test_empty_and_zero_matrices(self, shape):
        assert _thin_invariants(_thin_rows(zero_matrix(*shape))) == []

    def test_thin_shapes_never_call_snf(self, monkeypatch):
        monkeypatch.setattr(exactla, "snf", None)  # a call raises TypeError
        wide = IntMatrix([[2, 4, 6], [0, 0, 8]])  # span Z(2, 0) + Z(0, 8)
        for m in (wide, wide.transpose(), IntMatrix([[3, 0, 5, 7]]), IntMatrix([[0]] * 3)):
            assert rank(m) == len(_thin_invariants(_thin_rows(m)))
        assert cokernel_structure(wide) == AbelianGroup(0, (2, 8))
        assert cokernel_structure(wide.transpose()) == AbelianGroup(1, (2, 8))

    @pytest.mark.parametrize("reader", [rank, cokernel_structure])
    @pytest.mark.parametrize("shape", [(3, 3), (3, 40), (40, 3)])
    def test_shapes_wider_than_two_both_ways_are_refused(self, reader, shape):
        rows, cols = shape
        with pytest.raises(ValueError, match=f"a {rows}x{cols} matrix"):
            reader(zero_matrix(rows, cols))


class TestThinRank:
    """rank on at most two rows or columns, one pass of 2x2 minors, against the Smith diagonal and sympy."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_thin_matrices())
    def test_matches_smith_diagonal_and_sympy(self, m):
        from sympy import Matrix

        reference = Matrix(m.rows, m.cols, [x for r in m.entries for x in r])
        # the entries stay exact rationals, so == 0 is exact and spares the default symbolic zero test
        assert rank(m) == len(_thin_invariants(_thin_rows(m))) == reference.rank(iszerofunc=lambda x: x == 0)


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
    """integer_kernel, the rule route's kernel, against snf's rank and kernel and sympy's Hermite form.

    On any width but two integer_kernel reads its basis off snf, as snf_kernel does, so there the two are one
    algorithm and sympy's Hermite form is their independent reference.
    """

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(_kernel_matrices())
    def test_annihilating_saturated_and_equal_to_the_snf_kernel(self, m):
        k = integer_kernel(m)
        assert k.rows == m.cols
        assert (m @ k).is_zero()
        assert smith_rank(m) + k.cols == m.cols
        assert all(d == 1 for d in snf(k)[1].diagonal())  # saturated: Z^rows / lattice is torsion-free
        reference = snf_kernel(m)
        assert k.cols == reference.cols
        if k.cols:
            assert _sympy_hermite(k) == _sympy_hermite(reference)


@st.composite
def _two_column_matrices(draw):
    """k x 2 (k <= 200), entries up to 10^30: zero, rows on one line, all but one on a line, or free.

    Those kinds give kernel ranks 2, 1, 0 and (almost always) 0.  The line's direction need not be
    primitive, and any row may be zero, except the off-line one.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    k, kind = rng.randint(0, 200), rng.choice(["zero", "line", "line", "off-line", "free"])
    zero_share = rng.choice([0.0, 0.3, 0.9])
    if kind == "free":
        bound = rng.choice([1, 9, 10**15, 10**30])
        rows = [[rng.randint(-bound, bound), rng.randint(-bound, bound)] for _ in range(k)]
    else:
        bound = 0 if kind == "zero" else rng.choice([1, 9, 10**15, 10**27])
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        rows = [[t * a, t * b] for t in (rng.randint(-1000, 1000) for _ in range(k))]
    rows = [row if rng.random() >= zero_share else [0, 0] for row in rows]
    if kind == "off-line" and k:
        a, b = (a, b) if a or b else (0, 1)
        t = rng.randint(-1000, 1000)
        rows[rng.randrange(k)] = [t * a + b, t * b - a]  # its minor with (a, b) is -(a^2 + b^2) != 0
    return IntMatrix(rows, cols=2)


def test_the_two_column_path_is_sign_normalized_and_equals_the_snf_kernel():
    """integer_kernel's k x 2 path: each vector's first nonzero entry positive, and snf's basis up to sign."""
    ranks = set()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_two_column_matrices())
    def check(m):
        thin = exactla._two_column_kernel(m.entries)
        assert tuple(columns(integer_kernel(m))) == thin
        assert all(next(x for x in v if x) > 0 for v in thin)  # the rationale prints the basis' first vector
        if len(thin) == 2:
            assert thin == ((1, 0), (0, 1))
        assert all(x * u + y * v == 0 for x, y in m.entries for u, v in thin)
        reference = snf_kernel(m)
        assert reference.cols == len(thin)
        # a saturated lattice of rank 1 has two primitive generators, v and -v; of rank 2, snf keeps V = I here
        for v, w in zip(thin, columns(reference)):
            assert w in (v, tuple(-x for x in v))
        ranks.add(len(thin))

    check()
    assert ranks == {0, 1, 2}


def test_only_widths_other_than_two_call_snf(monkeypatch):
    monkeypatch.setattr(exactla, "snf", None)  # a k x 2 kernel that reached snf would raise TypeError
    for k in (0, 1, 4):
        assert integer_kernel(IntMatrix([[2, 6]] * k, cols=2)).cols == (2 if k == 0 else 1)
    monkeypatch.undo()
    calls = count_calls(monkeypatch, snf)
    for k in (0, 1, 3, 5):
        assert integer_kernel(IntMatrix([[1, 2, 3, 4, 5][:k], [0, 1, 0, 1, 0][:k]], cols=k)).rows == k
    assert len(calls) == 4
