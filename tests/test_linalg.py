from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
import hypothesis.strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings

from lefschetz_lab import linalg
from lefschetz_lab.hessian import _decision_prime

from conftest import dense_coords, rational_matrices


@given(rational_matrices())
def test_rank_matches_sympy(matrix):
    expected = sympy.Matrix([[sympy.Rational(x) for x in row] for row in matrix]).rank()
    assert linalg.rank(matrix) == expected


@given(rational_matrices(max_rows=4, max_cols=4))
def test_det_matches_sympy(matrix):
    if len(matrix) != len(matrix[0]):
        matrix = [row[: len(matrix)] for row in matrix[: len(matrix[0])]]
        if len(matrix) != len(matrix[0]):
            return
    expected = sympy.Rational(
        sympy.Matrix([[sympy.Rational(x) for x in row] for row in matrix]).det()
    )
    assert linalg.det(matrix) == Fraction(int(expected.p), int(expected.q))


def test_sparse_span_coords():
    span = linalg.SparseSpan()
    v1 = {"a": Fraction(1), "b": Fraction(2)}
    v2 = {"b": Fraction(1), "c": Fraction(1)}
    assert span.try_add(v1)
    assert span.try_add(v2)
    target = {"a": Fraction(2), "b": Fraction(5), "c": Fraction(1)}
    coords = dense_coords(span.dependency(target), len(span))
    assert coords == [Fraction(2), Fraction(1)]
    assert span.dependency({"d": Fraction(1)}) is None


def test_sparse_span_dependency_witness():
    span = linalg.SparseSpan()
    span.try_add({"a": Fraction(1)})
    span.try_add({"b": Fraction(1)})
    dep = dense_coords(span.dependency({"a": Fraction(3), "b": Fraction(-2)}), len(span))
    assert dep == [Fraction(3), Fraction(-2)]


def test_sparse_span_dependency_skips_rejected_vectors():
    span = linalg.SparseSpan()
    assert span.try_add({"a": Fraction(1)})
    assert not span.try_add({"a": Fraction(2)})
    assert span.try_add({"b": Fraction(1)})
    assert len(span) == 2
    assert dense_coords(span.dependency({"a": Fraction(1), "b": Fraction(1)}), len(span)) == [Fraction(1), Fraction(1)]


@st.composite
def sparse_rational_vectors(draw):
    """Sparse vectors over monomial-like keys; about half are rational
    combinations of the vectors drawn before them."""
    keys = [(i, 3 - i) for i in range(draw(st.integers(1, 6)))]
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    vecs = []
    for _ in range(draw(st.integers(1, 9))):
        if vecs and draw(st.booleans()):
            coeffs = [draw(entry) for _ in vecs]
            vec = {k: sum(c * v.get(k, 0) for c, v in zip(coeffs, vecs)) for k in keys}
        else:
            vec = {k: draw(entry) for k in draw(st.lists(st.sampled_from(keys), unique=True))}
        vecs.append({k: x for k, x in vec.items() if x})
    return keys, vecs


@given(sparse_rational_vectors())
def test_sparse_span_matches_dense_rank(drawn):
    keys, vecs = drawn
    dense = lambda v: [v.get(k, Fraction(0)) for k in keys]
    span = linalg.SparseSpan()
    added = []
    for vec in vecs:
        member = linalg.rank([dense(v) for v in added + [vec]]) == len(added)
        coeffs = dense_coords(span.dependency(vec), len(span))
        assert (coeffs is not None) == member
        if member:
            assert [sum(c * v.get(k, 0) for c, v in zip(coeffs, added)) for k in keys] == dense(vec)
        assert span.try_add(vec) == (not member)
        if not member:
            added.append(vec)
    assert len(span) == len(added)
    # stored rows: primitive integers, positive at the pivot, which is the
    # row's largest key, and zero at the pivots of the rows stored before
    for t, (pivot, row) in enumerate(span._rows):
        assert all(isinstance(x, int) for x in row.values())
        assert gcd(*row.values()) == 1 and row[pivot] > 0 and pivot == max(row)
        assert not any(p in row for p, _ in span._rows[:t])


def test_rank_empty():
    assert linalg.rank([]) == 0


MERSENNE_61 = 2**61 - 1


@st.composite
def integer_matrices(draw, max_n=6):
    """Square integer matrices; about half get a last row dependent on the others."""
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[n // 2])]
    return rows


@given(integer_matrices())
def test_integer_kernels_match_rational_oracles(rows):
    exact_det = linalg.det(rows)
    exact_rank = linalg.rank(rows)
    assert linalg.det_int(rows) == exact_det
    # |det| and every minor stay far below 2^61 here, so reduction mod the
    # Mersenne prime loses nothing
    assert linalg.det_mod(rows, MERSENNE_61) == exact_det % MERSENNE_61
    assert linalg.rank_mod(rows, MERSENNE_61) == exact_rank
    # a small prime can only lower the rank, and kills exactly the
    # determinants it divides
    assert linalg.det_mod(rows, 7) == exact_det % 7
    assert linalg.rank_mod(rows, 7) <= exact_rank
    assert (linalg.rank_mod(rows, 7) == len(rows)) == (exact_det % 7 != 0)


@given(integer_matrices(), st.integers(1, 3))
def test_rank_mod_of_rectangular_matrices(rows, drop):
    wide = [row[drop:] for row in rows]
    tall = rows[drop:]
    for m in (wide, tall):
        if m and m[0]:
            assert linalg.rank_mod(m, MERSENNE_61) == linalg.rank(m)


@st.composite
def shaped_integer_matrices(draw, p):
    """Integer matrices of every shape up to 5x5 with the structure the
    eliminations branch on: a row dependent on two others, an all-zero
    column, the rows in any order (which flips the sign of a determinant),
    a zero corner that forces a row swap, and every entry divisible by the
    prime p."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if nrows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = 0
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows[0][0] = 0
    if draw(st.booleans()):
        rows = [[p * x for x in r] for r in rows]
    return rows


@pytest.mark.parametrize("p", [7, MERSENNE_61])
@given(data=st.data())
def test_eliminations_match_sympy(p, data):
    """`rank` and `det_int` against sympy over Q, `rank_mod` and `det_mod`
    against sympy over GF(p); square inputs also give `det`."""
    rows = data.draw(shaped_integer_matrices(p))
    exact = sympy.Matrix(rows)
    shape = (len(rows), len(rows[0]))
    modular = DomainMatrix([[ZZ(x) for x in r] for r in rows], shape, ZZ).convert_to(GF(p))
    assert linalg.rank(rows) == exact.rank()
    assert linalg.rank_mod(rows, p) == modular.rank()
    if shape[0] == shape[1]:
        value = int(exact.det())
        assert linalg.det_int(rows) == value
        assert linalg.det(rows) == value
        assert linalg.det_mod(rows, p) == value % p == int(modular.det()) % p


def pivots_mod_oracle(rows, p):
    """The list form of `linalg._pivots_mod`: the same pivot stream, one
    Python multiply and remainder per cell, every row rebuilt each step."""
    m = [[x % p for x in row] for row in rows]
    while m and m[0]:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            yield 0
            m = [row[1:] for row in m]
            continue
        prow = m.pop(piv)
        yield p - prow[0] if piv % 2 else prow[0]
        inv = pow(prow[0], -1, p)
        tail = [x * inv % p for x in prow[1:]]
        m = [[(a - c * b) % p for a, b in zip(row[1:], tail)] if (c := row[0]) else row[1:]
             for row in m]


# small primes, where most entries are divisible; the rank prime; two primes
# of [2^60, 2^61), the range the Hessian decisions draw from, and the one
# they draw at seed 0
KERNEL_PRIMES = [2, 3, 5, 7, MERSENNE_61, 1487386706257977359, 1796830922196939599, _decision_prime(0)]


def assert_matches_oracle(rows, p):
    pivots = list(pivots_mod_oracle(rows, p))
    assert list(linalg._pivots_mod(rows, p)) == pivots
    assert linalg.rank_mod(rows, p) == sum(1 for x in pivots if x)
    if len(rows) == len(rows[0]):
        assert linalg.det_mod(rows, p) == (prod(pivots) % p if all(pivots) else 0)


@st.composite
def packed_inputs(draw):
    """A prime and an integer matrix of any shape up to 7x7, entries up to
    +-10^20, with a dependent row, a zero row, a zero column and every entry
    a multiple of p each drawn or not."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(10**20), 10**20))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if nrows > 2 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = 0
    if draw(st.booleans()):
        rows = [[p * x for x in r] for r in rows]
    return draw(st.permutations(rows)), p


@settings(max_examples=300)
@given(packed_inputs())
def test_packed_elimination_matches_list_oracle(drawn):
    rows, p = drawn
    assert_matches_oracle(rows, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_slots_never_carry(p):
    """Entries p-1 everywhere, and p-1 off the diagonal with p-2 on it (full
    rank mod most p, so every step adds to every slot), at sizes 2^j - 1 and
    2^j, where bits(size) and with it the slot width step up, and with one
    column or row more."""
    for n in sorted({2**j + e for j in range(7) for e in (-1, 0)} - {0}):
        for shape in ((n, n), (n, n + 1), (n + 1, n)):
            assert_matches_oracle([[p - 1] * shape[1] for _ in range(shape[0])], p)
            assert_matches_oracle([[p - 1 - (i == j) for j in range(shape[1])] for i in range(shape[0])], p)


def test_integer_kernels_on_edge_cases():
    assert linalg.det_int([]) == 1
    assert linalg.det_mod([], 7) == 1
    assert linalg.rank_mod([], 7) == 0
    assert linalg.det_mod([[0, 1], [1, 0]], 7) == 6
    assert linalg.det_int([[0, 1], [1, 0]]) == -1
    assert linalg.rank_mod([[7, 14], [1, 2]], 7) == 1
    with pytest.raises(ValueError):
        linalg.det_int([[1, 2]])
    with pytest.raises(ValueError):
        linalg.det_mod([[1, 2]], 7)
