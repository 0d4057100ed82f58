from fractions import Fraction

import sympy
from hypothesis import given

from lefschetz_lab import linalg

from conftest import rational_matrices


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


@given(rational_matrices())
def test_kernel_vectors_annihilate(matrix):
    cols = len(matrix[0])
    kernel = linalg.kernel_basis(matrix, cols)
    assert len(kernel) == cols - linalg.rank(matrix)
    for vec in kernel:
        for row in matrix:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_rref_pivots():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]
    assert red[1] == [Fraction(0), Fraction(0)]


def test_sparse_span_coords():
    span = linalg.SparseSpan()
    v1 = {"a": Fraction(1), "b": Fraction(2)}
    v2 = {"b": Fraction(1), "c": Fraction(1)}
    assert span.try_add(v1)
    assert span.try_add(v2)
    target = {"a": Fraction(2), "b": Fraction(5), "c": Fraction(1)}
    coords = span.dependency(target)
    assert coords == [Fraction(2), Fraction(1)]
    assert span.dependency({"d": Fraction(1)}) is None


def test_sparse_span_dependency_witness():
    span = linalg.SparseSpan()
    span.try_add({"a": Fraction(1)})
    span.try_add({"b": Fraction(1)})
    dep = span.dependency({"a": Fraction(3), "b": Fraction(-2)})
    assert dep == [Fraction(3), Fraction(-2)]


def test_sparse_span_dependency_skips_rejected_vectors():
    span = linalg.SparseSpan()
    assert span.try_add({"a": Fraction(1)})
    assert not span.try_add({"a": Fraction(2)})
    assert span.try_add({"b": Fraction(1)})
    assert len(span) == 2
    assert span.dependency({"a": Fraction(1), "b": Fraction(1)}) == [Fraction(1), Fraction(1)]


def test_rank_empty():
    assert linalg.rank([]) == 0
