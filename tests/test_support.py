"""The support layer: D_k, zero patterns and the matcher, on supp(f) and on plain patterns."""

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from lefschetz_lab.errors import DegreeRangeError
from lefschetz_lab.polycore import VariableSet, parse_poly
from lefschetz_lab.support import _sub_exponents, zero_cover

from conftest import exact, prob

CUBIC = parse_poly("x^3 + y^3", VariableSet(("x", "y")))


class TestOrdersOutsideTheForm:
    @pytest.mark.parametrize("k", [-2, -1, 4, 5])
    def test_no_sub_exponents_outside_0_to_the_degree(self, k):
        assert list(_sub_exponents((3, 0), k)) == list(_sub_exponents((2, 1), k)) == []
        assert list(_sub_exponents((2, 1), 0)) == [(0, 0)] and list(_sub_exponents((2, 1), 3)) == [(2, 1)]

    @pytest.mark.parametrize("degree", [-1, 4, 7])
    def test_no_divisor_monomials_outside_0_to_d(self, degree):
        an = prob(CUBIC)
        assert an.divisor_monomials(degree) == ()
        assert an.divisor_monomials(3) == ((3, 0), (0, 3))

    @pytest.mark.parametrize("analysis", [prob, exact])
    @pytest.mark.parametrize("k, l", [(2, 2), (-1, 1), (1, -1), (0, 4)])
    def test_pattern_and_block_refuse_orders_outside_the_form(self, analysis, k, l):
        """In the words `an.hessian(k, l)` uses, before anything is computed."""
        an = analysis(CUBIC)
        before = an.counts()
        for read in (an.pattern, an.block, an.hessian):
            with pytest.raises(DegreeRangeError) as info:
                read(k, l)
            assert str(info.value) == f"orders ({k}, {l}) out of range for d=3"
        assert an.counts() == before


def reference_matching(pattern, ncols):
    """The size of a maximum matching, by one plain augmenting path per row."""
    mate = [-1] * ncols  # column -> row

    def augment(r, seen):
        for j in pattern[r]:
            if j not in seen:
                seen.add(j)
                if mate[j] < 0 or augment(mate[j], seen):
                    mate[j] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(len(pattern)))


@st.composite
def patterns(draw, size=12):
    """Rows of distinct column positions, in any order, empty rows and columns included."""
    ncols = draw(st.integers(0, size))
    row = st.lists(st.integers(0, ncols - 1), unique=True) if ncols else st.just([])
    return draw(st.lists(row, max_size=size)), ncols


class TestZeroCover:
    @given(patterns())
    @example(([], 0))
    @example(([], 5))
    @example(([[], [], []], 0))
    @example(([[0], [0], [0]], 3))
    def test_a_zero_block_of_the_largest_size(self, drawn):
        """Every cell of the block is zero, and its size is rows + columns less
        the size of a maximum matching (Koenig)."""
        pattern, ncols = drawn
        rows, cols = zero_cover(pattern, ncols)
        assert rows == sorted(set(rows)) and set(rows) <= set(range(len(pattern)))
        assert cols == sorted(set(cols)) and set(cols) <= set(range(ncols))
        assert not {j for r in rows for j in pattern[r]} & set(cols)
        assert len(rows) + len(cols) == len(pattern) + ncols - reference_matching(pattern, ncols)

    def test_a_path_through_every_row_takes_no_recursion(self):
        """Row i < n-1 meets columns i+1 and i, row n-1 column n-1 alone: the
        first phase matches row i to column i+1 and leaves row n-1 free, and
        the one augmenting path then runs through all n rows to column 0."""
        n = 5000
        pattern = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        assert zero_cover(pattern, n) == ([], list(range(n)))
