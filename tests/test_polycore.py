import gc
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
import sympy
from hypothesis import example, given
import hypothesis.strategies as st

from lefschetz_lab import linalg
from lefschetz_lab.errors import (
    HomogeneityError,
    PolyParseError,
    SingularMatrixError,
    VariableMismatchError,
)
from lefschetz_lab.exact import poly_divexact
from lefschetz_lab.oracles import linear_change
from lefschetz_lab.polycore import (
    IntMatrix,
    Poly,
    VariableSet,
    diff_apply,
    eval_poly,
    mono_basis,
    parse_poly,
    partial,
    poly_sum,
)

from conftest import homogeneous_polys, linear_change_reference, rational_polys

IKEDA_VARS = VariableSet(("x0", "x1", "u1", "u2"))
IKEDA = parse_poly("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", IKEDA_VARS)
XY = VariableSet(("x", "y"))


def to_sympy(f):
    symbols = sympy.symbols(" ".join(f.vars.names))
    if len(f.vars) == 1:
        symbols = (symbols,)
    expr = sympy.Integer(0)
    for expo, coeff in f.coeff_map().items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, expo):
            term *= s**e
        expr += term
    return expr, symbols


class TestVariableSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VariableSet(("x", "x"))

    def test_dual_names(self):
        assert IKEDA_VARS.dual().names == ("X0", "X1", "U1", "U2")


class TestParse:
    def test_ikeda(self):
        assert IKEDA.degree == 5
        assert IKEDA.num_terms() == 3

    def test_zero(self):
        z = parse_poly("0", XY)
        assert z.is_zero() and z.degree is None

    def test_two_terms(self):
        g = parse_poly("2*x^2 - x*y", XY)
        assert g.coefficient((2, 0)) == 2
        assert g.coefficient((1, 1)) == -1

    def test_syntax_error_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x + ", XY)
        assert err.value.position == 4

    def test_undeclared_variable(self):
        with pytest.raises(PolyParseError, match="undeclared"):
            parse_poly("x*q", XY)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(HomogeneityError):
            parse_poly("x^2 + y", XY)

    def test_degree_is_found_once(self, monkeypatch):
        import lefschetz_lab.polycore as polycore_mod

        f = Poly(XY, {(3, 0): 1, (1, 2): -2})
        calls = []
        real = polycore_mod.mono_degree
        monkeypatch.setattr(polycore_mod, "mono_degree", lambda e: calls.append(e) or real(e))
        assert [f.degree for _ in range(4)] == [3] * 4
        assert len(calls) == 2
        assert Poly(XY, f.coeff_map()) == f and hash(Poly(XY, f.coeff_map())) == hash(f)

    def test_inhomogeneous_degree_raises_on_every_access(self):
        g = Poly(XY, {(2, 0): 1, (0, 1): 1})
        for _ in range(3):
            with pytest.raises(HomogeneityError):
                g.degree

    def test_fraction_coefficients(self):
        f = parse_poly("1/2*x^2 + 3/4*x*y", XY)
        assert f.coefficient((2, 0)) == Fraction(1, 2)

    def test_leading_minus(self):
        f = parse_poly("-x^2 + y^2", XY)
        assert f.coefficient((2, 0)) == -1

    def test_repeated_factor_multiplies(self):
        assert parse_poly("x*x", XY) == parse_poly("x^2", XY)


@given(homogeneous_polys())
def test_text_round_trip(f):
    assert parse_poly(f.to_text(), f.vars) == f


class TestDiff:
    def test_ikeda_x0u2(self):
        op = parse_poly("X0*U2", IKEDA_VARS.dual())
        assert diff_apply(op, IKEDA) == parse_poly("u1^3", IKEDA_VARS)

    def test_second_derivative_scalar(self):
        vs = VariableSet(("x",))
        out = diff_apply(parse_poly("X^2", vs.dual()), parse_poly("x^2", vs))
        assert out == Poly.constant(vs, 2)

    def test_ikeda_x1u1(self):
        # oracle: d/dx1 d/du1 (x1*u1*u2^3) = u2^3, all other terms die
        op = parse_poly("X1*U1", IKEDA_VARS.dual())
        assert diff_apply(op, IKEDA) == parse_poly("u2^3", IKEDA_VARS)

    def test_mismatch(self):
        with pytest.raises(VariableMismatchError):
            diff_apply(parse_poly("x", XY), parse_poly("x^2", XY))

    @given(homogeneous_polys(max_vars=3, max_degree=4))
    def test_matches_sympy_partial(self, f):
        expr, symbols = to_sympy(f)
        for i, s in enumerate(symbols):
            expected = sympy.expand(sympy.diff(expr, s))
            got, _ = to_sympy(partial(f, i))
            assert sympy.expand(got - expected) == 0

    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    def test_composition(self, f, data):
        dual = f.vars.dual()
        monos = mono_basis(dual, 1)
        a = Poly.monomial(dual, data.draw(st.sampled_from(monos)))
        b = Poly.monomial(dual, data.draw(st.sampled_from(monos)))
        assert diff_apply(a * b, f) == diff_apply(a, diff_apply(b, f))

    @given(homogeneous_polys())
    def test_euler_identity(self, f):
        vs = f.vars
        total = poly_sum(
            vs,
            [Poly.variable(vs, i) * partial(f, i) for i in range(len(vs))],
        )
        assert total == f.scale(f.degree)


def sympy_apply(op, f):
    """The operator acting on f by sympy differentiation, term by term."""
    expr, symbols = to_sympy(f)
    out = sympy.Integer(0)
    for expo, coeff in op.coeff_map().items():
        term = expr
        for s, e in zip(symbols, expo):
            term = sympy.diff(term, s, e)
        out += sympy.Rational(coeff.numerator, coeff.denominator) * term
    return sympy.expand(out)


@st.composite
def rational_operators(draw, vars, max_degree):
    """Operators over the dual of `vars` with 1..4 terms of degree up to
    `max_degree` and rational coefficients."""
    expos = st.lists(st.integers(0, max_degree), min_size=len(vars), max_size=len(vars)).filter(
        lambda e: sum(e) <= max_degree
    )
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(expos.map(tuple), coeffs, min_size=1, max_size=4))
    return Poly(vars.dual(), terms)


class TestDiffAgainstSympy:
    """Several-term operators with rational coefficients against sympy."""

    @given(rational_polys(max_vars=3, max_degree=4), st.data())
    def test_matches_sympy(self, f, data):
        op = data.draw(rational_operators(f.vars, f.degree + 2))
        got, _ = to_sympy(diff_apply(op, f))
        assert sympy.expand(got - sympy_apply(op, f)) == 0

    def test_cancels_to_zero(self):
        f = parse_poly("1/3*x^3 + 1/2*x*y^2", XY)
        op = parse_poly("1/2*X^2 - Y^2", XY.dual())
        assert sympy_apply(op, f) == 0
        assert diff_apply(op, f).is_zero()

    def test_operators_above_the_degree_give_zero(self):
        f = parse_poly("2/3*x^3*y - 5/4*y^4 + x^2*y^2", XY)
        op = parse_poly("7/2*X^5 - 1/3*X^2*Y^3", XY.dual()) + parse_poly("X^4*Y^2", XY.dual())
        assert diff_apply(op, f).is_zero()
        mixed = op + parse_poly("3/5*X^3*Y", XY.dual())
        assert diff_apply(mixed, f) == Poly.constant(XY, Fraction(3, 5) * 4)
        assert sympy_apply(mixed, f) == sympy.Rational(12, 5)


class TestMonoBasis:
    def test_two_vars_k2(self):
        uv = VariableSet(("u", "v"))
        assert mono_basis(uv, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_four_vars_k2_length(self):
        assert len(mono_basis(IKEDA_VARS, 2)) == 10

    def test_k0(self):
        assert mono_basis(XY, 0) == [(0, 0)]

    def test_descending_lex_order(self):
        for k in range(5):
            monos = mono_basis(IKEDA_VARS, k)
            assert monos == sorted(monos, reverse=True)
            assert len(set(monos)) == len(monos) == comb(3 + k, k)
            assert all(sum(m) == k for m in monos)

    def test_leaves_no_cyclic_garbage(self):
        """The list is freed by reference counting, not by a later full
        collection."""
        gc.collect()
        gc.disable()
        try:
            mono_basis(IKEDA_VARS, 4)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEval:
    def test_simple(self):
        assert eval_poly(parse_poly("x^2 + y^2", XY), (1, 2)) == 5

    def test_zero(self):
        assert eval_poly(Poly.zero(XY), (3, 4)) == 0

    def test_ikeda_ones(self):
        assert eval_poly(IKEDA, (1, 1, 1, 1)) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_poly(IKEDA, (1, 2))


class TestLinearChange:
    def test_identity(self):
        m = [[1, 0], [0, 1]]
        f = parse_poly("x^2 - x*y", XY)
        assert linear_change(f, m) == f

    def test_swap(self):
        m = [[0, 1], [1, 0]]
        assert linear_change(parse_poly("x^2", XY), m) == parse_poly("y^2", XY)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linear_change(parse_poly("x^2", XY), [[1, 1], [1, 1]])

    @given(rational_polys(max_vars=4, max_degree=5), st.data())
    def test_matches_poly_arithmetic_reference(self, f, data):
        n = len(f.vars)
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        from lefschetz_lab import linalg

        if linalg.det(m) == 0:
            with pytest.raises(SingularMatrixError):
                linear_change(f, m)
            return
        assert linear_change(f, m) == linear_change_reference(f, m)

    def test_singular_rational_rejected(self):
        f = parse_poly("1/2*x^2 - 3*x*y", XY)
        with pytest.raises(SingularMatrixError):
            linear_change(f, [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]])

    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    def test_commutes_with_eval(self, f, data):
        n = len(f.vars)
        m = [
            [data.draw(st.integers(-3, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        if linalg.det(m) == 0:
            return
        point = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        image = [sum(m[i][j] * point[j] for j in range(n)) for i in range(n)]
        assert eval_poly(linear_change(f, m), point) == eval_poly(f, image)


@given(homogeneous_polys(max_vars=3, min_degree=3, max_degree=5), st.data())
def test_composition_arbitrary_degrees(f, data):
    dual = f.vars.dual()
    ka = data.draw(st.integers(1, 2))
    kb = data.draw(st.integers(1, 2))
    a = Poly.monomial(dual, data.draw(st.sampled_from(mono_basis(dual, ka))))
    b = Poly.monomial(dual, data.draw(st.sampled_from(mono_basis(dual, kb))))
    assert diff_apply(a * b, f) == diff_apply(a, diff_apply(b, f))


@st.composite
def rational_poly_matrices(draw, max_exponent=4):
    """Small matrices of polynomials with rational coefficients and zero entries."""
    nvars = draw(st.integers(1, 3))
    vs = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    expos = st.tuples(*[st.integers(0, max_exponent)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    entries = [
        [Poly(vs, draw(st.dictionaries(expos, coeffs, max_size=4))) for _ in range(cols)]
        for _ in range(rows)
    ]
    point = draw(st.lists(st.integers(-20, 20), min_size=nvars, max_size=nvars))
    return entries, tuple(point)


# a row of common scale 6 and exponents in the thousands, with its point
HIGH_RATIONAL_ROW = ([[parse_poly("1/3*x^3999*y + x^2*y^3998", XY), parse_poly("5/2*y^4000", XY)]], (-17, 20))


class TestIntMatrix:
    @given(rational_poly_matrices())
    def test_matches_eval_poly_after_row_scaling(self, case):
        # every row is scaled by one common scale: the lcm of all denominators
        entries, point = case
        kernel = IntMatrix(entries)
        scale = lcm(*(c.denominator for row in entries for e in row for c in e.coeff_map().values()))
        assert kernel.scale == scale
        assert kernel.at(point) == [[eval_poly(e, point) * scale for e in row] for row in entries]

    @given(rational_poly_matrices(), st.sampled_from((2, 3, 5, 7, 2**61 - 1)))
    def test_determinant_and_ranks_match_the_rational_matrix(self, case, p):
        # denominators up to 6 make 2, 3 and 5 divide the scale in many cases
        entries, point = case
        kernel = IntMatrix(entries)
        values = [[eval_poly(e, point) for e in row] for row in entries]
        rank = linalg.rank(values)
        assert kernel.rank(point) == rank
        if kernel.scale % p:
            residues = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in values]
            assert kernel.rank_mod(point, p) == linalg.rank_mod(residues, p) <= rank
        else:
            assert kernel.rank_mod(point, p) <= rank
        if len(values) == len(values[0]):
            det = linalg.det(values)
            assert kernel.det(point) == det
            if kernel.scale % p:
                assert kernel.det_mod(point, p) == det.numerator * pow(det.denominator, -1, p) % p
            else:
                assert kernel.det_mod(point, p) is None

    def test_norm_bound_is_the_product_of_row_norms(self):
        vs = XY
        entries = [
            [parse_poly("1/2*x - y", vs), parse_poly("3*y", vs)],
            [parse_poly("x^2", vs), Poly.zero(vs)],
        ]
        # common scale 2: |1| + |-2| + |6| = 9 and |2| = 2
        assert IntMatrix(entries).norm_bound() == 18

    def test_one_poly_in_rows_of_different_scale(self):
        # rows whose own denominators are 2, 1 and 3 share the common scale
        # 6, so the same Poly object is compiled once, into one integer entry
        vs = XY
        shared, zero = parse_poly("x + 3*y", vs), Poly.zero(vs)
        entries = [
            [shared, parse_poly("1/2*x", vs), zero],
            [zero, shared, parse_poly("y", vs)],
            [parse_poly("1/3*y", vs), zero, shared],
        ]
        kernel = IntMatrix(entries)
        assert len(kernel._entries) == 4
        for point in ((2, 5), (-3, 7)):
            assert kernel.at(point) == [[eval_poly(e, point) * 6 for e in row] for row in entries]
        assert kernel.scale == 6
        # row norms at scale 6: |6| + |18| + |3|, |6| + |18| + |6|, |2| + |6| + |18|
        assert kernel.norm_bound() == 27 * 30 * 26

    @given(
        rational_poly_matrices(max_exponent=4000) | rational_poly_matrices(),
        st.sampled_from((2, 3, 5, 7, 2**61 - 1)),
    )
    @example(HIGH_RATIONAL_ROW, 3)  # 3 divides the scale 6
    @example(HIGH_RATIONAL_ROW, 2**61 - 1)
    def test_at_mod_is_at_reduced_mod_p(self, case, p):
        # denominators up to 6 make 2, 3 and 5 divide the scale in many
        # cases; the reduction is the same whether p divides it or not
        entries, point = case
        kernel = IntMatrix(entries)
        assert kernel.at_mod(point, p) == [[x % p for x in row] for row in kernel.at(point)]

    def test_rejects_a_point_of_the_wrong_length(self):
        kernel = IntMatrix([[IKEDA]])
        with pytest.raises(ValueError):
            kernel.at((1, 2))
        with pytest.raises(ValueError, match="point has 2 coordinates, expected 4"):
            kernel.at_mod((1, 2), 7)

    def test_high_powers_match_eval_poly(self):
        # only the powers the monomials use are built: x^2, x^3999, x^4000
        # and y, y^3998, y^4000
        entries = [
            [parse_poly("x^4000", XY), parse_poly("3*x^3999*y - y^4000", XY)],
            [parse_poly("x^2*y^3998", XY), Poly.zero(XY)],
        ]
        kernel = IntMatrix(entries)
        assert kernel._powers == [(0, 2), (0, 3999), (0, 4000), (1, 1), (1, 3998), (1, 4000)]
        for point in ((3, -2), (0, 5), (-7, 1), (2**40, 3)):
            assert kernel.at(point) == [[eval_poly(e, point) for e in row] for row in entries]


@st.composite
def sparse_polys(draw, vars):
    """Polynomials over `vars`, not necessarily homogeneous, with small
    rational coefficients, so that sums and products often cancel terms."""
    expos = st.tuples(*(st.integers(0, 2) for _ in vars.names))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return Poly(vars, draw(st.dictionaries(expos, coeffs, max_size=5)))


def is_canonical(p):
    """p equals its validated rebuild, and each coefficient is a nonzero int
    or a reduced Fraction with denominator > 1."""
    terms = p.coeff_map()
    return p == Poly(p.vars, terms) and all(
        (type(c) is int and c)
        or (type(c) is Fraction and c.denominator > 1 and gcd(c.numerator, c.denominator) == 1)
        for c in terms.values()
    )


def unit_triangular(data, n):
    """A drawn n x n upper triangular integer matrix with ones on the
    diagonal, so unimodular."""
    return [[int(i == j) or (data.draw(st.integers(-2, 2)) if j > i else 0) for j in range(n)] for i in range(n)]


class TestTrustedArithmetic:
    """`Poly`'s own arithmetic skips validation; its results must still be
    what the validating constructor would build."""

    @given(st.data())
    def test_results_are_canonical(self, data):
        vs = VariableSet(("x", "y", "z"))
        a, b, c = (data.draw(sparse_polys(vs)) for _ in range(3))
        op = data.draw(sparse_polys(vs.dual()))
        s = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        m = unit_triangular(data, 3)
        results = [
            a + b, a - b, a - a, -a, a.scale(s), a.scale(0), a * b, a * 2,
            poly_sum(vs, [a, b, c]), poly_sum(vs, [a, -a]),
            diff_apply(op, a), partial(a, 0), partial(a, 2),
            linear_change(a, m),
        ]
        if b:
            results.append(poly_divexact(a * b, b))
        for result in results:
            assert is_canonical(result)

    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    def test_integral_forms_compute_in_ints(self, f, data):
        n = len(f.vars)
        expo = data.draw(st.sampled_from(mono_basis(f.vars, data.draw(st.integers(1, f.degree)))))
        op = Poly.monomial(f.vars.dual(), expo, data.draw(st.integers(-3, 3).filter(bool)))
        m = unit_triangular(data, n)
        m[0][0] = data.draw(st.sampled_from((-2, 2, 3)))
        results = [
            parse_poly(f.to_text(), f.vars), diff_apply(op, f), partial(f, n - 1),
            linear_change(f, m), f.scale(Fraction(4, 2)),
        ]
        for result in results:
            assert all(type(c) is int for _, c in result.terms())

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            Poly(XY, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            parse_poly("x", XY).scale(0.5)
        with pytest.raises(TypeError):
            linear_change(parse_poly("x", XY), [[0.5, 0], [0, 1]])

    def test_poly_sum_rejects_other_variables(self):
        with pytest.raises(VariableMismatchError):
            poly_sum(XY, [Poly.variable(VariableSet(("u", "v")), 0)])
