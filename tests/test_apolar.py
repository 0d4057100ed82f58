from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from lefschetz_lab import linalg
from lefschetz_lab.apolar import (
    HilbertVector,
    ak_basis,
    catalecticant,
    first_dip,
    hilbert_vector,
    is_unimodal,
)
from lefschetz_lab.errors import DegreeRangeError, ZeroPolynomialError
from lefschetz_lab.families import gen_exceptional, gen_gnp, gen_thmwlp, gen_wlpodd
from lefschetz_lab.hessian import is_cone
from lefschetz_lab.polycore import (
    Poly,
    VariableSet,
    diff_apply,
    mono_basis,
    parse_poly,
)

from conftest import catalecticant_reference, cone_polys, homogeneous_polys, prob, rational_polys

IKEDA_VARS = VariableSet(("x0", "x1", "u1", "u2"))
IKEDA = parse_poly("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", IKEDA_VARS)
PERAZZO = parse_poly(
    "x*u^2 + y*u*v + z*v^2", VariableSet(("x", "y", "z", "u", "v"))
)


def brute_force_derivative_rank(f, k):
    """Independent oracle: row-reduce all degree-k derivatives with sympy."""
    dual = f.vars.dual()
    row_monos = mono_basis(f.vars, f.degree - k)
    index = {m: i for i, m in enumerate(row_monos)}
    rows = []
    for expo in mono_basis(dual, k):
        g = diff_apply(Poly.monomial(dual, expo), f)
        row = [0] * len(row_monos)
        for e, c in g.coeff_map().items():
            row[index[e]] = sympy.Rational(c.numerator, c.denominator)
        rows.append(row)
    return sympy.Matrix(rows).rank()


class TestCatalecticant:
    def test_power_has_rank_one(self):
        vs = VariableSet(("x", "y"))
        f = parse_poly("x^4", vs)
        for k in range(5):
            assert linalg.rank(catalecticant(f, k)) == 1

    def test_ikeda_k2_rank(self):
        assert linalg.rank(catalecticant(IKEDA, 2)) == 10

    def test_perazzo_k1_rank(self):
        # oracle from first principles: the five partials u^2, uv, v^2,
        # 2xu+yv, yu+2zv row-reduce to rank 5
        assert linalg.rank(catalecticant(PERAZZO, 1)) == 5

    def test_out_of_range(self):
        with pytest.raises(DegreeRangeError):
            catalecticant(IKEDA, 6)

    def test_rows_and_columns_in_lex_order(self):
        # columns X, Y; rows x^2, xy, y^2: X(x^2 y) = 2xy, Y(x^2 y) = x^2
        f = parse_poly("x^2*y", VariableSet(("x", "y")))
        assert catalecticant(f, 1) == [[0, 1], [2, 0], [0, 0]]
        assert all(type(c) is int for row in catalecticant(f, 1) for c in row)

    @given(rational_polys(max_vars=4, max_degree=6), st.data())
    def test_matches_differentiation_reference(self, f, data):
        k = data.draw(st.integers(0, f.degree))
        matrix = catalecticant(f, k)
        assert matrix == catalecticant_reference(f, k)
        # `Poly`'s convention: an int when integral, else a reduced Fraction
        assert all(type(c) is int or type(c) is Fraction and c.denominator > 1 for row in matrix for c in row)

    @pytest.mark.parametrize("make", [lambda: gen_wlpodd(4, 5), lambda: gen_thmwlp(4, 6)], ids=["wlpodd-4-5", "thmwlp-4-6"])
    def test_matches_differentiation_reference_on_families(self, make):
        f = make().f
        for k in range(f.degree + 1):
            assert catalecticant(f, k) == catalecticant_reference(f, k)

    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    def test_rank_matches_brute_force(self, f, data):
        k = data.draw(st.integers(0, f.degree))
        assert linalg.rank(catalecticant(f, k)) == brute_force_derivative_rank(f, k)

    @given(homogeneous_polys(max_vars=3, max_degree=5), st.data())
    def test_rank_duality(self, f, data):
        k = data.draw(st.integers(0, f.degree))
        assert linalg.rank(catalecticant(f, k)) == linalg.rank(catalecticant(f, f.degree - k))


def scanned_basis(f, k):
    """Reference greedy basis: every degree-k monomial in descending lex
    order, kept when its derivative is independent of those kept before,
    by dense rational row echelon form."""
    dual = f.vars.dual()
    keys = mono_basis(f.vars, f.degree - k)
    echelon = []  # (pivot column, row scaled to 1 there)
    kept = []
    for expo in mono_basis(dual, k):
        g = diff_apply(Poly.monomial(dual, expo), f)
        row = [g.coefficient(m) for m in keys]
        for p, r in echelon:
            if row[p]:
                c = row[p]
                row = [x - c * y for x, y in zip(row, r)]
        p = next((j for j, x in enumerate(row) if x), None)
        if p is not None:
            echelon.append((p, [Fraction(x) / row[p] for x in row]))
            kept.append(expo)
    return kept


def assert_divisor_scan_matches_full_scan(f):
    an = prob(f)
    for k in range(f.degree + 1):
        scanned = ak_basis(an, k)
        assert list(scanned.expos) == scanned_basis(f, k)
        dual = f.vars.dual()
        assert all(diff_apply(Poly.monomial(dual, e), f) == an.derivatives[e] for e in scanned.expos)
        assert an.basis(k) == scanned


SMALL_FAMILY_MEMBERS = [
    lambda: gen_wlpodd(4, 5).f,
    lambda: gen_exceptional(3, 5, 2).f,
    lambda: gen_thmwlp(5, 4).f,
    lambda: gen_gnp(2, 2, 1, 2).f,
    lambda: gen_gnp(2, None, 1, 2, "maximal").f,
]


class TestAkBasis:
    @given(rational_polys(max_vars=4, max_degree=5))
    @settings(max_examples=40)
    def test_divisor_scan_matches_full_scan(self, f):
        assert_divisor_scan_matches_full_scan(f)

    @given(cone_polys())
    def test_divisor_scan_matches_full_scan_on_cones(self, f):
        assert_divisor_scan_matches_full_scan(f)

    @pytest.mark.parametrize(
        "build", SMALL_FAMILY_MEMBERS, ids=["wlpodd-4-5", "exceptional-3-5-2", "thmwlp-5-4", "gnp-2-2-1-2", "gnp-maximal-2-1-2"]
    )
    def test_divisor_scan_matches_full_scan_on_families(self, build):
        assert_divisor_scan_matches_full_scan(build())

    def test_a_basis_reads_no_other_basis(self):
        """A request for a high basis builds that basis alone, and counts as
        reused only when it is asked for again."""
        an = prob(parse_poly("x^12 + y^12 + x^5*y^7", VariableSet(("x", "y"))))
        an.basis(10)
        assert [key for key in an._memo if key[0] == "basis"] == [("basis", 10)]
        assert an.counts()["reused"] == 0
        an.basis(10)
        assert an.counts()["reused"] == 1

    def test_power(self):
        vs = VariableSet(("x", "y"))
        basis = ak_basis(prob(parse_poly("x^3", vs)), 1)
        assert basis.expos == ((1, 0),)

    def test_perazzo_k1_size(self):
        assert len(ak_basis(prob(PERAZZO), 1)) == 5

    def test_deterministic(self):
        a = ak_basis(prob(IKEDA), 2)
        b = ak_basis(prob(IKEDA), 2)
        assert a.expos == b.expos


class TestHilbert:
    def test_power(self):
        vs = VariableSet(("x", "y"))
        assert hilbert_vector(prob(parse_poly("x^4", vs))).dims == (1, 1, 1, 1, 1)

    def test_quartic_core(self):
        f = gen_thmwlp(5, 4).f
        assert hilbert_vector(prob(f)).dims == (1, 6, 6, 6, 1)

    def test_wlpodd45(self):
        f = gen_wlpodd(4, 5).f
        assert hilbert_vector(prob(f)).dims == (1, 5, 12, 12, 5, 1)

    def test_ikeda(self):
        assert hilbert_vector(prob(IKEDA)).dims == (1, 4, 10, 10, 4, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            hilbert_vector(prob(Poly.zero(IKEDA_VARS)))

    @given(homogeneous_polys(max_vars=4, max_degree=5))
    @settings(max_examples=40)
    def test_symmetry(self, f):
        # The vector mirrors its lower half, so check every degree against
        # catalecticant ranks computed independently.
        dims = hilbert_vector(prob(f)).dims
        assert dims == tuple(linalg.rank(catalecticant(f, k)) for k in range(f.degree + 1))

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            HilbertVector((1, 2, 3))


class TestSeparatedVariables:
    @given(st.data())
    @settings(max_examples=20)
    def test_additivity(self, data):
        d = data.draw(st.integers(2, 4))
        g = data.draw(homogeneous_polys(min_vars=2, max_vars=3, min_degree=d, max_degree=d))
        h = data.draw(homogeneous_polys(min_vars=2, max_vars=3, min_degree=d, max_degree=d))
        a, b = len(g.vars), len(h.vars)
        vs = VariableSet(tuple(f"x{i}" for i in range(a)) + tuple(f"u{j}" for j in range(1, b + 1)))
        terms = {}
        for mo, c in g.coeff_map().items():
            terms[tuple(mo) + (0,) * b] = c
        for mo, c in h.coeff_map().items():
            terms[(0,) * a + tuple(mo)] = c
        f = Poly(vs, terms)
        dims_f = hilbert_vector(prob(f)).dims
        dims_g = hilbert_vector(prob(g)).dims
        dims_h = hilbert_vector(prob(h)).dims
        for k in range(1, d):
            assert dims_f[k] == dims_g[k] + dims_h[k]


class TestUnimodal:
    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((1, 6, 6, 6, 1), True),
            ((1, 1), True),
            ((1, 5, 4, 5, 1), False),
            ((1, 2, 3, 3, 2, 1), True),
        ],
    )
    def test_examples(self, dims, expected):
        assert is_unimodal(dims) is expected

    @given(st.lists(st.integers(0, 3), max_size=7))
    def test_unimodal_iff_no_dip(self, dims):
        assert is_unimodal(dims) == (first_dip(dims) is None)

    def test_matches_peak_definition(self):
        # unimodal: some peak p with a weak rise up to it and a weak fall after
        def peaked(v):
            return any(
                all(a <= b for a, b in zip(v[:p], v[1 : p + 1]))
                and all(a >= b for a, b in zip(v[p:], v[p + 1 :]))
                for p in range(len(v))
            ) or not v

        for n in range(8):
            for v in product(range(4), repeat=n):
                assert is_unimodal(v) == peaked(v), v


class TestDependsOnAllVars:
    """Every variable is essential exactly when f is not a cone."""

    def test_missing_variable(self):
        vs = VariableSet(("x", "y"))
        assert is_cone(prob(parse_poly("x^2", vs))).is_cone

    def test_ikeda(self):
        assert not is_cone(prob(IKEDA)).is_cone

    def test_perazzo(self):
        assert not is_cone(prob(PERAZZO)).is_cone
