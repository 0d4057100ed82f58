import functools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import lefschetz_lab.lefschetz as lefschetz
from lefschetz_lab import linalg
from lefschetz_lab.apolar import hilbert_vector
from lefschetz_lab.families import (
    gen_exceptional,
    gen_gn,
    gen_gnp,
    gen_ikeda,
    gen_perazzo,
    gen_permutti,
    gen_prop44,
    gen_thmwlp,
    gen_wlpodd,
)
from lefschetz_lab.hessian import hess_profile, hessian_matrix, is_cone, poly_det_vanishes
from lefschetz_lab.lefschetz import (
    GENERIC_TRIALS,
    LinearForm,
    key_criterion,
    mult_map,
    rank_at,
    slp_check_element,
    slp_generic,
    wlp_check_element,
    wlp_generic,
    wlp_obstruction,
)
from lefschetz_lab.polycore import Poly, VariableSet, diff_apply, eval_poly, mono_basis, mono_mul, parse_poly
from lefschetz_lab.reproduce import _random_linear_form
from lefschetz_lab.support import ZeroBlock, verify_zero_block

from conftest import dense_coords, homogeneous_polys, prob, rational_polys, wlp_check_all_levels

IKEDA_VARS = VariableSet(("x0", "x1", "u1", "u2"))
IKEDA = parse_poly("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", IKEDA_VARS)


def random_linear_form(rng, n, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(n)]
    if not any(coeffs):
        coeffs[0] = 1
    return LinearForm(coeffs)


def linear_operator(L, vars):
    """L as the degree-1 operator sum_i a_i X_i over the dual of `vars`."""
    n = len(vars)
    return Poly(vars.dual(), {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(L.coeffs)})


class TestLinearForm:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearForm((0, 0))

    def test_operator(self):
        vs = VariableSet(("x", "y"))
        op = linear_operator(LinearForm((2, -1)), vs)
        assert op == parse_poly("2*X - Y", vs.dual())


class TestMultMap:
    def test_one_variable_isomorphism(self):
        vs = VariableSet(("x",))
        f = parse_poly("x^3", vs)
        m = mult_map(prob(f), LinearForm((1,)), 1, 1)
        assert len(m) == 1 and m[0][0] != 0

    def test_quartic_injective_level_one(self):
        vs = VariableSet(("x", "y", "z", "u", "v"))
        f = parse_poly("x*u^3 + y*u^2*v + z*u*v^2 + v^4", vs)
        m = mult_map(prob(f), LinearForm((0, 0, 0, 1, 1)), 1, 1)
        assert len(m[0]) == 5
        assert linalg.rank(m) == 5

    def test_ikeda_middle_map_singular(self):
        rng = random.Random(7)
        for _ in range(3):
            L = random_linear_form(rng, 4)
            m = mult_map(prob(IKEDA), L, 2, 1)
            assert len(m) == 10 and len(m[0]) == 10
            assert linalg.rank(m) < 10


def reference_mult_map(an, L, i, k):
    """L^k: A_i -> A_(i+k) built apart from `mult_map`: `diff_apply` of L^k
    on each basis derivative of A_i, solved in a fresh span of the basis
    derivatives of A_(i+k)."""
    span = linalg.SparseSpan()
    for e in an.basis(i + k).expos:
        span.try_add(an.derivatives[e].coeff_map())
    op = linear_operator(L, an.f.vars) ** k
    columns = [dense_coords(span.dependency(diff_apply(op, an.derivatives[e]).coeff_map()), len(span))
               for e in an.basis(i).expos]
    return [list(row) for row in zip(*columns)]


def rational_linear_form(rng, n):
    """Coefficients (2a+1)/(2b): nonzero and never integers."""
    return LinearForm([Fraction(2 * rng.randint(-4, 4) + 1, 2 * rng.randint(1, 3)) for _ in range(n)])


def assert_mult_map_matches_reference(f, L):
    """Every map L^k, k = 1, 2, 3, equals the reference entry for entry; the
    reference reads an Analysis of its own."""
    an, oracle = prob(f), prob(f)
    d = f.degree
    for k in (1, 2, 3):
        for i in range(d - k + 1):
            m = mult_map(an, L, i, k)
            assert m == reference_mult_map(oracle, L, i, k), (i, k)
            assert all(type(x) is Fraction for row in m for x in row)


class TestMultMapCoordinates:
    @given(rational_polys(max_vars=3, min_degree=3, max_degree=5), st.integers(0, 2**32))
    @settings(max_examples=25)
    def test_matches_reference(self, f, seed):
        assert_mult_map_matches_reference(f, rational_linear_form(random.Random(seed), len(f.vars)))

    @pytest.mark.parametrize(
        "make",
        [gen_ikeda, lambda: gen_wlpodd(4, 5), lambda: gen_thmwlp(5, 4), lambda: gen_prop44("i")],
        ids=["ikeda", "wlpodd-4-5", "thmwlp-5-4", "prop44-i"],
    )
    def test_matches_reference_on_families(self, make):
        f = make().f
        assert_mult_map_matches_reference(f, rational_linear_form(random.Random(11), len(f.vars)))

    def test_no_span_of_their_own_once_the_bases_exist(self, monkeypatch):
        """Map columns and the cone witness are solved against the spans the
        bases kept: once the bases exist, `mult_map` and `is_cone` build no
        `SparseSpan`."""
        f = parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3 + z^3", VariableSet(("x", "y", "z")))  # a cone
        L = rational_linear_form(random.Random(3), 3)
        maps = [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)]
        expected = [reference_mult_map(prob(f), L, i, k) for i, k in maps]
        an = prob(f)
        for k in range(f.degree + 1):
            an.basis(k)
        spans = []
        init = linalg.SparseSpan.__init__
        monkeypatch.setattr(linalg.SparseSpan, "__init__", lambda self: spans.append(1) or init(self))
        assert [mult_map(an, L, i, k) for i, k in maps] == expected
        assert is_cone(an).is_cone
        assert spans == []

    def test_rejects_a_form_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            mult_map(prob(IKEDA), LinearForm((1, 2, 3)), 1, 1)


class TestSlpElement:
    def test_binary_quintic(self):
        vs = VariableSet(("x", "y"))
        ok, checks = slp_check_element(
            prob(parse_poly("x^5 + y^5", vs)), LinearForm((1, 1))
        )
        assert ok and all(c.maximal for c in checks)

    def test_ikeda_fails_for_every_form(self):
        rng = random.Random(3)
        for _ in range(3):
            ok, checks = slp_check_element(prob(IKEDA), random_linear_form(rng, 4))
            assert not ok
            assert not checks[2].maximal

    def test_binary_quadric(self):
        vs = VariableSet(("x", "y"))
        ok, _ = slp_check_element(
            prob(parse_poly("x^2 + y^2", vs)), LinearForm((1, 0))
        )
        assert ok


class TestSlpGeneric:
    def test_exceptional_fails_at_two(self):
        report = slp_generic(prob(gen_exceptional(3, 5, 2).f))
        assert report.verdict == "fails" and report.level == 2

    def test_fermat_holds_with_witness(self):
        vs = VariableSet(("x", "y", "z"))
        report = slp_generic(prob(parse_poly("x^4 + y^4 + z^4", vs)))
        assert report.verdict == "holds"
        ok, _ = slp_check_element(prob(parse_poly("x^4 + y^4 + z^4", vs)), report.witness)
        assert ok

    def test_perazzo_shape_fails_at_one(self):
        report = slp_generic(prob(gen_gnp(2, 2, 1, 2).f))
        assert report.verdict == "fails" and report.level == 1

    def test_search_gets_past_refused_points(self, monkeypatch):
        # refuse the first two shared points, where the profile found its
        # witnesses: the first shared point after them that passes is returned
        f = parse_poly("x^4 + y^4 + z^4", VariableSet(("x", "y", "z")))
        an = prob(f)
        drawn = [LinearForm(an.point(t)) for t in range(GENERIC_TRIALS)]
        refused = set(drawn[:2])
        assert {LinearForm(an.verdict(k).witness_point) for k in range(3)} <= refused

        def check(an, L):
            return (False, []) if L in refused else slp_check_element(an, L)

        monkeypatch.setattr(lefschetz, "slp_check_element", check)
        expected = next(L for L in drawn[2:] if slp_check_element(an, L)[0])
        assert slp_generic(an).witness == expected


class TestSharedPoints:
    """One sample sequence per form: every order is evaluated at the same
    points mod one prime, and the SLP witness is read off the profile."""

    @given(homogeneous_polys(max_vars=3, max_degree=5), st.integers(0, 3))
    @settings(max_examples=30)
    def test_witness_read_off_the_profile(self, f, seed):
        import lefschetz_lab.hessian as hessian_mod
        from lefschetz_lab.analysis import Analysis

        trials = []  # per evaluated order: the (point, prime) of each trial
        real_det, real_witness = hessian_mod._det_vanishes, hessian_mod._witness

        def deciding(an, k, kernel):
            trials.append([])
            return real_det(an, k, kernel)

        def witnessing(kernel, point, p):
            trials[-1].append((point, p))
            return real_witness(kernel, point, p)

        an = Analysis(f, "probabilistic", seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hessian_mod, "_det_vanishes", deciding)
            mp.setattr(hessian_mod, "_witness", witnessing)
            profile = hess_profile(an)
        assert {order[0][0] for order in trials} <= {an.point(0)}
        assert {p for order in trials for _, p in order} <= {hessian_mod._decision_prime(seed)}
        assert {v.prime for v in profile if v.residue} <= {hessian_mod._decision_prime(seed)}
        report = slp_generic(an)
        if any(v.vanishes for v in profile):
            assert report.verdict == "fails"
            return
        assert report.verdict == "holds"
        assert report.witness in {LinearForm(an.point(t)) for t in range(GENERIC_TRIALS)}
        if all(v.witness_point == an.point(0) for v in profile):
            assert report.witness == LinearForm(an.point(0))
        # the oracle: every order ranked afresh at the witness, nothing read off the profile
        ok, checks = slp_check_element(Analysis(f, "probabilistic", seed), report.witness)
        assert ok and tuple(checks) == report.levels

    def test_no_evaluation_when_point_zero_decides_every_order(self, monkeypatch):
        from lefschetz_lab.polycore import IntMatrix

        an = prob(parse_poly("x^4 + y^4 + z^4 + x^2*y*z", VariableSet(("x", "y", "z"))))
        profile = hess_profile(an)
        assert all(v.witness_point == an.point(0) for v in profile)
        evaluated = []
        real, real_mod = IntMatrix.at, IntMatrix.at_mod
        monkeypatch.setattr(IntMatrix, "at", lambda kernel, point: evaluated.append(point) or real(kernel, point))
        monkeypatch.setattr(
            IntMatrix, "at_mod", lambda kernel, point, p: evaluated.append(point) or real_mod(kernel, point, p)
        )
        kernels = an.counts()["kernels"]
        report = slp_generic(an)
        assert evaluated == [] and an.counts()["kernels"] == kernels
        assert report.verdict == "holds" and report.witness == LinearForm(an.point(0))
        assert [(c.rank, c.required) for c in report.levels] == [(1, 1), (3, 3), (6, 6)]


class TestWlpElement:
    def test_quartic_example_level_one(self):
        # d = 4: the one map ranked is A_1 -> A_2
        vs = VariableSet(("x", "y", "z", "u", "v"))
        f = parse_poly("x*u^3 + y*u^2*v + z*u*v^2 + v^4", vs)
        ok, checks = wlp_check_element(prob(f), LinearForm((0, 0, 0, 1, 1)))
        assert ok and [(c.i, c.step, c.rank, c.required) for c in checks] == [(1, 1, 5, 5)]

    def test_prop44_witness(self):
        inst = gen_prop44("i")
        ok, _ = wlp_check_element(prob(inst.f), inst.manifest.wlp_witness)
        assert ok

    def test_cubic_single_variable(self):
        vs = VariableSet(("x",))
        ok, _ = wlp_check_element(prob(parse_poly("x^3", vs)), LinearForm((1,)))
        assert ok


class TestWlpGeneric:
    def test_thmwlp54_fails_with_certificate(self):
        report = wlp_generic(prob(gen_thmwlp(5, 4).f))
        assert report.verdict == "fails"
        assert report.level == 1 and report.map == (1, 2)
        assert report.certificate is not None

    def test_wlpodd45_fails_middle(self):
        report = wlp_generic(prob(gen_wlpodd(4, 5).f))
        assert report.verdict == "fails" and report.level == 2

    def test_fermat_holds(self):
        vs = VariableSet(("x", "y", "z"))
        report = wlp_generic(prob(parse_poly("x^4 + y^4 + z^4", vs)))
        assert report.verdict == "holds"
        assert report.witness is not None

    def test_report_serializes(self):
        report = wlp_generic(prob(gen_thmwlp(5, 4).f))
        data = report.to_json_dict()
        assert data["verdict"] == "fails"
        assert data["certificate"]["type"] == "zero-block" and data["certificate"]["orders"] == [1, 2]
        assert data["certificate"]["rows"] == [[int(i == j) for j in range(6)] for i in range(4)]  # X2 .. X5


def seeded_dense_form(seed):
    """A form in 3 or 4 variables of degree 3 to 5 with every monomial and
    seeded coefficients in -9..9."""
    rng = random.Random(f"dense:{seed}")
    vs = VariableSet(tuple(f"x{i}" for i in range(rng.randint(3, 4))))
    return Poly(vs, {e: rng.randint(-9, 9) or 1 for e in mono_basis(vs, rng.randint(3, 5))})


FERMAT14_VARS = VariableSet(tuple(f"a{i}" for i in range(14)))
SLP_HOLDS = {
    "cubic": parse_poly("x^3+y^3+z^3+x*y*z", VariableSet(("x", "y", "z"))),
    "fermat14": parse_poly("+".join(f"{a}^3" for a in FERMAT14_VARS.names), FERMAT14_VARS),
    "quartic": parse_poly("x^4+y^4+z^4+x^2*y*z", VariableSet(("x", "y", "z"))),
    **{f"dense-{seed}": seeded_dense_form(seed) for seed in range(4)},
}


class TestWlpFromSlp:
    """SLP implies WLP, though WLP no longer reads the SLP report."""

    @pytest.mark.parametrize("name", SLP_HOLDS)
    def test_levels_are_the_ranks_at_the_slp_witness(self, name):
        """Where SLP holds, WLP holds, and its levels are the all-levels
        oracle's ranks at the SLP witness: every map at its maximal rank."""
        an = prob(SLP_HOLDS[name])
        slp = slp_generic(an)
        assert slp.verdict == "holds"
        wlp = wlp_generic(an)
        ok, checks = wlp_check_all_levels(an, slp.witness)
        assert wlp.verdict == "holds" and ok and wlp.levels == tuple(checks)

    def test_searches_when_slp_fails_or_is_absent(self, monkeypatch):
        """prop44(i): d = 4 and hess^1 = 0, so WLP searches, undecided SLP or
        failed, and the same elements; each is ranked on A_1 -> A_2 alone."""
        an = prob(gen_prop44("i").f)
        ranked = []
        real = lefschetz.rank_at

        def counting(an, k, l, L):
            ranked.append((k, l, L))
            return real(an, k, l, L)

        monkeypatch.setattr(lefschetz, "rank_at", counting)
        absent = wlp_generic(an)
        searched = list(ranked)
        assert slp_generic(an).verdict == "fails"
        ranked.clear()
        assert wlp_generic(an) == absent and absent.verdict == "holds"
        assert ranked == searched and {(k, l) for k, l, _ in searched} == {(1, 2)}
        monkeypatch.undo()
        ok, checks = wlp_check_all_levels(an, absent.witness)
        assert ok and absent.levels == tuple(checks)


MIDDLE_HOLDS = {
    **SLP_HOLDS,
    # odd d, SLP fails below the middle, hess^m != 0
    "exceptional-4-7-2": gen_exceptional(4, 7, 2).f,
    "exceptional-3-9-2": gen_exceptional(3, 9, 2).f,
}


class TestWlpFromMiddle:
    @pytest.mark.parametrize("name", MIDDLE_HOLDS)
    def test_middle_witness_settles_wlp(self, name):
        """A nonvanishing middle Hessian settles WLP at its witness point,
        with every level at its maximal rank, and builds nothing beyond the
        profile to do so."""
        an = prob(MIDDLE_HOLDS[name])
        an.hilbert()
        hess_profile(an)
        before = an.counts()
        wlp = wlp_generic(an)
        after = an.counts()
        assert after["kernels"] == before["kernels"]
        assert after["basis_candidates"] == before["basis_candidates"]
        m = (an.f.degree - 1) // 2
        assert wlp.verdict == "holds"
        assert wlp.witness == LinearForm(an.verdict(m).witness_point)
        ok, checks = wlp_check_all_levels(an, wlp.witness)
        assert ok and wlp.levels == tuple(checks)


def draw_element(data, n):
    """A nonzero linear form with coefficients in -2..2, where ranks often
    drop, or in the search's range -320..320."""
    bound = data.draw(st.sampled_from((2, 320)))
    coeffs = [data.draw(st.integers(-bound, bound)) for _ in range(n)]
    if not any(coeffs):
        coeffs[0] = 1
    return LinearForm(coeffs)


PROBE_FAMILIES = {
    "exceptional-4-10-4": lambda: gen_exceptional(4, 10, 4),
    "exceptional-3-7-3": lambda: gen_exceptional(3, 7, 3),
    "thmwlp-5-4": lambda: gen_thmwlp(5, 4),
    "thmwlp-6-8": lambda: gen_thmwlp(6, 8),
    "wlpodd-4-5": lambda: gen_wlpodd(4, 5),
    "ikeda": gen_ikeda,
    "prop44-i": lambda: gen_prop44("i"),
    "prop44-ii": lambda: gen_prop44("ii"),
    "prop44-iii": lambda: gen_prop44("iii"),
    # non-unimodal, h = (1, 13, 12, 13, 1)
    "gnp-maximal-3-1-3": lambda: gen_gnp(3, None, 1, 3, "maximal"),
    "perazzo-2-2-3": lambda: gen_perazzo(2, 2, 3),
    "permutti-2-2-3-4": lambda: gen_permutti(2, 2, 3, 4),
}


@functools.cache
def probe_analysis(name):
    return prob(PROBE_FAMILIES[name]().f)


class TestOneMapMatchesOracle:
    """`wlp_check_element` ranks A_m -> A_(m+1) alone; in a Gorenstein
    algebra it accepts exactly the elements the all-levels oracle accepts."""

    @given(homogeneous_polys(max_vars=4, min_degree=1, max_degree=6), st.data())
    @settings(max_examples=60)
    def test_random_forms(self, f, data):
        an, L = prob(f), draw_element(data, len(f.vars))
        assert wlp_check_element(an, L)[0] == wlp_check_all_levels(an, L)[0]

    @given(st.integers(0, 40), st.data())
    @settings(max_examples=20)
    def test_seeded_dense_forms(self, seed, data):
        f = seeded_dense_form(seed)
        an, L = prob(f), draw_element(data, len(f.vars))
        assert wlp_check_element(an, L)[0] == wlp_check_all_levels(an, L)[0]

    @pytest.mark.parametrize("name", PROBE_FAMILIES)
    @given(data=st.data())
    @settings(max_examples=12)
    def test_family_forms(self, name, data):
        an = probe_analysis(name)
        L = draw_element(data, len(an.f.vars))
        assert wlp_check_element(an, L)[0] == wlp_check_all_levels(an, L)[0]


def op_texts(expos, f):
    """The monomial operators of `expos` over f's dual variables, as text."""
    return [Poly.monomial(f.vars.dual(), e).to_text() for e in expos]


class TestKeyCriterion:
    def test_ikeda(self):
        an = prob(IKEDA)
        cert = key_criterion(an, 2)
        assert cert is not None and (cert.k, cert.l) == (2, 2)
        assert op_texts(cert.rows, IKEDA) == ["X0*U1", "X0*U2", "X1*U1", "X1*U2"]
        assert len(cert.cols) == 7 and cert.size == 11 > len(an.basis(2)) == 10
        assert verify_zero_block(IKEDA, an.hilbert(), cert)

    def test_split_powers_no_certificate(self):
        vs = VariableSet(("x", "y"))
        f = parse_poly("x^4 + y^4", vs)
        for k in (1, 2):
            assert key_criterion(prob(f), k) is None

    def test_gnp_dual_ops(self):
        f = gen_gnp(2, 2, 2, 3).f
        cert = key_criterion(prob(f), 2)
        assert cert is not None and op_texts(cert.rows, f) == ["X^2", "X*Y", "Y^2", "Z^2"]

    def test_pure_u_operator_joins_the_columns(self):
        # U3 sends f to 4*u3^3, and no x-operator's row meets it: it is a
        # column of the block, but not a row, as U3^2 f != 0
        vs = VariableSet(("x0", "x1", "x2", "x3", "u1", "u2", "u3"))
        f = parse_poly("x0*u1^3 + x1*u1^2*u2 + x2*u1*u2^2 + x3*u2^3 + u3^4", vs)
        cert = key_criterion(prob(f), 1)
        assert op_texts(cert.rows, f) == ["X0", "X1", "X2", "X3"]
        assert op_texts(cert.cols, f) == ["X0", "X1", "X2", "X3", "U3"]
        assert cert == oracle_block(f, 1, 1)

    def test_split_not_required(self):
        """The block is read off supp(f), so the order the variables are
        declared in changes no block: ikeda with its u-block first has the
        same rows and columns."""
        u_first = parse_poly(IKEDA.to_text(), VariableSet(("u1", "u2", "x0", "x1")))
        cert, u_cert = key_criterion(prob(IKEDA), 2), key_criterion(prob(u_first), 2)
        assert sorted(e[2:] + e[:2] for e in u_cert.rows) == sorted(cert.rows)
        assert sorted(e[2:] + e[:2] for e in u_cert.cols) == sorted(cert.cols)
        f = parse_poly("x*u^2 + y*u*v + z*v^2", VariableSet(("x", "y", "z", "u", "v")))
        cert = key_criterion(prob(f), 1)
        assert op_texts(cert.rows, f) == ["X", "Y", "Z"] and cert.size == 6 > 5

    def test_tampered_certificate_rejected(self):
        an = prob(IKEDA)
        cert = key_criterion(an, 2)
        assert not verify_zero_block(IKEDA, an.hilbert(), cert._replace(cols=cert.cols[1:]))


class TestWlpObstruction:
    def test_degree_four(self):
        f = gen_thmwlp(5, 4).f
        an = prob(f)
        cert = wlp_obstruction(an, 1)
        assert (cert.k, cert.l) == (1, 2)
        assert op_texts(cert.rows, f) == ["X2", "X3", "X4", "X5"]
        assert op_texts(cert.cols, f) == ["X2*U", "X3*U", "X3*V", "X4*U", "X4*V", "X5*V"]
        assert len(an.divisor_monomials(1)) + len(an.divisor_monomials(2)) - cert.size == 15 - 10 < len(an.basis(1))
        assert verify_zero_block(f, an.hilbert(), cert)

    def test_degree_six(self):
        f = gen_thmwlp(4, 6).f
        cert = wlp_obstruction(prob(f), 2)
        assert (cert.k, cert.l, cert.size) == (2, 3, 13)
        assert set(op_texts(cert.rows, f)) == {"X2*U", "X2*V", "X3*U", "X3*V", "X4*U", "X4*V"}

    def test_degree_eight(self):
        f = gen_thmwlp(3, 8).f
        cert = wlp_obstruction(prob(f), 3)
        assert (len(cert.rows), len(cert.cols)) == (6, 6)

    def test_pure_u_operators_counted(self):
        # the rows of x, y, z meet no column of x, y, z or W: W, a pure-u
        # operator, is the column that takes the block past h_1 = 6
        vs = VariableSet(("x", "y", "z", "u", "v", "w"))
        f = parse_poly("x*u^2 + y*u*v + z*v^2 + w^3", vs)
        an = prob(f)
        cert = wlp_obstruction(an, 1)
        assert op_texts(cert.rows, f) == ["X", "Y", "Z"]
        assert op_texts(cert.cols, f) == ["X", "Y", "Z", "W"]
        assert cert.size == 7 > len(an.basis(1)) == 6
        assert cert == oracle_block(f, 1, 1)
        assert verify_zero_block(f, an.hilbert(), cert)

    def test_below_the_middle_builds_no_basis_above_it(self):
        """Six x-variables send f into K[u, v], whose quartics number five:
        A_1 -> A_2 is never injective.  Level 1 lies below the middle of
        d = 6, so its columns are the 17 quartic divisors of f's terms, not
        a basis of A_4, and WLP fails there with no basis past A_3 built."""
        vs = VariableSet(tuple("abcdefuv"))
        f = parse_poly("a*u^5 + b*u^4*v + c*u^3*v^2 + d*u^2*v^3 + e*u*v^4 + f*v^5 + u^6 + v^6", vs)
        an = prob(f)
        hv = an.hilbert()
        candidates = an.counts()["basis_candidates"]
        report = wlp_generic(an)
        assert (report.verdict, report.level) == ("fails", 1)
        cert = report.certificate
        assert cert is an.obstruction(1) and (cert.k, cert.l) == (1, 4)
        assert op_texts(cert.rows, f) == ["A", "B", "C", "D", "E", "F"]
        assert len(cert.cols) == 12 and cert.size == 18 > 17 > hv[4] == 8
        assert an.counts()["basis_candidates"] == candidates
        assert verify_zero_block(f, hv, cert)
        # the bound needs distinct columns, each a divisor of a term
        assert not verify_zero_block(f, hv, cert._replace(cols=(cert.cols[0], *cert.cols[:-1])))
        assert not verify_zero_block(f, hv, cert._replace(cols=((4, 0, 0, 0, 0, 0, 0, 0), *cert.cols[1:])))
        rng = random.Random(5)
        for _ in range(10):
            L = random_linear_form(rng, len(f.vars))
            assert linalg.rank(mult_map(an, L, 1, 1)) < hv[1]

    def test_empty_regime(self):
        # a level at or past the middle has no never-injective map to certify
        assert wlp_obstruction(prob(IKEDA), 3) is None

    def test_certificate_forces_kernels(self):
        f = gen_thmwlp(5, 4).f
        an = prob(f)
        cert = wlp_obstruction(an, 1)
        assert cert is not None
        rng = random.Random(11)
        h1 = len(an.basis(1))
        for _ in range(20):
            L = random_linear_form(rng, len(f.vars))
            assert linalg.rank(mult_map(an, L, 1, 1)) < h1


def nonzero_derivatives(f, degree):
    """The degree-`degree` monomial operators that do not annihilate f, by
    `diff_apply`, in descending lex order: D_degree by its definition."""
    dual = f.vars.dual()
    return tuple(e for e in mono_basis(dual, degree) if not diff_apply(Poly.monomial(dual, e), f).is_zero())


GOLDEN_INSTANCES = os.path.join(os.path.dirname(__file__), "data", "golden_instances.json")


@functools.lru_cache(maxsize=1)
def golden_forms():
    """Each recorded family instance's form, by name."""
    with open(GOLDEN_INSTANCES, encoding="utf-8") as fh:
        data = json.load(fh)
    return {name: parse_poly(inst["poly"], VariableSet(tuple(inst["vars"]))) for name, inst in data.items()}


def certificates(an):
    """Every zero block that certifies an order or a level of `an`'s form."""
    d = an.f.degree
    found = [an.key(k) for k in range(1, d // 2 + 1)] + [an.obstruction(k) for k in range(1, (d + 1) // 2)]
    return [cert for cert in found if cert is not None]


def redrawn(f, rng, values):
    """f with the same support and each coefficient drawn from `values`."""
    return Poly(f.vars, {e: rng.choice(values) for e in sorted(f.coeff_map())})


class TestZeroBlockReplay:
    def test_certificates_hold_on_the_whole_support(self):
        """A block reads supp(f) alone: on every recorded instance, with its
        coefficients redrawn from the nonzero integers in -9..9, each
        certified order and level whose h_k is at least f's is certified
        by the same block, which replays on the new form, and the new
        form's Hessian there has rank below h_k at a point, mod its prime."""
        rng = random.Random(7)
        values = [c for c in range(-9, 10) if c]
        kept = skipped = 0
        for f in golden_forms().values():
            an = prob(f)
            g = redrawn(f, rng, values)
            other = prob(g)
            point = other.point(0)
            for cert in certificates(an):
                k, l = cert.k, cert.l
                if other.hilbert()[k] < an.hilbert()[k]:
                    skipped += 1
                    continue
                assert (other.key(k) if k == l else other.obstruction(k)) == cert
                assert verify_zero_block(g, other.hilbert(), cert)
                assert other.kernel(k, l).rank_mod(point, other.prime) < len(other.basis(k))
                kept += 1
        assert (kept, skipped) == (148, 0)

    def test_mutated_blocks_rejected(self):
        """On every recorded instance, each certificate replays, and each of
        these changes to it fails: a row outside D_k, a column outside D_l,
        a repeated row, a row and a column whose product divides a term,
        and a block one short, with |D_k| + |D_l| - size = h_k; so does the
        certificate with a Hilbert vector cut before or after h_k or one
        entry too long, or an order given as a float or, for 1, as True."""
        tried = Counter()
        for f in golden_forms().values():
            an = prob(f)
            hv, dual, terms = an.hilbert(), f.vars.dual(), f.coeff_map()
            for cert in certificates(an):
                k, l, rows, cols = cert.k, cert.l, cert.rows, cert.cols
                divisors_k, divisors_l = an.divisor_monomials(k), an.divisor_monomials(l)
                assert verify_zero_block(f, hv, cert)
                bad = {}
                outside_k = [e for e in mono_basis(dual, k) if e not in divisors_k]
                outside_l = [e for e in mono_basis(dual, l) if e not in divisors_l]
                if outside_k:
                    bad["row outside D_k"] = cert._replace(rows=(outside_k[0], *rows[1:]))
                if outside_l and cols:
                    bad["column outside D_l"] = cert._replace(cols=(outside_l[0], *cols[1:]))
                if len(rows) > 1:
                    bad["repeated row"] = cert._replace(rows=(*rows[:-1], rows[0]))

                def meets(a, b):
                    return any(all(x <= y for x, y in zip(mono_mul(a, b), e)) for e in terms)

                col = next((b for b in divisors_l if b not in cols and any(meets(a, b) for a in rows)), None)
                row = next((a for a in divisors_k if a not in rows and any(meets(a, b) for b in cols)), None)
                bad["a cell that is not zero"] = (cert._replace(cols=(col, *cols[1:])) if col is not None and cols
                                                  else cert._replace(rows=(row, *rows[1:])))
                # dropping `spare` rows or columns lifts the ceiling to h_k; one fewer keeps it below
                spare = hv[k] - (len(divisors_k) + len(divisors_l) - cert.size)
                side = "cols" if len(cols) >= spare else "rows"
                assert verify_zero_block(f, hv, cert._replace(**{side: getattr(cert, side)[spare - 1:]}))
                bad["ceiling h_k"] = cert._replace(**{side: getattr(cert, side)[spare:]})
                for kind, block in bad.items():
                    assert not verify_zero_block(f, hv, block), (kind, block)
                malformed = {"vector cut before h_k": (hv.dims[:k], cert),
                             "vector cut after h_k": (hv.dims[:k + 1], cert),
                             "vector one too long": ((*hv.dims, 1), cert),
                             "float order": (hv, cert._replace(k=float(k))),
                             "float second order": (hv, cert._replace(l=float(l)))}
                if k == 1:
                    malformed["order True"] = (hv, cert._replace(k=True))
                for kind, (dims, block) in malformed.items():
                    assert not verify_zero_block(f, dims, block), (kind, dims, block)
                tried.update([*bad, *malformed])
        assert len(tried) == 11 and sum(tried.values()) > 1300

    def test_replay_takes_no_derivative(self, monkeypatch):
        """With `diff_apply` and `SparseSpan` made to raise, the certificates
        of every recorded report and of every recorded instance replay."""
        import lefschetz_lab.oracles as oracles_mod

        with open(os.path.join(os.path.dirname(__file__), "data", "golden_reports.json"), encoding="utf-8") as fh:
            reports = [case["report"] for case in json.load(fh).values()]
        blocks = [(parse_poly(r["input"]["poly"], VariableSet(tuple(r["input"]["vars"]))), r["hilbert"],
                   ZeroBlock(*c["orders"], tuple(map(tuple, c["rows"])), tuple(map(tuple, c["cols"]))))
                  for r in reports for c in r["certificates"]]
        for f in golden_forms().values():
            an = prob(f)
            blocks += [(f, an.hilbert(), cert) for cert in certificates(an)]

        def refused(*args, **kwargs):
            raise AssertionError("replay took a derivative or a span")

        monkeypatch.setattr(oracles_mod, "diff_apply", refused)
        monkeypatch.setattr(linalg, "SparseSpan", refused)
        assert len(blocks) > 150 and all(verify_zero_block(f, hv, cert) for f, hv, cert in blocks)


def oracle_block(f, k, l, rows=None, cols=None):
    """The zero block by its definition: cells built by `diff_apply` over
    the rows `rows` and the columns `cols` (by default D_k and D_l, the
    operators that do not annihilate f), a maximum matching by recursive
    augmenting paths, and Koenig's sets by a breadth-first search from the
    unmatched rows.  Those sets are the same for every maximum matching."""
    dual = f.vars.dual()
    rows = nonzero_derivatives(f, k) if rows is None else rows
    cols = nonzero_derivatives(f, l) if cols is None else cols
    ops = [Poly.monomial(dual, e) for e in cols]
    nonzero = [[not diff_apply(b, diff_apply(Poly.monomial(dual, a), f)).is_zero() for b in ops] for a in rows]
    mate = {}  # column -> row

    def augment(r, seen):
        for j, cell in enumerate(nonzero[r]):
            if cell and j not in seen:
                seen.add(j)
                if j not in mate or augment(mate[j], seen):
                    mate[j] = r
                    return True
        return False

    for r in range(len(rows)):
        augment(r, set())
    matched = set(mate.values())
    reached_rows = [r for r in range(len(rows)) if r not in matched]
    reached_cols = set()
    queue = list(reached_rows)
    while queue:
        r = queue.pop(0)
        for j, cell in enumerate(nonzero[r]):
            if cell and j not in reached_cols:
                reached_cols.add(j)
                reached_rows.append(mate[j])
                queue.append(mate[j])
    return ZeroBlock(k, l, tuple(rows[r] for r in sorted(reached_rows)),
                     tuple(c for j, c in enumerate(cols) if j not in reached_cols))


def assert_searches_match_oracle(f):
    """The block of every order and of every level below the middle equals
    the oracle's over D_k x D_l; each certificate found is that block, its
    ceiling |D_k| + |D_l| - size below h_k, and replays.  Over D_k x D_l the
    bound is never stronger than over the bases, which the greedy bases of a
    fresh Analysis check: where a block certifies, the bases' block does too."""
    an, bases = prob(f), prob(f)
    d = f.degree
    for k, l in [(k, k) for k in range(1, d // 2 + 1)] + [(k, d - 1 - k) for k in range(1, (d + 1) // 2)]:
        block = an.block(k, l)
        assert block == oracle_block(f, k, l)
        assert an.divisor_monomials(k) == nonzero_derivatives(f, k)
        cert = key_criterion(an, k) if k == l else wlp_obstruction(an, k)
        h_k = len(an.basis(k))
        ceiling = len(an.divisor_monomials(k)) + len(an.divisor_monomials(l)) - block.size
        assert cert == (block if ceiling < h_k else None)
        assert cert is None or verify_zero_block(f, an.hilbert(), cert)
        if cert is not None:
            rows, cols = bases.basis(k).expos, bases.basis(l).expos
            assert oracle_block(f, k, l, rows, cols).size > len(cols)


SPLIT_FAMILIES = [
    lambda: gen_ikeda(),
    lambda: gen_exceptional(3, 5, 2),
    lambda: gen_exceptional(3, 7, 3),
    lambda: gen_gnp(2, 2, 1, 2, "lemma_m2"),
    lambda: gen_gnp(2, 2, 2, 3, "lemma_m2"),
    lambda: gen_gnp(2, None, 1, 2, "maximal"),
    lambda: gen_gnp(2, 2, 1, 2, "minimal"),
    lambda: gen_perazzo(2, 2, 3),
    lambda: gen_permutti(2, 2, 3, 3),
    lambda: gen_gn(2, 2, 1, 3, 4),
    lambda: gen_wlpodd(4, 5),
    lambda: gen_wlpodd(5, 7),
    lambda: gen_thmwlp(5, 4),
    lambda: gen_thmwlp(4, 6),
    lambda: gen_thmwlp(3, 8),
    lambda: gen_prop44("i"),
    lambda: gen_prop44("iii"),
]


class TestSingleScan:
    @pytest.mark.parametrize("build", SPLIT_FAMILIES, ids=lambda b: b().spec.kind)
    def test_families_match_oracle(self, build):
        assert_searches_match_oracle(build().f)

    def test_both_certificates_of_an_order_read_one_scan(self, monkeypatch):
        """Each pattern is read off supp(f) once: the order's certificate
        and the kernel both read it, and a second read is a memo hit.  At
        the middle of odd d, (3, 3) is both the order and the level; each
        level below it reads the pattern of (k, d-1-k), once."""
        import lefschetz_lab.analysis as analysis_mod

        f = gen_wlpodd(5, 7).f
        calls = []
        real = analysis_mod.zero_pattern
        monkeypatch.setattr(analysis_mod, "zero_pattern", lambda an, k, l: calls.append((k, l)) or real(an, k, l))
        an = prob(f)
        for k in (1, 2, 3):
            an.key(k)
            an.obstruction(k)
            an.kernel(k, k)
        assert sorted(calls) == [(1, 1), (1, 5), (2, 2), (2, 4), (3, 3)]
        assert an.key(3) is an.obstruction(3) is an.block(3, 3)

    @given(homogeneous_polys(min_vars=2, max_vars=4, min_degree=2, max_degree=6))
    @settings(max_examples=40)
    def test_split_forms_match_oracle(self, f):
        """Random forms: every block equals the oracle's."""
        assert_searches_match_oracle(f)


def assert_levels_match_mult_map(f, L):
    """Every rank the element checks report equals the explicit mult_map rank.

    The oracle reads its own Analysis, so no memoized piece is shared.
    """
    an, oracle = prob(f), prob(f)
    for check_element in (slp_check_element, wlp_check_element):
        _, checks = check_element(an, L)
        for c in checks:
            assert c.rank == linalg.rank(mult_map(oracle, L, c.i, c.step)), (check_element, c)


class TestRankConsistency:
    @given(homogeneous_polys(max_vars=3, min_degree=1, max_degree=5), st.data())
    @settings(max_examples=25)
    def test_check_element_ranks_match_mult_map(self, f, data):
        coeffs = [data.draw(st.integers(-5, 5)) for _ in range(len(f.vars))]
        if not any(coeffs):
            coeffs[0] = 1
        assert_levels_match_mult_map(f, LinearForm(coeffs))

    @pytest.mark.parametrize(
        "make",
        [gen_ikeda, lambda: gen_wlpodd(4, 5), lambda: gen_thmwlp(5, 4), lambda: gen_prop44("i")],
        ids=["ikeda", "wlpodd-4-5", "thmwlp-5-4", "prop44-i"],
    )
    def test_check_element_ranks_match_mult_map_on_families(self, make):
        f = make().f
        rng = random.Random(5)
        for _ in range(2):
            assert_levels_match_mult_map(f, random_linear_form(rng, len(f.vars)))

    @given(homogeneous_polys(max_vars=3, min_degree=2, max_degree=5), st.data())
    @settings(max_examples=30)
    def test_hessian_rank_equals_multiplication_rank(self, f, data):
        d = f.degree
        k = data.draw(st.integers(0, d // 2))
        coeffs = [data.draw(st.integers(-5, 5)) for _ in range(len(f.vars))]
        if not any(coeffs):
            coeffs[0] = 1
        L = LinearForm(coeffs)
        H = hessian_matrix(prob(f), k)
        evaluated = [[eval_poly(e, L.coeffs) for e in row] for row in H]
        assert linalg.rank(evaluated) == linalg.rank(mult_map(prob(f), L, k, d - 2 * k))

    @given(homogeneous_polys(max_vars=3, min_degree=2, max_degree=5), st.data())
    @settings(max_examples=20)
    def test_consecutive_rank_duality(self, f, data):
        d = f.degree
        i = data.draw(st.integers(0, d - 1))
        coeffs = [data.draw(st.integers(-5, 5)) for _ in range(len(f.vars))]
        if not any(coeffs):
            coeffs[0] = 1
        L = LinearForm(coeffs)
        r1 = linalg.rank(mult_map(prob(f), L, i, 1))
        r2 = linalg.rank(mult_map(prob(f), L, d - i - 1, 1))
        assert r1 == r2

    @given(homogeneous_polys(max_vars=3, min_degree=2, max_degree=4), st.data())
    @settings(max_examples=15)
    def test_scaling_invariance(self, f, data):
        coeffs = [data.draw(st.integers(-4, 4)) for _ in range(len(f.vars))]
        if not any(coeffs):
            coeffs[0] = 1
        c = data.draw(st.sampled_from((2, -1, 7, Fraction(1, 3))))
        L = LinearForm(coeffs)
        scaled = LinearForm([c * x for x in coeffs])
        ok1, checks1 = wlp_check_element(prob(f), L)
        ok2, checks2 = wlp_check_element(prob(f), scaled)
        assert ok1 == ok2
        assert [c.rank for c in checks1] == [c.rank for c in checks2]


class TestUndetermined:
    def test_no_trials_no_certificate(self, monkeypatch):
        """prop44(i): d = 4, hess^1 = 0 and no obstruction, so only the
        search can settle WLP, and with no trials it is undetermined."""
        monkeypatch.setattr("lefschetz_lab.lefschetz.GENERIC_TRIALS", 0)
        report = wlp_generic(prob(gen_prop44("i").f))
        assert report.verdict == "undetermined"
        assert report.witness is None

    @pytest.mark.parametrize("make", [
        lambda: parse_poly("x^4 + y^4 + z^4", VariableSet(("x", "y", "z"))),
        lambda: gen_exceptional(4, 7, 2).f,
    ], ids=["fermat-quartic", "exceptional-4-7-2"])
    def test_middle_verdict_needs_no_trials(self, monkeypatch, make):
        """A nonvanishing middle Hessian settles WLP without a search, in even
        d and in odd d (where SLP fails below the middle)."""
        monkeypatch.setattr("lefschetz_lab.lefschetz.GENERIC_TRIALS", 0)
        report = wlp_generic(prob(make()))
        assert report.verdict == "holds" and report.witness is not None


class TestNonUnimodalFailure:
    def test_wide_product_family_dips_in_the_middle(self):
        from lefschetz_lab.families import gen_gnp

        f = gen_gnp(3, None, 1, 3, "maximal").f
        assert hilbert_vector(prob(f)).dims == (1, 13, 12, 13, 1)
        report = wlp_generic(prob(f))
        assert report.verdict == "fails"
        assert "non-unimodal" in str(report.certificate)


class TestKeyCriterionSoundnessRandom:
    @given(homogeneous_polys(max_vars=4, min_degree=2, max_degree=5, max_terms=6))
    @settings(max_examples=40)
    def test_certificate_always_implies_vanishing(self, f):
        """Wherever the pattern certifies an order, elimination agrees that
        its Hessian vanishes, and the certificate replays."""
        an = prob(f)
        for k in range(1, f.degree // 2 + 1):
            cert = key_criterion(an, k)
            if cert is not None:
                assert verify_zero_block(f, an.hilbert(), cert)
                assert poly_det_vanishes(an.hessian(k, k))[0]

    @given(homogeneous_polys(max_vars=4, min_degree=1, max_degree=5, max_terms=6), st.data())
    @settings(max_examples=40)
    def test_block_bounds_every_rank(self, f, data):
        """The rank mod the form's prime of every mixed Hessian at a random
        point is at most |D_k| + |D_l| less the size of its zero block."""
        an = prob(f)
        d = f.degree
        point = tuple(data.draw(st.integers(-3, 3)) for _ in range(len(f.vars)))
        for k in range(d // 2 + 1):
            for l in range(k, d - k + 1):
                matrix = an.kernel(k, l).at(point)
                r = len(an.divisor_monomials(k)) + len(an.divisor_monomials(l)) - an.block(k, l).size
                assert linalg.rank_mod(matrix, an.prime) <= r
        for k in range(1, (d + 1) // 2):
            if wlp_obstruction(an, k) is not None:
                matrix = an.kernel(k, d - 1 - k).at(point)
                assert linalg.rank_mod(matrix, an.prime) < len(an.basis(k))


# the suite's rows whose middle map is never injective (criteria 5 and 6)
NEVER_INJECTIVE_ROWS = [("wlpodd", {"N": N, "d": d}) for N, d in ((4, 5), (6, 5), (5, 7))] + [
    ("thmwlp", {"N": N, "d": d}) for N, d in ((5, 4), (4, 6), (3, 8))
]


def point_matrix(an, k, l, L):
    """The mixed Hessian of (k, l) at the integer multiple of L that `rank_at` ranks."""
    c = lcm(*(x.denominator for x in L.coeffs))
    return an.kernel(k, l).at(tuple(int(x * c) for x in L.coeffs))


def assert_rank_closed_soundly(an, k, l, L):
    """`rank_at` equals the rank over Q, the certificate ceiling is at least
    that rank, and `rational_ranks` grows exactly when the rank mod p is
    below both the ceiling and full rank; returns whether it grew."""
    matrix = point_matrix(an, k, l, L)
    exact = linalg.rank(matrix)
    ceiling = len(an.divisor_monomials(k)) + len(an.divisor_monomials(l)) - an.block(k, l).size
    assert exact <= ceiling
    before = an.rational_ranks
    assert rank_at(an, k, l, L) == exact
    grew = an.rational_ranks - before
    assert grew == (linalg.rank_mod(matrix, an.prime) < min(ceiling, len(matrix), len(matrix[0])))
    return bool(grew)


class TestRankCeiling:
    def test_never_injective_suite_maps(self):
        """The suite's 120 middle-map ranks at seed 0: every one is the rank
        over Q, and only wlpodd(6,5) at trial 9, whose L has a zero
        coefficient and whose rank falls below the ceiling there, is taken
        over Q."""
        from lefschetz_lab.families import FamilySpec, generate
        from lefschetz_lab.reproduce import MIDDLE_TRIALS

        over_q = []
        for kind, params in NEVER_INJECTIVE_ROWS:
            inst = generate(FamilySpec(kind, params, 0))
            an, d, k = inst.analysis, inst.f.degree, inst.manifest.wlp_fail_level
            for t in range(MIDDLE_TRIALS):
                L = _random_linear_form(random.Random(f"middle:0:{t}"), len(inst.f.vars), 64)
                if assert_rank_closed_soundly(an, k, d - 1 - k, L):
                    over_q.append((kind, params["N"], params["d"], t))
        assert over_q == [("wlpodd", 6, 5, 9)]

    def test_key_ceiling_closes_a_vanishing_order(self):
        """ikeda's hess^2 vanishes by its zero block: the ceiling it puts
        on (2, 2) is the rank at a generic point, reached mod p."""
        an = prob(IKEDA)
        matrix = point_matrix(an, 2, 2, LinearForm((3, -5, 7, 2)))
        cert = an.key(2)
        assert cert is not None
        ceiling = 2 * len(an.divisor_monomials(2)) - an.block(2, 2).size
        assert cert is an.block(2, 2) and ceiling < len(matrix)
        assert linalg.rank(matrix) == ceiling
        assert rank_at(an, 2, 2, LinearForm((3, -5, 7, 2))) == ceiling
        assert an.rational_ranks == 0

    @given(st.data())
    @settings(max_examples=40)
    def test_random_split_forms(self, data):
        """Split forms whose terms have x-degree at most 1, over an x-block
        larger than the u-block, where zero blocks that drop the rank are
        common: at random points, zero coefficients included, every rank
        `rank_at` takes at (k, k) and (k, d-1-k) is sound."""
        n_u = data.draw(st.integers(1, 2))
        n_x = data.draw(st.integers(n_u + 1, 4))
        d = data.draw(st.integers(2, 6))
        vs = VariableSet(tuple(f"x{i}" for i in range(n_x)) + tuple(f"u{i}" for i in range(n_u)))
        monos = [m for m in mono_basis(vs, d) if sum(m[:n_x]) <= 1]
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
        coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(chosen), max_size=len(chosen)))
        an = prob(Poly(vs, dict(zip(chosen, coeffs))))
        coords = data.draw(st.lists(st.integers(-2, 2), min_size=len(vs), max_size=len(vs)).filter(any))
        L = LinearForm(coords)
        for k in range(1, d // 2 + 1):
            assert_rank_closed_soundly(an, k, k, L)
            if k < d - 1 - k:
                assert_rank_closed_soundly(an, k, d - 1 - k, L)
