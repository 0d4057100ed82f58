import random
import sys
import types
import warnings
from fractions import Fraction
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import lefschetz_lab.exact as exact_mod
import lefschetz_lab.hessian as hessian_mod
from lefschetz_lab import linalg
from lefschetz_lab.analysis import Analysis
from lefschetz_lab.errors import DegreeRangeError, ZeroPolynomialError
from lefschetz_lab.families import (
    gen_exceptional,
    gen_gnp,
    gen_perazzo,
    gen_permutti,
    gen_prop44,
    gen_thmwlp,
    gen_wlpodd,
)
from lefschetz_lab.hessian import (
    DEFAULT_TRIALS,
    MODES,
    VanishingVerdict,
    _decision_prime,
    _det_vanishes,
    _is_prime,
    hess_profile,
    hessian_matrix,
    hessian_vanishes,
    is_cone,
    poly_det_vanishes,
)
from lefschetz_lab.exact import poly_divexact
from lefschetz_lab.lefschetz import key_criterion, slp_generic, wlp_generic
from lefschetz_lab.oracles import explicit_basis_verdict, linear_change
from lefschetz_lab.polycore import (
    Derivatives,
    IntMatrix,
    Poly,
    VariableSet,
    diff_apply,
    eval_poly,
    mono_mul,
    parse_poly,
    partial,
    poly_sum,
)
from lefschetz_lab.support import verify_zero_block

from conftest import cone_polys, dense_coords, exact, homogeneous_polys, prob, rational_polys, sheared_wlpodd45

IKEDA_VARS = VariableSet(("x0", "x1", "u1", "u2"))
IKEDA = parse_poly("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", IKEDA_VARS)
PERAZZO_VARS = VariableSet(("x", "y", "z", "u", "v"))
PERAZZO = parse_poly("x*u^2 + y*u*v + z*v^2", PERAZZO_VARS)


def basis_ops(an, k):
    """The greedy basis of A_k as monomial operators."""
    dual = an.f.vars.dual()
    return [Poly.monomial(dual, e) for e in an.basis(k).expos]


class TestHessianMatrix:
    def test_order_zero_is_f(self):
        H = hessian_matrix(prob(IKEDA), 0)
        assert len(H) == 1
        assert H[0][0] == IKEDA

    def test_cubic_single_variable(self):
        vs = VariableSet(("x",))
        H = hessian_matrix(prob(parse_poly("x^3", vs)), 1)
        assert H[0][0] == parse_poly("6*x", vs)

    def test_symmetry(self):
        H = hessian_matrix(prob(IKEDA), 2)
        for i in range(len(H)):
            for j in range(len(H)):
                assert H[i][j] == H[j][i]

    def test_ikeda_mixed_rows_supported_on_u_columns(self):
        an = prob(IKEDA)
        H = hessian_matrix(an, 2)
        ops = [op.to_text() for op in basis_ops(an, 2)]
        mixed = [ops.index(t) for t in ("X0*U1", "X0*U2", "X1*U1", "X1*U2")]
        pure_u = {ops.index(t) for t in ("U1^2", "U1*U2", "U2^2")}
        for i in mixed:
            for j in range(len(H)):
                if not H[i][j].is_zero():
                    assert j in pure_u

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            hessian_matrix(prob(Poly.zero(IKEDA_VARS)), 0)

    def test_constant_form_rejected(self):
        with pytest.raises(DegreeRangeError, match="constant form"):
            hess_profile(prob(parse_poly("3", VariableSet(("x",)))))


ORDER_ROUTES = {
    "verdict": lambda an, k: an.verdict(k),
    "hessian": lambda an, k: an.hessian(k, k),
    "hessian_matrix": hessian_matrix,
    "hessian_vanishes": hessian_vanishes,
}


# two quintics: ikeda, written in an x-block and a u-block, and wlpodd(4,5)
# after a shear that mixes its blocks
ORDER_FORMS = [IKEDA, sheared_wlpodd45(0)]


class TestOrderRange:
    """An order outside 0..d/2 is refused on every route, on a form in x/u
    blocks or with its blocks mixed, in either mode, before anything is
    computed or kept."""

    @pytest.mark.parametrize("route", ORDER_ROUTES)
    @pytest.mark.parametrize("form", ORDER_FORMS, ids=["split", "unsplit"])
    @pytest.mark.parametrize("analysis", [prob, exact])
    @pytest.mark.parametrize("k", [-1, IKEDA.degree // 2 + 1])
    def test_refused_without_trace(self, route, form, analysis, k):
        an = analysis(form)
        before = an.counts()
        with pytest.raises(DegreeRangeError):
            ORDER_ROUTES[route](an, k)
        assert an.counts() == before

    @pytest.mark.parametrize("route", ORDER_ROUTES)
    @pytest.mark.parametrize("form", ORDER_FORMS, ids=["split", "unsplit"])
    @pytest.mark.parametrize("k", [-1, IKEDA.degree // 2 + 1])
    def test_split_does_not_change_the_message(self, route, form, k):
        """The order is refused before anything is computed, so both forms
        are refused in the same words."""
        message = f"orders ({k}, {k}) out of range for d={IKEDA.degree}"
        with pytest.raises(DegreeRangeError) as info:
            ORDER_ROUTES[route](prob(form), k)
        assert str(info.value) == message


class TestVanishing:
    def test_perazzo(self):
        assert hessian_vanishes(prob(PERAZZO), 1).vanishes

    def test_ikeda_profile_values(self):
        assert not hessian_vanishes(prob(IKEDA), 1).vanishes
        assert hessian_vanishes(prob(IKEDA), 2).vanishes

    def test_fermat_cubic_surface(self):
        vs = VariableSet(("x", "y", "z"))
        f = parse_poly("x^3 + y^3 + z^3", vs)
        verdict = hessian_vanishes(prob(f), 1)
        assert not verdict.vanishes
        assert verdict.witness_point is not None
        assert verdict.residue and verdict.det_value is None

    def test_exact_mode_unconditional(self):
        verdict = exact(sheared_wlpodd45(0)).verdict(2)
        assert verdict.vanishes and verdict.mode == "exact"
        assert verdict.error_bound is None
        assert verdict.transcript_hash

    def test_exact_transcript_deterministic(self):
        a = exact(sheared_wlpodd45(0)).verdict(2)
        b = exact(sheared_wlpodd45(0)).verdict(2)
        assert a.transcript_hash and a.transcript_hash == b.transcript_hash

    @pytest.mark.parametrize("analysis", [prob, exact])
    def test_split_form_certified_in_both_modes(self, analysis):
        an = analysis(PERAZZO)
        verdict = an.verdict(1)
        assert verdict == hessian_vanishes(an, 1)
        assert verdict.vanishes and verdict.mode == "exact" and an.counts()["eliminations"] == 0
        assert verdict.error_bound is None and verdict.transcript_hash is None
        assert verdict.to_json_dict()["certificate"]["type"] == "zero-block"

    @pytest.mark.parametrize("analysis", [prob, exact])
    def test_split_free_form_certified_in_both_modes(self, analysis):
        """The certificate is read off supp(f), so it needs no x-block
        first: the cubic with its u-block declared first is certified too."""
        uv_first = parse_poly(PERAZZO.to_text(), VariableSet(("u", "v", "x", "y", "z")))
        an = analysis(uv_first)
        verdict = an.verdict(1)
        assert verdict == hessian_vanishes(an, 1)
        assert verdict.vanishes and verdict.mode == "exact" and an.counts()["eliminations"] == 0
        assert verdict.transcript_hash is None
        assert verdict.to_json_dict()["certificate"]["type"] == "zero-block"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Analysis(IKEDA, "fast", 0)


class TestProfile:
    def test_ikeda(self):
        flags = [v.vanishes for v in hess_profile(prob(IKEDA))]
        assert flags == [False, False, True]

    def test_binary_quintic(self):
        vs = VariableSet(("x", "y"))
        flags = [v.vanishes for v in hess_profile(prob(parse_poly("x^5 + y^5", vs)))]
        assert flags == [False, False, False]

    def test_exceptional_373(self):
        f = gen_exceptional(3, 7, 3).f
        flags = [v.vanishes for v in hess_profile(prob(f))]
        assert flags == [False, False, True, True]

    def test_probabilistic_profile_holds_one_kernel_per_order(self):
        # evaluation reads each order's compiled kernel alone, so no Poly
        # Hessian is kept; order 2 of the sheared wlpodd(4,5) vanishes, with
        # no zero block, and order 1 does not
        an = prob(sheared_wlpodd45(0))
        flags = [v.vanishes for v in hess_profile(an)]
        assert flags == [False, False, True]
        held = {key for key in an._memo if key[0] in ("kernel", "hessian")}
        assert held == {("kernel", k, k) for k in range(3)}

    def test_cone_profiled_without_warning(self):
        # a cone is profiled over its quotient's bases; warning about it is
        # the CLI's job, from its own cone test
        vs = VariableSet(("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = [v.vanishes for v in hess_profile(prob(parse_poly("x^2", vs)))]
        assert flags == [False, False]


def partials_cone_oracle(f):
    """The cone test's original definition: reduce the first partials in a
    span of their own; the first dependent one gives the witness."""
    n = len(f.vars)
    span = linalg.SparseSpan()
    for i in range(n):
        g = partial(f, i).coeff_map()
        if span.try_add(g):
            continue
        witness = [-c for c in dense_coords(span.dependency(g), len(span))] + [Fraction(1)] + [Fraction(0)] * (n - i - 1)
        lead = next(c for c in witness if c)
        return True, tuple(c / lead for c in witness)
    return False, None


class TestCone:
    def test_square(self):
        vs = VariableSet(("x", "y"))
        report = is_cone(prob(parse_poly("x^2", vs)))
        assert report.is_cone and report.witness == (Fraction(0), Fraction(1))

    def test_perazzo_not_cone(self):
        assert not is_cone(prob(PERAZZO)).is_cone

    def test_binomial_cube(self):
        vs = VariableSet(("x", "y"))
        f = parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", vs)
        report = is_cone(prob(f))
        assert report.is_cone and report.witness == (Fraction(1), Fraction(-1))

    def test_each_partial_reduced_once(self, monkeypatch):
        reductions = []
        real = linalg._reduce

        def counting(*args):
            reductions.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "_reduce", counting)
        assert not is_cone(prob(PERAZZO)).is_cone
        # each partial once, into the span of A_1; the basis of A_1 is
        # scanned over D_1 alone, so A_0's span is never built
        assert len(reductions) == len(PERAZZO.vars)

    @given(cone_polys())
    def test_witness_annihilates_the_partials(self, f):
        report = is_cone(prob(f))
        assert report.is_cone
        dual = f.vars.dual()
        op = poly_sum(dual, [Poly.variable(dual, i).scale(c) for i, c in enumerate(report.witness) if c])
        assert diff_apply(op, f).is_zero()

    @given(st.one_of(homogeneous_polys(max_vars=4, max_degree=4), cone_polys()))
    @settings(max_examples=60)
    def test_matches_first_partials_oracle(self, f):
        report = is_cone(prob(f))
        assert (report.is_cone, report.witness) == partials_cone_oracle(f)


class TestInvariance:
    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    @settings(max_examples=25)
    def test_basis_change(self, f, data):
        d = f.degree
        if d < 2:
            return
        k = data.draw(st.integers(1, d // 2))
        an = prob(f)
        base = basis_ops(an, k)
        n = len(base)
        coeffs = [
            [data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)
        ]
        for i in range(n):
            coeffs[i][i] = 1
            for j in range(i):
                coeffs[i][j] = 0
        changed = [
            poly_sum(base[0].vars, [base[j].scale(coeffs[i][j]) for j in range(n) if coeffs[i][j]])
            for i in range(n)
        ]
        assert hessian_vanishes(an, k).vanishes == explicit_basis_verdict(an, k, changed).vanishes

    @given(homogeneous_polys(max_vars=3, min_degree=2, max_degree=4), st.data())
    @settings(max_examples=25)
    def test_variable_change(self, f, data):
        n = len(f.vars)
        m = [[data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = 1
            for j in range(i):
                m[i][j] = 0
        assert linalg.det(m) != 0
        k = data.draw(st.integers(0, f.degree // 2))
        assert (
            hessian_vanishes(prob(f), k).vanishes
            == hessian_vanishes(prob(linear_change(f, m)), k).vanishes
        )

    @given(
        homogeneous_polys(max_vars=4, max_degree=5),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        st.sampled_from(MODES),
    )
    @settings(max_examples=25)
    def test_scale(self, f, c, mode):
        # Ann(cf) = Ann(f): the algebra, its Hessians' vanishing and both
        # Lefschetz verdicts are those of f, whatever the rational c
        def decided(an):
            return (
                an.hilbert().dims,
                is_cone(an).is_cone,
                [v.vanishes for v in hess_profile(an)],
                [(r.verdict, r.level) for r in (slp_generic(an), wlp_generic(an))],
            )

        assert decided(Analysis(f.scale(c), mode, 0)) == decided(Analysis(f, mode, 0))


def assert_cells_are_derivatives(an):
    """Every pure and mixed Hessian cell, read from the Analysis's memo, is
    a_i applied to b_j applied to f."""
    f, d = an.f, an.f.degree
    for k in range(d + 1):
        for l in range(d - k + 1):
            H = an.hessian(k, l)
            for a, row in zip(basis_ops(an, k), H):
                for b, cell in zip(basis_ops(an, l), row):
                    assert cell == diff_apply(a, diff_apply(b, f))


class TestDerivativeMemo:
    @given(st.one_of(rational_polys(max_vars=4, max_degree=5), cone_polys()))
    @settings(max_examples=30)
    def test_cells_match_diff_apply(self, f):
        assert_cells_are_derivatives(prob(f))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_wlpodd(4, 5).f,
            lambda: gen_exceptional(3, 7, 3).f,
            lambda: gen_thmwlp(5, 4).f,
            lambda: gen_gnp(2, None, 1, 2, "maximal").f,
        ],
        ids=["wlpodd-4-5", "exceptional-3-7-3", "thmwlp-5-4", "gnp-maximal-2-1-2"],
    )
    def test_cells_match_diff_apply_on_families(self, build):
        assert_cells_are_derivatives(prob(build()))

    def test_deep_derivative_reached_in_a_loop(self):
        """A derivative 2000 partials below f, more than the default
        recursion limit, walks down to f and back up without recursing."""
        vs = VariableSet(("x", "y"))
        derivatives = Derivatives(parse_poly("x^2000 + y^2000", vs))
        assert derivatives[(2000, 0)] == Poly.constant(vs, factorial(2000))
        assert derivatives[(1000, 0)] == parse_poly(f"{factorial(2000) // factorial(1000)}*x^1000", vs)

    def test_shared_cells_are_one_object(self):
        an = prob(gen_wlpodd(4, 5).f)
        H2, M13 = an.hessian(2, 2), an.hessian(1, 3)
        cells = {}
        for (k, l), H in (((2, 2), H2), ((1, 3), M13)):
            for a, row in zip(an.basis(k).expos, H):
                for b, cell in zip(an.basis(l).expos, row):
                    assert cells.setdefault(mono_mul(a, b), cell) is cell


class TestKeyCriterionSoundness:
    @pytest.mark.parametrize(
        "build,k",
        [
            (lambda: IKEDA, 2),
            (lambda: gen_gnp(2, 2, 1, 2).f, 1),
            (lambda: gen_gnp(2, 2, 2, 3).f, 2),
            (lambda: gen_exceptional(3, 5, 2).f, 2),
        ],
    )
    def test_certificate_implies_vanishing(self, build, k):
        f = build()
        assert key_criterion(prob(f), k) is not None
        verdict = hessian_vanishes(prob(f), k)
        assert verdict.vanishes and verdict.certificate is not None
        assert hessian_vanishes(exact(f), k).vanishes
        # elimination agrees
        assert poly_det_vanishes(exact(f).hessian(k, k))[0]


SMALL_SPLIT_FAMILIES = {
    "perazzo(2,2,3)": lambda: gen_perazzo(2, 2, 3).f,
    "gnp-lemma(2,2,1,2)": lambda: gen_gnp(2, 2, 1, 2).f,
    "exceptional(3,5,2)": lambda: gen_exceptional(3, 5, 2).f,
    "prop44-i": lambda: gen_prop44("i").f,
    "prop44-ii": lambda: gen_prop44("ii").f,
    "prop44-iii": lambda: gen_prop44("iii").f,
    "wlpodd(4,5)": lambda: gen_wlpodd(4, 5).f,
    "thmwlp(5,4)": lambda: gen_thmwlp(5, 4).f,
}


def forged(cert, **changes):
    return cert._replace(**changes)


class TestCertificateRoute:
    @pytest.mark.parametrize("build", SMALL_SPLIT_FAMILIES.values(), ids=SMALL_SPLIT_FAMILIES)
    @pytest.mark.parametrize("analysis", [prob, exact])
    def test_certified_verdicts_match_elimination(self, build, analysis):
        an = analysis(build())
        keyed = [k for k in range(1, an.f.degree // 2 + 1) if an.key(k) is not None]
        assert keyed
        for k in keyed:
            verdict = an.verdict(k)
            assert verdict.certificate is an.key(k) and verdict.mode == "exact"
            assert verdict.vanishes == poly_det_vanishes(an.hessian(k, k))[0]

    @pytest.mark.parametrize("build", SMALL_SPLIT_FAMILIES.values(), ids=SMALL_SPLIT_FAMILIES)
    def test_forged_certificates_fail_replay(self, build):
        f = build()
        an = prob(f)
        hv = an.hilbert()
        for k in range(1, f.degree // 2 + 1):
            cert = an.key(k)
            if cert is None:
                continue
            assert verify_zero_block(f, hv, cert)
            rows, cols = list(cert.rows), list(cert.cols)
            dual = f.vars.dual()

            def cell(a, b):
                return diff_apply(Poly.monomial(dual, b), diff_apply(Poly.monomial(dual, a), f))

            # a cell of rows x cols made nonzero: a basis column the block
            # left out, which some row meets, in place of one of its own
            met = next(b for b in an.basis(k).expos if b not in cols and any(cell(a, b) for a in rows))
            assert not verify_zero_block(f, hv, forged(cert, cols=(met, *cols[1:])))
            # a repeated row
            assert not verify_zero_block(f, hv, forged(cert, rows=(*rows[:-1], rows[0])))
            # too small: |rows| + |cols| = h_k leaves the ceiling 2 |D_k| - h_k >= h_k
            assert not verify_zero_block(f, hv, forged(cert, cols=tuple(cols[cert.size - hv[k]:])))
            # a row outside D_k: a negative power, of the right degree
            bad = (-1, *rows[0][1:-1], rows[0][-1] + rows[0][0] + 1)
            assert not verify_zero_block(f, hv, forged(cert, rows=(bad, *rows[1:])))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("analysis", [prob, exact])
    def test_hidden_split_decided_by_evaluation_and_elimination(self, seed, analysis):
        f = gen_wlpodd(4, 5).f
        g = sheared_wlpodd45(seed)  # u_i -> u_i + c x_j
        plain, changed = analysis(f), analysis(g)
        for k in range(f.degree // 2 + 1):
            if k:
                assert changed.key(k) is None
            verdict = changed.verdict(k)
            assert verdict.certificate is None
            assert verdict.vanishes == plain.verdict(k).vanishes
            if verdict.vanishes and analysis is prob:
                assert verdict.mode == "probabilistic" and verdict.error_bound < Fraction(1, 10**9)
        assert changed.counts()["certified"] == 0
        # probabilistic mode states an error bound where exact mode eliminates
        assert changed.counts()["eliminations"] == (1 if analysis is exact else 0)
        assert plain.counts()["certified"] == 1

    def test_explicit_basis_skips_the_certificate(self, monkeypatch):
        an = exact(PERAZZO)
        searched = []
        monkeypatch.setattr(an, "key", searched.append)
        verdict = explicit_basis_verdict(an, 1, basis_ops(an, 1))
        assert verdict.vanishes and verdict.certificate is None
        assert verdict.error_bound is None and verdict.transcript_hash
        assert searched == []


class TestModeAgreement:
    @given(homogeneous_polys(max_vars=3, max_degree=4), st.data())
    @settings(max_examples=25)
    def test_small_matrices(self, f, data):
        k = data.draw(st.integers(0, f.degree // 2))
        an = prob(f)
        if len(an.basis(k)) > 8:
            return
        oracle = poly_det_vanishes(an.hessian(k, k))[0]
        assert hessian_vanishes(an, k).vanishes == oracle
        assert exact(f).verdict(k).vanishes == oracle


# family forms: certificates, vanishing orders that only elimination proves
# (permutti, and wlpodd(4,5) in sheared coordinates), and nonvanishing ones
ROUTE_FORMS = {
    "perazzo": lambda: PERAZZO,
    "ikeda": lambda: IKEDA,
    "exceptional(3,5,2)": lambda: gen_exceptional(3, 5, 2).f,
    "permutti(2,2,3,6)": lambda: gen_permutti(2, 2, 3, 6).f,
    "wlpodd(4,5)-sheared": lambda: sheared_wlpodd45(0),
}


class TestCertaintyFromTheRoute:
    """A verdict's mode is the certainty of its route, whatever the mode of
    the Analysis, and an Analysis and its `in_mode` sibling decide each order
    once between them."""

    @given(
        st.sampled_from(sorted(ROUTE_FORMS)).map(lambda name: ROUTE_FORMS[name]())
        | homogeneous_polys(max_vars=3, max_degree=4),
        st.integers(0, 3),
        st.booleans(),
    )
    @settings(max_examples=30)
    def test_mode_is_read_off_the_route(self, f, seed, exact_first):
        evaluated = []
        real = hessian_mod._det_vanishes

        def counting(an, k, kernel):
            evaluated.append(k)
            return real(an, k, kernel)

        with mock.patch.object(hessian_mod, "_det_vanishes", counting):
            prob_an = Analysis(f, "probabilistic", seed)
            exact_an = prob_an.in_mode("exact")
            for k in range(f.degree // 2 + 1):
                # the sibling that asks first decides the order for both
                for an in (exact_an, prob_an) if exact_first else (prob_an, exact_an):
                    an.verdict(k)
                p, e = prob_an.verdict(k), exact_an.verdict(k)
                for verdict in (p, e):
                    assert (verdict.mode == "probabilistic") == (verdict.error_bound is not None)
                assert e.mode == "exact" and e.vanishes == p.vanishes
                assert (e is p) == (p.mode == "exact")
        assert len(evaluated) == len(set(evaluated)) <= f.degree // 2 + 1


def replays(entries, verdict):
    """The witness point gives the claimed nonzero determinant over Q: its
    residue mod the verdict's prime or, where there is no residue, its value."""
    if verdict.residue is not None:
        return residue_replays(entries, verdict)
    point = verdict.witness_point
    value = linalg.det([[eval_poly(e, point) for e in row] for row in entries])
    return value == verdict.det_value != 0


class TestEvaluateFirst:
    def test_exact_nonvanishing_needs_no_elimination(self, monkeypatch):
        calls = []
        real = exact_mod.poly_det_vanishes

        def counting(entries):
            calls.append(len(entries))
            return real(entries)

        monkeypatch.setattr(exact_mod, "poly_det_vanishes", counting)
        vs = VariableSet(("x", "y", "z"))
        an = exact(parse_poly("x^3 + y^3 + z^3", vs))
        verdict = an.verdict(1)
        assert not verdict.vanishes and verdict.mode == "exact"
        assert verdict.error_bound is None and verdict.witness_point is not None
        assert an.counts()["eliminations"] == 0 and verdict.residue and verdict.det_value is None
        assert replays(an.hessian(1, 1), verdict)
        assert calls == []

    def test_exact_vanishing_still_eliminates(self):
        an = exact(sheared_wlpodd45(1))
        verdict = an.verdict(2)
        assert verdict.vanishes and verdict.transcript_hash and an.counts()["eliminations"] == 1

    def test_probabilistic_vanishing_never_eliminates(self, monkeypatch):
        # a u-row shear of wlpodd(4,5): a 12x12 order-2 Hessian of dense
        # entries that vanishes; eliminating it takes minutes
        calls = []
        monkeypatch.setattr(exact_mod, "poly_det_vanishes", calls.append)
        f = gen_wlpodd(4, 5).f
        n, n_x = len(f.vars), sum(name[0] == "x" for name in f.vars.names)
        rng = random.Random(0)
        shear = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n_x, n):
            for j in range(n_x):
                shear[i][j] = rng.randint(-2, 2)
        an = prob(linear_change(f, shear))
        verdict = an.verdict(2)
        assert len(an.hessian(2, 2)) == 12
        assert verdict.vanishes and verdict.mode == "probabilistic"
        assert verdict.error_bound < Fraction(1, 10**9)
        assert calls == [] and an.counts()["eliminations"] == 0

    def test_certified_vanishing_needs_no_hessian(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exact_mod, "poly_det_vanishes", calls.append)
        an = exact(PERAZZO)
        verdict = an.verdict(1)
        assert verdict.vanishes and verdict.transcript_hash is None
        assert verdict.certificate is an.key(1)
        assert calls == []
        counts = an.counts()
        assert counts["certified"] == 1 and counts["eliminations"] == 0
        assert counts["kernels"] == 0
        assert ("hessian", 1, 1) not in an._memo

    def test_elimination_fallback_witness_replays(self, monkeypatch):
        vs = VariableSet(("x", "y", "z"))
        an = exact(parse_poly("x^3 + y^3 + z^3 + x*y*z", vs))
        entries = an.hessian(1, 1)
        monkeypatch.setattr(hessian_mod, "DEFAULT_TRIALS", 0)
        verdict = an.verdict(1)
        assert not verdict.vanishes and verdict.mode == "exact"
        assert an.counts()["eliminations"] == 1 and verdict.error_bound is None
        assert verdict.residue is None and replays(entries, verdict)


class TestPolyDet:
    @given(
        homogeneous_polys(max_vars=2, max_degree=3),
        homogeneous_polys(max_vars=2, max_degree=3),
    )
    def test_divexact_inverts_product(self, a, b):
        if a.vars != b.vars or b.is_zero():
            return
        assert poly_divexact(a * b, b) == a

    def test_singular_matrix(self):
        vs = VariableSet(("x", "y"))
        x = parse_poly("x", vs)
        y = parse_poly("y", vs)
        vanishes, _, _ = poly_det_vanishes([[x, y], [x, y]])
        assert vanishes

    def test_nonsingular_matrix(self):
        vs = VariableSet(("x", "y"))
        x = parse_poly("x", vs)
        y = parse_poly("y", vs)
        z = Poly.zero(vs)
        vanishes, _, det = poly_det_vanishes([[x, z], [z, y]])
        assert not vanishes
        assert det == parse_poly("x*y", vs)


class TestPolyDetOracle:
    @given(st.data())
    @settings(max_examples=15)
    def test_matches_sympy_determinant(self, data):
        import sympy

        vs = VariableSet(("x", "y"))
        x, y = sympy.symbols("x y")
        n = data.draw(st.integers(2, 3))
        entries = []
        for _ in range(n):
            row = []
            for _ in range(n):
                cx = data.draw(st.integers(-2, 2))
                cy = data.draw(st.integers(-2, 2))
                row.append(
                    Poly(vs, {(1, 0): cx, (0, 1): cy})
                )
            entries.append(row)
        vanishes, _, det = poly_det_vanishes(entries)
        sym = sympy.Matrix(
            [
                [cxy.coefficient((1, 0)) * x + cxy.coefficient((0, 1)) * y for cxy in row]
                for row in entries
            ]
        )
        expected = sympy.expand(sym.det())
        assert vanishes == (expected == 0)
        if not vanishes:
            got = sympy.expand(
                sum(
                    sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
                    for e, c in det.coeff_map().items()
                )
            )
            assert sympy.expand(got - expected) == 0


MERSENNE_61 = 2**61 - 1


def fermat_cubic(nvars, first_coeff):
    vs = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    cubes = [tuple(3 if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    return Poly(vs, {c: first_coeff if i == 0 else 1 for i, c in enumerate(cubes)})


class TestRandomPrime:
    def test_determinant_divisible_by_a_fixed_prime_is_nonvanishing(self):
        # hess^1 is diagonal with determinant 6^13 (2^61-1) x0 ... x12, zero
        # mod 2^61-1 at every point, and probabilistic mode never eliminates
        an = prob(fermat_cubic(13, MERSENNE_61))
        entries = an.hessian(1, 1)
        verdict = hessian_vanishes(an, 1)
        assert not verdict.vanishes and verdict.mode == "exact"
        # the verdict holds its residue, and the kernel gives the value
        value = an.kernel(1, 1).det(verdict.witness_point)
        assert value == 6**13 * MERSENNE_61 * prod(verdict.witness_point)
        assert verdict.det_value is None and residue_replays(entries, verdict)
        assert residue_mod(value, verdict.prime) == verdict.residue

    def test_prime_is_deterministic_in_range_and_prime(self):
        import sympy

        for seed in (0, 1, 7):
            p = _decision_prime(seed)
            assert p == _decision_prime(seed)
            assert 2**60 <= p < 2**61 and sympy.isprime(p)
        assert len({_decision_prime(seed) for seed in range(6)}) == 6

    def test_miller_rabin_matches_sympy(self):
        import sympy

        strong_pseudoprimes = [2047, 1373653, 25326001, 3215031751, 2152302898747]
        numbers = list(range(200)) + strong_pseudoprimes + [
            MERSENNE_61,
            MERSENNE_61 * 3,
            (2**31 - 1) * (2**30 + 3),
            2**60 + 33,
        ]
        for n in numbers:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_probabilistic_vanishing_error_bound(self):
        from lefschetz_lab.families import gen_wlpodd

        verdict = hessian_vanishes(prob(sheared_wlpodd45(0)), 2)
        assert verdict.vanishes and verdict.mode == "probabilistic"
        # Schwartz-Zippel alone gives (1/64)^5; the content term adds to it
        assert Fraction(1, 64) ** DEFAULT_TRIALS < verdict.error_bound < Fraction(1, 10**9)

    @pytest.mark.parametrize("trials", [0, 1, 2, 5])
    def test_vanishing_bound_is_the_product_over_the_boxes_used(self, monkeypatch, trials):
        # the budget of `trials` boxes of width 64 deg is spent in at most
        # two evaluations, and the bound multiplies deg/B over the boxes used;
        # the shared boxes are 64 D wide and more, and for this cubic in five
        # variables D = max_j C(4 + j, j) (3 - 2j) = 5 = deg, the order-1 bound
        widths = []

        class Recording(random.Random):
            def randint(self, a, b):
                widths.append(b)
                return super().randint(a, b)

        monkeypatch.setattr(hessian_mod, "DEFAULT_TRIALS", trials)
        monkeypatch.setattr(hessian_mod, "random", types.SimpleNamespace(Random=Recording))
        an = prob(PERAZZO)
        kernel = an.kernel(1, 1)
        verdict = _det_vanishes(an, 1, kernel)
        boxes = widths[:: kernel.nvars]
        assert len(boxes) == min(trials, 2) and boxes[:1] == [64 * 5][:trials]
        content = Fraction(-(-kernel.norm_bound().bit_length() // 60), 2**54)
        assert verdict.vanishes and verdict.error_bound - content == prod(Fraction(5, b) for b in boxes)
        assert verdict.error_bound - content == Fraction(1, 64) ** trials

    def test_split_vanishing_needs_no_error_bound(self):
        from lefschetz_lab.families import gen_wlpodd

        verdict = hessian_vanishes(prob(gen_wlpodd(5, 7).f), 3)
        assert verdict.vanishes and verdict.mode == "exact"
        assert verdict.error_bound is None and verdict.certificate is not None


def with_rational_coefficients(f, denominators):
    terms = f.coeff_map()
    return Poly(f.vars, {e: Fraction(c, d) for (e, c), d in zip(sorted(terms.items()), denominators)})


class TestWitnessReplay:
    @given(
        homogeneous_polys(max_vars=3, max_degree=5),
        st.lists(st.integers(1, 6), min_size=6, max_size=6),
        st.integers(0, 3),
    )
    @settings(max_examples=25)
    def test_every_nonvanishing_value_is_the_rational_determinant(self, f, dens, seed):
        f = with_rational_coefficients(f, dens)
        for mode in ("probabilistic", "exact"):
            an = Analysis(f, mode, seed)
            for k in range(f.degree // 2 + 1):
                verdict = an.verdict(k)
                if not verdict.vanishes:
                    assert replays(an.hessian(k, k), verdict)


def residue_mod(value, p):
    """The residue of a rational value mod p (p must not divide its denominator)."""
    return value.numerator * pow(value.denominator, -1, p) % p


def decide_by_evaluation(f, k, seed):
    """Decide the order-k Hessian in probabilistic mode, by evaluation only,
    on a kernel compiled afresh."""
    entries = prob(f).hessian(k, k)
    verdict = _det_vanishes(Analysis(f, "probabilistic", seed), k, IntMatrix(entries))
    return entries, verdict


def residue_replays(entries, verdict):
    """The witness's residue is the rational determinant there, mod its prime."""
    value = linalg.det([[eval_poly(e, verdict.witness_point) for e in row] for row in entries])
    return residue_mod(value, verdict.prime) == verdict.residue != 0


class TestResidueWitness:
    @given(
        homogeneous_polys(max_vars=3, max_degree=5),
        st.lists(st.integers(1, 6), min_size=6, max_size=6),
        st.integers(0, 3),
    )
    @settings(max_examples=25)
    def test_residue_is_the_rational_determinant_mod_p(self, f, dens, seed):
        f = with_rational_coefficients(f, dens)
        for k in range(f.degree // 2 + 1):
            entries, verdict = decide_by_evaluation(f, k, seed)
            if not verdict.vanishes:
                assert verdict.prime == _decision_prime(seed)
                assert residue_replays(entries, verdict)

    @given(
        homogeneous_polys(max_vars=3, max_degree=5),
        st.lists(st.integers(1, 6), min_size=6, max_size=6),
        st.integers(0, 3),
    )
    @settings(max_examples=25)
    def test_witness_holds_the_kernel_residue_alone(self, f, dens, seed):
        """Every kernel is evaluated mod p: the verdict's residue is the
        kernel's residue at the witness, and it holds no value (these
        denominators never make p divide the common scale)."""
        f = with_rational_coefficients(f, dens)
        an = Analysis(f, "probabilistic", seed)
        for k in range(f.degree // 2 + 1):
            verdict = an.verdict(k)
            if verdict.vanishes:
                continue
            kernel, point = an.kernel(k, k), verdict.witness_point
            assert verdict.residue == kernel.det_mod(point, an.prime) != 0
            assert verdict.prime == an.prime and verdict.det_value is None

    def test_rational_row_scale_is_divided_out(self):
        vs = VariableSet(("x", "y", "z"))
        f = parse_poly("1/5*x^3 + 1/7*y^3 + 1/11*x*y*z + z^3", vs)
        entries, verdict = decide_by_evaluation(f, 1, 0)
        assert IntMatrix(entries).scale % verdict.prime != 1
        assert residue_replays(entries, verdict)

    def test_fixed_prime_content(self):
        # 2^61-1 divides every value of this determinant; the random prime does not
        entries, verdict = decide_by_evaluation(fermat_cubic(13, MERSENNE_61), 1, 0)
        assert not verdict.vanishes and residue_replays(entries, verdict)

    def test_denominator_at_the_seeds_prime_draws_the_next(self):
        """With 1/p in f, p the seed's draw, the kernel's scale is p; the
        form's prime is the next prime of the seed's candidate sequence, and
        the witness is its residue, which replays."""
        p = _decision_prime(0)
        rng = random.Random("prime:0")
        primes = (c for c in iter(lambda: rng.randrange(2**60 + 1, 2**61, 2), None) if _is_prime(c))
        assert next(primes) == p
        an = prob(fermat_cubic(13, Fraction(1, p)))
        entries = an.hessian(1, 1)
        assert an.kernel(1, 1).scale == p and an.prime == next(primes) != p
        verdict = hessian_vanishes(an, 1)
        assert not verdict.vanishes and verdict.prime == an.prime and verdict.det_value is None
        assert residue_replays(entries, verdict)
        out = verdict.to_json_dict()
        assert (out["prime"], out["residue"]) == (an.prime, verdict.residue) and "det_value" not in out


def fermat_quartic(nvars, first_coeff):
    vs = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    powers = [tuple(4 if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    return Poly(vs, {c: first_coeff if i == 0 else 1 for i, c in enumerate(powers)})


@pytest.fixture
def det_int_calls(monkeypatch):
    """Sizes of the matrices passed to exact.det_int while the test runs."""
    calls = []
    real = exact_mod.det_int

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(exact_mod, "det_int", counting)
    return calls


class TestWitnessReport:
    def test_residue_at_every_size(self, det_int_calls):
        """Kernels of 12 and 13 rows alike are decided mod p, and neither the
        decision nor the JSON form reads a value over Q: the witness is
        (point, p, residue)."""
        for nvars in (12, 13):
            det_int_calls.clear()
            an = prob(fermat_cubic(nvars, 1))
            verdict = hessian_vanishes(an, 1)
            out = verdict.to_json_dict()
            assert det_int_calls == [] and verdict.det_value is None
            assert verdict.prime == an.prime and verdict.residue
            assert (out["prime"], out["residue"]) == (verdict.prime, verdict.residue)
            assert "det_value" not in out
            value = an.kernel(1, 1).det(verdict.witness_point)
            assert value == 6**nvars * prod(verdict.witness_point)
            assert residue_mod(value, verdict.prime) == verdict.residue

    def test_value_too_long_for_text_shows_its_bit_length(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter converts ints of any length to text")
        value = Fraction(10**limit)  # one digit more than the limit
        verdict = VanishingVerdict(False, witness_point=(1, 1), det_value=value)
        assert verdict.to_json_dict() == {
            "vanishes": False,
            "mode": "exact",
            "witness_point": [1, 1],
            "det_value_bits": value.numerator.bit_length(),
        }

    def test_value_computed_on_first_access(self, det_int_calls):
        # neither the decision nor the JSON form computes the value; the
        # kernel computes it when asked
        an = prob(fermat_cubic(13, 1))
        verdict = hessian_vanishes(an, 1)
        assert not verdict.vanishes and det_int_calls == []
        verdict.to_json_dict()
        assert det_int_calls == [] and verdict.det_value is None
        value = an.kernel(1, 1).det(verdict.witness_point)
        assert value == 6**13 * prod(verdict.witness_point)
        assert value and det_int_calls == [13]

    def test_constant_matrix_decided_by_its_residue(self, det_int_calls):
        # the middle Hessian of a Fermat quartic is diagonal with entries 24
        an = prob(fermat_quartic(13, 1))
        verdict = hessian_vanishes(an, 2)
        assert not verdict.vanishes and verdict.mode == "exact" and verdict.residue
        assert det_int_calls == []
        assert an.kernel(2, 2).det(verdict.witness_point) == 24**13

    def test_constant_matrix_residue_zero_takes_the_value(self, det_int_calls):
        p = _decision_prime(0)
        verdict = hessian_vanishes(prob(fermat_quartic(13, p)), 2)
        assert not verdict.vanishes and verdict.mode == "exact"
        assert verdict.residue is None and verdict.det_value == 24**13 * p
        assert det_int_calls == [13]
        assert verdict.to_json_dict()["det_value"] == str(24**13 * p)


class TestMiddleOrder:
    """In even degree d the order-d/2 Hessian is the Gram matrix of the perfect
    pairing A_(d/2) x A_(d/2) -> A_d = Q: a nonzero constant."""

    @given(rational_polys(max_vars=3, min_degree=2, max_degree=6), st.integers(0, 3))
    @settings(max_examples=40)
    def test_nonvanishing_with_no_zero_block_searched(self, f, seed):
        assume(f.degree % 2 == 0)
        m = f.degree // 2
        fresh = Analysis(f, "probabilistic", seed)
        assert key_criterion(fresh, m) is None and fresh._memo == {}
        for mode in MODES:
            an = Analysis(f, mode, seed)
            hess_profile(an)
            verdict = an.verdict(m)
            assert not verdict.vanishes and verdict.mode == "exact"
            assert residue_replays(an.hessian(m, m), verdict) and verdict.det_value is None
            assert an.key(m) is None and ("block", m, m) not in an._memo

    def test_a_singular_middle_hessian_is_a_bug(self):
        """Were the determinant 0 over Q, the pairing would not be perfect:
        the decision raises rather than report vanishing."""

        class Singular:
            def __len__(self):
                return 2

            def det_mod(self, point, p):
                return 0

            def det(self, point):
                return Fraction(0)

        with pytest.raises(ArithmeticError, match="perfect pairing"):
            _det_vanishes(prob(fermat_quartic(2, 1)), 2, Singular())
