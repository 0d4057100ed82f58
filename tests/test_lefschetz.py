import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import lefschetz_lab.lefschetz as lefschetz
from lefschetz_lab import linalg
from lefschetz_lab.apolar import hilbert_vector
from lefschetz_lab.errors import NoSplitError
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
from lefschetz_lab.hessian import hessian_matrix, is_cone
from lefschetz_lab.lefschetz import (
    GENERIC_TRIALS,
    KeyCertificate,
    LinearForm,
    ObstructionCertificate,
    key_criterion,
    _random_linear_form,
    mult_map,
    slp_check_element,
    slp_generic,
    verify_key_certificate,
    verify_obstruction_certificate,
    wlp_check_element,
    wlp_generic,
    wlp_obstruction,
)
from lefschetz_lab.polycore import Poly, VariableSet, diff_apply, eval_poly, mono_basis, parse_poly

from conftest import dense_coords, homogeneous_polys, prob, rational_polys

IKEDA_VARS = VariableSet(("x0", "x1", "u1", "u2"), n_x=2)
IKEDA = parse_poly("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", IKEDA_VARS)


def random_linear_form(rng, n, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(n)]
    if not any(coeffs):
        coeffs[0] = 1
    return LinearForm.from_coeffs(coeffs)


def linear_operator(L, vars):
    """L as the degree-1 operator sum_i a_i X_i over the dual of `vars`."""
    n = len(vars)
    return Poly(vars.dual(), {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(L.coeffs)})


class TestLinearForm:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearForm.from_coeffs((0, 0))

    def test_operator(self):
        vs = VariableSet(("x", "y"))
        op = linear_operator(LinearForm.from_coeffs((2, -1)), vs)
        assert op == parse_poly("2*X - Y", vs.dual())


class TestMultMap:
    def test_one_variable_isomorphism(self):
        vs = VariableSet(("x",))
        f = parse_poly("x^3", vs)
        m = mult_map(prob(f), LinearForm.from_coeffs((1,)), 1, 1)
        assert len(m) == 1 and m[0][0] != 0

    def test_quartic_injective_level_one(self):
        vs = VariableSet(("x", "y", "z", "u", "v"), n_x=3)
        f = parse_poly("x*u^3 + y*u^2*v + z*u*v^2 + v^4", vs)
        m = mult_map(prob(f), LinearForm.from_coeffs((0, 0, 0, 1, 1)), 1, 1)
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
    return LinearForm.from_coeffs([Fraction(2 * rng.randint(-4, 4) + 1, 2 * rng.randint(1, 3)) for _ in range(n)])


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
            mult_map(prob(IKEDA), LinearForm.from_coeffs((1, 2, 3)), 1, 1)


class TestSlpElement:
    def test_binary_quintic(self):
        vs = VariableSet(("x", "y"))
        ok, checks = slp_check_element(
            prob(parse_poly("x^5 + y^5", vs)), LinearForm.from_coeffs((1, 1))
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
            prob(parse_poly("x^2 + y^2", vs)), LinearForm.from_coeffs((1, 0))
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
        # refuse the profile's witness points and the first two seeded
        # forms: the first seeded form after them that passes is returned
        f = parse_poly("x^4 + y^4 + z^4", VariableSet(("x", "y", "z")))
        an = prob(f)
        drawn = [
            _random_linear_form(random.Random(f"slp:{an.seed}:{t}"), 3, 64 * 5)
            for t in range(GENERIC_TRIALS)
        ]
        refused = set(drawn[:2]) | {
            LinearForm.from_coeffs(an.verdict(k).witness_point) for k in range(3)
        }

        def check(an, L):
            return (False, []) if L in refused else slp_check_element(an, L)

        monkeypatch.setattr(lefschetz, "slp_check_element", check)
        expected = next(L for L in drawn[2:] if slp_check_element(an, L)[0])
        assert slp_generic(an).witness == expected


class TestWlpElement:
    def test_quartic_example_level_one(self):
        vs = VariableSet(("x", "y", "z", "u", "v"), n_x=3)
        f = parse_poly("x*u^3 + y*u^2*v + z*u*v^2 + v^4", vs)
        _, checks = wlp_check_element(prob(f), LinearForm.from_coeffs((0, 0, 0, 1, 1)))
        assert checks[1].rank == 5 and checks[1].required == 5

    def test_prop44_witness(self):
        inst = gen_prop44("i")
        ok, _ = wlp_check_element(prob(inst.f), inst.manifest.wlp_witness)
        assert ok

    def test_cubic_single_variable(self):
        vs = VariableSet(("x",))
        ok, _ = wlp_check_element(prob(parse_poly("x^3", vs)), LinearForm.from_coeffs((1,)))
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
        assert data["certificate"]["ops"] == ["X2", "X3", "X4", "X5"]


class TestKeyCriterion:
    def test_ikeda(self):
        cert = key_criterion(prob(IKEDA), 2)
        assert cert is not None
        assert {op.to_text() for op in cert.ops} == {
            "X0*U1", "X0*U2", "X1*U1", "X1*U2",
        }
        assert cert.s == 4 and cert.bound == 3
        assert verify_key_certificate(IKEDA, cert)

    def test_split_powers_no_certificate(self):
        vs = VariableSet(("x", "y"), n_x=1)
        f = parse_poly("x^4 + y^4", vs)
        for k in (1, 2):
            assert key_criterion(prob(f), k) is None

    def test_gnp_dual_ops(self):
        f = gen_gnp(2, 2, 2, 3).f
        cert = key_criterion(prob(f), 2)
        assert cert is not None and cert.s == 4

    def test_pure_u_operators_not_counted(self):
        # U3 sends f to 4*u3^3, inside the u-subring, yet only operators with
        # an x-factor count against the bound
        vs = VariableSet(("x0", "x1", "x2", "x3", "u1", "u2", "u3"), n_x=4)
        f = parse_poly("x0*u1^3 + x1*u1^2*u2 + x2*u1*u2^2 + x3*u2^3 + u3^4", vs)
        cert = key_criterion(prob(f), 1)
        assert [op.to_text() for op in cert.ops] == ["X0", "X1", "X2", "X3"]
        assert cert.bound == 3
        assert cert == oracle_key(f, 1)

    def test_requires_split(self):
        vs = VariableSet(("x", "y"))
        with pytest.raises(NoSplitError):
            key_criterion(prob(parse_poly("x^2 + y^2", vs)), 1)

    def test_tampered_certificate_rejected(self):
        cert = key_criterion(prob(IKEDA), 2)
        bad = cert._replace(bound=cert.s)
        assert not verify_key_certificate(IKEDA, bad)


class TestWlpObstruction:
    def test_degree_four(self):
        f = gen_thmwlp(5, 4).f
        cert = wlp_obstruction(prob(f), 1)
        assert {op.to_text() for op in cert.ops} == {"X2", "X3", "X4", "X5"}
        assert cert.s == 4 and cert.bound == 3
        assert verify_obstruction_certificate(f, cert)

    def test_degree_six(self):
        f = gen_thmwlp(4, 6).f
        cert = wlp_obstruction(prob(f), 2)
        assert cert.s == 5
        assert {op.to_text() for op in cert.ops} == {
            "X2*U", "X2*V", "X3*U", "X3*V", "X4*U",
        }

    def test_degree_eight(self):
        f = gen_thmwlp(3, 8).f
        cert = wlp_obstruction(prob(f), 3)
        assert cert.s == 6 and cert.bound == 5

    def test_pure_u_operators_counted(self):
        # the u-quadrics of x, y, z fill the degree-1 image bound by
        # themselves; W, a pure-u operator, is the one that overflows it
        vs = VariableSet(("x", "y", "z", "u", "v", "w"), n_x=3)
        f = parse_poly("x*u^2 + y*u*v + z*v^2 + w^3", vs)
        cert = wlp_obstruction(prob(f), 1)
        assert [op.to_text() for op in cert.ops] == ["X", "Y", "Z", "W"]
        assert cert.bound == 3
        assert cert == oracle_obstruction(f, 1)
        assert verify_obstruction_certificate(f, cert)

    def test_empty_regime(self):
        # image degree gives no room once deg(f) <= 2k
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


def oracle_scan(f, k, *, pure_u, first_order):
    """The searches' original definition: apply every degree-k monomial
    operator to all of f with `diff_apply`; keep it when the derivative g is
    nonzero, lies in the u-subring (or, with `first_order`, is sent there by
    every first-order operator) and is independent of those kept before."""
    vs = f.vars
    dual = vs.dual()
    u = set(vs.u_indices)
    firsts = [Poly.variable(dual, i) for i in range(len(vs))]
    span = linalg.SparseSpan()
    kept = []
    for expo in mono_basis(dual, k):
        if not pure_u and not any(expo[: vs.n_x]):
            continue
        op = Poly.monomial(dual, expo)
        g = diff_apply(op, f)
        if g.is_zero():
            continue
        inside = all(diff_apply(w, g).supported_on(u) for w in firsts) if first_order else g.supported_on(u)
        if inside and span.try_add(g.coeff_map()):
            kept.append(op)
    return kept, span


def oracle_key(f, k):
    kept, span = oracle_scan(f, k, pure_u=False, first_order=False)
    bound = comb(len(f.vars.u_names) + k - 1, k)
    if len(kept) <= bound:
        return None
    vs = f.vars
    return KeyCertificate(vs.x_names, vs.u_names, k, tuple(kept), bound, tuple(span.pivot_keys))


def oracle_obstruction(f, k):
    d = f.degree
    if d - k <= k:
        return None
    kept, _ = oracle_scan(f, k, pure_u=True, first_order=True)
    bound = comb(len(f.vars.u_names) - 1 + d - k - 1, d - k - 1)
    if len(kept) <= bound:
        return None
    return ObstructionCertificate(f.vars.x_names, f.vars.u_names, k, tuple(kept), bound)


def assert_searches_match_oracle(f):
    """Both certificate searches equal the oracle at every order, and every
    certificate found replays."""
    an = prob(f)
    for k in range(1, f.degree // 2 + 1):
        cert = key_criterion(an, k)
        assert cert == oracle_key(f, k)
        assert cert is None or verify_key_certificate(f, cert)
    for k in range(1, f.degree):
        cert = wlp_obstruction(an, k)
        assert cert == oracle_obstruction(f, k)
        assert cert is None or verify_obstruction_certificate(f, cert)


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
        """At each order the key search and the obstruction search read one
        scan: one span is built, and the second search is a memo hit."""
        f = gen_wlpodd(5, 7).f
        orders = (1, 2, 3)
        expected = [(oracle_key(f, k), oracle_obstruction(f, k)) for k in orders]
        assert all(expected[-1])  # order 3 has both certificates
        spans = []
        init = linalg.SparseSpan.__init__
        monkeypatch.setattr(linalg.SparseSpan, "__init__", lambda self: spans.append(1) or init(self))
        an = prob(f)
        for k, certs in zip(orders, expected):
            reused = an.counts()["reused"]
            assert (an.key(k), an.obstruction(k)) == certs
            assert len(spans) == k
            assert an.counts()["reused"] == reused + 1

    @given(homogeneous_polys(min_vars=2, max_vars=4, min_degree=2, max_degree=6), st.data())
    @settings(max_examples=40)
    def test_split_forms_match_oracle(self, f, data):
        n_x = data.draw(st.integers(1, len(f.vars) - 1))
        assert_searches_match_oracle(Poly(VariableSet(f.vars.names, n_x), f.coeff_map()))


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
        assert_levels_match_mult_map(f, LinearForm.from_coeffs(coeffs))

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
        L = LinearForm.from_coeffs(coeffs)
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
        L = LinearForm.from_coeffs(coeffs)
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
        L = LinearForm.from_coeffs(coeffs)
        scaled = LinearForm.from_coeffs([c * x for x in coeffs])
        ok1, checks1 = wlp_check_element(prob(f), L)
        ok2, checks2 = wlp_check_element(prob(f), scaled)
        assert ok1 == ok2
        assert [c.rank for c in checks1] == [c.rank for c in checks2]


class TestUndetermined:
    def test_no_trials_no_certificate(self, monkeypatch):
        monkeypatch.setattr("lefschetz_lab.lefschetz.GENERIC_TRIALS", 0)
        vs = VariableSet(("x", "y", "z"))
        report = wlp_generic(prob(parse_poly("x^4 + y^4 + z^4", vs)))
        assert report.verdict == "undetermined"
        assert report.witness is None


class TestNonUnimodalFailure:
    def test_wide_product_family_dips_in_the_middle(self):
        from lefschetz_lab.families import gen_gnp

        f = gen_gnp(3, None, 1, 3, "maximal").f
        assert hilbert_vector(prob(f)).dims == (1, 13, 12, 13, 1)
        report = wlp_generic(prob(f))
        assert report.verdict == "fails"
        assert "non-unimodal" in str(report.certificate)


class TestKeyCriterionSoundnessRandom:
    @given(homogeneous_polys(min_vars=3, max_vars=4, min_degree=2, max_degree=5), st.data())
    @settings(max_examples=25)
    def test_certificate_always_implies_vanishing(self, f, data):
        from lefschetz_lab.hessian import hessian_vanishes
        from lefschetz_lab.polycore import VariableSet, Poly

        n_x = data.draw(st.integers(1, len(f.vars) - 1))
        vs = VariableSet(f.vars.names, n_x)
        f = Poly(vs, f.coeff_map())
        for k in range(1, f.degree // 2 + 1):
            cert = key_criterion(prob(f), k)
            if cert is not None:
                assert verify_key_certificate(f, cert)
                assert hessian_vanishes(prob(f), k).vanishes
