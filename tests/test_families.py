import inspect
import re
from fractions import Fraction

import pytest

from lefschetz_lab import linalg
from lefschetz_lab.analysis import Analysis
from lefschetz_lab.apolar import catalecticant, hilbert_vector
from lefschetz_lab.errors import DegenerateInstanceError, InfeasibleParametersError
from lefschetz_lab.families import (
    FAMILIES,
    FamilyInstance,
    FamilySpec,
    _verified,
    gen_exceptional,
    gen_gn,
    gen_gnp,
    gen_ikeda,
    gen_perazzo,
    gen_permutti,
    gen_prop44,
    gen_thmwlp,
    gen_wlpodd,
    generate,
    replay_manifest,
)
from lefschetz_lab.hessian import VanishingVerdict, hessian_vanishes
from lefschetz_lab.lefschetz import LinearForm, wlp_check_element
from lefschetz_lab.polycore import Poly, VariableSet, parse_poly

from conftest import count_analyses, exact, prob


XU_VARS = VariableSet(("x0", "x1", "x2", "u1", "u2"))
THMWLP_64_VARS = VariableSet(("x2", "x3", "x4", "x5", "x6", "u", "v"))
PROP44_VARS = VariableSet(("x0", "x1", "x2", "u", "v"))


def assert_replays(instance, **kwargs):
    results = replay_manifest(instance, **kwargs)
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert not failed, failed


SMALLEST = [
    lambda: gen_ikeda(),
    lambda: gen_exceptional(3, 5, 2),
    lambda: gen_gnp(2, 2, 1, 2, "lemma_m2"),
    lambda: gen_gnp(2, None, 1, 2, "maximal"),
    lambda: gen_gnp(2, 2, 1, 2, "minimal"),
    lambda: gen_perazzo(2, 2, 3),
    lambda: gen_permutti(2, 2, 3, 3),
    lambda: gen_gn(2, 2, 1, 3, 4),
    lambda: gen_wlpodd(4, 5),
    lambda: gen_thmwlp(5, 4),
    lambda: gen_prop44("i"),
]


@pytest.mark.parametrize("build", SMALLEST, ids=lambda b: b().spec.kind)
def test_smallest_instances_replay(build, monkeypatch):
    inst = build()
    an = inst.analysis
    assert (an.f, an.mode, an.seed) == (inst.f, "probabilistic", inst.spec.seed)
    built = count_analyses(monkeypatch)
    assert_replays(inst)
    assert built == []  # the replay read the Analysis that verified the instance


def test_exact_replay_decides_slp_and_wlp_exactly():
    details = {name: detail for name, _, detail in replay_manifest(gen_wlpodd(5, 7), mode="exact")}
    assert details["hess[3] =0"] == "exact"
    assert details["slp"] == "fails (exact)"
    assert details["wlp"] == "fails (exact)"


def test_exact_replay_needs_exact_hessian_verdicts(monkeypatch):
    inst = gen_perazzo(2, 2, 3)
    probable = VanishingVerdict(True, error_bound=Fraction(1, 2**64))
    monkeypatch.setattr(Analysis, "verdict", lambda self, k: probable)
    passed = {name: ok for name, ok, _ in replay_manifest(inst, mode="exact")}
    assert passed["hess[1] =0"] is False
    passed = {name: ok for name, ok, _ in replay_manifest(inst, mode="probabilistic")}
    assert passed["hess[1] =0"] is True


def test_replay_reads_dim_a1_from_the_basis():
    inst = gen_gnp(2, None, 1, 2, "maximal")
    got = inst.manifest.dim_a1
    wrong = inst._replace(manifest=inst.manifest._replace(dim_a1=got + 1))
    results = {name: (ok, detail) for name, ok, detail in replay_manifest(wrong)}
    assert results["dim_a1"] == (False, f"{got} vs {got + 1}")


class TestHash:
    def test_equal_instances_hash_equal(self):
        a, b = gen_wlpodd(4, 5), gen_wlpodd(4, 5)
        assert a == b and hash(a) == hash(b)
        assert hash(gen_ikeda()) == hash(gen_ikeda())
        assert len({a, b, gen_wlpodd(6, 5)}) == 2

    def test_spec_key_order_does_not_matter(self):
        spec = FamilySpec("thmwlp", {"N": 6, "d": 4}, 0, {"g": "u^4", "h": "x6^4"})
        reordered = FamilySpec("thmwlp", {"d": 4, "N": 6}, 0, {"h": "x6^4", "g": "u^4"})
        assert {spec: "found"}[reordered] == "found"


# every tail override checked by one rule: generator, its arguments, the
# override's name, a wrong-degree and a wrong-support override, the message,
# and the arguments under which a zero override builds (None: zero rejected)
TAIL_SITES = [
    (gen_exceptional, (4, 5, 2), "h", "x2^4", "x2^4*u", "override h must be degree d in x2, x3", None),
    (gen_exceptional, (4, 5, 2), "p", "x4^4", "x2^5", "override p must be degree d in x4..xn", (3, 5, 2)),
    (gen_thmwlp, (6, 4), "g", "u^3", "x2*u^3", "g must be degree d in u, v", (6, 4)),
    (gen_thmwlp, (6, 4), "h", "x6^3", "x5^4", "h must be degree d in the spare x-variables", (5, 4)),
    (gen_prop44, ("i",), "h", "u^3", "x0*u^3", "h must be a binary quartic in u, v", ("i",)),
    (gen_perazzo, (2, 2, 3), "h", "u1^2", "x0^3", "h must be a degree-d u-block form", (2, 2, 3)),
]


@pytest.mark.parametrize(
    "gen,args,name,bad_degree,bad_support,message,zero_args",
    TAIL_SITES,
    ids=["exceptional-h", "exceptional-p", "thmwlp-g", "thmwlp-h", "prop44-h", "perazzo-h"],
)
def test_tail_override_checked(gen, args, name, bad_degree, bad_support, message, zero_args):
    vs = gen(*args).f.vars
    for text in (bad_degree, bad_support):
        with pytest.raises(InfeasibleParametersError, match=re.escape(message)):
            gen(*args, **{name: parse_poly(text, vs)})
    if zero_args is None:
        with pytest.raises(InfeasibleParametersError, match=re.escape(message)):
            gen(*args, **{name: Poly.zero(vs)})
    else:
        zero = Poly.zero(gen(*zero_args).f.vars)
        assert gen(*zero_args, **{name: zero}).spec.overrides == {name: "0"}


class TestCarriedAnalysis:
    """A generator hands on the Analysis it verified on; the replay reuses it."""

    def test_replay_in_the_generating_mode_builds_no_analysis(self, monkeypatch):
        inst = gen_wlpodd(4, 5)
        built = count_analyses(monkeypatch)
        assert_replays(inst, mode="probabilistic")
        assert built == []
        assert_replays(inst, mode="exact")
        assert built == ["exact"]

    def test_other_mode_shares_every_piece_and_decision(self):
        an = gen_wlpodd(4, 5).analysis
        other = an.in_mode("exact")
        assert an.in_mode("probabilistic") is an and other.in_mode("exact") is other
        assert (other.f, other.mode, other.seed) == (an.f, "exact", an.seed)
        assert other.derivatives is an.derivatives
        assert other.basis(2) is an.basis(2) and other.key(2) is an.key(2)
        assert other.verdict(1) is an.verdict(1)

    def test_exact_replay_evaluates_no_order_generation_evaluated(self, monkeypatch):
        import lefschetz_lab.hessian as hessian_mod

        evaluated = []
        real = hessian_mod._det_vanishes

        def counting(an, k, kernel):
            evaluated.append(k)
            return real(an, k, kernel)

        monkeypatch.setattr(hessian_mod, "_det_vanishes", counting)
        inst = gen_exceptional(3, 5, 2)
        generated = set(evaluated)
        evaluated.clear()
        assert_replays(inst, mode="exact")
        assert generated and not generated & set(evaluated)

    def test_replay_of_another_form_builds_its_own(self, monkeypatch):
        inst = gen_wlpodd(4, 5)
        other = inst._replace(f=gen_wlpodd(6, 5).f)
        built = count_analyses(monkeypatch)
        results = {name: ok for name, ok, _ in replay_manifest(other)}
        assert built == ["probabilistic"]
        assert results["hilbert"] is False

    def test_not_part_of_equality_repr_or_json(self):
        inst = gen_wlpodd(4, 5)
        bare = FamilyInstance(inst.f, inst.spec, inst.manifest)
        assert bare.analysis is not inst.analysis
        assert bare.analysis is bare.analysis
        assert bare == inst
        assert "analysis" not in repr(inst)
        assert bare.to_json_dict() == inst.to_json_dict()
        assert "analysis" not in inst.to_json_dict()

    def test_copy_builds_its_own(self):
        inst = gen_wlpodd(4, 5)
        copy = inst._replace()
        assert copy == inst and hash(copy) == hash(inst)
        assert copy.analysis is not inst.analysis
        assert copy.analysis.f == inst.f

    def test_instance_without_analysis_replays(self, monkeypatch):
        inst = gen_wlpodd(4, 5)
        built = count_analyses(monkeypatch)
        assert_replays(FamilyInstance(inst.f, inst.spec, inst.manifest))
        assert built == ["probabilistic"]

    def test_analysis_is_at_the_spec_seed(self):
        inst = gen_wlpodd(4, 5)
        reseeded = inst._replace(spec=inst.spec._replace(seed=3))
        an = reseeded.analysis
        assert (an.f, an.mode, an.seed) == (inst.f, "probabilistic", 3)

    @pytest.mark.parametrize("modes", [("probabilistic", "exact"), ("exact", "probabilistic")])
    def test_verdicts_do_not_leak_between_modes(self, modes):
        # this permutti form's order-1 Hessian has no zero block, so
        # each mode decides it by its own route: evaluation, or elimination
        inst = gen_permutti(2, 2, 3, 6)
        assert inst.analysis.key(1) is None
        bare = FamilyInstance(inst.f, inst.spec, inst.manifest)
        for mode in modes:
            details = {name: detail for name, _, detail in replay_manifest(bare, mode=mode)}
            assert details["hess[1] =0"] == mode
        # each mode counts the 4 orders it decided; only exact mode eliminated
        for mode, eliminations in (("probabilistic", 0), ("exact", 1)):
            counts = bare.analysis.in_mode(mode).counts()
            assert (counts["hessian_decisions"], counts["eliminations"]) == (4, eliminations)


@pytest.mark.parametrize("build", SMALLEST, ids=lambda b: b().spec.kind)
def test_determinism(build):
    a, b = build(), build()
    assert a.f == b.f
    assert a.to_json_dict() == b.to_json_dict()


class TestIkeda:
    def test_polynomial(self):
        inst = gen_ikeda()
        assert inst.f.to_text() == "x0^3*x1^2 + x0*u1^3*u2 + x1*u1*u2^3"

    def test_manifest_values(self):
        man = gen_ikeda().manifest
        assert man.hilbert == (1, 4, 10, 10, 4, 1)
        assert dict(man.hess_pattern) == {1: False, 2: True}


class TestExceptional:
    def test_bad_parameters(self):
        with pytest.raises(InfeasibleParametersError):
            gen_exceptional(2, 5, 2)
        with pytest.raises(InfeasibleParametersError):
            gen_exceptional(3, 4, 2)
        with pytest.raises(InfeasibleParametersError):
            gen_exceptional(3, 5, 1)
        with pytest.raises(InfeasibleParametersError):
            gen_exceptional(3, 6, 3)  # k = d/2 excluded

    def test_intermediate_orders_vanish(self):
        inst = gen_exceptional(3, 7, 3)
        assert dict(inst.manifest.hess_pattern) == {1: False, 2: True, 3: True}

    def test_above_order_nonzero_when_in_range(self):
        inst = gen_exceptional(4, 8, 3)
        assert dict(inst.manifest.hess_pattern)[4] is False

    def test_tail_override_validated(self):
        vs = VariableSet(("x2", "x3", "u", "v"))
        with pytest.raises(InfeasibleParametersError):
            gen_exceptional(3, 5, 2, h=parse_poly("u^5", vs))


class TestGnp:
    def test_lemma_shape(self):
        assert gen_gnp(2, 2, 1, 2).f.to_text() == "x*u^2 + y*u*v + z*v^2"
        assert (
            gen_gnp(2, 2, 2, 3).f.to_text()
            == "x^2*u^3 + x*y*u^2*v + y^2*u*v^2 + z^2*v^3"
        )

    def test_lemma_dim_a1_is_five(self):
        for k, e in ((1, 2), (2, 3), (1, 4)):
            inst = gen_gnp(2, 2, k, e)
            assert linalg.rank(catalecticant(inst.f, 1)) == 5

    def test_maximal_codimension_formula(self):
        from math import comb

        for m, e in ((2, 2), (2, 3), (3, 2)):
            inst = gen_gnp(m, None, 1, e, "maximal")
            assert linalg.rank(catalecticant(inst.f, 1)) == m + comb(m - 1 + e, e)

    def test_e_must_exceed_k(self):
        with pytest.raises(InfeasibleParametersError):
            gen_gnp(2, 2, 2, 2)

    def test_minimal_needs_enough_u_forms(self):
        with pytest.raises(InfeasibleParametersError):
            gen_gnp(2, 5, 2, 3, "minimal")  # 21 x-monomials, only 4 u-forms

    def test_unknown_variant(self):
        with pytest.raises(InfeasibleParametersError):
            gen_gnp(2, 2, 1, 2, "fancy")


class TestPerazzo:
    def test_canonical_cubic(self):
        inst = gen_perazzo(2, 2, 3)
        assert inst.f.to_text() == "x0*u1^2 + x1*u1*u2 + x2*u2^2"

    def test_quartic_vanishes(self):
        inst = gen_perazzo(2, 3, 4)
        assert hessian_vanishes(exact(inst.f), 1).vanishes

    def test_needs_more_x_than_u(self):
        with pytest.raises(InfeasibleParametersError):
            gen_perazzo(3, 2, 3)

    def test_cone_rejected(self):
        # (x0 + x1 + x2) * u1^2 depends on two variables only
        with pytest.raises(DegenerateInstanceError, match="superfluous"):
            gen_perazzo(2, 2, 3, gs=[parse_poly("u1^2", XU_VARS)] * 3)

    def test_needs_enough_monomials(self):
        with pytest.raises(InfeasibleParametersError):
            gen_perazzo(2, 4, 3)  # five monomials of degree 2 in two variables

    @pytest.mark.parametrize("g2", ["u2^3", "x0*u2", "0"], ids=["degree", "support", "zero"])
    def test_each_g_checked(self, g2):
        gs = [parse_poly(text, XU_VARS) for text in ("u1^2", "u1*u2", g2)]
        with pytest.raises(InfeasibleParametersError, match="g2 must be a nonzero degree-2 u-block form"):
            gen_perazzo(2, 2, 3, gs=gs)

    def test_inhomogeneous_g_checked(self):
        u1, u2 = (parse_poly(name, XU_VARS) for name in ("u1", "u2"))
        with pytest.raises(InfeasibleParametersError, match="g0 must be"):
            gen_perazzo(2, 2, 3, gs=[u1 * u1 + u2 * u2 * u2, u1 * u2, u2 * u2])


class TestPermutti:
    def test_perazzo_special_case(self):
        vs = gen_perazzo(2, 2, 3).f.vars
        h = parse_poly("u1^3", vs)
        perazzo = gen_perazzo(2, 2, 3, h=h)
        permutti = gen_permutti(2, 2, 3, 3)
        assert permutti.f == perazzo.f

    def test_higher_power_vanishes(self):
        inst = gen_permutti(2, 2, 3, 6)
        assert hessian_vanishes(prob(inst.f), 1).vanishes

    def test_degree_two_core_impossible(self):
        # linear base forms cannot be both linearly independent and
        # algebraically dependent, so e = 2 admits no instance
        with pytest.raises(InfeasibleParametersError):
            gen_permutti(2, 2, 2, 4)
        with pytest.raises(InfeasibleParametersError):
            gen_permutti(2, 3, 2, 5)

    @pytest.mark.parametrize("text", ["u1^2", "x0^3"], ids=["degree", "support"])
    def test_p_override_checked(self, text):
        with pytest.raises(InfeasibleParametersError, match=re.escape("P_1 must be a degree-3 u-block form")):
            gen_permutti(2, 2, 3, 6, Ps={1: parse_poly(text, XU_VARS)})

    def test_p_override_outside_the_parts_rejected(self):
        # d // e = 2, so the parts are P_0..P_2; a P_7 would be recorded in
        # the spec without entering f, and `generate` would refuse the spec
        with pytest.raises(InfeasibleParametersError, match=re.escape("Ps may name only the parts P_0..P_2")):
            gen_permutti(2, 2, 3, 6, Ps={7: parse_poly("u1^2", XU_VARS)})

    def test_zero_overrides(self):
        inst = gen_permutti(2, 2, 3, 6)
        from lefschetz_lab.families import gen_permutti as gp

        trimmed = gp(2, 2, 3, 6, Ps={1: None})
        assert trimmed.f != inst.f
        assert hessian_vanishes(prob(trimmed.f), 1).vanishes


class TestGn:
    def test_single_core_matches_permutti(self):
        assert gen_gn(2, 2, 1, 3, 4).f == gen_permutti(2, 2, 3, 4).f

    def test_two_cores(self):
        inst = gen_gn(2, 3, 1, 2, 4)
        assert hessian_vanishes(exact(inst.f), 1).vanishes
        assert linalg.rank(catalecticant(inst.f, 1)) == 6

    def test_covering_patch_keeps_every_u_variable(self):
        """Both groups of three x-variables take u1, u2 and u3, so u4 is
        patched into the last group, and the form is no cone."""
        inst = generate(FamilySpec("gn", {"m": 4, "n": 5, "r": 3, "e": 2, "d": 4}))
        assert _verified(inst, "test") is inst
        assert inst.analysis.hilbert().dims[1] == len(inst.f.vars) == 10
        for mode in ("exact", "probabilistic"):
            assert_replays(inst, mode=mode)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            gen_gn(2, 2, 1, 2, 3)  # three x-variables, two degree-1 forms
        with pytest.raises(InfeasibleParametersError):
            gen_gn(3, 3, 1, 3, 4)  # canonical base forms need m = r + 1


class TestWlpOdd:
    def test_hilbert_manifest(self):
        assert gen_wlpodd(4, 5).manifest.hilbert == (1, 5, 12, 12, 5, 1)
        assert gen_wlpodd(6, 5).manifest.hilbert == (1, 7, 23, 23, 7, 1)
        assert gen_wlpodd(5, 7).manifest.hilbert == (1, 6, 14, 25, 25, 14, 6, 1)

    def test_computed_hilbert_matches(self):
        for N, d in ((4, 5), (5, 7)):
            inst = gen_wlpodd(N, d)
            assert hilbert_vector(prob(inst.f)).dims == inst.manifest.hilbert

    def test_parameter_validation(self):
        with pytest.raises(InfeasibleParametersError):
            gen_wlpodd(3, 5)
        with pytest.raises(InfeasibleParametersError):
            gen_wlpodd(4, 4)
        with pytest.raises(InfeasibleParametersError):
            gen_wlpodd(4, 3)


class TestThmWlp:
    @pytest.mark.parametrize("N,d", [(3, 3), (3, 4), (4, 4), (3, 6)])
    def test_exclusions_carry_reasons(self, N, d):
        with pytest.raises(InfeasibleParametersError, match="satisfies the"):
            gen_thmwlp(N, d)

    def test_range_validation(self):
        with pytest.raises(InfeasibleParametersError):
            gen_thmwlp(5, 5)
        with pytest.raises(InfeasibleParametersError):
            gen_thmwlp(4, 4 - 2)

    def test_fixed_hilbert_vectors(self):
        assert gen_thmwlp(5, 4).manifest.hilbert == (1, 6, 6, 6, 1)
        assert gen_thmwlp(4, 6).manifest.hilbert == (1, 5, 8, 8, 8, 5, 1)

    def test_obstruction_sizes(self):
        """Each regime's never-injective block has x-operators as its rows
        and bounds the rank of A_level -> A_(level+1) at h_level - 1:
        |D_level| + |D_(d-1-level)| less its size."""
        for (N, d), rows in {(5, 4): 4, (4, 6): 6, (3, 8): 6, (3, 10): 7}.items():
            inst = gen_thmwlp(N, d)
            an, level = inst.analysis, inst.manifest.never_injective_level
            block = an.obstruction(level)
            spanning = len(an.divisor_monomials(level)) + len(an.divisor_monomials(d - 1 - level))
            assert len(block.rows) == rows and all(sum(e[:-2]) == 1 for e in block.rows)  # one x, then u, v
            assert spanning - block.size == an.hilbert()[level] - 1

    def test_spare_variables(self):
        inst = gen_thmwlp(7, 4)
        assert "x6" in inst.f.vars.names and "x7" in inst.f.vars.names
        assert_replays(inst)


class TestProp44:
    def test_zero_tail_is_allowed(self):
        vs = VariableSet(("x0", "x1", "x2", "u", "v"))
        inst = gen_prop44("ii", h=parse_poly("0", vs))
        assert hessian_vanishes(exact(inst.f), 1).vanishes

    def test_case_iii_with_pure_power(self):
        vs = VariableSet(("x0", "x1", "x2", "u", "v"))
        inst = gen_prop44("iii", h=parse_poly("u^4", vs))
        ok, _ = wlp_check_element(prob(inst.f), inst.manifest.wlp_witness)
        assert ok

    def test_unknown_case(self):
        with pytest.raises(InfeasibleParametersError):
            gen_prop44("iv")

    def test_bad_tail_rejected(self):
        vs = VariableSet(("x0", "x1", "x2", "u", "v"))
        with pytest.raises(InfeasibleParametersError):
            gen_prop44("i", h=parse_poly("x0*u^3", vs))


class TestDispatch:
    def test_generate_by_spec(self):
        inst = generate(FamilySpec("gnp", {"m": 2, "n": 2, "k": 1, "e": 2}))
        assert inst.f.to_text() == "x*u^2 + y*u*v + z*v^2"

    def test_unknown_kind(self):
        with pytest.raises(InfeasibleParametersError, match="unknown family kind 'mystery'"):
            generate(FamilySpec("mystery", {}))

    def test_missing_parameter_named(self):
        with pytest.raises(InfeasibleParametersError, match="wlpodd needs the parameter 'N'"):
            generate(FamilySpec("wlpodd", {"d": 5}))

    def test_unknown_parameter_named(self):
        with pytest.raises(InfeasibleParametersError, match="wlpodd takes no parameter 'k'"):
            generate(FamilySpec("wlpodd", {"N": 4, "d": 5, "k": 2}))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_table_names_generator_parameters(self, kind):
        family = FAMILIES[kind]
        signature = inspect.signature(family.gen).parameters
        assert all(name in signature for name in family.params)
        assert set(family.optional) <= set(family.params)

    def test_instance_poly_round_trips(self):
        inst = gen_thmwlp(5, 4)
        data = inst.to_json_dict()
        vs = VariableSet(tuple(data["vars"]))
        assert parse_poly(data["poly"], vs) == inst.f


class TestOverrideSerialization:
    def test_recorded_in_spec(self):
        vs = gen_perazzo(2, 2, 3).f.vars
        inst = gen_perazzo(2, 2, 3, h=parse_poly("u1^3", vs))
        assert inst.spec.overrides == {"h": "u1^3"}
        assert inst.to_json_dict()["overrides"] == {"h": "u1^3"}

    def test_absent_by_default(self):
        assert "overrides" not in gen_perazzo(2, 2, 3).to_json_dict()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_perazzo(2, 2, 3, h=parse_poly("u1^3", XU_VARS)),
            lambda: gen_permutti(2, 2, 3, 3, Ps={0: parse_poly("u2^3", XU_VARS)}),
            lambda: gen_thmwlp(6, 4, h=parse_poly("2*x6^4", THMWLP_64_VARS)),
            lambda: gen_prop44("ii", h=parse_poly("u^4 + 2*v^4", PROP44_VARS)),
        ],
        ids=["perazzo", "permutti", "thmwlp", "prop44"],
    )
    def test_generate_honours_overrides_after_json_round_trip(self, build):
        inst = build()
        assert inst.spec.overrides
        rebuilt = generate(FamilySpec(**inst.spec.to_json_dict()))
        assert rebuilt.f == inst.f
        assert rebuilt.spec == inst.spec

    def test_unknown_override_rejected(self):
        spec = FamilySpec("perazzo", {"m": 2, "n": 2, "d": 3}, 0, {"q": "u1^3"})
        with pytest.raises(InfeasibleParametersError, match="'q'"):
            generate(spec)


class TestVerified:
    """Each claim kind of a manifest, altered alone, is caught at generation,
    and the replay fails that claim alone with the same message: generation
    and replay run one checker."""

    @pytest.mark.parametrize(
        "build,change,message",
        [
            (gen_ikeda, {"certified_orders": (1, 2)}, "no vanishing certificate at order 1"),
            (gen_ikeda, {"hess_pattern": ((1, True), (2, True))}, "order 1 did not vanish"),
            (gen_ikeda, {"hess_pattern": ((1, False), (2, False))}, "order 2 vanished"),
            (gen_ikeda, {"wlp": "holds", "wlp_witness": LinearForm((1, 1, 1, 1))}, "witness fails"),
            (lambda: gen_prop44("i"), {"wlp": "fails"}, "witness passes"),
            (lambda: gen_thmwlp(5, 4), {"never_injective_level": 2}, "no never-injective certificate at level 2"),
        ],
        ids=["key", "hess-vanishes", "hess-nonvanishing", "witness-fails", "witness-passes", "obstruction-level"],
    )
    def test_altered_claim_raises(self, build, change, message):
        inst = build()
        assert _verified(inst, "test") is inst
        altered = inst._replace(manifest=inst.manifest._replace(**change))
        with pytest.raises(DegenerateInstanceError, match=message):
            _verified(altered, "test")
        results = replay_manifest(altered)
        failed = [(name, detail) for name, ok, detail in results if not ok]
        assert len(failed) == 1 and re.search(message, failed[0][1]), failed
