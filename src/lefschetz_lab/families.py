"""Deterministic generators for the counterexample families.

Every generator returns a `FamilyInstance`: the polynomial and a manifest
of expected properties that downstream modules can replay.  The paper's
forms are written in an x-block followed by a u-block; a generator names
each block from the variable names it builds.  The structural claims
(not a cone, the zero blocks, the Hessian orders, the WLP witness) are
checked by one checker, `_structural_claims`.  Each generator ends in one
call to `_instance`, which builds the manifest from the generator's claims
and the two every family makes (f is not a cone, and dim A_1 is its number
of variables) and hands the instance to `_verified`.  That runs the checker
on the instance's probabilistic Analysis (`FamilyInstance.analysis`, at the
spec's seed) and raises `DegenerateInstanceError` at the first failed claim
instead of emitting an instance whose manifest might be wrong.
`replay_manifest` runs the same checker in a chosen mode, on that Analysis
in the mode (`Analysis.in_mode`, which shares every mode-free piece), then
replays the Hilbert vector, unimodality, dim A_1 (the size of that
Analysis's basis of A_1) and the generic SLP/WLP reports.

Canonical shapes only: the tail polynomials (g, h, p, the biform parts) have
fixed monomial defaults, overridable by keyword.  A tail summand is a form
of degree d in prescribed variables; `_tail` checks an override against that
and supplies the default, the sum of their d-th powers.  A bilinear block,
x-monomials paired with u-monomials, is built by `_xu_sum`.  Identical
parameters always produce bit-identical output.

`FAMILIES` is the one place a family is declared: its generator, its
parameters (also the CLI flags) and the tail overrides it accepts.
`generate` and the CLI read every family from it.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .analysis import Analysis
from .apolar import is_unimodal
from .errors import DegenerateInstanceError, InfeasibleParametersError
from .hessian import VanishingVerdict, is_cone
from .lefschetz import (
    LefschetzReport,
    LinearForm,
    slp_generic,
    verify_zero_block,
    wlp_check_element,
    wlp_generic,
)
from .polycore import (
    Monomial,
    Poly,
    Record,
    VariableSet,
    mono_basis,
    mono_count,
    parse_poly,
    poly_sum,
)


class FamilySpec(Record):
    """Which family, with which parameters, and the seed for verification.

    `overrides` records the text form of any explicitly supplied tail
    polynomials, so serialized specs describe the instance completely; it
    defaults to a new empty dict.  Equality and hash ignore the dicts' key
    order.
    """

    __slots__ = ("kind", "params", "seed", "overrides")

    def __init__(self, kind: str, params: dict, seed: int = 0, overrides: Optional[dict] = None):
        Record.__init__(self, kind, params, seed, {} if overrides is None else overrides)

    def __hash__(self) -> int:
        # consistent with ==, which compares dicts and so ignores their key order
        return hash((self.kind, tuple(sorted(self.params.items())), self.seed,
                     tuple(sorted(self.overrides.items()))))

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params), "seed": self.seed}
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out


def _override_texts(**named: Optional[Poly]) -> dict:
    return {name: poly.to_text() for name, poly in named.items() if poly is not None}


class Manifest(NamedTuple):
    """Expected properties of an instance; every claim is machine-checkable."""

    hess_pattern: tuple[tuple[int, bool], ...] = ()  # (order, vanishes)
    hilbert: Optional[tuple[int, ...]] = None
    unimodal: Optional[bool] = None
    cone: Optional[bool] = None
    dim_a1: Optional[int] = None
    slp: Optional[str] = None
    slp_fail_level: Optional[int] = None
    wlp: Optional[str] = None
    wlp_fail_level: Optional[int] = None
    wlp_witness: Optional[LinearForm] = None
    certified_orders: tuple[int, ...] = ()
    never_injective_level: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.hess_pattern:
            out["hess_pattern"] = {str(k): v for k, v in self.hess_pattern}
        if self.hilbert is not None:
            out["hilbert"] = list(self.hilbert)
        for name in ("unimodal", "cone", "dim_a1", "slp", "slp_fail_level",
                     "wlp", "wlp_fail_level", "never_injective_level"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.wlp_witness is not None:
            out["wlp_witness"] = self.wlp_witness.to_json()
        if self.certified_orders:
            out["certified_orders"] = list(self.certified_orders)
        return out


class FamilyInstance(Record):
    """A generated form with the spec that rebuilds it and its manifest.

    `analysis` is built on first use and kept in a private slot, so it is
    left out of equality, hash and repr, and a copy (by `_replace`,
    `copy.copy`, `copy.deepcopy` or pickle) builds its own Analysis.
    """

    __slots__ = ("f", "spec", "manifest", "_analysis")

    def __init__(self, f: Poly, spec: FamilySpec, manifest: Manifest):
        Record.__init__(self, f, spec, manifest)
        object.__setattr__(self, "_analysis", None)  # built on first access

    @property
    def analysis(self) -> Analysis:
        """The probabilistic Analysis of f at the spec's seed, built on first use."""
        if self._analysis is None:
            object.__setattr__(self, "_analysis", Analysis(self.f, "probabilistic", self.spec.seed))
        return self._analysis

    def to_json_dict(self) -> dict:
        vs = self.f.vars
        out = self.spec.to_json_dict()
        out.update(
            {
                "vars": list(vs.names),
                "poly": self.f.to_text(),
                "manifest": self.manifest.to_json_dict(),
            }
        )
        return out


def _mono(vs: VariableSet, pairs: Mapping[str, int], coeff: int = 1) -> Poly:
    expo = [0] * len(vs)
    for name, e in pairs.items():
        expo[vs.index(name)] = e
    return Poly.monomial(vs, tuple(expo), coeff)


def _pure(count: int, i: int, degree: int = 1) -> Monomial:
    """The exponent of the degree-th power of variable i among `count` variables."""
    return tuple(degree if t == i else 0 for t in range(count))


def _xu_sum(vs: VariableSet, x_expos: Iterable[Sequence[int]],
            u_expos: Iterable[Sequence[int]]) -> Poly:
    """The sum of the monomials x^a * u^b over the paired x- and u-block exponents a, b."""
    pairs = zip(x_expos, u_expos, strict=True)
    return poly_sum(vs, [Poly.monomial(vs, tuple(a) + tuple(b)) for a, b in pairs])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InfeasibleParametersError(message)


def _tail(vs: VariableSet, names: Sequence[str], d: int, override: Optional[Poly],
          message: str, *, nonzero: bool = False) -> Poly:
    """A tail summand: `override`, a form of degree d in `names` (or zero, unless
    `nonzero`), else by default the sum of the d-th powers of `names`."""
    if override is None:
        return poly_sum(vs, [_mono(vs, {x: d}) for x in names])
    indices = {vs.index(x) for x in names}
    if override.is_zero():
        ok = not nonzero
    else:
        ok = override.is_homogeneous() and override.degree == d and override.supported_on(indices)
    _require(ok, message)
    return override


def _x_uv_vars(top: int) -> VariableSet:
    """x2 .. x{top} followed by u, v (the exceptional and thmwlp families)."""
    return VariableSet(tuple(f"x{i}" for i in range(2, top + 1)) + ("u", "v"))


def _xu_vars(m: int, n: int) -> VariableSet:
    """x0 .. xn followed by u1 .. um (the perazzo, permutti, gn and minimal gnp families)."""
    return VariableSet(tuple(f"x{j}" for j in range(n + 1)) + tuple(f"u{j}" for j in range(1, m + 1)))


_PROP44_VARS = VariableSet(("x0", "x1", "x2", "u", "v"))


def _structural_claims(an: Analysis, manifest: Manifest) -> Iterator[tuple[str, bool, str]]:
    """The structural claims of `manifest` checked on `an`, as (claim, passed, detail).

    In order: f is (not) a cone as claimed; each order in
    `certified_orders` has a zero block proving it vanishes (`an.key(k)`);
    each order of `hess_pattern` has the claimed verdict (in exact mode only
    an exact verdict passes); `never_injective_level` has a zero block
    proving its map never injective (`an.obstruction(level)`), each block
    replayed by `verify_zero_block`, so that it holds for every form with
    support in supp(f) and h_k >= dims[k]; `wlp_witness` passes exactly
    when `wlp` holds.  A failed claim's detail says what failed; a passed
    one's is the mode of a Hessian verdict, else empty.  Lazy, so that
    generation stops at the first failed claim.
    """
    if manifest.cone is not None:
        cone = is_cone(an).is_cone
        yield "cone", cone == manifest.cone, "" if cone == manifest.cone else (
            "some variable is superfluous" if cone else "no variable is superfluous")
    for k in manifest.certified_orders:
        cert = an.key(k)
        ok = cert is not None and verify_zero_block(an.f, an.hilbert(), cert)
        yield f"certified[{k}]", ok, "" if ok else f"no vanishing certificate at order {k}"
    for k, vanishes in manifest.hess_pattern:
        verdict = an.verdict(k)
        ok = verdict.vanishes == vanishes
        detail = verdict.mode if ok else (
            f"Hessian of order {k} " + ("did not vanish" if vanishes else "vanished"))
        exact_enough = an.mode != "exact" or verdict.mode == "exact"
        yield f"hess[{k}] {'=0' if vanishes else '!=0'}", ok and exact_enough, detail
    level = manifest.never_injective_level
    if level is not None:
        cert = an.obstruction(level)
        ok = cert is not None and verify_zero_block(an.f, an.hilbert(), cert)
        yield f"never_injective[{level}]", ok, "" if ok else f"no never-injective certificate at level {level}"
    if manifest.wlp_witness is not None:
        ok, _ = wlp_check_element(an, manifest.wlp_witness)
        holds = manifest.wlp == "holds"
        yield "wlp_witness", ok == holds, "" if ok == holds else (
            "the WLP witness " + ("fails" if holds else "passes"))


def _verified(inst: FamilyInstance, what: str) -> FamilyInstance:
    """Check the structural claims of the instance's manifest on `inst.analysis`; return it.

    The claims are `_structural_claims`, the same checker `replay_manifest`
    starts with; the first failed one raises `DegenerateInstanceError` with
    its detail.  The Hilbert vector, dim A_1 and the generic SLP/WLP reports
    are left to `replay_manifest`.
    """
    for _, passed, detail in _structural_claims(inst.analysis, inst.manifest):
        if not passed:
            raise DegenerateInstanceError(f"{what}: {detail}")
    return inst


def _instance(f: Poly, spec: FamilySpec, what: str, **claims) -> FamilyInstance:
    """The verified instance of f whose manifest makes `claims`, together
    with the two every family makes: f is not a cone, so dim A_1 is its
    number of variables."""
    manifest = Manifest(cone=False, dim_a1=len(f.vars), **claims)
    return _verified(FamilyInstance(f, spec, manifest), what)


# -- the fixed codimension-4 example ------------------------------------------


def gen_ikeda(*, seed: int = 0) -> FamilyInstance:
    """The degree-5 form in 4 variables whose order-2 Hessian vanishes."""
    vs = VariableSet(("x0", "x1", "u1", "u2"))
    f = poly_sum(
        vs,
        [
            _mono(vs, {"x0": 1, "u1": 3, "u2": 1}),
            _mono(vs, {"x1": 1, "u1": 1, "u2": 3}),
            _mono(vs, {"x0": 3, "x1": 2}),
        ],
    )
    return _instance(
        f, FamilySpec("ikeda", {}, seed), "ikeda",
        hess_pattern=((1, False), (2, True)),
        hilbert=(1, 4, 10, 10, 4, 1),
        unimodal=True,
        slp="fails",
        slp_fail_level=2,
        certified_orders=(2,),
    )


# -- prescribed intermediate vanishing ----------------------------------------


def gen_exceptional(
    n: int,
    d: int,
    k: int,
    *,
    h: Optional[Poly] = None,
    p: Optional[Poly] = None,
    seed: int = 0,
) -> FamilyInstance:
    """Degree-d form whose Hessians vanish exactly for orders 2..k.

    Shape: x2*u^(k-1)*v^(d-k) + x3*u^(d-2)*v plus tail summands h(x2,x3) and
    p(x4..xn).  The vanishing orders are certified structurally; the
    nonvanishing of orders 1 and k+1 is verified by witness evaluation.
    """
    _require(n >= 3, "need n >= 3")
    _require(d >= 5, "need d >= 5")
    _require(2 <= k and 2 * k < d, "need 2 <= k < d/2")
    vs = _x_uv_vars(n)
    core = poly_sum(
        vs,
        [
            _mono(vs, {"x2": 1, "u": k - 1, "v": d - k}),
            _mono(vs, {"x3": 1, "u": d - 2, "v": 1}),
        ],
    )
    tail_h = _tail(vs, ("x2", "x3"), d, h, "override h must be degree d in x2, x3", nonzero=True)
    tail_p = _tail(vs, vs.names[2:-2], d, p, "override p must be degree d in x4..xn")

    hess_pattern = [(1, False)] + [(r, True) for r in range(2, k + 1)]
    if 2 * (k + 1) <= d:
        hess_pattern.append((k + 1, False))
    spec = FamilySpec("exceptional", {"n": n, "d": d, "k": k}, seed, _override_texts(h=h, p=p))
    return _instance(
        core + tail_h + tail_p, spec, "exceptional",
        hess_pattern=tuple(hess_pattern),
        slp="fails",
        slp_fail_level=2,
        certified_orders=tuple(range(2, k + 1)),
    )


# -- bilinear-shape families with a u-subring overflow -------------------------


def gen_gnp(
    m: int,
    n: Optional[int],
    k: int,
    e: int,
    variant: str = "lemma_m2",
    *,
    seed: int = 0,
) -> FamilyInstance:
    """Sum of products (degree-k x-form) * (degree-e u-form) with hess^k = 0.

    Variants fix the canonical choices: `lemma_m2` is the five-variable
    shape with the minimal number of x-variables; `maximal` pairs k-th powers
    of fresh x-variables with the full degree-e monomial basis of the
    u-block; `minimal` pairs the full degree-k x-monomial basis with as few
    u-forms as that requires.
    """
    _require(m >= 2, "need m >= 2")
    _require(k >= 1, "need k >= 1")
    _require(e > k, "need e > k")
    d = e + k
    if variant == "lemma_m2":
        _require(m == 2, "lemma_m2 variant requires m = 2")
        _require(n is None or n == 2, "lemma_m2 variant forces n = 2")
        vs = VariableSet(("x", "y", "z", "u", "v"))
        f = _xu_sum(vs, [(k - j, j, 0) for j in range(k + 1)] + [(0, 0, k)],
                    [(e - j, j) for j in range(k + 1)] + [(e - k - 1, k + 1)])
        params = {"m": m, "n": 2, "k": k, "e": e, "variant": variant}
    elif variant == "maximal":
        s = mono_count(m, e)
        _require(n is None or n == s - 1, f"maximal variant forces n = {s - 1}")
        u_names = tuple(f"u{j}" for j in range(1, m + 1))
        vs = VariableSet(tuple(f"x{j}" for j in range(1, s + 1)) + u_names)
        f = _xu_sum(vs, [_pure(s, j, k) for j in range(s)], mono_basis(VariableSet(u_names), e))
        params = {"m": m, "n": s - 1, "k": k, "e": e, "variant": variant}
    elif variant == "minimal":
        _require(n is not None, "minimal variant needs n")
        _require(n >= m, "minimal variant needs n >= m")
        s = mono_count(n + 1, k)
        _require(
            s <= mono_count(m, e),
            f"not enough independent degree-{e} u-forms: need {s}",
        )
        vs = _xu_vars(m, n)
        f = _xu_sum(vs, mono_basis(VariableSet(vs.names[: n + 1]), k), _covering_monomials(m, e, s))
        params = {"m": m, "n": n, "k": k, "e": e, "variant": variant}
    else:
        raise InfeasibleParametersError(f"unknown gnp variant {variant!r}")

    return _instance(
        f, FamilySpec("gnp", params, seed), f"gnp/{variant}",
        hess_pattern=((k, True),),
        slp="fails",
        certified_orders=(k,),
    )


def _covering_monomials(m: int, degree: int, count: int) -> list[Monomial]:
    """First `count` degree monomials in m variables, patched to use them all.

    Every caller has required that `count` such monomials exist."""
    chosen = mono_basis(VariableSet(tuple(f"u{j}" for j in range(1, m + 1))), degree)[:count]
    covered = {i for mo in chosen for i, ee in enumerate(mo) if ee}
    missing = [i for i in range(m) if i not in covered]
    for slot, i in enumerate(missing, start=1):
        replacement = _pure(m, i, degree)
        if replacement not in chosen:
            chosen[-slot] = replacement
    return chosen


# -- classical vanishing-Hessian families --------------------------------------


def gen_perazzo(
    m: int,
    n: int,
    d: int,
    *,
    gs: Optional[Sequence[Poly]] = None,
    h: Optional[Poly] = None,
    seed: int = 0,
) -> FamilyInstance:
    """x0*g0 + ... + xn*gn + h with u-block forms g_i; classical Hessian zero."""
    _require(m >= 2, "need m >= 2")
    _require(n >= 2, "need n >= 2")
    _require(n + 1 > m, "need n + 1 > m (forces algebraic dependence)")
    _require(d >= 3, "need d >= 3")
    _require(
        n + 1 <= mono_count(m, d - 1),
        f"need {n + 1} distinct degree-{d - 1} monomials in {m} variables",
    )
    vs = _xu_vars(m, n)
    if gs is None:
        x_expos = [_pure(n + 1, i) for i in range(n + 1)]
        parts = [_xu_sum(vs, x_expos, _covering_monomials(m, d - 1, n + 1))]
    else:
        _require(len(gs) == n + 1, f"need exactly {n + 1} u-block forms")
        parts = [
            Poly.variable(vs, i) * _tail(vs, vs.names[n + 1 :], d - 1, g,
                                         f"g{i} must be a nonzero degree-{d - 1} u-block form",
                                         nonzero=True)
            for i, g in enumerate(gs)
        ]
    if h is not None:
        parts.append(_tail(vs, vs.names[n + 1 :], d, h, "h must be a degree-d u-block form"))
    f = poly_sum(vs, parts)
    spec = FamilySpec(
        "perazzo",
        {"m": m, "n": n, "d": d},
        seed,
        _override_texts(h=h, **{f"g{i}": g for i, g in enumerate(gs or [])}),
    )
    return _instance(
        f, spec, "perazzo",
        hess_pattern=((1, True),),
        slp="fails",
        slp_fail_level=1,
        certified_orders=(1,),
    )


def gen_permutti(
    m: int,
    n: int,
    e: int,
    d: int,
    *,
    Ps: Optional[Mapping[int, Optional[Poly]]] = None,
    seed: int = 0,
) -> FamilyInstance:
    """Sum of Q^j * P_j with Q = sum x_i g_i of degree e; Hessian zero.

    The g_i default to distinct degree-(e-1) u-block monomials, so they are
    linearly independent yet algebraically dependent (their count exceeds the
    number of u-variables).  P_j defaults to a power of the first u-variable
    of the right degree; entries of `Ps` may be replaced or set to None/zero,
    and a key outside 0..d//e is rejected.
    """
    _require(m >= 2, "need m >= 2")
    _require(
        e >= 3,
        "need e >= 3: degree-(e-1) forms that are linearly independent but "
        "algebraically dependent exist only for e - 1 >= 2",
    )
    _require(n + 1 > m, "need n + 1 > m (forces algebraic dependence)")
    mu = d // e
    _require(mu >= 1, "need d >= e")
    _require(
        n + 1 <= mono_count(m, e - 1),
        f"need {n + 1} distinct degree-{e - 1} monomials in {m} variables",
    )
    _require(set(Ps or ()) <= set(range(mu + 1)), f"Ps may name only the parts P_0..P_{mu}")
    vs = _xu_vars(m, n)
    Q = _xu_sum(vs, [_pure(n + 1, i) for i in range(n + 1)], _covering_monomials(m, e - 1, n + 1))
    parts = []
    for j in range(mu + 1):
        if Ps is not None and j in Ps:
            pj = Ps[j]
            if pj is None or pj.is_zero():
                continue
            _tail(vs, vs.names[n + 1 :], d - j * e, pj, f"P_{j} must be a degree-{d - j * e} u-block form")
        else:
            pj = _mono(vs, {"u1": d - j * e})
        parts.append(Q**j * pj)
    f = poly_sum(vs, parts)
    if f.is_zero():
        raise DegenerateInstanceError("permutti: all biform parts were zero")
    p_over = {}
    if Ps:
        p_over = {f"P{j}": ("0" if pj is None else pj.to_text()) for j, pj in Ps.items()}
    return _instance(
        f, FamilySpec("permutti", {"m": m, "n": n, "e": e, "d": d}, seed, p_over), "permutti",
        hess_pattern=((1, True),),
        slp="fails",
        slp_fail_level=1,
    )


def gen_gn(
    m: int,
    n: int,
    r: int,
    e: int,
    d: int,
    *,
    seed: int = 0,
) -> FamilyInstance:
    """Canonical composite-core family: biforms in s cores Q_l and the u-block.

    The x-variables are split into s = n - r groups; group l contributes the
    core Q_l = sum of x_i * (degree-(e-1) monomial in the u-block), with
    distinct monomials inside each group.  The biforms P_j are single
    monomials chosen so every core appears.  All forms built this way from
    fewer base forms than cores have algebraically dependent partials, so the
    classical Hessian vanishes; this is verified per instance together with
    the cone test.
    """
    _require(m >= 2, "need m >= 2")
    _require(1 <= r < n, "need 1 <= r < n (so that s = n - r >= 1)")
    _require(e >= 2, "need e >= 2")
    _require(d > e, "need d > e")
    _require(
        m == r + 1,
        "canonical instantiation uses the u-variables themselves as the base "
        "forms, which needs m = r + 1",
    )
    s = n - r
    mu = d // e
    vs = _xu_vars(m, n)
    base = (n + 1) // s
    rem = (n + 1) % s
    sizes = [base + 1 if l < rem else base for l in range(s)]
    _require(
        max(sizes) <= mono_count(m, e - 1),
        f"a core group of {max(sizes)} x-variables needs as many distinct "
        f"degree-{e - 1} monomials in {m} variables",
    )
    all_monos = mono_basis(VariableSet(vs.names[n + 1 :]), e - 1)
    groups: list[list[Monomial]] = [all_monos[: size] for size in sizes]
    covered = {i for grp in groups for mo in grp for i, ee in enumerate(mo) if ee}
    covered.add(0)  # the biform u-parts are powers of u1
    missing = [i for i in range(m) if i not in covered]
    for slot, i in enumerate(missing, start=1):
        groups[-1][-slot] = _pure(m, i, e - 1)
    xs = iter(range(n + 1))  # each core takes the next run of x-variables
    cores = [_xu_sum(vs, [_pure(n + 1, next(xs)) for _ in grp], grp) for grp in groups]
    # single-monomial biforms: z-part degree j, u-part a power of u1,
    # chosen so that every core index appears in some biform
    uncovered = list(range(s))
    z_parts: dict[int, tuple[int, ...]] = {}
    for j in range(mu, 0, -1):
        take = uncovered[: min(j, len(uncovered))]
        uncovered = uncovered[len(take) :]
        expo = [0] * s
        for t in take:
            expo[t] = 1
        expo[0] += j - len(take)
        z_parts[j] = tuple(expo)
    _require(
        not uncovered,
        "single-monomial biforms cannot involve every core: increase d or "
        "reduce the number of cores",
    )
    parts = [_mono(vs, {"u1": d})]
    for j, zexpo in z_parts.items():
        term = _mono(vs, {"u1": d - j * e})
        for l, ee in enumerate(zexpo):
            term = term * cores[l] ** ee
        parts.append(term)
    f = poly_sum(vs, parts)
    return _instance(
        f, FamilySpec("gn", {"m": m, "n": n, "r": r, "e": e, "d": d}, seed), "gn",
        hess_pattern=((1, True),),
        slp="fails",
        slp_fail_level=1,
    )


# -- families failing the weak property ----------------------------------------


def gen_wlpodd(N: int, d: int, *, seed: int = 0) -> FamilyInstance:
    """Odd socle degree, unimodal Hilbert vector, weak property fails.

    Even N pairs the degree-q monomials of the u-block with their twins in
    x-variables; odd N drops the last pairing and adds a second anchor term.
    The middle Hessian vanishes (certified), which kills the middle map
    A_q -> A_{q+1} for every linear form.
    """
    _require(d >= 5 and d % 2 == 1, "need odd d >= 5")
    _require(
        N >= 4,
        "need N >= 4: the paired-monomial construction starts at N = 4 "
        "(no instance with N = 3 is provided)",
    )
    q = d // 2
    m = N // 2
    even = N % 2 == 0
    u_names = tuple(f"u{j}" for j in range(1, m + 1))
    x_count = m + 1 if even else m + 2
    vs = VariableSet(tuple(f"x{j}" for j in range(x_count)) + u_names)
    u_monos = mono_basis(VariableSet(u_names), q)
    if not even:
        u_monos = u_monos[:-1]
    # each u-monomial times its twin in x1..xm and an extra factor u_m
    twins = _xu_sum(vs, [(0, *mo) + (0,) * (x_count - 1 - m) for mo in u_monos],
                    [mo[:-1] + (mo[-1] + 1,) for mo in u_monos])
    parts = [_mono(vs, {"x0": q, "u1": q + 1}), twins]
    if not even:
        parts.append(_mono(vs, {f"x{m + 1}": q, f"u{m}": q + 1}))
    f = poly_sum(vs, parts)

    free = N if even else N - 1  # paired variables spanning the bulk of A_k
    extras = (1 if even else 2)
    half = [1]
    for k in range(1, q + 1):
        hk = extras * k + comb(free - 1 + k, k)
        if not even and k == q:
            hk -= 1  # X_m^q annihilates f: its twin monomial is not present
        half.append(hk)
    hilbert = tuple(half + half[::-1])

    return _instance(
        f, FamilySpec("wlpodd", {"N": N, "d": d}, seed), "wlpodd",
        hess_pattern=((q, True),),
        hilbert=hilbert,
        unimodal=True,
        slp="fails",
        slp_fail_level=q,
        wlp="fails",
        wlp_fail_level=q,
        certified_orders=(q,),
    )


_THMWLP_EXCLUSIONS = {
    (3, 3): "every algebra with 4 essential variables and socle degree 3 "
            "satisfies the strong property, so the weak one cannot fail",
    (3, 4): "every algebra with 4 essential variables and socle degree 4 "
            "satisfies the strong property, so the weak one cannot fail",
    (4, 4): "every algebra with 5 essential variables and socle degree 4 "
            "satisfies the weak property",
    (3, 6): "every algebra with 4 essential variables and socle degree 6 "
            "satisfies the weak property",
}


def gen_thmwlp(
    N: int,
    d: int,
    *,
    g: Optional[Poly] = None,
    h: Optional[Poly] = None,
    seed: int = 0,
) -> FamilyInstance:
    """Even socle degree, unimodal Hilbert vector, weak property fails.

    Three regimes (d = 4, d = 6, d >= 8) each plant enough operators pushing
    f into the u-subring that some consecutive map can never be injective:
    their rows of its mixed Hessian vanish off the u-subring, a zero block
    (`an.obstruction(level)`) that certifies the failure, not sampling.
    """
    if (N, d) in _THMWLP_EXCLUSIONS:
        raise InfeasibleParametersError(f"(N,d)=({N},{d}): " + _THMWLP_EXCLUSIONS[(N, d)])
    _require(d >= 4 and d % 2 == 0, "need even d >= 4")
    _require(N >= 3, "need N >= 3")
    if d == 4:
        _require(N >= 5, "d = 4 needs N >= 5")
        core = [
            {"x2": 1, "u": 3},
            {"x3": 1, "u": 2, "v": 1},
            {"x4": 1, "u": 1, "v": 2},
            {"x5": 1, "v": 3},
        ]
        level = 1
        spare_from = 6
    elif d == 6:
        _require(N >= 4, "d = 6 needs N >= 4")
        core = [
            {"x2": 1, "u": 2, "v": 3},
            {"x3": 1, "u": 4, "v": 1},
            {"x4": 1, "u": 1, "v": 4},
        ]
        level = 2
        spare_from = 5
    else:
        q = d // 2
        core = [
            {"x2": 1, "u": q - 2, "v": q + 1},
            {"x3": 1, "u": 2 * q - 3, "v": 2},
        ]
        level = q - 1
        spare_from = 4
    spare = tuple(f"x{i}" for i in range(spare_from, N + 1))
    vs = _x_uv_vars(N)  # the core x-variables, then the spare ones
    g_poly = _tail(vs, ("u", "v"), d, g, "g must be degree d in u, v")
    h_poly = _tail(vs, spare, d, h, "h must be degree d in the spare x-variables")
    f = poly_sum(vs, [_mono(vs, t) for t in core]) + g_poly + h_poly

    hilbert = None
    if (N, d) == (5, 4):
        hilbert = (1, 6, 6, 6, 1)
    elif (N, d) == (4, 6):
        hilbert = (1, 5, 8, 8, 8, 5, 1)

    return _instance(
        f, FamilySpec("thmwlp", {"N": N, "d": d}, seed, _override_texts(g=g, h=h)), "thmwlp",
        hilbert=hilbert,
        unimodal=True,
        wlp="fails",
        wlp_fail_level=level,
        never_injective_level=level,
    )


_PROP44_CORES = {
    "i": ({"x0": 1, "u": 3}, {"x1": 1, "u": 1, "v": 2}, {"x2": 1, "u": 2, "v": 1}),
    "ii": ({"x0": 1, "u": 2, "v": 1}, {"x1": 1, "u": 3}, {"x2": 1, "v": 3}),
    "iii": None,  # mixed signs, built explicitly below
}


def gen_prop44(case: str, h: Optional[Poly] = None, *, seed: int = 0) -> FamilyInstance:
    """Codimension 5, socle degree 4: Hessian vanishes yet the weak property holds.

    The three canonical cores come with their known witness (U+V for cases
    i and ii, V for case iii); the tail h is any binary quartic in u, v.
    """
    if case not in ("i", "ii", "iii"):
        raise InfeasibleParametersError(f"unknown case {case!r}, expected i, ii or iii")
    vs = _PROP44_VARS
    if case == "iii":
        core = poly_sum(
            vs,
            [
                _mono(vs, {"x0": 1, "u": 2, "v": 1}),
                _mono(vs, {"x0": 1, "v": 3}, -1),
                _mono(vs, {"x1": 1, "u": 3}),
                _mono(vs, {"x1": 1, "u": 1, "v": 2}, -1),
                _mono(vs, {"x2": 1, "v": 3}),
            ],
        )
        witness = LinearForm((0, 0, 0, 0, 1))
    else:
        core = poly_sum(vs, [_mono(vs, t) for t in _PROP44_CORES[case]])
        witness = LinearForm((0, 0, 0, 1, 1))
    f = core + _tail(vs, ("u", "v"), 4, h, "h must be a binary quartic in u, v")
    return _instance(
        f, FamilySpec("prop44", {"case": case}, seed, _override_texts(h=h)), "prop44",
        hess_pattern=((1, True),),
        slp="fails",
        slp_fail_level=1,
        wlp="holds",
        wlp_witness=witness,
    )


# -- manifest replay ------------------------------------------------------------


def replay_manifest(inst: FamilyInstance, *, mode: str = "probabilistic") -> list[tuple[str, bool, str]]:
    """Re-verify every manifest claim through the analysis modules.

    Returns (claim, passed, detail) triples: first the structural claims, by
    `_structural_claims`, the checker generation runs (in exact mode a
    Hessian claim passes only on an exact verdict), then the Hilbert vector,
    unimodality, dim A_1, and the generic SLP report and WLP report (the
    latter unless a WLP witness stands for it).  Every certificate is
    replayed by `verify_zero_block` on supp(f), never trusted from the
    instance, so it holds for every form with support in supp(f) and
    h_k >= dims[k].  Every claim reads `inst.analysis` in `mode`
    (`Analysis.in_mode`), so the pieces generation computed are not
    computed again, each Hessian is decided once for both modes, and the
    SLP and WLP claims are decided in the same mode as the profile.
    """
    an = inst.analysis.in_mode(mode)
    man = inst.manifest
    results = list(_structural_claims(an, man))

    def generic(name: str, report: LefschetzReport, verdict: str, level: Optional[int]) -> None:
        ok = report.verdict == verdict and (level is None or report.level == level)
        results.append((name, ok, _decided(report)))

    if man.hilbert is not None:
        hv = an.hilbert()
        results.append(("hilbert", hv.dims == man.hilbert, f"{hv.dims} vs {man.hilbert}"))
    if man.unimodal is not None:
        results.append(("unimodal", is_unimodal(an.hilbert()) == man.unimodal, ""))
    if man.dim_a1 is not None:
        got = len(an.basis(1))
        results.append(("dim_a1", got == man.dim_a1, f"{got} vs {man.dim_a1}"))
    if man.slp is not None:
        generic("slp", slp_generic(an), man.slp, man.slp_fail_level)
    if man.wlp is not None and man.wlp_witness is None:
        generic("wlp", wlp_generic(an), man.wlp, man.wlp_fail_level)
    return results


def _decided(report: LefschetzReport) -> str:
    """A report's verdict, with the mode of the Hessian verdict behind it."""
    cert = report.certificate
    if isinstance(cert, VanishingVerdict):
        return f"{report.verdict} ({cert.mode})"
    return report.verdict


# -- the family table -----------------------------------------------------------


class Family(NamedTuple):
    """One family as `generate` and the CLI see it.

    `params` are the generator's parameter names, in its order; lower-cased
    they are the CLI flags.  `optional` gives the value passed for an absent
    optional parameter.  `tails`, for a family with tail overrides, maps the
    parameters to the variable set the override texts are parsed over and
    the override names allowed.
    """

    gen: Callable[..., FamilyInstance]
    params: tuple[str, ...]
    optional: Mapping[str, object]
    tails: Optional[Callable[[dict], tuple[VariableSet, set[str]]]]


FAMILIES: dict[str, Family] = {
    "ikeda": Family(gen_ikeda, (), {}, None),
    "exceptional": Family(gen_exceptional, ("n", "d", "k"), {}, lambda p: (_x_uv_vars(p["n"]), {"h", "p"})),
    "gnp": Family(gen_gnp, ("m", "n", "k", "e", "variant"), {"n": None, "variant": "lemma_m2"}, None),
    "perazzo": Family(gen_perazzo, ("m", "n", "d"), {}, lambda p: (
        _xu_vars(p["m"], p["n"]), {"h"} | {f"g{i}" for i in range(p["n"] + 1)})),
    "permutti": Family(gen_permutti, ("m", "n", "e", "d"), {}, lambda p: (
        _xu_vars(p["m"], p["n"]), {f"P{j}" for j in range(p["d"] // p["e"] + 1)})),
    "gn": Family(gen_gn, ("m", "n", "r", "e", "d"), {}, None),
    "wlpodd": Family(gen_wlpodd, ("N", "d"), {}, None),
    "thmwlp": Family(gen_thmwlp, ("N", "d"), {}, lambda p: (_x_uv_vars(p["N"]), {"g", "h"})),
    "prop44": Family(gen_prop44, ("case",), {}, lambda p: (_PROP44_VARS, {"h"})),
}


def generate(spec: FamilySpec) -> FamilyInstance:
    """Build the instance a FamilySpec describes, overrides included.

    Each override text is parsed over the family's variable set and passed
    to the generator under its recorded name, so `generate` rebuilds from a
    serialized spec the instance that produced it.  A missing required or an
    unknown parameter is an `InfeasibleParametersError` naming it.
    """
    family = FAMILIES.get(spec.kind)
    if family is None:
        raise InfeasibleParametersError(f"unknown family kind {spec.kind!r}")
    for name in family.params:
        if name not in spec.params and name not in family.optional:
            raise InfeasibleParametersError(f"{spec.kind} needs the parameter {name!r}")
    for name in spec.params:
        if name not in family.params:
            raise InfeasibleParametersError(f"{spec.kind} takes no parameter {name!r}")
    params = {**family.optional, **spec.params}
    return family.gen(**params, **_tail_overrides(spec, family, params), seed=spec.seed)


def _tail_overrides(spec: FamilySpec, family: Family, params: dict) -> dict:
    """The spec's override texts parsed over its family's variable set, as keywords."""
    if not spec.overrides:
        return {}
    vs, names = family.tails(params) if family.tails else (None, set())
    unknown = sorted(set(spec.overrides) - names)
    if unknown:
        raise InfeasibleParametersError(f"{spec.kind} takes no override named {unknown[0]!r}")
    over = {name: parse_poly(text, vs) for name, text in spec.overrides.items()}
    # indexed tails travel as one keyword: perazzo's g0..gn, permutti's P0..
    if spec.kind == "perazzo":
        gs = [over.pop(f"g{i}") for i in range(params["n"] + 1) if f"g{i}" in over]
        return {**over, "gs": gs or None}
    if spec.kind == "permutti":
        return {"Ps": {int(name[1:]): poly for name, poly in over.items()}}
    return over
