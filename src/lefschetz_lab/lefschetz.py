"""Multiplication maps and Strong/Weak Lefschetz decisions.

The rank of multiplication by L^(d-k-l): A_k -> A_(d-l) is the rank of the
mixed Hessian (a_i b_j (f)) evaluated at the coefficients of L, so every
multiplication rank is taken by `rank_at`, over the Hessians its form's
`Analysis` assembles once.  The Hessian is evaluated through its integer
kernel (`polycore.IntMatrix`, compiled once by the Analysis) at L scaled to
integers and ranked modulo 2^61-1; a maximal rank there is the rank over Q,
and only a smaller one is recomputed exactly.  The explicit multiplication
matrix (`mult_map`) is the independent reference for those ranks: it applies
L, k times, to each basis derivative and solves the result in the target
space, never reading a Hessian.  Specific elements are checked directly;
generic verdicts combine one witness search for both properties
(`_find_element`: given points, then seeded random forms; maximal rank is
an open condition, so one success settles the generic statement) with
structural failure certificates that rule out every L at once:

  * a vanishing middle Hessian in odd socle degree,
  * an overfull set of operators pushing f into the u-subring under every
    first-order multiplication (kernel forced in A_k -> A_{k+1}),
  * a non-unimodal Hilbert vector.

Random sampling alone is never promoted to a failure verdict.  The two
u-subring certificates (vanishing Hessian, never-injective map) come from one
scan over the form's memoized derivatives; their verifiers replay each claim
with `diff_apply` on f, independently of that scan, in one shared loop
(`_replays`) to which each adds its own per-operator claim and bound.
`_u_subring_ops`, `key_criterion` and `wlp_obstruction` are the compute
bodies of `an.u_subring(k)`, `an.key(k)` and `an.obstruction(k)`; called
directly, they bypass the memo and `counts()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import linalg
from .apolar import HilbertVector, first_dip, is_unimodal
from .errors import DegreeRangeError, NoSplitError
from .polycore import DiffOp, Monomial, Poly, Scalar, diff_apply, mono_basis

if TYPE_CHECKING:
    from .analysis import Analysis

GENERIC_TRIALS = 12
RANK_PRIME = 2**61 - 1


class LinearForm:
    """A degree-1 element a_0 X_0 + ... + a_N X_N, given by its coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        if not any(coeffs):
            raise ValueError("linear form must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearForm is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LinearForm:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"LinearForm(coeffs={self.coeffs!r})"

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Scalar]) -> "LinearForm":
        return cls(tuple(Fraction(c) for c in coeffs))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def mult_map(an: Analysis, L: LinearForm, i: int, k: int) -> list[list[Fraction]]:
    """Matrix of multiplication by L^k from the degree-i piece to degree i+k.

    Rows are indexed by the target basis, columns by the source basis (both
    the deterministic greedy bases), so the matrix has dim A_{i+k} rows and
    dim A_i columns.  Column s is L, as an operator, applied k times to the
    s-th basis derivative of A_i and solved against the span of the basis
    derivatives of A_{i+k}.  The Lefschetz checks take the same ranks from
    mixed Hessians (`rank_at`); this naive construction is their independent
    reference and is not used to decide anything.
    """
    d = an.f.degree
    if i < 0 or k < 0 or i + k > d:
        raise DegreeRangeError(f"map degrees ({i} -> {i + k}) out of range for d={d}")
    n = len(an.f.vars)
    if len(L.coeffs) != n:
        raise ValueError("linear form has the wrong number of coefficients")
    op = Poly(an.f.vars.dual(), {tuple(int(j == t) for j in range(n)): c for t, c in enumerate(L.coeffs)})
    target = an.basis(i + k)
    columns = []
    for e in an.basis(i).expos:
        g = an.derivatives[e]
        for _ in range(k):
            g = diff_apply(op, g)
        coords = target.span.dependency(g.coeff_map())
        if coords is None:
            raise ArithmeticError("derivative escaped the derivative space (bug)")
        q, nums = coords
        columns.append([Fraction(nums.get(t, 0), q) for t in range(len(target))])
    return [list(row) for row in zip(*columns)]


class LevelCheck(NamedTuple):
    """One rank check `L^step : A_i -> A_{i+step}` against its maximum."""

    i: int
    step: int
    rank: int
    required: int

    @property
    def maximal(self) -> bool:
        return self.rank == self.required

    def to_json_dict(self) -> dict:
        return {
            "map": [self.i, self.i + self.step],
            "rank": self.rank,
            "required": self.required,
        }


def rank_at(an: Analysis, k: int, l: int, L: LinearForm) -> int:
    """Rank of L^(d-k-l): A_k -> A_(d-l), from the mixed Hessian at L.

    The Hessian's kernel, read from the Analysis, has its rows scaled to
    integer coefficients, and L is scaled to the integer point cL;
    H(cL) = c^(d-k-l) H(L), so neither changes the rank.
    Reduction mod a prime can only lower the rank, so a maximal rank mod p
    is the rank over Q; any other rank is taken exactly and counted in the
    Analysis's `rational_ranks`.
    """
    c = lcm(*(x.denominator for x in L.coeffs))
    matrix = an.kernel(k, l).at(tuple(int(x * c) for x in L.coeffs))
    r = linalg.rank_mod(matrix, RANK_PRIME)
    if r == min(len(matrix), len(matrix[0])):
        return r
    an.rational_ranks += 1
    return linalg.rank(matrix)


def slp_check_element(an: Analysis, L: LinearForm) -> tuple[bool, list[LevelCheck]]:
    """Is L a strong Lefschetz element?  Each order-k Hessian at L has full rank."""
    d = an.f.degree
    hv = an.hilbert()
    checks = [
        LevelCheck(k, d - 2 * k, rank_at(an, k, k, L), hv[k]) for k in range(d // 2 + 1)
    ]
    return all(c.maximal for c in checks), checks


def wlp_check_element(an: Analysis, L: LinearForm) -> tuple[bool, list[LevelCheck]]:
    """Does every consecutive map `L : A_i -> A_{i+1}` have maximal rank?

    The map at level d-1-i has the transposed Hessian of the map at level i
    and, by Gorenstein symmetry, the same maximal rank, so only the levels
    i <= (d-1)/2 are ranked and the rest mirror them.
    """
    d = an.f.degree
    hv = an.hilbert()
    ranks = [rank_at(an, i, d - 1 - i, L) for i in range((d + 1) // 2)]
    checks = [
        LevelCheck(i, 1, ranks[min(i, d - 1 - i)], min(hv[i], hv[i + 1]))
        for i in range(d)
    ]
    return all(c.maximal for c in checks), checks


class LefschetzReport(NamedTuple):
    """Verdict on a Lefschetz property, with replayable evidence."""

    property: str  # "SLP" | "WLP"
    verdict: str  # "holds" | "fails" | "undetermined"
    hilbert: HilbertVector
    unimodal: bool
    witness: Optional[LinearForm] = None
    levels: tuple[LevelCheck, ...] = ()
    level: Optional[int] = None
    map: Optional[tuple[int, int]] = None
    required: Optional[int] = None
    certificate: Optional[object] = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "property": self.property,
            "verdict": self.verdict,
            "hilbert": list(self.hilbert.dims),
            "unimodal": self.unimodal,
        }
        if self.witness is not None:
            out["witness_coeffs"] = self.witness.to_json()
        if self.levels:
            out["levels"] = [c.to_json_dict() for c in self.levels]
        if self.level is not None:
            out["level"] = self.level
        if self.map is not None:
            out["map"] = list(self.map)
        if self.required is not None:
            out["required"] = self.required
        cert = self.certificate
        if cert is not None:
            out["certificate"] = (
                cert.to_json_dict() if hasattr(cert, "to_json_dict") else str(cert)
            )
        return out


def _random_linear_form(rng: random.Random, n: int, bound: int) -> LinearForm:
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(n)]
        if any(coeffs):
            return LinearForm.from_coeffs(coeffs)


def _find_element(an: Analysis, check: Callable, salt: str,
                  first: Sequence[Sequence[int]] = ()) -> Optional[tuple[LinearForm, tuple[LevelCheck, ...]]]:
    """The first element that `check` accepts and its level checks, or None.

    The points `first` come first, then GENERIC_TRIALS nonzero forms with
    coefficients in [-64(d+1), 64(d+1)], the t-th drawn from `salt:seed:t`.
    """
    n, bound = len(an.f.vars), 64 * (an.f.degree + 1)

    def candidates():
        yield from map(LinearForm.from_coeffs, first)
        for t in range(GENERIC_TRIALS):
            yield _random_linear_form(random.Random(f"{salt}:{an.seed}:{t}"), n, bound)

    for L in candidates():
        ok, checks = check(an, L)
        if ok:
            return L, tuple(checks)
    return None


def slp_generic(an: Analysis) -> LefschetzReport:
    """Generic strong-Lefschetz verdict from the Hessian profile.

    Holds iff no Hessian vanishes identically; the witness is found by
    testing the nonvanishing verdicts' witness points first and seeded
    random forms after them (`_find_element`).
    """
    hv = an.hilbert()
    uni = is_unimodal(hv)
    d = an.f.degree
    verdicts = [an.verdict(k) for k in range(d // 2 + 1)]
    for k, verdict in enumerate(verdicts):
        if verdict.vanishes:
            return LefschetzReport("SLP", "fails", hv, uni, level=k, map=(k, d - k),
                                   required=hv[k], certificate=verdict)
    points = [v.witness_point for v in verdicts if v.witness_point is not None]
    found = _find_element(an, slp_check_element, "slp", points)
    if found is None:
        raise ArithmeticError(
            "all Hessians are nonzero but no witness point was found; "
            "this contradicts nonvanishing (bug)"
        )
    return LefschetzReport("SLP", "holds", hv, uni, *found)


def wlp_generic(an: Analysis) -> LefschetzReport:
    """Generic weak-Lefschetz verdict.

    Failure is only ever declared on structural evidence (non-unimodal
    Hilbert vector, vanishing middle Hessian in odd degree, or an
    injectivity obstruction certificate); a random witness settles "holds";
    otherwise the verdict is undetermined.
    """
    f = an.f
    hv = an.hilbert()
    dip = first_dip(hv)
    uni = dip is None
    d = f.degree

    def fails(level: Optional[int], certificate: object,
              required: Optional[int] = None) -> LefschetzReport:
        """The map A_level -> A_{level+1} is not of maximal rank, by `certificate`."""
        map_ = (level, level + 1) if level is not None else None
        return LefschetzReport("WLP", "fails", hv, uni, level=level, map=map_,
                               required=required, certificate=certificate)

    if not uni:
        return fails(dip, f"non-unimodal Hilbert vector {hv.dims}")

    if d % 2 == 1:
        q = d // 2
        middle = an.verdict(q)
        if middle.vanishes:
            return fails(q, middle, hv[q])

    if f.vars.has_split:
        for k in range(1, (d + 1) // 2):
            if hv[k] > hv[k + 1]:
                continue  # non-injectivity would not contradict maximal rank
            cert = an.obstruction(k)
            if cert is not None:
                return fails(k, cert, hv[k])

    found = _find_element(an, wlp_check_element, "wlp")
    if found is None:
        return LefschetzReport("WLP", "undetermined", hv, uni)
    return LefschetzReport("WLP", "holds", hv, uni, *found)


# -- structural certificates --------------------------------------------------


class KeyCertificate(NamedTuple):
    """Witness that the order-k Hessian vanishes identically.

    `ops` are monomial operators outside the pure u-subring, independent
    modulo the annihilator, each sending f into the u-subring.  Since their
    Hessian rows are supported on the pure-u columns alone and there are more
    of them than that subring has monomials in degree k, the rows are
    dependent over the function field and the determinant is zero.
    """

    x_names: tuple[str, ...]
    u_names: tuple[str, ...]
    k: int
    ops: tuple[DiffOp, ...]
    bound: int  # dimension of the u-subring in degree k
    pivot_monos: tuple[tuple[int, ...], ...]  # independence proof

    @property
    def s(self) -> int:
        return len(self.ops)

    def to_json_dict(self) -> dict:
        return {
            "type": "u-subring-overflow",
            "x_block": list(self.x_names),
            "u_block": list(self.u_names),
            "k": self.k,
            "ops": [op.to_text() for op in self.ops],
            "s": self.s,
            "bound": self.bound,
            "pivot_monomials": [list(p) for p in self.pivot_monos],
        }


def _u_subring_ops(an: Analysis, k: int) -> tuple[list[DiffOp], int, list[Monomial]]:
    """Degree-k monomial operators sending f into the u-subring, kept greedily.

    In descending lex order, keep each operator whose derivative of f, read
    from the Analysis's memo, is nonzero, lies in the u-subring and is
    independent of those kept before.  The x-block comes first, so the kept
    operators with an x-factor, which the key certificate counts, are a
    prefix of those the obstruction counts; where 2k >= d there is no
    obstruction, and the scan stops there.  Returns the kept operators, how
    many have an x-factor, and the pivot keys of their derivatives' span.
    """
    dual = an.f.vars.dual()
    n_x = an.f.vars.n_x
    u_indices = set(an.f.vars.u_indices)
    span = linalg.SparseSpan()
    kept: list[DiffOp] = []
    with_x = 0
    for expo in mono_basis(dual, k):
        if 2 * k >= an.f.degree and not any(expo[:n_x]):
            break
        g = an.derivatives[expo]
        if g and g.supported_on(u_indices) and span.try_add(g.coeff_map()):
            kept.append(Poly.monomial(dual, expo))
            with_x += any(expo[:n_x])
    return kept, with_x, span.pivot_keys


def key_criterion(an: Analysis, k: int) -> Optional[KeyCertificate]:
    """Search for a u-subring overflow certificate for the order-k Hessian.

    Keeps a maximal independent set of the degree-k monomial operators with
    at least one x-factor that send f into the u-subring, and returns a
    certificate exactly when it outnumbers the degree-k monomials of the
    u-subring.  The compute body of `an.key(k)`, which keeps the result;
    call that instead.
    """
    vs = an.f.vars
    if not vs.has_split:
        raise NoSplitError("key criterion needs a declared x/u split")
    d = an.f.degree
    if not 1 <= k <= d // 2:
        raise DegreeRangeError(f"k={k} out of range 1..{d // 2}")
    bound = comb(len(vs) - vs.n_x + k - 1, k)
    kept, with_x, pivots = an.u_subring(k)
    if with_x <= bound:
        return None
    return KeyCertificate(vs.x_names, vs.u_names, k, tuple(kept[:with_x]), bound, tuple(pivots[:with_x]))


def _replays(f: Poly, cert: KeyCertificate | ObstructionCertificate,
             claim: Callable[[DiffOp, Poly, set[int]], bool]) -> bool:
    """The replay both certificate verifiers share: f's x/u split has the
    certificate's names, and each operator's derivative g of f is nonzero,
    meets `claim(op, g, u_indices)` and is independent of those before it."""
    vs = f.vars
    if not vs.has_split or vs.x_names != cert.x_names or vs.u_names != cert.u_names:
        return False
    u_indices = set(vs.u_indices)
    span = linalg.SparseSpan()
    for op in cert.ops:
        g = diff_apply(op, f)
        if g.is_zero() or not claim(op, g, u_indices) or not span.try_add(g.coeff_map()):
            return False
    return True


def verify_key_certificate(f: Poly, cert: KeyCertificate) -> bool:
    """Independently replay every claim a KeyCertificate makes: each operator
    is a monomial with an x-factor that sends f into the u-subring."""

    def claim(op: DiffOp, g: Poly, u_indices: set[int]) -> bool:
        expo = next(iter(op.coeff_map()))
        return op.num_terms() == 1 and any(expo[: f.vars.n_x]) and g.supported_on(u_indices)

    return _replays(f, cert, claim) and cert.s > cert.bound == comb(len(cert.u_names) + cert.k - 1, cert.k)


class ObstructionCertificate(NamedTuple):
    """Witness that `L : A_k -> A_{k+1}` is injective for no L at all.

    The listed operators are independent modulo the annihilator, and every
    first-order operator pushes each of their derivatives into the u-subring;
    since they outnumber the u-subring monomials of the image degree, each
    multiplication map has a kernel.
    """

    x_names: tuple[str, ...]
    u_names: tuple[str, ...]
    k: int
    ops: tuple[DiffOp, ...]
    bound: int  # dimension of the u-subring in degree deg(f)-k-1

    @property
    def s(self) -> int:
        return len(self.ops)

    def to_json_dict(self) -> dict:
        return {
            "type": "never-injective",
            "x_block": list(self.x_names),
            "u_block": list(self.u_names),
            "map": [self.k, self.k + 1],
            "ops": [op.to_text() for op in self.ops],
            "s": self.s,
            "bound": self.bound,
        }


def wlp_obstruction(an: Analysis, k: int) -> Optional[ObstructionCertificate]:
    """Search for a never-injective certificate at `A_k -> A_{k+1}`.

    Qualifying operators are the degree-k monomials whose derivative g of f
    is mapped into the u-subring by every first-order operator.  Since
    deg g = d-k >= 2, that holds exactly when g itself lies in the u-subring:
    a term with an x-factor keeps an x-factor under some first partial, and
    distinct monomials cannot cancel there.  So the search is the key
    criterion's, pure-u operators included.  Nothing is returned when
    deg(f) <= 2k (the image degree gives no room) or when the independent
    count stays within the bound.  The compute body of `an.obstruction(k)`,
    which keeps the result; call that instead.
    """
    vs = an.f.vars
    if not vs.has_split:
        raise NoSplitError("obstruction search needs a declared x/u split")
    d = an.f.degree
    if k < 1 or d - k <= k:
        return None
    image_degree = d - k - 1
    bound = comb(len(vs) - vs.n_x - 1 + image_degree, image_degree)
    kept, _, _ = an.u_subring(k)
    if len(kept) <= bound:
        return None
    return ObstructionCertificate(vs.x_names, vs.u_names, k, tuple(kept), bound)


def verify_obstruction_certificate(f: Poly, cert: ObstructionCertificate) -> bool:
    """Independently replay every claim an ObstructionCertificate makes: every
    first partial sends each operator's derivative of f into the u-subring."""
    dual = f.vars.dual()
    firsts = [Poly.variable(dual, i) for i in range(len(f.vars))]

    def claim(op: DiffOp, g: Poly, u_indices: set[int]) -> bool:
        return all(diff_apply(w, g).supported_on(u_indices) for w in firsts)

    image_degree = f.degree - cert.k - 1
    bound = comb(len(cert.u_names) - 1 + image_degree, image_degree)
    return _replays(f, cert, claim) and cert.s > cert.bound == bound
