"""Multiplication maps and Strong/Weak Lefschetz decisions.

The rank of multiplication by L^(d-k-l): A_k -> A_(d-l) is the rank of the
mixed Hessian (a_i b_j (f)) evaluated at the coefficients of L, so every
multiplication rank is taken by `rank_at`, over the Hessians its form's
`Analysis` assembles once.  The Hessian's integer kernel
(`polycore.IntMatrix`, compiled once by the Analysis) ranks it at L scaled
to integers modulo the form's decision prime (`an.prime`), the one its
vanishing verdicts read; a maximal rank there is the rank over Q, and so
is one at the ceiling the map's zero block puts on it; only a rank below
both is taken again over Q.  The explicit multiplication matrix
(`oracles.mult_map`) is the independent reference for those ranks.  WLP is
decided on one map: in the Gorenstein algebra of f, L is a weak Lefschetz
element exactly when L: A_m -> A_(m+1), m = floor((d-1)/2), has maximal rank
(Migliore-Miro-Roig-Nagel, Trans. AMS 363 (2011), Prop. 2.1), the rank of
the mixed Hessian of (m, d-1-m) at L (Maeno-Watanabe, Illinois J. Math. 53
(2009)).  So a nonvanishing hess^m_f settles WLP at its witness point, and
likewise L is a strong Lefschetz element exactly when det hess^k_f(L) != 0
for every k (Maeno-Watanabe): the profile's witnesses, all taken at the
form's shared sample points (`an.point(t)`), are the SLP check, and
`rank_at` ranks no order at its own verdict's witness point.  Generic
verdicts combine witness searches (`_find_element`, over those points;
maximal rank is an open condition, so one success settles the generic
statement) with structural failure certificates that rule out every L at
once:

  * a vanishing middle Hessian in odd socle degree,
  * a zero block in the mixed Hessian of (k, d-1-k) too large for
    A_k -> A_(k+1) to be injective,
  * a non-unimodal Hilbert vector.

Random sampling alone is never promoted to a failure verdict.  Zero blocks
and their verifier live in `support`; `key_criterion` and `wlp_obstruction`
compare a block's ceiling with h_k, the compute bodies of `an.key(k)` and
`an.obstruction(k)`; called directly, they bypass the memo and `counts()`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .apolar import HilbertVector, first_dip, is_unimodal
from .errors import DegreeRangeError
from .polycore import Record, Scalar, _coefficient
from .support import ZeroBlock, _ceiling

if TYPE_CHECKING:
    from .analysis import Analysis

GENERIC_TRIALS = 12


class LinearForm(Record):
    """A degree-1 element a_0 X_0 + ... + a_N X_N, given by its coefficients,
    each kept as a `Fraction`; a float is refused, as a `Poly` refuses one."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = tuple(Fraction(_coefficient(c)) for c in coeffs)
        if not any(coeffs):
            raise ValueError("linear form must be nonzero")
        Record.__init__(self, coeffs)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class LevelCheck(Record):
    """One rank check `L^step : A_i -> A_{i+step}` against its maximum."""

    __slots__ = ("i", "step", "rank", "required")

    def __init__(self, i: int, step: int, rank: int, required: int):
        Record.__init__(self, i, step, rank, required)

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

    The Hessian's kernel, read from the Analysis, ranks it at the integer
    point cL; H(cL) = c^(d-k-l) H(L), so that does not change the rank,
    and neither does the kernel's own scale.  The rank is first taken
    modulo the form's decision prime (`an.prime`), the one its verdicts
    read; any prime would do, since reduction mod a prime can only lower
    the rank, so the rank over Q lies between that and the ceiling, the
    pattern's structural rank over D_k x D_l (`_ceiling`).  A rank mod p
    that is maximal, min(h_k, h_l), or at the ceiling (a never-injective
    map, say) is the rank over Q; any other is taken over Q by elimination
    and counted in `an.rational_ranks`.  A pure order (l = k) whose kept
    verdict has its witness at cL has full rank, h_k, there, unevaluated.
    """
    c = lcm(*(x.denominator for x in L.coeffs))
    point = tuple(int(x * c) for x in L.coeffs)
    if k == l and an.witnessed(k, point):
        return len(an.basis(k))
    kernel = an.kernel(k, l)
    r = kernel.rank_mod(point, an.prime)
    if r == min(len(kernel), kernel.ncols) or r == _ceiling(an, k, l):
        return r
    an.rational_ranks += 1
    return kernel.rank(point)


def slp_check_element(an: Analysis, L: LinearForm) -> tuple[bool, list[LevelCheck]]:
    """Is L a strong Lefschetz element?  Each order-k Hessian at L has full rank."""
    d = an.f.degree
    hv = an.hilbert()
    checks = [
        LevelCheck(k, d - 2 * k, rank_at(an, k, k, L), hv[k]) for k in range(d // 2 + 1)
    ]
    return all(c.maximal for c in checks), checks


def wlp_check_element(an: Analysis, L: LinearForm) -> tuple[bool, list[LevelCheck]]:
    """Is L a weak Lefschetz element?  Ranks `L : A_m -> A_(m+1)`, m =
    floor((d-1)/2), alone: in a Gorenstein algebra every consecutive map has
    maximal rank iff that one does (Migliore-Miro-Roig-Nagel 2011, Prop. 2.1);
    its rank is the mixed Hessian's of (m, d-1-m) at L (Maeno-Watanabe 2009)."""
    d = an.f.degree
    hv = an.hilbert()
    m = (d - 1) // 2
    check = LevelCheck(m, 1, rank_at(an, m, d - 1 - m, L), min(hv[m], hv[m + 1]))
    return check.maximal, [check]


class LefschetzReport(Record):
    """Verdict on a Lefschetz property, with replayable evidence: `property`
    is "SLP" or "WLP", and `verdict` "holds", "fails" or "undetermined"."""

    __slots__ = ("property", "verdict", "hilbert", "unimodal", "witness", "levels", "level", "map",
                 "required", "certificate")

    def __init__(
        self,
        property: str,
        verdict: str,
        hilbert: HilbertVector,
        unimodal: bool,
        witness: Optional[LinearForm] = None,
        levels: tuple[LevelCheck, ...] = (),
        level: Optional[int] = None,
        map: Optional[tuple[int, int]] = None,
        required: Optional[int] = None,
        certificate: Optional[object] = None,
    ):
        Record.__init__(self, property, verdict, hilbert, unimodal, witness, levels, level, map, required,
                        certificate)

    def to_json_dict(self) -> dict:
        cert = self.certificate
        optional = {
            "witness_coeffs": None if self.witness is None else self.witness.to_json(),
            "levels": [c.to_json_dict() for c in self.levels] or None,
            "level": self.level,
            "map": None if self.map is None else list(self.map),
            "required": self.required,
            "certificate": None if cert is None else (
                cert.to_json_dict() if hasattr(cert, "to_json_dict") else str(cert)),
        }
        return {"property": self.property, "verdict": self.verdict, "hilbert": list(self.hilbert.dims),
                "unimodal": self.unimodal, **{key: v for key, v in optional.items() if v is not None}}


def _find_element(an: Analysis, check: Callable) -> Optional[tuple[LinearForm, tuple[LevelCheck, ...]]]:
    """The first of the form's shared points `an.point(t)`, t < GENERIC_TRIALS,
    that `check` accepts, as a linear form, and its level checks; or None."""
    for t in range(GENERIC_TRIALS):
        L = LinearForm(an.point(t))
        ok, checks = check(an, L)
        if ok:
            return L, tuple(checks)
    return None


def slp_generic(an: Analysis) -> LefschetzReport:
    """Generic strong-Lefschetz verdict from the Hessian profile.

    Holds iff no Hessian vanishes identically (Maeno-Watanabe 2009); the
    witness is the first shared point at which every order has full rank
    (`_find_element`).  An order is not ranked at its own verdict's witness
    point (`rank_at`), so when every order is nonzero at point 0 that point
    is the witness, read off the profile with no evaluation.
    """
    hv = an.hilbert()
    uni = is_unimodal(hv)
    d = an.f.degree
    verdicts = [an.verdict(k) for k in range(d // 2 + 1)]
    for k, verdict in enumerate(verdicts):
        if verdict.vanishes:
            return _slp_fails(d, hv, k, verdict)
    found = _find_element(an, slp_check_element)
    if found is None:
        raise ArithmeticError("all Hessians are nonzero but no witness point was found; "
                              "this contradicts nonvanishing (bug)")
    return LefschetzReport("SLP", "holds", hv, uni, *found)


def _slp_fails(d: int, hv: HilbertVector, k: int, verdict: object) -> LefschetzReport:
    """SLP fails at order k: `verdict` says hess^k vanishes, so L^(d-2k) is
    bijective on A_k for no L."""
    return LefschetzReport("SLP", "fails", hv, is_unimodal(hv), level=k, map=(k, d - k),
                           required=hv[k], certificate=verdict)


def wlp_generic(an: Analysis) -> LefschetzReport:
    """Generic weak-Lefschetz verdict, decided on A_m -> A_(m+1), m = floor((d-1)/2).

    Failure needs structural evidence: a non-unimodal Hilbert vector, for
    odd d a vanishing hess^m, for even d a never-injective zero block.  A
    nonzero det hess^m_f(L) makes L^(d-2m) bijective on A_m, so the middle
    verdict's witness point is a weak Lefschetz element (`wlp_check_element`),
    every level at maximal rank, with nothing built or ranked.  Only even d
    with hess^m = 0 looks further: for a zero block at the first level
    1..m with h_k <= h_(k+1) (such a map forces hess^m = 0, so no level is
    missed), then for an element; none found leaves WLP undetermined.
    """
    hv = an.hilbert()
    dip = first_dip(hv)
    uni = dip is None
    d = an.f.degree
    m = (d - 1) // 2

    def fails(level: Optional[int], certificate: object,
              required: Optional[int] = None) -> LefschetzReport:
        """The map A_level -> A_{level+1} is not of maximal rank, by `certificate`."""
        map_ = (level, level + 1) if level is not None else None
        return LefschetzReport("WLP", "fails", hv, uni, level=level, map=map_,
                               required=required, certificate=certificate)

    if not uni:
        return fails(dip, f"non-unimodal Hilbert vector {hv.dims}")

    middle = an.verdict(m)
    if not middle.vanishes:
        witness = LinearForm(middle.witness_point)
    elif d % 2 == 1:
        return fails(m, middle, hv[m])
    else:
        for k in range(1, m + 1):
            cert = an.obstruction(k) if hv[k] <= hv[k + 1] else None
            if cert is not None:
                return fails(k, cert, hv[k])
        found = _find_element(an, wlp_check_element)
        if found is None:
            return LefschetzReport("WLP", "undetermined", hv, uni)
        witness = found[0]
    maximal = enumerate(map(min, hv.dims, hv.dims[1:]))
    return LefschetzReport("WLP", "holds", hv, uni, witness, tuple(LevelCheck(i, 1, r, r) for i, r in maximal))


# -- structural certificates --------------------------------------------------


def key_criterion(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, k), if its ceiling is below h_k, which proves
    hess^k = 0; the compute body of `an.key(k)`.  None, unread, at 2k = d:
    hess^k is then the Gram matrix of the perfect pairing A_k x A_k -> A_d."""
    top = an.f.degree // 2
    if not 1 <= k <= top:
        raise DegreeRangeError(f"k={k} out of range 1..{top}")
    return an.block(k, k) if 2 * k < an.f.degree and _ceiling(an, k, k) < len(an.basis(k)) else None


def wlp_obstruction(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, d-1-k), k in 1..(d-1)/2, if its ceiling is below
    h_k: A_k -> A_(k+1) is then never injective.  The compute body of `an.obstruction(k)`."""
    l = an.f.degree - 1 - k
    if not 1 <= k <= l:
        return None
    return an.block(k, l) if _ceiling(an, k, l) < len(an.basis(k)) else None


def __getattr__(name: str):
    """`mult_map`, which lives in `oracles`.  It resolves here only because
    `perfbench/tracer.py` still lists it under `lefschetz` in `TRACED`; no
    code of the package reads it from this module."""
    if name == "mult_map":
        from . import oracles

        return oracles.mult_map
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
