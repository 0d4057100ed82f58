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

Random sampling alone is never promoted to a failure verdict.  The
structural certificates are zero blocks (`ZeroBlock`) of a mixed Hessian's
pattern over the divisor monomials D_k x D_l, found by a maximum matching;
`verify_zero_block` replays one from supp(f) and the Hilbert vector alone,
so it holds for every form with support in supp(f) and h_k >= dims[k].
`divisor_monomials`, `zero_pattern`, `zero_block`, `key_criterion` and
`wlp_obstruction` are the compute bodies of `an.divisor_monomials(j)`,
`an.pattern(k, l)`, `an.block(k, l)`, `an.key(k)` and `an.obstruction(k)`;
called directly, they bypass the memo and `counts()`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .apolar import HilbertVector, _sub_exponents, first_dip, is_unimodal
from .errors import DegreeRangeError
from .polycore import Monomial, Poly, Record, Scalar, _coefficient, mono_mul

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


class ZeroBlock(Record):
    """Exponents of monomial operators, rows in D_k and columns in D_l (the degree-k and
    degree-l monomials that divide a term of f, which span A_k and A_l in characteristic 0),
    whose cells of the mixed Hessian of (k, l) over D_k x D_l, a matrix of the rank of the
    one over bases, are all zero.  So its rank is at most |D_k| + |D_l| - |rows| - |cols| at
    every point (Frobenius-Koenig); below h_k, hess^k vanishes (l = k) or no L makes
    A_k -> A_(k+1) injective (l = d-1-k; Maeno-Watanabe 2009), for every form with support
    in supp(f) and h_k >= dims[k], as the block reads supp(f) alone."""

    __slots__ = ("k", "l", "rows", "cols")

    def __init__(self, k: int, l: int, rows: tuple[Monomial, ...], cols: tuple[Monomial, ...]):
        Record.__init__(self, k, l, rows, cols)

    @property
    def size(self) -> int:
        return len(self.rows) + len(self.cols)

    def to_json_dict(self) -> dict:
        return {"type": "zero-block", "orders": [self.k, self.l], "rows": list(map(list, self.rows)),
                "cols": list(map(list, self.cols))}


def _codes(an: Analysis, expos: Sequence[Monomial]) -> list[int]:
    """Exponents as mixed-radix ints, radix d+1, so that they add without carry."""
    radix = an.f.degree + 1
    weights = [radix**i for i in range(len(an.f.vars))]
    return [sum(map(mul, e, weights)) for e in expos]


def _divisors(f: Poly, degree: int) -> set[Monomial]:
    """The degree-`degree` monomials that divide a term of f."""
    return {a for e in f.coeff_map() for a in _sub_exponents(e, degree)}


def divisor_monomials(an: Analysis, degree: int) -> tuple[Monomial, ...]:
    """D_degree, the degree-`degree` monomials that divide a term of f, in descending lex
    order (each greedy basis is the subsequence `ak_basis` keeps); the compute body of `an.divisor_monomials(degree)`."""
    return tuple(sorted(_divisors(an.f, degree), reverse=True))


def _pattern(rows: list[int], cols: list[int], layer: frozenset[int]) -> list[list[int]]:
    """For each coded row a, the positions of the coded columns b with a+b in
    `layer`: a lookup per column, or, when the layer is smaller, per layer
    element m (m-a among the columns); the 1722 x 1722 order 6 of wlpodd(8,13),
    layer 478, takes 0.12 s the second way and 0.38-0.54 s the first."""
    if len(layer) < len(cols):
        position = {c: j for j, c in enumerate(cols)}.get
        return [[j for m in layer if (j := position(m - a)) is not None] for a in rows]
    positions = list(range(len(cols)))
    return [list(compress(positions, map(layer.__contains__, map(a.__add__, cols)))) for a in rows]


def zero_pattern(an: Analysis, k: int, l: int) -> list[list[int]]:
    """For each row a in D_k, the positions of the columns b in D_l where x^(a+b) divides a term
    of f: in characteristic 0 the nonzero cells X^(a+b) f of the mixed Hessian of (k, l) over
    D_k x D_l (distinct terms give distinct monomials).  The compute body of `an.pattern(k, l)`."""
    rows, cols, layer = an.divisor_monomials(k), an.divisor_monomials(l), an.divisor_monomials(k + l)
    return _pattern(_codes(an, rows), _codes(an, cols), frozenset(_codes(an, layer)))


def zero_block(an: Analysis, k: int, l: int) -> ZeroBlock:
    """The zero block of the pattern of (k, l) left by a maximum matching, grown along shortest
    augmenting paths in phases (Hopcroft-Karp); the compute body of `an.block(k, l)`.  Once no
    alternating path from an unmatched row reaches an unmatched column, the rows such paths
    reach and the columns none of them meets form a zero block of size |D_k| + |D_l| - r, r the
    matching's size (Koenig), the same for every maximum matching."""
    pattern, rows, cols = an.pattern(k, l), an.divisor_monomials(k), an.divisor_monomials(l)
    col_of, row_of = [-1] * len(rows), [-1] * len(cols)
    while True:
        # each row's distance from an unmatched row along alternating paths
        queue = [r for r, c in enumerate(col_of) if c < 0]
        dist, free, open_ = [0 if c < 0 else -1 for c in col_of], len(queue), False
        for r in queue:  # grows as rows are reached
            for j in pattern[r]:
                mate = row_of[j]
                open_ |= mate < 0
                if mate >= 0 and dist[mate] < 0:
                    dist[mate] = dist[r] + 1
                    queue.append(mate)
        if not open_:
            break
        seen = bytearray(len(cols))
        for r in queue[:free]:
            _augment(pattern, col_of, row_of, dist, seen, r)
    met = {j for r in queue for j in pattern[r]}
    return ZeroBlock(k, l, tuple(rows[r] for r in sorted(queue)), tuple(b for j, b in enumerate(cols) if j not in met))


def _augment(pattern: list[list[int]], col_of: list[int], row_of: list[int],
             dist: list[int], seen: bytearray, root: int) -> None:
    """Flip into the matching a path from the unmatched row `root`, one layer
    deeper at each step, to an unmatched column, over columns not yet `seen`
    (each visit marks one), if there is one; a loop, not a recursion."""
    stack = [[root, iter(pattern[root]), -1]]  # row, its columns left, the column taken
    while stack:
        top = stack[-1]
        depth = dist[top[0]] + 1
        j = next((j for j in top[1] if not seen[j] and (row_of[j] < 0 or dist[row_of[j]] == depth)), -1)
        if j < 0:
            stack.pop()
            continue
        seen[j], top[2] = 1, j
        if row_of[j] < 0:
            for row, _, col in stack:
                col_of[row], row_of[col] = col, row
            return
        stack.append([row_of[j], iter(pattern[row_of[j]]), -1])


def _ceiling(an: Analysis, k: int, l: int) -> int:
    """|D_k| + |D_l| less the size of the zero block of (k, l): the pattern's structural rank."""
    return len(an.divisor_monomials(k)) + len(an.divisor_monomials(l)) - an.block(k, l).size


def key_criterion(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, k), if its ceiling is below h_k, which proves
    hess^k = 0; the compute body of `an.key(k)`."""
    top = an.f.degree // 2
    if not 1 <= k <= top:
        raise DegreeRangeError(f"k={k} out of range 1..{top}")
    return an.block(k, k) if _ceiling(an, k, k) < len(an.basis(k)) else None


def wlp_obstruction(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, d-1-k), k in 1..(d-1)/2, if its ceiling is below
    h_k: A_k -> A_(k+1) is then never injective.  The compute body of `an.obstruction(k)`."""
    l = an.f.degree - 1 - k
    if not 1 <= k <= l:
        return None
    return an.block(k, l) if _ceiling(an, k, l) < len(an.basis(k)) else None


def verify_zero_block(f: Poly, dims: Sequence[int], block: ZeroBlock) -> bool:
    """Replay a ZeroBlock on supp(f) and the Hilbert vector `dims` as the
    report states it, taking no derivative: the orders fit f's degree, the
    rows are distinct members of D_k and the columns of D_l, no row times
    column divides a term of f, and |D_k| + |D_l| - |rows| - |cols| < dims[k]."""
    k, l = block.k, block.l
    if min(k, l) < 0 or k + l > f.degree:
        return False
    ceiling = 0
    for expos, degree in ((block.rows, k), (block.cols, l)):
        divisors, chosen = _divisors(f, degree), set(map(tuple, expos))
        if len(chosen) < len(expos) or not chosen <= divisors:
            return False
        ceiling += len(divisors) - len(chosen)
    return ceiling < dims[k] and _divisors(f, k + l).isdisjoint(mono_mul(a, b) for a in block.rows for b in block.cols)


def __getattr__(name: str):
    """`mult_map`, which lives in `oracles`.  It resolves here only because
    `perfbench/tracer.py` still lists it under `lefschetz` in `TRACED`; no
    code of the package reads it from this module."""
    if name == "mult_map":
        from . import oracles

        return oracles.mult_map
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
