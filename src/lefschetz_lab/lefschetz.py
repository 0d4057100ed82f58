"""Multiplication maps and Strong/Weak Lefschetz decisions.

The rank of multiplication by L^(d-k-l): A_k -> A_(d-l) is the rank of the
mixed Hessian (a_i b_j (f)) evaluated at the coefficients of L, so every
multiplication rank is taken by `rank_at`, over the Hessians its form's
`Analysis` assembles once.  The Hessian is evaluated through its integer
kernel (`polycore.IntMatrix`, compiled once by the Analysis) at L scaled to
integers and ranked modulo 2^61-1; a maximal rank there is the rank over Q,
and so is one at the ceiling the map's zero block puts on it; only a rank
below both is recomputed exactly.  The
explicit multiplication matrix (`mult_map`) is the independent reference for
those ranks: it applies L, k times, to each basis derivative and solves the
result in the target space, never reading a Hessian.  WLP is decided on one
map: in the Gorenstein algebra of f, L is a weak Lefschetz element exactly
when L: A_m -> A_(m+1), m = floor((d-1)/2), has maximal rank
(Migliore-Miro-Roig-Nagel, Trans. AMS 363 (2011), Prop. 2.1), the rank of
the mixed Hessian of (m, d-1-m) at L (Maeno-Watanabe, Illinois J. Math. 53
(2009)).  So a nonvanishing hess^m_f settles WLP at its witness point.
Generic verdicts combine witness searches (`_find_element`: given points,
then seeded random forms; maximal rank is an open condition, so one success
settles the generic statement) with structural failure certificates that
rule out every L at once:

  * a vanishing middle Hessian in odd socle degree,
  * a zero block in the mixed Hessian of (k, d-1-k) too large for
    A_k -> A_(k+1) to be injective,
  * a non-unimodal Hilbert vector.

Random sampling alone is never promoted to a failure verdict.  The
structural certificates are zero blocks (`ZeroBlock`), read off supp(f) for
any form by a maximum matching of a Hessian's zero pattern, and replayed by
`verify_zero_block` with `diff_apply` on f.  `divisor_codes`,
`zero_pattern`, `zero_block`, `key_criterion` and `wlp_obstruction` are the
compute bodies of `an.divisors(j)`, `an.pattern(k, l)`, `an.block(k, l)`,
`an.key(k)` and `an.obstruction(k)`; called directly, they bypass the memo
and `counts()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import linalg
from .apolar import HilbertVector, _sub_exponents, first_dip, is_unimodal
from .errors import DegreeRangeError
from .polycore import Monomial, Poly, Record, Scalar, diff_apply, mono_mul

if TYPE_CHECKING:
    from .analysis import Analysis

GENERIC_TRIALS = 12
RANK_PRIME = 2**61 - 1


class LinearForm(Record):
    """A degree-1 element a_0 X_0 + ... + a_N X_N, given by its coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        if not any(coeffs):
            raise ValueError("linear form must be nonzero")
        Record.__init__(self, coeffs)

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
    H(cL) = c^(d-k-l) H(L), so neither changes the rank.  The rank is first
    taken modulo RANK_PRIME; reduction mod a prime can only lower it, so the
    rank over Q lies between that and the structural rank of the pattern of
    (k, l), h_k + h_l less the size of its zero block, which bounds it at
    every point.  A rank mod p that is maximal, min(h_k, h_l), or at that
    ceiling (a never-injective map, say) is the rank over Q; any other is
    taken over Q by elimination and counted in the Analysis's
    `rational_ranks`.
    """
    c = lcm(*(x.denominator for x in L.coeffs))
    matrix = an.kernel(k, l).at(tuple(int(x * c) for x in L.coeffs))
    h_k, h_l = len(matrix), len(matrix[0])
    r = linalg.rank_mod(matrix, RANK_PRIME)
    if r == min(h_k, h_l) or r == h_k + h_l - an.block(k, l).size:
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
    """Is L a weak Lefschetz element?  Ranks `L : A_m -> A_(m+1)`, m =
    floor((d-1)/2), alone: in a Gorenstein algebra every consecutive map has
    maximal rank iff that one does (Migliore-Miro-Roig-Nagel 2011, Prop. 2.1);
    its rank is the mixed Hessian's of (m, d-1-m) at L (Maeno-Watanabe 2009)."""
    d = an.f.degree
    hv = an.hilbert()
    m = (d - 1) // 2
    check = LevelCheck(m, 1, rank_at(an, m, d - 1 - m, L), min(hv[m], hv[m + 1]))
    return check.maximal, [check]


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
    drawn = (_random_linear_form(random.Random(f"{salt}:{an.seed}:{t}"), n, bound) for t in range(GENERIC_TRIALS))
    for L in chain(map(LinearForm.from_coeffs, first), drawn):
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
            return _slp_fails(d, hv, k, verdict)
    points = [v.witness_point for v in verdicts if v.witness_point is not None]
    found = _find_element(an, slp_check_element, "slp", points)
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
        witness = LinearForm.from_coeffs(middle.witness_point)
    elif d % 2 == 1:
        return fails(m, middle, hv[m])
    else:
        for k in range(1, m + 1):
            cert = an.obstruction(k) if hv[k] <= hv[k + 1] else None
            if cert is not None:
                return fails(k, cert, hv[k])
        found = _find_element(an, wlp_check_element, "wlp")
        if found is None:
            return LefschetzReport("WLP", "undetermined", hv, uni)
        witness = found[0]
    maximal = enumerate(map(min, hv.dims, hv.dims[1:]))
    return LefschetzReport("WLP", "holds", hv, uni, witness, tuple(LevelCheck(i, 1, r, r) for i, r in maximal))


# -- structural certificates --------------------------------------------------


class ZeroBlock(NamedTuple):
    """Exponents of monomial operators, rows independent in A_k and columns
    in A_l, whose cells of the mixed Hessian of (k, l) are all zero.  Over
    bases that extend them, the rank at every point is at most
    h_k + h_l - |rows| - |cols| (Frobenius-Koenig): below h_k once they
    number more than h_l, so hess^k vanishes (l = k) or no L makes
    A_k -> A_(k+1) injective (l = d-1-k; Maeno-Watanabe 2009).  Below the
    middle the columns are drawn from the degree-l divisors of terms of f,
    D_l, which span A_l: the bound is then h_k + |D_l| - |rows| - |cols|."""

    k: int
    l: int
    rows: tuple[Monomial, ...]
    cols: tuple[Monomial, ...]

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


def divisor_codes(an: Analysis, degree: int) -> frozenset[int]:
    """The codes of the degree-`degree` monomials that divide a term of f;
    the compute body of `an.divisors(degree)`."""
    return frozenset(_codes(an, list(_divisors(an.f, degree))))


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
    """For each row a of the mixed Hessian of (k, l), the columns b where
    x^(a+b) divides a term of f: in characteristic 0 the cells X^(a+b) f that
    are not zero (distinct terms give distinct monomials).  The compute body
    of `an.pattern(k, l)`."""
    return _pattern(_codes(an, an.basis(k).expos), _codes(an, an.basis(l).expos), an.divisors(k + l))


def zero_block(an: Analysis, k: int, l: int) -> ZeroBlock:
    """The zero block of the pattern of (k, l); the compute body of `an.block(k, l)`."""
    return _matched_block(k, l, an.pattern(k, l), an.basis(k).expos, an.basis(l).expos)


def _matched_block(k: int, l: int, pattern: list[list[int]], rows: Sequence[Monomial],
                   cols: Sequence[Monomial]) -> ZeroBlock:
    """The zero block of `pattern` left by a maximum matching, grown along
    shortest augmenting paths in phases (Hopcroft-Karp).  Once no
    alternating path from an unmatched row reaches an unmatched column, the
    rows such paths reach and the columns none of them meets form a zero
    block of size |rows| + |cols| - r, r the matching's size (Koenig), the
    same for every maximum matching."""
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


def key_criterion(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, k), if it proves hess^k = 0; the compute body
    of `an.key(k)`."""
    top = an.f.degree // 2
    if not 1 <= k <= top:
        raise DegreeRangeError(f"k={k} out of range 1..{top}")
    block = an.block(k, k)
    return block if block.size > len(an.basis(k)) else None


def wlp_obstruction(an: Analysis, k: int) -> Optional[ZeroBlock]:
    """The zero block of (k, d-1-k), if it proves A_k -> A_(k+1) never
    injective, for k in 1..(d-1)/2; the compute body of `an.obstruction(k)`.
    Below the middle, where no basis of A_(d-1-k) is built, the columns are
    all the degree-(d-1-k) divisors of terms of f, which span it."""
    d = an.f.degree
    l = d - 1 - k
    if not 1 <= k <= l:
        return None
    if 2 * l <= d:
        block, bound = an.block(k, l), len(an.basis(l))
    else:
        rows, cols = an.basis(k).expos, sorted(_divisors(an.f, l))
        pattern = _pattern(_codes(an, rows), _codes(an, cols), an.divisors(d - 1))
        block, bound = _matched_block(k, l, pattern, rows, cols), len(cols)
    return block if block.size > bound else None


def verify_zero_block(f: Poly, dims: Sequence[int], block: ZeroBlock) -> bool:
    """Replay a ZeroBlock on f and the Hilbert vector `dims` as the report
    states it, independently of the pattern: the rows are exponents of
    independent monomial operators of degree k (applied to f by
    `diff_apply`), the columns distinct degree-l divisors of terms of f, no
    row times column divides a term, and there are more than h_l of them
    and, unless more than all those divisors, the columns are independent."""
    k, l, n, dual = block.k, block.l, len(f.vars), f.vars.dual()
    if min(k, l) < 0 or k + l > f.degree or block.size <= dims[l]:
        return False
    layer, cols = _divisors(f, l), set(map(tuple, block.cols))
    if len(cols) < len(block.cols) or not cols <= layer:
        return False
    for expos, degree in ((block.rows, k), (block.cols if block.size <= len(layer) else (), l)):
        span = linalg.SparseSpan()
        for e in expos:
            if len(e) != n or not all(type(x) is int and x >= 0 for x in e) or sum(e) != degree:
                return False
            g = diff_apply(Poly.monomial(dual, tuple(e)), f)
            if g.is_zero() or not span.try_add(g.coeff_map()):
                return False
    divisors = _divisors(f, k + l)
    return not any(mono_mul(a, b) in divisors for a in block.rows for b in block.cols)
