"""What supp(f) decides: divisor monomials, zero patterns and zero blocks.

In characteristic 0, X^m f is nonzero exactly when x^m divides a term of f,
so the degree-j monomials that divide a term, D_j (`divisor_monomials`),
span A_j, and cell (a, b) of the mixed Hessian of (k, l) over D_k x D_l,
X^(a+b) f, is nonzero exactly when a+b lies in D_(k+l) (`zero_pattern`).
A zero block of that pattern (`ZeroBlock`), rows in D_k and columns in D_l,
bounds the Hessian's rank at every point by |D_k| + |D_l| - |rows| - |cols|
(Frobenius-Koenig).  The largest one is read off a maximum matching
(`zero_cover`, Hopcroft-Karp on a plain pattern), and a block whose bound
falls below h_k proves hess^k = 0 (l = k) or that no L makes
A_k -> A_(k+1) injective (l = d-1-k; Maeno-Watanabe, Illinois J. Math. 53
(2009)), for every form with support in supp(f) and h_k at least f's.
`verify_zero_block` replays one from supp(f) and the Hilbert vector alone.
Nothing here reads a derivative or a basis.  `divisor_monomials`,
`zero_pattern` and `zero_block` are the compute bodies of
`an.divisor_monomials(j)`, `an.pattern(k, l)` and `an.block(k, l)`; called
directly, they bypass the memo and `counts()`.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DegreeRangeError
from .polycore import Monomial, Poly, Record, mono_mul

if TYPE_CHECKING:
    from .analysis import Analysis


def _sub_exponents(e: Monomial, k: int) -> Iterator[Monomial]:
    """The exponents alpha <= e, entry by entry, of degree k (none unless 0 <= k <= deg(e)),
    in descending lex order, enumerated in a loop rather than by recursion.

    Each alpha fills its positions greedily, the largest values first; the
    next one lowers the last position that can give one unit to the
    positions after it (`tail[j]` is what positions j.. can hold) and fills
    those greedily again.
    """
    n = len(e)
    tail = [*accumulate(reversed(e))][::-1] + [0]
    if not 0 <= k <= tail[0]:
        return
    alpha = [0] * n
    start, left = 0, k
    while True:
        for j in range(start, n):
            alpha[j] = min(e[j], left)
            left -= alpha[j]
        yield tuple(alpha)
        left = alpha[-1]  # the units held after position j
        for j in range(n - 2, -1, -1):
            if alpha[j] and left < tail[j + 1]:
                alpha[j] -= 1
                start, left = j + 1, left + 1
                break
            left += alpha[j]
        else:
            return


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


def _require_orders(d: int, k: int, l: int) -> None:
    if k < 0 or l < 0 or k + l > d:
        raise DegreeRangeError(f"orders ({k}, {l}) out of range for d={d}")


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
    _require_orders(an.f.degree, k, l)
    rows, cols, layer = an.divisor_monomials(k), an.divisor_monomials(l), an.divisor_monomials(k + l)
    return _pattern(_codes(an, rows), _codes(an, cols), frozenset(_codes(an, layer)))


def zero_cover(pattern: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], list[int]]:
    """The rows and the columns, ascending positions, of a largest zero block of `pattern`, each
    row's nonzero columns among `ncols`: the complement of a Koenig cover.  A maximum matching is
    grown along shortest augmenting paths in phases (Hopcroft-Karp); the rows that alternating
    paths from its unmatched rows reach, and the columns none of them meets, are a zero block of
    size len(pattern) + ncols - r, r the matching's size (Koenig), the same for every one."""
    col_of, row_of = [-1] * len(pattern), [-1] * ncols
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
        seen = bytearray(ncols)
        for r in queue[:free]:
            _augment(pattern, col_of, row_of, dist, seen, r)
    met = {j for r in queue for j in pattern[r]}
    return sorted(queue), [j for j in range(ncols) if j not in met]


def zero_block(an: Analysis, k: int, l: int) -> ZeroBlock:
    """The zero block of (k, l) that `zero_cover` finds, as exponents; the compute body of `an.block(k, l)`."""
    pattern, rows, cols = an.pattern(k, l), an.divisor_monomials(k), an.divisor_monomials(l)
    block_rows, block_cols = zero_cover(pattern, len(cols))
    return ZeroBlock(k, l, tuple(rows[r] for r in block_rows), tuple(cols[j] for j in block_cols))


def _augment(pattern: Sequence[Sequence[int]], col_of: list[int], row_of: list[int],
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


def _ints(values: object, length: int) -> bool:
    """Whether `values` is a tuple or list of `length` ints (not bools)."""
    return isinstance(values, (tuple, list)) and len(values) == length and all(type(x) is int for x in values)


def verify_zero_block(f: Poly, dims: Sequence[int], block: ZeroBlock) -> bool:
    """Replay a ZeroBlock on supp(f) and the Hilbert vector `dims` as the report states it,
    taking no derivative: `dims` holds d+1 ints, the orders are ints that fit f's degree, the
    rows are distinct members of D_k and the columns of D_l, no row times column divides a term
    of f, and |D_k| + |D_l| - |rows| - |cols| < dims[k].  Input of any other shape gives False;
    nothing raises."""
    k, l, n, sides = block.k, block.l, len(f.vars), (block.rows, block.cols)
    entries = getattr(dims, "dims", dims)  # a HilbertVector's, or `dims` itself
    if not (_ints(entries, f.degree + 1) and _ints((k, l), 2) and min(k, l) >= 0 and k + l <= f.degree
            and all(isinstance(side, (tuple, list)) and all(_ints(e, n) for e in side) for side in sides)):
        return False
    ceiling = 0
    for expos, degree in zip(sides, (k, l)):
        divisors, chosen = _divisors(f, degree), set(map(tuple, expos))
        if len(chosen) < len(expos) or not chosen <= divisors:
            return False
        ceiling += len(divisors) - len(chosen)
    return ceiling < entries[k] and _divisors(f, k + l).isdisjoint(mono_mul(a, b) for a in block.rows for b in block.cols)
