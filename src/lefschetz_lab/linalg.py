"""Exact linear algebra over the rationals and the integers, and modulo primes.

Dense rational routines (rank, determinant) run fraction-free on
integer rows after clearing denominators, so the bulk of the elimination is
big-integer arithmetic rather than Fraction normalization; the determinant
shares its integer Bareiss body with `det_int`.  `det_mod` and `rank_mod`
eliminate an integer matrix modulo a prime, with stdlib ints only: a nonzero
determinant mod p proves a nonzero integer determinant, and the rank mod p is
at most the rank over Q.  Sparse rational vectors — coefficient maps of
polynomials, keyed by monomial — are handled by `SparseSpan`, an
incremental reduction of primitive integer rows that recovers, on demand,
how a vector in the span combines the vectors added (for dependency
witnesses and for coordinates in a given basis).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Hashable, Optional, Sequence

Vec = dict  # sparse vector: hashable key -> Fraction


def _exq(a: int, b: int) -> int:
    """Exact integer quotient; the fraction-free recurrences guarantee b | a."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators.  Returns rows and scales."""
    out: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (denom // x.denominator) for x in row])
        scales.append(denom)
    return out, scales


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    if not rows or not rows[0]:
        return 0
    m, _ = _int_rows(rows)
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if all(x == 0 for x in m[i][col:]):
                continue
            for j in range(col + 1, ncols):
                m[i][j] = _exq(m[r][col] * m[i][j] - m[i][col] * m[r][j], prev)
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix (fraction-free)."""
    m, scales = _int_rows(rows)
    return Fraction(det_int(m), prod(scales))


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, by Bareiss elimination.

    Rows leave the active block as they become pivots; each remaining entry
    is then an exact minor quotient, so every division is exact.
    """
    _check_square(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    while m:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            return 0
        prow = m.pop(piv)
        if piv % 2:
            sign = -sign
        lead = prow[0]
        if not m:
            return sign * lead
        tail = prow[1:]
        m = [
            [_exq(lead * a - row[0] * b, prev) for a, b in zip(row[1:], tail)]
            for row in m
        ]
        prev = lead
    return 1


def det_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix modulo the prime p, in range(p)."""
    _check_square(rows)
    m = [[x % p for x in row] for row in rows]
    value = 1
    while m:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            return 0
        prow = m.pop(piv)
        if piv % 2:
            value = -value
        value = value * prow[0] % p
        m = _eliminate_mod(m, prow, p)
    return value % p


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix modulo the prime p."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    while m and m[0]:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            m = [row[1:] for row in m]
            continue
        m = _eliminate_mod(m, m.pop(piv), p)
        r += 1
    return r


def _eliminate_mod(m: list[list[int]], prow: list[int], p: int) -> list[list[int]]:
    """Clear the first column of `m` against the pivot row; drop that column."""
    inv = pow(prow[0], -1, p)
    tail = [x * inv % p for x in prow[1:]]
    out = []
    for row in m:
        c = row[0]
        out.append([(a - c * b) % p for a, b in zip(row[1:], tail)] if c else row[1:])
    return out


def _check_square(rows: Sequence[Sequence]) -> None:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")


class SparseSpan:
    """Incrementally built independent set of sparse rational vectors.

    Vectors are scaled to integers and reduced fraction-free against the
    stored rows, in order; a stored row is primitive, positive at its pivot
    (its largest key) and zero at the pivots of the rows before it.  The t-th
    successfully added vector has tag t; rejected vectors take none.
    `try_add` records no combinations: `dependency` recovers them by
    replaying the added vectors once, with their tags as extra coordinates.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[Hashable, dict]] = []
        self._added: list[tuple[dict, int]] = []  # as integers, with the scale
        # the rows again, keys as (0, key), with coordinates (1, tag) for their expansion
        self._tagged: list[tuple[Hashable, dict]] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivot_keys(self) -> list[Hashable]:
        return [p for p, _ in self._rows]

    def try_add(self, vec: Vec) -> bool:
        """Add `vec` if independent of the rows so far; return True if added."""
        ints, scale = _integral(vec)
        residual = _reduce(self._rows, ints)
        if not residual:
            return False
        pivot = max(residual)
        content = gcd(*residual.values()) * (1 if residual[pivot] > 0 else -1)
        self._rows.append((pivot, {k: v // content for k, v in residual.items()}))
        self._added.append((ints, scale))
        return True

    def dependency(self, vec: Vec) -> Optional[list[Fraction]]:
        """If `vec` is in the span, coefficients c with vec = sum c_t * added_t.

        Returns None when `vec` is independent.  Indices refer to the vectors
        that were successfully added, in addition order.
        """
        for t in range(len(self._tagged), len(self._rows)):
            row = {(0, k): v for k, v in self._added[t][0].items()}
            self._tagged.append(((0, self._rows[t][0]), _reduce(self._tagged, {**row, (1, t): 1})))
        ints, scale = _integral(vec)
        out = _reduce(self._tagged, {**{(0, k): v for k, v in ints.items()}, (1, -1): 1})
        if any(kind == 0 for kind, _ in out):
            return None
        # 0 = own * scale * vec + sum_t out[t] * scale_t * added_t
        own = out[1, -1]
        return [Fraction(-out.get((1, t), 0) * s, own * scale) for t, (_, s) in enumerate(self._added)]


def _integral(vec: Vec) -> tuple[dict, int]:
    """`vec` times the lcm of its denominators, zeros dropped, and that lcm."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items() if v}, scale


def _reduce(rows: Sequence[tuple[Hashable, dict]], vec: dict) -> dict:
    """Clear the integer vector `vec` at each row's pivot, rows in order: a step
    is vec <- a*vec - b*row, with a and b the pivot entries over their gcd,
    then divided by the content when a != 1."""
    vec = dict(vec)
    for pivot, row in rows:
        b = vec.get(pivot)
        if b is None:
            continue
        g = gcd(row[pivot], b)
        a, b = row[pivot] // g, b // g
        if a != 1:
            vec = {k: a * v for k, v in vec.items()}
        for key, val in row.items():
            nv = vec.get(key, 0) - b * val
            if nv:
                vec[key] = nv
            else:
                del vec[key]
        if a != 1 and (content := gcd(*vec.values())) > 1:
            vec = {k: v // content for k, v in vec.items()}
        if not vec:
            break
    return vec
