"""Exact linear algebra over the rationals and the integers, and modulo primes.

Dense rational routines (rank, determinant, kernel) run fraction-free on
integer rows after clearing denominators, so the bulk of the elimination is
big-integer arithmetic rather than Fraction normalization; the determinant
shares its integer Bareiss body with `det_int`.  `det_mod` and `rank_mod`
eliminate an integer matrix modulo a prime, with stdlib ints only: a nonzero
determinant mod p proves a nonzero integer determinant, and the rank mod p is
at most the rank over Q.  Sparse vectors — coefficient
maps of polynomials, keyed by monomial — are handled by `SparseSpan`, an
incremental row-reduction structure that also tracks how each reduced row was
combined from the original inputs (needed for dependency witnesses and for
expressing a vector in a given basis).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
        fr = [Fraction(x) for x in row]
        denom = 1
        for x in fr:
            denom = lcm(denom, x.denominator)
        out.append([int(x * denom) for x in fr])
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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column of the RREF."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][free]
        basis.append(vec)
    return basis


class SparseSpan:
    """Incrementally built independent set of sparse vectors.

    Stored rows are kept reduced against each other with the lexicographically
    largest key as pivot, which makes membership tests and coordinate
    extraction cheap.  Each stored row remembers its expansion in terms of the
    vectors that were added, so dependencies come with explicit witnesses.
    The t-th successfully added vector has tag t; rejected vectors take none.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[Hashable, Vec, dict[int, Fraction]]] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivot_keys(self) -> list[Hashable]:
        return [p for p, _, _ in self._rows]

    def _reduce(self, vec: Vec) -> tuple[Vec, dict[int, Fraction]]:
        vec = dict(vec)
        combo: dict[int, Fraction] = {}
        for pivot, row, rcombo in self._rows:
            c = vec.get(pivot)
            if not c:
                continue
            for key, val in row.items():
                nv = vec.get(key, Fraction(0)) - c * val
                if nv:
                    vec[key] = nv
                else:
                    vec.pop(key, None)
            for tag, val in rcombo.items():
                nv = combo.get(tag, Fraction(0)) - c * val
                if nv:
                    combo[tag] = nv
                else:
                    combo.pop(tag, None)
        return vec, combo

    def try_add(self, vec: Vec) -> bool:
        """Add `vec` if independent of the rows so far; return True if added."""
        residual, combo = self._reduce(vec)
        if not residual:
            return False
        combo[len(self._rows)] = Fraction(1)
        pivot = max(residual)
        inv = 1 / residual[pivot]
        residual = {k: v * inv for k, v in residual.items()}
        combo = {k: v * inv for k, v in combo.items()}
        self._rows.append((pivot, residual, combo))
        return True

    def dependency(self, vec: Vec) -> Optional[list[Fraction]]:
        """If `vec` is in the span, coefficients c with vec = sum c_t * added_t.

        Returns None when `vec` is independent.  Indices refer to the vectors
        that were successfully added, in addition order.
        """
        residual, combo = self._reduce(vec)
        if residual:
            return None
        out = [Fraction(0)] * len(self._rows)
        for tag, val in combo.items():
            out[tag] = -val
        return out
