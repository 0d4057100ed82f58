"""The routes over Q: fraction-free elimination of rational and integer
matrices, and of polynomial matrices over the rational function field.

The verdicts are decided by zero blocks, evaluation mod p and ranks mod p
(`hessian`, `lefschetz`, with `linalg`'s modular elimination), so these
routes run rarely: the integer determinant of a middle Hessian whose
residue is 0 (`IntMatrix.det`), a rank that `rank_at` must take over Q
(`IntMatrix.rank`), and, in exact mode only, the elimination of a Hessian
that evaluation found zero at point 0 (`Analysis.verdict`,
`_eliminated`, on the cells read back from the Hessian's kernel), which
gives a nonzero one its witness value.  Each of those callers imports this
module when it takes the route, so a command that never does loads none of
it.  With `linalg`, it holds one elimination body per ring: over Z it is
fraction-free (Bareiss) elimination in place, `_bareiss`: `rank` counts its
pivots on integer rows after clearing denominators, and `det_int` and `det`
take the last.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import hessian
from .linalg import _check_square
from .polycore import Monomial, Poly

if TYPE_CHECKING:
    from .analysis import Analysis
    from .polycore import IntMatrix


def _exq(a: int, b: int) -> int:
    """Exact integer quotient; the fraction-free recurrences guarantee b | a."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators.  Returns rows and scales."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)], scales


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    m, _ = _int_rows(rows)
    return sum(1 for pivot in _bareiss(m) if pivot)


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix (fraction-free)."""
    m, scales = _int_rows(rows)
    return Fraction(det_int(m), prod(scales))


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, by Bareiss elimination."""
    _check_square(rows)
    value = 1
    for value in _bareiss([list(row) for row in rows]):
        if not value:
            return 0
    return value


def _bareiss(m: list[list[int]]) -> Iterator[int]:
    """Fraction-free elimination of the integer rows `m`, in place.

    Yields, column by column until the rows run out, 0 for a column without
    a pivot, else the pivot times the sign of the row swaps so far.  Each
    entry below the pivots is an exact minor quotient, so every division is
    exact, and the last value of a square matrix is its determinant.  Rows
    that are zero from the pivot column on are left as they are.
    """
    if not m or not m[0]:
        return
    nrows, ncols = len(m), len(m[0])
    r, prev, sign = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            yield 0
            continue
        if piv != r:
            m[r], m[piv], sign = m[piv], m[r], -sign
        lead, tail = m[r][col], m[r][col + 1 :]
        yield sign * lead
        for row in m[r + 1 :]:
            c = row[col]
            if c or any(row[col + 1 :]):
                row[col + 1 :] = [_exq(lead * a - c * b, prev) for a, b in zip(row[col + 1 :], tail)]
                row[col] = 0
        prev = lead
        r += 1
        if r == nrows:
            break


def _eliminated(an: Analysis, kernel: IntMatrix) -> hessian.VanishingVerdict:
    """The exact verdict, by elimination of its polynomial cells, on a
    Hessian `kernel` of `an`'s form, which evaluation found zero mod p at
    point 0; exact mode's replacement for the probabilistic verdict."""
    vanishes, transcript, _ = poly_det_vanishes(kernel.cells())
    if vanishes:
        import hashlib  # OpenSSL: paid only by the runs that eliminate

        digest = hashlib.sha256("\n".join(transcript).encode()).hexdigest()
        return hessian.VanishingVerdict(True, transcript_hash=digest)
    # nonzero, yet zero mod p at point 0: the witness is the first shared
    # point after it at which the kernel's determinant is nonzero
    t = 1
    while not (value := kernel.det(point := an.point(t))):
        t += 1
    return hessian.VanishingVerdict(False, witness_point=point, det_value=value)


def poly_det_vanishes(
    entries: Sequence[Sequence[Poly]],
) -> tuple[bool, list[str], Optional[Poly]]:
    """Fraction-free determinant of a polynomial matrix.

    Returns (vanishes, transcript, determinant); the determinant is only
    materialized when it is nonzero.  Pivots are chosen with fewest terms to
    limit fill-in, and any all-zero active row or column ends the elimination
    immediately with a zero determinant.
    """
    n = len(entries)
    m = [[e for e in row] for row in entries]
    vars = m[0][0].vars
    transcript: list[str] = [f"size={n}"]
    sign = 1
    prev: Optional[Poly] = None
    for step in range(n):
        active = range(step, n)
        for i in active:
            if all(m[i][j].is_zero() for j in active):
                transcript.append(f"zero-row@{step}:{i}")
                return True, transcript, None
        for j in active:
            if all(m[i][j].is_zero() for i in active):
                transcript.append(f"zero-col@{step}:{j}")
                return True, transcript, None
        pi, pj = min(
            (
                (i, j)
                for i in active
                for j in active
                if not m[i][j].is_zero()
            ),
            key=lambda ij: (m[ij[0]][ij[1]].num_terms(), ij),
        )
        if pi != step:
            m[step], m[pi] = m[pi], m[step]
            sign = -sign
        if pj != step:
            for row in m:
                row[step], row[pj] = row[pj], row[step]
            sign = -sign
        pivot = m[step][step]
        transcript.append(f"pivot@{step}:{pivot.to_text()}")
        for i in range(step + 1, n):
            for j in range(step + 1, n):
                num = pivot * m[i][j] - m[i][step] * m[step][j]
                m[i][j] = num if prev is None else poly_divexact(num, prev)
            m[i][step] = Poly.zero(vars)
        prev = pivot
    det = m[n - 1][n - 1]
    if sign < 0:
        det = -det
    transcript.append(f"det:{det.to_text()}")
    return det.is_zero(), transcript, det


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Quotient a/b when the division is known to be exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    b_terms = b.coeff_map()
    lt_b = max(b_terms)
    cb = b_terms[lt_b]
    rem = a.coeff_map()
    quo: dict[Monomial, Fraction] = {}
    while rem:
        lt_r = max(rem)
        expo = tuple(r - s for r, s in zip(lt_r, lt_b))
        if any(e < 0 for e in expo):
            raise ArithmeticError("polynomial division was not exact")
        c = Fraction(rem[lt_r], cb)
        quo[expo] = quo.get(expo, Fraction(0)) + c
        for eb, vb in b_terms.items():
            e = tuple(x + y for x, y in zip(expo, eb))
            nv = rem.get(e, Fraction(0)) - c * vb
            if nv:
                rem[e] = nv
            else:
                rem.pop(e, None)
    return Poly(a.vars, quo)
