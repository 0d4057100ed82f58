"""Linear algebra modulo primes, and sparse spans over the rationals.

Each ring has one elimination body, which yields one pivot per column; this
module holds the one modulo a prime, and `exact` the one over Z, which
loads on first use.  Modulo a prime p it is Gaussian elimination on packed
rows, each one int: `rank_mod` counts the pivots and `det_mod` multiplies
them; a nonzero determinant mod p proves a nonzero integer determinant, and
the rank mod p is at most the rank over Q.  Sparse rational vectors
(coefficient maps of polynomials, keyed by monomial) are held by
`SparseSpan`, an incremental reduction of primitive integer rows that
recovers how a vector in the span combines the vectors added, as integers
over one denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Hashable, Iterator, Optional, Sequence

Vec = dict  # sparse vector: hashable key -> Fraction


def det_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix modulo the prime p, in range(p)."""
    _check_square(rows)
    value = 1
    for pivot in _pivots_mod(rows, p):
        if not pivot:
            return 0
        value = value * pivot % p
    return value


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix modulo the prime p."""
    return sum(1 for pivot in _pivots_mod(rows, p) if pivot)


def _pivots_mod(rows: Sequence[Sequence[int]], p: int) -> Iterator[int]:
    """Gaussian elimination of an integer matrix modulo the prime p.

    Yields, column by column until the rows run out, 0 for a column without
    a pivot, else the pivot in range(p), negated when its row moves past an
    odd number of rows.  Rows are ints of w-byte slots, column 0 highest; the
    pivot row leaves, and a row whose leading slot is nonzero drops it and
    adds its residue times the pivot row's negated, normalized tail.  Slots
    are never reduced: a step adds less than p^2 to each, so none carries."""
    ncols = len(rows[0]) if rows else 0
    w = (2 * p.bit_length() + max(len(rows), ncols).bit_length() + 8) // 8
    zero = bytes(w)
    m = [int.from_bytes(b"".join((x % p).to_bytes(w, "big") if x else zero for x in row), "big") for row in rows]
    for left in range(ncols - 1, -1, -1):  # the columns after this one
        shift = 8 * w * left
        low = (1 << shift) - 1
        piv = next((i for i, x in enumerate(m) if (x >> shift) % p), None)
        if piv is None:
            yield 0
            m = [x & low for x in m]
            continue
        row = m.pop(piv)
        lead, tail = (row >> shift) % p, (row & low).to_bytes(w * left, "big")
        yield p - lead if piv % 2 else lead
        if not m:
            return
        inv = p - pow(lead, -1, p)
        neg = int.from_bytes(b"".join(
            zero if (t := tail[j : j + w]) == zero else (int.from_bytes(t, "big") * inv % p).to_bytes(w, "big")
            for j in range(0, len(tail), w)), "big")
        m = [x if x <= low else (x & low) + (x >> shift) % p * neg for x in m]


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

    def dependency(self, vec: Vec) -> Optional[tuple[int, dict[int, int]]]:
        """If `vec` is in the span, integers (q, {t: n_t}) with
        vec = sum_t (n_t / q) * added_t over the nonzero n_t, q > 0 and
        gcd(q, n_t...) = 1; None when `vec` is independent.  Tags t count
        the vectors that were successfully added, in addition order.
        """
        for t in range(len(self._tagged), len(self._rows)):
            row = {(0, k): v for k, v in self._added[t][0].items()}
            self._tagged.append(((0, self._rows[t][0]), _reduce(self._tagged, {**row, (1, t): 1})))
        ints, scale = _integral(vec)
        out = _reduce(self._tagged, {**{(0, k): v for k, v in ints.items()}, (1, -1): 1})
        if any(kind == 0 for kind, _ in out):
            return None
        # 0 = own * scale * vec + sum_t out[t] * scale_t * added_t
        q = out.pop((1, -1)) * scale
        nums = {t: -v * self._added[t][1] for (_, t), v in out.items()}
        g = gcd(q, *nums.values()) * (1 if q > 0 else -1)
        return q // g, {t: n // g for t, n in nums.items()}


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


def __getattr__(name: str):
    """`rank` and `det`, which live in `exact`.  They resolve here only
    because `perfbench/tracer.py` still lists them under `linalg` in
    `TRACED`; no code of the package reads them from this module."""
    if name in ("rank", "det"):
        from . import exact

        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
