"""Catalecticant matrices, graded bases, Hilbert vectors.

The graded quotient A = (operator ring)/Ann(f) is represented throughout by
its derivative spaces: degree-k operators are identified with the polynomials
they produce from f, so dim A_k is the size of a greedy basis of the degree-k
derivatives and multiplication never needs quotient-ring arithmetic.  The
greedy monomials form an order ideal, so each basis grows from the one below
it and no degree is scanned in full.  The explicit catalecticant matrix,
whose rank (`linalg.rank`) is the same number, is kept as API and as an
independent reference; it is filled from f's coefficients, entry (beta,
alpha) being c_(alpha+beta) * prod_i perm(e_i, alpha_i) with e = alpha +
beta, and differentiates nothing.  The basis (`ak_basis`) and the facts
read off the bases (the Hilbert vector here, the cone test in `hessian`)
take the form's `Analysis`, which computes each basis once and holds the
derivatives they read.  `ak_basis` and `hilbert_vector` are the compute
bodies of `an.basis(k)` and `an.hilbert()`; called directly, they bypass
the memo and `counts()`.  Unimodality is the absence of a dip
(`first_dip`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import perm, prod
from operator import sub
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import linalg
from .errors import DegreeRangeError, ZeroPolynomialError
from .polycore import Monomial, Poly, Record, mono_basis

if TYPE_CHECKING:
    from .analysis import Analysis


class AkBasis(Record):
    """The greedy monomial basis of A_k and the span of its derivatives.

    `expos[i]` is the exponent of the i-th basis element, the monic monomial
    operator X^expos[i]; that operator applied to f is
    `an.derivatives[expos[i]]`.  These derivatives are linearly independent
    and their number is dim A_k.  `candidates` counts the monomial operators
    whose derivatives were reduced to find the basis.  `span`, whose t-th
    vector is the derivative of `expos[t]`, selected the basis; coordinates
    in the basis (a cone's witness, the columns of an explicit
    multiplication matrix) are solved against it.  Equality, hash and repr
    leave `span` out (`_fields`); a copy or pickle carries it.
    """

    __slots__ = ("k", "expos", "candidates", "span")
    _fields = ("k", "expos", "candidates")

    def __init__(self, k: int, expos: tuple[Monomial, ...], candidates: int, span: linalg.SparseSpan):
        Record.__init__(self, k, expos, candidates, span)

    def __len__(self) -> int:
        return len(self.expos)


def catalecticant(f: Poly, k: int) -> list[list[Fraction]]:
    """Explicit catalecticant matrix of f in degree k, as `Fraction` rows.

    Rows are the degree-(d-k) monomials, columns the degree-k monomial
    operators, both in `mono_basis` (descending lex) order; entry (i, j) is
    the coefficient of monomial i in operator j applied to f.  With
    beta = monomial i and alpha = operator j, that is c_e * prod_i
    perm(e_i, alpha_i) for e = alpha + beta and c_e f's coefficient of x^e,
    so the matrix is filled from f's coefficients: each term e of f fills
    one entry for each alpha <= e of degree k, and every other entry is 0.
    """
    if f.is_zero():
        raise ZeroPolynomialError("operation undefined for the zero polynomial")
    d = f.degree
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    rows = {m: i for i, m in enumerate(mono_basis(f.vars, d - k))}
    columns = {m: j for j, m in enumerate(mono_basis(f.vars, k))}
    zero = Fraction(0)
    matrix = [[zero] * len(columns) for _ in rows]
    for e, c in f.coeff_map().items():
        for alpha in _sub_exponents(e, k):
            matrix[rows[tuple(map(sub, e, alpha))]][columns[alpha]] = Fraction(c * prod(map(perm, e, alpha)))
    return matrix


def _sub_exponents(e: Monomial, k: int) -> Iterator[Monomial]:
    """The exponents alpha <= e, entry by entry, of degree k <= deg(e), in
    descending lex order, enumerated in a loop rather than by recursion.

    Each alpha fills its positions greedily, the largest values first; the
    next one lowers the last position that can give one unit to the
    positions after it (`tail[j]` is what positions j.. can hold) and fills
    those greedily again.
    """
    n = len(e)
    tail = [*accumulate(reversed(e))][::-1] + [0]
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


def ak_basis(an: Analysis, k: int) -> AkBasis:
    """Greedy monomial basis of A_k, grown from the Analysis's basis of A_(k-1).

    Greedy: in descending lex order, keep each monomial operator whose
    derivative of f is independent of those kept before.  A rejected m is a
    combination of larger monomials modulo the ideal Ann(f), and lex order is
    multiplicative, so every x_i*m is rejected too: the candidates are the
    monomials whose degree-(k-1) divisors are all in the basis of A_(k-1),
    each derivative is a partial of its parent's, and the basis is that of a
    full scan.  Derivatives are read from the Analysis's memo.  The compute
    body of `an.basis(k)`, which keeps the basis; call that instead.
    """
    f = an.f
    d = f.degree
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    if k == 0:
        span = linalg.SparseSpan()
        span.try_add(f.coeff_map())
        return AkBasis(0, ((0,) * len(f.vars),), 0, span)
    parents = set(an.basis(k - 1).expos)
    found = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in parents for i in range(len(m))}
    candidates = sorted(
        (e for e in found if all(e[:j] + (x - 1,) + e[j + 1 :] in parents for j, x in enumerate(e) if x)),
        reverse=True,
    )
    span = linalg.SparseSpan()
    expos: list[Monomial] = []
    for e in candidates:
        h = an.derivatives[e]
        if h and span.try_add(h.coeff_map()):
            expos.append(e)
    return AkBasis(k, tuple(expos), len(candidates), span)


class HilbertVector(Record):
    """Dimensions (h_0, ..., h_d) of the graded quotient attached to f."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        if not dims or dims[0] != 1 or dims[-1] != 1:
            raise ValueError(f"not a valid Hilbert vector: {dims}")
        if any(h <= 0 for h in dims):
            raise ValueError(f"nonpositive entry in Hilbert vector: {dims}")
        if any(dims[i] != dims[-1 - i] for i in range(len(dims))):
            raise ValueError(f"Hilbert vector is not symmetric: {dims}")
        Record.__init__(self, dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]


def hilbert_vector(an: Analysis) -> HilbertVector:
    """Hilbert vector from the A_k bases up to d/2, mirrored by Gorenstein symmetry.

    The compute body of `an.hilbert()`, which keeps the vector; call that
    instead."""
    d = an.f.degree
    half = [len(an.basis(k)) for k in range(d // 2 + 1)]
    return HilbertVector(tuple(half + [half[d - k] for k in range(d // 2 + 1, d + 1)]))


def is_unimodal(hv: HilbertVector | Sequence[int]) -> bool:
    """True iff the vector weakly increases to a peak, then weakly decreases."""
    return first_dip(hv) is None


def first_dip(hv: HilbertVector | Sequence[int]) -> Optional[int]:
    """Index i of the first drop h_i > h_{i+1} that is later followed by a rise."""
    dims = tuple(hv)
    drop = None
    for i in range(len(dims) - 1):
        if dims[i + 1] < dims[i] and drop is None:
            drop = i
        if drop is not None and dims[i + 1] > dims[i]:
            return drop
    return None
