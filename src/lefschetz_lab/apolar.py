"""Graded bases and Hilbert vectors.

The graded quotient A = (operator ring)/Ann(f) is represented throughout by
its derivative spaces: degree-k operators are identified with the polynomials
they produce from f, so dim A_k is the size of a greedy basis of the degree-k
derivatives and multiplication never needs quotient-ring arithmetic.  The
greedy scan reads only D_k, the degree-k monomials that divide a term of f
(`support.divisor_monomials`): every other monomial operator kills f, so no
degree is scanned in full and no basis is read to build another.  The explicit catalecticant matrix,
whose rank is the same number, is the independent reference that
`oracles.catalecticant` builds.  The basis (`ak_basis`) and the facts
read off the bases (the Hilbert vector here, the cone test in `hessian`)
take the form's `Analysis`, which computes each basis once and holds the
derivatives they read.  `ak_basis` and `hilbert_vector` are the compute
bodies of `an.basis(k)` and `an.hilbert()`; called directly, they bypass
the memo and `counts()`.  Unimodality is the absence of a dip
(`first_dip`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from . import linalg
from .errors import DegreeRangeError
from .polycore import Monomial, Record

if TYPE_CHECKING:
    from .analysis import Analysis


class AkBasis(Record):
    """The greedy monomial basis of A_k and the span of its derivatives.

    `expos[i]` is the exponent of the i-th basis element, the monic monomial
    operator X^expos[i]; that operator applied to f is
    `an.derivatives[expos[i]]`.  These derivatives are linearly independent
    and their number is dim A_k.  `candidates` counts the monomial operators
    whose derivatives were reduced to find the basis: |D_k|, so A_1's are
    the variables that occur in f.  `span`, whose t-th vector is the
    derivative of `expos[t]`, selected the basis; coordinates in the basis
    (a cone's witness, the columns of an explicit multiplication matrix)
    are solved against it.  Equality, hash and repr
    leave `span` out (`_fields`); a copy or pickle carries it.
    """

    __slots__ = ("k", "expos", "candidates", "span")
    _fields = ("k", "expos", "candidates")

    def __init__(self, k: int, expos: tuple[Monomial, ...], candidates: int, span: linalg.SparseSpan):
        Record.__init__(self, k, expos, candidates, span)

    def __len__(self) -> int:
        return len(self.expos)


def ak_basis(an: Analysis, k: int) -> AkBasis:
    """Greedy monomial basis of A_k, scanned over D_k.

    Greedy: in descending lex order, keep each monomial operator whose
    derivative of f is independent of those kept before.  In characteristic
    0, X^m f is nonzero exactly when x^m divides a term of f, so the
    candidates are D_k (`an.divisor_monomials(k)`, in that order) and the
    basis is that of a scan over every degree-k monomial.  Derivatives are
    read from the Analysis's memo.  The compute body of `an.basis(k)`,
    which keeps the basis; call that instead.
    """
    d = an.f.degree
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    candidates = an.divisor_monomials(k)
    span = linalg.SparseSpan()
    expos = tuple(e for e in candidates if span.try_add(an.derivatives[e].coeff_map()))
    return AkBasis(k, expos, len(candidates), span)


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


def __getattr__(name: str):
    """`catalecticant`, which lives in `oracles`.  It resolves here only
    because `perfbench/tracer.py` still lists it under `apolar` in
    `TRACED`; no code of the package reads it from this module."""
    if name == "catalecticant":
        from . import oracles

        return oracles.catalecticant
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
