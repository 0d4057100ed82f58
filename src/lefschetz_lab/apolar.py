"""Catalecticant matrices, annihilator pieces, graded bases, Hilbert vectors.

The graded quotient A = (operator ring)/Ann(f) is represented throughout by
its derivative spaces: degree-k operators are identified with the polynomials
they produce from f, so dim A_k is the size of a greedy basis of the degree-k
derivatives and multiplication never needs quotient-ring arithmetic.  The
explicit catalecticant matrix, whose rank is the same number, is kept as API
and as an independent reference.  Facts read off the bases (the Hilbert
vector, essential variables) take the form's `Analysis`, which computes each
basis once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import linalg
from .errors import DegreeRangeError, DependentPrefixError, ZeroPolynomialError
from .polycore import DiffOp, Monomial, Poly, diff_apply, mono_basis

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class Catalecticant:
    """Matrix of the map (degree-k operators) -> (degree d-k polynomials).

    Rows are indexed by the degree-(d-k) monomials of the polynomial side,
    columns by the degree-k monomials of the operator side; the (i, j) entry
    is the coefficient of row monomial i in (column operator j) applied to f.
    """

    f: Poly
    k: int
    row_monos: tuple[Monomial, ...]
    col_monos: tuple[Monomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def rank(self) -> int:
        return linalg.rank(self.matrix)

    def to_json_rows(self) -> list[list[str]]:
        """Matrix as rows of exact "p/q" strings."""
        return [[str(x) for x in row] for row in self.matrix]


@dataclass(frozen=True)
class AkBasis:
    """Ordered operator basis of A_k together with the derivatives it spans.

    `derived[i]` is ops[i] applied to f; the derived polynomials are linearly
    independent and their number is dim A_k.  When a preferred prefix was
    supplied it appears verbatim at the front of `ops`.
    """

    k: int
    ops: tuple[DiffOp, ...]
    derived: tuple[Poly, ...]
    preferred_prefix: Optional[tuple[DiffOp, ...]] = None

    def __len__(self) -> int:
        return len(self.ops)


def _require_degree(f: Poly) -> int:
    if f.is_zero():
        raise ZeroPolynomialError("operation undefined for the zero polynomial")
    return f.degree


def catalecticant(f: Poly, k: int) -> Catalecticant:
    """Explicit catalecticant matrix of f in degree k."""
    d = _require_degree(f)
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    dual = f.vars.dual()
    col_monos = tuple(mono_basis(dual, k))
    row_monos = tuple(mono_basis(f.vars, d - k))
    row_index = {m: i for i, m in enumerate(row_monos)}
    columns = []
    for expo in col_monos:
        g = diff_apply(Poly.monomial(dual, expo), f)
        col = [Fraction(0)] * len(row_monos)
        for e, c in g.coeff_map().items():
            col[row_index[e]] = c
        columns.append(col)
    matrix = tuple(
        tuple(columns[j][i] for j in range(len(col_monos)))
        for i in range(len(row_monos))
    )
    return Catalecticant(f, k, row_monos, col_monos, matrix)


def ann_basis(f: Poly, k: int) -> list[DiffOp]:
    """Basis of the degree-k operators annihilating f (catalecticant kernel)."""
    cat = catalecticant(f, k)
    dual = f.vars.dual()
    kernel = linalg.kernel_basis(cat.matrix, len(cat.col_monos))
    out = []
    for vec in kernel:
        terms = {m: c for m, c in zip(cat.col_monos, vec) if c}
        out.append(Poly(dual, terms))
    return out


def ak_basis(
    f: Poly, k: int, preferred_prefix: Optional[Sequence[DiffOp]] = None
) -> AkBasis:
    """Greedy monomial basis of A_k, honoring an optional leading block.

    Candidate monomial operators are scanned in descending lexicographic
    order and kept whenever their derivative is independent of what has been
    kept so far, so the result is deterministic.  A dependent prefix operator
    is an error (certificates rely on the stated prefix), reported with its
    index.  Nothing is cached here: `Analysis.basis` keeps one form's bases.
    """
    d = _require_degree(f)
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    dual = f.vars.dual()
    span = linalg.SparseSpan()
    ops: list[DiffOp] = []
    derived: list[Poly] = []
    prefix = None if preferred_prefix is None else tuple(preferred_prefix)
    for i, op in enumerate(prefix or ()):
        g = diff_apply(op, f)
        if not span.try_add(g.coeff_map()):
            raise DependentPrefixError(i)
        ops.append(op)
        derived.append(g)
    for expo in mono_basis(dual, k):
        op = Poly.monomial(dual, expo)
        g = diff_apply(op, f)
        if g.is_zero():
            continue
        if span.try_add(g.coeff_map()):
            ops.append(op)
            derived.append(g)
    return AkBasis(k, tuple(ops), tuple(derived), prefix)


@dataclass(frozen=True)
class HilbertVector:
    """Dimensions (h_0, ..., h_d) of the graded quotient attached to f."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = self.dims
        if not dims or dims[0] != 1 or dims[-1] != 1:
            raise ValueError(f"not a valid Hilbert vector: {dims}")
        if any(h <= 0 for h in dims):
            raise ValueError(f"nonpositive entry in Hilbert vector: {dims}")
        if any(dims[i] != dims[-1 - i] for i in range(len(dims))):
            raise ValueError(f"Hilbert vector is not symmetric: {dims}")

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    @property
    def socle_degree(self) -> int:
        return len(self.dims) - 1

    @property
    def codimension(self) -> int:
        return self.dims[1] if len(self.dims) > 1 else 0


def hilbert_vector(an: Analysis) -> HilbertVector:
    """Hilbert vector from the A_k bases up to d/2, mirrored by Gorenstein symmetry."""
    d = an.f.degree
    half = [len(an.basis(k)) for k in range(d // 2 + 1)]
    return HilbertVector(tuple(half + [half[d - k] for k in range(d // 2 + 1, d + 1)]))


def is_unimodal(hv: HilbertVector | Sequence[int]) -> bool:
    """True iff the vector weakly increases to a peak, then weakly decreases."""
    dims = hv.dims if isinstance(hv, HilbertVector) else tuple(hv)
    decreasing = False
    for a, b in zip(dims, dims[1:]):
        if b < a:
            decreasing = True
        elif b > a and decreasing:
            return False
    return True


def first_dip(hv: HilbertVector | Sequence[int]) -> Optional[int]:
    """Index i of the first drop h_i > h_{i+1} that is later followed by a rise."""
    dims = hv.dims if isinstance(hv, HilbertVector) else tuple(hv)
    drop = None
    for i in range(len(dims) - 1):
        if dims[i + 1] < dims[i] and drop is None:
            drop = i
        if drop is not None and dims[i + 1] > dims[i]:
            return drop
    return None


def depends_on_all_vars(an: Analysis) -> bool:
    """True iff no degree-1 operator annihilates f (all variables essential)."""
    return len(an.basis(1)) == len(an.f.vars)
