"""The second routes: explicit matrices and plain differentiation, kept as
independent references for the numbers the production routes compute.

No command but `reproduce` imports this module; its property fixtures and
the tests check the production routes against it:

  * `catalecticant(f, k)`, whose rank is dim A_k, against the Hilbert
    vector that `apolar` reads off the greedy bases of `support`'s D_k;
  * `mult_map(an, L, i, k)`, the matrix of multiplication by L^k, whose
    rank `lefschetz.rank_at` takes from a mixed Hessian instead;
  * `explicit_basis_verdict`, the order-k verdict over another basis of
    A_k, without the zero block;
  * `diff_apply`, an operator acting by plain partial differentiation
    (the Analysis takes a form's monomial derivatives one partial at a
    time), `eval_poly`, the rational value of a polynomial that
    `IntMatrix` evaluates for every Hessian, and `linear_change`, a
    change of variables.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from operator import sub
from typing import TYPE_CHECKING, Sequence

from . import exact
from .errors import DegreeRangeError, SingularMatrixError, VariableMismatchError, ZeroPolynomialError
from .hessian import VanishingVerdict, _det_vanishes, _mirrored
from .polycore import DiffOp, IntMatrix, Monomial, Poly, Scalar, _coefficient, mono_basis, poly_sum
from .support import _sub_exponents

if TYPE_CHECKING:
    from .analysis import Analysis
    from .lefschetz import LinearForm


def diff_apply(alpha: DiffOp, f: Poly) -> Poly:
    """Act by differentiation: X_i differentiates position i, products compose.

    `alpha` must live over the dual of `f`'s variable set.  The result carries
    the plain-derivative scalars (X^a applied to x^b gives b!/(b-a)! x^{b-a}).
    A term pair is tested on the operator monomial's nonzero positions only,
    and the coefficients multiply as stored, so integral operands stay in ints.
    """
    if alpha.vars != f.vars.dual():
        raise VariableMismatchError(
            f"operator over {alpha.vars.names} cannot act on polynomial over {f.vars.names}"
        )
    f_terms = f._terms.items()
    out: dict[Monomial, Scalar] = {}
    for a, ca in alpha._terms.items():
        support = [(i, ai) for i, ai in enumerate(a) if ai]
        for b, cb in f_terms:
            v = cb
            for i, ai in support:
                bi = b[i]
                if bi < ai:
                    break
                v *= perm(bi, ai)
            else:
                e = tuple(map(sub, b, a))
                out[e] = out.get(e, 0) + ca * v
    return Poly._trusted(f.vars, out)


def eval_poly(f: Poly, point: Sequence[Scalar]) -> Fraction:
    """Exact value of f at a rational point.

    No production path evaluates a polynomial by itself: this is the tests'
    rational reference for `IntMatrix`, which every Hessian evaluation uses.
    """
    if len(point) != len(f.vars):
        raise ValueError(
            f"point has {len(point)} coordinates, expected {len(f.vars)}"
        )
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for expo, coeff in f.coeff_map().items():
        val = coeff
        for x, e in zip(pt, expo):
            if e:
                val *= x**e
        total += val
    return total


def linear_change(f: Poly, matrix: Sequence[Sequence[Scalar]]) -> Poly:
    """Substitute x_i -> sum_j M[i][j] x_j.  M must be square and invertible.

    Each image row of M is a linear `Poly`, each power of it that a term of f
    needs is computed once, and f(Mx) is the sum over the terms of f of the
    coefficient times the product of its powers.  A singular M is refused by
    its determinant (`exact.det`); a float entry raises `TypeError`, as a
    float coefficient does.
    """
    n = len(f.vars)
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError(f"matrix must be {n}x{n}")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [Poly(f.vars, dict(zip(units, row))) for row in matrix]
    if exact.det([[image.coefficient(u) for u in units] for image in images]) == 0:
        raise SingularMatrixError("change-of-variables matrix is singular")
    powers: dict[tuple[int, int], Poly] = {}
    terms = []
    for expo, coeff in f._terms.items():
        term = Poly.constant(f.vars, coeff)
        for i, e in enumerate(expo):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                term = term * powers[i, e]
        terms.append(term)
    return poly_sum(f.vars, terms)


def catalecticant(f: Poly, k: int) -> list[list[Scalar]]:
    """Explicit catalecticant matrix of f in degree k.

    Rows are the degree-(d-k) monomials, columns the degree-k monomial
    operators, both in `mono_basis` (descending lex) order; entry (i, j) is
    the coefficient of monomial i in operator j applied to f.  With
    beta = monomial i and alpha = operator j, that is c_e * prod_i
    perm(e_i, alpha_i) for e = alpha + beta and c_e f's coefficient of x^e,
    so the matrix is filled from f's coefficients: each term e of f fills
    one entry for each alpha <= e of degree k, and every other entry is 0.
    Entries follow `Poly`'s coefficients: an `int` when integral, else a
    reduced `Fraction`.
    """
    if f.is_zero():
        raise ZeroPolynomialError("operation undefined for the zero polynomial")
    d = f.degree
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k={k} out of range 0..{d}")
    rows = {m: i for i, m in enumerate(mono_basis(f.vars, d - k))}
    columns = {m: j for j, m in enumerate(mono_basis(f.vars, k))}
    matrix = [[0] * len(columns) for _ in rows]
    for e, c in f.coeff_map().items():
        for alpha in _sub_exponents(e, k):
            v = c * prod(map(perm, e, alpha))
            matrix[rows[tuple(map(sub, e, alpha))]][columns[alpha]] = v if type(v) is int else _coefficient(v)
    return matrix


def explicit_basis_verdict(an: Analysis, k: int, ops: Sequence[DiffOp]) -> VanishingVerdict:
    """Test oracle for basis independence: the order-k verdict over `ops`, a
    basis of A_k given as degree-k operators (not checked), decided by
    evaluation and, in exact mode, elimination; the zero block is not
    consulted.  Cell (i, j) is ops[i] applied to ops[j] (f)."""
    derived = [diff_apply(a, an.f) for a in ops]
    H = _mirrored([diff_apply(a, g) for g in derived[i:]] for i, a in enumerate(ops))
    kernel = IntMatrix(H)
    verdict = _det_vanishes(an, k, kernel)
    if an.mode == "exact" and verdict.error_bound is not None:
        return exact._eliminated(an, H, kernel)
    return verdict


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
