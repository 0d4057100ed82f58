"""Exact sparse multivariate polynomials and the differentiation pairing.

A polynomial is a map from exponent tuples to nonzero `Fraction`s over an
ordered, immutable `VariableSet`.  Differential operators are ordinary
polynomials over the *dual* variable set (names with the first letter
upper-cased, so ``x0 -> X0``, ``u1 -> U1``); `diff_apply` lets an operator act
by plain partial differentiation, position by position.  `IntMatrix`
compiles a matrix of polynomials once for evaluation at integer points: the
one evaluation kernel behind the Hessian determinant decisions and the
Lefschetz ranks (`eval_poly`, which no production path calls, is the tests'
rational reference for it).

Conventions baked in here and relied on everywhere else:

  * monomial order is lexicographic on exponent tuples, descending, induced
    by the declared variable order (x-block names come first when a split is
    declared);
  * coefficients are always reduced `Fraction`s and zero terms are never
    stored;
  * `parse_poly` reads homogeneous text only; an inhomogeneous `Poly` is
    built as a sum of homogeneous ones;
  * the zero polynomial has no degree — `Poly.degree` is None and callers
    branch explicitly;
  * all values are immutable after construction, so everything in this module
    is safe to share across threads.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm, perm, prod
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import linalg
from .errors import (
    HomogeneityError,
    PolyParseError,
    SingularMatrixError,
    VariableMismatchError,
)

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class VariableSet:
    """Ordered variable names, optionally split into an x-block and a u-block.

    `n_x` is the size of the leading x-block; the remaining names form the
    u-block.  A split is required only by the operations that distinguish
    "superfluous" from "essential" variables (structural certificates and the
    family generators).
    """

    __slots__ = ("names", "n_x", "_hash")

    def __init__(self, names: tuple[str, ...], n_x: Optional[int] = None):
        if not names:
            raise ValueError("variable set must not be empty")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if n_x is not None and not 0 < n_x < len(names):
            raise ValueError("split must leave both blocks nonempty")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "_hash", hash((names, n_x)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VariableSet is immutable")

    # `Poly` arithmetic compares the operands' variable sets on every call
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not VariableSet:
            return NotImplemented
        return self.names == other.names and self.n_x == other.n_x

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VariableSet(names={self.names!r}, n_x={self.n_x!r})"

    def __len__(self) -> int:
        return len(self.names)

    @property
    def has_split(self) -> bool:
        return self.n_x is not None

    @property
    def x_names(self) -> tuple[str, ...]:
        if self.n_x is None:
            raise ValueError("no split declared")
        return self.names[: self.n_x]

    @property
    def u_names(self) -> tuple[str, ...]:
        if self.n_x is None:
            raise ValueError("no split declared")
        return self.names[self.n_x :]

    @property
    def u_indices(self) -> range:
        if self.n_x is None:
            raise ValueError("no split declared")
        return range(self.n_x, len(self.names))

    def index(self, name: str) -> int:
        return self.names.index(name)

    def dual(self) -> "VariableSet":
        """The operator-side variable set: same order, dualized names."""
        return _dual(self)


@functools.lru_cache(maxsize=None)
def _dual(vs: VariableSet) -> VariableSet:
    dual_names = tuple(n[0].upper() + n[1:] for n in vs.names)
    if len(set(dual_names)) != len(dual_names):
        raise ValueError("variable names collide after dualization")
    return VariableSet(dual_names, vs.n_x)


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, vars: VariableSet, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        width = len(vars)
        for expo, coeff in terms.items():
            if len(expo) != width or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r} for {width} variables")
            c = Fraction(coeff)
            if c:
                clean[expo] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, vars: VariableSet, terms: dict[Monomial, Fraction]) -> "Poly":
        """A Poly from terms that are already valid: exponent tuples of the
        right width and reduced `Fraction` coefficients, as `Poly`'s own
        arithmetic builds them; only zero terms are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VariableSet) -> "Poly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: VariableSet, value: Scalar) -> "Poly":
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def monomial(cls, vars: VariableSet, expo: Monomial, coeff: Scalar = 1) -> "Poly":
        return cls(vars, {tuple(expo): Fraction(coeff)})

    @classmethod
    def variable(cls, vars: VariableSet, index: int) -> "Poly":
        expo = tuple(1 if i == index else 0 for i in range(len(vars)))
        return cls(vars, {expo: Fraction(1)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical (descending lexicographic) order."""
        return iter(sorted(self._terms.items(), reverse=True))

    def coefficient(self, expo: Monomial) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    def num_terms(self) -> int:
        return len(self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {mono_degree(e) for e in self._terms}
        return len(degrees) <= 1

    @property
    def degree(self) -> Optional[int]:
        """Common degree of all terms; None for the zero polynomial."""
        if not self._terms:
            return None
        degrees = {mono_degree(e) for e in self._terms}
        if len(degrees) != 1:
            raise HomogeneityError("polynomial is not homogeneous")
        return degrees.pop()

    def supported_on(self, indices: Iterable[int]) -> bool:
        """True iff every term involves only the given variable indices."""
        allowed = set(indices)
        return all(
            all(e == 0 or i in allowed for i, e in enumerate(expo))
            for expo in self._terms
        )

    def coeff_map(self) -> dict[Monomial, Fraction]:
        """Copy of the underlying sparse coefficient map."""
        return dict(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"polynomials over different variables: {self.vars.names} vs {other.vars.names}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return Poly._trusted(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return Poly._trusted(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.vars, {e: -c for e, c in self._terms.items()})

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.vars)
        return Poly._trusted(self.vars, {e: v * c for e, v in self._terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same(other)
        out: dict[Monomial, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = mono_mul(ea, eb)
                out[e] = out.get(e, 0) + ca * cb
        return Poly._trusted(self.vars, out)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.scale(other)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.vars, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form; `parse_poly` inverts this exactly."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for expo, coeff in self.terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.vars.names, expo)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"


DiffOp = Poly  # operators are polynomials over the dual variable set


def poly_sum(vars: VariableSet, parts: Iterable[Poly]) -> Poly:
    out: dict[Monomial, Fraction] = {}
    for p in parts:
        if p.vars != vars:
            raise VariableMismatchError(f"summand over {p.vars.names}, expected {vars.names}")
        for e, c in p._terms.items():
            out[e] = out.get(e, 0) + c
    return Poly._trusted(vars, out)


def mono_basis(vars: VariableSet, k: int) -> list[Monomial]:
    """All degree-k exponent tuples, lexicographically descending.

    The first element is (first variable)^k and the last is (last variable)^k;
    the length is C(len(vars)-1+k, k).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    n = len(vars)
    out: list[Monomial] = []
    # index multisets in lexicographic order are exponents in descending lex order
    for indices in combinations_with_replacement(range(n), k):
        expo = [0] * n
        for i in indices:
            expo[i] += 1
        out.append(tuple(expo))
    return out


def mono_count(nvars: int, k: int) -> int:
    return comb(nvars - 1 + k, k)


def diff_apply(alpha: DiffOp, f: Poly) -> Poly:
    """Act by differentiation: X_i differentiates position i, products compose.

    `alpha` must live over the dual of `f`'s variable set.  The result carries
    the plain-derivative scalars (X^a applied to x^b gives b!/(b-a)! x^{b-a}).
    Each operand is scaled once to integer coefficients by the lcm of its
    denominators, a term pair is tested on the operator monomial's nonzero
    positions only, and each output coefficient is one `Fraction` of the
    integer sum over that product of the two scales.
    """
    if alpha.vars != f.vars.dual():
        raise VariableMismatchError(
            f"operator over {alpha.vars.names} cannot act on polynomial over {f.vars.names}"
        )
    da = lcm(*(c.denominator for c in alpha._terms.values()))
    df = lcm(*(c.denominator for c in f._terms.values()))
    f_terms = [(b, c.numerator * (df // c.denominator)) for b, c in f._terms.items()]
    out: dict[Monomial, int] = {}
    for a, ca in alpha._terms.items():
        ca = ca.numerator * (da // ca.denominator)
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
    denom = da * df
    return Poly._trusted(f.vars, {e: Fraction(v, denom) for e, v in out.items()})


def partial(f: Poly, index: int) -> Poly:
    """First partial derivative with respect to variable `index`."""
    terms = f._terms.items()
    return Poly._trusted(f.vars, {b[:index] + (b[index] - 1,) + b[index + 1 :]: c * b[index] for b, c in terms if b[index]})


class Derivatives(dict):
    """The monomial derivatives of f by exponent, each computed on first use:
    the partial, by the exponent's first variable, of the one a degree lower.
    A missing derivative walks down to its nearest known ancestor and back
    up in a loop, so the exponent's size never bounds the call depth."""

    def __init__(self, f: Poly):
        super().__init__({(0,) * len(f.vars): f})

    def __missing__(self, expo: Monomial) -> Poly:
        path = []
        while expo not in self:
            i = next(i for i, e in enumerate(expo) if e)
            path.append((expo, i))
            expo = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
        g = self[expo]
        for expo, i in reversed(path):
            g = self[expo] = partial(g, i) if g else g
        return g


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


class IntMatrix:
    """A matrix of polynomials compiled for evaluation at integer points.

    Row i is scaled by the lcm of its coefficient denominators, so every term
    becomes an int coefficient times a monomial.  Each distinct monomial of
    the matrix is kept once, as a sparse exponent: the positions of its
    variable powers in a per-point power table.  `at(point)` gives the
    integer matrix whose row i is row i of the polynomial matrix at `point`
    times that row's scale; `scale` is the product of the row scales, so the
    determinant at the point is `det_int(at(point)) / scale`.
    """

    __slots__ = ("nvars", "scale", "norm_bound", "_top", "_monos", "_rows")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        self.nvars = len(entries[0][0].vars) if entries and entries[0] else 0
        monos: dict[Monomial, int] = {}
        # a symmetric matrix holds each off-diagonal Poly twice
        compiled: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        zero: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self.scale = 1
        # product over rows of the summed |coefficients|: a bound on every
        # coefficient of the (scaled) determinant polynomial
        self.norm_bound = 1
        self._rows = []
        for row in entries:
            denom = lcm(*(c.denominator for entry in row for c in entry._terms.values()))
            out = []
            for entry in row:
                if not entry._terms:
                    out.append(zero)
                    continue
                key = (id(entry), denom)
                if key not in compiled:
                    compiled[key] = (
                        tuple(c.numerator * (denom // c.denominator) for c in entry._terms.values()),
                        tuple(monos.setdefault(expo, len(monos)) for expo in entry._terms),
                    )
                out.append(compiled[key])
            self._rows.append(out)
            self.scale *= denom
            self.norm_bound *= sum(sum(map(abs, coeffs)) for coeffs, _ in out)
        self._top = top = max((e for expo in monos for e in expo), default=0)
        self._monos = [
            tuple(i * top + e - 1 for i, e in enumerate(expo) if e) for expo in monos
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def at(self, point: Sequence[int]) -> list[list[int]]:
        """The scaled integer matrix at an integer point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        table: list[int] = []
        for x in point:
            power = 1
            for _ in range(self._top):
                power *= x
                table.append(power)
        power_at = table.__getitem__
        value = [prod(map(power_at, idx)) for idx in self._monos].__getitem__
        return [
            [sum(map(mul, coeffs, map(value, monos))) if coeffs else 0 for coeffs, monos in row]
            for row in self._rows
        ]


def linear_change(f: Poly, matrix: Sequence[Sequence[Scalar]]) -> Poly:
    """Substitute x_i -> sum_j M[i][j] x_j.  M must be square and invertible."""
    n = len(f.vars)
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    if linalg.det(rows) == 0:
        raise SingularMatrixError("change-of-variables matrix is singular")
    images = [
        poly_sum(
            f.vars,
            [Poly.variable(f.vars, j).scale(rows[i][j]) for j in range(n) if rows[i][j]],
        )
        for i in range(n)
    ]
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


# -- parsing ----------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    poly   := ['-'] term (('+'|'-') term)* ;
    term   := coeff ('*' factor)* | factor ('*' factor)* ;
    factor := ident ('^' uint)? ;
    coeff  := int | int '/' uint ;
    """

    def __init__(self, text: str, vars: VariableSet):
        self.text = text
        self.vars = vars
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def read_factor(self) -> tuple[int, int]:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a variable name")
        name = m.group(0)
        try:
            index = self.vars.index(name)
        except ValueError:
            raise self.error(f"undeclared variable {name!r}") from None
        self.pos = m.end()
        expo = self.read_uint() if self.take("^") else 1
        return index, expo

    def read_term(self) -> tuple[Monomial, Fraction]:
        self.skip_ws()
        coeff = Fraction(1)
        expo = [0] * len(self.vars)
        if self.peek().isdigit():
            num = self.read_uint()
            denom = self.read_uint() if self.take("/") else 1
            if denom == 0:
                raise self.error("zero denominator")
            coeff = Fraction(num, denom)
        else:
            index, e = self.read_factor()
            expo[index] += e
        while self.take("*"):
            index, e = self.read_factor()
            expo[index] += e
        return tuple(expo), coeff

    def parse(self) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        self.skip_ws()
        if self.pos == len(self.text):
            raise self.error("empty input")
        sign = -1 if self.take("-") else 1
        while True:
            expo, coeff = self.read_term()
            coeff *= sign
            out[expo] = out.get(expo, Fraction(0)) + coeff
            self.skip_ws()
            if self.pos == len(self.text):
                break
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                raise self.error("expected '+' or '-'")
        return out


def parse_poly(text: str, vars: VariableSet) -> Poly:
    """Parse homogeneous polynomial text over the declared variables.

    Rejects non-homogeneous input: the rest of the package only consumes
    homogeneous polynomials.
    """
    terms = _Parser(text, vars).parse()
    poly = Poly(vars, terms)
    if not poly.is_homogeneous():
        raise HomogeneityError(f"polynomial is not homogeneous: {text!r}")
    return poly
