"""Exact sparse multivariate polynomials and the differentiation pairing.

A polynomial is a map from exponent tuples to nonzero rational coefficients
over an ordered, immutable `VariableSet`.  Differential operators are ordinary
polynomials over the *dual* variable set (names with the first letter
upper-cased, so ``x0 -> X0``, ``u1 -> U1``); `diff_apply` lets an operator act
by plain partial differentiation, position by position.  `IntMatrix`
compiles a matrix of polynomials once for evaluation at integer points: the
one evaluation kernel behind the Hessian determinant decisions and the
Lefschetz ranks (`eval_poly`, which no production path calls, is the tests'
rational reference for it).

Conventions baked in here and relied on everywhere else:

  * monomial order is lexicographic on exponent tuples, descending, induced
    by the declared variable order;
  * a coefficient is an `int` when it is integral and a reduced `Fraction`
    with denominator > 1 otherwise, so an integral form computes in ints
    alone; a `float` is refused, and zero terms are never stored;
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


class Record:
    """Base of the immutable slotted records.

    A subclass's public `__slots__`, in its `__init__`'s parameter order,
    are its arguments (`_args`); `__init__` validates them and hands them to
    `Record.__init__`, which stores them.  Slots named with a leading
    underscore are private caches.  Equality (records of the same class
    only), hash and repr are over `_fields`, the arguments unless a class
    names fewer.  `_asdict`, `_replace`, copy and pickle use the arguments,
    and the last three rebuild through `__init__`, so its validation runs
    and no cache is carried over.
    """

    __slots__ = ()
    _args: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._args = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if "_fields" not in cls.__dict__:
            cls._fields = cls._args

    def __init__(self, *values: object):
        for name, value in zip(self._args, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._args}

    def _replace(self, **changes: object) -> "Record":
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self) -> tuple:
        # restoring the slots directly would call __setattr__
        return type(self), tuple(getattr(self, name) for name in self._args)


class VariableSet(Record):
    """Ordered, distinct variable names."""

    __slots__ = ("names", "_hash")

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise ValueError("variable set must not be empty")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        Record.__init__(self, names)
        object.__setattr__(self, "_hash", hash(names))

    # `Poly` arithmetic compares the operands' variable sets on every call:
    # an identity fast path, and the hash computed once
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not VariableSet:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.names)

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
    return VariableSet(dual_names)


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


class Poly(Record):
    """Immutable sparse polynomial with exact rational coefficients.

    Its terms are private, so equality, hash and repr are its own;
    `_asdict` gives the variable set and a copy of the terms, and
    `_replace`, a copy or pickle rebuild from them through `__init__`.
    """

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, vars: VariableSet, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Scalar] = {}
        width = len(vars)
        for expo, coeff in terms.items():
            if len(expo) != width or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r} for {width} variables")
            c = coeff if type(coeff) is int else _coefficient(coeff)
            if c:
                clean[expo] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, vars: VariableSet, terms: dict[Monomial, Scalar]) -> "Poly":
        """A Poly from terms that are already valid: exponent tuples of the
        right width and int or `Fraction` coefficients, as `Poly`'s own
        arithmetic builds them; zero terms are dropped and an integral
        `Fraction` is stored as its numerator."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        terms = {e: c if type(c) is int or c.denominator != 1 else c.numerator for e, c in terms.items() if c}
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def _asdict(self) -> dict:
        return {"vars": self.vars, "terms": self.coeff_map()}

    def __reduce__(self) -> tuple:
        return Poly, (self.vars, self._terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VariableSet) -> "Poly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: VariableSet, value: Scalar) -> "Poly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def monomial(cls, vars: VariableSet, expo: Monomial, coeff: Scalar = 1) -> "Poly":
        return cls(vars, {tuple(expo): coeff})

    @classmethod
    def variable(cls, vars: VariableSet, index: int) -> "Poly":
        expo = tuple(1 if i == index else 0 for i in range(len(vars)))
        return cls(vars, {expo: 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in canonical (descending lexicographic) order."""
        return iter(sorted(self._terms.items(), reverse=True))

    def coefficient(self, expo: Monomial) -> Scalar:
        return self._terms.get(tuple(expo), 0)

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

    def coeff_map(self) -> dict[Monomial, Scalar]:
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
        c = _coefficient(c)
        if not c:
            return Poly.zero(self.vars)
        return Poly._trusted(self.vars, {e: v * c for e, v in self._terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same(other)
        out: dict[Monomial, Scalar] = {}
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


def _coefficient(c: Scalar) -> Scalar:
    """`c` as a stored coefficient: an int when integral, else a reduced
    `Fraction`.  A float is refused, since `Fraction` would take its binary
    value without a word."""
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def poly_sum(vars: VariableSet, parts: Iterable[Poly]) -> Poly:
    out: dict[Monomial, Scalar] = {}
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


def partial(f: Poly, index: int) -> Poly:
    """First partial derivative with respect to variable `index`."""
    terms = f._terms.items()
    return Poly._trusted(f.vars, {b[:index] + (b[index] - 1,) + b[index + 1 :]: c * b[index] for b, c in terms if b[index]})


class Derivatives(dict):
    """The monomial derivatives of f by exponent, each computed on first use:
    the partial, by the exponent's first variable, of the one a degree lower.
    A missing derivative walks down to its nearest known ancestor and back
    up in a loop, so the exponent's size never bounds the call depth.
    `zero` stands for every cell known to be zero without differentiating."""

    def __init__(self, f: Poly):
        super().__init__({(0,) * len(f.vars): f})
        self.zero = Poly.zero(f.vars)

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

    Row i is scaled by its row scale, the lcm of its coefficient
    denominators, so every term becomes an int coefficient times a monomial.
    Each distinct entry is compiled once, scaled by its own denominator, into
    one list of entries, and each row is a list of positions in that list;
    position 0 is the zero entry.  A row whose scale is larger than some of
    its entries' denominators (only a rational form has such rows) uses a
    copy of each, compiled once per (entry, row scale) pair.  Cell (a, b) of
    a Hessian is f differentiated by the monomial ab, so few of its cells
    differ.  Each distinct monomial of the matrix is kept once, as a sparse
    exponent: the positions of its variable powers in a per-point power
    table.  `at(point)` evaluates each monomial and each compiled entry
    once, then builds each row by lookup: the integer matrix whose row i is
    row i of the polynomial matrix at `point` times that row's scale.
    `scale` is the product of the row scales, so the determinant at the
    point is `det_int(at(point)) / scale`.
    """

    __slots__ = ("nvars", "scale", "norm_bound", "_top", "_monos", "_entries", "_rows")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        self.nvars = len(entries[0][0].vars) if entries and entries[0] else 0
        monos: dict[Monomial, int] = {}
        # from position 1 on: (int coefficients, monomial positions)
        self._entries: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        norms = [0]  # the coefficient 1-norm at each position
        positions: dict[int, int] = {}  # id(entry) -> position, scaled by its own denominator
        denoms: dict[int, int] = {}  # position -> the denominator of its entry, where not 1
        rescaled: dict[tuple[int, int], int] = {}  # (id(entry), row scale) -> position

        def compiled(entry: Poly, denom: int) -> int:
            coeffs = tuple(c.numerator * (denom // c.denominator) for c in entry._terms.values())
            self._entries.append((coeffs, tuple(monos.setdefault(e, len(monos)) for e in entry._terms)))
            norms.append(sum(map(abs, coeffs)))
            return len(norms) - 1

        self.scale = 1
        # product over rows of the summed |coefficients|: a bound on every
        # coefficient of the (scaled) determinant polynomial
        self.norm_bound = 1
        self._rows = []
        for row in entries:
            out = []
            for entry in row:
                pos = positions.get(id(entry))
                if pos is None:
                    pos = 0
                    if entry._terms:
                        denom = lcm(*(c.denominator for c in entry._terms.values()))
                        pos = compiled(entry, denom)
                        if denom > 1:
                            denoms[pos] = denom
                    positions[id(entry)] = pos
                out.append(pos)
            denom = lcm(*map(denoms.__getitem__, denoms.keys() & out)) if denoms else 1
            if denom > 1:
                for i, (entry, pos) in enumerate(zip(row, out)):
                    if pos and denoms.get(pos) != denom:
                        key = (id(entry), denom)
                        if key not in rescaled:
                            rescaled[key] = compiled(entry, denom)
                        out[i] = rescaled[key]
            self._rows.append(out)
            self.scale *= denom
            self.norm_bound *= sum(map(norms.__getitem__, out))
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
        entry_at = [0, *(sum(map(mul, coeffs, map(value, monos))) for coeffs, monos in self._entries)]
        return [list(map(entry_at.__getitem__, row)) for row in self._rows]


def linear_change(f: Poly, matrix: Sequence[Sequence[Scalar]]) -> Poly:
    """Substitute x_i -> sum_j M[i][j] x_j.  M must be square and invertible.

    Each image row of M is a linear `Poly`, each power of it that a term of f
    needs is computed once, and f(Mx) is the sum over the terms of f of the
    coefficient times the product of its powers.  A singular M is refused by
    its determinant (`linalg.det`); a float entry raises `TypeError`, as a
    float coefficient does.
    """
    n = len(f.vars)
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError(f"matrix must be {n}x{n}")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [Poly(f.vars, dict(zip(units, row))) for row in matrix]
    if linalg.det([[image.coefficient(u) for u in units] for image in images]) == 0:
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
