"""Exact sparse multivariate polynomials, their derivatives and the
evaluation kernel.

A polynomial is a map from exponent tuples to nonzero rational coefficients
over an ordered, immutable `VariableSet`.  Differential operators are ordinary
polynomials over the *dual* variable set (names with the first letter
upper-cased, so ``x0 -> X0``, ``u1 -> U1``); the monomial derivatives of a
form are taken one partial at a time (`Derivatives`), and an operator acts
on a polynomial by plain partial differentiation in `oracles.diff_apply`.
`IntMatrix` compiles a matrix of polynomials once for evaluation at integer
points: the one held form of each Hessian, behind its determinant
decisions, the Lefschetz ranks and, read back as polynomial cells, exact
elimination, and the one reader of its determinants and ranks at a point
(`oracles.eval_poly`, which no production path calls, is the tests'
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
from math import comb, lcm, prod
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import linalg
from .errors import (
    HomogeneityError,
    PolyParseError,
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

    __slots__ = ("vars", "_terms", "_hash", "_degree")

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
        object.__setattr__(self, "_degree", None)

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
        object.__setattr__(self, "_degree", None)
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
        """Common degree of all terms; None for the zero polynomial.  Found
        on first access and kept, -1 standing for "not homogeneous"."""
        if not self._terms:
            return None
        if self._degree is None:
            degrees = {mono_degree(e) for e in self._terms}
            object.__setattr__(self, "_degree", degrees.pop() if len(degrees) == 1 else -1)
        if self._degree < 0:
            raise HomogeneityError("polynomial is not homogeneous")
        return self._degree

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


class IntMatrix:
    """A matrix of polynomials compiled for evaluation at integer points.

    It is given compiled: `entries[0]` is the zero polynomial, `entries[1:]`
    the matrix's distinct nonzero cells, and `rows[i][j]` the position of
    cell (i, j) in `entries`.  A Hessian is built so from its pattern
    (`hessian.mixed_hessian`), any grid of polynomials by `IntMatrix.of`,
    and `cells()` reads the polynomial rows back.  Every entry is scaled by
    one common scale s, the lcm of all of the matrix's coefficient
    denominators (a divisor of the form's for a Hessian), so every term
    becomes an int coefficient times a monomial.  Each distinct monomial is
    kept once, as the positions of its variable powers in a per-point power
    table, which holds only the powers x_i^e that some monomial uses.
    `at(point)` computes each power, monomial and entry once, then builds
    each row by lookup: s times the polynomial matrix at `point`.
    `at_mod(point, p)` builds it reduced mod p, each power by
    `pow(x, e, p)` and each monomial and entry reduced as it is formed, so
    no value grows with the exponents or the point.

    The scale is this class's format alone: the determinant over Q (`det`),
    its residue mod a prime (`det_mod`) and the rank over Q or mod a prime
    (`rank`, `rank_mod`) at a point are read here: the modular two through
    `linalg`, from `at_mod`, and the two over Q through `exact`, which they
    load on first use, from `at`; a residue, from a prime that does not divide s.
    """

    __slots__ = ("nvars", "ncols", "scale", "_cells", "_powers", "_monos", "_entries", "_rows")

    def __init__(self, entries: Sequence[Poly], rows: list[list[int]]):
        self.nvars = len(entries[0].vars)
        self.ncols = len(rows[0]) if rows else 0
        self._cells, self._rows = entries, rows
        self.scale = s = lcm(*{c.denominator for entry in entries for c in entry._terms.values()})
        monos: dict[Monomial, int] = {}
        # from position 1 on: (int coefficients, monomial positions)
        self._entries: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for entry in entries[1:]:
            coeffs = tuple(c.numerator * (s // c.denominator) for c in entry._terms.values())
            self._entries.append((coeffs, tuple(monos.setdefault(e, len(monos)) for e in entry._terms)))
        self._powers = sorted({(i, e) for expo in monos for i, e in enumerate(expo) if e})
        position = {power: j for j, power in enumerate(self._powers)}
        self._monos = [tuple(position[i, e] for i, e in enumerate(expo) if e) for expo in monos]

    @classmethod
    def of(cls, grid: Sequence[Sequence[Poly]]) -> "IntMatrix":
        """The nonempty grid of polynomials compiled, each distinct value once."""
        index = {Poly.zero(grid[0][0].vars): 0}
        rows = [[index.setdefault(cell, len(index)) for cell in row] for row in grid]
        return cls(list(index), rows)

    def cells(self) -> tuple[tuple[Poly, ...], ...]:
        """The polynomial rows, each cell taken from `entries` by its position."""
        return tuple(tuple(map(self._cells.__getitem__, row)) for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def norm_bound(self) -> int:
        """The product of the scaled rows' coefficient 1-norms, which bounds every
        coefficient of s^n times the determinant polynomial; worked out on each call."""
        norms = [0, *(sum(map(abs, coeffs)) for coeffs, _ in self._entries)]
        return prod(sum(map(norms.__getitem__, row)) for row in self._rows)

    def at(self, point: Sequence[int]) -> list[list[int]]:
        """The scaled integer matrix at an integer point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        power_at = [point[i] ** e for i, e in self._powers].__getitem__
        value = [prod(map(power_at, idx)) for idx in self._monos].__getitem__
        entry_at = [0, *(sum(map(mul, coeffs, map(value, monos))) for coeffs, monos in self._entries)]
        return [list(map(entry_at.__getitem__, row)) for row in self._rows]

    def at_mod(self, point: Sequence[int], p: int) -> list[list[int]]:
        """The scaled integer matrix at an integer point, reduced mod p."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        power_at = [pow(point[i], e, p) for i, e in self._powers].__getitem__
        value = [prod(map(power_at, idx)) % p for idx in self._monos].__getitem__
        entry_at = [0, *(sum(map(mul, coeffs, map(value, monos))) % p for coeffs, monos in self._entries)]
        return [list(map(entry_at.__getitem__, row)) for row in self._rows]

    def det(self, point: Sequence[int]) -> Fraction:
        """The determinant over Q at `point`, of a square matrix."""
        from . import exact

        return Fraction(exact.det_int(self.at(point)), self.scale ** len(self))

    def det_mod(self, point: Sequence[int], p: int) -> int:
        """The determinant at `point` mod the prime p, in range(p).  A p that
        divides the scale, which makes the scaled determinant 0 mod p
        whatever the determinant over Q, is refused with ValueError."""
        if not self.scale % p:
            raise ValueError(f"the prime {p} divides the kernel's scale {self.scale}")
        return linalg.det_mod(self.at_mod(point, p), p) * pow(self.scale, -len(self), p) % p

    def rank(self, point: Sequence[int]) -> int:
        """The rank over Q at `point`."""
        from . import exact

        return exact.rank(self.at(point))

    def rank_mod(self, point: Sequence[int], p: int) -> int:
        """The rank mod the prime p of the scaled matrix at `point`: at most
        the rank over Q, and equal to it for all but finitely many p."""
        return linalg.rank_mod(self.at_mod(point, p), p)


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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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
        if self.peek().isdecimal():
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


def __getattr__(name: str):
    """`diff_apply` and `eval_poly`, which live in `oracles`.  They resolve
    here only because `perfbench/tracer.py` still lists them under
    `polycore` in `TRACED`; no code of the package reads them from this
    module."""
    if name in ("diff_apply", "eval_poly"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
