"""Higher Hessian matrices and exact/probabilistic vanishing decisions.

The order-k Hessian of f is the symmetric matrix (a_i a_j (f)) over an ordered
basis (a_i) of the degree-k graded piece.  Whether its determinant vanishes
identically does not depend on the basis, so verdicts are reported without
one.  A verdict is as certain as the route that decided it, whatever the
mode; the routes are taken in order, and only the last reads the mode:

  * certificate: for k >= 1, a zero block of the Hessian's pattern, read
    off supp(f) (`an.key(k)`), proves vanishing exactly; the Hessian is then
    neither assembled nor compiled;
  * evaluation: evaluate the matrix's integer kernel (`polycore.IntMatrix`,
    rows scaled to integer coefficients; the form's `Analysis` compiles it
    once, and this route reads nothing else of the matrix) at seeded integer
    points, at most two, and take the determinant modulo a prime p
    drawn at random from [2^60, 2^61) for this decision.  A nonzero residue
    proves the determinant nonzero over Q, an exact nonvanishing witness.
    The verdict carries it as (point, p, residue), the residue being that
    of the rational determinant (the row scale is divided out mod p), so it
    replays from the matrix alone; the exact value is not computed for the
    decision.  When every residue is zero, the verdict is probabilistic
    vanishing, with its error bound;
  * elimination: in exact mode only, that probabilistic verdict gives way
    to fraction-free elimination of the polynomial matrix over the rational
    function field (fewest-terms pivoting, early exit on a zero
    row/column), which certifies vanishing unconditionally; a nonzero
    determinant gets its witness from exact evaluation of the kernel at
    seeded points in ever wider boxes.

A constant matrix (the middle Hessian of even degree) is decided by its
residue at the all-ones point, exactly; only a zero residue, which p may
produce for a nonzero value, sends it to the exact integer determinant.
A probabilistic vanishing verdict, whatever the matrix's size, states its
error bound (1/64)^DEFAULT_TRIALS + ceil(bits(N)/60) / 2^54.  The first term
is Schwartz-Zippel over F_p, deg/B for each B-wide sample box, multiplied
over the boxes: t = DEFAULT_TRIALS buys one box of width 64 deg and, when
its point reads zero and t >= 2, one of width 64^(t-1) deg, as sure as t
boxes of width 64 deg in two evaluations (every box stays far below p).
The second term is the chance that the prime divides the content of a
nonzero determinant polynomial, whose coefficients are bounded by N, the
product of the rows' coefficient 1-norms.  The prime is
random, not fixed, because a fixed p can divide that content: 2^61-1
divides every value of the order-1 Hessian determinant of
(2^61-1) x0^3 + x1^3 + ... + x12^3.  The Hessians, their kernels, the
certificates and the verdicts of one form are read through its `Analysis`,
which builds each once, decides each order once for both modes and, in exact
mode, eliminates each probabilistic verdict once.  `mixed_hessian` is the
compute body of `an.kernel(k, l)`, which keeps only the compiled matrix, and
of `an.hessian(k, l)`, which keeps the polynomial cells for elimination and
the oracles; `hessian_vanishes` is that of `an.verdict(k)` before
elimination, and `hessian_matrix` reads `an.hessian(k, k)`.  Called
directly, the compute bodies bypass the memo and `counts()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from . import linalg
from .errors import DegreeRangeError
from .polycore import DiffOp, IntMatrix, Monomial, Poly, Record, diff_apply, mono_mul

if TYPE_CHECKING:
    from .analysis import Analysis
    from .lefschetz import ZeroBlock

DEFAULT_EXACT_CUTOFF = 12  # the largest verdict whose JSON shows det_value
DEFAULT_TRIALS = 5
MODES = ("probabilistic", "exact")

Matrix = tuple[tuple[Poly, ...], ...]


def _decimal(x: Fraction) -> Optional[str]:
    """str(x), or None when x has more digits than the interpreter's limit
    on converting an int to text allows."""
    try:
        return str(x)
    except ValueError:
        return None


class VanishingVerdict(Record):
    """Outcome of a determinant-vanishing decision.

    A nonvanishing verdict found by evaluation carries the witness
    (witness_point, prime, residue): residue = det H(witness_point) mod prime
    is nonzero, which proves det H != 0 over Q.  A witness whose prime
    divides the kernel's row scale, or one found after elimination by exact
    evaluation of the kernel, keeps the exact value instead.  `det_value`
    is the exact determinant at the witness point for every nonvanishing
    verdict; unless the decision kept it, it is computed from the witness
    matrix on first access.  The JSON form shows it only up to size
    DEFAULT_EXACT_CUTOFF and the prime and residue above that.  A value
    with more digits than the interpreter converts to text is shown by the
    prime and residue too, or, without a residue, by the bit length of its
    numerator (`det_value_bits`).

    A vanishing verdict names the route that decided it: the zero block
    `certificate`, the hash of the elimination (or constant-matrix)
    transcript, or, for the evaluation route alone, the compounded failure
    bound.  `mode` is read off the verdict, never stored: "probabilistic"
    exactly when it states an `error_bound`, else "exact", so every
    nonvanishing verdict is exact.  `eliminated` records whether polynomial
    elimination ran; it is not part of the serialized verdict.
    `kernel`, the compiled matrix that gives the exact value at the witness
    point on demand when the decision did not keep it (`known_value`), is
    left out of equality, hash and repr (`_fields`); a copy or pickle
    carries it, and computes the exact value anew.
    """

    __slots__ = (
        "vanishes", "witness_point", "prime", "residue", "error_bound",
        "transcript_hash", "certificate", "eliminated", "known_value", "kernel", "_det_value",
    )
    _fields = __slots__[:-2]  # neither the kernel nor its cached value

    def __init__(
        self,
        vanishes: bool,
        witness_point: Optional[tuple[int, ...]] = None,
        prime: Optional[int] = None,
        residue: Optional[int] = None,
        error_bound: Optional[Fraction] = None,
        transcript_hash: Optional[str] = None,
        certificate: Optional[ZeroBlock] = None,
        eliminated: bool = False,
        known_value: Optional[Fraction] = None,
        kernel: Optional[IntMatrix] = None,
    ):
        if not vanishes and witness_point is None:
            raise ValueError("nonvanishing verdict requires a witness point")
        if not vanishes and known_value is None and (not residue or kernel is None):
            raise ValueError("nonvanishing verdict requires a nonzero residue or its value")
        if certificate is not None and not (vanishes and error_bound is None):
            raise ValueError("a zero block proves exact vanishing only")
        Record.__init__(
            self, vanishes, witness_point, prime, residue, error_bound,
            transcript_hash, certificate, eliminated, known_value, kernel,
        )
        object.__setattr__(self, "_det_value", None)  # computed from the kernel on first access

    @property
    def mode(self) -> str:
        return "exact" if self.error_bound is None else "probabilistic"

    @property
    def det_value(self) -> Optional[Fraction]:
        """det H(witness_point) over Q; None for a vanishing verdict."""
        if self.known_value is not None or self.kernel is None:
            return self.known_value
        if self._det_value is None:
            matrix = self.kernel.at(self.witness_point)
            object.__setattr__(self, "_det_value", Fraction(linalg.det_int(matrix), self.kernel.scale))
        return self._det_value

    def to_json_dict(self) -> dict:
        out: dict = {"vanishes": self.vanishes, "mode": self.mode}
        if self.witness_point is not None:
            out["witness_point"] = list(self.witness_point)
        value = None if self.residue and len(self.kernel) > DEFAULT_EXACT_CUTOFF else self.det_value
        text = None if value is None else _decimal(value)
        if text is not None:
            out["det_value"] = text
        elif self.residue:
            out["prime"] = self.prime
            out["residue"] = self.residue
        elif value is not None:
            out["det_value_bits"] = abs(value.numerator).bit_length()
        if self.error_bound is not None:
            out["error_bound"] = str(self.error_bound)
        if self.transcript_hash is not None:
            out["transcript_hash"] = self.transcript_hash
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        return out


def hessian_matrix(an: Analysis, k: int) -> Matrix:
    """Entries of the order-k Hessian over the greedy monomial basis
    `an.basis(k)`, as `an.hessian(k, k)` returns them; call that instead."""
    return an.hessian(k, k)


def mixed_hessian(an: Analysis, k: int, l: int) -> Matrix:
    """Mixed Hessian (a_i b_j (f)) over the greedy bases (a_i) of A_k, (b_j) of A_l.

    The compute body of `an.kernel(k, l)`, which keeps it compiled, and of
    `an.hessian(k, l)`, which keeps the matrix; call those instead.  Its
    entries have degree d-k-l.  Evaluated at the coefficients of a linear
    form L, its rank is the rank of multiplication by L^(d-k-l) from A_k to
    A_(d-l) (Maeno-Watanabe); l = k gives the pure order-k Hessian.  The
    matrix for (l, k) is the transpose of the one for (k, l).  Only the
    cells of `an.pattern(k, l)` are differentiated; every other cell is the
    form's one zero polynomial.
    """
    _require_orders(an.f.degree, k, l)
    rows, cols = an.basis(k).expos, an.basis(l).expos
    derivatives, pattern = an.derivatives, an.pattern(k, l)

    def cells(i: int, start: int) -> list[Poly]:  # row i from column `start` on
        out = [derivatives.zero] * (len(cols) - start)
        for j in pattern[i]:
            if j >= start:
                out[j - start] = derivatives[mono_mul(rows[i], cols[j])]
        return out

    if l != k:
        return tuple(tuple(cells(i, 0)) for i in range(len(rows)))
    return _mirrored(cells(i, i) for i in range(len(rows)))


def _require_orders(d: int, k: int, l: int) -> None:
    if k < 0 or l < 0 or k + l > d:
        raise DegreeRangeError(f"orders ({k}, {l}) out of range for d={d}")


def _mirrored(uppers: Iterable[list[Poly]]) -> Matrix:
    """The symmetric matrix whose i-th row ends with the i-th of `uppers`,
    its cells from the diagonal on; the cells left of the diagonal are
    those of the rows above."""
    out: list[list[Poly]] = []
    for i, upper in enumerate(uppers):
        out.append([row[i] for row in out] + upper)
    return tuple(map(tuple, out))


def hessian_vanishes(an: Analysis, k: int) -> VanishingVerdict:
    """Decide whether the order-k Hessian determinant vanishes identically,
    by the routes that do not read the mode.

    An order k >= 1 with a zero block certificate (`an.key(k)`) is decided
    by it: exact vanishing, with no Hessian assembled.  Otherwise the kernel
    the Analysis compiled is evaluated at the Analysis's seed: a nonzero
    residue or value is exact nonvanishing, and zero at every point is
    probabilistic vanishing.  The compute body of `an.verdict(k)`, which
    keeps the result for both modes and, in exact mode, replaces a
    probabilistic one by elimination's; call that instead.  An order outside
    0..d/2 is refused first, in `mixed_hessian`'s words.
    """
    _require_orders(an.f.degree, k, k)
    if k >= 1 and (cert := an.key(k)) is not None:
        return VanishingVerdict(True, certificate=cert)
    kernel = an.kernel(k, k)
    return _det_vanishes(kernel, degree_bound=len(kernel) * (an.f.degree - 2 * k), seed=an.seed, salt=f"hess:{k}")


def explicit_basis_verdict(an: Analysis, k: int, ops: Sequence[DiffOp]) -> VanishingVerdict:
    """Test oracle for basis independence: the order-k verdict over `ops`, a
    basis of A_k given as degree-k operators (not checked), decided by
    evaluation and, in exact mode, elimination; the zero block is not
    consulted.  Cell (i, j) is ops[i] applied to ops[j] (f)."""
    derived = [diff_apply(a, an.f) for a in ops]
    H = _mirrored([diff_apply(a, g) for g in derived[i:]] for i, a in enumerate(ops))
    kernel = IntMatrix(H)
    verdict = _det_vanishes(kernel, degree_bound=len(H) * (an.f.degree - 2 * k), seed=an.seed, salt=f"hess:{k}")
    if an.mode == "exact" and verdict.error_bound is not None:
        return _eliminated(an, k, H, kernel)
    return verdict


def hess_profile(an: Analysis, *, max_k: Optional[int] = None) -> list[VanishingVerdict]:
    """Vanishing verdicts for every order k = 0 .. floor(d/2), or up to max_k >= 0.

    A cone is profiled over the bases of its quotient like any form."""
    if max_k is not None and max_k < 0:
        raise DegreeRangeError(f"max_k={max_k} is negative")
    top = an.f.degree // 2
    if max_k is not None:
        top = min(top, max_k)
    return [an.verdict(k) for k in range(top + 1)]


class ConeReport(NamedTuple):
    """Linear-dependence test on the first partial derivatives."""

    is_cone: bool
    witness: Optional[tuple[Fraction, ...]] = None  # dependency coefficients

    def to_json_dict(self) -> dict:
        out: dict = {"is_cone": self.is_cone}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        return out


def is_cone(an: Analysis) -> ConeReport:
    """True iff the first partials are linearly dependent, with a witness.

    The candidates of the basis of A_1 are X_0, X_1, ... in that order, so f
    is a cone exactly when some X_i is missing from it.  The partial by the
    first missing X_i is a combination of the kept partials before it, so
    its coordinates against the basis's span give the dependency and are
    zero on the partials kept after it.
    """
    n = len(an.f.vars)
    a1 = an.basis(1)
    if len(a1) == n:
        return ConeReport(False, None)
    i = next((j for j, e in enumerate(a1.expos) if not e[j]), len(a1))
    unit = tuple(int(j == i) for j in range(n))
    q, nums = a1.span.dependency(an.derivatives[unit].coeff_map())
    witness = [-nums.get(t, 0) for t in range(i)] + [q] + [0] * (n - i - 1)
    lead = next(c for c in witness if c)
    return ConeReport(True, tuple(Fraction(c, lead) for c in witness))


# -- determinant decisions ---------------------------------------------------


def _det_vanishes(kernel: IntMatrix, *, degree_bound: int, seed: int, salt: str) -> VanishingVerdict:
    """Decide whether the determinant of the compiled matrix `kernel`
    vanishes, by evaluation.  A nonzero residue or value is exact, and zero
    at every point probabilistic vanishing with its error bound."""
    size = len(kernel)
    if size == 0:
        raise ValueError("empty matrix")
    p = _decision_prime(salt, seed)

    if degree_bound == 0:
        # constant matrix: its determinant is the answer, unconditionally
        point = (1,) * kernel.nvars
        verdict = _witness(kernel, point, p)
        if verdict is not None:
            return verdict
        value = Fraction(linalg.det_int(kernel.at(point)), kernel.scale)
        if value:  # p divides the nonzero determinant
            return VanishingVerdict(False, witness_point=point, known_value=value)
        return VanishingVerdict(True, transcript_hash=_hash_transcript(["constant-matrix", str(size)]))

    # the budget of DEFAULT_TRIALS boxes of width 64 deg, spent in at most
    # two: the first at that width, the second 64^(t-2) times as wide
    boxes = [64 * degree_bound, 64 ** (DEFAULT_TRIALS - 1) * degree_bound][:DEFAULT_TRIALS]
    rng_base = f"{salt}:{seed}"
    for trial, box in enumerate(boxes):
        rng = random.Random(f"{rng_base}:{trial}")
        point = tuple(rng.randint(1, box) for _ in range(kernel.nvars))
        verdict = _witness(kernel, point, p)
        if verdict is not None:
            return verdict
    # Schwartz-Zippel over F_p for every box, plus the chance that p
    # divides the content of a nonzero integer determinant polynomial: at
    # most bits/60 primes >= 2^60 do, out of more than 2^54 to draw from
    missed = prod(Fraction(degree_bound, box) for box in boxes)
    bad_primes = -(-kernel.norm_bound.bit_length() // 60)
    return VanishingVerdict(True, error_bound=missed + Fraction(bad_primes, 2**54))


def _witness(kernel: IntMatrix, point: tuple[int, ...], p: int) -> Optional[VanishingVerdict]:
    """The nonvanishing verdict at `point` if the kernel's integer determinant
    there is nonzero mod p; None otherwise.

    The residue reported is that of the rational determinant, the integer one
    over the kernel's scale.  When p divides the scale that residue is
    undefined, and the exact value is kept instead.
    """
    matrix = kernel.at(point)
    residue = linalg.det_mod(matrix, p)
    if not residue:
        return None
    if kernel.scale % p:
        residue = residue * pow(kernel.scale, -1, p) % p
        return VanishingVerdict(False, witness_point=point, prime=p, residue=residue, kernel=kernel)
    value = Fraction(linalg.det_int(matrix), kernel.scale)
    return VanishingVerdict(False, witness_point=point, known_value=value)


@lru_cache(maxsize=256)
def _decision_prime(salt: str, seed: int) -> int:
    """A prime drawn uniformly from [2^60, 2^61), determined by salt and seed.

    A draw takes about 0.3 ms, and every form analysed at one seed draws the
    same few primes (the salt is the order), so the draws are cached.
    """
    rng = random.Random(f"prime:{salt}:{seed}")
    while True:
        candidate = rng.randrange(2**60 + 1, 2**61, 2)
        if _is_prime(candidate):
            return candidate


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2..37, deterministic below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _eliminated(an: Analysis, k: int, entries: Sequence[Sequence[Poly]], kernel: IntMatrix) -> VanishingVerdict:
    """The exact verdict, by elimination, on the order-k matrix `entries` of
    `an`'s form, compiled as `kernel`, which evaluation found zero at every
    point; exact mode's replacement for the probabilistic verdict."""
    vanishes, transcript, _ = poly_det_vanishes(entries)
    if vanishes:
        return VanishingVerdict(True, transcript_hash=_hash_transcript(transcript), eliminated=True)
    # nonzero, yet zero at every sampled point: search wider boxes, each
    # twice the last, until the kernel's determinant is nonzero
    bound = 64 * len(entries) * (an.f.degree - 2 * k)
    attempt = 0
    while True:
        rng = random.Random(f"witness:hess:{k}:{an.seed}:{attempt}")
        point = tuple(rng.randint(1, bound) for _ in range(kernel.nvars))
        value = linalg.det_int(kernel.at(point))
        if value:
            return VanishingVerdict(
                False, witness_point=point, known_value=Fraction(value, kernel.scale), eliminated=True
            )
        attempt += 1
        bound *= 2


def _hash_transcript(lines: Sequence[str]) -> str:
    # only elimination and the constant-matrix route hash a transcript, so the
    # import (OpenSSL) is paid by the runs that take them
    import hashlib

    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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
