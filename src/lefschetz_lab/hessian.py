"""Higher Hessian matrices and exact/probabilistic vanishing decisions.

The order-k Hessian of f is the symmetric matrix (a_i a_j (f)) over an ordered
basis (a_i) of the degree-k graded piece.  Whether its determinant vanishes
identically does not depend on the basis, so verdicts are reported without
one.  Both modes decide along one path of three routes, taken in order:

  * certificate: for k >= 1 on a form with a declared x/u split, the
    form's u-subring overflow certificate (`an.key(k)`, the
    Gordan-Noether-type argument the paper's constructions rest on) proves
    vanishing exactly in either mode; the Hessian is then neither assembled
    nor compiled;
  * evaluation: evaluate the matrix's integer kernel (`polycore.IntMatrix`,
    rows scaled to integer coefficients; the form's `Analysis` compiles it
    once) at seeded integer points and take the determinant modulo a prime p
    drawn at random from [2^60, 2^61) for this decision.  A nonzero residue
    proves the determinant nonzero over Q, an unconditional nonvanishing
    witness in either mode.  The verdict carries it as (point, p, residue),
    the residue being that of the rational determinant (the row scale is
    divided out mod p), so it replays from the matrix alone; the exact
    value is not computed for the decision;
  * elimination: when every residue is zero, fraction-free elimination of
    the polynomial matrix over the rational function field (fewest-terms
    pivoting, early exit on a zero row/column) certifies vanishing
    unconditionally; a nonzero determinant gets its witness from exact
    evaluation of the kernel at seeded points in ever wider boxes.

A constant matrix (the middle Hessian of even degree) is decided by its
residue at the all-ones point, exactly; only a zero residue, which p may
produce for a nonzero value, sends it to the exact integer determinant.
Elimination runs only after all evaluations were zero, and then only in exact
mode; a probabilistic vanishing verdict, whatever the matrix's size, states
its error bound (deg/B)^DEFAULT_TRIALS + ceil(bits(N)/60) / 2^54: Schwartz-Zippel
over F_p for the B-wide sample box, plus the chance that the prime divides
the content of a nonzero determinant polynomial, whose coefficients are
bounded by N, the product of the rows' coefficient 1-norms.  The prime is
random, not fixed, because a fixed p can divide that content: 2^61-1
divides every value of the order-1 Hessian determinant of
(2^61-1) x0^3 + x1^3 + ... + x12^3.  The Hessians, their kernels, the
certificates and the verdicts of one form are read through its `Analysis`,
which builds each once and decides each once per mode.  `mixed_hessian` and
`hessian_vanishes` are the compute bodies of `an.hessian(k, l)` and
`an.verdict(k)`, and `hessian_matrix` reads `an.hessian(k, k)`; called
directly, the compute bodies bypass the memo and `counts()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from . import linalg
from .errors import DegreeRangeError
from .polycore import DiffOp, IntMatrix, Monomial, Poly, diff_apply, mono_mul

if TYPE_CHECKING:
    from .analysis import Analysis
    from .lefschetz import KeyCertificate

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


class VanishingVerdict:
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

    A vanishing verdict names the route that decided it: the u-subring
    overflow `certificate` (exact in either mode), the hash of the
    elimination transcript (exact), or, for the evaluation route alone, the
    compounded failure bound (probabilistic).  `eliminated` records whether
    polynomial elimination ran; it is not part of the serialized verdict.
    `kernel`, the compiled matrix that gives the exact value at the witness
    point on demand when the decision did not keep it (`known_value`), is
    left out of equality, hash and repr.
    """

    __slots__ = (
        "vanishes", "mode", "witness_point", "prime", "residue", "error_bound",
        "transcript_hash", "certificate", "eliminated", "known_value", "kernel", "_det_value",
    )

    def __init__(
        self,
        vanishes: bool,
        mode: str,  # "exact" | "probabilistic"
        witness_point: Optional[tuple[int, ...]] = None,
        prime: Optional[int] = None,
        residue: Optional[int] = None,
        error_bound: Optional[Fraction] = None,
        transcript_hash: Optional[str] = None,
        certificate: Optional[KeyCertificate] = None,
        eliminated: bool = False,
        known_value: Optional[Fraction] = None,
        kernel: Optional[IntMatrix] = None,
    ):
        if not vanishes and witness_point is None:
            raise ValueError("nonvanishing verdict requires a witness point")
        if not vanishes and known_value is None and (not residue or kernel is None):
            raise ValueError("nonvanishing verdict requires a nonzero residue or its value")
        if mode == "exact" and error_bound is not None:
            raise ValueError("exact verdicts carry no error bound")
        if certificate is not None and not (vanishes and mode == "exact"):
            raise ValueError("a key certificate proves exact vanishing only")
        setter = object.__setattr__
        setter(self, "vanishes", vanishes)
        setter(self, "mode", mode)
        setter(self, "witness_point", witness_point)
        setter(self, "prime", prime)
        setter(self, "residue", residue)
        setter(self, "error_bound", error_bound)
        setter(self, "transcript_hash", transcript_hash)
        setter(self, "certificate", certificate)
        setter(self, "eliminated", eliminated)
        setter(self, "known_value", known_value)
        setter(self, "kernel", kernel)
        setter(self, "_det_value", None)  # computed from the kernel on first access

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VanishingVerdict is immutable")

    def _key(self) -> tuple:
        return (
            self.vanishes, self.mode, self.witness_point, self.prime, self.residue, self.error_bound,
            self.transcript_hash, self.certificate, self.eliminated, self.known_value,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VanishingVerdict:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"VanishingVerdict(vanishes={self.vanishes!r}, mode={self.mode!r}, "
            f"witness_point={self.witness_point!r}, prime={self.prime!r}, residue={self.residue!r}, "
            f"error_bound={self.error_bound!r}, transcript_hash={self.transcript_hash!r}, "
            f"certificate={self.certificate!r}, eliminated={self.eliminated!r}, "
            f"known_value={self.known_value!r})"
        )

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

    The compute body of `an.hessian(k, l)`, which keeps the matrix; call
    that instead.  Its entries have degree d-k-l.  Evaluated at the
    coefficients of a linear form L, its rank is the rank of multiplication
    by L^(d-k-l) from A_k to A_(d-l) (Maeno-Watanabe); l = k gives the pure
    order-k Hessian.  The matrix for (l, k) is the transpose of the one for
    (k, l).
    """
    _require_orders(an.f.degree, k, l)
    derivatives = an.derivatives
    rows = an.basis(k).expos
    if l != k:
        cols = an.basis(l).expos
        return tuple(tuple([derivatives[mono_mul(a, b)] for b in cols]) for a in rows)
    return _mirrored([derivatives[mono_mul(a, b)] for b in rows[i:]] for i, a in enumerate(rows))


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
    """Decide whether the order-k Hessian determinant vanishes identically.

    On a split form, an order k >= 1 with a key certificate (`an.key(k)`)
    is decided by it: exact vanishing in either mode, with no Hessian
    assembled.  Otherwise the decision evaluates the kernel the Analysis
    compiled at the Analysis's seed and, in exact mode where every value is
    zero, eliminates.  The compute body of `an.verdict(k)`, which keeps the
    result; call that instead.  This function decides afresh on every call,
    though the key search itself is memoized.  An order outside 0..d/2 is
    refused before the key search, in `mixed_hessian`'s words, so a split
    form and the same form without its split give the same error.
    """
    _require_orders(an.f.degree, k, k)
    if k >= 1 and an.f.vars.has_split:
        cert = an.key(k)
        if cert is not None:
            return VanishingVerdict(True, "exact", certificate=cert)
    H = hessian_matrix(an, k)
    return _det_vanishes(
        H,
        degree_bound=len(H) * (an.f.degree - 2 * k),
        mode=an.mode,
        seed=an.seed,
        salt=f"hess:{k}",
        kernel=an.kernel(k, k),
    )


def explicit_basis_verdict(an: Analysis, k: int, ops: Sequence[DiffOp]) -> VanishingVerdict:
    """Test oracle for basis independence: the order-k verdict over `ops`, a
    basis of A_k given as degree-k operators (not checked), decided by
    evaluation and, in exact mode, elimination; the key certificate is not
    consulted.  Cell (i, j) is ops[i] applied to ops[j] (f)."""
    derived = [diff_apply(a, an.f) for a in ops]
    H = _mirrored([diff_apply(a, g) for g in derived[i:]] for i, a in enumerate(ops))
    return _det_vanishes(
        H,
        degree_bound=len(H) * (an.f.degree - 2 * k),
        mode=an.mode,
        seed=an.seed,
        salt=f"hess:{k}",
        kernel=IntMatrix(H),
    )


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


def _det_vanishes(
    entries: Sequence[Sequence[Poly]],
    *,
    degree_bound: int,
    mode: str,
    seed: int,
    salt: str,
    kernel: IntMatrix,
) -> VanishingVerdict:
    """Decide det(entries) == 0; `kernel` is the entries compiled for evaluation."""
    size = len(entries)
    if size == 0:
        raise ValueError("empty matrix")
    p = _decision_prime(salt, seed)

    if degree_bound == 0:
        # constant matrix: its determinant is the answer, unconditionally
        point = (1,) * kernel.nvars
        verdict = _witness(kernel, point, p, "exact")
        if verdict is not None:
            return verdict
        value = Fraction(linalg.det_int(kernel.at(point)), kernel.scale)
        if value:  # p divides the nonzero determinant
            return VanishingVerdict(False, "exact", witness_point=point, known_value=value)
        return VanishingVerdict(
            True, "exact", transcript_hash=_hash_transcript(["constant-matrix", str(size)])
        )

    bound_B = 64 * degree_bound
    rng_base = f"{salt}:{seed}"
    for trial in range(DEFAULT_TRIALS):
        rng = random.Random(f"{rng_base}:{trial}")
        point = tuple(rng.randint(1, bound_B) for _ in range(kernel.nvars))
        verdict = _witness(kernel, point, p, mode)
        if verdict is not None:
            return verdict
    if mode == "exact":
        return _exact_verdict(entries, kernel, degree_bound, seed, salt)
    # Schwartz-Zippel over F_p for every trial, plus the chance that p
    # divides the content of a nonzero integer determinant polynomial: at
    # most bits/60 primes >= 2^60 do, out of more than 2^54 to draw from
    per_trial = Fraction(degree_bound, bound_B)
    bad_primes = -(-kernel.norm_bound.bit_length() // 60)
    return VanishingVerdict(
        True, "probabilistic", error_bound=per_trial**DEFAULT_TRIALS + Fraction(bad_primes, 2**54)
    )


def _witness(
    kernel: IntMatrix, point: tuple[int, ...], p: int, mode: str
) -> Optional[VanishingVerdict]:
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
        return VanishingVerdict(
            False, mode, witness_point=point, prime=p, residue=residue, kernel=kernel
        )
    value = Fraction(linalg.det_int(matrix), kernel.scale)
    return VanishingVerdict(False, mode, witness_point=point, known_value=value)


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


def _exact_verdict(
    entries: Sequence[Sequence[Poly]], kernel: IntMatrix, degree_bound: int, seed: int, salt: str
) -> VanishingVerdict:
    vanishes, transcript, _ = poly_det_vanishes(entries)
    if vanishes:
        return VanishingVerdict(
            True, "exact", transcript_hash=_hash_transcript(transcript), eliminated=True
        )
    # nonzero, yet zero at every sampled point: search wider boxes, each
    # twice the last, until the kernel's determinant is nonzero
    bound = 64 * degree_bound
    attempt = 0
    while True:
        rng = random.Random(f"witness:{salt}:{seed}:{attempt}")
        point = tuple(rng.randint(1, bound) for _ in range(kernel.nvars))
        value = linalg.det_int(kernel.at(point))
        if value:
            return VanishingVerdict(
                False,
                "exact",
                witness_point=point,
                known_value=Fraction(value, kernel.scale),
                eliminated=True,
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
        c = rem[lt_r] / cb
        quo[expo] = quo.get(expo, Fraction(0)) + c
        for eb, vb in b_terms.items():
            e = tuple(x + y for x, y in zip(expo, eb))
            nv = rem.get(e, Fraction(0)) - c * vb
            if nv:
                rem[e] = nv
            else:
                rem.pop(e, None)
    return Poly(a.vars, quo)
