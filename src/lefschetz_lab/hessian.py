"""Higher Hessian matrices and exact/probabilistic vanishing decisions.

The order-k Hessian of f is the symmetric matrix (a_i a_j (f)) over an ordered
basis (a_i) of the degree-k graded piece.  Whether its determinant vanishes
identically does not depend on the basis, so verdicts are reported without
one.  A verdict is as certain as the route that decided it, whatever the
mode; the routes are taken in order, and only the last reads the mode:

  * certificate: for 1 <= k < d/2, a zero block of the Hessian's pattern,
    read off supp(f) (`an.key(k)`, over `support`'s patterns), proves
    vanishing exactly; the Hessian is then not built;
  * evaluation: read the determinant of the matrix's integer kernel
    (`polycore.IntMatrix`, which owns the kernel's scale and reduction; the
    form's `Analysis` builds it once, from the Hessian's pattern) at the
    form's point 0 (`an.point(0)`, the same for every order), modulo the
    form's decision prime p, drawn at random by the seed from the primes in
    [2^60, 2^61) that divide no coefficient denominator of f (`an.prime`),
    so no kernel's scale.  Every sample point lies in (F_p^*)^n.  The kernel
    is evaluated mod p (`IntMatrix.det_mod`), at every size.  A nonzero
    residue proves the determinant nonzero over Q, an exact nonvanishing
    witness.  The verdict carries it as (point, p, residue), the residue
    being that of the rational determinant, so it replays from the matrix
    alone.  A zero residue is probabilistic vanishing, with its error bound;
  * elimination: in exact mode only, that probabilistic verdict gives way to
    fraction-free elimination of the kernel's polynomial cells over the
    rational function field (`exact.poly_det_vanishes`: fewest-terms
    pivoting, early exit on a zero row/column), which certifies vanishing
    unconditionally; a nonzero determinant gets its witness from exact
    evaluation of the kernel at the sample points from point 1 on.  The
    bodies over Q live in `exact`, which `an.verdict(k)` loads only when it
    eliminates.

The middle Hessian (2k = d) is the Gram matrix of the perfect pairing
A_k x A_k -> A_d = Q, a nonzero constant (Maeno-Watanabe 2009), decided by
its residue at point 0, or, where p divides it, its value.  A
probabilistic vanishing verdict, whatever the matrix's size, states its
error bound h_k (d-2k) / (p-1) + ceil(bits(N)/60) / 2^54.  The first term
is Schwartz-Zippel over F_p (Schwartz, J. ACM 27 (1980)): a nonzero
polynomial over F_p of degree at most h_k (d-2k) is zero at a uniform
point of (F_p^*)^n with chance at most its degree over p-1.
The second term is the chance that the prime divides the content of the
nonzero integer polynomial s^n det, s the kernel's common scale, whose
coefficients are bounded by N, the product of the scaled rows'
coefficient 1-norms: at most bits(N)/60 primes >= 2^60 do, out of the
more than 2^54 in [2^60, 2^61) left after the fewer than bits(s)/60 that
divide the lcm s of f's denominators.  That term holds over the seed's
draw of p for a form chosen without knowledge of p.  A fixed seed's prime
is public, since every report prints it, and a form built against it
breaks the bound: at seed 0, p * x^4 + y^4 and (x+y)^4 + p * y^4 are
reported with hess^1 = 0 and a bound below 2^-52, yet neither vanishes.
For adversarial input use exact mode, which eliminates every such verdict,
or an unpublished seed.  The prime is random, not fixed, because a fixed p
divides that content for some forms: 2^61-1 divides every value of the
order-1 Hessian determinant of (2^61-1) x0^3 + x1^3 + ... + x12^3.  The
kernels, certificates and verdicts of one form are read through its
`Analysis`, which builds each once, decides each order once for both modes
and, in exact mode, eliminates each probabilistic verdict once.
`mixed_hessian` is the compute body of `an.kernel(k, l)`, the one form of
a Hessian held, whose polynomial cells `an.hessian(k, l)` reads back for
elimination (`exact`) and the oracles; `hessian_vanishes` is that of
`an.verdict(k)` before elimination, `sample_point` that of `an.point(t)`,
and `hessian_matrix` reads `an.hessian(k, k)`.  Called directly, the
compute bodies bypass the memo and `counts()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from .errors import DegreeRangeError
from .polycore import IntMatrix, Monomial, Poly, Record, mono_mul
from .support import ZeroBlock, _require_orders

if TYPE_CHECKING:
    from .analysis import Analysis

MODES = ("probabilistic", "exact")

Matrix = tuple[tuple[Poly, ...], ...]


def _decimal(x: Fraction) -> Optional[str]:
    """str(x), or None when x has more digits than the interpreter's limit
    on converting an int to text allows: a value over Q has no size bound."""
    try:
        return str(x)
    except ValueError:
        return None


class VanishingVerdict(Record):
    """Outcome of a determinant-vanishing decision.

    A nonvanishing verdict found by evaluation carries the witness
    (witness_point, prime, residue): residue = det H(witness_point) mod prime
    is nonzero, which proves det H != 0 over Q.  That is the one shape of an
    evaluation witness, at every size; its value over Q, when wanted, is
    `an.kernel(k, k).det(witness_point)`.  `det_value`, the exact
    determinant at the witness point, is held only where evaluation over Q
    was the route: a middle order (2k = d) whose residue is 0, and a
    witness found after elimination.  Every nonvanishing verdict holds a
    nonzero residue or a nonzero value, and a residue comes with its
    prime.  The JSON form shows the prime and residue, or else the value;
    a value with more digits than the interpreter converts to text is
    shown by the bit length of its numerator (`det_value_bits`).

    A vanishing verdict names the route that decided it: the zero block
    `certificate`, the hash of the elimination transcript, or, for the
    evaluation route alone, its failure bound.  `mode` is read
    off the verdict, never stored: "probabilistic" exactly when it states
    an `error_bound`, else "exact", so every nonvanishing verdict is exact.
    """

    __slots__ = (
        "vanishes", "witness_point", "prime", "residue", "error_bound",
        "transcript_hash", "certificate", "det_value",
    )

    def __init__(
        self,
        vanishes: bool,
        witness_point: Optional[tuple[int, ...]] = None,
        prime: Optional[int] = None,
        residue: Optional[int] = None,
        error_bound: Optional[Fraction] = None,
        transcript_hash: Optional[str] = None,
        certificate: Optional[ZeroBlock] = None,
        det_value: Optional[Fraction] = None,
    ):
        if not vanishes and witness_point is None:
            raise ValueError("nonvanishing verdict requires a witness point")
        if not vanishes and not (residue or det_value):
            raise ValueError("nonvanishing verdict requires a nonzero residue or value")
        if (prime is None) != (residue is None):
            raise ValueError("a residue is read mod its prime: give both or neither")
        if certificate is not None and not (vanishes and error_bound is None):
            raise ValueError("a zero block proves exact vanishing only")
        Record.__init__(
            self, vanishes, witness_point, prime, residue, error_bound,
            transcript_hash, certificate, det_value,
        )

    @property
    def mode(self) -> str:
        return "exact" if self.error_bound is None else "probabilistic"

    def to_json_dict(self) -> dict:
        out: dict = {"vanishes": self.vanishes, "mode": self.mode}
        if self.witness_point is not None:
            out["witness_point"] = list(self.witness_point)
        if self.residue:
            out.update(prime=self.prime, residue=self.residue)
        elif self.det_value is not None:
            text = _decimal(self.det_value)
            if text is not None:
                out["det_value"] = text
            else:
                out["det_value_bits"] = abs(self.det_value.numerator).bit_length()
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


def mixed_hessian(an: Analysis, k: int, l: int) -> IntMatrix:
    """Mixed Hessian (a_i b_j (f)) over the greedy bases (a_i) of A_k, (b_j) of A_l, as a kernel.

    The compute body of `an.kernel(k, l)`; call that instead.  Its entries
    have degree d-k-l.  Evaluated at the coefficients of a linear form L,
    its rank is the rank of multiplication by L^(d-k-l) from A_k to A_(d-l)
    (Maeno-Watanabe); l = k gives the pure order-k Hessian.  The matrix for
    (l, k) is the transpose of the one for (k, l).  Only the cells of
    `an.pattern(k, l)` are filled: each layer element m = a+b in D_(k+l)
    gets a position the first time it occurs, its entry the derivative
    X^m f; every other cell is position 0, the form's one zero polynomial.
    The pattern is over D_k x D_l, and each basis is, by construction, a
    descending-lex subsequence of its D_j: the one `ak_basis`'s scan keeps.
    """
    _require_orders(an.f.degree, k, l)
    rows, cols, pattern = an.basis(k).expos, an.basis(l).expos, an.pattern(k, l)
    spanning_rows, spanning_cols = an.divisor_monomials(k), an.divisor_monomials(l)
    if len(rows) < len(spanning_rows) or len(cols) < len(spanning_cols):
        kept, col_at = set(rows), dict(zip(cols, range(len(cols))))
        position = [col_at.get(b, -1) for b in spanning_cols]
        pattern = [[c for j in js if (c := position[j]) >= 0] for a, js in zip(spanning_rows, pattern) if a in kept]
    index: dict[Monomial, int] = {}  # layer element -> its position in the entries
    cells = []
    for a, js in zip(rows, pattern):
        row = [0] * len(cols)
        for j in js:
            row[j] = index.setdefault(mono_mul(a, cols[j]), len(index) + 1)
        cells.append(row)
    return IntMatrix([an.derivatives.zero, *map(an.derivatives.__getitem__, index)], cells)


def hessian_vanishes(an: Analysis, k: int) -> VanishingVerdict:
    """Decide whether the order-k Hessian determinant vanishes identically,
    by the routes that do not read the mode.

    An order k >= 1 with a zero block certificate (`an.key(k)`) is decided
    by it: exact vanishing, with no Hessian assembled.  Otherwise the kernel
    the Analysis compiled is evaluated at point 0: a nonzero residue is
    exact nonvanishing, and a zero one probabilistic vanishing.  The
    compute body of `an.verdict(k)`, which keeps the result for both modes
    and, in exact mode, replaces a probabilistic one by elimination's; call
    that instead.  An order outside
    0..d/2 is refused first, in `mixed_hessian`'s words.
    """
    _require_orders(an.f.degree, k, k)
    if k >= 1 and (cert := an.key(k)) is not None:
        return VanishingVerdict(True, certificate=cert)
    return _det_vanishes(an, k, an.kernel(k, k))


def hess_profile(an: Analysis, *, max_k: Optional[int] = None) -> list[VanishingVerdict]:
    """Vanishing verdicts for every order k = 0 .. floor(d/2), or up to max_k >= 0.

    A cone is profiled over the bases of its quotient like any form."""
    if max_k is not None and max_k < 0:
        raise DegreeRangeError(f"max_k={max_k} is negative")
    top = an.f.degree // 2
    if max_k is not None:
        top = min(top, max_k)
    return [an.verdict(k) for k in range(top + 1)]


class ConeReport(Record):
    """Linear-dependence test on the first partial derivatives: the
    `witness`, when f is a cone, holds the dependency's coefficients."""

    __slots__ = ("is_cone", "witness")

    def __init__(self, is_cone: bool, witness: Optional[tuple[Fraction, ...]] = None):
        Record.__init__(self, is_cone, witness)

    def to_json_dict(self) -> dict:
        out: dict = {"is_cone": self.is_cone}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        return out


def is_cone(an: Analysis) -> ConeReport:
    """True iff the first partials are linearly dependent, with a witness.

    The candidates of the basis of A_1 are D_1, the X_i whose variable occurs
    in f, in the order X_0, X_1, ..., so f is a cone exactly when some X_i is
    missing from the basis.  The partial by the first missing X_i is zero or
    a combination of the kept partials before it, so its coordinates
    against the basis's span give the dependency and are zero on the
    partials kept after it.
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


def sample_point(f: Poly, seed: int, t: int, p: int) -> tuple[int, ...]:
    """Trial t's point of (F_p^*)^n, the same for every order of f: its
    coordinates are drawn by `seed` and t from [1, p-1], p the decision
    prime.  The compute body of `an.point(t)`."""
    rng = random.Random(f"point:{seed}:{t}")
    return tuple(rng.randrange(1, p) for _ in range(len(f.vars)))


def _det_vanishes(an: Analysis, k: int, kernel: IntMatrix) -> VanishingVerdict:
    """Decide whether the determinant of `kernel`, an order-k Hessian of
    `an`'s form compiled, vanishes, by its residue at point 0 mod the
    form's decision prime p.  A nonzero residue is exact nonvanishing.  A
    zero one is probabilistic vanishing with its error bound, except at the
    middle order (2k = d), a nonzero constant, which p divides: it is
    nonvanishing by its value."""
    point = an.point(0)
    if (verdict := _witness(kernel, point, an.prime)) is not None:
        return verdict
    if 2 * k == an.f.degree:
        # the Gram matrix of the perfect pairing A_k x A_k -> A_d: constant
        # and nonzero, so p divides it
        if value := kernel.det(point):
            return VanishingVerdict(False, witness_point=point, det_value=value)
        raise ArithmeticError("the middle Hessian is singular, yet A_k x A_k -> A_d is a perfect pairing (bug)")
    # Schwartz-Zippel over F_p at a point of (F_p^*)^n, deg/(p-1) for the
    # degree h_k (d-2k), plus the chance that p divides the content of a
    # nonzero integer determinant polynomial: at most bits/60 primes >= 2^60
    # do, out of more than 2^54
    missed = Fraction(len(kernel) * (an.f.degree - 2 * k), an.prime - 1)
    bad_primes = -(-kernel.norm_bound().bit_length() // 60)
    return VanishingVerdict(True, error_bound=missed + Fraction(bad_primes, 2**54))


def _witness(kernel: IntMatrix, point: tuple[int, ...], p: int) -> Optional[VanishingVerdict]:
    """The nonvanishing verdict (point, p, residue) if the kernel's
    determinant at `point` has a nonzero residue mod p (`IntMatrix.det_mod`,
    whatever its size), else None."""
    residue = kernel.det_mod(point, p)
    return VanishingVerdict(False, witness_point=point, prime=p, residue=residue) if residue else None


@lru_cache(maxsize=256)
def _decision_prime(seed: int, denominators: int = 1) -> int:
    """The prime that decides every order of a form analysed at `seed`,
    drawn uniformly from the primes in [2^60, 2^61) that do not divide
    `denominators`, the lcm of the form's coefficient denominators, which
    every kernel's scale divides.  The seed's candidates are tried in one
    sequence, so an integral form gets the first prime drawn.  A draw takes
    about 0.3 ms, so each is cached."""
    rng = random.Random(f"prime:{seed}")
    while True:
        candidate = rng.randrange(2**60 + 1, 2**61, 2)
        if denominators % candidate and _is_prime(candidate):
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


def __getattr__(name: str):
    """`poly_det_vanishes`, which lives in `exact`.  It resolves here only
    because `perfbench/tracer.py` still lists it under `hessian` in
    `TRACED`; no code of the package reads it from this module."""
    if name == "poly_det_vanishes":
        from . import exact

        return exact.poly_det_vanishes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
