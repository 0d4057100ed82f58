"""One form's analysis: each piece computed once and read by every verdict.

An `Analysis` holds a form f with the decision mode and the seed, and
memoizes what the profile, the Lefschetz verdicts and the certificates read:
the monomial derivatives of f, the A_k bases (each the exponents of its
monomial operators and the span of their derivatives), the Hilbert vector,
the divisor monomials D_j, the zero pattern of each (mixed) Hessian over
D_k x D_l, read off supp(f), and its zero block, the one structural
certificate, which holds for every form with support in supp(f) and h_k at
least f's, the integer kernels of the Hessians, each order's vanishing
verdict, and the sample points.  Trial t's point, `point(t)`, is one pure
function of (f, seed, t) (`sample_point`): every order is evaluated at
point 0 and, if zero there, at point 1, exact mode's witness search reads
the points from DEFAULT_TRIALS on, and the SLP and WLP element searches the
first GENERIC_TRIALS; one decision prime, drawn by the seed (`prime`),
serves every order and every multiplication rank.  A rank is not taken
where a kept verdict already proves its order nonzero (`witnessed`), so
when point 0 decides every order it is the SLP witness, with no
evaluation.  A kernel is the one form of a Hessian that evaluation holds; a
Hessian's polynomial cells are kept only when asked for (`hessian(k, l)`),
by exact elimination and the oracles.  A piece is computed on its first
request by the function or class that defines it (`apolar`'s `ak_basis`
and `hilbert_vector`; `support`'s `divisor_monomials`, `zero_pattern` and
`zero_block`; `lefschetz`'s `key_criterion` and `wlp_obstruction`;
`hessian`'s `mixed_hessian`, `hessian_vanishes` and `sample_point`;
`IntMatrix`) and reused afterwards, so
one report decides each higher Hessian once, compiles each Hessian once for
the vanishing decision and every multiplication rank (`rank_at`), and reads
each pattern once for its block, its assembly and its rank ceiling.  Only
elimination depends on the mode: `in_mode` gives the Analysis of the same
form and seed in another mode, which shares the memo, so a form checked in
both modes computes every piece, and decides every order, once.  A verdict
is decided by one of three routes: the order's zero block (the Hessian is
then neither assembled nor compiled), evaluation of the kernel, or, in
exact mode only, elimination after every evaluation was zero; `counts()`
reports the first and the last.

Every function that reads the bases or the derivatives takes the Analysis in
place of the bare form (and of any mode and seed); the construction on f
alone (`catalecticant`) and the certificate verifier keep taking f.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from .apolar import AkBasis, HilbertVector, ak_basis, hilbert_vector
from .errors import DegreeRangeError, ZeroPolynomialError
from .hessian import (
    MODES, Matrix, VanishingVerdict, _decision_prime, hessian_vanishes, mixed_hessian, sample_point,
)
from .lefschetz import key_criterion, wlp_obstruction
from .polycore import Derivatives, IntMatrix, Monomial, Poly
from .support import ZeroBlock, divisor_monomials, zero_block, zero_pattern

T = TypeVar("T")


class Analysis:
    """The form f, its decision mode and seed, and everything derived from them."""

    def __init__(self, f: Poly, mode: str, seed: int) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if f.is_zero():
            raise ZeroPolynomialError("the zero polynomial has no graded algebra")
        if f.degree == 0:
            raise DegreeRangeError("a constant form has degree 0; the analysis needs degree >= 1")
        self.f = f
        self.mode = mode
        self.seed = seed
        # the decision prime, drawn by the seed: every order's residue and
        # every multiplication rank (`rank_at`) are read mod it
        self.prime = _decision_prime(seed)
        self._memo: dict[tuple, object] = {}
        self._reused = 0
        self.derivatives = Derivatives(f)
        # rank checks taken over Q: the rank mod p met neither full rank nor the zero block's ceiling
        self.rational_ranks = 0

    def in_mode(self, mode: str) -> Analysis:
        """This form and seed in `mode`, sharing the derivatives and the memo.

        No memo key holds a mode: every piece and every order's decision,
        computed by either Analysis, serves both, and only exact mode reads
        the eliminations.  The counts of reuse and of exact rank fallbacks
        stay each Analysis's own.
        """
        if mode == self.mode:
            return self
        other = Analysis(self.f, mode, self.seed)
        other.derivatives, other._memo = self.derivatives, self._memo
        return other

    def _get(self, key: tuple, compute: Callable[[], T]) -> T:
        if key in self._memo:
            self._reused += 1
            return self._memo[key]  # type: ignore[return-value]
        value = self._memo[key] = compute()
        return value

    def basis(self, k: int) -> AkBasis:
        """The greedy basis of A_k, scanned over D_k; it reads no other basis."""
        return self._get(("basis", k), lambda: ak_basis(self, k))

    def hilbert(self) -> HilbertVector:
        return self._get(("hilbert",), lambda: hilbert_vector(self))

    def hessian(self, k: int, l: int) -> Matrix:
        """Entries of the mixed Hessian over the bases of A_k and A_l, for
        the readers that need polynomials: exact elimination and the oracles.
        Evaluation reads `kernel(k, l)`, which does not keep them."""
        return self._get(("hessian", k, l), lambda: mixed_hessian(self, k, l))

    def kernel(self, k: int, l: int) -> IntMatrix:
        """The mixed Hessian over A_k and A_l compiled for integer points."""
        return self._get(("kernel", k, l), lambda: IntMatrix(mixed_hessian(self, k, l)))

    def verdict(self, k: int) -> VanishingVerdict:
        """Whether the order-k Hessian vanishes: the decision both modes share,
        unless it is probabilistic and this mode exact, then elimination's.
        Either way one read is one memo hit, that of the shared decision."""
        verdict = self._get(("verdict", k), lambda: hessian_vanishes(self, k))
        if self.mode == "exact" and verdict.error_bound is not None:
            key = ("elimination", k)
            if key not in self._memo:
                from . import exact

                self._memo[key] = exact._eliminated(self, self.hessian(k, k), self.kernel(k, k))
            verdict = self._memo[key]
        return verdict

    def point(self, t: int) -> tuple[int, ...]:
        """Trial t's sample point (`sample_point`), shared by every order,
        every element search and both modes."""
        return self._get(("point", t), lambda: sample_point(self.f, self.seed, t))

    def witnessed(self, k: int, point: tuple[int, ...]) -> bool:
        """Whether a kept verdict proves the order-k Hessian nonzero at `point`."""
        verdicts = map(self._memo.get, (("verdict", k), ("elimination", k)))
        return any(v is not None and not v.vanishes and v.witness_point == point for v in verdicts)

    def decided(self, k: int) -> bool:
        """Whether order k's vanishing verdict is kept: known without new work."""
        return ("verdict", k) in self._memo

    def divisor_monomials(self, degree: int) -> tuple[Monomial, ...]:
        """D_degree: the degree-`degree` monomials that divide a term of f, in descending lex order."""
        return self._get(("divisor monomials", degree), lambda: divisor_monomials(self, degree))

    def pattern(self, k: int, l: int) -> list[list[int]]:
        """Each row's nonzero columns in the mixed Hessian of (k, l) over D_k x D_l."""
        return self._get(("pattern", k, l), lambda: zero_pattern(self, k, l))

    def block(self, k: int, l: int) -> ZeroBlock:
        """The zero block of the pattern of (k, l), its rows in D_k and columns in D_l."""
        return self._get(("block", k, l), lambda: zero_block(self, k, l))

    def key(self, k: int) -> Optional[ZeroBlock]:
        """The zero block that proves the order-k Hessian vanishes, if one exists."""
        return self._get(("key", k), lambda: key_criterion(self, k))

    def obstruction(self, k: int) -> Optional[ZeroBlock]:
        """The zero block that proves A_k -> A_(k+1) never injective, if one exists."""
        return self._get(("obstruction", k), lambda: wlp_obstruction(self, k))

    def counts(self) -> dict:
        """Hessian orders decided (in either mode), those a zero block
        decided, those eliminated in exact mode (none in probabilistic mode;
        the rest were decided by evaluation), Hessian kernels compiled, memo
        hits, exact rank fallbacks (ranks `rank_at` took over Q: the rank mod
        p was neither maximal nor at its zero block's ceiling), monomial
        derivatives of f computed, basis candidates reduced (|D_k| for each
        basis of A_k built)."""
        verdicts = [v for key, v in self._memo.items() if key[0] == "verdict"]
        return {
            "hessian_decisions": len(verdicts),
            "certified": sum(1 for v in verdicts if v.certificate is not None),
            "eliminations": sum(key[0] == "elimination" for key in self._memo) if self.mode == "exact" else 0,
            "kernels": sum(1 for key in self._memo if key[0] == "kernel"),
            "reused": self._reused,
            "rational_ranks": self.rational_ranks,
            "derivatives": len(self.derivatives) - 1,
            "basis_candidates": sum(b.candidates for key, b in self._memo.items() if key[0] == "basis"),
        }
