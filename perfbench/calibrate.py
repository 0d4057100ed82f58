"""Fixed reference work that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

The benchmark times this process at every boundary between two items.  The
work is stdlib only and independent of lefschetz-lab, so a change to the
program cannot move it.  It imitates the program's four kernels in about
equal parts: fraction-free integer determinants (``linalg.det``), products
of sparse polynomials held as dicts of exponent tuples with ``Fraction``
coefficients (``poly_det_vanishes``), evaluation of such polynomials at
rational points (``eval_poly``), and elimination sweeps over a matrix of
90 000 integers, which lean on the cache as the large ranks do
(``linalg.rank``).  On a shared machine the speed of the host varies by tens
of percent within seconds, and not by the same amount for every kind of
work; dividing an item's time by the calibration times around it removes
most of that drift.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ROUNDS = 1


def int_det(n: int, rng: random.Random) -> int:
    m = [[rng.getrandbits(30) - (1 << 29) for _ in range(n)] for _ in range(n)]
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            return 0
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return m[n - 1][n - 1]


def random_poly(nvars: int, degree: int, terms: int, rng: random.Random) -> dict:
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    return {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for e in rng.sample(monomials, terms)}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            e = tuple(x + y for x, y in zip(a, b))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_products(rng: random.Random) -> int:
    p, q, r = (random_poly(4, 6, 32, rng) for _ in range(3))
    return len(poly_mul(poly_mul(p, q), r))


def evaluate(rng: random.Random) -> Fraction:
    p = random_poly(4, 7, 60, rng)
    total = Fraction(0)
    for _ in range(80):
        pt = [Fraction(rng.randint(1, 500)) for _ in range(4)]
        for expo, coeff in p.items():
            val = coeff
            for x, e in zip(pt, expo):
                if e:
                    val *= x**e
            total += val
    return total


def int_sweeps(n: int, steps: int, rng: random.Random) -> int:
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    prev = 1
    for c in range(steps):
        piv = m[c][c] or 1
        for i in range(c + 1, n):
            row, top, a = m[i], m[c], m[i][c]
            m[i] = [(piv * x - a * y) // prev for x, y in zip(row, top)]
        prev = piv
    return m[n - 1][n - 1]


def main() -> int:
    rng = random.Random(7)
    for _ in range(ROUNDS):
        int_det(44, rng)
        poly_products(rng)
        evaluate(rng)
        int_sweeps(300, 2, rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
