import random
from fractions import Fraction
from math import gcd

import hypothesis
import hypothesis.strategies as st
import pytest

from lefschetz_lab.analysis import Analysis
from lefschetz_lab.lefschetz import LevelCheck, rank_at
from lefschetz_lab.oracles import linear_change
from lefschetz_lab.polycore import Poly, VariableSet, diff_apply, mono_basis, poly_sum

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None
)
hypothesis.settings.register_profile(
    "thorough", max_examples=200, deadline=None
)
hypothesis.settings.load_profile("default")


def prob(f):
    """The probabilistic-mode Analysis of f at seed 0."""
    return Analysis(f, "probabilistic", 0)


def exact(f):
    """The exact-mode Analysis of f at seed 0."""
    return Analysis(f, "exact", 0)


def count_analyses(monkeypatch):
    """Patch `Analysis.__init__` to record the mode of every Analysis built
    from now on; returns the list it appends to."""
    built = []
    init = Analysis.__init__

    def counting(self, f, mode, seed):
        built.append(mode)
        init(self, f, mode, seed)

    monkeypatch.setattr(Analysis, "__init__", counting)
    return built


def wlp_check_all_levels(an, L):
    """Does every consecutive map `L : A_i -> A_{i+1}` have maximal rank?

    The oracle of `wlp_check_element`, which ranks only the middle map.  The
    map at level d-1-i has the transposed Hessian of the map at level i
    and, by Gorenstein symmetry, the same maximal rank, so only the levels
    i <= (d-1)/2 are ranked and the rest mirror them.
    """
    d = an.f.degree
    hv = an.hilbert()
    ranks = [rank_at(an, i, d - 1 - i, L) for i in range((d + 1) // 2)]
    checks = [
        LevelCheck(i, 1, ranks[min(i, d - 1 - i)], min(hv[i], hv[i + 1]))
        for i in range(d)
    ]
    return all(c.maximal for c in checks), checks


def catalecticant_reference(f, k):
    """The catalecticant of f in degree k built by differentiation: column j
    is the j-th degree-k monomial operator applied to f by `diff_apply`,
    read off at the degree-(d-k) monomials, both in `mono_basis` order."""
    dual = f.vars.dual()
    columns = [diff_apply(Poly.monomial(dual, e), f).coeff_map() for e in mono_basis(dual, k)]
    return [[g.get(m, Fraction(0)) for g in columns] for m in mono_basis(f.vars, f.degree - k)]


def linear_change_reference(f, matrix):
    """f(Mx) by `Poly` arithmetic: each x_i becomes the linear form of row i
    of M, and each term of f the product of those forms' powers."""
    vs = f.vars
    images = [
        poly_sum(vs, [Poly.variable(vs, j).scale(Fraction(c)) for j, c in enumerate(row) if c])
        for row in matrix
    ]
    terms = []
    for expo, coeff in f.coeff_map().items():
        term = Poly.constant(vs, coeff)
        for image, e in zip(images, expo):
            term = term * image**e
        terms.append(term)
    return poly_sum(vs, terms)


def dense_coords(dep, size):
    """A `SparseSpan.dependency` result (q, {t: n_t}) as the list of its
    `size` coefficients n_t / q, after checking that it is in lowest terms
    (q > 0, gcd 1, no zero n_t, every t < size); None stays None."""
    if dep is None:
        return None
    q, nums = dep
    assert q > 0 and gcd(q, *nums.values()) == 1
    assert all(nums.values()) and all(0 <= t < size for t in nums)
    return [Fraction(nums.get(t, 0), q) for t in range(size)]


def sheared_wlpodd45(seed):
    """wlpodd(4,5) after one u-row shear u_i -> u_i + c x_j, drawn from
    `shear:{seed}`.  Its order-2 Hessian (12x12)
    vanishes, but its pattern has a perfect matching, so no zero block
    certifies it: evaluation finds it zero and exact mode eliminates it, in
    a few hundredths of a second at seeds 0-2."""
    from lefschetz_lab.families import gen_wlpodd

    f = gen_wlpodd(4, 5).f
    n, n_x = len(f.vars), sum(name[0] == "x" for name in f.vars.names)
    rng = random.Random(f"shear:{seed}")
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    shear[rng.randrange(n_x, n)][rng.randrange(n_x)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return linear_change(f, shear)


@st.composite
def homogeneous_polys(
    draw,
    min_vars=2,
    max_vars=4,
    min_degree=1,
    max_degree=5,
    max_terms=6,
):
    nvars = draw(st.integers(min_vars, max_vars))
    degree = draw(st.integers(min_degree, max_degree))
    vs = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    monos = mono_basis(vs, degree)
    count = draw(st.integers(1, min(max_terms, len(monos))))
    chosen = draw(
        st.lists(st.sampled_from(monos), min_size=count, max_size=count, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.integers(-4, 4).filter(lambda c: c != 0),
            min_size=count,
            max_size=count,
        )
    )
    return Poly(vs, dict(zip(chosen, coeffs)))


@st.composite
def rational_polys(draw, **kwargs):
    """`homogeneous_polys` with each coefficient divided by a drawn 1..6."""
    f = draw(homogeneous_polys(**kwargs))
    return Poly(f.vars, {e: Fraction(c, draw(st.integers(1, 6))) for e, c in f.coeff_map().items()})


@st.composite
def cone_polys(draw, max_vars=4, max_degree=4):
    """Cones: forms in one variable fewer, with the missing variable mixed
    back in by a unit upper triangular change of coordinates."""
    g = draw(homogeneous_polys(min_vars=1, max_vars=max_vars - 1, max_degree=max_degree))
    n = len(g.vars) + 1
    vs = VariableSet(tuple(f"x{i}" for i in range(n)))
    f = Poly(vs, {e + (0,): c for e, c in g.coeff_map().items()})
    m = [[1 if j == i else (draw(st.integers(-2, 2)) if j > i else 0) for j in range(n)] for i in range(n)]
    return linear_change(f, m)


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.lists(
                st.fractions(
                    min_value=-5, max_value=5, max_denominator=4
                ),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    return entries


@pytest.fixture
def rng():
    return random.Random(12345)
