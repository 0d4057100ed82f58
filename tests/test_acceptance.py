"""Acceptance suite: every criterion fixture runs at its stated tolerance.

All checks are exact-arithmetic (zero tolerance).  A vanishing verdict is
exact when a zero block certifies it; otherwise, in probabilistic mode,
it comes from evaluation alone, never from elimination, and carries its
compounded error bound, below 1e-9.  One pass/fail line is printed per
fixture; per-criterion wall-clock budgets are asserted at the end.
"""

import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import lefschetz_lab.analysis as analysis_mod
from lefschetz_lab.apolar import hilbert_vector
from lefschetz_lab.families import gen_wlpodd
from lefschetz_lab.hessian import DEFAULT_TRIALS, hessian_vanishes
from lefschetz_lab.reproduce import FIXTURES, SuiteConfig, run_suite

from conftest import count_analyses, prob, sheared_wlpodd45

CONFIG = SuiteConfig(seed=0, mode="probabilistic")

# wall-clock budgets per criterion, seconds
BUDGETS = {1: 1.0, 2: 1.0, 3: 300.0, 4: 60.0, 5: 300.0, 6: 300.0, 7: 60.0, 8: 600.0, 9: 300.0}

_elapsed: dict[int, float] = {}


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.fixture_id)
def test_acceptance_fixture(fixture):
    start = time.perf_counter()
    passed, detail = fixture.run(CONFIG)
    seconds = time.perf_counter() - start
    _elapsed[fixture.criterion] = _elapsed.get(fixture.criterion, 0.0) + seconds
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion-{fixture.criterion} {fixture.fixture_id} ({seconds * 1000:.0f} ms): {detail}")
    assert passed, f"{fixture.fixture_id}: {detail}"


# the suite's fixtures, in table order: (fixture_id, criterion)
EXPECTED_FIXTURES = (
    [("ikeda/full", 1), ("perazzo/vanishing-noncone", 2)]
    + [(f"exceptional/n{n}-d{d}-k{k}", 3) for n, d, k in (
        (3, 5, 2), (3, 6, 2), (3, 7, 2), (3, 7, 3), (3, 8, 2),
        (3, 8, 3), (3, 9, 2), (3, 9, 3), (3, 9, 4), (4, 8, 3))]
    + [(f"gnp/lemma-k{k}-e{e}", 4) for k, e in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))]
    + [(f"gnp/maximal-m{m}-e{e}", 4) for m in (2, 3) for e in (2, 3)]
    + [("gnp/minimal-dimA1", 4), ("gnp/boundary-k-equals-e", 4)]
    + [(f"wlpodd/N{N}-d{d}", 5) for N, d in ((4, 5), (6, 5), (5, 7))]
    + [(f"thmwlp/N{N}-d{d}", 6) for N, d in ((5, 4), (4, 6), (3, 8))]
    + [(f"prop44/case-{c}", 7) for c in ("i", "ii", "iii")]
    + [(f"properties/{name}", 8) for name in (
        "hilbert-symmetry", "euler-identity", "rank-consistency", "basis-change",
        "variable-change", "noncone-nonvanishing", "separated-additivity")]
    + [("modes/agreement", 9)]
)


def test_fixture_table_is_pinned():
    assert len(EXPECTED_FIXTURES) == 40
    assert [(f.fixture_id, f.criterion) for f in FIXTURES] == EXPECTED_FIXTURES


@pytest.mark.parametrize("mode,expected", [
    ("probabilistic", ["probabilistic"]),
    ("exact", ["probabilistic", "exact"]),
])
def test_family_row_reuses_the_generators_analysis(monkeypatch, mode, expected):
    # the replay in the generating mode and the never-injective check both
    # read the Analysis that verified the instance
    row = next(f for f in FIXTURES if f.fixture_id == "wlpodd/N4-d5")
    built = count_analyses(monkeypatch)
    assert row.run(SuiteConfig(0, mode))[0]
    assert built == expected


@pytest.mark.parametrize("mode", ["probabilistic", "exact"])
def test_family_rows_build_one_analysis_per_mode(monkeypatch, mode):
    built = count_analyses(monkeypatch)
    for fixture in FIXTURES:
        if fixture.criterion > 7:
            continue
        built.clear()
        assert fixture.run(SuiteConfig(0, mode))[0]
        assert all(built.count(m) <= 1 for m in built), (fixture.fixture_id, built)


@pytest.mark.parametrize("mode", ["probabilistic", "exact"])
def test_family_rows_compute_each_basis_and_scan_once(monkeypatch, mode):
    # generation, replay and the never-injective check of a row, and both
    # sides of the agreement fixture, read one memo of the mode-free pieces
    calls = Counter()
    for name in ("ak_basis", "zero_pattern"):
        def counting(an, *orders, _name=name, _real=getattr(analysis_mod, name)):
            calls[_name, an.f, orders] += 1
            return _real(an, *orders)

        monkeypatch.setattr(analysis_mod, name, counting)
    for fixture in FIXTURES:
        if fixture.criterion == 8:
            continue
        calls.clear()
        assert fixture.run(SuiteConfig(0, mode))[0]
        repeated = sorted((name, f.to_text(), k) for (name, f, k), n in calls.items() if n > 1)
        assert not repeated, (fixture.fixture_id, repeated)


def test_criterion_time_budgets():
    assert set(_elapsed) == set(BUDGETS), "some criterion produced no fixtures"
    for criterion, budget in BUDGETS.items():
        assert _elapsed[criterion] <= budget, (
            f"criterion {criterion} took {_elapsed[criterion]:.1f}s > {budget}s"
        )


def test_probabilistic_error_bound_below_threshold():
    # five trials at 64x the determinant degree compound below 1e-9
    assert Fraction(1, 64) ** DEFAULT_TRIALS < Fraction(1, 10**9)
    # with no zero block the vanishing order is decided by evaluation alone
    verdict = hessian_vanishes(prob(sheared_wlpodd45(0)), 2)
    assert verdict.vanishes
    assert verdict.error_bound is not None and verdict.error_bound < Fraction(1, 10**9)


def test_split_middle_hessian_is_certified_exactly():
    # its zero block decides it: exact, no error bound
    verdict = hessian_vanishes(prob(gen_wlpodd(5, 7).f), 3)
    assert verdict.vanishes and verdict.mode == "exact"
    assert verdict.certificate is not None and verdict.error_bound is None


def test_odd_case_hilbert_formula_is_corrected():
    """The stated odd-N closed form is infeasible; the computed entries are used.

    For N = 5, d = 7 the closed form 2k + C(N-1+k, N-1) would give h_1 = 7,
    exceeding the number of variables (6), and 41 at the middle, exceeding
    dim A_3 of any form in 6 variables of degree 7 evaluated there.  The
    construction's actual dimensions, 2k + C(N-2+k, N-2) with one drop at the
    middle (the q-th power of the last paired x-variable annihilates f),
    are asserted instead, against independently computed ranks.
    """
    inst = gen_wlpodd(5, 7)
    computed = hilbert_vector(prob(inst.f)).dims
    assert computed == (1, 6, 14, 25, 25, 14, 6, 1)
    assert computed == inst.manifest.hilbert
    literal = tuple(2 * k + comb(4 + k, 4) for k in (1, 2, 3))
    assert literal == (7, 19, 41)
    assert literal[0] > len(inst.f.vars.names)  # impossible as a dimension
    assert computed[1:4] != literal
