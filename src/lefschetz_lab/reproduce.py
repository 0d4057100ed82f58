"""The reproducibility suite: every acceptance fixture, runnable as a table.

Each fixture re-derives its expected values through the public API and
reports pass/fail with a short detail string.  The suite is deterministic
given (seed, mode); the CLI `reproduce` subcommand and the acceptance tests
both consume `FIXTURES` so they cannot drift apart.

The paper's constructions (criteria 1-7) are rows of data: a family kind and
its parameters, built by `families.generate` and checked by
`replay_manifest` against the instance's own manifest, in exact mode where
the row asks for it; a manifest whose weak property fails also gets the
check that the failing map has a kernel at every sampled linear form, ranked
on its mixed Hessian (`rank_at`).  Both read the generator's own Analysis,
the replay in the row's mode (`Analysis.in_mode`), so a row computes each
piece of its form once and decides each Hessian once in either mode.
Only the gnp boundary row keeps a check of its own.

`run_suite` runs the fixtures in up to one process per usable CPU.  Forked
workers take fixture indices from one shared queue and hand their outcomes
back as JSON lines; the table comes back in fixture order, and everything
but `millis` is the same for any number of workers.  `millis` is each
fixture's own time, so the column can sum to more than the wall time.  Each
worker fills the module-level caches (`lru_cache`) of `hessian` and
`polycore` on its own.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .analysis import Analysis
from .apolar import catalecticant
from .errors import InfeasibleParametersError
from .families import (
    FamilyInstance,
    FamilySpec,
    gen_exceptional,
    gen_gnp,
    gen_ikeda,
    gen_perazzo,
    gen_prop44,
    generate,
    replay_manifest,
)
from .hessian import explicit_basis_verdict, is_cone, poly_det_vanishes
from .lefschetz import LinearForm, mult_map, rank_at
from .polycore import (
    Poly,
    VariableSet,
    diff_apply,
    linear_change,
    mono_basis,
    parse_poly,
    poly_sum,
)


class SuiteConfig(NamedTuple):
    seed: int = 0
    mode: str = "probabilistic"


class Fixture(NamedTuple):
    fixture_id: str
    criterion: int
    description: str
    run: Callable[[SuiteConfig], tuple[bool, str]]


class FixtureOutcome(NamedTuple):
    fixture_id: str
    criterion: int
    passed: bool
    detail: str
    millis: float

    def to_json_dict(self) -> dict:
        return {
            "id": self.fixture_id,
            "criterion": self.criterion,
            "passed": self.passed,
            "detail": self.detail,
            "millis": round(self.millis, 3),
        }


def _named(results: Sequence[tuple[str, bool, str]]) -> tuple[bool, str]:
    bad = [name for name, ok, _ in results if not ok]
    if bad:
        return False, "failed: " + ", ".join(bad)
    return True, f"{len(results)} checks"


# -- criteria 1-7: the paper's families, replayed from their manifests --------


MIDDLE_TRIALS = 20


def _random_linear_form(rng: random.Random, n: int, bound: int) -> LinearForm:
    """A nonzero linear form in n variables, coefficients drawn from [-bound, bound]."""
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(n)]
        if any(coeffs):
            return LinearForm(coeffs)


def _middle_never_injective(inst: FamilyInstance, level: int, config: SuiteConfig) -> tuple[bool, str]:
    f = inst.f
    an = inst.analysis  # in any suite mode: bases and ranks over Q ignore it
    h_src = len(an.basis(level))
    worst = 0
    for t in range(MIDDLE_TRIALS):
        L = _random_linear_form(random.Random(f"middle:{config.seed}:{t}"), len(f.vars), 64)
        r = rank_at(an, level, f.degree - 1 - level, L)
        worst = max(worst, r)
        if r >= h_src:
            return False, f"injective at trial {t}"
    return True, f"max rank {worst} < {h_src} over {MIDDLE_TRIALS} linear forms"


def _family_fixture(
    fixture_id: str,
    criterion: int,
    description: str,
    kind: str,
    params: dict,
    mode: Optional[str] = None,
) -> Fixture:
    """Generate the instance and replay its manifest in `mode`, else the suite's."""

    def run(config: SuiteConfig) -> tuple[bool, str]:
        inst = generate(FamilySpec(kind, params, config.seed))
        results = replay_manifest(inst, mode=mode or config.mode)
        if inst.manifest.wlp == "fails":
            level = inst.manifest.wlp_fail_level
            ok, detail = _middle_never_injective(inst, level, config)
            results.append((f"A{level}->A{level + 1} never injective", ok, detail))
        return _named(results)

    return Fixture(fixture_id, criterion, description, run)


def _gnp_boundary(config: SuiteConfig) -> tuple[bool, str]:
    try:
        generate(FamilySpec("gnp", {"m": 2, "k": 2, "e": 2}, config.seed))
    except InfeasibleParametersError as exc:
        return True, f"rejected: {exc}"
    return False, "k = e = 2 should be infeasible (needs e > k)"


# -- criterion 8: randomized property suites ---------------------------------------


RANDOM_FORM_MAX_TERMS = 6
RANDOM_FORM_COEFF_BOUND = 4


def _random_form(rng: random.Random, nvars: int, degree: int) -> Poly:
    """A form in x0..x(nvars-1) with 2..RANDOM_FORM_MAX_TERMS random monomials
    of the given degree and nonzero integer coefficients of absolute value
    at most RANDOM_FORM_COEFF_BOUND."""
    vs = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    monos = mono_basis(vs, degree)
    count = rng.randint(2, min(RANDOM_FORM_MAX_TERMS, len(monos)))
    chosen = rng.sample(monos, count)
    terms = {}
    for mo in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-RANDOM_FORM_COEFF_BOUND, RANDOM_FORM_COEFF_BOUND)
        terms[mo] = c
    return Poly(vs, terms)


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    upper = [[0] * n for _ in range(n)]
    lower = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = rng.choice((-1, 1))
        lower[i][i] = rng.choice((-1, 1))
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(-2, 2)
            lower[j][i] = rng.randint(-2, 2)
    return [
        [sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _prop_hilbert_symmetry(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"sym:{config.seed}")
    for trial in range(100):
        f = _random_form(rng, rng.randint(2, 4), rng.randint(2, 5))
        dims = Analysis(f, config.mode, config.seed).hilbert().dims
        ranks = tuple(linalg.rank(catalecticant(f, k)) for k in range(f.degree + 1))
        if dims != ranks:
            return False, f"catalecticant ranks {ranks} != {dims} at trial {trial}"
    return True, "100 instances"


def _prop_euler(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"euler:{config.seed}")
    for trial in range(100):
        f = _random_form(rng, rng.randint(2, 4), rng.randint(1, 5))
        vs = f.vars
        dual = vs.dual()
        total = poly_sum(
            vs,
            [
                Poly.variable(vs, i) * diff_apply(Poly.variable(dual, i), f)
                for i in range(len(vs))
            ],
        )
        if total != f.scale(f.degree):
            return False, f"Euler identity failed at trial {trial}"
    return True, "100 instances"


def _prop_rank_consistency(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"wat:{config.seed}")
    for trial in range(50):
        f = _random_form(rng, rng.randint(2, 3), rng.randint(2, 5))
        d = f.degree
        k = rng.randint(0, d // 2)
        L = _random_linear_form(rng, len(f.vars), 5)
        an = Analysis(f, config.mode, config.seed)
        hess_rank = rank_at(an, k, k, L)
        mult_rank = linalg.rank(mult_map(an, L, k, d - 2 * k))
        if hess_rank != mult_rank:
            return False, f"rank mismatch {hess_rank} vs {mult_rank} at trial {trial}"
    return True, "50 instances"


def _prop_basis_change(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"basis:{config.seed}")
    for trial in range(50):
        f = _random_form(rng, rng.randint(2, 4), rng.randint(2, 5))
        d = f.degree
        k = rng.randint(1, d // 2)
        an = Analysis(f, config.mode, config.seed)
        expos = an.basis(k).expos
        u = _random_unimodular(rng, len(expos))
        dual = f.vars.dual()
        changed = [Poly(dual, dict(zip(expos, row))) for row in u]
        flag_default = an.verdict(k).vanishes
        flag_changed = explicit_basis_verdict(an, k, changed).vanishes
        if flag_default != flag_changed:
            return False, f"basis change flipped the flag at trial {trial}"
    return True, "50 instances"


def _prop_variable_change(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"varchg:{config.seed}")
    for trial in range(50):
        f = _random_form(rng, rng.randint(2, 3), rng.randint(2, 4))
        d = f.degree
        k = rng.randint(0, d // 2)
        m = _random_unimodular(rng, len(f.vars))
        g = linear_change(f, m)
        a = Analysis(f, config.mode, config.seed).verdict(k).vanishes
        b = Analysis(g, config.mode, config.seed).verdict(k).vanishes
        if a != b:
            return False, f"variable change flipped the flag at trial {trial}"
    return True, "50 instances"


def _prop_noncone_nonvanishing(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"gn:{config.seed}")
    found = 0
    while found < 50:
        f = _random_form(rng, rng.randint(2, 4), rng.randint(3, 5))
        an = Analysis(f, config.mode, config.seed)
        if is_cone(an).is_cone:
            continue
        found += 1
        if an.verdict(1).vanishes:
            return False, f"non-cone form with vanishing Hessian: {f.to_text()}"
    return True, "50 non-cone instances"


def _prop_separated(config: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(f"sep:{config.seed}")
    for trial in range(20):
        d = rng.randint(2, 4)
        a = rng.randint(2, 3)
        b = rng.randint(2, 3)
        g = _random_form(rng, a, d)
        h = _random_form(rng, b, d)
        vs = VariableSet(tuple(f"x{i}" for i in range(a)) + tuple(f"u{i}" for i in range(1, b + 1)))
        terms = {}
        for mo, c in g.coeff_map().items():
            terms[tuple(mo) + (0,) * b] = c
        for mo, c in h.coeff_map().items():
            terms[(0,) * a + tuple(mo)] = terms.get((0,) * a + tuple(mo), 0) + c
        f = Poly(vs, terms)
        dims_f, dims_g, dims_h = (
            Analysis(p, config.mode, config.seed).hilbert().dims for p in (f, g, h)
        )
        for k in range(1, d):
            if dims_f[k] != dims_g[k] + dims_h[k]:
                return False, f"additivity failed at trial {trial}, degree {k}"
    return True, "20 split pairs"


# -- criterion 9: mode agreement -----------------------------------------------


def _mode_agreement(config: SuiteConfig) -> tuple[bool, str]:
    fixtures: list[tuple[str, Analysis, Analysis, int]] = []

    def add(name: str, prob: Analysis) -> None:
        exact = prob.in_mode("exact")
        for k in range(prob.f.degree // 2 + 1):
            if len(prob.basis(k)) <= 8:
                fixtures.append((f"{name}[k={k}]", prob, exact, k))

    # a generated instance brings the probabilistic Analysis it was verified
    # on; its exact side shares every piece and decision, and eliminates
    add("ikeda", gen_ikeda(seed=config.seed).analysis)
    add("perazzo", gen_perazzo(2, 2, 3, seed=config.seed).analysis)
    add("gnp", gen_gnp(2, 2, 1, 2, seed=config.seed).analysis)
    add("exceptional", gen_exceptional(3, 5, 2, seed=config.seed).analysis)
    add("prop44-i", gen_prop44("i", seed=config.seed).analysis)
    vs = VariableSet(("x", "y", "z"))
    add("fermat", Analysis(parse_poly("x^4 + y^4 + z^4", vs), "probabilistic", config.seed))
    e_vs = VariableSet(("x", "y", "z", "u", "v"))
    add("mixed-quartic", Analysis(parse_poly("x*u^3 + y*u^2*v + z*u*v^2 + v^4", e_vs), "probabilistic", config.seed))
    checked = 0
    for name, prob, exact, k in fixtures:
        # the oracle eliminates every matrix, whichever route (certificate,
        # evaluation or elimination) decided each mode's verdict
        oracle = poly_det_vanishes(prob.hessian(k, k))[0]
        if prob.verdict(k).vanishes != oracle or exact.verdict(k).vanishes != oracle:
            return False, f"modes disagree with elimination on {name}"
        checked += 1
    return True, f"{checked} matrices"


# -- registry -------------------------------------------------------------------

FIXTURES: list[Fixture] = (
    [
        _family_fixture("ikeda/full", 1, "profile, Hilbert vector, strong-property failure", "ikeda", {}),
        _family_fixture("perazzo/vanishing-noncone", 2, "classical vanishing Hessian, not a cone",
                        "perazzo", {"m": 2, "n": 2, "d": 3}, mode="exact"),
    ]
    + [
        _family_fixture(f"exceptional/n{n}-d{d}-k{k}", 3,
                        f"orders 2..{k} vanish, orders 1 and {k + 1} do not (n={n}, d={d})",
                        "exceptional", {"n": n, "d": d, "k": k})
        for n, d, k in ((3, 5, 2), (3, 6, 2), (3, 7, 2), (3, 7, 3), (3, 8, 2),
                        (3, 8, 3), (3, 9, 2), (3, 9, 3), (3, 9, 4), (4, 8, 3))
    ]
    + [
        _family_fixture(f"gnp/lemma-k{k}-e{e}", 4, f"five-variable shape, order-{k} Hessian vanishes",
                        "gnp", {"m": 2, "n": 2, "k": k, "e": e}, mode="exact")
        for k, e in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
    ]
    + [
        _family_fixture(f"gnp/maximal-m{m}-e{e}", 4, "maximal-variant codimension formula",
                        "gnp", {"m": m, "k": 1, "e": e, "variant": "maximal"})
        for m in (2, 3) for e in (2, 3)
    ]
    + [
        _family_fixture("gnp/minimal-dimA1", 4, "minimal instances have five essential variables",
                        "gnp", {"m": 2, "n": 2, "k": 1, "e": 2, "variant": "minimal"}),
        Fixture("gnp/boundary-k-equals-e", 4, "k = e rejected", _gnp_boundary),
    ]
    + [
        _family_fixture(f"wlpodd/N{N}-d{d}", 5, "odd socle degree, unimodal, middle map never injective",
                        "wlpodd", {"N": N, "d": d})
        for N, d in ((4, 5), (6, 5), (5, 7))
    ]
    + [
        _family_fixture(f"thmwlp/N{N}-d{d}", 6, "even socle degree, unimodal, never-injective certificate replays",
                        "thmwlp", {"N": N, "d": d})
        for N, d in ((5, 4), (4, 6), (3, 8))
    ]
    + [
        _family_fixture(f"prop44/case-{case}", 7, "vanishing Hessian yet the weak property holds",
                        "prop44", {"case": case}, mode="exact")
        for case in ("i", "ii", "iii")
    ]
    + [
        Fixture("properties/hilbert-symmetry", 8, "Hilbert vectors are symmetric", _prop_hilbert_symmetry),
        Fixture("properties/euler-identity", 8, "sum of x_i d_i f equals deg(f) f", _prop_euler),
        Fixture("properties/rank-consistency", 8, "Hessian rank at a point equals multiplication rank", _prop_rank_consistency),
        Fixture("properties/basis-change", 8, "vanishing flag survives basis changes", _prop_basis_change),
        Fixture("properties/variable-change", 8, "vanishing flag survives coordinate changes", _prop_variable_change),
        Fixture("properties/noncone-nonvanishing", 8, "non-cones in few variables have nonzero Hessian", _prop_noncone_nonvanishing),
        Fixture("properties/separated-additivity", 8, "split-variable Hilbert additivity", _prop_separated),
        Fixture("modes/agreement", 9, "probabilistic and exact flags agree on small matrices", _mode_agreement),
    ]
)


# Each queue record is one fixture index in _RECORD bytes.  The parent writes
# the whole queue before any worker reads, so a pipe buffer (64 KiB on Linux)
# holds 16384 fixtures.
_RECORD = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drain(queue: int, config: SuiteConfig, parent: Optional[int] = None) -> Iterator[tuple[int, FixtureOutcome]]:
    """Run fixtures by the indices read from `queue` until it ends.

    A worker forked from `parent` stops before its next fixture once the
    parent is gone.
    """
    while parent is None or os.getppid() == parent:
        record = os.read(queue, _RECORD)
        if not record:
            return
        index = int.from_bytes(record, "big")
        fixture = FIXTURES[index]
        start = time.perf_counter()
        try:
            passed, detail = fixture.run(config)
        except Exception as exc:  # a crashed fixture is a failed fixture
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        millis = (time.perf_counter() - start) * 1000.0
        yield index, FixtureOutcome(fixture.fixture_id, fixture.criterion, passed, detail, millis)


def _worker(queue: int, out: int, config: SuiteConfig, parent: int, cpu: Optional[int]) -> None:
    """The body of a forked worker, kept to `cpu` if one is given: one JSON
    line per outcome on `out`.

    It leaves only through `os._exit`, so it never flushes the stdout buffer
    it copied from the parent and runs none of the parent's exit handlers.
    """
    code = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        for index, o in _drain(queue, config, parent):
            line = json.dumps([index, o.passed, o.detail, o.millis]) + "\n"
            os.write(out, line.encode())
        code = 0
    finally:
        os._exit(code)


def _status(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"exit status {code}" if code >= 0 else f"signal {-code}"


def run_suite(config: SuiteConfig) -> list[FixtureOutcome]:
    """Run every fixture; the outcomes come back in table order.

    The fixtures run in up to one process per usable CPU: the parent queues
    every index on a pipe, forks the other workers and drains the queue
    itself, so the load balances itself.  With one worker nothing forks and
    the same loop runs the fixtures in order.  A fixture that no worker
    reported, because its worker died, fails and names how the worker ended.
    """
    workers = min(_usable_cpus(), len(FIXTURES))
    # Worker k keeps to the k-th usable CPU: left to itself, the kernel of a
    # small virtual machine was seen to run both workers on one of two CPUs.
    cpus = sorted(os.sched_getaffinity(0)) if workers > 1 and hasattr(os, "sched_setaffinity") else []
    outcomes: list[Optional[FixtureOutcome]] = [None] * len(FIXTURES)
    ended: list[str] = []
    children: dict[int, BinaryIO] = {}  # pid -> its outcome pipe, until it is reaped
    queue, queue_in = os.pipe()
    try:
        with open(queue_in, "wb") as fh:
            fh.write(b"".join(i.to_bytes(_RECORD, "big") for i in range(len(FIXTURES))))
        parent = os.getpid()
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(queue, write, config, parent, cpus[k % len(cpus)] if cpus else None)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children[pid] = open(read, "rb")
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        for index, outcome in _drain(queue, config):
            outcomes[index] = outcome
        for pid, out in list(children.items()):
            with out:
                lines = out.read().split(b"\n")[:-1]  # a cut last line has no newline
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                ended.append(_status(status))
            for line in lines:
                index, passed, detail, millis = json.loads(line)
                fixture = FIXTURES[index]
                outcomes[index] = FixtureOutcome(fixture.fixture_id, fixture.criterion, passed, detail, millis)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
        os.close(queue)
        if children:  # only after an exception
            import signal
        for pid, out in children.items():
            out.close()
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
    lost = "worker ended before reporting it (" + ", ".join(sorted(set(ended))) + ")"
    return [
        o if o is not None else FixtureOutcome(f.fixture_id, f.criterion, False, lost, 0.0)
        for f, o in zip(FIXTURES, outcomes)
    ]


def format_table(outcomes: Sequence[FixtureOutcome]) -> str:
    width = max(len(o.fixture_id) for o in outcomes) + 2
    lines = []
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        lines.append(
            f"{status}  c{o.criterion}  {o.fixture_id:<{width}s} {o.millis:9.1f} ms  {o.detail}"
        )
    failed = sum(1 for o in outcomes if not o.passed)
    lines.append(
        f"{len(outcomes) - failed}/{len(outcomes)} fixtures passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
