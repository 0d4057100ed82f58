"""Workload definitions: the items each workload runs and how each is checked.

An item is one CLI process.  Family items are written by ``lefschetz-lab
generate --out`` and checked against the manifest embedded in the instance
file.  ``generic`` items are written by ``forms.py`` and checked against
``GENERIC_EXPECTED``.  The ``suite-exact`` item is one ``reproduce`` process
that must pass all of its fixtures.

Each item carries ``est_s``, its untraced cost at the seed commit (Python
3.11, 2 shared cores).  A pass takes the items in order while each one's
midpoint falls within the pass's share of ``--seconds``, so one
``--seconds`` value always means one fixed list of items.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Item:
    name: str
    est_s: float
    family: Optional[tuple[str, ...]] = None  # generate flags
    shape: Optional[tuple[int, int, int]] = None  # generic (nvars, degree, terms)


def _family(name: str, est_s: float, flags: str) -> Item:
    return Item(name, est_s, family=tuple(flags.split()))


def _shape(est_s: float, nvars: int, degree: int, terms: int) -> Item:
    return Item(f"n{nvars}-d{degree}-t{terms}", est_s, shape=(nvars, degree, terms))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "family" | "generic" | "suite"
    items: tuple[Item, ...]
    passes: int = 3  # timed passes per run; each item reports its median

    def select(self, seconds: float) -> list[Item]:
        """The items in order while each one's midpoint falls within `seconds`; at least one."""
        chosen: list[Item] = []
        total = 0.0
        for item in self.items:
            if chosen and total + item.est_s / 2 >= seconds:
                break
            chosen.append(item)
            total += item.est_s
        return chosen


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Why each workload exists: BENCHMARK.json and README.md.
            "vanishing",
            "family",
            (
                _family("wlpodd-N6-d7", 1.4, "--family wlpodd --n 6 --d 7"),
                _family("wlpodd-N8-d5", 0.7, "--family wlpodd --n 8 --d 5"),
                _family("wlpodd-N4-d9", 0.8, "--family wlpodd --n 4 --d 9"),
                _family("wlpodd-N10-d5", 1.6, "--family wlpodd --n 10 --d 5"),
                _family("wlpodd-N7-d7", 2.4, "--family wlpodd --n 7 --d 7"),
                _family("wlpodd-N12-d5", 2.8, "--family wlpodd --n 12 --d 5"),
                _family("wlpodd-N4-d11", 2.2, "--family wlpodd --n 4 --d 11"),
            ),
        ),
        Workload(
            "wide",
            "family",
            (
                _family("thmwlp-N6-d8", 1.1, "--family thmwlp --n 6 --d 8"),
                _family("thmwlp-N7-d6", 0.4, "--family thmwlp --n 7 --d 6"),
                _family("gnp-maximal-m3-e3", 0.35, "--family gnp --m 3 --k 1 --e 3 --variant maximal"),
                _family("thmwlp-N5-d8", 0.6, "--family thmwlp --n 5 --d 8"),
                _family("thmwlp-N7-d8", 2.3, "--family thmwlp --n 7 --d 8"),
                _family("gnp-maximal-m3-e4", 4.3, "--family gnp --m 3 --k 1 --e 4 --variant maximal"),
                _family("thmwlp-N5-d10", 1.7, "--family thmwlp --n 5 --d 10"),
            ),
        ),
        Workload(
            "generic",
            "generic",
            (
                _shape(1.0, 5, 7, 30),
                _shape(1.1, 4, 8, 30),
                _shape(1.3, 6, 7, 30),
                _shape(2.4, 5, 8, 40),
                _shape(2.1, 4, 9, 30),
                _shape(5.6, 4, 10, 40),
            ),
        ),
        Workload(
            "suite-exact",
            "suite",
            (Item("reproduce-paper-exact", 10.0),),
            passes=2,  # a pass is one 10 s process
        ),
    )
}

# What every generic item's report must say.  The forms are dense, use every
# variable and are not cones, so the algebra is Gorenstein with a symmetric
# Hilbert vector, no Hessian vanishes, and both Lefschetz properties hold
# with an explicit witness linear form.
GENERIC_EXPECTED = {"cone": False, "slp": "holds", "wlp": "holds"}

SUITE_FIXTURES = 40
# The suite's property fixtures draw their random forms from reproduce's
# seed, and their cost follows: 2.4 s to 12.2 s over seeds 1..5.  The
# workload runs the default seed, the command the ROADMAP times, so that its
# figures measure the program and not the draw.
SUITE_SEED = 0


def term_count(poly_text: str) -> int:
    """Terms in the canonical text form, where terms are joined by ' + ' / ' - '."""
    return 1 + poly_text.count(" + ") + poly_text.count(" - ")


def input_properties(report: dict) -> dict:
    hilbert = report["hilbert"]
    return {
        "nvars": len(report["input"]["vars"]),
        "degree": report["degree"],
        "terms": term_count(report["input"]["poly"]),
        "max_dim_a": max(hilbert),
        "socle_degree": len(hilbert) - 1,
    }


def _check_common(report: dict, mode: str, seed: int) -> list[str]:
    problems = []
    if report.get("mode") != mode or report.get("seed") != seed:
        problems.append(f"report ran mode={report.get('mode')} seed={report.get('seed')}")
    hilbert = report["hilbert"]
    if hilbert != hilbert[::-1]:
        problems.append(f"Hilbert vector {hilbert} is not symmetric")
    if len(hilbert) - 1 != report["degree"]:
        problems.append(f"socle degree {len(hilbert) - 1} != degree {report['degree']}")
    return problems


def check_family(report: dict, manifest: dict, mode: str, seed: int) -> list[str]:
    """Compare an analyze report with the manifest of its generated instance."""
    problems = _check_common(report, mode, seed)
    hilbert = report["hilbert"]
    if "hilbert" in manifest and hilbert != manifest["hilbert"]:
        problems.append(f"hilbert {hilbert} != manifest {manifest['hilbert']}")
    if "dim_a1" in manifest and hilbert[1] != manifest["dim_a1"]:
        problems.append(f"dim A_1 {hilbert[1]} != manifest {manifest['dim_a1']}")
    if "unimodal" in manifest and report["unimodal"] != manifest["unimodal"]:
        problems.append(f"unimodal {report['unimodal']} != manifest {manifest['unimodal']}")
    if "cone" in manifest and report["cone"]["is_cone"] != manifest["cone"]:
        problems.append(f"cone {report['cone']['is_cone']} != manifest {manifest['cone']}")
    profile = report["hess_profile"]
    for k, vanishes in manifest.get("hess_pattern", {}).items():
        got = profile[int(k)]["vanishes"]
        if got != vanishes:
            problems.append(f"hessian[{k}] vanishes={got}, manifest says {vanishes}")
    for prop, level_key in (("slp", "slp_fail_level"), ("wlp", "wlp_fail_level")):
        if prop not in manifest:
            continue
        got = report[prop]
        if got["verdict"] != manifest[prop]:
            problems.append(f"{prop} {got['verdict']} != manifest {manifest[prop]}")
        elif level_key in manifest and got.get("level") != manifest[level_key]:
            problems.append(f"{prop} level {got.get('level')} != manifest {manifest[level_key]}")
    return problems


def check_generic(report: dict, shape: tuple[int, int, int], mode: str, seed: int) -> list[str]:
    nvars, degree, terms = shape
    problems = _check_common(report, mode, seed)
    props = input_properties(report)
    if (props["nvars"], props["degree"], props["terms"]) != shape:
        problems.append(f"input has shape {props} instead of {shape}")
    if report["hilbert"][1] != nvars:
        problems.append(f"dim A_1 = {report['hilbert'][1]}: the form does not use every variable")
    if report["cone"]["is_cone"] != GENERIC_EXPECTED["cone"]:
        problems.append("form is a cone")
    for k, verdict in enumerate(report["hess_profile"]):
        if verdict["vanishes"] or not verdict.get("witness_point"):
            problems.append(f"hessian[{k}] is not nonvanishing with a witness point")
    if len(report["hess_profile"]) != degree // 2 + 1:
        problems.append(f"profile has {len(report['hess_profile'])} orders")
    for prop in ("slp", "wlp"):
        got = report[prop]
        if got["verdict"] != GENERIC_EXPECTED[prop] or not got.get("witness_coeffs"):
            problems.append(f"{prop} {got['verdict']} without the expected holds-with-witness")
    return problems


def check_suite(outcomes: list) -> list[str]:
    problems = [f"{o['id']}: {o['detail']}" for o in outcomes if not o["passed"]]
    if len(outcomes) != SUITE_FIXTURES:
        problems.append(f"{len(outcomes)} fixtures ran, expected {SUITE_FIXTURES}")
    return problems


def load_json(path) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
