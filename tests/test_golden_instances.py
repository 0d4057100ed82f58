"""Recorded `generate` output: every family's polynomial and manifest.

Each case's `generate(spec).to_json_dict()` must match the recording byte for
byte, at seeds 0 and 1.  The specs are the smallest instance of each family
(as in `test_families.SMALLEST`), the family items of the benchmark
workloads (`perfbench/workloads.py`), every gnp variant, two exceptional
instances, and a few larger or overridden shapes of the bilinear families.

Re-record after a deliberate change of the generators with
`PYTHONPATH=src python tests/test_golden_instances.py`.
"""

import json
import os
import sys

import pytest

from lefschetz_lab.families import FamilySpec, generate

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_instances.json")

SPECS = [
    # the smallest instance of each family
    ("ikeda", {}, {}),
    ("exceptional", {"n": 3, "d": 5, "k": 2}, {}),
    ("gnp", {"m": 2, "n": 2, "k": 1, "e": 2, "variant": "lemma_m2"}, {}),
    ("gnp", {"m": 2, "k": 1, "e": 2, "variant": "maximal"}, {}),
    ("gnp", {"m": 2, "n": 2, "k": 1, "e": 2, "variant": "minimal"}, {}),
    ("perazzo", {"m": 2, "n": 2, "d": 3}, {}),
    ("permutti", {"m": 2, "n": 2, "e": 3, "d": 3}, {}),
    ("gn", {"m": 2, "n": 2, "r": 1, "e": 3, "d": 4}, {}),
    ("wlpodd", {"N": 4, "d": 5}, {}),
    ("thmwlp", {"N": 5, "d": 4}, {}),
    ("prop44", {"case": "i"}, {}),
    # the benchmark's family items
    ("wlpodd", {"N": 6, "d": 7}, {}),
    ("wlpodd", {"N": 8, "d": 5}, {}),
    ("wlpodd", {"N": 4, "d": 9}, {}),
    ("wlpodd", {"N": 10, "d": 5}, {}),
    ("wlpodd", {"N": 7, "d": 7}, {}),
    ("wlpodd", {"N": 12, "d": 5}, {}),
    ("wlpodd", {"N": 4, "d": 11}, {}),
    ("thmwlp", {"N": 6, "d": 8}, {}),
    ("thmwlp", {"N": 7, "d": 6}, {}),
    ("gnp", {"m": 3, "k": 1, "e": 3, "variant": "maximal"}, {}),
    ("thmwlp", {"N": 5, "d": 8}, {}),
    ("thmwlp", {"N": 7, "d": 8}, {}),
    ("gnp", {"m": 3, "k": 1, "e": 4, "variant": "maximal"}, {}),
    ("thmwlp", {"N": 5, "d": 10}, {}),
    # larger shapes of the bilinear and exceptional families
    ("exceptional", {"n": 4, "d": 8, "k": 3}, {}),
    ("gnp", {"m": 2, "n": 2, "k": 2, "e": 3, "variant": "lemma_m2"}, {}),
    ("gnp", {"m": 3, "n": 3, "k": 1, "e": 2, "variant": "minimal"}, {}),
    ("gnp", {"m": 2, "k": 2, "e": 3, "variant": "maximal"}, {}),
    ("permutti", {"m": 2, "n": 2, "e": 3, "d": 7}, {}),
    ("gn", {"m": 3, "n": 4, "r": 2, "e": 3, "d": 7}, {}),
    ("prop44", {"case": "iii"}, {}),
    # tail overrides
    ("perazzo", {"m": 2, "n": 2, "d": 3}, {"g0": "u1^2", "g1": "u1*u2", "g2": "u2^2 + u1^2", "h": "u2^3"}),
    ("permutti", {"m": 2, "n": 2, "e": 3, "d": 6}, {"P0": "0", "P1": "u2^3"}),
    ("thmwlp", {"N": 6, "d": 4}, {"g": "u^3*v", "h": "x6^4"}),
]


def case_id(kind: str, params: dict, overrides: dict, seed: int) -> str:
    parts = [kind] + [f"{name}={value}" for name, value in params.items()]
    parts += [f"{name}:{text}" for name, text in overrides.items()]
    return " ".join(parts) + f" seed={seed}"


CASES = {
    case_id(kind, params, overrides, seed): FamilySpec(kind, params, seed, overrides)
    for kind, params, overrides in SPECS
    for seed in (0, 1)
}


def generated(case: str) -> dict:
    return generate(CASES[case]).to_json_dict()


@pytest.fixture(scope="module")
def recorded():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_instance_matches_recording(case, recorded):
    assert generated(case) == recorded[case]


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({case: generated(case) for case in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES)} cases in {DATA}", file=sys.stderr)
