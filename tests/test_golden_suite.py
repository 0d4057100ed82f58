"""Recorded `reproduce --suite paper` outcomes, in both modes at seeds 0 and 1.

Each fixture's id, criterion, pass flag and detail must match the recording;
`millis`, which varies, is left out.  The details carry the counts, ranks,
modes and Hilbert vectors each fixture found, so a change that moves any
verdict of the suite shows here.

Re-record after a deliberate change of the suite with
`PYTHONPATH=src python tests/test_golden_suite.py`.
"""

import json
import os
import sys

import pytest

from lefschetz_lab.reproduce import SuiteConfig, run_suite

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_suite.json")
CASES = [f"{mode}-{seed}" for mode in ("probabilistic", "exact") for seed in (0, 1)]


def outcomes(case: str) -> list[dict]:
    """The suite's outcomes in the case's mode and seed, as recorded."""
    mode, seed = case.rsplit("-", 1)
    return [
        {key: value for key, value in outcome.to_json_dict().items() if key != "millis"}
        for outcome in run_suite(SuiteConfig(seed=int(seed), mode=mode))
    ]


@pytest.fixture(scope="module")
def recorded():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_suite_matches_recording(case, recorded):
    assert outcomes(case) == recorded[case]


def test_recording_passes(recorded):
    assert all(o["passed"] for case in CASES for o in recorded[case])


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({case: outcomes(case) for case in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES)} cases in {DATA}", file=sys.stderr)
