"""Recorded `analyze` reports, one input per verdict route, in both modes.

Each case's stdout and JSON report (without `timing_ms`, which varies) must
match the recording byte for byte.  The inputs reach the key certificate
(ikeda), the exact value at a witness (the cubic), the prime and residue
above DEFAULT_EXACT_CUTOFF (the 14-variable Fermat cubic), the constant
middle Hessian (the quartic, order 2) and, with no split declared, the
perazzo cubic's elimination in exact mode and its error bound in
probabilistic mode.  The cubic and the perazzo cubic recur with rational
coefficients, so a row scale above 1 reaches every route they take.

Re-record after a deliberate change of the reports with
`PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from lefschetz_lab import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")
REPORT = "<report>"  # stands for the JSON path in the recorded stdout

FERMAT14 = [f"a{i}" for i in range(14)]
INPUTS = {
    "ikeda": ["--poly", "x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", "--vars", "x0,x1,u1,u2", "--split", "2"],
    "cubic": ["--poly", "x^3+y^3+z^3+x*y*z", "--vars", "x,y,z"],
    "fermat14": ["--poly", "+".join(f"{a}^3" for a in FERMAT14), "--vars", ",".join(FERMAT14)],
    "quartic": ["--poly", "x^4+y^4+z^4+x^2*y*z", "--vars", "x,y,z"],
    "perazzo-unsplit": ["--poly", "x0*u1^2 + x1*u1*u2 + x2*u2^2", "--vars", "x0,x1,x2,u1,u2"],
    "cubic-rational": ["--poly", "1/2*x^3+2/3*y^3+z^3+x*y*z", "--vars", "x,y,z"],
    "perazzo-rational": ["--poly", "1/2*x0*u1^2+x1*u1*u2+3/5*x2*u2^2", "--vars", "x0,x1,x2,u1,u2"],
}
CASES = [f"{name}-{mode}" for name in INPUTS for mode in ("prob", "exact")]


def analyze(case: str) -> dict:
    """The case's exit code, stdout and report, as recorded."""
    name, mode = case.rsplit("-", 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", *INPUTS[name], "--mode", mode, "--seed", "0", "--json", path])
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    report.pop("timing_ms")
    return {
        "code": code,
        "stdout": out.getvalue().replace(path, REPORT),
        "stderr": err.getvalue(),
        "report": report,
    }


@pytest.fixture(scope="module")
def recorded():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_recording(case, recorded):
    assert analyze(case) == recorded[case]


def test_routes_covered(recorded):
    profiles = {case: recorded[case]["report"]["hess_profile"] for case in CASES}
    assert profiles["ikeda-prob"][2]["certificate"]
    assert "det_value" in profiles["cubic-prob"][1]
    assert "residue" in profiles["fermat14-prob"][1]
    assert profiles["quartic-exact"][2]["witness_point"] == [1, 1, 1]
    assert "transcript_hash" in profiles["perazzo-unsplit-exact"][1]
    assert "error_bound" in profiles["perazzo-unsplit-prob"][1]
    assert "/" in profiles["cubic-rational-prob"][0]["det_value"]
    assert "transcript_hash" in profiles["perazzo-rational-exact"][1]
    assert "error_bound" in profiles["perazzo-rational-prob"][1]


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({case: analyze(case) for case in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES)} cases in {DATA}", file=sys.stderr)
