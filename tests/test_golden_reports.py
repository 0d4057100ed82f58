"""Recorded `analyze` reports, one input per verdict route, in both modes.

Each case's stdout and JSON report (without `timing_ms`, which varies) must
match the recording byte for byte.  The inputs reach the zero block
certificate (ikeda at order 2, the perazzo cubic at order 1), the prime
and residue of an evaluation witness at every size (the cubic and the
14-variable Fermat cubic), the middle Hessian of even degree, which no
zero block is looked for and its residue at point 0 decides (the quartic,
order 2) and, on wlpodd(4,5) after a shear of one
u-row, which leaves no zero block, elimination in exact mode and the error
bound in probabilistic mode.  The cubic, the perazzo cubic and the sheared
form recur with rational coefficients, so a common scale above 1 reaches every
route they take; the decision prime never divides it.

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
    "ikeda": ["--poly", "x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2", "--vars", "x0,x1,u1,u2"],
    "cubic": ["--poly", "x^3+y^3+z^3+x*y*z", "--vars", "x,y,z"],
    "fermat14": ["--poly", "+".join(f"{a}^3" for a in FERMAT14), "--vars", ",".join(FERMAT14)],
    "quartic": ["--poly", "x^4+y^4+z^4+x^2*y*z", "--vars", "x,y,z"],
    "perazzo": ["--poly", "x0*u1^2 + x1*u1*u2 + x2*u2^2", "--vars", "x0,x1,x2,u1,u2"],
    "cubic-rational": ["--poly", "1/2*x^3+2/3*y^3+z^3+x*y*z", "--vars", "x,y,z"],
    "perazzo-rational": ["--poly", "1/2*x0*u1^2+x1*u1*u2+3/5*x2*u2^2", "--vars", "x0,x1,x2,u1,u2"],
    # `conftest.sheared_wlpodd45(0)`, and the same after x0 -> x0/2, u2 -> u2/3
    "sheared": ["--poly", "x0^2*u1^3 + 3*x1^2*x2*u1^2 + x1^2*u1^2*u2 + 9*x1*x2^3*u1 + 6*x1*x2^2*u1*u2"
                " + x1*x2*u1*u2^2 + 27*x2^5 + 27*x2^4*u2 + 9*x2^3*u2^2 + x2^2*u2^3", "--vars", "x0,x1,x2,u1,u2"],
    "sheared-rational": ["--poly", "1/4*x0^2*u1^3 + 3*x1^2*x2*u1^2 + 1/3*x1^2*u1^2*u2 + 9*x1*x2^3*u1"
                         " + 2*x1*x2^2*u1*u2 + 1/9*x1*x2*u1*u2^2 + 27*x2^5 + 9*x2^4*u2 + x2^3*u2^2"
                         " + 1/27*x2^2*u2^3", "--vars", "x0,x1,x2,u1,u2"],
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
    assert "residue" in profiles["cubic-prob"][1]
    assert "residue" in profiles["fermat14-prob"][1]
    assert profiles["quartic-exact"][2]["witness_point"] == profiles["quartic-exact"][0]["witness_point"]
    for mode in ("prob", "exact"):
        assert profiles[f"perazzo-{mode}"][1]["certificate"]["type"] == "zero-block"
        assert profiles[f"perazzo-rational-{mode}"][1]["certificate"] == profiles[f"perazzo-{mode}"][1]["certificate"]
    assert "residue" in profiles["cubic-rational-prob"][0]
    for name in ("sheared", "sheared-rational"):
        assert "transcript_hash" in profiles[f"{name}-exact"][2]
        assert "error_bound" in profiles[f"{name}-prob"][2]


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({case: analyze(case) for case in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES)} cases in {DATA}", file=sys.stderr)
