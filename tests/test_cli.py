import contextlib
import io
import json
import os
import re
import subprocess
import sys
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import lefschetz_lab
import lefschetz_lab.hessian as hessian
from lefschetz_lab.cli import main

from conftest import sheared_wlpodd45

IKEDA_ARGS = [
    "analyze",
    "--poly",
    "x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2",
    "--vars",
    "x0,x1,u1,u2",
]


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_or_exit(args, capsys):
    """`run`, where an argparse error's exit is read as the exit code."""
    try:
        return run(args, capsys)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestAnalyze:
    def test_ikeda_summary(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(IKEDA_ARGS + ["--json", str(report)], capsys)
        assert code == 0
        assert "hilbert vector  (1, 4, 10, 10, 4, 1)" in out
        assert "hessian[2]      = 0" in out
        assert "strong property fails at order 2" in out
        data = json.loads(report.read_text())
        assert data["slp"]["level"] == 2
        assert data["hilbert"] == [1, 4, 10, 10, 4, 1]
        assert len(data["certificates"]) >= 1

    def test_binary_cubic_holds(self, capsys):
        code, out, _ = run(
            ["analyze", "--poly", "x^3+y^3", "--vars", "x,y"], capsys
        )
        assert code == 0
        assert "strong property holds" in out
        assert "weak property   holds" in out

    def test_cone_warning_is_one_line(self, capsys):
        code, out, err = run(["analyze", "--poly", "x^3 + y^3", "--vars", "x,y,z"], capsys)
        assert code == 0
        assert err == (
            "warning: input has annihilating degree-1 operators (cone-like degenerate); "
            "profile is computed on the quotient basis\n"
        )
        assert "cone            True" in out
        assert "hessian[1]      != 0   (exact)" in out

    def test_cone_tested_once(self, capsys, monkeypatch):
        calls = []
        is_cone = hessian.is_cone

        def counted(an):
            calls.append(an)
            return is_cone(an)

        monkeypatch.setattr(hessian, "is_cone", counted)
        code, _, err = run(["analyze", "--poly", "x^3 + y^3", "--vars", "x,y,z"], capsys)
        assert code == 0 and err.startswith("warning:")
        assert len(calls) == 1

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(["analyze", "--poly", "x^2+q", "--vars", "x,y"], capsys)
        assert code == 2
        assert "undeclared" in err

    def test_deterministic_report(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(IKEDA_ARGS + ["--seed", "5", "--json", str(path)], capsys)
            assert code == 0
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            rep.pop("timing_ms")
        assert reports[0] == reports[1]
        # the counts block is deterministic: one decision per order 0..2
        assert reports[0]["counts"]["hessian_decisions"] == 3
        assert reports[0]["counts"]["reused"] > 0

    def test_json_round_trip_stable(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run(IKEDA_ARGS + ["--json", str(path)], capsys)
        text = path.read_text()
        reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert reparsed == text

    def test_exact_mode(self, capsys):
        code, out, _ = run(IKEDA_ARGS + ["--mode", "exact"], capsys)
        assert code == 0
        assert "hessian[1]      != 0   (exact)" in out

    @pytest.mark.parametrize(
        "instance",
        [{"vars": ["x", "y"]}, {"poly": "x^2", "vars": 5}],
        ids=["no-poly", "vars-int"],
    )
    def test_malformed_instance_exit_two(self, capsys, tmp_path, instance):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(instance))
        code, _, err = run(["analyze", "--in", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "instance JSON" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--vars", "a,b"], "error: --vars cannot be given with a generated instance; its JSON declares 'vars'\n"),
            (["--split", "1"], "error: unrecognized arguments: --split 1\n"),
            (["--split", "1", "--vars", "a,b"], "error: unrecognized arguments: --split 1\n"),
        ],
        ids=["vars", "split", "both"],
    )
    def test_instance_takes_no_vars_or_split(self, capsys, tmp_path, flags, message):
        """An instance declares its variables, and `--split` is no option."""
        path = tmp_path / "ikeda.json"
        path.write_text(json.dumps({"poly": IKEDA_ARGS[2], "vars": ["x0", "x1", "u1", "u2"], "split": 2}))
        code, out, err = run_or_exit(["analyze", "--in", str(path), *flags], capsys)
        assert code == 2 and out == ""
        assert err == message or err.startswith("usage: ") and err.endswith(message)

    def test_instance_with_a_null_split_loads(self, capsys, tmp_path):
        """A `"split"` key is ignored, as the seeded dense forms of the
        benchmark still write it, `null`."""
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"vars": ["x0", "x1", "u1", "u2"], "split": None, "poly": IKEDA_ARGS[2]}))
        code, out, _ = run(["analyze", "--in", str(path)], capsys)
        assert (code, out) == run(IKEDA_ARGS, capsys)[:2]

    def test_text_file_takes_vars_and_split(self, capsys, tmp_path):
        """A text file takes `--vars`; `--split` is no option."""
        path = tmp_path / "ikeda.txt"
        path.write_text(IKEDA_ARGS[2] + "\n")
        code, out, _ = run(["analyze", "--in", str(path), *IKEDA_ARGS[3:]], capsys)
        assert code == 0
        assert "variables       x0, x1, u1, u2\n" in out
        code, out, err = run_or_exit(["analyze", "--in", str(path), *IKEDA_ARGS[3:], "--split", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and err.endswith("error: unrecognized arguments: --split 2\n")

    def test_zero_form_exit_two(self, capsys):
        code, out, err = run(["analyze", "--poly", "x - x", "--vars", "x"], capsys)
        assert code == 2 and out == ""
        assert err == "error: the zero polynomial has no graded algebra\n"

    def test_constant_form_exit_two(self, capsys):
        code, out, err = run(["analyze", "--poly", "3", "--vars", "x"], capsys)
        assert code == 2 and out == ""
        assert err == "error: a constant form has degree 0; the analysis needs degree >= 1\n"

    def test_unwritable_json_path_fails_before_the_analysis(self, capsys, monkeypatch, tmp_path):
        """The report is written last, so its path is checked first: no
        analysis runs and stdout stays empty."""
        import lefschetz_lab.analysis

        monkeypatch.setattr(lefschetz_lab.analysis, "Analysis", None)  # any analysis would fail
        for path in (tmp_path / "missing" / "r.json", tmp_path):
            code, out, err = run(IKEDA_ARGS + ["--json", str(path)], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: cannot write the JSON report to {str(path)!r}\n"


class TestHostileInput:
    def test_high_exponents_exit_zero(self, capsys):
        """Derivatives of high degree are computed, and the divisors of a
        term enumerated, in loops, so the call depth does not grow with the
        exponent."""
        code, out, err = run(["analyze", "--poly", "x^500 + y^500", "--vars", "x,y"], capsys)
        assert code == 0, err
        assert "weak property   holds" in out

    def test_determinant_too_long_for_text_reported_by_residue(self, capsys, tmp_path):
        """Every evaluation witness is a residue: some determinants of
        x^480 + y^480 have more digits than the interpreter converts to
        text, and the report shows no value at all, only each prime and
        residue."""
        path = tmp_path / "r.json"
        code, _, err = run(["analyze", "--poly", "x^480 + y^480", "--vars", "x,y", "--json", str(path)], capsys)
        assert code == 0, err
        profile = json.loads(path.read_text())["hess_profile"]
        assert all("residue" in v and "prime" in v and "det_value" not in v for v in profile)

    def test_value_too_long_for_text_reported_by_its_bit_length(self, capsys, tmp_path):
        """A value over Q is reported by the two routes that read one.  In
        exact mode, with the decision prime p as the coefficient of
        p x^480 + y^480, orders 1..239 are zero mod p at every point and
        nonzero after elimination, which gives a witness value, and the
        middle determinant p (480!)^2 has residue 0.  Values with more digits
        than the interpreter converts to text are shown by their bit length;
        order 0 keeps its prime and residue."""
        p = hessian._decision_prime(0)
        path = tmp_path / "r.json"
        args = ["analyze", "--poly", f"{p}*x^480 + y^480", "--vars", "x,y", "--seed", "0", "--mode", "exact",
                "--json", str(path)]
        code, _, err = run(args, capsys)
        assert code == 0, err
        report = json.loads(path.read_text())
        profile = report["hess_profile"]
        assert report["counts"]["eliminations"] == 239
        assert "residue" in profile[0] and profile[240]["det_value"] == str(p * factorial(480) ** 2)
        assert not any("residue" in v or "prime" in v for v in profile[1:])
        assert any("det_value_bits" in v for v in profile) and any("det_value" in v for v in profile[1:240])

    @pytest.mark.parametrize("command", [
        ["analyze", "--poly", "x^3 + y^3", "--vars", "x,y"],
        ["generate", "--family", "wlpodd", "--n", "4", "--d", "5"],
    ], ids=["analyze", "generate"])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, command):
        """Huge input runs out of memory in the basis spans; the patch raises
        MemoryError there, as a real exhaustion does, without using memory."""
        from lefschetz_lab.linalg import SparseSpan

        def exhausted(self, vec):
            raise MemoryError

        monkeypatch.setattr(SparseSpan, "try_add", exhausted)
        code, out, err = run(command, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: out of memory; the input is too large for this machine\n"


# polynomial text of at most 20 characters over x, y, z, digits, ^ * + - / and
# space, with one-digit exponents: raw characters, or pieces of terms that
# more often parse to a form
POLY_CHARS = "xyz0123456789^*+-/ "
PIECES = ["x", "y^2", "z^3", "x^4", "x*y", "3", "1/2", "0", "y z", "x^9", "y^5"]
FUZZ_POLYS = st.one_of(
    st.text(alphabet=POLY_CHARS, max_size=20),
    st.lists(st.sampled_from(list(POLY_CHARS) + ["2", "3", "7"]), max_size=20).map("".join),
    st.lists(st.tuples(st.sampled_from(["+", "-", "*", " + ", "/", "^"]), st.sampled_from(PIECES)), max_size=6)
    .map(lambda parts: "".join(op + piece for op, piece in parts)[1:]),
).filter(lambda text: len(text) <= 20 and not re.search(r"\^\s*\d\s*\d", text))
FUZZ_VARS = st.one_of(
    st.sampled_from(["x,y,z", "x,y", "x", "z,y,x", "x,y,z,w"]),
    st.lists(st.sampled_from(["x", "y", "z", "w", "", " ", "x ", "1", "xy", "x y"]), max_size=5).map(",".join),
    st.none(),
)
WARNING = re.compile(r"warning: [^\n]*\n")
ERROR = re.compile(r"error: [^\n]*\n")


class TestFuzz:
    @given(FUZZ_POLYS, FUZZ_VARS)
    @settings(max_examples=150)
    def test_exit_zero_or_two_with_one_line(self, text, names):
        """Any short text and variable list ends with exit 0 or 2 and at
        most one diagnostic line: the cone warning or one error."""
        args = ["analyze", f"--poly={text}"]
        if names is not None:
            args.append(f"--vars={names}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        stderr = err.getvalue()
        assert code in (0, 2), (args, stderr)
        # an exception escaping main, with its traceback, fails the test itself
        assert stderr == "" or WARNING.fullmatch(stderr) or ERROR.fullmatch(stderr), (args, stderr)


class TestClosedStdout:
    """A reader that closes the pipe early (`analyze ... | head -1`) ends the
    run with exit 1 and nothing on stderr."""

    def test_broken_pipe_on_write(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["analyze", "--poly", "x^3 + y^3", "--vars", "x,y"])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_pipe_closed_before_the_run(self, unbuffered):
        """Through a real pipe whose read end is closed.  Buffered, the output
        reaches the pipe only when the command's end flushes it, and the
        flush at exit must find nothing left to report; unbuffered, the first
        line written raises."""
        src = os.path.dirname(os.path.dirname(lefschetz_lab.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lefschetz_lab", "analyze", "--poly", "x^3 + y^3", "--vars", "x,y"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_stdout_closed_at_start_up(self, tmp_path):
        """With fd 1 closed the interpreter starts with `sys.stdout` None:
        the command still runs and writes its report, then exits 1 quietly."""
        path = tmp_path / "report.json"
        script = 'exec "$0" -m lefschetz_lab analyze --poly "x^3+y^3" --vars x,y --json "$1" >&-'
        proc = subprocess.run(["sh", "-c", script, sys.executable, str(path)],
                              capture_output=True, env=child_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert json.loads(path.read_text())["wlp"]["verdict"] == "holds"


def child_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(lefschetz_lab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cli_process(*argv, python=(), **kwargs) -> subprocess.CompletedProcess:
    """`python [python flags] -m lefschetz_lab ARGV...` in a child process."""
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *python, "-m", "lefschetz_lab", *argv],
                          env=child_env(), text=True, timeout=120, **kwargs)


class TestGenerate:
    def test_gnp_text(self, capsys):
        code, out, _ = run(
            ["generate", "--family", "gnp", "--m", "2", "--n", "2", "--k", "1", "--e", "2"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "x*u^2 + y*u*v + z*v^2"

    def test_excluded_pair_exit_two(self, capsys):
        code, _, err = run(
            ["generate", "--family", "thmwlp", "--n", "3", "--d", "6"], capsys
        )
        assert code == 2
        assert "(N,d)=(3,6)" in err

    def test_exceptional(self, capsys):
        code, out, _ = run(
            ["generate", "--family", "exceptional", "--n", "3", "--d", "5", "--k", "2"],
            capsys,
        )
        assert code == 0
        payload = json.loads("\n".join(out.splitlines()[1:]))
        assert payload["params"] == {"n": 3, "d": 5, "k": 2}

    def test_unknown_family_exit_two(self, capsys):
        code, out, err = run(["generate", "--family", "x", "--n", "5"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: unknown family 'x'; available: "
            "ikeda, exceptional, gnp, perazzo, permutti, gn, wlpodd, thmwlp, prop44\n"
        )

    def test_missing_parameter(self, capsys):
        code, _, err = run(["generate", "--family", "exceptional", "--n", "3"], capsys)
        assert code == 2
        assert "--d" in err

    def test_generate_then_analyze(self, capsys, tmp_path):
        out_path = tmp_path / "instance.json"
        code, _, _ = run(
            ["generate", "--family", "thmwlp", "--n", "5", "--d", "4", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["analyze", "--in", str(out_path)], capsys)
        assert code == 0
        assert "weak property   fails at map A_1 -> A_2" in out

    def test_prop44_case(self, capsys):
        code, out, _ = run(["generate", "--family", "prop44", "--case", "iii"], capsys)
        assert code == 0
        assert "x0*u^2*v" in out

    def test_ikeda_records_the_requested_seed(self, capsys, monkeypatch, tmp_path):
        import lefschetz_lab.families as families_mod

        checked = []
        real = families_mod._verified

        def recording(inst, what):
            checked.append(inst.analysis.seed)
            return real(inst, what)

        monkeypatch.setattr(families_mod, "_verified", recording)
        path = tmp_path / "ikeda.json"
        code, out, _ = run(["generate", "--family", "ikeda", "--seed", "1", "--out", str(path)], capsys)
        assert code == 0
        assert json.loads(path.read_text())["seed"] == 1
        assert json.loads("\n".join(out.splitlines()[1:]))["seed"] == 1
        assert checked == [1]


# one small instance per family: its generate flags and the FamilySpec params
# the CLI must build from them
FAMILY_CASES = {
    "ikeda": ([], {}),
    "exceptional": (["--n", "3", "--d", "5", "--k", "2"], {"n": 3, "d": 5, "k": 2}),
    "gnp": (["--m", "2", "--k", "1", "--e", "2", "--variant", "maximal"], {"m": 2, "k": 1, "e": 2, "variant": "maximal"}),
    "perazzo": (["--m", "2", "--n", "2", "--d", "3"], {"m": 2, "n": 2, "d": 3}),
    "permutti": (["--m", "2", "--n", "2", "--e", "3", "--d", "3"], {"m": 2, "n": 2, "e": 3, "d": 3}),
    "gn": (["--m", "2", "--n", "2", "--r", "1", "--e", "3", "--d", "4"], {"m": 2, "n": 2, "r": 1, "e": 3, "d": 4}),
    "wlpodd": (["--n", "4", "--d", "5"], {"N": 4, "d": 5}),
    "thmwlp": (["--n", "5", "--d", "4"], {"N": 5, "d": 4}),
    "prop44": (["--case", "i"], {"case": "i"}),
}


class TestFamilyTable:
    def test_gnp_maximal_without_n(self, capsys, tmp_path):
        path = tmp_path / "gnp.json"
        flags = ["--family", "gnp", "--m", "3", "--k", "1", "--e", "3", "--variant", "maximal"]
        code, _, err = run(["generate", *flags, "--out", str(path)], capsys)
        assert code == 0, err
        assert json.loads(path.read_text())["params"]["n"] == 9

    def test_flag_of_another_family_exit_two(self, capsys):
        code, out, err = run(["generate", "--family", "ikeda", "--n", "5", "--k", "3", "--variant", "maximal"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --family ikeda takes no --n\n"

    def test_gnp_variant_defaults_to_lemma_m2(self, capsys, tmp_path):
        outputs = []
        for extra in ([], ["--variant", "lemma_m2"]):
            path = tmp_path / f"gnp{len(extra)}.json"
            flags = ["--family", "gnp", "--m", "2", "--k", "1", "--e", "3", *extra]
            code, out, err = run(["generate", *flags, "--out", str(path)], capsys)
            assert code == 0, err
            outputs.append((out, path.read_text()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["params"]["variant"] == "lemma_m2"

    def test_every_family_has_a_case(self):
        from lefschetz_lab.families import FAMILIES

        assert set(FAMILY_CASES) == set(FAMILIES)

    @pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
    def test_cli_flags_build_the_spec(self, capsys, tmp_path, kind):
        from lefschetz_lab.families import FamilySpec, generate

        flags, params = FAMILY_CASES[kind]
        path = tmp_path / "instance.json"
        code, _, err = run(["generate", "--family", kind, *flags, "--seed", "1", "--out", str(path)], capsys)
        assert code == 0, err
        expected = generate(FamilySpec(kind, params, 1)).to_json_dict()
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestReproduce:
    def test_unknown_suite(self, capsys):
        code, _, err = run(["reproduce", "--suite", "mystery"], capsys)
        assert code == 2
        assert err == "error: unknown suite 'mystery'; available: paper\n"

    def test_paper_suite_passes(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        code, out, _ = run(["reproduce", "--json", str(path)], capsys)
        assert code == 0
        assert "FAIL" not in out
        rows = json.loads(path.read_text())
        assert all(row["passed"] for row in rows)
        assert {row["criterion"] for row in rows} == set(range(1, 10))

    def test_unwritable_json_path_fails_before_the_suite(self, capsys, monkeypatch, tmp_path):
        import lefschetz_lab.reproduce

        monkeypatch.setattr(lefschetz_lab.reproduce, "run_suite", None)  # running the suite would fail
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(["reproduce", "--json", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write the JSON report to {str(path)!r}\n"


class TestSeedEnvFallback:
    def test_env_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("LEFSCHETZ_LAB_SEED", "9")
        path = tmp_path / "r.json"
        code, _, _ = run(IKEDA_ARGS + ["--json", str(path)], capsys)
        assert code == 0
        assert json.loads(path.read_text())["seed"] == 9

    def test_invalid_env_seed_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("LEFSCHETZ_LAB_SEED", "abc")
        code, _, err = run(IKEDA_ARGS, capsys)
        assert code == 2
        assert "error: LEFSCHETZ_LAB_SEED must be an integer, got 'abc'" in err


class TestStrict:
    def test_exit_three_on_undetermined(self, capsys, monkeypatch):
        import lefschetz_lab.lefschetz as lefschetz_mod
        from lefschetz_lab.lefschetz import LefschetzReport

        def fake_wlp(an):
            return LefschetzReport("WLP", "undetermined", an.hilbert(), True)

        monkeypatch.setattr(lefschetz_mod, "wlp_generic", fake_wlp)
        code, out, _ = run(
            ["analyze", "--poly", "x^3+y^3", "--vars", "x,y", "--strict"], capsys
        )
        assert code == 3
        assert "undetermined" in out

    def test_exit_three_on_undetermined_slp(self, capsys):
        # capped at order 1, WLP decides ikeda's vanishing hess^2, which
        # settles SLP: nothing is undetermined
        code, out, _ = run(IKEDA_ARGS + ["--max-k", "1", "--strict"], capsys)
        assert code == 0
        assert "strong property fails at order 2" in out
        assert "weak property   fails" in out
        # the dense sextic's capped profile leaves SLP undetermined, as WLP holds
        code, out, _ = run(["analyze", "--poly", DENSE_SEXTIC, "--vars", "x,y,z", "--max-k", "1", "--strict"], capsys)
        assert code == 3
        assert "strong property undetermined" in out
        assert "weak property   holds" in out


class TestExactSuite:
    def test_reproduce_exact_mode_passes(self, capsys):
        code, out, _ = run(["reproduce", "--mode", "exact"], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestMaxK:
    def test_capped_profile(self, capsys):
        code, out, _ = run(IKEDA_ARGS + ["--max-k", "1"], capsys)
        assert code == 0
        assert "hessian[2]" not in out
        assert "strong property fails at order 2" in out

    def test_capped_slp_fails_by_a_decided_order(self, capsys, tmp_path):
        """wlpodd(4,9) capped at order 1: WLP decides hess^4 = 0 by its zero
        block, and SLP fails there with that verdict, under --strict."""
        from lefschetz_lab.families import gen_wlpodd

        path = write_instance(gen_wlpodd(4, 9), tmp_path)
        report = tmp_path / "r.json"
        code, out, _ = run(["analyze", "--in", str(path), "--max-k", "1", "--strict", "--json", str(report)], capsys)
        assert code == 0
        assert "hessian[2]" not in out
        assert "strong property fails at order 4" in out
        assert "weak property   fails at map A_4 -> A_5" in out
        data = json.loads(report.read_text())
        slp, key = data["slp"], data["certificates"][0]
        assert (slp["level"], slp["map"], slp["required"]) == (4, [4, 5], data["hilbert"][4])
        assert slp["certificate"] == {"vanishes": True, "mode": "exact", "certificate": key}
        assert key["type"] == "zero-block" and key["orders"] == [4, 4]

    def test_capped_slp_fails_by_a_key_certificate(self, capsys, tmp_path):
        """thmwlp(4,6) capped at order 0: WLP fails by the never-injective
        block at A_2 -> A_3, and SLP fails at order 1, the lowest order a
        zero block proves vanishing, by that order's certificate."""
        from lefschetz_lab.families import gen_thmwlp

        path = write_instance(gen_thmwlp(4, 6), tmp_path)
        report = tmp_path / "r.json"
        code, out, _ = run(["analyze", "--in", str(path), "--max-k", "0", "--strict", "--json", str(report)], capsys)
        assert code == 0
        assert "strong property fails at order 1" in out
        assert "weak property   fails at map A_2 -> A_3" in out
        data = json.loads(report.read_text())
        assert data["wlp"]["certificate"]["orders"] == [2, 3]
        assert data["slp"]["certificate"]["certificate"] == data["certificates"][0]
        assert data["certificates"][0]["type"] == "zero-block" and data["certificates"][0]["orders"] == [1, 1]
        assert data["certificates"][1] == data["wlp"]["certificate"] and len(data["certificates"]) == 2
        assert data["counts"]["hessian_decisions"] == 3  # orders 0, 1 and 2

    def test_negative_cap_exit_two(self, capsys):
        code, out, err = run(IKEDA_ARGS + ["--max-k", "-1", "--strict"], capsys)
        assert code == 2
        assert "max_k=-1" in err and "hessian[" not in out


def write_instance(inst, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    return path


def text_args(inst):
    """`analyze` input flags for the instance's form given as text."""
    return ["--poly", inst.f.to_text(), "--vars", ",".join(inst.f.vars.names)]


class TestOneAnalysisPerForm:
    def test_exact_mode_reaches_every_verdict(self, capsys, tmp_path):
        from lefschetz_lab.families import gen_wlpodd

        path = write_instance(gen_wlpodd(5, 7), tmp_path)
        report = tmp_path / "r.json"
        code, out, _ = run(["analyze", "--in", str(path), "--mode", "exact", "--json", str(report)], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        verdicts = data["hess_profile"] + [data["slp"]["certificate"], data["wlp"]["certificate"]]
        assert len(verdicts) == 6
        for verdict in verdicts:
            assert verdict["mode"] == "exact" and "error_bound" not in verdict
        assert "counts" not in out and "reused" not in out

    def test_each_order_decided_once(self, capsys, monkeypatch, tmp_path):
        import lefschetz_lab.hessian as hessian_mod
        from lefschetz_lab.families import gen_wlpodd

        orders = []
        real = hessian_mod._det_vanishes

        def counting(an, k, kernel):
            orders.append(k)
            return real(an, k, kernel)

        monkeypatch.setattr(hessian_mod, "_det_vanishes", counting)
        # from its text or its instance, the zero block decides the middle
        # order, once, and evaluation each of the others, once
        report = tmp_path / "r.json"
        path = write_instance(gen_wlpodd(4, 7), tmp_path)
        for source in (text_args(gen_wlpodd(4, 7)), ["--in", str(path)]):
            orders.clear()
            code, out, _ = run(["analyze", *source, "--json", str(report)], capsys)
            assert code == 0
            data = json.loads(report.read_text())
            assert data["hess_profile"][3]["certificate"]["type"] == "zero-block"
            assert data["slp"]["verdict"] == data["wlp"]["verdict"] == "fails"
            assert orders == [0, 1, 2]
            assert data["counts"]["hessian_decisions"] == 4
            assert data["counts"]["certified"] == 1
            assert "hessian[3]      = 0   (exact)" in out and "certified" not in out.replace(str(report), "")

    def test_eliminations_counted(self, capsys, tmp_path):
        from lefschetz_lab.families import gen_wlpodd

        sheared = sheared_wlpodd45(2)
        cases = [
            (["analyze", "--poly", "x^3+y^3+z^3", "--vars", "x,y,z"], None),
            (["analyze", "--poly", sheared.to_text(), "--vars", ",".join(sheared.vars.names)], 2),
            (["analyze", "--in", str(write_instance(gen_wlpodd(5, 7), tmp_path))], 3),
        ]
        counts = []
        for args, middle in cases:
            report = tmp_path / "r.json"
            code, out, _ = run(args + ["--mode", "exact", "--json", str(report)], capsys)
            assert code == 0
            assert "eliminations" not in out.replace(str(report), "")
            data = json.loads(report.read_text())
            if middle is not None:
                assert data["hess_profile"][middle]["vanishes"]
            counts.append((data["counts"]["eliminations"], data["counts"]["certified"]))
        # a nonzero value settles the Fermat cubic; the vanishing order 2 of
        # the sheared wlpodd(4,5) has no zero block, so it needs
        # elimination, and the middle Hessian of wlpodd(5,7) its zero block
        assert counts[0] == (0, 0)
        assert counts[1][0] >= 1 and counts[1][1] == 0
        assert counts[2] == (0, 1)

    def test_each_obstruction_level_searched_once(self, capsys, monkeypatch, tmp_path):
        import lefschetz_lab.analysis as analysis_mod
        import lefschetz_lab.cli as cli_mod
        import lefschetz_lab.lefschetz as lefschetz_mod
        from lefschetz_lab.families import gen_thmwlp

        levels = []
        real = lefschetz_mod.wlp_obstruction

        def counting(an, k):
            levels.append(k)
            return real(an, k)

        path = write_instance(gen_thmwlp(5, 8), tmp_path)
        for mod in (analysis_mod, cli_mod, lefschetz_mod):
            monkeypatch.setattr(mod, "wlp_obstruction", counting, raising=False)
        report = tmp_path / "r.json"
        code, _, _ = run(["analyze", "--in", str(path), "--json", str(report)], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        assert data["wlp"]["verdict"] == "fails"
        assert data["wlp"]["certificate"]["orders"] == [3, 4]
        assert data["wlp"]["certificate"] in data["certificates"]
        assert sorted(levels) == list(range(1, 4))

    def test_each_key_order_searched_once(self, capsys, monkeypatch, tmp_path):
        import lefschetz_lab.analysis as analysis_mod
        import lefschetz_lab.cli as cli_mod
        import lefschetz_lab.lefschetz as lefschetz_mod
        from lefschetz_lab.families import gen_wlpodd

        orders = []
        real = lefschetz_mod.key_criterion

        def counting(an, k):
            orders.append(k)
            return real(an, k)

        path = write_instance(gen_wlpodd(5, 7), tmp_path)
        for mod in (analysis_mod, cli_mod, lefschetz_mod):
            monkeypatch.setattr(mod, "key_criterion", counting, raising=False)
        report = tmp_path / "r.json"
        code, _, _ = run(["analyze", "--in", str(path), "--json", str(report)], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        assert [c["orders"] for c in data["certificates"]] == [[3, 3]]
        assert sorted(orders) == list(range(1, 4))

    def test_rational_ranks_counted(self, capsys, tmp_path):
        from lefschetz_lab.lefschetz import GENERIC_TRIALS

        # thmwlp(5,4) with v replaced by v - x5: A_1 -> A_2 has a kernel for
        # every L, but no zero block shows it in these coordinates, so each
        # WLP trial's rank at that level is neither maximal mod p nor at its
        # ceiling, and is taken over Q
        sheared = ("x2*u^3 - x3*x5*u^2 + x3*u^2*v + x4*x5^2*u - 2*x4*x5*u*v + x4*u*v^2"
                   " - x5^3*v + 3*x5^2*v^2 - 3*x5*v^3 + u^4 + v^4")
        cases = [
            (["--poly", "x^3+y^3+z^3", "--vars", "x,y,z"], 0),
            (["--poly", sheared, "--vars", "x2,x3,x4,x5,u,v"], GENERIC_TRIALS),
        ]
        for args, expected in cases:
            report = tmp_path / "r.json"
            code, out, _ = run(["analyze", *args, "--json", str(report)], capsys)
            assert code == 0
            assert "rational_ranks" not in out.replace(str(report), "")
            data = json.loads(report.read_text())
            assert data["counts"]["rational_ranks"] == expected
        assert data["wlp"]["verdict"] == "undetermined"

    def test_derivatives_and_basis_candidates_counted(self, capsys, tmp_path):
        from lefschetz_lab.families import gen_exceptional

        path = write_instance(gen_exceptional(6, 11, 3), tmp_path)
        report = tmp_path / "r.json"
        code, out, _ = run(["analyze", "--in", str(path), "--json", str(report)], capsys)
        assert code == 0
        out = out.replace(str(report), "")
        assert "derivatives" not in out and "candidates" not in out
        data = json.loads(report.read_text())
        counts = data["counts"]
        assert counts["basis_candidates"] == 64
        # the bases and the Hessians share the memo; assembly differentiates
        # only the cells of each zero pattern, and the two orders whose zero
        # blocks decide them (3 and 5) assemble no Hessian at all
        assert counts["certified"] == 2
        assert counts["derivatives"] == 117
        # the middle Hessian settles WLP, so no basis above A_(d/2) is built;
        # a scan of every monomial of A_0 .. A_(d-1) would reduce
        # sum C(n+k-1, k) = 19448 candidates in these 7 variables
        n, d = len(data["input"]["vars"]), data["degree"]
        assert 100 * counts["basis_candidates"] < sum(comb(n + k - 1, k) for k in range(d))


def report_of(args, capsys, tmp_path):
    """`analyze` on `args`: its stdout, less the report path, and its report,
    less `timing_ms`."""
    path = tmp_path / "report.json"
    code, out, _ = run(["analyze", *args, "--json", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    data.pop("timing_ms")
    return out.replace(str(path), "<report>"), data


def replays(f, data):
    """Every certificate of the report replays on f and its Hilbert vector."""
    from lefschetz_lab.support import ZeroBlock, verify_zero_block

    for cert in data["certificates"]:
        rows, cols = (tuple(map(tuple, cert[side])) for side in ("rows", "cols"))
        if not verify_zero_block(f, data["hilbert"], ZeroBlock(*cert["orders"], rows, cols)):
            return False
    return True


# the smallest instance of each family, at seed 0
FAMILY_SPECS = {
    "ikeda": {}, "exceptional": {"n": 3, "d": 5, "k": 2}, "gnp": {"m": 2, "n": 2, "k": 1, "e": 2},
    "perazzo": {"m": 2, "n": 2, "d": 3}, "permutti": {"m": 2, "n": 2, "e": 3, "d": 3},
    "gn": {"m": 2, "n": 2, "r": 1, "e": 3, "d": 4}, "wlpodd": {"N": 4, "d": 5},
    "thmwlp": {"N": 5, "d": 4}, "prop44": {"case": "i"},
}


class TestSplitFree:
    """A form carries no x/u split: a family form analysed from its text,
    from its instance, and from its instance in the older format that
    declared the x-block size as `"split"` gives the same report and
    stdout."""

    @pytest.mark.parametrize("mode", ["prob", "exact"])
    @pytest.mark.parametrize("kind", FAMILY_SPECS)
    def test_same_report_with_or_without_the_split(self, capsys, tmp_path, kind, mode):
        from lefschetz_lab.families import FamilySpec, generate

        inst = generate(FamilySpec(kind, FAMILY_SPECS[kind], 0))
        data = inst.to_json_dict()
        assert "split" not in data
        # the x-block leads, then the u-block: u1, u2, ... or u, v
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**data, "split": sum(not name.startswith(("u", "v")) for name in data["vars"])}))
        old_out, old_report = report_of(["--in", str(old), "--mode", mode], capsys, tmp_path)
        new_out, new_report = report_of(["--in", str(write_instance(inst, tmp_path)), "--mode", mode], capsys, tmp_path)
        free_out, free = report_of([*text_args(inst), "--mode", mode], capsys, tmp_path)
        assert old_report == new_report == free and "split" not in free["input"]
        assert old_out == new_out == free_out
        # every vanishing order of these instances has a zero block
        assert free["counts"]["eliminations"] == 0
        assert replays(inst.f, free)

    def test_thmwlp_5_4_fails_weak_property_without_its_split(self, capsys, tmp_path):
        from lefschetz_lab.families import gen_thmwlp

        out, data = report_of(text_args(gen_thmwlp(5, 4)), capsys, tmp_path)
        assert "weak property   fails at map A_1 -> A_2" in out
        assert data["wlp"]["certificate"]["orders"] == [1, 2]
        assert data["counts"]["rational_ranks"] == 0

    @pytest.mark.parametrize("mode", ["prob", "exact"])
    def test_paper_gap_cell_5_3(self, capsys, tmp_path, mode):
        """(N, d) = (5, 3), where no family has a form: a non-cone cubic in
        six variables, given as text, whose Hessian vanishes by a
        zero block, so SLP fails at order 1 and WLP at A_1 -> A_2."""
        from lefschetz_lab.polycore import VariableSet, parse_poly

        text, names = "x0*u1^2 + x1*u1*u2 + x2*u2^2 + u1^3 + u2^3 + u3^3", "x0,x1,x2,u1,u2,u3"
        out, data = report_of(["--poly", text, "--vars", names, "--mode", mode], capsys, tmp_path)
        assert data["cone"] == {"is_cone": False}
        assert data["hilbert"] == [1, 6, 6, 1]
        order1 = data["hess_profile"][1]
        assert order1["vanishes"] and order1["mode"] == "exact" and order1["certificate"]["orders"] == [1, 1]
        assert data["counts"]["eliminations"] == 0 and data["counts"]["certified"] == 1
        assert "strong property fails at order 1" in out
        assert "weak property   fails at map A_1 -> A_2" in out
        assert replays(parse_poly(text, VariableSet(tuple(names.split(",")))), data)


DENSE_SEXTIC = "x^6 + y^6 + z^6 + 3*x^2*y^3*z - 2*x*y*z^4 + 5*x^3*y^2*z - y^4*z^2"
DENSE_OCTIC = (
    "1/11*x0^8 + x1^8 - 3*x2^8 + 1/13*x3^8 + 2*x0^3*x1^2*x2*x3^2 - 5*x0*x1^4*x2^2*x3"
    " + 7*x0^2*x1*x2^3*x3^2 - x0^4*x1*x2*x3^2 + 4*x1^2*x2^2*x3^4 - 2*x0*x1*x2^5*x3"
)


class TestKernels:
    def test_one_compilation_per_distinct_matrix(self, capsys, monkeypatch, tmp_path):
        from lefschetz_lab.polycore import IntMatrix

        compiled = []
        real = IntMatrix.__init__

        def counting(self, entries):
            compiled.append((len(entries), len(entries[0])))
            real(self, entries)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        report = tmp_path / "r.json"
        args = ["analyze", "--poly", DENSE_SEXTIC, "--vars", "x,y,z", "--json", str(report)]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert "kernels" not in out.replace(str(report), "")
        data = json.loads(report.read_text())
        assert data["slp"]["verdict"] == data["wlp"]["verdict"] == "holds"
        # the profile and SLP read the pure Hessians (k, k); the middle
        # Hessian's witness point settles WLP, which compiles nothing
        d = data["degree"]
        assert data["wlp"]["witness_coeffs"] == [str(c) for c in data["hess_profile"][2]["witness_point"]]
        assert data["counts"]["kernels"] == len(compiled) == d // 2 + 1 == 4

        # capped below d/2, SLP is not decided, and WLP decides hess^2 outside
        # the profile, as odd d does: (0, 0), (1, 1) and (2, 2), each once
        compiled.clear()
        code, _, _ = run(args + ["--max-k", "1"], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        assert data["slp"]["verdict"] == "undetermined" and data["wlp"]["verdict"] == "holds"
        assert data["counts"]["kernels"] == len(compiled) == len(set(compiled)) == 3

    def test_one_evaluation_per_order_without_json(self, capsys, monkeypatch, tmp_path):
        """Each order is evaluated once, mod p, with --json or without: the
        verdict holds its residue, so the report evaluates no kernel again
        and nothing is evaluated over Q; with --json, stdout gains one line."""
        from lefschetz_lab.polycore import IntMatrix

        calls, over_q = [], []
        real = IntMatrix.at_mod

        def counting(self, point, p):
            calls.append(len(self))
            return real(self, point, p)

        monkeypatch.setattr(IntMatrix, "at_mod", counting)
        monkeypatch.setattr(IntMatrix, "at", lambda self, point: over_q.append(len(self)))
        args = ["analyze", "--poly", "x^600 + y^600", "--vars", "x,y"]
        code, out, _ = run(args, capsys)
        assert code == 0 and len(calls) == 301
        report = tmp_path / "r.json"
        code, with_json, _ = run(args + ["--json", str(report)], capsys)
        assert code == 0 and len(calls) == 301 + 301
        assert with_json == out + f"report written  {report}\n"
        assert over_q == []


class TestWitnessReplayFromReport:
    @pytest.mark.parametrize("source", ["dense-octic", "wlpodd-6-7"])
    def test_every_witness_replays(self, capsys, tmp_path, source):
        """Each nonvanishing order replays from the report's input and witness alone."""
        from fractions import Fraction

        import sympy

        from lefschetz_lab import linalg
        from lefschetz_lab.analysis import Analysis
        from lefschetz_lab.families import gen_wlpodd
        from lefschetz_lab.hessian import hessian_matrix
        from lefschetz_lab.polycore import VariableSet, eval_poly, parse_poly

        if source == "dense-octic":
            args = ["--poly", DENSE_OCTIC, "--vars", "x0,x1,x2,x3"]
        else:
            args = ["--in", str(write_instance(gen_wlpodd(6, 7), tmp_path))]
        report = tmp_path / "r.json"
        code, _, _ = run(["analyze", *args, "--seed", "1", "--json", str(report)], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        vs = VariableSet(tuple(data["input"]["vars"]))
        # the greedy basis, and so the Hessian, depends on the form alone
        an = Analysis(parse_poly(data["input"]["poly"], vs), "exact", 0)
        residues = 0
        for k, verdict in enumerate(data["hess_profile"]):
            if verdict["vanishes"]:
                continue
            point = verdict["witness_point"]
            value = linalg.det([[eval_poly(e, point) for e in row] for row in hessian_matrix(an, k)])
            if "residue" in verdict:
                p = verdict["prime"]
                assert 2**60 <= p < 2**61 and sympy.isprime(p)
                assert value.numerator * pow(value.denominator, -1, p) % p == verdict["residue"] != 0
                assert "det_value" not in verdict
                residues += 1
            else:
                assert value == Fraction(verdict["det_value"]) != 0
        assert residues >= 1


class TestPaperScale:
    def test_exceptional_8_13_4_matches_its_manifest(self, capsys, tmp_path):
        path, report = tmp_path / "e.json", tmp_path / "r.json"
        flags = ["--family", "exceptional", "--n", "8", "--d", "13", "--k", "4"]
        assert run(["generate", *flags, "--out", str(path)], capsys)[0] == 0
        code, _, _ = run(["analyze", "--in", str(path), "--json", str(report)], capsys)
        assert code == 0
        manifest = json.loads(path.read_text())["manifest"]
        data = json.loads(report.read_text())
        for k, vanishes in manifest["hess_pattern"].items():
            assert data["hess_profile"][int(k)]["vanishes"] == vanishes
        assert data["cone"]["is_cone"] == manifest["cone"]
        assert data["hilbert"][1] == manifest["dim_a1"]
        assert (data["slp"]["verdict"], data["slp"]["level"]) == (manifest["slp"], manifest["slp_fail_level"])
        orders = [k for k, l in (c["orders"] for c in data["certificates"]) if k == l]
        assert orders == manifest["certified_orders"]
        # the manifest makes no Hilbert or WLP claim for this family
        assert data["hilbert"] == [1, 9, 14, 16, 18, 19, 19, 19, 19, 18, 16, 14, 9, 1]
        assert data["wlp"]["verdict"] == "holds" and data["wlp"]["witness_coeffs"]


# `run()` under an atexit handler, reporting whether it left through SystemExit
ENTRY_SCRIPT = """
import atexit, sys
from lefschetz_lab.cli import run
atexit.register(print, "atexit handler ran")
sys.argv = ["lefschetz-lab", "analyze", "--poly", "x^3 + y^3", "--vars", "x,y"]
{hook}
try:
    run()
except SystemExit as exc:
    print("SystemExit", exc.code)
    raise
"""


class TestProcessEntry:
    """`python -m lefschetz_lab` ends through `cli.run()`: `os._exit` once
    stdout and stderr are flushed, `sys.exit` under -X dev, a profiler or a
    tracer; what the process writes and its exit status are those of `main()`."""

    @pytest.mark.parametrize("argv, code", [
        (("analyze", "--poly", "x^3 + y^3", "--vars", "x,y"), 0),
        (("analyze", "--poly", "x^3+", "--vars", "x"), 2),
        (("analyze", "--poly", DENSE_SEXTIC, "--vars", "x,y,z", "--max-k", "1", "--strict"), 3),
    ], ids=["ok", "parse-error", "strict-undetermined"])
    def test_exit_status(self, argv, code):
        assert cli_process(*argv).returncode == code

    def test_redirected_stdout_and_report_are_complete(self, capsys, tmp_path):
        path, out = tmp_path / "report.json", tmp_path / "stdout.txt"
        argv = [*IKEDA_ARGS, "--json", str(path)]
        with open(out, "w") as fh:
            proc = cli_process(*argv, stdout=fh, capture_output=False)
        assert proc.returncode == 0
        text = out.read_text()
        assert text.splitlines()[-1] == f"report written  {path}"
        report = json.loads(path.read_text())
        # the same lines as main() prints in this process
        _, expected, _ = run(argv, capsys)
        assert text == expected
        assert report["tool_version"] == lefschetz_lab.__version__

    def test_cone_warning_reaches_stderr(self):
        proc = cli_process("analyze", "--poly", "x^3 + y^3", "--vars", "x,y,z")
        assert proc.returncode == 0
        assert WARNING.fullmatch(proc.stderr)

    @pytest.mark.parametrize("python, hook, observed", [
        ((), "", False),
        (("-X", "dev"), "", True),
        ((), "sys.setprofile(lambda *args: None)", True),
        ((), "sys.settrace(lambda *args: None)", True),
    ], ids=["plain", "dev-mode", "profile", "trace"])
    def test_fast_exit_only_when_unobserved(self, python, hook, observed):
        proc = subprocess.run([sys.executable, *python, "-c", ENTRY_SCRIPT.format(hook=hook)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "certificates    0" in lines
        assert ("SystemExit 0" in lines) == observed
        assert ("atexit handler ran" in lines) == observed

    def test_cprofile_prints_its_stats(self):
        proc = cli_process("analyze", "--poly", "x^3 + y^3", "--vars", "x,y", python=("-m", "cProfile"))
        assert proc.returncode == 0, proc.stderr
        assert "function calls" in proc.stdout
        assert "weak property   holds" in proc.stdout
