"""What each entry point imports, and the package root's public names."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lefschetz_lab

from conftest import sheared_wlpodd45

ROOT = Path(__file__).resolve().parents[1]

# Run the package as `python -m lefschetz_lab ARGS...` does, then print the
# package modules it loaded, and which of three costly stdlib modules, as the
# last line of stdout.  The entry leaves through `os._exit`, so in this
# process it raises `SystemExit` instead; the suite's forked workers keep
# the real one.
RUN_MAIN = """
import json, os, runpy, sys
sys.argv = ["lefschetz-lab", *sys.argv[1:]]
pid, fast_exit = os.getpid(), os._exit
os._exit = lambda code: sys.exit(code) if os.getpid() == pid else fast_exit(code)
try:
    runpy.run_module("lefschetz_lab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.startswith("lefschetz_lab")),
    "stdlib": sorted(m for m in ("dataclasses", "hashlib", "inspect") if m in sys.modules),
}))
"""


def child(*argv):
    """Run python with src/ on the path; return the last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


IKEDA_TEXT = "x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2"


class TestImportGraph:
    def test_analyze_loads_no_families_or_suite(self, tmp_path):
        path = tmp_path / "ikeda.txt"
        path.write_text("x0*u1^3*u2 + x1*u1*u2^3 + x0^3*x1^2\n")
        out = child("-c", RUN_MAIN, "analyze", "--in", str(path), "--vars", "x0,x1,u1,u2")
        assert out["code"] == 0
        assert "lefschetz_lab.analysis" in out["modules"]
        assert "lefschetz_lab.families" not in out["modules"]
        assert "lefschetz_lab.reproduce" not in out["modules"]

    @pytest.mark.parametrize("mode", ["prob", "exact"])
    def test_analyze_without_elimination_loads_no_oracles_or_exact(self, mode):
        """Zero blocks and evaluation decide every order of this form, so
        neither mode loads the routes over Q or the test oracles."""
        out = child("-c", RUN_MAIN, "analyze", "--poly", IKEDA_TEXT, "--vars", "x0,x1,u1,u2", "--mode", mode)
        assert out["code"] == 0
        assert "lefschetz_lab.analysis" in out["modules"]
        assert not {"lefschetz_lab.exact", "lefschetz_lab.oracles"} & set(out["modules"])

    def test_analyze_loads_no_dataclasses_or_hashlib(self):
        out = child("-c", RUN_MAIN, "analyze", "--poly", IKEDA_TEXT, "--vars", "x0,x1,u1,u2")
        assert out["code"] == 0
        assert out["stdlib"] == []

    def test_elimination_loads_hashlib_on_demand(self, tmp_path):
        """The order-2 Hessian of a sheared wlpodd(4,5) has no zero block,
        so exact mode eliminates it and hashes the transcript."""
        path = tmp_path / "report.json"
        f = sheared_wlpodd45(0)
        out = child("-c", RUN_MAIN, "analyze", "--poly", f.to_text(), "--vars", ",".join(f.vars.names),
                    "--mode", "exact", "--json", str(path))
        assert out["code"] == 0
        assert out["stdlib"] == ["hashlib"]
        assert "lefschetz_lab.exact" in out["modules"]
        assert "lefschetz_lab.oracles" not in out["modules"]
        report = json.loads(path.read_text())
        assert report["counts"]["eliminations"] == 1
        assert len(report["hess_profile"][2]["transcript_hash"]) == 64

    def test_generate_loads_no_suite(self, tmp_path):
        path = tmp_path / "wlpodd.json"
        out = child("-c", RUN_MAIN, "generate", "--family", "wlpodd", "--n", "4", "--d", "5", "--out", str(path))
        assert out["code"] == 0 and path.exists()
        assert "lefschetz_lab.families" in out["modules"]
        assert "lefschetz_lab.reproduce" not in out["modules"]
        assert not {"lefschetz_lab.exact", "lefschetz_lab.oracles"} & set(out["modules"])

    @pytest.mark.parametrize("argv", [
        ("generate", "--family", "thmwlp", "--n", "6", "--d", "8"),
        ("reproduce", "--mode", "exact"),
    ], ids=["generate", "reproduce-exact"])
    def test_generate_and_reproduce_load_no_dataclasses_or_inspect(self, argv):
        """The family and suite records are NamedTuples or slotted classes;
        exact mode may still load hashlib for an elimination transcript."""
        out = child("-c", RUN_MAIN, *argv)
        assert out["code"] == 0
        assert set(out["stdlib"]) <= {"hashlib"}
        # the suite's oracle fixtures import both; generate loads neither
        second_routes = {"lefschetz_lab.exact", "lefschetz_lab.oracles"}
        assert second_routes & set(out["modules"]) == (second_routes if argv[0] == "reproduce" else set())

    @pytest.mark.parametrize("argv", [("--version",), ("--help",), ("analyze",)],
                             ids=["version", "help", "usage-error"])
    def test_cli_without_a_command_loads_no_analysis_module(self, argv):
        """A command's modules are imported when it runs, so --version,
        --help and an argparse usage error load none of them."""
        out = child("-c", RUN_MAIN, *argv)
        assert out["code"] == (2 if argv == ("analyze",) else 0)
        assert set(out["modules"]) <= {"lefschetz_lab", "lefschetz_lab.__main__", "lefschetz_lab.cli",
                                       "lefschetz_lab.errors"}
        assert out["stdlib"] == []

    def test_polycore_loads_only_its_kernels(self):
        script = "import json, sys, lefschetz_lab.polycore; print(json.dumps(sorted(m for m in sys.modules if m.startswith('lefschetz_lab'))))"
        assert child("-c", script) == [
            "lefschetz_lab",
            "lefschetz_lab.errors",
            "lefschetz_lab.linalg",
            "lefschetz_lab.polycore",
        ]

    def test_support_adds_only_itself_to_polycore(self):
        """A certificate checker can read supp(f) with no basis, Hessian or
        Lefschetz layer loaded: no `analysis`, `apolar`, `hessian`,
        `lefschetz`, `exact`, `oracles` or `families`."""
        script = "import json, sys, lefschetz_lab.support; print(json.dumps(sorted(m for m in sys.modules if m.startswith('lefschetz_lab'))))"
        assert child("-c", script) == ["lefschetz_lab", "lefschetz_lab.errors", "lefschetz_lab.linalg",
                                       "lefschetz_lab.polycore", "lefschetz_lab.support"]

    def test_support_imports_only_polycore_and_errors(self):
        """Read from the source: every import of a package module names
        `polycore` or `errors`, except the `Analysis` type, imported for
        annotations alone under TYPE_CHECKING."""
        tree = ast.parse((ROOT / "src" / "lefschetz_lab" / "support.py").read_text())
        typing_only = [node for node in tree.body if isinstance(node, ast.If)
                       and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"]
        hidden = {id(n) for block in typing_only for n in ast.walk(block)}

        def package_modules(nodes):
            return {(node.module, tuple(a.name for a in node.names)) for node in nodes
                    if isinstance(node, ast.ImportFrom) and node.level > 0}

        runtime = package_modules(n for n in ast.walk(tree) if id(n) not in hidden)
        assert {module for module, _ in runtime} == {"polycore", "errors"}
        assert package_modules(n for block in typing_only for n in ast.walk(block)) == {("analysis", ("Analysis",))}
        plain = [n for n in ast.walk(tree) if isinstance(n, ast.Import)]
        assert not [a.name for n in plain for a in n.names if a.name.startswith("lefschetz_lab")]


# every public name of the package root and the submodule that defines it
ROOT_NAMES = {
    "analysis": ("Analysis",),
    "apolar": ("AkBasis", "HilbertVector", "is_unimodal"),
    "errors": (
        "DegenerateInstanceError",
        "HomogeneityError",
        "InfeasibleParametersError",
        "LefschetzLabError",
        "PolyParseError",
        "SingularMatrixError",
        "VariableMismatchError",
        "ZeroPolynomialError",
    ),
    "families": (
        "FamilyInstance",
        "FamilySpec",
        "Manifest",
        "gen_exceptional",
        "gen_gn",
        "gen_gnp",
        "gen_ikeda",
        "gen_perazzo",
        "gen_permutti",
        "gen_prop44",
        "gen_thmwlp",
        "gen_wlpodd",
        "generate",
        "replay_manifest",
    ),
    "hessian": (
        "ConeReport",
        "VanishingVerdict",
        "hess_profile",
        "is_cone",
    ),
    "lefschetz": (
        "LefschetzReport",
        "LinearForm",
        "rank_at",
        "slp_check_element",
        "slp_generic",
        "wlp_check_element",
        "wlp_generic",
    ),
    "oracles": ("catalecticant", "diff_apply", "linear_change", "mult_map"),
    "polycore": (
        "DiffOp",
        "Monomial",
        "Poly",
        "VariableSet",
        "mono_basis",
        "parse_poly",
    ),
    "support": ("ZeroBlock", "verify_zero_block"),
}
ROOT_PAIRS = [(module, name) for module, names in ROOT_NAMES.items() for name in names]


class TestPackageRoot:
    def test_forty_nine_names(self):
        assert len(ROOT_PAIRS) == 49
        assert sorted(lefschetz_lab.__all__) == sorted(name for _, name in ROOT_PAIRS)

    @pytest.mark.parametrize("module, name", ROOT_PAIRS, ids=[name for _, name in ROOT_PAIRS])
    def test_name_resolves_to_its_submodule_object(self, module, name):
        source = importlib.import_module(f"lefschetz_lab.{module}")
        assert getattr(lefschetz_lab, name) is getattr(source, name)
        assert name in dir(lefschetz_lab)

    def test_star_import(self):
        namespace: dict = {}
        exec("from lefschetz_lab import *", namespace)
        assert set(namespace) - {"__builtins__"} == {name for _, name in ROOT_PAIRS}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lefschetz_lab.no_such_name
        assert not hasattr(lefschetz_lab, "no_such_name")
        assert lefschetz_lab.__version__ == "0.1.0"


# the compute bodies behind the Analysis memo, and the tests' rational
# reference, kept in their submodules (the benchmark's tracer patches them
# by name) but not at the package root, with their parameters
SUBMODULE_ONLY = {
    ("apolar", "ak_basis"): ["an", "k"],
    ("apolar", "hilbert_vector"): ["an"],
    ("hessian", "mixed_hessian"): ["an", "k", "l"],
    ("hessian", "hessian_matrix"): ["an", "k"],
    ("hessian", "hessian_vanishes"): ["an", "k"],
    ("lefschetz", "key_criterion"): ["an", "k"],
    ("lefschetz", "wlp_obstruction"): ["an", "k"],
    ("polycore", "eval_poly"): ["f", "point"],
    ("support", "zero_pattern"): ["an", "k", "l"],
    ("support", "zero_block"): ["an", "k", "l"],
}


@pytest.mark.parametrize("module, name", SUBMODULE_ONLY, ids=[name for _, name in SUBMODULE_ONLY])
def test_compute_body_stays_in_its_submodule(module, name):
    fn = getattr(importlib.import_module(f"lefschetz_lab.{module}"), name)
    assert list(inspect.signature(fn).parameters) == SUBMODULE_ONLY[module, name]
    assert name not in lefschetz_lab.__all__
    assert not hasattr(lefschetz_lab, name)


def _tracer():
    """perfbench/tracer.py loaded by path; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(module, name) for module, names in _tracer().TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    """Each name the benchmark's tracer patches exists, looked up as it looks
    it up: `Class.method`, a `prefix*` of callables, or a plain name; a
    missing one would read as a span that never ran."""
    mod = importlib.import_module(f"lefschetz_lab.{module}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(getattr(getattr(mod, cls_name), meth))
    elif name.endswith("*"):
        assert any(n.startswith(name[:-1]) and callable(getattr(mod, n)) for n in vars(mod))
    else:
        assert callable(getattr(mod, name))
