"""lefschetz-lab benchmark: cold-cache CLI workloads, timed end to end.

    python3 perfbench/run.py --workload vanishing --seed 1 --seconds 9 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each item of a workload is its own ``python3 -m lefschetz_lab`` process, run
from the sources under ``src/`` of the checkout this file sits in, so every
item starts with cold caches.  The load is a closed loop with one client:
one child process at a time, items in a fixed order.  Every report is checked
against its expected values; a wrong verdict, a nonzero exit, a traceback or
a timeout counts as a failed item.

Times are reported in reference-speed seconds: each measured time is scaled
by ``CAL_REF_S`` over the mean wall time of the two ``calibrate.py`` runs
around it.  See README.md.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the items
once untraced and once under ``tracer.py`` (one process per item) and prints
the per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SUITE_SEED,
    WORKLOADS,
    Item,
    Workload,
    check_family,
    check_generic,
    check_suite,
    input_properties,
    load_json,
)

CLI = [sys.executable, "-m", "lefschetz_lab"]
MODE, REPORT_MODE = "prob", "probabilistic"  # the analyze flag and how the report spells it
SETUP_REPEATS = 3
CAL_REF_S = 0.23  # wall time of one calibrate.py process on a quiet machine
RUN_BUDGET_S = 160.0  # a workload's run ends well within the 180 s it is allowed
ITEM_TIMEOUT_FLOOR_S = 30.0
ITEM_TIMEOUT_FACTOR = 10.0

PER_LAYER = (
    "apolar.hilbert_vector.total_s",
    "apolar.catalecticant.calls",
    "apolar.catalecticant.self_s",
    "apolar.ak_basis.calls",
    "apolar.ak_basis.total_s",
    "apolar.ak_basis.repeat_frac",
    "linalg.rank.calls",
    "linalg.rank.self_s",
    "linalg.rank.max_cells",
    "hessian.hess_profile.total_s",
    "hessian.hessian_matrix.calls",
    "hessian.hessian_matrix.total_s",
    "hessian.hessian_vanishes.calls",
    "hessian.hessian_vanishes.total_s",
    "hessian.hessian_vanishes.repeat_frac",
    "hessian.hessian_vanishes.prob_verdicts",
    "hessian.poly_det_vanishes.calls",
    "hessian.poly_det_vanishes.self_s",
    "linalg.det.calls",
    "linalg.det.self_s",
    "linalg.det.max_n",
    "linalg.det.max_bits",
    "polycore.eval_poly.calls",
    "polycore.eval_poly.self_s",
    "lefschetz.slp_generic.total_s",
    "lefschetz.wlp_generic.total_s",
    "lefschetz.slp_check_element.calls",
    "lefschetz.slp_check_element.total_s",
    "lefschetz.slp_check_element.useful_frac",
    "lefschetz.wlp_check_element.calls",
    "lefschetz.wlp_check_element.total_s",
    "lefschetz.wlp_check_element.useful_frac",
    "lefschetz.mult_map.calls",
    "lefschetz.mult_map.self_s",
    "lefschetz.certificates.total_s",
    "linalg.SparseSpan.calls",
    "linalg.SparseSpan.self_s",
    "polycore.parse_poly.total_s",
    "polycore.diff_apply.calls",
    "polycore.diff_apply.self_s",
    "cli.import_s",
    "families.generate.total_s",
    "families.replay_manifest.total_s",
    "trace.overhead_frac",
)
CERTIFICATES = ("lefschetz.key_criterion", "lefschetz.wlp_obstruction")


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool
    stderr: str


def run_proc(argv: list[str], log: Path, timeout_s: float, stamp_spawn: bool = False) -> Proc:
    """Run one child to completion and collect its own resource usage (wait4)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timed_out = False
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        if stamp_spawn:
            env["PERFBENCH_SPAWN_NS"] = str(time.time_ns())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        deadline = start + max(timeout_s, 0.0)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not timed_out and time.perf_counter() > deadline:
                    os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still this child's
                    timed_out = True
                time.sleep(0.001)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        timed_out,
        log.with_suffix(".err").read_text(errors="replace"),
    )


class Speed:
    """Calibration runs between measurements; turns seconds into reference seconds."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.samples: list[float] = []
        self.last = self._sample()

    def _sample(self) -> float:
        proc = run_proc([sys.executable, str(HERE / "calibrate.py")], self.work / "calibrate", ITEM_TIMEOUT_FLOOR_S)
        if proc.rc != 0:
            raise RuntimeError(f"calibrate.py exited {proc.rc}: {proc.stderr.strip()[-300:]}")
        self.samples.append(proc.wall_s)
        return proc.wall_s

    def factor(self) -> float:
        """Scale for the interval since the previous calibration run."""
        now = self._sample()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


def item_timeout(item: Item, deadline: float) -> float:
    """Well above the item's seed cost, and never past the run's deadline."""
    return min(max(ITEM_TIMEOUT_FLOOR_S, ITEM_TIMEOUT_FACTOR * item.est_s), deadline - time.perf_counter())


# -- set-up -------------------------------------------------------------------------


def write_inputs(workload: Workload, items: list[Item], seed: int, dest: Path, deadline: float) -> tuple[float, list[str]]:
    """Write the workload's inputs into `dest`; return (seconds, problems)."""
    dest.mkdir(parents=True)
    if workload.kind == "family":
        commands = [
            CLI + ["generate", *item.family, "--seed", str(seed), "--out", str(dest / f"{item.name}.json")]
            for item in items
        ]
    elif workload.kind == "generic":
        shapes = [",".join(map(str, item.shape)) for item in items]
        commands = [[sys.executable, str(HERE / "forms.py"), "--src", str(SRC), "--seed", str(seed), "--out", str(dest), *shapes]]
    else:  # the suite builds its fixtures itself; its set-up is one CLI start
        commands = [CLI + ["--version"]]
    problems = []
    start = time.perf_counter()
    for n, argv in enumerate(commands):
        proc = run_proc(argv, dest / f"setup{n}", min(ITEM_TIMEOUT_FLOOR_S, deadline - time.perf_counter()))
        if proc.rc != 0 or proc.timed_out:
            problems.append(f"set-up exited {proc.rc}: {' '.join(argv[1:6])} ... {proc.stderr.strip()[-200:]}")
    return time.perf_counter() - start, problems


# -- items ------------------------------------------------------------------------


@dataclass
class Pass:
    """One closed-loop pass over a workload's items, in reference seconds."""

    walls: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    spans: list[tuple[dict, float]] = field(default_factory=list)  # (summary, speed factor)

    @property
    def wall_s(self) -> float:
        """First item started to last item finished, without the calibration runs."""
        return sum(self.walls)


def cli_args(workload: Workload, item: Item, seed: int, inputs: Path, out: Path) -> list[str]:
    if workload.kind == "suite":
        return ["reproduce", "--suite", "paper", "--mode", "exact", "--seed", str(SUITE_SEED), "--json", str(out)]
    return ["analyze", "--in", str(inputs / f"{item.name}.json"), "--json", str(out), "--mode", MODE, "--seed", str(seed)]


def check_item(workload: Workload, item: Item, seed: int, inputs: Path, out: Path, proc: Proc) -> tuple[list[str], dict]:
    if proc.timed_out:
        return [f"timed out after {proc.wall_s:.1f} s"], {}
    problems = []
    if proc.rc != 0:
        problems.append(f"exit code {proc.rc}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr: " + proc.stderr.strip().splitlines()[-1])
    if problems or not out.exists():
        return problems or ["no JSON report written"], {}
    if workload.kind == "suite":
        outcomes = load_json(out)
        return check_suite(outcomes), {"fixtures": len(outcomes)}
    report = load_json(out)
    props = input_properties(report)
    props["form_sha"] = hashlib.sha256(report["input"]["poly"].encode()).hexdigest()[:16]
    if workload.kind == "family":
        manifest = load_json(inputs / f"{item.name}.json")["manifest"]
        return check_family(report, manifest, REPORT_MODE, seed), props
    return check_generic(report, item.shape, REPORT_MODE, seed), props


def run_pass(
    workload: Workload,
    items: list[Item],
    seed: int,
    inputs: Path,
    work: Path,
    speed: Speed,
    deadline: float,
    traced: bool = False,
) -> Pass:
    result = Pass()
    seen_forms: dict[str, str] = {}
    tag = "traced" if traced else "timed"
    for item in items:
        result.attempted += 1
        if time.perf_counter() >= deadline:
            result.failed += 1
            print(f"{tag:6s} {item.name:24s} FAIL  run budget used up before the item started")
            continue
        out = work / f"{tag}-{item.name}.json"
        args = cli_args(workload, item, seed, inputs, out)
        spans = work / f"{tag}-{item.name}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC), "--out", str(spans), "--item", item.name, "--", *args]
        else:
            argv = CLI + args
        proc = run_proc(argv, work / f"{tag}-{item.name}", item_timeout(item, deadline), stamp_spawn=traced)
        factor = speed.factor()
        problems, props = check_item(workload, item, seed, inputs, out, proc)
        sha = props.pop("form_sha", None)
        if sha is not None:
            if sha in seen_forms:
                problems.append(f"same form as item {seen_forms[sha]}")
            seen_forms[sha] = item.name
        if traced and spans.exists():
            result.spans.append((load_json(spans), factor))
        result.walls.append(proc.wall_s * factor)
        result.cpu_s += proc.cpu_s * factor
        result.peak_rss_mb = max(result.peak_rss_mb, proc.maxrss_mb)
        result.failed += bool(problems)
        status = "FAIL  " + "; ".join(problems) if problems else "ok"
        shown = " ".join(f"{k}={v}" for k, v in props.items())
        print(
            f"{tag:6s} {item.name:24s} {proc.wall_s:7.3f} s x {factor:.3f} = {proc.wall_s * factor:7.3f} ref-s"
            f"  cpu {proc.cpu_s:7.3f} s  rss {proc.maxrss_mb:5.1f} MB  {shown}  {status}"
        )
    return result


# -- metrics ----------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """Medians over the passes; the slowest item by its median over the passes."""
    samples = [w for p in passes for w in p.walls] or [0.0]
    items = [statistics.median(walls) for walls in zip(*(p.walls for p in passes))] or [0.0]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "item_p50_s": (statistics.median(samples), "s"),
        "item_max_s": (max(items), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        "setup_s": (setup_s, "s"),
    }


def _merge(spans: list[tuple[dict, float]]) -> tuple[dict, dict, dict, dict]:
    """Sum the items' span summaries; times become reference seconds."""
    functions: dict[str, dict] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    layers: dict[str, float] = {}
    for summary, factor in spans:
        for name, rec in summary["functions"].items():
            agg = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += rec["calls"]
            agg["total_s"] += rec["total_ns"] * factor / 1e9
            agg["self_s"] += rec["self_ns"] * factor / 1e9
        for name, n in summary["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in summary["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), n)
        for name, ns in summary["layers"].items():
            layers[name] = layers.get(name, 0.0) + ns * factor / 1e9
    return functions, counts, maxima, layers


def per_layer(untraced: Pass, traced: Pass) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, plus each layer's self-time share."""
    functions, counts, maxima, layers = _merge(traced.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    special = {
        "lefschetz.certificates.total_s": (sum(functions.get(n, empty)["total_s"] for n in CERTIFICATES), "s"),
        "cli.import_s": (sum(s["import_s"] * factor for s, factor in traced.spans), "s"),
        "trace.overhead_frac": ((traced.wall_s / untraced.wall_s - 1.0) if untraced.wall_s else 0.0, "frac"),
    }
    metrics = {}
    for name in PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        rec = functions.get(fn, empty)
        if name in special:
            metrics[name] = special[name]
        elif stat in ("calls", "total_s", "self_s"):
            metrics[name] = (rec[stat], "count" if stat == "calls" else "s")
        elif stat.endswith("_frac"):  # repeat_frac, useful_frac: share of the calls
            hits = counts.get(f"{fn}.{stat[: -len('_frac')]}", 0)
            metrics[name] = (hits / rec["calls"] if rec["calls"] else 0.0, "frac")
        elif stat.startswith("max_"):
            metrics[name] = (maxima.get(name, 0), "bits" if stat == "max_bits" else "count")
        else:
            metrics[name] = (counts.get(name, 0), "count")
    all_self = sum(layers.values()) or 1.0
    shares = {name: s / all_self for name, s in sorted(layers.items(), key=lambda kv: -kv[1])}
    top = sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    shares.update({f"fn:{name}": rec["self_s"] / all_self for name, rec in top})
    missing = sorted({m for s, _ in traced.spans for m in s["missing"]})
    if missing:
        print("trace: not found in the package (not traced): " + ", ".join(missing))
    return metrics, shares


# -- running a workload -----------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    work.mkdir(parents=True)
    items = workload.select(seconds / workload.passes)
    speed = Speed(work)
    setups = []
    attempted = failed = 0
    for r in range(SETUP_REPEATS):
        secs, problems = write_inputs(workload, items, seed, work / f"inputs{r}", deadline)
        setups.append(secs * speed.factor())
        for p in problems:
            print(f"setup  FAIL  {p}")
        attempted += len(problems)
        failed += len(problems)
    inputs = work / f"inputs{SETUP_REPEATS - 1}"
    setup_s = statistics.median(setups)
    print(f"setup  {workload.name}: {len(items)} items; set-up " + ", ".join(f"{s:.3f}" for s in setups) + " ref-s")

    # a traced run needs one untraced pass as the base of the tracing overhead
    passes = [run_pass(workload, items, seed, inputs, work, speed, deadline) for _ in range(1 if trace else workload.passes)]
    if trace:
        passes.append(run_pass(workload, items, seed, inputs, work, speed, deadline, traced=True))
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    print(f"calibration runs (reference {CAL_REF_S} s): " + " ".join(f"{c:.3f}" for c in speed.samples))
    if trace:
        metrics, shares = per_layer(passes[0], passes[1])
        print("self-time share (kernels counted toward their calling layer; fn: single functions):")
        for name, share in shares.items():
            print(f"  {name:40s} {share:6.1%}")
    else:
        metrics = end_to_end(passes, setup_s)
        print(f"error_rate {failed / attempted:.4f}  ({failed} of {attempted} items failed)")
        print(f"item_p50_s over n={len(items) * workload.passes} item runs; item_max_s over {len(items)} items, each the median of {workload.passes} runs")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:12s} {name:45s} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=9.0, help="nominal run length; picks the item list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the clean-up below
    if not (SRC / "lefschetz_lab" / "cli.py").is_file():
        print(f"perfbench: no lefschetz_lab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work / name) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.exists() and not any(base.iterdir()):
            base.rmdir()
    if len(results) == 1:
        print(json.dumps(results[names[0]], sort_keys=True))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
