"""Run one lefschetz-lab CLI command in-process with span tracing.

    python3 perfbench/tracer.py --src SRC --out SPANS.json --item ID -- analyze --in ...

Before calling ``lefschetz_lab.cli.main``, every listed public function is
replaced, at every module that binds it, by a recorder that opens a span.
Spans are nested: each holds its name, its parent span and its start and end
times, and all spans of one process share the item id.  They stay in memory
and are summarised into ``SPANS.json`` when the command returns.  A listed
name that the package no longer has is reported under ``missing``.

The environment variable ``PERFBENCH_SPAWN_NS`` carries the parent's
``time.time_ns()`` taken just before it started this process, so that
``import_s`` covers interpreter start plus package import.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from array import array

# Functions traced per module; "Class.method" names trace a method under the
# span name "module.Class".
TRACED = {
    "apolar": ("hilbert_vector", "catalecticant", "ak_basis"),
    "hessian": ("hess_profile", "hessian_matrix", "hessian_vanishes", "poly_det_vanishes"),
    "lefschetz": (
        "slp_generic",
        "wlp_generic",
        "slp_check_element",
        "wlp_check_element",
        "mult_map",
        "key_criterion",
        "wlp_obstruction",
    ),
    "linalg": ("rank", "det", "SparseSpan.try_add", "SparseSpan.dependency"),
    "polycore": ("parse_poly", "diff_apply", "eval_poly"),
    "families": ("generate", "gen_*", "replay_manifest"),
}
# The suite calls the family generators directly, not through `generate`.
SPAN_NAMES = {"families.gen_*": "families.generate"}


class Recorder:
    """In-memory span store plus the per-call counters the benchmark reports."""

    def __init__(self) -> None:
        self.names: list[str] = ["<root>"]
        self.name_ids: dict[str, int] = {}
        # span i: name id, parent span, start ns, end ns; span 0 is the root
        self.name_of = array("q", [0])
        self.parent_of = array("q", [-1])
        self.start_ns = array("q", [time.perf_counter_ns()])
        self.end_ns = array("q", [0])
        self.stack = [0]
        self.seen: dict[str, set] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def repeat(self, name: str, key) -> None:
        """Count a call whose key was already seen in this process."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeat")
        else:
            seen.add(key)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent_of, start_ns, end_ns = self.name_of, self.parent_of, self.start_ns, self.end_ns
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end_ns.append(0)
            stack.append(idx)
            start_ns.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_ns[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self) -> dict:
        """Per span name: calls, outermost total time and self time."""
        self.end_ns[0] = time.perf_counter_ns()
        n = len(self.name_of)
        dur = [self.end_ns[i] - self.start_ns[i] for i in range(n)]
        child = [0] * n
        for i in range(1, n):
            child[self.parent_of[i]] += dur[i]
        # a span nested inside a span of the same name adds no total time
        names_open: dict[int, frozenset] = {0: frozenset()}
        inner = [False] * n
        for i in range(1, n):
            p = self.parent_of[i]
            if p not in names_open:  # parents start before their children
                names_open[p] = names_open[self.parent_of[p]] | {self.name_of[p]}
            inner[i] = self.name_of[i] in names_open[p]
        out: dict[str, dict] = {}
        for i in range(1, n):
            rec = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "total_ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["self_ns"] += dur[i] - child[i]
            if not inner[i]:
                rec["total_ns"] += dur[i]
        return {
            "spans": n - 1,
            "root_ns": dur[0],
            "root_self_ns": dur[0] - child[0],
            "functions": out,
            "layers": self.layer_self(dur, child),
        }

    def layer_self(self, dur: list[int], child: list[int]) -> dict[str, int]:
        """Self time per layer; kernel spans count toward their caller's layer.

        "other" is time outside every traced function: the CLI, the suite's
        own fixture code and the interpreter.
        """
        n = len(self.name_of)
        layer = ["other"] * n
        kernels = ("linalg", "polycore")
        totals: dict[str, int] = {"other": dur[0] - child[0]}
        for i in range(1, n):
            module = self.names[self.name_of[i]].split(".")[0]
            layer[i] = layer[self.parent_of[i]] if module in kernels else module
            totals[layer[i]] = totals.get(layer[i], 0) + dur[i] - child[i]
        return totals


def install(rec: Recorder) -> list[str]:
    """Replace every listed function wherever the package binds it."""
    modules = [m for name, m in list(sys.modules.items()) if name == "lefschetz_lab" or name.startswith("lefschetz_lab.")]
    hooks = _hooks(rec)
    missing: list[str] = []
    for mod_name, names in TRACED.items():
        mod = importlib.import_module(f"lefschetz_lab.{mod_name}")
        for name in names:
            full = f"{mod_name}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    missing.append(full)
                    continue
                setattr(cls, meth, rec.wrap(f"{mod_name}.{cls_name}", fn, hooks.get(full)))
                continue
            if name.endswith("*"):
                found = [getattr(mod, n) for n in vars(mod) if n.startswith(name[:-1]) and callable(getattr(mod, n))]
            else:
                found = [getattr(mod, name)] if hasattr(mod, name) else []
            if not found:
                missing.append(full)
            for fn in found:
                traced = rec.wrap(SPAN_NAMES.get(full, full), fn, hooks.get(full))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
    return missing


def _hooks(rec: Recorder) -> dict:
    def ak_basis(args, kwargs, out):
        prefix = kwargs.get("preferred_prefix", args[2] if len(args) > 2 else None)
        rec.repeat("apolar.ak_basis", (args[0], args[1], None if prefix is None else tuple(prefix)))

    def hessian_vanishes(args, kwargs, out):
        rec.repeat("hessian.hessian_vanishes", (args[0], args[1]))
        if out.mode == "probabilistic":
            rec.count("hessian.hessian_vanishes.prob_verdicts")

    def det(args, kwargs, out):
        rec.maximum("linalg.det.max_n", len(args[0]))
        rec.maximum("linalg.det.max_bits", abs(out.numerator).bit_length())

    def rank(args, kwargs, out):
        rows = args[0]
        rec.maximum("linalg.rank.max_cells", len(rows) * len(rows[0]) if rows else 0)

    def check_element(name):
        def hook(args, kwargs, out):
            if out[0]:
                rec.count(name + ".useful")
        return hook

    return {
        "apolar.ak_basis": ak_basis,
        "hessian.hessian_vanishes": hessian_vanishes,
        "linalg.det": det,
        "linalg.rank": rank,
        "lefschetz.slp_check_element": check_element("lefschetz.slp_check_element"),
        "lefschetz.wlp_check_element": check_element("lefschetz.wlp_check_element"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the lefschetz_lab package")
    parser.add_argument("--out", required=True, help="where to write the span summary (JSON)")
    parser.add_argument("--item", required=True, help="item id shared by every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import lefschetz_lab.cli as cli

    spawn_ns = int(os.environ.get("PERFBENCH_SPAWN_NS", "0"))
    import_s = (time.time_ns() - spawn_ns) / 1e9 if spawn_ns else 0.0
    rec = Recorder()
    missing = install(rec)
    try:
        rc = cli.main(cli_args)
    finally:
        summary = rec.summary()
        summary.update(
            {
                "item": args.item,
                "import_s": import_s,
                "missing": missing,
                "counts": rec.counts,
                "maxima": rec.maxima,
            }
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
