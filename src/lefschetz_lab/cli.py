"""Command-line front end: analyze a form, generate a family, run the suite.

Exit codes: 0 success, 1 suite fixtures failed or stdout closed (early, or
before the run), 2 usage or validation error or out of memory, 3 an
undetermined SLP or WLP verdict under --strict.  `reproduce` runs its
fixtures in worker processes; a worker that dies fails the fixtures it did
not report, so the suite exits 1.  The LEFSCHETZ_LAB_SEED environment
variable supplies the default seed.  Each command imports its modules when
it runs, so --version and --help load none.

`run()` is the process entry (`python -m lefschetz_lab` and the
`lefschetz-lab` script): it calls `main()`, flushes stdout and stderr and
leaves through `os._exit`, so the interpreter does not tear down every
module and memo one by one.  Exit handlers that other code registers with
`atexit` therefore do not run.  Under `-X dev`, or while a profiler or
tracer is set, it leaves through `sys.exit` instead, so teardown warnings
still show and a profiler still reports.  To embed the CLI, call `main()`,
which returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, NoReturn, Optional

from . import __version__
from .errors import LefschetzLabError

if TYPE_CHECKING:
    from .polycore import VariableSet

USAGE_ERROR = 2
STRICT_UNDETERMINED = 3

# the `generate` flags: every family parameter, lower-cased
_INT_FLAGS = ("n", "m", "d", "k", "e", "r")
_FAMILY_FLAGS = _INT_FLAGS + ("case", "variant")


def _default_seed() -> int:
    raw = os.environ.get("LEFSCHETZ_LAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise LefschetzLabError(
            f"LEFSCHETZ_LAB_SEED must be an integer, got {raw!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz-lab",
        description=(
            "Exact analysis of the graded algebra attached to a homogeneous "
            "form: Hilbert vector, higher Hessians, Lefschetz properties, "
            "and certified counterexample families."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a homogeneous form")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial text")
    src.add_argument("--in", dest="infile", help="file with polynomial text or a generated instance (JSON)")
    pa.add_argument("--vars", help="comma-separated variable names")
    pa.add_argument("--mode", choices=("exact", "prob"), default="prob")
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--json", dest="json_path", help="write the full report as JSON")
    pa.add_argument("--max-k", type=int, default=None, help="cap the Hessian profile order")
    pa.add_argument("--strict", action="store_true", help="exit 3 when the SLP or WLP verdict is undetermined")

    pg = sub.add_parser("generate", help="generate a family instance")
    # checked in cmd_generate: argparse choices would load `families` on every start
    pg.add_argument("--family", required=True, help="family name; an unknown name exits 2 and lists them")
    for flag in _INT_FLAGS:
        pg.add_argument(f"--{flag}", type=int, default=None)
    pg.add_argument("--case", choices=("i", "ii", "iii"), default=None)
    pg.add_argument("--variant", choices=("lemma_m2", "minimal", "maximal"), default=None)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--out", help="write the instance as JSON")

    pr = sub.add_parser("reproduce", help="run the acceptance fixture table")
    pr.add_argument("--suite", default="paper")
    pr.add_argument("--json", dest="json_path", help="write the outcome table as JSON")
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--mode", choices=("exact", "prob"), default="prob")
    return parser


def _long_mode(mode: str) -> str:
    return "exact" if mode == "exact" else "probabilistic"


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_writable(path: str, what: str) -> None:
    """Refuse a path for `what` that cannot be written, before the work that
    makes it: a folder, a missing or unwritable folder, or an unwritable
    file."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise LefschetzLabError(f"cannot write {what} to {path!r}")


def _load_input(args) -> tuple[str, VariableSet]:
    from .polycore import VariableSet

    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            if args.vars is not None:
                raise LefschetzLabError("--vars cannot be given with a generated instance; its JSON declares 'vars'")
            data = json.loads(text)
            poly, names = data.get("poly"), data.get("vars")
            if not isinstance(poly, str):
                raise LefschetzLabError("instance JSON needs a string 'poly'")
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise LefschetzLabError("instance JSON needs 'vars' as a list of strings")
            return poly, VariableSet(tuple(names))
        poly_text = text
    else:
        poly_text = args.poly
    if not args.vars:
        raise LefschetzLabError("--vars is required unless --in is a generated instance")
    names = tuple(name.strip() for name in args.vars.split(",") if name.strip())
    return poly_text, VariableSet(names)


def cmd_analyze(args) -> int:
    from .analysis import Analysis
    from .apolar import is_unimodal
    from .hessian import hess_profile, is_cone
    from .lefschetz import _slp_fails, slp_generic, wlp_generic
    from .polycore import parse_poly
    from .support import ZeroBlock

    if args.max_k is not None and args.max_k < 0:  # before any stage; hess_profile says the same
        raise LefschetzLabError(f"max_k={args.max_k} is negative")
    mode = _long_mode(args.mode)
    poly_text, vs = _load_input(args)
    f = parse_poly(poly_text, vs)
    an = Analysis(f, mode, args.seed)
    d = f.degree
    timing: dict[str, float] = {}

    def stage(name: str, fn):
        start = time.perf_counter()
        value = fn()
        timing[name] = round((time.perf_counter() - start) * 1000.0, 3)
        return value

    hv = stage("hilbert", an.hilbert)
    unimodal = is_unimodal(hv)
    cone = stage("cone", lambda: is_cone(an))
    profile = stage("hess_profile", lambda: hess_profile(an, max_k=args.max_k))
    if cone.is_cone:
        print(
            "warning: input has annihilating degree-1 operators (cone-like degenerate); "
            "profile is computed on the quotient basis",
            file=sys.stderr,
        )
    full_profile = args.max_k is None or args.max_k >= d // 2
    slp = stage("slp", lambda: slp_generic(an)) if full_profile else None
    wlp = stage("wlp", lambda: wlp_generic(an))
    if slp is None:  # capped: SLP fails at the lowest order decided, or proved by a zero block, to vanish
        unsettled = False
        for k in range(d // 2 + 1):
            if not (an.decided(k) or k > 0 and an.key(k) is not None):
                unsettled = True
            elif (verdict := an.verdict(k)).vanishes:
                slp = _slp_fails(d, hv, k, verdict)
                break
        if slp is None and not unsettled:  # every order settled, none vanishing: the full verdict
            slp = stage("slp", lambda: slp_generic(an))
    decided = [v.certificate for v in profile] + [getattr(r, "certificate", None) for r in (slp, wlp)]
    blocks = dict.fromkeys(getattr(c, "certificate", c) for c in decided)  # a verdict's block, or a report's
    certificates = [c for c in blocks if isinstance(c, ZeroBlock)]

    slp_verdict = slp.verdict if slp else "undetermined"
    print(f"polynomial      {f.to_text()}")
    print(f"variables       {', '.join(vs.names)}")
    print(f"degree          {d}")
    print(f"hilbert vector  {tuple(hv.dims)}  unimodal={unimodal}")
    print(f"cone            {cone.is_cone}")
    for k, verdict in enumerate(profile):
        status = "= 0" if verdict.vanishes else "!= 0"
        print(f"hessian[{k}]      {status}   ({verdict.mode})")
    slp_line = slp_verdict
    if slp and slp.level is not None:
        slp_line += f" at order {slp.level}"
    print(f"strong property {slp_line}")
    wlp_line = wlp.verdict
    if wlp.level is not None:
        wlp_line += f" at map A_{wlp.level} -> A_{wlp.level + 1}"
    print(f"weak property   {wlp_line}")
    print(f"certificates    {len(certificates)}")

    if args.json_path:
        report = {
            "input": {"poly": f.to_text(), "vars": list(vs.names)},
            "degree": d,
            "seed": args.seed,
            "mode": mode,
            "tool_version": __version__,
            "hilbert": list(hv.dims),
            "unimodal": unimodal,
            "cone": cone.to_json_dict(),
            "hess_profile": [v.to_json_dict() for v in profile],
            "slp": slp.to_json_dict() if slp else {"verdict": "undetermined", "reason": "profile capped by --max-k"},
            "wlp": wlp.to_json_dict(),
            "certificates": [c.to_json_dict() for c in certificates],
            "counts": an.counts(),
            "timing_ms": timing,
        }
        _write_json(args.json_path, report)
        print(f"report written  {args.json_path}")

    if args.strict and "undetermined" in (slp_verdict, wlp.verdict):
        return STRICT_UNDETERMINED
    return 0


def cmd_generate(args) -> int:
    from .families import FAMILIES, FamilySpec, generate

    kind = args.family
    if kind not in FAMILIES:
        raise LefschetzLabError(f"unknown family {kind!r}; available: {', '.join(FAMILIES)}")
    family = FAMILIES[kind]
    taken = {name.lower() for name in family.params}
    for flag in _FAMILY_FLAGS:
        if flag not in taken and getattr(args, flag) is not None:
            raise LefschetzLabError(f"--family {kind} takes no --{flag}")
    params: dict = {}
    for name in family.params:
        value = getattr(args, name.lower())
        if value is None and name not in family.optional:
            raise LefschetzLabError(f"--family {kind} requires --{name.lower()}")
        if value is not None:
            params[name] = value
    instance = generate(FamilySpec(kind, params, args.seed))
    payload = instance.to_json_dict()
    print(instance.f.to_text())
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)
    return 0


def cmd_reproduce(args) -> int:
    if args.suite != "paper":
        raise LefschetzLabError(f"unknown suite {args.suite!r}; available: paper")
    from .reproduce import SuiteConfig, format_table, run_suite

    config = SuiteConfig(seed=args.seed, mode=_long_mode(args.mode))
    outcomes = run_suite(config)
    print(format_table(outcomes))
    if args.json_path:
        _write_json(args.json_path, [o.to_json_dict() for o in outcomes])
    failed = [o for o in outcomes if not o.passed]
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if getattr(args, "json_path", None):
            _check_writable(args.json_path, "the JSON report")
        if getattr(args, "out", None):
            _check_writable(args.out, "the instance")
        code = {"analyze": cmd_analyze, "generate": cmd_generate, "reproduce": cmd_reproduce}[args.command](args)
        if sys.stdout is None:  # fd 1 was closed at start-up, so print() wrote nothing
            return 1
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`analyze ... | head -1`): quietly, and the flush at exit goes to devnull
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        return 1
    except (LefschetzLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return USAGE_ERROR


def _observed() -> bool:
    """Whether the interpreter runs in dev mode or under a profiler or tracer
    (`sys.monitoring` tools included), whose reports need a full teardown."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+; its tool ids are 0-5
    return (
        sys.flags.dev_mode
        or sys.getprofile() is not None
        or sys.gettrace() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def run() -> NoReturn:
    """Run `main()` as a process and end it with its exit code.

    Once stdout and stderr are flushed nothing else is owed, so the process
    leaves through `os._exit`; see the module docstring for when it does not.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)  # the flush at exit retries and reports it, as it always has
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
