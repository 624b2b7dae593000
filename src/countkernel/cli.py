"""Command-line front end.

Counts cross this boundary as nonnegative ASCII decimal strings of any
length only; graphs as the ``p/e/t/k`` text format; lift contexts and
composition metadata as the owning modules' JSON documents.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 input or
parse error, 4 oracle size guard.

Each step runs in its own process, so loading this module imports only
the kernel path (``graphs``, ``framework``, ``vc_kernel``).  The
subcommands that need ``compositions``, ``oracles`` or ``verification``
import them when they run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .framework import (
    CompositionError,
    CountingInstance,
    IntegrityError,
    LiftContext,
    OracleSizeError,
    PreconditionError,
    ProtocolError,
    decimal,
    shipped_compression,
)
from .graphs import ParseError, ParsedGraph, TerminalPair, parse_graph, serialize_graph
from .vc_kernel import MINIMAL_VC_KERNEL, VC_KERNEL


class CliUsageError(Exception):
    pass


class RunReport:
    """One run's machine- and human-readable record; both renderings
    are produced from the same fields.  ``seconds`` is the time from the
    report's creation, when its subcommand starts, to its ``_emit``."""

    def __init__(self, subcommand: str, inputs: dict | None = None):
        self.subcommand = subcommand
        self.inputs = {} if inputs is None else inputs
        self.outputs: dict = {}
        self.checks: list = []
        self.seconds = 0.0
        self.started = time.monotonic()

    def to_jsonable(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "seconds": round(self.seconds, 3),
        }

    def human_lines(self) -> list[str]:
        lines = list(self.outputs.get("primary", []))
        for check in self.checks:
            verdict = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{verdict} {check['name']}: {check['detail']}")
        return lines


def _emit(args, report: RunReport) -> None:
    report.seconds = time.monotonic() - report.started
    if getattr(args, "json", False):
        print(json.dumps(report.to_jsonable(), sort_keys=True))
    else:
        for line in report.human_lines():
            print(line)


def _load(path: str) -> ParsedGraph:
    """Parse a graph file, which ``parse_graph`` reads a block at a time."""
    with open(path, "rb") as file:
        return parse_graph(file)


def _budget(args, parsed: ParsedGraph) -> int:
    k = args.k if args.k is not None else parsed.k
    if k is None:
        raise CliUsageError("a budget is required: pass --k or put a k record in the file")
    if k < 0:
        raise ValueError(f"k = {k} must be nonnegative")
    return k


@contextmanager
def _any_length_decimals():
    """Lift the interpreter's 4,300-digit cap on int/str conversion, if
    it has one, while the block runs.  The cap guards against quadratic
    conversions of unbounded text, but the system bounds the length of
    one argument, and so the time its conversion takes.  Files keep the
    cap."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _count(text: str) -> int:
    """A count given on the command line: a ``decimal`` of any length."""
    with _any_length_decimals():
        return decimal(text, "count")


def _decimal(count: int) -> str:
    """A count as the CLI prints it, of any length."""
    with _any_length_decimals():
        return str(count)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    from . import oracles

    report = RunReport("oracle", inputs={"graph": args.graph, "which": args.which})
    parsed = _load(args.graph)
    g = parsed.graph
    if args.which in ("vc", "minvc", "oct"):
        k = _budget(args, parsed)
        counters = {
            "vc": oracles.count_vertex_covers,
            "minvc": oracles.count_minimal_vertex_covers,
            "oct": oracles.count_odd_cycle_transversals,
        }
        value = str(counters[args.which](g, k))
        report.inputs["k"] = k
    elif args.which == "mincut":
        if parsed.terminals is None:
            raise ValueError(f"{args.graph}: mincut needs a t record")
        count, size = oracles.count_min_st_cuts(g, parsed.terminals)
        value = str(count)
        report.outputs["cut_size"] = size
    elif args.which == "matching":
        value = str(oracles.max_matching_size(g))
    elif args.which == "lpvc":
        value = str(oracles.lp_vc_value(g))
    else:  # tw
        width, _ = oracles.exact_treewidth(g)
        value = str(width)
    report.outputs["value"] = value
    report.outputs["primary"] = [value]
    _emit(args, report)
    return 0


# The shipped compression each ``kernel`` or ``ppt`` step runs, by
# command and by the argument that names the step.  The transformations'
# owner loads ``oracles``, so their names are spelled out here.
STEPS = {
    ("kernel", "vc"): VC_KERNEL,
    ("kernel", "minvc"): MINIMAL_VC_KERNEL,
    ("ppt", "mincut-oct"): "mincut-to-oct",
    ("ppt", "oct-vc"): "oct-to-vc",
}


def cmd_step(args) -> int:
    compression = shipped_compression(STEPS[args.command, args.which])
    report = RunReport(f"{args.command} {args.which} {args.action}")
    if args.action == "reduce":
        parsed = _load(args.graph)
        if compression.source_problem == "min-st-cut":
            if parsed.terminals is None:
                raise ValueError(f"{args.graph}: {args.which} needs a t record")
            inst = CountingInstance(parsed.graph, parsed.terminals, None, "min-cut-size")
        else:
            inst = CountingInstance(parsed.graph, None, _budget(args, parsed))
        # ``main`` refuses --check-nice to every step but oct-vc's reduce.
        if getattr(args, "check_nice", False):
            result = compression.reduce(inst, verify_nice=True)
        else:
            result = compression.reduce(inst)
        reduced = result.reduced
        Path(args.out).write_text(serialize_graph(reduced.graph, k=reduced.k), encoding="utf-8")
        if args.context:
            Path(args.context).write_text(result.context.to_json(), encoding="utf-8")
        summary = f"reduced to n={reduced.graph.n} m={reduced.graph.m} k={reduced.k}"
        if "branch" in result.context.payload:
            summary += f" branch={result.context.payload['branch']}"
        report.inputs.update(graph=args.graph, k=inst.k)
        report.outputs.update(out=args.out, context=args.context, reduced_n=reduced.graph.n,
                              reduced_m=reduced.graph.m, reduced_k=reduced.k,
                              primary=[summary])
    else:
        ctx = LiftContext.from_json(Path(args.context).read_text(encoding="utf-8"))
        value = _decimal(compression.lift(ctx, _count(args.count)))
        report.inputs.update(context=args.context, count=args.count)
        report.outputs.update(value=value, primary=[value])
    _emit(args, report)
    return 0


def _load_cut_instances(paths: str):
    instances = []
    for path in paths.split(","):
        parsed = _load(path)
        if parsed.terminals is None:
            raise ValueError(f"{path}: composition inputs need a t record")
        instances.append((parsed.graph, parsed.terminals))
    return instances


def cmd_compose(args) -> int:
    from . import compositions

    report = RunReport(f"compose {args.how}", inputs={"inputs": args.inputs})
    instances = _load_cut_instances(args.inputs)
    if args.how == "sum":
        composed = compositions.sum_compose(instances)
        Path(args.out).write_text(
            serialize_graph(composed.graph, composed.terminals, k=composed.k),
            encoding="utf-8")
        summary = (f"composed n={composed.graph.n} m={composed.graph.m} "
                   f"cut_size={composed.k}")
        report.outputs.update(out=args.out, cut_size=composed.k, primary=[summary])
    else:
        composition = compositions.exact_compose(instances)
        Path(args.out).write_text(
            serialize_graph(composition.graph, composition.terminals), encoding="utf-8")
        Path(args.meta).write_text(composition.metadata.to_json(), encoding="utf-8")
        if args.td:
            Path(args.td).write_text(
                json.dumps(composition.witness.to_jsonable()), encoding="utf-8")
        summary = (f"composed n={composition.graph.n} m={composition.graph.m} "
                   f"branch={composition.metadata.branch} "
                   f"witness_width={composition.witness.width}")
        report.outputs.update(out=args.out, meta=args.meta,
                              branch=composition.metadata.branch,
                              witness_width=composition.witness.width,
                              primary=[summary])
    _emit(args, report)
    return 0


def cmd_extract(args) -> int:
    from . import compositions

    report = RunReport("extract", inputs={"meta": args.meta, "count": args.count})
    meta = compositions.ExactMetadata.from_json(Path(args.meta).read_text(encoding="utf-8"))
    counts = compositions.extract_counts(meta, _count(args.count))
    values = [_decimal(c) for c in counts]
    report.outputs.update(values=values, primary=values)
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    from . import verification

    run = RunReport(f"verify {args.suite}",
                    inputs={"nmax": args.nmax, "kmax": args.kmax,
                            "seed": args.seed, "trials": args.trials})
    reports = verification.run_suite(args.suite, nmax=args.nmax, kmax=args.kmax,
                                     seed=args.seed, trials=args.trials)
    for rep in reports:
        run.checks.append({"name": rep.name, "passed": rep.passed,
                           "detail": f"{rep.checked} checks in {rep.seconds:.1f}s"
                                     + (f"; {rep.failures[0]}" if rep.failures else "")})
    ok = all(rep.passed for rep in reports)
    run.outputs["passed"] = ok
    _emit(args, run)
    return 0 if ok else 1


def cmd_gen(args) -> int:
    from . import oracles

    report = RunReport("gen gnp",
                       inputs={"n": args.n, "p": args.p, "seed": args.seed})
    g = oracles.random_graph(args.n, args.p, args.seed)
    terminals = None
    if args.terminals:
        s, t = args.terminals
        terminals = TerminalPair(s, t)
        terminals.check_in(g)
    Path(args.out).write_text(serialize_graph(g, terminals, k=args.k), encoding="utf-8")
    summary = f"wrote n={g.n} m={g.m} to {args.out}"
    report.outputs.update(out=args.out, m=g.m, primary=[summary])
    _emit(args, report)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# ``verification.SUITES``'s names, spelled out so that building the
# parser does not import the sweeps; a test keeps the two equal.
VERIFY_SUITES = ("vc-kernel", "minvc-kernel", "sum", "exact", "ppt-oct", "ppt-vc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countkernel",
        description="Counting kernels, cut compositions, and their brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON run report")

    p = sub.add_parser("oracle", help="solve an instance by brute force")
    p.add_argument("which", choices=["vc", "minvc", "oct", "mincut", "matching", "lpvc", "tw"])
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    add_json(p)
    p.set_defaults(func=cmd_oracle)

    # A kernel step names its action and its context file.  A ppt step
    # without an action is a reduce, which writes a context if asked.
    for command, what in (("kernel", "a kernel"), ("ppt", "a parameter transformation")):
        p = sub.add_parser(command, help=f"run {what}'s reduce or lift step")
        p.add_argument("which", choices=[which for c, which in STEPS if c == command])
        p.add_argument("action", choices=["reduce", "lift"],
                       **({} if command == "kernel" else {"nargs": "?", "default": "reduce"}))
        p.add_argument("--graph")
        p.add_argument("--k", type=int)
        p.add_argument("--out")
        p.add_argument("--context", required=command == "kernel")
        p.add_argument("--count")
        if command == "ppt":
            p.add_argument("--check-nice", action="store_true",
                           help="verify niceness by brute force before transforming")
        add_json(p)
        p.set_defaults(func=cmd_step)

    p = sub.add_parser("compose", help="compose equal-cut-size instances")
    p.add_argument("how", choices=["sum", "exact"])
    p.add_argument("--inputs", required=True, help="comma-separated graph files")
    p.add_argument("--out", required=True)
    p.add_argument("--meta", help="metadata output file (exact only)")
    p.add_argument("--td", help="optional witness decomposition output file (exact only)")
    add_json(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("extract", help="recover input counts from a composed count")
    p.add_argument("--meta", required=True)
    p.add_argument("--count", required=True)
    add_json(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a property suite against the oracles")
    p.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random graph file")
    p.add_argument("model", choices=["gnp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--terminals", type=int, nargs=2, metavar=("S", "T"),
                   help="0-based terminal pair to record")
    p.add_argument("--k", type=int)
    add_json(p)
    p.set_defaults(func=cmd_gen)
    return parser


# The options a step needs and the options it ignores, by the argument
# that names the step: a missing or an ignored option is a usage error.
NEEDED = {"reduce": ("graph", "out"), "lift": ("context", "count"), "exact": ("meta",)}
IGNORED = {
    "reduce": ("count",),
    "lift": ("graph", "k", "out", "check_nice"),
    "mincut-oct": ("k", "check_nice"),
    "sum": ("meta", "td"),
    **dict.fromkeys(("mincut", "matching", "lpvc", "tw"), ("k",)),
}


def _flags(names) -> list[str]:
    return [f"--{name.replace('_', '-')}" for name in names]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        for flag in ("nmax", "kmax", "trials"):
            if (getattr(args, flag) or 0) < 0:
                parser.error(f"verify --{flag} must be nonnegative")
    given = vars(args)
    for step in (given.get("action"), given.get("which"), given.get("how")):
        missing = [name for name in NEEDED.get(step, ()) if given[name] is None]
        if missing:
            parser.error(f"{args.command} {step} needs {' and '.join(_flags(missing))}")
        ignored = [name for name in IGNORED.get(step, ()) if name in given]
        if any(given[name] is not None and given[name] is not False for name in ignored):
            flags = _flags(ignored)
            parser.error(f"{args.command} {step} takes "
                         f"{'neither' if len(flags) > 1 else 'no'} {' nor '.join(flags)}")
    try:
        return args.func(args)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError, CompositionError, ProtocolError,
            PreconditionError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
