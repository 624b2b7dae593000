"""Benchmark harness for the countkernel CLI pipelines.

    python3 bench/run.py --workload kernel-sparse --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository (it finds ``src/countkernel`` next
to ``bench/``).  Setup writes the seeded inputs and their expected
answers under ``.bench_work/`` and starts the program once in a fresh
interpreter, so its bytecode is compiled before anything is timed; it
runs SETUP_REPEATS times and ``setup_s`` is the median.  The timed phase
then runs whole rounds of the workload's ops, closed loop with one
client, until ``--seconds`` have passed; every op runs in a fresh
interpreter (``worker.py``) that calls ``countkernel.cli.main``
in-process, and every output is checked against the expected answers.

Every time the benchmark reports is scaled to a machine of fixed speed
(``Speed``): the time of each setup and each op execution is multiplied
by REF_S over the mean time ``reference_s`` took just before and just
after it.  On a shared machine whose speed drifts by half within
minutes, this keeps the figures of unchanged code steady; the code under
test never runs inside ``reference_s``, so a change to it still shows in
full.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` every op runs twice, untraced and with spans around the
program's public functions; the two runs' outputs must be equal,
every span the workload declares must fire, and the result carries the
per-layer metrics.  The last stdout line is the JSON result; the lines
before it give provenance and one line per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import ENUMERATORS
from workloads import CHECKS, WORKLOADS, outcome_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
SETUP_REPEATS = 5
# Seconds reference_s takes on the machine every time is scaled
# to: about its median on a 2-vCPU x86 VM (Intel Xeon, Python 3.11).
REF_S = 0.040
# Every run must end within 180 s; ops still running at this mark are killed.
RUN_LIMIT_S = 165.0
MB = 1 << 20


def reference_s() -> float:
    """Time a fixed pure-Python task: dict stores of int-to-str values,
    the kind of work the program does.  How long it takes tells how fast
    the machine runs at this moment.  It runs in this process, so the op
    processes' time and memory hold none of it."""
    start = perf_counter()
    table = {}
    for i in range(150_000):
        table[i * 7 % 100_003] = str(i)
    sum(map(len, table.values()))
    return perf_counter() - start


class Speed:
    """Scale factors to a machine on which reference_s takes REF_S.  Each
    call to ``scale`` closes the span since the previous one (the first
    opens at construction) and takes the mean of the references at its
    two ends, so consecutive timed items share a reference."""

    def __init__(self) -> None:
        self.last = reference_s()

    def scale(self) -> float:
        before, self.last = self.last, reference_s()
        return REF_S / ((before + self.last) / 2)


@dataclass
class Execution:
    op_id: str
    kind: str
    seconds: float = 0.0       # the main() calls, in the worker
    wall_s: float = 0.0        # the worker process, start to exit
    scale: float = 1.0         # from Speed.scale, for this execution
    rss_kb: int = 0
    output_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    layers: dict | None = None


def execute(op, tag: str, trace: bool, work: Path, deadline: float) -> Execution:
    """Run one op in a fresh worker interpreter and check what it wrote."""
    ex = Execution(op.id, op.kind)
    # The same directory for every execution of an op keeps the paths its
    # reports echo, and so its output bytes, identical between executions.
    out = work / "out" / op.id
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    trace_file = work / "trace" / f"{op.id}-{tag}.json"
    job = {"steps": [[arg.replace("{out}", str(out)) for arg in step] for step in op.steps],
           "trace": trace, "trace_file": str(trace_file)}
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        ex.wall_s = perf_counter() - start
        ex.errors.append("timed out at the run's time limit")
        return ex
    ex.wall_s = perf_counter() - start
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        ex.errors.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return ex
    steps = result["steps"]
    ex.seconds = sum(step["seconds"] for step in steps)
    ex.rss_kb = result["rss_kb"]
    ex.layers = result.get("layers")
    ex.output_bytes = (sum(p.stat().st_size for p in out.iterdir() if p.is_file())
                       + sum(len(step["stdout"].encode()) for step in steps))
    for i, step in enumerate(steps):
        if step["code"] != 0:
            ex.errors.append(f"step {i + 1} ({' '.join(op.steps[i][:2])}) exited "
                             f"{step['code']}: {step['stderr'].strip()[-500:]}")
    if not ex.errors:
        # Output the checker cannot read (a missing file, a report that is
        # not JSON) fails the op like a wrong count does.
        try:
            reports = [json.loads(step["stdout"]) for step in steps]
            errors, info = CHECKS[op.kind](op, reports, out)
            ex.outcome = {**outcome_digest(out, reports), **info}
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        ex.errors.extend(errors)
    shutil.rmtree(out, ignore_errors=True)
    return ex


def cold_start() -> None:
    """Start the program once in a fresh worker and run nothing, as every op's
    worker will; the first start also writes the bytecode cache."""
    subprocess.run([sys.executable, str(BENCH / "worker.py")], check=True, capture_output=True,
                   input=json.dumps({"steps": [], "trace": False}), text=True, cwd=ROOT,
                   env=dict(os.environ, PYTHONHASHSEED="0"))


def merge_layers(execs: list[Execution]) -> dict:
    total = {"self_s": {}, "calls": {}, "counters": {}}
    for ex in execs:
        if not ex.layers:
            continue
        for name, value in ex.layers["self_s"].items():
            total["self_s"][name] = total["self_s"].get(name, 0.0) + value * ex.scale
        for name, value in ex.layers["calls"].items():
            total["calls"][name] = total["calls"].get(name, 0) + value
        for name, bucket in ex.layers["counters"].items():
            into = total["counters"].setdefault(name, {})
            for counter, value in bucket.items():
                into[counter] = into.get(counter, 0) + value
    return total


def layer_metrics(names: list[str], layers: dict, zero_ratio: float, overhead: float) -> dict:
    """Per-layer metric values by name, from the merged span summaries."""
    self_s, calls, counters = layers["self_s"], layers["calls"], layers["counters"]

    def counter(span: str, key: str) -> int:
        return counters.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    special = {
        "graphs.parse_graph.edges_per_s":
            ratio(counter("graphs.parse_graph", "edges"), self_s.get("graphs.parse_graph", 0.0)),
        "vc_kernel.zero_branch_ratio": zero_ratio,
        "compositions.ppt.m_out": counter("compositions.mincut_to_oct_reduce", "m_out")
                                  + counter("compositions.oct_to_vc_reduce", "m_out"),
        "oracles.candidates_per_s":
            ratio(sum(counter(name, "candidates") for name in ENUMERATORS),
                  sum(self_s.get(name, 0.0) for name in ENUMERATORS)),
        "bench.trace_overhead": overhead,
    }
    values = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif key == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif key == "calls":
            values[name] = calls.get(span, 0)
        else:
            values[name] = counter(span, key)
    return values


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    sources = sorted((ROOT / "src" / "countkernel").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "countkernel" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/countkernel or no BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload

    setup_times = []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        (work / "trace").mkdir()
        start = perf_counter()
        ops = workload.setup(args.seed, work / "in")
        cold_start()
        seconds = perf_counter() - start
        setup_times.append(seconds * speed.scale())
    random.Random(args.seed).shuffle(ops)

    plain: list[Execution] = []
    traced: list[Execution] = []
    mismatches: list[str] = []
    rounds = 0
    phase_start = perf_counter()
    while perf_counter() < deadline:
        for i, op in enumerate(ops):
            # With tracing, every other op runs traced first, so order effects cancel.
            modes = ((False, True) if i % 2 == 0 else (True, False)) if args.trace else (False,)
            runs = {}
            for mode in modes:
                runs[mode] = execute(op, str(rounds), mode, work, deadline)
                runs[mode].scale = speed.scale()
            plain.append(runs[False])
            if args.trace:
                traced.append(runs[True])
                if not runs[False].errors and not runs[True].errors \
                        and runs[False].outcome != runs[True].outcome:
                    mismatches.append(f"{op.id}: traced outputs differ from untraced")
            if perf_counter() >= deadline:
                break
        rounds += 1
        if perf_counter() - phase_start >= args.seconds:
            break
    phase_s = perf_counter() - phase_start

    execs = plain + traced
    failures = [f"{ex.op_id}: {msg}" for ex in execs for msg in ex.errors] + mismatches
    failed = sum(1 for ex in execs if ex.errors) + len(mismatches)
    ok = [ex for ex in plain if not ex.errors]
    if args.trace:
        layers = merge_layers(traced)
        failures += [f"span {name} never fired in the traced run"
                     for name in workload.spans if not layers["calls"].get(name)]
        kernel_ops = [ex for ex in plain if ex.kind == "kernel" and not ex.errors]
        zero_ratio = (sum(ex.outcome.get("branch") == "zero" for ex in kernel_ops)
                      / len(kernel_ops)) if kernel_ops else 0.0
        plain_s = sum(ex.seconds * ex.scale for ex in plain)
        traced_s = sum(ex.seconds * ex.scale for ex in traced)
        overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, layers, zero_ratio, overhead)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "ops_per_s": len(ok) / sum(ex.wall_s * ex.scale for ex in plain),
            "op_p50_s": statistics.median(ex.seconds * ex.scale for ex in ok) if ok else 0.0,
            "peak_rss_mb": max((ex.rss_kb for ex in ok), default=0) / 1024,
            "output_mb": statistics.median(ex.output_bytes for ex in ok) / MB if ok else 0.0,
            "success_rate": 1.0 - failed / len(execs) if execs else 0.0,
            "setup_s": statistics.median(setup_times),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    info = provenance(args)
    info.update(rounds=rounds, ops=len(plain), samples=len(ok), phase_s=round(phase_s, 3),
                median_scale=statistics.median(ex.scale for ex in execs))
    print("provenance " + json.dumps(info, sort_keys=True))
    for ex in plain:
        print(f"op {ex.op_id}: {ex.seconds:.3f} s unscaled, x {ex.scale:.3f}, "
              f"rss {ex.rss_kb / 1024:.1f} MB, "
              f"{ex.output_bytes} bytes out{'' if not ex.errors else ', FAILED'}")
    for line in failures:
        print(f"FAIL {line}")
    for name, value in values.items():
        note = f" (median of {len(ok)} ops)" if name == "op_p50_s" else ""
        print(f"metric {name} = {value} {units[name]}{note}")
    result = {
        "correct": not failures and bool(ok),
        "attempted": max(len(execs), 1),
        "failed": failed if execs else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
