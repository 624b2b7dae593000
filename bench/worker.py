"""Run one op's CLI steps in this fresh interpreter and report on stdout.

Reads a JSON job from stdin: ``steps`` (argument lists for
``countkernel.cli.main``), ``trace`` (install spans first) and, when
tracing, ``trace_file`` for the raw span records.  Prints one JSON line:
per step the exit code, wall seconds, captured stdout and stderr; this
process's peak RSS; and, when tracing, the span summary.  A step that
fails ends the op.

A fresh interpreter per op gives every op the cold state a command-line
user sees: no warm ``lru_cache`` in the lift, and no memory from the
input generator in the peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def run_step(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed op, reported with its traceback
        code = -1
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def peak_rss_kb() -> int:
    """This process's peak RSS.  ``ru_maxrss`` would also count the parent's
    footprint at fork time, so read the high-water mark of this image first."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    from countkernel import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"countkernel imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    steps = []
    for argv in job["steps"]:
        steps.append(run_step(cli, argv))
        if steps[-1]["code"] != 0:
            break
    result = {"steps": steps, "rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        Path(job["trace_file"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
