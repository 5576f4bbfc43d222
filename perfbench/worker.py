"""One measured pass of one workload, in a fresh interpreter.

Started by run.py with the package on PYTHONPATH and a temporary working
directory.  Generates the inputs, then runs the operations one after another
(a closed loop with one client), checks every verdict after its operation's
clock has stopped, and writes the per-operation record to --out.  The
reference task of hostspeed.py is timed before every operation and after the
last one, outside the operations' clocks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import subprocess
import sys
from time import perf_counter

import expect
import hostspeed
import workloads


class Deadline(BaseException):
    """The pass's time budget ran out inside an operation."""


def _alarm(signum, frame):
    raise Deadline()


def run_cli_process(argv: list[str], timeout: float) -> tuple[int, bytes]:
    done = subprocess.run([sys.executable, "-m", "lf_forge.cli", *argv],
                          capture_output=True, timeout=timeout, check=False)
    return done.returncode, done.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    import lf_forge.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lf_forge.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inprocess", type=int, choices=(0, 1), default=0,
                    help="run CLI commands through lf_forge.cli.main, not a new process")
    ap.add_argument("--deadline", type=float, required=True,
                    help="seconds after the first operation starts when the pass stops")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    ops = workloads.plan(args.workload, args.seed)
    table = expect.load_cli_table() if args.workload == "cli-acceptance" else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    reference = []
    stdout_bytes = 0
    start = perf_counter()
    for i, op in enumerate(ops):
        reference.append(hostspeed.time_reference())
        remaining = args.deadline - (perf_counter() - start)
        if remaining <= 0:
            records.append({"label": op.label, "genus": op.genus, "seconds": None,
                            "failure": "not started: pass deadline passed"})
            continue
        if tracer is not None:
            tracer.op = i
        result, failure = None, None
        signal.setitimer(signal.ITIMER_REAL, remaining)
        t0 = perf_counter()
        try:
            if op.kind != "cli":
                result = workloads.run_inprocess(op)
            elif args.inprocess:
                result = run_cli_inprocess(*op.args)
            else:
                result = run_cli_process(*op.args, timeout=remaining)
        except (Deadline, subprocess.TimeoutExpired):
            failure = "timeout"
        except Exception as exc:
            failure = f"exception: {exc!r}"
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None:
            try:
                if op.kind == "cli":
                    code, out = result
                    stdout_bytes += len(out)
                    failure = expect.check_cli(table, *op.args, code, out)
                else:
                    failure = workloads.check(op, result)
            except Exception as exc:
                failure = f"malformed result: {exc!r}"
        records.append({"label": op.label, "genus": op.genus, "seconds": t1 - t0,
                        "failure": failure})
    reference.append(hostspeed.time_reference())
    if tracer is not None:
        tracer.uninstall()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {
        "ops": records,
        "reference_seconds": reference,
        "peak_rss_kb": max(self_kb, child_kb),
        "stdout_bytes": stdout_bytes,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
