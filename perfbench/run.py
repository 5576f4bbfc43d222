"""lf-forge benchmark: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from `src/`
without installing it.  Each run starts one warm-up interpreter (so .pyc
compilation is not timed); workers run in a temporary directory under
`.perfbench/`.

With --trace 0 the run makes `workloads.passes` passes of the workload
(`workloads.plan`), each in a fresh worker interpreter, and before, between
and after them times SETUP_RUNS fresh interpreters in all, from start until
`import lf_forge` returns.  The last stdout line holds the end-to-end
metrics.  Every time in them is adjusted for the host's speed at that moment: the run times
`hostspeed.reference_task` right before and after each operation and each
set-up sample and scales the sample by REFERENCE_SECONDS over the mean of
those two (see hostspeed.py).  An operation's time is then its median over
the passes.  The unadjusted values are printed in comment lines above.  With
--trace 1 an untraced and then a traced worker run one pass, and the
last line holds the per-layer metrics; the traced run also writes its span
tree and per-operation sizes to `.perfbench/trace-<workload>-<seed>.json`.
CLI commands run through `lf_forge.cli.main` in process in both of those
workers, so that the difference between them is the tracing overhead.

Exit 0 with the result line, or non-zero without one when the package or
the worker cannot run.  Failed verdicts do not change the exit code; they
show in "correct", "failed" and the fail_frac line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_RUNS = 16
# Whole measured phase of one invocation, so a run ends well inside 180 s.
MEASURE_BUDGET = 140.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def _commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(env: dict, cwd: Path, count: int) -> list[tuple[float, float]]:
    """(seconds, adjusted seconds) from spawning an interpreter until
    `import lf_forge` returns.

    perf_counter reads the system-wide monotonic clock, so the child's
    reading after the import and ours before the spawn are comparable."""
    code = "import lf_forge, time; print(repr(time.perf_counter()))"
    times = []
    before = hostspeed.time_reference()
    for _ in range(count):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds = float(done.stdout) - t0
        after = hostspeed.time_reference()
        times.append((seconds, hostspeed.adjust(seconds, before, after)))
        before = after
    return times


def run_worker(args, env, cwd: Path, trace: int, inprocess: int, deadline: float) -> dict:
    out = cwd / f"worker-{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--inprocess", str(inprocess),
           "--deadline", str(deadline), "--out", str(out)]
    subprocess.run(cmd, env=env, cwd=cwd, timeout=deadline + 30, check=True)
    return json.loads(out.read_text())


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 operations beyond it:
    (value, percentile, operations beyond).  With 10 or fewer operations
    there is none, and the slowest is reported with 0 beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lf_forge" / "__init__.py").is_file():
        print(f"lf_forge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    cwd = scratch / f"run-{os.getpid()}"
    cwd.mkdir(parents=True, exist_ok=True)
    env = _env(args.seed)
    passes = 1 if args.trace else workloads.passes(args.workload, args.seconds)
    try:
        measure_setup(env, cwd, 1)  # compiles .pyc files; discarded
        if args.trace:
            plain = run_worker(args, env, cwd, 0, 1, MEASURE_BUDGET * 0.4)
            traced = run_worker(args, env, cwd, 1, 1, MEASURE_BUDGET * 0.6)
            results = [plain, traced]
        else:
            # The set-up samples are spread before, between and after the
            # passes, so that one slow spell of the machine does not set them all.
            gaps = [SETUP_RUNS * (k + 1) // (passes + 1) - SETUP_RUNS * k // (passes + 1)
                    for k in range(passes + 1)]
            setup = measure_setup(env, cwd, gaps[0])
            results = []
            for k in range(passes):
                results.append(run_worker(args, env, cwd, 0, 0, MEASURE_BUDGET / passes))
                setup += measure_setup(env, cwd, gaps[k + 1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    print(f"# lf-forge benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"commit {_commit()}  src-sha256 {_source_digest()}")
    print(f"# load: closed loop, 1 client, 1 worker process at a time, no extra threads; "
          f"{passes} pass(es) of {len(results[0]['ops'])} operations")
    attempted = sum(len(r["ops"]) for r in results)
    failed = [op for r in results for op in r["ops"] if op["failure"] is not None]
    for f in failed[:20]:
        print(f"# FAILED {f['label']}: {f['failure']}")
    if args.trace:
        metrics = trace_metrics(args, results[0], results[1], scratch)
    else:
        metrics = end_to_end(results, setup)
    print(f"fail_frac {len(failed) / attempted} ratio ({len(failed)} of {attempted} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def op_seconds(result: dict, adjusted: bool) -> list[float | None]:
    """Each operation's time in one pass, host-adjusted or not; None for an
    operation that never started."""
    ref = result["reference_seconds"]
    return [None if op["seconds"] is None
            else hostspeed.adjust(op["seconds"], ref[i], ref[i + 1]) if adjusted
            else op["seconds"] for i, op in enumerate(result["ops"])]


def timings(results: list[dict], setup: list[tuple[float, float]],
            adjusted: bool) -> tuple[dict, tuple[list[float], float, int]]:
    """The timed metrics of one pass whose operations each take their median
    time over the passes, host-adjusted or not; an operation that failed in
    any pass is left out.  Also the operation times and their tail."""
    per_pass = [op_seconds(r, adjusted) for r in results]
    times = []
    for i, ops in enumerate(zip(*(r["ops"] for r in results))):
        if all(op["failure"] is None for op in ops):
            times.append(statistics.median(p[i] for p in per_pass))
    tail_s, pct, beyond = tail(times)
    return {
        "setup_s": statistics.median(s[adjusted] for s in setup),
        "wall_s": sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * tail_s,
    }, (times, pct, beyond)


def end_to_end(results: list[dict], setup: list[tuple[float, float]]) -> dict:
    raw, _ = timings(results, setup, adjusted=False)
    print("# unadjusted: " + "  ".join(f"{k} {v}" for k, v in raw.items()))
    ref = [t for r in results for t in r["reference_seconds"]]
    print(f"# reference task: median {statistics.median(ref)} s over {len(ref)} timings, "
          f"{hostspeed.REFERENCE_SECONDS} s at the reference speed")
    values, (times, pct, beyond) = timings(results, setup, adjusted=True)
    values["peak_rss_mb"] = max(r["peak_rss_kb"] for r in results) / 1024
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, host-adjusted",
        "wall_s": f"{len(times)} operations back to back, each its median of "
                  f"{len(results)} passes, host-adjusted",
        "op_p50_ms": f"median of {len(times)} operations",
        "op_tail_ms": f"p{pct:.1f} of {len(times)} operations, {beyond} beyond it",
        "peak_rss_mb": f"max resident set of a worker and its children, over {len(results)} passes",
    }
    for name, unit in END_TO_END:
        print(f"{name} {values[name]} {unit} ({notes[name]})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def trace_metrics(args, plain: dict, traced: dict, scratch: Path) -> dict:
    import tracing

    op_times = {i: r["seconds"] for i, r in enumerate(traced["ops"]) if r["seconds"] is not None}
    values = tracing.layer_metrics(traced["trace"], op_times)
    wall = {k: sum(t for t in op_seconds(res, adjusted=True) if t is not None)
            for k, res in (("plain", plain), ("traced", traced))}
    values["trace.overhead_s"] = wall["traced"] - wall["plain"]
    print(f"# wall untraced {wall['plain']} s, traced {wall['traced']} s (host-adjusted)")
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    report = scratch / f"trace-{args.workload}-{args.seed}.json"
    report.write_text(json.dumps({"ops": traced["ops"], **traced["trace"]}))
    print(f"# span tree and per-operation sizes: {report.relative_to(ROOT)}")
    print("# op  seconds  V/E/H1-rank per surface  SNF rows x cols  label")
    sizes = traced["trace"]["sizes"]
    for i, rec in enumerate(traced["ops"]):
        s = sizes.get(str(i), {"surfaces": [], "snf": []})
        surf = " ".join(f"{v}/{e}/{r}" for v, e, r in s["surfaces"]) or "-"
        snf = " ".join(f"{r}x{c}" for r, c in s["snf"]) or "-"
        print(f"# {i:3d} {rec['seconds'] or 0:8.4f}  {surf}  {snf}  {rec['label']}")
    top = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))[::-1][:5]
    print("# largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
    metrics = {}
    for name, unit in PER_LAYER:
        print(f"{name} {values[name]} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


PER_LAYER = (
    [("homology.gram_matrix.self_s", "s"), ("homology.gram_matrix.cells", "cells"),
     ("homology.basis_cycle_len", "edges"), ("homology.workspace.self_s", "s"),
     ("homology.curve_class.self_s", "s"),
     ("invariants.smith_normal_form.self_s", "s"), ("invariants.smith_normal_form.calls", "count"),
     ("invariants.smith_normal_form.cells", "cells"),
     ("invariants.total_space_homology.self_s", "s"),
     ("invariants.monodromy_arc_relations.self_s", "s"), ("invariants.open_book_h1.self_s", "s"),
     ("curves.cyclically_equal.self_s", "s"), ("curves.cyclically_equal.calls", "count"),
     ("curves.check_walk.self_s", "s"), ("curves.check_walk.calls", "count"),
     ("equivalence.find_isomorphism.self_s", "s"), ("equivalence.reduced_word.self_s", "s"),
     ("equivalence.isomorphism_certificate.self_s", "s")]
    + [(f"ribbon.{f}.self_s", "s")
       for f in ("from_json_dict", "normalized", "smoothed", "invariants", "to_json_dict")]
    + [(f"builders.{f}.self_s", "s")
       for f in ("johns_fibration", "ishikawa_fibration", "realize_plumbing",
                 "simultaneous_surgery", "divide_fiber_model")]
    + [("divides.standard_divide.self_s", "s"), ("divides.checkerboard_coloring.self_s", "s"),
       ("certify.fibration_certificate.self_s", "s"), ("certify.growth_exp", "1"),
       ("cli.main.self_s", "s"), ("cli.stdout_bytes", "B"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
)


if __name__ == "__main__":
    sys.exit(main())
