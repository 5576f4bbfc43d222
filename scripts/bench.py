#!/usr/bin/env python3
"""Time both constructions in process at fixed genera and write one JSON file.

Per construction and genus, each stage is timed on objects made for that
run alone, and the best of --repeat runs is kept:

  build    ``johns_fibration`` or ``ishikawa_fibration``;
  parse    ``LefschetzFibration.from_json_dict`` of that build's document,
           the document written before the timer starts;
  certify  ``fibration_certificate`` of a fresh build, the build not timed;
  compare  ``isomorphism_certificate`` of a fresh build against a fresh
           build of the other construction, the builds not timed.

The reference task (``perfbench/hostspeed.time_reference()``) is timed right
before and after each stage sample.  ``seconds_raw`` holds each stage's best
wall clock, and ``seconds`` that time scaled by the median of all the
reference timings taken around the stage's samples (``hostspeed.adjust``),
so that one slow reading does not pick the sample.  The growth exponent
of a stage is the slope of log scaled time over log genus between the two
largest genera.  Each per-genus line prints the scaled times, the
certified H1, H2 and boundary H1 and the comparison's verdict ("yes+" for
an orientation-preserving isomorphism, "yes-" for a reversing one, "NO"
when none is found), read off the last run's certificates.  The median
of five reference timings before and after all runs is kept under
``hostspeed`` as a record of the host's speed.

Last, ``cli_seconds`` holds the median wall clock of fresh processes: a
bare interpreter (``-c pass``, the floor that no change to the package can
move), the bare ``import lf_forge`` and four ``lf-forge`` commands, the
last the one that loads ``equivalence``, each run 5 * --repeat times,
interleaved so that a drift of the host's speed spreads over all six.  The
reference task is timed before and after each process, and
each sample is scaled by the speed those two timings show
(``hostspeed.adjust``, as ``perfbench/run.py`` scales its samples);
``cli_seconds_raw`` holds the unscaled medians.  Run with
``PYTHONDONTWRITEBYTECODE=1`` to include compiling the package, as a host
without bytecode caches pays it.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH.json
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
import lf_forge  # noqa: E402
from lf_forge import (  # noqa: E402
    LefschetzFibration,
    fibration_certificate,
    ishikawa_fibration,
    isomorphism_certificate,
    johns_fibration,
)

BUILDERS = {"johns": johns_fibration, "ishikawa": ishikawa_fibration}
STAGES = ("build", "parse", "certify", "compare")
# Fresh processes for cli_seconds: name -> the interpreter's arguments.
CLI_PROCESSES = {
    "bare interpreter": ["-c", "pass"],
    "import lf_forge": ["-c", "import lf_forge"],
    "export divide --genus 2 --format text": ["-m", "lf_forge.cli", "export", "divide", "--genus", "2", "--format", "text"],
    "generate ishikawa --genus 4": ["-m", "lf_forge.cli", "generate", "ishikawa", "--genus", "4"],
    "verify --genus 8": ["-m", "lf_forge.cli", "verify", "--genus", "8"],
    "compare --genus 3": ["-m", "lf_forge.cli", "compare", "--genus", "3"],
}


def time_stages(construction: str, genus: int, repeat: int) -> tuple[dict, dict, bool, dict, dict]:
    """Best seconds of each stage over ``repeat`` runs, host-adjusted by the
    median of the stage's reference timings and raw, whether every parsed
    document wrote its document back, every certificate passed and every
    comparison found an isomorphism, and the last run's fibration and
    isomorphism certificates."""
    build = BUILDERS[construction]
    other = BUILDERS["ishikawa" if construction == "johns" else "johns"]
    best_raw, references, ok = dict.fromkeys(STAGES, math.inf), {stage: [] for stage in STAGES}, True

    def timed(stage, fn, *args):
        references[stage].append(hostspeed.time_reference())
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        references[stage].append(hostspeed.time_reference())
        best_raw[stage] = min(best_raw[stage], seconds)
        return result

    for _ in range(repeat):
        fib = timed("build", build, genus)
        doc = fib.to_json_dict()
        parsed = timed("parse", LefschetzFibration.from_json_dict, doc)
        cert = timed("certify", fibration_certificate, fib)
        iso = timed("compare", isomorphism_certificate, build(genus), other(genus))
        ok = ok and parsed.to_json_dict() == doc and cert["passed"] and iso["found"]
    medians = {stage: statistics.median(times) for stage, times in references.items()}
    best = {stage: hostspeed.adjust(best_raw[stage], medians[stage], medians[stage]) for stage in STAGES}
    return best, best_raw, ok, cert, iso


def summary(cert: dict, iso: dict) -> str:
    """The certified groups and the comparison's verdict, as one line's tail."""
    actual = {c["name"]: c["actual"] for c in cert["checks"]}
    found = ("yes+" if iso["orientation_preserving"] else "yes-") if iso["found"] else "NO"
    return (f"H1 {actual['total_space_h1']}  H2 {actual['total_space_h2']}  "
            f"boundary H1 {actual['boundary_h1']}  iso {found}")


def growth_exponent(times: dict[int, float]) -> float | None:
    """Slope of log time over log genus between the two largest genera;
    None when there are fewer than two positive ones."""
    pts = sorted((g, t) for g, t in times.items() if g > 0 and t > 0)[-2:]
    if len(pts) < 2:
        return None
    (g0, t0), (g1, t1) = pts
    return math.log(t1 / t0) / math.log(g1 / g0)


def time_cli(runs: int) -> tuple[dict[str, float], dict[str, float], bool]:
    """Median seconds of each of ``CLI_PROCESSES`` over ``runs`` fresh
    processes, all of them taking turns, host-adjusted and raw, and whether
    every process exited 0.  The processes load the package this script
    imports."""
    src = str(Path(lf_forge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    raw, adjusted, ok = {name: [] for name in CLI_PROCESSES}, {name: [] for name in CLI_PROCESSES}, True
    before = hostspeed.time_reference()
    for _ in range(runs):
        for name, args in CLI_PROCESSES.items():
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=False)
            seconds = time.perf_counter() - t0
            after = hostspeed.time_reference()
            raw[name].append(seconds)
            adjusted[name].append(hostspeed.adjust(seconds, before, after))
            before = after
            ok = ok and done.returncode == 0
    return ({name: statistics.median(times) for name, times in adjusted.items()},
            {name: statistics.median(times) for name, times in raw.items()}, ok)


def _by_genus_name(stages: dict) -> dict:
    """construction -> stage -> genus -> seconds, each genus as a JSON key."""
    return {c: {s: {str(g): t for g, t in ts.items()} for s, ts in by.items()} for c, by in stages.items()}


def reference_seconds(samples: int = 5) -> float:
    return statistics.median(hostspeed.time_reference() for _ in range(samples))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--genus", type=int, nargs="+", default=[0, 8, 32, 256, 2048])
    parser.add_argument("--repeat", type=int, default=3, help="runs per stage; the best is kept")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()

    before = reference_seconds()
    stages = {construction: {stage: {} for stage in STAGES} for construction in BUILDERS}
    stages_raw = {construction: {stage: {} for stage in STAGES} for construction in BUILDERS}
    ok = True
    for construction in BUILDERS:
        for genus in args.genus:
            best, best_raw, passed, cert, iso = time_stages(construction, genus, args.repeat)
            ok = ok and passed
            for stage in STAGES:
                stages[construction][stage][genus] = best[stage]
                stages_raw[construction][stage][genus] = best_raw[stage]
            print(f"{construction:<9} g={genus:<5} " + "  ".join(f"{s} {best[s] * 1e3:9.3f} ms" for s in STAGES)
                  + "  " + summary(cert, iso))
    cli, cli_raw, cli_ok = time_cli(5 * args.repeat)
    ok = ok and cli_ok
    for name, seconds in cli.items():
        print(f"cli {name:<38} {seconds * 1e3:8.2f} ms  (median of {5 * args.repeat} processes)")
    print("host-adjusted; raw medians " + ", ".join(f"{seconds * 1e3:.2f}" for seconds in cli_raw.values()) + " ms")
    after = reference_seconds()
    doc = {
        "python": platform.python_version(),
        "genera": args.genus,
        "repeat": args.repeat,
        "all_passed": ok,
        "hostspeed": {"reference_seconds": hostspeed.REFERENCE_SECONDS, "before_s": before, "after_s": after},
        "seconds": _by_genus_name(stages),
        "seconds_raw": _by_genus_name(stages_raw),
        "growth_exponent": {c: {s: growth_exponent(ts) for s, ts in by.items()} for c, by in stages.items()},
        "cli_seconds": cli,
        "cli_seconds_raw": cli_raw,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for construction, exps in doc["growth_exponent"].items():
        print(f"{construction:<9} growth " + "  ".join(f"{s} {e:.2f}" if e is not None else f"{s} -"
                                                      for s, e in exps.items()))
    print(f"reference task {before * 1e3:.2f} ms before, {after * 1e3:.2f} ms after")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
