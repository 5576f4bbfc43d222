"""The scripts under ``scripts/`` run end to end."""

import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_prints_the_certified_groups_and_identifies_both_constructions(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--genus", "0", "1", "--repeat", "1",
                           "--out", str(tmp_path / "bench.json")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [re.fullmatch(r"(\w+) +g=(\d+) .* ms  (H1 .*)", line) for line in proc.stdout.splitlines()]
    rows = [m.groups() for m in lines if m]
    assert rows == [
        ("johns", "0", "H1 0  H2 Z  boundary H1 Z/2  iso yes+"),
        ("johns", "1", "H1 Z^2  H2 Z  boundary H1 Z^3  iso yes+"),
        ("ishikawa", "0", "H1 0  H2 Z  boundary H1 Z/2  iso yes+"),
        ("ishikawa", "1", "H1 Z^2  H2 Z  boundary H1 Z^3  iso yes+"),
    ]


def test_bench_writes_every_stage_and_the_growth_exponent(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--genus", "0", "1", "--repeat", "1",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["genera"] == [0, 1] and doc["all_passed"]
    for construction in ("johns", "ishikawa"):
        # seconds are scaled to the reference host's speed, seconds_raw are the wall clock
        for key in ("seconds", "seconds_raw"):
            assert set(doc[key][construction]) == {"build", "parse", "certify", "compare"}
            for times in doc[key][construction].values():
                assert set(times) == {"0", "1"} and all(t > 0 for t in times.values())
        assert doc["seconds"][construction] != doc["seconds_raw"][construction]
        # only g = 1 is positive, so no slope between two genera exists
        assert doc["growth_exponent"][construction] == dict.fromkeys(("build", "parse", "certify", "compare"))
    assert doc["hostspeed"]["before_s"] > 0 and doc["hostspeed"]["after_s"] > 0
    assert list(doc["cli_seconds"]) == ["bare interpreter", "import lf_forge", "export divide --genus 2 --format text",
                                        "generate ishikawa --genus 4", "verify --genus 8", "compare --genus 3"]
    assert all(t > 0 for t in doc["cli_seconds"].values())
    # cli_seconds are scaled to the reference host's speed, cli_seconds_raw are the wall clock
    assert list(doc["cli_seconds_raw"]) == list(doc["cli_seconds"])
    assert all(t > 0 for t in doc["cli_seconds_raw"].values())
    assert doc["cli_seconds"] != doc["cli_seconds_raw"]
    raw_line = next(line for line in proc.stdout.splitlines() if line.startswith("host-adjusted; raw medians "))
    assert raw_line == ("host-adjusted; raw medians "
                        + ", ".join(f"{t * 1e3:.2f}" for t in doc["cli_seconds_raw"].values()) + " ms")
    printed = [re.fullmatch(r"cli (.+?) +[\d.]+ ms  \(median of 5 processes\)", line)
               for line in proc.stdout.splitlines() if line.startswith("cli ")]
    assert [m.group(1) for m in printed] == list(doc["cli_seconds"])


def test_bench_scales_each_cli_sample_by_the_reference_timings_around_it(monkeypatch):
    """With the reference task reading twice the reference machine's time
    around every process, each adjusted median is half the raw one."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench.hostspeed, "time_reference", lambda: 2 * bench.hostspeed.REFERENCE_SECONDS)
    monkeypatch.setattr(bench.subprocess, "run", lambda *args, **kwargs: SimpleNamespace(returncode=0))
    adjusted, raw, ok = bench.time_cli(3)
    assert ok and list(adjusted) == list(raw) == list(bench.CLI_PROCESSES)
    assert adjusted == {name: pytest.approx(seconds / 2) for name, seconds in raw.items()}


def test_bench_scales_each_stage_sample_by_the_reference_timings_around_it(monkeypatch):
    """With the reference task reading twice the reference machine's time
    around every stage sample, each adjusted best time is half the raw one."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench.hostspeed, "time_reference", lambda: 2 * bench.hostspeed.REFERENCE_SECONDS)
    adjusted, raw, ok, _, _ = bench.time_stages("johns", 1, 2)
    assert ok and list(adjusted) == list(raw) == list(bench.STAGES)
    assert adjusted == {stage: pytest.approx(seconds / 2) for stage, seconds in raw.items()}


def test_bench_scales_each_stage_best_by_the_median_of_its_reference_timings(monkeypatch):
    """The reference task reads fast, slow, fast, slow, slow, fast, a pair
    of readings each, slow being four times slower, over and over: the four
    stages take turns, so build and certify see two fast pairs of readings
    and one slow pair, and parse and compare the reverse.  Each best raw
    time is scaled by that median, not by the pair around whichever sample
    happened to be best."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    fast = bench.hostspeed.REFERENCE_SECONDS
    readings = itertools.cycle([fast, fast, 4 * fast, 4 * fast, fast, fast, 4 * fast, 4 * fast, 4 * fast, 4 * fast,
                                fast, fast])
    monkeypatch.setattr(bench.hostspeed, "time_reference", lambda: next(readings))
    adjusted, raw, ok, _, _ = bench.time_stages("johns", 1, 3)
    assert ok
    assert adjusted == {"build": pytest.approx(raw["build"]), "parse": pytest.approx(raw["parse"] / 4),
                        "certify": pytest.approx(raw["certify"]), "compare": pytest.approx(raw["compare"] / 4)}


def test_bench_growth_exponent_is_the_log_log_slope_of_the_two_largest_genera():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.growth_exponent({0: 5.0, 8: 1.0, 256: 1.0, 2048: 8.0}) == pytest.approx(1.0)
    assert bench.growth_exponent({0: 5.0, 256: 2.0, 2048: 2.0}) == 0.0
    assert bench.growth_exponent({0: 1.0, 1: 1.0}) is None
