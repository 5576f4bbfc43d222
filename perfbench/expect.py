"""Verdicts the benchmark holds itself, independent of lf-forge's own checks.

Certificates are compared with a closed-form table, never with their own
`passed` or `expected` fields; comparisons with the pair's known answer; CLI
runs with the stdout digest and exit code recorded in `cli_expected.json`.

Record that table again (only when the CLI output is meant to change) with

    PYTHONPATH=src python3 perfbench/expect.py record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

CLI_TABLE = Path(__file__).with_name("cli_expected.json")


def _group(free: int, torsion: int = 0) -> str:
    parts = ["Z" if free == 1 else f"Z^{free}"] if free else []
    if torsion > 1:
        parts.append(f"Z/{torsion}")
    return " + ".join(parts) or "0"


def fiber_table(genus: int) -> list[tuple[str, str]]:
    """(check name, actual value) for DT*Sigma_g: a genus-one fiber with
    4g+4 boundary circles, 2g+6 twists, H1 = Z^2g, H2 = Z and boundary H1 =
    Z^2g + Z/|2-2g|."""
    g = genus
    e = abs(2 - 2 * g)
    return [
        ("fiber_genus", "1"),
        ("fiber_boundary_components", str(4 * g + 4)),
        ("fiber_euler", str(-4 * g - 4)),
        ("fiber_orientable", "True"),
        ("word_length", str(2 * g + 6)),
        ("total_space_euler", str(2 - 2 * g)),
        ("total_space_h1", _group(2 * g)),
        ("total_space_h2", _group(1)),
        ("boundary_h1", _group(2 * g + 1) if e == 0 else _group(2 * g, e)),
        ("closing_smoothing", "reproduced"),
    ]


def certificate_text(construction: str, genus: int) -> str:
    """The certificate/1 document, as `lf-forge verify` prints it, that a
    correct build of (construction, genus) must produce byte for byte."""
    expected = {"closing_smoothing": "2 closing cycles reproduced"}
    checks = [{"name": name, "passed": True, "expected": expected.get(name, actual),
               "actual": actual}
              for name, actual in fiber_table(genus)]
    doc = {"schema": "certificate/1", "construction": construction, "genus": genus,
           "passed": True, "checks": checks}
    return json.dumps(doc, indent=2) + "\n"


def check_certificate(cert: dict, construction: str, genus: int) -> str | None:
    """None when correct, else the reason."""
    actual = {c.get("name"): c.get("actual") for c in cert.get("checks", ())}
    wrong = [name for name, want in fiber_table(genus) if actual.get(name) != want]
    if wrong:
        return "wrong actual: " + ", ".join(wrong)
    if json.dumps(cert, indent=2) + "\n" != certificate_text(construction, genus):
        return "certificate bytes differ from the canonical certificate"
    return None


def _family(name: str) -> str:
    return name.rstrip("0123456789")


def check_comparison(cert: dict, names1, names2, same_genus: bool,
                     preserving: bool) -> str | None:
    """None when an isomorphism certificate has the pair's known answer."""
    if cert.get("found") is not same_genus:
        return f"found={cert.get('found')!r}, want {same_genus}"
    if not same_genus:
        return None
    if cert.get("orientation_preserving") is not preserving:
        return f"orientation_preserving={cert.get('orientation_preserving')!r}, want {preserving}"
    cmap = cert.get("cycle_map") or {}
    if sorted(cmap) != sorted(names1) or sorted(cmap.values()) != sorted(names2):
        return "cycle_map is not a bijection of the two words"
    crossed = [k for k, v in cmap.items() if _family(k) != _family(v)]
    if crossed:
        return "cycle_map crosses families at " + ", ".join(sorted(crossed))
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_cli_table() -> dict[str, dict]:
    return json.loads(CLI_TABLE.read_text())


def check_cli(table: dict, argv: list[str], code: int, stdout: bytes) -> str | None:
    want = table[" ".join(argv)]
    if code != want["exit"]:
        return f"exit {code}, want {want['exit']}"
    if len(stdout) != want["bytes"] or digest(stdout) != want["sha256"]:
        return "stdout differs from the recorded bytes"
    return None


def _record() -> None:
    import subprocess

    from workloads import CLI_COMMANDS

    table = {}
    for argv in CLI_COMMANDS:
        done = subprocess.run([sys.executable, "-m", "lf_forge.cli", *argv],
                              capture_output=True, check=False)
        table[" ".join(argv)] = {"exit": done.returncode, "bytes": len(done.stdout),
                                 "sha256": digest(done.stdout)}
    CLI_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} commands in {CLI_TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/expect.py record")
    _record()
