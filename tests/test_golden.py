"""Byte identity of the command line documents for g = 0..8.

The digests pin stdout of the four document-producing commands; any change
to a certificate, an isomorphism report, a fibration document or a divide
export shows here.
The certificates of g = 9..18 are pinned too, which covers the genera the
benchmark certifies from documents.  The `compare` stdout only ever pairs
builds of the same orientation, so the certificates of relabelled and
mirrored documents, where the search has to reject seeds, are pinned
separately, and so are the public maps of `find_isomorphism` on relabelled,
mirrored and edge-flipped documents, which no command prints in full.
The benchmark's table of all acceptance commands, `perfbench/cli_expected.json`,
is read here as well, so a change to any of their outputs fails tier-1 too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lf_forge.cli import main
from lf_forge.equivalence import find_isomorphism, isomorphism_certificate

GOLDEN = {
    ("verify", "--genus", "0..8"):
        "5fcd1338541e905c8bc92e73e544c20d821c38969748a048b0132d58c7f4c490",
    ("compare", "--genus", "0..8"):
        "b53f149f22832b78dffd5328c0019007452afbd98f39bb69fe8496eeb57aa73d",
    ("generate", "both", "--genus", "0..8"):
        "29e62518d71a2b29d2b82448e3f276d5425f9803265bda070a2e6fc8d22abadf",
    ("verify", "--genus", "9..18"):
        "fa5fb9256ed0d4fbcfdb4a0d75a088f2c617af1e2d9f6e36cb8a7934ae471b0f",
    ("export", "divide", "--genus", "0..8", "--format", "json"):
        "318c1895c441878297346764344d05e7e1463a8b59edab6b2b753830bfd2c44f",
    ("export", "divide", "--genus", "0..8", "--format", "dot"):
        "4b345054434700fa163863ab4091ca8747b44b9b62c92ef131d4b4a11b19187f",
    ("export", "divide", "--genus", "0..8", "--format", "text"):
        "4344b76547da6c5b43441c0238d99171301d5c30be68f76a1b612ceaf7d99b5a",
}

CLI_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json"

MIRRORED_AND_RELABELLED = "05f211f4e67fdb01b99bf8e1f5e8811a83d6996aa129fed01a49111efcfb3a47"

ISOMORPHISM_MAPS = "fedfc0954b6e5327d172413b8ecf2924a1490c0ef558b6f13bc1949ca1346917"


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_mirrored_and_relabelled_certificates_are_byte_identical(built, relabelled, mirrored):
    """Each construction's relabelled and mirrored documents at g = 0..6
    against the other construction's build."""
    digest = hashlib.sha256()
    for genus in range(7):
        for construction, other in (("johns", "ishikawa"), ("ishikawa", "johns")):
            fib = built(construction, genus)
            for lf1 in (relabelled(fib, genus), mirrored(fib)):
                cert = isomorphism_certificate(lf1, built(other, genus))
                digest.update((json.dumps(cert, indent=2) + "\n").encode())
    assert digest.hexdigest() == MIRRORED_AND_RELABELLED


def test_isomorphism_maps_are_pinned(built, relabelled, mirrored, flipped):
    """``vertex_map``, ``edge_map``, ``orientation_preserving`` and
    ``cycle_map`` of ``find_isomorphism``, as sorted JSON, for each
    construction's relabelled, mirrored and edge-flipped documents at
    g = 0..8 against the other construction's build."""
    digest = hashlib.sha256()
    for genus in range(9):
        for construction, other in (("johns", "ishikawa"), ("ishikawa", "johns")):
            fib = built(construction, genus)
            for lf1 in (relabelled(fib, genus), mirrored(fib), flipped(fib, genus)):
                iso = find_isomorphism(lf1, built(other, genus))
                maps = None if iso is None else {
                    "vertex_map": iso.vertex_map, "edge_map": iso.edge_map,
                    "orientation_preserving": iso.orientation_preserving, "cycle_map": iso.cycle_map,
                }
                digest.update((json.dumps(maps, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == ISOMORPHISM_MAPS


def test_acceptance_commands_match_the_benchmark_table(capsysbinary):
    """Exit code, byte count and sha256 of stdout of every command in the
    table, run in process."""
    table = json.loads(CLI_TABLE.read_text())
    assert table
    wrong = []
    for command, want in sorted(table.items()):
        try:
            code = main(command.split(" "))
        except SystemExit as exc:
            code = exc.code
        out = capsysbinary.readouterr().out
        got = {"exit": code, "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}
        if got != want:
            wrong.append(command)
    assert wrong == []
