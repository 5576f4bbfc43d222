"""Command line driver: exit codes, output files, determinism."""

import json
import os

import pytest

from lf_forge import builders
from lf_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_fibration_json(capsys):
    code, out, _ = run(capsys, "generate", "johns", "--genus", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lefschetz-fibration/1"
    assert len(doc["vanishing_cycles"]) == 8


def test_generate_batch_to_directory(capsys, tmp_path):
    outdir = tmp_path / "batch"
    code, _, _ = run(
        capsys, "generate", "both", "--genus", "0..1", "--out", str(outdir)
    )
    assert code == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "ishikawa-g0.json",
        "ishikawa-g1.json",
        "johns-g0.json",
        "johns-g1.json",
    ]
    for p in outdir.iterdir():
        assert json.loads(p.read_text())["schema"] == "lefschetz-fibration/1"


def test_generate_is_deterministic(capsys):
    _, first, _ = run(capsys, "generate", "ishikawa", "--genus", "2")
    _, second, _ = run(capsys, "generate", "ishikawa", "--genus", "2")
    assert first == second


def test_stamp_adds_timestamp(capsys):
    _, out, _ = run(capsys, "generate", "johns", "--genus", "0", "--stamp")
    assert "generated_at" in json.loads(out)


@pytest.mark.parametrize("argv, documents", [
    (["generate", "johns"], 1), (["verify", "--genus", "0..1"], 4), (["compare", "--genus", "0..1"], 2),
    (["export", "divide"], 1), (["export", "fiber", "--construction", "johns"], 1),
    (["export", "divide", "--format", "text"], 0), (["generate", "johns", "--format", "dot"], 0),
], ids=["generate", "verify", "compare", "export-divide", "export-fiber", "export-divide-text", "generate-dot"])
def test_stamp_stamps_every_json_document_and_nothing_else(capsys, argv, documents):
    """--stamp adds ``generated_at`` to each JSON document, each certificate
    of a list included; with it taken out, the bytes are those of a run
    without --stamp.  Dot and text output do not change at all."""
    plain = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--stamp")
    if documents:
        docs = json.loads(out)
        docs = docs if isinstance(docs, list) else [docs]
        assert len(docs) == documents and all("generated_at" in doc for doc in docs)
        unstamped = [{k: v for k, v in doc.items() if k != "generated_at"} for doc in docs]
        out = json.dumps(unstamped if documents > 1 else unstamped[0], indent=2) + "\n"
    assert (code, out, err) == plain


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "johns", "--genus", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "certificate/1" and doc["passed"] is True


def test_verify_batch_covers_both_constructions(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "0..2")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 6
    assert {(d["construction"], d["genus"]) for d in docs} == {
        (c, g) for c in ("johns", "ishikawa") for g in range(3)
    }
    assert all(d["passed"] for d in docs)


def test_verify_sphere_model(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "sphere", "--genus", "0")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_compare_finds_isomorphism(capsys):
    code, out, _ = run(capsys, "compare", "--genus", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["orientation_preserving"] is True


def test_compare_mismatched_genus_fails(capsys):
    code, out, err = run(
        capsys, "compare", "--genus", "0", "--against", "johns:1"
    )
    assert code == 1
    assert json.loads(out)["found"] is False
    assert "no isomorphism at genus 0: fiber_invariants" in err


def test_compare_against_genus_respects_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--genus", "0", "--against", "johns:40"])
    assert exc.value.code == 2
    assert "genus 40 exceeds the cap 32; raise --max-genus" in capsys.readouterr().err


def test_export_divide_text(capsys):
    code, out, _ = run(
        capsys, "export", "divide", "--genus", "0", "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("v0:")


def test_export_fiber_dot(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, _ = run(
        capsys,
        "export",
        "fiber",
        "--construction",
        "johns",
        "--genus",
        "0..1",
        "--format",
        "dot",
        "--out",
        str(outdir),
    )
    assert code == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["fiber-johns-g0.dot", "fiber-johns-g1.dot"]
    assert outdir.joinpath("fiber-johns-g0.dot").read_text().startswith("graph")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--genus", "x"], "genus must be N or A..B, got 'x'"),
    (["generate", "johns", "--genus", "-1"], "invalid genus range '-1'"),
    (["generate", "johns", "--genus", "0..99"], "genus 99 exceeds the cap 32; raise --max-genus"),
    (["compare", "--genus", "0", "--against", "sphere:1"], "the sphere construction exists only at genus 0"),
    (["compare", "--genus", "0", "--against", "johns"], "--against expects construction:genus, got 'johns'"),
    (["generate", "sphere", "--genus", "1"], "nothing to generate for that construction/genus choice"),
    (["verify", "--construction", "sphere", "--genus", "1"], "nothing to verify for that construction/genus choice"),
    (["export", "fiber", "--construction", "sphere", "--genus", "1"], "nothing to export for that choice"),
    (["export", "fiber", "--format", "text"], "text export exists only for divides"),
], ids=["genus-not-a-number", "negative-genus", "genus-range-cap", "sphere-against-off-genus-zero",
        "malformed-against", "nothing-to-generate", "nothing-to-verify", "nothing-to-export",
        "fiber-text-format"])
def test_usage_errors_name_their_fault(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"\nlf-forge: error: {message}\n")


def test_a_failed_check_exits_1_and_names_it_on_stderr(capsys, monkeypatch):
    """A word with a0 and b0 traded is still a certificate, whose failed
    checks are named one per line on stderr."""
    johns = builders.johns_fibration

    def traded(genus):
        fib = johns(genus)
        word = list(fib.word)
        i, j = fib.names().index("a0"), fib.names().index("b0")
        word[i], word[j] = word[j], word[i]
        return builders.LefschetzFibration(fib.construction, fib.genus, fib.fiber, tuple(word))

    monkeypatch.setattr(builders, "johns_fibration", traded)
    code, out, err = run(capsys, "verify", "--construction", "johns", "--genus", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert err == "failed invariant: johns genus 1: boundary_h1\n"


def test_single_output_to_file(capsys, tmp_path):
    target = tmp_path / "one.json"
    code, out, _ = run(
        capsys, "generate", "johns", "--genus", "0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == "lefschetz-fibration/1"


@pytest.mark.parametrize("argv", [
    ["generate", "both", "--genus", "0..1", "--out", "{plain}"],
    ["generate", "johns", "--genus", "0", "--out", "{plain}/x.json"],
], ids=["directory", "file"])
def test_out_filesystem_errors_are_usage_errors(capsys, tmp_path, argv):
    plain = tmp_path / "plain"
    plain.write_text("kept\n")
    argv = [a.format(plain=plain) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"cannot write --out {argv[-1]}:" in err
    assert "Traceback" not in err
    assert plain.read_text() == "kept\n"


def test_verbose_notes_go_to_stderr(capsys):
    code, out, err = run(capsys, "generate", "johns", "--genus", "0", "-v")
    assert code == 0
    assert "built johns genus 0" in err
    assert "built" not in out


@pytest.mark.parametrize("argv", [["generate", "johns"], ["verify"], ["compare"]])
def test_internal_error_exits_3_with_its_traceback(capsys, monkeypatch, argv):
    def broken(genus):
        raise KeyError("broken builder")

    monkeypatch.setattr(builders, "johns_fibration", broken)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback")
    assert "KeyError: 'broken builder'" in err


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["generate"],
    ["generate", "jons"], ["generate", "johns", "ishikawa"],
    ["verify", "--format", "dot"], ["compare", "--construction", "johns"],
    ["generate", "johns", "--genus"], ["verify", "--max-genus", "x"],
    ["generate", "johns", "--stamp=yes"], ["verify", "--gen", "2"],
], ids=["empty", "unknown-command", "missing-positional", "bad-choice", "extra-positional",
        "format-on-verify", "construction-on-compare", "missing-value", "non-integer-cap",
        "value-on-flag", "abbreviated-option"])
def test_malformed_command_lines_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: lf-forge ")
    assert "\nlf-forge: error: " in captured.err


def test_an_option_value_may_follow_an_equals_sign_before_the_positional(capsys):
    assert run(capsys, "generate", "--genus=2", "johns") == run(capsys, "generate", "johns", "--genus", "2")


@pytest.mark.parametrize("argv", [["-h"], ["verify", "--help"]], ids=["top-level", "after-a-command"])
def test_help_names_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for command in ("generate", "verify", "compare", "export"):
        assert f"\n  lf-forge {command} " in out


def test_a_closed_stdout_exits_141_with_nothing_on_stderr(capsys, monkeypatch, tmp_path):
    """A reader that leaves early (``lf-forge ... | head -c 10``) makes the
    write raise BrokenPipeError: that is exit 141, as a shell reports a
    writer killed by SIGPIPE, with no traceback, and the stdout descriptor
    then points at os.devnull, so the flush at interpreter exit cannot
    raise again."""
    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["generate", "both", "--genus", "0..1"]) == 141
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""
