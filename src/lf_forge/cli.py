"""lf-forge: build, verify, compare and export the two genus-one Lefschetz
fibrations on disk cotangent bundles.  Options go by their full names, a
value next or after "=" (--genus 2, --genus=2).  Defaults: --genus 0 (N or
A..B, at most --max-genus 32), --construction both, --format json; -v is
--verbose.  The same arguments give the same bytes on stdout unless --stamp.
Exit codes: 0 success, 1 a failed check, or a compare that found no
relabeling carrying one word onto the other word for word (which does not
show that the fibrations differ), 2 usage error (the message on stderr), 3
internal error (the traceback on stderr), 141 stdout closed by its reader
(nothing on stderr).
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .divides import standard_divide

CONSTRUCTIONS = ("johns", "ishikawa", "sphere")


def _parse_genus(text: str, max_genus: int) -> tuple[int, ...]:
    """N or A..B, inclusive, within [0, max_genus]."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"genus must be N or A..B, got {text!r}") from None
    if a < 0 or b < a:
        raise ValueError(f"invalid genus range {text!r}")
    if b > max_genus:
        raise ValueError(f"genus {b} exceeds the cap {max_genus}; raise --max-genus")
    return tuple(range(a, b + 1))


def _build(construction: str, genus: int):
    """The ``LefschetzFibration`` of one construction at one genus; the
    builders are imported here, so that ``export divide`` does not load them."""
    from . import builders

    if construction != "sphere":
        return getattr(builders, f"{construction}_fibration")(genus)
    if genus != 0:
        raise ValueError("the sphere construction exists only at genus 0")
    return builders.sphere_planar_fibration()


def _builds(args: SimpleNamespace):
    """Each selected construction at each selected genus, built, as
    (construction, genus, fibration); the sphere only at genus 0."""
    selected = ("johns", "ishikawa") if args.construction == "both" else (args.construction,)
    for construction in selected:
        for g in args.genus:
            if construction != "sphere" or g == 0:
                yield construction, g, _build(construction, g)


def _render(obj, args: SimpleNamespace, name: str) -> dict[str, str]:
    """``obj`` as one document in ``--format``, keyed by its file name, which
    is ``name`` with dashes: a record's dot graph named ``name``, its text,
    or the JSON of its ``to_json_dict()``, or of a certificate or a list of
    them as it is.  ``--stamp`` adds ``generated_at`` to each JSON dict."""
    stem = name.replace("_", "-")
    if args.format == "dot":
        return {f"{stem}.dot": obj.to_dot(name)}
    if args.format == "text":
        return {f"{stem}.txt": obj.to_text()}
    import json  # here, so that dot and text output do not load it

    doc = obj if isinstance(obj, (dict, list)) else obj.to_json_dict()
    if args.stamp:
        import datetime  # here, so that a run without --stamp does not load it

        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        doc = [dict(d, generated_at=now) for d in doc] if isinstance(doc, list) else dict(doc, generated_at=now)
    return {f"{stem}.json": json.dumps(doc, indent=2) + "\n"}


def _emit(texts: dict[str, str], args: SimpleNamespace, empty: str) -> None:
    """Write named documents to --out (file or directory) or stdout; none
    at all is the usage error ``empty``.

    Several documents need a directory; a single one may go to a plain file.
    A filesystem error is a usage error naming --out.
    """
    if not texts:
        raise ValueError(empty)
    if args.out is None:
        sys.stdout.write("".join(texts.values()))
        return
    from pathlib import Path  # here, so that output to stdout does not load it

    out = Path(args.out)
    try:
        if len(texts) == 1 and not out.is_dir() and not args.out.endswith("/"):
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(next(iter(texts.values())))
            return
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc}") from None


def _report(certificates: list[dict], problems: list[str], args: SimpleNamespace, command: str) -> int:
    """Emit the certificates of ``verify`` or ``compare`` as ``{command}.json``,
    one alone and several as a list, then each problem line on stderr; exit
    1 if there is any."""
    doc = certificates[0] if len(certificates) == 1 else certificates
    _emit(_render(doc, args, command) if certificates else {}, args,
          f"nothing to {command} for that construction/genus choice")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


def _note(args: SimpleNamespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_generate(args: SimpleNamespace) -> int:
    texts = {}
    for construction, g, fib in _builds(args):
        _note(args, f"built {construction} genus {g}")
        texts.update(_render(fib, args, f"{construction}_g{g}"))
    _emit(texts, args, "nothing to generate for that construction/genus choice")
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    from .certify import fibration_certificate  # here, so that generate and export do not load it

    certificates = []
    problems = []
    for construction, g, fib in _builds(args):
        cert = fibration_certificate(fib)
        certificates.append(cert)
        _note(args, f"verified {construction} genus {g}: "
                    f"{'ok' if cert['passed'] else 'FAILED'}")
        problems += [f"failed invariant: {construction} genus {g}: {c['name']}"
                     for c in cert["checks"] if not c["passed"]]
    return _report(certificates, problems, args, "verify")


def cmd_compare(args: SimpleNamespace) -> int:
    from .equivalence import isomorphism_certificate  # here, so that generate and export do not load it

    against = None
    if args.against:
        name, sep, g2 = args.against.partition(":")
        if name not in CONSTRUCTIONS or not sep or not g2.isdigit():
            raise ValueError(f"--against expects construction:genus, got {args.against!r}")
        (g2,) = _parse_genus(g2, args.max_genus)
        against = _build(name, g2)
    certificates = []
    problems = []
    for g in args.genus:
        other = against if against is not None else _build("ishikawa", g)
        cert = isomorphism_certificate(_build("johns", g), other)
        certificates.append(cert)
        _note(args, f"compared genus {g}: found={cert['found']}")
        if not cert["found"]:
            failed = next(c["name"] for c in cert["checks"] if not c["passed"])
            problems.append(f"no isomorphism at genus {g}: {failed}")
    return _report(certificates, problems, args, "compare")


def cmd_export(args: SimpleNamespace) -> int:
    if args.target == "divide":
        named = ((f"divide_g{g}", standard_divide(g)) for g in args.genus)
    elif args.format == "text":
        raise ValueError("text export exists only for divides")
    else:
        named = ((f"fiber_{construction}_g{g}", fib.fiber) for construction, g, fib in _builds(args))
    texts = {}
    for name, obj in named:
        texts.update(_render(obj, args, name))
    _emit(texts, args, "nothing to export for that choice")
    return 0


_BOTH = (*CONSTRUCTIONS, "both")
_SHARED = {"--genus": "N|A..B", "--max-genus": "N", "--out": "PATH", "--stamp": True, "--verbose": True}

# Each command's function and arguments: its positional argument (no dashes)
# and its options, each with its choices, the name of its value, or True for
# a flag.  An argument not given reads as its entry in _DEFAULTS.
_COMMANDS = {
    "generate": (cmd_generate, {"construction": _BOTH, "--format": ("json", "dot"), **_SHARED}),
    "verify": (cmd_verify, {"--construction": _BOTH, **_SHARED}),
    "compare": (cmd_compare, {"--against": "NAME:GENUS", **_SHARED}),
    "export": (cmd_export, {"target": ("divide", "fiber"), "--format": ("json", "dot", "text"),
                            "--construction": _BOTH, **_SHARED}),
}
_DEFAULTS = {"genus": "0", "max_genus": "32", "out": None, "stamp": False, "verbose": False,
             "construction": "both", "format": "json", "against": None}


def _parse(argv: list[str]) -> SimpleNamespace:
    """``argv`` read against ``_COMMANDS``: the command, then its arguments
    in any order, an option's value after it or after ``=``.  -h or --help
    prints the module docstring and each command's arguments and exits 0;
    anything else amiss raises ValueError."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        for command, (_, arguments) in _COMMANDS.items():
            words = [f"  lf-forge {command}"]
            for name, kind in arguments.items():
                shown = "|".join(kind) if isinstance(kind, tuple) else kind
                words.append(shown if not name.startswith("-") else name if kind is True else f"{name} {shown}")
            print(" ".join(words))
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"the first argument must be one of {', '.join(_COMMANDS)}")
    arguments = _COMMANDS[argv[0]][1]
    args = dict(_DEFAULTS, command=argv[0])
    positional = [name for name in arguments if not name.startswith("-")]
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        name = "--verbose" if name == "-v" else name
        if not word.startswith("-") and positional:
            name, value = positional.pop(0), word
        elif not name.startswith("-") or name not in arguments or (arguments[name] is True and eq):
            raise ValueError(f"unrecognized argument {word}")
        elif arguments[name] is not True and not eq:
            value = next(words, "--")  # a missing value reads as the next option
            if value.startswith("--"):
                raise ValueError(f"argument {name} expects a value")
        kind = arguments[name]
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"argument {name}: invalid choice {value!r} (choose from {', '.join(kind)})")
        args[name.lstrip("-").replace("-", "_")] = True if kind is True else value
    if positional:
        raise ValueError(f"the following argument is required: {positional[0]}")
    if not args["max_genus"].isdecimal():
        raise ValueError(f"argument --max-genus: invalid int value {args['max_genus']!r}")
    args["max_genus"] = int(args["max_genus"])
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run the command ``argv`` and return its exit code.  With ``argv``
    None, ``main`` is the program: it reads ``sys.argv[1:]`` and, once the
    command has written its output or its error, freezes the heap
    (``gc.freeze``), so that the full collection the interpreter runs at
    exit has nothing to walk.  A call that passes ``argv`` leaves the
    collector as it was."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        args.genus = _parse_genus(args.genus, args.max_genus)
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # here, so that a closed stdout shows below and not at exit
        return code
    except BrokenPipeError:
        # 128 + SIGPIPE, as a shell reports a writer its reader left; stdout
        # now points at os.devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        sys.stderr.write(f"usage: lf-forge {{{','.join(_COMMANDS)}}} ... (-h for help)\nlf-forge: error: {exc}\n")
        raise SystemExit(2) from None
    except Exception:
        import traceback  # here, so that a run without errors does not load it

        traceback.print_exc()
        return 3
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
