"""Command line front end: generate, verify, compare, export.

Every command is a pure function of its arguments: the same flags give the
same bytes on stdout, with stable key order and no timestamps unless --stamp.
Exit codes: 0 success, 1 failed check or missing isomorphism, 2 usage error
(the message on stderr), 3 internal error (the traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .divides import standard_divide

DEFAULT_MAX_GENUS = 32


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


def _builds(args: argparse.Namespace):
    """Each selected construction at each selected genus, built, as
    (construction, genus, fibration); the sphere only at genus 0."""
    selected = ("johns", "ishikawa") if args.construction == "both" else (args.construction,)
    for construction in selected:
        for g in args.genus:
            if construction != "sphere" or g == 0:
                yield construction, g, _build(construction, g)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _stamped(doc: dict, args: argparse.Namespace) -> dict:
    if args.stamp:
        import datetime  # here, so that a run without --stamp does not load it

        doc = dict(doc)
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return doc


def _emit(texts: dict[str, str], args: argparse.Namespace) -> None:
    """Write named documents to --out (file or directory) or stdout.

    Several documents need a directory; a single one may go to a plain file.
    A filesystem error is a usage error naming --out.
    """
    if args.out is None:
        for text in texts.values():
            sys.stdout.write(text)
        return
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


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_generate(args: argparse.Namespace) -> int:
    texts = {}
    for construction, g, fib in _builds(args):
        _note(args, f"built {construction} genus {g}")
        if args.format == "dot":
            texts[f"{construction}-g{g}.dot"] = fib.fiber.to_dot(f"{construction}_g{g}")
        else:
            texts[f"{construction}-g{g}.json"] = _dumps(_stamped(fib.to_json_dict(), args))
    if not texts:
        raise ValueError("nothing to generate for that construction/genus choice")
    _emit(texts, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .certify import fibration_certificate  # here, so that generate and export do not load it

    certificates = []
    failures = []
    for construction, g, fib in _builds(args):
        cert = fibration_certificate(fib)
        certificates.append(_stamped(cert, args))
        _note(args, f"verified {construction} genus {g}: "
                    f"{'ok' if cert['passed'] else 'FAILED'}")
        failures += [f"{construction} genus {g}: {c['name']}"
                     for c in cert["checks"] if not c["passed"]]
    if not certificates:
        raise ValueError("nothing to verify for that construction/genus choice")
    doc = certificates[0] if len(certificates) == 1 else certificates
    _emit({"verify.json": _dumps(doc)}, args)
    for line in failures:
        print(f"failed invariant: {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .equivalence import isomorphism_certificate  # here, so that generate and export do not load it

    against = None
    if args.against:
        name, sep, g2 = args.against.partition(":")
        if name not in CONSTRUCTIONS or not sep or not g2.isdigit():
            raise ValueError(f"--against expects construction:genus, got {args.against!r}")
        (g2,) = _parse_genus(g2, args.max_genus)
        against = _build(name, g2)
    certificates = []
    missing = []
    for g in args.genus:
        other = against if against is not None else _build("ishikawa", g)
        cert = isomorphism_certificate(_build("johns", g), other)
        certificates.append(_stamped(cert, args))
        _note(args, f"compared genus {g}: found={cert['found']}")
        if not cert["found"]:
            missing.append((g, next(c["name"] for c in cert["checks"] if not c["passed"])))
    doc = certificates[0] if len(certificates) == 1 else certificates
    _emit({"compare.json": _dumps(doc)}, args)
    for g, failed in missing:
        print(f"no isomorphism at genus {g}: {failed}", file=sys.stderr)
    return 1 if missing else 0


def cmd_export(args: argparse.Namespace) -> int:
    texts = {}
    if args.target == "divide":
        for g in args.genus:
            divide = standard_divide(g)
            if args.format == "text":
                texts[f"divide-g{g}.txt"] = divide.to_text()
            elif args.format == "dot":
                texts[f"divide-g{g}.dot"] = divide.to_dot(f"divide_g{g}")
            else:
                texts[f"divide-g{g}.json"] = _dumps(_stamped(divide.to_json_dict(), args))
    else:
        if args.format == "text":
            raise ValueError("text export exists only for divides")
        for construction, g, fib in _builds(args):
            if args.format == "dot":
                texts[f"fiber-{construction}-g{g}.dot"] = fib.fiber.to_dot(f"fiber_{construction}_g{g}")
            else:
                texts[f"fiber-{construction}-g{g}.json"] = _dumps(_stamped(fib.fiber.to_json_dict(), args))
    if not texts:
        raise ValueError("nothing to export for that choice")
    _emit(texts, args)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lf-forge",
        description="Build, verify, compare and export the two genus-one "
                    "Lefschetz fibrations on disk cotangent bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, construction_flag=True):
        p.add_argument("--genus", default="0", help="N or A..B (default 0)")
        p.add_argument("--max-genus", type=int, default=DEFAULT_MAX_GENUS,
                       help=f"range cap (default {DEFAULT_MAX_GENUS})")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--stamp", action="store_true",
                       help="add a generation timestamp to JSON output")
        p.add_argument("--verbose", "-v", action="store_true")
        if construction_flag:
            p.add_argument("--construction", default="both",
                           choices=(*CONSTRUCTIONS, "both"))

    g = sub.add_parser("generate", help="write fibration documents")
    g.set_defaults(run=cmd_generate)
    g.add_argument("construction", choices=(*CONSTRUCTIONS, "both"))
    g.add_argument("--format", default="json", choices=("json", "dot"))
    common(g, construction_flag=False)

    v = sub.add_parser("verify", help="run all invariant checks")
    v.set_defaults(run=cmd_verify)
    common(v)

    c = sub.add_parser("compare", help="search for the fibration isomorphism")
    c.set_defaults(run=cmd_compare)
    c.add_argument("--against", default=None,
                   help="compare against construction:genus instead of ishikawa")
    common(c, construction_flag=False)

    e = sub.add_parser("export", help="write the underlying combinatorial objects")
    e.set_defaults(run=cmd_export)
    e.add_argument("target", choices=("divide", "fiber"))
    e.add_argument("--format", default="json", choices=("json", "dot", "text"))
    common(e)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.genus = _parse_genus(args.genus, args.max_genus)
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except Exception:
        import traceback  # here, so that a run without errors does not load it

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
