"""The four workloads: seeded inputs, one operation per input, verdict checks.

`plan` gives one pass of a workload.  Every operation gets objects built or
parsed for it alone and no (operation, input) pair repeats within a pass; a
run repeats its pass only in fresh worker processes, so a cache keyed on
inputs can only show a gain that a real `lf-forge` process would also get.
The seed picks the order of the operations, the relabelling and mirroring of
every document and the cross-genus controls; the genera of the costly
operations are fixed, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import docgen
import expect

WORKLOADS = ("verify-canonical", "verify-documents", "compare-search", "cli-acceptance")

# One pass of each workload takes about this long on the reference machine
# (2 cores, Python 3.11).  A run of S seconds makes max(1, round(S / PASS_SECONDS))
# passes, each in a fresh worker process, and reports every operation's median
# over them, so that one slow spell of a shared host does not set a metric.  A
# CLI operation is already a fresh process, so cli-acceptance makes one pass.
PASS_SECONDS = {"verify-canonical": 4, "verify-documents": 4,
                "compare-search": 4, "cli-acceptance": 20}

CANONICAL_GENERA = tuple(range(4, 15))
DOCUMENT_GENERA = tuple(range(4, 19, 2))
RELABEL_GENERA = tuple(range(4, 17))
MIRROR_GENERA = tuple(range(4, 10))
RELABELLINGS = 2
CONTROL_PAIRS = 4
CONSTRUCTIONS = ("johns", "ishikawa")

# The acceptance range g = 0..8 of every subcommand.  `compare --genus 0
# --against johns:1` has no isomorphism and must exit 1.
CLI_COMMANDS = (
    [["verify", "--genus", str(g)] for g in range(9)]
    + [["verify", "--genus", "0..8"], ["verify", "--construction", "sphere"]]
    + [["compare", "--genus", str(g)] for g in range(9)]
    + [["compare", "--genus", "0..8"], ["compare", "--genus", "0", "--against", "johns:1"],
       ["compare", "--genus", "3", "--against", "johns:3"]]
    + [["generate", c, "--genus", str(g)] for c in CONSTRUCTIONS for g in range(9)]
    + [["generate", c, "--genus", str(g), "--format", "dot"] for c in CONSTRUCTIONS for g in range(9)]
    + [["generate", "both", "--genus", "0..8"], ["generate", "sphere"],
       ["generate", "both", "--genus", "4", "--format", "dot"]]
    + [["export", "divide", "--genus", str(g), "--format", "text"] for g in range(9)]
    + [["export", "divide", "--genus", str(g), "--format", "dot"] for g in range(9)]
    + [["export", "divide", "--genus", "0..8"]]
    + [["export", "fiber", "--genus", str(g), "--format", f] for g in range(9) for f in ("json", "dot")]
    + [["export", "fiber", "--construction", "ishikawa", "--genus", "1", "--format", "dot"]]
)


@dataclass
class Op:
    """One operation: ``kind`` selects how it runs, ``genus`` and ``label``
    describe it, ``args`` carries its input."""

    kind: str
    label: str
    genus: int
    args: tuple


def _other(construction: str) -> str:
    return "ishikawa" if construction == "johns" else "johns"


def passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def plan(workload: str, seed: int) -> list[Op]:
    """One pass of operations, generated from the seed alone."""
    import lf_forge

    builders = {"johns": lf_forge.johns_fibration, "ishikawa": lf_forge.ishikawa_fibration}
    rng = random.Random(f"{workload}:{seed}")
    batch: list[Op] = []
    if workload == "verify-canonical":
        batch = [Op("canonical", f"{c} g{g}", g, (c,))
                 for g in CANONICAL_GENERA for c in CONSTRUCTIONS]
    elif workload == "verify-documents":
        batch = [Op("document", f"{c} g{g} relabelled", g,
                    (c, docgen.relabel(builders[c](g).to_json_dict(), rng)))
                 for g in DOCUMENT_GENERA for c in CONSTRUCTIONS * RELABELLINGS]
    elif workload == "compare-search":
        for g in RELABEL_GENERA:
            for c in CONSTRUCTIONS * RELABELLINGS:
                doc = docgen.relabel(builders[c](g).to_json_dict(), rng)
                batch.append(Op("compare", f"{c} g{g} relabelled vs {_other(c)}", g,
                                (doc, _other(c), g, True)))
        for g in MIRROR_GENERA:
            for c in CONSTRUCTIONS:
                doc = docgen.mirror(docgen.relabel(builders[c](g).to_json_dict(), rng))
                batch.append(Op("compare", f"{c} g{g} mirrored vs {_other(c)}", g,
                                (doc, _other(c), g, False)))
        for g in rng.sample(RELABEL_GENERA[:-1], CONTROL_PAIRS):
            c = rng.choice(CONSTRUCTIONS)
            doc = docgen.relabel(builders[c](g).to_json_dict(), rng)
            batch.append(Op("compare", f"{c} g{g} vs {_other(c)} g{g + 1}", g,
                            (doc, _other(c), g + 1, True)))
    elif workload == "cli-acceptance":
        batch = [Op("cli", " ".join(argv), _cli_genus(argv), (argv,)) for argv in CLI_COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(batch)
    return batch


def _cli_genus(argv: list[str]) -> int:
    if "--genus" not in argv:
        return 0
    return int(argv[argv.index("--genus") + 1].split("..")[-1])


def run_inprocess(op: Op):
    """Run one library operation; returns what `check` needs."""
    import lf_forge

    if op.kind == "canonical":
        (construction,) = op.args
        build = getattr(lf_forge, f"{construction}_fibration")
        return lf_forge.fibration_certificate(build(op.genus))
    if op.kind == "document":
        _, doc = op.args
        return lf_forge.fibration_certificate(lf_forge.LefschetzFibration.from_json_dict(doc))
    if op.kind == "compare":
        doc, other, other_genus, _ = op.args
        lf1 = lf_forge.LefschetzFibration.from_json_dict(doc)
        lf2 = getattr(lf_forge, f"{other}_fibration")(other_genus)
        return lf_forge.isomorphism_certificate(lf1, lf2), lf1.names(), lf2.names()
    raise ValueError(f"{op.kind!r} does not run in process")


def check(op: Op, result) -> str | None:
    """None when the operation's verdict is right, else the reason."""
    if op.kind in ("canonical", "document"):
        return expect.check_certificate(result, op.args[0], op.genus)
    if op.kind == "compare":
        cert, names1, names2 = result
        _, _, other_genus, preserving = op.args
        return expect.check_comparison(cert, names1, names2, other_genus == op.genus, preserving)
    raise ValueError(f"no check for {op.kind!r}")
