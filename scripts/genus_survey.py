#!/usr/bin/env python3
"""Survey both constructions over a genus range and print one table row each.

Columns: fiber (genus, boundary), word length, total-space homology, boundary
open book homology, and whether the two constructions at that genus were
identified by the search.  Everything is recomputed; nothing is cached
between rows, so the timing column is an honest per-genus cost.
"""

import argparse
import time

from lf_forge import (
    fibration_homology,
    find_isomorphism,
    ishikawa_fibration,
    johns_fibration,
    total_space_euler,
)


def survey_row(genus: int) -> dict:
    t0 = time.perf_counter()
    johns = johns_fibration(genus)
    ishikawa = ishikawa_fibration(genus)
    rows = {}
    for fib in (johns, ishikawa):
        inv = fib.fiber.invariants()
        h1, h2, boundary = fibration_homology(fib.fiber, fib.word)
        rows[fib.construction] = {
            "fiber": f"({inv.genus}, {inv.boundary_components})",
            "word": len(fib.word),
            "chi": total_space_euler(fib.fiber, fib.word),
            "h1": str(h1),
            "h2": str(h2),
            "boundary": str(boundary),
        }
    iso = find_isomorphism(johns, ishikawa)
    return {
        "genus": genus,
        "per_construction": rows,
        "isomorphic": iso is not None,
        "orientation_preserving": iso.orientation_preserving if iso else None,
        "seconds": time.perf_counter() - t0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=8)
    args = parser.parse_args()

    header = (
        f"{'g':>2}  {'model':<9} {'fiber':<9} {'word':>4} {'chi':>4} "
        f"{'H1':<5} {'H2':<3} {'boundary H1':<14} {'iso':<5} {'sec':>6}"
    )
    print(header)
    print("-" * len(header))
    for genus in range(args.max_genus + 1):
        row = survey_row(genus)
        for construction, data in row["per_construction"].items():
            iso = ""
            if construction == "johns":
                iso = "yes" if row["isomorphic"] else "NO"
                if row["orientation_preserving"]:
                    iso += "+"
            print(
                f"{row['genus']:>2}  {construction:<9} {data['fiber']:<9} "
                f"{data['word']:>4} {data['chi']:>4} {data['h1']:<5} "
                f"{data['h2']:<3} {data['boundary']:<14} {iso:<5} "
                f"{row['seconds']:>6.2f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
