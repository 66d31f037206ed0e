"""Regenerate every classification table into out/ (JSON + readable text).

Runs the same code paths as the CLI and finishes with the reference-table
matching reports, so a clean run reproduces and checks all counts:
dims 4..8 give 6, 14, 23, 47, 74 entries.
"""

import pathlib
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from leibniz_lab import classify as cls  # noqa: E402
from leibniz_lab.formats import (  # noqa: E402
    algebra_to_doc,
    dumps_canonical,
    store_table,
    store_table_md,
)

OUT = pathlib.Path(__file__).resolve().parents[1] / "out"


def main():
    OUT.mkdir(exist_ok=True)
    t0 = time.time()
    for n in sorted(cls.NILPOTENT_COUNTS):
        entries = cls.nilpotent_table(n)
        docs = [
            algebra_to_doc(e.algebra, blocks=[b.name for b in e.blocks])
            for e in entries
        ]
        (OUT / f"nilpotent_dim{n}.json").write_text(store_table(docs))
        (OUT / f"nilpotent_dim{n}.md").write_text(store_table_md(entries))
        print(f"dim {n}: {len(entries)} entries")
    for name, entries in (
        ("solvable_dim2", cls.solvable_dim1_table()),
        ("solvable_dim3", cls.dim3_solvable_table()),
    ):
        docs = [algebra_to_doc(e.algebra) for e in entries]
        (OUT / f"{name}.json").write_text(store_table(docs))
        (OUT / f"{name}.md").write_text(store_table_md(entries))
        print(f"{name}: {len(entries)} entries")
    for n in (4, 5, 6, 7):
        report = cls.match_paper_table(n)
        (OUT / f"match_dim{n}.json").write_text(dumps_canonical(report.to_json()))
        print(f"match dim {n}: perfect={report.perfect}")
    for n in (4, 5, 6):
        report = cls.distinctness_report(n)
        (OUT / f"distinctness_dim{n}.json").write_text(
            dumps_canonical(report.to_json())
        )
        print(
            f"distinctness dim {n}: {report.pairs_compared} pairs, "
            f"{len(report.coincident_pairs)} coincident, "
            f"{len(report.reciprocal_identifications)} reciprocal families"
        )
    print(f"done in {time.time() - t0:.2f}s")


if __name__ == "__main__":
    main()
