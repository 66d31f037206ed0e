"""Command-line interface.

Verbs: analyze, canonical-form, classify, match-paper, check-iso, fuzz.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import classify as cls
from .algebra import leib_ideal
from .blocks import blocks_name
from .errors import LeibnizLabError, MalformedFile, PreconditionFailed
from .formats import (
    algebra_to_doc,
    dumps_canonical,
    load_algebra,
    load_matrix,
    store_table,
    store_table_md,
)
from .iso import iso_invariants, isomorphic_dim1_nilpotent, random_basis_fuzz
from .pencil import canonical_decomposition

SEED_ENV = "LEIBNIZ_LAB_SEED"


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path} is not UTF-8: byte {exc.start} cannot be decoded")


def cmd_analyze(args):
    doc = load_algebra(_read(args.algebra_file))
    A = doc.algebra
    try:
        inv = iso_invariants(A)
    except PreconditionFailed:  # its Leibniz check failed
        inv = None
    out = {
        "label": A.label,
        "dim": A.dim,
        "leibniz": inv is not None,
        "nilpotent": None,
        "solvable": None,
        "lie": None,
        "leib_basis": None,
        "invariants": None,
    }
    if inv is not None:
        lc, ds = inv.dim_lower_central, inv.dim_derived
        out.update(
            # a perfect algebra (A^2 = A) has empty series tuples
            nilpotent=bool(lc) and lc[-1] == 0,
            solvable=bool(ds) and ds[-1] == 0,
            lie=inv.dim_leib == 0,
            leib_basis=[[str(x) for x in row] for row in leib_ideal(A).basis],
            invariants=inv.to_json(),
        )
    sys.stdout.write(dumps_canonical(out))
    return 0


def cmd_canonical_form(args):
    M = load_matrix(_read(args.matrix_file))
    blocks = canonical_decomposition(M)
    sys.stdout.write(blocks_name(blocks) + "\n")
    return 0


def _table_for(args):
    if args.solvable:
        if args.dim in (None, 2):
            return cls.solvable_dim1_table()
        if args.dim == 3:
            return cls.dim3_solvable_table()
        raise _Usage("--solvable expects --dim 2 (default) or --dim 3")
    if args.dim not in cls.NILPOTENT_COUNTS:
        raise _Usage("--dim must be 4..8 for nilpotent tables")
    return cls.nilpotent_table(args.dim)


class _Usage(Exception):
    pass


def cmd_classify(args):
    entries = _table_for(args)
    if args.verify:
        failures = []
        for entry in entries:
            if args.solvable:
                dd = 1 if entry.family == "cyclic" else 2
                fails = cls.verify_solvable_entry(entry, dd)
            else:
                fails = cls.verify_nilpotent_entry(entry)
            failures.extend(f"{entry.label}: {f}" for f in fails)
        if failures:
            for f in failures:
                print(f, file=sys.stderr)
            return 1
    if args.format == "json":
        docs = [
            algebra_to_doc(
                e.algebra,
                blocks=[b.name for b in e.blocks] if e.blocks else None,
            )
            for e in entries
        ]
        sys.stdout.write(store_table(docs))
    else:
        sys.stdout.write(store_table_md(entries))
    return 0


def cmd_match_paper(args):
    if args.dim not in (4, 5, 6, 7):
        raise _Usage("match-paper supports --dim 4..7")
    report = cls.match_paper_table(args.dim)
    sys.stdout.write(dumps_canonical(report.to_json()))
    return 0 if report.perfect else 1


def cmd_check_iso(args):
    a = load_algebra(_read(args.algebra_a)).algebra
    b = load_algebra(_read(args.algebra_b)).algebra
    verdict = isomorphic_dim1_nilpotent(a, b)
    sys.stdout.write(
        dumps_canonical(
            verdict.to_json(iso_invariants(a), iso_invariants(b), seed=None)
        )
    )
    return 0


def cmd_fuzz(args):
    if args.trials < 1:
        raise _Usage("--trials must be at least 1")
    doc = load_algebra(_read(args.algebra_file))
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0"))
    report = random_basis_fuzz(doc.algebra, trials=args.trials, seed=seed)
    sys.stdout.write(dumps_canonical(report.to_json()))
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibniz-lab",
        description=(
            "Exact classification lab for low-dimensional solvable Leibniz "
            "algebras with small derived subalgebra"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="structural data of one algebra file")
    p.add_argument("algebra_file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("canonical-form", help="block decomposition of a form matrix")
    p.add_argument("matrix_file")
    p.set_defaults(fn=cmd_canonical_form)

    p = sub.add_parser("classify", help="emit a classification table")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--solvable", action="store_true")
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--verify", action="store_true", help="verify entry invariants")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("match-paper", help="match a table against the references")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(fn=cmd_match_paper)

    p = sub.add_parser("check-iso", help="isomorphism verdict for two algebras")
    p.add_argument("algebra_a")
    p.add_argument("algebra_b")
    p.set_defaults(fn=cmd_check_iso)

    p = sub.add_parser("fuzz", help="random basis-change invariance report")
    p.add_argument("algebra_file")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MalformedFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LeibnizLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
