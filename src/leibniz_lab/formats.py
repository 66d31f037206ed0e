"""Algebra and matrix file formats.

Algebra files are JSON documents with fields dim, basis, products,
constraints, label and an optional blocks list (canonical block names for
entries produced by the classifier).  Matrix files are plain text: rows
separated by ';', entries by ',', each entry in the scalar grammar.
Serialization is canonical so files round-trip byte-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import StructureConstants
from .errors import DivisionByZero, MalformedFile, ScalarSyntaxError, excerpt
from .scalars import ParameterConstraint, Scalar, parse_scalar


MAX_DIM = 64  # a file's dense structure tensor holds dim^3 scalars
MAX_TABLE_ENTRIES = 2**20  # dim^3 summed over the documents of a table file


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class AlgebraDocument:
    algebra: StructureConstants
    blocks: tuple | None = None  # block-name strings, classifier provenance


def algebra_to_doc(A: StructureConstants, blocks=None) -> dict:
    prods = []
    for (i, j), terms in sorted(A.products().items()):
        prods.append(
            {
                "left": i,
                "right": j,
                "result": [[k, str(c)] for k, c in sorted(terms)],
            }
        )
    doc = {
        "dim": A.dim,
        "basis": list(A.basis_names()),
        "products": prods,
        "constraints": [
            {
                "param": con.name,
                "excluded": sorted(str(Scalar.const(v)) for v in con.excluded),
            }
            for con in sorted(A.constraints, key=lambda c: c.name)
        ],
        "label": A.label,
    }
    if blocks is not None:
        doc["blocks"] = list(blocks)
    return doc


def doc_to_algebra(doc) -> AlgebraDocument:
    try:
        dim = doc["dim"]
        if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
            raise MalformedFile(f"bad dim {excerpt(repr(dim))}, need 1..{MAX_DIM}")
        basis = doc.get("basis") or [f"x{k + 1}" for k in range(dim)]
        if len(basis) != dim:
            raise MalformedFile("basis length does not match dim")
        products = {}
        for entry in doc.get("products", []):
            i, j = entry["left"], entry["right"]
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise MalformedFile(f"product index ({i},{j}) out of range")
            terms = []
            for k, text in entry["result"]:
                if not 1 <= k <= dim:
                    raise MalformedFile(f"result index {k} out of range")
                terms.append((k, parse_scalar(text)))
            products[(i, j)] = terms
        constraints = []
        for entry in doc.get("constraints", []):
            vals = [parse_scalar(t).as_qi() for t in entry["excluded"]]
            constraints.append(
                ParameterConstraint(entry["param"], frozenset(vals))
            )
        label = doc.get("label")
        blocks = tuple(doc["blocks"]) if "blocks" in doc else None
        A = StructureConstants.from_products(
            dim, products, constraints=constraints, label=label, basis=basis
        )
        return AlgebraDocument(A, blocks)
    except MalformedFile:
        raise
    except (ScalarSyntaxError, DivisionByZero) as exc:
        raise MalformedFile(f"bad scalar: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"bad algebra document: {exc}") from exc


def store_algebra(A: StructureConstants, blocks=None) -> str:
    return dumps_canonical(algebra_to_doc(A, blocks))


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer past the int-string limit
        raise MalformedFile(f"bad JSON: {exc}") from exc
    except RecursionError:
        raise MalformedFile("JSON nested too deeply") from None


def load_algebra(text: str) -> AlgebraDocument:
    return doc_to_algebra(_load_json(text))


def store_table(entries_docs) -> str:
    return dumps_canonical(entries_docs)


def store_table_md(entries) -> str:
    """The --format md text of table entries: per entry one line with its
    label and its nonzero products [x_i,x_j]=c x_k, where a coefficient 1
    or -1 is written as its sign and one with an inner + or - is
    parenthesized."""
    lines = []
    for entry in entries:
        names = entry.algebra.basis_names()
        prods = []
        for (i, j), terms in sorted(entry.algebra.products().items()):
            for k, c in sorted(terms):
                cs = str(c)
                if cs == "1":
                    coeff = ""
                elif cs == "-1":
                    coeff = "-"
                else:
                    coeff = f"({cs})" if any(op in cs[1:] for op in "+-") else cs
                prods.append(f"[{names[i - 1]},{names[j - 1]}]={coeff}{names[k - 1]}")
        lines.append(f"{entry.label}: " + ", ".join(prods) + "\n")
    return "".join(lines)


def load_table(text: str):
    docs = _load_json(text)
    if not isinstance(docs, list):
        raise MalformedFile("table file must hold a JSON list")
    dims = (d.get("dim") if isinstance(d, dict) else None for d in docs)
    total = sum(n**3 for n in dims if isinstance(n, int) and 1 <= n <= MAX_DIM)
    if total > MAX_TABLE_ENTRIES:
        raise MalformedFile(
            f"table needs {total} structure constants, more than {MAX_TABLE_ENTRIES}"
        )
    return [doc_to_algebra(d) for d in docs]


def store_matrix(M) -> str:
    return ";".join(",".join(str(x) for x in row) for row in M) + "\n"


def load_matrix(text: str):
    text = text.strip()
    if not text:
        return ()
    rows = []
    for li, row_text in enumerate(text.split(";")):
        row = []
        for ci, cell in enumerate(row_text.split(",")):
            try:
                row.append(parse_scalar(cell.strip()))
            except (ScalarSyntaxError, DivisionByZero) as exc:
                raise MalformedFile(
                    f"bad matrix entry {excerpt(repr(cell.strip()))}: {exc}",
                    line=li + 1,
                    column=ci + 1,
                ) from exc
        rows.append(tuple(row))
    if any(len(r) != len(rows) for r in rows):
        raise MalformedFile("matrix is not square" if rows else "empty matrix")
    return tuple(rows)
