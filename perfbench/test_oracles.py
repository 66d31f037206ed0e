"""Self-tests of the benchmark's oracles: each accepts a right answer and
rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import gen
import oracle
import program
import run
from oracle import G


@pytest.fixture(scope="module")
def lab():
    return program.load()


def _cli(lab, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert lab["cli"].main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def dim5(lab):
    table = _cli(lab, ["classify", "--dim", "5", "--format", "json"])
    match = _cli(lab, ["match-paper", "--dim", "5"])
    distinct = lab["classify"].distinctness_report(5).to_json()
    return table, match, distinct


def test_evaluate_reads_the_scalar_grammar():
    assert oracle.evaluate("1/2+3/4*i") == G(Fraction(1, 2), Fraction(3, 4))
    assert oracle.evaluate("-i") == G(0, -1)
    assert oracle.evaluate("(c+1)/(c-1)", {"c": G(3)}) == G(2)
    assert oracle.evaluate("-1/2*c", {"c": G(4)}) == G(-2)
    with pytest.raises(ValueError):
        oracle.evaluate("c")


def test_decomposition_oracle_normalises_reciprocals_and_rejects_swaps():
    built = [("B", 2, G(3)), ("A", 1, None), ("C", 1, None)]
    assert oracle.check_decomposition(built, ["B2(1/3)", "C1", "A1"]) == []
    assert oracle.check_decomposition(built, ["B2(3)", "A1", "C1"]) == []
    assert oracle.check_decomposition(built, ["E2", "A1", "C1"])  # one block swapped
    assert oracle.check_decomposition(built, ["B2(2)", "A1", "C1"])  # wrong parameter
    assert oracle.check_decomposition(built, ["B2(3)", "C1", "C1"])  # A1 -> C1
    assert oracle.check_decomposition(built, ["B2(3)", "A1"])  # block dropped


def test_table_oracle_accepts_the_table(dim5):
    table, _, _ = dim5
    assert oracle.check_nilpotent_table(5, table, random.Random(1)) == []


def test_table_oracle_rejects_a_changed_count(dim5):
    docs = json.loads(dim5[0])
    assert oracle.check_nilpotent_table(5, json.dumps(docs[:-1]), random.Random(1))


def test_table_oracle_rejects_a_repeated_block_name(dim5):
    docs = json.loads(dim5[0])
    docs[1]["blocks"] = list(docs[0]["blocks"])
    assert oracle.check_nilpotent_table(5, json.dumps(docs), random.Random(1))


def test_table_oracle_rejects_a_lie_entry(dim5):
    docs = json.loads(dim5[0])
    # C1 C1 C1 C1 -> the skew form: x1 x2 -> x5, x2 x1 -> -x5 only
    docs[-1]["products"] = [
        {"left": 1, "right": 2, "result": [[5, "1"]]},
        {"left": 2, "right": 1, "result": [[5, "-1"]]},
    ]
    fails = oracle.check_nilpotent_table(5, json.dumps(docs), random.Random(1))
    assert any("Lie" in f for f in fails)


def test_table_oracle_rejects_a_product_off_the_line(dim5):
    docs = json.loads(dim5[0])
    docs[0]["products"].append({"left": 1, "right": 1, "result": [[2, "1"]]})
    fails = oracle.check_nilpotent_table(5, json.dumps(docs), random.Random(1))
    assert any("1-dim span" in f for f in fails)


def test_leibniz_identity_catches_a_broken_algebra():
    # [x1,x1] = x2, [x1,x2] = x2 is the cyclic Leibniz algebra ...
    good = {(0, 0): {1: G(1)}, (0, 1): {1: G(1)}}
    assert oracle.is_left_leibniz(2, good)
    # ... and adding [x2,x1] = x2 breaks the left identity.
    bad = dict(good)
    bad[(1, 0)] = {1: G(1)}
    assert not oracle.is_left_leibniz(2, bad)


def test_dim8_reference_oracle_rejects_a_changed_reference(lab):
    table = _cli(lab, ["classify", "--dim", "8", "--format", "json"])
    ref = json.loads(program.fixture_path("dim8_blocks.json").read_text())
    assert oracle.check_nilpotent_table(8, table, random.Random(2), ref) == []
    wrong = copy.deepcopy(ref)
    wrong[0] = ["C7"]
    assert oracle.check_nilpotent_table(8, table, random.Random(2), wrong)


def test_match_oracle(dim5):
    table, match, _ = dim5
    assert oracle.check_match_report(5, match, table) == []
    rep = json.loads(match)
    rep["pairs"] = rep["pairs"][:-1]
    assert oracle.check_match_report(5, json.dumps(rep), table)
    rep = json.loads(match)
    rep["perfect"] = False
    assert oracle.check_match_report(5, json.dumps(rep), table)


def test_distinctness_oracle(dim5):
    table, _, distinct = dim5
    assert oracle.check_distinctness(5, distinct, table) == []
    for corrupt in (
        lambda r: r.update(pairs_compared=r["pairs_compared"] - 1),
        lambda r: r["coincident_pairs"].append(["a", "b"]),
        lambda r: r["reciprocal_identifications"].pop(),
    ):
        rep = copy.deepcopy(distinct)
        corrupt(rep)
        assert oracle.check_distinctness(5, rep, table)


def test_basis_change_oracle():
    # A: [x1,x2] = x3; P swaps x1 and x2, so B has [x2,x1] = x3.
    a = {(0, 1): {2: G(1)}}
    b = {(1, 0): {2: G(1)}}
    P = [[G(0), G(1), G(0)], [G(1), G(0), G(0)], [G(0), G(0), G(1)]]
    assert oracle.is_basis_change(3, a, b, P)
    assert not oracle.is_basis_change(3, a, a, P)
    singular = [[G(1), G(1), G(0)], [G(1), G(1), G(0)], [G(0), G(0), G(1)]]
    assert not oracle.is_basis_change(3, a, b, singular)


@pytest.fixture(scope="module")
def iso_answers(lab):
    source = gen.Iso(lab)
    rng = random.Random(3)
    out = {}
    for kind in ("basis", "distinct", "reciprocal"):
        q = source.query(rng, 4, kind)
        out[kind] = (q, run.iso_answer(lab, q))
    return out


def test_iso_oracle_accepts_right_answers(iso_answers):
    for q, ans in iso_answers.values():
        assert run.check_iso(q, ans) == []


def test_iso_oracle_rejects_a_flipped_verdict(iso_answers):
    for q, (verdict, ia, ib) in iso_answers.values():
        flipped = replace(verdict, isomorphic=not verdict.isomorphic, witness=None)
        assert run.check_iso(q, (flipped, ia, ib))


def test_iso_oracle_rejects_a_wrong_witness(iso_answers, lab):
    q, (verdict, ia, ib) = iso_answers["reciprocal"]
    assert verdict.witness is not None
    W = [list(row) for row in verdict.witness]
    W[0], W[1] = W[1], W[0]
    bad = replace(verdict, witness=tuple(tuple(r) for r in W))
    assert run.check_iso(q, (bad, ia, ib))


def test_iso_oracle_rejects_changed_invariants(iso_answers):
    q, (verdict, ia, ib) = iso_answers["basis"]
    assert run.check_iso(q, (verdict, replace(ia, dim_center=ia.dim_center + 1), ib))


def test_congruence_inputs_are_distinct_and_seeded(lab):
    a = gen.Congruence(lab, gaussian=True)
    b = gen.Congruence(lab, gaussian=True)
    ra, rb = a.round(random.Random(9)), b.round(random.Random(9))
    assert [q.extra["matrix"] for q in ra] == [q.extra["matrix"] for q in rb]
    assert len({q.extra["matrix"] for q in ra}) == len(ra)
    for q in ra:
        entries = [oracle.evaluate(t) for row in q.extra["matrix"] for t in row]
        assert not all(x.is_integer() for x in entries)
