import json

import pytest

from leibniz_lab.cli import main
from leibniz_lab.classify import nilpotent_table
from leibniz_lab.formats import store_algebra, store_matrix
from leibniz_lab.linalg import scalar_matrix


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _one_product_doc(scalar):
    """A dim-2 algebra file with [x1, x1] = scalar * x2."""
    return json.dumps(
        {"dim": 2, "products": [{"left": 1, "right": 1, "result": [[2, scalar]]}]}
    )


def test_classify_dim5_json(capsys):
    code, out, _ = run_cli(["classify", "--dim", "5", "--format", "json"], capsys)
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 14
    assert docs[0]["dim"] == 5


def test_classify_json_reloads_losslessly(tmp_path, capsys):
    code, out, _ = run_cli(["classify", "--dim", "4"], capsys)
    assert code == 0
    from leibniz_lab.formats import load_table

    docs = load_table(out)
    assert [d.algebra.label for d in docs] == [
        e.label for e in nilpotent_table(4)
    ]


def test_classify_md(capsys):
    code, out, _ = run_cli(["classify", "--dim", "4", "--format", "md"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].endswith("[x1,x3]=x4, [x3,x2]=x4")


def test_classify_solvable(capsys):
    code, out, _ = run_cli(["classify", "--solvable"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 1
    code, out, _ = run_cli(["classify", "--dim", "3", "--solvable"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 6


def test_classify_verify_flag(capsys):
    code, _, _ = run_cli(["classify", "--dim", "4", "--verify"], capsys)
    assert code == 0


def test_canonical_form_zero_matrix(tmp_path, capsys):
    path = tmp_path / "zero.mat"
    path.write_text(store_matrix(scalar_matrix([["0"] * 3] * 3)))
    code, out, _ = run_cli(["canonical-form", str(path)], capsys)
    assert code == 0
    assert out.strip() == "A1 A1 A1"


def test_check_iso_items_3_and_4(tmp_path, capsys):
    table = nilpotent_table(4)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(store_algebra(table[2].algebra))
    pb.write_text(store_algebra(table[3].algebra))
    code, out, _ = run_cli(["check-iso", str(pa), str(pb)], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] is False
    assert verdict["witness"] is None
    assert verdict["invariants"]["left"]["pencil"] is not None


def test_match_paper_dim4(capsys):
    code, out, _ = run_cli(["match-paper", "--dim", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["perfect"] is True
    assert len(report["pairs"]) == 6


def test_analyze(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(store_algebra(nilpotent_table(4)[0].algebra))
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["leibniz"] and data["nilpotent"] and not data["lie"]
    assert data["invariants"]["leib_dim"] == 1


def test_analyze_runs_the_leibniz_check_once(tmp_path, capsys, monkeypatch):
    from leibniz_lab import algebra, cli, iso

    check = algebra.verify_leibniz
    calls = []

    def counted(A):
        calls.append(A.label)
        return check(A)

    for mod in (algebra, iso, cli):
        if getattr(mod, "verify_leibniz", None) is check:
            monkeypatch.setattr(mod, "verify_leibniz", counted)
    not_leibniz = {"dim": 1, "products": [{"left": 1, "right": 1, "result": [[1, "1"]]}]}
    docs = [store_algebra(e.algebra) for e in nilpotent_table(5)[:3]]
    docs.append(json.dumps(not_leibniz))
    for k, text in enumerate(docs):
        path = tmp_path / f"a{k}.json"
        path.write_text(text)
        calls.clear()
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0 and len(calls) == 1
    assert json.loads(out) == {
        "label": None,
        "dim": 1,
        "leibniz": False,
        "nilpotent": None,
        "solvable": None,
        "lie": None,
        "leib_basis": None,
        "invariants": None,
    }


def test_fuzz_deterministic(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text(store_algebra(nilpotent_table(4)[1].algebra))
    code1, out1, _ = run_cli(["fuzz", str(path), "--trials", "10", "--seed", "3"], capsys)
    code2, out2, _ = run_cli(["fuzz", str(path), "--trials", "10", "--seed", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    monkeypatch.setenv("LEIBNIZ_LAB_SEED", "3")
    code3, out3, _ = run_cli(["fuzz", str(path), "--trials", "10"], capsys)
    assert code3 == 0 and out3 == out1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_fuzz_refuses_fewer_than_one_trial(tmp_path, capsys, trials):
    path = tmp_path / "a.json"
    path.write_text(store_algebra(nilpotent_table(4)[1].algebra))
    code, out, err = run_cli(["fuzz", str(path), "--trials", trials], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--trials" in err


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    code, _, err = run_cli(["classify", "--dim", "9"], capsys)
    assert code == 2 and "dim" in err
    code, _, err = run_cli(["analyze", str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_malformed_file_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,\n "products": [}')
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "verb, text",
    [
        ("canonical-form", "(" * 3000 + "1" + ")" * 3000),
        ("canonical-form", "7" * 5000),
        ("analyze", _one_product_doc("(" * 3000 + "1" + ")" * 3000)),
        ("analyze", "[" * 200000 + "]" * 200000),
        ("canonical-form", "1,0;0,1/0"),
        ("analyze", _one_product_doc("1/0")),
        ("canonical-form", "1" * 5000 + "$"),
        ("analyze", _one_product_doc("1/(" + "+".join(["1"] * 2000) + "-2000)")),
    ],
    ids=[
        "deep-matrix-entry",
        "long-integer",
        "deep-algebra-scalar",
        "deep-json",
        "division-by-zero",
        "algebra-division-by-zero",
        "long-bad-cell",
        "long-division-by-zero",
    ],
)
def test_hostile_input_exits_2_with_one_line(tmp_path, capsys, verb, text):
    path = tmp_path / "hostile"
    path.write_text(text)
    code, out, err = run_cli([verb, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= 200  # a bad cell is quoted, not echoed whole


@pytest.mark.parametrize("verb", ["analyze", "canonical-form", "check-iso", "fuzz"])
def test_non_utf8_file_exits_2_with_one_line(tmp_path, capsys, verb):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    paths = [str(path)] * (2 if verb == "check-iso" else 1)
    code, out, err = run_cli([verb, *paths], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err


def test_analyze_perfect_lie_algebra(tmp_path, capsys):
    # sl2: [h,e] = 2e, [h,f] = -2f, [e,f] = h, skew; perfect, so neither
    # nilpotent nor solvable
    sl2 = {
        "dim": 3,
        "basis": ["h", "e", "f"],
        "products": [
            {"left": 1, "right": 2, "result": [[2, "2"]]},
            {"left": 2, "right": 1, "result": [[2, "-2"]]},
            {"left": 1, "right": 3, "result": [[3, "-2"]]},
            {"left": 3, "right": 1, "result": [[3, "2"]]},
            {"left": 2, "right": 3, "result": [[1, "1"]]},
            {"left": 3, "right": 2, "result": [[1, "-1"]]},
        ],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(sl2))
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["leibniz"] and data["lie"]
    assert data["nilpotent"] is False and data["solvable"] is False
    assert data["invariants"]["lower_central_dims"] == []


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(["classify", "--dim", "6"], capsys)
    _, out2, _ = run_cli(["classify", "--dim", "6"], capsys)
    assert out1 == out2


def test_analyze_named_basis_family(tmp_path, capsys):
    from leibniz_lab.classify import dim3_solvable_table
    from leibniz_lab.algebra import substitute_algebra

    fam5 = substitute_algebra(dim3_solvable_table()[4].algebra, {"alpha": 2})
    path = tmp_path / "fam5.json"
    path.write_text(store_algebra(fam5))
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["solvable"] and not data["nilpotent"]
    assert data["invariants"]["pencil"] is None
    assert data["invariants"]["leib_dim"] == 1


def test_canonical_form_b_block_file(tmp_path, capsys):
    from leibniz_lab.blocks import CanonicalBlock, canonical_block_matrix
    from leibniz_lab.scalars import Scalar

    m = canonical_block_matrix(CanonicalBlock("B", 2, Scalar.rational(3)))
    path = tmp_path / "b.mat"
    path.write_text(store_matrix(m))
    code, out, _ = run_cli(["canonical-form", str(path)], capsys)
    assert code == 0
    assert out.strip() == "B2(1/3)"


def test_canonical_form_dictionary_miss_exits_1(tmp_path, capsys):
    path = tmp_path / "m.mat"
    path.write_text("1,1;0,1\n")
    code, _, err = run_cli(["canonical-form", str(path)], capsys)
    assert code == 1
    assert "DictionaryMiss" in err


def test_check_iso_reciprocal_witness(tmp_path, capsys):
    from leibniz_lab.blocks import CanonicalBlock, algebra_from_blocks
    from leibniz_lab.scalars import Scalar

    a = algebra_from_blocks([CanonicalBlock("B", 2, Scalar.rational(2))])
    b = algebra_from_blocks([CanonicalBlock("B", 2, Scalar.rational(1, 2))])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(store_algebra(a))
    pb.write_text(store_algebra(b))
    code, out, _ = run_cli(["check-iso", str(pa), str(pb)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["witness"] is not None
    # the witness is a valid basis change taking a to b
    from leibniz_lab.algebra import change_of_basis
    from leibniz_lab.linalg import scalar_matrix

    P = scalar_matrix(data["witness"])
    assert change_of_basis(a, P).tensor == b.tensor
