import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_lab.blocks import CanonicalBlock, canonical_block_matrix
from leibniz_lab.classify import (
    dim3_solvable_table,
    load_reference_table,
    nilpotent_table,
    solvable_dim1_table,
)
from leibniz_lab.errors import LeibnizLabError, MalformedFile
from leibniz_lab.formats import (
    MAX_TABLE_ENTRIES,
    algebra_to_doc,
    doc_to_algebra,
    dumps_canonical,
    load_algebra,
    load_matrix,
    load_table,
    store_algebra,
    store_matrix,
)
from leibniz_lab.scalars import Scalar, parse_scalar


def test_algebra_round_trip_objects():
    for entry in nilpotent_table(5):
        text = store_algebra(entry.algebra, blocks=[b.name for b in entry.blocks])
        doc = load_algebra(text)
        assert doc.algebra == entry.algebra
        assert doc.blocks == tuple(b.name for b in entry.blocks)
        assert store_algebra(doc.algebra, blocks=doc.blocks) == text


def test_algebra_round_trip_byte_exact_fixtures():
    import importlib.resources as res

    for name in (
        "nilpotent_dim4.json",
        "nilpotent_dim5.json",
        "nilpotent_dim6.json",
        "nilpotent_dim7.json",
        "solvable_dim2.json",
        "solvable_dim3.json",
    ):
        text = res.files("leibniz_lab").joinpath("fixtures").joinpath(name).read_text()
        docs = json.loads(text)
        rebuilt = dumps_canonical(
            [algebra_to_doc(doc_to_algebra(d).algebra) for d in docs]
        )
        assert rebuilt == text


def test_solvable_tables_round_trip():
    for entry in solvable_dim1_table() + dim3_solvable_table():
        text = store_algebra(entry.algebra)
        assert load_algebra(text).algebra == entry.algebra
        assert store_algebra(load_algebra(text).algebra) == text


def test_matrix_round_trip():
    c = Scalar.param("c")
    M = canonical_block_matrix(CanonicalBlock("B", 4, c))
    text = store_matrix(M)
    assert load_matrix(text) == M
    assert store_matrix(load_matrix(text)) == text
    assert load_matrix("0,1;c,0") == canonical_block_matrix(CanonicalBlock("B", 2, c))


def test_matrix_empty():
    assert load_matrix("") == ()
    assert store_matrix(()) == "\n"


def test_malformed_json_has_location():
    with pytest.raises(MalformedFile) as err:
        load_algebra('{"dim": 2,\n  "products": [}')
    assert err.value.line == 2


def test_malformed_matrix_entry_position():
    with pytest.raises(MalformedFile) as err:
        load_matrix("0,1;c,^")
    assert err.value.line == 2 and err.value.column == 2


def test_bad_indices_rejected():
    with pytest.raises(MalformedFile):
        doc_to_algebra({"dim": 2, "products": [{"left": 3, "right": 1, "result": [[1, "1"]]}]})
    with pytest.raises(MalformedFile):
        doc_to_algebra({"dim": 0, "products": []})


def test_reference_loader():
    refs = load_reference_table(4)
    assert len(refs) == 6
    assert refs[0].algebra.label == "reference-dim4-item1"


# --- hostile input: only the library's own errors may escape ---------------

_SCALAR_CHARS = "0123456789()+-*/ ic_x^"
_short = st.text(alphabet=_SCALAR_CHARS, max_size=12)
hostile_scalar_st = st.one_of(
    st.text(alphabet=_SCALAR_CHARS, max_size=40),
    st.builds(lambda d, s: "(" * d + s + ")" * d, st.integers(0, 3000), _short),
    st.builds(lambda d, s: "-" * d + s, st.integers(0, 3000), _short),
    st.builds(lambda d, s: "(-" * d + s + ")" * d, st.integers(0, 3000), _short),
    st.builds(lambda d: "7" * d, st.integers(1, 6000)),
)
hostile_matrix_st = st.lists(
    st.lists(hostile_scalar_st, min_size=1, max_size=3), max_size=3
).map(lambda rows: ";".join(",".join(r) for r in rows))
_json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
_index_st = st.one_of(st.integers(-1, 5), st.floats(), st.text(max_size=2), st.none())
_product_st = st.fixed_dictionaries(
    {
        "left": _index_st,
        "right": _index_st,
        "result": st.lists(st.tuples(_index_st, hostile_scalar_st | _json_st), max_size=2),
    }
)
_algebra_doc_st = st.fixed_dictionaries(
    {"dim": st.one_of(st.integers(-1, 5), st.integers(), _json_st)},
    optional={
        "basis": _json_st,
        "products": st.lists(_product_st | _json_st, max_size=3),
        "constraints": st.lists(
            st.fixed_dictionaries(
                {"param": _json_st, "excluded": st.lists(hostile_scalar_st, max_size=2)}
            ),
            max_size=2,
        ),
        "label": _json_st,
        "blocks": _json_st,
    },
)
hostile_json_st = st.one_of(
    _algebra_doc_st.map(json.dumps),
    st.lists(_algebra_doc_st, max_size=3).map(json.dumps),
    _json_st.map(json.dumps),
    st.builds(lambda d: "[" * d + "]" * d, st.integers(0, 200000)),
    st.builds(lambda d: '{"dim": ' + "1" * d + "}", st.integers(1, 6000)),
    st.text(max_size=30),
)


def _only_library_errors(load, text):
    try:
        load(text)
    except LeibnizLabError:
        pass


@settings(max_examples=150, deadline=None)
@given(hostile_scalar_st)
def test_parse_scalar_raises_only_library_errors(text):
    _only_library_errors(parse_scalar, text)


@settings(max_examples=100, deadline=None)
@given(hostile_matrix_st)
def test_load_matrix_raises_only_library_errors(text):
    _only_library_errors(load_matrix, text)


@settings(max_examples=150, deadline=None)
@given(hostile_json_st)
def test_load_algebra_and_table_raise_only_library_errors(text):
    _only_library_errors(load_algebra, text)
    _only_library_errors(load_table, text)


def test_nesting_and_long_integers_are_malformed():
    deep = "(" * 3000 + "1" + ")" * 3000
    for text in (deep, "-" * 3000 + "1", "7" * 5000):
        with pytest.raises(MalformedFile):
            load_matrix(text)
    doc = {"dim": 2, "products": [{"left": 1, "right": 1, "result": [[2, deep]]}]}
    huge = ('{"dim": ' + "1" * 5000 + "}", '{"dim": 1000000}', "[" * 200000 + "]" * 200000)
    for text in (json.dumps(doc),) + huge:
        with pytest.raises(MalformedFile):
            load_algebra(text)
        with pytest.raises(MalformedFile):
            load_table(text)
    # nesting up to the bound still parses
    assert parse_scalar("(" * 100 + "2" + ")" * 100) == Scalar.rational(2)


def test_table_size_is_bounded():
    """The documents of one table file need at most MAX_TABLE_ENTRIES dense
    structure constants together, checked before any tensor is built."""
    with pytest.raises(MalformedFile, match="structure constants"):
        load_table(json.dumps([{"dim": 64}] * 40))  # 481 bytes, 10.5M constants
    # 556 entries of dim 12, as many as dim 12 has non-Lie block multisets
    assert 556 * 12**3 <= MAX_TABLE_ENTRIES
    assert len(load_table(json.dumps([{"dim": 12}] * 556))) == 556
    out = Path(__file__).parents[1] / "out"
    tables = sorted(out.glob("nilpotent_dim*.json")) + sorted(
        out.glob("solvable_dim*.json")
    )
    assert len(tables) == 7
    for path in tables:
        assert load_table(path.read_text())
