import random
from dataclasses import replace

import pytest

from leibniz_lab.algebra import (
    StructureConstants,
    center,
    derived_series,
    derived_subalgebra,
    is_lie,
    is_nilpotent,
    is_solvable,
    leib_ideal,
    lower_central_series,
    quotient_bracket_is_skew,
    substitute_algebra,
    verify_leibniz,
)
from leibniz_lab.classify import (
    NILPOTENT_COUNTS,
    block_multisets,
    dim3_solvable_table,
    distinctness_report,
    load_reference_dim8_blocks,
    load_reference_table,
    match_paper_table,
    nilpotent_table,
    partitions,
    solvable_dim1_table,
    verify_nilpotent_entry,
    verify_solvable_entry,
)
from leibniz_lab.blocks import form_from_algebra, has_zero_summand
from leibniz_lab.errors import PreconditionFailed
from leibniz_lab.scalars import Scalar


def test_partitions_of_four():
    assert partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_of_one():
    assert partitions(1) == [(1,)]


def _partition_count_oracle(m):
    # brute force: count multisets of positive integers summing to m
    def count(remaining, maximum):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - p, p) for p in range(min(remaining, maximum), 0, -1)
        )

    return count(m, m)


def test_partition_count_7():
    assert len(partitions(7)) == 15 == _partition_count_oracle(7)


def test_block_multisets_size3():
    ms = block_multisets(3)
    names = [tuple(b.structural_name() for b in m.blocks) for m in ms]
    assert names == [
        ("A3",),
        ("C3",),
        ("F2", "C1"),
        ("E2", "C1"),
        ("B2", "C1"),
        ("C1", "C1", "C1"),
    ]
    assert not any(m.lie_only for m in ms)


def test_block_multisets_marks_skew_as_lie():
    ms = block_multisets(4)
    f2f2 = next(
        m for m in ms if tuple(b.structural_name() for b in m.blocks) == ("F2", "F2")
    )
    assert f2f2.lie_only
    # only F2 pairs are skew at size 4
    assert sum(1 for m in ms if m.lie_only) == 1


def test_size4_blocks_are_b_d_e():
    ms = block_multisets(4)
    singles = [
        m.blocks[0].structural_name() for m in ms if len(m.blocks) == 1
    ]
    assert singles == ["B4", "D4", "E4"]


def test_counts_match_reference():
    for n, want in NILPOTENT_COUNTS.items():
        assert len(nilpotent_table(n)) == want


def test_each_nilpotent_table_is_built_once():
    for n in NILPOTENT_COUNTS:
        table = nilpotent_table(n)
        assert isinstance(table, tuple)
        assert nilpotent_table(n) is table


def test_dim4_item1_products():
    entry = nilpotent_table(4)[0]
    prods = {
        k: [(i, str(c)) for i, c in v] for k, v in entry.algebra.products().items()
    }
    assert prods == {(1, 3): [(4, "1")], (3, 2): [(4, "1")]}


def test_dim8_blocks_match_reference_rows():
    ref = load_reference_dim8_blocks()
    gen = [tuple(b.structural_name() for b in e.blocks) for e in nilpotent_table(8)]
    assert gen == [tuple(r) for r in ref]


def test_parameter_naming_follows_block_order():
    entry = next(
        e
        for e in nilpotent_table(7)
        if e.blocks and tuple(b.structural_name() for b in e.blocks) == ("B4", "B2")
    )
    assert [str(b.parameter) for b in entry.blocks] == ["c1", "c2"]
    singles = next(
        e
        for e in nilpotent_table(7)
        if e.blocks
        and tuple(b.structural_name() for b in e.blocks) == ("B2", "B2", "B2")
    )
    assert [str(b.parameter) for b in singles.blocks] == ["c1", "c2", "c3"]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_match_reference_tables(n):
    report = match_paper_table(n)
    assert report.perfect
    assert len(report.pairs) == NILPOTENT_COUNTS[n]


def test_match_survives_basis_permutation():
    from leibniz_lab.classify import algebras_match

    refs = load_reference_table(4)
    entry = nilpotent_table(4)[1]
    ref = refs[1].algebra
    # permute the first two basis vectors of the reference algebra
    perm = {1: 2, 2: 1, 3: 3, 4: 4}
    from leibniz_lab.algebra import StructureConstants

    prods = {}
    for (i, j), terms in ref.products().items():
        prods[(perm[i], perm[j])] = [(perm[k], c) for k, c in terms]
    permuted = StructureConstants.from_products(4, prods, label="permuted")
    assert algebras_match(entry.algebra, permuted)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_match_survives_permutation_and_renaming(n):
    """Matching keys and search ignore basis order and parameter names."""
    rng = random.Random(n)
    moved = []
    for entry in nilpotent_table(n):
        A = entry.algebra
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        names = list(A.parameters())
        rng.shuffle(names)
        renaming = {p: f"q{names.index(p)}" for p in names}
        prods = {
            (perm[i - 1], perm[j - 1]): [
                (perm[k - 1], c.rename_params(renaming)) for k, c in terms
            ]
            for (i, j), terms in A.products().items()
        }
        B = StructureConstants.from_products(n, prods, label=A.label)
        moved.append(replace(entry, algebra=B))
    report = match_paper_table(n, moved)
    assert report.perfect
    assert report.pairs == match_paper_table(n).pairs


def test_solvable_dim1_table():
    table = solvable_dim1_table()
    assert len(table) == 1
    A = table[0].algebra
    prods = {k: [(i, str(c)) for i, c in v] for k, v in A.products().items()}
    assert prods == {(1, 1): [(2, "1")], (1, 2): [(2, "1")]}
    assert verify_leibniz(A)
    assert is_solvable(A) and not is_nilpotent(A) and not is_lie(A)
    assert derived_subalgebra(A).dim == 1
    ds = derived_series(A)
    assert ds[1].dim == 1 and ds[2].is_zero()
    lcs = lower_central_series(A)
    assert lcs[-1].dim == 1  # never reaches zero


def test_dim3_solvable_families():
    table = dim3_solvable_table()
    assert [e.family for e in table] == [f"family{k}" for k in range(1, 7)]
    for entry in table:
        assert verify_solvable_entry(entry, derived_dim=2) == []
    fam1 = table[0].algebra
    prods = {k: [(i, str(c)) for i, c in v] for k, v in fam1.products().items()}
    assert prods == {
        (1, 1): [(3, "1")],
        (1, 3): [(2, "1")],
        (1, 2): [(2, "1")],
    }
    # family 6 satisfies the identity including the [y, y] = z term
    fam6 = table[5].algebra
    assert verify_leibniz(fam6)
    # derived series: dim A^(3) is 1 for family 6, 0 otherwise
    for entry in table:
        ds = derived_series(entry.algebra)
        d3 = ds[2].dim if len(ds) > 2 else 0
        assert d3 == (1 if entry.family == "family6" else 0)


def test_family2_dims_at_alpha_one():
    table = dim3_solvable_table()
    fam2 = substitute_algebra(table[1].algebra, {"alpha": 1})
    # family 2 lives in the dim Leib(A) = 2, dim Z(A) = 0 case
    assert center(fam2).dim == 0
    assert leib_ideal(fam2).dim == 2
    fam5 = substitute_algebra(table[4].algebra, {"alpha": 1})
    assert center(fam5).dim == 0
    assert leib_ideal(fam5).dim == 1


def test_every_nilpotent_entry_verifies():
    for n in (4, 5):
        for entry in nilpotent_table(n):
            assert verify_nilpotent_entry(entry) == []


def test_verify_reports_a_perturbed_entry():
    # at a = b = c = x1 the identity says [[x1,x1],x1] = 0; once [x1,x1]
    # has an x1 term, so has [[x1,x1],x1]
    for entry in nilpotent_table(5):
        prods = entry.algebra.products()
        prods[(1, 1)] = prods.get((1, 1), []) + [(1, Scalar.rational(1))]
        bad = StructureConstants.from_products(5, prods, label=entry.label)
        fails = verify_nilpotent_entry(replace(entry, algebra=bad))
        assert "leibniz identity fails" in fails


def test_verify_reports_an_ineligible_entry():
    # a solvable, non-nilpotent algebra: the failures are listed, not raised
    fails = verify_nilpotent_entry(solvable_dim1_table()[0])
    assert "algebra is not nilpotent" in fails


def test_verify_names_a_wrong_dim_a2_once():
    for entry in dim3_solvable_table():
        fails = verify_nilpotent_entry(entry)
        assert [f for f in fails if f.startswith("dim A^2")] == ["dim A^2 = 2, need 1"]


def _all_nilpotent_entries():
    return [e for n in sorted(NILPOTENT_COUNTS) for e in nilpotent_table(n)]


def test_verify_takes_derivable_facts_from_the_form_precondition(monkeypatch):
    """On a table entry nothing that the form precondition implies is
    recomputed: A^2 comes from form_from_algebra alone."""
    import leibniz_lab.blocks as blocks_module
    import leibniz_lab.classify as classify_module

    entries = _all_nilpotent_entries()

    def implied(*args):
        raise AssertionError("implied by the form precondition")

    for name in (
        "lower_central_series",
        "leib_ideal",
        "derived_subalgebra",
    ):
        monkeypatch.setattr(classify_module, name, implied)
    calls = []

    def counted(A, inner=blocks_module.derived_subalgebra):
        calls.append(A.label)
        return inner(A)

    monkeypatch.setattr(blocks_module, "derived_subalgebra", counted)
    for entry in entries:
        assert verify_nilpotent_entry(entry) == []
    assert calls == [entry.label for entry in entries]


def _reference_failures(entry):
    """The nine checks, each computed on its own, as verify_nilpotent_entry
    made them before it took the implied ones from the form precondition;
    a dim A^2 other than 1 is named once, by the precondition's message."""
    A = entry.algebra
    fails = []
    if not verify_leibniz(A):
        fails.append("leibniz identity fails")
    leib = leib_ideal(A)
    if leib.is_zero():
        fails.append("algebra is Lie")
    chain = lower_central_series(A)
    if not chain[-1].is_zero():
        fails.append("algebra is not nilpotent")
    derived = derived_subalgebra(A)
    if leib != derived:
        fails.append("Leib(A) differs from A^2")
    try:
        form, _ = form_from_algebra(A)
    except PreconditionFailed as exc:
        fails.append(str(exc))
    else:
        if has_zero_summand(form):
            fails.append("form has a zero summand (split algebra)")
    n = A.dim
    for i in range(n):
        if any(A.tensor[i][n - 1]) or any(A.tensor[n - 1][i]):
            fails.append("x_n does not annihilate the algebra")
            break
    if not (len(chain) == 3 and chain[1].dim == 1 and chain[2].is_zero()):
        fails.append("lower central series is not A > A^2 > 0")
    if not quotient_bracket_is_skew(A):
        fails.append("bracket on A/Leib(A) is not skew")
    return fails


def _with_products(entry, prods):
    A = entry.algebra
    B = StructureConstants.from_products(
        A.dim, prods, constraints=A.constraints, label=A.label
    )
    return replace(entry, algebra=B)


def _seeded_variants(entry, rng):
    """The entry, and four seeded changes of it: an extra product term
    (half of them on x_n, which can keep the form precondition), a dropped
    product, the antisymmetrized (Lie) bracket, and x_n swapped with
    another basis vector, so that A^2 is no longer spanned by x_n."""
    n = entry.algebra.dim
    prods = entry.algebra.products()
    yield entry

    extra = {key: list(terms) for key, terms in prods.items()}
    i, j = rng.randint(1, n), rng.randint(1, n)
    k = n if rng.random() < 0.5 else rng.randint(1, n)
    coeff = Scalar.rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    extra[(i, j)] = extra.get((i, j), []) + [(k, coeff)]
    yield _with_products(entry, extra)

    dropped = dict(prods)
    del dropped[rng.choice(sorted(dropped))]
    yield _with_products(entry, dropped)

    lie = {}
    for (i, j), terms in prods.items():
        lie.setdefault((i, j), []).extend(terms)
        lie.setdefault((j, i), []).extend((k, -c) for k, c in terms)
    yield _with_products(entry, lie)

    other = rng.randint(1, n - 1)
    swap = {other: n, n: other}
    swapped = {
        (swap.get(i, i), swap.get(j, j)): [(swap.get(k, k), c) for k, c in terms]
        for (i, j), terms in prods.items()
    }
    yield _with_products(entry, swapped)


def test_verify_agrees_with_the_nine_separate_checks():
    rng = random.Random(11)
    cases = [solvable_dim1_table()[0]]
    for entry in _all_nilpotent_entries():
        cases.extend(_seeded_variants(entry, rng))
    assert len(cases) >= 400
    seen = set()
    for case in cases:
        fails = verify_nilpotent_entry(case)
        assert fails == _reference_failures(case), case.label
        seen.update(fails)
    # both paths of verify_nilpotent_entry report each of these somewhere
    assert {
        "leibniz identity fails",
        "algebra is Lie",
        "algebra is not nilpotent",
        "Leib(A) differs from A^2",
        "form has a zero summand (split algebra)",
        "x_n does not annihilate the algebra",
        "lower central series is not A > A^2 > 0",
    } <= seen


def test_distinctness_dims_4_to_6():
    for n in (4, 5, 6):
        report = distinctness_report(n)
        assert report.coincident_pairs == []
        parametric = [
            e.label for e in nilpotent_table(n) if e.algebra.parameters()
        ]
        assert report.reciprocal_identifications == parametric


def test_generated_tables_reproduce_references_verbatim():
    """The mechanical generation reproduces the transcribed item lists
    word for word: same products, same order, same constraints."""
    from leibniz_lab.formats import algebra_to_doc

    for n in (4, 5, 6, 7):
        gen = [algebra_to_doc(e.algebra) for e in nilpotent_table(n)]
        ref = [algebra_to_doc(d.algebra) for d in load_reference_table(n)]
        assert len(gen) == len(ref)
        for g, r in zip(gen, ref):
            assert g["products"] == r["products"]
            assert g["constraints"] == r["constraints"]
