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
