import random

import pytest

from leibniz_lab.algebra import (
    StructureConstants,
    derived_subalgebra,
    is_lie,
    is_nilpotent,
    verify_leibniz,
)
from leibniz_lab.blocks import (
    CanonicalBlock,
    algebra_from_blocks,
    b_param_normalize,
    blocks_name,
    canonical_block_matrix,
    direct_sum_matrix,
    form_from_algebra,
    has_zero_summand,
    is_skew_matrix,
    normalize_blocks,
    parse_block_name,
)
from leibniz_lab.errors import InvalidBlock, PreconditionFailed
from leibniz_lab.iso import isomorphic_dim1_nilpotent, random_invertible_matrix
from leibniz_lab.linalg import block_diag, rank, scalar_matrix, transpose
from leibniz_lab.pencil import congruence_transform
from leibniz_lab.scalars import Scalar

S = Scalar.parse


def B(kind, size, param=None):
    return CanonicalBlock(kind, size, S(param) if param else None)


def test_smallest_blocks_match_their_stated_matrices():
    assert canonical_block_matrix(B("A", 1)) == scalar_matrix([["0"]])
    assert canonical_block_matrix(B("C", 1)) == scalar_matrix([["1"]])
    assert canonical_block_matrix(B("B", 2, "c")) == scalar_matrix([["0", "1"], ["c", "0"]])
    assert canonical_block_matrix(B("E", 2)) == scalar_matrix([["0", "1"], ["-1", "1"]])
    assert canonical_block_matrix(B("F", 2)) == scalar_matrix([["0", "1"], ["-1", "0"]])


def test_a3_and_c3_matrices():
    assert canonical_block_matrix(B("A", 3)) == scalar_matrix(
        [["0", "0", "1"], ["0", "0", "0"], ["0", "1", "0"]]
    )
    assert canonical_block_matrix(B("C", 3)) == scalar_matrix(
        [["0", "0", "1"], ["0", "1", "1"], ["1", "-1", "0"]]
    )


def test_b4_d4_e4_matrices():
    assert canonical_block_matrix(B("B", 4, "c")) == scalar_matrix(
        [
            ["0", "0", "0", "1"],
            ["0", "0", "1", "c"],
            ["0", "c", "0", "0"],
            ["c", "1", "0", "0"],
        ]
    )
    assert canonical_block_matrix(B("D", 4)) == scalar_matrix(
        [
            ["0", "0", "0", "1"],
            ["0", "0", "1", "1"],
            ["0", "1", "0", "0"],
            ["1", "-1", "0", "0"],
        ]
    )
    assert canonical_block_matrix(B("E", 4)) == scalar_matrix(
        [
            ["0", "0", "0", "1"],
            ["0", "0", "1", "1"],
            ["0", "-1", "1", "0"],
            ["-1", "1", "0", "0"],
        ]
    )


def test_block_validation():
    with pytest.raises(InvalidBlock):
        B("A", 2)
    with pytest.raises(InvalidBlock):
        B("B", 3, "c")
    with pytest.raises(InvalidBlock):
        B("D", 6)  # size/2 = 3 odd
    with pytest.raises(InvalidBlock):
        B("F", 4)  # size/2 = 2 even
    with pytest.raises(InvalidBlock):
        B("B", 2, "1")
    with pytest.raises(InvalidBlock):
        B("B", 2, "-1")
    with pytest.raises(InvalidBlock):
        B("E", 2).parameter or CanonicalBlock("E", 2, S("2"))
    with pytest.raises(InvalidBlock):
        B("B", 2)


def test_direct_sum_matrix():
    m = direct_sum_matrix([B("A", 3), B("C", 1)])
    assert m == scalar_matrix(
        [
            ["0", "0", "1", "0"],
            ["0", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "0", "1"],
        ]
    )
    assert direct_sum_matrix([]) == ()
    f2f2 = direct_sum_matrix([B("F", 2), B("F", 2)])
    assert is_skew_matrix(f2f2)


def test_algebra_from_blocks_products():
    A = algebra_from_blocks([B("A", 3)])
    assert A.products() == {(1, 3): [(4, S("1"))], (3, 2): [(4, S("1"))]}
    A6 = algebra_from_blocks([B("C", 1)] * 3)
    assert A6.products() == {
        (1, 1): [(4, S("1"))],
        (2, 2): [(4, S("1"))],
        (3, 3): [(4, S("1"))],
    }
    heis = algebra_from_blocks([B("F", 2)])
    assert verify_leibniz(heis) and is_lie(heis)


def test_form_from_algebra_examples():
    A1 = algebra_from_blocks([B("A", 3)])
    form, xn = form_from_algebra(A1)
    assert form == canonical_block_matrix(B("A", 3))
    assert xn == scalar_matrix([["0", "0", "0", "1"]])[0]
    A6 = algebra_from_blocks([B("C", 1)] * 3)
    form6, _ = form_from_algebra(A6)
    assert form6 == scalar_matrix([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_form_from_algebra_round_trip_random():
    import random

    rng = random.Random(101)
    pool = [
        lambda: B("A", 1),
        lambda: B("A", 3),
        lambda: B("C", 1),
        lambda: B("C", 3),
        lambda: B("E", 2),
        lambda: B("F", 2),
        lambda: B("B", 2, str(rng.choice([0, 2, 3, -2]))),
    ]
    for _ in range(25):
        blocks = [rng.choice(pool)() for _ in range(rng.randint(1, 3))]
        if sum(b.size for b in blocks) > 6:
            continue
        N = direct_sum_matrix(blocks)
        A = algebra_from_blocks(blocks)
        form, _ = form_from_algebra(A)
        assert form == N


def test_form_preconditions():
    cyclic = algebra_from_blocks([B("C", 1)])  # [x1,x1] = x2 only: nilpotent
    assert is_nilpotent(cyclic)
    from leibniz_lab.algebra import StructureConstants

    non_nilp = StructureConstants.from_products(
        2, {(1, 1): [(2, S("1"))], (1, 2): [(2, S("1"))]}
    )
    with pytest.raises(PreconditionFailed):
        form_from_algebra(non_nilp)
    abelian = StructureConstants.from_products(2, {})
    with pytest.raises(PreconditionFailed):
        form_from_algebra(abelian)


def _near_line_algebra(rng):
    """Random algebra of dim 1-4 whose products lie mostly on one line."""
    n = rng.randint(1, 4)
    line = [rng.choice([0, 0, 1, -1, 2]) for _ in range(n)]
    if not any(line):
        line[rng.randrange(n)] = 1
    support = {k for k, c in enumerate(line) if c}
    # The line's support often brackets to zero on both sides, as x_n does
    # in a form algebra, or on one side only.
    quiet = rng.choice(["none", "left", "right", "both", "both"])
    products = {}
    for i in range(n):
        for j in range(n):
            if quiet in ("left", "both") and i in support:
                continue
            if quiet in ("right", "both") and j in support:
                continue
            r = rng.random()
            if r < 0.4:
                continue
            if r < 0.95:
                lam = rng.choice([1, -1, 2, 3])
                coeffs = [lam * c for c in line]
            else:
                coeffs = [rng.randint(-2, 2) for _ in range(n)]
            terms = [(k + 1, Scalar.rational(c)) for k, c in enumerate(coeffs) if c]
            products[(i + 1, j + 1)] = terms
    return StructureConstants.from_products(n, products)


def test_form_precondition_is_leibniz_nilpotent_dim1():
    rng = random.Random(20240)
    tally = {}
    for _ in range(600):
        A = _near_line_algebra(rng)
        case = (verify_leibniz(A), is_nilpotent(A), derived_subalgebra(A).dim == 1)
        tally[case] = tally.get(case, 0) + 1
        if all(case):
            form, xn = form_from_algebra(A)
            assert len(form) == A.dim - 1 and derived_subalgebra(A).basis[0] == xn
        else:
            with pytest.raises(PreconditionFailed):
                form_from_algebra(A)
    # accepted; not Leibniz only; not nilpotent only; dim A^2 != 1 only
    T, F = True, False
    for case in [(T, T, T), (F, T, T), (T, F, T), (T, T, F)]:
        assert tally.get(case, 0) >= 20, tally


def test_one_sided_annihilator_is_rejected():
    # [x1,x1] = x2, [x2,x1] = x2: nilpotent (A^3 = [A, A^2] = 0) with
    # dim A^2 = 1, but not Leibniz.  [A, x2] = 0 while [x2, x1] = x2, so only
    # the [x_n, A] = 0 half of the precondition rejects it.
    one = Scalar.rational(1)
    A = StructureConstants.from_products(2, {(1, 1): [(2, one)], (2, 1): [(2, one)]})
    assert is_nilpotent(A) and derived_subalgebra(A).dim == 1
    assert not verify_leibniz(A)
    with pytest.raises(PreconditionFailed):
        form_from_algebra(A)
    with pytest.raises(PreconditionFailed):
        isomorphic_dim1_nilpotent(A, A)
    with pytest.raises(PreconditionFailed):
        isomorphic_dim1_nilpotent(A, algebra_from_blocks([B("C", 3)]))


def test_has_zero_summand():
    m = direct_sum_matrix([B("F", 2), B("A", 1)])
    assert has_zero_summand(m)
    assert not has_zero_summand(canonical_block_matrix(B("A", 3)))
    assert not has_zero_summand(canonical_block_matrix(B("B", 2, "c")))  # generic c
    assert has_zero_summand(scalar_matrix([["0"]]))


def _split_reference(M):
    """The Scalar-rank split test: rank of [M; M^T] over Q(i)(params)."""
    m = len(M)
    return m > 0 and rank(tuple(M) + tuple(transpose(M))) < m


def _split_cases():
    """Seeded forms for the split test: the table forms, congruence
    transforms of block sums with and without A1, with parametric and with
    constant B, and forms built around the point the test ranks at (c = 2,
    or c1 = 2 and c2 = 3): most drop rank there, one has a denominator that
    vanishes there."""
    from leibniz_lab.classify import NILPOTENT_COUNTS, block_multisets, nilpotent_table

    rng = random.Random(5)
    forms = [
        form_from_algebra(e.algebra)[0]
        for n in sorted(NILPOTENT_COUNTS)
        for e in nilpotent_table(n)
    ]
    constants = [S(x) for x in ("2", "-3", "1/2", "0", "i", "1+i", "-2/3")]
    for m in range(1, 6):
        for ms in block_multisets(m, include_a1=True):
            M = direct_sum_matrix(ms.blocks)
            names = sorted({p for b in ms.blocks if b.parameter for p in b.parameter.parameters()})
            bound = [
                CanonicalBlock(b.kind, b.size, rng.choice(constants)) if b.kind == "B" else b
                for b in ms.blocks
            ]
            for blocks in (ms.blocks, bound) if names else (ms.blocks,):
                P = random_invertible_matrix(m, rng)
                forms.append(congruence_transform(direct_sum_matrix(blocks), P))
            forms.append(M)
    drops = [
        [[S("c - 2")]],
        [[S("c - 2"), S("0")], [S("0"), S("0")]],
        [[S("(c - 2)/(c + 5)"), S("0")], [S("0"), S("c")]],
        [[S("1/(c - 2)"), S("0")], [S("0"), S("1")]],
        [[S("c1 - 2"), S("0")], [S("0"), S("c2 - 3")]],
        [[S("c2 - 3"), S("c1 - 2")], [S("c1 - 2"), S("c2 - 3")]],
    ]
    drop_blocks = [
        [B("B", 2, "c - 2")],
        [B("B", 2, "c - 2"), B("A", 1)],
        [B("B", 2, "c"), B("C", 1)],
        [B("B", 4, "c1 - 2"), B("B", 2, "c2")],
    ]
    for blocks in drop_blocks:
        M = direct_sum_matrix(blocks)
        drops.append(M)
        drops.append(block_diag([scalar_matrix([["c - 2"]]), M]))
    for D in drops:
        D = scalar_matrix(D)
        forms.append(D)
        if len(D) <= 4:  # a dense parametric 6x6 takes the Scalar rank seconds
            for _ in range(3):
                forms.append(congruence_transform(D, random_invertible_matrix(len(D), rng)))
    return forms


def test_split_test_agrees_with_the_scalar_rank(monkeypatch):
    import leibniz_lab.blocks as blocks_module

    generic = []

    def counted(rows, inner=blocks_module.rank):
        generic.append(len(rows))
        return inner(rows)

    monkeypatch.setattr(blocks_module, "rank", counted)
    forms = _split_cases()
    assert len(forms) >= 400
    answers = [has_zero_summand(M) for M in forms]
    splits = sum(answers)
    # every split answer takes the generic rank, and so do the rank drops
    assert 0 < splits < len(generic) < len(forms)
    monkeypatch.undo()
    assert answers == [_split_reference(M) for M in forms]


def test_split_test_ignores_a_rank_drop_at_its_point():
    # c = 2 is where the test ranks first: there [[c - 2]] + B2(c) and its
    # dense congruence transform have a zero summand, and 1/(c - 2) has no value
    drop = block_diag([scalar_matrix([["c - 2"]]), canonical_block_matrix(B("B", 2, "c"))])
    dense = congruence_transform(drop, random_invertible_matrix(3, random.Random(2)))
    for M in (drop, dense):
        assert not has_zero_summand(M)
        assert has_zero_summand(tuple(tuple(x.substitute({"c": 2}) for x in row) for row in M))
    assert not has_zero_summand(scalar_matrix([["1/(c - 2)", "0"], ["0", "1"]]))
    assert has_zero_summand(block_diag([scalar_matrix([["c - 2"]]), scalar_matrix([["0"]])]))


def test_b_param_normalize():
    assert b_param_normalize(S("2")) == S("1/2")
    assert b_param_normalize(S("1/2")) == S("1/2")
    assert b_param_normalize(S("0")) == S("0")
    assert b_param_normalize(S("i")) == S("-i")
    assert b_param_normalize(S("c")) == S("c")


def test_normalize_blocks_and_names():
    blocks = (B("C", 1), B("B", 2, "3"), B("A", 3))
    normed = normalize_blocks(blocks)
    assert blocks_name(normed) == "A3 B2(1/3) C1"
    assert parse_block_name("B4(2)") == B("B", 4, "2")
    assert parse_block_name("A3") == B("A", 3)
    with pytest.raises(InvalidBlock):
        parse_block_name("G2")


def test_split_matches_explicit_ideal_decomposition():
    """Cross-check the zero-summand test against explicit ideals.

    When the form is K + [0] the algebra splits as I1 + I2 with
    I1 = span{x_1..x_k, x_n} and I2 the remaining coordinates.
    """
    from leibniz_lab.algebra import product_subspace
    from leibniz_lab.linalg import Subspace
    from leibniz_lab.scalars import SC_ONE, SC_ZERO

    cases = [
        [B("F", 2), B("A", 1)],
        [B("C", 1), B("A", 1)],
        [B("B", 2, "2"), B("A", 1), B("A", 1)],
    ]
    for blocks in cases:
        M = direct_sum_matrix(blocks)
        assert has_zero_summand(M)
        A = algebra_from_blocks(blocks)
        n = A.dim
        k = sum(b.size for b in blocks if not (b.kind == "A" and b.size == 1))

        def e(i):
            return tuple(SC_ONE if t == i else SC_ZERO for t in range(n))

        i1 = Subspace.span(n, [e(i) for i in range(k)] + [e(n - 1)])
        i2 = Subspace.span(n, [e(i) for i in range(k, n - 1)])
        full = Subspace.full(n)
        for ideal in (i1, i2):
            assert ideal.contains_subspace(product_subspace(A, ideal, full))
            assert ideal.contains_subspace(product_subspace(A, full, ideal))
        assert i1.intersect(i2).is_zero()
        assert i1.add(i2) == full
