import random

import pytest

from leibniz_lab.algebra import (
    StructureConstants,
    bracket,
    center,
    change_of_basis,
    derived_series,
    direct_sum,
    is_lie,
    is_nilpotent,
    is_solvable,
    left_center,
    leib_annihilates,
    leib_ideal,
    lower_central_series,
    product_subspace,
    quotient_bracket_is_skew,
    substitute_algebra,
    verify_leibniz,
)
from leibniz_lab.errors import SingularMatrix
from leibniz_lab.linalg import Subspace, identity, mat_mul, scalar_matrix
from leibniz_lab.scalars import SC_ONE, SC_ZERO, Scalar

S = Scalar.parse
ONE = SC_ONE


def alg(dim, prods, **kw):
    return StructureConstants.from_products(
        dim, {ij: [(k, S(c))] for ij, (k, c) in prods.items()}, **kw
    )


CYCLIC = alg(2, {(1, 1): (2, "1"), (1, 2): (2, "1")})
ABELIAN3 = StructureConstants.from_products(3, {})
ITEM1 = alg(4, {(1, 3): (4, "1"), (3, 2): (4, "1")})
ITEM3 = alg(4, {(1, 2): (4, "1"), (2, 1): (4, "-1"), (3, 3): (4, "1")})
ITEM6 = alg(4, {(1, 1): (4, "1"), (2, 2): (4, "1"), (3, 3): (4, "1")})
ITEM2 = StructureConstants.from_products(
    4,
    {
        (1, 3): [(4, S("1"))],
        (2, 2): [(4, S("1"))],
        (2, 3): [(4, S("1"))],
        (3, 1): [(4, S("1"))],
        (3, 2): [(4, S("-1"))],
    },
)
F2F2 = alg(5, {(1, 2): (5, "1"), (2, 1): (5, "-1"), (3, 4): (5, "1"), (4, 3): (5, "-1")})
FAMILY1 = alg(3, {(1, 1): (3, "1"), (1, 3): (2, "1"), (1, 2): (2, "1")}, basis=("x", "y", "z"))
FAMILY4 = alg(3, {(1, 1): (3, "1"), (1, 2): (2, "1"), (2, 1): (2, "-1")}, basis=("x", "y", "z"))


def e(n, k):
    return tuple(SC_ONE if i == k else SC_ZERO for i in range(n))


def test_bracket_cyclic_square():
    assert bracket(CYCLIC, e(2, 0), e(2, 0)) == e(2, 1)


def test_bracket_bilinearity_zero():
    z = (SC_ZERO,) * 4
    assert bracket(ITEM1, z, e(4, 2)) == z


def test_bracket_polarization_vanishes_on_item3():
    v = tuple(x + y for x, y in zip(e(4, 0), e(4, 1)))
    assert bracket(ITEM3, v, v) == (SC_ZERO,) * 4


def test_verify_leibniz():
    assert verify_leibniz(ITEM2)
    assert verify_leibniz(ABELIAN3)
    bad = alg(1, {(1, 1): (1, "1")})
    assert not verify_leibniz(bad)


def test_leib_ideal_examples():
    assert leib_ideal(ITEM6) == Subspace.span(4, [e(4, 3)])
    assert leib_ideal(F2F2).is_zero()
    # 3-dim family whose only square lands on z
    assert leib_ideal(FAMILY4) == Subspace.span(3, [e(3, 2)])


def test_lower_central_series_item1():
    chain = lower_central_series(ITEM1)
    assert chain[1] == Subspace.span(4, [e(4, 3)])
    assert chain[-1].is_zero()


def test_series_abelian():
    assert lower_central_series(ABELIAN3)[-1].is_zero()
    assert len(lower_central_series(ABELIAN3)) == 2


def test_cyclic_series_stabilizes_nonzero():
    chain = lower_central_series(CYCLIC)
    assert chain[-1] == Subspace.span(2, [e(2, 1)])
    assert not is_nilpotent(CYCLIC)
    assert is_solvable(CYCLIC)
    ds = derived_series(CYCLIC)
    assert ds[1] == Subspace.span(2, [e(2, 1)])
    assert ds[-1].is_zero()


def test_predicates():
    assert not is_lie(CYCLIC)
    assert is_lie(F2F2)
    zero = StructureConstants.from_products(2, {})
    assert is_nilpotent(zero) and is_solvable(zero) and is_lie(zero)


def test_centers():
    assert center(ITEM6).contains(e(4, 3))
    assert center(ABELIAN3) == Subspace.full(3)
    # family 1: Z(A) = span{y - z}
    zc = center(FAMILY1)
    assert zc.dim == 1
    y_minus_z = tuple(a - b for a, b in zip(e(3, 1), e(3, 2)))
    assert zc.contains(y_minus_z)


def test_left_center_contains_leib():
    for A in (ITEM1, ITEM2, ITEM6, CYCLIC, FAMILY1, FAMILY4):
        assert left_center(A).contains_subspace(leib_ideal(A))


def test_change_of_basis_identity_and_inverse():
    P = identity(4)
    assert change_of_basis(ITEM2, P) == ITEM2
    rng = random.Random(23)

    def rand_inv(n):
        L = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
        U = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                L[i][j] = Scalar.rational(rng.randint(-2, 2))
                U[j][i] = Scalar.rational(rng.randint(-2, 2))
        return mat_mul(tuple(map(tuple, L)), tuple(map(tuple, U)))

    for _ in range(5):
        P = rand_inv(4)
        A2 = change_of_basis(ITEM2, P)
        from leibniz_lab.linalg import inverse

        assert change_of_basis(A2, inverse(P)) == ITEM2


def test_change_of_basis_singular_raises():
    P = scalar_matrix([["1", "1"], ["1", "1"]])
    with pytest.raises(SingularMatrix):
        change_of_basis(CYCLIC, P)


def test_change_of_basis_reaches_cyclic_form():
    # [x1, x2] = a2*x2 becomes the cyclic algebra after the substitution
    # x1' = (1/a2) x1 + a2 x2, x2' = a2 x2
    a2 = Scalar.param("a2")
    A = StructureConstants.from_products(2, {(1, 2): [(2, a2)]})
    P = ((a2.inverse(), a2), (SC_ZERO, a2))
    assert change_of_basis(A, P) == CYCLIC


def test_change_of_basis_preserves_predicates():
    rng = random.Random(29)

    def rand_inv(n):
        L = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
        U = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                L[i][j] = Scalar.rational(rng.randint(-2, 2))
                U[j][i] = Scalar.rational(rng.randint(-2, 2))
        return mat_mul(tuple(map(tuple, L)), tuple(map(tuple, U)))

    for A in (ITEM1, ITEM3, CYCLIC, FAMILY1):
        base = (
            is_nilpotent(A),
            is_solvable(A),
            is_lie(A),
            [s.dim for s in lower_central_series(A)],
            [s.dim for s in derived_series(A)],
        )
        for _ in range(100):
            B = change_of_basis(A, rand_inv(A.dim))
            assert verify_leibniz(B)
            assert base == (
                is_nilpotent(B),
                is_solvable(B),
                is_lie(B),
                [s.dim for s in lower_central_series(B)],
                [s.dim for s in derived_series(B)],
            )


def test_direct_sum():
    z1 = StructureConstants.from_products(1, {})
    ab2 = direct_sum(z1, z1)
    assert ab2.dim == 2 and is_lie(ab2)
    s = direct_sum(CYCLIC, z1)
    assert is_solvable(s) and not is_nilpotent(s)
    # Leib of a direct sum is the sum of the Leib ideals
    d = direct_sum(ITEM1, ITEM6)
    li = leib_ideal(d)
    assert li.dim == leib_ideal(ITEM1).dim + leib_ideal(ITEM6).dim
    # both summands are ideals
    full = Subspace.full(d.dim)
    first = Subspace.span(d.dim, [e(d.dim, k) for k in range(4)])
    assert first.contains_subspace(product_subspace(d, full, first))
    assert first.contains_subspace(product_subspace(d, first, full))


def test_series_monotone_and_derived_bound():
    for A in (ITEM1, ITEM2, CYCLIC, FAMILY1, FAMILY4, F2F2):
        lcs = lower_central_series(A)
        for a, b in zip(lcs, lcs[1:]):
            assert a.contains_subspace(b)
        ds = derived_series(A)
        for a, b in zip(ds, ds[1:]):
            assert a.contains_subspace(b)
        # A^(i+1) is inside A^{2^i}; lcs[j] is A^{j+1} and stabilizes at the end
        for i, d in enumerate(ds):
            idx = min(2**i - 1, len(lcs) - 1)
            assert lcs[idx].contains_subspace(d)


def test_quotient_is_lie_and_leib_annihilates():
    for A in (ITEM1, ITEM2, ITEM3, ITEM6, CYCLIC, FAMILY1, FAMILY4):
        assert quotient_bracket_is_skew(A)
        assert leib_annihilates(A)


def test_substitute_algebra():
    c = Scalar.param("c")
    A = StructureConstants.from_products(
        4,
        {(1, 2): [(4, SC_ONE)], (2, 1): [(4, c)], (3, 3): [(4, SC_ONE)]},
    )
    B = substitute_algebra(A, {"c": 2})
    assert B.tensor[1][0][3] == Scalar.rational(2)


def test_products_round_trip():
    prods = ITEM2.products()
    again = StructureConstants.from_products(4, prods)
    assert again == ITEM2


def _leibniz_reference(A):
    """[a,[b,c]] = [[a,b],c] + [b,[a,c]] evaluated densely through bracket."""
    n = A.dim
    basis = [e(n, k) for k in range(n)]
    for a in basis:
        for b in basis:
            ab = bracket(A, a, b)
            for c in basis:
                lhs = bracket(A, a, bracket(A, b, c))
                mid = bracket(A, ab, c)
                rhs = bracket(A, b, bracket(A, a, c))
                if lhs != tuple(x + y for x, y in zip(mid, rhs)):
                    return False
    return True


def _perturb(A, rng, parametric):
    """A with one structure constant shifted by a nonzero integer or by d."""
    n = A.dim
    t = [[list(v) for v in row] for row in A.tensor]
    i, j, k = (rng.randrange(n) for _ in range(3))
    if parametric:
        shift = Scalar.param("d")
    else:
        shift = Scalar.rational(rng.choice([-2, -1, 1, 3]))
    t[i][j][k] = t[i][j][k] + shift
    return StructureConstants(n, tuple(tuple(tuple(v) for v in row) for row in t))


def test_verify_leibniz_matches_dense_reference():
    from leibniz_lab.classify import (
        dim3_solvable_table,
        nilpotent_table,
        solvable_dim1_table,
    )
    from leibniz_lab.iso import random_invertible_matrix

    rng = random.Random(7)
    table = [x.algebra for n in range(4, 9) for x in nilpotent_table(n)]
    table += [x.algebra for x in solvable_dim1_table() + dim3_solvable_table()]
    dense = []
    for n, count in ((4, 10), (5, 8), (6, 4)):
        consts = [A for A in table if A.dim == n and not A.parameters()]
        for _ in range(count):
            P = random_invertible_matrix(n, rng)
            dense.append(change_of_basis(rng.choice(consts), P))
    cases = table + dense
    cases += [_perturb(A, rng, parametric=i % 2) for i, A in enumerate(table)]
    cases += [_perturb(A, rng, parametric=p) for A in dense for p in (0, 1)]
    verdicts = [verify_leibniz(A) for A in cases]
    assert verdicts == [_leibniz_reference(A) for A in cases]
    assert len(cases) >= 400
    assert all(verdicts[: len(table) + len(dense)])
    assert verdicts.count(False) >= 150, verdicts.count(False)
