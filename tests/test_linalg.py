import random
from fractions import Fraction

import pytest

from leibniz_lab.errors import SingularMatrix
from leibniz_lab.linalg import (
    Subspace,
    det,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rank_qi,
    rref,
    scalar_matrix,
    transpose,
)
from leibniz_lab.scalars import QI, SC_ONE, SC_ZERO, Scalar


def _rand_matrix(rng, n, m, lo=-3, hi=3):
    return tuple(
        tuple(Scalar.rational(rng.randint(lo, hi)) for _ in range(m)) for _ in range(n)
    )


def _rand_invertible(rng, n):
    # unit lower * unit upper * permutation keeps the determinant +-1
    L = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    U = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            L[i][j] = Scalar.rational(rng.randint(-2, 2))
            U[j][i] = Scalar.rational(rng.randint(-2, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    P = tuple(
        tuple(SC_ONE if j == perm[i] else SC_ZERO for j in range(n)) for i in range(n)
    )
    return mat_mul(mat_mul(P, tuple(map(tuple, L))), tuple(map(tuple, U)))


def test_rref_is_idempotent_and_bounds_rank():
    rng = random.Random(3)
    for _ in range(30):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        red, piv = rref(m)
        again, piv2 = rref(red)
        assert red == again and piv == piv2
        assert len(red) <= min(len(m), len(m[0]))


def test_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _rand_invertible(rng, n)
        ai = inverse(a)
        assert mat_mul(a, ai) == identity(n)
        assert mat_mul(ai, a) == identity(n)


def test_singular_matrix_raises():
    m = scalar_matrix([["1", "2"], ["2", "4"]])
    with pytest.raises(SingularMatrix):
        inverse(m)


def test_nullspace_annihilates():
    rng = random.Random(11)
    for _ in range(25):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ns = nullspace(m)
        for v in ns:
            assert not any(mat_vec(m, v))
        assert rank(m) + len(ns) == len(m[0])


def test_det_multiplicative_and_unimodular():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = _rand_invertible(rng, n)
        b = _rand_invertible(rng, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)
        assert det(a).as_qi().re in (Fraction(1), Fraction(-1))


def test_det_with_parameters():
    m = scalar_matrix([["0", "1"], ["c", "0"]])
    assert det(m) == Scalar.parse("-c")


def test_subspace_equality_is_canonical():
    v1 = scalar_matrix([["1", "2", "0"]])[0]
    v2 = scalar_matrix([["2", "4", "0"]])[0]
    a = Subspace.span(3, [v1])
    b = Subspace.span(3, [v2])
    assert a == b
    assert a.contains(v2)


def test_subspace_intersection_against_membership_oracle():
    rng = random.Random(17)
    for _ in range(20):
        n = 4
        u = Subspace.span(n, _rand_matrix(rng, 2, n))
        w = Subspace.span(n, _rand_matrix(rng, 2, n))
        both = u.intersect(w)
        for v in both.basis:
            assert u.contains(v) and w.contains(v)
        # oracle: dim(U) + dim(W) = dim(U+W) + dim(U cap W)
        assert u.dim + w.dim == u.add(w).dim + both.dim


def test_subspace_sum_and_containment():
    e1 = scalar_matrix([["1", "0", "0"]])[0]
    e2 = scalar_matrix([["0", "1", "0"]])[0]
    s = Subspace.span(3, [e1]).add(Subspace.span(3, [e2]))
    assert s.dim == 2
    assert s.contains_subspace(Subspace.span(3, [e1]))
    assert not Subspace.span(3, [e1]).contains_subspace(s)


def test_transpose_and_matvec():
    m = scalar_matrix([["1", "2"], ["3", "4"], ["5", "6"]])
    assert transpose(transpose(m)) == m
    v = scalar_matrix([["1", "-1"]])[0]
    assert mat_vec(m, v) == scalar_matrix([["-1", "-1", "-1"]])[0]


def test_rank_qi_agrees_with_the_scalar_rank():
    """Seeded Q(i) matrices of low rank: products of a tall and a wide
    factor, with real, rational and Gaussian entries."""
    rng = random.Random(8)
    parts = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    seen_im = False
    for trial in range(120):
        n, m, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)

        def entry():
            im = rng.choice(parts) if trial % 3 == 0 else 0
            return Scalar.const(QI(rng.choice(parts), im))

        if r == 0:
            M = tuple(tuple(SC_ZERO for _ in range(m)) for _ in range(n))
        else:
            left = tuple(tuple(entry() for _ in range(r)) for _ in range(n))
            right = tuple(tuple(entry() for _ in range(m)) for _ in range(r))
            M = mat_mul(left, right)
        values = [[x.as_qi() for x in row] for row in M]
        seen_im = seen_im or any(x.im for row in values for x in row)
        assert rank_qi(values) == rank(M)
    assert seen_im
    # rank 1 over Q(i), though its real and imaginary parts have rank 2
    assert rank_qi([[QI(1), QI(0, 1)], [QI(0, 1), QI(-1)]]) == 1
    assert rank_qi([]) == 0

