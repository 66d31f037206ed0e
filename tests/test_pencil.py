import random
import traceback
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from leibniz_lab.blocks import (
    CanonicalBlock,
    canonical_block_matrix,
    direct_sum_matrix,
)
from leibniz_lab.errors import DictionaryMiss, ParameterNotSupported
from leibniz_lab.linalg import block_diag, mat_mul, scalar_matrix, transpose
from leibniz_lab.pencil import (
    PencilInvariants,
    block_invariants,
    canonical_decomposition,
    congruence_transform,
    decomposition_from_invariants,
    is_congruent,
    pencil_invariants,
)
from leibniz_lab.scalars import QI, SC_ONE, SC_ZERO, Scalar

S = Scalar.parse


def B(kind, size, param=None):
    return CanonicalBlock(kind, size, S(param) if param else None)


def _rand_unimodular(rng, n):
    L = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    Um = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            L[i][j] = Scalar.rational(rng.randint(-2, 2))
            Um[j][i] = Scalar.rational(rng.randint(-2, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    P = tuple(
        tuple(SC_ONE if j == perm[i] else SC_ZERO for j in range(n)) for i in range(n)
    )
    return mat_mul(mat_mul(P, tuple(map(tuple, L))), tuple(map(tuple, Um)))


# --- an independent reference: invariant factors from gcds of minors --------


def _to_sympy(x):
    q = x.as_qi()
    return sympy.Rational(q.re.numerator, q.re.denominator) + sympy.I * sympy.Rational(
        q.im.numerator, q.im.denominator
    )


def _from_sympy(c):
    re_, im_ = (sympy.Rational(v) for v in sympy.sympify(c).as_real_imag())
    return str(
        Scalar.const(QI(Fraction(int(re_.p), int(re_.q)), Fraction(int(im_.p), int(im_.q))))
    )


def _smith_oracle(P, t):
    """Invariant factors of a polynomial matrix over Q(i): quotients of the
    gcds of its k x k minors, computed with sympy."""
    n = P.rows
    gcds = [sympy.Poly(1, t, domain="QQ_I")]
    for k in range(1, n + 1):
        g = None
        for rs in combinations(range(n), k):
            for cs in combinations(range(n), k):
                d = sympy.Poly(P.extract(list(rs), list(cs)).det(), t, domain="QQ_I")
                if not d.is_zero:
                    g = d if g is None else g.gcd(d)
        if g is None:
            break
        gcds.append(g.monic())
    return [gcds[k].quo(gcds[k - 1]) for k in range(1, len(gcds))]


def _reference_invariants(M, minimal_indices=()):
    """Kronecker invariants of t*M + u*M^T for a constant matrix M whose
    minimal indices (those of its A blocks) are known: finite divisors from
    the invariant factors factored over Q(i), infinite ones from the powers
    of t in the invariant factors of the reversed pencil M + t*M^T."""
    t = sympy.Symbol("t")
    A = sympy.Matrix([[_to_sympy(x) for x in row] for row in M])
    finite = []
    for f in _smith_oracle(t * A + A.T, t):
        if f.degree() < 1:
            continue
        for g, e in sympy.factor_list(f.as_expr(), t, gaussian=True)[1]:
            g = sympy.Poly(g, t, domain="QQ_I").monic()
            key = tuple(_from_sympy(c) for c in reversed(g.all_coeffs()))
            finite.append((key, int(e)))
    infinite = []
    for f in _smith_oracle(A + t * A.T, t):
        coeffs = list(reversed(f.all_coeffs()))
        e = next(k for k, c in enumerate(coeffs) if c != 0)
        if e:
            infinite.append(e)
    idx = tuple(sorted(minimal_indices))
    return PencilInvariants(
        len(M), A.rank(), idx, idx, tuple(sorted(finite)), tuple(sorted(infinite))
    )


def _scalar_instance(M):
    """Invariants by the engine's Scalar instance, which parametric matrices get."""
    from leibniz_lab.pencil import _ScalarPencil, _kronecker

    return _kronecker(_ScalarPencil(M))


# Regular pencils whose divisors do not split over Q(i): (t^2 + t + 1)^1 twice,
# and (t^2 - t + 1)^2.
NON_SPLIT = [
    block_diag([scalar_matrix([["1", "1"], ["0", "1"]])] * 2),
    scalar_matrix(
        [["0", "0", "-1", "0"], ["0", "-1", "-1", "0"], ["1", "0", "0", "-1"], ["-1", "1", "0", "0"]]
    ),
]


# --- pencil invariants: small cases checked by hand -------------------------


def test_zero_1x1():
    inv = pencil_invariants(scalar_matrix([["0"]]))
    assert inv.rank == 0
    assert inv.left_indices == (0,) and inv.right_indices == (0,)
    assert inv.finite_divisors == () and inv.infinite_divisors == ()


def test_identity_1x1():
    inv = pencil_invariants(scalar_matrix([["1"]]))
    # single divisor t + 1, no minimal indices
    assert inv.left_indices == () and inv.right_indices == ()
    assert inv.finite_divisors == ((("1", "1"), 1),)
    assert inv.infinite_divisors == ()


def test_a3_minimal_indices():
    inv = pencil_invariants(canonical_block_matrix(B("A", 3)))
    assert inv.left_indices == (1,) and inv.right_indices == (1,)
    assert inv.finite_divisors == ()
    assert inv.infinite_divisors == ()


def test_c3_divisor_is_cubed():
    # hand computation: det(t*C3 + C3^T) = -(t+1)^3, d2 = 1
    inv = pencil_invariants(canonical_block_matrix(B("C", 3)))
    assert inv.finite_divisors == ((("1", "1"), 3),)


def test_e2_f2_divisors_differ():
    e2 = pencil_invariants(canonical_block_matrix(B("E", 2)))
    f2 = pencil_invariants(canonical_block_matrix(B("F", 2)))
    assert e2.finite_divisors == ((("-1", "1"), 2),)
    assert f2.finite_divisors == ((("-1", "1"), 1), (("-1", "1"), 1))
    assert e2 != f2


def test_b2_roots():
    inv = pencil_invariants(canonical_block_matrix(B("B", 2, "2")))
    assert inv.finite_divisors == ((("1/2", "1"), 1), (("2", "1"), 1))
    inv0 = pencil_invariants(canonical_block_matrix(B("B", 2, "0")))
    assert inv0.finite_divisors == ((("0", "1"), 1),)
    assert inv0.infinite_divisors == (1,)


def test_parameter_not_supported():
    # generic invariants exist, but a decomposition or a congruence verdict
    # would not hold for every value of c
    M = canonical_block_matrix(B("B", 2, "c"))
    with pytest.raises(ParameterNotSupported):
        canonical_decomposition(M)
    with pytest.raises(ParameterNotSupported):
        is_congruent(M, M)
    with pytest.raises(ParameterNotSupported):
        is_congruent(canonical_block_matrix(B("B", 2, "2")), M)


def test_generic_mode_on_parametric_b2():
    # a parameter may share its name with the pencil variable t
    for c in ("c", "t"):
        inv = pencil_invariants(canonical_block_matrix(B("B", 2, c)))
        assert inv.finite_divisors == (((f"1/{c}", "1"), 1), ((c, "1"), 1))


def test_two_parameter_entry_divisors():
    from leibniz_lab.classify import nilpotent_table
    from leibniz_lab.iso import iso_invariants

    entry = nilpotent_table(6)[18]
    assert entry.label == "nilpotent-dim6-item19"
    inv = iso_invariants(entry.algebra).pencil
    assert sorted(inv.finite_divisors) == sorted(
        ((c, "1"), 1) for c in ("1", "c1", "1/c1", "c2", "1/c2")
    )
    assert inv.infinite_divisors == () and inv.right_indices == ()


def test_block_dictionary_consistency():
    blocks = [B("A", 1), B("A", 3), B("A", 5), B("C", 1), B("C", 3), B("C", 5),
              B("E", 2), B("E", 4), B("E", 6), B("F", 2), B("F", 6), B("D", 4),
              B("B", 2, "2"), B("B", 4, "3"), B("B", 6, "-2"), B("B", 2, "i"),
              B("B", 2, "0"), B("B", 4, "0")]
    for b in blocks:
        inv = block_invariants(b)
        assert inv.check_consistency()
        assert inv.size == b.size
    # all pairwise distinct
    invs = [block_invariants(b) for b in blocks]
    assert len(set(invs)) == len(invs)


def _gaussian_diagonal(n):
    """diag(1/2, 1+i, 2-i, 1/2, ...): a transform with rational and Gaussian entries."""
    values = [S("1/2"), S("1+i"), S("2-i")]
    return tuple(
        tuple(values[i % 3] if i == j else SC_ZERO for j in range(n)) for i in range(n)
    )


def test_paths_agree_on_random_congruences():
    """The integer instance, the Scalar instance and the reference agree."""
    rng = random.Random(77)
    # (blocks, whether S is also scaled by the Gaussian diagonal)
    cases = [
        ([B("C", 3)], False),
        ([B("E", 2), B("C", 1)], False),
        ([B("B", 2, "2"), B("F", 2)], False),
        ([B("D", 4)], False),
        ([B("B", 2, "0"), B("C", 1)], False),
        ([B("E", 4)], False),
        ([B("B", 2, "-3/2"), B("A", 1)], False),
        ([B("B", 2, "-3/2"), B("E", 2)], False),
        ([B("B", 2, "1/2+i"), B("C", 1)], False),
        ([B("B", 2, "1/2+i"), B("A", 1)], True),
        ([B("B", 2, "-3/2"), B("C", 1)], True),
        ([B("A", 3), B("C", 1)], True),
        ([B("C", 3)], True),
        ([B("E", 2), B("A", 1)], True),
    ]
    for blocks, gaussian in cases:
        M0 = direct_sum_matrix(blocks)
        Smat = _rand_unimodular(rng, len(M0))
        if gaussian:
            Smat = mat_mul(Smat, _gaussian_diagonal(len(M0)))
        M = congruence_transform(M0, Smat)
        got = pencil_invariants(M)
        indices = [(b.size - 1) // 2 for b in blocks if b.kind == "A"]
        assert got == _reference_invariants(M, indices), blocks
        assert _scalar_instance(M) == got, blocks


def test_non_split_divisors():
    """Divisors irreducible over Q(i) are found at the companion matrix of
    their factor, and no canonical block carries them."""
    rng = random.Random(5)
    for M0 in NON_SPLIT:
        want = _reference_invariants(M0)
        assert any(len(cs) > 2 for cs, _ in want.finite_divisors)
        for _ in range(5):
            M = congruence_transform(M0, _rand_unimodular(rng, len(M0)))
            assert pencil_invariants(M) == want
            assert _scalar_instance(M) == want
            with pytest.raises(DictionaryMiss):
                canonical_decomposition(M)


def test_constant_pencils_stay_off_the_smith_form():
    """Singular pencils with rational or Gaussian entries.  The polynomial
    Smith form, which this module no longer has, ran for minutes on the
    first of these inputs."""
    from leibniz_lab.blocks import normalize_blocks
    from leibniz_lab.iso import random_invertible_matrix

    cases = [
        (
            [B("C", 3), B("B", 2, "-3/2"), B("A", 1), B("C", 1)],
            random_invertible_matrix(7, random.Random(1)),
        ),
        (
            [B("B", 4, "1/2+i"), B("C", 3), B("A", 1)],
            mat_mul(
                random_invertible_matrix(8, random.Random(2)), _gaussian_diagonal(8)
            ),
        ),
    ]
    for blocks, Smat in cases:
        M = congruence_transform(direct_sum_matrix(blocks), Smat)
        assert canonical_decomposition(M) == normalize_blocks(blocks)


# --- congruence -------------------------------------------------------------


def test_congruence_invariance_random():
    rng = random.Random(9)
    for blocks in ([B("C", 3)], [B("E", 2), B("B", 2, "3")], [B("A", 3), B("C", 1)]):
        M = direct_sum_matrix(blocks)
        for _ in range(5):
            Smat = _rand_unimodular(rng, len(M))
            assert is_congruent(congruence_transform(M, Smat), M)


def test_b2_reciprocal_congruent():
    assert is_congruent(
        canonical_block_matrix(B("B", 2, "2")),
        canonical_block_matrix(B("B", 2, "1/2")),
    )


def test_e2_not_congruent_to_f2():
    assert not is_congruent(
        canonical_block_matrix(B("E", 2)), canonical_block_matrix(B("F", 2))
    )


def test_different_sizes_not_congruent():
    assert not is_congruent(
        canonical_block_matrix(B("C", 1)), canonical_block_matrix(B("C", 3))
    )


def test_symmetric_rank_is_invariant():
    rng = random.Random(31)
    M = direct_sum_matrix([B("E", 2), B("C", 1)])
    n = len(M)

    def sym_ranks(X):
        from leibniz_lab.linalg import mat_add, mat_sub, rank

        Xt = transpose(X)
        return (rank(X), rank(mat_add(X, Xt)), rank(mat_sub(X, Xt)))

    base = sym_ranks(M)
    for _ in range(10):
        Smat = _rand_unimodular(rng, n)
        assert sym_ranks(congruence_transform(M, Smat)) == base


# --- canonical decomposition -------------------------------------------------


def test_decomposition_fixes_blocks():
    for b in [B("A", 1), B("A", 3), B("C", 1), B("C", 3), B("E", 2), B("E", 4),
              B("F", 2), B("D", 4), B("B", 2, "3"), B("B", 2, "0")]:
        dec = canonical_decomposition(canonical_block_matrix(b))
        want_param = b.parameter
        if b.kind == "B":
            from leibniz_lab.blocks import b_param_normalize

            want_param = b_param_normalize(b.parameter)
        assert dec == (CanonicalBlock(b.kind, b.size, want_param),)


def test_decomposition_of_c3_proof_matrix():
    m = scalar_matrix([["0", "0", "1"], ["0", "1", "1"], ["1", "-1", "0"]])
    assert canonical_decomposition(m) == (B("C", 3),)


def test_decomposition_zero_matrices():
    assert canonical_decomposition(scalar_matrix([["0"]])) == (B("A", 1),)
    z3 = scalar_matrix([["0"] * 3] * 3)
    assert canonical_decomposition(z3) == (B("A", 1),) * 3


def test_decomposition_invariant_under_congruence():
    rng = random.Random(55)
    base = [B("A", 3), B("C", 1)]
    M = direct_sum_matrix(base)
    want = canonical_decomposition(M)
    for _ in range(10):
        Smat = _rand_unimodular(rng, len(M))
        assert canonical_decomposition(congruence_transform(M, Smat)) == want


def test_dictionary_miss_on_unreachable_input():
    # pencil of [[1,1],[0,1]] has divisor t^2 + t + 1, irreducible over Q(i)
    m = scalar_matrix([["1", "1"], ["0", "1"]])
    depths = []
    for _ in range(2):
        with pytest.raises(DictionaryMiss) as info:
            canonical_decomposition(m)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    # a cached answer is raised afresh, not re-raised with a longer traceback
    assert depths[1] == depths[0]


def test_decomposition_reads_blocks_off_the_invariants():
    """The blocks come from the invariants, not from trying candidates: the
    engine runs once on each distinct block of the answer, to re-check it."""
    from leibniz_lab import pencil

    rng = random.Random(13)
    for blocks in ([B("C", 7), B("C", 1)], [B("D", 8), B("E", 2)], [B("E", 8), B("C", 3)]):
        pencil.block_invariants.cache_clear()
        pencil._decompose_cached.cache_clear()
        M = direct_sum_matrix(blocks)
        Smat = _rand_unimodular(rng, len(M))
        dec = canonical_decomposition(congruence_transform(M, Smat))
        assert sorted(dec, key=str) == sorted(blocks, key=str)
        assert pencil.block_invariants.cache_info().misses == len(set(dec))


def _lone(size, rank, finite=(), infinite=()):
    return PencilInvariants(size, rank, (), (), finite, infinite)


@pytest.mark.parametrize(
    "inv",
    [
        _lone(1, 1, finite=((("3", "1"), 1),)),  # t + 3 without t + 1/3
        _lone(2, 2, finite=((("1", "1"), 2),)),  # (t + 1)^2 without its pair
        _lone(1, 1, finite=((("-1", "1"), 1),)),  # t - 1 without its pair
        _lone(1, 0, infinite=(1,)),  # infinite divisor without the root 0
        _lone(2, 2, finite=((("1", "1", "1"), 1),)),  # t^2 + t + 1
    ],
)
def test_invariants_without_a_block_sum_miss(inv):
    assert inv.check_consistency()
    with pytest.raises(DictionaryMiss, match="no canonical block multiset"):
        decomposition_from_invariants(inv)


def test_has_zero_summand_iff_a1_in_decomposition():
    from leibniz_lab.blocks import has_zero_summand

    cases = [
        [B("A", 1), B("C", 1)],
        [B("F", 2)],
        [B("A", 3)],
        [B("E", 2), B("A", 1)],
        [B("B", 2, "2")],
    ]
    rng = random.Random(4)
    for blocks in cases:
        M = congruence_transform(
            direct_sum_matrix(blocks), _rand_unimodular(rng, sum(b.size for b in blocks))
        )
        dec = canonical_decomposition(M)
        assert has_zero_summand(M) == (B("A", 1) in dec)


# --- completeness on all block multisets of total size <= 7 -----------------


def test_invariants_separate_all_multisets_up_to_7():
    """Distinct normalized multisets (B at 2, 3, 5) have distinct invariants."""
    from leibniz_lab.blocks import normalize_blocks
    from leibniz_lab.classify import block_multisets
    from leibniz_lab.pencil import block_invariants
    from leibniz_lab.scalars import QI

    seen = {}
    values = (QI(2), QI(3), QI(5))
    count = 0
    for total in range(1, 8):
        for ms in block_multisets(total, include_a1=True):
            b_seen = 0
            blocks = []
            for b in ms.blocks:
                if b.kind == "B":
                    blocks.append(
                        CanonicalBlock("B", b.size, Scalar.const(values[b_seen]))
                    )
                    b_seen += 1
                else:
                    blocks.append(b)
            inv = pencil_invariants(direct_sum_matrix(blocks))
            key = normalize_blocks(blocks)
            assert decomposition_from_invariants(inv) == key
            if inv in seen:
                assert seen[inv] == key, (
                    f"invariant collision: {seen[inv]} vs {key}"
                )
            seen[inv] = key
            count += 1
    assert count == 367 and len(seen) == 367


def test_decomposition_invariance_spot_checks_size_7():
    rng = random.Random(202)
    cases = [
        [B("A", 5), B("B", 2, "2")],
        [B("C", 3), B("E", 2), B("F", 2)],
        [B("A", 7)],
        [B("C", 7)],
        [B("E", 4), B("A", 3)],
    ]
    for blocks in cases:
        M = direct_sum_matrix(blocks)
        want = canonical_decomposition(M)
        for _ in range(20):
            Smat = _rand_unimodular(rng, len(M))
            assert canonical_decomposition(congruence_transform(M, Smat)) == want


def test_generic_mode_singular_parametric():
    c = Scalar.param("c")
    M = direct_sum_matrix([B("A", 3), CanonicalBlock("B", 2, c)])
    inv = pencil_invariants(M)
    assert inv.left_indices == (1,) and inv.right_indices == (1,)
    assert inv.finite_divisors == ((("1/c", "1"), 1), (("c", "1"), 1))
    assert inv.infinite_divisors == ()
    assert inv.rank == 4


def test_congruence_invariance_fractional_transforms():
    """Transforms with non-unit determinant and fractional entries."""
    rng = random.Random(321)
    half = Scalar.rational(1, 2)
    for blocks in ([B("E", 2), B("C", 1)], [B("A", 3)], [B("B", 2, "2")]):
        M = direct_sum_matrix(blocks)
        n = len(M)
        want = canonical_decomposition(M)
        for _ in range(5):
            Smat = [
                [Scalar.rational(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
            Smat[0][0] = Smat[0][0] + half  # force a fractional entry
            from leibniz_lab.linalg import det

            if not det(Smat):
                continue
            X = congruence_transform(M, tuple(map(tuple, Smat)))
            assert canonical_decomposition(X) == want
            assert is_congruent(X, M)


# --- factoring the divisor multiple over Z ------------------------------------


def _int_coeffs(expr, t):
    """Integer coefficients, low to high, of a polynomial with rational ones
    times the least positive integer that clears its denominators."""
    _, p = sympy.Poly(expr, t, domain="QQ").clear_denoms()
    return tuple(int(c) for c in reversed(p.all_coeffs()))


def _reference_factors(coeffs):
    """Factors over Q(i) of an integer polynomial, as _reference_invariants
    finds them: sympy's factor_list with gaussian=True, made monic."""
    t = sympy.Symbol("t")
    expr = sum(c * t**k for k, c in enumerate(coeffs))
    out = []
    for g, e in sympy.factor_list(expr, t, gaussian=True)[1]:
        g = sympy.Poly(g, t, domain="QQ_I").monic()
        out.append((tuple(_from_sympy(c) for c in reversed(g.all_coeffs())), int(e)))
    return sorted(out)


def _integer_route(coeffs):
    from leibniz_lab.pencil import _factor_int

    return sorted((tuple(str(c) for c in cs), e) for cs, e in _factor_int(coeffs))


def test_integer_factoring_matches_gaussian_reference():
    t = sympy.Symbol("t")
    cases = [
        2 * t + 3,
        t**2 + 1,
        4 * t**2 + 4 * t + 5,  # (t + 1/2 - i)(t + 1/2 + i)
        t**2 - 2,
        t**2 + 2,  # discriminant -8: irreducible over Q(i)
        (t**2 + 1) ** 3 * (t - 1) ** 2,
        t**4 + 1,  # (t^2 - i)(t^2 + i)
    ]
    for expr in cases:
        coeffs = _int_coeffs(expr, t)
        assert _integer_route(coeffs) == _reference_factors(coeffs), expr


def test_integer_factoring_of_gaussian_linear_products():
    """Seeded products of linear factors t - r, r = p/q + (s/u) i, with
    their conjugates: what the divisor multiple of a Gaussian pencil holds."""
    t = sympy.Symbol("t")
    rng = random.Random(2024)
    for _ in range(40):
        expr = sympy.Integer(1)
        for _ in range(rng.randint(1, 3)):
            re_ = sympy.Rational(rng.randint(-6, 6), rng.randint(1, 4))
            im_ = sympy.Rational(rng.randint(-6, 6), rng.randint(1, 4))
            expr *= ((t - re_) ** 2 + im_**2) ** rng.randint(1, 2)
        coeffs = _int_coeffs(expr, t)
        assert _integer_route(coeffs) == _reference_factors(coeffs), expr


def test_gaussian_decompositions_factor_once_over_z(monkeypatch):
    """Each new divisor multiple of a Gaussian input costs at most one
    sympy.factor_list call, and none over Q(i)."""
    from leibniz_lab import pencil
    from leibniz_lab.blocks import normalize_blocks
    from leibniz_lab.iso import random_invertible_matrix

    for cache in (
        pencil._invariants_gaussian,
        pencil._factor_int,
        pencil.block_invariants,
        pencil._decompose_cached,
    ):
        cache.cache_clear()
    calls = []
    factor_list = sympy.factor_list

    def counted(*args, **kwargs):
        calls.append(kwargs.get("gaussian", False))
        return factor_list(*args, **kwargs)

    multiples = set()
    divisor_multiple = pencil._GaussianPencil.divisor_multiple

    def recorded(self, prank):
        g = divisor_multiple(self, prank)
        if len(g) > 1:
            multiples.add(g)
        return g

    monkeypatch.setattr(sympy, "factor_list", counted)
    monkeypatch.setattr(pencil._GaussianPencil, "divisor_multiple", recorded)
    cases = [
        [B("B", 4, "1/2+i"), B("C", 3), B("A", 1)],
        [B("B", 2, "2-3*i"), B("E", 2)],
        [B("B", 2, "i"), B("F", 2), B("A", 1)],
    ]
    for seed, blocks in enumerate(cases):
        n = sum(b.size for b in blocks)
        Smat = mat_mul(
            random_invertible_matrix(n, random.Random(seed)), _gaussian_diagonal(n)
        )
        M = congruence_transform(direct_sum_matrix(blocks), Smat)
        assert canonical_decomposition(M) == normalize_blocks(blocks)
    assert multiples and len(calls) <= len(multiples)
    assert not any(calls)


# --- staircase chains against the full block matrices ------------------------


def _grid_matrix(grid, n):
    """The Scalar block matrix of a grid of n x n blocks (None: zero)."""
    rows = []
    for brow in grid:
        for i in range(n):
            rows.append(
                [x for blk in brow for x in ([SC_ZERO] * n if blk is None else blk[i])]
            )
    return rows


def _kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def _expansion_nullity(M, d):
    """n(d+1) - rank of the matrix whose null space holds the degree-d
    polynomial null vectors of t*M + M^T."""
    from leibniz_lab.linalg import rank

    n, Mt = len(M), transpose(M)
    grid = [
        [Mt if c == r else M if c == r - 1 else None for c in range(d + 1)]
        for r in range(d + 2)
    ]
    return n * (d + 1) - rank(_grid_matrix(grid, n))


def _jet_nullity(M, p, j):
    """Nullity over Q(i)[t]/(p) of the order-j jet matrix of t*M + M^T at a
    root of the monic irreducible p (p = None: at infinity), from the full
    matrix over Q(i): value C (x) M + I (x) M^T and slope I (x) M, C the
    companion matrix of p."""
    from leibniz_lab.linalg import identity, rank

    if p is None:
        value, slope, d = M, transpose(M), 1
    else:
        d = len(p) - 1
        C = [
            [-p[k] if l == d - 1 else SC_ONE if k == l + 1 else SC_ZERO for l in range(d)]
            for k in range(d)
        ]
        Id = identity(d)
        value = [
            [x + y for x, y in zip(r, s)]
            for r, s in zip(_kron(C, M), _kron(Id, transpose(M)))
        ]
        slope = _kron(Id, M)
    m = len(value)
    grid = [
        [value if c == r else slope if c == r + 1 else None for c in range(j)]
        for r in range(j)
    ]
    return (j * m - rank(_grid_matrix(grid, m))) // d


def _chain_nullities(pen, value, slope, start, fold, orders):
    """The first nullities of a chain, over the field of its point."""
    from leibniz_lab.pencil import _nullities

    (value, slope), w = pen.realify(value, slope)
    chain = _nullities(pen, value, slope, slope if start else [])
    return [next(chain) // (w * fold) for _ in range(orders)]


def _check_chains(pens, M, orders=3):
    """The chains of every pencil kind in pens against one reference."""
    from leibniz_lab.pencil import _point

    n, Mt = len(M), transpose(M)
    want = {}
    for pen in pens:
        for key, (value, slope, Mx) in enumerate(((pen.M, pen.Mt, M), (pen.Mt, pen.M, Mt))):
            if key not in want:
                want[key] = [n + _expansion_nullity(Mx, d) for d in range(orders + 1)]
            # the chain's left nullity is n more than the expansion's right one
            assert _chain_nullities(pen, value, slope, True, 1, orders + 1) == want[key]
        if None not in want:
            want[None] = [_jet_nullity(M, None, j) for j in range(1, orders + 1)]
        assert _chain_nullities(pen, pen.M, pen.Mt, False, 1, orders) == want[None]
        prank = max(pen.rank_at(k) for k in range(n + 1))
        multiple = pen.divisor_multiple(prank) if prank else ()
        for p, _ in pen.factor(multiple) if len(multiple) > 1 else ():
            d = len(p) - 1
            # the reference ranks j*d*n columns over Q(i): keep them few
            jets = max(1, min(orders, 24 // (d * n)))
            if p not in want:
                want[p] = [_jet_nullity(M, p, j) for j in range(1, jets + 1)]
            got = _chain_nullities(pen, *_point(pen, p), False, d, jets)
            assert got == want[p], p


def _seeded_constant_matrices():
    rng = random.Random(10)
    entries = {
        "integer": ["0", "0", "1", "-1", "2"],
        "rational": ["0", "0", "1/2", "-1", "3/2"],
        "gaussian": ["0", "0", "1", "i", "1-i", "1/2+i"],
    }
    out = []
    for k in range(24):
        values = entries[("integer", "rational", "gaussian")[k % 3]]
        n = 1 + k % 4
        M = [[S(rng.choice(values)) for _ in range(n)] for _ in range(n)]
        if k % 2:  # a zero last row and column: a singular pencil
            M[-1] = [SC_ZERO] * n
            for row in M:
                row[-1] = SC_ZERO
        out.append(tuple(map(tuple, M)))
    for blocks in (
        [B("A", 3), B("C", 1)],
        [B("A", 5), B("A", 1)],
        [B("A", 3), B("B", 2, "1/2+i")],
        [B("E", 4), B("A", 1)],
        [B("C", 3), B("A", 3)],
        [B("B", 2, "1/2+i"), B("A", 3), B("C", 1)],
    ):
        M0 = direct_sum_matrix(blocks)
        Smat = _rand_unimodular(rng, len(M0))
        out.append(congruence_transform(M0, mat_mul(Smat, _gaussian_diagonal(len(M0)))))
    out.extend(congruence_transform(M0, _rand_unimodular(rng, len(M0))) for M0 in NON_SPLIT)
    return out


def test_chain_nullities_match_full_ranks():
    """Every order of the expansion and jet chains has the nullity of the
    full block matrix it stands for, on both pencil kinds: constant
    matrices of size 1-6 (Gaussian entries and divisors that do not split
    over Q(i) among them) and the parametric B2(c) and A3 + B2(c)."""
    from leibniz_lab.pencil import _GaussianPencil, _ScalarPencil, _gaussian_int_matrix

    mats = _seeded_constant_matrices()
    assert any(any(x.as_qi().im for row in M for x in row) for M in mats)
    assert any(len(cs) > 2 for M in mats for cs, _ in pencil_invariants(M).finite_divisors)
    assert any(pencil_invariants(M).left_indices for M in mats)
    for M in mats:
        _check_chains([_GaussianPencil(_gaussian_int_matrix(M)), _ScalarPencil(M)], M)
    c = Scalar.param("c")
    for blocks in ([CanonicalBlock("B", 2, c)], [B("A", 3), CanonicalBlock("B", 2, c)]):
        M = direct_sum_matrix(blocks)
        _check_chains([_ScalarPencil(M)], M)


def test_ranked_matrices_stay_two_blocks_wide(monkeypatch):
    """No rank in a decomposition is taken of a matrix wider than two
    N x N blocks, N the realified size: each order of a chain adds one
    small step, not a wider block matrix."""
    from leibniz_lab import pencil
    from leibniz_lab.blocks import normalize_blocks

    widths = []
    rank_int = pencil._rank_int

    def recorded(m):
        widths.append(len(m[0]) if m else 0)
        return rank_int(m)

    monkeypatch.setattr(pencil, "_rank_int", recorded)
    for blocks in ([B("B", 6, "2"), B("A", 5)], [B("C", 5), B("A", 3)]):
        for cache in (pencil._invariants_gaussian, pencil.block_invariants, pencil._decompose_cached):
            cache.cache_clear()
        widths.clear()
        M0 = direct_sum_matrix(blocks)
        M = congruence_transform(M0, _rand_unimodular(random.Random(3), len(M0)))
        assert canonical_decomposition(M) == normalize_blocks(blocks)
        assert widths and max(widths) <= 2 * len(M), blocks  # real: N = n
