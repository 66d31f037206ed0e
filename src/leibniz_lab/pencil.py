"""Congruence engine: Kronecker invariants of the pencil t*M + u*M^T.

Two square matrices over an algebraically closed field of characteristic 0
are congruent exactly when their pencils t*M + u*M^T are strictly
equivalent, so the pencil's Kronecker data (minimal indices, finite and
infinite elementary divisors) fingerprints the congruence class.  Everything
here is computed exactly, by one engine: minimal indices from the nullities
of expansion matrices, a multiple of the product of the finite elementary
divisors from maximal minors, its irreducible factors over the base field,
and the exponents of each factor p from the nullities of jet matrices at a
root of p.  That root is the companion matrix C of p: the pencil's value
there is C (x) M + I (x) M^T, and a nullity over the field K[t]/(p) is the
nullity of the expanded matrix over K divided by deg p.

Expansion and jet matrices grow by one block column per order, so their
nullities are read off one chain (_nullities), in the manner of Van Dooren's
staircase: each order ranks the last blocks of the previous left null
vectors times the slope, stacked on the value, a matrix N columns wide
whatever the order, instead of the whole block matrix.

The engine runs on two kinds of matrix.  A constant matrix is scaled to a
Gaussian integer matrix and ranked fraction-free by the integer kernel of
linalg, a rank over K = Q(i) being half the integer rank of the
realification [[Re, -Im], [Im, Re]].  A matrix
with free parameters is ranked by Scalar row reduction over K = Q(i)(params),
so its invariants are those of generic parameter values.  sympy supplies
exact factorization: of an integer divisor multiple over Z for a constant
matrix, of a Scalar one over Q(i)(params) for a parametric matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm
from operator import floordiv, truediv

from .blocks import (
    CanonicalBlock,
    canonical_block_matrix,
    kinds_for_size,
    normalize_blocks,
)
from .errors import DictionaryMiss, DimensionMismatch, ParameterNotSupported
from .linalg import (
    bareiss_det_int as _bareiss_det_int,
    det,
    gaussian_int_matrix as _gaussian_int_matrix,
    mat_mul,
    mul_int as _mul_int,
    nullspace,
    rank as mat_rank,
    rank_int as _rank_int,
    realify as _realify,
    rref,
    transpose,
)
from .scalars import B_PARAM_EXCLUDED, QI, QI_ONE, SC_ONE, SC_ZERO, Scalar

# Entries kept by each cache in this module: bounds the memory of a
# long-running process that sees many distinct matrices.
_CACHE_SIZE = 4096


# ---------------------------------------------------------------------------
# Exact factorization over Q(i) and Q(i)(params), via sympy
# ---------------------------------------------------------------------------
def _qi_to_sympy(q: QI):
    import sympy

    out = sympy.Rational(q.re.numerator, q.re.denominator)
    if q.im:
        out += sympy.Rational(q.im.numerator, q.im.denominator) * sympy.I
    return out


def _sympy_to_qi(expr) -> QI:
    re_, im_ = (x.as_numer_denom() for x in expr.as_real_imag())
    return QI(Fraction(int(re_[0]), int(re_[1])), Fraction(int(im_[0]), int(im_[1])))


def _scalar_to_sympy(s: Scalar, symmap):
    import sympy

    def conv(poly):
        acc = sympy.Integer(0)
        for mono, qi in poly.terms.items():
            term = _qi_to_sympy(qi)
            for v, e in mono:
                term *= symmap[v] ** e
            acc += term
        return acc

    return conv(s.num) / conv(s.den)


def _sympy_poly_to_scalar_coeffs(f, gens, params):
    """Coefficients in gens[0] of a sympy polynomial, as Scalars in params."""
    import sympy

    coeffs = {}
    for mono, coef in sympy.Poly(f, *gens).terms():
        s = Scalar.const(_sympy_to_qi(coef))
        for name, e in zip(params, mono[1:]):
            for _ in range(e):
                s = s * Scalar.param(name)
        coeffs[mono[0]] = coeffs.get(mono[0], SC_ZERO) + s
    return [coeffs.get(k, SC_ZERO) for k in range(max(coeffs) + 1)]


def _sorted_factors(out):
    """The factor tuple both factoring routes return, in one fixed order."""
    return tuple(sorted(out, key=lambda fe: (len(fe[0]), _divisor_key(fe[0]), fe[1])))


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_int(coeffs):
    """Irreducible factors over Q(i) of the nonconstant integer polynomial
    with int coefficients coeffs (low to high): a tuple of (monic Scalar
    coefficient tuple, exponent).

    One sympy.factor_list over ZZ gives the factors over Q.  A quadratic
    a t^2 + b t + c among them splits over Q(i) exactly when its
    discriminant is minus a square d^2, into t - (-b +- d i)/(2a); any other
    quadratic has its roots outside Q(i).  Only factors of degree >= 3 are
    factored again, with gaussian=True: t^4 + 1 = (t^2 - i)(t^2 + i).
    """
    import sympy

    t = sympy.Dummy("t")
    out = []
    for f, e in sympy.factor_list(sympy.Poly(coeffs[::-1], t, domain=sympy.ZZ))[1]:
        cs = [int(c) for c in reversed(f.all_coeffs())]
        e = int(e)
        if len(cs) == 2:
            out.append(((Scalar.rational(*cs), SC_ONE), e))
        elif len(cs) == 3:
            c, b, a = cs
            minus_disc = 4 * a * c - b * b
            d = isqrt(max(minus_disc, 0))
            if d and d * d == minus_disc:
                for s in (d, -d):
                    root = QI(Fraction(-b, 2 * a), Fraction(s, 2 * a))
                    out.append(((Scalar.const(-root), SC_ONE), e))
            else:
                out.append(((Scalar.rational(c, a), Scalar.rational(b, a), SC_ONE), e))
        else:
            for g, e2 in sympy.factor_list(f, gaussian=True)[1]:
                cs = tuple(Scalar.const(_sympy_to_qi(x)) for x in g.monic().all_coeffs())
                out.append((cs[::-1], e * int(e2)))
    return _sorted_factors(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_scalar(coeffs):
    """Irreducible factors over Q(i)(params) of the polynomial in t with
    Scalar coefficients coeffs (low to high): a tuple of (monic coefficient
    tuple, exponent), factors free of t dropped.

    sympy factors first in its default domain, which is fast but leaves
    factors such as t^2 + 1 whole; only factors of degree >= 2 in t can
    still split over Q(i), so only those are factored again with
    gaussian=True.
    """
    import sympy

    params = sorted(set().union(*(c.parameters() for c in coeffs)))
    symmap = {v: sympy.Symbol(v) for v in params}
    t = sympy.Dummy("t")
    gens = [t] + [symmap[v] for v in params]
    expr = sum(_scalar_to_sympy(c, symmap) * t**k for k, c in enumerate(coeffs))
    num, _ = sympy.fraction(sympy.together(expr))
    out = []
    for f, e in sympy.factor_list(sympy.expand(num), *gens)[1]:
        deg = sympy.degree(f, t)
        if deg < 1:
            continue
        parts = [(f, 1)] if deg == 1 else sympy.factor_list(f, *gens, gaussian=True)[1]
        for g, e2 in parts:
            if sympy.degree(g, t) < 1:
                continue
            cs = _sympy_poly_to_scalar_coeffs(g, gens, params)
            inv = cs[-1].inverse()
            out.append((tuple(x * inv for x in cs), int(e) * int(e2)))
    return _sorted_factors(out)


# ---------------------------------------------------------------------------
# Integer polynomials and fraction-free elimination
# ---------------------------------------------------------------------------
def _int_poly_content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g or 1


def _int_poly_primitive(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    if not p:
        return p
    g = _int_poly_content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _int_poly_gcd(a, b):
    """gcd of integer polynomials (primitive PRS), primitive positive lead."""
    a, b = _int_poly_primitive(a), _int_poly_primitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b
        r = list(a)
        lead = b[-1]
        while len(r) >= len(b):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(b):
                break
            top = r[-1]
            off = len(r) - len(b)
            r = [lead * c for c in r]
            for j, y in enumerate(b):
                r[off + j] -= top * y
            r.pop()
        a, b = b, _int_poly_primitive(r)
    return _int_poly_primitive(a)


def _interpolate(values, from_int, div):
    """Coefficients, low to high, of the polynomial of degree < len(values)
    that takes values[k] at t = k; div(x, y) divides exactly.

    Newton's form: the k-th forward difference at 0 divided by k!, which for
    an integer polynomial is an integer.
    """
    r = len(values) - 1
    diffs = list(values)
    newton = []
    for k in range(r + 1):
        newton.append(div(diffs[0], from_int(factorial(k))))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # Horner's rule in the basis t(t-1)...(t-k+1)
    coeffs = [newton[r]]
    for k in range(r - 1, -1, -1):
        shifted = [from_int(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = shifted[i] - from_int(k) * c
        shifted[0] = shifted[0] + newton[k]
        coeffs = shifted
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# Gaussian integer matrices: pairs (real rows, imaginary rows) of int lists
# ---------------------------------------------------------------------------
def _gcomb(*terms):
    """Sum of c*X over (c, X): c = (re, im) a Gaussian integer, X a matrix."""
    re0 = terms[0][1][0]
    nrows, ncols = len(re0), len(re0[0])
    re = [[0] * ncols for _ in range(nrows)]
    im = [[0] * ncols for _ in range(nrows)]
    for (cr, ci), (X, Y) in terms:
        for re_i, im_i, x_i, y_i in zip(re, im, X, Y):
            for j in range(ncols):
                re_i[j] += cr * x_i[j] - ci * y_i[j]
                im_i[j] += cr * y_i[j] + ci * x_i[j]
    return re, im


def _block_rows(grid, zero):
    """Rows of the block matrix given by a grid of square blocks (None: zero)."""
    n = next(len(b) for brow in grid for b in brow if b is not None)
    zeros = [zero] * n
    rows = []
    for brow in grid:
        for i in range(n):
            row = []
            for blk in brow:
                row.extend(zeros if blk is None else blk[i])
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The two kinds of pencil the engine runs on
# ---------------------------------------------------------------------------
class _GaussianPencil:
    """t*M + M^T for a Gaussian integer matrix M, over Q(i).

    Elements are Gaussian integers (re, im) and matrices pairs (re rows, im
    rows).  Chains run on the realified matrices, with fraction-free integer
    ranks over Q.
    """

    zero = (0, 0)

    def __init__(self, M):
        self.M = tuple([list(row) for row in part] for part in M)
        self.Mt = tuple([list(col) for col in zip(*part)] for part in M)
        self.n = len(self.M[0])
        (self.P, self.Pt), self.w = self.realify(self.M, self.Mt)
        self._ranks = {}  # (k, rev) -> _rank_int of the realified k*M + M^T

    def comb(self, a, b):
        """a*M + b*M^T."""
        return _gcomb((a, self.M), (b, self.Mt))

    @staticmethod
    def flatten(grid):
        return tuple(
            _block_rows([[b if b is None else b[k] for b in brow] for brow in grid], 0)
            for k in (0, 1)
        )

    realify = staticmethod(_realify)
    mul = staticmethod(_mul_int)

    @staticmethod
    def step(top, value):
        """(left nullity of X = [top; value], null): one order of a chain.

        null() gives the next K and the number of left null vectors of X
        dropped because their value-row part is zero.  It eliminates
        [X | T], T holding an identity beside the value rows and zeros
        beside top: the rows left zero on X are a basis of the left null
        space, with their value-row parts in T, and eliminating on through
        T leaves those parts independent, above the zero ones.
        """
        nullity = len(top) + len(value) - _rank_int([*map(list, top), *map(list, value)])[0]

        def null():
            N = len(value)
            m = [[*row, *[0] * N] for row in top]
            m += [[*row, *(int(i == j) for j in range(N))] for i, row in enumerate(value)]
            total, _, cols = _rank_int(m)
            return [row[N:] for row, c in zip(m, cols) if c >= N], len(m) - total

        return nullity, null

    def _ranked(self, k, rev=False):
        """_rank_int of the realified k*M + M^T, its rows reversed if rev.
        Results are kept, so divisor_multiple searches the matrices the rank
        loop of _kronecker has ranked without ranking them again."""
        if (k, rev) not in self._ranks:
            cand = [[k * x + y for x, y in zip(a, b)] for a, b in zip(self.P, self.Pt)]
            if rev:
                cand.reverse()
            self._ranks[k, rev] = _rank_int(cand)
        return self._ranks[k, rev]

    def rank_at(self, k):
        """Rank of k*M + M^T over Q(i)."""
        return self._ranked(k)[0] // self.w

    @staticmethod
    def scaled(coeffs):
        """q*c for the constant Scalars c in coeffs, q > 0 the least integer
        making them all Gaussian integers."""
        qs = [c.as_qi() for c in coeffs]
        q = lcm(*(f.denominator for x in qs for f in (x.re, x.im)))
        return [(int(x.re * q), int(x.im * q)) for x in qs]

    def divisor_multiple(self, prank):
        """The gcd of up to two maximal minors of the realified pencil, which
        is equivalent over C to the pencil plus its conjugate, so its divisor
        product is a multiple of the pencil's."""
        P, Pt = self.P, self.Pt
        N, r = len(P), self.w * prank
        want = 1 if r == N else 2  # a regular pencil has one maximal minor
        keys = []
        g = None
        for k in range(2 * (N + 1)):
            kk, rev = divmod(k, 2)
            rank, rows, cols = self._ranked(kk, rev)
            if rank != r:
                continue
            key = (tuple(sorted(N - 1 - i if rev else i for i in rows)), tuple(cols))
            if key in keys:
                continue
            keys.append(key)
            rows, cols = key
            values = [
                _bareiss_det_int([[p * P[i][j] + Pt[i][j] for j in cols] for i in rows])
                for p in range(r + 1)
            ]
            minor = _interpolate(values, int, floordiv)
            g = _int_poly_primitive(minor) if g is None else _int_poly_gcd(g, minor)
            if len(keys) == want:
                break
        return tuple(g)

    factor = staticmethod(_factor_int)


class _ScalarPencil:
    """t*M + M^T for a Scalar matrix M, over Q(i)(params): generic ranks."""

    zero = SC_ZERO

    def __init__(self, M):
        self.M = tuple(tuple(row) for row in M)
        self.Mt = transpose(self.M)
        self.n = len(M)
        self._ranks = {}  # k -> rref of k*M + M^T

    def comb(self, a, b):
        """a*M + b*M^T."""
        return tuple(
            tuple(a * x + b * y for x, y in zip(r, s)) for r, s in zip(self.M, self.Mt)
        )

    @staticmethod
    def flatten(grid):
        return _block_rows(grid, SC_ZERO)

    @staticmethod
    def realify(*mats):
        """The matrices themselves: ranks are taken over Q(i)(params)."""
        return list(mats), 1

    mul = staticmethod(mat_mul)

    @staticmethod
    def step(top, value):
        """(left nullity of X = [top; value], null), as for _GaussianPencil.

        The null vectors of X^T come from rref with the top coordinates
        first, so each has a zero value-row part or a pivot-free one, and
        the nonzero parts are independent.
        """
        X = (*top, *value)
        nullity = len(X) - mat_rank(X)

        def null():
            basis = nullspace(transpose(X))
            K = [v[len(top) :] for v in basis if any(v[len(top) :])]
            return K, len(basis) - len(K)

        return nullity, null

    def _ranked(self, k):
        """rref of k*M + M^T, kept for divisor_multiple."""
        if k not in self._ranks:
            self._ranks[k] = rref(self.comb(Scalar.rational(k), SC_ONE))
        return self._ranks[k]

    def rank_at(self, k):
        """Rank of k*M + M^T over Q(i)(params)."""
        return len(self._ranked(k)[1])

    @staticmethod
    def scaled(coeffs):
        """The coefficients themselves: over a field the scale q is 1."""
        return list(coeffs)

    def divisor_multiple(self, prank):
        """One maximal minor, interpolated at t = 0..prank: a multiple of the
        product of the finite divisors."""
        k = next(k for k in range(self.n + 1) if self.rank_at(k) == prank)
        cols = self._ranked(k)[1]
        at = self.comb(Scalar.rational(k), SC_ONE)
        _, rows = rref(transpose([[row[j] for j in cols] for row in at]))
        values = []
        for p in range(prank + 1):
            at = self.comb(Scalar.rational(p), SC_ONE)
            values.append(det([[at[i][j] for j in cols] for i in rows]))
        return tuple(_interpolate(values, Scalar.rational, truediv))

    factor = staticmethod(_factor_scalar)


# ---------------------------------------------------------------------------
# Pencil invariants
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PencilInvariants:
    size: int
    rank: int  # rank of M itself
    left_indices: tuple
    right_indices: tuple
    finite_divisors: tuple  # ((coefficient strings, low to high), exponent)
    infinite_divisors: tuple  # exponents

    def regular_size(self):
        return sum((len(cs) - 1) * e for cs, e in self.finite_divisors) + sum(
            self.infinite_divisors
        )

    def check_consistency(self):
        reg = self.regular_size()
        rows = sum(self.right_indices) + sum(e + 1 for e in self.left_indices) + reg
        cols = sum(e + 1 for e in self.right_indices) + sum(self.left_indices) + reg
        if rows != self.size or cols != self.size:
            raise AssertionError(
                f"Kronecker blocks do not tile the pencil: rows {rows}, "
                f"cols {cols}, size {self.size}"
            )
        return True


def _divisor_key(coeffs):
    return tuple(str(c) for c in coeffs)


def _has_parameters(M):
    """Whether a matrix of Scalar (or QI) entries has free parameters."""
    return any(isinstance(x, Scalar) and not x.is_constant() for row in M for x in row)


def _require_constant(M):
    if _has_parameters(M):
        raise ParameterNotSupported(
            "matrix has free parameters; the answer would not hold for every value"
        )


def pencil_invariants(M) -> PencilInvariants:
    """Kronecker invariants of t*M + u*M^T for a square Scalar matrix.

    A matrix with free parameters gets the invariants at generic values of
    its parameters.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise DimensionMismatch("pencil requires a square matrix")
    if n == 0:
        return PencilInvariants(0, 0, (), (), (), ())
    if _has_parameters(M):
        return _kronecker(_ScalarPencil(M))
    return _invariants_gaussian(_gaussian_int_matrix(M))


@lru_cache(maxsize=_CACHE_SIZE)
def _invariants_gaussian(M) -> PencilInvariants:
    """Invariants of a constant pencil, cached on its primitive Gaussian
    integer matrix: matrices that differ by a rational factor share one."""
    return _kronecker(_GaussianPencil(M))


def _kronecker(pen) -> PencilInvariants:
    """The engine, on either kind of pencil.

    The divisor points are visited in a fixed order: the roots of the linear
    factors, each up to its multiplicity in the divisor multiple; infinity,
    up to the regular size left; then the higher-degree factors, only while
    regular size is left.
    """
    n = pen.n
    rank_m = prank = pen.rank_at(0)  # 0*M + M^T has the rank of M
    for k in range(1, n + 1):
        if prank == n:
            break
        prank = max(prank, pen.rank_at(k))
    s = n - prank
    right = _minimal_indices(pen, pen.M, pen.Mt, s)
    left = _minimal_indices(pen, pen.Mt, pen.M, s)
    regular = n - sum(right) - sum(left) - s
    multiple = pen.divisor_multiple(prank) if prank else ()
    factors = pen.factor(multiple) if len(multiple) > 1 else ()
    finite = []

    def visit(p, bound):
        d = len(p) - 1
        exps = _jet_exponents(pen, *_point(pen, p), d, s, bound)
        finite.extend((_divisor_key(p), e) for e in exps)
        return d * sum(exps)

    for p, mult in factors:
        if len(p) == 2:
            regular -= visit(p, mult)
    # infinite divisors: reversed pencil at 0 (value M, derivative M^T)
    infinite = _jet_exponents(pen, pen.M, pen.Mt, 1, s, regular)
    regular -= sum(infinite)
    for p, mult in factors:
        d = len(p) - 1
        if d > 1 and regular >= d:
            regular -= visit(p, min(mult, regular // d))
    return _assemble(n, rank_m, left, right, finite, infinite)


def _point(pen, p):
    """Value and slope at a root of the monic irreducible p of q times the
    pencil, q the scale of pen.scaled.

    The root is the companion matrix C of p (ones below the diagonal, -p_k
    down the last column), so the value is C (x) M + I (x) M^T and the slope
    I (x) M, as grids of d x d blocks.  For deg p = 1 they are the pencil's
    value and slope at the root.
    """
    d = len(p) - 1
    *last_col, q = pen.scaled(tuple(-c for c in p[:-1]) + (p[-1],))
    zero = pen.zero

    def companion(k, l):
        return last_col[k] if l == d - 1 else q if k == l + 1 else zero

    value = [
        [pen.comb(companion(k, l), q if k == l else zero) for l in range(d)]
        for k in range(d)
    ]
    slope = [[pen.comb(q, zero) if k == l else None for l in range(d)] for k in range(d)]
    return pen.flatten(value), pen.flatten(slope)


def _nullities(pen, value, slope, top):
    """Left nullities, one order per next(), of the chain X_1, X_2, ...
    in which X_1 = [top; value] and X_(j+1) is X_j with one more block
    column: slope in the last block row of X_j, value in a new block row.

    Let Z be a basis of the left null space of X_j and K the last blocks of
    its rows.  Then (a, w) -> (a Z, w) maps the left null space of
    [K slope; value] onto that of X_(j+1), so its nullity is
    rows(Z) + N - rank [K slope; value] for N x N blocks, and the value-row
    parts w of those null vectors are the K of the next order.  Whatever the
    order, a step ranks a matrix N columns wide, and 2N wide to find the
    next K.  A null vector whose last block is zero stays one at every later
    order: it leaves K and is counted in kept.  K is only computed when the
    next order is asked for.
    """
    kept = 0
    while True:
        nullity, null = pen.step(top, value)
        yield kept + nullity
        K, dropped = null()
        kept += dropped
        top = pen.mul(K, slope) if K else []


def _minimal_indices(pen, M, Mt, count):
    """Right minimal indices of t*M + M^T (pass swapped for left ones).

    The polynomial null vectors of degree <= d are the null space of the
    expansion matrix with d + 1 block columns, column c holding M^T in
    block row c and M in block row c + 1.  Its left nullity nu_d is that of
    the chain with value M and slope M^T started from K = I, i.e. from
    top = M^T, and its right nullity is s_d = nu_d - n.
    """
    if count == 0:
        return ()
    n = pen.n
    (value, slope), w = pen.realify(M, Mt)
    nullities = _nullities(pen, value, slope, slope)
    indices = []
    s_prev_prev = 0
    s_prev = 0
    for d in range(n + 1):
        s_d = next(nullities) // w - n
        indices.extend([d] * ((s_d - s_prev) - (s_prev - s_prev_prev)))
        if len(indices) >= count:
            return tuple(indices)
        s_prev_prev, s_prev = s_prev, s_d
    raise AssertionError("minimal index search exceeded the pencil size")


def _jet_exponents(pen, value, slope, fold, s, bound):
    """Divisor exponents at one point from the nullities of its jet matrices.

    The jet matrix of order j is block upper bidiagonal, with the pencil's
    value at the point on the diagonal and its derivative (slope) above it:
    the chain started from an empty K.  Its nullity over the field of the
    point is its nullity over the base field divided by fold, the degree of
    the point.  The chain stops when the exponents reach bound, an upper
    bound for their sum; s is the number of right minimal indices.
    """
    (value, slope), w = pen.realify(value, slope)
    nullities = _nullities(pen, value, slope, [])
    at_least = []  # at_least[j - 1]: number of exponents >= j
    prev = 0
    while sum(at_least) < bound:
        nul = next(nullities) // (w * fold)
        count = (nul - prev) - s
        if count <= 0:
            break
        at_least.append(count)
        prev = nul
    out = []
    for j, (ge, gt) in enumerate(zip(at_least, at_least[1:] + [0]), start=1):
        out.extend([j] * (ge - gt))
    return out


def _assemble(n, rank_m, left, right, finite, infinite) -> PencilInvariants:
    inv = PencilInvariants(
        n,
        rank_m,
        tuple(sorted(left)),
        tuple(sorted(right)),
        tuple(sorted(Counter(finite).elements())),
        tuple(sorted(infinite)),
    )
    inv.check_consistency()
    return inv


# ---------------------------------------------------------------------------
# Congruence test and canonical decomposition
# ---------------------------------------------------------------------------
def is_congruent(M, N) -> bool:
    _require_constant(M)
    _require_constant(N)
    if len(M) != len(N):
        return False
    return pencil_invariants(M) == pencil_invariants(N)


def congruence_transform(M, S):
    return mat_mul(mat_mul(transpose(S), M), S)


@lru_cache(maxsize=_CACHE_SIZE)
def block_invariants(b: CanonicalBlock) -> PencilInvariants:
    return pencil_invariants(canonical_block_matrix(b))


def canonical_decomposition(M):
    """The unique multiset of canonical blocks whose sum is congruent to M."""
    _require_constant(M)
    return decomposition_from_invariants(pencil_invariants(M))


def decomposition_from_invariants(inv: PencilInvariants):
    found = _decompose_cached(inv)
    if isinstance(found, str):
        raise DictionaryMiss(found)
    return found


@lru_cache(maxsize=_CACHE_SIZE)
def _decompose_cached(inv: PencilInvariants):
    """The blocks, or the message of the DictionaryMiss they raise.

    A message, not the exception, is kept: a re-raised exception would
    grow its traceback and keep every raise's frames alive.
    """
    try:
        return _decompose(inv)
    except DictionaryMiss as exc:
        return str(exc)


def _decompose(inv: PencilInvariants):
    """The blocks, read off the invariants by the catalogue in the blocks
    docstring: the minimal indices give the A blocks, the divisors at the
    self-reciprocal roots -1 and 1 give C and D, and E and F, and every other
    (t + c)^e pairs with a (t + 1/c)^e, or for c = 0 with an infinite
    divisor of exponent e, into a B_(2e)(c).  Whatever is left has no block
    sum: a divisor of degree >= 2, an unmatched partner, an odd count where
    a pair is needed, or a stray infinite divisor.
    """
    if inv.left_indices != inv.right_indices:
        raise DictionaryMiss(
            "left and right minimal indices differ; not a congruence pencil"
        )
    miss = DictionaryMiss(
        f"no canonical block multiset matches the invariants of size {inv.size}"
    )
    blocks = [CanonicalBlock("A", 2 * k + 1) for k in inv.right_indices]
    if any(len(cs) != 2 for cs, _ in inv.finite_divisors):
        raise miss
    linear = Counter((Scalar.parse(cs[0]).as_qi(), e) for cs, e in inv.finite_divisors)
    infinite = Counter(inv.infinite_divisors)
    while linear:
        (c, e), count = linear.popitem()
        if c in B_PARAM_EXCLUDED:
            single, paired = ("C", "D") if c == QI_ONE else ("E", "F")
            if single in kinds_for_size(e):
                blocks += [CanonicalBlock(single, e)] * count
            elif count % 2:
                raise miss
            else:  # then paired exists at size 2e
                blocks += [CanonicalBlock(paired, 2 * e)] * (count // 2)
            continue
        partners = linear.pop((c.inverse(), e), 0) if c else infinite.pop(e, 0)
        if partners != count:
            raise miss
        blocks += [CanonicalBlock("B", 2 * e, Scalar.const(c))] * count
    if infinite:
        raise miss
    result = normalize_blocks(blocks)
    _verify_decomposition(result, inv)
    return result


def _verify_decomposition(blocks, inv: PencilInvariants):
    fin = Counter()
    inf = []
    idx = []
    rank_sum = 0
    size_sum = 0
    for b in blocks:
        binv = block_invariants(b)
        fin.update(Counter(binv.finite_divisors))
        inf.extend(binv.infinite_divisors)
        idx.extend(binv.right_indices)
        rank_sum += binv.rank
        size_sum += b.size
    ok = (
        fin == Counter(inv.finite_divisors)
        and tuple(sorted(inf)) == inv.infinite_divisors
        and tuple(sorted(idx)) == inv.right_indices
        and rank_sum == inv.rank
        and size_sum == inv.size
    )
    if not ok:
        raise DictionaryMiss("block multiset does not reconstruct the invariants")
