"""Congruence engine: Kronecker invariants of the pencil t*M + u*M^T.

Two square matrices over an algebraically closed field of characteristic 0
are congruent exactly when their pencils t*M + u*M^T are strictly
equivalent, so the pencil's Kronecker data (minimal indices, finite and
infinite elementary divisors) fingerprints the congruence class.  Everything
here is computed exactly.  A constant matrix is scaled to Gaussian integers
and goes through one fraction-free engine: minimal indices from the ranks of
expansion matrices, divisor roots from a gcd of maximal minors, and divisor
exponents from the ranks of jet matrices at each root, every rank over Q(i)
taken as half the integer rank of the realification.  The polynomial Smith
form decides parametric matrices and divisors that do not split over Q(i).
sympy supplies exact factorization over Q(i), optionally with formal
parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .blocks import CanonicalBlock, canonical_block_matrix, normalize_blocks
from .errors import DictionaryMiss, ParameterNotSupported
from .linalg import mat_mul, rank as mat_rank, transpose
from .scalars import QI, QI_ONE, QI_ZERO, Scalar

# Entries kept by each cache in this module: bounds the memory of a
# long-running process that sees many distinct matrices.
_CACHE_SIZE = 4096

def _sympy_t():
    import sympy

    return sympy.Symbol("t")


# ---------------------------------------------------------------------------
# Univariate polynomials over a field-like element type
# ---------------------------------------------------------------------------
class UPoly:
    """Dense univariate polynomial; coeffs[k] is the t^k coefficient."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "c", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("UPoly is immutable")

    @property
    def degree(self):
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, x in enumerate(b):
            out[k] = out[k] + x
        return UPoly(out)

    def __neg__(self):
        return UPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return UPoly(())
        out = [None] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if not x:
                continue
            for j, y in enumerate(other.c):
                if not y:
                    continue
                p = x * y
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        zero = self.c[0] - self.c[0]
        return UPoly([zero if v is None else v for v in out])

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.c) < len(other.c):
            return UPoly(()), self
        rem = list(self.c)
        lead = other.c[-1]
        dq = len(self.c) - len(other.c)
        quo = [None] * (dq + 1)
        zero = lead - lead
        for k in range(dq, -1, -1):
            top = rem[k + len(other.c) - 1]
            if not top:
                quo[k] = zero
                continue
            q = top / lead
            quo[k] = q
            for j, y in enumerate(other.c):
                if y:
                    rem[k + j] = rem[k + j] - q * y
        return UPoly(quo), UPoly(rem[: len(other.c) - 1])

    def monic(self):
        if not self.c:
            return self
        lead = self.c[-1]
        inv = QI_ONE / lead if isinstance(lead, QI) else lead.inverse()
        return UPoly([x * inv for x in self.c])

    def trailing_zero_count(self):
        for k, x in enumerate(self.c):
            if x:
                return k
        return len(self.c)

    def scale(self, unit):
        return UPoly([x * unit for x in self.c])

    def __repr__(self):
        return f"UPoly({self.c})"


def _coeff_magnitude(p: UPoly):
    out = 0
    for q in p.c:
        if isinstance(q, QI):
            out = max(
                out,
                abs(q.re.numerator),
                q.re.denominator,
                abs(q.im.numerator),
                q.im.denominator,
            )
    return out


def _unit_rescale(polys):
    """Rescale a row/column by a rational unit to integer content 1.

    Unit scalings do not change the Smith form (pivots are re-normalized
    monic at the end).  Applies only to QI coefficients; other coefficient
    fields are returned unchanged.
    """
    from math import gcd

    num_g = 0
    den_l = 1
    for p in polys:
        for q in p.c:
            if not isinstance(q, QI):
                return polys
            for f in (q.re, q.im):
                if f:
                    num_g = gcd(num_g, abs(f.numerator))
                    den_l = den_l // gcd(den_l, f.denominator) * f.denominator
    if num_g == 0:
        return polys
    scale = Fraction(den_l, num_g)
    if scale == 1:
        return polys
    unit = QI(scale)
    return [p.scale(unit) for p in polys]


def smith_invariant_factors(mat):
    """Nonzero invariant factors (monic, divisibility chain) of a UPoly matrix."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    factors = []
    top = 0
    while top < min(nrows, ncols):
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j]:
                    key = (m[i][j].degree, _coeff_magnitude(m[i][j]))
                    if best is None or key < best:
                        best = key
                        piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        while True:
            changed = False
            for i in range(top + 1, nrows):
                if m[i][top]:
                    q, r = m[i][top].divmod(m[top][top])
                    m[i] = _unit_rescale([x - q * y for x, y in zip(m[i], m[top])])
                    if r:
                        m[top], m[i] = m[i], m[top]
                        changed = True
            if changed:
                continue
            for j in range(top + 1, ncols):
                if m[top][j]:
                    q, r = m[top][j].divmod(m[top][top])
                    col = _unit_rescale(
                        [row[j] - q * row[top] for row in m]
                    )
                    for i, row in enumerate(m):
                        row[j] = col[i]
                    if r:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        changed = True
            if changed:
                continue
            # pivot row/col clean; enforce divisibility on the rest
            fixup = None
            for i in range(top + 1, nrows):
                for j in range(top + 1, ncols):
                    if m[i][j]:
                        _, r = m[i][j].divmod(m[top][top])
                        if r:
                            fixup = i
                            break
                if fixup is not None:
                    break
            if fixup is None:
                break
            m[top] = _unit_rescale([x + y for x, y in zip(m[top], m[fixup])])
        factors.append(m[top][top].monic())
        top += 1
    return factors


# ---------------------------------------------------------------------------
# Exact factorization over Q(i), via sympy
# ---------------------------------------------------------------------------
def _qi_to_sympy(q: QI):
    import sympy

    out = sympy.Rational(q.re.numerator, q.re.denominator)
    if q.im:
        out += sympy.Rational(q.im.numerator, q.im.denominator) * sympy.I
    return out


def _sympy_to_qi(expr) -> QI:
    import sympy

    re_, im_ = sympy.simplify(expr).as_real_imag()
    re_, im_ = sympy.Rational(re_), sympy.Rational(im_)
    return QI(Fraction(int(re_.p), int(re_.q)), Fraction(int(im_.p), int(im_.q)))


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_qi_coeffs(coeffs):
    """Factor a monic UPoly over Q(i): tuple of (coeff tuple, exponent)."""
    import sympy

    _T = _sympy_t()
    expr = sum(_qi_to_sympy(c) * _T**k for k, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr, _T, gaussian=True)
    out = []
    for f, e in factors:
        p = sympy.Poly(f, _T)
        cs = [_sympy_to_qi(x) for x in reversed(p.all_coeffs())]
        lead = cs[-1]
        if lead != QI_ONE:
            inv = lead.inverse()
            cs = [x * inv for x in cs]
        out.append((tuple(cs), int(e)))
    out.sort(key=lambda fe: (len(fe[0]), [c.sort_key() for c in fe[0]], fe[1]))
    return tuple(out)


def _factor_qi_upoly(p: UPoly):
    if p.degree < 1:
        return ()
    return _factor_qi_coeffs(p.monic().c)


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


def _sympy_poly_to_scalar_coeffs(f, params, symmap):
    """sympy polynomial in t and params -> UPoly coefficients as Scalars."""
    import sympy

    p = sympy.Poly(f, _sympy_t(), *[symmap[v] for v in params])
    coeffs = {}
    for mono, coef in p.terms():
        te = mono[0]
        s = Scalar.const(_sympy_to_qi(coef))
        for name, e in zip(params, mono[1:]):
            for _ in range(e):
                s = s * Scalar.param(name)
        coeffs[te] = coeffs.get(te, Scalar.const(QI_ZERO)) + s
    deg = max(coeffs) if coeffs else -1
    return [coeffs.get(k, Scalar.const(QI_ZERO)) for k in range(deg + 1)]


def _factor_scalar_upoly(p: UPoly):
    """Factor a UPoly with Scalar coefficients over Q(i)(params)[t]."""
    if p.degree < 1:
        return ()
    params = sorted(set().union(*(c.parameters() for c in p.c)))
    if not params:
        qp = UPoly([c.as_qi() for c in p.c])
        return tuple(
            (tuple(Scalar.const(c) for c in cs), e) for cs, e in _factor_qi_upoly(qp)
        )
    import sympy

    _T = _sympy_t()
    symmap = {v: sympy.Symbol(v) for v in params}
    expr = sum(_scalar_to_sympy(c, symmap) * _T**k for k, c in enumerate(p.c))
    num, _ = sympy.fraction(sympy.together(expr))
    _, factors = sympy.factor_list(
        sympy.expand(num), _T, *[symmap[v] for v in params], gaussian=True
    )
    out = []
    for f, e in factors:
        if sympy.degree(f, _T) < 1:
            continue
        cs = _sympy_poly_to_scalar_coeffs(f, params, symmap)
        lead = cs[-1]
        inv = lead.inverse()
        cs = [x * inv for x in cs]
        out.append((tuple(cs), int(e)))
    out.sort(key=lambda fe: (len(fe[0]), [str(c) for c in fe[0]], fe[1]))
    return tuple(out)


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


def _bareiss_det_int(m):
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    prev = 1
    sign = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pv = m[c][c]
        for i in range(c + 1, n):
            mic = m[i][c]
            row_i = m[i]
            row_c = m[c]
            for j in range(c + 1, n):
                row_i[j] = (pv * row_i[j] - mic * row_c[j]) // prev
            row_i[c] = 0
        prev = pv
    return sign * prev


def _rank_int(m):
    """(rank, pivot row indices, pivot column indices) of an integer matrix.

    Fraction-free elimination: a row with a nonzero entry x in the pivot
    column becomes pv*row - x*pivot_row divided by its content, and the
    other rows are left alone.  Rows are only ever scaled by nonzero
    integers, so the pivots are those of elimination over Q.
    """
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    order = list(range(nrows))
    cols = []
    for c in range(ncols):
        r = len(cols)
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        order[r], order[piv] = order[piv], order[r]
        pv = m[r][c]
        top = m[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = m[i]
            x = row[c]
            if x:
                tail = [pv * a - x * b for a, b in zip(row[c + 1 :], top)]
                g = gcd(*tail)
                if g > 1:
                    tail = [a // g for a in tail]
                row[c:] = [0] + tail
        cols.append(c)
        if len(cols) == nrows:
            break
    return len(cols), order[: len(cols)], cols


# ---------------------------------------------------------------------------
# Gaussian integer matrices: pairs (real rows, imaginary rows) of int lists
# ---------------------------------------------------------------------------
def _gaussian_int_matrix(Q):
    """c*Q as a Gaussian integer matrix, c the lcm of the entry denominators.

    t*cM + u*cM^T = c(t*M + u*M^T), so every pencil invariant is unchanged.
    """
    c = lcm(*(f.denominator for row in Q for x in row for f in (x.re, x.im)))
    re = [[x.re.numerator * (c // x.re.denominator) for x in row] for row in Q]
    im = [[x.im.numerator * (c // x.im.denominator) for x in row] for row in Q]
    return re, im


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


def _realify(X):
    """(integer matrix, w) with every rank over Q(i) = integer rank / w.

    A real X gives Re X and w = 1; otherwise the realification
    [[Re, -Im], [Im, Re]], the matrix of X acting on Q^2n, and w = 2.
    """
    re, im = X
    if not any(map(any, im)):
        return re, 1
    top = [a + [-y for y in b] for a, b in zip(re, im)]
    return top + [b + a for a, b in zip(re, im)], 2


def _gaussian_rank(X):
    m, w = _realify(X)
    return _rank_int(m)[0] // w


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


def _gaussian_grid_rank(grid):
    return _gaussian_rank(
        tuple(
            _block_rows([[b if b is None else b[k] for b in brow] for brow in grid], 0)
            for k in (0, 1)
        )
    )


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


def _to_qi_matrix(M):
    out = []
    for row in M:
        qrow = []
        for x in row:
            if isinstance(x, QI):
                qrow.append(x)
            elif x.is_constant():
                qrow.append(x.as_qi())
            else:
                raise ParameterNotSupported(
                    "matrix has free parameters; pass generic=True"
                )
        out.append(tuple(qrow))
    return tuple(out)


def _pencil_rank(M, Mt, n, from_int):
    """Generic rank of t*M + M^T via n+1 sample points."""
    best = 0
    for k in range(n + 1):
        lam = from_int(k)
        sample = tuple(
            tuple(lam * M[i][j] + Mt[i][j] for j in range(n)) for i in range(n)
        )
        best = max(best, mat_rank(sample))
        if best == n:
            break
    return best


def _expansion_grid(M, Mt, d):
    """Blocks of the matrix whose null space holds the degree-d polynomial
    null vectors of t*M + M^T."""
    return [
        [Mt if bc == j else M if bc == j - 1 else None for bc in range(d + 1)]
        for j in range(d + 2)
    ]


def _minimal_indices(M, Mt, count, n, grid_rank):
    """Right minimal indices of t*M + M^T (pass swapped for left ones).

    grid_rank(grid) is the rank of the block matrix of a grid of blocks.
    """
    if count == 0:
        return ()
    indices = []
    s_prev_prev = 0
    s_prev = 0
    d = 0
    while len(indices) < count:
        if d > n:
            raise AssertionError("minimal index search exceeded the pencil size")
        s_d = n * (d + 1) - grid_rank(_expansion_grid(M, Mt, d))
        new = (s_d - s_prev) - (s_prev - s_prev_prev)
        indices.extend([d] * new)
        s_prev_prev, s_prev = s_prev, s_d
        d += 1
    return tuple(indices)


def pencil_invariants(M, generic=False) -> PencilInvariants:
    """Kronecker invariants of t*M + u*M^T for a square Scalar matrix."""
    n = len(M)
    if any(len(r) != n for r in M):
        from .errors import DimensionMismatch

        raise DimensionMismatch("pencil requires a square matrix")
    if n == 0:
        return PencilInvariants(0, 0, (), (), (), ())
    if generic:
        return _invariants_generic(M, n)
    return _invariants_qi(_to_qi_matrix(M))


@lru_cache(maxsize=_CACHE_SIZE)
def _invariants_qi(Q) -> PencilInvariants:
    """Kronecker invariants of a constant pencil, by fraction-free ranks.

    Divisors that do not split over Q(i) are missed by the roots, so the
    blocks found do not tile the pencil; the Smith form decides those.
    """
    n = len(Q)
    M = _gaussian_int_matrix(Q)
    Mt = tuple([list(col) for col in zip(*part)] for part in M)
    rank_m = _gaussian_rank(M)
    prank = 0
    for k in range(n + 1):
        prank = max(prank, _gaussian_rank(_gcomb(((k, 0), M), ((1, 0), Mt))))
        if prank == n:
            break
    s = n - prank
    right = _minimal_indices(M, Mt, s, n, _gaussian_grid_rank)
    left = _minimal_indices(Mt, M, s, n, _gaussian_grid_rank)
    finite = []
    for root, bound in _divisor_roots(M, Mt, prank):
        # jets of q*(t*M + M^T) at t = root, with q*root a Gaussian integer
        q = lcm(root.re.denominator, root.im.denominator)
        value = _gcomb(((int(root.re * q), int(root.im * q)), M), ((q, 0), Mt))
        exps = _jet_exponents(value, _gcomb(((q, 0), M)), s, n, bound)
        key = _divisor_key((Scalar.const(-root), Scalar.const(QI_ONE)))
        finite.extend((key, e) for e in exps)
    # infinite divisors: reversed pencil at 0 (value M, derivative M^T), up
    # to the regular size the finite divisors leave
    regular = n - sum(right) - sum(left) - s - sum(e for _, e in finite)
    infinite = _jet_exponents(M, Mt, s, n, regular)
    try:
        return _assemble(n, rank_m, left, right, finite, infinite)
    except AssertionError:
        Qt = transpose(Q)
        return _invariants_smith(
            Q, Qt, n, rank_m, prank, QI_ZERO, _factor_qi_upoly_str
        )


def _divisor_roots(M, Mt, prank):
    """(root, bound) for the Gaussian-rational roots of a multiple of the
    product of the finite divisors of t*M + M^T; bound is the root's
    multiplicity in it, an upper bound for its exponents' sum.

    The multiple is the gcd of up to two maximal minors of the realified
    pencil, which is equivalent over C to the pencil plus its conjugate, so
    its divisor product is a multiple of the pencil's.
    """
    if not prank:
        return []
    (P, w), (Pt, _) = _realify(M), _realify(Mt)
    N, r = len(P), w * prank
    want = 1 if r == N else 2  # a regular pencil has one maximal minor
    keys = []
    g = None
    for k in range(2 * (N + 1)):
        kk, rev = divmod(k, 2)
        cand = [[kk * x + y for x, y in zip(a, b)] for a, b in zip(P, Pt)]
        if rev:
            cand.reverse()
        rank, rows, cols = _rank_int(cand)
        if rank != r:
            continue
        key = (tuple(sorted(N - 1 - i if rev else i for i in rows)), tuple(cols))
        if key in keys:
            continue
        keys.append(key)
        minor = _interp_minor_poly(P, Pt, *key)
        g = _int_poly_primitive(minor) if g is None else _int_poly_gcd(g, minor)
        if len(keys) == want:
            break
    if len(g) < 2:
        return []
    factors = _factor_qi_coeffs(tuple(QI(c) for c in g))
    return [(-cs[0], e) for cs, e in factors if len(cs) == 2]


def _interp_minor_poly(P, Pt, rows, cols):
    """Integer coefficients of the (rows, cols) minor of t*P + Pt.

    Newton's form on the points 0..r: the k-th forward difference of the
    values of an integer polynomial is k! times an integer.
    """
    r = len(rows)
    diffs = [
        _bareiss_det_int([[p * P[i][j] + Pt[i][j] for j in cols] for i in rows])
        for p in range(r + 1)
    ]
    newton = []
    for k in range(r + 1):
        newton.append(diffs[0] // factorial(k))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # Horner's rule in the basis t(t-1)...(t-k+1)
    coeffs = [newton[r]]
    for k in range(r - 1, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= k * c
        shifted[0] += newton[k]
        coeffs = shifted
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _jet_exponents(value, slope, s, n, bound):
    """Divisor exponents at one point from the nullities of its jet matrices.

    The jet matrix of order j is block upper bidiagonal, with the pencil's
    value at the point on the diagonal and its derivative (slope) above it.
    The chain stops when the exponents reach bound, an upper bound for their
    sum; s is the number of right minimal indices.
    """
    at_least = []  # at_least[j - 1]: number of exponents >= j
    prev = 0
    while sum(at_least) < bound:
        j = len(at_least) + 1
        grid = [
            [value if c == r else slope if c == r + 1 else None for c in range(j)]
            for r in range(j)
        ]
        nul = j * n - _gaussian_grid_rank(grid)
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


def _factor_qi_upoly_str(p: UPoly):
    return tuple(
        (_divisor_key(tuple(Scalar.const(c) for c in cs)), e)
        for cs, e in _factor_qi_upoly(p)
    )


def _factor_scalar_upoly_str(p: UPoly):
    return tuple((_divisor_key(cs), e) for cs, e in _factor_scalar_upoly(p))


def _invariants_generic(M, n) -> PencilInvariants:
    Mt = transpose(M)
    rank_m = mat_rank(M)
    prank = _pencil_rank(M, Mt, n, Scalar.rational)
    from .scalars import SC_ZERO

    return _invariants_smith(
        M, Mt, n, rank_m, prank, SC_ZERO, _factor_scalar_upoly_str
    )


def _smith_divisors(M, Mt, n, factorizer):
    pencil = [[UPoly((Mt[i][j], M[i][j])) for j in range(n)] for i in range(n)]
    finite = []
    for f in smith_invariant_factors(pencil):
        finite.extend(factorizer(f))
    reversed_pencil = [
        [UPoly((M[i][j], Mt[i][j])) for j in range(n)] for i in range(n)
    ]
    infinite = []
    for f in smith_invariant_factors(reversed_pencil):
        e = f.trailing_zero_count()
        if e:
            infinite.append(e)
    return finite, infinite


def _invariants_smith(M, Mt, n, rank_m, prank, zero, factorizer) -> PencilInvariants:
    def grid_rank(grid):
        return mat_rank(_block_rows(grid, zero))

    nidx = n - prank
    right = _minimal_indices(M, Mt, nidx, n, grid_rank)
    left = _minimal_indices(Mt, M, nidx, n, grid_rank)
    finite, infinite = _smith_divisors(M, Mt, n, factorizer)
    return _assemble(n, rank_m, left, right, finite, infinite)


# ---------------------------------------------------------------------------
# Congruence test and canonical decomposition
# ---------------------------------------------------------------------------
def is_congruent(M, N) -> bool:
    if len(M) != len(N):
        return False
    return pencil_invariants(M) == pencil_invariants(N)


def congruence_transform(M, S):
    return mat_mul(mat_mul(transpose(S), M), S)


@lru_cache(maxsize=_CACHE_SIZE)
def block_invariants(b: CanonicalBlock) -> PencilInvariants:
    return pencil_invariants(canonical_block_matrix(b))


def _candidate_regular_blocks(divisor, exp, max_size):
    """Blocks whose finite divisors could include (divisor, exp)."""
    out = []
    coeffs, deg = divisor, len(divisor) - 1
    if deg == 1:
        root = -Scalar.parse(coeffs[0]).as_qi()
        cands = {-root}
        if root:
            cands.add(-root.inverse())
        for c in cands:
            if c == QI_ONE or c == QI(-1):
                continue
            if 2 * exp <= max_size:
                out.append(CanonicalBlock("B", 2 * exp, Scalar.const(c)))
    for size in range(1, max_size + 1):
        if size % 2 == 1:
            out.append(CanonicalBlock("C", size))
        else:
            k = size // 2
            out.append(CanonicalBlock("E", size))
            if k % 2 == 0:
                out.append(CanonicalBlock("D", size))
            else:
                out.append(CanonicalBlock("F", size))
    return out


def canonical_decomposition(M):
    """The unique multiset of canonical blocks whose sum is congruent to M."""
    inv = pencil_invariants(M)
    return decomposition_from_invariants(inv)


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
    if inv.left_indices != inv.right_indices:
        raise DictionaryMiss(
            "left and right minimal indices differ; not a congruence pencil"
        )
    blocks = [CanonicalBlock("A", 2 * k + 1) for k in inv.right_indices]
    rank_left = inv.rank - sum(block_invariants(b).rank for b in blocks)
    size_left = inv.size - sum(b.size for b in blocks)
    found = _search_regular(
        Counter(inv.finite_divisors),
        Counter(inv.infinite_divisors),
        rank_left,
        size_left,
    )
    if found is None:
        raise DictionaryMiss(
            f"no canonical block multiset matches the invariants of size {inv.size}"
        )
    blocks.extend(found)
    result = normalize_blocks(blocks)
    _verify_decomposition(result, inv)
    return result


def _search_regular(divs: Counter, infs: Counter, rank_left, size_left):
    divs = +divs
    infs = +infs
    if not divs and not infs:
        return [] if rank_left == 0 and size_left == 0 else None
    if not divs:
        return None  # leftover infinite divisors can only ride with finite ones
    div, exp = max(divs)
    for cand in _candidate_regular_blocks(div, exp, size_left):
        binv = block_invariants(cand)
        need_fin = Counter(binv.finite_divisors)
        need_inf = Counter(binv.infinite_divisors)
        if (div, exp) not in need_fin:
            continue
        if binv.rank > rank_left or cand.size > size_left:
            continue
        if any(need_fin[k] > divs[k] for k in need_fin):
            continue
        if any(need_inf[k] > infs[k] for k in need_inf):
            continue
        rest = _search_regular(
            divs - need_fin,
            infs - need_inf,
            rank_left - binv.rank,
            size_left - cand.size,
        )
        if rest is not None:
            return [cand] + rest
    return None


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
