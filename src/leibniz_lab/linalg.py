"""Exact linear algebra over Scalar entries, and an integer kernel.

Matrices are tuples of tuples (rows) of Scalars; elimination uses only +,
-, *, /, unary - and truthiness (nonzero test).  Subspaces are kept in
reduced row echelon form, so subspace equality is structural.

The integer kernel is fraction-free elimination on lists of int lists
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): rank_int, bareiss_det_int and
mul_int, with gaussian_int_matrix and realify to bring a constant Q(i)
matrix to integers.  The pencil engine ranks constant pencils with it.
rank_qi ranks one constant Q(i) matrix with it; blocks.has_zero_summand
uses it to rank a form at one integer point of its parameters, and falls
back to the Scalar rank only when the rank there is low.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DimensionMismatch, SingularMatrix
from .scalars import QI, SC_ONE, SC_ZERO, Scalar


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    if shape(a)[1] != shape(b)[0]:
        raise DimensionMismatch(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = transpose(b)
    return tuple(
        tuple(_dot(row, col) for col in bt)
        for row in a
    )


def _dot(u, v):
    acc = None
    for x, y in zip(u, v):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    if acc is None:
        acc = u[0] - u[0] if u else SC_ZERO
    return acc


def mat_vec(m, v):
    if shape(m)[1] != len(v):
        raise DimensionMismatch("matrix/vector size mismatch")
    return tuple(_dot(row, v) for row in m)


def identity(n):
    return tuple(
        tuple(SC_ONE if i == j else SC_ZERO for j in range(n)) for i in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def block_diag(blocks):
    n = sum(shape(b)[0] for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        k = shape(b)[0]
        for r in b:
            rows.append(tuple([SC_ZERO] * off + list(r) + [SC_ZERO] * (n - off - k)))
        off += k
    return tuple(rows)


def rref(rows):
    """Reduced row echelon form.  Returns (rows as tuples, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return freeze(m[:r]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis (tuple of row vectors) of the right null space."""
    if ncols is None:
        ncols = shape(rows)[1]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [SC_ZERO] * ncols
        v[fc] = SC_ONE
        for r, pc in enumerate(pivots):
            x = red[r][fc]
            if x:
                v[pc] = -x
        basis.append(tuple(v))
    return tuple(basis)


def inverse(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("inverse requires a square matrix")
    aug = [list(r) + list(e) for r, e in zip(rows, identity(n))]
    red, pivots = rref(aug)
    if len(red) < n or list(pivots[:n]) != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return freeze(r[n:] for r in red)


def det(rows):
    """Determinant by fraction-producing Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return SC_ONE
    m = [list(r) for r in rows]
    sign = 1
    acc = None
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            x = m[0][0]
            return x - x  # structured zero of the element type
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][k]
        acc = p if acc is None else acc * p
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return acc if sign > 0 else -acc


# ---------------------------------------------------------------------------
# The integer kernel: matrices are lists of int lists
# ---------------------------------------------------------------------------
def bareiss_det_int(m):
    """Determinant of a square integer matrix (a list of int lists), by
    Bareiss's fraction-free elimination: every division is exact."""
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


def rank_int(m):
    """(rank, pivot row indices, pivot column indices) of an integer matrix
    m, a list of int lists that the call reduces in place: its first rank
    rows end as the pivot rows, in echelon form, and the others as zero rows.

    Fraction-free elimination: a row with a nonzero entry x in the pivot
    column becomes pv*row - x*pivot_row divided by its content, and the
    other rows are left alone.  Rows are only ever scaled by nonzero
    integers, so the pivots are those of elimination over Q.
    """
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


def mul_int(A, B):
    """A*B for integer matrices (lists of int lists), by rows of B."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def gaussian_int_matrix(M):
    """c*M as a primitive Gaussian integer matrix (re rows, im rows) of int
    tuples, for M with QI or constant Scalar entries, c the rational that
    clears the denominators and the content.

    c*M has the rank of M, and t*cM + u*cM^T = c(t*M + u*M^T), so every
    pencil invariant is unchanged too.
    """
    Q = [[x if isinstance(x, QI) else x.as_qi() for x in row] for row in M]
    den = lcm(*(f.denominator for row in Q for x in row for f in (x.re, x.im)))
    re = [[x.re.numerator * (den // x.re.denominator) for x in row] for row in Q]
    im = [[x.im.numerator * (den // x.im.denominator) for x in row] for row in Q]
    g = gcd(*(v for part in (re, im) for row in part for v in row)) or 1
    return tuple(tuple(tuple(v // g for v in row) for row in part) for part in (re, im))


def realify(*mats):
    """Gaussian integer matrices (re rows, im rows) as integer matrices, and
    w: a rank over Q(i) of any block matrix made of them is its rank over Q
    divided by w.  If all are real, w = 1 and X becomes Re X; otherwise
    w = 2 and X becomes its realification [[Re, -Im], [Im, Re]], the matrix
    of X on Q^2n."""
    if not any(any(map(any, im)) for _, im in mats):
        return [[list(row) for row in re] for re, _ in mats], 1
    return [
        [[*a, *(-y for y in b)] for a, b in zip(re, im)] + [[*b, *a] for a, b in zip(re, im)]
        for re, im in mats
    ], 2


def rank_qi(M):
    """Rank over Q(i) of a matrix with QI or constant Scalar entries."""
    (m,), w = realify(gaussian_int_matrix(M))
    return rank_int(m)[0] // w


class Subspace:
    """Subspace of the coordinate space, basis in reduced row echelon form."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis, _canonical=False):
        if not _canonical:
            basis, _ = rref(basis)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", freeze(basis))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def span(ambient, vectors) -> "Subspace":
        vectors = [v for v in vectors if any(v)]
        return Subspace(ambient, vectors)

    @staticmethod
    def zero(ambient) -> "Subspace":
        return Subspace(ambient, (), _canonical=True)

    @staticmethod
    def full(ambient) -> "Subspace":
        return Subspace(ambient, identity(ambient), _canonical=True)

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, vector) -> bool:
        if len(vector) != self.ambient:
            raise DimensionMismatch("vector has wrong length")
        v = list(vector)
        for row in self.basis:
            pc = next(k for k, x in enumerate(row) if x)
            if v[pc]:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, row)]
        return not any(v)

    def contains_subspace(self, other) -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, other) -> "Subspace":
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other) -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        # columns of the system are coefficients (x, y) with x*U = y*W
        negated = tuple(tuple(-x for x in v) for v in other.basis)
        stacked = transpose(tuple(self.basis) + negated)
        sols = nullspace(stacked, ncols=self.dim + other.dim)
        vecs = []
        for s in sols:
            x = s[: self.dim]
            vec = [SC_ZERO] * self.ambient
            for coef, row in zip(x, self.basis):
                if coef:
                    vec = [a + coef * b for a, b in zip(vec, row)]
            vecs.append(tuple(vec))
        return Subspace.span(self.ambient, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def scalar_matrix(rows_of_strings):
    """Build a Scalar matrix from nested string/int/Scalar entries."""
    out = []
    for row in rows_of_strings:
        out.append(
            tuple(
                x
                if isinstance(x, Scalar)
                else (Scalar.rational(x) if isinstance(x, int) else Scalar.parse(x))
                for x in row
            )
        )
    return tuple(out)
