"""Leibniz algebras given by structure constants, and their structural data.

An n-dimensional algebra is the tensor c[i][j][k] with
[x_i, x_j] = sum_k c[i][j][k] x_k.  All predicates are evaluated exactly;
parametric entries are treated generically (rank over the rational-function
field), so callers wanting a specific parameter value substitute first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, SingularMatrix
from .linalg import Subspace, freeze, inverse, nullspace, rref
from .scalars import SC_ZERO, substitute


@dataclass(frozen=True)
class StructureConstants:
    dim: int
    tensor: tuple  # tensor[i][j] is the coefficient vector of [x_i, x_j]
    constraints: tuple = ()
    label: str | None = None
    basis: tuple | None = None  # display names, default x1..xn

    def __post_init__(self):
        n = self.dim
        if len(self.tensor) != n or any(
            len(row) != n or any(len(v) != n for v in row) for row in self.tensor
        ):
            raise DimensionMismatch("structure tensor is not dim^3")
        if self.basis is not None:
            default = tuple(f"x{k + 1}" for k in range(n))
            if tuple(self.basis) == default:
                object.__setattr__(self, "basis", None)

    @staticmethod
    def from_products(dim, products, constraints=(), label=None, basis=None):
        """products: mapping (i, j) 1-based -> list of (k, Scalar)."""
        t = [[[SC_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in products.items():
            for k, coeff in terms:
                t[i - 1][j - 1][k - 1] = t[i - 1][j - 1][k - 1] + coeff
        return StructureConstants(
            dim,
            tuple(tuple(tuple(v) for v in row) for row in t),
            tuple(constraints),
            label,
            tuple(basis) if basis else None,
        )

    def basis_names(self):
        if self.basis:
            return self.basis
        return tuple(f"x{k + 1}" for k in range(self.dim))

    def products(self):
        """Nonzero products as {(i, j) 1-based: [(k, Scalar), ...]}."""
        out = {}
        for i in range(self.dim):
            for j in range(self.dim):
                terms = [
                    (k + 1, c) for k, c in enumerate(self.tensor[i][j]) if c
                ]
                if terms:
                    out[(i + 1, j + 1)] = terms
        return out

    def parameters(self):
        names = set()
        for row in self.tensor:
            for vec in row:
                for c in vec:
                    names.update(c.parameters())
        return tuple(sorted(names))


def bracket(A: StructureConstants, u, v):
    """Bilinear extension of the bracket to coefficient vectors."""
    n = A.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatch("vectors must match the algebra dimension")
    out = [SC_ZERO] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = A.tensor[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            cij = ui * vj
            for k, c in enumerate(row[j]):
                if c:
                    out[k] = out[k] + cij * c
    return tuple(out)


def verify_leibniz(A: StructureConstants) -> bool:
    """Left Leibniz identity [a,[b,c]] = [[a,b],c] + [b,[a,c]] on basis triples.

    Both sides are summed over the nonzero products only and compared as
    {k: nonzero coefficient of x_k}; scalars are canonical, so equal sides
    are equal dictionaries.
    """
    prods = A.products()
    for a, b, c in product(range(1, A.dim + 1), repeat=3):
        lhs = [(s, a, k) for k, s in prods.get((b, c), ())]
        rhs = [(s, k, c) for k, s in prods.get((a, b), ())]
        rhs += [(s, b, k) for k, s in prods.get((a, c), ())]
        if _combine(prods, lhs) != _combine(prods, rhs):
            return False
    return True


def _combine(prods, weighted):
    """sum of s [x_i, x_j] over (s, i, j), as {k: nonzero coefficient}."""
    out = {}
    for s, i, j in weighted:
        for k, c in prods.get((i, j), ()):
            out[k] = out[k] + s * c if k in out else s * c
    return {k: v for k, v in out.items() if v}


def derived_subalgebra(A: StructureConstants) -> Subspace:
    vecs = [A.tensor[i][j] for i in range(A.dim) for j in range(A.dim)]
    return Subspace.span(A.dim, vecs)


def leib_ideal(A: StructureConstants) -> Subspace:
    """span{[u, u]}, computed by polarization (characteristic zero)."""
    n = A.dim
    vecs = [A.tensor[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vecs.append(
                tuple(x + y for x, y in zip(A.tensor[i][j], A.tensor[j][i]))
            )
    return Subspace.span(n, vecs)


def product_subspace(A: StructureConstants, U: Subspace, W: Subspace) -> Subspace:
    vecs = [bracket(A, u, w) for u in U.basis for w in W.basis]
    return Subspace.span(A.dim, vecs)


def lower_central_series(A: StructureConstants):
    """A^1 = A, A^i = [A, A^{i-1}], until stabilization."""
    full = Subspace.full(A.dim)
    chain = [full]
    while True:
        nxt = product_subspace(A, full, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def derived_series(A: StructureConstants):
    """A^(1) = A, A^(i) = [A^(i-1), A^(i-1)], until stabilization."""
    chain = [Subspace.full(A.dim)]
    while True:
        nxt = product_subspace(A, chain[-1], chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def is_nilpotent(A: StructureConstants) -> bool:
    return lower_central_series(A)[-1].is_zero()


def is_solvable(A: StructureConstants) -> bool:
    return derived_series(A)[-1].is_zero()


def is_lie(A: StructureConstants) -> bool:
    return leib_ideal(A).is_zero()


def left_center(A: StructureConstants) -> Subspace:
    """{a : [a, x] = 0 for all x}."""
    return _center_nullspace(A, left=True)


def right_center(A: StructureConstants) -> Subspace:
    """{a : [x, a] = 0 for all x}."""
    return _center_nullspace(A, left=False)


def center(A: StructureConstants) -> Subspace:
    return left_center(A).intersect(right_center(A))


def _center_nullspace(A, left):
    n = A.dim
    rows = []
    for i in range(n):
        for k in range(n):
            if left:
                rows.append(tuple(A.tensor[j][i][k] for j in range(n)))
            else:
                rows.append(tuple(A.tensor[i][j][k] for j in range(n)))
    red, _ = rref(rows)
    return Subspace(n, nullspace(red, ncols=n))


def change_of_basis(A: StructureConstants, P) -> StructureConstants:
    """Structure constants in the basis y_i = sum_j P[i][j] x_j."""
    n = A.dim
    if len(P) != n or any(len(r) != n for r in P):
        raise DimensionMismatch("basis-change matrix has wrong shape")
    try:
        Pinv = inverse(P)
    except SingularMatrix:
        raise SingularMatrix("basis-change matrix is singular")
    # [y_i, y_j] = sum_{a,b} P[i][a] P[j][b] [x_a, x_b], re-expressed via P^{-1}
    new = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = [SC_ZERO] * n
            for a in range(n):
                pia = P[i][a]
                if not pia:
                    continue
                for b in range(n):
                    pjb = P[j][b]
                    if not pjb:
                        continue
                    coef = pia * pjb
                    for k, c in enumerate(A.tensor[a][b]):
                        if c:
                            w[k] = w[k] + coef * c
            # coordinates of w in the y basis: w ->  w . P^{-1}
            new[i][j] = tuple(
                sum((w[k] * Pinv[k][m] for k in range(n) if w[k]), SC_ZERO)
                for m in range(n)
            )
    return StructureConstants(
        n, freeze(tuple(r) for r in new), A.constraints, A.label, A.basis
    )


def direct_sum(A: StructureConstants, B: StructureConstants) -> StructureConstants:
    n, m = A.dim, B.dim
    N = n + m
    t = [[[SC_ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[i][j][k] = A.tensor[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                t[n + i][n + j][n + k] = B.tensor[i][j][k]
    label = None
    if A.label and B.label:
        label = f"{A.label}+{B.label}"
    return StructureConstants(
        N,
        tuple(tuple(tuple(v) for v in row) for row in t),
        tuple(dict.fromkeys(A.constraints + B.constraints)),
        label,
    )


def substitute_algebra(A: StructureConstants, bindings) -> StructureConstants:
    """Instantiate parameters; enforces the algebra's constraints."""
    t = tuple(
        tuple(
            tuple(substitute(c, bindings, A.constraints) for c in vec)
            for vec in row
        )
        for row in A.tensor
    )
    kept = tuple(
        con for con in A.constraints if con.name not in bindings
    )
    return StructureConstants(A.dim, t, kept, A.label, A.basis)


def quotient_bracket_is_skew(A: StructureConstants) -> bool:
    """True iff the induced bracket on A/Leib(A) is skew-symmetric."""
    leib = leib_ideal(A)
    n = A.dim
    for i in range(n):
        for j in range(i, n):
            symm = tuple(
                x + y for x, y in zip(A.tensor[i][j], A.tensor[j][i])
            )
            if any(symm) and not leib.contains(symm):
                return False
    return True


def leib_annihilates(A: StructureConstants) -> bool:
    """True iff [Leib(A), A] = 0."""
    leib = leib_ideal(A)
    full = Subspace.full(A.dim)
    return product_subspace(A, leib, full).is_zero()
