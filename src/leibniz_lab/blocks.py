"""The six canonical bilinear-form block families and the form/algebra maps.

The catalogue (size = matrix dimension), with the Kronecker invariants of
the pencil t*M + M^T of each block, from which pencil reads a decomposition:
    A: odd sizes 2k + 1, the minimal indices k, k (A_1 is the 1x1 zero block)
    B: even sizes 2e, parameter c: divisors (t + c)^e and (t + 1/c)^e, with
       the infinite divisor of exponent e in place of (t + 1/c)^e if c = 0
    C: odd sizes e: the divisor (t + 1)^e
    D: sizes 2e with e even: the divisor (t + 1)^e twice
    E: even sizes e: the divisor (t - 1)^e
    F: sizes 2e with e odd: the divisor (t - 1)^e twice
kinds_for_size states which kinds exist at each size.  The B parameter may
not be 1 or -1 (B_PARAM_EXCLUDED): the roots -1 and 1 are the only ones
equal to their own reciprocal, so their divisors do not come in the
reciprocal pairs of a B block, and C, D, E and F cover them.

A nilpotent algebra with one-dimensional derived subalgebra corresponds to
its form matrix N via [x_i, x_j] = N[i][j] x_n with x_n annihilating.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import StructureConstants, bracket, derived_subalgebra
from .errors import DenominatorVanishes, InvalidBlock, PreconditionFailed
from .linalg import block_diag, identity, rank, rank_qi, transpose
from .scalars import (
    B_PARAM_EXCLUDED,
    QI,
    SC_ONE,
    SC_ZERO,
    Scalar,
    b_constraint,
    parse_scalar,
    substitute,
)


def kinds_for_size(size: int):
    """Block kinds that exist at one size, in table reading order."""
    if size % 2 == 1:
        return ("A", "C")
    if size == 2:
        return ("F", "E", "B")
    k = size // 2
    kinds = ["B"]
    if k % 2 == 0:
        kinds.append("D")
    kinds.append("E")
    if k % 2 == 1:
        kinds.append("F")
    return tuple(kinds)


@dataclass(frozen=True)
class CanonicalBlock:
    kind: str
    size: int
    parameter: Scalar | None = None

    def __post_init__(self):
        kind, size = self.kind, self.size
        if size < 1:
            raise InvalidBlock("block size must be positive")
        if kind not in kinds_for_size(size):
            raise InvalidBlock(f"no {kind!r}-block of size {size}")
        if kind == "B":
            if self.parameter is None:
                raise InvalidBlock("B-blocks carry a parameter")
            if self.parameter.is_constant() and self.parameter.as_qi() in B_PARAM_EXCLUDED:
                raise InvalidBlock("B-block parameter may not be 1 or -1")
        elif self.parameter is not None:
            raise InvalidBlock(f"{kind}-blocks carry no parameter")

    @property
    def name(self) -> str:
        if self.kind == "B":
            return f"B{self.size}({self.parameter})"
        return f"{self.kind}{self.size}"

    def structural_name(self) -> str:
        return f"{self.kind}{self.size}"

    def constraints(self):
        if self.kind == "B" and not self.parameter.is_constant():
            (name,) = self.parameter.parameters()
            return (b_constraint(name),)
        return ()


_BLOCK_NAME_RE = re.compile(r"([A-F])(\d+)(?:\((.*)\))?\Z")


def parse_block_name(text: str) -> CanonicalBlock:
    m = _BLOCK_NAME_RE.match(text.strip())
    if not m:
        raise InvalidBlock(f"cannot parse block name {text!r}")
    kind, size, param = m.group(1), int(m.group(2)), m.group(3)
    return CanonicalBlock(
        kind, size, parse_scalar(param) if param is not None else None
    )


def canonical_block_matrix(b: CanonicalBlock):
    """The exact canonical matrix of the block, as a Scalar matrix."""
    n = b.size
    M = [[SC_ZERO] * n for _ in range(n)]
    if b.kind == "A":
        k = (n - 1) // 2
        for r in range(k):
            M[r][k + 1 + r] = SC_ONE
            M[k + 1 + r][r + 1] = SC_ONE
    elif b.kind == "B":
        k = n // 2
        c = b.parameter
        for r in range(k):
            for s in range(k):
                if r + s == k - 1:
                    M[r][k + s] = SC_ONE
                    M[k + r][s] = c
                elif r + s == k and r >= 1:
                    M[r][k + s] = c
                    M[k + r][s] = SC_ONE
    elif b.kind == "C":
        k = (n - 1) // 2
        for r in range(n):
            M[r][n - 1 - r] = SC_ONE
        for r in range(1, n):
            M[r][n - r] = SC_ONE if r <= k else -SC_ONE
    elif b.kind == "D":
        k = n // 2
        for r in range(k):
            for s in range(k):
                if r + s == k - 1:
                    M[r][k + s] = SC_ONE
                    M[k + r][s] = SC_ONE
                elif r + s == k and r >= 1:
                    M[r][k + s] = SC_ONE
                    M[k + r][s] = -SC_ONE
    elif b.kind == "E":
        k = n // 2
        for r in range(n):
            M[r][n - 1 - r] = SC_ONE if r < k else -SC_ONE
        for r in range(1, n):
            M[r][n - r] = SC_ONE
    elif b.kind == "F":
        k = n // 2
        for r in range(k):
            for s in range(k):
                if r + s == k - 1:
                    M[r][k + s] = SC_ONE
                    M[k + r][s] = -SC_ONE
                elif r + s == k and r >= 1:
                    M[r][k + s] = SC_ONE
                    M[k + r][s] = SC_ONE
    return tuple(tuple(row) for row in M)


def direct_sum_matrix(blocks):
    return block_diag([canonical_block_matrix(b) for b in blocks])


def is_skew_matrix(M) -> bool:
    n = len(M)
    return all(not (M[i][j] + M[j][i]) for i in range(n) for j in range(i, n))


def algebra_from_blocks(blocks, label=None) -> StructureConstants:
    """dim = sum(sizes) + 1 algebra with [x_i, x_j] = N[i][j] x_n."""
    N = direct_sum_matrix(blocks)
    return algebra_from_form(N, label=label, constraints=_block_constraints(blocks))


def _block_constraints(blocks):
    out = []
    for b in blocks:
        for con in b.constraints():
            if con not in out:
                out.append(con)
    return tuple(out)


def algebra_from_form(N, label=None, constraints=()) -> StructureConstants:
    m = len(N)
    n = m + 1
    t = [[[SC_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(m):
            t[i][j][n - 1] = N[i][j]
    return StructureConstants(
        n,
        tuple(tuple(tuple(v) for v in row) for row in t),
        tuple(constraints),
        label,
    )


def form_from_algebra(A: StructureConstants):
    """Extract the bilinear form of a nilpotent algebra with dim A^2 = 1.

    Returns (form matrix over the coordinate complement, spanning vector x_n
    of A^2), with [x_u, x_v] = form[u][v] x_n for u, v in the complement.
    The complement is the coordinate complement of the echelon pivot.

    Precondition: A^2 = span(x_n) and [x_n, A] = [A, x_n] = 0; otherwise
    PreconditionFailed.  This is equivalent to "A is Leibniz, nilpotent and
    dim A^2 = 1".  (<=) Every product lies on the line of x_n, which kills
    everything, so every double product is 0 and A^3 = 0.  (=>) Nilpotency
    and dim A^2 = 1 force A^3 = [A, A^2] = 0, and then
    [[a,b],c] = [a,[b,c]] - [b,[a,c]] lies in A^3 = 0.
    """
    derived = derived_subalgebra(A)
    if derived.dim != 1:
        raise PreconditionFailed(f"dim A^2 = {derived.dim}, need 1")
    xn = derived.basis[0]
    for e in identity(A.dim):
        if any(bracket(A, xn, e)) or any(bracket(A, e, xn)):
            raise PreconditionFailed("A^2 does not annihilate the algebra")
    pivot = next(k for k, c in enumerate(xn) if c)  # coefficient 1 (echelon)
    comp = [k for k in range(A.dim) if k != pivot]
    form = tuple(tuple(A.tensor[u][v][pivot] for v in comp) for u in comp)
    return form, xn


def has_zero_summand(M) -> bool:
    """True iff some nonzero v has Mv = 0 and M^T v = 0 (split detector),
    for generic values of the parameters.

    [M; M^T] is first ranked in integers at one point, where the k-th
    parameter in name order takes the value k + 2: distinct values, none
    of them 0 or +-1, the special values of a B parameter.  A rank at a
    point is at most the generic rank, so full rank there proves that there
    is no zero summand.  Only a lower rank at the point, or a denominator
    vanishing there, leads to the generic Scalar rank.
    """
    m = len(M)
    if m == 0:
        return False
    values = _at_split_point(M)
    if values is not None and rank_qi(values + transpose(values)) == m:
        return False
    stacked = tuple(M) + tuple(transpose(M))
    return rank(stacked) < m


def _at_split_point(M):
    """M at the point of has_zero_summand, as a QI matrix, or None if a
    denominator vanishes there."""
    names = sorted({p for row in M for c in row if not c.is_constant() for p in c.parameters()})
    point = {p: QI(k) for k, p in enumerate(names, start=2)}
    try:
        return tuple(
            tuple(c.as_qi() if c.is_constant() else substitute(c, point).as_qi() for c in row)
            for row in M
        )
    except DenominatorVanishes:
        return None


def b_param_normalize(c: Scalar) -> Scalar:
    """Canonical representative of {c, 1/c} under the (re, im) lex order."""
    if not c.is_constant():
        return c
    v = c.as_qi()
    if not v:
        return c
    w = v.inverse()
    return Scalar.const(min(v, w, key=lambda q: q.sort_key()))


_KIND_RANK = {k: r for r, k in enumerate("ABCDEF")}


def block_sort_key(b: CanonicalBlock):
    pkey = ""
    if b.parameter is not None:
        pkey = str(b.parameter)
    return (-b.size, _KIND_RANK[b.kind], pkey)


def normalize_blocks(blocks):
    """Canonical multiset: B parameters normalized, deterministic order."""
    out = []
    for b in blocks:
        if b.kind == "B":
            out.append(CanonicalBlock("B", b.size, b_param_normalize(b.parameter)))
        else:
            out.append(b)
    return tuple(sorted(out, key=block_sort_key))


def blocks_name(blocks) -> str:
    return " ".join(b.name for b in blocks)
