"""Isomorphism testing and basis-change-invariant data.

For nilpotent algebras with one-dimensional derived subalgebra, isomorphism
is congruence of the extracted bilinear forms; witnesses are produced
best-effort (block permutation plus per-block reciprocal witnesses) and are
always re-verified before being returned.  The 3-dim diagonal families are
separated by the unordered eigenvalue-ratio pair of the generator action.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    StructureConstants,
    change_of_basis,
    derived_series,
    derived_subalgebra,
    left_center,
    leib_ideal,
    lower_central_series,
    right_center,
    verify_leibniz,
)
from .blocks import (
    CanonicalBlock,
    canonical_block_matrix,
    form_from_algebra,
    kinds_for_size,
)
from .errors import PreconditionFailed
from .linalg import Subspace, identity, mat_mul
from .pencil import PencilInvariants, congruence_transform, pencil_invariants
from .scalars import B_PARAM_EXCLUDED, SC_ONE, SC_ZERO, Scalar, qi_sqrt


@dataclass(frozen=True)
class IsoInvariants:
    dim: int
    dim_lower_central: tuple  # dims of A^2, A^3, ...
    dim_derived: tuple  # dims of A^(2), A^(3), ...
    dim_leib: int
    dim_center: int
    dim_left_center: int
    dim_right_center: int
    pencil: PencilInvariants | None

    def to_json(self):
        return {
            "dim": self.dim,
            "lower_central_dims": list(self.dim_lower_central),
            "derived_dims": list(self.dim_derived),
            "leib_dim": self.dim_leib,
            "center_dim": self.dim_center,
            "left_center_dim": self.dim_left_center,
            "right_center_dim": self.dim_right_center,
            "pencil": None
            if self.pencil is None
            else {
                "rank": self.pencil.rank,
                "left_indices": list(self.pencil.left_indices),
                "right_indices": list(self.pencil.right_indices),
                "finite_divisors": [
                    [list(cs), e] for cs, e in self.pencil.finite_divisors
                ],
                "infinite_divisors": list(self.pencil.infinite_divisors),
            },
        }


def iso_invariants(A: StructureConstants) -> IsoInvariants:
    """Isomorphism invariants of a Leibniz algebra.

    Raises PreconditionFailed exactly when A is not Leibniz: the form
    precondition of the pencil step follows from Leibniz, nilpotent and
    dim A^2 = 1 (see form_from_algebra).
    """
    if not verify_leibniz(A):
        raise PreconditionFailed("not a Leibniz algebra")
    lcs = lower_central_series(A)
    ds = derived_series(A)
    derived = derived_subalgebra(A)
    pencil = None
    if lcs[-1].is_zero() and derived.dim == 1:
        form, _ = form_from_algebra(A)
        pencil = pencil_invariants(form)
    left, right = left_center(A), right_center(A)
    return IsoInvariants(
        dim=A.dim,
        dim_lower_central=tuple(s.dim for s in lcs[1:]),
        dim_derived=tuple(s.dim for s in ds[1:]),
        dim_leib=leib_ideal(A).dim,
        dim_center=left.intersect(right).dim,
        dim_left_center=left.dim,
        dim_right_center=right.dim,
        pencil=pencil,
    )


# ---------------------------------------------------------------------------
# Isomorphism of nilpotent algebras with dim A^2 = 1
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    witness: tuple | None  # basis-change matrix P with change_of_basis(A,P)=B

    def to_json(self, invariants_a=None, invariants_b=None, seed=None):
        return {
            "verdict": self.isomorphic,
            "witness": None
            if self.witness is None
            else [[str(x) for x in row] for row in self.witness],
            "invariants": {
                "left": None if invariants_a is None else invariants_a.to_json(),
                "right": None if invariants_b is None else invariants_b.to_json(),
            },
            "seed": seed,
        }


def isomorphic_dim1_nilpotent(A: StructureConstants, B: StructureConstants) -> IsoVerdict:
    if A.parameters() or B.parameters():
        raise PreconditionFailed("constant structure constants required")
    form_a, xa = form_from_algebra(A)
    form_b, xb = form_from_algebra(B)
    if A.dim != B.dim:
        return IsoVerdict(False, None)
    if pencil_invariants(form_a) != pencil_invariants(form_b):
        return IsoVerdict(False, None)
    witness = None
    if A.dim <= 7:
        S = _congruence_witness(form_a, form_b)
        # S acts on x_1..x_{n-1}; extending it by x_n -> x_n needs A^2 = span(x_n)
        n = A.dim
        if S is not None and xa == xb == identity(n)[n - 1]:
            P = [[SC_ZERO] * n for _ in range(n)]
            for i in range(n - 1):
                for j in range(n - 1):
                    P[i][j] = S[j][i]  # P = S^T extended by x_n -> x_n
            P[n - 1][n - 1] = SC_ONE
            P = tuple(tuple(row) for row in P)
            if change_of_basis(A, P).tensor == B.tensor:
                witness = P
    return IsoVerdict(True, witness)


def _split_segments(M):
    """Maximal block-diagonal segmentation of a square matrix."""
    n = len(M)
    segments = []
    start = 0
    while start < n:
        end = start
        k = start
        while k <= end:
            for j in range(end + 1, n):
                if M[k][j] or M[j][k]:
                    end = j
            k += 1
        segments.append((start, end - start + 1))
        start = end + 1
    return segments


def _identify_segment(M, start, size):
    """Match a diagonal segment against the canonical block matrices."""
    sub = tuple(
        tuple(M[start + i][start + j] for j in range(size)) for i in range(size)
    )
    for kind in kinds_for_size(size):
        c = None
        if kind == "B":  # B_size(c) holds c in its bottom-left corner
            c = sub[size - 1][0]
            if not c.is_constant() or c.as_qi() in B_PARAM_EXCLUDED:
                continue
        b = CanonicalBlock(kind, size, c)
        if canonical_block_matrix(b) == sub:
            return b
    return None


def _canonical_layout(M):
    """Blocks in order when M is exactly a direct sum of canonical matrices."""
    out = []
    for start, size in _split_segments(M):
        b = _identify_segment(M, start, size)
        if b is None:
            return None
        out.append((start, b))
    return out


def _b_reciprocal_witness(size, c: Scalar):
    """S with S^T B_size(c) S = B_size(1/c): half swap plus diagonal scaling."""
    k = size // 2
    cinv = c.inverse()
    S = [[SC_ZERO] * size for _ in range(size)]
    for i in range(k):
        S[k + i][i] = SC_ONE
        S[i][k + i] = cinv
    return tuple(tuple(row) for row in S)


def _congruence_witness(Ma, Mb):
    """Best-effort witness S with S^T Ma S = Mb, re-verified before return."""
    if Ma == Mb:
        return identity(len(Ma))
    layout_a = _canonical_layout(Ma)
    layout_b = _canonical_layout(Mb)
    if layout_a is None or layout_b is None:
        return None
    used = set()
    assignment = []
    for start_b, block_b in layout_b:
        match = None
        for idx, (start_a, block_a) in enumerate(layout_a):
            if idx in used:
                continue
            local = _block_witness(block_a, block_b)
            if local is not None:
                match = (idx, start_a, local)
                break
        if match is None:
            return None
        used.add(match[0])
        assignment.append((match[1], start_b, block_b.size, match[2]))
    n = len(Ma)
    S = [[SC_ZERO] * n for _ in range(n)]
    for start_a, start_b, size, local in assignment:
        for i in range(size):
            for j in range(size):
                S[start_a + i][start_b + j] = local[i][j]
    S = tuple(tuple(row) for row in S)
    if congruence_transform(Ma, S) == Mb:
        return S
    return None


def _block_witness(block_a: CanonicalBlock, block_b: CanonicalBlock):
    if block_a.kind != block_b.kind or block_a.size != block_b.size:
        return None
    if block_a.kind != "B":
        return identity(block_a.size)
    ca, cb = block_a.parameter, block_b.parameter
    if ca == cb:
        return identity(block_a.size)
    if ca.is_constant() and cb.is_constant() and ca.as_qi() and ca.inverse() == cb:
        w = _b_reciprocal_witness(block_a.size, ca)
        if congruence_transform(canonical_block_matrix(block_a), w) == (
            canonical_block_matrix(block_b)
        ):
            return w
    return None


# ---------------------------------------------------------------------------
# The diagonal 3-dim family: eigenvalue-ratio invariant
# ---------------------------------------------------------------------------
def type2_ratio_invariant(A: StructureConstants):
    """Unordered eigenvalue-ratio pair of the generator action on A^2."""
    if A.parameters():
        raise PreconditionFailed("substitute a constant value first")
    derived = derived_subalgebra(A)
    if A.dim != 3 or derived.dim != 2:
        raise PreconditionFailed("expected a 3-dim algebra with dim A^2 = 2")
    if not left_center(A).contains_subspace(derived):
        raise PreconditionFailed("A^2 must act trivially on the left")
    pivots = {next(k for k, x in enumerate(v) if x) for v in derived.basis}
    gen = next(k for k in range(A.dim) if k not in pivots)
    # matrix of left multiplication by the generator on the A^2 basis
    cols = []
    for v in derived.basis:
        w = [SC_ZERO] * A.dim
        for j, vj in enumerate(v):
            if vj:
                for k, c in enumerate(A.tensor[gen][j]):
                    if c:
                        w[k] = w[k] + vj * c
        coords = _coords_in_basis(w, derived)
        if coords is None:
            raise PreconditionFailed("A^2 is not invariant under the generator")
        cols.append(coords)
    t11, t22 = cols[0][0], cols[1][1]
    t21, t12 = cols[0][1], cols[1][0]
    tr = t11 + t22
    det = t11 * t22 - t12 * t21
    if det.is_zero():
        raise PreconditionFailed("generator action on A^2 is singular")
    disc = tr * tr - Scalar.rational(4) * det
    root = qi_sqrt(disc.as_qi())
    if root is None:
        raise PreconditionFailed("eigenvalues are not in the scalar field")
    half = Scalar.rational(1, 2)
    lam1 = (tr + Scalar.const(root)) * half
    lam2 = (tr - Scalar.const(root)) * half
    if lam1 == lam2 and (t12 or t21):
        raise PreconditionFailed("generator action is not diagonalizable")
    if lam1.is_zero() or lam2.is_zero():
        raise PreconditionFailed("generator action on A^2 is singular")
    pair = sorted((lam1 / lam2, lam2 / lam1), key=lambda s: s.as_qi().sort_key())
    return tuple(pair)


def _coords_in_basis(w, space: Subspace):
    coords = []
    v = list(w)
    for row in space.basis:
        pc = next(k for k, x in enumerate(row) if x)
        coords.append(v[pc])
        if v[pc]:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


def type2_isomorphic(A: StructureConstants, B: StructureConstants) -> bool:
    return type2_ratio_invariant(A) == type2_ratio_invariant(B)


def dim3_separation_report():
    """Pairs of 3-dim solvable families that iso_invariants cannot separate.

    An empty list means the invariants alone distinguish all six families
    (no isomorphism claim is made for any listed pair).
    """
    from .classify import dim3_solvable_table

    table = dim3_solvable_table()
    invs = [(e.family, iso_invariants(e.algebra)) for e in table]
    unseparated = []
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            if invs[i][1] == invs[j][1]:
                unseparated.append((invs[i][0], invs[j][0]))
    return unseparated


# ---------------------------------------------------------------------------
# Random basis-change fuzzing
# ---------------------------------------------------------------------------
def random_invertible_matrix(n, rng, scale_range=2):
    """Unimodular P L U product with small integer entries."""
    L = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    U = [[SC_ONE if i == j else SC_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            L[i][j] = Scalar.rational(rng.randint(-scale_range, scale_range))
            U[j][i] = Scalar.rational(rng.randint(-scale_range, scale_range))
    perm = list(range(n))
    rng.shuffle(perm)
    P = tuple(
        tuple(SC_ONE if j == perm[i] else SC_ZERO for j in range(n)) for i in range(n)
    )
    return mat_mul(mat_mul(P, tuple(map(tuple, L))), tuple(map(tuple, U)))


@dataclass
class FuzzReport:
    label: str | None
    trials: int
    seed: int
    failures: list

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "label": self.label,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "ok": self.ok,
        }


def random_basis_fuzz(A: StructureConstants, trials: int, seed: int) -> FuzzReport:
    """Invariance of iso data under random exact basis changes."""
    if A.parameters():
        raise PreconditionFailed("constant structure constants required")
    rng = random.Random(seed)
    base = iso_invariants(A)
    eligible = base.pencil is not None
    failures = []
    for t in range(trials):
        P = random_invertible_matrix(A.dim, rng)
        B = change_of_basis(A, P)
        inv = iso_invariants(B)
        if inv != base:
            failures.append(f"trial {t}: invariants changed")
            continue
        if eligible:
            verdict = isomorphic_dim1_nilpotent(A, B)
            if not verdict.isomorphic:
                failures.append(f"trial {t}: congruence verdict flipped")
    return FuzzReport(A.label, trials, seed, failures)
