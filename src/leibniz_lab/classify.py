"""Classification tables: nilpotent dims 4-8, the 2-dim solvable cyclic
algebra, and the six 3-dim solvable families, with verification and
matching against the bundled reference tables.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import combinations_with_replacement, permutations

from .algebra import (
    StructureConstants,
    derived_subalgebra,
    is_lie,
    is_nilpotent,
    is_solvable,
    leib_ideal,
    lower_central_series,
    substitute_algebra,
    verify_leibniz,
)
from .blocks import (
    CanonicalBlock,
    algebra_from_blocks,
    direct_sum_matrix,
    form_from_algebra,
    has_zero_summand,
    is_skew_matrix,
    kinds_for_size,
)
from .errors import PreconditionFailed
from .formats import doc_to_algebra
from .pencil import canonical_decomposition
from .scalars import QI, ParameterConstraint, Scalar

NILPOTENT_COUNTS = {4: 6, 5: 14, 6: 23, 7: 47, 8: 74}


def partitions(m: int):
    """All integer partitions of m, descending lexicographic order."""
    if m < 1:
        raise ValueError("partitions of a positive integer only")
    out = []

    def rec(remaining, maximum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(m, m, [])
    return out


@dataclass(frozen=True)
class BlockMultiset:
    blocks: tuple  # CanonicalBlock, in table order (sizes descending)
    lie_only: bool


def block_multisets(m: int, include_a1=False):
    """Multisets of canonical blocks with sizes forming a partition of m.

    A_1 summands mean a split algebra, so they are excluded from tables;
    pass include_a1=True to enumerate them anyway.  B parameters are fresh
    symbols: plain c for a single B block, else c1, c2, ... in block order.
    Multisets whose direct sum matrix is skew-symmetric produce Lie algebras
    and are marked lie_only.
    """
    out = []
    for partition in partitions(m):
        sizes = sorted(set(partition), reverse=True)
        per_size = []
        for size in sizes:
            count = partition.count(size)
            kinds = [
                k
                for k in kinds_for_size(size)
                if include_a1 or k != "A" or size > 1
            ]
            per_size.append(list(combinations_with_replacement(kinds, count)))

        def expand(idx, chosen):
            if idx == len(per_size):
                out.append(_instantiate(chosen, sizes))
                return
            for combo in per_size[idx]:
                expand(idx + 1, chosen + [combo])

        expand(0, [])
    return out


def _instantiate(chosen, sizes):
    shapes = []
    for size, combo in zip(sizes, chosen):
        for kind in combo:
            shapes.append((kind, size))
    n_b = sum(1 for kind, _ in shapes if kind == "B")
    b_seen = 0
    blocks = []
    for kind, size in shapes:
        if kind == "B":
            b_seen += 1
            name = "c" if n_b == 1 else f"c{b_seen}"
            blocks.append(CanonicalBlock("B", size, Scalar.param(name)))
        else:
            blocks.append(CanonicalBlock(kind, size))
    lie_only = is_skew_matrix(direct_sum_matrix(blocks))
    return BlockMultiset(tuple(blocks), lie_only)


@dataclass(frozen=True)
class ClassificationEntry:
    algebra: StructureConstants
    blocks: tuple | None  # source blocks (nilpotent case)
    label: str
    family: str | None = None  # tag for the solvable cases


@lru_cache(maxsize=None)
def nilpotent_table(n: int):
    """One entry per non-Lie block multiset of total size n - 1, as a
    tuple.  Entries are immutable, so each table is built once per process."""
    if n not in NILPOTENT_COUNTS:
        raise ValueError(f"supported dimensions are 4..8, got {n}")
    entries = []
    item = 0
    for ms in block_multisets(n - 1):
        if ms.lie_only:
            continue
        item += 1
        label = f"nilpotent-dim{n}-item{item}"
        algebra = algebra_from_blocks(ms.blocks, label=label)
        entries.append(ClassificationEntry(algebra, ms.blocks, label))
    return tuple(entries)


def solvable_dim1_table():
    """The unique non-nilpotent solvable case: the 2-dim cyclic algebra."""
    one = Scalar.rational(1)
    algebra = StructureConstants.from_products(
        2,
        {(1, 1): [(2, one)], (1, 2): [(2, one)]},
        label="solvable-dim2-cyclic",
    )
    return [
        ClassificationEntry(algebra, None, "solvable-dim2-cyclic", family="cyclic")
    ]


def dim3_solvable_table():
    """The six solvable families with two-dimensional derived subalgebra."""
    one = Scalar.rational(1)
    alpha = Scalar.param("alpha")
    alpha_con = ParameterConstraint.of("alpha", 0)
    basis = ("x", "y", "z")
    defs = [
        ("family1", {(1, 1): [(3, one)], (1, 3): [(2, one)], (1, 2): [(2, one)]}, ()),
        ("family2", {(1, 3): [(3, alpha)], (1, 2): [(2, one)]}, (alpha_con,)),
        (
            "family3",
            {(1, 3): [(2, one)], (1, 2): [(3, Scalar.rational(-1, 4)), (2, one)]},
            (),
        ),
        (
            "family4",
            {(1, 1): [(3, one)], (1, 2): [(2, one)], (2, 1): [(2, -one)]},
            (),
        ),
        (
            "family5",
            {(1, 3): [(3, alpha)], (1, 2): [(2, one)], (2, 1): [(2, -one)]},
            (alpha_con,),
        ),
        (
            "family6",
            {
                (1, 1): [(3, one)],
                (1, 2): [(2, one)],
                (2, 1): [(2, -one)],
                (1, 3): [(3, Scalar.rational(2))],
                (2, 2): [(3, one)],
            },
            (),
        ),
    ]
    entries = []
    for name, prods, cons in defs:
        label = f"solvable-dim3-{name}"
        algebra = StructureConstants.from_products(
            3, prods, constraints=cons, label=label, basis=basis
        )
        entries.append(ClassificationEntry(algebra, None, label, family=name))
    return entries


# ---------------------------------------------------------------------------
# Entry verification
# ---------------------------------------------------------------------------
def verify_nilpotent_entry(entry: ClassificationEntry):
    """Check all invariants of a nilpotent table entry; returns failures.

    The Leibniz identity is always checked.  When the form precondition
    holds (see form_from_algebra), A is nilpotent with lower central series
    A > A^2 > 0 and dim A^2 = 1; Leib(A) lies in the line A^2, so it equals
    A^2 unless A is Lie, which happens exactly when the form is skew.  Left
    to compute are the skewness of the form, the split test and the scan of
    the last basis vector, which need not span A^2.  Otherwise every
    structural invariant is computed and each failing one is named.  The
    bracket on A/Leib(A) is skew for every algebra, since Leib(A) is spanned
    by the symmetrized products [x_i, x_j] + [x_j, x_i], so it is not checked.
    """
    A = entry.algebra
    fails = []
    if not verify_leibniz(A):
        fails.append("leibniz identity fails")
    try:
        form, _ = form_from_algebra(A)
    except PreconditionFailed as exc:
        return fails + _structural_failures(A, str(exc))
    if is_skew_matrix(form):
        fails += ["algebra is Lie", "Leib(A) differs from A^2"]
    if has_zero_summand(form):
        fails.append("form has a zero summand (split algebra)")
    if not _last_vector_annihilates(A):
        fails.append("x_n does not annihilate the algebra")
    return fails


def _structural_failures(A: StructureConstants, precondition: str):
    """The failures of an algebra outside the form precondition, in the
    order verify_nilpotent_entry reports them."""
    fails = []
    leib = leib_ideal(A)
    if leib.is_zero():
        fails.append("algebra is Lie")
    chain = lower_central_series(A)
    if not chain[-1].is_zero():
        fails.append("algebra is not nilpotent")
    if leib != derived_subalgebra(A):
        fails.append("Leib(A) differs from A^2")
    fails.append(precondition)  # names dim A^2 when it is not 1
    if not _last_vector_annihilates(A):
        fails.append("x_n does not annihilate the algebra")
    if not (len(chain) == 3 and chain[1].dim == 1 and chain[2].is_zero()):
        fails.append("lower central series is not A > A^2 > 0")
    return fails


def _last_vector_annihilates(A: StructureConstants) -> bool:
    """[x_n, A] = [A, x_n] = 0 for the last basis vector x_n."""
    n = A.dim
    return not any(
        any(A.tensor[i][n - 1]) or any(A.tensor[n - 1][i]) for i in range(n)
    )


def verify_solvable_entry(entry: ClassificationEntry, derived_dim):
    A = entry.algebra
    fails = []
    if not verify_leibniz(A):
        fails.append("leibniz identity fails")
    if is_lie(A):
        fails.append("algebra is Lie")
    if is_nilpotent(A):
        fails.append("algebra is nilpotent")
    if not is_solvable(A):
        fails.append("algebra is not solvable")
    dim_derived = derived_subalgebra(A).dim
    if dim_derived != derived_dim:
        fails.append(f"dim A^2 = {dim_derived}, want {derived_dim}")
    return fails


# ---------------------------------------------------------------------------
# Matching generated tables against the bundled reference tables
# ---------------------------------------------------------------------------
def _fixture_text(name: str) -> str:
    return resources.files("leibniz_lab").joinpath("fixtures").joinpath(name).read_text()


def load_reference_table(n: int):
    return [
        doc_to_algebra(doc)
        for doc in json.loads(_fixture_text(f"nilpotent_dim{n}.json"))
    ]


def load_reference_dim8_blocks():
    return [tuple(names) for names in json.loads(_fixture_text("dim8_blocks.json"))]


def _match_key(A: StructureConstants):
    """(key, parameters): matching algebras have equal keys, whatever their
    basis order and parameter names.  The key holds the dimension, the
    parameter count and the entry signature: the multiset of (coefficient,
    on the diagonal) over the nonzero products, parametric ones as "<param>".
    """
    names = set()
    signature = Counter()
    for (i, j), terms in A.products().items():
        for _, c in terms:
            cp = c.parameters()
            names.update(cp)
            signature["<param>" if cp else str(c), i == j] += 1
    params = tuple(sorted(names))
    return (A.dim, len(params), frozenset(signature.items())), params


def _match_up_to_renaming(A, pa, B, pb) -> bool:
    """Some renaming of pa to pb and basis permutation carries A onto B."""
    for pperm in permutations(pb):
        ren = _rename_tensor(A, dict(zip(pa, pperm)))
        if _tensors_match_up_to_permutation(ren, B.tensor, A.dim):
            return True
    return False


def algebras_match(A: StructureConstants, B: StructureConstants) -> bool:
    """True iff the tensors agree up to basis permutation + parameter renaming."""
    (key_a, pa), (key_b, pb) = _match_key(A), _match_key(B)
    return key_a == key_b and _match_up_to_renaming(A, pa, B, pb)


def _rename_tensor(A: StructureConstants, mapping):
    if not mapping:
        return A.tensor
    return tuple(
        tuple(tuple(c.rename_params(mapping) if c else c for c in vec) for vec in row)
        for row in A.tensor
    )


def _tensors_match_up_to_permutation(ta, tb, n):
    # identity first: generated entries typically match the reference verbatim
    if ta == tb:
        return True

    def extend(perm):
        if len(perm) == n:
            return True
        used = set(perm)
        for img in range(n):
            if img in used:
                continue
            perm.append(img)
            if _prefix_consistent(ta, tb, perm) and extend(perm):
                return True
            perm.pop()
        return False

    return extend([])


def _prefix_consistent(ta, tb, perm):
    """Products among assigned vectors must agree on assigned coordinates,
    and agree as multisets on the not-yet-assigned ones."""
    k = len(perm)
    used = set(perm)
    for i in range(k):
        for j in range(k):
            va, vb = ta[i][j], tb[perm[i]][perm[j]]
            rem_a = Counter()
            rem_b = Counter()
            for t, val in enumerate(va):
                if t < k:
                    if val != vb[perm[t]]:
                        return False
                elif val:
                    rem_a[val] += 1
            for t, val in enumerate(vb):
                if t not in used and val:
                    rem_b[val] += 1
            if rem_a != rem_b:
                return False
    return True


@dataclass
class MatchReport:
    dim: int
    pairs: list = field(default_factory=list)  # (generated label, reference label)
    unmatched_generated: list = field(default_factory=list)
    unmatched_reference: list = field(default_factory=list)
    reciprocal_parameter_families: list = field(default_factory=list)

    @property
    def perfect(self):
        return not self.unmatched_generated and not self.unmatched_reference

    def to_json(self):
        return {
            "dim": self.dim,
            "perfect": self.perfect,
            "pairs": [list(p) for p in self.pairs],
            "unmatched_generated": self.unmatched_generated,
            "unmatched_reference": self.unmatched_reference,
            "reciprocal_parameter_families": self.reciprocal_parameter_families,
        }


def match_paper_table(n: int, entries=None) -> MatchReport:
    """Maximum matching between generated entries and the reference table."""
    if entries is None:
        entries = nilpotent_table(n)
    refs = load_reference_table(n)
    report = MatchReport(dim=n)
    refs_by_key = {}
    for ri, ref in enumerate(refs):
        key, params = _match_key(ref.algebra)
        refs_by_key.setdefault(key, []).append((ri, params))
    gen_keys = [_match_key(entry.algebra) for entry in entries]
    edges = {}
    for gi, (key, params) in enumerate(gen_keys):
        A = entries[gi].algebra
        for ri, ref_params in refs_by_key.get(key, ()):
            if _match_up_to_renaming(A, params, refs[ri].algebra, ref_params):
                edges.setdefault(gi, []).append(ri)
    match_of_ref = {}

    def augment(gi, seen):
        for ri in edges.get(gi, []):
            if ri in seen:
                continue
            seen.add(ri)
            if ri not in match_of_ref or augment(match_of_ref[ri], seen):
                match_of_ref[ri] = gi
                return True
        return False

    for gi in range(len(entries)):
        augment(gi, set())
    matched_gen = {gi: ri for ri, gi in match_of_ref.items()}
    for gi, entry in enumerate(entries):
        if gi in matched_gen:
            ref = refs[matched_gen[gi]]
            report.pairs.append((entry.label, ref.algebra.label))
        else:
            report.unmatched_generated.append(entry.label)
    for ri, ref in enumerate(refs):
        if ri not in match_of_ref:
            report.unmatched_reference.append(ref.algebra.label)
    for entry, (_, params) in zip(entries, gen_keys):
        if params:
            report.reciprocal_parameter_families.append(entry.label)
    return report


# ---------------------------------------------------------------------------
# Distinctness at fixed constants and the reciprocal identification
# ---------------------------------------------------------------------------
STANDARD_BINDING = {"c": QI(2), "c1": QI(2), "c2": QI(3), "c3": QI(5)}


@dataclass
class DistinctnessReport:
    dim: int
    pairs_compared: int = 0
    coincident_pairs: list = field(default_factory=list)
    reciprocal_identifications: list = field(default_factory=list)

    def to_json(self):
        return {
            "dim": self.dim,
            "pairs_compared": self.pairs_compared,
            "coincident_pairs": [list(p) for p in self.coincident_pairs],
            "reciprocal_identifications": self.reciprocal_identifications,
        }


def distinctness_report(n: int, binding=None) -> DistinctnessReport:
    """Instantiate parameters, decompose every entry, and compare pairwise.

    Also documents the c <-> 1/c identification: every parametric family is
    re-instantiated at reciprocal values and must land in the same congruence
    class, which is exactly the double-counting in the printed parameter
    ranges.
    """
    binding = dict(STANDARD_BINDING if binding is None else binding)
    entries = nilpotent_table(n)
    report = DistinctnessReport(dim=n)
    decomposed = []
    for entry in entries:
        params = entry.algebra.parameters()
        use = {k: v for k, v in binding.items() if k in params}
        A = substitute_algebra(entry.algebra, use) if use else entry.algebra
        form, _ = form_from_algebra(A)
        decomposed.append((entry, canonical_decomposition(form)))
        if use:
            recip = {k: v.inverse() for k, v in use.items()}
            B = substitute_algebra(entry.algebra, recip)
            form_b, _ = form_from_algebra(B)
            if canonical_decomposition(form_b) == decomposed[-1][1]:
                report.reciprocal_identifications.append(entry.label)
    for (ea, da), (eb, db) in combinations_pairs(decomposed):
        report.pairs_compared += 1
        if da == db:
            report.coincident_pairs.append((ea.label, eb.label))
    return report


def combinations_pairs(items):
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            yield items[i], items[j]
