"""Seeded query inputs for the congruence and isomorphism workloads.

Every input is built from the run's random.Random and from fixed sequences
that are the same for every seed (the block shapes of the integer workload,
the entries and dense matrices of the iso workload), so one seed gives one
sequence of inputs.  Inputs never repeat within a run (the pencil module
caches per matrix), and each round has the same make-up: the same sizes,
the same split between singular and regular pencils, the same pair kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from oracle import G, evaluate

INT_SIZES = range(2, 10)
GAUSSIAN_SIZES = range(2, 6)
# Diagonal factors applied to S on the Gaussian workload.
GAUSSIAN_DIAGONAL = (G(Fraction(1, 2)), G(1, 1), G(2, -1))
ISO_DIMS = range(4, 9)
# Dense basis changes per round, by dimension.  They cost 0.1-0.5 s per
# query at dims 4-5, 0.4-1.5 s at dim 6 and 1-6 s beyond, so larger ones
# would leave too few queries in a run for steady figures.  Three at dim 5
# make the slowest fifth of a round and three at dim 4 the middle fifth,
# which puts op_p90_ms and op_p50_ms each inside one cluster of similar
# queries instead of on the edge between two.
ISO_DENSE = {4: 3, 5: 3}
# Entries per dimension and pair kind (pairs of entries for "distinct"):
# each slot of a round takes them in turn.
ISO_CYCLE = 2
# Constants for the parameters of table entries in "basis" and "distinct" pairs.
ISO_BINDING = {"c": G(3), "c1": G(2), "c2": G(-3), "c3": G(5)}


@dataclass
class Query:
    kind: str  # "singular" / "regular" (congruence) or the iso pair kind
    size: int
    singular: bool  # the generator built a singular pencil (an A block)
    args: tuple
    expected: object = None  # the built blocks, or the built iso verdict
    extra: dict = field(default_factory=dict)


def _kinds(size, allow_a):
    if size % 2:
        return ("A", "C") if allow_a else ("C",)
    return ("B", "E", "D" if (size // 2) % 2 == 0 else "F")


def _int_param(rng):
    while True:
        c = rng.randint(-7, 7)
        if c not in (-1, 0, 1):
            return G(c)


def _gaussian_param(rng):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    return G(re, im)


def random_template(rng, size, singular):
    """(kind, size) blocks of total size `size`; with an A block exactly
    when `singular`, and never only A1 blocks (the zero matrix)."""
    while True:
        template = []
        left = size
        while left:
            part = rng.randint(1, left)
            template.append((rng.choice(_kinds(part, singular)), part))
            left -= part
        has_a = any(k == "A" for k, _ in template)
        only_a1 = all(shape == ("A", 1) for shape in template)
        if has_a == singular and not only_a1:
            return tuple(template)


def _partitions(m, largest=None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def block_templates(size):
    """Every multiset of (kind, size) blocks of total size `size`, except
    the ones made of A1 blocks only (the zero matrix)."""
    out = []
    for parts in _partitions(size):
        per_size = []
        for part in sorted(set(parts), reverse=True):
            kinds = _kinds(part, True)
            per_size.append(
                [[(k, part) for k in combo]
                 for combo in combinations_with_replacement(kinds, parts.count(part))]
            )
        combos = [[]]
        for options in per_size:
            combos = [c + o for c in combos for o in options]
        out += [tuple(c) for c in combos if any(shape != ("A", 1) for shape in c)]
    return out


class Congruence:
    """canonical_decomposition of S^T M S, M a direct sum of canonical blocks."""

    def __init__(self, lab, gaussian):
        self.lab = lab
        self.gaussian = gaussian
        self.seen = set()
        # Block shapes of the integer workload, one fixed sequence for every seed.
        self.shapes = random.Random("congruence shapes")

    def _program_blocks(self, blocks):
        CanonicalBlock = self.lab["blocks"].CanonicalBlock
        Scalar, QI = self.lab["scalars"].Scalar, self.lab["scalars"].QI
        return [
            CanonicalBlock(k, s, None if p is None else Scalar.const(QI(p.re, p.im)))
            for k, s, p in blocks
        ]

    def _diagonal(self, rng, n):
        Scalar, QI = self.lab["scalars"].Scalar, self.lab["scalars"].QI
        zero = Scalar.const(QI(0))
        rows = []
        for i in range(n):
            d = rng.choice(GAUSSIAN_DIAGONAL)
            rows.append(tuple(Scalar.const(QI(d.re, d.im)) if j == i else zero for j in range(n)))
        return tuple(rows)

    def query(self, rng, size, singular, template):
        lab = self.lab
        param = _gaussian_param if self.gaussian else _int_param
        for draw in range(1000):
            if draw and draw % 10 == 0:
                # A small shape without B blocks has few congruent forms
                # with small S, and a long run can use them all up.
                template = random_template(rng, size, singular)
            blocks = [(k, s, param(rng) if k == "B" else None) for k, s in template]
            M = lab["blocks"].direct_sum_matrix(self._program_blocks(blocks))
            S = lab["iso"].random_invertible_matrix(size, rng)
            if self.gaussian:
                S = lab["linalg"].mat_mul(S, self._diagonal(rng, size))
            N = lab["pencil"].congruence_transform(M, S)
            text = tuple(tuple(str(x) for x in row) for row in N)
            if text in self.seen:
                continue
            if self.gaussian and all(evaluate(t).is_integer() for row in text for t in row):
                continue
            self.seen.add(text)
            kind = "singular" if singular else "regular"
            return Query(kind, size, singular, (N,), blocks, {"matrix": text})
        raise RuntimeError(f"no new input of size {size} after 1000 draws")

    def round(self, rng):
        """Integer: one random block multiset per size 2..9 and pencil type
        (singular from size 3); there are 1189 multisets up to size 9, more
        than a run holds.  The multisets come from one fixed sequence, the
        same for every seed, so runs of equal length decompose the same
        shapes and differ in the B parameters and in S; with shapes drawn
        from the seed, wall_s spread by 0.14 between seeds.  Gaussian: every
        multiset of size 2..5 once, since the cost of a Gaussian query swings
        100-fold with its blocks and fixed templates keep the rounds alike."""
        if self.gaussian:
            plan = [
                (s, any(k == "A" for k, _ in t), t)
                for s in GAUSSIAN_SIZES
                for t in block_templates(s)
            ]
        else:
            plan = [
                (s, sing, random_template(self.shapes, s, sing))
                for sing in (False, True)
                for s in INT_SIZES
                if s >= 3 or not sing
            ]
        rng.shuffle(plan)
        return [self.query(rng, s, sing, t) for s, sing, t in plan]


def _signed_permutation(lab, rng, n, permute=True):
    """A random signed permutation matrix; a random +-1 diagonal when not `permute`."""
    Scalar = lab["scalars"].Scalar
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    return tuple(
        tuple(
            Scalar.rational(rng.choice((-1, 1))) if j == perm[i] else Scalar.rational(0)
            for j in range(n)
        )
        for i in range(n)
    )


class Iso:
    """isomorphic_dim1_nilpotent then iso_invariants on pairs of table entries.

    Pair kinds in every round:
      basis       (A, change_of_basis(A, P)), P dense, dims 4..5: isomorphic
      distinct    two different entries, each under a signed permutation,
                  dims 4..8: not isomorphic
      reciprocal  an entry at constants c against the same entry at 1/c,
                  dims 4..8: isomorphic

    The cost of a query depends mostly on its entries and, for a basis
    pair, on P: it swings seven-fold with P (70-500 ms at dim 5).  A run
    holds only 70-130 queries, and with entries and P drawn afresh in every
    round op_p50_ms and op_p90_ms moved by 0.1-0.2 with the seed and with
    the number of rounds that fitted in the run.  So each slot of a round
    takes ISO_CYCLE entries in turn, the same for every seed, and each
    basis slot keeps one fixed dense matrix, times a +-1 diagonal drawn
    from the seed (a signed permutation there still moved the cost by
    up to four-fold).  The seed draws those signs, the permutations of
    the distinct pairs and the constants of the reciprocal pairs.
    """

    def __init__(self, lab):
        self.lab = lab
        self.tables = {n: lab["classify"].nilpotent_table(n) for n in ISO_DIMS}
        self.seen = set()
        self.next = {}

    def _entries(self, n, kind, count):
        table = self.tables[n]
        if kind == "reciprocal":
            table = [e for e in table if e.algebra.parameters()]
        order = random.Random(n).sample(table, len(table))[: ISO_CYCLE * count]
        k = self.next.get((n, kind), 0)
        self.next[(n, kind)] = k + 1
        return [order[(k * count + j) % len(order)] for j in range(count)]

    def _bind(self, entry, env):
        lab = self.lab
        QI = lab["scalars"].QI
        params = entry.algebra.parameters()
        if not params:
            return entry.algebra
        binding = {p: QI(env[p].re, env[p].im) for p in params}
        return lab["algebra"].substitute_algebra(entry.algebra, binding)

    @staticmethod
    def _singular(entry):
        return any(b.kind == "A" for b in entry.blocks)

    def _pair(self, rng, n, kind):
        lab = self.lab
        cob = lab["algebra"].change_of_basis
        if kind == "basis":
            (entry,) = self._entries(n, kind, 1)
            A = self._bind(entry, ISO_BINDING)
            slot = self.next[(n, kind)] % ISO_DENSE[n]
            dense = lab["iso"].random_invertible_matrix(n, random.Random(f"basis {n} {slot}"))
            P = lab["linalg"].mat_mul(dense, _signed_permutation(lab, rng, n, permute=False))
            return entry, entry, A, cob(A, P), True, P
        if kind == "distinct":
            ea, eb = self._entries(n, kind, 2)
            A = cob(self._bind(ea, ISO_BINDING), _signed_permutation(lab, rng, n))
            B = cob(self._bind(eb, ISO_BINDING), _signed_permutation(lab, rng, n))
            return ea, eb, A, B, False, None
        (entry,) = self._entries(n, kind, 1)
        env = {}
        for p in entry.algebra.parameters():
            env[p] = G(rng.choice((-1, 1)) * rng.randint(2, 40))
        recip = {p: v.inverse() for p, v in env.items()}
        return entry, entry, self._bind(entry, env), self._bind(entry, recip), True, None

    def query(self, rng, n, kind):
        for _ in range(1000):
            ea, eb, A, B, expected, P = self._pair(rng, n, kind)
            key = (A.tensor, B.tensor)
            if key in self.seen:
                continue
            self.seen.add(key)
            extra = {"entries": (ea.label, eb.label), "P": P,
                     "singular_b": self._singular(eb)}
            return Query(kind, n, self._singular(ea), (A, B), expected, extra)
        raise RuntimeError(f"no new {kind} pair of dim {n} after 1000 draws")

    def round(self, rng):
        plan = [(n, "basis") for n, count in ISO_DENSE.items() for _ in range(count)]
        plan += [(n, kind) for n in ISO_DIMS for kind in ("distinct", "reciprocal")]
        rng.shuffle(plan)
        return [self.query(rng, n, kind) for n, kind in plan]
