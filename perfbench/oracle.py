"""Independent checks for the benchmark's answers.

Nothing here imports leibniz_lab.  Scalars are Gaussian rationals held as
pairs of Fractions (class G); algebras are sparse product tables
{(i, j): {k: G}} with 0-based indices, read from the program's JSON or text
output.  Each check_* function returns a list of failure strings (empty
when the answer is right).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

# Counts of isomorphism classes stated by the paper, dims 4..8.
PAPER_COUNTS = {4: 6, 5: 14, 6: 23, 7: 47, 8: 74}


class G:
    """Exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return G(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        d = self.re * self.re + self.im * self.im
        if not d:
            raise ZeroDivisionError("inverse of the zero Gaussian rational")
        return G(self.re / d, -self.im / d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return isinstance(o, G) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def key(self):
        return (self.re, self.im)

    def is_integer(self):
        return not self.im and self.re.denominator == 1

    def __repr__(self):
        return f"G({self.re}, {self.im})"


ZERO = G(0)
ONE = G(1)


# ---------------------------------------------------------------------------
# Scalar text: numbers, parameter names, i, + - * / and parentheses
# ---------------------------------------------------------------------------
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def evaluate(text, env=None):
    """Value of a scalar expression, with parameter names bound by env."""
    env = env or {}
    tokens = []
    for num, name, op in _TOKEN.findall(text.strip()):
        if num:
            tokens.append(("num", G(int(num))))
        elif name:
            if name == "i":
                tokens.append(("num", G(0, 1)))
            elif name in env:
                tokens.append(("num", env[name]))
            else:
                raise ValueError(f"unbound parameter {name!r} in {text!r}")
        elif op.strip():
            tokens.append(("op", op))
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else ("end", None)

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def expr():
        val = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term():
        val = unary()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = unary()
            val = val * rhs if op == "*" else val / rhs
        return val

    def unary():
        if peek() == ("op", "-"):
            take()
            return -unary()
        kind, val = take()
        if kind == "num":
            return val
        if (kind, val) == ("op", "("):
            inner = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        raise ValueError(f"unexpected token {val!r} in {text!r}")

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra over G
# ---------------------------------------------------------------------------
def rank(rows):
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def pencil_is_singular(M):
    """True iff det(t*M + M^T) vanishes identically (n+1 sample points)."""
    n = len(M)
    for t in range(n + 1):
        tg = G(t + 2)
        sample = [[tg * M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
        if rank(sample) == n:
            return False
    return True


# ---------------------------------------------------------------------------
# Algebras as sparse product tables
# ---------------------------------------------------------------------------
def algebra_from_doc(doc, env=None):
    """(dim, {(i, j): {k: G}}) from a leibniz_lab algebra JSON document."""
    n = doc["dim"]
    prods = {}
    for p in doc.get("products", []):
        vec = {}
        for k, text in p["result"]:
            val = evaluate(text, env)
            if val:
                vec[k - 1] = vec.get(k - 1, ZERO) + val
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            prods[(p["left"] - 1, p["right"] - 1)] = vec
    return n, prods


def algebra_from_tensor_text(tensor_text):
    """(dim, products) from tensor[i][j][k] given as scalar strings."""
    n = len(tensor_text)
    prods = {}
    for i in range(n):
        for j in range(n):
            vec = {}
            for k, text in enumerate(tensor_text[i][j]):
                if text != "0":
                    val = evaluate(text)
                    if val:
                        vec[k] = val
            if vec:
                prods[(i, j)] = vec
    return n, prods


def _add_into(acc, vec, scale):
    for k, v in vec.items():
        s = acc.get(k, ZERO) + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def bracket(prods, u, v):
    """[u, v] for sparse coefficient vectors u, v."""
    out = {}
    for a, ua in u.items():
        for b, vb in v.items():
            p = prods.get((a, b))
            if p:
                _add_into(out, p, ua * vb)
    return out


def is_left_leibniz(n, prods):
    """[a,[b,c]] = [[a,b],c] + [b,[a,c]] on all basis triples."""
    for a in range(n):
        ea = {a: ONE}
        for b in range(n):
            eb = {b: ONE}
            ab = prods.get((a, b), {})
            for c in range(n):
                ec = {c: ONE}
                lhs = bracket(prods, ea, prods.get((b, c), {}))
                _add_into(lhs, bracket(prods, ab, ec), G(-1))
                _add_into(lhs, bracket(prods, eb, prods.get((a, c), {})), G(-1))
                if lhs:
                    return False
    return True


def is_lie(n, prods):
    for i in range(n):
        if prods.get((i, i)):
            return False
        for j in range(i + 1, n):
            s = dict(prods.get((i, j), {}))
            _add_into(s, prods.get((j, i), {}), ONE)
            if s:
                return False
    return True


def one_dimensional_span(n, prods):
    """True iff the nonzero products exist and all lie on one line."""
    vecs = [[v.get(k, ZERO) for k in range(n)] for v in prods.values()]
    return bool(vecs) and rank(vecs) == 1


def _span_basis(n, vecs):
    """Echelon basis (dense rows) of span(vecs)."""
    rows = [list(v) for v in vecs if any(v)]
    basis = []
    for row in rows:
        r = list(row)
        for b in basis:
            piv = next(k for k, x in enumerate(b) if x)
            if r[piv]:
                f = r[piv] / b[piv]
                r = [x - f * y for x, y in zip(r, b)]
        if any(r):
            basis.append(r)
    return basis


def _dense(n, vec):
    return [vec.get(k, ZERO) for k in range(n)]


def _sparse(row):
    return {k: x for k, x in enumerate(row) if x}


def _product_space(n, prods, left, right):
    vecs = [
        _dense(n, bracket(prods, _sparse(u), _sparse(v)))
        for u in left
        for v in right
    ]
    return _span_basis(n, vecs)


def series_dims(n, prods, lower):
    """dims of A^2, A^3, ... (lower central) or A^(2), A^(3), ... (derived),
    until the series stabilises, as leibniz_lab.iso reports them."""
    full = [[ONE if k == i else ZERO for k in range(n)] for i in range(n)]
    chain = [full]
    while True:
        left = full if lower else chain[-1]
        nxt = _product_space(n, prods, left, chain[-1])
        if len(nxt) == len(chain[-1]):
            return tuple(len(s) for s in chain[1:])
        chain.append(nxt)


def leib_dim(n, prods):
    vecs = [_dense(n, prods.get((i, i), {})) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = dict(prods.get((i, j), {}))
            _add_into(s, prods.get((j, i), {}), ONE)
            vecs.append(_dense(n, s))
    return len(_span_basis(n, vecs))


def center_dims(n, prods):
    """(center, left center, right center) dimensions."""
    left_rows, right_rows = [], []
    for j in range(n):
        for k in range(n):
            left_rows.append(
                [prods.get((a, j), {}).get(k, ZERO) for a in range(n)]
            )
            right_rows.append(
                [prods.get((j, a), {}).get(k, ZERO) for a in range(n)]
            )
    return (
        n - rank(left_rows + right_rows),
        n - rank(left_rows),
        n - rank(right_rows),
    )


def form_matrix(n, prods):
    """Matrix lam with [x_i, x_j] = lam[i][j] * z for one spanning z."""
    z = next(iter(prods.values()))
    k0 = next(iter(z))
    lam = [[ZERO] * n for _ in range(n)]
    for (i, j), vec in prods.items():
        lam[i][j] = vec.get(k0, ZERO) / z[k0]
    return lam


# ---------------------------------------------------------------------------
# Table checks
# ---------------------------------------------------------------------------
def sample_binding(constraints, rng):
    """Random rational values for the parameters, avoiding excluded ones."""
    env = {}
    for con in constraints:
        excluded = {evaluate(t) for t in con["excluded"]}
        while True:
            val = G(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            if val and val not in excluded:
                break
        env[con["param"]] = val
    return env


def _params_of(doc):
    names = set()
    for p in doc.get("products", []):
        for _, text in p["result"]:
            names.update(
                t for t in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text) if t != "i"
            )
    return names


def check_nilpotent_table(n, text, rng, reference_dim8=None):
    """The emitted table of dimension n: count, entry identities, names."""
    fails = []
    docs = json.loads(text)
    if len(docs) != PAPER_COUNTS[n]:
        fails.append(f"dim {n}: {len(docs)} entries, the paper has {PAPER_COUNTS[n]}")
    names = [" ".join(_structural(b) for b in d.get("blocks") or []) for d in docs]
    full_names = [" ".join(d.get("blocks") or []) for d in docs]
    if len(set(full_names)) != len(full_names) or any(not b for b in full_names):
        fails.append(f"dim {n}: block names missing or repeated")
    if reference_dim8 is not None:
        ref = Counter(tuple(sorted(r)) for r in reference_dim8)
        got = Counter(tuple(sorted(nm.split())) for nm in names)
        if ref != got:
            fails.append("dim 8: block names differ from fixtures/dim8_blocks.json")
    for d in docs:
        if sum(block_size(b) for b in d.get("blocks") or []) != n - 1:
            fails.append(f"{d.get('label')}: blocks do not add up to size {n - 1}")
        declared = {c["param"] for c in d.get("constraints", [])}
        if _params_of(d) - declared:
            fails.append(f"{d.get('label')}: parameter without a constraint")
            continue
        dim, prods = algebra_from_doc(d, sample_binding(d.get("constraints", []), rng))
        if dim != n:
            fails.append(f"{d.get('label')}: dim {dim}, want {n}")
        if not is_left_leibniz(dim, prods):
            fails.append(f"{d.get('label')}: left Leibniz identity fails")
        if is_lie(dim, prods):
            fails.append(f"{d.get('label')}: algebra is Lie")
        if not one_dimensional_span(dim, prods):
            fails.append(f"{d.get('label')}: products not in one 1-dim span")
    return fails


def check_solvable_table(text, dim, count, derived_dim, rng):
    fails = []
    docs = json.loads(text)
    if len(docs) != count:
        fails.append(f"solvable dim {dim}: {len(docs)} entries, want {count}")
    for d in docs:
        n, prods = algebra_from_doc(d, sample_binding(d.get("constraints", []), rng))
        if n != dim:
            fails.append(f"{d.get('label')}: dim {n}, want {dim}")
        if not is_left_leibniz(n, prods):
            fails.append(f"{d.get('label')}: left Leibniz identity fails")
        if is_lie(n, prods):
            fails.append(f"{d.get('label')}: algebra is Lie")
        derived = series_dims(n, prods, lower=False)
        if not derived or derived[0] != derived_dim or derived[-1] != 0:
            fails.append(f"{d.get('label')}: derived series {derived}")
        if series_dims(n, prods, lower=True)[-1] == 0:
            fails.append(f"{d.get('label')}: algebra is nilpotent")
    return fails


def check_match_report(n, text, table_text):
    fails = []
    rep = json.loads(text)
    labels = [d["label"] for d in json.loads(table_text)]
    if not rep.get("perfect") or rep.get("unmatched_generated") or rep.get(
        "unmatched_reference"
    ):
        fails.append(f"match dim {n}: not a perfect matching")
    gen = [p[0] for p in rep.get("pairs", [])]
    ref = [p[1] for p in rep.get("pairs", [])]
    if sorted(gen) != sorted(labels) or len(set(ref)) != PAPER_COUNTS[n]:
        fails.append(f"match dim {n}: pairs do not cover the table one to one")
    return fails


def check_distinctness(n, report, table_text):
    fails = []
    docs = json.loads(table_text)
    count = len(docs)
    parametric = sorted(d["label"] for d in docs if d.get("constraints"))
    if report["pairs_compared"] != count * (count - 1) // 2:
        fails.append(f"distinctness dim {n}: {report['pairs_compared']} pairs")
    if report["coincident_pairs"]:
        fails.append(f"distinctness dim {n}: coincident pairs reported")
    if sorted(report["reciprocal_identifications"]) != parametric:
        fails.append(f"distinctness dim {n}: c <-> 1/c not identified for all")
    return fails


# ---------------------------------------------------------------------------
# Congruence answers
# ---------------------------------------------------------------------------
_BLOCK = re.compile(r"([A-F])(\d+)(?:\((.*)\))?\Z")


def _block_match(name):
    m = _BLOCK.match(name.strip())
    if not m:
        raise ValueError(f"bad block name {name!r}")
    return m


def parse_block(name):
    """(kind, size, G parameter or None) of a constant block name."""
    m = _block_match(name)
    param = evaluate(m.group(3)) if m.group(3) is not None else None
    return m.group(1), int(m.group(2)), param


def block_size(name):
    return int(_block_match(name).group(2))


def _structural(name):
    m = _block_match(name)
    return f"{m.group(1)}{m.group(2)}"


def normalize_reciprocal(c):
    """Representative of {c, 1/c}: the smaller under (re, im) order."""
    inv = c.inverse()
    return c if c.key() <= inv.key() else inv


def block_multiset(blocks):
    """Counter of (kind, size, normalised parameter key) triples."""
    out = Counter()
    for kind, size, param in blocks:
        key = normalize_reciprocal(param).key() if param is not None else None
        out[(kind, size, key)] += 1
    return out


def check_decomposition(expected_blocks, answer_names):
    """expected: generator's (kind, size, G|None) list; answer: block names."""
    try:
        got = block_multiset(parse_block(b) for b in answer_names)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"unreadable answer {answer_names!r}: {exc}"]
    want = block_multiset(expected_blocks)
    if got != want:
        return [f"decomposition {' '.join(answer_names)} differs from the built blocks"]
    return []


# ---------------------------------------------------------------------------
# Isomorphism answers
# ---------------------------------------------------------------------------
def is_basis_change(n, prods_a, prods_b, P):
    """True iff P is invertible and [y_i, y_j]_A = sum_m B[i][j][m] y_m for
    y_i = sum_a P[i][a] x_a, i.e. B is A written in the basis y."""
    if rank(P) != n:
        return False
    for i in range(n):
        for j in range(n):
            lhs = {}
            for (a, b), vec in prods_a.items():
                coef = P[i][a] * P[j][b]
                if coef:
                    _add_into(lhs, vec, coef)
            rhs = {}
            for m, c in prods_b.get((i, j), {}).items():
                _add_into(rhs, _sparse(P[m]), c)
            _add_into(lhs, rhs, G(-1))
            if lhs:
                return False
    return True


def invariant_fields(n, prods):
    """The oracle's own values for the basis-free parts of iso_invariants."""
    center, left, right = center_dims(n, prods)
    return {
        "dim": n,
        "lower_central_dims": list(series_dims(n, prods, lower=True)),
        "derived_dims": list(series_dims(n, prods, lower=False)),
        "leib_dim": leib_dim(n, prods),
        "center_dim": center,
        "left_center_dim": left,
        "right_center_dim": right,
        "pencil_rank": rank(form_matrix(n, prods)),
    }


def check_invariants(name, inv_json, n, prods, singular):
    fails = []
    want = invariant_fields(n, prods)
    got = {k: inv_json.get(k) for k in want if k != "pencil_rank"}
    pencil = inv_json.get("pencil") or {}
    got["pencil_rank"] = pencil.get("rank")
    if got != want:
        fails.append(f"{name}: invariants {got} differ from {want}")
    if bool(pencil.get("left_indices")) != singular:
        fails.append(f"{name}: minimal indices contradict the built blocks")
    return fails
