"""Exact field arithmetic over Q(i) extended by named formal parameters.

A Scalar is a rational function num/den where num and den are multivariate
polynomials over the Gaussian rationals in parameters named [a-z][a-z0-9_]*.
Every Scalar is kept canonical: gcd(num, den) is a unit and den is monic
under graded lexicographic order, so equality is plain structural equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintViolation,
    DenominatorVanishes,
    DivisionByZero,
    ScalarSyntaxError,
    excerpt,
)

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------
class QI:
    """A Gaussian rational re + im*i with Fraction parts. Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        if not self.im and not other.im:
            return QI(self.re * other.re)
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        if not self.im:
            return QI(1 / self.re)
        n = self.re * self.re + self.im * self.im
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conjugate(self):
        return QI(self.re, -self.im)

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        if not self.im:
            return _frac_str(self.re)
        im = _imag_str(self.im)
        if not self.re:
            return im
        return _frac_str(self.re) + ("+" if self.im > 0 else "-") + _imag_str(abs(self.im))

    def __repr__(self):
        return f"QI({self})"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return _frac_str(f) + "*i"


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


def qi_sqrt(z: QI):
    """Exact square root in Q(i) if one exists, else None."""
    if not z:
        return QI_ZERO
    if not z.im:
        r = _frac_sqrt(abs(z.re))
        if r is None:
            return None
        return QI(r) if z.re > 0 else QI(0, r)
    n = _frac_sqrt(z.re * z.re + z.im * z.im)
    if n is None:
        return None
    x = _frac_sqrt((z.re + n) / 2)
    if x is None or not x:
        return None
    y = z.im / (2 * x)
    w = QI(x, y)
    return w if w * w == z else None


def _frac_sqrt(f: Fraction):
    if f < 0:
        return None
    from math import isqrt

    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


# ---------------------------------------------------------------------------
# Multivariate polynomials over QI
# ---------------------------------------------------------------------------
# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents
# positive; () is the constant monomial.  A Poly maps monomials to nonzero QI.

_EMPTY = ()


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_div(a, b):
    """a / b, or None when not divisible."""
    d = dict(a)
    for v, e in b:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(v, None)
        else:
            d[v] = r
    return tuple(sorted(d.items()))


def _mono_key(m, varorder):
    """Graded lex key: (total degree, exponent vector over varorder)."""
    d = dict(m)
    return (sum(d.values()), tuple(d.get(v, 0) for v in varorder))


class Poly:
    """Multivariate polynomial over QI; terms maps monomial -> nonzero QI."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c: QI) -> "Poly":
        return Poly({_EMPTY: c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        if not _NAME_RE.match(name) or name == "i":
            raise ValueError(f"bad parameter name {name!r}")
        return Poly({((name, 1),): QI_ONE})

    def __bool__(self):
        return bool(self.terms)

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def const_value(self) -> QI:
        return self.terms.get(_EMPTY, QI_ZERO)

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return tuple(sorted((m, c.sort_key()) for m, c in self.terms.items()))

    def __add__(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m)
            if s is None:
                d[m] = c
            else:
                s = s + c
                if s:
                    d[m] = s
                else:
                    del d[m]
        return Poly(d)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return P_ZERO
        if self.is_const():
            return other.scale(self.const_value())
        if other.is_const():
            return self.scale(other.const_value())
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = d.get(m)
                if s is None:
                    d[m] = c
                else:
                    s = s + c
                    if s:
                        d[m] = s
                    else:
                        del d[m]
        return Poly(d)

    def scale(self, c: QI):
        if not c:
            return P_ZERO
        if c == QI_ONE:
            return self
        return Poly({m: k * c for m, k in self.terms.items()})

    def leading(self, varorder=None):
        """(monomial, coeff) maximal under graded lex."""
        if varorder is None:
            varorder = sorted(self.variables())
        m = max(self.terms, key=lambda mm: _mono_key(mm, varorder))
        return m, self.terms[m]

    def eval_partial(self, binding: dict) -> "Poly":
        """Substitute QI constants for some variables."""
        d = {}
        for m, c in self.terms.items():
            keep = []
            for v, e in m:
                if v in binding:
                    b = binding[v]
                    for _ in range(e):
                        c = c * b
                    if not c:
                        break
                else:
                    keep.append((v, e))
            if not c:
                continue
            mk = tuple(keep)
            s = d.get(mk)
            if s is None:
                d[mk] = c
            else:
                s = s + c
                if s:
                    d[mk] = s
                else:
                    del d[mk]
        return Poly(d)

    def rename(self, mapping: dict) -> "Poly":
        d = {}
        for m, c in self.terms.items():
            mk = tuple(sorted((mapping.get(v, v), e) for v, e in m))
            if mk in d:
                raise ValueError("parameter renaming is not injective")
            d[mk] = c
        return Poly(d)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


P_ZERO = Poly({})
P_ONE = Poly({_EMPTY: QI_ONE})


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError when b does not divide a."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return P_ZERO
    if b.is_const():
        return a.scale(b.const_value().inverse())
    varorder = sorted(a.variables() | b.variables())
    bm, bc = b.leading(varorder)
    bcinv = bc.inverse()
    rem = a
    q = {}
    while rem:
        rm, rc = rem.leading(varorder)
        m = _mono_div(rm, bm)
        if m is None:
            raise ValueError("inexact polynomial division")
        c = rc * bcinv
        q[m] = c
        rem = rem - Poly({m: c}) * b
    return Poly(q)


def _as_univar(p: Poly, v: str):
    """View p as a univariate polynomial in v with Poly coefficients."""
    coeffs = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for name, exp in m:
            if name == v:
                e = exp
            else:
                rest.append((name, exp))
        coeffs.setdefault(e, {})[tuple(rest)] = c
    return {e: Poly(t) for e, t in coeffs.items()}


def _from_univar(coeffs: dict, v: str) -> Poly:
    out = P_ZERO
    for e, p in coeffs.items():
        if e == 0:
            out = out + p
        else:
            out = out + p * Poly({((v, e),): QI_ONE})
    return out


def _uni_deg(coeffs):
    return max((e for e, p in coeffs.items() if p), default=-1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd in QI[params], normalized to leading coefficient 1."""
    g = _gcd_raw(a, b)
    if not g:
        return P_ZERO
    _, lc = g.leading()
    return g.scale(lc.inverse())


def _gcd_raw(a: Poly, b: Poly) -> Poly:
    if not a:
        return b
    if not b:
        return a
    if a.is_const() or b.is_const():
        return P_ONE
    v = sorted(a.variables() | b.variables())[0]
    ua, ub = _as_univar(a, v), _as_univar(b, v)
    ca, pa = _content_pp(ua)
    cb, pb = _content_pp(ub)
    cont = _gcd_raw(ca, cb)
    if _probably_coprime(pa, pb, v):
        return cont
    # primitive PRS on the primitive parts
    f, g = (pa, pb) if _uni_deg(pa) >= _uni_deg(pb) else (pb, pa)
    while True:
        r = _pseudo_rem(f, g, v)
        if _uni_deg(r) < 0:
            return cont * _from_univar(g, v)
        f, g = g, _content_pp(r)[1]


# Fixed evaluation points for the coprimality probe; distinct odd primes so
# the assignments below differ per variable and per trial.
_PROBE_PRIMES = (10007, 7919, 65537, 104729, 31337, 4093, 8191)


def _probably_coprime(fa: dict, fb: dict, v: str) -> bool:
    """Certify gcd degree 0 in v by evaluating the other variables.

    Sound: if neither image loses leading degree, the image of any common
    divisor keeps its v-degree, so coprime images imply a trivial gcd.
    """
    da, db = _uni_deg(fa), _uni_deg(fb)
    names = sorted(
        set().union(*(p.variables() for p in fa.values()))
        | set().union(*(p.variables() for p in fb.values()))
    )
    for trial in range(3):
        point = {
            name: QI(_PROBE_PRIMES[(j + 3 * trial) % len(_PROBE_PRIMES)])
            for j, name in enumerate(names)
        }
        ia = {e: p.eval_partial(point).const_value() for e, p in fa.items()}
        ib = {e: p.eval_partial(point).const_value() for e, p in fb.items()}
        if not ia.get(da) or not ib.get(db):
            continue  # leading coefficient vanished; the bound is invalid
        if _qi_uni_gcd_degree(ia, ib) == 0:
            return True
    return False


def _qi_uni_gcd_degree(fa: dict, fb: dict) -> int:
    """Degree of gcd of two univariate polynomials with QI coefficients."""
    a = [fa.get(e, QI_ZERO) for e in range(max(fa) + 1)]
    b = [fb.get(e, QI_ZERO) for e in range(max(fb) + 1)]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) - 1
        while len(a) >= len(b):
            while a and not a[-1]:
                a.pop()
            if len(a) < len(b):
                break
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for k in range(len(b)):
                a[off + k] = a[off + k] - q * b[k]
            a.pop()
        a, b = b, a


def _content_pp(u: dict):
    """Content (gcd of coefficients) and primitive part of a univar view."""
    cont = P_ZERO
    for e in sorted(u):
        if u[e]:
            cont = _gcd_raw(cont, u[e])
    if not cont:
        return P_ZERO, {}
    pp = {e: poly_div_exact(p, cont) for e, p in u.items() if p}
    return cont, pp


def _pseudo_rem(f: dict, g: dict, v: str):
    """Pseudo-remainder of univariate views f, g (coefficients in QI[rest])."""
    df, dg = _uni_deg(f), _uni_deg(g)
    lg = g[dg]
    r = dict(f)
    while True:
        dr = _uni_deg(r)
        if dr < dg:
            return r
        lr = r.get(dr, P_ZERO)
        # r := lg*r - lr*g*v^(dr-dg)
        nr = {}
        for e, p in r.items():
            if p:
                nr[e] = p * lg
        for e, p in g.items():
            if p:
                q = nr.get(e + dr - dg, P_ZERO) - p * lr
                if q:
                    nr[e + dr - dg] = q
                else:
                    nr.pop(e + dr - dg, None)
        nr.pop(dr, None)
        r = nr


def poly_str(p: Poly) -> str:
    if not p:
        return "0"
    varorder = sorted(p.variables())
    monos = sorted(p.terms, key=lambda m: _mono_key(m, varorder), reverse=True)
    out = []
    for m in monos:
        t = _term_str(m, p.terms[m])
        if out and not t.startswith("-"):
            out.append("+")
        out.append(t)
    return "".join(out)


def _term_str(m, c: QI) -> str:
    if not m:
        return str(c)
    mono = "*".join("*".join([v] * e) for v, e in m)
    if c == QI_ONE:
        return mono
    if c == QI(-1):
        return "-" + mono
    if not c.im or not c.re:
        return str(c) + "*" + mono
    return "(" + str(c) + ")*" + mono


# ---------------------------------------------------------------------------
# Scalars: canonical rational functions
# ---------------------------------------------------------------------------
class Scalar:
    """Canonical rational function over Q(i) in named parameters."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly, _canonical=False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # --- constructors -----------------------------------------------------
    @staticmethod
    def const(c) -> "Scalar":
        if isinstance(c, QI):
            return Scalar(Poly.const(c), P_ONE, _canonical=True)
        return Scalar(Poly.const(QI(c)), P_ONE, _canonical=True)

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return Scalar.const(QI(Fraction(p, q)))

    @staticmethod
    def param(name: str) -> "Scalar":
        return Scalar(Poly.var(name), P_ONE, _canonical=True)

    @staticmethod
    def imag() -> "Scalar":
        return Scalar.const(QI_I)

    # --- predicates --------------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_qi(self) -> QI:
        if not self.is_constant():
            raise ValueError(f"scalar {self} is not constant")
        return self.num.const_value()

    def parameters(self):
        return tuple(sorted(self.num.variables() | self.den.variables()))

    # --- arithmetic ---------------------------------------------------------
    # Both operands are canonical (num coprime to den, den monic), so sums and
    # products stay reduced using small cross-gcds only (Henrici's algorithm).
    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        d1, d2 = self.den, other.den
        if d1 == P_ONE and d2 == P_ONE:
            return Scalar(self.num + other.num, P_ONE, _canonical=True)
        if d1 == d2:
            t = self.num + other.num
            if not t:
                return SC_ZERO
            g = poly_gcd(t, d1)
            if g == P_ONE:
                return Scalar(t, d1, _canonical=True)
            return _monic(poly_div_exact(t, g), poly_div_exact(d1, g))
        g = poly_gcd(d1, d2)
        if g == P_ONE:
            return Scalar(self.num * d2 + other.num * d1, d1 * d2, _canonical=True)
        d1g = poly_div_exact(d1, g)
        d2g = poly_div_exact(d2, g)
        t = self.num * d2g + other.num * d1g
        if not t:
            return SC_ZERO
        h = poly_gcd(t, g)
        if h == P_ONE:
            return Scalar(t, d1 * d2g, _canonical=True)
        return _monic(poly_div_exact(t, h), d1g * poly_div_exact(d2, h))

    def __neg__(self):
        return Scalar(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.num or not other.num:
            return SC_ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == P_ONE and d2 == P_ONE:
            if n1.is_const() and n2.is_const():
                return Scalar.const(n1.const_value() * n2.const_value())
            return Scalar(n1 * n2, P_ONE, _canonical=True)
        g1 = poly_gcd(n1, d2) if d2 != P_ONE else P_ONE
        g2 = poly_gcd(n2, d1) if d1 != P_ONE else P_ONE
        if g1 != P_ONE:
            n1, d2 = poly_div_exact(n1, g1), poly_div_exact(d2, g1)
        if g2 != P_ONE:
            n2, d1 = poly_div_exact(n2, g2), poly_div_exact(d1, g2)
        return _monic(n1 * n2, d1 * d2)

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of the zero scalar")
        return _monic(self.den, self.num)

    def __truediv__(self, other):
        if not other.num:
            raise DivisionByZero("scalar division by zero")
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num.key(), self.den.key()))
            object.__setattr__(self, "_hash", h)
        return h

    # --- substitution -------------------------------------------------------
    def substitute(self, bindings, constraints=()) -> "Scalar":
        return substitute(self, bindings, constraints)

    def rename_params(self, mapping: dict) -> "Scalar":
        return Scalar(self.num.rename(mapping), self.den.rename(mapping))

    # --- text ----------------------------------------------------------------
    def __str__(self):
        if self.den == P_ONE:
            return poly_str(self.num)
        ns, ds = poly_str(self.num), poly_str(self.den)
        if _top_level_addition(ns):
            ns = "(" + ns + ")"
        if not re.fullmatch(r"[a-z][a-z0-9_]*|\d+", ds):
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        return parse_scalar(text)


def _monic(num: Poly, den: Poly) -> "Scalar":
    """Build a Scalar from an already-reduced pair, normalizing den monic."""
    if not num:
        return SC_ZERO
    if den.is_const():
        return Scalar(num.scale(den.const_value().inverse()), P_ONE, _canonical=True)
    _, lc = den.leading()
    if lc != QI_ONE:
        inv = lc.inverse()
        num, den = num.scale(inv), den.scale(inv)
    return Scalar(num, den, _canonical=True)


def _canonicalize(num: Poly, den: Poly):
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return P_ZERO, P_ONE
    if den.is_const():
        c = den.const_value()
        if c == QI_ONE:
            return num, P_ONE
        return num.scale(c.inverse()), P_ONE
    g = poly_gcd(num, den)
    if g != P_ONE:
        num = poly_div_exact(num, g)
        den = poly_div_exact(den, g)
    if den.is_const():
        return num.scale(den.const_value().inverse()), P_ONE
    _, lc = den.leading()
    if lc != QI_ONE:
        inv = lc.inverse()
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _top_level_addition(s: str) -> bool:
    depth = 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and k > 0 and ch in "+-":
            return True
    return False


SC_ZERO = Scalar.const(QI_ZERO)
SC_ONE = Scalar.const(QI_ONE)


@dataclass(frozen=True)
class ParameterConstraint:
    """Excluded constant values for a named parameter."""

    name: str
    excluded: frozenset  # of QI

    @staticmethod
    def of(name, *values) -> "ParameterConstraint":
        vals = frozenset(v if isinstance(v, QI) else QI(v) for v in values)
        return ParameterConstraint(name, vals)


B_PARAM_EXCLUDED = frozenset({QI_ONE, QI(-1)})


def b_constraint(name: str) -> ParameterConstraint:
    """Constraint attached to every type-B block parameter: c not in {1, -1}."""
    return ParameterConstraint(name, B_PARAM_EXCLUDED)


def substitute(a: Scalar, bindings, constraints=()) -> Scalar:
    """Substitute constant values for parameters, enforcing constraints."""
    qi_bind = {}
    for name, val in bindings.items():
        if isinstance(val, Scalar):
            val = val.as_qi()
        elif not isinstance(val, QI):
            val = QI(val)
        qi_bind[name] = val
    for con in constraints:
        v = qi_bind.get(con.name)
        if v is not None and v in con.excluded:
            raise ConstraintViolation(
                f"parameter {con.name} may not take the value {v}"
            )
    num = a.num.eval_partial(qi_bind)
    den = a.den.eval_partial(qi_bind)
    if not den:
        raise DenominatorVanishes(f"denominator of {a} vanishes under {bindings}")
    return Scalar(num, den)


# ---------------------------------------------------------------------------
# Parsing (grammar: rationals p/q, i, parameters, + - * /, parentheses)
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z][a-z0-9_]*)|([()+\-*/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ScalarSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


MAX_NESTING = 100  # parentheses and unary minus: bounds the parser's recursion


def parse_scalar(text: str) -> Scalar:
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarSyntaxError("empty scalar", 0)
    value, k = _parse_expr(tokens, 0, text, 0)
    if k != len(tokens):
        raise ScalarSyntaxError("trailing input", tokens[k][2])
    return value


def _parse_expr(tokens, k, text, depth):
    value, k = _parse_term(tokens, k, text, depth)
    while k < len(tokens) and tokens[k][0] == "op" and tokens[k][1] in "+-":
        op = tokens[k][1]
        rhs, k = _parse_term(tokens, k + 1, text, depth)
        value = value + rhs if op == "+" else value - rhs
    return value, k


def _parse_term(tokens, k, text, depth):
    value, k = _parse_factor(tokens, k, text, depth)
    while k < len(tokens) and tokens[k][0] == "op" and tokens[k][1] in "*/":
        op = tokens[k][1]
        rhs, k = _parse_factor(tokens, k + 1, text, depth)
        if op == "*":
            value = value * rhs
        else:
            if not rhs:
                raise DivisionByZero(f"division by zero in {excerpt(repr(text))}")
            value = value / rhs
    return value, k


def _parse_factor(tokens, k, text, depth):
    if k >= len(tokens):
        raise ScalarSyntaxError("unexpected end of scalar", len(text))
    kind, tok, pos = tokens[k]
    if depth > MAX_NESTING:
        raise ScalarSyntaxError(f"nested deeper than {MAX_NESTING}", pos)
    if kind == "op" and tok == "-":
        value, k = _parse_factor(tokens, k + 1, text, depth + 1)
        return -value, k
    if kind == "int":
        try:
            return Scalar.rational(int(tok)), k + 1
        except ValueError:  # longer than the interpreter's int-string limit
            raise ScalarSyntaxError("integer too long", pos) from None
    if kind == "name":
        if tok == "i":
            return Scalar.imag(), k + 1
        return Scalar.param(tok), k + 1
    if kind == "op" and tok == "(":
        value, k = _parse_expr(tokens, k + 1, text, depth + 1)
        if k >= len(tokens) or tokens[k][1] != ")":
            raise ScalarSyntaxError("missing closing parenthesis", pos)
        return value, k + 1
    raise ScalarSyntaxError(f"unexpected token {tok!r}", pos)
