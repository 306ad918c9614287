"""Exact rational-function expressions over a shared symbol table.

A polynomial is a sparse ``{monomial: int}`` dict where a monomial is a
sorted tuple of ``(symbol_index, exponent)`` pairs.  An ``Expr`` is a quotient
num/den of two of them in one normal form: no common polynomial factor, no
integer > 1 dividing every coefficient of both, den's leading coefficient
positive (graded lex, earlier-registered symbols more significant).  So a
polynomial is one integer dict over one positive denominator, den =
``{(): d}``, like a `qq` row; divided by that leading coefficient, num/den is
the reduced quotient with a monic denominator that printing shows.  Equality
of normal forms is structural equality, which makes ``is_zero`` and
expression comparison exact decisions.

Every operation runs on ints and normalizes its result once: one `math.gcd`
for a polynomial, the multivariate gcd for a rational function.  Fractions
are made only at the edge: `constant_value`.
Substitution of polynomial rules (`_phorner`: one grouping of the monomials,
Horner in one rule symbol at a time, one accumulator, over the integers) is
the one path for every polynomial substitution, quadratic or not; rules with
a denominator go term by term through Expr.  Either way substitution is
simultaneous: a rule's value is used as given and never substituted into, so
any rule set is well defined, one whose values name each other's keys too.
`Expr.affine_row` is the one test of "affine with constant coefficients"
that reads monomials: the Legendre map, the consistency iteration and the
chart ask it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import qq
from .symbols import Symbol, SymbolTable

CONST_MONO = ()
_ONE_POLY = {CONST_MONO: 1}  # the denominator of every integral polynomial Expr, shared: never mutated


class ExprError(Exception):
    pass


class ZeroDenominator(ExprError):
    pass


# ---------------------------------------------------------------------------
# monomials

def _mono_mul(m1, m2):
    """Product of two monomials: a merge of their sorted (index, exp) pairs."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out, i, j, n1, n2 = [], 0, 0, len(m1), len(m2)
    while i < n1 and j < n2:
        (a, e), (b, f) = m1[i], m2[j]
        if a == b:
            if e + f:
                out.append((a, e + f))
            i += 1
            j += 1
        elif a < b:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_key(m):
    """Graded lex; lower symbol index is more significant (so it sorts as -index)."""
    degree, key = 0, []
    for i, e in m:
        degree += e
        key.append((-i, e))
    return degree, key


# ---------------------------------------------------------------------------
# raw polynomial helpers (integer dicts, no class)

def _padd(a, b, ka=1, kb=1):
    """ka a + kb b for integers ka, kb; a's keys keep their order."""
    out = {m: c * ka for m, c in a.items()} if ka != 1 else dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c * kb
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pmul(a, b, out=None):
    """a * b, added into `out` in place when it is given."""
    out = {} if out is None else out
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pscale(a, c):
    if not c:
        return {}
    return {m: coef * c for m, coef in a.items()}


def _plead(a):
    return max(a, key=_mono_key)


def _pdegree(a):
    return max((_mono_degree(m) for m in a), default=0)


def _pdegree_in(a, idx):
    deg = 0
    for m in a:
        for i, e in m:
            if i == idx and e > deg:
                deg = e
    return deg


def _pvars(a):
    vs = set()
    for m in a:
        for i, _ in m:
            vs.add(i)
    return vs


def _pgrad(a, idxs):
    """{idx: the derivative of a in idx} for each of idxs, in one pass over a."""
    out = {i: {} for i in idxs}
    for m, c in a.items():
        for k, (i, e) in enumerate(m):
            if i in out:  # distinct monomials have distinct derivatives
                out[i][m[:k] + ((i, e - 1),) * (e > 1) + m[k + 1 :]] = c * e
    return out


def _pdiv_exact(a, b):
    """Exact polynomial division over the integers; raises ExprError if b
    does not divide a with an integer quotient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a)
    out = {}
    lb = _plead(b)
    cb = b[lb]
    while rem:
        la = _plead(rem)
        eb, ea = dict(lb), dict(la)
        qm = {}
        for i, e in eb.items():
            if ea.get(i, 0) < e:
                raise ExprError("inexact polynomial division")
        for i, e in ea.items():
            d = e - eb.get(i, 0)
            if d:
                qm[i] = d
        qmono = tuple(sorted(qm.items()))
        qc, r = divmod(rem[la], cb)
        if r:
            raise ExprError("inexact polynomial division")
        out[qmono] = out.get(qmono, 0) + qc
        rem = _padd(rem, _pmul({qmono: qc}, b), 1, -1)
    return {m: c for m, c in out.items() if c}


def _over(num, d):
    """(num, den) of the polynomial num / d, d a nonzero integer, in normal
    form: one gcd of d and the coefficients."""
    if d == 1:
        return num, _ONE_POLY
    k = gcd(d, *num.values()) * (1 if d > 0 else -1)
    return ({m: c // k for m, c in num.items()}, {CONST_MONO: d // k}) if k != 1 else (num, {CONST_MONO: d})


def _primitive_pair(num, den):
    """(num, den) over the gcd of all their coefficients, den's leading
    coefficient positive (num = {} makes den primitive)."""
    k = gcd(*num.values(), *den.values()) * (1 if den[_plead(den)] > 0 else -1)
    if k == 1:
        return num, den
    return {m: c // k for m, c in num.items()}, {m: c // k for m, c in den.items()}


# -- multivariate gcd (primitive Euclid in the top variable) ----------------

def _uni_view(a, idx):
    """Split `a` as a univariate polynomial in symbol `idx` with poly coefficients."""
    out = {}
    for m, c in a.items():
        e = 0
        rest = []
        for i, k in m:
            if i == idx:
                e = k
            else:
                rest.append((i, k))
        coeff = out.setdefault(e, {})
        rest = tuple(rest)
        s = coeff.get(rest, 0) + c
        if s:
            coeff[rest] = s
        else:
            coeff.pop(rest, None)
    return {e: c for e, c in out.items() if c}


def _uni_collect(view, idx):
    out = {}
    for e, coeff in view.items():
        for m, c in coeff.items():
            mono = _mono_mul(m, ((idx, e),) if e else CONST_MONO)
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _content(view):
    """The gcd of a univariate view's coefficients, integer content included,
    so each coefficient divided by it is an integer polynomial."""
    g = {}
    for e in sorted(view):
        g = _pgcd(g, view[e])
    k = gcd(*(c for coeff in view.values() for c in coeff.values()))
    return g if k == 1 else _pscale(g, k)


def _prem(a_view, b_view, idx):
    """Pseudo-remainder of univariate views in symbol idx."""
    db = max(b_view)
    lb = b_view[db]
    rem = dict(a_view)
    while rem:
        da = max(rem)
        if da < db:
            break
        la = rem.pop(da)
        # rem = lb*rem - la*x^(da-db)*b
        new = {}
        for e, c in rem.items():
            new[e] = _pmul(c, lb)
        for e, c in b_view.items():
            if e == db:
                continue
            t = _pmul(c, la)
            tgt = e + da - db
            new[tgt] = _padd(new.get(tgt, {}), t, 1, -1)
        rem = {e: c for e, c in new.items() if c}
    return rem


def _pgcd(a, b):
    """GCD of two integer polynomials, primitive with a positive leading
    coefficient; gcd(0, b) is b made so."""
    if not (a and b):
        return _primitive_pair({}, a or b)[1] if a or b else {}
    va, vb = _pvars(a), _pvars(b)
    if not va or not vb:
        return _ONE_POLY
    common = va | vb
    idx = max(common)
    av, bv = _uni_view(a, idx), _uni_view(b, idx)
    ca, cb = _content(av), _content(bv)
    cg = _pgcd(ca, cb)
    pa = {e: _pdiv_exact(c, ca) for e, c in av.items()}
    pb = {e: _pdiv_exact(c, cb) for e, c in bv.items()}
    while pb:
        if max(pb) == 0:
            pa = {0: {CONST_MONO: 1}}
            break
        r = _prem(pa, pb, idx)
        if r:
            cr = _content(r)
            r = {e: _pdiv_exact(c, cr) for e, c in r.items()}
        pa, pb = pb, r
    return _primitive_pair({}, _pmul(_uni_collect(pa, idx), cg))[1]


# ---------------------------------------------------------------------------

class Expr:
    """Normalized rational function num/den over one SymbolTable; without a
    den, num is a polynomial with int or Fraction coefficients."""

    __slots__ = ("table", "num", "den")

    def __init__(self, table: SymbolTable, num, den=None, _normalized=False):
        self.table = table
        if den is None:
            if _normalized:
                den = _ONE_POLY
            else:  # over the lcm of the coefficients' denominators
                cs = {m: Fraction(c) for m, c in num.items() if c}
                d = lcm(*(c.denominator for c in cs.values()))
                num, den = _over({m: int(c * d) for m, c in cs.items()}, d)
        elif not _normalized:
            if not den:
                raise ZeroDenominator("zero denominator")
            if len(den) == 1 and CONST_MONO in den:  # a zero num, too, ends over 1
                num, den = _over(num, den[CONST_MONO])
            else:
                g = _pgcd(num, den)
                if g != _ONE_POLY:
                    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
                num, den = _primitive_pair(num, den)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(table: SymbolTable, c) -> "Expr":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return Expr(table, {CONST_MONO: c.numerator} if c else {}, {CONST_MONO: c.denominator}, _normalized=True)

    @staticmethod
    def sym(table: SymbolTable, s: Symbol) -> "Expr":
        return Expr(table, {((s.index, 1),): 1}, _normalized=True)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        num = self.num
        return self.is_polynomial() and (not num or (len(num) == 1 and CONST_MONO in num))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ExprError("not a constant")
        return Fraction(self.num.get(CONST_MONO, 0), self.den[CONST_MONO])

    def is_polynomial(self) -> bool:
        den = self.den
        return len(den) == 1 and CONST_MONO in den

    def free_symbols(self):
        idxs = _pvars(self.num) | _pvars(self.den)
        return [self.table[i] for i in sorted(idxs)]

    def degree_in(self, s: Symbol) -> int:
        return _pdegree_in(self.num, s.index) - _pdegree_in(self.den, s.index)

    def total_degree(self) -> int:
        return _pdegree(self.num) - _pdegree(self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            if other.table is not self.table:
                raise ExprError("expressions from different symbol tables")
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(self.table, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.den, o.den
        if self.is_polynomial() and o.is_polynomial():
            da, db = a[CONST_MONO], b[CONST_MONO]
            g = gcd(da, db)
            return Expr(self.table, *_over(_padd(self.num, o.num, db // g, da // g), da // g * db), _normalized=True)
        return Expr(self.table, _padd(_pmul(self.num, b), _pmul(o.num, a)), _pmul(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.table, {m: -c for m, c in self.num.items()}, self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.den, o.den
        if self.is_polynomial() and o.is_polynomial():
            return Expr(self.table, *_over(_pmul(self.num, o.num), a[CONST_MONO] * b[CONST_MONO]), _normalized=True)
        return Expr(self.table, _pmul(self.num, o.num), _pmul(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDenominator("division by zero expression")
        if o.is_constant():  # num q / (den p): coprime still, so only the integer content is reduced
            p, q = o.num[CONST_MONO], o.den[CONST_MONO]
            num = _pscale(self.num, q)
            if self.is_polynomial():
                return Expr(self.table, *_over(num, self.den[CONST_MONO] * p), _normalized=True)
            return Expr(self.table, *_primitive_pair(num, _pscale(self.den, p)), _normalized=True)
        return Expr(self.table, _pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return Expr.const(self.table, 1) / self ** (-k)
        return Expr(self.table, _ppow(self.num, k), _ppow(self.den, k), _normalized=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(self.table, other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    # -- calculus ------------------------------------------------------------

    def diff(self, s: Symbol) -> "Expr":
        dn = _pgrad(self.num, (s.index,))[s.index]
        if self.is_polynomial():
            return Expr(self.table, *_over(dn, self.den[CONST_MONO]), _normalized=True)
        dd = _pgrad(self.den, (s.index,))[s.index]
        num = _padd(_pmul(dn, self.den), _pmul(self.num, dd), 1, -1)
        return Expr(self.table, num, _pmul(self.den, self.den))

    def gradient(self, symbols) -> list:
        """[self.diff(s) for s in symbols], a polynomial's in one pass over its monomials."""
        if not self.is_polynomial():
            return [self.diff(s) for s in symbols]
        grad, d = _pgrad(self.num, [s.index for s in symbols]), self.den[CONST_MONO]
        return [Expr(self.table, *_over(grad[s.index], d), _normalized=True) for s in symbols]

    def substitute(self, rules: dict) -> "Expr":
        """Simultaneous substitution Symbol -> Expr, then normalization.

        Every rule is applied once, to `self` only, never to another rule's
        value: so a value may name its own key or any other key, and a swap
        {q1: q2, q2: q1} exchanges the two symbols.
        """
        if not rules:
            return self
        used = _pvars(self.num) | _pvars(self.den)
        idx_rules = {
            s.index: (e if isinstance(e, Expr) else Expr.const(self.table, e)) for s, e in rules.items() if s.index in used
        }
        if self.is_polynomial():
            return _psubstitute(self.table, self.num, idx_rules, self.den[CONST_MONO])
        num = _psubstitute(self.table, self.num, idx_rules)
        den = _psubstitute(self.table, self.den, idx_rules)
        if den.is_zero():
            raise ZeroDenominator("substitution produced zero denominator")
        return num / den

    # -- evaluation -----------------------------------------------------------

    def eval_float(self, values: dict) -> float:
        vals = {s.index: float(v) for s, v in values.items()}
        lead = self.den[_plead(self.den)]
        n = sum(c / lead * _mono_eval_float(m, vals) for m, c in self.num.items())
        d = sum(c / lead * _mono_eval_float(m, vals) for m, c in self.den.items())
        return n / d

    # -- structure helpers ------------------------------------------------------

    def split_affine(self, symbols) -> tuple:
        """Decompose as const + sum(coeff*sym) over `symbols`.

        Returns (const_expr, {symbol: coeff_expr}); raises if the expression is
        not jointly affine in the given symbols with coefficients free of them.
        """
        idxs = {s.index for s in symbols}
        if _pvars(self.den) & idxs:
            raise ExprError("denominator involves affine-split symbols")
        const = {}
        coeffs = {s: {} for s in symbols}
        by_index = {s.index: s for s in symbols}
        for m, c in self.num.items():
            hits = [(i, e) for i, e in m if i in idxs]
            if not hits:
                const[m] = c
            elif len(hits) == 1 and hits[0][1] == 1:
                i = hits[0][0]
                rest = tuple(p for p in m if p[0] != i)
                sym = by_index[i]
                coeffs[sym][rest] = coeffs[sym].get(rest, 0) + c
            else:
                raise ExprError("expression is not affine in the given symbols")
        den = self.den
        mk = lambda p: Expr(self.table, p, dict(den))
        return mk(const), {s: mk(p) for s, p in coeffs.items() if p}

    def affine_row(self, symbols) -> tuple:
        """The qq integer row (entries, den) of an expression affine with
        *constant* coefficients over `symbols`: its monomials relabelled, a
        symbol's column its place in `symbols`, the offset's len(symbols).
        Raises ExprError otherwise, as `split_affine` and the checks give."""
        if not self.is_polynomial():
            # a quotient is never affine with constant coefficients: say which part is not
            const, _coeffs = self.split_affine(symbols)
            raise ExprError("affine part has non-constant remainder" if not const.is_constant()
                            else "non-constant linear coefficient")
        at = {s.index: k for k, s in enumerate(symbols)}
        entries = []
        remainder = coefficient = False
        for m, c in self.num.items():
            hits = [e for i, e in m if i in at]
            if hits and hits != [1]:
                raise ExprError("expression is not affine in the given symbols")
            if len(m) > len(hits):  # a factor outside `symbols`
                coefficient, remainder = coefficient or bool(hits), remainder or not hits
            else:
                entries.append((at[m[0][0]] if m else len(symbols), c))
        if remainder:
            raise ExprError("affine part has non-constant remainder")
        if coefficient:
            raise ExprError("non-constant linear coefficient")
        return tuple(sorted(entries)), self.den[CONST_MONO]  # primitive: every coefficient of num is in it

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if self.is_polynomial():
            return _pstr(self.table, self.num, self.den[CONST_MONO])
        lead = self.den[_plead(self.den)]
        return f"({_pstr(self.table, self.num, lead)})/({_pstr(self.table, self.den, lead)})"

    __repr__ = __str__


def _row_expr(row, syms, table) -> Expr:
    """The affine Expr of a qq integer row over (syms..., 1), the inverse of
    `Expr.affine_row`: its entries relabelled as monomials, made primitive
    by one gcd."""
    entries, den = qq._primitive(*row)
    poly = {((syms[j].index, 1),) if j < len(syms) else (): x for j, x in entries}
    return Expr(table, poly, {(): den}, _normalized=True)


def _psubstitute(table, poly, idx_rules, den=1) -> Expr:
    """poly / den with every rule applied at once; polynomial rules go
    through `_phorner`, rules with a denominator term by term through Expr."""
    if all(r.is_polynomial() for r in idx_rules.values()):
        out, d = _phorner(poly, {i: (r.num, r.den[CONST_MONO]) for i, r in idx_rules.items()})
        return Expr(table, *_over(out, d * den), _normalized=True)
    acc = Expr.const(table, 0)
    for m, c in poly.items():
        term = Expr.const(table, c)
        for i, e in m:
            rep = idx_rules.get(i)
            if rep is None:
                rep = Expr.sym(table, table[i])
            term = term * rep ** e
        acc = acc + term
    return acc / den if den != 1 else acc


def _phorner(poly, rules):
    """Simultaneous substitution of polynomial `rules` ({index: (R_v, d_v)},
    the rule R_v / d_v) into the integer polynomial `poly`; returns (ints,
    den) with the result ints / den.

    The monomials are grouped once into a tree, each level keyed by the
    (index, exponent) of the lowest rule symbol left, the leaf (key None)
    holding the rest.  A node's value is its leaf plus, per symbol v, Horner's
    R_v^e1 (c_1 + R_v^(e2-e1) (c_2 + ...)) over its children, added into the
    leaf's dict.  For a quadratic form this is the congruence T^T (A T).

    The tree runs over the integers: a leaf c under rule exponents e_v holds
    c * D / prod d_v^e_v for one common denominator D of all leaves, so every
    product and sum is an int.
    """
    tree, leaves = {}, []
    for m, c in poly.items():
        node, rest, scale = tree, [], 1
        for i, e in m:
            if i in rules:
                node = node.setdefault((i, e), {})
                scale *= rules[i][1] ** e
            else:
                rest.append((i, e))
        leaves.append((node.setdefault(None, {}), tuple(rest), c, scale))
    den = lcm(*(scale for *_, scale in leaves))
    for leaf, rest, num, scale in leaves:
        leaf[rest] = num * (den // scale)
    return _horner(tree, {v: r for v, (r, _d) in rules.items()}), den


def _horner(node, rules):
    out = node.pop(None, {})
    by_var = {}
    for v, e in sorted(node):
        by_var.setdefault(v, []).append(e)
    for v, exps in by_var.items():
        r = rules[v]
        acc = _horner(node[(v, exps[-1])], rules)
        for hi, lo in zip(exps[:0:-1], exps[-2::-1]):
            acc = _pmul(acc, _ppow(r, hi - lo), _horner(node[(v, lo)], rules))
        _pmul(acc, _ppow(r, exps[0]), out)
    return out


def _ppow(a, k):
    if not k:
        return {CONST_MONO: 1}
    out = dict(a)
    for _ in range(k - 1):
        out = _pmul(out, a)
    return out


def _mono_eval_float(m, vals):
    v = 1.0
    for i, e in m:
        v *= vals[i] ** e
    return v


def _pstr(table, poly, den=1) -> str:
    """The polynomial poly / den, each coefficient reduced by one gcd."""
    if not poly:
        return "0"
    names, parts = table.names(), []
    for m in sorted(poly, key=_mono_key, reverse=True):
        c = poly[m]
        mag = abs(c)
        body = "*".join([names[i] if e == 1 else f"{names[i]}^{e}" for i, e in m])
        if not m:
            body = _frac_str(mag, den)
        elif mag != den:
            body = f"{_frac_str(mag, den)}*{body}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        elif c > 0:
            parts.append(body)
        elif mag == den and m and (m[0][1] > 1 or "^" in names[m[0][0]]):
            parts.append("-1*" + body)  # "-x^2" would parse as (-x)^2; spell the coefficient out
        else:
            parts.append("-" + body)
    return " ".join(parts)


def _frac_str(x: int, den: int = 1) -> str:
    """x / den in lowest terms, as "p" or "p/q" (den > 0)."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"
