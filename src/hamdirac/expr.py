"""Exact rational-function expressions over a shared symbol table.

A polynomial is a sparse ``{monomial: Fraction}`` dict where a monomial is a
sorted tuple of ``(symbol_index, exponent)`` pairs.  An ``Expr`` is a reduced
quotient of two such polynomials; equality of normal forms is structural
equality, which makes ``is_zero`` and expression comparison exact decisions.

Monomial order: graded lex, earlier-registered symbols more significant.
The denominator of a normal form is monic with respect to that order.

Substitution of polynomial rules works on the dicts alone (`_phorner`: one
grouping of the monomials, Horner in one rule symbol at a time, one
accumulator), over the integers: rules and leaves are scaled to integers over
one common denominator, and each output coefficient is normalized once.  This
is the one path for every polynomial substitution, quadratic or not; rules
with a denominator go term by term through Expr.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .symbols import Symbol, SymbolTable

ZERO = Fraction(0)
ONE = Fraction(1)

CONST_MONO = ()
_ONE_POLY = {CONST_MONO: ONE}  # the denominator of every polynomial Expr, shared: never mutated


class ExprError(Exception):
    pass


class ZeroDenominator(ExprError):
    pass


class CyclicRules(ExprError):
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
    return _mono_degree(m), tuple((-i, e) for i, e in m)


# ---------------------------------------------------------------------------
# raw polynomial helpers (dicts, no class)

def _padd(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(a):
    return {m: -c for m, c in a.items()}


def _pmul(a, b, out=None):
    """a * b, added into `out` in place when it is given; the coefficients
    may be Fractions or, throughout, ints."""
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


def _pconst(c):
    c = Fraction(c)
    return {CONST_MONO: c} if c else {}


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


def _pdiff(a, idx):
    out = {}
    for m, c in a.items():
        for k, (i, e) in enumerate(m):
            if i == idx:
                nm = list(m)
                if e == 1:
                    del nm[k]
                else:
                    nm[k] = (i, e - 1)
                nm = tuple(nm)
                s = out.get(nm, ZERO) + c * e
                if s:
                    out[nm] = s
                else:
                    out.pop(nm, None)
                break
    return out


def _pdiv_exact(a, b):
    """Exact polynomial division; raises ExprError if b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a)
    out = {}
    lb = _plead(b) if b else CONST_MONO
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
        qc = rem[la] / cb
        out[qmono] = out.get(qmono, ZERO) + qc
        rem = _padd(rem, _pneg(_pmul({qmono: qc}, b)))
    return {m: c for m, c in out.items() if c}


def _pmonic(a):
    if not a:
        return a
    lc = a[_plead(a)]
    if lc == 1:
        return a
    return {m: c / lc for m, c in a.items()}


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
        s = coeff.get(rest, ZERO) + c
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
            s = out.get(mono, ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _content(view):
    g = {}
    for e in sorted(view):
        g = _pgcd(g, view[e])
    return g


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
            new[tgt] = _padd(new.get(tgt, {}), _pneg(t))
        rem = {e: c for e, c in new.items() if c}
    return rem


def _pgcd(a, b):
    """GCD of two polynomials, normalized monic; gcd(0, b) = monic b."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
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
            pa = {0: _pconst(1)}
            break
        r = _prem(pa, pb, idx)
        if r:
            cr = _content(r)
            r = {e: _pdiv_exact(c, cr) for e, c in r.items()}
        pa, pb = pb, r
    g = _pmul(_uni_collect(pa, idx), cg)
    return _pmonic(g)


# ---------------------------------------------------------------------------

class Expr:
    """Normalized rational function num/den over one SymbolTable."""

    __slots__ = ("table", "num", "den")

    def __init__(self, table: SymbolTable, num, den=None, _normalized=False):
        self.table = table
        if den is None:
            den = _ONE_POLY
        if _normalized:
            self.num, self.den = num, den
            return
        if not den:
            raise ZeroDenominator("zero denominator")
        if not num:
            self.num, self.den = {}, _ONE_POLY
            return
        g = _pgcd(num, den)
        if g != _ONE_POLY:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        lc = den[_plead(den)]
        if lc != 1:
            num = _pscale(num, 1 / lc)
            den = _pscale(den, 1 / lc)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(table: SymbolTable, c) -> "Expr":
        c = Fraction(c)
        return Expr(table, {CONST_MONO: c} if c else {}, _normalized=True)

    @staticmethod
    def sym(table: SymbolTable, s: Symbol) -> "Expr":
        return Expr(table, {((s.index, 1),): ONE}, _normalized=True)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return (not self.num or set(self.num) == {CONST_MONO}) and set(self.den) == {CONST_MONO}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ExprError("not a constant")
        if not self.num:
            return ZERO
        return self.num[CONST_MONO] / self.den[CONST_MONO]

    def is_polynomial(self) -> bool:
        return set(self.den) == {CONST_MONO}

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
        if self.den == _ONE_POLY == o.den:
            return Expr(self.table, _padd(self.num, o.num), _normalized=True)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return Expr(self.table, num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.table, _pneg(self.num), self.den, _normalized=True)

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
        if self.den == _ONE_POLY == o.den:
            return Expr(self.table, _pmul(self.num, o.num), _normalized=True)
        return Expr(self.table, _pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDenominator("division by zero expression")
        if o.is_constant():  # num/c over the same monic den: already normal
            return Expr(self.table, _pscale(self.num, 1 / o.num[CONST_MONO]), self.den, _normalized=True)
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
        dn = _pdiff(self.num, s.index)
        if self.is_polynomial():
            return Expr(self.table, dn, self.den, _normalized=False)
        dd = _pdiff(self.den, s.index)
        num = _padd(_pmul(dn, self.den), _pneg(_pmul(self.num, dd)))
        return Expr(self.table, num, _pmul(self.den, self.den))

    def substitute(self, rules: dict) -> "Expr":
        """Simultaneous substitution Symbol -> Expr, then normalization.

        Rejects rule sets whose values mention other rule keys in a cycle
        (self-reference alone is fine; it is simultaneous substitution).
        """
        if not rules:
            return self
        _check_acyclic(rules)
        used = _pvars(self.num) | _pvars(self.den)
        idx_rules = {
            s.index: (e if isinstance(e, Expr) else Expr.const(self.table, e)) for s, e in rules.items() if s.index in used
        }
        num = _psubstitute(self.table, self.num, idx_rules)
        if self.den == _ONE_POLY:
            return num
        den = _psubstitute(self.table, self.den, idx_rules)
        if den.is_zero():
            raise ZeroDenominator("substitution produced zero denominator")
        return num / den

    # -- evaluation -----------------------------------------------------------

    def eval_fraction(self, values: dict) -> Fraction:
        vals = {s.index: Fraction(v) for s, v in values.items()}
        n = _peval(self.num, vals)
        d = _peval(self.den, vals)
        if d == 0:
            raise ZeroDenominator("evaluation hit a zero denominator")
        return n / d

    def eval_float(self, values: dict) -> float:
        vals = {s.index: float(v) for s, v in values.items()}
        n = sum(float(c) * _mono_eval_float(m, vals) for m, c in self.num.items())
        d = sum(float(c) * _mono_eval_float(m, vals) for m, c in self.den.items())
        return n / d

    # -- structure helpers ------------------------------------------------------

    def coefficient(self, s: Symbol) -> "Expr":
        """Coefficient of s in an expression affine in s."""
        if self.degree_in(s) > 1:
            raise ExprError(f"not affine in {s}")
        return self.diff(s)

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
                coeffs[sym][rest] = coeffs[sym].get(rest, ZERO) + c
            else:
                raise ExprError("expression is not affine in the given symbols")
        den = self.den
        mk = lambda p: Expr(self.table, p, dict(den))
        return mk(const), {s: mk(p) for s, p in coeffs.items() if p}

    def linear_form(self, symbols) -> tuple:
        """As (constant_coefficients, offset) for an expression affine with
        *constant* coefficients over `symbols`; raises otherwise."""
        const, coeffs = self.split_affine(symbols)
        if not const.is_constant():
            raise ExprError("affine part has non-constant remainder")
        row = []
        for s in symbols:
            c = coeffs.get(s)
            if c is None:
                row.append(ZERO)
            elif c.is_constant():
                row.append(c.constant_value())
            else:
                raise ExprError("non-constant linear coefficient")
        return row, const.constant_value()

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if self.is_polynomial():
            return _pstr(self.table, self.num)
        return f"({_pstr(self.table, self.num)})/({_pstr(self.table, self.den)})"

    __repr__ = __str__


def _check_acyclic(rules):
    keys = {s.index for s in rules}
    graph = {}
    for s, e in rules.items():
        if not isinstance(e, Expr):
            graph[s.index] = set()
            continue
        deps = (_pvars(e.num) | _pvars(e.den)) & keys
        graph[s.index] = deps - {s.index}
    if not any(graph.values()):
        return
    seen, stack = set(), set()

    def visit(i):
        if i in stack:
            raise CyclicRules("cyclic substitution rule set")
        if i in seen:
            return
        stack.add(i)
        for j in graph.get(i, ()):
            visit(j)
        stack.discard(i)
        seen.add(i)

    for i in graph:
        visit(i)
    del visit  # it refers to itself: free the cycle now, not at the next gc pass


def _psubstitute(table, poly, idx_rules) -> Expr:
    """poly with every rule applied at once; polynomial rules go through
    `_phorner`, rules with a denominator term by term through Expr."""
    if all(r.den == _ONE_POLY for r in idx_rules.values()):
        return Expr(table, _phorner(poly, {i: r.num for i, r in idx_rules.items()}), _normalized=True)
    acc = Expr.const(table, 0)
    for m, c in poly.items():
        term = Expr.const(table, c)
        for i, e in m:
            rep = idx_rules.get(i)
            if rep is None:
                rep = Expr.sym(table, table[i])
            term = term * rep ** e
        acc = acc + term
    return acc


def _phorner(poly, rules):
    """Simultaneous substitution of polynomial `rules` ({index: poly}).

    The monomials are grouped once into a tree, each level keyed by the
    (index, exponent) of the lowest rule symbol left, the leaf (key None)
    holding the rest.  A node's value is its leaf plus, per symbol v, Horner's
    R_v^e1 (c_1 + R_v^(e2-e1) (c_2 + ...)) over its children, added into the
    leaf's dict.  For a quadratic form this is the congruence T^T (A T).

    The tree runs over the integers: each rule is R_v / d_v with R_v integral,
    and a leaf c under rule exponents e_v holds c * D / prod d_v^e_v for one
    common denominator D of all leaves, so every product and sum is an int
    and each output coefficient is normalized once, as Fraction(x, D).
    """
    irules, dens = {}, {}
    for v, r in rules.items():
        d = dens[v] = lcm(*(c.denominator for c in r.values()))
        irules[v] = {m: c.numerator * (d // c.denominator) for m, c in r.items()}
    tree, leaves = {}, []
    for m, c in poly.items():
        node, rest, scale = tree, [], c.denominator
        for i, e in m:
            if i in rules:
                node = node.setdefault((i, e), {})
                scale *= dens[i] ** e
            else:
                rest.append((i, e))
        leaves.append((node.setdefault(None, {}), tuple(rest), c.numerator, scale))
    den = lcm(*(scale for *_, scale in leaves))
    for leaf, rest, num, scale in leaves:
        leaf[rest] = num * (den // scale)
    return {m: Fraction(x, den) for m, x in _horner(tree, irules).items()}


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
    """a^k, in the coefficients' own type for k >= 1."""
    if not k:
        return _pconst(1)
    out = dict(a)
    for _ in range(k - 1):
        out = _pmul(out, a)
    return out


def _peval(poly, vals):
    total = ZERO
    for m, c in poly.items():
        v = c
        for i, e in m:
            if i not in vals:
                raise ExprError(f"no value for symbol index {i}")
            v *= vals[i] ** e
        total += v
    return total


def _mono_eval_float(m, vals):
    v = 1.0
    for i, e in m:
        v *= vals[i] ** e
    return v


def _pstr(table, poly) -> str:
    if not poly:
        return "0"
    parts = []
    for m in sorted(poly, key=_mono_key, reverse=True):
        c = poly[m]
        factors = [f"{table[i].name}" + (f"^{e}" if e > 1 else "") for i, e in m]
        mag = abs(c)
        if not factors:
            body = _frac_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_frac_str(mag)] + factors)
        if not parts:
            if c > 0:
                parts.append(body)
            elif mag == 1 and factors and "^" in factors[0]:
                # "-x^2" would parse as (-x)^2; spell the coefficient out
                parts.append(f"-1*{body}")
            else:
                parts.append(f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
