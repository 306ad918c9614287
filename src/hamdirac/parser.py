"""Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ("^" UINT)?
    atom   := RATIONAL | IDENT | "d(" IDENT ")" | "dd(" IDENT ")"
            | "(" expr ")" | "-" atom

Identifiers must already be registered in the symbol table; d()/dd() resolve
to the registered velocity/acceleration of a position coordinate.  Printing an
Expr with str() yields a string this parser accepts (round trip on normal
forms).
"""

from __future__ import annotations

from .expr import Expr
from .symbols import SymbolTable


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at byte {pos})")
        self.pos = pos


class UnknownSymbol(ParseError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if "0" <= c <= "9":  # ASCII only: str.isdigit() takes "²" too
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                self.toks.append(("num", text[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("ident", text[i:j], i))
                i = j
                continue
            if c in "+-*/^()":
                self.toks.append((c, c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok


def parse_expr(text: str, table: SymbolTable) -> Expr:
    toks = _Tokens(text)
    e = _expr(toks, table)
    tok = toks.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return e


def _expr(toks, table):
    e = _term(toks, table)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _term(toks, table)
        e = e + rhs if op == "+" else e - rhs
    return e


def _term(toks, table):
    e = _factor(toks, table)
    while toks.peek()[0] in ("*", "/"):
        op, _, pos = toks.next()
        rhs = _factor(toks, table)
        if op == "*":
            e = e * rhs
        else:
            if rhs.is_zero():
                raise ParseError("division by zero", pos)
            e = e / rhs
    return e


def _factor(toks, table):
    e = _atom(toks, table)
    if toks.peek()[0] == "^":
        toks.next()
        tok = toks.expect("num")
        e = e ** int(tok[1])
    return e


def _atom(toks, table):
    tok = toks.next()
    kind, text, pos = tok
    if kind == "-":
        return -_atom(toks, table)
    if kind == "num":
        return Expr.const(table, int(text))
    if kind == "(":
        e = _expr(toks, table)
        toks.expect(")")
        return e
    if kind == "ident":
        if text in ("d", "dd") and toks.peek()[0] == "(":
            toks.next()
            name_tok = toks.expect("ident")
            toks.expect(")")
            base = table.get(name_tok[1])
            if base is None:
                raise UnknownSymbol(f"unknown symbol {name_tok[1]!r}", name_tok[2])
            if base.kind != "position":
                raise ParseError(f"{text}() applies to position coordinates, not {base.kind}", name_tok[2])
            sym = table.velocity(base) if text == "d" else table.acceleration(base)
            return Expr.sym(table, sym)
        sym = table.get(text)
        if sym is None:
            raise UnknownSymbol(f"unknown symbol {text!r}", pos)
        return Expr.sym(table, sym)
    raise ParseError(f"unexpected token {text!r}", pos)
