"""Expression parser and grammar for polynomial input.

Accepted grammar (whitespace free between tokens):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' integer)?
    atom   :=  integer | identifier | '(' expr ')'

'^' binds tightest, multiplication is always explicit, '/' is only allowed
with a nonzero constant divisor (so rational literals like 3/4 work).
Identifiers must be variables of the supplied context.  Errors carry the
offset into the input line.  A power of a base with t >= 2 terms may have
up to C(e + t - 1, t - 1) terms; when that exceeds the reduction steps the
active budget has left, or when binary powering may form more term
products than `ideals._power_overrun` admits, the power raises
`BudgetExhausted` before it is expanded (the budget is read, not drawn
from).
"""

from __future__ import annotations

from fractions import Fraction

from .ideals import BudgetExhausted, _power_overrun, _steps_left
from .poly import Context, Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__("%s (at position %d: %r)" % (message, pos, text[pos:pos + 12]))


class _Lexer:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "")
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos:j])
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos:j])
        if ch in "+-*/^()":
            return (ch, ch)
        raise ParseError("unexpected character %r" % ch, self.text, self.pos)

    def take(self):
        kind, val = self.peek()
        self.pos += len(val)
        return kind, val

    def expect(self, kind):
        got, val = self.take()
        if got != kind:
            raise ParseError("expected %r, found %r" % (kind, val or "end of input"),
                             self.text, self.pos - len(val))
        return val


def parse_polynomial(text: str, ctx: Context, fold_case: bool = False) -> Polynomial:
    """Parse an expression into a Polynomial over ctx."""
    lex = _Lexer(text)
    p = _expr(lex, ctx, fold_case)
    kind, val = lex.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % val, text, lex.pos)
    return p


def _expr(lex, ctx, fold):
    p = _term(lex, ctx, fold)
    while True:
        kind, _ = lex.peek()
        if kind == "+":
            lex.take()
            p = p + _term(lex, ctx, fold)
        elif kind == "-":
            lex.take()
            p = p - _term(lex, ctx, fold)
        else:
            return p


def _term(lex, ctx, fold):
    p = _unary(lex, ctx, fold)
    while True:
        kind, _ = lex.peek()
        if kind == "*":
            lex.take()
            p = p * _unary(lex, ctx, fold)
        elif kind == "/":
            pos = lex.pos
            lex.take()
            q = _unary(lex, ctx, fold)
            if not q.is_constant() or q.is_zero():
                raise ParseError("divisor must be a nonzero constant", lex.text, pos)
            p = p * (1 / q.constant_value())
        else:
            return p


def _unary(lex, ctx, fold):
    kind, _ = lex.peek()
    if kind == "-":
        lex.take()
        return -_unary(lex, ctx, fold)
    return _power(lex, ctx, fold)


def _power(lex, ctx, fold):
    start = lex.pos
    p = _atom(lex, ctx, fold)
    kind, _ = lex.peek()
    if kind == "^":
        lex.take()
        e = int(lex.expect("int"))
        left = _steps_left(1)
        if _terms_may_exceed(len(p.terms), e, left):
            why = "may have more terms than the %d reduction steps left" % left
        else:
            why = _power_overrun(p.terms, e)
        if why:
            raise BudgetExhausted("%s %s" % (lex.text[start:lex.pos].strip(), why))
        p = p ** e
    return p


def _terms_may_exceed(t: int, e: int, left: int) -> bool:
    """Whether a base of t >= 2 terms to the power e may have more than
    left terms: C(e + t - 1, t - 1) > left.  C(e + k, k) is built up for
    k < t and the loop stops once it passes left, so no huge binomial is
    formed."""
    if t < 2:
        return False
    bound = 1
    for k in range(1, t):
        bound = bound * (e + k) // k
        if bound > left:
            return True
    return False


def _atom(lex, ctx, fold):
    kind, val = lex.take()
    if kind == "int":
        return ctx.const(Fraction(int(val)))
    if kind == "ident":
        name = val
        if name not in ctx and fold and name.lower() in ctx:
            name = name.lower()
        if name not in ctx:
            raise ParseError("unknown variable %r" % val, lex.text, lex.pos - len(val))
        return ctx.var(name)
    if kind == "(":
        p = _expr(lex, ctx, fold)
        lex.expect(")")
        return p
    raise ParseError("expected a number, variable or '('", lex.text, lex.pos - len(val))
