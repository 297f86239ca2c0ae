"""Recursive-descent parser for scalar expressions.

Grammar (whitespace insignificant, juxtaposition is never multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' posint)?
    base     := rational | variable | '(' expr ')'
    rational := int ('/' posint)?
    variable := 'x' posint

A '-' directly in front of digits in base position is part of the integer
literal; there is no unary minus on variables or parenthesized expressions.
The canonical printers in the scalar module emit text in this grammar, and
parse(print(f)) == f holds for every field f.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import ScalarSyntaxError, UnknownVariable
from .scalar import ScalarField

# The grammar is ASCII; \d and \s would otherwise match a fullwidth "12".
_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+\-*/^()]))", re.ASCII)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII

# Parenthesis nesting allowed before the parser refuses the input; each
# level costs four Python frames of recursion.
MAX_DEPTH = 100

# Largest power the parser builds: the product of the exponents on any chain
# of nested powers, so "(1+x1)^200" and "((1+x1)^20)^20" are both refused
# before the expansion they would cost.
MAX_EXPONENT = 32

_INT = "int"
_VAR = "var"
_OP = "op"
_END = "end"


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        var, num, op = m.groups()
        start = m.start(1) if var else m.start(2) if num else m.start(3)
        if var:
            tokens.append((_VAR, var, start))
        elif num:
            try:
                tokens.append((_INT, int(num), start))
            except ValueError:  # beyond the interpreter's int() digit limit
                raise ScalarSyntaxError(
                    f"integer literal of {len(num)} digits is too long", start
                ) from None
        elif op:
            tokens.append((_OP, op, start))
        pos = m.end()
    rest = text[pos:].strip(_SPACE)
    if rest:
        bad = pos + text[pos:].index(rest[0])
        raise ScalarSyntaxError(f"unexpected character {rest[0]!r}", bad)
    tokens.append((_END, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # largest exponent product inside the factors parsed so far
        self.power = 1
        self.nvars = len(variables)
        self.index = {name: k for k, name in enumerate(variables)}

    def peek(self, ahead: int = 0):
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != _END:
            self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, at = self.take()
        if kind != _OP or value != symbol:
            raise ScalarSyntaxError(f"expected {symbol!r}", at)

    def parse(self) -> ScalarField:
        value = self.expr()
        kind, _, at = self.peek()
        if kind != _END:
            raise ScalarSyntaxError("trailing input after expression", at)
        return value

    def expr(self) -> ScalarField:
        value = self.term()
        while True:
            kind, sym, _ = self.peek()
            if kind == _OP and sym in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if sym == "+" else value - rhs
            else:
                return value

    def term(self) -> ScalarField:
        value = self.factor()
        while True:
            kind, sym, _ = self.peek()
            if kind == _OP and sym in "*/":
                self.take()
                rhs = self.factor()
                value = value * rhs if sym == "*" else value / rhs
            else:
                return value

    def factor(self) -> ScalarField:
        outer, self.power = self.power, 1
        value = self.base()
        power = self.power
        kind, sym, _ = self.peek()
        if kind == _OP and sym == "^":
            self.take()
            at = self.peek()[2]
            exp = self.posint("exponent")
            power *= exp
            if power > MAX_EXPONENT:
                raise ScalarSyntaxError(f"power larger than {MAX_EXPONENT}", at)
            value = value ** exp
        self.power = max(outer, power)
        return value

    def posint(self, what: str) -> int:
        kind, value, at = self.take()
        if kind != _INT:
            raise ScalarSyntaxError(f"expected positive integer {what}", at)
        if value < 1:
            raise ScalarSyntaxError(f"{what} must be positive", at)
        return value

    def base(self) -> ScalarField:
        kind, value, at = self.peek()
        if kind == _OP and value == "-":
            nkind, nvalue, nat = self.peek(1)
            if nkind != _INT:
                raise ScalarSyntaxError("'-' must be followed by digits here", at)
            self.take()
            self.take()
            return self.rational_tail(-nvalue)
        if kind == _INT:
            self.take()
            return self.rational_tail(value)
        if kind == _VAR:
            self.take()
            idx = self.index.get(value)
            if idx is None:
                raise UnknownVariable(value, at)
            return ScalarField.coordinate(self.nvars, idx)
        if kind == _OP and value == "(":
            if self.depth == MAX_DEPTH:
                raise ScalarSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", at)
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ScalarSyntaxError("expected a rational, a variable or '('", at)

    def rational_tail(self, numerator: int) -> ScalarField:
        # 'int / posint' is one rational literal; any other '/' stays a
        # division operator for the term level
        kind, sym, _ = self.peek()
        if kind == _OP and sym == "/" and self.peek(1)[0] == _INT:
            self.take()
            den = self.posint("rational denominator")
            return ScalarField.const(self.nvars, Fraction(numerator, den))
        return ScalarField.const(self.nvars, numerator)


def parse_scalar(text: str, variables: Sequence[str] | int) -> ScalarField:
    """Parse grammar text into a canonical ScalarField.

    `variables` is either the ordered tuple of coordinate names or the chart
    dimension n (meaning x1..xn).
    """
    if isinstance(variables, int):
        variables = tuple(f"x{k + 1}" for k in range(variables))
    return _Parser(text, variables).parse()
