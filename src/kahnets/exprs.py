"""A deliberately small expression language for simulation inputs.

Grammar (recursive descent)::

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | atom
    atom  := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'

with FUNC one of sin, cos, exp, abs.  ``parse_expr`` compiles the text to a
plain float -> float function.  A run of ``+``/``-`` terms or ``*``/``/``
factors compiles to one loop, left to right; each ``(``, function call or
unary minus nests one level, and no expression may nest deeper than
``MAX_NESTING`` levels, which bounds the recursion of parsing and of
evaluation alike.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

from .errors import ConfigError, _echo

_TOKEN = re.compile(r"\s*(\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?|[A-Za-z_]\w*|[()+\-*/]|\S)")

#: How deep parentheses, function calls and unary minus may nest: far deeper
#: than hand-written expressions, and far within Python's recursion limit at
#: five parser frames and at most three evaluation frames a level.
MAX_NESTING = 100

_BINARY: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_FUNCS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
}


def _fold(first, rest):
    """``first`` combined left to right with each ``(op, right)`` of ``rest``."""
    if not rest:
        return first

    def fn(t: float) -> float:
        acc = first(t)
        for op, right in rest:
            acc = op(acc, right(t))
        return acc
    return fn


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m[1], m.start(1) + 1) for m in _TOKEN.finditer(text)]
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ConfigError:
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text) + 1
        return ConfigError(f"{message} in expression {_echo(self.text)}", col=col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end")
        self.pos += 1
        return tok

    def expr(self) -> Callable[[float], float]:
        first, rest = self.term(), []
        while self.peek() in ("+", "-"):
            op = _BINARY[self.take()]
            rest.append((op, self.term()))
        return _fold(first, rest)

    def term(self) -> Callable[[float], float]:
        first, rest = self.unary(), []
        while self.peek() in ("*", "/"):
            op = _BINARY[self.take()]
            rest.append((op, self.unary()))
        return _fold(first, rest)

    def nested(self, parse) -> Callable[[float], float]:
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def unary(self) -> Callable[[float], float]:
        if self.peek() == "-":
            self.take()
            inner = self.nested(self.unary)
            return lambda t: -inner(t)
        return self.atom()

    def atom(self) -> Callable[[float], float]:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end")
        if tok == "(":
            self.take()
            inner = self.nested(self.expr)
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return inner
        if re.fullmatch(r"(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?", tok):
            self.take()
            value = float(tok)
            return lambda t: value
        if tok == "t":
            self.take()
            return lambda t: t
        if tok in _FUNCS:
            self.take()
            if self.peek() != "(":
                raise self.error(f"expected '(' after {tok}")
            self.take()
            inner = self.nested(self.expr)
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            fn = _FUNCS[tok]
            return lambda t: fn(inner(t))
        raise self.error(f"unexpected token {_echo(tok)}")


def parse_expr(text: str) -> Callable[[float], float]:
    parser = _Parser(text)
    if not parser.tokens:
        raise ConfigError(f"empty expression {_echo(text)}")
    fn = parser.expr()
    if parser.peek() is not None:
        raise parser.error(f"unexpected trailing {_echo(parser.peek())}")
    return fn
