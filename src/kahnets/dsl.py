"""Textual format for signatures and nets.

One item per line, ``#`` starts a comment::

    sig alpha 2 1
    net main : 2 -> 2
      ports p0 p1 p2 p3 p4
      op x0 alpha (p0 p4) -> (p2)
      op x1 beta (p2 p1) -> (p3 p4)
      in p0 p1
      out p3 p4

``in`` lists the ports the boundary inputs arrive on (length = domain),
``out`` the ports the boundary outputs read (length = codomain); both lines
may be omitted when empty.  Parsing a printed document yields the same
document, and printing is canonical.

The grammar is stated once, in :class:`_Line`: one method per kind of line
returns what the line declares or raises its first error.  A parse error
names its line and, where it concerns one token, that token's column, which
is computed only when the error is raised, by scanning the line again.  The
one shortcut is for op lines, most of any large document: one
regular-expression match, ``_OP_LINE``, accepts a well-formed op line without
splitting it into tokens, and any line it does not accept goes to the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, DslSyntaxError, KahnetsError, UndeclaredPort, UnknownSymbol
from .nets import Net, Signature, _dense

_TOKEN = re.compile(r"->|[():]|[A-Za-z_]\w*|\d+|\S")
# The shape of an op line: its id, its symbol, and its input and output port
# lists.  Where both lists split on whitespace into declared ports, each a
# whole ``[A-Za-z_]\w*`` token, the pieces are the tokens ``_TOKEN`` finds,
# so a match accepts only op lines that ``_Line.op`` accepts, and reads them
# as it does.
_OP_LINE = re.compile(r"\s*op\s+([A-Za-z_]\w*)\s+([A-Za-z_]\w*)"
                      r"\s*\(([^()]*)\)\s*->\s*\(([^()]*)\)\s*")


@dataclass(frozen=True)
class OpDef:
    ident: str
    symbol: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]


@dataclass(frozen=True)
class NetDef:
    name: str
    m: int
    n: int
    ports: tuple[str, ...]
    ops: tuple[OpDef, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def to_net(self) -> Net:
        """The net this definition describes, port and operator ids numbered
        in order of declaration.

        :func:`parse_document` has checked every symbol, arity, port and the
        boundary counts, so the one defect a parsed definition can have is a
        port with two drivers.  That net is built from slot dicts, for
        :func:`kahnets.nets.validate` to report; any other holds its wiring."""
        port = {p: i for i, p in enumerate(self.ports)}.__getitem__
        ops = [(op.symbol, (*map(port, op.ins),), (*map(port, op.outs),)) for op in self.ops]
        inputs, outputs = (*map(port, self.inputs),), (*map(port, self.outputs),)
        try:
            return _dense(ops, inputs, outputs, len(self.ports))
        except RuntimeError:  # a port with two drivers
            src = {(x, i): p for x, (_, xi, _) in enumerate(ops) for i, p in enumerate(xi)}
            tgt = {(x, j): p for x, (_, _, xo) in enumerate(ops) for j, p in enumerate(xo)}
            return Net(self.m, self.n, range(len(self.ports)), {x: op[0] for x, op in enumerate(ops)},
                       {**src, **dict(enumerate(outputs))}, {**tgt, **dict(enumerate(inputs))})


@dataclass(frozen=True)
class NetDocument:
    signature: Signature
    nets: tuple[NetDef, ...]

    def net_def(self, name: str) -> NetDef:
        for nd in self.nets:
            if nd.name == name:
                return nd
        known = ", ".join(nd.name for nd in self.nets) or "none"
        raise DslSyntaxError(f"no net named {name!r} in document (known: {known})")

    def net(self, name: str) -> Net:
        return self.net_def(name).to_net()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Every token that starts with one of these is a whole ``[A-Za-z_]\w*`` match
# of ``_TOKEN``, and every token that starts with a decimal digit a ``\d+`` one.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _Net:
    """A net block while its lines are read."""

    def __init__(self, name: str, m: int, n: int, line: int):
        self.name = name
        self.m = m
        self.n = n
        self.line = line
        self.ports: list[str] = []
        self.port_set: set[str] = set()
        self.ops: dict[str, OpDef] = {}
        self.inputs: Optional[tuple[str, ...]] = None
        self.outputs: Optional[tuple[str, ...]] = None

    def finish(self) -> NetDef:
        inputs = self.inputs or ()
        outputs = self.outputs or ()
        if len(inputs) != self.m:
            raise ArityMismatch(
                f"net {self.name!r} declares {self.m} inputs but lists {len(inputs)}",
                line=self.line)
        if len(outputs) != self.n:
            raise ArityMismatch(
                f"net {self.name!r} declares {self.n} outputs but lists {len(outputs)}",
                line=self.line)
        return NetDef(self.name, self.m, self.n, tuple(self.ports), tuple(self.ops.values()),
                      inputs, outputs)


def parse_document(text: str) -> NetDocument:
    """Read a document line by line: :class:`_Line` reads each line's tokens
    and returns what the line declares or raises its first error.  The one
    shortcut: inside a net block, an op line that ``_OP_LINE`` matches whole
    is accepted untokenised when its symbol is declared with the arity of its
    port lists, its id is new and its ports are declared."""
    symbols: dict[str, tuple[int, int]] = {}
    nets: list[NetDef] = []
    current: Optional[_Net] = None

    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        if current is not None:
            match = _OP_LINE.fullmatch(code)
            if match is not None:
                ident, sym, ins, outs = match[1], match[2], match[3].split(), match[4].split()
                if (symbols.get(sym) == (len(ins), len(outs)) and ident not in current.ops
                        and current.port_set.issuperset(ins)
                        and current.port_set.issuperset(outs)):
                    current.ops[ident] = OpDef(ident, sym, tuple(ins), tuple(outs))
                    continue
        toks = _TOKEN.findall(code)
        if not toks:
            continue
        line, keyword = _Line(number, code, toks), toks[0]
        if keyword == "sig":
            name, arities = line.sig(symbols)
            symbols[name] = arities
        elif keyword == "net":
            if current is not None:
                nets.append(current.finish())
            current = line.net(nets)
        elif keyword not in ("op", "ports", "in", "out"):
            raise line.error(DslSyntaxError, f"unknown keyword {keyword!r}", 0)
        elif current is None:
            raise line.error(DslSyntaxError, f"{keyword!r} outside of a net block", 0)
        elif keyword == "op":
            op = line.op(current, symbols)
            current.ops[op.ident] = op
        elif keyword == "ports":
            listed = line.ports(current.port_set)
            current.ports += listed
            current.port_set.update(listed)
        elif keyword == "in":
            current.inputs = line.boundary(current)
        else:
            current.outputs = line.boundary(current)

    if current is not None:
        nets.append(current.finish())
    return NetDocument(Signature(symbols), tuple(nets))


class _Line:
    """The grammar of a line, walked token by token from the keyword on.
    Each kind of line has one method, which returns what the line declares
    or raises its first error; a token's column is found only then, by
    scanning the line again."""

    def __init__(self, number: int, text: str, tokens: list[str]):
        self.number = number
        self.text = text
        self.tokens = tokens
        self.pos = 1

    def error(self, kind: type[KahnetsError], message: str, index: int) -> KahnetsError:
        """``kind(message)`` located at token ``index``, or just past the last
        token when ``index`` is the token count."""
        starts = [m.start() + 1 for m in _TOKEN.finditer(self.text)]
        if index < len(starts):
            col = starts[index]
        else:
            col = starts[-1] + len(self.tokens[-1])
        return kind(message, line=self.number, col=col)

    def next(self, expected: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise self.error(DslSyntaxError, f"expected {expected}, found end of line", self.pos)
        self.pos += 1
        return self.tokens[self.pos - 1], self.pos - 1

    def expect(self, literal: str) -> None:
        tok, i = self.next(repr(literal))
        if tok != literal:
            raise self.error(DslSyntaxError, f"expected {literal!r}, found {tok!r}", i)

    def ident(self, what: str) -> tuple[str, int]:
        tok, i = self.next(what)
        if tok[0] not in _IDENT_START:
            raise self.error(DslSyntaxError, f"expected {what}, found {tok!r}", i)
        return tok, i

    def nat(self, what: str) -> int:
        tok, i = self.next(what)
        if not tok[0].isdecimal():
            raise self.error(DslSyntaxError, f"expected {what}, found {tok!r}", i)
        return int(tok)

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise self.error(DslSyntaxError, f"unexpected trailing {self.tokens[self.pos]!r}",
                             self.pos)

    def port_names(self) -> list[str]:
        """The rest of the line, which must be port names."""
        listed = self.tokens[self.pos:]
        if not all(p[0] in _IDENT_START for p in listed):
            for _ in listed:
                self.ident("port name")
        return listed

    def declared(self, net: _Net, start: int, stop: int) -> tuple[str, ...]:
        """Tokens ``start`` to ``stop``, which must be ports declared in ``net``."""
        listed = self.tokens[start:stop]
        if not net.port_set.issuperset(listed):
            for i, p in enumerate(listed, start):
                if p not in net.port_set:
                    raise self.error(UndeclaredPort,
                                     f"port {p!r} not declared in net {net.name!r}", i)
        return tuple(listed)

    def paren_ports(self, net: _Net) -> tuple[str, ...]:
        """A parenthesised list of ports declared in ``net``."""
        self.expect("(")
        start = self.pos
        while self.pos < len(self.tokens) and self.tokens[self.pos] != ")":
            self.ident("port name")
        if self.pos == len(self.tokens):
            raise self.error(DslSyntaxError, "unclosed '('", len(self.tokens) - 1)
        self.pos += 1
        return self.declared(net, start, self.pos - 1)

    def sig(self, symbols: dict[str, tuple[int, int]]) -> tuple[str, tuple[int, int]]:
        """``sig NAME ARITY COARITY``: the symbol and its arities."""
        name, i = self.ident("symbol name")
        if name in symbols:
            raise self.error(DslSyntaxError, f"symbol {name!r} declared twice", i)
        arities = self.nat("arity"), self.nat("coarity")
        self.done()
        return name, arities

    def net(self, nets: list[NetDef]) -> _Net:
        """``net NAME : M -> N``: a new net block."""
        name, _ = self.ident("net name")
        self.expect(":")
        m = self.nat("input count")
        self.expect("->")
        n = self.nat("output count")
        self.done()
        if any(nd.name == name for nd in nets):
            raise DslSyntaxError(f"net {name!r} declared twice", line=self.number)
        return _Net(name, m, n, self.number)

    def ports(self, declared: set[str]) -> list[str]:
        """``ports NAME…``: port names not yet in ``declared``."""
        listed = self.port_names()
        fresh = set(listed)
        if len(fresh) < len(listed) or not fresh.isdisjoint(declared):
            seen = set(declared)
            for i, p in enumerate(listed, 1):
                if p in seen:
                    raise self.error(DslSyntaxError, f"port {p!r} declared twice", i)
                seen.add(p)
        return listed

    def boundary(self, net: _Net) -> tuple[str, ...]:
        """``in NAME…`` or ``out NAME…``: declared ports, one such line per net."""
        if (net.inputs if self.tokens[0] == "in" else net.outputs) is not None:
            raise self.error(DslSyntaxError, f"duplicate {self.tokens[0]!r} line", 0)
        self.port_names()
        return self.declared(net, 1, len(self.tokens))

    def op(self, net: _Net, symbols: dict[str, tuple[int, int]]) -> OpDef:
        """``op ID SYMBOL (IN…) -> (OUT…)``: an operator wired as its symbol's
        arities say, from and to declared ports."""
        ident, i = self.ident("operator id")
        if ident in net.ops:
            raise self.error(DslSyntaxError, f"operator {ident!r} declared twice", i)
        sym, s = self.ident("symbol name")
        if sym not in symbols:
            raise self.error(UnknownSymbol, f"symbol {sym!r} not declared", s)
        ins = self.paren_ports(net)
        self.expect("->")
        outs = self.paren_ports(net)
        self.done()
        if symbols[sym] != (len(ins), len(outs)):
            ar, co = symbols[sym]
            raise self.error(ArityMismatch, f"operator {ident!r}: symbol {sym!r} is {ar}->{co}, "
                                            f"wired {len(ins)}->{len(outs)}", s)
        return OpDef(ident, sym, ins, outs)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def net_to_def(net: Net, name: str) -> NetDef:
    """Render an in-memory net as a definition with generated names."""
    w = net.wiring

    def names(ports) -> tuple[str, ...]:
        return tuple(f"p{p}" for p in ports)

    ops = tuple(OpDef(f"x{x}", label, names(xi), names(xo)) for x, (label, xi, xo) in enumerate(w.ops))
    return NetDef(name, net.m, net.n, names(range(len(w.port_ids))), ops,
                  names(w.inputs), names(w.outputs))


def format_document(doc: NetDocument) -> str:
    lines: list[str] = []
    for name, (ar, co) in doc.signature.symbols.items():
        lines.append(f"sig {name} {ar} {co}")
    for nd in doc.nets:
        if lines:
            lines.append("")
        lines.append(f"net {nd.name} : {nd.m} -> {nd.n}")
        if nd.ports:
            lines.append("  ports " + " ".join(nd.ports))
        for op in nd.ops:
            lines.append(f"  op {op.ident} {op.symbol} ({' '.join(op.ins)}) -> ({' '.join(op.outs)})")
        if nd.inputs:
            lines.append("  in " + " ".join(nd.inputs))
        if nd.outputs:
            lines.append("  out " + " ".join(nd.outputs))
    return "\n".join(lines) + "\n"
