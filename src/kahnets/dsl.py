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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, DslSyntaxError, UndeclaredPort, UnknownSymbol
from .nets import Net, Signature

_TOKEN = re.compile(r"->|[():]|[A-Za-z_]\w*|\d+|\S")


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
        index = {p: i for i, p in enumerate(self.ports)}
        labels = {i: op.symbol for i, op in enumerate(self.ops)}
        src = {}
        tgt = {}
        for i, op in enumerate(self.ops):
            for j, p in enumerate(op.ins):
                src[(i, j)] = index[p]
            for j, p in enumerate(op.outs):
                tgt[(i, j)] = index[p]
        for k, p in enumerate(self.outputs):
            src[k] = index[p]
        for k, p in enumerate(self.inputs):
            tgt[k] = index[p]
        return Net(self.m, self.n, frozenset(range(len(self.ports))), labels, src, tgt)


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

class _Line:
    def __init__(self, number: int, text: str):
        self.number = number
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(text)]
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self, expected: str = "token") -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
            raise DslSyntaxError(f"expected {expected}, found end of line",
                                 line=self.number, col=col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok, col = self.next(repr(literal))
        if tok != literal:
            raise DslSyntaxError(f"expected {literal!r}, found {tok!r}",
                                 line=self.number, col=col)

    def ident(self, what: str = "identifier") -> tuple[str, int]:
        tok, col = self.next(what)
        if not re.fullmatch(r"[A-Za-z_]\w*", tok):
            raise DslSyntaxError(f"expected {what}, found {tok!r}", line=self.number, col=col)
        return tok, col

    def nat(self, what: str = "number") -> tuple[int, int]:
        tok, col = self.next(what)
        if not tok.isdigit():
            raise DslSyntaxError(f"expected {what}, found {tok!r}", line=self.number, col=col)
        return int(tok), col

    def done(self) -> None:
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise DslSyntaxError(f"unexpected trailing {tok!r}", line=self.number, col=col)

    def idents_until_end(self) -> list[tuple[str, int]]:
        out = []
        while self.peek() is not None:
            out.append(self.ident("port name"))
        return out

    def paren_idents(self) -> list[tuple[str, int]]:
        self.expect("(")
        out = []
        while True:
            tok = self.peek()
            if tok is None:
                raise DslSyntaxError("unclosed '('", line=self.number,
                                     col=self.tokens[-1][1])
            if tok == ")":
                self.next()
                return out
            out.append(self.ident("port name"))


class _NetBuilder:
    def __init__(self, name: str, m: int, n: int, line: int):
        self.name = name
        self.m = m
        self.n = n
        self.line = line
        self.ports: list[str] = []
        self.port_set: set[str] = set()
        self.ops: list[OpDef] = []
        self.op_ids: set[str] = set()
        self.inputs: Optional[list[str]] = None
        self.outputs: Optional[list[str]] = None

    def check_port(self, name: str, line: int, col: int) -> str:
        if name not in self.port_set:
            raise UndeclaredPort(f"port {name!r} not declared in net {self.name!r}",
                                 line=line, col=col)
        return name

    def finish(self, sig: Signature) -> NetDef:
        inputs = self.inputs or []
        outputs = self.outputs or []
        if len(inputs) != self.m:
            raise ArityMismatch(
                f"net {self.name!r} declares {self.m} inputs but lists {len(inputs)}",
                line=self.line)
        if len(outputs) != self.n:
            raise ArityMismatch(
                f"net {self.name!r} declares {self.n} outputs but lists {len(outputs)}",
                line=self.line)
        return NetDef(self.name, self.m, self.n, tuple(self.ports), tuple(self.ops),
                      tuple(inputs), tuple(outputs))


def parse_document(text: str) -> NetDocument:
    symbols: dict[str, tuple[int, int]] = {}
    nets: list[NetDef] = []
    current: Optional[_NetBuilder] = None

    def close(builder: Optional[_NetBuilder]) -> None:
        if builder is not None:
            nets.append(builder.finish(Signature(symbols)))

    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        line = _Line(number, stripped)
        keyword, kcol = line.next("keyword")

        if keyword == "sig":
            name, col = line.ident("symbol name")
            if name in symbols:
                raise DslSyntaxError(f"symbol {name!r} declared twice", line=number, col=col)
            ar, _ = line.nat("arity")
            co, _ = line.nat("coarity")
            line.done()
            symbols[name] = (ar, co)

        elif keyword == "net":
            close(current)
            name, _ = line.ident("net name")
            line.expect(":")
            m, _ = line.nat("input count")
            line.expect("->")
            n, _ = line.nat("output count")
            line.done()
            if any(nd.name == name for nd in nets):
                raise DslSyntaxError(f"net {name!r} declared twice", line=number)
            current = _NetBuilder(name, m, n, number)

        elif keyword in ("ports", "op", "in", "out"):
            if current is None:
                raise DslSyntaxError(f"{keyword!r} outside of a net block", line=number, col=kcol)
            if keyword == "ports":
                for p, col in line.idents_until_end():
                    if p in current.port_set:
                        raise DslSyntaxError(f"port {p!r} declared twice", line=number, col=col)
                    current.ports.append(p)
                    current.port_set.add(p)
            elif keyword == "op":
                ident, col = line.ident("operator id")
                if ident in current.op_ids:
                    raise DslSyntaxError(f"operator {ident!r} declared twice", line=number, col=col)
                sym, scol = line.ident("symbol name")
                if sym not in symbols:
                    raise UnknownSymbol(f"symbol {sym!r} not declared", line=number, col=scol)
                ins = [current.check_port(p, number, c) for p, c in line.paren_idents()]
                line.expect("->")
                outs = [current.check_port(p, number, c) for p, c in line.paren_idents()]
                line.done()
                ar, co = symbols[sym]
                if len(ins) != ar or len(outs) != co:
                    raise ArityMismatch(
                        f"operator {ident!r}: symbol {sym!r} is {ar}->{co}, "
                        f"wired {len(ins)}->{len(outs)}", line=number, col=scol)
                current.op_ids.add(ident)
                current.ops.append(OpDef(ident, sym, tuple(ins), tuple(outs)))
            elif keyword == "in":
                if current.inputs is not None:
                    raise DslSyntaxError("duplicate 'in' line", line=number, col=kcol)
                current.inputs = [current.check_port(p, number, c)
                                  for p, c in line.idents_until_end()]
            else:
                if current.outputs is not None:
                    raise DslSyntaxError("duplicate 'out' line", line=number, col=kcol)
                current.outputs = [current.check_port(p, number, c)
                                   for p, c in line.idents_until_end()]

        else:
            raise DslSyntaxError(f"unknown keyword {keyword!r}", line=number, col=kcol)

    close(current)
    return NetDocument(Signature(symbols), tuple(nets))


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
