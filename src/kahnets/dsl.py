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

A parse error names its line and, where it concerns one token, that token's
column.  Columns are computed only when an error is raised, by scanning the
offending line again.  A well-formed op line, most of any large document, is
accepted with one regular-expression match and is never split into tokens;
any other well-formed line is split into tokens once and accepted whole.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn, Optional

from .errors import ArityMismatch, DslSyntaxError, KahnetsError, UndeclaredPort, UnknownSymbol
from .nets import Net, Signature, _dense

_TOKEN = re.compile(r"->|[():]|[A-Za-z_]\w*|\d+|\S")
# The shape of an op line: its id, its symbol, and its input and output port
# lists.  Where both lists split on whitespace into declared ports, each a
# whole ``[A-Za-z_]\w*`` token, the pieces are the tokens ``_TOKEN`` finds,
# so a match accepts exactly the op lines that a token walk accepts.
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
        self.ops: list[OpDef] = []
        self.op_ids: set[str] = set()
        self.inputs: Optional[list[str]] = None
        self.outputs: Optional[list[str]] = None

    def finish(self) -> NetDef:
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
    """Read a document.  Inside a net block, a line is first matched whole
    against the shape of an op line, ``_OP_LINE``; it is accepted when its
    symbol is declared with the arity of its port lists, its id is new and
    every port it lists is declared.  Any other line is split into tokens
    once and accepted by comparing its token list against the shape of a
    well-formed line.  Only a refused line is walked token by token, by
    :class:`_Line`, to report its first error."""
    symbols: dict[str, tuple[int, int]] = {}
    nets: list[NetDef] = []
    current: Optional[_Net] = None

    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        if current is not None:
            match = _OP_LINE.fullmatch(code)
            if match is not None:
                ident, sym, ins, outs = match[1], match[2], match[3].split(), match[4].split()
                if (symbols.get(sym) == (len(ins), len(outs)) and ident not in current.op_ids
                        and current.port_set.issuperset(ins)
                        and current.port_set.issuperset(outs)):
                    current.op_ids.add(ident)
                    current.ops.append(OpDef(ident, sym, tuple(ins), tuple(outs)))
                    continue
        toks = _TOKEN.findall(code)
        if not toks:
            continue
        keyword = toks[0]

        if keyword in ("op", "ports", "in", "out"):
            if current is None:
                raise _Line(number, code, toks).error(
                    DslSyntaxError, f"{keyword!r} outside of a net block", 0)
            declared = current.port_set
            if keyword == "op":
                _Line(number, code, toks).reject_op(current, symbols)
            listed = toks[1:]
            if keyword == "ports":
                fresh = set(listed)
                if (len(fresh) == len(listed) and fresh.isdisjoint(declared)
                        and all(p[0] in _IDENT_START for p in listed)):
                    current.ports += listed
                    declared.update(fresh)
                    continue
                _Line(number, code, toks).reject_ports(declared)
            if keyword == "in" and current.inputs is None and declared.issuperset(listed):
                current.inputs = listed
            elif keyword == "out" and current.outputs is None and declared.issuperset(listed):
                current.outputs = listed
            else:
                _Line(number, code, toks).reject_boundary(current)

        elif keyword == "sig":
            if (len(toks) == 4 and toks[1][0] in _IDENT_START and toks[1] not in symbols
                    and toks[2][0].isdecimal() and toks[3][0].isdecimal()):
                symbols[toks[1]] = (int(toks[2]), int(toks[3]))
                continue
            _Line(number, code, toks).reject_sig(symbols)

        elif keyword == "net":
            if current is not None:
                nets.append(current.finish())
            if not (len(toks) == 6 and toks[1][0] in _IDENT_START and toks[2] == ":"
                    and toks[3][0].isdecimal() and toks[4] == "->" and toks[5][0].isdecimal()):
                _Line(number, code, toks).reject_net()
            if any(nd.name == toks[1] for nd in nets):
                raise DslSyntaxError(f"net {toks[1]!r} declared twice", line=number)
            current = _Net(toks[1], int(toks[3]), int(toks[5]), number)

        else:
            raise _Line(number, code, toks).error(
                DslSyntaxError, f"unknown keyword {keyword!r}", 0)

    if current is not None:
        nets.append(current.finish())
    return NetDocument(Signature(symbols), tuple(nets))


class _Line:
    """A line that :func:`parse_document` did not accept, walked token by
    token from the keyword on.  Each ``reject_*`` method raises the first
    error of its kind of line; a token's column is found only then, by
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

    def nat(self, what: str) -> None:
        tok, i = self.next(what)
        if not tok[0].isdecimal():
            raise self.error(DslSyntaxError, f"expected {what}, found {tok!r}", i)

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise self.error(DslSyntaxError, f"unexpected trailing {self.tokens[self.pos]!r}",
                             self.pos)

    def port_names(self) -> list[tuple[str, int]]:
        """The rest of the line, which must be port names."""
        return [self.ident("port name") for _ in range(self.pos, len(self.tokens))]

    def paren_idents(self) -> list[tuple[str, int]]:
        self.expect("(")
        out = []
        while self.pos < len(self.tokens) and self.tokens[self.pos] != ")":
            out.append(self.ident("port name"))
        if self.pos == len(self.tokens):
            raise self.error(DslSyntaxError, "unclosed '('", len(self.tokens) - 1)
        self.pos += 1
        return out

    def declared(self, net: _Net, ports: list[tuple[str, int]]) -> None:
        for p, i in ports:
            if p not in net.port_set:
                raise self.error(UndeclaredPort, f"port {p!r} not declared in net {net.name!r}", i)

    def unreachable(self) -> DslSyntaxError:
        return DslSyntaxError("line rejected without a reason", line=self.number)

    def reject_sig(self, symbols: dict[str, tuple[int, int]]) -> NoReturn:
        name, i = self.ident("symbol name")
        if name in symbols:
            raise self.error(DslSyntaxError, f"symbol {name!r} declared twice", i)
        self.nat("arity")
        self.nat("coarity")
        self.done()
        raise self.unreachable()

    def reject_net(self) -> NoReturn:
        self.ident("net name")
        self.expect(":")
        self.nat("input count")
        self.expect("->")
        self.nat("output count")
        self.done()
        raise self.unreachable()

    def reject_ports(self, declared: set[str]) -> NoReturn:
        seen = set(declared)
        for p, i in self.port_names():
            if p in seen:
                raise self.error(DslSyntaxError, f"port {p!r} declared twice", i)
            seen.add(p)
        raise self.unreachable()

    def reject_boundary(self, net: _Net) -> NoReturn:
        if (net.inputs if self.tokens[0] == "in" else net.outputs) is not None:
            raise self.error(DslSyntaxError, f"duplicate {self.tokens[0]!r} line", 0)
        self.declared(net, self.port_names())
        raise self.unreachable()

    def reject_op(self, net: _Net, symbols: dict[str, tuple[int, int]]) -> NoReturn:
        ident, i = self.ident("operator id")
        if ident in net.op_ids:
            raise self.error(DslSyntaxError, f"operator {ident!r} declared twice", i)
        sym, s = self.ident("symbol name")
        if sym not in symbols:
            raise self.error(UnknownSymbol, f"symbol {sym!r} not declared", s)
        ins = self.paren_idents()
        self.declared(net, ins)
        self.expect("->")
        outs = self.paren_idents()
        self.declared(net, outs)
        self.done()
        ar, co = symbols[sym]
        raise self.error(ArityMismatch, f"operator {ident!r}: symbol {sym!r} is {ar}->{co}, "
                                        f"wired {len(ins)}->{len(outs)}", s)


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
