"""Reference answers for the benchmark, computed without importing kahnets.

Everything here works on the textual net format directly: a small reader for
the documents the benchmark writes and the CLI prints, output terms (the
meaning of a loop-free net in the free cartesian category, hash-consed so that
shared subterms cost nothing), a topological-order stream evaluator for the
standard interpretation, a checker for isomorphism witnesses, and the closed
forms that the sampled-time nets approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The standard signature, as ``sig`` lines of every generated document.
SIGNATURE = {
    "plus": (2, 1), "minus": (2, 1), "scale": (1, 1), "divc": (1, 1),
    "iota": (1, 1), "eps": (1, 1), "alpha": (2, 1), "beta": (2, 2),
}


@dataclass(frozen=True)
class TextNet:
    name: str
    m: int
    n: int
    ports: tuple[str, ...]
    ops: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...]], ...]  # ident, label, ins, outs
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def read_document(text: str) -> dict[str, TextNet]:
    """The nets of a document, by name.  Raises ValueError on anything odd."""
    nets: dict[str, TextNet] = {}
    cur: dict | None = None

    def close() -> None:
        if cur is not None:
            net = TextNet(cur["name"], cur["m"], cur["n"], tuple(cur["ports"]), tuple(cur["ops"]),
                          tuple(cur["in"]), tuple(cur["out"]))
            if len(net.inputs) != net.m or len(net.outputs) != net.n:
                raise ValueError(f"net {net.name}: boundary does not match its header")
            nets[net.name] = net

    for raw in text.splitlines():
        words = raw.split("#", 1)[0].replace("(", " ( ").replace(")", " ) ").split()
        if not words or words[0] == "sig":
            continue
        if words[0] == "net":
            close()
            # net NAME : m -> n
            if len(words) != 6 or words[2] != ":" or words[4] != "->":
                raise ValueError(f"bad net header {raw!r}")
            cur = {"name": words[1], "m": int(words[3]), "n": int(words[5]),
                   "ports": [], "ops": [], "in": [], "out": []}
        elif cur is None:
            raise ValueError(f"line outside a net: {raw!r}")
        elif words[0] == "ports":
            cur["ports"] = words[1:]
        elif words[0] in ("in", "out"):
            cur[words[0]] = words[1:]
        elif words[0] == "op":
            # op IDENT LABEL ( ins ) -> ( outs )
            arrow = words.index("->")
            ins, outs = words[4:arrow - 1], words[arrow + 2:-1]
            if words[3] != "(" or words[arrow - 1] != ")" or words[arrow + 1] != "(" or words[-1] != ")":
                raise ValueError(f"bad op line {raw!r}")
            cur["ops"].append((words[1], words[2], tuple(ins), tuple(outs)))
        else:
            raise ValueError(f"unknown line {raw!r}")
    close()
    return nets


def write_document(nets: list[TextNet]) -> str:
    """A document declaring the standard signature and the given nets."""
    lines = [f"sig {name} {ar} {co}" for name, (ar, co) in SIGNATURE.items()]
    for net in nets:
        lines += ["", f"net {net.name} : {net.m} -> {net.n}", "  ports " + " ".join(net.ports)]
        lines += [f"  op {ident} {label} ({' '.join(ins)}) -> ({' '.join(outs)})"
                  for ident, label, ins, outs in net.ops]
        if net.inputs:
            lines.append("  in " + " ".join(net.inputs))
        if net.outputs:
            lines.append("  out " + " ".join(net.outputs))
    return "\n".join(lines) + "\n"


def _drivers(net: TextNet) -> dict[str, tuple[int, int]]:
    driver: dict[str, tuple[int, int]] = {}
    for x, (_, _, _, outs) in enumerate(net.ops):
        for j, p in enumerate(outs):
            if p in driver:
                raise ValueError(f"port {p} has two producers")
            driver[p] = (x, j)
    return driver


def _by_port(net: TextNet, leaf, node) -> tuple:
    """Fold the net bottom-up from its outputs: ``leaf(k)`` for boundary input
    k, ``node(op, values of its inputs)`` for an operator, None for an
    undriven port.  ValueError on a cycle or a doubly produced port."""
    driver = _drivers(net)
    inport = {p: k for k, p in enumerate(net.inputs)}
    done: dict[str, object] = {}
    op_done: dict[int, object] = {}
    for root in net.outputs:
        stack, on_path = [root], set()
        while stack:
            p = stack[-1]
            if p in done:
                stack.pop()
                continue
            if p in inport:
                if p in driver:
                    raise ValueError(f"boundary input port {p} also has a producer")
                done[p] = leaf(inport[p])
                stack.pop()
                continue
            if p not in driver:
                done[p] = None
                stack.pop()
                continue
            x, j = driver[p]
            if x not in op_done:
                pending = [q for q in net.ops[x][2] if q not in done]
                if pending:
                    if p in on_path:
                        raise ValueError(f"cycle through port {p}")
                    on_path.add(p)
                    stack.extend(pending)
                    continue
                op_done[x] = node(net.ops[x], [done[q] for q in net.ops[x][2]])
            done[p] = op_done[x][j]
            on_path.discard(p)
            stack.pop()
    return tuple(done[p] for p in net.outputs)


class Terms:
    """Hash-consed output terms; equal ids mean equal terms."""

    def __init__(self):
        self._ids: dict[tuple, int] = {}

    def _id(self, key: tuple) -> int:
        return self._ids.setdefault(key, len(self._ids))

    def of(self, net: TextNet) -> tuple[int, ...]:
        def node(op, args):
            _, label, _, outs = op
            return [self._id((label, tuple(args), j)) for j in range(len(outs))]
        return _by_port(net, lambda k: self._id(("in", k)), node)


def _zip_with(f, streams):
    return tuple(f(*vals) for vals in zip(*streams))


#: The standard discrete interpretation with scale and divc bound to 1.0.
_STREAM_FNS = {
    "plus": lambda a, b: (_zip_with(lambda u, v: u + v, (a, b)),),
    "minus": lambda a, b: (_zip_with(lambda u, v: u - v, (a, b)),),
    "scale": lambda a: (tuple(u * 1.0 for u in a),),
    "divc": lambda a: (tuple(u / 1.0 for u in a),),
    "iota": lambda a: ((0.0,) + a,),
    "eps": lambda a: (a[1:],),
    "alpha": lambda a, b: (_zip_with(lambda u, v: 2.0 * u - v, (a, b)),),
    "beta": lambda a, b: (_zip_with(lambda u, v: u + v, (a, b)),
                          _zip_with(lambda u, v: u - v, (a, b))),
}


def evaluate(net: TextNet, inputs: list[list[float]]) -> list[list[float]]:
    """The loop-free net's output streams, evaluated once per operator."""
    streams = [tuple(float(v) for v in s) for s in inputs]
    outs = _by_port(net, lambda k: streams[k],
                    lambda op, args: _STREAM_FNS[op[1]](*[a or () for a in args]))
    return [list(s or ()) for s in outs]


def is_iso_witness(a: TextNet, b: TextNet, port_map: dict, op_map: dict) -> bool:
    """Whether the maps (keyed by decimal strings, as the CLI prints them) are
    bijections that carry every label, wire and boundary slot of a onto b."""
    try:
        pm = {int(k): int(v) for k, v in port_map.items()}
        om = {int(k): int(v) for k, v in op_map.items()}
    except (TypeError, ValueError):
        return False
    if (a.m, a.n) != (b.m, b.n) or sorted(pm) != list(range(len(a.ports))) \
            or sorted(pm.values()) != list(range(len(b.ports))) \
            or sorted(om) != list(range(len(a.ops))) or sorted(om.values()) != list(range(len(b.ops))):
        return False
    ia = {p: i for i, p in enumerate(a.ports)}
    ib = {p: i for i, p in enumerate(b.ports)}

    def mapped(ports):
        return [pm[ia[p]] for p in ports]

    def native(ports):
        return [ib[p] for p in ports]

    for x, (_, label, ins, outs) in enumerate(a.ops):
        _, label_b, ins_b, outs_b = b.ops[om[x]]
        if label != label_b or mapped(ins) != native(ins_b) or mapped(outs) != native(outs_b):
            return False
    return mapped(a.inputs) == native(b.inputs) and mapped(a.outputs) == native(b.outputs)


def integral_closed_form(a: float, b: float, c: float, t: float) -> float:
    """The integral over [0, t] of a*sin(b*s) + c."""
    return a * (1.0 - math.cos(b * t)) / b + c * t


def derivative_closed_form(a: float, b: float, c: float, t: float) -> float:
    """The derivative at t of a*sin(b*s) + c."""
    return a * b * math.cos(b * t)
