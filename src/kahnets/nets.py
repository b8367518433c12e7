"""The net graph IR: signatures, nets, validation, and the categorical constructions.

A net from m to n is a finite graph of labeled operators wired through ports.
The boundary convention follows the worked example that fixes the orientation:

* boundary input k *enters* the net at port ``tgt[k]``;
* boundary output k *reads* port ``src[k]``.

``src`` also maps operator input slots ``(x, i)`` to the port operator ``x``
reads its i-th argument from, and ``tgt`` maps operator output slots ``(x, j)``
to the port that receives the j-th result.  ``tgt`` is injective over its whole
domain: a port has at most one producer, but may fan out to any number of
readers (including none).

The slot dicts are the net as given, and :func:`validate` checks only them.
Everything else reads a valid net through ``Net.wiring``, a :class:`Wiring`
that numbers operators and ports by rank (position in sorted order) and holds
each operator's label, input ports and output ports, each port's driver slot
and reader slots, and the ports of the boundary inputs and outputs.  It is
computed once per net: the constructions below record it as they build a
net, and any other net groups its slot dicts into it on first use.

All construction functions return dense nets, whose ports and operators are
numbered ``0..k-1`` in a deterministic order, so results are reproducible
bit-for-bit and their ranks are their ids.  Nets are immutable; every
operation builds a fresh net.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ArityMismatch, ArityTooSmall, UnknownKind, UnknownSymbol

#: A slot is either a boundary index (plain int) or an operator slot (op, pos).
Slot = Union[int, tuple[int, int]]


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Symbol table mapping each symbol name to its (arity, coarity)."""

    symbols: Mapping[str, tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "symbols", dict(self.symbols))
        for name, (ar, co) in self.symbols.items():
            if ar < 0 or co < 0:
                raise ArityMismatch(f"symbol {name!r} has negative arity/coarity")

    def arity(self, name: str) -> int:
        return self._lookup(name)[0]

    def coarity(self, name: str) -> int:
        return self._lookup(name)[1]

    def _lookup(self, name: str) -> tuple[int, int]:
        try:
            return self.symbols[name]
        except KeyError:
            raise UnknownSymbol(f"symbol {name!r} not in signature") from None

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and dict(self.symbols) == dict(other.symbols)


# ---------------------------------------------------------------------------
# Net
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Net:
    """A net from ``m`` to ``n``.  See the module docstring for conventions.

    Structural equality of nets is deliberately not defined; compare nets up
    to isomorphism with :func:`kahnets.iso.find_iso`.
    """

    m: int
    n: int
    ports: frozenset[int]
    labels: Mapping[int, str]  # operator id -> symbol name
    src: Mapping[Slot, int]
    tgt: Mapping[Slot, int]

    def __post_init__(self):
        object.__setattr__(self, "ports", frozenset(self.ports))
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "src", dict(self.src))
        object.__setattr__(self, "tgt", dict(self.tgt))

    # -- queries ------------------------------------------------------------

    @property
    def operators(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))

    @cached_property
    def wiring(self) -> "Wiring":
        """The wiring of this (valid) net, by operator and port rank.

        Grouped from the slot dicts on first use, unless the construction that
        built the net recorded it."""
        op_ids, port_ids = tuple(sorted(self.labels)), tuple(sorted(self.ports))
        op_rank = {x: r for r, x in enumerate(op_ids)}
        port_rank = {p: r for r, p in enumerate(port_ids)}
        ins: list[list[tuple[int, int]]] = [[] for _ in op_ids]
        outs: list[list[tuple[int, int]]] = [[] for _ in op_ids]
        for slots, side in ((self.src, ins), (self.tgt, outs)):
            for s, p in slots.items():
                if s.__class__ is tuple:
                    side[op_rank[s[0]]].append((s[1], port_rank[p]))
        ops = tuple((self.labels[x], tuple(p for _, p in sorted(i)), tuple(p for _, p in sorted(o)))
                    for x, i, o in zip(op_ids, ins, outs))
        return _make_wiring(ops, tuple(port_rank[self.tgt[k]] for k in range(self.m)),
                            tuple(port_rank[self.src[k]] for k in range(self.n)), op_ids, port_ids)

    def op_arity(self, x: int) -> int:
        return len(self.op_inputs(x))

    def op_coarity(self, x: int) -> int:
        return len(self.op_outputs(x))

    def op_inputs(self, x: int) -> tuple[int, ...]:
        w = self.wiring
        return tuple(w.port_ids[p] for p in w.ops[w.op_ids.index(x)][1])

    def op_outputs(self, x: int) -> tuple[int, ...]:
        w = self.wiring
        return tuple(w.port_ids[p] for p in w.ops[w.op_ids.index(x)][2])

    def in_port(self, k: int) -> int:
        return self.tgt[k]

    def out_port(self, k: int) -> int:
        return self.src[k]

    def driven_ports(self) -> frozenset[int]:
        """Ports in the image of tgt (those with a producer)."""
        return frozenset(self.tgt.values())

    def read_ports(self) -> frozenset[int]:
        """Ports in the image of src (those with at least one reader)."""
        return frozenset(self.src.values())

    def __repr__(self) -> str:
        return f"Net({self.m}->{self.n}, ports={len(self.ports)}, operators={len(self.labels)})"


class Wiring(NamedTuple):
    """A net's wiring, with operators and ports numbered by rank.

    A slot here names its operator by rank; a boundary slot is its index, as
    in ``src``/``tgt``.  ``op_ids``/``port_ids`` give the id of each rank.
    """

    ops: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]  # label, input and output ports
    driver: tuple[Optional[Slot], ...]  # per port: the slot producing it, if any
    readers: tuple[tuple[Slot, ...], ...]  # per port: operator slots by rank, then boundary outputs
    inputs: tuple[int, ...]  # port each boundary input enters
    outputs: tuple[int, ...]  # port each boundary output reads
    op_ids: Sequence[int]
    port_ids: Sequence[int]


def _make_wiring(ops, inputs, outputs, op_ids, port_ids) -> Wiring:
    """The wiring with these operators and boundary ports, adding each port's
    driver and readers."""
    driver: list[Optional[Slot]] = [None] * len(port_ids)
    readers: list[list[Slot]] = [[] for _ in port_ids]
    for x, (_, xi, xo) in enumerate(ops):
        for i, p in enumerate(xi):
            readers[p].append((x, i))
        for j, p in enumerate(xo):
            driver[p] = (x, j)
    for k, p in enumerate(inputs):
        driver[p] = k
    for k, p in enumerate(outputs):
        readers[p].append(k)
    return Wiring(ops, tuple(driver), tuple(map(tuple, readers)), inputs, outputs, op_ids, port_ids)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Issue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[Issue, ...]
    notes: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


def validate(net: Net, sig: Signature) -> ValidationReport:
    """Check every definitional invariant; a net is well-formed iff no errors.

    Undriven ports (readable but produced by nothing) are legal and are only
    reported as informational notes, as are ports referenced by no slot at all.
    """
    errors: list[Issue] = []
    notes: list[Issue] = []

    if net.m < 0 or net.n < 0:
        errors.append(Issue("bad-boundary", f"negative boundary arity {net.m}->{net.n}"))

    arities: dict[int, tuple[int, int]] = {}
    for x in net.operators:
        label = net.labels[x]
        if label not in sig:
            errors.append(Issue("unknown-symbol", f"operator {x} labeled with unknown symbol {label!r}"))
            continue
        arities[x] = (sig.arity(label), sig.coarity(label))

    expected_src: set[Slot] = set(range(net.n))
    expected_tgt: set[Slot] = set(range(net.m))
    for x, (ar, co) in arities.items():
        expected_src.update((x, i) for i in range(ar))
        expected_tgt.update((x, j) for j in range(co))

    def check_domain(name: str, mapping: Mapping[Slot, int], expected: set[Slot]) -> None:
        have = set(mapping)
        for slot in sorted(expected - have, key=repr):
            errors.append(Issue("missing-slot", f"{name} undefined on slot {slot!r}"))
        for slot in sorted(have - expected, key=repr):
            # Slots of operators with unknown symbols are reported above already.
            if isinstance(slot, tuple) and slot[0] in net.labels and slot[0] not in arities:
                continue
            errors.append(Issue("extra-slot", f"{name} defined on unexpected slot {slot!r}"))

    check_domain("src", net.src, expected_src)
    check_domain("tgt", net.tgt, expected_tgt)

    for name, mapping in (("src", net.src), ("tgt", net.tgt)):
        for slot in sorted(mapping, key=repr):
            p = mapping[slot]
            if p not in net.ports:
                errors.append(Issue("dangling-port", f"{name}[{slot!r}] = {p} is not a declared port"))

    seen: dict[int, Slot] = {}
    for slot in sorted(net.tgt, key=repr):
        p = net.tgt[slot]
        if p in seen:
            errors.append(Issue(
                "tgt-not-injective",
                f"port {p} produced by both {seen[p]!r} and {slot!r}"))
        else:
            seen[p] = slot

    driven = net.driven_ports()
    referenced = driven | net.read_ports()
    for p in sorted(net.ports):
        if p not in driven:
            if p in referenced:
                notes.append(Issue("undriven-port", f"port {p} has readers but no producer (denotes bottom)"))
            else:
                notes.append(Issue("unreferenced-port", f"port {p} is attached to nothing"))

    return ValidationReport(tuple(errors), tuple(notes))


def _require_valid_shapes(net: Net) -> None:
    """Internal sanity assertion: tgt injectivity must survive every construction."""
    seen: set[int] = set()
    for p in net.tgt.values():
        if p in seen:
            raise RuntimeError(f"internal invariant lost: tgt not injective at port {p} in {net!r}")
        seen.add(p)


# ---------------------------------------------------------------------------
# Renumbering and quotients
# ---------------------------------------------------------------------------

def renumbered(*nets: Net, inputs: Optional[Sequence[int]] = None,
               outputs: Optional[Sequence[int]] = None,
               glue: Iterable[tuple[int, int]] = (), drop: Collection[int] = ()) -> Net:
    """The disjoint union of ``nets`` rebuilt densely, optionally rewired.

    The union numbers operators and ports by rank, one net after the other;
    ``inputs``, ``outputs``, ``glue`` and ``drop`` refer to that numbering.
    The result keeps the union's operators except those in ``drop``, its
    boundary inputs enter ``inputs`` and its outputs read ``outputs`` (by
    default, those of the union in order), and the two ports of each ``glue``
    pair become one.  Each class of glued ports is numbered by the order of its
    smallest member.  A class that no slot of the result references is
    dropped, unless one of its ports was referenced by no slot in its own net
    either: an operation removes exactly the wiring it orphaned itself.
    Feedback of an identity wire would otherwise leave behind a floating port
    that nothing can observe, breaking equations such as
    ``trace(identity(n1+n), n) = id``.
    """
    ops: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    keep: list[int] = []
    union_in: list[int] = []
    union_out: list[int] = []
    base = 0
    for net in nets:
        w = net.wiring
        shift = base.__add__
        ops += (w.ops if not base else
                [(lab, tuple(map(shift, xi)), tuple(map(shift, xo))) for lab, xi, xo in w.ops])
        keep += [base + p for p, d in enumerate(w.driver) if d is None and not w.readers[p]]
        union_in += map(shift, w.inputs)
        union_out += map(shift, w.outputs)
        base += len(w.driver)
    inputs = union_in if inputs is None else inputs
    outputs = union_out if outputs is None else outputs
    if drop:
        ops = [op for x, op in enumerate(ops) if x not in drop]

    rep: dict[int, int] = {}  # union-find over glued ports; the smallest member is the root

    def find(p: int) -> int:
        while p in rep:
            p = rep[p]
        return p

    for p, q in glue:
        p, q = find(p), find(q)
        if p != q:
            rep[max(p, q)] = min(p, q)
    used = set(chain(inputs, outputs, keep, *(xi + xo for _, xi, xo in ops)))
    number = {c: i for i, c in enumerate(sorted({find(p) for p in used} if rep else used))}
    port = {p: number[find(p)] for p in used} if rep else number
    new = port.__getitem__

    return _dense([(lab, tuple(map(new, xi)), tuple(map(new, xo))) for lab, xi, xo in ops],
                  tuple(map(new, inputs)), tuple(map(new, outputs)), len(number))


def _dense(ops: Sequence[tuple[str, tuple[int, ...], tuple[int, ...]]], inputs: Iterable[int],
           outputs: Iterable[int], size: int) -> Net:
    """The dense net on ports ``0..size-1`` whose operator x is ``ops[x]`` =
    (label, input ports, output ports), with boundary inputs entering
    ``inputs`` and outputs reading ``outputs``.  The net's wiring is known
    here already, so it is recorded rather than grouped again on first use."""
    w = _make_wiring(tuple(ops), tuple(inputs), tuple(outputs), range(len(ops)), range(size))
    src: dict[Slot, int] = {(x, i): p for x, (_, xi, _) in enumerate(w.ops) for i, p in enumerate(xi)}
    src.update(enumerate(w.outputs))
    tgt: dict[Slot, int] = {(x, j): p for x, (_, _, xo) in enumerate(w.ops) for j, p in enumerate(xo)}
    tgt.update(enumerate(w.inputs))
    net = Net(len(w.inputs), len(w.outputs), frozenset(w.port_ids),
              {x: lab for x, (lab, _, _) in enumerate(w.ops)}, src, tgt)
    net.__dict__["wiring"] = w
    _require_valid_shapes(net)
    return net


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def identity(n: int) -> Net:
    """The identity net: n ports wired straight through."""
    return _dense((), range(n), range(n), n)


def generator(sig: Signature, name: str) -> Net:
    """The one-operator net presenting symbol ``name``.

    Input k feeds port k, the operator reads ports 0..arity-1 in order and
    drives ports arity..arity+coarity-1, which the boundary outputs read.
    """
    ar, co = sig._lookup(name)
    ins, outs = tuple(range(ar)), tuple(range(ar, ar + co))
    return _dense(((name, ins, outs),), ins, outs, ar + co)


def symmetry(m: int, n: int) -> Net:
    """The wire crossing m+n -> n+m."""
    return _dense((), range(m + n), [*range(m, m + n), *range(m)], m + n)


def duplication(n: int) -> Net:
    """The fan-out net n -> 2n: both output groups read the same n ports."""
    return _dense((), range(n), [*range(n), *range(n)], n)


def erasure(n: int) -> Net:
    """The discarding net n -> 0: inputs arrive and are read by nothing."""
    return _dense((), range(n), (), n)


def projection(m: int, n: int) -> Net:
    """The net m+n -> m keeping the first m wires and discarding the last n."""
    return _dense((), range(m + n), range(m), m + n)


_STRUCTURAL = {
    "identity": (1, lambda sig, n: identity(n)),
    "symmetry": (2, lambda sig, m, n: symmetry(m, n)),
    "duplication": (1, lambda sig, n: duplication(n)),
    "erasure": (1, lambda sig, n: erasure(n)),
    "projection": (2, lambda sig, m, n: projection(m, n)),
    "generator": (1, lambda sig, name: generator(sig, name)),
}


def structural(sig: Signature, kind: str, *params) -> Net:
    """Dispatching constructor for the structural net families."""
    try:
        nparams, fn = _STRUCTURAL[kind]
    except KeyError:
        raise UnknownKind(f"unknown structural kind {kind!r}") from None
    if len(params) != nparams:
        raise ArityMismatch(f"structural {kind!r} takes {nparams} parameter(s), got {len(params)}")
    return fn(sig, *params)


def compose(a: Net, b: Net) -> Net:
    """Diagrammatic composition: feed a's outputs into b's inputs.

    Ports are the quotient of the disjoint union by gluing a.out(k) ~ b.in(k).
    """
    if a.n != b.m:
        raise ArityMismatch(f"compose: {a.n} outputs cannot feed {b.m} inputs")
    wa, wb, po = a.wiring, b.wiring, len(a.ports)
    return renumbered(a, b, inputs=wa.inputs, outputs=[p + po for p in wb.outputs],
                      glue=zip(wa.outputs, [p + po for p in wb.inputs]))


def tensor(a: Net, b: Net) -> Net:
    """Parallel (side-by-side) composition; b's boundary indices are offset."""
    return renumbered(a, b)


def trace(net: Net, x: int) -> Net:
    """Close the last ``x`` outputs onto the last ``x`` inputs (feedback).

    Port classes are generated by out(n2+k) ~ in(n1+k); boundary maps restrict
    to the surviving indices and pass through the quotient.
    """
    if net.m < x or net.n < x:
        raise ArityTooSmall(f"trace over {x} needs arities >= {x}, got {net.m}->{net.n}")
    w, n1, n2 = net.wiring, net.m - x, net.n - x
    return renumbered(net, inputs=w.inputs[:n1], outputs=w.outputs[:n2],
                      glue=zip(w.outputs[n2:], w.inputs[n1:]))
