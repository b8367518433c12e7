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

A net is its wiring, ``Net.wiring``: a :class:`Wiring` that numbers
operators and ports by rank (position in sorted order) and holds each
operator's label, input ports and output ports, each port's driver slot and
reader slots, and the ports of the boundary inputs and outputs.  Within
this package only :func:`validate` reads the slot dicts instead.  A net
built by the constructions below or read from the DSL holds only its
wiring, and builds its slot dicts (``ports``, ``labels``, ``src``, ``tgt``)
from it when they are first read.  A net built by hand,
``Net(m, n, ports, labels, src, tgt)``, holds the slot dicts as given,
however malformed, and groups them into its wiring on first use.

:func:`validate` checks the slot dicts alone.  It serves ``check`` and nets
built by hand: no construction can build a port with two drivers (building
such a wiring raises ``RuntimeError``), and the DSL parser checks the rest.

All construction functions return dense nets, whose ports and operators are
numbered ``0..k-1`` in a deterministic order, so results are reproducible
bit-for-bit and their ranks are their ids.  Nets are immutable; every
operation builds a fresh net.

:func:`compose`, :func:`tensor` and :func:`trace` number the union of their
operands' wirings directly, operand after operand.  Only the boundary ports
an operation glues can merge or lose their last reference; every other port
keeps its references, or stays floating as it was in its own net.  For
``rewrite``, :func:`renumbered` glues ports of one net and drops operators.
All but :func:`tensor` number the ports of their result through :func:`_glued`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

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

class Net:
    """A net from ``m`` to ``n``.  See the module docstring for conventions.

    ``Net(m, n, ports, labels, src, tgt)`` stores the slot dicts as given,
    however malformed.  A net built by this module or read from the DSL holds
    only its wiring, and builds each slot dict from it when first read.
    Nets are immutable.

    Structural equality of nets is deliberately not defined; compare nets up
    to isomorphism with :func:`kahnets.iso.find_iso`.
    """

    m: int
    n: int

    def __init__(self, m: int, n: int, ports: Iterable[int], labels: Mapping[int, str],
                 src: Mapping[Slot, int], tgt: Mapping[Slot, int]):
        self.__dict__.update(m=m, n=n, ports=frozenset(ports), labels=dict(labels),
                             src=dict(src), tgt=dict(tgt))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # -- the slot dicts of a net that holds only its (dense) wiring ----------

    @cached_property
    def ports(self) -> frozenset[int]:
        return frozenset(self.wiring.port_ids)

    @cached_property
    def labels(self) -> dict[int, str]:  # operator id -> symbol name
        return {x: lab for x, (lab, _, _) in enumerate(self.wiring.ops)}

    @cached_property
    def src(self) -> dict[Slot, int]:
        w = self.wiring
        src: dict[Slot, int] = {(x, i): p for x, (_, xi, _) in enumerate(w.ops) for i, p in enumerate(xi)}
        src.update(enumerate(w.outputs))
        return src

    @cached_property
    def tgt(self) -> dict[Slot, int]:
        w = self.wiring
        tgt: dict[Slot, int] = {(x, j): p for x, (_, _, xo) in enumerate(w.ops) for j, p in enumerate(xo)}
        tgt.update(enumerate(w.inputs))
        return tgt

    # -- queries ------------------------------------------------------------

    @property
    def operators(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))

    @cached_property
    def wiring(self) -> "Wiring":
        """The wiring of this (valid) net, by operator and port rank.

        Grouped from the slot dicts on first use, unless the net was built
        from its wiring."""
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
        return tuple(w.port_ids[p] for p in w.ops[w.op_rank(x)][1])

    def op_outputs(self, x: int) -> tuple[int, ...]:
        w = self.wiring
        return tuple(w.port_ids[p] for p in w.ops[w.op_rank(x)][2])

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

    def op_rank(self, x: int) -> int:
        """The rank of operator ``x``; ``ValueError`` if the net has no such
        operator.  An id that sits at its own position (every id of a dense
        net) is its rank; any other is found by bisection in ``op_ids``."""
        ids = self.op_ids
        if 0 <= x < len(ids) and ids[x] == x:
            return x
        r = bisect_left(ids, x)
        if r == len(ids) or ids[r] != x:
            raise ValueError(f"operator {x!r} is not in the net")
        return r


def _make_wiring(ops, inputs, outputs, op_ids, port_ids) -> Wiring:
    """The wiring with these operators and boundary ports, adding each port's
    driver and readers.  Raises ``RuntimeError`` when two slots drive one
    port, which no valid net has.  The constructions never do (each port they
    glue keeps at most one driver); the refusal serves parsed nets, hand-built
    nets, and ``renumbered`` given glue that joins two driven ports."""
    # Tuples here and in the constructions are built from lists or starred
    # displays, never as ``tuple(<iterator>)``: CPython 3.11 gives that 10
    # slots and shrinks it, so each such tuple leaves the size-10 free list
    # and is freed onto the list of its own size, which grows until a full
    # collection trims it.
    driver: list[Optional[Slot]] = [None] * len(port_ids)
    readers: list[list[Slot]] = [[] for _ in port_ids]
    driving = len(inputs)
    for x, (_, xi, xo) in enumerate(ops):
        for i, p in enumerate(xi):
            readers[p].append((x, i))
        for j, p in enumerate(xo):
            driver[p] = (x, j)
        driving += len(xo)
    for k, p in enumerate(inputs):
        driver[p] = k
    for k, p in enumerate(outputs):
        readers[p].append(k)
    if driving != len(driver) - driver.count(None):
        raise RuntimeError("tgt is not injective: some port has two drivers")
    return Wiring(ops, tuple(driver), (*map(tuple, readers),), inputs, outputs, op_ids, port_ids)


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


# ---------------------------------------------------------------------------
# Renumbering and quotients
# ---------------------------------------------------------------------------

def renumbered(net: Net, *, glue: Iterable[tuple[int, int]] = (), drop: Collection[int] = ()) -> Net:
    """``net`` rebuilt densely, less the operators of rank in ``drop``, with
    the two ports of each ``glue`` pair (by rank) made one.

    Ports are numbered as the constructions number them (see
    :func:`_glued`).  A class of glued ports, or a port of a dropped
    operator, that no slot of the result references is dropped, unless one
    of its ports was referenced by no slot of ``net`` either: an operation
    removes exactly the wiring it orphaned itself.  It serves ``rewrite``.
    """
    w = net.wiring
    ops = [op for x, op in enumerate(w.ops) if x not in drop] if drop else w.ops
    used = {*w.inputs, *w.outputs, *chain.from_iterable(xi + xo for _, xi, xo in ops)}
    used.update(p for p, d in enumerate(w.driver) if d is None and not w.readers[p])
    new, size = _glued(len(w.driver), glue, used.__contains__, set(range(len(w.driver))) - used)
    new = new.__getitem__
    return _dense(_mapped(ops, new), [*map(new, w.inputs)], [*map(new, w.outputs)], size)


def _dense(ops: Sequence[tuple[str, tuple[int, ...], tuple[int, ...]]], inputs: Iterable[int],
           outputs: Iterable[int], size: int) -> Net:
    """The dense net on ports ``0..size-1`` whose operator x is ``ops[x]`` =
    (label, input ports, output ports), with boundary inputs entering
    ``inputs`` and outputs reading ``outputs``.  The net holds only its
    wiring.  Raises ``RuntimeError`` when two slots drive one port."""
    w = _make_wiring(tuple(ops), tuple(inputs), tuple(outputs), range(len(ops)), range(size))
    net = object.__new__(Net)
    net.__dict__.update(m=len(w.inputs), n=len(w.outputs), wiring=w)
    return net


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _widths(kind: str, *widths: int) -> None:
    """Raise ``ArityMismatch`` when a width is negative."""
    if min(widths) < 0:
        raise ArityMismatch(f"{kind} of a negative width: {', '.join(map(str, widths))}")


def identity(n: int) -> Net:
    """The identity net: n ports wired straight through."""
    _widths("identity", n)
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
    _widths("symmetry", m, n)
    return _dense((), range(m + n), [*range(m, m + n), *range(m)], m + n)


def duplication(n: int) -> Net:
    """The fan-out net n -> 2n: both output groups read the same n ports."""
    _widths("duplication", n)
    return _dense((), range(n), [*range(n), *range(n)], n)


def erasure(n: int) -> Net:
    """The discarding net n -> 0: inputs arrive and are read by nothing."""
    _widths("erasure", n)
    return _dense((), range(n), (), n)


def projection(m: int, n: int) -> Net:
    """The net m+n -> m keeping the first m wires and discarding the last n."""
    _widths("projection", m, n)
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


def _mapped(ops: Sequence[tuple[str, tuple[int, ...], tuple[int, ...]]],
            new: Callable[[int], int]) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    return [(lab, (*map(new, xi),), (*map(new, xo),)) for lab, xi, xo in ops]


def _kept(w: Wiring, p: int, m: int, n: int) -> bool:
    """Whether a slot other than boundary inputs ``m..`` and outputs ``n..``
    references port ``p`` of ``w``."""
    d = w.driver[p]
    return ((d is not None and (d.__class__ is tuple or d < m))
            or any(r.__class__ is tuple or r < n for r in w.readers[p]))


def _glued(size: int, glue: Iterable[tuple[int, int]], live: Callable[[int], bool],
           orphans: Iterable[int] = ()) -> tuple[list[Optional[int]], int]:
    """The new number of each of the ports ``0..size-1`` (``None`` if it is
    dropped) once the two ports of each ``glue`` pair are one, and how many
    ports are left.  A class takes the place of its smallest member.  Only
    the glued ports and ``orphans`` (ports that the operators an operation
    drops referenced) can lose their last reference: the class of such a
    port is dropped when ``live`` holds for none of its members."""
    rep: dict[int, int] = {}  # union-find; the smallest member is the root

    def find(p: int) -> int:
        while p in rep:
            q = rep[p]
            rep[p] = p = rep.get(q, q)  # path halving
        return p

    members: list[int] = []
    for p, q in glue:
        members += (p, q)
        p, q = find(p), find(q)
        if p != q:
            rep[max(p, q)] = min(p, q)
    maybe = {*members, *orphans}
    # Each of these ports but the roots of the live classes gives up its place.
    dropped = maybe.difference([find(p) for p in filter(live, maybe)])
    kept = [1] * size
    for p in dropped:
        kept[p] = 0
    new: list[Optional[int]] = [*accumulate(kept, initial=0)]  # the kept ports below each port
    left = new.pop()
    for p in dropped.difference(rep):  # the roots of the dead classes
        new[p] = None
    for p in rep:
        new[p] = new[find(p)]
    return new, left


def compose(a: Net, b: Net) -> Net:
    """Diagrammatic composition: feed a's outputs into b's inputs.

    Ports are the quotient of the disjoint union by gluing a.out(k) ~ b.in(k);
    b's inputs are distinct, so a's ports keep their numbers unless one is
    orphaned.
    """
    if a.n != b.m:
        raise ArityMismatch(f"compose: {a.n} outputs cannot feed {b.m} inputs")
    wa, wb = a.wiring, b.wiring
    pa = len(wa.driver)
    new, size = _glued(pa + len(wb.driver), zip(wa.outputs, [pa + q for q in wb.inputs]),
                       lambda p: _kept(wa, p, a.m, 0) if p < pa else bool(wb.readers[p - pa]))
    ops, inputs = wa.ops, wa.inputs
    if new[:pa] != [*range(pa)]:
        ops, inputs = _mapped(ops, new.__getitem__), [*map(new.__getitem__, inputs)]
    newb = new[pa:].__getitem__
    return _dense([*ops, *_mapped(wb.ops, newb)], inputs, [*map(newb, wb.outputs)], size)


def tensor(a: Net, b: Net) -> Net:
    """Parallel (side-by-side) composition; b's ports and boundary indices are offset."""
    wa, wb = a.wiring, b.wiring
    pa = len(wa.driver)
    shift = pa.__add__
    return _dense([*wa.ops, *_mapped(wb.ops, shift)], [*wa.inputs, *map(shift, wb.inputs)],
                  [*wa.outputs, *map(shift, wb.outputs)], pa + len(wb.driver))


def trace(net: Net, x: int) -> Net:
    """Close the last ``x`` outputs onto the last ``x`` inputs (feedback).

    Port classes are generated by out(n2+k) ~ in(n1+k); boundary maps restrict
    to the surviving indices and pass through the quotient.
    """
    _widths("trace", x)
    if net.m < x or net.n < x:
        raise ArityTooSmall(f"trace over {x} needs arities >= {x}, got {net.m}->{net.n}")
    w, n1, n2 = net.wiring, net.m - x, net.n - x
    new, size = _glued(len(w.driver), zip(w.outputs[n2:], w.inputs[n1:]),
                       lambda p: _kept(w, p, n1, n2))
    new = new.__getitem__
    return _dense(_mapped(w.ops, new), [*map(new, w.inputs[:n1])], [*map(new, w.outputs[:n2])], size)
