"""Isomorphism of nets: a walk from the boundary, then refinement and backtracking.

Two nets of the same arity are isomorphic when there are bijections of ports
and operators preserving labels, all wiring, and the boundary attachment.
Two nets whose wirings are equal slot for slot are answered without a
search: rank r goes to rank r, which is the witness the search finds on
them.  Otherwise both wirings are walked in step from the boundary, which an
isomorphism fixes: a port has at most one driver and operator slots are
ordered, so the walk from a port to its driver and from an operator to its
ports by position has no choice.  A mismatch on that cone (a label, a driver
on one side only, or a port bound two ways) proves there is no isomorphism.
When the cone holds every operator, its map is the only witness up to the
floating ports, which are paired in rank order; this takes time linear in
the size of the nets.  Only a pair whose cone leaves an operator out is
searched: iterated invariant refinement (labels, slot positions,
neighborhood colors) followed by a backtracking search inside the surviving
color classes.  The refinement colors the disjoint union of both nets, so
one color table per step serves both, and a class holding more of one net
than of the other refuses at once.  The search is deterministic for fixed
inputs and gives the cone's witness wherever the cone gives one.  Every
witness is checked with :meth:`NetIso.verify` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence

from .nets import Net, Wiring


@dataclass(frozen=True)
class NetIso:
    """Witness bijections from one net onto another."""

    port_map: Mapping[int, int]
    op_map: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "port_map", dict(self.port_map))
        object.__setattr__(self, "op_map", dict(self.op_map))

    def inverse(self) -> "NetIso":
        return NetIso({v: k for k, v in self.port_map.items()},
                      {v: k for k, v in self.op_map.items()})

    def then(self, other: "NetIso") -> "NetIso":
        return NetIso({p: other.port_map[q] for p, q in self.port_map.items()},
                      {x: other.op_map[y] for x, y in self.op_map.items()})

    def verify(self, a: Net, b: Net) -> bool:
        """Direct check of every defining equation of a net isomorphism on the
        two wirings: both maps are bijections, and every label, operator slot
        and boundary port maps across.  False when the wiring of either net
        cannot be built (a hand-built net with a port driven twice, say)."""
        try:
            wa, wb = a.wiring, b.wiring
        except (KeyError, IndexError, TypeError, RuntimeError):
            return False
        pm, om = self.port_map, self.op_map
        if ((a.m, a.n) != (b.m, b.n) or not _bijection(pm, wa.port_ids, wb.port_ids)
                or not _bijection(om, wa.op_ids, wb.op_ids)):
            return False
        port, op = _rank(wb.port_ids), _rank(wb.op_ids)
        rank = [port(pm[p]) for p in wa.port_ids]

        def moved(ports: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([rank[p] for p in ports])

        return (moved(wa.inputs) == wb.inputs and moved(wa.outputs) == wb.outputs
                and all(wb.ops[op(om[x])] == (lab, moved(xi), moved(xo))
                        for x, (lab, xi, xo) in zip(wa.op_ids, wa.ops)))


def _bijection(mapping: Mapping[int, int], ids_a: Sequence[int], ids_b: Sequence[int]) -> bool:
    """``mapping`` sends the ids ``ids_a`` one to one onto the ids ``ids_b``."""
    return (len(mapping) == len(ids_b) and set(mapping) == set(ids_a)
            and set(mapping.values()) == set(ids_b))


def _rank(ids: Sequence[int]) -> Callable[[int], int]:
    """The rank of each of the sorted ``ids``: its position."""
    return ids.index if isinstance(ids, range) else {p: r for r, p in enumerate(ids)}.__getitem__


def identity_iso(net: Net) -> NetIso:
    w = net.wiring
    return NetIso({p: p for p in w.port_ids}, {x: x for x in w.op_ids})


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def _color(keys: list, half: int) -> Optional[tuple[list[int], int]]:
    """The color of each key, numbered by first appearance, and the number
    of colors; None unless every color is taken by as many of the first
    ``half`` keys as of the rest."""
    table: dict = {}
    colors = [table.setdefault(key, len(table)) for key in keys]
    balance = [0] * len(table)
    for c in colors[:half]:
        balance[c] += 1
    for c in colors[half:]:
        balance[c] -= 1
    return None if any(balance) else (colors, len(table))


def _refine(a: Wiring, b: Wiring) -> Optional[tuple[list[int], list[int]]]:
    """Color ports and operators of both nets by iterated invariants.

    The two nets are refined as one disjoint union, a's ranks first and then
    b's, so one color table per step serves both.  Returns the port colors
    and the operator colors of the union, or None as soon as some class
    holds more ports or operators of one net than of the other.
    """
    np_, no = len(a.driver), len(a.ops)
    ops: list = []  # per union operator: label, arity, input then output ports
    drivers: list = []  # per union port: its driving operator slot, or None
    readers: list = []  # per union port: the operator slots reading it
    bound: list = []  # per union port: the boundary input entering it (-1 if none), the outputs reading it
    for pshift, oshift, w in ((0, 0, a), (np_, no, b)):
        ops += [(lab, len(xi), [p + pshift for p in xi + xo]) for lab, xi, xo in w.ops]
        for d, rs in zip(w.driver, w.readers):
            drivers.append((d[0] + oshift, d[1]) if d.__class__ is tuple else None)
            readers.append([(s[0] + oshift, s[1]) for s in rs if s.__class__ is tuple])
            bound.append((d if d.__class__ is int else -1, *[s for s in rs if s.__class__ is int]))

    res = _color(bound, np_)
    if res is None:
        return None
    pc, count = res
    # Every later port color refines this first one, so a port's key below
    # names only operator slots: its boundary slots are implied by its color.
    while True:
        res = _color([(lab, k, *map(pc.__getitem__, ps)) for lab, k, ps in ops], no)
        if res is None:
            return None
        oc, width = res
        # an operator slot (x, i) by the color of x and the position i
        res = _color([(c, -1 if d is None else oc[d[0]] + d[1] * width,
                        *sorted([oc[x] + i * width for x, i in rs]))
                       for c, d, rs in zip(pc, drivers, readers)], np_)
        if res is None:
            return None
        pc, grown = res
        if grown == count:  # the port classes are stable, so the next op step splits nothing
            return pc, oc
        count = grown


def _search(wa: Wiring, wb: Wiring) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """The rank maps (ports, operators) of a witness from ``wa`` onto ``wb``,
    or None when there is none; :func:`find_iso` calls it only when the
    boundary cone leaves an operator out.  Operators are bound fewest
    candidates first (then by rank), each to the first candidate of its
    color, by rank, that is still unused and whose ports bind, backtracking
    on failure; the ports left over are paired in rank order within their
    color."""
    # Boundary attachment forces part of the port bijection.
    forced: dict[int, int] = dict(zip(wa.inputs, wb.inputs))
    for pa, pb in zip(wa.outputs, wb.outputs):
        if forced.get(pa, pb) != pb:
            return None
        forced[pa] = pb
    if len(set(forced.values())) != len(forced):
        return None

    colors = _refine(wa, wb)
    if colors is None:
        return None
    pc, oc = colors
    np_, no = len(wa.driver), len(wa.ops)
    pc_b = pc[np_:]
    for pa, pb in forced.items():
        if pc[pa] != pc_b[pb]:
            return None

    same: dict[int, list[int]] = {}
    for y in range(no):
        same.setdefault(oc[no + y], []).append(y)
    candidates = [same[oc[x]] for x in range(no)]
    order = sorted(range(no), key=lambda x: (len(candidates[x]), x))

    pmap: dict[int, int] = dict(forced)
    pused: set[int] = set(forced.values())
    omap: dict[int, int] = {}
    oused: set[int] = set()
    stack: list[tuple[int, list[int]]] = []  # per bound operator: its candidate index, the ports it bound
    i = start = 0
    while i < len(order):
        x = order[i]
        _, ain, aout = wa.ops[x]
        cands = candidates[x]
        for k in range(start, len(cands)):
            y = cands[k]
            if y in oused:
                continue
            _, bin_, bout = wb.ops[y]
            undo: list[int] = []
            for pa, pb in chain(zip(ain, bin_), zip(aout, bout)):
                cur = pmap.get(pa)
                if cur is None:
                    if pb in pused or pc[pa] != pc_b[pb]:
                        break
                    pmap[pa] = pb
                    pused.add(pb)
                    undo.append(pa)
                elif cur != pb:
                    break
            else:
                omap[x] = y
                oused.add(y)
                stack.append((k, undo))
                i, start = i + 1, 0
                break
            for pa in undo:
                pused.discard(pmap.pop(pa))
        else:  # no candidate binds: rebind the operator bound last to its next candidate
            if not stack:
                return None
            i -= 1
            start, undo = stack.pop()
            start += 1
            oused.discard(omap.pop(order[i]))
            for pa in undo:
                pused.discard(pmap.pop(pa))

    # Ports left over are attached to nothing; pair them up within classes.
    # Every binding kept colors, and _refine balanced each class, so each
    # class has as many ports left over in one net as in the other.
    free: dict[int, list[int]] = {}
    for q in range(np_):
        if q not in pused:
            free.setdefault(pc_b[q], []).append(q)
    for p in range(np_):
        if p not in pmap:
            pmap[p] = free[pc[p]].pop(0)
    return pmap, omap


def _cone(wa: Wiring, wb: Wiring) -> Optional[tuple[list[int], list[int]]]:
    """The rank maps (ports, operators) that the boundary forces, or None
    when they prove there is no witness.  Both wirings are walked in step
    from the boundary ports: a bound port pair goes to its two drivers, and
    two bound operators go to their input and output ports by position.
    An operator is reached only through a port it drives, so a second
    partner for it or for its image, or a slot index that differs, shows as
    a port bound two ways.  An unbound rank maps to -1.  When every operator
    is bound, so is every port that is not floating, and the floating ports
    are paired in rank order, as :func:`_search` pairs them."""
    pm, pinv = [-1] * len(wa.driver), [-1] * len(wb.driver)
    om = [-1] * len(wa.ops)
    todo: list[int] = []  # bound ports of a whose drivers are still to compare

    def bind(pairs) -> bool:
        """Bind each port pair; False when a port of either net is bound two ways."""
        for pa, pb in pairs:
            q = pm[pa]
            if q != pb:
                if q >= 0 or pinv[pb] >= 0:
                    return False
                pm[pa], pinv[pb] = pb, pa
                todo.append(pa)
        return True

    if not bind(chain(zip(wa.inputs, wb.inputs), zip(wa.outputs, wb.outputs))):
        return None
    while todo:
        pa = todo.pop()
        sa, sb = wa.driver[pa], wb.driver[pm[pa]]
        if sa.__class__ is not tuple or sb.__class__ is not tuple:
            if sa != sb:  # a driver on one side only
                return None
            continue
        x, y = sa[0], sb[0]
        if om[x] < 0:  # else om[x] is y: pa was bound as an output port of x
            om[x] = y
            (lab, xi, xo), (lab_b, yi, yo) = wa.ops[x], wb.ops[y]
            if (lab, len(xi), len(xo)) != (lab_b, len(yi), len(yo)) or not bind(
                    chain(zip(xi, yi), zip(xo, yo))):
                return None
    if -1 not in om:
        floating = iter([q for q, p in enumerate(pinv) if p < 0])
        pm = [next(floating) if q < 0 else q for q in pm]
    return pm, om


def find_iso(a: Net, b: Net) -> Optional[NetIso]:
    """A witness isomorphism from ``a`` onto ``b``, or None when none exists:
    equal wirings map rank to rank, a pair the boundary cone decides takes
    the cone's answer, and any other pair is searched."""
    if a.m != b.m or a.n != b.n:
        return None
    wa, wb = a.wiring, b.wiring
    if len(wa.driver) != len(wb.driver) or len(wa.ops) != len(wb.ops):
        return None
    if (wa.ops, wa.inputs, wa.outputs) == (wb.ops, wb.inputs, wb.outputs):
        # Equal wirings: the search would color both nets alike, bind each
        # operator to itself (its first unused candidate) and pair the ports
        # left over in rank order, so it would map each rank to itself.
        iso = NetIso(dict(zip(wa.port_ids, wb.port_ids)), dict(zip(wa.op_ids, wb.op_ids)))
    else:
        cone = _cone(wa, wb)
        if cone is None:
            return None
        pm, om = cone
        if -1 in om:
            found = _search(wa, wb)
            if found is None:
                return None
            pmap, omap = found
            iso = NetIso({wa.port_ids[p]: wb.port_ids[q] for p, q in pmap.items()},
                         {wa.op_ids[x]: wb.op_ids[y] for x, y in omap.items()})
        else:  # the boundary forces the only witness
            iso = NetIso(dict(zip(wa.port_ids, map(wb.port_ids.__getitem__, pm))),
                         dict(zip(wa.op_ids, map(wb.op_ids.__getitem__, om))))
    if not iso.verify(a, b):  # defensive: the cone and the search should guarantee this
        raise RuntimeError("internal error: candidate isomorphism failed verification")
    return iso
