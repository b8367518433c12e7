"""Isomorphism of nets: one search that propagates each binding.

Two nets of the same arity are isomorphic when there are bijections of ports
and operators preserving labels, all wiring, and the boundary attachment.
Equal wirings are answered rank r to rank r, the witness the search finds on
them, without a search.  Otherwise the search binds ports and operators of
the two nets in pairs, and each binding forces more: a port has at most one
driver and operator slots are ordered, so a bound port pair binds its two
drivers and a bound operator pair binds its ports by position.  The
boundary, which an isomorphism fixes, is bound first; when that binds every
operator, the map is the only witness up to the floating ports, found in
time linear in the size of the nets.  Only when an operator is left unbound
are both nets refined (labels, slot positions and neighborhood colors,
iterated) and the rest bound by backtracking inside the color classes.  The
search is deterministic.  Every witness is checked with
:meth:`NetIso.verify` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# Matching
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


def _match(wa: Wiring, wb: Wiring) -> Optional[tuple[list[int], list[int]]]:
    """The rank maps (ports, operators) of a witness from ``wa`` onto ``wb``,
    or None when there is none.

    ``bind`` refuses a pair on a label or arity that differs, a driver on
    one side only, a color that differs (once refined), or a port or
    operator bound two ways.  After the boundary, the operators left
    unbound are bound fewest candidates first (then by rank), each to the
    first candidate of its color, by rank, that binds; backtracking undoes
    a choice and all it forced from the trail.  Propagation binds only what
    every witness extending the choices made contains, so the first witness
    found is the one the same search without propagation finds.  The
    floating ports are paired in rank order last."""
    np_, no = len(wa.driver), len(wa.ops)
    pm, pinv, om, oinv = [-1] * np_, [-1] * np_, [-1] * no, [-1] * no
    pca = pcb = [0] * np_  # the port colors of a and of b, all alike until refined
    oca = ocb = [0] * no
    trail: list[int] = []  # the ranks of a bound, in order: a port p, an operator x as ~x

    def bind(todo: list[tuple[int, int]]) -> bool:
        """Bind the pairs on ``todo``, ports as ``(p, q)`` and operators as
        ``(~x, y)``, and every pair they force; False at the first refusal.
        Leaves ``todo`` empty."""
        while todo:
            a, b = todo.pop()
            if a >= 0:
                q = pm[a]
                if q == b:
                    continue
                if q >= 0 or pinv[b] >= 0 or pca[a] != pcb[b]:
                    break
                pm[a], pinv[b] = b, a
                trail.append(a)
                sa, sb = wa.driver[a], wb.driver[b]
                if sa.__class__ is tuple and sb.__class__ is tuple:
                    todo.append((~sa[0], sb[0]))
                elif sa != sb:  # a driver on one side only
                    break
            else:
                x = ~a
                y = om[x]
                if y == b:
                    continue
                (lab, xi, xo), (lab_b, yi, yo) = wa.ops[x], wb.ops[b]
                if (y >= 0 or oinv[b] >= 0 or oca[x] != ocb[b] or lab != lab_b
                        or len(xi) != len(yi) or len(xo) != len(yo)):
                    break
                om[x], oinv[b] = b, x
                trail.append(a)
                todo += zip(xi + xo, yi + yo)
        else:
            return True
        todo.clear()
        return False

    def undo(mark: int) -> None:
        """Unbind all but the first ``mark`` bindings of the trail."""
        while len(trail) > mark:
            a = trail.pop()
            if a >= 0:
                pinv[pm[a]] = -1
                pm[a] = -1
            else:
                oinv[om[~a]] = -1
                om[~a] = -1

    todo = [*zip(wa.inputs, wb.inputs), *zip(wa.outputs, wb.outputs)]
    if not bind(todo):
        return None
    if -1 in om:
        colors = _refine(wa, wb)
        if colors is None:
            return None
        pc, oc = colors
        pca, pcb, oca, ocb = pc[:np_], pc[np_:], oc[:no], oc[no:]
        # The ports bound so far must keep their colors (their operators' follow).
        if any(pca[p] != pcb[q] for p, q in enumerate(pm) if q >= 0):
            return None
        same: dict[int, list[int]] = {}
        for y in range(no):
            same.setdefault(ocb[y], []).append(y)
        order = sorted(range(no), key=lambda x: (len(same[oca[x]]), x))
        # per choice: its place in order, its candidate's index, the trail before it
        stack: list[tuple[int, int, int]] = []
        i = k = 0
        while i < no:
            x = order[i]
            if om[x] >= 0:  # forced by the bindings before it
                i += 1
                continue
            cands, mark = same[oca[x]], len(trail)
            for k in range(k, len(cands)):
                todo.append((~x, cands[k]))
                if bind(todo):
                    stack.append((i, k, mark))
                    i, k = i + 1, 0
                    break
                undo(mark)
            else:  # no candidate binds: take the last choice's next candidate
                if not stack:
                    return None
                i, k, mark = stack.pop()
                k += 1
                undo(mark)
    floating = iter([q for q, p in enumerate(pinv) if p < 0])
    return [next(floating) if q < 0 else q for q in pm], om


def find_iso(a: Net, b: Net) -> Optional[NetIso]:
    """A witness isomorphism from ``a`` onto ``b``, or None when none exists.
    Equal wirings map rank to rank; any other pair goes to one search that
    propagates each binding (:func:`_match`) and refines both nets only when
    binding the boundary leaves an operator unbound."""
    if a.m != b.m or a.n != b.n:
        return None
    wa, wb = a.wiring, b.wiring
    if len(wa.driver) != len(wb.driver) or len(wa.ops) != len(wb.ops):
        return None
    if (wa.ops, wa.inputs, wa.outputs) == (wb.ops, wb.inputs, wb.outputs):
        # Equal wirings: _match would bind each operator to itself, its first
        # candidate not yet bound, and so map each rank to itself.
        iso = NetIso(dict(zip(wa.port_ids, wb.port_ids)), dict(zip(wa.op_ids, wb.op_ids)))
    else:
        found = _match(wa, wb)
        if found is None:
            return None
        pm, om = found
        iso = NetIso(dict(zip(wa.port_ids, map(wb.port_ids.__getitem__, pm))),
                     dict(zip(wa.op_ids, map(wb.op_ids.__getitem__, om))))
    if not iso.verify(a, b):  # defensive: _match should guarantee this
        raise RuntimeError("internal error: candidate isomorphism failed verification")
    return iso
