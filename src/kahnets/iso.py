"""Isomorphism of nets: witness search by partition refinement plus backtracking.

Two nets of the same arity are isomorphic when there are bijections of ports
and operators preserving labels, all wiring, and the boundary attachment.
Boundary attachment pins part of the port bijection outright; the rest is
found by iterated invariant refinement (labels, slot positions, neighborhood
colors) followed by a backtracking search inside the surviving color classes.
The search is deterministic for fixed inputs and complete at the sizes this
package targets (a few hundred ports).
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
            return tuple(rank[p] for p in ports)

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

def _refine(a: Wiring, b: Wiring) -> Optional[tuple[list[int], list[int], list[int], list[int]]]:
    """Color ports and operators of both nets by iterated invariants.

    Returns (port colors of a, of b, op colors of a, of b), indexed by rank, or
    None when the color histograms already rule out an isomorphism.
    """
    def canon(keys_a: list, keys_b: list) -> Optional[tuple[list[int], list[int]]]:
        table = {key: i for i, key in enumerate(sorted(set(keys_a) | set(keys_b)))}
        ca, cb = [table[key] for key in keys_a], [table[key] for key in keys_b]
        return (ca, cb) if sorted(ca) == sorted(cb) else None

    def boundary(w: Wiring) -> list:
        """Per port: the boundary input entering it (-1 if none), the outputs reading it."""
        return [(d if d.__class__ is int else -1, tuple(r for r in rs if r.__class__ is int))
                for d, rs in zip(w.driver, w.readers)]

    def slot(s, oc: list[int]) -> tuple[int, ...]:
        """A driver or reader slot by the color of its operator; () for no driver."""
        return () if s is None else (s,) if s.__class__ is int else (oc[s[0]], s[1])

    def op_keys(w: Wiring, pc: list[int]) -> list:
        return [(lab, tuple(pc[p] for p in xi), tuple(pc[p] for p in xo)) for lab, xi, xo in w.ops]

    def port_keys(w: Wiring, pc: list[int], oc: list[int]) -> list:
        return [(c, slot(d, oc), tuple(sorted(slot(r, oc) for r in rs)))
                for c, d, rs in zip(pc, w.driver, w.readers)]

    res = canon(boundary(a), boundary(b))
    if res is None:
        return None
    pc_a, pc_b = res
    res = canon([lab for lab, _, _ in a.ops], [lab for lab, _, _ in b.ops])
    if res is None:
        return None
    oc_a, oc_b = res

    for _ in range(len(a.driver) + len(a.ops) + 2):
        res = canon(op_keys(a, pc_a), op_keys(b, pc_b))
        if res is None:
            return None
        new_oc_a, new_oc_b = res
        res = canon(port_keys(a, pc_a, new_oc_a), port_keys(b, pc_b, new_oc_b))
        if res is None:
            return None
        new_pc_a, new_pc_b = res

        stable = (len(set(new_pc_a)) == len(set(pc_a))
                  and len(set(new_oc_a)) == len(set(oc_a)))
        pc_a, pc_b, oc_a, oc_b = new_pc_a, new_pc_b, new_oc_a, new_oc_b
        if stable:
            break
    return pc_a, pc_b, oc_a, oc_b


def find_iso(a: Net, b: Net) -> Optional[NetIso]:
    """A witness isomorphism from ``a`` onto ``b``, or None when none exists."""
    if a.m != b.m or a.n != b.n:
        return None
    wa, wb = a.wiring, b.wiring
    if len(wa.driver) != len(wb.driver) or len(wa.ops) != len(wb.ops):
        return None
    if sorted(lab for lab, _, _ in wa.ops) != sorted(lab for lab, _, _ in wb.ops):
        return None

    # Boundary attachment forces part of the port bijection.  The search runs
    # on ranks, which order ports and operators as their ids do.
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
    pc_a, pc_b, oc_a, oc_b = colors
    for pa, pb in forced.items():
        if pc_a[pa] != pc_b[pb]:
            return None

    ops = range(len(wa.ops))
    candidates = [[y for y in ops if oc_b[y] == oc_a[x]] for x in ops]
    order = sorted(ops, key=lambda x: (len(candidates[x]), x))

    pmap: dict[int, int] = dict(forced)
    pused: set[int] = set(forced.values())
    omap: dict[int, int] = {}
    oused: set[int] = set()

    def bind_ports(pairs: list[tuple[int, int]], undo: list) -> bool:
        for pa, pb in pairs:
            cur = pmap.get(pa)
            if cur is not None:
                if cur != pb:
                    return False
                continue
            if pb in pused or pc_a[pa] != pc_b[pb]:
                return False
            pmap[pa] = pb
            pused.add(pb)
            undo.append(pa)
        return True

    def solve(i: int) -> bool:
        if i == len(order):
            return finish()
        x = order[i]
        _, ain, aout = wa.ops[x]
        for y in candidates[x]:
            if y in oused:
                continue
            _, bin_, bout = wb.ops[y]
            pairs = list(zip(ain, bin_)) + list(zip(aout, bout))
            undo: list[int] = []
            if bind_ports(pairs, undo):
                omap[x] = y
                oused.add(y)
                if solve(i + 1):
                    return True
                del omap[x]
                oused.discard(y)
            for pa in undo:
                pused.discard(pmap.pop(pa))
        return False

    def finish() -> bool:
        # Ports left over are attached to nothing; pair them up within classes.
        by_color: dict[int, list[int]] = {}
        for p in range(len(wb.driver)):
            if p not in pused:
                by_color.setdefault(pc_b[p], []).append(p)
        undo: list[int] = []
        for p in range(len(wa.driver)):
            if p in pmap:
                continue
            bucket = by_color.get(pc_a[p])
            if not bucket:
                for q in undo:
                    pused.discard(pmap.pop(q))
                return False
            q = bucket.pop(0)
            pmap[p] = q
            pused.add(q)
            undo.append(p)
        return True

    if not solve(0):
        return None
    iso = NetIso({wa.port_ids[p]: wb.port_ids[q] for p, q in pmap.items()},
                 {wa.op_ids[x]: wb.op_ids[y] for x, y in omap.items()})
    if not iso.verify(a, b):  # defensive: search invariants should guarantee this
        raise RuntimeError("internal error: candidate isomorphism failed verification")
    return iso
