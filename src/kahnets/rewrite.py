"""The sharing/erasing rewrite system and normalization to shared form.

Two rules, both strictly decreasing the operator count:

* *sharing* merges two operators that carry the same label and read exactly
  the same input ports, gluing their output ports pairwise;
* *erasing* deletes an operator none of whose outputs is read by any source
  slot (operator inputs and boundary outputs both count as reads, so a
  zero-coarity operator is always erasable).

Normal forms are nets with no duplicate (label, inputs) operator and no fully
dead operator; they decide the congruence the rules generate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ArityMismatch, StaleRedex
from .iso import NetIso, find_iso
from .nets import Net, renumbered


@dataclass(frozen=True)
class Redex:
    """A single rewriting opportunity: ('sharing', a, b) or ('erasing', x)."""

    kind: str
    ops: tuple[int, ...]

    @staticmethod
    def sharing(a: int, b: int) -> "Redex":
        return Redex("sharing", (min(a, b), max(a, b)))

    @staticmethod
    def erasing(x: int) -> "Redex":
        return Redex("erasing", (x,))


def _sharing_key(net: Net, x: int) -> tuple[str, tuple[int, ...]]:
    return (net.labels[x], net.op_inputs(x))


def _is_dead(net: Net, x: int) -> bool:
    w = net.wiring
    return not any(w.readers[p] for p in w.ops[w.op_ids.index(x)][2])


def redexes(net: Net) -> list[Redex]:
    """Every redex of the net, in a deterministic (lexicographic) order."""
    out: list[Redex] = []
    groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    for x in net.operators:
        groups.setdefault(_sharing_key(net, x), []).append(x)
    for key in sorted(groups, key=repr):
        members = groups[key]
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                out.append(Redex.sharing(x, y))
    out += [Redex.erasing(x) for x in net.operators if _is_dead(net, x)]
    return out


def apply_redex(net: Net, r: Redex) -> Net:
    """One rewriting step; the result has exactly one operator fewer."""
    if r.kind == "sharing":
        x, y = r.ops
        if (x not in net.labels or y not in net.labels or x == y
                or _sharing_key(net, x) != _sharing_key(net, y)):
            raise StaleRedex(f"sharing({x},{y}) does not match the net")
        return _remove(net, y, merge_into=x)
    if r.kind == "erasing":
        (x,) = r.ops
        if x not in net.labels or not _is_dead(net, x):
            raise StaleRedex(f"erasing({x}) does not match the net")
        return _remove(net, x)
    raise StaleRedex(f"unknown redex kind {r.kind!r}")


def _remove(net: Net, x: int, merge_into: Optional[int] = None) -> Net:
    """The net without operator ``x``; with ``merge_into``, each output port of
    ``x`` is glued to the same output port of that operator."""
    w = net.wiring
    x = w.op_ids.index(x)
    glue = () if merge_into is None else zip(w.ops[w.op_ids.index(merge_into)][2], w.ops[x][2])
    return renumbered(net, glue=glue, drop={x})


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedNet:
    """A redex-free net together with the canonical identity of each operator.

    Invariants (checked at construction): no two operators share a
    (label, input ports) key, and every operator has at least one output that
    some source slot reads.
    """

    net: Net
    op_keys: Mapping[int, tuple[str, tuple[int, ...]]]
    steps: int = 0  # rewrite steps taken to reach this form

    def __post_init__(self):
        object.__setattr__(self, "op_keys", dict(self.op_keys))
        keys = list(self.op_keys.values())
        if len(set(keys)) != len(keys):
            raise ValueError("shared net has duplicate (label, inputs) operators")
        for x in self.net.operators:
            if _is_dead(self.net, x):
                raise ValueError(f"shared net has fully unconsumed operator {x}")


def is_shared(net: Net) -> bool:
    """Normal-form predicate, stated directly rather than via redex search."""
    keys = [_sharing_key(net, x) for x in net.operators]
    if len(set(keys)) != len(keys):
        return False
    return not any(_is_dead(net, x) for x in net.operators)


def normalize(net: Net, *, rng: Optional[random.Random] = None) -> SharedNet:
    """Rewrite to normal form.

    The redex chosen at each step is the first in deterministic order, or a
    random one when ``rng`` is supplied (used by the confluence tests; the
    normal form is unique up to isomorphism either way).
    """
    budget = len(net.labels)  # each step removes one operator
    cur = net
    steps = 0
    while True:
        rs = redexes(cur)
        if not rs:
            break
        r = rs[0] if rng is None else rs[rng.randrange(len(rs))]
        cur = apply_redex(cur, r)
        steps += 1
        if steps > budget:
            raise RuntimeError("rewriting exceeded its termination bound")
    cur = renumbered(cur)
    return SharedNet(cur, {x: _sharing_key(cur, x) for x in cur.operators}, steps)


def se_equivalent(a: Net, b: Net) -> bool:
    """Decide the congruence generated by sharing/erasing via normal forms."""
    return se_witness(a, b) is not None


def se_witness(a: Net, b: Net) -> Optional[NetIso]:
    """An isomorphism between the normal forms, when the nets are equivalent."""
    if a.m != b.m or a.n != b.n:
        raise ArityMismatch(f"se-equivalence needs equal arities, got {a.m}->{a.n} vs {b.m}->{b.n}")
    return find_iso(normalize(a).net, normalize(b).net)
