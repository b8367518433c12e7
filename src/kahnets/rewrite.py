"""The sharing/erasing rewrite system and normalization to shared form.

Two rules, both strictly decreasing the operator count:

* *sharing* merges two operators that carry the same label and read exactly
  the same input ports, gluing their output ports pairwise;
* *erasing* deletes an operator none of whose outputs is read by any source
  slot (operator inputs and boundary outputs both count as reads, so a
  zero-coarity operator is always erasable).

Normal forms are nets with no duplicate (label, inputs) operator and no fully
dead operator; they decide the congruence the rules generate.

:func:`normalize` does not search for redexes step by step.  It finds the
normal form in one pass over the wiring and one rebuild:

1. *Sharing* is a congruence closure (Downey, Sethi and Tarjan's common
   subexpression algorithm): a union-find over ports, a use-list of readers
   per port class, and a table from (label, input classes) to operator.  Each
   operator is keyed; when two keys collide the smaller operator survives,
   the outputs of the pair are glued, the shorter use-list is merged into the
   longer and its readers are keyed again.  This is the *least* congruence:
   two copies of a feedback loop read different ports, so they are not
   shared.
2. *Erasing* counts the readers of each port class, removes the operators
   whose output classes are all unread and decrements what they read,
   cascading to the drivers of classes that fall to 0.  A dead loop reads its
   own output, so it is not collected (this is not reachability).

Erasing never creates a sharing redex, so sharing may saturate first.  The
small-step strategy that takes the first redex each time does just that (it
lists sharing redexes first) and keeps the smaller operator of each shared
pair.  The rebuild is handed each glued port with its class root and numbers
a class by its smallest member; so the result and its step count are that
strategy's, slot for slot.  ``normalize(net, rng=...)`` runs the small-step
strategy itself with random redex choices, as the confluence tests' reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, StaleRedex
from .iso import NetIso, find_iso
from .nets import Net, Wiring, renumbered


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
    w = net.wiring
    label, xi, _ = w.ops[w.op_rank(x)]
    return (label, tuple([w.port_ids[p] for p in xi]))


def _is_dead(net: Net, x: int) -> bool:
    w = net.wiring
    return not any(w.readers[p] for p in w.ops[w.op_rank(x)][2])


def redexes(net: Net) -> list[Redex]:
    """Every redex of the net, in a deterministic (lexicographic) order."""
    out: list[Redex] = []
    groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    for x in net.wiring.op_ids:
        groups.setdefault(_sharing_key(net, x), []).append(x)
    for key in sorted(groups, key=repr):
        members = groups[key]
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                out.append(Redex.sharing(x, y))
    out += [Redex.erasing(x) for x in net.wiring.op_ids if _is_dead(net, x)]
    return out


def apply_redex(net: Net, r: Redex) -> Net:
    """One rewriting step; the result has exactly one operator fewer."""
    if r.kind == "sharing":
        x, y = r.ops
        if (x not in net.wiring.op_ids or y not in net.wiring.op_ids or x == y
                or _sharing_key(net, x) != _sharing_key(net, y)):
            raise StaleRedex(f"sharing({x},{y}) does not match the net")
        return _remove(net, y, merge_into=x)
    if r.kind == "erasing":
        (x,) = r.ops
        if x not in net.wiring.op_ids or not _is_dead(net, x):
            raise StaleRedex(f"erasing({x}) does not match the net")
        return _remove(net, x)
    raise StaleRedex(f"unknown redex kind {r.kind!r}")


def _remove(net: Net, x: int, merge_into: Optional[int] = None) -> Net:
    """The net without operator ``x``; with ``merge_into``, each output port of
    ``x`` is glued to the same output port of that operator."""
    w = net.wiring
    x = w.op_rank(x)
    glue = () if merge_into is None else zip(w.ops[w.op_rank(merge_into)][2], w.ops[x][2])
    return renumbered(net, glue=glue, drop={x})


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedNet:
    """A redex-free net: :func:`is_shared` holds of ``net``."""

    net: Net
    steps: int  # rewrite steps taken to reach this form


def is_shared(net: Net) -> bool:
    """Normal-form predicate, stated directly rather than via redex search."""
    ops = net.wiring.op_ids
    keys = [_sharing_key(net, x) for x in ops]
    if len(set(keys)) != len(keys):
        return False
    return not any(_is_dead(net, x) for x in ops)


def normalize(net: Net, *, rng: Optional[random.Random] = None) -> SharedNet:
    """Rewrite to normal form.

    By default the normal form is computed in one pass over the net's wiring
    (see the module docstring) and built by one ``renumbered`` call, which
    is handed the port classes and drops the removed operators at once; the
    result and ``steps`` are those of taking the first redex in deterministic
    order at each step.  With ``rng``, the small-step reference strategy runs
    instead, taking a random redex at each step (used by the confluence tests;
    the normal form is unique up to isomorphism either way).
    """
    if rng is None:
        glue, removed = _normal_form(net.wiring)
        cur, steps = renumbered(net, glue=glue, drop=set(removed)), len(removed)
    else:
        cur, steps = net, 0
        while rs := redexes(cur):
            cur = apply_redex(cur, rs[rng.randrange(len(rs))])
            steps += 1
        cur = renumbered(cur)
    return SharedNet(cur, steps)


def _normal_form(w: Wiring) -> tuple[list[tuple[int, int]], list[int]]:
    """Each glued port but a class root, paired with its root, and the
    operators to remove, by rank, that take the net to its normal form."""
    ops = w.ops
    parent = list(range(len(w.driver)))  # union-find over ports

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    # Sharing: congruence closure over (label, input classes) keys.
    users: list[list[int]] = [[] for _ in parent]  # per class root: operators reading it
    for x, (_, xi, _) in enumerate(ops):
        for p in set(xi):
            users[p].append(x)
    alive = [True] * len(ops)
    key: list[Optional[tuple]] = [None] * len(ops)
    table: dict[tuple, int] = {}  # key -> the operator holding it
    removed: list[int] = []
    work = list(reversed(range(len(ops))))  # popped in rank order
    while work:
        x = work.pop()
        if not alive[x]:
            continue
        k = (ops[x][0], (*map(find, ops[x][1]),))
        if key[x] == k:
            continue
        if key[x] is not None:
            del table[key[x]]  # a stale key names a non-root, so no fresh key meets it
        y = table.setdefault(k, x)
        key[x] = k
        if y == x:
            continue
        keep, lose = min(x, y), max(x, y)
        alive[lose] = False
        removed.append(lose)
        table[k] = keep
        for p, q in zip(ops[keep][2], ops[lose][2]):
            p, q = find(p), find(q)
            if p != q:
                if len(users[p]) < len(users[q]):
                    p, q = q, p
                parent[q] = p
                users[p] += users[q]
                work += users[q]  # their keys named q
                users[q] = []

    # Erasing: reader counts per class, cascading from the unread ones.
    root = [find(p) for p in range(len(parent))]
    count = [0] * len(parent)
    driver: dict[int, int] = {}
    for x, (_, xi, xo) in enumerate(ops):
        if alive[x]:
            for p in xi:
                count[root[p]] += 1
            for p in xo:
                driver[root[p]] = x
    for p in w.outputs:
        count[root[p]] += 1

    def dead(x: int) -> bool:
        return not any(count[root[p]] for p in ops[x][2])

    work = [x for x in range(len(ops)) if alive[x] and dead(x)]
    while work:
        x = work.pop()
        alive[x] = False
        removed.append(x)
        for p in ops[x][1]:
            c = root[p]
            count[c] -= 1
            if not count[c] and c in driver:
                y = driver[c]
                if alive[y] and dead(y):
                    work.append(y)
    return [(p, r) for p, r in enumerate(root) if p != r], removed


def se_equivalent(a: Net, b: Net) -> bool:
    """Decide the congruence generated by sharing/erasing via normal forms."""
    return se_witness(a, b) is not None


def se_witness(a: Net, b: Net) -> Optional[NetIso]:
    """An isomorphism between the normal forms, when the nets are equivalent."""
    if a.m != b.m or a.n != b.n:
        raise ArityMismatch(f"se-equivalence needs equal arities, got {a.m}->{a.n} vs {b.m}->{b.n}")
    return find_iso(normalize(a).net, normalize(b).net)
