"""Isomorphism search, cross-checked against a brute-force oracle and against
the search without propagation it replaced, and color refinement
cross-checked against the two-table refinement it replaced."""

import gc
import glob
import inspect
import json
import os
import random
import sys
from itertools import chain, permutations
from typing import Optional

import pytest

from kahnets import GenParams, Net, find_iso, gen_random_net, identity, iso, laws, symmetry
from kahnets.dsl import parse_document
from kahnets.iso import NetIso, _match, _refine, identity_iso
from kahnets.nets import Wiring, _dense
from kahnets.stdnets import STD_SIG, build
from test_golden import GOLDEN, ROOT, net_from_json


def brute_force_iso(a: Net, b: Net):
    """Try every port/operator bijection; only usable for tiny nets."""
    if a.m != b.m or a.n != b.n:
        return None
    pa, pb = sorted(a.ports), sorted(b.ports)
    oa, ob = sorted(a.labels), sorted(b.labels)
    if len(pa) != len(pb) or len(oa) != len(ob):
        return None
    for pperm in permutations(pb):
        pmap = dict(zip(pa, pperm))
        for operm in permutations(ob):
            omap = dict(zip(oa, operm))
            cand = NetIso(pmap, omap)
            if cand.verify(a, b):
                return cand
    return None


def permute_ports(net: Net, seed: int) -> Net:
    """A structurally identical net with shuffled port identities."""
    rng = random.Random(seed)
    ports = sorted(net.ports)
    shuffled = ports[:]
    rng.shuffle(shuffled)
    ren = dict(zip(ports, shuffled))
    return Net(net.m, net.n, net.ports, net.labels,
               {s: ren[p] for s, p in net.src.items()},
               {s: ren[p] for s, p in net.tgt.items()})


@pytest.fixture
def refined(monkeypatch) -> list:
    """The calls of ``iso._refine`` from here on, one entry each."""
    calls: list = []

    def counted(wa: Wiring, wb: Wiring):
        calls.append(1)
        return _refine(wa, wb)

    monkeypatch.setattr(iso, "_refine", counted)
    return calls


def test_identity_witness():
    net = build("paper_example")
    w = find_iso(net, net)
    assert w is not None and w.verify(net, net)
    assert identity_iso(net).verify(net, net)


def test_verify_is_false_when_a_wiring_cannot_be_built():
    """Hand-built nets whose wiring cannot be built: two operators driving one
    port, and an output reading an undeclared port.  Their slot dicts map onto
    themselves under the identity, but they are not nets."""
    two_drivers = Net(1, 1, {0, 1}, {0: "scale", 1: "scale"},
                      {(0, 0): 0, (1, 0): 0, 0: 1}, {(0, 0): 1, (1, 0): 1, 0: 0})
    dangling = Net(1, 1, {0}, {}, {0: 5}, {0: 0})
    for bad in (two_drivers, dangling):
        same = NetIso({p: p for p in bad.ports}, {x: x for x in bad.labels})
        assert not same.verify(bad, bad)
    good = build("paper_example")
    assert not identity_iso(good).verify(good, two_drivers)
    assert not identity_iso(good).verify(two_drivers, good)


def test_identity2_vs_symmetry_exhaustively():
    a, b = identity(2), symmetry(1, 1)
    assert brute_force_iso(a, b) is None  # both of the 2 port bijections fail
    assert find_iso(a, b) is None


def test_port_renaming_is_recovered():
    net = build("paper_example")
    for seed in range(10):
        other = permute_ports(net, seed)
        w = find_iso(net, other)
        assert w is not None and w.verify(net, other)


def test_against_brute_force_on_small_nets():
    hits = misses = 0
    for seed in range(160):
        net = gen_random_net(GenParams(seed=seed, signature=STD_SIG,
                                       max_operators=2, max_boundary=2))
        if len(net.ports) > 5 or len(net.labels) > 2:
            continue
        other = gen_random_net(GenParams(seed=seed + 7000, signature=STD_SIG,
                                         max_operators=2, max_boundary=2))
        if len(other.ports) > 5 or len(other.labels) > 2:
            continue
        expected = brute_force_iso(net, other)
        got = find_iso(net, other)
        assert (expected is None) == (got is None), f"seed {seed}"
        if got is not None:
            assert got.verify(net, other)
        else:
            misses += 1
        # a shuffled copy must always be found
        shuffled = permute_ports(net, seed)
        assert find_iso(net, shuffled) is not None
        assert brute_force_iso(net, shuffled) is not None
        hits += 1
    assert hits > 3 and misses > 3  # the sample exercises both outcomes


def test_self_loop_operators_are_distinguished():
    # one operator feeding itself vs. feeding a sibling: same counts, not iso
    loop = Net(0, 1, frozenset({0, 1}), {0: "iota", 1: "iota"},
               {(0, 0): 0, (1, 0): 1, 0: 1}, {(0, 0): 0, (1, 0): 1})
    chain = Net(0, 1, frozenset({0, 1}), {0: "iota", 1: "iota"},
                {(0, 0): 1, (1, 0): 0, 0: 1}, {(0, 0): 0, (1, 0): 1})
    assert brute_force_iso(loop, chain) is None
    assert find_iso(loop, chain) is None


def test_larger_net_roundtrip():
    for seed in (3, 17, 55):
        net = gen_random_net(GenParams(seed=seed, signature=STD_SIG,
                                       max_operators=12, max_boundary=4))
        shuffled = permute_ports(net, seed)
        w = find_iso(net, shuffled)
        assert w is not None and w.verify(net, shuffled)


def iota_rings(*sizes: int, turn: int = 0) -> Net:
    """Closed rings of ``iota`` operators, one of each of ``sizes``, with no
    boundary; ``turn`` moves each operator that many ports along its ring."""
    ops: list = []
    base = 0
    for k in sizes:
        ops += [("iota", (base + (x + turn) % k,), (base + (x + turn + 1) % k,)) for x in range(k)]
        base += k
    return _dense(ops, (), (), base)


def test_a_search_leaves_no_garbage(refined):
    """A witness and a refusal from the boundary alone, and a witness and a
    refusal that take refinement and branching, free everything they built
    as soon as they return: no reference cycle waits for the collector."""
    with open(os.path.join(ROOT, "fixtures", "paper_example.net"), encoding="utf-8") as handle:
        main = parse_document(handle.read()).net("main")
    shuffled = permute_ports(main, 1)
    assert main.wiring != shuffled.wiring
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert find_iso(main, shuffled) is not None
        assert find_iso(identity(2), symmetry(1, 1)) is None
        assert find_iso(iota_rings(3), iota_rings(3, turn=1)) is not None
        assert find_iso(iota_rings(6), iota_rings(3, 3)) is None
        assert len(refined) == 2
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_the_search_binds_more_operators_than_the_recursion_limit():
    """A ring of more operators than Python's recursion limit against the
    same ring with its ports rotated: the search binds them all."""
    k = sys.getrecursionlimit() + 200
    w = find_iso(iota_rings(k), iota_rings(k, turn=1))
    assert w is not None and w.port_map[0] == 1


def searched_with_backtracks(a: Net, b: Net) -> tuple[Optional[NetIso], int]:
    """``find_iso(a, b)`` and how many times ``_match`` took back a choice,
    counted by a line tracer on its ``stack.pop()`` line."""
    code = _match.__code__
    lines, start = inspect.getsourcelines(_match)
    pop = start + next(k for k, line in enumerate(lines) if "stack.pop()" in line)
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == pop
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        return find_iso(a, b), count
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("a, b, backtracks", [
    (iota_rings(1, 1, 1, 1), iota_rings(1, 3), 1),
    (iota_rings(1, 3), iota_rings(1, 1, 1, 1), 4),
])
def test_the_search_backtracks_to_a_refusal(a, b, backtracks):
    """Rings that refinement cannot tell apart (every port and operator
    alike) but that are not isomorphic: the search refuses only after it
    has taken back choices, as the exhaustive search does."""
    assert searched_with_backtracks(a, b) == (None, backtracks)
    assert brute_force_iso(a, b) is None


# ---------------------------------------------------------------------------
# The equal-wiring shortcut against the matcher
# ---------------------------------------------------------------------------

def test_the_search_maps_equal_wirings_rank_to_rank():
    """``find_iso`` answers two equal wirings with rank -> rank without
    matching them; on ``(w, w)`` the matcher itself gives the same, on every
    fixture net, the stored random nets and random nets of up to 24
    operators."""
    nets = []
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.net"))):
        with open(path, encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        nets += [doc.net(nd.name) for nd in doc.nets]
    with open(os.path.join(GOLDEN, "random-nets.json"), encoding="utf-8") as handle:
        stored = [net_from_json(case["net"]) for case in json.load(handle)]
    assert len(stored) == 60
    nets += stored
    nets += [gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=24))
             for seed in range(1000)]
    for net in nets:
        w = net.wiring
        assert _match(w, w) == (list(range(len(w.driver))), list(range(len(w.ops))))


# ---------------------------------------------------------------------------
# The matcher against the search without propagation
# ---------------------------------------------------------------------------

def dag(rng: random.Random, size: int, m: int = 2) -> Net:
    """A loop-free net built like the benchmark's: each operator reads earlier
    ports, its first input mostly from an operator nothing reads yet, and
    the operators still unread feed the boundary outputs.  So every operator
    lies in the cone of the outputs."""
    owner: list[Optional[int]] = [None] * m  # per port: its driving operator
    ops: list = []
    unread: list[int] = []
    for x in range(size):
        label = rng.choice(("plus", "minus", "alpha", "beta", "scale", "iota"))
        ar, co = STD_SIG.symbols[label]
        ins = [rng.randrange(len(owner)) for _ in range(ar)]
        if unread and rng.random() < 0.8:
            ins[0] = ops[rng.choice(unread)][2][0]
        for p in ins:
            if owner[p] in unread:
                unread.remove(owner[p])
        ops.append((label, tuple(ins), tuple(range(len(owner), len(owner) + co))))
        owner += [x] * co
        unread.append(x)
    return _dense(ops, tuple(range(m)), tuple(ops[x][2][0] for x in unread), len(owner))


def swapped(net: Net, rng: random.Random) -> Optional[Net]:
    """The net with the two distinct inputs of one non-commutative operator
    swapped, or None when it has no such operator."""
    w = net.wiring
    xs = [x for x, (lab, xi, _) in enumerate(w.ops)
          if lab in ("minus", "alpha", "beta") and xi[0] != xi[1]]
    if not xs:
        return None
    x = rng.choice(xs)
    ops = list(w.ops)
    lab, (p, q), xo = ops[x]
    ops[x] = (lab, (q, p), xo)
    return _dense(ops, w.inputs, w.outputs, len(w.driver))


def relabelled(net: Net, rng: random.Random) -> Net:
    """The net with one operator given another symbol of the same arity."""
    other = {"plus": "minus", "minus": "alpha", "alpha": "plus", "scale": "iota", "iota": "scale"}
    w = net.wiring
    x = rng.choice([x for x, (lab, _, _) in enumerate(w.ops) if lab in other])
    ops = list(w.ops)
    lab, xi, xo = ops[x]
    ops[x] = (other[lab], xi, xo)
    return _dense(ops, w.inputs, w.outputs, len(w.driver))


def relisted(net: Net, rng: random.Random) -> Net:
    """The net with its operators listed in a shuffled order, ports shuffled."""
    ids = sorted(net.labels)
    order = ids[:]
    rng.shuffle(order)
    ren = dict(zip(ids, order))

    def slot(s):
        return (ren[s[0]], s[1]) if isinstance(s, tuple) else s

    moved = Net(net.m, net.n, net.ports, {ren[x]: lab for x, lab in net.labels.items()},
                {slot(s): p for s, p in net.src.items()}, {slot(s): p for s, p in net.tgt.items()})
    return permute_ports(moved, rng.randrange(1000))


def agrees_with_reference(a: Net, b: Net, refined: list) -> str:
    """``find_iso`` gives the verdict of ``reference_search`` and its witness
    wherever there is one.  Returns the path the matcher takes on the pair:
    ``"bound"`` or ``"refused"`` by the boundary alone, or ``"refined"``."""
    wa, wb = a.wiring, b.wiring
    found, got = reference_search(wa, wb), find_iso(a, b)
    assert (got is None) == (found is None)
    if found is not None:
        pmap, omap = found
        assert got.port_map == {wa.port_ids[p]: wb.port_ids[q] for p, q in pmap.items()}
        assert got.op_map == {wa.op_ids[x]: wb.op_ids[y] for x, y in omap.items()}
    before = len(refined)
    matched = _match(wa, wb)
    return "refined" if len(refined) > before else "refused" if matched is None else "bound"


def test_the_cone_agrees_with_the_search_on_random_pairs(refined):
    """Random nets against a copy with shuffled ports and a copy with one slot
    rewired, and loop-free nets like the benchmark's against a relisted copy,
    a copy with one operator relabelled and a copy with the inputs of a
    non-commutative operator swapped."""
    rng = random.Random(13)
    paths = {"bound": 0, "refused": 0, "refined": 0}
    for seed in range(1000):
        net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=12))
        for other in (permute_ports(net, seed), rewired(net, rng)):
            paths[agrees_with_reference(net, other, refined)] += 1
    for size in range(2, 66):
        net = dag(rng, size)
        assert agrees_with_reference(net, relisted(net, rng), refined) == "bound"
        assert agrees_with_reference(net, relabelled(net, rng), refined) == "refused"
        bad = swapped(net, rng)
        if bad is not None:
            assert agrees_with_reference(net, bad, refined) == "refused"
            paths["refused"] += 1
        paths["bound"] += 1
    assert min(paths.values()) > 100, paths


def test_the_matcher_agrees_with_the_search_on_the_law_suites(law_pairs, refined):
    """Every pair the law suites compare at seeds 0-2, the pairs that branch
    among them."""
    paths = {"bound": 0, "refused": 0, "refined": 0}
    for a, b in law_pairs:
        paths[agrees_with_reference(a, b, refined)] += 1
    assert paths["refined"] > 100, paths


def test_the_cone_refuses_what_the_boundary_rules_out(refined):
    """Pairs the walk from the boundary refuses on its own: an undriven port
    against a driven one, two boundary ports swapped, and an operator whose
    output ports would be bound to two operators' ports."""
    # in a the output's iota reads an undriven port; in b it reads another iota
    undriven = _dense([("iota", (0,), (1,)), ("iota", (3,), (2,))], (), (1,), 4)
    driven = _dense([("iota", (0,), (1,)), ("iota", (3,), (0,))], (), (1,), 4)
    # the two outputs of one beta against a beta and an alpha reading it
    beta = _dense([("beta", (0, 1), (2, 3)), ("beta", (2, 3), (4, 5))], (0, 1), (4, 5), 6)
    crossed = _dense([("beta", (0, 1), (2, 3)), ("beta", (2, 3), (5, 4))], (0, 1), (4, 5), 6)
    for a, b in ((undriven, driven), (identity(2), symmetry(1, 1)), (beta, crossed)):
        assert _match(a.wiring, b.wiring) is None and find_iso(a, b) is None
        assert reference_search(a.wiring, b.wiring) is None
    assert refined == []


def test_a_long_chain_is_matched_without_refinement(refined):
    """A chain of 4,096 ``scale`` operators against the same chain listed in
    reverse: the boundary binds every operator, so nothing is refined."""
    k = 4096
    chain = _dense([("scale", (x,), (x + 1,)) for x in range(k)], (0,), (k,), k + 1)
    reverse = _dense([("scale", (x,), (x + 1,)) for x in reversed(range(k))], (0,), (k,), k + 1)
    w = find_iso(chain, reverse)
    assert w is not None and refined == []
    assert w.op_map == {x: k - 1 - x for x in range(k)}
    assert w.port_map == {p: p for p in range(k + 1)}


def test_an_operator_outside_the_cone_is_left_to_the_search(refined):
    """An operator that no boundary output depends on is not bound from the
    boundary, so both nets are refined once and searched, found or not."""
    # in -> scale -> out, and an iota reading the input that nothing reads
    net = _dense([("scale", (0,), (1,)), ("iota", (0,), (2,))], (0,), (1,), 3)
    relisted_ = _dense([("iota", (0,), (1,)), ("scale", (0,), (2,))], (0,), (2,), 3)
    unread_eps = _dense([("scale", (0,), (1,)), ("eps", (0,), (2,))], (0,), (1,), 3)
    w = find_iso(net, relisted_)
    assert w is not None and w.op_map == {0: 1, 1: 0} and len(refined) == 1
    assert find_iso(net, unread_eps) is None and len(refined) == 2


# ---------------------------------------------------------------------------
# The references: the search and the colour refinement as they were
# ---------------------------------------------------------------------------

def reference_search(wa: Wiring, wb: Wiring) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """The search as it was before it propagated bindings: the rank maps
    (ports, operators) of a witness from ``wa`` onto ``wb``, or None when
    there is none.  Operators are bound fewest candidates first (then by
    rank), each to the first candidate of its color, by rank, that is still
    unused and whose ports bind, backtracking on failure; the ports left
    over are paired in rank order within their color."""
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


def reference_refine(a: Wiring, b: Wiring) -> Optional[tuple[list[int], list[int], list[int], list[int]]]:
    """Colour refinement as it was done with two tables per step: each net
    keyed apart, colors numbered by the sorted union of keys, and sorted
    histograms compared.  Returns (port colors of a, of b, op colors of a,
    of b), or None when the histograms already rule out an isomorphism."""
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


def classes(colors: list[int]) -> list[int]:
    """The partition the colors induce, as colors numbered by first appearance."""
    table: dict[int, int] = {}
    return [table.setdefault(c, len(table)) for c in colors]


def assert_refines_as_reference(a: Net, b: Net) -> bool:
    """Both refinements agree on whether to refuse, and otherwise partition
    the ports and the operators of both nets alike.  True when not refused."""
    wa, wb = a.wiring, b.wiring
    got, want = _refine(wa, wb), reference_refine(wa, wb)
    assert (got is None) == (want is None)
    if got is None:
        return False
    pc_a, pc_b, oc_a, oc_b = want
    assert classes(got[0]) == classes(pc_a + pc_b)
    assert classes(got[1]) == classes(oc_a + oc_b)
    return True


@pytest.fixture(scope="module")
def law_pairs() -> list[tuple[Net, Net]]:
    """Every pair that ``find_iso`` compares in the law suites, seeds 0-2."""
    seen = []

    def recording(a: Net, b: Net):
        seen.append((a, b))
        return find_iso(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laws, "find_iso", recording)
        for seed in range(3):
            for axiom in laws.ALL_AXIOMS:
                assert laws.run_suite(axiom, GenParams(seed=seed, signature=STD_SIG), 40).ok
    assert len(seen) == 3 * (len(laws.ALL_AXIOMS) + 2) * 40  # the unit laws compare twice
    return seen


def test_refinement_agrees_with_the_reference_on_the_law_suites(law_pairs):
    """Every pair that ``find_iso`` compares in the law suites, seeds 0-2."""
    for a, b in law_pairs:
        assert_refines_as_reference(a, b)


def rewired(net: Net, rng: random.Random) -> Net:
    """The net with one reading slot moved to another port, ports shuffled."""
    src = dict(net.src)
    if src:
        src[rng.choice(sorted(src, key=repr))] = rng.choice(sorted(net.ports))
    moved = Net(net.m, net.n, net.ports, net.labels, src, net.tgt)
    return permute_ports(moved, rng.randrange(1000))


def test_refinement_agrees_with_the_reference_on_random_pairs():
    """2,000 pairs of random nets: each against a copy with shuffled ports,
    and against a copy with one slot rewired, most of which are not
    isomorphic."""
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for seed in range(1000):
        net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=12))
        assert assert_refines_as_reference(net, permute_ports(net, seed))
        other = rewired(net, rng)
        assert_refines_as_reference(net, other)
        outcomes[find_iso(net, other) is not None] += 1
    assert outcomes[False] > 800
