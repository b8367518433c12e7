"""Isomorphism search, cross-checked against a brute-force oracle."""

import random
from itertools import permutations

from kahnets import GenParams, Net, find_iso, gen_random_net, identity, symmetry
from kahnets.iso import NetIso, identity_iso
from kahnets.stdnets import STD_SIG, build


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
