"""Core net IR: validation, constructions, and their categorical equations."""

import random
from dataclasses import FrozenInstanceError
from itertools import chain
from typing import Collection, Iterable, Optional, Sequence

import pytest

from kahnets import (ArityMismatch, ArityTooSmall, GenParams, Net, UnknownKind,
                     UnknownSymbol, compose, duplication, erasure, find_iso,
                     gen_random_net, generator, identity, projection,
                     structural, symmetry, tensor, trace, validate)
from kahnets import nets
from kahnets.dsl import parse_document
from kahnets.nets import _dense, renumbered
from kahnets.randnets import gen_net
from kahnets.stdnets import STD_SIG, build

#: The slot dicts a net built from its wiring makes only when they are read.
SLOT_DICTS = {"ports", "labels", "src", "tgt"}

def paper_net() -> Net:
    return build("paper_example")


class TestValidate:
    def test_paper_example_is_valid(self):
        report = validate(paper_net(), STD_SIG)
        assert report.ok
        assert report.notes == ()

    def test_empty_net_is_valid(self):
        assert validate(identity(0), STD_SIG).ok

    def test_broken_target_injectivity_is_reported(self):
        net = paper_net()
        mutated = Net(net.m, net.n, net.ports, net.labels, net.src,
                      {**net.tgt, (1, 1): 3})  # beta's second output now collides on p3
        report = validate(mutated, STD_SIG)
        assert not report.ok
        assert any(issue.code == "tgt-not-injective" for issue in report.errors)

    def test_unknown_symbol_and_dangling_port(self):
        net = Net(0, 0, frozenset({0}), {0: "gamma"}, {}, {(0, 0): 7})
        report = validate(net, STD_SIG)
        codes = {issue.code for issue in report.errors}
        assert "unknown-symbol" in codes
        assert "dangling-port" in codes

    def test_missing_slot_is_reported(self):
        net = Net(1, 1, frozenset({0, 1}), {0: "iota"}, {0: 1}, {0: 0, (0, 0): 1})
        report = validate(net, STD_SIG)  # iota's input slot is undefined
        assert any(issue.code == "missing-slot" for issue in report.errors)

    def test_undriven_port_is_a_note_not_an_error(self):
        net = Net(0, 1, frozenset({0}), {}, {0: 0}, {})
        report = validate(net, STD_SIG)
        assert report.ok
        assert any(issue.code == "undriven-port" for issue in report.notes)


class TestConstructors:
    def test_identity_shape(self):
        net = identity(2)
        assert net.m == net.n == 2
        assert net.tgt == {0: 0, 1: 1} and net.src == {0: 0, 1: 1}
        assert validate(identity(5), STD_SIG).ok
        assert len(identity(0).ports) == 0

    def test_generator_wiring_matches_presentation(self):
        net = generator(STD_SIG, "alpha")  # 2 -> 1
        assert (net.m, net.n) == (2, 1)
        assert net.src[(0, 0)] == 0 and net.src[(0, 1)] == 1
        assert net.src[0] == 2
        assert net.tgt[(0, 0)] == 2
        assert net.tgt[0] == 0 and net.tgt[1] == 1
        assert validate(net, STD_SIG).ok

    def test_generator_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            generator(STD_SIG, "gamma")

    def test_duplication_erasure_shapes(self):
        dup = duplication(1)
        assert len(dup.ports) == 1 and dup.src[0] == dup.src[1] == dup.tgt[0]
        era = erasure(1)
        assert len(era.ports) == 1 and era.src == {} and era.tgt == {0: 0}

    def test_structural_dispatch(self):
        assert find_iso(structural(STD_SIG, "projection", 1, 2), projection(1, 2))
        with pytest.raises(UnknownKind):
            structural(STD_SIG, "frobnicate", 1)
        with pytest.raises(ArityMismatch):
            structural(STD_SIG, "symmetry", 1)


class TestCompose:
    def test_left_unit(self):
        assert find_iso(compose(identity(2), paper_net()), paper_net())

    def test_generator_chain_counts(self):
        g = generator(STD_SIG, "iota")
        net = compose(g, g)
        assert len(net.ports) == 3 and len(net.labels) == 2
        assert validate(net, STD_SIG).ok

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose(identity(2), identity(3))

    def test_counit_collapses_to_identity(self):
        from kahnets import se_equivalent
        net = compose(duplication(1), tensor(identity(1), erasure(1)))
        assert se_equivalent(net, identity(1))


class TestTensor:
    def test_identities_merge(self):
        assert find_iso(tensor(identity(1), identity(1)), identity(2))

    def test_unit(self):
        assert find_iso(tensor(paper_net(), identity(0)), paper_net())
        assert find_iso(tensor(identity(0), paper_net()), paper_net())

    def test_generator_counts(self):
        net = tensor(generator(STD_SIG, "alpha"), generator(STD_SIG, "beta"))
        assert (net.m, net.n) == (4, 3)
        assert len(net.ports) == 7 and len(net.labels) == 2


class TestTrace:
    def test_yanking(self):
        assert find_iso(trace(symmetry(1, 1), 1), identity(1))

    def test_trace_of_identity(self):
        for n1, x in [(1, 1), (2, 1), (0, 2), (3, 2)]:
            assert find_iso(trace(identity(n1 + x), x), identity(n1))

    def test_constant_loop_shape(self):
        body = compose(generator(STD_SIG, "iota"), duplication(1))
        net = trace(body, 1)
        assert (net.m, net.n) == (0, 1)
        assert len(net.ports) == 1 and len(net.labels) == 1
        # the single port is the operator's input, its output, and the tap
        assert net.src[(0, 0)] == net.tgt[(0, 0)] == net.src[0]

    def test_arity_too_small(self):
        with pytest.raises(ArityTooSmall):
            trace(identity(1), 2)


@pytest.mark.parametrize("build", [
    lambda: identity(-1), lambda: symmetry(-1, 2), lambda: symmetry(2, -1),
    lambda: duplication(-1), lambda: erasure(-1), lambda: projection(2, -1),
    lambda: projection(-1, 2), lambda: trace(generator(STD_SIG, "beta"), -1),
], ids=["identity", "symmetry-left", "symmetry-right", "duplication", "erasure",
        "projection-right", "projection-left", "trace"])
def test_negative_widths_are_refused(build):
    with pytest.raises(ArityMismatch, match="negative width"):
        build()


# ---------------------------------------------------------------------------
# compose, tensor, trace and renumbered against the same union rebuilt by
# reference_renumbered
# ---------------------------------------------------------------------------

def reference_renumbered(*nets: Net, inputs: Optional[Sequence[int]] = None,
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

    The reference for :func:`kahnets.nets.renumbered`, which rebuilds one
    net, and for the constructions, which number the union directly.
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
                [(lab, (*map(shift, xi),), (*map(shift, xo),)) for lab, xi, xo in w.ops])
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
            q = rep[p]
            rep[p] = p = rep.get(q, q)  # path halving
        return p

    for p, q in glue:
        p, q = find(p), find(q)
        if p != q:
            rep[max(p, q)] = min(p, q)
    used = set(chain(inputs, outputs, keep, *(xi + xo for _, xi, xo in ops)))
    number = {c: i for i, c in enumerate(sorted({find(p) for p in used} if rep else used))}
    port = {p: number[find(p)] for p in used} if rep else number
    new = port.__getitem__

    return _dense([(lab, (*map(new, xi),), (*map(new, xo),)) for lab, xi, xo in ops],
                  (*map(new, inputs),), (*map(new, outputs),), len(number))


def renumbered_compose(a: Net, b: Net) -> Net:
    wa, wb = a.wiring, b.wiring
    po = len(wa.driver)
    return reference_renumbered(a, b, inputs=wa.inputs, outputs=[p + po for p in wb.outputs],
                                glue=zip(wa.outputs, [p + po for p in wb.inputs]))


def renumbered_trace(net: Net, x: int) -> Net:
    w, n1, n2 = net.wiring, net.m - x, net.n - x
    return reference_renumbered(net, inputs=w.inputs[:n1], outputs=w.outputs[:n2],
                                glue=zip(w.outputs[n2:], w.inputs[n1:]))


def into(k: int) -> list[Net]:
    """Structural nets with k outputs."""
    found = [identity(k), projection(k, 1), *(symmetry(j, k - j) for j in range(k + 1))]
    return found + ([duplication(k // 2)] if k % 2 == 0 else []) + ([erasure(2)] if k == 0 else [])


def out_of(k: int) -> list[Net]:
    """Structural nets with k inputs."""
    return [identity(k), erasure(k), duplication(k)] + ([symmetry(1, k - 1), projection(k - 1, 1)]
                                                        if k else [])


def assert_as_renumbered(a: Net, b: Net, structurals: bool = True) -> None:
    """``tensor(a, b)``, ``compose(a, b)`` when the arities meet, every trace
    of ``a`` and, unless ``structurals`` is false, ``a`` composed with
    structural nets on either side have the wiring, slot for slot, of the
    same renumbered union."""
    pairs = [(tensor(a, b), reference_renumbered(a, b))]
    if a.n == b.m:
        pairs.append((compose(a, b), renumbered_compose(a, b)))
    pairs += [(trace(a, x), renumbered_trace(a, x)) for x in range(min(a.m, a.n) + 1)]
    if structurals:
        pairs += [(compose(a, s), renumbered_compose(a, s)) for s in out_of(a.n)]
        pairs += [(compose(s, a), renumbered_compose(s, a)) for s in into(a.m)]
    for got, expected in pairs:
        assert got.wiring == expected.wiring


#: A net whose port ``r`` is declared and referenced by nothing.
FLOATING = parse_document("sig f 1 1\nnet n : 1 -> 2\n  ports p q r\n  op x f (p) -> (q)\n"
                          "  in p\n  out q p\n").net("n")


class TestConstructionsWithoutRenumbering:
    def test_random_pairs(self):
        # Random nets with undriven ports and loops, each composed with a
        # random net of matching arity.
        rng = random.Random(10)
        for k in range(5000):
            ops = rng.choice((0, 2, 4, 8))
            a = gen_net(rng, STD_SIG, rng.randint(0, 3), rng.randint(0, 3), max_ops=ops)
            b = gen_net(rng, STD_SIG, a.n, rng.randint(0, 3), max_ops=ops)
            assert_as_renumbered(a, b, structurals=k % 5 == 0)

    def test_wide_traces(self):
        # Wide boundaries, so that glued classes chain and merge.
        rng = random.Random(13)
        for _ in range(100):
            a = gen_net(rng, STD_SIG, rng.randint(8, 24), rng.randint(8, 24), max_ops=8)
            assert_as_renumbered(a, identity(0), structurals=False)

    def test_sparse_and_floating_operands(self):
        from test_golden import sparse
        rng = random.Random(11)
        for seed in range(150):
            a = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
            b = gen_random_net(GenParams(seed=seed + 1000, signature=STD_SIG, max_operators=8))
            sa = sparse(a, rng)  # ports at 3p+1 or 3p+2; port 0 floats
            sa = Net(sa.m, sa.n, sa.ports | {0}, sa.labels, sa.src, sa.tgt)
            sb = sparse(b, rng)
            assert_as_renumbered(sa, sb)
            assert_as_renumbered(sb, sa)
            assert_as_renumbered(FLOATING, sa)
            assert_as_renumbered(sa, FLOATING)
        assert len(compose(identity(1), FLOATING).ports) == 3

    def test_orphaned_classes(self):
        # An undriven port read only by a's output, fed into an unread input
        # of b: the class is dropped.
        undriven = Net(0, 1, {0}, {}, {0: 0}, {})
        assert_as_renumbered(undriven, erasure(1))
        assert len(compose(undriven, erasure(1)).ports) == 0
        # The same with a port after it, so a's numbers shift.
        shifted = tensor(undriven, generator(STD_SIG, "iota"))
        assert_as_renumbered(shifted, tensor(erasure(1), identity(1)))
        assert compose(shifted, tensor(erasure(1), identity(1))).wiring.ops == (
            ("iota", (0,), (1,)),)
        # A traced identity wire leaves nothing behind.
        for net in (identity(2), symmetry(1, 1), duplication(1), tensor(undriven, identity(1))):
            assert_as_renumbered(net, net)
        assert len(trace(identity(2), 1).ports) == 1

    def test_no_renumbering(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nets, "renumbered", lambda *args, **kw: calls.append(args))
        rng = random.Random(12)
        for _ in range(200):
            a = gen_net(rng, STD_SIG, rng.randint(0, 3), rng.randint(1, 3), max_ops=4)
            b = gen_net(rng, STD_SIG, a.n, rng.randint(0, 3), max_ops=4)
            compose(a, b), tensor(a, b), trace(a, min(a.m, a.n))
        compose(FLOATING, erasure(2)), trace(identity(2), 1)
        assert calls == []


class TestRenumberedAsReference:
    """``renumbered`` gives the wiring ``reference_renumbered`` gives, or
    both refuse a port with two drivers."""

    @staticmethod
    def cases(net: Net, rng: random.Random) -> Iterable[tuple[list[tuple[int, int]], set[int]]]:
        w = net.wiring
        ports, ops = range(len(w.driver)), range(len(w.ops))
        undriven = [p for p in ports if w.driver[p] is None]  # floating ones too
        yield [], set()
        for _ in range(6):
            drop = set(rng.sample(ops, rng.randint(0, len(ops))))
            orphanable = [p for x in drop for p in w.ops[x][1] + w.ops[x][2]] or [*ports]
            linked = rng.sample(undriven, min(len(undriven), rng.randint(0, 4)))
            if ports and rng.random() < 0.5:
                linked.append(rng.choice(ports))  # so the chain holds at most one driver
            glue = [*zip(linked, linked[1:])]
            if orphanable and rng.random() < 0.5:
                glue += [(rng.choice(orphanable), rng.choice(orphanable))]
            if ports and rng.random() < 0.25:
                glue += [(rng.choice(ports), rng.choice(ports))]
            rng.shuffle(glue)
            yield glue, drop
        if len(ops) >= 2:  # one sharing step: glue the outputs of y to x's, drop y
            x, y = rng.sample(ops, 2)
            yield [*zip(w.ops[x][2], w.ops[y][2])], {y}

    @staticmethod
    def assert_as_reference(net: Net, glue: list[tuple[int, int]], drop: set[int]) -> bool:
        """Whether the rebuilt net exists, once both sides agree on it."""
        try:
            expected = reference_renumbered(net, glue=glue, drop=drop)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="two drivers"):
                renumbered(net, glue=glue, drop=drop)
            return False
        assert renumbered(net, glue=glue, drop=drop).wiring == expected.wiring
        return True

    def test_random_glue_and_drop(self):
        from test_golden import sparse
        rng = random.Random(14)
        built = raised = 0
        for _ in range(400):
            net = gen_net(rng, STD_SIG, rng.randint(0, 3), rng.randint(0, 3),
                          max_ops=rng.choice((0, 2, 4, 8, 16)))
            sp = sparse(net, rng)  # ports at 3p+1 or 3p+2; port 0 floats
            for case in (net, Net(sp.m, sp.n, sp.ports | {0}, sp.labels, sp.src, sp.tgt),
                         FLOATING):
                for glue, drop in self.cases(case, rng):
                    if self.assert_as_reference(case, glue, drop):
                        built += 1
                    else:
                        raised += 1
        assert built > 5000 and raised > 500, (built, raised)

    def test_glued_floating_and_orphaned_ports(self):
        # x reads a and drives b, which nothing reads; y reads c and drives
        # d, the output; e floats.  Dropping x orphans a and b: a class of
        # them goes unless it holds c, which y reads, or e, which was
        # referenced by nothing before either.
        net = parse_document("sig f 1 1\nnet n : 0 -> 1\n  ports a b c d e\n"
                             "  op x f (a) -> (b)\n  op y f (c) -> (d)\n  out d\n").net("n")
        for glue in ([], [(1, 0)], [(0, 2)], [(1, 0), (0, 2)], [(1, 4)], [(0, 4), (1, 4)],
                     [(0, 2), (1, 4)]):
            assert self.assert_as_reference(net, glue, {0})
        assert renumbered(net, drop={0}).wiring.ops == (("f", (0,), (1,)),)
        assert renumbered(net, glue=[(1, 4)], drop={0}).wiring.ops == (("f", (1,), (2,)),)


class TestOperationProperties:
    def test_random_construction_results_validate(self):
        for seed in range(120):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG))
            assert validate(net, STD_SIG).ok, f"seed {seed}"

    def test_unreferenced_ports_survive_composition(self):
        # a declared-but-unwired port is user data, not construction garbage
        net = Net(1, 1, frozenset({0, 5}), {}, {0: 0}, {0: 0})
        out = compose(identity(1), net)
        assert len(out.ports) == 2
        assert find_iso(out, net)


class TestIsoIsEquivalence:
    def nets(self):
        return [gen_random_net(GenParams(seed=s, signature=STD_SIG)) for s in range(12)]

    def test_reflexive(self):
        for net in self.nets():
            w = find_iso(net, net)
            assert w is not None and w.verify(net, net)

    def test_symmetric_by_inversion(self):
        for net in self.nets():
            other = compose(identity(net.m), net)  # a relabeled variant
            w = find_iso(net, other)
            assert w is not None
            assert w.inverse().verify(other, net)

    def test_transitive_by_composition(self):
        for net in self.nets():
            a = compose(identity(net.m), net)
            b = compose(net, identity(net.n))
            w1 = find_iso(net, a)
            w2 = find_iso(a, b)
            assert w1 and w2
            assert w1.then(w2).verify(net, b)


class TestWiring:
    def test_recorded_view_matches_the_slot_dicts(self):
        # A construction records its result's view; grouping the same slot
        # dicts afresh must give the same one.
        for seed in range(80):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
            recorded = net.wiring
            grouped = Net(net.m, net.n, net.ports, net.labels, net.src, net.tgt).wiring
            assert recorded[:5] == grouped[:5]
            assert tuple(recorded.op_ids) == grouped.op_ids == tuple(range(len(net.labels)))
            assert tuple(recorded.port_ids) == grouped.port_ids == tuple(range(len(net.ports)))

    def test_sparse_ids_go_by_rank(self):
        net = Net(1, 1, {2, 7, 9}, {4: "beta"}, {(4, 0): 2, 0: 7}, {(4, 0): 7, (4, 1): 9, 0: 2})
        w = net.wiring
        assert w.ops == (("beta", (0,), (1, 2)),)
        assert (w.inputs, w.outputs, w.op_ids, w.port_ids) == ((0,), (1,), (4,), (2, 7, 9))
        assert w.driver == (0, (0, 0), (0, 1))
        assert w.readers == (((0, 0),), (0,), ())
        assert (net.op_inputs(4), net.op_outputs(4), net.op_arity(4), net.op_coarity(4)) == (
            (2,), (7, 9), 1, 2)

    def test_sparse_operator_lookups(self):
        # A chain of scale operators with ids 7, 14, 21, ... and ports 0, 3, 6, ...
        k = 50
        net = Net(1, 1, {3 * p for p in range(k + 1)}, {7 * x: "scale" for x in range(1, k + 1)},
                  {**{(7 * x, 0): 3 * (x - 1) for x in range(1, k + 1)}, 0: 3 * k},
                  {**{(7 * x, 0): 3 * x for x in range(1, k + 1)}, 0: 0})
        w = net.wiring
        for x in range(1, k + 1):
            assert w.op_rank(7 * x) == x - 1
            assert (net.op_inputs(7 * x), net.op_outputs(7 * x)) == ((3 * x - 3,), (3 * x,))
        # Ids 0, 1, 5: the first two sit at their own rank, the last does not.
        net = Net(1, 1, {0, 1, 2, 3}, {0: "scale", 1: "scale", 5: "scale"},
                  {(0, 0): 0, (1, 0): 1, (5, 0): 2, 0: 3}, {(0, 0): 1, (1, 0): 2, (5, 0): 3, 0: 0})
        assert [net.wiring.op_rank(x) for x in (0, 1, 5)] == [0, 1, 2]
        assert [net.op_inputs(x) for x in (0, 1, 5)] == [(0,), (1,), (2,)]
        with pytest.raises(ValueError):
            net.op_inputs(2)

    def test_unknown_operator_id(self):
        net = Net(1, 1, {2, 7, 9}, {4: "beta"}, {(4, 0): 2, 0: 7}, {(4, 0): 7, (4, 1): 9, 0: 2})
        dense = identity(1)
        for x in (0, 3, 5, 100):
            for query in (net.op_inputs, net.op_outputs, net.wiring.op_rank, dense.op_inputs):
                with pytest.raises(ValueError):
                    query(x)

    def test_validate_does_not_build_the_view(self):
        net = Net(1, 1, {0}, {0: "scale"}, {(0, 1): 0, 0: 0}, {0: 0})  # slot gap
        assert not validate(net, STD_SIG).ok
        assert "wiring" not in vars(net)

    def test_constructions_hold_only_their_wiring(self):
        nets = [gen_random_net(GenParams(seed=seed, signature=STD_SIG)) for seed in range(40)]
        results = nets + [compose(generator(STD_SIG, "iota"), duplication(1))]
        for a, b in zip(nets, nets[1:]):
            results += [tensor(a, b), compose(a, identity(a.n))]
            if a.n == b.m:
                results.append(compose(a, b))
            if a.m and a.n:
                results.append(trace(a, 1))
        for net in results:
            assert SLOT_DICTS.isdisjoint(vars(net)), net

    def test_slot_dicts_are_built_once_on_first_read(self):
        net = compose(generator(STD_SIG, "beta"), symmetry(1, 1))
        assert net.src is net.src and net.tgt is net.tgt
        assert net.labels == {0: "beta"} and net.ports == {0, 1, 2, 3}
        assert SLOT_DICTS <= vars(net).keys()
        assert Net(net.m, net.n, net.ports, net.labels, net.src, net.tgt).wiring[:5] == net.wiring[:5]

    def test_a_port_with_two_drivers_is_never_built(self):
        for ops, inputs in ([(("iota", (0,), (1,)), ("iota", (0,), (1,))), (0,)],
                            [(("iota", (1,), (0,)),), (0,)],
                            [(("beta", (0,), (1, 1)),), (0,)],
                            [(), (0, 0)]):
            with pytest.raises(RuntimeError, match="two drivers"):
                _dense(ops, inputs, (0,), 2)

    def test_nets_are_immutable(self):
        hand_built = Net(1, 1, {0}, {}, {0: 0}, {0: 0})
        for net in (identity(1), hand_built):
            for name in ("m", "ports", "src", "wiring"):
                with pytest.raises(FrozenInstanceError):
                    setattr(net, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(net, name)
