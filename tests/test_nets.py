"""Core net IR: validation, constructions, and their categorical equations."""

import pytest

from kahnets import (ArityMismatch, ArityTooSmall, GenParams, Net, UnknownKind,
                     UnknownSymbol, compose, duplication, erasure, find_iso,
                     gen_random_net, generator, identity, projection,
                     structural, symmetry, tensor, trace, validate)
from kahnets.stdnets import STD_SIG, build


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

    def test_validate_does_not_build_the_view(self):
        net = Net(1, 1, {0}, {0: "scale"}, {(0, 1): 0, 0: 0}, {0: 0})  # slot gap
        assert not validate(net, STD_SIG).ok
        assert "wiring" not in vars(net)
