"""Discrete stream semantics: builtins, fixpoint evaluation, functoriality."""

import math
import os
import random
from itertools import accumulate, count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahnets import (ArityMismatch, CtFn, GenParams, Interpretation,
                     MissingBinding, MonotonicityViolation, Net, SamplingPeriod,
                     Signature, StreamFn, as_stream_fn, check_functoriality, compose,
                     const_source, denote, denote_it, duplication, eps_fn,
                     find_iso, gen_random_net, generator, identity, iota_fn,
                     is_prefix, minus_fn, normalize, parse_document, plus_fn,
                     sample, scale_fn, tensor, trace, trace_fn)
from kahnets.stdnets import KINDS, STD_SIG, build, it_interpretation, std_interpretation
from test_iso import permute_ports

INTERP = std_interpretation(scale=2.0, divc=2.0)

streams = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(
    lambda xs: tuple(float(v) for v in xs))


class TestBuiltins:
    def test_plus_truncates_to_shortest(self):
        assert plus_fn(((1.0, 2.0, 3.0), (10.0, 20.0)))[0] == (11.0, 22.0)

    def test_minus(self):
        assert minus_fn(((5.0, 5.0), (1.0, 2.0)))[0] == (4.0, 3.0)

    def test_iota_prepends_zero(self):
        assert iota_fn(((5.0,),))[0] == (0.0, 5.0)
        assert iota_fn(((),))[0] == (0.0,)

    def test_eps_drops_first(self):
        assert eps_fn(((1.0, 2.0, 3.0),))[0] == (2.0, 3.0)
        assert eps_fn(((),))[0] == ()

    def test_scale(self):
        assert scale_fn(0.5)(((4.0, 8.0),))[0] == (2.0, 4.0)

    def test_const_grows_with_demand(self):
        src = const_source(7.0)
        assert src((), limit=1)[0] == (7.0,)
        assert src((), limit=3)[0] == (7.0, 7.0, 7.0)
        net, interp = generator(Signature({"k": (0, 1)}), "k"), Interpretation({"k": src})
        for budget, max_len, want in ((3, None, (3, 3, False)), (5, 2, (2, 3, True))):
            (out,), stats = denote(net, interp, [], budget, max_len=max_len, return_stats=True)
            assert (len(out), stats.sweeps, stats.reached_fixpoint) == want
            assert set(out) == {7.0}

    @given(streams, streams, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_contract(self, a, b, extend):
        # extending an input prefix must extend (never retract) every output
        bigger = a + tuple(float(v) for v in range(extend))
        for fn, args_small, args_big in [
            (plus_fn, (a, b), (bigger, b)),
            (minus_fn, (b, a), (b, bigger)),
            (iota_fn, (a,), (bigger,)),
            (eps_fn, (a,), (bigger,)),
            (scale_fn(3.0), (a,), (bigger,)),
        ]:
            small_out = fn(args_small)
            big_out = fn(args_big)
            for s, t in zip(small_out, big_out):
                assert is_prefix(s, t)


class TestDenote:
    def test_running_sum_example(self):
        out = denote(build("running_sum"), INTERP, [(1, 2, 3)], budget=20)
        assert out == ((1.0, 3.0, 6.0),)

    def test_running_sum_against_prefix_sum_oracle(self):
        rng = random.Random(9)
        xs = [float(rng.randint(-50, 50)) for _ in range(100)]
        out = denote(build("running_sum"), INTERP, [xs], budget=150)
        assert list(out[0]) == list(accumulate(xs))

    def test_iota_generator(self):
        out = denote(generator(STD_SIG, "iota"), INTERP, [(5,)], budget=5)
        assert out == ((0.0, 5.0),)

    def test_constant_net_budget_truncation(self):
        for budget in (1, 4, 10):
            out = denote(build("constant"), INTERP, [], budget=budget)
            assert out == ((0.0,) * budget,)

    def test_undriven_port_denotes_bottom(self):
        from kahnets.nets import Net
        net = Net(0, 1, frozenset({0}), {}, {0: 0}, {})
        assert denote(net, INTERP, [], budget=3) == ((),)

    def test_net_without_operators_reaches_its_fixpoint_at_budget_zero(self):
        out, stats = denote(identity(1), INTERP, [(1.0, 2.0)], 0, return_stats=True)
        assert (out, stats.sweeps, stats.reached_fixpoint) == (((1.0, 2.0),), 0, True)

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            denote(generator(STD_SIG, "alpha"), Interpretation({}), [(1,), (2,)], budget=2)

    def test_input_arity_checked(self):
        with pytest.raises(ArityMismatch):
            denote(identity(2), INTERP, [(1,)], budget=2)

    def test_negative_window_is_refused(self):
        for net in (identity(1), build("running_sum")):
            with pytest.raises(ValueError):
                denote(net, INTERP, [(1, 2, 3)], 5, max_len=-1)

    def test_negative_budget_is_refused(self):
        for net in (identity(1), build("running_sum")):
            with pytest.raises(ValueError, match="negative budget: -3"):
                denote(net, INTERP, [(1, 2, 3)], -3, return_stats=True)

    def test_binding_arity_checked(self):
        bad = Interpretation({"iota": plus_fn})
        with pytest.raises(ArityMismatch):
            denote(generator(STD_SIG, "iota"), bad, [(1,)], budget=2)

    def test_retracting_interpretation_is_caught(self):
        shrink = StreamFn(1, 1, lambda ss, limit: (ss[0][:1],) if limit == 1 else ((),))
        with pytest.raises(MonotonicityViolation):
            denote(generator(STD_SIG, "iota"), Interpretation({"iota": shrink}),
                   [(1.0, 2.0)], budget=3)

    def test_step_with_the_wrong_stream_count_is_caught(self):
        twice = StreamFn(1, 1, iota_fn.fn, "twice", step=lambda ss, have, limit: ((0.0,), (0.0,)))
        with pytest.raises(ArityMismatch) as err:
            denote(generator(STD_SIG, "iota"), Interpretation({"iota": twice}), [(1.0,)], budget=3)
        assert err.value.message == "twice stepped 2 streams, declared 1"

    def test_sweep_lengths_form_a_chain(self):
        out, stats = denote(build("running_sum"), INTERP, [(1, 2, 3, 4)], budget=30,
                            return_stats=True)
        assert stats.reached_fixpoint
        diffs = [b - a for a, b in zip(stats.total_lengths, stats.total_lengths[1:])]
        assert all(d >= 0 for d in diffs)
        # strictly increasing until the final (fixpoint-detecting) sweep
        assert all(d > 0 for d in diffs[:-1])

    @given(streams, st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_inputs(self, xs, extra):
        longer = xs + tuple(float(v) for v in range(extra))
        small = denote(build("running_sum"), INTERP, [xs], budget=30)
        big = denote(build("running_sum"), INTERP, [longer], budget=30)
        assert is_prefix(small[0], big[0])


class TestTraceFn:
    def test_semantic_yanking(self):
        swap = StreamFn(2, 2, lambda ss, limit: (ss[1], ss[0]), name="swap")
        traced = trace_fn(swap, 1, budget=10)
        assert traced(((1.0, 2.0, 3.0),)) == ((1.0, 2.0, 3.0),)

    def test_ignoring_feedback_is_plain_application(self):
        f = StreamFn(2, 2, lambda ss, limit: (ss[0], (0.0,)), name="drop")
        traced = trace_fn(f, 1, budget=5)
        assert traced(((7.0, 8.0),)) == ((7.0, 8.0),)

    def test_integration_body_matches_net_semantics(self):
        # the loop body of the integration net, run through the semantic trace
        body = compose(tensor(generator(STD_SIG, "scale"), generator(STD_SIG, "iota")),
                       compose(generator(STD_SIG, "plus"), duplication(1)))
        lhs = trace_fn(as_stream_fn(body, INTERP, budget=40), 1, budget=40)(((1.0, 2.0, 3.0),))
        rhs = denote(build("integration"), INTERP, [(1.0, 2.0, 3.0)], budget=40)
        assert lhs == rhs

    def test_arity_guard(self):
        for x in (2, -1):
            with pytest.raises(ArityMismatch):
                trace_fn(plus_fn, x, budget=3)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="negative budget: -1"):
            trace_fn(plus_fn, 1, budget=-1)

    def test_stream_counts_are_checked_in_and_out(self):
        half = StreamFn(1, 2, lambda ss, limit: (ss[0],), name="half")
        with pytest.raises(ArityMismatch) as err:
            half(((1.0,), (2.0,)))
        assert err.value.message == "half takes 1 streams, got 2"
        with pytest.raises(ArityMismatch) as err:
            half(((1.0,),))
        assert err.value.message == "half returned 1 streams, declared 2"

    def test_retracting_body_is_caught(self):
        """The fed-back stream grows to ``(1.0,)`` and then shrinks to ``()``."""
        flip = StreamFn(1, 1, lambda ss, limit: ((),) if ss[0] else ((1.0,),), name="flip")
        with pytest.raises(MonotonicityViolation) as err:
            trace_fn(flip, 1, budget=5)(())
        assert err.value.message == "traced stream function retracted a prefix"


class TestFunctoriality:
    def test_iota_composed_twice(self):
        g = generator(STD_SIG, "iota")
        result = check_functoriality(g, g, INTERP, [[(7.0,)]], budget=10)
        assert result.ok
        assert denote(compose(g, g), INTERP, [(7,)], budget=10) == ((0.0, 0.0, 7.0),)

    def test_tensor_of_scalers(self):
        g = generator(STD_SIG, "scale")
        lhs = denote(tensor(g, g), INTERP, [(1,), (2,)], budget=5)
        assert lhs == ((2.0,), (4.0,))
        result = check_functoriality(g, g, INTERP, [[(1.0,), (2.0,)]], budget=5)
        assert result.ok

    def test_trace_agrees_on_integration_net(self):
        body = compose(tensor(generator(STD_SIG, "scale"), generator(STD_SIG, "iota")),
                       compose(generator(STD_SIG, "plus"), duplication(1)))
        lhs = denote(trace(body, 1), INTERP, [(1.0, 5.0)], budget=30)
        rhs = trace_fn(as_stream_fn(body, INTERP, budget=30), 1, budget=30)(((1.0, 5.0),))
        assert lhs == rhs

    def test_random_nets(self):
        rng = random.Random(4)
        for seed in range(25):
            m_net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=4))
            n_net = gen_random_net(GenParams(seed=seed + 500, signature=STD_SIG, max_operators=4))
            pool = [tuple(float(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5)))
                    for _ in range(6)]
            result = check_functoriality(m_net, n_net, INTERP, [pool], budget=40)
            assert result.ok, (seed, result.records)


def windowed(net: Net, ins, window: int = 40, interp: Interpretation = INTERP):
    """The outputs cut to ``window`` elements, with the sweep budget
    ``denote_it`` gives a window: enough for every loop to fill it."""
    return denote(net, interp, ins, budget=window + len(net.wiring.driver) + 2, max_len=window)


SHARED_DELAY = """sig iota 1 1
net main : 0 -> 1
  ports p0 p1
  op x iota (p1) -> (p0)
  op y iota (p1) -> (p1)
  out p0
"""


class TestRewriteRespectsSemantics:
    def test_normalize_preserves_denotation(self):
        rng = random.Random(13)
        for seed in range(40):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=6))
            ins = [tuple(float(rng.randint(-4, 4)) for _ in range(4)) for _ in range(net.m)]
            assert windowed(net, ins) == windowed(normalize(net).net, ins), f"seed {seed}"

    def test_budgeted_prefix_of_a_loop_is_not_invariant_under_sharing(self):
        """Counterexample: a delay fed back on itself, read by a second delay
        of the same port.  Sharing merges the two delays into one loop.  Both
        least fixpoints are the zero stream, but 40 sweeps give the loop 40
        elements and the delay after it 41, while the shared loop has 40.
        The prefixes are compatible, and cut to a window they are equal."""
        net = parse_document(SHARED_DELAY).net("main")
        shared = normalize(net).net
        assert len(shared.labels) == 1
        (long,), (short,) = denote(net, INTERP, [], budget=40), denote(shared, INTERP, [], budget=40)
        assert (len(long), len(short)) == (41, 40) and is_prefix(short, long)
        assert windowed(net, []) == windowed(shared, []) == ((0.0,) * 40,)

    def test_denotation_invariant_under_isomorphism(self):
        rng = random.Random(14)
        for seed in range(20):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=5))
            other = permute_ports(net, seed)
            assert find_iso(net, other) is not None
            ins = [tuple(float(rng.randint(-4, 4)) for _ in range(3)) for _ in range(net.m)]
            assert denote(net, INTERP, ins, budget=30) == denote(other, INTERP, ins, budget=30)


def renumber(net: Net, rng: random.Random) -> Net:
    """The same net with operators and ports renamed to shuffled, sparse ids."""
    op_ids = rng.sample(range(3 * len(net.labels) + 1), len(net.labels))
    port_ids = rng.sample(range(3 * len(net.ports) + 1), len(net.ports))
    ops = dict(zip(sorted(net.labels), op_ids))
    ports = dict(zip(sorted(net.ports), port_ids))

    def slot(s):
        return (ops[s[0]], s[1]) if isinstance(s, tuple) else s

    return Net(net.m, net.n, frozenset(ports.values()),
               {ops[x]: lab for x, lab in net.labels.items()},
               {slot(s): ports[p] for s, p in net.src.items()},
               {slot(s): ports[p] for s, p in net.tgt.items()})


def has_loop(net: Net) -> bool:
    """Whether some operator reads, through other operators, its own output."""
    driver = {p: s[0] for s, p in net.tgt.items() if isinstance(s, tuple)}
    preds = {x: {driver[p] for p in net.op_inputs(x) if p in driver} for x in net.operators}
    while preds:
        free = [x for x, ps in preds.items() if not ps & preds.keys()]
        if not free:
            return True
        for x in free:
            del preds[x]
    return False


def loop_nets(how_many: int) -> list[Net]:
    """The first ``how_many`` random nets, by seed, that contain a loop."""
    nets = (gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
            for seed in count())
    return list(islice(filter(has_loop, nets), how_many))


def roundtrip(name: str) -> Net:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "integration_roundtrip.net")
    with open(path) as handle:
        return parse_document(handle.read()).net(name)


class TestNumberingIndependence:
    def test_loop_listed_against_data_flow_fills_the_window(self):
        p = SamplingPeriod(1e-2, 2.05)
        ins = [sample(CtFn(math.sin, "continuous"), p)]
        against = denote_it(roundtrip("against"), it_interpretation(1e-2), ins, p)
        flow = denote_it(roundtrip("flow"), it_interpretation(1e-2), ins, p)
        assert len(against[0]) == p.horizon == 205
        assert against[0].values == flow[0].values

    def test_renumbering_changes_neither_outputs_nor_sweeps(self):
        rng = random.Random(31)
        nets = [build(kind) for kind in KINDS] + loop_nets(40)
        for index, net in enumerate(nets):
            ins = [tuple(float(rng.randint(-4, 4)) for _ in range(rng.randint(0, 8)))
                   for _ in range(net.m)]
            for budget in (0, 1, 3, 40):
                want = denote(net, INTERP, ins, budget, return_stats=True)
                for _ in range(3):
                    got = denote(renumber(net, rng), INTERP, ins, budget, return_stats=True)
                    assert got == want, (index, budget)

    def test_long_loop_in_either_listing_order(self):
        # iota feeding a chain of 1000 scale operators back into itself: the
        # component search must not recurse once per operator
        size = 1000
        src = {(x, 0): x - 1 for x in range(1, size + 1)}
        src.update({(0, 0): size, 0: size})
        tgt = {(x, 0): x for x in range(size + 1)}
        labels = {0: "iota", **{x: "scale" for x in range(1, size + 1)}}
        net = Net(0, 1, frozenset(range(size + 1)), labels, src, tgt)
        for candidate in (net, renumber(net, random.Random(5))):
            out, stats = denote(candidate, INTERP, [], budget=3, return_stats=True)
            assert out == ((0.0, 0.0, 0.0),)
            assert (stats.sweeps, stats.reached_fixpoint) == (3, False)


def strip_steps(interp: Interpretation) -> Interpretation:
    """The same bindings without their incremental steps, as a wrapper that
    rebuilds each function from ``fn`` alone leaves them."""
    return Interpretation({name: StreamFn(f.ins, f.outs, f.fn, f.name)
                           for name, f in interp.bindings.items()})


class TestIncrementalMatchesWholePrefix:
    def test_fixtures_and_random_nets(self):
        rng = random.Random(47)
        with_source = Signature({**STD_SIG.symbols, "src": (0, 1)})
        nets = [build(kind) for kind in KINDS] + [
            gen_random_net(GenParams(seed=seed, signature=sig, max_operators=8))
            for sig in (STD_SIG, with_source) for seed in range(60)]
        assert any(has_loop(net) for net in nets)
        assert any("beta" in net.labels.values() for net in nets)
        assert any("src" in net.labels.values() for net in nets)
        assert any(net.ports - net.driven_ports() - {net.tgt[k] for k in range(net.m)}
                   for net in nets)
        for interp in (std_interpretation(), it_interpretation(0.5)):
            interp = Interpretation({**interp.bindings, "src": const_source(3.0)})
            generic = strip_steps(interp)
            for index, net in enumerate(nets):
                ins = [tuple(float(rng.randint(-4, 4)) for _ in range(rng.randint(0, 12)))
                       for _ in range(net.m)]
                for budget in (0, 1, 2, 5, 40):
                    for max_len in (None, 7):
                        fast = denote(net, interp, ins, budget, max_len=max_len,
                                      return_stats=True)
                        slow = denote(net, generic, ins, budget, max_len=max_len,
                                      return_stats=True)
                        assert fast == slow, (index, budget, max_len)

    def test_declared_steps_extend_their_whole_prefix_function(self):
        streams = ((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0))
        for f, args in [(plus_fn, streams), (iota_fn, streams[:1]), (eps_fn, streams[:1]),
                        (scale_fn(2.0), streams[:1]), (INTERP["beta"], streams),
                        (const_source(7.0), ())]:
            whole = f(args, limit=4)
            for cut in range(5):
                have = tuple(min(cut, len(w)) for w in whole)
                tail = f.step(args, have, 4)
                assert tuple(w[:h] + tuple(t) for w, h, t in zip(whole, have, tail)) == whole
