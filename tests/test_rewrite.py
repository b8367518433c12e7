"""Sharing/erasing rewriting: redexes, steps, normal forms, confluence."""

import random
from itertools import combinations_with_replacement, islice, product

import pytest
from test_golden import sparse
from test_kahn import windowed

from kahnets import (ArityMismatch, GenParams, Net, Redex, StaleRedex,
                     apply_redex, compose, duplication, erasure, find_iso,
                     gen_random_net, generator, identity, is_shared, normalize,
                     projection, redexes, rewrite, se_equivalent, symmetry, tensor, trace)
from kahnets.nets import _dense, renumbered
from kahnets.stdnets import STD_SIG, build


def two_alpha_fanout() -> Net:
    """1 -> 2: the input fans out into two alpha operators with equal inputs."""
    return Net(1, 2, frozenset({0, 1, 2}), {0: "alpha", 1: "alpha"},
               {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0, 0: 1, 1: 2},
               {(0, 0): 1, (1, 0): 2, 0: 0})


def shared_alpha_fanout() -> Net:
    """1 -> 2: one alpha, its output read by both boundary outputs."""
    return Net(1, 2, frozenset({0, 1}), {0: "alpha"},
               {(0, 0): 0, (0, 1): 0, 0: 1, 1: 1},
               {(0, 0): 1, 0: 0})


def scale_fanout(k: int) -> Net:
    """1 -> k: the input fans out into k scale operators, one per output."""
    return Net(1, k, frozenset(range(k + 1)), dict.fromkeys(range(k), "scale"),
               {**{(x, 0): 0 for x in range(k)}, **{x: x + 1 for x in range(k)}},
               {**{(x, 0): x + 1 for x in range(k)}, 0: 0})


def dead_alpha() -> Net:
    """1 -> 0: one alpha whose output nothing reads."""
    return Net(1, 0, frozenset({0, 1}), {0: "alpha"},
               {(0, 0): 0, (0, 1): 0}, {(0, 0): 1, 0: 0})


class TestRedexes:
    def test_sharing_redex_found(self):
        rs = redexes(two_alpha_fanout())
        assert rs == [Redex.sharing(0, 1)]

    def test_identity_has_no_redexes(self):
        assert redexes(identity(3)) == []

    def test_erasing_redex_found(self):
        rs = redexes(dead_alpha())
        assert rs == [Redex.erasing(0)]

    def test_paper_example_is_redex_free(self):
        assert redexes(build("paper_example")) == []

    def test_zero_coarity_operator_is_always_erasable(self):
        sig_net = Net(1, 0, frozenset({0}), {0: "sink"}, {(0, 0): 0}, {0: 0})
        assert redexes(sig_net) == [Redex.erasing(0)]

    def test_nullary_constants_share(self):
        # two operators with no inputs trivially have the same inputs
        net = Net(0, 2, frozenset({0, 1}), {0: "k", 1: "k"},
                  {0: 0, 1: 1}, {(0, 0): 0, (1, 0): 1})
        assert Redex.sharing(0, 1) in redexes(net)


class TestApply:
    def test_sharing_matches_displayed_inequality(self):
        lhs = two_alpha_fanout()        # duplicate, then apply alpha twice
        rhs = shared_alpha_fanout()     # apply alpha once, then duplicate
        assert find_iso(lhs, rhs) is None  # genuinely different raw nets
        stepped = apply_redex(lhs, Redex.sharing(0, 1))
        assert find_iso(stepped, rhs) is not None

    def test_erasing_yields_erasure(self):
        stepped = apply_redex(dead_alpha(), Redex.erasing(0))
        assert find_iso(stepped, erasure(1)) is not None

    def test_operator_count_drops_by_one(self):
        net = two_alpha_fanout()
        assert len(apply_redex(net, redexes(net)[0]).labels) == len(net.labels) - 1

    def test_stale_redex_rejected(self):
        net = two_alpha_fanout()
        stepped = apply_redex(net, Redex.sharing(0, 1))
        with pytest.raises(StaleRedex):
            apply_redex(stepped, Redex.sharing(0, 1))
        with pytest.raises(StaleRedex):
            apply_redex(net, Redex.erasing(0))


class TestNormalize:
    def test_paper_example_already_normal(self):
        shared = normalize(build("paper_example"))
        assert shared.steps == 0
        assert find_iso(shared.net, build("paper_example")) is not None

    def test_fanout_gets_shared(self):
        shared = normalize(two_alpha_fanout())
        assert len(shared.net.labels) == 1
        assert find_iso(shared.net, shared_alpha_fanout()) is not None

    def test_dead_code_is_swept(self):
        net = tensor(build("paper_example"), dead_alpha())
        shared = normalize(net)
        assert find_iso(shared.net, tensor(build("paper_example"), erasure(1))) is not None

    def test_sharing_cascades(self):
        # two parallel alpha->iota chains fed the same fanned-out inputs:
        # sharing the alphas makes the iotas shareable too
        chain = compose(generator(STD_SIG, "alpha"), generator(STD_SIG, "iota"))
        net = compose(duplication(2), tensor(chain, chain))
        assert len(net.labels) == 4
        shared = normalize(net)
        assert len(shared.net.labels) == 2

    def test_normal_form_characterization(self):
        for seed in range(150):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG))
            assert is_shared(net) == (not redexes(net)), f"seed {seed}"
            nf = normalize(net).net
            assert is_shared(nf) and not redexes(nf)

    def test_termination_bound(self):
        for seed in range(100):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
            shared = normalize(net, rng=random.Random(seed))
            assert shared.steps <= len(net.labels)
            assert shared.steps == len(net.labels) - len(shared.net.labels)

    def test_confluence_on_random_strategies(self):
        for seed in range(120):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
            a = normalize(net, rng=random.Random(2 * seed))
            b = normalize(net, rng=random.Random(2 * seed + 1))
            assert find_iso(a.net, b.net) is not None, f"seed {seed}"


class TestSeEquivalence:
    def test_displayed_inequality_sides_equivalent(self):
        assert se_equivalent(two_alpha_fanout(), shared_alpha_fanout())

    def test_identity_vs_duplicate_then_project(self):
        net = compose(duplication(1), projection(1, 1))
        assert se_equivalent(net, identity(1))

    def test_identity_vs_symmetry_not_equivalent(self):
        assert not se_equivalent(identity(2), symmetry(1, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            se_equivalent(identity(1), identity(2))


class TestQuotientLimits:
    """The rewrite quotient is too coarse to merge these, though each pair
    denotes alike; pinned on purpose."""

    def test_duplicated_bottom_sources_do_not_share(self):
        bottom = trace(duplication(1), 1)  # 0 -> 1, a producer-less port
        lhs = compose(bottom, duplication(1))
        rhs = tensor(bottom, bottom)
        assert not se_equivalent(lhs, rhs)
        assert windowed(lhs, []) == windowed(rhs, []) == ((), ())

    def test_duplicated_feedback_loops_do_not_share(self):
        cst = build("constant")
        lhs = compose(cst, duplication(1))
        rhs = tensor(cst, cst)
        assert not se_equivalent(lhs, rhs)
        assert windowed(lhs, []) == windowed(rhs, []) == ((0.0,) * 40,) * 2

    def test_dead_loops_are_not_collected(self):
        looped_away = compose(build("constant"), erasure(1))  # 0 -> 0 with a live loop
        assert not se_equivalent(looped_away, identity(0))
        assert windowed(looped_away, []) == windowed(identity(0), []) == ()

    def test_ring_of_delays_is_not_one_delay_loop(self):
        # Two iotas feeding each other and one iota feeding itself, each read
        # by the output, are bisimilar: the gap between fixpoint and
        # iteration theories that sharing and erasing cannot close.
        ring = Net(0, 1, frozenset({0, 1}), {0: "iota", 1: "iota"},
                   {(0, 0): 1, (1, 0): 0, 0: 0}, {(0, 0): 0, (1, 0): 1})
        loop = Net(0, 1, frozenset({0}), {0: "iota"}, {(0, 0): 0, 0: 0}, {(0, 0): 0})
        assert not se_equivalent(ring, loop)
        assert len(normalize(ring).net.labels) == 2
        assert windowed(ring, []) == windowed(loop, []) == ((0.0,) * 40,)


SYMBOLS = {**STD_SIG.symbols, "k": (0, 1), "sink": (1, 0)}


def crowded_net(rng: random.Random, size: int) -> Net:
    """A random net of ``size`` operators, half of whose inputs read the few
    boundary and undriven ports, so that sharing cascades and erasing both
    fire; the other inputs read any port, which makes loops and fan-out."""
    m = rng.randint(0, 2)
    ports = m + 1  # the boundary inputs and one undriven port
    labels = {x: rng.choice(sorted(SYMBOLS)) for x in range(size)}
    tgt: dict = dict(enumerate(range(m)))
    for x, label in labels.items():
        for j in range(SYMBOLS[label][1]):
            tgt[x, j] = ports
            ports += 1

    def port() -> int:
        return rng.randrange(m + 1) if rng.random() < 0.5 else rng.randrange(ports)

    n = rng.randint(0, 3)
    src: dict = {(x, i): port() for x, label in labels.items() for i in range(SYMBOLS[label][0])}
    src.update((k, port()) for k in range(n))
    return Net(m, n, frozenset(range(ports)), labels, src, tgt)


def small_step(net: Net) -> tuple[Net, int]:
    """The deterministic small-step strategy: the first redex each time."""
    steps = 0
    while rs := redexes(net):
        net = apply_redex(net, rs[0])
        steps += 1
    return renumbered(net), steps


class TestWorklistNormalize:
    """The one-pass normaliser gives what the small-step strategy gives."""

    @staticmethod
    def assert_as_small_step(net: Net) -> None:
        shared = normalize(net)
        ref, steps = small_step(net)
        assert ((shared.net.m, shared.net.n, shared.net.ports, shared.net.labels,
                 shared.net.src, shared.net.tgt, shared.steps)
                == (ref.m, ref.n, ref.ports, ref.labels, ref.src, ref.tgt, steps))

    def test_random_nets_and_their_duplicates(self):
        rng = random.Random(11)
        for size in (6, 12, 24):
            for seed in range(25):
                for f in (gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=size)),
                          crowded_net(random.Random(seed), size)):
                    for net in (f, compose(duplication(f.m), tensor(f, f))):
                        self.assert_as_small_step(net)
                        self.assert_as_small_step(sparse(net, rng))

    def test_class_absorbed_by_one_with_more_readers(self):
        # Three scales share (operators 0, 1 and 7; operator x drives port
        # x + 1): the classes of 0 and 1 merge first, and that class later
        # merges into the class of 7, which has more readers.  The iota that
        # read the class of 1 must then be keyed again to meet the iota of 7.
        labels = dict(enumerate(["scale", "scale", "eps", "iota", "iota", "eps", "divc", "scale"]))
        reads = [0, 0, 1, 2, 8, 8, 8, 0]
        net = Net(1, 5, frozenset(range(9)), labels,
                  {**{(x, 0): p for x, p in enumerate(reads)}, **{k: 3 + k for k in range(5)}},
                  {**{(x, 0): x + 1 for x in range(8)}, 0: 0})
        self.assert_as_small_step(net)
        assert sorted(normalize(net).net.labels.values()) == ["divc", "eps", "iota", "scale"]

    def test_quotient_limit_cases(self):
        bottom = trace(duplication(1), 1)
        cst = build("constant")
        for net in (compose(bottom, duplication(1)), tensor(bottom, bottom),
                    compose(cst, duplication(1)), tensor(cst, cst),
                    compose(cst, erasure(1)), tensor(cst, dead_alpha())):
            self.assert_as_small_step(net)

    def test_one_rebuild(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return renumbered(*args, **kwargs)

        monkeypatch.setattr(rewrite, "renumbered", counted)
        for net in (scale_fanout(5), build("paper_example"), tensor(build("constant"), dead_alpha())):
            calls.clear()
            normalize(net)
            assert len(calls) == 1

    def test_wide_fanout(self):
        # The small-step strategy would list and rebuild ~2,000 times here.
        shared = normalize(scale_fanout(2000))
        assert (len(shared.net.labels), shared.steps) == (1, 1999)
        assert len(set(shared.net.wiring.outputs)) == 1


def small_nets(max_ops: int):
    """Every net 1 -> 1 over ``iota`` 1 -> 1 and ``plus`` 2 -> 1 with at most
    ``max_ops`` operators and every read driven: for each multiset of labels
    (operator x drives port x + 1, the input enters port 0), each choice of
    driven port for each operator input and for the boundary output."""
    arity = {"iota": 1, "plus": 2}
    for k in range(max_ops + 1):
        for labels in combinations_with_replacement(sorted(arity), k):
            for reads in product(range(k + 1), repeat=sum(arity[a] for a in labels) + 1):
                it = iter(reads)
                ops = [(a, tuple(islice(it, arity[a])), (x + 1,)) for x, a in enumerate(labels)]
                yield _dense(ops, (0,), (next(it),), k + 1)


class TestEverySmallNet:
    """Exhaustive over the 364 nets of at most two operators.  The 22,124 of
    at most three pass too, but take about 50 times as long to check, so
    they are not run here."""

    def test_the_enumeration_is_exhaustive_and_duplicate_free(self):
        nets = [(w.ops, w.outputs) for w in (net.wiring for net in small_nets(2))]
        assert len(nets) == len(set(nets)) == 1 + (4 + 8) + (27 + 81 + 243)

    def test_normal_form_is_that_of_random_strategies_and_keeps_the_denotation(self):
        ins = [(1.0, -2.0, 3.0, 0.5)]
        for i, net in enumerate(small_nets(2)):
            shared = normalize(net).net
            for k in (2 * i, 2 * i + 1):
                assert find_iso(shared, normalize(net, rng=random.Random(k)).net) is not None, i
            assert windowed(net, ins) == windowed(shared, ins), i
