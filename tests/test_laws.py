"""Random net generation and the algebraic law suites."""

import random

import pytest

from kahnets import (GenParams, Interpretation, ItStream, NonProductive, SamplingPeriod,
                     Signature, causal, denote_it, gen_net, gen_random_net, laws, validate)
from kahnets.laws import (_LAWS, ALL_AXIOMS, MONOIDAL_AXIOMS, NATURALITY_AXIOMS,
                          PRODUCT_AXIOMS, TRACE_AXIOMS, check_axiom, run_suite)
from kahnets.nets import Net
from kahnets.stdnets import STD_SIG, it_interpretation
from test_kahn import INTERP, renumber, windowed


def params(seed: int = 0, **kw) -> GenParams:
    return GenParams(seed=seed, signature=STD_SIG, **kw)


def _has_undriven(net: Net) -> bool:
    return None in net.wiring.driver


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = gen_random_net(params(5))
        b = gen_random_net(params(5))
        assert (a.m, a.n, a.ports, a.labels, a.src, a.tgt) == (b.m, b.n, b.ports, b.labels, b.src, b.tgt)

    def test_pure_wiring_when_no_operator_budget(self):
        net = gen_random_net(params(1, max_operators=0))
        assert net.labels == {}
        assert validate(net, STD_SIG).ok

    def test_thousand_samples_validate(self):
        sizes = set()
        for seed in range(1000):
            net = gen_random_net(params(seed))
            assert validate(net, STD_SIG).ok, f"seed {seed}"
            big = gen_random_net(params(seed, max_operators=24))
            assert validate(big, STD_SIG).ok, f"seed {seed}"
            sizes.add(len(big.wiring.ops))
        assert sizes == set(range(25))

    def test_distribution_covers_the_interesting_shapes(self):
        fanout = undriven = loops = 0
        for seed in range(300):
            net = gen_random_net(params(seed))
            reads = list(net.src.values())
            if len(set(reads)) < len(reads):
                fanout += 1
            if _has_undriven(net):
                undriven += 1
            if net.labels and not _has_undriven(net) and net.m == 0:
                loops += 1
        assert fanout > 30 and undriven > 30 and loops > 0

    def test_undriven_free_mode(self):
        rng = random.Random(0)
        for max_ops in (6, 12) * 100:
            net = gen_net(rng, STD_SIG, rng.randint(0, 3), rng.randint(0, 3),
                          max_ops=max_ops, allow_undriven=False)
            assert not _has_undriven(net)
            assert validate(net, STD_SIG).ok

    def test_loop_free_mode_has_no_operator_cycles(self):
        rng = random.Random(1)
        for max_ops in (6, 12) * 100:
            undriven = rng.random() < 0.5
            net = gen_net(rng, STD_SIG, rng.randint(1, 3), rng.randint(0, 3), max_ops=max_ops,
                          allow_undriven=undriven, allow_loops=False)
            assert not _operator_cycle(net)
            assert undriven or not _has_undriven(net)
        # Without a nullary symbol nothing can drive the first port.
        with pytest.raises(ValueError):
            gen_net(rng, STD_SIG, 0, 1, allow_undriven=False, allow_loops=False)


def _operator_cycle(net: Net) -> bool:
    producer = {p: s[0] for s, p in net.tgt.items() if isinstance(s, tuple)}
    succ: dict[int, set[int]] = {x: set() for x in net.labels}
    for (x, _i), p in ((s, p) for s, p in net.src.items() if isinstance(s, tuple)):
        if p in producer:
            succ[producer[p]].add(x)
    seen: dict[int, int] = {}

    def visit(x: int) -> bool:
        state = seen.get(x, 0)
        if state == 1:
            return True
        if state == 2:
            return False
        seen[x] = 1
        if any(visit(y) for y in succ[x]):
            return True
        seen[x] = 2
        return False

    return any(visit(x) for x in net.labels)


class TestSuites:
    def test_every_axiom_suite_passes(self):
        for axiom in ALL_AXIOMS:
            result = run_suite(axiom, params(11), 30)
            assert result.ok, f"{axiom}: {result.passed}/{result.total}"

    def test_axiom_groups_are_complete(self):
        assert set(TRACE_AXIOMS) == {"vanishing", "superposing", "yanking"}
        assert len(MONOIDAL_AXIOMS) == 7 and len(PRODUCT_AXIOMS) == 5
        assert len(NATURALITY_AXIOMS) == 3
        groups = (TRACE_AXIOMS, NATURALITY_AXIOMS, MONOIDAL_AXIOMS, PRODUCT_AXIOMS)
        for axiom in _LAWS:
            assert sum(axiom in group for group in groups) == (axiom != "dup-naturality-raw"), axiom

    def test_suites_are_deterministic(self):
        a = run_suite("vanishing", params(3), 10)
        b = run_suite("vanishing", params(3), 10)
        assert (a.passed, a.total) == (b.passed, b.total)


WINDOW = 30
#: A signature of one delay, ``lag``, which reads ``0, a0 + b0, a1 + b1, ...``:
#: every loop of a net over it whose ports all have a producer is productive.
DELAYED = Signature({"lag": (2, 1)})
LAG = causal("lag", 2, 1, lambda ss, have, limit: ([
    ss[0][k - 1] + ss[1][k - 1] if k else 0.0
    for k in range(have[0], min(map(len, ss)) + 1)],))
#: The window of the instances over ``DELAYED``, whose loops fill any window.
DELAYED_WINDOW = 8


class TestStreamsModelTheLaws:
    """Every model satisfies every law, so the two sides of each equation of
    ``_LAWS`` denote alike.  Only windowed denotations are compared: a
    budgeted prefix of a loop is not invariant under sharing.

    Half the instances are drawn over the standard signature.  The other
    half are drawn over ``DELAYED`` without undriven ports, with the width
    ``a`` 0 (so a traced net's inputs are all fed back) and ``b`` at least 1
    (so there is an output to compare): they run productive loops.  Only
    those tell apart an evaluator that depends on the order of a loop's
    operators.  ``sliding`` moves ``g`` across the feedback wire, so its two
    sides list a loop's operators in two orders; the two sides of the other
    laws list them in the same relative order, so each side is also compared
    with a copy of itself with its operators and ports renumbered."""

    @pytest.mark.parametrize("axiom", sorted(_LAWS))
    def test_both_sides_denote_alike(self, axiom, monkeypatch):
        _, sides, draw = _LAWS[axiom]
        rng, renumbering = random.Random(f"model:{axiom}"), random.Random(f"renumber:{axiom}")
        for _ in range(100):
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            x, y = rng.randint(1, 2), rng.randint(1, 2)
            for lhs, rhs in sides(*draw(rng, STD_SIG, a, b, x, y)):
                self.assert_alike(lhs, rhs, rng, renumbering, INTERP, WINDOW)
        drawn = laws._net
        monkeypatch.setattr(laws, "_net", lambda *args, **kw: drawn(*args, **{**kw, "undriven": False}))
        lagged = Interpretation({**INTERP.bindings, "lag": LAG})
        for _ in range(100):
            b, x, y = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            for lhs, rhs in sides(*draw(rng, DELAYED, 0, b, x, y)):
                self.assert_alike(lhs, rhs, rng, renumbering, lagged, DELAYED_WINDOW)

    @staticmethod
    def assert_alike(lhs: Net, rhs: Net, rng: random.Random, renumbering: random.Random,
                     interp: Interpretation, window: int) -> None:
        """Equal windowed outputs on random inputs, of both sides and of a
        renumbered copy of each, and equal outputs (or both non-productive)
        at one sampling period."""
        period = SamplingPeriod(0.5, window * 0.5)
        sampled = Interpretation({**it_interpretation(period.delta).bindings, "lag": LAG})

        def at_one_delta(net, ins):
            try:
                outs = denote_it(net, sampled, [ItStream(period, s) for s in ins], period)
            except NonProductive as error:
                return str(error)
            return [s.values for s in outs]

        ins = [tuple(float(rng.randint(-4, 4)) for _ in range(rng.randint(0, window)))
               for _ in range(lhs.m)]
        want = windowed(lhs, ins, window, interp)
        for net in (rhs, renumber(lhs, renumbering), renumber(rhs, renumbering)):
            assert windowed(net, ins, window, interp) == want, (lhs, rhs, net, ins)
        assert at_one_delta(lhs, ins) == at_one_delta(rhs, ins), (lhs, rhs, ins)


class TestSpecificLaws:
    def test_vanishing_on_stated_arity(self):
        rng = random.Random(42)
        f = gen_net(rng, STD_SIG, 2 + 1 + 1, 1 + 1 + 1)
        result = check_axiom("vanishing", f, 1, 1)
        assert result.ok and result.home == "net"

    def test_superposing_with_an_arbitrary_bystander(self):
        rng = random.Random(43)
        g = gen_net(rng, STD_SIG, 2, 1)
        f = gen_net(rng, STD_SIG, 1 + 1, 2 + 1)
        assert check_axiom("superposing", g, f, 1).ok

    def test_yanking_at_one(self):
        result = check_axiom("yanking", 1)
        assert result.ok and result.witness is not None

    def test_named_dispatch(self):
        assert check_axiom("yanking", 2).ok
        assert check_axiom("symmetry-involution", 1, 2).ok
        with pytest.raises(ValueError):
            check_axiom("flux-capacitance", 1)

    def test_dup_naturality_raw_fails_with_an_operator(self):
        rng = random.Random(44)
        f = gen_net(rng, STD_SIG, 1, 1, max_ops=3, allow_undriven=False, allow_loops=False)
        while not f.labels:
            f = gen_net(rng, STD_SIG, 1, 1, max_ops=3, allow_undriven=False, allow_loops=False)
        raw = check_axiom("dup-naturality-raw", f)
        cooked = check_axiom("dup-naturality", f)
        assert not raw.ok and cooked.ok

    def test_dup_naturality_raw_suite_exhibits_counterexamples(self):
        result = run_suite("dup-naturality-raw", params(12), 40)
        assert result.passed < result.total
        assert any(f.lhs.labels or f.rhs.labels for f in result.failures)
