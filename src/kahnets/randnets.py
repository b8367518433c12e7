"""Random net generation for law checking and stress tests.

Nets are built by randomly applying the categorical constructions to
generators and wiring nets, so every output is valid by construction.  The
distribution covers fan-out (one port read many times), undriven ports, and
closed feedback loops.  Generation is a pure function of (seed, parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .nets import Net, Signature, _dense, compose, generator, tensor, trace


@dataclass(frozen=True)
class GenParams:
    seed: int
    signature: Signature
    max_operators: int = 6
    max_arity: int = 3       # internal wire-bundle widths for compose/trace
    max_boundary: int = 3
    allow_undriven: bool = True


def gen_random_net(params: GenParams) -> Net:
    """A random valid net with boundary arities up to ``max_boundary``."""
    rng = random.Random(params.seed)
    m = rng.randint(0 if params.allow_undriven else 1, params.max_boundary)
    n = rng.randint(0, params.max_boundary)
    return gen_net(rng, params.signature, m, n,
                   max_ops=params.max_operators,
                   max_width=params.max_arity,
                   allow_undriven=params.allow_undriven)


def gen_net(rng: random.Random, sig: Signature, m: int, n: int, *,
            max_ops: int = 6, max_width: int = 3,
            allow_undriven: bool = True, allow_loops: bool = True,
            depth: int = 7) -> Net:
    """A random valid net of the exact arity m -> n.

    With ``allow_undriven=False`` every port of the result has a producer;
    with ``allow_loops=False`` no feedback is used.  Requests with both
    restrictions need ``m >= 1`` whenever ``n >= 1`` (nothing can be produced
    from nothing without a nullary symbol or a loop).
    """
    if m == 0 and n > 0 and not allow_undriven:
        if not allow_loops:
            raise ValueError("an undriven-free, loop-free net 0 -> n is impossible")
        # Only feedback can close this shape; build the body one wire wider.
        if depth > 0 and max_ops > 0:
            for _ in range(4):
                body = gen_net(rng, sig, 1, n + 1, max_ops=max_ops, max_width=max_width,
                               allow_undriven=False, depth=depth - 1)
                net = trace(body, 1)
                if not _has_undriven(net):
                    return net
        return _producing_loop(rng, sig, n)

    if depth <= 0 or max_ops <= 0:
        return _wiring(rng, m, n, allow_undriven)

    kinds = ["wiring", "generator", "compose", "tensor"] + (["trace"] if allow_loops else [])
    choice = rng.choices(kinds, weights=[2, 4, 3, 2, 2][:len(kinds)])[0]

    if choice == "generator":
        syms = [s for s in sorted(sig)
                if allow_undriven or ((sig.arity(s) == 0 or m > 0) and (sig.coarity(s) > 0 or n == 0))]
        if syms:
            name = rng.choice(syms)
            left = _wiring(rng, m, sig.arity(name), allow_undriven)
            right = _wiring(rng, sig.coarity(name), n, allow_undriven)
            return compose(compose(left, generator(sig, name)), right)
        choice = "compose"

    if choice == "compose":
        kmin = 1 if (n > 0 and not allow_undriven) else 0
        kmax = max_width
        if m == 0 and not allow_undriven and not allow_loops:
            kmin = kmax = 0  # nothing can cross the middle boundary
        k = rng.randint(kmin, kmax)
        split = rng.randint(0, max_ops - 1)
        left = gen_net(rng, sig, m, k, max_ops=split, max_width=max_width,
                       allow_undriven=allow_undriven, allow_loops=allow_loops, depth=depth - 1)
        right = gen_net(rng, sig, k, n, max_ops=max_ops - 1 - split, max_width=max_width,
                        allow_undriven=allow_undriven, allow_loops=allow_loops, depth=depth - 1)
        return compose(left, right)

    if choice == "tensor" and m + n > 0:
        m1 = rng.randint(0, m)
        if not allow_undriven:
            n1 = 0 if m1 == 0 else (n if m1 == m else rng.randint(0, n))
        else:
            n1 = rng.randint(0, n)
        split = rng.randint(0, max_ops - 1)
        left = gen_net(rng, sig, m1, n1, max_ops=split, max_width=max_width,
                       allow_undriven=allow_undriven, allow_loops=allow_loops, depth=depth - 1)
        right = gen_net(rng, sig, m - m1, n - n1, max_ops=max_ops - 1 - split, max_width=max_width,
                        allow_undriven=allow_undriven, allow_loops=allow_loops, depth=depth - 1)
        return tensor(left, right)

    if choice == "trace":
        x = rng.randint(1, max(1, max_width - 1))
        for _ in range(4):
            body = gen_net(rng, sig, m + x, n + x, max_ops=max_ops, max_width=max_width,
                           allow_undriven=allow_undriven, depth=depth - 1)
            net = trace(body, x)
            if allow_undriven or not _has_undriven(net):
                return net
        # feedback kept producing pure passthrough loops; settle for the body's style
        return _wiring(rng, m, n, allow_undriven)

    return _wiring(rng, m, n, allow_undriven)


def _wiring(rng: random.Random, m: int, n: int, allow_undriven: bool) -> Net:
    """An operator-free net: inputs arrive on m ports, outputs read at random.

    With undriven ports allowed, the net may carry extra producer-less ports
    for outputs to read (mandatory when m == 0 < n).
    """
    extra = 0
    if allow_undriven and n > 0 and (m == 0 or rng.random() < 0.25):
        extra = rng.randint(1, 2) if m == 0 else 1
    total = m + extra
    return _dense((), range(m), [rng.randrange(total) for _ in range(n)], total)


def _has_undriven(net: Net) -> bool:
    return None in net.wiring.driver


def _producing_loop(rng: random.Random, sig: Signature, n: int) -> Net:
    """A 0 -> n net with every port driven: one operator fed back on itself.

    Needs a symbol with at least one output; its outputs drive the loop and
    all boundary outputs.
    """
    syms = [s for s in sorted(sig) if sig.coarity(s) >= 1]
    if not syms:
        raise ValueError(f"no symbol with outputs: cannot drive a 0 -> {n} net")
    name = rng.choice(syms)
    ar, co = sig.arity(name), sig.coarity(name)
    left = _wiring(rng, 1, ar, False)
    mid = compose(compose(left, generator(sig, name)), _wiring(rng, co, n + 1, False))
    return trace(mid, 1)
