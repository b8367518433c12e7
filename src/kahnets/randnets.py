"""Random net generation for law checking and stress tests.

A random net is assembled in one pass: an operator count drawn uniformly up
to the budget, a symbol for each operator, fresh ports for its outputs, and a
port for each input slot and boundary output to read.  An input slot reads a
boundary input, an earlier operator's output (any operator's output when
loops are allowed), or an undriven port when those are allowed, fresh or one
already drawn; a boundary output reads any port.  The net is built with one
``_dense`` call, so it is valid by construction.  The distribution covers
fan-out (one port read many times), undriven ports, and closed feedback
loops.  Generation is a pure function of (seed, parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .nets import Net, Signature, _dense


@dataclass(frozen=True)
class GenParams:
    seed: int
    signature: Signature
    max_operators: int = 6
    max_boundary: int = 3
    allow_undriven: bool = True


def gen_random_net(params: GenParams) -> Net:
    """A random valid net with boundary arities up to ``max_boundary``."""
    rng = random.Random(params.seed)
    m = rng.randint(0 if params.allow_undriven else 1, params.max_boundary)
    n = rng.randint(0, params.max_boundary)
    return gen_net(rng, params.signature, m, n, max_ops=params.max_operators,
                   allow_undriven=params.allow_undriven)


def gen_net(rng: random.Random, sig: Signature, m: int, n: int, *, max_ops: int = 6,
            allow_undriven: bool = True, allow_loops: bool = True) -> Net:
    """A random valid net of the exact arity m -> n with at most ``max_ops`` operators.

    With ``allow_undriven=False`` every port of the result has a producer;
    with ``allow_loops=False`` no operator reads its own or a later output,
    so the net is acyclic.  A request that cannot be met raises
    ``ValueError``: an undriven-free ``0 -> n`` net needs an operator that
    produces without reading anything undriven (one fed back on itself, or a
    nullary one when loops are not allowed).
    """
    syms = sorted(sig)
    first, least = syms, 0
    if m == 0 and not allow_undriven:
        first = [s for s in syms if sig.coarity(s) and (allow_loops or not sig.arity(s))]
        least = 1 if n else 0
    most = max_ops if first else 0
    if least > most:
        raise ValueError(f"no undriven-free{'' if allow_loops else ', loop-free'} "
                         f"net 0 -> {n} within {max_ops} operators")
    names = [rng.choice(first if x == 0 else syms) for x in range(rng.randint(least, most))]
    starts, size = [], m
    for name in names:
        starts.append(size)
        size += sig.coarity(name)
    driven, undriven = range(size), []

    def read(ports: range) -> int:
        nonlocal size
        if allow_undriven and (not ports or rng.random() < 0.2):
            if undriven and rng.random() < 0.5:
                return rng.choice(undriven)
            undriven.append(size)
            size += 1
            return size - 1
        return rng.choice(ports)

    ops = [(name, tuple([read(driven if allow_loops else range(start)) for _ in range(sig.arity(name))]),
            tuple(range(start, start + sig.coarity(name)))) for name, start in zip(names, starts)]
    outputs = [read(driven) for _ in range(n)]
    return _dense(ops, range(m), outputs, size)
