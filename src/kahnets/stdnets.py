"""The standard signature and the concrete example nets used as fixtures.

The loop-shaped fixtures (constant, running_sum, integration) route the loop
body's result through an explicit fan-out so the tap and the feedback wire
read the same port; any alternative wiring of the same loop is equivalent
under sharing/erasing rewriting, which the tests assert.

The sampling step enters the differentiation and integration nets only
through the interpretation of ``scale``/``divc``; the nets themselves are
plain syntax and carry no numeric parameter.
"""

from __future__ import annotations

from .errors import UnknownKind
from .kahn import (Interpretation, causal, divc_fn, eps_fn, iota_fn, minus_fn,
                   plus_fn, pointwise, scale_fn)
from .nets import Net, Signature, compose, duplication, generator, identity, tensor, trace


def std_signature() -> Signature:
    return Signature({
        "plus": (2, 1),
        "minus": (2, 1),
        "scale": (1, 1),
        "divc": (1, 1),
        "iota": (1, 1),
        "eps": (1, 1),
        "alpha": (2, 1),
        "beta": (2, 2),
    })


STD_SIG = std_signature()

KINDS = ("paper_example", "constant", "running_sum", "differentiation", "integration")


def build(kind: str) -> Net:
    """Construct one of the named example nets over the standard signature."""
    if kind == "paper_example":
        return _paper_example()
    if kind == "constant":
        # feedback of (delay then fan out): 0 -> 1, emits 0, 0, 0, ...
        body = compose(generator(STD_SIG, "iota"), duplication(1))
        return trace(body, 1)
    if kind == "running_sum":
        # y = in + delayed(y), tapped: 1 -> 1
        body = compose(tensor(identity(1), generator(STD_SIG, "iota")),
                       compose(generator(STD_SIG, "plus"), duplication(1)))
        return trace(body, 1)
    if kind == "integration":
        # y = scale(in) + delayed(y), tapped: 1 -> 1
        body = compose(tensor(generator(STD_SIG, "scale"), generator(STD_SIG, "iota")),
                       compose(generator(STD_SIG, "plus"), duplication(1)))
        return trace(body, 1)
    if kind == "differentiation":
        # (shift(s) - s) / c, pointwise: 1 -> 1
        return compose(duplication(1),
                       compose(tensor(generator(STD_SIG, "eps"), identity(1)),
                               compose(generator(STD_SIG, "minus"), generator(STD_SIG, "divc"))))
    raise UnknownKind(f"unknown net kind {kind!r}; known: {', '.join(KINDS)}")


def _paper_example() -> Net:
    # The 2 -> 2 worked example: one alpha and one beta operator over ports
    # p0..p4, with fan-out on p4 (read by alpha and by boundary output 1).
    return Net(
        m=2, n=2,
        ports=frozenset(range(5)),
        labels={0: "alpha", 1: "beta"},
        src={(0, 0): 0, (0, 1): 4, (1, 0): 2, (1, 1): 1, 0: 3, 1: 4},
        tgt={(0, 0): 2, (1, 0): 3, (1, 1): 4, 0: 0, 1: 1},
    )


# ---------------------------------------------------------------------------
# Interpretations of the standard symbols
# ---------------------------------------------------------------------------

def std_interpretation(scale: float = 1.0, divc: float = 1.0) -> Interpretation:
    """Discrete-time bindings for every standard symbol.

    ``alpha`` and ``beta`` have no canonical meaning; they are bound to simple
    integer-preserving pointwise functions so that randomly generated nets can
    be evaluated.
    """
    return Interpretation({
        "plus": plus_fn,
        "minus": minus_fn,
        "scale": scale_fn(scale),
        "divc": divc_fn(divc),
        "iota": iota_fn,
        "eps": eps_fn,
        "alpha": pointwise("alpha", 2, lambda a, b: 2.0 * a - b),
        "beta": causal("beta", 2, 2, _beta_step),
    })


def _beta_step(ss, have, limit):
    a, b = ss
    n = min(len(a), len(b))
    return ([u + v for u, v in zip(a[have[0]:n], b[have[0]:n])],
            [u - v for u, v in zip(a[have[1]:n], b[have[1]:n])])


def it_interpretation(delta: float) -> Interpretation:
    """The sampling-period-parametric bindings: scale multiplies by the step,
    divc divides by it."""
    return std_interpretation(scale=delta, divc=delta)
