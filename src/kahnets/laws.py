"""Executable checks of the trace, monoidal, and product axioms.

Each law is one row of ``_LAWS``: the category it holds in, the ``(lhs, rhs)``
pairs of nets it equates, and how to draw its arguments at random.
:func:`check_axiom` is the one checker: it builds both sides and compares
them with the isomorphism search.  ``net`` laws hold up to plain isomorphism,
``snet`` laws only up to isomorphism of normal forms (the point of the
sharing/erasing quotient).  Duplication naturality is the signature example:
it fails in raw nets (``dup-naturality-raw``) as soon as the morphism
contains an operator, and holds after normalization.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch
from .iso import NetIso, find_iso
from .nets import (Net, Signature, compose, duplication, erasure, identity,
                   projection, symmetry, tensor, trace)
from .randnets import GenParams, gen_net
from .rewrite import normalize


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    ok: bool
    home: str  # 'net' or 'snet'
    lhs: Net
    rhs: Net
    witness: Optional[NetIso]


def _check(axiom: str, home: str, lhs: Net, rhs: Net) -> CheckResult:
    l, r = (lhs, rhs) if home == "net" else (normalize(lhs).net, normalize(rhs).net)
    w = find_iso(l, r)
    return CheckResult(axiom, w is not None, home, lhs, rhs, w)


def proj_second(m: int, n: int) -> Net:
    """The projection m+n -> n keeping the last n wires."""
    return compose(symmetry(m, n), projection(n, m))


def pairing(f: Net, g: Net) -> Net:
    """The tupling <f, g>: fan the common input out to both components."""
    if f.m != g.m:
        raise ArityMismatch(f"pairing needs equal domains, got {f.m} vs {g.m}")
    return compose(duplication(f.m), tensor(f, g))


# ---------------------------------------------------------------------------
# The laws and their random suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    axiom: str
    total: int
    passed: int
    failures: tuple[CheckResult, ...]  # first few failing instances

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _net(rng: random.Random, sig: Signature, m: int, n: int, *, ops: int = 4,
         undriven: bool = True, loops: bool = True) -> Net:
    return gen_net(rng, sig, m, n, max_ops=ops, allow_undriven=undriven, allow_loops=loops)


def _widened(draw):
    """``draw`` given two more widths in 0..2, drawn before any of its nets."""
    return lambda r, s, a, b, x, y: draw(r, s, a, b, x, y, r.randint(0, 2), r.randint(0, 2))


def _total(r: random.Random, s: Signature, m: int, n: int) -> Net:
    # Product laws live in the quotient category; their instances avoid
    # undriven ports and feedback loops, over which the rewriting quotient is
    # genuinely too coarse: two copies of a bottom source never share, a
    # duplicated loop has no syntactically equal inputs to start merging
    # from, and a dead loop keeps all of its own outputs read.  The recorded
    # counterexample tests pin these phenomena down.
    return _net(r, s, m, n, undriven=False, loops=False)


def _dup_naturality(f: Net) -> list[tuple[Net, Net]]:
    return [(compose(f, duplication(f.n)), compose(duplication(f.m), tensor(f, f)))]


def _sliding(f: Net, g: Net) -> list[tuple[Net, Net]]:
    y, x = g.m, g.n
    a, b = f.m - x, f.n - y
    return [(trace(compose(f, tensor(identity(b), g)), x),
             trace(compose(tensor(identity(a), g), f), y))]


#: Each law: the category it holds in, the ``(lhs, rhs)`` pairs it equates
#: given its arguments, and how to draw those arguments from an rng and a
#: signature after the widths ``a, b`` in 0..2 and ``x, y`` in 1..2.
_LAWS = {
    # Feedback of a bundle equals iterated feedback of its parts.
    "vanishing": ("net", lambda f, x, y: [(trace(f, x + y), trace(trace(f, y), x))],
                  lambda r, s, a, b, x, y: (_net(r, s, a + x + y, b + x + y), x, y)),
    # A bystander tensors freely past a feedback loop.
    "superposing": ("net", lambda g, f, x: [(tensor(g, trace(f, x)), trace(tensor(g, f), x))],
                    lambda r, s, a, b, x, y: (
                        _net(r, s, r.randint(0, 2), r.randint(0, 2)), _net(r, s, a + x, b + x), x)),
    # Feeding back one half of a swap is the identity.
    "yanking": ("net", lambda x: [(trace(symmetry(x, x), x), identity(x))],
                lambda r, s, a, b, x, y: (r.randint(1, 3),)),
    # Pre-composition slides out of the trace.
    "trace-naturality-left": (
        "net", lambda h, f, x: [(trace(compose(tensor(h, identity(x)), f), x),
                                 compose(h, trace(f, x)))],
        lambda r, s, a, b, x, y: (_net(r, s, r.randint(0, 2), a), _net(r, s, a + x, b + x), x)),
    # Post-composition slides out of the trace.
    "trace-naturality-right": (
        "net", lambda f, h, x: [(trace(compose(f, tensor(h, identity(x))), x),
                                 compose(trace(f, x), h))],
        lambda r, s, a, b, x, y: (_net(r, s, a + x, b + x), _net(r, s, b, r.randint(0, 2)), x)),
    # Dinaturality in the traced object: g may cross the feedback wire.
    "sliding": ("net", _sliding,
                lambda r, s, a, b, x, y: (_net(r, s, a + x, b + y), _net(r, s, y, x))),
    "compose-assoc": ("net", lambda f, g, h: [(compose(compose(f, g), h),
                                                compose(f, compose(g, h)))],
                      _widened(lambda r, s, a, b, x, y, k1, k2: (
                          _net(r, s, a, k1), _net(r, s, k1, k2), _net(r, s, k2, b)))),
    # Identities on either side; both equations are checked.
    "compose-unit": ("net", lambda f: [(compose(identity(f.m), f), f),
                                       (compose(f, identity(f.n)), f)],
                     lambda r, s, a, b, x, y: (_net(r, s, a, b),)),
    "tensor-assoc": ("net", lambda f, g, h: [(tensor(tensor(f, g), h), tensor(f, tensor(g, h)))],
                     lambda r, s, a, b, x, y: (_net(r, s, a, b), _net(r, s, x, y),
                                               _net(r, s, r.randint(0, 2), r.randint(0, 2)))),
    # The empty net on either side; both equations are checked.
    "tensor-unit": ("net", lambda f: [(tensor(f, identity(0)), f), (tensor(identity(0), f), f)],
                    lambda r, s, a, b, x, y: (_net(r, s, a, b),)),
    # (f ; h) x (g ; k) equals (f x g) ; (h x k).
    "interchange": ("net", lambda f, g, h, k: [(compose(tensor(f, g), tensor(h, k)),
                                                tensor(compose(f, h), compose(g, k)))],
                    _widened(lambda r, s, a, b, x, y, k1, k2: (
                        _net(r, s, a, k1), _net(r, s, b, k2), _net(r, s, k1, x), _net(r, s, k2, y)))),
    "symmetry-involution": ("net", lambda m, n: [(compose(symmetry(m, n), symmetry(n, m)),
                                                  identity(m + n))],
                            lambda r, s, a, b, x, y: (a, b)),
    "symmetry-naturality": ("net", lambda f, g: [(compose(tensor(f, g), symmetry(f.n, g.n)),
                                                  compose(symmetry(f.m, g.m), tensor(g, f)))],
                            lambda r, s, a, b, x, y: (_net(r, s, a, x), _net(r, s, b, y))),
    "pairing-left": ("snet", lambda f, g: [(compose(pairing(f, g), projection(f.n, g.n)), f)],
                     lambda r, s, a, b, x, y: (_total(r, s, x, a), _total(r, s, x, b))),
    "pairing-right": ("snet", lambda f, g: [(compose(pairing(f, g), proj_second(f.n, g.n)), g)],
                      lambda r, s, a, b, x, y: (_total(r, s, x, a), _total(r, s, x, b))),
    "pairing-projections": ("snet", lambda m, n: [(pairing(projection(m, n), proj_second(m, n)),
                                                   identity(m + n))],
                            lambda r, s, a, b, x, y: (a, b)),
    # Copying commutes with f only up to sharing: raw nets keep two copies.
    "dup-naturality": ("snet", _dup_naturality, lambda r, s, a, b, x, y: (_total(r, s, x, a),)),
    "dup-naturality-raw": ("net", _dup_naturality, lambda r, s, a, b, x, y: (_total(r, s, x, a),)),
    "erasure-naturality": ("snet", lambda f: [(compose(f, erasure(f.n)), erasure(f.m))],
                           lambda r, s, a, b, x, y: (_total(r, s, x, a),)),
}


def _law(axiom: str):
    try:
        return _LAWS[axiom]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom!r}; known: {', '.join(sorted(_LAWS))}") from None


def check_axiom(axiom: str, *args) -> CheckResult:
    """Check one named law on explicit arguments (nets and bundle widths): the
    first of its equations that fails, or the last one."""
    home, sides, _ = _law(axiom)
    for lhs, rhs in sides(*args):
        result = _check(axiom, home, lhs, rhs)
        if not result.ok:
            break
    return result


def _instance(axiom: str, rng: random.Random, sig: Signature) -> CheckResult:
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    x, y = rng.randint(1, 2), rng.randint(1, 2)
    return check_axiom(axiom, *_law(axiom)[2](rng, sig, a, b, x, y))


TRACE_AXIOMS = ("vanishing", "superposing", "yanking")
NATURALITY_AXIOMS = ("trace-naturality-left", "trace-naturality-right", "sliding")
MONOIDAL_AXIOMS = ("compose-assoc", "compose-unit", "tensor-assoc", "tensor-unit",
                   "interchange", "symmetry-involution", "symmetry-naturality")
PRODUCT_AXIOMS = ("pairing-left", "pairing-right", "pairing-projections",
                  "dup-naturality", "erasure-naturality")
ALL_AXIOMS = TRACE_AXIOMS + NATURALITY_AXIOMS + MONOIDAL_AXIOMS + PRODUCT_AXIOMS


def run_suite(axiom: str, params: GenParams, count: int) -> SuiteResult:
    """Check ``count`` random instances of one law; deterministic in the seed."""
    rng = random.Random(f"{params.seed}:{axiom}")
    passed = 0
    failures: list[CheckResult] = []
    for _ in range(count):
        result = _instance(axiom, rng, params.signature)
        if result.ok:
            passed += 1
        elif len(failures) < 3:
            failures.append(result)
    return SuiteResult(axiom, count, passed, tuple(failures))
