"""Executable checks of the trace, monoidal, and product axioms.

Each law builds both sides as nets and compares them with the isomorphism
search.  Laws are tagged with the category they hold in: ``net`` laws hold up
to plain isomorphism, ``snet`` laws only up to isomorphism of normal forms
(the point of the sharing/erasing quotient).  Duplication naturality is the
signature example: it fails in raw nets as soon as the morphism contains an
operator, and holds after normalization.
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
    note: str = ""


def _check(axiom: str, home: str, lhs: Net, rhs: Net, note: str = "") -> CheckResult:
    l, r = (lhs, rhs) if home == "net" else (normalize(lhs).net, normalize(rhs).net)
    w = find_iso(l, r)
    return CheckResult(axiom, w is not None, home, lhs, rhs, w, note)


def proj_second(m: int, n: int) -> Net:
    """The projection m+n -> n keeping the last n wires."""
    return compose(symmetry(m, n), projection(n, m))


def pairing(f: Net, g: Net) -> Net:
    """The tupling <f, g>: fan the common input out to both components."""
    if f.m != g.m:
        raise ArityMismatch(f"pairing needs equal domains, got {f.m} vs {g.m}")
    return compose(duplication(f.m), tensor(f, g))


# ---------------------------------------------------------------------------
# The laws
# ---------------------------------------------------------------------------

def check_vanishing(f: Net, x: int, y: int) -> CheckResult:
    """Feedback of a bundle equals iterated feedback of its parts."""
    lhs = trace(f, x + y)
    rhs = trace(trace(f, y), x)
    return _check("vanishing", "net", lhs, rhs)


def check_superposing(g: Net, f: Net, x: int) -> CheckResult:
    """A bystander tensors freely past a feedback loop."""
    lhs = tensor(g, trace(f, x))
    rhs = trace(tensor(g, f), x)
    return _check("superposing", "net", lhs, rhs)


def check_yanking(x: int) -> CheckResult:
    lhs = trace(symmetry(x, x), x)
    return _check("yanking", "net", lhs, identity(x))


def check_trace_naturality_left(h: Net, f: Net, x: int) -> CheckResult:
    """Pre-composition slides out of the trace."""
    lhs = trace(compose(tensor(h, identity(x)), f), x)
    rhs = compose(h, trace(f, x))
    return _check("trace-naturality-left", "net", lhs, rhs)


def check_trace_naturality_right(f: Net, h: Net, x: int) -> CheckResult:
    """Post-composition slides out of the trace."""
    lhs = trace(compose(f, tensor(h, identity(x))), x)
    rhs = compose(trace(f, x), h)
    return _check("trace-naturality-right", "net", lhs, rhs)


def check_sliding(f: Net, g: Net) -> CheckResult:
    """Dinaturality in the traced object: g may cross the feedback wire."""
    y, x = g.m, g.n
    a, b = f.m - x, f.n - y
    lhs = trace(compose(f, tensor(identity(b), g)), x)
    rhs = trace(compose(tensor(identity(a), g), f), y)
    return _check("sliding", "net", lhs, rhs)


def check_compose_assoc(a: Net, b: Net, c: Net) -> CheckResult:
    return _check("compose-assoc", "net", compose(compose(a, b), c), compose(a, compose(b, c)))


def check_compose_unit(f: Net) -> CheckResult:
    lhs = compose(identity(f.m), f)
    rhs = compose(f, identity(f.n))
    left = _check("compose-unit", "net", lhs, f)
    if not left.ok:
        return left
    return _check("compose-unit", "net", rhs, f)


def check_tensor_assoc(a: Net, b: Net, c: Net) -> CheckResult:
    return _check("tensor-assoc", "net", tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def check_tensor_unit(f: Net) -> CheckResult:
    lhs = tensor(f, identity(0))
    rhs = tensor(identity(0), f)
    left = _check("tensor-unit", "net", lhs, f)
    if not left.ok:
        return left
    return _check("tensor-unit", "net", rhs, f)


def check_interchange(f: Net, g: Net, h: Net, k: Net) -> CheckResult:
    """(f ; h) x (g ; k) equals (f x g) ; (h x k)."""
    lhs = compose(tensor(f, g), tensor(h, k))
    rhs = tensor(compose(f, h), compose(g, k))
    return _check("interchange", "net", lhs, rhs)


def check_symmetry_involution(m: int, n: int) -> CheckResult:
    lhs = compose(symmetry(m, n), symmetry(n, m))
    return _check("symmetry-involution", "net", lhs, identity(m + n))


def check_symmetry_naturality(f: Net, g: Net) -> CheckResult:
    lhs = compose(tensor(f, g), symmetry(f.n, g.n))
    rhs = compose(symmetry(f.m, g.m), tensor(g, f))
    return _check("symmetry-naturality", "net", lhs, rhs)


def check_pairing_left(f: Net, g: Net) -> CheckResult:
    lhs = compose(pairing(f, g), projection(f.n, g.n))
    return _check("pairing-left", "snet", lhs, f)


def check_pairing_right(f: Net, g: Net) -> CheckResult:
    lhs = compose(pairing(f, g), proj_second(f.n, g.n))
    return _check("pairing-right", "snet", lhs, g)


def check_pairing_projections(m: int, n: int) -> CheckResult:
    lhs = pairing(projection(m, n), proj_second(m, n))
    return _check("pairing-projections", "snet", lhs, identity(m + n))


def check_dup_naturality(f: Net, home: str = "snet") -> CheckResult:
    lhs = compose(f, duplication(f.n))
    rhs = compose(duplication(f.m), tensor(f, f))
    axiom = "dup-naturality" if home == "snet" else "dup-naturality-raw"
    return _check(axiom, home, lhs, rhs)


def check_erasure_naturality(f: Net) -> CheckResult:
    lhs = compose(f, erasure(f.n))
    return _check("erasure-naturality", "snet", lhs, erasure(f.m))


# ---------------------------------------------------------------------------
# Random suites
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


#: Each law's checker, and how to draw its arguments from an rng and a
#: signature after the widths ``a, b`` in 0..2 and ``x, y`` in 1..2.
_LAWS = {
    "vanishing": (check_vanishing, lambda r, s, a, b, x, y: (
        _net(r, s, a + x + y, b + x + y), x, y)),
    "superposing": (check_superposing, lambda r, s, a, b, x, y: (
        _net(r, s, r.randint(0, 2), r.randint(0, 2)), _net(r, s, a + x, b + x), x)),
    "yanking": (check_yanking, lambda r, s, a, b, x, y: (r.randint(1, 3),)),
    "trace-naturality-left": (check_trace_naturality_left, lambda r, s, a, b, x, y: (
        _net(r, s, r.randint(0, 2), a), _net(r, s, a + x, b + x), x)),
    "trace-naturality-right": (check_trace_naturality_right, lambda r, s, a, b, x, y: (
        _net(r, s, a + x, b + x), _net(r, s, b, r.randint(0, 2)), x)),
    "sliding": (check_sliding, lambda r, s, a, b, x, y: (
        _net(r, s, a + x, b + y), _net(r, s, y, x))),
    "compose-assoc": (check_compose_assoc, _widened(lambda r, s, a, b, x, y, k1, k2: (
        _net(r, s, a, k1), _net(r, s, k1, k2), _net(r, s, k2, b)))),
    "compose-unit": (check_compose_unit, lambda r, s, a, b, x, y: (_net(r, s, a, b),)),
    "tensor-assoc": (check_tensor_assoc, lambda r, s, a, b, x, y: (
        _net(r, s, a, b), _net(r, s, x, y), _net(r, s, r.randint(0, 2), r.randint(0, 2)))),
    "tensor-unit": (check_tensor_unit, lambda r, s, a, b, x, y: (_net(r, s, a, b),)),
    "interchange": (check_interchange, _widened(lambda r, s, a, b, x, y, k1, k2: (
        _net(r, s, a, k1), _net(r, s, b, k2), _net(r, s, k1, x), _net(r, s, k2, y)))),
    "symmetry-involution": (check_symmetry_involution, lambda r, s, a, b, x, y: (a, b)),
    "symmetry-naturality": (check_symmetry_naturality, lambda r, s, a, b, x, y: (
        _net(r, s, a, x), _net(r, s, b, y))),
    "pairing-left": (check_pairing_left, lambda r, s, a, b, x, y: (
        _total(r, s, x, a), _total(r, s, x, b))),
    "pairing-right": (check_pairing_right, lambda r, s, a, b, x, y: (
        _total(r, s, x, a), _total(r, s, x, b))),
    "pairing-projections": (check_pairing_projections, lambda r, s, a, b, x, y: (a, b)),
    "dup-naturality": (check_dup_naturality, lambda r, s, a, b, x, y: (_total(r, s, x, a),)),
    "dup-naturality-raw": (lambda f: check_dup_naturality(f, home="net"),
                           lambda r, s, a, b, x, y: (_total(r, s, x, a),)),
    "erasure-naturality": (check_erasure_naturality, lambda r, s, a, b, x, y: (
        _total(r, s, x, a),)),
}


def _law(axiom: str):
    try:
        return _LAWS[axiom]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom!r}; known: {', '.join(sorted(_LAWS))}") from None


def _instance(axiom: str, rng: random.Random, sig: Signature) -> CheckResult:
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    x, y = rng.randint(1, 2), rng.randint(1, 2)
    check, draw = _law(axiom)
    return check(*draw(rng, sig, a, b, x, y))


def check_axiom(axiom: str, *args) -> CheckResult:
    """Check one named law on explicit arguments (nets and bundle widths)."""
    return _law(axiom)[0](*args)


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
