"""Discrete Kahn-domain semantics: least-fixpoint evaluation of nets.

Streams are finite prefixes of real-valued sequences ordered by extension;
the empty prefix is bottom.  A net denotes the least solution of its port
equations: boundary-input ports carry the given streams, each operator-output
port carries the corresponding component of the operator's interpretation
applied to its input ports, and undriven ports stay at bottom.  That solution
(Kahn 1974) does not depend on how operators or ports are numbered, and
neither does anything :func:`denote` reports.

Scheduling.  The operator graph (``y`` depends on ``x`` when ``y`` reads a
port ``x`` drives) is condensed into strongly connected components (Tarjan
1972), which are solved one at a time in topological order, each on the final
streams of the components before it, by one of two solvers over one shared
store of port prefixes.  Fire-once: a causal operator with inputs on no loop
is fired once.  Sweep: every other component is solved in sweeps, until a
sweep adds nothing.  In a loop, sweep ``r`` extends the ports the loop drives
to the least solution of its equations with each such port cut to ``r``
elements.  A loop with a delay therefore gains one element per sweep in
whatever order its operators are listed, and a budget of ``b`` sweeps leaves
at most ``b`` elements on every port a loop drives.  An operator on no loop
that is a source or has no declared step is fired at every sweep, cut only by
the window.  The run's statistics are derived from the elements each sweep
added.

Interpretations receive a ``limit`` argument, the current sweep number:
functions with unbounded output (sources with no inputs) use it to produce
one more element per demand step, everything else ignores it.

Causality.  A :class:`StreamFn` that declares a ``step`` is causal: the step
appends to each output only the elements that the inputs' current prefixes
define beyond what is already there, so a loop costs time linear in the
length of its streams (semi-naive evaluation).  All builtins here are causal;
:func:`causal` builds a function from its step alone.  A function without a
step takes the whole-prefix path: it is re-called on whole prefixes, and each
call is checked to only extend its outputs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from .errors import ArityMismatch, MissingBinding, MonotonicityViolation
from .nets import Net, Wiring, compose, tensor, trace

Stream = tuple[float, ...]
BOT: Stream = ()

#: ``step(streams, have, limit)``: the elements to append to each output,
#: given the input prefixes (read-only sequences) and the current length of
#: each output.
Step = Callable[[tuple[Sequence[float], ...], tuple[int, ...], int],
                tuple[Sequence[float], ...]]


def as_stream(values: Sequence[float]) -> Stream:
    return tuple(float(v) for v in values)


def is_prefix(a: Stream, b: Stream) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def compatible(a: Stream, b: Stream) -> bool:
    """True when one stream is a prefix of the other (same ideal stream)."""
    return is_prefix(a, b) or is_prefix(b, a)


# ---------------------------------------------------------------------------
# Interpretations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamFn:
    """A stream function with declared arities.

    ``fn(streams, limit)`` maps a tuple of input streams to a tuple of output
    streams; it must be monotone (extending inputs never retracts outputs).

    ``step``, when given, declares the function causal and is its incremental
    form: called with the input prefixes, the current output lengths ``have``
    and ``limit``, it returns the elements that follow position ``have[j]`` of
    output ``j`` in ``fn(streams, limit)[j]``.  Only a function without inputs
    may let ``limit`` change what its step returns.
    """

    ins: int
    outs: int
    fn: Callable[[tuple[Stream, ...], int], tuple[Stream, ...]]
    name: str = ""
    step: Optional[Step] = field(default=None, kw_only=True)

    def __call__(self, streams: Sequence[Stream], limit: int = 0) -> tuple[Stream, ...]:
        if len(streams) != self.ins:
            raise ArityMismatch(f"{self.name or 'stream function'} takes {self.ins} streams, got {len(streams)}")
        outs = self.fn(tuple(streams), limit)
        if len(outs) != self.outs:
            raise ArityMismatch(f"{self.name or 'stream function'} returned {len(outs)} streams, declared {self.outs}")
        return tuple(tuple(o) for o in outs)


def causal(name: str, ins: int, outs: int, step: Step) -> StreamFn:
    """The causal stream function whose incremental form is ``step``."""
    def whole(streams: tuple[Stream, ...], limit: int) -> tuple[Stream, ...]:
        return step(streams, (0,) * outs, limit)
    return StreamFn(ins, outs, whole, name, step=step)


def pointwise(name: str, ins: int, f: Callable[..., float]) -> StreamFn:
    """Lift a value function to streams; output length is the shortest input."""
    def step(streams, have, limit):
        h, n = have[0], min(map(len, streams), default=0)
        return ([f(*vals) for vals in zip(*(s[h:n] for s in streams))],)
    return causal(name, ins, 1, step)


plus_fn = pointwise("plus", 2, lambda a, b: a + b)
minus_fn = pointwise("minus", 2, lambda a, b: a - b)


def scale_fn(c: float) -> StreamFn:
    return pointwise(f"scale({c})", 1, lambda a: a * c)


def divc_fn(c: float) -> StreamFn:
    return pointwise(f"divc({c})", 1, lambda a: a / c)


# out[0] = 0 and out[k] = in[k-1]
iota_fn = causal("iota", 1, 1, lambda ss, have, limit: (
    ([0.0] if have[0] == 0 else []) + list(ss[0][max(have[0] - 1, 0):]),))
# out[k] = in[k+1]
eps_fn = causal("eps", 1, 1, lambda ss, have, limit: (ss[0][have[0] + 1:],))


def const_source(k: float) -> StreamFn:
    """A source emitting one more ``k`` per demand step."""
    return causal(f"const({k})", 0, 1,
                  lambda ss, have, limit: ((float(k),) * max(limit - have[0], 0),))


@dataclass(frozen=True)
class Interpretation:
    """Bindings from symbol names to stream functions."""

    bindings: Mapping[str, StreamFn]

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))

    def __getitem__(self, name: str) -> StreamFn:
        try:
            return self.bindings[name]
        except KeyError:
            raise MissingBinding(f"no interpretation bound for symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.bindings


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenoteStats:
    sweeps: int
    reached_fixpoint: bool
    total_lengths: tuple[int, ...]  # summed defined length after each sweep


def _components(w: Wiring) -> list[tuple[tuple[int, ...], bool]]:
    """The strongly connected components of the operator graph (``y`` after
    ``x`` when ``y`` reads a port ``x`` drives), as operator ranks in
    topological order (iterative Tarjan, so deep nets hit no recursion limit),
    each with whether it is a loop (several operators, or one reading itself)."""
    succ: list[list[int]] = [[] for _ in w.ops]
    for y, (_, xi, _) in enumerate(w.ops):
        for p in xi:
            d = w.driver[p]
            if d.__class__ is tuple:
                succ[d[0]].append(y)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps: list[tuple[tuple[int, ...], bool]] = []
    for root in range(len(w.ops)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            x, todo = work[-1]
            for y in todo:
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append(y)
                    on_stack.add(y)
                    work.append((y, iter(succ[y])))
                    break
                if y in on_stack:
                    low[x] = min(low[x], index[y])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == index[x]:
                    comp = []
                    while not comp or comp[-1] != x:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    comps.append((tuple(comp), len(comp) > 1 or x in succ[x]))
    comps.reverse()
    return comps


def denote(net: Net, interp: Interpretation, inputs: Sequence[Sequence[float]],
           budget: int, *, max_len: Optional[int] = None,
           return_stats: bool = False):
    """Evaluate the net on input streams with at most ``budget`` sweeps.

    The components of the operator graph are solved in topological order by
    two solvers over one port store (see the module docstring).  Fire-once
    fires a causal operator with inputs on no loop once, cut by ``max_len``.
    Sweep runs any other component in sweeps ``r`` = 1, 2, ... up to
    ``budget`` until one adds nothing, calling each operator with ``limit``
    ``r``.  In a loop, sweep ``r`` extends every port it drives to the least
    solution with such ports cut to ``r`` elements, firing only operators
    whose output the cut held back, and then the readers of what grew.  A
    source or a step-less operator on no loop is fired at every sweep, cut
    only by ``max_len``.

    ``max_len`` truncates every stream to a fixed window (used by the sampled
    continuous-time backend, where the window is the horizon).  Returns the
    tuple of boundary-output streams, plus :class:`DenoteStats` when asked:
    ``sweeps`` is that of the longest-running component, counting the sweep
    that found nothing to add; ``reached_fixpoint`` holds when every component
    found such a sweep within budget (a net with no operators, vacuously);
    ``total_lengths`` sums the length of every port after each sweep.
    """
    if len(inputs) != net.m:
        raise ArityMismatch(f"net takes {net.m} inputs, got {len(inputs)}")
    if budget < 0:
        raise ValueError(f"negative budget: {budget}")
    if max_len is not None and max_len < 0:
        raise ValueError(f"negative window: {max_len}")

    w = net.wiring
    for label, m, n in sorted({(label, len(xi), len(xo)) for label, xi, xo in w.ops}):
        f = interp[label]
        if (f.ins, f.outs) != (m, n):
            raise ArityMismatch(f"binding for {label!r} has arity {f.ins}->{f.outs}, "
                                f"the net wires {label!r} as {m}->{n}")
    fns = [interp[label] for label, _, _ in w.ops]
    readers = [[s[0] for s in rs if s.__class__ is tuple] for rs in w.readers]

    # Each port's prefix is one list, extended in place, so an operator's
    # argument and result lists can be gathered once.
    vals: list[list[float]] = [[] for _ in w.driver]
    for k, p in enumerate(w.inputs):
        vals[p] = list(as_stream(inputs[k])[:max_len])
    args = [tuple(vals[p] for p in xi) for _, xi, _ in w.ops]
    dests = [tuple(vals[p] for p in xo) for _, _, xo in w.ops]
    base = sum(map(len, vals))
    growth: dict[int, int] = defaultdict(int)  # elements added in each sweep

    def fire(x: int, limit: int, cap: Optional[int], held: set[int]) -> list[int]:
        """Extend the outputs of ``x`` up to ``cap``, adding ``x`` to ``held``
        when the cap cuts one; the ports that grew."""
        f, dest = fns[x], dests[x]
        if f.step is not None:
            new = f.step(args[x], tuple(map(len, dest)), limit)
            if len(new) != len(dest):
                raise ArityMismatch(f"{f.name or 'stream function'} stepped {len(new)} streams, "
                                    f"declared {len(dest)}")
        else:
            new = []
            for p, v, s in zip(w.ops[x][2], dest, f(tuple(map(tuple, args[x])), limit)):
                if not is_prefix(tuple(v), s[:cap]):
                    raise MonotonicityViolation(
                        f"binding for {w.ops[x][0]!r} retracted a prefix at port {w.port_ids[p]}")
                new.append(s[len(v):])
        grown = []
        for p, v, s in zip(w.ops[x][2], dest, new):
            if cap is not None and len(v) + len(s) > cap:
                s = s[:cap - len(v)]
                held.add(x)
            if s:
                v.extend(s)
                growth[limit] += len(s)
                grown.append(p)
        return grown

    def sweep(comp: tuple[int, ...], loop: bool) -> None:
        """Sweep one component.  In a loop, raising the cut can only let the
        operators in ``held`` grow, and then the readers of what grew; one
        already at the cut is held back again unfired."""
        members = set(comp)
        held = set(comp)
        for r in range(1, budget + 1):
            cut = r if loop and (max_len is None or r < max_len) else max_len
            todo = deque(y for y in comp if y in held or not loop)
            queued = set(todo)
            grew = False
            while todo:
                y = todo.popleft()
                queued.discard(y)
                if loop and all(len(v) >= cut for v in dests[y]):
                    held.add(y)
                    continue
                held.discard(y)
                for p in fire(y, r, cut, held):
                    grew = True
                    for z in readers[p]:
                        if z in members and z not in queued:
                            todo.append(z)
                            queued.add(z)
            if not grew:
                return

    for comp, loop in _components(w):
        x = comp[0]
        if loop or fns[x].step is None or not fns[x].ins:
            sweep(comp, loop)
        elif budget >= 1:
            fire(x, 1, max_len, set())

    outputs = tuple(tuple(vals[p]) for p in w.outputs)
    if not return_stats:
        return outputs
    latest = max(growth, default=0)  # the latest sweep in which any port grew
    sweeps = max(0, min(budget, latest + 1))
    lengths = tuple(accumulate((growth[r] for r in range(1, sweeps + 1)), initial=base))
    return outputs, DenoteStats(sweeps, latest < budget or not w.ops, lengths[1:])


def as_stream_fn(net: Net, interp: Interpretation, budget: int) -> StreamFn:
    """The net's denotation packaged as an opaque stream function."""
    def run(streams: tuple[Stream, ...], limit: int) -> tuple[Stream, ...]:
        return denote(net, interp, streams, budget)
    return StreamFn(net.m, net.n, run, name=f"denote({net!r})")


def trace_fn(f: StreamFn, x: int, budget: int) -> StreamFn:
    """The semantic feedback operator on stream functions.

    For ``f`` of arity (a+x) -> (b+x), iterates the partial application from
    all-bottom tuples and projects away the ``x`` feedback components.  If the
    budget runs out before the iteration stabilizes, the prefix computed so
    far is returned (a short prefix means no more information within budget).
    """
    if x < 0 or f.ins < x or f.outs < x:
        raise ArityMismatch(f"cannot trace {x} wires of a {f.ins}->{f.outs} stream function")
    if budget < 0:
        raise ValueError(f"negative budget: {budget}")
    a, b = f.ins - x, f.outs - x

    def run(streams: tuple[Stream, ...], limit: int) -> tuple[Stream, ...]:
        cur: tuple[Stream, ...] = (BOT,) * (b + x)
        for sweep in range(1, budget + 1):
            nxt = f(tuple(streams) + cur[b:], limit=sweep)
            for old, new in zip(cur, nxt):
                if not is_prefix(old, new):
                    raise MonotonicityViolation("traced stream function retracted a prefix")
            if nxt == cur:
                break
            cur = nxt
        return cur[:b]

    return StreamFn(a, b, run, name=f"trace({f.name or 'f'},{x})")


# ---------------------------------------------------------------------------
# Functoriality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctorialityResult:
    ok: bool
    records: tuple[tuple[str, bool, str], ...]


def _draw(pool: Sequence[Stream], count: int) -> list[Stream]:
    return [as_stream(pool[i % len(pool)]) for i in range(count)]


def check_functoriality(M: Net, N: Net, interp: Interpretation,
                        pools: Sequence[Sequence[Sequence[float]]],
                        budget: int) -> FunctorialityResult:
    """Compare evaluation of composed/tensored/traced nets against the
    corresponding operations on their denotations, sample by sample.

    Streams on the two sides are compared up to the common defined length:
    each output of one side must be a prefix of (or equal to) the other's.
    ``pools`` is a sequence of stream pools, one per sample; each check draws
    as many input streams as it needs from the pool, cycling.
    """
    records: list[tuple[str, bool, str]] = []

    def record(law: str, lhs: tuple[Stream, ...], rhs: tuple[Stream, ...]) -> None:
        ok = len(lhs) == len(rhs) and all(compatible(a, b) for a, b in zip(lhs, rhs))
        detail = "" if ok else f"lhs={lhs!r} rhs={rhs!r}"
        records.append((law, ok, detail))

    for pool in pools:
        pool = [as_stream(s) for s in pool] or [BOT]

        if M.n == N.m:
            ins = _draw(pool, M.m)
            lhs = denote(compose(M, N), interp, ins, budget)
            rhs = denote(N, interp, denote(M, interp, ins, budget), budget)
            record("compose", lhs, rhs)

        ins = _draw(pool, M.m + N.m)
        lhs = denote(tensor(M, N), interp, ins, budget)
        mm = denote(M, interp, ins[:M.m], budget)
        nn = denote(N, interp, ins[M.m:], budget)
        record("tensor", lhs, tuple(mm) + tuple(nn))

        x = min(N.m, N.n)
        ins = _draw(pool, N.m - x)
        lhs = denote(trace(N, x), interp, ins, budget)
        rhs = trace_fn(as_stream_fn(N, interp, budget), x, budget)(tuple(ins), limit=budget)
        record("trace", lhs, rhs)

    return FunctorialityResult(all(ok for _, ok, _ in records), tuple(records))
