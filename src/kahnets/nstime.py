"""The infinitesimal-time backend: δ-sampled streams and standard parts.

A hyperreal quantity is represented at desk scale by its values along a
strictly decreasing schedule of sampling periods, with the standard part
computed as a tolerance-checked limit (optionally sharpened by one Richardson
extrapolation step under a linear error model).  A continuous-time stream is
sampled at instants 0, δ, 2δ, ... up to a finite observation window; feedback
loops are evaluated with a sweep budget that scales with the number of steps
in the window, so a delayed loop fills the whole window instead of stopping
at any fixed finite depth.

Quotients t/δ are floored with a tiny upward nudge so that decimal periods
hit their intended grid (naively, ``floor(0.3/0.1)`` is 2 in binary floating
point); quotients within 1e-9 of the next integer count as exact grid hits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import ArityMismatch, NonProductive, OutOfDomain
from .kahn import Interpretation, denote
from .nets import Net

_GRID_NUDGE = 1e-9


def stable_floor(q: float) -> int:
    return math.floor(q + _GRID_NUDGE)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPeriod:
    """A concrete stand-in for one infinitesimal: step size and window."""

    delta: float
    tmax: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"sampling period must be positive, got {self.delta}")
        if self.horizon < 1:
            raise ValueError(f"window {self.tmax} holds no step of size {self.delta}")

    @property
    def horizon(self) -> int:
        return stable_floor(self.tmax / self.delta)


@dataclass(frozen=True)
class ItStream:
    """A stream over step indices, defined on an initial segment of the window."""

    period: SamplingPeriod
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) > self.period.horizon:
            raise ValueError(f"{len(self.values)} values exceed horizon {self.period.horizon}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CtFn:
    """A total real function on the observation window, with a continuity tag."""

    fn: Callable[[float], float]
    continuity: str = "unknown"  # 'continuous' | 'piecewise' | 'unknown'
    name: str = ""

    def __call__(self, t: float) -> float:
        try:
            return float(self.fn(t))
        except (ArithmeticError, ValueError) as exc:
            raise OutOfDomain(f"{self.name or 'function'} is undefined at t={t}: {exc}") from None

    @staticmethod
    def from_samples(ts: Sequence[float], vs: Sequence[float], name: str = "") -> "CtFn":
        """Piecewise-linear interpolation through sample points (continuous)."""
        if len(ts) != len(vs) or len(ts) < 1:
            raise ValueError("need equally many sample times and values, at least one")
        pairs = sorted(zip(ts, vs))
        xs = [float(t) for t, _ in pairs]
        ys = [float(v) for _, v in pairs]

        def interp(t: float) -> float:
            if t <= xs[0]:
                return ys[0]
            if t >= xs[-1]:
                return ys[-1]
            i = bisect_left(xs, t)
            if xs[i] == t:
                return ys[i]
            w = (t - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ys[i - 1] + w * (ys[i] - ys[i - 1])

        return CtFn(interp, "continuous", name)


@dataclass(frozen=True)
class DeltaSchedule:
    """Strictly decreasing sampling periods plus the agreement tolerance."""

    deltas: tuple[float, ...]
    tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if len(self.deltas) < 3:
            raise ValueError("a schedule needs at least 3 entries")
        if any(d <= 0 for d in self.deltas):
            raise ValueError("schedule entries must be positive")
        if any(a <= b for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("schedule must be strictly decreasing")
        if not (self.tol > 0):
            raise ValueError("tolerance must be positive")


def default_schedule(delta0: float = 1e-2, halvings: int = 4, tol: float = 1e-6) -> DeltaSchedule:
    return DeltaSchedule(tuple(delta0 / 2 ** j for j in range(halvings + 1)), tol)


# ---------------------------------------------------------------------------
# Sampling and standardization
# ---------------------------------------------------------------------------

def sample(f: CtFn, p: SamplingPeriod) -> ItStream:
    """Read the function at every grid instant of the window."""
    return ItStream(p, tuple(f(k * p.delta) for k in range(p.horizon)))


def standardize(s: ItStream, x: float) -> float:
    """The stream's value at continuous time ``x`` (single-period reading).

    The limit reading across periods is :func:`standard_part`.
    """
    if x < 0:
        raise OutOfDomain(f"time {x} is negative")
    step = stable_floor(x / s.period.delta)
    if step >= len(s.values):
        raise OutOfDomain(
            f"time {x} is step {step}, but the stream is defined up to step {len(s.values) - 1}")
    return s.values[step]


@dataclass(frozen=True)
class StandardPart:
    """Outcome of a limit estimate along a schedule; non-convergence is a value."""

    converged: bool
    value: Optional[float]
    samples: tuple[float, ...]
    extrapolants: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.converged


def standard_part(g: Callable[[float], float], sched: DeltaSchedule,
                  error_model: str = "linear") -> StandardPart:
    """Estimate the limit of ``g`` as the period shrinks along the schedule.

    With the (default) linear error model, one Richardson extrapolation step
    is applied, which removes an error term proportional to the period
    exactly.  The estimate converges when the last two working values agree
    within the schedule tolerance.
    """
    if error_model not in ("linear", "none"):
        raise ValueError(f"unknown error model {error_model!r}")
    gs = tuple(float(g(d)) for d in sched.deltas)
    if error_model == "linear":
        ds = sched.deltas
        work = tuple((ds[j] * gs[j + 1] - ds[j + 1] * gs[j]) / (ds[j] - ds[j + 1])
                     for j in range(len(gs) - 1))
    else:
        work = gs
    last, prev = work[-1], work[-2]
    converged = math.isfinite(last) and math.isfinite(prev) and abs(last - prev) <= sched.tol
    return StandardPart(converged, last if converged else None, gs, work if error_model == "linear" else ())


# ---------------------------------------------------------------------------
# Evaluation over the sampled window
# ---------------------------------------------------------------------------

def denote_it(net: Net, interp: Interpretation, inputs: Sequence[ItStream],
              p: SamplingPeriod, *, max_sweeps: Optional[int] = None) -> list[ItStream]:
    """Evaluate the net over the sampled window.

    The sweep budget scales with the window (horizon + port count) unless
    overridden, so that a delayed feedback loop fills the whole window: a
    fixed finite budget would stop a loop after that many steps, which is
    exactly the point of iterating along the window instead.  Streams are
    truncated to the horizon.  Raises :class:`NonProductive` when evaluation
    reaches a fixed point while some boundary output is still empty (an
    undelayed feedback loop, for instance, makes no progress at all).
    """
    for s in inputs:
        if s.period != p:
            raise ArityMismatch(f"input sampled at {s.period} fed into evaluation at {p}")
    budget = max_sweeps if max_sweeps is not None else p.horizon + len(net.ports) + 2
    outs, stats = denote(net, interp, [s.values for s in inputs], budget,
                         max_len=p.horizon, return_stats=True)
    if stats.reached_fixpoint and any(len(o) == 0 for o in outs):
        raise NonProductive(
            "evaluation stalled with an empty output before the window was filled")
    return [ItStream(p, o) for o in outs]


@dataclass(frozen=True)
class ProbeRow:
    output: int
    probe: float
    values: tuple[float, ...]  # one per schedule period
    spread: float
    standard: StandardPart


@dataclass(frozen=True)
class IndependenceReport:
    """Pairwise agreement of standardized probes across the period schedule."""

    tol: float
    rows: tuple[ProbeRow, ...]
    outputs: tuple[tuple[ItStream, ...], ...]  # the output streams of each period

    @property
    def max_spread(self) -> float:
        return max((r.spread for r in self.rows), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_spread <= self.tol


def delta_independence(net: Net, ct_inputs: Sequence[CtFn], sched: DeltaSchedule,
                       probes: Sequence[float], tmax: float,
                       make_interp: Callable[[float], Interpretation]) -> IndependenceReport:
    """Run the net at every period of the schedule and compare probe values.

    The result the paper's construction promises must not depend on which
    infinitesimal is chosen; here that reads: standardized probe values agree
    within tolerance across the schedule, and their limit estimate converges.
    """
    per_delta: list[list[ItStream]] = []
    for d in sched.deltas:
        p = SamplingPeriod(d, tmax)
        ins = [sample(f, p) for f in ct_inputs]
        per_delta.append(denote_it(net, make_interp(d), ins, p))

    rows: list[ProbeRow] = []
    for out_idx in range(net.n):
        for x in probes:
            values = tuple(standardize(per_delta[j][out_idx], x)
                           for j in range(len(sched.deltas)))
            spread = max(values) - min(values)
            lookup = dict(zip(sched.deltas, values))
            st = standard_part(lambda d: lookup[d], sched)
            rows.append(ProbeRow(out_idx, x, values, spread, st))
    return IndependenceReport(sched.tol, tuple(rows), tuple(map(tuple, per_delta)))


# ---------------------------------------------------------------------------
# Calculus oracles (independent of the net evaluator)
# ---------------------------------------------------------------------------

def derivative_at(f: CtFn, x: float, sched: DeltaSchedule,
                  variant: str = "forward") -> StandardPart:
    """Difference-quotient derivative fed through the standard part.

    ``forward`` uses (f(x+δ) - f(x))/δ; ``symmetric`` uses two distinct
    shrinking offsets, (f(x+δ) - f(x+δ/2))/(δ/2).
    """
    if variant == "forward":
        g = lambda d: (f(x + d) - f(x)) / d
    elif variant == "symmetric":
        g = lambda d: (f(x + d) - f(x + d / 2)) / (d / 2)
    else:
        raise ValueError(f"unknown derivative variant {variant!r}")
    return standard_part(g, sched)


def integral(f: CtFn, a: float, b: float, sched: DeltaSchedule) -> StandardPart:
    """Left-endpoint Riemann sums over shrinking meshes, through standard part.

    Summation is compensated (math.fsum), making this a float-robust oracle
    for the accumulating integration net.
    """
    def g(d: float) -> float:
        n = max(1, round((b - a) / d))
        h = (b - a) / n
        return math.fsum(f(a + k * h) for k in range(n)) * h
    return standard_part(g, sched)
