"""Simulation run configuration: line-oriented ``key = value`` files.

Example::

    delta = 1e-3
    tmax = 1.05
    tol = 1e-2
    schedule = 1e-2, 5e-3, 2.5e-3, 1.25e-3
    probes = 0.5, 1.0
    input.0 = expr: sin(t)

An input is either ``expr: <expression over t>`` or ``csv: <path>`` (a
``t,value`` file, linearly interpolated).  When no schedule is given, the
configured step halved four times is used.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, _echo, _finite
from .exprs import parse_expr
from .nstime import CtFn, DeltaSchedule, SamplingPeriod, default_schedule, stable_floor


@dataclass(frozen=True)
class SimConfig:
    delta: float
    tmax: float
    schedule: DeltaSchedule
    probes: tuple[float, ...]
    inputs: tuple[CtFn, ...]


def parse_config(text: str, base_dir: str = ".") -> SimConfig:
    delta = None
    tmax = None
    tol = 1e-6
    schedule: tuple[float, ...] | None = None
    probes: tuple[float, ...] = ()
    inputs: dict[int, CtFn] = {}

    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {_echo(stripped)}", line=number)
        key, value = (part.strip() for part in stripped.split("=", 1))

        try:
            if key == "delta":
                delta = _finite(value)
            elif key == "tmax":
                tmax = _finite(value)
            elif key == "tol":
                tol = _finite(value)
            elif key == "schedule":
                schedule = tuple(_finite(v) for v in value.split(","))
            elif key == "probes":
                probes = tuple(_finite(v) for v in value.split(","))
            elif key.startswith("input."):
                try:
                    index = int(key[len("input."):])
                except ValueError:
                    raise ValueError(f"invalid input index {_echo(key[len('input.'):])}") from None
                after = raw[raw.index("=") + 1:]
                value_col = len(raw) - len(after.lstrip()) + 1
                inputs[index] = _parse_input(key, value, base_dir, number, value_col)
            else:
                raise ConfigError(f"unknown key {_echo(key)}", line=number)
        except ValueError as exc:
            raise ConfigError(f"bad value for {_echo(key)}: {exc}", line=number) from None

    if delta is None:
        raise ConfigError("missing required key 'delta'")
    if tmax is None:
        raise ConfigError("missing required key 'tmax'")
    ordered = []
    for i in range(len(inputs)):
        if i not in inputs:
            raise ConfigError(f"inputs must be indexed densely from 0; missing input.{i}")
        ordered.append(inputs[i])
    try:
        sched = default_schedule(delta, tol=tol) if schedule is None else DeltaSchedule(schedule, tol)
        # Coarsest first: each period must hold a step of the window.
        horizons = [(d, SamplingPeriod(d, tmax).horizon) for d in sched.deltas]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for x in probes:
        if x < 0:
            raise ConfigError(f"probe {x} is negative")
        for d, horizon in horizons:
            step = stable_floor(x / d)
            if step >= horizon:
                raise ConfigError(f"probe {x} is outside the window: it is step {step} of period "
                                  f"{d}, which holds steps 0 to {horizon - 1} up to tmax {tmax}")
    return SimConfig(delta, tmax, sched, probes, tuple(ordered))


def _parse_input(key: str, value: str, base_dir: str, line: int, col: int) -> CtFn:
    """The input ``value`` of config line ``line``, which starts at column
    ``col``; an expression error is located in that line."""
    if ":" not in value:
        raise ConfigError(f"input needs 'expr:' or 'csv:' prefix, got {_echo(value)}", line=line)
    kind, payload = (part.strip() for part in value.split(":", 1))
    if kind == "expr":
        try:
            fn = parse_expr(payload)
        except ConfigError as exc:
            at = None if exc.col is None else col + len(value) - len(payload) + exc.col - 1
            raise ConfigError(exc.message, line=line, col=at) from None
        return CtFn(fn, "unknown", name=f"{key} ({payload})")
    if kind == "csv":
        path = payload if os.path.isabs(payload) else os.path.join(base_dir, payload)
        return load_continuous_csv(path)
    raise ConfigError(f"unknown input kind {_echo(kind)}", line=line)


def load_continuous_csv(path: str) -> CtFn:
    """Read a ``t,value`` file and interpolate it linearly."""
    rows = _csv_rows(path, "t,value", lambda row: (_finite(row[0]), _finite(row[1])))
    if not rows:
        raise ConfigError(f"{path}: no samples")
    ts, vs = zip(*rows)
    return CtFn.from_samples(ts, vs, name=os.path.basename(path))


def load_stream_csv(path: str) -> tuple[float, ...]:
    """Read a discrete ``step,value`` file into a stream prefix (row order)."""
    return tuple(_csv_rows(path, "step,value", lambda row: _finite(row[1])))


def _csv_rows(path: str, header: str, read: Callable[[list[str]], object]) -> list:
    """``read`` of each non-empty row of a CSV file whose first two columns are
    headed ``header``; a row with fewer than two cells is a config error."""
    out = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None or [h.strip() for h in first[:2]] != header.split(","):
                raise ConfigError(f"{path}: expected header {header!r}")
            for row in reader:
                if len(row) == 1:
                    raise ConfigError(f"{path}: row on line {reader.line_num} has one cell, "
                                      f"expected two ({header!r})")
                if row:
                    out.append(read(row))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return out
