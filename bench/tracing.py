"""Spans around the public functions of every kahnets layer, and the per-layer
metrics computed from them.

``Tracer.install`` replaces each listed function in every kahnets module that
holds it, so ``kahnets.nets.renumbered`` and ``kahnets.rewrite.renumbered``
(or ``kahnets.nstime.denote`` and ``kahnets.cli.denote``) are both covered.
The stream functions of the interpretations that ``kahnets.cli`` obtains are
wrapped too, so each operator call is a span of its own.  Spans live in flat
arrays while the run lasts and are written out once, after it.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

#: (module, function) pairs that get a span at every import site.
SPANNED = [
    ("kahn", "denote"),
    ("nstime", "delta_independence"), ("nstime", "denote_it"), ("nstime", "sample"),
    ("nstime", "standard_part"),
    ("nets", "validate"), ("nets", "compose"), ("nets", "tensor"), ("nets", "trace"),
    ("nets", "renumbered"),
    ("randnets", "gen_net"),
    ("rewrite", "normalize"), ("rewrite", "redexes"), ("rewrite", "apply_redex"),
    ("iso", "find_iso"),
    ("laws", "run_suite"),
    ("dsl", "parse_document"), ("dsl", "format_document"),
    ("config", "parse_config"),
    ("cli", "main"),
]

# Scaling exponents use only normalize calls on nets at least this large, the
# smallest size of the bignets workload; laws nets are far smaller.
EXPONENT_MIN_OPERATORS = 32


def _per_layer_names():
    counts = ["kahn.denote.calls", "kahn.sweeps", "kahn.operator_calls", "kahn.elements",
              "nstime.denote_it.calls", "nstime.standard_part.calls", "nstime.grid_steps",
              "rewrite.normalize.calls", "rewrite.redexes.calls", "rewrite.steps",
              "iso.find_iso.calls", "laws.instances", "dsl.parse_document.calls"]
    counts += [f"nets.{f}.calls" for f in ("validate", "compose", "tensor", "trace", "renumbered")]
    seconds = ["kahn.denote.self_s", "kahn.operator_s", "nstime.delta_independence.self_s",
               "nstime.denote_it.self_s", "nstime.sample.self_s", "randnets.gen_net.self_s",
               "rewrite.normalize.self_s", "rewrite.redexes.self_s", "rewrite.apply_redex.self_s",
               "iso.find_iso.self_s", "laws.run_suite.self_s", "dsl.parse_document.self_s",
               "dsl.format_document.self_s", "config.parse_config.self_s", "cli.main.self_s"]
    seconds += [f"nets.{f}.self_s" for f in ("validate", "compose", "tensor", "trace", "renumbered")]
    ratios = ["kahn.fixpoint_share", "kahn.useful_ratio", "rewrite.useful_ratio",
              "iso.found_share", "trace_overhead_share"]
    slopes = ["nstime.denote_it.exponent", "rewrite.normalize.exponent"]
    units = {}
    units.update((n, "count") for n in counts)
    units.update((n, "s") for n in seconds)
    units.update((n, "ratio") for n in ratios)
    units.update((n, "slope") for n in slopes)
    return units


#: Every per-layer metric and its unit.  Counts and seconds are per round (one
#: pass over the workload's commands); a layer the workload never reaches reads 0.
PER_LAYER = _per_layer_names()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.sized: dict[str, list[tuple[int, int]]] = defaultdict(list)  # name -> (span, size)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(span, args, result)`` runs
        outside the span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        kind, start, end, parent, op, stack = (self.kind, self.start, self.end, self.parent,
                                               self.op, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def install(self, kahnets) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kahnets" or name.startswith("kahnets."))]
        c = self.counters

        def count(name, value):
            c[name] += value

        after = {
            "denote_it": lambda i, args, r: self.sized["nstime.denote_it"].append((i, args[3].horizon)),
            "normalize": self._after_normalize,
            "redexes": lambda i, args, r: count("redexes_listed", len(r)),
            "find_iso": lambda i, args, r: count("iso_found", r is not None),
            "run_suite": lambda i, args, r: count("laws.instances", r.total),
        }
        for module, func in SPANNED:
            original = getattr(getattr(kahnets, module), func)
            wrapper = self.span(f"{module}.{func}", original, after.get(func))
            if func == "denote":
                wrapper = self._denote(wrapper)
            for m in modules:
                if getattr(m, func, None) is original:
                    self._patch(m, func, wrapper)
        for func in ("std_interpretation", "it_interpretation"):
            self._patch(kahnets.cli, func, self._interpretation(kahnets.kahn, getattr(kahnets.cli, func)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _after_normalize(self, idx, args, result) -> None:
        self.sized["rewrite.normalize"].append((idx, len(args[0].labels)))
        self.counters["rewrite.steps"] += result.steps

    def _denote(self, spanned):
        """Ask for sweep statistics on every call; hand them on only to callers
        that asked."""
        c = self.counters

        def denote(net, interp, inputs, budget, *, max_len=None, return_stats=False):
            outputs, stats = spanned(net, interp, inputs, budget, max_len=max_len, return_stats=True)
            c["kahn.sweeps"] += stats.sweeps
            c["kahn_fixpoints"] += stats.reached_fixpoint
            c["kahn_final_elements"] += stats.total_lengths[-1] if stats.total_lengths else 0
            return (outputs, stats) if return_stats else outputs
        return denote

    def _interpretation(self, kahn, make):
        c = self.counters

        def count(idx, args, result):
            c["kahn.elements"] += sum(len(s) for s in result)

        def wrapped(*args, **kwargs):
            interp = make(*args, **kwargs)
            return kahn.Interpretation({
                name: kahn.StreamFn(f.ins, f.outs, self.span("kahn.operator", f.fn, count), f.name)
                for name, f in interp.bindings.items()})
        return wrapped

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, counts and seconds divided by ``rounds``."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        names, kind, start, end, parent = self.names, self.kind, self.start, self.end, self.parent
        for i in range(len(start)):
            d = end[i] - start[i]
            name = names[kind[i]]
            calls[name] += 1
            self_s[name] += d
            if parent[i] >= 0:
                self_s[names[kind[parent[i]]]] -= d
        c = self.counters
        out = {}
        for name in PER_LAYER:
            base, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = calls[base] / rounds
            elif what == "self_s":
                out[name] = self_s[base] / rounds
            else:
                out[name] = c.get(name, 0.0) / rounds
        out["kahn.operator_calls"] = calls["kahn.operator"] / rounds
        out["kahn.operator_s"] = self_s["kahn.operator"] / rounds
        out["kahn.fixpoint_share"] = _ratio(c["kahn_fixpoints"], calls["kahn.denote"])
        out["kahn.useful_ratio"] = _ratio(c["kahn_final_elements"], c["kahn.elements"])
        out["nstime.grid_steps"] = sum(h for _, h in self.sized["nstime.denote_it"]) / rounds
        out["rewrite.useful_ratio"] = _ratio(c["rewrite.steps"], c["redexes_listed"])
        out["iso.found_share"] = _ratio(c["iso_found"], calls["iso.find_iso"])
        out["nstime.denote_it.exponent"] = self._exponent("nstime.denote_it", 1)
        out["rewrite.normalize.exponent"] = self._exponent("rewrite.normalize", EXPONENT_MIN_OPERATORS)
        return out

    def _exponent(self, name: str, min_size: int) -> float:
        """Least-squares slope of log inclusive time against log size."""
        points = [(math.log(size), math.log(self.end[i] - self.start[i]))
                  for i, size in self.sized[name] if size >= min_size and self.end[i] > self.start[i]]
        if len({x for x, _ in points}) < 2:
            return 0.0
        return statistics.linear_regression([x for x, _ in points], [y for _, y in points]).slope

    def write(self, path: str) -> None:
        """All spans as CSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,name,start,end,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(f"{i},{names[self.kind[i]]},{self.start[i]!r},{self.end[i]!r},"
                             f"{self.parent[i]},{self.op[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
