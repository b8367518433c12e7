"""Command-line interface.

Subcommands::

    check FILE [NET]            validate nets (exit 1 if any invalid)
    normalize FILE NET          print the shared normal form as DSL
    iso FILE NET1 NET2          exit 0 when isomorphic, 1 when not
    se-equiv FILE NET1 NET2     same, modulo sharing/erasing rewriting
    eval FILE NET --input ...   run the discrete stream semantics, emit CSV
    simulate FILE NET --config  run the sampled-time semantics over a schedule
    laws [--axiom NAME]         check algebraic laws on random nets

Exit codes: 0 ok, 1 property/iso failure, 2 usage or file errors (an invalid
net included), 3 evaluation errors.  Every error prints one machine-readable line
``error <code>: <message>`` on stderr (or a JSON object with ``--json``); a
usage error is ``error usage-error: <message>``, or with ``--json`` anywhere
in the arguments ``{"error": {"code": "usage-error", "message": ...}}``.
When ``eval`` runs out of sweeps before its fixpoint, it still prints the
outputs and exits 0, after one ``warning budget-exhausted: <message>`` line
on stderr.  ``eval`` and ``simulate`` print only finite numbers: a
non-finite value they would print is an ``out-of-domain`` error, exit 3.

Importing this module loads no other kahnets module but ``errors``, and the
parser is built without loading any: each subcommand loads the modules it
runs when it runs, so a command pays only for its own layers.  Four names
stay attributes of this module, looked up when a command runs, because code
outside it rebinds them: ``std_interpretation`` and ``it_interpretation``
(the benchmark's tracer wraps them to time each operator), and ``validate``
and ``delta_independence`` (tests replace them).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import __version__
from .errors import ConfigError, DslSyntaxError, KahnetsError, OutOfDomain, UndeclaredPort, _finite

if TYPE_CHECKING:
    from .dsl import NetDocument
    from .nets import Net, Signature


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _emit_error(exc, "--json" in argv)
        raise SystemExit(2) from None
    try:
        return args.handler(args)
    except KahnetsError as exc:
        _emit_error(exc, getattr(args, "json", False))
        if isinstance(exc, (DslSyntaxError, UndeclaredPort, ConfigError)) or exc.line is not None:
            return 2
        return 3


class _UsageError(KahnetsError):
    code = "usage-error"


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`_UsageError`, which :func:`main`
    reports like any other error, then exits 2.  ``add_subparsers`` makes the
    subcommand parsers of this class too."""

    def error(self, message: str):
        raise _UsageError(" ".join(message.split()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Parsing leaves it unchanged: the
    ``append`` action copies its default list before adding to it, and no
    handler changes its arguments."""
    # The help shows the docstring up to its notes on module loading.
    description = __doc__.partition("\n\nImporting this module")[0]
    parser = _ArgumentParser(prog="kahnets", description=description,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"kahnets {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the nets in a file")
    p.add_argument("file")
    p.add_argument("net", nargs="?", help="check only this net")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("normalize", help="print the sharing/erasing normal form")
    p.add_argument("file")
    p.add_argument("net")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("iso", help="decide isomorphism of two nets")
    p.add_argument("file")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("se-equiv", help="decide equivalence modulo sharing/erasing")
    p.add_argument("file")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_se_equiv)

    p = sub.add_parser("eval", help="evaluate under the discrete stream semantics")
    p.add_argument("file")
    p.add_argument("net")
    p.add_argument("--input", action="append", default=[],
                   help="comma-separated values or a step,value CSV path (one per boundary input)")
    p.add_argument("--budget", type=int, default=100, help="maximum fixpoint sweeps")
    p.add_argument("--scale", default="1.0", help="constant bound to the scale symbol")
    p.add_argument("--divc", default="1.0", help="constant bound to the divc symbol")
    p.add_argument("--out", help="write the output here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("simulate", help="evaluate over a sampled window across a period schedule")
    p.add_argument("file")
    p.add_argument("net")
    p.add_argument("--config", required=True, help="simulation config file")
    p.add_argument("--out", help="write the probe output here instead of stdout")
    p.add_argument("--trace-dir", help="write full per-period traces into this directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("laws", help="check algebraic laws on random nets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="instances per law")
    axiom = p.add_argument("--axiom", choices=_AxiomNames(), metavar="AXIOM",
                           help="check only this law")
    axiom.metavar = None  # set only while adding, which would list the choices
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_laws)

    return parser


class _AxiomNames:
    """The choices of ``laws --axiom``, read from ``laws`` only when a value is
    checked or the help printed, so that building the parser loads no law."""

    def __iter__(self):
        from .laws import ALL_AXIOMS
        return iter(sorted(ALL_AXIOMS))

    def __contains__(self, name) -> bool:
        from .laws import ALL_AXIOMS
        return name in ALL_AXIOMS


# Rebound from outside this module (see its docstring), so looked up here when
# a command runs.

def std_interpretation(scale: float = 1.0, divc: float = 1.0):
    from .stdnets import std_interpretation
    return std_interpretation(scale=scale, divc=divc)


def it_interpretation(delta: float):
    from .stdnets import it_interpretation
    return it_interpretation(delta)


def validate(net: Net, sig: Signature):
    from .nets import validate
    return validate(net, sig)


def delta_independence(net: Net, ct_inputs, sched, probes, tmax, make_interp):
    from .nstime import delta_independence
    return delta_independence(net, ct_inputs, sched, probes, tmax, make_interp)


def _emit_error(exc: KahnetsError, as_json: bool) -> None:
    if as_json:
        payload = {"error": {"code": exc.code, "message": exc.message}}
        if exc.line is not None:
            payload["error"]["line"] = exc.line
            if exc.col is not None:
                payload["error"]["col"] = exc.col
        print(_dumps(payload), file=sys.stderr)
    else:
        print(f"error {exc.format()}", file=sys.stderr)


def _read(path: str, error_class: type[KahnetsError]) -> str:
    """The UTF-8 text of ``path``; raises ``error_class`` if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error_class(f"cannot read {path}: {exc}") from None


def _load(path: str) -> NetDocument:
    from .dsl import parse_document
    return parse_document(_read(path, DslSyntaxError))


def _valid_net(doc: NetDocument, name: str) -> Net:
    """The document's net ``name``, which must pass :func:`validate`.  A parsed
    net that holds its wiring is valid already (see ``NetDef.to_net``)."""
    net = doc.net(name)
    if "wiring" not in vars(net):
        report = validate(net, doc.signature)
        if not report.ok:
            raise DslSyntaxError(f"net {name!r} is invalid: {report.errors[0].message}")
    return net


def net_to_json(net: Net) -> dict:
    w = net.wiring
    ops = list(zip(w.op_ids, w.ops))
    return {
        "m": net.m,
        "n": net.n,
        "ports": list(w.port_ids),
        "operators": [{"id": x, "label": label} for x, (label, _, _) in ops],
        "op_src": [[x, i, w.port_ids[p]] for x, (_, xi, _) in ops for i, p in enumerate(xi)],
        "op_tgt": [[x, j, w.port_ids[p]] for x, (_, _, xo) in ops for j, p in enumerate(xo)],
        "in_tgt": [w.port_ids[p] for p in w.inputs],
        "out_src": [w.port_ids[p] for p in w.outputs],
    }


def _create(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _dumps(payload, **kwargs) -> str:
    """``payload`` as JSON, which has no NaN or Infinity."""
    return json.dumps(payload, allow_nan=False, **kwargs)


def _refuse_non_finite(values: Sequence[float], where: Callable[[int], str]) -> None:
    """An ``out-of-domain`` error, naming ``where(k)``, on the first value
    ``values[k]`` that is not finite."""
    for k, v in enumerate(values):
        if not math.isfinite(v):
            raise OutOfDomain(f"{where(k)} is {v}, not a finite number")


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with _create(out) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    doc = _load(args.file)
    names = [args.net] if args.net else [nd.name for nd in doc.nets]
    results = []
    ok = True
    for name in names:
        report = validate(doc.net(name), doc.signature)
        ok = ok and report.ok
        results.append((name, report))
    if args.json:
        print(_dumps({
            "ok": ok,
            "nets": [{"name": name,
                      "ok": rep.ok,
                      "errors": [{"code": i.code, "message": i.message} for i in rep.errors],
                      "notes": [{"code": i.code, "message": i.message} for i in rep.notes]}
                     for name, rep in results]}, indent=2))
    else:
        for name, rep in results:
            print(f"{name}: {'ok' if rep.ok else 'INVALID'}")
            for issue in rep.errors:
                print(f"  error {issue.code}: {issue.message}")
            for issue in rep.notes:
                print(f"  note {issue.code}: {issue.message}")
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    from .dsl import NetDocument, format_document, net_to_def
    from .rewrite import normalize
    doc = _load(args.file)
    shared = normalize(_valid_net(doc, args.net))
    if args.json:
        print(_dumps({"net": net_to_json(shared.net), "steps": shared.steps}, indent=2))
    else:
        out_doc = NetDocument(doc.signature, (net_to_def(shared.net, args.net),))
        sys.stdout.write(format_document(out_doc))
    return 0


def _cmd_iso(args) -> int:
    from .iso import find_iso
    doc = _load(args.file)
    witness = find_iso(_valid_net(doc, args.net1), _valid_net(doc, args.net2))
    if args.json:
        payload = {"isomorphic": witness is not None}
        if witness is not None:
            payload["port_map"] = {str(k): v for k, v in sorted(witness.port_map.items())}
            payload["op_map"] = {str(k): v for k, v in sorted(witness.op_map.items())}
        print(_dumps(payload, indent=2))
    else:
        print("isomorphic" if witness is not None else "not isomorphic")
    return 0 if witness is not None else 1


def _cmd_se_equiv(args) -> int:
    from .rewrite import se_witness
    doc = _load(args.file)
    witness = se_witness(_valid_net(doc, args.net1), _valid_net(doc, args.net2))
    if args.json:
        print(_dumps({"equivalent": witness is not None}, indent=2))
    else:
        print("equivalent" if witness is not None else "not equivalent")
    return 0 if witness is not None else 1


def _finite_arg(flag: str, text: str) -> float:
    """``text``, given to ``flag``, as a finite number, or a config error."""
    try:
        return _finite(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {flag!r}: {exc}") from None


def _parse_input_spec(spec: str) -> tuple[float, ...]:
    """A ``step,value`` file, or finite numbers split at commas: an empty
    field is refused, and only a blank ``spec`` is the empty stream."""
    if os.path.exists(spec):
        from .config import load_stream_csv
        return load_stream_csv(spec)
    return tuple(_finite_arg("--input", v) for v in spec.split(",")) if spec.strip() else ()


def _cmd_eval(args) -> int:
    from .kahn import denote
    if args.budget < 0:
        raise ConfigError(f"--budget must be at least 0, got {args.budget}")
    scale, divc = _finite_arg("--scale", args.scale), _finite_arg("--divc", args.divc)
    if divc == 0:
        raise ConfigError(f"bad value for '--divc': {args.divc.strip()!r} would divide by zero")
    interp = std_interpretation(scale=scale, divc=divc)
    doc = _load(args.file)
    net = _valid_net(doc, args.net)
    inputs = [_parse_input_spec(spec) for spec in args.input]
    outputs, stats = denote(net, interp, inputs, budget=args.budget, return_stats=True)
    for i, out in enumerate(outputs):
        _refuse_non_finite(out, lambda k: f"output {i} at step {k}")
    if not stats.reached_fixpoint:
        print(f"warning budget-exhausted: no fixpoint within {stats.sweeps} sweeps, "
              f"outputs may be cut short (raise --budget)", file=sys.stderr)

    if args.json:
        _write(_dumps({"outputs": [list(o) for o in outputs], "sweeps": stats.sweeps,
                       "reached_fixpoint": stats.reached_fixpoint}) + "\n", args.out)
        return 0
    headers = ["step"] + (["value"] if net.n == 1 else [f"value{i}" for i in range(net.n)])
    lines = [",".join(headers)]
    depth = max((len(o) for o in outputs), default=0)
    for k in range(depth):
        row = [str(k)] + [(str(o[k]) if k < len(o) else "") for o in outputs]
        lines.append(",".join(row))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .config import parse_config
    doc = _load(args.file)
    net = _valid_net(doc, args.net)
    cfg = parse_config(_read(args.config, ConfigError),
                       base_dir=os.path.dirname(os.path.abspath(args.config)))
    if len(cfg.inputs) != net.m:
        raise ConfigError(f"net {args.net!r} takes {net.m} inputs, config binds {len(cfg.inputs)}")

    indep = delta_independence(net, cfg.inputs, cfg.schedule, cfg.probes, cfg.tmax,
                               it_interpretation)
    deltas = cfg.schedule.deltas
    for row in indep.rows:
        at = f"output {row.output} at probe {row.probe}"
        _refuse_non_finite(row.values, lambda k: f"{at} for period {deltas[k]}")
        _refuse_non_finite((row.spread,), lambda _: f"the spread of {at}")
    if args.trace_dir:
        for d, outs in zip(deltas, indep.outputs):
            for idx, stream in enumerate(outs):
                _refuse_non_finite(stream.values, lambda k: f"output {idx} at step {k} of period {d}")
        try:
            os.makedirs(args.trace_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {args.trace_dir}: {exc}") from None
        for d, outs in zip(deltas, indep.outputs):
            for idx, stream in enumerate(outs):
                path = os.path.join(args.trace_dir, f"trace_out{idx}_delta{d}.csv")
                with _create(path) as handle:
                    handle.write("t,value\n")
                    for k, v in enumerate(stream.values):
                        handle.write(f"{k * d},{v}\n")

    if args.json:
        _write(_dumps({
            "tol": indep.tol,
            "max_spread": indep.max_spread,
            "agree": indep.ok,
            "probes": [{
                "output": row.output,
                "probe": row.probe,
                "values": dict(zip(map(str, deltas), row.values)),
                "spread": row.spread,
                "standard_part": {"converged": row.standard.converged,
                                  "value": row.standard.value},
            } for row in indep.rows]}, indent=2) + "\n", args.out)
        return 0

    lines = ["output,probe,delta,value"]
    for row in indep.rows:
        for d, v in zip(deltas, row.values):
            lines.append(f"{row.output},{row.probe},{d},{v}")
        st = row.standard
        lines.append(f"{row.output},{row.probe},st,{st.value if st.converged else 'nonconvergent'}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_laws(args) -> int:
    from .laws import ALL_AXIOMS, run_suite
    from .randnets import GenParams
    from .stdnets import std_signature
    if args.count < 0:
        raise ConfigError(f"--count must be at least 0, got {args.count}")
    params = GenParams(seed=args.seed, signature=std_signature())
    axioms = [args.axiom] if args.axiom else list(ALL_AXIOMS)
    results = [run_suite(axiom, params, args.count) for axiom in axioms]
    ok = all(r.ok for r in results)
    if args.json:
        print(_dumps({"ok": ok,
                      "suites": [{"axiom": r.axiom, "total": r.total, "passed": r.passed}
                                 for r in results]}, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.axiom}: {r.passed}/{r.total}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
