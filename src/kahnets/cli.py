"""Command-line interface.

Subcommands::

    check FILE [NET]            validate nets (exit 1 if any invalid)
    normalize FILE NET          print the shared normal form as DSL
    iso FILE NET1 NET2          exit 0 when isomorphic, 1 when not
    se-equiv FILE NET1 NET2     same, modulo sharing/erasing rewriting
    eval FILE NET --input ...   run the discrete stream semantics, emit CSV
    simulate FILE NET --config  run the sampled-time semantics over a schedule
    laws [--axiom NAME]         check algebraic laws on random nets

Exit codes: 0 ok, 1 property/iso failure, 2 usage or file errors,
3 evaluation errors.  Every error prints one machine-readable line
``error <code>: <message>`` on stderr (or a JSON object with ``--json``).
When ``eval`` runs out of sweeps before its fixpoint, it still prints the
outputs and exits 0, after one ``warning budget-exhausted: <message>`` line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .config import load_stream_csv, parse_config
from .dsl import NetDocument, format_document, net_to_def, parse_document
from .errors import ConfigError, DslSyntaxError, KahnetsError, UndeclaredPort
from .iso import find_iso
from .kahn import denote
from .laws import ALL_AXIOMS, run_suite
from .nets import Net, validate
from .nstime import delta_independence
from .randnets import GenParams
from .rewrite import normalize, se_witness
from .stdnets import it_interpretation, std_interpretation, std_signature


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KahnetsError as exc:
        _emit_error(exc, getattr(args, "json", False))
        if isinstance(exc, (DslSyntaxError, UndeclaredPort, ConfigError)) or exc.line is not None:
            return 2
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kahnets", description=__doc__,
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
    p.add_argument("--scale", type=float, default=1.0, help="constant bound to the scale symbol")
    p.add_argument("--divc", type=float, default=1.0, help="constant bound to the divc symbol")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("simulate", help="evaluate over a sampled window across a period schedule")
    p.add_argument("file")
    p.add_argument("net")
    p.add_argument("--config", required=True, help="simulation config file")
    p.add_argument("--out", help="write the probe CSV here instead of stdout")
    p.add_argument("--trace-dir", help="write full per-period traces into this directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("laws", help="check algebraic laws on random nets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="instances per law")
    p.add_argument("--axiom", choices=sorted(ALL_AXIOMS), help="check only this law")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_laws)

    return parser


def _emit_error(exc: KahnetsError, as_json: bool) -> None:
    if as_json:
        payload = {"error": {"code": exc.code, "message": exc.message}}
        if exc.line is not None:
            payload["error"]["line"] = exc.line
            if exc.col is not None:
                payload["error"]["col"] = exc.col
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error {exc.format()}", file=sys.stderr)


def _load(path: str) -> NetDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DslSyntaxError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


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
        print(json.dumps({
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
    doc = _load(args.file)
    shared = normalize(doc.net(args.net))
    if args.json:
        print(json.dumps({"net": net_to_json(shared.net), "steps": shared.steps}, indent=2))
    else:
        out_doc = NetDocument(doc.signature, (net_to_def(shared.net, args.net),))
        sys.stdout.write(format_document(out_doc))
    return 0


def _cmd_iso(args) -> int:
    doc = _load(args.file)
    witness = find_iso(doc.net(args.net1), doc.net(args.net2))
    if args.json:
        payload = {"isomorphic": witness is not None}
        if witness is not None:
            payload["port_map"] = {str(k): v for k, v in sorted(witness.port_map.items())}
            payload["op_map"] = {str(k): v for k, v in sorted(witness.op_map.items())}
        print(json.dumps(payload, indent=2))
    else:
        print("isomorphic" if witness is not None else "not isomorphic")
    return 0 if witness is not None else 1


def _cmd_se_equiv(args) -> int:
    doc = _load(args.file)
    witness = se_witness(doc.net(args.net1), doc.net(args.net2))
    if args.json:
        print(json.dumps({"equivalent": witness is not None}, indent=2))
    else:
        print("equivalent" if witness is not None else "not equivalent")
    return 0 if witness is not None else 1


def _parse_input_spec(spec: str) -> tuple[float, ...]:
    if os.path.exists(spec):
        return load_stream_csv(spec)
    try:
        return tuple(float(v) for v in spec.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"--input {spec!r} is neither a file nor a comma-separated list") from None


def _cmd_eval(args) -> int:
    if args.budget < 0:
        raise ConfigError(f"--budget must be at least 0, got {args.budget}")
    doc = _load(args.file)
    net = doc.net(args.net)
    report = validate(net, doc.signature)
    if not report.ok:
        raise DslSyntaxError(f"net {args.net!r} is invalid: {report.errors[0].message}")
    inputs = [_parse_input_spec(spec) for spec in args.input]
    interp = std_interpretation(scale=args.scale, divc=args.divc)
    outputs, stats = denote(net, interp, inputs, budget=args.budget, return_stats=True)
    if not stats.reached_fixpoint:
        print(f"warning budget-exhausted: no fixpoint within {stats.sweeps} sweeps, "
              f"outputs may be cut short (raise --budget)", file=sys.stderr)

    if args.json:
        print(json.dumps({"outputs": [list(o) for o in outputs], "sweeps": stats.sweeps,
                          "reached_fixpoint": stats.reached_fixpoint}))
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
    doc = _load(args.file)
    net = doc.net(args.net)
    report = validate(net, doc.signature)
    if not report.ok:
        raise DslSyntaxError(f"net {args.net!r} is invalid: {report.errors[0].message}")
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from None
    cfg = parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if len(cfg.inputs) != net.m:
        raise ConfigError(f"net {args.net!r} takes {net.m} inputs, config binds {len(cfg.inputs)}")

    indep = delta_independence(net, cfg.inputs, cfg.schedule, cfg.probes, cfg.tmax,
                               it_interpretation)

    if args.trace_dir:
        try:
            os.makedirs(args.trace_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {args.trace_dir}: {exc}") from None
        for d, outs in zip(cfg.schedule.deltas, indep.outputs):
            for idx, stream in enumerate(outs):
                path = os.path.join(args.trace_dir, f"trace_out{idx}_delta{d}.csv")
                with _create(path) as handle:
                    handle.write("t,value\n")
                    for k, v in enumerate(stream.values):
                        handle.write(f"{k * d},{v}\n")

    if args.json:
        print(json.dumps({
            "tol": indep.tol,
            "max_spread": indep.max_spread,
            "agree": indep.ok,
            "probes": [{
                "output": row.output,
                "probe": row.probe,
                "values": dict(zip(map(str, cfg.schedule.deltas), row.values)),
                "spread": row.spread,
                "standard_part": {"converged": row.standard.converged,
                                  "value": row.standard.value},
            } for row in indep.rows]}, indent=2))
        return 0

    lines = ["output,probe,delta,value"]
    for row in indep.rows:
        for d, v in zip(cfg.schedule.deltas, row.values):
            lines.append(f"{row.output},{row.probe},{d},{v}")
        st = row.standard
        lines.append(f"{row.output},{row.probe},st,{st.value if st.converged else 'nonconvergent'}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_laws(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be at least 0, got {args.count}")
    params = GenParams(seed=args.seed, signature=std_signature())
    axioms = [args.axiom] if args.axiom else list(ALL_AXIOMS)
    results = [run_suite(axiom, params, args.count) for axiom in axioms]
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({"ok": ok,
                          "suites": [{"axiom": r.axiom, "total": r.total, "passed": r.passed}
                                     for r in results]}, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.axiom}: {r.passed}/{r.total}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
