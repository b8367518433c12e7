"""The numbering contract: exact outputs that depend on how nets are numbered.

``tests/golden/`` holds the ``normalize`` (text and ``--json``) output of every
net in ``fixtures/*.net``, one ``iso --json`` witness, byte for byte, the
JSON form of some random nets, their traces and normal forms, and the
witnesses found between pairs of nets of up to 128 operators.  The
constructions must also number their results the same whether their operands
use sparse ids or dense ones.  It also pins the validation reports of
damaged documents and hand-built nets, the slot dicts that parsed and
constructed nets build from their wiring, the outcome of the law suites, and
what ``denote`` returns and how often it calls an operator on the example nets
and on random nets with a source.
"""

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import random
import sys

import pytest

from kahnets import (GenParams, Interpretation, Net, Signature, StreamFn, compose, const_source,
                     denote, find_iso, gen_random_net, normalize, tensor, trace, validate)
from kahnets.cli import _valid_net, main, net_to_json
from kahnets.dsl import NetDef, NetDocument, format_document, parse_document
from kahnets.errors import KahnetsError
from kahnets.laws import _LAWS, run_suite
from kahnets.nets import _dense, renumbered
from kahnets.stdnets import KINDS, STD_SIG, build, it_interpretation, std_interpretation

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def write_json_lines(path: str, items) -> None:
    """Write ``items`` as a JSON list, one compact item a line."""
    lines = [json.dumps(item, separators=(",", ":")) for item in items]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(lines) + "\n]\n")


def _cases():
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.net"))):
        stem = os.path.basename(path)[:-len(".net")]
        for nd in parse_document(_read(path)).nets:
            yield f"normalize-{stem}-{nd.name}.net", ["normalize", path, nd.name]
            yield f"normalize-{stem}-{nd.name}.json", ["normalize", path, nd.name, "--json"]
    yield ("iso-paper_example-main-renamed.json",
           ["iso", os.path.join(ROOT, "fixtures", "paper_example.net"), "main", "renamed", "--json"])


CASES = list(_cases())


@pytest.mark.parametrize("golden, argv", CASES, ids=[golden for golden, _ in CASES])
def test_cli_output_is_unchanged(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == _read(os.path.join(GOLDEN, golden))


def reversed_ids(net: Net) -> Net:
    """The same net with its port and its operator numbering reversed."""
    last_port, last_op = len(net.ports) - 1, len(net.labels) - 1

    def slot(s):
        return (last_op - s[0], s[1]) if isinstance(s, tuple) else s

    return Net(net.m, net.n, net.ports, {last_op - x: lab for x, lab in net.labels.items()},
               {slot(s): last_port - p for s, p in net.src.items()},
               {slot(s): last_port - p for s, p in net.tgt.items()})


def net_from_json(data: dict) -> Net:
    """The dense net that ``net_to_json`` printed as ``data``."""
    ops = [(op["label"], [], []) for op in data["operators"]]
    assert [op["id"] for op in data["operators"]] == list(range(len(ops)))
    assert data["ports"] == list(range(len(data["ports"])))
    for key, side in (("op_src", 1), ("op_tgt", 2)):
        for x, i, p in data[key]:
            assert len(ops[x][side]) == i
            ops[x][side].append(p)
    return _dense([(lab, tuple(ins), tuple(outs)) for lab, ins, outs in ops],
                  data["in_tgt"], data["out_src"], len(data["ports"]))


def test_constructions_and_witnesses_are_as_before():
    """Random nets, as stored, one more trace of each, their normal forms as
    ``net_to_json`` prints them, and the witness found onto the net with
    reversed numbering."""
    with open(os.path.join(GOLDEN, "random-nets.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    for case in cases:
        net = net_from_json(case["net"])
        assert net_to_json(net) == case["net"]
        assert net_to_json(normalize(net).net) == case["normal"]
        if net.m and net.n:
            assert net_to_json(trace(net, 1)) == case["trace"]
        w = find_iso(net, reversed_ids(net))
        assert [[w.port_map[p] for p in sorted(net.ports)],
                [w.op_map[x] for x in net.operators]] == case["iso"]


# ---------------------------------------------------------------------------
# Witnesses between big nets, pinned slot for slot
# ---------------------------------------------------------------------------

#: 24 stored pairs of nets, each named after how it was drawn: random nets
#: of 22 to 124 operators against a copy with permuted ports; closed nets of
#: several identical components, and rings of same-label operators, against
#: shuffled copies (two of these pairs are not isomorphic, and only the
#: search tells them apart); and pairs of equal wirings.
ISO_BIG = os.path.join(GOLDEN, "iso-big.json")


def iso_json(a: Net, b: Net):
    """The witness ``find_iso`` gives from ``a`` onto ``b``: the image of
    each port and of each operator, in order, or None."""
    w = find_iso(a, b)
    return None if w is None else [[w.port_map[p] for p in sorted(a.ports)],
                                   [w.op_map[x] for x in a.operators]]


def write_iso_big() -> None:
    """Write the witness of each stored pair of ``tests/golden/iso-big.json``
    into its ``iso`` field, one pair a line; the nets are kept as stored."""
    with open(ISO_BIG, encoding="utf-8") as handle:
        cases = json.load(handle)
    write_json_lines(ISO_BIG, [{**case, "iso": iso_json(net_from_json(case["a"]),
                                                        net_from_json(case["b"]))}
                               for case in cases])


def test_witnesses_between_big_nets_are_as_before():
    """The witnesses between the stored nets of ``iso-big.json``."""
    with open(ISO_BIG, encoding="utf-8") as handle:
        cases = json.load(handle)
    assert sum(case["iso"] is None for case in cases) == 2
    for case in cases:
        a, b = net_from_json(case["a"]), net_from_json(case["b"])
        assert iso_json(a, b) == case["iso"], case["name"]


def sparse(net: Net, rng: random.Random) -> Net:
    """The same net with ports and operators moved to sparse ids, in order."""
    ports = {p: 3 * p + rng.randint(1, 2) for p in net.ports}
    ops = {x: 5 * x + 2 for x in net.labels}

    def slot(s):
        return (ops[s[0]], s[1]) if isinstance(s, tuple) else s

    return Net(net.m, net.n, frozenset(ports.values()),
               {ops[x]: lab for x, lab in net.labels.items()},
               {slot(s): ports[p] for s, p in net.src.items()},
               {slot(s): ports[p] for s, p in net.tgt.items()})


def same(a: Net, b: Net) -> bool:
    return ((a.m, a.n, a.ports, a.labels, a.src, a.tgt)
            == (b.m, b.n, b.ports, b.labels, b.src, b.tgt))


def test_sparse_ports_example():
    net = Net(1, 1, {0, 5}, {3: "scale"}, {(3, 0): 0, 0: 5}, {(3, 0): 5, 0: 0})
    dense = renumbered(net)
    assert (dense.ports, dense.labels, dense.src, dense.tgt) == (
        {0, 1}, {0: "scale"}, {(0, 0): 0, 0: 1}, {(0, 0): 1, 0: 0})
    assert same(compose(net, net), compose(dense, dense))
    assert same(tensor(net, net), tensor(dense, dense))
    assert same(trace(tensor(net, net), 1), trace(tensor(dense, dense), 1))


def test_constructions_ignore_sparse_ids():
    rng = random.Random(3)
    for seed in range(150):
        a = gen_random_net(GenParams(seed=seed, signature=STD_SIG, max_operators=8))
        b = gen_random_net(GenParams(seed=seed + 1000, signature=STD_SIG, max_operators=8))
        sa, sb = sparse(a, rng), sparse(b, rng)
        da, db = renumbered(sa), renumbered(sb)
        assert same(da, a) and same(db, b)
        assert same(tensor(sa, sb), tensor(da, db))
        if a.n == b.m:
            assert same(compose(sa, sb), compose(da, db))
        for x in range(1, min(a.m, a.n) + 1):
            assert same(trace(sa, x), trace(da, x))


# ---------------------------------------------------------------------------
# Validation reports, pinned byte for byte
# ---------------------------------------------------------------------------

VALIDATION = os.path.join(GOLDEN, "validation-reports.json")

#: Hand-written documents that parse but break the wiring: a port with two
#: producers, a boundary input on a port an operator also drives, one
#: operator driving a port twice, and nets whose only findings are notes.
_SIG = "sig f 1 1\nsig g 1 2\nsig h 2 1\n"
VALIDATION_TEXTS = tuple(_SIG + body for body in (
    "net n : 1 -> 1\n  ports p q\n  op x f (p) -> (q)\n  op y f (p) -> (q)\n  in p\n  out q\n",
    "net n : 1 -> 1\n  ports p q\n  op x f (q) -> (p)\n  in p\n  out q\n",
    "net n : 2 -> 1\n  ports p q\n  op x h (p q) -> (q)\n  in p p\n  out q\n",
    "net n : 1 -> 2\n  ports p q\n  op x g (p) -> (q q)\n  in p\n  out q q\n",
    "net n : 1 -> 1\n  ports p q r\n  op x f (p) -> (q)\n  op y f (q) -> (q)\n"
    "  op z g (r) -> (q r)\n  in q\n  out r\n",
    "net n : 0 -> 1\n  ports p q r\n  op x f (p) -> (q)\n  out q\n",
    "net n : 0 -> 0\n  ports p\n",
    "net a : 1 -> 1\n  ports p\n  in p\n  out p\n\n"
    "net b : 1 -> 1\n  ports p q\n  op x f (p) -> (p)\n  in q\n  out p\n",
))


def damaged_wiring(rng: random.Random) -> str:
    """A fixture document with one net rewired one to three times: a port
    reference of an operator or of the boundary moved to another declared
    port, a fresh port declared, or an operator deleted.  It is printed
    canonically, so it parses; whether it validates is up to the damage."""
    paths = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.net")))
    doc = parse_document(_read(rng.choice(paths)))
    nets = list(doc.nets)
    k = rng.randrange(len(nets))
    nd = nets[k]
    ports, ops = list(nd.ports), list(nd.ops)
    boundary = {"in": list(nd.inputs), "out": list(nd.outputs)}
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("ins", "outs", "outs", "in", "out", "port", "drop"))
        if kind in ("ins", "outs") and ops:
            x = rng.randrange(len(ops))
            side = list(getattr(ops[x], kind))
            if side:
                side[rng.randrange(len(side))] = rng.choice(ports)
                ops[x] = dataclasses.replace(ops[x], **{kind: tuple(side)})
        elif kind in boundary:
            side = boundary[kind]
            if side:
                side[rng.randrange(len(side))] = rng.choice(ports)
        elif kind == "port":
            ports.append(f"fresh{len(ports)}")
        elif ops:
            del ops[rng.randrange(len(ops))]
    nets[k] = NetDef(nd.name, nd.m, nd.n, tuple(ports), tuple(ops),
                     tuple(boundary["in"]), tuple(boundary["out"]))
    return format_document(NetDocument(doc.signature, tuple(nets)))


def malformed_nets() -> list[Net]:
    """Hand-built nets that break the definition in every way ``validate``
    reports, several ways at once in some."""
    paper = build("paper_example")
    return [
        Net(paper.m, paper.n, paper.ports, paper.labels, paper.src, {**paper.tgt, (1, 1): 3}),
        Net(0, 0, frozenset({0}), {0: "gamma"}, {}, {(0, 0): 7}),
        Net(1, 1, frozenset({0, 1}), {0: "iota"}, {0: 1}, {0: 0, (0, 0): 1}),
        Net(0, 1, frozenset({0}), {}, {0: 0}, {}),
        Net(1, 1, {0}, {0: "scale"}, {(0, 1): 0, 0: 0}, {0: 0}),
        Net(1, 1, frozenset({0, 5}), {}, {0: 0}, {0: 0}),
        Net(1, 1, {2, 7, 9}, {4: "beta"}, {(4, 0): 2, 0: 7}, {(4, 0): 7, (4, 1): 9, 0: 2}),
        Net(-1, 2, {0, 1, 2}, {0: "alpha", 3: "gamma", 4: "beta"},
            {(0, 0): 1, (0, 2): 0, (3, 0): 1, (4, 0): 2, (4, 1): 8, 0: 2, 2: 5, "x": 1},
            {(0, 0): 2, (4, 0): 2, (4, 1): 2, (9, 0): 1, 0: 1, -1: 0}),
        Net(2, 0, {0, 1, 2, 3}, {1: "iota", 2: "iota"}, {(1, 0): 0, (2, 0): 0},
            {(1, 0): 1, (2, 0): 1, 0: 1, 1: 1}),
    ]


def report_json(report) -> dict:
    return {"errors": [[i.code, i.message] for i in report.errors],
            "notes": [[i.code, i.message] for i in report.notes]}


def validation_outcome(path: str) -> dict:
    """``check --json`` on the file (exit code and stdout), and the error line
    :func:`kahnets.cli._valid_net` gives each of its nets (None when valid)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", path, "--json"])
    doc = parse_document(_read(path))
    lines = {}
    for nd in doc.nets:
        try:
            _valid_net(doc, nd.name)
            lines[nd.name] = None
        except KahnetsError as exc:
            lines[nd.name] = f"error {exc.format()}"
    return {"exit": code, "check": out.getvalue(), "valid_net": lines}


def validation_texts(count: int = 120) -> list[tuple[object, str]]:
    """(seed, text) of every document the golden covers: the damaged documents
    of ``dsl-errors.json`` that parse, ``count`` documents from
    :func:`damaged_wiring`, one seeded ``random.Random(i)`` each, and
    ``VALIDATION_TEXTS``."""
    with open(os.path.join(GOLDEN, "dsl-errors.json"), encoding="utf-8") as handle:
        texts = [(f"dsl-errors {case['seed']}", case["text"])
                 for case in json.load(handle) if "document" in case]
    texts += [(seed, damaged_wiring(random.Random(seed))) for seed in range(count)]
    return texts + [(None, text) for text in VALIDATION_TEXTS]


def write_validation_reports(workdir: str) -> None:
    """Write ``tests/golden/validation-reports.json``."""
    documents = []
    path = os.path.join(workdir, "doc.net")
    for seed, text in validation_texts():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        documents.append({"seed": seed, "text": text, **validation_outcome(path)})
    nets = [report_json(validate(net, STD_SIG)) for net in malformed_nets()]
    with open(VALIDATION, "w", encoding="utf-8") as handle:
        json.dump({"documents": documents, "nets": nets}, handle, indent=1)
        handle.write("\n")


def test_validation_reports_are_as_pinned(tmp_path):
    """``check --json``, the ``_valid_net`` error line and ``validate`` give the
    same codes, messages and order as pinned in
    ``tests/golden/validation-reports.json``."""
    with open(VALIDATION, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [(case["seed"], case["text"]) for case in golden["documents"]] == validation_texts()
    path = str(tmp_path / "doc.net")
    for case in golden["documents"]:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case["text"])
        expected = {k: case[k] for k in ("exit", "check", "valid_net")}
        assert validation_outcome(path) == expected, case["seed"]
    assert [report_json(validate(net, STD_SIG)) for net in malformed_nets()] == golden["nets"]


# ---------------------------------------------------------------------------
# Slot dicts, pinned in order
# ---------------------------------------------------------------------------

SLOT_DICTS = os.path.join(GOLDEN, "slot-dicts.json")
RANDOM_WIRINGS = os.path.join(GOLDEN, "random-net-wirings.json")


def slot_dicts(net: Net) -> dict:
    """The net's boundary arities and slot dicts, in their iteration order."""
    def items(mapping):
        return [[list(s) if isinstance(s, tuple) else s, p] for s, p in mapping.items()]

    return {"m": net.m, "n": net.n, "ports": sorted(net.ports), "labels": items(net.labels),
            "src": items(net.src), "tgt": items(net.tgt)}


def slot_dict_nets() -> list[tuple[str, Net]]:
    """Every net of ``fixtures/*.net`` as parsed, and the random nets of
    ``tests/golden/random-net-wirings.json`` built from their wiring."""
    nets = []
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.net"))):
        doc = parse_document(_read(path))
        nets += [(f"{os.path.basename(path)} {nd.name}", doc.net(nd.name)) for nd in doc.nets]
    with open(RANDOM_WIRINGS, encoding="utf-8") as handle:
        return nets + [(name, net_from_json(data)) for name, data in json.load(handle).items()]


def write_slot_dicts() -> None:
    """Write ``tests/golden/slot-dicts.json`` from the nets of
    :func:`slot_dict_nets`; the stored wirings they read are kept as they are."""
    with open(SLOT_DICTS, "w", encoding="utf-8") as handle:
        json.dump({name: slot_dicts(net) for name, net in slot_dict_nets()}, handle, indent=1)
        handle.write("\n")


def test_slot_dicts_are_as_pinned():
    """The slot dicts a parsed or constructed net builds from its wiring when
    they are first read equal, in content and order, those pinned in
    ``tests/golden/slot-dicts.json``."""
    with open(SLOT_DICTS, encoding="utf-8") as handle:
        golden = json.load(handle)
    nets = slot_dict_nets()
    assert [name for name, _ in nets] == list(golden)
    for name, net in nets:
        assert slot_dicts(net) == golden[name], name


# ---------------------------------------------------------------------------
# Law suites, pinned instance for instance
# ---------------------------------------------------------------------------

LAW_SUITES = os.path.join(GOLDEN, "law-suites.json")


def law_suites() -> list[dict]:
    """Every law's suite of 40 instances at seeds 0-2: its passed and total
    counts and each recorded failure's axiom, home and both sides."""
    out = []
    for seed in range(3):
        for axiom in _LAWS:
            result = run_suite(axiom, GenParams(seed=seed, signature=STD_SIG), 40)
            out.append({"seed": seed, "axiom": axiom, "passed": result.passed,
                        "total": result.total,
                        "failures": [{"axiom": f.axiom, "home": f.home, "lhs": net_to_json(f.lhs),
                                      "rhs": net_to_json(f.rhs)} for f in result.failures]})
    return out


def write_law_suites() -> None:
    """Write ``tests/golden/law-suites.json``, one suite a line."""
    write_json_lines(LAW_SUITES, law_suites())


def test_law_suites_are_as_pinned():
    """The law suites draw, pass and fail the same instances as pinned in
    ``tests/golden/law-suites.json``."""
    with open(LAW_SUITES, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert law_suites() == golden


# ---------------------------------------------------------------------------
# Denotations, pinned evaluation for evaluation
# ---------------------------------------------------------------------------

DENOTE = os.path.join(GOLDEN, "denote.json")
WITH_SOURCE = Signature({**STD_SIG.symbols, "src": (0, 1)})


def counting(interp: Interpretation, keep_steps: bool, calls: list[int]) -> Interpretation:
    """The same bindings, each call of a ``fn`` or ``step`` counted in
    ``calls[0]``; without their steps unless ``keep_steps``."""
    def counted(f):
        def call(*args):
            calls[0] += 1
            return f(*args)
        return call

    return Interpretation({name: StreamFn(f.ins, f.outs, counted(f.fn), f.name,
                                          step=counted(f.step) if keep_steps and f.step else None)
                           for name, f in interp.bindings.items()})


def denote_case(name: str, net: Net) -> dict:
    """The net evaluated on random inputs under the standard and the sampled
    interpretation (with a source ``src``), with steps kept and stripped, at
    budgets 0, 1, 2, 7 and 30 and windows None and 4: 40 evaluations.  Each
    one's sweep count, fixpoint flag and operator-call count are listed, and a
    digest covers every output stream and ``DenoteStats`` as well."""
    rng = random.Random(f"denote:{name}")
    ins = [tuple(float(rng.randint(-4, 4)) for _ in range(rng.randint(0, 12)))
           for _ in range(net.m)]
    records, calls = [], [0]
    for interp in (std_interpretation(), it_interpretation(0.5)):
        interp = Interpretation({**interp.bindings, "src": const_source(3.0)})
        for keep_steps in (True, False):
            counted = counting(interp, keep_steps, calls)
            for budget in (0, 1, 2, 7, 30):
                for max_len in (None, 4):
                    calls[0] = 0
                    outs, stats = denote(net, counted, ins, budget, max_len=max_len,
                                         return_stats=True)
                    records.append((outs, dataclasses.astuple(stats), calls[0]))
    return {"name": name,
            "digest": hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16],
            "sweeps": [stats[0] for _, stats, _ in records],
            "fixpoint": "".join("01"[stats[1]] for _, stats, _ in records),
            "calls": [n for _, _, n in records]}


def denote_cases() -> list[dict]:
    """:func:`denote_case` on the example nets and on 400 random nets of up
    to 10 operators over the standard signature and a source."""
    nets = [(kind, build(kind)) for kind in KINDS] + [
        (f"seed {seed}", gen_random_net(GenParams(seed=seed, signature=WITH_SOURCE,
                                                  max_operators=10)))
        for seed in range(400)]
    return [denote_case(name, net) for name, net in nets]


def write_denote() -> None:
    """Write ``tests/golden/denote.json``, one net a line."""
    write_json_lines(DENOTE, denote_cases())


def test_denotations_are_as_pinned():
    """``denote`` gives the outputs, ``DenoteStats`` and operator-call counts
    pinned in ``tests/golden/denote.json`` on all 16,200 evaluations."""
    with open(DENOTE, encoding="utf-8") as handle:
        golden = json.load(handle)
    cases = denote_cases()
    assert [case["name"] for case in cases] == [case["name"] for case in golden]
    for case, want in zip(cases, golden):
        assert case == want, case["name"]


if __name__ == "__main__":
    # python tests/test_golden.py --write-golden  (with src/ on PYTHONPATH)
    if sys.argv[1:] == ["--write-golden"]:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            write_validation_reports(tmp)
        write_slot_dicts()
        write_iso_big()
        write_law_suites()
        write_denote()
