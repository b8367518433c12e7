"""The numbering contract: exact outputs that depend on how nets are numbered.

``tests/golden/`` holds the ``normalize`` (text and ``--json``) output of every
net in ``fixtures/*.net``, one ``iso --json`` witness, byte for byte, and the
JSON form of some random nets, their traces and normal forms.  The
constructions must also number their results the same whether their operands
use sparse ids or dense ones.
"""

import glob
import json
import os
import random

import pytest

from kahnets import GenParams, Net, compose, find_iso, gen_random_net, normalize, tensor, trace
from kahnets.cli import main, net_to_json
from kahnets.dsl import parse_document
from kahnets.nets import renumbered
from kahnets.stdnets import STD_SIG

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


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


def test_constructions_and_witnesses_are_as_before():
    """Random nets (built by compose/tensor/trace), one more trace of each,
    their normal forms as ``net_to_json`` prints them, and the witness found
    onto the net with reversed numbering."""
    with open(os.path.join(GOLDEN, "random-nets.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    for case in cases:
        net = gen_random_net(GenParams(seed=case["seed"], signature=STD_SIG, max_operators=10))
        assert net_to_json(net) == case["net"]
        assert net_to_json(normalize(net).net) == case["normal"]
        if net.m and net.n:
            assert net_to_json(trace(net, 1)) == case["trace"]
        w = find_iso(net, reversed_ids(net))
        assert [[w.port_map[p] for p in sorted(net.ports)],
                [w.op_map[x] for x in net.operators]] == case["iso"]


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
