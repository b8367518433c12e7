"""Workload inputs: net files, configs and seeds, all drawn from the workload seed.

``setup`` writes the files of one workload into a directory together with
``manifest.json``: the rounds of CLI commands to run (one round is one pass
over the workload's distinct commands) and, for each command, what its oracle
expects.  The expectations come from how the inputs were built and from
:mod:`oracles`, never from kahnets.
"""

from __future__ import annotations

import json
import os
import random

import oracles
from oracles import TextNet

# Sampled-time workload: the period schedule and window the paper's
# delta-independence check runs over.  Each period halves the last, so the
# horizon doubles up to 1640 steps; the small window is the smoke test's.
SCHEDULE = "1e-2, 5e-3, 2.5e-3, 1.25e-3"
TMAX = {False: 2.05, True: 0.55}
SIM_TOL = 0.05
SIM_CONFIGS = 8

# The law suites of the CLI at the time the benchmark was defined, kept here
# so that a later change to the catalogue cannot change the workload.
AXIOMS = ("vanishing", "superposing", "yanking", "trace-naturality-left",
          "trace-naturality-right", "sliding", "compose-assoc", "compose-unit",
          "tensor-assoc", "tensor-unit", "interchange", "symmetry-involution",
          "symmetry-naturality", "pairing-left", "pairing-right",
          "pairing-projections", "dup-naturality", "erasure-naturality")
LAW_COUNT = {False: 40, True: 4}
LAW_ROUNDS = 64

# Net sizes spread evenly over the log of this range of operator counts.  The
# range is cut into BIGNET_STRATA slices and each round runs one net from every
# slice; round r takes the r-th of BIGNET_ROUNDS equal steps within each
# slice.  Sizes that vary within a slice make the op times of neighbouring ops
# overlap, so that a run's median falls inside a dense stretch of op times
# rather than in a gap between the times of two fixed sizes, and every seed
# gets the same sizes, so that only the shape of the nets varies with it.
BIGNET_SIZES = {False: (32, 128), True: (8, 16)}
BIGNET_STRATA = 3
# A power of two: rounds are run in bit-reversed order, so that the rounds a
# run has time for beyond whole cycles still cover every size evenly.
BIGNET_ROUNDS = {False: 16, True: 1}
BIGNET_INPUTS = 4
STREAM_LENGTH = 6
_LABEL_WEIGHTS = {"plus": 3, "minus": 3, "alpha": 3, "beta": 2,
                  "scale": 1, "divc": 1, "iota": 1, "eps": 1}
_NON_COMMUTATIVE = ("minus", "alpha", "beta")


def setup(workload: str, seed: int, workdir: str, tiny: bool) -> dict:
    os.makedirs(workdir, exist_ok=True)
    make = {"simulate": _simulate, "laws": _laws, "bignets": _bignets}[workload]
    manifest = {"rounds": make(random.Random(f"{workload}:{seed}"), workdir, tiny)}
    _write(os.path.join(workdir, "manifest.json"), json.dumps(manifest))
    return manifest


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _chain(name: str, ports: str, out: str, ops: list[tuple[str, str, str, str]]) -> TextNet:
    """A 1 -> 1 net from ``src`` to ``out``, ops given as (ident, label, ins, outs)."""
    return TextNet(name, 1, 1, tuple(ports.split()),
                   tuple((x, lab, tuple(i.split()), tuple(o.split())) for x, lab, i, o in ops),
                   ("src",), (out,))


# The integration loop with its feedback path taken through scale and back
# through divc, listed in data-flow order.  The copy listed against data flow
# is the same net up to isomorphism.
_LOOP_OPS = [("weigh", "scale", "src", "scaled"), ("add", "plus", "scaled fb", "acc"),
             ("up", "scale", "acc", "mid"), ("down", "divc", "mid", "back"),
             ("delay", "iota", "back", "fb")]

SIM_NETS = {
    "integration": _chain("integration", "src scaled acc fb", "acc",
                          [("weigh", "scale", "src", "scaled"), ("delay", "iota", "acc", "fb"),
                           ("add", "plus", "scaled fb", "acc")]),
    "loop_flow": _chain("loop_flow", "src scaled acc mid back fb", "acc", _LOOP_OPS),
    "loop_against": _chain("loop_against", "src scaled acc mid back fb", "acc", _LOOP_OPS[::-1]),
    "differentiation": _chain("differentiation", "src shifted diff deriv", "deriv",
                              [("shift", "eps", "src", "shifted"),
                               ("sub", "minus", "shifted src", "diff"),
                               ("div", "divc", "diff", "deriv")]),
}

_CLOSED_FORMS = {"differentiation": oracles.derivative_closed_form}


def _simulate(rng: random.Random, workdir: str, tiny: bool) -> list:
    tmax = TMAX[tiny]
    files = {}
    for name, net in SIM_NETS.items():
        files[name] = os.path.join(workdir, f"{name}.net")
        _write(files[name], oracles.write_document([net]))
    # Probes sit on the coarsest grid, one early in the window and one late.
    steps = round(tmax * 100)
    rounds = []
    for r in range(SIM_CONFIGS):
        a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        probes = [rng.randint(steps // 10, steps // 3) / 100,
                  rng.randint(steps // 2, steps - 15) / 100]
        cfg = os.path.join(workdir, f"input{r}.cfg")
        _write(cfg, "\n".join([
            "delta = 1e-2", f"tmax = {tmax!r}", f"tol = {SIM_TOL!r}", f"schedule = {SCHEDULE}",
            "probes = " + ", ".join(map(repr, probes)),
            f"input.0 = expr: {a!r}*sin({b!r}*t)+{c!r}", ""]))
        ops = []
        for name, path in files.items():
            form = _CLOSED_FORMS.get(name, oracles.integral_closed_form)
            ops.append({"name": f"simulate.{name}",
                        "argv": ["simulate", "--json", path, name, "--config", cfg],
                        "expect": {"kind": "simulate", "tol": SIM_TOL,
                                   "closed": [[t, form(a, b, c, t)] for t in probes]}})
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def _laws(rng: random.Random, workdir: str, tiny: bool) -> list:
    count = LAW_COUNT[tiny]
    rounds = []
    for _ in range(LAW_ROUNDS):
        seed = str(rng.randrange(2 ** 31))
        rounds.append([{"name": f"laws.{axiom}",
                        "argv": ["laws", "--json", "--axiom", axiom, "--seed", seed,
                                 "--count", str(count)],
                        "expect": {"kind": "laws", "axiom": axiom, "count": count}}
                       for axiom in AXIOMS])
    return rounds


# ---------------------------------------------------------------------------
# bignets
# ---------------------------------------------------------------------------

def gen_dag(rng: random.Random, name: str, size: int, m: int) -> TextNet:
    """A loop-free, redex-free net of ``size`` operators with every port driven.

    Each operator reads earlier ports, its first input preferably from an
    operator nothing reads yet, so that almost every operator ends up read by
    another; the other inputs are uniform over all earlier ports, which gives
    fan-out.  Operators still unread at the end are read by boundary outputs.
    """
    ports = [f"in{k}" for k in range(m)]
    owner: dict[str, int] = {}
    unread: list[int] = []
    seen: set[tuple] = set()
    ops = []
    labels, weights = zip(*_LABEL_WEIGHTS.items())
    for x in range(size):
        while True:
            label = rng.choices(labels, weights)[0]
            ar, co = oracles.SIGNATURE[label]
            ins = [rng.choice(ports) for _ in range(ar)]
            if unread and rng.random() < 0.8:
                ins[0] = rng.choice(ops[rng.choice(unread)][3])
            if (label, tuple(ins)) not in seen:
                break
        seen.add((label, tuple(ins)))
        outs = tuple(f"p{len(ports) + j}" for j in range(co))
        for p in ins:
            if p in owner and owner[p] in unread:
                unread.remove(owner[p])
        owner.update((p, x) for p in outs)
        ports.extend(outs)
        unread.append(x)
        ops.append((f"x{x}", label, tuple(ins), outs))
    outputs = [ops[x][3][0] for x in unread]
    outputs += [rng.choice(ports[m:]) for _ in range(max(2, len(outputs) // 2))]
    return TextNet(name, m, len(outputs), tuple(ports), tuple(ops), tuple(ports[:m]), tuple(outputs))


def renumber(rng: random.Random, net: TextNet, name: str) -> TextNet:
    """The same net with operators listed in a shuffled order and ports renamed
    and declared in a shuffled order."""
    names = [f"q{k}" for k in range(len(net.ports))]
    rng.shuffle(names)
    rename = dict(zip(net.ports, names))
    declared = [rename[p] for p in rng.sample(net.ports, len(net.ports))]
    ops = [(f"y{k}", label, tuple(rename[p] for p in ins), tuple(rename[p] for p in outs))
           for k, (_, label, ins, outs) in enumerate(rng.sample(net.ops, len(net.ops)))]
    return TextNet(name, net.m, net.n, tuple(declared), tuple(ops),
                   tuple(rename[p] for p in net.inputs), tuple(rename[p] for p in net.outputs))


def with_outputs(net: TextNet, name: str, outputs) -> TextNet:
    return TextNet(name, net.m, len(outputs), net.ports, net.ops, net.inputs, tuple(outputs))


def dup_then_pair(net: TextNet, name: str) -> TextNet:
    """dup;(f⊗f): two copies of f reading the same boundary input ports."""
    def copy(tag):
        r = {p: (p if p in net.inputs else f"{tag}{p}") for p in net.ports}
        ops = tuple((f"{tag}{x}", lab, tuple(r[p] for p in ins), tuple(r[p] for p in outs))
                    for x, lab, ins, outs in net.ops)
        return r, ops
    ra, ops_a = copy("a")
    rb, ops_b = copy("b")
    ports = net.inputs + tuple(ra[p] for p in net.ports if p not in net.inputs) \
        + tuple(rb[p] for p in net.ports if p not in net.inputs)
    outputs = tuple(ra[p] for p in net.outputs) + tuple(rb[p] for p in net.outputs)
    return TextNet(name, net.m, 2 * net.n, ports, ops_a + ops_b, net.inputs, outputs)


def swap_inputs(rng: random.Random, net: TextNet, name: str) -> TextNet:
    """f with the two (distinct) inputs of one non-commutative operator swapped:
    the label multiset is unchanged, the output terms are not."""
    candidates = [x for x, (_, lab, ins, _) in enumerate(net.ops)
                  if lab in _NON_COMMUTATIVE and ins[0] != ins[1]]
    x = rng.choice(candidates)
    ops = list(net.ops)
    ident, lab, ins, outs = ops[x]
    ops[x] = (ident, lab, (ins[1], ins[0]), outs)
    return TextNet(name, net.m, net.n, net.ports, tuple(ops), net.inputs, net.outputs)


def _bignets(rng: random.Random, workdir: str, tiny: bool) -> list:
    lo, hi = BIGNET_SIZES[tiny]
    count = BIGNET_ROUNDS[tiny]
    bits = count.bit_length() - 1
    rounds = []
    for r in sorted(range(count), key=lambda r: format(r, f"0{bits}b")[::-1]):
        sizes = [round(lo * (hi / lo) ** ((k + (r + 0.5) / count) / BIGNET_STRATA))
                 for k in range(BIGNET_STRATA)]
        rounds.append([op for k, size in enumerate(sizes)
                       for op in _bignet_ops(rng, workdir, size, f"{r}s{k}")])
    return rounds


def _bignet_ops(rng: random.Random, workdir: str, size: int, tag: str) -> list[dict]:
    """The eight ops on one seeded net f of ``size`` operators."""
    f = gen_dag(rng, "f", size, BIGNET_INPUTS)
    fr = renumber(rng, f, "fr")
    fbad = swap_inputs(rng, f, "fbad")
    dupff = dup_then_pair(f, "dupff")
    fdup = with_outputs(f, "fdup", f.outputs + f.outputs)
    dupfbad = dup_then_pair(fbad, "dupfbad")
    ferase = with_outputs(f, "ferase", ())
    terms = oracles.Terms()
    # The verdicts below are known by construction; check the two facts they
    # rest on with the independent term semantics.
    if terms.of(dupff) != terms.of(fdup) or terms.of(f) == terms.of(fbad):
        raise RuntimeError(f"generated nets {tag} do not have the intended meaning")
    ops = []

    def doc(name: str, *nets: TextNet) -> str:
        path = os.path.join(workdir, f"{tag}-{name}.net")
        _write(path, oracles.write_document(list(nets)))
        return path

    def op(name: str, argv: list[str], **expect) -> None:
        ops.append({"name": f"bignets.{name}.{tag}", "argv": argv, "expect": expect})

    path = doc("dupff", dupff)
    op("normalize-dup", ["normalize", path, "dupff"], kind="normalize", source=[path, "dupff"],
       ops=size)
    path = doc("ferase", ferase)
    op("normalize-erase", ["normalize", path, "ferase"], kind="normalize",
       source=[path, "ferase"], ops=0)
    op("se-equiv-yes", ["se-equiv", "--json", doc("se-yes", dupff, fdup), "dupff", "fdup"],
       kind="verdict", field="equivalent", value=True)
    op("se-equiv-no", ["se-equiv", "--json", doc("se-no", dupff, dupfbad), "dupff", "dupfbad"],
       kind="verdict", field="equivalent", value=False, exit=1)
    path = doc("iso-yes", f, fr)
    op("iso-yes", ["iso", "--json", path, "f", "fr"], kind="verdict", field="isomorphic",
       value=True, witness=[path, "f", "fr"])
    op("iso-no", ["iso", "--json", doc("iso-no", f, fbad), "f", "fbad"], kind="verdict",
       field="isomorphic", value=False, exit=1)
    inputs = [[rng.randint(-3, 3) for _ in range(STREAM_LENGTH)] for _ in range(f.m)]
    expected = oracles.evaluate(f, inputs)
    flags = [f"--input={','.join(map(str, s))}" for s in inputs] + ["--budget", str(size + 2)]
    op("eval", ["eval", "--json", doc("f", f), "f"] + flags, kind="eval", outputs=expected)
    op("eval-renumbered", ["eval", "--json", doc("fr", fr), "fr"] + flags, kind="eval",
       outputs=expected)
    return ops
