"""What importing kahnets, and running each command, loads.

Every case runs in a fresh interpreter, because what a process has imported
cannot be undone: ``import kahnets`` and ``import kahnets.cli`` load no layer
of the package, and each command loads only the layers it runs.  The package
still offers every public name it always has, and the ``laws`` help, whose
choices are read without loading ``laws`` at parser build time, prints as it
always has.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")

#: Runs ``cli.main`` on its arguments with stdout and stderr captured, then
#: prints one JSON object: the exit status, both outputs and the kahnets
#: modules loaded (``kahnets.`` left out).
RUN_CLI = """
import contextlib, io, json, sys
from kahnets import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "kahnets")
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(), "loaded": loaded}))
"""


def fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports kahnets from
    this checkout."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_cli(*argv: str) -> dict:
    return json.loads(fresh(RUN_CLI, *argv))


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def test_importing_the_package_and_the_cli_loads_no_layer():
    loaded = "import sys, kahnets{}; print(sorted(m for m in sys.modules if m.startswith('kahnets')))"
    assert fresh(loaded.format("")) == "['kahnets']\n"
    assert fresh(loaded.format(".cli")) == "['kahnets', 'kahnets.cli', 'kahnets.errors']\n"
    run = run_cli("--version")
    assert (run["code"], run["out"]) == (0, "kahnets 0.1.0\n")
    assert run["loaded"] == ["cli", "errors", "kahnets"]


GRAPH_ONLY = {"rewrite", "laws", "randnets", "kahn", "stdnets", "nstime", "config", "exprs"}


@pytest.mark.parametrize("argv, unloaded", [
    (["check", fx("paper_example.net")], GRAPH_ONLY),
    (["iso", fx("paper_example.net"), "main", "renamed"], GRAPH_ONLY),
    (["normalize", fx("paper_example.net"), "main"], GRAPH_ONLY - {"rewrite"}),
    (["se-equiv", fx("paper_example.net"), "main", "renamed"], GRAPH_ONLY - {"rewrite"}),
    (["eval", fx("running_sum.net"), "main", "--input", "1,2,3"],
     {"laws", "randnets", "rewrite", "iso"}),
    (["simulate", fx("integration.net"), "main", "--config", fx("sin01.cfg")],
     {"laws", "randnets", "rewrite", "iso"}),
    (["laws", "--count", "1"], {"dsl", "nstime", "config", "exprs"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_command_loads_only_its_layers(argv, unloaded):
    run = run_cli(*argv)
    assert run["code"] == 0, run["err"]
    assert unloaded.isdisjoint(run["loaded"]), run["loaded"]


#: The package's public names, as they were when it imported every layer.
PUBLIC_NAMES = [
    "ArityMismatch", "ArityTooSmall", "BOT", "CheckResult", "ConfigError", "CtFn",
    "DeltaSchedule", "DslSyntaxError", "GenParams", "Interpretation", "ItStream", "KINDS",
    "KahnetsError", "MissingBinding", "MonotonicityViolation", "Net", "NetDef", "NetDocument",
    "NetIso", "NonProductive", "OpDef", "OutOfDomain", "Redex", "STD_SIG", "SamplingPeriod",
    "SharedNet", "Signature", "StaleRedex", "StandardPart", "Stream", "StreamFn", "SuiteResult",
    "UndeclaredPort", "UnknownKind", "UnknownSymbol", "ValidationReport", "apply_redex",
    "as_stream_fn", "build", "causal", "check_axiom", "check_functoriality", "compose",
    "const_source", "default_schedule", "delta_independence", "denote", "denote_it",
    "derivative_at", "divc_fn", "dsl", "duplication", "eps_fn", "erasure", "errors", "find_iso",
    "format_document", "gen_net", "gen_random_net", "generator", "identity", "identity_iso",
    "integral", "iota_fn", "is_prefix", "is_shared", "iso", "it_interpretation", "kahn", "laws",
    "minus_fn", "net_to_def", "nets", "normalize", "nstime", "parse_document", "plus_fn",
    "pointwise", "projection", "randnets", "redexes", "rewrite", "run_suite", "sample",
    "scale_fn", "se_equivalent", "se_witness", "stable_floor", "standard_part", "standardize",
    "std_interpretation", "std_signature", "stdnets", "structural", "symmetry", "tensor", "trace",
    "trace_fn", "validate",
]
SUBMODULES = ["cli", "config", "dsl", "errors", "exprs", "iso", "kahn", "laws", "nets", "nstime",
              "randnets", "rewrite", "stdnets"]

CHECK_NAMES = """
import json, sys
import kahnets
names = list(kahnets.__all__)
star = {}
exec("from kahnets import *", star)
modules = {n: getattr(kahnets, n) is sys.modules["kahnets." + n] for n in sys.argv[1:]}
print(json.dumps({
    "all": names,
    "star": sorted(n for n in star if not n.startswith("__")),
    "modules": modules,
    "dir": sorted(set(names + sys.argv[1:]) - set(dir(kahnets))),
}))
try:
    kahnets.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_every_public_name_and_submodule_resolves():
    report, missing = fresh(CHECK_NAMES, *SUBMODULES).splitlines()
    report = json.loads(report)
    assert report["all"] == PUBLIC_NAMES
    assert report["star"] == PUBLIC_NAMES
    assert report["modules"] == {name: True for name in SUBMODULES}
    assert report["dir"] == []
    assert missing == "module 'kahnets' has no attribute 'no_such_name'"


LAWS_HELP = """\
usage: kahnets laws [-h] [--seed SEED] [--count COUNT]
                    [--axiom {compose-assoc,compose-unit,dup-naturality,erasure-naturality,interchange,pairing-left,pairing-projections,pairing-right,sliding,superposing,symmetry-involution,symmetry-naturality,tensor-assoc,tensor-unit,trace-naturality-left,trace-naturality-right,vanishing,yanking}]
                    [--json]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --count COUNT         instances per law
  --axiom {compose-assoc,compose-unit,dup-naturality,erasure-naturality,interchange,pairing-left,pairing-projections,pairing-right,sliding,superposing,symmetry-involution,symmetry-naturality,tensor-assoc,tensor-unit,trace-naturality-left,trace-naturality-right,vanishing,yanking}
                        check only this law
  --json
"""

BAD_AXIOM = (
    "error usage-error: argument --axiom: invalid choice: 'nope' (choose from 'compose-assoc', "
    "'compose-unit', 'dup-naturality', 'erasure-naturality', 'interchange', 'pairing-left', "
    "'pairing-projections', 'pairing-right', 'sliding', 'superposing', 'symmetry-involution', "
    "'symmetry-naturality', 'tensor-assoc', 'tensor-unit', 'trace-naturality-left', "
    "'trace-naturality-right', 'vanishing', 'yanking')\n")


def test_laws_choices_print_as_before():
    run = run_cli("laws", "--help")
    assert (run["code"], run["out"], run["err"]) == (0, LAWS_HELP, "")
    run = run_cli("laws", "--axiom", "nope")
    assert (run["code"], run["out"], run["err"]) == (2, "", BAD_AXIOM)
    assert "dsl" not in run["loaded"]
