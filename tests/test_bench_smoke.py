"""The benchmark runs end to end on tiny inputs and every answer checks out.

``bench/run.py --smoke`` drives the CLI through every workload, untraced and
traced, and compares each answer with an oracle that does not use kahnets.
A change under ``src/`` that breaks an interface the benchmark relies on
fails here rather than only when the benchmark is next run.  So does one that
moves a traced function out of the tracer's reach: a layer the workload runs
then reads 0 calls.  The span files the traced runs write are removed after
the run.
"""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

#: Per-round counts that each traced workload's layers must reach.
REACHED = {
    "simulate/1": ("kahn.operator_calls", "nstime.denote_it.calls", "dsl.parse_document.calls"),
    "laws/1": ("laws.instances", "iso.find_iso.calls", "nets.compose.calls",
               "rewrite.normalize.calls", "nets.renumbered.calls"),
    "bignets/1": ("dsl.parse_document.calls", "rewrite.normalize.calls", "iso.find_iso.calls",
                  "kahn.operator_calls", "nets.renumbered.calls"),
}


def test_smoke_run_is_correct():
    spans = os.path.join(ROOT, ".bench_work", "spans-*.csv.gz")
    before = set(glob.glob(spans))
    try:
        done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke"],
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=600)
    finally:
        for path in set(glob.glob(spans)) - before:
            os.remove(path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()
            if re.match(r"(simulate|laws|bignets)/[01] ", line)]
    assert len(rows) == 6, done.stdout
    for row in rows:
        assert " failed=0 correct=True " in row, row
        counts = {name: float(value) for name, value in re.findall(r"(\S+)=(\S+) count", row)}
        for name in REACHED.get(row.split()[0], ()):
            assert counts[name] > 0, (name, row)
