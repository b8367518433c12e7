"""The benchmark runs end to end on tiny inputs and every answer checks out.

``bench/run.py --smoke`` drives the CLI through every workload, untraced and
traced, and compares each answer with an oracle that does not use kahnets.
A change under ``src/`` that breaks an interface the benchmark relies on
fails here rather than only when the benchmark is next run.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_smoke_run_is_correct():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke"],
                          cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()
            if re.match(r"(simulate|laws|bignets)/[01] ", line)]
    assert len(rows) == 6, done.stdout
    for row in rows:
        assert " failed=0 correct=True " in row, row
