"""Benchmark of the kahnets command line, one workload per process.

    python3 bench/run.py --workload {simulate,laws,bignets} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Each run is a closed loop with one client and no threads: it calls
``kahnets.cli.main(argv)`` in-process with stdout and stderr captured, one
command (an *op*) at a time, and checks every answer against an oracle that
does not use kahnets (see ``oracles.py``).  Inputs are generated from the seed
by ``gen.py`` into a directory under ``.bench_work/`` at the repository root,
removed afterwards.  The loop runs whole rounds (one pass over the workload's
distinct commands) until ``--seconds`` have passed, so every run has the same
mix.

With ``--trace 0`` the end-to-end metrics are reported.  ``setup_s`` is the
median, over several fresh interpreters, of the time from interpreter start
(including ``import kahnets``) to the generated inputs being written.  With
``--trace 1`` the rounds of a first untraced stretch are repeated with spans
around every layer (``tracing.py``), and per-layer metrics per round are
reported together with the tracing overhead; the spans are written to
``.bench_work/spans-*.csv.gz``.

The last line of stdout is one JSON object: ``correct`` (no op printed an
answer its oracle rejects), ``attempted``, ``failed`` (ops that did not give
the oracle's answer: a wrong answer, an unexpected exit status or an escaped
exception) and ``metrics``.  ``--smoke`` runs every workload at tiny sizes in
both modes within a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import oracles
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("simulate", "laws", "bignets")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
# How long the same ops take depends on the string hash seed of the process,
# which lays out the sets and dicts kahnets builds: with a fresh random seed
# per process, the same bignets ops took up to a tenth more or less time from
# one process to the next, and about a hundredth with one fixed seed.  Every
# run uses this one seed, so that runs differ only in their inputs.
HASH_SEED = "0"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "ok_share": "share", "peak_rss_mb": "MB"}


def import_kahnets():
    """The kahnets package (with its cli) from this checkout's ``src/``, never
    from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kahnets", "__init__.py")):
        sys.exit(f"bench: no kahnets sources under {SRC}")
    sys.path.insert(0, SRC)
    import kahnets.cli
    return kahnets


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------

def run_op(kahnets, argv: list[str]) -> tuple[object, str, float]:
    """Exit status (None when an exception escaped), stdout and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = kahnets.cli.main(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = 0 if exc.code is None else exc.code
        except Exception:  # an escaped exception is a failed op, not a crash of the benchmark
            code = None
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Checker:
    """Compares an op's answer with its expectation: 'ok', 'wrong' (an answer
    the oracle rejects) or 'error' (no answer: unexpected error status or an
    escaped exception)."""

    def __init__(self):
        self._docs: dict[str, dict] = {}
        self._terms = oracles.Terms()

    def _net(self, path: str, name: str) -> oracles.TextNet:
        if path not in self._docs:
            with open(path, encoding="utf-8") as handle:
                self._docs[path] = oracles.read_document(handle.read())
        return self._docs[path][name]

    def check(self, expect: dict, code, out: str) -> str:
        if code != expect.get("exit", 0):
            return "error" if code is None or code in (2, 3) else "wrong"
        try:
            ok = getattr(self, "_" + expect["kind"])(expect, out)
        except (ValueError, KeyError, TypeError):
            ok = False
        return "ok" if ok else "wrong"

    def _simulate(self, expect: dict, out: str) -> bool:
        doc = json.loads(out)
        tol = expect["tol"]
        rows = {row["probe"]: row["standard_part"] for row in doc["probes"]}
        return doc["agree"] is True and len(rows) == len(expect["closed"]) and all(
            rows[t]["converged"] and abs(rows[t]["value"] - value) <= tol
            for t, value in expect["closed"])

    def _laws(self, expect: dict, out: str) -> bool:
        doc = json.loads(out)
        (suite,) = doc["suites"]
        return (doc["ok"] is True and suite["axiom"] == expect["axiom"]
                and suite["total"] == expect["count"] == suite["passed"])

    def _normalize(self, expect: dict, out: str) -> bool:
        (nf,) = oracles.read_document(out).values()
        source = self._net(*expect["source"])
        return ((nf.m, nf.n) == (source.m, source.n) and len(nf.ops) == expect["ops"]
                and self._terms.of(nf) == self._terms.of(source))

    def _verdict(self, expect: dict, out: str) -> bool:
        doc = json.loads(out)
        if doc[expect["field"]] is not expect["value"]:
            return False
        if "witness" in expect:
            path, a, b = expect["witness"]
            return oracles.is_iso_witness(self._net(path, a), self._net(path, b),
                                          doc["port_map"], doc["op_map"])
        return True

    def _eval(self, expect: dict, out: str) -> bool:
        return json.loads(out)["outputs"] == expect["outputs"]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.seconds: list[float] = []
        self.status: dict[str, int] = {"ok": 0, "wrong": 0, "error": 0}

    def add(self, seconds: float, status: str) -> None:
        self.seconds.append(seconds)
        self.status[status] += 1

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.attempted - self.status["ok"]


def run_rounds(kahnets, manifest: dict, checker: Checker, tally: Tally, *,
               seconds: float = 0.0, rounds: int = 0, tracer=None) -> int:
    """Run whole rounds until ``seconds`` have passed and at least ``rounds``
    are done (at least one either way); return the number of rounds run."""
    plan = manifest["rounds"]
    deadline = time.perf_counter() + seconds
    done = 0
    while done < max(rounds, 1) or time.perf_counter() < deadline:
        for op in plan[done % len(plan)]:
            if tracer is not None:
                tracer.op_id += 1
            code, out, took = run_op(kahnets, op["argv"])
            tally.add(took, checker.check(op["expect"], code, out))
        done += 1
    return done


def end_to_end(tally: Tally, setup_times: list[float]) -> dict[str, float]:
    lat = tally.seconds
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        # The inclusive method keeps p90 inside the same op group whatever
        # the number of whole rounds run.
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3,
        "ok_share": tally.status["ok"] / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def setup_in_children(args, workdir: str, repeats: int) -> list[float]:
    """Seconds from spawning each of ``repeats`` fresh interpreters until it
    has imported kahnets and written the workload's inputs.  The child reports
    the moment it finished on the system-wide monotonic clock, so the time the
    parent takes to notice the exit is not counted."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", workdir,
            "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.monotonic()
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"bench: setup failed with exit status {done.returncode}")
        times.append(float(done.stdout) - start)
    return times


def measure(args) -> dict:
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        setup_times = setup_in_children(args, workdir, SETUP_REPEATS if not args.trace else 1)
        kahnets = import_kahnets()
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        checker, tally = Checker(), Tally()
        if not args.trace:
            run_rounds(kahnets, manifest, checker, tally, seconds=args.seconds)
            metrics = end_to_end(tally, setup_times)
            units = END_TO_END_UNITS
        else:
            rounds = run_rounds(kahnets, manifest, checker, tally, seconds=args.seconds / 4)
            untraced = sum(tally.seconds)
            tracer = tracing.Tracer()
            tracer.install(kahnets)
            try:
                run_rounds(kahnets, manifest, checker, tally, rounds=rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(rounds)
            metrics["trace_overhead_share"] = (sum(tally.seconds) - untraced) / untraced - 1
            tracer.write(os.path.join(WORK, f"spans-{args.workload}-s{args.seed}-p{os.getpid()}.csv.gz"))
            units = tracing.PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.status["wrong"] == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def print_row(workload: str, result: dict) -> None:
    cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    print(f"{workload:9s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} " + " ".join(cells))


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced; 0 when every run
    finishes with no wrong answer."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", "1", "--seconds", "0", "--trace", trace, "--tiny"]
            done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload:9s} trace={trace} exit status {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print_row(f"{workload}/{trace}", result)
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        import_kahnets()
        gen.setup(args.workload, args.seed, args.setup_only, args.tiny)
        print(repr(time.monotonic()))
        return 0
    result = measure(args)
    print_row(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
