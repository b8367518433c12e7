"""The command-line interface: subcommands, exit codes, determinism, JSON."""

import contextlib
import glob
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kahnets import cli, nstime
from kahnets.cli import main
from kahnets.config import parse_config
from kahnets.dsl import parse_document
from kahnets.errors import DslSyntaxError
from kahnets.nets import validate
from kahnets.stdnets import it_interpretation

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestCheck:
    def test_valid_file(self, capsys):
        assert main(["check", fx("paper_example.net")]) == 0
        out = capsys.readouterr().out
        assert "main: ok" in out and "renamed: ok" in out

    def test_invalid_net_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("sig a 1 1\nnet n : 1 -> 1\n  ports p q\n"
                       "  op x0 a (p) -> (p)\n  in p\n  out q\n")
        assert main(["check", str(bad)]) == 1
        assert "tgt-not-injective" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("net n :\n")
        assert main(["check", str(bad)]) == 2
        assert "error syntax-error" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["check", fx("no_such_file.net")]) == 2


class TestInvalidNets:
    """Every command that reads a net validates it first."""

    DOUBLE_PRODUCER = ("sig a 1 1\nnet n : 1 -> 1\n  ports p0 p1\n"
                       "  op x0 a (p0) -> (p1)\n  op x1 a (p0) -> (p1)\n  in p0\n  out p1\n")
    #: Documents that parse but drive a port twice, and the first error of each.
    DOUBLY_DRIVEN = [
        (DOUBLE_PRODUCER, "port 1 produced by both (0, 0) and (1, 0)"),
        ("sig a 1 1\nnet n : 1 -> 1\n  ports p q\n  op x a (q) -> (p)\n  in p\n  out q\n",
         "port 0 produced by both (0, 0) and 0"),
        ("sig b 1 2\nnet n : 1 -> 1\n  ports p q\n  op x b (p) -> (q q)\n  in p\n  out q\n",
         "port 1 produced by both (0, 0) and (0, 1)"),
    ]

    def test_rejected_by_every_command(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        bad = str(path)
        for text, message in self.DOUBLY_DRIVEN:
            path.write_text(text)
            assert main(["check", bad]) == 1
            assert f"error tgt-not-injective: {message}" in capsys.readouterr().out
            for argv in (["normalize", bad, "n"], ["normalize", bad, "n", "--json"],
                         ["iso", bad, "n", "n"], ["se-equiv", bad, "n", "n"],
                         ["eval", bad, "n", "--input", "1,2"],
                         ["simulate", bad, "n", "--config", fx("sin01.cfg")]):
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                if "--json" in argv:
                    assert json.loads(captured.err) == {"error": {
                        "code": "syntax-error", "message": f"net 'n' is invalid: {message}"}}
                else:
                    assert captured.err == f"error syntax-error: net 'n' is invalid: {message}\n"
                assert captured.out == ""

    def test_a_parsed_net_is_validated_once(self, monkeypatch):
        """The parser has checked a net that holds its wiring; only a net
        with a port driven twice goes through ``validate``, whose report the
        error line quotes."""
        calls = []

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(cli, "validate", counted)
        with open(fx("paper_example.net"), encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        net = cli._valid_net(doc, "main")
        assert calls == [] and {"ports", "labels", "src", "tgt"}.isdisjoint(vars(net))
        doc = parse_document(self.DOUBLE_PRODUCER)
        with pytest.raises(DslSyntaxError):
            cli._valid_net(doc, "n")
        assert len(calls) == 1


class TestIso:
    def test_renamed_copy(self, capsys):
        assert main(["iso", fx("paper_example.net"), "main", "renamed"]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_non_iso_exits_one(self, tmp_path):
        doc = ("net a : 2 -> 2\n  ports p q\n  in p q\n  out p q\n"
               "net b : 2 -> 2\n  ports p q\n  in p q\n  out q p\n")
        path = tmp_path / "two.net"
        path.write_text(doc)
        assert main(["iso", str(path), "a", "b"]) == 1

    def test_json_witness(self, capsys):
        assert main(["iso", fx("paper_example.net"), "main", "renamed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        assert len(payload["port_map"]) == 5


class TestSeEquiv:
    def test_shared_versions(self, tmp_path):
        doc = ("sig alpha 2 1\n"
               "net a : 1 -> 2\n  ports p q r\n"
               "  op x alpha (p p) -> (q)\n  op y alpha (p p) -> (r)\n"
               "  in p\n  out q r\n"
               "net b : 1 -> 2\n  ports p q\n"
               "  op x alpha (p p) -> (q)\n  in p\n  out q q\n")
        path = tmp_path / "se.net"
        path.write_text(doc)
        assert main(["se-equiv", str(path), "a", "b"]) == 0
        assert main(["iso", str(path), "a", "b"]) == 1  # raw nets differ


class TestEval:
    def test_running_sum_csv(self, capsys):
        assert main(["eval", fx("running_sum.net"), "main", "--input", "1,2,3"]) == 0
        captured = capsys.readouterr()
        out = captured.out.strip().splitlines()
        assert out[0] == "step,value"
        assert out[1:] == ["0,1.0", "1,3.0", "2,6.0"]
        assert captured.err == ""  # the fixpoint was reached: no warning

    def test_budget_exhaustion_warns(self, capsys):
        spec = ",".join(str(k) for k in range(1, 201))
        assert main(["eval", fx("running_sum.net"), "main", "--input", spec]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1 + 100
        (line,) = captured.err.splitlines()
        assert line.startswith("warning budget-exhausted: ")
        assert main(["eval", fx("running_sum.net"), "main", "--input", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outputs"][0]) == 100
        assert (payload["sweeps"], payload["reached_fixpoint"]) == (100, False)

    def test_deterministic_output(self, capsys):
        main(["eval", fx("integration.net"), "main", "--input", "1,2,3,4", "--scale", "0.5"])
        first = capsys.readouterr().out
        main(["eval", fx("integration.net"), "main", "--input", "1,2,3,4", "--scale", "0.5"])
        assert capsys.readouterr().out == first

    def test_csv_input_and_out_file(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("step,value\n0,1\n1,2\n2,3\n")
        out = tmp_path / "out.csv"
        assert main(["eval", fx("running_sum.net"), "main",
                     "--input", str(src), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,1.0", "1,3.0", "2,6.0"]

    def test_json_output(self, capsys):
        assert main(["eval", fx("running_sum.net"), "main", "--input", "2,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"] == [[2.0, 4.0]]
        assert payload["reached_fixpoint"] is True and payload["sweeps"] <= 100

    def test_json_goes_to_the_out_file(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["eval", fx("running_sum.net"), "main", "--input", "2,2", "--json",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["outputs"] == [[2.0, 4.0]]

    def test_wrong_input_count_is_an_eval_error(self, capsys):
        assert main(["eval", fx("running_sum.net"), "main"]) == 3
        assert "arity-mismatch" in capsys.readouterr().err

    def test_unknown_net_exits_two(self):
        assert main(["eval", fx("running_sum.net"), "nosuch", "--input", "1"]) == 2


class TestSimulate:
    def test_integration_probe_hits_the_closed_form(self, capsys):
        assert main(["simulate", fx("integration.net"), "main",
                     "--config", fx("sin01.cfg")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "output,probe,delta,value"
        st = {tuple(line.split(",")[:3]): line.split(",")[3]
              for line in lines[1:]}[("0", "1.0", "st")]
        assert abs(float(st) - (1 - math.cos(1.0))) <= 1e-2

    def test_json_report(self, capsys):
        assert main(["simulate", fx("integration.net"), "main",
                     "--config", fx("sin01.cfg"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        probe_one = [row for row in payload["probes"] if row["probe"] == 1.0][0]
        assert probe_one["standard_part"]["converged"] is True

    def test_json_report_goes_to_the_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["simulate", fx("integration.net"), "main",
                     "--config", fx("sin01.cfg"), "--json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["agree"] is True

    def test_trace_dir(self, tmp_path, capsys):
        assert main(["simulate", fx("integration.net"), "main",
                     "--config", fx("sin01.cfg"), "--trace-dir", str(tmp_path),
                     "--out", str(tmp_path / "probes.csv")]) == 0
        traces = sorted(p for p in os.listdir(tmp_path) if p.startswith("trace_"))
        assert len(traces) == 4  # one per schedule period
        head = (tmp_path / traces[0]).read_text().splitlines()
        assert head[0] == "t,value"

    def test_trace_dir_evaluates_each_period_once(self, tmp_path, monkeypatch, capsys):
        real = nstime.denote_it
        periods = []

        def counted(net, interp, inputs, period, *args, **kwargs):
            periods.append(period)
            return real(net, interp, inputs, period, *args, **kwargs)

        for module in (nstime, cli):  # count calls from the CLI too, should it make any
            monkeypatch.setattr(module, "denote_it", counted, raising=False)
        assert main(["simulate", fx("integration.net"), "main",
                     "--config", fx("sin01.cfg"), "--trace-dir", str(tmp_path)]) == 0
        assert len(periods) == 4  # sin01.cfg has four periods
        # Each trace file holds what evaluating its period on its own gives.
        with open(fx("sin01.cfg"), encoding="utf-8") as handle:
            cfg = parse_config(handle.read(), base_dir=FIXTURES)
        with open(fx("integration.net"), encoding="utf-8") as handle:
            net = parse_document(handle.read()).net("main")
        for d in cfg.schedule.deltas:
            period = nstime.SamplingPeriod(d, cfg.tmax)
            (out,) = real(net, it_interpretation(d),
                          [nstime.sample(f, period) for f in cfg.inputs], period)
            expected = "t,value\n" + "".join(f"{k * d},{v}\n" for k, v in enumerate(out.values))
            assert (tmp_path / f"trace_out0_delta{d}.csv").read_text() == expected

    def test_nonproductive_net_exits_three(self, tmp_path, capsys):
        doc = ("sig plus 2 1\n"
               "net n : 1 -> 1\n  ports p q\n  op x plus (p q) -> (q)\n"
               "  in p\n  out q\n")
        net = tmp_path / "loop.net"
        net.write_text(doc)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.1\ninput.0 = expr: t\n")
        assert main(["simulate", str(net), "n", "--config", str(cfg)]) == 3
        assert "non-productive" in capsys.readouterr().err


    def test_loop_listed_against_data_flow(self, capsys):
        for name in ("flow", "against"):
            assert main(["simulate", fx("integration_roundtrip.net"), name,
                         "--config", fx("sin01.cfg"), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["agree"] is True

    def test_window_shorter_than_a_period_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.005\ninput.0 = expr: t\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error config-error: ")

    @pytest.mark.parametrize("probe, says", [("7.0", "probe 7.0 is outside the window"),
                                             ("-0.5", "probe -0.5 is negative")])
    def test_probe_outside_the_window_is_a_config_error(self, probe, says, tmp_path, capsys,
                                                        monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated despite a bad probe")

        monkeypatch.setattr(cli, "delta_independence", unreachable)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"delta = 1e-3\ntmax = 1.05\nschedule = 1e-2, 5e-3, 2.5e-3\n"
                       f"probes = 0.5, {probe}\ninput.0 = expr: sin(t)\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error config-error: {says}")

    def test_undefined_input_is_an_evaluation_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.1\ninput.0 = expr: 1/t\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error out-of-domain: ")
        assert "input.0" in line and "t=0.0" in line


class TestBadArguments:
    """Unusable arguments give one ``error config-error:`` line and exit 2."""

    @staticmethod
    def assert_config_error(capsys, argv):
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error config-error: ")

    def test_eval_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        self.assert_config_error(capsys, ["eval", fx("running_sum.net"), "main", "--input", "1,2",
                                          "--out", str(tmp_path / "file" / "out.csv")])

    def test_simulate_trace_dir_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        self.assert_config_error(capsys, ["simulate", fx("integration.net"), "main",
                                          "--config", fx("sin01.cfg"),
                                          "--trace-dir", str(tmp_path / "file" / "traces")])

    def test_negative_eval_budget(self, capsys):
        self.assert_config_error(capsys, ["eval", fx("running_sum.net"), "main", "--input", "1,2",
                                          "--budget", "-3"])

    def test_negative_laws_count(self, capsys):
        self.assert_config_error(capsys, ["laws", "--count", "-1"])


class TestContractHoles:
    """Inputs that once escaped as a traceback or printed non-JSON now give one
    error line."""

    def test_divc_zero_is_refused_before_evaluating(self, capsys):
        argv = ["eval", fx("differentiation.net"), "main", "--input", "1,2,3", "--divc", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error config-error: bad value for '--divc': '0' would divide by zero\n"

    def test_csv_row_with_one_cell(self, tmp_path, capsys):
        steps = tmp_path / "steps.csv"
        steps.write_text("step,value\n0,1\n1\n")
        assert main(["eval", fx("running_sum.net"), "main", "--input", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error config-error: {steps}: row on line 3 has one cell, "
                                f"expected two ('step,value')\n")
        samples = tmp_path / "samples.csv"
        samples.write_text("t,value\n0,0\n0.5\n1,1\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.5\nprobes = 0.25\ninput.0 = csv: samples.csv\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error config-error: {samples}: row on line 3 has one cell, "
                                f"expected two ('t,value')\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    def test_non_finite_eval_output(self, capsys, fmt):
        """Finite inputs that overflow are an evaluation error, whatever the
        output format, rather than ``inf`` rows or ``Infinity``, not JSON."""
        message = "output 0 at step 1 is inf, not a finite number"
        assert main(["eval", fx("running_sum.net"), "main", "--input", "1e308,1e308", *fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        if fmt:
            assert json.loads(captured.err) == {"error": {"code": "out-of-domain",
                                                          "message": message}}
        else:
            assert captured.err == f"error out-of-domain: {message}\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    def test_non_finite_simulate_output(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.1\nprobes = 0.05\ninput.0 = expr: 1e308\n")
        argv = ["simulate", fx("running_sum.net"), "main", "--config", str(cfg), *fmt]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "out-of-domain" in captured.err
        assert "output 0 at probe 0.05 for period 0.01 is inf, not a finite number" in captured.err

    def test_non_finite_trace_is_refused_before_writing(self, tmp_path, capsys):
        """A probe can be finite while a later step of its trace is not."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.1\nprobes = 0\ninput.0 = expr: 1e308\n")
        traces = tmp_path / "traces"
        argv = ["simulate", fx("running_sum.net"), "main", "--config", str(cfg),
                "--trace-dir", str(traces)]
        assert main(argv) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error out-of-domain: output 0 at step 1 of period 0.01 is inf, not a finite number"
        assert not traces.exists()

    def test_undecodable_files_are_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00net")
        assert main(["check", str(bad)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error syntax-error: cannot read {bad}: ")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(bad)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error config-error: cannot read {bad}: ")


class TestUsageErrors:
    """argparse's usage errors are one ``error usage-error:`` line, exit 2."""

    @pytest.mark.parametrize("argv, message", [
        (["eval"], "the following arguments are required: file, net"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
        (["eval", "f.net", "main", "--budget", "abc"], "argument --budget: invalid int value: 'abc'"),
    ], ids=["missing-positional", "unknown-subcommand", "bad-budget"])
    def test_one_line_and_exit_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error usage-error: {message}")
        assert captured.out == ""

    def test_json_error_object(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": {
            "code": "usage-error", "message": "the following arguments are required: file, net"}}
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_version_and_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and capsys.readouterr().out == f"kahnets {cli.__version__}\n"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: kahnets eval ")

    def test_parser_is_built_once(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        # Parsing does not leak one call's arguments into the next.
        assert main(["eval", fx("running_sum.net"), "main", "--input", "1,2", "--json"]) == 0
        assert main(["eval", fx("running_sum.net"), "main", "--input", "5", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["outputs"] for line in lines] == [[[1.0, 3.0]], [[5.0]]]


class TestConfigValues:
    """Config values that cannot describe a run are one ``error config-error:``
    line, exit 2."""

    @pytest.mark.parametrize("line", ["delta = nan", "tmax = inf", "tmax = -inf", "tol = nan",
                                      "tol = inf", "schedule = 1e-2, nan, 1e-3",
                                      "schedule = inf, 1e-2, 1e-3", "probes = nan",
                                      "probes = 0.5, 1e309"])
    def test_non_finite_values(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"delta = 0.01\ntmax = 0.5\ninput.0 = expr: t\n{line}\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error config-error: bad value for '{line.split()[0]}': ")
        assert err.endswith("is not a finite number (line 4)")

    @pytest.mark.parametrize("args", [["--input", "1,nan,3"], ["--input", "inf"],
                                      ["--input", "1", "--scale", "nan"],
                                      ["--input", "1", "--divc", "inf"]])
    def test_non_finite_eval_arguments(self, capsys, args):
        """Refused rather than evaluated into ``nan`` rows, or into ``NaN``
        and ``Infinity``, which are not JSON, under ``--json``."""
        flag, value = args[-2:]
        bad = value.split(",")[1] if "," in value else value
        message = f"bad value for '{flag}': '{bad}' is not a finite number"
        assert main(["eval", fx("running_sum.net"), "main", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error config-error: {message}\n"
        assert main(["eval", fx("running_sum.net"), "main", *args, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"code": "config-error", "message": message}}

    def test_non_finite_csv_samples(self, tmp_path, capsys):
        """A ``nan`` in an ``eval`` step,value file or in a ``simulate`` csv
        input is refused like a ``nan`` config value."""
        steps = tmp_path / "steps.csv"
        steps.write_text("step,value\n0,1\n1,nan\n2,3\n")
        assert main(["eval", fx("running_sum.net"), "main", "--input", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error config-error: {steps}: 'nan' is not a finite number\n"
        samples = tmp_path / "samples.csv"
        samples.write_text("t,value\n0,0\n0.5,nan\n1,1\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("delta = 0.01\ntmax = 0.5\nprobes = 0.25\ninput.0 = csv: samples.csv\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error config-error: {samples}: 'nan' is not a finite number\n"

    @pytest.mark.parametrize("line, message", [
        ("x" * 3000, "expected 'key = value', got 'xxxxxxxx"),
        ("input.0 = " + "x" * 3000, "input needs 'expr:' or 'csv:' prefix, got 'xxxxxxxx"),
        ("input.0 = " + "x" * 3000 + ": t", "unknown input kind 'xxxxxxxx"),
        ("x" * 3000 + " = 1", "unknown key 'xxxxxxxx"),
        ("tol = " + "x" * 3000, "bad value for 'tol': could not convert string to float: 'xxxxxxxx"),
        ("tol = " + "9" * 3000, "bad value for 'tol': '99999999"),  # float() gives inf
        ("input." + "x" * 3000 + " = expr: t", "bad value for 'input.xxx"),
    ], ids=["no-equals", "no-prefix", "input-kind", "key", "not-a-number", "not-finite", "index"])
    def test_long_lines_are_clipped(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"delta = 0.01\ntmax = 0.5\n{line}\n")
        assert len(line) >= 3000
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error config-error: {message}") and len(err) < 200
        assert "..." in err and err.endswith(" (line 3)")

    @pytest.mark.parametrize("expr", ["(" * 5000 + "t" + ")" * 5000, "-" * 5000 + "t",
                                      "sin(" * 5000 + "t" + ")" * 5000],
                             ids=["parentheses", "minus-signs", "calls"])
    def test_deeply_nested_input_expression(self, tmp_path, capsys, expr):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"delta = 0.01\ntmax = 0.5\ninput.0 = expr: {expr}\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error config-error: nesting deeper than 100 levels in expression ")
        assert re.search(r"\.\.\. \(line 3, col \d+\)$", err) and len(err) < 200

    @pytest.mark.parametrize("line, message", [
        ("input.0 = expr: sin(", "unexpected end in expression 'sin(' (line 3, col 21)"),
        ("  input.0 =\t expr:  1 + q  # q", "unexpected token 'q' in expression '1 + q' (line 3, col 25)"),
        ("input.0 = expr: " + "t + " * 30, "unexpected end in expression "
                                           "'t + t + t + t + t + t + t + t + t + t + '... (line 3, col 136)"),
        ("input.0 = expr: ", "empty expression '' (line 3)"),
    ], ids=["unclosed-call", "unknown-name", "long-expression", "empty"])
    def test_input_expression_errors_name_their_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"delta = 0.01\ntmax = 0.5\n{line}\n")
        assert main(["simulate", fx("integration.net"), "main", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error config-error: {message}\n"


class TestLaws:
    def test_single_axiom(self, capsys):
        assert main(["laws", "--seed", "5", "--count", "20", "--axiom", "yanking"]) == 0
        assert "PASS yanking: 20/20" in capsys.readouterr().out

    def test_full_run_json(self, capsys):
        assert main(["laws", "--seed", "5", "--count", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["suites"]) == 18


class TestNormalize:
    def test_prints_parseable_document(self, tmp_path, capsys):
        doc = ("sig alpha 2 1\n"
               "net a : 1 -> 2\n  ports p q r\n"
               "  op x alpha (p p) -> (q)\n  op y alpha (p p) -> (r)\n"
               "  in p\n  out q r\n")
        path = tmp_path / "se.net"
        path.write_text(doc)
        assert main(["normalize", str(path), "a"]) == 0
        out_doc = parse_document(capsys.readouterr().out)
        assert len(out_doc.net_def("a").ops) == 1


FUZZ_FIXTURES = sorted(glob.glob(os.path.join(FIXTURES, "*.net")))
FUZZ_TOKENS = ("(", ")", "->", ":", "#", "sig", "net", "ports", "op", "in", "out",
               "0", "1", "2", "-1", "x0", "p0")
ERROR_LINE = re.compile(r"error [a-z-]+: \S")


@st.composite
def mutated_fixture(draw):
    """A fixture file and its text with a few tokens and lines inserted,
    deleted or duplicated (each line keeps its indentation)."""
    path = draw(st.sampled_from(FUZZ_FIXTURES))
    with open(path, encoding="utf-8") as handle:
        lines = [(line[:len(line) - len(line.lstrip())], line.split())
                 for line in handle.read().splitlines()]
    vocabulary = FUZZ_TOKENS + tuple(t for _, tokens in lines for t in tokens)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        lead, tokens = lines[i][0], list(lines[i][1])
        kind = draw(st.sampled_from(("delete-line", "duplicate-line", "insert-token",
                                     "delete-token", "duplicate-token")))
        if kind == "delete-line":
            if len(lines) > 1:
                del lines[i]
            continue
        if kind == "duplicate-line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        if kind == "insert-token":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(vocabulary)))
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if kind == "delete-token":
                del tokens[j]
            else:
                tokens.insert(j, tokens[j])
        lines[i] = (lead, tokens)
    return path, "\n".join(lead + " ".join(tokens) for lead, tokens in lines) + "\n"


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mutated_fixture())
def test_fuzzed_documents_keep_the_error_contract(case):
    """Damaged input never escapes as an exception: a command exits 0 or 1, or
    2 or 3 with exactly one ``error <code>: ...`` line on stderr."""
    path, text = case
    with open(path, encoding="utf-8") as handle:
        original = parse_document(handle.read()).nets[0]
    name, inputs = original.name, ["--input", "1,2,3"] * len(original.inputs)
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = os.path.join(tmp, "fuzzed.net")
        with open(fuzzed, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (["check", fuzzed], ["normalize", fuzzed, name], ["iso", fuzzed, name, name],
                     ["eval", fuzzed, name, "--budget", "20", *inputs]):
            code, err = run_quietly(argv)
            assert code in (0, 1, 2, 3), argv
            if code in (2, 3):
                (line,) = err.splitlines()
                assert ERROR_LINE.match(line), (argv, line)
            else:
                assert not any(line.startswith("error") for line in err.splitlines()), argv


CONFIG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e309", "x", "=", ",", "expr:", "csv:", "1/t",
                 "(" * 5000 + "t" + ")" * 5000, "-" * 5000 + "t")


@st.composite
def mutated_config(draw):
    """``fixtures/sin01.cfg`` with one value (or one entry of a list) replaced
    by one of ``CONFIG_VALUES``, then up to two lines or whitespace-separated
    tokens inserted, deleted or duplicated."""
    with open(fx("sin01.cfg"), encoding="utf-8") as handle:
        lines = [line.split() for line in handle.read().splitlines()]
    vocabulary = CONFIG_VALUES + tuple(t for tokens in lines for t in tokens)
    i = draw(st.sampled_from([i for i, tokens in enumerate(lines) if "=" in tokens]))
    first = lines[i].index("=") + 1
    j = draw(st.integers(first, len(lines[i]) - 1))
    comma = "," if lines[i][j].endswith(",") else ""
    lines[i][j] = draw(st.sampled_from(CONFIG_VALUES)) + comma
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = list(lines[i])
        kind = draw(st.sampled_from(("delete-line", "duplicate-line", "insert-token",
                                     "delete-token", "duplicate-token")))
        if kind == "delete-line":
            if len(lines) > 1:
                del lines[i]
            continue
        if kind == "duplicate-line":
            lines.insert(draw(st.integers(0, len(lines))), tokens)
            continue
        if kind == "insert-token":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(vocabulary)))
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if kind == "delete-token":
                del tokens[j]
            else:
                tokens.insert(j, tokens[j])
        lines[i] = tokens
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mutated_config())
def test_fuzzed_configs_keep_the_error_contract(text):
    """Damaged ``simulate`` configs keep the contract of
    ``test_fuzzed_documents_keep_the_error_contract``.

    The values drawn include no large finite number: a huge but finite
    ``tmax`` (or a tiny ``delta``) is a legitimately long run, not a contract
    violation, so every window stays at most the fixture's 1.05 or is
    rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzzed.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, err = run_quietly(["simulate", fx("integration.net"), "main", "--config", cfg])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        (line,) = err.splitlines()
        assert ERROR_LINE.match(line), line
    else:
        assert not any(line.startswith("error") for line in err.splitlines())




def input_counts(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as handle:
        return {nd.name: len(nd.inputs) for nd in parse_document(handle.read()).nets}


#: Each fixture file and the number of inputs of each of its nets.
CONTRACT_NETS = {os.path.basename(path): input_counts(path) for path in FUZZ_FIXTURES}
CONTRACT_VALUES = ("nan", "inf", "-inf", "0", "-0", "1e308", "-3", "", "1", "2.5", "x",
                   "1,2,3", "1e308,1e308", "-1e308,1e308")
#: Bodies of ``step,value`` / ``t,value`` files, ``{h}`` standing for the header.
CONTRACT_CSV = (b"{h}\n0,1\n1,2\n", b"{h}\n0,1\n1\n", b"{h}\n", b"", b"a,b\n0,1\n",
                b"{h}\n0,nan\n", b"{h}\n0,1e308\n1,1e308\n", b"{h}\n0,1\x00\n",
                b"{h}\n0,\xff\n", b"{h}\n0,1,2\n1,2,3\n", b"{h}\n\n0;1\n")
PROPERTY_COMMANDS = ("check", "iso", "se-equiv", "laws")


@st.composite
def contract_case(draw):
    """An argv for ``cli.main`` and the files it names: a subcommand, a fixture
    net (or a net in a missing or undecodable file), option values from
    ``CONTRACT_VALUES`` and damaged CSV and config files.  Paths in the argv
    start with ``{tmp}/`` or ``{fx}/``."""
    files = {}
    value = lambda: draw(st.one_of(st.sampled_from(("1", "2", "0.5", "1,2,3")),
                                   st.sampled_from(CONTRACT_VALUES)))

    def csv_file(header: str) -> str:
        name = f"{header.replace(',', '-')}{len(files)}.csv"
        files[name] = draw(st.sampled_from(CONTRACT_CSV)).replace(b"{h}", header.encode())
        return name

    command = draw(st.sampled_from(("check", "normalize", "iso", "se-equiv", "eval",
                                    "simulate", "laws")))
    if command == "laws":
        argv = ["laws", "--count", draw(st.sampled_from(("0", "1", "2", "-3", "", "1e308")))]
        if draw(st.booleans()):
            argv += ["--seed", value()]
        if draw(st.booleans()):
            argv += ["--axiom", draw(st.sampled_from(("vanishing", "yanking", "nope", "")))]
    else:
        fixture = draw(st.sampled_from(sorted(CONTRACT_NETS) + ["missing.net", "garbled.net"]))
        if fixture == "garbled.net":
            files[fixture] = b"\xff\xfenet main : 0 -> 0\n"
        path = "{tmp}/" + fixture if fixture in files or fixture == "missing.net" else "{fx}/" + fixture
        inputs = CONTRACT_NETS.get(fixture, {"main": 0})
        net = lambda: draw(st.sampled_from(sorted(inputs)))
        argv = [command, path]
        if command == "check":
            argv += draw(st.lists(st.sampled_from(sorted(inputs)), max_size=1))
        elif command == "normalize":
            argv += [net()]
        elif command in ("iso", "se-equiv"):
            argv += [net(), net()]
        elif command == "eval":
            argv += [net()]
            count = inputs[argv[-1]] if draw(st.booleans()) else draw(st.integers(0, 2))
            for _ in range(count):
                argv += ["--input", "{tmp}/" + csv_file("step,value") if draw(st.booleans())
                         else value()]
            for flag in ("--scale", "--divc", "--budget"):
                if draw(st.booleans()):
                    argv += [flag, value()]
        else:
            # A config that samples the window 0..tmax, with no tmax of 1e308:
            # that is a legitimately long run, not a broken contract.
            keys = {"delta": value(), "tmax": draw(st.sampled_from(
                        [v for v in CONTRACT_VALUES if "e308" not in v] + ["0.2"])),
                    "probes": draw(st.sampled_from(("0.1", "0.05, 0.1", value()))),
                    "input.0": draw(st.sampled_from(("expr: sin(t)", "expr: 1e308 * t",
                                                     "expr: " + value(),
                                                     "csv: " + csv_file("t,value"))))}
            lines = ["delta = 0.01", "tmax = 0.2", "tol = 1e-2", "probes = 0.1",
                     "input.0 = expr: sin(t)"]
            for _ in range(draw(st.integers(0, 2))):
                key = draw(st.sampled_from(sorted(keys)))
                lines = [f"{key} = {keys[key]}" if line.startswith(key + " ") else line
                         for line in lines]
            if draw(st.booleans()):
                del lines[draw(st.integers(0, len(lines) - 1))]
            files["run.cfg"] = ("\n".join(lines) + "\n").encode()
            argv += [net(), "--config", "{tmp}/run.cfg"]
            if draw(st.booleans()):
                argv += ["--trace-dir", "{tmp}/traces"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(contract_case())
@example((["eval", "{fx}/differentiation.net", "main", "--input", "1,2,3", "--divc", "0"], {}))
@example((["eval", "{fx}/running_sum.net", "main", "--input", "{tmp}/s.csv"],
          {"s.csv": b"step,value\n0,1\n1\n"}))
@example((["eval", "{fx}/running_sum.net", "main", "--input", "1e308,1e308", "--json"], {}))
def test_every_command_keeps_the_error_contract(case):
    """Any argv exits 0, 1, 2 or 3; 1 only from a property command; 2 or 3
    with exactly one error line (or JSON error object) on stderr and nothing
    on stdout; and ``--json`` output is JSON, without NaN or Infinity."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as handle:
                handle.write(data)
        argv = [a.replace("{tmp}", tmp).replace("{fx}", FIXTURES) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
    as_json = "--json" in argv
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    assert code != 1 or argv[0] in PROPERTY_COMMANDS, argv
    if code in (2, 3):
        (line,) = err.splitlines()
        assert out == "", argv
        if as_json:
            error = json.loads(line, parse_constant=reject_constant)["error"]
            assert re.fullmatch(r"[a-z-]+", error["code"]) and error["message"], argv
        else:
            assert re.match(r"error [a-z-]+: ", line), (argv, line)
        return
    assert not any(line.startswith("error") for line in err.splitlines()), argv
    if as_json:
        json.loads(out, parse_constant=reject_constant)
