"""The command-line interface: subcommands, exit codes, determinism, JSON."""

import json
import math
import os

from kahnets import cli, nstime
from kahnets.cli import main
from kahnets.config import parse_config
from kahnets.dsl import parse_document
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
