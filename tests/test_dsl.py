"""Text format round-trips, parse errors with locations, expressions, configs."""

import glob
import json
import math
import os
import random
import re
import sys

import pytest

from kahnets import (ArityMismatch, ConfigError, DslSyntaxError, GenParams,
                     UndeclaredPort, UnknownSymbol, dsl, find_iso, gen_random_net,
                     validate)
from kahnets.config import parse_config
from kahnets.dsl import OpDef, format_document, net_to_def, parse_document, NetDocument
from kahnets.errors import KahnetsError
from kahnets.exprs import MAX_NESTING, parse_expr
from kahnets.stdnets import STD_SIG, build

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
DSL_ERRORS = os.path.join(os.path.dirname(__file__), "golden", "dsl-errors.json")

PAPER_DOC = """
sig alpha 2 1
sig beta 2 2

net main : 2 -> 2
  ports p0 p1 p2 p3 p4
  op x0 alpha (p0 p4) -> (p2)
  op x1 beta (p2 p1) -> (p3 p4)
  in p0 p1
  out p3 p4
"""


class TestParse:
    def test_paper_example_parses_to_the_built_net(self):
        doc = parse_document(PAPER_DOC)
        net = doc.net("main")
        assert validate(net, doc.signature).ok
        assert find_iso(net, build("paper_example")) is not None

    def test_fixture_files_parse_and_validate(self):
        for name in ("paper_example", "running_sum", "constant",
                     "differentiation", "integration"):
            with open(os.path.join(FIXTURES, f"{name}.net")) as handle:
                doc = parse_document(handle.read())
            for nd in doc.nets:
                assert validate(nd.to_net(), doc.signature).ok, name

    def test_unknown_symbol_with_location(self):
        bad = "net n : 0 -> 0\n  ports p0\n  op x0 gamma (p0) -> ()\n"
        with pytest.raises(UnknownSymbol) as err:
            parse_document(bad)
        assert err.value.line == 3 and err.value.col is not None

    def test_undeclared_port_with_location(self):
        bad = "sig iota 1 1\nnet n : 1 -> 1\n  ports a\n  op x0 iota (b) -> (a)\n  in a\n  out a\n"
        with pytest.raises(UndeclaredPort) as err:
            parse_document(bad)
        assert err.value.line == 4

    def test_operator_arity_mismatch(self):
        bad = "sig plus 2 1\nnet n : 1 -> 1\n  ports a b\n  op x0 plus (a) -> (b)\n  in a\n  out b\n"
        with pytest.raises(ArityMismatch) as err:
            parse_document(bad)
        assert err.value.line == 4

    def test_boundary_count_mismatch(self):
        bad = "net n : 2 -> 0\n  ports a\n  in a\n"
        with pytest.raises(ArityMismatch):
            parse_document(bad)

    def test_syntax_error_reports_line_and_col(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_document("net n 2 -> 2\n")
        assert err.value.line == 1 and err.value.col is not None
        with pytest.raises(DslSyntaxError):
            parse_document("ports a b\n")  # outside a net block

    def test_duplicate_declarations_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_document("sig a 1 1\nsig a 2 1\n")
        with pytest.raises(DslSyntaxError):
            parse_document("net n : 0 -> 0\n  ports a a\n")

    def test_counts_are_decimal_digits(self):
        assert parse_document("sig f \u0663 1\n").signature.symbols["f"] == (3, 1)
        with pytest.raises(DslSyntaxError) as err:
            parse_document("sig f \u00b2 1\n")  # a digit, but not a decimal one
        assert err.value.format() == "syntax-error: expected arity, found '\u00b2' (line 1, col 7)"

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_document("# header\n\nsig iota 1 1  # trailing\n")
        assert "iota" in doc.signature

    def test_missing_net_name(self):
        doc = parse_document(PAPER_DOC)
        with pytest.raises(DslSyntaxError):
            doc.net("nope")


class TestOpLines:
    """An op line is accepted in any layout its tokens allow, and a near miss
    raises the error that walking its tokens finds."""

    HEAD = "sig alpha 2 1\nsig beta 2 2\nnet main : 2 -> 2\n  ports p0 p1 p2 p3 p4 pé\n"
    X1 = "  op x1 beta (p2 p1) -> (p3 p4)\n"
    TAIL = "  in p0 p1\n  out p3 p4\n"

    @pytest.mark.parametrize("line, canonical", [
        ("\top\tx0\talpha\t(p0\tp4)\t->\t(p2)\t", "op x0 alpha (p0 p4) -> (p2)"),
        ("op x0 alpha(p0 p4)->(p2)", "op x0 alpha (p0 p4) -> (p2)"),
        ("  op x0 alpha ( p0 p4 ) -> ( p2 )", "op x0 alpha (p0 p4) -> (p2)"),
        ("  op x0 alpha (p0 p4) -> (p2)  # x0 (p0) -> ()", "op x0 alpha (p0 p4) -> (p2)"),
        ("  op x0 alpha (p0 p4) -> (p2)#", "op x0 alpha (p0 p4) -> (p2)"),
        ("\u3000op\u00a0x0 alpha\u2003(p0\u2009p4) ->\u3000(p2)\x1f",
         "op x0 alpha (p0 p4) -> (p2)"),
        ("  op xé0 alpha (p0 pé) -> (p2)", "op xé0 alpha (p0 pé) -> (p2)"),
        ("  op x_é² alpha (pé pé)->(p2)", "op x_é² alpha (pé pé) -> (p2)"),
    ])
    def test_layouts_parse_alike(self, line, canonical):
        text = self.HEAD + self.X1 + line + "\n" + self.TAIL
        doc = parse_document(text)
        assert doc == parse_document(self.HEAD + self.X1 + "  " + canonical + "\n" + self.TAIL)
        assert format_document(doc).splitlines()[6] == "  " + canonical
        assert parse_document(text.replace("\n", "\r\n")) == doc

    @pytest.mark.parametrize("line, kind, message, col", [
        ("  op x0 alpha (p0 p9) -> (p2)", UndeclaredPort,
         "port 'p9' not declared in net 'main'", 19),
        ("  op x0 alpha (p0 4p) -> (p2)", DslSyntaxError, "expected port name, found '4'", 19),
        ("  op x0 alpha (p0 é) -> (p2)", DslSyntaxError, "expected port name, found 'é'", 19),
        ("  op x0 alpha (p0, p4) -> (p2)", DslSyntaxError, "expected port name, found ','", 18),
        ("  op x0 alpha (p0 p4 -> (p2)", DslSyntaxError, "expected port name, found '->'", 22),
        ("  opx0 alpha (p0 p4) -> (p2)", DslSyntaxError, "unknown keyword 'opx0'", 3),
        ("  op éx alpha (p0 p4) -> (p2)", DslSyntaxError, "expected operator id, found 'é'", 6),
        ("  op x0 alpha (p0) -> (p2)", ArityMismatch,
         "operator 'x0': symbol 'alpha' is 2->1, wired 1->1", 9),
        ("  op x0 alpha (p0 p4) -> (p2 p3)", ArityMismatch,
         "operator 'x0': symbol 'alpha' is 2->1, wired 2->2", 9),
        ("  op x1 alpha (p0 p4) -> (p2)", DslSyntaxError, "operator 'x1' declared twice", 6),
        ("  op x0 alpha (p0 p4) - > (p2)", DslSyntaxError, "expected '->', found '-'", 23),
        ("  op x0 alpha (p0 p4) -> (p2) )", DslSyntaxError, "unexpected trailing ')'", 31),
    ])
    def test_near_misses_are_located(self, line, kind, message, col):
        with pytest.raises(kind) as err:
            parse_document(self.HEAD + self.X1 + line + "\n" + self.TAIL)
        assert type(err.value) is kind
        assert (err.value.message, err.value.line, err.value.col) == (message, 6, col)


class TestRoundTrip:
    def test_parse_print_parse_is_identity(self):
        doc = parse_document(PAPER_DOC)
        again = parse_document(format_document(doc))
        assert again == doc

    def test_printing_is_canonical(self):
        doc = parse_document(PAPER_DOC)
        assert format_document(parse_document(format_document(doc))) == format_document(doc)

    def test_thousand_operator_document(self):
        ports = [f"p{k}" for k in range(1002)]
        lines = ["sig plus 2 1", "sig iota 1 1", "", "net big : 2 -> 1",
                 "  ports " + " ".join(ports)]
        for k in range(1000):
            lines.append(f"  op x{k} plus ({ports[k]} {ports[k + 1]}) -> ({ports[k + 2]})"
                         if k % 2 else f"  op x{k} iota ({ports[k + 1]}) -> ({ports[k + 2]})")
        lines += ["  in p0 p1", "  out p1001"]
        text = "\n".join(lines) + "\n"
        doc = parse_document(text)
        assert format_document(doc) == text
        (nd,) = doc.nets
        assert len(nd.ops) == 1000 and nd.ops[999] == OpDef("x999", "plus", ("p999", "p1000"),
                                                            ("p1001",))
        assert validate(nd.to_net(), doc.signature).ok

    def test_generated_nets_round_trip_up_to_iso(self):
        for seed in range(40):
            net = gen_random_net(GenParams(seed=seed, signature=STD_SIG))
            doc = NetDocument(STD_SIG, (net_to_def(net, "n"),))
            back = parse_document(format_document(doc)).net("n")
            assert find_iso(net, back) is not None, f"seed {seed}"


class TestExpressions:
    CASES = [
        ("1.5", 0.0, 1.5),
        ("t", 2.5, 2.5),
        ("t*t - 1", 3.0, 8.0),
        ("sin(t)", 0.7, math.sin(0.7)),
        ("cos(t) * exp(t)", 0.3, math.cos(0.3) * math.exp(0.3)),
        ("abs(t - 0.5)", 0.2, 0.3),
        ("-t + 2", 0.5, 1.5),
        ("(1 + t) / 2", 3.0, 2.0),
        ("2e-3 * t", 10.0, 0.02),
        ("t  ", 1.25, 1.25),
        ("sin(t) ", 0.7, math.sin(0.7)),
    ]

    def test_evaluates_like_the_closed_form(self):
        for text, at, expected in self.CASES:
            assert parse_expr(text)(at) == pytest.approx(expected, abs=1e-12), text

    def test_errors(self):
        for bad in ("", "sin", "sin(", "1 +", "(t", "t)", "log(t)", "t t"):
            with pytest.raises(ConfigError):
                parse_expr(bad)

    def test_nesting_limit(self):
        n = MAX_NESTING
        assert parse_expr("(" * n + "t" + ")" * n)(0.5) == 0.5
        assert parse_expr("-" * n + "t")(0.5) == 0.5
        assert parse_expr("abs(" * (n - 1) + "-t" + ")" * (n - 1))(0.5) == 0.5
        for deep in ("(" * (n + 1) + "t" + ")" * (n + 1), "-" * (n + 1) + "t",
                     "(" * n + "sin(t)" + ")" * n, "(" * 5000 + "t" + ")" * 5000):
            with pytest.raises(ConfigError, match=f"nesting deeper than {n} levels"):
                parse_expr(deep)

    def test_long_sums_and_products_evaluate_left_to_right(self):
        assert parse_expr("+".join(["t"] * 5000))(1.0) == 5000.0
        assert parse_expr("*".join(["t"] * 5000))(1.0) == 1.0
        assert parse_expr("1 - 2 - 3 * 4 / 5 + 6")(0.0) == 1 - 2 - 3 * 4 / 5 + 6
        assert parse_expr("t / 3 * 3 - 0.1 - 0.2")(1.0) == 1.0 / 3 * 3 - 0.1 - 0.2


class TestConfig:
    def test_full_config(self):
        cfg = parse_config(
            "delta = 1e-3\ntmax = 1.05\ntol = 1e-2\n"
            "schedule = 1e-2, 5e-3, 2.5e-3\nprobes = 0.5, 1.0\n"
            "input.0 = expr: sin(t)\n")
        assert cfg.delta == 1e-3 and cfg.tmax == 1.05
        assert cfg.schedule.deltas == (1e-2, 5e-3, 2.5e-3)
        assert cfg.schedule.tol == 1e-2
        assert cfg.probes == (0.5, 1.0)
        assert cfg.inputs[0](0.25) == math.sin(0.25)

    def test_default_schedule_halves_delta(self):
        cfg = parse_config("delta = 8e-3\ntmax = 1.0\n")
        assert cfg.schedule.deltas == (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)

    def test_missing_keys_and_bad_lines(self):
        with pytest.raises(ConfigError):
            parse_config("tmax = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config("delta = 1e-3\ntmax = 1\nwhatever = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config("delta 1e-3\n")
        assert err.value.line == 1

    def test_sparse_inputs_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("delta = 1e-3\ntmax = 1\ninput.1 = expr: t\n")

    def test_csv_input(self, tmp_path):
        path = tmp_path / "ramp.csv"
        path.write_text("t,value\n0,0\n1,2\n")
        cfg = parse_config(f"delta = 0.25\ntmax = 1\ninput.0 = csv: {path}\n")
        assert cfg.inputs[0](0.5) == 1.0

    def test_bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n")
        with pytest.raises(ConfigError):
            parse_config(f"delta = 0.25\ntmax = 1\ninput.0 = csv: {path}\n")


# ---------------------------------------------------------------------------
# Parse outcomes of damaged documents, pinned byte for byte
# ---------------------------------------------------------------------------

MUTATION_TOKENS = ("(", ")", "->", ":", "#", "sig", "net", "ports", "op", "in", "out",
                   "0", "1", "2", "-1", "x0", "p0", "-", ">", "1a", "a-", "()")
MUTATION_CHARS = "()->:#_ 1a\t"

_HEAD = "sig f 1 1\nsig g 2 0\nnet n : 1 -> 1\n  ports a b c\n"
_BOUNDARY = "  in a\n  out b\n"
#: Hand-written documents for error paths that random damage rarely reaches.
EDGE_TEXTS = tuple(_HEAD + body for body in (
    "  op x f (a\n", "  op x f (a b\n", "  op x f (a) ->\n", "  op x f (a) -> (b) extra\n",
    "  op x f (a) -> b\n", "  op x f a -> (b)\n", "  op x f (a ( b) -> (b)\n",
    "  op x f (a z) -> (b)\n", "  op x f (a) -> (b b)\n", "  op x f (1) -> (b)\n",
    "  op x f (a) => (b)\n", "  op 1 f (a) -> (b)\n", "  op\n", "\top x\th\t(a)\n",
    "  op x f (a ) ) -> (b)\n", "  op x f (a) -> (b) )\n", "  op x g (a b) -> (c)\n",
    "  op x f (a) -> (b)\n  op x h ((\n", "  op x g (a b b) -> ()\n",
    "  op x f(a)->(b)#c\n" + _BOUNDARY, "  op x g (a a) -> () #\n" + _BOUNDARY,
    "  ports d 1 a\n", "  ports d e d\n", "  ports d c\n", "  ports d\u00e9 e\n" + _BOUNDARY,
    "  ports\n" + _BOUNDARY, "  in a 1 zz\n", "  in zz\n", "  in a\n  in 1\n",
    "\tout\ta\tq\n", "  in a\n  out\n", "  in a\n  out b b\n", "  in\n  out b\n",
    "  in a a\n  out b\n", "  in p0-1\n", "  out b\n  in a\n  out 1\n",
    "sig f 1 1 1\n", "sig h 1\n", "sig h a 1\n", "sig 1 1 1\n", "sig f x\n", "sig\n",
    "sig h 1 1 x\n", "sig h \u0663 1\n" + _BOUNDARY, "-> x\n", "# only a comment\n",
    _BOUNDARY + "net n : 1 -> 1\n", _BOUNDARY + "net m : 1 -> 1 x\n",
    _BOUNDARY + "net m 1 -> 1\n", _BOUNDARY + "net m : 1 > 1\n", _BOUNDARY + "net m : 1\n",
    _BOUNDARY + "net\n", _BOUNDARY + "net 1\n", _BOUNDARY + "net m : x -> 1\n",
    _BOUNDARY + "net m : 0 -> 0\nnet m : 0 -> 0\n", _BOUNDARY + "net m : 0 -> 0\n  ports a\n",
    _BOUNDARY + "# end", "  op x g (a b) -> ()\n" + _BOUNDARY,
))


def mutated_fixture_text(rng: random.Random) -> str:
    """A fixture file with one to four lines, tokens or characters inserted,
    deleted or duplicated (tokens split on whitespace, indentation kept)."""
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.net")))
    with open(rng.choice(paths), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    vocabulary = MUTATION_TOKENS + tuple(t for line in lines for t in line.split())
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        line = lines[i]
        lead, tokens = line[:len(line) - len(line.lstrip())], line.split()
        kind = rng.choice(("delete-line", "duplicate-line", "insert-token", "delete-token",
                           "duplicate-token", "insert-char", "delete-char"))
        if kind == "delete-line":
            if len(lines) > 1:
                del lines[i]
        elif kind == "duplicate-line":
            lines.insert(rng.randint(0, len(lines)), line)
        elif kind == "insert-char":
            k = rng.randint(0, len(line))
            lines[i] = line[:k] + rng.choice(MUTATION_CHARS) + line[k:]
        elif kind == "delete-char":
            if line:
                k = rng.randrange(len(line))
                lines[i] = line[:k] + line[k + 1:]
        else:
            if kind == "insert-token":
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(vocabulary))
            elif tokens:
                j = rng.randrange(len(tokens))
                if kind == "delete-token":
                    del tokens[j]
                else:
                    tokens.insert(j, tokens[j])
            lines[i] = lead + " ".join(tokens)
    return "\n".join(lines) + "\n"


def parse_outcome(text: str) -> dict:
    """The printed document, or the error with its code, message, line and column."""
    try:
        return {"document": format_document(parse_document(text))}
    except KahnetsError as exc:
        return {"error": exc.format()}


def write_dsl_errors(count: int = 300) -> None:
    """Write ``tests/golden/dsl-errors.json``: ``count`` damaged fixtures, one
    seeded ``random.Random(i)`` each, then ``EDGE_TEXTS``, and their parse
    outcomes."""
    cases = []
    for seed in range(count):
        text = mutated_fixture_text(random.Random(seed))
        cases.append({"seed": seed, "text": text, **parse_outcome(text)})
    for text in EDGE_TEXTS:
        cases.append({"seed": None, "text": text, **parse_outcome(text)})
    with open(DSL_ERRORS, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")


def test_damaged_documents_parse_as_pinned():
    """The same document or the same error code, message, line and column as
    pinned in ``tests/golden/dsl-errors.json``."""
    with open(DSL_ERRORS, encoding="utf-8") as handle:
        cases = json.load(handle)
    assert sum(case["seed"] is not None for case in cases) == 300
    assert [case["text"] for case in cases if case["seed"] is None] == list(EDGE_TEXTS)
    for case in cases:
        expected = {k: case[k] for k in ("document", "error") if k in case}
        assert parse_outcome(case["text"]) == expected, case["seed"]


OP_LINE_PIECES = ("op", "x0", "x1", "x2", "alpha", "beta", "gamma", "(", ")", "->", "-", ">",
                  "p0", "p1", "p2", "p3", "p4", "pé", "p9", "1a", "é", ",", "#", "()")
SPACES = ("", " ", " ", "  ", "\t", "\u00a0", "\u3000")


def generated_op_line(rng: random.Random) -> str:
    """A well-formed op line, in a random layout and with up to two tokens
    inserted, deleted or replaced, for ``TestOpLines``' net."""
    sym = rng.choice(("alpha", "beta"))
    ports = ("p0", "p1", "p2", "p3", "p4", "pé")
    tokens = ["op", rng.choice(("x0", "x1", "x2", "x3")), sym, "(", *rng.choices(ports, k=2), ")",
              "->", "(", *rng.choices(ports, k=1 if sym == "alpha" else 2), ")"]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(tokens) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            tokens.insert(i, rng.choice(OP_LINE_PIECES))
        elif i < len(tokens):
            tokens[i:i + 1] = [] if edit == "delete" else [rng.choice(OP_LINE_PIECES)]
    # The space between two names is left out only now and then; they then
    # read as one name.
    line = rng.choice(SPACES)
    for t in tokens:
        names = line[-1:].isalnum() and t[0].isalnum()
        line += rng.choice(SPACES[1:] if names and rng.random() < 0.9 else SPACES) + t
    return line + rng.choice(SPACES)


def parse_result(text: str):
    """The document, or the error's type, message, line and column."""
    try:
        return parse_document(text)
    except KahnetsError as exc:
        return type(exc), exc.message, exc.line, exc.col


def test_the_op_line_shortcut_changes_no_outcome(monkeypatch):
    """``_OP_LINE`` is the one shortcut past the grammar in ``_Line``: with
    it matching nothing, every fixture, every text of
    ``tests/golden/dsl-errors.json`` and 2,000 generated op lines parse to
    the same document or fail with the same error, line and column."""
    texts = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.net"))):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    with open(DSL_ERRORS, encoding="utf-8") as handle:
        texts += [case["text"] for case in json.load(handle)]
    rng = random.Random(0)
    head, tail = TestOpLines.HEAD + TestOpLines.X1, TestOpLines.TAIL
    texts += [head + generated_op_line(rng) + "\n" + tail for _ in range(2000)]
    with_shortcut = [parse_result(text) for text in texts]
    monkeypatch.setattr(dsl, "_OP_LINE", re.compile(r"(?!)"))
    assert [parse_result(text) for text in texts] == with_shortcut
    generated = with_shortcut[-2000:]
    accepted = sum(isinstance(result, NetDocument) for result in generated)
    assert 500 < accepted < 1500


if __name__ == "__main__":
    # python tests/test_dsl.py --write-golden  (with src/ on PYTHONPATH)
    if sys.argv[1:] == ["--write-golden"]:
        write_dsl_errors()
