"""Tests for the script language and CLI: lexing, parsing, printing,
execution semantics, exit codes, and JSON stability."""

import argparse
import contextlib
import glob
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from icmlab import cli_app, ideal_engine, invariants, theorem_lab
from icmlab.cli_app import (
    ArityError,
    IdealStmt,
    LexError,
    ParseError,
    ParseSyntaxError,
    QueryStmt,
    RingStmt,
    Script,
    UndeclaredNameError,
    execute,
    main,
    parse,
    parse_polynomial,
    print_script,
)
from icmlab.errors import SearchExhaustedError
from icmlab.ideal_engine import Ideal, buchberger, engine_context, saturate
from icmlab.ring_core import FieldSpec, RingDescriptor
from icmlab.theorem_lab import SuiteReport

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

GOLDEN = (
    "ring R = QQ[x1,x2,x3,y1,y2,y3];\n"
    "ideal I = x1,x2,x3;\n"
    "ideal Jy = y1,y2,y3;\n"
    "ideal J = intersect(I,Jy);\n"
    "icm J I;\n"
)


class TestLexer:
    def test_comments_and_whitespace_skipped(self):
        script = parse("# a comment line\nring R = QQ[x];  # trailing\n")
        assert len(script.statements) == 1

    def test_bad_character_reports_position(self):
        with pytest.raises(LexError) as info:
            parse("ring R = QQ[x];\n  @")
        assert info.value.line == 2
        assert info.value.col == 3
        assert "(line 2, column 3)" in str(info.value)

    def test_superscript_digit_is_a_lex_error(self):
        # "²" passes str.isdigit but not int(); an int is what int() reads
        with pytest.raises(LexError) as info:
            parse("ring R = QQ[x];\nideal J = x^\u00b2;")
        assert str(info.value) == "unexpected character '\u00b2' (line 2, column 13)"

    def test_end_of_input_after_a_trailing_comment(self):
        # the end of input sits where the comment starts, not after it
        with pytest.raises(ParseSyntaxError) as info:
            parse("ring R = QQ[x] # note")
        assert str(info.value) == "expected ';', found 'end of input' (line 1, column 16)"

    @pytest.mark.parametrize(
        "source, line, col",
        [
            ("ring R = QQ[x];\nideal J = %s*x;", 2, 11),  # a coefficient
            ("ring R = QQ[x];\nideal J = 1/%s;", 2, 13),  # a denominator
            ("ring R = QQ[x];\nideal J = %s/2;", 2, 11),  # a numerator
            ("ring R = QQ[x];\nideal J = x^%s;", 2, 13),  # an exponent
            ("ring R = GF(%s)[x];", 1, 13),  # the prime
        ],
    )
    def test_long_integer_literal_is_a_syntax_error(self, source, line, col):
        # by default int() converts at most 4,300 digits (sys.get_int_max_str_digits)
        with pytest.raises(ParseSyntaxError) as info:
            parse(source % ("1" * 5000))
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value).startswith("integer literal too long (5000 digits) ")

    def test_tokens_are_plain_tuples(self):
        assert cli_app._lex("x1^2 # c\n+ 3/4;") == [
            ("ident", "x1", 1, 1),
            ("sym", "^", 1, 3),
            ("int", "2", 1, 4),
            ("sym", "+", 2, 1),
            ("int", "3", 2, 3),
            ("sym", "/", 2, 4),
            ("int", "4", 2, 5),
            ("sym", ";", 2, 6),
            ("eof", "", 2, 7),
        ]


class TestParser:
    def test_example_script(self):
        script = parse("ring R = QQ[x,y]; ideal J = x*y; dim J;")
        kinds = [type(s) for s in script.statements]
        assert kinds == [RingStmt, IdealStmt, QueryStmt]
        ring_stmt, ideal_stmt, query = script.statements
        assert ring_stmt.name == "R"
        assert ring_stmt.ring.variables == ("x", "y")
        assert [str(g) for g in ideal_stmt.generators] == ["x*y"]
        assert query.keyword == "dim"
        assert query.args == ("J",)

    def test_dangling_operator_is_a_syntax_error(self):
        with pytest.raises(ParseSyntaxError) as info:
            parse("ring R = QQ[x,y]; ideal J = x +;")
        assert "expected a factor" in str(info.value)
        assert info.value.line == 1

    def test_undeclared_ideal_in_query(self):
        with pytest.raises(UndeclaredNameError):
            parse("ring R = QQ[x]; dim K;")

    def test_undeclared_ideal_in_intersect(self):
        with pytest.raises(UndeclaredNameError):
            parse("ring R = QQ[x]; ideal J = x; ideal K = intersect(J, Q);")

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredNameError):
            parse("ring R = QQ[x]; ideal J = y;")

    def test_arity_too_many_names(self):
        with pytest.raises(ArityError):
            parse("ring R = QQ[x]; ideal J = x; dim J J;")

    def test_arity_too_few_names(self):
        with pytest.raises(ArityError) as info:
            parse("ring R = QQ[x]; ideal J = x; grade J;")
        assert "takes 2" in str(info.value)

    def test_statement_before_any_ring(self):
        with pytest.raises(ParseSyntaxError) as info:
            parse("ideal J = x;")
        assert "no ring declared" in str(info.value)

    def test_new_ring_opens_fresh_scope(self):
        with pytest.raises(UndeclaredNameError):
            parse("ring R = QQ[x]; ideal J = x; ring S = QQ[y]; dim J;")

    def test_prime_field_and_order_clause(self):
        script = parse("ring R = GF(7)[x, y] order lex;")
        ring = script.statements[0].ring
        assert ring.field.characteristic == 7
        assert ring.order.kind == "lex"

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse("ring R = ZZ[x];")

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse("ring R = GF(4)[x];")

    def test_characteristic_zero_prime_field_rejected(self):
        # GF(0) would otherwise be read as QQ and printed back as QQ
        with pytest.raises(ParseSyntaxError, match=r"GF\(0\)"):
            parse("ring R = GF(0)[x, y]; ideal I = 1/2*x + y; gb I;")

    def test_unknown_order_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse("ring R = QQ[x] order deglex;")

    def test_unknown_statement_keyword(self):
        with pytest.raises(ParseSyntaxError):
            parse("frobnicate;")

    def test_verify_takes_hyphenated_suite_id(self):
        script = parse("ring R = QQ[x]; verify grade-height;")
        query = script.statements[1]
        assert query.keyword == "verify"
        assert query.args == ("grade-height",)

    def test_all_errors_are_parse_errors(self):
        for cls in (LexError, ParseSyntaxError, UndeclaredNameError, ArityError):
            assert issubclass(cls, ParseError)


# scripts drawn from README's grammar, tokens joined by blanks, newlines
# and comments (or nothing, which may glue two words into one)
GAPS = st.sampled_from([" "] * 5 + ["", "\n", "\t", "\r\n", "  # note\n"])
VARIABLES = ["x", "y", "x", "y", "z", "_w1"]
IDEALS = ["J", "J", "I", "K"]


@st.composite
def factor_tokens(draw):
    if draw(st.booleans()):
        tokens = [str(draw(st.integers(0, 40)))]
        if draw(st.integers(0, 3)) == 0:
            tokens += ["/", str(draw(st.integers(0, 12)))]
        return tokens
    tokens = [draw(st.sampled_from(VARIABLES))]
    if draw(st.booleans()):
        tokens += ["^", str(draw(st.integers(0, 4)))]
    return tokens


@st.composite
def polynomial_tokens(draw):
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        if k or draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        for j in range(draw(st.integers(1, 3))):
            tokens += (["*"] if j else []) + draw(factor_tokens())
    return tokens


@st.composite
def statement_tokens(draw):
    kind = draw(st.sampled_from(["ring", "ideal", "ideal", "query"]))
    if kind == "ring":
        field = draw(st.sampled_from([["QQ"]] + [["GF", "(", p, ")"] for p in ("2", "7", "32003", "0", "4")]))
        names = ["x", "y"] + draw(st.lists(st.sampled_from(VARIABLES), max_size=2))
        tokens = ["ring", "R", "="] + field + ["["] + " , ".join(names).split() + ["]"]
        if draw(st.booleans()):
            tokens += ["order", draw(st.sampled_from(["lex", "grevlex"]))]
        return tokens + [";"]
    name = draw(st.sampled_from(IDEALS))
    if kind == "ideal" and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.sampled_from(IDEALS)), draw(st.sampled_from(IDEALS))
        return ["ideal", name, "=", "intersect", "(", a, ",", b, ")", ";"]
    if kind == "ideal":
        tokens = ["ideal", name, "="] + draw(polynomial_tokens())
        for _ in range(draw(st.integers(0, 2))):
            tokens += [","] + draw(polynomial_tokens())
        return tokens + [";"]
    keyword = draw(st.sampled_from(sorted(cli_app.QUERIES)))
    if keyword == "verify":
        return ["verify", "grade", "-", "height", ";"]
    arity = cli_app.QUERIES[keyword][0] + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return [keyword] + draw(st.lists(st.sampled_from(IDEALS), min_size=arity, max_size=arity)) + [";"]


@st.composite
def grammar_scripts(draw):
    tokens = ["ring", "R", "=", "QQ", "[", "x", ",", "y", "]", ";", "ideal", "J", "=", "x", ";"]
    for _ in range(draw(st.integers(0, 5))):
        tokens += draw(statement_tokens())
    return "".join(tok + draw(GAPS) for tok in tokens)


# characters the lexer must place: digits int() rejects (superscript,
# vulgar fraction) and one it reads (Arabic-Indic three), a titlecase
# letter, blanks it does not skip, and its own comment and line breaks
ODD_CHARACTERS = st.sampled_from(
    ["\u00b2", "\u00bd", "\u0663", "\u01c5", "\x0b", "\u00a0", "#", "\r", "\n", "_", "/", "^", "0"]
)


@st.composite
def mutated_scripts(draw):
    text = draw(grammar_scripts())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.one_of(ODD_CHARACTERS, st.characters()))
        cut = draw(st.integers(0, 1))  # insert ch, or replace the character at i
        text = text[:i] + ch + text[i + cut:]
    if draw(st.booleans()):
        text += "# a trailing comment, no newline"
    return text


def outcome(read, source):
    """What ``read`` makes of ``source``: each statement, with every
    coefficient's type, or the class, message and position of its error."""
    try:
        script = read(source)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return [
        (stmt, [[(m, type(c), c) for m, c in g.terms] for g in stmt.generators or ()])
        if isinstance(stmt, IdealStmt)
        else stmt
        for stmt in script.statements
    ]


class TestAgainstTheEarlierParser:
    """The one-pass lexer and the parser over its tuples read every script
    as the per-character lexer and the Fraction-per-factor parser did
    (``oracles.oracle_parse``): the same statements and coefficients, or
    the same error at the same line and column."""

    @settings(max_examples=400, deadline=None)
    @given(st.text())
    def test_lexer_on_any_text(self, source):
        try:
            want = [(t.kind, t.text, t.line, t.col) for t in oracles.oracle_lex(source)]
        except LexError as exc:
            with pytest.raises(LexError) as info:
                cli_app._lex(source)
            assert (str(info.value), info.value.line, info.value.col) == (str(exc), exc.line, exc.col)
        else:
            assert cli_app._lex(source) == want

    @settings(max_examples=200, deadline=None)
    @given(grammar_scripts())
    def test_grammar_scripts(self, source):
        assert outcome(parse, source) == outcome(oracles.oracle_parse, source)

    @settings(max_examples=300, deadline=None)
    @given(mutated_scripts())
    def test_mutated_scripts(self, source):
        assert outcome(parse, source) == outcome(oracles.oracle_parse, source)


class TestPolynomialParsing:
    def setup_method(self):
        self.ring = RingDescriptor(FieldSpec(0), ("x", "y"))

    def test_printer_parser_round_trip(self):
        for text in ("3/4*x^2 - y + 2", "-x*y + x - 1", "2*x^2*y^3", "x - y"):
            f = parse_polynomial(text, self.ring)
            assert str(f) == text
            assert parse_polynomial(str(f), self.ring) == f

    def test_terms_collect(self):
        f = parse_polynomial("x + x + y - y", self.ring)
        assert str(f) == "2*x"

    def test_zero_polynomial(self):
        f = parse_polynomial("0", self.ring)
        assert f.is_zero

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseSyntaxError) as info:
            parse_polynomial("x y", self.ring)
        assert "trailing input" in str(info.value)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_polynomial("1/0*x", self.ring)

    def test_prime_field_coefficients_normalize(self):
        ring = RingDescriptor(FieldSpec(7), ("x",))
        f = parse_polynomial("10*x - 3", ring)
        assert str(f) == "3*x + 4"


ROUND_TRIP_SOURCES = [
    GOLDEN,
    "ring R = QQ[x,y]; ideal J = x^2 - y, 3/4*x; gb J; dim J;",
    "ring R = GF(32003)[a, b, c] order lex; ideal J = a*b - c^2; height J;",
    "ring R = QQ[x]; ideal Z = 0; ideal I = x; grade Z I; icm Z I;",
    "ring R = QQ[x,y]; ideal A = x; ideal B = y; ideal C = intersect(A, B);\n"
    "colon C A; sat C B; intersect A B; minprimes C; ass C;",
    "ring R = QQ[x]; verify grade-height;\nring S = GF(5)[u, v]; ideal J = u*v; dim J;",
]


class TestPrintScript:
    def test_round_trip_law(self):
        for source in ROUND_TRIP_SOURCES:
            script = parse(source)
            assert parse(print_script(script)) == script

    def test_printer_is_idempotent(self):
        for source in ROUND_TRIP_SOURCES:
            once = print_script(parse(source))
            assert print_script(parse(once)) == once

    def test_zero_ideal_prints_as_zero(self):
        text = print_script(parse("ring R = QQ[x]; ideal J = 0;"))
        assert "ideal J = 0;" in text

    def test_intersect_form_preserved(self):
        text = print_script(parse(GOLDEN))
        assert "ideal J = intersect(I, Jy);" in text

    def test_empty_script(self):
        assert print_script(parse("")) == ""


class TestExecute:
    def test_golden_script_text(self):
        text, code = execute(parse(GOLDEN))
        assert code == 0
        assert "  grade = 0" in text
        assert "  dim M = 3" in text
        assert "  dim M/IM = 3" in text
        assert "  defect = 0" in text
        assert "  I-Cohen-Macaulay: yes" in text

    def test_golden_script_json(self):
        text1, code1 = execute(parse(GOLDEN), as_json=True)
        text2, code2 = execute(parse(GOLDEN), as_json=True)
        assert code1 == code2 == 0
        assert text1 == text2
        payload = json.loads(text1)
        icm_record = payload[-1]
        assert icm_record["query"] == "icm"
        assert icm_record["args"] == ["J", "I"]
        report = icm_record["report"]
        assert report["grade"] == 0
        assert report["dim_m"] == 3
        assert report["dim_m_mod_im"] == 3
        assert report["defect"] == 0
        assert report["is_icm"] is True

    def test_one_argument_queries(self):
        text, code = execute(
            parse(
                "ring R = QQ[x,y]; ideal J = x^2, x*y;"
                "gb J; dim J; height J; minprimes J; ass J;"
            )
        )
        assert code == 0
        assert "gb J = [x*y, x^2]" in text
        assert "dim R/J = 1" in text
        assert "height J = 1" in text
        assert "minprimes J = [<x>]" in text
        assert "ass J = [<x>, <x, y>]" in text

    def test_two_argument_queries(self):
        text, code = execute(
            parse(
                "ring R = QQ[x,y]; ideal J = x^2*y; ideal K = y;"
                "colon J K; sat J K; intersect J K;"
            )
        )
        assert code == 0
        assert "colon(J, K) = [x^2]" in text
        assert "sat(J, K) = [x^2], exponent = 1" in text
        assert "intersect(J, K) = [x^2*y]" in text

    def test_grade_query_prints_witness(self):
        text, code = execute(
            parse("ring R = QQ[x,y,z]; ideal Z = 0; ideal I = x,y; grade Z I;")
        )
        assert code == 0
        assert "grade(I, R/Z) = 2" in text
        assert "witness = [" in text
        assert "certificate exponent = " in text

    def test_engine_error_returns_code_1(self):
        text, code = execute(parse("ring R = QQ[x]; ideal J = 1; dim J;"))
        assert code == 1
        assert text.startswith("error in query 'dim J':")

    def test_engine_error_aborts_remaining_queries(self):
        text, code = execute(
            parse("ring R = QQ[x]; ideal J = 1; ideal K = x; dim J; height K;")
        )
        assert code == 1
        assert "height" not in text

    def test_verify_query_inside_script(self):
        text, code = execute(parse("ring R = QQ[x]; verify grade-height;"), trials=5)
        assert code == 0
        assert "suite grade-height: trials=5" in text
        assert "failures: 0" in text

    def test_empty_script(self):
        assert execute(parse("")) == ("", 0)

    def test_statement_before_any_ring_is_an_engine_error(self):
        text, code = execute(Script((QueryStmt("dim", ("J",)),)))
        assert code == 1
        assert text == "error in query 'dim J': no ring declared yet\n"


class TestMain:
    def test_run_golden_file(self, tmp_path, capsys):
        script = tmp_path / "golden.icm"
        script.write_text(GOLDEN)
        rc = main(["run", str(script)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "I-Cohen-Macaulay: yes" in out

    def test_json_output_is_byte_stable(self, tmp_path, capsys):
        script = tmp_path / "golden.icm"
        script.write_text(GOLDEN)
        rc1 = main(["run", str(script), "--json"])
        out1 = capsys.readouterr().out
        rc2 = main(["run", str(script), "--json"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
        json.loads(out1)

    def test_parse_error_exits_2(self, tmp_path, capsys):
        script = tmp_path / "bad.icm"
        script.write_text("ring R = QQ[x,y];\nideal J = x +;\n")
        rc = main(["run", str(script)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "parse error:" in err
        assert "(line 2, column" in err

    def test_engine_error_exits_1(self, tmp_path, capsys):
        script = tmp_path / "unit.icm"
        script.write_text("ring R = QQ[x]; ideal J = 1; dim J;\n")
        rc = main(["run", str(script)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error in query 'dim J'" in err

    @pytest.mark.parametrize(
        "source, flags, code, err",
        [
            (
                "ring R = GF(3)[x, y];\nideal J = x + 1/3*y;\ngb J;\n",
                [],
                2,
                "parse error: denominator vanishes in GF(3) (line 2, column 20)\n",
            ),
            (
                "ring R = QQ[x,y,z];\nideal J = x^2 + y*z, y^2 + x*z, z^2 + x*y;\n"
                "ideal I = x + y + z, x*y*z;\nideal K = intersect(J, I);\n",
                ["--step-limit", "1"],
                1,
                "error in query 'ideal K': Buchberger completion exceeded 1 S-pair reductions",
            ),
            (
                "ring R = QQ[x, y];\nideal J = x, x + 1;\nheight J;\n",
                [],
                1,
                "error in query 'height J': the ideal is the whole ring\n",
            ),
            (
                "ring R = QQ[x, y];\nideal J = 1;\nass J;\n",
                [],
                1,
                "error in query 'ass J': the ideal is the whole ring\n",
            ),
        ],
    )
    def test_refused_scripts_exit_1_or_2(self, tmp_path, capsys, source, flags, code, err):
        script = tmp_path / "refused.icm"
        script.write_text(source)
        rc = main(["run", str(script)] + flags)
        captured = capsys.readouterr()
        assert rc == code
        assert captured.out == "" and captured.err.startswith(err)

    def test_missing_file_exits_1(self, capsys):
        rc = main(["run", "/no/such/file.icm"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot read" in err

    def test_superscript_digit_exits_2(self, tmp_path, capsys):
        script = tmp_path / "power.icm"
        script.write_text("ring R = QQ[x];\nideal J = x^\u00b2;\n", encoding="utf-8")
        rc = main(["run", str(script)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "parse error: unexpected character '\u00b2' (line 2, column 13)\n"

    def test_long_integer_literal_exits_2(self, tmp_path, capsys):
        script = tmp_path / "long.icm"
        script.write_text("ring R = QQ[x];\nideal J = %s*x;\n" % ("1" * 5000))
        rc = main(["run", str(script)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "parse error: integer literal too long (5000 digits) (line 2, column 11)\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_long_coefficient_prints_in_full(self, tmp_path, capsys, flags):
        # the monic basis of a^2*x + 1 is x + 1/a^2, whose 6,000 digits are
        # past the 4,300 that str() prints (and int() reads), so the printed
        # denominator is read back slice by slice
        a = int("7" * 3000)
        script = tmp_path / "long_coefficient.icm"
        script.write_text("ring R = QQ[x];\nideal J = %s*%s*x + 1;\ngb J;\n" % (a, a))
        rc = main(["run", str(script)] + flags)
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        digits = re.search(r"x \+ 1/([0-9]+)", captured.out).group(1)
        assert len(digits) == 6000 and digits[0] != "0"
        value = 0
        for k in range(0, len(digits), 4000):
            value = value * 10 ** len(digits[k : k + 4000]) + int(digits[k : k + 4000])
        assert value == a * a

    def test_degrees_past_two_to_the_fifteen(self, tmp_path, capsys, monkeypatch):
        # y^160000 outgrows the field width the kernel starts the lex
        # completion at (fit for four times the input degree 20000), which
        # is then redone wider; the bytes are those of exponent tuples
        script = tmp_path / "high_degree.icm"
        script.write_text(
            "ring R = GF(32003)[x, y] order lex;\nideal J = x - y^8, x^20000 - 1;\ngb J;\n"
            "ring S = QQ[a, b, c];\nideal K = a^40000*b - c, b^2 - a*c, c^3;\ngb K;\n"
        )
        widths = set()
        original = ideal_engine._reduce
        monkeypatch.setattr(ideal_engine, "_reduce", lambda *a: widths.add(a[3].width) or original(*a))
        assert main(["run", str(script), "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        want = [
            {"args": ["J"], "basis": ["y^160000 + 32002", "x + 32002*y^8"], "query": "gb"},
            {"args": ["K"], "basis": ["b^2 - a*c", "c^3", "a^40000*b - c", "a^40001*c - b*c"], "query": "gb"},
        ]
        assert captured.out == json.dumps(want, indent=2) + "\n"
        assert {17, 34} <= widths

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        script = tmp_path / "latin1.icm"
        script.write_bytes(b"# caf\xe9\n")
        rc = main(["run", str(script)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("cannot read %s: " % script)

    def test_verify_subcommand(self, capsys):
        rc = main(["verify", "grade-height", "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("suite grade-height: trials=5")
        assert "failures: 0" in out

    def test_verify_subcommand_json(self, capsys):
        rc = main(["verify", "ass-dimension", "--trials", "5", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["suite_id"] == "ass-dimension"
        assert report["trials"] == 5
        assert report["failures"] == []
        assert "wall_time" not in report

    def test_verify_unknown_suite_exits_1(self, capsys):
        rc = main(["verify", "bogus-suite", "--trials", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error in query 'verify bogus-suite'" in err

    def test_verify_failures_exit_3(self, capsys, monkeypatch):
        fake = SuiteReport(
            suite_id="grade-height",
            trials=2,
            skipped_hypothesis=0,
            failures=("# reproducer script",),
        )
        monkeypatch.setattr(theorem_lab, "run_suite", lambda *a, **k: fake)
        rc = main(["verify", "grade-height", "--trials", "2"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "failures: 1" in out
        assert "# reproducer script" in out

    def test_script_verify_failures_exit_3(self, tmp_path, capsys, monkeypatch):
        fake = SuiteReport(
            suite_id="grade-height",
            trials=2,
            skipped_hypothesis=0,
            failures=("# reproducer script",),
        )
        monkeypatch.setattr(theorem_lab, "run_suite", lambda *a, **k: fake)
        script = tmp_path / "ver.icm"
        script.write_text("ring R = QQ[x]; verify grade-height;\n")
        rc = main(["run", str(script)])
        capsys.readouterr()
        assert rc == 3

    STEP_LIMIT_SCRIPT = (
        "ring R = QQ[x,y,z];\n"
        "ideal J = x^2 + y*z, y^2 + x*z, z^2 + x*y;\n"
        "gb J;\n"
    )

    def test_step_limit_flag_trips(self, tmp_path, capsys):
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        rc = main(["run", str(script), "--step-limit", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error in query 'gb J'" in err

    @pytest.mark.parametrize(
        "gens, rc, out",
        [("x^2, x*y, y^2", 0, "gb J = [y^2, x*y, x^2]\n"), ("x^2 - y, x*y", 1, "")],
        ids=["monomial", "binomial"],
    )
    def test_step_limit_spares_a_monomial_basis(self, tmp_path, capsys, gens, rc, out):
        # a monomial ideal's basis is its minimal generators, reached with
        # no S-pair reduction, so a limit of 1 lets it through
        script = tmp_path / "gb.icm"
        script.write_text("ring R = QQ[x,y];\nideal J = %s;\ngb J;\n" % gens)
        assert main(["run", str(script), "--step-limit", "1"]) == rc
        captured = capsys.readouterr()
        assert captured.out == out
        assert ("exceeded 1 S-pair" in captured.err) == bool(rc)

    def test_step_limit_does_not_outlive_the_call(self, tmp_path, capsys):
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        assert main(["run", str(script), "--step-limit", "1"]) == 1
        assert main(["run", str(script)]) == 0
        capsys.readouterr()

    def test_one_argparser_per_process(self, tmp_path, capsys, monkeypatch):
        # the documented command line builds no parser; the first usage
        # error builds it and its two subparsers, and a later one reuses it
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli_app._build_argparser.cache_clear()
        monkeypatch.setenv("COLUMNS", "80")
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        assert main(["run", str(script)]) == 0
        assert main(["run", str(script), "--step-limit", "1"]) == 1
        assert main(["verify", "no-such-suite", "--json", "--seed", "-5", "--trials", "2"]) == 1
        capsys.readouterr()
        assert built == []
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: icm-lab run [-h] [--json] [--seed SEED] [--trials TRIALS]\n"
            "                   [--budget BUDGET] [--step-limit STEP_LIMIT]\n"
            "                   file\n"
            "icm-lab run: error: the following arguments are required: file\n"
        )
        assert built == ["icm-lab", "icm-lab run", "icm-lab verify"]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "grade-height", "--step-limit", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: icm-lab verify")
        assert len(built) == 3

    def test_bad_step_limit_is_a_usage_error(self, tmp_path, capsys):
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(script), "--step-limit", "0"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: icm-lab run")
        assert "argument --step-limit: must be a positive integer" in err

    @pytest.mark.parametrize("flag", ["--trials", "--budget"])
    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    def test_bad_trials_or_budget_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "grade-height", "--json", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: icm-lab verify")
        assert "argument %s: must be a positive integer" % flag in err


# argv tokens: the flags, spellings only argparse reads ("=" forms,
# abbreviations, help, "--"), values that int reads but argparse takes for a
# flag ("-5_0"), non-ASCII digits, and, as positionals, a small corpus
# script and a suite id that does not exist, so a whole main() call is cheap
_SCAN_SCRIPT = os.path.join(CORPUS_DIR, "ok_12_grade_on_quotient.icm")
_SCAN_FLAGS = ["--json", "--seed", "--trials", "--budget", "--step-limit"]
_SCAN_TOKENS = _SCAN_FLAGS + [
    "--seed=3", "--json=1", "--st", "--se", "--js", "-h", "--help", "--", "-", "",
    "-5", "-5_0", "5_0", "+5", "3", "0", "1", "٣", "-٣", "x", "-x", "5 ", "-5 ", "-5.0",
    "run", "verify", _SCAN_SCRIPT, "no-such-suite",
]
_well_formed = st.tuples(
    st.sampled_from(["run", "verify"]),
    st.sampled_from([_SCAN_SCRIPT, "no-such-suite"] * 3 + ["-h", "--json", "--", "-5", "-", ""]),
    st.lists(
        st.one_of(
            st.just(["--json"]),
            st.tuples(
                st.sampled_from(_SCAN_FLAGS[1:]),
                st.sampled_from(["3", "1", "12", "٣", "5_0", "5 ", "-5", "-٣"]),
            ).map(list),
        ),
        max_size=5,
    ),
).map(lambda t: [t[0], t[1]] + [tok for part in t[2] for tok in part])
# the documented form (with repeated flags and, at times, an odd
# positional), the same with one token put in, and any short token list
_scan_argv = st.one_of(
    _well_formed,
    st.tuples(_well_formed, st.integers(0, 12), st.sampled_from(_SCAN_TOKENS)).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] :]
    ),
    st.lists(st.sampled_from(_SCAN_TOKENS), max_size=7),
)


def _through_argparse(argv):
    """argparse's namespace for ``argv``, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_app._build_argparser().parse_args(argv)
        except SystemExit:
            return None


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCommandLineScan:
    @settings(max_examples=400, deadline=None)
    @given(_scan_argv)
    def test_scan_agrees_with_argparse(self, argv):
        # whenever the scan accepts an argv, argparse returns the same
        # values; whenever argparse exits (help or a usage error), the scan
        # declines
        scanned = cli_app._scan(argv)
        parsed = _through_argparse(argv)
        if scanned is not None:
            assert parsed is not None
            assert vars(scanned) == vars(parsed)
        if parsed is None:
            assert scanned is None

    def test_documented_forms_are_scanned(self):
        assert vars(cli_app._scan(["run", "a.icm"])) == {
            "command": "run", "file": "a.icm", "json": False, "seed": 0,
            "trials": 100, "budget": None, "step_limit": None,
        }
        assert vars(cli_app._scan(["verify", "grade-height", "--json", "--seed", "-7", "--trials", "٣",
                                   "--budget", "5", "--step-limit", "9", "--seed", "2"])) == {
            "command": "verify", "suite": "grade-height", "json": True, "seed": 2,
            "trials": 3, "budget": 5, "step_limit": 9,
        }
        for argv in (["run", "a.icm", "--seed=3"], ["run", "--json", "a.icm"], ["run", "a.icm", "--st", "3"],
                     ["run", "a.icm", "--seed", "-5_0"], ["run", "a.icm", "--"], ["run", "a.icm", "--seed"],
                     ["run", "a.icm", "-h"], ["run", "a.icm", "--trials", "0"], ["-h"], []):
            assert cli_app._scan(argv) is None, argv

    def test_scan_reads_sys_argv_when_argv_is_none(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["icm-lab", "verify", "poly-extension", "--trials", "4"])
        assert cli_app._scan(None).trials == 4

    @settings(max_examples=150, deadline=None)
    @given(_scan_argv)
    def test_main_output_is_argparse_output(self, argv):
        # the exit code, stdout and stderr of main are those of the same
        # call read by argparse alone
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            direct = _main_output(argv)
            with mock.patch.object(cli_app, "_scan", lambda argv: None):
                assert _main_output(argv) == direct


class TestSearchBudget:
    # over GF(2) the only regular elements of <x, y> on R/J lie in degree 2,
    # so one candidate (the basis element x) is not enough
    GF2_SCRIPT = (
        "ring R = GF(2)[x, y]; ideal J = x^2*y + x*y^2; ideal I = x, y; grade J I;\n"
    )

    def test_budget_flag_reaches_the_search(self, tmp_path, capsys):
        script = tmp_path / "gf2.icm"
        script.write_text(self.GF2_SCRIPT)
        assert main(["run", str(script), "--budget", "1"]) == 1
        assert "within budget 1" in capsys.readouterr().err
        assert main(["run", str(script)]) == 0
        out = capsys.readouterr().out
        assert "grade(I, R/J) = 1" in out
        assert "witness = [x^2 + x*y + y^2]" in out

    def test_context_budget_bounds_grade(self):
        script = parse(self.GF2_SCRIPT)
        ring = script.statements[0].ring
        J, I = (Ideal(ring, stmt.generators) for stmt in script.statements[1:3])
        with engine_context(budget=1):
            with pytest.raises(SearchExhaustedError, match="within budget 1"):
                invariants.grade(invariants.CyclicModule(ring, J), I)
        assert invariants.grade(invariants.CyclicModule(ring, J), I).value == 1

    @pytest.mark.parametrize("bad", [0, -3, "5", True])
    def test_bad_context_budget_is_rejected(self, bad):
        with pytest.raises(ValueError, match="search budget must be a positive integer"):
            with engine_context(budget=bad):
                pass


class TestEngineContext:
    # two names for one ideal: within a call the second basis is a memo hit
    TWIN_SCRIPT = (
        "ring R = QQ[x,y,z];\n"
        "ideal A = x^2 + y*z, y^2 + x*z, z^2 + x*y;\n"
        "ideal B = x^2 + y*z, y^2 + x*z, z^2 + x*y;\n"
        "gb A;\n"
        "gb B;\n"
    )
    # two pairs, each saturated twice: within a call the second is a memo
    # hit; A by I takes the monomial route, A by K, whose basis is not
    # terms, the tagged one
    SAT_SCRIPT = (
        "ring R = QQ[x,y,z];\n"
        "ideal A = x*y, x*z;\n"
        "ideal I = y, z;\n"
        "ideal K = y + z;\n"
        "sat A I;\n"
        "sat A K;\n"
        "sat A I;\n"
        "sat A K;\n"
    )

    @pytest.fixture
    def reductions(self, monkeypatch):
        """Counts the completion's kernel reductions (generators, S-pairs and
        the final autoreduction), i.e. the work a memo hit skips."""
        count = [0]
        original = ideal_engine._reduce

        def counting(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(ideal_engine, "_reduce", counting)
        return count

    def test_memo_does_not_outlive_the_call(self, tmp_path, capsys, monkeypatch, reductions):
        script = tmp_path / "twin.icm"
        script.write_text(self.TWIN_SCRIPT)
        with engine_context():
            gens = parse(self.TWIN_SCRIPT).statements[1].generators
            buchberger(gens)
        per_basis = reductions[0]
        assert per_basis > 0
        assert main(["run", str(script)]) == 0
        assert reductions[0] == 2 * per_basis  # B was a hit
        assert main(["run", str(script)]) == 0
        assert reductions[0] == 3 * per_basis  # nothing carried over from the last call
        buchberger(gens)
        buchberger(gens)
        assert reductions[0] == 5 * per_basis  # and nothing is kept outside a call

        builds = [0]  # saturations built, one per pair that is not a hit
        for name in ("_eliminate_tag", "_monomial_saturation"):

            def counted(*args, build=getattr(ideal_engine, name)):
                builds[0] += 1
                return build(*args)

            monkeypatch.setattr(ideal_engine, name, counted)
        script.write_text(self.SAT_SCRIPT)
        assert main(["run", str(script)]) == 0
        assert builds[0] == 2  # the second sat of each pair was a hit
        assert main(["run", str(script)]) == 0
        assert builds[0] == 4  # nothing carried over from the last call
        ring_stmt, *ideals = parse(self.SAT_SCRIPT).statements[:4]
        A, I, K = (Ideal(ring_stmt.ring, stmt.generators) for stmt in ideals)
        for J in (I, K, I, K):
            saturate(A, J)
        assert builds[0] == 8  # and nothing is kept outside a call
        capsys.readouterr()

    def test_corpus_output_does_not_depend_on_the_context(self):
        files = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.icm")))
        assert len(files) == 50
        ran = 0
        for path in files:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            try:
                script = parse(source)
            except ParseError:
                continue  # rejected before the engine runs
            plain = execute(script, seed=0, as_json=True)
            with engine_context():
                memoized = execute(script, seed=0, as_json=True)
            assert memoized == plain, path
            ran += 1
        assert ran == 40
