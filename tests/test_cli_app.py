"""Tests for the script language and CLI: lexing, parsing, printing,
execution semantics, exit codes, and JSON stability."""

import glob
import json
import os

import pytest

from icmlab import ideal_engine, invariants, theorem_lab
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
from icmlab.ideal_engine import Ideal, buchberger, engine_context
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

    def test_missing_file_exits_1(self, capsys):
        rc = main(["run", "/no/such/file.icm"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot read" in err

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
            passed=1,
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
            passed=1,
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

    def test_step_limit_does_not_outlive_the_call(self, tmp_path, capsys):
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        assert main(["run", str(script), "--step-limit", "1"]) == 1
        assert main(["run", str(script)]) == 0
        capsys.readouterr()

    def test_step_limit_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ICM_STEP_LIMIT", "1")
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        rc = main(["run", str(script)])
        capsys.readouterr()
        assert rc == 1

    def test_step_limit_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ICM_STEP_LIMIT", "1")
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        rc = main(["run", str(script), "--step-limit", "100000"])
        capsys.readouterr()
        assert rc == 0

    def test_step_limit_flag_beats_bad_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ICM_STEP_LIMIT", "abc")
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        assert main(["run", str(script), "--step-limit", "100000"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "env, flag",
        [("abc", []), ("0", []), (None, ["--step-limit", "0"])],
    )
    def test_bad_step_limit_is_a_usage_error(self, tmp_path, capsys, monkeypatch, env, flag):
        if env is None:
            monkeypatch.delenv("ICM_STEP_LIMIT", raising=False)
        else:
            monkeypatch.setenv("ICM_STEP_LIMIT", env)
        script = tmp_path / "heavy.icm"
        script.write_text(self.STEP_LIMIT_SCRIPT)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(script)] + flag)
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

    @pytest.mark.parametrize("bad", [0, -3, "5"])
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

    def test_memo_does_not_outlive_the_call(self, tmp_path, capsys, reductions):
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
