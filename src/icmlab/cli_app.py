"""Batch front end: a small declarative input language plus a CLI.

A script is a sequence of statements, each ended by a semicolon:

    ring R = QQ[x, y] order grevlex;      # or GF(p); order lex | grevlex
    ideal J = x^2*y, x*y^2;               # polynomial generators ("0" = zero ideal)
    ideal K = intersect(J, J2);           # intersection of two declared ideals
    dim J;                                # queries run against R/<first arg>

Queries: gb, dim, height, ass, minprimes take one ideal name; grade, icm,
colon, sat, intersect take two (first the module-defining ideal, second the
test ideal); verify takes a suite id.  ``#`` starts a comment.  A ring
statement opens a fresh scope: earlier ideal names are no longer visible.

Polynomials are signed sums of products; every product needs explicit
``*`` between factors; a factor is an integer literal, a rational ``a/b``,
or a variable with optional ``^`` power.

Exit codes: 0 success, 1 engine error (reported with the failing query),
2 parse error (reported with line and column), 3 verify failures.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import invariants, theorem_lab
from .errors import EngineError
from .icm_checker import icm_report
from .ideal_engine import (
    Ideal,
    engine_context,
    ideal_intersect,
    ideal_quotient_ideal,
    saturate,
)
from .ring_core import FieldSpec, Polynomial, RingDescriptor, TermOrder

ONE_ARG_QUERIES = ("gb", "dim", "height", "ass", "minprimes")
TWO_ARG_QUERIES = ("grade", "icm", "colon", "sat", "intersect")
QUERY_KEYWORDS = ONE_ARG_QUERIES + TWO_ARG_QUERIES + ("verify",)


class ParseError(Exception):
    """Base for everything the parser can reject; maps to exit code 2."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class LexError(ParseError):
    pass


class ParseSyntaxError(ParseError):
    pass


class UndeclaredNameError(ParseError):
    pass


class ArityError(ParseError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def _lex(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", source[start:i], line, start_col))
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("int", source[start:i], line, start_col))
            continue
        if ch in ";,=[]()+-*^/":
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class RingStmt:
    name: str
    ring: RingDescriptor


@dataclass(frozen=True)
class IdealStmt:
    name: str
    generators: Optional[Tuple[Polynomial, ...]]  # None when intersect form
    intersect_of: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class QueryStmt:
    keyword: str
    args: Tuple[str, ...]


Stmt = Union[RingStmt, IdealStmt, QueryStmt]


@dataclass(frozen=True)
class Script:
    statements: Tuple[Stmt, ...]


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ring: Optional[RingDescriptor] = None
        self.ideal_names: set = set()

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseSyntaxError(
                "expected %r, found %r" % (sym, tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseSyntaxError(
                "expected %s, found %r" % (what, tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise ParseSyntaxError(
                "expected integer, found %r" % (tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        self.advance()
        return int(tok.text)

    # ---- statements ----

    def parse_script(self) -> Script:
        stmts: List[Stmt] = []
        while self.peek().kind != "eof":
            stmts.append(self.parse_stmt())
        return Script(tuple(stmts))

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseSyntaxError(
                "expected a statement, found %r" % tok.text, tok.line, tok.col
            )
        if tok.text == "ring":
            return self.parse_ring()
        if tok.text == "ideal":
            return self.parse_ideal()
        if tok.text in QUERY_KEYWORDS:
            return self.parse_query()
        raise ParseSyntaxError(
            "unknown statement keyword %r" % tok.text, tok.line, tok.col
        )

    def parse_ring(self) -> RingStmt:
        self.advance()  # ring
        name = self.expect_ident("ring name").text
        self.expect_sym("=")
        field_tok = self.expect_ident("field (QQ or GF(p))")
        if field_tok.text == "QQ":
            fld = FieldSpec(0)
        elif field_tok.text == "GF":
            self.expect_sym("(")
            p = self.expect_int()
            self.expect_sym(")")
            try:
                if p == 0:
                    raise ValueError("GF(0) is not a field; write QQ for the rationals")
                fld = FieldSpec(p)
            except ValueError as exc:
                raise ParseSyntaxError(str(exc), field_tok.line, field_tok.col)
        else:
            raise ParseSyntaxError(
                "unknown field %r (use QQ or GF(p))" % field_tok.text,
                field_tok.line,
                field_tok.col,
            )
        self.expect_sym("[")
        names = [self.expect_ident("variable name").text]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            names.append(self.expect_ident("variable name").text)
        self.expect_sym("]")
        order_kind = "grevlex"
        if self.peek().kind == "ident" and self.peek().text == "order":
            self.advance()
            kind_tok = self.expect_ident("term order (lex or grevlex)")
            if kind_tok.text not in ("lex", "grevlex"):
                raise ParseSyntaxError(
                    "unknown term order %r" % kind_tok.text, kind_tok.line, kind_tok.col
                )
            order_kind = kind_tok.text
        self.expect_sym(";")
        try:
            ring = RingDescriptor(fld, tuple(names), TermOrder(order_kind))
        except ValueError as exc:
            raise ParseSyntaxError(str(exc), field_tok.line, field_tok.col)
        self.ring = ring
        self.ideal_names = set()
        return RingStmt(name, ring)

    def _require_ring(self, tok: Token) -> RingDescriptor:
        if self.ring is None:
            raise ParseSyntaxError("no ring declared yet", tok.line, tok.col)
        return self.ring

    def _require_ideal_name(self, tok: Token) -> str:
        if tok.text not in self.ideal_names:
            raise UndeclaredNameError(
                "undeclared ideal %r" % tok.text, tok.line, tok.col
            )
        return tok.text

    def parse_ideal(self) -> IdealStmt:
        kw = self.advance()  # ideal
        ring = self._require_ring(kw)
        name = self.expect_ident("ideal name").text
        self.expect_sym("=")
        nxt = self.peek()
        if (
            nxt.kind == "ident"
            and nxt.text == "intersect"
            and self.peek(1).kind == "sym"
            and self.peek(1).text == "("
        ):
            self.advance()
            self.expect_sym("(")
            a = self._require_ideal_name(self.expect_ident("ideal name"))
            self.expect_sym(",")
            b = self._require_ideal_name(self.expect_ident("ideal name"))
            self.expect_sym(")")
            self.expect_sym(";")
            self.ideal_names.add(name)
            return IdealStmt(name, None, (a, b))
        gens = [self.parse_polynomial(ring)]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            gens.append(self.parse_polynomial(ring))
        self.expect_sym(";")
        self.ideal_names.add(name)
        return IdealStmt(name, tuple(gens))

    def parse_query(self) -> QueryStmt:
        kw = self.advance()
        self._require_ring(kw)
        if kw.text == "verify":
            parts = [self.expect_ident("suite id").text]
            while self.peek().kind == "sym" and self.peek().text == "-":
                self.advance()
                parts.append(self.expect_ident("suite id").text)
            args: Tuple[str, ...] = ("-".join(parts),)
        else:
            arity = 1 if kw.text in ONE_ARG_QUERIES else 2
            names = []
            for _ in range(arity):
                tok = self.peek()
                if tok.kind != "ident":
                    raise ArityError(
                        "query %r takes %d ideal name(s)" % (kw.text, arity),
                        tok.line,
                        tok.col,
                    )
                names.append(self._require_ideal_name(self.advance()))
            if self.peek().kind == "ident":
                tok = self.peek()
                raise ArityError(
                    "query %r takes %d ideal name(s)" % (kw.text, arity),
                    tok.line,
                    tok.col,
                )
            args = tuple(names)
        self.expect_sym(";")
        return QueryStmt(kw.text, args)

    # ---- polynomials ----

    def parse_polynomial(self, ring: RingDescriptor) -> Polynomial:
        acc: Dict[tuple, Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok.kind == "sym" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        self._parse_term(ring, acc, sign)
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.advance()
                self._parse_term(ring, acc, -1 if tok.text == "-" else 1)
            else:
                break
        try:
            return ring.polynomial(acc)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseSyntaxError(str(exc), tok.line, tok.col)

    def _parse_term(self, ring: RingDescriptor, acc: Dict[tuple, Fraction], sign: int) -> None:
        coeff = Fraction(sign)
        exps = [0] * ring.nvars
        self._parse_factor(ring, exps, coeff_box := [coeff])
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.advance()
            self._parse_factor(ring, exps, coeff_box)
        mono = tuple(exps)
        acc[mono] = acc.get(mono, Fraction(0)) + coeff_box[0]

    def _parse_factor(self, ring: RingDescriptor, exps: List[int], coeff_box: List[Fraction]) -> None:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "sym" and self.peek().text == "/":
                self.advance()
                den = self.expect_int()
                if den == 0:
                    raise ParseSyntaxError("division by zero", tok.line, tok.col)
                coeff_box[0] *= Fraction(num, den)
            else:
                coeff_box[0] *= num
            return
        if tok.kind == "ident":
            self.advance()
            try:
                idx = ring.var_index(tok.text)
            except KeyError:
                raise UndeclaredNameError(
                    "undeclared variable %r" % tok.text, tok.line, tok.col
                )
            power = 1
            if self.peek().kind == "sym" and self.peek().text == "^":
                self.advance()
                power = self.expect_int()
            exps[idx] += power
            return
        raise ParseSyntaxError(
            "expected a factor, found %r" % (tok.text or "end of input"),
            tok.line,
            tok.col,
        )


def parse(source: str) -> Script:
    """Parse a script; raises a ParseError subclass on any defect."""
    return _Parser(_lex(source)).parse_script()


def parse_polynomial(source: str, ring: RingDescriptor) -> Polynomial:
    """Parse a single polynomial against a ring (a test and tooling hook)."""
    parser = _Parser(_lex(source))
    poly = parser.parse_polynomial(ring)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseSyntaxError("trailing input %r" % tok.text, tok.line, tok.col)
    return poly


def print_script(script: Script) -> str:
    """Canonical form: one statement per line, explicit order clause."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, RingStmt):
            ring = stmt.ring
            lines.append(
                "ring %s = %s[%s] order %s;"
                % (stmt.name, ring.field, ", ".join(ring.variables), ring.order.kind)
            )
        elif isinstance(stmt, IdealStmt):
            if stmt.intersect_of is not None:
                lines.append(
                    "ideal %s = intersect(%s, %s);" % ((stmt.name,) + stmt.intersect_of)
                )
            else:
                gens = ", ".join(str(g) for g in stmt.generators) or "0"
                lines.append("ideal %s = %s;" % (stmt.name, gens))
        else:
            lines.append("%s %s;" % (stmt.keyword, " ".join(stmt.args)))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# execution


def _basis_strings(gb) -> List[str]:
    return [str(g) for g in gb]


class _Session:
    def __init__(self, seed: int, trials: int) -> None:
        self.seed = seed
        self.trials = trials
        self.ideals: Dict[str, Ideal] = {}
        self.text: List[str] = []
        self.payload: List[dict] = []
        self.verify_failures = 0

    def declare_ideal(self, stmt: IdealStmt, ring: RingDescriptor) -> None:
        if stmt.intersect_of is not None:
            a, b = stmt.intersect_of
            self.ideals[stmt.name] = ideal_intersect(self.ideals[a], self.ideals[b])
        else:
            self.ideals[stmt.name] = Ideal(ring, stmt.generators)

    def run_query(self, stmt: QueryStmt, ring: RingDescriptor) -> None:
        kw = stmt.keyword
        record: dict = {"query": kw, "args": list(stmt.args)}
        out: List[str] = []
        if kw == "verify":
            report = theorem_lab.run_suite(stmt.args[0], trials=self.trials, base_seed=self.seed)
            self.verify_failures += len(report.failures)
            out.append(report.summary_line())
            out.extend(report.failures)
            record["report"] = report.to_json()
        elif kw in ONE_ARG_QUERIES:
            J = self.ideals[stmt.args[0]]
            name = stmt.args[0]
            if kw == "gb":
                basis = _basis_strings(J.groebner_basis())
                out.append("gb %s = [%s]" % (name, ", ".join(basis)))
                record["basis"] = basis
            elif kw == "dim":
                value = invariants.krull_dimension(invariants.CyclicModule(ring, J))
                out.append("dim R/%s = %d" % (name, value))
                record["value"] = value
            elif kw == "height":
                value = invariants.height(J)
                out.append("height %s = %d" % (name, value))
                record["value"] = value
            elif kw == "ass":
                primes = invariants.sorted_primes(invariants.associated_primes_monomial(J))
                out.append("ass %s = [%s]" % (name, ", ".join(str(q) for q in primes)))
                record["primes"] = [list(q.variables) for q in primes]
            else:  # minprimes
                primes = invariants.sorted_primes(invariants.minimal_primes_monomial(J))
                out.append(
                    "minprimes %s = [%s]" % (name, ", ".join(str(q) for q in primes))
                )
                record["primes"] = [list(q.variables) for q in primes]
        else:
            j_name, i_name = stmt.args
            J = self.ideals[j_name]
            I = self.ideals[i_name]
            if kw == "colon":
                basis = _basis_strings(ideal_quotient_ideal(J, I).groebner_basis())
                out.append("colon(%s, %s) = [%s]" % (j_name, i_name, ", ".join(basis)))
                record["basis"] = basis
            elif kw == "sat":
                result = saturate(J, I)
                basis = _basis_strings(result.ideal.groebner_basis())
                out.append(
                    "sat(%s, %s) = [%s], exponent = %d"
                    % (j_name, i_name, ", ".join(basis), result.exponent)
                )
                record["basis"] = basis
                record["exponent"] = result.exponent
            elif kw == "intersect":
                basis = _basis_strings(ideal_intersect(J, I).groebner_basis())
                out.append(
                    "intersect(%s, %s) = [%s]" % (j_name, i_name, ", ".join(basis))
                )
                record["basis"] = basis
            elif kw == "grade":
                M = invariants.CyclicModule(ring, J)
                w = invariants.grade(M, I, seed=self.seed)
                out.append("grade(%s, R/%s) = %d" % (i_name, j_name, w.value))
                out.append("witness = [%s]" % ", ".join(str(x) for x in w.sequence))
                out.append("certificate exponent = %d" % w.certificate.exponent)
                record["grade"] = w.value
                record["witness"] = [str(x) for x in w.sequence]
                record["certificate_exponent"] = w.certificate.exponent
            else:  # icm
                M = invariants.CyclicModule(ring, J)
                rep = icm_report(M, I, seed=self.seed)
                out.append("icm %s %s:" % (j_name, i_name))
                out.append("  grade = %d" % rep.grade.value)
                out.append(
                    "  witness = [%s]" % ", ".join(str(x) for x in rep.grade.sequence)
                )
                out.append("  dim M = %d" % rep.dim_m)
                out.append("  dim M/IM = %d" % rep.dim_m_mod_im)
                out.append("  defect = %d" % rep.defect)
                out.append("  I-Cohen-Macaulay: %s" % ("yes" if rep.is_icm else "no"))
                if rep.height_i is not None:
                    out.append("  height I = %d" % rep.height_i)
                    out.append(
                        "  grade equals height: %s"
                        % ("yes" if rep.grade_equals_height else "no")
                    )
                record["report"] = rep.to_json()
        self.text.extend(out)
        self.payload.append(record)


def execute(
    script: Script,
    *,
    seed: int = 0,
    trials: int = 100,
    as_json: bool = False,
) -> Tuple[str, int]:
    """Run a parsed script under the engine context's budgets; returns
    (output text, exit code)."""
    session = _Session(seed, trials)
    ring: Optional[RingDescriptor] = None
    for stmt in script.statements:
        try:
            if isinstance(stmt, RingStmt):
                ring = stmt.ring
                session.ideals = {}
            elif ring is None:
                raise EngineError("no ring declared yet")
            elif isinstance(stmt, IdealStmt):
                session.declare_ideal(stmt, ring)
            else:
                session.run_query(stmt, ring)
        except EngineError as exc:
            label = (
                "%s %s" % (stmt.keyword, " ".join(stmt.args))
                if isinstance(stmt, QueryStmt)
                else "ideal %s" % stmt.name
            )
            message = "error in query '%s': %s" % (label, exc)
            return message + "\n", 1
    if as_json:
        text = json.dumps(session.payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(session.text) + ("\n" if session.text else "")
    code = 3 if session.verify_failures else 0
    return text, code


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return int(text)


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icm-lab",
        description="Exact commutative algebra: Groebner bases, grade, "
        "dimension, and the I-Cohen-Macaulay condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit stable JSON")
        p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument(
            "--trials", type=_positive_int, default=100, help="trials per suite"
        )
        p.add_argument(
            "--budget", type=_positive_int, help="regular-element search budget"
        )
        p.add_argument(
            "--step-limit",
            type=_positive_int,
            default=os.environ.get("ICM_STEP_LIMIT") or None,
            help="max S-pair reduction steps per basis computation "
            "(env ICM_STEP_LIMIT; the flag wins)",
        )

    run_p = sub.add_parser("run", help="execute a script file")
    run_p.add_argument("file", help="script file")
    common(run_p)

    ver_p = sub.add_parser("verify", help="run one randomized theorem suite")
    ver_p.add_argument("suite", help="suite id, e.g. poly-extension")
    common(ver_p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_argparser().parse_args(argv)
    with engine_context(args.step_limit, args.budget):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    if args.command == "verify":
        try:
            report = theorem_lab.run_suite(args.suite, trials=args.trials, base_seed=args.seed)
        except EngineError as exc:
            print("error in query 'verify %s': %s" % (args.suite, exc), file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.summary_line())
            for failure in report.failures:
                print(failure)
        return 3 if report.failures else 0

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print("cannot read %s: %s" % (args.file, exc), file=sys.stderr)
        return 1
    try:
        script = parse(source)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    text, code = execute(script, seed=args.seed, trials=args.trials, as_json=args.json)
    if code == 1:
        print(text, end="", file=sys.stderr)
    else:
        print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
