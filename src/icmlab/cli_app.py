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

Exit codes: 0 success, 1 engine error (reported with the failing query) or
an unreadable or non-UTF-8 script (``cannot read``), 2 parse error
(reported with line and column) or usage error, 3 verify failures.

``main`` reads the documented command line itself: ``run FILE`` or
``verify SUITE``, then any of ``--json`` and ``--flag VALUE``.  Help, usage
errors and the other spellings argparse accepts go to argparse, which is
imported, and its parser built once per process, only then.
"""
from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from .ring_core import FieldSpec, Polynomial, Record, RingDescriptor, TermOrder

if TYPE_CHECKING:
    import argparse


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


# a token is (kind, text, line, column), kind "ident" | "int" | "sym" | "eof"
Token = Tuple[str, str, int, int]

# one pass over the source: each match skips blanks and comments, then reads
# a newline (group 1), an int (group 2; \d is what int() accepts, so no
# superscript digits), a word (group 3), a symbol (group 4), any other
# character (group 5), or the end of input (no group)
_TOKEN = re.compile(
    r"(?:[ \t\r]+|#[^\n]*)*(?:(\n)|(\d+)|(\w+)|([;,=\[\]()+\-*^/])|(.)|\Z)", re.DOTALL
)
_KINDS = (None, None, "int", "ident", "sym")


def _lex(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        if group is None:  # the end of input, after any final blanks
            break
        if group == 1:
            line, line_start = line + 1, m.end()
            continue
        text, start = m.group(group), m.start(group)
        # \w also matches digits that \d misses ("²", "½"); a word starts
        # with a letter or "_"
        if group == 5 or (group == 3 and not (text[0].isalpha() or text[0] == "_")):
            raise LexError("unexpected character %r" % text[0], line, start - line_start + 1)
        tokens.append((_KINDS[group], text, line, start - line_start + 1))
    end = source.find("#", m.start())  # the end of input sits where a final comment starts
    tokens.append(("eof", "", line, (len(source) if end < 0 else end) - line_start + 1))
    return tokens


def _integer(tok: Token) -> int:
    """The value of an int token; a literal longer than ``int()`` converts
    (``sys.get_int_max_str_digits``) is a syntax error at its position."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseSyntaxError(
            "integer literal too long (%d digits)" % len(tok[1]), tok[2], tok[3]
        ) from None


class RingStmt(Record):
    __slots__ = ("name", "ring")


class IdealStmt(Record):
    # generators is None in the intersect form, which names its two ideals
    __slots__ = ("name", "generators", "intersect_of")
    _defaults = {"intersect_of": None}


class QueryStmt(Record):
    __slots__ = ("keyword", "args")


Stmt = Union[RingStmt, IdealStmt, QueryStmt]


class Script(Record):
    __slots__ = ("statements",)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ring: Optional[RingDescriptor] = None
        self.ideal_names: set = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def accept(self, *texts: str) -> str:
        """Consume the next token if its text is one of ``texts`` and return
        that text, else "".  No identifier or integer is spelled like a
        symbol, so a symbol in ``texts`` matches only that symbol, and the
        end of input, spelled "", matches nothing."""
        text = self.tokens[self.pos][1]
        if text in texts:
            self.pos += 1
            return text
        return ""

    def expect(self, want: str, what: str = "") -> Token:
        """Consume the next token, which must be the symbol ``want`` or,
        when ``what`` names it for the error, a token of kind ``want``."""
        tok = self.tokens[self.pos]
        if tok[0 if what else 1] != want:
            raise ParseSyntaxError(
                "expected %s, found %r" % (what or repr(want), tok[1] or "end of input"),
                tok[2],
                tok[3],
            )
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        return _integer(self.expect("int", "integer"))

    # ---- statements ----

    def parse_script(self) -> Script:
        stmts: List[Stmt] = []
        while self.peek()[0] != "eof":
            stmts.append(self.parse_stmt())
        return Script(tuple(stmts))

    def parse_stmt(self) -> Stmt:
        kind, text, line, col = self.peek()
        if kind != "ident":
            raise ParseSyntaxError("expected a statement, found %r" % text, line, col)
        if text == "ring":
            return self.parse_ring()
        if text == "ideal":
            return self.parse_ideal()
        if text in QUERIES:
            return self.parse_query()
        raise ParseSyntaxError("unknown statement keyword %r" % text, line, col)

    def parse_ring(self) -> RingStmt:
        self.advance()  # ring
        name = self.expect("ident", "ring name")[1]
        self.expect("=")
        _, field, line, col = self.expect("ident", "field (QQ or GF(p))")
        if field == "QQ":
            fld = FieldSpec(0)
        elif field == "GF":
            self.expect("(")
            p = self.expect_int()
            self.expect(")")
            try:
                if p == 0:
                    raise ValueError("GF(0) is not a field; write QQ for the rationals")
                fld = FieldSpec(p)
            except ValueError as exc:
                raise ParseSyntaxError(str(exc), line, col)
        else:
            raise ParseSyntaxError("unknown field %r (use QQ or GF(p))" % field, line, col)
        self.expect("[")
        names = [self.expect("ident", "variable name")[1]]
        while self.accept(","):
            names.append(self.expect("ident", "variable name")[1])
        self.expect("]")
        order_kind = "grevlex"
        if self.accept("order"):
            _, order_kind, order_line, order_col = self.expect("ident", "term order (lex or grevlex)")
            if order_kind not in ("lex", "grevlex"):
                raise ParseSyntaxError("unknown term order %r" % order_kind, order_line, order_col)
        self.expect(";")
        try:
            ring = RingDescriptor(fld, tuple(names), TermOrder(order_kind))
        except ValueError as exc:
            raise ParseSyntaxError(str(exc), line, col)
        self.ring = ring
        self.ideal_names = set()
        return RingStmt(name, ring)

    def _require_ring(self, tok: Token) -> RingDescriptor:
        if self.ring is None:
            raise ParseSyntaxError("no ring declared yet", tok[2], tok[3])
        return self.ring

    def _ideal_name(self) -> str:
        _, name, line, col = self.expect("ident", "ideal name")
        if name not in self.ideal_names:
            raise UndeclaredNameError("undeclared ideal %r" % name, line, col)
        return name

    def parse_ideal(self) -> IdealStmt:
        ring = self._require_ring(self.advance())  # ideal
        name = self.expect("ident", "ideal name")[1]
        self.expect("=")
        # a token other than the end of input has one after it
        if self.peek()[1] == "intersect" and self.tokens[self.pos + 1][1] == "(":
            self.pos += 2
            a = self._ideal_name()
            self.expect(",")
            b = self._ideal_name()
            self.expect(")")
            stmt = IdealStmt(name, None, (a, b))
        else:
            gens = [self.parse_polynomial(ring)]
            while self.accept(","):
                gens.append(self.parse_polynomial(ring))
            stmt = IdealStmt(name, tuple(gens))
        self.expect(";")
        self.ideal_names.add(name)
        return stmt

    def parse_query(self) -> QueryStmt:
        kw = self.advance()
        self._require_ring(kw)
        keyword = kw[1]
        if keyword == "verify":
            parts = [self.expect("ident", "suite id")[1]]
            while self.accept("-"):
                parts.append(self.expect("ident", "suite id")[1])
            args: Tuple[str, ...] = ("-".join(parts),)
        else:
            arity = QUERIES[keyword][0]
            names: List[str] = []
            while len(names) < arity and self.peek()[0] == "ident":
                names.append(self._ideal_name())
            tok = self.peek()
            if len(names) < arity or tok[0] == "ident":
                raise ArityError(
                    "query %r takes %d ideal name(s)" % (keyword, arity), tok[2], tok[3]
                )
            args = tuple(names)
        self.expect(";")
        return QueryStmt(keyword, args)

    # ---- polynomials ----

    def parse_polynomial(self, ring: RingDescriptor) -> Polynomial:
        """A signed sum of products, its coefficients summed in QQ and then
        taken into the ring's field.  Integer factors multiply and add as
        ints; a Fraction appears only where a "/" does."""
        acc: Dict[tuple, Union[int, Fraction]] = {}
        sign = self.accept("+", "-")
        while True:
            exps = [0] * ring.nvars
            coeff = self._parse_factor(ring, exps)
            while self.accept("*"):
                coeff *= self._parse_factor(ring, exps)
            mono = tuple(exps)
            acc[mono] = acc.get(mono, 0) + (-coeff if sign == "-" else coeff)
            sign = self.accept("+", "-")
            if not sign:
                break
        tok = self.peek()
        try:
            return ring.polynomial(acc)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseSyntaxError(str(exc), tok[2], tok[3])

    def _parse_factor(self, ring: RingDescriptor, exps: List[int]) -> Union[int, Fraction]:
        """Read one factor: a variable's power goes into ``exps``, and the
        factor's coefficient (1 for a variable) is returned."""
        tok = self.advance()
        kind, text, line, col = tok
        if kind == "int":
            if not self.accept("/"):
                return _integer(tok)
            den = self.expect_int()
            if den == 0:
                raise ParseSyntaxError("division by zero", line, col)
            return Fraction(_integer(tok), den)
        if kind == "ident":
            try:
                idx = ring.var_index(text)
            except KeyError:
                raise UndeclaredNameError("undeclared variable %r" % text, line, col)
            exps[idx] += self.expect_int() if self.accept("^") else 1
            return 1
        raise ParseSyntaxError(
            "expected a factor, found %r" % (text or "end of input"), line, col
        )


def parse(source: str) -> Script:
    """Parse a script; raises a ParseError subclass on any defect."""
    return _Parser(_lex(source)).parse_script()


def parse_polynomial(source: str, ring: RingDescriptor) -> Polynomial:
    """Parse a single polynomial against a ring (a test and tooling hook)."""
    parser = _Parser(_lex(source))
    poly = parser.parse_polynomial(ring)
    kind, text, line, col = parser.peek()
    if kind != "eof":
        raise ParseSyntaxError("trailing input %r" % text, line, col)
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
# execution: a query handler takes the keyword, the arguments, the ideals in
# scope, the seed and the trial count, and returns its output lines and the
# fields of its JSON record


_Args = Tuple[str, ...]
_Scope = Dict[str, Ideal]
_Result = Tuple[List[str], dict]


def _basis(ideal: Ideal) -> List[str]:
    return [str(g) for g in ideal.groebner_basis()]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _listing(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    """gb, ass and minprimes print ``kw NAME = [...]``."""
    J = scope[args[0]]
    if kw == "gb":
        items = _basis(J)
        fields: dict = {"basis": items}
    else:
        find = (
            invariants.associated_primes_monomial
            if kw == "ass"
            else invariants.minimal_primes_monomial
        )
        primes = invariants.sorted_primes(find(J))
        items = [str(q) for q in primes]
        fields = {"primes": [list(q.variables) for q in primes]}
    return ["%s %s = [%s]" % (kw, args[0], ", ".join(items))], fields


def _value(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    """dim and height print one integer."""
    J = scope[args[0]]
    if kw == "dim":
        value = invariants.krull_dimension(invariants.CyclicModule(J.ring, J))
        return ["dim R/%s = %d" % (args[0], value)], {"value": value}
    value = invariants.height(J)
    return ["height %s = %d" % (args[0], value)], {"value": value}


def _calculus(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    """colon, intersect and sat print ``kw(A, B) = [...]``."""
    J, I = scope[args[0]], scope[args[1]]
    fields: dict = {}
    suffix = ""
    if kw == "sat":
        result = saturate(J, I)
        ideal = result.ideal
        fields["exponent"] = result.exponent
        suffix = ", exponent = %d" % result.exponent
    else:
        ideal = (ideal_quotient_ideal if kw == "colon" else ideal_intersect)(J, I)
    fields["basis"] = _basis(ideal)
    line = "%s(%s) = [%s]%s" % (kw, ", ".join(args), ", ".join(fields["basis"]), suffix)
    return [line], fields


def _grade(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    J, I = scope[args[0]], scope[args[1]]
    w = invariants.grade(invariants.CyclicModule(J.ring, J), I, seed=seed)
    witness = [str(x) for x in w.sequence]
    lines = [
        "grade(%s, R/%s) = %d" % (args[1], args[0], w.value),
        "witness = [%s]" % ", ".join(witness),
        "certificate exponent = %d" % w.certificate.exponent,
    ]
    return lines, {
        "grade": w.value,
        "witness": witness,
        "certificate_exponent": w.certificate.exponent,
    }


def _icm(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    J, I = scope[args[0]], scope[args[1]]
    rep = icm_report(invariants.CyclicModule(J.ring, J), I, seed=seed)
    lines = [
        "icm %s %s:" % args,
        "  grade = %d" % rep.grade.value,
        "  witness = [%s]" % ", ".join(str(x) for x in rep.grade.sequence),
        "  dim M = %d" % rep.dim_m,
        "  dim M/IM = %d" % rep.dim_m_mod_im,
        "  defect = %d" % rep.defect,
        "  I-Cohen-Macaulay: %s" % _yes(rep.is_icm),
    ]
    if rep.height_i is not None:
        lines.append("  height I = %d" % rep.height_i)
        lines.append("  grade equals height: %s" % _yes(rep.is_icm))
    return lines, {"report": rep.to_json()}


def _verify(kw: str, args: _Args, scope: _Scope, seed: int, trials: int) -> _Result:
    """The tally and failures of suite ``args[0]``, for the script query and
    the ``verify`` subcommand."""
    report = theorem_lab.run_suite(args[0], trials=trials, base_seed=seed)
    return [report.summary_line(), *report.failures], {"report": report.to_json()}


# keyword -> (number of arguments, handler); every argument names a declared
# ideal, except verify's suite id
QUERIES: Dict[str, Tuple[int, Callable[[str, _Args, _Scope, int, int], _Result]]] = {
    "gb": (1, _listing),
    "dim": (1, _value),
    "height": (1, _value),
    "ass": (1, _listing),
    "minprimes": (1, _listing),
    "grade": (2, _grade),
    "icm": (2, _icm),
    "colon": (2, _calculus),
    "sat": (2, _calculus),
    "intersect": (2, _calculus),
    "verify": (1, _verify),
}


def _render(lines: List[str], payload: object, as_json: bool) -> str:
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in lines)


def _error(label: str, exc: EngineError) -> str:
    return "error in query '%s': %s\n" % (label, exc)


def execute(
    script: Script,
    *,
    seed: int = 0,
    trials: int = 100,
    as_json: bool = False,
) -> Tuple[str, int]:
    """Run a parsed script under the engine context's budgets; returns
    (output text, exit code)."""
    ring: Optional[RingDescriptor] = None
    scope: _Scope = {}
    text: List[str] = []
    payload: List[dict] = []
    for stmt in script.statements:
        try:
            if isinstance(stmt, RingStmt):
                ring, scope = stmt.ring, {}
            elif ring is None:
                raise EngineError("no ring declared yet")
            elif isinstance(stmt, IdealStmt):
                scope[stmt.name] = (
                    Ideal(ring, stmt.generators)
                    if stmt.intersect_of is None
                    else ideal_intersect(*(scope[a] for a in stmt.intersect_of))
                )
            else:
                handler = QUERIES[stmt.keyword][1]
                lines, fields = handler(stmt.keyword, stmt.args, scope, seed, trials)
                text.extend(lines)
                payload.append({"query": stmt.keyword, "args": list(stmt.args), **fields})
        except EngineError as exc:
            if isinstance(stmt, QueryStmt):
                return _error("%s %s" % (stmt.keyword, " ".join(stmt.args)), exc), 1
            return _error("ideal %s" % stmt.name, exc), 1
    failed = any(r["query"] == "verify" and r["report"]["failures"] for r in payload)
    return _render(text, payload, as_json), 3 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        import argparse  # a usage error, which argparse reports

        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return int(text)


# the options of both subcommands: flag, converter (None for a switch),
# default and help text
_OPTIONS = (
    ("--json", None, False, "emit stable JSON"),
    ("--seed", int, 0, "base random seed"),
    ("--trials", _positive_int, 100, "trials per suite"),
    ("--budget", _positive_int, None, "regular-element search budget"),
    ("--step-limit", _positive_int, None, "max S-pair reduction steps per basis computation"),
)
_FLAGS = {flag: (flag[2:].replace("-", "_"), convert) for flag, convert, _, _ in _OPTIONS}
_DEFAULTS = {flag[2:].replace("-", "_"): default for flag, _, default, _ in _OPTIONS}
_POSITIONALS = {"run": "file", "verify": "suite"}
# a value that starts with "-" is one to argparse only when it reads as a
# negative number
_NEGATIVE = re.compile(r"^-\d+$")


def _scan(argv: Optional[Sequence[str]]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for ``COMMAND POSITIONAL`` followed by
    exact option flags, each with its value; None for any other argv (help,
    ``--flag=value``, an abbreviation, an option before the positional,
    ``--``, a missing or bad value), which ``main`` leaves to argparse."""
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] not in _POSITIONALS or argv[1].startswith("-"):
        return None
    values = dict(_DEFAULTS, command=argv[0])
    values[_POSITIONALS[argv[0]]] = argv[1]
    rest = iter(argv[2:])
    for flag in rest:
        if flag not in _FLAGS:
            return None
        dest, convert = _FLAGS[flag]
        if convert is None:
            values[dest] = True
            continue
        text = next(rest, None)
        if text is None or (text.startswith("-") and not _NEGATIVE.match(text)):
            return None
        try:
            values[dest] = convert(text)
        except Exception:  # any bad value is argparse's to report
            return None
    return SimpleNamespace(**values)


@functools.lru_cache(maxsize=None)
def _build_argparser() -> argparse.ArgumentParser:
    """The parser, built on the first call only."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="icm-lab",
        description="Exact commutative algebra: Groebner bases, grade, "
        "dimension, and the I-Cohen-Macaulay condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a script file")
    run_p.add_argument("file", help="script file")
    ver_p = sub.add_parser("verify", help="run one randomized theorem suite")
    ver_p.add_argument("suite", help="suite id, e.g. poly-extension")
    for p in (run_p, ver_p):
        for flag, convert, default, text in _OPTIONS:
            if convert is None:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=convert, default=default, help=text)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _scan(argv)
    if args is None:
        args = _build_argparser().parse_args(argv)
    with engine_context(args.step_limit, args.budget):
        if args.command == "verify":
            try:
                lines, fields = _verify("verify", (args.suite,), {}, args.seed, args.trials)
            except EngineError as exc:
                print(_error("verify " + args.suite, exc), end="", file=sys.stderr)
                return 1
            print(_render(lines, fields["report"], args.json), end="")
            return 3 if fields["report"]["failures"] else 0
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print("cannot read %s: %s" % (args.file, exc), file=sys.stderr)
            return 1
        try:
            script = parse(source)
        except ParseError as exc:
            print("parse error: %s" % exc, file=sys.stderr)
            return 2
        text, code = execute(script, seed=args.seed, trials=args.trials, as_json=args.json)
        print(text, end="", file=sys.stderr if code == 1 else sys.stdout)
        return code


if __name__ == "__main__":
    sys.exit(main())
