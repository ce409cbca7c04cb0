"""Output checks against references independent of the timed code path.

Each check takes one query's JSON output and what the workload knows about
the query, and returns an error string, or None when the output is right.
They run in the benchmark process, after the timed passes.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from workloads import GbSystem


def check_suites(text: str, expect) -> Optional[str]:
    """The suite ran its trials, with zero counterexamples and a tally that
    adds up."""
    suite, trials = expect
    rep = json.loads(text)
    if rep["suite_id"] != suite or rep["trials"] != trials:
        return "ran %s x %d, expected %s x %d" % (rep["suite_id"], rep["trials"], suite, trials)
    if rep["failures"]:
        return "%s: %d counterexamples" % (suite, len(rep["failures"]))
    if rep["passed"] + rep["skipped_hypothesis"] != trials:
        return "%s: tally does not add up" % suite
    return None


class MinorsReplay:
    """The closed form for J = 2x2 minors of a generic 2xN matrix and I the
    ideal of all variables: J is prime and determinantal, hence
    Cohen-Macaulay of dimension N+1, so grade = dim M = N+1, dim M/IM = 0 and
    the defect is 0.  The witness is replayed with ``verify_grade_witness``."""

    def __init__(self, src: str) -> None:
        import sys

        sys.path.insert(0, src)
        from icmlab import cli_app, ideal_engine, invariants
        from icmlab.errors import EngineError

        self.error = EngineError
        self.cli_app = cli_app
        self.engine = ideal_engine
        self.invariants = invariants

    def __call__(self, text: str, n: int, script: str) -> Optional[str]:
        records = json.loads(text)
        rep = records[0]["report"]
        want = {"grade": n + 1, "dim_m": n + 1, "dim_m_mod_im": 0, "defect": 0, "is_icm": True}
        got = {k: rep[k] for k in want}
        if got != want or len(rep["witness"]) != n + 1:
            return "2x%d minors: got %s, closed form %s" % (n, got, want)
        with open(script, encoding="utf-8") as handle:
            parsed = self.cli_app.parse(handle.read())
        ring = parsed.statements[0].ring
        J = self.engine.Ideal(ring, parsed.statements[1].generators)
        I = self.engine.Ideal(ring, parsed.statements[2].generators)
        seq = tuple(self.cli_app.parse_polynomial(w, ring) for w in rep["witness"])
        extended = self.engine.ideal_sum(J, self.engine.Ideal(ring, seq))
        cert = self.engine.saturate(extended, I)
        if cert.exponent != rep["certificate_exponent"]:
            return "2x%d minors: certificate exponent %d, replay gives %d" % (
                n,
                rep["certificate_exponent"],
                cert.exponent,
            )
        witness = self.invariants.GradeWitness(len(seq), seq, cert)
        try:
            self.invariants.verify_grade_witness(
                self.invariants.CyclicModule(ring, J), I, witness
            )
        except self.error as exc:
            return "2x%d minors: witness replay failed: %s" % (n, exc)
        return None


def parse_basis_element(text: str, variables, p: int) -> dict:
    """Read one printed basis element ("3/2*x0^2*x1 - x2 + 5") into
    {exponent tuple: coefficient}, coefficients reduced mod p when p > 0."""
    terms = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(-1 if chunk.startswith("-") else 1)
        exps = [0] * len(variables)
        for factor in chunk.lstrip("-").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exps[variables.index(name)] += int(power or 1)
        terms[tuple(exps)] = coeff
    if p:
        return {m: c.numerator * pow(c.denominator, -1, p) % p for m, c in terms.items()}
    return terms


def _scaled(terms: dict, p: int) -> dict:
    """Scale so the lex-largest term has coefficient 1: a canonical
    representative up to units, the same whatever the term order."""
    if p:
        inv = pow(int(terms[max(terms)]), -1, p)
        return {m: int(c) * inv % p for m, c in terms.items()}
    terms = {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in terms.items()}
    lead = terms[max(terms)]
    return {m: c / lead for m, c in terms.items()}


class SympyGroebner:
    """Reduced Groebner bases from sympy, compared as sets of elements scaled
    to a canonical unit (the reduced basis is unique per ideal and order).
    Lex bases of zero-dimensional systems in more than three variables come
    from sympy's FGLM conversion of its grevlex basis, which is far faster
    than its direct lex run there."""

    def __init__(self) -> None:
        import sympy

        self.sympy = sympy

    @staticmethod
    def _key(terms: dict):
        return tuple(sorted(terms.items()))

    def __call__(self, text: str, system: GbSystem) -> Optional[str]:
        sp = self.sympy
        p = system.p
        gens = sp.symbols(system.variables)
        opts = {"modulus": p} if p else {"domain": sp.QQ}
        polys = [sp.Poly.from_dict(dict(t), *gens, **opts) for t in system.polys]
        if system.order == "lex" and len(gens) > 3:
            ref = sp.groebner(polys, *gens, order="grevlex", **opts)
            if not ref.is_zero_dimensional:
                return "lex reference needs a zero-dimensional ideal"
            ref = ref.fglm("lex")
        else:
            ref = sp.groebner(polys, *gens, order=system.order, **opts)
        want = [_scaled(poly.as_dict(), p) for poly in ref.polys]
        got = [
            _scaled(parse_basis_element(element, system.variables, p), p)
            for element in json.loads(text)[0]["basis"]
        ]
        if sorted(map(self._key, got)) != sorted(map(self._key, want)):
            return "basis of %d elements differs from sympy's %d" % (len(got), len(want))
        return None
