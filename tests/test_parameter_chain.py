"""``invariants._parameter_chain``, the graded route at I = m certified by
length and multiplicity, against the chain of regular elements it stands in
for (``_regular_chain``, run here by disabling the route): dimensions,
grade, witness, certificate and verdict, or the same error, over QQ,
GF(32003), GF(2) and GF(3), on every grade and icm query of the golden
scripts, the closed-form families of ``test_closed_forms`` and seeded
suite instances at I = m.  The route answers exactly on the
Cohen-Macaulay instances and is left on every other, so the answers match
byte for byte."""
import glob
import os

import pytest

from icmlab import invariants
from icmlab.cli_app import IdealStmt, QueryStmt, RingStmt, parse
from icmlab.errors import EngineError
from icmlab.ideal_engine import Ideal, engine_context, ideal_intersect
from icmlab.invariants import CyclicModule
from icmlab.ring_core import FieldSpec
from icmlab.theorem_lab import BINOMIAL, MIXED, InstanceSpec, gen_instance

from test_closed_forms import FAMILIES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_pairs():
    """(script, M, I) for every grade and icm query of the golden scripts."""
    out = []
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.icm"))):
        with open(path, encoding="utf-8") as handle:
            statements = parse(handle.read()).statements
        for stmt in statements:
            if isinstance(stmt, RingStmt):
                ring, scope = stmt.ring, {}
            elif isinstance(stmt, IdealStmt):
                scope[stmt.name] = (
                    Ideal(ring, stmt.generators)
                    if stmt.intersect_of is None
                    else ideal_intersect(*(scope[a] for a in stmt.intersect_of))
                )
            elif isinstance(stmt, QueryStmt) and stmt.keyword in ("grade", "icm"):
                J, I = (scope[name] for name in stmt.args)
                out.append((os.path.basename(path), CyclicModule(ring, J), I))
    return out


def suite_pairs(p):
    """Seeded graded suite instances, binomial and mixed, at I = m."""
    out = []
    for seed in range(12):
        kind = (BINOMIAL, MIXED)[seed % 2]
        M, _, _ = gen_instance(InstanceSpec(3 + seed % 3, FieldSpec(p), kind, 2 + seed % 2, 2 + seed % 3, 4600 + seed))
        ring = M.ring
        out.append(("suite_%d" % seed, M, Ideal(ring, [ring.variable(i) for i in range(ring.nvars)])))
    return out


def outcome(M, I, seed):
    """What an answer shows, in a fresh engine context: the dimensions,
    grade, witness, certificate exponent and ideal, or the error raised."""
    with engine_context():
        try:
            w, dim_m, dim_mod = invariants._grade_and_dimensions(M, I, seed)
        except EngineError as exc:
            return type(exc).__name__, str(exc)
    return dim_m, dim_mod, w.value, [str(x) for x in w.sequence], w.certificate.exponent, w.certificate.ideal


def compare(monkeypatch, pairs, seeds):
    """Check each pair on both routes at each seed; returns, per run where
    the route was tried, whether it answered."""
    answered = []
    real = invariants._parameter_chain
    for name, M, I in pairs:
        for seed in seeds:
            tried = []
            monkeypatch.setattr(invariants, "_parameter_chain", lambda *a: tried.append(real(*a)) or tried[-1])
            route = outcome(M, I, seed)
            if not tried:
                continue
            monkeypatch.setattr(invariants, "_parameter_chain", lambda *a: None)
            chain = outcome(M, I, seed)
            assert route == chain, (name, seed)
            if tried[0] is not None:
                dim_m, dim_mod, grade = route[:3]
                assert grade == dim_m - dim_mod, (name, seed)
            answered.append(tried[0] is not None)
    return answered


def test_golden_scripts(monkeypatch):
    # the route is tried on the minors and on the lex twisted cubic and its
    # non-Cohen-Macaulay companion L, and not on RP^2 (a monomial J) or the
    # translated minors (I is not m)
    answered = compare(monkeypatch, golden_pairs(), (10000, 10001, 10002))
    assert len(answered) > answered.count(True) > 0


def test_closed_form_families(monkeypatch):
    pairs = [(name, *instance()) for name, instance, *_ in FAMILIES]
    answered = compare(monkeypatch, pairs, (10000, 10001))
    # the route answers exactly the "yes" families, by their closed forms
    assert answered == [grade == dim_m - dim_mod for _, _, grade, dim_m, dim_mod in FAMILIES for _ in (0, 1)]


@pytest.mark.parametrize("p", [0, 32003, 2, 3])
def test_seeded_suite_instances(monkeypatch, p):
    answered = compare(monkeypatch, suite_pairs(p), (0, 1))
    assert answered.count(True) > 0
