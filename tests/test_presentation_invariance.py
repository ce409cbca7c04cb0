"""Presentation invariance: every answer depends on the ideals, not on how
their generators are written down.

A rewrite of a generator list shuffles it, repeats one generator, appends
the sum of two and scales one by a unit of the field; the ideal does not
move.  Each script of ``corpus/ok_*.icm`` and ``golden/*.icm`` is run as
written and after two rewrites of each ``ideal NAME = ...`` declaration
(``intersect(...)`` declarations stay), and ``run --json --seed 0`` must
give the same exit code, stdout and stderr.  On seeded ``gen_instance``
instances of every kind over QQ and GF(32003), with J and I rewritten
twice, the report, the graded Cohen-Macaulay test, the variable prime,
the monomial primes and the logs of two relation checks must not move.
"""

import contextlib
import glob
import io
import os
import random
from fractions import Fraction

import pytest

from icmlab import ideal_engine, invariants
from icmlab.cli_app import IdealStmt, main, parse, print_script
from icmlab.errors import EngineError
from icmlab.icm_checker import (
    annihilator_transport,
    icm_report,
    is_cohen_macaulay_graded,
    polynomial_extension_check,
)
from icmlab.ideal_engine import (
    Ideal,
    engine_context,
    ideal_intersect,
    ideal_quotient_ideal,
    is_nonzerodivisor,
    saturate,
)
from icmlab.invariants import CyclicModule
from icmlab.ring_core import FieldSpec, RingDescriptor, TermOrder
from icmlab.theorem_lab import BINOMIAL, MIXED, MONOMIAL, InstanceSpec, gen_instance

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPTS = sorted(glob.glob(os.path.join(HERE, "corpus", "ok_*.icm")) + glob.glob(os.path.join(HERE, "golden", "*.icm")))
REWRITES = (1, 2)


def rewrite(gens, rng):
    """Another generator list of the same ideal: shuffled, one generator
    repeated, the sum of two appended unless it is zero, one scaled by a
    unit."""
    if not gens:
        return []
    out = list(gens)
    rng.shuffle(out)
    out.insert(rng.randrange(len(out) + 1), rng.choice(out))
    i, j = rng.sample(range(len(out)), 2)
    if not (out[i] + out[j]).is_zero:
        out.append(out[i] + out[j])
    p = out[0].ring.field.characteristic
    unit = rng.randint(1, p - 1) if p else Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4]))
    k = rng.randrange(len(out))
    out[k] = out[k] * unit
    return out


def run_json(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", path, "--json", "--seed", "0"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_scripts_answer_the_same_for_every_presentation(path, tmp_path):
    with open(path, encoding="utf-8") as handle:
        script = parse(handle.read())
    want = run_json(path)
    for r in REWRITES:
        rng = random.Random("%s:%d" % (os.path.basename(path), r))
        statements = tuple(
            s.replace(generators=tuple(rewrite(s.generators, rng)))
            if isinstance(s, IdealStmt) and s.intersect_of is None
            else s
            for s in script.statements
        )
        written = tmp_path / ("rewrite%d.icm" % r)
        written.write_text(print_script(script.replace(statements=statements)), encoding="utf-8")
        assert run_json(str(written)) == want, "rewrite %d:\n%s" % (r, written.read_text(encoding="utf-8"))


def outcome(f, *args, **kwargs):
    """The value of f, or the class and text of the engine error it raised."""
    try:
        return f(*args, **kwargs)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def facts(M, I, monomial):
    """Every answer the library gives on (M, I), in one engine context."""
    J = M.defining_ideal
    with engine_context():
        return {
            "report": outcome(lambda: icm_report(M, I, seed=0).to_json()),
            "graded CM": outcome(is_cohen_macaulay_graded, M, seed=0),
            "variable prime": outcome(invariants.variable_prime, I),
            "associated primes": outcome(invariants.associated_primes_monomial, J) if monomial else None,
            "minimal primes": outcome(invariants.minimal_primes_monomial, J) if monomial else None,
            "polynomial extension": outcome(lambda: polynomial_extension_check(M, I, seed=0).hypothesis_log),
            "annihilator transport": outcome(lambda: annihilator_transport(M, I, seed=0).hypothesis_log),
        }


def instance_spec(seed):
    """Each kind over QQ and over GF(32003) in turn; the sizes are seeded."""
    rng = random.Random(seed)
    return InstanceSpec(
        n_vars=rng.randint(2, 4),
        field=FieldSpec((0, 32003)[seed // 3 % 2]),
        ideal_kind=(MONOMIAL, BINOMIAL, MIXED)[seed % 3],
        max_degree=rng.randint(2, 3),
        max_generators=rng.randint(1, 3),
        seed=seed,
    )


INSTANCES = [instance_spec(seed) for seed in range(120)]


def test_library_answers_the_same_for_every_presentation():
    differ = []
    for spec in INSTANCES:
        M, I, _ = gen_instance(spec)
        monomial = spec.ideal_kind == MONOMIAL
        want = facts(M, I, monomial)
        for r in REWRITES:
            rng = random.Random(spec.seed * len(REWRITES) + r)
            J2 = Ideal(M.ring, rewrite(M.defining_ideal.generators, rng))
            I2 = Ideal(M.ring, rewrite(I.generators, rng))
            got = facts(CyclicModule(M.ring, J2), I2, monomial)
            differ += ["seed %d rewrite %d: %s" % (spec.seed, r, key) for key in want if got[key] != want[key]]
    assert not differ, "\n".join(differ)


def calculus(J, I, f):
    """The derived facts of (J, I): saturation, colon, intersection and
    the regularity of f."""
    return saturate(J, I), ideal_quotient_ideal(J, I), ideal_intersect(J, I), is_nonzerodivisor(J, f)


@pytest.mark.parametrize(
    "p, order, monomial",
    [(0, "grevlex", False), (32003, "lex", False), (0, "grevlex", True), (2, "lex", True)],
)
def test_presentations_share_each_derived_fact(monkeypatch, p, order, monomial):
    # the calculus keys by its operands' reduced bases, so within one
    # engine context a rewritten (J, I) builds no fact again once the
    # rewrites' own bases are known
    R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
    x, y, z = (R.variable(i) for i in range(3))
    if monomial:
        J, I, f = Ideal(R, [x**2 * y, x * z**3]), Ideal(R, [x, y**2]), x + z
    else:
        J, I, f = Ideal(R, [x**2 - y * z, x * y * z + z**3]), Ideal(R, [x + y, z**2]), x + y
    builds = []
    for name in ("_eliminate_tag", "_monomial_saturation", "_grow"):

        def counted(*args, name=name, real=getattr(ideal_engine, name), **kwargs):
            builds.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(ideal_engine, name, counted)
    with engine_context():
        want = calculus(J, I, f)
        assert ("_monomial_saturation" in builds) == monomial and "_eliminate_tag" in builds
        assert "_grow" in builds
        for r in REWRITES:
            rng = random.Random(r)
            J2, I2 = (Ideal(R, rewrite(K.generators, rng)) for K in (J, I))
            ideal_engine._seed(J2), ideal_engine._seed(I2)
            del builds[:]
            got = calculus(J2, I2, f)
            assert builds == [], (r, J2, I2)
            assert all(a is b for a, b in zip(got[:3], want[:3])) and got[3] == want[3], (r, J2, I2)
