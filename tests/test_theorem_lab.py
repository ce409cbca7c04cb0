"""Tests for the randomized property suites: generator guarantees,
draw determinism, suite accounting, the shrinker, and serialization."""

import json
import random

import pytest

from icmlab import theorem_lab
from icmlab.cli_app import QueryStmt, main, parse
from icmlab.errors import UnknownSuiteError
from icmlab.icm_checker import RelationReport
from icmlab.ideal_engine import Ideal
from icmlab.invariants import CyclicModule
from icmlab.ring_core import FieldSpec, RingDescriptor
from icmlab.theorem_lab import (
    BINOMIAL,
    MIXED,
    MONOMIAL,
    SUITE_IDS,
    InstanceSpec,
    gen_instance,
    run_suite,
    run_trial,
    serialize_instance,
    shrink_failure,
)

QQ = FieldSpec(0)
GF = FieldSpec(32003)


def spec_with(**overrides) -> InstanceSpec:
    base = dict(
        n_vars=3,
        field=QQ,
        ideal_kind=MONOMIAL,
        max_degree=2,
        max_generators=3,
        seed=0,
    )
    base.update(overrides)
    return InstanceSpec(**base)


class TestInstanceSpec:
    def test_rejects_bad_var_counts(self):
        with pytest.raises(ValueError):
            spec_with(n_vars=0)
        with pytest.raises(ValueError):
            spec_with(n_vars=9)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            spec_with(max_degree=0)
        with pytest.raises(ValueError):
            spec_with(max_degree=5)

    def test_rejects_bad_generator_count(self):
        with pytest.raises(ValueError):
            spec_with(max_generators=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_with(ideal_kind="trinomial")


class TestGenInstance:
    def test_same_spec_same_instance(self):
        for seed in range(10):
            spec = spec_with(ideal_kind=MIXED, seed=seed)
            m1, i1, p1 = gen_instance(spec)
            m2, i2, p2 = gen_instance(spec)
            assert [str(g) for g in m1.defining_ideal.generators] == [
                str(g) for g in m2.defining_ideal.generators
            ]
            assert [str(g) for g in i1.generators] == [str(g) for g in i2.generators]
            assert p1 == p2

    def test_monomial_kind_yields_single_terms(self):
        for seed in range(30):
            M, I, prime = gen_instance(spec_with(seed=seed))
            for g in M.defining_ideal.generators:
                assert len(g.terms) == 1
            for g in I.generators:
                assert len(g.terms) == 1
            assert prime is not None

    def test_binomial_kind_yields_short_homogeneous_generators(self):
        for seed in range(30):
            M, _, prime = gen_instance(spec_with(ideal_kind=BINOMIAL, seed=seed))
            for g in M.defining_ideal.generators:
                assert len(g.terms) <= 2
                assert g.is_homogeneous()
            assert prime is None

    def test_defining_ideal_always_homogeneous(self):
        for kind in (MONOMIAL, BINOMIAL, MIXED):
            for seed in range(20):
                M, _, _ = gen_instance(spec_with(ideal_kind=kind, seed=seed))
                for g in M.defining_ideal.generators:
                    assert g.is_homogeneous()

    def test_mixed_kind_balances_monomials_and_binomials(self):
        single = 0
        multi = 0
        for seed in range(150):
            M, _, _ = gen_instance(spec_with(ideal_kind=MIXED, seed=seed))
            for g in M.defining_ideal.generators:
                if len(g.terms) == 1:
                    single += 1
                else:
                    multi += 1
        total = single + multi
        assert total > 100
        assert abs(multi / total - 0.5) < 0.15

    def test_prime_contains_the_defining_ideal(self):
        # the drawn prime sits over a minimal prime, so it contains J
        for seed in range(25):
            M, _, prime = gen_instance(spec_with(seed=seed, field=GF))
            assert prime is not None
            p_ideal = prime.as_ideal()
            for g in M.defining_ideal.generators:
                assert p_ideal.contains(g)

    def test_generator_count_within_bound(self):
        for seed in range(25):
            spec = spec_with(seed=seed, max_generators=2)
            M, I, _ = gen_instance(spec)
            assert 1 <= len(M.defining_ideal.generators) <= 2
            assert 1 <= len(I.generators) <= 3


class TestSerializeInstance:
    def test_output_parses_in_the_script_language(self):
        for seed in range(12):
            for kind in (MONOMIAL, BINOMIAL, MIXED):
                M, I, prime = gen_instance(spec_with(ideal_kind=kind, seed=seed))
                text = serialize_instance(M, I, prime)
                script = parse(text)
                kinds = [type(s).__name__ for s in script.statements]
                assert kinds[0] == "RingStmt"
                assert "QueryStmt" in kinds

    def test_zero_defining_ideal_serializes_and_parses(self):
        ring = RingDescriptor(QQ, ("x", "y"))
        M = CyclicModule(ring, Ideal(ring, ()))
        I = Ideal(ring, [ring.variable(0)])
        text = serialize_instance(M, I)
        assert "ideal J = 0;" in text
        parse(text)

    def test_header_lines_become_comments(self):
        ring = RingDescriptor(QQ, ("x",))
        M = CyclicModule(ring, Ideal(ring, ()))
        I = Ideal(ring, [ring.variable(0)])
        text = serialize_instance(M, I, header=["first note", "second note"])
        lines = text.splitlines()
        assert lines[0] == "# first note"
        assert lines[1] == "# second note"
        parse(text)

    def test_prime_rendered_as_extra_ideal(self):
        M, I, prime = gen_instance(spec_with(seed=3))
        assert prime is not None
        text = serialize_instance(M, I, prime)
        assert "ideal P = " in text


class TestRunTrial:
    def test_deterministic_across_calls(self):
        for suite_id in SUITE_IDS:
            a = run_trial(suite_id, meta_seed=7)
            b = run_trial(suite_id, meta_seed=7)
            assert a.holds == b.holds
            assert a.skipped == b.skipped
            assert a.hypothesis_log == b.hypothesis_log

    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownSuiteError):
            run_trial("no-such-suite", meta_seed=0)
        with pytest.raises(UnknownSuiteError):
            run_suite("no-such-suite", trials=1)


class TestRunSuite:
    def test_accounting_yield_and_health(self):
        # one pass over every suite: tallies add up, a workable share of
        # trials meets the hypotheses, and no failures surface
        for suite_id in SUITE_IDS:
            rep = run_suite(suite_id, trials=25, base_seed=0)
            assert rep.passed + rep.skipped_hypothesis + len(rep.failures) == 25
            assert rep.passed >= 5, "suite %s starved: %s" % (suite_id, rep.summary_line())
            assert rep.failures == ()

    def test_rerun_serializes_identically(self):
        a = run_suite("grade-height", trials=15, base_seed=3)
        b = run_suite("grade-height", trials=15, base_seed=3)
        assert a.to_json() == b.to_json()
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_summary_line_shape(self):
        rep = run_suite("localization-cm", trials=5, base_seed=2)
        line = rep.summary_line()
        assert line.startswith("suite localization-cm:")
        assert "trials=5" in line
        assert "failures: 0" in line


class TestSuiteFailurePath:
    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_forced_failures_are_tallied_and_replayable(self, suite_id, monkeypatch, capsys):
        draw, _ = theorem_lab._SUITES[suite_id]
        forced = RelationReport(False, ("forced",))
        monkeypatch.setitem(theorem_lab._SUITES, suite_id, (draw, lambda inst: forced))
        rep = run_suite(suite_id, trials=3, base_seed=1)
        assert rep.passed + rep.skipped_hypothesis + len(rep.failures) == 3
        assert len(rep.failures) == 3
        for t, text in enumerate(rep.failures):
            assert text.startswith("# suite %s failed, trial seed %d\n" % (suite_id, 1_000_003 + t))
            assert "log: forced" in text
            assert text.rstrip().endswith("icm J I;")
            assert parse(text).statements[-1] == QueryStmt("icm", ("J", "I"))
        assert main(["verify", suite_id, "--trials", "2"]) == 3
        out = capsys.readouterr().out
        assert "passed=0 skipped=0 failures: 2" in out
        assert out.count("icm J I;") == 2


class TestShrinkFailure:
    def setup_method(self):
        self.ring = RingDescriptor(QQ, ("x", "y"))
        self.x = self.ring.variable(0)
        self.y = self.ring.variable(1)

    def test_greedy_reduction_to_core(self):
        # failure persists exactly while some J generator mentions x and I
        # is nonempty, so the minimum is J = (x), I = one generator
        def rerun(j_gens, i_gens):
            return any(0 in g.support() for g in j_gens) and len(i_gens) >= 1

        j0 = (self.x * self.x * self.y, self.y * self.y * self.y)
        i0 = (self.x * self.y, self.y)
        j_small, i_small = shrink_failure(rerun, j0, i0)
        assert [str(g) for g in j_small] == ["x"]
        assert len(i_small) == 1
        assert rerun(j_small, i_small)

    def test_non_failing_candidates_rejected(self):
        # only the exact original instance fails, so nothing shrinks
        j0 = (self.x, self.y)
        i0 = (self.x * self.y, self.y)

        def rerun(j_gens, i_gens):
            return [str(g) for g in j_gens] == [str(g) for g in j0] and [
                str(g) for g in i_gens
            ] == [str(g) for g in i0]
        j_small, i_small = shrink_failure(rerun, j0, i0)
        assert j_small == j0
        assert i_small == i0

    def test_multi_term_generator_swapped_for_leading_monomial(self):
        def rerun(j_gens, i_gens):
            return bool(j_gens) and len(i_gens) >= 1

        f = self.x * self.x - self.y * self.y
        j_small, _ = shrink_failure(rerun, (f,), (self.y,))
        assert len(j_small) == 1
        assert len(j_small[0].terms) == 1
        assert sum(j_small[0].leading_monomial()) == 1

    def test_attempt_budget_respected(self):
        calls = []

        def rerun(j_gens, i_gens):
            calls.append(1)
            return True  # everything "fails", so only the budget stops it

        j0 = (self.x * self.x * self.y, self.y * self.y)
        i0 = (self.x * self.y, self.y)
        shrink_failure(rerun, j0, i0, max_attempts=10)
        assert len(calls) <= 14  # the sweep in flight may finish its pass


# every rerun call, as (J, I) generator strings, of the shrinker below with
# the default attempt cap; recorded from the hand-written sweeps it replaced
SHRINK_CALLS = [
    (["y^2*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "y^2*z"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "y^2*z", "x*z^3 + y"], ["y^2"]),
    (["x^2*y - 3*z", "y^2*z", "x*z^3 + y"], ["x*y + z"]),
    (["x^2*y", "y^2*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "y*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["y*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "y*z"], ["x*y + z", "y^2"]),
    (["x^2*y - 3*z", "y*z", "x*z^3 + y"], ["y^2"]),
    (["y*z", "x*z^3 + y"], ["y^2"]),
    (["x*z^3 + y"], ["y^2"]),
    ([], ["y^2"]),
    (["x*z^3"], ["y^2"]),
    (["x*z^3 + y"], ["y"]),
    ([], ["y"]),
    (["x*z^3"], ["y"]),
]


@pytest.mark.parametrize(
    "cap, ncalls, j_out, i_out",
    [
        (200, 18, ["x*z^3 + y"], ["y"]),
        (10, 11, ["x^2*y - 3*z", "y*z", "x*z^3 + y"], ["y^2"]),
        (5, 7, ["x^2*y - 3*z", "y*z", "x*z^3 + y"], ["x*y + z", "y^2"]),
    ],
)
def test_shrink_failure_call_sequence(cap, ncalls, j_out, i_out):
    # a seeded coin decides which candidates still fail; the sweep in flight
    # when the cap is reached runs to its first failing candidate
    ring = RingDescriptor(QQ, ("x", "y", "z"))
    x, y, z = (ring.variable(i) for i in range(3))
    rng = random.Random(11)
    calls = []

    def rerun(j_gens, i_gens):
        calls.append(([str(g) for g in j_gens], [str(g) for g in i_gens]))
        return rng.random() < 0.4

    j_small, i_small = shrink_failure(
        rerun, (x**2 * y - 3 * z, y**2 * z, x * z**3 + y), (x * y + z, y**2), max_attempts=cap
    )
    assert calls == SHRINK_CALLS[:ncalls]
    assert [str(g) for g in j_small] == j_out
    assert [str(g) for g in i_small] == i_out


class TestSuiteRegistry:
    def test_eight_distinct_suites(self):
        assert len(SUITE_IDS) == 8
        assert len(set(SUITE_IDS)) == 8
