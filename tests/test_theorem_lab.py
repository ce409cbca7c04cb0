"""Tests for the randomized property suites: generator guarantees,
draw determinism, suite accounting, the shrinker, and serialization."""

import hashlib
import json
import random

import pytest

from icmlab import invariants, theorem_lab
from icmlab.cli_app import IdealStmt, QueryStmt, RingStmt, main, parse
from icmlab.errors import EngineError, UnknownSuiteError
from icmlab.icm_checker import RelationReport
from icmlab.ideal_engine import Ideal
from icmlab.invariants import CyclicModule, GradeWitness, MonomialPrime
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
                M, I, _ = gen_instance(spec_with(ideal_kind=kind, seed=seed))
                text = serialize_instance(M, I)
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

    def test_negative_trial_count_rejected(self):
        with pytest.raises(ValueError, match="trial count must be nonnegative, got -2"):
            run_suite("grade-height", trials=-2)
        assert run_suite("grade-height", trials=0).passed == 0

    @pytest.mark.parametrize("suite_id", ["ass-dimension", "localization-cm"])
    def test_at_prime_check_refuses_a_test_ideal_not_of_variables(self, suite_id):
        # the at-prime suites read their test ideal back as a variable prime
        M, _, check = theorem_lab._SUITES[suite_id](0)
        x = M.ring.variable(0)
        with pytest.raises(EngineError, match="not generated by variables"):
            check(M, Ideal(M.ring, [x * x]))


# sha256 of the per-trial (holds, skipped_reason, hypothesis_log) over trial
# seeds 11 * 1_000_003 + t, t < 40; the suite tallies alone would not see a
# change in what the trials draw, in what order, or what they check
TRIAL_FINGERPRINTS = {
    "quotient-transport": "759477b39493b4188942f800e3f3d96e65e86ec8b087c7bba3abc9d625487556",
    "subideal-transfer": "850da96b2cf14a888b85e71273b0572aa9c1f9de70ce3c0687dec241d7c3db5c",
    "annihilator-transport": "c4e90d04b831601013198dc26ba1b28a47e38e19b0da5dd47dade217824a5ab0",
    "grade-height": "7106a8570c35bdcf81b26b89911c0231d63135b46883ffaa1eb128bb7d81d576",
    "cm-implies-icm": "342cc4cadce070cfab8ddf1ef607030780aec663809068c83e5ea341c7322676",
    "ass-dimension": "aba82537680bcb4405a9f25a4cd530a0d99b60e7f78124db3b88e9960feafd8f",
    "localization-cm": "124a4df8bee3070d259717b5971dde22fa071feecabc93abf08b3e05090eba65",
    "poly-extension": "c606894c49db81e3df77a32455959d1628046fb4bea3fad64edc700461d5d34a",
}


def trial_fingerprint(suite_id):
    outcomes = []
    for t in range(40):
        r = run_trial(suite_id, 11 * 1_000_003 + t)
        outcomes.append(repr((r.holds, r.skipped_reason, r.hypothesis_log)))
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_per_trial_fingerprint(suite_id):
    assert trial_fingerprint(suite_id) == TRIAL_FINGERPRINTS[suite_id]


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


# the relation each suite checks, by its name in theorem_lab
RELATIONS = {
    "quotient-transport": "quotient_transport",
    "subideal-transfer": "subideal_transfer_check",
    "annihilator-transport": "annihilator_transport",
    "grade-height": "check_grade_height",
    "cm-implies-icm": "cm_implies_icm_check",
    "ass-dimension": "ass_dimension_check",
    "localization-cm": "localization_cm_check",
    "poly-extension": "polynomial_extension_check",
}


def checked_instance(args, kwargs):
    """(ring, J generators, I generators, instance seed) of one relation
    call, as strings; grade-height checks R itself, the at-prime suites
    check I = p."""
    if len(args) == 1:
        (I,) = args
        j_gens = ()
    else:
        M, I = args[:2]
        j_gens = M.defining_ideal.generators
        if isinstance(I, MonomialPrime):
            I = I.as_ideal()
    return (
        I.ring,
        tuple(str(g) for g in j_gens),
        tuple(str(g) for g in I.generators),
        kwargs["seed"],
    )


def force_failure_on(monkeypatch, suite_id, fails):
    """Make the suite's relation fail exactly on the instances where
    ``fails(checked_instance)`` is true, and hold everywhere else."""

    def relation(*args, **kwargs):
        if fails(checked_instance(args, kwargs)):
            return RelationReport(False, ("forced",))
        return RelationReport(True, ("held",))

    monkeypatch.setattr(theorem_lab, RELATIONS[suite_id], relation)


def declared_instance(text):
    """(ring, J generators, I generators) as the reproducer script declares them."""
    ring = None
    ideals = {}
    for stmt in parse(text).statements:
        if isinstance(stmt, RingStmt):
            ring = stmt.ring
        elif isinstance(stmt, IdealStmt):
            ideals[stmt.name] = tuple(str(g) for g in Ideal(ring, stmt.generators).generators)
    return ring, ideals["J"], ideals["I"]


# the test ideals each reproducer queries icm J on, in order
REPRODUCER_TESTS = {"subideal-transfer": ("I", "J2")}


class TestSuiteFailurePath:
    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_forced_failures_are_tallied_and_replayable(self, suite_id, monkeypatch, capsys):
        force_failure_on(monkeypatch, suite_id, lambda inst: True)
        rep = run_suite(suite_id, trials=3, base_seed=1)
        assert rep.passed + rep.skipped_hypothesis + len(rep.failures) == 3
        assert len(rep.failures) == 3
        tests = REPRODUCER_TESTS.get(suite_id, ("I",))
        for t, text in enumerate(rep.failures):
            assert text.startswith("# suite %s failed, trial seed %d\n" % (suite_id, 1_000_003 + t))
            assert "log: forced" in text
            assert text.rstrip().endswith("icm J %s;" % tests[-1])
            queries = list(parse(text).statements[-len(tests) :])
            assert queries == [QueryStmt("icm", ("J", name)) for name in tests]
        assert main(["verify", suite_id, "--trials", "2"]) == 3
        out = capsys.readouterr().out
        assert "passed=0 skipped=0 failures: 2" in out
        assert out.count("icm J I;") == 2

    def test_grade_height_fails_on_a_witness_one_element_short(self, monkeypatch):
        # R is I-CM for every proper I, so a grade chain that stops one
        # element short of height I must fail every trial
        real = invariants._grade_and_dimensions

        def short(M, I, seed):
            w, dim_m, dim_mod = real(M, I, seed)
            return GradeWitness(w.value - 1, w.sequence[:-1], w.certificate), dim_m, dim_mod

        monkeypatch.setattr(invariants, "_grade_and_dimensions", short)
        rep = run_suite("grade-height", trials=8, base_seed=0)
        assert len(rep.failures) == 8
        assert all("log: grade = " in text for text in rep.failures)

    def test_subideal_transfer_reproducer_replays_both_test_ideals(self, monkeypatch, tmp_path, capsys):
        # the relation compares the icm reports of I and J2, so the script
        # declares J2 and prints both reports when run
        force_failure_on(monkeypatch, "subideal-transfer", lambda inst: True)
        rep = run_suite("subideal-transfer", trials=3, base_seed=0)
        assert len(rep.failures) == 3
        for k, text in enumerate(rep.failures):
            assert "ideal J2 = " in text
            assert text.endswith("icm J I;\nicm J J2;\n")
            script = tmp_path / ("repro%d.icm" % k)
            script.write_text(text)
            capsys.readouterr()
            assert main(["run", str(script)]) == 0
            out = capsys.readouterr().out
            assert out.count("I-Cohen-Macaulay: ") == 2
            assert out.index("icm J I:") < out.index("icm J J2:")

    def test_reproducer_prints_the_checked_complete_intersection(self, monkeypatch):
        # trial 3 draws J = (x1*x2*x3) but checks the complete intersection (x2^2)
        force_failure_on(monkeypatch, "cm-implies-icm", lambda inst: inst[1] == ("x2^2",))
        rep = run_suite("cm-implies-icm", trials=4, base_seed=0)
        header = "# suite cm-implies-icm failed, trial seed 3\n"
        (text,) = [f for f in rep.failures if f.startswith(header)]
        assert "ideal J = x2^2;" in text.splitlines()

    def test_reproducer_prints_the_checked_prime_as_test_ideal(self, monkeypatch):
        force_failure_on(monkeypatch, "ass-dimension", lambda inst: inst[2] == ("x2", "x3"))
        rep = run_suite("ass-dimension", trials=1, base_seed=0)
        (text,) = rep.failures
        assert "ideal I = x2, x3;" in text.splitlines()
        assert "ideal P" not in text

    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_reproducer_declares_the_checked_instance(self, suite_id, monkeypatch):
        # each trial fails on the exact instance it checks and nowhere else,
        # so the shrinker cannot move and the script must declare it
        checked = {}
        for t in range(10):
            seen = []  # what the trial checks; the relation holds on it
            force_failure_on(monkeypatch, suite_id, lambda inst: seen.append(inst))
            run_trial(suite_id, t)
            checked[t] = seen[0]
        targets = set(checked.values())
        force_failure_on(monkeypatch, suite_id, lambda inst: inst in targets)
        rep = run_suite(suite_id, trials=10, base_seed=0)
        assert len(rep.failures) == 10
        for t, text in enumerate(rep.failures):
            assert text.startswith("# suite %s failed, trial seed %d\n" % (suite_id, t))
            assert declared_instance(text) == checked[t][:3]


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
