"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n <label>: PASS (t s)`` line on
success (visible under ``pytest -s``; under plain ``pytest -v`` the per-test
PASSED/FAILED line carries the same verdict).  Wall-time bounds are asserted
wherever the criterion states one.
"""

import contextlib
import glob
import io
import itertools
import json
import os
import random
import time

import pytest

from icmlab.cli_app import ParseError, main, parse, print_script
from icmlab.icm_checker import icm_report
from icmlab.ideal_engine import (
    Ideal,
    buchberger,
    ideal_intersect,
    ideal_quotient_ideal,
    saturate,
)
from icmlab.invariants import (
    CyclicModule,
    associated_primes_monomial,
    grade,
    krull_dimension,
    verify_grade_witness,
)
from icmlab.ring_core import FieldSpec, RingDescriptor
from icmlab.theorem_lab import (
    BINOMIAL,
    MIXED,
    MONOMIAL,
    SUITE_IDS,
    InstanceSpec,
    gen_instance,
    run_suite,
)
from oracles import (
    colon_ideal_monomial,
    dimension_brute_force,
    intersect_monomial,
)

QQ = FieldSpec(0)
GF = FieldSpec(32003)
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _stamp(number: int, label: str, start: float, bound: float = None) -> None:
    elapsed = time.perf_counter() - start
    if bound is not None:
        assert elapsed < bound, "%s took %.2f s (bound %.0f s)" % (label, elapsed, bound)
    print("ACCEPTANCE %d %s: PASS (%.2f s)" % (number, label, elapsed))


def _random_exponents(rng: random.Random, n: int, max_degree: int) -> tuple:
    exps = [0] * n
    for _ in range(rng.randint(1, max_degree)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_criterion_1_golden_two_planes_example():
    start = time.perf_counter()
    ring = RingDescriptor(QQ, ("x1", "x2", "x3", "y1", "y2", "y3"))
    xs = Ideal(ring, [ring.variable(i) for i in range(3)])
    ys = Ideal(ring, [ring.variable(i) for i in range(3, 6)])
    J = ideal_intersect(xs, ys)
    M = CyclicModule(ring, J)
    rep = icm_report(M, xs)
    assert rep.grade.value == 0
    assert rep.dim_m == 3
    assert rep.dim_m_mod_im == 3
    assert rep.defect == 0
    assert rep.is_icm is True
    primes = {q.indices for q in associated_primes_monomial(J)}
    assert primes == {(0, 1, 2), (3, 4, 5)}

    rc, out, _ = _run_cli(
        ["run", os.path.join(CORPUS_DIR, "ok_01_golden_two_planes_icm.icm")]
    )
    assert rc == 0
    for needle in ("grade = 0", "dim M = 3", "dim M/IM = 3", "I-Cohen-Macaulay: yes"):
        assert needle in out
    _stamp(1, "golden two-planes example", start, bound=5.0)


def test_criterion_2_dimension_against_brute_force():
    start = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(100):
        n = rng.randint(1, 6)
        ring = RingDescriptor(QQ, tuple("x%d" % (i + 1) for i in range(n)))
        monos = [_random_exponents(rng, n, 3) for _ in range(rng.randint(1, n + 1))]
        J = Ideal(ring, [ring.monomial(m) for m in monos])
        engine = krull_dimension(CyclicModule(ring, J))
        oracle = dimension_brute_force(n, monos)
        assert engine == oracle, "dim mismatch on %r: %d vs %d" % (monos, engine, oracle)
    _stamp(2, "dimension vs 2^n brute force, 100 ideals", start, bound=30.0)


def test_criterion_3_colon_and_intersection_against_monomial_rules():
    start = time.perf_counter()
    rng = random.Random(777)

    def gb_strings(ideal: Ideal):
        return [str(g) for g in ideal.groebner_basis()]

    for _ in range(100):
        n = rng.randint(2, 4)
        ring = RingDescriptor(QQ, tuple("x%d" % (i + 1) for i in range(n)))
        a = [_random_exponents(rng, n, 3) for _ in range(rng.randint(1, 3))]
        b = [_random_exponents(rng, n, 3) for _ in range(rng.randint(1, 3))]
        A = Ideal(ring, [ring.monomial(m) for m in a])
        B = Ideal(ring, [ring.monomial(m) for m in b])

        colon_engine = gb_strings(ideal_quotient_ideal(A, B))
        colon_oracle = gb_strings(
            Ideal(ring, [ring.monomial(m) for m in colon_ideal_monomial(a, b)])
        )
        assert colon_engine == colon_oracle

        meet_engine = gb_strings(ideal_intersect(A, B))
        meet_oracle = gb_strings(
            Ideal(ring, [ring.monomial(m) for m in intersect_monomial(a, b)])
        )
        assert meet_engine == meet_oracle
    _stamp(3, "colon/intersection vs combinatorial rules, 100 pairs", start)


def test_criterion_4_grade_soundness_and_witness_replay():
    start = time.perf_counter()
    # exact values on coordinate subspace ideals, every witness replayed
    for n in range(1, 7):
        ring = RingDescriptor(QQ, tuple("x%d" % (i + 1) for i in range(n)))
        free = CyclicModule(ring, Ideal(ring, ()))
        for k in range(1, n + 1):
            I = Ideal(ring, [ring.variable(i) for i in range(k)])
            w = grade(free, I)
            assert w.value == k
            verify_grade_witness(free, I, w)

    # grade vanishes exactly when the first saturation certificate fires
    kinds = (MONOMIAL, BINOMIAL, MIXED)
    for i in range(100):
        spec = InstanceSpec(
            n_vars=2 + (i % 3),
            field=QQ if i % 2 else GF,
            ideal_kind=kinds[i % 3],
            max_degree=2 + (i % 2),
            max_generators=1 + (i % 3),
            seed=4000 + i,
        )
        M, I, _ = gen_instance(spec)
        w = grade(M, I, seed=spec.seed)
        fires = saturate(M.defining_ideal, I).exponent != 0
        assert (w.value == 0) == fires
        verify_grade_witness(M, I, w)
    _stamp(4, "grade soundness + 100 witness replays", start)


def test_criterion_5_defect_nonnegative_on_500_instances():
    start = time.perf_counter()
    kinds = (MONOMIAL, BINOMIAL, MIXED)
    violations = 0
    for i in range(500):
        spec = InstanceSpec(
            n_vars=2 + (i % 3),
            field=QQ if i % 2 else GF,
            ideal_kind=kinds[i % 3],
            max_degree=2 + (i % 2),
            max_generators=1 + (i % 3),
            seed=9000 + i,
        )
        M, I, _ = gen_instance(spec)
        rep = icm_report(M, I, seed=spec.seed)
        if rep.defect < 0:
            violations += 1
        assert rep.is_icm == (rep.defect == 0)
    assert violations == 0

    # the affine contrast instance: inverting one coordinate of a product
    # keeps the ambient ring polynomial, and there the verdict is defect 0
    ring = RingDescriptor(QQ, ("u", "v", "x", "y"))
    u, x = ring.variable(0), ring.variable(2)
    slice_ideal = Ideal(ring, [u * x - ring.one()])
    rep = icm_report(CyclicModule(ring, Ideal(ring, ())), slice_ideal)
    assert rep.defect == 0
    assert rep.is_icm is True
    assert rep.grade.value == 1
    _stamp(5, "defect >= 0 on 500 mixed instances", start)


def test_criterion_6_theorem_suites_at_zero_failures():
    start = time.perf_counter()
    slowest = 0.0
    for suite_id in SUITE_IDS:
        suite_start = time.perf_counter()
        report = run_suite(suite_id, trials=100, base_seed=42)
        suite_time = time.perf_counter() - suite_start
        slowest = max(slowest, suite_time)
        assert suite_time < 120.0, "%s took %.1f s" % (suite_id, suite_time)
        assert report.failures == (), "suite %s failed:\n%s" % (
            suite_id,
            "\n".join(report.failures),
        )
        assert report.passed + report.skipped_hypothesis == 100
    _stamp(6, "8 suites x 100 trials, slowest %.2f s" % slowest, start)


def test_criterion_7_reduced_gb_determinism():
    start = time.perf_counter()
    rng = random.Random(2026)
    for case in range(50):
        n = rng.randint(2, 3)
        field = GF if case % 4 else QQ
        ring = RingDescriptor(field, tuple("x%d" % (i + 1) for i in range(n)))
        gens = []
        for _ in range(rng.randint(2, 3)):
            acc = {}
            for _ in range(rng.randint(1, 3)):
                mono = _random_exponents(rng, n, 3)
                acc[mono] = acc.get(mono, 0) + rng.randint(-4, 4)
            gens.append(ring.polynomial(acc))
        gens = [g for g in gens if not g.is_zero] or [ring.variable(0)]
        baseline = [str(g) for g in buchberger(gens, ring=ring)]
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert [str(g) for g in buchberger(shuffled, ring=ring)] == baseline
    _stamp(7, "reduced-GB determinism, 50 ideals x 3 permutations", start)


def test_criterion_8_corpus_contract_and_json_stability():
    start = time.perf_counter()
    files = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.icm")))
    assert len(files) == 50

    expected = {"ok": 0, "err1": 1, "err2": 2}
    for path in files:
        family = os.path.basename(path).split("_")[0]
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        if family == "err2":
            with pytest.raises(ParseError):
                parse(source)
        else:
            script = parse(source)
            assert parse(print_script(script)) == script, "round trip broke: %s" % path
        rc, _, err = _run_cli(["run", path, "--trials", "3"])
        assert rc == expected[family], "%s exited %d, expected %d" % (
            path,
            rc,
            expected[family],
        )
        if family == "err1":
            assert "error in query" in err
        if family == "err2":
            assert "parse error:" in err

    for name in ("ok_01_golden_two_planes_icm.icm", "ok_23_verify_grade_height.icm"):
        path = os.path.join(CORPUS_DIR, name)
        argv = ["run", path, "--json", "--seed", "0", "--trials", "3"]
        rc1, out1, _ = _run_cli(argv)
        rc2, out2, _ = _run_cli(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2, "JSON not byte-stable for %s" % name
        json.loads(out1)
    _stamp(8, "corpus round-trip, exit codes, JSON byte-stability", start)
