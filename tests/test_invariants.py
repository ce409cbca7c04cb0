"""Dimension, primes, regular sequences, and grade."""
import contextlib
import inspect
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from icmlab import ideal_engine, invariants
from icmlab.errors import (
    EmptySupportError,
    EngineError,
    IMEqualsMError,
    ImproperIdealError,
    IncompatibleRingError,
    NonMonomialError,
    SearchExhaustedError,
    ZeroElementError,
    ZeroModuleError,
)
from icmlab.icm_checker import icm_report
from icmlab.ideal_engine import (
    Ideal,
    SaturationResult,
    engine_context,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    is_nonzerodivisor,
    membership,
    normal_form,
    saturate,
)
from icmlab.invariants import (
    CyclicModule,
    MonomialPrime,
    _candidates,
    associated_primes_monomial,
    find_regular_element,
    grade,
    height,
    krull_dimension,
    local_dimension,
    minimal_primes_monomial,
    minimal_transversals,
    replay_regular_sequence,
    variable_prime,
    verify_grade_witness,
)
from icmlab.ring_core import FieldSpec, Polynomial, RingDescriptor, TermOrder

import oracles
from test_closed_forms import FAMILIES


QQ = FieldSpec(0)


def ring_qq(*names):
    return RingDescriptor(QQ, tuple(names))


def monomial_ideal(ring, monos):
    return Ideal(ring, [ring.monomial(m) for m in monos])


def random_monomials(rng, nvars, max_degree, count):
    out = []
    for _ in range(count):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(nvars)] += 1
        out.append(tuple(exps))
    return out


# ---------------------------------------------------------------------------
# transversals and dimension


class TestTransversals:
    def test_small_hand_cases(self):
        assert minimal_transversals([frozenset({0})]) == [(0,)]
        assert minimal_transversals([frozenset({0, 1})]) == [(0,), (1,)]
        got = minimal_transversals([frozenset({0, 1}), frozenset({1, 2})])
        assert got == [(0, 2), (1,)]  # sorted list of sorted tuples

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            minimal_transversals([frozenset()])

    def test_every_transversal_hits_every_support(self):
        rng = random.Random(61)
        for _ in range(50):
            supports = [
                frozenset(
                    rng.sample(range(5), rng.randint(1, 3))
                )
                for _ in range(rng.randint(1, 4))
            ]
            for t in minimal_transversals(supports):
                t_set = set(t)
                assert all(s & t_set for s in supports)
                # minimal: dropping any member misses some support
                for v in t:
                    smaller = t_set - {v}
                    assert any(not (s & smaller) for s in supports)

    def test_matches_brute_force_hitting_sets(self):
        # every inclusion-minimal hitting set among all subsets, so a
        # transversal that is dropped fails here, not only one too many
        rng = random.Random(52)
        for _ in range(300):
            n = rng.randint(1, 6)
            supports = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 7))]
            subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
            hitting = [h for h in subsets if all(s & h for s in supports)]
            want = sorted(tuple(sorted(h)) for h in hitting if not any(g < h for g in hitting))
            assert minimal_transversals(supports) == want, supports


class TestDimension:
    def test_polynomial_ring_dimension(self):
        R = ring_qq("x", "y", "z")
        assert krull_dimension(CyclicModule(R, Ideal(R, []))) == 3

    def test_frozen_examples(self):
        R = ring_qq("x", "y")
        assert krull_dimension(CyclicModule(R, monomial_ideal(R, [(1, 1)]))) == 1
        assert krull_dimension(CyclicModule(R, monomial_ideal(R, [(1, 0), (0, 1)]))) == 0

    def test_defining_ideal_from_another_ring_rejected(self):
        R, S = ring_qq("x", "y"), ring_qq("x", "z")
        with pytest.raises(IncompatibleRingError, match="different ring"):
            CyclicModule(R, Ideal(S, [S.variable(0)]))

    def test_unit_ideal_rejected(self):
        R = ring_qq("x")
        J = Ideal(R, [R.one()])
        # the module R/<1> is zero and cannot even be constructed
        with pytest.raises(ZeroModuleError):
            CyclicModule(R, J)

    def test_properness_is_read_off_the_basis(self, monkeypatch):
        # the reduced basis says whether 1 lies in J, so no normal form is
        # taken, even when the generators do not show the 1
        calls = []
        real = ideal_engine.normal_form
        monkeypatch.setattr(ideal_engine, "normal_form", lambda *a: calls.append(a) or real(*a))
        R = ring_qq("x", "y")
        x = R.variable(0)
        CyclicModule(R, Ideal(R, [x * x]))
        with pytest.raises(ZeroModuleError):
            CyclicModule(R, Ideal(R, [x, x - 1]))
        assert calls == []

    def test_matches_brute_force_on_random_monomials(self):
        rng = random.Random(67)
        for trial in range(60):
            n = rng.randint(1, 5)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 3, rng.randint(1, 4))
            got = krull_dimension(CyclicModule(R, monomial_ideal(R, monos)))
            want = oracles.dimension_brute_force(n, monos)
            assert got == want, (trial, monos)

    def test_height_complements_dimension(self):
        R = ring_qq("x", "y", "z")
        J = monomial_ideal(R, [(1, 0, 0), (0, 1, 0)])
        assert height(J) == 2
        assert height(Ideal(R, [])) == 0


@pytest.mark.parametrize(
    "entry", ["normal_form", "membership", "ideal_quotient", "is_nonzerodivisor", "grade", "local_dimension"]
)
def test_operands_in_two_rings_name_both(entry):
    # one ring check for two operands, whose message names both rings
    R, S = ring_qq("x", "y"), RingDescriptor(FieldSpec(7), ("u", "v"))
    J, f = Ideal(R, [R.variable(0)]), S.variable(1)
    M = CyclicModule(R, J)
    run = {
        "normal_form": lambda: normal_form(f, J.groebner_basis()),
        "membership": lambda: membership(f, J),
        "ideal_quotient": lambda: ideal_quotient(J, f),
        "is_nonzerodivisor": lambda: is_nonzerodivisor(J, f),
        "grade": lambda: grade(M, Ideal(S, [f])),
        "local_dimension": lambda: local_dimension(M, MonomialPrime(S, (1,))),
    }[entry]
    with pytest.raises(IncompatibleRingError) as err:
        run()
    assert str(R) in str(err.value) and str(S) in str(err.value)


# ---------------------------------------------------------------------------
# primes


class TestMonomialPrime:
    def test_normalization_and_containment(self):
        R = ring_qq("x", "y", "z")
        p = MonomialPrime(R, (2, 0, 2))
        assert p.indices == (0, 2)
        assert p.variables == ("x", "z")
        assert p.codimension == 2
        assert p.quotient_dimension() == 1
        q = MonomialPrime(R, (0,))
        assert p.contains(q)
        assert not q.contains(p)
        assert str(p) == "<x, z>"

    @pytest.mark.parametrize("indices", [(True,), (0, False), (1.0,), ("1",), (3,), (-1,)])
    def test_indices_must_be_integers_in_range(self, indices):
        # (True,) once stood for <y> with indices (True,), and (1.0,)
        # constructed but could not be printed
        R = ring_qq("x", "y", "z")
        with pytest.raises(ValueError, match="variable index out of range"):
            MonomialPrime(R, indices)

    def test_zero_prime_allowed(self):
        R = ring_qq("x")
        z = MonomialPrime(R, ())
        assert z.quotient_dimension() == 1
        assert str(z) == "<0>"

    def test_as_ideal_round_trip(self):
        R = ring_qq("x", "y")
        p = MonomialPrime.from_names(R, ["y"])
        assert [str(g) for g in p.as_ideal().generators] == ["y"]

    def test_variable_prime(self):
        # an ideal generated by variables, in any presentation, is its
        # prime: <x, x + y> is <x, y>; any other ideal gives None
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        assert variable_prime(Ideal(R, [z, R.monomial((1, 0, 0), 2), z])) == MonomialPrime(R, (0, 2))
        assert variable_prime(Ideal(R, [])) == MonomialPrime(R, ())
        assert variable_prime(Ideal(R, [x, x + y])) == MonomialPrime(R, (0, 1))
        assert [variable_prime(Ideal(R, [x, g])) for g in (y * z, R.one())] == [None] * 2


class TestMinimalPrimes:
    def test_frozen_examples(self):
        R = ring_qq("x", "y")
        mins = minimal_primes_monomial(monomial_ideal(R, [(1, 1)]))
        assert {p.indices for p in mins} == {(0,), (1,)}
        mins0 = minimal_primes_monomial(Ideal(R, []))
        assert {p.indices for p in mins0} == {()}

    def test_minimal_primes_are_minimal_covers(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(2, 5)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 2, rng.randint(1, 4))
            J = monomial_ideal(R, monos)
            mins = minimal_primes_monomial(J)
            for p in mins:
                s = set(p.indices)
                for m in monos:
                    assert {i for i, e in enumerate(m) if e} & s
            # dimension is realized by some minimal prime
            dim = krull_dimension(CyclicModule(R, J))
            assert max(p.quotient_dimension() for p in mins) == dim

    def test_non_monomial_input_rejected(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(NonMonomialError):
            minimal_primes_monomial(Ideal(R, [x + y]))


class TestAssociatedPrimes:
    def test_frozen_examples(self):
        R = ring_qq("x", "y")
        ass = associated_primes_monomial(monomial_ideal(R, [(2, 0), (1, 1)]))
        assert {p.indices for p in ass} == {(0,), (0, 1)}
        ass2 = associated_primes_monomial(monomial_ideal(R, [(2, 0), (1, 1), (0, 2)]))
        assert {p.indices for p in ass2} == {(0, 1)}
        ass3 = associated_primes_monomial(Ideal(R, []))
        assert {p.indices for p in ass3} == {()}
        # a power of m, or of each variable, has <x, y> alone, however large
        # the exponents
        for monos in ([(1000, 0), (0, 1000)], [(a, 50 - a) for a in range(51)]):
            assert {p.indices for p in associated_primes_monomial(monomial_ideal(R, monos))} == {(0, 1)}

    def test_matches_witness_oracle_on_random_ideals(self):
        # generators of degree up to 3, then by turns exponents up to 5 and
        # two exponents per variable, repeated, which share polarized variables
        rng = random.Random(79)
        draws = []
        for _ in range(40):
            n = rng.randint(1, 5)
            draws.append((n, random_monomials(rng, n, 3, rng.randint(1, 6))))
        for trial in range(60):
            n = rng.randint(1, 4)
            palettes = [rng.sample(range(1, 6), 2) + [0] for _ in range(n)]
            monos, count = [], rng.randint(1, 6)
            while len(monos) < count:
                if trial % 2:
                    m = tuple(rng.choice(palette) for palette in palettes)
                else:
                    m = tuple(rng.randint(0, 5) for _ in range(n))
                if any(m):
                    monos.append(m)
            draws.append((n, monos))
        for n, monos in draws:
            R = ring_qq(*["x%d" % i for i in range(n)])
            got = {
                p.indices
                for p in associated_primes_monomial(monomial_ideal(R, monos))
            }
            want = oracles.associated_primes_witness(n, monos)
            assert got == want, monos
        assert len(draws) == 100

    def test_complete_intersection_of_products(self):
        # <x_i * y_i : i < 10> is the intersection of the 2^10 primes that
        # take x_i or y_i for each i, so both lists are those primes
        k = 10
        R = ring_qq(*["x%d" % i for i in range(k)], *["y%d" % i for i in range(k)])
        J = monomial_ideal(R, [tuple(int(j in (i, k + i)) for j in range(2 * k)) for i in range(k)])
        want = {tuple(sorted(choice)) for choice in itertools.product(*[(i, k + i) for i in range(k)])}
        assert len(want) == 2**k
        assert {p.indices for p in associated_primes_monomial(J)} == want
        assert {p.indices for p in minimal_primes_monomial(J)} == want

    def test_contains_all_minimal_primes(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 4)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 3, rng.randint(1, 3))
            J = monomial_ideal(R, monos)
            ass = {p.indices for p in associated_primes_monomial(J)}
            mins = {p.indices for p in minimal_primes_monomial(J)}
            assert mins <= ass


class TestPrimesOfAPresentation:
    """The primes read the minimal generators off the ideal's reduced basis,
    so how the generators are written down does not move them."""

    def test_repeats_multiples_and_coefficients(self):
        rng = random.Random(131)
        for p in (0, 2, 32003):
            for order in ("grevlex", "lex"):
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                for trial in range(8):
                    monos = random_monomials(rng, 3, 3, rng.randint(1, 3))
                    # a repeat and a multiple of a generator, anywhere
                    written = monos + [rng.choice(monos), tuple(e + 1 for e in rng.choice(monos))]
                    rng.shuffle(written)
                    coefficients = [
                        rng.randint(1, p - 1) if p else Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 4]))
                        for _ in written
                    ]
                    J = Ideal(R, [R.monomial(m, c) for m, c in zip(written, coefficients)])
                    want = oracles.associated_primes_witness(3, monos)
                    assert {q.indices for q in associated_primes_monomial(J)} == want, written
                    minimal = {a for a in want if not any(set(b) < set(a) for b in want)}
                    assert {q.indices for q in minimal_primes_monomial(J)} == minimal, written

    def test_a_sum_of_generators_is_read_off_the_basis(self):
        # <x^2, x^2 + y^3, y^3> is <x^2, y^3>, a monomial ideal, though one
        # generator has two terms
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        written, minimal = Ideal(R, [x**2, x**2 + y**3, y**3]), Ideal(R, [x**2, y**3])
        for primes in (minimal_primes_monomial, associated_primes_monomial):
            assert primes(written) == primes(minimal) == {MonomialPrime(R, (0, 1))}

    def test_nonmonomial_and_improper_ideals_rejected(self):
        # the refusal names the basis element with more than one term; the
        # unit ideal is improper however it is written
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        for primes in (minimal_primes_monomial, associated_primes_monomial):
            with pytest.raises(NonMonomialError, match=r"generator x\^2 - y has 2 terms"):
                primes(Ideal(R, [x**2 - y]))
            for gens in ([x, R.one()], [x + R.one(), x]):
                with pytest.raises(ImproperIdealError):
                    primes(Ideal(R, gens))


# ---------------------------------------------------------------------------
# regular elements and grade


class TestRegularElements:
    def test_regularity_via_colon(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x * y])
        M = CyclicModule(R, J)
        # x is a zero divisor on R/<xy>, x + y is regular
        assert not ideal_equal(ideal_quotient(J, x), J)
        assert ideal_equal(ideal_quotient(J, x + y), J)

    def test_is_regular_matches_colon_definition(self):
        rng = random.Random(113)

        def poly(R):
            acc = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(R.nvars))
                acc[m] = acc.get(m, 0) + rng.randint(-4, 4)
            return R.polynomial(acc)

        seen = {"regular": 0, "zero divisor": 0, "exponent >= 2": 0}
        checked = 0
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                v = R.variable(rng.randrange(3))
                pairs = []
                for _ in range(8):
                    J = Ideal(R, [poly(R) for _ in range(rng.randint(1, 3))])
                    pairs.append((J, poly(R)))
                J = Ideal(R, [poly(R) * v ** rng.randint(2, 3) for _ in range(2)])
                pairs += [
                    (Ideal(R, ()), poly(R)),  # J = 0
                    (J, R.one() * rng.randint(1, 3)),  # nonzero constant
                    (J, J.generators[0] * poly(R)),  # x in J
                    (J, v),  # zero divisor, usually of exponent >= 2
                ]
                for J, x in pairs:
                    if x.is_zero:
                        continue
                    expect = ideal_equal(ideal_quotient(J, x), J)
                    assert is_nonzerodivisor(J, x) == expect, (J, x)
                    checked += 1
                    seen["regular" if expect else "zero divisor"] += 1
                    if saturate(J, Ideal(R, (x,))).exponent >= 2:
                        seen["exponent >= 2"] += 1
        assert checked >= 60
        assert all(n >= 8 for n in seen.values()), seen

    def test_replay_rejects_repeats_and_strangers(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J = Ideal(R, [x * y])
        I = Ideal(R, [x + y, z])
        assert ideal_equal(replay_regular_sequence(J, I, (x + y, z)), Ideal(R, [x * y, x + y, z]))
        with pytest.raises(EngineError, match="element 2 is not regular"):
            replay_regular_sequence(J, I, (x + y, x + y))
        with pytest.raises(EngineError, match="element 2 is not in the test ideal"):
            replay_regular_sequence(J, I, (z, x - y))

    def test_has_regular_element_matches_search(self):
        # the search answers with the saturation exactly when the monomial
        # saturation rule says that I holds no element regular on R/J
        rng = random.Random(89)
        seen = {True: 0, False: 0}
        for _ in range(25):
            n = rng.randint(2, 4)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 2, rng.randint(1, 3))
            J = monomial_ideal(R, monos)
            if J.groebner_basis().is_unit_ideal:
                continue
            M = CyclicModule(R, J)
            k = rng.randint(1, n)
            I = Ideal(R, [R.variable(i) for i in range(k)])
            units = [tuple(int(i == j) for j in range(n)) for i in range(k)]
            exists = oracles.saturate_monomial(monos, units)[1] == 0
            x = find_regular_element(M.defining_ideal, I, seed=5)
            assert isinstance(x, SaturationResult) != exists
            seen[exists] += 1
            if not exists:
                assert x == saturate(J, I) and x.exponent
            else:
                assert membership(x, I)
                assert ideal_equal(ideal_quotient(J, x), J)
        assert min(seen.values()) >= 3, seen

    def test_inhomogeneous_search_draws_from_the_whole_basis(self):
        # both basis elements of I = (x, y^2 + y) divide zero on R/(x*y), and
        # I is not homogeneous, so the search draws combinations of its basis
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x * y])
        M = CyclicModule(R, J)
        I = Ideal(R, [x, y**2 + y])
        basis = I.groebner_basis().basis
        assert not any(is_nonzerodivisor(J, g) for g in basis)
        expected = {0: -(y**2) + x - y, 1: y**2 - x + y, 2: -(y**2) - x - y}
        for seed, element in expected.items():
            found = find_regular_element(M.defining_ideal, I, seed=seed)
            assert found == element
            assert found not in basis
            assert membership(found, I)
            assert is_nonzerodivisor(J, found)
            w = grade(M, I, seed=seed)
            assert w.value == 1
            verify_grade_witness(M, I, w)

    def test_mixed_degree_search_succeeds(self):
        # regular elements here must mix generator degrees: x1 and x2*x3
        R = ring_qq("x1", "x2", "x3")
        x1, x2, x3 = (R.variable(i) for i in range(3))
        J = Ideal(R, [x1 * x3])
        I = Ideal(R, [x1, x2 * x3])
        x = find_regular_element(J, I, seed=0)
        assert membership(x, I)
        assert ideal_equal(ideal_quotient(J, x), J)


class TestGrade:
    def test_full_variable_ideal_on_free_module(self):
        for n in range(1, 5):
            R = ring_qq(*["x%d" % i for i in range(n)])
            M = CyclicModule(R, Ideal(R, []))
            for k in range(1, n + 1):
                I = Ideal(R, [R.variable(i) for i in range(k)])
                w = grade(M, I, seed=1)
                assert w.value == k
                assert len(w.sequence) == k
                # the certificate must actually block a further step
                assert w.certificate.exponent != 0

    def test_grade_zero_on_associated_prime(self):
        R = ring_qq("x", "y")
        M = CyclicModule(R, monomial_ideal(R, [(1, 1)]))
        w = grade(M, Ideal(R, [R.variable(0)]), seed=1)
        assert w.value == 0
        assert w.certificate.exponent > 0

    def test_golden_intersection_instance(self):
        R = ring_qq("x1", "x2", "x3", "y1", "y2", "y3")
        xs = [R.variable(i) for i in range(3)]
        ys = [R.variable(i) for i in range(3, 6)]
        from icmlab.ideal_engine import ideal_intersect

        J = ideal_intersect(Ideal(R, xs), Ideal(R, ys))
        M = CyclicModule(R, J)
        w = grade(M, Ideal(R, xs), seed=1)
        assert w.value == 0
        assert krull_dimension(M) == 3

    def test_witness_replay_passes(self):
        rng = random.Random(97)
        for _ in range(15):
            n = rng.randint(2, 4)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 2, rng.randint(1, 2))
            J = monomial_ideal(R, monos)
            if J.groebner_basis().is_unit_ideal:
                continue
            M = CyclicModule(R, J)
            I = Ideal(R, [R.variable(i) for i in range(rng.randint(1, n))])
            w = grade(M, I, seed=3)
            log = verify_grade_witness(M, I, w)
            assert len(log) >= w.value

    def test_witness_replay_rejects_tampering(self):
        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0), R.variable(1)])
        w = grade(M, I, seed=1)
        assert w.value == 2
        bad = type(w)(
            value=w.value,
            sequence=(w.sequence[0], w.sequence[0]),  # repeated element: not regular
            certificate=w.certificate,
        )
        with pytest.raises(EngineError):
            verify_grade_witness(M, I, bad)

    def test_witness_replay_rejects_bad_certificates(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        I = Ideal(R, [x, y])
        w = grade(M, I, seed=0)
        assert (w.value, w.sequence, w.certificate.exponent) == (1, (y - x,), 2)
        extended = Ideal(R, [x * y, y - x])
        tampered = {
            "length disagrees": w.replace(value=w.value + 1),
            "does not block": w.replace(certificate=SaturationResult(extended, 0)),
            "is not the saturation": w.replace(certificate=SaturationResult(Ideal(R, [x]), 1)),
            "certificate exponent": w.replace(certificate=SaturationResult(w.certificate.ideal, 7)),
        }
        for message, bad in tampered.items():
            with pytest.raises(EngineError, match=message):
                verify_grade_witness(M, I, bad)

    def test_each_step_drops_dimension_by_one(self):
        rng = random.Random(103)
        for _ in range(10):
            n = rng.randint(2, 4)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 2, rng.randint(1, 2))
            J = monomial_ideal(R, monos)
            if J.groebner_basis().is_unit_ideal:
                continue
            M = CyclicModule(R, J)
            I = Ideal(R, [R.variable(i) for i in range(n)])
            w = grade(M, I, seed=7)
            current = J
            dim = krull_dimension(M)
            for x in w.sequence:
                current = ideal_sum(current, Ideal(R, [x]))
                dim -= 1
                assert krull_dimension(CyclicModule(R, current)) == dim

    def test_search_climbs_in_degree_over_gf2(self):
        # over GF(2) every linear form of I = (x, y) divides x^2*y + x*y^2;
        # the regular element x^2 + x*y + y^2 lies one degree higher
        R = RingDescriptor(FieldSpec(2), ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x**2 * y + x * y**2]))
        I = Ideal(R, [x, y])
        w = grade(M, I, seed=0)
        assert w.value == 1
        assert w.sequence[0].total_degree() >= 2
        verify_grade_witness(M, I, w)

    def test_no_saturation_on_steps_that_find_an_element(self, monkeypatch):
        import icmlab.invariants as inv

        calls = []
        real = inv.saturate
        monkeypatch.setattr(inv, "saturate", lambda J, I: calls.append(J) or real(J, I))
        R = ring_qq("x0", "x1", "x2")
        M = CyclicModule(R, Ideal(R, []))
        w = grade(M, Ideal(R, [R.variable(i) for i in range(3)]), seed=1)
        assert w.value == 3
        assert len(calls) == 1  # the final certificate only

    def test_improper_combination_rejected(self):
        R = ring_qq("x")
        x = R.variable(0)
        # I and J are both proper but I + J contains x - (x - 1) = 1
        M = CyclicModule(R, Ideal(R, [x - 1]))
        with pytest.raises(IMEqualsMError):
            grade(M, Ideal(R, [x]), seed=1)

    def test_unit_test_ideal_rejected(self):
        R = ring_qq("x")
        M = CyclicModule(R, Ideal(R, []))
        with pytest.raises(ImproperIdealError):
            grade(M, Ideal(R, [R.one() + R.variable(0), R.variable(0)]), seed=1)

    def test_zero_test_ideal_rejected(self):
        R = ring_qq("x")
        M = CyclicModule(R, Ideal(R, []))
        with pytest.raises(ZeroElementError):
            grade(M, Ideal(R, []), seed=1)


def spy(monkeypatch, name):
    """Record the arguments of every call to ``invariants.<name>``, by
    parameter name.  Inside ``invariants``, ``saturate`` is called by the
    existence test, by ``grade`` for the certificate and by
    ``verify_grade_witness`` for its replay, each time with ``I`` the test
    ideal."""
    import icmlab.invariants as inv

    calls = []
    real = getattr(inv, name)
    signature = inspect.signature(real)

    def wrapper(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(inv, name, wrapper)
    return calls


def minors_2xn(n):
    """J = the 2x2 minors of a generic 2xn matrix over QQ, I = all variables."""
    R = ring_qq(*["x%d" % i for i in range(1, n + 1)] + ["y%d" % i for i in range(1, n + 1)])
    xs = [R.variable(i) for i in range(n)]
    ys = [R.variable(n + i) for i in range(n)]
    J = Ideal(R, [xs[i] * ys[j] - xs[j] * ys[i] for i in range(n) for j in range(i + 1, n)])
    return CyclicModule(R, J), Ideal(R, xs + ys)


def minors_2xn_but_yn(n):
    """``minors_2xn`` with y_n left out of I, so that I != m and grade runs
    the chain of regular elements: J + I = I, so dim M/IM = 1 and the
    chain stops at the bound 2n - 2 (at I = m, ``_parameter_chain`` tests
    no regularity)."""
    M, I = minors_2xn(n)
    return M, Ideal(M.ring, I.generators[:-1])


def assert_fold_of_fresh_searches(M, I, seed, witness):
    """``witness`` is a fold of fresh searches: element x_k is
    ``find_regular_element(J_k, I, seed + k)`` run in a fresh engine
    context, J_k = J + <x_1, ..., x_{k-1}>, and so is the certificate at the
    step after the last.  At the bound, where the chain runs no search, that
    search finds no element and returns the saturation too."""
    J = M.defining_ideal
    for k, expected in enumerate(witness.sequence + (witness.certificate,)):
        with engine_context():
            found = find_regular_element(Ideal(M.ring, J.generators + witness.sequence[:k]), I, seed + k)
        assert found == expected, k


# the "no" families, read off the closed form: grade < dim M - dim M/mM
NO_FAMILIES = [f[:2] for f in FAMILIES if f[2] < f[3] - f[4]]


class TestSearchMemory:
    """Each step of the chain of regular elements depends on its ideal J_k,
    I, its seed and the budget alone: nothing crosses from one step to the
    next, so the chain is a fold of fresh searches."""

    def test_chain_below_m_is_a_fold_of_fresh_searches(self):
        M, I = minors_2xn_but_yn(4)
        w = grade(M, I, seed=10000)
        assert w.value == 4
        assert_fold_of_fresh_searches(M, I, 10000, w)

    def test_graded_suite_instances_are_folds_of_fresh_searches(self):
        # seeded suite instances, over QQ and GF(32003), with J and I's
        # reduced basis homogeneous and I not all the variables, so that
        # grade runs the chain of regular elements on a graded chain
        from icmlab.theorem_lab import SUITE_IDS, _SUITES

        grades = Counter()
        for suite_id in SUITE_IDS:
            for meta_seed in range(10):
                M, I, _ = _SUITES[suite_id](meta_seed)
                J, ring = M.defining_ideal, M.ring
                if ideal_sum(J, I).groebner_basis().is_unit_ideal:
                    continue
                if variable_prime(I) == MonomialPrime(ring, range(ring.nvars)):
                    continue
                if not all(g.is_homogeneous() for g in J.groebner_basis().basis + I.groebner_basis().basis):
                    continue
                w = grade(M, I, seed=meta_seed)
                assert_fold_of_fresh_searches(M, I, meta_seed, w)
                grades[ring.field.characteristic, w.value] += 1
        assert {p for p, _ in grades} == {0, 32003}
        assert {value for _, value in grades} == {0, 1, 2, 3}, grades

    @pytest.mark.parametrize("name, instance", NO_FAMILIES, ids=[f[0] for f in NO_FAMILIES])
    def test_no_families_are_folds_of_fresh_searches(self, name, instance):
        # the "no" families at I = m: the parameter route declines, and the
        # chain of regular elements answers; dim M/mM = 0 puts the bound at
        # dim M
        M, I = instance()
        bound = krull_dimension(M)
        with engine_context():
            w = invariants._regular_chain(M.defining_ideal, I, 10000, bound)
        assert w.value == 1 and w == grade(M, I, seed=10000)
        assert_fold_of_fresh_searches(M, I, 10000, w)

    def test_inhomogeneous_zero_divisor_can_become_regular(self):
        # a zero divisor at one step of a chain can be regular at the next,
        # so no step reuses an earlier step's failures: over QQ[t, s] with
        # J = (t^2 - t), t divides zero on R/J but is regular on R/(J + x)
        R = ring_qq("t", "s")
        t, s = R.variable(0), R.variable(1)
        J = Ideal(R, [t**2 - t])
        x = s * t - t + 1
        assert not is_nonzerodivisor(J, t)
        assert is_nonzerodivisor(J, x)
        assert is_nonzerodivisor(ideal_sum(J, Ideal(R, [x])), t)

    def test_inhomogeneous_grade_skips_nothing(self, monkeypatch):
        # each step searches afresh: every basis element of
        # I = (x, y, z^2 + z) divides zero on R/(x*y, x*z), the plane x = 0
        # with the line y = z = 0, and the second step of the chain tests
        # it again.  That step lies
        # below the bound dim M - dim M/IM = 2 - 0: the grade is 1, the
        # depth at the origin, where the line meets the plane
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x * y, x * z]))
        I = Ideal(R, [x, y, z**2 + z])
        assert (krull_dimension(M), height(ideal_sum(M.defining_ideal, I))) == (2, 3)
        searches = spy(monkeypatch, "find_regular_element")
        tested = spy(monkeypatch, "is_nonzerodivisor")
        w = grade(M, I, seed=1)
        assert w.value == 1
        assert len(searches) == 2
        for g in I.groebner_basis().basis:
            assert len([call for call in tested if call["f"] == g]) == 2, g

    def test_first_regular_draw_decides_no_existence(self, monkeypatch):
        # seed 1: both basis elements fail and the first random draw is
        # regular, so I is never saturated
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        I = Ideal(R, [x, y**2 + y])
        saturations = spy(monkeypatch, "saturate")
        tested = spy(monkeypatch, "is_nonzerodivisor")
        assert find_regular_element(M.defining_ideal, I, seed=1) == y**2 - x + y
        assert len(tested) == 3
        assert not [c for c in saturations if c["I"] is I]

    def test_budget_exhausted_without_element_returns_the_saturation_over_gf2(self, monkeypatch):
        # z kills (x, y) on R/(xz, yz), so I holds no regular element; a
        # budget of 1 or 2 ends inside the basis, and existence is decided
        # just before the search would give up: the search returns that
        # saturation, (z) with exponent 1, in place of an element
        R = RingDescriptor(FieldSpec(2), ("x", "y", "z"))
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x * z, y * z]))
        I = Ideal(R, [x, y])
        saturations = spy(monkeypatch, "saturate")
        tested = spy(monkeypatch, "is_nonzerodivisor")
        for budget in (1, 2):
            del saturations[:], tested[:]
            with engine_context(budget=budget):
                found = find_regular_element(M.defining_ideal, I, seed=0)
            assert found == SaturationResult(Ideal(R, [z]), 1)
            assert len(tested) == budget
            assert len([c for c in saturations if c["I"] is I]) == 1

    def test_budget_exhausted_with_element_still_raises_over_gf2(self):
        # over GF(2) the regular elements of (x, y) on R/(x^2*y + x*y^2)
        # lie above degree 1, out of reach of a budget of 2
        R = RingDescriptor(FieldSpec(2), ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x**2 * y + x * y**2]))
        with engine_context(budget=2), pytest.raises(SearchExhaustedError):
            find_regular_element(M.defining_ideal, Ideal(R, [x, y]), seed=0)

    @pytest.mark.parametrize("p", [0, 2])
    def test_principal_zero_divisor_stops_after_one_draw(self, monkeypatch, p):
        # every draw from I = (x) is 0, x or -x, and over GF(2) only 0 or x:
        # the search must decide existence at the first zero, repeated or
        # failed draw instead of spinning through 100 * budget attempts and
        # the degree climb
        R = RingDescriptor(FieldSpec(p), ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        I = Ideal(R, [x])
        saturations = spy(monkeypatch, "saturate")
        tested = spy(monkeypatch, "is_nonzerodivisor")
        climbs = spy(monkeypatch, "_degree_span")
        for seed in range(20):
            del saturations[:], tested[:]
            found = find_regular_element(M.defining_ideal, I, seed=seed)
            assert found == SaturationResult(Ideal(R, [y]), 1)
            assert len(tested) <= 2  # the basis element and at most one draw
            assert len([c for c in saturations if c["I"] is I]) == 1
        assert not climbs
        assert grade(M, I, seed=0).value == 0


class TestSearchStream:
    def test_candidates_pinned_on_a_homogeneous_basis(self):
        # I = (x, y^2): after the basis, whose failures do not decide
        # existence, come the dense phase's homogeneous draws, whose
        # failures do, where x is lifted to degree 2 by a variable power; at
        # seed 2 the fourth item is a zero draw and the fifth repeats x
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        basis = Ideal(R, [x, y**2]).groebner_basis().basis
        assert basis == (x, y**2)
        with engine_context(budget=4):
            stream = list(_candidates(basis, 2))
        assert stream == [(x, False), (y**2, False), (-x, True), (None, True), (None, True), (x * y - y**2, True)]
        assert len([c for c, _ in stream if c is not None]) == 4
        with engine_context(budget=1):
            assert list(_candidates(basis, 2)) == [(x, False)]

    def test_phase_boundaries_over_gf2(self):
        # I = (x, y) over GF(2) at budget 4: the basis y, x, which does not
        # decide existence; then the dense phase's cap of 50 * 4 draws, which
        # decide, and whose only new candidate is x + y, since every other
        # combination of x and y is 0, x or y; then the climb, whose first
        # draw, from the degree-2 span, is the fourth candidate and ends it
        R = RingDescriptor(FieldSpec(2), ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        basis = Ideal(R, [x, y]).groebner_basis().basis
        with engine_context(budget=4):
            stream = list(_candidates(basis, 0))
        assert len(stream) == 203
        assert stream[:6] == [(y, False), (x, False), (None, True), (None, True), (None, True), (x + y, True)]
        assert stream[2:202].count((None, True)) == 199
        assert stream[202] == (x * y + y**2, True)

    def test_inhomogeneous_pool_is_the_whole_basis(self):
        # I = (x, y^2 + y) is not homogeneous, so each dense draw combines
        # the basis as it is, with no target degree and no lift
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        basis = Ideal(R, [x, y**2 + y]).groebner_basis().basis
        with engine_context(budget=4):
            stream = list(_candidates(basis, 1))
        assert stream == [(x, False), (y**2 + y, False), (y**2 - x + y, True), (-x, True)]

    def test_dense_pools_read_each_basis_degree_once(self, monkeypatch):
        # a homogeneous basis of degrees 1, 2 and 3: each draw picks one of
        # them and lifts the lower elements to it; the degrees are read once
        # per call, not once per element and draw
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        basis = (x, y**2, z**3)
        reads = []
        real = Polynomial.total_degree
        monkeypatch.setattr(Polynomial, "total_degree", lambda p: reads.append(p) or real(p))
        dense = invariants._dense(basis, random.Random(0))
        pools = [next(dense) for _ in range(50)]
        assert len(reads) == len(basis)
        assert {len(pool) for pool in pools} == {1, 2, 3}
        assert all(len({sum(m) for p in pool for m, _ in p.terms}) == 1 for pool in pools)

    def test_grade_checks_the_pair_once_and_builds_no_module(self, monkeypatch):
        # every J_k lies inside J + I, so the checks of I and of J + I made
        # at the start of grade hold on every step; each is a unit test on
        # the reduced basis grade reads for its dimensions, and no membership
        # test of 1 runs
        from icmlab.ideal_engine import ReducedGB

        M, I = minors_2xn(4)
        one = M.ring.one()
        unit_tests = []
        real = ReducedGB.is_unit_ideal
        monkeypatch.setattr(ReducedGB, "is_unit_ideal", property(lambda G: unit_tests.append(G) or real.fget(G)))
        memberships = spy(monkeypatch, "membership")
        modules = spy(monkeypatch, "CyclicModule")
        w = grade(M, I, seed=10000)
        assert w.value == 5
        assert not modules
        assert not [call for call in memberships if call["f"] == one]
        assert len(unit_tests) == 2
        assert unit_tests == [I.groebner_basis(), ideal_sum(M.defining_ideal, I).groebner_basis()]


class TestSaturationMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The (J, I) generator pairs whose saturation builds its tagged
        input, one entry per build."""
        import icmlab.invariants as inv
        from icmlab import ideal_engine

        out, current = [], []
        saturation, eliminate = inv.saturate, ideal_engine._eliminate_tag

        def tracked(J, I):
            current.append((J.generators, I.generators))
            try:
                return saturation(J, I)
            finally:
                current.pop()

        def counted(*args):
            if current:
                out.append(current[-1])
            return eliminate(*args)

        monkeypatch.setattr(inv, "saturate", tracked)
        monkeypatch.setattr(ideal_engine, "_eliminate_tag", counted)
        return out

    def test_regularity_tests_build_no_tagged_input(self, monkeypatch):
        # is_nonzerodivisor decides by a completion that stops at its
        # witness and builds no saturation: inside an engine context, grade
        # on the 2x4 minors, with y4 left out of I, calls saturate once for
        # its one existence test and once for the certificate at the bound,
        # where no existence test runs, and each call makes one
        # _eliminate_tag call; the replay calls saturate once more and
        # reuses the certificate's build
        from icmlab import ideal_engine

        eliminations = []
        real = ideal_engine._eliminate_tag
        monkeypatch.setattr(
            ideal_engine, "_eliminate_tag", lambda *args: eliminations.append(args) or real(*args)
        )
        M, I = minors_2xn_but_yn(4)
        saturations = spy(monkeypatch, "saturate")
        tested = spy(monkeypatch, "is_nonzerodivisor")
        with engine_context():
            w = grade(M, I, seed=10000)
            assert w.value == 4 and len(tested) == 23
            assert len(saturations) == 2 and len(eliminations) == 2
            assert all(call["I"] is I for call in saturations)
            verify_grade_witness(M, I, w)
            assert len(tested) == 27 and len(saturations) == 3 and len(eliminations) == 2
        # x1 is regular on the minors; modulo them and x1, y1 * x2 = 0
        x1, x2, y1 = I.generators[0], I.generators[1], I.generators[4]
        J = ideal_sum(M.defining_ideal, Ideal(M.ring, [x1]))
        del eliminations[:]
        assert is_nonzerodivisor(M.defining_ideal, x1) and not is_nonzerodivisor(J, y1)
        assert membership(x2 * y1, J) and not membership(x2, J)
        assert not eliminations

    def test_grade_and_replay_build_each_pair_once(self, builds):
        # each pair grade saturates, for an existence test or for the
        # certificate at the bound, is built once however often saturate
        # is called on it; the replay of the witness then builds nothing
        M, I = minors_2xn_but_yn(3)
        with engine_context():
            w = grade(M, I, seed=10000)
            last = (M.defining_ideal.generators + w.sequence, I.generators)
            assert w.value == 3
            assert builds.count(last) == 1
            assert max(builds.count(pair) for pair in builds) == 1
            done = len(builds)
            verify_grade_witness(M, I, w)
            assert len(builds) == done


class TestGradeBound:
    """grade(I, M) <= dim M - dim M/IM, and the chain stops there."""

    def test_exponent_zero_at_the_bound_is_refused(self, monkeypatch):
        # a wrong dim M/IM of 1 puts the bound at 1 on R = QQ[x, y] with
        # I = (x, y), whose grade is 2: the sequence stops at one element,
        # and the certificate (J_1 : I^infinity) = J_1 shows it extends
        import icmlab.invariants as inv

        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0), R.variable(1)])
        real = inv._dimension
        monkeypatch.setattr(inv, "_dimension", lambda G: max(real(G), 1))
        message = r"^grade step 1: .* bound b = dim M - dim M/IM = 1, so a dimension is wrong$"
        with pytest.raises(EngineError, match=message):
            grade(M, I, seed=1)
        with pytest.raises(EngineError, match=message):
            icm_report(M, I, seed=1)
        monkeypatch.undo()
        assert grade(M, I, seed=1).value == 2

    def test_suite_instances_obey_the_bound(self):
        # every suite's instance generator, over QQ and GF(32003): the
        # inequality holds with the dimensions computed on their own, and a
        # chain stopped at the bound is one the search could not extend
        from icmlab.theorem_lab import SUITE_IDS, _SUITES

        at_bound, below = set(), 0
        for suite_id in SUITE_IDS:
            for meta_seed in range(30):
                M, I, _ = _SUITES[suite_id](meta_seed)
                J, R = M.defining_ideal, M.ring
                if membership(R.one(), ideal_sum(J, I)):
                    continue
                rep = icm_report(M, I, seed=meta_seed)
                dim_m = krull_dimension(M)
                dim_mod = krull_dimension(CyclicModule(R, ideal_sum(J, I)))
                assert (rep.dim_m, rep.dim_m_mod_im) == (dim_m, dim_mod)
                b = dim_m - dim_mod
                assert rep.grade.value <= b
                verify_grade_witness(M, I, rep.grade)
                if rep.grade.value < b:
                    below += 1
                    continue
                at_bound.add((suite_id, R.field.characteristic))
                J_b = replay_regular_sequence(J, I, rep.grade.sequence)
                assert find_regular_element(J_b, I, meta_seed + b) == saturate(J_b, I)
                assert saturate(J_b, I).exponent
        assert {suite for suite, _ in at_bound} == set(SUITE_IDS)
        assert {p for _, p in at_bound} == {0, 32003}
        assert below

    @pytest.mark.parametrize("p", [0, 32003])
    def test_rational_quartic_searches_below_the_bound(self, monkeypatch, p):
        # grade 1 < b = 2 - 0: the chain stops below the bound, so its last
        # step still searches and decides once that no element exists; that
        # saturation is the certificate, so the pair is saturated once
        R = RingDescriptor(FieldSpec(p), ("a", "b", "c", "d"))
        a, b, c, d = (R.variable(i) for i in range(4))
        J = Ideal(R, [b * c - a * d, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d])
        M, m = CyclicModule(R, J), Ideal(R, [a, b, c, d])
        searches = spy(monkeypatch, "find_regular_element")
        saturations = spy(monkeypatch, "saturate")
        rep = icm_report(M, m, seed=1)
        assert (rep.grade.value, rep.dim_m, rep.dim_m_mod_im) == (1, 2, 0)
        assert len(searches) == 2
        last = [call for call in saturations if call["J"] is searches[-1]["J"]]
        assert len(last) == 1
        assert saturate(last[0]["J"], m) == rep.grade.certificate and rep.grade.certificate.exponent

    @pytest.mark.parametrize("context", [False, True])
    def test_rational_quartic_builds_its_saturation_once(self, monkeypatch, context):
        # the existence test's saturation is the certificate, so grade builds
        # one tagged input with or without an engine context
        import icmlab.ideal_engine as engine

        R = ring_qq("a", "b", "c", "d")
        a, b, c, d = (R.variable(i) for i in range(4))
        J = Ideal(R, [b * c - a * d, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d])
        builds = []
        real = engine._eliminate_tag
        monkeypatch.setattr(engine, "_eliminate_tag", lambda *a: builds.append(a) or real(*a))
        with engine_context() if context else contextlib.nullcontext():
            w = grade(CyclicModule(R, J), Ideal(R, [a, b, c, d]), seed=1)
        assert w.value == 1 and w.certificate.exponent
        assert len(builds) == 1


# ---------------------------------------------------------------------------
# localization helpers


class TestLocalDimension:
    def test_prime_without_a_minimal_prime_is_refused(self):
        # R/<x> is zero at <y>: no minimal prime of J lies inside it
        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, [R.variable(0)]))
        with pytest.raises(EmptySupportError, match="does not contain any minimal prime"):
            local_dimension(M, MonomialPrime(R, (1,)))

    def test_frozen_example(self):
        R = ring_qq("x", "y", "z")
        J = monomial_ideal(R, [(1, 1, 0)])
        p = MonomialPrime.from_names(R, ["x", "y"])
        # inside p, the components <x> and <y> both survive; codim 1 in a
        # 2-variable local piece leaves one step of chain
        assert local_dimension(CyclicModule(R, J), p) == 1

    def test_matches_subset_oracle(self):
        rng = random.Random(107)
        checked = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            R = ring_qq(*["x%d" % i for i in range(n)])
            monos = random_monomials(rng, n, 2, rng.randint(1, 3))
            J = monomial_ideal(R, monos)
            mins = minimal_primes_monomial(J)
            # build a prime containing some minimal prime
            base = sorted(mins, key=lambda q: q.indices)[0]
            extra = [i for i in range(n) if i not in base.indices]
            rng.shuffle(extra)
            p_idx = tuple(sorted(base.indices + tuple(extra[: rng.randint(0, len(extra))])))
            if not p_idx:
                continue
            p = MonomialPrime(R, p_idx)
            got = local_dimension(CyclicModule(R, J), p)
            want = oracles.local_dimension_brute(n, monos, list(p_idx))
            assert got == want
            checked += 1
        assert checked >= 30
