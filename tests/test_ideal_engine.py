"""Groebner machinery: division, Buchberger, and the ideal calculus."""
import contextlib
import glob
import io
import os
import random
from collections import Counter
from unittest import mock
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, seed, settings, strategies as st

from icmlab import icm_checker, ideal_engine, invariants, theorem_lab
from icmlab.cli_app import IdealStmt, ParseError, RingStmt, execute, main, parse
from icmlab.errors import (
    EngineError,
    IncompatibleRingError,
    StepLimitExceededError,
    ZeroElementError,
)
from icmlab.ideal_engine import (
    Ideal,
    buchberger,
    _eliminate_tag,
    divide,
    engine_context,
    extend_ring,
    ideal_equal,
    ideal_intersect,
    ideal_quotient,
    ideal_quotient_ideal,
    ideal_sum,
    membership,
    normal_form,
    is_nonzerodivisor,
    saturate,
)
from icmlab.ring_core import (
    GREVLEX,
    LEX,
    FieldSpec,
    Polynomial,
    RingDescriptor,
    TermOrder,
    monomial_divides,
    remap_variables,
)

import oracles


QQ = FieldSpec(0)


def ring_qq(*names, order="grevlex"):
    return RingDescriptor(QQ, tuple(names), TermOrder(order))


def random_poly(rng, ring, max_terms=4, max_exp=2, low=-4, high=4):
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        c = rng.randint(low, high)
        acc[m] = acc.get(m, 0) + c
    return ring.polynomial(acc)


# ---------------------------------------------------------------------------
# division


class TestDivision:
    """The kernel ``_reduce`` computes remainders only; its remainder by any
    divisor list, taken in order, must be the field algorithm's term for
    term (``oracles.oracle_divide``).  ``divide`` is exact division by one
    polynomial."""

    def test_frozen_example(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        assert kernel_remainder(x**2 * y + y, [x**2 - 1]) == 2 * y
        assert divide(x**2 * y - y, x**2 - 1) == y
        assert divide(x**3 - y**3, x - y) == x**2 + x * y + y**2

    def test_division_identity_random(self):
        rng = random.Random(3)
        for R in division_rings():
            for _ in range(5):
                q, g = random_poly(rng, R, max_terms=5, max_exp=3), random_poly(rng, R)
                if g.is_zero:
                    continue
                assert divide(q * g, g) == q

    def test_non_multiple_rejected(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        # x^2 + y = (x + y)(x - y) + y^2 + y, and y^2 is no multiple of x
        with pytest.raises(EngineError, match=r"^x\^2 \+ y is not a multiple of x - y$"):
            divide(x**2 + y, x - y)
        with pytest.raises(EngineError):
            divide(x + 1, x**2)

    def test_zero_divisor_rejected(self):
        R = ring_qq("x")
        with pytest.raises(ZeroElementError):
            divide(R.variable(0), R.zero())

    def test_ring_check_accepts_equal_rings_and_names_a_mismatch(self):
        R, S = ring_qq("x", "y"), ring_qq("x", "y")
        assert R is not S  # equal descriptors, distinct objects
        assert divide(R.variable(0) * R.variable(1), S.variable(0)) == R.variable(1)
        T = ring_qq("x", "z")
        with pytest.raises(
            IncompatibleRingError,
            match=r"^operands live in different rings: QQ\[x, y\] grevlex vs QQ\[x, z\] grevlex$",
        ):
            divide(R.variable(0), T.variable(0))

    def test_matches_oracle_divide_term_for_term(self):
        rng = random.Random(41)
        non_unit = repeated = 0
        for R in division_rings():
            for _ in range(10):
                divisors = [random_poly(rng, R, low=-5, high=5) for _ in range(rng.randint(1, 4))]
                divisors = [d for d in divisors if not d.is_zero]
                if not divisors:
                    continue
                if rng.random() < 0.3:
                    divisors.insert(rng.randrange(len(divisors) + 1), rng.choice(divisors))
                    repeated += 1
                non_unit += any(d.leading_coefficient() != 1 for d in divisors)
                # a combination of the divisors plus noise, so that steps cancel
                f = random_poly(rng, R, max_terms=5, max_exp=3)
                for d in divisors:
                    f = f + random_poly(rng, R, max_terms=3) * d
                r = assert_same_remainder(f, divisors)
                # no remainder term is divisible by any divisor's leading term
                for mono, _ in r.terms:
                    for d in divisors:
                        assert not all(a <= b for a, b in zip(d.leading_monomial(), mono))
        assert non_unit >= 40 and repeated >= 10

    def test_negative_leading_coefficient_scales_every_remainder_term(self):
        # dividing by 1 - x first scales the work by -1, emits y^2, and
        # scales by -1 again: the scale is back at 1, and y^2 still needs
        # the factor -1 of its emission
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        assert kernel_remainder(x**2 + y**2 + x, [1 - x]) == y**2 + 2

    def test_recreated_monomial_is_divided_again(self):
        # f = x^2 + y + z over [x^2 + x + y, x - y]: the first step cancels y
        # and leaves -x; dividing -x by x - y re-creates y, so y enters the
        # work terms a second time, after its first copy was removed; z, the
        # smallest term, must still come out after both copies of y
        rng = random.Random(43)
        for R in division_rings():
            x, y, z = R.variable(0), R.variable(1), R.variable(2)
            for _ in range(3):
                s = R.monomial([rng.randint(0, 2) for _ in range(R.nvars)])
                a, b, c = (R.constant(rng.randint(1, 6)) for _ in range(3))
                if a.is_zero or b.is_zero or c.is_zero:
                    continue
                f = a * s * (x**2 + y + z)
                divisors = [b * s * (x**2 + x + y), c * s * (x - y)]
                assert assert_same_remainder(f, divisors) == a * s * (z - y)

    # One table shared by several kernel runs, divisors appended between
    # them, as in a completion.  A record is ``[packed monomial,
    # coefficient, n, step]``: n divisors known not to divide the monomial,
    # and the step of the first divisor that does, once found.

    def test_shared_table_matches_oracle_and_a_fresh_table(self):
        rng = random.Random(47)
        late = kept = 0
        for R in division_rings():
            divisors = []
            while len(divisors) < 4:
                d = random_poly(rng, R, low=-5, high=5)
                if not d.is_zero:
                    divisors.append(d)
            table, dividends = {}, []
            for k in range(1, len(divisors) + 1):
                # new dividends, and the earlier ones again: their monomials
                # are met with records made under fewer divisors
                for _ in range(3):
                    f = random_poly(rng, R, max_terms=5, max_exp=3)
                    for d in divisors[:k]:
                        f = f + random_poly(rng, R, max_terms=3) * d
                    dividends.append(f)
                steps = {m: rec[3] for m, rec in table.items() if rec[3] is not None}
                for f in dividends:
                    r = kernel_remainder(f, divisors[:k], table)
                    assert r.terms == oracles.oracle_divide(f, divisors[:k])[1].terms
                    assert r == kernel_remainder(f, divisors[:k])
                kept += sum(table[m][3] is step for m, step in steps.items())
                assert all(rec[1] is None for rec in table.values())  # no work left behind
            late += sum(rec[2] > 0 and rec[3] is not None for rec in table.values())
        # records passed over by some divisors and reduced by a later one,
        # and steps found again after divisors were appended
        assert late >= 50 and kept >= 500, (late, kept)

    def test_irreducible_monomial_is_reduced_by_an_appended_divisor(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        table, divisors = {}, [x**2 + y]
        assert kernel_remainder(x**2 + y**2, divisors, table) == y**2 - y
        pk = packing(R)
        y2 = table[pk.pack((0, 2))]
        assert (y2[2], y2[3]) == (1, None)  # passed over by the one divisor
        divisors.append(y**2 - 2 * x)
        assert assert_same_remainder(y**2 + x, divisors) == 3 * x
        assert kernel_remainder(y**2 + x, divisors, table) == 3 * x
        # the reducer's tail, each term as its offset from the leading monomial
        assert y2[3] is not None and y2[3][2] == ((pk.pack((1, 0)) - pk.pack((0, 2)), -2),)

    def test_reducer_is_kept_when_a_later_divisor_also_divides(self):
        # x*y - 1 reduces x*y first; x*y + y, appended later, has the same
        # leading monomial but is never used for it
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        table, divisors = {}, [x * y - 1]
        assert kernel_remainder(x * y + x, divisors, table) == x + 1
        xy = packing(R).pack((1, 1))
        step = table[xy][3]
        divisors.append(x * y + y)
        for f in (x * y + x, x**2 * y**2 + x * y):
            want = assert_same_remainder(f, divisors)
            assert kernel_remainder(f, divisors, table) == want
        assert table[xy][3] is step

    def test_shared_table_with_a_negative_leading_coefficient(self):
        # over QQ the divisor -2*x + y keeps lc -2 in kernel form, so every
        # step on a recorded monomial scales the work by a negative unit
        rng = random.Random(53)
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        divisors, table, dividends = [], {}, []
        for d in (-2 * x + y, 3 * y**2 - z, -5 * z**2 + x * y):
            divisors.append(d)
            for _ in range(4):
                f = random_poly(rng, R, max_terms=4, max_exp=2, low=-6, high=6)
                dividends.append(f + random_poly(rng, R, max_terms=3) * divisors[0])
            for f in dividends:
                want = assert_same_remainder(f, divisors)
                assert kernel_remainder(f, divisors, table) == want
        assert sum(rec[3] is not None and rec[3][0] == -2 for rec in table.values()) >= 10


def division_rings():
    """Every field and term order the division kernel distinguishes; at
    2^31 - 1, the widest prime field, the kernel's unreduced GF(p) sums
    leave machine words."""
    orders = [TermOrder("lex"), TermOrder("grevlex")]
    orders += [TermOrder("elimination-block", b) for b in (1, 2)]
    for p in (0, 2, 3, 32003, 2**31 - 1):
        for order in orders:
            yield RingDescriptor(FieldSpec(p), ("x", "y", "z", "w"), order)


def packing(ring, width=16):
    """The kernel's packing of ``ring``'s monomials, 16 bits a field: room
    for every degree the division tests reach."""
    return ideal_engine._packing(ring.order, ring.nvars, width)


def packed(pk, terms):
    """``terms`` with their monomials packed by ``pk``, each checked to fit."""
    out = [(pk.pack(m), c) for m, c in terms]
    assert all(sum(m) <= pk.top for m, _ in terms) and all(m & pk.guard == pk.ok for m, _ in out)
    return out


def kernel_divisors(divisors, pk):
    """``divisors`` as the kernel views them, packed by ``pk``."""
    p = divisors[0].ring.field.characteristic
    return [ideal_engine._divisor(packed(pk, ideal_engine._integral(d.terms, p)[0]), pk) for d in divisors]


def kernel_remainder(f, divisors, table=None):
    """The remainder of f by ``divisors``, tried in order, from one kernel
    run on packed integer terms as ``normal_form`` makes it: w * f =
    sum(q_i * d_i) + r over the integers, and the remainder is r / w.
    ``table`` is the kernel's table of monomial records, fresh when None."""
    if f.is_zero:
        return f
    ring = f.ring
    p = ring.field.characteristic
    pk = packing(ring)
    terms, v = ideal_engine._integral(f.terms, p)
    r, scale = ideal_engine._reduce(dict(packed(pk, terms)), kernel_divisors(divisors, pk), p, pk, table)
    w = v * scale
    return Polynomial(ring, tuple((pk.unpack(m), c * pow(w, -1, p) % p if p else Fraction(c, w)) for m, c in r))


def assert_same_remainder(f, divisors):
    r = kernel_remainder(f, divisors)
    assert r.terms == oracles.oracle_divide(f, divisors)[1].terms
    return r


def wide_ring(p, order="grevlex"):
    """A ring of 300 variables, each packed in a field of its own."""
    return RingDescriptor(FieldSpec(p), tuple("x%d" % i for i in range(300)), TermOrder(order))


ORDERS = (TermOrder("lex"), TermOrder("grevlex"), TermOrder("elimination-block", 1), TermOrder("elimination-block", 2))


class TestPacking:
    """Inside the kernel a monomial is one int, the entries of its
    ``descending_key`` in fields under guard bits (``_Packing``).  Int order
    must be the key's order, a product one add, the divisor and coprime
    tests exact, and an overflowing field must show in its guard bit, in
    every order, at every width, in rings of up to 300 variables."""

    @staticmethod
    def draw_packing(data):
        n = data.draw(st.sampled_from([1, 3, 4, 63, 64, 300]), label="nvars")
        order = data.draw(st.sampled_from([o for o in ORDERS if (o.block or 0) < n]), label="order")
        return ideal_engine._packing(order, n, data.draw(st.integers(2, 12), label="width")), n, order

    @staticmethod
    def draw_mono(data, n, most, label):
        # sparse exponent vectors of total degree at most ``most``, the zero
        # vector included, and now and then all of it in one variable
        if data.draw(st.booleans(), label=label + " is a power"):
            return tuple(most if k == n - 1 else 0 for k in range(n))
        exps = data.draw(st.lists(st.integers(0, n - 1), max_size=min(most, 12)), label=label)
        return tuple(exps.count(k) for k in range(n))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_order_product_and_tests_are_exact(self, data):
        pk, n, order = self.draw_packing(data)
        a = self.draw_mono(data, n, pk.top // 2, "a")
        b = self.draw_mono(data, n, pk.top // 2, "b")
        P, ab = pk.pack, tuple(map(add, a, b))
        assert pk.unpack(P(a)) == a and pk.unpack(P(ab)) == ab
        assert (P(a) < P(b)) == (order.descending_key(a) < order.descending_key(b))
        assert P(ab) == P(a) + P(b) - pk.one and P(ab) & pk.guard == pk.ok
        da, db = (ideal_engine._divisor(((P(m), 1),), pk) for m in (a, b))
        for m in (b, ab):
            assert (not (da[0] - pk.flip * P(m)) & pk.emask) == monomial_divides(a, m)
        # disjoint nonzero-field masks exactly for coprime monomials
        assert (not da[4] & db[4]) == (not any(map(min, a, b)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_an_overflowing_product_shows_in_its_guard_bits(self, data):
        pk, n, order = self.draw_packing(data)
        a = self.draw_mono(data, n, pk.top, "a")
        b = self.draw_mono(data, n, pk.top, "b")
        product, ab = pk.pack(a) + pk.pack(b) - pk.one, tuple(map(add, a, b))
        fits = max(map(abs, order.descending_key(ab))) <= pk.top
        assert (product & pk.guard == pk.ok) == fits
        if fits:
            assert product == pk.pack(ab)

    @seed(3217)
    @settings(max_examples=160, deadline=None)
    @given(st.data())
    def test_kernel_and_completion_match_the_oracles(self, data):
        # each field and order against oracles.py, the completion and the
        # normal form starting at any width from 1 bit a field, so that
        # many of them overflow and are redone wider
        p = data.draw(st.sampled_from([0, 2, 3, 32003]), label="p")
        order = data.draw(st.sampled_from(ORDERS), label="order")
        start = data.draw(st.integers(1, 6), label="starting width")
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
        rng = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
        gens = [g for g in (random_poly(rng, R, max_terms=3, low=-5, high=5) for _ in range(rng.randint(1, 3))) if g]
        f = random_poly(rng, R, max_terms=5, max_exp=4)
        if not gens:
            return
        assert assert_same_remainder(f, gens) == kernel_remainder(f, gens)
        with mock.patch.object(ideal_engine, "_width", lambda degree: start):
            gb = buchberger(gens)
            assert list(gb) == oracles.oracle_buchberger(gens)
            assert normal_form(f, gb) == oracles.oracle_divide(f, list(gb))[1]

    def test_remainders_match_oracle_in_a_ring_of_300_variables(self):
        rng = random.Random(59)
        hot = (0, 1, 61, 62, 63, 64, 150, 299)
        dividing = 0  # divisors whose leading monomial divides a term of the dividend
        for p in (0, 32003):
            for order in ("lex", "grevlex"):
                R = wide_ring(p, order)

                def poly(nterms, degree):
                    acc = {}
                    for _ in range(nterms):
                        e = [0] * R.nvars
                        for _ in range(rng.randint(0, degree)):
                            e[rng.choice(hot)] += 1
                        acc[tuple(e)] = acc.get(tuple(e), 0) + rng.randint(-4, 4)
                    return R.polynomial(acc)

                for _ in range(8):
                    divisors = [d for d in (poly(3, 3) for _ in range(3)) if not d.is_zero]
                    f = poly(4, 4)
                    for d in divisors:
                        f = f + poly(2, 2) * d
                    assert_same_remainder(f, divisors)
                    dividing += sum(
                        any(monomial_divides(d.leading_monomial(), m) for m, _ in f.terms)
                        for d in divisors
                        if sum(d.leading_monomial())
                    )
        assert dividing >= 20

    def test_pair_criteria_match_oracle_in_a_ring_of_300_variables(self):
        # every generator leads with a cubic in far variables, so leading
        # monomials meet only there: the coprime test must keep those pairs
        rng = random.Random(61)
        past = (63, 64, 150, 299)
        anywhere = (0, 1, 62) + past
        meeting = grown = 0
        for p in (0, 32003):
            R = wide_ring(p)

            def poly():
                head = [0] * R.nvars
                for _ in range(3):
                    head[rng.choice(past)] += 1
                acc = {tuple(head): rng.randint(1, 5)}
                for _ in range(rng.randint(1, 2)):
                    e = [0] * R.nvars
                    for _ in range(rng.randint(0, 2)):
                        e[rng.choice(anywhere)] += 1
                    acc[tuple(e)] = acc.get(tuple(e), 0) + rng.randint(-4, 4)
                return R.polynomial(acc)

            for _ in range(6):
                gens = [poly() for _ in range(3)]
                lms = [g.leading_monomial() for g in gens]
                meeting += sum(any(map(min, a, b)) for k, a in enumerate(lms) for b in lms[k + 1 :])
                gb = buchberger(gens)
                assert list(gb) == oracles.oracle_buchberger(gens), gens
                grown += len(gb) > len(gens)
        assert meeting >= 20 and grown >= 5, (meeting, grown)


# ---------------------------------------------------------------------------
# Buchberger


class TestBuchberger:
    def test_frozen_lex_example(self):
        R = ring_qq("x", "y", order="lex")
        x, y = R.variable(0), R.variable(1)
        gb = buchberger([x**2 - y, x**3 - x])
        assert [str(g) for g in gb] == ["y^2 - y", "x*y - x", "x^2 - y"]

    def test_principal_and_trivial_cases(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        assert [str(g) for g in buchberger([3 * x * y])] == ["x*y"]
        assert list(buchberger([], ring=R)) == []
        gb = buchberger([x, x + 1])
        assert gb.is_unit_ideal
        assert [str(g) for g in gb] == ["1"]

    def test_generators_are_checked(self):
        R, S = ring_qq("x", "y"), ring_qq("u", "v")
        with pytest.raises(ValueError, match="empty generator list"):
            buchberger([])
        # buchberger hands its generators to Ideal, the one check of them
        with pytest.raises(IncompatibleRingError, match="outside the ideal's ring"):
            buchberger([R.variable(0), S.variable(0)], ring=R)
        with pytest.raises(TypeError, match="must be Polynomials"):
            buchberger([R.variable(0), 1], ring=R)
        with pytest.raises(TypeError, match="must be Polynomials"):
            Ideal(R, [R.variable(0), 1])
        with pytest.raises(IncompatibleRingError, match="outside the ideal's ring"):
            Ideal(R, [S.variable(1)])

    def test_is_the_ideals_basis(self):
        # one memo entry per ideal: a zero generator is dropped by Ideal, so
        # buchberger with one reads the entry of the zero-free ideal
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        with engine_context():
            assert buchberger([x, R.zero(), y]) is Ideal(R, [x, y]).groebner_basis()

    def test_matches_oracle_on_random_ideals(self):
        rng = random.Random(17)
        checked = 0
        for fld in (QQ, FieldSpec(7)):
            for order in ("lex", "grevlex"):
                R = RingDescriptor(fld, ("x", "y", "z"), TermOrder(order))
                for _ in range(15):
                    gens = [
                        random_poly(rng, R, max_terms=3)
                        for _ in range(rng.randint(1, 3))
                    ]
                    gens = [g for g in gens if not g.is_zero]
                    if not gens:
                        continue
                    expect = oracles.oracle_buchberger(gens)
                    got = list(buchberger(gens))
                    assert got == expect
                    checked += 1
        assert checked >= 50

    def test_every_s_polynomial_reduces_to_zero(self):
        rng = random.Random(19)
        R = ring_qq("x", "y", "z")
        for _ in range(10):
            gens = [random_poly(rng, R, max_terms=3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            gb = buchberger(gens)
            basis = [oracles.OraclePoly.from_poly(g) for g in gb]
            key = oracles.oracle_key(R)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = oracles.oracle_s_polynomial(basis[i], basis[j], key).to_poly()
                    assert normal_form(s, gb).is_zero

    def test_reduced_basis_is_self_reduced_and_monic(self):
        rng = random.Random(21)
        R = ring_qq("x", "y")
        for _ in range(10):
            gens = [random_poly(rng, R, max_terms=3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            basis = list(buchberger(gens))
            for i, g in enumerate(basis):
                assert g.leading_coefficient() == R.field.one
                others = basis[:i] + basis[i + 1 :]
                for mono, _ in g.terms:
                    for h in others:
                        lm = h.leading_monomial()
                        assert not all(a <= b for a, b in zip(lm, mono))

    def test_determinism_under_generator_permutation(self):
        rng = random.Random(101)
        R = ring_qq("x", "y", "z")
        for _ in range(20):
            gens = [random_poly(rng, R, max_terms=3) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero]
            if len(gens) < 2:
                continue
            base = buchberger(gens)
            for _ in range(3):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert buchberger(shuffled) == base

    def test_scaling_generators_changes_nothing(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        a = buchberger([x**2 - y, x * y])
        b = buchberger([Fraction(7, 3) * (x**2 - y), -5 * x * y])
        assert a == b

    def test_order_override(self):
        # the ring's own order rules: the same generators on a lex ring
        R = ring_qq("x", "y", order="lex")
        x, y = R.variable(0), R.variable(1)
        gb = buchberger([x**2 - y, x**3 - x])
        assert [str(g) for g in gb] == ["y^2 - y", "x*y - x", "x^2 - y"]

    def test_step_limit_fires_loudly(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        gens = [x**2 + y * z, y**2 + x * z, z**2 + x * y]
        with engine_context(step_limit=1):
            with pytest.raises(StepLimitExceededError):
                buchberger(gens)

    def test_context_sets_the_step_limit(self):
        gens = heavy_gens()
        with engine_context(step_limit=1):
            with pytest.raises(StepLimitExceededError, match="exceeded 1 S-pair"):
                buchberger(gens)
        buchberger(gens)  # the context's limit ended with it
        # bool is an int, but True is no step limit of 1
        for bad in (0, -3, "5", True):
            with pytest.raises(ValueError, match="step limit"):
                with engine_context(step_limit=bad):
                    pass


def remap(g, ring):
    """``g`` with the same terms in ``ring``."""
    return ring.polynomial(dict(g.terms))


def minors_2xn(n, p=0, order="grevlex"):
    """The ring, the 2x2 minors J of a generic 2xn matrix, and the variables."""
    names = ["x%d" % i for i in range(1, n + 1)] + ["y%d" % i for i in range(1, n + 1)]
    ring = RingDescriptor(FieldSpec(p), tuple(names), TermOrder(order))
    v = [ring.variable(i) for i in range(2 * n)]
    J = Ideal(ring, [v[i] * v[n + j] - v[j] * v[n + i] for i in range(n) for j in range(i + 1, n)])
    return ring, J, v


def generic_element(gens, lift, y):
    """The generic element f_y = sum y^(i-1) * lift(g_i) of <g_1, ..., g_s>
    as a ``Polynomial``, by Horner's rule; for s = 1 it is lift(g_1)."""
    f = lift(gens[-1])
    for g in reversed(gens[:-1]):
        f = lift(g) + y * f
    return f


def tag_lift(ring):
    """``_tag_ring(ring)``, the inclusion of ``ring`` into it, and its tags
    t and y as polynomials."""
    aug = ideal_engine._tag_ring(ring)
    return aug, lambda g: remap_variables(g, aug, range(2, aug.nvars)), [aug.variable(0), aug.variable(1)]


def tagged_completions(J, I):
    """The Rabinowitsch basis of J + <1 - t*f_y> in k[t, y, ring] twice:
    plainly from J's generators, and seeded, from J's reduced grevlex basis
    settled plus 1 - t*f_y, the seed in kernel form as the engine lifts it."""
    aug, lift, (t, y) = tag_lift(J.ring)
    rab = 1 - t * generic_element(I.generators, lift, y)
    plain = buchberger([lift(h) for h in J.generators] + [rab], ring=aug)
    seeded = ideal_engine._complete(aug, [rab], (ideal_engine._seed(J), (0, 0)))
    return plain, seeded


def heavy_gens():
    """Three quadrics whose completion takes several S-pair reductions."""
    R = ring_qq("x", "y", "z")
    x, y, z = (R.variable(i) for i in range(3))
    return [x**2 + y * z, y**2 + x * z, z**2 + x * y]


class TestEngineMemo:
    @staticmethod
    def fresh_steps(gens):
        """The least step limit a fresh completion of ``gens`` passes."""
        limit = 1
        while True:
            try:
                with engine_context(step_limit=limit):
                    buchberger(gens)
                return limit
            except StepLimitExceededError:
                limit += 1

    def test_hit_returns_the_stored_basis(self):
        gens = heavy_gens()
        with engine_context():
            first = buchberger(gens)
            assert buchberger(list(gens)) is first
            # the ring, order included, is part of the key
            lex_ring = ring_qq("x", "y", "z", order="lex")
            lex = buchberger([remap(g, lex_ring) for g in gens])
            assert lex is not first
            assert buchberger([remap(g, lex_ring) for g in gens]) is lex
        assert first == buchberger(gens)

    def test_a_basis_hashes_its_polynomials_once(self, monkeypatch):
        # every calculus key holds two bases, so the memo hashes a basis on
        # every lookup; the first hash is kept, and a basis that is never a
        # key, as in a cold completion, is never hashed
        G = buchberger(heavy_gens())
        hashed = []
        real = Polynomial.__hash__
        monkeypatch.setattr(Polynomial, "__hash__", lambda p: hashed.append(p) or real(p))
        first = hash(G)
        assert len(hashed) == len(G.basis)
        assert hash(G) == first
        assert len(hashed) == len(G.basis)

    def test_the_kept_hash_is_that_of_ring_and_basis(self):
        G = buchberger(heavy_gens())
        assert hash(G) == hash((G.ring, G.basis))
        assert hash(G) == hash((G.ring, G.basis))

    def test_a_tag_ring_is_built_once_per_process(self):
        # a layout, not a result: no context stores it, and none builds its own
        R = ring_qq("x", "y")
        outside = ideal_engine._tag_ring(R)
        for _ in range(2):
            with engine_context():
                assert ideal_engine._tag_ring(R) is outside

    def test_the_memo_holds_results_only(self):
        J, I = TestSaturationMemo.pairs()[1]  # the tagged route, which builds a tag ring
        with engine_context():
            saturate(J, I)
            kinds = {key[0] for key in ideal_engine._ENGINE.get().memo if isinstance(key[0], str)}
        assert "saturate" in kinds and "tag ring" not in kinds

    def test_nothing_is_memoized_outside_a_context(self):
        gens = heavy_gens()
        a, b = buchberger(gens), buchberger(gens)
        assert a == b and a is not b

    def test_an_ideal_holds_its_ring_and_generators_only(self):
        # the memo is the one store of bases and routes: no basis, twin or
        # seed rides on an Ideal
        assert Ideal.__slots__ == ("ring", "generators")

    def test_hit_honours_the_context_limit(self):
        # a failed completion stores nothing, so a repeat fails the same way
        gens = heavy_gens()
        needed = self.fresh_steps(gens)
        assert needed > 2
        with engine_context(step_limit=needed - 1):
            for _ in range(2):
                with pytest.raises(StepLimitExceededError, match="exceeded %d " % (needed - 1)):
                    buchberger(gens)
        with engine_context(step_limit=needed):
            stored = buchberger(gens)
            assert buchberger(gens) is stored

    def test_key_is_the_ordered_generator_list(self):
        gens = heavy_gens()
        with engine_context():
            first = buchberger(gens)
            other = buchberger(gens[::-1])
            assert other == first and other is not first

    def test_nested_context_has_its_own_memo(self):
        gens = heavy_gens()
        with engine_context():
            outer = buchberger(gens)
            with engine_context():
                assert buchberger(gens) is not outer
            assert buchberger(gens) is outer

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("chain_first", [True, False])
    def test_chain_ideal_and_its_generators_share_one_entry(self, monkeypatch, order, chain_first):
        # the key is the ideal's ring and generators, not the route: J + <x>
        # completed from J's basis by ideal_sum and an Ideal with the same
        # generators cost one completion together, in either order, and
        # ideal_sum completes nothing when the plain basis was read first; in
        # a lex ring the shared basis is the grevlex twin's
        ring, J, v = minors_2xn(3, order=order)
        x = v[0] + v[4]
        plain = ideal_engine._grevlex_twin(Ideal(ring, J.generators + (x,)))
        completions = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: completions.append(a) or real(*a))

        def chain():
            return ideal_engine._grevlex_twin(ideal_sum(J, Ideal(ring, [x]))).groebner_basis()

        with engine_context():
            ideal_engine._grevlex_twin(J).groebner_basis()
            del completions[:]
            first, second = (chain, plain.groebner_basis) if chain_first else (plain.groebner_basis, chain)
            gb = first()
            assert second() is gb
        assert gb.ring.order.kind == "grevlex"
        # one completion: x with J's basis settled, or all the generators
        assert [(len(gens), bool(settled)) for _, gens, settled in completions] == [
            (1, True) if chain_first else (4, False)
        ]
        assert gb == buchberger(plain.generators)

    def test_cached_ideal_basis_honours_the_limit(self):
        # a basis read in one context is stored in that context's memo only:
        # under a later context's limit the Ideal completes again, and fails
        # exactly where a fresh completion does
        gens = heavy_gens()
        J = Ideal(gens[0].ring, gens)
        with engine_context():
            warm = J.groebner_basis()
            assert len(warm) == 6 and J.groebner_basis() is warm
        needed = self.fresh_steps(gens)
        for limit in range(1, needed + 2):
            with engine_context(step_limit=limit):
                if limit < needed:
                    with pytest.raises(StepLimitExceededError, match="exceeded %d S-pair" % limit):
                        J.groebner_basis()
                else:
                    gb = J.groebner_basis()
                    assert gb == warm and gb is not warm and J.groebner_basis() is gb

    def test_an_ideal_stores_no_basis(self, monkeypatch):
        # the memo is the one store: outside a context every read completes
        # again, inside one the first read completes and the second is a hit
        J = Ideal(heavy_gens()[0].ring, heavy_gens())
        completions = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: completions.append(a) or real(*a))
        assert J.groebner_basis() == J.groebner_basis()
        assert len(completions) == 2
        del completions[:]
        with engine_context():
            assert J.groebner_basis() is J.groebner_basis()
        assert len(completions) == 1


def cyclic(ring):
    """The cyclic-n system in the n variables of ``ring``."""
    xs = [ring.variable(i) for i in range(ring.nvars)]
    n = len(xs)
    out = []
    for k in range(1, n):
        s = ring.zero()
        for i in range(n):
            t = ring.one()
            for j in range(k):
                t = t * xs[(i + j) % n]
            s = s + t
        out.append(s)
    t = ring.one()
    for x in xs:
        t = t * x
    return out + [t - 1]


def katsura(ring):
    """The katsura-n system in the n + 1 variables u0..un of ``ring``."""
    n = ring.nvars - 1
    u = [ring.variable(i) for i in range(n + 1)] + [ring.zero()] * n

    def U(i):
        return u[abs(i)]

    out = [u[0] + sum((2 * u[i] for i in range(1, n + 1)), ring.zero()) - 1]
    for m in range(n):
        s = ring.zero()
        for k in range(-n, n + 1):
            s = s + U(k) * U(m - k)
        out.append(s - u[m])
    return out


def katsura_but_last(ring):
    """katsura-n without its last generator: positive-dimensional."""
    return katsura(ring)[:-1]


def katsura_but_first(ring):
    """katsura-n without its linear generator: positive-dimensional."""
    return katsura(ring)[1:]


def frozen_system(system, p, nvars, order="grevlex"):
    names = tuple("v%d" % i for i in range(nvars))
    return system(RingDescriptor(FieldSpec(p), names, TermOrder(order)))


class TestStepCounts:
    """S-pair reductions per completion, measured before division kept its
    work terms in a heap.  A change to the division kernel must not change
    which pairs get reduced, so these numbers must not move.  The lex basis
    of a zero-dimensional ideal is converted from its grevlex twin's and
    carries the twin's count (katsura in 4 and 5 variables: 8 and 26, as in
    the grevlex rows); a positive-dimensional one still completes in lex."""

    @pytest.mark.parametrize(
        "system, p, nvars, order, steps, size",
        [
            (cyclic, 0, 4, "grevlex", 8, 7),
            (katsura, 0, 4, "grevlex", 8, 7),
            (katsura, 32003, 4, "grevlex", 8, 7),
            (katsura, 0, 4, "lex", 8, 4),
            (katsura, 32003, 5, "grevlex", 26, 13),
            (cyclic, 32003, 5, "grevlex", 103, 20),
            (katsura, 32003, 5, "lex", 26, 5),
            (katsura_but_last, 0, 4, "lex", 4, 5),
            (katsura_but_first, 32003, 4, "lex", 25, 8),
        ],
    )
    def test_memo_stores_the_frozen_step_count(self, system, p, nvars, order, steps, size):
        gens = frozen_system(system, p, nvars, order)
        with engine_context():
            gb = buchberger(gens)
            assert (gb.steps, len(gb)) == (steps, size)
            assert buchberger(gens) is gb

    @pytest.mark.parametrize("test_ideal, plain_steps, seeded_steps", [((0,), 8, 0), ((0, 5), 16, 8)])
    def test_seeded_rabinowitsch_step_count(self, test_ideal, plain_steps, seeded_steps):
        # J = the 2x4 minors over QQ, I = (x1) and (x1, y2): the completion
        # seeded with J's reduced basis forms no pair inside it
        ring, J, v = minors_2xn(4)
        plain, seeded = tagged_completions(J, Ideal(ring, [v[i] for i in test_ideal]))
        assert seeded == plain
        assert (plain.steps, seeded.steps) == (plain_steps, seeded_steps)

    def test_step_count_in_a_ring_of_300_variables(self):
        # cyclic-5 on five far variables of a wide ring, whose packed
        # monomials hold 301 fields: the count is the 5-variable one
        at = (63, 64, 150, 298, 299)
        R = wide_ring(32003)
        gb = buchberger([remap_variables(g, R, at) for g in frozen_system(cyclic, 32003, 5)])
        assert (gb.steps, len(gb)) == (103, 20)

    def test_least_passing_step_limit(self):
        gens = frozen_system(cyclic, 32003, 5)
        with engine_context(step_limit=102):
            with pytest.raises(StepLimitExceededError, match="exceeded 102 S-pair"):
                buchberger(gens)
        with engine_context(step_limit=103):
            assert buchberger(gens).steps == 103

    @pytest.mark.parametrize("p, order", [(0, "lex"), (32003, "grevlex"), (3, "elimination-block")])
    def test_an_overflow_mid_completion_is_redone_wider(self, monkeypatch, p, order):
        # katsura-3 started at 2 bits a field outgrows them after some
        # reductions and is redone wider, with the same pairs in the same
        # order: the oracle's basis, and the step count of an unforced run
        order = TermOrder(order, 2) if order == "elimination-block" else TermOrder(order)
        gens = katsura(RingDescriptor(FieldSpec(p), tuple("v%d" % i for i in range(4)), order))
        plain = buchberger(gens)
        runs = []  # the width of each kernel run
        real = ideal_engine._reduce
        monkeypatch.setattr(ideal_engine, "_reduce", lambda *a: runs.append(a[3].width) or real(*a))
        monkeypatch.setattr(ideal_engine, "_width", lambda degree: 2)
        forced = buchberger(gens)
        # reductions at 2 bits, then an overflow (in a reduction or an lcm), then all again wider
        assert runs.count(2) >= 3 and runs[-1] > 2, runs
        assert list(forced) == oracles.oracle_buchberger(gens) and forced == plain
        assert forced.steps == plain.steps

    def test_least_passing_step_limit_over_qq(self):
        # the grevlex twin's completion is the one the step limit bounds
        gens = frozen_system(katsura, 0, 4, "lex")
        with engine_context(step_limit=7):
            with pytest.raises(StepLimitExceededError, match="exceeded 7 S-pair"):
                buchberger(gens)
        with engine_context(step_limit=8):
            assert buchberger(gens).steps == 8


class TestWorkCounts:
    """The engine's machine-independent work on one small pass: ``verify
    <suite> --json --seed 10000 --trials 16`` for every suite, then ``run
    --json --seed 10000`` on the golden 2x3 minors over QQ and 2x4 minors
    over GF(32003), counted by spies on ``_complete``, ``_grow`` (its pair
    loops, the S-pair reductions they report and the loops that stopped
    early) and ``_reduce`` (kernel runs).  A refactor that keeps the bytes
    keeps these too; a change that moves them re-pins them on purpose and
    lists old and new values in its change log, as ``TestStepCounts``."""

    def test_one_pass_does_the_pinned_work(self, monkeypatch):
        counts = Counter()

        def spy(name, record):
            real = getattr(ideal_engine, name)

            def counting(*args, **kwargs):
                out = real(*args, **kwargs)
                record(out)
                return out

            monkeypatch.setattr(ideal_engine, name, counting)

        spy("_complete", lambda out: counts.update(completions=1))
        spy("_grow", lambda out: counts.update(pair_loops=1, stopped=out is None, s_pairs=out or 0))
        spy("_reduce", lambda out: counts.update(kernel_runs=1))
        golden = os.path.join(os.path.dirname(__file__), "golden")
        argvs = [["verify", suite, "--json", "--seed", "10000", "--trials", "16"] for suite in theorem_lab.SUITE_IDS]
        argvs += [["run", os.path.join(golden, name), "--json", "--seed", "10000"] for name in ("minors_2x3_qq.icm", "minors_2x4_gf.icm")]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert dict(counts) == {
            "completions": 594,
            "pair_loops": 116,
            "stopped": 6,
            "s_pairs": 284,
            "kernel_runs": 764,
        }


class TestFglm:
    """Outside grevlex, the basis of a zero-dimensional ideal is converted
    from its grevlex twin's (``_fglm``) and never completed in the ring's
    own order: against the oracle's Buchberger in that order, over QQ and
    three prime fields, in lex and elimination orders, with a spy on the
    ring of each ``_complete``."""

    FIELDS = (0, 2, 3, 32003)
    ORDERS = (TermOrder("lex"), TermOrder("elimination-block", 1), TermOrder("elimination-block", 2))

    @pytest.fixture
    def rings(self, monkeypatch):
        """The ring of each ``_complete`` call."""
        out = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: out.append(a[0]) or real(*a))
        return out

    @staticmethod
    def zero_dimensional(rng, ring):
        """A pure power of each variable over terms of lower degree, so that
        it leads in grevlex; sometimes one random element more."""
        gens = []
        for i in range(ring.nvars):
            d = rng.randint(1, 3)
            acc = {tuple(d * (j == i) for j in range(ring.nvars)): 1}
            for _ in range(rng.randint(0, 3)):
                m = [0] * ring.nvars
                for _ in range(rng.randint(0, d - 1)):
                    m[rng.randrange(ring.nvars)] += 1
                acc[tuple(m)] = acc.get(tuple(m), 0) + rng.randint(-4, 4)
            gens.append(ring.polynomial(acc))
        if rng.random() < 0.5:
            gens.append(random_poly(rng, ring, max_terms=3))
        rng.shuffle(gens)
        return [g for g in gens if not g.is_zero]

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    @pytest.mark.parametrize("p", FIELDS)
    def test_seeded_bases_match_the_oracle(self, rings, p, order):
        rng = random.Random(4409 + 7 * p + len(str(order)) + (order.block or 0))
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
        for _ in range(8):
            gens = self.zero_dimensional(rng, R)
            del rings[:]
            gb = buchberger(gens)
            assert rings and all(ring.order.kind == GREVLEX for ring in rings)
            assert list(gb) == oracles.oracle_buchberger(gens), gens
            assert gb._divisors == tuple(kernel_divisors(list(gb), gb._packing))
            assert gb.steps == ideal_engine._seed(Ideal(R, gens)).steps

    @pytest.mark.parametrize("p", FIELDS)
    def test_the_unit_ideal_a_non_radical_ideal_and_a_point(self, rings, p):
        for order in self.ORDERS:
            R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
            x, y, z = (R.variable(i) for i in range(3))
            unit, fat, point = [x * y + 1, x, z, y], [x**2, y**3, z**2 - x * y], [x - 1, y + 3, z - x]
            for gens in (unit, fat, point):
                del rings[:]
                gb = buchberger(gens)
                assert rings and all(ring.order.kind == GREVLEX for ring in rings)
                assert list(gb) == oracles.oracle_buchberger(gens), gens
            assert [str(g) for g in buchberger(unit)] == ["1"]
            assert len(buchberger(point)) == 3

    @pytest.mark.parametrize("p", FIELDS)
    def test_positive_dimensional_bases_still_complete_in_the_ring(self, rings, p):
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder("lex"))
        x, y, z = (R.variable(i) for i in range(3))
        # the coordinate axes and the line x = y = z: the twin, then lex;
        # two generators in three variables: lex alone (Krull)
        for gens, kinds in (
            ([x * y, y * z, x * z], [GREVLEX, LEX]),
            ([x**2 - y * z, y**2 - x * z, z**2 - x * y], [GREVLEX, LEX]),
            ([x - y**2, x * z - 1], [LEX]),
        ):
            del rings[:]
            assert list(buchberger(gens)) == oracles.oracle_buchberger(gens)
            assert [ring.order.kind for ring in rings] == kinds

    def test_an_overflow_is_redone_wider(self, monkeypatch):
        # at 3 bits a field holds degree 7: the twin completes there, but
        # its pure powers x^2, y^3, z^4 bound dim R/J by 24, so the
        # conversion is redone at 6 bits
        R = RingDescriptor(FieldSpec(32003), ("x", "y", "z"), TermOrder("lex"))
        x, y, z = (R.variable(i) for i in range(3))
        gens = [x**2, y**3, z**2 - x * y]
        monkeypatch.setattr(ideal_engine, "_width", lambda degree: 3)
        with engine_context():
            twin = ideal_engine._seed(Ideal(R, gens))
            gb = buchberger(gens)
        assert (twin._packing.width, gb._packing.width) == (3, 6)
        assert list(gb) == oracles.oracle_buchberger(gens)
        assert gb._divisors == tuple(kernel_divisors(list(gb), gb._packing))


class TestOrderFreeFacts:
    """The facts that do not depend on the term order (the unit ideal,
    dimension, height, the grade chain's bases, equality, membership) are
    read off the grevlex basis in every ring, so a lex ring completes or
    converts a basis of its own only where its elements are printed or
    drawn from."""

    def test_a_lex_ring_completes_no_basis_of_its_own(self, monkeypatch):
        # the first five equations of icmbench's katsura(5), katsura-5
        # without its linear one, over GF(32003): a one-dimensional J whose
        # lex basis did not finish in a minute; the same answers as in
        # grevlex, with no _complete or _fglm in the lex ring but the one
        # conversion of I's basis, the search's candidates; no completion
        # here takes 70 steps, and a lex completion of J trips the limit
        names = tuple("u%d" % i for i in range(6))
        calls = []
        for name in ("_complete", "_fglm"):

            def spied(ring, *args, name=name, real=getattr(ideal_engine, name)):
                calls.append((name, ring))
                return real(ring, *args)

            monkeypatch.setattr(ideal_engine, name, spied)

        def answers(order):
            ring = RingDescriptor(FieldSpec(32003), names, TermOrder(order))
            u = [ring.variable(i) for i in range(6)]
            J, I = Ideal(ring, katsura_but_first(ring)), Ideal(ring, u)
            f = u[5] * J.generators[0] - u[1] * J.generators[3]
            with engine_context(step_limit=100):
                I.groebner_basis()
                candidates = [name for name, r in calls if r == ring]
                del calls[:]
                M = invariants.CyclicModule(ring, J)
                out = (
                    invariants.krull_dimension(M),
                    invariants.height(J),
                    icm_checker.icm_report(M, I, seed=10000).to_json(),
                    ideal_equal(J, Ideal(ring, J.generators[::-1])),
                    ideal_equal(J, I),
                    membership(f, J),
                    membership(f + u[5], J),
                )
            return out, candidates, [name for name, r in calls if r == ring]

        lex, lex_i, lex_rest = answers("lex")
        grevlex, _, _ = answers("grevlex")
        assert lex == grevlex
        assert lex[:2] == (1, 5) and lex[2]["is_icm"] and lex[3:] == (True, False, True, False)
        assert (lex_i, lex_rest) == (["_fglm"], [])

class TestFractionFree:
    """Over QQ the completion works on primitive integer polynomials and
    makes the basis monic only when it leaves; the oracle works on
    ``Fraction`` throughout.  The inputs carry denominators up to 10^6,
    numerators above 2^64, negative leading coefficients and content > 1."""

    @pytest.mark.parametrize("order", oracles.HARD_ORDERS, ids=str)
    def test_matches_oracle_on_hard_coefficients(self, order):
        rng = random.Random(4243 + len(str(order)) + (order.block or 0))
        R = RingDescriptor(QQ, ("x", "y", "z"), order)
        seen = Counter()
        for _ in range(20):
            # two generators: with three, some of these inputs swell to
            # coefficients of many thousand bits and take tens of seconds
            gens = [oracles.hard_rational_poly(rng, R) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            gb = buchberger(gens)
            assert list(gb) == oracles.oracle_buchberger(gens), gens
            for g in gens:
                seen.update(oracles.hard_traits(g))
            seen["proper ideal"] += not gb.is_unit_ideal
        assert len(seen) == 5, seen
        assert min(seen.values()) >= 3, seen


class TestNormalForm:
    """``normal_form`` divides by the basis as the completion keeps it
    (integer terms, primitive over QQ); the oracle divides by the monic
    basis with field arithmetic.  The remainders must agree term for term."""

    @pytest.mark.parametrize("order", oracles.HARD_ORDERS, ids=str)
    @pytest.mark.parametrize("p", (0, 2, 3, 32003, 2**31 - 1))
    def test_matches_oracle_divide_on_the_reduced_basis(self, p, order):
        rng = random.Random(4271 + 7 * p + len(str(order)) + (order.block or 0))
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
        seen = Counter()
        for _ in range(20):
            if p:
                gens = [random_poly(rng, R, max_terms=3) for _ in range(rng.randint(1, 3))]
            else:
                # non-integer coefficients, content > 1 and negative leading
                # coefficients; two generators keep the bases small
                gens = [oracles.hard_rational_poly(rng, R) for _ in range(2)]
                for g in gens:
                    seen.update(oracles.hard_traits(g))
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            gb = buchberger(gens)
            member = R.zero()
            for g in gens:
                member = member + random_poly(rng, R, max_terms=2) * g
            f = random_poly(rng, R, max_terms=5, max_exp=3) + member
            if not p:
                f = f * Fraction(rng.randint(1, 50), rng.randint(1, 50))
            reduced = oracles.oracle_divide(f, gb.basis)[1]
            for case in (R.zero(), member, f, reduced):
                want = oracles.oracle_divide(case, gb.basis)[1]
                assert normal_form(case, gb).terms == want.terms, (gens, case)
            assert normal_form(member, gb).is_zero
            assert normal_form(reduced, gb) == reduced
            seen["member"] += not member.is_zero
            seen["reduced"] += not reduced.is_zero
            seen["not reduced"] += reduced != f
        assert min(seen["member"], seen["reduced"], seen["not reduced"]) >= 4, seen
        if not p:
            assert {"denominator", "content > 1", "negative lead"} <= set(seen), seen

    @pytest.mark.parametrize("order", oracles.HARD_ORDERS, ids=str)
    @pytest.mark.parametrize("p", (0, 2, 32003))
    def test_basis_carries_its_kernel_view(self, p, order):
        # the divisor tuples the completion ended with are the ones the
        # kernel would build from the monic basis, element for element; a
        # principal ideal's one element skips autoreduction
        rng = random.Random(4283 + 7 * p + len(str(order)) + (order.block or 0))
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
        autoreduced = 0
        for _ in range(12):
            if p:
                gens = [random_poly(rng, R, max_terms=3) for _ in range(3)]
            else:
                gens = [oracles.hard_rational_poly(rng, R) for _ in range(2)]
            for gb in (buchberger(gens, ring=R), buchberger(gens[:1], ring=R)):
                pk = gb._packing
                want = tuple(kernel_divisors(list(gb), pk)) if len(gb) else ()
                assert gb._divisors == want, gens
                autoreduced += len(gb) > 1
        assert autoreduced >= 5


# ---------------------------------------------------------------------------
# membership


class TestSaturationByIdeal:
    """The one-basis generic-element saturation against the per-generator
    eliminations glued by the oracle's intersections (``oracles.oracle_saturate``)."""

    @staticmethod
    def random_pair(rng, ring):
        # 1-4 generators of I, inhomogeneous ones included; J holds multiples
        # of powers of them, so exponents >= 2 turn up
        gens = []
        k = rng.randint(1, 4)
        while len(gens) < k:
            g = random_poly(rng, ring, max_terms=2, max_exp=1)
            if g.terms and g.total_degree() > 0:
                gens.append(g)
        J = Ideal(
            ring,
            [
                random_poly(rng, ring, max_terms=2, max_exp=1) * rng.choice(gens) ** rng.randint(1, 2)
                for _ in range(rng.randint(1, 2))
            ],
        )
        return J, Ideal(ring, gens)

    def check(self, rng, ring, trials, seen):
        for _ in range(trials):
            J, I = self.random_pair(rng, ring)
            if J.is_zero_ideal or J.groebner_basis().is_unit_ideal:
                continue
            got = saturate(J, I)
            want, exponent = oracles.oracle_saturate(J, I)
            assert ideal_equal(got.ideal, want), (J, I)
            assert got.exponent == exponent, (J, I)
            if len(I.generators) == 1:
                assert is_nonzerodivisor(J, I.generators[0]) == (exponent == 0), (J, I)
            seen["exponent %d" % min(exponent, 2)] += 1
            seen["%d generators" % len(I.generators)] += 1
            seen["inhomogeneous"] += not all(g.is_homogeneous() for g in I.generators)

    def test_matches_intersection_formula(self):
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                ring = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                self.check(random.Random(1000 * p + len(order)), ring, 10, seen)
        assert len(seen) == 8, seen
        assert min(seen.values()) >= 8, seen

    @staticmethod
    def unreduced(rng, J):
        """J's generators with redundant ones mixed in: a duplicate, a scalar
        multiple, a sum and a multiple by a variable."""
        gens = list(J.generators)
        a, b = rng.choice(gens), rng.choice(gens)
        gens += [a, a * 3, a + b, b * J.ring.variable(rng.randrange(J.ring.nvars))]
        rng.shuffle(gens)
        return Ideal(J.ring, gens)

    def test_seeded_saturation_matches_oracle(self):
        # ``saturate`` against the oracle: the ideal and the exponent, with
        # J = 0, J by an unreduced generator list, and J as drawn; outside
        # and inside an engine context; and the seeded completion against
        # the plain one
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                ring = RingDescriptor(FieldSpec(p), ("u", "v", "w"), TermOrder(order))
                rng = random.Random(77 * p + len(order))
                for trial in range(9):
                    J, I = self.random_pair(rng, ring)
                    kind = ("J = 0", "unreduced J", "drawn J")[trial % 3]
                    if kind == "J = 0":
                        J = Ideal(ring, ())
                    elif kind == "unreduced J" and not J.is_zero_ideal:
                        J = self.unreduced(rng, J)
                    want, exponent = oracles.oracle_saturate(J, I)
                    for memoized in (False, True):
                        with engine_context() if memoized else contextlib.nullcontext():
                            got = saturate(J, I)
                            assert ideal_equal(got.ideal, want), (J, I)
                            assert got.exponent == exponent, (J, I)
                    plain, seeded = tagged_completions(J, I)
                    assert seeded == plain and seeded.steps <= plain.steps, (J, I)
                    seen[kind] += 1
                    seen["%s, %d generators" % (order, len(I.generators))] += 1
                    seen["GF(%d)" % p if p else "QQ"] += 1
                    seen["exponent %d" % min(exponent, 1)] += 1
        assert seen["J = 0"] == seen["drawn J"] == 24 and seen["unreduced J"] == 24, seen
        assert all(seen["%s, %d generators" % (o, k)] for o in ("lex", "grevlex") for k in (1, 2, 3, 4)), seen
        assert all(seen[f] == 18 for f in ("QQ", "GF(2)", "GF(3)", "GF(32003)")), seen
        assert seen["exponent 0"] >= 10 and seen["exponent 1"] >= 10, seen

    @pytest.mark.parametrize("p", [0, 32003])
    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_seeded_completion_on_minors(self, p, order):
        # J = the 2x4 minors: the same reduced basis in no more steps, for
        # I = (x1), (x1, y2) and all variables
        ring, J, v = minors_2xn(4, p, order)
        for I in (Ideal(ring, v[:1]), Ideal(ring, [v[0], v[5]]), Ideal(ring, v)):
            plain, seeded = tagged_completions(J, I)
            assert seeded == plain and seeded.steps <= plain.steps
            assert saturate(J, I).exponent == 0

    @pytest.mark.parametrize("p", [0, 2, 32003])
    def test_lex_ring_seeds_from_the_grevlex_twin(self, p):
        # J's lex basis {b^3 - bc, a - b^2} is no Groebner basis under the
        # grevlex tail block of the tagged order, where b^2 leads a - b^2;
        # settled as the seed, it gives wrong saturations for all three I
        R = RingDescriptor(FieldSpec(p), ("a", "b", "c"), TermOrder("lex"))
        a, b, c = (R.variable(i) for i in range(3))
        J = Ideal(R, [a - b**2, b**3 - c * b])
        for I in (Ideal(R, [b]), Ideal(R, [b, c]), Ideal(R, [c])):
            got = saturate(J, I)
            want, exponent = oracles.oracle_saturate(J, I)
            assert ideal_equal(got.ideal, want) and got.exponent == exponent, I

    def test_tag_names_avoid_ring_variables(self):
        seen = Counter()
        for p in (0, 2):
            ring = RingDescriptor(FieldSpec(p), ("t", "y", "t0", "y0"))
            self.check(random.Random(7 + p), ring, 4, seen)
        assert seen["exponent 0"] and seen["exponent 2"], seen
        assert sum(seen["%d generators" % k] for k in (2, 3, 4)) >= 3, seen


class TestRabinowitschInput:
    """``_rabinowitsch``, the tagged input 1 - t*f_y of ``saturate`` and
    ``is_nonzerodivisor`` in kernel form, and f_y in R[y], the input of the
    colon by an ideal, both read off the generators by ``_generic_terms``,
    against the ``Polynomial`` ones."""

    @staticmethod
    def generators(rng, ring, s):
        # coefficients with denominators 1, 3, 5 and 7, units in every field
        # tested, so that over QQ the lcm scaling shows
        gens = []
        while len(gens) < s:
            g = ring.polynomial(
                {
                    tuple(rng.randint(0, 2) for _ in range(ring.nvars)): Fraction(
                        rng.randint(-9, 9), rng.choice((1, 3, 5, 7))
                    )
                    for _ in range(rng.randint(1, 3))
                }
            )
            if g.terms and g.total_degree() > 0:
                gens.append(g)
        return gens

    @pytest.mark.parametrize("p", [0, 2, 32003, 2**31 - 1])
    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_matches_the_polynomial_one(self, p, order):
        ring = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
        rng = random.Random(p + len(order))
        scaled = 0
        for s in (1, 2, 3):
            for _ in range(4):
                gens = self.generators(rng, ring, s)
                aug, lift, (t, y) = tag_lift(ring)
                want = 1 - t * generic_element(gens, lift, y)
                got = ideal_engine._rabinowitsch(gens)
                assert sorted(got) == sorted(m for m, _ in want.terms), gens
                if s == 1:
                    assert all(m[1] == 0 for m in got), gens  # f_y = g_1 leaves y idle
                unit = got[(0,) * aug.nvars]  # the constant term of want is 1
                if p:
                    assert unit % p and all(got[m] % p == unit * c % p for m, c in want.terms), gens
                else:
                    assert type(unit) is int and unit > 0, gens
                    assert all(type(got[m]) is int and got[m] == unit * c for m, c in want.terms), gens
                    scaled += unit > 1
                # f_y in R[y], the colon's ring, where t stays idle
                fy = generic_element(gens, lift, y)
                assert sorted(ideal_engine._generic_terms(gens, (0,))) == sorted(fy.terms), gens
                # J = 0: the seed is empty, and the completion still seeded
                sat = saturate(Ideal(ring, ()), Ideal(ring, gens))
                assert sat.ideal.is_zero_ideal and sat.exponent == 0, gens
                if s == 1:
                    assert is_nonzerodivisor(Ideal(ring, ()), gens[0]), gens
        assert scaled or p, "no QQ input had a denominator"


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestSaturationExponent:
    """``saturate``'s exponent loop on kernel terms against the loop on
    ``Polynomial`` products it replaced (``oracles.oracle_saturation_exponent``),
    and its saturation against ``oracles.oracle_saturate``: on the ideals of
    the corpus scripts, in each declared ring and in its lex twin."""

    @staticmethod
    def corpus_rings():
        """(ring, ideals) per ring statement of the parsed corpus scripts,
        with the ideals declared after it, intersections included."""
        for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.icm"))):
            with open(path, encoding="utf-8") as handle:
                try:
                    script = parse(handle.read())
                except ParseError:
                    continue
            ring, named = None, {}
            for stmt in script.statements + (None,):
                if (stmt is None or isinstance(stmt, RingStmt)) and named:
                    yield ring, list(named.values())
                if isinstance(stmt, RingStmt):
                    ring, named = stmt.ring, {}
                elif isinstance(stmt, IdealStmt):
                    if stmt.generators is None:
                        a, b = stmt.intersect_of
                        named[stmt.name] = ideal_intersect(named[a], named[b])
                    else:
                        named[stmt.name] = Ideal(ring, stmt.generators)

    def test_matches_the_polynomial_loop_on_the_corpus(self):
        seen = Counter()
        for ring, ideals in self.corpus_rings():
            # and the ideal of all the variables, with s = nvars generators
            tests = [I for I in ideals if not I.is_zero_ideal]
            tests.append(Ideal(ring, [ring.variable(i) for i in range(ring.nvars)]))
            lex = RingDescriptor(ring.field, ring.variables, TermOrder("lex"))
            for target in (ring, lex):
                for J in ideals:
                    for I in tests:
                        J2, I2 = (Ideal(target, [remap(g, target) for g in K.generators]) for K in (J, I))
                        got = saturate(J2, I2)
                        want, exponent = oracles.oracle_saturate(J2, I2)
                        assert ideal_equal(got.ideal, want), (J2, I2)
                        assert got.exponent == exponent, (J2, I2)
                        assert oracles.oracle_saturation_exponent(J2, I2, got.ideal) == exponent, (J2, I2)
                        seen[target.order.kind] += 1
                        seen["s >= 2" if len(I2.generators) > 1 else "s = 1"] += 1
                        seen["exponent %d" % min(exponent, 2)] += 1
        assert seen["lex"] >= 150 and seen["grevlex"] >= 150, seen
        assert seen["s >= 2"] >= 150 and seen["s = 1"] >= 100, seen
        assert seen["exponent 0"] >= 100 and seen["exponent 1"] >= 100 and seen["exponent 2"], seen

    def test_lex_saturation_of_a_chain_ideal_completes_no_lex_basis(self, monkeypatch):
        # the exponent loop reduces against the grevlex seed that the
        # tagged completion starts from: whether a product lies in J does
        # not depend on the order, so J's lex basis is never needed
        R = RingDescriptor(QQ, ("x", "y", "z", "w"), TermOrder("lex"))
        x, y, z, w = (R.variable(i) for i in range(4))
        gens = [x**2 * z - x * y**2, y * x * w - y**2 * z, y * w - z**2]
        J = ideal_sum(ideal_sum(Ideal(R, gens[:1]), Ideal(R, gens[1:2])), Ideal(R, gens[2:]))
        I = Ideal(R, [x, y])
        rings = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda ring, *a: rings.append(ring) or real(ring, *a))
        with engine_context():
            got = saturate(J, I)
        assert rings and not [r for r in rings if r.order.kind == "lex"], rings
        want, exponent = oracles.oracle_saturate(Ideal(R, gens), I)
        assert ideal_equal(got.ideal, want) and got.exponent == exponent == 1


class TestSaturationMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the saturations built: one per ``_monomial_saturation``
        call on a monomial pair, one per ``_eliminate_tag`` call on any other."""
        count = [0]
        for name in ("_eliminate_tag", "_monomial_saturation"):

            def counting(*args, real=getattr(ideal_engine, name)):
                count[0] += 1
                return real(*args)

            monkeypatch.setattr(ideal_engine, name, counting)
        return count

    @staticmethod
    def pairs():
        """<xy, xz> by <y, z>, whose basis is terms (the monomial route),
        and by <y + z>, whose basis is not (the tagged route)."""
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J = Ideal(R, [x * y, x * z])
        return [(J, Ideal(R, [y, z])), (J, Ideal(R, [y + z]))]

    def test_nothing_is_memoized_outside_a_context(self, builds):
        for J, I in self.pairs():
            assert saturate(J, I).exponent == saturate(J, I).exponent == 1
        assert builds[0] == 4

    def test_one_build_per_pair_in_a_context(self, builds):
        for n, (J, I) in enumerate(self.pairs()):
            with engine_context():
                result = saturate(J, I)
                assert builds[0] == 2 * n + 1
                assert saturate(J, I) is result
                assert builds[0] == 2 * n + 1
                # the key is J's and I's bases, so another presentation is a hit
                assert saturate(Ideal(J.ring, J.generators[::-1]), I) is result
                assert builds[0] == 2 * n + 1
                with engine_context():
                    saturate(J, I)
                assert builds[0] == 2 * n + 2
            assert result.exponent == 1 and result.ideal == Ideal(J.ring, [J.ring.variable(0)])

    def test_seeded_and_plain_completions_keep_apart(self):
        # the plain tagged basis is stored under its ring and generators, as
        # any basis, so the second build is a memo hit; a direct _complete,
        # the seeded completion that _eliminate_tag runs, reads and stores nothing
        # (saturate's own entry stands for it)
        ring, J, v = minors_2xn(3)
        I = Ideal(ring, [v[0], v[4]])
        with engine_context():
            plain, seeded = tagged_completions(J, I)
            memo = dict(ideal_engine._ENGINE.get().memo)
            again_plain, again_seeded = tagged_completions(J, I)
            assert ideal_engine._ENGINE.get().memo == memo
        assert seeded == plain and seeded is not plain and seeded.steps < plain.steps
        assert again_plain is plain and any(gb is plain for gb in memo.values())
        assert again_seeded == seeded and again_seeded is not seeded


class TestCalculusMemo:
    """An intersection, a colon by f and a colon by an ideal are each
    completed once per engine context and pair of reduced bases."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the tagged completions, one per ``_eliminate_tag`` call."""
        count = [0]
        real = ideal_engine._eliminate_tag

        def counting(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(ideal_engine, "_eliminate_tag", counting)
        return count

    SCRIPT = (
        "ring R = QQ[x, y, z];\n"
        "ideal J = x*y, x*z;\n"
        "ideal I = y, z;\n"
        "ideal F = y;\n"
        "ideal K = intersect(J, I);\n"
        "intersect J I;\n"
        "intersect J I;\n"
        "colon J I;\n"
        "colon J I;\n"
        "colon J F;\n"
        "colon J F;\n"
    )

    def test_a_script_that_repeats_each_query(self, builds):
        # the declared intersection and the two queries share one
        # completion, a colon by I = <y, z> takes two (its colon by f_y and
        # the elimination of y) and a colon by F = <y> one
        with engine_context():
            text, code = execute(parse(self.SCRIPT))
        assert code == 0
        assert builds[0] == 1 + 2 + 1
        assert text.splitlines() == [
            "intersect(J, I) = [x*z, x*y]",
            "intersect(J, I) = [x*z, x*y]",
            "colon(J, I) = [x]",
            "colon(J, I) = [x]",
            "colon(J, F) = [x]",
            "colon(J, F) = [x]",
        ]

    def test_nothing_is_memoized_outside_a_context(self, builds):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J, I = Ideal(R, [x * y, x * z]), Ideal(R, [y, z])
        assert ideal_intersect(J, I) == ideal_intersect(J, I)
        assert ideal_quotient(J, y) == ideal_quotient(J, y)
        assert ideal_quotient_ideal(J, I) == ideal_quotient_ideal(J, I)
        assert builds[0] == 2 + 2 + 4

    def test_the_key_is_both_bases(self, builds):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J, I = Ideal(R, [x * y, x * z]), Ideal(R, [y, z])
        with engine_context():
            meet = ideal_intersect(J, I)
            assert ideal_intersect(Ideal(R, J.generators[::-1]), Ideal(R, I.generators[::-1])) is meet
            assert builds[0] == 1
            swapped = ideal_intersect(I, J)
            assert swapped == meet and swapped is not meet
            colon = ideal_quotient_ideal(J, I)
            assert ideal_quotient_ideal(J, Ideal(R, I.generators[::-1])) is colon
            assert ideal_quotient_ideal(J, Ideal(R, [y, z**2])) is not colon
            assert builds[0] == 2 + 2 + 2


class TestNonzerodivisor:
    """``is_nonzerodivisor``, the completion of J + <1 - t*f> stopped at its
    first t-free element, against the full saturation by f: ``saturate``
    and ``oracles.oracle_saturate``."""

    KINDS = ("drawn J", "J by powers of f", "f in J", "J = 0", "inhomogeneous J")

    @staticmethod
    def case(rng, ring, kind):
        f = ring.zero()
        while f.is_zero or f.total_degree() == 0:
            f = random_poly(rng, ring, max_terms=3, max_exp=2)
        gens = [random_poly(rng, ring, max_terms=2, max_exp=2) for _ in range(rng.randint(1, 2))]
        if kind == "J by powers of f":
            gens = [g * f ** rng.randint(1, 2) for g in gens]
        elif kind == "f in J":
            gens = [g for g in gens if not g.is_zero] or [ring.variable(0)]
            f = ring.zero()
            while f.is_zero:
                f = gens[0] * random_poly(rng, ring, max_terms=2, max_exp=1)
        elif kind == "J = 0":
            gens = []
        elif kind == "inhomogeneous J":
            gens = [g * (f + 1) for g in gens]
        return Ideal(ring, gens), f

    def test_matches_the_saturation(self):
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for names, order in (
                (("x", "y", "z"), TermOrder("lex")),
                (("x", "y", "z"), TermOrder("grevlex")),
                # a ring variable named t: the tag must take another name
                (("t", "u", "v"), TermOrder("elimination-block", 1)),
            ):
                ring = RingDescriptor(FieldSpec(p), names, order)
                rng = random.Random(31 * p + len(order.kind))
                for trial in range(15):
                    kind = self.KINDS[trial % len(self.KINDS)]
                    J, f = self.case(rng, ring, kind)
                    I = Ideal(ring, [f])
                    want = oracles.oracle_saturate(J, I)[1] == 0
                    assert is_nonzerodivisor(J, f) == want, (J, f)
                    assert (saturate(J, I).exponent == 0) == want, (J, f)
                    with engine_context():
                        assert is_nonzerodivisor(J, f) == is_nonzerodivisor(J, f) == want, (J, f)
                    seen[kind] += 1
                    seen["regular" if want else "zero divisor"] += 1
                    seen["%s, %s" % ("GF(%d)" % p if p else "QQ", order.kind)] += 1
                    seen["inhomogeneous"] += not all(g.is_homogeneous() for g in J.generators)
        assert seen["f in J"] == seen["J = 0"] == 36, seen
        assert min(seen[k] for k in self.KINDS) >= 30, seen
        assert len([k for k in seen if "," in k]) == 12, seen
        assert seen["regular"] >= 40 and seen["zero divisor"] >= 40, seen
        assert seen["inhomogeneous"] >= 60, seen

    @pytest.fixture
    def kernel_runs(self, monkeypatch):
        count = [0]
        real = ideal_engine._reduce

        def counting(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(ideal_engine, "_reduce", counting)
        return count

    def test_f_in_J_is_decided_at_the_generator(self, kernel_runs):
        # 1 - t*f reduces to 1 modulo J, which is t-free: one kernel run, no
        # pair, once J's basis is stored in the context; for J = R it
        # reduces to 0 and f is regular, as (R : f) = R
        ring, J, v = minors_2xn(4)
        f = J.generators[0] * (v[0] + v[5])
        unit = Ideal(ring, [ring.one()])
        with engine_context():
            J.groebner_basis()
            kernel_runs[0] = 0
            assert not is_nonzerodivisor(J, f)
            assert kernel_runs[0] == 1
            unit.groebner_basis()
            assert is_nonzerodivisor(unit, v[0]) and saturate(unit, Ideal(ring, v[:1])).exponent == 0

    def test_a_zero_divisor_stops_before_the_saturation_ends(self, kernel_runs):
        # the rational quartic has depth 1, so modulo it and a every
        # variable divides zero; the decision on d reduces far less than
        # the full saturation by d
        R = ring_qq("a", "b", "c", "d")
        a, b, c, d = (R.variable(i) for i in range(4))
        J = Ideal(R, [b * c - a * d, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d, a])
        with engine_context():
            J.groebner_basis()
            kernel_runs[0] = 0
            assert not is_nonzerodivisor(J, d)
            decided = kernel_runs[0]
            assert saturate(J, Ideal(R, [d])).exponent
        assert 0 < 3 * decided < kernel_runs[0] - decided

    def test_grevlex_twin_of_a_lex_ideal_is_completed_once(self, monkeypatch):
        # each test builds J's grevlex twin afresh, and the memo shares the
        # twin's basis: in one context four tests on the lex rational
        # quartic complete it once; outside a context, once per test
        R = ring_qq("a", "b", "c", "d", order="lex")
        a, b, c, d = (R.variable(i) for i in range(4))
        J = Ideal(R, [b * c - a * d, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d])
        twin = RingDescriptor(QQ, R.variables, TermOrder("grevlex"))
        rings = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda ring, *a: rings.append(ring) or real(ring, *a))
        for context, completions in ((True, 1), (False, 4)):
            del rings[:]
            with engine_context() if context else contextlib.nullcontext():
                answers = [is_nonzerodivisor(J, v) for v in (a, b, c, d)]
            assert answers == [True] * 4  # J is prime and holds no variable
            assert rings.count(twin) == completions

    def test_memo(self, monkeypatch):
        runs = []
        real = ideal_engine._grow
        monkeypatch.setattr(ideal_engine, "_grow", lambda *a, **k: runs.append(a) or real(*a, **k))
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        # J's basis is not monomial, so both J's basis and the decisions on
        # y (x*y in J) run the kernel's completion
        J = Ideal(R, [x * y, x * z + z**2])
        # nothing is stored outside a context: each test completes J's basis
        # and decides again
        assert not is_nonzerodivisor(J, y) and not is_nonzerodivisor(J, y)
        assert len(runs) == 4
        with engine_context():
            assert [str(g) for g in J.groebner_basis()] == ["x*z + z^2", "x*y", "y*z^2"]
            del runs[:]
            assert not is_nonzerodivisor(J, y) and not is_nonzerodivisor(J, y)
            assert len(runs) == 1
            # a stored saturation of the pair does not answer: the decision
            # has its own entry, made once
            assert saturate(J, Ideal(R, [x + y])).exponent == 0
            done = len(runs)
            assert is_nonzerodivisor(J, x + y) and is_nonzerodivisor(J, x + y)
            assert len(runs) == done + 1
        with pytest.raises(ZeroElementError):
            is_nonzerodivisor(J, R.zero())


def tagged_decision(J, f):
    """``is_nonzerodivisor``'s completion of J + <1 - t*f> from J's grevlex
    basis, run whatever J and f are."""
    p = J.ring.field.characteristic

    def decide(pk, works, settled):
        return ideal_engine._grow(pk, works, settled, [], p, stop=lambda lm: not lm[0]) is not None

    aug = ideal_engine._tag_ring(J.ring)
    return ideal_engine._packed(aug, [ideal_engine._rabinowitsch([f])], (ideal_engine._seed(J), (0, 0)), decide)


class TestMonomialIdeals:
    """Monomial generators skip the pair loop: their minimal ones, monic, are
    the reduced basis (``oracles.oracle_buchberger``, ``oracles.minimalize``),
    and a term f is regular modulo a monomial ideal J exactly when it shares
    no variable with J's basis, i.e. (J : f) = J (``oracles.colon_monomial``),
    as the tagged decision finds."""

    ORDERS = (TermOrder("lex"), TermOrder("grevlex"), TermOrder("elimination-block", 1))

    @staticmethod
    def coefficient(rng, p):
        return rng.randint(1, p - 1) if p else Fraction(rng.choice([-7, -1, 1, 2, 5]), rng.choice([1, 3]))

    @classmethod
    def monomials(cls, rng, ring, kind):
        """Monomial generators of ``kind`` with random nonzero coefficients,
        and their exponent vectors."""
        exps = [tuple(rng.randint(0, 3) for _ in range(ring.nvars)) for _ in range(rng.randint(1, 4))]
        if kind == "repeated":
            exps.insert(rng.randrange(len(exps) + 1), rng.choice(exps))
        elif kind == "dividing":
            # a multiple of one generator, before or after it
            m = tuple(e + rng.randint(0, 1) for e in rng.choice(exps))
            exps.insert(rng.randrange(len(exps) + 1), m)
        elif kind == "unit":
            exps.insert(rng.randrange(len(exps) + 1), (0,) * ring.nvars)
        elif kind == "zero":
            exps = []
        return [ring.monomial(m, cls.coefficient(rng, ring.field.characteristic)) for m in exps], exps

    @pytest.fixture
    def grown(self, monkeypatch):
        runs = []
        real = ideal_engine._grow
        monkeypatch.setattr(ideal_engine, "_grow", lambda *a, **k: runs.append(a) or real(*a, **k))
        return runs

    def test_completion_matches_the_oracles(self, grown):
        # every field and order, at starting widths from 1 bit a field, so
        # that many bases overflow and are packed again wider
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in self.ORDERS:
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
                rng = random.Random(97 * p + len(order.kind))
                for trial in range(12):
                    kind = ("drawn", "repeated", "dividing", "unit")[trial % 4]
                    gens, exps = self.monomials(rng, R, kind)
                    start = 1 + trial % 6
                    with mock.patch.object(ideal_engine, "_width", lambda degree: start):
                        gb = buchberger(gens)
                    assert list(gb) == oracles.oracle_buchberger(gens), gens
                    assert sorted(g.leading_monomial() for g in gb) == sorted(oracles.minimalize(exps))
                    assert gb.steps == 0 and gb.is_unit_ideal == ((0,) * 3 in exps)
                    assert gb.monomials == tuple(g.leading_monomial() for g in gb)
                    # the basis' kernel divisors divide as the field algorithm does
                    f = random_poly(rng, R, max_terms=5, max_exp=4)
                    assert normal_form(f, gb) == oracles.oracle_divide(f, list(gb))[1]
                    seen[kind] += len(exps) > len(gb)  # a generator dropped
                    seen["redone wider"] += gb._packing.width > start
        assert grown == []
        assert seen["repeated"] == seen["dividing"] == seen["unit"] == 36, seen
        assert seen["redone wider"] >= 36, seen

    def test_monomials_are_read_off_the_basis(self):
        # <x^2, x^2 + y^3, y^3> is <x^2, y^3>: its minimal generators,
        # ascending, whatever the presentation; a binomial ideal has none
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        assert buchberger([x**2, x**2 + y**3, y**3]).monomials == ((2, 0), (0, 3))
        assert buchberger([y**3, x**2 * 5]).monomials == ((2, 0), (0, 3))
        assert buchberger([], ring=R).monomials == ()
        assert buchberger([x**2 - y]).monomials is None

    def test_regularity_matches_the_tagged_decision_and_the_colon(self, grown):
        # f a term, a constant or not, with a coefficient that need not be
        # 1; J drawn, zero or the unit ideal; a lex J is read through its
        # grevlex twin, whose basis is monomial too
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in self.ORDERS:
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
                rng = random.Random(89 * p + len(order.kind))
                for trial in range(15):
                    kind = ("drawn", "dividing", "zero", "unit", "drawn")[trial % 5]
                    gens, exps = self.monomials(rng, R, kind)
                    J = Ideal(R, gens)
                    m = (0,) * 3 if trial % 3 == 0 else tuple(rng.randint(0, 2) for _ in range(3))
                    f = R.monomial(m, self.coefficient(rng, p))
                    want = oracles.equal_monomial_ideals(oracles.colon_monomial(exps, m), exps)
                    with engine_context():
                        del grown[:]
                        assert is_nonzerodivisor(J, f) == want, (J, f)
                        assert grown == []  # J's basis and the decision, with no completion
                        assert tagged_decision(J, f) == want, (J, f)
                    seen["regular" if want else "zero divisor"] += 1
                    seen["constant f"] += not any(m)
                    seen["coefficient not 1"] += f.terms[0][1] != 1
                    seen[kind] += 1
        assert seen["zero"] == seen["unit"] == 36, seen
        assert seen["regular"] >= 60 and seen["zero divisor"] >= 40, seen
        assert seen["constant f"] >= 40 and seen["coefficient not 1"] >= 60, seen

    def test_a_binomial_basis_takes_the_tagged_decision(self, grown):
        # a term modulo an ideal whose basis is not monomial runs the kernel
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J = Ideal(R, [x * y - z**2])
        assert is_nonzerodivisor(J, x) and not is_nonzerodivisor(Ideal(R, [x * y - z**2, x * z]), y)
        assert grown

    def test_step_limit(self):
        # a monomial basis, and a saturation of a monomial ideal by terms,
        # cost no step, so even a limit of 1 lets them through; a binomial
        # ideal, or a saturation by one, still trips the limit
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        with engine_context(step_limit=1):
            gb = buchberger([x**2, x * y, y**2])
            assert gb.steps == 0 and [str(g) for g in gb] == ["y^2", "x*y", "x^2"]
            with pytest.raises(StepLimitExceededError, match="exceeded 1 S-pair"):
                buchberger([x**2 - y, x * y])
            J = Ideal(R, [x**2 * y**3])
            sat = saturate(J, Ideal(R, [y]))
            assert [str(g) for g in sat.ideal.generators] == ["x^2"] and sat.exponent == 3
            with pytest.raises(StepLimitExceededError, match="exceeded 1 S-pair"):
                saturate(J, Ideal(R, [x + y]))

    @pytest.fixture
    def completions(self, monkeypatch, grown):
        """Per ``_complete`` call: whether its works and settled basis are
        all monomials, whether it was seeded, whether it ran ``_grow``, its
        steps, and whether it was packed wider than its settled basis."""
        out = []
        real = ideal_engine._complete

        def complete(ring, gens, settled):
            before = len(grown)
            gb = real(ring, gens, settled)
            sizes = [len(g) if isinstance(g, dict) else len(g.terms) for g in gens]
            sizes += [len(g.terms) for g in settled[0]] if settled else []
            wider = settled is not None and gb._packing.width > settled[0]._packing.width
            out.append((max(sizes, default=1) == 1, settled is not None, len(grown) > before, gb.steps, wider))
            return gb

        monkeypatch.setattr(ideal_engine, "_complete", complete)
        return out

    @staticmethod
    def assert_monomial_rule(completions):
        """Every completion whose inputs are all monomials ran no ``_grow``
        and reports 0 steps; returns the seeded ones as (count, redone wider)."""
        monomial = [c for c in completions if c[0]]
        assert all(not grew and steps == 0 for _, _, grew, steps, _ in monomial)
        seeded = [wider for _, seeded, _, _, wider in monomial if seeded]
        return len(seeded), sum(seeded)

    def test_extend_matches_the_oracle(self, grown, completions):
        # J + <x> for a monomial J and a term x, completed from J's basis
        # settled: its grevlex basis (its twin's in a lex ring) is the
        # oracle's, with no pair formed, also when x overflows the width J's
        # basis was packed at and the completion is redone wider
        for p in (0, 2, 32003):
            for order in (TermOrder("grevlex"), TermOrder("lex")):
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
                rng = random.Random(71 * p + len(order.kind))
                for trial in range(12):
                    gens, _ = self.monomials(rng, R, ("drawn", "repeated", "dividing", "unit")[trial % 4])
                    m = tuple(rng.randint(0, 2 + 6 * (trial % 2)) for _ in range(3))
                    x = R.monomial(m, self.coefficient(rng, p))
                    start = 1 + trial % 3
                    with engine_context(), mock.patch.object(ideal_engine, "_width", lambda degree: start):
                        K = ideal_sum(Ideal(R, gens), Ideal(R, [x]))
                        twin = ideal_engine._grevlex_twin(K)
                        assert list(twin.groebner_basis()) == oracles.oracle_buchberger(twin.generators), K
                        assert list(K.groebner_basis()) == oracles.oracle_buchberger(K.generators), K
        assert grown == []
        seeded, wider = self.assert_monomial_rule(completions)
        assert seeded == 72 and wider >= 12, (seeded, wider)

    def test_colon_by_an_ideal_matches_the_oracle(self, grown, completions):
        # (J : I) for monomial J and I with s >= 2 generators, from starting
        # widths of 1 to 3 bits a field: where the colon by f_y in R[y] is
        # monomial, the elimination of y from J's monomial basis settled
        # forms no pair
        for p in (0, 2, 32003):
            for order in (TermOrder("grevlex"), TermOrder("lex")):
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
                rng = random.Random(67 * p + len(order.kind))
                for trial in range(12):
                    gens, exps = self.monomials(rng, R, ("drawn", "repeated", "dividing")[trial % 3])
                    others = []
                    while len(others) < 2:
                        others, oexps = self.monomials(rng, R, "drawn")
                    start = 1 + trial % 3
                    with engine_context(), mock.patch.object(ideal_engine, "_width", lambda degree: start):
                        basis = ideal_quotient_ideal(Ideal(R, gens), Ideal(R, others)).groebner_basis()
                    want = oracles.minimalize(oracles.colon_ideal_monomial(exps, oexps))
                    assert all(len(g.terms) == 1 for g in basis), (gens, others)
                    assert sorted(g.leading_monomial() for g in basis) == sorted(want), (gens, others)
        # the colon divides J's generators, so its elimination stays at the
        # width of J's basis
        seeded, _ = self.assert_monomial_rule(completions)
        assert seeded >= 36, seeded

    def test_extend_of_a_monomial_basis_forms_no_pair(self, grown):
        # <x^2, x*y> + <y^2> through ideal_sum reports the steps buchberger on
        # the same generators reports, 0, and runs no _grow
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        with engine_context(step_limit=1):
            K = ideal_sum(Ideal(R, [x**2, x * y]), Ideal(R, [y**2]))
            gb = K.groebner_basis()
        assert gb.steps == buchberger(K.generators).steps == 0
        assert [str(g) for g in gb] == ["y^2", "x*y", "x^2"] and grown == []

    def test_saturation_matches_the_oracles(self, monkeypatch):
        # (J : I^infinity) and its exponent for a monomial J and terms I,
        # read off the exponents: against the colon chain on exponents
        # (``oracles.saturate_monomial``), the per-generator tagged route
        # (``oracles.oracle_saturate``) and the engine's one tagged
        # elimination, generator terms in order; with J = 0, J by a
        # non-monomial presentation and I holding a constant; no monomial
        # pair reaches ``_eliminate_tag``
        tagged = []
        monkeypatch.setattr(ideal_engine, "_eliminate_tag", lambda *a: tagged.append(a) or _eliminate_tag(*a))
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                x, y = R.variable(0), R.variable(1)
                rng = random.Random(53 * p + len(order))
                cases = [("presented", [x**2, x**2 + y**3, y**3], [(2, 0, 0), (0, 3, 0)])]
                for trial in range(16):
                    kind = ("drawn", "zero", "presented", "constant in I")[trial % 4]
                    gens, exps = self.monomials(rng, R, "zero" if kind == "zero" else "drawn")
                    if kind == "presented":
                        gens.insert(rng.randrange(len(gens) + 1), gens[0] + gens[-1] * x)  # a binomial in J
                    cases.append((kind, gens, exps))
                for n, (kind, gens, exps) in enumerate(cases):
                    others, oexps = self.monomials(rng, R, "unit" if kind == "constant in I" else "drawn")
                    J, I = Ideal(R, gens), Ideal(R, others)
                    with engine_context() if n % 2 else contextlib.nullcontext():
                        got = saturate(J, I)
                    assert tagged == [], (J, I)
                    rule, steps = oracles.saturate_monomial(exps, oexps)
                    assert all(g.terms[0][1] == 1 for g in got.ideal.generators), (J, I)
                    assert sorted(g.terms[0][0] for g in got.ideal.generators) == sorted(rule), (J, I)
                    assert got.exponent == steps, (J, I)
                    want, exponent = oracles.oracle_saturate(J, I)
                    assert ideal_equal(got.ideal, want) and got.exponent == exponent, (J, I)
                    seed = ideal_engine._seed(J)
                    sat = _eliminate_tag(R, [ideal_engine._rabinowitsch(others)], (seed, (0, 0)))
                    assert _terms(got.ideal) == _terms(sat), (J, I)
                    del tagged[:]
                    seen[kind] += 1
                    seen["exponent %s" % ("0" if not steps else ">= 2" if steps > 1 else "1")] += 1
                    seen["GF(%d)" % p if p else "QQ"] += 1
        assert seen["zero"] == seen["constant in I"] == 32 and seen["presented"] == 40, seen
        assert all(seen[f] == 34 for f in ("QQ", "GF(2)", "GF(3)", "GF(32003)")), seen
        assert seen["exponent 0"] >= 60 and seen["exponent >= 2"] >= 15, seen

    def test_a_monomial_basis_of_i_written_with_a_sum(self, monkeypatch):
        # <x, x + y> is <x, y>: the route reads I's basis, not its
        # generators, so the pair is read off the exponents, with no tag
        calls = Counter()
        for name in ("_eliminate_tag", "_monomial_saturation"):

            def counted(*args, name=name, real=getattr(ideal_engine, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ideal_engine, name, counted)
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        J, I = Ideal(R, [x**2 * y, x * z**3]), Ideal(R, [x, x + y])
        with engine_context():
            got = saturate(J, I)
        assert calls == {"_monomial_saturation": 1}
        rule, steps = oracles.saturate_monomial([(2, 1, 0), (1, 0, 3)], [(1, 0, 0), (0, 1, 0)])
        assert sorted(g.terms[0][0] for g in got.ideal.generators) == sorted(rule)
        assert got.exponent == steps
        want, exponent = oracles.oracle_saturate(J, I)
        assert ideal_equal(got.ideal, want) and got.exponent == exponent

    def test_saturation_bytes_in_a_lex_ring(self):
        # recorded from the tagged route before monomial pairs left it: the
        # printed basis and the generators, ascending in grevlex, in a lex
        # ring over GF(2), with exponent 2
        script = parse(
            "ring R = GF(2)[x,y,z] order lex;\n"
            "ideal J = x^3*y, x*y^2*z, y^3*z^2, x^2*z^3;\n"
            "ideal K = y, z^2;\n"
            "sat J K;\n"
        )
        assert execute(script, seed=0) == ("sat(J, K) = [y^3*z^2, x*y^2*z, x^2*z, x^3], exponent = 2\n", 0)
        ring_stmt, J, K = script.statements[:3]
        got = saturate(Ideal(ring_stmt.ring, J.generators), Ideal(ring_stmt.ring, K.generators))
        assert _terms(got.ideal) == [
            (((2, 0, 1), 1),),
            (((3, 0, 0), 1),),
            (((1, 2, 1), 1),),
            (((0, 3, 2), 1),),
        ]
        assert got.exponent == 2


class TestExtend:
    """``ideal_sum(J, <x>)``, the next ideal of a grade chain: J + <x> with its
    bases completed from J's, settled."""

    ORDERS = (TermOrder("grevlex"), TermOrder("lex"), TermOrder("elimination-block", 1))

    @staticmethod
    def element(rng, ring, homogeneous):
        """A nonconstant element; its top-degree part when ``homogeneous``."""
        f = ring.zero()
        while f.is_zero or f.total_degree() < 1:
            f = random_poly(rng, ring, max_terms=3, max_exp=2)
        if homogeneous:
            d = f.total_degree()
            f = ring.polynomial({m: c for m, c in f.terms if sum(m) == d})
        return f

    def test_matches_the_completion_from_the_generators(self):
        # a chain of two steps, with homogeneous and inhomogeneous x, against
        # buchberger on J's generators and then x; in a lex or elimination
        # ring the seeded basis is its grevlex twin's
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in self.ORDERS:
                ring = RingDescriptor(FieldSpec(p), ("x", "y", "z"), order)
                twin = RingDescriptor(FieldSpec(p), ring.variables, TermOrder("grevlex"))
                rng = random.Random(53 * p + len(order.kind))
                for trial in range(6):
                    J = Ideal(ring, [self.element(rng, ring, True) for _ in range(rng.randint(1, 2))])
                    for step in range(2):
                        homogeneous = (trial + step) % 2 == 0
                        x = self.element(rng, ring, homogeneous)
                        with engine_context() if trial % 3 == 0 else contextlib.nullcontext():
                            K = ideal_sum(J, Ideal(ring, [x]))
                        assert K.generators == J.generators + (x,)
                        assert K.groebner_basis() == buchberger(K.generators, ring=ring), (J, x)
                        grevlex = ideal_engine._grevlex_twin(K).groebner_basis()
                        gens = [remap_variables(g, twin, range(3)) for g in K.generators]
                        assert grevlex == buchberger(gens, ring=twin), (J, x)
                        seen["homogeneous x" if homogeneous else "inhomogeneous x"] += 1
                        seen["GF(%d)" % p if p else "QQ"] += 1
                        seen[order.kind] += 1
                        seen["unit ideal"] += K.groebner_basis().is_unit_ideal
                        J = K
        assert seen["homogeneous x"] == seen["inhomogeneous x"] == 72, seen
        assert all(seen[f] == 36 for f in ("QQ", "GF(2)", "GF(3)", "GF(32003)")), seen
        assert all(seen[o.kind] == 48 for o in self.ORDERS), seen
        assert 0 < seen["unit ideal"] < 72, seen

    def test_extend_completes_the_grevlex_basis_once(self, monkeypatch):
        # ideal_sum completes x with its predecessor's grevlex basis settled,
        # once: reading the chain ideal's grevlex basis (its twin's in a lex
        # or elimination ring) completes nothing more, and a non-grevlex
        # ring's own basis comes from its generators, as for any ideal
        calls = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: calls.append(a) or real(*a))
        for order in self.ORDERS:
            ring = RingDescriptor(QQ, ("x", "y", "z"), order)
            x, y, z = (ring.variable(i) for i in range(3))
            J = Ideal(ring, [x * y - z**2])
            with engine_context():
                J.groebner_basis()
                ideal_engine._grevlex_twin(J).groebner_basis()
                del calls[:]
                K = ideal_sum(ideal_sum(J, Ideal(ring, [y**2 - x * z])), Ideal(ring, [z**3]))
                twin = ideal_engine._grevlex_twin(K)
                grevlex = twin.ring
                assert grevlex.order.kind == "grevlex"
                assert [(r, [g.terms for g in gens], bool(settled)) for r, gens, settled in calls] == [
                    (grevlex, [remap_variables(y**2 - x * z, grevlex, range(3)).terms], True),
                    (grevlex, [remap_variables(z**3, grevlex, range(3)).terms], True),
                ]
                del calls[:]
                twin.groebner_basis()
                assert not calls
                K.groebner_basis()
                assert [bool(settled) for _, _, settled in calls] == ([] if twin is K else [False])

    def test_extend_completes_nothing_outside_a_context(self, monkeypatch):
        # outside a context _memoized stores nothing, so a chain completion
        # there would be thrown away: two ideal_sum calls complete nothing, and
        # a read of the chain ideal's basis completes it from its generators;
        # inside a context J's basis and each chain step complete once
        calls = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: calls.append(a) or real(*a))
        for order in self.ORDERS:
            ring = RingDescriptor(QQ, ("x", "y", "z"), order)
            x, y, z = (ring.variable(i) for i in range(3))
            J = Ideal(ring, [x * y - z**2])
            del calls[:]
            K = ideal_sum(ideal_sum(J, Ideal(ring, [y**2 - x * z])), Ideal(ring, [z**3]))
            assert calls == []
            gb = K.groebner_basis()
            # outside grevlex the twin's basis is read first; K is
            # positive-dimensional, so the ring then completes in its own order
            want = [GREVLEX] + ([] if order.kind == GREVLEX else [order.kind])
            assert [(ring.order.kind, bool(settled)) for ring, _, settled in calls] == [(k, False) for k in want]
            del calls[:]
            with engine_context():
                K = ideal_sum(ideal_sum(J, Ideal(ring, [y**2 - x * z])), Ideal(ring, [z**3]))
                assert [bool(settled) for _, _, settled in calls] == [False, True, True]
                assert ideal_engine._grevlex_twin(K).groebner_basis() == ideal_engine._grevlex_twin(Ideal(ring, gb.basis)).groebner_basis()

    def test_a_sum_is_one_completion_from_the_first_summand(self, monkeypatch):
        # ideal_sum is the one builder of a sum: in a context it runs one
        # completion, of K's generators (its twin's outside grevlex) with
        # J's grevlex basis settled, and stores the basis the twin reads;
        # outside a context it runs none
        calls = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: calls.append(a) or real(*a))
        for order in self.ORDERS:
            ring = RingDescriptor(QQ, ("x", "y", "z"), order)
            x, y, z = (ring.variable(i) for i in range(3))
            J, K = Ideal(ring, [x * y - z**2]), Ideal(ring, [y**2 - x * z, x**3 - y * z])
            del calls[:]
            S = ideal_sum(J, K)
            assert calls == [] and S.generators == J.generators + K.generators
            with engine_context():
                seed = ideal_engine._seed(J)
                del calls[:]
                S = ideal_sum(J, K)
                twin = ideal_engine._grevlex_twin(S)
                assert [(r, gens, settled[0] is seed) for r, gens, settled in calls] == [
                    (twin.ring, twin.generators[1:], True)
                ]
                gb = ideal_engine._seed(S)
                assert len(calls) == 1
            assert gb == buchberger(twin.generators)

    def test_the_seed_of_a_chain_ideal_is_stored(self, monkeypatch):
        # the tagged completions from a chain ideal start from the basis
        # ideal_sum stored, also in a lex or elimination ring, where it is
        # the grevlex twin's
        calls = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: calls.append(a) or real(*a))
        for order in self.ORDERS:
            ring = RingDescriptor(QQ, ("x", "y", "z"), order)
            x, y, z = (ring.variable(i) for i in range(3))
            with engine_context():
                K = ideal_sum(Ideal(ring, [x * y - z**2]), Ideal(ring, [y**2 - x * z]))
                del calls[:]
                seed = ideal_engine._seed(K)
                assert not calls
            assert seed is not None and seed == buchberger(ideal_engine._grevlex_twin(K).generators)

    def test_lifted_divisors_match_the_lifted_basis(self):
        # _lift_divisors multiplies the kernel form by a tag monomial; the
        # divisors the kernel builds from the lifted monic basis times that
        # monomial are the same tuples, by one add at the basis' width and
        # by unpacking and packing again at any other, or into the colon's
        # k[t0, y0, t, y, ring], whose intersection tag t0 leads the head
        rng = random.Random(2207)
        added = repacked = 0
        for p in (0, 2, 32003):
            small = RingDescriptor(FieldSpec(p), ("x", "y", "z"))
            systems = [(small, [random_poly(rng, small, max_terms=3) for _ in range(3)]) for _ in range(4)]
            wide = wide_ring(p)
            near = (0, 61, 62, 63, 150, 299)
            for _ in range(4):
                gens = []
                for _ in range(3):
                    acc = {}
                    for _ in range(rng.randint(1, 3)):
                        e = [0] * wide.nvars
                        for _ in range(rng.randint(1, 3)):
                            e[rng.choice(near)] += 1
                        acc[tuple(e)] = rng.randint(-4, 4)
                    gens.append(wide.polynomial(acc))
                systems.append((wide, gens))
            for ring, gens in systems:
                gb = buchberger(gens, ring=ring)
                if not len(gb):
                    continue
                width = gb._packing.width
                aug = ideal_engine._tag_ring(ring)
                colon = ideal_engine._tag_ring(aug)
                for head in ((0, 0), (1, 0), (0, 2)):
                    for target, lead, w in ((aug, head, width), (aug, head, 2 * width), (colon, (1, 0) + head, width)):
                        pk = ideal_engine._packing(target.order, target.nvars, w)
                        t = target.monomial(lead + (0,) * ring.nvars)
                        lift = [t * remap_variables(g, target, range(len(lead), target.nvars)) for g in gb]
                        want = tuple(kernel_divisors(lift, pk))
                        assert ideal_engine._lift_divisors(gb, lead, pk) == want, (gens, lead)
                        same = pk.vecs[len(lead) :] == gb._packing.vecs
                        added += same
                        repacked += not same
        assert added >= 60 and repacked >= 120, (added, repacked)

    @staticmethod
    def minors_grade(monkeypatch, spied):
        """The 2x4 minors over QQ, I = all variables but y4, so that the
        chain of regular elements runs: (M, I, ring, the witness, the calls
        of ``spied`` during ``grade``, as argument tuples)."""
        ring, J, v = minors_2xn(4)
        M, I = invariants.CyclicModule(ring, J), Ideal(ring, v[:-1])
        calls = []
        real = getattr(ideal_engine, spied)
        monkeypatch.setattr(ideal_engine, spied, lambda *a, **k: calls.append(a) or real(*a, **k))
        return M, I, ring, invariants.grade(M, I, seed=10000), calls

    def test_grade_completes_no_chain_ideal_from_its_generators(self, monkeypatch):
        with engine_context():
            M, I, ring, w, calls = self.minors_grade(monkeypatch, "_complete")
        J = M.defining_ideal.generators
        chain = [list(J + w.sequence[:k]) for k in range(1, w.value + 1)]
        assert w.value == 4  # dim of the 2x4 minors, 2 + 4 - 1, less dim M/IM = 1
        plain = [gens for r, gens, settled in calls if r == ring and not settled]
        assert plain and not [gens for gens in plain if gens in chain]
        # J + I is one completion of I's generators with J's basis settled,
        # and each step one completion of x_k with J_k's basis settled
        seeded = [list(gens) for r, gens, settled in calls if r == ring and settled]
        assert seeded == [list(I.generators)] + [[x] for x in w.sequence]

    @pytest.mark.parametrize(
        "entry, completions",
        [
            ("grade", 15),
            ("icm_report", 15),
            ("is_cohen_macaulay_graded", 15),
            ("verify_grade_witness", 9),
            ("replay_regular_sequence", 7),
            ("run_suite", 19),
            ("quotient_transport", 25),
            ("subideal_transfer_check", 22),
            ("annihilator_transport", 32),
            ("polynomial_extension_check", 25),
            ("cm_implies_icm_check", 15),
        ],
    )
    def test_entry_points_open_their_own_context(self, monkeypatch, entry, completions):
        # each entry point reads one basis many times (step k of a chain or
        # a replay reads the basis of step k - 1, which ideal_sum stored, and
        # a relation check runs several chains or replays on one module);
        # outside a context it opens a default one, so it completes exactly
        # as often as inside one.  At I = m a chain completes J_k + <x> for
        # every candidate x it tests (``_parameter_chain``), which skips the
        # parameters it has already accepted
        ring, J, v = minors_2xn(4)
        M, I = invariants.CyclicModule(ring, J), Ideal(ring, v)
        w = invariants.grade(M, I, seed=10000)
        run = {
            "grade": lambda: invariants.grade(M, I, seed=10000),
            "icm_report": lambda: icm_checker.icm_report(M, I, seed=10000),
            "is_cohen_macaulay_graded": lambda: icm_checker.is_cohen_macaulay_graded(M, seed=10000),
            "verify_grade_witness": lambda: invariants.verify_grade_witness(M, I, w),
            "replay_regular_sequence": lambda: invariants.replay_regular_sequence(J, I, w.sequence),
            "run_suite": lambda: theorem_lab.run_suite("poly-extension", trials=2, base_seed=10000),
            "quotient_transport": lambda: icm_checker.quotient_transport(M, I, w.sequence[:2], seed=10000),
            "subideal_transfer_check": lambda: icm_checker.subideal_transfer_check(
                M, Ideal(ring, v[:4]), I, seed=10000
            ),
            "annihilator_transport": lambda: icm_checker.annihilator_transport(M, I, seed=10000),
            "polynomial_extension_check": lambda: icm_checker.polynomial_extension_check(M, I, 1, seed=10000),
            "cm_implies_icm_check": lambda: icm_checker.cm_implies_icm_check(M, I, seed=10000),
        }[entry]
        calls = []
        real = ideal_engine._complete
        monkeypatch.setattr(ideal_engine, "_complete", lambda *a: calls.append(a) or real(*a))
        counts = []
        for context in (True, False):
            del calls[:]
            with engine_context() if context else contextlib.nullcontext():
                run()
            counts.append(len(calls))
        assert counts == [completions, completions]

    def test_verify_grade_witness_reuses_the_chain_bases(self, monkeypatch):
        # in the context of the search, the replay completes only the
        # certificate ideal, which the search never needed a basis of
        with engine_context():
            M, I, ring, w, calls = self.minors_grade(monkeypatch, "_complete")
            runs = []
            real = ideal_engine._grow
            monkeypatch.setattr(ideal_engine, "_grow", lambda *a, **k: runs.append(a) or real(*a, **k))
            del calls[:]
            log = invariants.verify_grade_witness(M, I, w)
        assert len(log) == w.value + 1
        cert = w.certificate.ideal.generators
        assert [(r, list(gens), settled) for r, gens, settled in calls] == [(ring, list(cert), None)]
        # no decision runs the kernel again: the one pair loop is the
        # completion of the certificate, which is not all terms here
        assert any(len(g.terms) > 1 for g in cert) and len(runs) == 1


def _terms(K):
    """The term tuples of an ideal's generators, in order."""
    return [g.terms for g in K.generators]


class TestColonByIdeal:
    """The colon through the generic element against the per-generator colons
    glued by the oracle's intersections (``oracles.oracle_colon_ideal``)."""

    @staticmethod
    def random_pair(rng, ring):
        # 0-3 generators of J, 1-3 of I, inhomogeneous ones included; now and
        # then a constant generator makes I the unit ideal
        I = []
        k = rng.randint(1, 3)
        while len(I) < k:
            g = random_poly(rng, ring, max_terms=2, max_exp=1)
            if g.terms:
                I.append(g)
        if rng.random() < 0.15:
            I[rng.randrange(k)] = ring.one()
        J = [
            random_poly(rng, ring, max_terms=2, max_exp=1) * rng.choice(I)
            + random_poly(rng, ring, max_terms=1, max_exp=2) * rng.randint(0, 1)
            for _ in range(rng.randint(0, 3))
        ]
        return Ideal(ring, J), Ideal(ring, I)

    def test_matches_intersection_formula(self):
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                ring = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                rng = random.Random(31 * p + len(order))
                for _ in range(12):
                    J, I = self.random_pair(rng, ring)
                    got = ideal_quotient_ideal(J, I)
                    assert got.groebner_basis() == oracles.oracle_colon_ideal(J, I).groebner_basis(), (J, I)
                    seen["J = 0"] += J.is_zero_ideal
                    seen["unit in I"] += any(g.total_degree() == 0 for g in I.generators)
                    seen["inhomogeneous I"] += not all(g.is_homogeneous() for g in I.generators)
                    seen["%d generators" % len(I.generators)] += 1
        assert len(seen) == 6, seen
        assert min(seen.values()) >= 5, seen

    def test_intersection_and_colon_by_an_element_match_the_oracle(self):
        # the seeded eliminations against the oracle's plain ones in a tag
        # ring of its own: the same contracted generators, term for term
        seen = Counter()
        for p in (0, 2, 3, 32003):
            for order in ("lex", "grevlex"):
                ring = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder(order))
                rng = random.Random(17 * p + len(order))
                for _ in range(8):
                    J, I = self.random_pair(rng, ring)
                    for a, b in ((J, I), (I, J)):
                        got, want = ideal_intersect(a, b), oracles.oracle_intersect(a, b)
                        assert _terms(got) == _terms(want), (a, b)
                    for f in I.generators:
                        got, want = ideal_quotient(J, f), oracles.oracle_quotient(J, f)
                        assert _terms(got) == _terms(want), (J, f)
                    seen["GF(%d), %s" % (p, order) if p else "QQ, %s" % order] += 1
                    seen["J = 0"] += J.is_zero_ideal
                    seen["unit in I"] += any(g.total_degree() == 0 for g in I.generators)
                    seen["s >= 2"] += len(I.generators) > 1
        assert len(seen) == 11 and min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p", [0, 32003])
    def test_minors_by_all_variables(self, n, p):
        names = ["x%d" % i for i in range(1, n + 1)] + ["y%d" % i for i in range(1, n + 1)]
        ring = RingDescriptor(FieldSpec(p), tuple(names))
        v = [ring.variable(i) for i in range(2 * n)]
        J = Ideal(ring, [v[i] * v[n + j] - v[j] * v[n + i] for i in range(n) for j in range(i + 1, n)])
        I = Ideal(ring, v)
        got = ideal_quotient_ideal(J, I).groebner_basis()
        assert got == oracles.oracle_colon_ideal(J, I).groebner_basis()
        # J is prime and I is not inside it, so the colon gives J back
        assert got == J.groebner_basis()

    @pytest.mark.parametrize("p", [0, 2])
    def test_a_principal_colon_in_a_lex_ring(self, p):
        # <f>, <f, 2f> and <f, (1 + x)*f> are one ideal: each takes the
        # principal route with I's basis element, rebuilt in J's lex ring,
        # so the colons agree term for term and match the oracle's
        R = RingDescriptor(FieldSpec(p), ("x", "y", "z"), TermOrder("lex"))
        x, y, z = (R.variable(i) for i in range(3))
        f = 3 * x * z - y**2 + z
        for J in (Ideal(R, [x**2 * y - z**3, x * z * f]), Ideal(R, [(x + y) * f, y**3 - x * z])):
            got = [ideal_quotient_ideal(J, Ideal(R, gens)) for gens in ([f], [f, 2 * f], [f, (1 + x) * f])]
            assert all(g.ring is R for colon in got for g in colon.generators), J
            assert _terms(got[1]) == _terms(got[2]) == _terms(got[0]), J
            want = oracles.oracle_colon_ideal(J, Ideal(R, [f]))
            assert got[0].groebner_basis() == want.groebner_basis(), J

    def test_one_colon_and_one_intersection(self, monkeypatch):
        # one colon by f_y in R[y], whose intersection is one elimination of
        # its tag, and one elimination of y: two tagged completions, each
        # from a lifted basis, and bases read only for J and I in R
        calls = Counter()
        rings = []

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                if name == "groebner_basis":
                    rings.append((name, args[0].ring))
                elif name == "_complete":
                    rings.append((name, args[0]))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("ideal_quotient", "ideal_intersect", "_colon", "_eliminate_tag", "_complete"):
            spy(ideal_engine, name)
        spy(Ideal, "groebner_basis")
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        got = ideal_quotient_ideal(Ideal(R, [x**2, y**2, z**2]), Ideal(R, [x, y, z]))
        assert calls == {"_colon": 1, "_eliminate_tag": 2, "_complete": 4, "groebner_basis": 2}
        Ry = ideal_engine._tag_ring(R)
        want = [("groebner_basis", R), ("_complete", R)] * 2
        want += [("_complete", ideal_engine._tag_ring(Ry)), ("_complete", Ry)]
        assert rings == want
        assert got == Ideal(R, [x**2, y**2, z**2, x * y * z])


class TestMembership:
    def test_frozen_examples(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x**2, x * y, x - y])
        assert not membership(x, J)
        assert membership(x**2 + x * y, J)
        assert membership(y**2, J)  # y^2 = y(y - x) + xy

    def test_agrees_with_linear_algebra_on_homogeneous(self):
        rng = random.Random(43)
        R = ring_qq("x", "y", "z")
        checked = 0
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 2)
                acc = {}
                for _ in range(rng.randint(1, 3)):
                    m = oracles._monomials_of_degree(3, d)[
                        rng.randrange(len(oracles._monomials_of_degree(3, d)))
                    ]
                    acc[m] = acc.get(m, 0) + rng.randint(-3, 3)
                g = R.polynomial(acc)
                if not g.is_zero:
                    gens.append(g)
            if not gens:
                continue
            J = Ideal(R, gens)
            d = rng.randint(1, 3)
            monos = oracles._monomials_of_degree(3, d)
            acc = {}
            for _ in range(rng.randint(1, 4)):
                m = monos[rng.randrange(len(monos))]
                acc[m] = acc.get(m, 0) + rng.randint(-3, 3)
            f = R.polynomial(acc)
            if f.is_zero:
                continue
            assert membership(f, J) == oracles.homogeneous_membership(f, gens)
            checked += 1
        assert checked >= 15


# ---------------------------------------------------------------------------
# the ideal calculus


class TestIdealCalculus:
    def test_intersection_tag_variable_golden(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        meet = ideal_intersect(Ideal(R, [x]), Ideal(R, [y]))
        assert [str(g) for g in meet.groebner_basis()] == ["x*y"]

    def test_intersection_matches_monomial_rule(self):
        rng = random.Random(47)
        R = ring_qq("x", "y", "z")
        for _ in range(25):
            a = [
                tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ]
            b = [
                tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ]
            a = [m for m in a if sum(m)] or [(1, 0, 0)]
            b = [m for m in b if sum(m)] or [(0, 1, 0)]
            left = ideal_intersect(
                Ideal(R, [R.monomial(m) for m in a]),
                Ideal(R, [R.monomial(m) for m in b]),
            )
            rule = oracles.intersect_monomial(a, b)
            expect = Ideal(R, [R.monomial(m) for m in rule])
            assert ideal_equal(left, expect)

    def test_colon_matches_monomial_rule(self):
        rng = random.Random(53)
        R = ring_qq("x", "y", "z")
        for _ in range(25):
            gens = [
                tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [m for m in gens if sum(m)] or [(1, 1, 0)]
            others = [
                tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 2))
            ]
            others = [m for m in others if sum(m)] or [(0, 0, 1)]
            J = Ideal(R, [R.monomial(m) for m in gens])
            I = Ideal(R, [R.monomial(m) for m in others])
            got = ideal_quotient_ideal(J, I)
            rule = oracles.colon_ideal_monomial(gens, others)
            assert ideal_equal(got, Ideal(R, [R.monomial(m) for m in rule]))

    def test_saturation_matches_monomial_chain(self):
        rng = random.Random(61)
        deep = stable = 0
        for _ in range(40):
            n = rng.randint(3, 4)
            R = ring_qq(*("x%d" % i for i in range(n)))
            gens = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            gens = [m for m in gens if sum(m)] or [(2,) + (1,) * (n - 1)]
            others = [
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            others = [m for m in others if sum(m)] or [(0,) * (n - 1) + (1,)]
            J = Ideal(R, [R.monomial(m) for m in gens])
            I = Ideal(R, [R.monomial(m) for m in others])
            res = saturate(J, I)
            rule, steps = oracles.saturate_monomial(gens, others)
            assert ideal_equal(res.ideal, Ideal(R, [R.monomial(m) for m in rule]))
            assert res.exponent == steps
            if len(I.generators) == 1:
                assert is_nonzerodivisor(J, I.generators[0]) == (steps == 0)
            deep += steps >= 2
            stable += steps == 0
        assert deep >= 5 and stable >= 3

    def test_colon_with_inhomogeneous_element(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x * y, y**2])
        got = ideal_quotient(J, y)
        assert ideal_equal(got, Ideal(R, [x, y]))

    def test_saturation_frozen_examples(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        res = saturate(Ideal(R, [x**2 * y]), Ideal(R, [y]))
        assert ideal_equal(res.ideal, Ideal(R, [x**2]))
        assert res.exponent == 1
        res2 = saturate(Ideal(R, [x**2 * y**3]), Ideal(R, [y]))
        assert ideal_equal(res2.ideal, Ideal(R, [x**2]))
        assert res2.exponent == 3

    def test_saturation_exponent_zero_means_stable(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x])
        res = saturate(J, Ideal(R, [y]))
        assert res.exponent == 0
        assert ideal_equal(res.ideal, J)

    def test_saturation_contains_all_colon_powers(self):
        rng = random.Random(59)
        R = ring_qq("x", "y", "z")
        for _ in range(10):
            gens = [random_poly(rng, R, max_terms=2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            others = [random_poly(rng, R, max_terms=1) for _ in range(1)]
            others = [g for g in others if not g.is_zero]
            if not gens or not others:
                continue
            J = Ideal(R, gens)
            I = Ideal(R, others)
            if J.groebner_basis().is_unit_ideal or I.groebner_basis().is_unit_ideal:
                continue
            res = saturate(J, I)
            # chain stabilizes: (sat : I) = sat
            assert ideal_equal(ideal_quotient_ideal(res.ideal, I), res.ideal)
            # claimed exponent is attained by the colon chain from J, and no
            # earlier: one step short of it the chain has not reached sat
            K = J
            for step in range(res.exponent):
                if step == res.exponent - 1:
                    assert not ideal_equal(K, res.ideal)
                K = ideal_quotient_ideal(K, I)
            assert ideal_equal(K, res.ideal)

    def test_sum(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        s = ideal_sum(Ideal(R, [x]), Ideal(R, [y]))
        assert membership(x + y, s)
        assert ideal_equal(s, Ideal(R, [x + y, x - y]))

    def test_elimination_golden(self):
        # the tag variables are fresh although the ring already uses t and y
        R = ring_qq("t", "y")
        a, b = R.variable(0), R.variable(1)
        assert ideal_engine._tag_ring(R).variables == ("t0", "y0", "t", "y")
        seed = ideal_engine._seed(Ideal(R, [a]))
        aug, lift, (t, y) = tag_lift(R)
        one = _eliminate_tag(R, [ideal_engine._work((1 - t) * lift(b), 0)], (seed, (1, 0)))
        assert [str(g) for g in one.groebner_basis()] == ["t*y"]
        assert ideal_intersect(Ideal(R, [a]), Ideal(R, [b])).generators == one.generators
        # both tags: <a> cap <b> cap <a + b> = (t*<a> + y*<b> + (1 - t - y)*<a + b>) cap R,
        # from t times a's basis, settled
        works = [ideal_engine._work(g, 0) for g in (y * lift(b), (1 - t - y) * lift(a + b))]
        three = _eliminate_tag(R, works, (seed, (1, 0)))
        assert [str(g) for g in three.groebner_basis()] == ["t^2*y + t*y^2"]

    def test_extend_ring_preserves_generators(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        J = Ideal(R, [x**2 - y])
        big = extend_ring(J, ["t1", "t2"])
        assert big.ring.variables == ("x", "y", "t1", "t2")
        assert [str(g) for g in big.generators] == ["x^2 - y"]
        # new variables are honestly new: t1 is not in the extended ideal
        assert not membership(big.ring.variable("t1"), big)

    @pytest.mark.parametrize(
        "names, message",
        [
            (["t", "y"], "duplicate variable name 'y'"),
            (["t", "t"], "duplicate variable name 't'"),
            (["t", ""], "nonempty strings"),
        ],
    )
    def test_extend_ring_rejects_bad_names(self, names, message):
        R = ring_qq("x", "y")
        with pytest.raises(ValueError, match=message):
            extend_ring(Ideal(R, [R.variable(0)]), names)

    def test_ideal_equality_is_semantic(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        assert Ideal(R, [x, y]) == Ideal(R, [x + y, y])
        assert Ideal(R, [x]) != Ideal(R, [y])

    def test_quotient_by_zero_rejected(self):
        R = ring_qq("x")
        J = Ideal(R, [R.variable(0)])
        with pytest.raises(ZeroElementError):
            ideal_quotient(J, R.zero())
        with pytest.raises(ZeroElementError):
            ideal_quotient_ideal(J, Ideal(R, []))
