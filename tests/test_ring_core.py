"""Exact arithmetic, term orders, and polynomial mechanics."""
import copy
import heapq
import pickle
import random
from fractions import Fraction

import pytest

from icmlab.errors import (
    DimensionMismatchError,
    IncompatibleRingError,
    ZeroLeadingTermError,
)
from icmlab.ring_core import (
    FieldSpec,
    Polynomial,
    RingDescriptor,
    TermOrder,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    remap_variables,
)

import oracles


QQ = FieldSpec(0)
GF7 = FieldSpec(7)


def ring_qq(*names, order="grevlex"):
    return RingDescriptor(QQ, tuple(names), TermOrder(order))


# ---------------------------------------------------------------------------
# fields


class TestFieldSpec:
    def test_characteristic_zero_uses_fractions(self):
        assert QQ.coerce(3) == Fraction(3)
        assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
        assert str(QQ) == "QQ"

    def test_prime_field_reduces_residues(self):
        assert GF7.coerce(10) == 3
        assert GF7.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
        assert str(GF7) == "GF(7)"

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(6)
        with pytest.raises(ValueError):
            FieldSpec(1)
        with pytest.raises(ValueError):
            FieldSpec(2**31 + 11)

    def test_non_int_characteristic_rejected(self):
        # 3.0 would make GF(3) with float residues, False would make QQ
        for c in (3.0, Fraction(5), False, True, "7"):
            with pytest.raises(ValueError):
                FieldSpec(c)

    def test_field_axioms_seeded_sweep(self):
        rng = random.Random(11)
        for fld in (QQ, GF7, FieldSpec(32003)):
            elements = []
            for _ in range(12):
                if fld.characteristic == 0:
                    elements.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                else:
                    elements.append(rng.randrange(fld.characteristic))
            for a in elements:
                for b in elements:
                    assert fld.add(a, b) == fld.add(b, a)
                    assert fld.mul(a, b) == fld.mul(b, a)
                    assert fld.add(fld.add(a, fld.neg(b)), b) == a
                    if b != fld.zero:
                        assert fld.mul(fld.mul(a, fld.invert(b)), b) == a
            for a in elements:
                assert fld.add(a, fld.zero) == a
                assert fld.mul(a, fld.one) == a
                if a != fld.zero:
                    assert fld.mul(a, fld.invert(a)) == fld.one

    def test_invert_zero_fails(self):
        with pytest.raises(ZeroDivisionError):
            QQ.invert(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            GF7.invert(0)


# ---------------------------------------------------------------------------
# term orders


def monomial_compare(order, a, b):
    """-1, 0 or +1 as a is below, equal to or above b under ``order``."""
    ka, kb = order.descending_key(a), order.descending_key(b)
    return (ka < kb) - (ka > kb)


ORDERS = [TermOrder("lex"), TermOrder("grevlex")]
ORDERS += [TermOrder("elimination-block", b) for b in (1, 2, 3)]


def oracle_key(order, n):
    """The oracle's increasing key for ``order`` on n variables."""
    names = tuple("x%d" % i for i in range(n))
    return oracles.oracle_key(RingDescriptor(QQ, names, order))


class TestTermOrders:
    def test_grevlex_frozen_comparisons(self):
        order = TermOrder("grevlex")
        # degree first
        assert monomial_compare(order, (2, 0), (1, 0)) > 0
        # x^2 beats x*y in two variables
        assert monomial_compare(order, (2, 0), (1, 1)) > 0
        # x*y^2 vs x^2*z in three variables: same degree, last exponent decides
        assert monomial_compare(order, (1, 2, 0), (2, 0, 1)) > 0

    def test_lex_frozen_comparisons(self):
        order = TermOrder("lex")
        assert monomial_compare(order, (1, 0, 0), (0, 5, 5)) > 0
        assert monomial_compare(order, (1, 2, 0), (1, 1, 9)) > 0
        assert monomial_compare(order, (1, 1, 1), (1, 1, 1)) == 0

    def test_orders_agree_with_oracle_keys(self):
        rng = random.Random(23)
        for order in ORDERS:
            for _ in range(300):
                n = rng.randint(1 if order.block is None else order.block + 1, 5)
                key = oracle_key(order, n)
                a = tuple(rng.randint(0, 4) for _ in range(n))
                b = tuple(rng.randint(0, 4) for _ in range(n))
                want = (key(a) > key(b)) - (key(a) < key(b))
                assert monomial_compare(order, a, b) == want

    def test_order_axioms_seeded_sweep(self):
        rng = random.Random(29)
        for order in ORDERS:
            for _ in range(200):
                n = rng.randint(1 if order.block is None else order.block + 1, 4)
                a = tuple(rng.randint(0, 3) for _ in range(n))
                b = tuple(rng.randint(0, 3) for _ in range(n))
                c = tuple(rng.randint(0, 3) for _ in range(n))
                # total: exactly one of <, =, > holds
                assert monomial_compare(order, a, b) == -monomial_compare(order, b, a)
                # multiplicative: a > b implies a*c > b*c
                if monomial_compare(order, a, b) > 0:
                    assert (
                        monomial_compare(order, monomial_mul(a, c), monomial_mul(b, c))
                        > 0
                    )
                # one is the global minimum
                zero = tuple(0 for _ in range(n))
                if a != zero:
                    assert monomial_compare(order, a, zero) > 0

    def test_descending_key_sorts_like_key_reversed(self):
        # "key" is the oracle's increasing key, written from the definitions
        rng = random.Random(31)
        for order in ORDERS:
            for n in range(1 if order.block is None else order.block + 1, 6):
                monos = list({tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(60)})
                want = sorted(monos, key=oracle_key(order, n), reverse=True)
                assert sorted(monos, key=order.descending_key) == want
                # a min-heap on the key pops the largest monomial first
                heap = [(order.descending_key(m), m) for m in monos]
                heapq.heapify(heap)
                assert [heapq.heappop(heap)[1] for _ in monos] == want

    def test_dimension_mismatch_raises(self):
        R = ring_qq("x", "y")
        with pytest.raises(DimensionMismatchError):
            R.monomial((1, 0, 0))
        with pytest.raises(DimensionMismatchError):
            R.polynomial({(1, 0, 0): 1})

    def test_elimination_block_separates(self):
        order = TermOrder("elimination-block", 1)
        # anything touching the first variable beats anything that does not
        assert monomial_compare(order, (1, 0, 0), (0, 9, 9)) > 0
        assert monomial_compare(order, (0, 2, 0), (0, 1, 1)) > 0

    def test_elimination_needs_block(self):
        with pytest.raises(ValueError):
            TermOrder("elimination-block")
        with pytest.raises(ValueError):
            TermOrder("grevlex", 2)
        # 1.5 would fail later inside descending_key, True would be block 1
        for block in (0, 1.5, True, False, "1"):
            with pytest.raises(ValueError):
                TermOrder("elimination-block", block)


# ---------------------------------------------------------------------------
# polynomials


class TestPolynomialArithmetic:
    def test_construction_and_leading_data(self):
        R = ring_qq("x", "y")
        x, y = R.variable("x"), R.variable("y")
        f = x**2 * y + x * y**2 + 1
        assert f.leading_monomial() == (2, 1)
        assert f.leading_coefficient() == Fraction(1)
        assert f.total_degree() == 3
        assert not f.is_homogeneous()
        assert (x**2 * y + x * y**2).is_homogeneous()

    def test_hash_is_taken_once_and_rebuilt_by_a_copy(self):
        # the memo's keys hold generators, so a polynomial keeps its hash;
        # a pickle or copy computes it again, as for RingDescriptor
        R = ring_qq("x", "y")
        f, g = R.variable("x") + 1, R.variable("x") + 1
        assert f is not g and hash(f) == hash(g) and len({f, g}) == 1
        f._hash = hash(f) + 1
        for h in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert h == g and hash(h) == hash(g)

    def test_zero_polynomial_behavior(self):
        R = ring_qq("x")
        z = R.zero()
        assert z.is_zero
        assert not z
        with pytest.raises(ZeroLeadingTermError):
            z.leading_term()
        assert str(z) == "0"

    def test_ring_axioms_seeded_sweep(self):
        rng = random.Random(37)
        for fld in (QQ, GF7):
            R = RingDescriptor(fld, ("x", "y", "z"))

            def rand_poly():
                acc = {}
                for _ in range(rng.randint(0, 4)):
                    m = tuple(rng.randint(0, 2) for _ in range(3))
                    acc[m] = acc.get(m, 0) + rng.randint(-4, 4)
                return R.polynomial(acc)

            for _ in range(60):
                f, g, h = rand_poly(), rand_poly(), rand_poly()
                assert f + g == g + f
                assert (f + g) + h == f + (g + h)
                assert f * g == g * f
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert f + R.zero() == f
                assert f * R.one() == f
                assert f - f == R.zero()
                assert f * R.zero() == R.zero()

    def test_scalar_operations(self):
        R = ring_qq("x")
        x = R.variable(0)
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        assert 1 - x == -(x - 1)
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    def test_pow_edge_cases(self):
        R = ring_qq("x")
        x = R.variable(0)
        assert x**0 == R.one()
        with pytest.raises(ValueError):
            x ** (-1)

    def test_cross_ring_operations_rejected(self):
        A = ring_qq("x")
        B = ring_qq("y")
        with pytest.raises(IncompatibleRingError):
            A.variable(0) + B.variable(0)

    def test_gf_coefficients_normalize(self):
        R = RingDescriptor(GF7, ("x",))
        x = R.variable(0)
        assert 7 * x == R.zero()
        assert str(3 * x + 10) == "3*x + 3"

    def test_comparison_with_a_scalar_outside_the_field_is_false(self):
        # 1/7 has no image in GF(7), so no polynomial over GF(7) equals it
        R = RingDescriptor(GF7, ("x",))
        assert (R.one() == Fraction(1, 7)) is False
        assert R.zero() != Fraction(3, 14)
        assert R.constant(4) == Fraction(1, 2)  # 2 * 4 = 1 in GF(7)

    def test_monic(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        f = 3 * x * y + 6 * y
        assert f.monic() == x * y + 2 * y

    def test_shift_is_term_multiplication(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        f = x + y
        assert f.shift((1, 1), Fraction(2)) == 2 * x**2 * y + 2 * x * y**2


class TestPrinting:
    def test_rational_and_sign_rendering(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        f = Fraction(3, 4) * (x**2) - y + 2
        assert str(f) == "3/4*x^2 - y + 2"
        assert str(-x) == "-x"
        assert str(x - 1) == "x - 1"

    def test_terms_print_in_descending_order(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        f = 1 + x**2 * y + x * y**2
        assert str(f) == "x^2*y + x*y^2 + 1"

    def test_str_round_trips_through_parser(self):
        from icmlab.cli_app import parse_polynomial

        rng = random.Random(41)
        R = ring_qq("x", "y", "z")
        for _ in range(80):
            acc = {}
            for _ in range(rng.randint(0, 5)):
                m = tuple(rng.randint(0, 3) for _ in range(3))
                acc[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            f = R.polynomial(acc)
            assert parse_polynomial(str(f), R) == f


class TestMonomialHelpers:
    def test_divides_div_lcm(self):
        assert monomial_divides((1, 0), (2, 1))
        assert not monomial_divides((1, 2), (2, 1))
        assert monomial_div((2, 1), (1, 0)) == (1, 1)
        assert monomial_lcm((2, 0), (1, 3)) == (2, 3)


class TestRingDescriptor:
    def test_variable_lookup(self):
        R = ring_qq("u", "v")
        assert R.variable("v") == R.variable(1)
        assert R.var_index("u") == 0
        with pytest.raises(KeyError):
            R.var_index("w")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ring_qq("x", "x")

    def test_hash_is_taken_once_and_rebuilt_by_a_copy(self):
        R, S = ring_qq("x", "y"), ring_qq("x", "y")
        assert R is not S and R == S and hash(R) == hash(S)
        assert len({R, S, RingDescriptor(QQ, ("x", "y"), TermOrder("lex"))}) == 2
        # a string's hash differs between processes, so a pickle or copy
        # must compute it again rather than carry the stored one
        object.__setattr__(R, "_hash", hash(R) + 1)
        for T in (pickle.loads(pickle.dumps(R)), copy.deepcopy(R)):
            assert T == S and hash(T) == hash(S)

    def test_negative_exponents_rejected(self):
        # a negative exponent once printed x^-1 as 1 and made <x^-1 + 2> the
        # unit ideal; both builders refuse it
        R = ring_qq("x", "y")
        for build in (lambda: R.polynomial({(-1, 0): 1, (0, 0): 2}), lambda: R.monomial((-1, 0))):
            with pytest.raises(ValueError, match="exponents must be nonnegative"):
                build()
        assert str(R.polynomial({(1, 0): 1, (0, 0): 2})) == "x + 2"
        # monomial and constant are polynomial of one term: the same
        # polynomial, or the same error class, on a wrong length, a negative
        # exponent, a zero coefficient and a denominator vanishing in GF(7)
        S = RingDescriptor(GF7, ("x", "y"))

        def outcome(build):
            try:
                return build()
            except Exception as exc:
                return type(exc)

        cases = [(R, (1, 0, 0), 3), (R, (-1, 0), 3), (R, (1, 1), 0), (R, (0, 2), Fraction(-2, 3)), (S, (2, 1), 9)]
        cases += [(S, (1, 0), Fraction(1, 7)), (S, (0, 1), 7), (R, (0, 0), 0), (S, (0, 0), Fraction(3, 14))]
        for ring, exps, c in cases:
            want = outcome(lambda: ring.polynomial({exps: c}))
            assert outcome(lambda: ring.monomial(exps, c)) == want
            if not any(exps):
                assert outcome(lambda: ring.constant(c)) == want
        assert outcome(lambda: R.monomial((1, 0, 0))) is DimensionMismatchError
        assert outcome(lambda: S.constant(Fraction(1, 7))) is ZeroDivisionError
        assert R.monomial((1, 1), 0).is_zero and S.constant(14).is_zero

    @pytest.mark.parametrize("exps", [(1.5, 0), (1.0, 0), (True, 0), (0, False), ("1", 0)])
    def test_exponents_must_be_integers(self, exps):
        # a float exponent once printed x^1.5 as x^1 and failed inside the
        # kernel, a bool was stored as it came, and a string failed with a
        # bare TypeError; every builder now refuses all of them
        R = ring_qq("x", "y")
        for build in (lambda: R.polynomial({exps: 1}), lambda: R.monomial(exps, 2)):
            with pytest.raises(ValueError, match="exponents must be nonnegative"):
                build()

    def test_variable_index_is_checked(self):
        # an index outside 0 .. n - 1 or a bool once picked a variable by
        # Python's list indexing, or ended in a bare IndexError
        R = ring_qq("x", "y", "z")
        assert [str(R.variable(i)) for i in (0, 2, "y")] == ["x", "z", "y"]
        for which in (-1, -3, 3, True, False, 1.0):
            with pytest.raises(ValueError, match="variable index out of range"):
                R.variable(which)
        with pytest.raises(KeyError):
            R.variable("w")

    def test_remap_variables_moves_supports(self):
        A = ring_qq("x", "y")
        B = ring_qq("t", "x", "y")
        f = A.variable(0) * A.variable(1) + 1
        g = remap_variables(f, B, [1, 2])
        assert str(g) == "x*y + 1"
        back = remap_variables(g, A, [None, 0, 1])
        assert back == f

    def test_remap_rejects_dropped_support(self):
        A = ring_qq("x", "y")
        B = ring_qq("x",)
        f = A.variable(0) * A.variable(1)
        with pytest.raises(IncompatibleRingError):
            remap_variables(f, B, [0, None])
