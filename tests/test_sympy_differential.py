"""Reduced Groebner bases against sympy's ``groebner`` on seeded random
ideals, over QQ and GF(32003), in lex and grevlex, with the engine memo
inactive and active; over QQ on coefficients that strain the
fraction-free completion, in elimination orders too; and katsura-4 in lex,
converted from its grevlex basis, against sympy's ``fglm("lex")``.  A
second, independent implementation; it complements the in-repo oracles in
``oracles.py``."""
import random
import time
from fractions import Fraction

import pytest

from icmlab.ideal_engine import buchberger, engine_context
from icmlab.ring_core import ELIMINATION, FieldSpec, RingDescriptor, TermOrder

import oracles

sp = pytest.importorskip("sympy")
orderings = pytest.importorskip("sympy.polys.orderings")

NAMES = ("x0", "x1", "x2")
P = 32003


def random_generators(rng, ring, count):
    gens = []
    while len(gens) < count:
        acc = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in NAMES)
            acc[mono] = acc.get(mono, 0) + rng.randint(-5, 5)
        g = ring.polynomial(acc)
        if not g.is_zero:
            gens.append(g)
    return gens


def canonical(terms, p):
    """{monomial: coefficient} scaled so the lex-largest term has
    coefficient 1, hence comparable whatever the term order and unit."""
    terms = {m: Fraction(c) for m, c in terms.items()}
    if p:
        lead = pow(int(terms[max(terms)]) % p, -1, p)
        return tuple(sorted((m, int(c) * lead % p) for m, c in terms.items()))
    lead = terms[max(terms)]
    return tuple(sorted((m, c / lead) for m, c in terms.items()))


def sympy_order(order):
    """sympy's name or ``ProductOrder`` for a ``TermOrder``."""
    if order.kind != ELIMINATION:
        return order.kind
    b = order.block
    return orderings.ProductOrder(
        (orderings.grevlex, lambda m: m[:b]), (orderings.grevlex, lambda m: m[b:])
    )


def sympy_basis(gens, order, p):
    symbols = sp.symbols(NAMES)
    opts = {"modulus": p} if p else {"domain": sp.QQ}
    polys = [
        sp.Poly.from_dict({m: sp.Rational(str(c)) for m, c in g.terms}, *symbols, **opts)
        for g in gens
    ]
    ref = sp.groebner(polys, *symbols, order=order, **opts)
    return sorted(
        canonical({m: Fraction(str(c)) for m, c in poly.as_dict().items()}, p)
        for poly in ref.polys
    )


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("p", [0, P])
def test_reduced_basis_matches_sympy(order, p):
    rng = random.Random(1009 + p + len(order))
    ring = RingDescriptor(FieldSpec(p), NAMES, TermOrder(order))
    for _ in range(20):
        gens = random_generators(rng, ring, rng.randint(2, 3))
        want = sympy_basis(gens, order, p)
        plain = buchberger(gens)
        with engine_context():
            memoized = buchberger(gens)
            again = buchberger(list(gens))  # a memo hit
        assert again is memoized
        for gb in (plain, memoized):
            assert gb.ring == ring
            assert sorted(canonical(dict(g.terms), p) for g in gb) == want, gens
            assert all(g.leading_coefficient() == 1 for g in gb)


@pytest.mark.parametrize("order", oracles.HARD_ORDERS, ids=str)
def test_hard_rational_coefficients_match_sympy(order):
    rng = random.Random(5107 + len(str(order)) + (order.block or 0))
    ring = RingDescriptor(FieldSpec(0), NAMES, order)
    for _ in range(10):
        gens = [oracles.hard_rational_poly(rng, ring) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        want = sympy_basis(gens, sympy_order(order), 0)
        assert sorted(canonical(dict(g.terms), 0) for g in buchberger(gens)) == want, gens


def katsura(ring):
    """The katsura-n system in the n + 1 variables of ``ring``."""
    n = ring.nvars - 1
    u = [ring.variable(i) for i in range(n + 1)] + [ring.zero()] * n
    linear = u[0] + sum((2 * v for v in u[1 : n + 1]), ring.zero()) - 1
    return [linear] + [sum((u[abs(k)] * u[abs(m - k)] for k in range(-n, n + 1)), ring.zero()) - u[m] for m in range(n)]


@pytest.mark.parametrize("p", [0, P])
def test_katsura4_in_lex_matches_sympy_fglm(p):
    # the lex basis comes from the grevlex one (26 steps) by conversion;
    # completing in lex takes 147 steps over GF(32003) and did not finish in
    # a minute over QQ, so it would trip this step limit or the time bound
    names = tuple("u%d" % i for i in range(5))
    ring = RingDescriptor(FieldSpec(p), names, TermOrder("lex"))
    gens = katsura(ring)
    start = time.perf_counter()
    with engine_context(step_limit=26):
        gb = buchberger(gens)
    assert time.perf_counter() - start < 5.0
    assert (gb.steps, len(gb)) == (26, 5)
    symbols = sp.symbols(names)
    opts = {"modulus": p} if p else {"domain": sp.QQ}
    polys = [sp.Poly.from_dict({m: sp.Rational(str(c)) for m, c in g.terms}, *symbols, **opts) for g in gens]
    ref = sp.groebner(polys, *symbols, order="grevlex", **opts).fglm("lex")
    want = sorted(canonical({m: Fraction(str(c)) for m, c in q.as_dict().items()}, p) for q in ref.polys)
    assert sorted(canonical(dict(g.terms), p) for g in gb) == want
