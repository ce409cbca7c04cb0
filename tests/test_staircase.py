"""The facts read off leading monomials (``icmlab.staircase``) against
brute-force counts on seeded random monomial ideals, and the degree
e(R/in(J)) against known degrees."""
import itertools
import random

import pytest

from icmlab import staircase
from icmlab.ideal_engine import Ideal
from icmlab.ring_core import FieldSpec, RingDescriptor, monomial_divides


def random_monomials(rng, n):
    """1-4 monomials of degree 1-3 in n variables; half the time with a pure
    power of every variable added, so that the ideal is zero-dimensional."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        e = [0] * n
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(n)] += 1
        gens.append(tuple(e))
    if rng.random() < 0.5:
        gens += [tuple(rng.randint(1, 3) * (j == i) for j in range(n)) for i in range(n)]
    return gens


def standard(gens, n, degree):
    """The monomials of one degree that no generator divides."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        m = tuple(combo.count(i) for i in range(n))
        if not any(monomial_divides(g, m) for g in gens):
            out.append(m)
    return out


def brute_dimension(gens, n):
    """The largest set of variables holding no generator's support."""
    return max(
        len(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
        if not any(all(i in s for i, e in enumerate(g) if e) for g in gens)
    )


def brute_degree(gens, n, dim):
    """The (dim - 1)-th difference of the Hilbert function far out, which is
    e; for dim 0, the number of standard monomials."""
    if dim == 0:
        return sum(len(standard(gens, n, t)) for t in range(3 * n + 1))
    top = 14
    hf = [len(standard(gens, n, t)) for t in range(top - dim + 1, top + 1)]
    for _ in range(dim - 1):
        hf = [b - a for a, b in zip(hf, hf[1:])]
    return hf[-1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seeded_monomial_ideals_match_brute_force(n):
    rng = random.Random(2500 + n)
    zero_dimensional = 0
    for _ in range(40):
        gens = random_monomials(rng, n)
        dim = staircase.dimension(gens, n)
        assert dim == brute_dimension(gens, n), gens
        assert staircase.is_zero_dimensional(gens, n) == (dim == 0), gens
        assert staircase.degree(gens, n) == brute_degree(gens, n, dim), gens
        if dim == 0:
            zero_dimensional += 1
            levels = [len(standard(gens, n, t)) for t in range(3 * n + 1)]
            top = max(t for t, count in enumerate(levels) if count)
            assert staircase.staircase(gens, n) == (sum(levels), top), gens
    assert 10 < zero_dimensional < 40


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dimension_by_branch_and_bound_matches_brute_force(n):
    # square-free and not: each draw adds, half the time, a multiple of an
    # earlier generator (a support that contains another) and a repeat of
    # one (the same support twice), which the search must drop unharmed
    rng = random.Random(2800 + n)
    for _ in range(150):
        gens = []
        for _ in range(rng.randint(1, 7)):
            e = [0] * n
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(n)] += rng.randint(1, 2)
            gens.append(tuple(e))
        if rng.random() < 0.5:
            g, j = rng.choice(gens), rng.randrange(n)
            gens.append(tuple(a + (i == j) for i, a in enumerate(g)))
            gens.append(rng.choice(gens))
        rng.shuffle(gens)
        assert staircase.dimension(gens, n) == brute_dimension(gens, n), gens


@pytest.mark.parametrize("k", [12, 16, 40])
def test_dimension_of_the_cross_polytope_ideal_is_k(k):
    # <x_1*y_1, ..., x_k*y_k> has 2^k minimal transversals, all of size k;
    # the least one is found without listing them
    lms = [tuple(int(j in (i, k + i)) for j in range(2 * k)) for i in range(k)]
    assert staircase.dimension(lms, 2 * k) == k


def edge_ideal(edges, n):
    return [tuple(int(i in e) for i in range(n)) for e in edges]


def test_dimension_of_edge_ideals_with_known_covers():
    # the least vertex cover of K_24 has 23 vertices, and that of six
    # disjoint 5-cycles 18, where a packing holds only 12 disjoint edges in
    # either: inputs on which the packing bound is loose
    assert staircase.dimension(edge_ideal(itertools.combinations(range(24), 2), 24), 24) == 1
    cycles = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(6) for i in range(5)]
    assert staircase.dimension(edge_ideal(cycles, 30), 30) == 12


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_degree_of_the_2xn_minors_is_n(N):
    # the Segre embedding of P^1 x P^(N-1) has degree N
    ring = RingDescriptor(FieldSpec(0), ["x%d" % i for i in range(N)] + ["y%d" % i for i in range(N)])
    v = [ring.variable(i) for i in range(2 * N)]
    J = Ideal(ring, [v[i] * v[N + j] - v[j] * v[N + i] for i in range(N) for j in range(i + 1, N)])
    lms = J.groebner_basis().leading_monomials
    assert staircase.dimension(lms, 2 * N) == N + 1
    assert staircase.degree(lms, 2 * N) == N


def test_degree_of_rp2_is_its_ten_facets():
    # the Stanley-Reisner ring of the 6-vertex RP^2: one unit per facet
    non_faces = [(1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 6), (1, 5, 6), (2, 3, 6), (2, 4, 5), (2, 4, 6), (3, 4, 5), (3, 5, 6)]
    lms = [tuple(int(i + 1 in face) for i in range(6)) for face in non_faces]
    assert staircase.dimension(lms, 6) == 3
    assert staircase.degree(lms, 6) == 10


def test_degree_of_the_pfaffians_is_that_of_g25():
    # the 4x4 Pfaffians of a generic skew 5x5 matrix cut out the Grassmannian
    # G(2, 5) in its Pluecker embedding: degree 5, and its cone has dim 7
    pairs = list(itertools.combinations(range(5), 2))
    ring = RingDescriptor(FieldSpec(0), ["x%d%d" % ij for ij in pairs])
    x = {ij: ring.variable(k) for k, ij in enumerate(pairs)}
    quads = itertools.combinations(range(5), 4)
    J = Ideal(ring, [x[a, b] * x[c, d] - x[a, c] * x[b, d] + x[a, d] * x[b, c] for a, b, c, d in quads])
    lms = J.groebner_basis().leading_monomials
    assert staircase.dimension(lms, 10) == 7
    assert staircase.degree(lms, 10) == 5
