"""The facts read off leading monomials, on exponent tuples alone.

For an ideal J with Groebner basis G in any order, R/J and R/in(J) share
their Hilbert function (Macaulay), so the dimension, and for homogeneous J
the length of a zero-dimensional quotient and the degree, are read off the
leading monomials of G.  A monomial prime (x_T) is minimal over in(J)
exactly when T is an inclusion-minimal set of variables meeting the support
of every leading monomial (a transversal), so dim R/J is n minus the least
size of one.  The complements S of the least transversals are the
top-dimensional independent sets.
"""
from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

from .ring_core import Monomial, monomial_divides, monomial_support


def minimal_transversals(supports: Sequence[FrozenSet[int]]) -> List[Tuple[int, ...]]:
    """All inclusion-minimal sets meeting every support, built incrementally:
    each new support either is already met or forks the partial transversal
    one variable at a time, pruning non-minimal results after each round."""
    covers: List[FrozenSet[int]] = [frozenset()]
    for sup in supports:
        if not sup:
            raise ValueError("a generator with empty support means the unit ideal")
        nxt: Set[FrozenSet[int]] = set()
        for c in covers:
            if c & sup:
                nxt.add(c)
            else:
                for v in sorted(sup):
                    nxt.add(c | {v})
        covers = [c for c in nxt if not any(d < c for d in nxt)]
    return sorted(tuple(sorted(c)) for c in covers)


def dimension(lms: Sequence[Monomial], nvars: int) -> int:
    """dim R/J for a proper J whose Groebner basis has leading monomials ``lms``."""
    return nvars - min(map(len, minimal_transversals([monomial_support(m) for m in lms])))


def is_zero_dimensional(lms: Sequence[Monomial], nvars: int) -> bool:
    """A pure power of every variable is among ``lms``, so the staircase is finite."""
    return all(any(sum(m) == m[i] > 0 for m in lms) for i in range(nvars))


def staircase(lms: Sequence[Monomial], nvars: int) -> Tuple[int, int]:
    """The number and the top degree of the standard monomials (those no
    element of ``lms`` divides) of a proper zero-dimensional monomial ideal.
    They are an order ideal, so those of degree k + 1 are the variable
    multiples of those of degree k that stay outside."""
    level = {(0,) * nvars}
    size, top = 0, -1
    while level:
        size, top = size + len(level), top + 1
        up = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in level for i in range(nvars)}
        level = {m for m in up if not any(monomial_divides(g, m) for g in lms)}
    return size, top


def degree(lms: Sequence[Monomial], nvars: int) -> int:
    """e(R/in(J)), and so e(R/J) for homogeneous J, by the associativity
    formula (Bruns-Herzog, Cor. 4.7.8): the sum over the minimal primes P =
    (x_T) of top dimension of the length of (R/in(J))_P, times e(R/P) = 1.
    Inverting x_S for the complement S of T sets x_S to 1, and leaves in
    k[x_T] the monomial ideal of the restrictions to T, primary to (x_T)
    since T is a minimal transversal; its length is its staircase size."""
    covers = minimal_transversals([monomial_support(m) for m in lms])
    least = min(map(len, covers))
    total = 0
    for cover in covers:
        if len(cover) == least:
            restricted = [tuple(m[i] for i in cover) for m in lms]
            total += staircase(restricted, len(cover))[0]
    return total
