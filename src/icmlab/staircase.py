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

from typing import FrozenSet, List, Sequence, Tuple

from .ring_core import Monomial, monomial_divides, monomial_support


def minimal_transversals(supports: Sequence[FrozenSet]) -> List[Tuple]:
    """All inclusion-minimal sets meeting every support (of variable indices,
    or of any sortable items), sorted.  They are built support by support: a
    partial transversal that meets the new support is kept, and one, c,
    that misses it forks into c | {v} for each v of the support.  The
    partial transversals are an antichain, so a kept set stays minimal, and
    a forked set is compared with the kept sets only: were c | {v} to
    contain another forked c' | {v'}, then c', which misses the support and
    so v, would lie inside c, against the antichain (and the same argument
    keeps the forked sets distinct)."""
    covers: List[FrozenSet] = [frozenset()]
    for sup in supports:
        if not sup:
            raise ValueError("a generator with empty support means the unit ideal")
        kept = [c for c in covers if c & sup]
        forked = [c | {v} for c in covers if not c & sup for v in sup]
        covers = kept + [f for f in forked if not any(k < f for k in kept)]
    return sorted(tuple(sorted(c)) for c in covers)


def dimension(lms: Sequence[Monomial], nvars: int) -> int:
    """dim R/J for a proper J whose Groebner basis has leading monomials
    ``lms``: n minus the least size of a transversal, found by branch and
    bound on the supports as bit masks.  Only the inclusion-minimal supports
    are kept, as a transversal meeting one meets its supersets.  A branch
    takes the lowest variable v of the smallest unmet support, or leaves v
    out of every support; it is cut when its size plus a greedy packing of
    pairwise disjoint unmet supports, each met by a variable of its own,
    reaches the best size found.  The search ends at a least transversal T,
    whose complement is an independent set of top size: no leading monomial
    is supported in it (Kredel-Weispfenning, J. Symb. Comp. 6, 1988)."""
    masks = sorted({sum(1 << i for i, e in enumerate(m) if e) for m in lms}, key=int.bit_count)
    if masks and not masks[0]:
        raise ValueError("a generator with empty support means the unit ideal")
    minimal: List[int] = []
    for s in masks:
        if not any(t & s == t for t in minimal):
            minimal.append(s)

    def least(unmet: List[int], size: int, best: int) -> int:
        packed, bound = 0, size
        for s in unmet:
            if not s & packed:
                packed, bound = packed | s, bound + 1
        if bound >= best or not unmet:
            return min(bound, best)
        v = unmet[0] & -unmet[0]
        best = least([s for s in unmet if not s & v], size + 1, best)
        if unmet[0] != v:
            best = least(sorted([s & ~v for s in unmet], key=int.bit_count), size, best)
        return best

    return nvars - least(minimal, 0, nvars + 1)


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
