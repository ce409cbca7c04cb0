"""Module-theoretic invariants of cyclic modules R/J.

Krull dimension is read off the leading-term ideal: dim R/J equals
dim R/LT(J), and for a monomial ideal the codimension is the size of the
smallest set of variables meeting the support of every minimal generator.
Minimal primes, associated primes (via irreducible decomposition), regular
elements, and the certified grade computation all build on this picture.

Regularity is decided by saturation, in one place: x is regular on R/J
exactly when (J : x^infinity) = J, and I holds a regular element exactly
when (J : I^infinity) = J.  Grade is computed by actually finding a maximal
regular sequence.  The search runs first, since a regular element it finds
already proves that one exists; existence is decided only when no element
of the reduced basis of I is regular.  When no element exists, the current
sequence length is the grade and that saturation ships with the answer as
its certificate.  ``verify_grade_witness`` replays each element with the
same test.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
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
from .ideal_engine import (
    Ideal,
    SaturationResult,
    ideal_equal,
    ideal_sum,
    is_saturated,
    membership,
    saturate,
    search_budget,
)
from .ring_core import (
    Monomial,
    Polynomial,
    RingDescriptor,
    monomial_divides,
    monomial_support,
)


class CyclicModule:
    """The cyclic module R/J for a proper ideal J.

    Constructing the zero module (1 in J) is rejected outright so that
    dimension and grade never have to special-case it.
    """

    __slots__ = ("ring", "defining_ideal")

    def __init__(self, ring: RingDescriptor, defining_ideal: Ideal):
        if defining_ideal.ring != ring:
            raise IncompatibleRingError("defining ideal lives in a different ring")
        if membership(ring.one(), defining_ideal):
            raise ZeroModuleError("the defining ideal contains 1; the module is zero")
        self.ring = ring
        self.defining_ideal = defining_ideal

    def __repr__(self) -> str:
        return "CyclicModule(R/%r)" % (self.defining_ideal,)


@dataclass(frozen=True)
class MonomialPrime:
    """A prime generated by a subset of the variables.

    The empty subset is allowed and stands for the zero prime; it shows up
    as the sole associated prime of R itself.  ``indices`` is kept sorted so
    equal primes compare and hash equal.
    """

    ring: RingDescriptor
    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(self.indices)))
        if idx and (idx[0] < 0 or idx[-1] >= self.ring.nvars):
            raise ValueError("variable index out of range")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_names(cls, ring: RingDescriptor, names: Iterable[str]) -> "MonomialPrime":
        return cls(ring, tuple(ring.var_index(n) for n in names))

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self.ring.variables[i] for i in self.indices)

    @property
    def codimension(self) -> int:
        return len(self.indices)

    def quotient_dimension(self) -> int:
        return self.ring.nvars - len(self.indices)

    def as_ideal(self) -> Ideal:
        return Ideal(self.ring, [self.ring.variable(i) for i in self.indices])

    def contains(self, other: "MonomialPrime") -> bool:
        """Containment as ideals: every generator of ``other`` is one of ours."""
        return set(other.indices) <= set(self.indices)

    def __repr__(self) -> str:
        if not self.indices:
            return "<0>"
        return "<%s>" % ", ".join(self.variables)


@dataclass(frozen=True)
class GradeWitness:
    """A certified grade value: the maximal regular sequence actually found,
    plus the saturation certificate showing it cannot be extended."""

    value: int
    sequence: Tuple[Polynomial, ...]
    certificate: SaturationResult


# ---------------------------------------------------------------------------
# dimension and primes


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


def _proper_gb(J: Ideal):
    G = J.groebner_basis()
    if G.is_unit_ideal:
        raise ImproperIdealError("the ideal is the whole ring")
    return G


def _dim_of_quotient(J: Ideal) -> int:
    G = _proper_gb(J)
    supports = [monomial_support(p.leading_monomial()) for p in G.basis]
    if not supports:
        return J.ring.nvars
    covers = minimal_transversals(supports)
    return J.ring.nvars - min(len(c) for c in covers)


def krull_dimension(M: CyclicModule) -> int:
    """dim R/J, via the smallest transversal of the leading-term supports."""
    return _dim_of_quotient(M.defining_ideal)


def height(J: Ideal) -> int:
    """height J = n - dim R/J for a proper ideal of the affine ring."""
    return J.ring.nvars - _dim_of_quotient(J)


def _monomial_gens(J: Ideal) -> List[Monomial]:
    gens = []
    for g in J.generators:
        if len(g.terms) != 1:
            raise NonMonomialError(
                "operation needs a monomial ideal; generator %s has %d terms"
                % (g, len(g.terms))
            )
        gens.append(g.terms[0][0])
    return gens


def minimalize_monomials(gens: Iterable[Monomial]) -> List[Monomial]:
    """Drop monomials divisible by another; the result is the unique minimal
    generating set, sorted for determinism."""
    uniq = sorted(set(gens))
    out = []
    for m in uniq:
        if any(o != m and monomial_divides(o, m) for o in uniq):
            continue
        out.append(m)
    return out


def minimal_primes_monomial(J: Ideal) -> FrozenSet[MonomialPrime]:
    """Minimal primes of a monomial ideal: minimal transversals of the
    supports of its minimal generators."""
    gens = minimalize_monomials(_monomial_gens(J))
    if not gens:
        return frozenset({MonomialPrime(J.ring, ())})
    if any(sum(m) == 0 for m in gens):
        raise ImproperIdealError("the ideal is the whole ring")
    supports = [monomial_support(m) for m in gens]
    covers = minimal_transversals(supports)
    return frozenset(MonomialPrime(J.ring, c) for c in covers)


def sorted_primes(primes: Iterable[MonomialPrime]) -> List[MonomialPrime]:
    """Primes by codimension, then by variable indices: one fixed order for
    printing and for seeded choices."""
    return sorted(primes, key=lambda q: (len(q.indices), q.indices))


def _monomial_ideal_intersect(a: Sequence[Monomial], b: Sequence[Monomial]) -> List[Monomial]:
    return minimalize_monomials(
        tuple(max(x, y) for x, y in zip(m, w)) for m in a for w in b
    )


def _monomial_ideal_contains(big: Sequence[Monomial], small: Sequence[Monomial]) -> bool:
    """small subset of big, tested generator by generator."""
    return all(any(monomial_divides(g, m) for g in big) for m in small)


def _irreducible_components(gens: Sequence[Monomial]) -> List[Tuple[Monomial, ...]]:
    """Split on a mixed generator m = u * v with coprime u, v until every
    component is generated by pure variable powers.

    J = (J + <u>) intersect (J + <v>) holds whenever u and v are coprime,
    and the total degree of mixed generators drops in both branches, so the
    recursion terminates.
    """
    out: Set[Tuple[Monomial, ...]] = set()
    seen: Set[Tuple[Monomial, ...]] = set()
    stack = [tuple(sorted(gens))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        mixed = None
        for m in cur:
            if len(monomial_support(m)) >= 2:
                mixed = m
                break
        if mixed is None:
            out.add(cur)
            continue
        i = min(monomial_support(mixed))
        u = tuple(mixed[k] if k == i else 0 for k in range(len(mixed)))
        v = tuple(0 if k == i else mixed[k] for k in range(len(mixed)))
        left = tuple(minimalize_monomials(cur + (u,)))
        right = tuple(minimalize_monomials(cur + (v,)))
        stack.append(left)
        stack.append(right)
    return sorted(out)


def _irredundant(components: List[Tuple[Monomial, ...]]) -> List[Tuple[Monomial, ...]]:
    comps = sorted(set(components))
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for i in range(len(comps)):
            others = comps[:i] + comps[i + 1 :]
            inter = others[0]
            for o in others[1:]:
                inter = tuple(_monomial_ideal_intersect(inter, o))
            if _monomial_ideal_contains(comps[i], inter):
                comps.pop(i)
                changed = True
                break
    return comps


def associated_primes_monomial(J: Ideal) -> FrozenSet[MonomialPrime]:
    """Associated primes of R/J for monomial J: the supports of the
    components of the irredundant irreducible decomposition."""
    gens = minimalize_monomials(_monomial_gens(J))
    if not gens:
        return frozenset({MonomialPrime(J.ring, ())})
    if any(sum(m) == 0 for m in gens):
        raise ImproperIdealError("the ideal is the whole ring")
    comps = _irredundant(_irreducible_components(gens))
    primes = set()
    for comp in comps:
        sup: Set[int] = set()
        for m in comp:
            sup |= monomial_support(m)
        primes.add(MonomialPrime(J.ring, tuple(sup)))
    return frozenset(primes)


# ---------------------------------------------------------------------------
# regular elements and grade


def _check_module_ideal_pair(M: CyclicModule, I: Ideal) -> None:
    if I.ring != M.ring:
        raise IncompatibleRingError("test ideal lives in a different ring")
    if not I.generators:
        raise ZeroElementError("the zero test ideal has no regular elements")
    if membership(M.ring.one(), I):
        raise ImproperIdealError("the test ideal is the unit ideal")


def is_regular(J: Ideal, x: Polynomial) -> bool:
    """True when x is regular on R/J.  Since J <= (J : x) <= (J : x^infinity),
    (J : x) = J holds exactly when the saturation by x adds nothing."""
    return is_saturated(J, Ideal(J.ring, (x,)))


def replay_regular_sequence(J: Ideal, I: Ideal, sequence: Sequence[Polynomial]) -> Ideal:
    """Check that ``sequence`` is an R/J-regular sequence inside I: each
    element lies in I and is regular on the quotient by J and the elements
    before it.  Returns J + <sequence>; raises EngineError naming the first
    element that fails."""
    current = J
    for k, x in enumerate(sequence, 1):
        if not membership(x, I):
            raise EngineError("sequence element %d is not in the test ideal" % k)
        if not is_regular(current, x):
            raise EngineError("sequence element %d is not regular" % k)
        current = ideal_sum(current, Ideal(J.ring, (x,)))
    return current


_DEGREE_DRAWS = 8  # draws per degree once the search climbs above the basis


def _degree_span(basis: Sequence[Polynomial], degree: int) -> List[Polynomial]:
    """m * g for every g in the basis and every monomial m of degree
    ``degree - deg g``, without repeats: a spanning set of the degree part
    of the ideal when it is homogeneous."""
    ring = basis[0].ring
    span: Dict[Polynomial, None] = {}
    for g in basis:
        for combo in itertools.combinations_with_replacement(
            range(ring.nvars), degree - g.total_degree()
        ):
            exps = [0] * ring.nvars
            for i in combo:
                exps[i] += 1
            span.setdefault(g.shift(tuple(exps), ring.field.one), None)
    return list(span)


def find_regular_element(M: CyclicModule, I: Ideal, seed: int = 0) -> Optional[Polynomial]:
    """Search I for an element regular on M = R/J; None exactly when I holds
    none.

    Deterministic given the seed.  The reduced basis of I is tried first (so
    the answer only depends on the ideal, not its presentation).  Only if
    none of its elements is regular is existence decided, by
    (J : I^infinity) = J; when that fails the answer is None.  Otherwise
    random combinations with integer coefficients from a growing range
    follow.  When I is homogeneous the combinations stay homogeneous: a
    target degree is drawn among the basis degrees and lower-degree basis
    elements are lifted to it by a random variable power (the lift stays
    inside I).  After 50 * budget draws the search climbs one degree at a
    time above the top basis degree, 8 draws per degree, each a random
    combination of every m * g with g in the basis and m a monomial of the
    complementary degree: over a small prime field the elements outside
    every associated prime may all lie in higher degree.

    The search budget of the engine context (``SEARCH_BUDGET`` outside
    one) bounds the candidates tested, over every phase.  Raises
    SearchExhaustedError when it runs out, or after another 50 * budget
    draws in the climb, although a regular element exists.
    """
    _check_module_ideal_pair(M, I)
    budget = search_budget()
    J = M.defining_ideal
    basis = list(I.groebner_basis().basis)
    rng = random.Random(seed)
    tried = 0
    attempts = 0
    seen = set()
    for g in basis:
        if tried >= budget:
            break
        tried += 1
        seen.add(g)
        if is_regular(J, g):
            return g
    if not is_saturated(J, I):
        return None
    homogeneous = all(p.is_homogeneous() for p in basis)
    degrees = sorted({p.total_degree() for p in basis})
    while tried < budget and attempts < 100 * budget:
        attempts += 1
        bound = 1 + tried // 8
        nvars = M.ring.nvars
        if attempts > 50 * budget:
            climbed, draw = divmod(attempts - 50 * budget - 1, _DEGREE_DRAWS)
            if draw == 0:
                span = _degree_span(basis, degrees[-1] + 1 + climbed)
            pool = span
        elif homogeneous:
            d = degrees[rng.randrange(len(degrees))]
            pool = []
            for p in basis:
                gap = d - p.total_degree()
                if gap < 0:
                    continue
                if gap > 0:
                    lift = [0] * nvars
                    lift[rng.randrange(nvars)] = gap
                    p = p.shift(tuple(lift), M.ring.field.one)
                pool.append(p)
        else:
            pool = basis
        x = M.ring.zero()
        for p in pool:
            c = rng.randint(-bound, bound)
            if c:
                x = x + p * c
        if x.is_zero or x in seen:
            continue
        seen.add(x)
        tried += 1
        if is_regular(J, x):
            return x
    raise SearchExhaustedError(
        "no regular element found within budget %d; raise the budget, and over "
        "a small prime field consider characteristic zero or a larger prime"
        % budget
    )


def grade(M: CyclicModule, I: Ideal, seed: int = 0) -> GradeWitness:
    """grade(I, M): the length of a maximal M-regular sequence inside I,
    found by direct search and certified by the final saturation.  Step k
    searches with seed ``seed + k`` under the engine context's search
    budget.

    A regular element found by the search proves by itself that the sequence
    extends, so no saturation runs on such a step.  The search returns None
    only after deciding that (J_k : I^infinity) != J_k; then that saturation,
    with its exponent, is the certificate of maximality (inside an engine
    context its basis is a memo hit).
    """
    _check_module_ideal_pair(M, I)
    if membership(M.ring.one(), ideal_sum(M.defining_ideal, I)):
        raise IMEqualsMError(
            "I + J is the unit ideal, so I * (R/J) = R/J and grade is undefined"
        )
    current = M.defining_ideal
    sequence: List[Polynomial] = []
    while True:
        step_module = CyclicModule(M.ring, current)
        x = find_regular_element(step_module, I, seed=seed + len(sequence))
        if x is None:
            return GradeWitness(len(sequence), tuple(sequence), saturate(current, I))
        sequence.append(x)
        current = ideal_sum(current, Ideal(M.ring, (x,)))


def verify_grade_witness(M: CyclicModule, I: Ideal, witness: GradeWitness) -> List[str]:
    """Replay a witness: each element lies in I and is regular on the
    successive quotient, and the certificate blocks any extension.  Returns
    a step-by-step log; raises EngineError on the first discrepancy."""
    current = replay_regular_sequence(M.defining_ideal, I, witness.sequence)
    log = [
        "step %d: %s is in I and regular" % (k, x)
        for k, x in enumerate(witness.sequence, 1)
    ]
    if len(witness.sequence) != witness.value:
        raise EngineError("witness length disagrees with the reported grade")
    cert = witness.certificate
    if ideal_equal(cert.ideal, current):
        raise EngineError("certificate does not block extending the sequence")
    check = saturate(current, I)
    if not ideal_equal(check.ideal, cert.ideal):
        raise EngineError("certificate ideal is not the saturation")
    log.append(
        "certificate: (J + <sequence> : I^infinity) differs from J + <sequence>, "
        "so no further regular element exists"
    )
    return log


# ---------------------------------------------------------------------------
# local data at a monomial prime


def local_dimension(M: CyclicModule, p: MonomialPrime) -> int:
    """dim of the localization of M = R/J at p, for monomial J: the longest
    climb from a minimal prime of J inside p up to p, which for variable
    primes is |p| - |q| for the smallest such q."""
    if p.ring != M.ring:
        raise IncompatibleRingError("prime lives in a different ring")
    mins = minimal_primes_monomial(M.defining_ideal)
    inside = [q for q in mins if p.contains(q)]
    if not inside:
        raise EmptySupportError("the prime does not contain any minimal prime of J")
    return max(len(p.indices) - len(q.indices) for q in inside)
