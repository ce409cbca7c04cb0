"""Module-theoretic invariants of cyclic modules R/J.

Krull dimension is read off the leading-term ideal: dim R/J equals
dim R/LT(J), and for a monomial ideal the codimension is the size of the
smallest set of variables meeting the support of every minimal generator
(``staircase``, which holds every fact read off leading monomials).
Minimal primes, associated primes (via polarization), regular elements,
and the certified grade computation all build on this picture.

Regularity rests on saturation: since J <= (J : x) <= (J : x^infinity), x
is regular on R/J exactly when (J : x^infinity) = J, and I holds a regular
element exactly when (J : I^infinity) = J.  ``is_nonzerodivisor`` decides
the first: its Rabinowitsch completion stops at the first element of
(J : x^infinity) outside J and builds no saturation.  ``saturate`` decides
the second, the existence test, as exponent 0, and the saturation it
builds is also the certificate: the search hands it to ``grade``.
Grade is computed by actually finding a maximal regular sequence.
``grade`` checks (M, I) once per call; each step is one
``find_regular_element`` on the step's ideal J_k, which tests one seeded
candidate stream, ``_candidates``, in phases: the reduced basis of I, whose
failures do not decide existence, then ``_dense`` random draws and a
``_climb`` in degree, whose failures do.  The search runs first, since a
regular element it finds already proves that one exists; existence is
decided only at the first failure that decides, or when the stream ends,
so a step that finds an element before that never saturates by I.
When no element exists, the current sequence length is the grade and that
saturation ships with the answer as its certificate.  The chain stops
without a search at the bound b = dim M - dim M/IM, since
grade(I, M) <= b always holds: a sequence of length b is maximal, and
``saturate(J_b, I)`` is its certificate.  So only a chain below the bound
pays for the search that finds nothing.  ``verify_grade_witness`` replays
each element with the same test and never reads the bound.

At I = m, all the variables, with J homogeneous, dim M/mM = 0 and the
question is whether R/J is Cohen-Macaulay.  There ``_parameter_chain``
runs first: it accepts a candidate of the same stream when it cuts the
dimension by one, with no regularity test, and at dimension 0 compares
the length of R/J_b with e(R/J) (Serre's criterion).  On equality the
parameters it found are the regular sequence the search would find, and
the certificate exponent is read off J_b's staircase; otherwise the chain
of regular elements runs from the start.
"""
from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import staircase
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
    ReducedGB,
    SaturationResult,
    _in_engine_context,
    _seed,
    ideal_equal,
    ideal_sum,
    is_nonzerodivisor,
    membership,
    saturate,
    search_budget,
)
from .ring_core import (
    Coeff,
    Monomial,
    Polynomial,
    Record,
    RingDescriptor,
    _from_dict,
    _same_ring,
    monomial_support,
)
from .staircase import minimal_transversals


class CyclicModule:
    """The cyclic module R/J for a proper ideal J.

    The zero module (1 in J: its grevlex basis is {1}) is rejected outright
    so that dimension and grade never have to special-case it."""

    __slots__ = ("ring", "defining_ideal")

    def __init__(self, ring: RingDescriptor, defining_ideal: Ideal):
        if defining_ideal.ring != ring:
            raise IncompatibleRingError("defining ideal lives in a different ring")
        if _seed(defining_ideal).is_unit_ideal:
            raise ZeroModuleError("the defining ideal contains 1; the module is zero")
        self.ring = ring
        self.defining_ideal = defining_ideal

    def __repr__(self) -> str:
        return "CyclicModule(R/%r)" % (self.defining_ideal,)


class MonomialPrime(Record):
    """A prime generated by a subset of the variables.

    The empty subset is allowed and stands for the zero prime; it shows up
    as the sole associated prime of R itself.  ``indices`` is kept sorted so
    equal primes compare and hash equal.
    """

    __slots__ = ("ring", "indices")

    def __init__(self, ring: RingDescriptor, indices: Iterable[int]) -> None:
        idx = tuple(indices)
        for i in idx:
            if type(i) is not int or not 0 <= i < ring.nvars:
                raise ValueError("variable index out of range: %r" % (i,))
        super().__init__(ring, tuple(sorted(set(idx))))

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


def variable_prime(I: Ideal) -> Optional[MonomialPrime]:
    """I as a MonomialPrime when its grevlex basis is variables, whatever
    the generators (<x, x + y> is <x, y>; <0> is the zero prime), else None."""
    gens = _seed(I).monomials
    if gens is None or any(sum(m) != 1 for m in gens):
        return None
    return MonomialPrime(I.ring, tuple(m.index(1) for m in gens))


class GradeWitness(Record):
    """A certified grade value: the maximal regular sequence actually found,
    plus the saturation certificate showing it cannot be extended."""

    __slots__ = ("value", "sequence", "certificate")


# ---------------------------------------------------------------------------
# dimension and primes


def _dimension(G: ReducedGB) -> int:
    """dim R/J from the reduced basis G of a proper J (of R itself when G
    is empty: the one transversal of no supports is empty)."""
    return staircase.dimension(G.leading_monomials, G.ring.nvars)


def krull_dimension(M: CyclicModule) -> int:
    """dim R/J off J's reduced grevlex basis, in every ring (``CyclicModule``
    has rejected the unit ideal)."""
    return _dimension(_seed(M.defining_ideal))


def height(J: Ideal) -> int:
    """height J = n - dim R/J for a proper ideal, off its grevlex basis."""
    G = _seed(J)
    if G.is_unit_ideal:
        raise ImproperIdealError("the ideal is the whole ring")
    return J.ring.nvars - _dimension(G)


def _minimal_monomial_gens(J: Ideal) -> Tuple[Monomial, ...]:
    """The minimal generators of a proper monomial ideal, off its grevlex
    basis (an error names an element of the ring's).  The zero ideal has
    none, and both callers then return the zero prime: the empty set is the
    one transversal of no supports."""
    G = _seed(J)
    if G.is_unit_ideal:
        raise ImproperIdealError("the ideal is the whole ring")
    if G.monomials is None:
        g = next(p for p in J.groebner_basis().basis if len(p.terms) > 1)
        raise NonMonomialError("operation needs a monomial ideal; generator %s has %d terms" % (g, len(g.terms)))
    return G.monomials


def minimal_primes_monomial(J: Ideal) -> FrozenSet[MonomialPrime]:
    """Minimal primes of a monomial ideal: minimal transversals of the
    supports of its minimal generators."""
    supports = [monomial_support(m) for m in _minimal_monomial_gens(J)]
    return frozenset(MonomialPrime(J.ring, c) for c in minimal_transversals(supports))


def sorted_primes(primes: Iterable[MonomialPrime]) -> List[MonomialPrime]:
    """Primes by codimension, then by variable indices: one fixed order for
    printing and for seeded choices."""
    return sorted(primes, key=lambda q: (len(q.indices), q.indices))


def associated_primes_monomial(J: Ideal) -> FrozenSet[MonomialPrime]:
    """Associated primes of R/J for monomial J, off its polarization
    (Herzog-Hibi, Monomial Ideals, 1.3 and 1.6): a minimal generator x^a
    becomes the product of new variables (i, d), one for each exponent
    d <= a_i that x_i has among the generators, and Ass(R/J) is the set of
    {i for (i, d) in T} over the minimal transversals T of these supports.

    Polarization commutes with intersections, as pol(lcm(u, v)) =
    lcm(pol u, pol v), so each minimal prime of J^pol is minimal over
    pol Q for a component Q = <x_i^b_i : i in S> of the irredundant
    irreducible decomposition of J, and so lies over S; and for each Q the
    prime <(i, b_i) : i in S> is minimal, as a smaller one would contain
    pol Q' for a component Q' inside Q, which would make Q redundant.
    Keying the new variables by the exponents that occur, not by 1..a_i,
    keeps <x^1000, y^1000> at one transversal."""
    gens = _minimal_monomial_gens(J)
    exponents = [{m[i] for m in gens} - {0} for i in range(J.ring.nvars)]
    supports = [frozenset((i, d) for i, e in enumerate(m) for d in exponents[i] if d <= e) for m in gens]
    return frozenset(MonomialPrime(J.ring, {i for i, _ in T}) for T in minimal_transversals(supports))


# ---------------------------------------------------------------------------
# regular elements and grade


@_in_engine_context
def replay_regular_sequence(J: Ideal, I: Ideal, sequence: Sequence[Polynomial]) -> Ideal:
    """Check that ``sequence`` is an R/J-regular sequence inside I: each
    element lies in I and is regular on the quotient by J and the elements
    before it.  Returns J + <sequence>; raises EngineError naming the first
    element that fails.  Each quotient is ``ideal_sum``'s, as in ``grade``,
    so a replay in the engine context of the search finds its bases stored;
    outside any context it opens a default one, since step k reads the
    basis of step k - 1, which ``ideal_sum`` stored."""
    current = J
    for k, x in enumerate(sequence, 1):
        if not membership(x, I):
            raise EngineError("sequence element %d is not in the test ideal" % k)
        if not is_nonzerodivisor(current, x):
            raise EngineError("sequence element %d is not regular" % k)
        current = ideal_sum(current, Ideal(J.ring, [x]))
    return current


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


def _dense(basis: Sequence[Polynomial], rng: random.Random) -> Iterator[Sequence[Polynomial]]:
    """The dense phase's pools, one per draw: the basis or, when it is
    homogeneous, its elements up to a random basis degree, each lifted to it
    by a random variable power (the lift stays inside I)."""
    if not all(p.is_homogeneous() for p in basis):
        yield from itertools.repeat(basis)
    else:
        ring = basis[0].ring
        graded = [(p, p.total_degree()) for p in basis]
        degrees = sorted({e for _, e in graded})
        while True:
            d = degrees[rng.randrange(len(degrees))]
            pool = []
            for p, e in graded:
                if e < d:
                    lift = [0] * ring.nvars
                    lift[rng.randrange(ring.nvars)] = d - e
                    p = p.shift(tuple(lift), ring.field.one)
                if e <= d:
                    pool.append(p)
            yield pool


def _climb(basis: Sequence[Polynomial]) -> Iterator[List[Polynomial]]:
    """The climb's pools: ``_degree_span`` of each degree above the basis
    degrees in turn, for 8 draws each; over a small prime field the elements
    outside every associated prime may all lie in higher degree."""
    for degree in itertools.count(max(p.total_degree() for p in basis) + 1):
        yield from itertools.repeat(_degree_span(basis, degree), 8)


def _candidates(
    basis: Sequence[Polynomial], seed: int
) -> Iterator[Tuple[Optional[Polynomial], bool]]:
    """The search's candidate stream from the reduced basis of I, seeded by
    ``seed``: pairs of a candidate, or None for a draw that is zero or
    repeats one, and its phase's flag, whether a failure there decides
    existence.  The phases are the basis, which does not decide (it comes
    first, so the answer only depends on the ideal, not its presentation),
    then ``_dense``, which decides, repeats included, and ``_climb``, which
    decides.  Each of the last two makes up to 50 * budget draws, random
    combinations of its pools with integer coefficients from a range that
    grows with the candidates so far, each summed in one coefficient dict
    in the field.  The stream ends after
    ``search_budget()`` distinct candidates.  The basis phase draws nothing,
    so the seeded generator is built only when the stream leaves it."""
    budget = search_budget()
    seen = set(basis[:budget])
    yield from ((x, False) for x in basis[:budget])
    rng = random.Random(seed)
    ring = basis[0].ring
    p = ring.field.characteristic
    for pools in (_dense(basis, rng), _climb(basis)):
        for _ in range(50 * budget):
            if len(seen) >= budget:
                return
            pool = next(pools)
            bound = 1 + len(seen) // 8
            acc: Dict[Monomial, Coeff] = {}
            for g in pool:
                c = rng.randint(-bound, bound)
                if c:
                    for m, a in g.terms:
                        acc[m] = acc.get(m, 0) + c * a
            x = _from_dict(ring, {m: a % p for m, a in acc.items()} if p else acc)
            if x.is_zero or x in seen:
                x = None
            else:
                seen.add(x)
            yield x, True


def find_regular_element(J: Ideal, I: Ideal, seed: int) -> Union[Polynomial, SaturationResult]:
    """One step of ``grade``: search I for an element regular on R/J, where
    J is the step's ideal J_k.  Returns the element found, or, exactly when
    I holds none, ``saturate(J, I)``: the existence test that failed, and
    the certificate ``grade`` ships.  The caller passes a valid pair: I is
    a nonzero proper ideal of J's ring and J + I is proper, which ``grade``
    checks once for the whole chain.  ``grade`` calls it only below the
    bound dim M - dim M/IM, so a saturation from it means a chain that ends
    below the bound.

    The candidates come from ``_candidates`` seeded by ``seed``, each once,
    so the answer depends on J, I, the seed and the budget alone.

    Existence, (J : I^infinity) = J, is ``saturate(J, I).exponent == 0``.
    It reads nothing from the seeded stream, so it is decided late without
    changing the answer: at the first item of a phase that decides and is
    not a regular element (a failure or a None), or when the stream ends.
    Otherwise an exhausted stream raises SearchExhaustedError, although a
    regular element exists.
    """
    exists = False
    stream = _candidates(I.groebner_basis().basis, seed)
    # the end of the stream decides existence too
    for x, decides in itertools.chain(stream, [(None, True)]):
        if x is not None and is_nonzerodivisor(J, x):
            return x
        if decides and not exists:
            certificate = saturate(J, I)
            if certificate.exponent:
                return certificate
            exists = True
    raise SearchExhaustedError(
        "no regular element found within budget %d; raise the budget, and over "
        "a small prime field consider characteristic zero or a larger prime"
        % search_budget()
    )


def grade(M: CyclicModule, I: Ideal, seed: int = 0) -> GradeWitness:
    """grade(I, M): the length of a maximal M-regular sequence inside I,
    found by direct search and certified by the final saturation.  The
    chain runs in ``_grade_and_dimensions`` (in a default engine context
    when none is open), which checks the pair (M, I) once: every later J_k
    lies inside J + I.  Step k runs ``find_regular_element`` on J_k with
    seed ``seed + k`` under the context's search budget, and J_{k+1} =
    J_k + <x_k> comes from ``ideal_sum``, whose bases are completed from
    J_k's, not from the generators.

    A regular element found by the search proves by itself that the sequence
    extends, so no saturation runs on such a step.  The search returns a
    saturation only after deciding that (J_k : I^infinity) != J_k; that
    saturation, with its exponent, is the certificate of maximality, built
    once (a replay in the same context finds it stored).

    The chain never searches at the bound b = dim M - dim M/IM, where
    grade(I, M) <= b (see ``icm_checker``): a sequence of length b is
    maximal, and ``saturate(J_b, I)`` alone is its certificate.  The search
    there would find nothing, so the witness is the one it would give.  An
    exponent of 0 at the bound, (J_b : I^infinity) = J_b, would contradict
    the inequality, and raises EngineError naming the step and b.

    At I = m, all the variables, with J homogeneous and its basis not all
    terms, the chain first runs ``_parameter_chain``, which tests no
    regularity and answers only when R/J is Cohen-Macaulay, with the same
    witness.
    """
    return _grade_and_dimensions(M, I, seed)[0]


@_in_engine_context
def _grade_and_dimensions(
    M: CyclicModule, I: Ideal, seed: int
) -> Tuple[GradeWitness, int, int]:
    """``grade`` with the two dimensions it bounds the chain by: the
    witness, dim M and dim M/IM.  It reads the bases of I (in the ring's
    order, for the search), J + I and J (``_seed``) once each: the pair
    check, both dimensions and the homogeneity test come from them, and
    whether I is m from ``variable_prime``, the one reader of "generated by
    variables".  The grade chain's one runner, so the one that opens a
    default engine context when none is open.  A graded chain at I = m,
    J's basis not all terms, tries ``_parameter_chain`` first;
    any other input, and any outcome of it but a certified "yes", runs
    ``_regular_chain`` from the start.  A monomial J skips the route for
    speed alone: over GF(2), with no parameter of degree 1 at its last
    step, the RP^2 ideal's route drains the dense phase: ten times the time
    of the chain, which decides at its first failure, where over QQ and
    GF(3) it takes half."""
    _same_ring(M, I)
    if not I.generators:
        raise ZeroElementError("the zero test ideal has no regular elements")
    gb_i = I.groebner_basis()
    if gb_i.is_unit_ideal:
        raise ImproperIdealError("the test ideal is the unit ideal")
    J = M.defining_ideal
    gb_sum = _seed(ideal_sum(J, I))
    if gb_sum.is_unit_ideal:
        raise IMEqualsMError(
            "I + J is the unit ideal, so I * (R/J) = R/J and grade is undefined"
        )
    gb_j = _seed(J)
    dim_m, dim_mod = _dimension(gb_j), _dimension(gb_sum)
    graded = all(p.is_homogeneous() for p in gb_j.basis + gb_i.basis)
    prime = variable_prime(I)
    at_m = prime is not None and len(prime.indices) == I.ring.nvars
    witness = _parameter_chain(J, gb_i.basis, seed, dim_m) if graded and at_m and gb_j.monomials is None else None
    if witness is None:
        witness = _regular_chain(J, I, seed, dim_m - dim_mod)
    return witness, dim_m, dim_mod


def _regular_chain(J: Ideal, I: Ideal, seed: int, bound: int) -> GradeWitness:
    """The chain of regular elements: ``find_regular_element`` at each step
    below ``bound``, each on its own step's ideal, and the saturation at the
    bound as the certificate."""
    current = J
    sequence: List[Polynomial] = []
    while len(sequence) < bound:
        found = find_regular_element(current, I, seed + len(sequence))
        if isinstance(found, SaturationResult):
            certificate = found
            break
        sequence.append(found)
        current = ideal_sum(current, Ideal(J.ring, [found]))
    else:
        certificate = saturate(current, I)
        if certificate.exponent == 0:
            raise EngineError(
                "grade step %d: (J_k : I^infinity) = J_k at the bound "
                "b = dim M - dim M/IM = %d, so a dimension is wrong"
                % (len(sequence), bound)
            )
    return GradeWitness(len(sequence), tuple(sequence), certificate)


def _parameter_chain(J: Ideal, variables: Sequence[Polynomial], seed: int, dim: int) -> Optional[GradeWitness]:
    """The graded chain at I = m certified by length and multiplicity, with
    no regularity test: J homogeneous of dimension ``dim``, and
    ``variables`` I's reduced basis, all the variables.  None unless R/J is
    Cohen-Macaulay.

    Step k draws from ``_candidates`` at seed ``seed + k``, as
    ``find_regular_element``, and accepts the first new candidate x that is
    a parameter: dim R/(J_k + x), read off ``ideal_sum``'s basis, is one
    less.  A candidate that is not one lies in a minimal prime of J_k of
    top dimension, and so in one of every later J_k of the chain, so it
    joins the route's set of known non-parameters.  So does an accepted x,
    exactly: it lies in every later J_k, so J_k + x = J_k keeps the
    dimension, and the stream draws the same whatever its reader skips.  At
    dimension 0 the accepted theta is a system of linear parameters (the
    route leaves at its first candidate above degree 1), and R/J is
    Cohen-Macaulay exactly when l(R/J_b) = e(theta; R/J) = e(R/J), and
    otherwise the length is larger (Serre; Bruns-Herzog, Sec. 4.7), both
    read off leading monomials (``staircase``), as R/J and R/in(J) share
    their Hilbert function.  On a graded Cohen-Macaulay module the
    parameters and the regular elements are the same, at every step, so
    theta is the sequence ``_regular_chain`` finds, candidate for
    candidate.  J_b is then m-primary, so (J_b : m^infinity) = R, and the
    least e with m^e inside J_b is one more than the top degree of its
    staircase (Macaulay).

    The route gives up, for ``_regular_chain`` to run, when the length
    check fails, when the stream ends, and at its first candidate above
    degree 1: the climb, which only a small field reaches, and whose
    spans, each completed with J_k, grow with the degree."""
    current, sequence, known = J, [], set()
    for k in range(dim):
        for x, _ in _candidates(variables, seed + k):
            if x is None or x in known:
                continue
            if x.total_degree() > 1:
                return None
            extended = ideal_sum(current, Ideal(J.ring, [x]))
            known.add(x)
            if _dimension(_seed(extended)) < dim - k:
                break
        else:
            return None
        sequence.append(x)
        current = extended
    lms = _seed(current).leading_monomials
    length, top = staircase.staircase(lms, J.ring.nvars)
    multiplicity = staircase.degree(_seed(J).leading_monomials, J.ring.nvars)
    if length != multiplicity:
        return None
    return GradeWitness(dim, tuple(sequence), SaturationResult(Ideal(J.ring, [J.ring.one()]), top + 1))


@_in_engine_context
def verify_grade_witness(M: CyclicModule, I: Ideal, witness: GradeWitness) -> List[str]:
    """Replay a witness: each element lies in I and is regular on the
    successive quotient, and the certificate blocks any extension and is
    the saturation of the last quotient by I, ideal and exponent.  Returns
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
    if check.exponent != cert.exponent:
        raise EngineError("certificate exponent is not the saturation's")
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
    _same_ring(M, p)
    mins = minimal_primes_monomial(M.defining_ideal)
    inside = [q for q in mins if p.contains(q)]
    if not inside:
        raise EmptySupportError("the prime does not contain any minimal prime of J")
    return max(len(p.indices) - len(q.indices) for q in inside)
