"""Buchberger completion and the ideal calculus built on top of it.

The completion uses the normal selection strategy (pairs with the smallest
lcm degree first, ties broken by the term order), discards pairs with
coprime leading terms at creation, and applies the chain criterion at pop
time: a pair (i, j) is dropped when some third leading term divides its lcm
and both companion pairs have already been settled.  A pair keeps its lcm,
formed once; its leading terms are coprime exactly when the lcm's degree is
the sum of theirs.  Output is always the reduced monic basis, which is
unique for a given ideal and term order, so everything downstream is
deterministic.

Every remainder comes from one kernel on integer coefficients,
``_reduce``: the completion's reductions, ``normal_form`` and the
saturation's exponent loop.  Over GF(p)
its divisors are monic residues; over QQ they are integer polynomials,
reduced fraction-free by the primitive pseudo-remainder of Geddes, Czapor
& Labahn, *Algorithms for Computer Algebra* (1992).  Inside the completion
the working basis is primitive (content removed, positive leading
coefficient).  ``Fraction`` coefficients are cleared on entry and come back
only at the boundary: when the reduced basis leaves, made monic, and when
``normal_form`` returns its remainder, which is exactly the field
algorithm's; the reduced basis carries the kernel form its completion
ended with.  ``divide`` is exact division by one polynomial, the last step
of the colon by an element.

Every divisibility test (the kernel's, the chain criterion's and the
minimal-basis scan's) first compares support masks: one bit per variable,
set where the exponent is nonzero, so a monomial whose mask has a bit
outside another's cannot divide it (the "short exponent vectors" of
Bachmann & Schoenemann, ISSAC 1998, cut to one bit per variable).  Each
divisor carries its leading monomial's mask; variables past ``_BITS`` get
no bit, which only weakens the filter.  It passes over non-divisors only,
so every basis and step count is the same as without it.

Each completion keeps one table of monomial records, shared by all of its
reductions and dropped when it returns: a monomial's heap key, computed
once, and after its first pop either how many divisors passed it over or
its reducer, the shifted tail as records of the same table (the reused
multiples of F4's symbolic preprocessing, Faugere, J. Pure Appl. Algebra
139, 1999, without the matrix).  A completion only appends divisors, so
the first divisor that divides a monomial never changes, and the records
give every remainder and step count exactly.  No table outlives its
completion: neither the memo nor a ``ReducedGB`` holds one.

Completion is budgeted: the number of S-polynomial reductions is capped,
and the engine fails loudly when the cap is hit rather than spinning.

``engine_context`` opens an engine context for the current thread or task
(a ``ContextVar``), the one place that holds the budgets: the step limit
of every completion, the candidate budget of the regular-element search
(read through ``search_budget``), and the memo, the engine's one store
of results (an ``Ideal`` stores none), which only ``_memoized`` reads and
writes.  A key names what is stored, not the route that built it: a
reduced basis is keyed by its ideal's ring (order included) and ordered
generator terms, so a chain ideal from ``_extend`` and an ``Ideal`` with
the same generators share one entry; ``saturate``'s results sit under
"saturate" and ``is_nonzerodivisor``'s decisions under "regular", with
the ring and both generator lists, ``ideal_intersect``'s,
``ideal_quotient``'s and ``ideal_quotient_ideal``'s answers under
"intersect", "quotient" and "colon", keyed the same way, and
``_tag_ring``'s tagged rings under "tag ring", with the ring and the
number of tags; no tagged basis is stored.  Outside any context the
budgets are ``STEP_LIMIT`` and ``SEARCH_BUDGET`` and nothing is stored, so
every read of a basis completes it again; ``grade``,
``verify_grade_witness``, ``replay_regular_sequence``, ``icm_report`` and
``run_suite``, which read one basis many times, open a default context
when none is open (``_in_engine_context``).  The memo
and the step limit share the context's lifetime, so no basis is handed
out under a limit or in a context other than the one that built it.

A tagged ring k[tags, ring] (``_tag_ring``) has one way in,
``_eliminate_tag``: one completion that starts from a Groebner basis with
its pairs settled and adds the kernel's work dicts, and whose tag-free
elements, the tags sliced off, generate the answer.  The settled basis is
J's reduced grevlex basis in the kernel form it carries (its grevlex
twin's in another ring), times a tag monomial (``_lift_divisors``): if G
is a Groebner basis of J, t*G is one of t*J (the incremental step of
Gebauer-Moeller, J. Symb. Comp. 6, 1988), since the order compares
multiples of one tag monomial by its grevlex tail block.  So a cap b
settles t*G_a and adds (1 - t)*g for each generator g of b, and (J : f)
divides the generators of J cap <f> by f.  With I = <g_1, ..., g_s> and
its generic element f_y = sum y^(i-1) * g_i, read off I's generator terms
(``_generic_terms``), (J : I^infinity) = (J + <1 - t*f_y>) cap k[x], t and
y eliminated together, is one completion, whose one builder is
``saturate``, and (J : I) = (J*R[y] : f_y) cap R is one colon by f_y in
R[y] and one elimination of y; for s = 1, f_y = g_1 and no y is added.
A grade chain's J + <x> (``_extend``) gets its grevlex basis the same
way, from J's with x the one new generator, when the chain ideal is built.
Whether f divides zero on R/J is decided by ``is_nonzerodivisor``, the
saturation's completion for 1 - t*f stopped at the first element it adds
with a t-free leading monomial: that element lies in (J : f^infinity) and
not in J.
"""
from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import gcd, lcm as integer_lcm
from operator import add, neg, sub
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    EngineError,
    IncompatibleRingError,
    StepLimitExceededError,
    ZeroElementError,
)
from .ring_core import (
    ELIMINATION,
    GREVLEX,
    Monomial,
    Polynomial,
    RingDescriptor,
    TermOrder,
    _from_dict,
    _same_ring,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    remap_variables,
)

STEP_LIMIT = 100_000  # S-pair reductions per completion outside any context
SEARCH_BUDGET = 200  # regular-element candidates per search outside any context

# bit k stands for variable k in a support mask; 63 bits keep every mask a
# machine-word sum, and variables past them get no bit (the filter weakens)
_BITS = tuple(1 << k for k in range(63))


class _Engine(NamedTuple):
    step_limit: int
    budget: int
    memo: Optional[dict]  # read and written by _memoized only; None outside a context


_ENGINE: ContextVar[_Engine] = ContextVar(
    "icmlab_engine", default=_Engine(STEP_LIMIT, SEARCH_BUDGET, None)
)


@contextmanager
def engine_context(
    step_limit: Optional[int] = None, budget: Optional[int] = None
) -> Iterator[None]:
    """Run the enclosed computations with ``step_limit`` (default
    ``STEP_LIMIT``) as the S-pair reduction cap of every completion,
    ``budget`` (default ``SEARCH_BUDGET``) as the candidate budget of every
    regular-element search, and a fresh memo of reduced Groebner bases,
    saturations, intersections, colons and regularity decisions; all three
    are dropped on exit.  A nested context starts its own memo."""
    limit = STEP_LIMIT if step_limit is None else step_limit
    budget = SEARCH_BUDGET if budget is None else budget
    for name, value in (("step limit", limit), ("search budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError("%s must be a positive integer" % name)
    token = _ENGINE.set(_Engine(limit, budget, {}))
    try:
        yield
    finally:
        _ENGINE.reset(token)


def search_budget() -> int:
    """The regular-element search budget in force: the engine context's,
    else ``SEARCH_BUDGET``."""
    return _ENGINE.get().budget


def _in_engine_context(entry: Callable) -> Callable:
    """``entry`` run in the open engine context, else in a default one
    opened for the call: for an entry point that reads one basis many
    times.  Inside an open context it adds nothing."""

    @wraps(entry)
    def run(*args, **kwargs):
        with engine_context() if _ENGINE.get().memo is None else nullcontext():
            return entry(*args, **kwargs)

    return run


def _memoized(key: tuple, build: Callable[[], object]):
    """The memo's value under ``key``, else ``build()``, stored; outside any
    context ``build()`` just runs.  The memo's one reader and writer."""
    memo = _ENGINE.get().memo
    if memo is None:
        return build()
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = build()
    return hit


def _terms(gens: Iterable[Polynomial]) -> tuple:
    """Generators as a memo key holds them: their term tuples, in order."""
    return tuple(g.terms for g in gens)


def _integral(terms: Sequence[tuple], p: int) -> tuple:
    """The nonzero g with field ``terms`` as ``(integer terms = v * g, v)``:
    over GF(p) the monic residues and v the inverse of the first
    coefficient, over QQ the numerators over the lcm v of the denominators."""
    if p:
        v = pow(terms[0][1], -1, p)
        return tuple((m, c * v % p) for m, c in terms), v
    v = integer_lcm(*(c.denominator for _, c in terms))
    return tuple((m, c.numerator * (v // c.denominator)) for m, c in terms), v


def _divisor(terms: tuple) -> tuple:
    """The kernel's view of a divisor given by its integer terms."""
    ltm, lc = terms[0]
    return ltm, sum(ltm), lc, terms[1:], sum(compress(_BITS, ltm))


def _work(g: Polynomial, p: int) -> dict:
    """A nonzero g as a work dict of the kernel: its residues over GF(p),
    its numerators over the lcm of the denominators over QQ."""
    return dict(g.terms if p else _integral(g.terms, 0)[0])


def _lift_divisors(divs: Sequence[tuple], head: Monomial) -> tuple:
    """Kernel divisors over a ring's variables times the tag monomial
    ``head`` (zeros for a saturation, t for an intersection), as divisors
    over k[tags, ring] (``_tag_ring``): each monomial prefixed by ``head``,
    each degree raised by head's, and each mask shifted past the tags' bits,
    cut to ``_BITS`` and joined with head's; the tuples ``_divisor`` builds
    from the lifted basis.  Head times a grevlex basis of J is a Groebner
    basis of head * J, as the order compares multiples of one tag monomial
    by its grevlex tail block."""
    ntags, hdeg = len(head), sum(head)
    hmask = sum(compress(_BITS, head))
    keep = (1 << len(_BITS)) - 1
    return tuple(
        (head + ltm, deg + hdeg, lc, tuple((head + m, c) for m, c in tail), (mask << ntags) & keep | hmask)
        for ltm, deg, lc, tail, mask in divs
    )


def _reduce(work: dict, divs: Sequence[tuple], p: int, dkey, table: Optional[dict] = None) -> tuple:
    """The division kernel: the completion's reductions, ``normal_form`` and
    the exponent loop of ``saturate``.

    ``work`` (f) maps monomials to integer coefficients; ``divs`` holds one
    ``(leading monomial, its degree, leading coefficient, tail terms,
    support mask)`` per divisor d_i, monic over GF(p), as ``_divisor``
    builds it.  Returns ``(r, scale)`` with scale * f = sum(q_i * d_i) + r
    over the integers (modulo p over GF(p), r reduced) for some q_i, r's
    terms sorted decreasing; the scale is 1 over GF(p).

    ``table`` maps each monomial the kernel has met to its record ``[key,
    monomial, coefficient, n, step]``: the ``TermOrder.descending_key``,
    computed once; the work coefficient while the record is queued (0 once
    cancelled), else None; ``n``, the number of divisors known not to
    divide the monomial; and ``step``, None until a divisor is found, then
    ``(leading coefficient, shifted tail, tail)`` of the first one, the
    shifted tail as records of the same table.  A completion (``_grow``)
    passes one table to all of its reductions, so a monomial met again is
    neither scanned against the divisors that passed it over nor shifted
    again.  This is exact because a completion only appends to ``divs``:
    the first divisor that divides a monomial never changes, and one that
    no divisor divided is scanned only against ``divs[n:]``; the divisor
    chosen, the remainder and the step count are the same as with a fresh
    table.  ``normal_form`` and the autoreduction pass a different divisor
    list on each call, so they get a fresh table, as does each reduction of
    the exponent loop; a table never outlives its completion, and neither
    the memo nor a ``ReducedGB`` holds one.

    The work is a heap of queued records; a step adds only terms below the
    one it consumes, so r comes out already sorted, and a term cancelled
    to zero stays queued with coefficient 0 and is skipped when popped.
    Keys are distinct, one record per monomial, and a record is queued at
    most once, so no comparison goes past the key.  One step serves both
    fields: against leading coefficient lc it consumes c * x^a, with g the
    gcd of lc and c given lc's sign, by scaling the queued coefficients by
    lc/g > 0 and subtracting (c/g) * x^a/lm * tail, the field step times a
    unit, so which divisor acts on which monomial is exactly as in the
    field algorithm; lc = 1, as over GF(p), scales nothing.  GF(p) sums are
    left unreduced, and a popped coefficient is reduced modulo p once,
    before its zero test.  Emitted remainder terms keep the running scale
    at their emission and get the missing factor once, at the end; the
    scale only grows, so it ends at 1 only when no step scaled.

    A popped monomial's support mask is taken once; a divisor whose mask has
    a bit outside it cannot divide, and is passed over before the exponent
    comparison.  The filter only rejects non-divisors, so the first divisor
    that divides is the same with it as without.
    """
    if table is None:
        table = {}
    heap = []
    for m, c in work.items():
        rec = table.get(m)
        if rec is None:
            rec = table[m] = [dkey(m), m, c, 0, None]
        else:
            rec[2] = c
        heap.append(rec)
    heapify(heap)
    ndivs = len(divs)
    emitted, scales = [], []  # remainder terms, the running scale at each emission
    scale = 1
    while heap:
        rec = heappop(heap)
        c = rec[2]
        rec[2] = None
        if p:
            c %= p  # the one reduction of a GF(p) coefficient, at its pop
        if not c:
            continue  # cancelled after it was queued
        mono = rec[1]
        step = rec[4]
        if step is None:
            n = rec[3]
            if n == ndivs:
                emitted.append((mono, c))
                scales.append(scale)
                continue
            deg = sum(mono)
            outside = ~sum(compress(_BITS, mono))
            for ltm, ltdeg, lc, tail, mask in islice(divs, n, None) if n else divs:
                if ltdeg <= deg and not mask & outside and all(map(int.__le__, ltm, mono)):
                    break
            else:
                rec[3] = ndivs
                emitted.append((mono, c))
                scales.append(scale)
                continue
        else:
            lc, shifted, tail = step
        if lc == 1:
            q = -c
        else:
            g = gcd(lc, c) if lc > 0 else -gcd(lc, c)
            q = -(c // g)
            s = lc // g
            if s != 1:
                scale *= s
                for r2 in heap:
                    r2[2] *= s
        if step is None:
            # the first step on this monomial shifts the tail as it applies it
            shift = tuple(map(sub, mono, ltm))
            shifted = []
            for m2, c2 in tail:
                m = tuple(map(add, shift, m2))
                r2 = table.get(m)
                if r2 is None:
                    r2 = table[m] = [dkey(m), m, q * c2, 0, None]
                    heappush(heap, r2)
                else:
                    old = r2[2]
                    if old is None:
                        r2[2] = q * c2
                        heappush(heap, r2)
                    else:
                        r2[2] = old + q * c2
                shifted.append(r2)
            rec[4] = lc, shifted, tail
        else:
            for r2, (_, c2) in zip(shifted, tail):
                old = r2[2]
                if old is None:
                    r2[2] = q * c2
                    heappush(heap, r2)
                else:
                    r2[2] = old + q * c2
    if scale != 1:
        emitted = [(m, c * (scale // s)) for (m, c), s in zip(emitted, scales)]
    return tuple(emitted), scale


def divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The exact quotient f / g by a nonzero g; raises ``EngineError`` when
    g does not divide f.

    Long division by g alone, largest term first.  {g} is a Groebner basis
    of <g>, so g divides f exactly when every leading term met on the way
    is a multiple of g's; the first that is not would stay in a nonzero
    remainder.  The quotient's terms come out already sorted.
    """
    _same_ring(f, g)
    if g.is_zero:
        raise ZeroElementError("cannot divide by the zero polynomial")
    ltm, lc = g.terms[0]
    inv = f.ring.field.invert(lc)
    quotient, rest = [], f
    while rest.terms:
        mono, c = rest.terms[0]
        if not monomial_divides(ltm, mono):
            raise EngineError("%s is not a multiple of %s" % (f, g))
        term = monomial_div(mono, ltm), f.ring.field.mul(c, inv)
        quotient.append(term)
        rest = rest - g.shift(*term)
    return Polynomial(f.ring, tuple(quotient))


class ReducedGB:
    """The reduced monic Groebner basis of an ideal, sorted by increasing
    leading monomial.  Unique per (ideal, term order).

    ``steps`` is the number of S-pair reductions the completion that built
    it took.  It depends on the route (generators, settled prefix), not only
    on the ideal, so it is not part of equality; the memo keeps the first
    route's, which met the step limit of the context that stores it.
    ``_divisors``, the basis as the division kernel views it, is the form
    its completion ended with; it is not part of equality either.
    """

    __slots__ = ("ring", "basis", "steps", "_divisors")

    def __init__(self, ring: RingDescriptor, basis: Tuple[Polynomial, ...], steps: int, divs: tuple):
        self.ring = ring
        self.basis = basis
        self.steps = steps
        self._divisors = divs

    @property
    def is_unit_ideal(self) -> bool:
        return bool(self.basis) and sum(self.basis[0].leading_monomial()) == 0

    def __len__(self) -> int:
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedGB):
            return NotImplemented
        return self.ring == other.ring and self.basis == other.basis

    def __hash__(self):
        return hash((self.ring, self.basis))

    def __repr__(self) -> str:
        return "ReducedGB[%s]" % ", ".join(str(p) for p in self.basis)


# no caller in icmlab: kept only as a target of icmbench's tracer (ROADMAP 1(e))
def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: both leading terms scaled onto their lcm and cancelled."""
    _same_ring(f, g)
    field = f.ring.field
    lf, cf = f.leading_term()
    lg, cg = g.leading_term()
    lcm = monomial_lcm(lf, lg)
    a = f.shift(monomial_div(lcm, lf), field.invert(cf))
    b = g.shift(monomial_div(lcm, lg), field.invert(cg))
    return a - b


def _monic(ltm: Monomial, lc: int, tail: tuple, p: int) -> tuple:
    """A normalized basis element as the monic terms of the field."""
    if p:
        return ((ltm, 1),) + tail
    return ((ltm, Fraction(1)),) + tuple((m, Fraction(c, lc)) for m, c in tail)


def _normalize(terms: tuple, p: int) -> tuple:
    """A nonzero remainder as the completion keeps it: monic over GF(p),
    primitive with a positive leading coefficient over QQ."""
    if p:
        inv = pow(terms[0][1], -1, p)
        return tuple((m, c * inv % p) for m, c in terms)
    content = gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        content = -content
    return tuple((m, c // content) for m, c in terms)


def _s_pair(lcm: Monomial, a: tuple, b: tuple) -> dict:
    """The work of the S-pair of divisors ``a`` and ``b``: with g the gcd of
    their leading coefficients, (lc_b/g) * lcm/lm_a * a - (lc_a/g) * lcm/lm_b * b,
    whose leading terms cancel, so only the tails enter.  Over GF(p) both
    cofactors are 1, and ``_reduce`` reduces the sums, 0 included."""
    lta, _, ca, taila, _ = a
    ltb, _, cb, tailb, _ = b
    g = gcd(ca, cb)
    fa, fb = cb // g, ca // g
    shift = tuple(map(sub, lcm, lta))
    work = {tuple(map(add, shift, m)): fa * c for m, c in taila}
    shift = tuple(map(sub, lcm, ltb))
    for m2, c2 in tailb:
        m = tuple(map(add, shift, m2))
        work[m] = work.get(m, 0) - fb * c2
    return work


def buchberger(
    generators: Iterable[Polynomial], *, ring: Optional[RingDescriptor] = None
) -> ReducedGB:
    """Complete ``generators`` to the reduced Groebner basis under the ring's
    term order.

    The number of S-polynomial reductions is bounded by the step limit in
    force (the engine context's, else ``STEP_LIMIT``); exceeding it raises
    StepLimitExceededError.  Inside an engine context the result is
    memoized by (ring, ordered generator terms), the key of every stored
    basis, whichever route built it.

    The working basis is term tuples with integer coefficients, reduced by
    the kernel ``_reduce``: monic residues over GF(p), primitive integer
    polynomials with a positive leading coefficient over QQ.  Each is a
    unit multiple of the monic basis element the field algorithm keeps, so
    the leading monomials, the pairs reduced and ``steps`` are the field
    algorithm's.  The reduced basis is made monic, with ``Fraction``
    coefficients over QQ, only when it leaves.
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise IncompatibleRingError("generator outside the target ring")
    return _memoized((ring, _terms(gens)), lambda: _complete(ring, gens, ()))


def _complete(ring: RingDescriptor, gens: Sequence, settled: tuple) -> ReducedGB:
    """The completion of ``buchberger`` on ``settled`` + ``gens`` with
    ``settled`` a Groebner basis already, given in kernel form
    (``ReducedGB._divisors``, lifted by ``_lift_divisors`` into a tagged
    ring): the pairs inside it are never formed, so never pending, and the
    chain criterion stays sound.  A generator is a ``Polynomial``
    (``buchberger``, a chain's x), converted by ``_work``, or a work dict
    of the kernel (``_eliminate_tag``).  It reads only the step limit; its
    callers memoize."""
    p = ring.field.characteristic
    dkey = ring.order.descending_key
    works = [g if isinstance(g, dict) else _work(g, p) for g in gens if g]
    divs: List[tuple] = []  # the working basis, as the kernel views it
    steps = _grow(ring, works, settled, divs)

    # minimal basis: scan by increasing leading monomial, drop dominated ones;
    # leading monomials are distinct, each one reduced by those before it
    minimal: List[tuple] = []
    for d in sorted(divs, key=lambda d: dkey(d[0]), reverse=True):
        lm, deg, _, _, mask = d
        outside = ~mask
        if any(
            k[1] <= deg and not k[4] & outside and all(map(int.__le__, k[0], lm))
            for k in minimal
        ):
            continue
        minimal.append(d)

    # full autoreduction; leading terms are pairwise non-dividing so they survive
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1 :]
        if others:
            ltm, _, lc, tail, _ = minimal[idx]
            r = _reduce(dict(((ltm, lc),) + tail), others, p, dkey)[0]
            minimal[idx] = _divisor(_normalize(r, p))

    # minimal is ascending in the order and autoreduction keeps leading terms
    basis = tuple(Polynomial(ring, _monic(ltm, lc, tail, p)) for ltm, _, lc, tail, _ in minimal)
    return ReducedGB(ring, basis, steps, tuple(minimal))


def _grow(
    ring: RingDescriptor,
    works: Sequence[dict],
    settled: Sequence[tuple],
    divs: List[tuple],
    stop: Optional[Callable[[Monomial], bool]] = None,
) -> Optional[int]:
    """The pair loop of ``_complete``: appends the kernel divisors
    ``settled``, then every nonzero remainder of the work dicts ``works``
    (monomials to integer coefficients, any unit multiple of a generator)
    and of the S-pairs, to ``divs`` in kernel form, and returns the number
    of S-pair reductions, under the step limit in force.  With ``stop``
    given, it returns None as soon as an element joins whose leading
    monomial satisfies it.  ``divs`` is the loop's only record of a basis
    element, and each pair's lcm rides in its heap entry."""
    limit = _ENGINE.get().step_limit
    p = ring.field.characteristic
    dkey = ring.order.descending_key
    divs.extend(settled)
    table: dict = {}  # the kernel's monomial records, shared by every reduction below
    pending: set = set()
    heap: list = []

    def add_poly(terms: tuple) -> bool:
        """Adds a basis element; True when ``stop`` holds for it."""
        new = _divisor(terms)
        j, ltj, degj = len(divs), new[0], new[1]
        for i, (lti, degi, _, _, _) in enumerate(divs):
            lcm = monomial_lcm(lti, ltj)
            deg = sum(lcm)
            if deg == degi + degj:
                # coprime leading terms: the S-polynomial reduces to zero
                continue
            pending.add((i, j))
            # one flat entry per pair: pairs pop by lcm degree, then by
            # increasing lcm in the term order (the negated descending key);
            # no two entries share (i, j), so the lcm is never compared
            heappush(heap, (deg, *map(neg, dkey(lcm)), i, j, lcm))
        divs.append(new)
        return stop is not None and stop(ltj)

    for work in works:
        r = _reduce(work, divs, p, dkey, table)[0]
        if r and add_poly(_normalize(r, p)):
            return None

    steps = 0
    while heap:
        pair = heappop(heap)
        deg, i, j, lcm = pair[0], pair[-3], pair[-2], pair[-1]
        pending.remove((i, j))
        outside = ~(divs[i][4] | divs[j][4])  # the lcm's support is the union
        chained = False
        for t, (ltt, degt, _, _, mask) in enumerate(divs):
            if t == i or t == j:
                continue
            if degt <= deg and not mask & outside and all(map(int.__le__, ltt, lcm)):
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    chained = True
                    break
        if chained:
            continue
        steps += 1
        if steps > limit:
            raise StepLimitExceededError(
                "Buchberger completion exceeded %d S-pair reductions; raise the "
                "step limit if the input really is this hard" % limit
            )
        r = _reduce(_s_pair(lcm, divs[i], divs[j]), divs, p, dkey, table)[0]
        if r and add_poly(_normalize(r, p)):
            return None
    return steps


def normal_form(f: Polynomial, basis: ReducedGB) -> Polynomial:
    """The remainder of f on division by the reduced basis: canonical, and
    zero exactly when f lies in the ideal.

    One run of the kernel ``_reduce`` against the kernel form the basis
    carries, so a normal form converts only f and its remainder.
    """
    ring = f.ring
    if ring is not basis.ring and ring != basis.ring:
        raise IncompatibleRingError("polynomial and basis live in different rings")
    if f.is_zero or not basis.basis:
        return f
    p = ring.field.characteristic
    dkey = ring.order.descending_key
    if p:
        return Polynomial(ring, _reduce(dict(f.terms), basis._divisors, p, dkey)[0])
    # w * f = sum(q_i * d_i) + r over the integers, so f's remainder is r / w
    terms, v = _integral(f.terms, 0)
    r, scale = _reduce(dict(terms), basis._divisors, 0, dkey)
    w = v * scale
    return Polynomial(ring, tuple((m, Fraction(c, w)) for m, c in r))


class Ideal:
    """An ideal of an affine polynomial ring, held by generators.

    An Ideal holds its ring and its generators.  It stores no basis; the
    engine context's memo does (``groebner_basis``).  Nothing in it changes
    after construction, so sharing an Ideal across threads is safe.
    """

    __slots__ = ("ring", "generators")

    def __init__(self, ring: RingDescriptor, generators: Iterable[Polynomial] = ()):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be Polynomials, got %r" % (g,))
            if g.ring != ring:
                raise IncompatibleRingError("generator outside the ideal's ring")
            if g.terms:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_basis(self) -> ReducedGB:
        """The reduced basis, read through the memo under the key
        ``buchberger`` gives the same generators: stored in an engine
        context, completed again on every read outside one."""
        return buchberger(self.generators, ring=self.ring)

    def contains(self, f: Polynomial) -> bool:
        return membership(f, self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return ideal_equal(self, other)

    __hash__ = None  # semantic equality is GB equality; hashing would lie

    def __repr__(self) -> str:
        if not self.generators:
            return "Ideal<0>"
        return "Ideal<%s>" % ", ".join(str(g) for g in self.generators)


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of saturating J by I: the stable ideal (J : I^infinity) and
    the least exponent k with (J : I^k) already equal to it."""

    ideal: Ideal
    exponent: int


def membership(f: Polynomial, J: Ideal) -> bool:
    if f.ring != J.ring:
        raise IncompatibleRingError("polynomial outside the ideal's ring")
    if f.is_zero:
        return True
    return normal_form(f, J.groebner_basis()).is_zero


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality as ideals, decided by comparing reduced Groebner bases."""
    _same_ring(a, b)
    return a.groebner_basis().basis == b.groebner_basis().basis


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    return Ideal(a.ring, a.generators + b.generators)


def _tag_ring(ring: RingDescriptor, ntags: int) -> RingDescriptor:
    """k[tags, ring] with ``ntags`` tag variables (t, then y, or t0, t1, ...
    when taken) in front, under an order eliminating them that compares
    tag-free monomials by its grevlex tail block.  Built once per engine
    context and pair of arguments (``_memoized``)."""

    def build() -> RingDescriptor:
        tags: Tuple[str, ...] = ()
        for base in ("t",) + ("y",) * (ntags - 1):
            name, k = base, 0
            while name in ring.variables + tags:
                name, k = "%s%d" % (base, k), k + 1
            tags += (name,)
        return RingDescriptor(ring.field, tags + ring.variables, TermOrder(ELIMINATION, ntags))

    return _memoized(("tag ring", ring, ntags), build)


def _eliminate_tag(ring: RingDescriptor, ntags: int, works: Sequence[dict], settled: tuple) -> Ideal:
    """K intersect k[ring] for K = <settled, works> in k[tags, ring]
    (``_tag_ring``), the one route into a tagged ring: one ``_complete``
    from ``settled``, a Groebner basis there in kernel form lifted by
    ``_lift_divisors``, with the work dicts ``works`` added.  The basis is
    not stored.  Its tag-free elements lead it and generate the answer,
    contracted by slicing the tags off their monomials; the order compares
    tag-free monomials by its grevlex tail block, so the terms stay sorted
    for a grevlex ``ring`` and are sorted again for any other."""
    G = _complete(_tag_ring(ring, ntags), works, settled)
    dkey = None if ring.order.kind == GREVLEX else ring.order.descending_key
    out = []
    for g in G.basis:
        if any(g.terms[0][0][:ntags]):
            break  # a tag in the leading monomial, and so in every later one
        terms = tuple((m[ntags:], c) for m, c in g.terms)
        if dkey is not None:
            terms = tuple(sorted(terms, key=lambda term: dkey(term[0])))
        out.append(Polynomial(ring, terms))
    return Ideal(ring, out)


def _meet(ring: RingDescriptor, seed: tuple, gens: Sequence[Polynomial]) -> Ideal:
    """a cap <gens> = (t*a + (1 - t)*<gens>) cap k[ring] for the ideal a
    with reduced grevlex basis ``seed`` in kernel form: t*seed settled, and
    (1 - t)*g for each generator g as a work dict."""
    p = ring.field.characteristic
    # (1 - t)*g: each term c*x^m of g gives c*x^m and -c*t*x^m
    works = [{(k,) + m: -c if k else c for m, c in _work(g, p).items() for k in (0, 1)} for g in gens]
    return _eliminate_tag(ring, 1, works, _lift_divisors(seed, (1,)))


def _seed(J: Ideal) -> tuple:
    """J's reduced grevlex basis in kernel form, its grevlex twin's in any
    other ring: the seed of every tagged completion from J."""
    return _grevlex_twin(J).groebner_basis()._divisors


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via a tag variable: (t*a + (1-t)*b) with t eliminated,
    completed from t times a's reduced grevlex basis, settled; memoized
    under "intersect" with the ring and both generator lists."""
    _same_ring(a, b)
    if a.is_zero_ideal or b.is_zero_ideal:
        return Ideal(a.ring, ())
    return _memoized(
        ("intersect", a.ring, _terms(a.generators), _terms(b.generators)),
        lambda: _meet(a.ring, _seed(a), b.generators),
    )


def _colon(ring: RingDescriptor, seed: tuple, f: Polynomial) -> Ideal:
    """(J : f) = (1/f) * (J cap <f>) for the ideal J with reduced grevlex
    basis ``seed``: each generator of ``_meet``'s answer divided by f."""
    return Ideal(ring, [divide(g, f) for g in _meet(ring, seed, (f,)).generators])


def ideal_quotient(J: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (J : f), computed as (1/f) * (J intersect <f>);
    memoized under "quotient" with the ring and J's and f's terms."""
    if f.ring != J.ring:
        raise IncompatibleRingError("polynomial outside the ideal's ring")
    if f.is_zero:
        raise ZeroElementError("colon by the zero polynomial is undefined")
    return _memoized(
        ("quotient", J.ring, _terms(J.generators), (f.terms,)),
        lambda: _colon(J.ring, _seed(J), f),
    )


def _generic_terms(gens: Sequence[Polynomial], head: Monomial) -> Iterator[tuple]:
    """The terms of head * f_y for the generic element f_y = sum y^(i-1) *
    g_i of ``gens``, read off the generators' terms with their field
    coefficients: the monomials of g_i carry ``head`` and then y^(i-1), or
    ``head`` alone for s = 1, which adds no y.  No two share a monomial."""
    for i, g in enumerate(gens):
        lead = head + (i,) if len(gens) > 1 else head
        for m, c in g.terms:
            yield lead + m, c


def _rabinowitsch(gens: Sequence[Polynomial]) -> dict:
    """v * (1 - t*f_y) for the generic element f_y of ``gens``
    (``_generic_terms``) as a work dict of the kernel over k[t, (y,) ring],
    the ``_tag_ring`` of min(s, 2) tags, with no ``Polynomial`` in between:
    v * t*f_y is the integer form ``_integral`` gives, and v is a unit, over
    QQ the lcm of the denominators.  The constant carries no t, so it
    shares a monomial with no other term."""
    ring = gens[0].ring
    terms, v = _integral(tuple(_generic_terms(gens, (1,))), ring.field.characteristic)
    work = {(0,) * (min(len(gens), 2) + ring.nvars): v}
    work.update((m, -c) for m, c in terms)
    return work


def _product(a: tuple, b: tuple) -> dict:
    """The work dict of the product of two polynomials given by integer
    terms; over GF(p) the kernel reduces the sums."""
    work: dict = {}
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            work[m] = work.get(m, 0) + c1 * c2
    return work


def ideal_quotient_ideal(J: Ideal, I: Ideal) -> Ideal:
    """The colon ideal (J : I) = {h : h*I inside J}.

    For I = <g_1, ..., g_s> and the generic element f_y = sum y^(i-1) * g_i
    in one new variable y, (J : I) = (J*R[y] : f_y) cap R: h * f_y =
    sum y^(i-1) * h*g_i lies in J*R[y] exactly when every h*g_i lies in J.
    So it is one colon by f_y in R[y] = ``_tag_ring(ring, 1)`` and one
    elimination of y, both from J's reduced grevlex basis lifted into R[y],
    a Groebner basis of J*R[y]; for s = 1 it is ``ideal_quotient(J, g_1)``.
    For s >= 2 it is memoized under "colon" with the ring and J's and I's
    generator terms.
    """
    _same_ring(J, I)
    gens = I.generators
    if not gens:
        raise ZeroElementError("colon by the zero ideal is undefined")
    if len(gens) == 1:
        return ideal_quotient(J, gens[0])

    def colon_ideal() -> Ideal:
        Ry = _tag_ring(J.ring, 1)
        seed = _lift_divisors(_seed(J), (0,))
        colon = _colon(Ry, seed, _from_dict(Ry, dict(_generic_terms(gens, ()))))
        p = J.ring.field.characteristic
        return _eliminate_tag(J.ring, 1, [_work(g, p) for g in colon.generators], seed)

    return _memoized(("colon", J.ring, _terms(J.generators), _terms(gens)), colon_ideal)


def _grevlex_twin(J: Ideal) -> Ideal:
    """J itself in a grevlex ring, else J's grevlex twin: the same
    generators in the grevlex twin of its ring, built on each call; the
    memo shares the twin's basis."""
    if J.ring.order.kind == GREVLEX:
        return J
    ring = RingDescriptor(J.ring.field, J.ring.variables)
    return Ideal(ring, [remap_variables(g, ring, range(ring.nvars)) for g in J.generators])


def _extend(J: Ideal, x: Polynomial) -> Ideal:
    """J + <x>, the next ideal of a chain (``grade``'s J_{k+1} = J_k + <x_k>
    and its replay), generated by J's generators and then x.  Its grevlex
    basis, its grevlex twin's in any other ring, is completed here from x
    with J's (``_seed``) settled, so no pair inside J's basis is formed
    again (the incremental step of Gebauer-Moeller, J. Symb. Comp. 6, 1988),
    and stored under the key ``buchberger`` gives the twin's generators."""
    K = Ideal(J.ring, J.generators + (x,))
    twin = _grevlex_twin(K)
    _memoized((twin.ring, _terms(twin.generators)), lambda: _complete(twin.ring, twin.generators[-1:], _seed(J)))
    return K


def saturate(J: Ideal, I: Ideal) -> SaturationResult:
    """(J : I^infinity) as one Groebner basis, plus the least exponent k
    with (J : I^k) already equal to it; k is 0 exactly when the saturation
    is J.  The one builder of a saturation.

    For I = <g_1, ..., g_s> and the generic element f_y = sum y^(i-1) * g_i
    in one new variable y, (J : I^infinity) = (J*R[y] : f_y^infinity) cap R
    over every field (Eisenbud-Huneke-Vasconcelos): f_y lies in P[y] exactly
    when I lies in the prime P.  So the saturation is (J + <1 - t*f_y>) with
    t and y eliminated (Rabinowitsch): J's reduced grevlex basis, settled,
    and 1 - t*f_y as the kernel's work dict (``_rabinowitsch``).

    The exponent is the least k with I^k * sat inside J: normal forms modulo
    J of sat's generators are multiplied by each g in I and reduced again
    until all vanish; NF(g * NF(h)) = NF(g * h) makes this exact.  The loop
    runs on the kernel's integer terms, against the same grevlex basis of J:
    whether a product lies in J does not depend on the order, and a
    remainder is a unit times the field's normal form, which is linear, so
    the remainders vanish in the same round in any order and field.  Inside
    an engine context the result is memoized under "saturate" with the ring
    and J's and I's generator terms, the only memo of its seeded completion.
    """
    _same_ring(J, I)
    gens = I.generators
    if not gens:
        raise ZeroElementError("saturation by the zero ideal is undefined")

    def saturation() -> SaturationResult:
        seed = _seed(J)
        ntags = min(len(gens), 2)
        sat = _eliminate_tag(J.ring, ntags, [_rabinowitsch(gens)], _lift_divisors(seed, (0,) * ntags))
        p = J.ring.field.characteristic
        dkey = TermOrder(GREVLEX).descending_key

        def remainders(works: Iterable[dict]) -> set:
            """The distinct nonzero remainders modulo J, normalized."""
            out = set()
            for work in works:
                r = _reduce(work, seed, p, dkey)[0]
                if r:
                    out.add(_normalize(r, p))
            return out

        factors = [_integral(g.terms, p)[0] for g in gens]
        rest = remainders(_work(s, p) for s in sat.generators)
        exponent = 0
        while rest:
            rest = remainders(_product(g, h) for g in factors for h in rest)
            exponent += 1
        return SaturationResult(sat, exponent)

    return _memoized(("saturate", J.ring, _terms(J.generators), _terms(gens)), saturation)


def is_nonzerodivisor(J: Ideal, f: Polynomial) -> bool:
    """True when f is a nonzerodivisor on R/J, i.e. (J : f^infinity) = J.

    The completion of J + <1 - t*f> that ``saturate`` runs, seeded with
    J's reduced grevlex basis settled, decides it on its way.  Every element
    it adds is a nonzero remainder reduced by a Groebner basis of J, so not
    in J; one whose leading monomial is free of t is free of t (the order
    eliminates t), so it lies in (J : f^infinity) outside J, and the
    completion stops there with False.  When the pairs run out without
    one, the tag-free part of the basis is J's, and the answer is True.
    For f in J it stops at the generator, since 1 - t*f reduces to 1.  The
    generator is the kernel's work dict (``_rabinowitsch``), and no minimal
    basis, contraction or normal form is built.  Inside an engine
    context the decision is memoized under "regular" with the ring and J's
    and f's terms, read before anything is lifted; outside one it is made
    again on every call.
    """
    if f.ring != J.ring:
        raise IncompatibleRingError("polynomial outside the ideal's ring")
    if f.is_zero:
        raise ZeroElementError("saturation by the zero ideal is undefined")

    def decide() -> bool:
        aug, seed = _tag_ring(J.ring, 1), _lift_divisors(_seed(J), (0,))
        return _grow(aug, [_rabinowitsch([f])], seed, [], stop=lambda lm: not lm[0]) is not None

    return _memoized(("regular", J.ring, _terms(J.generators), (f.terms,)), decide)


def extend_ring(J: Ideal, new_names: Sequence[str]) -> Ideal:
    """The extension of J to the polynomial ring with extra variables
    appended; generators are carried over verbatim."""
    ring = J.ring
    new_names = tuple(new_names)
    if not new_names:
        return J
    ext = RingDescriptor(ring.field, ring.variables + new_names, ring.order)
    lift = list(range(ring.nvars))
    return Ideal(ext, [remap_variables(g, ext, lift) for g in J.generators])
