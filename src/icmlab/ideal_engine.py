"""Buchberger completion and the ideal calculus built on top of it.

The completion uses the normal selection strategy (pairs with the smallest
lcm degree first, ties broken by the term order), discards pairs with
coprime leading terms at creation, before their lcm is formed, and applies
the chain criterion at pop time: a pair (i, j) is dropped when some third
leading term divides its lcm and both companion pairs are settled.  Output
is always the reduced monic basis, unique per ideal and term order, so
everything downstream is deterministic.

Every remainder comes from one kernel on integer coefficients, ``_reduce``:
the completion's reductions, ``normal_form`` and the saturation's exponent
loop.  Over GF(p) its divisors are monic residues; over QQ they are
primitive integer polynomials with a positive leading coefficient, reduced
fraction-free by the primitive pseudo-remainder of Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra* (1992).  ``Fraction`` coefficients are
cleared on entry and come back only in ``normal_form``'s remainder and in
the monic basis a ``ReducedGB`` builds from the one form its completion,
or ``_fglm``, hands it: its kernel divisors.
``divide`` is exact division by one polynomial, the colon's last step.

Inside the kernel a monomial is one int (``_Packing``, the packed exponent
vectors of Monagan & Pearce, CASC 2007): the entries of its
``descending_key``, each in a field of fixed width under a guard bit.  Int
order is the pop order, a product one add, divisibility one subtraction and
one mask, and a field that outgrows its width flips its guard bit; the work
is then redone at twice the width (``_packed``), the same pairs in the same
order, so no overflow wraps or changes a result.  Each completion keeps one
table of monomial records, keyed by the packed monomial, shared by its
reductions and dropped when it returns: how many divisors passed a monomial
over, or its reducer, the shifted tail as records of the same table (the
reused multiples of F4's symbolic preprocessing, Faugere, J. Pure Appl.
Algebra 139, 1999, without the matrix).  A completion only appends
divisors, so the records give every remainder and step count exactly.

``engine_context`` opens an engine context for the current thread or task
(a ``ContextVar``), the one place that holds the budgets: the step limit
of every completion (hit, it raises rather than spins), the candidate
budget of the regular-element search (``search_budget``), and the memo,
the engine's one store of results (an ``Ideal`` stores none), which only
``_memoized`` reads and writes.  A key names what is stored, not the route
that built it: a reduced basis is keyed by its ideal's ring (order
included) and ordered generators, each of which keeps its hash, so a
chain ideal from ``_extend`` and an ``Ideal`` with the same generators
share one entry; a derived fact
by its operands' reduced grevlex bases (``_seed``), so every presentation
of the ideals shares one: "saturate", "intersect" and "colon" with the
ring and both bases, "regular" and "quotient" with J's basis and the
element; no tagged basis is stored.  The memo holds results only: the
layouts ``_packing``, ``_tag_ring`` and ``_grevlex_ring`` are built once
per process.
Outside any context the budgets are ``STEP_LIMIT`` and ``SEARCH_BUDGET``
and nothing is stored; ``verify_grade_witness``,
``replay_regular_sequence``, ``run_suite``, the grade chain
(``invariants._grade_and_dimensions``) and the relation checks that run
several chains read one basis many times, so each opens a default context
when none is open (``_in_engine_context``).  No basis is handed out under
another limit or context than the one that built it.

A tagged ring k[t, y, ring] (``_tag_ring``) has two ways in, each a run of
the pair loop that starts from a Groebner basis with its pairs settled and
adds the kernel's work dicts: ``_eliminate_tag``, one completion whose
tag-free elements, the tags sliced off, generate the answer, and
``is_nonzerodivisor``, the saturation's completion for 1 - t*f stopped at
the first element with a t-free leading monomial, which lies in (J :
f^infinity) and not in J.  In both the settled basis is J's reduced
grevlex basis (its grevlex twin's in another ring) times a tag monomial
(``_lift_divisors``): if G is a Groebner basis of J, t*G is one of t*J
(the incremental step of Gebauer-Moeller, J. Symb. Comp. 6, 1988), as the
order compares multiples of one tag monomial by its grevlex tail block.
So a cap b settles t*G_a and adds (1 - t)*g for each g in b's reduced
grevlex basis, and (J : f) divides the generators of J cap <f> by f.  With
I's reduced grevlex basis g_1, ..., g_s and its generic element f_y = sum
y^(i-1) * g_i (``_generic_terms``), (J : I^infinity) = (J + <1 - t*f_y>)
cap k[x] is one completion, and (J : I) = (J*R[y] : f_y) cap R one colon
by f_y in R[y], t idle, and one elimination of y; for s = 1 the colon is
``ideal_quotient``'s, and f_y = g_1 leaves y idle, exponent 0 throughout.
A grade chain's J + <x> (``_extend``) gets its grevlex basis from J's with
x the one new generator.

Outside grevlex, the basis of a zero-dimensional ideal is converted from
its grevlex twin's by FGLM (``_fglm``, the kernel's normal forms against
the twin's divisors) and carries the twin's steps; the ring's own order
completes only the other ideals (``_build``).

Monomial ideals skip the pair loop.  The S-polynomial of two monomials is
zero (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2), so
when a completion's works and settled basis are all monomials, on every
route, their minimal ones are the reduced basis, with 0 steps; a term f is
regular modulo a monomial ideal exactly when it shares no variable with
its basis; and the saturation of a monomial J by a monomial I, both read
off their bases whatever their generators, and its exponent, are read off
the exponents, with no tagged ring (``_monomial_saturation``).
"""
from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache, wraps
from heapq import heapify, heappop, heappush
from itertools import chain, compress, islice
from math import gcd, lcm as integer_lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import staircase
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
    Record,
    RingDescriptor,
    TermOrder,
    _from_dict,
    _same_ring,
    minimalize_monomials,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    remap_variables,
)

STEP_LIMIT = 100_000  # S-pair reductions per completion outside any context
SEARCH_BUDGET = 200  # regular-element candidates per search outside any context


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


def _integral(terms: Sequence[tuple], p: int) -> tuple:
    """The nonzero g with field ``terms`` as ``(integer terms = v * g, v)``:
    over GF(p) the monic residues and v the inverse of the first
    coefficient, over QQ the numerators over the lcm v of the denominators."""
    if p:
        v = pow(terms[0][1], -1, p)
        return tuple((m, c * v % p) for m, c in terms), v
    v = integer_lcm(*(c.denominator for _, c in terms))
    return tuple((m, c.numerator * (v // c.denominator)) for m, c in terms), v


class _Overflow(Exception):
    """A packed monomial outgrew its fields; ``_packed`` redoes the work wider."""


class _Packing:
    """The monomials of one ring as ints at one field width w (Monagan &
    Pearce, CASC 2007).  P(m) holds the entries of ``descending_key(m)``,
    the first one highest, each in w bits under a guard bit; an entry that
    is negated (a degree, a lex exponent) is stored complemented, guard bit
    set, so every field is non-negative.  Then int order is key order,
    P(a*b) = P(a) + P(b) - P(1) whenever no field overflows, and an overflow
    flips its field's guard bit.  A variable's exponent field is the last
    entry it enters, of sign ``flip``; a degree is at most ``top``."""

    __slots__ = ("width", "top", "one", "vecs", "shifts", "flip", "guard", "ok", "fill", "emask", "nzbase")

    def __init__(self, order: TermOrder, n: int, width: int):
        key = order.descending_key
        # the key entries each variable enters, as (entry, sign)
        units = [list(compress(enumerate(u), u)) for u in (key((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n))]
        at = [(width + 1) * k for k in range(len(key((0,) * n)) - 1, -1, -1)]  # each entry's shift
        low = sum(1 << s for s in at)
        self.width, self.top, self.guard = width, (1 << width) - 1, low << width
        self.fill = self.guard - low  # top in every field
        self.vecs = tuple(sum(e << at[k] for k, e in u) for u in units)  # P(x_i) - P(1)
        self.one = sum(((2 << width) - 1) << at[k] for k in {k for u in units for k, e in u if e < 0})
        self.shifts, self.flip = tuple(at[u[-1][0]] for u in units), units[0][-1][1]
        self.ok = self.one & self.guard  # the guard bits of every valid P
        self.emask = sum(1 << (s + width) for s in self.shifts)
        efill = sum(self.top << s for s in self.shifts)
        self.nzbase = efill if self.flip > 0 else self.one + efill

    def pack(self, m: Monomial) -> int:
        return self.one + sum(map(mul, m, self.vecs))

    def unpack(self, packed: int) -> Monomial:
        x, full = packed if self.flip > 0 else ~packed, (2 << self.width) - 1
        return tuple([(x >> s) & full for s in self.shifts])

    def work(self, work: dict) -> dict:
        """``work`` with its monomials packed; _Overflow for a degree past ``top``."""
        one, vecs, top, out = self.one, self.vecs, self.top, {}
        for m, c in work.items():
            if sum(m) > top:
                raise _Overflow
            out[one + sum(map(mul, m, vecs))] = c
        return out


# layouts, not results, so built once per process and shared by every context:
# the packings, and k[variables] in grevlex, the twin of every order on them
_packing = lru_cache(maxsize=256)(_Packing)
_grevlex_ring = lru_cache(maxsize=256)(RingDescriptor)


def _width(degree: int) -> int:
    """The width a completion starts at for works of total degree ``degree``."""
    return max(5, (4 * degree).bit_length())


def _packed(ring: RingDescriptor, works: Sequence[dict], settled: Optional[tuple], run: Callable):
    """``run(packing, works, divisors)`` with the work dicts ``works`` packed
    and the kernel divisors of ``settled`` (a basis and the tag monomial it
    is multiplied by, ``_lift_divisors``), if any, at the basis' width, else
    ``_width``'s; redone at twice the width while a monomial overflows,
    which changes no order, so no result."""
    width = settled[0]._packing.width if settled else _width(max(map(sum, chain.from_iterable(works)), default=0))
    pk = _packing(ring.order, ring.nvars, width)
    while True:
        try:
            divs = _lift_divisors(*settled, pk) if settled else ()
            return run(pk, [pk.work(w) for w in works], divs)
        except _Overflow:
            pk = _packing(ring.order, ring.nvars, 2 * pk.width)


def _divisor(terms: Sequence[tuple], pk: _Packing, lm: Optional[Monomial] = None) -> tuple:
    """The kernel's view (``_lead``) of a divisor given by packed integer terms."""
    plm, lc = terms[0]
    return _lead(plm, lc, tuple([(m - plm, c) for m, c in islice(terms, 1, None)]) if len(terms) > 1 else (), pk, lm)


def _lead(plm: int, lc: int, tail: tuple, pk: _Packing, lm: Optional[Monomial] = None) -> tuple:
    """``(h, lc, tail, plm, nonzero-field mask, lm)`` for packed leading
    monomial ``plm`` (``lm`` unpacked) and tail ``(P(m) - plm, c)``: lm | m
    exactly when ``h - flip * P(m)`` sets no exponent guard bit."""
    x = pk.flip * plm
    return x + pk.fill, lc, tail, plm, (x + pk.nzbase) & pk.emask, lm or pk.unpack(plm)


def _full(d: tuple) -> tuple:
    """A kernel divisor's packed terms."""
    plm = d[3]
    return ((plm, d[1]),) + tuple((plm + off, c) for off, c in d[2])


def _work(g: Polynomial, p: int) -> dict:
    """A nonzero g as a kernel work dict: its integer form ``_integral``, over both fields."""
    return dict(_integral(g.terms, p)[0])


def _lift_divisors(gb: "ReducedGB", head: Monomial, pk: _Packing) -> tuple:
    """The kernel divisors of ``gb`` times the tag monomial ``head`` (zeros
    for a saturation, t for an intersection, none for the ring itself),
    packed by ``pk``.  Where ``pk`` packs the ring's variables as ``gb``
    does, as a grevlex tail block at the same width does, that adds P(head)
    - P(1) to each leading monomial and keeps the tails; else every monomial
    is packed again."""
    src = gb._packing
    if pk is src:
        return gb._divisors
    if pk.vecs[len(head) :] != src.vecs:
        # pk is at least as wide as src, so a lifted field overflows into its guard bit
        lifted = [[(pk.pack(head + src.unpack(m)), c) for m, c in _full(d)] for d in gb._divisors]
        if any(m & pk.guard != pk.ok for terms in lifted for m, _ in terms):
            raise _Overflow
        return tuple(_divisor(terms, pk) for terms in lifted)
    shift = pk.pack(head + (0,) * len(src.vecs)) - src.one
    return tuple(_lead(d[3] + shift, d[1], d[2], pk, head + d[5]) for d in gb._divisors)


def _reduce(work: dict, divs: Sequence[tuple], p: int, pk: _Packing, table: Optional[dict] = None) -> tuple:
    """The division kernel.  ``work`` (f) maps packed monomials to integer
    coefficients; ``divs`` holds the divisors d_i as ``_divisor`` builds
    them, monic over GF(p).  Returns ``(r, scale)`` with scale * f =
    sum(q_i * d_i) + r over the integers (modulo p over GF(p), r reduced),
    r's terms packed and sorted decreasing; the scale is 1 over GF(p).
    Raises ``_Overflow`` for a monomial that outgrows the packing.

    ``table`` maps each packed monomial met to its record ``[P,
    coefficient, n, step]``: the coefficient while queued (0 once
    cancelled), else None; n divisors known not to divide it; and None
    until a divisor is found, then ``(lc, shifted tail, tail)`` of the
    first, the shifted tail as records of the same table.  ``_grow`` passes
    one table to all of its reductions: a completion only appends to
    ``divs``, so the first divisor that divides a monomial never changes,
    and one no divisor divided is tested only against ``divs[n:]``.  Other
    callers get a fresh table; none outlives its completion.

    The work is a heap of packed monomials; a step adds only terms below the
    one it consumes, so r comes out sorted, and a term cancelled to zero is
    skipped when popped.  Against leading coefficient lc a step consumes c *
    x^a, with g the gcd of lc and c given lc's sign, by scaling the queued
    coefficients by lc/g > 0 and subtracting (c/g) * x^a/lm * tail, the
    field step times a unit, so which divisor acts on which monomial is the
    field algorithm's; lc = 1, as over GF(p), scales nothing.  A popped
    GF(p) coefficient is reduced once, before its zero test.  Emitted terms
    keep the running scale and get the missing factor at the end.  A shifted
    term, P(x^a) + P(m) - P(lm), has its guard bits read on entering the table.
    """
    if table is None:
        table = {}
    flip, emask, guard, ok = pk.flip, pk.emask, pk.guard, pk.ok
    heap = []
    for m, c in work.items():
        rec = table.get(m)
        if rec is None:
            if m & guard != ok:
                raise _Overflow
            table[m] = [m, c, 0, None]
        else:
            rec[1] = c
        heap.append(m)
    heapify(heap)
    ndivs = len(divs)
    emitted, scales = [], []  # remainder terms, the running scale at each emission
    scale = 1
    while heap:
        mono = heappop(heap)
        rec = table[mono]
        c = rec[1]
        rec[1] = None
        if p:
            c %= p  # the one reduction of a GF(p) coefficient, at its pop
        if not c:
            continue  # cancelled after it was queued
        step = rec[3]
        if step is None:
            n = rec[2]
            if n < ndivs:
                probe = flip * mono
                for h, lc, tail, _, _, _ in islice(divs, n, None) if n else divs:
                    if not (h - probe) & emask:
                        break
                else:
                    rec[2] = n = ndivs
            if n == ndivs:
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
                for m in heap:
                    table[m][1] *= s
        if step is None:
            # the first step on this monomial shifts the tail as it applies it
            shifted = []
            for off, c2 in tail:
                m = mono + off
                r2 = table.get(m)
                if r2 is None:
                    if m & guard != ok:
                        raise _Overflow
                    r2 = table[m] = [m, q * c2, 0, None]
                    heappush(heap, m)
                else:
                    old = r2[1]
                    if old is None:
                        r2[1] = q * c2
                        heappush(heap, m)
                    else:
                        r2[1] = old + q * c2
                shifted.append(r2)
            rec[3] = lc, shifted, tail
        else:
            for r2, (_, c2) in zip(shifted, tail):
                old = r2[1]
                if old is None:
                    r2[1] = q * c2
                    heappush(heap, r2[0])
                else:
                    r2[1] = old + q * c2
    if scale != 1:
        emitted = [(m, c * (scale // s)) for (m, c), s in zip(emitted, scales)]
    return tuple(emitted), scale


def divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The exact quotient f / g by a nonzero g; raises ``EngineError`` when
    g does not divide f.  Long division by g alone, largest term first: {g}
    is a Groebner basis of <g>, so g divides f exactly when every leading
    term met on the way is a multiple of g's."""
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
    leading monomial, built from its kernel divisors ``_divisors``, packed
    by ``_packing``: the one maker of its monic ``Polynomial``s, ``basis``.
    Unique per (ideal, term order), so the ideal's facts, ``is_unit_ideal``,
    ``monomials``, ``leading_monomials`` and ``is_zero_dimensional``, are
    read off the divisors.

    ``steps``, the S-pair reductions of the completion that built it (its
    grevlex twin's for a basis ``_fglm`` converts), depends on the route
    (generators, settled prefix), so it is not part of equality; the memo
    keeps the first route's, which met the step limit of the context that
    stores it.  It is 0 on every route whose inputs, work and settled
    basis, are all monomials: they form no pair, so no step limit trips on
    them.  Equality and ``_hash``, taken once, read ``basis``, as a packed
    monomial depends on the packing's width.
    """

    __slots__ = ("ring", "basis", "steps", "_divisors", "_packing", "_hash")

    def __init__(self, ring: RingDescriptor, divisors: tuple, steps: int, packing: _Packing):
        p = ring.field.characteristic
        self.ring, self.steps, self._divisors, self._packing = ring, steps, divisors, packing
        self.basis = tuple([Polynomial(ring, _monic(d, p, packing)) for d in divisors])
        self._hash: Optional[int] = None

    @property
    def is_unit_ideal(self) -> bool:
        return bool(self._divisors) and not any(self._divisors[0][5])

    @property
    def monomials(self) -> Optional[Tuple[Monomial, ...]]:
        """The exponents of a basis of single terms, the ideal's minimal generators, ascending; else None."""
        return None if any(d[2] for d in self._divisors) else self.leading_monomials

    @property
    def leading_monomials(self) -> Tuple[Monomial, ...]:
        """The exponents of the leading monomials, ascending: what ``staircase`` reads."""
        return tuple(d[5] for d in self._divisors)

    @property
    def is_zero_dimensional(self) -> bool:
        """A pure power of every variable, or 1, leads an element."""
        return self.is_unit_ideal or staircase.is_zero_dimensional(self.leading_monomials, self.ring.nvars)

    def __len__(self) -> int:
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedGB):
            return NotImplemented
        return self.ring == other.ring and self.basis == other.basis

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.basis))
        return self._hash

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


def _monic(d: tuple, p: int, pk: _Packing) -> tuple:
    """A normalized kernel divisor as the monic terms of the field."""
    _, lc, tail, plm, _, lm = d
    unpack = pk.unpack
    return ((lm, 1 if p else Fraction(1)),) + tuple([(unpack(plm + o), c if p else Fraction(c, lc)) for o, c in tail])


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


def _s_pair(lcm: int, a: tuple, b: tuple) -> dict:
    """The work of the S-pair of divisors ``a`` and ``b``, packed lcm ``lcm``:
    with g the gcd of their leading coefficients, (lc_b/g) * lcm/lm_a * a -
    (lc_a/g) * lcm/lm_b * b, whose leading terms cancel, so only tails enter."""
    g = gcd(a[1], b[1])
    fa, fb = b[1] // g, a[1] // g
    work = {lcm + off: fa * c for off, c in a[2]}
    for off, c2 in b[2]:
        m = lcm + off
        work[m] = work.get(m, 0) - fb * c2
    return work


def buchberger(generators: Iterable[Polynomial], *, ring: Optional[RingDescriptor] = None) -> ReducedGB:
    """The public spelling of ``Ideal(ring, generators).groebner_basis()``,
    with ``ring`` read off the first generator when not given."""
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    return Ideal(ring, gens).groebner_basis()


def _build(ring: RingDescriptor, gens: Sequence[Polynomial]) -> ReducedGB:
    """``Ideal.groebner_basis``'s builder.  Outside grevlex, an ideal with
    at least as many generators as variables reads its grevlex twin's basis
    first (with fewer, it is the unit ideal or positive-dimensional, by
    Krull's height theorem): a zero-dimensional one is converted
    (``_fglm``), and else the ring completes in its own order."""
    if ring.order.kind != GREVLEX and sum(1 for g in gens if g.terms) >= ring.nvars:
        twin = _seed(Ideal(ring, gens))
        if twin.is_zero_dimensional:
            return _fglm(ring, twin)
    return _complete(ring, gens, None)


def _complete(ring: RingDescriptor, gens: Sequence, settled: Optional[tuple]) -> ReducedGB:
    """The completion of ``gens``, each a ``Polynomial`` or a work dict of
    the kernel, from ``settled``, a basis and the tag monomial it is
    multiplied by (``_lift_divisors``), or None: a Groebner basis already,
    so the pairs inside it are never formed, and the chain criterion stays
    sound.  It reads only the step limit; callers memoize.
    Monomial works and a monomial settled basis are a Groebner basis
    already, as the S-polynomial of two monomials is zero: their minimal
    ones are the reduced basis, with no pair formed and 0 steps."""
    p = ring.field.characteristic
    works = [g if isinstance(g, dict) else _work(g, p) for g in gens if g]

    def complete(pk: _Packing, works: List[dict], settled: tuple) -> ReducedGB:
        flip, emask = pk.flip, pk.emask
        if all(len(w) == 1 for w in works) and not any(d[2] for d in settled):
            steps, divs = 0, [*settled, *(_divisor(((m, 1),), pk) for w in works for m in w)]
        else:
            divs = []  # the working basis, as the kernel views it
            steps = _grow(pk, works, settled, divs, p)
        # minimal basis: scan by increasing leading monomial, drop dominated ones
        minimal: List[tuple] = []
        for d in sorted(divs, key=itemgetter(3), reverse=True):
            probe = flip * d[3]
            if all((k[0] - probe) & emask for k in minimal):
                minimal.append(d)
        # full autoreduction of the tails; leading terms are pairwise
        # non-dividing so they survive, and a monomial is reduced already
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            if others and minimal[idx][2]:
                r = _reduce(dict(_full(minimal[idx])), others, p, pk)[0]
                minimal[idx] = _divisor(_normalize(r, p), pk, minimal[idx][5])
        # minimal is ascending in the order and autoreduction keeps leading terms
        return ReducedGB(ring, tuple(minimal), steps, pk)

    return _packed(ring, works, settled, complete)


def _grow(pk: _Packing, works: Sequence[dict], settled: tuple, divs: List[tuple], p: int, stop=None) -> Optional[int]:
    """The pair loop of ``_complete`` over GF(p), or QQ for p = 0: appends
    the kernel divisors ``settled``, then every nonzero remainder of the
    packed work dicts ``works`` (unit multiples of generators) and of the
    S-pairs, to ``divs``, and returns the number of S-pair reductions, under
    the step limit in force; None as soon as an element joins whose leading
    monomial satisfies ``stop``.  A pair's packed lcm rides in its heap entry."""
    limit = _ENGINE.get().step_limit
    flip, emask, guard, ok = pk.flip, pk.emask, pk.guard, pk.ok
    divs.extend(settled)
    table: dict = {}  # the kernel's monomial records, shared by every reduction below
    pending: set = set()
    heap: list = []

    def add_poly(terms: tuple) -> bool:
        """Adds a basis element; True when ``stop`` holds for it."""
        new = _divisor(terms, pk)
        j, nzj, ltj = len(divs), new[4], new[5]
        for i, d in enumerate(divs):
            if not d[4] & nzj:
                continue  # coprime leading terms: the S-polynomial reduces to zero
            lcm = tuple(map(max, d[5], ltj))
            plcm = pk.pack(lcm)
            if plcm & guard != ok:
                raise _Overflow
            pending.add((i, j))
            # pairs pop by lcm degree, then by increasing lcm in the term
            # order (decreasing P); no two entries share (i, j)
            heappush(heap, (sum(lcm), -plcm, i, j))
        divs.append(new)
        return stop is not None and stop(ltj)

    for work in works:
        r = _reduce(work, divs, p, pk, table)[0]
        if r and add_poly(_normalize(r, p)):
            return None

    steps = 0
    while heap:
        _, plcm, i, j = heappop(heap)
        pending.remove((i, j))
        probe = -flip * plcm  # plcm is stored negated
        # the chain criterion, newest divisor first: it only asks whether
        # some t has lm_t | lcm and both companion pairs settled
        for t in range(len(divs) - 1, -1, -1):
            if not (divs[t][0] - probe) & emask and t != i and t != j:
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    break
        else:
            steps += 1
            if steps > limit:
                raise StepLimitExceededError(
                    "Buchberger completion exceeded %d S-pair reductions; raise the "
                    "step limit if the input really is this hard" % limit
                )
            r = _reduce(_s_pair(-plcm, divs[i], divs[j]), divs, p, pk, table)[0]
            if r and add_poly(_normalize(r, p)):
                return None
    return steps


def _fglm(ring: RingDescriptor, gb: ReducedGB) -> ReducedGB:
    """The reduced basis in ``ring``'s order of the zero-dimensional ideal
    with reduced grevlex basis ``gb``, and gb's steps, by FGLM (Faugere,
    Gianni, Lazard & Mora, J. Symb. Comp. 16, 1993).  Candidates m pop in
    increasing order, packed in ``ring``'s order at gb's width, and
    multiples of the leading monomials found are skipped.  NF(x_i*s), s on
    the staircase, is one kernel run on x_i * NF(s), the step to x_i*b
    being ``+ vecs[i]``, against gb's divisors with one record table.  The
    staircase's forms stay in echelon form, on ints modulo p or Fractions,
    each row kept with the multiples of earlier rows it was reduced by: a
    form reduced to zero unwinds into NF(m) = sum c_s NF(s), and m - sum c_s
    s is the next basis element; any other puts m on the staircase.  No
    degree met exceeds dim R/J, at most the product of gb's pure powers; a
    width that cannot hold it is doubled first (``_packed``)."""
    p = ring.field.characteristic
    bound = 1
    for d in gb._divisors:
        if sum(d[5]) == max(d[5]):  # a pure power, or 1
            bound *= sum(d[5])

    def eliminate(vec: dict, rows: dict) -> dict:
        """Clears the keys of ``rows`` from ``vec``, largest first, each row
        (scale, rest, tag) holding only smaller keys: w = scale * vec[key]
        is recorded under tag and w * rest subtracted."""
        out, todo = {}, [-k for k in vec if k in rows]
        heapify(todo)
        while todo:
            k = -heappop(todo)
            if k in vec:  # else a duplicate, or cleared already
                scale, rest, tag = rows[k]
                w = out[tag] = vec.pop(k) * scale % p if p else vec.pop(k) * scale
                for key, c in rest.items():
                    x = vec.get(key, 0) - w * c
                    if p:
                        x %= p
                    if not x:
                        del vec[key]
                    else:
                        if key not in vec and key in rows:
                            heappush(todo, -key)
                        vec[key] = x
        return out

    def convert(pk: _Packing, works: List[dict], divs: tuple) -> ReducedGB:
        if bound > pk.top:
            raise _Overflow
        tk = _packing(ring.order, ring.nvars, pk.width)
        flip, emask, table = tk.flip, tk.emask, {}
        stair, forms, rows, unwind, found, heads = [], [], {}, {}, [], []
        heap, last = [(-tk.one, 0, -1)], None  # (-P(m), i, k): m = x_i * stair[k], or 1
        while heap:
            m, i, k = heappop(heap)
            m = -m
            if m == last or heads and any(not (h - flip * m) & emask for h in heads):
                continue
            last = m
            (nf, den), shift = (forms[k], pk.vecs[i]) if k >= 0 else ((((pk.one, 1),), 1), 0)
            r, scale = _reduce({b + shift: c for b, c in nf}, divs, p, pk, table)
            den *= scale
            vec = dict(r) if p else {b: Fraction(c, den) for b, c in r}
            used = eliminate(vec, rows)  # vec = NF(m) - sum(used[j] * row j)
            if not vec:  # NF(m) = sum(coef[j] * NF(stair[j]))
                coef = eliminate(used, unwind)
                tail = sorted((stair[j], -c % p if p else -c) for j, c in coef.items())
                found.append(_divisor(_integral(((m, 1), *tail), p)[0], tk))
                heads.append(flip * m + tk.fill)
                continue
            piv, j = max(vec), len(stair)
            inv = pow(vec.pop(piv), -1, p) if p else 1 / vec.pop(piv)
            rows[piv] = (1, {key: c * inv % p if p else c * inv for key, c in vec.items()}, j)
            unwind[j] = (inv, used, j)
            for i, v in enumerate(tk.vecs):
                heappush(heap, (-m - v, i, j))
            stair.append(m)
            forms.append((r, den))
        return ReducedGB(ring, tuple(found), gb.steps, tk)

    return _packed(gb.ring, [], (gb, ()), convert)


def normal_form(f: Polynomial, basis: ReducedGB) -> Polynomial:
    """The remainder of f on division by the reduced basis: canonical, and
    zero exactly when f lies in the ideal.  One run of the kernel against
    the kernel form the basis carries, converting only f and its remainder.
    """
    _same_ring(f, basis)
    ring = f.ring
    if f.is_zero or not basis.basis:
        return f
    p = ring.field.characteristic
    # w * f = sum(q_i * d_i) + r over the integers, so f's remainder is r / w
    terms, v = (f.terms, 1) if p else _integral(f.terms, 0)

    def reduce(pk: _Packing, works: List[dict], divs: tuple) -> tuple:
        r, scale = _reduce(works[0], divs, p, pk)
        w = v * scale
        return tuple((pk.unpack(m), c if p else Fraction(c, w)) for m, c in r)

    return Polynomial(ring, _packed(ring, [dict(terms)], (basis, ()), reduce))


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
            if g.ring is not ring and g.ring != ring:
                raise IncompatibleRingError("generator outside the ideal's ring")
            if g.terms:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_basis(self) -> ReducedGB:
        """The reduced basis under the ring's term order, the one reader of
        the memo's bases.  The S-pair reductions are bounded by the step
        limit in force (the engine context's, else ``STEP_LIMIT``); past it,
        StepLimitExceededError.  In an engine context the basis is memoized
        by (ring, ordered generators), whichever route built it (``_build``
        or ``_extend``); outside one each read completes it again.  Each
        working basis element is a unit multiple of the monic one the field
        algorithm keeps, so the leading monomials, the pairs reduced and
        ``steps`` are the field algorithm's."""
        return _memoized((self.ring, self.generators), lambda: _build(self.ring, self.generators))

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


class SaturationResult(Record):
    """Outcome of saturating J by I: the stable ideal (J : I^infinity) and
    the least exponent k with (J : I^k) already equal to it."""

    __slots__ = ("ideal", "exponent")


def membership(f: Polynomial, J: Ideal) -> bool:
    _same_ring(f, J)
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


def _fresh_names(ring: RingDescriptor, bases: Sequence[str]) -> Tuple[str, ...]:
    """A new variable name per base: the base, else base0, base1, ...,
    skipping ``ring``'s names and those already picked."""
    names: Tuple[str, ...] = ()
    for base in bases:
        name, k = base, 0
        while name in ring.variables + names:
            name, k = "%s%d" % (base, k), k + 1
        names += (name,)
    return names


@lru_cache(maxsize=256)
def _tag_ring(ring: RingDescriptor) -> RingDescriptor:
    """k[t, y, ring]: two tags in front, eliminated by an order with a
    grevlex tail block; an idle tag, 0 in every monomial, changes no
    comparison, divisor or pair.  A layout, so built once per process."""
    return RingDescriptor(ring.field, _fresh_names(ring, ("t", "y")) + ring.variables, TermOrder(ELIMINATION, 2))


def _eliminate_tag(ring: RingDescriptor, works: Sequence[dict], settled: tuple) -> Ideal:
    """K intersect k[ring] for K = <head * G, works> in k[t, y, ring]
    (``_tag_ring``), one of its two ways in: one ``_complete`` from
    ``settled`` = (G, head), a grevlex basis times a tag monomial, with the
    work dicts ``works`` added; the basis is not stored.  Its tag-free
    elements lead it and, t and y sliced off, generate the answer, sorted
    again unless ``ring`` is grevlex."""
    G = _complete(_tag_ring(ring), works, settled)
    dkey = None if ring.order.kind == GREVLEX else ring.order.descending_key
    out = []
    for g in G.basis:
        if any(g.terms[0][0][:2]):
            break  # a tag in the leading monomial, and so in every later one
        terms = tuple((m[2:], c) for m, c in g.terms)
        if dkey is not None:
            terms = tuple(sorted(terms, key=lambda term: dkey(term[0])))
        out.append(Polynomial(ring, terms))
    return Ideal(ring, out)


def _meet(ring: RingDescriptor, settled: tuple, gens: Sequence[Polynomial]) -> Ideal:
    """a cap <gens> = (t*a + (1 - t)*<gens>) cap k[ring] for the ideal a
    with Groebner basis head * G, ``settled`` = (G, head): t*a settled, and
    (1 - t)*g for each generator g as a work dict."""
    p = ring.field.characteristic
    # (1 - t)*g: each term c*x^m of g gives c*x^m and -c*t*x^m
    works = [{(k, 0) + m: -c if k else c for m, c in _work(g, p).items() for k in (0, 1)} for g in gens]
    seed, head = settled
    return _eliminate_tag(ring, works, (seed, (1, 0) + head))


def _seed(J: Ideal) -> ReducedGB:
    """J's reduced grevlex basis, its grevlex twin's in any other ring: the
    seed of every tagged completion from J."""
    return _grevlex_twin(J).groebner_basis()


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via a tag variable: (t*a + (1-t)*b) with t eliminated,
    completed from t times a's reduced grevlex basis, settled; memoized
    under "intersect" with the ring and both bases."""
    _same_ring(a, b)
    if a.is_zero_ideal or b.is_zero_ideal:
        return Ideal(a.ring, ())
    seed_a, seed_b = _seed(a), _seed(b)
    return _memoized(("intersect", a.ring, seed_a, seed_b), lambda: _meet(a.ring, (seed_a, ()), seed_b.basis))


def _colon(ring: RingDescriptor, settled: tuple, f: Polynomial) -> Ideal:
    """(J : f) = (1/f) * (J cap <f>) for the ideal J with Groebner basis
    head * G, ``settled`` = (G, head): each generator of ``_meet``'s answer
    divided by f."""
    return Ideal(ring, [divide(g, f) for g in _meet(ring, settled, (f,)).generators])


def ideal_quotient(J: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (J : f), computed as (1/f) * (J intersect <f>);
    memoized under "quotient" with J's basis and f."""
    _same_ring(f, J)
    if f.is_zero:
        raise ZeroElementError("colon by the zero polynomial is undefined")
    seed = _seed(J)
    return _memoized(("quotient", seed, f), lambda: _colon(J.ring, (seed, ()), f))


def _generic_terms(gens: Sequence[Polynomial], head: Monomial) -> Iterator[tuple]:
    """The terms of head * f_y for the generic element f_y = sum y^(i-1) *
    g_i of ``gens``, read off the generators' terms with their field
    coefficients: the monomials of g_i carry ``head`` and then y^(i-1).  No
    two share a monomial."""
    for i, g in enumerate(gens):
        for m, c in g.terms:
            yield head + (i,) + m, c


def _rabinowitsch(gens: Sequence[Polynomial]) -> dict:
    """v * (1 - t*f_y) for the generic element f_y of ``gens``
    (``_generic_terms``) as a work dict over k[t, y, ring], the
    ``_tag_ring``: v * t*f_y is the integer form ``_integral`` gives, v a
    unit; the constant carries no t, and for s = 1 no term carries y."""
    ring = gens[0].ring
    terms, v = _integral(tuple(_generic_terms(gens, (1,))), ring.field.characteristic)
    work = {(0,) * (2 + ring.nvars): v}
    work.update((m, -c) for m, c in terms)
    return work


def _product(a: Iterable[tuple], b: tuple, one: int) -> dict:
    """The work dict of the product of two polynomials given by packed
    integer terms, P(1) being ``one``; over GF(p) the kernel reduces the
    sums, and reads the guard bits of each new monomial."""
    work: dict = {}
    for m1, c1 in a:
        m1 -= one
        for m2, c2 in b:
            m = m1 + m2
            work[m] = work.get(m, 0) + c1 * c2
    return work


def ideal_quotient_ideal(J: Ideal, I: Ideal) -> Ideal:
    """The colon ideal (J : I) = {h : h*I inside J}.

    For I = <g_1, ..., g_s> and the generic element f_y = sum y^(i-1) * g_i
    in one new variable y, (J : I) = (J*R[y] : f_y) cap R: h * f_y lies in
    J*R[y] exactly when every h*g_i lies in J.  So it is one colon by f_y in
    R[y] = ``_tag_ring(ring)``, t idle, and one elimination of y, both from
    J's reduced grevlex basis lifted into R[y].  The g_i are I's reduced
    grevlex basis: for s = 1 it is ``ideal_quotient(J, g_1)``, g_1 in J's
    ring, and else memoized under "colon" with the ring and both bases.
    """
    _same_ring(J, I)
    if I.is_zero_ideal:
        raise ZeroElementError("colon by the zero ideal is undefined")
    seed_J, seed_I = _seed(J), _seed(I)
    if len(seed_I) == 1:
        return ideal_quotient(J, _from_dict(J.ring, dict(seed_I.basis[0].terms)))

    def colon_ideal() -> Ideal:
        Ry, settled = _tag_ring(J.ring), (seed_J, (0, 0))
        colon = _colon(Ry, settled, _from_dict(Ry, dict(_generic_terms(seed_I.basis, (0,)))))
        p = J.ring.field.characteristic
        return _eliminate_tag(J.ring, [_work(g, p) for g in colon.generators], settled)

    return _memoized(("colon", J.ring, seed_J, seed_I), colon_ideal)


def _grevlex_twin(J: Ideal) -> Ideal:
    """J itself in a grevlex ring, else J's grevlex twin: the same
    generators in the grevlex twin of its ring; the memo shares the twin's
    basis."""
    if J.ring.order.kind == GREVLEX:
        return J
    ring = _grevlex_ring(J.ring.field, J.ring.variables)
    return Ideal(ring, [_from_dict(ring, dict(g.terms)) for g in J.generators])


def _extend(J: Ideal, x: Polynomial) -> Ideal:
    """J + <x>, the next ideal of a chain (``grade``'s J_{k+1} = J_k + <x_k>
    and its replay), generated by J's generators and then x.  In an engine
    context its grevlex basis, its grevlex twin's in any other ring, is
    completed here from x with J's (``_seed``) settled, so no pair inside
    J's basis is formed again (the incremental step of Gebauer-Moeller, J.
    Symb. Comp. 6, 1988), and stored under the key ``groebner_basis`` reads
    for the twin; outside one nothing would keep it."""
    K = Ideal(J.ring, J.generators + (x,))
    if _ENGINE.get().memo is not None:
        twin = _grevlex_twin(K)
        _memoized(
            (twin.ring, twin.generators), lambda: _complete(twin.ring, twin.generators[-1:], (_seed(J), ()))
        )
    return K


def saturate(J: Ideal, I: Ideal) -> SaturationResult:
    """(J : I^infinity) as one Groebner basis, plus the least exponent k
    with (J : I^k) already equal to it; k is 0 exactly when the saturation
    is J.  The one builder of a saturation.

    For any generators g_1, ..., g_s of I and the generic element f_y = sum
    y^(i-1) * g_i, (J : I^infinity) = (J*R[y] : f_y^infinity) cap R over
    every field (Eisenbud-Huneke-Vasconcelos), which is (J + <1 - t*f_y>)
    with t and y eliminated (Rabinowitsch): J's reduced grevlex basis
    settled, and 1 - t*f_y as the kernel's work dict (``_rabinowitsch``);
    the g_i are I's reduced grevlex basis, shared by every presentation.

    The exponent is the least k with I^k * sat inside J: normal forms modulo
    J of sat's generators are multiplied by each g_i and reduced again
    until all vanish; NF(g * NF(h)) = NF(g * h) makes this exact.  The loop
    runs in the kernel, against the same grevlex basis of J: membership does
    not depend on the order, and a remainder is a unit times the field's
    linear normal form.  When both bases are all terms, neither the
    completion nor the kernel runs: ``_monomial_saturation`` reads both off
    the exponents, with 0 steps.  In an engine context the result is
    memoized under "saturate" with the ring and both bases, whichever route
    built it.
    """
    _same_ring(J, I)
    if I.is_zero_ideal:
        raise ZeroElementError("saturation by the zero ideal is undefined")
    seed_J, seed_I = _seed(J), _seed(I)

    def saturation() -> SaturationResult:
        if seed_J.monomials is not None and seed_I.monomials is not None:
            return _monomial_saturation(J.ring, seed_J, seed_I.monomials)
        sat = _eliminate_tag(J.ring, [_rabinowitsch(seed_I.basis)], (seed_J, (0, 0)))
        p = J.ring.field.characteristic

        def rounds(pk: _Packing, works: List[dict], divs: tuple) -> int:
            def remainders(works: Iterable[dict]) -> set:
                """The distinct nonzero remainders modulo J, normalized."""
                out = set()
                for work in works:
                    r = _reduce(work, divs, p, pk)[0]
                    if r:
                        out.add(_normalize(r, p))
                return out

            factors = [w.items() for w in works[: len(seed_I)]]
            rest = remainders(works[len(seed_I) :])
            exponent = 0
            while rest:
                rest = remainders(_product(g, h, pk.one) for g in factors for h in rest)
                exponent += 1
            return exponent

        works = [_work(g, p) for g in seed_I.basis + sat.generators]
        return SaturationResult(sat, _packed(seed_J.ring, works, (seed_J, ()), rounds))

    return _memoized(("saturate", J.ring, seed_J, seed_I), saturation)


def _monomial_saturation(ring: RingDescriptor, seed: ReducedGB, ms: Sequence[Monomial]) -> SaturationResult:
    """``saturate`` for J with a monomial basis ``seed`` and I with the
    monomial basis ``ms``, read off the exponents.  (J : m^infinity) is J's
    minimal monomials with the exponents of supp(m) set to 0, and (J :
    I^infinity) their intersection over the m in ``ms``, generated by
    lcms (Herzog-Hibi, *Monomial Ideals*, GTM 260, 1.2).  The exponent is
    ``saturate``'s loop on exponent tuples: a term's remainder modulo a
    monomial basis is itself or 0.  The generators come out monic and
    ascending in grevlex, as ``_eliminate_tag`` leaves them."""
    basis = seed.monomials
    sat: List[Monomial] = []
    for i, m in enumerate(ms):
        part = [tuple(0 if k else e for e, k in zip(b, m)) for b in basis]
        sat = minimalize_monomials([monomial_lcm(a, b) for a in sat for b in part] if i else part)

    def outside(h: Monomial) -> bool:
        return not any(monomial_divides(b, h) for b in basis)

    rest = {h for h in sat if outside(h)}
    exponent = 0
    while rest:
        rest = {h for h in (monomial_mul(m, h) for m in ms for h in rest) if outside(h)}
        exponent += 1
    sat.sort(key=seed.ring.order.descending_key, reverse=True)
    one = ring.field.one
    return SaturationResult(Ideal(ring, [Polynomial(ring, ((h, one),)) for h in sat]), exponent)


def is_nonzerodivisor(J: Ideal, f: Polynomial) -> bool:
    """True when f is a nonzerodivisor on R/J, i.e. (J : f^infinity) = J.

    The completion of J + <1 - t*f> that ``saturate`` runs, from J's reduced
    grevlex basis settled, decides it on its way.  Every element it adds is
    a nonzero remainder modulo a Groebner basis of J, so not in J; one with
    a t-free leading monomial is t-free (the order eliminates t), so it lies
    in (J : f^infinity) outside J, and the completion stops with False.
    When the pairs run out without one, the answer is True; for f in J,
    1 - t*f reduces to 1 at once.  No minimal basis, contraction or normal
    form is built.  For a term f and a monomial basis of J no completion
    runs: f is regular exactly when it shares no variable with any element
    of the basis (Herzog-Hibi, *Monomial Ideals*, GTM 260).  In an engine
    context the decision is memoized under "regular" with J's basis and f.
    """
    _same_ring(f, J)
    if f.is_zero:
        raise ZeroElementError("saturation by the zero ideal is undefined")

    def decide(pk: _Packing, works: List[dict], settled: tuple) -> bool:
        return _grow(pk, works, settled, [], p, stop=lambda lm: not lm[0]) is not None

    def decision() -> bool:
        if len(f.terms) == 1 and seed.monomials is not None:
            m = f.terms[0][0]
            return not any(any(map(min, m, b)) for b in seed.monomials)
        return _packed(_tag_ring(J.ring), [_rabinowitsch([f])], (seed, (0, 0)), decide)

    p = J.ring.field.characteristic
    seed = _seed(J)  # read once: outside a context each read completes it again
    return _memoized(("regular", seed, f), decision)


def extend_ring(J: Ideal, new_names: Sequence[str]) -> Ideal:
    """The extension of J to the polynomial ring with extra variables
    appended; generators are carried over verbatim."""
    ring = J.ring
    ext = RingDescriptor(ring.field, ring.variables + tuple(new_names), ring.order)
    lift = list(range(ring.nvars))
    return Ideal(ext, [remap_variables(g, ext, lift) for g in J.generators])
