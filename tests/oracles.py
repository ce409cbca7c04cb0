"""Independent reference implementations used to cross-check the engine.

Everything here deliberately avoids the engine's algorithms: the Groebner
route is a criteria-free FIFO pair loop with its own reducer and its own
order keys; ``oracle_divide`` is the engine's earlier division, which takes
each step's term by a scan of the whole work dict instead of from a heap;
dimension is brute force over all variable subsets; monomial
colon and intersection use the classical combinatorial rules; membership
of homogeneous polynomials is exact linear algebra in a fixed degree; and
associated primes come from enumerating monomial witnesses.  Slow on
purpose, simple on purpose.

``hard_rational_poly`` is not a reference but an input: seeded QQ
polynomials whose coefficients strain the engine's fraction-free
completion, shared by the oracle and the sympy cross-checks.

``oracle_saturate``, ``oracle_intersect``, ``oracle_quotient`` and
``oracle_colon_ideal`` are the exceptions: the engine's earlier saturation,
intersection and colons, kept as the references for the seeded eliminations
and generic-element formulas that replaced them.  They build their own tag
ring with ``RingDescriptor`` and ``remap_variables``, complete ``Polynomial``
generators with the engine's ``buchberger`` and divide with
``oracle_divide``; none of them calls the engine's eliminations, colons or
intersections.  So is ``oracle_saturation_exponent``, the engine's earlier
exponent loop on ``Polynomial`` products, the reference for the one on
kernel terms.

``oracle_lex`` and ``OracleParser`` (``oracle_parse``) are the script front
end's earlier lexer and parser, kept as the reference for the one-pass
lexer and the parser over its tuples: a script must give the same
statements and coefficients, or the same error at the same position.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from icmlab.cli_app import (
    QUERIES,
    ArityError,
    IdealStmt,
    LexError,
    ParseSyntaxError,
    QueryStmt,
    RingStmt,
    Script,
    Stmt,
    UndeclaredNameError,
)
from icmlab.errors import IncompatibleRingError, ZeroElementError
from icmlab.ideal_engine import Ideal, buchberger, normal_form
from icmlab.ring_core import (
    FieldSpec,
    Polynomial,
    RingDescriptor,
    TermOrder,
    _same_ring,
    _from_dict,
    monomial_div,
    monomial_divides,
    monomial_mul,
    remap_variables,
)

Mono = Tuple[int, ...]


# ---------------------------------------------------------------------------
# term orders, written from the definitions


def oracle_lex_key(m: Mono):
    return m


def oracle_grevlex_key(m: Mono):
    # higher total degree wins; ties break by the SMALLEST trailing exponent
    # losing, i.e. compare reversed exponents negated
    return (sum(m), tuple(-m[i] for i in range(len(m) - 1, -1, -1)))


def oracle_key(ring: RingDescriptor):
    if ring.order.kind == "lex":
        return oracle_lex_key
    if ring.order.kind == "grevlex":
        return oracle_grevlex_key
    if ring.order.kind == "elimination-block":
        # grevlex inside each block, the first block dominant
        b = ring.order.block
        return lambda m: (oracle_grevlex_key(m[:b]), oracle_grevlex_key(m[b:]))
    raise ValueError("oracle only handles lex, grevlex and elimination blocks")


# ---------------------------------------------------------------------------
# field and polynomial helpers on raw dicts {mono: field element}


def _fsub(field, a, b):
    return field.add(a, field.neg(b))


def _fdiv(field, a, b):
    return field.mul(a, field.invert(b))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    return tuple(min(x, y) for x, y in zip(a, b))


class OraclePoly:
    """Tiny dict-backed polynomial with field ops supplied by the ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingDescriptor, coeffs: Dict[Mono, object]) -> None:
        self.ring = ring
        self.coeffs = {m: c for m, c in coeffs.items() if c != ring.field.zero}

    @classmethod
    def from_poly(cls, p: Polynomial) -> "OraclePoly":
        return cls(p.ring, dict(p.terms))

    def to_poly(self) -> Polynomial:
        return self.ring.polynomial(dict(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self, key) -> Tuple[Mono, object]:
        m = max(self.coeffs, key=key)
        return m, self.coeffs[m]

    def sub_scaled_shift(self, other: "OraclePoly", scale, shift: Mono) -> "OraclePoly":
        """self - scale * x^shift * other, in fresh storage."""
        field = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            mm = _mono_mul(m, shift)
            out[mm] = _fsub(field, out.get(mm, field.zero), field.mul(scale, c))
        return OraclePoly(self.ring, out)

    def scaled(self, scale) -> "OraclePoly":
        field = self.ring.field
        return OraclePoly(self.ring, {m: field.mul(scale, c) for m, c in self.coeffs.items()})


def oracle_reduce(f: OraclePoly, basis: Sequence[OraclePoly], key) -> OraclePoly:
    """Full reduction: repeatedly cancel the largest reducible term."""
    field = f.ring.field
    remainder: Dict[Mono, object] = {}
    work = OraclePoly(f.ring, f.coeffs)
    while not work.is_zero:
        m, c = work.leading(key)
        hit = None
        for g in basis:
            gm, _ = g.leading(key)
            if _mono_divides(gm, m):
                hit = g
                break
        if hit is None:
            remainder[m] = c
            rest = dict(work.coeffs)
            del rest[m]
            work = OraclePoly(f.ring, rest)
        else:
            gm, gc = hit.leading(key)
            work = work.sub_scaled_shift(hit, _fdiv(field, c, gc), _mono_div(m, gm))
    return OraclePoly(f.ring, remainder)


def oracle_divide(f: Polynomial, divisors: Sequence[Polynomial]):
    """Multivariate division by the max-scan algorithm: every step rescans
    the work dict for its largest term under ``oracle_key`` and files each
    result term through a dict that is sorted at the end.  Same contract
    and, term for term, the same quotients and remainder as
    ``ideal_engine.divide``."""
    ring = f.ring
    field = ring.field
    key = oracle_key(ring)
    for d in divisors:
        if d.ring != f.ring:
            raise IncompatibleRingError("operands live in different rings")
        if d.is_zero:
            raise ZeroElementError("cannot divide by the zero polynomial")
    div_data = [(d.leading_monomial(), d.leading_coefficient(), d) for d in divisors]
    work = dict(f.terms)
    remainder: dict = {}
    quotients: List[dict] = [{} for _ in divisors]
    while work:
        mono = max(work, key=key)
        c = work.pop(mono)
        for idx, (ltm, ltc, d) in enumerate(div_data):
            if monomial_divides(ltm, mono):
                shift = monomial_div(mono, ltm)
                factor = _fdiv(field, c, ltc)
                q = quotients[idx]
                q[shift] = field.add(q.get(shift, field.zero), factor)
                # the leading term cancels exactly; only the tail feeds back
                for m2, c2 in d.terms[1:]:
                    m = monomial_mul(shift, m2)
                    nc = _fsub(field, work.get(m, field.zero), field.mul(factor, c2))
                    if nc == 0:
                        work.pop(m, None)
                    else:
                        work[m] = nc
                break
        else:
            remainder[mono] = c
    quots = [_from_dict(ring, q) for q in quotients]
    return quots, _from_dict(ring, remainder)


def oracle_s_polynomial(fi: OraclePoly, fj: OraclePoly, key) -> OraclePoly:
    """(lcm/mi)*fi/ci - (lcm/mj)*fj/cj for leading terms ci*mi and cj*mj
    under ``key``, built term by term."""
    ring = fi.ring
    field = ring.field
    mi, ci = fi.leading(key)
    mj, cj = fj.leading(key)
    lcm = _mono_lcm(mi, mj)
    s = OraclePoly(ring, {})
    for src, mono, coeff in ((fi, mi, ci), (fj, mj, cj)):
        shift = _mono_div(lcm, mono)
        sign = field.one if src is fi else _fsub(field, field.zero, field.one)
        scale = _fdiv(field, sign, coeff)
        acc = dict(s.coeffs)
        for m, c in src.coeffs.items():
            mm = _mono_mul(m, shift)
            acc[mm] = field.add(acc.get(mm, field.zero), field.mul(scale, c))
        s = OraclePoly(ring, acc)
    return s


def oracle_buchberger(gens: Sequence[Polynomial]) -> List[Polynomial]:
    """Criteria-free FIFO Buchberger plus naive minimalization/reduction.

    Returns the reduced monic basis sorted ascending in the ring order,
    the same normal form the engine promises, reached by a different road.
    """
    polys = [g for g in gens if not g.is_zero]
    if not polys:
        return []
    ring = polys[0].ring
    key = oracle_key(ring)
    field = ring.field
    basis = [OraclePoly.from_poly(g) for g in polys]
    queue = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    guard = 0
    while queue:
        guard += 1
        if guard > 200_000:
            raise RuntimeError("oracle pair queue exploded")
        i, j = queue.pop(0)
        r = oracle_reduce(oracle_s_polynomial(basis[i], basis[j], key), basis, key)
        if not r.is_zero:
            basis.append(r)
            queue.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: drop any element whose leading monomial another divides
    keep: List[OraclePoly] = []
    leads = [g.leading(key)[0] for g in basis]
    for idx, g in enumerate(basis):
        m = leads[idx]
        redundant = any(
            other != idx
            and _mono_divides(leads[other], m)
            and (leads[other] != m or other < idx)
            for other in range(len(basis))
        )
        if not redundant:
            keep.append(g)
    # fully reduce each survivor against the others, iterate to fixpoint
    changed = True
    while changed:
        changed = False
        for idx in range(len(keep)):
            others = keep[:idx] + keep[idx + 1 :]
            r = oracle_reduce(keep[idx], others, key)
            if r.coeffs != keep[idx].coeffs:
                keep[idx] = r
                changed = True
    out = []
    for g in keep:
        _, c = g.leading(key)
        out.append(g.scaled(_fdiv(field, field.one, c)).to_poly())
    out.sort(key=lambda p: key(p.leading_monomial()))
    return out


# ---------------------------------------------------------------------------
# saturation, intersection and colons, the engine's earlier formulas


def oracle_eliminate(ring: RingDescriptor, build) -> Ideal:
    """K cap k[ring] for K = <build(lift, t)> in k[t, ring], t a fresh
    variable eliminated by a block order: ``buchberger`` completes the
    ``Polynomial`` generators, and the t-free elements of the basis, moved
    back into ``ring``, generate the answer."""
    name, k = "t", 0
    while name in ring.variables:
        name, k = "t%d" % k, k + 1
    aug = RingDescriptor(ring.field, (name,) + ring.variables, TermOrder("elimination-block", 1))
    down = [None] + list(range(ring.nvars))

    def lift(g: Polynomial) -> Polynomial:
        return remap_variables(g, aug, range(1, aug.nvars))

    G = buchberger(build(lift, aug.variable(0)), ring=aug)
    return Ideal(ring, [remap_variables(g, ring, down) for g in G if not any(m[0] for m, _ in g.terms)])


def oracle_intersect(a: Ideal, b: Ideal) -> Ideal:
    """a cap b = (t*a + (1 - t)*b) cap k[ring]."""
    _same_ring(a, b)
    if not a.generators or not b.generators:
        return Ideal(a.ring, ())
    return oracle_eliminate(
        a.ring, lambda lift, t: [t * lift(g) for g in a.generators] + [(1 - t) * lift(g) for g in b.generators]
    )


def oracle_quotient(J: Ideal, f: Polynomial) -> Ideal:
    """(J : f) = (1/f) * (J cap <f>), each generator divided exactly."""
    if f.is_zero:
        raise ZeroElementError("colon by the zero polynomial is undefined")
    out = []
    for g in oracle_intersect(J, Ideal(J.ring, (f,))).generators:
        (q,), r = oracle_divide(g, [f])
        assert r.is_zero, "%s is not a multiple of %s" % (g, f)
        out.append(q)
    return Ideal(J.ring, out)


def oracle_saturate(J: Ideal, I: Ideal) -> Tuple[Ideal, int]:
    """(J : I^infinity) and the least k with I^k * (J : I^infinity) inside J.

    One Rabinowitsch elimination (J : g^infinity) = (J + <1 - t*g>) cap k[x]
    per generator g of I, the parts intersected with ``oracle_intersect``;
    the exponent is counted by normal forms modulo J."""
    if J.ring != I.ring:
        raise IncompatibleRingError("operands live in different rings")
    if not I.generators:
        raise ZeroElementError("saturation by the zero ideal is undefined")
    parts = [
        oracle_eliminate(J.ring, lambda lift, t, g=g: [lift(h) for h in J.generators] + [1 - t * lift(g)])
        for g in I.generators
    ]
    sat = parts[0]
    for part in parts[1:]:
        sat = oracle_intersect(sat, part)
    return sat, oracle_saturation_exponent(J, I, sat)


def oracle_saturation_exponent(J: Ideal, I: Ideal, sat: Ideal) -> int:
    """The least k with I^k * sat inside J, by the engine's earlier exponent
    loop on ``Polynomial`` products: the normal forms modulo J of sat's
    generators are multiplied by each generator of I and reduced again
    until all vanish; NF(g * NF(h)) = NF(g * h) makes this exact."""
    gb = J.groebner_basis()
    rest = {normal_form(s, gb) for s in sat.generators}
    exponent = 0
    while any(rest):
        rest = {normal_form(g * h, gb) for g in I.generators for h in rest if h}
        exponent += 1
    return exponent


def oracle_colon_ideal(J: Ideal, I: Ideal) -> Ideal:
    """The colon ideal (J : I) = intersection over generators g of (J : g)."""
    _same_ring(J, I)
    if not I.generators:
        raise ZeroElementError("colon by the zero ideal is undefined")
    parts = [oracle_quotient(J, g) for g in I.generators]
    out = parts[0]
    for part in parts[1:]:
        out = oracle_intersect(out, part)
    return out


# ---------------------------------------------------------------------------
# QQ inputs for the fraction-free completion


def _hard_coefficient(rng: random.Random):
    kind = rng.randrange(3)
    sign = rng.choice((-1, 1))
    if kind == 0:
        return sign * rng.randint(1, 9)
    if kind == 1:
        return Fraction(sign * rng.randint(1, 99), rng.randint(2, 10**6))
    return sign * rng.randint(2**64, 2**72)


# the term orders the fraction-free cross-checks run in
HARD_ORDERS = (
    TermOrder("lex"),
    TermOrder("grevlex"),
    TermOrder("elimination-block", 1),
    TermOrder("elimination-block", 2),
)


def hard_rational_poly(rng: random.Random, ring: RingDescriptor) -> Polynomial:
    """2-3 terms of degree at most 2 per variable; each coefficient is small,
    a fraction with a denominator up to 10^6, or above 2^64 in size, and
    the whole polynomial is scaled by 1, -1, 6, -35 or 2^65."""
    acc: Dict[Mono, object] = {}
    for _ in range(rng.randint(2, 3)):
        m = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        acc[m] = acc.get(m, 0) + _hard_coefficient(rng)
    return ring.polynomial(acc) * rng.choice((1, -1, 6, -35, 2**65))


def hard_traits(f: Polynomial) -> Set[str]:
    """Which of the strains ``hard_rational_poly`` aims at f carries."""
    coeffs = [c for _, c in f.terms]
    out = set()
    if any(c.denominator > 1 for c in coeffs):
        out.add("denominator")
    elif gcd(*(c.numerator for c in coeffs)) > 1:
        out.add("content > 1")
    if any(abs(c.numerator) > 2**64 for c in coeffs):
        out.add("numerator > 2^64")
    if coeffs and coeffs[0] < 0:
        out.add("negative lead")
    return out


# ---------------------------------------------------------------------------
# monomial ideal combinatorics, straight from the definitions


def dimension_brute_force(nvars: int, gens: Sequence[Mono]) -> int:
    """dim R/J for monomial J: the largest variable subset S such that no
    generator lives entirely on S (checked over all 2^n subsets)."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    if any(not s for s in supports):
        raise ValueError("unit ideal has no quotient dimension")
    best = -1
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            s = set(subset)
            if all(not supp <= s for supp in supports):
                return size
    return best


def minimalize(gens: Sequence[Mono]) -> List[Mono]:
    out: List[Mono] = []
    for m in sorted(set(gens), key=lambda x: (sum(x), x)):
        if not any(_mono_divides(o, m) for o in out):
            out.append(m)
    return out


def colon_monomial(gens: Sequence[Mono], f: Mono) -> List[Mono]:
    """(J : f) for monomial J and monomial f is generated by m / gcd(m, f)."""
    return minimalize([_mono_div(m, _mono_gcd(m, f)) for m in gens])


def colon_ideal_monomial(gens: Sequence[Mono], others: Sequence[Mono]) -> List[Mono]:
    """(J : I) as the intersection of the per-generator colons."""
    parts = [colon_monomial(gens, f) for f in others]
    acc = parts[0]
    for part in parts[1:]:
        acc = intersect_monomial(acc, part)
    return acc


def saturate_monomial(gens: Sequence[Mono], others: Sequence[Mono]) -> Tuple[List[Mono], int]:
    """(J : I^infinity) for monomial J and I by iterating the colon until the
    chain stops; returns the stable ideal and the number of strict steps."""
    current = minimalize(gens)
    steps = 0
    while True:
        nxt = colon_ideal_monomial(current, others)
        if equal_monomial_ideals(nxt, current):
            return current, steps
        current = nxt
        steps += 1


def intersect_monomial(a: Sequence[Mono], b: Sequence[Mono]) -> List[Mono]:
    """J1 cap J2 for monomial ideals is generated by pairwise lcms."""
    return minimalize([_mono_lcm(m, h) for m in a for h in b])


def membership_monomial(f: Mono, gens: Sequence[Mono]) -> bool:
    return any(_mono_divides(m, f) for m in gens)


def equal_monomial_ideals(a: Sequence[Mono], b: Sequence[Mono]) -> bool:
    return minimalize(a) == minimalize(b)


# ---------------------------------------------------------------------------
# homogeneous membership by linear algebra


def _monomials_of_degree(nvars: int, degree: int) -> List[Mono]:
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def homogeneous_membership(f: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """Exact membership for homogeneous data: f in <gens> iff f is a linear
    combination sum m_i * g_i with deg(m_i g_i) = deg f, solved over the
    field by Gaussian elimination."""
    if f.is_zero:
        return True
    ring = f.ring
    field = ring.field
    d = f.total_degree()
    assert f.is_homogeneous(), "oracle needs homogeneous input"
    columns: List[Dict[Mono, object]] = []
    for g in gens:
        if g.is_zero:
            continue
        assert g.is_homogeneous()
        gap = d - g.total_degree()
        if gap < 0:
            continue
        for m in _monomials_of_degree(ring.nvars, gap):
            shifted: Dict[Mono, object] = {}
            for mono, coeff in g.terms:
                shifted[_mono_mul(mono, m)] = coeff
            columns.append(shifted)
    target = dict(f.terms)
    rows = sorted({m for col in columns for m in col} | set(target))
    if not columns:
        return False
    matrix = [[col.get(r, field.zero) for col in columns] for r in rows]
    rhs = [target.get(r, field.zero) for r in rows]
    # Gaussian elimination over the field
    n_rows, n_cols = len(matrix), len(columns)
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, n_rows):
            if matrix[r][col] != field.zero:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        rhs[pivot_row], rhs[pivot] = rhs[pivot], rhs[pivot_row]
        inv = _fdiv(field, field.one, matrix[pivot_row][col])
        matrix[pivot_row] = [field.mul(inv, v) for v in matrix[pivot_row]]
        rhs[pivot_row] = field.mul(inv, rhs[pivot_row])
        for r in range(n_rows):
            if r != pivot_row and matrix[r][col] != field.zero:
                factor = matrix[r][col]
                matrix[r] = [
                    _fsub(field, v, field.mul(factor, w))
                    for v, w in zip(matrix[r], matrix[pivot_row])
                ]
                rhs[r] = _fsub(field, rhs[r], field.mul(factor, rhs[pivot_row]))
        pivot_row += 1
        if pivot_row == n_rows:
            break
    for r in range(n_rows):
        if rhs[r] != field.zero and all(v == field.zero for v in matrix[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# associated primes by monomial witnesses


def _divisors(bound: Mono):
    ranges = [range(e + 1) for e in bound]
    return itertools.product(*ranges)


def associated_primes_witness(nvars: int, gens: Sequence[Mono]) -> Set[Tuple[int, ...]]:
    """Ass(R/J) for monomial J: a variable set S is associated exactly when
    (J : w) = <x_i : i in S> for some monomial witness w; witnesses divide
    the lcm of the generators."""
    gens = minimalize(gens)
    if not gens:
        return {()}
    lcm_all = gens[0]
    for m in gens[1:]:
        lcm_all = _mono_lcm(lcm_all, m)
    found: Set[Tuple[int, ...]] = set()
    unit_vectors = {
        tuple(1 if i == v else 0 for i in range(nvars)): v for v in range(nvars)
    }
    for w in _divisors(lcm_all):
        if membership_monomial(w, gens):
            continue
        colon = colon_monomial(gens, w)
        prime_vars = []
        is_prime = True
        for m in colon:
            if m in unit_vectors:
                prime_vars.append(unit_vectors[m])
            else:
                is_prime = False
                break
        if is_prime and colon:
            found.add(tuple(sorted(prime_vars)))
    return found


# ---------------------------------------------------------------------------
# localization dimension by subset enumeration


def local_dimension_brute(nvars: int, gens: Sequence[Mono], p_vars: Sequence[int]) -> int:
    """Longest chain of monomial primes inside p containing J: |p| - |q|
    maximized over sub-primes q of p with J inside q."""
    p_set = sorted(set(p_vars))
    best = None
    for size in range(len(p_set) + 1):
        for subset in itertools.combinations(p_set, size):
            s = set(subset)
            contains = all(
                any(i in s for i, e in enumerate(m) if e) for m in gens
            )
            if contains:
                depth = len(p_set) - size
                if best is None or depth > best:
                    best = depth
        if best is not None:
            break
        # the smallest containing sub-prime maximizes the chain, so the
        # first size that works is optimal
    if best is None:
        raise ValueError("the prime does not contain the ideal")
    return best


# ---------------------------------------------------------------------------
# the script front end's earlier lexer and parser: a per-character loop that
# builds frozen tokens, and a parser that reads them through peek and accept
# and multiplies every factor as a Fraction


@dataclass(frozen=True)
class OracleToken:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def oracle_lex(source: str) -> List[OracleToken]:
    tokens: List[OracleToken] = []
    line, line_start = 1, 0
    i, n = 0, len(source)
    while i < n:
        start, ch = i, source[i]
        i += 1
        if ch == "\n":
            line, line_start = line + 1, i
            continue
        if ch in " \t\r":
            continue
        if ch == "#":
            i = source.find("\n", i)
            if i < 0:  # the end of input sits where the comment starts
                i = start
                break
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            kind = "ident"
        elif ch.isdecimal():  # what int() accepts, so no superscript digits
            while i < n and source[i].isdecimal():
                i += 1
            kind = "int"
        elif ch in ";,=[]()+-*^/":
            kind = "sym"
        else:
            raise LexError("unexpected character %r" % ch, line, start - line_start + 1)
        tokens.append(OracleToken(kind, source[start:i], line, start - line_start + 1))
    tokens.append(OracleToken("eof", "", line, i - line_start + 1))
    return tokens


class OracleParser:
    def __init__(self, tokens: List[OracleToken]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ring: Optional[RingDescriptor] = None
        self.ideal_names: set = set()

    def peek(self, ahead: int = 0) -> OracleToken:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> OracleToken:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, *texts: str) -> str:
        """Consume the next token if its text is one of ``texts`` and return
        that text, else "".  No identifier or integer is spelled like a
        symbol, so a symbol in ``texts`` matches only that symbol."""
        return self.advance().text if self.peek().text in texts else ""

    def expect(self, want: str, what: str = "") -> OracleToken:
        """Consume the next token, which must be the symbol ``want`` or,
        when ``what`` names it for the error, a token of kind ``want``."""
        tok = self.peek()
        if (tok.kind if what else tok.text) != want:
            raise ParseSyntaxError(
                "expected %s, found %r" % (what or repr(want), tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return self.advance()

    def expect_int(self) -> int:
        return int(self.expect("int", "integer").text)

    # ---- statements ----

    def parse_script(self) -> Script:
        stmts: List[Stmt] = []
        while self.peek().kind != "eof":
            stmts.append(self.parse_stmt())
        return Script(tuple(stmts))

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseSyntaxError(
                "expected a statement, found %r" % tok.text, tok.line, tok.col
            )
        if tok.text == "ring":
            return self.parse_ring()
        if tok.text == "ideal":
            return self.parse_ideal()
        if tok.text in QUERIES:
            return self.parse_query()
        raise ParseSyntaxError(
            "unknown statement keyword %r" % tok.text, tok.line, tok.col
        )

    def parse_ring(self) -> RingStmt:
        self.advance()  # ring
        name = self.expect("ident", "ring name").text
        self.expect("=")
        field_tok = self.expect("ident", "field (QQ or GF(p))")
        if field_tok.text == "QQ":
            fld = FieldSpec(0)
        elif field_tok.text == "GF":
            self.expect("(")
            p = self.expect_int()
            self.expect(")")
            try:
                if p == 0:
                    raise ValueError("GF(0) is not a field; write QQ for the rationals")
                fld = FieldSpec(p)
            except ValueError as exc:
                raise ParseSyntaxError(str(exc), field_tok.line, field_tok.col)
        else:
            raise ParseSyntaxError(
                "unknown field %r (use QQ or GF(p))" % field_tok.text,
                field_tok.line,
                field_tok.col,
            )
        self.expect("[")
        names = [self.expect("ident", "variable name").text]
        while self.accept(","):
            names.append(self.expect("ident", "variable name").text)
        self.expect("]")
        order_kind = "grevlex"
        if self.accept("order"):
            kind_tok = self.expect("ident", "term order (lex or grevlex)")
            if kind_tok.text not in ("lex", "grevlex"):
                raise ParseSyntaxError(
                    "unknown term order %r" % kind_tok.text, kind_tok.line, kind_tok.col
                )
            order_kind = kind_tok.text
        self.expect(";")
        try:
            ring = RingDescriptor(fld, tuple(names), TermOrder(order_kind))
        except ValueError as exc:
            raise ParseSyntaxError(str(exc), field_tok.line, field_tok.col)
        self.ring = ring
        self.ideal_names = set()
        return RingStmt(name, ring)

    def _require_ring(self, tok: OracleToken) -> RingDescriptor:
        if self.ring is None:
            raise ParseSyntaxError("no ring declared yet", tok.line, tok.col)
        return self.ring

    def _ideal_name(self) -> str:
        tok = self.expect("ident", "ideal name")
        if tok.text not in self.ideal_names:
            raise UndeclaredNameError(
                "undeclared ideal %r" % tok.text, tok.line, tok.col
            )
        return tok.text

    def parse_ideal(self) -> IdealStmt:
        ring = self._require_ring(self.advance())  # ideal
        name = self.expect("ident", "ideal name").text
        self.expect("=")
        if self.peek().text == "intersect" and self.peek(1).text == "(":
            self.advance()
            self.advance()
            a = self._ideal_name()
            self.expect(",")
            b = self._ideal_name()
            self.expect(")")
            stmt = IdealStmt(name, None, (a, b))
        else:
            gens = [self.parse_polynomial(ring)]
            while self.accept(","):
                gens.append(self.parse_polynomial(ring))
            stmt = IdealStmt(name, tuple(gens))
        self.expect(";")
        self.ideal_names.add(name)
        return stmt

    def parse_query(self) -> QueryStmt:
        kw = self.advance()
        self._require_ring(kw)
        if kw.text == "verify":
            parts = [self.expect("ident", "suite id").text]
            while self.accept("-"):
                parts.append(self.expect("ident", "suite id").text)
            args: Tuple[str, ...] = ("-".join(parts),)
        else:
            arity = QUERIES[kw.text][0]
            names: List[str] = []
            while len(names) < arity and self.peek().kind == "ident":
                names.append(self._ideal_name())
            tok = self.peek()
            if len(names) < arity or tok.kind == "ident":
                raise ArityError(
                    "query %r takes %d ideal name(s)" % (kw.text, arity), tok.line, tok.col
                )
            args = tuple(names)
        self.expect(";")
        return QueryStmt(kw.text, args)

    # ---- polynomials ----

    def parse_polynomial(self, ring: RingDescriptor) -> Polynomial:
        acc: Dict[tuple, Fraction] = {}
        sign = self.accept("+", "-")
        while True:
            exps = [0] * ring.nvars
            coeff = Fraction(-1 if sign == "-" else 1) * self._parse_factor(ring, exps)
            while self.accept("*"):
                coeff *= self._parse_factor(ring, exps)
            mono = tuple(exps)
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
            sign = self.accept("+", "-")
            if not sign:
                break
        tok = self.peek()
        try:
            return ring.polynomial(acc)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseSyntaxError(str(exc), tok.line, tok.col)

    def _parse_factor(self, ring: RingDescriptor, exps: List[int]) -> Union[int, Fraction]:
        """Read one factor: a variable's power goes into ``exps``, and the
        factor's coefficient (1 for a variable) is returned."""
        tok = self.advance()
        if tok.kind == "int":
            if not self.accept("/"):
                return int(tok.text)
            den = self.expect_int()
            if den == 0:
                raise ParseSyntaxError("division by zero", tok.line, tok.col)
            return Fraction(int(tok.text), den)
        if tok.kind == "ident":
            try:
                idx = ring.var_index(tok.text)
            except KeyError:
                raise UndeclaredNameError(
                    "undeclared variable %r" % tok.text, tok.line, tok.col
                )
            exps[idx] += self.expect_int() if self.accept("^") else 1
            return 1
        raise ParseSyntaxError(
            "expected a factor, found %r" % (tok.text or "end of input"),
            tok.line,
            tok.col,
        )


def oracle_parse(source: str) -> Script:
    return OracleParser(oracle_lex(source)).parse_script()
