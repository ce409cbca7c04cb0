"""Randomized property suites for the structural relations.

Each suite is one trial function: from a trial seed it draws the module M
and test ideal I its relation checks (through a seeded generator, pure in
the instance spec) and everything else the check reads; the suite runs the
check per trial and tallies passes, hypothesis skips, and failures.
Generators are tuned so that a healthy fraction of instances actually
meets each hypothesis; the cheap trick is that a minimal prime of maximal
dimension always makes the module p-Cohen-Macaulay (grade 0 plus full
quotient dimension), so p-CM-gated suites never starve.

A failing instance is shrunk greedily (dropping generators, then swapping a
multi-term generator for its leading monomial or lowering an exponent, while
the failure persists) and serialized to the little script language, so the
reproducer declares the J and I that were checked, and any further test
ideal the relation compares I with, and can be replayed by hand.
"""
from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import invariants
from .errors import EngineError, UnknownSuiteError
from .icm_checker import (
    RelationReport,
    annihilator_transport,
    ass_dimension_check,
    check_grade_height,
    cm_implies_icm_check,
    localization_cm_check,
    polynomial_extension_check,
    quotient_transport,
    subideal_transfer_check,
)
from .ideal_engine import Ideal, _in_engine_context, ideal_sum
from .invariants import CyclicModule, MonomialPrime
from .ring_core import FieldSpec, Monomial, Polynomial, Record, RingDescriptor

MONOMIAL = "monomial"
BINOMIAL = "binomial"
MIXED = "mixed"

MAX_VARS = 8
MAX_DEGREE = 4


class InstanceSpec(Record):
    """Input to the instance generator.  Same spec, same instance, always."""

    __slots__ = ("n_vars", "field", "ideal_kind", "max_degree", "max_generators", "seed")

    def __init__(
        self, n_vars: int, field: FieldSpec, ideal_kind: str, max_degree: int, max_generators: int, seed: int
    ) -> None:
        if not 1 <= n_vars <= MAX_VARS:
            raise ValueError("n_vars must be between 1 and %d" % MAX_VARS)
        if not 1 <= max_degree <= MAX_DEGREE:
            raise ValueError("max_degree must be between 1 and %d" % MAX_DEGREE)
        if max_generators < 1:
            raise ValueError("need at least one generator")
        if ideal_kind not in (MONOMIAL, BINOMIAL, MIXED):
            raise ValueError("unknown ideal kind %r" % (ideal_kind,))
        super().__init__(n_vars, field, ideal_kind, max_degree, max_generators, seed)


class SuiteReport(Record):
    """Tally of one suite run; passed + skipped_hypothesis + failures
    always add up to trials."""

    __slots__ = ("suite_id", "trials", "skipped_hypothesis", "failures")

    @property
    def passed(self) -> int:
        return self.trials - self.skipped_hypothesis - len(self.failures)

    def to_json(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "trials": self.trials,
            "passed": self.passed,
            "skipped_hypothesis": self.skipped_hypothesis,
            "failures": list(self.failures),
        }

    def summary_line(self) -> str:
        return "suite %s: trials=%d passed=%d skipped=%d failures: %d" % (
            self.suite_id,
            self.trials,
            self.passed,
            self.skipped_hypothesis,
            len(self.failures),
        )


def _exponents(rng: random.Random, n: int, degree: int) -> Monomial:
    """An exponent vector of total degree ``degree``, one variable at a time."""
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_exponents(rng: random.Random, n: int, max_degree: int) -> Monomial:
    return _exponents(rng, n, rng.randint(1, max_degree))


def _random_monomial(rng: random.Random, ring: RingDescriptor, max_degree: int) -> Polynomial:
    return ring.monomial(_random_exponents(rng, ring.nvars, max_degree))


def _random_binomial(rng: random.Random, ring: RingDescriptor, max_degree: int) -> Polynomial:
    """A homogeneous difference m1 - c*m2 of two distinct monomials of the
    same degree; falls back to a monomial when no distinct partner exists."""
    n = ring.nvars
    degree = rng.randint(1, max_degree)
    m1 = _exponents(rng, n, degree)
    m2 = m1
    for _ in range(20):
        m2 = _exponents(rng, n, degree)
        if m2 != m1:
            break
    if m2 == m1:
        return ring.monomial(m1)
    p = ring.field.characteristic
    if p == 0:
        c = rng.randint(1, 3) * (1 if rng.random() < 0.5 else -1)
    else:
        c = rng.randint(1, p - 1)
    return ring.monomial(m1) - ring.monomial(m2, c)


def gen_instance(
    spec: InstanceSpec,
) -> Tuple[CyclicModule, Ideal, Optional[MonomialPrime]]:
    """Deterministically expand a spec into (module, test ideal, prime).

    The defining ideal is always homogeneous: monomials are homogeneous for
    free and binomials pair monomials of equal degree.  In mixed kind each
    generator is a binomial with probability 1/2 (the kind-guarantee tests
    measure exactly this frequency).  The test ideal is a variable subset
    60% of the time and a small monomial ideal otherwise.  The prime (only
    produced for monomial instances) contains a minimal prime of the
    defining ideal, half the time one of minimal codimension.
    """
    rng = random.Random(spec.seed)
    ring = RingDescriptor(
        spec.field, tuple("x%d" % (i + 1) for i in range(spec.n_vars))
    )
    count = rng.randint(1, spec.max_generators)
    gens: List[Polynomial] = []
    for _ in range(count):
        if spec.ideal_kind == MONOMIAL:
            gens.append(_random_monomial(rng, ring, spec.max_degree))
        elif spec.ideal_kind == BINOMIAL:
            gens.append(_random_binomial(rng, ring, spec.max_degree))
        else:
            if rng.random() < 0.5:
                gens.append(_random_binomial(rng, ring, spec.max_degree))
            else:
                gens.append(_random_monomial(rng, ring, spec.max_degree))
    defining = Ideal(ring, gens)
    module = CyclicModule(ring, defining)

    if rng.random() < 0.6:
        k = rng.randint(1, ring.nvars)
        idxs = sorted(rng.sample(range(ring.nvars), k))
        test = Ideal(ring, [ring.variable(i) for i in idxs])
    else:
        test = Ideal(
            ring,
            [_random_monomial(rng, ring, spec.max_degree) for _ in range(rng.randint(1, 3))],
        )

    prime: Optional[MonomialPrime] = None
    if spec.ideal_kind == MONOMIAL:
        prime = _choose_prime(rng, ring, defining)
    return module, test, prime


def _choose_prime(rng: random.Random, ring: RingDescriptor, J: Ideal) -> MonomialPrime:
    mins = invariants.sorted_primes(invariants.minimal_primes_monomial(J))
    smallest = len(mins[0].indices)
    top = [q for q in mins if len(q.indices) == smallest]
    if rng.random() < 0.5:
        return top[rng.randrange(len(top))]
    q = mins[rng.randrange(len(mins))]
    extras = [i for i in range(ring.nvars) if i not in q.indices]
    if extras and rng.random() < 0.4 and len(q.indices) + 1 < ring.nvars:
        v = extras[rng.randrange(len(extras))]
        return MonomialPrime(ring, q.indices + (v,))
    return q


def serialize_instance(
    M: CyclicModule,
    I: Ideal,
    header: Sequence[str] = (),
    others: Sequence[Tuple[str, Ideal]] = (),
) -> str:
    """Write the instance as a runnable script in the CLI input language:
    J and I, then each further named test ideal of ``others``, and one
    ``icm`` query of J per test ideal, I first."""
    ring = M.ring
    lines = ["# %s" % h for h in header]
    lines.append(
        "ring R = %s[%s] order %s;" % (ring.field, ", ".join(ring.variables), ring.order.kind)
    )
    j_gens = M.defining_ideal.generators
    lines.append("ideal J = %s;" % (", ".join(str(g) for g in j_gens) if j_gens else "0"))
    tests = [("I", I)] + list(others)
    lines.extend("ideal %s = %s;" % (name, ", ".join(str(g) for g in K.generators)) for name, K in tests)
    lines.extend("icm J %s;" % name for name, _ in tests)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suite trials
#
# A suite is one trial function: it maps a trial seed to (M, I, check), where
# M and I are the module and test ideal the relation checks and check(M, I)
# runs it.  Every other decision the check reads is drawn up front from the
# trial's own stream and captured, so the check is a pure function of (M, I);
# that purity is what lets the shrinker re-run it on smaller generators.  A
# check that compares I with further test ideals made from it carries them
# as ``check.test_ideals(I)``, (name, ideal) pairs, and the reproducer
# declares and queries them too.

Check = Callable[[CyclicModule, Ideal], RelationReport]
Trial = Tuple[CyclicModule, Ideal, Check]


def _field_draw(meta: random.Random) -> FieldSpec:
    # prime-field heavy: rational arithmetic is exact but slower
    return FieldSpec(32003) if meta.random() < 0.7 else FieldSpec(0)


def _kind_draw(meta: random.Random) -> str:
    r = meta.random()
    if r < 0.7:
        return MONOMIAL
    if r < 0.9:
        return BINOMIAL
    return MIXED


def _spec_draw(meta: random.Random, kind: Optional[str] = None) -> InstanceSpec:
    field = _field_draw(meta)
    if kind is None:
        kind = _kind_draw(meta)
    return InstanceSpec(
        n_vars=meta.randint(2, 4),
        field=field,
        ideal_kind=kind,
        max_degree=meta.randint(2, 3),
        max_generators=meta.randint(1, 3),
        seed=meta.getrandbits(32),
    )


def _pcm_prime(M: CyclicModule) -> MonomialPrime:
    """A minimal prime of minimal codimension (so of maximal dimension);
    the module is always p-CM there."""
    return invariants.sorted_primes(invariants.minimal_primes_monomial(M.defining_ideal))[0]


def _free_module(ring: RingDescriptor) -> CyclicModule:
    """R itself, as R/0."""
    return CyclicModule(ring, Ideal(ring, ()))


def _variable_prime(I: Ideal) -> MonomialPrime:
    """The prime I, which must be generated by variables."""
    prime = invariants.variable_prime(I)
    if prime is None:
        raise EngineError("test ideal %s is not generated by variables" % (I,))
    return prime


def _quotient_transport(meta_seed: int) -> Trial:
    meta = random.Random(meta_seed)
    spec = _spec_draw(meta)
    prefix_frac = meta.random()
    M, I, _ = gen_instance(spec)

    def check(M: CyclicModule, I: Ideal) -> RelationReport:
        w = invariants.grade(M, I, seed=spec.seed)
        prefix = round(prefix_frac * w.value)
        return quotient_transport(M, I, w.sequence[:prefix], seed=spec.seed)

    return M, I, check


def _subideal_transfer(meta_seed: int) -> Trial:
    meta = random.Random(meta_seed)
    spec = _spec_draw(meta, kind=MONOMIAL)
    use_pcm = meta.random() < 0.6
    same_j2 = meta.random() < 0.4
    extra_exps = [
        _random_exponents(meta, spec.n_vars, spec.max_degree)
        for _ in range(meta.randint(1, 2))
    ]
    M, I, _ = gen_instance(spec)
    if use_pcm:
        # a maximal-dimension minimal prime keeps the I-CM hypothesis alive
        I = _pcm_prime(M).as_ideal()

    def j2(I: Ideal) -> Ideal:
        ring = I.ring
        return I if same_j2 else ideal_sum(I, Ideal(ring, [ring.monomial(e) for e in extra_exps]))

    def check(M: CyclicModule, I: Ideal) -> RelationReport:
        return subideal_transfer_check(M, I, j2(I), seed=spec.seed)

    check.test_ideals = lambda I: (("J2", j2(I)),)
    return M, I, check


def _annihilator_transport(meta_seed: int) -> Trial:
    meta = random.Random(meta_seed)
    zero_j = meta.random() < 0.3
    spec = _spec_draw(meta, kind=None if zero_j else MONOMIAL)
    M, I, _ = gen_instance(spec)
    if zero_j:
        # over the full ring the annihilator of a nonzero ideal is zero,
        # so the hypothesis holds for free and the trial always evaluates
        M = _free_module(M.ring)
    return M, I, lambda M, I: annihilator_transport(M, I, seed=spec.seed)


def _grade_height(meta_seed: int) -> Trial:
    spec = _spec_draw(random.Random(meta_seed))
    _, I, _ = gen_instance(spec)
    return _free_module(I.ring), I, lambda M, I: check_grade_height(I, seed=spec.seed)


def _cm_implies_icm(meta_seed: int) -> Trial:
    meta = random.Random(meta_seed)
    spec = _spec_draw(meta)
    r = meta.random()
    M, I, _ = gen_instance(spec)
    ring = M.ring
    if r < 0.45:
        # pure powers of distinct variables: a regular sequence, hence CM
        k = meta.randint(1, max(1, spec.n_vars - 1))
        gens = []
        for i in sorted(meta.sample(range(spec.n_vars), k)):
            exps = [0] * ring.nvars
            exps[i] = meta.randint(1, spec.max_degree)
            gens.append(ring.monomial(exps))
        M = CyclicModule(ring, Ideal(ring, gens))
    elif r < 0.55:
        M = _free_module(ring)
    return M, I, lambda M, I: cm_implies_icm_check(M, I, seed=spec.seed)


def _at_prime(meta_seed: int, relation: Callable[..., RelationReport]) -> Trial:
    """The trial of both suites that test a module at a monomial prime p;
    the checked test ideal is p."""
    meta = random.Random(meta_seed)
    spec = _spec_draw(meta, kind=MONOMIAL)
    force_pcm = meta.random() < 0.5
    M, _, prime = gen_instance(spec)  # a monomial instance always has a prime
    I = (_pcm_prime(M) if force_pcm else prime).as_ideal()
    return M, I, lambda M, I: relation(M, _variable_prime(I), seed=spec.seed)


def _poly_extension(meta_seed: int) -> Trial:
    meta = random.Random(meta_seed)
    spec = _spec_draw(meta)
    zero_j = meta.random() < 0.7
    k_new = meta.randint(1, 2)
    M, I, _ = gen_instance(spec)
    if zero_j:
        M = _free_module(M.ring)
    return M, I, lambda M, I: polynomial_extension_check(M, I, k_new=k_new, seed=spec.seed)


# each suite's trial function, in the order SUITE_IDS lists them; the
# relations are looked up when a trial runs, not when this table is built
_SUITES: Dict[str, Callable[[int], Trial]] = {
    "quotient-transport": _quotient_transport,
    "subideal-transfer": _subideal_transfer,
    "annihilator-transport": _annihilator_transport,
    "grade-height": _grade_height,
    "cm-implies-icm": _cm_implies_icm,
    "ass-dimension": lambda meta_seed: _at_prime(meta_seed, ass_dimension_check),
    "localization-cm": lambda meta_seed: _at_prime(meta_seed, localization_cm_check),
    "poly-extension": _poly_extension,
}

SUITE_IDS = tuple(_SUITES)


def _suite(suite_id: str) -> Callable[[int], Trial]:
    """The trial function of a suite; UnknownSuiteError for any other id."""
    try:
        return _SUITES[suite_id]
    except KeyError:
        raise UnknownSuiteError(
            "unknown suite %r; valid ids: %s" % (suite_id, ", ".join(SUITE_IDS))
        ) from None


def run_trial(suite_id: str, meta_seed: int) -> RelationReport:
    """Draw and check a single trial; the unit the suites are built from."""
    M, I, check = _suite(suite_id)(meta_seed)
    return check(M, I)


def _shrink_candidates(
    j_gens: Tuple[Polynomial, ...], i_gens: Tuple[Polynomial, ...]
) -> Iterator[Tuple[Tuple[Polynomial, ...], Tuple[Polynomial, ...]]]:
    """The one-step reductions of (J, I), in the order they are tried: drop a
    J generator; drop an I generator when I has more than one; swap a
    generator (J first, then I) for its leading monomial when it has several
    terms, else for the monomial with one exponent lowered."""
    for k in range(len(j_gens)):
        yield j_gens[:k] + j_gens[k + 1 :], i_gens
    if len(i_gens) > 1:
        for k in range(len(i_gens)):
            yield j_gens, i_gens[:k] + i_gens[k + 1 :]
    for in_j, gens in ((True, j_gens), (False, i_gens)):
        for k, g in enumerate(gens):
            mono = g.leading_monomial()
            if len(g.terms) > 1:
                smaller = [mono]
            elif sum(mono) > 1:
                smaller = [mono[:v] + (e - 1,) + mono[v + 1 :] for v, e in enumerate(mono) if e]
            else:
                smaller = []
            for m in smaller:
                cand = gens[:k] + (g.ring.monomial(m),) + gens[k + 1 :]
                yield (cand, i_gens) if in_j else (j_gens, cand)


def shrink_failure(
    rerun: Callable[[Tuple[Polynomial, ...], Tuple[Polynomial, ...]], bool],
    j_gens: Tuple[Polynomial, ...],
    i_gens: Tuple[Polynomial, ...],
    max_attempts: int = 200,
) -> Tuple[Tuple[Polynomial, ...], Tuple[Polynomial, ...]]:
    """Greedy minimization: take the first candidate of
    ``_shrink_candidates`` that ``rerun`` still reports as a failure, and
    start over from it, until no candidate fails or ``max_attempts`` calls
    have been made (checked between sweeps).  ``rerun`` must return True
    when the candidate still fails and False otherwise (errors count as
    False)."""
    attempts = 0
    while attempts < max_attempts:
        for j_cand, i_cand in _shrink_candidates(j_gens, i_gens):
            attempts += 1
            if rerun(j_cand, i_cand):
                j_gens, i_gens = j_cand, i_cand
                break
        else:
            break
    return j_gens, i_gens


def _describe_failure(suite_id: str, meta_seed: int, rep: RelationReport) -> str:
    """Shrink the checked instance and serialize a reproducer script."""
    M, I, check = _suite(suite_id)(meta_seed)
    ring = M.ring

    def rerun(j_gens: Tuple[Polynomial, ...], i_gens: Tuple[Polynomial, ...]) -> bool:
        try:
            again = check(CyclicModule(ring, Ideal(ring, j_gens)), Ideal(ring, i_gens))
            return (not again.skipped) and (not again.holds)
        except EngineError:
            return False

    j_small, i_small = shrink_failure(rerun, M.defining_ideal.generators, I.generators)
    header = [
        "suite %s failed, trial seed %d" % (suite_id, meta_seed),
        "relation %s, log: %s" % (suite_id, " | ".join(rep.hypothesis_log)),
    ]
    I = Ideal(ring, i_small)
    others = check.test_ideals(I) if hasattr(check, "test_ideals") else ()
    return serialize_instance(CyclicModule(ring, Ideal(ring, j_small)), I, header=header, others=others)


@_in_engine_context
def run_suite(suite_id: str, trials: int = 100, base_seed: int = 0) -> SuiteReport:
    """Run one suite; deterministic in (suite_id, trials, base_seed) under
    the engine context's budgets, in a default context when none is open.

    Trials are independent (seeded per trial), so the tally would come out
    the same under any execution order; failures are reported sorted by
    trial seed.
    """
    _suite(suite_id)  # an unknown id fails before any trial runs
    if trials < 0:
        raise ValueError("trial count must be nonnegative, got %d" % trials)
    skipped = 0
    failures: List[Tuple[int, str]] = []
    for t in range(trials):
        meta_seed = base_seed * 1_000_003 + t
        rep = run_trial(suite_id, meta_seed)
        if rep.skipped:
            skipped += 1
        elif not rep.holds:
            failures.append((meta_seed, _describe_failure(suite_id, meta_seed, rep)))
    failures.sort(key=lambda f: f[0])
    return SuiteReport(
        suite_id=suite_id,
        trials=trials,
        skipped_hypothesis=skipped,
        failures=tuple(text for _, text in failures),
    )
