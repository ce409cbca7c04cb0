"""Randomized property suites for the structural relations.

Each suite draws deterministic instances (a seeded generator, pure in the
instance spec), evaluates one relation check per instance, and tallies
passes, hypothesis skips, and failures.  Generators are tuned so that a
healthy fraction of instances actually meets each hypothesis; the cheap
trick is that a minimal prime of maximal dimension always makes the module
p-Cohen-Macaulay (grade 0 plus full quotient dimension), so p-CM-gated
suites never starve.

A failing instance is shrunk greedily (dropping generators, then lowering
exponents, while the failure persists) and serialized to the little script
language so it can be replayed by hand.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
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
from .ideal_engine import Ideal, ideal_sum
from .invariants import CyclicModule, MonomialPrime
from .ring_core import FieldSpec, Monomial, Polynomial, RingDescriptor

MONOMIAL = "monomial"
BINOMIAL = "binomial"
MIXED = "mixed"

MAX_VARS = 8
MAX_DEGREE = 4

@dataclass(frozen=True)
class InstanceSpec:
    """Input to the instance generator.  Same spec, same instance, always."""

    n_vars: int
    field: FieldSpec
    ideal_kind: str
    max_degree: int
    max_generators: int
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_vars <= MAX_VARS:
            raise ValueError("n_vars must be between 1 and %d" % MAX_VARS)
        if not 1 <= self.max_degree <= MAX_DEGREE:
            raise ValueError("max_degree must be between 1 and %d" % MAX_DEGREE)
        if self.max_generators < 1:
            raise ValueError("need at least one generator")
        if self.ideal_kind not in (MONOMIAL, BINOMIAL, MIXED):
            raise ValueError("unknown ideal kind %r" % (self.ideal_kind,))


@dataclass(frozen=True)
class SuiteReport:
    """Tally of one suite run; passed + skipped_hypothesis + failures
    always add up to trials."""

    suite_id: str
    trials: int
    passed: int
    skipped_hypothesis: int
    failures: Tuple[str, ...]

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


def _random_exponents(rng: random.Random, n: int, max_degree: int) -> Monomial:
    degree = rng.randint(1, max_degree)
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_monomial(rng: random.Random, ring: RingDescriptor, max_degree: int) -> Polynomial:
    return ring.monomial(_random_exponents(rng, ring.nvars, max_degree))


def _random_binomial(rng: random.Random, ring: RingDescriptor, max_degree: int) -> Polynomial:
    """A homogeneous difference m1 - c*m2 of two distinct monomials of the
    same degree; falls back to a monomial when no distinct partner exists."""
    n = ring.nvars
    degree = rng.randint(1, max_degree)
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    m1 = tuple(exps)
    m2 = m1
    for _ in range(20):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        m2 = tuple(exps)
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
    prime: Optional[MonomialPrime] = None,
    header: Sequence[str] = (),
) -> str:
    """Write the instance as a runnable script in the CLI input language."""
    ring = M.ring
    lines = ["# %s" % h for h in header]
    lines.append(
        "ring R = %s[%s] order %s;" % (ring.field, ", ".join(ring.variables), ring.order.kind)
    )
    j_gens = M.defining_ideal.generators
    lines.append("ideal J = %s;" % (", ".join(str(g) for g in j_gens) if j_gens else "0"))
    lines.append("ideal I = %s;" % ", ".join(str(g) for g in I.generators))
    if prime is not None:
        lines.append("# P is the localization prime")
        lines.append("ideal P = %s;" % ", ".join(prime.variables))
    lines.append("icm J I;")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suite drawing and evaluation
#
# Every runner is split into a draw phase and an eval phase.  The draw phase
# consumes the per-trial random stream and packages every decision into a
# plain dict, so the eval phase is a pure function of (module, test ideal,
# prime, aux).  The shrinker re-invokes the eval phase on smaller generator
# tuples; that purity is what makes re-evaluation meaningful.


def _meta(meta_seed: int) -> random.Random:
    return random.Random(meta_seed)


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


Instance = Tuple[CyclicModule, Ideal, Optional[MonomialPrime], dict]


def _draw_quotient_transport(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    spec = _spec_draw(meta)
    aux = {"seed": spec.seed, "prefix_frac": meta.random()}
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_quotient_transport(inst: Instance) -> RelationReport:
    M, I, _, aux = inst
    w = invariants.grade(M, I, seed=aux["seed"])
    prefix = round(aux["prefix_frac"] * w.value)
    return quotient_transport(M, I, w.sequence[:prefix], seed=aux["seed"])


def _draw_subideal_transfer(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    spec = _spec_draw(meta, kind=MONOMIAL)
    aux = {
        "seed": spec.seed,
        "use_pcm": meta.random() < 0.6,
        "same_j2": meta.random() < 0.4,
        "extra_exps": [
            _random_exponents(meta, spec.n_vars, spec.max_degree)
            for _ in range(meta.randint(1, 2))
        ],
    }
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_subideal_transfer(inst: Instance) -> RelationReport:
    M, I, _, aux = inst
    ring = M.ring
    if aux["use_pcm"]:
        # a maximal-dimension minimal prime keeps the I-CM hypothesis alive
        I = _pcm_prime(M).as_ideal()
    if aux["same_j2"]:
        J2 = I
    else:
        extra = [ring.monomial(e) for e in aux["extra_exps"]]
        J2 = ideal_sum(I, Ideal(ring, extra))
    return subideal_transfer_check(M, I, J2, seed=aux["seed"])


def _draw_annihilator_transport(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    zero_j = meta.random() < 0.3
    spec = _spec_draw(meta, kind=None if zero_j else MONOMIAL)
    aux = {"seed": spec.seed, "zero_j": zero_j}
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_annihilator_transport(inst: Instance) -> RelationReport:
    M, I, _, aux = inst
    if aux["zero_j"]:
        # over the full ring the annihilator of a nonzero ideal is zero,
        # so the hypothesis holds for free and the trial always evaluates
        M = CyclicModule(M.ring, Ideal(M.ring, ()))
    return annihilator_transport(M, I, seed=aux["seed"])


def _draw_grade_height(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    spec = _spec_draw(meta)
    aux = {"seed": spec.seed}
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_grade_height(inst: Instance) -> RelationReport:
    _, I, _, aux = inst
    return check_grade_height(I, seed=aux["seed"])


def _draw_cm_implies_icm(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    spec = _spec_draw(meta)
    r = meta.random()
    aux: dict = {"seed": spec.seed, "branch": "random"}
    if r < 0.45:
        # pure powers of distinct variables: a regular sequence, hence CM
        k = meta.randint(1, max(1, spec.n_vars - 1))
        idxs = sorted(meta.sample(range(spec.n_vars), k))
        aux["branch"] = "complete-intersection"
        aux["ci"] = [(i, meta.randint(1, spec.max_degree)) for i in idxs]
    elif r < 0.55:
        aux["branch"] = "zero"
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_cm_implies_icm(inst: Instance) -> RelationReport:
    M, I, _, aux = inst
    ring = M.ring
    if aux["branch"] == "complete-intersection":
        gens = []
        for i, e in aux["ci"]:
            exps = [0] * ring.nvars
            exps[i] = e
            gens.append(ring.monomial(tuple(exps)))
        M = CyclicModule(ring, Ideal(ring, gens))
    elif aux["branch"] == "zero":
        M = CyclicModule(ring, Ideal(ring, ()))
    return cm_implies_icm_check(M, I, seed=aux["seed"])


def _draw_at_prime(meta_seed: int) -> Instance:
    """The draw of both suites that test a module at a monomial prime."""
    meta = _meta(meta_seed)
    spec = _spec_draw(meta, kind=MONOMIAL)
    aux = {"seed": spec.seed, "force_pcm": meta.random() < 0.5}
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _trial_prime(suite_id: str, inst: Instance) -> MonomialPrime:
    M, _, prime, aux = inst
    prime = _pcm_prime(M) if aux["force_pcm"] else prime
    if prime is None:
        raise EngineError("suite %s drew an instance with no prime" % suite_id)
    return prime


def _eval_ass_dimension(inst: Instance) -> RelationReport:
    M, _, _, aux = inst
    prime = _trial_prime("ass-dimension", inst)
    return ass_dimension_check(M, prime, seed=aux["seed"])


def _eval_localization_cm(inst: Instance) -> RelationReport:
    M, _, _, aux = inst
    prime = _trial_prime("localization-cm", inst)
    return localization_cm_check(M, prime, seed=aux["seed"])


def _draw_poly_extension(meta_seed: int) -> Instance:
    meta = _meta(meta_seed)
    spec = _spec_draw(meta)
    aux = {
        "seed": spec.seed,
        "zero_j": meta.random() < 0.7,
        "k_new": meta.randint(1, 2),
    }
    M, I, prime = gen_instance(spec)
    return M, I, prime, aux


def _eval_poly_extension(inst: Instance) -> RelationReport:
    M, I, _, aux = inst
    if aux["zero_j"]:
        M = CyclicModule(M.ring, Ideal(M.ring, ()))
    return polynomial_extension_check(M, I, k_new=aux["k_new"], seed=aux["seed"])


Suite = Tuple[Callable[[int], Instance], Callable[[Instance], RelationReport]]

# each suite's (draw, evaluate) pair, in the order SUITE_IDS lists them
_SUITES: Dict[str, Suite] = {
    "quotient-transport": (_draw_quotient_transport, _eval_quotient_transport),
    "subideal-transfer": (_draw_subideal_transfer, _eval_subideal_transfer),
    "annihilator-transport": (_draw_annihilator_transport, _eval_annihilator_transport),
    "grade-height": (_draw_grade_height, _eval_grade_height),
    "cm-implies-icm": (_draw_cm_implies_icm, _eval_cm_implies_icm),
    "ass-dimension": (_draw_at_prime, _eval_ass_dimension),
    "localization-cm": (_draw_at_prime, _eval_localization_cm),
    "poly-extension": (_draw_poly_extension, _eval_poly_extension),
}

SUITE_IDS = tuple(_SUITES)


def _suite(suite_id: str) -> Suite:
    """The (draw, evaluate) pair of a suite; UnknownSuiteError for any other id."""
    try:
        return _SUITES[suite_id]
    except KeyError:
        raise UnknownSuiteError(
            "unknown suite %r; valid ids: %s" % (suite_id, ", ".join(SUITE_IDS))
        ) from None


def run_trial(suite_id: str, meta_seed: int) -> RelationReport:
    """Draw and evaluate a single trial; the unit the suites are built from."""
    draw, evaluate = _suite(suite_id)
    return evaluate(draw(meta_seed))


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
    """Shrink the failing instance and serialize a reproducer script."""
    draw, evaluate = _suite(suite_id)
    M0, I0, prime, aux = draw(meta_seed)
    ring = M0.ring

    def rerun(j_gens: Tuple[Polynomial, ...], i_gens: Tuple[Polynomial, ...]) -> bool:
        if not i_gens:
            return False
        try:
            inst = (CyclicModule(ring, Ideal(ring, j_gens)), Ideal(ring, i_gens), prime, aux)
            again = evaluate(inst)
            return (not again.skipped) and (not again.holds)
        except EngineError:
            return False

    j_small, i_small = shrink_failure(
        rerun, M0.defining_ideal.generators, I0.generators
    )
    shrunk_m = CyclicModule(ring, Ideal(ring, j_small))
    shrunk_i = Ideal(ring, i_small)
    header = [
        "suite %s failed, trial seed %d" % (suite_id, meta_seed),
        "relation %s, log: %s" % (suite_id, " | ".join(rep.hypothesis_log)),
    ]
    return serialize_instance(shrunk_m, shrunk_i, prime, header=header)


def run_suite(suite_id: str, trials: int = 100, base_seed: int = 0) -> SuiteReport:
    """Run one suite; deterministic in (suite_id, trials, base_seed) under
    the engine context's budgets.

    Trials are independent (seeded per trial), so the tally would come out
    the same under any execution order; failures are reported sorted by
    trial seed.
    """
    _suite(suite_id)  # an unknown id fails before any trial runs
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
        passed=trials - skipped - len(failures),
        skipped_hypothesis=skipped,
        failures=tuple(text for _, text in failures),
    )
