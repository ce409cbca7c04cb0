"""The I-Cohen-Macaulay condition and its structural relation checks.

A cyclic module M = R/J is I-Cohen-Macaulay when

    grade(I, M) + dim(M/IM) = dim(M).

The inequality <= always holds, so the report carries the nonnegative
defect dim(M) - grade(I, M) - dim(M/IM) and the verdict is defect == 0.

The relation checks each encode one transport statement: how the verdict,
grade, and dimensions move under quotients by regular sequences, under the
annihilator quotient, between nested test ideals, at associated primes,
under localization at a monomial prime, and under polynomial ring
extension.  Each returns a RelationReport: the verdict, the log that
explains it, and a skip reason.  A check that hypothesizes a property (say,
that M is p-CM) evaluates the hypothesis first and reports a skip when it
fails instead of passing vacuously.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import invariants
from .errors import EngineError, InhomogeneousIdealError, StepLimitExceededError
from .ideal_engine import (
    Ideal,
    ideal_intersect,
    ideal_quotient_ideal,
    ideal_sum,
    extend_ring,
    membership,
)
from .invariants import CyclicModule, GradeWitness, MonomialPrime
from .ring_core import Polynomial


@dataclass(frozen=True)
class IcmReport:
    """Everything the decision produces: the certified grade, the two
    dimensions, the defect, and the verdict.  When the module is the whole
    ring the comparison of grade against height comes along too."""

    grade: GradeWitness
    dim_m: int
    dim_m_mod_im: int
    defect: int
    is_icm: bool
    height_i: Optional[int] = None
    grade_equals_height: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "grade": self.grade.value,
            "dim_m": self.dim_m,
            "dim_m_mod_im": self.dim_m_mod_im,
            "defect": self.defect,
            "is_icm": self.is_icm,
            "witness": [str(x) for x in self.grade.sequence],
            "certificate_exponent": self.grade.certificate.exponent,
        }

    def summary(self) -> str:
        return "grade %d, dim %d, dim mod %d, is_icm %s" % (
            self.grade.value, self.dim_m, self.dim_m_mod_im, self.is_icm
        )


@dataclass(frozen=True)
class RelationReport:
    """Outcome of one structural relation check.

    ``holds`` is the verdict for the instance; a report with
    ``skipped_reason`` set was never really evaluated (its hypothesis
    failed) and ``holds`` stays True vacuously.  ``hypothesis_log`` records
    the quantities compared, so a failing report shows which equality
    broke.
    """

    holds: bool
    hypothesis_log: Tuple[str, ...]
    skipped_reason: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


def _skipped(reason: str) -> RelationReport:
    """The report of a check whose hypothesis failed."""
    return RelationReport(True, (reason,), reason)


def icm_report(M: CyclicModule, I: Ideal, seed: int = 0) -> IcmReport:
    """Decide whether M = R/J is I-Cohen-Macaulay, with full supporting data.

    The verdict only depends on the ideals, not on how their generator
    lists are written down: everything flows through reduced Groebner
    bases.
    """
    w = invariants.grade(M, I, seed=seed)
    dim_m = invariants.krull_dimension(M)
    quotient = CyclicModule(M.ring, ideal_sum(M.defining_ideal, I))
    dim_mod = invariants.krull_dimension(quotient)
    defect = dim_m - w.value - dim_mod
    height_i = None
    geh = None
    if M.defining_ideal.is_zero_ideal:
        height_i = invariants.height(I)
        geh = w.value == height_i
    return IcmReport(
        grade=w,
        dim_m=dim_m,
        dim_m_mod_im=dim_mod,
        defect=defect,
        is_icm=defect == 0,
        height_i=height_i,
        grade_equals_height=geh,
    )


def is_cohen_macaulay_graded(M: CyclicModule, seed: int = 0) -> bool:
    """Classical Cohen-Macaulayness of R/J for homogeneous J, read off at
    the ideal of all variables: depth equals dimension."""
    for g in M.defining_ideal.generators:
        if not g.is_homogeneous():
            raise InhomogeneousIdealError(
                "Cohen-Macaulay test needs homogeneous generators; %s mixes degrees" % g
            )
    ring = M.ring
    mvars = Ideal(ring, [ring.variable(i) for i in range(ring.nvars)])
    w = invariants.grade(M, mvars, seed=seed)
    return w.value == invariants.krull_dimension(M)


def check_grade_height(I: Ideal, seed: int = 0) -> RelationReport:
    """If R is I-Cohen-Macaulay then grade(I, R) = height(I).

    One-directional: the converse can fail, so nothing is asserted when the
    verdict is negative.
    """
    ring = I.ring
    M = CyclicModule(ring, Ideal(ring, ()))
    rep = icm_report(M, I, seed=seed)
    log = [
        "grade = %d" % rep.grade.value,
        "height = %d" % rep.height_i,
        "is_icm = %s" % rep.is_icm,
    ]
    if rep.is_icm:
        holds = bool(rep.grade_equals_height)
        log.append("verdict positive, so grade must equal height")
    else:
        holds = True
        log.append("verdict negative, implication is vacuous here")
    return RelationReport(holds, tuple(log))


def quotient_transport(
    M: CyclicModule,
    I: Ideal,
    sequence: Tuple[Polynomial, ...],
    seed: int = 0,
) -> RelationReport:
    """M is I-CM iff M/(sequence)M is I-CM, for an M-regular sequence inside I;
    the grade drops by exactly the length, dim M drops by exactly the length,
    and dim M/IM does not move.

    The sequence is replayed (membership in I plus regularity) before
    anything else; handing in a non-regular sequence is a caller error.
    """
    ring = M.ring
    current = invariants.replay_regular_sequence(M.defining_ideal, I, sequence)
    r = len(sequence)
    base = icm_report(M, I, seed=seed)
    quot = icm_report(CyclicModule(ring, current), I, seed=seed)
    log = [
        "sequence of length %d replayed: in I and regular" % r,
        "base: " + base.summary(),
        "quotient: " + quot.summary(),
    ]
    holds = (
        base.is_icm == quot.is_icm
        and base.grade.value - quot.grade.value == r
        and base.dim_m - quot.dim_m == r
        and base.dim_m_mod_im == quot.dim_m_mod_im
    )
    return RelationReport(holds, tuple(log))


def subideal_transfer_check(
    M: CyclicModule, I: Ideal, J2: Ideal, seed: int = 0
) -> RelationReport:
    """Transfer of the verdict between nested test ideals I and J2:

    (1) with I inside J2: J2-CM and equal grades force I-CM;
    (2) with I inside J2: I-CM and equal dim(M/...) force J2-CM;
    (3) unconditionally: I-CM and J2-CM force (I intersect J2)-CM.
    """
    contained = all(membership(g, J2) for g in I.generators)
    rep_i = icm_report(M, I, seed=seed)
    rep_2 = icm_report(M, J2, seed=seed)
    log = ["I: " + rep_i.summary(), "J2: " + rep_2.summary()]
    violated: List[str] = []
    evaluated = 0
    if contained:
        log.append("containment I inside J2 verified")
        if rep_2.is_icm and rep_i.grade.value == rep_2.grade.value:
            evaluated += 1
            if rep_i.is_icm:
                log.append("part 1 holds: equal grades carried the verdict down")
            else:
                violated.append("part 1: J2-CM with equal grades but not I-CM")
        else:
            log.append("part 1 vacuous: hypothesis not met")
        if rep_i.is_icm and rep_i.dim_m_mod_im == rep_2.dim_m_mod_im:
            evaluated += 1
            if rep_2.is_icm:
                log.append("part 2 holds: equal quotient dimensions carried the verdict up")
            else:
                violated.append("part 2: I-CM with equal quotient dims but not J2-CM")
        else:
            log.append("part 2 vacuous: hypothesis not met")
    else:
        log.append("I is not inside J2; parts 1 and 2 skipped")
    if rep_i.is_icm and rep_2.is_icm:
        inter = ideal_intersect(I, J2)
        if inter.is_zero_ideal:
            log.append("intersection is the zero ideal; part 3 skipped")
        else:
            evaluated += 1
            rep_3 = icm_report(M, inter, seed=seed)
            if rep_3.is_icm:
                log.append("part 3 holds: verdict survives intersecting the test ideals")
            else:
                violated.append("part 3: both verdicts positive but the intersection fails")
    else:
        log.append("part 3 vacuous: needs both verdicts positive")
    log.extend(violated)
    return RelationReport(
        not violated,
        tuple(log),
        "every hypothesis failed" if evaluated == 0 else None,
    )


def annihilator_transport(M: CyclicModule, I: Ideal, seed: int = 0) -> RelationReport:
    """Quotienting by the annihilator of the image of I preserves the whole
    picture, provided the annihilator sits inside I.

    With J defining M, the annihilator of the image of I in R/J is
    (J : I)/J and the transported module is R/(J : I).  Hypothesis
    (J : I) inside I + J; then M is I-CM iff the transported module is
    I-CM with the same grade and the same dimension.  The base grade witness
    stays regular on the transported module up to its first element inside
    (J : I), and that prefix is replayed there.
    """
    J = M.defining_ideal
    if all(membership(g, J) for g in I.generators):
        return _skipped("the image of the test ideal is zero")
    colon = ideal_quotient_ideal(J, I)
    target = ideal_sum(I, J)
    if not all(membership(g, target) for g in colon.generators):
        return _skipped("annihilator not inside the test ideal plus J")
    base = icm_report(M, I, seed=seed)
    trans = icm_report(CyclicModule(M.ring, colon), I, seed=seed)
    log = [
        "(J : I) verified inside I + J",
        "base: " + base.summary(),
        "transported: " + trans.summary(),
    ]
    bundle = (
        trans.is_icm
        and base.grade.value == trans.grade.value
        and base.dim_m == trans.dim_m
    )
    holds = base.is_icm == bundle
    witness = base.grade.sequence
    kept = next((k for k, x in enumerate(witness) if membership(x, colon)), len(witness))
    outside = "the first %d of %d witness elements lie outside (J : I)" % (kept, len(witness))
    try:
        invariants.replay_regular_sequence(colon, I, witness[:kept])
    except StepLimitExceededError:
        raise
    except EngineError as exc:
        holds = False
        log.append(outside + "; their replay on the transported module fails: %s" % exc)
    else:
        log.append(outside + " and replay on the transported module")
    return RelationReport(holds, tuple(log))


def ass_dimension_check(M: CyclicModule, p: MonomialPrime, seed: int = 0) -> RelationReport:
    """For a p-Cohen-Macaulay module, some associated prime inside p
    realizes the full dimension of M."""
    rep = icm_report(M, p.as_ideal(), seed=seed)
    if not rep.is_icm:
        return _skipped("module is not p-Cohen-Macaulay at the chosen prime")
    ass = invariants.associated_primes_monomial(M.defining_ideal)
    dim_m = rep.dim_m
    matches = sorted(
        q.variables
        for q in ass
        if p.contains(q) and q.quotient_dimension() == dim_m
    )
    log = [
        "module is p-Cohen-Macaulay, dim %d" % dim_m,
        "associated primes: %s" % sorted(q.variables for q in ass),
        "witnessing primes inside p: %s" % matches,
    ]
    return RelationReport(bool(matches), tuple(log))


def localization_cm_check(
    M: CyclicModule, p: MonomialPrime, seed: int = 0
) -> RelationReport:
    """For a p-Cohen-Macaulay module the localization at p is classically
    Cohen-Macaulay: grade(p, M) equals the local dimension at p, and the
    grade witness is a system of parameters there."""
    rep = icm_report(M, p.as_ideal(), seed=seed)
    if not rep.is_icm:
        return _skipped("module is not p-Cohen-Macaulay at the chosen prime")
    local_dim = invariants.local_dimension(M, p)
    depth = rep.grade.value
    log = [
        "module is p-Cohen-Macaulay",
        "grade at p (local depth) = %d" % depth,
        "local dimension at p = %d" % local_dim,
        "witness length %d plays the system of parameters" % len(rep.grade.sequence),
    ]
    holds = depth == local_dim and len(rep.grade.sequence) == local_dim
    return RelationReport(holds, tuple(log))


def _extension_names(ring, k: int) -> Tuple[str, ...]:
    names = []
    taken = set(ring.variables)
    i = 1
    while len(names) < k:
        cand = "t%d" % i
        if cand not in taken:
            names.append(cand)
            taken.add(cand)
        i += 1
    return tuple(names)


def polynomial_extension_check(
    M: CyclicModule, I: Ideal, k_new: int = 1, seed: int = 0
) -> RelationReport:
    """Appending polynomial variables preserves the verdict and the grade;
    both dimensions grow by exactly the number of new variables, and for a
    variable-generated prime the height does not move."""
    if k_new < 1:
        raise ValueError("need at least one new variable")
    ring = M.ring
    names = _extension_names(ring, k_new)
    ext_j = extend_ring(M.defining_ideal, names)
    ext_i = extend_ring(I, names)
    ext_m = CyclicModule(ext_j.ring, ext_j)
    base = icm_report(M, I, seed=seed)
    ext = icm_report(ext_m, ext_i, seed=seed)
    log = [
        "extended by %d variable(s): %s" % (k_new, ", ".join(names)),
        "base: " + base.summary(),
        "extended: " + ext.summary(),
    ]
    if not M.defining_ideal.is_zero_ideal:
        log.append("quotient-module variant (nonzero defining ideal)")
    bundle = ext.is_icm and base.grade.value == ext.grade.value
    holds = (
        base.is_icm == bundle
        and ext.dim_m == base.dim_m + k_new
        and ext.dim_m_mod_im == base.dim_m_mod_im + k_new
    )
    is_var_prime = bool(I.generators) and all(
        g.is_monomial and g.total_degree() == 1 for g in I.generators
    )
    if is_var_prime:
        h_base = invariants.height(I)
        h_ext = invariants.height(ext_i)
        log.append("prime test ideal: height %d base, %d extended" % (h_base, h_ext))
        holds = holds and h_base == h_ext
    return RelationReport(holds, tuple(log))


def cm_implies_icm_check(M: CyclicModule, I: Ideal, seed: int = 0) -> RelationReport:
    """A classically Cohen-Macaulay graded module is I-CM for every proper
    test ideal I."""
    if not is_cohen_macaulay_graded(M, seed=seed):
        return _skipped("module is not Cohen-Macaulay")
    rep = icm_report(M, I, seed=seed)
    return RelationReport(rep.is_icm, ("module is Cohen-Macaulay", rep.summary()))
