"""The I-Cohen-Macaulay condition and its structural relation checks.

A cyclic module M = R/J is I-Cohen-Macaulay when

    grade(I, M) + dim(M/IM) = dim(M).

The inequality <= always holds, so the report carries the nonnegative
defect dim(M) - grade(I, M) - dim(M/IM) and the verdict is defect == 0.
Proof of the inequality: take a prime P containing I + Ann M with
dim R/P = dim M/IM.  Then grade(I, M) <= depth M_P <= dim M_P
<= dim M - dim R/P (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.10 and 1.2.12).
So ``invariants.grade`` stops its chain at dim M - dim M/IM, and the
report takes both dimensions from the same call.

The relation checks each encode one transport statement: how the verdict,
grade, and dimensions move under quotients by regular sequences, under the
annihilator quotient, between nested test ideals, at associated primes,
under localization at a monomial prime, and under polynomial ring
extension.  Each returns a RelationReport: the verdict, the log that
explains it, and a skip reason.  A check that hypothesizes a property (say,
that M is p-CM) evaluates the hypothesis first and reports a skip when it
fails instead of passing vacuously.  A check that runs more than one
grade chain or replay opens a default engine context when none is open
(``ideal_engine._in_engine_context``), so its reports share one memo.
"""
from __future__ import annotations

from typing import List, Tuple

from . import invariants
from .errors import EngineError, InhomogeneousIdealError, StepLimitExceededError
from .ideal_engine import (
    Ideal,
    _fresh_names,
    _in_engine_context,
    _seed,
    ideal_intersect,
    ideal_quotient_ideal,
    ideal_sum,
    extend_ring,
    membership,
)
from .invariants import CyclicModule, MonomialPrime
from .ring_core import Polynomial, Record


class IcmReport(Record):
    """Everything the decision produces: the certified grade, the two
    dimensions, the defect, and the verdict; for the whole ring also height
    I, which the grade equals exactly when the verdict is positive."""

    __slots__ = ("grade", "dim_m", "dim_m_mod_im", "height_i")
    _defaults = {"height_i": None}

    @property
    def defect(self) -> int:
        return self.dim_m - self.grade.value - self.dim_m_mod_im

    @property
    def is_icm(self) -> bool:
        return self.defect == 0

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


class RelationReport(Record):
    """Outcome of one structural relation check.

    ``holds`` is the verdict for the instance; a report with
    ``skipped_reason`` set was never really evaluated (its hypothesis
    failed) and ``holds`` stays True vacuously.  ``hypothesis_log`` records
    the quantities compared, so a failing report shows which equality
    broke.
    """

    __slots__ = ("holds", "hypothesis_log", "skipped_reason")
    _defaults = {"skipped_reason": None}

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
    bases.  Its grade chain opens a default engine context when none is open.
    """
    w, dim_m, dim_mod = invariants._grade_and_dimensions(M, I, seed)
    # for J = 0: dim M = n and J + I = I, so height I = n - dim R/I = dim M - dim M/IM
    return IcmReport(w, dim_m, dim_mod, dim_m - dim_mod if M.defining_ideal.is_zero_ideal else None)


@_in_engine_context
def is_cohen_macaulay_graded(M: CyclicModule, seed: int = 0) -> bool:
    """Classical Cohen-Macaulayness of R/J for homogeneous J, which its grevlex
    basis shows: the verdict at the ideal m of all variables, where dim M/mM = 0."""
    if not all(g.is_homogeneous() for g in _seed(M.defining_ideal)):
        g = next(g for g in M.defining_ideal.groebner_basis() if not g.is_homogeneous())
        raise InhomogeneousIdealError(
            "Cohen-Macaulay test needs homogeneous generators; %s mixes degrees" % g
        )
    ring = M.ring
    return icm_report(M, Ideal(ring, [ring.variable(i) for i in range(ring.nvars)]), seed).is_icm


def check_grade_height(I: Ideal, seed: int = 0) -> RelationReport:
    """R is I-Cohen-Macaulay for every proper I, i.e. grade(I, R) = height(I):
    a polynomial ring over a field is Cohen-Macaulay (Bruns-Herzog,
    Cohen-Macaulay Rings, section 2.1).

    The report holds exactly when the verdict is positive, so a grade
    witness that stops short, or a wrong dimension, shows as a failure.
    """
    ring = I.ring
    rep = icm_report(CyclicModule(ring, Ideal(ring, ())), I, seed=seed)
    log = (
        "grade = %d" % rep.grade.value,
        "height = %d" % rep.height_i,
        "is_icm = %s" % rep.is_icm,
    )
    return RelationReport(rep.is_icm, log)


@_in_engine_context
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


@_in_engine_context
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
        # I and J2 are nonzero (both reports ran) and R is a domain, so I*J2 != 0
        evaluated += 1
        if icm_report(M, ideal_intersect(I, J2), seed=seed).is_icm:
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


@_in_engine_context
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
    return RelationReport(depth == local_dim, tuple(log))


@_in_engine_context
def polynomial_extension_check(
    M: CyclicModule, I: Ideal, k_new: int = 1, seed: int = 0
) -> RelationReport:
    """Appending polynomial variables preserves the verdict and the grade;
    both dimensions grow by exactly the number of new variables, and for a
    variable-generated prime the height does not move."""
    if k_new < 1:
        raise ValueError("need at least one new variable")
    names = _fresh_names(M.ring, ["t%d" % i for i in range(1, k_new + 1)])
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
    if invariants.variable_prime(I) is not None:
        h_base = invariants.height(I)
        h_ext = invariants.height(ext_i)
        log.append("prime test ideal: height %d base, %d extended" % (h_base, h_ext))
        holds = holds and h_base == h_ext
    return RelationReport(holds, tuple(log))


@_in_engine_context
def cm_implies_icm_check(M: CyclicModule, I: Ideal, seed: int = 0) -> RelationReport:
    """A classically Cohen-Macaulay graded module is I-CM for every proper
    test ideal I."""
    if not is_cohen_macaulay_graded(M, seed=seed):
        return _skipped("module is not Cohen-Macaulay")
    rep = icm_report(M, I, seed=seed)
    return RelationReport(rep.is_icm, ("module is Cohen-Macaulay", rep.summary()))
