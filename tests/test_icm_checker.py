"""The I-Cohen-Macaulay verdict and the structural relation checks."""
import random

import pytest

from icmlab import invariants
from icmlab.errors import EngineError, InhomogeneousIdealError, StepLimitExceededError
from icmlab.icm_checker import (
    annihilator_transport,
    ass_dimension_check,
    check_grade_height,
    cm_implies_icm_check,
    icm_report,
    is_cohen_macaulay_graded,
    localization_cm_check,
    polynomial_extension_check,
    quotient_transport,
    subideal_transfer_check,
)
from icmlab.ideal_engine import Ideal, ideal_intersect
from icmlab.invariants import CyclicModule, MonomialPrime, grade
from icmlab.ring_core import FieldSpec, RingDescriptor

QQ = FieldSpec(0)


def ring_qq(*names):
    return RingDescriptor(QQ, tuple(names))


def golden_instance():
    """R = QQ[x1..x3, y1..y3], J = <x> cap <y>, I = <x1,x2,x3>."""
    R = ring_qq("x1", "x2", "x3", "y1", "y2", "y3")
    xs = [R.variable(i) for i in range(3)]
    ys = [R.variable(i) for i in range(3, 6)]
    J = ideal_intersect(Ideal(R, xs), Ideal(R, ys))
    return R, CyclicModule(R, J), Ideal(R, xs)


def two_planes():
    """R = QQ[x1, x2, y1, y2], M = R/((x1, x2) cap (y1, y2)): two planes
    through a point, so depth 1 < dim 2 at the maximal ideal."""
    R = ring_qq("x1", "x2", "y1", "y2")
    xs = [R.variable(0), R.variable(1)]
    ys = [R.variable(2), R.variable(3)]
    return R, CyclicModule(R, ideal_intersect(Ideal(R, xs), Ideal(R, ys)))


def assert_hypothesis_failed(rep):
    assert rep.skipped
    assert rep.holds
    assert rep.hypothesis_log == (rep.skipped_reason,)


class TestIcmReport:
    def test_golden_instance_full_report(self):
        R, M, I = golden_instance()
        rep = icm_report(M, I, seed=1)
        assert rep.grade.value == 0
        assert rep.dim_m == 3
        assert rep.dim_m_mod_im == 3
        assert rep.defect == 0
        assert rep.is_icm is True

    def test_affine_unit_slice_is_icm(self):
        # QQ[u,v,x,y] with I = <u*x - 1>: grade 1, quotient dimension 3,
        # so the condition holds with dim R = 4; height is 1 as well
        R = ring_qq("u", "v", "x", "y")
        u, v, x, y = (R.variable(i) for i in range(4))
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [u * x - 1])
        rep = icm_report(M, I, seed=1)
        assert rep.grade.value == 1
        assert rep.dim_m == 4
        assert rep.dim_m_mod_im == 3
        assert rep.defect == 0
        assert rep.is_icm is True
        assert rep.height_i == 1
        assert rep.grade_equals_height is True

    def test_hypersurface_cases(self):
        # J = <x*y>, I = <x>: I sits inside an associated prime, so grade 0,
        # and dim M/IM = dim of the y-axis = 1 = dim M, so the verdict holds;
        # I = <x, y> avoids both components via x + y, grade 1, dim M/IM = 0
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        rep_x = icm_report(M, Ideal(R, [x]), seed=1)
        assert (rep_x.grade.value, rep_x.dim_m, rep_x.dim_m_mod_im) == (0, 1, 1)
        assert rep_x.is_icm is True
        rep_xy = icm_report(M, Ideal(R, [x, y]), seed=1)
        assert (rep_xy.grade.value, rep_xy.dim_m_mod_im) == (1, 0)
        assert rep_xy.defect == 0
        assert rep_xy.is_icm is True

    def test_two_planes_failure_case(self):
        # two planes meeting in a point: depth 1 < dimension 2, so the
        # maximal ideal exhibits a defect
        R = ring_qq("x1", "x2", "y1", "y2")
        xs = [R.variable(0), R.variable(1)]
        ys = [R.variable(2), R.variable(3)]
        J = ideal_intersect(Ideal(R, xs), Ideal(R, ys))
        M = CyclicModule(R, J)
        m = Ideal(R, [R.variable(i) for i in range(4)])
        rep = icm_report(M, m, seed=1)
        assert rep.grade.value == 1
        assert rep.dim_m == 2
        assert rep.dim_m_mod_im == 0
        assert rep.defect == 1
        assert rep.is_icm is False

    def test_defect_nonnegative_spot_checks(self):
        rng = random.Random(13)
        for fld in (QQ, FieldSpec(32003)):
            for _ in range(15):
                n = rng.randint(2, 4)
                R = RingDescriptor(fld, tuple("x%d" % i for i in range(n)))
                monos = []
                for _ in range(rng.randint(1, 3)):
                    e = [0] * n
                    for _ in range(rng.randint(1, 3)):
                        e[rng.randrange(n)] += 1
                    monos.append(tuple(e))
                J = Ideal(R, [R.monomial(m) for m in monos])
                M = CyclicModule(R, J)
                k = rng.randint(1, n)
                I = Ideal(R, [R.variable(i) for i in range(k)])
                rep = icm_report(M, I, seed=rng.randrange(1000))
                assert rep.defect >= 0
                assert rep.is_icm == (rep.defect == 0)

    def test_verdict_stable_under_presentation(self):
        # permuting or augmenting the generating set must not change anything
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        gens = [x * y, y * z]
        M1 = CyclicModule(R, Ideal(R, gens))
        M2 = CyclicModule(R, Ideal(R, gens[::-1]))
        M3 = CyclicModule(R, Ideal(R, gens + [x * y * z, 2 * x * y]))
        I = Ideal(R, [x, z])
        I_aug = Ideal(R, [x, z, x + z, 3 * x])
        reports = [
            icm_report(M, I_var, seed=9)
            for M in (M1, M2, M3)
            for I_var in (I, I_aug)
        ]
        first = reports[0]
        for rep in reports[1:]:
            assert rep.grade.value == first.grade.value
            assert rep.dim_m == first.dim_m
            assert rep.dim_m_mod_im == first.dim_m_mod_im
            assert rep.is_icm == first.is_icm

    def test_json_shape(self):
        R, M, I = golden_instance()
        rep = icm_report(M, I, seed=1)
        payload = rep.to_json()
        assert set(payload) == {
            "grade",
            "dim_m",
            "dim_m_mod_im",
            "defect",
            "is_icm",
            "witness",
            "certificate_exponent",
        }
        assert payload["grade"] == 0
        assert payload["witness"] == []


class TestGradedCM:
    def test_complete_intersection_is_cm(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x**2, y**3]))
        assert is_cohen_macaulay_graded(M, seed=1)

    def test_two_planes_meeting_in_a_point_not_cm(self):
        # <x1,x2> cap <y1,y2> in four variables: connected through one point
        R = ring_qq("x1", "x2", "y1", "y2")
        xs = [R.variable(0), R.variable(1)]
        ys = [R.variable(2), R.variable(3)]
        J = ideal_intersect(Ideal(R, xs), Ideal(R, ys))
        assert not is_cohen_macaulay_graded(CyclicModule(R, J), seed=1)

    def test_inhomogeneous_rejected(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x**2 - y]))
        with pytest.raises(InhomogeneousIdealError):
            is_cohen_macaulay_graded(M, seed=1)


class TestGradeHeight:
    def test_holds_on_hand_instances(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        for gens in ([x], [x, y], [x * y], [x * y, y * z], [x + y, z]):
            rep = check_grade_height(Ideal(R, gens), seed=2)
            assert not rep.skipped
            assert rep.holds

    def test_mixed_height_components(self):
        # <x*y, x*z> = <x> cap <y, z>: height comes from the big component
        # (1), the quotient dimension from it too (2); the free module is
        # CM, so the verdict is positive and grade matches height
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        I = Ideal(R, [x * y, x * z])
        rep = check_grade_height(I, seed=2)
        assert rep.holds
        inner = icm_report(CyclicModule(R, Ideal(R, [])), I, seed=2)
        assert inner.grade.value == inner.height_i == 1
        assert inner.dim_m_mod_im == 2
        assert inner.is_icm


class TestQuotientTransport:
    def test_transport_along_full_witness(self):
        R = ring_qq("x", "y", "z")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0), R.variable(1)])
        w = grade(M, I, seed=3)
        assert w.value == 2
        for r in range(w.value + 1):
            rep = quotient_transport(M, I, w.sequence[:r], seed=3)
            assert not rep.skipped
            assert rep.holds, rep.hypothesis_log

    def test_non_regular_sequence_rejected(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        I = Ideal(R, [x])
        with pytest.raises(EngineError):
            quotient_transport(M, I, (x,), seed=3)  # x is a zero divisor


class TestSubidealTransfer:
    def test_equal_ideals_all_parts(self):
        R, M, I = golden_instance()
        rep = subideal_transfer_check(M, I, I, seed=4)
        assert not rep.skipped
        assert rep.holds, rep.hypothesis_log

    def test_proper_containment(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x * y]))
        I = Ideal(R, [x])
        J2 = Ideal(R, [x, z])
        rep = subideal_transfer_check(M, I, J2, seed=4)
        assert rep.holds, rep.hypothesis_log

    def test_no_containment_still_runs_intersection_part(self):
        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0)])
        J2 = Ideal(R, [R.variable(1)])  # I is not inside J2
        rep = subideal_transfer_check(M, I, J2, seed=4)
        assert any("not inside" in line for line in rep.hypothesis_log)
        assert rep.holds, rep.hypothesis_log

    def test_every_part_vacuous_skips(self):
        # I is not inside J2, and M is not I-CM at the maximal ideal
        R, M = two_planes()
        I = Ideal(R, [R.variable(i) for i in range(4)])
        rep = subideal_transfer_check(M, I, Ideal(R, [R.variable(0)]), seed=4)
        assert rep.skipped
        assert rep.holds
        assert rep.skipped_reason == "every hypothesis failed"
        assert "part 3 vacuous: needs both verdicts positive" in rep.hypothesis_log


class TestAnnihilatorTransport:
    def test_zero_defining_ideal_trivial_annihilator(self):
        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0)])
        rep = annihilator_transport(M, I, seed=5)
        assert not rep.skipped
        assert rep.holds, rep.hypothesis_log

    def test_image_zero_skips(self):
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x]))
        rep = annihilator_transport(M, Ideal(R, [x]), seed=5)
        assert_hypothesis_failed(rep)

    def test_annihilator_outside_test_ideal_skips(self):
        # (xy : x^2) = (y), which is not inside (x^2) + (xy)
        R = ring_qq("x", "y")
        x, y = R.variable(0), R.variable(1)
        M = CyclicModule(R, Ideal(R, [x * y]))
        rep = annihilator_transport(M, Ideal(R, [x**2]), seed=5)
        assert_hypothesis_failed(rep)
        assert rep.skipped_reason == "annihilator not inside the test ideal plus J"

    def test_failed_witness_replay_fails_the_check(self, monkeypatch):
        # M = R and I = (x): the witness [x] lies outside (0 : x) = 0
        R = ring_qq("x", "y")
        x = R.variable(0)
        calls = []

        def refuse(J, I, sequence):
            calls.append((J.is_zero_ideal, tuple(sequence)))
            raise EngineError("sequence element 1 is not regular")

        monkeypatch.setattr(invariants, "replay_regular_sequence", refuse)
        rep = annihilator_transport(CyclicModule(R, Ideal(R, [])), Ideal(R, [x]), seed=5)
        assert calls == [(True, (x,))]
        assert rep.holds is False
        assert not rep.skipped
        assert any("sequence element 1 is not regular" in line for line in rep.hypothesis_log)

    def test_witness_replay_keeps_step_limit_errors(self, monkeypatch):
        R = ring_qq("x", "y")

        def trip(J, I, sequence):
            raise StepLimitExceededError("step limit")

        monkeypatch.setattr(invariants, "replay_regular_sequence", trip)
        with pytest.raises(StepLimitExceededError):
            annihilator_transport(
                CyclicModule(R, Ideal(R, [])), Ideal(R, [R.variable(0)]), seed=5
            )

    def test_monomial_instance(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x * y]))
        rep = annihilator_transport(M, Ideal(R, [x, z]), seed=5)
        if not rep.skipped:
            assert rep.holds, rep.hypothesis_log


class TestAssDimension:
    def test_golden_instance_prime(self):
        R, M, I = golden_instance()
        p = MonomialPrime.from_names(R, ["x1", "x2", "x3"])
        rep = ass_dimension_check(M, p, seed=6)
        assert not rep.skipped
        assert rep.holds, rep.hypothesis_log

    def test_skips_when_not_pcm(self):
        R, M = two_planes()
        p = MonomialPrime.from_names(R, ["x1", "x2", "y1", "y2"])
        rep = ass_dimension_check(M, p, seed=6)
        assert_hypothesis_failed(rep)


class TestLocalizationCM:
    def test_minimal_prime_of_max_dimension(self):
        R = ring_qq("x", "y", "z")
        M = CyclicModule(R, Ideal(R, [R.variable(0) * R.variable(1)]))
        p = MonomialPrime.from_names(R, ["x"])
        rep = localization_cm_check(M, p, seed=7)
        assert not rep.skipped
        assert rep.holds, rep.hypothesis_log

    def test_witness_length_is_part_of_the_check(self):
        R, M, I = golden_instance()
        p = MonomialPrime.from_names(R, ["y1", "y2", "y3"])
        rep = localization_cm_check(M, p, seed=7)
        assert not rep.skipped
        assert rep.holds, rep.hypothesis_log

    def test_skips_when_not_pcm(self):
        R, M = two_planes()
        p = MonomialPrime.from_names(R, ["x1", "x2", "y1", "y2"])
        rep = localization_cm_check(M, p, seed=7)
        assert_hypothesis_failed(rep)


class TestPolynomialExtension:
    def test_golden_instance_extends(self):
        R, M, I = golden_instance()
        for k_new in (1, 2):
            rep = polynomial_extension_check(M, I, k_new=k_new, seed=8)
            assert not rep.skipped
            assert rep.holds, rep.hypothesis_log

    def test_height_preserved_for_variable_ideals(self):
        R = ring_qq("x", "y")
        M = CyclicModule(R, Ideal(R, []))
        I = Ideal(R, [R.variable(0)])
        rep = polynomial_extension_check(M, I, k_new=2, seed=8)
        assert rep.holds, rep.hypothesis_log

    def test_quotient_module_variant(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x * y, y * z]))
        I = Ideal(R, [x, z])
        rep = polynomial_extension_check(M, I, k_new=1, seed=8)
        assert rep.holds, rep.hypothesis_log
        assert any("quotient-module variant" in line for line in rep.hypothesis_log)


class TestCmImpliesIcm:
    def test_cm_module_every_test_ideal(self):
        R = ring_qq("x", "y", "z")
        x, y, z = (R.variable(i) for i in range(3))
        M = CyclicModule(R, Ideal(R, [x**2]))  # hypersurface: CM
        for gens in ([x], [y], [x, y], [y, z], [x + y]):
            rep = cm_implies_icm_check(M, Ideal(R, gens), seed=9)
            assert not rep.skipped
            assert rep.holds, (gens, rep.hypothesis_log)

    def test_non_cm_module_skips(self):
        R, M = two_planes()
        rep = cm_implies_icm_check(M, Ideal(R, [R.variable(0), R.variable(1)]), seed=9)
        assert_hypothesis_failed(rep)
