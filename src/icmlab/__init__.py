"""Exact computational commutative algebra over affine polynomial rings.

The package computes reduced Groebner bases, ideal arithmetic (sums,
intersections, colons, saturations), Krull dimension, height, associated
primes of monomial ideals, grade via certified regular sequences, and the
I-Cohen-Macaulay condition grade(I, M) + dim M/IM = dim M for cyclic
modules M = R/J, together with randomized suites exercising the structural
relations around that condition.
"""
from .errors import EngineError
from .ring_core import FieldSpec, RingDescriptor
from .ideal_engine import (
    Ideal,
    buchberger,
    engine_context,
    ideal_intersect,
    ideal_quotient_ideal,
    saturate,
)
from .invariants import (
    CyclicModule,
    associated_primes_monomial,
    grade,
    height,
    krull_dimension,
    minimal_primes_monomial,
    verify_grade_witness,
)
from .icm_checker import icm_report
from .theorem_lab import SUITE_IDS, run_suite

__version__ = "0.1.0"

# the names of README.md's Library block, plus the base of every engine
# error; everything else is imported from its submodule
__all__ = [
    "SUITE_IDS",
    "CyclicModule",
    "EngineError",
    "FieldSpec",
    "Ideal",
    "RingDescriptor",
    "associated_primes_monomial",
    "buchberger",
    "engine_context",
    "grade",
    "height",
    "icm_report",
    "ideal_intersect",
    "ideal_quotient_ideal",
    "krull_dimension",
    "minimal_primes_monomial",
    "run_suite",
    "saturate",
    "verify_grade_witness",
]
