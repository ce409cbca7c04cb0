"""Grade, both dimensions and the verdict at I = m of families whose answers
are known in closed form, not from an engine run.

- Two d-planes through a point, J = <x_i * y_j : 1 <= i, j <= d> in 2d
  variables, under a seeded unitriangular change of coordinates (an
  automorphism, so the answer is that of the monomial ideal): dim d, and
  depth 1 for d >= 2, so grade 1, defect d - 1, "no".  The depth follows
  from 0 -> R/J -> R/P + R/Q -> k -> 0 and the depth lemma (Bruns-Herzog,
  Prop. 1.2.9).
- The rational quartic (s^4, s^3 t, s t^3, t^4): dim 2, depth 1, "no".
- The twisted cubic, the 2x2 minors of a generic 2x3 Hankel matrix:
  Cohen-Macaulay of dim 2, "yes".
- The 4x4 Pfaffians of a generic skew 5x5 matrix, in its 10 entries above
  the diagonal and moved by ``unitriangular``: Gorenstein of codimension 3
  (Buchsbaum-Eisenbud, Amer. J. Math. 99, 1977), so Cohen-Macaulay of dim
  7, "yes".

Every witness is replayed by ``verify_grade_witness``.  These are graded
instances at I = m, so the "yes" answer comes from
``invariants._parameter_chain``, and each "no" from the chain of regular
elements after the route's length check fails.
"""
import random
from itertools import combinations

import pytest

from icmlab.icm_checker import icm_report
from icmlab.ideal_engine import Ideal, engine_context
from icmlab.invariants import CyclicModule, verify_grade_witness
from icmlab.ring_core import FieldSpec, RingDescriptor


def unitriangular(ring, seed):
    """The images of the variables under a seeded unitriangular change:
    v_k -> v_k + sum over l > k of c_kl * v_l, with c_kl in [-3, 3]."""
    rng = random.Random(seed)
    v = [ring.variable(i) for i in range(ring.nvars)]
    out = []
    for k in range(ring.nvars):
        image = v[k]
        for l in range(k + 1, ring.nvars):
            image = image + v[l] * rng.randint(-3, 3)
        out.append(image)
    return out


def two_planes(d, p, seed):
    """(M, m) for the two d-planes x = 0 and y = 0 through the origin of
    2d-space, moved by ``unitriangular``."""
    ring = RingDescriptor(FieldSpec(p), ["x%d" % i for i in range(1, d + 1)] + ["y%d" % i for i in range(1, d + 1)])
    v = unitriangular(ring, seed)
    J = Ideal(ring, [v[i] * v[d + j] for i in range(d) for j in range(d)])
    return CyclicModule(ring, J), Ideal(ring, [ring.variable(i) for i in range(ring.nvars)])


def curve(p, which):
    """(M, m) for the rational quartic or the twisted cubic in k[a, b, c, d]."""
    ring = RingDescriptor(FieldSpec(p), ("a", "b", "c", "d"))
    a, b, c, d = (ring.variable(i) for i in range(4))
    gens = {
        "quartic": [b * c - a * d, b**3 - a**2 * c, c**3 - b * d**2, a * c**2 - b**2 * d],
        "cubic": [b**2 - a * c, b * c - a * d, c**2 - b * d],
    }[which]
    return CyclicModule(ring, Ideal(ring, gens)), Ideal(ring, [a, b, c, d])


def pfaffians(p):
    """(M, m) for the five 4x4 Pfaffians of the skew 5x5 matrix (x_ij),
    x_ij for i < j, moved by ``unitriangular``."""
    pairs = list(combinations(range(1, 6), 2))
    ring = RingDescriptor(FieldSpec(p), ["x%d%d" % ij for ij in pairs])
    x = dict(zip(pairs, unitriangular(ring, 51)))
    quads = combinations(range(1, 6), 4)
    J = Ideal(ring, [x[a, b] * x[c, d] - x[a, c] * x[b, d] + x[a, d] * x[b, c] for a, b, c, d in quads])
    return CyclicModule(ring, J), Ideal(ring, [ring.variable(i) for i in range(ring.nvars)])


# (name, instance, grade, dim M, dim M/mM); the verdict is defect == 0
FAMILIES = [
    ("two_planes_d%d_%s" % (d, "qq" if p == 0 else "gf"), lambda d=d, p=p: two_planes(d, p, 46 + d), 1, d, 0)
    for d in (3, 4)
    for p in (0, 32003)
] + [
    ("quartic_%s" % f, lambda p=p: curve(p, "quartic"), 1, 2, 0) for f, p in (("qq", 0), ("gf", 32003))
] + [
    ("cubic_%s" % f, lambda p=p: curve(p, "cubic"), 2, 2, 0) for f, p in (("qq", 0), ("gf", 32003))
] + [
    ("pfaffians_%s" % f, lambda p=p: pfaffians(p), 7, 7, 0) for f, p in (("qq", 0), ("gf", 32003))
]


@pytest.mark.parametrize("name, instance, grade, dim_m, dim_mod", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_family_matches_its_closed_form(name, instance, grade, dim_m, dim_mod):
    M, I = instance()
    with engine_context():
        rep = icm_report(M, I, seed=10000)
        assert (rep.grade.value, rep.dim_m, rep.dim_m_mod_im) == (grade, dim_m, dim_mod)
        assert rep.defect == dim_m - grade - dim_mod
        assert rep.is_icm == (rep.defect == 0)
        assert len(verify_grade_witness(M, I, rep.grade)) == grade + 1

