"""The 14 value classes on ``ring_core.Record``: equality and hash by class
and fields, the repr, immutability, pickle and copy round trips, the field
checks and ``replace``.  The reprs and the check messages were recorded from
the frozen dataclasses these classes were before, and must not change."""
import copy
import pickle

import pytest

from icmlab.cli_app import IdealStmt, QueryStmt, RingStmt, Script, parse
from icmlab.icm_checker import IcmReport, RelationReport
from icmlab.ideal_engine import Ideal, SaturationResult
from icmlab.invariants import GradeWitness, MonomialPrime
from icmlab.ring_core import FieldSpec, Record, RingDescriptor, TermOrder
from icmlab.theorem_lab import InstanceSpec, SuiteReport

QQ, GF7 = FieldSpec(0), FieldSpec(7)
R = RingDescriptor(QQ, ("x", "y"))
X, Y = R.variable(0), R.variable(1)


def _witness():
    return GradeWitness(1, (Y - X,), SaturationResult(Ideal(R, [R.one()]), 2))


_WITNESS_REPR = (
    "GradeWitness(value=1, sequence=(Polynomial(-x + y),), "
    "certificate=SaturationResult(ideal=Ideal<1>, exponent=2))"
)
_RING_REPR = (
    "RingDescriptor(field=FieldSpec(characteristic=0), variables=('x', 'y'), "
    "order=TermOrder(kind='grevlex', block=None))"
)

# a builder per class, the repr its value prints, and whether it hashes (a
# field holding an Ideal does not: ideals compare by their reduced bases)
CASES = {
    "FieldSpec": (lambda: FieldSpec(), "FieldSpec(characteristic=0)", True),
    "TermOrder": (
        lambda: TermOrder("elimination-block", 1),
        "TermOrder(kind='elimination-block', block=1)",
        True,
    ),
    "RingDescriptor": (lambda: RingDescriptor(QQ, ["x", "y"]), _RING_REPR, True),
    "SaturationResult": (
        lambda: SaturationResult(Ideal(R, [X * Y]), 2),
        "SaturationResult(ideal=Ideal<x*y>, exponent=2)",
        False,
    ),
    "MonomialPrime": (lambda: MonomialPrime(R, (1, 0, 1)), "<x, y>", True),
    "GradeWitness": (_witness, _WITNESS_REPR, False),
    "IcmReport": (
        lambda: IcmReport(_witness(), 2, 0, 1),
        "IcmReport(grade=%s, dim_m=2, dim_m_mod_im=0, height_i=1)" % _WITNESS_REPR,
        False,
    ),
    "RelationReport": (
        lambda: RelationReport(True, ("skip",), "skip"),
        "RelationReport(holds=True, hypothesis_log=('skip',), skipped_reason='skip')",
        True,
    ),
    "InstanceSpec": (
        lambda: InstanceSpec(3, GF7, "binomial", 2, 3, 11),
        "InstanceSpec(n_vars=3, field=FieldSpec(characteristic=7), ideal_kind='binomial', "
        "max_degree=2, max_generators=3, seed=11)",
        True,
    ),
    "SuiteReport": (
        lambda: SuiteReport("grade-height", 4, 1, ("x",)),
        "SuiteReport(suite_id='grade-height', trials=4, skipped_hypothesis=1, failures=('x',))",
        True,
    ),
    "RingStmt": (lambda: RingStmt("R", R), "RingStmt(name='R', ring=%s)" % _RING_REPR, True),
    "IdealStmt": (
        lambda: IdealStmt("J", (X, Y)),
        "IdealStmt(name='J', generators=(Polynomial(x), Polynomial(y)), intersect_of=None)",
        True,
    ),
    "QueryStmt": (lambda: QueryStmt("icm", ("J", "K")), "QueryStmt(keyword='icm', args=('J', 'K'))", True),
    "Script": (
        lambda: parse("ring S = GF(7)[a, b] order lex;\nideal J = a*b;\nideal K = intersect(J, J);\nicm J K;\n"),
        "Script(statements=(RingStmt(name='S', ring=RingDescriptor(field=FieldSpec(characteristic=7), "
        "variables=('a', 'b'), order=TermOrder(kind='lex', block=None))), IdealStmt(name='J', "
        "generators=(Polynomial(a*b),), intersect_of=None), IdealStmt(name='K', generators=None, "
        "intersect_of=('J', 'J')), QueryStmt(keyword='icm', args=('J', 'K'))))",
        True,
    ),
}
NAMES = sorted(CASES)


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_value_class_is_covered():
    assert len(NAMES) == 14 and sorted(cls.__name__ for cls in Record.__subclasses__()) == NAMES
    assert all(type(build()).__name__ == name for name, (build, _, _) in CASES.items())


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    build, text, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_by_class_and_fields(name):
    build, _, hashable = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'Ideal'"):
            hash(a)
    # another class, even a subclass with the same fields, or a plain tuple
    # of the fields, is never equal
    twin = type("Twin", (type(a),), {"__slots__": ()})(*_fields(a))
    assert _fields(twin) == _fields(a) and twin != a and a != twin
    assert a != _fields(a) and _fields(a) != a
    assert a.__eq__(_fields(a)) is NotImplemented


def test_plain_records_with_equal_fields_differ_by_class():
    a, b = RingStmt("J", ("x",)), QueryStmt("J", ("x",))
    assert a != b and hash(a) == hash(b) and len({a, b}) == 2
    assert QueryStmt("J", ("x",)) != QueryStmt("J", ("y",))
    assert MonomialPrime(R, (0,)) != MonomialPrime(RingDescriptor(GF7, ("x", "y")), (0,))


@pytest.mark.parametrize("name", NAMES)
def test_fields_can_be_neither_set_nor_deleted(name):
    value = CASES[name][0]()
    before = repr(value)
    for field in type(value)._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
            setattr(value, field, 1)
        with pytest.raises(AttributeError, match="cannot delete field %r" % field):
            delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copies_round_trip(name):
    build, text, hashable = CASES[name]
    value = build()
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(other) is type(value) and other == value and repr(other) == text
        if hashable:
            assert hash(other) == hash(value)


def test_defaults_keywords_and_arity():
    w = _witness()
    assert IcmReport(w, 2, 0).height_i is None
    assert RelationReport(True, ()).skipped_reason is None
    assert IdealStmt("J", (X,)).intersect_of is None
    assert IdealStmt(name="K", generators=None, intersect_of=("J", "J")) == IdealStmt("K", None, ("J", "J"))
    assert GradeWitness(certificate=w.certificate, value=1, sequence=w.sequence) == w
    assert FieldSpec(characteristic=7) == GF7 and TermOrder(kind="lex") == TermOrder("lex")
    for bad in (
        lambda: QueryStmt("icm"),  # a field without a default left out
        lambda: QueryStmt("icm", (), ()),  # one value too many
        lambda: QueryStmt("icm", argz=()),  # no such field
        lambda: QueryStmt("icm", (), keyword="gb"),  # a field given twice
        lambda: FieldSpec(7, 11),
    ):
        with pytest.raises(TypeError):
            bad()


def test_replace_builds_a_checked_copy():
    w = _witness()
    v = w.replace(value=2)
    assert (v.value, v.sequence, v.certificate) == (2, w.sequence, w.certificate) and w.value == 1
    S = R.replace(order=TermOrder("lex"))
    # the kept hash is taken again for the new fields, not copied
    assert S == RingDescriptor(QQ, ("x", "y"), TermOrder("lex"))
    assert hash(S) == hash(RingDescriptor(QQ, ("x", "y"), TermOrder("lex")))
    assert S.replace(order=TermOrder()) == R and hash(S.replace(order=TermOrder())) == hash(R)
    with pytest.raises(ValueError, match="field characteristic must be 0 or a prime below 2\\^31, got 4"):
        GF7.replace(characteristic=4)
    with pytest.raises(TypeError):
        w.replace(values=2)


CHECKS = [
    (lambda: FieldSpec(4), "field characteristic must be 0 or a prime below 2^31, got 4"),
    (lambda: FieldSpec(-3), "field characteristic must be 0 or a prime below 2^31, got -3"),
    (lambda: FieldSpec("7"), "field characteristic must be an int, got '7'"),
    (lambda: FieldSpec(True), "field characteristic must be an int, got True"),
    (lambda: FieldSpec(2**31 + 11), "field characteristic must be 0 or a prime below 2^31, got 2147483659"),
    (lambda: TermOrder("deglex"), "unknown term order kind 'deglex'"),
    (lambda: TermOrder("lex", 2), "block size only applies to elimination-block orders"),
    (lambda: TermOrder("elimination-block"), "elimination-block order needs a positive int block, got None"),
    (lambda: TermOrder("elimination-block", 0), "elimination-block order needs a positive int block, got 0"),
    (lambda: TermOrder("elimination-block", True), "elimination-block order needs a positive int block, got True"),
    (lambda: RingDescriptor(QQ, ()), "a ring needs at least one variable"),
    (lambda: RingDescriptor(QQ, ("x", "x")), "duplicate variable name 'x'"),
    (lambda: RingDescriptor(QQ, ("x", "")), "variable names must be nonempty strings"),
    (lambda: RingDescriptor(QQ, ("x", 3)), "variable names must be nonempty strings"),
    (
        lambda: RingDescriptor(QQ, ("x", "y"), TermOrder("elimination-block", 2)),
        "elimination block must leave at least one variable",
    ),
    (lambda: MonomialPrime(R, (2,)), "variable index out of range: 2"),
    (lambda: MonomialPrime(R, (-1,)), "variable index out of range: -1"),
    (lambda: MonomialPrime(R, (True,)), "variable index out of range: True"),
    (lambda: InstanceSpec(0, QQ, "monomial", 2, 2, 0), "n_vars must be between 1 and 8"),
    (lambda: InstanceSpec(9, QQ, "monomial", 2, 2, 0), "n_vars must be between 1 and 8"),
    (lambda: InstanceSpec(2, QQ, "monomial", 0, 2, 0), "max_degree must be between 1 and 4"),
    (lambda: InstanceSpec(2, QQ, "monomial", 5, 2, 0), "max_degree must be between 1 and 4"),
    (lambda: InstanceSpec(2, QQ, "monomial", 2, 0, 0), "need at least one generator"),
    (lambda: InstanceSpec(2, QQ, "toric", 2, 2, 0), "unknown ideal kind 'toric'"),
]


@pytest.mark.parametrize("index", range(len(CHECKS)))
def test_check_messages_are_unchanged(index):
    build, message = CHECKS[index]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_checked_fields_are_normalized():
    # the variables become a tuple, and a prime's indices are sorted and
    # unique, so equal rings and equal primes compare and hash equal
    assert RingDescriptor(QQ, ["x", "y"]).variables == ("x", "y")
    P = MonomialPrime(R, [1, 0, 1])
    assert P.indices == (0, 1) and P == MonomialPrime(R, (0, 1)) and hash(P) == hash(MonomialPrime(R, (0, 1)))
