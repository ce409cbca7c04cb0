"""Exact coefficient fields, term orders, and sparse multivariate polynomials.

Everything in this module is a plain immutable value.  Coefficients are
`fractions.Fraction` in characteristic zero and canonical residues (ints in
``[0, p)``) over a prime field.  ``Fraction`` is what every API takes and
returns; only the division kernel shared by ``ideal_engine``'s completion
and normal forms works on integer coefficients inside.  A monomial
is a tuple of nonnegative exponents, one per ring variable.  A polynomial
keeps its terms sorted in decreasing term order, so the leading term is
always the first entry and never needs a search.

A term order has one encoding, ``TermOrder.descending_key``: a flat tuple
of ints that sorts monomials in decreasing order, so ``sorted`` on it puts
the leading monomial first and a ``heapq`` min-heap keyed by it pops the
largest monomial first.  Every sort of a polynomial's terms reads it, and
the division kernel packs its entries into one int per monomial
(``ideal_engine._Packing``), so the kernel's heap, S-pairs and minimal
basis follow the same order with int comparisons.

No floating point appears anywhere; equality of polynomials is exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, neg
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatchError,
    IncompatibleRingError,
    ZeroLeadingTermError,
)

Monomial = Tuple[int, ...]
Coeff = Union[Fraction, int]

LEX = "lex"
GREVLEX = "grevlex"
ELIMINATION = "elimination-block"

_MAX_PRIME = 2**31
_CHUNK = 10**4000  # str() refuses more than 4,300 digits (Python 3.11's default limit)


def _decimal(n: int) -> str:
    """The decimal digits of n >= 0 at any length: ``str(n)`` below 10^4000,
    else the digits of n's quotient and remainder by 10^k, the remainder
    zero-padded to k digits, for the k = 4000 * 2^j with 10^k <= n < 10^2k."""
    if n < _CHUNK:
        return str(n)
    k = 4000
    while n >= 10 ** (2 * k):
        k *= 2
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _coeff_str(c: Coeff) -> str:
    """A nonnegative coefficient as ``str`` prints it, at any length."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%s/%s" % (_decimal(c.numerator), _decimal(c.denominator))
    return _decimal(int(c))


@lru_cache(maxsize=None)  # every parsed ring and suite trial asks again
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Record:
    """An immutable value whose fields are the names in the ``__slots__`` of
    its class and bases that do not start with an underscore, in order.

    ``_defaults`` maps fields to the values a call may leave out.  Equality
    and hash go by class and fields, the repr is ``Name(field=value, ...)``,
    and a copy or pickle is rebuilt through ``__init__``.  A class that
    checks its fields takes them in its own ``__init__`` and passes them on
    to this one.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = [name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        # an attrgetter is no method, so ``self._key(self)`` reads the fields
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # keywords may only name fields after the positional ones, and
            # with the defaults every field must have its value
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            named = set(fields[len(args) :])
            if len(args) > len(fields) or not kwargs.keys() <= named or len(values) != len(fields):
                raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(fields)))
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __reduce__(self):
        # a string's hash differs between processes: a kept hash such as
        # RingDescriptor's is taken again by __init__, never copied
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes: object) -> "Record":
        """A copy with the named fields changed, checked as a new value is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


class FieldSpec(Record):
    """An exact coefficient field: the rationals, or GF(p) for a word-sized prime.

    Characteristic 0 elements are Fractions (always in lowest terms with a
    positive denominator, which Fraction guarantees).  Characteristic p
    elements are ints reduced to the canonical residue in [0, p).
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        c = characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError("field characteristic must be an int, got %r" % (c,))
        if c != 0 and (c < 2 or c >= _MAX_PRIME or not _is_prime(c)):
            raise ValueError(
                "field characteristic must be 0 or a prime below 2^31, got %r" % (c,)
            )
        super().__init__(c)

    def coerce(self, value: Union[int, Fraction]) -> Coeff:
        p = self.characteristic
        if p == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
        else:
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise ZeroDivisionError(
                        "denominator vanishes in GF(%d)" % p
                    )
                return (value.numerator * pow(value.denominator, -1, p)) % p
            if isinstance(value, int):
                return value % p
        raise TypeError("cannot coerce %r into %s" % (value, self))

    @property
    def zero(self) -> Coeff:
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self) -> Coeff:
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return a * b if p == 0 else (a * b) % p

    def neg(self, a: Coeff) -> Coeff:
        p = self.characteristic
        return -a if p == 0 else (-a) % p

    def invert(self, a: Coeff) -> Coeff:
        p = self.characteristic
        if p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        try:
            return pow(a, -1, p)
        except ValueError:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % p) from None

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic


class TermOrder(Record):
    """A monomial well-order: lex, graded reverse lex, or a two-block
    elimination order (grevlex inside each block, first block dominant).

    ``descending_key`` maps a monomial to a tuple of ints that sorts in the
    reverse of the order, so Python's built-in comparisons, ``sorted`` and
    ``heapq`` do the rest.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str = GREVLEX, block: Optional[int] = None) -> None:
        if kind not in (LEX, GREVLEX, ELIMINATION):
            raise ValueError("unknown term order kind %r" % (kind,))
        if kind == ELIMINATION:
            if not isinstance(block, int) or isinstance(block, bool) or block < 1:
                raise ValueError("elimination-block order needs a positive int block, got %r" % (block,))
        elif block is not None:
            raise ValueError("block size only applies to elimination-block orders")
        super().__init__(kind, block)

    def descending_key(self, mono: Monomial) -> tuple:
        """a > b in this order exactly when descending_key(a) <
        descending_key(b), so a min-heap on it pops the largest monomial
        first.  Lex negates the exponents.  Grevlex puts higher degree
        first; ties go to the smaller last exponent, so the key is the
        negated degree followed by the reversed exponents.  An elimination
        order concatenates the grevlex keys of its two blocks."""
        if self.kind == GREVLEX:
            return (-sum(mono),) + mono[::-1]
        if self.kind == LEX:
            return tuple(map(neg, mono))
        head, tail = mono[: self.block], mono[self.block :]
        return (-sum(head),) + head[::-1] + (-sum(tail),) + tail[::-1]

    def __str__(self) -> str:
        if self.kind == ELIMINATION:
            return "%s(%d)" % (self.kind, self.block)
        return self.kind


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is at most that of b."""
    return all(x <= y for x, y in zip(a, b))


def minimalize_monomials(gens: Iterable[Monomial]) -> List[Monomial]:
    """Drop monomials divisible by another; the result is the unique minimal
    generating set, sorted for determinism."""
    uniq = sorted(set(gens))
    return [m for m in uniq if not any(o != m and monomial_divides(o, m) for o in uniq)]


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def monomial_support(a: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(a) if e)


class RingDescriptor(Record):
    """An affine polynomial ring k[x_1, ..., x_n] with a fixed term order."""

    __slots__ = ("field", "variables", "order", "_hash")

    def __init__(self, field: FieldSpec, variables: Iterable[str], order: TermOrder = TermOrder()) -> None:
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        seen = set()
        for name in variables:
            if not name or not isinstance(name, str):
                raise ValueError("variable names must be nonempty strings")
            if name in seen:
                raise ValueError("duplicate variable name %r" % name)
            seen.add(name)
        if order.kind == ELIMINATION and order.block >= len(variables):
            raise ValueError("elimination block must leave at least one variable")
        super().__init__(field, variables, order)
        # every memo key and polynomial hash holds a ring, so its hash is
        # taken once here rather than from the three fields at every use
        object.__setattr__(self, "_hash", hash((field, variables, order)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError("no variable named %r in %s" % (name, self)) from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Union[int, Fraction]) -> "Polynomial":
        """The constant c: ``monomial`` at exponent zero."""
        return self.monomial((0,) * self.nvars, c)

    def variable(self, which: Union[int, str]) -> "Polynomial":
        """The variable named ``which``, or at index ``which`` in 0 ... nvars - 1."""
        i = self.var_index(which) if isinstance(which, str) else which
        if type(i) is not int or not 0 <= i < self.nvars:
            raise ValueError("variable index out of range: %r" % (which,))
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((tuple(exps), self.field.one),))

    def monomial(self, exps: Sequence[int], coeff: Union[int, Fraction] = 1) -> "Polynomial":
        """coeff * x^exps: ``polynomial`` of the one term, its checks and coercion."""
        return self.polynomial({tuple(exps): coeff})

    def polynomial(self, terms: Mapping[Monomial, Union[int, Fraction]]) -> "Polynomial":
        """Build a polynomial from a monomial -> coefficient mapping."""
        acc = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise DimensionMismatchError(
                    "expected %d exponents, got %d" % (self.nvars, len(mono))
                )
            # a bool passes isinstance(e, int), and a float would print truncated
            if any(type(e) is not int or e < 0 for e in mono):
                raise ValueError("exponents must be nonnegative integers, got %r" % (mono,))
            cc = self.field.coerce(c)
            if mono in acc:
                cc = self.field.add(acc[mono], cc)
            acc[mono] = cc
        return _from_dict(self, acc)

    def __str__(self) -> str:
        return "%s[%s] %s" % (self.field, ", ".join(self.variables), self.order)


def _same_ring(a, b) -> None:
    """Raise unless ``a`` and ``b`` share one ring; identity is tried first."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise IncompatibleRingError(
            "operands live in different rings: %s vs %s" % (a.ring, b.ring)
        )


def _from_dict(ring: RingDescriptor, acc: dict) -> "Polynomial":
    items = [(m, c) for m, c in acc.items() if c != 0]
    dkey = ring.order.descending_key
    items.sort(key=lambda t: dkey(t[0]))
    return Polynomial(ring, tuple(items))


class Polynomial:
    """A sparse polynomial over a RingDescriptor.

    ``terms`` is a tuple of (monomial, coefficient) pairs sorted strictly
    decreasing in the ring's term order with no zero coefficients, so
    ``terms[0]`` is the leading term.  Instances are immutable by
    convention; all arithmetic returns fresh objects.  The hash is taken
    once and kept, as the engine memo's keys hold generators; a copy or
    pickle is rebuilt without it, as a hash seed is per process.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingDescriptor, terms: Tuple[Tuple[Monomial, Coeff], ...]):
        self.ring = ring
        self.terms = terms
        self._hash: Optional[int] = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> Tuple[Monomial, Coeff]:
        if not self.terms:
            raise ZeroLeadingTermError("the zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def leading_coefficient(self) -> Coeff:
        return self.leading_term()[1]

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroLeadingTermError("the zero polynomial has no degree")
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) == 1

    def support(self) -> frozenset:
        out = set()
        for m, _ in self.terms:
            out |= monomial_support(m)
        return frozenset(out)

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ZeroLeadingTermError("cannot normalize the zero polynomial")
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        inv = self.ring.field.invert(lc)
        f = self.ring.field
        return Polynomial(self.ring, tuple((m, f.mul(inv, c)) for m, c in self.terms))

    def __add__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self, other)
        f = self.ring.field
        acc = dict(self.terms)
        for m, c in other.terms:
            if m in acc:
                s = f.add(acc[m], c)
                if s == 0:
                    del acc[m]
                else:
                    acc[m] = s
            else:
                acc[m] = c
        return _from_dict(self.ring, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        f = self.ring.field
        return Polynomial(self.ring, tuple((m, f.neg(c)) for m, c in self.terms))

    def __sub__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other: Union[int, Fraction]) -> "Polynomial":
        return self.ring.constant(other).__sub__(self)

    def __mul__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        f = self.ring.field
        if isinstance(other, (int, Fraction)):
            c = f.coerce(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, tuple((m, f.mul(c, cf)) for m, cf in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self, other)
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                c = f.mul(c1, c2)
                if m in acc:
                    c = f.add(acc[m], c)
                acc[m] = c
        return _from_dict(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift(self, mono: Monomial, coeff: Coeff) -> "Polynomial":
        """Multiply by a single term without dict churn; keeps sortedness.

        Multiplying every monomial by the same factor preserves the relative
        order for any monomial order compatible with multiplication.
        """
        f = self.ring.field
        return Polynomial(
            self.ring,
            tuple((monomial_mul(mono, m), f.mul(coeff, c)) for m, c in self.terms),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                try:
                    other = self.ring.constant(other)
                except ZeroDivisionError:  # a denominator divisible by p: not in GF(p)
                    return False
                return self == other
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __reduce__(self):
        return Polynomial, (self.ring, self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _term_str(self, mono: Monomial, coeff: Coeff) -> Tuple[bool, str]:
        """Render one term; returns (negative?, unsigned text)."""
        negative = coeff < 0
        mag = -coeff if negative else coeff
        factors = []
        for name, e in zip(self.ring.variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        if not factors:
            return negative, _coeff_str(mag)
        body = "*".join(factors)
        if mag == 1:
            return negative, body
        return negative, "%s*%s" % (_coeff_str(mag), body)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.terms):
            neg, text = self._term_str(m, c)
            if i == 0:
                pieces.append("-" + text if neg else text)
            else:
                pieces.append((" - " if neg else " + ") + text)
        return "".join(pieces)

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self

    def __iter__(self) -> Iterator[Tuple[Monomial, Coeff]]:
        return iter(self.terms)


def remap_variables(
    poly: Polynomial, target: RingDescriptor, position: Sequence[Optional[int]]
) -> Polynomial:
    """Transport ``poly`` into ``target``, sending source variable i to
    ``position[i]`` (None means the variable must not occur).

    Used for ring extensions and elimination scaffolding; coefficients are
    re-coerced so the target may not change characteristic.
    """
    if poly.ring.field != target.field:
        raise IncompatibleRingError("cannot remap across different coefficient fields")
    acc: dict = {}
    for mono, c in poly.terms:
        exps = [0] * target.nvars
        for i, e in enumerate(mono):
            if e == 0:
                continue
            j = position[i]
            if j is None:
                raise IncompatibleRingError(
                    "variable %r occurs but has no image in the target ring"
                    % (poly.ring.variables[i],)
                )
            exps[j] = e
        acc[tuple(exps)] = c
    return _from_dict(target, acc)
