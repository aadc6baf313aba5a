"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic in the library goes through elements produced by one of
these field objects.  A rational scalar is a Python `int` when it is
integral and a `fractions.Fraction` (reduced, positive denominator) only
when a denominator appears; the two mix, compare equal and hash equal,
and print alike, so integral values cost no gcd.  A Fraction that
arithmetic makes integral may stay a Fraction.  Prime field scalars are
`FpElement`.  Scalars are divided only through `field.div`, since
`int / int` would be a float: no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class FpElement:
    """A residue modulo a prime, with exact field arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


def _rational(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field Q: int scalars, Fraction ones with a denominator > 1."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1
    minus_one = -1

    def of(self, x):
        """Coerce an int, Fraction, or 'a/b' string to a scalar."""
        if isinstance(x, int):
            return int(x)   # a bool becomes 0 or 1
        if isinstance(x, Fraction):
            return _rational(x)
        if isinstance(x, str):
            return _rational(Fraction(x))
        raise FieldError("cannot coerce %r into Q" % (x,))

    def div(self, a, b):
        """a / b; raises ZeroDivisionError when b is zero."""
        return _rational(Fraction(a, b))

    def sign(self, k):
        """(-1)^k as a scalar."""
        return self.minus_one if k % 2 else self.one

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise FieldError("%r is not prime" % (p,))
        self.p = p
        self.name = "F_%d" % p
        self.characteristic = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)
        self.minus_one = FpElement(-1, p)

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldError("element of F_%d given to F_%d" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError("denominator of %s vanishes in F_%d" % (x, self.p))
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise FieldError("cannot coerce %r into F_%d" % (x, self.p))

    def div(self, a, b):
        """a / b; raises ZeroDivisionError when b is zero."""
        return a / b

    sign = RationalField.sign

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
