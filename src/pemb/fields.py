"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic in the library goes through elements produced by one of
these field objects.  A rational scalar is a Python `int` when it is
integral and a `fractions.Fraction` (reduced, positive denominator) only
when a denominator appears; the two mix, compare equal and hash equal,
and print alike, so integral values cost no gcd.  A Fraction that
arithmetic makes integral may stay a Fraction.  A scalar of F_p is a
plain `int` in [0, p).  Products and sums of residues may leave that
range in between; the vector kernels of `linalg` reduce every value they
store or test for zero, so reduction mod p is written only in this
module and in `linalg`.  Scalars are divided only through `field.div`, since `int / int`
would be a float: no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _rational(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field Q: int scalars, Fraction ones with a denominator > 1."""

    name = "Q"
    zero = 0
    one = 1
    minus_one = -1

    def __init__(self):
        # read by every vector kernel of `linalg`: an instance attribute
        # is found faster than a class one
        self.characteristic = 0

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


# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound, the least composite that passes all thirteen (Sorenson and
# Webster, Math. Comp. 86, 2017); the twelve up to 37 pass the composite
# 318665857834031151167461.  Larger moduli are refused, not guessed at.
MAX_PRIME = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Whether n is prime, for n < MAX_PRIME: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p < MAX_PRIME: int scalars in [0, p)."""

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise FieldError("%d exceeds the largest supported prime modulus, "
                             "bound %d" % (p, MAX_PRIME))
        if not is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        self.p = p
        self.name = "F_%d" % p
        self.characteristic = p
        self.zero = 0
        self.one = 1
        self.minus_one = p - 1

    def of(self, x):
        """Coerce an int, Fraction, or 'a/b' string to a residue."""
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise FieldError("denominator of %s vanishes in F_%d" % (x, p))
            return x.numerator * pow(x.denominator, -1, p) % p
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise FieldError("cannot coerce %r into F_%d" % (x, p))

    def div(self, a, b):
        """a / b; raises ZeroDivisionError when b is zero."""
        p = self.p
        if b % p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return a * pow(b, -1, p) % p

    sign = RationalField.sign

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
