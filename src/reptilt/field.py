"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every matrix entry in this package is exact: over QQ an ``int`` when the
value is integral and a rational (``gmpy2.mpq``, or ``fractions.Fraction``
without gmpy2) otherwise; over GF(p) a ``GFElement``.  No floating point is
used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

try:  # gmpy2.mpq is a drop-in exact rational, much faster than Fraction
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction


def _normal(q):
    """A rational as an ``int`` when it is integral."""
    return int(q) if q.denominator == 1 else q


def _exact(x):
    """A "p/q" string as a Fraction; a float, whose binary value is not the
    decimal it spells, is refused, and so are a bool, which JSON spells
    true or false and Python reads as 1 or 0, and a zero denominator."""
    if isinstance(x, (bool, float)):
        raise TypeError("%s entry %r: give an int or a 'p/q' string"
                        % (type(x).__name__, x))
    try:
        return Fraction(x) if isinstance(x, str) else x
    except ZeroDivisionError:
        raise ValueError("entry %r has a zero denominator" % x) from None


class Rationals:
    """The field of rational numbers (default ground field).  Integral
    values are Python ints: ``+ - * ==`` stay exact on int/rational mixes,
    and ``of`` and ``div`` turn an integral result back into an int."""

    name = "Q"
    zero = 0
    one = 1

    def of(self, x):
        if type(x) is int:
            return x
        x = _exact(x)
        if isinstance(x, Fraction):
            return _normal(_mpq(x.numerator, x.denominator))
        return _normal(_mpq(x))

    def div(self, a, b):
        """The exact quotient a / b."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return _mpq(a, b) if r else q
        return _normal(a / b)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class GFElement:
    """Element of a prime field, with operator arithmetic mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return GFElement(self.p, self.v + other.v)

    def __sub__(self, other):
        return GFElement(self.p, self.v - other.v)

    def __mul__(self, other):
        return GFElement(self.p, self.v * other.v)

    def __truediv__(self, other):
        if other.v % other.p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __bool__(self):
        return self.v % self.p != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v % self.p == other.v % other.p
        if isinstance(other, int):
            return self.v % self.p == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v % self.p))

    def __repr__(self):
        return "%d" % (self.v % self.p)


class PrimeField:
    """GF(p) for a prime p, used for cross-checking rational computations."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.name = "F%d" % p
        self.zero = GFElement(p, 0)
        self.one = GFElement(p, 1)

    def of(self, x):
        if isinstance(x, GFElement):
            return x
        x = _exact(x)
        if isinstance(x, Fraction):
            den = GFElement(self.p, x.denominator)
            if not den:
                raise ValueError("%s: zero denominator mod %d" % (x, self.p))
            return GFElement(self.p, x.numerator) / den
        return GFElement(self.p, x)

    def div(self, a, b):
        return a / b

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def parse_field(spec):
    """Parse a ``--field`` CLI value: ``q`` or ``fp:<prime>``."""
    if spec in ("q", "Q", "qq", "QQ"):
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError("unknown field spec %r (expected 'q' or 'fp:<p>')" % spec)
