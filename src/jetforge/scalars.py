"""Exact coefficient fields: the rationals and prime fields F_p.

A rational scalar is a Python ``int`` when it is integral and a reduced
``fractions.Fraction`` (positive denominator) otherwise.  The two types
compare and hash equal on equal values, so a term may hold either, and
products of integral coefficients, such as the integer multinomials of jet
components, stay off ``Fraction``.  Prime-field scalars are ``Fp``
instances carrying their modulus.  A field is one object (``QQ``, which
``Rationals()`` returns, or ``PrimeField(p)``, interned in a table that never
shrinks), so fields compare by identity.  It converts integers and its own
scalars (``field.coerce(c)``, which raises ``FieldMismatch`` on anything
else), provides constants and inversion, renders coefficients in the
canonical "p/q" form, and builds a scalar from an integer ratio
(``from_ratio``).  ``Poly.eval`` computes in the scalars'
own arithmetic, with their +, * and **.
"""

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch


class Fp:
    """Element of F_p; arithmetic stays reduced mod p."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _check(self, other):
        if not isinstance(other, Fp) or other.p != self.p:
            raise FieldMismatch("mixed-field operands: F_%d vs %r" % (self.p, other))

    def __add__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        self._check(other)
        return Fp(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        self._check(other)
        return Fp(self.value - other.value, self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        self._check(other)
        return Fp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __reduce__(self):
        return Fp, (self.value, self.p)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power in F_%d" % self.p)
        return Fp(pow(self.value, e, self.p), self.p)

    def inverse(self):
        if self.value == 0:
            raise DivisionByZero("inverse of 0 in F_%d" % self.p)
        return Fp(pow(self.value, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return isinstance(other, Fp) and other.p == self.p and other.value == self.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.value, self.p)

    def __str__(self):
        return str(self.value)


def _rational(q):
    """A Fraction as a rational scalar: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _decimal(n):
    """str(n) for an int of any length, converted 1000 digits at a time."""
    chunks = []
    rest = abs(n)
    while rest >= 10 ** 1000:
        rest, low = divmod(rest, 10 ** 1000)
        chunks.append("%01000d" % low)
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))


class Rationals:
    """The field Q; scalars are int when integral and Fraction otherwise."""

    name = "Q"

    def __new__(cls):
        return QQ

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, c):
        if c == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return _rational(1 / Fraction(c))

    def contains(self, c):
        return isinstance(c, (Fraction, int))

    def coerce(self, c):
        if type(c) is int:
            return c
        if isinstance(c, Fraction):
            return _rational(c)
        if isinstance(c, int):
            return int(c)
        raise FieldMismatch("not a rational scalar: %r" % (c,))

    def from_ratio(self, num, den):
        return _rational(Fraction(num, den))

    def render(self, c):
        try:
            if c.denominator == 1:
                return str(c.numerator)
            return "%d/%d" % (c.numerator, c.denominator)
        except ValueError:  # longer than int's string limit (sys.get_int_max_str_digits())
            if c.denominator == 1:
                return _decimal(c.numerator)
            return "%s/%s" % (_decimal(c.numerator), _decimal(c.denominator))

    def __repr__(self):
        return "QQ"

    def __reduce__(self):
        return "QQ"  # pickled by name, so it loads, copies and deep-copies as the one QQ


def is_prime(n):
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, exact for
    n < 3,215,031,751 (which covers every modulus below 2**31)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
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


_PRIME_FIELDS = {}  # p -> the one PrimeField for p


class PrimeField:
    """The field F_p for a prime p < 2**31: one object per p, checked when first built."""

    def __new__(cls, p):
        if type(p) is not int:
            raise TypeError("modulus is not an int: %r" % (p,))
        F = _PRIME_FIELDS.get(p)
        if F is None:
            if not (1 < p < 2**31):
                raise ValueError("modulus out of range: %d" % p)
            if not is_prime(p):
                raise ValueError("modulus is not prime: %d" % p)
            F = _PRIME_FIELDS[p] = object.__new__(cls)
            F.p, F.name = p, "F%d" % p
        return F

    @property
    def zero(self):
        return Fp(0, self.p)

    @property
    def one(self):
        return Fp(1, self.p)

    def inv(self, c):
        return self.coerce(c).inverse()

    def contains(self, c):
        return isinstance(c, Fp) and c.p == self.p or isinstance(c, int)

    def coerce(self, c):
        if isinstance(c, Fp):
            if c.p != self.p:
                raise FieldMismatch("F_%d scalar in F_%d context" % (c.p, self.p))
            return c
        if isinstance(c, int):
            return Fp(c, self.p)
        raise FieldMismatch("not an F_%d scalar: %r" % (self.p, c))

    def from_ratio(self, num, den):
        return Fp(num * pow(den, -1, self.p), self.p)

    def render(self, c):
        return str(c.value)

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def __reduce__(self):
        return PrimeField, (self.p,)


QQ = object.__new__(Rationals)


# int() refuses longer digit strings (sys.get_int_max_str_digits()).
MAX_FIELD_NAME = 4300


def field_by_name(name):
    """Parse "Q" or "F<p>", p in ASCII digits, into a field object."""
    if len(name) > MAX_FIELD_NAME:
        raise ValueError("field name longer than %d characters" % MAX_FIELD_NAME)
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isascii() and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError("unknown field name: %r" % name)
