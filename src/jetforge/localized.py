"""Polynomials localized at one distinguished unit variable.

A LocalPoly is numerator / unit_var^denom_exp in lowest terms: while
denom_exp > 0 some term of the numerator is free of the unit variable, and
zero has denom_exp 0.  This is the coordinate ring of the chart overlap on
the jet spaces of P^1, localized at t^(0).

``LocalPoly(...)`` scans its numerator to cancel the unit variable u: it
reads u's exponent in place and stops at the first term without u.  The
arithmetic keeps lowest terms without a second scan of its result.  A
product cancels u from a factor with no denominator first, and u is prime,
so the product of two reduced factors is reduced.  A sum over two different
denominators keeps the u-free term of the operand with the larger one.
Only a sum over equal positive denominators can gain a common factor u, and
only it is scanned.  Negation and scaling by an integer keep the terms'
exponents, and ``_local`` sets the slots of a LocalPoly known to be reduced.
"""

from .errors import DivisionByZero, FieldMismatch, NonUnitLeadingCoefficient
from .poly import Poly, _monomial, _poly


def _shift(p, v, k):
    """p * v^k for k >= 0, as a shift of every monomial's exponent of v;
    the shift is injective, so no terms merge and none vanish."""
    if not k:
        return p
    vk = _monomial(((v, k),))
    return _poly(p.field, {m.mul(vk): c for m, c in p.terms.items()})


def _lowest(numerator, u, e):
    """numerator / u^e in lowest terms, as (numerator, exponent): cancel the
    common power of u, at most e of it."""
    if not numerator.terms:
        return numerator, 0
    if e:
        k = e
        for m in numerator.terms:
            for w, x in m:
                if w is u:
                    if x < k:
                        k = x
                    break
            else:
                return numerator, e
        numerator = _poly(numerator.field, {m.divide_by_var(u, k): c
                                            for m, c in numerator.terms.items()})
        e -= k
    return numerator, e


class LocalPoly:
    __slots__ = ("numerator", "unit_var", "denom_exp")

    def __new__(cls, numerator, unit_var, denom_exp=0):
        if denom_exp < 0:
            raise ValueError("negative denominator exponent")
        numerator, denom_exp = _lowest(numerator, unit_var, denom_exp)
        return _local(numerator, unit_var, denom_exp)

    def __setattr__(self, name, value):
        raise AttributeError("LocalPoly is immutable")

    @property
    def field(self):
        return self.numerator.field

    def is_zero(self):
        return self.numerator.is_zero()

    def _check(self, other):
        if isinstance(other, LocalPoly):
            if other.unit_var is not self.unit_var:
                raise FieldMismatch("different distinguished unit variables")
            return other
        if isinstance(other, Poly):
            return LocalPoly(other, self.unit_var)
        raise TypeError("expected LocalPoly, got %r" % (other,))

    def __add__(self, other):
        if isinstance(other, int):
            other = LocalPoly(Poly.constant(other, self.field), self.unit_var)
        other = self._check(other)
        a, b = self.numerator, other.numerator
        if not (a.terms and b.terms):
            a._check(b)  # mixed fields raise, as in a sum
            return self if a.terms else other
        u, ea, eb = self.unit_var, self.denom_exp, other.denom_exp
        if ea == eb:  # only here can the sum gain a common factor u
            num, e = _lowest(a + b, u, ea)
            return _local(num, u, e)
        # the operand over the larger denominator keeps its u-free term
        e = max(ea, eb)
        return _local(_shift(a, u, e - ea) + _shift(b, u, e - eb), u, e)

    __radd__ = __add__

    def __neg__(self):
        return _local(-self.numerator, self.unit_var, self.denom_exp)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LocalPoly(Poly.constant(other, self.field), self.unit_var)
        return self + (-self._check(other))

    def __mul__(self, other):
        if isinstance(other, int):
            num = self.numerator * other
            return _local(num, self.unit_var, self.denom_exp if num.terms else 0)
        other = self._check(other)
        u = self.unit_var
        a, ea = self.numerator, self.denom_exp
        b, eb = other.numerator, other.denom_exp
        # cancel u from a factor with no denominator; u is prime, so the
        # product of two factors in lowest terms is in lowest terms
        if not ea:
            a, eb = _lowest(a, u, eb)
        elif not eb:
            b, ea = _lowest(b, u, ea)
        return _local(a * b, u, ea + eb)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = LocalPoly(other, self.unit_var)
        return (isinstance(other, LocalPoly) and other.unit_var == self.unit_var
                and other.denom_exp == self.denom_exp and other.numerator == self.numerator)

    def __hash__(self):
        return hash((self.numerator, self.unit_var, self.denom_exp))

    def unit_one(self):
        return LocalPoly(Poly.constant(1, self.field), self.unit_var)

    def unit_inverse(self):
        """Inverse of c * u^a / u^e; requires a single-term numerator in u only."""
        terms = list(self.numerator.terms.items())
        if len(terms) != 1 or any(v != self.unit_var for v in terms[0][0].vars()):
            raise NonUnitLeadingCoefficient("leading coefficient is not a unit: %s" % self)
        mono, coeff = terms[0]
        a = mono.exponent(self.unit_var)
        num = Poly.constant(self.field.inv(coeff), self.field)
        return LocalPoly(_shift(num, self.unit_var, self.denom_exp), self.unit_var, a)

    def eval(self, assignment):
        uval = assignment.get(self.unit_var)
        if self.denom_exp and (uval is None or not self.field.coerce(uval)):
            raise DivisionByZero("unit variable %s evaluated at zero" % self.unit_var)
        top = self.numerator.eval(assignment)
        if not self.denom_exp:
            return top
        return top * self.field.inv(self.field.coerce(uval)) ** self.denom_exp

    def render(self):
        if self.denom_exp == 0:
            return self.numerator.render()
        u = self.unit_var.render()
        denom = u if self.denom_exp == 1 else "%s^%d" % (u, self.denom_exp)
        return "(%s)/%s" % (self.numerator.render(), denom)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "LocalPoly(%s)" % self.render()


_set_numerator, _set_unit_var, _set_denom_exp = (
    LocalPoly.numerator.__set__, LocalPoly.unit_var.__set__, LocalPoly.denom_exp.__set__)


def _local(numerator, unit_var, denom_exp):
    """LocalPoly from a numerator and exponent already in lowest terms (no scan)."""
    lp = object.__new__(LocalPoly)
    _set_numerator(lp, numerator)
    _set_unit_var(lp, unit_var)
    _set_denom_exp(lp, denom_exp)
    return lp
