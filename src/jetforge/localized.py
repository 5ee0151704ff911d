"""Polynomials localized at one distinguished unit variable.

A LocalPoly is numerator / unit_var^denom_exp, normalized so the unit
variable does not divide the numerator while denom_exp > 0.  This is the
coordinate ring of the chart overlap on the jet spaces of P^1, localized
at t^(0).
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


class LocalPoly:
    __slots__ = ("numerator", "unit_var", "denom_exp")

    def __init__(self, numerator, unit_var, denom_exp=0):
        if denom_exp < 0:
            raise ValueError("negative denominator exponent")
        # cancel the common power of unit_var, at most denom_exp of it
        if denom_exp and numerator.terms:
            k = min(denom_exp, min(m.exponent(unit_var) for m in numerator.terms))
            if k:
                numerator = _poly(numerator.field, {m.divide_by_var(unit_var, k): c
                                                    for m, c in numerator.terms.items()})
                denom_exp -= k
        if numerator.is_zero():
            denom_exp = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "unit_var", unit_var)
        object.__setattr__(self, "denom_exp", denom_exp)

    def __setattr__(self, name, value):
        raise AttributeError("LocalPoly is immutable")

    @property
    def field(self):
        return self.numerator.field

    @classmethod
    def from_poly(cls, p, unit_var):
        return cls(p, unit_var, 0)

    def is_zero(self):
        return self.numerator.is_zero()

    def _check(self, other):
        if isinstance(other, Poly):
            other = LocalPoly(other, self.unit_var)
        if not isinstance(other, LocalPoly):
            raise TypeError("expected LocalPoly, got %r" % (other,))
        if other.unit_var != self.unit_var:
            raise FieldMismatch("different distinguished unit variables")
        return other

    def __add__(self, other):
        if isinstance(other, int):
            other = LocalPoly(Poly.constant(other, self.field), self.unit_var)
        other = self._check(other)
        e = max(self.denom_exp, other.denom_exp)
        a = _shift(self.numerator, self.unit_var, e - self.denom_exp)
        b = _shift(other.numerator, self.unit_var, e - other.denom_exp)
        return LocalPoly(a + b, self.unit_var, e)

    __radd__ = __add__

    def __neg__(self):
        return LocalPoly(-self.numerator, self.unit_var, self.denom_exp)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LocalPoly(Poly.constant(other, self.field), self.unit_var)
        return self + (-self._check(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return LocalPoly(self.numerator * other, self.unit_var, self.denom_exp)
        other = self._check(other)
        return LocalPoly(self.numerator * other.numerator, self.unit_var,
                         self.denom_exp + other.denom_exp)

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
