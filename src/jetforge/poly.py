"""Sparse multivariate polynomials over jet-indexed variables.

The variable universe is ``JetVar``: a base name with a stable index plus
one jet order (univariate jet rings) or two (bivariate ones).  A base-ring
variable x is the order-0 jet variable x_0.  Polynomials are immutable
dictionaries mapping monomials to nonzero exact field scalars; the zero
polynomial is the empty map.

Canonical textual form (the bit-exact contract for golden tests and JSON
output): variables sort by (base index, order1, order2, name), with a
missing order2 first; terms sort by exponent vector, lexicographically
descending; variables render as "x_1" for jet order 1 and "x_1_2" in
bivariate rings; coefficients render as "p/q" with q omitted when 1.
"""

from dataclasses import dataclass
from math import lcm

from .errors import FieldMismatch, NonUnitLeadingCoefficient, UnboundVariable
from .scalars import QQ


@dataclass(frozen=True)
class JetVar:
    """A jet variable; the hash and the sort key are computed once.

    Orders are non-negative, so the sort key determines the variable."""

    name: str
    index: int
    order1: int = 0
    order2: int | None = None

    def __post_init__(self):
        if self.order1 < 0 or self.order2 is not None and self.order2 < 0:
            raise ValueError("negative jet order in %s" % self)
        key = (self.index, self.order1, -1 if self.order2 is None else self.order2, self.name)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a cached str hash is only valid in one process
        return JetVar, (self.name, self.index, self.order1, self.order2)

    def sort_key(self):
        return self._key

    def render(self, base_plain=False):
        if self.order2 is not None:
            return "%s_%d_%d" % (self.name, self.order1, self.order2)
        if base_plain and self.order1 == 0:
            return self.name
        return "%s_%d" % (self.name, self.order1)

    def __str__(self):
        return self.render()


def _pair_key(ve):
    return ve[0]._key


def _monomial(exps):
    """Monomial from (var, exponent) pairs already sorted, merged and positive."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exps", exps)
    object.__setattr__(m, "_hash", hash(exps))
    return m


class Monomial:
    """Finite map JetVar -> positive exponent; the empty map is the unit.

    ``exps`` holds the (var, exponent) pairs sorted by the variables' sort
    keys; the hash is computed once."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        items = tuple(sorted(
            ((v, e) for v, e in (exps.items() if isinstance(exps, dict) else exps) if e),
            key=_pair_key))
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        object.__setattr__(self, "exps", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def is_unit(self):
        return not self.exps

    def vars(self):
        return [v for v, _ in self.exps]

    def exponent(self, v):
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def mul(self, other):
        """Product: a merge of the two sorted exponent tuples."""
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va, ea = a[i]
            vb, eb = b[j]
            ka, kb = va._key, vb._key
            if ka == kb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif ka < kb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return _monomial(tuple(out) + a[i:] + b[j:])

    def divide_by_var(self, v, k=1):
        """Exact division by v^k, k >= 1; None if v^k does not divide."""
        exps = self.exps
        for i, (w, e) in enumerate(exps):
            if w == v:
                if e < k:
                    return None
                lower = ((w, e - k),) if e > k else ()
                return _monomial(exps[:i] + lower + exps[i + 1:])
        return None

    def weighted_degree(self, weight):
        """Sum of exponent * weight(var) over the monomial."""
        return sum(e * weight(v) for v, e in self.exps)

    def render(self, base_plain=False):
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            s = v.render(base_plain)
            parts.append(s if e == 1 else "%s^%d" % (s, e))
        return "*".join(parts)

    def __eq__(self, other):
        return isinstance(other, Monomial) and other.exps == self.exps

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return _monomial, (self.exps,)

    def __repr__(self):
        return "Monomial(%s)" % self.render()


UNIT = Monomial()


def binary_power(base, e, one):
    """base ** e for an integer e >= 0 by binary exponentiation; ``one()``
    gives the unit for e == 0.  The product starts at the lowest set bit
    and squares only while bits remain, so base ** 1 is base itself."""
    if not e:
        return one()
    while not e & 1:
        base = base * base
        e >>= 1
    out = base
    e >>= 1
    while e:
        base = base * base
        if e & 1:
            out = out * base
        e >>= 1
    return out


def _eval_ratio(terms, tables):
    """The value of a term dict at a point as an integer pair (num, den),
    den > 0, not reduced.

    ``tables[v]`` is ``([1, n, n^2, ...], [1, d, d^2, ...])`` for the value
    n/d of v, d > 0; missing powers are appended as terms need them, so
    tables shared between polynomials are built once per point.  Each term
    is its coefficient's ``as_integer_ratio`` times tabulated powers, and
    the terms are summed over their least common denominator."""
    nums = []
    dens = []
    for m, c in terms.items():
        num, den = c.as_integer_ratio()
        for v, e in m.exps:
            pn, pd = tables[v]
            while len(pn) <= e:
                pn.append(pn[-1] * pn[1])
                pd.append(pd[-1] * pd[1])
            num *= pn[e]
            den *= pd[e]
        nums.append(num)
        dens.append(den)
    common = lcm(*dens)
    return sum(n * (common // d) for n, d in zip(nums, dens)), common


def _poly(field, terms):
    """Poly from a dict of nonzero scalars already in field (no coercion)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "field", field)
    object.__setattr__(p, "terms", terms)
    return p


class Poly:
    """Sparse polynomial with exact field coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        tdict = {}
        for m, c in (terms.items() if isinstance(terms, dict) else terms):
            c = field.coerce(c)
            if c:
                tdict[m] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", tdict)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field=QQ):
        return _poly(field, {})

    @classmethod
    def constant(cls, c, field=QQ):
        c = field.coerce(c)
        return _poly(field, {UNIT: c} if c else {})

    @classmethod
    def var(cls, v, field=QQ):
        return _poly(field, {_monomial(((v, 1),)): field.one})

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m.is_unit() for m in self.terms)

    def constant_value(self):
        return self.terms.get(UNIT, self.field.zero)

    def vars(self):
        seen = set()
        for m in self.terms:
            seen.update(m.vars())
        return sorted(seen, key=JetVar.sort_key)

    def coefficient(self, mono):
        return self.terms.get(mono, self.field.zero)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected Poly, got %r" % (other,))
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("mixed-field operands: %r vs %r" % (self.field, other.field))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.field)
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m)
            if s is None:
                d[m] = c
            else:
                s = s + c
                if s:
                    d[m] = s
                else:
                    del d[m]
        return _poly(self.field, d)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly) and (isinstance(other, int) or self.field.contains(other)):
            s = self.field.coerce(other)
            return _poly(self.field, {m: c * s for m, c in self.terms.items()} if s else {})
        self._check(other)
        d = {}
        other_terms = other.terms.items()
        for m1, c1 in self.terms.items():
            mul = m1.mul
            for m2, c2 in other_terms:
                m = mul(m2)
                c = c1 * c2
                s = d.get(m)
                d[m] = c if s is None else s + c
        return _poly(self.field, {m: c for m, c in d.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a Poly")
        return binary_power(self, e, self.unit_one)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.field == self.field and other.terms == self.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- calculus & substitution --------------------------------------

    def partial(self, v):
        """Formal partial derivative with respect to v."""
        d = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if not e:
                continue
            lower = m.divide_by_var(v)
            coeff = c * e
            if lower in d:
                d[lower] = d[lower] + coeff
            else:
                d[lower] = coeff
        return Poly(self.field, d)

    def eval(self, assignment):
        """Exact evaluation at a point; assignment maps JetVar to scalar.

        The assigned values are read through their ``as_integer_ratio``
        view, in the order the terms first use them, and ``_eval_ratio``
        does the arithmetic on integers; one field scalar is made at the
        end."""
        field = self.field
        tables = {}
        for m in self.terms:
            for v, _ in m.exps:
                if v not in tables:
                    if v not in assignment:
                        raise UnboundVariable("no value for %s" % v)
                    vnum, vden = field.coerce(assignment[v]).as_integer_ratio()
                    tables[v] = ([1, vnum], [1, vden])
        return field.from_ratio(*_eval_ratio(self.terms, tables))

    def substitute(self, mapping):
        """Replace variables by polynomials; unmapped variables stay."""
        out = Poly.zero(self.field)
        for m, c in self.terms.items():
            term = Poly.constant(c, self.field)
            for v, e in m.exps:
                repl = mapping.get(v)
                if repl is None:
                    repl = Poly.var(v, self.field)
                term = term * repl**e
            out = out + term
        return out

    def rename(self, varmap):
        """Apply a variable-to-variable renaming."""
        d = {}
        for m, c in self.terms.items():
            nm = Monomial({varmap.get(v, v): e for v, e in m.exps})
            d[nm] = d.get(nm, self.field.zero) + c
        return Poly(self.field, d)

    # -- unit handling (for truncated-series inversion) ---------------

    def unit_one(self):
        return Poly.constant(1, self.field)

    def unit_inverse(self):
        """Inverse of an invertible constant; the series-inversion hook."""
        c = self.constant_value()
        if not self.is_constant() or not c:
            raise NonUnitLeadingCoefficient("leading coefficient is not a unit: %s" % self)
        return Poly.constant(self.field.inv(c), self.field)

    # -- canonical rendering ------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: exponent vectors, lex descending."""
        universe = self.vars()
        pos = {v: i for i, v in enumerate(universe)}

        def vec(m):
            row = [0] * len(universe)
            for v, e in m.exps:
                row[pos[v]] = e
            return tuple(row)

        return sorted(self.terms.items(), key=lambda mc: vec(mc[0]), reverse=True)

    def render(self, base_plain=False):
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            cs = self.field.render(c)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if m.is_unit():
                body = mag
            elif mag == "1":
                body = m.render(base_plain)
            else:
                body = "%s*%s" % (mag, m.render(base_plain))
            if i == 0:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "Poly(%s)" % self.render()
