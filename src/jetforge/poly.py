"""Sparse multivariate polynomials over jet-indexed variables.

The variable universe is ``JetVar``: a base name with a stable index plus
one jet order (univariate jet rings) or two (bivariate ones).  A base-ring
variable x is the order-0 jet variable x_0.  Jet variables are interned,
one object per variable in a table that never shrinks, so comparing and
hashing them is identity's; hashes are address-based, so a set of
variables is sorted by ``JetVar.sort_key`` before it is iterated, and no
output depends on hash order.  A variable's rendered text, with and
without ``base_plain``, is fixed when it is interned, so rendering joins
stored strings.  A monomial is a tuple of (variable, exponent) pairs and
equals the plain tuple of its pairs.  Polynomials are immutable
dictionaries mapping monomials to nonzero exact field scalars; the zero
polynomial is the empty map, and a sum or product with a zero operand
does no arithmetic.  One helper, ``_add_terms``, sums terms into such a
dict for ``+``, ``substitute``, the DSL reader and ``Poly(field, terms)``,
which takes (``Monomial``, scalar) pairs and adds repeated monomials.
``convolve`` is the one product of jet lists: the P^1 cocycle, the
twisted-action and Leibniz checks and ``series`` use it.

Canonical textual form (the bit-exact contract for golden tests and JSON
output): variables sort by (base index, order1, order2, name), with a
missing order2 first; terms sort by exponent vector, lexicographically
descending; variables render as "x_1" for jet order 1 and "x_1_2" in
bivariate rings; coefficients render as "p/q" with q omitted when 1.
"""

from functools import partial

from .errors import FieldMismatch, NonUnitLeadingCoefficient, UnboundVariable
from .scalars import QQ

_JETVARS = {}  # (name, index, order1, order2) -> the one JetVar with that spec


def _immutable(self, *_):
    raise AttributeError("%s is immutable" % type(self).__name__)


class JetVar:
    """A jet variable, interned: the constructor returns the one object per
    (name, index, order1, order2), so equality and hashing are identity's.
    The table keeps one small object per distinct variable ever built and
    never shrinks.  Index and orders are ints (so True is not 1), orders
    non-negative, so the sort key (index, order1, order2 or -1, name) is unique."""

    __slots__ = ("name", "index", "order1", "order2", "_key", "_text", "_plain")

    def __new__(cls, name, index, order1=0, order2=None):
        if not type(index) is type(order1) is type(0 if order2 is None else order2) is int:
            raise TypeError("jet index and orders are ints: %r" % ((index, order1, order2),))
        spec = (name, index, order1, order2)
        try:
            return _JETVARS[spec]
        except KeyError:
            v = object.__new__(cls)
        key = (index, order1, -1 if order2 is None else order2, name)
        if order2 is None:
            text = "%s_%d" % (name, order1)
            plain = text if order1 else name
        else:
            text = plain = "%s_%d_%d" % (name, order1, order2)
        for attr, value in zip(cls.__slots__, spec + (key, text, plain)):
            object.__setattr__(v, attr, value)
        if order1 < 0 or order2 is not None and order2 < 0:
            raise ValueError("negative jet order in %s" % v)
        return _JETVARS.setdefault(spec, v)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return JetVar, (self.name, self.index, self.order1, self.order2)

    def __repr__(self):
        return "JetVar(name=%r, index=%r, order1=%r, order2=%r)" % self.__reduce__()[1]

    def sort_key(self):
        return self._key

    def render(self, base_plain=False):
        """"x_1", "x_1_2" in bivariate rings, and "x" for x_0 when base_plain."""
        return self._plain if base_plain else self._text

    def __str__(self):
        return self._text


def _pair_key(pair):
    return pair[0]._key


class Monomial(tuple):
    """Finite map JetVar -> positive exponent; the empty map is the unit.

    A monomial is the tuple of its (var, exponent) pairs sorted by the
    variables' sort keys, and it equals, and hashes like, the plain tuple of
    those pairs, so dict lookups on polynomials hash and compare in C.
    ``len`` is its number of variables and ``UNIT`` is the one falsy
    monomial: ``not m`` tests for it.  Never format a monomial with ``%``,
    which would read the tuple as arguments; use ``render``."""

    __slots__ = ()

    def __new__(cls, exps=()):
        if not isinstance(exps, dict):  # pairs; a repeated variable adds its exponents
            pairs, exps = exps, {}
            for v, e in pairs:
                exps[v] = exps.get(v, 0) + e
        items = sorted(((v, e) for v, e in exps.items() if e), key=_pair_key)
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent in monomial")
        return tuple.__new__(cls, items)

    __setattr__ = __delattr__ = _immutable

    def vars(self):
        return [v for v, _ in self]

    def exponent(self, v):
        for w, e in self:
            if w is v:
                return e
        return 0

    def mul(self, other):
        """Product: a merge of the two sorted pair tuples."""
        if not other:
            return self
        if not self:
            return other
        out = []
        i = j = 0
        na, nb = len(self), len(other)
        while i < na and j < nb:
            va, ea = self[i]
            vb, eb = other[j]
            if va is vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif va._key < vb._key:
                out.append(self[i])
                i += 1
            else:
                out.append(other[j])
                j += 1
        return _monomial(tuple(out) + self[i:] + other[j:])

    def divide_by_var(self, v, k=1):
        """Exact division by v^k, k >= 1; None if v^k does not divide."""
        for i, (w, e) in enumerate(self):
            if w is v:
                if e < k:
                    return None
                lower = ((w, e - k),) if e > k else ()
                return _monomial(self[:i] + lower + self[i + 1:])
        return None

    def weighted_degree(self, weight):
        """Sum of exponent * weight(var) over the monomial."""
        return sum(e * weight(v) for v, e in self)

    def render(self, base_plain=False):
        if not self:
            return "1"
        if base_plain:
            return "*".join([v._plain if e == 1 else "%s^%d" % (v._plain, e) for v, e in self])
        return "*".join([v._text if e == 1 else "%s^%d" % (v._text, e) for v, e in self])

    def __reduce__(self):
        return Monomial, (tuple(self),)

    def __repr__(self):
        return "Monomial(%s)" % self.render()


# Monomial from (var, exponent) pairs already sorted, merged and positive.
_monomial = partial(tuple.__new__, Monomial)


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


def convolve(a, b):
    """The jet list whose entry i is sum_k a[k] * b[i - k], for two jet
    lists of one length: the product rule of truncated series, over any
    ring elements.  Each entry starts from its first product."""
    if len(a) != len(b):
        raise ValueError("jet lists of lengths %d and %d" % (len(a), len(b)))
    size = len(b)
    out = [a[0] * y for y in b]
    for i, x in enumerate(a[1:], 1):
        for j, y in enumerate(b[:size - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _value(terms, point):
    """The value of a term dict at a point, a map from each of its variables
    to a scalar: the sum of c * prod point[v] ** e, in the scalars' own
    arithmetic, with only their +, * and **, from the int 0."""
    total = 0
    for m, c in terms.items():
        for v, e in m:
            c = c * point[v] ** e
        total = total + c
    return total


def _add_terms(terms, pairs):
    """Add (monomial, nonzero scalar) pairs into the term dict ``terms``, and
    return it; a monomial whose sum is 0 leaves, so if it comes back it is last."""
    for m, c in pairs:
        s = terms.get(m)
        if s is None:
            terms[m] = c
        else:
            s = s + c
            if s:
                terms[m] = s
            else:
                del terms[m]
    return terms


_LAST = ((float("inf"),), 0)  # after every (variable key, -exponent) pair


def _render_key(term):
    return tuple([(v._key, -e) for v, e in term[0]] + [_LAST])


class Poly:
    """Sparse polynomial with exact field coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        pairs = []
        for m, c in (terms.items() if isinstance(terms, dict) else terms):
            if not isinstance(m, Monomial):
                raise TypeError("a term's key is a Monomial, not %r" % (m,))
            c = field.coerce(c)
            if c:
                pairs.append((m, c))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", _add_terms({}, pairs))

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Poly, (self.field, self.terms)

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

    def vars(self):
        return sorted({v for m in self.terms for v, _ in m}, key=JetVar.sort_key)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected Poly, got %r" % (other,))
        if other.field is not self.field:
            raise FieldMismatch("mixed-field operands: %r vs %r" % (self.field, other.field))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.field)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _poly(self.field, _add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly) and (isinstance(other, int) or self.field.contains(other)):
            s = self.field.coerce(other)
            return _poly(self.field, {m: c * s for m, c in self.terms.items()} if s else {})
        self._check(other)
        if not self.terms or not other.terms:
            return _poly(self.field, {})
        # a first write is a product of two nonzero scalars, so nonzero
        d = {}
        other_terms = other.terms.items()
        for m1, c1 in self.terms.items():
            mul = m1.mul
            for m2, c2 in other_terms:
                m = mul(m2)
                s = d.get(m)
                if s is None:
                    d[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        d[m] = s
                    else:
                        del d[m]
        return _poly(self.field, d)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a Poly")
        return binary_power(self, e, self.unit_one)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.field is self.field and other.terms == self.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- calculus & substitution --------------------------------------

    def gradient(self, gens):
        """The partial derivatives by each of the distinct variables gens,
        in one pass over the terms: a term c * m gives c * e * m / v to the
        derivative by each v^e in m.  Dividing by v is injective on the
        monomials that contain v, so no two terms of one derivative merge;
        a term drops out only where c * e is 0 in the field, as x^p does
        over F_p."""
        field = self.field
        coerce = field.coerce
        position = {v: k for k, v in enumerate(gens)}
        out = [{} for _ in gens]
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                k = position.get(v)
                if k is None:
                    continue
                if e == 1:
                    out[k][_monomial(m[:i] + m[i + 1:])] = c
                else:
                    coeff = coerce(c * e)
                    if coeff:
                        out[k][_monomial(m[:i] + ((v, e - 1),) + m[i + 1:])] = coeff
        return [_poly(field, d) for d in out]

    def partial(self, v):
        """Formal partial derivative with respect to v."""
        return self.gradient((v,))[0]

    def eval(self, assignment):
        """Exact evaluation at a point; assignment maps JetVar to scalar.

        The values are coerced into the field in the order the terms first
        use their variables, and the first variable without a value raises
        ``UnboundVariable``; ``_value`` then sums the terms."""
        field = self.field
        point = {}
        for m in self.terms:
            for v, _ in m:
                if v not in point:
                    if v not in assignment:
                        raise UnboundVariable("no value for %s" % v)
                    point[v] = field.coerce(assignment[v])
        return field.coerce(_value(self.terms, point))

    def substitute(self, mapping):
        """Replace variables by polynomials; unmapped variables stay, and only
        they are built as ``Poly.var``.  Each power of an image is computed
        once, and the terms are summed into one dict by ``_add_terms``, as
        ``__add__`` sums."""
        field = self.field
        powers = {}
        d = {}
        for m, c in self.terms.items():
            term = _poly(field, {UNIT: c})
            for v, e in m:
                power = powers.get((v, e))
                if power is None:
                    image = mapping[v] if v in mapping else Poly.var(v, field)
                    power = powers[(v, e)] = image ** e
                term = term * power
                if not term.terms:
                    break  # a zero factor: the term is zero, whatever follows
            _add_terms(d, term.terms.items())
        return _poly(field, d)

    def rename(self, varmap):
        """Apply a variable-to-variable renaming."""
        return self.substitute({v: Poly.var(w, self.field) for v, w in varmap.items()})

    # -- unit handling (for truncated-series inversion) ---------------

    def unit_one(self):
        return Poly.constant(1, self.field)

    def unit_inverse(self):
        """Inverse of an invertible constant; the series-inversion hook."""
        c = self.terms.get(UNIT)
        if not c or len(self.terms) > 1:
            raise NonUnitLeadingCoefficient("leading coefficient is not a unit: %s" % self)
        return Poly.constant(self.field.inv(c), self.field)

    # -- canonical rendering ------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: exponent vectors, lex descending.

        Sorting ascending on the sparse pairs (variable key, -exponent)
        gives that order: at the first difference, a smaller variable or a
        larger exponent means the larger vector, and a monomial that ends
        first, as it has no variable there, sorts last."""
        return sorted(self.terms.items(), key=_render_key)

    def render(self, base_plain=False):
        """Terms in canonical order, each a sign and "c*m", "m" or "c"; the
        first term's sign is "-" or nothing."""
        terms = self.terms
        if not terms:
            return "0"
        coefficient = self.field.render
        parts = []
        for m, c in self.sorted_terms() if len(terms) > 1 else terms.items():
            cs = coefficient(c)
            if cs[0] == "-":
                parts.append(" - ")
                cs = cs[1:]
            else:
                parts.append(" + ")
            if not m:
                parts.append(cs)
            elif cs == "1":
                parts.append(m.render(base_plain))
            else:
                parts.append(cs + "*" + m.render(base_plain))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "Poly(%s)" % self.render()


_set_field, _set_terms = Poly.field.__set__, Poly.terms.__set__  # the slots' member descriptors


def _poly(field, terms):
    """Poly from a dict of nonzero scalars already in field (no coercion)."""
    p = object.__new__(Poly)
    _set_field(p, field)
    _set_terms(p, terms)
    return p
