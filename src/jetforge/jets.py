"""Jet algebras of finitely presented algebras.

The level-n jet algebra of A = k[x_1..x_r]/(f_1..f_s) is presented on the
jet variables x_l^(i), 0 <= i <= n, with relations the jet components
d_i(f_k): substitute every base variable x by sum_i x^(i) t^i and read
off the t^i coefficients.  The i-th component then satisfies the higher
Leibniz rule by construction.

One engine computes the components over a grade box (n,) or (n, m), for
``hs_components`` (univariate and bivariate jets) and ``jet_again`` (jets
of jets).  Each variable maps to a family of variables indexed by grade g
(an integer, or a pair (i, j)), and by the multinomial theorem

    (sum_g x^(g) t^g)^e = sum over {a_g} with sum a_g = e of
                          e! / prod a_g! * prod (x^(g))^(a_g) * t^(sum a_g g),

so the grade-d component of a term c * prod_v v^(e_v) is the sum, over
the ways to split d among its variables, of c times products of these
monomials and integer multinomials, truncated to the grade box.  A jet
monomial determines the source term and the split, so every output term
is one dict store, with coefficient c * multinomial, made once per distinct
multinomial of a term; over F_p the terms whose multinomial vanishes mod p
drop out.  The tables hold ready monomials, written as they are for a term
in one variable; the families are disjoint, so in a term with several
variables each output monomial is one concatenation of monomials, sorted
only when the families interleave.  As D_0 = id and D_i(0) = 0, the zero
polynomial and ``hs_components(f, 0)`` build no table (see ``_substitute``).

A variable is named by ``_NAME``, the DSL's name token, and graded by a
natural int.  Both presentations build their one generator list when first
read.  Two gradings live on a jet presentation, both read by
``Monomial.weighted_degree``: the structural one (deg x^(i) = i) and,
when the source algebra is graded, the induced one (deg x^(i) = deg x).
"""

import re
from functools import cached_property, lru_cache
from itertools import product

from .errors import (BadLevels, FieldMismatch, InhomogeneousRelation, JetforgeError,
                     MissingGrading, NotABaseElement)
from .poly import UNIT, JetVar, _monomial, _pair_key, _poly
from .scalars import QQ


# ---------------------------------------------------------------------------
# jet components


def _base_variables(f):
    """The variables of f, sorted; each must be a base variable."""
    vs = f.vars()
    for v in vs:
        if v.order1 != 0 or v.order2 is not None:
            raise NotABaseElement("polynomial contains jet variable %s" % v)
    return vs


def _check_levels(levels):
    """Raise BadLevels unless levels is one or two ints, none negative; run
    before they key a cache, where (2.0,) and (True,) find (2,) and (1,)."""
    if not 1 <= len(levels) <= 2:
        raise BadLevels("a grade box has one or two levels, not %d" % len(levels))
    for b in levels:  # a loop, not any(<genexpr>): this runs on every jet call
        if type(b) is not int or b < 0:
            raise BadLevels("jet levels are ints, none negative: %r" % (levels,))


@lru_cache(maxsize=None)
def _grades(bounds):
    """The grade box 0 <= g <= bounds in lexicographic order, and its
    addition table: sums[a][b] is the position of box[a] + box[b] in the
    box, or None outside it.  The bounds are a box ``_check_levels`` takes."""
    box = list(product(*(range(b + 1) for b in bounds)))
    position = {g: k for k, g in enumerate(box)}
    sums = [[position.get(tuple(x + y for x, y in zip(g, h))) for h in box] for g in box]
    return box, sums


@lru_cache(maxsize=None)
def _family(v, levels):
    """The jets of the base variable named by v over the grade box
    ``levels``, (n,) or (n, m): x^(g) for each grade g in box order, which
    is variable order."""
    return tuple(JetVar(v.name, v.index, *g) for g in _grades(levels)[0])


@lru_cache(maxsize=None)
def _expansion(e, bounds):
    """Multinomial expansion of (sum_g x^(g) t^g)^e, truncated to the box.

    A tuple of (grade, entries) for the grades that occur, grades given by
    their position in the box; each entry is a multiset {g: a_g} of size e
    with grade sum ``grade`` in column form (grades, exponents, k): the
    positions g in box order, their a_g, and the multinomial
    k = e! / prod a_g!.  The split gives exponents to positions 1 and up;
    each of its nodes is an entry whose remainder goes to position 0, the
    zero grade, so no branch is dead.  The families of a box share it."""
    box, _ = _grades(bounds)
    found = {}

    def split(start, left, total, grades, exponents, k):
        if not left:
            found.setdefault(total, []).append((grades, exponents, k))
            return
        found.setdefault(total, []).append(((0,) + grades, (left,) + exponents, k))
        for idx in range(start, len(box)):
            if total[0] + box[idx][0] > bounds[0]:
                break  # the box is in lexicographic order: no later grade fits
            m = k
            for a in range(1, left + 1):
                t = tuple(s + a * x for s, x in zip(total, box[idx]))
                if any(s > b for s, b in zip(t, bounds)):
                    break
                m = m * (left - a + 1) // a  # k * binom(left, a)
                split(idx + 1, left - a, t, grades + (idx,), exponents + (a,), m)

    split(1, e, box[0], (), (), 1)
    return tuple((pos, tuple(found[g])) for pos, g in enumerate(box) if g in found)


@lru_cache(maxsize=None)
def _rows(family, e, bounds):
    """The table of v^e for a variable with jet family ``family``: each
    ``_expansion`` entry read through the family as a ready ``Monomial``,
    with its multinomial, grouped by grade position.  Kept for the life of
    the process, like ``_expansion``; it holds no field scalar, so every
    field shares it.  ``_substitute`` and ``p1.power_jets`` read it
    directly.  It reads ``_expansion`` only on a miss; that split stays a
    cache of its own, as the families of a box share it, and one split per
    family slows a cold ``jet --n 80`` and ``jet2 --n 8 --m 8``."""
    return tuple((g, tuple([(_monomial(tuple(zip(map(family.__getitem__, grades), exponents))), k)
                            for grades, exponents, k in entries]))
                 for g, entries in _expansion(e, bounds))


def _substitute(f, families, bounds):
    """Grade components of f after substituting each variable v by
    sum_g families[v][g] t^g, truncated to the grade box ``bounds``.

    ``families[v]`` is a tuple whose k-th variable has the k-th grade of the
    box in lexicographic order; each family must be in increasing variable
    order, and distinct variables of f must have disjoint families.  Returns
    one Poly per grade, in box order.

    The rows of v^e's table, built once per (family, e, box) by ``_rows``,
    are monomials in v's family.  A constant writes the unit, and a term in
    one variable its table's monomials as they are.  A term in several
    variables convolves its last variable's table straight into the output,
    after concatenating the others' rows into lists.  A concatenation must
    be sorted only when the families interleave, as for ``jet_again`` into
    order1 or for two variables that share an index: when, taken in the
    order of their variables, some family does not end before the next one
    starts, which is read off the families at the first such term.  The
    zero polynomial, and f over one grade whose families are each (v,) (not
    the renaming (0, 0) box or ``jet_again(g, 0, ...)``), need no table;
    those returns are here, so the checker's mutants, which wrap this, see them."""
    box, sums = _grades(bounds)
    if not f.terms:
        return [f] * len(box)
    if len(box) == 1 and list(zip(families)) == list(families.values()):
        return [f]  # every family is (v,): zip yields each key v as (v,)
    out = [{} for _ in box]
    interleaved = None
    for mono, c in f.terms.items():
        if not mono:
            out[0][UNIT] = c
            continue
        scaled = {1: c}  # multinomial k -> c * k, or None where c * k is 0
        v, e = mono[-1]
        table = _rows(families[v], e, bounds)
        if len(mono) == 1:
            for g, rows in table:
                dest = out[g]
                for m, k in rows:
                    coeff = scaled.get(k)
                    if coeff is None and k not in scaled:
                        coeff = scaled[k] = c * k or None
                    if coeff is not None:
                        dest[m] = coeff
            continue
        if interleaved is None:
            ordered = [families[w] for w in sorted(families, key=JetVar.sort_key)]
            interleaved = any(a[-1]._key > b[0]._key for a, b in zip(ordered, ordered[1:]))
        v, e = mono[0]
        acc = _rows(families[v], e, bounds)
        for v, e in mono[1:-1]:
            nxt = {}
            for g1, left in acc:
                row = sums[g1]
                for g2, right in _rows(families[v], e, bounds):
                    g = row[g2]
                    if g is not None:
                        nxt.setdefault(g, []).extend(
                            [(m1 + m2, k1 * k2) for m1, k1 in left for m2, k2 in right])
            acc = nxt.items()
        for g1, left in acc:
            row = sums[g1]
            for g2, right in table:
                g = row[g2]
                if g is None:
                    continue
                dest = out[g]
                for m1, k1 in left:
                    for m2, k2 in right:
                        k = k1 * k2
                        coeff = scaled.get(k)
                        if coeff is None and k not in scaled:
                            coeff = scaled[k] = c * k or None
                        if coeff is not None:
                            m = m1 + m2
                            dest[_monomial(sorted(m, key=_pair_key) if interleaved else m)] = coeff
    return [_poly(f.field, d) for d in out]


def hs_components(f, *levels):
    """Jet components of a base-ring polynomial over the grade box (n,) or
    (n, m), in box order: d_0(f) .. d_n(f), or the coefficients of s^i t^j."""
    _check_levels(levels)
    variables = {v for m in f.terms for v, _ in m}
    if any(v.order1 or v.order2 is not None for v in variables):
        _base_variables(f)  # raises, naming the least jet variable of f
    return _substitute(f, {v: _family(v, levels) for v in variables}, levels)


def jet_again(f, n, outer_to):
    """Jet components of a polynomial already living in univariate jet
    variables; the new (outer) index lands in ``order1`` or ``order2``."""
    if outer_to not in ("order1", "order2"):
        raise ValueError("outer_to must be order1 or order2")
    _check_levels((n,))
    families = {}
    for v in f.vars():
        if v.order2 is not None:
            raise NotABaseElement("cannot jet a bivariate variable %s" % v)
        # the jets x^(o, a) of v = x^(o) are row o of x's (o, n) family, and
        # the jets x^(a, o) are its (n, o) family's column o
        o = v.order1
        families[v] = (_family(v, (n, o))[o::o + 1] if outer_to == "order1"
                       else _family(v, (o, n))[o * (n + 1):])
    return _substitute(f, families, (n,))


# ---------------------------------------------------------------------------
# presentations


# A name of the DSL: of a variable, an ideal or a field; ``dsl._TOKEN`` is built from it.
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _check_natural(n, what):
    """Raise unless n is an int (not a bool), and not negative."""
    if type(n) is not int:
        raise TypeError("a %s is an int, not %r" % (what, n))
    if n < 0:
        raise ValueError("negative %s %d" % (what, n))


class _Record:
    """Base of the record classes: field-wise ``==`` over ``_fields`` (so
    instances are unhashable) and a repr listing them, as a dataclass has."""

    _fields = ()

    @classmethod
    def _built(cls, *values):
        """The record of ``values`` in ``_fields`` order, without the constructor's checks."""
        record = object.__new__(cls)
        vars(record).update(zip(cls._fields, values, strict=True))
        return record

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values())))


class AlgebraPresentation(_Record):
    """A k-algebra by generators and relations over ``field``; optionally graded.
    Its variables match ``_NAME`` and its degrees are natural ints, as in the DSL."""

    _fields = ("vars", "relations", "grading", "field")

    def __init__(self, vars, relations, grading=None, field=QQ):
        if isinstance(vars, str):  # 'xy' would be read as the variables x and y
            raise TypeError("vars is a list of names, not the str %r" % vars)
        self.vars = vars
        self.relations = relations
        self.grading = grading
        self.field = field
        for k, x in enumerate(self.vars):
            if not (isinstance(x, str) and _NAME.fullmatch(x)):
                raise ValueError("variable %r is not a name of the DSL" % (x,))
            if x in self.vars[:k]:
                raise JetforgeError("duplicate variable %r" % x)
        declared = relations and set(self.generators)
        for f in self.relations:
            if f.field is not field:
                raise FieldMismatch("relation over %r, algebra over %r" % (f.field, field))
            for v in _base_variables(f):
                if v not in declared:
                    raise ValueError("relation mentions undeclared variable %s" % v)
        if self.grading is not None:
            missing = [x for x in self.vars if x not in self.grading]
            if missing:
                raise MissingGrading("no degree for %s" % ", ".join(missing))
            for x, d in self.grading.items():
                if x not in self.vars:
                    raise ValueError("grade for undeclared variable %r" % (x,))
                _check_natural(d, "degree")
            for f in self.relations:
                if not f.is_zero() and self.homogeneous_degree(f) is None:
                    raise InhomogeneousRelation("relation %s is not homogeneous" % f)

    @cached_property
    def generators(self):
        """The base variables x_0, in variable order, built when first read."""
        return [JetVar(x, i, 0) for i, x in enumerate(self.vars)]

    def homogeneous_degree(self, f):
        """Degree of f under the grading, or None if inhomogeneous."""
        degs = {m.weighted_degree(lambda v: self.grading[v.name]) for m in f.terms}
        if len(degs) == 1:
            return degs.pop()
        return None


class JetPresentation(_Record):
    """The jet presentation of ``source``, an AlgebraPresentation, over the
    grade box ``levels``: (n,) for the level-n jets, (n, m) for bivariate
    jets.  Its generators are each source generator's family in box order;
    relation r is component g of f_k, (k, g) = divmod(r, box size).  Both
    are built when first read."""

    _fields = ("levels", "source")

    def __init__(self, levels, source):
        if not isinstance(source, AlgebraPresentation):
            raise TypeError("jets are of an AlgebraPresentation, not a %s" % type(source).__name__)
        _check_levels(levels)  # even with no relation to build
        self.levels = levels
        self.source = source

    @property
    def field(self):
        return self.source.field

    @cached_property
    def generators(self):
        return [w for v in self.source.generators for w in _family(v, self.levels)]

    @cached_property
    def relations(self):
        return [g for f in self.source.relations for g in hs_components(f, *self.levels)]


def jet_presentation(A, *levels):
    """The jet presentation of A over the grade box ``levels``, (n,) or (n, m)."""
    return JetPresentation(levels, A)


# ---------------------------------------------------------------------------
# morphisms


def _check_over(p, P, declared, what):
    """Raise unless p is over P's field and its generators ``declared``."""
    if p.field is not P.field:
        raise FieldMismatch("%s over %r, algebra over %r" % (what, p.field, P.field))
    if not declared.issuperset([v for m in p.terms for v, _ in m]):
        raise ValueError("%s %s is not over %s"
                         % (what, p, ", ".join(v.render(True) for v in P.generators)))


class AlgebraMorphism(_Record):
    """Map of presented algebras, given on generators.

    The constructor checks that each key is a source generator and each
    image a polynomial over the source's field in the target's generators;
    a generator may have no image.  Validity (images of relations lying in
    the target ideal) is the caller's contract; everything built on
    morphisms here is a free polynomial identity.
    """

    _fields = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = images  # JetVar (source generator) -> Poly over target generators
        if target.field is not source.field:
            raise FieldMismatch("target over %r, source over %r" % (target.field, source.field))
        keys, declared = set(source.generators), set(target.generators)
        for v, img in images.items():
            if v not in keys:
                raise ValueError("image given for %s, not a generator of the source" % v)
            _check_over(img, target, declared, "image")

    def apply(self, f):
        return f.substitute(self.images)


def induced_morphism(phi, n):
    """Jet-level morphism: x^(i) maps to d_i(phi(x))."""
    source = jet_presentation(phi.source, n)  # checks n before _family sees it
    images = {}
    for v, img in phi.images.items():
        images.update(zip(_family(v, (n,)), hs_components(img, n)))
    return AlgebraMorphism._built(source, jet_presentation(phi.target, n), images)
