"""Jet algebras of finitely presented algebras.

The level-n jet algebra of A = k[x_1..x_r]/(f_1..f_s) is presented on the
jet variables x_l^(i), 0 <= i <= n, with relations the jet components
d_i(f_k): substitute every base variable x by sum_i x^(i) t^i and read
off the t^i coefficients.  The i-th component then satisfies the higher
Leibniz rule by construction.

The components are computed by one engine for univariate jets, jets of
jets and bivariate jets.  Each variable maps to a family of variables
indexed by grade g (an integer, or a pair (i, j)), and by the
multinomial theorem

    (sum_g x^(g) t^g)^e = sum over {a_g} with sum a_g = e of
                          e! / prod a_g! * prod (x^(g))^(a_g) * t^(sum a_g g),

so the grade-d component of a term c * prod_v v^(e_v) is the sum, over
the ways to split d among its variables, of c times products of these
monomials and integer multinomials, truncated to the grade box.  A jet
monomial determines the source term and the split, so every output term
is written once, with coefficient c * multinomial; over F_p the terms
whose multinomial vanishes mod p drop out.  The families are disjoint, so
each output monomial is one concatenation of the variables' pair tuples,
sorted only when the families interleave.

Two gradings live on a jet presentation, both read by
``Monomial.weighted_degree``: the structural one (deg x^(i) = i) and,
when the source algebra is graded, the induced one (deg x^(i) = deg x).
"""

from functools import cached_property, lru_cache
from itertools import product

from .errors import InhomogeneousRelation, JetforgeError, MissingGrading, NotABaseElement
from .poly import JetVar, Poly, _monomial, _poly
from .scalars import QQ


# ---------------------------------------------------------------------------
# jet components


def _base_vars(f):
    """The variables of f, sorted; each must be a base variable."""
    vs = f.vars()
    for v in vs:
        if v.order1 != 0 or v.order2 is not None:
            raise NotABaseElement("polynomial contains jet variable %s" % v)
    return vs


@lru_cache(maxsize=None)
def _family(v, n):
    """The jets v^(0) .. v^(n) of a base variable, in variable order."""
    return tuple(JetVar(v.name, v.index, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def _grades(bounds):
    """The grade box 0 <= g <= bounds in lexicographic order, and its
    addition table: sums[a][b] is the position of box[a] + box[b] in the
    box, or None outside it."""
    box = list(product(*(range(b + 1) for b in bounds)))
    position = {g: k for k, g in enumerate(box)}
    sums = [[position.get(tuple(x + y for x, y in zip(g, h))) for h in box] for g in box]
    return box, sums


@lru_cache(maxsize=None)
def _expansion(e, bounds):
    """Multinomial expansion of (sum_g x^(g) t^g)^e, truncated to the box.

    A tuple of (grade, entries) for the grades that occur, grades given by
    their position in the box; each entry is a multiset {g: a_g} of size e
    with grade sum ``grade`` in column form (grades, exponents, k): the
    positions g in box order, their a_g, and the multinomial
    k = e! / prod a_g!.  The split gives exponents to positions 1 and up;
    each of its nodes is an entry whose remainder goes to position 0, the
    zero grade, so no branch is dead."""
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
    ``_expansion`` entry read through the family as a tuple of (variable,
    exponent) pairs, with its multinomial, grouped by grade position.  Kept
    for the life of the process, like ``_expansion``; it holds no field
    scalar, so every field shares it."""
    return tuple((g, tuple([(tuple(zip(map(family.__getitem__, grades), exponents)), k)
                            for grades, exponents, k in entries]))
                 for g, entries in _expansion(e, bounds))


_UNIT_TABLE = ((0, (((), 1),)),)  # the empty product: the unit monomial, in grade 0


def _pair_key(pair):
    return pair[0]._key


def _substitute(f, families, bounds):
    """Grade components of f after substituting each variable v by
    sum_g families[v][g] t^g, truncated to the grade box ``bounds``.

    ``families[v]`` is a tuple whose k-th variable has the k-th grade of the
    box in lexicographic order; each family must be in increasing variable
    order, and distinct variables of f must have disjoint families.  Returns
    one Poly per grade, in box order.

    The rows of v^e's table, built once per (family, e, box) by ``_rows``,
    are pair tuples of v's family.  Partial products concatenate such rows,
    and each output term becomes one monomial.  A concatenation must be
    sorted only when the families interleave, as for ``jet_again`` into
    order1 or for two variables that share an index: when, taken in the
    order of their variables, some family does not end before the next one
    starts."""
    box, sums = _grades(bounds)
    ordered = [families[v] for v in sorted(families, key=JetVar.sort_key)]
    interleaved = any(a[-1]._key > b[0]._key for a, b in zip(ordered, ordered[1:]))
    out = [{} for _ in box]
    tables = {}
    for mono, c in f.terms.items():
        acc = _UNIT_TABLE
        for v, e in mono:
            table = tables.get((v, e))
            if table is None:
                table = tables[(v, e)] = _rows(families[v], e, bounds)
            if acc is _UNIT_TABLE:
                acc = table
                continue
            nxt = {}
            for g1, left in acc:
                row = sums[g1]
                for g2, right in table:
                    g = row[g2]
                    if g is None:
                        continue
                    terms = nxt.setdefault(g, [])
                    for m1, k1 in left:
                        terms.extend([(m1 + m2, k1 * k2) for m2, k2 in right])
            acc = nxt.items()
        for g, terms in acc:
            dest = out[g]
            for m, k in terms:
                coeff = c if k == 1 else c * k
                if coeff:
                    if interleaved:
                        m = sorted(m, key=_pair_key)
                    dest[_monomial(m)] = coeff
    return [_poly(f.field, d) for d in out]


def hs_components(f, n):
    """Jet components d_0(f) .. d_n(f) of a base-ring polynomial."""
    return _substitute(f, {v: _family(v, n) for v in _base_vars(f)}, (n,))


def jet_again(f, n, outer_to):
    """Jet components of a polynomial already living in univariate jet
    variables; the new (outer) index lands in ``order1`` or ``order2``."""
    if outer_to not in ("order1", "order2"):
        raise ValueError("outer_to must be order1 or order2")
    families = {}
    for v in f.vars():
        if v.order2 is not None:
            raise NotABaseElement("cannot jet a bivariate variable %s" % v)
        if outer_to == "order1":
            families[v] = tuple(JetVar(v.name, v.index, a, v.order1) for a in range(n + 1))
        else:
            families[v] = tuple(JetVar(v.name, v.index, v.order1, a) for a in range(n + 1))
    return _substitute(f, families, (n,))


def hs_components_2d(f, n, m):
    """Bivariate jet components: (n+1) x (m+1) matrix of coefficients of
    s^i t^j after substituting x by sum x^(i,j) s^i t^j."""
    families = {v: tuple(JetVar(v.name, v.index, i, j) for i in range(n + 1) for j in range(m + 1))
                for v in _base_vars(f)}
    comps = _substitute(f, families, (n, m))
    return [comps[i * (m + 1):(i + 1) * (m + 1)] for i in range(n + 1)]


# ---------------------------------------------------------------------------
# presentations


class _Record:
    """Base of the record classes: field-wise ``==`` over ``_fields`` (so
    instances are unhashable) and a repr listing them, as a dataclass has."""

    _fields = ()

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
    """A k-algebra by generators and relations; optionally graded."""

    _fields = ("vars", "relations", "grading", "field")

    def __init__(self, vars, relations, grading=None, field=QQ):
        self.vars = vars
        self.relations = relations
        self.grading = grading
        self.field = field
        for k, x in enumerate(self.vars):
            if x in self.vars[:k]:
                raise JetforgeError("duplicate variable %r" % x)
        declared = set(self.base_vars())
        for f in self.relations:
            for v in _base_vars(f):
                if v not in declared:
                    raise ValueError("relation mentions undeclared variable %s" % v)
        if self.grading is not None:
            missing = [x for x in self.vars if x not in self.grading]
            if missing:
                raise MissingGrading("no degree for %s" % ", ".join(missing))
            for f in self.relations:
                if not f.is_zero() and self.homogeneous_degree(f) is None:
                    raise InhomogeneousRelation("relation %s is not homogeneous" % f)

    def base_vars(self):
        return [JetVar(x, i, 0) for i, x in enumerate(self.vars)]

    def homogeneous_degree(self, f):
        """Degree of f under the grading, or None if inhomogeneous."""
        degs = {m.weighted_degree(lambda v: self.grading[v.name]) for m in f.terms}
        if len(degs) == 1:
            return degs.pop()
        return None


class JetPresentation(_Record):
    _fields = ("level", "source", "jet_vars")

    def __init__(self, level, source, jet_vars):
        self.level = level
        self.source = source
        self.jet_vars = jet_vars

    @property
    def field(self):
        return self.source.field

    @cached_property
    def relations(self):
        """Relation r is d_i(f_k), (k, i) = divmod(r, level+1); built when read."""
        return [g for f in self.source.relations for g in hs_components(f, self.level)]

    def to_json_dict(self):
        return {
            "level": self.level,
            "vars": [v.render() for v in self.jet_vars],
            "relations": [f.render() for f in self.relations],
            "structural_degrees": {v.render(): v.order1 for v in self.jet_vars},
            "induced_degrees": (
                {v.render(): self.source.grading[v.name] for v in self.jet_vars}
                if self.source.grading is not None else {}),
        }


def jet_presentation(A, n):
    """Level-n jet presentation of A; the relations are built when first read."""
    return JetPresentation(n, A, [JetVar(x, l, i) for l, x in enumerate(A.vars)
                                  for i in range(n + 1)])


class BiJetPresentation(_Record):
    _fields = ("levels", "source", "jet_vars", "relations")

    def __init__(self, levels, source, jet_vars, relations):
        self.levels = levels
        self.source = source
        self.jet_vars = jet_vars
        self.relations = relations

    def to_json_dict(self):
        return {
            "levels": list(self.levels),
            "vars": [v.render() for v in self.jet_vars],
            "relations": [f.render() for f in self.relations],
        }


def bijet_presentation(A, n, m):
    """Levels (n, m) jet presentation of A; relations in (k, i, j) order,
    relation k's (n+1)(m+1) components row by row."""
    jet_vars = [JetVar(x, l, i, j)
                for l, x in enumerate(A.vars) for i in range(n + 1) for j in range(m + 1)]
    relations = [g for f in A.relations for row in hs_components_2d(f, n, m) for g in row]
    return BiJetPresentation((n, m), A, jet_vars, relations)


# ---------------------------------------------------------------------------
# morphisms


class AlgebraMorphism(_Record):
    """Map of presented algebras, given on generators.

    Validity (images of relations lying in the target ideal) is the
    caller's contract; everything built on morphisms here is a free
    polynomial identity.
    """

    _fields = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = images  # JetVar (source generator) -> Poly over target generators

    def apply(self, f):
        return f.substitute(self.images)

    @classmethod
    def identity(cls, A):
        return cls(A, A, {v: Poly.var(v, A.field) for v in A.base_vars()})


def induced_morphism(phi, n):
    """Jet-level morphism: x^(i) maps to d_i(phi(x))."""
    images = {}
    for v, img in phi.images.items():
        comps = hs_components(img, n)
        for i in range(n + 1):
            images[JetVar(v.name, v.index, i)] = comps[i]
    return AlgebraMorphism(jet_presentation(phi.source, n),
                           jet_presentation(phi.target, n), images)
