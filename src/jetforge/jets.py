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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import factorial

from .errors import (BadLevels, InhomogeneousRelation, JetforgeError, MissingGrading,
                     NotABaseElement)
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
    k = e! / prod a_g!."""
    box, _ = _grades(bounds)
    found = {}

    def split(start, left, total, grades, exponents, k):
        if not left:
            found.setdefault(total, []).append((grades, exponents, k))
            return
        for idx in range(start, len(box)):
            for a in range(1, left + 1):
                t = tuple(s + a * x for s, x in zip(total, box[idx]))
                if any(s > b for s, b in zip(t, bounds)):
                    break
                split(idx + 1, left - a, t, grades + (idx,), exponents + (a,),
                      k // factorial(a))

    split(0, e, box[0], (), (), factorial(e))
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


@dataclass
class AlgebraPresentation:
    """A k-algebra by generators and relations; optionally graded."""

    vars: list
    relations: list
    grading: dict | None = None
    field: object = QQ

    def __post_init__(self):
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


@dataclass
class JetPresentation:
    level: int
    source: AlgebraPresentation
    jet_vars: list

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


@dataclass
class BiJetPresentation:
    levels: tuple
    source: AlgebraPresentation
    jet_vars: list
    relations: list

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


def cotruncation_subset_check(A, n, m):
    """Level-n jet relations must appear verbatim among the level-m ones
    (same relation, same order): d_0..d_n of each relation are the first
    n+1 of its level-m components; the co-truncation map is variable
    inclusion."""
    if m <= n:
        raise BadLevels("need m > n, got n=%d m=%d" % (n, m))
    for k, f in enumerate(A.relations):
        high = hs_components(f, m)
        for i, g in enumerate(hs_components(f, n)):
            if high[i] != g:
                return False, {"relation": k, "order": i,
                               "level_n": g.render(), "level_m": high[i].render()}
    return True, None


# ---------------------------------------------------------------------------
# morphisms


@dataclass
class AlgebraMorphism:
    """Map of presented algebras, given on generators.

    Validity (images of relations lying in the target ideal) is the
    caller's contract; everything built on morphisms here is a free
    polynomial identity.
    """

    source: object
    target: object
    images: dict  # JetVar (source generator) -> Poly over target generators

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


# ---------------------------------------------------------------------------
# functor commutation


def bigrade_commute_check(A, n, m):
    """Three-way generator-set comparison: jets-of-jets both ways (with the
    index-permutation renaming folded into variable construction) against
    the direct bivariate jet relations.  The nonzero generators are compared
    as multisets of polynomials, and rendered only for a failure report."""
    side_a = []  # level m first, then level n outside
    side_b = []  # level n first, then level m outside
    side_c = []
    for f in A.relations:
        for g in hs_components(f, m):
            side_a.extend(jet_again(g, n, outer_to="order1"))
        for g in hs_components(f, n):
            side_b.extend(jet_again(g, m, outer_to="order2"))
        for row in hs_components_2d(f, n, m):
            side_c.extend(row)
    sides = [Counter(p for p in side if p.terms) for side in (side_a, side_b, side_c)]
    ok = sides[0] == sides[1] == sides[2]
    report = {
        "ok": ok,
        "n": n,
        "m": m,
        "count": sides[2].total(),
        "sets": None if ok else {
            name: sorted(p.render() for p in side.elements())
            for name, side in zip(("n_after_m", "m_after_n", "bivariate"), sides)},
    }
    return ok, report
