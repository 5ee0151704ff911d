"""Hasse-Schmidt modules via twisted-action matrices.

The dual of the free rank-(n+1) module over the level-n jet algebra
carries an action of the base algebra given by a . e^(i) =
sum_{j<=i} a^(i-j) e^(j); the matrix of that action is upper triangular
and Toeplitz, with entries the jet components of a.  So the jet list
``hs_components(a, n)`` is the twisted action of a, and the product of two
is the convolution of their jets (``poly.convolve``).  Hasse-Schmidt
modules of a cokernel presentation are block matrices of those twisted
actions, and the cotangent module of a jet algebra is exactly the
Hasse-Schmidt module of the base cotangent module, through the identity
d(d_i f)/d x^(j) = d_{i-j}(df/dx).  The theorem checks on these
constructions are in ``checks``.

Base, Kaehler and Hasse-Schmidt modules are all one ModulePresentation,
whose constructor checks each row entry against ``over.generators``; the
builders here make valid rows and skip those checks with ``_built``.
Indices follow from position: in a level-n Hasse-Schmidt module, row r is
relation k at order i and basis vector c is e_l at order j, with (k, i) =
divmod(r, n+1) and (l, j) = divmod(c, n+1).  ``upper_triangle`` is the one
layout of a twisted action, used only where a matrix is built or shown:
the Hasse-Schmidt module's blocks, and the transition matrices of the jet
bundles on P^1 in ``p1``.
"""

from .jets import (AlgebraPresentation, _Record, _check_levels, _check_over, hs_components,
                   jet_presentation)
from .poly import JetVar, Poly, _monomial, _poly


def upper_triangle(comps, zero):
    """Rows of the square matrix with comps[i - j] at row j, column i and
    zero below the diagonal: the layout of a . e^(i) = sum_{j<=i} a^(i-j) e^(j)."""
    size = len(comps)
    return [[zero] * j + list(comps[:size - j]) for j in range(size)]


def _check_rank(rank):
    """Raise unless rank is an int (not a bool), and not negative."""
    if type(rank) is not int:
        raise TypeError("a rank is an int, not %r" % (rank,))
    if rank < 0:
        raise ValueError("negative rank %d" % rank)


class ModulePresentation(_Record):
    """Cokernel of a relation matrix over an algebra or a jet presentation:
    row k is the relation sum_c p_kc e_c, each p_kc over ``over``."""

    _fields = ("over", "rank", "relation_matrix")

    def __init__(self, over, rank, relation_matrix):
        self.over = over  # AlgebraPresentation or JetPresentation
        self.rank = rank
        self.relation_matrix = relation_matrix  # s rows, each of length rank
        _check_rank(rank)
        declared = set(over.generators)
        for row in relation_matrix:
            if len(row) != rank:
                raise ValueError("relation row length != rank")
            for p in row:
                _check_over(p, over, declared, "module row entry")

    @property
    def field(self):
        return self.over.field


def hs_module_presentation(M, n):
    """Level-n Hasse-Schmidt module of M, over the level-n jet presentation.

    Position rule: row r is (k, i) = divmod(r, n+1), basis vector c is
    (l, j) = divmod(c, n+1); entry (r, c) is d_{i-j}(p_kl), zero for j > i,
    i.e. column i of the twisted matrices of row k, block by block."""
    zero = Poly.zero(M.field)
    rows = []
    for relation in M.relation_matrix:
        blocks = [upper_triangle(hs_components(p, n), zero) for p in relation]
        for i in range(n + 1):
            rows.append([entries[j][i] for entries in blocks for j in range(n + 1)])
    return ModulePresentation._built(jet_presentation(M.over, n), M.rank * (n + 1), rows)


# ---------------------------------------------------------------------------
# Kaehler differentials


def kaehler_presentation(P):
    """Module of differentials of P: basis d(generator), in the order of
    P.generators; relations the Jacobian rows."""
    gens = P.generators
    return ModulePresentation._built(P, len(gens), [f.gradient(gens) for f in P.relations])


# ---------------------------------------------------------------------------
# symmetric algebra bridge


def module_symbols(A, rank, n):
    """The jets e_l^(j) of the module symbols e1..e_rank over the algebra A,
    l-major as in the Hasse-Schmidt basis (l, j), j <= n; symbol l has
    variable index len(A.vars) + l, after the base variables."""
    _check_levels((n,))
    _check_rank(rank)
    return [JetVar("e%d" % (l + 1), len(A.vars) + l, j) for l in range(rank) for j in range(n + 1)]


def linear_form(p, symbols):
    """The coefficients of p as a linear form in symbols, one Poly each, or
    None if some term is not a symbol-free monomial times one symbol."""
    position = {v: k for k, v in enumerate(symbols)}
    coeffs = [{} for _ in symbols]
    for m, c in p.terms.items():
        hits = [(v, e) for v, e in m if v in position]
        if len(hits) != 1 or hits[0][1] != 1:
            return None
        v = hits[0][0]
        # distinct terms stay distinct once their one symbol is divided out
        coeffs[position[v]][m.divide_by_var(v)] = c
    return [_poly(p.field, d) for d in coeffs]


def _sym_relations(M, symbols):
    """The relations of Sym M, symbols[c] standing for basis vector c: those
    of M.over, then sum_c row[c] * symbols[c] for each row, the inverse of
    ``linear_form``.  The symbols are distinct and sort after every
    variable of a row, so each term is its monomial with one symbol
    appended, and no two collide."""
    return list(M.over.relations) + [
        _poly(M.field, {_monomial(m + ((e, 1),)): c
                        for p, e in zip(row, symbols) for m, c in p.terms.items()})
        for row in M.relation_matrix]


def sym_presentation(M):
    """Sym of a presented module: adjoin degree-1 symbols e_1..e_r, keep the
    base relations in degree 0, add the module rows as degree-1 relations."""
    A = M.over
    symbols = module_symbols(A, M.rank, 0)
    names = list(A.vars) + [e.name for e in symbols]
    grading = {x: 0 for x in A.vars}
    grading.update({e.name: 1 for e in symbols})
    return AlgebraPresentation(names, _sym_relations(M, symbols), grading, A.field)
