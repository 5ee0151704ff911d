"""Hasse-Schmidt modules via twisted-action matrices.

The dual of the free rank-(n+1) module over the level-n jet algebra
carries an action of the base algebra given by a . e^(i) =
sum_{j<=i} a^(i-j) e^(j); the matrix of that action is upper triangular
with entries the jet components of a.  Hasse-Schmidt modules of a
cokernel presentation are block matrices of those twisted actions, and
the cotangent module of a jet algebra is exactly the Hasse-Schmidt
module of the base cotangent module (checked entrywise through the
identity  d(d_i f)/d x^(j) = d_{i-j}(df/dx)).

Base, Kaehler and Hasse-Schmidt modules are all one ModulePresentation.
Indices follow from position: in a level-n Hasse-Schmidt module, row r
is relation k at order i and basis vector c is e_l at order j, with
(k, i) = divmod(r, n+1) and (l, j) = divmod(c, n+1).  ``upper_triangle``
is the one layout of a twisted matrix; ``p1`` lays out the transition
matrices of the jet bundles on P^1 with it too.
"""

from collections import Counter

from .jets import (AlgebraPresentation, JetPresentation, _Record, hs_components,
                   induced_morphism, jet_presentation)
from .poly import JetVar, Poly, _poly
from .scalars import QQ


class TwistedMatrix(_Record):
    """(n+1) x (n+1) upper-triangular matrix, entry (row j, col i) = d_{i-j}(p)."""

    _fields = ("level", "entries")

    def __init__(self, level, entries):
        self.level = level
        self.entries = entries  # rows of Poly

    def matmul(self, other):
        """The matrix product; a product with a zero entry is skipped."""
        n = self.level
        zero = _poly(self.entries[0][0].field, {})
        columns = list(zip(*other.entries))
        rows = []
        for left in self.entries:
            row = []
            for column in columns:
                products = [a * b for a, b in zip(left, column) if a.terms and b.terms]
                row.append(sum(products[1:], products[0]) if products else zero)
            rows.append(row)
        return TwistedMatrix(n, rows)


def upper_triangle(comps, zero):
    """Rows of the square matrix with comps[i - j] at row j, column i and
    zero below the diagonal: the layout of a . e^(i) = sum_{j<=i} a^(i-j) e^(j)."""
    size = len(comps)
    return [[zero] * j + list(comps[:size - j]) for j in range(size)]


def twisted_action_matrix(p, n):
    return TwistedMatrix(n, upper_triangle(hs_components(p, n), Poly.zero(p.field)))


class ModulePresentation(_Record):
    """Cokernel of a relation matrix over an algebra or a jet presentation:
    row k is the relation sum_c p_kc e_c."""

    _fields = ("over", "rank", "relation_matrix")

    def __init__(self, over, rank, relation_matrix):
        self.over = over  # AlgebraPresentation or JetPresentation
        self.rank = rank
        self.relation_matrix = relation_matrix  # s rows, each of length rank
        for row in self.relation_matrix:
            if len(row) != self.rank:
                raise ValueError("relation row length != rank")

    @property
    def field(self):
        return self.over.field


def hs_module_presentation(M, n):
    """Level-n Hasse-Schmidt module of M, over the level-n jet presentation.

    Position rule: row r is (k, i) = divmod(r, n+1), basis vector c is
    (l, j) = divmod(c, n+1); entry (r, c) is d_{i-j}(p_kl), zero for j > i,
    i.e. column i of the twisted matrices of row k, block by block."""
    rows = []
    for relation in M.relation_matrix:
        blocks = [twisted_action_matrix(p, n).entries for p in relation]
        for i in range(n + 1):
            rows.append([entries[j][i] for entries in blocks for j in range(n + 1)])
    return ModulePresentation(jet_presentation(M.over, n), M.rank * (n + 1), rows)


def delta_apply(a, l, i, M, n):
    """Expand a . (e_l (x) t^[i]) over the basis (l, j), j <= i: column i of
    the twisted matrix of a, in block l."""
    if not (0 <= l < M.rank and 0 <= i <= n):
        raise IndexError("basis index out of range: (%d, %d)" % (l, i))
    column = [row[i] for row in twisted_action_matrix(a, n).entries]
    zero = Poly.zero(M.field)
    return [zero] * (l * (n + 1)) + column + [zero] * ((M.rank - 1 - l) * (n + 1))


# ---------------------------------------------------------------------------
# Kaehler differentials


def kaehler_presentation(P):
    """Module of differentials of P: basis d(generator), in the order of
    P.jet_vars or P.base_vars(); relations the Jacobian rows."""
    gens = P.jet_vars if isinstance(P, JetPresentation) else P.base_vars()
    rows = [f.gradient(gens) for f in P.relations]
    return ModulePresentation(P, len(gens), rows)


def cotangent_theorem_check(A, n):
    """Omega of the level-n jet algebra against the level-n Hasse-Schmidt
    module of Omega_A, entrywise; a mismatch is labelled by its row (k, i)
    and column (l, j)."""
    jet_jac = kaehler_presentation(jet_presentation(A, n))
    block = hs_module_presentation(kaehler_presentation(A), n)
    if len(jet_jac.relation_matrix) != len(block.relation_matrix):
        return False, {"ok": False, "reason": "row count mismatch"}
    mismatches = []
    for r, (row1, row2) in enumerate(zip(jet_jac.relation_matrix, block.relation_matrix)):
        for c, (p1, p2) in enumerate(zip(row1, row2)):
            if p1 != p2:
                mismatches.append({"row": divmod(r, n + 1), "col": divmod(c, n + 1),
                                   "jet_jacobian": p1.render(), "block": p2.render()})
    ok = not mismatches
    return ok, {"ok": ok, "rows": len(block.relation_matrix), "cols": block.rank,
                "mismatches": mismatches}


# ---------------------------------------------------------------------------
# symmetric algebra bridge


def module_symbols(first_index, rank, n):
    """The jets e_l^(j) of the module symbols e1..e_rank, l-major as in the
    Hasse-Schmidt basis (l, j), j <= n; symbol l has variable index
    first_index + l, after the base variables."""
    return [JetVar("e%d" % (l + 1), first_index + l, j) for l in range(rank)
            for j in range(n + 1)]


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


def sym_presentation(M):
    """Sym of a presented module: adjoin degree-1 symbols e_1..e_r, keep the
    base relations in degree 0, add the module rows as degree-1 relations."""
    A = M.over
    symbols = module_symbols(len(A.vars), M.rank, 0)
    names = list(A.vars) + [e.name for e in symbols]
    grading = {x: 0 for x in A.vars}
    grading.update({e.name: 1 for e in symbols})
    relations = list(A.relations)
    for row in M.relation_matrix:
        rel = Poly.zero(A.field)
        for p, e in zip(row, symbols):
            rel = rel + p * Poly.var(e, A.field)
        relations.append(rel)
    return AlgebraPresentation(names, relations, grading, A.field)


def sym_theorem_check(M, n):
    """Jets of Sym(M) split by induced degree: degree-0 relations must be the
    jet relations of the base algebra, degree-1 relations the rows of the
    Hasse-Schmidt module presentation."""
    sym = sym_presentation(M)
    sp = jet_presentation(sym, n)
    hsm = hs_module_presentation(M, n)

    deg0 = []
    deg1 = []
    for g in sp.relations:
        if g.is_zero():
            continue
        d = sym.homogeneous_degree(g)
        # jets of homogeneous relations stay homogeneous for the induced grading
        if d is None:
            return False, {"ok": False, "stage": "degree1",
                           "reason": "not homogeneous", "relation": g.render()}
        (deg0 if d == 0 else deg1).append(g)

    want0 = Counter(g for g in hsm.over.relations if not g.is_zero())
    if want0 != Counter(deg0):
        return False, {"ok": False, "stage": "degree0",
                       "want": sorted(g.render() for g in want0.elements()),
                       "got": sorted(g.render() for g in deg0)}

    # each degree-1 relation is a linear form in the e_l^(j), basis vector (l, j) of hsm
    symbols = module_symbols(len(M.over.vars), M.rank, n)
    rows_got = []
    for g in deg1:
        row = linear_form(g, symbols)
        if row is None:
            return False, {"ok": False, "stage": "degree1",
                           "reason": "not linear in module symbols", "relation": g.render()}
        rows_got.append(tuple(row))
    # zero rows generate nothing; drop them on both sides
    rows_want = [tuple(row) for row in hsm.relation_matrix if any(p.terms for p in row)]
    rows_got = [row for row in rows_got if any(p.terms for p in row)]
    ok = Counter(rows_got) == Counter(rows_want)
    report = {"ok": ok, "degree1_rows": len(rows_got)}
    if not ok:
        for key, rows in (("want", rows_want), ("got", rows_got)):
            report[key] = sorted(tuple(p.render() for p in row) for row in rows)
    return ok, report


# ---------------------------------------------------------------------------
# base change and duality


def base_change_check(phi, M, n):
    """f_n applied entrywise to the Hasse-Schmidt presentation of M equals the
    Hasse-Schmidt presentation of the pushed-forward module."""
    fn = induced_morphism(phi, n)
    left = hs_module_presentation(M, n)
    pushed = ModulePresentation(phi.target, M.rank,
                                [[phi.apply(p) for p in row] for row in M.relation_matrix])
    right = hs_module_presentation(pushed, n)
    for row1, row2 in zip(left.relation_matrix, right.relation_matrix):
        for p1, p2 in zip(row1, row2):
            if fn.apply(p1) != p2:
                return False
    return True


def free_dual_zigzag_check(n):
    """Coevaluation 1 -> sum t^[i] (x) t^i against the Kronecker evaluation
    t^i (x) t^[j] -> delta_ij: both triangle composites must be the identity
    on the free rank-(n+1) pair, over Q."""
    ident = [[QQ.one if a == b else QQ.zero for b in range(n + 1)] for a in range(n + 1)]
    # eta as a matrix: component (a, b) of the tensor sum_i delta_ia delta_ib;
    # theta(t^a, t^[b]) = delta_ab
    eta = theta = ident
    # composite on the dual side: e^[j] -> sum_i t^[i] (x) t^i (x) e^[j]
    #                                   -> sum_i t^[i] theta(t^i, e^[j])
    comp1 = [[sum(eta[i][a] * theta[a][j] for a in range(n + 1))
              for j in range(n + 1)] for i in range(n + 1)]
    # composite on the module side: t^a -> t^a (x) sum_i t^[i] (x) t^i
    #                                   -> sum_i theta(t^a, t^[i]) t^i
    comp2 = [[sum(theta[a][i] * eta[i][b] for i in range(n + 1))
              for b in range(n + 1)] for a in range(n + 1)]
    return comp1 == ident and comp2 == ident
