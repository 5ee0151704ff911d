"""Print and parse are inverse on every document the constructors accept.

Documents are built through the public constructors, over Q and F_p, from
a small alphabet: names the DSL cannot write ('', 'x y', 'x_1', 'é', 1),
names it can although they are a keyword, a field or a module symbol
(ring, Q, F2, e1), and degrees and ranks that are not natural ints.  A
document the constructors accept prints to a text that parses back to an
equal document and reprints to itself; one they reject raises ValueError,
TypeError or JetforgeError at construction, never at print or parse.  This
is the round-trip property of Claessen and Hughes, "QuickCheck" (ICFP 2000).

The DSL writes a module over, and a morphism from, the document's own
algebra, and a morphism's target as its variables alone, so those are what
is drawn.  Two readings are expected: ideal names None read back as f0, f1,
..., and a grading of an algebra without variables, which no grade line
can state, reads back as None."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from jetforge import (QQ, AlgebraMorphism, AlgebraPresentation, InputDocument,  # noqa: E402
                      ModulePresentation, PrimeField)
from jetforge.dsl import parse_document, print_document  # noqa: E402
from jetforge.errors import JetforgeError  # noqa: E402
from jetforge.poly import Poly  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(7)]
COEFFICIENTS = [(1, 1), (-1, 1), (3, 1), (-3, 5)]  # 5 is a unit in F2 and F7


def _mostly(good, bad):
    """One of good, or now and then one of bad."""
    return st.sampled_from(good * 4 + bad)


NAME = _mostly(["x", "y", "u", "ring", "Q", "F2", "e1"], ["", "x y", "x_1", "é", 1])
DEGREE = _mostly([0, 1, 2], [-1, 2.5, True, "2"])
RANK = _mostly([0, 1, 2], [-1, True, 1.0])
# a polynomial as up to two terms (coefficient, exponents of the first three generators)
POLY = st.lists(st.tuples(st.sampled_from(COEFFICIENTS), st.tuples(*[st.integers(0, 2)] * 3)),
                max_size=2)
# a document as the arguments of its constructors; None: no grading, module or morphism
RECIPE = st.tuples(
    st.sampled_from(FIELDS),
    st.lists(NAME, max_size=3, unique=True),  # ring variables
    st.lists(POLY, max_size=2),  # relations
    st.none() | st.tuples(st.lists(DEGREE, min_size=3, max_size=3), st.none() | NAME),
    st.none() | st.lists(NAME, min_size=2, max_size=2),  # ideal names, one per relation
    st.none() | st.tuples(RANK, st.lists(st.lists(POLY, min_size=2, max_size=2), max_size=2)),
    st.none() | st.tuples(st.lists(NAME, max_size=2), st.lists(POLY, min_size=3, max_size=3),
                          st.none() | st.integers(0, 2)))  # target, images, one left out


def _poly(terms, gens, field):
    f = Poly.zero(field)
    for (num, den), exponents in terms:
        term = Poly.constant(field.from_ratio(num, den), field)
        for g, e in zip(gens, exponents):
            term = term * Poly.var(g, field) ** e
        f = f + term
    return f


def _document(field, names, relations, grading, ideal_names, module, morphism):
    """The InputDocument of a recipe, built through the constructors, each of
    which may raise; a grading's degrees go to the variables in order, with
    one more variable's degree, 1, if it names one."""
    gens = AlgebraPresentation(names, [], None, field).generators
    relations = [_poly(f, gens, field) for f in relations]
    if grading is not None:
        degrees, extra = grading
        grading = dict(zip(names, degrees))
        if extra is not None:
            grading.setdefault(extra, 1)
    algebra = AlgebraPresentation(names, relations, grading, field)
    if ideal_names is not None:
        ideal_names = ideal_names[:len(relations)]
    if module is not None:
        rank, rows = module
        width = rank if type(rank) is int and rank >= 0 else 2
        module = ModulePresentation(algebra, rank,
                                    [[_poly(p, gens, field) for p in row[:width]] for row in rows])
    if morphism is not None:
        target_names, images, left_out = morphism
        target = AlgebraPresentation(target_names, [], None, field)
        morphism = AlgebraMorphism(algebra, target, {
            v: _poly(p, target.generators, field)
            for k, (v, p) in enumerate(zip(gens, images)) if k != left_out})
    return InputDocument(algebra, ideal_names, module, morphism)


def _as_read(doc):
    """doc as parse_document reads its text back: ideal names None become
    f0, f1, ..., and the grading of an algebra without variables None."""
    A = doc.algebra
    if not A.vars and A.grading is not None:
        A = AlgebraPresentation([], A.relations, None, A.field)
    names = doc.ideal_names
    if names is None:
        names = ["f%d" % k for k in range(len(A.relations))]
    module = doc.module and ModulePresentation(A, doc.module.rank, doc.module.relation_matrix)
    morphism = doc.morphism and AlgebraMorphism(A, doc.morphism.target, doc.morphism.images)
    return InputDocument(A, names, module, morphism)


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@given(RECIPE)
def test_accepted_documents_round_trip(recipe):
    try:
        doc = _document(*recipe)
    except (ValueError, TypeError, JetforgeError):
        return  # rejected at construction, before any print or parse
    text = print_document(doc)
    read = parse_document(text)
    assert read == _as_read(doc), text
    assert print_document(read) == text
