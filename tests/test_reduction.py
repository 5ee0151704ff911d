"""Reduction mod p commutes with every builder.

Every builder computes a polynomial identity over the integers: jet
components carry integer multinomials, Kaehler rows are derivatives, Sym
reads linear forms, and the jets of t^k carry integer binomials times
multinomials.  So building over Q and then reducing the coefficients mod p
gives what building over F_p gives, whenever p divides no denominator;
over F_p the terms whose integer factor vanishes mod p must drop out, and
no other term may.  The instances are seeded draws with integer
coefficients and rationals whose denominators are prime to p, and the two
builds are compared as Polys."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from jetforge.hsmodules import (ModulePresentation, hs_module_presentation,
                                kaehler_presentation, sym_presentation)
from jetforge.jets import (AlgebraMorphism, AlgebraPresentation, bijet_presentation,
                           induced_morphism, jet_presentation)
from jetforge.localized import LocalPoly
from jetforge.p1 import power_jets
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import QQ, PrimeField

PRIMES = (2, 3, 7, 2147483647)
TRIALS = 20


def reduce(p, field):
    """p over Q with each coefficient a/b reduced into field as a * b^-1."""
    return Poly(field, {m: field.from_ratio(*c.as_integer_ratio()) for m, c in p.terms.items()})


def draw_poly(rng, names, p, max_terms=4):
    """Up to max_terms terms of degree <= 3 in the base variables of names;
    a coefficient is an integer, or half the time a ratio whose
    denominator is prime to p."""
    gens = [JetVar(x, i, 0) for i, x in enumerate(names)]
    dens = [d for d in range(2, 10) if d % p]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(Counter(rng.choice(gens) for _ in range(rng.randint(0, 3))))
        den = rng.choice(dens) if rng.random() < 0.5 else 1
        terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-9, 9), den)
    return Poly(QQ, terms)


def draw_algebras(rng, p, field):
    """An algebra over Q and its reduction into field."""
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    relations = [draw_poly(rng, names, p) for _ in range(rng.randint(0, 2))]
    return (AlgebraPresentation(names, relations),
            AlgebraPresentation(names, [reduce(f, field) for f in relations], None, field))


def assert_reduces_to(over_q, over_p, field):
    assert [reduce(f, field) for f in over_q] == over_p


def assert_rows_reduce_to(rows_q, rows_p, field):
    assert len(rows_q) == len(rows_p)
    for row_q, row_p in zip(rows_q, rows_p):
        assert_reduces_to(row_q, row_p, field)


@pytest.fixture(params=PRIMES, ids=lambda p: "F%d" % p)
def prime(request):
    return request.param


def test_jet_and_kaehler_builders_commute_with_reduction(prime):
    field = PrimeField(prime)
    rng = random.Random("reduction:jets:%d" % prime)
    for _ in range(TRIALS):
        A, Ap = draw_algebras(rng, prime, field)
        n, m = rng.randint(0, 4), rng.randint(0, 2)
        jq, jp = jet_presentation(A, n), jet_presentation(Ap, n)
        assert jq.jet_vars == jp.jet_vars
        assert_reduces_to(jq.relations, jp.relations, field)
        bq, bp = bijet_presentation(A, m, n % 3), bijet_presentation(Ap, m, n % 3)
        assert bq.jet_vars == bp.jet_vars
        assert_reduces_to(bq.relations, bp.relations, field)
        for Pq, Pp in ((A, Ap), (jq, jp)):
            kq, kp = kaehler_presentation(Pq), kaehler_presentation(Pp)
            assert kq.rank == kp.rank
            assert_rows_reduce_to(kq.relation_matrix, kp.relation_matrix, field)


def test_module_builders_commute_with_reduction(prime):
    field = PrimeField(prime)
    rng = random.Random("reduction:modules:%d" % prime)
    for _ in range(TRIALS):
        A, Ap = draw_algebras(rng, prime, field)
        rank, n = rng.randint(1, 2), rng.randint(0, 3)
        rows = [[draw_poly(rng, A.vars, prime, max_terms=3) for _ in range(rank)]
                for _ in range(rng.randint(0, 2))]
        M = ModulePresentation(A, rank, rows)
        Mp = ModulePresentation(Ap, rank, [[reduce(f, field) for f in row] for row in rows])
        hq, hp = hs_module_presentation(M, n), hs_module_presentation(Mp, n)
        assert hq.rank == hp.rank
        assert_rows_reduce_to(hq.relation_matrix, hp.relation_matrix, field)
        sq, sp = sym_presentation(M), sym_presentation(Mp)
        assert (sq.vars, sq.grading, sp.field) == (sp.vars, sp.grading, field)
        assert_reduces_to(sq.relations, sp.relations, field)


def test_induced_morphism_commutes_with_reduction(prime):
    field = PrimeField(prime)
    rng = random.Random("reduction:morphism:%d" % prime)
    for _ in range(TRIALS):
        src, srcp = draw_algebras(rng, prime, field)
        targets = ["u", "v"][:rng.randint(1, 2)]
        images = {v: draw_poly(rng, targets, prime, max_terms=3) for v in src.base_vars()}
        phi = AlgebraMorphism(src, AlgebraPresentation(targets, []), images)
        phip = AlgebraMorphism(srcp, AlgebraPresentation(targets, [], None, field),
                               {v: reduce(f, field) for v, f in images.items()})
        n = rng.randint(0, 3)
        fq, fp = induced_morphism(phi, n).images, induced_morphism(phip, n).images
        assert list(fq) == list(fp)
        assert_reduces_to(fq.values(), list(fp.values()), field)


def test_power_jets_commute_with_reduction(prime):
    """The jets of t^k, negative k included, reduced and brought back to
    lowest terms, are the jets built over F_p: a multinomial that vanishes
    mod p can lower a coefficient's denominator."""
    field = PrimeField(prime)
    for k in range(-4, 5):
        for chart in (0, 1):
            for n in range(5):
                q, p = power_jets(k, chart, n).coeffs, power_jets(k, chart, n, field).coeffs
                u = q[0].unit_var
                reduced = [LocalPoly(reduce(c.numerator, field), u, c.denom_exp) for c in q]
                assert [(c.numerator, c.denom_exp) for c in reduced] == [
                    (c.numerator, c.denom_exp) for c in p]
