"""Rendering and tokenizing against the references in oracles.py.

Seeded random polynomials over Q and three prime fields must render byte
for byte as the reference renderer renders them, with and without
base_plain; seeded random lines must tokenize, or fail, as the reference
tokenizer does.  A variable's rendered text is fixed when it is interned,
so it must also survive pickle, copy and deepcopy, and a fresh process."""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetforge.dsl import _tokenize
from jetforge.errors import ParseError
from jetforge.poly import UNIT, JetVar, Monomial, Poly
from jetforge.scalars import QQ, PrimeField
from oracles import (reference_monomial_render, reference_poly_render, reference_tokenize,
                     reference_var_render)

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2147483647)]
# univariate variables of orders 0..3 and bivariate ones, names of one or more letters
VARIABLES = ([JetVar(name, i, k) for i, name in enumerate(["x", "y", "zeta"]) for k in range(4)]
             + [JetVar(name, i, k, l) for i, name in enumerate(["x", "w"])
                for k in range(3) for l in range(3)])
HUGE = 10**4400 + 7  # longer than int's default string limit of 4300 digits


def _coefficient(rng, field):
    kind = rng.random()
    if kind < 0.05:
        c = rng.choice([HUGE, -HUGE, Fraction(HUGE, 3), Fraction(-1, HUGE)])
    elif kind < 0.3:
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    else:
        c = rng.choice([1, -1, rng.randint(-10**12, 10**12)])
    if field is QQ:
        return c
    c = Fraction(c)
    # over F_p a denominator divisible by p keeps only its numerator
    return field.from_ratio(c.numerator, c.denominator if field(c.denominator) else 1)


def _monomial(rng):
    return Monomial({v: rng.randint(1, 4) for v in rng.sample(VARIABLES, rng.randint(0, 4))})


def _poly(rng, field):
    return Poly(field, {_monomial(rng): _coefficient(rng, field)
                        for _ in range(rng.choice([0, 1, 1, 2, 3, 6]))})


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_render_matches_reference(field):
    rng = random.Random("render:%s" % field.name)
    seen_negative_lead = seen_single = seen_huge = False
    for _ in range(400):
        f = _poly(rng, field)
        for base_plain in (False, True):
            assert f.render(base_plain) == reference_poly_render(f, base_plain)
            for m in f.terms:
                assert m.render(base_plain) == reference_monomial_render(m, base_plain)
        text = f.render()
        seen_negative_lead |= text.startswith("-")
        seen_single |= len(f.terms) == 1
        seen_huge |= len(text) > 4300
    assert seen_single and (seen_negative_lead or field is not QQ)
    assert seen_huge or field is not QQ
    for v in VARIABLES:
        for base_plain in (False, True):
            assert v.render(base_plain) == reference_var_render(v, base_plain)
        assert str(v) == "%s" % v == reference_var_render(v)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_render_edge_cases(field):
    x0, x1, b = JetVar("x", 0, 0), JetVar("x", 0, 1), JetVar("x", 0, 1, 2)
    cases = [
        Poly.zero(field),
        Poly.constant(1, field),
        Poly.constant(-3, field),  # a unit monomial alone, negative over Q
        Poly(field, {UNIT: 5, Monomial({x0: 1}): -1}),  # a negative leading term
        Poly(field, {Monomial({x0: 2, b: 1}): 1, Monomial({x1: 3}): -2}),
        Poly(field, {Monomial({b: 1}): 1}),
        Poly(field, {Monomial({x0: 1}): HUGE, UNIT: -HUGE}),
    ]
    for f in cases:
        for base_plain in (False, True):
            assert f.render(base_plain) == reference_poly_render(f, base_plain)
    if field is QQ:
        assert cases[3].render(base_plain=True) == "-x + 5"
        assert cases[4].render() == "x_0^2*x_1_2 - 2*x_1^3"
        assert cases[6].render() == "%s*x_0 - %s" % (QQ.render(HUGE), QQ.render(HUGE))


# characters the tokenizer must take apart: the token alphabet, whitespace,
# characters outside it, and non-ASCII digits, which are unexpected characters
ALPHABET = (list("xyzQF0123456789+-*/^(),[]:=>") + ["->", " ", " ", "\t", " "]
            + list("$_.;é٣２"))


def test_tokenize_matches_reference():
    rng = random.Random("tokenize")
    errors = 0
    for _ in range(3000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 30)))
        try:
            want = reference_tokenize(text, 4)
        except ParseError as e:
            with pytest.raises(ParseError) as ei:
                _tokenize(text, 4)
            assert str(ei.value) == str(e)
            errors += 1
        else:
            assert _tokenize(text, 4) == want, text
    assert 100 < errors < 2900


def test_rendered_text_survives_pickle_and_copies():
    variables = [JetVar("x", 0, 0), JetVar("qq", 3, 2), JetVar("w", 1, 2, 3)]
    for v in variables:
        for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert w is v
            assert (w.render(), w.render(True)) == (reference_var_render(v),
                                                     reference_var_render(v, True))
    f = Poly(QQ, {Monomial({v: 2 for v in variables}): Fraction(-5, 3), UNIT: 1})
    # a fresh interpreter interns the variables anew while unpickling the terms
    script = ("import pickle, sys; from jetforge.poly import Poly; from jetforge.scalars import QQ; "
              "f = Poly(QQ, pickle.loads(sys.stdin.buffer.read())); "
              "print(f.render()); print(f.render(base_plain=True))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(f.terms), env=env,
                         capture_output=True, check=True).stdout.decode()
    assert out == "%s\n%s\n" % (reference_poly_render(f), reference_poly_render(f, True))
