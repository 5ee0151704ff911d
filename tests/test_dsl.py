import pytest

from jetforge.cli import main
from jetforge.dsl import parse_document, print_document
from jetforge.errors import (InhomogeneousRelation, ParseError,
                             UndeclaredVariable)
from jetforge.poly import JetVar, Poly
from jetforge.scalars import PrimeField


def test_parse_cusp():
    doc = parse_document("ring Q[x,y]\nideal f = y^2 - x^3\n")
    assert doc.algebra.vars == ["x", "y"]
    x = Poly.var(JetVar("x", 0, 0))
    y = Poly.var(JetVar("y", 1, 0))
    assert doc.algebra.relations == [y ** 2 - x ** 3]
    assert doc.ideal_names == ["f"]


def test_undeclared_variable_located():
    with pytest.raises(UndeclaredVariable) as ei:
        parse_document("ring Q[x,y]\nideal f = y^2 - z\n")
    assert "z" in str(ei.value) and "line 2" in str(ei.value)


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InhomogeneousRelation):
        parse_document("ring Q[x]\ngrade x = 1\nideal f = x^2 + x\n")


def test_lexical_error_located():
    with pytest.raises(ParseError) as ei:
        parse_document("ring Q[x]\nideal f = x $ 2\n")
    assert "line 2" in str(ei.value)


def test_prime_field_ring():
    doc = parse_document("ring F7[x]\nideal f = 3x^2 + 10\n")
    assert doc.field == PrimeField(7)
    f = doc.algebra.relations[0]
    assert f == Poly.var(JetVar("x", 0, 0), doc.field) ** 2 * 3 + Poly.constant(3, doc.field)


def test_module_and_morphism():
    doc = parse_document(
        "ring Q[x,y]\nideal f = y^2 - x^3\n"
        "module rank 2\nrelation x*e1 + y*e2\n"
        "morphism [u] : x -> u^2, y -> u^3\n")
    assert doc.module.rank == 2
    x = Poly.var(JetVar("x", 0, 0))
    y = Poly.var(JetVar("y", 1, 0))
    assert doc.module.relation_matrix == [[x, y]]
    u = Poly.var(JetVar("u", 0, 0))
    assert doc.morphism.images[JetVar("x", 0, 0)] == u ** 2
    assert doc.morphism.images[JetVar("y", 1, 0)] == u ** 3


def test_module_relation_must_be_linear():
    with pytest.raises(ParseError):
        parse_document("ring Q[x]\nmodule rank 1\nrelation e1^2\n")


@pytest.mark.parametrize("relation", ["e1^2", "e1*e2", "x", "x*e1 + 1"])
def test_nonlinear_module_relation_is_located(relation, tmp_path, capsys):
    doc = tmp_path / "bad.jf"
    doc.write_text("ring Q[x]\nmodule rank 2\nrelation x*e2\nrelation %s\n" % relation)
    assert main(["module", "--n", "1", str(doc)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "parse error: line 4, col 10: module relation must be linear in e1..e2\n"


@pytest.mark.parametrize("ideal", ["x^2", "e1^2 - x"])
def test_module_symbol_may_not_be_a_ring_variable(ideal, tmp_path, capsys):
    doc = tmp_path / "clash.jf"
    doc.write_text("ring Q[e1,x]\nideal f = %s\nmodule rank 1\nrelation x*e1\n" % ideal)
    assert main(["sym", str(doc)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "parse error: line 3, col 13: module symbol 'e1' is also a ring variable\n"
    # without the module, and with a symbol the ring does not name, the ring parses
    assert parse_document("ring Q[e1,x]\nideal f = %s\n" % ideal).algebra.vars == ["e1", "x"]
    assert parse_document("ring Q[e2,x]\nmodule rank 1\nrelation e2*e1\n").module.rank == 1


def test_leading_plus():
    plain = parse_document("ring Q[x,y]\nideal f = x - y\n")
    assert parse_document("ring Q[x,y]\nideal f = +x - y\n") == plain
    assert parse_document("ring Q[x,y]\nideal f = (+x) - (+y)\n") == plain
    with pytest.raises(ParseError) as ei:
        parse_document("ring Q[x]\nideal f = +-x\n")
    assert (ei.value.line, ei.value.column) == (2, 12)
    assert "unexpected token '-'" in str(ei.value)


def test_rational_coefficients_and_juxtaposition():
    doc = parse_document("ring Q[x,y]\nideal f = 1/2 x y - 3/4\n")
    f = doc.algebra.relations[0]
    assert f.render(base_plain=True) == "1/2*x*y - 3/4"


def test_round_trip():
    texts = [
        "ring Q[x,y]\nideal f = y^2 - x^3\n",
        "ring Q[x,y]\ngrade x = 2\ngrade y = 3\nideal f = y^2 - x^3\n",
        "ring F5[x]\nideal f = x^3 + 2\n",
        "ring Q[x,y]\nideal f = y^2 - x^3\nmodule rank 2\nrelation x*e1 + y*e2\n"
        "morphism [u,v] : x -> u*v, y -> u^2 - v\n",
        "ring Q[x]\nmodule rank 0\n",
    ]
    for text in texts:
        doc1 = parse_document(text)
        printed = print_document(doc1)
        doc2 = parse_document(printed)
        assert doc2.algebra.vars == doc1.algebra.vars
        assert doc2.algebra.relations == doc1.algebra.relations
        assert doc2.algebra.grading == doc1.algebra.grading
        assert (doc2.module is None) == (doc1.module is None)
        if doc1.module:
            assert doc2.module.rank == doc1.module.rank
            assert doc2.module.relation_matrix == doc1.module.relation_matrix
        if doc1.morphism:
            assert doc2.morphism.images == doc1.morphism.images
        # printing is idempotent
        assert print_document(doc2) == printed


def test_missing_ring_rejected():
    with pytest.raises(ParseError):
        parse_document("ideal f = x\n")


def test_comments_and_blank_lines():
    doc = parse_document("# cusp\nring Q[x,y]\n\nideal f = y^2 - x^3  # relation\n")
    assert len(doc.algebra.relations) == 1


def test_duplicate_ring_variable_located():
    with pytest.raises(ParseError) as ei:
        parse_document("ring Q[x,x]\nideal f = x\n")
    assert (ei.value.line, ei.value.column) == (1, 10)
    assert "duplicate ring variable 'x'" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_document("# header\n  ring F7[ x , y,x ]\n")
    assert (ei.value.line, ei.value.column) == (2, 18)


def test_duplicate_morphism_target_located():
    with pytest.raises(ParseError) as ei:
        parse_document("ring Q[x]\nmorphism [u,u] : x -> u\n")
    assert (ei.value.line, ei.value.column) == (2, 13)
    assert "duplicate target variable 'u'" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_document("ring Q[x,y]\nmorphism [ u , v,u ] : x -> u, y -> v\n")
    assert (ei.value.line, ei.value.column) == (2, 18)


def test_expression_errors_carry_line_columns():
    # token columns count from the start of the line, not of the expression
    cases = [
        ("ring Q[x,y]\nideal f = y^2 - z\n", (2, 17)),
        ("ring Q[x]\nmodule rank 1\n relation  x*e1 + q*e1\n", (3, 19)),
        ("ring Q[x,y]\nmorphism [u] : x -> u^2, y -> u + w\n", (2, 35)),
        ("ring Q[x]\nideal f = 1/0*x\n", (2, 13)),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as ei:
            parse_document(text)
        assert (ei.value.line, ei.value.column) == where, text
