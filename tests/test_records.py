"""The five record classes are plain classes on one small base: each keeps
the signature, defaults, validation (same errors, same order), mutability,
field-wise equality, unhashability and repr of the dataclass it replaced.
The check report is a plain dict, and ``run_suite`` validates its seed,
trials and suites as the record that held them did."""

import inspect

import pytest

from jetforge.checks import run_suite
from jetforge.dsl import InputDocument, parse_document
from jetforge.errors import (FieldMismatch, InhomogeneousRelation, JetforgeError, MissingGrading,
                             UnknownSuite)
from jetforge.hsmodules import ModulePresentation
from jetforge.jets import AlgebraMorphism, AlgebraPresentation, JetPresentation, jet_presentation
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField

X = Poly.var(JetVar("x", 0, 0))
Y = Poly.var(JetVar("y", 1, 0))


def cusp():
    return AlgebraPresentation(["x", "y"], [Y ** 2 - X ** 3])


def instances():
    """Two equal, separately built instances of each class, and a factory
    for a third that differs from them in its last field; the algebra over
    F7 also differs in its relations, which must be over F7."""
    A = cusp()
    doc = "ring Q[x,y]\nideal f = y^2 - x^3\nmodule rank 1\nrelation x*e1\n"
    return {
        AlgebraPresentation: (cusp, lambda: AlgebraPresentation(
            ["x", "y"], [Poly(PrimeField(7), (Y ** 2 - X ** 3).terms)], None, PrimeField(7))),
        JetPresentation: (lambda: jet_presentation(A, 1, 1),
                          lambda: JetPresentation((1, 1), AlgebraPresentation(["x", "y"], []))),
        AlgebraMorphism: (lambda: AlgebraMorphism(A, A, {v: Poly.var(v) for v in A.generators}),
                          lambda: AlgebraMorphism(A, A, {})),
        ModulePresentation: (lambda: ModulePresentation(A, 2, [[X, Y]]),
                             lambda: ModulePresentation(A, 2, [[Y, X]])),
        InputDocument: (lambda: parse_document(doc),
                        lambda: InputDocument(cusp(), ["f"], ModulePresentation(A, 1, [[X]]),
                                              object())),
    }


CLASSES = list(instances())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_field_wise_equality_and_unhashable(cls):
    make, make_other = instances()[cls]
    a, b, c = make(), make(), make_other()
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a.__eq__(object()) is NotImplemented and a != object()
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_mutable(cls):
    make, make_other = instances()[cls]
    a, c = make(), make_other()
    for name in SIGNATURES[cls]:
        setattr(a, name, getattr(c, name))
    assert a == c


SIGNATURES = {
    AlgebraPresentation: ["vars", "relations", "grading", "field"],
    JetPresentation: ["levels", "source"],
    AlgebraMorphism: ["source", "target", "images"],
    ModulePresentation: ["over", "rank", "relation_matrix"],
    InputDocument: ["algebra", "ideal_names", "module", "morphism"],
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_signature_and_repr_follow_the_fields(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    a = instances()[cls][0]()
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, getattr(a, f)) for f in SIGNATURES[cls]))


def test_repr_reads_as_the_dataclass_repr():
    assert repr(ModulePresentation(AlgebraPresentation(["x"], []), 0, [])) == (
        "ModulePresentation(over=AlgebraPresentation(vars=['x'], relations=[], grading=None, "
        "field=QQ), rank=0, relation_matrix=[])")


def test_defaults():
    A = AlgebraPresentation(["x"], [])
    assert (A.grading, A.field) == (None, QQ)
    doc = InputDocument(A, [])
    assert (doc.module, doc.morphism) == (None, None)


def test_derived_fields_are_read_only():
    """A document's field is its algebra's, not a slot of its own."""
    doc = parse_document("ring F7[x]\n")
    assert doc.field is doc.algebra.field == PrimeField(7)
    with pytest.raises(AttributeError):
        doc.field = QQ


def test_jet_presentation_equality_ignores_the_cached_relations():
    A = cusp()
    read, fresh = jet_presentation(A, 2), jet_presentation(A, 2)
    assert "relations" not in vars(read)
    assert len(read.relations) == 3 and "relations" in vars(read)
    assert "relations" not in vars(fresh)
    assert read == fresh
    assert read.field is A.field
    assert read == JetPresentation((2,), A) != jet_presentation(A, 2, 0)


def test_algebra_presentation_errors_in_order():
    with pytest.raises(JetforgeError, match="duplicate variable 'x'"):
        AlgebraPresentation(["x", "x"], [Poly.var(JetVar("z", 5, 0))], {})
    with pytest.raises(FieldMismatch, match=r"relation over PrimeField\(7\), algebra over QQ"):
        AlgebraPresentation(["x"], [Poly.var(JetVar("x", 0, 0), PrimeField(7)) ** 2], {})
    with pytest.raises(ValueError, match="undeclared variable z"):
        AlgebraPresentation(["x"], [Poly.var(JetVar("z", 5, 0))], {})
    with pytest.raises(MissingGrading, match="no degree for y"):
        AlgebraPresentation(["x", "y"], [X + Y ** 2], {"x": 1})
    with pytest.raises(InhomogeneousRelation, match="not homogeneous"):
        AlgebraPresentation(["x", "y"], [X + Y ** 2], {"x": 1, "y": 1})
    assert AlgebraPresentation(["x", "y"], [X ** 2 + Y], {"x": 1, "y": 2}).grading == {
        "x": 1, "y": 2}


def test_module_presentation_row_length():
    with pytest.raises(ValueError, match="relation row length != rank"):
        ModulePresentation(cusp(), 2, [[X, Y], [X]])


U = Poly.var(JetVar("u", 0, 0))


@pytest.mark.parametrize("images, error, message", [
    # once built, and carried to the jets of a target over Q by induced_morphism
    ({JetVar("x", 0, 0): Poly.var(JetVar("w", 0, 0), PrimeField(7))},
     FieldMismatch, r"image over PrimeField\(7\), algebra over QQ"),
    ({JetVar("x", 0, 0): Poly.var(JetVar("w", 0, 0))}, ValueError, "image w_0 is not over u$"),
    ({JetVar("y", 1, 0): U}, ValueError, "image given for y_0, not a generator of the source"),
    ({JetVar("x", 0, 1): U}, ValueError, "image given for x_1, not a generator of the source"),
], ids=["field", "variable", "key", "jet key"])
def test_algebra_morphism_rejects_images_off_its_algebras(images, error, message):
    A, B = AlgebraPresentation(["x"], []), AlgebraPresentation(["u"], [])
    with pytest.raises(error, match=message):
        AlgebraMorphism(A, B, images)


def test_algebra_morphism_rejects_a_target_over_another_field():
    """Checked first, so even a morphism without images is rejected."""
    B = AlgebraPresentation(["u"], [], None, PrimeField(7))
    with pytest.raises(FieldMismatch, match=r"target over PrimeField\(7\), source over QQ"):
        AlgebraMorphism(AlgebraPresentation(["x"], []), B, {})


def test_check_config_errors_in_order():
    """run_suite checks its arguments before it runs a trial: trials first,
    then each suite name; suites must be iterable."""
    with pytest.raises(ValueError, match="trials must be positive"):
        run_suite(trials=0, suites=("nosuch",))
    with pytest.raises(UnknownSuite, match="unknown suite: 'nosuch'"):
        run_suite(suites=("leibniz", "nosuch"))
    with pytest.raises(TypeError):
        run_suite(suites=5)
