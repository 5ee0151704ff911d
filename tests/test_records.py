"""The ten record classes are plain classes on one small base: each keeps
the signature, defaults, validation (same errors, same order), mutability,
field-wise equality, unhashability and repr of the dataclass it replaced."""

import inspect

import pytest

from jetforge.checks import SUITE_NAMES, CheckConfig, CheckReport, SuiteResult
from jetforge.dsl import InputDocument, parse_document
from jetforge.errors import InhomogeneousRelation, JetforgeError, MissingGrading, UnknownSuite
from jetforge.hsmodules import ModulePresentation, TwistedMatrix
from jetforge.jets import (AlgebraMorphism, AlgebraPresentation, BiJetPresentation,
                           JetPresentation, bijet_presentation, jet_presentation)
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField

X = Poly.var(JetVar("x", 0, 0))
Y = Poly.var(JetVar("y", 1, 0))


def cusp():
    return AlgebraPresentation(["x", "y"], [Y ** 2 - X ** 3])


def instances():
    """Two equal, separately built instances of each class, and a factory
    for a third that differs from them in its last field."""
    A = cusp()
    doc = "ring Q[x,y]\nideal f = y^2 - x^3\nmodule rank 1\nrelation x*e1\n"
    return {
        AlgebraPresentation: (cusp, lambda: AlgebraPresentation(["x", "y"], [Y ** 2 - X ** 3],
                                                                None, PrimeField(7))),
        JetPresentation: (lambda: jet_presentation(A, 1),
                          lambda: JetPresentation(1, A, jet_presentation(A, 2).jet_vars)),
        BiJetPresentation: (lambda: bijet_presentation(A, 1, 1),
                            lambda: BiJetPresentation((1, 1), A,
                                                      bijet_presentation(A, 1, 1).jet_vars, [])),
        AlgebraMorphism: (lambda: AlgebraMorphism.identity(A),
                          lambda: AlgebraMorphism(A, A, {})),
        TwistedMatrix: (lambda: TwistedMatrix(1, [[X, Y], [Poly.zero(), X]]),
                        lambda: TwistedMatrix(1, [[X, Y], [Poly.zero(), Y]])),
        ModulePresentation: (lambda: ModulePresentation(A, 2, [[X, Y]]),
                             lambda: ModulePresentation(A, 2, [[Y, X]])),
        InputDocument: (lambda: parse_document(doc),
                        lambda: InputDocument(QQ, cusp(), ["f"],
                                              ModulePresentation(A, 1, [[X]]), object())),
        CheckConfig: (lambda: CheckConfig(7, 3, ["leibniz"]),
                      lambda: CheckConfig(7, 3, ["zigzag"])),
        SuiteResult: (lambda: SuiteResult("leibniz", 2, [{"trial": 0}], 0.5, 1, 0),
                      lambda: SuiteResult("leibniz", 2, [{"trial": 0}], 0.5, 1, 1)),
        CheckReport: (lambda: CheckReport(CheckConfig(), {"leibniz": SuiteResult("leibniz")}),
                      lambda: CheckReport(CheckConfig(), {})),
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
    last = SIGNATURES[cls][-1]
    setattr(a, last, getattr(c, last))
    assert a == c


SIGNATURES = {
    AlgebraPresentation: ["vars", "relations", "grading", "field"],
    JetPresentation: ["level", "source", "jet_vars"],
    BiJetPresentation: ["levels", "source", "jet_vars", "relations"],
    AlgebraMorphism: ["source", "target", "images"],
    TwistedMatrix: ["level", "entries"],
    ModulePresentation: ["over", "rank", "relation_matrix"],
    InputDocument: ["field", "algebra", "ideal_names", "module", "morphism"],
    CheckConfig: ["seed", "trials", "suites"],
    SuiteResult: ["name", "trials", "failures", "seconds", "oracle_trials",
                  "oracle_disagreements"],
    CheckReport: ["config", "suites"],
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
    assert repr(SuiteResult("leibniz")) == (
        "SuiteResult(name='leibniz', trials=0, failures=[], seconds=0.0, oracle_trials=0, "
        "oracle_disagreements=0)")
    assert repr(TwistedMatrix(0, [])) == "TwistedMatrix(level=0, entries=[])"


def test_defaults():
    A = AlgebraPresentation(["x"], [])
    assert (A.grading, A.field) == (None, QQ)
    doc = InputDocument(QQ, A, [])
    assert (doc.module, doc.morphism) == (None, None)
    config = CheckConfig()
    assert (config.seed, config.trials, config.suites) == (42, 100, SUITE_NAMES)
    assert CheckConfig(suites=["zigzag", "leibniz"]).suites == ("zigzag", "leibniz")
    r1, r2 = SuiteResult("a"), SuiteResult("b")
    assert (r1.trials, r1.failures, r1.seconds, r1.oracle_trials,
            r1.oracle_disagreements) == (0, [], 0.0, 0, 0)
    assert r1.failures is not r2.failures  # a fresh list each, as default_factory=list gave
    rep1, rep2 = CheckReport(config), CheckReport(config)
    assert rep1.suites == {} and rep1.suites is not rep2.suites


def test_jet_presentation_equality_ignores_the_cached_relations():
    A = cusp()
    read, fresh = jet_presentation(A, 2), jet_presentation(A, 2)
    assert "relations" not in vars(read)
    assert len(read.relations) == 3 and "relations" in vars(read)
    assert "relations" not in vars(fresh)
    assert read == fresh
    assert read.field is A.field


def test_algebra_presentation_errors_in_order():
    with pytest.raises(JetforgeError, match="duplicate variable 'x'"):
        AlgebraPresentation(["x", "x"], [Poly.var(JetVar("z", 5, 0))], {})
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


def test_check_config_errors_in_order():
    with pytest.raises(ValueError, match="trials must be positive"):
        CheckConfig(trials=0, suites=("nosuch",))
    with pytest.raises(UnknownSuite, match="unknown suite: 'nosuch'"):
        CheckConfig(suites=("leibniz", "nosuch"))
    with pytest.raises(TypeError):
        CheckConfig(suites=5)
