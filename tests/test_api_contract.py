"""The contract of the public library API at its boundary, as one table.

Each row is a bad call, a call of the same entry with good arguments, and
the exception the bad call must raise.  Levels and jet orders key caches
(the grade boxes, families and row tables of the jet engine, and the JetVar
table), where 2.0 and True would find the entries of 2 and 1; so a row that
names a good call runs its bad call both in a fresh interpreter and in this
one after the good call, and both outcomes must be the row's exception.
A row without a good call touches no cache and runs here only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the rows use, bound the same way here and in a fresh interpreter
SETUP = """
from jetforge import (AlgebraMorphism, AlgebraPresentation, InputDocument, ModulePresentation,
                      bigrade_commute_check, free_dual_zigzag_check, hs_components,
                      induced_morphism, jet_presentation, run_suite)
from jetforge.hsmodules import module_symbols
from jetforge.jets import jet_again
from jetforge.p1 import global_sections, power_jets, transition_series
from jetforge.poly import JetVar, Poly

x = Poly.var(JetVar("x", 0))
x1 = Poly.var(JetVar("x", 0, 1))
A = AlgebraPresentation(["x"], [x ** 3])
FREE = AlgebraPresentation(["x"], [])
TWO = AlgebraPresentation(["x"], [x ** 2, x ** 3])
phi = AlgebraMorphism(A, A, {JetVar("x", 0): x ** 2})
"""

ROWS = [
    # (bad call, a good call that fills the caches the bad one could read, exception)
    ("hs_components(x ** 2, 2.0)", "hs_components(x ** 2, 2)", "BadLevels"),
    ("hs_components(x ** 2, True)", "hs_components(x ** 2, 1)", "BadLevels"),
    ("hs_components(x ** 2, 1, 2.0)", "hs_components(x ** 2, 1, 2)", "BadLevels"),
    ("jet_again(x1, 2.0, 'order1')", "jet_again(x1, 2, 'order1')", "BadLevels"),
    ("jet_again(x1, True, 'order2')", "jet_again(x1, 1, 'order2')", "BadLevels"),
    ("jet_presentation(A, 2.0).relations", "jet_presentation(A, 2).relations", "BadLevels"),
    ("jet_presentation(A, True).generators", "jet_presentation(A, 1).generators", "BadLevels"),
    ("induced_morphism(phi, 2.0)", "induced_morphism(phi, 2)", "BadLevels"),
    ("induced_morphism(phi, True)", "induced_morphism(phi, 1)", "BadLevels"),
    ("power_jets(2, 0, 2.0)", "power_jets(2, 0, 2)", "BadLevels"),
    ("power_jets(2, 0, True)", "power_jets(2, 0, 1)", "BadLevels"),
    ("power_jets(True, 0, 2)", "power_jets(1, 0, 2)", "TypeError"),
    ("power_jets(2.0, 0, 2)", "power_jets(2, 0, 2)", "TypeError"),
    ("transition_series(True, 2)", "transition_series(1, 2)", "TypeError"),
    ("transition_series(2.0, 2)", "transition_series(2, 2)", "TypeError"),
    ("global_sections(True, 2)", "global_sections(1, 2)", "TypeError"),
    ("module_symbols(FREE, 2, -1)", "module_symbols(FREE, 2, 1)", "BadLevels"),
    ("module_symbols(FREE, 2, 2.0)", "module_symbols(FREE, 2, 2)", "BadLevels"),
    ("module_symbols(FREE, 2, True)", "module_symbols(FREE, 2, 1)", "BadLevels"),
    ("module_symbols(FREE, True, 1)", "module_symbols(FREE, 1, 1)", "TypeError"),
    ("module_symbols(FREE, 1.5, 1)", "module_symbols(FREE, 1, 1)", "TypeError"),
    ("bigrade_commute_check(FREE, 2.0, 1)", "bigrade_commute_check(FREE, 2, 1)", "BadLevels"),
    ("JetVar('x', 0, 1.0)", "JetVar('x', 0, 1)", "TypeError"),
    ("JetVar('x', 0, 1.5)", "JetVar('x', 0, 1)", "TypeError"),
    ("JetVar('x', 0, True)", "JetVar('x', 0, 1)", "TypeError"),
    ("JetVar('x', 0, 0, 2.0)", "JetVar('x', 0, 0, 2)", "TypeError"),
    ("JetVar('x', True)", "JetVar('x', 1)", "TypeError"),
    ("free_dual_zigzag_check(True)", None, "BadLevels"),
    ("module_symbols(FREE, -1, 2)", None, "ValueError"),
    ("ModulePresentation(FREE, True, [])", None, "TypeError"),
    ("ModulePresentation(FREE, 1.5, [])", None, "TypeError"),
    ("ModulePresentation(FREE, -1, [])", None, "ValueError"),
    ("run_suite(seed=1.5, trials=1)", None, "TypeError"),
    ("run_suite(seed=True, trials=1)", None, "TypeError"),
    ("run_suite(trials=True)", None, "TypeError"),
    ("run_suite(trials=2.5)", None, "TypeError"),
    ("InputDocument(TWO, ['f'])", None, "ValueError"),
    ("InputDocument(TWO, ['f', 'g', 'h'])", None, "ValueError"),
    ("InputDocument(TWO, ['f', 'f'])", None, "ValueError"),
    ("InputDocument(FREE, ['f'])", None, "ValueError"),
]

OUTCOME = """
def outcome(call):
    try:
        eval(call)
    except Exception as e:
        return type(e).__name__
    return "no exception"
"""


def _env(**extra):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture(scope="module")
def warm():
    names = {}
    exec(SETUP + OUTCOME, names)
    return names


@pytest.mark.parametrize("bad, good, error", ROWS, ids=[row[0].replace(" ", "") for row in ROWS])
def test_bad_call_raises(bad, good, error, warm):
    if good is not None:
        fresh = subprocess.run([sys.executable, "-S", "-c",
                                SETUP + OUTCOME + "print(outcome(%r))" % bad],
                               capture_output=True, text=True, env=_env(), timeout=60)
        assert (fresh.stdout, fresh.stderr) == (error + "\n", "")
        eval(good, warm)
    assert warm["outcome"](bad) == error


def test_output_depends_on_the_document_alone():
    """A document whose ring names no field is over Q, and is read as UTF-8,
    whatever the environment says about fields or encodings."""
    doc = "ring [x]\nideal f = x^2 + 9  # café\n".encode()
    proc = subprocess.run([sys.executable, "-m", "jetforge.cli", "jet", "--n", "0"], input=doc,
                          capture_output=True, timeout=60,
                          env=_env(JETFORGE_FIELD="F7", PYTHONIOENCODING="latin-1", LC_ALL="C"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"level 0\nvars x_0\nrelation f.0 = x_0^2 + 9\n"
