"""The package's lazy exports, and the modules each subcommand loads.

Module sets are read in a fresh interpreter started with ``-S`` (no site
packages, whose start-up hooks may import anything), so they are sets of
names, not timings."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import jetforge

SRC = Path(__file__).resolve().parents[1] / "src"

# jetforge.__all__: the exports of the eager-import era, with the check report
# records replaced by report_text and the bivariate factory and components
# folded into jet_presentation and hs_components, and the twisted matrix
# record and its builder folded into hs_components and poly.convolve, and
# the document-to-text wrapper folded into print_document
ALL = ['AlgebraMorphism', 'AlgebraPresentation', 'BadLevels',
       'BiSeries', 'DivisionByZero', 'FieldMismatch', 'InhomogeneousRelation',
       'InputDocument', 'JetPresentation', 'JetVar', 'JetforgeError', 'LocalPoly',
       'MissingGrading', 'ModulePresentation', 'Monomial', 'NonUnitLeadingCoefficient',
       'NotABaseElement', 'ParseError', 'Poly', 'PrimeField', 'QQ', 'TruncSeries',
       'UnboundVariable', 'UndeclaredVariable', 'UnknownSuite',
       'UnsupportedTwist', 'base_change_check', 'bigrade_commute_check', 'checks',
       'cocycle_check', 'cotangent_theorem_check', 'cotruncation_subset_check',
       'dsl', 'errors', 'field_by_name', 'free_dual_zigzag_check',
       'global_sections', 'hs_components', 'hs_module_presentation', 'hsmodules',
       'induced_morphism', 'jet_presentation', 'jets', 'kaehler_presentation',
       'localized', 'p1', 'p1_transition', 'parse_document', 'poly', 'print_document',
       'report_text', 'run_suite', 'scalars', 'series', 'series_invert',
       'sym_presentation', 'sym_theorem_check', 'transition_series']
MODULES = ("checks", "dsl", "errors", "hsmodules", "jets", "localized", "p1", "poly",
           "scalars", "series")


def test_all_is_unchanged():
    assert jetforge.__all__ == ALL
    assert dir(jetforge) == ALL


@pytest.mark.parametrize("name", ALL)
def test_export_is_the_defining_modules_object(name):
    value = getattr(jetforge, name)
    if name in MODULES:
        assert value is import_module("jetforge." + name)
    else:
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("jetforge.")
        assert vars(home)[name] is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from jetforge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[name] is getattr(jetforge, name) for name in ALL)


def test_unknown_attribute_is_attribute_error():
    for name in ("nosuch", "upper_triangle", "main", "cli_main"):
        with pytest.raises(AttributeError, match=name):
            getattr(jetforge, name)
        assert not hasattr(jetforge, name)
    with pytest.raises(ImportError):
        exec("from jetforge import nosuch", {})


def test_reading_exports_caches_nothing_in_the_package():
    for name in MODULES:  # importing a module binds it in the package; that is all
        getattr(jetforge, name)
    before = dict(vars(jetforge))
    for name in ALL:
        getattr(jetforge, name)
    assert dict(vars(jetforge)) == before


STARTUP_PROBE = """
import sys
import jetforge.cli
loaded = [sorted(sys.modules)]
for argv in ARGVS:
    jetforge.cli.main(argv)
    loaded.append(sorted(sys.modules))
sys.stderr.write("\\n" + repr(loaded))
"""


def _modules_after(*argvs):
    """sys.modules after `import jetforge.cli` and after each main(argv),
    in a fresh interpreter without site packages."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = STARTUP_PROBE.replace("ARGVS", repr(argvs))
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return [set(names) for names in ast.literal_eval(done.stderr.splitlines()[-1])]


NOT_AT_STARTUP = {"jetforge.checks", "jetforge.p1", "jetforge.series", "jetforge.localized",
                  "dataclasses", "inspect", "random", "json"}
AT_STARTUP = {"jetforge", "jetforge.cli", "jetforge.dsl", "jetforge.errors",
              "jetforge.hsmodules", "jetforge.jets", "jetforge.poly", "jetforge.scalars"}


def _jetforge(modules):
    return {m for m in modules if m.split(".")[0] == "jetforge"}


def test_import_loads_only_what_document_subcommands_run(tmp_path):
    doc = tmp_path / "cusp.jf"
    doc.write_text("ring Q[x,y]\nideal f = y^2 - x^3\n")
    startup, after_jet, after_json = _modules_after(["jet", "--n", "2", str(doc)],
                                                    ["omega", "--format", "json", str(doc)])
    assert _jetforge(startup) == AT_STARTUP
    assert not startup & NOT_AT_STARTUP
    assert not after_jet & NOT_AT_STARTUP
    assert after_json & NOT_AT_STARTUP == {"json"}
    assert _jetforge(after_json) == AT_STARTUP


def test_package_import_loads_no_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, jetforge; print(sorted(sys.modules))"],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    assert _jetforge(ast.literal_eval(done.stdout)) == {"jetforge"}


def test_check_and_p1_load_their_modules_when_run():
    startup, after_check = _modules_after(["check", "--suite", "leibniz", "--trials", "1"])
    assert not startup & NOT_AT_STARTUP
    assert {"jetforge.checks", "jetforge.p1", "random"} <= after_check
    assert "jetforge.series" not in after_check
    startup, after_p1 = _modules_after(["p1", "--d", "1", "--n", "2", "--cocycle"])
    assert not startup & NOT_AT_STARTUP
    assert after_p1 - startup >= {"jetforge.p1", "jetforge.localized"}
    assert "jetforge.series" not in after_p1
    assert not after_p1 & {"jetforge.checks", "dataclasses", "inspect", "random", "json"}


def _unused_imports(path):
    """The names a file imports and never reads, as "file:line name".  A
    name is read where it is loaded, as a bare name or an attribute chain's
    root, or where a string constant equals it: ``checks.SUITES`` names
    its checks by string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return ["%s:%d %s" % (path.name, node.lineno, name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [(a.asname or a.name).split(".")[0] for a in node.names]
            if name != "*" and name not in used]


def test_no_unused_import():
    tests = Path(__file__).resolve().parent
    files = sorted((SRC / "jetforge").rglob("*.py")) + sorted(tests.rglob("*.py"))
    files += sorted((SRC.parent / "demos").glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


# JetVar objects are made at the boundary only: where the jet engine names a
# variable's family, where a presentation names its generators, and where the
# module symbols and the P^1 chart variables are named; poly defines JetVar
JETVAR_BUILDERS = {"jets._family", "jets.generators", "hsmodules.module_symbols",
                   "p1.chart_var"}


def _jetvar_builders(path):
    """The functions of a library file that call JetVar(...), as "module.function"."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = "%s.%s" % (path.stem, node.name)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "JetVar":
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


def test_jetvar_is_built_only_at_the_boundary():
    files = [path for path in sorted((SRC / "jetforge").glob("*.py")) if path.stem != "poly"]
    assert set().union(*map(_jetvar_builders, files)) == JETVAR_BUILDERS
