"""The benchmark's tracer (perfbench/tracer.py) wraps jetforge functions and
methods by name.  Installing and uninstalling it here makes a refactor that
drops or renames one of those names (``Monomial.mul``, ``Rationals.coerce``,
an ``Fp`` operator, ...) fail in this suite, not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path
from types import FunctionType

import jetforge
from jetforge import cli, dsl

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(layers):
    """Every module namespace and class namespace the tracer may patch.  The
    layers are imported before the package namespace is copied: importing a
    submodule binds it there, so a first import must not read as a change."""
    mods = [importlib.import_module("jetforge." + layer) for layer in layers]
    out = {"jetforge": dict(vars(jetforge))}
    for layer, mod in zip(layers, mods):
        out[layer] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out["%s.%s" % (layer, attr)] = dict(vars(value))
    return out


def test_tracer_installs_counts_and_uninstalls(tmp_path, capsys):
    tracer_mod = _load_tracer()
    layers = tracer_mod.ORCHESTRATION + ("poly", "series", "localized", "scalars")
    # main builds its parser on the first call; build it before the snapshot
    assert cli.main(["p1", "--d", "0", "--n", "0"]) == 0
    before = _namespaces(layers)
    fp_doc = tmp_path / "fp.jf"
    fp_doc.write_text("ring F7[x,y]\nideal f = (x + y)^2 - x^3 + 3*x*y\n")
    tracer = tracer_mod.Tracer(jetforge)
    try:
        tracer.install()
        assert cli.main(["jet", "--n", "2", str(GOLDEN / "cusp.jf")]) == 0
        assert cli.main(["jet", "--n", "3", str(fp_doc)]) == 0
        assert cli.main(["p1", "--d", "1", "--n", "2", "--cocycle"]) == 0
        assert cli.main(["check", "--suite", "leibniz", "--trials", "2", "--seed", "3"]) == 0
        # the point oracle does not call Poly.eval; evaluating a parsed relation does
        relation = dsl.parse_document((GOLDEN / "cusp.jf").read_text()).algebra.relations[0]
        assert relation.eval({v: 1 for v in relation.vars()}) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.by_name(tracer.calls)
    for name in ("poly.Monomial.mul", "poly.Poly.__mul__", "poly.Poly.__add__",
                 "poly.Poly.eval", "poly.Poly.render", "scalars.Rationals.coerce",
                 "scalars.PrimeField.coerce", "scalars.Fp.__mul__", "scalars.Fp.__add__",
                 "localized.LocalPoly.__add__", "localized.LocalPoly.__mul__",
                 "checks.points_agree", "cli.main"):
        assert calls.get(name, 0) > 0, name
    assert _namespaces(layers) == before


def test_traced_jet_op_runs_cmd_jet_once(capsys):
    """jet and jet2 both run cmd_jet, looked up by name when main runs, so
    each traced op records one cmd_jet span and no span of another name."""
    tracer = _load_tracer().Tracer(jetforge)
    cusp = str(GOLDEN / "cusp.jf")
    try:
        tracer.install()
        assert cli.main(["jet", "--n", "2", cusp]) == 0
        calls = tracer.by_name(tracer.calls)
        assert calls.get("cli.cmd_jet") == 1
        assert cli.main(["jet2", "--n", "1", "--m", "1", cusp]) == 0
        calls = tracer.by_name(tracer.calls)
        assert calls.get("cli.cmd_jet") == 2
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not [name for name in calls if name.startswith("cli.cmd_") and name != "cli.cmd_jet"]


def test_traced_check_records_each_suites_check(capsys):
    """A suite's check runs through the module binding that the tracer
    wraps, so a traced check op records a span of the check of each suite
    it runs."""
    tracer = _load_tracer().Tracer(jetforge)
    try:
        tracer.install()
        assert cli.main(["check", "--suite", "bigrade_commute,p1_cocycle", "--trials", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.by_name(tracer.calls)
    assert calls.get("checks.bigrade_commute_check") == 1
    assert calls.get("p1.cocycle_check") == 1


def test_no_function_has_two_public_names():
    """The tracer wraps each public function of a module by name, and every
    binding of it with the same wrapper; a second public name would wrap
    the function twice."""
    for layer in _load_tracer().ORCHESTRATION:
        mod = importlib.import_module("jetforge." + layer)
        names = {}
        for attr, value in vars(mod).items():
            if not attr.startswith("_") and isinstance(value, FunctionType):
                names.setdefault(value, []).append(attr)
        assert [attrs for attrs in names.values() if len(attrs) > 1] == [], layer
