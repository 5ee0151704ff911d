"""The benchmark's tracer (perfbench/tracer.py) wraps jetforge functions and
methods by name.  Installing and uninstalling it here makes a refactor that
drops or renames one of those names (``Monomial.mul``, ``Rationals.coerce``,
an ``Fp`` operator, ...) fail in this suite, not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import jetforge
from jetforge import cli, dsl
from jetforge.scalars import QQ, PrimeField

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
        # calling a field is a conversion too: it goes through the wrapped coerce
        counts = tracer.by_name(tracer.calls)
        before_call = [counts.get("scalars.%s.coerce" % k, 0) for k in ("Rationals", "PrimeField")]
        assert (QQ(3), PrimeField(7)(3)) == (3, PrimeField(7).coerce(3))
        counts = tracer.by_name(tracer.calls)
        after_call = [counts.get("scalars.%s.coerce" % k, 0) for k in ("Rationals", "PrimeField")]
        assert [b - a for a, b in zip(before_call, after_call)] == [1, 2]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.by_name(tracer.calls)
    for name in ("poly.Monomial.mul", "poly.Poly.__mul__", "poly.Poly.__add__",
                 "poly.Poly.eval", "poly.Poly.render", "scalars.Rationals.coerce",
                 "scalars.PrimeField.coerce", "scalars.Fp.__mul__", "scalars.Fp.__add__",
                 "series.TruncSeries.__mul__", "localized.LocalPoly.__mul__",
                 "checks.points_agree", "cli.main"):
        assert calls.get(name, 0) > 0, name
    assert _namespaces(layers) == before
