"""jetforge: exact jet algebras, Hasse-Schmidt modules, and their theorems.

Everything is exact symbolic computation over Q or F_p; no floating
point anywhere.  See the README for an overview and the demos/ scripts
for worked examples.

Importing the package loads none of its modules.  Each exported name
(and each module name in ``__all__``) is imported from its module the
first time it is read (PEP 562), so ``import jetforge.cli`` loads only
the modules ``cli`` imports.  The value is not cached here: the package
namespace holds only what the import system binds in it, the modules
already imported.
"""

_EXPORTS = {
    "errors": ("BadLevels", "DivisionByZero", "FieldMismatch", "InhomogeneousRelation",
               "JetforgeError", "MissingGrading", "NonUnitLeadingCoefficient",
               "NotABaseElement", "ParseError", "UnboundVariable", "UndeclaredVariable",
               "UnknownSuite", "UnsupportedTwist"),
    "scalars": ("QQ", "PrimeField", "field_by_name"),
    "poly": ("JetVar", "Monomial", "Poly"),
    "series": ("BiSeries", "TruncSeries", "series_invert"),
    "localized": ("LocalPoly",),
    "jets": ("AlgebraMorphism", "AlgebraPresentation", "JetPresentation",
             "bijet_presentation", "hs_components", "hs_components_2d", "induced_morphism",
             "jet_presentation"),
    "hsmodules": ("ModulePresentation", "TwistedMatrix", "hs_module_presentation",
                  "kaehler_presentation", "sym_presentation", "twisted_action_matrix"),
    "p1": ("cocycle_check", "global_sections", "p1_transition", "transition_series"),
    "checks": ("base_change_check", "bigrade_commute_check", "cotangent_theorem_check",
               "cotruncation_subset_check", "free_dual_zigzag_check", "report_text",
               "run_suite", "sym_theorem_check"),
    "dsl": ("InputDocument", "document_text", "parse_document", "print_document"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    module = _MODULE_OF.get(name, name)  # a module name stands for the module
    if module not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    loaded = import_module("." + module, __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return list(__all__)
