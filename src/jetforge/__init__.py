"""jetforge: exact jet algebras, Hasse-Schmidt modules, and their theorems.

Everything is exact symbolic computation over Q or F_p; no floating
point anywhere.  See the README for an overview and the demos/ scripts
for worked examples.
"""

from .errors import (BadLevels, DivisionByZero, FieldMismatch,
                     InhomogeneousRelation, JetforgeError, MissingGrading,
                     NonUnitLeadingCoefficient, NotABaseElement, ParseError,
                     UnboundVariable, UndeclaredVariable, UnknownSuite,
                     UnsupportedTwist)
from .scalars import QQ, PrimeField, field_by_name
from .poly import JetVar, Monomial, Poly
from .series import BiSeries, TruncSeries, series_invert
from .localized import LocalPoly
from .jets import (AlgebraMorphism, AlgebraPresentation, BiJetPresentation,
                   JetPresentation, bigrade_commute_check, bijet_presentation,
                   cotruncation_subset_check, grade_monomial, hs_components,
                   hs_components_2d, induced_morphism, jet_presentation)
from .hsmodules import (ModulePresentation, TwistedMatrix, base_change_check,
                        cotangent_theorem_check, delta_apply,
                        free_dual_zigzag_check, hs_module_presentation,
                        kaehler_presentation, sym_presentation,
                        sym_theorem_check, twisted_action_matrix)
from .p1 import (SectionDescriptor, TransitionMatrix, cocycle_check,
                 global_sections, p1_transition, transition_series)
from .checks import CheckConfig, CheckReport, run_suite
from .dsl import InputDocument, document_text, parse_document, print_document

__all__ = [name for name in dir() if not name.startswith("_")]
