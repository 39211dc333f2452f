"""Exact-arithmetic toolkit for semilattice character duality.

Finite bounded semilattices with character enumeration and double-dual
verification; their monoid algebras as bialgebras with group-like
classification, including congruence quotients; character actions on
semilattice-graded algebras; the letterplace superalgebra with its
weight grading; and the finite dual of the max-monoid on the naturals
with its threshold-character decomposition. All arithmetic is exact
over the rationals.
"""

__version__ = "0.1.0"

from .extnat import NEG_INF, POS_INF, ExtNat, fin
from .semilattice import (Character, FiniteSemilattice, MonoidMap, characters,
                          double_dual_iso, dual_semilattice, ev_matrix_rank,
                          induced_order, parse_semilattice, print_semilattice,
                          validate)
from .bialgebra import (Congruence, MonoidAlgebraElement, TensorElement, alg_homs,
                        check_bialgebra_axioms, comultiply, congruence_closure,
                        counit, is_grouplike, multiply, quotient_grouplikes)
from .graded import (AlgebraElement, GradedFDAlgebra, act_character,
                     check_module_algebra, dual_monoid_action,
                     homogeneous_components, ut_graded, verify_grading)
from .letterplace import (LPPoly, LPVariable, ParityContext, act_min, embed_word,
                          normalize, parse_poly, weight, weight_components)
from .nbar_dual import (SpecialDetResult, StepFunctional, char_mult,
                        grouplike_decompose, in_finite_dual, is_character,
                        special_det, threshold_functional, translate,
                        translate_span_basis)

__all__ = [
    "__version__",
    "ExtNat", "NEG_INF", "POS_INF", "fin",
    "FiniteSemilattice", "Character", "MonoidMap", "validate", "induced_order",
    "characters", "dual_semilattice", "double_dual_iso", "ev_matrix_rank",
    "parse_semilattice", "print_semilattice",
    "MonoidAlgebraElement", "TensorElement", "Congruence", "multiply",
    "comultiply", "counit", "is_grouplike", "check_bialgebra_axioms",
    "alg_homs", "congruence_closure", "quotient_grouplikes",
    "GradedFDAlgebra", "AlgebraElement", "verify_grading",
    "homogeneous_components", "act_character", "check_module_algebra",
    "dual_monoid_action", "ut_graded",
    "ParityContext", "LPVariable", "LPPoly", "normalize", "weight",
    "weight_components", "act_min", "embed_word", "parse_poly",
    "StepFunctional", "SpecialDetResult", "threshold_functional", "translate",
    "translate_span_basis", "in_finite_dual", "is_character", "char_mult",
    "special_det", "grouplike_decompose",
]
