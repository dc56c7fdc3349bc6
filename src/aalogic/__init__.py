"""Workbench for finitely presented propositional logics: syntax and flexible
translations, finite matrix semantics, algebraization checks, double-negation
translation contexts with their adjoint, and institution-style
satisfaction-condition suites."""

from .algebra import (
    Congruence,
    FiniteAlgebra,
    all_filters,
    congruence_generated,
    evaluate,
    filter_closure,
    homomorphisms,
    is_reduced,
    leibniz,
    leibniz_bruteforce,
    quotient,
    reduce_matrix,
)
from .algebraization import (
    AlgebraizingPair,
    check_bp_conditions,
    check_interpretation,
    check_inverse_condition,
    class_equal,
    delta_translate,
    detachment_check,
    is_lindenbaum,
    qv_axioms,
    qv_membership,
    tau_translate,
)
from .glivenko import (
    GlivenkoContext,
    compose_contexts,
    glivenko_equivalence,
    glivenko_sweep,
    left_adjoint_quotient,
    lind_compatibility_check,
    matrix_compatibility_check,
    regular_elements,
    rho_translate,
    section_check,
    unit_map,
    validate_context,
)
from .institutions import Corpus, institution_report
from .provers import (
    Equation,
    cpc_decide,
    equational_consequence,
    ipc_decide,
    kripke_countermodel,
    quasiidentity_holds,
)
from .semantics import (
    BUILTIN_SIGNATURE,
    LogicMorphism,
    LogicSpec,
    Matrix,
    consequence,
    mod_translate,
    reduct,
    satisfaction_condition_check,
)
from .syntax import (
    App,
    FlexibleMorphism,
    Formula,
    FormulaSyntaxError,
    Signature,
    Var,
    compose_morphisms,
    enumerate_formulas,
    extend_morphism,
    parse_formula,
    print_formula,
    substitute,
    variables,
)

__version__ = "0.1.0"
