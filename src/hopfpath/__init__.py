"""Exact computer algebra for the Hopf structures on cycle and chain quivers.

The package constructs path coalgebras of basic cycles and the linear
chain, the graded multiplications indexed by roots of unity, and every
deformed family from the classification; computes in them via confluent
rewriting to PBW normal forms; and machine-checks the defining
identities with exact cyclotomic arithmetic throughout.
"""

from .scalars import (
    CyclotomicContext, Scalar, cyclotomic_context, cyclotomic_polynomial,
    root_of_unity, order, q_int, q_factorial, gauss_binom, gauss_binom_row,
    binom_vanishes, parse_scalar,
)
from .quiver import (
    GroupSpec, HopfQuiver, Arrow, Path, cycle_kind, chain_kind,
    cycle_path, chain_path, build_hopf_quiver, conjugacy_classes,
    conjugacy_class_of, resolve_ramification, is_connected_hopf_quiver,
    enumerate_paths,
)
from .linear import Lin
from .coalgebra import (
    CoalgElement, TensorElement, comultiply, counit, degree,
    cycle_automorphism, chain_automorphism,
)
from .graded import (
    GradedHopfParams, multiply, unit, power_formula_check,
    verify_graded_bialgebra, tensor_multiply, structure_table,
)
from .presentations import (
    CYCLE_GRADED, CYCLE_DEFORM, CYCLE_HALF, CHAIN_GRADED, CHAIN_Q1,
    CHAIN_ROOT, TYPE_ONE_CYCLE, TYPE_ONE_CHAIN, FAMILIES,
    HopfFamilyDescriptor, PBWMonomial, RewriteSystem,
    cycle_graded, cycle_deform, cycle_half, chain_graded, chain_q1,
    chain_root, type_one_cycle, type_one_chain,
    presentation_of, normal_form, parse_word, multiply_alg,
    check_confluence, resolution_difference, structure_rows,
    pbw_to_path, path_to_pbw, pbw_image, path_preimage,
    classify_iso, simple_pointed_catalog,
    descriptor_to_dict, descriptor_from_dict,
)
from .verifier import (
    TensorAlg, generator_coproducts, coproduct, counit_alg,
    verify_relation_coproducts, compute_antipode, verify_antipode,
    verify_degeneration, verify_hopf, forced_vanishing_suite,
)
from .report import Check, VerificationReport

__version__ = "0.1.0"
