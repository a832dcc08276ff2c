"""x-parametric R-matrices for a centrally extended quantum superalgebra.

The library builds the spectral-parameter R-matrices of the
four-dimensional vector representation and their Hecke-fused
descendants, and machine-verifies every asserted identity (defining
relations, intertwining, twisted and dynamical Yang-Baxter equations)
over both a numeric and an exact rational-function scalar backend.
"""

from .cartan import bilinear, cartan_matrix, parity, simple_root, theta
from .dynamical import DynamicalRMatrix, check_dynamical_ybe
from .fusion import (FusedDimensionError, FusedSpace, FusedZeroError,
                     Symmetrizer, apply_chain, chain_rmatrix,
                     check_fused_intertwining, check_fused_ybe,
                     check_fusion_constant, check_hecke_relations,
                     check_projector_commutation, fused_builder,
                     fused_local_rep, fused_rmatrix, fused_space,
                     fusion_constant, hecke_generator_images, q_profile,
                     symmetrizer, twisted_rmatrix, twisted_space)
from .permutations import Permutation, all_reduced_words, concat_tuples
from .reports import CheckReport, dump, matrix_to_json, scalar_to_json
from .rmatrix import (RMatrixBuilder, check_forms_equal, check_intertwining,
                      check_twisted_ybe, tensor_projectors, vector_builder,
                      vector_rmatrix, vector_rmatrix_spectral, ybe_residual)
from .scalars import (ExactField, LaurentPoly, NumericField, ParamSet,
                      RationalFunction, evaluate_matrix, evaluate_scalar,
                      paramset_violations, sample_params)
from .suite import LEVELS, SuiteConfig, run_suite
from .superalgebra import (GENERATORS, ClassicalLimit, LocalRep, ProductRep,
                           check_relations, check_tensor_square,
                           classical_limit, coproduct_image, spectral_twist,
                           super_bracket, tensor_square_bases,
                           tensor_square_restrictions, tuple_rep, vector_rep)
from .tensorops import (Operator, SubspaceBasis, apply_at_legs, column_space,
                        commutant_dimension, exact_inverse, exact_solve,
                        matmul, matrix_rank, matrix_unit, residual, restrict,
                        restrict_action)

__version__ = "0.1.0"
