"""Numerical tools for selfadjoint operators on indefinite inner product spaces.

Finite-dimensional spaces are modeled by a fundamental symmetry J
(J = J^H, J^2 = I) with inner product <f, g> = g^H J f.  The package
computes hermitian index triples, canonical forms and congruences,
sign decompositions, injective factorizations C = A A* whose factor
space signature matches the indices, and maximal semidefinite subspace
pairs via contraction completion.
"""

from .densela import (HermEig, Tolerance, herm_eig, inertia, null_basis,
                      pinv, psd_sqrt, spectral_norm, svd)
from .errors import (ContractionOverflow, DegenerateProjection,
                     DimensionMismatch, IllConditioned, Incompatible,
                     InputError, KreinError, NoConvergence, NotCongruent,
                     NotDirect, NotHermitian, NotInvertible, NotPSD,
                     NotSelfadjoint, NotSemidefinite, NotSymmetry,
                     NumericalError, PreconditionError, PreconditionFailed)
from .krein import (IndexTriple, KOperator, KreinSpace, Subspace,
                    SubspaceClass, c_orthogonal, classify_subspace,
                    hilbert_space, identity_op, is_selfadjoint, k_adjoint,
                    make_space, make_subspace, space_indices)
from .hermdex import (CanonicalForm, Congruence, build_congruence,
                      canonical_form, hermitian_indices, is_congruent,
                      transport)
from .decomp import Decomposition, DecompositionProjections, decompose, \
    projections, validate
from .bkfact import BKFactorization, bk_factorize, bk_verify, keyth_verify
from .phillips import (GraphRep, MaximalPair, canonical_frames,
                       check_compatibility, graph_rep, phillips_extend,
                       represented)
from .genrand import (complex_gaussian, gen_injective_factor, gen_invertible,
                      gen_selfadjoint, gen_space, gen_space_with_split,
                      haar_unitary, j_unitary)
from .suite import run_property_suite

__version__ = "0.1.0"

__all__ = [
    "Tolerance", "HermEig", "herm_eig", "inertia", "spectral_norm",
    "psd_sqrt", "null_basis", "pinv", "svd",
    "KreinError", "InputError", "PreconditionError", "NumericalError",
    "NotHermitian", "NotPSD", "NotSymmetry", "NotSelfadjoint",
    "NotInvertible", "IllConditioned", "NotCongruent", "NotDirect",
    "NotSemidefinite", "DegenerateProjection", "Incompatible",
    "DimensionMismatch", "PreconditionFailed",
    "NoConvergence", "ContractionOverflow",
    "KreinSpace", "KOperator", "Subspace", "IndexTriple", "SubspaceClass",
    "make_space", "hilbert_space", "space_indices", "identity_op",
    "k_adjoint", "is_selfadjoint", "make_subspace",
    "classify_subspace", "c_orthogonal",
    "Congruence", "CanonicalForm", "hermitian_indices", "transport",
    "canonical_form", "is_congruent", "build_congruence",
    "Decomposition", "DecompositionProjections", "decompose", "validate",
    "projections",
    "BKFactorization", "bk_factorize", "bk_verify", "keyth_verify",
    "GraphRep", "MaximalPair", "canonical_frames", "graph_rep",
    "represented", "check_compatibility", "phillips_extend",
    "complex_gaussian", "haar_unitary", "j_unitary",
    "gen_space", "gen_space_with_split", "gen_selfadjoint",
    "gen_invertible", "gen_injective_factor",
    "run_property_suite",
    "__version__",
]
