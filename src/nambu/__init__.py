"""Exact Nambu-Poisson calculus on polynomial coordinate charts.

The package computes brackets, induced bundle maps, Hamiltonian fields, the
algebroid bracket on forms, divergence and modular tensors, and exact
degree-truncated (co)homology dimensions, all over arbitrary-precision
rationals.  The ``nambu`` command line exposes every operation on text model
files.
"""

from .algebra import (
    ExactMatrix,
    Polynomial,
    RationalFunction,
    variables,
)
from .cohomology import (
    canonical_homology_dim,
    duality_report,
    foliated_cohomology_dim,
    naka_pair,
    naka_triple,
    np_cocycle_check_top,
    np_h1_top,
    subcomplex_check,
)
from .exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    contract_form,
    ext_d,
    interior_form,
    lie_form,
    lie_mv,
    pair,
    wedge,
)
from .flows import (
    DivergentFlowError,
    FlowConfig,
    conservation_report,
    integrate_hamiltonian,
)
from .model import ModelError, ModelFile, parse_model
from .modular import (
    VolumeSpec,
    WeightedForm,
    basic_volume,
    check_basic,
    delta,
    divergence,
    flat,
    flat_inverse,
    is_tangent,
    modular_potential,
    modular_tensor,
    weighted_d,
)
from .structures import (
    NambuStructure,
    check_automorphism,
    check_decomposability,
    check_fundamental_identity,
    hamiltonian_vf,
    leibniz_bracket,
    nambu_bracket,
    sharp,
)
from .truncation import TruncatedBasis, TruncatedOperator, ker_sharp_basis

__version__ = "0.1.0"
