"""Exact certificates of minimality and uniqueness for Waring
decompositions of ternary forms, over a configurable prime field."""

import sys

__version__ = "0.1.0"

from .ffield import (
    DEFAULT_PRIME,
    DenseMatrix,
    PrimeContext,
    is_prime,
)
from .polys import (
    GradedPoly,
    MonomialBasis,
    ParamPoly,
    det_poly,
    maximal_minors,
    monomial_basis,
    mult_map,
    veronese_vector,
)
from .points import (
    HilbertProfile,
    PointSet,
    cb_check,
    evaluation_matrix,
    h1_defect,
    hilbert_profile,
    ideal_piece,
    kruskal_rank,
    kruskal_rank_detail,
    span_intersection_dim,
)
from .criteria import (
    Certificate,
    Instance,
    mo_certify,
    range_certify,
    ranger_certify,
    reshaped_kruskal_certify,
)
from .octic14 import (
    FULL,
    HilbertBurch,
    Octic14Report,
    PAPER13,
    ResidualFamily,
    certify_octic14,
    check_preconditions,
    hilbert_burch,
    normalization_check,
    point_stages,
    residual_family,
    second_decomposition_system,
    unique_quartic,
    verify_witness,
)
from .generate import (
    GeneratedInstance,
    gen_identifiable,
    gen_unidentifiable,
    random_admissible_pointset,
    recover_residual_points,
)
from .driver import run_criteria

# every name imported above, the submodules aside
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, type(sys))]
