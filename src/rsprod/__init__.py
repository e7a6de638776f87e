"""Subcodes of Reed-Solomon product codes over GF(2^M): construction via
pairs of additive polynomials, minimum-distance bounds, and erasure
analysis oracles."""

from .analysis import (
    BudgetExceeded,
    ErasureMask,
    PeelResult,
    WeightSpectrum,
    block_margin_mask,
    double_root_check,
    erasure_recoverable,
    exhaustive_distance,
    macwilliams_transform,
    peel_decode,
    sampled_distance,
    spectrum_via_dual,
    strip_margin_mask,
)
from .bounds import (
    BoundReport,
    bound_report,
    bound_sweep,
    exact_distance,
    grid_upper,
    gridv2_upper,
    lower_opt,
    lrc_upper,
    profile_lower,
    rs_degree_lower,
    secondweight,
)
from .codec import (
    CodeInstance,
    build_code,
    encode,
    export_generator_csv,
)
from .degrees import DegreeProfile, degree_profile, ref_basis
from .field import FieldCtx
from .linearized import (
    LinearizedPair,
    LinearizedPoly,
    build_pair,
    instantiate_standard,
    root_space,
    subfield,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "CodeInstance",
    "DegreeProfile",
    "ErasureMask",
    "FieldCtx",
    "LinearizedPair",
    "LinearizedPoly",
    "PeelResult",
    "WeightSpectrum",
    "block_margin_mask",
    "bound_report",
    "bound_sweep",
    "build_code",
    "build_pair",
    "degree_profile",
    "double_root_check",
    "encode",
    "erasure_recoverable",
    "exact_distance",
    "exhaustive_distance",
    "export_generator_csv",
    "grid_upper",
    "gridv2_upper",
    "instantiate_standard",
    "lower_opt",
    "lrc_upper",
    "macwilliams_transform",
    "peel_decode",
    "profile_lower",
    "ref_basis",
    "root_space",
    "rs_degree_lower",
    "sampled_distance",
    "secondweight",
    "spectrum_via_dual",
    "strip_margin_mask",
    "subfield",
]
