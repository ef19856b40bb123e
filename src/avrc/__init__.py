"""Capacity bounds and jamming simulations for arbitrarily varying relay channels."""

from .gaussian import (
    BoundsReport,
    GaussianSfdParams,
    PowerSplit,
    det_code_bounds,
    f_g,
    figure_sweep,
    gavc_point_to_point,
    primitive_gaussian_capacity,
    random_code_capacity,
)
from .discrete import (
    CapacityClassification,
    Dmc,
    SymVerdict,
    classify_capacity,
    cutset_bound,
    df_bound,
    degradedness_classify,
    mutual_information,
    symmetrizability,
)
from .codec import (
    CodebookConfig,
    SfdCodebook,
    build_codebook,
    decode_backward,
    destination_observation,
    encode,
    transmit,
)
from .adversary import StateStrategy, make_state
from .sim import ErrorEstimate, SimConfig, attack_sweep, run_monte_carlo

__all__ = [
    "BoundsReport", "CapacityClassification", "CodebookConfig",
    "Dmc", "ErrorEstimate", "GaussianSfdParams", "PowerSplit",
    "SfdCodebook", "SimConfig", "StateStrategy", "SymVerdict", "attack_sweep",
    "build_codebook", "classify_capacity", "cutset_bound", "decode_backward",
    "degradedness_classify", "destination_observation", "det_code_bounds", "df_bound",
    "encode", "f_g", "figure_sweep", "gavc_point_to_point", "make_state", "mutual_information",
    "primitive_gaussian_capacity", "random_code_capacity",
    "run_monte_carlo", "symmetrizability", "transmit",
]
