"""Exact conditional sampling for max-linear factor models.

A max-linear model observes X_i = max_j a_ij Z_j for independent
positive factors Z_j with known continuous margins. Given an observed
x, the conditional law of Z factorizes over equivalence classes of
observations; this package computes that decomposition exactly and
samples from it, with time-series (MARMA) and spatial (kernel
moving-maxima) front ends.

The brute-force and rejection oracles that check the sampler, and the
``validate`` self-check suite, live in ``maxlinear.oracles``.
Helpers outside ``__all__`` stay reachable in their modules, e.g.
``maxlinear.model.max_linear_apply_batch``.
"""

from .conditional import ConditionalLaw, class_weights, conditional_law
from .errors import (
    AssumptionAViolationError,
    DensityNormalizationError,
    DimensionMismatchError,
    DimensionOverflowError,
    EmptyScenarioClassError,
    InconsistentObservationError,
    MarginCountMismatchError,
    MaxLinearError,
    NegativeEntryError,
    NonStationaryError,
    NotPureMarError,
    NumericalOverflowError,
    ZeroColumnError,
    ZeroMassBelowBoundError,
    ZeroRowError,
)
from .experiments import coverage_experiment, projection_bias_experiment, summarize
from .hitting import DEFAULT_REL_TOL, HittingStructure, hitting_structure
from .margins import Frechet, MarginSpec, TabulatedContinuous, margin_groups, standard_frechet
from .marma import (
    MarmaSpec,
    load_marma_spec,
    marma_coefficients,
    marma_design,
    projection_predictor,
    save_marma_spec,
    simulate_marma_window,
)
from .model import MaxLinearModel, load_model, save_model, validate_model
from .sampler import (
    PredictionResult,
    PredictionTask,
    RngStream,
    draw_conditional_batch,
    run_prediction,
)
from .smith import SmithDesign, SmithSpec, load_smith_spec, save_smith_spec, smith_design

__version__ = "0.1.0"

__all__ = [
    "AssumptionAViolationError",
    "ConditionalLaw",
    "DEFAULT_REL_TOL",
    "DensityNormalizationError",
    "DimensionMismatchError",
    "DimensionOverflowError",
    "EmptyScenarioClassError",
    "Frechet",
    "HittingStructure",
    "InconsistentObservationError",
    "MarginCountMismatchError",
    "MarginSpec",
    "MarmaSpec",
    "MaxLinearError",
    "MaxLinearModel",
    "NegativeEntryError",
    "NonStationaryError",
    "NotPureMarError",
    "NumericalOverflowError",
    "PredictionResult",
    "PredictionTask",
    "RngStream",
    "SmithDesign",
    "SmithSpec",
    "TabulatedContinuous",
    "ZeroColumnError",
    "ZeroMassBelowBoundError",
    "ZeroRowError",
    "class_weights",
    "conditional_law",
    "coverage_experiment",
    "draw_conditional_batch",
    "hitting_structure",
    "load_marma_spec",
    "load_model",
    "load_smith_spec",
    "margin_groups",
    "marma_coefficients",
    "marma_design",
    "projection_bias_experiment",
    "projection_predictor",
    "run_prediction",
    "save_marma_spec",
    "save_model",
    "save_smith_spec",
    "simulate_marma_window",
    "smith_design",
    "standard_frechet",
    "summarize",
    "validate_model",
]
