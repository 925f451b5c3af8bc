"""Nonlinear-regression engine and PM2.5 forecasting pipeline."""

from .bootstrap import BootstrapSummary, apply_correction, run_simulation
from .data import (
    ModelFrame,
    NcepDaily,
    Observations,
    SixHourly,
    aggregate_ncep,
    build_frame,
    parse_ncep,
    parse_observations,
)
from .diagnostics import (
    BiasReport,
    CurvatureReport,
    ResidualDiagnostics,
    bates_curvature,
    box_bias,
    curvature_at,
    residual_screen,
)
from .errors import (
    AggregationError,
    DataError,
    Pm25CastError,
    RankDeficiencyError,
    StratificationError,
)
from .forecast import (
    FrozenModel,
    IntervalForecast,
    IntervalProfile,
    PROFILES,
    PRESETS,
    Predictors,
    interval,
    predict_id_algo1,
    predict_pm,
)
from .model import ModelSpec, eval_f, hessian_cube, jacobian, structural_rss
from .numerics import (
    f_quantile,
    ks_normal,
    ks_two_sample,
    pearson_test,
    qr_full,
    spearman_test,
)
from .solver import FitResult, TraceStep, gauss_newton

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "BiasReport",
    "BootstrapSummary",
    "CurvatureReport",
    "DataError",
    "FitResult",
    "TraceStep",
    "FrozenModel",
    "IntervalForecast",
    "IntervalProfile",
    "ModelFrame",
    "ModelSpec",
    "NcepDaily",
    "Observations",
    "PRESETS",
    "PROFILES",
    "Pm25CastError",
    "Predictors",
    "RankDeficiencyError",
    "ResidualDiagnostics",
    "SixHourly",
    "StratificationError",
    "aggregate_ncep",
    "apply_correction",
    "bates_curvature",
    "box_bias",
    "build_frame",
    "curvature_at",
    "eval_f",
    "f_quantile",
    "gauss_newton",
    "hessian_cube",
    "interval",
    "jacobian",
    "ks_normal",
    "ks_two_sample",
    "parse_ncep",
    "parse_observations",
    "pearson_test",
    "predict_id_algo1",
    "predict_pm",
    "qr_full",
    "residual_screen",
    "run_simulation",
    "spearman_test",
    "structural_rss",
]
