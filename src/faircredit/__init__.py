"""Counterfactually fair credit prediction.

The pipeline infers a latent per-person reliability score from sex, age, job,
housing, and credit amount with a Metropolis-within-Gibbs sampler over a small
generative model, then predicts credit from that score alone. Because the
protected attributes influence the prediction only through the inferred score,
flipping them leaves the second-stage input unchanged. Full and unaware
least-squares baselines, convergence diagnostics, and counterfactual fairness
metrics are included, along with a command line front end (``faircredit``).
"""

from .dataset import (
    CovariateSpec,
    Dataset,
    PreprocessConfig,
    RawRecord,
    SplitSpec,
    Standardization,
    generate_synthetic,
    load_csv,
    preprocess,
    read_processed_csv,
    split,
    write_processed_csv,
)
from .diagnostics import (
    SummaryRow,
    autocorrelation,
    ess_bulk,
    ess_tail,
    summarize,
    summarize_series,
    summary_to_csv_text,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    FairCreditError,
    RankDeficientError,
    RateCapError,
    SamplerError,
    UserError,
)
from .evaluation import (
    ComparisonReport,
    compare_models,
    covariance_matrix,
    flip_age,
    flip_sex,
    r_squared,
)
from .predictors import (
    FairModel,
    ForestConfig,
    ForestModel,
    LinearModel,
    fit_fair,
    fit_forest,
    fit_full,
    fit_ols,
    fit_unaware,
    load_fair_model,
    predict_fair,
    predict_forest,
    predict_ols,
    save_fair_model,
)
from .probmodel import BASE_PARAM_NAMES, PARAM_NAMES, ModelConfig, ModelParams
from .sampler import (
    Chain,
    LatentPosteriors,
    SamplerConfig,
    infer_latent,
    run_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_PARAM_NAMES",
    "Chain",
    "ComparisonReport",
    "ConfigError",
    "CovariateSpec",
    "DataError",
    "Dataset",
    "DegenerateSeriesError",
    "FairCreditError",
    "FairModel",
    "ForestConfig",
    "ForestModel",
    "LatentPosteriors",
    "LinearModel",
    "ModelConfig",
    "ModelParams",
    "PARAM_NAMES",
    "PreprocessConfig",
    "RankDeficientError",
    "RateCapError",
    "RawRecord",
    "SamplerConfig",
    "SamplerError",
    "SplitSpec",
    "Standardization",
    "SummaryRow",
    "UserError",
    "autocorrelation",
    "compare_models",
    "covariance_matrix",
    "ess_bulk",
    "ess_tail",
    "fit_fair",
    "fit_forest",
    "fit_full",
    "fit_ols",
    "fit_unaware",
    "flip_age",
    "flip_sex",
    "generate_synthetic",
    "infer_latent",
    "load_csv",
    "load_fair_model",
    "preprocess",
    "predict_fair",
    "predict_forest",
    "predict_ols",
    "r_squared",
    "read_processed_csv",
    "run_chain",
    "save_fair_model",
    "split",
    "summarize",
    "summarize_series",
    "summary_to_csv_text",
    "write_processed_csv",
]
