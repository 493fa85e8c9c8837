"""Model scoring: R-squared, the covariance table, counterfactual flip gaps,
and the side-by-side comparison of the three predictors."""

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .predictors import (
    FairModel,
    ForestConfig,
    LinearModel,
    feature_matrix,
    fit_fair,
    fit_full,
    fit_unaware,
    predict_fair,
    predict_forest,
    predict_ols,
)
from .sampler import Chain

COVARIANCE_COLUMNS = ("age_std", "sex", "job", "house", "credit")


def r_squared(predictions: np.ndarray, targets: np.ndarray) -> float:
    """1 - SS_res/SS_tot against the scored set's own mean."""
    y = np.asarray(targets, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if y.shape != p.shape or y.ndim != 1:
        raise ValueError("predictions and targets must be matching 1-D arrays")
    if y.shape[0] < 2:
        raise DataError("need at least two observations to score")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DataError("targets are constant; r-squared is undefined")
    ss_res = float(np.sum((y - p) ** 2))
    return 1.0 - ss_res / ss_tot


def covariance_matrix(data: Dataset, correlation: bool = False) -> tuple[tuple[str, ...], np.ndarray]:
    """Sample covariance (ddof=1) of the five observed columns, in the fixed
    order age_std, sex, job, house, credit. correlation=True normalizes to
    unit diagonal."""
    if len(data) < 2:
        raise DataError("need at least two observations for a covariance matrix")
    cols = np.column_stack(
        [np.asarray(getattr(data, name), dtype=float) for name in COVARIANCE_COLUMNS]
    )
    cov = np.cov(cols, rowvar=False, ddof=1)
    if correlation:
        sd = np.sqrt(np.diag(cov))
        if np.any(sd == 0.0):
            flat = COVARIANCE_COLUMNS[int(np.argmin(sd))]
            raise DataError(f"column {flat!r} is constant; correlation is undefined")
        cov = cov / np.outer(sd, sd)
    return COVARIANCE_COLUMNS, cov


def matrix_to_csv_text(names: tuple[str, ...], matrix: np.ndarray) -> str:
    lines = ["," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(f"{matrix[i, j]:.6g}" for j in range(len(names))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# counterfactual flips

def flip_sex(data: Dataset) -> Dataset:
    """Same people with sex recoded 0<->1."""
    return dc_replace(data, sex=(1 - np.asarray(data.sex)).astype(data.sex.dtype))


def flip_age(data: Dataset, mode: str = "mirror", years: float = 10.0) -> Dataset:
    """Counterfactual ages: 'mirror' negates the standardized age, reflecting
    each age about the stored training mean; 'shift' adds `years` in raw
    units (years / stored sd on the standardized scale), so it needs the
    stored standardization, which a hand-built dataset may lack."""
    if mode == "mirror":
        shifted = -np.asarray(data.age_std, dtype=float)
    elif mode == "shift":
        if data.standardization is None:
            raise DataError("age shift in years needs the stored standardization")
        shifted = np.asarray(data.age_std, dtype=float) + years / data.standardization.age_std
    else:
        raise ValueError(f"unknown age flip mode {mode!r}")
    return dc_replace(data, age_std=shifted)


def _predictions(model, data: Dataset, condition_on_credit: bool = False) -> np.ndarray:
    if isinstance(model, LinearModel):
        return predict_ols(model, feature_matrix(data, model.feature_names))
    if isinstance(model, FairModel):
        return predict_fair(model, data, condition_on_credit)
    raise TypeError(f"cannot predict with {type(model).__name__}")


def _flip_gap(model, flipped: Dataset, base: np.ndarray) -> float:
    """Mean absolute change from the factual predictions `base` to those on
    `flipped`. The fair model re-infers each flipped row's latent score, an
    exact function of its row, so the gap reflects the attribute change
    alone and is exactly zero when the flipped attribute never enters."""
    alt = _predictions(model, flipped)
    return float(np.mean(np.abs(alt - base)))


# ---------------------------------------------------------------------------
# three-model comparison

MODEL_ROWS = ("full", "unaware", "fair")
METRIC_COLUMNS = ("train_r2", "test_r2", "counterfactual_gap_sex", "counterfactual_gap_age")
_TABLE_LABELS = ("train_r2", "test_r2", "gap_sex", "gap_age")


@dataclass
class ComparisonReport:
    """R-squared and flip gaps for the three predictors.

    The fair row's test_r2 is the honest protocol's score, which excludes
    credit from test-time latent inference; fair_test_r2_leaky is the leaky
    one's, which conditions on it, and is reported for comparison only.
    """

    metrics: dict[str, dict[str, float]]
    fair_test_r2_leaky: float
    n_train: int
    n_test: int
    split_seed: int | None
    sampler_seed: int
    age_mode: str
    age_years: float

    def to_csv_text(self) -> str:
        lines = [
            f"# n_train={self.n_train} n_test={self.n_test}",
            f"# split_seed={self.split_seed} sampler_seed={self.sampler_seed}",
            f"# age_flip={self.age_mode}"
            + (f" years={self.age_years:g}" if self.age_mode == "shift" else ""),
            f"# fair_test_r2_honest={self.metrics['fair']['test_r2']:.6g}"
            " (credit excluded from test-time latent inference)",
            f"# fair_test_r2_leaky={self.fair_test_r2_leaky:.6g}"
            " (test latents conditioned on observed credit; comparison only)",
            "model," + ",".join(METRIC_COLUMNS),
        ]
        for row in MODEL_ROWS:
            vals = self.metrics[row]
            lines.append(row + "," + ",".join(f"{vals[m]:.6g}" for m in METRIC_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_text_table(self) -> str:
        width = 12
        head = "model".ljust(8) + "".join(m.rjust(width) for m in _TABLE_LABELS)
        out = [head]
        for row in MODEL_ROWS:
            vals = self.metrics[row]
            out.append(
                row.ljust(8)
                + "".join(f"{vals[m]:.4f}".rjust(width) for m in METRIC_COLUMNS)
            )
        out.append("")
        out.append(
            "  honest (credit excluded from test-time latent inference): "
            f"{self.metrics['fair']['test_r2']:.4f}"
        )
        out.append(
            "  leaky  (test latents see the observed credit; comparison only): "
            f"{self.fair_test_r2_leaky:.4f}"
        )
        return "\n".join(out) + "\n"


def compare_models(
    train: Dataset,
    test: Dataset,
    chain: Chain,
    forest_config: ForestConfig,
    age_mode: str = "mirror",
    age_years: float = 10.0,
) -> ComparisonReport:
    """Fit all three models and score them on both splits.

    train and test must come from one split (dataset.split records it on
    both, and None on data that no split made), and the report's split seed
    is its seed. The fair model is stage two on chain, a stage-one chain run
    on train, which carries its model and sampler configs; the report's
    sampler seed is the chain's. The fair training score uses the stage-one
    latent means the forest was actually trained on. The fair test_r2 and
    the flip gaps use the honest protocol (credit excluded from test-time
    inference); the leaky one (conditioned on it) is scored beside them.
    Pass the chain as a temporary: the draws are freed here, before
    test-time inference.
    """
    if train.split != test.split:
        raise ValueError(
            f"train and test come from different splits: {train.split} and {test.split}"
        )
    y_train = np.asarray(train.credit, dtype=float)
    y_test = np.asarray(test.credit, dtype=float)
    sex_flipped = flip_sex(test)
    age_flipped = flip_age(test, mode=age_mode, years=age_years)

    def scores(model, train_pred: np.ndarray, test_pred: np.ndarray) -> dict[str, float]:
        # the factual test predictions are the base of both gaps, so each
        # model predicts the factual test set once
        return {
            "train_r2": r_squared(train_pred, y_train),
            "test_r2": r_squared(test_pred, y_test),
            "counterfactual_gap_sex": _flip_gap(model, sex_flipped, test_pred),
            "counterfactual_gap_age": _flip_gap(model, age_flipped, test_pred),
        }

    metrics: dict[str, dict[str, float]] = {}
    for name, model in (("full", fit_full(train)), ("unaware", fit_unaware(train))):
        metrics[name] = scores(model, _predictions(model, train), _predictions(model, test))

    fair = fit_fair(train, chain, forest_config)
    c_train, sampler_seed = chain.latent_mean, chain.config.seed
    del chain  # lets the stage-one draws be freed before test-time inference
    metrics["fair"] = scores(fair, predict_forest(fair.forest, c_train), _predictions(fair, test))
    return ComparisonReport(
        metrics=metrics,
        fair_test_r2_leaky=r_squared(_predictions(fair, test, condition_on_credit=True), y_test),
        n_train=len(train),
        n_test=len(test),
        split_seed=None if train.split is None else train.split.seed,
        sampler_seed=sampler_seed,
        age_mode=age_mode,
        age_years=age_years,
    )
