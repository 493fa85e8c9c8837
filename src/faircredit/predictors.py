"""Credit predictors: OLS baselines, a bagged regression forest, and the
two-stage fair model.

The fair model first infers each person's latent reliability score with the
sampler (training stage conditions on everything including credit), then
regresses credit on that single score with a bagged forest of CART trees.
At prediction time the score is re-inferred without the credit term, so the
target never feeds its own feature.

Every tree splits that one score, so the forest is kept, predicted and stored
as the single step function its trees average to.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, RankDeficientError, UserError
from .probmodel import ModelConfig, ModelParams
from .sampler import Chain, SamplerConfig, infer_latents, run_chain
from .util import (
    STREAM_TREE,
    atomic_write_text,
    derive_rng,
    format_kv_text,
    parse_bool,
    parse_kv_text,
)

FULL_FEATURES = ("sex", "age_std", "job", "house")
UNAWARE_FEATURES = ("job", "house")


# ---------------------------------------------------------------------------
# ordinary least squares

@dataclass
class LinearModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float

    def to_kv_text(self, header_lines: tuple[str, ...] = ()) -> str:
        items = {"intercept": repr(float(self.intercept))}
        for name, b in zip(self.feature_names, self.coefficients):
            items[f"coef.{name}"] = repr(float(b))
        return format_kv_text(items, header_lines)

    @classmethod
    def from_kv_text(cls, text: str) -> "LinearModel":
        raw = parse_kv_text(text, where="linear model")
        if "intercept" not in raw:
            raise UserError("linear model file is missing 'intercept'")
        names = tuple(k[len("coef."):] for k in raw if k.startswith("coef."))
        coefs = np.array([float(raw[f"coef.{n}"]) for n in names])
        return cls(feature_names=names, coefficients=coefs, intercept=float(raw["intercept"]))


def feature_matrix(data: Dataset, names: Sequence[str]) -> np.ndarray:
    cols = []
    for n in names:
        if n not in ("sex", "age_std", "job", "house"):
            raise ValueError(f"unknown feature {n!r}")
        cols.append(np.asarray(getattr(data, n), dtype=float))
    return np.column_stack(cols)


def _householder_qr(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR with column pivoting (Golub & Van Loan, Algorithm 5.4.1).

    Returns (R, c, piv) with A[:, piv] = Q R, where Q has p orthonormal
    columns, R is (p, p) upper triangular and c = Q^T y. Step k brings the
    column of largest remaining norm to position k, so |R[k, k]| never
    increases. Those norms are recomputed at each step, not downdated.
    """
    R = A.copy()
    b = y.copy()
    p = R.shape[1]
    piv = np.arange(p)
    for k in range(p):
        j = k + int(np.argmax(np.einsum("ij,ij->j", R[k:, k:], R[k:, k:])))
        R[:, [k, j]] = R[:, [j, k]]
        piv[[k, j]] = piv[[j, k]]
        x = R[k:, k]
        alpha = -math.copysign(float(np.sqrt(x @ x)), float(x[0]))
        if alpha == 0.0:  # the remaining columns are exactly zero
            continue
        v = x.copy()
        v[0] -= alpha
        tau = 2.0 / (v @ v)
        R[k:, k + 1:] -= np.outer(tau * v, v @ R[k:, k + 1:])
        b[k:] -= (tau * (v @ b[k:])) * v
        R[k, k] = alpha
        R[k + 1:, k] = 0.0
    return R[:p], b[:p], piv


def fit_ols(
    features: np.ndarray, targets: np.ndarray, feature_names: Sequence[str] | None = None
) -> LinearModel:
    """Least squares through a pivoted Householder QR (never normal equations).

    The intercept column is prepended internally. The coefficients solve
    R beta = Q^T y by back substitution. Rank deficiency (a diagonal entry of
    R within max(n, p+1) * eps * |R[0, 0]| of zero) raises and names the first
    column the pivoting could not add independently, piv[rank].
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"targets shape {y.shape} does not match {n} rows")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(p))
    feature_names = tuple(feature_names)
    if len(feature_names) != p:
        raise ValueError("feature_names length does not match feature count")
    if n <= p + 1:
        raise DataError(f"need more rows ({n}) than coefficients ({p + 1}) to fit")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("features/targets contain non-finite values")

    A = np.column_stack([np.ones(n), X])
    r, qty, piv = _householder_qr(A, y)
    diag = np.abs(np.diag(r))
    tol = max(A.shape) * np.finfo(float).eps * diag[0]
    rank = int(np.count_nonzero(diag > tol))
    if rank < p + 1:
        all_names = ("intercept",) + feature_names
        raise RankDeficientError(
            f"design matrix is rank deficient (rank {rank} of {p + 1}); "
            f"column {all_names[piv[rank]]!r} is linearly dependent on the others"
        )
    beta_perm = np.empty(p + 1)
    for i in range(p, -1, -1):
        beta_perm[i] = (qty[i] - r[i, i + 1:] @ beta_perm[i + 1:]) / r[i, i]
    beta = np.empty(p + 1)
    beta[piv] = beta_perm
    return LinearModel(
        feature_names=feature_names, coefficients=beta[1:].copy(), intercept=float(beta[0])
    )


def predict_ols(model: LinearModel, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.coefficients.shape[0]:
        raise ValueError(
            f"feature matrix has shape {X.shape}, expected (*, {model.coefficients.shape[0]})"
        )
    return model.intercept + X @ model.coefficients


def fit_full(train: Dataset) -> LinearModel:
    """OLS of credit on (sex, age_std, job, house)."""
    train.validate()
    return fit_ols(
        feature_matrix(train, FULL_FEATURES),
        np.asarray(train.credit, dtype=float),
        FULL_FEATURES,
    )


def fit_unaware(train: Dataset) -> LinearModel:
    """OLS of credit on (job, house) only: protected attributes dropped."""
    train.validate()
    return fit_ols(
        feature_matrix(train, UNAWARE_FEATURES),
        np.asarray(train.credit, dtype=float),
        UNAWARE_FEATURES,
    )


# ---------------------------------------------------------------------------
# bagged regression trees on the single latent feature

@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    max_depth: int = 6
    min_leaf: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class ForestModel:
    """The bagged forest as one step function: values[j] is the mean of the
    trees' leaves on interval j, (breaks[j-1], breaks[j]]; the first interval
    is unbounded below and the last, j = len(breaks), ends at inf."""

    config: ForestConfig
    breaks: np.ndarray
    values: np.ndarray


def _build_tree(
    c: np.ndarray, y: np.ndarray, depth: int, cfg: ForestConfig
) -> tuple[list[float], list[float]]:
    """One CART tree as its split thresholds in order and its leaf values from
    left to right. A point x lands in leaf searchsorted(thresholds, x, "left"),
    the leaf that a walk sending x <= threshold to the left reaches."""
    order = np.argsort(c, kind="stable")
    thresholds, leaves = _grow(c[order], y[order], depth, cfg)
    if not thresholds:
        leaves = [float(np.mean(y))]  # a lone leaf averages y in the order given
    return thresholds, leaves


def _grow(
    cs: np.ndarray, ys: np.ndarray, depth: int, cfg: ForestConfig
) -> tuple[list[float], list[float]]:
    """_build_tree on points already sorted by c. Every slice of them stays
    sorted, so no node sorts again, and only leaves take a mean."""
    n = cs.shape[0]
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or float(np.min(ys)) == float(np.max(ys)):
        return [], [float(np.mean(ys))]  # no room to split, or zero variance
    # candidate split after position i (1-based left size), only where the
    # feature value actually changes; thresholds are midpoints
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    total = csum[-1]
    total2 = csum2[-1]
    left_n = np.arange(1, n)
    valid = (cs[:-1] < cs[1:]) & (left_n >= cfg.min_leaf) & ((n - left_n) >= cfg.min_leaf)
    if not np.any(valid):
        return [], [float(np.mean(ys))]
    lsum = csum[:-1]
    lsum2 = csum2[:-1]
    rsum = total - lsum
    rsum2 = total2 - lsum2
    rn = n - left_n
    sse = (lsum2 - lsum * lsum / left_n) + (rsum2 - rsum * rsum / rn)
    sse = np.where(valid, sse, np.inf)
    best = int(np.argmin(sse))
    if not np.isfinite(sse[best]):
        return [], [float(np.mean(ys))]
    threshold = float((cs[best] + cs[best + 1]) / 2.0)
    left_t, left_v = _grow(cs[: best + 1], ys[: best + 1], depth + 1, cfg)
    right_t, right_v = _grow(cs[best + 1 :], ys[best + 1 :], depth + 1, cfg)
    return left_t + [threshold] + right_t, left_v + right_v


def fit_forest(c_values: np.ndarray, targets: np.ndarray, config: ForestConfig) -> ForestModel:
    """Bagged variance-minimizing CART trees on the single latent feature.

    Each tree draws a same-size bootstrap from derive_rng(seed, 3, tree_index),
    so fitting is deterministic and order-independent. The trees are merged at
    all their thresholds, so each is constant on every interval, whose value is
    the fsum of their leaves over n_trees: bit for bit the average of walking
    every tree.
    """
    config.validate()
    c = np.asarray(c_values, dtype=float)
    y = np.asarray(targets, dtype=float)
    if c.ndim != 1 or c.shape != y.shape:
        raise ValueError("c_values and targets must be matching 1-D arrays")
    if c.shape[0] < 1:
        raise DataError("cannot fit a forest to an empty dataset")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(y))):
        raise DataError("forest inputs contain non-finite values")
    n = c.shape[0]
    trees = []
    for t in range(config.n_trees):
        rng = derive_rng(config.seed, STREAM_TREE, t)
        idx = rng.integers(0, n, size=n)
        trees.append(_build_tree(c[idx], y[idx], 0, config))
    # sweep the breaks in order: current holds each tree's leaf on the interval
    # ending at the next break, and passing a break moves every tree that
    # splits there one leaf to the right
    trees_at: dict[float, list[int]] = {}
    for t, (thresholds, _) in enumerate(trees):
        for x in thresholds:
            trees_at.setdefault(x, []).append(t)
    breaks = sorted(trees_at)
    rest = [iter(leaves) for _, leaves in trees]
    current = [next(it) for it in rest]
    sums = []
    for x in breaks:
        sums.append(math.fsum(current))
        for t in trees_at[x]:
            current[t] = next(rest[t])
    sums.append(math.fsum(current))
    return ForestModel(config, np.array(breaks, dtype=float), np.array(sums) / config.n_trees)


def predict_forest(model: ForestModel, c_values: np.ndarray) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c_values, dtype=float))
    return model.values[np.searchsorted(model.breaks, c, side="left")]


# forest text format: the header, then one "<upper end> <value>" line per
# interval in increasing order; the last interval's upper end is inf
FOREST_FORMAT = "forest/2"


def forest_to_text(model: ForestModel, header_lines: tuple[str, ...] = ()) -> str:
    lines = [f"# {h}" for h in header_lines]
    cfg = model.config
    lines += [
        f"format = {FOREST_FORMAT}",
        f"n_trees = {cfg.n_trees}",
        f"max_depth = {cfg.max_depth}",
        f"min_leaf = {cfg.min_leaf}",
        f"seed = {cfg.seed}",
    ]
    ends = model.breaks.tolist() + [math.inf]
    lines += [f"{b!r} {v!r}" for b, v in zip(ends, model.values.tolist())]
    return "\n".join(lines) + "\n"


def _field(raw: dict[str, str], key: str, convert, where: str):
    """raw[key] through convert; a missing or unreadable value is a UserError."""
    if key not in raw:
        raise UserError(f"{where} is missing {key!r}")
    try:
        return convert(raw[key])
    except ValueError:
        raise UserError(f"{where}: bad value for {key!r}: {raw[key]!r}") from None


def forest_from_text(text: str) -> ForestModel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    meta: dict[str, str] = {}
    pos = 0
    while pos < len(lines) and "=" in lines[pos]:
        k, _, v = lines[pos].partition("=")
        meta[k.strip()] = v.strip()
        pos += 1
    if meta.get("format") != FOREST_FORMAT:
        raise UserError(f"unsupported forest format: {meta.get('format')!r}")
    cfg = ForestConfig(
        n_trees=_field(meta, "n_trees", int, "forest header"),
        max_depth=_field(meta, "max_depth", int, "forest header"),
        min_leaf=_field(meta, "min_leaf", int, "forest header"),
        seed=_field(meta, "seed", int, "forest header"),
    )
    intervals = []
    for line in lines[pos:]:
        try:
            end, value = (float(f) for f in line.split())
        except ValueError:
            raise UserError(f"malformed forest interval line: {line!r}") from None
        intervals.append((end, value))
    if not intervals or intervals[-1][0] != math.inf:
        raise UserError("truncated forest file: the last interval must end at inf")
    ends, values = np.array(intervals).T.copy()
    breaks = ends[:-1]
    increasing = np.all(breaks[:-1] < breaks[1:])
    if not (increasing and np.isfinite(breaks).all() and np.isfinite(values).all()):
        raise UserError(
            "malformed forest file: breakpoints must be finite and strictly "
            "increasing, and values finite"
        )
    return ForestModel(config=cfg, breaks=breaks, values=values)


# ---------------------------------------------------------------------------
# the two-stage fair model

@dataclass
class FairModel:
    """Stage-one posterior medians plus the stage-two forest.

    latent_point picks the per-observation point estimate fed to the forest:
    the posterior mean (default) or median of the latent score, from the
    chain's draws at training time and computed exactly at prediction time.
    latent_sampler_config records the stage-one chain's settings in the model
    directory; prediction does not use it.
    """

    theta_hat: ModelParams
    forest: ForestModel
    latent_sampler_config: SamplerConfig
    model_config: ModelConfig = field(default_factory=ModelConfig)
    latent_point: str = "mean"


def fit_fair(
    train: Dataset,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    forest_config: ForestConfig,
    latent_point: str = "mean",
    chain: Chain | None = None,
) -> FairModel:
    """Two-stage fit: full-model chain, then forest of credit on the latent score.

    Pass a chain already run on (train, model_config, sampler_config) to skip
    the sampling stage.
    """
    if latent_point not in ("mean", "median"):
        raise ConfigError(f"latent_point must be 'mean' or 'median', got {latent_point!r}")
    train.validate()
    if chain is None:
        chain = run_chain(train, model_config, sampler_config)
    if chain.latent_draws.shape[1] != len(train):
        raise ValueError("chain latent width does not match the training set")
    theta_hat = chain.theta_median()
    c_feat = chain.latent_means() if latent_point == "mean" else chain.latent_medians()
    forest = fit_forest(c_feat, np.asarray(train.credit, dtype=float), forest_config)
    return FairModel(
        theta_hat=theta_hat,
        forest=forest,
        latent_sampler_config=sampler_config,
        model_config=model_config,
        latent_point=latent_point,
    )


def fair_latent_points(
    model: FairModel, data: Dataset, condition_on_credit: bool = False
) -> np.ndarray:
    """Per-observation latent point estimates at prediction time.

    Each is an exact function of its own row under theta_hat, with nothing
    random, so two datasets that differ only in a flipped attribute differ
    in their points only through that attribute.
    """
    post = infer_latents(
        model.theta_hat, data, model.model_config, include_credit=condition_on_credit
    )
    return post.mean if model.latent_point == "mean" else post.median


def predict_fair(model: FairModel, test: Dataset, condition_on_credit: bool = False) -> np.ndarray:
    """Forest prediction on re-inferred latent scores.

    condition_on_credit=True reproduces the leaky protocol where the observed
    credit informs its own feature; keep it False for honest prediction.
    """
    test.validate()
    c_hat = fair_latent_points(model, test, condition_on_credit)
    return predict_forest(model.forest, c_hat)


# ---------------------------------------------------------------------------
# fair model directory io

def save_fair_model(model: FairModel, out_dir: str, header_lines: tuple[str, ...] = ()) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "params.kv"), model.theta_hat.to_kv_text(header_lines))
    atomic_write_text(os.path.join(out_dir, "forest.txt"), forest_to_text(model.forest, header_lines))
    sc = model.latent_sampler_config
    mc = model.model_config
    items = {
        "sampler.iterations": str(sc.iterations),
        "sampler.burn_in": str(sc.burn_in),
        "sampler.thin": str(sc.thin),
        "sampler.delta": repr(sc.delta),
        "sampler.param_step": repr(sc.param_step),
        "sampler.adapt_during_burn_in": str(sc.adapt_during_burn_in).lower(),
        "sampler.target_accept": repr(sc.target_accept),
        "sampler.seed": str(sc.seed),
        "model.include_credit_intercept": str(mc.include_credit_intercept).lower(),
        "model.credit_scale": repr(mc.credit_scale),
        "model.poisson_rate_cap": repr(mc.poisson_rate_cap),
        "latent_point": model.latent_point,
    }
    atomic_write_text(os.path.join(out_dir, "config.kv"), format_kv_text(items, header_lines))


def load_fair_model(model_dir: str) -> FairModel:
    def read(name: str) -> str:
        path = os.path.join(model_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise UserError(f"cannot read fair model file {path}: {exc}") from exc

    params_path = os.path.join(model_dir, "params.kv")
    try:
        theta = ModelParams.from_kv_text(read("params.kv"))
    except ValueError as exc:
        raise UserError(f"{params_path}: {exc}") from None
    forest = forest_from_text(read("forest.txt"))
    raw = parse_kv_text(read("config.kv"), where="fair model config")
    where = os.path.join(model_dir, "config.kv")

    def get(key, convert):
        return _field(raw, key, convert, where)

    def flag(key):
        return get(key, lambda v: parse_bool(v, key))

    sc = SamplerConfig(
        iterations=get("sampler.iterations", int),
        burn_in=get("sampler.burn_in", int),
        thin=get("sampler.thin", int),
        delta=get("sampler.delta", float),
        param_step=get("sampler.param_step", float),
        adapt_during_burn_in=flag("sampler.adapt_during_burn_in"),
        target_accept=get("sampler.target_accept", float),
        seed=get("sampler.seed", int),
    )
    mc = ModelConfig(
        include_credit_intercept=flag("model.include_credit_intercept"),
        credit_scale=get("model.credit_scale", float),
        poisson_rate_cap=get("model.poisson_rate_cap", float),
    )
    try:
        sc.validate()
        mc.validate()
    except ValueError as exc:
        raise UserError(f"{where}: {exc}") from None
    latent_point = get("latent_point", str)
    if latent_point not in ("mean", "median"):
        raise UserError(f"{where}: latent_point must be 'mean' or 'median', got {latent_point!r}")
    if (theta.b_c is not None) != mc.include_credit_intercept:
        raise UserError(
            f"{params_path}: b_c is {'missing' if theta.b_c is None else 'present'}, but "
            f"model.include_credit_intercept = {raw['model.include_credit_intercept']}"
        )
    return FairModel(
        theta_hat=theta,
        forest=forest,
        latent_sampler_config=sc,
        model_config=mc,
        latent_point=latent_point,
    )
