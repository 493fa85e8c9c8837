"""Credit predictors: OLS baselines, a bagged regression forest, and the
two-stage fair model.

The fair model first infers each person's latent reliability score with the
sampler (training stage conditions on everything including credit), then
regresses credit on that single score with a bagged forest of CART trees.
At prediction time the score is re-inferred without the credit term, so the
target never feeds its own feature.

Every tree splits that one score, so the forest is kept, predicted and stored
as the single step function its trees average to. The trees grow together,
level by level, one vectorized SSE scan cutting a whole block of nodes, bit
for bit as if each node were grown alone.
"""

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import Dataset
from .errors import DataError, RankDeficientError, UserError
from .probmodel import ModelConfig, ModelParams
from .sampler import Chain, infer_latent
from .util import (
    STREAM_TREE,
    atomic_write_text,
    check_seed,
    config_from_items,
    config_items,
    derive_rng,
    format_kv_text,
    parse_finite,
    parse_kv_text,
    read_text,
    validated,
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

    def to_kv_text(self) -> str:
        items = {"intercept": repr(float(self.intercept))}
        for name, b in zip(self.feature_names, self.coefficients):
            items[f"coef.{name}"] = repr(float(b))
        return format_kv_text(items)

    @classmethod
    def from_kv_text(cls, text: str) -> "LinearModel":
        """The model to_kv_text wrote. A repeated key is a ConfigError (parse_kv_text);
        no intercept, a key other than intercept and coef.*, or a value not a
        finite number (parse_finite), a UserError."""
        raw = parse_kv_text(text, where="linear model")
        if "intercept" not in raw:
            raise UserError("linear model file is missing 'intercept'")
        unknown = [k for k in raw if k != "intercept" and not k.startswith("coef.")]
        if unknown:
            raise UserError(f"linear model file: unknown key {unknown[0]!r}")
        keys = ["intercept", *(k for k in raw if k.startswith("coef."))]
        values = [parse_finite(raw[k], k, UserError, "linear model file: ") for k in keys]
        names = tuple(k[len("coef."):] for k in keys[1:])
        return cls(feature_names=names, coefficients=np.array(values[1:]), intercept=values[0])


def feature_matrix(data: Dataset, names: Sequence[str]) -> np.ndarray:
    cols = []
    for n in names:
        if n not in ("sex", "age_std", "job", "house"):
            raise ValueError(f"unknown feature {n!r}")
        cols.append(np.asarray(getattr(data, n), dtype=float))
    return np.column_stack(cols)


def fit_ols(
    features: np.ndarray, targets: np.ndarray, feature_names: Sequence[str] | None = None
) -> LinearModel:
    """Least squares through numpy's QR of the design (never normal equations).

    The intercept is prepended as column 0, and the coefficients solve
    R beta = Q^T y: LAPACK's LU of a triangular R is R, so that is back
    substitution. Column j is dependent when |R[j, j]| <= max(n, p+1) * eps
    * |A[:, j]|, a bound that scales with the column's own norm; rank
    deficiency raises and names the first such column as spanned by the
    columns before it.
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
    q, r = np.linalg.qr(A)
    diag = np.abs(np.diag(r))
    tol = max(A.shape) * np.finfo(float).eps * np.linalg.norm(A, axis=0)
    dependent = np.flatnonzero(diag <= tol)
    if dependent.size:
        all_names = ("intercept",) + feature_names
        raise RankDeficientError(
            f"design matrix is rank deficient: column {all_names[dependent[0]]!r} is spanned "
            "by the columns before it"
        )
    beta = np.linalg.solve(r, q.T @ y)
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
    return fit_ols(
        feature_matrix(train, FULL_FEATURES),
        np.asarray(train.credit, dtype=float),
        FULL_FEATURES,
    )


def fit_unaware(train: Dataset) -> LinearModel:
    """OLS of credit on (job, house) only: protected attributes dropped."""
    return fit_ols(
        feature_matrix(train, UNAWARE_FEATURES),
        np.asarray(train.credit, dtype=float),
        UNAWARE_FEATURES,
    )


# ---------------------------------------------------------------------------
# bagged regression trees on the single latent feature

@dataclass(frozen=True)
class ForestConfig:
    """The forest's size and seed, checked (validate) when built."""

    n_trees: int = 200
    max_depth: int = 6
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        check_seed(self.seed, "seed")


@dataclass
class ForestModel:
    """The bagged forest as one step function: values[j] is the mean of the
    trees' leaves on interval j, (breaks[j-1], breaks[j]]; the first interval
    is unbounded below and the last, j = len(breaks), ends at inf."""

    config: ForestConfig
    breaks: np.ndarray
    values: np.ndarray


# The grower sorts this many bootstrap points at a time and cuts a level's
# nodes in padded blocks of at most this many, so its working set stays near 1 MiB.
BLOCK_ELEMS = 1 << 14

Tree = tuple[list[float], list[float]]


def _grow_trees(
    c: np.ndarray, y: np.ndarray, boot: np.ndarray, depth: int, cfg: ForestConfig
) -> list[Tree]:
    """One CART tree per row of boot, a (k, n) array of indices into c and y,
    every tree grown at once, one level at a time, from depth.

    Each tree is its split thresholds in order and its leaf values from left
    to right. A point x lands in leaf searchsorted(thresholds, x, "left"), the
    leaf that a walk sending x <= threshold to the left reaches.

    The samples are sorted by c once, end to end, and every node is a run of
    them. A leaf takes np.mean's sum of its run; a tree that never splits
    averages y in the order given. Leaves and cuts are recorded at their first
    point, so sorting by that puts each tree's leaves and thresholds in order.
    """
    k, n = boot.shape
    size_all = k * n
    # a stable sort: the keys (rank of c, position) are distinct, and ranks tie where c does
    rank = np.unique(c, return_inverse=True)[1]
    order = np.take_along_axis(boot, np.sort(rank[boot] * n + np.arange(n), axis=1) % n, 1)
    cs = c[order.ravel()]
    ys = np.zeros(size_all + n)  # n of padding, so a window of n from any point fits
    ys[:size_all] = y[order.ravel()]
    del order
    tied = np.ones(size_all + n, dtype=bool)  # tied[i]: no cut between points i and i + 1
    np.greater_equal(cs[:-1], cs[1:], out=tied[: size_all - 1])
    steps = np.zeros(size_all, dtype=np.intp)  # y is constant on a run with equal end steps
    np.cumsum(ys[1:size_all] != ys[: size_all - 1], out=steps[1:])
    y_rows = as_strided(ys, (size_all, n), (ys.itemsize,) * 2, writeable=False)
    tie_rows = as_strided(tied, (size_all, n), (tied.itemsize,) * 2, writeable=False)

    start, size = np.arange(0, size_all, n), np.full(k, n)
    cut_at, leaf_at, leaf_size = [], [], []
    while start.size:
        left = np.zeros_like(size)
        if depth < cfg.max_depth:
            can = (size >= 2 * cfg.min_leaf) & (steps[start + size - 1] != steps[start])
            left[can] = _best_cuts(y_rows, tie_rows, start[can], size[can], cfg.min_leaf)
        split = left > 0
        leaf_at.append(start[~split])
        leaf_size.append(size[~split])
        start, left, size = start[split], left[split], size[split]
        cut_at.append(start + left - 1)
        start, size = np.concatenate([start, start + left]), np.concatenate([left, size - left])
        depth += 1

    cut_at = np.sort(np.concatenate(cut_at))
    thresholds = (cs[cut_at] + cs[cut_at + 1]) / 2.0
    leaf_at, leaf_size = np.concatenate(leaf_at), np.concatenate(leaf_size)
    by_start = np.argsort(leaf_at)
    leaf_at, leaf_size = leaf_at[by_start], leaf_size[by_start]
    leaves = np.empty(leaf_at.size)
    # equal-length leaves sum as rows of one block, bit for bit as np.mean
    by_size = np.argsort(leaf_size, kind="stable")
    for rows in np.split(by_size, np.flatnonzero(np.diff(leaf_size[by_size])) + 1):
        length = int(leaf_size[rows[0]])
        leaves[rows] = y_rows[leaf_at[rows], :length].sum(axis=1) / length
    cuts, ends = (np.searchsorted(at, np.arange(0, size_all + 1, n)) for at in (cut_at, leaf_at))
    for t in np.flatnonzero(cuts[1:] == cuts[:-1]):  # the tree never splits
        leaves[ends[t]] = np.mean(y[boot[t]])
    return [
        (thresholds[cuts[t] : cuts[t + 1]].tolist(), leaves[ends[t] : ends[t + 1]].tolist())
        for t in range(k)
    ]


def _best_cuts(
    y_rows: np.ndarray, tie_rows: np.ndarray, start: np.ndarray, size: np.ndarray, min_leaf: int
) -> np.ndarray:
    """The left size of each node's least-SSE cut, or 0 where it has none.

    Rows y_rows[i] and tie_rows[i] are windows from sorted point i. Longest
    first, nodes are cut in blocks of at most BLOCK_ELEMS, each a row padded to
    its block's longest node, which at most doubles it. Each row takes the
    arithmetic of a lone node, and argmin keeps the first least SSE.
    """
    left = np.zeros_like(size)
    order = np.argsort(-size, kind="stable")
    neg_size = -size[order]
    i = 0
    while i < order.size:
        width = -int(neg_size[i])
        end = min(int(np.searchsorted(neg_size, -width / 2)), i + max(1, BLOCK_ELEMS // width))
        rows, i = order[i:end], end
        s, m, r = start[rows], size[rows], np.arange(rows.size)
        block = y_rows[s, :width]
        csum = np.cumsum(block, axis=1)
        csum2 = np.cumsum(np.multiply(block, block, out=block), axis=1)
        total, total2 = csum[r, m - 1][:, None], csum2[r, m - 1][:, None]
        # sse = (lsum2 - lsum * lsum / left_n) + (rsum2 - rsum * rsum / right_n)
        # for a cut after column j, with lsum = csum[:, j] and left_n = j + 1
        left_n = np.arange(1.0, width + 1)
        right_n = m[:, None].astype(float) - left_n
        invalid = tie_rows[s, :width] | (right_n < min_leaf)
        invalid[:, : min_leaf - 1] = True
        sse = np.multiply(csum, csum, out=block)
        sse /= left_n
        np.subtract(csum2, sse, out=sse)
        right = np.subtract(total, csum, out=csum)
        right *= right
        right /= np.maximum(right_n, 1.0, out=right_n)
        np.subtract(np.subtract(total2, csum2, out=csum2), right, out=right)
        sse += right
        sse[invalid] = np.inf
        best = sse.argmin(axis=1)
        left[rows] = np.where(np.isfinite(sse[r, best]), best + 1, 0)
    return left


def fit_forest(c_values: np.ndarray, targets: np.ndarray, config: ForestConfig) -> ForestModel:
    """Bagged variance-minimizing CART trees on the single latent feature.

    Each tree draws a same-size bootstrap from derive_rng(seed, 3, tree_index),
    so fitting is deterministic and order-independent. The trees are merged at
    all their thresholds, so each is constant on every interval, whose value is
    the fsum of their leaves over n_trees: bit for bit the average of walking
    every tree.
    """
    c = np.asarray(c_values, dtype=float)
    y = np.asarray(targets, dtype=float)
    if c.ndim != 1 or c.shape != y.shape:
        raise ValueError("c_values and targets must be matching 1-D arrays")
    if c.shape[0] < 1:
        raise DataError("cannot fit a forest to an empty dataset")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(y))):
        raise DataError("forest inputs contain non-finite values")
    n = c.shape[0]
    per_block = max(1, BLOCK_ELEMS // n)
    trees = []
    for first in range(0, config.n_trees, per_block):
        boot = np.empty((min(per_block, config.n_trees - first), n), dtype=np.int64)
        for j in range(boot.shape[0]):
            boot[j] = derive_rng(config.seed, STREAM_TREE, first + j).integers(0, n, size=n)
        trees += _grow_trees(c, y, boot, 0, config)
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


def forest_to_text(model: ForestModel) -> str:
    meta = {"format": FOREST_FORMAT, **config_items(model.config)}
    ends = model.breaks.tolist() + [math.inf]
    intervals = "".join(f"{b!r} {v!r}\n" for b, v in zip(ends, model.values.tolist()))
    return format_kv_text(meta) + intervals


def forest_from_text(text: str) -> ForestModel:
    """The forest forest_to_text wrote. Its header, the lines before the first with
    no '=', is read by parse_kv_text, so a repeated key is a ConfigError, and its
    config as the forest.* keys are. Any other fault raises a UserError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    pos = next((i for i, ln in enumerate(lines) if "=" not in ln), len(lines))
    meta = parse_kv_text("\n".join(lines[:pos]), where="forest header")
    if meta.get("format") != FOREST_FORMAT:
        raise UserError(f"unsupported forest format: {meta.get('format')!r}")
    cfg = validated("forest header", config_from_items, ForestConfig, meta)
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

    The forest's feature is each row's posterior mean latent score, averaged
    over the chain's draws at training time and computed exactly at
    prediction time.
    """

    theta_hat: ModelParams
    forest: ForestModel
    model_config: ModelConfig


def fit_fair(train: Dataset, chain: Chain, forest_config: ForestConfig) -> FairModel:
    """Stage two: a forest of credit on the latent means of a stage-one chain
    run on train.

    The chain carries the model config it ran with, which the fair model
    keeps beside the chain's posterior medians.
    """
    if len(chain.latent_mean) != len(train):
        raise ValueError("chain latent width does not match the training set")
    forest = fit_forest(chain.latent_mean, np.asarray(train.credit, dtype=float), forest_config)
    return FairModel(
        theta_hat=chain.theta_median(), forest=forest, model_config=chain.model_config
    )


def fair_latent_points(
    model: FairModel, data: Dataset, condition_on_credit: bool = False
) -> np.ndarray:
    """Per-observation posterior mean latent scores at prediction time.

    Each is an exact function of its own row under theta_hat, with nothing
    random, so two datasets that differ only in a flipped attribute differ
    in their points only through that attribute.
    """
    return infer_latent(
        model.theta_hat, data, model.model_config, include_credit=condition_on_credit
    )


def predict_fair(model: FairModel, test: Dataset, condition_on_credit: bool = False) -> np.ndarray:
    """Forest prediction on re-inferred latent scores.

    condition_on_credit=True reproduces the leaky protocol where the observed
    credit informs its own feature; keep it False for honest prediction.
    """
    c_hat = fair_latent_points(model, test, condition_on_credit)
    return predict_forest(model.forest, c_hat)


# ---------------------------------------------------------------------------
# fair model directory io

def save_fair_model(model: FairModel, out_dir: str, header: tuple[str, ...] = ()) -> None:
    texts = {
        "params.kv": model.theta_hat.to_kv_text(),
        "forest.txt": forest_to_text(model.forest),
        "config.kv": format_kv_text(config_items(model.model_config, "model.")),
    }
    for name, text in texts.items():
        atomic_write_text(os.path.join(out_dir, name), text, header)


def load_fair_model(model_dir: str) -> FairModel:
    """The model save_fair_model wrote into model_dir; any fault is a UserError."""

    def read(name: str) -> str:
        return read_text(os.path.join(model_dir, name), UserError, "fair model file ")

    params_path = os.path.join(model_dir, "params.kv")
    theta = validated(params_path, ModelParams.from_kv_text, read("params.kv"), params_path)
    forest_text = read("forest.txt")
    try:
        forest = forest_from_text(forest_text)
    except UserError as exc:  # forest_from_text's errors do not know the file
        raise type(exc)(f"{os.path.join(model_dir, 'forest.txt')}: {exc}") from None
    where = os.path.join(model_dir, "config.kv")
    raw = parse_kv_text(read("config.kv"), where=where)
    mc = validated(where, config_from_items, ModelConfig, raw, "model.")
    # older directories record the latent point the forest was trained on:
    # the mean is ignored like any stale key, and another point is refused
    if raw.get("latent_point", "mean") != "mean":
        raise UserError(
            f"{where}: latent_point = {raw['latent_point']} is not supported; "
            "the fair model uses the posterior mean latent score"
        )
    if (theta.b_c is not None) != mc.include_credit_intercept:
        raise UserError(
            f"{params_path}: b_c is {'missing' if theta.b_c is None else 'present'}, but "
            f"model.include_credit_intercept = {raw['model.include_credit_intercept']}"
        )
    return FairModel(theta_hat=theta, forest=forest, model_config=mc)
