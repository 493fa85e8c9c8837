"""Generative credit model: parameters, priors, and log-densities.

A person's job and house indicators follow logistic (logit-link) heads in
sex, standardized age, and a latent reliability score c. Their credit amount
follows a log-linear Poisson head in the same drivers. The latent score and
every parameter carry standard normal priors. Everything here is pure,
log-space, and overflow-guarded.

The likelihood is written once, per head, over arrays of observations
(_head_rows). A logistic row is log sigmoid(z) of the signed predictor z,
computed as min(z, 0) - log1p(exp(-|z|)). That is the formula of numpy's
scalar logaddexp, but run through exp and log1p, whose loops are
vectorized: np.logaddexp calls a scalar function per element and takes
about twice as long at n=800. exp(-|z|) <= 1 cannot overflow.

head_log_likelihood returns one head's rows beside their sum, so the
sampler keeps each head's rows between its parameter and latent steps.
per_obs_log_likelihood adds the heads per observation, and log_posterior
reports a rate overflow from the same rows. Arrays of shape (n, m) evaluate
m latent values per row through Design.columns(), and per_obs_latent_slopes
gives each row's derivatives in c beside the heads (_head_slopes), so
test-time inference (sampler.infer_latents) is an exact function of each
row, computed by the same engine. Only the scalar latent walk
(sampler.infer_latent) restates the heads as scalar arithmetic,
because array calls on one row cost more than the arithmetic itself.
"""

import math
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import RateCapError
from .util import parse_kv_text, format_kv_text

if TYPE_CHECKING:  # only for annotations; avoids a circular import
    from .dataset import Dataset

LOG_2PI = math.log(2.0 * math.pi)

# serialization / update order of the parameters; b_c participates only when
# the credit head has an intercept
PARAM_NAMES = (
    "b_j", "beta_j_s", "beta_j_a", "beta_j_c",
    "b_h", "beta_h_s", "beta_h_a", "beta_h_c",
    "beta_c_s", "beta_c_a", "beta_c_c",
    "b_c",
)
BASE_PARAM_NAMES = PARAM_NAMES[:11]

HEAD_JOB, HEAD_HOUSE, HEAD_CREDIT = 0, 1, 2
# which likelihood head each parameter position feeds
PARAM_HEAD = (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2)


@dataclass(frozen=True)
class ModelConfig:
    """Structural switches of the credit head.

    include_credit_intercept: whether the Poisson head gets an intercept b_c.
    credit_scale: divisor applied to raw credit before treating it as a count.
    poisson_rate_cap: rates above this raise / reject as divergent.
    """

    include_credit_intercept: bool = False
    credit_scale: float = 1.0
    poisson_rate_cap: float = 1e7

    def validate(self) -> None:
        if not (self.credit_scale > 0 and math.isfinite(self.credit_scale)):
            raise ValueError(f"credit_scale must be positive, got {self.credit_scale!r}")
        if not (self.poisson_rate_cap > 0 and math.isfinite(self.poisson_rate_cap)):
            raise ValueError(f"poisson_rate_cap must be positive, got {self.poisson_rate_cap!r}")

    def active_param_names(self) -> tuple[str, ...]:
        return PARAM_NAMES if self.include_credit_intercept else BASE_PARAM_NAMES


DEFAULT_MODEL_CONFIG = ModelConfig()


@dataclass(frozen=True)
class ModelParams:
    """One point in parameter space. b_c is None unless the credit intercept is on."""

    b_j: float = 0.0
    beta_j_s: float = 0.0
    beta_j_a: float = 0.0
    beta_j_c: float = 0.0
    b_h: float = 0.0
    beta_h_s: float = 0.0
    beta_h_a: float = 0.0
    beta_h_c: float = 0.0
    beta_c_s: float = 0.0
    beta_c_a: float = 0.0
    beta_c_c: float = 0.0
    b_c: float | None = None

    def validate(self) -> None:
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if name == "b_c" and v is None:
                continue
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} is not finite: {v!r}")

    def replace(self, **kw) -> "ModelParams":
        return _dc_replace(self, **kw)

    def to_vector(self, include_credit_intercept: bool = False) -> np.ndarray:
        vals = [getattr(self, n) for n in BASE_PARAM_NAMES]
        if include_credit_intercept:
            if self.b_c is None:
                raise ValueError("credit intercept enabled but b_c is None")
            vals.append(self.b_c)
        return np.asarray(vals, dtype=float)

    @classmethod
    def from_vector(cls, vec: Iterable[float]) -> "ModelParams":
        v = [float(x) for x in vec]
        if len(v) == 11:
            return cls(*v)
        if len(v) == 12:
            return cls(*v[:11], b_c=v[11])
        raise ValueError(f"expected 11 or 12 values, got {len(v)}")

    def to_kv_text(self, header_lines: tuple[str, ...] = ()) -> str:
        # float() first: a numpy scalar's repr is not readable back
        items = {n: repr(float(getattr(self, n))) for n in BASE_PARAM_NAMES}
        if self.b_c is not None:
            items["b_c"] = repr(float(self.b_c))
        return format_kv_text(items, header_lines)

    @classmethod
    def from_kv_text(cls, text: str) -> "ModelParams":
        raw = parse_kv_text(text, where="params")
        unknown = set(raw) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        missing = set(BASE_PARAM_NAMES) - set(raw)
        if missing:
            raise ValueError(f"missing parameter names: {sorted(missing)}")
        kw = {k: float(v) for k, v in raw.items()}
        return cls(**kw)


# ---------------------------------------------------------------------------
# densities

def credit_count(credit: float, credit_scale: float) -> int:
    """Count fed to the Poisson head: credit / scale, rounded half to even."""
    return int(np.rint(credit / credit_scale))


def log_prior(theta: ModelParams, config: ModelConfig = DEFAULT_MODEL_CONFIG) -> float:
    """Sum of independent standard normal log-densities over active parameters."""
    theta.validate()
    vec = theta.to_vector(config.include_credit_intercept)
    return float(-0.5 * (len(vec) * LOG_2PI + np.dot(vec, vec)))


def log_posterior(
    theta: ModelParams,
    latents: np.ndarray,
    data: "Dataset",
    config: ModelConfig = DEFAULT_MODEL_CONFIG,
) -> float:
    """Joint log-density: prior + latent prior + full-data likelihood (credit included).

    A credit rate above the cap raises RateCapError naming the first
    overflowing linear predictor. Invalid data raises DataError.
    """
    config.validate()
    data.validate()
    c = np.asarray(latents, dtype=float)
    if c.shape != (len(data),):
        raise ValueError(f"latent vector shape {c.shape} does not match {len(data)} observations")
    if not np.all(np.isfinite(c)):
        raise ValueError("latent vector contains non-finite values")
    design = Design.from_dataset(data, config)
    vec = theta.to_vector(config.include_credit_intercept)
    ll, n_over = per_obs_log_likelihood(vec, c, design, include_credit=True)
    if n_over:
        over_lin = _head_rows(HEAD_CREDIT, vec, c, design)[1]
        raise RateCapError(float(over_lin[0]), config.poisson_rate_cap)
    lp = log_prior(theta, config)
    lp += float(np.sum(-0.5 * (LOG_2PI + c * c)))
    lp += float(np.sum(ll))
    return lp


# ---------------------------------------------------------------------------
# vectorized likelihood engine: each head is written once, in _head_rows

@dataclass
class Design:
    """Per-observation arrays precomputed once per (dataset, model config)."""

    sex: np.ndarray
    age: np.ndarray
    job_sign: np.ndarray    # 2*job - 1
    house_sign: np.ndarray  # 2*house - 1
    counts: np.ndarray      # rounded credit / credit_scale
    lgamma_counts: np.ndarray  # log(counts!), by math.lgamma
    cap_log: float

    @classmethod
    def from_dataset(cls, data: "Dataset", config: ModelConfig) -> "Design":
        sex = np.asarray(data.sex, dtype=float)
        age = np.asarray(data.age_std, dtype=float)
        job = np.asarray(data.job, dtype=float)
        house = np.asarray(data.house, dtype=float)
        counts = np.rint(np.asarray(data.credit, dtype=float) / config.credit_scale)
        lgamma_counts = np.fromiter(map(math.lgamma, (counts + 1.0).tolist()), float, counts.size)
        return cls(
            sex=sex,
            age=age,
            job_sign=2.0 * job - 1.0,
            house_sign=2.0 * house - 1.0,
            counts=counts,
            lgamma_counts=lgamma_counts,
            cap_log=math.log(config.poisson_rate_cap),
        )

    def __len__(self) -> int:
        return self.sex.shape[0]

    def columns(self) -> "Design":
        """The same rows as (n, 1) columns, so that every head broadcasts over
        an (n, m) array of latent values: m points per row."""
        arrays = {f.name: getattr(self, f.name)[:, None] for f in fields(self) if f.name != "cap_log"}
        return _dc_replace(self, **arrays)


_NO_OVERFLOW = np.empty(0)


def _signed_logit(head: int, vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """A logistic head's linear predictor times the outcome's sign (+1 or -1)."""
    o = 4 * head
    sign = design.job_sign if head == HEAD_JOB else design.house_sign
    x = vec[o] + design.sex * vec[o + 1] + design.age * vec[o + 2] + c * vec[o + 3]
    return x * sign


def credit_linear(vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """The credit head's linear predictor, the log of its Poisson rate."""
    lin = design.sex * vec[8] + design.age * vec[9] + c * vec[10]
    if vec.shape[0] == 12:
        lin = lin + vec[11]
    return lin


def _head_rows(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation log-likelihood of one head, and the overflowed credit
    linear predictors.

    The logistic heads work on the signed linear predictor z, never on the
    probability, so they stay exact where it would round to 0 or 1. Their
    rows are log sigmoid(z) = min(z, 0) - log1p(exp(-|z|)), within a few ulp
    of -logaddexp(0, -z), which is the same formula run one element at a time.
    Credit rows whose rate exceeds the cap are -inf, and their linear
    predictors are returned in row order; the second array is empty
    otherwise, and only a rate above the cap costs the masking.
    """
    if head != HEAD_CREDIT:
        z = _signed_logit(head, vec, c, design)
        return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z))), _NO_OVERFLOW
    lin = credit_linear(vec, c, design)
    over = lin > design.cap_log
    if not over.any():
        return design.counts * lin - np.exp(lin) - design.lgamma_counts, _NO_OVERFLOW
    safe = np.where(over, 0.0, lin)
    term = design.counts * lin - np.exp(safe) - design.lgamma_counts
    return np.where(over, -np.inf, term), lin[over]


def _head_slopes(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives in c of _head_rows' per-observation rows.

    A logistic row is log sigmoid(z) for the signed predictor z, whose slope
    in z is sigmoid(-z) and curvature -sigmoid(z) * sigmoid(-z); both come from
    one exp(-|z|), which cannot overflow. A credit row's slope is
    k * (count - rate) and its curvature -k^2 * rate, for latent coefficient k.
    Rates over the cap are not masked: callers keep c where the rate is capped.
    """
    if head != HEAD_CREDIT:
        z = _signed_logit(head, vec, c, design)
        t = np.exp(-np.abs(z))
        k = vec[4 * head + 3]
        sign = design.job_sign if head == HEAD_JOB else design.house_sign
        sig_neg = np.where(z > 0.0, t, 1.0) / (1.0 + t)
        return (k * sign) * sig_neg, -(k * k) * t / ((1.0 + t) * (1.0 + t))
    rate = np.exp(credit_linear(vec, c, design))
    k = vec[10]
    return k * (design.counts - rate), -(k * k) * rate


def head_log_likelihood(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[float, int, np.ndarray]:
    """One head's log-likelihood. Returns (sum, overflow count, per-observation rows).

    Overflowed credit rates give -inf rows and a -inf sum instead of raising,
    so sampler steps can reject them and keep a counter.
    """
    rows, over_lin = _head_rows(head, vec, c, design)
    if over_lin.size:
        return float("-inf"), over_lin.size, rows
    return float(rows.sum()), 0, rows


def per_obs_log_likelihood(
    vec: np.ndarray, c: np.ndarray, design: Design, include_credit: bool = True
) -> tuple[np.ndarray, int]:
    """Per-observation log-likelihood vector. Overflowed entries become -inf."""
    ll = _head_rows(HEAD_JOB, vec, c, design)[0] + _head_rows(HEAD_HOUSE, vec, c, design)[0]
    if not include_credit:
        return ll, 0
    credit, over_lin = _head_rows(HEAD_CREDIT, vec, c, design)
    return ll + credit, over_lin.size


def per_obs_latent_slopes(
    vec: np.ndarray, c: np.ndarray, design: Design, include_credit: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation first and second derivatives in c of
    per_obs_log_likelihood, with the same heads. The curvature is never
    positive: every head is concave in its linear predictor."""
    g_j, h_j = _head_slopes(HEAD_JOB, vec, c, design)
    g_h, h_h = _head_slopes(HEAD_HOUSE, vec, c, design)
    grad, curv = g_j + g_h, h_j + h_h
    if include_credit:
        g_c, h_c = _head_slopes(HEAD_CREDIT, vec, c, design)
        grad, curv = grad + g_c, curv + h_c
    return grad, curv
