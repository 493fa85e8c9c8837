"""Generative credit model: parameters, model config, and the likelihood engine.

A person's job and house indicators follow logistic (logit-link) heads in
sex, standardized age, and a latent reliability score c. Their credit amount
follows a log-linear Poisson head in the same drivers. The latent score and
every parameter carry standard normal priors. Everything here is pure,
log-space, and overflow-guarded.

The likelihood is written once, per head, over arrays of observations. A
head's linear predictor is its HEAD_TERMS entry: (parameter, column) terms
added left to right, which fixes the floating-point association of every
evaluation of it. Its rows come from _softplus_rows or _credit_rows, or,
for all three heads at once, from _stacked_rows.

A logistic row is log sigmoid(z) of the signed predictor z. The engine
multiplies the linear predictor by the outcome's negated sign (Design's
job_nsign and house_nsign), which gives nz = -z at no extra cost. The
softplus s = log1p(exp(nz)) is minus the row: exp and log1p in place in
nz's buffer. _head_rows subtracts it from 0, which gives the row; the
sampler keeps s itself, and subtracts it where it adds rows. The
stable formula, min(z, 0) - log1p(exp(-|z|)), takes six passes (abs,
negative, exp, log1p, minimum, subtract) for the same two transcendental
ones. Both are vectorized; np.logaddexp calls a scalar function per
element and takes about twice as long at n=800. For z >= 0 the two formulas agree bit for
bit, and for z < 0 the fast one is within 2 ulp of -logaddexp(0, -z).
exp(nz) overflows for z below about -709.78. There the row is z itself,
which is what the stable formula rounds to, since exp(z) is far below half
an ulp of z. So each row is a function of its own z alone. One reduction
over nz guards the exp, so no overflow warning is raised.

head_log_likelihood evaluates one head from scratch (_head_rows) and returns
its rows beside their sum. per_obs_log_likelihood adds the heads per
observation. The sampler (sampler._State) computes the heads' linear
predictors as one (3, n) matrix product and turns them into rows with
_stacked_rows, into a buffer it passes: one overflow guard, one exp over
the three heads and one log1p over the logistic two, the same operations
as the fast paths of _softplus_rows and _credit_rows, which it falls back
to past either head's overflow, so its rows are theirs bit for bit. Arrays
of shape (n, m) evaluate m latent values per row through Design.columns(), and
per_obs_latent_slopes gives each row's derivatives in c beside the heads
(_head_slopes), so test-time inference (sampler.infer_latent) is an exact
function of each row, computed by the same engine.
"""

import math
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .util import format_kv_text, parse_finite, parse_kv_text

if TYPE_CHECKING:  # only for annotations; avoids a circular import
    from .dataset import Dataset


# serialization order of the parameters; b_c participates only when
# the credit head has an intercept
PARAM_NAMES = (
    "b_j", "beta_j_s", "beta_j_a", "beta_j_c",
    "b_h", "beta_h_s", "beta_h_a", "beta_h_c",
    "beta_c_s", "beta_c_a", "beta_c_c",
    "b_c",
)
BASE_PARAM_NAMES = PARAM_NAMES[:11]

HEAD_JOB, HEAD_HOUSE, HEAD_CREDIT = 0, 1, 2


@dataclass(frozen=True)
class ModelConfig:
    """Structural switches of the credit head.

    include_credit_intercept: whether the Poisson head gets an intercept b_c.
    credit_scale: divisor applied to raw credit before treating it as a count.
    poisson_rate_cap: rates above this raise / reject as divergent.
    A config is checked (validate) when it is built.
    """

    include_credit_intercept: bool = False
    credit_scale: float = 1.0
    poisson_rate_cap: float = 1e7

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (self.credit_scale > 0 and math.isfinite(self.credit_scale)):
            raise ValueError(f"credit_scale must be positive, got {self.credit_scale!r}")
        if not (self.poisson_rate_cap > 0 and math.isfinite(self.poisson_rate_cap)):
            raise ValueError(f"poisson_rate_cap must be positive, got {self.poisson_rate_cap!r}")

    def active_param_names(self) -> tuple[str, ...]:
        return PARAM_NAMES if self.include_credit_intercept else BASE_PARAM_NAMES


@dataclass(frozen=True)
class ModelParams:
    """One point in parameter space. b_c is None unless the credit intercept
    is on. A point is checked (validate) when it is built."""

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if name == "b_c" and v is None:
                continue
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} is not finite: {v!r}")

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

    def to_kv_text(self) -> str:
        # float() first: a numpy scalar's repr is not readable back
        items = {n: repr(float(getattr(self, n))) for n in BASE_PARAM_NAMES}
        if self.b_c is not None:
            items["b_c"] = repr(float(self.b_c))
        return format_kv_text(items)

    @classmethod
    def from_kv_text(cls, text: str, where: str = "params") -> "ModelParams":
        """The point to_kv_text wrote. A repeated key is a ConfigError
        (parse_kv_text, naming where); a bad name, or a value not a finite
        number (parse_finite), a ValueError."""
        raw = parse_kv_text(text, where=where)
        unknown = set(raw) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        missing = set(BASE_PARAM_NAMES) - set(raw)
        if missing:
            raise ValueError(f"missing parameter names: {sorted(missing)}")
        return cls(**{k: parse_finite(v, k, ValueError) for k, v in raw.items()})


# ---------------------------------------------------------------------------
# vectorized likelihood engine: each head is written once, in _head_rows

@dataclass
class Design:
    """Per-observation arrays precomputed once per (dataset, model config)."""

    sex: np.ndarray
    age: np.ndarray
    job_nsign: np.ndarray    # 1 - 2*job, the outcome's sign negated
    house_nsign: np.ndarray  # 1 - 2*house
    counts: np.ndarray      # credit / credit_scale, rounded half to even
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
            job_nsign=1.0 - 2.0 * job,
            house_nsign=1.0 - 2.0 * house,
            counts=counts,
            lgamma_counts=lgamma_counts,
            cap_log=math.log(config.poisson_rate_cap),
        )

    def __len__(self) -> int:
        return self.sex.shape[0]

    def rows(self, index) -> "Design":
        """Every per-row array indexed by index: a slice or index array
        selects rows."""
        arrays = {f.name: getattr(self, f.name)[index] for f in fields(self) if f.name != "cap_log"}
        return _dc_replace(self, **arrays)

    def columns(self) -> "Design":
        """The same rows as (n, 1) columns, so that every head broadcasts over
        an (n, m) array of latent values: m points per row."""
        return self.rows((slice(None), None))


# Each head's linear predictor as (parameter position, column) terms, added
# left to right in this order wherever it is evaluated: this is its
# association order. Column "one" marks an intercept, whose term is its
# coefficient alone, and "c" the latent score. The credit intercept (position
# 11) is a term only when the parameter vector has 12 entries.
HEAD_TERMS = (
    ((0, "one"), (1, "sex"), (2, "age"), (3, "c")),
    ((4, "one"), (5, "sex"), (6, "age"), (7, "c")),
    ((8, "sex"), (9, "age"), (10, "c"), (11, "one")),
)
# each head's latent coefficient's parameter position, in head order
LATENT_SLOPES = tuple(pos for terms in HEAD_TERMS for pos, column in terms if column == "c")


def _active_terms(head: int, n_params: int) -> tuple[tuple[int, str], ...]:
    return tuple(t for t in HEAD_TERMS[head] if t[0] < n_params)


def _column(name: str, c: np.ndarray, design: Design) -> np.ndarray | None:
    if name == "one":
        return None
    return c if name == "c" else getattr(design, name)


def _linear_predictor(head: int, vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """A head's linear predictor, its terms added in HEAD_TERMS order: each
    coefficient times its column, or alone for an intercept."""
    x = None
    for pos, name in _active_terms(head, vec.shape[0]):
        column = _column(name, c, design)
        t = vec[pos] if column is None else column * vec[pos]
        x = t if x is None else x + t
    return x


def _outcome_nsign(head: int, design: Design) -> np.ndarray:
    return design.job_nsign if head == HEAD_JOB else design.house_nsign


def _negated_logit(head: int, vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """-z for a logistic head's signed predictor z: its linear predictor times
    the outcome's negated sign (-1 or +1)."""
    return _linear_predictor(head, vec, c, design) * _outcome_nsign(head, design)


def credit_linear(vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """The credit head's linear predictor, the log of its Poisson rate."""
    return _linear_predictor(HEAD_CREDIT, vec, c, design)


# exp(t) is finite for every t up to this, just below log(DBL_MAX) = 709.7827
_EXP_SAFE = 709.78


def _softplus_rows(nz: np.ndarray) -> np.ndarray:
    """log1p(exp(nz)) for nz = -z, the signed linear predictors negated,
    written over nz: minus the rows log sigmoid(z), and nz itself where
    exp(nz) overflows. The engine's only exp and log1p of a logistic block.

    The max of nz is the one reduction. When it is at most _EXP_SAFE, no exp
    can overflow, and the rows are two transcendental passes in nz's buffer,
    with nothing else allocated. Otherwise the array runs with the overflow
    ignored, and the overflowed rows take nz. np.maximum.reduce costs a
    Python call less than nz.max()."""
    if np.maximum.reduce(nz, axis=None) <= _EXP_SAFE:
        np.exp(nz, out=nz)
        return np.log1p(nz, out=nz)
    with np.errstate(over="ignore"):
        rows = np.log1p(np.exp(nz))
    over = rows == np.inf
    rows[over] = nz[over]
    return rows


def _credit_rows(lin: np.ndarray, design: Design) -> tuple[np.ndarray, int]:
    """Poisson rows of credit linear predictors, and how many rates are over
    the rate cap, whose rows are -inf. One reduction over lin finds whether
    any is; the rows are then three passes, or, past the cap, the rates are
    taken where they are under it."""
    if np.maximum.reduce(lin, axis=None) <= design.cap_log:
        rows = design.counts * lin
        rows -= np.exp(lin)
        rows -= design.lgamma_counts
        return rows, 0
    over = lin > design.cap_log
    rows = design.counts * lin - np.exp(np.where(over, 0.0, lin)) - design.lgamma_counts
    rows[over] = -np.inf
    return rows, int(np.count_nonzero(over))


def _stacked_rows(pred: np.ndarray, nsign: np.ndarray, design: Design, out: np.ndarray) -> int:
    """All three heads' rows from their linear predictors pred, (3, n) in head
    order, written to out (3, n): the job and house heads' softplus rows
    (minus their log-likelihood rows), then the credit head's Poisson rows.
    nsign (2, n) holds the logistic outcomes' negated signs. pred is used as
    scratch. Returns how many credit rates are over the cap.

    One reduction guards all three heads. When no nz is over _EXP_SAFE and
    no credit rate over the cap, the rows are one exp over the three rows,
    one log1p over the logistic two and three more passes for credit: the
    same operations, in the same order, as the fast paths of _softplus_rows
    and _credit_rows, so bit for bit their rows. Otherwise those two
    kernels compute the rows, overflow and all."""
    nz, lin = pred[:2], pred[2]
    nz *= nsign
    top = np.maximum.reduce(pred, axis=1).tolist()
    if top[0] <= _EXP_SAFE and top[1] <= _EXP_SAFE and top[2] <= design.cap_log:
        np.exp(pred, out=out)
        soft, credit = out[:2], out[2]
        np.log1p(soft, out=soft)
        lin *= design.counts
        np.subtract(lin, credit, out=credit)
        credit -= design.lgamma_counts
        return 0
    out[:2] = _softplus_rows(nz)
    out[2], n_over = _credit_rows(lin, design)
    return n_over


def _head_rows(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[np.ndarray, int]:
    """Per-observation log-likelihood of one head, and how many credit rates
    are over the cap.

    The logistic heads work on the signed linear predictor z, never on the
    probability, so they stay exact where it would round to 0 or 1. Their
    rows are log sigmoid(z) = 0 - log1p(exp(-z)) (_softplus_rows), within a
    few ulp of -logaddexp(0, -z), and z itself where exp(-z) overflows.
    Credit rows whose rate exceeds the cap are -inf, and only a rate above
    the cap costs the masking.
    """
    if head != HEAD_CREDIT:
        rows = _softplus_rows(_negated_logit(head, vec, c, design))
        return np.subtract(0.0, rows, out=rows), 0
    return _credit_rows(credit_linear(vec, c, design), design)


def _sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The logistic link 1 / (1 + exp(-x)), as 1 / (1 + t) or t / (1 + t) where
    x < 0, and t = exp(-|x|), which cannot overflow."""
    t = np.exp(-np.abs(x))
    return np.where(x < 0.0, t, 1.0) / (1.0 + t), t


def _head_slopes(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives in c of _head_rows' per-observation rows.

    A logistic row is log sigmoid(z) for the signed predictor z, whose slope
    in z is sigmoid(-z) and curvature -sigmoid(z) * sigmoid(-z); both come from
    _sigmoid's one exp(-|z|). A credit row's slope is k * (count - rate) and
    its curvature -k^2 * rate, for latent coefficient k.
    Rates over the cap are not masked: callers keep c where the rate is capped.
    """
    if head != HEAD_CREDIT:
        sig_neg, t = _sigmoid(_negated_logit(head, vec, c, design))
        k = vec[LATENT_SLOPES[head]]
        return (-k * _outcome_nsign(head, design)) * sig_neg, -(k * k) * t / ((1.0 + t) * (1.0 + t))
    rate = np.exp(credit_linear(vec, c, design))
    k = vec[LATENT_SLOPES[HEAD_CREDIT]]
    return k * (design.counts - rate), -(k * k) * rate


def head_log_likelihood(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[float, int, np.ndarray]:
    """One head's log-likelihood. Returns (sum, overflow count, per-observation rows).

    Overflowed credit rates give -inf rows and a -inf sum instead of raising,
    so sampler steps can reject them and keep a counter.
    """
    rows, n_over = _head_rows(head, vec, c, design)
    if n_over:
        return float("-inf"), n_over, rows
    return float(rows.sum()), 0, rows


def per_obs_log_likelihood(
    vec: np.ndarray, c: np.ndarray, design: Design, include_credit: bool = True
) -> tuple[np.ndarray, int]:
    """Per-observation log-likelihood vector. Overflowed entries become -inf."""
    ll = _head_rows(HEAD_JOB, vec, c, design)[0] + _head_rows(HEAD_HOUSE, vec, c, design)[0]
    if not include_credit:
        return ll, 0
    credit, n_over = _head_rows(HEAD_CREDIT, vec, c, design)
    return ll + credit, n_over


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
