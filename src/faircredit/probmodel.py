"""Generative credit model: parameters, model config, and the likelihood engine.

A person's job and house indicators follow logistic (logit-link) heads in
sex, standardized age, and a latent reliability score c. Their credit amount
follows a log-linear Poisson head in the same drivers. The latent score and
every parameter carry standard normal priors. Everything here is pure,
log-space, and overflow-guarded.

The likelihood is written once, per head, over arrays of observations. A
head's linear predictor is its HEAD_TERMS entry: (parameter, column) terms
added left to right, which fixes the floating-point association of every
evaluation of it. Its rows come from _softplus_rows or _credit_rows.

A logistic row is log sigmoid(z) of the signed predictor z. The engine
multiplies the linear predictor by the outcome's negated sign (Design's
job_nsign and house_nsign), which gives nz = -z at no extra cost. One
kernel, _softplus_rows, computes the softplus s = log1p(exp(nz)), minus the
row: exp and log1p in place in nz's buffer. _head_rows subtracts it from
0, which gives the row. HeadTerms keeps s itself for a logistic
block, saving that pass: its totals are -sum(s), and the sampler subtracts
s where it adds rows, both exact. The stable formula,
min(z, 0) - log1p(exp(-|z|)), takes six passes (abs, negative, exp, log1p,
minimum, subtract) for the same two transcendental ones. Both are
vectorized; np.logaddexp calls a scalar function per element and takes
about twice as long at n=800. For z >= 0 the two formulas agree bit for
bit, and for z < 0 the fast one is within 2 ulp of -logaddexp(0, -z). exp(nz) overflows for z below about
-709.78. There the row is z itself, which is what the stable formula
rounds to, since exp(z) is far below half an ulp of z. So each row is a
function of its own z alone, and a block's rows do not depend on which
check found the overflow. One reduction over nz guards the exp, so no
overflow warning is raised.

head_log_likelihood evaluates one head from scratch (_head_rows) and returns
its rows beside their sum. per_obs_log_likelihood adds the heads per
observation. HeadTerms keeps a block of heads' terms, running sums and rows
at one state, for the sampler: a proposal that moves one term recomputes
that term and the sums after it, through the same term and row helpers and
in the same order, so its rows are bitwise head_log_likelihood's (a
logistic block's once subtracted from 0). Arrays
of shape (n, m) evaluate m latent values per row through Design.columns(),
and per_obs_latent_slopes gives each row's derivatives in c beside the
heads (_head_slopes), so test-time inference (sampler.infer_latent) is an
exact function of each row, computed by the same engine.
"""

import math
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

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


_NO_OVERFLOW = np.empty(0)

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


def _active_terms(head: int, n_params: int) -> tuple[tuple[int, str], ...]:
    return tuple(t for t in HEAD_TERMS[head] if t[0] < n_params)


def _column(name: str, c: np.ndarray, design: Design) -> np.ndarray | None:
    if name == "one":
        return None
    return c if name == "c" else getattr(design, name)


def _term(column: np.ndarray | None, coef):
    """One term of a linear predictor: coef times its column, or coef alone
    for an intercept (no column)."""
    return coef if column is None else column * coef


def _linear_predictor(head: int, vec: np.ndarray, c: np.ndarray, design: Design) -> np.ndarray:
    """A head's linear predictor, its terms added in HEAD_TERMS order."""
    x = None
    for pos, name in _active_terms(head, vec.shape[0]):
        t = _term(_column(name, c, design), vec[pos])
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
    exp(nz) overflows.

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


def _credit_rows(lin: np.ndarray, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson rows of credit linear predictors, those over the rate cap, and
    the rates exp(lin) the rows subtract, inf where over the cap."""
    over = lin > design.cap_log
    if not over.any():
        rates = np.exp(lin)
        return design.counts * lin - rates - design.lgamma_counts, _NO_OVERFLOW, rates
    rates = np.exp(np.where(over, 0.0, lin))
    term = design.counts * lin - rates - design.lgamma_counts
    rates[over] = np.inf
    return np.where(over, -np.inf, term), lin[over], rates


def _head_rows(
    head: int, vec: np.ndarray, c: np.ndarray, design: Design
) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation log-likelihood of one head, and the overflowed credit
    linear predictors.

    The logistic heads work on the signed linear predictor z, never on the
    probability, so they stay exact where it would round to 0 or 1. Their
    rows are log sigmoid(z) = 0 - log1p(exp(-z)) (_softplus_rows), within a
    few ulp of -logaddexp(0, -z), and z itself where exp(-z) overflows.
    Credit rows whose rate exceeds the cap are -inf, and their linear
    predictors are returned in row order; the second array is empty
    otherwise, and only a rate above the cap costs the masking.
    """
    if head != HEAD_CREDIT:
        rows = _softplus_rows(_negated_logit(head, vec, c, design))
        return np.subtract(0.0, rows, out=rows), _NO_OVERFLOW
    return _credit_rows(credit_linear(vec, c, design), design)[:2]


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
        nz = _negated_logit(head, vec, c, design)
        t = np.exp(-np.abs(nz))
        k = vec[4 * head + 3]
        sig_neg = np.where(nz < 0.0, t, 1.0) / (1.0 + t)
        return (-k * _outcome_nsign(head, design)) * sig_neg, -(k * k) * t / ((1.0 + t) * (1.0 + t))
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


# ---------------------------------------------------------------------------
# cached linear-predictor terms, for proposals that move one term at a time

# relative rounding margin of HeadTerms.step_bound, see there
_BOUND_MARGIN = 1e-9
_TINY = float(np.finfo(float).tiny)


class HeadTerms:
    """The linear-predictor terms of one or more heads at one state (vec, c),
    their running sums in HEAD_TERMS order, and their rows.

    The heads are evaluated together, as one (heads, n) block, so they must
    share their columns, as the job and house heads do. A move of one term
    recomputes that term and the running sums after it, and reuses the rest.
    Since the terms are added in the same order as _linear_predictor adds
    them, a move's rows, totals and overflow count are bitwise those of
    head_log_likelihood on the moved state.

    A proposal takes two calls. move (term k's coefficients) or move_latent
    (the latent column) evaluates the moved block and holds it, with its rows
    as moved_rows; accept_heads or accept_rows then takes it into the kept
    state for the heads or the rows that accept it. Only those two change
    the kept state: accept_rows copies the accepted rows into the kept
    arrays in place, as accept_heads does when only some heads accept, and
    neither writes the held move. Each head's total, the sum of its kept
    rows, is summed on first use after the rows change (totals), so a block
    that no move reads in between is not summed.

    A logistic block keeps its heads' negated outcome signs as one
    (heads, n) array, so each evaluation multiplies its full sum by them and
    hands the product to _softplus_rows, which writes the softplus rows s
    over it. Its rows and moved_rows hold s, minus the log-likelihood rows,
    and its totals are -sum(s), bitwise the sums of the rows -s, since
    negation is exact and rounding symmetric; a caller that adds rows
    subtracts s instead (0 - s is bitwise head_log_likelihood's rows). s is
    that kernel's on the whole block, element by element, so it matches
    head_log_likelihood on either side of its overflow rule.

    The credit block also keeps its rates, the exp(lin) its rows subtract,
    from which step_bound bounds a coefficient move without making it.
    """

    def __init__(self, heads: tuple[int, ...], vec: np.ndarray, c: np.ndarray, design: Design):
        table = [_active_terms(h, vec.shape[0]) for h in heads]
        names = [name for _, name in table[0]]
        if any([name for _, name in t] != names for t in table):
            raise ValueError(f"heads {heads} do not share their columns")
        self.design = design
        # positions[k]: term k's parameter position in each head
        self.positions = [tuple(t[k][0] for t in table) for k in range(len(names))]
        self.latent_term = names.index("c")
        self.nsign = None if HEAD_CREDIT in heads else np.stack([_outcome_nsign(h, design) for h in heads])
        self.columns = [_column(name, c, design) for name in names]
        self.coefs = [vec[list(p)][:, None] for p in self.positions]
        self.terms = [_term(col, coef) for col, coef in zip(self.columns, self.coefs)]
        self.sums, self.rows, _, self.rates = self._moved(0, self.terms[0])
        self._totals = None
        # the held move: its rows and rates, and a coefficient move's
        # (k, coef, term, sums, totals)
        self.moved_rows = self._moved_rates = self._held = None
        if self.rates is not None:
            # step_bound's columns x_k (1 for the intercept), their squares and
            # max |x_k|; the latent row is refreshed with each state
            ones = np.ones(len(design))
            self._x = np.stack([ones if col is None else col for col in self.columns])
            self._x2 = self._x * self._x
            self._spread = np.abs(self._x).max(axis=1).tolist()
            self._count_sum = float(design.counts.sum())
            self._lgamma_sum = float(design.lgamma_counts.sum())
        self._screen = None  # step_bound's sums at the kept state, made on first use

    def _moved(self, k: int, term: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, int, np.ndarray | None]:
        """With term k set to term and the kept terms after it: the running
        sums k, ..., m - 2 of the m terms, and the rows, the number of rows
        over the rate cap and (a credit block's) rates of the full sum."""
        x = term if k == 0 else self.sums[k - 1] + term
        sums = []
        for t in self.terms[k + 1:]:
            sums.append(x)
            x = x + t
        if self.nsign is not None:
            return sums, _softplus_rows(x * self.nsign), 0, None
        rows, over_lin, rates = _credit_rows(x, self.design)
        return sums, rows, over_lin.size, rates

    def _sum(self, rows: np.ndarray) -> list[float]:
        """Each head's log-likelihood from its rows: their sum, negated for
        softplus rows. Rounding is symmetric, so -sum(s) is bitwise the sum
        of the rows -s in the same order."""
        totals = np.add.reduce(rows, axis=1).tolist()
        return totals if self.nsign is None else [-t for t in totals]

    def totals(self) -> list[float]:
        """Each head's log-likelihood at the kept state, as head_log_likelihood sums it."""
        if self._totals is None:
            self._totals = self._sum(self.rows)
        return self._totals

    def move(self, k: int, coef: np.ndarray) -> list[float]:
        """Each head's log-likelihood with term k's coefficients set to coef,
        a (heads, 1) array: -inf where a rate is over the cap. The moved block
        is held for accept_heads."""
        term = _term(self.columns[k], coef)
        sums, self.moved_rows, _, self._moved_rates = self._moved(k, term)
        totals = self._sum(self.moved_rows)
        self._held = (k, coef, term, sums, totals)
        return totals

    def accept_heads(self, accepted: list[bool]) -> None:
        """Keep the held coefficient move for the heads where accepted is true."""
        k, coef, term, sums, totals = self._held
        if all(accepted):
            self.coefs[k], self.terms[k], self.sums[k:] = coef, term, sums
            self.rows, self._totals, self.rates = self.moved_rows, totals, self._moved_rates
            self._screen = None
            return
        # the kept arrays are this block's own, so an accepted head's row is
        # copied in (the credit block has one head, so it keeps its rates above)
        for h, a in enumerate(accepted):
            if a:
                self.coefs[k][h] = coef[h]
                self.terms[k][h] = term[h]
                for kept, new in zip(self.sums[k:], sums):
                    kept[h] = new[h]
                self.totals()[h] = totals[h]
                self.rows[h] = self.moved_rows[h]

    def move_latent(self, c: np.ndarray) -> tuple[np.ndarray, int]:
        """The rows with the latent scores set to c, and how many are over the
        rate cap. The moved block is held for accept_rows."""
        k = self.latent_term
        _, self.moved_rows, n_over, self._moved_rates = self._moved(k, _term(c, self.coefs[k]))
        self._held = None
        return self.moved_rows, n_over

    def step_bound(self, k: int, delta: float) -> float:
        """An upper bound on move(k, coef + delta)[0] - totals()[0] in a
        credit block whose term k has coefficient coef; inf when the move
        could put a rate over the cap.

        Term k has column x (1 for the intercept). With the kept rates r_i
        and d_i = delta x_i, the move changes the log-likelihood by
        sum y_i d_i - r_i (e^d_i - 1). Since e^d - 1 - d >= d^2 e^-|d| / 2,
        that is at most delta G - delta^2 e^-D H / 2, where
        G = sum (y_i - r_i) x_i, H = sum r_i x_i^2, M = max |x_i| and
        D = |delta| M. G, H and M are computed once per kept state.

        A margin covers rounding: the engine's in its terms, rows and sums,
        and this bound's in its own sums. L = sum_k M_k |coef_k| bounds
        |lin_i| and every term, so each error is a few ulp of at most
        S = sum log y_i! + (sum y_i + n max r)(1 + L + D). Where d_i <= 1 the
        proposed rate is at most e r_i; where d_i > 1 the bound is loose by
        more than a sixth of it, which absorbs its rounding. The margin is
        _BOUND_MARGIN (1 + S), about 10^7 ulp of S. The cap gets the same
        slack: when max lin_i + D + _BOUND_MARGIN (1 + L + D) reaches
        cap_log, the result is inf, so a move that the engine would find over
        the cap is always made.
        """
        if self._screen is None:
            self._screen = self._screen_state()
        top, max_rate, lin_scale, spread, grad, curv = self._screen
        reach = abs(delta) * spread[k]
        if top + reach + _BOUND_MARGIN * (1.0 + lin_scale + reach) >= self.design.cap_log:
            return math.inf
        bound = delta * grad[k] - 0.5 * delta * delta * math.exp(-reach) * curv[k]
        scale = self._lgamma_sum + (self._count_sum + len(self.design) * max_rate) * (1.0 + lin_scale + reach)
        return bound + _BOUND_MARGIN * (1.0 + scale)

    def _screen_state(self) -> tuple[float, float, float, list[float], list[float], list[float]]:
        """max lin, max rate, L, and each term's M, G and H, of step_bound at
        the kept state."""
        k = self.latent_term
        c = self.columns[k]
        self._x[k] = c
        np.multiply(c, c, out=self._x2[k])
        spread = self._spread
        spread[k] = float(np.abs(c).max())
        rates = self.rates[0]
        max_rate = float(rates.max())
        # rates are within an ulp of exp(lin) where normal, and inf over the cap
        top = math.log(max_rate) if max_rate >= _TINY else math.inf
        lin_scale = sum(m * abs(coef.item()) for m, coef in zip(spread, self.coefs))
        grad = (self._x @ (self.design.counts - rates)).tolist()
        curv = (self._x2 @ rates).tolist()
        return top, max_rate, lin_scale, spread, grad, curv

    def accept_rows(self, accepted: np.ndarray, c: np.ndarray) -> None:
        """Keep the held latent move for the rows accepted selects, an index
        array or a bool mask; c is the latent column that results, so the
        latent term and the running sums after it are those of c.

        The accepted rows, and a credit block's rates, are written into the
        kept arrays in place, one head row at a time. The held move's arrays
        are only read, and a move replaces them before the next merge, so
        the kept arrays never alias them here."""
        k = self.latent_term
        self.columns[k] = c
        self.terms[k] = _term(c, self.coefs[k])
        for j in range(k, len(self.sums)):
            self.sums[j] = self.terms[j] if j == 0 else self.sums[j - 1] + self.terms[j]
        for kept, moved in zip(self.rows, self.moved_rows):
            kept[accepted] = moved[accepted]
        self._totals = None
        if self.rates is not None:
            for kept, moved in zip(self.rates, self._moved_rates):
                kept[accepted] = moved[accepted]
            self._screen = None
