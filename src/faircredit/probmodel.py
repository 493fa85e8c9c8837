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
kernel, _softplus_rows, the one site of a logistic block's exp and log1p,
computes the softplus s = log1p(exp(nz)), minus the row: exp and log1p in
place in nz's buffer. _head_rows subtracts it from 0, which gives the row.
HeadTerms keeps s itself for a logistic block, saving that pass: its totals
are sum(s), which the sampler's ratio subtracts the other way round, and it
subtracts s where it adds rows, all exact. The stable formula,
min(z, 0) - log1p(exp(-|z|)), takes six passes (abs, negative, exp, log1p,
minimum, subtract) for the same two transcendental ones. Both are
vectorized; np.logaddexp calls a scalar function per element and takes
about twice as long at n=800. For z >= 0 the two formulas agree bit for
bit, and for z < 0 the fast one is within 2 ulp of -logaddexp(0, -z).
exp(nz) overflows for z below about -709.78. There the row is z itself,
which is what the stable formula rounds to, since exp(z) is far below half
an ulp of z. So each row is a function of its own z alone. One reduction
over nz guards the exp, so no overflow warning is raised. A HeadTerms block
skips it: its exp runs unguarded, so where it overflows the softplus is
+inf and the row -inf, which the sampler's accept test rejects.

head_log_likelihood evaluates one head from scratch (_head_rows) and returns
its rows beside their sum. per_obs_log_likelihood adds the heads per
observation. HeadTerms keeps a block of heads' terms, running sums and rows
at one state, for the sampler: a proposal that moves one term recomputes
that term and the sums after it, in the same order, through the block's
one evaluation path (HeadTerms._evaluate), so its rows are bitwise
head_log_likelihood's (a logistic block's once subtracted from 0) wherever
exp does not overflow. Arrays
of shape (n, m) evaluate m latent values per row through Design.columns(),
and per_obs_latent_slopes gives each row's derivatives in c beside the
heads (_head_slopes), so test-time inference (sampler.infer_latent) is an
exact function of each row, computed by the same engine.
"""

import math
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .util import format_kv_text, parse_finite, parse_kv_text

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
    def from_kv_text(cls, text: str) -> "ModelParams":
        """The point to_kv_text wrote. A repeated key is a ConfigError (parse_kv_text);
        a bad name, or a value not a finite number (parse_finite), a ValueError."""
        raw = parse_kv_text(text, where="params")
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


def _softplus_rows(nz: np.ndarray, bare: bool = False) -> np.ndarray:
    """log1p(exp(nz)) for nz = -z, the signed linear predictors negated,
    written over nz: minus the rows log sigmoid(z), and nz itself where
    exp(nz) overflows. The engine's only exp and log1p of a logistic block.

    The max of nz is the one reduction. When it is at most _EXP_SAFE, no exp
    can overflow, and the rows are two transcendental passes in nz's buffer,
    with nothing else allocated. Otherwise the array runs with the overflow
    ignored, and the overflowed rows take nz. bare (HeadTerms) skips the
    reduction and always runs the two passes: an overflowed entry is then
    +inf, and the caller's error state decides whether numpy warns.
    np.maximum.reduce costs a Python call less than nz.max()."""
    if bare or np.maximum.reduce(nz, axis=None) <= _EXP_SAFE:
        np.exp(nz, out=nz)
        return np.log1p(nz, out=nz)
    with np.errstate(over="ignore"):
        rows = np.log1p(np.exp(nz))
    over = rows == np.inf
    rows[over] = nz[over]
    return rows


def _credit_rows(lin: np.ndarray, design: Design) -> tuple[np.ndarray, int, np.ndarray]:
    """Poisson rows of credit linear predictors, how many rates are over the
    rate cap, and the rates exp(lin) the rows subtract, inf where over the
    cap."""
    over = lin > design.cap_log
    if not np.count_nonzero(over):
        rates = np.exp(lin)
        return design.counts * lin - rates - design.lgamma_counts, 0, rates
    rates = np.exp(np.where(over, 0.0, lin))
    term = design.counts * lin - rates - design.lgamma_counts
    rates[over] = np.inf
    return np.where(over, -np.inf, term), int(np.count_nonzero(over)), rates


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
    return _credit_rows(credit_linear(vec, c, design), design)[:2]


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


# ---------------------------------------------------------------------------
# cached linear-predictor terms, for proposals that move one term at a time

# relative rounding margin of HeadTerms.step_bound, see there
_BOUND_MARGIN = 1e-9
_TINY = float(np.finfo(float).tiny)


class HeadTerms:
    """The linear-predictor terms of one or more heads at one state (vec, c),
    their running sums in HEAD_TERMS order, and their rows.

    The heads are evaluated together, as one (heads, n) block, so they must
    share their columns, as the job and house heads do. The block is built,
    and every proposal evaluated, by one path, _evaluate: it adds the moved
    term to the running sum before it and the later terms after it, in
    _linear_predictor's order, and turns the total into rows, so the rows,
    totals and overflow count are bitwise those of head_log_likelihood on
    the moved state, except where a logistic exp overflows (see below).
    move (term k's coefficients) and move_latent (the latent column)
    evaluate the moved block and hold it, with its rows as moved_rows;
    accept_heads or accept_rows then takes it into the kept state for the
    heads or the rows that accept it. Only those two change the kept state:
    accept_rows copies the accepted rows into the kept arrays in place, as
    accept_heads copies an accepted head's entries when only some heads
    accept, and neither writes the held move. Each head's total, the sum of
    its kept rows, is summed by the first move after the rows change, so a
    block that no move reads in between is not summed.

    A move kept whole keeps its coef, which may be a view of the caller's
    proposal vector, as the term's coefficient (and an intercept's term),
    and a later partial accept of that term writes into it. run_chain draws
    a new proposal vector every sweep and moves each term once a sweep, so
    the entries written belong to vectors it no longer reads.

    A logistic block keeps its heads' negated outcome signs as one
    (heads, n) array, so each evaluation multiplies its full sum by them,
    which gives nz, and writes the softplus rows s = log1p(exp(nz)) over it.
    Its rows hold s and its totals sum(s): bitwise minus the log-likelihood
    rows and totals, since negation is exact and rounding symmetric (0 - s
    is head_log_likelihood's rows). _evaluate runs exp and log1p bare, with
    no reduction: where exp(nz) overflows (nz above about 709.78), s is
    +inf, and so is its head's total, where head_log_likelihood's row is
    the finite z. run_chain's accept test rejects such a move, as it
    rejects a credit rate over the cap, so the rows it keeps stay finite.
    Outside run_chain, which ignores the overflow warning, an evaluation
    that overflows warns.

    The credit block also keeps its rates, the exp(lin) its rows subtract,
    from which step_bound bounds a coefficient move without making it, and
    each term's max |x_k| (spread), the latent one taken by step_bound.
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
        self.terms = [coef if col is None else col * coef for col, coef in zip(self.columns, self.coefs)]
        self.sums, self.rows, _, self.rates = self._evaluate(0, self.terms[0])
        self._totals = None
        # the held move: its rows and rates, and a coefficient move's
        # (k, coef, term, sums, totals)
        self.moved_rows = self._moved_rates = self._held = None
        if self.rates is not None:
            # step_bound's max |x_k| of each term's column, its columns x_k
            # (1 for the intercept) and their squares; the latent ones are
            # refreshed with each state
            self.spread = [1.0 if col is None else float(np.abs(col).max()) for col in self.columns]
            ones = np.ones(len(design))
            self._x = np.stack([ones if col is None else col for col in self.columns])
            self._x2 = self._x * self._x
            self._count_sum = float(design.counts.sum())
            self._lgamma_sum = float(design.lgamma_counts.sum())
        self._screen = None  # step_bound's sums at the kept state, made on first use

    def _evaluate(self, k: int, term: np.ndarray) -> tuple[list, np.ndarray, int, np.ndarray | None]:
        """The block with term k set to term: its running sums from term k
        on, its rows, how many rates are over the cap, and a credit block's
        rates. term is added to the running sum before it, and the later
        terms after it in HEAD_TERMS order, so the total is bitwise
        _linear_predictor's. A logistic total is this call's own array,
        which nz and the rows overwrite."""
        x = term if k == 0 else self.sums[k - 1] + term
        sums = []
        for t in self.terms[k + 1:]:
            sums.append(x)
            x = x + t
        if self.nsign is None:
            return sums, *_credit_rows(x, self.design)
        np.multiply(x, self.nsign, out=x)
        return sums, _softplus_rows(x, bare=True), 0, None

    def move(self, k: int, coef: np.ndarray) -> tuple[list[float], list[float]]:
        """Each head's total with term k's coefficients set to coef, a
        (heads, 1) array, and each head's total at the kept state. A credit
        total is the head's log-likelihood, -inf where a rate is over the
        cap; a logistic one is minus it, +inf where an exp overflows. The
        moved block is held for accept_heads."""
        column = self.columns[k]
        term = coef if column is None else column * coef
        sums, rows, _, self._moved_rates = self._evaluate(k, term)
        totals = np.add.reduce(rows, axis=1).tolist()
        if self._totals is None:
            self._totals = np.add.reduce(self.rows, axis=1).tolist()
        self.moved_rows = rows
        self._held = (k, coef, term, sums, totals)
        return totals, self._totals

    def accept_heads(self, accepted: list[bool]) -> None:
        """Keep the held coefficient move for the heads where accepted is true."""
        k, coef, term, sums, totals = self._held
        if all(accepted):
            self.coefs[k], self.terms[k], self.sums[k:] = coef, term, sums
            self.rows, self._totals, self.rates = self.moved_rows, totals, self._moved_rates
            self._screen = None
            return
        # an accepted head's entries are copied into the kept arrays (the
        # credit block has one head, so it keeps its rates above)
        for h, a in enumerate(accepted):
            if a:
                self.coefs[k][h] = coef[h]
                self.terms[k][h] = term[h]
                for kept, new in zip(self.sums[k:], sums):
                    kept[h] = new[h]
                self.rows[h] = self.moved_rows[h]
                self._totals[h] = totals[h]

    def move_latent(self, c: np.ndarray) -> tuple[np.ndarray, int]:
        """The rows with the latent scores set to c, and how many are over the
        rate cap. The moved block is held for accept_rows."""
        k = self.latent_term
        _, self.moved_rows, n_over, self._moved_rates = self._evaluate(k, c * self.coefs[k])
        self._held = None
        return self.moved_rows, n_over

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
        self.terms[k] = c * self.coefs[k]
        for j in range(k, len(self.sums)):
            self.sums[j] = self.sums[j - 1] + self.terms[j]
        for kept, moved in zip(self.rows, self.moved_rows):
            kept[accepted] = moved[accepted]
        self._totals = None
        if self.rates is not None:
            self.rates[0][accepted] = self._moved_rates[0][accepted]
            self._screen = None

    def step_bound(self, k: int, delta: float) -> float:
        """An upper bound on move(k, coef + delta)[0][0] minus the kept total
        in a credit block whose term k has coefficient coef; inf when the
        move could put a rate over the cap.

        Term k has column x (1 for the intercept). With the kept rates r_i
        and d_i = delta x_i, the move changes the log-likelihood by
        sum y_i d_i - r_i (e^d_i - 1). Since e^d - 1 - d >= d^2 e^-|d| / 2,
        that is at most delta G - delta^2 e^-D H / 2, where
        G = sum (y_i - r_i) x_i, H = sum r_i x_i^2, M = max |x_i| (spread)
        and D = |delta| M. G, H and the latent column's M are computed once
        per kept state.

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
        screen = self._screen
        if screen is None:
            j = self.latent_term
            c = self.columns[j]
            self._x[j] = c
            # |c| into the row of squares: its max, then its square, c^2
            c2 = np.abs(c, out=self._x2[j])
            self.spread[j] = float(np.maximum.reduce(c2))
            np.multiply(c2, c2, out=c2)
            rates = self.rates[0]
            max_rate = float(np.maximum.reduce(rates))
            # rates are within an ulp of exp(lin) where normal, and inf over the cap
            top = math.log(max_rate) if max_rate >= _TINY else math.inf
            lin_scale = sum([m * abs(coef.item()) for m, coef in zip(self.spread, self.coefs)])
            grad = self._x.dot(self.design.counts - rates).tolist()
            curv = self._x2.dot(rates).tolist()
            screen = self._screen = (top, max_rate, lin_scale, grad, curv)
        top, max_rate, lin_scale, grad, curv = screen
        reach = abs(delta) * self.spread[k]
        if top + reach + _BOUND_MARGIN * (1.0 + lin_scale + reach) >= self.design.cap_log:
            return math.inf
        bound = delta * grad[k] - 0.5 * delta * delta * math.exp(-reach) * curv[k]
        scale = self._lgamma_sum + (self._count_sum + len(self.design) * max_rate) * (1.0 + lin_scale + reach)
        return bound + _BOUND_MARGIN * (1.0 + scale)
