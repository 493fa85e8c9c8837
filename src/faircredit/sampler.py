"""Metropolis-within-Gibbs inference over parameters and latent scores, and
exact test-time inference of latent scores under fixed parameters.

The sweep. The chain's state (_State) keeps X = [1, sex, age, c], a (4, n)
array whose row 3 holds the latent scores, each head's coefficients over
X's rows, and the heads' rows in one (3, n) array: the job and house heads'
softplus rows (minus their log-likelihood rows) and the credit head's
Poisson rows, by the engine's stacked kernel (probmodel._stacked_rows),
with each head's sum of them cached. A proposal is evaluated, all three
heads at once, into a second (3, n) buffer, not into new arrays.
A sweep (_sweep) makes four kinds of step, in this order:

- BLOCK_STEPS random-walk block steps per head: beta' = beta + L z, with L
  the Cholesky factor of s^2 (F + I)^-1, F the head's Fisher information at
  the tuned state (sum p(1 - p) x x' for a logistic head, sum rate x x' for
  credit) and s = 2.38 / sqrt(d) for d coefficients (Roberts, Gelman &
  Gilks 1997). The three heads are evaluated together, from one product
  beta' X, and each is accepted on its own. A credit proposal with a rate
  over the cap is rejected and counted as a likelihood error. One step per
  head left the logistic heads the slowest to mix (worst bulk ESS 89 on
  synth_large's chain at seed 0); the second doubles their ESS;
- every latent score at once, by a uniform-window random walk, row i's
  window of half-width delta_i (see Tuning), accepted row by row; the
  accepted entries are merged in by index;
- a scale move: c -> c e^eta and the three loadings -> e^-eta, with
  eta ~ N(0, tau^2), accepted on its prior change plus its Jacobian
  (n - 3) eta;
- exact shifts, one for each column that all three heads carry (sex, age,
  and the intercept when b_c is on): c -> c + m x and each head's
  coefficient of x -> minus its loading times m, with m drawn from its
  Gaussian conditional.

The moves are the group moves of Liu & Sabatti 2000: they leave every
linear predictor unchanged, so they evaluate no likelihood and keep the
rows. Every accept test, with log ratio r and accept uniform u, accepts
when log u < r, where log 0 is -inf: since log u < 0, every r >= 0 accepts,
and a nan or -inf r never does. The sweep's scalar work (the block steps'
prior terms, the scale move's ratio, the shifts' sums over the three
heads and their coefficients' moves) is done in Python floats, each sum
added left to right.

The equality contract. Every proposal's linear predictors, a block's or
the latents', are computed from scratch, as coefs @ X with the moved
coefficients or latent row, and the kept rows are the kernels' rows of the
predictor at which each entry was last accepted. The moves change c and
the coefficients but not the rows, which differ from rows recomputed from
scratch in rounding only. The predictor's association is the matrix
product's, not HEAD_TERMS order, so the rows match head_log_likelihood's
within rounding, not bit for bit.

Tuning. F, tau and the latent half-widths delta are the only proposal
scales, and each is a function of the state: tau = 2.38 / sqrt(2 (sum c^2
+ sum of squared loadings)), and delta_i = 2.38 sqrt(3 / H_i), where
H_i = 1 + sum_h k_h^2 w_hi is row i's conditional curvature in c, k_h head
h's loading and w_hi the row's Fisher weight in F (p (1 - p), or the
rate). A uniform window of half-width delta_i has sd 2.38 / sqrt(H_i), the
Roberts-Gelman-Gilks scale with d = 1. All are computed (_State.tune) at
the start and after burn-in sweeps 1, 2, 4, 8, ... (so that the scales
follow the chain's first steps away from the all-zero start), every
ADAPT_EVERY sweeps, and the last. After burn-in they are frozen, so the
kernel is a fixed Metropolis-Hastings kernel.

Test-time inference (infer_latent) fixes the parameters, so each row's
latent posterior is one-dimensional and log-concave: Newton finds its mode
and a grid centred there integrates it. Nothing is random and no step
reduces across rows, so each row's posterior mean is an exact function of
that row. The grid stage runs on GRID_BLOCK rows at a time, so its working
memory peaks at about 7 arrays of GRID_BLOCK x GRID_POINTS doubles (0.7 MB)
however many rows are inferred; everything else is O(rows).

Random streams. One master seed. derive_rng(seed, 0, 0) drives the
parameter steps and moves and derive_rng(seed, 1, 0) all n training
latents: each sweep's latent phase takes the next 2n uniforms of that one
stream, the first n the proposals of latents 0 to n-1 and the next n their
accept tests. They are drawn in whole sweeps, BUDGET doubles' worth at a
time (one sweep's if 2n is more), into one buffer: 512 KB up to n = 32,768
and 16 bytes per row beyond, however long the chain runs. The parameter
stream gives each sweep its standard normals in one call (each block
step's, the job, house and credit blocks' in turn, then the scale move's,
then one per shift), then its PARAM_UNIFORMS accept uniforms in another
(each block step's job, house and credit tests, then the scale move's).
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import probmodel
from .dataset import Dataset
from .errors import ConfigError, DataError, SamplerError
from .probmodel import (
    Design,
    ModelConfig,
    ModelParams,
    HEAD_CREDIT,
    HEAD_TERMS,
    PARAM_NAMES,
    _stacked_rows,
    per_obs_log_likelihood,
)
from .util import (
    STREAM_PARAMS,
    STREAM_TRAIN_LATENT,
    atomic_write_text,
    check_seed,
    derive_rng,
    numbered_rows,
    read_text,
)

ADAPT_EVERY = 100     # sweeps between tunings during burn-in
ERROR_BUDGET = 0.01   # abort when likelihood errors exceed this fraction of steps
BUDGET = 1 << 16      # latent uniforms drawn per refill, in whole sweeps of 2n
RW_SCALE = 2.38       # a random walk's scale per sqrt(dimension), Roberts et al. 1997
BLOCK_STEPS = 2       # block steps per head a sweep
PARAM_UNIFORMS = 3 * BLOCK_STEPS + 1  # a sweep's accept tests but the latents'

# exact test-time inference (infer_latent)
NEWTON_MAX_STEPS = 100
NEWTON_TOL = 1e-12       # a row's mode is found once its step is below this, relative
TAIL_NATS = 40.0         # each end of a row's grid lies this far below its mode
# points in each row's grid. At 201, seed 0's 200 test rows are as close to
# a dense quadrature (means within 1e-15, both protocols), but most rows'
# last bits move; 401 keeps every row's test-time mean bit for bit
GRID_POINTS = 401
GRID_BLOCK = 32          # rows per grid block; 16 to 32 ran fastest, 64 ran 11-34% slower
WIDEN_MAX = 20           # moves of a grid end before giving up

# The state's coefficients are a (3, 4) array: row h holds head h's
# coefficients over X's rows (1, sex, age, c). _CELLS[j] is the flat cell of
# parameter j, in serialization order; the credit head's intercept cell
# stays 0 without b_c, which adds an exact 0 to its predictor.
_X_ROWS = {"one": 0, "sex": 1, "age": 2, "c": 3}
_CELLS = tuple(
    4 * head + _X_ROWS[name] for head, terms in enumerate(HEAD_TERMS) for _, name in terms
)


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length and seed.

    iterations counts total sweeps; the first burn_in sweeps are discarded and
    the rest kept at stride thin, so (iterations - burn_in) // thin draws are
    stored. Nothing else is settable: every proposal, the latents' windows
    included, scales itself by the state (see the module docstring).

    The default keeps 4,000 draws after a burn-in of 400 sweeps. The warm-up
    from the all-zero start ends by about sweep 250 on the bundled data: at
    a burn-in of 200 two of sampler seeds 0-19 freeze their tuning before it
    ends (latent acceptance about 0.2, worst bulk ESS about 70), while from
    250 on every seed's latents accept 0.34 or more of their steps and its
    worst bulk ESS is above 240. The tunings up to sweep 400 do not depend
    on burn_in, so a longer burn-in runs the same chain through sweep 400.
    """

    iterations: int = 4400
    burn_in: int = 400
    thin: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError(
                f"burn_in must lie in [0, iterations), got {self.burn_in} of {self.iterations}"
            )
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        check_seed(self.seed, "seed")

    def n_draws(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class Chain:
    """Stored draws, per-row latent summaries and bookkeeping from one run.

    Every parameter draw is kept. Of the latent draws only the requested
    columns are: latent_draws[:, j] holds latent latent_columns[j], and
    latent_mean holds each row's mean over the draws. The chain carries the
    configs it ran with, config (the sampler's) and model_config, so stage
    two takes the chain alone. Each parameter's accept_rate_params entry is
    its head's block's rate.
    """

    param_names: tuple[str, ...]
    param_draws: np.ndarray            # (n_draws, n_params)
    latent_mean: np.ndarray            # (n_obs,)
    latent_columns: tuple[int, ...]
    latent_draws: np.ndarray           # (n_draws, len(latent_columns))
    accept_rate_params: np.ndarray     # per parameter, post burn-in
    accept_rate_latents: float         # pooled over latents, post burn-in
    config: SamplerConfig
    model_config: ModelConfig
    n_likelihood_errors: int = 0       # over every sweep
    n_likelihood_errors_post: int = 0  # after burn-in: the error budget's count

    def n_draws(self) -> int:
        return int(self.param_draws.shape[0])

    def theta_median(self) -> ModelParams:
        """Each parameter's median draw, as np.median computes it: the middle
        draw, or the two middle ones' sum halved, from one partition. Not by
        np.median, whose NaN check imports numpy.ma (about 5 ms); the draws
        are finite."""
        n = self.param_draws.shape[0]
        mid = n // 2
        part = np.partition(self.param_draws, (mid - 1, mid), axis=0)
        med = part[mid] if n % 2 else (part[mid - 1] + part[mid]) / 2.0
        return ModelParams.from_vector(med)


class _Tuning(NamedTuple):
    """The sweep's proposal scales, computed by _State.tune and fixed until
    the next tuning."""

    factor: np.ndarray  # (12, n_block): a block step's normals to its coefficients' moves
    tau: float          # the scale move's normal sd
    widths: np.ndarray  # (n,): each latent window's half-width


def _block_factor(info: np.ndarray) -> np.ndarray:
    """L = chol(s^2 (F + I)^-1) of Fisher informations F, (..., d, d), for
    s = RW_SCALE / sqrt(d): the block step's covariance is the posterior's
    curvature at the tuned state, the prior's identity included."""
    d = info.shape[-1]
    return (RW_SCALE / math.sqrt(d)) * np.linalg.cholesky(np.linalg.inv(info + np.eye(d)))


class _State:
    """One state of the chain: X = [1, sex, age, c], each head's
    coefficients over X's rows, and each head's rows there.

    rows (3, n) holds the job and house heads' softplus rows, minus their
    log-likelihood rows, then the credit head's rows, each from the linear
    predictor computed from scratch (coefs @ X) when the entry was last
    accepted; totals() gives each head's sum of them, cached until a latent
    step changes them. Every proposal is evaluated by the engine's stacked
    kernel (probmodel._stacked_rows) into a second (3, n) buffer, which
    becomes rows when a block step accepts all three heads; a partial
    accept copies the accepted heads' rows, and the latent step merges the
    accepted columns. The moves leave every predictor unchanged, so they
    keep the rows. A latent proposal's predictors are computed from
    scratch too, in _proposal, a copy of X that differs from it in row 3
    alone. The steps change the state in place; see the module docstring.
    """

    def __init__(self, design: Design, theta: np.ndarray, c: np.ndarray):
        k = theta.shape[0]
        n = len(design)
        self.design = design
        self.cells = np.array(_CELLS[:k])
        self.coefs = np.zeros((3, 4))
        self.coefs.flat[self.cells] = theta
        self.X = np.stack([np.ones(n), design.sex, design.age, c])
        self._proposal = self.X.copy()
        self.nsign = np.stack([design.job_nsign, design.house_nsign])
        # the credit head's rows of X, in its parameters' order; the rows
        # that every head carries, which the shifts move along; and the
        # Gram matrix of X's rows 0 to 2
        self.credit_rows = self.cells[8:] - 8
        self.shift_rows = (1, 2, 0) if k == len(PARAM_NAMES) else (1, 2)
        self._shift_x = self.X[list(self.shift_rows)]
        self._gram = (self.X[:3] @ self.X[:3].T).tolist()
        # a sweep's normals: each block step's, then the scale move's and
        # one per shift
        self.n_block = 8 + len(self.credit_rows)
        self.n_normals = BLOCK_STEPS * self.n_block + 1 + len(self.shift_rows)
        # the predictors' scratch, the kept rows and the proposals' rows
        self._pred = np.empty((3, n))
        self.rows = np.empty((3, n))
        self.spare = np.empty((3, n))
        self.evaluate(self.coefs, self.X, self.rows)
        self._totals = None

    def evaluate(self, coefs: np.ndarray, X: np.ndarray, out: np.ndarray) -> int:
        """The heads' rows at coefs and X, from the linear predictors
        coefs @ X, written to out; returns how many credit rates are over
        the cap."""
        return _stacked_rows(np.matmul(coefs, X, out=self._pred), self.nsign, self.design, out)

    def theta(self) -> np.ndarray:
        """The parameter vector, in serialization order."""
        return self.coefs.take(self.cells)

    def tune(self) -> _Tuning:
        """The proposal scales at this state."""
        X, c, loads = self.X, self.X[3], self.coefs[:, 3]
        pred = np.matmul(self.coefs, X)
        t = np.exp(-np.abs(pred[:2]))
        weights = t / ((1.0 + t) * (1.0 + t))  # p (1 - p) of each logistic row
        logistic = np.matmul(X * weights[:, None, :], X.T)
        xc = X[self.credit_rows]
        rate = np.exp(pred[2])
        credit = np.matmul(xc * rate, xc.T)
        # each latent's conditional curvature H = 1 + sum_h k_h^2 w_h, its
        # rows' weights by the squared loadings plus the prior's 1; a uniform
        # window of half-width RW_SCALE sqrt(3 / H) has sd RW_SCALE / sqrt(H)
        squares = loads * loads
        curvature = squares[0] * weights[0] + squares[1] * weights[1] + squares[2] * rate + 1.0
        widths = RW_SCALE * np.sqrt(3.0 / curvature)
        # the scale move's log target has curvature -2 (sum c^2 + sum loads^2)
        # at eta = 0; with both sums 0 the move is the identity, so tau = 0
        spread = float(c @ c) + float(loads @ loads)
        tau = RW_SCALE / math.sqrt(2.0 * spread) if spread > 0.0 else 0.0
        # each head's factor L, block-diagonal from the normals of the job,
        # house and credit blocks to the cells of their coefficients
        factor = np.zeros((12, self.n_block))
        factor[0:4, 0:4], factor[4:8, 4:8] = _block_factor(logistic)
        factor[8 + self.credit_rows, 8:] = _block_factor(credit)
        return _Tuning(factor, tau, widths)

    def totals(self) -> list[float]:
        """Each head's kept rows' sum (the logistic heads' softplus sums),
        summed after the rows last changed."""
        if self._totals is None:
            self._totals = np.add.reduce(self.rows, axis=1).tolist()
        return self._totals

    def blocks(self, tuning: _Tuning, z: np.ndarray, log_u: list[float]) -> tuple[list[bool], int]:
        """One block step per head from the normals z, accepted by log_u's
        first three entries (job, house, credit). Returns whether each head
        accepted, and 1 if the credit proposal put a rate over the cap."""
        coefs, rows, spare = self.coefs, self.rows, self.spare
        prop = (tuning.factor @ z).reshape(3, 4)
        prop += coefs
        n_over = self.evaluate(prop, self.X, spare)
        kept = self.totals()
        new = np.add.reduce(spare, axis=1).tolist()
        # softplus rows are minus the log-likelihood's, so a logistic head's
        # gain is its kept sum less its proposed one; its prior's gain is
        # half of sum beta^2 - sum beta'^2, summed left to right
        gains = (kept[0] - new[0], kept[1] - new[1], new[2] - kept[2])
        priors = [
            (a0 * a0 - b0 * b0) + (a1 * a1 - b1 * b1) + (a2 * a2 - b2 * b2) + (a3 * a3 - b3 * b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(coefs.tolist(), prop.tolist())
        ]
        accepted = [log_u[h] < gains[h] + 0.5 * priors[h] for h in range(3)]
        accepted[2] = accepted[2] and not n_over
        if accepted[0] and accepted[1] and accepted[2]:
            coefs[:] = prop
            self.rows, self.spare = spare, rows
        else:
            for h in range(3):
                if accepted[h]:
                    coefs[h] = prop[h]
                    rows[h] = spare[h]
        for h in range(3):
            if accepted[h]:
                kept[h] = new[h]
        return accepted, int(n_over > 0)

    def latents(self, widths: np.ndarray, steps: np.ndarray, log_u: np.ndarray) -> tuple[int, int]:
        """Every latent score's random-walk step, c + widths * steps, accepted
        where log_u is below its log ratio. Returns how many accepted and how
        many proposed a rate over the cap."""
        c, moved, new = self.X[3], self._proposal[3], self.spare
        d = steps * widths
        np.add(c, d, out=moved)
        n_over = self.evaluate(self.coefs, self._proposal, new)
        # each latent's log ratio: its credit row's change less its softplus
        # rows' changes, less the prior's, half the change in its square,
        # (c + d/2) d
        change = np.subtract(new, self.rows, out=self._pred)
        ratio = change[2]
        ratio -= change[0]
        ratio -= change[1]
        prior = d * 0.5
        prior += c
        prior *= d
        ratio -= prior
        # the accepted entries are merged by index, one 1-d array at a time
        accepted = (log_u < ratio).nonzero()[0]
        if accepted.size:
            c[accepted] = moved[accepted]
            for kept, proposed in zip(self.rows, new):
                kept[accepted] = proposed[accepted]
            self._totals = None
        return accepted.size, n_over

    def scale(self, tau: float, z: float, log_u: float) -> bool:
        """The scale move by eta = tau * z, accepted when log_u is below its
        log ratio: the prior's change plus the Jacobian (n - 3) eta."""
        c, loads = self.X[3], self.coefs[:, 3]
        eta = tau * z
        k0, k1, k2 = loads.tolist()
        ratio = (
            -0.5 * math.expm1(2.0 * eta) * float(c @ c)
            - 0.5 * math.expm1(-2.0 * eta) * (k0 * k0 + k1 * k1 + k2 * k2)
            + (c.shape[0] - 3) * eta
        )
        if not log_u < ratio:
            return False
        c *= math.exp(eta)
        loads *= math.exp(-eta)
        return True

    def shifts(self, z: list[float]) -> None:
        """The exact shifts, one per shift row x of X with normal z, in turn:
        m is drawn from N(-B/A, 1/A), A = sum x^2 + sum loads^2 and
        B = sum c x - sum_h loads_h beta_h,x. Each shift's sum c x is the one
        before the shifts plus the earlier shifts' m times the Gram matrix
        of X's rows. The coefficients' sums and moves are in Python floats,
        each sum added left to right, and c takes all the shifts at the end,
        in one pass."""
        c = self.X[3]
        cells = self.coefs.tolist()
        k0, k1, k2 = (row[3] for row in cells)
        loads2 = k0 * k0 + k1 * k1 + k2 * k2
        cx = (self._shift_x @ c).tolist()
        ms = []
        for r, zr in zip(self.shift_rows, z):
            a = self._gram[r][r] + loads2
            b = cx[len(ms)] - (k0 * cells[0][r] + k1 * cells[1][r] + k2 * cells[2][r])
            # x and the loadings all 0: the move is the identity
            m = 0.0 if a == 0.0 else (zr * math.sqrt(a) - b) / a
            for row in cells:
                row[r] -= m * row[3]
            cx = [v + m * self._gram[r][s] for v, s in zip(cx, self.shift_rows)]
            ms.append(m)
        self.coefs[:] = cells
        c += np.array(ms) @ self._shift_x


def _sweep(
    state: _State,
    tuning: _Tuning,
    normals: np.ndarray,
    log_u: list[float],
    steps: np.ndarray,
    latent_log_u: np.ndarray,
) -> tuple[list[int], int, int]:
    """One sweep of the chain on state: BLOCK_STEPS block steps per head,
    the latents, the scale move and the shifts. It takes the sweep's
    state.n_normals normals (each block step's, then the scale move's, then
    one per shift), its PARAM_UNIFORMS log uniforms (each block step's job,
    house and credit tests, then the scale move's), and the latents' steps
    (in [-1, 1]) and log uniforms. Returns each head's accepted block steps,
    the latents accepted and the likelihood errors."""
    accepts, errors = [0, 0, 0], 0
    nb = state.n_block
    for step in range(BLOCK_STEPS):
        accepted, over = state.blocks(tuning, normals[nb * step:nb * (step + 1)], log_u[3 * step:])
        accepts = [a + b for a, b in zip(accepts, accepted)]
        errors += over
    n_accepted, n_over = state.latents(tuning.widths, steps, latent_log_u)
    rest = normals[nb * BLOCK_STEPS:].tolist()
    state.scale(tuning.tau, rest[0], log_u[-1])
    state.shifts(rest[1:])
    return accepts, n_accepted, errors + n_over


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def run_chain(
    data: Dataset,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    *,
    latent_columns: Sequence[int] = (),
) -> Chain:
    """Run the full Metropolis-within-Gibbs chain on a dataset.

    Every kept parameter draw is stored. Of the latents, the chain keeps a
    running sum of the kept rows, so latent_mean is bitwise the column mean
    of the full (n_draws, n) draw matrix when n >= 2 (numpy then reduces its
    axis 0 row by row, in the same order), and the draws of latent_columns
    only; the full matrix is never stored.

    The initial state is all zeros. Each sweep is _sweep on one _State (see
    the module docstring), from the sweep's parameter normals and uniforms,
    both drawn before its first step, and its share of the latent stream.
    The proposal scales are tuned during burn-in, as the module docstring
    says, and frozen after it. Results are bit-identical for a given config
    and seed.

    The chain runs with numpy's overflow, divide and invalid warnings off,
    and restores the caller's error state on return or raise: log 0 = -inf
    is an accept uniform's log, a scale move far out overflows exp and is
    rejected, and a start whose rates are over the cap has -inf rows, whose
    differences are nan ratios that never accept. Persistent likelihood
    errors, steps that propose a credit rate above the cap, abort the chain
    with a ConfigError naming model.poisson_rate_cap once they pass
    ERROR_BUDGET of its accept tests (PARAM_UNIFORMS and n latents a sweep).
    The budget counts the sweeps after burn-in alone, when the kernel is
    fixed, so the start's transient (every latent window 4.12 wide at the
    all-zero state) cannot abort a chain; it is checked every ADAPT_EVERY
    sweeps after burn-in and at the last. n_likelihood_errors counts every
    sweep's errors, n_likelihood_errors_post the budget's.
    """
    cfg = sampler_config
    n = len(data)
    columns = tuple(int(i) for i in latent_columns)
    for i in columns:
        if not (0 <= i < n):
            raise ValueError(f"latent column {i} out of range [0, {n})")
    design = Design.from_dataset(data, model_config)
    names = model_config.active_param_names()
    k = len(names)

    state = _State(design, np.zeros(k), np.zeros(n))
    c = state.X[3]
    tuning = state.tune()

    param_rng = derive_rng(cfg.seed, STREAM_PARAMS, 0)
    latent_rng = derive_rng(cfg.seed, STREAM_TRAIN_LATENT, 0)
    # a refill draws chunk sweeps' blocks of n proposal then n accept-test
    # uniforms; in C order their values do not depend on chunk
    chunk = max(1, BUDGET // (2 * n))
    uniforms = np.empty((chunk, 2, n))
    w, log_u = uniforms[:, 0], uniforms[:, 1]

    n_draws = cfg.n_draws()
    param_draws = np.empty((n_draws, k))
    latent_sum = np.zeros(n)
    column_index = np.array(columns, dtype=np.intp)
    column_draws = np.empty((n_draws, len(columns)))

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_blocks_post = [0, 0, 0]
    acc_latent_post = 0
    err_steps = 0
    err_post = 0  # the error budget's count: likelihood errors after burn-in

    draw_idx = 0

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in
        normals = param_rng.standard_normal(state.n_normals)
        # each test's log u, log 0 = -inf: it accepts when log u < log r
        param_log_u = [
            math.log(v) if v else -math.inf for v in param_rng.random(PARAM_UNIFORMS).tolist()
        ]
        s = (sweep - 1) % chunk
        if s == 0:
            latent_rng.random(out=uniforms)
            np.multiply(w, 2.0, out=w)
            np.subtract(w, 1.0, out=w)
            np.log(log_u, out=log_u)  # log 0 = -inf
        accepts, n_acc, errors = _sweep(state, tuning, normals, param_log_u, w[s], log_u[s])
        err_steps += errors
        if post:
            acc_latent_post += n_acc
            acc_blocks_post = [a + b for a, b in zip(acc_blocks_post, accepts)]
            err_post += errors
            since = sweep - cfg.burn_in
            post_steps = since * (n + PARAM_UNIFORMS)
            checked = since % ADAPT_EVERY == 0 or sweep == cfg.iterations
            if checked and err_post > ERROR_BUDGET * post_steps:
                raise ConfigError(
                    f"sampler aborted at sweep {sweep}: {err_post} likelihood errors (steps "
                    "proposing a credit rate above model.poisson_rate_cap = "
                    f"{model_config.poisson_rate_cap!r}) over the {post_steps} steps "
                    f"after burn-in (> {ERROR_BUDGET:.0%})"
                )
        # powers of two too, so that the scales follow the chain's first
        # steps away from the all-zero start
        if sweep <= cfg.burn_in and (
            sweep % ADAPT_EVERY == 0 or sweep & (sweep - 1) == 0 or sweep == cfg.burn_in
        ):
            tuning = state.tune()

        if post and (sweep - cfg.burn_in) % cfg.thin == 0:
            param_draws[draw_idx] = state.theta()
            latent_sum += c
            column_draws[draw_idx] = c[column_index]
            draw_idx += 1

    assert draw_idx == n_draws
    head_of = [p // 4 for p in _CELLS[:k]]
    return Chain(
        param_names=names,
        param_draws=param_draws,
        latent_mean=latent_sum / n_draws,
        latent_columns=columns,
        latent_draws=column_draws,
        accept_rate_params=(
            np.array([acc_blocks_post[h] for h in head_of]) / max(BLOCK_STEPS * post_sweeps, 1)
        ),
        accept_rate_latents=acc_latent_post / max(n * post_sweeps, 1),
        config=cfg,
        model_config=model_config,
        n_likelihood_errors=err_steps,
        n_likelihood_errors_post=err_post,
    )


def _latent_domain(
    vec: np.ndarray, design: Design, include_credit: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row bounds on c where the credit rate stays within the cap.

    The bound on the capped side is the largest (or smallest) c whose
    credit_linear, in the engine's own arithmetic, is not above cap_log, so
    a grid ending there is not cut off by the engine's rounding. Unbounded
    otherwise, and always for the honest protocol.
    """
    n = len(design)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    if not include_credit:
        return lo, hi
    k = float(vec[probmodel.LATENT_SLOPES[HEAD_CREDIT]])
    base = probmodel.credit_linear(vec, np.zeros(n), design)
    if k == 0.0:
        if np.any(base > design.cap_log):
            raise SamplerError("a credit rate is above the cap for every latent value")
        return lo, hi
    edge = (design.cap_log - base) / k
    inward = -math.copysign(math.inf, k)
    for _ in range(4):  # an ulp or two inward is enough
        over = probmodel.credit_linear(vec, edge, design) > design.cap_log
        if not over.any():
            break
        edge = np.where(over, np.nextafter(edge, inward), edge)
    if k > 0.0:
        return lo, edge
    return edge, hi


def _latent_modes(
    slopes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's posterior mode in [lo, hi], with the log density's slope and
    curvature there, by safeguarded Newton.

    slopes(c) gives the log density's first and second derivatives per row;
    the second is at most -1 everywhere (the N(0, 1) prior's), so the mode
    lies between c and c + f'(c) for any c, which brackets it from the start.
    As in Numerical Recipes' rtsafe, a row bisects its bracket instead when
    the Newton point leaves it or the Newton step is over half the step
    before last. A row stops on its own step size and is not moved again, so
    it is a function of that row alone.
    """
    c = np.clip(0.0, lo, hi)
    grad, curv = slopes(c)
    lo, hi = np.clip(np.minimum(c, c + grad), lo, hi), np.clip(np.maximum(c, c + grad), lo, hi)
    step = before = hi - lo
    active = np.ones(c.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            lo = np.where(grad >= 0.0, c, lo)
            hi = np.where(grad <= 0.0, c, hi)
            newton = -grad / curv
            nxt = c + newton
            bisect = ~((nxt >= lo) & (nxt <= hi)) | (np.abs(newton) > 0.5 * np.abs(before))
            nxt = np.where(bisect, 0.5 * (lo + hi), nxt)
            before = np.where(active, step, before)
            step = np.where(active, nxt - c, step)
            c = np.where(active, nxt, c)
            # a nan step stays active, and so fails below
            active &= ~(np.abs(step) <= NEWTON_TOL * (1.0 + np.abs(c)))
            grad, curv = slopes(c)
            if not active.any():
                return c, grad, curv
    raise SamplerError(
        f"Newton did not find the latent mode of {int(np.count_nonzero(active))} "
        f"rows in {NEWTON_MAX_STEPS} steps"
    )


def infer_latent(
    theta_hat: ModelParams,
    data: Dataset,
    model_config: ModelConfig,
    *,
    include_credit: bool,
) -> np.ndarray:
    """Posterior mean of every row's latent score under fixed parameters,
    computed exactly rather than sampled: entry i is row i's.

    Given the parameters, row i's latent posterior is one-dimensional and
    strictly log-concave (concave heads, N(0, 1) prior). Newton finds its
    mode; a grid of GRID_POINTS values then spans the mode plus or minus the
    width at which a Gaussian with the mode's slope and curvature falls
    TAIL_NATS below it, each end moved out until the log density there truly
    is TAIL_NATS below the mode's (or the end is the rate cap's bound). The
    engine evaluates the grid through a column-shaped Design; points over the
    rate cap weigh 0. The mean is a ratio of trapezoid sums with
    Euler-Maclaurin end corrections. No step reduces across rows, so row i
    is an exact function of row i, and the grid stage (_grid_means) runs on
    blocks of GRID_BLOCK rows: its memory, about 7 x GRID_BLOCK x GRID_POINTS
    doubles, does not grow with the rows. Newton and the grid ends hold
    O(rows) arrays.
    include_credit=True conditions each row on its own credit amount;
    prediction must use False so the target cannot leak into its feature.
    """
    design = Design.from_dataset(data, model_config)
    cols = design.columns()
    # b_c is read only by the credit head
    vec = theta_hat.to_vector(include_credit and model_config.include_credit_intercept)

    def log_density(c: np.ndarray, rows: Design) -> np.ndarray:
        # the prior's constant cancels against the mode's
        return per_obs_log_likelihood(vec, c, rows, include_credit)[0] - 0.5 * c * c

    def slopes(c: np.ndarray, rows: Design = design) -> tuple[np.ndarray, np.ndarray]:
        grad, curv = probmodel.per_obs_latent_slopes(vec, c, rows, include_credit)
        return grad - c, curv - 1.0

    lo_dom, hi_dom = _latent_domain(vec, design, include_credit)
    mode, grad, curv = _latent_modes(slopes, lo_dom, hi_dom)
    top = log_density(mode, design)

    # where f(mode) - |f'| t + f'' t^2 / 2 falls TAIL_NATS: sqrt(2 TAIL_NATS)
    # Laplace sds from an interior mode, less from a mode on the cap's bound
    slope = np.abs(grad)
    reach = 2.0 * TAIL_NATS / (slope + np.sqrt(slope * slope - 2.0 * TAIL_NATS * curv))
    ends = mode[:, None] + reach[:, None] * (-1.0, 1.0)
    bounds = np.column_stack([lo_dom, hi_dom])
    for _ in range(WIDEN_MAX):
        ends = np.clip(ends, lo_dom[:, None], hi_dom[:, None])
        drop = top[:, None] - log_density(ends, cols)
        short = (ends != bounds) & (drop < TAIL_NATS)
        if not short.any():
            break
        # the drop is convex in the distance from the mode, so its tangent
        # reaches TAIL_NATS at or beyond where the drop itself does
        rate = np.abs(slopes(ends, cols)[0])
        outward = np.sign(ends - mode[:, None])
        ends = np.where(short, ends + outward * (TAIL_NATS - drop) / rate, ends)
    else:
        raise SamplerError(f"latent grid did not reach {TAIL_NATS:g} nats below the mode")

    n = len(design)
    mean = np.empty(n)
    for start in range(0, n, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        mean[block] = _grid_means(
            log_density, slopes, cols.rows(block), mode[block], top[block], ends[block]
        )
    return mean


def _grid_means(
    log_density: Callable[[np.ndarray, Design], np.ndarray],
    slopes: Callable[[np.ndarray, Design], tuple[np.ndarray, np.ndarray]],
    cols: Design,
    mode: np.ndarray,
    top: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Mean of each row's latent posterior from a grid of GRID_POINTS values
    on [ends[:, 0], ends[:, 1]].

    cols holds the rows as columns, mode their modes and top the log
    density there. The density's arrays have shape (rows, GRID_POINTS), so
    infer_latent passes at most GRID_BLOCK rows at a time; its slope is
    evaluated only on the three points at each end.
    """
    lo, hi = ends[:, 0], ends[:, 1]
    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)
    grid[:, -1] = hi
    h = (hi - lo) / (GRID_POINTS - 1)
    dens = np.exp(log_density(grid, cols) - top[:, None])
    off = grid - mode[:, None]  # the first moment about the mode, which is near the mean
    at = [0, 1, 2, -3, -2, -1]  # the points the end corrections read
    end_dens, end_off = dens[:, at], off[:, at]
    with np.errstate(over="ignore", invalid="ignore"):
        end_dens_d = np.where(end_dens == 0.0, 0.0, end_dens * slopes(grid[:, at], cols)[0])

    # the integral over the grid by Euler-Maclaurin: the trapezoid sum (a
    # sequential one, as the last of np.cumsum's running sums) less h^2/12
    # times the change in the integrand's slope, plus h^4/720 times that in
    # its third derivative, taken as h^-2 times the second difference of the
    # slope at each end. The terms vanish at an end TAIL_NATS down, but not
    # at the rate cap's bound
    def integral(values: np.ndarray, slope: np.ndarray) -> np.ndarray:
        trap = h * (np.cumsum(values, axis=1)[:, -1] - 0.5 * (values[:, 0] + values[:, -1]))
        third_lo = slope[:, 2] - 2.0 * slope[:, 1] + slope[:, 0]
        third_hi = slope[:, 5] - 2.0 * slope[:, 4] + slope[:, 3]
        return trap + h * h * ((third_hi - third_lo) / 720.0 - (slope[:, 5] - slope[:, 0]) / 12.0)

    mass = integral(dens, end_dens_d)
    return mode + integral(off * dens, end_dens + end_off * end_dens_d) / mass


# ---------------------------------------------------------------------------
# chain file io

def export_chain(chain: Chain, out_dir: str, header: tuple[str, ...] = ()) -> list[str]:
    """Write params.csv and latents.csv under out_dir, each after the header
    lines; returns the paths.

    Each row is the draw index and that draw's values, each value by repr
    (util.numbered_rows, which formats each run of a repeated value once).
    latents.csv holds the latent columns the chain kept (chain.latent_columns);
    with none, each of its rows is the draw index alone.
    """
    paths = []
    for name, columns, draws in (
        ("params.csv", chain.param_names, chain.param_draws),
        ("latents.csv", [f"c_{i}" for i in chain.latent_columns], chain.latent_draws),
    ):
        lines = [",".join(["draw", *columns])]
        lines += numbered_rows(draws)
        p = os.path.join(out_dir, name)
        atomic_write_text(p, "\n".join(lines) + "\n", header)
        paths.append(p)
    return paths


def read_param_chain_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a params.csv written by export_chain: (names, draws array)."""
    rows = [ln for ln in read_text(path).splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise DataError(f"{path}: no content")
    header = rows[0].split(",")
    if header[:1] != ["draw"] or len(header) < 2:
        raise DataError(f"{path}: malformed chain file header: {rows[0]!r}")
    names = tuple(header[1:])
    # the names become plot file names, so only export_chain's are accepted
    if len(set(names)) < len(names) or not set(names) <= set(PARAM_NAMES):
        raise DataError(
            f"{path}: chain file columns must be distinct parameter names, got {rows[0]!r}"
        )
    try:
        draws = np.array([[float(v) for v in ln.split(",")[1:]] for ln in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: malformed chain file row: {exc}") from exc
    if draws.ndim != 2 or draws.shape[1] != len(names):
        raise DataError(f"{path}: malformed chain file shape")
    if draws.shape[0] < 2:
        raise DataError(f"{path}: a chain needs at least 2 draws, got {draws.shape[0]}")
    if not np.isfinite(draws).all():
        raise DataError(f"{path}: chain file holds a non-finite value")
    return names, draws
