"""Metropolis-within-Gibbs inference over parameters and latent scores, and
exact test-time inference of latent scores under fixed parameters.

Each sweep updates every parameter by a single-coordinate normal random walk,
then every latent score by a uniform-window random walk, all accepted or
rejected in log space against the joint posterior by one test: a step with
log ratio r and accept uniform u accepts when log u < r, where log 0 is
-inf. Since log u < 0, every r >= 0 accepts, and a nan or -inf r never
does. The job and house heads share no parameter, so their coefficients are
proposed in lockstep, as one (2, n) evaluation, and accepted or rejected
each on its own. Each head block keeps its linear-predictor terms between
proposals (probmodel.HeadTerms), so a proposal recomputes only the term it
moves and the sums after it, in one call per proposal and one per accept;
the sweep takes each step's coefficients out of its proposal vector as a
strided view. The credit head's coefficient steps are accepted a few
percent of the time, so each is first screened, in one call: an upper
bound on its log ratio (HeadTerms.step_bound), which holds after rounding,
below log u rejects it unevaluated. The screen changes no accept decision.
The logistic exp runs with no guard against overflow: the chain runs with
numpy's overflow and divide warnings off, and a proposal whose exp
overflows (a signed predictor z below about -709.78) has an infinite
softplus and a -inf log ratio, which the test rejects, as it rejects a
credit rate over the cap; it is not counted as a likelihood error.

The latent phase proposes every latent score at once. Its per-sweep arrays
(the proposals, their prior terms, the two log-likelihood sums, the log
ratio and the accept mask) are allocated once per chain and refilled in
place. The accepted latents' indices are found once (ndarray.nonzero), and
only those entries of the latent scores, their prior terms and each block's
kept rows and rates are overwritten, in place. On a mask that is new and
random every sweep, an indexed copy beats np.where while up to about 60% of
the latents accept; the default chains, which adapt toward 35%, accept 29%
(fit) and 53% (synth_large) after burn-in. So the latent scores are one
array for the whole chain, which the blocks hold as their latent column,
and nothing else may hold it across sweeps. The credit screen takes max |c|
when it first runs after the merge.

Test-time inference (infer_latent) fixes the parameters, so each row's
latent posterior is one-dimensional and log-concave: Newton finds its mode
and a grid centred there integrates it. Nothing is random and no step
reduces across rows, so each row's posterior mean is an exact function of
that row. The grid stage runs on GRID_BLOCK rows at a time, so its working
memory peaks at about 7 arrays of GRID_BLOCK x GRID_POINTS doubles (0.7 MB)
however many rows are inferred; everything else is O(rows).

Random streams. One master seed. derive_rng(seed, 0, 0) drives the parameter
updates and derive_rng(seed, 1, 0) all n training latents: each sweep's
latent phase takes the next 2n uniforms of that one stream, the first n the
proposals of latents 0 to n-1 and the next n their accept tests. They are
drawn in whole sweeps, BUDGET doubles' worth at a time (one sweep's if 2n is
more), into one buffer: 512 KB up to n = 32,768 and 16 bytes per row beyond,
however long the chain runs. The parameter stream gives each sweep k
standard normals, the proposals of the k parameters in serialization order,
then k uniforms, their accept tests, two calls in all. All are drawn before
the sweep's first step, so updating the heads in lockstep consumes the
stream exactly as one parameter at a time in that order would.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import probmodel
from .dataset import Dataset
from .errors import ConfigError, DataError, SamplerError
from .probmodel import (
    Design,
    HeadTerms,
    ModelConfig,
    ModelParams,
    HEAD_CREDIT,
    HEAD_HOUSE,
    HEAD_JOB,
    LOG_2PI,
    PARAM_NAMES,
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

ADAPT_EVERY = 100     # sweeps between proposal-width rescalings during burn-in
ADAPT_FACTOR = 1.1
ERROR_BUDGET = 0.01   # abort when likelihood errors exceed this fraction of steps
BUDGET = 1 << 16      # latent uniforms drawn per refill, in whole sweeps of 2n

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


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length and proposal settings.

    iterations counts total sweeps; the first burn_in sweeps are discarded and
    the rest kept at stride thin, so (iterations - burn_in) // thin draws are
    stored. delta is the half-width of the uniform latent proposal and
    param_step the std of the normal parameter proposal; with
    adapt_during_burn_in both are rescaled by 1.1 every 100 burn-in sweeps
    toward target_accept, then frozen.
    """

    iterations: int = 5000
    burn_in: int = 1000
    thin: int = 1
    delta: float = 0.5
    param_step: float = 0.1
    adapt_during_burn_in: bool = True
    target_accept: float = 0.35
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
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not (self.param_step > 0 and math.isfinite(self.param_step)):
            raise ValueError(f"param_step must be positive, got {self.param_step!r}")
        if not (0 < self.target_accept < 1):
            raise ValueError(f"target_accept must be in (0,1), got {self.target_accept!r}")
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
    two takes the chain alone.
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
    n_likelihood_errors: int = 0

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


@np.errstate(over="ignore", divide="ignore")
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

    Initial state is all zeros. Within a sweep, parameters update first,
    then all latents. The job and house heads share no parameter, so the
    parameter phase moves them in lockstep: step k proposes term k of both
    logistic heads (b, then the sex, age and latent coefficients) as one
    (2, n) evaluation and accepts or rejects each head on its own, and the
    credit head's coefficient k (the intercept last) follows in the same
    step. The sweep draws its k proposal normals, then its k accept
    uniforms, before its first step; parameter j's proposal and accept test
    are the j-th of each, in serialization order, so the stream is consumed,
    and the chain comes out, exactly as with one step per parameter in that
    order.

    Each head block (probmodel.HeadTerms) keeps the terms, running sums and
    rows of its linear predictors at the current state: a proposal
    recomputes only its own term and the sums after it, in the order
    head_log_likelihood adds them, so every likelihood is bitwise the one
    computed from scratch. The latent phase moves each block's latent term
    once, into arrays allocated once per chain, and the entries of the
    latents it accepts are merged in by index, in place: their latent
    scores, prior terms, and each block's rows (HeadTerms.accept_rows). The
    logistic block keeps softplus rows and totals, minus its log-likelihood
    ones, so a logistic step's ratio is its kept total less its moved one,
    and the latent ratio subtracts the rows' sum from the credit rows. A
    block's totals are summed only when a coefficient step is evaluated on
    it, so the credit block's mostly are not. A rejected proposal's values,
    such as the -inf rows of one over the rate cap, are never kept. A credit
    coefficient step whose log ratio is provably below the log of its
    accept uniform (HeadTerms.step_bound) is rejected without evaluating
    it; one that could put a rate over the cap is always evaluated, so the
    error count is that of evaluating every step. Results are bit-identical
    for a given config and seed.

    The logistic rows are bitwise head_log_likelihood's except where exp
    overflows (z below about -709.78). There head_log_likelihood's row is z
    and the block's is -inf, so the step's log ratio is -inf and the step is
    rejected. With the exact row the log ratio is at most -709.78 less the
    kept target (the head's log-likelihood, or the latent's rows, less half
    the moved value's square), so the step is rejected alike at every
    accept uniform above 0 (log u >= -36.8) unless that target is below
    about -673: the chain can differ from one on the exact rows only at a
    uniform of exactly 0 (probability 2^-53 a step) or from a kept state
    that far down. The chain runs with numpy's overflow and divide warnings
    off, and restores the caller's error state on return or raise.
    Persistent likelihood errors, steps that propose a credit rate above the
    cap, abort the chain with a ConfigError naming model.poisson_rate_cap
    once they pass ERROR_BUDGET of its steps, checked every ADAPT_EVERY
    sweeps and at the last.
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

    theta = np.zeros(k)
    c = np.zeros(n)
    prior = 0.5 * (LOG_2PI + c * c)  # each latent's -log N(c; 0, 1)
    delta = cfg.delta
    step = cfg.param_step

    param_rng = derive_rng(cfg.seed, STREAM_PARAMS, 0)
    latent_rng = derive_rng(cfg.seed, STREAM_TRAIN_LATENT, 0)
    # a refill draws chunk sweeps' blocks of n proposal then n accept-test
    # uniforms; in C order their values do not depend on chunk
    chunk = max(1, BUDGET // (2 * n))
    uniforms = np.empty((chunk, 2, n))
    w, log_u = uniforms[:, 0], uniforms[:, 1]

    # the latent phase's per-sweep arrays, refilled in place every sweep
    c_prop, prior_prop, ll_cur, ll_prop, log_ratio = np.empty((5, n))
    accept = np.empty(n, dtype=bool)

    n_draws = cfg.n_draws()
    param_draws = np.empty((n_draws, k))
    latent_sum = np.zeros(n)
    column_index = np.array(columns, dtype=np.intp)
    column_draws = np.empty((n_draws, len(columns)))

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_param_post = [0] * k
    acc_latent_post = 0
    win_param_acc = win_latent_acc = 0
    err_steps = 0

    draw_idx = 0

    logistic = HeadTerms((HEAD_JOB, HEAD_HOUSE), theta, c, design)
    credit = HeadTerms((HEAD_CREDIT,), theta, c, design)
    # each step takes its coefficients out of the sweep's proposals as a
    # (heads, 1) strided view: term k of the logistic heads is at k and k + 4
    logistic_steps, credit_steps = (
        [((slice(p[0], p[-1] + 1, max(1, p[-1] - p[0])), None), p) for p in block.positions]
        for block in (logistic, credit)
    )

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in

        # parameter phase: k proposal normals, then k accept uniforms. The
        # blocks may keep views of proposal, a new array every sweep
        proposal = theta + step * param_rng.standard_normal(k)
        # each step's log u, log 0 = -inf: it accepts when log u < log r
        param_log_u = [math.log(v) if v else -math.inf for v in param_rng.random(k).tolist()]
        olds, props = theta.tolist(), proposal.tolist()
        for term, (view, positions) in enumerate(logistic_steps):
            # the logistic heads' term, in lockstep. Their totals are softplus
            # sums, minus their log-likelihoods, so each ratio is cur - new:
            # -inf where an exp overflowed
            new_sums, cur_sums = logistic.move(term, proposal[view])
            accepted = []
            for j, new_sum, cur_sum in zip(positions, new_sums, cur_sums):
                old, new = olds[j], props[j]
                ok = param_log_u[j] < (cur_sum - new_sum) + 0.5 * (old * old - new * new)
                if ok:
                    theta[j] = new
                    win_param_acc += 1
                    if post:
                        acc_param_post[j] += 1
                accepted.append(ok)
            if any(accepted):
                logistic.accept_heads(accepted)
            if term >= len(credit_steps):
                continue
            # then the credit head's term
            view, (j,) = credit_steps[term]
            old, new = olds[j], props[j]
            prior_diff = 0.5 * (old * old - new * new)
            # the screen: step_bound plus the prior term is at least the
            # step's log ratio (rounded addition is monotone), so below
            # log u the step is rejected, unevaluated
            if credit.step_bound(term, new - old) + prior_diff < param_log_u[j]:
                continue
            (new_sum,), (cur_sum,) = credit.move(term, proposal[view])
            if new_sum == -math.inf:  # a rate over the cap
                err_steps += 1
                continue
            if param_log_u[j] < (new_sum - cur_sum) + prior_diff:
                theta[j] = new
                win_param_acc += 1
                if post:
                    acc_param_post[j] += 1
                credit.accept_heads([True])

        # latent phase, vectorized across observations
        s = (sweep - 1) % chunk
        if s == 0:
            latent_rng.random(out=uniforms)
            np.multiply(w, 2.0, out=w)
            np.subtract(w, 1.0, out=w)
            np.log(log_u, out=log_u)  # log 0 = -inf

        np.multiply(w[s], delta, out=c_prop)
        np.add(c, c_prop, out=c_prop)
        np.multiply(c_prop, c_prop, out=prior_prop)
        np.add(prior_prop, LOG_2PI, out=prior_prop)
        np.multiply(prior_prop, 0.5, out=prior_prop)
        soft_rows, _ = logistic.move_latent(c_prop)
        credit_rows, n_over = credit.move_latent(c_prop)
        err_steps += n_over
        # heads added as per_obs_log_likelihood adds them, and the ratio
        # associated as target(proposal) - target(current), so a scalar step
        # on one latent at a time agrees with this vectorized phase bitwise:
        # the logistic block keeps softplus rows s, minus its rows, and
        # credit - (s_job + s_house) is bitwise (-s_job + -s_house) + credit
        np.add(logistic.rows[0], logistic.rows[1], out=ll_cur)
        np.subtract(credit.rows[0], ll_cur, out=ll_cur)
        np.add(soft_rows[0], soft_rows[1], out=ll_prop)
        np.subtract(credit_rows[0], ll_prop, out=ll_prop)
        np.subtract(ll_prop, prior_prop, out=ll_prop)
        np.subtract(ll_cur, prior, out=ll_cur)
        np.subtract(ll_prop, ll_cur, out=log_ratio)
        # log u < 0, so this also accepts every ratio >= 0
        np.less(log_u[s], log_ratio, out=accept)
        accepted = accept.nonzero()[0]
        c[accepted] = c_prop[accepted]
        prior[accepted] = prior_prop[accepted]
        logistic.accept_rows(accepted, c)
        credit.accept_rows(accepted, c)
        n_acc = accepted.size
        win_latent_acc += n_acc
        if post:
            acc_latent_post += n_acc

        total_steps = sweep * (k + n)  # k parameter steps and n latent steps a sweep
        checked = sweep % ADAPT_EVERY == 0 or sweep == cfg.iterations
        if checked and err_steps > ERROR_BUDGET * total_steps:
            raise ConfigError(
                f"sampler aborted at sweep {sweep}: {err_steps} likelihood errors (steps "
                "proposing a credit rate above model.poisson_rate_cap = "
                f"{model_config.poisson_rate_cap!r}) over {total_steps} steps "
                f"(> {ERROR_BUDGET:.0%}); delta={delta!r} param_step={step!r}"
            )
        if sweep % ADAPT_EVERY == 0 and cfg.adapt_during_burn_in and sweep <= cfg.burn_in:
            # the window since the last reset is ADAPT_EVERY sweeps long
            rate = win_latent_acc / (n * ADAPT_EVERY)
            delta = delta * ADAPT_FACTOR if rate > cfg.target_accept else delta / ADAPT_FACTOR
            rate = win_param_acc / (k * ADAPT_EVERY)
            step = step * ADAPT_FACTOR if rate > cfg.target_accept else step / ADAPT_FACTOR
            win_param_acc = win_latent_acc = 0

        if post and (sweep - cfg.burn_in) % cfg.thin == 0:
            param_draws[draw_idx] = theta
            latent_sum += c
            column_draws[draw_idx] = c[column_index]
            draw_idx += 1

    assert draw_idx == n_draws
    return Chain(
        param_names=names,
        param_draws=param_draws,
        latent_mean=latent_sum / n_draws,
        latent_columns=columns,
        latent_draws=column_draws,
        accept_rate_params=np.array(acc_param_post) / max(post_sweeps, 1),
        accept_rate_latents=acc_latent_post / max(n * post_sweeps, 1),
        config=cfg,
        model_config=model_config,
        n_likelihood_errors=err_steps,
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
