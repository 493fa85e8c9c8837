"""Metropolis-within-Gibbs inference over parameters and latent scores, and
exact test-time inference of latent scores under fixed parameters.

Each sweep updates every parameter by a single-coordinate normal random walk,
then every latent score by a uniform-window random walk, all accepted or
rejected in log space against the joint posterior. The job and house heads
share no parameter, so their coefficients are proposed in lockstep, as one
(2, n) evaluation, and accepted or rejected each on its own. Each head block
keeps its linear-predictor terms between proposals (probmodel.HeadTerms), so
a proposal recomputes only the term it moves and the sums after it. The
credit head's coefficient steps are accepted a few percent of the time, so
each is first screened: an upper bound on its log ratio
(HeadTerms.step_bound), which holds after rounding, below the log of its
accept uniform rejects it unevaluated. The screen changes no accept decision.

The latent phase proposes every latent score at once. Its per-sweep arrays
(the proposals, their prior terms, the two log-likelihood sums, the log
ratio and the accept mask) are allocated once per chain and refilled in
place. The accepted latents' indices are found once (np.flatnonzero), and
only those entries of the latent scores, their prior terms and each block's
kept rows and rates are overwritten, in place. On a mask that is new and
random every sweep, an indexed copy beats np.where while up to about 60% of
the latents accept; the default chains, which adapt toward 35%, accept 29%
(fit) and 53% (synth_large) after burn-in. So the latent scores are one
array for the whole chain, which the blocks hold as their latent column,
and nothing else may hold it across sweeps.

Test-time inference (infer_latent) fixes the parameters, so each row's
latent posterior is one-dimensional and log-concave: Newton finds its mode
and a grid centred there integrates it. Nothing is random and no step
reduces across rows, so each row's mean, median and std are an exact
function of that row. The grid stage runs on GRID_BLOCK rows at a time, so
its working memory is about 12 arrays of GRID_BLOCK x GRID_POINTS doubles
(1.2 MB) however many rows are inferred; everything else is O(rows).

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
from .errors import DataError, SamplerError
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
    derive_rng,
)

ADAPT_EVERY = 100     # sweeps between proposal-width rescalings during burn-in
ADAPT_FACTOR = 1.1
ERROR_BUDGET = 0.01   # abort when likelihood errors exceed this fraction of steps
BUDGET = 1 << 16      # latent uniforms drawn per refill, in whole sweeps of 2n

# exact test-time inference (infer_latent)
NEWTON_MAX_STEPS = 100
NEWTON_TOL = 1e-12       # a row's mode is found once its step is below this, relative
TAIL_NATS = 40.0         # each end of a row's grid lies this far below its mode
GRID_POINTS = 401        # per row's grid; 201 left seed-0 medians off by up to 4e-7
GRID_BLOCK = 32          # rows per grid block; 16 to 32 ran fastest, 64 ran 11-34% slower
WIDEN_MAX = 20           # moves of a grid end before giving up
MEDIAN_NEWTON_STEPS = 4


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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def n_draws(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class Chain:
    """Stored draws, per-row latent summaries and bookkeeping from one run.

    Every parameter draw is kept. Of the latent draws only the requested
    columns are: latent_draws[:, j] holds latent latent_columns[j]. Each
    row's latent mean is always kept, its median only when the chain was
    run with keep_medians.
    """

    param_names: tuple[str, ...]
    param_draws: np.ndarray            # (n_draws, n_params)
    latent_mean: np.ndarray            # (n_obs,)
    latent_median: np.ndarray | None   # (n_obs,), or None when not requested
    latent_columns: tuple[int, ...]
    latent_draws: np.ndarray           # (n_draws, len(latent_columns))
    accept_rate_params: np.ndarray     # per parameter, post burn-in
    accept_rate_latents: float         # pooled over latents, post burn-in
    config: SamplerConfig
    n_likelihood_errors: int = 0
    final_delta: float = 0.0
    final_param_step: float = 0.0

    def n_draws(self) -> int:
        return int(self.param_draws.shape[0])

    def theta_median(self) -> ModelParams:
        med = np.median(self.param_draws, axis=0)
        return ModelParams.from_vector(med)

    def latent_medians(self) -> np.ndarray:
        if self.latent_median is None:
            raise ValueError("this chain kept no latent medians; run it with keep_medians=True")
        return self.latent_median


@dataclass
class LatentPosteriors:
    """Posterior summaries of every row's latent score: entry i is row i."""

    mean: np.ndarray
    median: np.ndarray
    std: np.ndarray


def _surely_rejected(credit: HeadTerms, term: int, old: float, proposal: float, u_acc: float) -> bool:
    """Whether a credit coefficient step from old to proposal, with accept
    uniform u_acc, fails its accept test whatever the moved likelihood.

    The step's log ratio is (new_sum - cur_sum) plus the prior term, added in
    floating point. credit.step_bound is at least new_sum - cur_sum, and
    rounded addition is monotone, so the bound plus the same prior term is at
    least the log ratio: below log u_acc, the step is rejected.
    """
    if u_acc == 0.0:
        return False
    bound = credit.step_bound(term, proposal - old)
    return bound + 0.5 * (old * old - proposal * proposal) < math.log(u_acc)


def run_chain(
    data: Dataset,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    *,
    latent_columns: Sequence[int] = (),
    keep_medians: bool = False,
) -> Chain:
    """Run the full Metropolis-within-Gibbs chain on a dataset.

    Every kept parameter draw is stored. Of the latents, the chain keeps a
    running sum of the kept rows, so latent_mean is bitwise the column mean
    of the full (n_draws, n) draw matrix when n >= 2 (numpy then reduces its
    axis 0 row by row, in the same order), and the draws of latent_columns
    only. Only with keep_medians does it store the full matrix, to take its
    column medians at the end, in place; the matrix is not returned.

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
    logistic block keeps softplus rows, minus its log-likelihood rows, so
    the latent ratio subtracts their sum from the credit rows. A block's
    totals are summed only when a coefficient step is evaluated on it, so
    the credit block's mostly are not. A rejected
    proposal's values, such as the -inf rows of one over the rate cap, are
    never kept. A credit coefficient step whose log ratio is provably below
    the log of its accept uniform (_surely_rejected) is rejected without
    evaluating it; one that could put a rate over the cap is always
    evaluated, so the error count is that of evaluating every step. Results
    are bit-identical for a given config and seed.
    Persistent likelihood errors (more than 1% of steps) abort with
    diagnostics.
    """
    sampler_config.validate()
    model_config.validate()
    data.validate()
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
    latent_sum = np.empty(n)
    column_index = np.array(columns, dtype=np.intp)
    column_draws = np.empty((n_draws, len(columns)))
    all_draws = np.empty((n_draws, n)) if keep_medians else None

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_param_post = [0] * k
    acc_latent_post = 0
    win_param_acc = win_param_tot = 0
    win_latent_acc = win_latent_tot = 0
    err_steps = 0
    total_steps = 0

    draw_idx = 0

    logistic = HeadTerms((HEAD_JOB, HEAD_HOUSE), theta, c, design)
    credit = HeadTerms((HEAD_CREDIT,), theta, c, design)
    blocks = (logistic, credit)
    # step k moves term k of both logistic heads, then the credit head's term
    # k; index picks the step's proposals out of the sweep's, as (heads, 1)
    schedule = [(term, block, block.positions[term], np.array(block.positions[term])[:, None])
                for term in range(max(len(b.positions) for b in blocks))
                for block in blocks if term < len(block.positions)]

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in

        # parameter phase: k proposal normals, then k accept uniforms
        proposal = theta + step * param_rng.standard_normal(k)
        u = param_rng.random(k).tolist()
        olds, props = theta.tolist(), proposal.tolist()
        total_steps += k
        win_param_tot += k
        for term, block, positions, index in schedule:
            if block is credit:
                (j,) = positions
                if _surely_rejected(credit, term, olds[j], props[j], u[j]):
                    continue  # unevaluated: evaluating it would reject it too
            new_sums = block.move(term, proposal[index])
            accepted = []
            for j, new_sum, cur_sum in zip(positions, new_sums, block.totals()):
                if new_sum == -math.inf:  # a rate over the cap
                    err_steps += 1
                    ok = False
                else:
                    # only this head moved; its sum plus the prior term is the full ratio
                    old, new = olds[j], props[j]
                    log_r = (new_sum - cur_sum) + 0.5 * (old * old - new * new)
                    u_acc = u[j]
                    ok = log_r >= 0.0 or (u_acc > 0.0 and math.log(u_acc) < log_r)
                if ok:
                    theta[j] = props[j]
                    win_param_acc += 1
                    if post:
                        acc_param_post[j] += 1
                accepted.append(ok)
            if any(accepted):
                block.accept_heads(accepted)

        # latent phase, vectorized across observations
        s = (sweep - 1) % chunk
        if s == 0:
            latent_rng.random(out=uniforms)
            np.multiply(w, 2.0, out=w)
            np.subtract(w, 1.0, out=w)
            with np.errstate(divide="ignore"):
                np.log(log_u, out=log_u)

        np.multiply(w[s], delta, out=c_prop)
        np.add(c, c_prop, out=c_prop)
        np.multiply(c_prop, c_prop, out=prior_prop)
        np.add(prior_prop, LOG_2PI, out=prior_prop)
        np.multiply(prior_prop, 0.5, out=prior_prop)
        soft_rows, _ = logistic.move_latent(c_prop)
        credit_rows, n_over = credit.move_latent(c_prop)
        total_steps += n
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
        accepted = np.flatnonzero(accept)
        c[accepted] = c_prop[accepted]
        prior[accepted] = prior_prop[accepted]
        logistic.accept_rows(accepted, c)
        credit.accept_rows(accepted, c)
        n_acc = accepted.size
        win_latent_acc += n_acc
        win_latent_tot += n
        if post:
            acc_latent_post += n_acc

        if sweep % ADAPT_EVERY == 0:
            if err_steps > ERROR_BUDGET * total_steps:
                raise SamplerError(
                    f"sampler aborted at sweep {sweep}: {err_steps} likelihood errors "
                    f"over {total_steps} steps (> {ERROR_BUDGET:.0%}); "
                    f"delta={delta!r} param_step={step!r}"
                )
            if cfg.adapt_during_burn_in and sweep <= cfg.burn_in:
                if win_latent_tot:
                    rate = win_latent_acc / win_latent_tot
                    delta = delta * ADAPT_FACTOR if rate > cfg.target_accept else delta / ADAPT_FACTOR
                if win_param_tot:
                    rate = win_param_acc / win_param_tot
                    step = step * ADAPT_FACTOR if rate > cfg.target_accept else step / ADAPT_FACTOR
                win_param_acc = win_param_tot = 0
                win_latent_acc = win_latent_tot = 0

        if post and (sweep - cfg.burn_in) % cfg.thin == 0:
            param_draws[draw_idx] = theta
            if draw_idx == 0:
                latent_sum[:] = c
            else:
                latent_sum += c
            column_draws[draw_idx] = c[column_index]
            if all_draws is not None:
                all_draws[draw_idx] = c
            draw_idx += 1

    if err_steps > ERROR_BUDGET * total_steps:
        raise SamplerError(
            f"sampler finished with {err_steps} likelihood errors over {total_steps} steps "
            f"(> {ERROR_BUDGET:.0%})"
        )
    assert draw_idx == n_draws
    return Chain(
        param_names=names,
        param_draws=param_draws,
        latent_mean=latent_sum / n_draws,
        # the matrix is dropped after this, so it may be partitioned in place
        latent_median=(
            None if all_draws is None else np.median(all_draws, axis=0, overwrite_input=True)
        ),
        latent_columns=columns,
        latent_draws=column_draws,
        accept_rate_params=np.array(acc_param_post) / max(post_sweeps, 1),
        accept_rate_latents=acc_latent_post / max(n * post_sweeps, 1),
        config=cfg,
        n_likelihood_errors=err_steps,
        final_delta=delta,
        final_param_step=step,
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
    k = float(vec[10])
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
) -> LatentPosteriors:
    """Posterior mean, median and std of every row's latent score under fixed
    parameters, computed exactly rather than sampled.

    Given the parameters, row i's latent posterior is one-dimensional and
    strictly log-concave (concave heads, N(0, 1) prior). Newton finds its
    mode; a grid of GRID_POINTS values then spans the mode plus or minus the
    width at which a Gaussian with the mode's slope and curvature falls
    TAIL_NATS below it, each end moved out until the log density there truly
    is TAIL_NATS below the mode's (or the end is the rate cap's bound). The
    engine evaluates the grid through a column-shaped Design; points over the
    rate cap weigh 0. Mean, std and the CDF are trapezoid sums with
    Euler-Maclaurin corrections, and the median inverts the CDF within its
    grid interval through the cubic Hermite interpolant of the density. No
    step reduces across rows, so row i is an exact function of row i, and
    the grid stage (_grid_summaries) runs on blocks of GRID_BLOCK rows: its
    memory, about 12 x GRID_BLOCK x GRID_POINTS doubles, does not grow with
    the number of rows. Newton and the grid ends hold O(rows) arrays.
    include_credit=True conditions each row on its own credit amount;
    prediction must use False so the target cannot leak into its feature.
    """
    model_config.validate()
    theta_hat.validate()
    data.validate()
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
    mean, median, std = np.empty(n), np.empty(n), np.empty(n)
    for start in range(0, n, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        mean[block], median[block], std[block] = _grid_summaries(
            log_density, slopes, cols.rows(block), mode[block], top[block], ends[block]
        )
    return LatentPosteriors(mean=mean, median=median, std=std)


def _grid_summaries(
    log_density: Callable[[np.ndarray, Design], np.ndarray],
    slopes: Callable[[np.ndarray, Design], tuple[np.ndarray, np.ndarray]],
    cols: Design,
    mode: np.ndarray,
    top: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, median and std of each row's latent posterior from a grid of
    GRID_POINTS values on [ends[:, 0], ends[:, 1]].

    cols holds the rows as columns, mode their modes and top the log
    density there. Every array here has shape (rows, GRID_POINTS), so
    infer_latent passes at most GRID_BLOCK rows at a time.
    """
    lo, hi = ends[:, 0], ends[:, 1]
    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)
    grid[:, -1] = hi
    h = ((hi - lo) / (GRID_POINTS - 1))[:, None]
    dens = np.exp(log_density(grid, cols) - top[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        dens_d = np.where(dens == 0.0, 0.0, dens * slopes(grid, cols)[0])

    # integrals from the grid's start to each point, by Euler-Maclaurin: the
    # trapezoid sums less h^2/12 times the change in the integrand's slope,
    # plus h^4/720 times that in its third derivative, taken as h^-2 times a
    # second difference of the slope (central, first order at the ends). The
    # terms vanish at an end TAIL_NATS down, but not at the rate cap's bound
    def integrals(values: np.ndarray, slope: np.ndarray) -> np.ndarray:
        third = np.empty_like(slope)
        third[:, 1:-1] = slope[:, 2:] - 2.0 * slope[:, 1:-1] + slope[:, :-2]
        third[:, 0], third[:, -1] = third[:, 1], third[:, -2]
        trap = h * (np.cumsum(values, axis=1) - 0.5 * (values[:, :1] + values))
        return trap + h * h * ((third - third[:, :1]) / 720.0 - (slope - slope[:, :1]) / 12.0)

    cdf = integrals(dens, dens_d)
    mass = cdf[:, -1]
    off = grid - mode[:, None]  # moments about the mode, which is near the mean
    m1 = integrals(off * dens, dens + off * dens_d)[:, -1] / mass
    m2 = integrals(off * off * dens, off * (2.0 * dens + off * dens_d))[:, -1] / mass
    return (
        mode + m1,
        _hermite_median(grid, h, dens, dens_d, cdf, 0.5 * mass),
        np.sqrt(np.maximum(m2 - m1 * m1, 0.0)),
    )


def _hermite_median(
    grid: np.ndarray,
    h: np.ndarray,
    dens: np.ndarray,
    dens_d: np.ndarray,
    cdf: np.ndarray,
    half: np.ndarray,
) -> np.ndarray:
    """Per row, where the integral of the piecewise-cubic Hermite interpolant
    of the density (values dens, slopes dens_d) reaches half.

    cdf holds that integral at the grid points, plus Euler-Maclaurin's next
    term. Within the interval that crosses half, the integral is a quartic in
    the fraction s of the interval, solved by a fixed number of Newton steps
    from the linear interpolation of cdf.
    """
    j = np.clip(np.count_nonzero(cdf < half[:, None], axis=1), 1, grid.shape[1] - 1)[:, None]

    def at(a: np.ndarray, k: np.ndarray) -> np.ndarray:
        return np.take_along_axis(a, k, axis=1)[:, 0]

    f0, f1 = at(cdf, j - 1), at(cdf, j)
    p0, p1 = at(dens, j - 1), at(dens, j)
    step = h[:, 0]
    d0, d1 = step * at(dens_d, j - 1), step * at(dens_d, j)
    s = np.clip((half - f0) / (f1 - f0), 0.0, 1.0)
    for _ in range(MEDIAN_NEWTON_STEPS):
        s2, s3 = s * s, s * s * s
        s4 = s2 * s2
        # the Hermite basis h00, h10, h01, h11 and their integrals from 0 to s
        value = (
            p0 * (2 * s3 - 3 * s2 + 1) + d0 * (s3 - 2 * s2 + s)
            + p1 * (3 * s2 - 2 * s3) + d1 * (s3 - s2)
        )
        area = (
            p0 * (s4 / 2 - s3 + s) + d0 * (s4 / 4 - 2 * s3 / 3 + s2 / 2)
            + p1 * (s3 - s4 / 2) + d1 * (s4 / 4 - s3 / 3)
        )
        s = np.clip(s - (f0 + step * area - half) / (step * value), 0.0, 1.0)
    return at(grid, j - 1) + s * step


# ---------------------------------------------------------------------------
# chain file io

def export_chain(chain: Chain, out_dir: str, header_lines: tuple[str, ...] = ()) -> list[str]:
    """Write params.csv and latents.csv under out_dir; returns the paths.

    latents.csv holds the latent columns the chain kept (chain.latent_columns).
    """
    paths = []
    for name, columns, draws in (
        ("params.csv", chain.param_names, chain.param_draws),
        ("latents.csv", [f"c_{i}" for i in chain.latent_columns], chain.latent_draws),
    ):
        lines = [f"# {h}" for h in header_lines]
        lines.append(",".join(["draw", *columns]))
        for d, row in enumerate(draws):
            lines.append(",".join([str(d), *map(repr, row.tolist())]))
        p = os.path.join(out_dir, name)
        atomic_write_text(p, "\n".join(lines) + "\n")
        paths.append(p)
    return paths


def read_param_chain_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a params.csv written by export_chain: (names, draws array)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [ln for ln in raw.splitlines() if ln.strip() and not ln.startswith("#")]
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
