"""Metropolis-within-Gibbs inference over parameters and latent scores, and
exact test-time inference of latent scores under fixed parameters.

Each sweep updates every parameter by a single-coordinate normal random walk,
then every latent score by a uniform-window random walk, all accepted or
rejected in log space against the joint posterior.

Test-time inference (infer_latents) fixes the parameters, so each row's
latent posterior is one-dimensional and log-concave: Newton finds its mode
and a grid centred there integrates it. Nothing is random and no step
reduces across rows, so each row's mean, median and std are an exact
function of that row. infer_latent runs the latent random walk for one
observation under fixed parameters, on scalar arithmetic.

Random streams. One master seed. derive_rng(seed, 0, 0) drives the parameter
updates, derive_rng(seed, 1, i) drives training latent i, and
derive_rng(seed, 2, j) drives infer_latent for stream index j, so results do
not depend on update order or parallel scheduling. Every latent step consumes
exactly two uniforms from its stream: first the proposal, then the accept
test. Every parameter step consumes one standard normal (proposal) then one
uniform (accept test) from the parameter stream.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import probmodel
from .dataset import Dataset, Observation
from .errors import DataError, SamplerError
from .probmodel import (
    Design,
    ModelConfig,
    ModelParams,
    HEAD_CREDIT,
    LOG_2PI,
    PARAM_HEAD,
    head_log_likelihood,
    per_obs_log_likelihood,
)
from .util import (
    STREAM_PARAMS,
    STREAM_TEST_LATENT,
    STREAM_TRAIN_LATENT,
    atomic_write_text,
    derive_rng,
)

ADAPT_EVERY = 100     # sweeps between proposal-width rescalings during burn-in
ADAPT_FACTOR = 1.1
ERROR_BUDGET = 0.01   # abort when likelihood errors exceed this fraction of steps
_LATENT_CHUNK = 256   # sweeps of pre-drawn uniforms per latent stream refill

# exact test-time inference (infer_latents)
NEWTON_MAX_STEPS = 100
NEWTON_TOL = 1e-12       # a row's mode is found once its step is below this, relative
TAIL_NATS = 40.0         # each end of a row's grid lies this far below its mode
GRID_POINTS = 401        # per row's grid; 201 left seed-0 medians off by up to 4e-7
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
    """Stored draws plus bookkeeping from one run."""

    param_names: tuple[str, ...]
    param_draws: np.ndarray            # (n_draws, n_params)
    latent_draws: np.ndarray           # (n_draws, n_obs)
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

    def latent_means(self) -> np.ndarray:
        return self.latent_draws.mean(axis=0)

    def latent_medians(self) -> np.ndarray:
        return np.median(self.latent_draws, axis=0)


@dataclass
class LatentPosterior:
    """Posterior summary of one observation's latent score."""

    mean: float
    median: float
    std: float
    draws: np.ndarray
    accept_rate: float = 0.0


@dataclass
class LatentPosteriors:
    """Posterior summaries of every row's latent score: entry i is row i."""

    mean: np.ndarray
    median: np.ndarray
    std: np.ndarray


def mh_step_scalar(
    current: float,
    log_target: Callable[[float], float],
    delta: float,
    rng: np.random.Generator,
) -> tuple[float, bool, float]:
    """One uniform-window random-walk step against an arbitrary scalar log target.

    Consumes exactly two uniforms: proposal then accept test. Returns
    (new value, accepted, log acceptance ratio). A log ratio >= 0 always
    accepts; a log_target of -inf at the proposal always rejects.
    """
    u_prop = rng.random()
    u_acc = rng.random()
    proposal = current + delta * (2.0 * u_prop - 1.0)
    log_r = log_target(proposal) - log_target(current)
    if log_r >= 0.0:
        return proposal, True, log_r
    if u_acc > 0.0 and math.log(u_acc) < log_r:
        return proposal, True, log_r
    return current, False, log_r


def _latent_uniforms(rngs: Sequence[np.random.Generator]):
    """Yield every latent's (proposal, accept) uniforms, _LATENT_CHUNK sweeps at a time.

    Both arrays have shape (_LATENT_CHUNK, n): entry [s, i] is sweep s's
    uniform from rngs[i], in the order two scalar draws per step take them.
    Drawing in chunks keeps memory at 2 * _LATENT_CHUNK doubles per latent
    however long the chain runs. The arrays are views, valid until the next
    chunk is taken.
    """
    buf = np.empty((len(rngs), 2 * _LATENT_CHUNK))
    while True:
        for i, g in enumerate(rngs):
            g.random(out=buf[i])
        yield buf[:, 0::2].T, buf[:, 1::2].T


def run_chain(data: Dataset, model_config: ModelConfig, sampler_config: SamplerConfig) -> Chain:
    """Run the full Metropolis-within-Gibbs chain on a dataset.

    Initial state is all zeros. Within a sweep, parameters update first in
    serialization order, then all latents. Each head's per-row
    log-likelihood at the current state is kept from its last accepted
    proposal: a parameter step evaluates only its own head, the latent phase
    evaluates each head once at the proposed latents, and the rows of the
    latents it accepts are merged in. A rejected proposal's rows, such as
    the -inf rows of one over the rate cap, are never kept. Results are
    bit-identical for a given config and seed. Persistent likelihood errors
    (more than 1% of steps) abort with diagnostics.
    """
    sampler_config.validate()
    model_config.validate()
    data.validate()
    cfg = sampler_config
    n = len(data)
    design = Design.from_dataset(data, model_config)
    names = model_config.active_param_names()
    k = len(names)
    heads = PARAM_HEAD[:k]

    theta = np.zeros(k)
    c = np.zeros(n)
    delta = cfg.delta
    step = cfg.param_step

    param_rng = derive_rng(cfg.seed, STREAM_PARAMS, 0)
    latent_rngs = [derive_rng(cfg.seed, STREAM_TRAIN_LATENT, i) for i in range(n)]

    n_draws = cfg.n_draws()
    param_draws = np.empty((n_draws, k))
    latent_draws = np.empty((n_draws, n))

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_param_post = np.zeros(k, dtype=np.int64)
    acc_latent_post = 0
    win_param_acc = win_param_tot = 0
    win_latent_acc = win_latent_tot = 0
    err_steps = 0
    total_steps = 0

    uniforms = _latent_uniforms(latent_rngs)
    draw_idx = 0

    # entry h: head h's log-likelihood sum and rows at the current (theta, c)
    head_sums, head_rows = [], []
    for h in (0, 1, 2):
        total, _, rows = head_log_likelihood(h, theta, c, design)
        head_sums.append(total)
        head_rows.append(rows)

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in

        # parameter phase
        for j in range(k):
            z = param_rng.standard_normal()
            u_acc = param_rng.random()
            h = heads[j]
            old = theta[j]
            proposal = old + step * z
            theta[j] = proposal
            new_sum, n_over, new_rows = head_log_likelihood(h, theta, c, design)
            total_steps += 1
            win_param_tot += 1
            if n_over or new_sum == float("-inf"):
                err_steps += 1
                accepted = False
            else:
                # only head h moved; its sum plus the prior term is the full ratio
                log_r = (new_sum - head_sums[h]) + 0.5 * (old * old - proposal * proposal)
                accepted = log_r >= 0.0 or (u_acc > 0.0 and math.log(u_acc) < log_r)
            if accepted:
                head_sums[h] = new_sum
                head_rows[h] = new_rows
                win_param_acc += 1
                if post:
                    acc_param_post[j] += 1
            else:
                theta[j] = old

        # latent phase, vectorized across observations
        s = (sweep - 1) % _LATENT_CHUNK
        if s == 0:
            u_prop_chunk, u_acc_chunk = next(uniforms)
        u_prop = u_prop_chunk[s]
        u_acc_vec = u_acc_chunk[s]

        c_prop = c + delta * (2.0 * u_prop - 1.0)
        prop = [head_log_likelihood(h, theta, c_prop, design) for h in (0, 1, 2)]
        prop_rows = [rows for _, _, rows in prop]
        total_steps += n
        err_steps += prop[HEAD_CREDIT][1]
        # heads added as per_obs_log_likelihood adds them, and associated as
        # mh_step_scalar does, target(proposal) - target(current), so stepping
        # one latent at a time agrees with this vectorized phase bitwise
        ll_cur = (head_rows[0] + head_rows[1]) + head_rows[2]
        ll_prop = (prop_rows[0] + prop_rows[1]) + prop_rows[2]
        log_r = (ll_prop - 0.5 * (LOG_2PI + c_prop * c_prop)) - (ll_cur - 0.5 * (LOG_2PI + c * c))
        with np.errstate(divide="ignore"):
            accept = (log_r >= 0.0) | (np.log(u_acc_vec) < log_r)
        c = np.where(accept, c_prop, c)
        for h in (0, 1, 2):
            head_rows[h] = np.where(accept, prop_rows[h], head_rows[h])
            head_sums[h] = float(head_rows[h].sum())
        n_acc = int(np.count_nonzero(accept))
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
            latent_draws[draw_idx] = c
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
        latent_draws=latent_draws,
        accept_rate_params=acc_param_post / max(post_sweeps, 1),
        accept_rate_latents=acc_latent_post / max(n * post_sweeps, 1),
        config=cfg,
        n_likelihood_errors=err_steps,
        final_delta=delta,
        final_param_step=step,
    )


def infer_latent(
    theta_hat: ModelParams,
    obs: Observation,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    include_credit: bool,
    stream_index: int = 0,
) -> LatentPosterior:
    """Posterior over one observation's latent score under fixed parameters.

    include_credit=True conditions on the observation's own credit amount;
    prediction must use False so the target cannot leak into its feature.
    Stream: derive_rng(seed, 2, stream_index).
    """
    sampler_config.validate()
    model_config.validate()
    theta_hat.validate()
    cfg = sampler_config

    sex, age = float(obs.sex), float(obs.age_std)
    a_j = theta_hat.b_j + sex * theta_hat.beta_j_s + age * theta_hat.beta_j_a
    k_j = theta_hat.beta_j_c
    s_j = 2.0 * obs.job - 1.0
    a_h = theta_hat.b_h + sex * theta_hat.beta_h_s + age * theta_hat.beta_h_a
    k_h = theta_hat.beta_h_c
    s_h = 2.0 * obs.house - 1.0
    if include_credit:
        a_c = sex * theta_hat.beta_c_s + age * theta_hat.beta_c_a
        if model_config.include_credit_intercept:
            if theta_hat.b_c is None:
                raise ValueError("credit intercept enabled but b_c is None")
            a_c += theta_hat.b_c
        k_c = theta_hat.beta_c_c
        count = float(probmodel.credit_count(obs.credit, model_config.credit_scale))
        lgam = math.lgamma(count + 1.0)
        cap_log = math.log(model_config.poisson_rate_cap)

    exp, log1p, log = math.exp, math.log1p, math.log

    # the heads of probmodel's engine restated on one scalar: for a single row
    # the array calls cost far more than this arithmetic
    def loglik(cv: float) -> float:
        x = (a_j + k_j * cv) * s_j
        ll = -log1p(exp(-x)) if x >= 0.0 else x - log1p(exp(x))
        x = (a_h + k_h * cv) * s_h
        ll += -log1p(exp(-x)) if x >= 0.0 else x - log1p(exp(x))
        if include_credit:
            lin = a_c + k_c * cv
            if lin > cap_log:
                return float("-inf")
            ll += count * lin - exp(lin) - lgam
        return ll

    rng = derive_rng(cfg.seed, STREAM_TEST_LATENT, stream_index)
    u = rng.random(2 * cfg.iterations)

    cv = 0.0
    lp = loglik(cv) - 0.5 * (LOG_2PI + cv * cv)
    delta = cfg.delta
    draws = np.empty(cfg.n_draws())
    draw_idx = 0
    accepts = 0
    win_acc = 0
    for sweep in range(1, cfg.iterations + 1):
        prop = cv + delta * (2.0 * u[2 * sweep - 2] - 1.0)
        lp_prop = loglik(prop) - 0.5 * (LOG_2PI + prop * prop)
        log_r = lp_prop - lp
        u_acc = u[2 * sweep - 1]
        if log_r >= 0.0 or (u_acc > 0.0 and log(u_acc) < log_r):
            cv = prop
            lp = lp_prop
            win_acc += 1
            if sweep > cfg.burn_in:
                accepts += 1
        if sweep % ADAPT_EVERY == 0:
            if cfg.adapt_during_burn_in and sweep <= cfg.burn_in:
                rate = win_acc / ADAPT_EVERY
                delta = delta * ADAPT_FACTOR if rate > cfg.target_accept else delta / ADAPT_FACTOR
            win_acc = 0
        if sweep > cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            draws[draw_idx] = cv
            draw_idx += 1

    post = cfg.iterations - cfg.burn_in
    return LatentPosterior(
        mean=float(np.mean(draws)),
        median=float(np.median(draws)),
        std=float(np.std(draws, ddof=1)) if draws.size > 1 else 0.0,
        draws=draws,
        accept_rate=accepts / max(post, 1),
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


def infer_latents(
    theta_hat: ModelParams,
    data: Dataset,
    model_config: ModelConfig,
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
    step reduces across rows, so row i is an exact function of row i.
    include_credit as in infer_latent.
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
    return LatentPosteriors(
        mean=mode + m1,
        median=_hermite_median(grid, h, dens, dens_d, cdf, 0.5 * mass),
        std=np.sqrt(np.maximum(m2 - m1 * m1, 0.0)),
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

def export_chain(
    chain: Chain,
    out_dir: str,
    latent_indices: Sequence[int] | None = None,
    header_lines: tuple[str, ...] = (),
) -> list[str]:
    """Write params.csv and latents.csv under out_dir; returns the paths.

    latent_indices selects which latent columns to export (all by default;
    pass a subset to keep files small).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(("draw",) + chain.param_names))
    for d in range(chain.n_draws()):
        row = ",".join(repr(float(v)) for v in chain.param_draws[d])
        lines.append(f"{d},{row}")
    p = os.path.join(out_dir, "params.csv")
    atomic_write_text(p, "\n".join(lines) + "\n")
    paths.append(p)

    n_obs = chain.latent_draws.shape[1]
    if latent_indices is None:
        idx = list(range(n_obs))
    else:
        idx = [int(i) for i in latent_indices]
        for i in idx:
            if not (0 <= i < n_obs):
                raise ValueError(f"latent index {i} out of range [0, {n_obs})")
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(["draw"] + [f"c_{i}" for i in idx]))
    sub = chain.latent_draws[:, idx]
    for d in range(chain.n_draws()):
        row = ",".join(repr(float(v)) for v in sub[d])
        lines.append(f"{d},{row}")
    p = os.path.join(out_dir, "latents.csv")
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
    try:
        draws = np.array([[float(v) for v in ln.split(",")[1:]] for ln in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: malformed chain file row: {exc}") from exc
    if draws.ndim != 2 or draws.shape[0] == 0 or draws.shape[1] != len(names):
        raise DataError(f"{path}: malformed chain file shape")
    return names, draws
