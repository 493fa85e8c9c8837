"""Sampler kernels, the full chain driver, exact test-time inference, and
chain file io.

The sweep is checked one step at a time against the log posterior from
scratch (per_obs_log_likelihood and the priors): each block step and each
latent step accepts just below its log ratio and rejects just above it, the
latent step agreeing with mh_step_scalar on each row alone; the scale
move's ratio carries its Jacobian; each shift is the exact conditional's
draw; and the moves leave every row. Geweke's successive-conditional test
checks the whole sweep against the prior, and run_chain is checked against
a restatement of its sweep from scratch (reference_chain), one head's block
and one row at a time. Test-time inference
(infer_latent) is checked against a dense trapezoid rule with the heads
written out by hand.
"""

import copy
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, gammaln

from faircredit import probmodel, sampler
from faircredit.dataset import Dataset, SplitSpec, load_csv, preprocess, split
from faircredit.diagnostics import ess_bulk
from faircredit.errors import ConfigError, DataError
from faircredit.probmodel import (
    HEAD_CREDIT,
    HEAD_HOUSE,
    HEAD_JOB,
    HEAD_TERMS,
    LATENT_SLOPES,
    PARAM_NAMES,
    Design,
    ModelConfig,
    head_log_likelihood,
    per_obs_latent_slopes,
    per_obs_log_likelihood,
)
from faircredit.sampler import (
    ADAPT_EVERY,
    BLOCK_STEPS,
    GRID_BLOCK,
    GRID_POINTS,
    PARAM_UNIFORMS,
    RW_SCALE,
    TAIL_NATS,
    Chain,
    SamplerConfig,
    _State,
    _sweep,
    export_chain,
    infer_latent,
    read_param_chain_csv,
    run_chain,
)
from faircredit.util import STREAM_PARAMS, STREAM_TRAIN_LATENT, derive_rng
from scalar_kernel import mh_step_scalar


# --- config ------------------------------------------------------------------

def test_sampler_config_validate():
    # a config is checked when it is built; a seed by util.check_seed
    SamplerConfig().validate()
    for bad in (
        {"iterations": 0},
        {"iterations": 10, "burn_in": 10},
        {"burn_in": -1},
        {"thin": 0},
    ):
        with pytest.raises(ValueError):
            SamplerConfig(**bad)
    for seed in (-3, 2**32):
        with pytest.raises(ConfigError, match="seed"):
            SamplerConfig(seed=seed)


def test_n_draws_arithmetic():
    assert SamplerConfig(iterations=30, burn_in=10, thin=4).n_draws() == 5
    assert SamplerConfig(iterations=5000, burn_in=1000, thin=1).n_draws() == 4000


# --- scalar reference kernel -----------------------------------------------------------

def test_mh_step_scalar_consumes_two_uniforms():
    def flat(_c):
        return 0.0

    g = derive_rng(3, 0, 0)
    mh_step_scalar(0.3, flat, 0.5, g)
    after = g.random()
    g2 = derive_rng(3, 0, 0)
    g2.random(2)
    assert after == g2.random()


def test_mh_step_scalar_proposal_formula_and_forced_accept():
    # a flat target always accepts and the new point is current + delta*(2u-1)
    g = derive_rng(9, 0, 0)
    u_prop = derive_rng(9, 0, 0).random()
    new, accepted, log_r = mh_step_scalar(1.0, lambda _c: 0.0, 0.25, g)
    assert accepted and log_r == 0.0
    assert new == 1.0 + 0.25 * (2.0 * u_prop - 1.0)


def test_mh_step_scalar_rejects_impossible_proposal():
    def walled(c):
        return 0.0 if c <= 0.0 else float("-inf")

    g = derive_rng(1, 0, 0)
    # first uniform of this stream is > 0.5, so the proposal moves right
    assert derive_rng(1, 0, 0).random() > 0.5
    new, accepted, log_r = mh_step_scalar(0.0, walled, 0.5, g)
    assert not accepted and new == 0.0 and log_r == float("-inf")


def test_mh_step_scalar_targets_the_right_density():
    # long-run mean of a unit normal target
    g = derive_rng(77, 0, 0)
    c = 0.0
    total = 0.0
    for _ in range(20000):
        c, _, _ = mh_step_scalar(c, lambda v: -0.5 * v * v, 1.5, g)
        total += c
    assert abs(total / 20000) < 0.05


# --- the sweep, one step at a time -------------------------------------------

# the models of the step tests: the default, the credit intercept (three
# shifts), and a rate cap just over the data's largest count, which some
# steps cross
STEP_MODELS = pytest.mark.parametrize(
    "model_config",
    [ModelConfig(), ModelConfig(include_credit_intercept=True, credit_scale=5.0),
     ModelConfig(poisson_rate_cap=50.0)],
    ids=("default", "intercept", "rate_cap"),
)
# a step's log ratio against the log posterior from scratch: both sum about
# 100 rows, each to within a few ulp
RATIO_TOL = 1e-9


def log_posterior(theta: np.ndarray, c: np.ndarray, design: Design) -> float:
    """The log posterior from scratch, its constants dropped: the engine's
    rows (per_obs_log_likelihood) and the N(0, 1) priors; -inf over the cap."""
    rows, n_over = per_obs_log_likelihood(theta, c, design)
    if n_over:
        return -math.inf
    return float(rows.sum()) - 0.5 * float(theta @ theta) - 0.5 * float(c @ c)


def mid_chain_state(data, model_config):
    """A state that 150 sweeps of run_chain's kind reached from all zeros,
    with its tuning, design and the generator that drove it."""
    design = Design.from_dataset(data, model_config)
    k = len(model_config.active_param_names())
    state = _State(design, np.zeros(k), np.zeros(len(design)))
    rng = derive_rng(0, 9, 0)
    tuning = state.tune()
    for sweep in range(1, 151):
        sweep_once(state, tuning, rng)
        if sweep % 50 == 0:
            tuning = state.tune()
    return state, tuning, design, rng


def sweep_once(state, tuning, rng):
    """One _sweep on state with its variates from rng."""
    n = state.X.shape[1]
    normals = rng.standard_normal(state.n_normals)
    log_u = np.log(rng.random(PARAM_UNIFORMS)).tolist()
    return _sweep(state, tuning, normals, log_u, 2.0 * rng.random(n) - 1.0, np.log(rng.random(n)))


@STEP_MODELS
def test_latent_widths_come_from_the_engines_curvature(tiny_dataset, model_config):
    # each row's half-width is RW_SCALE sqrt(3 / H), H = 1 - curv, curv the
    # row's second derivative in c by the engine's own slopes, an
    # independent path to the weights tune reads off its predictors
    state, tuning, design, _ = mid_chain_state(tiny_dataset, model_config)
    curv = per_obs_latent_slopes(state.theta(), state.X[3], design)[1]
    want = RW_SCALE * np.sqrt(3.0 / (1.0 - curv))
    assert np.allclose(tuning.widths, want, rtol=1e-12, atol=0.0)
    assert np.ptp(tuning.widths) > 0.1 * tuning.widths.max()


@STEP_MODELS
def test_block_steps_ratios_match_the_log_posterior(tiny_dataset, model_config):
    # each head's block step accepts just below its log ratio from scratch
    # and rejects just above it; a proposal over the cap is rejected and
    # counted whatever its uniform
    state, tuning, design, rng = mid_chain_state(tiny_dataset, model_config)
    over = 0
    for _ in range(30):
        z = rng.standard_normal(state.n_block)
        theta, c = state.theta(), state.X[3].copy()
        prop = state.coefs + (tuning.factor @ z).reshape(3, 4)
        ratios = []
        for h in range(3):
            moved = state.coefs.copy()
            moved[h] = prop[h]
            ratios.append(log_posterior(moved.take(state.cells), c, design) - log_posterior(theta, c, design))
        for side in (-1.0, 1.0):
            trial = copy.deepcopy(state)
            log_u = [r + side * RATIO_TOL * (1.0 + abs(r)) if math.isfinite(r) else -math.inf for r in ratios]
            accepted, errors = trial.blocks(tuning, z, log_u)
            assert accepted == [side < 0 and math.isfinite(r) for r in ratios]
            assert errors == (ratios[2] == -math.inf)
            for h in range(3):
                assert np.array_equal(trial.coefs[h], prop[h] if accepted[h] else state.coefs[h])
        over += ratios[2] == -math.inf
        # move on from the proposal the sampler would take at its uniforms
        state.blocks(tuning, z, np.log(rng.random(3)).tolist())
    if model_config.poisson_rate_cap < 1e3:
        assert over > 0


class UniformPair:
    """A generator stand-in whose random() returns a proposal uniform, then
    an accept-test uniform: one latent's share of a sweep's block."""

    def __init__(self, u_prop, u_acc):
        self._values = iter((float(u_prop), float(u_acc)))

    def random(self):
        return next(self._values)


@STEP_MODELS
def test_latent_step_matches_the_scalar_kernel(tiny_dataset, model_config):
    # each latent's proposal and log ratio are mh_step_scalar's on that row
    # alone with that row's own width, from scratch: the vectorized step
    # accepts every finite ratio just below it and none just above, and
    # counts the proposals over the cap
    state, tuning, design, rng = mid_chain_state(tiny_dataset, model_config)
    n = len(design)
    theta = state.theta()
    over = 0
    for _ in range(10):
        u = rng.random((2, n))
        c = state.X[3].copy()
        proposals, ratios = np.empty(n), np.empty(n)
        for i in range(n):
            row = design.rows(slice(i, i + 1))

            def target(v):
                rows, n_over = per_obs_log_likelihood(theta, np.array([v]), row)
                return -math.inf if n_over else float(rows[0]) - 0.5 * v * v

            # an accept uniform of 0 accepts every finite ratio
            width = float(tuning.widths[i])
            proposals[i], _, ratios[i] = mh_step_scalar(c[i], target, width, UniformPair(u[0, i], 0.0))
        finite = np.isfinite(ratios)
        bounded = np.where(finite, ratios, 0.0)
        for side in (-1.0, 1.0):
            trial = copy.deepcopy(state)
            log_u = np.where(finite, bounded + side * RATIO_TOL * (1.0 + np.abs(bounded)), -np.inf)
            n_acc, n_over = trial.latents(tuning.widths, 2.0 * u[0] - 1.0, log_u)
            assert n_over == np.count_nonzero(ratios == -np.inf)
            want = finite if side < 0 else np.zeros(n, dtype=bool)
            assert n_acc == np.count_nonzero(want)
            assert np.array_equal(trial.X[3], np.where(want, proposals, c))
        over += n_over
        state.latents(tuning.widths, 2.0 * u[0] - 1.0, np.log(u[1]))
    if model_config.poisson_rate_cap < 1e3:
        assert over > 0


def assert_same_likelihood(state, theta, c, design):
    """The engine's rows at state equal those at (theta, c) within 1e-12
    relative."""
    before = per_obs_log_likelihood(theta, c, design)[0]
    after = per_obs_log_likelihood(state.theta(), state.X[3], design)[0]
    assert np.allclose(after, before, rtol=1e-12, atol=0.0)


@STEP_MODELS
def test_scale_move_ratio_is_the_log_posterior_change_plus_its_jacobian(tiny_dataset, model_config):
    # c e^eta and the loadings e^-eta leave every row, and the move's log
    # ratio is the log posterior's change plus the Jacobian (n - 3) eta
    state, tuning, design, _ = mid_chain_state(tiny_dataset, model_config)
    n = len(design)
    theta, c = state.theta(), state.X[3].copy()
    for z in (-2.5, -0.4, 0.9, 3.0):
        eta = tuning.tau * z
        moved = state.coefs.copy()
        moved[:, 3] *= math.exp(-eta)
        ratio = log_posterior(moved.take(state.cells), c * math.exp(eta), design)
        ratio += (n - 3) * eta - log_posterior(theta, c, design)
        for side in (-1.0, 1.0):
            trial = copy.deepcopy(state)
            assert trial.scale(tuning.tau, z, ratio + side * RATIO_TOL * (1.0 + abs(ratio))) == (side < 0)
        assert np.array_equal(trial.coefs, state.coefs) and np.array_equal(trial.X[3], c)
        trial = copy.deepcopy(state)
        assert trial.scale(tuning.tau, z, -math.inf)
        assert np.allclose(trial.X[3], c * math.exp(eta), rtol=1e-15, atol=0.0)
        assert_same_likelihood(trial, theta, c, design)


@STEP_MODELS
def test_shifts_draw_each_shift_from_its_exact_conditional(tiny_dataset, model_config):
    # each shift m moves c by m x and each head's coefficient of x by -m
    # times its loading, which leaves every row; along that line the log
    # posterior from scratch is a parabola of curvature -A, and m lies
    # z / sqrt(A) from its top, so its slope at m is -z sqrt(A)
    state, tuning, design, _ = mid_chain_state(tiny_dataset, model_config)
    assert state.shift_rows == ((1, 2, 0) if model_config.include_credit_intercept else (1, 2))
    z = [0.8, -1.3, 0.4][:len(state.shift_rows)]
    trial = copy.deepcopy(state)
    trial.shifts(z)
    assert_same_likelihood(trial, state.theta(), state.X[3], design)
    loads = state.coefs[:, 3]
    assert np.array_equal(trial.coefs[:, 3], loads)
    coefs, c = state.coefs.copy(), state.X[3].copy()
    for r, zr in zip(state.shift_rows, z):
        m = float(np.mean((coefs[:, r] - trial.coefs[:, r]) / loads))
        x = state.X[r]

        def line(t, coefs=coefs, c=c, x=x, r=r):
            moved = coefs.copy()
            moved[:, r] -= t * loads
            return log_posterior(moved.take(state.cells), c + t * x, design)

        h = 1e-3
        slope = (line(m + h) - line(m - h)) / (2.0 * h)
        curvature = (line(m + h) - 2.0 * line(m) + line(m - h)) / (h * h)
        area = float(x @ x) + float(loads @ loads)
        assert curvature == pytest.approx(-area, rel=1e-5)
        assert slope == pytest.approx(-zr * math.sqrt(area), rel=1e-5, abs=1e-6)
        coefs[:, r] -= m * loads
        c = c + m * x
    assert np.allclose(trial.X[3], c, rtol=1e-12, atol=1e-12)


def test_run_chain_rejects_overflowing_logistic_steps_as_the_exact_rows_do(tiny_dataset, monkeypatch):
    # logistic steps three hundred times too wide drive signed predictors
    # below -709.78, where exp overflows; the rows are the engine's exact
    # ones there (z itself), so each step's ratio is still the log
    # posterior's from scratch, and none warns
    overflowed = []
    real = probmodel._softplus_rows

    def counting(nz):
        overflowed.append(bool(np.maximum.reduce(nz, axis=None) > 709.78))
        return real(nz)

    monkeypatch.setattr(sampler, "_softplus_rows", counting)
    state, tuning, design, rng = mid_chain_state(tiny_dataset, ModelConfig())
    wide = tuning._replace(factor=300.0 * tuning.factor)
    for _ in range(20):
        z = rng.standard_normal(state.n_block)
        theta, c = state.theta(), state.X[3]
        prop = state.coefs + (wide.factor @ z).reshape(3, 4)
        for h in (0, 1):
            moved = state.coefs.copy()
            moved[h] = prop[h]
            ratio = log_posterior(moved.take(state.cells), c, design) - log_posterior(theta, c, design)
            for side in (-1.0, 1.0):
                trial = copy.deepcopy(state)
                log_u = [math.inf] * 3
                log_u[h] = ratio + side * RATIO_TOL * (1.0 + abs(ratio))
                assert trial.blocks(wide, z, log_u)[0][h] == (side < 0)
    assert any(overflowed)


def test_block_steps_reject_and_count_a_credit_rate_over_the_cap(tiny_dataset):
    # a credit step a hundred times too wide puts rates over the cap: the
    # step is rejected even at an accept uniform of 0, which accepts every
    # other, and counted; the state keeps its coefficients and rows
    state, tuning, design, rng = mid_chain_state(tiny_dataset, ModelConfig(poisson_rate_cap=50.0))
    wide = tuning._replace(factor=100.0 * tuning.factor)
    errors = 0
    for _ in range(20):
        before = copy.deepcopy(state)
        accepted, over = state.blocks(wide, rng.standard_normal(state.n_block), [math.inf, math.inf, -math.inf])
        errors += over
        if over:
            assert not accepted[2]
            assert np.array_equal(state.coefs[2], before.coefs[2])
            assert np.array_equal(state.crow, before.crow)
    assert errors > 0


def test_run_chain_keeps_no_state_over_the_rate_cap(tiny_dataset):
    # a cap at about twice the data's largest count (45): the chain's steps
    # propose rates over it (8 to 45 times at seeds 0 and 2-7; at seed 1 the
    # early latent steps pass the budget), under the error budget; no kept
    # draw is over it
    cfg = SamplerConfig(iterations=300, burn_in=100, seed=3)
    mc = ModelConfig(poisson_rate_cap=110.0)
    chain = run_chain(tiny_dataset, mc, cfg, latent_columns=range(len(tiny_dataset)))
    assert chain.n_likelihood_errors > 0
    design = Design.from_dataset(tiny_dataset, mc)
    for theta, c in zip(chain.param_draws, chain.latent_draws):
        assert probmodel.credit_linear(theta, c, design).max() <= design.cap_log


def test_kept_rows_match_rows_from_scratch_after_200_sweeps():
    # the kept rows are the kernels' at each entry's last accepted
    # predictor; the moves, which leave every predictor, keep them. After
    # 200 sweeps on the bundled data they are within 1e-11 of each row's
    # size of the engine's rows from scratch
    path = Path(__file__).resolve().parents[1] / "data" / "german_synthetic.csv"
    train, _ = split(preprocess(load_csv(str(path))), SplitSpec(train_count=800, seed=0))
    for mc in (ModelConfig(), ModelConfig(include_credit_intercept=True)):
        design = Design.from_dataset(train, mc)
        state = _State(design, np.zeros(len(mc.active_param_names())), np.zeros(len(design)))
        rng = derive_rng(1, 9, 0)
        tuning = state.tune()
        for sweep in range(1, 201):
            sweep_once(state, tuning, rng)
            if sweep & (sweep - 1) == 0:
                tuning = state.tune()
        theta, c = state.theta(), state.X[3]
        scratch = [-head_log_likelihood(h, theta, c, design)[2] for h in (HEAD_JOB, HEAD_HOUSE)]
        credit = head_log_likelihood(HEAD_CREDIT, theta, c, design)[2]
        for kept, want in ((state.soft[0], scratch[0]), (state.soft[1], scratch[1]), (state.crow, credit)):
            assert np.all(np.abs(kept - want) <= 1e-11 * (1.0 + np.abs(want)))


GEWEKE_ROWS = 20
GEWEKE_DRAWS = 20_000
# N(0, 1)'s 10%, 50% and 90% quantiles
NORMAL_QUANTILES = ((-1.2815515655446004, 0.1), (0.0, 0.5), (1.2815515655446004, 0.9))


def geweke_draws(seed: int) -> np.ndarray:
    """Geweke's (2004) successive-conditional simulator: from (theta, c) of
    the prior, alternately draw the outcomes exactly given (theta, c) and
    make one _sweep on them, with the proposal scales fixed. Returns the
    (draws, 11 + 3) theta and c[:3] after each sweep; if the sweep leaves
    the posterior invariant, every column is N(0, 1).

    The model is the default one, without b_c: with it, the credit head's
    information grows as e^b_c, and at seeds 0-5 the simulator stuck for
    stretches where it is large, so that the test read up to 5.9 standard
    errors on correct code (3.7 without b_c). The step tests check the
    intercept's shift. The rate cap is 1e300, so no prior draw is over it;
    counts may be 0, which generate_synthetic would clamp to 1. The
    posterior is symmetric under c -> -c with the three loadings negated,
    and no step crosses between the two mirror modes, so each iteration
    also flips them with probability 1/2, an exact move of the posterior.

    The scales are fixed at prior-typical values, since the simulator
    wanders over the whole prior: the block factors from the all-zero
    state, tau from the prior's mean sum of squares, and every latent
    window 1 wide."""
    rng = derive_rng(seed, 9, 1)
    n = GEWEKE_ROWS
    sex = (np.arange(n) % 2).astype(float)
    age = rng.standard_normal(n)
    cap_log = math.log(1e300)
    loads = list(LATENT_SLOPES)

    def outcomes(theta, c):
        job = rng.random(n) < probmodel._sigmoid(theta[0] + theta[1] * sex + theta[2] * age + theta[3] * c)[0]
        house = rng.random(n) < probmodel._sigmoid(theta[4] + theta[5] * sex + theta[6] * age + theta[7] * c)[0]
        counts = rng.poisson(np.exp(theta[8] * sex + theta[9] * age + theta[10] * c)).astype(float)
        lgamma = np.array([math.lgamma(v + 1.0) for v in counts])
        return Design(sex, age, 1.0 - 2.0 * job, 1.0 - 2.0 * house, counts, lgamma, cap_log)

    theta, c = rng.standard_normal(11), rng.standard_normal(n)
    tuning = _State(outcomes(theta, c), np.zeros(11), np.zeros(n)).tune()
    tuning = tuning._replace(tau=RW_SCALE / math.sqrt(2.0 * (n + 3)), widths=np.ones(n))
    draws = np.empty((GEWEKE_DRAWS, 14))
    for t in range(GEWEKE_DRAWS):
        state = _State(outcomes(theta, c), theta, c)
        sweep_once(state, tuning, rng)
        theta, c = state.theta(), state.X[3].copy()
        if rng.random() < 0.5:  # the mirror move, which no step makes
            theta[loads], c = -theta[loads], -c
        draws[t, :11], draws[t, 11:] = theta, c[:3]
    return draws


def test_sweep_keeps_the_joint_distribution():
    # Geweke 2004 (JASA 99:799-804): each column's mean, second moment and
    # shares below N(0, 1)'s 10%, 50% and 90% quantiles lie within 4.5
    # Monte Carlo standard errors of N(0, 1)'s, each standard error from
    # that statistic's own series and its bulk ESS
    draws = geweke_draws(0)
    worst = 0.0
    for x in draws.T:
        checks = [(x, 0.0), (x * x, 1.0)]
        checks += [((x <= q).astype(float), p) for q, p in NORMAL_QUANTILES]
        for values, want in checks:
            mcse = float(np.std(values)) / math.sqrt(ess_bulk(values))
            worst = max(worst, abs(float(values.mean()) - want) / mcse)
    assert worst < 4.5, worst



# --- the whole chain against a restatement from scratch -----------------------

# the columns all three heads carry, in the order the shifts take them; the
# intercept is shared only when b_c is on
SHIFT_COLUMNS = ("sex", "age", "one")
# run_chain's draws against the restatement's, relative to each draw's size:
# the two compute the same steps with different association, so they differ
# in rounding only, which the chains below carry to at most 1e-14
CHAIN_TOL = 1e-12


def reference_tuning(theta, c, design):
    """_State.tune restated on (theta, c): each head's block factor
    chol(s^2 (F + I)^-1) over its own parameters, in parameter order, the
    scale move's tau, and each latent's half-width RW_SCALE sqrt(3 / H),
    H = 1 + sum_h k_h^2 w_h from the heads' same weights."""
    k = theta.shape[0]
    columns = {"one": np.ones(len(design)), "sex": design.sex, "age": design.age, "c": c}
    factors = []
    curvature = np.ones(len(design))
    for head, terms in enumerate(HEAD_TERMS):
        x = np.stack([columns[name] for pos, name in terms if pos < k])
        lin = probmodel._linear_predictor(head, theta, c, design)
        p = expit(lin)
        weights = np.exp(lin) if head == HEAD_CREDIT else p * (1.0 - p)
        d = x.shape[0]
        cov = np.linalg.inv((x * weights) @ x.T + np.eye(d))
        factors.append(RW_SCALE / math.sqrt(d) * np.linalg.cholesky(cov))
        curvature += theta[LATENT_SLOPES[head]] ** 2 * weights
    loads = theta[list(LATENT_SLOPES)]
    spread = float(c @ c) + float(loads @ loads)
    tau = RW_SCALE / math.sqrt(2.0 * spread) if spread > 0.0 else 0.0
    return factors, tau, RW_SCALE * np.sqrt(3.0 / curvature)


def reference_chain(data, model_config, cfg):
    """run_chain restated one step at a time on (theta, c), with the same
    streams, tuning schedule and bookkeeping: each head's block ratio from
    head_log_likelihood and its prior, each latent by mh_step_scalar on its
    row alone, the scale move's ratio from log_posterior plus its Jacobian,
    and each shift from its conditional's A and B summed from scratch."""
    names = model_config.active_param_names()
    k, n = len(names), len(data)
    design = Design.from_dataset(data, model_config)
    rows = [design.rows(slice(i, i + 1)) for i in range(n)]
    theta, c = np.zeros(k), np.zeros(n)
    heads = [[pos for pos, _ in terms if pos < k] for terms in HEAD_TERMS]
    head_of = [h for h, params in enumerate(heads) for _ in params]
    n_block = sum(len(params) for params in heads)
    shifts = SHIFT_COLUMNS if k == len(PARAM_NAMES) else SHIFT_COLUMNS[:2]
    columns = {"one": np.ones(n), "sex": design.sex, "age": design.age}
    factors, tau, widths = reference_tuning(theta, c, design)
    param_rng = derive_rng(cfg.seed, STREAM_PARAMS, 0)
    latent_rng = derive_rng(cfg.seed, STREAM_TRAIN_LATENT, 0)

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_heads = [0, 0, 0]
    acc_latent = 0
    param_errors = latent_errors = 0  # over-cap proposals in each phase
    draws_p, draws_c = [], []

    def latent_target(i):
        def target(v: float) -> float:
            nonlocal latent_errors
            ll, n_over = per_obs_log_likelihood(theta, np.array([v]), rows[i])
            # the current latent is never over the cap, so this counts proposals
            latent_errors += n_over
            return -math.inf if n_over else float(ll[0]) - 0.5 * v * v

        return target

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in
        normals = param_rng.standard_normal(BLOCK_STEPS * n_block + 1 + len(shifts))
        log_u = [math.log(u) if u else -math.inf for u in param_rng.random(PARAM_UNIFORMS).tolist()]
        for step in range(BLOCK_STEPS):
            z = normals[step * n_block:(step + 1) * n_block]
            offset = 0
            for head, params in enumerate(heads):
                moved = theta.copy()
                moved[params] += factors[head] @ z[offset:offset + len(params)]
                offset += len(params)
                new, n_over, _ = head_log_likelihood(head, moved, c, design)
                if n_over:
                    param_errors += 1
                    continue
                ratio = new - head_log_likelihood(head, theta, c, design)[0]
                ratio += 0.5 * (float(theta[params] @ theta[params]) - float(moved[params] @ moved[params]))
                if log_u[3 * step + head] < ratio:
                    theta = moved
                    acc_heads[head] += post
        # one sweep's block of the latent stream: row 0 the proposals, row 1
        # the accept tests
        u = latent_rng.random((2, n))
        for i in range(n):
            c[i], accepted, _ = mh_step_scalar(c[i], latent_target(i), widths[i], UniformPair(u[0, i], u[1, i]))
            acc_latent += accepted and post
        rest = normals[BLOCK_STEPS * n_block:].tolist()
        eta = tau * rest[0]
        moved = theta.copy()
        moved[list(LATENT_SLOPES)] *= math.exp(-eta)
        ratio = log_posterior(moved, c * math.exp(eta), design) - log_posterior(theta, c, design)
        if log_u[-1] < ratio + (n - 3) * eta:
            theta, c = moved, c * math.exp(eta)
        for name, zr in zip(shifts, rest[1:]):
            x = columns[name]
            at = [pos for terms in HEAD_TERMS for pos, col in terms if col == name]
            loads = theta[list(LATENT_SLOPES)]
            a = float(x @ x) + float(loads @ loads)
            b = float(c @ x) - float(loads @ theta[at])
            m = (zr * math.sqrt(a) - b) / a
            theta = theta.copy()
            theta[at] -= m * loads
            c = c + m * x
        if sweep <= cfg.burn_in and (
            sweep % ADAPT_EVERY == 0 or sweep & (sweep - 1) == 0 or sweep == cfg.burn_in
        ):
            factors, tau, widths = reference_tuning(theta, c, design)
        if post and (sweep - cfg.burn_in) % cfg.thin == 0:
            draws_p.append(theta.copy())
            draws_c.append(c.copy())

    return (
        np.array(draws_p),
        np.array(draws_c),
        np.array([acc_heads[h] for h in head_of]) / (BLOCK_STEPS * post_sweeps),
        acc_latent / (n * post_sweeps),
        (param_errors, latent_errors),
    )


def assert_chain_matches_reference(data, model_config, cfg):
    chain = run_chain(data, model_config, cfg, latent_columns=range(len(data)))
    params, latents, acc_p, acc_l, errors = reference_chain(data, model_config, cfg)
    assert chain.n_likelihood_errors == sum(errors)
    assert np.array_equal(chain.accept_rate_params, acc_p)
    assert chain.accept_rate_latents == acc_l
    for got, want in ((chain.param_draws, params), (chain.latent_draws, latents)):
        assert np.all(np.abs(got - want) <= CHAIN_TOL * (1.0 + np.abs(want)))
    assert np.allclose(chain.latent_mean, latents.mean(axis=0), rtol=CHAIN_TOL, atol=CHAIN_TOL)
    return errors


def test_run_chain_matches_scalar_kernels_with_intercept(tiny_dataset):
    # the 12th coordinate active, so three shifts; thin 1
    cfg = SamplerConfig(iterations=60, burn_in=20, thin=1, seed=8)
    mc = ModelConfig(include_credit_intercept=True, credit_scale=5.0)
    assert_chain_matches_reference(tiny_dataset, mc, cfg)


def test_run_chain_matches_scalar_kernels_across_the_rate_cap(tiny_dataset):
    # a cap of 90, twice the largest count (45), crossing the tuning at
    # sweep 100: proposals of both phases cross the cap and are rejected
    # (2 block steps and 12 latent steps of 2280), under the error budget,
    # and run_chain must keep none of their rows. The latents' windows are
    # wide while the credit loading is still growing, so at a cap of 70 the
    # latents pass the budget by sweep 100 at every seed 0-7
    cfg = SamplerConfig(iterations=120, burn_in=100, thin=2, seed=3)
    param_errors, latent_errors = assert_chain_matches_reference(
        tiny_dataset, ModelConfig(poisson_rate_cap=90.0), cfg
    )
    assert param_errors > 0 and latent_errors > 0


# --- chain driver behavior -----------------------------------------------------

def test_run_chain_latent_draws_do_not_depend_on_the_refill_size(tiny_dataset, monkeypatch):
    # sweep s reads the latent stream's uniforms 2ns to 2n(s + 1) however many
    # sweeps a refill draws: one sweep, or seven, per refill gives the default
    # chain, whose refill covers all 300 sweeps here
    n = len(tiny_dataset)
    cfg = SamplerConfig(iterations=300, burn_in=100, thin=2, seed=3)
    default = run_chain(tiny_dataset, ModelConfig(), cfg, latent_columns=range(n))
    for budget in (2 * n, 7 * 2 * n + 5):
        monkeypatch.setattr(sampler, "BUDGET", budget)
        chain = run_chain(tiny_dataset, ModelConfig(), cfg, latent_columns=range(n))
        for name in ("param_draws", "latent_mean", "latent_draws", "accept_rate_params"):
            assert np.array_equal(getattr(chain, name), getattr(default, name)), (budget, name)
        assert chain.accept_rate_latents == default.accept_rate_latents


def test_run_chain_latent_uniforms_do_not_grow_with_rows(tiny_dataset):
    # the latent uniforms come from one buffer of sampler.BUDGET doubles
    # (512 KB); 256 sweeps' worth per row would alone be 13.1 MB at 3200 rows
    big = tiny_dataset.subset(np.arange(3200) % len(tiny_dataset))
    cfg = SamplerConfig(iterations=2, burn_in=1, seed=0)
    tracemalloc.start()
    try:
        run_chain(big, ModelConfig(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 256 * 3200 * 8, peak


def test_run_chain_is_deterministic(tiny_dataset, short_sampler_config):
    a = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    b = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    assert np.array_equal(a.param_draws, b.param_draws)
    assert np.array_equal(a.latent_mean, b.latent_mean)


def test_run_chain_seed_changes_draws(tiny_dataset, short_sampler_config):
    a = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    other = SamplerConfig(iterations=300, burn_in=100, thin=2, seed=6)
    b = run_chain(tiny_dataset, ModelConfig(), other)
    assert not np.array_equal(a.param_draws, b.param_draws)


def test_run_chain_shapes_and_names(tiny_dataset):
    cfg = SamplerConfig(iterations=30, burn_in=10, thin=4, seed=0)
    chain = run_chain(tiny_dataset, ModelConfig(), cfg, latent_columns=(0, 3))
    assert chain.n_draws() == 5
    assert chain.param_draws.shape == (5, 11)
    assert chain.latent_columns == (0, 3)
    assert chain.latent_draws.shape == (5, 2)
    assert chain.latent_mean.shape == (len(tiny_dataset),)
    assert chain.param_names == ModelConfig().active_param_names()
    med = chain.theta_median()
    assert med.b_c is None


def test_run_chain_streams_exact_latent_summaries(tiny_dataset, short_sampler_config):
    n = len(tiny_dataset)
    full = run_chain(
        tiny_dataset, ModelConfig(), short_sampler_config,
        latent_columns=range(n),
    )
    draws = full.latent_draws
    assert draws.shape == (full.n_draws(), n)
    assert np.array_equal(full.latent_mean, draws.mean(axis=0))

    # without latent columns the chain stores no (n_draws, n) latent matrix
    small = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    assert np.array_equal(small.param_draws, full.param_draws)
    assert np.array_equal(small.latent_mean, full.latent_mean)
    arrays = [v for v in vars(small).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < small.n_draws() * n for a in arrays)
    assert small.latent_draws.shape == (small.n_draws(), 0)


def test_run_chain_adaptation_freezes_after_burn_in(tiny_dataset, monkeypatch):
    # the scales are tuned at the start and after burn-in sweeps 1, 2, 4,
    # ..., every 100th and the last, each time from the state alone: every
    # tuning's latent widths are RW_SCALE sqrt(3 / (1 - curv)) at the state
    # it was made in, and they move as the state does. After burn-in every
    # sweep runs on the one tuning made at its end
    sweeps, tuned_after, used, want = [], [], [], []
    real_tune, real_sweep = _State.tune, sampler._sweep

    def tune(state):
        tuned_after.append(len(sweeps))
        curv = per_obs_latent_slopes(state.theta(), state.X[3], state.design)[1]
        want.append(RW_SCALE * np.sqrt(3.0 / (1.0 - curv)))
        return real_tune(state)

    def sweep(state, tuning, *args):
        sweeps.append(None)
        used.append(tuning)
        return real_sweep(state, tuning, *args)

    monkeypatch.setattr(_State, "tune", tune)
    monkeypatch.setattr(sampler, "_sweep", sweep)
    run_chain(tiny_dataset, ModelConfig(), SamplerConfig(iterations=400, burn_in=250, seed=2))
    assert tuned_after == [0, 1, 2, 4, 8, 16, 32, 64, 100, 128, 200, 250]
    assert all(t is used[250] for t in used[250:])
    widths = [used[s].widths for s in tuned_after]
    for got, expected in zip(widths, want):
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
    # the all-zero start's curvature is 1 in every row; after it each tuning
    # gives new widths
    assert np.array_equal(widths[0], np.full(len(tiny_dataset), RW_SCALE * math.sqrt(3.0)))
    assert all(not np.array_equal(a, b) for a, b in zip(widths, widths[1:]))


def test_run_chain_restores_the_error_state_when_it_aborts(tiny_dataset):
    # run_chain ignores overflow, divide and invalid warnings while it runs.
    # A chain that aborts mid-way (a cap below exp(0): every credit
    # evaluation is over it) hands back the caller's own error state, here
    # one that differs from run_chain's in all three
    cfg = SamplerConfig(iterations=300, burn_in=100, seed=3)
    with np.errstate(over="raise", divide="print", invalid="warn"):
        before = np.geterr()
        with pytest.raises(ConfigError, match="aborted at sweep 100"):
            run_chain(tiny_dataset, ModelConfig(poisson_rate_cap=1e-6), cfg)
        assert np.geterr() == before


def test_run_chain_aborts_on_persistent_likelihood_errors(tiny_dataset):
    # a cap below exp(0) makes every credit evaluation overflow
    mc = ModelConfig(poisson_rate_cap=1e-6)
    cfg = SamplerConfig(iterations=100, burn_in=0, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConfigError, match="likelihood errors"):
            run_chain(tiny_dataset, mc, cfg)


# --- fixed-parameter latent inference ------------------------------------------

def test_infer_latent_conditioning_pulls_toward_credit(modest_params):
    # high credit at positive beta_c_c should raise the inferred score
    rich = Dataset(
        sex=np.array([1]), age_std=np.array([0.0]), job=np.array([1]),
        house=np.array([1]), credit=np.array([60]),
    )
    with_credit = infer_latent(modest_params, rich, ModelConfig(), include_credit=True)
    without = infer_latent(modest_params, rich, ModelConfig(), include_credit=False)
    assert with_credit[0] > without[0]


# --- exact test-time inference ----------------------------------------------------

def quadrature(theta, data, i, model_config, include_credit, lo, hi, points=400_001):
    """Mean and std of row i's latent posterior by a dense trapezoid
    rule on [lo, hi], with the heads written out by hand. No rate cap is
    applied: a truncated posterior is integrated by ending the window at the
    cap's bound. Also returns the density at both ends relative to its peak."""
    c = np.linspace(lo, hi, points)
    t = theta
    sex, age = int(data.sex[i]), float(data.age_std[i])
    job, house = int(data.job[i]), int(data.house[i])
    xj = (t.b_j + sex * t.beta_j_s + age * t.beta_j_a + c * t.beta_j_c) * (2 * job - 1)
    xh = (t.b_h + sex * t.beta_h_s + age * t.beta_h_a + c * t.beta_h_c) * (2 * house - 1)
    logw = -np.logaddexp(0.0, -xj) - np.logaddexp(0.0, -xh) - 0.5 * c * c
    if include_credit:
        count = np.rint(int(data.credit[i]) / model_config.credit_scale)
        lin = sex * t.beta_c_s + age * t.beta_c_a + c * t.beta_c_c
        if model_config.include_credit_intercept:
            lin = lin + t.b_c
        logw = logw + count * lin - np.exp(lin) - gammaln(count + 1.0)
    w = np.exp(logw - logw.max())
    z = np.trapezoid(w, c)
    mean = np.trapezoid(c * w, c) / z
    std = math.sqrt(np.trapezoid((c - mean) ** 2 * w, c) / z)
    return mean, std, max(w[0], w[-1])


def assert_matches_quadrature(theta, data, model_config, include_credit, windows=None):
    """infer_latent's means against quadrature row by row, to 1e-8. The
    window defaults to the oracle's own mean +- 40 std, from a first pass
    on [-40, 40], and the density at its ends must be negligible. Returns
    the means and the oracle's stds."""
    means = infer_latent(theta, data, model_config, include_credit=include_credit)
    stds = np.empty(len(data))
    for i in range(len(data)):
        if windows is None:
            mean, std, _ = quadrature(
                theta, data, i, model_config, include_credit, -40.0, 40.0, points=100_001
            )
            lo, hi = mean - 40 * std, mean + 40 * std
        else:
            lo, hi = windows[i]
        mean, stds[i], edge = quadrature(theta, data, i, model_config, include_credit, lo, hi)
        if windows is None:
            assert edge < 1e-30, i
        assert abs(means[i] - mean) <= 1e-8, (i, means[i], mean)
    return means, stds


ORACLE_CASES = {
    "default": ModelConfig(),
    "intercept": ModelConfig(include_credit_intercept=True, credit_scale=5.0),
}


@pytest.mark.parametrize("include_credit", [False, True], ids=["honest", "leaky"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_infer_latents_matches_quadrature(tiny_dataset, modest_params, case, include_credit):
    theta = replace(modest_params, b_c=-0.4)
    assert_matches_quadrature(theta, tiny_dataset, ORACLE_CASES[case], include_credit)


def test_infer_latents_narrow_leaky_rows(modest_params):
    # counts in the thousands at credit_scale 1: the Poisson head pins each
    # posterior to a width of 0.01 to 0.03, far from the prior's mode
    data = Dataset(
        sex=np.array([0, 1, 1]), age_std=np.array([0.5, -1.0, 2.0]), job=np.array([1, 0, 1]),
        house=np.array([0, 1, 1]), credit=np.array([2500, 7000, 15000]),
    )
    means, stds = assert_matches_quadrature(modest_params, data, ModelConfig(), include_credit=True)
    assert np.all(stds < 0.04) and np.all(means > 12.0)


def test_infer_latents_widens_a_grid_the_laplace_width_undercovers(modest_params):
    # a steep job head: past the point where it saturates the posterior is the
    # prior alone, far wider than the curvature at the mode says
    theta = replace(modest_params, beta_j_c=9.0, b_j=-4.0)
    data = Dataset(
        sex=np.array([0, 1]), age_std=np.array([0.3, -0.8]), job=np.array([1, 0]),
        house=np.array([0, 1]), credit=np.array([10, 10]),
    )
    design = Design.from_dataset(data, ModelConfig())
    vec = theta.to_vector()
    c = np.linspace(-12.0, 12.0, 200_001)
    for i in range(len(data)):
        row = design.rows(slice(i, i + 1)).columns()
        logp = per_obs_log_likelihood(vec, c[None, :], row, include_credit=False)[0][0] - 0.5 * c * c
        mode = c[np.argmax(logp)]
        curv = per_obs_latent_slopes(vec, np.array([[mode]]), row, include_credit=False)[1][0, 0] - 1.0
        reach = math.sqrt(2.0 * TAIL_NATS / -curv)
        # one end of the Laplace window lies less than TAIL_NATS below the mode
        ends = per_obs_log_likelihood(vec, mode + np.array([[-reach, reach]]), row, False)[0][0]
        ends -= 0.5 * (mode + np.array([-reach, reach])) ** 2
        assert np.max(ends) > logp.max() - TAIL_NATS + 5.0
    assert_matches_quadrature(theta, data, ModelConfig(), include_credit=False)


def test_infer_latents_truncates_at_the_rate_cap(modest_params):
    # a leaky row whose untruncated posterior lies past a rate cap of exp(2.5)
    data = Dataset(
        sex=np.array([1]), age_std=np.array([0.3]), job=np.array([1]),
        house=np.array([1]), credit=np.array([60]),
    )
    model_config = ModelConfig(poisson_rate_cap=math.exp(2.5))
    t = modest_params
    bound = (math.log(model_config.poisson_rate_cap) - (t.beta_c_s + 0.3 * t.beta_c_a)) / t.beta_c_c
    means, _ = assert_matches_quadrature(
        t, data, model_config, include_credit=True, windows=[(bound - 12.0, bound)]
    )
    assert bound - 0.1 < means[0] < bound


def test_infer_latents_rows_do_not_interact(tiny_dataset, modest_params):
    # no reduction across rows: a prefix slice, or other rows changed, must
    # leave a row's results bit-identical. The changed rows are extreme ones
    # that take more Newton steps and wider grids.
    keep = np.arange(6)
    changed = replace(
        tiny_dataset,
        sex=np.r_[tiny_dataset.sex[keep], 1 - tiny_dataset.sex[6:]],
        age_std=np.r_[tiny_dataset.age_std[keep], tiny_dataset.age_std[6:] * 6.0],
        credit=np.r_[tiny_dataset.credit[keep], tiny_dataset.credit[6:] * 400],
    )
    for include_credit in (False, True):
        full = infer_latent(modest_params, tiny_dataset, ModelConfig(), include_credit=include_credit)
        for k in (1, 5, 11):
            part = infer_latent(
                modest_params, tiny_dataset.subset(np.arange(k)), ModelConfig(),
                include_credit=include_credit,
            )
            assert np.array_equal(part, full[:k]), k
        other = infer_latent(modest_params, changed, ModelConfig(), include_credit=include_credit)
        assert np.array_equal(other[keep], full[keep])
        assert not np.array_equal(other[6:], full[6:])


def block_edge_dataset() -> tuple[Dataset, list[int]]:
    """2 * GRID_BLOCK + 3 rows, so the last block is short. The rows at each
    block's first and last index are extreme: age six sds out and credit
    amounts in the thousands."""
    n = 2 * GRID_BLOCK + 3
    rng = np.random.default_rng(20)
    age = rng.normal(size=n)
    credit = rng.integers(5, 46, size=n)
    edges = [0, GRID_BLOCK - 1, GRID_BLOCK, 2 * GRID_BLOCK - 1, 2 * GRID_BLOCK, n - 1]
    age[edges] = np.resize([6.0, -6.0], len(edges))
    credit[edges] = np.resize([4000, 9000, 2500], len(edges))
    return Dataset(
        sex=rng.integers(0, 2, size=n), age_std=age, job=rng.integers(0, 2, size=n),
        house=rng.integers(0, 2, size=n), credit=credit,
    ), edges


@pytest.mark.parametrize("low_cap", [False, True], ids=["default_cap", "low_cap"])
@pytest.mark.parametrize("include_credit", [False, True], ids=["honest", "leaky"])
def test_infer_latents_blocks_match_rows_alone(modest_params, low_cap, include_credit):
    # rows across, at and inside block boundaries are bit-identical to the
    # same row inferred on its own. At the low cap every leaky row's grid ends
    # on the cap's bound, the extreme rows' posteriors pressed against it.
    data, edges = block_edge_dataset()
    rate_cap = math.exp(2.5) if low_cap else ModelConfig().poisson_rate_cap
    model_config = ModelConfig(poisson_rate_cap=rate_cap)
    full = infer_latent(modest_params, data, model_config, include_credit=include_credit)
    for i in range(len(data)):
        alone = infer_latent(
            modest_params, data.subset(np.array([i])), model_config, include_credit=include_credit
        )
        assert alone[0] == full[i], i
    if include_credit and low_cap:
        t = modest_params
        bound = (math.log(rate_cap) - (t.beta_c_s * data.sex + t.beta_c_a * data.age_std)) / t.beta_c_c
        assert np.all(full < bound)
        assert np.all(full[edges] > bound[edges] - 0.1)


def test_infer_latent_grid_reads_slopes_only_at_its_ends(modest_params, monkeypatch):
    # the grid's Euler-Maclaurin corrections read the integrand's slope at
    # three points at each end, so no slope call spans a row's whole grid;
    # at the low cap every leaky grid ends on the cap's bound
    data, _ = block_edge_dataset()
    model_config = ModelConfig(poisson_rate_cap=math.exp(2.5))
    plain = [infer_latent(modest_params, data, model_config, include_credit=ic) for ic in (False, True)]
    shapes = []
    real_slopes = sampler.probmodel.per_obs_latent_slopes

    def recording(vec, c, design, include_credit=True):
        shapes.append(np.shape(c))
        return real_slopes(vec, c, design, include_credit)

    monkeypatch.setattr(sampler.probmodel, "per_obs_latent_slopes", recording)
    wrapped = [infer_latent(modest_params, data, model_config, include_credit=ic) for ic in (False, True)]
    assert any(len(s) == 2 for s in shapes)
    assert not [s for s in shapes if len(s) == 2 and s[1] == GRID_POINTS]
    for a, b in zip(wrapped, plain):
        assert np.array_equal(a, b)


def test_infer_latent_memory_does_not_grow_with_rows(modest_params):
    # the grid stage runs per block of GRID_BLOCK rows, so eight blocks of
    # rows peak at about what one block does; unblocked, the peak is 8x
    data, _ = block_edge_dataset()
    rows = np.arange(8 * GRID_BLOCK) % len(data)
    peaks = []
    for n in (GRID_BLOCK, 8 * GRID_BLOCK):
        part = data.subset(rows[:n])
        infer_latent(modest_params, part, ModelConfig(), include_credit=True)
        tracemalloc.start()
        try:
            infer_latent(modest_params, part, ModelConfig(), include_credit=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# --- chain file io ---------------------------------------------------------------

def test_export_and_read_chain_round_trip(tmp_path, tiny_dataset, short_sampler_config):
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    paths = export_chain(chain, str(tmp_path), ("config_hash=feed",))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["params.csv", "latents.csv"]
    for p in paths:
        assert Path(p).read_text().startswith("# config_hash=feed\n")
    names, draws = read_param_chain_csv(paths[0])
    assert names == chain.param_names
    assert np.array_equal(draws, chain.param_draws)


def test_export_chain_latent_subset(tmp_path, tiny_dataset, short_sampler_config):
    n = len(tiny_dataset)
    full = run_chain(tiny_dataset, ModelConfig(), short_sampler_config, latent_columns=range(n))
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config, latent_columns=[0, 7])
    export_chain(chain, str(tmp_path))
    lines = (tmp_path / "latents.csv").read_text().splitlines()
    assert lines[0] == "draw,c_0,c_7"
    assert len(lines) == 1 + chain.n_draws()
    assert lines[1] == f"0,{float(full.latent_draws[0, 0])!r},{float(full.latent_draws[0, 7])!r}"
    # the indices are checked before the first sweep
    for bad in ([n], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            run_chain(tiny_dataset, ModelConfig(), short_sampler_config, latent_columns=bad)


def test_export_chain_without_latent_columns(tmp_path, tiny_dataset, short_sampler_config):
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config, latent_columns=())
    export_chain(chain, str(tmp_path))
    lines = (tmp_path / "latents.csv").read_text().splitlines()
    assert lines == ["draw"] + [str(d) for d in range(chain.n_draws())]


def test_theta_median_is_np_median(tiny_dataset):
    # an odd and an even number of draws: the middle draw, and the two
    # middle ones' sum halved
    for iterations in (25, 26):
        cfg = SamplerConfig(iterations=iterations, burn_in=10, seed=0)
        chain = run_chain(tiny_dataset, ModelConfig(), cfg)
        want = np.median(chain.param_draws, axis=0)
        got = chain.theta_median().to_vector(include_credit_intercept=False)
        assert got.tobytes() == want.tobytes()


def test_read_param_chain_csv_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_param_chain_csv(str(tmp_path / "absent.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,b_j\n0,1.0\n")
    with pytest.raises(DataError, match="header"):
        read_param_chain_csv(str(bad))
    short = tmp_path / "short.csv"
    short.write_text("draw,b_j\n0,not_a_number\n")
    with pytest.raises(DataError, match="row"):
        read_param_chain_csv(str(short))
    one = tmp_path / "one.csv"
    one.write_text("draw,b_j,b_h\n0,1.0,2.0\n")
    with pytest.raises(DataError, match="at least 2 draws"):
        read_param_chain_csv(str(one))
    for value in ("nan", "inf", "-inf"):
        odd = tmp_path / f"{value}.csv"
        odd.write_text(f"draw,b_j,b_h\n0,1.0,2.0\n1,{value},2.5\n2,1.5,3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            read_param_chain_csv(str(odd))
