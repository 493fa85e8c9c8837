"""Parameter containers, priors, and the likelihood engine.

The engine's per-observation values are checked against scipy: log_expit for
the logistic heads, poisson.logpmf for the credit head, and norm.logpdf for
the standard normal priors.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import gammaln, log_expit
from scipy.stats import norm, poisson

from faircredit.dataset import Dataset
from faircredit.errors import DataError, RateCapError
from faircredit.probmodel import (
    BASE_PARAM_NAMES,
    HEAD_CREDIT,
    HEAD_HOUSE,
    HEAD_JOB,
    LOG_2PI,
    PARAM_NAMES,
    Design,
    ModelConfig,
    ModelParams,
    credit_count,
    head_log_likelihood,
    log_posterior,
    log_prior,
    per_obs_latent_slopes,
    per_obs_log_likelihood,
)


def one_row(design: Design, i: int) -> Design:
    """Observation i of a design on its own, sliced from the batched arrays."""
    arrays = {f.name: getattr(design, f.name)[i : i + 1] for f in fields(design) if f.name != "cap_log"}
    return replace(design, **arrays)


def columns_design(sex, age, job, house, credit, config=ModelConfig()) -> Design:
    data = Dataset(
        sex=np.asarray(sex), age_std=np.asarray(age, dtype=float), job=np.asarray(job),
        house=np.asarray(house), credit=np.asarray(credit),
    )
    return Design.from_dataset(data, config)


def oracle_row(theta: ModelParams, c_i: float, obs, include_credit=True, config=ModelConfig()):
    """One observation's log-likelihood assembled from scipy densities."""
    x_j = theta.b_j + obs.sex * theta.beta_j_s + obs.age_std * theta.beta_j_a + c_i * theta.beta_j_c
    x_h = theta.b_h + obs.sex * theta.beta_h_s + obs.age_std * theta.beta_h_a + c_i * theta.beta_h_c
    ll = float(log_expit((2 * obs.job - 1) * x_j) + log_expit((2 * obs.house - 1) * x_h))
    if include_credit:
        lin = obs.sex * theta.beta_c_s + obs.age_std * theta.beta_c_a + c_i * theta.beta_c_c
        if config.include_credit_intercept:
            lin += theta.b_c
        ll += float(poisson.logpmf(credit_count(obs.credit, config.credit_scale), math.exp(lin)))
    return ll


# --- densities against scipy -------------------------------------------------

def test_bernoulli_logit_form_agrees_and_survives_extremes():
    # x_j = x_h = c with unit latent loadings; both outcomes at every logit,
    # out to tails where the probability itself rounds to 0 or 1
    xs = np.array([-800.0, -40.0, -6.0, -0.4, 0.0, 2.2, 40.0, 800.0])
    c = np.repeat(xs, 2)
    y = np.tile([0, 1], xs.size)
    design = columns_design(np.zeros(c.size), np.zeros(c.size), y, 1 - y, np.zeros(c.size))
    vec = ModelParams(beta_j_c=1.0, beta_h_c=1.0).to_vector()
    for i in range(c.size):
        row = one_row(design, i)
        job, _, _ = head_log_likelihood(HEAD_JOB, vec, c[i : i + 1], row)
        house, _, _ = head_log_likelihood(HEAD_HOUSE, vec, c[i : i + 1], row)
        assert job == pytest.approx(float(log_expit((2 * y[i] - 1) * c[i])), rel=1e-12)
        assert house == pytest.approx(float(log_expit((1 - 2 * y[i]) * c[i])), rel=1e-12)
    # probability space would round to 1.0 at 40; the logit form stays exact
    at_40 = one_row(design, np.flatnonzero((c == 40.0) & (y == 0))[0])
    assert head_log_likelihood(HEAD_JOB, vec, np.array([40.0]), at_40)[0] == pytest.approx(
        -40.0, rel=1e-12
    )
    at_m800 = one_row(design, np.flatnonzero((c == -800.0) & (y == 1))[0])
    assert head_log_likelihood(HEAD_JOB, vec, np.array([-800.0]), at_m800)[0] == -800.0


def test_logistic_rows_match_logaddexp_within_4_ulp():
    # log sigmoid(z) as min(z, 0) - log1p(exp(-|z|)) against the independent
    # -logaddexp(0, -z), over a dense grid and the points where either form
    # could lose: 0, subnormal-adjacent, exp's overflow and underflow edges
    z = np.concatenate([
        np.linspace(-800.0, 800.0, 400_001),
        [0.0, 1e-300, -1e-300, 40.0, -40.0, 709.7, -709.7, 745.0, -745.0, -np.inf],
    ])
    n = z.size
    # job outcome 1 gives the head +z, house outcome 0 gives it -z
    design = columns_design(np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n))
    vec = ModelParams(beta_j_c=1.0, beta_h_c=1.0).to_vector()
    job = head_log_likelihood(HEAD_JOB, vec, z, design)[2]
    house = head_log_likelihood(HEAD_HOUSE, vec, z, design)[2]
    np.testing.assert_array_max_ulp(job, -np.logaddexp(0.0, -z), maxulp=4)
    np.testing.assert_array_max_ulp(house, -np.logaddexp(0.0, z), maxulp=4)
    assert job[-1] == -np.inf and house[-1] == 0.0


def test_poisson_log_pmf_frozen_value():
    # 3*log(2) - 2 - log(6), checked against scipy.stats.poisson
    design = columns_design([0], [0.0], [1], [1], [3])
    vec = ModelParams(beta_c_c=1.0).to_vector()
    total, _, _ = head_log_likelihood(HEAD_CREDIT, vec, np.array([math.log(2.0)]), design)
    assert total == pytest.approx(-1.7123179275482192, abs=1e-14)


def test_poisson_log_pmf_matches_scipy_grid():
    ks, rates = (0, 1, 7, 40), (0.3, 1.0, 17.5)
    k = np.repeat(ks, len(rates))
    c = np.log(np.tile(rates, len(ks)))
    design = columns_design(np.zeros(k.size), np.zeros(k.size), np.ones(k.size), np.ones(k.size), k)
    vec = ModelParams(beta_c_c=1.0).to_vector()
    for i in range(k.size):
        total, n_over, _ = head_log_likelihood(HEAD_CREDIT, vec, c[i : i + 1], one_row(design, i))
        assert n_over == 0
        assert total == pytest.approx(float(poisson.logpmf(k[i], math.exp(c[i]))), rel=1e-12)


def test_lgamma_counts_match_gammaln_within_4_ulp():
    counts = np.arange(200_001)
    n = counts.size
    design = columns_design(np.zeros(n), np.zeros(n), np.ones(n), np.ones(n), counts)
    assert np.array_equal(design.counts, counts)
    assert design.lgamma_counts[0] == 0.0 and design.lgamma_counts[1] == 0.0
    np.testing.assert_array_max_ulp(design.lgamma_counts[2:], gammaln(counts[2:] + 1.0), maxulp=4)


def test_normal_log_pdf_matches_scipy():
    r = np.random.default_rng(5)
    for _ in range(3):
        theta = ModelParams(*r.uniform(-3.0, 3.0, 11), b_c=float(r.uniform(-3.0, 3.0)))
        assert log_prior(theta) == pytest.approx(
            float(np.sum(norm.logpdf(theta.to_vector()))), rel=1e-13
        )
        with_b = ModelConfig(include_credit_intercept=True)
        assert log_prior(theta, with_b) == pytest.approx(
            float(np.sum(norm.logpdf(theta.to_vector(True)))), rel=1e-13
        )


def test_credit_count_rounds_half_to_even():
    assert credit_count(25, 10.0) == 2
    assert credit_count(35, 10.0) == 4
    assert credit_count(3500, 1000.0) == 4
    assert credit_count(2500, 1000.0) == 2
    assert credit_count(7, 1.0) == 7


def test_log_prior_frozen_values():
    # all-zero parameters: -(k/2) * log(2*pi)
    assert log_prior(ModelParams()) == pytest.approx(-10.1083238652514, abs=1e-12)
    with_intercept = ModelConfig(include_credit_intercept=True)
    assert log_prior(ModelParams(b_c=0.0), with_intercept) == pytest.approx(
        -11.027262398456072, abs=1e-12
    )
    halves = ModelParams(*([0.5] * 11))
    assert log_prior(halves) == pytest.approx(-0.5 * (11 * LOG_2PI + 11 * 0.25), abs=1e-12)


# --- parameter containers --------------------------------------------------

def test_param_names_layout():
    assert len(PARAM_NAMES) == 12
    assert PARAM_NAMES[-1] == "b_c"
    assert BASE_PARAM_NAMES == PARAM_NAMES[:11]


def test_model_params_vector_round_trip():
    theta = ModelParams(*np.linspace(-1, 1, 11))
    vec = theta.to_vector()
    assert vec.shape == (11,)
    assert ModelParams.from_vector(vec) == theta

    theta12 = theta.replace(b_c=2.5)
    vec12 = theta12.to_vector(include_credit_intercept=True)
    assert vec12.shape == (12,)
    assert vec12[11] == 2.5
    assert ModelParams.from_vector(vec12) == theta12


def test_model_params_vector_errors():
    with pytest.raises(ValueError):
        ModelParams().to_vector(include_credit_intercept=True)  # b_c unset
    with pytest.raises(ValueError):
        ModelParams.from_vector([0.0] * 10)


def test_model_params_kv_round_trip():
    theta = ModelParams(*np.linspace(-0.9, 0.9, 11), b_c=1.25)
    text = theta.to_kv_text(header_lines=("written by a test",))
    assert text.startswith("# written by a test\n")
    assert ModelParams.from_kv_text(text) == theta
    # without b_c the key is simply absent
    bare = ModelParams(b_j=0.5)
    assert "b_c" not in bare.to_kv_text()
    assert ModelParams.from_kv_text(bare.to_kv_text()) == bare


def test_model_params_kv_rejects_bad_names():
    good = ModelParams().to_kv_text()
    with pytest.raises(ValueError, match="unknown"):
        ModelParams.from_kv_text(good + "mystery = 1\n")
    with pytest.raises(ValueError, match="missing"):
        ModelParams.from_kv_text("b_j = 0.0\n")


def test_model_params_validate_rejects_nan():
    with pytest.raises(ValueError, match="beta_j_a"):
        ModelParams(beta_j_a=float("nan")).validate()
    ModelParams().validate()  # b_c=None is fine


def test_model_config_validate():
    with pytest.raises(ValueError):
        ModelConfig(credit_scale=0.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(poisson_rate_cap=-1.0).validate()
    assert ModelConfig().active_param_names() == BASE_PARAM_NAMES
    assert ModelConfig(include_credit_intercept=True).active_param_names() == PARAM_NAMES


# --- observation likelihood ------------------------------------------------

def test_obs_log_likelihood_matches_hand_assembly(tiny_dataset, modest_params):
    design = Design.from_dataset(tiny_dataset, ModelConfig())
    vec = modest_params.to_vector()
    c = np.full(len(tiny_dataset), 0.37)
    obs = tiny_dataset.observation(1)
    ll, _ = per_obs_log_likelihood(vec, c, design)
    assert ll[1] == pytest.approx(oracle_row(modest_params, 0.37, obs), rel=1e-12)

    # without the credit term only the two binary heads remain
    no_credit, _ = per_obs_log_likelihood(vec, c, design, include_credit=False)
    assert no_credit[1] == pytest.approx(
        oracle_row(modest_params, 0.37, obs, include_credit=False), rel=1e-12
    )


def test_obs_log_likelihood_uses_credit_intercept(tiny_dataset, modest_params):
    config = ModelConfig(include_credit_intercept=True)
    theta = modest_params.replace(b_c=1.5)
    design = Design.from_dataset(tiny_dataset, config)
    c = np.full(len(tiny_dataset), 0.2)
    with_b, _ = per_obs_log_likelihood(theta.to_vector(True), c, design)
    without_b, _ = per_obs_log_likelihood(modest_params.to_vector(), c, design)
    obs = tiny_dataset.observation(0)
    assert with_b[0] == pytest.approx(oracle_row(theta, 0.2, obs, config=config), rel=1e-12)
    assert with_b[0] != pytest.approx(without_b[0])
    with pytest.raises(ValueError, match="b_c"):
        log_posterior(modest_params, c, tiny_dataset, config)


def test_obs_log_likelihood_rate_cap(tiny_dataset):
    # rate exp(30 c) passes the cap of 1e6 first at the third row
    theta = ModelParams(beta_c_c=30.0)
    c = np.zeros(len(tiny_dataset))
    c[2], c[5] = 1.0, 2.0
    with pytest.raises(RateCapError) as err:
        log_posterior(theta, c, tiny_dataset, ModelConfig(poisson_rate_cap=1e6))
    assert err.value.linear_predictor == 30.0
    assert err.value.cap == 1e6


def test_log_posterior_decomposes(tiny_dataset, modest_params):
    config = ModelConfig()
    rng = np.random.default_rng(3)
    c = rng.standard_normal(len(tiny_dataset))
    expected = float(np.sum(norm.logpdf(modest_params.to_vector())))
    for i, obs in enumerate(tiny_dataset):
        expected += float(norm.logpdf(c[i]))
        expected += oracle_row(modest_params, c[i], obs, config=config)
    assert log_posterior(modest_params, c, tiny_dataset, config) == pytest.approx(
        expected, rel=1e-10
    )


def test_log_posterior_rejects_bad_latents(tiny_dataset, modest_params):
    with pytest.raises(ValueError):
        log_posterior(modest_params, np.zeros(3), tiny_dataset)
    bad = np.zeros(len(tiny_dataset))
    bad[0] = float("inf")
    with pytest.raises(ValueError):
        log_posterior(modest_params, bad, tiny_dataset)


def test_log_posterior_rejects_invalid_data(tiny_dataset, modest_params):
    # a count below zero has no log-factorial; it is refused as bad data
    data = replace(tiny_dataset, credit=np.where(np.arange(len(tiny_dataset)) == 3, -3, 12))
    with pytest.raises(DataError, match="credit must be >= 1"):
        log_posterior(modest_params, np.zeros(len(data)), data)


# --- vectorized engine -----------------------------------------------------

def test_per_obs_matches_scalar_loop(tiny_dataset, modest_params):
    for config, theta in (
        (ModelConfig(), modest_params),
        (ModelConfig(include_credit_intercept=True, credit_scale=5.0), modest_params.replace(b_c=0.8)),
    ):
        design = Design.from_dataset(tiny_dataset, config)
        vec = theta.to_vector(config.include_credit_intercept)
        c = np.random.default_rng(8).standard_normal(len(tiny_dataset))
        ll, n_over = per_obs_log_likelihood(vec, c, design)
        assert n_over == 0
        for i, obs in enumerate(tiny_dataset):
            assert ll[i] == pytest.approx(oracle_row(theta, c[i], obs, config=config), rel=1e-12)


def test_per_obs_bitwise_stable_under_slicing(tiny_dataset, modest_params):
    # single-observation evaluation must reproduce the batched result exactly,
    # bit for bit; the reference sweep in test_sampler steps each latent on a
    # one-row slice and relies on this to match run_chain
    config = ModelConfig()
    design = Design.from_dataset(tiny_dataset, config)
    vec = modest_params.to_vector()
    c = np.random.default_rng(12).standard_normal(len(tiny_dataset))
    full, _ = per_obs_log_likelihood(vec, c, design)
    for i in range(len(tiny_dataset)):
        single, _ = per_obs_log_likelihood(vec, c[i : i + 1], one_row(design, i))
        assert single[0] == full[i]


def test_head_sums_add_up_to_total(tiny_dataset, modest_params):
    config = ModelConfig()
    design = Design.from_dataset(tiny_dataset, config)
    vec = modest_params.to_vector()
    c = np.random.default_rng(4).standard_normal(len(tiny_dataset))
    heads = [head_log_likelihood(h, vec, c, design) for h in (0, 1, 2)]
    total = sum(head[0] for head in heads)
    ll, _ = per_obs_log_likelihood(vec, c, design)
    assert total == pytest.approx(float(np.sum(ll)), rel=1e-12)
    # each head's rows are what it sums, and added job + house, then credit,
    # they are per_obs_log_likelihood's rows bit for bit, as run_chain adds them
    for head_total, _, rows in heads:
        assert head_total == float(np.sum(rows))
    assert np.array_equal((heads[0][2] + heads[1][2]) + heads[2][2], ll)


def test_head_log_likelihood_overflow_counts(tiny_dataset):
    config = ModelConfig(poisson_rate_cap=1.5)
    design = Design.from_dataset(tiny_dataset, config)
    vec = ModelParams(beta_c_s=5.0).to_vector()
    c = np.zeros(len(tiny_dataset))
    total, n_over, _ = head_log_likelihood(2, vec, c, design)
    assert total == float("-inf")
    assert n_over == int(np.sum(tiny_dataset.sex))  # male rows overflow

    ll, n_over2 = per_obs_log_likelihood(vec, c, design)
    assert n_over2 == n_over
    assert np.sum(np.isneginf(ll)) == n_over
    # rows under the cap come out exactly as they do with no row over it
    female = np.asarray(tiny_dataset.sex) == 0
    uncapped, _ = per_obs_log_likelihood(vec, c, Design.from_dataset(tiny_dataset, ModelConfig()))
    assert np.array_equal(ll[female], uncapped[female])
    assert np.all(np.isfinite(ll[female]))


@pytest.mark.parametrize("include_credit", [False, True], ids=["honest", "leaky"])
def test_latent_slopes_match_finite_differences(tiny_dataset, modest_params, include_credit):
    # the Newton steps of sampler.infer_latents use these derivatives in c;
    # central differences of the engine itself, over an (n, m) grid of latent
    # values through the column-shaped design, checking that layout too
    for config, theta in (
        (ModelConfig(), modest_params.replace(beta_j_c=4.0)),
        (ModelConfig(include_credit_intercept=True, credit_scale=5.0), modest_params.replace(b_c=0.8)),
    ):
        cols = Design.from_dataset(tiny_dataset, config).columns()
        vec = theta.to_vector(config.include_credit_intercept)
        c = np.linspace(-3.0, 3.0, 13)[None, :] + 0.1 * np.arange(len(tiny_dataset))[:, None]
        grad, curv = per_obs_latent_slopes(vec, c, cols, include_credit)
        assert grad.shape == curv.shape == c.shape
        assert np.all(curv < 0.0)

        def ll(x):
            return per_obs_log_likelihood(vec, x, cols, include_credit)[0]

        e = 1e-4
        fd_grad = (ll(c + e) - ll(c - e)) / (2 * e)
        fd_curv = (ll(c + e) - 2 * ll(c) + ll(c - e)) / (e * e)
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        assert np.allclose(curv, fd_curv, rtol=1e-4, atol=1e-4)


def test_column_design_broadcasts_every_head(tiny_dataset, modest_params):
    # m latent values per row through Design.columns() give, column by column,
    # exactly the 1-D engine's rows
    config = ModelConfig(include_credit_intercept=True, credit_scale=5.0)
    design = Design.from_dataset(tiny_dataset, config)
    vec = modest_params.replace(b_c=0.8).to_vector(True)
    c = np.random.default_rng(3).standard_normal((len(tiny_dataset), 4))
    grid, _ = per_obs_log_likelihood(vec, c, design.columns())
    for k in range(4):
        assert np.array_equal(grid[:, k], per_obs_log_likelihood(vec, c[:, k].copy(), design)[0])
