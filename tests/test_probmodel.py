"""Parameter containers and the likelihood engine.

The engine's per-observation values are checked against scipy: log_expit for
the logistic heads and poisson.logpmf for the credit head.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import gammaln, log_expit
from scipy.stats import poisson

from faircredit.dataset import Dataset, generate_synthetic
from faircredit.errors import DataError
from faircredit.probmodel import (
    BASE_PARAM_NAMES,
    HEAD_CREDIT,
    HEAD_HOUSE,
    HEAD_JOB,
    PARAM_NAMES,
    Design,
    HeadTerms,
    ModelConfig,
    ModelParams,
    credit_linear,
    head_log_likelihood,
    per_obs_latent_slopes,
    per_obs_log_likelihood,
)
from faircredit.sampler import SamplerConfig, infer_latent, run_chain


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


def oracle_row(
    theta: ModelParams, c_i: float, data: Dataset, i: int, include_credit=True, config=ModelConfig()
):
    """Row i's log-likelihood assembled from scipy densities."""
    sex, age = int(data.sex[i]), float(data.age_std[i])
    x_j = theta.b_j + sex * theta.beta_j_s + age * theta.beta_j_a + c_i * theta.beta_j_c
    x_h = theta.b_h + sex * theta.beta_h_s + age * theta.beta_h_a + c_i * theta.beta_h_c
    ll = float(log_expit((2 * data.job[i] - 1) * x_j) + log_expit((2 * data.house[i] - 1) * x_h))
    if include_credit:
        lin = sex * theta.beta_c_s + age * theta.beta_c_a + c_i * theta.beta_c_c
        if config.include_credit_intercept:
            lin += theta.b_c
        # Python's round, like the engine's np.rint, rounds half to even
        ll += float(poisson.logpmf(round(int(data.credit[i]) / config.credit_scale), math.exp(lin)))
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


def logistic_design(n: int) -> Design:
    """n rows whose job head has signed predictor +c and house head -c when
    both latent coefficients are 1 (job outcome 1, house outcome 0)."""
    return columns_design(np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n))


UNIT_LATENT = ModelParams(beta_j_c=1.0, beta_h_c=1.0).to_vector()


def stable_log_sigmoid(z: np.ndarray) -> np.ndarray:
    """min(z, 0) - log1p(exp(-|z|)), whose exp cannot overflow."""
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def test_logistic_rows_match_logaddexp_within_4_ulp():
    # log sigmoid(z) against the independent -logaddexp(0, -z), over a dense
    # grid and the points where either form could lose: 0, subnormal-adjacent,
    # exp's overflow and underflow edges; the grid's far ends overflow exp(-z)
    z = np.concatenate([
        np.linspace(-800.0, 800.0, 400_001),
        [0.0, 1e-300, -1e-300, 40.0, -40.0, 709.7, -709.7, 745.0, -745.0, -np.inf],
    ])
    design = logistic_design(z.size)
    job = head_log_likelihood(HEAD_JOB, UNIT_LATENT, z, design)[2]
    house = head_log_likelihood(HEAD_HOUSE, UNIT_LATENT, z, design)[2]
    np.testing.assert_array_max_ulp(job, -np.logaddexp(0.0, -z), maxulp=4)
    np.testing.assert_array_max_ulp(house, -np.logaddexp(0.0, z), maxulp=4)
    assert job[-1] == -np.inf and house[-1] == 0.0


def test_logistic_rows_without_overflow_match_logaddexp_within_4_ulp():
    # every exp(-z) finite, the whole array in one pass of -log1p(exp(-z)):
    # within 4 ulp of -logaddexp(0, -z), and where z >= 0 bit for bit the
    # stable formula
    z = np.concatenate([
        np.linspace(-709.0, 709.0, 400_001),
        [0.0, 1e-300, -1e-300, 40.0, -40.0, 709.7, -709.7],
    ])
    design = logistic_design(z.size)
    for head, signed in ((HEAD_JOB, z), (HEAD_HOUSE, -z)):
        rows = head_log_likelihood(head, UNIT_LATENT, z, design)[2]
        np.testing.assert_array_max_ulp(rows, -np.logaddexp(0.0, -signed), maxulp=4)
        up = signed >= 0.0
        assert np.array_equal(rows[up].view(np.int64), stable_log_sigmoid(signed[up]).view(np.int64))


def test_logistic_rows_at_the_overflow_edge_are_the_stable_formula():
    # arrays whose largest -z sits just below and just above the largest t
    # with exp(t) finite: rows within 4 ulp of the stable formula, and equal
    # to it, z itself, where exp(-z) overflows, out to z = -800
    with np.errstate(over="ignore"):
        edge = math.log(np.finfo(float).max)
        while not np.isfinite(np.exp(edge)):
            edge = np.nextafter(edge, 0.0)
        assert np.exp(np.nextafter(edge, np.inf)) == np.inf
    grid = np.linspace(-30.0, 30.0, 1201)
    for far in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 745.0, 800.0):
        z = np.concatenate([grid, [-far, far]])
        design = logistic_design(z.size)
        rows = head_log_likelihood(HEAD_JOB, UNIT_LATENT, z, design)[2]
        want = stable_log_sigmoid(z)
        np.testing.assert_array_max_ulp(rows, want, maxulp=4)
        if far > edge:
            assert rows[-2] == want[-2] == -far
    z = np.array([-800.0])
    assert head_log_likelihood(HEAD_JOB, UNIT_LATENT, z, logistic_design(1))[0] == -800.0


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


def test_credit_count_rounds_half_to_even():
    # the Poisson head's count is credit / credit_scale, rounded half to even
    cases = ((25, 10.0, 2), (35, 10.0, 4), (3500, 1000.0, 4), (2500, 1000.0, 2), (7, 1.0, 7))
    for credit, scale, count in cases:
        design = columns_design([0], [0.0], [1], [1], [credit], ModelConfig(credit_scale=scale))
        assert design.counts[0] == count


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

    theta12 = replace(theta, b_c=2.5)
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
    ll, _ = per_obs_log_likelihood(vec, c, design)
    assert ll[1] == pytest.approx(oracle_row(modest_params, 0.37, tiny_dataset, 1), rel=1e-12)

    # without the credit term only the two binary heads remain
    no_credit, _ = per_obs_log_likelihood(vec, c, design, include_credit=False)
    assert no_credit[1] == pytest.approx(
        oracle_row(modest_params, 0.37, tiny_dataset, 1, include_credit=False), rel=1e-12
    )


def test_obs_log_likelihood_uses_credit_intercept(tiny_dataset, modest_params):
    config = ModelConfig(include_credit_intercept=True)
    theta = replace(modest_params, b_c=1.5)
    design = Design.from_dataset(tiny_dataset, config)
    c = np.full(len(tiny_dataset), 0.2)
    with_b, _ = per_obs_log_likelihood(theta.to_vector(True), c, design)
    without_b, _ = per_obs_log_likelihood(modest_params.to_vector(), c, design)
    assert with_b[0] == pytest.approx(
        oracle_row(theta, 0.2, tiny_dataset, 0, config=config), rel=1e-12
    )
    assert with_b[0] != pytest.approx(without_b[0])
    with pytest.raises(ValueError, match="b_c"):
        modest_params.to_vector(True)


# --- vectorized engine -----------------------------------------------------

def test_per_obs_matches_scalar_loop(tiny_dataset, modest_params):
    for config, theta in (
        (ModelConfig(), modest_params),
        (ModelConfig(include_credit_intercept=True, credit_scale=5.0), replace(modest_params, b_c=0.8)),
    ):
        design = Design.from_dataset(tiny_dataset, config)
        vec = theta.to_vector(config.include_credit_intercept)
        c = np.random.default_rng(8).standard_normal(len(tiny_dataset))
        ll, n_over = per_obs_log_likelihood(vec, c, design)
        assert n_over == 0
        for i in range(len(tiny_dataset)):
            assert ll[i] == pytest.approx(
                oracle_row(theta, c[i], tiny_dataset, i, config=config), rel=1e-12
            )


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


def test_log_posterior_rejects_invalid_data(tiny_dataset, modest_params):
    # a count below zero has no log-factorial; both posterior evaluators, the
    # training chain and test-time inference, refuse it as bad data
    data = replace(tiny_dataset, credit=np.where(np.arange(len(tiny_dataset)) == 3, -3, 12))
    cfg = SamplerConfig(iterations=10, burn_in=0, adapt_during_burn_in=False, seed=0)
    with pytest.raises(DataError, match="credit must be >= 1"):
        run_chain(data, ModelConfig(), cfg)
    with pytest.raises(DataError, match="credit must be >= 1"):
        infer_latent(modest_params, data, ModelConfig(), include_credit=True)


@pytest.mark.parametrize("include_credit", [False, True], ids=["honest", "leaky"])
def test_latent_slopes_match_finite_differences(tiny_dataset, modest_params, include_credit):
    # the Newton steps of sampler.infer_latents use these derivatives in c;
    # central differences of the engine itself, over an (n, m) grid of latent
    # values through the column-shaped design, checking that layout too
    for config, theta in (
        (ModelConfig(), replace(modest_params, beta_j_c=4.0)),
        (ModelConfig(include_credit_intercept=True, credit_scale=5.0), replace(modest_params, b_c=0.8)),
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
    vec = replace(modest_params, b_c=0.8).to_vector(True)
    c = np.random.default_rng(3).standard_normal((len(tiny_dataset), 4))
    grid, _ = per_obs_log_likelihood(vec, c, design.columns())
    for k in range(4):
        assert np.array_equal(grid[:, k], per_obs_log_likelihood(vec, c[:, k].copy(), design)[0])


# --- cached linear-predictor terms -------------------------------------------

BLOCKS = ((HEAD_JOB, HEAD_HOUSE), (HEAD_CREDIT,))
TERM_CONFIGS = (
    ModelConfig(),
    ModelConfig(include_credit_intercept=True, credit_scale=5.0),
    ModelConfig(poisson_rate_cap=80.0),  # just over the largest count
)
TERM_CONFIG_IDS = ("default", "intercept", "rate_cap")


def assert_block_matches_scratch(heads, rows, totals, vec, c, design):
    """A HeadTerms block's rows and totals against head_log_likelihood from
    scratch, bit for bit; returns the heads' overflow count. A logistic
    block keeps softplus rows, which head_log_likelihood's are 0 minus."""
    n_over = 0
    for i, h in enumerate(heads):
        total, over, expected = head_log_likelihood(h, vec, c, design)
        assert np.array_equal(rows[i] if h == HEAD_CREDIT else 0.0 - rows[i], expected)
        if totals is not None:
            assert totals[i] == total
        n_over += over
    return n_over


def assert_blocks_equal(a, b):
    """Two HeadTerms blocks' kept coefficients, terms, sums, rows, totals
    and rates, bit for bit."""
    for kept, want in ((a.coefs, b.coefs), (a.terms, b.terms), (a.sums, b.sums)):
        assert len(kept) == len(want)
        assert all(np.array_equal(x, y) for x, y in zip(kept, want))
    assert np.array_equal(a.rows, b.rows)
    assert a.totals() == b.totals()
    assert (a.rates is None) == (b.rates is None)
    assert a.rates is None or np.array_equal(a.rates, b.rates)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_moves_match_head_log_likelihood(tiny_dataset, config):
    # every coefficient of every head, and the latent column, moved from
    # random states: the cached terms give head_log_likelihood's rows, sums
    # and overflow counts at the moved state
    design = Design.from_dataset(tiny_dataset, config)
    n_params, n = len(config.active_param_names()), len(tiny_dataset)
    rng = np.random.default_rng(11)
    over_moves = finite_moves = 0
    for _ in range(10):
        vec, c = rng.standard_normal(n_params), 1.5 * rng.standard_normal(n)
        for heads in BLOCKS:
            block = HeadTerms(heads, vec, c, design)
            assert_block_matches_scratch(heads, block.rows, block.totals(), vec, c, design)
            for k, positions in enumerate(block.positions):
                coefs = 3.0 * rng.standard_normal(len(heads))
                totals = block.move(k, coefs[:, None])
                moved = vec.copy()
                moved[list(positions)] = coefs
                n_over = assert_block_matches_scratch(heads, block.moved_rows, totals, moved, c, design)
                over_moves += n_over > 0
                finite_moves += n_over == 0
            c_prop = c + rng.standard_normal(n)
            rows, n_over = block.move_latent(c_prop)
            assert rows is block.moved_rows
            assert n_over == assert_block_matches_scratch(heads, rows, None, vec, c_prop, design)
    assert finite_moves > 0
    if config.poisson_rate_cap < 1e3:
        assert over_moves > 0


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_keep_accepted_moves_exactly(tiny_dataset, config):
    # random moves accepted for some heads and some rows, as run_chain
    # accepts them: each block's kept terms, running sums, rows and totals
    # stay bitwise those of a block built from scratch at the kept state
    design = Design.from_dataset(tiny_dataset, config)
    n_params, n = len(config.active_param_names()), len(tiny_dataset)
    rng = np.random.default_rng(5)
    vec, c = 0.5 * rng.standard_normal(n_params), rng.standard_normal(n)
    blocks = [HeadTerms(heads, vec, c, design) for heads in BLOCKS]
    for _ in range(40):
        for heads, block in zip(BLOCKS, blocks):
            k = int(rng.integers(len(block.positions)))
            positions = block.positions[k]
            coefs = vec[list(positions)] + rng.standard_normal(len(heads))
            block.move(k, coefs[:, None])
            accepted = [bool(a) for a in rng.random(len(heads)) < 0.6]
            block.accept_heads(accepted)
            for j, keep, v in zip(positions, accepted, coefs):
                if keep:
                    vec[j] = v
        c_prop = c + rng.standard_normal(n)
        for block in blocks:
            block.move_latent(c_prop)
        accept = rng.random(n) < 0.5
        c = np.where(accept, c_prop, c)
        for block in blocks:
            block.accept_rows(accept, c)
        for heads, block in zip(BLOCKS, blocks):
            assert_blocks_equal(block, HeadTerms(heads, vec, c, design))
            assert_block_matches_scratch(heads, block.rows, block.totals(), vec, c, design)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_accept_rows_by_index_or_mask_alike(tiny_dataset, config):
    # run_chain passes accept_rows the accepted rows' indices; a bool mask
    # over the same rows keeps the same block, bit for bit, whether none,
    # some or all rows accept
    design = Design.from_dataset(tiny_dataset, config)
    n_params, n = len(config.active_param_names()), len(tiny_dataset)
    rng = np.random.default_rng(17)
    vec, c = 0.5 * rng.standard_normal(n_params), rng.standard_normal(n)
    c_prop = c + rng.standard_normal(n)
    some = rng.random(n) < 0.5
    assert 0 < np.count_nonzero(some) < n
    for mask in (np.zeros(n, dtype=bool), some, np.ones(n, dtype=bool)):
        kept = np.where(mask, c_prop, c)
        for heads in BLOCKS:
            by_mask, by_index = HeadTerms(heads, vec, c, design), HeadTerms(heads, vec, c, design)
            for block, accepted in ((by_mask, mask), (by_index, np.flatnonzero(mask))):
                block.move_latent(c_prop)
                block.accept_rows(accepted, kept)
            assert_blocks_equal(by_index, by_mask)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_accepts_never_write_the_held_move(tiny_dataset, config):
    # accept_rows and accept_heads write the kept rows in place, so they must
    # only read the held move: the rows (and rates) that move_latent
    # returned, and a coefficient move's rows, are unchanged by the accept
    # that follows, also after a move kept whole became the kept rows
    design = Design.from_dataset(tiny_dataset, config)
    n_params, n = len(config.active_param_names()), len(tiny_dataset)
    rng = np.random.default_rng(23)
    vec, c = 0.5 * rng.standard_normal(n_params), rng.standard_normal(n)
    blocks = [HeadTerms(heads, vec, c, design) for heads in BLOCKS]
    for _ in range(30):
        for heads, block in zip(BLOCKS, blocks):
            k = int(rng.integers(len(block.positions)))
            coefs = vec[list(block.positions[k])] + rng.standard_normal(len(heads))
            block.move(k, coefs[:, None])
            held, before = block.moved_rows, block.moved_rows.copy()
            accepted = [bool(a) for a in rng.random(len(heads)) < 0.6]
            block.accept_heads(accepted)
            assert np.array_equal(held, before)
            for j, keep, v in zip(block.positions[k], accepted, coefs):
                if keep:
                    vec[j] = v
        c_prop = c + rng.standard_normal(n)
        accepted = np.flatnonzero(rng.random(n) < 0.5)
        c = c.copy()
        c[accepted] = c_prop[accepted]
        for block in blocks:
            rows, _ = block.move_latent(c_prop)
            held = [(a, a.copy()) for a in (rows, block._moved_rates) if a is not None]
            block.accept_rows(accepted, c)
            assert all(np.array_equal(a, before) for a, before in held)
    for heads, block in zip(BLOCKS, blocks):
        assert_blocks_equal(block, HeadTerms(heads, vec, c, design))


def test_head_terms_match_head_log_likelihood_across_the_overflow_switch():
    # latent scores out to +-800 under unit, halved and doubled loadings: in
    # some moved states exp(-z) overflows in one head, both or neither, and
    # the block's rows and totals stay bitwise head_log_likelihood's
    c = np.array([-800.0, -360.0, -5.0, 0.0, 2.5, 400.0, 750.0])
    design = logistic_design(c.size)
    heads = (HEAD_JOB, HEAD_HOUSE)
    vec = UNIT_LATENT.copy()
    block = HeadTerms(heads, vec, c, design)
    assert_block_matches_scratch(heads, block.rows, block.totals(), vec, c, design)
    k = block.latent_term
    overflowed = set()
    for coefs in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.5, 0.5), (1.0, -1.0)):
        totals = block.move(k, np.array(coefs)[:, None])
        moved = vec.copy()
        moved[list(block.positions[k])] = coefs
        assert_block_matches_scratch(heads, block.moved_rows, totals, moved, c, design)
        # exp(t) overflows for every t > 710 and for no t < 709.78
        nz = moved[[3, 7]][:, None] * c * block.nsign
        overflowed.add(tuple((nz > 710.0).any(axis=1)))
        assert not ((nz > 709.78) & (nz <= 710.0)).any()
    assert overflowed == {(True, True), (True, False), (False, True), (False, False)}
    for scale in (1.0, 0.5, 2.0):
        c_prop = scale * c[::-1]
        rows, _ = block.move_latent(c_prop)
        assert_block_matches_scratch(heads, rows, None, vec, c_prop, design)


def test_head_terms_need_shared_columns(tiny_dataset, modest_params):
    design = Design.from_dataset(tiny_dataset, ModelConfig())
    with pytest.raises(ValueError):
        HeadTerms((HEAD_JOB, HEAD_CREDIT), modest_params.to_vector(), np.zeros(len(tiny_dataset)), design)


# --- the credit block's bound on a coefficient move ---------------------------

@pytest.mark.parametrize("intercept", [False, True], ids=("no_intercept", "intercept"))
@pytest.mark.parametrize("rows", ["tiny", "synth"])
def test_credit_step_bound_covers_the_engine(tiny_dataset, modest_params, rows, intercept):
    # run_chain rejects a credit step unevaluated when step_bound plus the
    # prior term is below log u, so the bound must be at least the log
    # ratio the engine computes for it: on every credit term, for steps from
    # tiny to far, with rates a few nats under the cap, at kept states that
    # accepted moves; a step the engine finds over the cap must give inf
    if rows == "tiny":
        data = tiny_dataset
    else:  # the synth workload's truth: rates about e^1.8
        data = generate_synthetic(replace(modest_params, b_c=1.8), 400, seed=4)[0]
    n, n_params = len(data), 12 if intercept else 11
    rng = np.random.default_rng(7)
    seen = {"over": 0, "far": 0, "near_cap": 0}
    for gap in (math.inf, 3.0, 0.5):  # nats from the highest rate up to the cap
        vec, c = 0.5 * rng.standard_normal(n_params), rng.standard_normal(n)
        lin = credit_linear(vec, c, Design.from_dataset(data, ModelConfig()))
        cap = 1e7 if gap == math.inf else math.exp(float(lin.max()) + gap)
        design = Design.from_dataset(data, ModelConfig(include_credit_intercept=intercept, poisson_rate_cap=cap))
        block = HeadTerms((HEAD_CREDIT,), vec, c, design)
        for _ in range(40):
            k = int(rng.integers(len(block.positions)))
            (j,) = block.positions[k]
            old = vec[j]
            proposal = old + rng.choice([1e-3, 0.1, 1.0, 4.0]) * rng.standard_normal()
            (total,) = block.move(k, np.array([[proposal]]))
            bound = block.step_bound(k, proposal - old)
            over = total == -math.inf
            if over:
                assert bound == math.inf
                seen["over"] += 1
            else:
                prior = 0.5 * (old * old - proposal * proposal)
                assert bound + prior >= (total - block.totals()[0]) + prior
                column = block.columns[k]
                spread = 1.0 if column is None else float(np.abs(column).max())
                seen["far"] += bound < math.inf and abs(proposal - old) * spread > 2.0
                seen["near_cap"] += bound < math.inf and gap < math.inf
            if rng.random() < 0.3 and not over:
                block.accept_heads([True])
                vec[j] = proposal
            elif rng.random() < 0.3:
                c_prop = c + rng.standard_normal(n)
                rows, _ = block.move_latent(c_prop)
                accept = (rng.random(n) < 0.5) & np.isfinite(rows[0])
                c = np.where(accept, c_prop, c)
                block.accept_rows(accept, c)
    assert all(seen.values()), seen

