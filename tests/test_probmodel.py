"""Parameter containers, the likelihood engine, and the rows the sampler's
state keeps of it.

The engine's per-observation values are checked against scipy: log_expit for
the logistic heads and poisson.logpmf for the credit head. The sampler's
per-head state (sampler._State) is checked against the engine's rows from
scratch.
"""

import copy
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln, log_expit
from scipy.stats import poisson

from faircredit.dataset import Dataset
from faircredit.errors import DataError
from faircredit.probmodel import (
    _EXP_SAFE,
    BASE_PARAM_NAMES,
    HEAD_CREDIT,
    HEAD_HOUSE,
    HEAD_JOB,
    HEAD_TERMS,
    PARAM_NAMES,
    Design,
    ModelConfig,
    ModelParams,
    _credit_rows,
    _softplus_rows,
    _stacked_rows,
    credit_linear,
    head_log_likelihood,
    per_obs_latent_slopes,
    per_obs_log_likelihood,
)
from faircredit.sampler import _State, _Tuning


def one_row(design: Design, i: int) -> Design:
    """Observation i of a design on its own, sliced from the batched arrays."""
    arrays = {f.name: getattr(design, f.name)[i : i + 1] for f in fields(design) if f.name != "cap_log"}
    return replace(design, **arrays)


def columns_design(sex, age, job, house, credit, config=ModelConfig()) -> Design:
    # Design.from_dataset reads the columns alone, so the engine meets a
    # count of 0 here, which no Dataset holds
    data = SimpleNamespace(
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


def test_model_params_kv_round_trip(stamped):
    theta = ModelParams(*np.linspace(-0.9, 0.9, 11), b_c=1.25)
    text = stamped(theta.to_kv_text(), ("written by a test",))
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


def test_log_posterior_rejects_invalid_data(tiny_dataset):
    # a count below zero has no log-factorial; a dataset holding one cannot
    # be built, so neither posterior evaluator, the training chain nor
    # test-time inference, can be handed it
    with pytest.raises(DataError, match="credit must be >= 1"):
        replace(tiny_dataset, credit=np.where(np.arange(len(tiny_dataset)) == 3, -3, 12))


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


def assert_stacked_rows_match_the_head_kernels(pred, design):
    """_stacked_rows at linear predictors pred (3, n) against _softplus_rows
    and _credit_rows on copies, bit for bit, with equal over-cap counts;
    returns the count and whether any nz is past _EXP_SAFE."""
    nsign = np.stack([design.job_nsign, design.house_nsign])
    nz = pred[:2] * nsign
    past = bool((nz > _EXP_SAFE).any())
    soft = _softplus_rows(nz)
    credit, n_over = _credit_rows(pred[2].copy(), design)
    out = np.empty_like(pred)
    assert _stacked_rows(pred.copy(), nsign, design, out) == n_over
    assert np.array_equal(out[:2], soft) and np.array_equal(out[2], credit)
    return n_over, past


def test_stacked_rows_match_the_per_head_kernels(tiny_dataset):
    # the one kernel of the sampler's three heads against the per-head ones:
    # on the fast path, with a logistic nz past 709.78, where exp overflows,
    # with a credit rate over the cap alone, and with both in one evaluation
    design = Design.from_dataset(tiny_dataset, ModelConfig(poisson_rate_cap=80.0))
    nsign = np.stack([design.job_nsign, design.house_nsign])
    n = len(tiny_dataset)
    rng = np.random.default_rng(31)
    kinds = ((False, False), (True, False), (False, True), (True, True))
    for logistic_over, credit_over in kinds:
        for _ in range(5):
            pred = 3.0 * rng.standard_normal((3, n))
            pred[2] = np.minimum(pred[2], design.cap_log)
            h, i, j = rng.integers(2), rng.integers(n), rng.integers(n)
            if logistic_over:
                pred[h, i] = 720.0 * nsign[h, i]  # nz = 720
            if credit_over:
                pred[2, j] = design.cap_log + 0.5
            n_over, past = assert_stacked_rows_match_the_head_kernels(pred, design)
            assert (past, n_over) == (logistic_over, int(credit_over))


# --- the sampler's per-head state --------------------------------------------

# sampler._State keeps each head's rows at its linear predictor, in one
# (3, n) array: the job and house heads' softplus rows, 0 minus
# head_log_likelihood's, and the credit head's rows. Its predictors come from
# one matrix product, whose association is not HEAD_TERMS order, so its rows
# match the engine's within rounding: ROWS_TOL of each row's size, where rows
# of about 100 differ by a few ulp.
TERM_CONFIGS = (
    ModelConfig(),
    ModelConfig(include_credit_intercept=True, credit_scale=5.0),
    ModelConfig(poisson_rate_cap=80.0),  # under twice the largest count, 45
)
TERM_CONFIG_IDS = ("default", "intercept", "rate_cap")
ROWS_TOL = 1e-12


def assert_rows_match_engine(rows, vec, c, design, exact=False):
    """A state's (3, n) rows, softplus then credit, against
    head_log_likelihood's at (vec, c) from scratch, within ROWS_TOL, or bit
    for bit when exact; -inf rows exactly where the engine's are. Returns the
    credit head's overflow count."""
    for kept, head in zip(rows, (HEAD_JOB, HEAD_HOUSE, HEAD_CREDIT)):
        _, n_over, rows = head_log_likelihood(head, vec, c, design)
        want = rows if head == HEAD_CREDIT else 0.0 - rows
        if exact:
            assert np.array_equal(kept, want)
        fine = np.isfinite(want)
        assert np.array_equal(kept[~fine], want[~fine])
        assert np.all(np.abs(kept[fine] - want[fine]) <= ROWS_TOL * (1.0 + np.abs(want[fine])))
    return n_over


def fresh_totals(state):
    """The sums of a state's kept rows, reduced as its cached totals are."""
    return np.add.reduce(state.rows, axis=1).tolist()


def evaluate(state, coefs, X):
    """The heads' rows at coefs and X as the state's steps compute them, in
    a fresh (3, n) array, and the credit head's overflow count."""
    rows = np.empty_like(state.rows)
    return rows, state.evaluate(coefs, X, rows)


def latent_proposal(state, c_prop):
    """The heads' rows at the state's coefficients and latents c_prop, as its
    latent step computes them: a copy of X that differs in row 3 alone."""
    X = state.X.copy()
    X[3] = c_prop
    return evaluate(state, state.coefs, X)


def under_cap_state(design, config, rng):
    """A state at random coefficients and latents whose credit rates are all
    under the cap, as every state the chain keeps is."""
    n_params = len(config.active_param_names())
    while True:
        vec, c = 0.5 * rng.standard_normal(n_params), rng.standard_normal(len(design))
        if credit_linear(vec, c, design).max() <= design.cap_log:
            return _State(design, vec, c)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_moves_match_head_log_likelihood(tiny_dataset, config):
    # from random states: the state's rows, each head's block proposal's
    # rows and a latent proposal's rows match head_log_likelihood's at the
    # moved state, with its overflow counts; the rows kept after every step
    # is accepted and after the scale move and the shifts match it too
    design = Design.from_dataset(tiny_dataset, config)
    n = len(tiny_dataset)
    rng = np.random.default_rng(11)
    over_moves = finite_moves = 0
    for _ in range(10):
        state = under_cap_state(design, config, rng)
        assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)
        tuning = state.tune()
        for _ in range(4):
            z = 3.0 * rng.standard_normal(state.n_block)
            prop = state.coefs + (tuning.factor @ z).reshape(3, 4)
            rows, n_over = evaluate(state, prop, state.X)
            assert n_over == assert_rows_match_engine(rows, prop.take(state.cells), state.X[3], design)
            over_moves += n_over > 0
            finite_moves += n_over == 0
            accepted, errors = state.blocks(tuning, z, [-math.inf] * 3)
            assert accepted == [True, True, not n_over] and errors == (n_over > 0)
            assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)
        c_prop = state.X[3] + rng.standard_normal(n)
        rows, n_over = latent_proposal(state, c_prop)
        assert n_over == assert_rows_match_engine(rows, state.theta(), c_prop, design)
        state.latents(1.0, c_prop - state.X[3], np.full(n, -np.inf))
        assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)
        state.scale(tuning.tau, 0.7, -math.inf)
        state.shifts([0.8, -1.3, 0.4][:len(state.shift_rows)])
        assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)
    assert finite_moves > 0
    if config.poisson_rate_cap < 1e3:
        assert over_moves > 0


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_keep_accepted_moves_exactly(tiny_dataset, config):
    # block and latent steps accepted for some heads and some rows, at random
    # uniforms: each accepted entry keeps its proposal's coefficients, latent
    # and rows bit for bit, each rejected one its own; the scale move and the
    # shifts keep every row; the cached totals are the kept rows' sums
    design = Design.from_dataset(tiny_dataset, config)
    n = len(tiny_dataset)
    rng = np.random.default_rng(5)
    state = under_cap_state(design, config, rng)
    tuning = state.tune()
    heads_kept = rows_kept = 0
    for _ in range(40):
        before = copy.deepcopy(state)
        z = rng.standard_normal(state.n_block)
        prop = state.coefs + (tuning.factor @ z).reshape(3, 4)
        rows, _ = evaluate(state, prop, state.X)
        accepted, _ = state.blocks(tuning, z, np.log(rng.random(3)).tolist())
        for h, keep in enumerate(accepted):
            assert np.array_equal(state.coefs[h], prop[h] if keep else before.coefs[h])
            assert np.array_equal(state.rows[h], rows[h] if keep else before.rows[h])
        heads_kept += sum(accepted)
        assert state.totals() == fresh_totals(state)

        before = copy.deepcopy(state)
        steps = 2.0 * rng.random(n) - 1.0
        rows, _ = latent_proposal(state, state.X[3] + steps * tuning.widths)
        n_acc, _ = state.latents(tuning.widths, steps, np.log(rng.random(n)))
        moved = state.X[3] != before.X[3]
        assert np.count_nonzero(moved) == n_acc
        assert np.array_equal(state.X[3], np.where(moved, before.X[3] + steps * tuning.widths, before.X[3]))
        assert np.array_equal(state.rows, np.where(moved, rows, before.rows))
        assert np.array_equal(state.coefs, before.coefs)
        rows_kept += n_acc
        assert state.totals() == fresh_totals(state)

        before = copy.deepcopy(state)
        state.scale(tuning.tau, rng.standard_normal(), math.log(rng.random()))
        state.shifts(rng.standard_normal(len(state.shift_rows)).tolist())
        assert np.array_equal(state.rows, before.rows)
        assert state.totals() == fresh_totals(state)
    assert 0 < heads_kept < 3 * 40 and 0 < rows_kept < n * 40
    assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_accept_rows_by_index_or_mask_alike(tiny_dataset, config):
    # the latent step merges the accepted rows in by index; a bool mask over
    # the same rows, np.where's merge, keeps the same state bit for bit,
    # whether none, some or all rows accept
    design = Design.from_dataset(tiny_dataset, config)
    n = len(tiny_dataset)
    rng = np.random.default_rng(17)
    state = under_cap_state(design, config, rng)
    steps = 2.0 * rng.random(n) - 1.0
    c_prop = state.X[3] + steps * 0.5
    rows, n_over = latent_proposal(state, c_prop)
    assert n_over == 0
    some = rng.random(n) < 0.5
    assert 0 < np.count_nonzero(some) < n
    for mask in (np.zeros(n, dtype=bool), some, np.ones(n, dtype=bool)):
        by_index = copy.deepcopy(state)
        n_acc, _ = by_index.latents(0.5, steps, np.where(mask, -np.inf, np.inf))
        assert n_acc == np.count_nonzero(mask)
        assert np.array_equal(by_index.X, np.where(mask, np.stack([*state.X[:3], c_prop]), state.X))
        assert np.array_equal(by_index.rows, np.where(mask, rows, state.rows))
        assert np.array_equal(by_index.coefs, state.coefs)
        assert by_index.totals() == fresh_totals(by_index)


@pytest.mark.parametrize("config", TERM_CONFIGS, ids=TERM_CONFIG_IDS)
def test_head_terms_accepts_never_write_the_held_move(tiny_dataset, config):
    # the steps write the kept rows and latents in place, so they must only
    # read the move they hold: every evaluation writes the spare buffer,
    # never the kept rows, also after a block accepted by all three heads
    # made the spare the kept rows; the rows it wrote are unchanged by the
    # accept that follows; and the latent proposal's X still holds the
    # proposed latents in row 3 and X's other rows
    design = Design.from_dataset(tiny_dataset, config)
    n = len(tiny_dataset)
    rng = np.random.default_rng(23)
    state = under_cap_state(design, config, rng)
    tuning = state.tune()
    held = []

    def recording(coefs, X, out):
        assert out is not state.rows
        n_over = _State.evaluate(state, coefs, X, out)
        held.append((out, out.copy()))
        return n_over

    state.evaluate = recording
    swaps = 0
    for i in range(30):
        held.clear()
        kept = state.rows
        # every third block step at log u = -inf, which all three heads accept
        log_u = [-math.inf] * 3 if i % 3 == 0 else np.log(rng.random(3)).tolist()
        state.blocks(tuning, rng.standard_normal(state.n_block), log_u)
        assert len(held) == 1 and np.array_equal(*held[0])
        swaps += state.rows is not kept
        held.clear()
        steps = 2.0 * rng.random(n) - 1.0
        proposed = state.X[3] + steps * tuning.widths
        state.latents(tuning.widths, steps, np.log(rng.random(n)))
        assert len(held) == 1 and np.array_equal(*held[0])
        assert np.array_equal(state._proposal[3], proposed)
        assert np.array_equal(state._proposal[:3], state.X[:3])
        state.scale(tuning.tau, rng.standard_normal(), math.log(rng.random()))
        state.shifts(rng.standard_normal(len(state.shift_rows)).tolist())
    assert swaps > 0
    assert_rows_match_engine(state.rows, state.theta(), state.X[3], design)


def test_head_terms_match_head_log_likelihood_across_the_overflow_switch():
    # latent scores out to +-800 under unit, halved and doubled loadings: in
    # some states exp(nz) overflows in one head, both or neither. Only the
    # latent coefficients are nonzero, so the predictors are exact and the
    # state's rows are bitwise head_log_likelihood's (0 minus), nz itself
    # where exp(nz) overflows, with finite totals; no step warns
    c = np.array([-800.0, -360.0, -5.0, 0.0, 2.5, 400.0, 750.0])
    design = logistic_design(c.size)
    state = _State(design, UNIT_LATENT.copy(), c.copy())
    # block normals 0 and 4 move the job and house loadings by themselves
    factor = np.zeros((12, state.n_block))
    factor[3, 0] = factor[7, 4] = 1.0
    tuning = _Tuning(factor, 0.0, 1.0)

    def check():
        vec, c = state.theta(), state.X[3]
        assert_rows_match_engine(state.rows, vec, c, design, exact=True)
        for h in (HEAD_JOB, HEAD_HOUSE):
            assert -state.totals()[h] == head_log_likelihood(h, vec, c, design)[0]
        nz = state.coefs[:2, 3:] * c * state.nsign
        # exp(t) overflows for every t > 710 and for no t < 709.78
        over = nz > 710.0
        assert not ((nz > 709.78) & ~over).any()
        return tuple(over.any(axis=1).tolist())

    overflowed = {check()}
    for loads in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.5, 0.5), (1.0, -1.0)):
        z = np.zeros(state.n_block)
        z[0], z[4] = loads[0] - state.coefs[0, 3], loads[1] - state.coefs[1, 3]
        assert state.blocks(tuning, z, [-math.inf] * 3)[0][:2] == [True, True]
        overflowed.add(check())
    for scale in (1.0, 0.5, 2.0):
        c_prop = scale * c[::-1]
        # the ratios are finite, so every row accepts at log u = -inf
        assert state.latents(1.0, c_prop - state.X[3], np.full(c.size, -np.inf))[0] == c.size
        assert np.array_equal(state.X[3], c_prop)
        overflowed.add(check())
    assert overflowed == {(True, True), (True, False), (False, True), (False, False)}


def test_head_terms_need_shared_columns(tiny_dataset):
    # the shifts move c along a column x and every head's coefficient of x
    # against it, so they need the columns that all three heads carry:
    # sex and age, and the intercept when b_c is on. Each moves c and those
    # coefficients and leaves every head's predictor
    for config in (ModelConfig(), ModelConfig(include_credit_intercept=True)):
        design = Design.from_dataset(tiny_dataset, config)
        n_params = len(config.active_param_names())
        carried = [{name for pos, name in terms if pos < n_params} for terms in HEAD_TERMS]
        shared = set.intersection(*carried) - {"c"}
        rows = {"one": 0, "sex": 1, "age": 2}
        state = under_cap_state(design, config, np.random.default_rng(29))
        assert sorted(state.shift_rows) == sorted(rows[name] for name in shared)
        before = copy.deepcopy(state)
        state.shifts([0.8, -1.3, 0.4][:len(state.shift_rows)])
        assert not np.array_equal(state.X[3], before.X[3])
        for r in state.shift_rows:
            assert (state.coefs[:, r] != before.coefs[:, r]).all()
        untouched = [r for r in range(3) if r not in state.shift_rows]
        assert np.array_equal(state.coefs[:, untouched], before.coefs[:, untouched])
        pred, want = state.coefs @ state.X, before.coefs @ before.X
        assert np.allclose(pred, want, rtol=1e-12, atol=1e-12)
