"""Sampler kernels, the full chain driver, and chain file io.

The central test here re-runs the Gibbs sweep one step at a time with a
reference written in this file: each parameter step compares two
head_log_likelihood sums, and each latent step is mh_step_scalar on a one-row
slice of per_obs_log_likelihood. It consumes the same derived streams, and the
vectorized run_chain must reproduce it bit for bit, including the burn-in
adaptation bookkeeping.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from faircredit.dataset import Dataset
from faircredit.errors import DataError, SamplerError
from faircredit.probmodel import (
    LOG_2PI,
    PARAM_HEAD,
    Design,
    ModelConfig,
    head_log_likelihood,
    per_obs_log_likelihood,
)
from faircredit.sampler import (
    ADAPT_EVERY,
    ADAPT_FACTOR,
    Chain,
    SamplerConfig,
    export_chain,
    infer_latent,
    infer_latents,
    mh_step_scalar,
    read_param_chain_csv,
    run_chain,
)
from faircredit.util import STREAM_PARAMS, STREAM_TRAIN_LATENT, derive_rng


# --- config ------------------------------------------------------------------

def test_sampler_config_validate():
    SamplerConfig().validate()
    for bad in (
        SamplerConfig(iterations=0),
        SamplerConfig(iterations=10, burn_in=10),
        SamplerConfig(burn_in=-1),
        SamplerConfig(thin=0),
        SamplerConfig(delta=0.0),
        SamplerConfig(param_step=-0.1),
        SamplerConfig(target_accept=1.0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_n_draws_arithmetic():
    assert SamplerConfig(iterations=30, burn_in=10, thin=4).n_draws() == 5
    assert SamplerConfig(iterations=5000, burn_in=1000, thin=1).n_draws() == 4000


# --- scalar kernel -----------------------------------------------------------

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


# --- the bitwise reference sweep ----------------------------------------------

def one_row(design: Design, i: int) -> Design:
    """Observation i of a design on its own, sliced from the batched arrays."""
    arrays = {f.name: getattr(design, f.name)[i : i + 1] for f in fields(design) if f.name != "cap_log"}
    return replace(design, **arrays)


def reference_chain(data, model_config, cfg):
    """One-step-at-a-time restatement of run_chain, same streams, same bookkeeping."""
    names = model_config.active_param_names()
    n = len(data)
    design = Design.from_dataset(data, model_config)
    rows = [one_row(design, i) for i in range(n)]
    theta = np.zeros(len(names))
    c = np.zeros(n)
    delta, step = cfg.delta, cfg.param_step
    param_rng = derive_rng(cfg.seed, STREAM_PARAMS, 0)
    latent_rngs = [derive_rng(cfg.seed, STREAM_TRAIN_LATENT, i) for i in range(n)]

    post_sweeps = cfg.iterations - cfg.burn_in
    acc_param = np.zeros(len(names))
    acc_latent = 0
    wp_acc = wp_tot = wl_acc = wl_tot = 0
    draws_p, draws_c = [], []

    def latent_target(i):
        def target(v: float) -> float:
            ll, n_over = per_obs_log_likelihood(theta, np.array([v]), rows[i])
            return float("-inf") if n_over else float(ll[0] - 0.5 * (LOG_2PI + v * v))

        return target

    for sweep in range(1, cfg.iterations + 1):
        post = sweep > cfg.burn_in
        for j in range(len(names)):
            # normal proposal on coordinate j; only its head enters the ratio
            z = param_rng.standard_normal()
            u_acc = param_rng.random()
            old = theta[j]
            proposal = old + step * z
            moved = theta.copy()
            moved[j] = proposal
            current, _ = head_log_likelihood(PARAM_HEAD[j], theta, c, design)
            new, n_over = head_log_likelihood(PARAM_HEAD[j], moved, c, design)
            assert n_over == 0
            log_r = (new - current) + 0.5 * (old * old - proposal * proposal)
            wp_tot += 1
            if log_r >= 0.0 or (u_acc > 0.0 and math.log(u_acc) < log_r):
                theta = moved
                wp_acc += 1
                if post:
                    acc_param[j] += 1
        for i in range(n):
            c[i], accepted, _ = mh_step_scalar(c[i], latent_target(i), delta, latent_rngs[i])
            wl_tot += 1
            if accepted:
                wl_acc += 1
                if post:
                    acc_latent += 1
        if sweep % ADAPT_EVERY == 0 and cfg.adapt_during_burn_in and sweep <= cfg.burn_in:
            if wl_tot:
                rate = wl_acc / wl_tot
                delta = delta * ADAPT_FACTOR if rate > cfg.target_accept else delta / ADAPT_FACTOR
            if wp_tot:
                rate = wp_acc / wp_tot
                step = step * ADAPT_FACTOR if rate > cfg.target_accept else step / ADAPT_FACTOR
            wp_acc = wp_tot = wl_acc = wl_tot = 0
        if post and (sweep - cfg.burn_in) % cfg.thin == 0:
            draws_p.append(theta.copy())
            draws_c.append(c.copy())

    return (
        np.array(draws_p),
        np.array(draws_c),
        acc_param / post_sweeps,
        acc_latent / (n * post_sweeps),
        delta,
        step,
    )


def assert_chain_matches_reference(data, model_config, cfg):
    chain = run_chain(data, model_config, cfg)
    params, latents, acc_p, acc_l, delta, step = reference_chain(data, model_config, cfg)
    assert chain.n_likelihood_errors == 0
    assert np.array_equal(chain.param_draws, params)
    assert np.array_equal(chain.latent_draws, latents)
    assert np.array_equal(chain.accept_rate_params, acc_p)
    assert chain.accept_rate_latents == acc_l
    assert chain.final_delta == delta
    assert chain.final_param_step == step


def test_run_chain_matches_scalar_kernels_bitwise(tiny_dataset):
    # crosses one adaptation event at sweep 100
    cfg = SamplerConfig(iterations=120, burn_in=100, thin=2, seed=3)
    assert_chain_matches_reference(tiny_dataset, ModelConfig(), cfg)


def test_run_chain_matches_scalar_kernels_with_intercept(tiny_dataset):
    # 12th coordinate active, no adaptation, thin 1
    cfg = SamplerConfig(iterations=60, burn_in=20, thin=1, adapt_during_burn_in=False, seed=8)
    mc = ModelConfig(include_credit_intercept=True, credit_scale=5.0)
    assert_chain_matches_reference(tiny_dataset, mc, cfg)


# --- chain driver behavior -----------------------------------------------------

def test_run_chain_is_deterministic(tiny_dataset, short_sampler_config):
    a = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    b = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    assert np.array_equal(a.param_draws, b.param_draws)
    assert np.array_equal(a.latent_draws, b.latent_draws)


def test_run_chain_seed_changes_draws(tiny_dataset, short_sampler_config):
    a = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    other = SamplerConfig(iterations=300, burn_in=100, thin=2, seed=6)
    b = run_chain(tiny_dataset, ModelConfig(), other)
    assert not np.array_equal(a.param_draws, b.param_draws)


def test_run_chain_shapes_and_names(tiny_dataset):
    cfg = SamplerConfig(iterations=30, burn_in=10, thin=4, seed=0)
    chain = run_chain(tiny_dataset, ModelConfig(), cfg)
    assert chain.n_draws() == 5
    assert chain.param_draws.shape == (5, 11)
    assert chain.latent_draws.shape == (5, len(tiny_dataset))
    assert chain.param_names == ModelConfig().active_param_names()
    med = chain.theta_median()
    assert med.b_c is None


def test_run_chain_adaptation_freezes_after_burn_in(tiny_dataset):
    frozen = SamplerConfig(iterations=250, burn_in=150, adapt_during_burn_in=False, seed=2)
    chain = run_chain(tiny_dataset, ModelConfig(), frozen)
    assert chain.final_delta == frozen.delta
    assert chain.final_param_step == frozen.param_step

    adapting = SamplerConfig(iterations=250, burn_in=150, adapt_during_burn_in=True, seed=2)
    chain2 = run_chain(tiny_dataset, ModelConfig(), adapting)
    # one rescale fired at sweep 100; widths moved by exactly one factor of 1.1
    assert chain2.final_delta in (
        pytest.approx(adapting.delta * ADAPT_FACTOR),
        pytest.approx(adapting.delta / ADAPT_FACTOR),
    )


def test_run_chain_aborts_on_persistent_likelihood_errors(tiny_dataset):
    # a cap below exp(0) makes every credit evaluation overflow
    mc = ModelConfig(poisson_rate_cap=1e-6)
    cfg = SamplerConfig(iterations=100, burn_in=0, adapt_during_burn_in=False, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SamplerError, match="likelihood errors"):
            run_chain(tiny_dataset, mc, cfg)


# --- fixed-parameter latent inference ------------------------------------------

def test_infer_latent_deterministic_and_stream_separated(tiny_dataset, modest_params):
    cfg = SamplerConfig(iterations=400, burn_in=100, seed=4)
    obs = tiny_dataset.observation(2)
    a = infer_latent(modest_params, obs, ModelConfig(), cfg, include_credit=True, stream_index=1)
    b = infer_latent(modest_params, obs, ModelConfig(), cfg, include_credit=True, stream_index=1)
    assert np.array_equal(a.draws, b.draws)
    c = infer_latent(modest_params, obs, ModelConfig(), cfg, include_credit=True, stream_index=2)
    assert not np.array_equal(a.draws, c.draws)
    assert 0.0 < a.accept_rate < 1.0
    assert a.draws.shape == (cfg.n_draws(),)


def test_infer_latent_test_excludes_credit(tiny_dataset, modest_params):
    # the test-time mode must not read the credit amount at all
    cfg = SamplerConfig(iterations=400, burn_in=100, seed=4)
    obs = tiny_dataset.observation(5)
    honest = infer_latent(modest_params, obs, ModelConfig(), cfg, include_credit=False)
    richer = replace(obs, credit=obs.credit * 40)
    same = infer_latent(modest_params, richer, ModelConfig(), cfg, include_credit=False)
    assert np.array_equal(honest.draws, same.draws)
    conditioned = infer_latent(modest_params, obs, ModelConfig(), cfg, include_credit=True)
    assert not np.array_equal(honest.draws, conditioned.draws)


def test_infer_latent_conditioning_pulls_toward_credit(modest_params):
    # high credit at positive beta_c_c should raise the inferred score
    from faircredit.dataset import Observation

    cfg = SamplerConfig(iterations=3000, burn_in=500, seed=0)
    rich = Observation(sex=1, age_std=0.0, job=1, house=1, credit=60)
    with_credit = infer_latent(modest_params, rich, ModelConfig(), cfg, include_credit=True)
    without = infer_latent(modest_params, rich, ModelConfig(), cfg, include_credit=False)
    assert with_credit.mean > without.mean


# --- batched test-time inference -------------------------------------------------

BATCH_CASES = {
    "default": (ModelConfig(), SamplerConfig(iterations=600, burn_in=200, seed=4)),
    "intercept": (
        ModelConfig(include_credit_intercept=True, credit_scale=5.0),
        SamplerConfig(iterations=600, burn_in=200, seed=4),
    ),
    "thin": (
        ModelConfig(), SamplerConfig(iterations=700, burn_in=300, thin=3, target_accept=0.8, seed=9)
    ),
    "no_adapt": (
        ModelConfig(), SamplerConfig(iterations=500, burn_in=100, adapt_during_burn_in=False)
    ),
}


@pytest.mark.parametrize("include_credit", [False, True], ids=["honest", "leaky"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_infer_latents_matches_infer_latent(tiny_dataset, modest_params, case, include_credit):
    model_config, cfg = BATCH_CASES[case]
    theta = modest_params.replace(b_c=-0.4)
    batch = infer_latents(theta, tiny_dataset, model_config, cfg, include_credit)
    for i in range(len(tiny_dataset)):
        one = infer_latent(
            theta, tiny_dataset.observation(i), model_config, cfg, include_credit, stream_index=i
        )
        assert abs(batch.mean[i] - one.mean) <= 1e-12
        assert abs(batch.median[i] - one.median) <= 1e-12
        assert abs(batch.std[i] - one.std) <= 1e-12
        assert batch.accept_rate[i] == one.accept_rate


def test_infer_latents_rejects_proposals_over_the_rate_cap(modest_params):
    # a leaky row whose posterior presses against a rate cap of exp(2.5)
    data = Dataset(
        sex=np.array([1]), age_std=np.array([0.3]), job=np.array([1]),
        house=np.array([1]), credit=np.array([60]),
    )
    model_config = ModelConfig(poisson_rate_cap=math.exp(2.5))
    cfg = SamplerConfig(iterations=2000, burn_in=500, seed=1)
    one = infer_latent(modest_params, data.observation(0), model_config, cfg, True)
    batch = infer_latents(modest_params, data, model_config, cfg, include_credit=True)
    # the walk sits against the cap, so proposals cross it and are rejected
    lin = (
        modest_params.beta_c_s + 0.3 * modest_params.beta_c_a
        + one.draws * modest_params.beta_c_c
    )
    cap_log = math.log(model_config.poisson_rate_cap)
    assert lin.max() <= cap_log
    assert cap_log - lin.max() < 0.01
    assert abs(batch.mean[0] - one.mean) <= 1e-12
    assert abs(batch.median[0] - one.median) <= 1e-12
    assert abs(batch.std[0] - one.std) <= 1e-12
    assert batch.accept_rate[0] == one.accept_rate


def test_infer_latents_rows_do_not_interact(tiny_dataset, modest_params):
    # row i always runs on stream i and adapts its own width: a prefix slice,
    # or other rows changed, must leave a row's results bit-identical. The
    # target splits the rows' window rates, so widths move apart.
    cfg = SamplerConfig(iterations=800, burn_in=400, target_accept=0.8, seed=3)
    for include_credit in (False, True):
        full = infer_latents(modest_params, tiny_dataset, ModelConfig(), cfg, include_credit)
        for k in (1, 5, 11):
            part = infer_latents(
                modest_params, tiny_dataset.subset(np.arange(k)), ModelConfig(), cfg,
                include_credit,
            )
            for name in ("mean", "median", "std", "accept_rate"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[:k]), (k, name)
        keep = np.arange(6)
        changed = replace(
            tiny_dataset,
            sex=np.r_[tiny_dataset.sex[keep], 1 - tiny_dataset.sex[6:]],
            credit=np.r_[tiny_dataset.credit[keep], tiny_dataset.credit[6:] * 7],
        )
        other = infer_latents(modest_params, changed, ModelConfig(), cfg, include_credit)
        for name in ("mean", "median", "std", "accept_rate"):
            assert np.array_equal(getattr(other, name)[keep], getattr(full, name)[keep]), name
        assert not np.array_equal(other.mean[6:], full.mean[6:])


# --- chain file io ---------------------------------------------------------------

def test_export_and_read_chain_round_trip(tmp_path, tiny_dataset, short_sampler_config):
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    paths = export_chain(chain, str(tmp_path), header_lines=("config_hash=feed",))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["params.csv", "latents.csv"]
    for p in paths:
        assert open(p).readline() == "# config_hash=feed\n"
    names, draws = read_param_chain_csv(paths[0])
    assert names == chain.param_names
    assert np.array_equal(draws, chain.param_draws)


def test_export_chain_latent_subset(tmp_path, tiny_dataset, short_sampler_config):
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    export_chain(chain, str(tmp_path), latent_indices=[0, 7])
    header = open(tmp_path / "latents.csv").readline().strip()
    assert header == "draw,c_0,c_7"
    with pytest.raises(ValueError, match="out of range"):
        export_chain(chain, str(tmp_path), latent_indices=[99])


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
