"""End-to-end acceptance gate.

Nine numbered checks, each printing one PASS/FAIL line with its measured
numbers before asserting. The expensive real-data fits share module fixtures;
everything is fixed-seed, so the measurements are reproducible bit for bit.

Set FAIRCREDIT_GERMAN_CSV to point the real-data checks at a different file
with the same column layout.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from faircredit.cli import main
from faircredit.dataset import (
    Dataset,
    SplitSpec,
    generate_synthetic,
    load_csv,
    preprocess,
    split,
)
from faircredit.diagnostics import autocorrelation, ess_bulk, summarize, summary_to_csv_text
from faircredit.evaluation import _flip_gap, _predictions, compare_models, flip_age, flip_sex
from faircredit.predictors import (
    FairModel,
    ForestConfig,
    fair_latent_points,
    fit_forest,
    fit_full,
    fit_ols,
    fit_unaware,
    predict_fair,
    predict_forest,
)
from faircredit.probmodel import ModelConfig, ModelParams
from faircredit.sampler import SamplerConfig, infer_latent, run_chain
from faircredit.util import derive_rng
from scalar_kernel import mh_step_scalar

DATA_PATH = os.environ.get("FAIRCREDIT_GERMAN_CSV") or str(
    Path(__file__).resolve().parents[1] / "data" / "german_synthetic.csv"
)

PAPER_MODEL = ModelConfig(include_credit_intercept=False, credit_scale=1.0)
PAPER_SAMPLER = SamplerConfig(
    iterations=5000,
    burn_in=1000,
    thin=1,
    delta=0.5,
    param_step=0.1,
    adapt_during_burn_in=False,
    target_accept=0.35,
    seed=0,
)


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, desc: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def german_splits() -> tuple[Dataset, Dataset]:
    data = preprocess(load_csv(DATA_PATH))
    return split(data, SplitSpec(train_count=800, seed=0))


def test_criterion_1_conjugate_posterior(report):
    # y ~ N(c, 1) with a standard normal prior on c: posterior is N(y/2, 1/2)
    t0 = time.monotonic()
    y = 1.3
    true_mean, true_var = y / 2.0, 0.5

    def log_target(c: float) -> float:
        return -0.5 * (y - c) ** 2 - 0.5 * c * c

    rng = derive_rng(7, 0, 0)
    c = 0.0
    steps, burn = 50000, 1000
    draws = np.empty(steps - burn)
    for s in range(1, steps + 1):
        c, _, _ = mh_step_scalar(c, log_target, 1.2, rng)
        if s > burn:
            draws[s - burn - 1] = c
    ess = ess_bulk(draws)
    mean, var = float(draws.mean()), float(draws.var(ddof=1))
    mcse_mean = float(draws.std(ddof=1)) / math.sqrt(ess)
    mcse_var = var * math.sqrt(2.0 / ess)
    elapsed = time.monotonic() - t0

    err_mean, err_var = abs(mean - true_mean), abs(var - true_var)
    ok = err_mean < 3 * mcse_mean and err_var < 3 * mcse_var and elapsed < 10
    report(
        1,
        ok,
        f"conjugate posterior: |mean err| {err_mean:.4f} < {3 * mcse_mean:.4f}, "
        f"|var err| {err_var:.4f} < {3 * mcse_var:.4f} (3 MCSE, ess {ess:.0f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_quadrature_oracle(report):
    t0 = time.monotonic()
    mc = ModelConfig()
    grid = np.linspace(-10.0, 10.0, 2001)
    worst_mean = worst_std = 0.0
    for s in range(5):
        r = np.random.default_rng(1000 + s)
        theta = ModelParams(*r.uniform(-1.0, 1.0, 11))
        sex, age = int(r.integers(0, 2)), float(r.standard_normal())
        job, house = int(r.integers(0, 2)), int(r.integers(0, 2))
        row = Dataset(
            sex=np.array([sex]), age_std=np.array([age]), job=np.array([job]),
            house=np.array([house]), credit=np.array([10]),
        )
        # prediction-protocol posterior: both binary heads plus the prior
        xj = (theta.b_j + sex * theta.beta_j_s + age * theta.beta_j_a
              + grid * theta.beta_j_c) * (2 * job - 1)
        xh = (theta.b_h + sex * theta.beta_h_s + age * theta.beta_h_a
              + grid * theta.beta_h_c) * (2 * house - 1)
        logw = -np.logaddexp(0.0, -xj) - np.logaddexp(0.0, -xh) - 0.5 * grid**2
        w = np.exp(logw - logw.max())
        z = np.trapezoid(w, grid)
        q_mean = np.trapezoid(grid * w, grid) / z
        q_std = math.sqrt(np.trapezoid(grid**2 * w, grid) / z - q_mean**2)

        post = infer_latent(theta, row, mc, include_credit=False)
        worst_mean = max(worst_mean, abs(post.mean[0] - q_mean))
        worst_std = max(worst_std, abs(post.std[0] - q_std))
    elapsed = time.monotonic() - t0

    ok = worst_mean <= 1e-9 and worst_std <= 1e-9 and elapsed < 30
    report(
        2,
        ok,
        f"quadrature oracle over 5 settings: worst |mean err| {worst_mean:.2e}, "
        f"worst |std err| {worst_std:.2e} (tolerance 1e-9), {elapsed:.1f}s",
    )


def test_criterion_3_parameter_recovery(report):
    t0 = time.monotonic()
    truth = ModelParams(
        b_j=0.4, beta_j_s=0.7, beta_j_a=-0.5, beta_j_c=0.9,
        b_h=-0.3, beta_h_s=0.5, beta_h_a=0.8, beta_h_c=1.1,
        beta_c_s=0.35, beta_c_a=-0.25, beta_c_c=0.6, b_c=1.8,
    )
    data, true_c = generate_synthetic(truth, 800, 101)
    mc = ModelConfig(include_credit_intercept=True)
    chain = run_chain(data, mc, SamplerConfig(seed=1))
    medians = chain.theta_median().to_vector(include_credit_intercept=True)
    truth_vec = np.array([getattr(truth, name) for name in chain.param_names])
    max_err = float(np.max(np.abs(medians - truth_vec)))
    corr = float(np.corrcoef(chain.latent_mean, true_c)[0, 1])
    elapsed = time.monotonic() - t0

    ok = max_err < 0.5 and corr > 0.3 and elapsed < 600
    report(
        3,
        ok,
        f"synthetic recovery (n=800, 12 parameters): max |median - truth| "
        f"{max_err:.3f} < 0.5, latent corr {corr:.3f} > 0.3, {elapsed:.0f}s",
    )


def test_criterion_4_real_data_score_bands(report, german_splits):
    train, test = german_splits
    rep = compare_models(
        train,
        test,
        PAPER_MODEL,
        PAPER_SAMPLER,
        ForestConfig(n_trees=200, max_depth=6, min_leaf=5, seed=0),
        split_seed=0,
    )
    m = rep.metrics
    full_tr = m["full"]["train_r2"]
    unaware_tr = m["unaware"]["train_r2"]
    fair_tr = m["fair"]["train_r2"]
    table = rep.to_text_table()
    csv_text = rep.to_csv_text()
    both_protocols = (
        "honest (credit excluded" in table
        and "leaky" in table
        and "fair_test_r2_honest=" in csv_text
        and "fair_test_r2_leaky=" in csv_text
    )
    ok = (
        full_tr > unaware_tr
        and 0.45 <= full_tr <= 0.75
        and 0.30 <= unaware_tr <= 0.60
        and fair_tr > unaware_tr
        and both_protocols
    )
    report(
        4,
        ok,
        f"real-data bands: full train R2 {full_tr:.3f} in [0.45, 0.75] and > "
        f"unaware {unaware_tr:.3f} in [0.30, 0.60]; fair train R2 {fair_tr:.3f} > "
        f"unaware; both leak protocols reported "
        f"(honest {rep.fair_test_r2_honest:.3f}, leaky {rep.fair_test_r2_leaky:.3f})",
    )


def test_criterion_5_real_data_chain_quality(report, german_splits):
    train, _ = german_splits
    chain = run_chain(
        train,
        ModelConfig(include_credit_intercept=False, credit_scale=25.0),
        SamplerConfig(
            iterations=150000,
            burn_in=2000,
            thin=15,
            delta=0.5,
            param_step=0.1,
            adapt_during_burn_in=True,
            target_accept=0.35,
            seed=11,
        ),
    )
    rows = summarize(chain)
    header = summary_to_csv_text(rows).splitlines()[0]
    columns_ok = header == "name,std,q05,median,q95,ess_bulk,ess_tail"
    n_params_ok = len(rows) == 11

    worst_ess = min(row.ess_bulk for row in rows)
    worst_rho = max(
        abs(float(autocorrelation(chain.param_draws[:, j], max_lag=100)[100]))
        for j in range(len(chain.param_names))
    )
    ok = columns_ok and n_params_ok and worst_ess > 100 and worst_rho < 0.5
    report(
        5,
        ok,
        f"summary table: exact columns for {len(rows)} parameters, worst ess_bulk "
        f"{worst_ess:.0f} > 100, worst |rho(100)| {worst_rho:.3f} < 0.5 "
        f"({chain.n_draws()} stored draws)",
    )


def test_criterion_6_fairness_invariants(report):
    truth = ModelParams(
        b_j=0.4, beta_j_s=0.7, beta_j_a=-0.5, beta_j_c=0.9,
        b_h=-0.3, beta_h_s=0.5, beta_h_a=0.8, beta_h_c=1.1,
        beta_c_s=0.35, beta_c_a=-0.25, beta_c_c=0.6, b_c=1.8,
    )
    data, _ = generate_synthetic(truth, 120, 7)
    full = fit_full(data)
    unaware = fit_unaware(data)

    # the gaps compare_models reports: mean absolute prediction change
    base_unaware = _predictions(unaware, data)
    gap_sex_unaware = _flip_gap(unaware, flip_sex(data), base_unaware)
    gap_age_unaware = _flip_gap(unaware, flip_age(data), base_unaware)
    unaware_exact = gap_sex_unaware == 0.0 and gap_age_unaware == 0.0

    gap_sex_full = _flip_gap(full, flip_sex(data), _predictions(full, data))
    sex_coef = full.coefficients[full.feature_names.index("sex")]
    full_matches_coef = abs(gap_sex_full - abs(sex_coef)) < 1e-10

    # second stage sees only the latent score: with the protected-attribute
    # coefficients zeroed, flipping sex or mirroring age must not change a
    # single bit of the inferred latent points, the fair prediction must be
    # the forest evaluated at exactly those points, and so the prediction
    # itself cannot move either
    r = np.random.default_rng(3)
    c_fit = r.standard_normal(80)
    y_fit = 2.0 * c_fit + 0.1 * r.standard_normal(80)
    forest = fit_forest(c_fit, y_fit, ForestConfig(n_trees=15, max_depth=4, min_leaf=3, seed=2))

    neutral = ModelParams(
        b_j=0.3, beta_j_s=0.0, beta_j_a=0.0, beta_j_c=0.8,
        b_h=-0.2, beta_h_s=0.0, beta_h_a=0.0, beta_h_c=0.6,
        beta_c_s=0.0, beta_c_a=0.0, beta_c_c=0.5,
    )
    fair = FairModel(
        theta_hat=neutral,
        forest=forest,
        model_config=ModelConfig(),
        latent_point="mean",
    )
    subset = data.subset(range(25))
    flipped = (flip_sex(subset), flip_age(subset, mode="mirror"))
    points = fair_latent_points(fair, subset)
    latents_same = all(np.array_equal(points, fair_latent_points(fair, d)) for d in flipped)
    base = predict_fair(fair, subset)
    stage2_same = np.array_equal(base, predict_forest(forest, points))
    bit_identical = all(np.array_equal(base, predict_fair(fair, d)) for d in flipped)

    ok = unaware_exact and full_matches_coef and latents_same and stage2_same and bit_identical
    report(
        6,
        ok,
        f"fairness invariants: unaware gaps sex={gap_sex_unaware} age={gap_age_unaware} "
        f"(exactly 0), full sex gap {gap_sex_full:.6f} == |coef| {abs(sex_coef):.6f} "
        f"within 1e-10, latent points bit-identical under sex/age flips: {latents_same}, "
        f"fair predictions == forest at those points: {stage2_same}, "
        f"fair predictions bit-identical under sex/age flips: {bit_identical}",
    )


def test_criterion_7_ess_estimator_bands(report):
    phi, n = 0.9, 4000
    ar_vals, iid_vals = [], []
    rho0 = None
    for seed in (0, 1, 2):
        r = np.random.default_rng(seed)
        innov = r.standard_normal(n)
        x = np.empty(n)
        x[0] = innov[0] / math.sqrt(1.0 - phi * phi)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + innov[i]
        ar_vals.append(ess_bulk(x))
        iid_vals.append(ess_bulk(np.random.default_rng(100 + seed).standard_normal(n)))
        if seed == 0:
            rho0 = float(autocorrelation(x, max_lag=10)[0])

    ar_ok = all(100 <= v <= 400 for v in ar_vals)
    iid_ok = all(2800 <= v <= 4000 for v in iid_vals)
    ok = ar_ok and iid_ok and rho0 == 1.0
    report(
        7,
        ok,
        f"ESS estimator: AR(1) phi=0.9 ESS {[f'{v:.0f}' for v in ar_vals]} in "
        f"[100, 400], iid ESS {[f'{v:.0f}' for v in iid_vals]} in [2800, 4000], "
        f"rho[0] == 1.0 exactly: {rho0 == 1.0}",
    )


def test_criterion_8_pipeline_determinism(report, tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.kv"
    config.write_text(
        f"data.path = {DATA_PATH}\n"
        "split.train_count = 800\n"
        "split.seed = 0\n"
        "sampler.iterations = 400\n"
        "sampler.burn_in = 100\n"
        "sampler.thin = 2\n"
        "forest.n_trees = 20\n"
        "forest.max_depth = 5\n"
        "out.latent_columns = 5\n"
        "out.max_lag = 50\n"
        "out.bins = 20\n"
        f"out.dir = {out}\n",
        encoding="utf-8",
    )

    def run_round() -> dict[str, bytes]:
        for argv in (
            ["ingest", "--config", str(config)],
            ["fit", "--config", str(config), "--model", "fair"],
            ["compare", "--config", str(config)],
        ):
            assert main(argv) == 0, argv
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_round()
    second = run_round()
    same_names = sorted(first) == sorted(second)
    diffs = [name for name in first if first[name] != second.get(name)]
    hash_line = (out / "compare.csv").read_text(encoding="utf-8").splitlines()[0]
    csv_count = sum(1 for name in first if name.endswith(".csv"))

    ok = same_names and not diffs and hash_line.startswith("# config_hash=")
    report(
        8,
        ok,
        f"determinism: two pipeline runs, {len(first)} output files ({csv_count} CSVs) "
        f"byte-identical under {hash_line.lstrip('# ')}"
        + (f"; differing: {diffs}" if diffs else ""),
    )


def test_criterion_9_ols_oracle(report):
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        X = r.standard_normal((60, 4))
        beta = r.uniform(-3.0, 3.0, 4)
        y = 1.5 + X @ beta + r.standard_normal(60)
        model = fit_ols(X, y)
        A = np.hstack([np.ones((60, 1)), X])
        ref = np.linalg.solve(A.T @ A, A.T @ y)
        got = np.concatenate([[model.intercept], model.coefficients])
        rel = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        worst = max(worst, rel)

    ok = worst < 1e-8
    report(
        9,
        ok,
        f"least squares vs normal equations on 20 random systems: worst relative "
        f"difference {worst:.2e} < 1e-8",
    )
