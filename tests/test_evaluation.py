"""Scores, counterfactual flips, and the three-model comparison report."""

from dataclasses import replace

import numpy as np
import pytest

from faircredit.dataset import Dataset, SplitSpec, Standardization, split
from faircredit.errors import DataError
from faircredit.evaluation import (
    COVARIANCE_COLUMNS,
    METRIC_COLUMNS,
    MODEL_ROWS,
    ComparisonReport,
    _flip_gap,
    _predictions,
    compare_models,
    covariance_matrix,
    flip_age,
    flip_sex,
    matrix_to_csv_text,
    r_squared,
)
from faircredit import predictors
from faircredit.predictors import ForestConfig, fit_fair, fit_full, fit_unaware, predict_fair
from faircredit.probmodel import ModelConfig
from faircredit.sampler import SamplerConfig, run_chain


# --- r squared ------------------------------------------------------------------

def test_r_squared_perfect_and_mean():
    y = np.array([1.0, 3.0, 5.0, 9.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(np.full(4, y.mean()), y) == 0.0


def test_r_squared_half():
    targets = np.array([0.0, 2.0])
    preds = np.array([0.0, 1.0])
    assert r_squared(preds, targets) == pytest.approx(0.5)


def test_r_squared_can_go_negative():
    targets = np.array([0.0, 1.0, 2.0])
    preds = np.array([5.0, 5.0, 5.0])
    assert r_squared(preds, targets) < 0.0


def test_r_squared_guards():
    with pytest.raises(DataError):
        r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))  # constant targets
    with pytest.raises(DataError):
        r_squared(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        r_squared(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


# --- covariance -------------------------------------------------------------------

def test_covariance_matrix_matches_numpy(tiny_dataset):
    names, cov = covariance_matrix(tiny_dataset)
    assert names == COVARIANCE_COLUMNS
    stacked = np.vstack([
        np.asarray(getattr(tiny_dataset, n), dtype=float) for n in COVARIANCE_COLUMNS
    ])
    assert cov == pytest.approx(np.cov(stacked, ddof=1))
    assert cov == pytest.approx(cov.T)


def test_correlation_matrix_unit_diagonal(tiny_dataset):
    _, corr = covariance_matrix(tiny_dataset, correlation=True)
    assert np.diag(corr) == pytest.approx(np.ones(len(COVARIANCE_COLUMNS)))
    assert np.max(np.abs(corr)) <= 1.0 + 1e-12


def test_matrix_to_csv_text(tiny_dataset, stamped):
    names, cov = covariance_matrix(tiny_dataset)
    text = stamped(matrix_to_csv_text(names, cov), ("config_hash=be",))
    lines = text.splitlines()
    assert lines[0] == "# config_hash=be"
    assert lines[1] == "," + ",".join(names)
    assert len(lines) == 2 + len(names)
    assert lines[2].split(",")[0] == names[0]


# --- attribute flips ----------------------------------------------------------------

def test_flip_sex_is_an_involution(tiny_dataset):
    flipped = flip_sex(tiny_dataset)
    assert np.array_equal(flipped.sex, 1 - np.asarray(tiny_dataset.sex))
    assert np.array_equal(flipped.job, tiny_dataset.job)
    back = flip_sex(flipped)
    assert np.array_equal(back.sex, tiny_dataset.sex)


def test_flip_age_mirror(tiny_dataset):
    flipped = flip_age(tiny_dataset, mode="mirror")
    assert np.array_equal(flipped.age_std, -np.asarray(tiny_dataset.age_std))
    assert np.array_equal(flipped.sex, tiny_dataset.sex)


def test_flip_age_shift_uses_stored_scale(tiny_dataset):
    flipped = flip_age(tiny_dataset, mode="shift", years=10.0)
    # tiny_dataset stores sd 10, so +10 years is +1 standardized unit
    assert flipped.age_std == pytest.approx(np.asarray(tiny_dataset.age_std) + 1.0)
    bare = Dataset(
        sex=tiny_dataset.sex, age_std=tiny_dataset.age_std, job=tiny_dataset.job,
        house=tiny_dataset.house, credit=tiny_dataset.credit,
    )
    with pytest.raises(DataError):
        flip_age(bare, mode="shift")
    with pytest.raises(ValueError):
        flip_age(tiny_dataset, mode="sideways")


# --- counterfactual gaps --------------------------------------------------------------

def flip_gap(model, data, flipped):
    """The gap compare_models reports: mean absolute prediction change from
    data to flipped."""
    return _flip_gap(model, flipped, _predictions(model, data))


def test_unaware_gaps_are_exactly_zero(tiny_dataset):
    model = fit_unaware(tiny_dataset)
    assert flip_gap(model, tiny_dataset, flip_sex(tiny_dataset)) == 0.0
    assert flip_gap(model, tiny_dataset, flip_age(tiny_dataset)) == 0.0
    assert flip_gap(model, tiny_dataset, flip_age(tiny_dataset, mode="shift")) == 0.0


def test_full_model_sex_gap_equals_coefficient(tiny_dataset):
    model = fit_full(tiny_dataset)
    gap = flip_gap(model, tiny_dataset, flip_sex(tiny_dataset))
    coef_sex = model.coefficients[model.feature_names.index("sex")]
    assert gap == pytest.approx(abs(coef_sex), abs=1e-10)


def test_full_model_age_gap_matches_hand_computation(tiny_dataset):
    model = fit_full(tiny_dataset)
    coef_age = model.coefficients[model.feature_names.index("age_std")]
    # mirror flip moves age_std by -2*age_std per person
    want = abs(coef_age) * float(np.mean(2.0 * np.abs(tiny_dataset.age_std)))
    assert flip_gap(model, tiny_dataset, flip_age(tiny_dataset)) == pytest.approx(want, abs=1e-10)


# --- comparison report -------------------------------------------------------------------

def larger_split():
    rng = np.random.default_rng(21)
    n = 80
    sex = rng.integers(0, 2, n)
    age_std = rng.standard_normal(n)
    job = rng.integers(0, 2, n)
    house = rng.integers(0, 2, n)
    base = np.exp(1.5 + 0.4 * sex + 0.3 * job + 0.5 * house + 0.2 * age_std)
    credit = np.maximum(rng.poisson(base), 1)
    ds = Dataset(sex=sex, age_std=age_std, job=job, house=house, credit=credit,
                 standardization=Standardization(35.0, 11.0))
    return split(ds, SplitSpec(train_count=55, seed=3))


SMALL_FOREST = ForestConfig(n_trees=6, max_depth=3, min_leaf=3, seed=0)


@pytest.fixture(scope="module")
def split_chain():
    """larger_split() and one stage-one chain on its train rows."""
    train, test = larger_split()
    chain = run_chain(
        train, ModelConfig(), SamplerConfig(iterations=250, burn_in=100, thin=3, seed=2)
    )
    return train, test, chain


@pytest.fixture(scope="module")
def comparison(split_chain):
    train, test, chain = split_chain
    return compare_models(train, test, chain, SMALL_FOREST)


def test_report_covers_all_models_and_metrics(comparison):
    assert set(comparison.metrics) == set(MODEL_ROWS)
    for row in MODEL_ROWS:
        assert set(comparison.metrics[row]) == set(METRIC_COLUMNS)
    assert comparison.metrics["unaware"]["counterfactual_gap_sex"] == 0.0
    assert comparison.metrics["unaware"]["counterfactual_gap_age"] == 0.0
    assert comparison.n_train == 55 and comparison.n_test == 25
    assert comparison.split_seed == 3 and comparison.sampler_seed == 2


def test_report_names_the_split_it_was_given(split_chain):
    # the split seed comes from the datasets: larger_split() splits at seed 3,
    # and a train and test half of two different splits are refused
    train, test, chain = split_chain
    assert "# split_seed=3 sampler_seed=2" in compare_models(
        train, test, chain, SMALL_FOREST
    ).to_csv_text().splitlines()
    for other in (replace(test, split=SplitSpec(train_count=55, seed=4)), replace(test, split=None)):
        with pytest.raises(ValueError, match="different splits"):
            compare_models(train, other, chain, SMALL_FOREST)


def test_report_headline_is_the_honest_score(split_chain, comparison):
    # the fair test_r2 cell scores test latents inferred without credit; the
    # leaky score, inferred with it, is reported beside it
    train, test, chain = split_chain
    fair = fit_fair(train, chain, SMALL_FOREST)
    honest, leaky = (
        r_squared(predict_fair(fair, test, condition_on_credit=leak), test.credit.astype(float))
        for leak in (False, True)
    )
    assert comparison.metrics["fair"]["test_r2"] == honest
    assert comparison.fair_test_r2_leaky == leaky
    assert leaky != honest
    assert f"# fair_test_r2_honest={honest:.6g} " in comparison.to_csv_text()


def test_report_csv_layout(comparison, stamped):
    text = stamped(comparison.to_csv_text(), ("config_hash=77",))
    lines = text.splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "model," + ",".join(METRIC_COLUMNS)
    assert [ln.split(",")[0] for ln in data[1:]] == list(MODEL_ROWS)
    assert len(data) == 4  # header plus exactly one row per model
    comments = "\n".join(ln for ln in lines if ln.startswith("#"))
    assert "fair_test_r2_honest=" in comments
    assert "fair_test_r2_leaky=" in comments
    assert "split_seed=3" in comments


def test_report_text_table_shows_both_protocols(comparison):
    table = comparison.to_text_table()
    assert "honest (credit excluded" in table
    assert "leaky" in table
    for row in MODEL_ROWS:
        assert any(ln.startswith(row) for ln in table.splitlines())


def test_compare_runs_four_test_time_passes(monkeypatch, split_chain):
    # honest factual (test r2 and the base of both gaps), leaky factual, and
    # one honest pass per flipped attribute
    calls = []
    original = predictors.infer_latent

    def counting(theta, data, model_config, *, include_credit):
        calls.append(include_credit)
        return original(theta, data, model_config, include_credit=include_credit)

    monkeypatch.setattr(predictors, "infer_latent", counting)
    train, test, chain = split_chain
    compare_models(train, test, chain, SMALL_FOREST)
    assert sorted(calls) == [False, False, False, True]
