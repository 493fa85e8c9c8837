"""Linear baselines, the bagged tree ensemble, and the two-stage fair model."""

import math

import numpy as np
import pytest
import scipy.linalg

from faircredit.dataset import Dataset, Standardization
from faircredit.errors import ConfigError, DataError, RankDeficientError, UserError
from faircredit.predictors import (
    FOREST_FORMAT,
    FULL_FEATURES,
    UNAWARE_FEATURES,
    ForestConfig,
    ForestModel,
    LinearModel,
    _build_tree,
    _householder_qr,
    fair_latent_points,
    feature_matrix,
    fit_fair,
    fit_forest,
    fit_full,
    fit_ols,
    fit_unaware,
    forest_from_text,
    forest_to_text,
    load_fair_model,
    predict_fair,
    predict_forest,
    predict_ols,
    save_fair_model,
)
from faircredit.probmodel import ModelConfig
from faircredit.sampler import run_chain
from faircredit.util import STREAM_TREE, derive_rng


# --- least squares ------------------------------------------------------------

def test_fit_ols_recovers_exact_coefficients():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    y = 2.0 + X @ np.array([3.0, -1.0, 0.5])
    model = fit_ols(X, y, ("a", "b", "c"))
    assert model.intercept == pytest.approx(2.0, abs=1e-10)
    assert model.coefficients == pytest.approx([3.0, -1.0, 0.5], abs=1e-10)
    assert predict_ols(model, X) == pytest.approx(y, abs=1e-9)


def test_fit_ols_agrees_with_normal_equations():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    model = fit_ols(X, y)
    A = np.column_stack([np.ones(60), X])
    beta = np.linalg.solve(A.T @ A, A.T @ y)
    assert model.intercept == pytest.approx(beta[0], rel=1e-10)
    assert model.coefficients == pytest.approx(beta[1:], rel=1e-10)


@pytest.mark.filterwarnings("error")  # no division by a zero-length reflector
def test_fit_ols_names_a_rank_deficient_column():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30)
    X = np.column_stack([a, a])  # exact copy
    with pytest.raises(RankDeficientError, match="rank deficient") as err:
        fit_ols(X, rng.standard_normal(30), ("first", "second"))
    assert "first" in str(err.value) or "second" in str(err.value)
    # a third column that is the sum of two others, beside an independent one
    a, b, d = rng.standard_normal((3, 30))
    with pytest.raises(RankDeficientError, match=r"rank 4 of 5\); column '(a|b|a_plus_b)'"):
        fit_ols(
            np.column_stack([a, d, b, a + b]), rng.standard_normal(30),
            ("a", "d", "b", "a_plus_b"),
        )
    # an all-zero column leaves an exactly zero remainder for its reflection
    with pytest.raises(RankDeficientError, match=r"rank 2 of 3\); column 'zero'"):
        fit_ols(np.column_stack([np.zeros(30), a]), rng.standard_normal(30), ("zero", "a"))


@pytest.mark.parametrize("scaled", [None, 1e6, 1e-6], ids=("plain", "scaled_up", "scaled_down"))
def test_householder_qr_pivots_like_lapack(scaled):
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, p = int(rng.integers(6, 200)), int(rng.integers(1, 7))
        A = rng.standard_normal((n, p))
        if scaled is not None:
            A[:, rng.integers(p)] *= scaled
        y = rng.standard_normal(n)
        r, qty, piv = _householder_qr(A, y)
        q_ref, r_ref, piv_ref = scipy.linalg.qr(A, mode="economic", pivoting=True)
        assert np.array_equal(piv, piv_ref)
        assert np.allclose(np.abs(np.diag(r)), np.abs(np.diag(r_ref)), rtol=1e-12, atol=0.0)
        assert np.array_equal(r, np.triu(r))
        # Q^T y agrees up to the sign each implementation gives a reflector
        assert np.allclose(np.abs(qty), np.abs(q_ref.T @ y), rtol=1e-9, atol=1e-12)


def test_fit_ols_rejects_constant_column_against_intercept():
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.standard_normal(25), np.full(25, 2.0)])
    with pytest.raises(RankDeficientError):
        fit_ols(X, rng.standard_normal(25))


def test_fit_ols_input_guards():
    rng = np.random.default_rng(4)
    with pytest.raises(DataError, match="more rows"):
        fit_ols(rng.standard_normal((4, 4)), rng.standard_normal(4))
    with pytest.raises(DataError, match="non-finite"):
        X = rng.standard_normal((20, 2))
        X[3, 1] = float("nan")
        fit_ols(X, rng.standard_normal(20))
    with pytest.raises(ValueError):
        fit_ols(rng.standard_normal((20, 2)), rng.standard_normal(19))
    with pytest.raises(ValueError):
        fit_ols(rng.standard_normal((20, 2)), rng.standard_normal(20), ("only-one",))


def test_predict_ols_shape_guard():
    model = LinearModel(("a", "b"), np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        predict_ols(model, np.zeros((5, 3)))


def test_linear_model_kv_round_trip():
    model = LinearModel(("sex", "age_std"), np.array([1.25, -0.5]), intercept=3.75)
    back = LinearModel.from_kv_text(model.to_kv_text(header_lines=("note",)))
    assert back.feature_names == model.feature_names
    assert back.intercept == model.intercept
    assert np.array_equal(back.coefficients, model.coefficients)


def test_full_and_unaware_feature_sets(tiny_dataset):
    full = fit_full(tiny_dataset)
    unaware = fit_unaware(tiny_dataset)
    assert full.feature_names == FULL_FEATURES
    assert unaware.feature_names == UNAWARE_FEATURES
    # the unaware fit never sees sex: flipping it cannot move predictions
    flipped = Dataset(
        sex=1 - np.asarray(tiny_dataset.sex),
        age_std=tiny_dataset.age_std,
        job=tiny_dataset.job,
        house=tiny_dataset.house,
        credit=tiny_dataset.credit,
        standardization=tiny_dataset.standardization,
    )
    X0 = feature_matrix(tiny_dataset, UNAWARE_FEATURES)
    X1 = feature_matrix(flipped, UNAWARE_FEATURES)
    assert np.array_equal(predict_ols(unaware, X0), predict_ols(unaware, X1))


def test_feature_matrix_rejects_unknown_name(tiny_dataset):
    with pytest.raises(ValueError, match="credit"):
        feature_matrix(tiny_dataset, ("credit",))


# --- regression trees -----------------------------------------------------------

def test_build_tree_hand_case():
    c = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    cfg = ForestConfig(n_trees=1, max_depth=1, min_leaf=1)
    assert _build_tree(c, y, 0, cfg) == ([1.5], [0.0, 10.0])
    # a point on the threshold goes left
    one_tree = ForestModel(cfg, np.array([1.5]), np.array([0.0, 10.0]))
    assert predict_forest(one_tree, np.array([1.4, 1.5, 1.6])).tolist() == [0.0, 0.0, 10.0]


def test_build_tree_stopping_rules():
    cfg = ForestConfig(n_trees=1, max_depth=3, min_leaf=3)
    c = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 9.0])
    # n < 2*min_leaf: no split possible
    assert _build_tree(c, y, 0, cfg)[0] == []
    # constant targets: nothing to gain
    assert _build_tree(c, np.ones(4), 0, ForestConfig(min_leaf=1)) == ([], [1.0])
    # tied feature values: no valid cut point
    assert _build_tree(np.ones(8), np.arange(8.0), 0, ForestConfig(min_leaf=1))[0] == []
    # depth exhausted: one leaf holding the mean
    thresholds, leaves = _build_tree(c, y, 0, ForestConfig(max_depth=0, min_leaf=1))
    assert thresholds == []
    assert leaves == [pytest.approx(3.0)]


def oracle_tree(c, y, depth, cfg):
    """Brute-force split enumeration with the same stopping rules.

    A leaf is its value; an internal node is (threshold, left, right).
    """
    leaf = float(np.mean(y))
    n = len(c)
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or np.min(y) == np.max(y):
        return leaf
    order = np.argsort(c, kind="stable")
    cs, ys = c[order], y[order]
    best_sse, best_i = None, None
    for i in range(1, n):
        if cs[i - 1] == cs[i] or i < cfg.min_leaf or n - i < cfg.min_leaf:
            continue
        left, right = ys[:i], ys[i:]
        sse = float(np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2))
        if best_sse is None or sse < best_sse:
            best_sse, best_i = sse, i
    if best_i is None:
        return leaf
    return (
        float((cs[best_i - 1] + cs[best_i]) / 2.0),
        oracle_tree(cs[:best_i], ys[:best_i], depth + 1, cfg),
        oracle_tree(cs[best_i:], ys[best_i:], depth + 1, cfg),
    )


def walk(node, x):
    """Leaf reached from the root, x <= threshold going left."""
    while isinstance(node, tuple):
        threshold, left, right = node
        node = left if x <= threshold else right
    return node


def in_order(node):
    """(thresholds, leaves) of a tree, left to right."""
    if not isinstance(node, tuple):
        return [], [node]
    threshold, left, right = node
    (lt, lv), (rt, rv) = in_order(left), in_order(right)
    return lt + [threshold] + rt, lv + rv


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_build_tree_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 40
    c = rng.standard_normal(n)
    y = np.sin(2.0 * c) + 0.3 * rng.standard_normal(n)
    cfg = ForestConfig(n_trees=1, max_depth=3, min_leaf=4)
    assert _build_tree(c, y, 0, cfg) == in_order(oracle_tree(c, y, 0, cfg))


@pytest.mark.parametrize("ties", [False, True])
def test_forest_predicts_bit_for_bit_as_walking_every_tree(ties):
    # the oracle rebuilds each bootstrap tree on its own stream and walks it;
    # the forest's step function must give the same fsum / n_trees exactly
    rng = np.random.default_rng(8)
    n = 100
    c = rng.standard_normal(n)
    if ties:
        c = np.round(c, 1)  # repeated scores, so trees share thresholds
    y = np.exp(rng.standard_normal(n))
    cfg = ForestConfig(n_trees=12, max_depth=5, min_leaf=3, seed=4)
    forest = fit_forest(c, y, cfg)
    trees = []
    for t in range(cfg.n_trees):
        idx = derive_rng(cfg.seed, STREAM_TREE, t).integers(0, n, size=n)
        trees.append(oracle_tree(c[idx], y[idx], 0, cfg))
    b = forest.breaks
    points = np.concatenate(
        [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), c, [-np.inf, np.inf]]
    )
    want = np.array([math.fsum(walk(tree, x) for tree in trees) for x in points]) / cfg.n_trees
    assert np.array_equal(predict_forest(forest, points), want)
    # the breaks are exactly the trees' thresholds
    assert b.tolist() == sorted({x for tree in trees for x in in_order(tree)[0]})


def test_fit_forest_bootstrap_stream_is_reproducible():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(50)
    y = c * 2.0 + rng.standard_normal(50) * 0.2
    cfg = ForestConfig(n_trees=1, max_depth=4, min_leaf=3, seed=11)
    forest = fit_forest(c, y, cfg)
    idx = derive_rng(11, STREAM_TREE, 0).integers(0, 50, size=50)
    thresholds, leaves = _build_tree(c[idx], y[idx], 0, cfg)
    assert forest.breaks.tolist() == thresholds
    assert forest.values.tolist() == leaves


def test_fit_forest_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(60)
    y = np.abs(c) + 0.1 * rng.standard_normal(60)
    cfg = ForestConfig(n_trees=10, max_depth=4, min_leaf=3, seed=0)
    a = predict_forest(fit_forest(c, y, cfg), c)
    b = predict_forest(fit_forest(c, y, cfg), c)
    assert np.array_equal(a, b)
    other = predict_forest(fit_forest(c, y, ForestConfig(10, 4, 3, seed=1)), c)
    assert not np.array_equal(a, other)


def test_predict_forest_averages_trees():
    # depth-0 trees are single leaves: the forest is one constant, the
    # average of the bootstrap means
    rng = np.random.default_rng(9)
    c = rng.standard_normal(30)
    y = rng.standard_normal(30)
    cfg = ForestConfig(n_trees=3, max_depth=0, min_leaf=1, seed=2)
    forest = fit_forest(c, y, cfg)
    means = [
        float(np.mean(y[derive_rng(2, STREAM_TREE, t).integers(0, 30, size=30)]))
        for t in range(3)
    ]
    assert forest.breaks.size == 0
    want = math.fsum(means) / 3
    assert predict_forest(forest, np.array([-np.inf, 0.0, 5.0])).tolist() == [want] * 3
    # interval j is (breaks[j-1], breaks[j]]
    model = ForestModel(ForestConfig(n_trees=2), np.array([0.0]), np.array([1.0, 3.0]))
    assert predict_forest(model, np.array([-1.0, 0.0, 5e-324, 5.0])).tolist() == [1, 1, 3, 3]


def test_forest_config_validate():
    for bad in (
        ForestConfig(n_trees=0), ForestConfig(max_depth=-1), ForestConfig(min_leaf=0),
        ForestConfig(seed=-3),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


def test_fit_forest_input_guards():
    with pytest.raises(DataError):
        fit_forest(np.array([]), np.array([]), ForestConfig())
    with pytest.raises(ValueError):
        fit_forest(np.zeros(5), np.zeros(4), ForestConfig())
    with pytest.raises(DataError):
        fit_forest(np.array([0.0, float("inf")]), np.zeros(2), ForestConfig())


def test_forest_text_round_trip():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(80)
    y = c**2 + 0.2 * rng.standard_normal(80)
    cfg = ForestConfig(n_trees=7, max_depth=4, min_leaf=2, seed=3)
    forest = fit_forest(c, y, cfg)
    text = forest_to_text(forest, header_lines=("config_hash=aa",))
    assert text.startswith("# config_hash=aa\nformat = forest/2\n")
    body = text.splitlines()[6:]
    assert len(body) == forest.values.size == forest.breaks.size + 1
    assert body[-1].startswith("inf ")
    back = forest_from_text(text)
    assert back.config == cfg
    assert np.array_equal(back.breaks, forest.breaks)
    assert np.array_equal(back.values, forest.values)
    grid = np.linspace(-3, 3, 101)
    assert np.array_equal(predict_forest(back, grid), predict_forest(forest, grid))


def test_forest_from_text_rejects_malformed():
    with pytest.raises(UserError, match="format"):
        forest_from_text("format = forest/9\nn_trees = 1\nmax_depth = 1\nmin_leaf = 1\nseed = 0\n")
    # the tree-by-tree format this one replaced
    with pytest.raises(UserError, match="unsupported forest format: 'forest/1'"):
        forest_from_text(
            "format = forest/1\nn_trees = 1\nmax_depth = 1\nmin_leaf = 1\nseed = 0\n"
            "tree 0\nN 0.5\nL 1.0\nL 2.0\n"
        )
    model = ForestModel(ForestConfig(n_trees=1), np.array([-1.0, 0.5]), np.array([1.0, 2.0, 3.0]))
    good = forest_to_text(model)
    assert good.endswith("\n-1.0 1.0\n0.5 2.0\ninf 3.0\n")
    assert np.array_equal(forest_from_text(good).values, model.values)
    bad_bodies = {
        # breakpoints out of order, repeated, or not finite
        "strictly increasing": [
            good.replace("-1.0 1.0\n0.5 2.0", "0.5 1.0\n-1.0 2.0"),
            good.replace("-1.0 1.0", "0.5 1.0"),
        ],
        "finite": [
            good.replace("-1.0 1.0", "nan 1.0"),
            good.replace("-1.0 1.0", "-inf 1.0"),
            good.replace("0.5 2.0", "0.5 nan"),
            # too many intervals: one past the last
            good + "inf 4.0\n",
        ],
        # too few: none at all, or the body cut short
        "must end at inf": [
            good.split("-1.0")[0],
            good.replace("inf 3.0\n", ""),
        ],
        "interval line": [
            good.replace("0.5 2.0", "0.5"),
            good.replace("0.5 2.0", "0.5 2.0 7.0"),
            good.replace("-1.0 1.0", "tree 0"),
        ],
        # a header missing or garbling a key
        "n_trees": [good.replace("n_trees = 1\n", "")],
        "max_depth": [good.replace("max_depth = ", "max_depth = deep")],
    }
    for message, texts in bad_bodies.items():
        for text in texts:
            assert text != good
            with pytest.raises(UserError, match=message):
                forest_from_text(text)


# --- two-stage fair model ---------------------------------------------------------

def small_fair_model(tiny_dataset, latent_point="mean", mc=ModelConfig()):
    from faircredit.sampler import SamplerConfig

    sc = SamplerConfig(iterations=300, burn_in=100, thin=2, seed=5)
    fc = ForestConfig(n_trees=8, max_depth=3, min_leaf=2, seed=1)
    chain = run_chain(tiny_dataset, mc, sc)
    model = fit_fair(tiny_dataset, mc, sc, fc, latent_point=latent_point, chain=chain)
    return model, chain


def test_fit_fair_uses_posterior_medians_and_latent_means(tiny_dataset):
    model, chain = small_fair_model(tiny_dataset)
    assert model.theta_hat == chain.theta_median()
    refit = fit_forest(
        chain.latent_means(), np.asarray(tiny_dataset.credit, dtype=float), model.forest.config
    )
    grid = np.linspace(-2, 2, 40)
    assert np.array_equal(predict_forest(model.forest, grid), predict_forest(refit, grid))


def test_fit_fair_latent_point_median_changes_features(tiny_dataset):
    mean_model, chain = small_fair_model(tiny_dataset, "mean")
    median_model, _ = small_fair_model(tiny_dataset, "median")
    assert mean_model.latent_point == "mean"
    assert median_model.latent_point == "median"
    assert not np.array_equal(chain.latent_means(), chain.latent_medians())
    with pytest.raises(ConfigError):
        fit_fair(tiny_dataset, ModelConfig(), chain.config, ForestConfig(), latent_point="mode")


def test_predict_fair_deterministic_and_protocol_sensitive(tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    test = tiny_dataset.subset(np.arange(4))
    honest1 = predict_fair(model, test)
    honest2 = predict_fair(model, test)
    assert np.array_equal(honest1, honest2)
    leaky = predict_fair(model, test, condition_on_credit=True)
    assert not np.array_equal(honest1, leaky)


def test_fair_latent_points_change_with_credit_only_when_conditioned(tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    test = tiny_dataset.subset(np.arange(4))
    doubled = Dataset(
        sex=test.sex, age_std=test.age_std, job=test.job, house=test.house,
        credit=np.asarray(test.credit) * 2, standardization=test.standardization,
    )
    assert np.array_equal(fair_latent_points(model, test), fair_latent_points(model, doubled))
    assert not np.array_equal(
        fair_latent_points(model, test, condition_on_credit=True),
        fair_latent_points(model, doubled, condition_on_credit=True),
    )


def test_save_load_fair_model_round_trip(tmp_path, tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    save_fair_model(model, str(tmp_path / "m"), header_lines=("config_hash=11",))
    back = load_fair_model(str(tmp_path / "m"))
    assert back.theta_hat == model.theta_hat
    assert back.latent_sampler_config == model.latent_sampler_config
    assert back.model_config == model.model_config
    assert back.latent_point == model.latent_point
    test = tiny_dataset.subset(np.arange(5))
    assert np.array_equal(predict_fair(back, test), predict_fair(model, test))


def test_load_fair_model_missing_file(tmp_path):
    with pytest.raises(UserError, match="cannot read"):
        load_fair_model(str(tmp_path / "absent"))


def test_load_fair_model_rejects_bad_config(tmp_path, tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    save_fair_model(model, str(tmp_path / "m"))
    config = tmp_path / "m" / "config.kv"
    text = config.read_text(encoding="utf-8")

    config.write_text(text.replace("sampler.thin = 2\n", ""), encoding="utf-8")
    with pytest.raises(UserError, match="sampler.thin"):
        load_fair_model(str(tmp_path / "m"))

    config.write_text(text.replace("latent_point = mean", "latent_point = bogus"), encoding="utf-8")
    with pytest.raises(UserError, match="latent_point"):
        load_fair_model(str(tmp_path / "m"))

    config.write_text(text.replace("sampler.burn_in = 100", "sampler.burn_in = 900"), encoding="utf-8")
    with pytest.raises(UserError, match="burn_in"):
        load_fair_model(str(tmp_path / "m"))

    config.write_text(text.replace("sampler.seed = 5", "sampler.seed = -3"), encoding="utf-8")
    with pytest.raises(UserError, match="seed"):
        load_fair_model(str(tmp_path / "m"))

    # a file cut before its last line loses latent_point, which is required
    assert text.endswith("latent_point = mean\n")
    config.write_text(text[: text.rindex("latent_point")], encoding="utf-8")
    with pytest.raises(UserError, match="latent_point"):
        load_fair_model(str(tmp_path / "m"))

    config.write_text(text, encoding="utf-8")
    params = tmp_path / "m" / "params.kv"
    params_text = params.read_text(encoding="utf-8")
    params.write_text(params_text + "mystery = 1\n", encoding="utf-8")
    with pytest.raises(UserError, match="unknown parameter"):
        load_fair_model(str(tmp_path / "m"))

    # b_c in a model without the credit intercept
    params.write_text(params_text + "b_c = 0.5\n", encoding="utf-8")
    with pytest.raises(UserError, match="b_c is present"):
        load_fair_model(str(tmp_path / "m"))

    # an intercept model's params.kv cut before its last line loses b_c
    model, _ = small_fair_model(tiny_dataset, mc=ModelConfig(include_credit_intercept=True))
    save_fair_model(model, str(tmp_path / "b"))
    params = tmp_path / "b" / "params.kv"
    params_text = params.read_text(encoding="utf-8")
    assert params_text.splitlines()[-1].startswith("b_c = ")
    params.write_text(params_text[: params_text.rindex("b_c")], encoding="utf-8")
    with pytest.raises(UserError, match="b_c is missing"):
        load_fair_model(str(tmp_path / "b"))
