"""Linear baselines, the bagged tree ensemble, and the two-stage fair model."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from faircredit import predictors
from faircredit.dataset import Dataset, Standardization
from faircredit.errors import ConfigError, DataError, RankDeficientError, UserError
from faircredit.predictors import (
    FOREST_FORMAT,
    FULL_FEATURES,
    UNAWARE_FEATURES,
    ForestConfig,
    ForestModel,
    LinearModel,
    _grow_trees,
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
from faircredit.sampler import SamplerConfig, run_chain
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


def test_fit_ols_names_a_rank_deficient_column():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30)
    X = np.column_stack([a, a])  # exact copy
    with pytest.raises(RankDeficientError, match="column 'second' is spanned by the columns before"):
        fit_ols(X, rng.standard_normal(30), ("first", "second"))
    # a third column that is the sum of two others, beside an independent one
    a, b, d = rng.standard_normal((3, 30))
    with pytest.raises(RankDeficientError, match="column 'a_plus_b' is spanned"):
        fit_ols(
            np.column_stack([a, d, b, a + b]), rng.standard_normal(30),
            ("a", "d", "b", "a_plus_b"),
        )
    # an all-zero column has a zero norm and a zero diagonal entry
    with pytest.raises(RankDeficientError, match="column 'zero' is spanned"):
        fit_ols(np.column_stack([np.zeros(30), a]), rng.standard_normal(30), ("zero", "a"))
    # the tolerance scales with each column's own norm: a dependent column
    # scaled far up or down is still named, and an independent column at
    # 1e-14 scale fits and recovers its coefficient
    for scale in (1e6, 1e-6):
        with pytest.raises(RankDeficientError, match="column 'a_plus_b' is spanned"):
            fit_ols(
                np.column_stack([a, b, scale * (a + b)]), rng.standard_normal(30),
                ("a", "b", "a_plus_b"),
            )
    y = 1.0 + 2.0 * a + 3.0 * b
    model = fit_ols(np.column_stack([a, 1e-14 * b]), y, ("a", "b_small"))
    assert model.coefficients == pytest.approx([2.0, 3e14], rel=1e-9)


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


def test_linear_model_kv_round_trip(stamped):
    model = LinearModel(("sex", "age_std"), np.array([1.25, -0.5]), intercept=3.75)
    back = LinearModel.from_kv_text(stamped(model.to_kv_text(), ("note",)))
    assert back.feature_names == model.feature_names
    assert back.intercept == model.intercept
    assert np.array_equal(back.coefficients, model.coefficients)


@pytest.mark.parametrize("key", ["intercept", "coef.sex"])
@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_linear_model_refuses_a_bad_value_by_its_key(key, bad):
    text = LinearModel(("sex",), np.array([1.25]), intercept=3.75).to_kv_text()
    text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {bad}", text, flags=re.M)
    with pytest.raises(UserError, match=rf"{re.escape(key)} must be (a number|finite), got '{bad}'"):
        LinearModel.from_kv_text(text)


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

def _build_tree(c, y, depth, cfg):
    """One tree grown on every point of (c, y) in order, from depth."""
    return _grow_trees(c, y, np.arange(c.shape[0])[None], depth, cfg)[0]


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


def oracle_forest_check(c, y, cfg):
    """Rebuild each bootstrap tree with the oracle on its own stream and walk
    it; the forest's step function must give the same fsum / n_trees exactly.
    Returns the oracle trees."""
    n = len(c)
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
    return trees


@pytest.mark.parametrize("ties", [False, True])
def test_forest_predicts_bit_for_bit_as_walking_every_tree(ties):
    rng = np.random.default_rng(8)
    n = 100
    c = rng.standard_normal(n)
    if ties:
        c = np.round(c, 1)  # repeated scores, so trees share thresholds
    y = np.exp(rng.standard_normal(n))
    oracle_forest_check(c, y, ForestConfig(n_trees=12, max_depth=5, min_leaf=3, seed=4))


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("small_blocks", [False, True])
def test_forest_matches_oracle_on_random_configs(case, small_blocks, monkeypatch):
    # every max_depth in 0-7 and min_leaf in 1-8 once, n from 1 to 300, four
    # kinds of target, with and without tied scores
    n = (1, 2, 17, 64, 97, 150, 233, 300)[case]
    cfg = ForestConfig(n_trees=10, max_depth=case, min_leaf=1 + (3 * case) % 8, seed=case)
    if small_blocks:
        # four trees a block, so 10 trees end in a part block, and a level's
        # nodes are cut in several row blocks
        monkeypatch.setattr(predictors, "BLOCK_ELEMS", 4 * n)
    rng = np.random.default_rng(40 + case)
    c = rng.standard_normal(n)
    if case % 2:
        c = np.round(c, 1)
    y = (
        rng.standard_normal(n),
        rng.integers(0, 4, n).astype(float),
        np.exp(3.0 * rng.standard_normal(n)),
        np.full(n, 7.25),
    )[case % 4]
    oracle_forest_check(c, y, cfg)


def test_forest_with_trees_that_never_split_matches_oracle():
    # two score values, so a bootstrap with fewer than min_leaf of either has
    # no valid cut; such a tree is one leaf, the mean of y in bootstrap order
    rng = np.random.default_rng(12)
    n = 24
    c = np.where(np.arange(n) < 5, 0.0, 1.0)
    y = np.exp(2.0 * rng.standard_normal(n))
    trees = oracle_forest_check(c, y, ForestConfig(n_trees=30, max_depth=3, min_leaf=5, seed=1))
    assert 0 < sum(isinstance(tree, float) for tree in trees) < len(trees)


def test_fit_forest_working_set_stays_small():
    # fit and compare grow the forest while the chain's draws are still
    # alive, so its working set adds straight onto their peak memory
    rng = np.random.default_rng(0)
    c = rng.standard_normal(800)
    y = np.round(np.exp(rng.standard_normal(800) + 7.0))
    tracemalloc.start()
    try:
        fit_forest(c, y, ForestConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


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
    # a config is checked when it is built; a seed by util.check_seed
    for bad in ({"n_trees": 0}, {"max_depth": -1}, {"min_leaf": 0}):
        with pytest.raises(ValueError):
            ForestConfig(**bad)
    for seed in (-3, 2**32):
        with pytest.raises(ConfigError, match="seed"):
            ForestConfig(seed=seed)


def test_fit_forest_input_guards():
    with pytest.raises(DataError):
        fit_forest(np.array([]), np.array([]), ForestConfig())
    with pytest.raises(ValueError):
        fit_forest(np.zeros(5), np.zeros(4), ForestConfig())
    with pytest.raises(DataError):
        fit_forest(np.array([0.0, float("inf")]), np.zeros(2), ForestConfig())


def test_forest_text_round_trip(stamped):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(80)
    y = c**2 + 0.2 * rng.standard_normal(80)
    cfg = ForestConfig(n_trees=7, max_depth=4, min_leaf=2, seed=3)
    forest = fit_forest(c, y, cfg)
    text = stamped(forest_to_text(forest), ("config_hash=aa",))
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
        "n_trees": [
            good.replace("n_trees = 1\n", ""),
            good.replace("n_trees = 1\n", "n_trees = abc\n"),
            good.replace("n_trees = 1\n", "n_trees = inf\n"),
        ],
        # or repeating one, which is not left to overwrite the first
        "duplicate key 'n_trees'": [good.replace("n_trees = 1\n", "n_trees = 1\nn_trees = 5\n")],
        "max_depth": [good.replace("max_depth = ", "max_depth = deep")],
        # or holding a value ForestConfig.validate refuses
        "forest header: .* must be >= ": [
            good.replace("n_trees = 1\n", "n_trees = 0\n"),
            good.replace("max_depth = 6\n", "max_depth = -4\n"),
            good.replace("min_leaf = 5\n", "min_leaf = 0\n"),
        ],
    }
    for message, texts in bad_bodies.items():
        for text in texts:
            assert text != good
            with pytest.raises(UserError, match=message):
                forest_from_text(text)


def test_linear_model_refuses_an_unknown_key():
    # a misspelled coefficient is refused by its key, not dropped with its feature
    with pytest.raises(UserError, match="linear model file: unknown key 'coeff.sex'"):
        LinearModel.from_kv_text("intercept = 1.0\ncoeff.sex = 2.0\n")


def test_linear_model_refuses_a_repeated_key():
    # test_linear_model_refuses_a_bad_value_by_its_key covers the values
    text = LinearModel(("sex",), np.array([1.25]), intercept=3.75).to_kv_text()
    with pytest.raises(UserError, match="duplicate key 'coef.sex'"):
        LinearModel.from_kv_text(text + "coef.sex = 1.25\n")


# --- two-stage fair model ---------------------------------------------------------

def small_fair_model(tiny_dataset, mc=ModelConfig()):
    sc = SamplerConfig(iterations=300, burn_in=100, thin=2, seed=5)
    fc = ForestConfig(n_trees=8, max_depth=3, min_leaf=2, seed=1)
    chain = run_chain(tiny_dataset, mc, sc)
    model = fit_fair(tiny_dataset, chain, fc)
    return model, chain


def test_fit_fair_uses_posterior_medians_and_latent_means(tiny_dataset):
    model, chain = small_fair_model(tiny_dataset)
    assert model.theta_hat == chain.theta_median()
    refit = fit_forest(
        chain.latent_mean, np.asarray(tiny_dataset.credit, dtype=float), model.forest.config
    )
    grid = np.linspace(-2, 2, 40)
    assert np.array_equal(predict_forest(model.forest, grid), predict_forest(refit, grid))


def test_fit_fair_keeps_the_chains_model_config(tmp_path, tiny_dataset):
    # the fair model's config is the one its chain ran with, so a chain with
    # the credit intercept gives a model whose inference reads b_c, and whose
    # saved directory loads
    model, chain = small_fair_model(tiny_dataset, mc=ModelConfig(include_credit_intercept=True))
    assert model.model_config is chain.model_config
    assert model.theta_hat.b_c is not None
    save_fair_model(model, str(tmp_path / "m"))
    back = load_fair_model(str(tmp_path / "m"))
    for leaky in (False, True):
        assert np.array_equal(
            predict_fair(back, tiny_dataset, condition_on_credit=leaky),
            predict_fair(model, tiny_dataset, condition_on_credit=leaky),
        )


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
    save_fair_model(model, str(tmp_path / "m"), ("config_hash=11",))
    back = load_fair_model(str(tmp_path / "m"))
    assert back.theta_hat == model.theta_hat
    assert back.model_config == model.model_config
    test = tiny_dataset.subset(np.arange(5))
    assert np.array_equal(predict_fair(back, test), predict_fair(model, test))


def test_load_fair_model_missing_file(tmp_path):
    with pytest.raises(UserError, match="cannot read"):
        load_fair_model(str(tmp_path / "absent"))


def test_load_fair_model_undecodable_file(tmp_path, tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    save_fair_model(model, str(tmp_path / "m"))
    (tmp_path / "m" / "forest.txt").write_bytes(b"format = forest/2\n\xff\n")
    with pytest.raises(UserError, match="cannot read fair model file .*forest.txt: "):
        load_fair_model(str(tmp_path / "m"))


def test_load_fair_model_ignores_stale_sampler_keys(tmp_path, tiny_dataset):
    # config.kv once also recorded the stage-one sampler settings, and ended
    # with latent_point = mean, the forest's feature; prediction never read
    # the sampler keys, the mean is the only feature left, and a directory
    # that still holds them, even an invalid burn-in, loads and predicts
    # exactly as one without them
    model, _ = small_fair_model(tiny_dataset)
    save_fair_model(model, str(tmp_path / "new"))
    save_fair_model(model, str(tmp_path / "old"))
    config = tmp_path / "old" / "config.kv"
    stale = (
        "sampler.iterations = 400\n"
        "sampler.burn_in = 900\n"
        "sampler.thin = 2\n"
        "sampler.delta = 0.5\n"
        "sampler.param_step = 0.1\n"
        "sampler.adapt_during_burn_in = true\n"
        "sampler.target_accept = 0.35\n"
        "sampler.seed = 5\n"
    )
    config.write_text(
        stale + config.read_text(encoding="utf-8") + "latent_point = mean\n", encoding="utf-8"
    )
    new, old = load_fair_model(str(tmp_path / "new")), load_fair_model(str(tmp_path / "old"))
    assert old.theta_hat == new.theta_hat
    assert old.model_config == new.model_config
    for leaky in (False, True):
        assert np.array_equal(
            predict_fair(old, tiny_dataset, condition_on_credit=leaky),
            predict_fair(new, tiny_dataset, condition_on_credit=leaky),
        )


def test_load_fair_model_rejects_bad_config(tmp_path, tiny_dataset):
    model, _ = small_fair_model(tiny_dataset)
    save_fair_model(model, str(tmp_path / "m"))
    config = tmp_path / "m" / "config.kv"
    text = config.read_text(encoding="utf-8")

    # an older directory's forest, trained on another latent point, is refused
    for point in ("median", "bogus"):
        config.write_text(text + f"latent_point = {point}\n", encoding="utf-8")
        with pytest.raises(UserError, match=re.escape(f"{config}: latent_point = {point}")):
            load_fair_model(str(tmp_path / "m"))

    # a file cut before its last line loses a required key
    assert text.splitlines()[-1].startswith("model.poisson_rate_cap = ")
    config.write_text(text[: text.rindex("model.poisson_rate_cap")], encoding="utf-8")
    with pytest.raises(UserError, match="missing config key model.poisson_rate_cap"):
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

    # a coefficient that is not a finite number is refused on load, by its
    # key, not first at prediction; so is a repeated key
    assert params_text.count("b_j = ") == 1
    start = params_text.index("b_j = ")
    end = params_text.index("\n", start)
    for line, message in (
        ("b_j = abc", f"{params}: b_j must be a number, got 'abc'"),
        ("b_j = nan", f"{params}: b_j must be finite, got 'nan'"),
        ("b_j = inf", f"{params}: b_j must be finite, got 'inf'"),
        ("b_j = 0.5\nb_j = 0.5", "duplicate key 'b_j'"),
    ):
        params.write_text(params_text[:start] + line + params_text[end:], encoding="utf-8")
        with pytest.raises(UserError, match=re.escape(message)):
            load_fair_model(str(tmp_path / "m"))

    # a repeated key names the file it is in: params.kv, config.kv, or the
    # forest's header
    params.write_text(params_text.replace("b_j = ", "b_j = 0.5\nb_j = ", 1), encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{params} line 2: duplicate key 'b_j'")):
        load_fair_model(str(tmp_path / "m"))
    params.write_text(params_text, encoding="utf-8")
    config.write_text(text + "model.credit_scale = 2.0\n", encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{config} line ") + r"\d+: duplicate key 'model.credit_scale'"):
        load_fair_model(str(tmp_path / "m"))
    config.write_text(text, encoding="utf-8")
    forest = tmp_path / "m" / "forest.txt"
    forest_text = forest.read_text(encoding="utf-8")
    forest.write_text(forest_text.replace("n_trees = ", "n_trees = 1\nn_trees = ", 1), encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{forest}: forest header line ") + r"\d+: duplicate key 'n_trees'"):
        load_fair_model(str(tmp_path / "m"))
    forest.write_text(forest_text + "not an interval\n", encoding="utf-8")
    with pytest.raises(UserError, match=re.escape(f"{forest}: malformed forest interval line")):
        load_fair_model(str(tmp_path / "m"))
    forest.write_text(forest_text, encoding="utf-8")

    # an intercept model's params.kv cut before its last line loses b_c
    model, _ = small_fair_model(tiny_dataset, mc=ModelConfig(include_credit_intercept=True))
    save_fair_model(model, str(tmp_path / "b"))
    params = tmp_path / "b" / "params.kv"
    params_text = params.read_text(encoding="utf-8")
    assert params_text.splitlines()[-1].startswith("b_c = ")
    params.write_text(params_text[: params_text.rindex("b_c")], encoding="utf-8")
    with pytest.raises(UserError, match="b_c is missing"):
        load_fair_model(str(tmp_path / "b"))
