"""Autocorrelation, effective sample sizes, summaries, and plot exports."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

import faircredit
from faircredit.diagnostics import (
    SUMMARY_COLUMNS,
    _average_ranks,
    _normal_quantile,
    _rank_normalize,
    autocorrelation,
    ess_bulk,
    ess_tail,
    export_plot_data,
    summarize,
    summarize_series,
    summary_to_csv_text,
    write_summary_csv,
)
from faircredit.errors import DegenerateSeriesError
from faircredit.probmodel import ModelConfig
from faircredit.sampler import SamplerConfig, run_chain


def ar1(phi, n, seed=0):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


# --- autocorrelation ----------------------------------------------------------

def test_autocorrelation_lag_zero_is_exactly_one():
    x = np.random.default_rng(0).standard_normal(500)
    rho = autocorrelation(x, 10)
    assert rho[0] == 1.0
    assert rho.shape == (11,)


def test_autocorrelation_matches_direct_quadratic_oracle():
    x = np.random.default_rng(1).standard_normal(100)
    got = autocorrelation(x, 20)
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    want = [float(np.dot(xc[: 100 - k], xc[k:])) / denom for k in range(21)]
    assert got == pytest.approx(want, abs=1e-12)


def test_autocorrelation_alternating_series():
    # biased normalization: lag-1 value is -(n-1)/n
    x = np.tile([1.0, -1.0], 5)
    rho = autocorrelation(x, 1)
    assert rho[1] == pytest.approx(-0.9, abs=1e-12)


def test_autocorrelation_input_checks():
    x = np.random.default_rng(2).standard_normal(50)
    with pytest.raises(ValueError):
        autocorrelation(x, 50)
    with pytest.raises(ValueError):
        autocorrelation(x, -1)
    with pytest.raises(DegenerateSeriesError):
        autocorrelation(np.ones(50), 5)
    with pytest.raises(ValueError):
        autocorrelation(np.array([1.0, float("nan"), 2.0]), 1)
    with pytest.raises(ValueError):
        autocorrelation(np.ones((4, 4)), 1)


# --- effective sample size -------------------------------------------------------

@pytest.mark.parametrize(
    "x",
    [
        np.random.default_rng(3).standard_normal(501),
        np.round(np.random.default_rng(4).standard_normal(800), 1),
        np.array([2.0, 0.5, 2.0, -1.0, 0.5, 2.0]),
        np.full(9, 0.25),
        np.array([7.0]),
    ],
    ids=["untied", "tied", "tied_small", "constant", "single"],
)
def test_average_ranks_match_scipy_bitwise(x):
    ranks = _average_ranks(x)
    expected = rankdata(x, method="average")
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected)


def test_normal_quantile_matches_ndtri_within_8_ulp():
    p = np.concatenate([
        np.logspace(-300, -1, 30_001),
        np.linspace(0.0, 1.0, 200_001)[1:-1],
        1.0 - np.logspace(-16, -1, 30_001),
    ])
    np.testing.assert_array_max_ulp(_normal_quantile(p), ndtri(p), maxulp=8)


@pytest.mark.parametrize("n", [4, 100, 4000, 9866])
def test_rank_normalize_matches_ndtri_within_8_ulp(n):
    x = np.round(np.random.default_rng(n).standard_normal(n), 2)  # with ties
    expected = ndtri((rankdata(x) - 0.375) / (n + 0.25))
    np.testing.assert_array_max_ulp(_rank_normalize(x), expected, maxulp=8)


def test_import_loads_no_scipy_module():
    code = (
        "import sys, faircredit.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    src = os.path.dirname(os.path.dirname(faircredit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"


def test_ess_bulk_iid_near_n():
    x = np.random.default_rng(3).standard_normal(4000)
    e = ess_bulk(x)
    assert 2800 <= e <= 4000


def test_ess_bulk_correlated_chain_shrinks():
    # tau for AR(1) is (1+phi)/(1-phi) = 3 at phi = 0.5
    x = ar1(0.5, 2000, seed=4)
    e = ess_bulk(x)
    assert 2000 / 5 <= e <= 2000 / 2


def test_ess_bulk_invariant_under_monotone_transforms():
    # rank normalization sees only the ordering
    x = ar1(0.7, 1500, seed=5)
    assert ess_bulk(np.exp(x)) == ess_bulk(x)
    assert ess_bulk(x**3) == ess_bulk(x)


def test_ess_bulk_rejects_constant_and_short():
    with pytest.raises(DegenerateSeriesError):
        ess_bulk(np.full(100, 2.5))
    with pytest.raises(ValueError):
        ess_bulk(np.array([1.0, 2.0, 3.0]))


def test_ess_tail_is_min_over_quantile_indicators():
    x = ar1(0.6, 1200, seed=6)
    q05, q95 = np.quantile(x, [0.05, 0.95])
    want = min(ess_bulk((x <= q05).astype(float)), ess_bulk((x <= q95).astype(float)))
    assert ess_tail(x) == want


def test_ess_tail_skips_a_flat_indicator():
    # top 95 percent all tie, so the upper indicator never flips
    x = np.array([0.0] + [1.0] * 19 + [0.0] + [1.0] * 19)
    q05 = np.quantile(x, 0.05)
    want = ess_bulk((x <= q05).astype(float))
    assert ess_tail(x) == want


# --- summaries -------------------------------------------------------------------

def test_summarize_series_fields_match_numpy():
    x = np.random.default_rng(7).standard_normal(800) * 2.0 + 1.0
    row = summarize_series("theta", x)
    assert row.name == "theta"
    assert row.std == pytest.approx(float(np.std(x, ddof=1)))
    assert row.q05 == pytest.approx(float(np.quantile(x, 0.05)))
    assert row.median == pytest.approx(float(np.median(x)))
    assert row.q95 == pytest.approx(float(np.quantile(x, 0.95)))
    assert not row.degenerate
    assert row.ess_bulk == ess_bulk(x)


def test_summarize_series_constant_flagged_degenerate():
    row = summarize_series("flat", np.full(50, 3.25))
    assert row.degenerate
    assert row.std == 0.0
    assert row.q05 == row.median == row.q95 == 3.25
    assert math.isnan(row.ess_bulk) and math.isnan(row.ess_tail)


def test_summarize_series_too_short_for_ess():
    row = summarize_series("short", np.array([1.0, 2.0, 4.0]))
    assert row.degenerate
    assert math.isnan(row.ess_bulk)
    assert row.median == 2.0


def test_summarize_chain_rows_in_order(tiny_dataset, short_sampler_config):
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    rows = summarize(chain, latent_indices=(0, 3))
    assert [r.name for r in rows] == list(chain.param_names) + ["c_0", "c_3"]


def test_summary_csv_exact_header_and_formatting(tmp_path):
    x = np.random.default_rng(8).standard_normal(600)
    rows = [summarize_series("alpha", x)]
    text = summary_to_csv_text(rows, header_lines=("config_hash=00ff",))
    lines = text.splitlines()
    assert lines[0] == "# config_hash=00ff"
    assert lines[1] == "name,std,q05,median,q95,ess_bulk,ess_tail"
    assert lines[1] == ",".join(SUMMARY_COLUMNS)
    cells = lines[2].split(",")
    assert cells[0] == "alpha"
    assert cells[1] == f"{rows[0].std:.6g}"
    assert len(cells) == 7

    path = tmp_path / "summary.csv"
    write_summary_csv(rows, str(path))
    assert path.read_text() == summary_to_csv_text(rows)


# --- plot data -------------------------------------------------------------------

def test_export_plot_data_files(tmp_path):
    x = np.random.default_rng(9).standard_normal(300)
    paths = export_plot_data([("a", x)], str(tmp_path), max_lag=20, bins=10,
                             header_lines=("config_hash=beef",))
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert names == ["a_acf.csv", "a_hist.csv", "a_trace.csv"]

    trace = (tmp_path / "a_trace.csv").read_text().splitlines()
    assert trace[0] == "# config_hash=beef"
    assert trace[1] == "draw,value"
    assert len(trace) == 2 + 300
    assert float(trace[2].split(",")[1]) == x[0]

    acf = (tmp_path / "a_acf.csv").read_text().splitlines()
    assert acf[1] == "lag,rho"
    assert len(acf) == 2 + 21
    assert float(acf[2].split(",")[1]) == 1.0

    hist = (tmp_path / "a_hist.csv").read_text().splitlines()
    assert hist[1] == "bin_left,count"
    counts = [int(ln.split(",")[1]) for ln in hist[2:]]
    assert sum(counts) == 300 and len(counts) == 10


def test_export_plot_data_degenerate_acf(tmp_path):
    export_plot_data([("flat", np.ones(40))], str(tmp_path))
    acf = (tmp_path / "flat_acf.csv").read_text().splitlines()
    assert acf[0] == "# degenerate: constant series"
    assert acf[1] == "lag,rho"
    assert len(acf) == 2
    hist = (tmp_path / "flat_hist.csv").read_text().splitlines()
    assert hist == ["bin_left,count", "1.0,40"]


def test_export_plot_data_covers_every_parameter(tmp_path, tiny_dataset, short_sampler_config):
    # the pairs diagnose builds from a stored chain: every parameter column
    chain = run_chain(tiny_dataset, ModelConfig(), short_sampler_config)
    pairs = [(name, chain.param_draws[:, j]) for j, name in enumerate(chain.param_names)]
    paths = export_plot_data(pairs, str(tmp_path), max_lag=10, bins=8)
    assert len(paths) == 3 * len(chain.param_names)
    for name in chain.param_names:
        for kind in ("trace", "acf", "hist"):
            assert (tmp_path / f"{name}_{kind}.csv").exists()
