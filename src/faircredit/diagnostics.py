"""Convergence diagnostics: autocorrelation, effective sample sizes, summaries.

Conventions used throughout: autocorrelations use the biased (divide by n)
normalization; bulk ESS rank-normalizes the series before applying the
initial-positive-sequence truncated sum of autocorrelations; tail ESS is the
smaller ESS of the two indicator series for the 5% and 95% quantiles;
quantiles are linear-interpolation (type 7); standard deviations divide by
n - 1. ESS values are clamped into (0, n].
"""

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateSeriesError
from .sampler import Chain
from .util import atomic_write_text

SUMMARY_COLUMNS = ("name", "std", "q05", "median", "q95", "ess_bulk", "ess_tail")


@dataclass
class SummaryRow:
    """One quantity's posterior summary."""

    name: str
    std: float
    q05: float
    median: float
    q95: float
    ess_bulk: float
    ess_tail: float
    degenerate: bool = False


def _as_series(series, min_len: int = 2) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if x.shape[0] < min_len:
        raise ValueError(f"series needs at least {min_len} values, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    return x


def _autocorr_full(x: np.ndarray) -> np.ndarray:
    """All-lag autocorrelations with the biased 1/n normalization, via FFT."""
    n = x.shape[0]
    xc = x - np.mean(x)
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise DegenerateSeriesError("constant series: autocorrelation undefined")
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n]
    return acov / denom


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """rho[0..max_lag]; rho[0] is exactly 1."""
    x = _as_series(series)
    n = x.shape[0]
    if not (0 <= max_lag < n):
        raise ValueError(f"max_lag must lie in [0, {n}), got {max_lag}")
    rho = _autocorr_full(x)[: max_lag + 1].copy()
    rho[0] = 1.0
    return rho


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks (as scipy's rankdata
    with method="average"; every rank is a whole or half number, so exact)."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    # average ranks, then the usual offset normal-quantile transform
    n = x.shape[0]
    return ndtri((_average_ranks(x) - 0.375) / (n + 0.25))


def _tau_geyer(rho: np.ndarray) -> float:
    """Truncated integrated autocorrelation time 1 + 2*sum(rho).

    The sum stops before the first paired sum rho[2t] + rho[2t+1] that is not
    positive (initial positive sequence rule).
    """
    m = rho.shape[0] // 2  # number of complete (2t, 2t+1) pairs, t >= 0
    if m < 1:
        return 1.0
    pairs = rho[0 : 2 * m : 2] + rho[1 : 2 * m : 2]
    bad = np.nonzero(pairs <= 0.0)[0]
    stop = int(bad[0]) if bad.size else int(pairs.shape[0])
    return 2.0 * float(np.sum(pairs[:stop])) - 1.0


def ess_bulk(series) -> float:
    """Effective sample size of the rank-normalized series, clamped to (0, n]."""
    x = _as_series(series, min_len=4)
    if np.all(x == x[0]):
        raise DegenerateSeriesError("constant series: ESS undefined")
    n = x.shape[0]
    z = _rank_normalize(x)
    rho = _autocorr_full(z)
    rho[0] = 1.0
    tau = _tau_geyer(rho)
    if tau <= 0.0 or not math.isfinite(tau):
        return float(n)  # superefficient antithetic chain; clamp at n
    return float(min(n / tau, n))


def ess_tail(series) -> float:
    """min ESS over the 5% and 95% quantile indicator series.

    An indicator that never flips (heavy ties at one extreme) is skipped;
    both flat means the tails carry no information and that raises.
    """
    x = _as_series(series, min_len=4)
    if np.all(x == x[0]):
        raise DegenerateSeriesError("constant series: ESS undefined")
    q05, q95 = np.quantile(x, [0.05, 0.95])
    out = []
    for q in (q05, q95):
        indicator = (x <= q).astype(float)
        if np.all(indicator == indicator[0]):
            continue
        out.append(ess_bulk(indicator))
    if not out:
        raise DegenerateSeriesError("both tail indicator series are constant")
    return float(min(out))


def summarize_series(name: str, x: np.ndarray) -> SummaryRow:
    x = _as_series(x)
    if np.all(x == x[0]):
        v = float(x[0])
        return SummaryRow(
            name=name, std=0.0, q05=v, median=v, q95=v,
            ess_bulk=float("nan"), ess_tail=float("nan"), degenerate=True,
        )
    q05, med, q95 = np.quantile(x, [0.05, 0.5, 0.95])
    std = float(np.std(x, ddof=1))
    if x.shape[0] < 4:
        # too short for an autocorrelation-based ESS; flag instead of guessing
        return SummaryRow(
            name=name, std=std, q05=float(q05), median=float(med), q95=float(q95),
            ess_bulk=float("nan"), ess_tail=float("nan"), degenerate=True,
        )
    try:
        tail = ess_tail(x)
    except DegenerateSeriesError:
        tail = float("nan")
    return SummaryRow(
        name=name,
        std=std,
        q05=float(q05),
        median=float(med),
        q95=float(q95),
        ess_bulk=ess_bulk(x),
        ess_tail=tail,
    )


def summarize(chain: Chain, latent_indices: Sequence[int] = ()) -> list[SummaryRow]:
    """Summary rows in chain order: every parameter, then any requested latents.

    Constant series do not raise here; their rows are marked degenerate and
    carry NaN ESS fields.
    """
    rows = []
    for j, name in enumerate(chain.param_names):
        rows.append(summarize_series(name, chain.param_draws[:, j]))
    for i in latent_indices:
        rows.append(summarize_series(f"c_{int(i)}", chain.latent_draws[:, int(i)]))
    return rows


def summary_to_csv_text(rows: Sequence[SummaryRow], header_lines: tuple[str, ...] = ()) -> str:
    """CSV with 6 significant digits per value."""
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(SUMMARY_COLUMNS))
    for r in rows:
        lines.append(
            f"{r.name},{r.std:.6g},{r.q05:.6g},{r.median:.6g},{r.q95:.6g},"
            f"{r.ess_bulk:.6g},{r.ess_tail:.6g}"
        )
    return "\n".join(lines) + "\n"


def write_summary_csv(
    rows: Sequence[SummaryRow], path: str, header_lines: tuple[str, ...] = ()
) -> None:
    atomic_write_text(path, summary_to_csv_text(rows, header_lines))


def export_plot_data(
    named_series: Sequence[tuple[str, np.ndarray]],
    out_dir: str,
    max_lag: int = 100,
    bins: int = 40,
    header_lines: tuple[str, ...] = (),
) -> list[str]:
    """Per-series trace, autocorrelation, and histogram CSVs.

    Writes <name>_trace.csv (draw,value), <name>_acf.csv (lag,rho), and
    <name>_hist.csv (bin_left,count). Histogram counts sum to the draw count.
    A constant series gets an empty acf file marked degenerate.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    head = [f"# {h}" for h in header_lines]
    for name, raw in named_series:
        x = _as_series(raw)
        n = x.shape[0]

        lines = head + ["draw,value"]
        lines += [f"{d},{float(v)!r}" for d, v in enumerate(x)]
        p = os.path.join(out_dir, f"{name}_trace.csv")
        atomic_write_text(p, "\n".join(lines) + "\n")
        paths.append(p)

        lines = head + ["lag,rho"]
        try:
            rho = autocorrelation(x, min(max_lag, n - 1))
            lines += [f"{lag},{float(r)!r}" for lag, r in enumerate(rho)]
        except DegenerateSeriesError:
            lines = head + ["# degenerate: constant series", "lag,rho"]
        p = os.path.join(out_dir, f"{name}_acf.csv")
        atomic_write_text(p, "\n".join(lines) + "\n")
        paths.append(p)

        lines = head + ["bin_left,count"]
        lo, hi = float(np.min(x)), float(np.max(x))
        if lo == hi:
            lines.append(f"{lo!r},{n}")
        else:
            counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
            lines += [f"{float(edges[b])!r},{int(counts[b])}" for b in range(bins)]
        p = os.path.join(out_dir, f"{name}_hist.csv")
        atomic_write_text(p, "\n".join(lines) + "\n")
        paths.append(p)
    return paths

