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
    """1-based ranks, ties sharing the mean of their ranks (the "average"
    method; every rank is a whole or half number, so exact)."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


# Wichura's AS241 (PPND16) coefficients, highest power first: central region
# |p - 0.5| <= 0.425 (A/B), then r = sqrt(-log(min(p, 1 - p))) for r <= 5
# (C/D) and r > 5 (E/F).
_AS241_A = (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
            45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
            133.14166789178437745, 3.387132872796366608)
_AS241_B = (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
            21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
            42.313330701600911252, 1.0)
_AS241_C = (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
            1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
            4.6303378461565452959, 1.42343711074968357734)
_AS241_D = (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
            0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
            2.05319162663775882187, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
            0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
            5.4637849111641143699, 6.6579046435011037772)
_AS241_F = (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
            7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
            0.59983220655588793769, 1.0)


def _horner(coefs: tuple, r: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, highest power first, at r.

    The same operations as np.polyval, so the same bits, but in place: about
    half its time."""
    y = np.full_like(r, coefs[0])
    for c in coefs[1:]:
        y *= r
        y += c
    return y


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), by Wichura's AS241 (Appl.
    Stat. 37:477-484, algorithm PPND16): rational approximations accurate to
    about 1e-16 relative, each evaluated on its own region only."""
    q = p - 0.5
    t = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = qc * _horner(_AS241_A, r) / _horner(_AS241_B, r)
    for region, num, den, shift in (
        (~central & (t <= 5.0), _AS241_C, _AS241_D, 1.6),
        (~central & (t > 5.0), _AS241_E, _AS241_F, 5.0),
    ):
        r = t[region] - shift
        x[region] = np.copysign(_horner(num, r) / _horner(den, r), q[region])
    return x


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Average ranks mapped through the normal quantile at the offset
    (rank - 3/8) / (n + 1/4) (Blom), as rank-normalized ESS prescribes. The
    quantile is AS241, which numpy lacks; it keeps the package numpy-only."""
    n = x.shape[0]
    return _normal_quantile((_average_ranks(x) - 0.375) / (n + 0.25))


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

