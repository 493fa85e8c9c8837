"""Command line front end.

Subcommands: ingest (raw CSV to model features plus distribution and
covariance tables), fit (one of the three predictors), diagnose (summary and
plot data from a stored chain), compare (the three-model report), synth
(generate from known parameters and measure recovery).

Configuration is a flat key-value text file (dotted keys, `k = v` lines, #
comments). Resolution order: built-in defaults, then --preset, then --config,
then individual flags. Every output file starts with a comment recording the
hash of the fully resolved configuration, and identical resolved configs
produce byte-identical outputs.
"""

import argparse
import math
import os
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from .dataset import (
    Dataset,
    PreprocessConfig,
    SplitSpec,
    generate_synthetic,
    load_csv,
    preprocess,
    read_processed_csv,
    split,
    write_processed_csv,
)
from .diagnostics import (
    SummaryRow,
    export_plot_data,
    summarize,
    summarize_series,
    summary_to_csv_text,
    write_summary_csv,
)
from .errors import ConfigError, FairCreditError, UserError
from .evaluation import compare_models, covariance_matrix, matrix_to_csv_text
from .predictors import ForestConfig, fit_fair, fit_full, fit_unaware, save_fair_model
from .probmodel import ModelConfig, ModelParams, PARAM_NAMES
from .sampler import Chain, SamplerConfig, export_chain, read_param_chain_csv, run_chain
from .util import atomic_write_text, format_kv_text, parse_bool, parse_kv_text, sha256_hex

_SYNTH_PARAM_DEFAULTS = {f"synth.param.{name}": "0.0" for name in PARAM_NAMES[:-1]}
_SYNTH_PARAM_DEFAULTS["synth.param.b_c"] = "none"

DEFAULTS: dict[str, str] = {
    "data.path": "data/german_synthetic.csv",
    "column.sex": "sex",
    "column.age": "age",
    "column.job": "job",
    "column.housing": "housing",
    "column.credit": "credit amount",
    "preprocess.job_threshold": "1",
    "preprocess.own_label": "own",
    "preprocess.standardize_age": "true",
    "split.train_count": "800",
    "split.seed": "0",
    "model.include_credit_intercept": "false",
    "model.credit_scale": "1.0",
    "model.poisson_rate_cap": "10000000.0",
    "sampler.iterations": "5000",
    "sampler.burn_in": "1000",
    "sampler.thin": "1",
    "sampler.delta": "0.5",
    "sampler.param_step": "0.1",
    "sampler.adapt_during_burn_in": "true",
    "sampler.target_accept": "0.35",
    "sampler.seed": "0",
    "forest.n_trees": "200",
    "forest.max_depth": "6",
    "forest.min_leaf": "5",
    "forest.seed": "0",
    "fair.latent_point": "mean",
    "fair.leaky": "false",
    "eval.age_mode": "mirror",
    "eval.age_years": "10.0",
    "out.dir": "out",
    "out.latent_columns": "10",
    "out.max_lag": "100",
    "out.bins": "40",
    "synth.n": "800",
    "synth.seed": "0",
    **_SYNTH_PARAM_DEFAULTS,
}

# paper: fixed step sizes, no credit intercept, raw credit counts.
# recommended: same model but with the credit intercept and burn-in step
# adaptation, which is what you want on new data.
PRESETS: dict[str, dict[str, str]] = {
    "paper": {
        "model.include_credit_intercept": "false",
        "model.credit_scale": "1.0",
        "sampler.iterations": "5000",
        "sampler.burn_in": "1000",
        "sampler.thin": "1",
        "sampler.delta": "0.5",
        "sampler.param_step": "0.1",
        "sampler.adapt_during_burn_in": "false",
    },
    "recommended": {
        "model.include_credit_intercept": "true",
        "sampler.adapt_during_burn_in": "true",
    },
}

SEED_KEYS = ("split.seed", "sampler.seed", "forest.seed", "synth.seed")

ACCEPT_RATE_BAND = (0.1, 0.7)
ESS_WARN_MIN = 100.0  # fit warns when a parameter's bulk ESS falls below this


def resolve_config(
    config_path: str | None,
    preset: str | None,
    seed: int | None,
    out_dir: str | None,
    leaky_fair: bool,
) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
        cfg.update(PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        fromfile = parse_kv_text(text, where=config_path)
        unknown = sorted(set(fromfile) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        cfg.update(fromfile)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
        # one master seed for every random stage
        for key in SEED_KEYS:
            cfg[key] = str(seed)
    for key in SEED_KEYS:
        if _get_int(cfg, key) < 0:
            raise ConfigError(f"config key {key} must be a non-negative integer, got {cfg[key]!r}")
    if out_dir is not None:
        cfg["out.dir"] = out_dir
    if leaky_fair:
        cfg["fair.leaky"] = "true"
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    return sha256_hex("\n".join(f"{k} = {v}" for k, v in sorted(cfg.items())))


def _get_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from None


def _get_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from None


def _get_bool(cfg: dict[str, str], key: str) -> bool:
    return parse_bool(cfg[key], key)


def _get_choice(cfg: dict[str, str], key: str, options: tuple[str, ...]) -> str:
    if cfg[key] not in options:
        raise ConfigError(f"config key {key} must be one of {options}, got {cfg[key]!r}")
    return cfg[key]


def _validated(value, section: str):
    """value after its validate(); a rejected value is the user's config error."""
    try:
        value.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from None
    return value


def build_model_config(cfg: dict[str, str]) -> ModelConfig:
    mc = ModelConfig(
        include_credit_intercept=_get_bool(cfg, "model.include_credit_intercept"),
        credit_scale=_get_float(cfg, "model.credit_scale"),
        poisson_rate_cap=_get_float(cfg, "model.poisson_rate_cap"),
    )
    return _validated(mc, "model")


def build_sampler_config(cfg: dict[str, str]) -> SamplerConfig:
    sc = SamplerConfig(
        iterations=_get_int(cfg, "sampler.iterations"),
        burn_in=_get_int(cfg, "sampler.burn_in"),
        thin=_get_int(cfg, "sampler.thin"),
        delta=_get_float(cfg, "sampler.delta"),
        param_step=_get_float(cfg, "sampler.param_step"),
        adapt_during_burn_in=_get_bool(cfg, "sampler.adapt_during_burn_in"),
        target_accept=_get_float(cfg, "sampler.target_accept"),
        seed=_get_int(cfg, "sampler.seed"),
    )
    return _validated(sc, "sampler")


def build_forest_config(cfg: dict[str, str]) -> ForestConfig:
    fc = ForestConfig(
        n_trees=_get_int(cfg, "forest.n_trees"),
        max_depth=_get_int(cfg, "forest.max_depth"),
        min_leaf=_get_int(cfg, "forest.min_leaf"),
        seed=_get_int(cfg, "forest.seed"),
    )
    fc.validate()
    return fc


def build_preprocess_config(cfg: dict[str, str]) -> PreprocessConfig:
    return PreprocessConfig(
        job_threshold=_get_int(cfg, "preprocess.job_threshold"),
        own_label=cfg["preprocess.own_label"],
        standardize_age=_get_bool(cfg, "preprocess.standardize_age"),
    )


def _column_map(cfg: dict[str, str]) -> dict[str, str] | None:
    # only explicit overrides; defaults fall back to the accepted candidates
    overrides = {}
    for field in ("sex", "age", "job", "housing", "credit"):
        key = f"column.{field}"
        if cfg[key] != DEFAULTS[key]:
            overrides[field] = cfg[key]
    return overrides or None


def _synth_truth(cfg: dict[str, str]) -> ModelParams:
    values = {name: _get_float(cfg, f"synth.param.{name}") for name in PARAM_NAMES[:-1]}
    b_c_raw = cfg["synth.param.b_c"]
    values["b_c"] = None if b_c_raw.lower() == "none" else _get_float(cfg, "synth.param.b_c")
    return _validated(ModelParams(**values), "synth.param")


def _latent_columns(n: int, want: int) -> tuple[int, ...]:
    """Evenly spaced latent indices for export, at most `want` of them."""
    if want <= 0:
        return ()
    if n <= want:
        return tuple(range(n))
    return tuple(np.unique(np.round(np.linspace(0, n - 1, want)).astype(int)).tolist())


# ---------------------------------------------------------------------------
# commands

def _write_resolved_config(cfg: dict[str, str], header: tuple[str, ...]) -> None:
    out = cfg["out.dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {out!r}: {exc.strerror}") from None
    path = os.path.join(out, "config.kv")
    atomic_write_text(path, format_kv_text(dict(sorted(cfg.items())), header))


def _ingest(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    records = load_csv(cfg["data.path"], _column_map(cfg))
    data = preprocess(records, build_preprocess_config(cfg))
    out = cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    write_processed_csv(data, os.path.join(out, "preprocessed.csv"), header)

    def counts_csv(name: str, pairs) -> None:
        lines = [f"# {h}" for h in header] + ["value,count"]
        lines += [f"{v},{c}" for v, c in pairs]
        atomic_write_text(os.path.join(out, f"dist_{name}.csv"), "\n".join(lines) + "\n")

    counts_csv("sex", sorted(Counter(r.sex for r in records).items()))
    counts_csv("age", sorted(Counter(r.age for r in records).items()))
    counts_csv("job", sorted(Counter(r.job for r in records).items()))
    counts_csv("housing", sorted(Counter(r.housing for r in records).items()))
    credit = np.array([r.credit_amount for r in records], dtype=float)
    bins = _get_int(cfg, "out.bins")
    hist, edges = np.histogram(credit, bins=bins)
    lines = [f"# {h}" for h in header] + ["bin_left,count"]
    lines += [f"{float(edges[b])!r},{int(hist[b])}" for b in range(bins)]
    atomic_write_text(os.path.join(out, "dist_credit.csv"), "\n".join(lines) + "\n")

    names, cov = covariance_matrix(data, correlation=False)
    atomic_write_text(os.path.join(out, "covariance.csv"), matrix_to_csv_text(names, cov, header))
    _, corr = covariance_matrix(data, correlation=True)
    atomic_write_text(os.path.join(out, "correlation.csv"), matrix_to_csv_text(names, corr, header))
    return len(records)


def cmd_ingest(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    n = _ingest(cfg, header)
    print(f"ingested {n} rows from {cfg['data.path']}")
    print(
        f"wrote {cfg['out.dir']}/: preprocessed.csv, dist_*.csv, "
        "covariance.csv, correlation.csv"
    )
    return 0


def _load_splits(cfg: dict[str, str], header: tuple[str, ...]):
    path = os.path.join(cfg["out.dir"], "preprocessed.csv")
    if not os.path.exists(path):
        n = _ingest(cfg, header)
        print(f"(auto-ingested {n} rows from {cfg['data.path']})")
    data = read_processed_csv(path)
    spec = SplitSpec(train_count=_get_int(cfg, "split.train_count"), seed=_get_int(cfg, "split.seed"))
    return split(data, spec)


def cmd_fit(cfg: dict[str, str], header: tuple[str, ...], model: str) -> int:
    train, _ = _load_splits(cfg, header)
    out = cfg["out.dir"]
    if model in ("full", "unaware"):
        fitted = fit_full(train) if model == "full" else fit_unaware(train)
        path = os.path.join(out, f"model_{model}.kv")
        atomic_write_text(path, fitted.to_kv_text(header))
        terms = ", ".join(
            f"{n}={b:.4g}" for n, b in zip(fitted.feature_names, fitted.coefficients)
        )
        print(f"{model} model: intercept={fitted.intercept:.6g}, {terms}")
        print(f"wrote {path}")
        return 0

    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    chain = run_chain(train, mc, sc)
    lat_cols = _latent_columns(len(train), _get_int(cfg, "out.latent_columns"))
    export_chain(chain, out, latent_indices=lat_cols, header_lines=header)
    summary = summarize(chain)
    write_summary_csv(summary, os.path.join(out, "summary.csv"), header)
    fair = fit_fair(
        train, mc, sc, build_forest_config(cfg),
        latent_point=_get_choice(cfg, "fair.latent_point", ("mean", "median")),
        chain=chain,
    )
    save_fair_model(fair, os.path.join(out, "model_fair"), header)

    print(f"fair model: {chain.n_draws()} stored draws over {len(train)} observations")
    lo, hi = ACCEPT_RATE_BAND
    for name, rate in zip(chain.param_names, chain.accept_rate_params):
        note = "" if lo <= rate <= hi else f"  <-- outside [{lo}, {hi}]"
        print(f"  accept({name}) = {rate:.3f}{note}")
    rate = chain.accept_rate_latents
    note = "" if lo <= rate <= hi else f"  <-- outside [{lo}, {hi}]"
    print(f"  accept(latents) = {rate:.3f}{note}")
    _warn_if_unmixed(summary)
    print(f"wrote {out}/: params.csv, latents.csv, summary.csv, model_fair/")
    return 0


def mixing_warning(rows: Sequence[SummaryRow]) -> str | None:
    """The warning for the parameter with the worst bulk ESS, if it is below
    ESS_WARN_MIN. A NaN ESS (constant draws, or too few to estimate) is worst."""
    worst = min(rows, key=lambda r: -math.inf if math.isnan(r.ess_bulk) else r.ess_bulk)
    if worst.ess_bulk >= ESS_WARN_MIN:
        return None
    return (
        f"warning: worst bulk ESS is {worst.ess_bulk:.4g} ({worst.name}), below "
        f"{ESS_WARN_MIN:g}: the chain has not mixed, so its estimates are unreliable; "
        "raise sampler.iterations"
    )


def _warn_if_unmixed(summary: Sequence[SummaryRow]) -> None:
    warning = mixing_warning(summary)
    if warning:
        print(warning, file=sys.stderr)


def _warned_chain(train: Dataset, mc: ModelConfig, sc: SamplerConfig) -> Chain:
    """run_chain, with fit's mixing warning on stderr."""
    chain = run_chain(train, mc, sc)
    _warn_if_unmixed(summarize(chain))
    return chain


def cmd_diagnose(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    out = cfg["out.dir"]
    chain_path = os.path.join(out, "params.csv")
    names, draws = read_param_chain_csv(chain_path)
    rows = [summarize_series(name, draws[:, j]) for j, name in enumerate(names)]
    write_summary_csv(rows, os.path.join(out, "summary.csv"), header)
    plot_dir = os.path.join(out, "plots")
    export_plot_data(
        [(name, draws[:, j]) for j, name in enumerate(names)],
        plot_dir,
        max_lag=min(_get_int(cfg, "out.max_lag"), draws.shape[0] - 1),
        bins=_get_int(cfg, "out.bins"),
        header_lines=header,
    )
    sys.stdout.write(summary_to_csv_text(rows))
    print(f"wrote {out}/summary.csv and {plot_dir}/ (trace, acf, hist per parameter)")
    return 0


def cmd_compare(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    train, test = _load_splits(cfg, header)
    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    report = compare_models(
        train,
        test,
        mc,
        sc,
        build_forest_config(cfg),
        latent_point=_get_choice(cfg, "fair.latent_point", ("mean", "median")),
        age_mode=_get_choice(cfg, "eval.age_mode", ("mirror", "shift")),
        age_years=_get_float(cfg, "eval.age_years"),
        split_seed=_get_int(cfg, "split.seed"),
        leaky_headline=_get_bool(cfg, "fair.leaky"),
        # a temporary, not a local: compare_models then holds the only
        # reference and frees the draws before test-time inference
        chain=_warned_chain(train, mc, sc),
    )
    path = os.path.join(cfg["out.dir"], "compare.csv")
    atomic_write_text(path, report.to_csv_text(header))
    sys.stdout.write(report.to_text_table())
    print(f"wrote {path}")
    return 0


def cmd_synth(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    truth = _synth_truth(cfg)
    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    data, true_c = generate_synthetic(
        truth, _get_int(cfg, "synth.n"), _get_int(cfg, "synth.seed"),
        rate_cap=mc.poisson_rate_cap,
    )
    out = cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    write_processed_csv(data, os.path.join(out, "synthetic.csv"), header)
    lines = [f"# {h}" for h in header] + ["index,c"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(true_c)]
    atomic_write_text(os.path.join(out, "true_latents.csv"), "\n".join(lines) + "\n")

    chain = run_chain(data, mc, sc)
    medians = chain.theta_median().to_vector(include_credit_intercept=mc.include_credit_intercept)
    truth_vec = np.array(
        [getattr(truth, name) for name in PARAM_NAMES[:-1]]
        + ([truth.b_c if truth.b_c is not None else 0.0] if mc.include_credit_intercept else [])
    )
    corr = float(np.corrcoef(chain.latent_means(), true_c)[0, 1])

    lines = [f"# {h}" for h in header]
    lines.append(f"# latent_corr={corr:.6g}")
    lines.append("name,truth,median,abs_error")
    for name, t, m in zip(chain.param_names, truth_vec, medians):
        lines.append(f"{name},{t:.6g},{m:.6g},{abs(m - t):.6g}")
    path = os.path.join(out, "recovery.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")

    print(f"synthetic run: n={len(data)}, {len(chain.param_names)} parameter errors reported")
    worst = max(range(len(chain.param_names)), key=lambda j: abs(medians[j] - truth_vec[j]))
    print(
        f"worst recovery: {chain.param_names[worst]} "
        f"(truth {truth_vec[worst]:.4g}, median {medians[worst]:.4g})"
    )
    print(f"corr(inferred latent means, true latents) = {corr:.4f}")
    print(f"wrote {out}/: synthetic.csv, true_latents.csv, recovery.csv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key-value config file")
    common.add_argument("--seed", type=int, metavar="N", help="master seed, overrides config seeds")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument(
        "--preset", choices=sorted(PRESETS), help="named config bundle applied before --config"
    )
    common.add_argument(
        "--leaky-fair",
        action="store_true",
        help="headline the paper-protocol fair test score (test latents see credit)",
    )

    parser = argparse.ArgumentParser(
        prog="faircredit",
        description="counterfactually fair credit prediction via a latent reliability score",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="preprocess the raw CSV and export tables")
    fit = sub.add_parser("fit", parents=[common], help="fit one model on the train split")
    fit.add_argument("--model", choices=("full", "unaware", "fair"), default="fair")
    sub.add_parser("diagnose", parents=[common], help="summarize a stored parameter chain")
    sub.add_parser("compare", parents=[common], help="fit and score all three models")
    sub.add_parser("synth", parents=[common], help="generate synthetic data and check recovery")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.preset, args.seed, args.out, args.leaky_fair)
        header = (f"config_hash={config_hash(cfg)}",)
        _write_resolved_config(cfg, header)
        if args.command == "ingest":
            return cmd_ingest(cfg, header)
        if args.command == "fit":
            return cmd_fit(cfg, header, args.model)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, header)
        if args.command == "compare":
            return cmd_compare(cfg, header)
        if args.command == "synth":
            return cmd_synth(cfg, header)
        raise AssertionError(f"unhandled command {args.command!r}")
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FairCreditError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
