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
import dataclasses
import math
import os
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from .dataset import (
    AGE_MAX,
    AGE_MIN,
    Dataset,
    PreprocessConfig,
    RawRecord,
    SplitSpec,
    generate_synthetic,
    load_csv,
    preprocess,
    split,
    write_processed_csv,
)
from .diagnostics import (
    ess_bulk_or_nan,
    export_plot_data,
    histogram_csv_text,
    summarize,
    summary_to_csv_text,
)
from .errors import ConfigError, FairCreditError, RateCapError, UserError
from .evaluation import compare_models, covariance_matrix, matrix_to_csv_text
from .predictors import ForestConfig, fit_fair, fit_full, fit_unaware, save_fair_model
from .probmodel import LATENT_SLOPES, ModelConfig, ModelParams, PARAM_NAMES
from .sampler import Chain, SamplerConfig, export_chain, read_param_chain_csv, run_chain
from .util import (
    atomic_write_text,
    check_seed,
    config_from_items,
    config_items,
    format_kv_text,
    output_dir,
    parse_kv_text,
    parse_value,
    read_text,
    sha256_hex,
    validated,
)

_SYNTH_PARAM_DEFAULTS = {f"synth.param.{name}": "0.0" for name in PARAM_NAMES[:-1]}
_SYNTH_PARAM_DEFAULTS["synth.param.b_c"] = "none"

DEFAULTS: dict[str, str] = {
    "data.path": "data/german_synthetic.csv",
    "column.sex": "sex",
    "column.age": "age",
    "column.job": "job",
    "column.housing": "housing",
    "column.credit": "credit amount",
    **config_items(PreprocessConfig(), "preprocess."),
    "split.train_count": "800",
    "split.seed": "0",
    **config_items(ModelConfig(), "model."),
    **config_items(SamplerConfig(), "sampler."),
    **config_items(ForestConfig(), "forest."),
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

# paper: the paper's model (no credit intercept, raw credit counts) and run
# length. Its values are written out so that a changed default does not move
# them; every proposal scales itself by the state, so the run length is all
# it pins of the sampler. recommended: the credit intercept, which is what
# you want on new data.
PRESETS: dict[str, dict[str, str]] = {
    "paper": {
        "model.include_credit_intercept": "false",
        "model.credit_scale": "1.0",
        "sampler.iterations": "5000",
        "sampler.burn_in": "1000",
        "sampler.thin": "1",
    },
    "recommended": {"model.include_credit_intercept": "true"},
}

SEED_KEYS = ("split.seed", "sampler.seed", "forest.seed", "synth.seed")

ACCEPT_RATE_BAND = (0.1, 0.7)
ESS_WARN_MIN = 100.0  # fit warns when a parameter's bulk ESS falls below this


def resolve_config(
    config_path: str | None,
    preset: str | None,
    seed: int | None,
    out_dir: str | None,
) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
        cfg.update(PRESETS[preset])
    if config_path is not None:
        text = read_text(config_path, ConfigError, "config ")
        fromfile = parse_kv_text(text, where=config_path)
        unknown = sorted(set(fromfile) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        cfg.update(fromfile)
    if seed is not None:
        # one master seed for every random stage
        cfg.update(dict.fromkeys(SEED_KEYS, str(check_seed(seed, "--seed"))))
    for key in SEED_KEYS:
        check_seed(_get(cfg, key, int), f"config key {key}")
    for key, least in (("out.bins", 1), ("out.max_lag", 0), ("out.latent_columns", 0)):
        if _get(cfg, key, int) < least:
            raise ConfigError(f"config key {key} must be an integer >= {least}, got {cfg[key]!r}")
    span = AGE_MAX - AGE_MIN
    if not abs(_get(cfg, "eval.age_years", float)) <= span:  # also refuses nan
        raise ConfigError(
            f"config key eval.age_years must be a number in [-{span}, {span}], "
            f"got {cfg['eval.age_years']!r}"
        )
    if out_dir is not None:
        cfg["out.dir"] = out_dir
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    return sha256_hex("\n".join(f"{k} = {v}" for k, v in sorted(cfg.items())))


def _get(cfg: dict[str, str], key: str, kind: type):
    return parse_value(cfg[key], kind, key)


def _get_choice(cfg: dict[str, str], key: str, options: tuple[str, ...]) -> str:
    if cfg[key] not in options:
        raise ConfigError(f"config key {key} must be one of {options}, got {cfg[key]!r}")
    return cfg[key]


def build_model_config(cfg: dict[str, str]) -> ModelConfig:
    return validated("invalid model config", config_from_items, ModelConfig, cfg, "model.")


def build_sampler_config(cfg: dict[str, str]) -> SamplerConfig:
    sc = validated("invalid sampler config", config_from_items, SamplerConfig, cfg, "sampler.")
    # a chain is summarized from its kept draws, which takes at least two
    if sc.n_draws() < 2:
        raise ConfigError(
            "sampler.iterations, sampler.burn_in and sampler.thin keep "
            f"({sc.iterations} - {sc.burn_in}) // {sc.thin} = {sc.n_draws()} draws; "
            "at least 2 are needed"
        )
    return sc


def build_forest_config(cfg: dict[str, str]) -> ForestConfig:
    return validated("invalid forest config", config_from_items, ForestConfig, cfg, "forest.")


def build_preprocess_config(cfg: dict[str, str]) -> PreprocessConfig:
    return config_from_items(PreprocessConfig, cfg, "preprocess.")


def _column_map(cfg: dict[str, str]) -> dict[str, str] | None:
    # only explicit overrides; defaults fall back to the accepted candidates
    overrides = {}
    for field in ("sex", "age", "job", "housing", "credit"):
        key = f"column.{field}"
        if cfg[key] != DEFAULTS[key]:
            overrides[field] = cfg[key]
    return overrides or None


def _synth_truth(cfg: dict[str, str]) -> ModelParams:
    values = {name: _get(cfg, f"synth.param.{name}", float) for name in PARAM_NAMES[:-1]}
    b_c_raw = cfg["synth.param.b_c"]
    values["b_c"] = None if b_c_raw.lower() == "none" else _get(cfg, "synth.param.b_c", float)
    return validated("invalid synth.param config", ModelParams, **values)


def _latent_columns(n: int, want: int) -> tuple[int, ...]:
    """Evenly spaced latent indices for export, at most `want` of them."""
    if n <= want:
        return tuple(range(n))
    # the points lie more than 1 apart, so rounding keeps them distinct
    return tuple(np.round(np.linspace(0, n - 1, want)).astype(int).tolist())


# ---------------------------------------------------------------------------
# commands

def _read_data(cfg: dict[str, str]) -> tuple[list[RawRecord], Dataset]:
    """The raw records of data.path and the dataset that column.* and
    preprocess.* make of them."""
    records = load_csv(cfg["data.path"], _column_map(cfg))
    return records, preprocess(records, build_preprocess_config(cfg))


# the config key that makes each column of the dataset from the raw records
_COLUMN_KEYS = {
    "age_std": "column.age",
    "sex": "column.sex",
    "job": "preprocess.job_threshold",
    "house": "preprocess.own_label",
    "credit": "column.credit",
}


def _ingest(
    cfg: dict[str, str], records: list[RawRecord], data: Dataset
) -> Callable[[tuple[str, ...]], None]:
    """The function that writes ingest's outputs under a header. Each is
    computed, and the correlation check made, before it is returned, so a
    refused ingest writes none, and a command that ingests writes them only
    once its own work is done, so a refused command writes none either."""
    texts = {}
    for name in ("sex", "age", "job", "housing"):
        pairs = sorted(Counter(getattr(r, name) for r in records).items())
        texts[f"dist_{name}.csv"] = "value,count\n" + "".join(f"{v},{c}\n" for v, c in pairs)
    credit = np.array([r.credit_amount for r in records], dtype=float)
    texts["dist_credit.csv"] = histogram_csv_text(credit, _get(cfg, "out.bins", int))
    names, cov = covariance_matrix(data, correlation=False)
    flat = [name for name, var in zip(names, np.diag(cov)) if var == 0.0]
    if flat:
        key = _COLUMN_KEYS[flat[0]]
        raise ConfigError(
            f"column {flat[0]!r} is constant, so its correlation is undefined; "
            f"check config key {key} (= {cfg[key]!r})"
        )
    texts["covariance.csv"] = matrix_to_csv_text(names, cov)
    _, corr = covariance_matrix(data, correlation=True)
    texts["correlation.csv"] = matrix_to_csv_text(names, corr)

    def write(header: tuple[str, ...]) -> None:
        out = cfg["out.dir"]
        write_processed_csv(data, os.path.join(out, "preprocessed.csv"), header)
        for name, text in texts.items():
            atomic_write_text(os.path.join(out, name), text, header)

    return write


def cmd_ingest(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    records, data = _read_data(cfg)
    _ingest(cfg, records, data)(header)
    print(f"ingested {len(records)} rows from {cfg['data.path']}")
    print(
        f"wrote {cfg['out.dir']}/: preprocessed.csv, dist_*.csv, "
        "covariance.csv, correlation.csv"
    )
    return 0


def _load_splits(cfg: dict[str, str]):
    """The train and test splits of the dataset that the config's data.path,
    column.* and preprocess.* keys make, and the writer of ingest's outputs
    for it (_ingest), which replace any in out.dir."""
    spec = SplitSpec(train_count=_get(cfg, "split.train_count", int), seed=_get(cfg, "split.seed", int))
    records, data = _read_data(cfg)
    write_ingest = _ingest(cfg, records, data)
    print(f"(auto-ingested {len(records)} rows from {cfg['data.path']})")
    return split(data, spec), write_ingest


def cmd_fit(cfg: dict[str, str], header: tuple[str, ...], model: str) -> int:
    out = cfg["out.dir"]
    if model in ("full", "unaware"):
        (train, _), write_ingest = _load_splits(cfg)
        fitted = fit_full(train) if model == "full" else fit_unaware(train)
        write_ingest(header)
        path = os.path.join(out, f"model_{model}.kv")
        atomic_write_text(path, fitted.to_kv_text(), header)
        terms = ", ".join(
            f"{n}={b:.4g}" for n, b in zip(fitted.feature_names, fitted.coefficients)
        )
        print(f"{model} model: intercept={fitted.intercept:.6g}, {terms}")
        print(f"wrote {path}")
        return 0

    # every config is read before any work, so a bad one runs no chain
    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    fc = build_forest_config(cfg)
    (train, _), write_ingest = _load_splits(cfg)
    chain = run_chain(
        train, mc, sc,
        latent_columns=_latent_columns(len(train), _get(cfg, "out.latent_columns", int)),
    )
    write_ingest(header)
    export_chain(chain, out, header)
    summary = summarize(chain.param_names, chain.param_draws)
    atomic_write_text(os.path.join(out, "summary.csv"), summary_to_csv_text(summary), header)
    fair = fit_fair(train, chain, fc)
    save_fair_model(fair, os.path.join(out, "model_fair"), header)

    print(f"fair model: {chain.n_draws()} stored draws over {len(train)} observations")
    # one line per block: a head's parameters share its block's rate
    lo, hi = ACCEPT_RATE_BAND
    rates = [*chain.accept_rate_params[list(LATENT_SLOPES)].tolist(), chain.accept_rate_latents]
    for name, rate in zip(("job", "house", "credit", "latents"), rates):
        note = "" if lo <= rate <= hi else f"  <-- outside [{lo}, {hi}]"
        print(f"  accept({name}) = {rate:.3f}{note}")
    print(f"  likelihood errors = {chain.n_likelihood_errors}")
    _warn_if_unmixed((row.name, row.ess_bulk) for row in summary)
    print(f"wrote {out}/: params.csv, latents.csv, summary.csv, model_fair/")
    return 0


def mixing_warning(bulk_ess: Iterable[tuple[str, float]]) -> str | None:
    """The warning for the parameter with the worst bulk ESS, of (name, bulk
    ESS) pairs, if it is below ESS_WARN_MIN. A NaN ESS (constant draws, or too
    few to estimate) is worst."""
    name, worst = min(bulk_ess, key=lambda p: -math.inf if math.isnan(p[1]) else p[1])
    if worst >= ESS_WARN_MIN:
        return None
    return (
        f"warning: worst bulk ESS is {worst:.4g} ({name}), below "
        f"{ESS_WARN_MIN:g}: the chain has not mixed, so its estimates are unreliable; "
        "raise sampler.iterations"
    )


def _warn_if_unmixed(bulk_ess: Iterable[tuple[str, float]]) -> None:
    warning = mixing_warning(bulk_ess)
    if warning:
        print(warning, file=sys.stderr)


def _warned_chain(train: Dataset, mc: ModelConfig, sc: SamplerConfig) -> Chain:
    """run_chain, with fit's mixing warning on stderr. Only the bulk ESS it
    reads is computed, not the rest of the summary."""
    chain = run_chain(train, mc, sc)
    _warn_if_unmixed(zip(chain.param_names, map(ess_bulk_or_nan, chain.param_draws.T)))
    return chain


def cmd_diagnose(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    out = cfg["out.dir"]
    chain_path = os.path.join(out, "params.csv")
    names, draws = read_param_chain_csv(chain_path)
    summary = summary_to_csv_text(summarize(names, draws))
    atomic_write_text(os.path.join(out, "summary.csv"), summary, header)
    plot_dir = os.path.join(out, "plots")
    export_plot_data(
        [(name, draws[:, j]) for j, name in enumerate(names)],
        plot_dir,
        max_lag=min(_get(cfg, "out.max_lag", int), draws.shape[0] - 1),
        bins=_get(cfg, "out.bins", int),
        header=header,
    )
    sys.stdout.write(summary)
    print(f"wrote {out}/summary.csv and {plot_dir}/ (trace, acf, hist per parameter)")
    return 0


def cmd_compare(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    fc = build_forest_config(cfg)
    age_mode = _get_choice(cfg, "eval.age_mode", ("mirror", "shift"))
    (train, test), write_ingest = _load_splits(cfg)
    report = compare_models(
        train,
        test,
        # a temporary, not a local: compare_models then holds the only
        # reference and frees the draws before test-time inference
        _warned_chain(train, mc, sc),
        fc,
        age_mode=age_mode,
        age_years=_get(cfg, "eval.age_years", float),
    )
    write_ingest(header)
    path = os.path.join(cfg["out.dir"], "compare.csv")
    atomic_write_text(path, report.to_csv_text(), header)
    sys.stdout.write(report.to_text_table())
    print(f"wrote {path}")
    return 0


def cmd_synth(cfg: dict[str, str], header: tuple[str, ...]) -> int:
    truth = _synth_truth(cfg)
    mc = build_model_config(cfg)
    sc = build_sampler_config(cfg)
    try:
        data, true_c = generate_synthetic(
            truth, _get(cfg, "synth.n", int), _get(cfg, "synth.seed", int),
            rate_cap=mc.poisson_rate_cap,
        )
    except RateCapError as exc:
        raise ConfigError(
            f"{exc}; check the synth.param.* values and model.poisson_rate_cap"
        ) from None
    chain = _warned_chain(data, mc, sc)
    out = cfg["out.dir"]
    write_processed_csv(data, os.path.join(out, "synthetic.csv"), header)
    lines = ["index,c"] + [f"{i},{v!r}" for i, v in enumerate(true_c.tolist())]
    atomic_write_text(os.path.join(out, "true_latents.csv"), "\n".join(lines) + "\n", header)

    medians = chain.theta_median().to_vector(include_credit_intercept=mc.include_credit_intercept)
    truth_vec = dataclasses.replace(
        truth, b_c=0.0 if truth.b_c is None else truth.b_c
    ).to_vector(mc.include_credit_intercept)
    corr = float(np.corrcoef(chain.latent_mean, true_c)[0, 1])
    # the posterior is unchanged by c -> -c with every latent slope negated, so
    # the errors are those of the medians in the orientation the chain found
    orientation = -1 if corr < 0.0 else 1
    oriented = medians.copy()
    oriented[list(LATENT_SLOPES)] *= orientation
    errors = np.abs(oriented - truth_vec)

    lines = [
        f"# latent_corr={corr:.6g}",
        f"# latent_orientation={orientation:+d}",
        "name,truth,median,abs_error",
    ]
    for name, t, m, e in zip(chain.param_names, truth_vec, medians, errors):
        lines.append(f"{name},{t:.6g},{m:.6g},{e:.6g}")
    path = os.path.join(out, "recovery.csv")
    atomic_write_text(path, "\n".join(lines) + "\n", header)

    print(f"synthetic run: n={len(data)}, {len(chain.param_names)} parameter errors reported")
    worst = int(np.argmax(errors))
    print(
        f"worst recovery: {chain.param_names[worst]} "
        f"(truth {truth_vec[worst]:.4g}, median {oriented[worst]:.4g} "
        f"in latent orientation {orientation:+d})"
    )
    print(f"corr(inferred latent means, true latents) = {corr:.4f}")
    print(f"wrote {out}/: synthetic.csv, true_latents.csv, recovery.csv")
    return 0


# the commands but fit, which also takes its --model
COMMANDS = {
    "ingest": cmd_ingest, "diagnose": cmd_diagnose, "compare": cmd_compare, "synth": cmd_synth,
}


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
        cfg = resolve_config(args.config, args.preset, args.seed, args.out)
        header = (f"config_hash={config_hash(cfg)}",)
        # a file where the command makes its subdirectory is refused before any write
        if args.command == "fit" and args.model == "fair":
            output_dir(os.path.join(cfg["out.dir"], "model_fair"), create=False)
        if args.command == "diagnose":
            output_dir(os.path.join(cfg["out.dir"], "plots"), create=False)
        if args.command == "fit":
            code = cmd_fit(cfg, header, args.model)
        else:
            code = COMMANDS[args.command](cfg, header)
        # stamped last, so a refused run leaves no config beside older outputs
        if code == 0:
            config_text = format_kv_text(dict(sorted(cfg.items())))
            atomic_write_text(os.path.join(cfg["out.dir"], "config.kv"), config_text, header)
        return code
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FairCreditError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
