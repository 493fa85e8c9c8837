"""Command line tests: config resolution, hashing, and end-to-end runs.

The pipeline fixture drives every subcommand once against a small generated
CSV and a shared output directory; individual tests then inspect the stored
exit codes, captured output, and files. Error paths get fresh invocations.
"""

import contextlib
import io
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

import faircredit
from faircredit import cli, evaluation
from faircredit.cli import (
    DEFAULTS,
    ESS_WARN_MIN,
    PRESETS,
    config_hash,
    main,
    mixing_warning,
    resolve_config,
)
from faircredit.diagnostics import SummaryRow
from faircredit.errors import ConfigError
from faircredit.predictors import LinearModel
from faircredit.util import parse_kv_text


@dataclass
class CommandResult:
    code: int
    out: str
    err: str


def run_cli(argv) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CommandResult(code, out.getvalue(), err.getvalue())


def write_raw_csv(path, n=40, seed=9):
    r = np.random.default_rng(seed)
    lines = ["sex,age,job,housing,credit amount"]
    for _ in range(n):
        sex = "male" if r.integers(0, 2) else "female"
        age = int(r.integers(19, 70))
        job = int(r.integers(0, 4))
        housing = ("own", "rent", "free")[int(r.integers(0, 3))]
        credit = int(r.integers(3, 80))
        lines.append(f"{sex},{age},{job},{housing},{credit}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CONFIG_TEMPLATE = """\
data.path = {raw}
split.train_count = 30
split.seed = 1
sampler.iterations = 80
sampler.burn_in = 20
sampler.thin = 2
sampler.delta = 0.8
forest.n_trees = 5
forest.max_depth = 3
forest.min_leaf = 2
out.latent_columns = 3
out.max_lag = 12
out.bins = 8
out.dir = {out}
synth.n = 50
synth.param.b_j = 0.5
synth.param.beta_c_c = 0.4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.csv"
    write_raw_csv(raw)
    out = root / "out"
    config = root / "config.kv"
    config.write_text(
        CONFIG_TEMPLATE.format(raw=raw, out=out), encoding="utf-8"
    )
    base = ["--config", str(config)]
    results = {
        "ingest": run_cli(["ingest", *base]),
        "fit_full": run_cli(["fit", *base, "--model", "full"]),
        "fit_unaware": run_cli(["fit", *base, "--model", "unaware"]),
        "fit_fair": run_cli(["fit", *base, "--model", "fair"]),
        "diagnose": run_cli(["diagnose", *base]),
        "compare": run_cli(["compare", *base]),
        "synth": run_cli(["synth", *base]),
    }
    for name, res in results.items():
        assert res.code == 0, f"{name} failed ({res.code}): {res.err or res.out}"
    return {"root": root, "raw": raw, "out": out, "config": config, "results": results}


def expected_hash(workspace) -> str:
    cfg = resolve_config(str(workspace["config"]), None, None, None, False)
    return config_hash(cfg)


def first_line(path) -> str:
    return path.read_text(encoding="utf-8").splitlines()[0]


# ---------------------------------------------------------------------------
# config resolution


def test_resolve_defaults_untouched():
    cfg = resolve_config(None, None, None, None, False)
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS


def test_resolve_preset_then_file_then_flags(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text(
        "sampler.iterations = 123\nsampler.adapt_during_burn_in = true\n",
        encoding="utf-8",
    )
    cfg = resolve_config(str(config), "paper", 77, str(tmp_path / "o"), True)
    # preset applied first
    assert cfg["model.include_credit_intercept"] == "false"
    assert cfg["sampler.delta"] == "0.5"
    # file overrides the preset
    assert cfg["sampler.iterations"] == "123"
    assert cfg["sampler.adapt_during_burn_in"] == "true"
    # flags override everything
    assert cfg["split.seed"] == "77"
    assert cfg["sampler.seed"] == "77"
    assert cfg["forest.seed"] == "77"
    assert cfg["synth.seed"] == "77"
    assert cfg["out.dir"] == str(tmp_path / "o")
    assert cfg["fair.leaky"] == "true"


def test_resolve_preset_keys_are_known():
    for name, overrides in PRESETS.items():
        unknown = set(overrides) - set(DEFAULTS)
        assert not unknown, f"preset {name} has unknown keys {unknown}"


def test_resolve_unknown_config_key(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text("sampler.iterationz = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config keys.*sampler.iterationz"):
        resolve_config(str(config), None, None, None, False)


def test_resolve_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(None, "bogus", None, None, False)


def test_resolve_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        resolve_config(str(tmp_path / "nope.kv"), None, None, None, False)


def test_config_hash_stable_and_order_free():
    a = dict(DEFAULTS)
    b = dict(sorted(DEFAULTS.items(), reverse=True))
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16


def test_config_hash_sensitive_to_values():
    changed = dict(DEFAULTS)
    changed["sampler.seed"] = "1"
    assert config_hash(changed) != config_hash(DEFAULTS)


# ---------------------------------------------------------------------------
# subcommands, happy path


def test_ingest_outputs(workspace):
    res = workspace["results"]["ingest"]
    assert "ingested 40 rows" in res.out
    out = workspace["out"]
    h = expected_hash(workspace)
    for name in (
        "preprocessed.csv",
        "dist_sex.csv",
        "dist_age.csv",
        "dist_job.csv",
        "dist_housing.csv",
        "dist_credit.csv",
        "covariance.csv",
        "correlation.csv",
    ):
        path = out / name
        assert path.exists(), name
        assert first_line(path) == f"# config_hash={h}", name


def test_resolved_config_recorded(workspace):
    text = (workspace["out"] / "config.kv").read_text(encoding="utf-8")
    stored = parse_kv_text(text, where="config.kv")
    assert stored == resolve_config(str(workspace["config"]), None, None, None, False)


def test_fit_linear_models(workspace):
    for model in ("full", "unaware"):
        res = workspace["results"][f"fit_{model}"]
        assert f"{model} model: intercept=" in res.out
        path = workspace["out"] / f"model_{model}.kv"
        fitted = LinearModel.from_kv_text(path.read_text(encoding="utf-8"))
        assert len(fitted.feature_names) == len(fitted.coefficients)
    full = LinearModel.from_kv_text(
        (workspace["out"] / "model_full.kv").read_text(encoding="utf-8")
    )
    assert "sex" in full.feature_names


def test_fit_fair_outputs(workspace):
    res = workspace["results"]["fit_fair"]
    assert "accept(" in res.out
    out = workspace["out"]
    h = expected_hash(workspace)
    for name in ("params.csv", "latents.csv", "summary.csv"):
        assert first_line(out / name) == f"# config_hash={h}", name
    for name in ("params.kv", "forest.txt", "config.kv"):
        assert (out / "model_fair" / name).exists(), name
    # out.latent_columns = 3 of 30 training rows
    lat_header = [
        line
        for line in (out / "latents.csv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ][0]
    fields = lat_header.split(",")
    assert fields[0] == "draw"
    assert fields[1] == "c_0"
    assert len(fields) == 4


def test_fit_fair_warns_on_poor_mixing(workspace):
    # 30 stored draws cannot reach a bulk ESS of 100
    res = workspace["results"]["fit_fair"]
    warnings = [ln for ln in res.err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1
    assert "warning:" not in res.out
    rows = [
        line.split(",")
        for line in (workspace["out"] / "summary.csv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ][1:]
    name, ess = min(((r[0], float(r[5])) for r in rows), key=lambda t: t[1])
    assert ess < ESS_WARN_MIN
    assert f"worst bulk ESS is {ess:.4g} ({name})" in warnings[0]


def test_compare_warns_on_poor_mixing(workspace):
    # compare builds on the same chain as fit, so it warns with the same line
    def warnings(res):
        return [ln for ln in res.err.splitlines() if ln.startswith("warning:")]

    res = workspace["results"]["compare"]
    assert len(warnings(res)) == 1
    assert warnings(res) == warnings(workspace["results"]["fit_fair"])
    assert "warning:" not in res.out


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a caller keeps its call arguments alive until the call returns",
)
def test_compare_frees_the_chain_before_test_time_inference(workspace, monkeypatch, tmp_path):
    real_run_chain = cli.run_chain
    real_fair_latent_points = evaluation.fair_latent_points
    chains, freed = [], []

    def run_chain(*args, **kwargs):
        chain = real_run_chain(*args, **kwargs)
        chains.append(weakref.ref(chain))
        return chain

    def fair_latent_points(*args, **kwargs):
        freed.append(chains[0]() is None)
        return real_fair_latent_points(*args, **kwargs)

    monkeypatch.setattr(cli, "run_chain", run_chain)
    monkeypatch.setattr(evaluation, "fair_latent_points", fair_latent_points)
    res = run_cli(["compare", "--config", str(workspace["config"]), "--out", str(tmp_path)])
    assert res.code == 0, res.err
    assert len(chains) == 1
    assert freed == [True] * 4  # every test-time pass


def test_every_command_runs_without_scipy(tmp_path):
    # a scipy import anywhere on these paths, even inside a function, fails
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw)
    config = tmp_path / "config.kv"
    config.write_text(CONFIG_TEMPLATE.format(raw=raw, out=tmp_path / "out"), encoding="utf-8")
    commands = [["fit", "--model", "full"], ["fit", "--model", "fair"], ["diagnose"],
                ["compare"], ["synth"]]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from faircredit.cli import main\n"
        f"print([main([*cmd, '--config', {str(config)!r}]) for cmd in {commands!r}])\n"
    )
    src = os.path.dirname(os.path.dirname(faircredit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"


def _row(name, ess):
    return SummaryRow(name, 1.0, -1.0, 0.0, 1.0, ess, ess)


def test_mixing_warning_threshold():
    assert mixing_warning([_row("a", 400.0), _row("b", ESS_WARN_MIN)]) is None
    text = mixing_warning([_row("a", 400.0), _row("b", 99.5), _row("c", 120.0)])
    assert text.startswith("warning: worst bulk ESS is 99.5 (b)")
    # a constant parameter has no ESS at all, which is worst
    text = mixing_warning([_row("a", 3.0), _row("b", float("nan"))])
    assert "(b)" in text


def test_diagnose_outputs(workspace):
    res = workspace["results"]["diagnose"]
    assert "name,std,q05,median,q95,ess_bulk,ess_tail" in res.out
    plots = workspace["out"] / "plots"
    files = sorted(p.name for p in plots.iterdir())
    # 11 parameters, three files each
    assert len(files) == 33
    assert "b_j_trace.csv" in files
    assert "b_j_acf.csv" in files
    assert "b_j_hist.csv" in files


def test_compare_outputs(workspace):
    res = workspace["results"]["compare"]
    for token in ("full", "unaware", "fair", "honest (credit excluded"):
        assert token in res.out, token
    text = (workspace["out"] / "compare.csv").read_text(encoding="utf-8")
    assert text.startswith(f"# config_hash={expected_hash(workspace)}")
    assert "fair_test_r2_honest=" in text
    assert "fair_test_r2_leaky=" in text
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 4  # header plus one row per model


def test_compare_rerun_is_byte_identical(workspace):
    path = workspace["out"] / "compare.csv"
    before = path.read_bytes()
    res = run_cli(["compare", "--config", str(workspace["config"])])
    assert res.code == 0
    assert path.read_bytes() == before


def test_compare_leaky_flag(workspace, tmp_path):
    out2 = tmp_path / "leaky_out"
    res = run_cli(
        [
            "compare",
            "--config",
            str(workspace["config"]),
            "--out",
            str(out2),
            "--leaky-fair",
        ]
    )
    assert res.code == 0
    assert "(auto-ingested 40 rows" in res.out
    stored = parse_kv_text(
        (out2 / "config.kv").read_text(encoding="utf-8"), where="config.kv"
    )
    assert stored["fair.leaky"] == "true"
    assert "fair_test_r2_leaky=" in (out2 / "compare.csv").read_text(encoding="utf-8")


def test_synth_outputs(workspace):
    res = workspace["results"]["synth"]
    assert "corr(inferred latent means, true latents)" in res.out
    out = workspace["out"]
    lines = (out / "true_latents.csv").read_text(encoding="utf-8").splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,c"
    assert len(data) == 51  # header plus synth.n rows
    recovery = (out / "recovery.csv").read_text(encoding="utf-8")
    assert "# latent_corr=" in recovery
    rows = [l for l in recovery.splitlines() if not l.startswith("#")]
    assert rows[0] == "name,truth,median,abs_error"
    assert any(r.startswith("b_j,0.5,") for r in rows)
    synth_lines = (out / "synthetic.csv").read_text(encoding="utf-8").splitlines()
    assert synth_lines[0] == f"# config_hash={expected_hash(workspace)}"


def test_master_seed_changes_outputs(workspace, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["synth", "--config", str(workspace["config"])]
    res_a = run_cli([*base, "--out", str(out_a), "--seed", "3"])
    res_b = run_cli([*base, "--out", str(out_b), "--seed", "4"])
    assert res_a.code == 0 and res_b.code == 0
    text_a = (out_a / "synthetic.csv").read_text(encoding="utf-8").splitlines()[1:]
    text_b = (out_b / "synthetic.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert text_a != text_b


# ---------------------------------------------------------------------------
# error paths


def test_missing_data_file_exit_code(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text(f"data.path = {tmp_path / 'absent.csv'}\n", encoding="utf-8")
    res = run_cli(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
    assert res.code == 2
    assert res.err.startswith("error:")


@pytest.mark.parametrize("below", [False, True], ids=("file", "path_under_file"))
def test_out_naming_a_file_exit_code(tmp_path, below):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw)
    config = tmp_path / "c.kv"
    config.write_text(f"data.path = {raw}\n", encoding="utf-8")
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub" if below else blocker
    res = run_cli(["ingest", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err.startswith("error: cannot create output directory")
    assert res.out == ""
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_bad_config_key_exit_code(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text("no.such.key = 1\n", encoding="utf-8")
    res = run_cli(["ingest", "--config", str(config)])
    assert res.code == 2
    assert "unknown config keys" in res.err


@pytest.mark.parametrize(
    "line, message",
    [
        ("sampler.burn_in = 9000", "burn_in must lie in"),
        ("model.credit_scale = -1", "credit_scale must be positive"),
        ("synth.param.b_j = nan", "b_j is not finite"),
    ],
    ids=("sampler", "model", "synth_param"),
)
def test_invalid_config_value_exit_code(tmp_path, line, message):
    # synth validates all three before it touches any data
    config = tmp_path / "c.kv"
    config.write_text(line + "\n", encoding="utf-8")
    res = run_cli(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.code == 2
    assert res.err.startswith("error:")
    assert message in res.err


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--seed", "-1"], None),
        ([], "split.seed"),
        ([], "sampler.seed"),
        ([], "forest.seed"),
        ([], "synth.seed"),
    ],
    ids=("flag", "split", "sampler", "forest", "synth"),
)
def test_negative_seed_exit_code(workspace, tmp_path, flags, key):
    # numpy's generators refuse a negative seed with a traceback, and the
    # derived streams would wrap it modulo 2**64, so config resolution rejects
    # it before anything runs
    config = tmp_path / "c.kv"
    lines = workspace["config"].read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if not ln.startswith(f"{key} =")]
    config.write_text("\n".join(lines + ([f"{key} = -3"] if key else [])) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli(["compare", "--config", str(config), "--out", str(out), *flags])
    assert res.code == 2
    assert res.err.startswith("error:")
    assert f"{key or '--seed'} must be a non-negative integer" in res.err
    assert not out.exists()


def test_diagnose_without_chain(workspace, tmp_path):
    res = run_cli(
        [
            "diagnose",
            "--config",
            str(workspace["config"]),
            "--out",
            str(tmp_path / "empty"),
        ]
    )
    assert res.code == 2
    assert res.err.startswith("error:")


def test_malformed_csv_cell(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "sex,age,job,housing,credit amount\nmale,43,2,own,xyz\n", encoding="utf-8"
    )
    config = tmp_path / "c.kv"
    config.write_text(f"data.path = {raw}\n", encoding="utf-8")
    res = run_cli(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
    assert res.code == 2
    assert "error:" in res.err
