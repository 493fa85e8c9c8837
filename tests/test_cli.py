"""Command line tests: config resolution, hashing, and end-to-end runs.

The pipeline fixture drives every subcommand once against a small generated
CSV and a shared output directory; individual tests then inspect the stored
exit codes, captured output, and files. Error paths get fresh invocations.
"""

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest

import faircredit
from faircredit import cli, predictors
from faircredit.cli import (
    DEFAULTS,
    ESS_WARN_MIN,
    PRESETS,
    config_hash,
    main,
    mixing_warning,
    resolve_config,
)
from faircredit.diagnostics import summarize
from faircredit.errors import ConfigError
from faircredit.predictors import ForestConfig, LinearModel
from faircredit.probmodel import ModelConfig
from faircredit.sampler import SamplerConfig, run_chain
from faircredit.util import parse_kv_text


CHECKS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")
BUNDLED_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data", "german_synthetic.csv")


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
    cfg = resolve_config(str(workspace["config"]), None, None, None)
    return config_hash(cfg)


def first_line(path) -> str:
    return path.read_text(encoding="utf-8").splitlines()[0]


# ---------------------------------------------------------------------------
# config resolution


def test_resolve_defaults_untouched():
    cfg = resolve_config(None, None, None, None)
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS


def test_resolve_preset_then_file_then_flags(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text(
        "sampler.iterations = 123\nsampler.burn_in = 23\n",
        encoding="utf-8",
    )
    cfg = resolve_config(str(config), "paper", 77, str(tmp_path / "o"))
    # preset applied first
    assert cfg["model.include_credit_intercept"] == "false"
    # file overrides the preset
    assert cfg["sampler.iterations"] == "123"
    assert cfg["sampler.burn_in"] == "23"
    # flags override everything
    assert cfg["split.seed"] == "77"
    assert cfg["sampler.seed"] == "77"
    assert cfg["forest.seed"] == "77"
    assert cfg["synth.seed"] == "77"
    assert cfg["out.dir"] == str(tmp_path / "o")


def test_paper_preset_keeps_the_papers_run_length():
    # the default burn-in is sized to the measured warm-up; the paper preset
    # spells out the paper's 5,000 sweeps with 1,000 of burn-in
    paper = cli.build_sampler_config(resolve_config(None, "paper", None, None))
    assert (paper.iterations, paper.burn_in, paper.n_draws()) == (5000, 1000, 4000)
    default = cli.build_sampler_config(DEFAULTS)
    assert (default.iterations, default.burn_in, default.n_draws()) == (4400, 400, 4000)


def test_resolve_preset_keys_are_known():
    for name, overrides in PRESETS.items():
        unknown = set(overrides) - set(DEFAULTS)
        assert not unknown, f"preset {name} has unknown keys {unknown}"


def test_resolve_unknown_config_key(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text("sampler.iterationz = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config keys.*sampler.iterationz"):
        resolve_config(str(config), None, None, None)


def test_resolve_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(None, "bogus", None, None)


def test_resolve_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        resolve_config(str(tmp_path / "nope.kv"), None, None, None)


def test_config_hash_stable_and_order_free():
    a = dict(DEFAULTS)
    b = dict(sorted(DEFAULTS.items(), reverse=True))
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16


def test_config_hash_sensitive_to_values():
    changed = dict(DEFAULTS)
    changed["sampler.seed"] = "1"
    assert config_hash(changed) != config_hash(DEFAULTS)


def typed_fields(config) -> dict:
    return {name: (value, type(value)) for name, value in vars(config).items()}


def test_default_config_is_pinned():
    # every output file's header records this hash, so a changed default
    # key or value changes every output
    assert config_hash(DEFAULTS) == "e0c5fd6cc0355393"
    assert typed_fields(cli.build_model_config(DEFAULTS)) == typed_fields(ModelConfig())
    assert typed_fields(cli.build_sampler_config(DEFAULTS)) == typed_fields(SamplerConfig())
    assert typed_fields(cli.build_forest_config(DEFAULTS)) == typed_fields(ForestConfig())


def test_config_file_values_arrive_typed(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text(
        "sampler.thin = 4\nsampler.iterations = 6000\n"
        "model.include_credit_intercept = yes\nmodel.credit_scale = 2\nforest.min_leaf = 3\n",
        encoding="utf-8",
    )
    cfg = resolve_config(str(config), None, None, None)
    for built, want in (
        (cli.build_model_config(cfg), ModelConfig(include_credit_intercept=True, credit_scale=2.0)),
        (cli.build_sampler_config(cfg), SamplerConfig(thin=4, iterations=6000)),
        (cli.build_forest_config(cfg), ForestConfig(min_leaf=3)),
    ):
        assert typed_fields(built) == typed_fields(want)


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
    assert stored == resolve_config(str(workspace["config"]), None, None, None)


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
    # one acceptance line per block: a head's parameters share its rate
    accepts = [line.split(")")[0] for line in res.out.splitlines() if line.startswith("  accept(")]
    assert accepts == [f"  accept({name}" for name in ("job", "house", "credit", "latents")]
    # the default rate cap is never reached, and the count goes to stdout only
    assert "\n  likelihood errors = 0 (0 after burn-in)\n" in res.out
    assert "likelihood" not in res.err
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


def test_fit_fair_prints_its_likelihood_errors(workspace, tmp_path):
    # a rate cap the chain's proposals cross a few times, under the budget
    config = tmp_path / "cap.kv"
    config.write_text(
        CONFIG_TEMPLATE.format(raw=workspace["raw"], out=tmp_path / "out")
        + "model.poisson_rate_cap = 300\n",
        encoding="utf-8",
    )
    res = run_cli(["fit", "--config", str(config), "--model", "fair"])
    assert res.code == 0, res.err
    ((count, post),) = re.findall(
        r"^  likelihood errors = (\d+) \((\d+) after burn-in\)$", res.out, flags=re.M
    )
    assert int(count) > 0
    assert int(post) <= int(count)
    assert "likelihood" not in res.err


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
    real_fair_latent_points = predictors.fair_latent_points
    chains, freed = [], []

    def run_chain(*args, **kwargs):
        chain = real_run_chain(*args, **kwargs)
        chains.append(weakref.ref(chain))
        return chain

    def fair_latent_points(*args, **kwargs):
        freed.append(chains[0]() is None)
        return real_fair_latent_points(*args, **kwargs)

    monkeypatch.setattr(cli, "run_chain", run_chain)
    monkeypatch.setattr(predictors, "fair_latent_points", fair_latent_points)
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
    # the first command ingests into the fresh out dir
    assert "(auto-ingested 40 rows" in out.stdout
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"


def test_mixing_warning_threshold():
    assert mixing_warning([("a", 400.0), ("b", ESS_WARN_MIN)]) is None
    text = mixing_warning([("a", 400.0), ("b", 99.5), ("c", 120.0)])
    assert text.startswith("warning: worst bulk ESS is 99.5 (b)")
    # a kernel frozen before its warm-up ended needs a longer burn-in
    assert text.endswith("raise sampler.burn_in or sampler.iterations")
    # a constant parameter has no ESS at all, which is worst
    text = mixing_warning([("a", 3.0), ("b", float("nan"))])
    assert "(b)" in text


def test_compare_warns_as_fit_does(monkeypatch, capsys, tiny_dataset):
    # compare computes only the bulk ESS, fit the whole summary; both warn
    # alike on an unmixed chain, a constant parameter and too few draws
    mc = ModelConfig()
    unmixed = run_chain(tiny_dataset, mc, SamplerConfig(iterations=300, burn_in=100, seed=5))
    draws = unmixed.param_draws.copy()
    draws[:, 4] = 0.25
    constant = replace(unmixed, param_draws=draws)
    short = run_chain(tiny_dataset, mc, SamplerConfig(iterations=103, burn_in=100, seed=5))
    assert short.n_draws() == 3
    monkeypatch.setattr(cli, "summarize", None)  # compare takes no summary
    for chain in (unmixed, constant, short):
        monkeypatch.setattr(cli, "run_chain", lambda *args, chain=chain: chain)
        assert cli._warned_chain(tiny_dataset, mc, chain.config) is chain
        rows = summarize(chain.param_names, chain.param_draws)
        want = mixing_warning((row.name, row.ess_bulk) for row in rows)
        assert want is not None
        assert capsys.readouterr().err == want + "\n"


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


def test_compare_refuses_the_leaky_switch(workspace, tmp_path, capsys):
    # the fair test_r2 cell is always the honest score; neither the flag nor
    # the key that once put the leaky one there exists
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(workspace["config"]), "--out", str(out), "--leaky-fair"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --leaky-fair" in capsys.readouterr().err
    config = tmp_path / "leaky.kv"
    config.write_text(workspace["config"].read_text(encoding="utf-8") + "fair.leaky = true\n",
                      encoding="utf-8")
    res = run_cli(["compare", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err == f"error: {config}: unknown config keys: fair.leaky\n"
    assert not out.exists()


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


def recovery_table(out) -> tuple[dict[str, str], dict[str, tuple[float, float, float]]]:
    """recovery.csv's comment values and its rows, name -> (truth, median, abs_error)."""
    lines = (out / "recovery.csv").read_text(encoding="utf-8").splitlines()
    comments = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    return comments, {r[0]: tuple(map(float, r[1:])) for r in rows}


def test_synth_recovery_is_judged_in_the_chain_latent_orientation(tmp_path, monkeypatch):
    # the posterior is unchanged by c -> -c with the three latent slopes
    # negated, so a chain in the mirror mode reports the same errors; the
    # mirror here is the found chain's, exactly: its slopes' draws and its
    # latent means negated
    config = tmp_path / "synth.kv"
    config.write_text(
        "synth.n = 60\nsynth.param.beta_j_c = 1.2\nsynth.param.beta_c_c = 0.4\n"
        "sampler.iterations = 300\nsampler.burn_in = 100\n",
        encoding="utf-8",
    )
    slopes = ("beta_j_c", "beta_h_c", "beta_c_c")
    found = run_cli(["synth", "--config", str(config), "--out", str(tmp_path / "found")])
    real = cli.run_chain

    def mirrored(*args, **kwargs):
        chain = real(*args, **kwargs)
        flip = np.array([-1.0 if name in slopes else 1.0 for name in chain.param_names])
        return replace(chain, param_draws=chain.param_draws * flip, latent_mean=-chain.latent_mean)

    monkeypatch.setattr(cli, "run_chain", mirrored)
    mirror = run_cli(["synth", "--config", str(config), "--out", str(tmp_path / "mirror")])
    assert found.code == 0 and mirror.code == 0
    (found_notes, found_rows), (mirror_notes, mirror_rows) = (
        recovery_table(tmp_path / name) for name in ("found", "mirror")
    )
    # truth, median and latent_corr stay raw, the orientation is the corr's sign
    assert float(mirror_notes["latent_corr"]) == -float(found_notes["latent_corr"])
    orientations = {found_notes["latent_orientation"], mirror_notes["latent_orientation"]}
    assert orientations == {"+1", "-1"}
    for notes, rows in ((found_notes, found_rows), (mirror_notes, mirror_rows)):
        assert (notes["latent_orientation"] == "-1") == (float(notes["latent_corr"]) < 0)
        sign = float(notes["latent_orientation"])
        for name, (truth, median, error) in rows.items():
            oriented = sign * median if name in slopes else median
            assert error == pytest.approx(abs(oriented - truth), abs=2e-6), name
    assert list(found_rows) == list(mirror_rows)
    for name, (truth, median, error) in found_rows.items():
        m_truth, m_median, m_error = mirror_rows[name]
        assert (m_truth, m_error) == (truth, error), name
        assert m_median == (-median if name in slopes else median), name
    # the worst recovery names the same parameter and value either way
    worst = [l for l in found.out.splitlines() if l.startswith("worst recovery:")]
    assert len(worst) == 1
    assert worst[0].split(" in latent orientation")[0] in mirror.out


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


@pytest.mark.parametrize(
    "command, blocked",
    [(["fit", "--model", "fair"], "model_fair"), (["diagnose"], "plots")],
    ids=("fit_fair", "diagnose"),
)
def test_blocked_output_subdirectory_exit_code(workspace, tmp_path, command, blocked):
    # a file where the command makes its subdirectory is the user's mistake,
    # refused like an out.dir that names a file, and before any file is
    # written: neither config.kv nor fit's chain or diagnose's summary
    out = tmp_path / "out"
    out.mkdir()
    chain = (workspace["out"] / "params.csv").read_bytes()
    (out / "params.csv").write_bytes(chain)
    blocker = out / blocked
    blocker.write_text("kept\n", encoding="utf-8")
    res = run_cli([*command, "--config", str(workspace["config"]), "--out", str(out)])
    assert res.code == 2
    assert res.err == f"error: cannot create output directory {str(blocker)!r}: File exists\n"
    assert res.out == ""
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(["params.csv", blocked])
    assert (out / "params.csv").read_bytes() == chain


@pytest.mark.parametrize(
    "command, target, what",
    [
        (["ingest"], "raw.csv", ""),
        (["ingest"], "c.kv", "config "),
        (["diagnose"], "out/params.csv", ""),
    ],
    ids=("data_path", "config", "params_csv"),
)
def test_undecodable_input_exit_code(workspace, tmp_path, command, target, what):
    # a byte that is not UTF-8 in a file the CLI reads is the user's mistake,
    # refused with one error line like a file that cannot be opened
    raw = tmp_path / "raw.csv"
    raw.write_bytes(workspace["raw"].read_bytes())
    config = config_with(workspace, tmp_path, {"data.path": raw})
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / target
    bad.write_bytes(b"sex,age\n\xff\n")
    res = run_cli([*command, "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err.startswith(f"error: cannot read {what}{bad}: ")
    assert res.err.count("\n") == 1


def test_byte_order_mark_is_dropped(workspace, tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with a UTF-8 byte-order mark; a data
    # file or a config file that does is read as if it did not, so its first
    # column or key keeps its name and ingest writes the same files
    raw = tmp_path / "raw.csv"
    raw.write_bytes(workspace["raw"].read_bytes())
    config = config_with(workspace, tmp_path, {"data.path": raw})
    out = tmp_path / "out"
    argv = ["ingest", "--config", str(config), "--out", str(out)]
    names = ("preprocessed.csv", "covariance.csv", "dist_credit.csv")
    assert run_cli(argv).code == 0
    plain = {name: (out / name).read_bytes() for name in names}
    for marked in (raw, config):
        marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        res = run_cli(argv)
        assert res.code == 0, res.err
        assert {name: (out / name).read_bytes() for name in names} == plain


def test_bad_config_key_exit_code(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text("no.such.key = 1\n", encoding="utf-8")
    res = run_cli(["ingest", "--config", str(config)])
    assert res.code == 2
    assert "unknown config keys" in res.err


@pytest.mark.parametrize("key", ("delta", "adapt_during_burn_in", "target_accept"))
def test_deleted_sampler_key_exit_code(tmp_path, key):
    # the latent windows scale themselves by the state, so the keys that
    # once set and tuned them are refused as any unknown key is
    config = tmp_path / "c.kv"
    config.write_text(f"sampler.{key} = 1\n", encoding="utf-8")
    res = run_cli(["ingest", "--config", str(config)])
    assert res.code == 2
    assert res.err == f"error: {config}: unknown config keys: sampler.{key}\n"


AGE_SHIFT_ERROR = "error: config key eval.age_years must be a number in [-102, 102], got "


@pytest.mark.parametrize(
    "line, message",
    [
        ("sampler.burn_in = 9000", "burn_in must lie in"),
        ("model.credit_scale = -1", "credit_scale must be positive"),
        ("sampler.iterations = abc", "error: config key sampler.iterations must be an integer, got 'abc'"),
        ("sampler.thin = 1.5", "error: config key sampler.thin must be an integer, got '1.5'"),
        ("model.include_credit_intercept = maybe",
         "error: model.include_credit_intercept: expected a boolean, got 'maybe'"),
        ("synth.param.b_j = nan", "b_j is not finite"),
        ("synth.param.beta_c_c = 30", "error: poisson rate overflow: linear predictor "),
        ("eval.age_mode = shift\neval.age_years = nan", AGE_SHIFT_ERROR + "'nan'"),
        ("eval.age_mode = shift\neval.age_years = inf", AGE_SHIFT_ERROR + "'inf'"),
        ("eval.age_mode = shift\neval.age_years = 1e300", AGE_SHIFT_ERROR + "'1e300'"),
    ],
    ids=("sampler", "model", "sampler_not_a_number", "sampler_not_an_integer",
         "model_not_a_boolean", "synth_param", "synth_rate_cap", "age_shift_nan", "age_shift_inf",
         "age_shift_huge"),
)
def test_invalid_config_value_exit_code(tmp_path, line, message):
    # synth validates the configs and the truth before it touches any data,
    # and draws the data, which checks the truth's credit rates against the
    # cap, before the chain runs. An age shift wider than the accepted age
    # range is refused with the config, before any command runs.
    config = tmp_path / "c.kv"
    config.write_text(line + "\n", encoding="utf-8")
    res = run_cli(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.code == 2
    assert res.err.startswith("error:") and res.err.count("\n") == 1
    assert message in res.err
    assert not (tmp_path / "out" / "synthetic.csv").exists()


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


@pytest.mark.parametrize(
    "flags, key",
    [(["--seed", str(2**32)], None), ([], "split.seed"), ([], "synth.seed")],
    ids=("flag", "split", "synth"),
)
def test_seed_of_2_to_the_32_exit_code(workspace, tmp_path, flags, key):
    # numpy.random.SeedSequence would draw a smaller seed's stream for it
    config = config_with(workspace, tmp_path, {key: 2**32} if key else {})
    out = tmp_path / "out"
    res = run_cli(["synth", "--config", str(config), "--out", str(out), *flags])
    assert res.code == 2
    assert res.err == (
        f"error: {'config key ' + key if key else '--seed'} must be a non-negative "
        f"integer below 2**32, got {2**32}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, least",
    [
        ("ingest", "out.bins", "0", 1),
        ("diagnose", "out.bins", "-2", 1),
        ("fit", "out.bins", "0", 1),
        ("diagnose", "out.max_lag", "-3", 0),
        ("fit", "out.latent_columns", "-3", 0),
    ],
    ids=("ingest_bins", "diagnose_bins", "fit_autoingest_bins", "diagnose_max_lag",
         "fit_latent_columns"),
)
def test_bad_plot_size_exit_code(workspace, tmp_path, command, key, value, least):
    # np.histogram and autocorrelation would raise ValueError deep inside the
    # command, and a negative out.latent_columns exported nothing without a
    # word; config resolution turns the value into a one-line error instead
    config = tmp_path / "c.kv"
    lines = workspace["config"].read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if not ln.startswith(f"{key} =")] + [f"{key} = {value}"]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if command == "diagnose":  # a stored chain, so only the bad value can stop it
        out.mkdir()
        (out / "params.csv").write_bytes((workspace["out"] / "params.csv").read_bytes())
    argv = [command, "--config", str(config), "--out", str(out)]
    res = run_cli(argv + (["--model", "full"] if command == "fit" else []))
    assert res.code == 2
    assert res.err == f"error: config key {key} must be an integer >= {least}, got {value!r}\n"
    assert not (out / "config.kv").exists()


@pytest.mark.parametrize(
    "command, iterations, burn_in, thin",
    [
        ("fit", 11, 10, 1),
        ("compare", 11, 10, 1),
        ("fit", 80, 20, 60),
        ("compare", 80, 20, 100),
    ],
    ids=("fit_burn_in", "compare_burn_in", "fit_thin", "compare_thin_keeps_none"),
)
def test_chain_keeping_under_two_draws_exit_code(
    workspace, tmp_path, command, iterations, burn_in, thin
):
    # a chain's summary needs two draws, so the sampler config is refused
    # before the chain runs
    config = tmp_path / "c.kv"
    keys = {"sampler.iterations": iterations, "sampler.burn_in": burn_in, "sampler.thin": thin}
    lines = workspace["config"].read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln.split(" =")[0] not in keys]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res = run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.code == 2
    assert res.err.startswith("error:") and res.err.count("\n") == 1
    for key in keys:
        assert key in res.err
    assert not (tmp_path / "out" / "params.csv").exists()


def config_with(workspace, tmp_path, keys):
    """The workspace config with keys set, written under tmp_path."""
    config = tmp_path / "c.kv"
    lines = workspace["config"].read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln.split(" =")[0] not in keys]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def test_fit_fair_refuses_forest_config_before_any_work(workspace, tmp_path):
    # stage two's config is read with stage one's, so a bad forest setting
    # runs no chain and leaves no half-written outputs
    config = config_with(workspace, tmp_path, {"forest.n_trees": 0})
    out = tmp_path / "out"
    res = run_cli(["fit", "--model", "fair", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err == "error: invalid forest config: n_trees must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["fit", "--model", "fair"], ["compare"]])
def test_budget_abort_is_a_user_error_and_writes_nothing(workspace, tmp_path, command):
    # a rate cap under the data's largest credit puts more than 1% of the
    # chain's steps over it: the cap is the user's to raise, and the ingest
    # files are written only after the chain returns
    config = config_with(workspace, tmp_path, {"model.poisson_rate_cap": 100})
    out = tmp_path / "out"
    res = run_cli([*command, "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err.startswith("error: sampler aborted at sweep ")
    assert "(steps proposing a credit rate above model.poisson_rate_cap = 100.0)" in res.err
    assert res.err.count("\n") == 1
    assert not out.exists()


CONSTANT_JOB_ERROR = (
    "error: column 'job' is constant, so its correlation is undefined; "
    "check config key preprocess.job_threshold (= '0')\n"
)


def test_refused_ingest_writes_no_output(workspace, tmp_path):
    # every job level is >= 0, so job is constant and the correlation check
    # refuses it, naming the key; a refused run writes no output, config.kv
    # included
    config = config_with(workspace, tmp_path, {"preprocess.job_threshold": 0})
    out = tmp_path / "out"
    res = run_cli(["ingest", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err == CONSTANT_JOB_ERROR
    assert not out.exists()


@pytest.mark.parametrize("command", (["fit", "--model", "full"], ["compare"]))
def test_auto_ingest_refuses_a_constant_column_by_its_config_key(workspace, tmp_path, command):
    config = config_with(workspace, tmp_path, {"preprocess.job_threshold": 0})
    out = tmp_path / "out"
    res = run_cli([*command, "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err == CONSTANT_JOB_ERROR
    assert not out.exists()


def test_fit_rewrites_a_stale_preprocessed_csv_to_its_own_data(workspace, tmp_path):
    # fit reads data.path alone: ingest's outputs left by another config, or
    # a preprocessed.csv that is not even UTF-8, are replaced by those of
    # fit's own config, as ingest with that config writes them below the
    # config hash, which records out.dir
    config = config_with(workspace, tmp_path, {"preprocess.own_label": "rent"})
    want = tmp_path / "want"
    assert run_cli(["ingest", "--config", str(config), "--out", str(want)]).code == 0
    stale, garbled = tmp_path / "stale", tmp_path / "garbled"
    assert run_cli(["ingest", "--config", str(workspace["config"]), "--out", str(stale)]).code == 0
    garbled.mkdir()
    (garbled / "preprocessed.csv").write_bytes(b"sex,age\n\xff\n")
    for out in (stale, garbled):
        res = run_cli(["fit", "--model", "full", "--config", str(config), "--out", str(out)])
        assert res.code == 0, res.err
        assert res.out.startswith("(auto-ingested 40 rows from ")
        for path in want.iterdir():
            if path.name != "config.kv":
                body = (out / path.name).read_bytes().split(b"\n", 1)
                assert body[1] == path.read_bytes().split(b"\n", 1)[1], path.name
        assert (out / "model_full.kv").exists()


def test_fit_fair_without_latent_columns(workspace, tmp_path):
    # latents.csv then holds the draw index alone, with no trailing comma
    config = config_with(workspace, tmp_path, {"out.latent_columns": 0})
    out = tmp_path / "out"
    res = run_cli(["fit", "--model", "fair", "--config", str(config), "--out", str(out)])
    assert res.code == 0, res.err
    lines = (out / "latents.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1:] == ["draw"] + [str(d) for d in range(30)]


def test_latent_point_key_is_refused(workspace, tmp_path):
    # the forest's feature is always the posterior mean latent score, so the
    # key that once chose it is unknown and is refused before any chain runs
    out = tmp_path / "out"
    for value in ("mean", "median"):
        config = config_with(workspace, tmp_path, {"fair.latent_point": value})
        for command in (["fit", "--model", "fair"], ["compare"]):
            res = run_cli([*command, "--config", str(config), "--out", str(out)])
            assert res.code == 2
            assert res.err.startswith("error: ") and res.err.count("\n") == 1
            assert "unknown config keys: fair.latent_point" in res.err
            assert not (out / "params.csv").exists()
            assert not (out / "compare.csv").exists()


@pytest.mark.parametrize("model", ("full", "fair"))
def test_fit_refuses_a_train_split_of_one_row(workspace, tmp_path, model):
    # age is standardized with the train split's moments, which take two
    # ages: the refusal names the split's size, and no numpy warning comes
    # before it. A subprocess, so that a warning reaches stderr as a user
    # would see it
    config = config_with(workspace, tmp_path, {"split.train_count": 1})
    src = os.path.dirname(os.path.dirname(faircredit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "faircredit.cli", "fit", "--model", model,
         "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 2
    assert out.stderr == "error: need at least 2 ages to standardize age; the train split has 1\n"


def test_standardize_age_key_is_refused(workspace, tmp_path):
    # age is always standardized, so the key that once turned it off is
    # unknown and is refused before any work
    config = config_with(workspace, tmp_path, {"preprocess.standardize_age": "false"})
    out = tmp_path / "out"
    res = run_cli(["fit", "--model", "full", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err == f"error: {config}: unknown config keys: preprocess.standardize_age\n"
    assert not out.exists()


def test_synth_rate_cap_names_its_config_keys(tmp_path):
    config = tmp_path / "c.kv"
    config.write_text("synth.n = 50\nsynth.param.beta_c_c = 30\n", encoding="utf-8")
    res = run_cli(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    assert res.code == 2
    assert res.err.startswith("error: poisson rate overflow: linear predictor ")
    assert res.err.count("\n") == 1
    assert "synth.param.*" in res.err and "model.poisson_rate_cap" in res.err


def test_synth_warns_as_fit_does(workspace, tmp_path):
    # synth warns on its chain as fit does: on the small config's 30 draws,
    # and not on the benchmark's synth_large config, whose chain mixes
    # (worst bulk ESS 336, beta_h_c, at seed 0)
    fit_warning = workspace["results"]["fit_fair"].err
    assert fit_warning.startswith("warning: worst bulk ESS is ")
    assert workspace["results"]["synth"].err.startswith("warning: worst bulk ESS is ")
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    config = tmp_path / "synth.kv"
    config.write_text(checks.synth_config_text(), encoding="utf-8")
    res = run_cli(["synth", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "out")])
    assert res.code == 0, res.err
    assert res.err == ""


@pytest.mark.parametrize("command", [["fit", "--model", "fair"], ["compare"]], ids=("fit", "compare"))
def test_default_chain_mixes_without_a_warning(tmp_path, command):
    # at defaults on the bundled data the chain's worst bulk ESS is 553
    # (b_j) at seed 0, so neither fit nor compare prints the mixing warning,
    # and fit marks no block's acceptance rate outside ACCEPT_RATE_BAND
    config = tmp_path / "data.kv"
    config.write_text(f"data.path = {BUNDLED_DATA}\n", encoding="utf-8")
    res = run_cli([*command, "--config", str(config), "--seed", "0", "--out", str(tmp_path / "out")])
    assert res.code == 0, res.err
    assert res.err == ""
    assert "<-- outside" not in res.out


def test_aborted_synth_writes_nothing(tmp_path):
    # a rate cap just over the truth's largest rate (e^3.42 = 30.6): the
    # chain's steps cross it in over 1% of its accept tests in the 100
    # sweeps after burn-in, which exceeds the sampler's error budget (at
    # sweep 150); synth writes its data after the chain, so the abort leaves
    # no file
    config = tmp_path / "c.kv"
    lines = (
        "synth.n = 50", "synth.param.beta_c_c = 1.0", "synth.param.b_c = 2.0",
        "model.include_credit_intercept = true", "model.poisson_rate_cap = 32",
        "sampler.iterations = 200", "sampler.burn_in = 50",
    )
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli(["synth", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert res.err.startswith("error: sampler aborted at sweep ")
    assert not out.exists()


def test_refused_run_keeps_the_config_kv_of_the_last_run(workspace, tmp_path):
    # config.kv is stamped after the command succeeds, so beside the outputs
    # it describes it always records the config that wrote them
    out = tmp_path / "out"
    assert run_cli(["ingest", "--config", str(workspace["config"]), "--out", str(out)]).code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    config = config_with(workspace, tmp_path, {"forest.n_trees": 0})
    res = run_cli(["fit", "--model", "fair", "--config", str(config), "--out", str(out)])
    assert res.code == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


TWO_DRAWS = "0,0.5,0.25\n1,0.75,0.125\n"


@pytest.mark.parametrize(
    "header, rows",
    [
        ("draw,b_j,b_h", "0,0.5,0.25\n"),
        ("draw,b_j,b_h", "0,0.5,0.25\n1,nan,0.5\n2,0.75,0.125\n"),
        # column names become plot file names: one would write outside
        # plots/, a repeated one would overwrite the first column's plots
        ("draw,b_j,../escaped", TWO_DRAWS),
        ("draw,b_j,b_j", TWO_DRAWS),
    ],
    ids=("one_draw", "nan", "escaped_name", "repeated_name"),
)
def test_diagnose_corrupt_chain_exit_code(workspace, tmp_path, header, rows):
    out = tmp_path / "out"
    out.mkdir()
    (out / "params.csv").write_text(f"{header}\n{rows}", encoding="utf-8")
    res = run_cli(["diagnose", "--config", str(workspace["config"]), "--out", str(out)])
    assert res.code == 2
    assert res.err.startswith(f"error: {out / 'params.csv'}:") and res.err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["params.csv"]


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
