"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reports a renamed or deleted one as "missing", which spoils the
benchmark's per-layer record. These tests fail first, and the last three run
the traced path end to end."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys

from faircredit.probmodel import ModelConfig
from faircredit.sampler import SamplerConfig, infer_latent, run_chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_callable_in_the_package():
    for module, name in load_tracer().TARGETS:
        home = importlib.import_module(f"faircredit.{module}")
        assert callable(getattr(home, name, None)), f"faircredit.{module}.{name}"


def test_run_chain_takes_sampler_config_third():
    # the tracer's run_chain observer reads the sweep count from positional
    # argument 2 when it is not passed by keyword
    assert list(inspect.signature(run_chain).parameters)[2] == "sampler_config"


def test_infer_latent_takes_include_credit_by_keyword():
    # the tracer's infer_latent observer reads include_credit from the
    # keyword arguments, falling back to positional argument 4, which
    # infer_latent does not have
    param = inspect.signature(infer_latent).parameters["include_credit"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


def test_run_chain_observer_runs_on_a_real_chain(tiny_dataset):
    # a traced fit, compare or synth hands every chain to this observer, and
    # its ESS is taken from the kept parameter draws after the command ends
    tracer = load_tracer()
    mc, sc = ModelConfig(), SamplerConfig(iterations=120, burn_in=20, seed=0)
    chain = run_chain(tiny_dataset, mc, sc)
    stat = tracer.Stat()
    tracer._observe_run_chain(stat, (tiny_dataset, mc, sc), {}, chain, 0.0)
    tracer.ess_bulk_min(chain.param_draws)
    assert stat.extra["sweeps"] == sc.iterations
    assert stat.extra["draws_bytes"] == chain.param_draws.nbytes + chain.latent_draws.nbytes
    assert stat.kept["param_draws"] is chain.param_draws


def refuse_constant(name):
    raise ValueError(f"the trace holds {name}")


def traced_run(tmp_path, *command, config_text=""):
    """The trace record of the benchmark's traced path end to end: the tracer
    runs command in its own process, as perfbench/run.py --trace 1 does, on a
    short chain and any config_text lines. The run must exit 0, and its trace
    must load with NaN and Infinity refused, name no missing target and hold
    only finite values."""
    config = tmp_path / "c.kv"
    data = os.path.join(ROOT, "data", "german_synthetic.csv")
    config.write_text(
        f"data.path = {data}\nsampler.iterations = 200\nsampler.burn_in = 50\n{config_text}",
        encoding="utf-8",
    )
    trace = tmp_path / "trace.json"
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, TRACER_PATH, str(trace), *command,
         "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    record = json.loads(trace.read_text(encoding="utf-8"), parse_constant=refuse_constant)
    assert record["missing"] == []
    for name, stat in record["functions"].items():
        for key, value in stat.items():
            assert math.isfinite(value), f"{name}.{key} = {value!r}"
    return record


def test_traced_fit_writes_a_well_formed_trace(tmp_path):
    record = traced_run(tmp_path, "fit", "--model", "fair")
    chain = record["functions"]["sampler.run_chain"]
    assert chain["calls"] == 1
    assert chain["ess_bulk_min"] > 0


def test_traced_compare_writes_a_well_formed_trace(tmp_path):
    record = traced_run(tmp_path, "compare")
    assert record["functions"]["sampler.run_chain"]["calls"] == 1
    assert record["functions"]["predictors.fit_ols"]["calls"] == 2


def test_traced_synth_writes_a_well_formed_trace(tmp_path):
    # synth is the command behind the benchmark's synth_large workload
    record = traced_run(tmp_path, "synth", config_text="synth.n = 200\n")
    assert record["functions"]["sampler.run_chain"]["calls"] == 1
    assert record["functions"]["dataset.generate_synthetic"]["calls"] == 1
