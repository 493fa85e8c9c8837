"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reports a renamed or deleted one as "missing", which spoils the
benchmark's per-layer record. These tests fail first."""

import importlib
import importlib.util
import inspect
import os

from faircredit.probmodel import ModelConfig
from faircredit.sampler import SamplerConfig, infer_latent, run_chain

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


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
