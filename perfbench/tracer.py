"""Run one faircredit CLI command with timing wrappers around public functions.

Usage: python3 perfbench/tracer.py TRACE_JSON <faircredit CLI arguments...>

Each target function is replaced at every module binding that refers to it,
because the package imports functions by name (``from .sampler import
run_chain``). A wrapper counts calls and adds the call's wall time to the
function's total; the time spent inside wrapped callees is subtracted to give
self time. Per-call observers add the counts the benchmark reports, such as
rows per call or the include_credit split of ``infer_latent``. The aggregated
numbers are written to TRACE_JSON when the command ends. A target that no
longer exists is listed under "missing" rather than reported as zero.
"""

import functools
import json
import sys
import time

from faircredit import cli
from faircredit.diagnostics import ess_bulk
from faircredit.errors import DegenerateSeriesError

# (module, function) pairs, timed at every binding site in the package
TARGETS = (
    ("dataset", "load_csv"),
    ("dataset", "preprocess"),
    ("dataset", "read_processed_csv"),
    ("dataset", "split"),
    ("dataset", "write_processed_csv"),
    ("dataset", "generate_synthetic"),
    ("probmodel", "head_log_likelihood"),
    ("probmodel", "per_obs_log_likelihood"),
    ("sampler", "run_chain"),
    ("sampler", "infer_latent"),
    ("sampler", "export_chain"),
    ("predictors", "fair_latent_points"),
    ("predictors", "fit_forest"),
    ("predictors", "predict_forest"),
    ("predictors", "fit_ols"),
    ("predictors", "save_fair_model"),
    ("evaluation", "compare_models"),
    ("diagnostics", "summarize"),
    ("util", "atomic_write_text"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra", "kept")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = {}  # reported counts and ratios
        self.kept = {}   # values for post-processing, not reported

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._child_time: list[float] = []  # one accumulator per open call

    def wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(stat, args, kwargs, result, dt)
            return result

        return wrapper

    def install(self, package, observers):
        """Wrap every TARGET at each binding in the loaded package modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def to_json(self):
        return {
            "missing": self.missing,
            "functions": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.extra}
                for name, s in self.stats.items()
            },
        }


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _observe_run_chain(stat, args, kwargs, chain, dt):
    stat.add("sweeps", _arg(args, kwargs, 2, "sampler_config").iterations)
    stat.extra["accept_rate_latents"] = float(chain.accept_rate_latents)
    stat.extra["accept_rate_params_min"] = float(min(chain.accept_rate_params))
    stat.extra["likelihood_errors"] = int(chain.n_likelihood_errors)
    stat.extra["draws_bytes"] = int(chain.param_draws.nbytes + chain.latent_draws.nbytes)
    stat.kept["param_draws"] = chain.param_draws  # ESS is computed after the command ends


def _observe_infer_latent(stat, args, kwargs, post, dt):
    protocol = "leaky" if _arg(args, kwargs, 4, "include_credit") else "honest"
    stat.add(f"{protocol}.calls", 1)
    stat.add(f"{protocol}.total_s", dt)


def _observe_predict_forest(stat, args, kwargs, result, dt):
    stat.add("rows", int(len(result)))


def _observe_atomic_write_text(stat, args, kwargs, result, dt):
    stat.add("bytes", len(_arg(args, kwargs, 1, "text").encode("utf-8")))


OBSERVERS = {
    "sampler.run_chain": _observe_run_chain,
    "sampler.infer_latent": _observe_infer_latent,
    "predictors.predict_forest": _observe_predict_forest,
    "util.atomic_write_text": _observe_atomic_write_text,
}


def ess_bulk_min(param_draws):
    """Worst rank-normalized bulk ESS over the chain's parameters, as in summary.csv.

    A parameter whose draws never moved has no effective draws: 0.
    """
    worst = float("inf")
    for j in range(param_draws.shape[1]):
        try:
            worst = min(worst, ess_bulk(param_draws[:, j]))
        except DegenerateSeriesError:
            return 0.0
    return worst


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install("faircredit", OBSERVERS)
    try:
        code = cli.main(cli_args)
    finally:
        chain_stat = tracer.stats.get("sampler.run_chain")
        if chain_stat is not None and "param_draws" in chain_stat.kept:
            chain_stat.extra["ess_bulk_min"] = ess_bulk_min(chain_stat.kept["param_draws"])
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
