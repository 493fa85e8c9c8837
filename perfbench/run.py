"""faircredit benchmark: three CLI workloads, checked, with a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12 --trace 1

Workloads (closed loop, one client: each CLI command runs in a fresh process
and the next starts only after it exits; workloads never overlap):

    fit          faircredit fit --model fair at defaults (800 train rows,
                 5000 sweeps). Sampler-heavy, no test-time inference.
    compare      faircredit compare at defaults (800/200 split). Dominated by
                 test-time latent inference (infer_latent).
    synth_large  faircredit synth with synth.n = 3200, the credit intercept on
                 and acceptance 3's coefficients as truth. Same kernels at 4x
                 the rows, no forest and no inference.

The workload seed is passed to the CLI as --seed. A run first times
SETUP_REPEATS set-up processes (import, plus data load and split for fit and
compare), then runs the command repeatedly with the same --out path until
--seconds of command wall time have passed, and at least min_runs times.
Every invocation's outputs are checked (checks.py) and byte-compared with the
run's first invocation; a failed check counts as a failed operation.
--workload all runs the three workloads one after another.

The benchmark pins itself, and so every process it starts, to one CPU. On a
shared host that CPU's speed switches between a fast mode and one about 1.7x
slower every few hundredths of a second, in proportions that drift over
minutes, so raw wall times of the same code spread by a quarter between runs.
While each process runs, a thread of the benchmark on the same CPU wakes every
PROBE_INTERVAL_S and times a fixed loop of small numpy calls by its own CPU
time (which excludes waiting for the CPU). The end-to-end metric
wall_probe_loops is a CLI invocation's wall time divided by that loop's mean
CPU time during it: the host's speed cancels, a change to the package does
not. Raw wall times are printed beside it.

--trace 0 prints the end-to-end metrics (medians over the run's
invocations). --trace 1 runs the command once untraced and once under
perfbench/tracer.py, which times calls into the package's public functions,
and prints the per-layer metrics; trace.overhead_s is the difference of the
two wall times, the traced one rescaled to the untraced one's probe loop.
Both modes print a run record and each timing's median, quartiles and sample
count before the final JSON line.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
DATA_PATH = "data/german_synthetic.csv"
CLI_MODULE = "src/faircredit/cli.py"
SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 150

# min_runs is two where a run must byte-compare two invocations (fit and
# synth_large). compare (20 to 30 s per invocation) gets a second one only when
# the first leaves time, which keeps a run under a minute even when a shared
# 2-core machine runs 1.5x slower than usual.
WORKLOADS = {
    "fit": {"args": ["fit", "--model", "fair"], "setup": "data", "min_runs": 2,
            "check": checks.check_fit},
    "compare": {"args": ["compare"], "setup": "data", "min_runs": 1,
                "check": checks.check_compare},
    "synth_large": {"args": ["synth", "--config", "{work}/synth.kv"], "setup": "import",
                    "min_runs": 2, "check": checks.check_synth},
}

END_TO_END_UNITS = {"wall_probe_loops": "loops", "setup_s": "s", "peak_rss_mb": "MiB"}

# the speed probe: about 0.3 ms of work every 0.02 s, under 2% of the CPU
PROBE_INTERVAL_S = 0.02
PROBE_ROWS = 800
PROBE_STEPS = 10


@dataclass
class Invocation:
    label: str
    wall_s: float
    probe_s: float
    rss_mb: float
    returncode: int
    loadavg: str
    stderr_path: str


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def child_env():
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class SpeedProbe:
    """Samples the speed of this process's CPU while a child process runs on it.

    A thread on the CPU runs a fixed loop of small numpy calls, like
    the sampler's kernels, at once and then every PROBE_INTERVAL_S, and keeps
    each loop's thread CPU time: longer when the host runs the CPU slowly,
    and blind to the time the thread waits for the child's turn to end.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        x = np.linspace(-3.0, 3.0, PROBE_ROWS)
        while True:
            t0 = time.thread_time()
            for i in range(PROBE_STEPS):
                np.sum(np.logaddexp(0.0, x * (0.1 * i)))
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_s(self):
        return statistics.fmean(self.samples)


def invoke(label, argv, log_prefix):
    """Run argv to completion; wall time, peak RSS and the CPU's speed come
    from this process."""
    load = loadavg()
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err, SpeedProbe() as probe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(label, wall, probe.mean_s(), usage.ru_maxrss / 1024.0, proc.returncode,
                      load, err_path)


class Run:
    """One workload at one seed: its invocations, checks and failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.work = os.path.join(WORK_DIR, workload)
        self.out = os.path.join(self.work, "out")
        self.invocations: list[Invocation] = []
        self.failures: list[str] = []
        self.first_snapshot = None
        self.config_hash = None

    def cli_args(self):
        args = [a.format(work=self.work) for a in self.spec["args"]]
        return args + ["--seed", str(self.seed), "--out", self.out]

    def launch(self, label, argv):
        inv = invoke(label, argv, os.path.join(self.work, label))
        self.invocations.append(inv)
        if inv.returncode != 0:
            self.fail(label, f"exit code {inv.returncode} (see {inv.stderr_path})")
        return inv

    def fail(self, label, problem):
        self.failures.append(f"{label}: {problem}")

    def run_cli(self, label, prefix):
        """One CLI invocation into a fresh --out, then its output checks."""
        shutil.rmtree(self.out, ignore_errors=True)
        inv = self.launch(label, [sys.executable] + prefix + self.cli_args())
        if inv.returncode == 0:
            self.check_outputs(label)
        return inv

    def check_outputs(self, label):
        try:
            problems = checks.check_config_hash(self.out)
            problems += self.spec["check"](self.out, self.seed)
            snap = checks.snapshot(self.out)
            if self.first_snapshot is None:
                self.first_snapshot = snap
                self.config_hash = checks.config_hash_of(os.path.join(self.out, "config.kv"))
            elif snap != self.first_snapshot:
                differ = sorted(k for k in set(snap) | set(self.first_snapshot)
                                if snap.get(k) != self.first_snapshot.get(k))
                problems.append(f"outputs differ from the first invocation: {differ}")
        except Exception as exc:  # a broken output is a failed operation, not a crash
            problems = [f"unreadable output: {exc!r}"]
        for p in problems:
            self.fail(label, p)

    def n_failed_operations(self):
        return len({f.partition(":")[0] for f in self.failures})


def build():
    """Compile the package once so no timed process pays for bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name, unit, values):
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.6g} {unit} [q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"


def measure_end_to_end(run, seconds):
    setups = [run.launch(f"setup{i}", [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                                       run.spec["setup"], str(run.seed)])
              for i in range(SETUP_REPEATS)]
    cli_runs = []
    while len(cli_runs) < run.spec["min_runs"] or sum(r.wall_s for r in cli_runs) < seconds:
        cli_runs.append(run.run_cli(f"cli{len(cli_runs)}", ["-m", "faircredit.cli"]))

    samples = {
        "wall_probe_loops": [r.wall_s / r.probe_s for r in cli_runs],
        "setup_s": [s.wall_s for s in setups],
        "peak_rss_mb": [r.rss_mb for r in cli_runs],
    }
    print(describe("raw wall_s", "s", [r.wall_s for r in cli_runs]))
    print(describe("probe loop", "ms", [r.probe_s * 1e3 for r in cli_runs]))
    for name, values in samples.items():
        print(describe(name, END_TO_END_UNITS[name], values))
    return {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
            for name, values in samples.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced invocation


class Missing(Exception):
    """A wrapped public function no longer exists."""


class TraceView:
    def __init__(self, trace, imports, untraced_wall_s):
        self.functions = trace["functions"]
        self.missing = set(trace["missing"])
        self.imports = imports
        self.untraced_wall_s = untraced_wall_s

    def get(self, fn, key):
        if fn in self.missing or fn not in self.functions:
            raise Missing(fn)
        return self.functions[fn].get(key, 0)

    def ratio(self, fn, num, den, scale):
        d = self.get(fn, den)
        return self.get(fn, num) / d * scale if d else 0.0


LOAD_FUNCTIONS = ("dataset.load_csv", "dataset.preprocess", "dataset.read_processed_csv",
                  "dataset.split")

PER_LAYER = (  # (name, unit, value from a TraceView)
    ("cli.import_s", "s", lambda t: t.imports["faircredit"]),
    ("cli.import_scipy_stats_s", "s", lambda t: t.imports["scipy.stats"]),
    ("dataset.load_s", "s", lambda t: sum(t.get(f, "total_s") for f in LOAD_FUNCTIONS)),
    ("dataset.generate_synthetic_s", "s", lambda t: t.get("dataset.generate_synthetic", "total_s")),
    ("probmodel.head_ll.calls", "count", lambda t: t.get("probmodel.head_log_likelihood", "calls")),
    ("probmodel.head_ll.self_s", "s", lambda t: t.get("probmodel.head_log_likelihood", "self_s")),
    ("probmodel.head_ll.us_per_call", "us",
     lambda t: t.ratio("probmodel.head_log_likelihood", "total_s", "calls", 1e6)),
    ("probmodel.per_obs_ll.calls", "count",
     lambda t: t.get("probmodel.per_obs_log_likelihood", "calls")),
    ("probmodel.per_obs_ll.self_s", "s",
     lambda t: t.get("probmodel.per_obs_log_likelihood", "self_s")),
    ("probmodel.per_obs_ll.us_per_call", "us",
     lambda t: t.ratio("probmodel.per_obs_log_likelihood", "total_s", "calls", 1e6)),
    ("sampler.run_chain.s", "s", lambda t: t.get("sampler.run_chain", "total_s")),
    ("sampler.run_chain.self_s", "s", lambda t: t.get("sampler.run_chain", "self_s")),
    ("sampler.run_chain.sweeps", "count", lambda t: t.get("sampler.run_chain", "sweeps")),
    ("sampler.sweep_us", "us", lambda t: t.ratio("sampler.run_chain", "total_s", "sweeps", 1e6)),
    ("sampler.accept_rate_latents", "ratio",
     lambda t: t.get("sampler.run_chain", "accept_rate_latents")),
    ("sampler.accept_rate_params_min", "ratio",
     lambda t: t.get("sampler.run_chain", "accept_rate_params_min")),
    ("sampler.likelihood_errors", "count",
     lambda t: t.get("sampler.run_chain", "likelihood_errors")),
    ("sampler.draws_mb", "MB-computed",
     lambda t: t.get("sampler.run_chain", "draws_bytes") / 1e6),
    ("sampler.ess_bulk_min", "draws", lambda t: t.get("sampler.run_chain", "ess_bulk_min")),
    ("sampler.ess_bulk_min_per_s", "draws/s",
     lambda t: t.get("sampler.run_chain", "ess_bulk_min") / t.untraced_wall_s),
    ("sampler.infer_latent.calls", "count", lambda t: t.get("sampler.infer_latent", "calls")),
    ("sampler.infer_latent.self_s", "s", lambda t: t.get("sampler.infer_latent", "self_s")),
    ("sampler.infer_latent.honest.ms_per_row", "ms",
     lambda t: t.ratio("sampler.infer_latent", "honest.total_s", "honest.calls", 1e3)),
    ("sampler.infer_latent.leaky.ms_per_row", "ms",
     lambda t: t.ratio("sampler.infer_latent", "leaky.total_s", "leaky.calls", 1e3)),
    ("sampler.export_chain.s", "s", lambda t: t.get("sampler.export_chain", "total_s")),
    ("predictors.fair_latent_points.calls", "count",
     lambda t: t.get("predictors.fair_latent_points", "calls")),
    ("predictors.fit_forest.s", "s", lambda t: t.get("predictors.fit_forest", "total_s")),
    ("predictors.predict_forest.rows", "count",
     lambda t: t.get("predictors.predict_forest", "rows")),
    ("predictors.predict_forest.us_per_row", "us",
     lambda t: t.ratio("predictors.predict_forest", "total_s", "rows", 1e6)),
    ("predictors.fit_ols.s", "s", lambda t: t.get("predictors.fit_ols", "total_s")),
    ("predictors.save_fair_model.s", "s", lambda t: t.get("predictors.save_fair_model", "total_s")),
    ("evaluation.compare_models.self_s", "s",
     lambda t: t.get("evaluation.compare_models", "self_s")),
    ("diagnostics.summarize.s", "s", lambda t: t.get("diagnostics.summarize", "total_s")),
    ("util.atomic_write_text.calls", "count", lambda t: t.get("util.atomic_write_text", "calls")),
    ("util.atomic_write_text.bytes", "bytes", lambda t: t.get("util.atomic_write_text", "bytes")),
    ("util.atomic_write_text.s", "s", lambda t: t.get("util.atomic_write_text", "total_s")),
)


def parse_importtime(stderr_text):
    """Seconds for `import faircredit.cli` and for the scipy.stats import in it.

    -X importtime prints 'import time: self | cumulative | name' per module
    first loaded, indented two spaces per nesting level.
    """
    faircredit_us = scipy_stats_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, field = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        if depth == 0 and (name == "faircredit" or name.startswith("faircredit.")):
            faircredit_us += int(cumulative)
        elif name == "scipy.stats":
            scipy_stats_us += int(cumulative)
    return {"faircredit": faircredit_us / 1e6, "scipy.stats": scipy_stats_us / 1e6}


def measure_layers(run):
    plain = run.run_cli("untraced", ["-m", "faircredit.cli"])
    trace_path = os.path.join(run.work, "trace.json")
    traced = run.run_cli("traced", [os.path.join(BENCH_DIR, "tracer.py"), trace_path])
    probe = run.launch("importtime", [sys.executable, "-X", "importtime", "-c",
                                      "import faircredit.cli"])
    with open(probe.stderr_path, encoding="utf-8") as fh:
        imports = parse_importtime(fh.read())
    try:
        with open(trace_path, encoding="utf-8") as fh:
            view = TraceView(json.load(fh), imports, plain.wall_s)
    except (OSError, ValueError) as exc:
        run.fail("traced", f"no trace written: {exc!r}")
        view = TraceView({"functions": {}, "missing": []}, imports, plain.wall_s)

    metrics = {}
    for name, unit, value in PER_LAYER:
        try:
            metrics[name] = {"value": value(view), "unit": unit}
        except Missing as exc:
            print(f"layer missing: {name} (no public function {exc})", file=sys.stderr)
            metrics[name] = {"value": "missing", "unit": unit}
    overhead = traced.wall_s * plain.probe_s / traced.probe_s - plain.wall_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"wall_s untraced {plain.wall_s:.4f} s, traced {traced.wall_s:.4f} s")
    print("function                               calls     total_s      self_s")
    for fn, s in sorted(view.functions.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{fn:<36} {s['calls']:>9} {s['total_s']:>11.4f} {s['self_s']:>11.4f}")
    for name, m in metrics.items():
        v = m["value"]
        print(f"{name}: {v if isinstance(v, str) else format(v, '.6g')} {m['unit']}")
    return metrics


def run_record(run, seconds, trace):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.partition(":")[2].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "workload": run.workload, "seed": run.seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit, "config_hash": run.config_hash,
        "loadavg_at_start": {inv.label: inv.loadavg for inv in run.invocations},
    }


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    with open(os.path.join(run.work, "synth.kv"), "w", encoding="utf-8") as fh:
        fh.write(checks.synth_config_text())
    build()
    print(f"== {workload} seed={seed} trace={trace}")
    metrics = measure_layers(run) if trace else measure_end_to_end(run, seconds)
    print("record: " + json.dumps(run_record(run, seconds, trace), sort_keys=True))
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    failed = run.n_failed_operations()
    return {"correct": failed == 0, "attempted": len(run.invocations), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (CLI_MODULE, DATA_PATH) if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a faircredit checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))  # for the split used by the compare check
    # one CPU for this process, its probe thread and every child it starts
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
