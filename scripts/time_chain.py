#!/usr/bin/env python3
"""Time run_chain in two source trees of faircredit, round by round.

Usage:

    python3 scripts/time_chain.py OLD_SRC NEW_SRC --rounds 10 --seed 0

OLD_SRC and NEW_SRC are directories holding the faircredit package, such as
the src/ of two checkouts. Each round runs one subprocess per tree, the old
first in odd rounds and the new first in even ones. A subprocess pins itself
to one CPU (os.sched_setaffinity), builds both chains' data and times
run_chain at the default sampler config with --seed on each:

    fit          the fit workload's chain: the bundled data's 800-row
                 training split (split seed --seed), default model config.
    synth_large  the synth_large workload's chain: generate_synthetic at
                 n = 3200 with acceptance 3's truth (perfbench/checks.py),
                 synth seed --seed, the credit intercept on.

Only run_chain is timed, by time.perf_counter, and the benchmark's speed
probe (perfbench/run.py's SpeedProbe) runs in the subprocess around it: a
thread on the same CPU that times a fixed loop of small numpy calls by its
own CPU time. A chain's probe loops are its seconds divided by that loop's
mean time during it, so they stay put when the host switches its CPU's
speed, as raw seconds do not. For each chain the script prints each tree's
median and quartiles of probe loops, with the median raw seconds beside
them, the ratio of the loop medians (new/old) and the rounds in which the
new tree took fewer loops; then each tree's worst folded bulk ESS (the
minimum of diagnostics.ess_bulk over the parameters, with every draw folded
to beta_c_c <= 0 by negating the three latent loadings, since the posterior
is symmetric under that mirror), that ESS per 1,000 probe loops of its
median chain, the sampler's figure of merit, and the latents' acceptance
rate after burn-in; then one JSON line with every round's times.
The chains must agree bit for bit: the exit code is 1, and a line says so,
when the sha256 of param_draws and latent_mean differs between the trees in
any round.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAINS = ("fit", "synth_large")
TRAIN_COUNT = 800


def child(seed: int) -> None:
    """Time both chains with the faircredit on sys.path; print one JSON line."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from checks import SYNTH_N, SYNTH_TRUTH
    from run import SpeedProbe
    from faircredit.dataset import SplitSpec, generate_synthetic, load_csv, preprocess, split
    from faircredit.diagnostics import ess_bulk
    from faircredit.probmodel import ModelConfig, ModelParams
    from faircredit.sampler import SamplerConfig, run_chain

    records = load_csv(os.path.join(ROOT, "data", "german_synthetic.csv"))
    train, _ = split(preprocess(records), SplitSpec(train_count=TRAIN_COUNT, seed=seed))
    synth, _ = generate_synthetic(ModelParams(**SYNTH_TRUTH), SYNTH_N, seed)
    runs = {
        "fit": (train, ModelConfig()),
        "synth_large": (synth, ModelConfig(include_credit_intercept=True)),
    }
    result = {}
    for name in CHAINS:
        data, model_config = runs[name]
        with SpeedProbe() as probe:
            start = time.perf_counter()
            chain = run_chain(data, model_config, SamplerConfig(seed=seed))
            elapsed = time.perf_counter() - start
        digest = hashlib.sha256(chain.param_draws.tobytes() + chain.latent_mean.tobytes())
        folded = chain.param_draws.copy()
        loads = [chain.param_names.index(n) for n in ("beta_j_c", "beta_h_c", "beta_c_c")]
        folded[:, loads] *= np.where(folded[:, loads[-1]] > 0.0, -1.0, 1.0)[:, None]
        result[name] = {
            "s": elapsed, "loops": elapsed / probe.mean_s(), "sha256": digest.hexdigest(),
            "ess": min(ess_bulk(column) for column in folded.T),
            "accept_latents": chain.accept_rate_latents,
        }
    print(json.dumps(result))


def run_side(src: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, os.path.abspath(__file__), "--child", "--seed", str(seed)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("old_src", nargs="?", help="directory holding the old faircredit package")
    parser.add_argument("new_src", nargs="?", help="directory holding the new faircredit package")
    parser.add_argument("--rounds", type=int, default=10, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.seed)
        return 0
    if args.old_src is None or args.new_src is None or args.rounds < 1:
        parser.error("OLD_SRC and NEW_SRC are required, and --rounds must be at least 1")
    trees = {"old": os.path.abspath(args.old_src), "new": os.path.abspath(args.new_src)}
    for src in trees.values():
        if not os.path.isfile(os.path.join(src, "faircredit", "sampler.py")):
            print(f"error: no faircredit package in {src}", file=sys.stderr)
            return 2
    rounds = []
    for r in range(args.rounds):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        rounds.append({side: run_side(trees[side], args.seed) for side in order})
        print(f"round {r + 1}: " + ", ".join(
            f"{name} " + " ".join(
                f"{side} {rounds[-1][side][name]['loops']:.0f} loops "
                f"({rounds[-1][side][name]['s']:.4f} s)" for side in trees)
            for name in CHAINS), flush=True)
    differ = False
    for name in CHAINS:
        loops = {side: [rd[side][name]["loops"] for rd in rounds] for side in trees}
        medians = {side: statistics.median(v) for side, v in loops.items()}
        for side in trees:
            lo, hi = quartiles(loops[side]) if args.rounds > 1 else (medians[side],) * 2
            seconds = statistics.median(rd[side][name]["s"] for rd in rounds)
            print(f"{name} {side}: median {medians[side]:.0f} probe loops, "
                  f"quartiles {lo:.0f}-{hi:.0f} (median {seconds:.4f} s)")
        wins = sum(rd["new"][name]["loops"] < rd["old"][name]["loops"] for rd in rounds)
        print(f"{name}: ratio of medians new/old {medians['new'] / medians['old']:.4f}, "
              f"new faster in {wins} of {args.rounds} rounds")
        for side in trees:
            # the draws, and so the ESS and the acceptance, are the same in
            # every round
            ess = rounds[0][side][name]["ess"]
            print(f"{name} {side}: worst folded bulk ESS {ess:.1f}, "
                  f"{1000.0 * ess / medians[side]:.1f} per 1,000 probe loops, "
                  f"latent acceptance {rounds[0][side][name]['accept_latents']:.3f}")
        if any(rd["old"][name]["sha256"] != rd["new"][name]["sha256"] for rd in rounds):
            print(f"{name}: param_draws and latent_mean differ between the trees")
            differ = True
    print(json.dumps({"seed": args.seed, "rounds": rounds}))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
