#!/usr/bin/env python3
"""Check that two source trees of faircredit write byte-identical outputs.

Usage:

    python3 scripts/diff_outputs.py OLD_SRC NEW_SRC --seeds 0 37

OLD_SRC and NEW_SRC are directories holding the faircredit package, such as
the src/ of two checkouts. For each seed, each tree in turn runs every
command: `ingest`, `fit --model full`, `fit --model unaware`,
`fit --model fair`, `diagnose` (on the chain that fit wrote) and `compare` at
defaults, then `synth` with the benchmark's synth_large config
(perfbench/checks.py), one after the other into the same --out path, so that
the config hashes match. Then `fit --model fair --preset recommended`,
which turns the credit intercept on, runs into a second --out path.
`fit --model fair` and `compare` with `model.poisson_rate_cap = 300`, just
over the data's largest credit (251), and `eval.age_mode = shift` run into a
third: the chain proposes rates over the cap (1,250 times at seed 0)
without aborting, so the cap guard is compared too, and
in compare's leaky test-time inference, which runs in blocks of rows, some
grids end on the cap's bound (2 of the 200 at seed 0); compare also runs
the age shift there. `fit --model fair` runs twice more, with
`out.latent_columns = 0` and with `out.latent_columns = 800` (every training
row), each into its own --out path, so that both edges of the chain export
are compared: rows of the draw index alone, with no trailing comma, and the
widest latents.csv. Last come the refused runs, so that their error messages and exit codes are
compared. `fit --model fair` runs with `model.poisson_rate_cap = 100`
into out_budget: its steps over the cap pass the likelihood-error budget
and the chain aborts (at sweep 100 at seed 0), so its exit code, its error
line and the absence of any file it wrote are compared. `synth` runs with
two configs it refuses (`sampler.thin = abc`, `model.poisson_rate_cap = x`)
into one more --out path; synth reads every config it needs before any work, in both
trees. Then `fit --model fair` and `diagnose` run into another, each with a
file where it makes its subdirectory (BLOCKERS: `model_fair`, `plots`),
written just before it runs; the refused fit writes nothing, so diagnose is
refused at plots/ before it reads any chain. Every file under the --out paths is
compared, bytes and permission bits (st_mode & 0o777), and so are each
command's stdout, stderr and exit code.
Prints `seed N: identical`, or the outputs that differ in two lists: those
that differ anywhere but a first `# config_hash=` line, and those that
differ only there (a changed default config changes every output's hash).
Each output of the first list is then shown as a unified diff, cut after
DIFF_LINES lines. The exit code is 1 if any output differs, in either list.
The data and the synth_large config come from the checkout that holds this
script, and the commands run from its root.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from checks import synth_config_text  # noqa: E402

# (name, --out directory under the work directory, arguments); {work} is
# the work directory, which holds the written configs
COMMANDS = (
    ("ingest", "out", ["ingest"]),
    ("fit full", "out", ["fit", "--model", "full"]),
    ("fit unaware", "out", ["fit", "--model", "unaware"]),
    ("fit fair", "out", ["fit", "--model", "fair"]),
    ("diagnose", "out", ["diagnose"]),
    ("compare", "out", ["compare"]),
    ("synth", "out", ["synth", "--config", "{work}/synth.kv"]),
    ("fit fair recommended", "out_recommended",
     ["fit", "--model", "fair", "--preset", "recommended"]),
    ("fit fair rate cap", "out_rate_cap", ["fit", "--model", "fair", "--config", "{work}/rate_cap.kv"]),
    ("compare rate cap shift", "out_rate_cap", ["compare", "--config", "{work}/rate_cap.kv"]),
    ("fit fair no latents", "out_latents_none",
     ["fit", "--model", "fair", "--config", "{work}/latents_none.kv"]),
    ("fit fair all latents", "out_latents_all",
     ["fit", "--model", "fair", "--config", "{work}/latents_all.kv"]),
    ("fit fair budget abort", "out_budget",
     ["fit", "--model", "fair", "--config", "{work}/budget.kv"]),
    ("synth bad thin", "out_refused", ["synth", "--config", "{work}/bad_thin.kv"]),
    ("synth bad rate cap", "out_refused", ["synth", "--config", "{work}/bad_rate_cap.kv"]),
    ("fit fair blocked model dir", "out_blocked", ["fit", "--model", "fair"]),
    ("diagnose blocked plot dir", "out_blocked", ["diagnose"]),
)
# the file each of these commands finds where it makes a subdirectory of
# its --out path
BLOCKERS = {"fit fair blocked model dir": "model_fair", "diagnose blocked plot dir": "plots"}
DIFF_LINES = 20  # lines of each output's unified diff that are printed

CONFIGS = {
    "synth.kv": synth_config_text(),
    "rate_cap.kv": "model.poisson_rate_cap = 300\neval.age_mode = shift\n",
    "latents_none.kv": "out.latent_columns = 0\n",
    "latents_all.kv": "out.latent_columns = 800\n",
    "budget.kv": "model.poisson_rate_cap = 100\n",
    "bad_thin.kv": "sampler.thin = abc\n",
    "bad_rate_cap.kv": "model.poisson_rate_cap = x\n",
}


def run_tree(src: str, seed: int, work: str) -> dict[str, bytes]:
    """Run every command with the package in src; return each output by name."""
    out_dirs = sorted({os.path.join(work, out) for _, out, _ in COMMANDS})
    for out in out_dirs:
        shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=src)
    outputs = {}
    for name, out, args in COMMANDS:
        argv = [sys.executable, "-m", "faircredit.cli"]
        argv += [a.format(work=work) for a in args]
        argv += ["--seed", str(seed), "--out", os.path.join(work, out)]
        if name in BLOCKERS:
            os.makedirs(os.path.join(work, out), exist_ok=True)
            with open(os.path.join(work, out, BLOCKERS[name]), "w", encoding="utf-8") as fh:
                fh.write("kept\n")
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
        outputs[f"stdout of {name}"] = proc.stdout
        outputs[f"stderr of {name}"] = proc.stderr
        outputs[f"exit code of {name}"] = str(proc.returncode).encode()
    for out in out_dirs:
        for folder, _, files in os.walk(out):
            for f in files:
                path = os.path.join(folder, f)
                name = os.path.relpath(path, work)
                with open(path, "rb") as fh:
                    outputs[name] = fh.read()
                outputs[f"mode of {name}"] = f"{os.stat(path).st_mode & 0o777:o}".encode()
    return outputs


def only_hash_differs(old: bytes | None, new: bytes | None) -> bool:
    """Whether two outputs differ in their first line alone, and it is a
    `# config_hash=` line in both."""
    if old is None or new is None:
        return False
    (old_first, _, old_rest), (new_first, _, new_rest) = (x.partition(b"\n") for x in (old, new))
    return old_rest == new_rest and all(
        first.startswith(b"# config_hash=") for first in (old_first, new_first)
    )


def unified_diff(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """The unified diff of one output, one line of context, cut after
    DIFF_LINES lines; a missing output diffs as empty."""
    old_lines, new_lines = (
        (x or b"").decode("utf-8", errors="replace").splitlines() for x in (old, new)
    )
    lines = list(difflib.unified_diff(
        old_lines, new_lines, f"old: {name}", f"new: {name}", n=1, lineterm=""
    ))
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... ({len(lines) - DIFF_LINES} more diff lines)"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("old_src", help="directory holding the old faircredit package")
    parser.add_argument("new_src", help="directory holding the new faircredit package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], metavar="N")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(p) for p in (args.old_src, args.new_src)]
    for src in trees:
        if not os.path.isfile(os.path.join(src, "faircredit", "cli.py")):
            print(f"error: no faircredit package in {src}", file=sys.stderr)
            return 2
    any_differ = False
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as work:
        for name, text in CONFIGS.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for seed in args.seeds:
            old, new = (run_tree(src, seed, work) for src in trees)
            differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            any_differ = any_differ or bool(differ)
            hash_only = [k for k in differ if only_hash_differs(old.get(k), new.get(k))]
            elsewhere = [k for k in differ if k not in hash_only]
            parts = [f"differ: {', '.join(elsewhere)}"] if elsewhere else []
            if hash_only:
                parts.append(f"differ only in the # config_hash= line: {', '.join(hash_only)}")
            print(f"seed {seed}: " + ("; ".join(parts) or "identical"))
            for k in elsewhere:
                print("\n".join(unified_diff(k, old.get(k), new.get(k))))
            sys.stdout.flush()
    return 1 if any_differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
