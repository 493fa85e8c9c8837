"""Output checks for one benchmark invocation of the faircredit CLI.

Each check returns a list of problems; an empty list means the outputs are
correct. They read only the files the CLI wrote under its --out directory.
"""

import hashlib
import math
import os

HASH_PREFIX = "# config_hash="

# acceptance 3's truth and bounds, used by the synth_large workload
SYNTH_TRUTH = {
    "b_j": 0.4, "beta_j_s": 0.7, "beta_j_a": -0.5, "beta_j_c": 0.9,
    "b_h": -0.3, "beta_h_s": 0.5, "beta_h_a": 0.8, "beta_h_c": 1.1,
    "beta_c_s": 0.35, "beta_c_a": -0.25, "beta_c_c": 0.6, "b_c": 1.8,
}
SYNTH_N = 3200
RECOVERY_MAX_ERROR = 0.5
RECOVERY_MIN_ABS_CORR = 0.3
# the likelihood is unchanged under c -> -c with these coefficients negated
LATENT_SLOPES = ("beta_j_c", "beta_h_c", "beta_c_c")

FIT_PARAMS = ("b_j", "beta_j_s", "beta_j_a", "beta_j_c", "b_h", "beta_h_s",
              "beta_h_a", "beta_h_c", "beta_c_s", "beta_c_a", "beta_c_c")
FIT_DRAWS = 4000  # default iterations minus burn-in

TRAIN_COUNT = 800
# compare.csv prints %.6g, so a value read back is within 5e-6 relative
PRINT_RTOL = 1e-5
# Bands for the fair row, which MCMC noise and later inference changes move.
# Over seeds 0-9 at defaults: train_r2 0.40-0.70, honest test_r2 -0.63-0.32,
# leaky test_r2 0.17-0.67, gap_sex 25-42, gap_age 12-23.
FAIR_TRAIN_R2 = (0.2, 0.95)
FAIR_TEST_R2 = (-2.0, 0.95)
FAIR_GAP = (0.0, 100.0)


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


def _comment_value(path, key):
    prefix = f"# {key}="
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith(prefix):
                return ln[len(prefix):].split()[0]
    raise KeyError(f"{os.path.basename(path)} has no '{prefix}' line")


def _csv_rows(path):
    lines = _data_lines(path)
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def config_hash_of(config_kv_path):
    """sha256 of the sorted 'k = v' lines, as the CLI stamps its outputs."""
    items = {}
    for ln in _data_lines(config_kv_path):
        key, _, value = ln.partition("=")
        items[key.strip()] = value.strip()
    text = "\n".join(f"{k} = {v}" for k, v in sorted(items.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def output_files(out_dir):
    found = []
    for root, _, files in os.walk(out_dir):
        found += [os.path.relpath(os.path.join(root, f), out_dir) for f in files]
    return sorted(found)


def snapshot(out_dir):
    """Relative path -> sha256 of every file under out_dir."""
    digests = {}
    for rel in output_files(out_dir):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_config_hash(out_dir):
    path = os.path.join(out_dir, "config.kv")
    if not os.path.exists(path):
        return ["config.kv missing"]
    want = HASH_PREFIX + config_hash_of(path)
    problems = []
    for rel in output_files(out_dir):
        with open(os.path.join(out_dir, rel), encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        if first != want:
            problems.append(f"{rel}: first line {first!r}, expected {want!r}")
    return problems


def check_fit(out_dir, seed):
    problems = []
    rows = _csv_rows(os.path.join(out_dir, "summary.csv"))
    if tuple(r["name"] for r in rows) != FIT_PARAMS:
        problems.append(f"summary.csv names {[r['name'] for r in rows]}")
    for r in rows:
        ess = float(r["ess_bulk"])
        if not (math.isfinite(ess) and 0.0 < ess <= FIT_DRAWS):
            problems.append(f"summary.csv ess_bulk({r['name']}) = {ess}")
    n_draws = len(_data_lines(os.path.join(out_dir, "params.csv"))) - 1
    if n_draws != FIT_DRAWS:
        problems.append(f"params.csv has {n_draws} draws, expected {FIT_DRAWS}")
    for rel in ("latents.csv", "model_fair/params.kv", "model_fair/forest.txt",
                "model_fair/config.kv"):
        if not os.path.exists(os.path.join(out_dir, rel)):
            problems.append(f"{rel} missing")
    return problems


def _r2(pred, y):
    import numpy as np

    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def _close(reported, computed):
    return abs(reported - computed) <= PRINT_RTOL * abs(computed) + 1e-12


def _lstsq_row(train, test, columns):
    """Independent least-squares scores for one baseline row of compare.csv."""
    import numpy as np

    def design(data, sex=None, age=None):
        cols = {"sex": data.sex if sex is None else sex,
                "age_std": data.age_std if age is None else age,
                "job": data.job, "house": data.house}
        return np.column_stack([np.ones(len(data))] + [np.asarray(cols[c], float) for c in columns])

    y_train = np.asarray(train.credit, float)
    y_test = np.asarray(test.credit, float)
    beta = np.linalg.lstsq(design(train), y_train, rcond=None)[0]
    base = design(test) @ beta
    flipped_sex = design(test, sex=1 - np.asarray(test.sex)) @ beta
    mirrored_age = design(test, age=-np.asarray(test.age_std, float)) @ beta
    return {
        "train_r2": _r2(design(train) @ beta, y_train),
        "test_r2": _r2(base, y_test),
        "counterfactual_gap_sex": float(np.mean(np.abs(flipped_sex - base))),
        "counterfactual_gap_age": float(np.mean(np.abs(mirrored_age - base))),
    }


def check_compare(out_dir, seed):
    from faircredit.dataset import SplitSpec, read_processed_csv, split

    path = os.path.join(out_dir, "compare.csv")
    rows = {r["model"]: {k: float(v) for k, v in r.items() if k != "model"}
            for r in _csv_rows(path)}
    problems = []
    if sorted(rows) != ["fair", "full", "unaware"]:
        return [f"compare.csv rows {sorted(rows)}"]
    train, test = split(read_processed_csv(os.path.join(out_dir, "preprocessed.csv")),
                        SplitSpec(TRAIN_COUNT, seed))
    for model, columns in (("full", ("sex", "age_std", "job", "house")),
                           ("unaware", ("job", "house"))):
        for metric, want in _lstsq_row(train, test, columns).items():
            got = rows[model][metric]
            if not _close(got, want):
                problems.append(f"{model} {metric} = {got}, lstsq gives {want:.8g}")
    for metric in ("counterfactual_gap_sex", "counterfactual_gap_age"):
        if rows["unaware"][metric] != 0.0:
            problems.append(f"unaware {metric} = {rows['unaware'][metric]}, expected exactly 0")

    fair = rows["fair"]
    honest = float(_comment_value(path, "fair_test_r2_honest"))
    leaky = float(_comment_value(path, "fair_test_r2_leaky"))
    bands = (
        ("fair train_r2", fair["train_r2"], FAIR_TRAIN_R2),
        ("fair honest test_r2", honest, FAIR_TEST_R2),
        ("fair leaky test_r2", leaky, FAIR_TEST_R2),
        ("fair gap_sex", fair["counterfactual_gap_sex"], FAIR_GAP),
        ("fair gap_age", fair["counterfactual_gap_age"], FAIR_GAP),
    )
    for label, value, (lo, hi) in bands:
        if not (math.isfinite(value) and lo <= value <= hi):
            problems.append(f"{label} = {value} outside [{lo}, {hi}]")
    if fair["test_r2"] != honest:
        problems.append("fair test_r2 is not the honest protocol's score")
    return problems


def check_synth(out_dir, seed):
    path = os.path.join(out_dir, "recovery.csv")
    corr = float(_comment_value(path, "latent_corr"))
    sign = 1.0 if corr >= 0.0 else -1.0  # judge in the mode the chain found
    problems = []
    if not abs(corr) > RECOVERY_MIN_ABS_CORR:
        problems.append(f"|latent corr| {abs(corr)} <= {RECOVERY_MIN_ABS_CORR}")
    rows = _csv_rows(path)
    if [r["name"] for r in rows] != list(SYNTH_TRUTH):
        problems.append(f"recovery.csv names {[r['name'] for r in rows]}")
    for r in rows:
        truth = SYNTH_TRUTH.get(r["name"])
        if truth is None or float(r["truth"]) != truth:
            problems.append(f"{r['name']}: truth {r['truth']} is not the workload's")
            continue
        median = float(r["median"]) * (sign if r["name"] in LATENT_SLOPES else 1.0)
        if not abs(median - truth) < RECOVERY_MAX_ERROR:
            problems.append(f"{r['name']}: |median - truth| = {abs(median - truth):.4g} "
                            f"(latent orientation {sign:+.0f})")
    for rel, want in (("synthetic.csv", SYNTH_N + 1), ("true_latents.csv", SYNTH_N + 1)):
        got = len(_data_lines(os.path.join(out_dir, rel)))
        if got != want:
            problems.append(f"{rel} has {got} lines, expected {want}")
    return problems


def synth_config_text():
    lines = [f"synth.n = {SYNTH_N}", "model.include_credit_intercept = true"]
    lines += [f"synth.param.{k} = {v!r}" for k, v in SYNTH_TRUTH.items()]
    return "\n".join(lines) + "\n"
