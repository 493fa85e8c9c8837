"""CSV loading, preprocessing, splitting, and synthetic generation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from faircredit.dataset import (
    CovariateSpec,
    Dataset,
    PreprocessConfig,
    RawRecord,
    SplitSpec,
    Standardization,
    generate_synthetic,
    load_csv,
    preprocess,
    read_processed_csv,
    split,
    write_processed_csv,
)
from faircredit.errors import ConfigError, DataError, RateCapError, UserError
from faircredit.probmodel import ModelParams

CSV_HEADER = "Sex,Age,Job,Housing,Credit amount\n"


def write_csv(tmp_path, body, header=CSV_HEADER, name="data.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return str(path)


# --- raw records and loading ----------------------------------------------

def test_raw_record_validate_errors():
    with pytest.raises(DataError, match=r"row 3"):
        RawRecord("male", 10, 1, "own", 500).validate(row=3)
    with pytest.raises(DataError, match="job"):
        RawRecord("male", 30, -1, "own", 500).validate()
    with pytest.raises(DataError, match="credit"):
        RawRecord("male", 30, 1, "own", 0).validate()
    RawRecord("female", 19, 0, "rent", 1).validate()


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "male,30,2,own,1200\nfemale,45,1,rent,800\n")
    records = load_csv(path)
    assert len(records) == 2
    assert records[0] == RawRecord("male", 30, 2, "own", 1200)
    assert records[1].housing == "rent"


def test_load_csv_skips_comments_and_blanks(tmp_path):
    body = "# a note\nmale,30,2,own,1200\n\n,,,,\nfemale,45,1,rent,800\n"
    path = write_csv(tmp_path, "", header="# leading comment\n" + CSV_HEADER)
    with open(path, "a") as fh:
        fh.write(body)
    assert len(load_csv(path)) == 2


def test_load_csv_missing_column_names_field(tmp_path):
    path = write_csv(tmp_path, "male,30,own,1200\n", header="Sex,Age,Housing,Credit amount\n")
    with pytest.raises(DataError, match="job"):
        load_csv(path)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = write_csv(tmp_path, "male,30,2,own,1200\nfemale,old,1,rent,800\n")
    with pytest.raises(DataError, match=r"row 2.*age"):
        load_csv(path)


def test_load_csv_rejects_fractional_int(tmp_path):
    path = write_csv(tmp_path, "male,30.5,2,own,1200\n")
    with pytest.raises(DataError, match="age"):
        load_csv(path)


def test_load_csv_column_map_override(tmp_path):
    header = "gender,years,job,housing,amount\n"
    path = write_csv(tmp_path, "male,30,2,own,1200\n", header=header)
    records = load_csv(path, column_map={"sex": "gender", "age": "years", "credit": "amount"})
    assert records[0].sex == "male"
    assert records[0].credit_amount == 1200


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_csv("/no/such/file.csv")


def test_load_csv_short_row(tmp_path):
    path = write_csv(tmp_path, "male,30,2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)


# --- preprocessing ----------------------------------------------------------

def records_for(*rows):
    return [RawRecord(*r) for r in rows]


def test_preprocess_codings():
    recs = records_for(
        ("Male", 30, 2, "Own", 1000),
        ("female", 40, 0, "rent", 500),
        ("male", 50, 1, "free", 700),
    )
    ds = preprocess(recs)
    assert list(ds.sex) == [1, 0, 1]
    assert list(ds.job) == [1, 0, 1]       # threshold 1
    assert list(ds.house) == [1, 0, 0]     # only "own" counts
    assert list(ds.credit) == [1000, 500, 700]
    assert ds.age_raw is not None and list(ds.age_raw) == [30, 40, 50]


def test_preprocess_job_threshold():
    recs = records_for(("male", 30, 0, "own", 10), ("male", 30, 1, "own", 10),
                       ("female", 31, 2, "own", 10))
    ds = preprocess(recs, PreprocessConfig(job_threshold=2))
    assert list(ds.job) == [0, 0, 1]


def test_preprocess_unknown_sex_label():
    with pytest.raises(DataError, match=r"row 1.*unknown sex"):
        preprocess(records_for(("other", 30, 1, "own", 10), ("male", 40, 1, "own", 10)))


def test_preprocess_two_point_standardization():
    # sample std with the n-1 denominator: ages 30, 40 map to -+1/sqrt(2)
    ds = preprocess(records_for(("male", 30, 1, "own", 10), ("female", 40, 1, "rent", 20)))
    assert ds.age_std == pytest.approx([-0.7071067811865475, 0.7071067811865475], abs=1e-12)
    assert ds.standardization == pytest.approx((35.0, 7.0710678118654755))


def test_preprocess_raw_age_mode():
    ds = preprocess(
        records_for(("male", 30, 1, "own", 10), ("female", 40, 1, "rent", 20)),
        PreprocessConfig(standardize_age=False),
    )
    assert list(ds.age_std) == [30.0, 40.0]
    assert ds.standardization is None


def test_preprocess_degenerate_age():
    same = records_for(("male", 30, 1, "own", 10), ("female", 30, 1, "rent", 20))
    with pytest.raises(DataError, match="zero variance"):
        preprocess(same)
    with pytest.raises(DataError, match="at least 2"):
        preprocess(records_for(("male", 30, 1, "own", 10)))


# --- dataset invariants -----------------------------------------------------

def test_dataset_validate_errors(tiny_dataset):
    tiny_dataset.validate()
    bad = Dataset(
        sex=np.array([0, 2]), age_std=np.zeros(2), job=np.zeros(2, dtype=int),
        house=np.zeros(2, dtype=int), credit=np.ones(2, dtype=int),
    )
    with pytest.raises(DataError, match="binary"):
        bad.validate()
    empty = Dataset(*(np.empty(0) for _ in range(5)))
    with pytest.raises(DataError, match="empty"):
        empty.validate()


def test_dataset_subset_and_ages(tiny_dataset):
    sub = tiny_dataset.subset(np.array([0, 2, 5]))
    assert len(sub) == 3
    assert list(sub.credit) == [12, 8, 15]
    # years reconstructed from the stored moments
    expected = np.asarray(tiny_dataset.age_std)[[0, 2, 5]] * 10.0 + 35.0
    assert sub.ages_in_years() == pytest.approx(expected)


# --- splitting ---------------------------------------------------------------

def make_raw(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append((
            "male" if rng.random() < 0.6 else "female",
            int(rng.integers(19, 76)),
            int(rng.integers(0, 4)),
            "own" if rng.random() < 0.7 else "rent",
            int(rng.integers(1, 5000)),
        ))
    return records_for(*rows)


def test_split_disjoint_and_deterministic():
    ds = preprocess(make_raw(50))
    train, test = split(ds, SplitSpec(train_count=30, seed=4))
    assert len(train) == 30 and len(test) == 20
    train2, test2 = split(ds, SplitSpec(train_count=30, seed=4))
    assert np.array_equal(train.credit, train2.credit)
    assert np.array_equal(test.age_std, test2.age_std)
    # no row in both halves: credit values were drawn without replacement
    train3, _ = split(ds, SplitSpec(train_count=30, seed=5))
    assert not np.array_equal(train.credit, train3.credit)


def test_split_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        split(preprocess(make_raw(40)), SplitSpec(train_count=25, seed=-1))


def test_split_partitions_rows():
    ds = preprocess(make_raw(40))
    train, test = split(ds, SplitSpec(train_count=25, seed=1))
    together = sorted(np.concatenate([train.ages_in_years(), test.ages_in_years()]))
    assert together == sorted(ds.ages_in_years())


def test_split_restandardizes_with_train_moments():
    ds = preprocess(make_raw(60))
    train, test = split(ds, SplitSpec(train_count=40, seed=2))
    assert float(np.mean(train.age_std)) == pytest.approx(0.0, abs=1e-12)
    assert float(np.std(train.age_std, ddof=1)) == pytest.approx(1.0, abs=1e-12)
    # the test half reuses the train moments, never its own
    mu, sd = train.standardization
    assert test.standardization == train.standardization
    assert test.age_std == pytest.approx((test.ages_in_years() - mu) / sd)
    assert float(np.mean(test.age_std)) != pytest.approx(0.0, abs=1e-6)


def test_split_bad_train_count():
    ds = preprocess(make_raw(10))
    for count in (0, 10, 11, -3):
        with pytest.raises(DataError):
            split(ds, SplitSpec(train_count=count, seed=0))


# --- synthetic generation ----------------------------------------------------

def test_generate_synthetic_deterministic(modest_params):
    a, ca = generate_synthetic(modest_params, 200, seed=9)
    b, cb = generate_synthetic(modest_params, 200, seed=9)
    assert np.array_equal(a.credit, b.credit)
    assert np.array_equal(ca, cb)
    c, _ = generate_synthetic(modest_params, 200, seed=10)
    assert not np.array_equal(a.credit, c.credit)


def test_generate_synthetic_shapes_and_ranges(modest_params):
    ds, c = generate_synthetic(modest_params, 300, seed=1)
    ds.validate()
    assert len(ds) == 300 and c.shape == (300,)
    spec = CovariateSpec()
    ages = ds.ages_in_years()
    assert ages.min() >= spec.age_min and ages.max() <= spec.age_max
    assert ds.credit.min() >= 1


def test_generate_synthetic_credit_intercept_shifts_scale(modest_params):
    low, _ = generate_synthetic(modest_params, 400, seed=3)
    high, _ = generate_synthetic(replace(modest_params, b_c=2.0), 400, seed=3)
    assert float(np.mean(high.credit)) > 3.0 * float(np.mean(low.credit))


def test_generate_synthetic_latent_drives_outcomes(modest_params):
    ds, c = generate_synthetic(modest_params, 2000, seed=7)
    # positive latent coefficient on the job head: job holders score higher
    assert float(np.mean(c[ds.job == 1])) > float(np.mean(c[ds.job == 0]))


def test_generate_synthetic_rejects_tiny_n(modest_params):
    with pytest.raises(DataError):
        generate_synthetic(modest_params, 1, seed=0)


def test_generate_synthetic_rejects_a_negative_seed(modest_params):
    with pytest.raises(ConfigError, match="seed"):
        generate_synthetic(modest_params, 50, seed=-1)


def test_generate_synthetic_rate_cap():
    # rate exp(30 c): the error names the first row's linear predictor over the
    # cap. The latents are drawn before any head, so zero parameters give the
    # same ones.
    _, c = generate_synthetic(ModelParams(), 50, seed=4)
    with pytest.raises(RateCapError) as err:
        generate_synthetic(ModelParams(beta_c_c=30.0), 50, seed=4, rate_cap=1e6)
    first = np.flatnonzero(30.0 * c > math.log(1e6))[0]
    assert err.value.linear_predictor == 30.0 * c[first]
    assert err.value.cap == 1e6
    # the truth is the user's, so the CLI reports it as their error
    assert isinstance(err.value, UserError)


# --- processed csv round trip -------------------------------------------------

def test_processed_csv_round_trip(tmp_path, tiny_dataset):
    path = str(tmp_path / "processed.csv")
    write_processed_csv(tiny_dataset, path, header_lines=("config_hash=abc",))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("# config_hash=abc\n")
    back = read_processed_csv(path)
    assert np.array_equal(back.sex, tiny_dataset.sex)
    assert np.array_equal(back.age_std, tiny_dataset.age_std)  # repr round trip
    assert np.array_equal(back.credit, tiny_dataset.credit)
    assert back.standardization == tiny_dataset.standardization


@pytest.mark.parametrize("key, value", [("age_mean", "abc"), ("age_sd", "abc"), ("age_mean", "inf")])
def test_read_processed_csv_rejects_a_malformed_age_comment(tmp_path, tiny_dataset, key, value):
    # an infinite mean would pass the dataset's checks and turn every
    # re-standardized age into nan at the split
    path = tmp_path / "processed.csv"
    write_processed_csv(tiny_dataset, str(path))
    lines = path.read_text().splitlines()
    lines = [f"# {key}={value}" if ln.startswith(f"# {key}=") else ln for ln in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"malformed {key} comment") as err:
        read_processed_csv(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_read_processed_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sex,age_std,job\n0,0.0,1\n")
    with pytest.raises(DataError, match="expected header"):
        read_processed_csv(str(path))
