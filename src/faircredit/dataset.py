"""Loading, validation, preprocessing, splitting, and synthetic generation.

The ingestion path mirrors a German-credit style CSV: sex and housing labels,
an ordinal job level, age in years, and a positive credit amount. Processing
maps these onto the binary/standardized features the model consumes.
"""

import csv
import io
import math
from dataclasses import dataclass, replace as _dc_replace
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from . import probmodel
from .errors import DataError, RateCapError
from .util import atomic_write_text, check_seed, parse_finite, read_text

# candidate header spellings accepted out of the box (lowercased)
DEFAULT_COLUMN_CANDIDATES: dict[str, tuple[str, ...]] = {
    "sex": ("sex",),
    "age": ("age",),
    "job": ("job",),
    "housing": ("housing",),
    "credit": ("credit amount", "credit_amount", "credit"),
}

AGE_MIN, AGE_MAX = 18, 120

# lowercased sex labels and their codes; preprocess rejects any other label
SEX_CODES = {"female": 0, "male": 1}

# marginals of the exogenous covariates of synthetic data: P(sex = 1), and
# ages drawn normal, rounded to whole years and clipped to the range
SYNTH_SEX_P = 0.69
SYNTH_AGE_MEAN, SYNTH_AGE_SD = 35.5, 11.0
SYNTH_AGE_MIN, SYNTH_AGE_MAX = 19, 75


@dataclass(frozen=True)
class RawRecord:
    """One row of the source CSV after parsing and range validation."""

    sex: str
    age: int
    job: int
    housing: str
    credit_amount: int

    def validate(self, row: int | None = None) -> None:
        at = f" (row {row})" if row is not None else ""
        if not (AGE_MIN <= self.age <= AGE_MAX):
            raise DataError(f"age {self.age} outside [{AGE_MIN}, {AGE_MAX}]{at}")
        if self.job < 0:
            raise DataError(f"job level {self.job} is negative{at}")
        if self.credit_amount < 1:
            raise DataError(f"credit amount {self.credit_amount} is below 1{at}")


class Standardization(NamedTuple):
    """Training-set age moments, in years. age_std uses the n-1 denominator."""

    age_mean: float
    age_std: float


@dataclass(frozen=True)
class SplitSpec:
    train_count: int
    seed: int

    def __post_init__(self) -> None:
        check_seed(self.seed, "split seed")


@dataclass(frozen=True)
class Dataset:
    """Column-major processed data plus the standardization that produced it.

    age_std is age in years about standardization's mean, in units of its sd.
    preprocess, split and generate_synthetic always store those moments, and
    split rebuilds years from them alone. standardization is None only for a
    dataset built by hand: split keeps its age_std as it is, and flip_age's
    shift in years refuses it.
    split is the SplitSpec of the split() that returned the dataset, as a
    chain records its configs, and None for any other dataset, a subset too.
    A dataset is checked (validate) when it is built, so every one is valid.
    """

    sex: np.ndarray
    age_std: np.ndarray
    job: np.ndarray
    house: np.ndarray
    credit: np.ndarray
    standardization: Standardization | None = None
    split: SplitSpec | None = None

    def __post_init__(self) -> None:
        self.validate()

    def __len__(self) -> int:
        return int(self.sex.shape[0])

    def validate(self) -> None:
        n = len(self)
        if n == 0:
            raise DataError("dataset is empty")
        for name in ("sex", "age_std", "job", "house", "credit"):
            col = getattr(self, name)
            if np.asarray(col).shape != (n,):
                raise DataError(f"column {name} has wrong shape")
        for name in ("sex", "job", "house"):
            col = np.asarray(getattr(self, name))
            if not np.all((col == 0) | (col == 1)):
                raise DataError(f"column {name} must be binary")
        if not np.all(np.isfinite(np.asarray(self.age_std, dtype=float))):
            raise DataError("age_std contains non-finite values")
        credit = np.asarray(self.credit)
        if not np.all(credit >= 1):
            raise DataError("credit must be >= 1")
        if self.standardization is not None and not (self.standardization.age_std > 0):
            raise DataError("stored age standard deviation must be positive")

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            sex=self.sex[idx],
            age_std=self.age_std[idx],
            job=self.job[idx],
            house=self.house[idx],
            credit=self.credit[idx],
            standardization=self.standardization,
        )


@dataclass(frozen=True)
class PreprocessConfig:
    """How raw labels become model features.

    Sex labels are coded by SEX_CODES. job becomes 1 when the ordinal level
    is >= job_threshold. house becomes 1 exactly when the housing label
    equals own_label. Age is always standardized, by the mean and n-1 sd of
    the records' years.
    """

    job_threshold: int = 1
    own_label: str = "own"


DEFAULT_PREPROCESS = PreprocessConfig()


def _resolve_columns(
    header: Sequence[str], column_map: dict[str, str] | None, path: str
) -> dict[str, int]:
    lowered = [h.strip().lower() for h in header]
    out: dict[str, int] = {}
    for fieldname, candidates in DEFAULT_COLUMN_CANDIDATES.items():
        wanted: tuple[str, ...]
        if column_map and fieldname in column_map:
            wanted = (column_map[fieldname].strip().lower(),)
        else:
            wanted = candidates
        hit = [i for i, h in enumerate(lowered) if h in wanted]
        if not hit:
            raise DataError(
                f"{path}: missing column for {fieldname!r} (accepted: {', '.join(wanted)})"
            )
        out[fieldname] = hit[0]
    return out


def _parse_int(value: str, row: int, column: str, path: str) -> int:
    try:
        f = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{path} row {row}: column {column!r} is not a number: {value!r}") from None
    if not math.isfinite(f) or f != int(f):
        raise DataError(f"{path} row {row}: column {column!r} is not an integer: {value!r}")
    return int(f)


def load_csv(path: str, column_map: dict[str, str] | None = None) -> list[RawRecord]:
    """Read and validate the raw CSV. Header matching is case-insensitive.

    column_map overrides individual header names, e.g. {"credit": "Kredit"}.
    Errors name the offending row and column.
    """
    lines = [ln for ln in read_text(path).splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    cols = _resolve_columns(rows[0], column_map, path)
    records: list[RawRecord] = []
    for rownum, row in enumerate(rows[1:], start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(cols.values()):
            raise DataError(f"{path} row {rownum}: expected {len(rows[0])} cells, got {len(row)}")
        rec = RawRecord(
            sex=row[cols["sex"]].strip(),
            age=_parse_int(row[cols["age"]], rownum, "age", path),
            job=_parse_int(row[cols["job"]], rownum, "job", path),
            housing=row[cols["housing"]].strip(),
            credit_amount=_parse_int(row[cols["credit"]], rownum, "credit", path),
        )
        rec.validate(row=rownum)
        records.append(rec)
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def _standardized(ages: np.ndarray, where: str) -> tuple[np.ndarray, Standardization]:
    """Ages in years as z-scores about their mean, by their n-1 sd, and those
    moments. where names the ages in the errors."""
    if ages.size < 2:
        raise DataError(f"need at least 2 ages to standardize age; {where} has {ages.size}")
    mu = float(np.mean(ages))
    sd = float(np.std(ages, ddof=1))
    if sd == 0.0:
        raise DataError(f"age has zero variance in {where}; cannot standardize")
    return (ages - mu) / sd, Standardization(mu, sd)


def preprocess(records: Sequence[RawRecord], config: PreprocessConfig = DEFAULT_PREPROCESS) -> Dataset:
    """Map raw records onto model features. Pure: no global state, no RNG."""
    if not records:
        raise DataError("no records to preprocess")
    sex = np.empty(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        label = rec.sex.strip().lower()
        if label not in SEX_CODES:
            raise DataError(
                f"row {i + 1}: unknown sex label {rec.sex!r} (known: {sorted(SEX_CODES)})"
            )
        sex[i] = SEX_CODES[label]
    ages = np.array([rec.age for rec in records], dtype=float)
    job = np.array([1 if rec.job >= config.job_threshold else 0 for rec in records], dtype=np.int64)
    own = config.own_label.strip().lower()
    house = np.array(
        [1 if rec.housing.strip().lower() == own else 0 for rec in records], dtype=np.int64
    )
    credit = np.array([rec.credit_amount for rec in records], dtype=np.int64)
    age_std, standardization = _standardized(ages, "the data")
    return Dataset(
        sex=sex, age_std=age_std, job=job, house=house, credit=credit,
        standardization=standardization,
    )


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint train/test split, deterministic in the seed; both datasets
    record spec as their split.

    Age is re-standardized with the train split's own moments, and the test
    split reuses those train moments (never its own). The years come from
    age_std and data's stored moments alone, so a dataset and its
    write_processed_csv round trip split to the same bits. A dataset with no
    stored standardization keeps its age_std.
    """
    n = len(data)
    if not (0 < spec.train_count < n):
        raise DataError(f"train_count must be in (0, {n}), got {spec.train_count}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    train_idx = np.sort(perm[: spec.train_count])
    test_idx = np.sort(perm[spec.train_count :])
    train = _dc_replace(data.subset(train_idx), split=spec)
    test = _dc_replace(data.subset(test_idx), split=spec)
    if data.standardization is None:
        return train, test
    mu, sd = data.standardization
    ages = np.asarray(data.age_std, dtype=float) * sd + mu
    train_std, stdz = _standardized(ages[train_idx], "the train split")
    test_std = (ages[test_idx] - stdz.age_mean) / stdz.age_std
    return (
        _dc_replace(train, age_std=train_std, standardization=stdz),
        _dc_replace(test, age_std=test_std, standardization=stdz),
    )


def generate_synthetic(
    params: probmodel.ModelParams,
    n: int,
    seed: int,
    rate_cap: float = 1e7,
) -> tuple[Dataset, np.ndarray]:
    """Draw a dataset from the generative model. Returns (dataset, true latents).

    Covariates follow the SYNTH_* marginals. Draw order is fixed (sex, age,
    latents, job, house, credit) so results are reproducible for a given
    seed. Each head's linear predictor is probmodel's, its terms added in
    HEAD_TERMS order; the credit head includes params.b_c when it is set.
    Poisson draws of 0 are clamped to the credit floor of 1; with
    realistic rates the clamp never fires. A rate above rate_cap raises
    RateCapError.
    """
    if n < 2:
        raise DataError("need n >= 2 synthetic records")
    rng = np.random.default_rng(check_seed(seed, "synthetic seed"))
    sex = (rng.random(n) < SYNTH_SEX_P).astype(np.int64)
    ages = np.clip(
        np.rint(rng.normal(SYNTH_AGE_MEAN, SYNTH_AGE_SD, size=n)), SYNTH_AGE_MIN, SYNTH_AGE_MAX
    )
    c = rng.standard_normal(n)
    age_std, standardization = _standardized(ages, "the synthetic data")

    vec = params.to_vector(include_credit_intercept=params.b_c is not None)
    # the linear predictors read no column of the design but sex and age
    columns = SimpleNamespace(sex=sex, age=age_std)
    p_job = probmodel._sigmoid(probmodel._linear_predictor(probmodel.HEAD_JOB, vec, c, columns))[0]
    job = (rng.random(n) < p_job).astype(np.int64)
    p_house = probmodel._sigmoid(probmodel._linear_predictor(probmodel.HEAD_HOUSE, vec, c, columns))[0]
    house = (rng.random(n) < p_house).astype(np.int64)

    lin = probmodel.credit_linear(vec, c, columns)
    over = lin > math.log(rate_cap)
    if np.any(over):
        raise RateCapError(float(lin[np.nonzero(over)[0][0]]), rate_cap)
    credit = np.maximum(rng.poisson(np.exp(lin)), 1).astype(np.int64)

    return Dataset(
        sex=sex, age_std=age_std, job=job, house=house, credit=credit,
        standardization=standardization,
    ), c


PROCESSED_COLUMNS = ("sex", "age_std", "job", "house", "credit")


def write_processed_csv(data: Dataset, path: str, header: tuple[str, ...] = ()) -> None:
    """Export the processed dataset, after the header lines. Standardization
    rides along as comments."""
    lines = []
    if data.standardization is not None:
        lines.append(f"# age_mean={data.standardization.age_mean!r}")
        lines.append(f"# age_sd={data.standardization.age_std!r}")
    lines.append(",".join(PROCESSED_COLUMNS))
    sex, job, house, credit = (
        np.asarray(col).astype(np.int64).tolist()
        for col in (data.sex, data.job, data.house, data.credit)
    )
    age = np.asarray(data.age_std, dtype=float).tolist()
    lines += [
        f"{s},{a!r},{j},{h},{c}" for s, a, j, h, c in zip(sex, age, job, house, credit)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n", header)


def read_processed_csv(path: str) -> Dataset:
    """Read a dataset written by write_processed_csv. A repeated age moment
    comment, or one not a finite number (parse_finite), is a DataError."""
    moments: dict[str, float] = {}
    rows: list[str] = []
    for ln in read_text(path).splitlines():
        if ln.startswith("#"):
            key, _, value = (part.strip() for part in ln[1:].partition("="))
            if key in moments:
                raise DataError(f"{path}: duplicate {key} comment")
            if key in ("age_mean", "age_sd"):
                moments[key] = parse_finite(value, key, DataError, f"{path}: ")
            continue
        if ln.strip():
            rows.append(ln)
    if not rows or rows[0].split(",") != list(PROCESSED_COLUMNS):
        raise DataError(f"{path}: expected header {','.join(PROCESSED_COLUMNS)}")
    try:
        cells = [ln.split(",") for ln in rows[1:]]
        sex = np.array([int(r[0]) for r in cells], dtype=np.int64)
        age_std = np.array([float(r[1]) for r in cells], dtype=float)
        job = np.array([int(r[2]) for r in cells], dtype=np.int64)
        house = np.array([int(r[3]) for r in cells], dtype=np.int64)
        credit = np.array([int(r[4]) for r in cells], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed data row: {exc}") from exc
    stdz = None
    if moments:
        # one moment alone would leave split to keep age_std as it is
        for key in ("age_mean", "age_sd"):
            if key not in moments:
                raise DataError(f"{path}: missing {key} comment beside the other age moment")
        stdz = Standardization(moments["age_mean"], moments["age_sd"])
    return Dataset(sex=sex, age_std=age_std, job=job, house=house, credit=credit, standardization=stdz)
