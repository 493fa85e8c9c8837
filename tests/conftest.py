"""Shared fixtures: a small hand-built dataset, a short sampler config, and
the package's file writer stamping a header."""

import numpy as np
import pytest

from faircredit.dataset import Dataset, Standardization
from faircredit.probmodel import ModelConfig, ModelParams
from faircredit.sampler import SamplerConfig
from faircredit.util import atomic_write_text


@pytest.fixture
def tiny_dataset() -> Dataset:
    # 12 rows, both levels of every binary column, small credit counts so the
    # default credit_scale works without huge Poisson rates
    return Dataset(
        sex=np.array([0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1]),
        age_std=np.array([-1.2, 0.4, 0.0, 1.5, -0.3, 0.8, -1.0, 0.2, 0.6, -0.7, 1.1, -0.1]),
        job=np.array([1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0]),
        house=np.array([0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1]),
        credit=np.array([12, 30, 8, 45, 20, 15, 33, 9, 27, 40, 11, 22]),
        standardization=Standardization(35.0, 10.0),
    )


@pytest.fixture
def stamped(tmp_path):
    """A function that writes text after header lines by atomic_write_text,
    as every output file is written, and returns the file's text."""

    def write(text: str, header: tuple[str, ...]) -> str:
        path = tmp_path / "stamped.txt"
        atomic_write_text(str(path), text, header)
        return path.read_text(encoding="utf-8")

    return write


@pytest.fixture
def short_sampler_config() -> SamplerConfig:
    return SamplerConfig(iterations=300, burn_in=100, thin=2, seed=5)


@pytest.fixture
def default_model_config() -> ModelConfig:
    return ModelConfig()


@pytest.fixture
def modest_params() -> ModelParams:
    """Parameters of moderate size; safe under the default rate cap."""
    return ModelParams(
        b_j=0.4, beta_j_s=0.7, beta_j_a=-0.5, beta_j_c=0.9,
        b_h=-0.3, beta_h_s=0.5, beta_h_a=0.8, beta_h_c=1.1,
        beta_c_s=0.35, beta_c_a=-0.25, beta_c_c=0.6,
    )
