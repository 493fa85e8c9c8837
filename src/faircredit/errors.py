"""Exception types shared across the package."""


class FairCreditError(Exception):
    """Base class for all package errors."""


class UserError(FairCreditError):
    """Bad user input: files, config values, malformed data. CLI exit code 2."""


class DataError(UserError):
    """A CSV or dataset failed validation."""


class ConfigError(UserError):
    """A config file or flag combination is invalid."""


class RateCapError(UserError):
    """A synthetic truth gives a Poisson rate above the configured cap."""

    def __init__(self, linear_predictor: float, cap: float):
        self.linear_predictor = float(linear_predictor)
        self.cap = float(cap)
        super().__init__(
            f"poisson rate overflow: linear predictor {self.linear_predictor!r} "
            f"gives rate above cap {self.cap!r}"
        )


class DegenerateSeriesError(FairCreditError):
    """A series is constant, so the requested statistic is undefined."""


class RankDeficientError(UserError):
    """The regression design matrix does not have full column rank."""


class SamplerError(FairCreditError):
    """Test-time latent inference failed: a row's Newton search or its grid.
    A chain aborted by likelihood errors raises a ConfigError instead."""
