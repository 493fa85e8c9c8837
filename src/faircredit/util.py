"""Small shared helpers: random stream derivation, key=value text and value
parsing, numbered float rows, and the file boundary: the one reader, the one
writer and the output directory check they share."""

import dataclasses
import errno
import hashlib
import math
import os
import tempfile
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, UserError


def check_seed(value: int, what: str) -> int:
    """value if it is a seed, an int in [0, 2**32); else a ConfigError
    naming what. numpy.random.SeedSequence refuses a negative key, and
    splits a larger one into 32-bit words, padding fewer than four with
    zeros, so a key of 2**32 or more would draw a smaller key's stream."""
    if not 0 <= value < 2**32:
        raise ConfigError(f"{what} must be a non-negative integer below 2**32, got {value}")
    return value


def derive_rng(seed: int, kind: int, index: int) -> np.random.Generator:
    """Return an independent generator for the stream (seed, kind, index).

    Splitting scheme used across the package (documented contract): the
    master seed, a quantity kind (a STREAM_* id) and an index within it are
    fed to ``numpy.random.SeedSequence`` as its entropy list. Streams with
    different keys are independent, and the mapping does not depend on the
    order quantities are updated in. Each key must be a seed (check_seed),
    below 2**32, or a ConfigError is raised.
    """
    names = ("seed", "stream kind", "stream index")
    key = [check_seed(int(k), name) for k, name in zip((seed, kind, index), names)]
    return np.random.default_rng(np.random.SeedSequence(key))


# stream id of the first key after the master seed, one per quantity kind
STREAM_PARAMS = 0
STREAM_TRAIN_LATENT = 1
STREAM_TREE = 3
STREAM_SPLIT = 4


def parse_kv_text(text: str, where: str = "config") -> dict[str, str]:
    """Parse flat ``key = value`` lines. '#' starts a comment, blanks skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{where} line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{where} line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv_text(items: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def config_items(config, prefix: str = "") -> dict[str, str]:
    """A config dataclass as `prefix + field` -> text items, in field order.

    A bool is written true/false, a float by repr, any other value by str,
    so config_from_items reads the same config back.
    """
    items = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        items[prefix + field.name] = repr(value) if isinstance(value, float) else str(value)
    return items


def config_from_items(cls, items: dict[str, str], prefix: str = ""):
    """The config dataclass cls from its `prefix + field` items, each read as
    its field's type (bool, int, float or str); other items are ignored. A
    missing or unreadable value raises a ConfigError naming its key."""
    values = {}
    for field in dataclasses.fields(cls):
        key = prefix + field.name
        if key not in items:
            raise ConfigError(f"missing config key {key}")
        values[field.name] = parse_value(items[key], field.type, key)
    return cls(**values)


def validated(where: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), a checked dataclass such as config_from_items
    builds; a value it refuses (ValueError) raises ConfigError("<where>: <reason>")."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_value(text: str, kind: type, key: str):
    """text as a kind (bool, int, float or str); a bad value is a ConfigError naming key."""
    if kind is bool:
        return parse_bool(text, key)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} must be {noun}, got {text!r}") from None


def parse_finite(text: str, key: str, error: type[Exception], what: str = "") -> float:
    """text as a finite float (parse_value). A non-number or a non-finite value
    raises error, the caller's type as in read_text, naming what + key."""
    try:
        value = parse_value(text, float, key)
    except ConfigError:
        raise error(f"{what}{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise error(f"{what}{key} must be finite, got {text!r}")
    return value


def numbered_rows(values: np.ndarray) -> Iterator[str]:
    """The CSV rows `d,v_1,...,v_m` of a (k, m) float array, each value by
    repr, one row per d in 0..k-1; with m = 0 each row is `d` alone.

    A rejected Metropolis step repeats its draw, so a chain's columns run in
    repeats. Each column keeps its last value and that value's text, and
    calls repr only when the value changes. A zero is always formatted, as
    0.0 == -0.0 but they print differently, and NaN, never equal, is too.
    The array is read one row at a time, so no list holds all its values,
    and the rows are yielded, so the caller's list is the only one of them.
    """
    last = [math.nan] * values.shape[1]
    texts = [""] * values.shape[1]
    columns = range(values.shape[1])
    for d, row in enumerate(values):
        row_values = row.tolist()
        for j in columns:
            v = row_values[j]
            if v != last[j] or not v:
                last[j] = v
                texts[j] = repr(v)
        yield ",".join([str(d), *texts])


def read_text(path: str, error: type[UserError] = DataError, what: str = "") -> str:
    """The text of the file at path, read as UTF-8 with line ends kept as
    written (csv needs them so, and splitlines() splits every kind). A
    leading byte-order mark, as spreadsheets write, is dropped. A file that
    cannot be opened or decoded raises error("cannot read <what><path>")."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc


def output_dir(directory: str, create: bool = True) -> None:
    """Make directory and its parents, or with create=False make nothing and
    refuse only a file already in its place. Either way a ConfigError says
    when the directory cannot be made."""
    try:
        if create:
            os.makedirs(os.path.abspath(directory), exist_ok=True)
        elif os.path.lexists(directory) and not os.path.isdir(directory):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST))
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {directory!r}: {exc.strerror}") from None


def atomic_write_text(path: str, text: str, header: Iterable[str] = ()) -> None:
    """Write `# <line>` for each header line, then text, via a temp file in
    the same directory renamed into place, with the mode a new file gets by
    default: 0o666 less the umask. The directory is made first (output_dir)."""
    directory = os.path.dirname(path)
    output_dir(directory)
    fd, tmp = tempfile.mkstemp(dir=os.path.abspath(directory), prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)  # read by setting it; no other way is portable
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp creates it 0o600
            for line in header:
                fh.write(f"# {line}\n")
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_hex(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")
