"""Small shared helpers: random stream derivation, key=value text io, atomic writes."""

import hashlib
import os
import tempfile

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, *stream_key: int) -> np.random.Generator:
    """Return an independent generator for (seed, *stream_key).

    Splitting scheme used across the package (documented contract):
    the master seed plus a tuple of small non-negative stream ids is fed
    to ``numpy.random.SeedSequence`` as its entropy list. Streams with
    different keys of the same length are independent, and the mapping
    does not depend on the order quantities are updated in. Callers must
    use fixed-length keys (always (kind, index) here): SeedSequence
    zero-pads short entropy lists, so (0,) and (0, 0) coincide. A negative
    seed or key raises ConfigError: masked to 64 bits it would alias a large
    positive one.
    """
    if seed < 0 or any(k < 0 for k in stream_key):
        raise ConfigError(f"seed and stream key must be non-negative, got {(seed, *stream_key)}")
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in stream_key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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


def format_kv_text(items: dict[str, str], header_lines: tuple[str, ...] = ()) -> str:
    lines = [f"# {h}" for h in header_lines]
    lines += [f"{k} = {v}" for k, v in items.items()]
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
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
