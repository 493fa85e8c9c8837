"""Stream derivation and small text helpers."""

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from faircredit.errors import ConfigError
from faircredit.util import (
    STREAM_PARAMS,
    STREAM_SPLIT,
    STREAM_TRAIN_LATENT,
    STREAM_TREE,
    atomic_write_text,
    config_from_items,
    config_items,
    derive_rng,
    format_kv_text,
    numbered_rows,
    parse_bool,
    parse_kv_text,
    sha256_hex,
)


def test_stream_ids_distinct():
    # kind 2 is unused: the others keep their ids, so chains, trees and
    # splits stay bit-identical across versions
    assert (STREAM_PARAMS, STREAM_TRAIN_LATENT, STREAM_TREE, STREAM_SPLIT) == (0, 1, 3, 4)


def test_derive_rng_deterministic():
    a = derive_rng(7, 1, 3).random(8)
    b = derive_rng(7, 1, 3).random(8)
    assert np.array_equal(a, b)


def test_derive_rng_streams_disjoint():
    # every stream the package derives is (kind, index); all must differ
    keys = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0)]
    draws = [tuple(derive_rng(7, *k).random(4)) for k in keys]
    assert len(set(draws)) == len(draws)


def test_derive_rng_key_order_matters():
    assert not np.array_equal(derive_rng(5, 1, 2).random(4), derive_rng(5, 2, 1).random(4))


def test_derive_rng_seed_matters():
    assert not np.array_equal(derive_rng(5, 1, 2).random(4), derive_rng(6, 1, 2).random(4))


def test_derive_rng_refuses_a_key_from_2_to_the_32():
    # SeedSequence splits a key into 32-bit words and pads fewer than four
    # with zeros, so (2**32, 0, 0) would draw (0, 1, 0)'s stream: every key
    # of 2**32 or more is refused, and the accepted keys' streams are pinned
    # at both ends of the range
    assert derive_rng(0, 0, 0).random() == 0.6369616873214543
    assert derive_rng(2**32 - 1, 0, 0).random() == 0.2519435680449965
    assert derive_rng(2**32 - 1, 2**32 - 1, 2**32 - 1).random() == 0.34183666349269504
    for key in ((2**32, 0, 0), (0, 2**32, 0), (0, 0, 2**32), (2**64, 0, 0)):
        with pytest.raises(ConfigError, match="below 2\\*\\*32"):
            derive_rng(*key)


def test_derive_rng_rejects_negative_seed_or_key():
    # numpy.random.SeedSequence refuses a negative key; derive_rng says so
    # as a user error
    for args in ((-3, 0, 0), (3, -1, 0), (3, 0, -2)):
        with pytest.raises(ConfigError, match="non-negative"):
            derive_rng(*args)


def test_batched_uniforms_match_single_calls():
    # the sampler pre-draws latent uniforms in blocks; a block draw must equal
    # the same stream consumed one value at a time
    g1 = derive_rng(11, 1, 0)
    g2 = derive_rng(11, 1, 0)
    block = g1.random(64)
    singles = np.array([g2.random() for _ in range(64)])
    assert np.array_equal(block, singles)


def test_parse_kv_text_basic():
    text = "# comment\n\n a = 1 \nb=two\nc = x = y\n"
    assert parse_kv_text(text) == {"a": "1", "b": "two", "c": "x = y"}


def test_parse_kv_text_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv_text("a = 1\nnonsense\n")


def test_parse_kv_text_rejects_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv_text("= 3\n")


def test_parse_kv_text_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")


def test_parse_kv_text_where_label_in_message():
    with pytest.raises(ConfigError, match="params line 1"):
        parse_kv_text("oops", where="params")


def test_format_kv_round_trip(stamped):
    items = {"alpha": "0.5", "beta": "-1", "name": "hello world"}
    text = stamped(format_kv_text(items), ("generated", "for a test"))
    assert text.startswith("# generated\n# for a test\n")
    assert parse_kv_text(text) == items


@dataclass(frozen=True)
class Section:
    flag: bool = False
    count: int = 3
    rate: float = 1e7
    label: str = "mean"


def test_config_items_round_trip():
    items = config_items(Section(), "sec.")
    assert items == {
        "sec.flag": "false", "sec.count": "3", "sec.rate": "10000000.0", "sec.label": "mean",
    }
    assert config_from_items(Section, {**items, "other.key": "x"}, "sec.") == Section()
    given = {"flag": "yes", "count": "7", "rate": "2", "label": "median"}
    back = config_from_items(Section, given)
    assert back == Section(True, 7, 2.0, "median")
    assert type(back.rate) is float
    assert config_items(back) == {"flag": "true", "count": "7", "rate": "2.0", "label": "median"}


def test_config_from_items_names_the_bad_key():
    good = config_items(Section(), "sec.")
    for key, value, message in (
        ("sec.flag", "maybe", "sec.flag: expected a boolean, got 'maybe'"),
        ("sec.count", "3.0", "config key sec.count must be an integer, got '3.0'"),
        ("sec.rate", "fast", "config key sec.rate must be a number, got 'fast'"),
    ):
        with pytest.raises(ConfigError) as info:
            config_from_items(Section, {**good, key: value}, "sec.")
        assert str(info.value) == message
    del good["sec.count"]
    with pytest.raises(ConfigError, match="missing config key sec.count"):
        config_from_items(Section, good, "sec.")


def test_atomic_write_text(tmp_path):
    path = tmp_path / "sub" / "file.txt"
    atomic_write_text(str(path), "first\n")
    assert path.read_text() == "first\n"
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    leftovers = [n for n in os.listdir(tmp_path / "sub") if n.startswith(".tmp_")]
    assert leftovers == []


def test_atomic_write_text_mode_follows_umask(tmp_path):
    # as open(path, "w") creates a file: 0o666 less the umask, also when
    # the write replaces a file of another mode
    old = tmp_path / "old.txt"
    old.write_text("old\n")
    old.chmod(0o600)
    umask = os.umask(0o022)
    try:
        atomic_write_text(str(tmp_path / "new.txt"), "new\n")
        atomic_write_text(str(old), "replaced\n")
    finally:
        os.umask(umask)
    for name in ("new.txt", "old.txt"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name
    assert old.read_text() == "replaced\n"


def test_sha256_hex_frozen_vector():
    # published digest of "abc", truncated
    assert sha256_hex("abc") == "ba7816bf8f01cfea"
    assert len(sha256_hex("abc", length=64)) == 64


def test_parse_bool():
    for v in ("true", "True", "1", "yes", "on"):
        assert parse_bool(v, "k") is True
    for v in ("false", "0", "no", "OFF"):
        assert parse_bool(v, "k") is False
    with pytest.raises(ConfigError, match="some.key"):
        parse_bool("maybe", "some.key")


def _numbered_rows_oracle(values):
    # every value formatted on its own, as the chain files were written
    return [",".join([str(d), *map(repr, row.tolist())]) for d, row in enumerate(values)]


def test_numbered_rows_matches_per_value_repr():
    z, nz, inf, nan = 0.0, -0.0, math.inf, math.nan
    cases = {
        # zeros of both signs compare equal but print differently
        "signed zeros": [[z, nz], [nz, z], [nz, z], [z, z], [nz, nz], [z, nz]],
        "infinities": [[inf, -inf], [inf, -inf], [-inf, inf], [1.0, inf]],
        "nan": [[nan, 1.0], [nan, 1.0], [2.5, nan], [2.5, nan]],
        "constant": [[3.25, -7.0]] * 5,
        "alternating": [[0.1, 1e-300], [0.2, 5e300], [0.1, 1e-300], [0.2, 5e300]],
    }
    for name, rows in cases.items():
        values = np.array(rows)
        assert list(numbered_rows(values)) == _numbered_rows_oracle(values), name
    draws = np.random.default_rng(3).standard_normal((200, 4))
    draws[1::3] = draws[::3][: len(draws[1::3])]  # runs of repeats, as rejections make
    draws[50:60, 2] = 0.0
    assert list(numbered_rows(draws)) == _numbered_rows_oracle(draws)


def test_numbered_rows_without_columns():
    # the draw index alone, with no trailing comma
    assert list(numbered_rows(np.empty((3, 0)))) == ["0", "1", "2"]
    assert list(numbered_rows(np.empty((0, 2)))) == []
