"""The README's Library snippet runs as documented, from the repository root,
and its flag and config-key tables name exactly what the CLI has."""

import argparse
import os
import re

from faircredit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row is
    `header`."""
    lines = readme().splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def documented_keys() -> list[str]:
    """Every config key the key table names: `a.b` / `.c` shorthand stands
    for `a.b` and `a.c`, and `synth.param.<name>` for each name its row
    lists in parentheses."""
    keys = []
    for key_cell, _, meaning in table_rows("| key | default | meaning |"):
        prefix = ""
        for name in re.findall(r"`([^`]+)`", key_cell):
            if name.startswith("."):
                name = prefix + name[1:]
            prefix = name.rpartition(".")[0] + "."
            if name.endswith(".<name>"):
                listed = re.search(r"\((.*)\)", meaning).group(1)
                keys += [prefix + n for n in re.findall(r"`([^`]+)`", listed)]
            else:
                keys.append(name)
    return keys


def common_flags() -> set[str]:
    """The long flags every subcommand takes."""
    (subparsers,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    per_command = [
        {s for a in p._actions for s in a.option_strings if s.startswith("--")}
        for p in subparsers.choices.values()
    ]
    return set.intersection(*per_command) - {"--help"}


def test_readme_library_snippet_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", readme(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    names = {}
    exec(blocks[0], names)
    assert names["predictions"].shape == (len(names["test"]),)


def test_readme_config_table_names_every_key_once():
    keys = documented_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli.DEFAULTS)


def test_readme_flag_table_names_every_common_flag():
    flags = [re.match(r"`(--[a-z-]+)", flag).group(1) for flag, _ in table_rows("| flag | effect |")]
    assert len(flags) == len(set(flags))
    assert set(flags) == common_flags()
