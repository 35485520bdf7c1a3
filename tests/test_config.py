"""The config tables: the benchmark's configs read through them, and
README's key tables list the keys they declare."""

import json
import os
import re

import pytest

from lcltflow import config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")


def _benchmark_commands():
    """(command, config file) of each command perfbench/run.py runs on a
    config file."""
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        return re.findall(r'Command\("(\w+)", "([\w.]+\.json)"', fh.read())


def test_every_benchmark_config_is_run_by_a_command():
    names = sorted(name for _, name in _benchmark_commands())
    assert names == sorted(os.listdir(os.path.join(PERFBENCH, "configs")))
    assert len(names) == 7


@pytest.mark.parametrize("command, name", _benchmark_commands())
def test_benchmark_config_reads_through_its_table(command, name):
    # a stricter reader must not break a benchmark run: every key of the
    # file is one its command's table declares, and every value reads
    with open(os.path.join(PERFBENCH, "configs", name)) as fh:
        cfg = json.load(fh)
    got = config.read_config(command, cfg)
    assert set(cfg) <= set(got)
    if "system" in cfg:
        kind, args = config.read_system(cfg["system"])
        assert set(cfg["system"]) <= {"type", "D", *args}


def _code_tables():
    """{table name: its keys}, named as README's tables are."""
    out = {}
    for command, spec in config.COMMANDS.items():
        if hasattr(spec, "tag"):
            for kind, table in spec.tables.items():
                out[f"{command} mode {kind}"] = {spec.tag, *table}
        else:
            out[command] = set(spec.table)
    out["request"] = set(config.COMMANDS["predict"].table["request"][0].table)
    case = config.CASE
    out["case"] = {case.tag, *(k for t in case.tables.values() for k in t)}
    for kind, table in config.SYSTEMS.tables.items():
        out[f"{kind} system"] = {config.SYSTEMS.tag, *table}
    return out


def _readme_tables():
    """{table name: {key: its row}} of README's "Config keys" tables, named
    by their first header cell."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Config keys")[1].split("\n### ")[0]
    out = {}
    for block in re.findall(r"(?:^\|.*\n)+", section, flags=re.M):
        header, _, *rows = block.splitlines()
        name = re.sub(r"[^\w ]", "", header.split("|")[1]).strip()
        out[name] = {re.fullmatch(r" `(\w+)` ", row.split("|")[1])[1]: row
                     for row in rows}
    return out


def test_readme_lists_the_keys_of_every_table():
    readme = _readme_tables()
    assert {name: set(rows) for name, rows in readme.items()} == _code_tables()
    # lattice verify reads the request's event, predict the rest too
    event = config.COMMANDS["verify"].tables["lattice"]["request"][0].table
    assert {k for k, row in readme["request"].items()
            if "predict only" not in row} == set(event)
