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


def _benchmark_config(name):
    with open(os.path.join(PERFBENCH, "configs", name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("command, name", _benchmark_commands())
def test_benchmark_config_reads_through_its_table(command, name):
    # a stricter reader must not break a benchmark run: every value reads
    cfg = _benchmark_config(name)
    config.read_config(command, cfg)
    if "system" in cfg:
        config.read_system(cfg["system"])


def _objects(spec, obj, at="the config"):
    """(where, its keys, the keys its table declares) of the object ``obj``
    that the fields or tagged reader ``spec`` reads, and of every object
    below it: a nested table's, and a system's through SYSTEMS."""
    if hasattr(spec, "tag"):
        table = spec.tables[obj.get(spec.tag, spec.default)]
        yield at, set(obj), {spec.tag, *table}
    else:
        table = spec.table
        yield at, set(obj), set(table)
    for key, value in obj.items():
        if isinstance(value, dict) and key in table:
            reader = config.SYSTEMS if key == "system" else table[key][0]
            yield from _objects(reader, value, f"{at}'s {key}")


def _count_objects(node):
    if isinstance(node, list):
        return sum(map(_count_objects, node))
    if isinstance(node, dict):
        return 1 + sum(map(_count_objects, node.values()))
    return 0


@pytest.mark.parametrize("command, name", _benchmark_commands())
def test_benchmark_config_declares_every_key_at_every_depth(command, name):
    # config.fields rejects a key its table does not declare, so a key the
    # tables lose, at any depth, would fail a benchmark run; every object
    # of the file is walked
    cfg = _benchmark_config(name)
    objects = list(_objects(config.COMMANDS[command], cfg))
    assert len(objects) == _count_objects(cfg)
    for at, keys, declared in objects:
        assert keys <= declared, (at, keys - declared)


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
