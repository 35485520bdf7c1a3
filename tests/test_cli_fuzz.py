"""Seeded fuzz of the command line, run in-process: every command on every
system kind, as given and with one malformation (a missing key, a short
list, a value of the wrong type, an unknown kind or a bad path).  The exit
code is always one of the documented ones and no exception escapes."""

import copy
import functools
import json
import operator
import os
import re
import tempfile

import pytest
from hypothesis import given, seed, settings, strategies as st

from lcltflow import cli, config

RENEWAL = {"type": "renewal", "D": 2,
           "atoms": [[-1, 0, 2, -1, 1, 3], [0, 0, 1, 0, 1, 3],
                     [1, 0, -1, 1, 1, 3]]}
MARKOV = {"type": "markov", "P": [[0.5, 0.5], [0.5, 0.5]],
          "f": [[[-1, 1], [1, 2]], [[-1, 1], [1, 2]]]}
PM = {"type": "pm", "alpha": 0.25}
PM_ALPHAS = [0.125, 0.25, 0.3]
# a renewal system written to a file and named by its path
SYSTEM_FILE = "system-file"

CASE_D = {"case": {"variant": "D", "a": 1, "b": [0, 1, 1, 1], "d": 1},
          "sigma_flow": 1.0, "nu_tau": 2 / 3,
          "request": {"t": 2, "l": 0, "I": [0.0, 0.4], "J": [0.0, 0.4]}}


# lattice verify with the E label whose shear-reduced D label is CASE_D's,
# with the request keys only predict reads, and with a label lattice mode
# rejects
LATTICE = dict(CASE_D, system=RENEWAL, mode="lattice", t=2, N=16)
LATTICE_CASE_E = dict(LATTICE, case={"variant": "E", "a_p": 1,
                                     "b_p": [0, 1, 1, 1], "c_p": 0, "d_p": 1})
LATTICE_PREDICT_KEYS = dict(LATTICE, request=dict(
    CASE_D["request"], w=1, nu_A=0.5, target=[0, 1]))
LATTICE_CASE_A = dict(LATTICE, case={"variant": "A"})


def _base_configs():
    out = [("classify", {"generators": [[0, 1], [1, [0, 1, 1, 1]]],
                         "shift": [0, [1, 2]]}),
           ("predict", CASE_D),
           ("renewal", {"t_values": [1.5, [3, 2], 2]}),
           ("verify", LATTICE_CASE_E),
           ("verify", LATTICE_CASE_A)]
    for system in (RENEWAL, MARKOV, PM, SYSTEM_FILE):
        out += [
            ("classify", {"system": system}),
            ("simulate", {"system": system, "t": 2, "N": 16,
                          "windows": [["flow", 0, -1, 1], ["section", 1, 0]]}),
            ("verify", {"system": system, "t": 2, "N": 16, "sigma_flow": 1.0,
                        "windows": [[0, -1, 1]]}),
            ("verify", dict(CASE_D, system=system, mode="lattice", t=2,
                            N=16)),
            ("spectral", {"system": system, "components": [0],
                          "t_grid": [0, 1]}),
            ("renewal", {"system": system, "t_values": [1.5]}),
            ("correlate", {"system": system, "t_grid": [1, 2], "N": 16}),
        ]
    return out


BASES = _base_configs()
JUNK = [None, "x", "missing.json", [], [1], [1, 2], {}, -1, 0, 0.5, True,
        float("nan"), float("inf"), -0.5]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _at(cfg, path):
    return functools.reduce(operator.getitem, path, cfg)


@st.composite
def cases(draw):
    command, cfg = draw(st.sampled_from(BASES))
    cfg = copy.deepcopy(cfg)
    if cfg.get("system") == PM:
        cfg["system"]["alpha"] = draw(st.sampled_from(PM_ALPHAS))
    how = draw(st.sampled_from(["none", "delete", "replace", "truncate"]))
    paths = list(_paths(cfg))
    if how == "truncate":
        paths = [p for p in paths if isinstance(_at(cfg, p), list)]
    if how == "none" or not paths:
        return command, cfg
    path = draw(st.sampled_from(paths))
    if not path:
        return command, draw(st.sampled_from(JUNK))
    node, key = _at(cfg, path[:-1]), path[-1]
    if how == "delete":
        del node[key]
    elif how == "replace":
        node[key] = draw(st.sampled_from(JUNK))
    else:
        node[key] = node[key][:len(node[key]) // 2]
    return command, cfg


def _run(command, cfg, d):
    """cli.main on cfg in directory d: the exit code and the output dir."""
    system_path = os.path.join(d, "system.json")
    with open(system_path, "w") as fh:
        json.dump(RENEWAL, fh)
    if isinstance(cfg, dict) and cfg.get("system") == SYSTEM_FILE:
        cfg["system"] = system_path
    path = os.path.join(d, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(d, "out")
    return cli.main([command, path, "--out", out, "--seed", "1"]), out


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(case=cases())
def test_cli_exit_codes_on_fuzzed_configs(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as d:
        code, _ = _run(command, cfg, d)
    assert code in (0, 2, 3, 4), (command, cfg, code)


def test_lattice_verify_bases_as_given(tmp_path, capsys):
    # an E label checks its shear-reduced D label; predict-only request
    # keys, which lattice verify once ignored, and a case-A label exit 2
    results = []
    for cfg in (LATTICE, LATTICE_CASE_E):
        d = tmp_path / str(len(results))
        d.mkdir()
        code, out = _run("verify", copy.deepcopy(cfg), str(d))
        with open(os.path.join(out, "verify.csv")) as fh:
            results.append((code, fh.read().splitlines()[1]))
    assert results[0] == results[1]
    capsys.readouterr()
    for cfg, words in ((LATTICE_PREDICT_KEYS, "unknown key the request's w"),
                       (LATTICE_CASE_A, "case D or E")):
        code, _ = _run("verify", copy.deepcopy(cfg), str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and words in err


# ---------------------------------------------------------------------------
# the replay: every key path of each non-PM base deleted, or set to null,
# "x", [] or true, and an undeclared key added to each object; and the PM
# system's own keys under one command
# ---------------------------------------------------------------------------

REPLAY_JUNK = [None, "x", [], True]
UNDECLARED = "band_delt"
REPLAY_BASES = [(command, cfg, ()) for command, cfg in BASES
                if not (isinstance(cfg, dict) and cfg.get("system") == PM)]
REPLAY_BASES.append(("simulate", {"system": dict(PM, roof="unit"), "t": 2,
                                  "N": 16, "windows": [["flow", 0, -1, 1]]},
                     ("system",)))


def _mutations(cfg, under):
    """(path, how, config) for every key path below ``under``: the key
    deleted ("delete") or its value replaced by each of REPLAY_JUNK; and
    for each object from ``under`` down, the key path of an undeclared key
    added to it ("add")."""
    for path in _paths(_at(cfg, under), under):
        if isinstance(_at(cfg, path), dict):
            mutated = copy.deepcopy(cfg)
            _at(mutated, path)[UNDECLARED] = 1
            yield path + (UNDECLARED,), "add", mutated
        for how in ["delete"] + REPLAY_JUNK if path != under else []:
            mutated = copy.deepcopy(cfg)
            node, key = _at(mutated, path[:-1]), path[-1]
            if how == "delete":
                del node[key]
            else:
                node[key] = how
            yield path, how, mutated


def _names(path):
    """The key path and its prefixes as messages name them: ``t``, ``the
    request's I``, ``windows`` for a list's items; a system's keys from the
    system (``P[0][1]``, ``alpha``)."""
    if path[0] == "system" and len(path) > 1:
        path = path[1:]
    names, at = [], ""
    for key in path:
        if isinstance(key, int):
            at += f"[{key}]"
        else:
            at = f"the {at}'s {key}" if at else key
        names.append(at)
    return names


def _table(spec, obj):
    """{key: (reader, default)} of the object ``obj`` that ``spec`` reads,
    its tag included."""
    if hasattr(spec, "tag"):
        kind = obj.get(spec.tag, spec.default)
        return {spec.tag: (None, spec.default), **spec.tables.get(kind, {})}
    return spec.table


def _declaration(command, cfg, path):
    """(reader, default) of the last object key on ``path`` in the table
    that reads it (for a list item, the list's)."""
    spec, obj = config.COMMANDS[command], cfg
    for i, key in enumerate(path):
        entry = _table(spec, obj).get(key)
        if entry is None or i + 1 == len(path) or isinstance(path[i + 1], int):
            return entry
        spec = config.SYSTEMS if key == "system" else entry[0]
        obj = obj[key]


@pytest.mark.parametrize(
    "command, base, under", REPLAY_BASES,
    ids=[f"{i}-{c}" for i, (c, _, _) in enumerate(REPLAY_BASES)])
def test_replay_of_each_key_path_exits_by_its_table(tmp_path, capsys,
                                                     command, base, under):
    # a value of the wrong type or shape, or a key no table declares,
    # exits 2 with one line naming its key; exit 3 is left to the
    # mathematics (a deleted atom row leaves probabilities that sum to
    # 2/3), and exit 0 to values that are still valid
    d = str(tmp_path)
    _run(command, copy.deepcopy(base), d)
    as_given = capsys.readouterr().err
    for path, how, cfg in _mutations(base, under):
        code, _ = _run(command, cfg, d)
        err = capsys.readouterr().err
        case = (path, how, code, err)
        assert "bad configuration" not in err, case
        if how == "add":
            # a base that fails as given may fail before its system is read
            assert code == 2, case
            assert (err.startswith(f"error: unknown key {_names(path)[-1]}; "
                                   f"known keys: ")
                    or err == as_given), case
        elif code == 2:
            assert len(err.splitlines()) == 1, case
            assert err.startswith("error: "), case
            assert (any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err)
                        for name in _names(path))
                    or err == as_given
                    or how == "delete" and err.rstrip().endswith(
                        "is required")), case
        elif code == 3:
            assert how == "delete" and path[:2] == ("system", "atoms") \
                and len(path) == 3, case
            assert "probabilities sum to 2/3" in err, case
        else:
            entry = _declaration(command, base, path)
            assert code == 0, case
            assert (how == "delete" and (isinstance(path[-1], int)
                                         or entry[1] is not config.REQUIRED)
                    # an empty grid writes the header alone
                    or (command, path, how) == ("spectral", ("t_grid",), [])
                    ), case
