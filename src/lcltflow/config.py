"""One reader for JSON configs: each key is declared once, with its form.

A table maps each key of a JSON object to (reader, default), the default
``REQUIRED``, None (may be left out) or a JSON value read as if given; a
key it does not declare exits 2, so a misspelt key never falls back to a
default.  A reader ``reader(value, at, env)`` returns the typed value or
raises ConfigError naming ``at``, the key (a list's items take the list's
key), and ``env`` holds the values read so far around it, such as ``D``.
Commands and systems are read whole before any mathematics, so a value
that cannot be read exits 2, never 3.  Only the stdlib, ``errors`` and
``quadfield`` are imported: no numpy.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ConfigError
from .quadfield import QuadScalar, as_fraction, as_quad

REQUIRED = object()


def exact(v, at, env):
    """An integer, [num, den] or [pn, pd, qn, qd] (p + q sqrt D), integral
    entries and nonzero denominators: a float is never rationalised."""
    parts = v if isinstance(v, list) else [v]
    if (len(parts) not in ((2, 4) if isinstance(v, list) else (1,))
            or not all(type(x) is int or type(x) is float and x.is_integer()
                       for x in parts) or 0 in parts[1::2]):
        raise ConfigError(f"cannot read {at} = {v!r:.60}: give an integer, "
                          f"[num, den] or [pn, pd, qn, qd] (p + q sqrt(D)) "
                          f"with integer entries")
    n = [int(x) for x in parts]
    return QuadScalar(Fraction(*n[:2]), Fraction(*n[2:] or [0]), env["D"])


def decimal(v, at, env):
    """``exact``, or a finite float as its shortest decimal (50.2 is
    251/5)."""
    if not isinstance(v, float):
        return exact(v, at, env)
    if not math.isfinite(v):
        raise ConfigError(f"{at} must be finite, not {v!r}")
    return as_quad(v, env["D"])


def number(v, at, env, integral=False):
    """A float (an int if ``integral``) from a finite JSON number, not a
    bool, or an exact scalar."""
    x, ok = v, False
    try:
        if isinstance(v, list):
            q = exact(v, at, env)
            x = q.p if q.is_rational() else float(q)
        ok = (not isinstance(x, bool) and isinstance(x, (int, float, Fraction))
              and math.isfinite(x))
    except OverflowError:       # an integer beyond the float range
        pass
    if not ok:
        raise ConfigError(f"{at}: cannot read number {v!r:.60}: give a "
                          f"finite JSON number or an exact form")
    if integral and x != int(x):
        raise ConfigError(f"{at} must be an integer, not {v!r:.60}")
    return int(x) if integral else float(x)


def integer(v, at, env):
    return number(v, at, env, integral=True)


def json_value(what, *types):
    """A JSON value of ``types``, not a bool."""
    def read(v, at, env):
        if isinstance(v, bool) or not isinstance(v, types):
            raise ConfigError(f"cannot read {at} = {v!r:.60}: give {what}")
        return v
    return read


def positive(read, what):
    """``read``'s value, which must be a positive ``what``."""
    def check(v, at, env):
        if not (x := read(v, at, env)) > 0:
            raise ConfigError(f"{at} must be a positive {what}, not "
                              f"{float(x):g}")
        return x
    return check


def enum(*choices):
    """One of the strings ``choices``."""
    def one_of(v, at, env):
        if v not in choices:
            raise ConfigError(f"unknown {at} {v!r:.60}: give "
                              f"{' or '.join(map(json.dumps, choices))}")
        return v
    return one_of


def list_of(read, increasing=False, empty=False):
    """A list of ``read``'s values, non-empty unless ``empty``."""
    def items(v, at, env):
        if not isinstance(v, list) or not (v or empty):
            raise ConfigError(f"{at!r} must be a "
                              f"{'' if empty else 'non-empty '}list, not "
                              f"{v!r:.60}")
        out = [read(x, at, env) for x in v]
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{at} must be increasing, not {v!r:.60}")
        return out
    return items


def pair(read):
    """[lo, hi] of ``read``'s values, as a tuple."""
    def lo_hi(v, at, env):
        if not isinstance(v, list) or len(v) != 2:
            raise ConfigError(f"{at} must be a pair, not {v!r:.60}")
        return read(v[0], at, env), read(v[1], at, env)
    return lo_hi


def interval(read):
    """[lo, hi] of ``read``'s values with lo < hi, as a tuple."""
    read_pair = pair(read)

    def lo_hi(v, at, env):
        lo, hi = read_pair(v, at, env)
        if not lo < hi:
            raise ConfigError(f"{at} = {v!r:.60} is empty: it needs lo < hi")
        return lo, hi
    return lo_hi


def matrix(shape, name, rows_of=None):
    """Nested lists of JSON numbers (not bools) of ``shape``, as given; a
    length "n" is the number of rows, at least 1, or that of the value read
    at the key ``rows_of``."""
    def entries(v, at, dims, n):
        if not dims:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"cannot read {name} {at} = {v!r:.60}: "
                                  f"entries must be JSON numbers")
            return v
        want = n if dims[0] == "n" else dims[0]
        if not isinstance(v, list):
            raise ConfigError(f"cannot read {name} {at} = {v!r:.60}: give a "
                              f"list")
        if len(v) != want:
            how = "not enough" if len(v) < want else "too many"
            raise ConfigError(f"cannot read {name} {at} = {v!r:.60}: {how} "
                              f"values to unpack (expected {want}, got "
                              f"{len(v)})")
        return [entries(x, f"{at}[{i}]", dims[1:], n)
                for i, x in enumerate(v)]
    # an empty list is one row short
    return lambda v, at, env: entries(
        v, at, shape, len(env[rows_of]) if rows_of else
        len(v) or 1 if isinstance(v, list) else None)


def atoms(v, at, env):
    """Renewal atoms (x, y, p) from rows [xp, xq, yp, yq, pn, pd] of finite
    JSON numbers, each read as its shortest decimal: x = xp + xq sqrt D,
    y = yp + yq sqrt D and p = pn/pd."""
    out = []
    for i, row in enumerate(matrix(("n", 6), "renewal")(v, at, env)):
        where = f"cannot read renewal {at}[{i}] = {row!r}"
        if not all(math.isfinite(x) for x in row if isinstance(x, float)):
            raise ConfigError(f"{where}: entries must be finite")
        if row[5] == 0:
            raise ConfigError(f"{where}: its probability is "
                              f"Fraction({row[4]}, 0)")
        xp, xq, yp, yq, pn, pd = map(as_fraction, row)
        out.append((QuadScalar(xp, xq, env["D"]),
                    QuadScalar(yp, yq, env["D"]), pn / pd))
    return out


def _key(at, key):
    """The name of ``key`` of the object at ``at``: ``t`` at the top,
    ``the request's t`` below it."""
    return f"the {at}'s {key}" if at else key


def fields(table, tag=None):
    """A JSON object, as the dict of each key of ``table`` read; the object
    holds no other key but ``tag``, which a ``tagged`` object reads."""
    def read(v, at, env):
        if not isinstance(v, dict):
            raise ConfigError(f"{at} must be a JSON object, not {v!r:.60}")
        known = [tag] * (tag is not None) + list(table)
        for key in v:
            if key not in known:
                raise ConfigError(f"unknown key {_key(at, key)}; known "
                                  f"keys: {', '.join(known)}")
        got = {}
        for key, (reader, default) in table.items():
            here = _key(at, key)
            if key in v:
                got[key] = reader(v[key], here, {**env, **got})
            elif default is REQUIRED:
                raise ConfigError(f"{here} is required")
            else:
                got[key] = default if default is None else reader(
                    default, here, {**env, **got})
        return got
    read.table = table
    return read


def tagged(name, tag, tables, default=REQUIRED):
    """A JSON object whose ``tag`` picks the table of its other keys."""
    pick = enum(*tables)
    readers = {k: fields(t, tag) for k, t in tables.items()}

    def read(v, at, env):
        if not isinstance(v, dict) or tag not in v and default is REQUIRED:
            raise ConfigError(f"{name} must be a JSON object with a {tag}, "
                              f"not {v!r:.60}")
        kind = pick(v.get(tag, default), f"{name} {tag}", env)
        return {tag: kind, **readers[kind](v, at, env)}
    read.tag, read.tables, read.default = tag, tables, default
    return read


def flow_window(v, at, env):
    """[w, lo, hi] of numbers with lo < hi, as ("flow", w, lo, hi)."""
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigError(f"{at} must hold flow windows [w, lo, hi], not "
                          f"{v!r:.60}")
    w, lo, hi = (number(x, at, env) for x in v)
    if hi <= lo:
        raise ConfigError(f"flow window {v!r} of {at} is empty: it needs "
                          f"lo < hi")
    return "flow", w, lo, hi


def window(v, at, env):
    """["flow", w, lo, hi] or ["section", a, l]."""
    kind = v[0] if isinstance(v, list) and v else None
    if kind == "flow":
        return flow_window(v[1:], at, env)
    if kind != "section" or len(v) != 3:
        raise ConfigError(f"unknown window {v!r:.60} in {at}: give [\"flow\","
                          f" w, lo, hi] or [\"section\", a, l]")
    return "section", number(v[1], at, env), integer(v[2], at, env)


def grid_point(v, at, env):
    """A number, or a list of one number per component."""
    return [number(x, at, env) for x in (v if isinstance(v, list) else [v])]


def components(v, at, env):
    """spectral's 1 or 2 distinct indices of (phi, tau), as a tuple."""
    c = tuple(integer(k, at, env) for k in v) if isinstance(v, list) else v
    if c not in ((0,), (1,), (0, 1), (1, 0)):
        raise ConfigError(f"{at} must be 1 or 2 distinct indices of (phi, "
                          f"tau), 0 or 1, not {v!r:.60}")
    return c


# a system is read through SYSTEMS when it is built
_SYSTEM = json_value("a JSON object, or a JSON string or path of one",
                     dict, str)
_D = (json_value("a JSON integer", int), 2)
_TIME = positive(decimal, "flow time")
_FLOAT_TIME = positive(number, "flow time")
_N = (positive(integer, "integer"), REQUIRED)
# the request's event, which predict and lattice verify read alike
_EVENT = {"t": (_TIME, REQUIRED), "W": (decimal, 0), "l": (integer, 0),
          "I": (interval(decimal), None), "J": (interval(decimal), None)}
_VERIFY = {"D": _D, "system": (_SYSTEM, REQUIRED), "N": _N,
           "nu_tau": (number, None), "sigma_flow": (number, None)}

CASE = tagged("case", "variant", {
    "A": {}, "B": {"a": (exact, REQUIRED)},
    "C": dict.fromkeys(("alpha", "beta"), (exact, REQUIRED)),
    "D": dict.fromkeys(("a", "b", "d"), (exact, REQUIRED)),
    "E": dict.fromkeys(("a_p", "b_p", "c_p", "d_p"), (exact, REQUIRED))})

COMMANDS = {
    "classify": fields({
        "D": _D, "generators": (list_of(pair(exact)), None),
        "shift": (pair(exact), [0, 0]), "system": (_SYSTEM, None)}),
    "predict": fields({
        "D": _D, "case": (CASE, REQUIRED),
        "sigma_flow": (number, REQUIRED), "nu_tau": (number, REQUIRED),
        "request": (fields({**_EVENT, "w": (number, 0), "nu_A": (number, 1),
                            "nu_B": (number, 1),
                            "target": (interval(number), None)}),
                    REQUIRED)}),
    "verify": tagged("verify", "mode", {
        "flow": {**_VERIFY, "t": (_TIME, REQUIRED),
                 "windows": (list_of(flow_window), REQUIRED)},
        "lattice": {**_VERIFY, "t": (_TIME, None), "case": (CASE, REQUIRED),
                    "request": (fields(_EVENT), REQUIRED)}}, "flow"),
    "simulate": fields({
        "D": _D, "system": (_SYSTEM, REQUIRED),
        "t": (_FLOAT_TIME, REQUIRED),
        "windows": (list_of(window), REQUIRED), "N": _N}),
    "spectral": fields({
        "D": _D, "system": (_SYSTEM, REQUIRED),
        "components": (components, None),
        # an empty grid writes the header alone
        "t_grid": (list_of(grid_point, empty=True),
                   [k * math.pi / 4 for k in range(-8, 9)])}),
    "renewal": fields({
        "D": _D, "system": (_SYSTEM, None),
        "t_values": (list_of(decimal), REQUIRED)}),
    "correlate": fields({
        "D": _D, "system": (_SYSTEM, REQUIRED),
        "band_delta": (number, 0.3), "band_period": (number, 1),
        "t_grid": (list_of(_FLOAT_TIME, increasing=True), REQUIRED),
        "N": _N}),
}

SYSTEMS = tagged("system", "type", {
    "renewal": {"D": _D, "atoms": (atoms, REQUIRED)},
    "markov": {"P": (matrix(("n", "n"), "Markov"), REQUIRED),
               "f": (matrix(("n", "n", 2), "Markov", "P"), REQUIRED)},
    "pm": {"alpha": (json_value("a JSON number", int, float), REQUIRED),
           "roof": (enum("unit", "affine"), "unit")}})


def read_config(command, cfg):
    """``command``'s config, a JSON object, read through its table."""
    return COMMANDS[command](cfg, "", {})


def read_system(spec):
    """(type, constructor arguments) of a system given as a JSON object, a
    JSON string or a file path, read through ``SYSTEMS``."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            try:
                with open(spec) as fh:
                    spec = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError(f"cannot read system {spec!r}: {e}")
    args = SYSTEMS(spec, "", {})
    args.pop("D", None)     # it only shapes the atoms
    return args.pop("type"), args
