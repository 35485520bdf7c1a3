"""Command-line front door.

Subcommands: classify | predict | verify | simulate | spectral | renewal |
correlate.  Every run writes a ``manifest.json`` into the output directory
with the command, a hash of the configuration, the seed, library versions,
and a checksum per emitted file, so any run can be reproduced exactly.

A process pays only for the layers its subcommand runs: this module imports
the stdlib, ``errors`` and ``quadfield``, and each command or helper imports
its layers when it is called.  ``classify`` on explicit generators and
``predict`` never load numpy.  The manifest's ``versions.numpy`` is the numpy
loaded in this process when the run ends, or null if none is: null for those
two commands in a fresh process, but a caller that ran ``main`` in-process
after numpy was loaded gets its version.

Exit codes: 0 success, 2 configuration/parse failure, 3 mathematical domain
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .errors import ConfigError, LcltError
from .quadfield import QuadScalar, as_quad

DEFAULT_SEED = 20260823

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _is_integral(x):
    return (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, float) and x.is_integer())


def _parse_scalar(v, D=2):
    """Exact scalar from JSON: an integer, [num, den] or [pn, pd, qn, qd],
    all entries integral and denominators nonzero.  A non-integral float is
    rejected, never rationalised."""
    parts = v if isinstance(v, list) else [v]
    lengths = (2, 4) if isinstance(v, list) else (1,)
    if (len(parts) not in lengths or not all(map(_is_integral, parts))
            or 0 in parts[1::2]):
        raise ConfigError(
            f"cannot parse scalar {v!r}: give an integer, [num, den] or "
            f"[pn, pd, qn, qd] (p + q sqrt(D)) with integer entries")
    n = [int(x) for x in parts]
    if len(n) == 4:
        return QuadScalar(Fraction(n[0], n[1]), Fraction(n[2], n[3]), D)
    return as_quad(Fraction(*n), D)


def _exact(cfg, v, what):
    """An exact scalar of field ``what``: a finite float as its shortest
    decimal (50.2 is 251/5), anything else by ``_parse_scalar``."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ConfigError(f"{what} must be finite, not {v!r}")
        return as_quad(v, cfg.get("D", 2))
    return _parse_scalar(v, cfg.get("D", 2))


def _number(cfg, v, integral=False):
    """A numeric config field as a float (an int if ``integral``): a JSON
    number, or an exact [num, den] / [pn, pd, qn, qd] scalar in the
    config's quadratic field."""
    x = v
    if isinstance(v, list):
        q = _parse_scalar(v, cfg.get("D", 2))
        x = q.p if q.is_rational() else float(q)
    if (isinstance(x, bool) or not isinstance(x, (int, float, Fraction))
            or not math.isfinite(x)):
        raise ConfigError(
            f"cannot read number {v!r}: give a JSON number, [num, den] or "
            f"[pn, pd, qn, qd]")
    if not integral:
        return float(x)
    if x != int(x):
        raise ConfigError(f"{v!r} must be an integer")
    return int(x)


def _flow_time(t, what):
    """t, a flow time, which must be positive."""
    if not t > 0:
        raise ConfigError(f"{what} must be a positive flow time, not "
                          f"{float(t):g}")
    return t


def _list(cfg, key):
    """cfg[key], which must be a non-empty JSON list."""
    v = cfg[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key!r} must be a non-empty list, not {v!r}")
    return v


def _sample_count(cfg):
    """The config's number of sample paths N, a positive integer."""
    N = _number(cfg, cfg["N"], integral=True)
    if N < 1:
        raise ConfigError(f"N must be a positive integer, not {N}")
    return N


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Collects outputs and writes the manifest at the end."""

    def __init__(self, args, config):
        self.args = args
        self.config = config
        self.outdir = args.out or "."
        try:
            os.makedirs(self.outdir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory "
                              f"{self.outdir!r}: {e.strerror}") from e
        self.outputs = {}

    def _write(self, name, text):
        path = os.path.join(self.outdir, name)
        try:
            _atomic_write(path, text)
        except OSError as e:
            raise ConfigError(f"cannot write {path!r}: {e.strerror}") from e
        return path

    def emit(self, name, text):
        path = self._write(name, text)
        self.outputs[name] = _sha256(text)
        return path

    def finish(self, command):
        # numpy only if this process loaded it: otherwise it shaped no output
        numpy = sys.modules.get("numpy")
        manifest = {
            "command": command,
            "config_hash": _sha256(json.dumps(self.config, sort_keys=True)),
            "config": self.config,
            "seed": self.args.seed,
            "versions": {
                "package": __version__,
                "python": sys.version.split()[0],
                "numpy": numpy and numpy.__version__,
            },
            "outputs": self.outputs,
        }
        self._write("manifest.json",
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# shared extraction helpers
# ---------------------------------------------------------------------------

def _fmt_param(v):
    if isinstance(v, QuadScalar):
        return repr(float(v)) if not v.is_rational() else str(v.p)
    return str(v)


def _object(cfg, key):
    """cfg[key], which must be a JSON object."""
    obj = cfg[key]
    if not isinstance(obj, dict):
        raise ConfigError(f"{key!r} must be a JSON object, not {obj!r}")
    return obj


def _system(cfg, kind, command):
    """The config's system, which ``command`` needs to be of ``kind``."""
    from .systems import load_system

    system = load_system(cfg["system"])
    if system.kind != kind:
        raise ConfigError(
            f"{command} needs a {kind} system, not a {system.kind} system "
            f"(spectral takes a markov system; classify also takes explicit "
            f"generators)")
    return system


# the exact parameters each case label carries
_CASE_PARAMS = {"A": (), "B": ("a",), "C": ("alpha", "beta"),
                "D": ("a", "b", "d"), "E": ("a_p", "b_p", "c_p", "d_p")}


def _case_from_config(cfg):
    from .groups import CaseLabel

    case_cfg = _object(cfg, "case")
    D = cfg.get("D", 2)
    variant = case_cfg["variant"]
    missing = [k for k in _CASE_PARAMS.get(variant, ()) if k not in case_cfg]
    if missing:
        raise ConfigError(f"case {variant} needs {', '.join(missing)}")
    return CaseLabel(variant, **{k: _parse_scalar(v, D)
                                 for k, v in case_cfg.items()
                                 if k != "variant"})


def _pair(req, key, read):
    """The request's [lo, hi] at ``key`` through ``read``, or None."""
    v = req.get(key)
    if not v:
        return None
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"{key!r} must be a pair [lo, hi], not {v!r}")
    return read(v[0]), read(v[1])


def _params_from_config(cfg):
    from .predict import FlowMLCLTParams

    return FlowMLCLTParams(_case_from_config(cfg),
                           _number(cfg, cfg["sigma_flow"]),
                           _number(cfg, cfg["nu_tau"]))


def _request_from_config(cfg):
    """predict's request, its event (t, W, I, J) read exactly as lattice
    verify reads it."""
    from .groups import interval
    from .predict import PredictionRequest

    req = _object(cfg, "request")

    def num(v):
        return _number(cfg, v)

    def exact(x):
        return _exact(cfg, x, "the request's numbers")

    target = _pair(req, "target", num)
    return PredictionRequest(
        t=exact(req["t"]), W_of_t=exact(req.get("W", 0)),
        w=num(req.get("w", 0.0)),
        l=_number(cfg, req.get("l", 0), integral=True),
        nu_A=num(req.get("nu_A", 1.0)), nu_B=num(req.get("nu_B", 1.0)),
        I=_pair(req, "I", exact), J=_pair(req, "J", exact),
        target=target and [interval(*target)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(run):
    from .groups import classify_case, closure_1d, closure_of_group, covolume
    from .predict import mixing_classify

    cfg = run.config
    if "generators" in cfg:
        D = cfg.get("D", 2)

        def vec(v):
            return (_parse_scalar(v[0], D), _parse_scalar(v[1], D))

        gens = [vec(v) for v in cfg["generators"]]
        shift = vec(cfg.get("shift", [0, 0]))
    else:
        # only renewal systems have an exact finite support group
        D = None
        gens, shift = _system(cfg, "renewal", "classify").value_group()
    g = closure_of_group(gens, shift=shift, D=D)
    case = classify_case(g)
    if case.variant == "Degenerate":
        verdict = "NotWeaklyMixing"
        line = "Degenerate / not weakly mixing"
    else:
        # the tau-projection of the same generators and shift
        verdict = mixing_classify(closure_1d([v[1] for v in gens]), shift[1])
        parts = [f"Case {case.variant}"]
        parts += [f"{k}={_fmt_param(v)}" for k, v in sorted(
            case.params.items())]
        if case.variant in ("D", "E"):
            parts.append(f"covolume={covolume(case):g}")
        yn = "yes" if verdict == "Mixing" else "no"
        line = ", ".join(parts) + f", flow mixing: {yn}"
    record = {
        "case": case.variant,
        "params": {k: float(v) for k, v in case.params.items()},
        "mixing": verdict,
        "group": g.to_json(),
    }
    if case.variant in ("D", "E"):
        record["covolume"] = covolume(case)
    print(line)
    run.emit("classify.json", json.dumps(record, indent=2) + "\n")
    run.finish("classify")
    return EXIT_OK


def cmd_predict(run):
    from .predict import prediction_record

    params = _params_from_config(run.config)
    req = _request_from_config(run.config)
    rec = prediction_record(params, req)
    print(json.dumps(rec, indent=2))
    run.emit("predict.json", json.dumps(rec, indent=2) + "\n")
    run.finish("predict")
    return EXIT_OK


def _flow_window(cfg, win):
    """("flow", w, lo, hi) from a config's [w, lo, hi]; the window [lo, hi)
    must not be empty."""
    w, lo, hi = (_number(cfg, win[k]) for k in range(3))
    if hi <= lo:
        raise ConfigError(f"flow window {win!r} is empty: it needs lo < hi")
    return "flow", w, lo, hi


def _mc_windows(cfg):
    wins = []
    for w in _list(cfg, "windows"):
        if w[0] == "flow":
            wins.append(_flow_window(cfg, w[1:]))
        elif w[0] == "section":
            wins.append(("section", _number(cfg, w[1]),
                         _number(cfg, w[2], integral=True)))
        else:
            raise ConfigError(f"unknown window {w!r}")
    return wins


def cmd_simulate(run):
    from .montecarlo import estimate_lclt
    from .systems import load_system

    cfg = run.config
    system = load_system(cfg["system"])
    wins = _mc_windows(cfg)
    t = _flow_time(_number(cfg, cfg["t"]), "t")
    ests = estimate_lclt(system, t, wins, _sample_count(cfg), run.args.seed,
                         run.args.workers)
    recs = [{"window": list(w), "point": e.point, "std_error": e.std_error,
             "n_samples": e.n_samples, "seed": e.seed}
            for w, e in zip(wins, ests)]
    run.emit("simulate.json", json.dumps(recs, indent=2) + "\n")
    for r in recs:
        print(f"{r['window']}: {r['point']:.6g} +- {r['std_error']:.2g}")
    run.finish("simulate")
    return EXIT_OK


def cmd_spectral(run):
    from .spectral import TwistedOperatorModel, eigen_curve_rows

    cfg = run.config
    # the twisted operator needs a finite transfer matrix
    system = _system(cfg, "markov", "spectral")
    comps = cfg.get("components")
    if comps is not None:
        comps = tuple(_number(cfg, k, integral=True) for k in comps)
        if comps not in ((0,), (1,), (0, 1), (1, 0)):
            raise ConfigError(f"components must be 1 or 2 distinct indices "
                              f"of (phi, tau), 0 or 1, not {list(comps)}")
    model = TwistedOperatorModel(system, components=comps)
    grid = cfg.get("t_grid")
    if grid is None:
        grid = [k * math.pi / 4 for k in range(-8, 9)]
    # each grid point is a scalar t or a list of d components
    ts = [[_number(cfg, x) for x in (t if isinstance(t, list) else [t])]
          for t in grid]
    if any(len(t) != model.d for t in ts):
        raise ConfigError(
            f"spectral needs t_grid points with {model.d} component(s) for "
            f"this system; scalar points need \"components\" naming one "
            f"observable")
    rows = eigen_curve_rows(model, ts)
    header = ",".join(f"t{k}" for k in range(model.d)) \
        + ",re_lambda,im_lambda,abs_lambda,gap"
    lines = [header] + [",".join(repr(float(v)) for v in r) for r in rows]
    run.emit("eigen_curve.csv", "\n".join(lines) + "\n")
    print(f"wrote eigen_curve.csv ({len(rows)} rows)")
    run.finish("spectral")
    return EXIT_OK


def cmd_renewal(run):
    from .renewal_exact import counterexample_scan, scan_csv_rows

    cfg = run.config
    atoms = None
    if "system" in cfg:
        atoms = _system(cfg, "renewal", "renewal").atoms
    ts = [_exact(cfg, t, "t_values") for t in _list(cfg, "t_values")]
    rows = counterexample_scan(ts, atoms=atoms)
    run.emit("scan.csv", "\n".join(scan_csv_rows(rows)) + "\n")
    for r in rows:
        print(f"t={r[0]:g} cell={r[1]} sqrt(t)P={r[2]:.6f} pruned={r[3]:.2g}")
    run.finish("renewal")
    return EXIT_OK


def _band_set(delta, period=1.0):
    """The set {s mod period < delta}; it must be neither empty nor all."""
    import numpy as np

    if not 0 < delta < period:
        raise ConfigError(f"correlate needs 0 < band_delta < band_period, "
                          f"not band_delta = {delta:g}, band_period = "
                          f"{period:g}")

    def pred(states, s):
        return np.mod(s, period) < delta
    return pred


def cmd_correlate(run):
    from .montecarlo import estimate_correlation
    from .systems import load_system

    cfg = run.config
    system = load_system(cfg["system"])
    pred = _band_set(_number(cfg, cfg.get("band_delta", 0.3)),
                     _number(cfg, cfg.get("band_period", 1.0)))
    ts = [_flow_time(_number(cfg, t), "t_grid") for t in _list(cfg, "t_grid")]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"t_grid must be increasing, not {cfg['t_grid']!r}")
    series = estimate_correlation(system, pred, pred, ts, _sample_count(cfg),
                                  run.args.seed, workers=run.args.workers)
    rows = ["t,correlation,std_error"]
    rows += [f"{t!r},{c!r},{se!r}" for t, c, se in series]
    run.emit("correlation.csv", "\n".join(rows) + "\n")
    for t, c, se in series:
        print(f"t={t:g} corr={c:+.5f} (+-{se:.2g})")
    run.finish("correlate")
    return EXIT_OK


def _drift(system):
    """c = nu(phi) / nu(tau), the mean rate of the flow integral: 0 unless
    a Markov system's phi has a nonzero stationary mean."""
    return getattr(system, "nu_phi", 0.0) / system.nu_tau


def _sigma_flow(run, system):
    """The config's sigma_flow, else the flow variance from the system's
    asymptotic covariance of (phi, tau): exact where the system gives
    ``sigma()`` (renewal, Markov), else estimated by batch means of its base
    sums.  It is the variance of phi - c tau, c = ``_drift``, over
    nu(tau)."""
    from .predict import flow_variance

    if "sigma_flow" in run.config:
        return _number(run.config, run.config["sigma_flow"])
    if hasattr(system, "sigma"):
        cov = system.sigma()
    else:
        from .montecarlo import estimate_sigma

        cov, _ = estimate_sigma(system, seed=run.args.seed,
                                workers=run.args.workers)
    c = _drift(system)
    return flow_variance(cov[0, 0] - 2 * c * cov[0, 1] + c * c * cov[1, 1],
                         system.nu_tau)


def cmd_verify(run):
    from .groups import CaseLabel, interval
    from .montecarlo import estimate_lclt
    from .predict import FlowMLCLTParams, PredictionRequest, _d_params, predict
    from .renewal_exact import stationary_event_probability
    from .systems import load_system

    cfg = run.config
    mode = cfg.get("mode", "flow")
    if mode not in ("flow", "lattice"):
        raise ConfigError(f"unknown verify mode {mode!r}: give \"flow\" "
                          f"(the default) or \"lattice\"")
    scale = run.args.tolerance_scale
    system = load_system(cfg["system"])
    N = _sample_count(cfg)
    # every check takes nu_tau from the system: a config's must agree
    nu_tau = _number(cfg, cfg.get("nu_tau", system.nu_tau))
    if not math.isclose(nu_tau, system.nu_tau, rel_tol=1e-9):
        raise ConfigError(f"the config's nu_tau = {nu_tau!r} differs from "
                          f"the system's nu_tau = {system.nu_tau!r}")

    if mode == "flow":
        # non-arithmetic LCLT: flow windows, centred at the mean t c of
        # the flow integral, against the Gaussian density
        t = _flow_time(_exact(cfg, cfg["t"], "t"), "t")
        v = I = J = None
        W = float(t) * _drift(system)
        wins = [_flow_window(cfg, win) for win in _list(cfg, "windows")]
        params = FlowMLCLTParams(CaseLabel("A"), _sigma_flow(run, system),
                                 system.nu_tau)
        checks = [(f"flow window w={w} [{lo},{hi})",
                   predict(params, PredictionRequest(
                       t=t, w=w, target=[interval(lo, hi)])))
                  for _, w, lo, hi in wins]
    else:
        # lattice fiber check: one exact event {start height in I, section
        # value v = W + l a, end height in J} at the request's t, for the
        # prediction, the Monte Carlo window and the exact DP
        case = _case_from_config(cfg)
        if case.variant not in ("D", "E"):
            raise ConfigError(f"lattice verify needs a case D or E label, "
                              f"not {case.variant}")
        req = _object(cfg, "request")

        def exact(x):
            return _exact(cfg, x, "the request's numbers")

        # a top-level t may repeat the request's but not differ from it
        t = _flow_time(exact(req["t"]), "the request's t")
        W = exact(req.get("W", 0))
        if exact(cfg.get("t", req["t"])) != t:
            raise ConfigError(f"the request's t = {float(t):g} differs from "
                              f"the config's t = {cfg['t']}")
        l = _number(cfg, req.get("l", 0), integral=True)
        I, J = _pair(req, "I", exact), _pair(req, "J", exact)
        # a of the D label the prediction uses (E: its shear-reduced D)
        a = _d_params(case)[0]
        v = W + l * a
        params = FlowMLCLTParams(case, _sigma_flow(run, system),
                                 system.nu_tau)
        wins = [("section", float(a), l)]
        checks = [(f"fiber l={l}", predict(params, PredictionRequest(
            t=t, W_of_t=W, w=float(v) / math.sqrt(float(t)), l=l, I=I,
            J=J)))]

    # one set of sample paths serves every window
    ests = estimate_lclt(system, float(t), wins, N, run.args.seed,
                         run.args.workers, W_of_t=float(W),
                         I=I and tuple(map(float, I)),
                         J=J and tuple(map(float, J)))
    # the exact DP of the lattice check comes after Monte Carlo, so that
    # its tables do not stack on the Monte Carlo arrays in peak memory
    oracle = None
    if v is not None and system.kind == "renewal":
        p = stationary_event_probability(system.atoms, t, v, I=I, J=J)
        oracle = math.sqrt(float(t)) * float(p)
    rows = ["check,predicted,estimate,std_error,oracle,tolerance,status"]
    all_pass = True
    for (name, predicted), est in zip(checks, ests):
        tol = (3 * est.std_error + 0.10 * abs(predicted)) * scale
        ok = abs(est.point - predicted) <= tol
        if oracle is not None:
            ok = ok and abs(est.point - oracle) <= 3 * est.std_error * scale
        all_pass &= ok
        status = "PASS" if ok else "FAIL"
        ostr = "" if oracle is None else f"{oracle:.6f}"
        print(f"{status}  {name}: predicted {predicted:.6f}, "
              f"estimate {est.point:.6f} +- {est.std_error:.2g}"
              + (f", oracle {ostr}" if oracle is not None else ""))
        rows.append(f"\"{name}\",{predicted!r},{est.point!r},"
                    f"{est.std_error!r},{ostr},{tol!r},{status}")
    run.emit("verify.csv", "\n".join(rows) + "\n")
    run.finish("verify")
    return EXIT_OK if all_pass else EXIT_VERIFY


_COMMANDS = {
    "classify": cmd_classify,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "spectral": cmd_spectral,
    "renewal": cmd_renewal,
    "correlate": cmd_correlate,
}


def _int_in(lo, hi, what):
    """An argparse type: an integer k with lo <= k < hi."""
    def parse(text):
        try:
            k = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if not lo <= k < hi:
            raise argparse.ArgumentTypeError(f"must be {what}, not {k}")
        return k
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="lcltflow",
        description="Verify local limit theorems for suspension flows.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("config", help="path to a JSON configuration file")
    # block b draws from Philox key seed + (b << 64): a seed of 2**64 or
    # more would alias another seed's blocks
    p.add_argument("--seed", type=_int_in(0, 1 << 64, "in [0, 2**64)"),
                   default=DEFAULT_SEED)
    p.add_argument("--workers", type=_int_in(1, math.inf, "at least 1"),
                   default=1,
                   help="processes for the Monte Carlo blocks of 2^15 "
                        "paths, forked from this one: at most one per block "
                        "and per usable CPU; results are bit-identical for "
                        "any count")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   dest="tolerance_scale")
    return p


def main(argv=None):
    # numpy's OpenBLAS starts a thread pool when it loads, which burns CPU
    # while the commands' matrices are too small to gain from it: one
    # thread, unless the caller chose a number.  Set before any layer
    # imports numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_PARSE
    if not isinstance(config, dict):
        print(f"error: a config is a JSON object, not {config!r:.60}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](Run(args, config))
    except (KeyError, IndexError, TypeError) as e:
        print(f"error: bad configuration: {e!r}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (LcltError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
