"""Command-line front door.

Subcommands: classify | predict | verify | simulate | spectral | renewal |
correlate.  Every run writes a ``manifest.json`` into the output directory
with the command, a hash of the configuration, the seed, library versions,
and a checksum per emitted file, so any run can be reproduced exactly.

``main`` reads the whole config through its command's table in ``config``
before the command runs.  A process pays only for the layers its subcommand
runs: this module imports the stdlib, ``errors``, ``quadfield`` and
``config``, and each command or helper imports its layers when it is
called.  ``classify``, on explicit generators or on a renewal system's
exact atoms, and ``predict`` never load numpy.  The manifest's
``versions.numpy`` is the numpy loaded in this process when the run ends,
or null if none is: null for those two commands in a fresh process, but a
caller that ran ``main`` in-process after numpy was loaded gets its
version.

Exit codes: 0 success, 2 configuration/parse failure, 3 mathematical domain
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# CPython's own SHA-256, the digest hashlib gives: hashlib would load
# OpenSSL's libcrypto, which nothing else in a command's process calls
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    from _sha256 import sha256          # CPython 3.10-3.11

from . import __version__
from .config import read_config, read_system, renewal_atoms
from .errors import ConfigError, LcltError
from .quadfield import QuadScalar

DEFAULT_SEED = 20260823

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path, text):
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``.  The new file is created as ``open`` creates one, mode 0666
    less the umask, so the output is as readable as any other file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(text):
    return sha256(text.encode()).hexdigest()


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


def _system_args(cfg, kind, command):
    """The constructor arguments of the config's system, which ``command``
    needs to be of ``kind``: the kind is checked before any system is
    built."""
    got, args = read_system(cfg["system"])
    if got != kind:
        raise ConfigError(
            f"{command} needs a {kind} system, not a {got} system "
            f"(spectral takes a markov system; classify also takes explicit "
            f"generators)")
    return args


def _request(cfg, case):
    """The config's request: its event (t, W, l, I, J), which predict and
    lattice verify read alike, and predict's other keys.  A case D or E
    label needs the fiber intervals I and J."""
    from .groups import interval
    from .predict import PredictionRequest

    req = dict(cfg["request"])
    missing = [k for k in ("I", "J") if req[k] is None]
    if case.variant in ("D", "E") and missing:
        raise ConfigError(f"the request's {missing[0]} is required for a "
                          f"case {case.variant} label")
    target = req.pop("target", None)
    return PredictionRequest(W_of_t=req.pop("W"),
                             target=target and [interval(*target)], **req)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(run, cfg):
    from .groups import classify_case, closure_1d, closure_of_group, covolume
    from .predict import mixing_classify

    if cfg["generators"] is not None:
        D, gens, shift = cfg["D"], cfg["generators"], cfg["shift"]
    elif cfg["system"] is None:
        raise ConfigError("classify needs generators or a system")
    else:
        # only renewal systems have an exact finite support group; a
        # config's atoms share one D, so they have one
        D = None
        gens, shift = renewal_atoms(
            _system_args(cfg, "renewal", "classify")["atoms"])[1]
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


def cmd_predict(run, cfg):
    from .groups import CaseLabel
    from .predict import FlowMLCLTParams, prediction_record

    case = CaseLabel(**cfg["case"])
    req = _request(cfg, case)
    rec = prediction_record(
        FlowMLCLTParams(case, cfg["sigma_flow"], cfg["nu_tau"]), req)
    print(json.dumps(rec, indent=2))
    run.emit("predict.json", json.dumps(rec, indent=2) + "\n")
    run.finish("predict")
    return EXIT_OK


def cmd_simulate(run, cfg):
    from .montecarlo import estimate_lclt
    from .systems import load_system

    system = load_system(cfg["system"])
    wins = cfg["windows"]
    ests = estimate_lclt(system, cfg["t"], wins, cfg["N"], run.args.seed,
                         run.args.workers)
    recs = [{"window": list(w), "point": e.point, "std_error": e.std_error,
             "n_samples": e.n_samples, "seed": e.seed}
            for w, e in zip(wins, ests)]
    run.emit("simulate.json", json.dumps(recs, indent=2) + "\n")
    for r in recs:
        print(f"{r['window']}: {r['point']:.6g} +- {r['std_error']:.2g}")
    run.finish("simulate")
    return EXIT_OK


def cmd_spectral(run, cfg):
    from .spectral import TwistedOperatorModel, eigen_curve_rows
    from .systems import MarkovShiftBase

    # the twisted operator needs a finite transfer matrix
    system = MarkovShiftBase(**_system_args(cfg, "markov", "spectral"))
    model = TwistedOperatorModel(system, components=cfg["components"])
    ts = cfg["t_grid"]
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


def cmd_renewal(run, cfg):
    from .renewal_exact import counterexample_scan, scan_csv_rows

    atoms = None
    if cfg["system"] is not None:
        atoms = renewal_atoms(
            _system_args(cfg, "renewal", "renewal")["atoms"])[0]
    rows = counterexample_scan(cfg["t_values"], atoms=atoms)
    run.emit("scan.csv", "\n".join(scan_csv_rows(rows)) + "\n")
    for r in rows:
        print(f"t={r[0]:g} cell={r[1]} sqrt(t)P={r[2]:.6f} pruned={r[3]:.2g}")
    run.finish("renewal")
    return EXIT_OK


def _band_set(delta, period):
    """The set {s mod period < delta}; it must be neither empty nor all."""
    import numpy as np

    if not 0 < delta < period:
        raise ConfigError(f"correlate needs 0 < band_delta < band_period, "
                          f"not band_delta = {delta:g}, band_period = "
                          f"{period:g}")

    def pred(states, s):
        return np.mod(s, period) < delta
    return pred


def cmd_correlate(run, cfg):
    from .montecarlo import estimate_correlation
    from .systems import load_system

    pred = _band_set(cfg["band_delta"], cfg["band_period"])
    system = load_system(cfg["system"])
    series = estimate_correlation(system, pred, pred, cfg["t_grid"], cfg["N"],
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


def _sigma_flow(run, cfg, system):
    """The config's sigma_flow, else the flow variance from the system's
    asymptotic covariance of (phi, tau): exact where the system gives
    ``sigma()`` (renewal, Markov), else estimated by batch means of its base
    sums.  It is the variance of phi - c tau, c = ``_drift``, over
    nu(tau)."""
    from .predict import flow_variance

    if cfg["sigma_flow"] is not None:
        return cfg["sigma_flow"]
    if hasattr(system, "sigma"):
        cov = system.sigma()
    else:
        from .montecarlo import estimate_sigma

        cov, _ = estimate_sigma(system, seed=run.args.seed,
                                workers=run.args.workers)
    c = _drift(system)
    return flow_variance(cov[0, 0] - 2 * c * cov[0, 1] + c * c * cov[1, 1],
                         system.nu_tau)


def cmd_verify(run, cfg):
    from .groups import CaseLabel, interval
    from .montecarlo import estimate_lclt
    from .predict import FlowMLCLTParams, PredictionRequest, _d_params, predict
    from .renewal_exact import integral_atoms, stationary_event_probability
    from .systems import load_system

    scale = run.args.tolerance_scale
    if cfg["mode"] == "lattice":
        case = CaseLabel(**cfg["case"])
        if case.variant not in ("D", "E"):
            raise ConfigError(f"lattice verify needs a case D or E label, "
                              f"not {case.variant}")
        req = _request(cfg, case)
        t, W, l, I, J = req.t, req.W_of_t, req.l, req.I, req.J
        # a top-level t may repeat the request's but not differ from it
        if cfg["t"] is not None and cfg["t"] != t:
            raise ConfigError(f"the request's t = {float(t):g} differs from "
                              f"the config's t = {float(cfg['t']):g}")
    system = load_system(cfg["system"])
    # every check takes nu_tau from the system: a config's must agree
    nu_tau = cfg["nu_tau"]
    if nu_tau is not None and not math.isclose(nu_tau, system.nu_tau,
                                               rel_tol=1e-9):
        raise ConfigError(f"the config's nu_tau = {nu_tau!r} differs from "
                          f"the system's nu_tau = {system.nu_tau!r}")

    if cfg["mode"] == "flow":
        # non-arithmetic LCLT: flow windows, centred at the mean t c of
        # the flow integral, against the Gaussian density
        t = cfg["t"]
        v = I = J = None
        W = float(t) * _drift(system)
        wins = cfg["windows"]
        params = FlowMLCLTParams(CaseLabel("A"), _sigma_flow(run, cfg, system),
                                 system.nu_tau)
        checks = [(f"flow window w={w} [{lo},{hi})",
                   predict(params, PredictionRequest(
                       t=t, w=w, target=[interval(lo, hi)])))
                  for _, w, lo, hi in wins]
    else:
        # lattice fiber check: one exact event {start height in I, section
        # value v = W + l a, end height in J} at the request's t, for the
        # prediction, the Monte Carlo window and the exact DP; a of the D
        # label the prediction uses (E: its shear-reduced D)
        a = _d_params(case)[0]
        v = W + l * a
        params = FlowMLCLTParams(case, _sigma_flow(run, cfg, system),
                                 system.nu_tau)
        wins = [("section", float(a), l)]
        req.w = float(v) / math.sqrt(float(t))
        checks = [(f"fiber l={l}", predict(params, req))]
    exact = v is not None and system.kind == "renewal"
    if exact:
        # the oracle's checks of the atoms exit before any path is drawn
        integral_atoms(system.atoms)

    # one set of sample paths serves every window
    ests = estimate_lclt(system, float(t), wins, cfg["N"], run.args.seed,
                         run.args.workers, W_of_t=float(W),
                         I=I and tuple(map(float, I)),
                         J=J and tuple(map(float, J)))
    # the exact DP of the lattice check (about 0.03 s on the benchmark's
    # lattice config) runs after Monte Carlo: the workers draw inside
    # ``estimate_lclt``, whose ``_run_blocks`` returns only when every block
    # is back, so this process has no window to run it while they draw
    oracle = None
    if exact:
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


def _in(cast, lo, hi, what):
    """An argparse type: cast(text), which must lie in [lo, hi)."""
    def parse(text):
        try:
            k = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not lo <= k < hi:
            raise argparse.ArgumentTypeError(f"must be {what}, not {text}")
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
    p.add_argument("--seed", type=_in(int, 0, 1 << 64, "in [0, 2**64)"),
                   default=DEFAULT_SEED)
    p.add_argument("--workers", type=_in(int, 1, math.inf, "at least 1"),
                   default=1,
                   help="processes for the Monte Carlo blocks of 2^15 "
                        "paths, forked from this one: at most one per block "
                        "and per usable CPU; results are bit-identical for "
                        "any count")
    p.add_argument("--out", default=None, help="output directory")
    # an infinite scale would pass every check, and one <= 0 fail them all
    p.add_argument("--tolerance-scale", default=1.0, dest="tolerance_scale",
                   type=_in(float, math.ulp(0), math.inf,
                            "finite and positive"))
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
        cfg = read_config(args.command, config)
        return _COMMANDS[args.command](Run(args, config), cfg)
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
