"""Benchmark of the lcltflow command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Each workload is a fixed sequence of fresh-process commands (``python3 -m
lcltflow.cli ...`` with ``PYTHONPATH=src`` and ``--workers 2``, or one
library script), run one after another by a single client: a closed loop.
The sequence repeats while another repetition is expected to finish within
``--seconds``; it always runs at least once.  ``--seed`` is passed to every
command as its ``--seed``; the configs are fixed files under
``perfbench/configs``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions): ``wall_s``, ``cpu_s`` (user + sys of the
command processes, from ``os.wait4``), ``setup_s`` (a fresh process that
imports lcltflow and builds the workload's systems, median of up to three)
and ``peak_rss_mb``.  With ``--trace 1`` it runs the sequence once plain and
once under ``perfbench/traced.py`` and reports the per-layer metrics; the
traced outputs must checksum-equal the plain ones.  The line before the last
records nproc, the Python/numpy/scipy versions, the worker count and the
samples behind each median.

Every repetition is checked by the workload's correctness gates; ``failed``
and ``attempted`` in the result count gate evaluations, and the exit code is
1 when any gate failed.  ``--all`` runs every workload both ways and prints
each metric as ``workload metric value unit``.  ``--self-test`` shows that
each gate rejects a perturbed reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = os.path.join(HERE, "configs")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))

WORKERS = 2
PROBE_PATHS = 1 << 16          # one Monte Carlo block, one worker
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 8.0           # stop repeating set-up once this is spent
COMMAND_TIMEOUT_S = 120.0      # a hung command fails its gate, not the run


# ---------------------------------------------------------------------------
# references for the correctness gates
# ---------------------------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


REFERENCE = {
    "scan": _load_json(os.path.join(HERE, "expected_scan.json")),
    "scan_rtol": 1e-12,
    "classify_prefix": "Case D",
    "classify_suffix": "flow mixing: yes",
    "lambda0": 1.0,
    "lambda0_tol": 1e-12,
    "fourier_d1": math.comb(400, 200) / 2 ** 400,
    "fourier_d2": 0.5,
    "fourier_tol": 1e-10,
    "coin_m": 0.5,
    "coin_m_tol": 1e-6,
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def gate_verify(outdir, ref):
    """The CLI's own verdict: every verify.csv row PASS."""
    rows = _read_csv(os.path.join(outdir, "verify.csv"))
    return bool(rows) and all(r["status"] == "PASS" for r in rows)


def gate_scan(outdir, ref):
    rows = _read_csv(os.path.join(outdir, "scan.csv"))
    got = [(float(r["t"]), int(r["frac_cell"]), float(r["sqrt_t_times_p"]),
            float(r["pruned_mass"])) for r in rows]
    return len(got) == len(ref["scan"]) and all(
        g[0] == e[0] and g[1] == e[1]
        and _close(g[2], e[2], ref["scan_rtol"])
        and _close(g[3], e[3], ref["scan_rtol"])
        for g, e in zip(got, ref["scan"]))


def gate_classify(outdir, ref):
    with open(os.path.join(outdir, "stdout.txt")) as fh:
        line = fh.readline().strip()
    return (line.startswith(ref["classify_prefix"])
            and line.endswith(ref["classify_suffix"]))


def gate_lambda0(outdir, ref):
    rows = _read_csv(os.path.join(outdir, "eigen_curve.csv"))
    zero = [r for r in rows if float(r["t0"]) == 0 and float(r["t1"]) == 0]
    return len(zero) == 1 and all(
        abs(float(zero[0][k]) - ref["lambda0"]) <= ref["lambda0_tol"]
        for k in ("re_lambda", "abs_lambda"))


def _oracle_gate(key, tol_key):
    def gate(outdir, ref):
        got = _load_json(os.path.join(outdir, "oracles.json"))[key]
        return abs(got - ref[key]) <= ref[tol_key]
    return gate


GATES = {
    "verify": gate_verify,
    "scan": gate_scan,
    "classify": gate_classify,
    "lambda0": gate_lambda0,
    "fourier_d1": _oracle_gate("fourier_d1", "fourier_tol"),
    "fourier_d2": _oracle_gate("fourier_d2", "fourier_tol"),
    "coin_m": _oracle_gate("coin_m", "coin_m_tol"),
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One fresh-process step: an lcltflow subcommand on a config file, or
    (command "oracles") the library script perfbench/oracles.py."""
    command: str
    config: str | None = None
    gates: tuple = ()

    def config_path(self):
        return os.path.join(CONFIGS, self.config) if self.config else None

    def argv(self, outdir, seed, trace=None):
        """trace: None, or (spans file, run id) to run under traced.py."""
        if self.command == "oracles":
            target = os.path.join(HERE, "oracles.py")
            args = [os.path.join(outdir, "oracles.json")]
            plain = [target]
        else:
            target = "lcltflow"
            args = [self.command, self.config_path(), "--seed", str(seed),
                    "--workers", str(WORKERS), "--out", outdir]
            plain = ["-m", "lcltflow.cli"]
        if trace is None:
            return [sys.executable, *plain, *args]
        return [sys.executable, os.path.join(HERE, "traced.py"),
                trace[0], trace[1], target, *args]

    def output_digest(self, outdir):
        """Checksums of what the command wrote: the manifest's ``outputs``
        for CLI commands, the result file for the oracle script."""
        if self.command == "oracles":
            with open(os.path.join(outdir, "oracles.json"), "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        return _load_json(os.path.join(outdir, "manifest.json"))["outputs"]


@dataclass(frozen=True)
class Workload:
    commands: tuple
    probe_t: float | None = None   # flow time of the ns/crossing probe

    def system_configs(self):
        return [c.config_path() for c in self.commands
                if c.config and "system" in _load_json(c.config_path())]

    def command_paths(self):
        """Sum of the Monte Carlo sample sizes N the configs ask for."""
        return sum(int(_load_json(c.config_path()).get("N", 0))
                   for c in self.commands if c.config)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "lattice-verify": Workload(
        (Command("verify", "lattice_verify.json", ("verify",)),),
        probe_t=100.0),
    "markov-flow-verify": Workload(
        (Command("verify", "markov_flow_verify.json", ("verify",)),),
        probe_t=100.0),
    "pm-tower-verify": Workload(
        (Command("verify", "pm_tower_verify.json", ("verify",)),),
        probe_t=200.0),
    "exact-oracles": Workload(
        (Command("renewal", "renewal_scan.json", ("scan",)),
         Command("classify", "classify_61.json", ("classify",)),
         Command("classify", "classify_rank3.json", ("classify",)),
         Command("spectral", "spectral_markov.json", ("lambda0",)),
         Command("oracles", None, ("fourier_d1", "fourier_d2", "coin_m")))),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv, outdir):
    """Run argv to completion with stdout/stderr in outdir; rusage from
    os.wait4 covers exactly this child."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "stdout.txt"), "w") as out, \
            open(os.path.join(outdir, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                             cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)


@dataclass
class Repetition:
    wall: float
    procs: list
    dirs: list
    gates: list = field(default_factory=list)   # (name, ok)

    @property
    def cpu(self):
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs)


def run_sequence(wl, tag, seed, traced=False):
    """One pass over the workload's commands, timed as a whole, then its
    gates."""
    dirs = [os.path.join(WORK, tag, str(k)) for k in range(len(wl.commands))]
    procs = []
    t0 = time.perf_counter()
    for k, (cmd, d) in enumerate(zip(wl.commands, dirs)):
        trace = (os.path.join(d, "spans.json"), f"{tag}:{k}") \
            if traced else None
        procs.append(spawn(cmd.argv(d, seed, trace), d))
    rep = Repetition(time.perf_counter() - t0, procs, dirs)
    rep.gates = check(wl, rep)
    return rep


def _stderr_tail(outdir, lines=5):
    with open(os.path.join(outdir, "stderr.txt")) as fh:
        return "".join(fh.readlines()[-lines:])


def check(wl, rep):
    gates = []
    for cmd, proc, d in zip(wl.commands, rep.procs, rep.dirs):
        gates.append((f"{cmd.command}:exit0", proc.code == 0))
        if proc.code != 0:
            print(f"{cmd.command} exited {proc.code}:\n{_stderr_tail(d)}",
                  file=sys.stderr)
        for g in cmd.gates:
            try:
                ok = GATES[g](d, REFERENCE)
            except (OSError, KeyError, ValueError, IndexError):
                ok = False
            gates.append((f"{cmd.command}:{g}", ok))
    return gates


def setup_time(wl, tag, traced=False):
    d = os.path.join(WORK, tag)
    argv = [os.path.join(HERE, "probe.py"), "setup", *wl.system_configs()]
    if traced:
        argv = [os.path.join(HERE, "traced.py"),
                os.path.join(d, "spans.json"), tag, *argv]
    return spawn([sys.executable, *argv], d), d


def crossing_probe(wl, tag, seed):
    d = os.path.join(WORK, tag)
    out = os.path.join(d, "probe.json")
    (cfg,) = wl.system_configs()
    proc = spawn([sys.executable, os.path.join(HERE, "probe.py"),
                  "crossings", cfg, repr(wl.probe_t), str(PROBE_PATHS),
                  str(seed), out], d)
    if proc.code != 0:
        raise RuntimeError(f"crossing probe failed:\n{_stderr_tail(d)}")
    return _load_json(out)


def warm_up():
    """Compile the package's bytecode and fill the file cache once, so the
    first timed process does not pay for it."""
    spawn([sys.executable, "-c", "import lcltflow.cli"],
          os.path.join(WORK, "warmup"))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure(name, seed, seconds):
    """End-to-end metrics, tracing off."""
    wl = WORKLOADS[name]
    warm_up()
    setups, spent = [], 0.0
    while len(setups) < SETUP_SAMPLES and spent < SETUP_BUDGET_S:
        proc, d = setup_time(wl, f"setup{len(setups)}")
        if proc.code != 0:
            raise RuntimeError(f"set-up failed:\n{_stderr_tail(d)}")
        setups.append(proc.wall)
        spent += proc.wall
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(run_sequence(wl, f"rep{len(reps)}", seed))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(r.wall for r in reps) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(r.wall for r in reps), "s"),
        "cpu_s": (statistics.median(r.cpu for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
    }
    samples = {"wall_s": [r.wall for r in reps],
               "cpu_s": [r.cpu for r in reps],
               "setup_s": setups,
               "peak_rss_mb": [r.rss_mb for r in reps]}
    return metrics, [g for r in reps for g in r.gates], samples


def _digests(wl, dirs):
    try:
        return [c.output_digest(d) for c, d in zip(wl.commands, dirs)]
    except (OSError, KeyError, ValueError):
        return None


def measure_traced(name, seed):
    """Per-layer metrics from one traced pass, beside one plain pass at the
    same seed for the output checksums and the tracing overhead."""
    wl = WORKLOADS[name]
    warm_up()
    plain = run_sequence(wl, "plain", seed)
    traced = run_sequence(wl, "traced", seed, traced=True)
    digests = [_digests(wl, rep.dirs) for rep in (plain, traced)]
    same = digests[0] is not None and digests[0] == digests[1]
    gates = plain.gates + traced.gates + [("trace:outputs-unchanged", same)]

    spans = sp.load([os.path.join(d, "spans.json") for d in traced.dirs])
    mc_est = ["montecarlo.estimate_mlclt", "montecarlo.estimate_lclt",
              "montecarlo.estimate_correlation",
              "montecarlo.sample_flow_integrals"]
    mc_all = sp.layer_names("montecarlo")
    paths = sp.attr_sum(spans, mc_est, "N")
    mc_wall = sp.busy(spans, mc_all)
    scan = ["renewal_exact.counterexample_scan"]
    n_t = sp.attr_sum(spans, scan, "n_t")
    pruned = [float(r["pruned_mass"])
              for c, d, pr in zip(wl.commands, traced.dirs, traced.procs)
              if c.command == "renewal" and pr.code == 0
              for r in _read_csv(os.path.join(d, "scan.csv"))]

    setup_proc, setup_dir = setup_time(wl, "setup-traced", traced=True)
    setup_spans = sp.load([os.path.join(setup_dir, "spans.json")])
    load_share = sp.busy(setup_spans, ["systems.load_system"]) \
        / setup_proc.wall

    if wl.probe_t is not None:
        probe = crossing_probe(wl, "probe", seed)
        crossings = probe["crossings"]
        ns_per_crossing = probe["seconds"] * 1e9 / crossings
    else:
        crossings, ns_per_crossing = 0, 0.0

    fourier = ["spectral.fourier_lclt"]
    eig = ["spectral.eigen_curve_rows", "spectral.expansion_fit"]
    closure = sp.layer_names("groups")
    metrics = {
        "cli.self_s": (sp.self_time(spans, {"cli.main"}), "s"),
        "systems.load_s": (sp.busy(spans, ["systems.load_system"]), "s"),
        "systems.load_share_of_setup": (load_share, "ratio"),
        "montecarlo.estimate_s": (sp.busy(spans, mc_est), "s"),
        "montecarlo.sigma_s": (
            sp.busy(spans, ["montecarlo.estimate_sigma"]), "s"),
        "montecarlo.estimate_calls": (sp.calls(spans, mc_est), "count"),
        "montecarlo.paths": (paths, "count"),
        "montecarlo.useful_path_ratio": (
            wl.command_paths() / paths if paths else 0.0, "ratio"),
        "montecarlo.crossings": (crossings, "count"),
        "montecarlo.ns_per_crossing": (ns_per_crossing, "ns"),
        "montecarlo.parallel_eff": (
            sp.cpu(spans, mc_all) / (WORKERS * mc_wall) if mc_wall else 0.0,
            "ratio"),
        "renewal_exact.busy_s": (
            sp.busy(spans, sp.layer_names("renewal_exact")), "s"),
        "renewal_exact.s_per_t": (
            sp.busy(spans, scan) / n_t if n_t else 0.0, "s"),
        "renewal_exact.pruned_mass_max": (max(pruned, default=0.0), "prob"),
        "spectral.fourier_s": (sp.busy(spans, fourier), "s"),
        "spectral.fourier_calls": (sp.calls(spans, fourier), "count"),
        "spectral.eig_s": (sp.busy(spans, eig), "s"),
        "spectral.grid_points": (
            sp.attr_sum(spans, ["spectral.eigen_curve_rows"], "points"),
            "count"),
        "groups.closure_s": (sp.busy(spans, closure), "s"),
        "groups.closure_calls": (sp.calls(spans, closure), "count"),
        "predict.busy_s": (sp.busy(spans, sp.layer_names("predict")), "s"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    }
    samples = {"wall_s_plain": plain.wall, "wall_s_traced": traced.wall,
               "setup_s_traced": setup_proc.wall}
    return metrics, gates, samples


def environment(name, seed, seconds, trace):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "workers": WORKERS, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def result_line(metrics, gates):
    failed = sum(1 for _, ok in gates if not ok)
    return {"correct": failed == 0, "attempted": len(gates),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def report_failures(gates):
    for gname, ok in gates:
        if not ok:
            print(f"gate failed: {gname}", file=sys.stderr)


def run_one(name, seed, seconds, trace):
    if trace:
        metrics, gates, samples = measure_traced(name, seed)
    else:
        metrics, gates, samples = measure(name, seed, seconds)
    env = environment(name, seed, seconds, trace)
    print(json.dumps({"env": env, "samples": samples}))
    res = result_line(metrics, gates)
    report_failures(gates)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def run_all(seed, seconds):
    code = 0
    print(json.dumps({"env": environment("all", seed, seconds, None)}))
    for name in WORKLOADS:
        gates = []
        for trace in (False, True):
            if trace:
                metrics, g, _ = measure_traced(name, seed)
            else:
                metrics, g, _ = measure(name, seed, seconds)
                failed = sum(1 for _, ok in g if not ok)
                metrics["fail_ratio"] = (failed / len(g), "ratio")
            gates += g
            for k, (v, u) in metrics.items():
                print(f"{name:20s} {k:32s} {v:.6g} {u}")
        report_failures(gates)
        if not all(ok for _, ok in gates):
            code = 1
    return code


# ---------------------------------------------------------------------------
# self-test of the gates
# ---------------------------------------------------------------------------

PERTURBED = {
    "scan": {"scan": [r[:2] + [r[2] * (1 + 1e-9), r[3]]
                      for r in REFERENCE["scan"]]},
    "classify": {"classify_suffix": "flow mixing: no"},
    "lambda0": {"lambda0": 1.0 + 1e-11},
    "fourier_d1": {"fourier_d1": REFERENCE["fourier_d1"] + 1e-9},
    "fourier_d2": {"fourier_d2": REFERENCE["fourier_d2"] + 1e-9},
    "coin_m": {"coin_m": 0.5 + 1e-5},
}


def self_test():
    """Each gate passes on the true reference and fails on a perturbed
    one.  The verify gate's reference is the CLI's own tolerance, which is
    perturbed with --tolerance-scale; the checksum gate's reference is the
    plain run's manifest."""
    warm_up()
    ok = True

    def expect(what, got, want):
        nonlocal ok
        print(f"{'ok  ' if got == want else 'FAIL'} {what}: "
              f"gate {'passes' if got else 'fails'}")
        ok &= got == want

    wl = WORKLOADS["exact-oracles"]
    rep = run_sequence(wl, "selftest-exact", 0)
    for gname, passed in rep.gates:
        expect(f"{gname} on the reference", passed, True)
    for cmd, d in zip(wl.commands, rep.dirs):
        for g in cmd.gates:
            expect(f"{cmd.command}:{g} on a perturbed reference",
                   GATES[g](d, {**REFERENCE, **PERTURBED[g]}), False)

    verify = WORKLOADS["lattice-verify"].commands[0]
    for scale, want in (("1.0", True), ("0.001", False)):
        d = os.path.join(WORK, f"selftest-verify-{scale}")
        proc = spawn(verify.argv(d, 0) + ["--tolerance-scale", scale], d)
        expect(f"exit0 gate at --tolerance-scale {scale}", proc.code == 0,
               want)
        expect(f"verify gate at --tolerance-scale {scale}",
               gate_verify(d, REFERENCE), want)

    d = rep.dirs[0]
    manifest = _load_json(os.path.join(d, "manifest.json"))
    outputs = dict(manifest["outputs"])
    tampered = {k: hashlib.sha256(v.encode()).hexdigest()
                for k, v in outputs.items()}
    expect("checksum gate on an equal manifest",
           wl.commands[0].output_digest(d) == outputs, True)
    expect("checksum gate on a perturbed manifest",
           wl.commands[0].output_digest(d) == tampered, False)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lcltflow", "cli.py")):
        print("error: src/lcltflow not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 63
    # a terminated benchmark still stops its child and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return self_test()
        if args.all:
            return run_all(seed, args.seconds)
        return run_one(args.workload, seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
