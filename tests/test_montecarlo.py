"""Monte Carlo estimators: reproducibility, distributional checks, variance."""

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lcltflow import montecarlo
from lcltflow.errors import EmptySetWarning
from lcltflow.montecarlo import (BLOCK_SIZE, _block_rng, _flow, _paths,
                                 _run_blocks, estimate_lclt, estimate_mlclt,
                                 estimate_correlation, estimate_sigma,
                                 sample_flow_integrals)
from lcltflow.quadfield import QuadScalar
from lcltflow.systems import (MarkovShiftBase, PMTowerBase, RenewalBase,
                              load_system)

from flowref import (FlowPoint, WithoutLeap, flow_integrate, flow_masked,
                     sample_stationary, stepped_paths)

S2 = QuadScalar.sqrtD(2)
SQ2 = math.sqrt(2)


def osc_system():
    third = Fraction(1, 3)
    return RenewalBase([(-1, 2 - S2, third), (0, 1, third),
                        (1, S2 - 1, third)])


def coin_system():
    half = Fraction(1, 2)
    return RenewalBase([(-1, 1, half), (1, 1, half)])


def chain3_system():
    P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 1] = [1.0, SQ2]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[0, 0, 0] = 0.5
    f[1, 1, 0] = -0.5
    return MarkovShiftBase(P, f)


SYSTEMS = {"renewal": osc_system, "markov": chain3_system,
           "pm": lambda: PMTowerBase(0.25)}


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_bit_identical_across_worker_counts():
    sys = osc_system()
    a = sample_flow_integrals(sys, 20.0, 300_000, seed=5, workers=1)
    b = sample_flow_integrals(sys, 20.0, 300_000, seed=5, workers=4)
    assert np.array_equal(a, b)
    e1 = estimate_mlclt(sys, 30.0, 300_000, 5,
                        window=("flow", 0.0, -0.5, 0.5), workers=1)
    e3 = estimate_mlclt(sys, 30.0, 300_000, 5,
                        window=("flow", 0.0, -0.5, 0.5), workers=3)
    assert e1.point == e3.point and e1.std_error == e3.std_error


def _cpus(monkeypatch, n):
    """Have montecarlo see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_engine_bit_identical_across_worker_counts(kind, monkeypatch):
    _cpus(monkeypatch, 3)
    sys = SYSTEMS[kind]()
    # four path blocks, the last one short
    N = 3 * BLOCK_SIZE + 300
    a = sample_flow_integrals(sys, 6.0, N, seed=8, workers=1)
    for workers in (2, 3):
        b = sample_flow_integrals(sys, 6.0, N, seed=8, workers=workers)
        assert np.array_equal(a, b)
    # three 512-trajectory blocks of base sums
    s1 = estimate_sigma(sys, n_blocks=1100, block_len=50, seed=8, workers=1)
    s2 = estimate_sigma(sys, n_blocks=1100, block_len=50, seed=8, workers=3)
    assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_engine_matches_scalar_reference(kind):
    # the n = 1 scalar loop over system.step and the vectorised engine
    # consume the same random stream and land on the same cell
    sys = SYSTEMS[kind]()
    tau = lambda x: sys.tau(np.array([x]))[0]
    phi = lambda x: sys.phi(np.array([x]))[0]
    for seed in range(8):
        t = 3.0 + 2.5 * seed
        start = sample_stationary(sys, np.random.default_rng(seed))
        blk = _paths(sys, 0.0, 1, np.random.default_rng(seed))
        assert blk["start"][0] == start.state and blk["s0"][0] == start.s
        val, end, ncross = flow_integrate(sys, start, t,
                                          np.random.default_rng(100 + seed))
        eng = _flow(sys, np.array([start.state]), np.array([start.s]), t,
                    np.random.default_rng(100 + seed))
        assert eng["end"][0] == end.state
        assert eng["ncross"][0] == ncross
        assert eng["s_end"][0] == pytest.approx(end.s, abs=1e-12)
        raw = (eng["psi"][0] - start.s * phi(start.state) / tau(start.state)
               + eng["s_end"][0] * phi(end.state) / tau(end.state))
        assert raw == pytest.approx(val, abs=1e-12)
    if kind == "pm":
        # the PM step is deterministic, so each path of a 64-path block,
        # advanced by whole-block passes, is the scalar integral from its
        # own start
        blk = _paths(sys, 7.5, 64, np.random.default_rng(3))
        for k in range(64):
            start = FlowPoint(blk["start"][k], blk["s0"][k])
            val, end, ncross = flow_integrate(sys, start, 7.5)
            assert blk["end"][k] == end.state
            assert blk["ncross"][k] == ncross
            assert blk["s_end"][k] == pytest.approx(end.s, abs=1e-12)
            assert blk["raw"][k] == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(SYSTEMS) + ["pm-affine"])
def test_engine_matches_the_masked_loop(kind):
    # whole-block passes against a pass gathered and scattered every time:
    # budgets from 4 (past every roof, so the first pass takes the whole
    # block) to 16 end paths on different passes, so the masked tail runs
    sys = PMTowerBase(0.25, "affine") if kind == "pm-affine" \
        else SYSTEMS[kind]()
    n = 2000
    rng = np.random.default_rng(21)
    state = sys.draw_start(n, rng)
    s = rng.random(n) * sys.tau(state)
    dt = np.linspace(4.0, 16.0, n)
    assert np.all(sys.tau(state) <= s + dt)
    got = _flow(sys, state, s, dt, np.random.default_rng(22))
    ref = flow_masked(sys, state, s, dt, np.random.default_rng(22))
    assert len(np.unique(ref["ncross"])) > 5
    for field in ("end", "s_end", "psi", "ncross"):
        assert np.array_equal(got[field], ref[field]), field


def _two_sample_chi2_p(a, b):
    """p-value of the chi-square test that two samples of integer values
    share one law, with sparse values pooled into classes of >= 20."""
    vals, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    counts = np.stack([np.bincount(inv[:len(a)], minlength=len(vals)),
                       np.bincount(inv[len(a):], minlength=len(vals))])
    classes, run = [], np.zeros(2)
    for col in counts.T:
        run = run + col
        if run.sum() >= 20:
            classes.append(run)
            run = np.zeros(2)
    classes[-1] = classes[-1] + run
    return stats.chi2_contingency(np.array(classes).T)[1]


def zeros_system():
    # zero-probability atoms, one of them the longest
    half = Fraction(1, 2)
    return RenewalBase([(0, 5, 0), (-1, 1, half), (1, 2, half), (3, 7, 0)])


def test_renewal_leap_keeps_the_law_of_the_crossing_loop():
    # section 6.1, the coin and a system with zero-probability atoms at
    # t = 100: crossing counts and section sums of the engine with the
    # type-class leap against the same system stepped one crossing at a time
    # about 100 / nu_tau crossings per path
    for make, crossings in ((osc_system, 140), (coin_system, 99),
                            (zeros_system, 60)):
        sys = make()
        n = 1 << 16
        leapt = _paths(sys, 100.0, n, np.random.default_rng(31))
        stepped = stepped_paths(sys, 100.0, n, np.random.default_rng(32))
        assert leapt["ncross"].mean() > crossings
        assert np.all((leapt["s_end"] >= 0)
                      & (leapt["s_end"] < sys.tau(leapt["end"])))
        # the leap took most crossings: the loop is left with its last cells
        count = sys.leap(leapt["start"], leapt["s0"] + 100.0
                         - sys.tau(leapt["start"]),
                         np.random.default_rng(33))[0]
        assert count.mean() > 0.9 * leapt["ncross"].mean()
        for field in ("ncross", "psi"):
            a, b = (np.rint(blk[field]).astype(np.int64)
                    for blk in (leapt, stepped))
            assert _two_sample_chi2_p(a, b) > 0.01, (make.__name__, field)


def bench_chain():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "configs", "markov_flow_verify.json")
    with open(path) as fh:
        return load_system(json.load(fh)["system"])


def skewed_chain():
    f = np.ones((2, 2, 2))
    f[:, :, 0] = [[1, -1], [2, -1]]
    f[:, :, 1] = [[1, SQ2], [0.5, 2]]
    return MarkovShiftBase([[0.99, 0.01], [0.5, 0.5]], f)


def coin_chain():
    f = np.ones((2, 2, 2))
    f[:, 0, 0] = -1
    return MarkovShiftBase([[0.5, 0.5], [0.5, 0.5]], f)


MARKOV_CHAINS = {"bench": bench_chain, "skewed": skewed_chain,
                 "coin": coin_chain, "chain3": chain3_system}


@pytest.mark.parametrize("kind", ["bench", "skewed", "coin"])
def test_markov_leap_keeps_the_law_of_the_crossing_loop(kind):
    # crossing counts and section sums at t = 100 of the engine with the
    # path-table leap against the same chain stepped one crossing at a time
    sys = MARKOV_CHAINS[kind]()
    n = 1 << 16
    leapt = _paths(sys, 100.0, n, np.random.default_rng(41))
    stepped = stepped_paths(sys, 100.0, n, np.random.default_rng(42))
    assert np.all((leapt["s_end"] >= 0)
                  & (leapt["s_end"] < sys.tau(leapt["end"])))
    # the leap took most crossings: the loop is left with its last cells
    count = sys.leap(leapt["start"], leapt["s0"] + 100.0
                     - sys.tau(leapt["start"]), np.random.default_rng(43))[0]
    assert count.mean() > 0.8 * leapt["ncross"].mean()
    for field in ("ncross", "psi"):
        a, b = (np.rint(blk[field]).astype(np.int64)
                for blk in (leapt, stepped))
        assert _two_sample_chi2_p(a, b) > 0.01, field


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_leap_and_engine_leave_the_start_states(kind):
    # every leap returns its current cells as a new array, so the engine
    # needs no copy and a block's start states stay as drawn
    sys = SYSTEMS[kind]()
    rng = np.random.default_rng(57)
    states = sys.draw_start(1000, rng)
    kept = states.copy()
    after = sys.leap(states, np.full(1000, 20.0), rng)[3]
    assert after is not states and np.array_equal(states, kept)
    _flow(sys, states, np.zeros(1000), 20.0, rng)
    assert np.array_equal(states, kept)


PATH_FIELDS = ("end", "psi", "ncross", "s_end", "raw")


@pytest.mark.parametrize("roof", ["unit", "affine"])
def test_pm_leap_paths_equal_the_stepped_paths(roof):
    # the orbit passes make the float operations of the crossing loop in
    # its order, and the map draws nothing: on the unit roof every field
    # is the stepped engine's to the last bit.  On the affine roof the
    # leap's tau sum is the roofs of the cells left, less the first, plus
    # the last, so the end heights may move in their last bits
    sys = PMTowerBase(0.25, roof)
    n = 1 << 16
    leapt = _paths(sys, 200.0, n, np.random.default_rng(61))
    stepped = stepped_paths(sys, 200.0, n, np.random.default_rng(61))
    assert leapt["ncross"].min() >= 200 / sys._roof_max - 1
    exact = PATH_FIELDS if roof == "unit" else ("end", "ncross", "psi")
    for field in PATH_FIELDS:
        if field in exact:
            assert np.array_equal(leapt[field], stepped[field]), field
        else:
            assert np.max(np.abs(leapt[field] - stepped[field])) <= 1e-12


@pytest.mark.parametrize("roof", ["unit", "affine"])
def test_pm_budget_below_one_roof_leaps_nothing(roof):
    # t < 1: no budget reaches past the largest roof, so the leap takes no
    # cell and keeps its states, and the loop alone crosses
    sys = PMTowerBase(0.25, roof)
    n = 1 << 12
    states = sys.draw_start(n, np.random.default_rng(63))
    budget = np.linspace(-1.0, sys._roof_max, n, endpoint=False)
    count, phi_sum, tau_sum, after = sys.leap(states, budget, None)
    assert not count.any() and not phi_sum.any() and not tau_sum.any()
    assert np.array_equal(after, states)
    leapt = _paths(sys, 0.5, n, np.random.default_rng(64))
    stepped = stepped_paths(sys, 0.5, n, np.random.default_rng(64))
    assert leapt["ncross"].max() == 1
    for field in PATH_FIELDS:
        assert np.array_equal(leapt[field], stepped[field]), field


def test_pm_correlation_equals_the_stepped_series():
    # after the first time each path's budget starts from its own end
    # height, so the leaps differ path by path and the orbit passes finish
    # by index; the series is the stepped one's, count for count
    sys = PMTowerBase(0.25)
    N, seed, grid = 5000, 66, [2.0, 9.3, 17.1]

    def setA(x, s):
        return x > 0.5

    def setB(x, s):
        return (x < 0.3) & (s < 0.5)

    got = estimate_correlation(sys, setA, setB, grid, N, seed)
    rng = _block_rng(seed, 0)
    blk = stepped_paths(sys, grid[0], N, rng)
    a0 = setA(blk["start"], blk["s0"])
    ref = []
    for k, t in enumerate(grid):
        if k:
            budget = blk["s_end"] + t - grid[k - 1] - sys.tau(blk["end"])
            # budgets span more than one cell: the passes finish by index
            assert len(np.unique(np.floor(budget))) > 1
            blk = flow_masked(WithoutLeap(sys), blk["end"], blk["s_end"],
                              t - grid[k - 1], rng)
        b = setB(blk["end"], blk["s_end"])
        ab, a, bb = ((a0 & b).sum() / N, a0.sum() / N, b.sum() / N)
        ref.append((t, ab - a * bb))
    assert [g[:2] for g in got] == ref


class BlockFailure(Exception):
    pass


def test_worker_exceptions_reach_the_caller():
    # blocks run in forked children: results come back in block order, an
    # exception raised in a block comes back with its type, and no child
    # process is left behind either way
    def block_fn(b, n, rng):
        return b, n, rng.random()

    ref = _run_blocks(20, 9, 1, block_fn, block=3)
    assert [r[:2] for r in ref] == [(b, 3) for b in range(6)] + [(6, 2)]
    for workers in (2, 3, 8):
        assert _run_blocks(20, 9, workers, block_fn, block=3) == ref

    def failing(b, n, rng):
        if b == 3:
            raise BlockFailure(f"block {b}")
        return b

    with pytest.raises(BlockFailure, match="block 3"):
        _run_blocks(20, 9, 2, failing, block=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    # 64 workers over 10 blocks: as many as the CPUs this process may use,
    # else as the CPU count where the platform has no affinity.  The
    # children's shares run here, so nothing forks.
    shares = []

    def in_children(fn, args):
        shares.append([[b for b, _ in a] for a in args])
        return [fn(a) for a in args]

    monkeypatch.setattr(montecarlo, "_in_children", in_children)
    ref = _run_blocks(20, 1, 1, lambda b, n, rng: rng.random(), block=2)
    _cpus(monkeypatch, 3)
    assert _run_blocks(20, 1, 64, lambda b, n, rng: rng.random(),
                       block=2) == ref
    assert shares[1:] == [[[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _run_blocks(20, 1, 64, lambda b, n, rng: b, block=2)
    assert len(shares[2]) == 4
    # one usable CPU, like one worker asked for, runs every block in one
    # worker
    _cpus(monkeypatch, 1)
    assert _run_blocks(20, 1, 64, lambda b, n, rng: b, block=2) \
        == list(range(10))
    assert shares[0] == shares[3] == [list(range(10))]


def test_200000_paths_run_as_seven_blocks_on_two_workers(monkeypatch):
    _cpus(monkeypatch, 2)
    shares = []
    in_children = montecarlo._in_children

    def spy(fn, args):
        shares.append([[(b, n) for b, n in a] for a in args])
        return in_children(fn, args)

    monkeypatch.setattr(montecarlo, "_in_children", spy)
    win = [("flow", 0.0, -0.5, 0.5)]
    e2 = estimate_lclt(osc_system(), 6.0, win, 200_000, 3, workers=2)
    last = (6, 200_000 - 6 * BLOCK_SIZE)
    assert shares == [[[(b, BLOCK_SIZE) for b in (0, 2, 4)] + [last],
                       [(b, BLOCK_SIZE) for b in (1, 3, 5)]]]
    e1 = estimate_lclt(osc_system(), 6.0, win, 200_000, 3, workers=1)
    assert (e1[0].point, e1[0].std_error) == (e2[0].point, e2[0].std_error)


def test_only_workers_keep_their_block_heap(monkeypatch, tmp_path):
    # the heap thresholds are set in each forked worker, never here; one
    # worker runs every block of a one-worker call and keeps the heap too
    _cpus(monkeypatch, 2)
    keep = montecarlo._keep_block_heap

    def spy():
        (tmp_path / str(os.getpid())).touch()
        keep()

    monkeypatch.setattr(montecarlo, "_keep_block_heap", spy)
    for workers in (2, 1):
        for p in tmp_path.iterdir():
            p.unlink()
        pids = _run_blocks(4, 1, workers, lambda b, n, rng: os.getpid(),
                           block=2)
        assert len(set(pids)) == workers
        assert sorted(int(p.name) for p in tmp_path.iterdir()) \
            == sorted(set(pids))
        assert os.getpid() not in pids


def _fresh_env():
    """This process's environment with this lcltflow on the path, for a
    fresh interpreter."""
    src = os.path.join(os.path.dirname(montecarlo.__file__), os.pardir)
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


@pytest.mark.skipif(not hasattr(os, "fork")
                    or importlib.util.find_spec("_hashlib") is None,
                    reason="needs fork and an OpenSSL build")
def test_workers_draw_without_openssl_and_the_caller_keeps_it():
    # a fresh interpreter that has imported only montecarlo, since this
    # one may hold _hashlib already and a fork would inherit it: every
    # worker loads numpy.random but not OpenSSL's _hashlib, and the
    # caller's hashlib still loads it
    seed = 11
    code = textwrap.dedent(f"""
        import json, os, sys
        from lcltflow.montecarlo import _run_blocks

        os.sched_getaffinity = lambda pid: {{0, 1}}

        def block_fn(b, n, rng):
            return (b, os.getpid(), rng.random(n).tolist(),
                    [m for m in ("numpy.random", "_hashlib")
                     if sys.modules.get(m) is not None])

        runs = {{W: _run_blocks(4, {seed}, W, block_fn, block=2)
                for W in (1, 2)}}
        marked = "_hashlib" in sys.modules
        import hashlib
        print(json.dumps({{"pid": os.getpid(), "runs": runs,
                          "marked": marked,
                          "openssl": sys.modules.get("_hashlib") is not None}}))
    """)
    out = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), check=True,
        capture_output=True, text=True).stdout)
    assert not out["marked"] and out["openssl"]
    for W, blocks in out["runs"].items():
        assert [b for b, *_ in blocks] == [0, 1]
        pids = {pid for _, pid, _, _ in blocks}
        assert len(pids) == int(W) and out["pid"] not in pids
        for b, _, draws, loaded in blocks:
            assert loaded == ["numpy.random"]
            rng = np.random.Generator(np.random.Philox(key=seed + (b << 64)))
            assert draws == rng.random(2).tolist()


def test_blocks_run_here_without_fork_leave_the_modules_as_they_were(
        monkeypatch):
    # without fork the blocks draw in this process, which keeps whatever
    # it had of _hashlib: nothing is marked unavailable here
    monkeypatch.delattr(os, "fork")
    before = dict(sys.modules)
    res = _run_blocks(4, 1, 2, lambda b, n, rng: (
        os.getpid(), sys.modules.get("_hashlib", "absent")), block=2)
    assert res == [(os.getpid(), before.get("_hashlib", "absent"))] * 2
    assert sys.modules == before


def _running(pid):
    """Whether pid is a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux's")
def test_workers_die_with_a_killed_parent(tmp_path):
    # a command ended by SIGTERM cleans nothing up: its workers, each
    # asleep in a block, must go with it
    code = textwrap.dedent(f"""
        import os, time
        from lcltflow.montecarlo import _run_blocks

        def block_fn(b, n, rng):
            open(os.path.join({str(tmp_path)!r}, str(os.getpid())),
                 "w").close()
            time.sleep(60)

        _run_blocks(4, 1, 2, block_fn, block=2)
    """)
    proc = subprocess.Popen([sys.executable, "-c", code], env=_fresh_env())
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 2:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        pids = [int(p) for p in os.listdir(tmp_path)]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, pids
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
def test_seeds_outside_64_bits_are_rejected(seed):
    # block b's key is seed + (b << 64): seed 2**64 + 5 would draw seed 5's
    # block 1 as its block 0
    with pytest.raises(ValueError, match="seed"):
        sample_flow_integrals(osc_system(), 10.0, 10, seed=seed)


def test_seed_changes_samples():
    sys = osc_system()
    a = sample_flow_integrals(sys, 10.0, 10_000, seed=1)
    b = sample_flow_integrals(sys, 10.0, 10_000, seed=2)
    assert not np.array_equal(a, b)


def test_lclt_marginalizes_mlclt():
    # with full conditioning sets the two estimators share the code path and
    # must agree exactly, not just statistically
    sys = osc_system()
    wins = [("flow", 0.0, -0.5, 0.5), ("flow", 1.0, -0.5, 0.5),
            ("flow", -1.0, -0.5, 0.5), ("section", 1, 0)]
    hist = estimate_lclt(sys, 25.0, wins, 200_000, seed=9)
    for win, est in zip(wins, hist):
        joint = estimate_mlclt(sys, 25.0, 200_000, 9, window=win)
        assert (est.point, est.std_error) == (joint.point, joint.std_error)


# ---------------------------------------------------------------------------
# distributional oracles
# ---------------------------------------------------------------------------

def test_coin_section_value_is_binomial():
    # unit roof: by time t = 9 every path has counted exactly 9 coin cells,
    # so the section value is a sum of 9 independent +/-1 flips
    sys = coin_system()
    N = 1 << 18
    got = estimate_mlclt(sys, 9.0, N, 17, window=("section", 1, 1))
    p = got.point / 3.0
    se = got.std_error / 3.0
    assert abs(p - 126 / 512) < 5 * se
    got2 = estimate_mlclt(sys, 9.0, N, 17, window=("section", 1, 3))
    p2 = got2.point / 3.0
    se2 = got2.std_error / 3.0
    assert abs(p2 - 84 / 512) < 5 * se2
    # even section values are unreachable in 9 cells
    got3 = estimate_mlclt(sys, 9.0, N, 17, window=("section", 2, 0))
    assert got3.point == 0.0
    # zero hits keep the error of one hit: sqrt(t) sqrt(p (1 - p) / N) at
    # p = 1 / N
    assert got3.std_error == pytest.approx(3.0 * math.sqrt(1 - 1 / N) / N,
                                           rel=1e-12)


def test_flow_window_mean_matches_gaussian():
    # coin flow integral over t = 400 is approximately N(0, t); its values
    # concentrate on a period-2 pattern, so a window spanning one full
    # period carries mass (period) x (central density): sqrt(t) P -> 2 g(0)
    sys = coin_system()
    est = estimate_mlclt(sys, 400.0, 1 << 19, 3,
                         window=("flow", 0.0, -1.0, 1.0))
    g0 = 1 / math.sqrt(2 * math.pi)
    assert abs(est.point - 2 * g0) < 3 * est.std_error + 0.05 * 2 * g0


def test_estimate_sigma_matches_exact_iid_covariance():
    sys = osc_system()
    cov, se = estimate_sigma(sys, n_blocks=800, block_len=500, seed=11)
    var_x = 2 / 3
    var_y = (26 - 18 * SQ2) / 9
    cov_xy = (2 * SQ2 - 3) / 3
    assert abs(cov[0, 0] - var_x) < 4 * se[0, 0]
    assert abs(cov[1, 1] - var_y) < 4 * se[1, 1]
    assert abs(cov[0, 1] - cov_xy) < 4 * se[0, 1]
    # flow variance of the oscillating system is exactly 1
    assert cov[0, 0] / sys.nu_tau == pytest.approx(
        1.0, abs=6 * se[0, 0] / sys.nu_tau)


def criterion4_system():
    # durations in Q(sqrt 2) and Q(sqrt 3): sigma() takes the float path
    third = Fraction(1, 3)
    return RenewalBase([(-1, 1, third), (0, S2, third),
                        (1, QuadScalar.sqrtD(3), third)])


@pytest.mark.parametrize("make", [osc_system, criterion4_system, bench_chain],
                         ids=["osc", "criterion4", "bench"])
def test_estimate_sigma_is_within_3_se_of_sigma(make):
    # batch means at the CLI's former sizes against the closed form
    sys = make()
    cov, se = estimate_sigma(sys, n_blocks=2000, block_len=1000, seed=19)
    assert np.all(np.abs(cov - sys.sigma()) <= 3 * se)


@pytest.mark.parametrize("make", [osc_system, bench_chain],
                         ids=["renewal", "markov"])
def test_estimators_build_path_tables_before_forking(make):
    # two path blocks on two workers: the tables are built here, once, and
    # the workers inherit them
    N = BLOCK_SIZE + 300
    win = [("flow", 0.0, -0.5, 0.5)]
    two = make()
    assert two._tables is None
    e2 = estimate_lclt(two, 6.0, win, N, 8, workers=2)
    assert two._tables is not None
    e1 = estimate_lclt(make(), 6.0, win, N, 8, workers=1)
    assert (e1[0].point, e1[0].std_error) == (e2[0].point, e2[0].std_error)
    # batch means step the base walk, which needs no tables: none is
    # built here or in a worker
    sums = make()

    def no_tables():
        raise AssertionError("batch means asked for path tables")

    sums.path_tables = no_tables
    estimate_sigma(sums, n_blocks=1100, block_len=50, seed=8, workers=2)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def _band(states, s):
    return np.mod(s, 1.0) < 0.3


def test_correlation_periodic_vs_mixing():
    # integer-roof coin: the flow is a circle extension, so band sets stay
    # fully correlated at integer times; the sqrt2 system decorrelates
    rows_p = estimate_correlation(coin_system(), _band, _band, [6.0],
                                  100_000, seed=4)
    rows_m = estimate_correlation(osc_system(), _band, _band, [6.0],
                                  100_000, seed=4)
    corr_p = rows_p[0][1]
    corr_m = rows_m[0][1]
    assert corr_p == pytest.approx(0.3 - 0.09, abs=0.01)
    assert abs(corr_m) < 0.03
    assert corr_p > 5 * abs(corr_m)


def test_correlation_requires_increasing_grid():
    with pytest.raises(ValueError):
        estimate_correlation(coin_system(), _band, _band, [2.0, 1.0],
                             1000, seed=0)


# ---------------------------------------------------------------------------
# edge behavior
# ---------------------------------------------------------------------------

def test_lclt_without_fibers_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", EmptySetWarning)
        estimate_lclt(osc_system(), 5.0, [("flow", 0.0, -1, 1)], 5, seed=0)


def test_empty_conditioning_set_warns():
    sys = osc_system()
    with pytest.warns(EmptySetWarning):
        estimate_mlclt(sys, 5.0, 2000, 0, window=("flow", 0.0, -1, 1),
                       I=(0.0, 1e-9))
