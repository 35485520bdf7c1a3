"""Seeded, parallel Monte Carlo estimation of the LCLT/MLCLT quantities.

Reproducibility scheme: all randomness flows from one 64-bit seed through
counter-based Philox substreams, one per block of BLOCK_SIZE = 2^15 samples
(block b uses key seed + (b << 64)).  The block is the engine's one unit:
the substream, the task a worker takes and the slice that its arrays keep
in cache (256 KiB per float array).  The blocks run in W = min(workers,
blocks, usable CPUs) forked child processes, one included, worker w of W
taking blocks w, w + W, ..., and their results come back over pipes; blocks
are reduced in block order, so results are bit-identical for any worker
count.  The calling process never draws: it loads no ``numpy.random``, and
keeps glibc's default heap for the work that is not Monte Carlo.  Each
worker sets glibc's heap thresholds above one block's arrays, so the arrays
it frees are reused by the next pass instead of being handed back to the
kernel and faulted in again.  A worker loads ``numpy.random`` but not
OpenSSL: it marks ``_hashlib`` unavailable before it draws, so the
``hashlib`` that ``numpy.random`` imports (through ``secrets``) takes
CPython's built-in hashes, and a worker peaks no higher than the calling
process.  Only where the platform has no ``os.fork`` do the blocks run in
the calling process, which is then left as it is.

One vectorized path engine serves every system through the protocol of
``systems`` (``draw_start``, ``step``, ``tau``, ``phi``, ``leap``): each
sample carries its current cell, accumulated roof time and accumulated
section sum.  A ``leap`` pre-pass first adds the sums over the whole cells
that certainly fit in each budget (iid renewal cells many at a time as
count vectors, Markov edge paths many steps at a time, whole orbit passes
of the intermittent map), and the live samples then advance one crossing
per loop iteration until their time budget is spent.  While every sample
of the block is live, a pass works on the whole arrays through views; once
some have finished, it gathers and scatters the live ones by index.  Both
passes hand ``step`` the same states in the same order, so they make the
same draws.  Batch means step the base walk through the same protocol,
from ``draw_base``, one cell per pass.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySetWarning

BLOCK_SIZE = 1 << 15
_SIGMA_BLOCK = 512
_LATTICE_TOL = 1e-6


@dataclass
class EstimateWithCI:
    point: float
    std_error: float
    n_samples: int
    seed: int


def _block_rng(seed: int, b: int):
    return np.random.Generator(np.random.Philox(key=seed + (b << 64)))


def _build_tables(system):
    """Build the system's leap tables (``path_tables``, where it has them)
    here, before the blocks fork: every worker then inherits them instead
    of building its own, and this process keeps them for the next call."""
    build = getattr(system, "path_tables", None)
    if build is not None:
        build()


def _block_plan(N: int, block: int):
    n_blocks = (N + block - 1) // block
    return [(b, min(block, N - b * block)) for b in range(n_blocks)]


def _usable_cpus():
    """The CPUs this process may run on, or all of them where the platform
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(N, seed, workers, block_fn, block=BLOCK_SIZE):
    """Run block_fn(block_index, block_size, rng) for every block of at most
    ``block`` samples and return the results in block order.  Of W =
    min(workers, blocks, usable CPUs) forked child processes, worker w runs
    blocks w, w + W, ...; one worker runs them all.  Only without
    ``os.fork`` do the blocks run here.  Each block draws from its own
    substream, so the results are the same for every worker count."""
    if not 0 <= seed < 1 << 64:
        # block b's key seed + (b << 64) would be another seed's block
        raise ValueError(f"seed must lie in [0, 2**64), not {seed}")
    plan = _block_plan(N, block)
    W = min(workers or 1, len(plan), _usable_cpus())

    def run(items):
        return [block_fn(b, n, _block_rng(seed, b)) for b, n in items]

    if not hasattr(os, "fork"):
        return run(plan)
    out = [None] * len(plan)
    for w, res in enumerate(_in_children(run, [plan[w::W] for w in range(W)])):
        out[w::W] = res
    return out


def _in_children(fn, args):
    """[fn(a) for a in args], each call in its own forked child, which
    pickles its result, or the exception it raised, back over a pipe and
    leaves by ``os._exit``.  The first exception, in the order of args, is
    raised here.  Every child is reaped before this returns, and killed
    first if this is interrupted; where the kernel allows, a child is also
    killed when this process dies without cleaning up (SIGTERM, SIGKILL)."""
    parent = os.getpid()
    children = []
    try:
        for a in args:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, a, w, parent)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        outcomes = []
        for _, fh in children:
            data = fh.read()
            outcomes.append(pickle.loads(data) if data else
                            (False, RuntimeError("a worker process died")))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(fn, a, w, parent):
    """The body of one forked worker: never returns."""
    try:
        _die_with(parent)
        _keep_block_heap()
        # numpy.random imports secrets, hmac and hashlib, whose _hashlib
        # maps OpenSSL's libcrypto (+3.4 MB); nothing here hashes, so they
        # take CPython's built-in hashes, as on a build without OpenSSL
        sys.modules.setdefault("_hashlib", None)
        try:
            outcome = (True, fn(a))
        except BaseException as e:
            outcome = (False, e)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[0]:
                pickle.loads(data)
        except Exception as e:
            data = pickle.dumps((False, RuntimeError(
                f"worker outcome {outcome[1]!r} cannot be pickled: {e}")))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _die_with(parent):
    """Have the kernel send SIGKILL to this process when its parent exits
    (Linux prctl PR_SET_PDEATHSIG; elsewhere nothing), and leave at once if
    the parent is already gone."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)            # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


# glibc mallopt parameters, and the thresholds a worker sets: arrays of up
# to four float64 block arrays (1 MiB) come from the heap, not from mmap,
# and up to 64 of them (16 MiB, above one block's working set) stay mapped
# when freed
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 * 8 * BLOCK_SIZE
_TRIM_THRESHOLD = 64 * 8 * BLOCK_SIZE


def _keep_block_heap():
    """Have glibc keep the memory of one block's arrays for the next
    (mallopt; elsewhere nothing).  Left to its defaults, glibc hands a
    freed block array back to the kernel and the next pass faults it in
    again.  Every worker sets this, a lone one too; the calling process
    never does, as there it would also keep the memory of work that is not
    Monte Carlo, and raise its peak."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
            mallopt.restype = ctypes.c_int
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# ---------------------------------------------------------------------------
# path engine
# ---------------------------------------------------------------------------

def _flow(system, state, s, dt, rng):
    """Run flow points (state, s) forward for time dt.  Returns the end cells
    and heights, psi = the sum of phi over every cell left (the start cell
    included) and the crossing count.  ``system.leap`` takes the cells that
    certainly end within dt as sums in one pre-pass; the loop then crosses
    one cell per iteration until the budget is spent.  A pass indexes the
    whole block with a slice while every path is alive, so nothing is
    gathered or scattered, and the live paths by index after that.  The
    leap returns the current cells as a new array, so ``state`` is left as
    it is."""
    target = s + dt
    acc = system.tau(state)
    # acc stays tau over the cells entered, the current one included;
    # tau_sum is freed before the loop's first pass, which sets the block's
    # peak memory
    ncross, psi, tau_sum, cur = system.leap(state, target - acc, rng)
    acc += tau_sum
    del tau_sum
    alive = acc <= target
    while np.any(alive):
        # step sees the same paths in the same order either way
        idx = slice(None) if alive.all() else np.flatnonzero(alive)
        live = cur[idx]
        psi[idx] += system.phi(live)
        ncross[idx] += 1
        nxt = system.step(live, rng)
        cur[idx] = nxt
        acc[idx] += system.tau(nxt)
        alive[idx] = acc[idx] <= target[idx]
    s_end = target - (acc - system.tau(cur))
    return {"end": cur, "s_end": s_end, "psi": psi, "ncross": ncross}


def _paths(system, t, n, rng):
    """n flow paths of length t from the flow-invariant measure: a
    size-biased start cell, a uniform height, then the engine.  ``raw`` is
    the flow integral, with the two partial cells at the constant rate."""
    start = system.draw_start(n, rng)
    s0 = rng.random(n) * system.tau(start)
    blk = _flow(system, start, s0, t, rng)
    blk["start"], blk["s0"] = start, s0
    end = blk["end"]
    blk["raw"] = (blk["psi"] - s0 * system.phi(start) / system.tau(start)
                  + blk["s_end"] * system.phi(end) / system.tau(end))
    return blk


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _window_mask(block, window, t, W_of_t):
    kind = window[0]
    if kind == "flow":
        _, w, lo, hi = window
        val = block["raw"] - W_of_t - w * math.sqrt(t)
        return (val >= lo) & (val < hi)
    if kind == "section":
        _, a, l = window
        val = block["psi"] - W_of_t - l * float(a)
        return np.abs(val) <= _LATTICE_TOL
    raise ValueError(f"unknown window kind {window[0]!r}")


def _fiber_mask(s, fiber):
    """Heights s in the half-open fiber interval; None is the whole fiber."""
    if fiber is None:
        return np.ones(len(s), dtype=bool)
    return (s >= fiber[0]) & (s < fiber[1])


def _binomial_se(p, N):
    """Standard error of a proportion p over N samples, with p(1 - p)
    floored at its one-hit value so that zero hits keep a real error."""
    p1 = 1 / N
    return math.sqrt(max(p * (1 - p), p1 * (1 - p1)) / N)


def estimate_lclt(system, t, windows, N, seed, workers=1, *, I=None,
                  J=None, W_of_t=0.0):
    """sqrt(t) x empirical probability of {start height in I} and {value in
    the window} and {end height in J} at flow time t, one EstimateWithCI
    per window, all windows sharing the same sample paths.  Each window is
    ("flow", w, lo, hi) -- the flow integral minus W_of_t in
    w sqrt(t) + [lo, hi) -- or ("section", a, l) -- the H-corrected
    section value equal to W_of_t + l a.  I and J are fiber intervals
    (None = full fiber); EmptySetWarning is emitted when one is too thin."""
    def block_fn(b, n, rng):
        blk = _paths(system, t, n, rng)
        ma = _fiber_mask(blk["s0"], I)
        mb = _fiber_mask(blk["s_end"], J)
        both = ma & mb
        return ([int(np.sum(_window_mask(blk, w, t, W_of_t) & both))
                 for w in windows], int(ma.sum()), int(mb.sum()))

    _build_tables(system)
    res = _run_blocks(N, seed, workers, block_fn)
    if any(fiber is not None and sum(r[k] for r in res) < 10
           for k, fiber in ((1, I), (2, J))):
        warnings.warn("conditioning set has near-zero empirical mass",
                      EmptySetWarning)
    out = []
    for k in range(len(windows)):
        p = sum(r[0][k] for r in res) / N
        out.append(EstimateWithCI(math.sqrt(t) * p,
                                  math.sqrt(t) * _binomial_se(p, N), N, seed))
    return out


def estimate_mlclt(system, t, N, seed, *, window, I=None, J=None, W_of_t=0.0,
                   workers=1) -> EstimateWithCI:
    """``estimate_lclt`` for the one window ``window``."""
    return estimate_lclt(system, t, [window], N, seed, workers, I=I, J=J,
                         W_of_t=W_of_t)[0]


def sample_flow_integrals(system, t, N, seed, workers=1, field="raw"):
    """Raw flow integrals (or any other per-sample field) as one array in
    block order; intended for distribution-shape tests."""
    def block_fn(b, n, rng):
        return _paths(system, t, n, rng)[field]

    _build_tables(system)
    return np.concatenate(_run_blocks(N, seed, workers, block_fn))


# ---------------------------------------------------------------------------
# base sums for variance
# ---------------------------------------------------------------------------

def estimate_sigma(system, n_blocks=2000, block_len=1000, seed=0,
                   workers=1):
    """Batch-means covariance of block sums of (phi_check, tau)/sqrt(L),
    centered at the block means.  A block is the first L cells of a base
    walk from the base-invariant measure: ``draw_base``, then ``step``,
    with phi and tau added cell by cell.  Returns (2x2 covariance, 2x2
    standard errors)."""
    def block_fn(b, n_traj, rng):
        state = system.draw_base(n_traj, rng)
        phi, tau = system.phi(state), system.tau(state)
        for _ in range(block_len - 1):
            state = system.step(state, rng)
            phi += system.phi(state)
            tau += system.tau(state)
        return np.column_stack((phi, tau))

    # one rng block per chunk of trajectories
    all_sums = _run_blocks(n_blocks, seed, workers, block_fn,
                           block=_SIGMA_BLOCK)
    sums = np.vstack(all_sums) / math.sqrt(block_len)
    cov = np.cov(sums.T)
    se = np.abs(cov) * math.sqrt(2.0 / (len(sums) - 1)) \
        + np.sqrt(np.outer(np.diag(cov), np.diag(cov))
                  / (len(sums) - 1))
    return cov, se


def estimate_correlation(system, setA, setB, t_grid, N, seed, workers=1):
    """Correlation series mu(A and Phi^{-t} B) - mu(A) mu(B) over an
    increasing t grid, advancing each sample path incrementally."""
    t_grid = list(t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be increasing")

    def block_fn(b, n, rng):
        blk = _paths(system, t_grid[0], n, rng)
        a0 = setA(blk["start"], blk["s0"])
        rows = []
        for k in range(len(t_grid)):
            if k:
                blk = _flow(system, blk["end"], blk["s_end"],
                            t_grid[k] - t_grid[k - 1], rng)
            bmask = setB(blk["end"], blk["s_end"])
            rows.append((int((a0 & bmask).sum()), int(a0.sum()),
                         int(bmask.sum())))
        return rows

    _build_tables(system)
    res = _run_blocks(N, seed, workers, block_fn)
    series = []
    for k, t in enumerate(t_grid):
        ab = sum(r[k][0] for r in res) / N
        a = sum(r[k][1] for r in res) / N
        bb = sum(r[k][2] for r in res) / N
        series.append((t, ab - a * bb, _binomial_se(max(ab, a * bb), N)))
    return series
