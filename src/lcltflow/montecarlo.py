"""Seeded, parallel Monte Carlo estimation of the LCLT/MLCLT quantities.

Reproducibility scheme: all randomness flows from one 64-bit seed through
counter-based Philox substreams, one per fixed-size sample block (block b
uses key seed + (b << 64)).  Blocks are reduced in block order, so results
are bit-identical for any worker count.

One vectorized path engine serves every system through the protocol of
``systems`` (``draw_start``, ``draw_base``, ``step``, ``tau``, ``phi``): each
sample carries its current cell, accumulated roof time and accumulated
section sum, and all live samples advance one crossing per loop iteration
until their time budget is spent.  A system with the optional ``leap``
(iid renewal) first adds, in one pre-pass, the sums over the whole cells
that certainly fit in each budget, so the loop finishes only the last few
crossings.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptySetWarning

BLOCK_SIZE = 1 << 18
_SIGMA_BLOCK = 512
_LATTICE_TOL = 1e-6


@dataclass
class HistogramSpec:
    """Windows for LCLT estimation at flow time t: each window is either
    ("flow", w, lo, hi) — integral in w sqrt(t) + [lo, hi) — or
    ("section", a, l) — H-corrected section value equal to l*a."""
    t: float
    windows: list


@dataclass
class EstimateWithCI:
    point: float
    std_error: float
    n_samples: int
    seed: int


def _block_rng(seed: int, b: int):
    return np.random.Generator(np.random.Philox(key=seed + (b << 64)))


def _block_plan(N: int, block: int):
    n_blocks = (N + block - 1) // block
    return [(b, min(block, N - b * block)) for b in range(n_blocks)]


def _run_blocks(N, seed, workers, block_fn, block=BLOCK_SIZE):
    """Run block_fn(block_index, block_size, rng) for every block of at most
    ``block`` samples and return the results in block order regardless of
    worker count."""
    plan = _block_plan(N, block)

    def job(item):
        b, n = item
        return block_fn(b, n, _block_rng(seed, b))

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(job, plan))
    return [job(item) for item in plan]


# ---------------------------------------------------------------------------
# path engine
# ---------------------------------------------------------------------------

def _flow(system, state, s, dt, rng):
    """Run flow points (state, s) forward for time dt.  Returns the end cells
    and heights, psi = the sum of phi over every cell left (the start cell
    included) and the crossing count.  With ``system.leap`` the cells after
    the start cell that certainly end within dt are taken as sums in one
    pre-pass; the loop then crosses one cell per iteration: the start cell,
    and fresh cells until the budget is spent."""
    cur = state.copy()
    target = s + dt
    acc = system.tau(cur)
    leap = getattr(system, "leap", None)
    if leap is None:
        psi = np.zeros(len(cur))
        ncross = np.zeros(len(cur), dtype=np.int64)
    else:
        # whole cells after the current one, then the loop below leaves the
        # current cell and draws the next one fresh; tau_sum is freed before
        # the loop's first pass, which sets the block's peak memory
        ncross, psi, tau_sum = leap(target - acc, rng)
        acc += tau_sum
        del tau_sum
    alive = acc <= target
    while np.any(alive):
        idx = np.flatnonzero(alive)
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


def _base_walk(system, n, rng):
    """Yield (phi, tau) along n parallel base trajectories started from the
    base-invariant measure, one base step per item."""
    state = system.draw_base(n, rng)
    while True:
        yield system.phi(state), system.tau(state)
        state = system.step(state, rng)


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


def _window_estimates(system, t, windows, N, seed, workers, I=None, J=None,
                      W_of_t=0.0):
    """sqrt(t) x empirical probability of {start height in I} and {value in
    the window} and {end height in J}, one EstimateWithCI per window, all
    windows sharing the same sample paths.  Emits EmptySetWarning when a
    given fiber interval is too thin."""
    def block_fn(b, n, rng):
        blk = _paths(system, t, n, rng)
        ma = _fiber_mask(blk["s0"], I)
        mb = _fiber_mask(blk["s_end"], J)
        both = ma & mb
        return ([int(np.sum(_window_mask(blk, w, t, W_of_t) & both))
                 for w in windows], int(ma.sum()), int(mb.sum()))

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
    """sqrt(t) x empirical probability of {start in I} and {value criterion}
    and {end in J}: ``window`` is a ("flow", w, lo, hi) or ("section", a, l)
    value criterion applied to the H-corrected integral; I and J are fiber
    intervals (None = full fiber)."""
    return _window_estimates(system, t, [window], N, seed, workers, I, J,
                             W_of_t)[0]


def estimate_lclt(system, spec: HistogramSpec, N, seed, workers=1):
    """sqrt(t)-scaled window masses of the flow integral from stationary
    starts, one EstimateWithCI per window."""
    return _window_estimates(system, spec.t, spec.windows, N, seed, workers)


def sample_flow_integrals(system, t, N, seed, workers=1, field="raw"):
    """Raw flow integrals (or any other per-sample field) as one array in
    block order; intended for distribution-shape tests."""
    def block_fn(b, n, rng):
        return _paths(system, t, n, rng)[field]

    return np.concatenate(_run_blocks(N, seed, workers, block_fn))


# ---------------------------------------------------------------------------
# base sums for variance and moderate deviations
# ---------------------------------------------------------------------------

def estimate_sigma(system, n_blocks=2000, block_len=1000, seed=0,
                   workers=1):
    """Batch-means covariance of block sums of (phi_check, tau)/sqrt(L),
    centered at the block means.  Returns (2x2 covariance, 2x2 standard
    errors)."""
    def block_fn(b, n_traj, rng):
        walk = _base_walk(system, n_traj, rng)
        sums = np.zeros((n_traj, 2))
        for _ in range(block_len):
            phi, tau = next(walk)
            sums[:, 0] += phi
            sums[:, 1] += tau
        return sums

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

    res = _run_blocks(N, seed, workers, block_fn)
    series = []
    for k, t in enumerate(t_grid):
        ab = sum(r[k][0] for r in res) / N
        a = sum(r[k][1] for r in res) / N
        bb = sum(r[k][2] for r in res) / N
        series.append((t, ab - a * bb, _binomial_se(max(ab, a * bb), N)))
    return series


def moderate_dev_diagnostic(system, w_list, K_list, R=1.0, seed=0,
                            N=200_000, workers=1):
    """Empirical moderate-deviation table: for each w, the scaled sum
    sqrt(w) * sum_{n : |n - w| > K sqrt(w)} P(S_f(n) in B(w nu(f), R))
    over the K values, plus the truncation point.

    f = (phi_check, tau); the ball is Euclidean in R^2.  The table is
    non-increasing in K by construction (the index sets are nested).
    """
    nu = np.array([getattr(system, "nu_phi", 0.0), system.nu_tau])
    results = {}
    for w in w_list:
        center = w * nu
        n_cap = int(10 * w / system.nu_tau)

        def block_fn(b, n, rng):
            walk = _base_walk(system, n, rng)
            S = np.zeros((n, 2))
            counts = np.zeros(len(K_list))
            step = 0
            while step < n_cap:
                step += 1
                phi, tau = next(walk)
                S[:, 0] += phi
                S[:, 1] += tau
                # ball unreachable once the roof sum is far past the center
                if float(np.min(S[:, 1])) > center[1] + R + 1:
                    break
                d2 = (S[:, 0] - center[0]) ** 2 + (S[:, 1] - center[1]) ** 2
                inball = int(np.sum(d2 <= R * R))
                if inball:
                    for kk, K in enumerate(K_list):
                        if abs(step - w) > K * math.sqrt(w):
                            counts[kk] += inball
            return counts, step

        res = _run_blocks(N, seed, workers, block_fn)
        counts = sum(r[0] for r in res)
        truncation = max(r[1] for r in res)
        results[w] = {
            "K": list(K_list),
            "value": [math.sqrt(w) * c / N for c in counts],
            "truncation": truncation,
            "n_samples": N,
        }
    return results
