"""References for the vectorised path engine and the Markov step.

- ``flow_integrate``: one flow point, one crossing per Python loop pass,
  driven through the same system protocol (``draw_start``, ``step``,
  ``tau``, ``phi`` and the optional ``leap``) with length-1 state arrays.
- ``flow_masked``: the block engine with every pass gathered and scattered
  through the indices of the live paths, whole-block passes included.
- ``scan_edges``: Markov next edges by a full comparison scan of the
  cumulative row.

Tests compare them against ``montecarlo._flow`` and
``MarkovShiftBase._edges_from`` on the same random stream.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class FlowPoint:
    """A point of the suspension space: base state plus fiber height s in
    [0, tau(state))."""
    state: object
    s: float


def _one(fn, state):
    return fn(np.array([state]))[0]


def flow_integrate(system, start: FlowPoint, t: float, rng=None):
    """Integrate the flow observable for time t from ``start``.

    Returns (integral, end FlowPoint, n_crossings).  Full cells contribute
    their exact per-cell integrals; the two partial cells contribute via the
    constant-rate profile.  The crossing count satisfies
    S_tau(n, x) <= t + s < S_tau(n + 1, x).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    state, s = start.state, float(start.s)
    tau = _one(system.tau, state)
    if not 0 <= s < tau:
        raise ValueError(f"fiber height {s} outside [0, {tau})")
    integral = 0.0
    remaining = t
    crossings = 0
    leap = getattr(system, "leap", None)
    if leap is not None:
        # whole cells after the current one, at the point where _flow leaps
        count, phi_sum, tau_sum = leap(np.array([s + remaining - tau]), rng)
        integral += phi_sum[0]
        remaining -= tau_sum[0]
        crossings += int(count[0])
    while s + remaining >= tau:
        seg = tau - s
        integral += _one(system.phi, state) / tau * seg
        remaining -= seg
        state = system.step(np.array([state]), rng)[0]
        crossings += 1
        s = 0.0
        tau = _one(system.tau, state)
    integral += _one(system.phi, state) / tau * remaining
    return integral, FlowPoint(state, s + remaining), crossings


def sample_stationary(system, rng) -> FlowPoint:
    """Draw a flow point from the invariant measure nu (x) Leb / nu(tau):
    size-biased base cell, then uniform height."""
    state = system.draw_start(1, rng)[0]
    s = rng.random() * _one(system.tau, state)
    return FlowPoint(state, s)


def flow_masked(system, state, s, dt, rng):
    """montecarlo._flow with a masked pass every time: the live paths are
    gathered by index, advanced and scattered back."""
    cur = state.copy()
    target = s + dt
    acc = system.tau(cur)
    leap = getattr(system, "leap", None)
    if leap is None:
        psi = np.zeros(len(cur))
        ncross = np.zeros(len(cur), dtype=np.int64)
    else:
        ncross, psi, tau_sum = leap(target - acc, rng)
        acc += tau_sum
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


def scan_edges(chain, i, u):
    """Flat edges i*n + j of a MarkovShiftBase for uniforms u: j is the
    first index of row i whose cumulative entry exceeds u."""
    j = (u[:, None] < chain.cumP[i]).argmax(axis=1)
    return i * chain.n_states + j
