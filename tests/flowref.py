"""Scalar n = 1 reference for the vectorised path engine.

One flow point, one crossing per Python loop pass, driven through the same
system protocol (``draw_start``, ``step``, ``tau``, ``phi``) with length-1
state arrays.  Tests compare it against ``montecarlo._flow`` on the same
random stream.
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
