"""References for the vectorised path engine and the samplers.

- ``flow_integrate``: one flow point, one crossing per Python loop pass,
  driven through the same system protocol (``draw_start``, ``step``,
  ``tau``, ``phi`` and the optional ``leap``) with length-1 state arrays.
- ``flow_masked``: the block engine with every pass gathered and scattered
  through the indices of the live paths, whole-block passes included, and
  without a leap pre-pass where the system has no ``leap``.
- ``WithoutLeap``: a system with its ``leap`` hidden.
- ``stepped_paths``: ``montecarlo._paths`` with every crossing stepped,
  through ``flow_masked`` on ``WithoutLeap``.
- ``scan_index`` and ``scan_edges``: inverse-CDF draws by a full comparison
  scan of a cumulative row (Markov next edges, path-table entries).
- ``pm_map_where``: the intermittent map with both branches evaluated on
  every state and one picked by ``np.where``.
- ``pm_first_return``: the first return to (1/2, 1] of the intermittent map,
  one scalar step at a time.
- ``return_time``: the return times to (1/2, 1] read off a tower's
  threshold table, many points at a time (criterion 7's tail slope).
- ``pm_pullback``: the backward orbits of the intermittent map's left
  branch, one Newton solve per row.
- ``pm_pullback_table``: ``systems._pm_pullback``'s stream of row blocks
  stacked into one table.
- ``induced_fixed_point_eig``: the Nystrom fixed point of the induced
  operator as the eigenvector of eigenvalue nearest 1, from LAPACK's
  general eigensolver.
- ``pm_tower_dense``: the intermittent-map tower built from that whole
  table: the Nystrom matrix, its fixed point by
  ``induced_fixed_point_eig``, h at every branch point and Kac's sums as
  tail sums over the stored rows.

Tests compare them against ``montecarlo._flow``, ``montecarlo._paths``,
``systems._GuideTable``, ``systems.pm_map``, ``systems._pm_pullback``
and ``PMTowerBase``, and ``return_time`` against ``pm_first_return``, on
the same random stream where one is drawn.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.chebyshev import chebval, chebvander

from lcltflow.systems import (_PM_DEG, _PULLBACK_CAP, _PULLBACK_FLOOR,
                              PM_ROOFS, _pm_left, _pm_pullback, pm_map)


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
    # times from the bottom of the start cell: the end point and the
    # bottom of the current cell
    end = s + t
    bottom = 0.0
    integral = -_one(system.phi, state) / tau * s
    crossings = 0
    leap = getattr(system, "leap", None)
    if leap is not None:
        # the cells that certainly end before the end point, at the point
        # where _flow leaps: phi over the cells left, tau over the cells
        # entered (the current one included)
        count, phi_sum, tau_sum, after = leap(np.array([state]),
                                              np.array([end - tau]), rng)
        integral += phi_sum[0]
        crossings += int(count[0])
        state = after[0]
        entered = tau + tau_sum[0]
        tau = _one(system.tau, state)
        bottom = entered - tau
    while end >= bottom + tau:
        integral += _one(system.phi, state)
        bottom += tau
        state = system.step(np.array([state]), rng)[0]
        crossings += 1
        tau = _one(system.tau, state)
    integral += _one(system.phi, state) / tau * (end - bottom)
    return integral, FlowPoint(state, end - bottom), crossings


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
        ncross, psi, tau_sum, cur = leap(cur, target - acc, rng)
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


class WithoutLeap:
    """A system with its ``leap`` hidden, so that the references cross one
    cell per loop pass."""

    def __init__(self, system):
        self.system = system

    def __getattr__(self, name):
        if name == "leap":
            raise AttributeError(name)
        return getattr(self.system, name)


def stepped_paths(system, t, n, rng):
    """montecarlo._paths with the engine replaced by ``flow_masked`` on the
    system without its leap."""
    start = system.draw_start(n, rng)
    s0 = rng.random(n) * system.tau(start)
    blk = flow_masked(WithoutLeap(system), start, s0, t, rng)
    blk["start"], blk["s0"] = start, s0
    end = blk["end"]
    blk["raw"] = (blk["psi"] - s0 * system.phi(start) / system.tau(start)
                  + blk["s_end"] * system.phi(end) / system.tau(end))
    return blk


def scan_index(cum, u):
    """Inverse-CDF draws by a full scan: for each u, the first index whose
    cumulative entry exceeds u, in one row ``cum`` or in row k of ``cum``
    for u[k]."""
    return (u[:, None] < cum).argmax(axis=1)


def scan_edges(chain, i, u):
    """Flat edges i*n + j of a MarkovShiftBase for uniforms u: j is the
    first index of row i whose cumulative entry exceeds u."""
    return i * chain.n_states + scan_index(chain.cumP[i], u)


def pm_map_where(x, alpha):
    """systems.pm_map with the left branch evaluated on every state."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0.5, _pm_left(np.minimum(x, 0.5), alpha),
                   2 * x - 1)
    return float(out) if out.ndim == 0 else out


RETURN_CAP = 10 ** 6        # pm_first_return's iteration budget


class ReturnTimeOverflow(Exception):
    """First-return iteration exceeded RETURN_CAP."""


def pm_first_return(x: float, alpha: float):
    """First-return map of the ambient map to (1/2, 1]: iterate until the
    orbit re-enters (at most RETURN_CAP steps), return (landing point,
    number of steps)."""
    if not 0.5 < x <= 1:
        raise ValueError("x must lie in (1/2, 1]")
    y = pm_map(x, alpha)
    r = 1
    while not y > 0.5:
        if r >= RETURN_CAP:
            raise ReturnTimeOverflow(
                f"no return within {RETURN_CAP} steps from {x}")
        y = _pm_left(y, alpha)
        r += 1
    return y, r


def return_time(pm, x):
    """Return time of x in (1/2, 1] under the tower ``pm`` (a
    ``PMTowerBase``), the number of pm_map steps until the orbit re-enters
    (1/2, 1], via the tower's threshold table (vectorized).  Where 2x - 1
    lies below the table's last entry, the left branch is iterated until
    the orbit passes it, one return step each, and the table counts the
    rest.  Raises ValueError unless every entry lies in (1/2, 1]."""
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons
    if not np.all((x > 0.5) & (x <= 1)):
        raise ValueError("x must lie in (1/2, 1]")
    z = np.array(2 * x - 1, ndmin=1).ravel()
    deep = np.zeros(len(z), dtype=np.int64)
    last = pm.thresholds[-1]
    idx = np.flatnonzero(z < last)
    while idx.size:
        z[idx] = _pm_left(z[idx], pm.alpha)
        deep[idx] += 1
        idx = idx[z[idx] < last]
    # r = 1 + #{n >= 0 : z <= x_n}: each uncleared threshold costs one
    # extra left-branch step (the table is decreasing, hence the negation)
    out = 1 + deep + np.searchsorted(-pm.thresholds, -z, side="right")
    return int(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def pm_pullback(alpha, z):
    """Backward orbits of the left branch L(u) = u(1 + 2^alpha u^alpha).

    Returns (U, D) with rows U[k] = L^{-k}(z) and D[k] = dU[k]/dz for
    k = 0, 1, ... up to the first row whose last entry is <=
    _PULLBACK_FLOOR (at most _PULLBACK_CAP rows).  Each row is solved by
    Newton's method from a geometric extrapolation of the two before it.
    """
    c = 2.0 ** alpha
    U = np.empty((_PULLBACK_CAP, len(z)))
    U[0] = z
    k = 1
    while k < _PULLBACK_CAP and U[k - 1, -1] > _PULLBACK_FLOOR:
        w = U[k - 1]
        u = w / (1 + c * w ** alpha) if k == 1 else w * (w / U[k - 2])
        while True:
            t = c * u ** alpha
            step = (u * (1 + t) - w) / (1 + (1 + alpha) * t)
            u = u - step
            # quadratic convergence: the next step would be below 1e-16
            if np.abs(step).max() <= 1e-8 * u.min():
                break
        U[k] = u
        k += 1
    U = U[:k]
    D = np.ones_like(U)
    np.cumprod(1 / (1 + (1 + alpha) * c * U[1:] ** alpha), axis=0,
               out=D[1:])
    return U, D


def pm_pullback_table(alpha, z):
    """The (U, D) table of ``systems._pm_pullback``: its row blocks
    stacked."""
    U, D = zip(*_pm_pullback(alpha, z))
    return np.concatenate(U), np.concatenate(D)


def induced_fixed_point_eig(s, M):
    """``systems._induced_fixed_point`` by an eigensolver: with V the
    values of T_j at the nodes, the eigenvector of M V^-1 whose eigenvalue
    is nearest 1, read as Chebyshev coefficients and normalised to
    integrate to 1 over Y, and the Clenshaw-Curtis weights of the nodes."""
    V = chebvander(s, len(s) - 1)
    lam, vec = np.linalg.eig(np.linalg.solve(V.T, M.T).T)
    coef = np.linalg.solve(V, np.real(vec[:, np.argmin(np.abs(lam - 1))]))
    # integrals of T_j over [-1, 1]
    moments = np.zeros(len(s))
    moments[::2] = 2 / (1 - np.arange(0, len(s), 2) ** 2)
    return coef / (moments @ coef / 4), np.linalg.solve(V.T, moments) / 4


def pm_tower_dense(alpha, roof="unit"):
    """The intermittent-map tower from its whole branch table: U stacked
    from the stream, D as one cumprod down it, the Nystrom matrix summed in
    slices of 512 branch rows, its fixed point by an eigensolver, h
    evaluated at every branch point, and Kac's sums as tail sums, the
    weight of every branch from k + 1 on carried by U[k].  Returns
    thresholds, D, hcoef, quad, nu_tau and rate_mean, and the stream's own
    D as streamed_D."""
    s = np.cos(np.pi * np.arange(_PM_DEG + 1) / _PM_DEG)
    U, streamed_D = pm_pullback_table(alpha, (3 + s) / 4)
    D = np.ones_like(U)
    np.cumprod(1 / (1 + (1 + alpha) * 2.0 ** alpha * U[1:] ** alpha), axis=0,
               out=D[1:])
    P, dP = (1 + U) / 2, D / 2
    M = sum(np.einsum("ri,rij->ij", dP[k:k + 512],
                      chebvander(4 * P[k:k + 512] - 3, _PM_DEG))
            for k in range(0, len(P), 512))
    hcoef, quad = induced_fixed_point_eig(s, M)
    wts = quad * dP * chebval(4 * P - 3, hcoef)
    tail = np.cumsum(wts[:0:-1], axis=0)[::-1]

    def kac(g):
        return float(np.sum(wts * g(P)) + np.sum(tail * g(U[1:])))

    g = PM_ROOFS[roof]
    roof_mass = kac(g)
    return SimpleNamespace(
        thresholds=U[:, -1], D=D, streamed_D=streamed_D, hcoef=hcoef,
        quad=quad,
        nu_tau=roof_mass / kac(PM_ROOFS["unit"]),
        rate_mean=kac(lambda x: x * g(x)) / roof_mass)
