"""Concrete suspension-flow models.

Three base families: iid reward-renewal processes (finite atoms with exact
coordinates), finite-state Markov shifts with per-transition values, and the
intermittent interval map with a neutral fixed point, used directly as an
ambient suspension whose first-return structure over (1/2, 1] is exposed
through ``return_time``.

Each system is a suspension flow given by a base step, a roof tau and a
per-cell observable integral phi, and exposes it through one vectorised
protocol on arrays of base states, which is all the Monte Carlo engine uses:

- ``draw_start(n, rng)``: n states from the roof-size-biased measure (the
  base marginal of the flow-invariant measure);
- ``draw_base(n, rng)``: n states from the base-invariant measure;
- ``step(states, rng)``: one application of the base dynamics;
- ``tau(states)`` and ``phi(states)``: roof and per-cell integral.

States are atom indices (renewal), flat edge indices i*n + j for the
transition i -> j being traversed (Markov), and points of (0, 1] (the
intermittent map).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, MixedRingError, ReturnTimeOverflow
from .quadfield import QuadScalar, as_quad


def _cdf_table(weights):
    """Cumulative sums along the last axis for inverse-CDF draws (the drawn
    index is the number of entries <= u), set to +inf from the last cell of
    positive weight on.  A float cumulative sum can end below 1; the inf
    sends a u past its end to that cell instead of a zero-weight one."""
    w = np.asarray(weights, dtype=float)
    last = w.shape[-1] - 1 - np.argmax(w[..., ::-1] > 0, axis=-1)
    cum = np.cumsum(w, axis=-1)
    cum[np.arange(w.shape[-1]) >= np.expand_dims(last, -1)] = np.inf
    return cum


# ---------------------------------------------------------------------------
# reward renewal
# ---------------------------------------------------------------------------

class RenewalBase:
    """iid atoms (x_i, y_i) with rational probabilities: reward x, duration
    y > 0, zero-mean rewards.  State = atom index."""

    def __init__(self, atoms):
        self.atoms = []
        psum = Fraction(0)
        xsum = as_quad(0)
        for x, y, p in atoms:
            x, y, p = as_quad(x), as_quad(y), Fraction(p)
            if y.sign() <= 0:
                raise ValueError("durations must be positive")
            self.atoms.append((x, y, p))
            psum += p
            xsum = xsum + x * p
        if psum != 1:
            raise ValueError(f"probabilities sum to {psum}, not 1")
        if not xsum.is_zero():
            raise ValueError(f"rewards have nonzero mean {xsum}")
        self.xs = np.array([float(a[0]) for a in self.atoms])
        self.ys = np.array([float(a[1]) for a in self.atoms])
        self.probs = np.array([float(a[2]) for a in self.atoms])
        self.cum = _cdf_table(self.probs)
        try:
            self.nu_tau_exact = sum((a[1] * a[2] for a in self.atoms),
                                    start=as_quad(0))
            self.nu_tau = float(self.nu_tau_exact)
        except MixedRingError:
            # atoms spanning several quadratic rings: keep the mean roof as
            # a float; exact-DP paths are unavailable for such systems
            self.nu_tau_exact = None
            self.nu_tau = float(np.dot(self.probs, self.ys))
        sb = self.probs * self.ys / self.nu_tau
        self.size_biased_cum = _cdf_table(sb / sb.sum())

    kind = "renewal"

    def _draw(self, cum, n, rng):
        return np.searchsorted(cum, rng.random(n), side="right")

    def draw_start(self, n, rng):
        return self._draw(self.size_biased_cum, n, rng)

    def draw_base(self, n, rng):
        return self._draw(self.cum, n, rng)

    def step(self, states, rng):
        # iid atoms: the next cell does not depend on the current one
        return self.draw_base(len(states), rng)

    def tau(self, states):
        return self.ys[states]

    def phi(self, states):
        return self.xs[states]

    def value_group(self):
        """Generators and shift for the support group of (phi_check, tau):
        the closed group generated by the support values, with one value as
        the coset shift."""
        vals = [(a[0], a[1]) for a in self.atoms]
        shift = vals[0]
        gens = [(v[0] - shift[0], v[1] - shift[1]) for v in vals[1:]]
        if not gens:
            gens = [(as_quad(0), as_quad(0))]
        return gens, shift

    @classmethod
    def from_json(cls, obj):
        D = obj.get("D", 2)
        atoms = []
        for xp, xq, yp, yq, pn, pd in obj["atoms"]:
            atoms.append((QuadScalar(Fraction(xp), Fraction(xq), D),
                          QuadScalar(Fraction(yp), Fraction(yq), D),
                          Fraction(pn, pd)))
        return cls(atoms)


# ---------------------------------------------------------------------------
# finite Markov shift
# ---------------------------------------------------------------------------

class MarkovShiftBase:
    """Finite-state chain with per-transition values f(i, j) = (phi, tau).
    Flow state = the flat index i*n + j of the current edge (i, j): the point
    sits in the fiber over the transition being traversed."""

    def __init__(self, P, f):
        P = np.asarray(P, dtype=float)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError("transition matrix must be square")
        if np.max(np.abs(P.sum(axis=1) - 1)) > 1e-12:
            raise ValueError("rows must sum to 1")
        if np.min(np.linalg.matrix_power(np.where(P > 0, 1.0, 0.0), 2 * n)) \
                <= 0:
            raise ValueError("chain must be irreducible and aperiodic")
        self.P = P
        self.n_states = n
        self.f = np.asarray(f, dtype=float)  # (n, n, 2): [phi, tau]
        if self.f.shape != (n, n, 2):
            raise ValueError("f must give (phi, tau) per transition")
        if np.any(self.f[:, :, 1][P > 0] <= 0):
            raise ValueError("roof values must be positive")
        w, v = np.linalg.eig(P.T)
        k = int(np.argmin(np.abs(w - 1)))
        pi = np.real(v[:, k])
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ P - pi)) > 1e-12:
            raise ValueError("stationary vector inaccurate")
        self.stationary = pi
        self.stationary_cum = _cdf_table(pi)
        self.cumP = _cdf_table(P)
        self.edge_phi = self.f[:, :, 0].ravel()
        self.edge_tau = self.f[:, :, 1].ravel()
        edge_w = pi[:, None] * P
        self.nu_phi = float(np.sum(edge_w * self.f[:, :, 0]))
        self.nu_tau = float(np.sum(edge_w * self.f[:, :, 1]))
        sb = (edge_w * self.f[:, :, 1]).ravel()
        self.size_biased_cum = _cdf_table(sb / sb.sum())

    kind = "markov"

    def _edges_from(self, i, rng):
        """Edges i -> j with j drawn from row i of P."""
        u = rng.random(len(i))
        j = (u[:, None] < self.cumP[i]).argmax(axis=1)
        return i * self.n_states + j

    def draw_start(self, n, rng):
        return np.searchsorted(self.size_biased_cum, rng.random(n),
                               side="right")

    def draw_base(self, n, rng):
        i = np.searchsorted(self.stationary_cum, rng.random(n), side="right")
        return self._edges_from(i, rng)

    def step(self, states, rng):
        return self._edges_from(states % self.n_states, rng)

    def tau(self, states):
        return self.edge_tau[states]

    def phi(self, states):
        return self.edge_phi[states]

    @classmethod
    def from_json(cls, obj):
        return cls(obj["P"], obj["f"])


# ---------------------------------------------------------------------------
# intermittent (neutral fixed point) interval map
# ---------------------------------------------------------------------------

def _pm_left(x, alpha):
    return x * (1 + (2 ** alpha) * x ** alpha)


def pm_map(x, alpha):
    """The ambient interval map: x(1 + 2^alpha x^alpha) on [0, 1/2],
    2x - 1 on (1/2, 1].  Works on scalars and numpy arrays."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0.5, _pm_left(np.minimum(x, 0.5), alpha),
                   2 * x - 1)
    return float(out) if out.ndim == 0 else out


def pm_first_return(x: float, alpha: float, cap: int = 10 ** 6):
    """First-return map of the ambient map to (1/2, 1]: iterate until the
    orbit re-enters, return (landing point, number of steps)."""
    if not 0.5 < x <= 1:
        raise ValueError("x must lie in (1/2, 1]")
    y = pm_map(x, alpha)
    r = 1
    while not y > 0.5:
        if r >= cap:
            raise ReturnTimeOverflow(f"no return within {cap} steps from {x}")
        y = _pm_left(y, alpha)
        r += 1
    return y, r


_ACIM_CACHE = {}


def _pm_acim_ensemble(alpha, n=200_000, burn=2000, seed=745_197_101):
    """Ensemble of points distributed (approximately) per the absolutely
    continuous invariant measure of the ambient map: uniform starts pushed
    through ``burn`` iterations.  Deterministic given the fixed seed."""
    key = (round(alpha, 12), n, burn, seed)
    if key not in _ACIM_CACHE:
        rng = np.random.default_rng(seed)
        x = rng.random(n) * 0.999999 + 1e-9
        for _ in range(burn):
            x = pm_map(x, alpha)
        _ACIM_CACHE[key] = x
    return _ACIM_CACHE[key]


PM_ROOFS = {
    "unit": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "affine": lambda y: 1.0 + np.asarray(y, dtype=float) / 2,
}

PM_RATES = {
    # flow rates g(y) before centering; phi_check = (g - m) * roof with m
    # chosen so the flow observable has zero mean
    "x_centered": lambda y: np.asarray(y, dtype=float),
}


class PMTowerBase:
    """The intermittent map used as a suspension base.

    Ambient representation: state = a point of (0, 1], roof = upsilon(state),
    per-cell observable integral = (g(state) - m) * upsilon(state) with m the
    invariant-measure mean of g weighted by upsilon (estimated once from a
    deterministic ensemble).  The induced first-return structure over
    (1/2, 1] is exposed through ``return_time``.
    """

    # iterations pushing uniform starts towards the invariant measure
    _BURN = 1500

    def __init__(self, alpha, phi_check="x_centered", roof="unit"):
        if not 0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        self.alpha = alpha
        self.roof_id = roof
        self.rate_id = phi_check
        self._roof = PM_ROOFS[roof]
        self._rate = PM_RATES[phi_check]
        ens = _pm_acim_ensemble(alpha)
        wts = self._roof(ens)
        self.rate_mean = float(np.average(self._rate(ens), weights=wts))
        self.nu_tau = float(np.mean(wts))
        # preimage thresholds of 1/2 under the left branch: return time of
        # x in (1/2, 1] is 1 + #{n >= 1 : 2x - 1 <= x_n}
        self.thresholds = self._threshold_table()

    kind = "pm"

    def _threshold_table(self, floor=1e-13, cap=100_000):
        xs = [0.5]
        while xs[-1] > floor and len(xs) < cap:
            target = xs[-1]
            lo, hi = 0.0, target
            xs.append(brentq(lambda y: _pm_left(y, self.alpha) - target,
                             lo, hi, xtol=1e-16, rtol=8.9e-16))
        return np.array(xs)

    # -- ambient suspension interface -----------------------------------

    def draw_base(self, n, rng):
        """Fresh (approximately) invariant points: uniform starts pushed
        through a ``_BURN``-step burn-in."""
        x = rng.random(n) * (1 - 1e-9) + 1e-9
        for _ in range(self._BURN):
            x = pm_map(x, self.alpha)
        return x

    def draw_start(self, n, rng):
        """Roof-size-biased points: burnt-in batches, thinned by roof-weighted
        rejection unless the roof is constant."""
        need = n
        out = []
        while need > 0:
            batch = max(need + need // 3 + 64, 256)
            x = self.draw_base(batch, rng)
            if self.roof_id != "unit":
                w = self._roof(x)
                x = x[rng.random(batch) * float(np.max(w)) < w]
            out.append(x[:need])
            need -= len(out[-1])
        return np.concatenate(out)

    def step(self, states, rng):
        return pm_map(states, self.alpha)

    def tau(self, states):
        return self._roof(states)

    def phi(self, states):
        return (self._rate(states) - self.rate_mean) * self._roof(states)

    # -- induced first-return structure ---------------------------------

    def return_time(self, x):
        """Return time of x in (1/2, 1], via the precomputed threshold
        table (vectorized); equals pm_first_return(x, alpha)[1]."""
        z = np.asarray(2 * np.asarray(x, dtype=float) - 1)
        # r = 1 + #{n >= 0 : z <= x_n}: each uncleared threshold costs one
        # extra left-branch step (the table is decreasing, hence the negation)
        k = np.searchsorted(-self.thresholds, -z, side="right")
        out = np.asarray(1 + k)
        return int(out) if out.ndim == 0 else out

    @classmethod
    def from_json(cls, obj):
        return cls(obj["alpha"], obj.get("phi_check", "x_centered"),
                   obj.get("roof", "unit"))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_SYSTEM_TYPES = {
    "renewal": RenewalBase,
    "markov": MarkovShiftBase,
    "pm": PMTowerBase,
}


def load_system(spec):
    """Build a system from a JSON object, JSON string, or file path."""
    obj = spec
    if isinstance(spec, str):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError:
            try:
                with open(spec) as fh:
                    obj = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError(f"cannot read system {spec!r}: {e}")
    if not isinstance(obj, dict):
        raise ConfigError(f"a system is a JSON object, not {obj!r}")
    kind = obj.get("type")
    if kind not in _SYSTEM_TYPES:
        raise ValueError(f"unknown system type {kind!r}")
    return _SYSTEM_TYPES[kind].from_json(obj)
