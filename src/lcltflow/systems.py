"""Concrete suspension-flow models.

Three base families: iid reward-renewal processes (finite atoms with exact
coordinates), finite-state Markov shifts with per-transition values, and the
intermittent interval map with a neutral fixed point, used directly as an
ambient suspension whose invariant measure is built on its Young tower over
the first-return set (1/2, 1] (return times through ``return_time``).

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
from numpy.polynomial.chebyshev import chebval, chebvander

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


_RETURN_CAP = 10 ** 6        # pm_first_return's iteration budget
_PULLBACK_FLOOR = 1e-13      # _pm_pullback stops below this length ...
_PULLBACK_CAP = 100_000      # ... or at this many rows


def pm_first_return(x: float, alpha: float):
    """First-return map of the ambient map to (1/2, 1]: iterate until the
    orbit re-enters (at most _RETURN_CAP steps), return (landing point,
    number of steps)."""
    if not 0.5 < x <= 1:
        raise ValueError("x must lie in (1/2, 1]")
    y = pm_map(x, alpha)
    r = 1
    while not y > 0.5:
        if r >= _RETURN_CAP:
            raise ReturnTimeOverflow(
                f"no return within {_RETURN_CAP} steps from {x}")
        y = _pm_left(y, alpha)
        r += 1
    return y, r


def _pm_pullback(alpha, z, depth=None):
    """Backward orbits of the left branch L(u) = u(1 + 2^alpha u^alpha).

    Returns (U, D) with rows U[k] = L^{-k}(z) and D[k] = dU[k]/dz for
    k = 0, 1, ...: ``depth`` rows, or without a depth rows up to the first
    one whose last entry is <= _PULLBACK_FLOOR (at most _PULLBACK_CAP
    rows).  Each row is solved by Newton's method from a geometric
    extrapolation of the two before it.
    """
    c = 2.0 ** alpha
    rows = depth or _PULLBACK_CAP
    U = np.empty((rows, len(z)))
    U[0] = z
    k = 1
    while k < rows and (depth or U[k - 1, -1] > _PULLBACK_FLOOR):
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


PM_ROOFS = {
    "unit": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "affine": lambda y: 1.0 + np.asarray(y, dtype=float) / 2,
}

# Chebyshev degree of the induced density on Y: its coefficients fall by
# ~0.13 per degree, so the induced-operator residual is at the 1e-13 level
# of the truncated branch tail already at degree 16
_PM_DEG = 32


def _induced_fixed_point(s, P, dP):
    """Nystrom solve for the invariant density of the first-return map F on
    Y = (1/2, 1], from its inverse branches psi_r evaluated at the
    Chebyshev-Lobatto nodes y = (3 + s) / 4: P[r] = psi_r(y) and
    dP[r] = psi_r'(y).  Returns the Chebyshev coefficients of h in
    4y - 3, normalised to integrate to 1 over Y, and the Clenshaw-Curtis
    weights of the nodes on Y."""
    deg = len(s) - 1
    V = chebvander(s, deg)
    # M @ c = node values of L_F h for the Chebyshev series c of h
    M = sum(np.einsum("ri,rij->ij", dP[k:k + 512],
                      chebvander(4 * P[k:k + 512] - 3, deg))
            for k in range(0, len(P), 512))
    lam, vec = np.linalg.eig(np.linalg.solve(V.T, M.T).T)
    coef = np.linalg.solve(V, np.real(vec[:, np.argmin(np.abs(lam - 1))]))
    # integrals of T_j over [-1, 1]
    moments = np.zeros(deg + 1)
    moments[::2] = 2 / (1 - np.arange(0, deg + 1, 2) ** 2)
    return coef / (moments @ coef / 4), np.linalg.solve(V.T, moments) / 4


class PMTowerBase:
    """The intermittent map used as a suspension base.

    Ambient representation: state = a point of (0, 1], roof = upsilon(state),
    per-cell observable integral = (x - m) * upsilon(x) for the flow rate
    g(x) = x, with m the invariant-measure mean of g weighted by upsilon.

    The invariant measure comes from the Young tower over Y = (1/2, 1]: the
    first-return map F has full branches Y_r = {return time r}, and its
    invariant density h is the fixed point of a Nystrom discretisation of
    L_F h(z) = sum_r h(psi_r(z)) psi_r'(z) on Chebyshev-Lobatto nodes of Y,
    with the branches cut where the remaining Lebesgue mass of Y is below
    1e-13.  Ambient averages follow from Kac's formula,
    int g dmu = int_Y h sum_{k<r} g o T^k / int_Y r h, and invariant points
    are drawn on the tower: a branch r with probability ~ r |Y_r|, y uniform
    on Y_r accepted with probability h(y) / max h, a level k uniform in
    [0, r), then x = T^k y.  The return times are exposed through
    ``return_time``.
    """

    def __init__(self, alpha, roof="unit"):
        if not 0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        self.alpha = alpha
        self.roof_id = roof
        self._roof = PM_ROOFS[roof]
        # both roofs are nondecreasing: their supremum on (0, 1] is at 1
        self._roof_max = float(self._roof(1.0))
        # Chebyshev-Lobatto nodes s of [-1, 1], y = (3 + s) / 4 in Y; the
        # last node is y = 1/2
        s = np.cos(np.pi * np.arange(_PM_DEG + 1) / _PM_DEG)
        U, D = _pm_pullback(alpha, (3 + s) / 4)
        # preimages x_n = L^{-n}(1/2): the return time of x in (1/2, 1] is
        # 1 + #{n >= 0 : 2x - 1 <= x_n}
        self.thresholds = U[:, -1].copy()
        # inverse branch r = k + 1 of F at the nodes: psi_r = (1 + U[k]) / 2
        # with derivative D[k] / 2
        P, dP = (1 + U) / 2, D / 2
        self._hcoef, quad = _induced_fixed_point(s, P, dP)
        # |T_j| <= 1 on [-1, 1], so this bounds h
        self._hmax = float(np.abs(self._hcoef).sum())
        # Kac: the tower over branch r at node i has the weight
        # quad_i h(psi_r) psi_r', and its orbit is psi_r, U[k], ..., U[1]
        wts = quad * dP * self.induced_density(P)

        def kac(g):
            return float(np.sum(wts * g(P))
                         + np.sum(wts[1:] * np.cumsum(g(U[1:]), axis=0)))

        roof_mass = kac(self._roof)
        self.nu_tau = roof_mass / kac(PM_ROOFS["unit"])
        self.rate_mean = kac(lambda x: x * self._roof(x)) / roof_mass
        # tower draws: branch r = k + 1 has 2y - 1 in (x_k, x_{k-1}], with
        # x_{-1} = 1
        self._zwidth = np.concatenate(([1.0], self.thresholds[:-1])) \
            - self.thresholds
        branch_w = np.arange(1, len(self._zwidth) + 1) * self._zwidth
        self._branch_cum = _cdf_table(branch_w / branch_w.sum())

    kind = "pm"

    def induced_density(self, y):
        """The invariant density h of the first-return map on Y = (1/2, 1],
        normalised to integrate to 1 over Y."""
        return chebval(4 * np.asarray(y, dtype=float) - 3, self._hcoef)

    # -- ambient suspension interface -----------------------------------

    def draw_base(self, n, rng):
        """Points of the ambient invariant measure, drawn on the tower."""
        ks, zs, need = [], [], n
        while need:
            k = np.searchsorted(self._branch_cum, rng.random(need),
                                side="right")
            z = self.thresholds[k] + rng.random(need) * self._zwidth[k]
            ok = (rng.random(need) * self._hmax
                  < self.induced_density((1 + z) / 2))
            ks.append(k[ok])
            zs.append(z[ok])
            need -= len(ks[-1])
        k, z = np.concatenate(ks), np.concatenate(zs)
        # level j uniform in [0, r): y itself, or T^j y = L^{j-1}(2y - 1)
        level = rng.integers(0, k + 1)
        x = np.where(level == 0, (1 + z) / 2, z)
        idx = np.flatnonzero(level > 1)
        while idx.size:
            x[idx] = _pm_left(x[idx], self.alpha)
            level[idx] -= 1
            idx = idx[level[idx] > 1]
        return x

    def draw_start(self, n, rng):
        """Roof-size-biased points: invariant draws, thinned by roof-weighted
        rejection unless the roof is constant."""
        if self.roof_id == "unit":
            return self.draw_base(n, rng)
        out, need = [], n
        while need:
            x = self.draw_base(need, rng)
            out.append(x[rng.random(need) * self._roof_max < self._roof(x)])
            need -= len(out[-1])
        return np.concatenate(out)

    def step(self, states, rng):
        return pm_map(states, self.alpha)

    def tau(self, states):
        return self._roof(states)

    def phi(self, states):
        return (states - self.rate_mean) * self._roof(states)

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
        return cls(obj["alpha"], obj.get("roof", "unit"))


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
        raise ConfigError(f"unknown system type {kind!r}; known types: "
                          f"{', '.join(_SYSTEM_TYPES)}")
    return _SYSTEM_TYPES[kind].from_json(obj)
