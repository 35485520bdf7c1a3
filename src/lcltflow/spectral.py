"""Twisted transfer operators for finite Markov shifts.

The operator family t -> P_t with (P_t)_{ji} = P(i, j) exp(i <t, f(i, j)>)
is a finite complex matrix, so its leading eigenvalue curve, the quadratic
expansion at 0, the Fourier-inversion point probabilities and the
unit-modulus eigenvalue set are all computable to near machine precision.
These serve as rigorous oracles, independent of Monte Carlo sampling.

``expansion_fit`` reads the chain's exact perturbation series of log
lambda_t and makes no eigen-solve; every other oracle stacks its operators
over all its t values and makes one stacked eigen-solve or matrix power.
Fourier inversion is an exact finite inverse DFT on integer-valued f, so no
oracle uses quadrature.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NoGapError
from .groups import Group1D
from .systems import MarkovShiftBase


class TwistedOperatorModel:
    """A finite chain plus per-transition value vectors f in R^d (d = 1, 2).

    f is taken from the chain's (phi, tau) transition values; pass
    ``components=(0,)`` or ``(1,)`` to restrict to one coordinate.
    """

    def __init__(self, chain: MarkovShiftBase, components=None):
        self.chain = chain
        self.components = [0, 1] if components is None else list(components)
        self.f = chain.f[:, :, self.components]
        self.d = len(self.components)
        self.nu_f = np.array([chain.nu_phi, chain.nu_tau])[self.components]


def twisted_matrix(model: TwistedOperatorModel, t) -> np.ndarray:
    """(P_t)_{ji} = P(i,j) exp(i <t, f(i,j)>): the transfer matrix twisted
    by the Fourier character of the transition values.  A single t of
    shape (d,) gives one (k, k) matrix, a (G, d) stack of t values a
    (G, k, k) stack."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim > 2 or t.shape[-1] != model.d:
        raise ValueError(f"t has shape {t.shape}, expected ({model.d},) "
                         f"or (G, {model.d})")
    phase = np.einsum("ijk,...k->...ij", model.f, t)
    return np.swapaxes(model.chain.P * np.exp(1j * phase), -1, -2)


def _t_stack(model: TwistedOperatorModel, t_grid) -> np.ndarray:
    """A grid of t values as a (G, d) array; a flat list holds scalar t."""
    ts = np.asarray(t_grid, dtype=float)
    return ts.reshape(len(ts), -1 if ts.size else model.d)


_GAP_TOL = 1e-8
_UNIT_TOL = 1e-8


def _modulus(z):
    # hypot is bit-equal to the scalar abs(z); the vectorised np.abs on
    # complex arrays can differ from it in the last bit
    return np.hypot(z.real, z.imag)


def _eig_sorted(P_t: np.ndarray):
    """Eigenvalues and eigenvectors of a (..., k, k) stack, sorted by
    decreasing modulus, and the gap |lambda_0| - |lambda_1| (inf if k = 1)."""
    w, V = np.linalg.eig(P_t)
    order = np.argsort(-np.abs(w), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[..., None, :], axis=-1)
    mod = _modulus(w)
    gap = (mod[..., 0] - mod[..., 1] if w.shape[-1] > 1
           else np.full(w.shape[:-1], math.inf))
    return w, V, gap


def leading_eigenvalue(P_t: np.ndarray):
    """Maximal-modulus eigenvalue and its eigenvector, residual <= 1e-12,
    eigenvector phase fixed by making its largest-modulus entry real
    positive.  Raises NoGapError when the top two moduli tie within
    ``_GAP_TOL``."""
    w, V, gap = _eig_sorted(P_t)
    if gap < _GAP_TOL:
        raise NoGapError(f"leading moduli tie: |{w[0]:.6g}| vs |{w[1]:.6g}|")
    v = V[:, 0]
    # one Rayleigh-quotient refinement pass
    lam = complex(np.vdot(v, P_t @ v) / np.vdot(v, v))
    k = int(np.argmax(np.abs(v)))
    v = v * (abs(v[k]) / v[k])
    resid = float(np.linalg.norm(P_t @ v - lam * v))
    if resid > 1e-12 * max(1.0, float(np.linalg.norm(P_t))):
        raise NoGapError(f"eigenpair residual {resid:.3g} above tolerance")
    return lam, v


class EigenCurve:
    """The leading eigenvalue curve t -> lambda_t of a twisted-operator
    model."""

    def __init__(self, model: TwistedOperatorModel):
        self.model = model

    def lam(self, t):
        return leading_eigenvalue(twisted_matrix(self.model, t))[0]


_MAX_ORDER = 8       # expansion_fit looks for a nonzero coefficient up to here
_ZERO_REL = 1e-12    # a k-th coefficient below this times max|g|^k is zero


def expansion_fit(curve: EigenCurve):
    """Quadratic expansion log lambda_t = i <drift, t> - t' m t + O(|t|^r),
    exact: drift is the stationary mean nu(f) and m half the chain's
    ``sigma()`` on the model's components, and the residual order r is that
    of the first nonzero Taylor coefficient past 2 of the chain's series for
    g = <f, u>, u = (1, ..., 1) / sqrt(d), up to ``_MAX_ORDER`` (inf if none
    is nonzero, as for a deterministic f).  A k-th coefficient is zero below
    ``_ZERO_REL`` max|g|^k, max over the edges of positive probability.
    """
    model = curve.model
    chain = model.chain
    c = model.components
    m = chain.sigma()[np.ix_(c, c)] / 2
    g = model.f @ (np.ones(model.d) / math.sqrt(model.d))
    coef = chain._log_eigenvalue_series(g, _MAX_ORDER)
    scale = float(np.max(np.abs(g[chain.P > 0])))
    order = next((float(k) for k in range(3, _MAX_ORDER + 1)
                  if abs(coef[k - 1]) > _ZERO_REL * scale ** k), math.inf)
    return model.nu_f.copy(), m, order


# ---------------------------------------------------------------------------
# Fourier inversion
# ---------------------------------------------------------------------------

def _characteristic(model: TwistedOperatorModel, n: int, ts) -> np.ndarray:
    """E[exp(i <t, S_n>)] = 1' P_t^n pi under the stationary start, for a
    (G, d) stack of t values."""
    P_tn = np.linalg.matrix_power(twisted_matrix(model, ts), n)
    return (P_tn @ model.chain.stationary).sum(axis=-1)


def fourier_lclt(model: TwistedOperatorModel, n: int, v) -> float:
    """Fourier-inversion oracle for P(S_n - n nu(f) = v) on integer-valued f.

    For integer f, S_n lies in the box lo_k = n min f_k <= s_k <= n max f_k
    = hi_k and its characteristic function is a trigonometric polynomial of
    degree below N_k = hi_k - lo_k + 1 in t_k, so the inverse DFT on the grid
    2 pi j / N_k is exact.  Targets off the lattice or outside the box (which
    the DFT would alias into it) have probability 0.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.d,):
        raise ValueError("v has the wrong dimension")
    target = n * model.nu_f + v

    f_used = model.f[model.chain.P > 0]
    f_int = np.rint(f_used).astype(np.int64)
    if np.max(np.abs(f_used - f_int)) > 1e-9:
        raise ValueError("fourier_lclt requires integer-valued f")
    lo, hi = n * f_int.min(axis=0), n * f_int.max(axis=0)
    m = np.rint(target).astype(np.int64)
    if np.max(np.abs(target - m)) > 1e-9 or np.any((m < lo) | (m > hi)):
        return 0.0
    N = hi - lo + 1
    J = np.indices(tuple(N)).reshape(model.d, -1).T
    chars = _characteristic(model, n, 2 * np.pi * J / N)
    # exp(-i <t_j, m>) with the phase reduced exactly modulo 2 pi
    phase = np.exp(-2j * np.pi * ((J * m) % N / N).sum(axis=1))
    return float(np.mean(chars * phase).real)


def unit_modulus_scan(model: TwistedOperatorModel, t_grid):
    """All grid points whose leading eigenvalue modulus is within
    ``_UNIT_TOL`` of 1, with the inferred dual lattice (d = 1) and shift.

    Returns {"detections": [(t, lambda)], "inferred_M": Group1D or 'R^d',
    "shift": float or None}.  Nonzero detections at t in t0 Z mean the value
    group is M = (2 pi / t0) Z with coset shift arg(lambda(t0)) / t0.
    """
    ts = _t_stack(model, t_grid)
    lam = _eig_sorted(twisted_matrix(model, ts))[0][:, 0]
    hit = np.abs(_modulus(lam) - 1.0) < _UNIT_TOL
    detections = [(tuple(t), complex(l)) for t, l in zip(ts[hit], lam[hit])]
    result = {"detections": detections, "inferred_M": None, "shift": None}
    nonzero = [t for t, _ in detections
               if float(np.linalg.norm(t)) > 1e-12]
    if not nonzero:
        result["inferred_M"] = Group1D.full() if model.d == 1 else "R^2"
        result["shift"] = 0.0
        return result
    if model.d == 1:
        t0 = min(abs(t[0]) for t in nonzero)
        # snap all detections to multiples of t0
        if all(abs(t[0] / t0 - round(t[0] / t0)) < 1e-6 for t in nonzero):
            a = 2 * math.pi / t0
            # lambda(-t0) = conj lambda(t0): divide the phase by the signed t
            ts0, lam0 = next((t[0], l) for t, l in detections
                             if abs(abs(t[0]) - t0) < 1e-12)
            result["inferred_M"] = Group1D.lattice(a)
            result["shift"] = (cmath.phase(lam0) / ts0) % a
    return result


def eigen_curve_rows(model: TwistedOperatorModel, t_grid):
    """CSV-ready rows (t components..., Re lambda, Im lambda, |lambda|, gap)
    along a grid; ties are reported with gap 0 and the raw top eigenvalue."""
    ts = _t_stack(model, t_grid)
    w, _V, gap = _eig_sorted(twisted_matrix(model, ts))
    lam = w[:, 0]
    return np.column_stack([ts, lam.real, lam.imag, _modulus(lam),
                            gap]).tolist()
