"""Closed-form limit predictions for suspension-flow local limit theorems.

Cases A-C produce a product limit: Gaussian density x marginal masses x Haar
mass of the target window.  Cases D and E produce a t-dependent value built
from a lattice-counting integral; the integral is evaluated by exact
breakpoint enumeration (the integrand is piecewise constant), so no
quadrature error enters the comparisons.  The mixing criterion decides
(exactly, in the quadratic field) whether the flow mixes at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (CaseMismatch, LatticeViolation, NonPositiveNuTau,
                     SingularCovariance)
from .groups import CaseLabel, Group1D, fiber_group, haar_mass, shear_reduce
from .quadfield import QuadScalar, as_quad

_EXACT_TYPES = (QuadScalar, Fraction, int)
_LATTICE_TOL = 1e-9     # relative slack of a float W(t) on its lattice


class GaussianSpec:
    """Centered Gaussian density with a fixed positive-definite covariance."""

    def __init__(self, covariance):
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        if cov.shape[0] != cov.shape[1] or cov.shape[0] not in (1, 2):
            raise ValueError("covariance must be 1x1 or 2x2")
        if not np.allclose(cov, cov.T):
            raise SingularCovariance("covariance must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if np.min(eig) <= 0:
            raise SingularCovariance(f"covariance not positive definite "
                                     f"(eigenvalues {eig})")
        self.covariance = cov
        self.dimension = cov.shape[0]
        self._inv = np.linalg.inv(cov)
        self._norm = 1.0 / ((2 * math.pi) ** (self.dimension / 2)
                            * math.sqrt(np.linalg.det(cov)))


def gaussian_density(g: GaussianSpec, w) -> float:
    """Value of the centered normal density of ``g`` at the point ``w``."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (g.dimension,):
        raise ValueError(f"point has dimension {w.shape}, "
                         f"expected {g.dimension}")
    return float(g._norm * math.exp(-0.5 * w @ g._inv @ w))


def flow_variance(sigma_base, nu_tau: float) -> float:
    """Flow variance Sigma(phi) = (Sigma(phi_check, tau))_11 / nu(tau)."""
    if nu_tau <= 0:
        raise NonPositiveNuTau(f"mean roof must be positive, got {nu_tau}")
    s = np.atleast_2d(np.asarray(sigma_base, dtype=float))
    eig = np.linalg.eigvalsh(s)
    if np.min(eig) < -1e-12 * max(1.0, np.max(np.abs(s))):
        raise SingularCovariance("base covariance not positive semidefinite")
    return float(s[0, 0]) / nu_tau


@dataclass
class FlowMLCLTParams:
    """Everything the limit formulas need besides the request itself, in
    the minimal specialization (transfer functions h = h_tau = 0)."""
    case: CaseLabel
    sigma_flow: float
    nu_tau: float

    def __post_init__(self):
        if self.nu_tau <= 0:
            raise NonPositiveNuTau(f"nu(tau) = {self.nu_tau}")
        if self.sigma_flow <= 0:
            raise SingularCovariance("flow variance must be positive")

    @property
    def gaussian(self):
        return GaussianSpec([[self.sigma_flow]])


@dataclass
class PredictionRequest:
    """A single MLCLT evaluation point.

    For cases A-C, ``target`` is the window H in V (a haar_mass set spec)
    and the flow-measure masses of the conditioning sets are nu_A (full
    fiber) or nu_A |I| / nu_tau when an interval I is given, likewise for B.
    For cases D/E, ``I`` and ``J`` are the fiber intervals of the product
    sets and ``l`` indexes the target fiber {l a}.
    """
    t: float
    W_of_t: float = 0.0
    w: float = 0.0
    l: int = 0
    nu_A: float = 1.0
    nu_B: float = 1.0
    I: Optional[tuple] = None
    J: Optional[tuple] = None
    target: object = None

    def marginal_masses(self, nu_tau):
        ma = (self.nu_A * (self.I[1] - self.I[0]) / nu_tau
              if self.I is not None else self.nu_A)
        mb = (self.nu_B * (self.J[1] - self.J[0]) / nu_tau
              if self.J is not None else self.nu_B)
        return float(ma), float(mb)


def predict_flow_limit_ABC(params: FlowMLCLTParams,
                           req: PredictionRequest) -> float:
    """Predicted limit of t^(1/2) Xi_t(AxI x H x BxJ) in cases A, B, C:
    Gaussian density at w times the conditioning masses times the Haar mass
    of the target window."""
    if params.case.variant not in ("A", "B", "C"):
        raise CaseMismatch(f"expected case A/B/C, got {params.case.variant}")
    V = fiber_group(params.case)
    gauss = gaussian_density(params.gaussian, req.w)
    haar = haar_mass(V, req.target)
    ma, mb = req.marginal_masses(params.nu_tau)
    return gauss * ma * haar * mb


def _is_exact(*vals):
    return all(isinstance(v, _EXACT_TYPES) for v in vals)


def _d_params(case: CaseLabel):
    """(a, b, d, shear v) for a D or E label; v = 0 in case D."""
    if case.variant == "D":
        return case.a, case.b, case.d, as_quad(0)
    if case.variant == "E":
        dlabel, v = shear_reduce(case)
        return dlabel.a, dlabel.b, dlabel.d, v
    raise CaseMismatch(f"expected case D/E, got {case.variant}")


def rho_of_t(case: CaseLabel, t, s, W_of_t, l):
    """The lattice phase rho = s + t - (W_eff/a + l) b  (mod d), in [0, d),
    where W_eff = W(t) in case D and W(t) - (c'/d') t in case E.

    Raises LatticeViolation when W(t) is not on the admissible lattice
    (a Z, resp. a Z + (c'/d') t) within ``_LATTICE_TOL``.  Exact inputs
    (QuadScalar / Fraction / int) produce an exact result.
    """
    a, b, d, v = _d_params(case)
    if _is_exact(t, s, W_of_t):
        W_eff = as_quad(W_of_t) - v * as_quad(t)
        k = W_eff / a
        if not (k.is_rational() and k.p.denominator == 1):
            raise LatticeViolation(f"W(t) = {W_of_t} not on the admissible "
                                   "lattice")
        rho = (as_quad(s) + as_quad(t) - (k + l) * b).mod(d)
        return rho
    W_eff = float(W_of_t) - float(v) * float(t)
    k = W_eff / float(a)
    if abs(k - round(k)) > _LATTICE_TOL * max(1.0, abs(k)):
        raise LatticeViolation(f"W(t) = {W_of_t} off the admissible lattice "
                               f"by {abs(k - round(k)) * float(a):.3g}")
    rho = (float(s) + float(t) - (round(k) + l) * float(b)) % float(d)
    return rho


def _card_integral(c0: float, d: float, I: tuple, J: tuple) -> float:
    """integral over s in I of Card(m : (s + c0 mod d) + m d in J) ds.

    The integrand is piecewise constant; breakpoints occur where s + c0 hits
    an endpoint of J modulo d, so the integral is evaluated exactly by
    enumerating those breakpoints.
    """
    I0, I1 = float(I[0]), float(I[1])
    J0, J1 = float(J[0]), float(J[1])
    if I1 <= I0 or J1 <= J0:
        return 0.0
    pts = {I0, I1}
    for edge in (J0, J1):
        base = I0 + ((edge - c0 - I0) % d)
        s = base
        while s < I1 - 1e-13:
            if s > I0 + 1e-13:
                pts.add(s)
            s += d
    pts = sorted(pts)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        rho = (mid + c0) % d
        card = math.ceil((J1 - rho) / d) - math.ceil((J0 - rho) / d)
        total += card * (hi - lo)
    return total


def _predict_lattice(params: FlowMLCLTParams, req: PredictionRequest,
                     variant) -> float:
    """Shared engine for cases D and E: E runs on its shear-reduced D
    parameters, with the lattice phase and W(t) check from rho_of_t."""
    if params.case.variant != variant:
        raise CaseMismatch(f"expected case {variant}, got "
                           f"{params.case.variant}")
    if req.I is None or req.J is None:
        raise ValueError("cases D/E require fiber intervals I and J")
    a, _, d, _ = _d_params(params.case)
    af, df = float(a), float(d)
    c0 = float(rho_of_t(params.case, req.t, 0, req.W_of_t, req.l))
    gauss = gaussian_density(params.gaussian, req.w)
    nt = params.nu_tau
    integral = _card_integral(c0, df, req.I, req.J)
    return (req.nu_A / nt) * gauss * af * df * integral * (req.nu_B / nt)


def predict_case_D(params: FlowMLCLTParams, req: PredictionRequest) -> float:
    """Case-D limit I_t: the lattice-counting formula
    (nu(A)/nu(tau)) g_Sigma(w) a d [integral of Card over I] (nu(B)/nu(tau))
    in the minimal specialization."""
    return _predict_lattice(params, req, "D")


def predict_case_E(params: FlowMLCLTParams, req: PredictionRequest) -> float:
    """Case-E limit: delegates to the case-D engine after the shear
    substitution a = a' - b'c'/d', with the recentering checked against
    a Z + (c'/d') t."""
    return _predict_lattice(params, req, "E")


def predict(params: FlowMLCLTParams, req: PredictionRequest) -> float:
    """Dispatch on the case label."""
    v = params.case.variant
    if v in ("A", "B", "C"):
        return predict_flow_limit_ABC(params, req)
    if v == "D":
        return predict_case_D(params, req)
    if v == "E":
        return predict_case_E(params, req)
    raise CaseMismatch(f"no prediction for case {v}")


def mixing_classify(M: Group1D, r) -> str:
    """'Mixing' iff M(tau) = R, or M(tau) = alpha Z with r/alpha irrational
    (decided exactly in the quadratic field); else 'NotWeaklyMixing'."""
    if M.kind == "R":
        return "Mixing"
    if M.kind == "lattice":
        ratio = as_quad(r) / M.a
        return "NotWeaklyMixing" if ratio.is_rational() else "Mixing"
    return "NotWeaklyMixing"


def prediction_record(params: FlowMLCLTParams, req: PredictionRequest) -> dict:
    """JSON-ready record {case, t, W, l, value, breakdown}."""
    value = predict(params, req)
    gauss = gaussian_density(params.gaussian, req.w)
    rec = {
        "case": params.case.variant,
        "t": req.t,
        "W": req.W_of_t,
        "l": req.l,
        "value": value,
        "breakdown": {"gauss": gauss},
    }
    if params.case.variant in ("A", "B", "C"):
        ma, mb = req.marginal_masses(params.nu_tau)
        rec["breakdown"]["haar"] = haar_mass(fiber_group(params.case),
                                             req.target)
        rec["breakdown"]["marginals"] = [ma, mb]
    else:
        rec["breakdown"]["marginals"] = [req.nu_A / params.nu_tau,
                                         req.nu_B / params.nu_tau]
    return rec
