"""Closed-form limit predictions for suspension-flow local limit theorems.

Cases A-C produce a product limit: Gaussian density x marginal masses x Haar
mass of the target window.  Cases D and E produce a t-dependent value built
from a lattice-counting integral; the integral is a finite sum of interval
overlaps, so no quadrature error enters the comparisons.  One computation
serves both ``predict`` and ``prediction_record``.  The mixing criterion
decides (exactly, in the quadratic field) whether the flow mixes at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import (CaseMismatch, LatticeViolation, NonPositiveNuTau,
                     SingularCovariance)
from .groups import CaseLabel, Group1D, fiber_group, haar_mass, shear_reduce
from .quadfield import QuadScalar, as_quad

_EXACT_TYPES = (QuadScalar, Fraction, int)
_LATTICE_TOL = 1e-9     # relative slack of a float W(t) on its lattice


def flow_variance(var_phi: float, nu_tau: float) -> float:
    """Flow variance Sigma(phi) = Var(phi_check) / nu(tau), from the
    asymptotic variance of the base sums of phi_check."""
    if nu_tau <= 0:
        raise NonPositiveNuTau(f"mean roof must be positive, got {nu_tau}")
    if var_phi < 0:
        raise SingularCovariance(f"base variance {var_phi} is negative")
    return float(var_phi) / nu_tau


class FlowMLCLTParams:
    """Everything the limit formulas need besides the request itself, in
    the minimal specialization (transfer functions h = h_tau = 0)."""

    def __init__(self, case: CaseLabel, sigma_flow: float, nu_tau: float):
        if nu_tau <= 0:
            raise NonPositiveNuTau(f"nu(tau) = {nu_tau}")
        if sigma_flow <= 0:
            raise SingularCovariance("flow variance must be positive")
        self.case = case
        self.sigma_flow = sigma_flow
        self.nu_tau = nu_tau


class PredictionRequest:
    """A single MLCLT evaluation point.

    For cases A-C, ``target`` is the window H in V (a haar_mass set spec)
    and the flow-measure masses of the conditioning sets are nu_A (full
    fiber) or nu_A |I| / nu_tau when an interval I is given, likewise for B.
    For cases D/E, ``I`` and ``J`` are the fiber intervals of the product
    sets and ``l`` indexes the target fiber {l a}.
    """

    def __init__(self, t: float, W_of_t: float = 0.0, w: float = 0.0,
                 l: int = 0, nu_A: float = 1.0, nu_B: float = 1.0,
                 I: Optional[tuple] = None, J: Optional[tuple] = None,
                 target: object = None):
        self.t, self.W_of_t, self.w, self.l = t, W_of_t, w, l
        self.nu_A, self.nu_B = nu_A, nu_B
        self.I, self.J, self.target = I, J, target

    def marginal_masses(self, nu_tau):
        ma = (self.nu_A * float(self.I[1] - self.I[0]) / nu_tau
              if self.I is not None else self.nu_A)
        mb = (self.nu_B * float(self.J[1] - self.J[0]) / nu_tau
              if self.J is not None else self.nu_B)
        return float(ma), float(mb)


def _is_exact(*vals):
    return all(isinstance(v, _EXACT_TYPES) for v in vals)


def _d_params(case: CaseLabel):
    """(a, b, d, shear v) for a D or E label; v = 0 in case D."""
    if case.variant == "D":
        return case.a, case.b, case.d, as_quad(0)
    if case.variant == "E":
        dlabel, v = shear_reduce(case)
        return dlabel.a, dlabel.b, dlabel.d, v
    raise CaseMismatch(f"case {case.variant} has no lattice (D/E) "
                       "parameters")


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


def _gauss(sigma, w):
    """Centered normal density of variance sigma at w."""
    return (1.0 / math.sqrt(2 * math.pi * sigma)
            * math.exp(-w * w / (2 * sigma)))


def _card_integral(c0: float, d: float, I: tuple, J: tuple) -> float:
    """integral over s in I of Card(m : s + c0 + m d in J) ds, summed the
    other way round: the sum over m of the overlaps |I n (J - c0 - m d)|.
    Heights are nonnegative, so I and J are cut at 0, as in Monte Carlo and
    the exact oracle."""
    I0, I1 = max(float(I[0]), 0.0), float(I[1])
    J0, J1 = max(float(J[0]), 0.0) - c0, float(J[1]) - c0
    ms = range(math.floor((J0 - I1) / d), math.ceil((J1 - I0) / d) + 1)
    return sum((max(0.0, min(I1, J1 - m * d) - max(I0, J0 - m * d))
                for m in ms), 0.0)


def _limit(params: FlowMLCLTParams, req: PredictionRequest):
    """The predicted limit and its factors, as (value, breakdown).

    Cases A-C: Gaussian density at w times the conditioning masses times the
    Haar mass of the target window.  Cases D and E: the lattice-counting
    formula (nu(A)/nu(tau)) g(w) a d [integral of Card over I] (nu(B)/nu(tau)),
    E on its shear-reduced D parameters with the phase and the W(t) check
    of rho_of_t.
    """
    case = params.case
    gauss = _gauss(params.sigma_flow, req.w)
    if case.variant in ("A", "B", "C"):
        ma, mb = req.marginal_masses(params.nu_tau)
        haar = haar_mass(fiber_group(case), req.target)
        return gauss * ma * haar * mb, {"gauss": gauss, "haar": haar,
                                        "marginals": [ma, mb]}
    a, _, d, _ = _d_params(case)
    if req.I is None or req.J is None:
        raise ValueError("cases D/E require fiber intervals I and J")
    c0 = float(rho_of_t(case, req.t, 0, req.W_of_t, req.l))
    ma, mb = req.nu_A / params.nu_tau, req.nu_B / params.nu_tau
    integral = _card_integral(c0, float(d), req.I, req.J)
    return (ma * gauss * float(a) * float(d) * integral * mb,
            {"gauss": gauss, "marginals": [ma, mb]})


def predict(params: FlowMLCLTParams, req: PredictionRequest) -> float:
    """Predicted scaled limit t^(1/2) Xi_t for the request, by case label."""
    return _limit(params, req)[0]


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
    """JSON-ready record {case, t, W, l, value, breakdown}; exact t and W
    are recorded as floats."""
    value, breakdown = _limit(params, req)
    return {"case": params.case.variant, "t": float(req.t),
            "W": float(req.W_of_t), "l": req.l, "value": value,
            "breakdown": breakdown}
