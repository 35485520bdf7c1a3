"""Closed-form limit predictions for each case."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcltflow.errors import (CaseMismatch, LatticeViolation,
                             NonPositiveNuTau, SingularCovariance)
from lcltflow.groups import CaseLabel, Group1D, interval
from lcltflow.predict import (FlowMLCLTParams, PredictionRequest,
                              _card_integral, flow_variance, mixing_classify,
                              predict, prediction_record, rho_of_t)
from lcltflow.quadfield import QuadScalar, as_quad

S2 = QuadScalar.sqrtD(2)
SQ2 = math.sqrt(2)

D_61 = CaseLabel("D", a=1, b=S2, d=1)


def params_61(sigma=1.0):
    return FlowMLCLTParams(D_61, sigma_flow=sigma, nu_tau=2 / 3)


# ---------------------------------------------------------------------------
# gaussian plumbing
# ---------------------------------------------------------------------------

def _case_A(sigma, w):
    # a unit window in R: the case-A value is the density itself
    p = FlowMLCLTParams(CaseLabel("A"), sigma_flow=sigma, nu_tau=1.0)
    return predict(p, PredictionRequest(t=1, w=w,
                                        target=[interval(-0.5, 0.5)]))


def test_gaussian_density_values():
    assert _case_A(1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi),
                                              rel=1e-14)
    assert _case_A(1.0, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-14)
    assert _case_A(2.0, 1.0) == pytest.approx(
        math.exp(-0.25) / math.sqrt(4 * math.pi), rel=1e-14)


def test_gaussian_rejects_bad_covariance():
    for sigma in (0.0, -1.0):
        with pytest.raises(SingularCovariance):
            FlowMLCLTParams(CaseLabel("A"), sigma_flow=sigma, nu_tau=1.0)


def test_flow_variance():
    assert flow_variance(2 / 3, 2 / 3) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(NonPositiveNuTau):
        flow_variance(1.0, 0.0)


# ---------------------------------------------------------------------------
# cases A/B/C
# ---------------------------------------------------------------------------

def test_case_A_full_space_window():
    p = FlowMLCLTParams(CaseLabel("A"), sigma_flow=1.0, nu_tau=1.0)
    req = PredictionRequest(t=100, w=0.0, target=[interval(-0.5, 0.5)])
    assert predict(p, req) == pytest.approx(1 / math.sqrt(2 * math.pi),
                                            rel=1e-14)


def test_case_B_haar_counts_lattice_points():
    p = FlowMLCLTParams(CaseLabel("B", a=Fraction(1, 2)), sigma_flow=1.0,
                        nu_tau=1.0)
    req = PredictionRequest(t=100, w=0.0,
                            target=[interval(-0.5, 0.5, True, True)])
    # points -1/2, 0, 1/2 weighted by the spacing 1/2
    assert predict(p, req) == pytest.approx(
        1.5 / math.sqrt(2 * math.pi), rel=1e-12)


def test_marginal_masses_from_fiber_intervals():
    p = FlowMLCLTParams(CaseLabel("A"), sigma_flow=1.0, nu_tau=2.0)
    req = PredictionRequest(t=10, w=0.0, target=[interval(0, 1)],
                            nu_A=0.5, I=(0.0, 1.0))
    # mu(A x I) = nu_A |I| / nu(tau) = 0.25
    assert predict(p, req) == pytest.approx(
        0.25 / math.sqrt(2 * math.pi), rel=1e-12)


def test_case_mismatch_raises():
    p = FlowMLCLTParams(CaseLabel("Degenerate"), sigma_flow=1.0, nu_tau=1.0)
    with pytest.raises(CaseMismatch):
        predict(p, PredictionRequest(t=1, I=(0, 1), J=(0, 1)))
    with pytest.raises(CaseMismatch):
        rho_of_t(CaseLabel("A"), 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# the lattice phase rho
# ---------------------------------------------------------------------------

def test_rho_exact_and_float_agree():
    # D(1, sqrt2, 1): rho = frac(s + t - l sqrt2)
    r = rho_of_t(D_61, 100, Fraction(1, 5), 0, 1)
    expect = (as_quad(100) + Fraction(1, 5) - S2).mod(as_quad(1))
    assert r == expect
    rf = rho_of_t(D_61, 100.0, 0.2, 0.0, 1)
    assert rf == pytest.approx(float(expect), abs=1e-12)
    assert rf == pytest.approx((100.2 - SQ2) % 1.0, abs=1e-12)


def test_rho_detects_off_lattice_W():
    with pytest.raises(LatticeViolation):
        rho_of_t(D_61, 100.0, 0.0, 0.37, 0)
    # W on the lattice a Z is fine
    rho_of_t(D_61, 100.0, 0.0, 3.0, 0)


def test_rho_case_E_recenters_by_shear():
    E = CaseLabel("E", a_p=1 + S2, b_p=S2, c_p=1, d_p=1)
    # W(t) = (c'/d') t = t is admissible with k = 0
    rE = rho_of_t(E, 100, Fraction(1, 5), 100, 0)
    rD = rho_of_t(CaseLabel("D", a=1, b=S2 - 1, d=1), 100, Fraction(1, 5),
                  0, 0)
    assert rE == rD


# ---------------------------------------------------------------------------
# the card integral
# ---------------------------------------------------------------------------

def _card_brute(c0, d, I, J, n=200_000):
    s = np.linspace(I[0], I[1], n, endpoint=False) + (I[1] - I[0]) / (2 * n)
    rho = np.mod(s + c0, d)
    card = (np.ceil((J[1] - rho) / d) - np.ceil((J[0] - rho) / d))
    return float(card.mean() * (I[1] - I[0]))


@pytest.mark.parametrize("c0,d,I,J", [
    (0.0, 1.0, (0.0, SQ2 - 1), (0.0, SQ2 - 1)),
    (0.3, 1.0, (0.0, 0.5), (0.2, 0.9)),
    (-2.7, 0.7, (0.1, 0.6), (0.05, 1.9)),
    (5.21, 1.3, (0.0, 1.0), (0.0, 0.4)),
])
def test_card_integral_against_riemann_sum(c0, d, I, J):
    assert _card_integral(c0, d, I, J) == pytest.approx(
        _card_brute(c0, d, I, J), abs=2e-4)


def test_card_integral_empty_sets():
    assert _card_integral(0.0, 1.0, (0.5, 0.5), (0.0, 1.0)) == 0.0
    assert _card_integral(0.0, 1.0, (0.0, 1.0), (0.3, 0.3)) == 0.0


# ---------------------------------------------------------------------------
# cases D and E
# ---------------------------------------------------------------------------

def test_case_D_pinned_value():
    # rewards/durations with nu(tau) = 2/3, flow variance 1, t = 100,
    # I = J = [0, sqrt2 - 1), l = 0, W = 0: the phase is rho(s) = s and
    # Card = 1 exactly on J, so the closed form is (3/2)^2 g(0) (sqrt2 - 1)
    p = params_61()
    Iset = (0.0, SQ2 - 1)
    req = PredictionRequest(t=100, l=0, I=Iset, J=Iset)
    got = predict(p, req)
    expect = (1.5 ** 2) * (1 / math.sqrt(2 * math.pi)) * (SQ2 - 1)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.37180643207922826, rel=1e-12)


def test_case_D_off_lattice_target_is_zero_via_violation():
    p = params_61()
    req = PredictionRequest(t=100, l=0, W_of_t=0.37, I=(0, 0.4), J=(0, 0.4))
    with pytest.raises(LatticeViolation):
        predict(p, req)


def test_case_E_equals_sheared_D():
    E = CaseLabel("E", a_p=1 + S2, b_p=S2, c_p=1, d_p=1)
    pE = FlowMLCLTParams(E, sigma_flow=1.0, nu_tau=2 / 3)
    pD = FlowMLCLTParams(CaseLabel("D", a=1, b=S2 - 1, d=1), sigma_flow=1.0,
                         nu_tau=2 / 3)
    Iset = (0.0, 0.3)
    reqE = PredictionRequest(t=50, W_of_t=50.0, l=2, I=Iset, J=(0.1, 0.4))
    reqD = PredictionRequest(t=50, W_of_t=0.0, l=2, I=Iset, J=(0.1, 0.4))
    assert predict(pE, reqE) == pytest.approx(
        predict(pD, reqD), rel=1e-12)


def test_small_d_approaches_continuous_limit():
    # as d -> 0 with irrational b/d, a d Card-integral -> a |I| |J| and the
    # case-D value approaches the case-B value with the same a
    a = 1.0
    Iset = (0.0, 0.3)
    Jset = (0.05, 0.25)
    g0 = 1 / math.sqrt(2 * math.pi)
    target = a * g0 * (Iset[1] - Iset[0]) * (Jset[1] - Jset[0]) * (1.5 ** 2)
    for d in (Fraction(1, 100), Fraction(1, 1000)):
        case = CaseLabel("D", a=1, b=S2 * d, d=d)
        p = FlowMLCLTParams(case, sigma_flow=1.0, nu_tau=2 / 3)
        req = PredictionRequest(t=100, l=0, I=Iset, J=Jset)
        got = predict(p, req)
        assert got == pytest.approx(target, rel=20 * d)


# ---------------------------------------------------------------------------
# mixing classification
# ---------------------------------------------------------------------------

def test_mixing_dichotomy_pinned():
    assert mixing_classify(Group1D.lattice(1), S2) == "Mixing"
    assert mixing_classify(Group1D.full(), 0) == "Mixing"
    assert mixing_classify(Group1D.lattice(1), Fraction(1, 2)) == \
        "NotWeaklyMixing"
    # constant roof: trivial difference group
    assert mixing_classify(Group1D("trivial"), 1) == "NotWeaklyMixing"


def test_prediction_record_shape():
    p = params_61()
    Iset = (0.0, SQ2 - 1)
    rec = prediction_record(p, PredictionRequest(t=100, l=0, I=Iset, J=Iset))
    assert rec["case"] == "D"
    assert rec["value"] == pytest.approx(0.37180643207922826, rel=1e-12)
    assert set(rec["breakdown"]) >= {"gauss", "marginals"}
    # case A: the value is the product of its breakdown, and predict's value
    pa = FlowMLCLTParams(CaseLabel("A"), sigma_flow=2.0, nu_tau=2.0)
    req = PredictionRequest(t=10, w=0.7, target=[interval(0, 1.5)],
                            nu_A=0.5, I=(0.0, 1.0))
    rec = prediction_record(pa, req)
    b = rec["breakdown"]
    assert rec["value"] == predict(pa, req) == (
        b["gauss"] * b["marginals"][0] * b["haar"] * b["marginals"][1])
