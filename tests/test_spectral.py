"""Twisted transfer-operator oracles for finite Markov shifts."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from lcltflow.errors import NoGapError
from lcltflow.spectral import (EigenCurve, TwistedOperatorModel,
                               eigen_curve_rows, expansion_fit, fourier_lclt,
                               leading_eigenvalue, twisted_matrix,
                               unit_modulus_scan)
from lcltflow.systems import MarkovShiftBase, load_system


def coin_chain():
    """iid +/-1 with unit roof as a 2-state chain: value depends only on
    the landing state."""
    P = [[0.5, 0.5], [0.5, 0.5]]
    f = np.zeros((2, 2, 2))
    f[:, 0, 0] = -1.0
    f[:, 1, 0] = 1.0
    f[:, :, 1] = 1.0
    return MarkovShiftBase(P, f)


P3 = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


def chain3():
    """Three-state chain with zero-mean values and mean roof 5/3."""
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 0] = [0.5, 1.0]
    f[0, 1] = [1.0, 2.0]
    f[1, 1] = [-0.5, 1.0]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[2, 2] = [0.0, 1.0]
    return MarkovShiftBase(P3, f)


def int_chain3(roofs=(1, 1, 1, 1, 1, 1)):
    """Integer-valued observable on the same transition structure, with
    stationary mean zero (all six edges carry weight 1/6), and the given
    roofs on the edges 00, 01, 11, 12, 20, 22."""
    f = np.zeros((3, 3, 2))
    for (i, j), r in zip([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)],
                         roofs):
        f[i, j, 1] = r
    f[0, 0, 0] = 1.0
    f[0, 1, 0] = -1.0
    f[1, 1, 0] = 2.0
    f[1, 2, 0] = -2.0
    f[2, 0, 0] = 3.0
    f[2, 2, 0] = -3.0
    return MarkovShiftBase(P3, f)


# ---------------------------------------------------------------------------
# eigenvalue curve
# ---------------------------------------------------------------------------

def test_coin_leading_eigenvalue_is_cos_t():
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    curve = EigenCurve(model)
    for t in (0.1, 0.3, 0.7, 1.2):
        assert curve.lam([t]) == pytest.approx(math.cos(t), abs=1e-12)


def test_no_gap_at_degenerate_twist():
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    with pytest.raises(NoGapError):
        leading_eigenvalue(twisted_matrix(model, [math.pi / 2]))


def bench_chain():
    """The chain of the benchmark's markov-flow-verify config."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "configs",
                        "markov_flow_verify.json")
    with open(path) as fh:
        return load_system(json.load(fh)["system"])


def test_coin_cumulants():
    # log cos t = -t^2/2 - t^4/12 - ...: cumulants 0, 1, 0, -2
    coin = coin_chain()
    coef = coin._log_eigenvalue_series(coin.f[:, :, 0], 4)
    kappa = coef * [math.factorial(k) for k in range(1, 5)]
    np.testing.assert_allclose(kappa, [0, 1, 0, -2], rtol=0, atol=1e-15)


def test_coin_expansion_fit():
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    drift, m, order = expansion_fit(EigenCurve(model))
    # log cos t = -t^2/2 - t^4/12 - ...: variance 1, drift 0, quartic tail
    assert abs(drift[0]) < 1e-10
    assert m[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert order == 4


def test_chain3_expansion_drift_matches_means():
    sys = chain3()
    assert sys.nu_phi == pytest.approx(0.0, abs=1e-14)
    assert sys.nu_tau == pytest.approx(5 / 3, abs=1e-14)
    model = TwistedOperatorModel(sys)
    drift, m, order = expansion_fit(EigenCurve(model))
    assert drift[0] == pytest.approx(0.0, abs=1e-8)
    assert drift[1] == pytest.approx(5 / 3, abs=1e-8)
    # the covariance matrix must be symmetric positive definite
    assert np.allclose(m, m.T)
    assert np.all(np.linalg.eigvalsh(m) > 0)
    assert order == 3


def test_bench_chain_expansion_has_a_cubic_term():
    # kappa_3 of phi is 0 on this chain, but not that of phi + tau
    model = TwistedOperatorModel(bench_chain())
    assert expansion_fit(EigenCurve(model))[2] == 3


def test_deterministic_roof_expansion_is_exact():
    model = TwistedOperatorModel(coin_chain(), components=(1,))
    drift, m, order = expansion_fit(EigenCurve(model))
    # constant roof 1: log lambda_t = i t exactly
    assert drift[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(m[0, 0]) < 1e-9
    assert order == math.inf


# ---------------------------------------------------------------------------
# fourier inversion
# ---------------------------------------------------------------------------

def test_lattice_exact_coin_binomial():
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    assert fourier_lclt(model, 10, [0.0]) == pytest.approx(252 / 1024,
                                                           abs=1e-10)
    assert fourier_lclt(model, 10, [2.0]) == pytest.approx(210 / 1024,
                                                           abs=1e-10)
    # parity: odd values unreachable in 10 steps
    assert fourier_lclt(model, 10, [3.0]) == pytest.approx(0.0, abs=1e-10)
    # off-lattice target short-circuits to 0
    assert fourier_lclt(model, 10, [0.5]) == 0.0
    assert fourier_lclt(model, 0, [0.0]) == 1.0
    assert fourier_lclt(model, 0, [1.0]) == 0.0


def _enumerate_chain3_pmf(sys, n):
    """Exact pmf of S_n = (phi, tau) sums under the stationary start, by
    path enumeration."""
    pmf = {}
    states = range(3)
    for path in itertools.product(states, repeat=n + 1):
        p = sys.stationary[path[0]]
        s = np.zeros(2)
        ok = True
        for i, j in zip(path, path[1:]):
            if sys.P[i][j] == 0:
                ok = False
                break
            p *= sys.P[i][j]
            s += sys.f[i, j]
        if ok and p > 0:
            key = tuple(int(round(x)) for x in s)
            pmf[key] = pmf.get(key, 0.0) + p
    return pmf


def test_lattice_exact_matches_path_enumeration():
    sys = int_chain3()
    model = TwistedOperatorModel(sys, components=(0,))
    assert abs(model.nu_f[0]) < 1e-14
    pmf = {}
    for (s, _), p in _enumerate_chain3_pmf(sys, 4).items():
        pmf[s] = pmf.get(s, 0.0) + p
    for v in range(-8, 9):
        assert fourier_lclt(model, 4, [float(v)]) == pytest.approx(
            pmf.get(v, 0.0), abs=1e-10)


def test_lattice_exact_d2_matches_path_enumeration():
    sys = int_chain3(roofs=(1, 2, 3, 1, 2, 3))
    model = TwistedOperatorModel(sys)
    # v is taken relative to n nu_f = (0, 8): mean phi 0, mean roof 2
    assert 4 * model.nu_f == pytest.approx([0.0, 8.0], abs=1e-12)
    pmf = _enumerate_chain3_pmf(sys, 4)
    # the reachable box is [-12, 12] x [4, 12]; go one beyond it
    for s in itertools.product(range(-13, 14), range(3, 14)):
        got = fourier_lclt(model, 4, [s[0], s[1] - 8])
        assert got == pytest.approx(pmf.get(s, 0.0), abs=1e-10)


def test_lattice_exact_coin_d2_binomial():
    # (S_6, T_6) = (0, 6) relative to n nu_f = (0, 6): C(6, 3) / 2^6
    model = TwistedOperatorModel(coin_chain())
    assert fourier_lclt(model, 6, [0.0, 0.0]) == pytest.approx(20 / 64,
                                                               abs=1e-12)
    assert fourier_lclt(model, 6, [2.0, 0.0]) == pytest.approx(15 / 64,
                                                               abs=1e-12)


def test_lattice_exact_outside_reachable_box_is_zero():
    # |S_10| <= 10 and T_10 = 10 exactly: the DFT would alias these targets
    # onto reachable points, so they must be cut off by the box
    coin1 = TwistedOperatorModel(coin_chain(), components=(0,))
    assert fourier_lclt(coin1, 10, [12.0]) == 0.0
    assert fourier_lclt(coin1, 10, [-22.0]) == 0.0
    coin2 = TwistedOperatorModel(coin_chain())
    assert fourier_lclt(coin2, 10, [0.0, 1.0]) == 0.0


def test_lattice_exact_rejects_noninteger_values():
    model = TwistedOperatorModel(chain3(), components=(0,))
    with pytest.raises(ValueError, match="integer-valued"):
        fourier_lclt(model, 4, [0.0])


# ---------------------------------------------------------------------------
# unit-modulus scan
# ---------------------------------------------------------------------------

def test_unit_modulus_scan_detects_lattice():
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    grid = [[t] for t in np.concatenate([np.pi * np.arange(-3, 4),
                                         [0.4, 1.1, 2.0]])]
    res = unit_modulus_scan(model, grid)
    hits = sorted(t[0] for t, _ in res["detections"])
    assert hits == pytest.approx(list(np.pi * np.arange(-3, 4)), abs=1e-12)
    assert res["inferred_M"].kind == "lattice"
    assert float(res["inferred_M"].a) == pytest.approx(2.0, abs=1e-12)
    # lambda(pi) = -1: coset shift 1 modulo the lattice spacing 2
    assert res["shift"] == pytest.approx(1.0, abs=1e-9)


def test_unit_modulus_scan_shift_sign_on_symmetric_grid():
    # iid values 1 and 4: S_n lies in n + 3Z, so the coset shift is 1, not
    # -1 = 2 mod 3, whichever of +-t0 the grid lists first
    f = np.zeros((2, 2, 2))
    f[:, 0, 0] = 1.0
    f[:, 1, 0] = 4.0
    f[:, :, 1] = 1.0
    model = TwistedOperatorModel(MarkovShiftBase([[0.5, 0.5], [0.5, 0.5]], f),
                                 components=(0,))
    grid = [[k * (2 * np.pi / 3) / 8] for k in range(-24, 25)]
    for g in (grid, grid[24:]):
        res = unit_modulus_scan(model, g)
        assert float(res["inferred_M"].a) == pytest.approx(3.0, abs=1e-12)
        assert res["shift"] == pytest.approx(1.0, abs=1e-9)


def test_unit_modulus_scan_aperiodic_case():
    model = TwistedOperatorModel(chain3(), components=(0,))
    grid = [[t] for t in np.linspace(0.3, 6.0, 40)]
    res = unit_modulus_scan(model, grid)
    assert res["detections"] == []
    assert res["inferred_M"].kind == "R"


def test_grid_scans_match_per_point_leading_eigenvalue():
    model = TwistedOperatorModel(chain3())
    axis = np.pi * np.arange(-8, 9) / 8
    grid = [[a, b] for a in axis for b in axis]
    rows = eigen_curve_rows(model, grid)
    scan = unit_modulus_scan(model, grid)
    hits = []
    for t, row in zip(grid, rows):
        assert row[:2] == t
        try:
            lam, _ = leading_eigenvalue(twisted_matrix(model, t))
        except NoGapError:
            assert row[5] < 1e-8
            continue
        assert complex(row[2], row[3]) == pytest.approx(lam, abs=1e-12)
        assert row[4] == pytest.approx(abs(lam), abs=1e-12)
        if abs(abs(lam) - 1) < 1e-8:
            hits.append((tuple(t), lam))
    assert len(scan["detections"]) == len(hits) >= 1
    for (t, lam), (t_ref, lam_ref) in zip(scan["detections"], hits):
        assert t == t_ref
        assert lam == pytest.approx(lam_ref, abs=1e-12)


def test_eigen_curve_rows_shape():
    model = TwistedOperatorModel(chain3())
    rows = eigen_curve_rows(model, [[0.0, 0.0], [0.1, 0.2]])
    assert len(rows) == 2 and len(rows[0]) == 6
    assert rows[0][2] == pytest.approx(1.0)   # lambda(0) = 1
    assert rows[0][5] > 0                     # spectral gap at 0
