"""Monte Carlo estimators: reproducibility, distributional checks, variance."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lcltflow.errors import EmptySetWarning
from lcltflow.montecarlo import (HistogramSpec, _flow, _paths,
                                 estimate_lclt, estimate_mlclt,
                                 estimate_correlation, estimate_sigma,
                                 moderate_dev_diagnostic,
                                 sample_flow_integrals)
from lcltflow.quadfield import QuadScalar
from lcltflow.systems import MarkovShiftBase, PMTowerBase, RenewalBase

from flowref import flow_integrate, sample_stationary

S2 = QuadScalar.sqrtD(2)
SQ2 = math.sqrt(2)


def osc_system():
    third = Fraction(1, 3)
    return RenewalBase([(-1, 2 - S2, third), (0, 1, third),
                        (1, S2 - 1, third)])


def coin_system():
    half = Fraction(1, 2)
    return RenewalBase([(-1, 1, half), (1, 1, half)])


def chain3_system():
    P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 1] = [1.0, SQ2]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[0, 0, 0] = 0.5
    f[1, 1, 0] = -0.5
    return MarkovShiftBase(P, f)


SYSTEMS = {"renewal": osc_system, "markov": chain3_system,
           "pm": lambda: PMTowerBase(0.25)}


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_bit_identical_across_worker_counts():
    sys = osc_system()
    a = sample_flow_integrals(sys, 20.0, 300_000, seed=5, workers=1)
    b = sample_flow_integrals(sys, 20.0, 300_000, seed=5, workers=4)
    assert np.array_equal(a, b)
    e1 = estimate_mlclt(sys, 30.0, 300_000, 5,
                        window=("flow", 0.0, -0.5, 0.5), workers=1)
    e3 = estimate_mlclt(sys, 30.0, 300_000, 5,
                        window=("flow", 0.0, -0.5, 0.5), workers=3)
    assert e1.point == e3.point and e1.std_error == e3.std_error


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_engine_bit_identical_across_worker_counts(kind):
    sys = SYSTEMS[kind]()
    # two path blocks
    N = (1 << 18) + 300
    a = sample_flow_integrals(sys, 6.0, N, seed=8, workers=1)
    b = sample_flow_integrals(sys, 6.0, N, seed=8, workers=2)
    assert np.array_equal(a, b)
    # three 512-trajectory blocks of base sums
    s1 = estimate_sigma(sys, n_blocks=1100, block_len=50, seed=8, workers=1)
    s2 = estimate_sigma(sys, n_blocks=1100, block_len=50, seed=8, workers=3)
    assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_engine_matches_scalar_reference(kind):
    # the n = 1 scalar loop over system.step and the vectorised engine
    # consume the same random stream and land on the same cell
    sys = SYSTEMS[kind]()
    tau = lambda x: sys.tau(np.array([x]))[0]
    phi = lambda x: sys.phi(np.array([x]))[0]
    for seed in range(8):
        t = 3.0 + 2.5 * seed
        start = sample_stationary(sys, np.random.default_rng(seed))
        blk = _paths(sys, 0.0, 1, np.random.default_rng(seed))
        assert blk["start"][0] == start.state and blk["s0"][0] == start.s
        val, end, ncross = flow_integrate(sys, start, t,
                                          np.random.default_rng(100 + seed))
        eng = _flow(sys, np.array([start.state]), np.array([start.s]), t,
                    np.random.default_rng(100 + seed))
        assert eng["end"][0] == end.state
        assert eng["ncross"][0] == ncross
        assert eng["s_end"][0] == pytest.approx(end.s, abs=1e-12)
        raw = (eng["psi"][0] - start.s * phi(start.state) / tau(start.state)
               + eng["s_end"][0] * phi(end.state) / tau(end.state))
        assert raw == pytest.approx(val, abs=1e-12)


class _WithoutLeap:
    """A system with its ``leap`` hidden: the engine crosses one cell per
    loop pass."""

    def __init__(self, system):
        self.system = system

    def __getattr__(self, name):
        if name == "leap":
            raise AttributeError(name)
        return getattr(self.system, name)


def _two_sample_chi2_p(a, b):
    """p-value of the chi-square test that two samples of integer values
    share one law, with sparse values pooled into classes of >= 20."""
    vals, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    counts = np.stack([np.bincount(inv[:len(a)], minlength=len(vals)),
                       np.bincount(inv[len(a):], minlength=len(vals))])
    classes, run = [], np.zeros(2)
    for col in counts.T:
        run = run + col
        if run.sum() >= 20:
            classes.append(run)
            run = np.zeros(2)
    classes[-1] = classes[-1] + run
    return stats.chi2_contingency(np.array(classes).T)[1]


def test_renewal_leap_keeps_the_law_of_the_crossing_loop():
    # section 6.1 at t = 100: crossing counts and section sums of the engine
    # with the leap against the same system stepped one crossing at a time
    sys = osc_system()
    n = 1 << 16
    leapt = _paths(sys, 100.0, n, np.random.default_rng(31))
    stepped = _paths(_WithoutLeap(sys), 100.0, n, np.random.default_rng(32))
    assert leapt["ncross"].mean() > 140
    assert np.all((leapt["s_end"] >= 0)
                  & (leapt["s_end"] < sys.tau(leapt["end"])))
    for field in ("ncross", "psi"):
        a, b = (np.rint(blk[field]).astype(np.int64)
                for blk in (leapt, stepped))
        assert _two_sample_chi2_p(a, b) > 0.01, field


def test_seed_changes_samples():
    sys = osc_system()
    a = sample_flow_integrals(sys, 10.0, 10_000, seed=1)
    b = sample_flow_integrals(sys, 10.0, 10_000, seed=2)
    assert not np.array_equal(a, b)


def test_lclt_marginalizes_mlclt():
    # with full conditioning sets the two estimators share the code path and
    # must agree exactly, not just statistically
    sys = osc_system()
    spec = HistogramSpec(t=25.0, windows=[("flow", 0.0, -0.5, 0.5),
                                          ("flow", 1.0, -0.5, 0.5),
                                          ("flow", -1.0, -0.5, 0.5),
                                          ("section", 1, 0)])
    hist = estimate_lclt(sys, spec, 200_000, seed=9)
    for win, est in zip(spec.windows, hist):
        joint = estimate_mlclt(sys, 25.0, 200_000, 9, window=win)
        assert (est.point, est.std_error) == (joint.point, joint.std_error)


# ---------------------------------------------------------------------------
# distributional oracles
# ---------------------------------------------------------------------------

def test_coin_section_value_is_binomial():
    # unit roof: by time t = 9 every path has counted exactly 9 coin cells,
    # so the section value is a sum of 9 independent +/-1 flips
    sys = coin_system()
    N = 1 << 18
    got = estimate_mlclt(sys, 9.0, N, 17, window=("section", 1, 1))
    p = got.point / 3.0
    se = got.std_error / 3.0
    assert abs(p - 126 / 512) < 5 * se
    got2 = estimate_mlclt(sys, 9.0, N, 17, window=("section", 1, 3))
    p2 = got2.point / 3.0
    se2 = got2.std_error / 3.0
    assert abs(p2 - 84 / 512) < 5 * se2
    # even section values are unreachable in 9 cells
    got3 = estimate_mlclt(sys, 9.0, N, 17, window=("section", 2, 0))
    assert got3.point == 0.0
    # zero hits keep the error of one hit: sqrt(t) sqrt(p (1 - p) / N) at
    # p = 1 / N
    assert got3.std_error == pytest.approx(3.0 * math.sqrt(1 - 1 / N) / N,
                                           rel=1e-12)


def test_flow_window_mean_matches_gaussian():
    # coin flow integral over t = 400 is approximately N(0, t); its values
    # concentrate on a period-2 pattern, so a window spanning one full
    # period carries mass (period) x (central density): sqrt(t) P -> 2 g(0)
    sys = coin_system()
    est = estimate_mlclt(sys, 400.0, 1 << 19, 3,
                         window=("flow", 0.0, -1.0, 1.0))
    g0 = 1 / math.sqrt(2 * math.pi)
    assert abs(est.point - 2 * g0) < 3 * est.std_error + 0.05 * 2 * g0


def test_estimate_sigma_matches_exact_iid_covariance():
    sys = osc_system()
    cov, se = estimate_sigma(sys, n_blocks=800, block_len=500, seed=11)
    var_x = 2 / 3
    var_y = (26 - 18 * SQ2) / 9
    cov_xy = (2 * SQ2 - 3) / 3
    assert abs(cov[0, 0] - var_x) < 4 * se[0, 0]
    assert abs(cov[1, 1] - var_y) < 4 * se[1, 1]
    assert abs(cov[0, 1] - cov_xy) < 4 * se[0, 1]
    # flow variance of the oscillating system is exactly 1
    assert cov[0, 0] / sys.nu_tau == pytest.approx(
        1.0, abs=6 * se[0, 0] / sys.nu_tau)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def _band(states, s):
    return np.mod(s, 1.0) < 0.3


def test_correlation_periodic_vs_mixing():
    # integer-roof coin: the flow is a circle extension, so band sets stay
    # fully correlated at integer times; the sqrt2 system decorrelates
    rows_p = estimate_correlation(coin_system(), _band, _band, [6.0],
                                  100_000, seed=4)
    rows_m = estimate_correlation(osc_system(), _band, _band, [6.0],
                                  100_000, seed=4)
    corr_p = rows_p[0][1]
    corr_m = rows_m[0][1]
    assert corr_p == pytest.approx(0.3 - 0.09, abs=0.01)
    assert abs(corr_m) < 0.03
    assert corr_p > 5 * abs(corr_m)


def test_correlation_requires_increasing_grid():
    with pytest.raises(ValueError):
        estimate_correlation(coin_system(), _band, _band, [2.0, 1.0],
                             1000, seed=0)


# ---------------------------------------------------------------------------
# edge behavior
# ---------------------------------------------------------------------------

def test_lclt_without_fibers_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", EmptySetWarning)
        estimate_lclt(osc_system(), HistogramSpec(t=5.0, windows=[
            ("flow", 0.0, -1, 1)]), 5, seed=0)


def test_empty_conditioning_set_warns():
    sys = osc_system()
    with pytest.warns(EmptySetWarning):
        estimate_mlclt(sys, 5.0, 2000, 0, window=("flow", 0.0, -1, 1),
                       I=(0.0, 1e-9))


def test_moderate_deviation_table_monotone():
    sys = osc_system()
    table = moderate_dev_diagnostic(sys, [100.0], [1.0, 2.0, 4.0], R=10.0,
                                    seed=6, N=50_000)
    row = table[100.0]
    vals = row["value"]
    assert list(row["K"]) == [1.0, 2.0, 4.0]
    # the excluded index set shrinks as K grows: values are non-increasing
    assert vals[0] >= vals[1] >= vals[2] >= 0
    assert row["n_samples"] == 50_000
