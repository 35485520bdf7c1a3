"""Concrete suspension-flow models: renewal, Markov shift, intermittent map."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lcltflow.errors import ConfigError, MixedRingError, ReturnTimeOverflow
from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.systems import (MarkovShiftBase, PMTowerBase, RenewalBase,
                              _pm_left, _pm_pullback, load_system,
                              pm_first_return, pm_map)

from flowref import FlowPoint, flow_integrate, sample_stationary

S2 = QuadScalar.sqrtD(2)
S3 = QuadScalar.sqrtD(3)


def osc_system():
    third = Fraction(1, 3)
    return RenewalBase([(-1, 2 - S2, third), (0, 1, third),
                        (1, S2 - 1, third)])


def coin_system():
    half = Fraction(1, 2)
    return RenewalBase([(-1, 1, half), (1, 1, half)])


# ---------------------------------------------------------------------------
# renewal
# ---------------------------------------------------------------------------

def test_renewal_exact_mean_roof():
    sys = osc_system()
    assert sys.nu_tau_exact == as_quad(Fraction(2, 3))
    assert sys.nu_tau == pytest.approx(2 / 3, abs=1e-15)


def test_renewal_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="nonzero mean"):
        RenewalBase([(1, 1, half), (2, 1, half)])
    with pytest.raises(ValueError, match="sum to"):
        RenewalBase([(-1, 1, half), (1, 1, Fraction(1, 3))])
    with pytest.raises(ValueError, match="positive"):
        RenewalBase([(-1, 0, half), (1, 1, half)])
    with pytest.raises(ValueError, match="nonnegative"):
        RenewalBase([(2, 1, -half), (0, 1, half), (1, 1, 1)])


def test_renewal_mixed_ring_falls_back_to_float_mean():
    third = Fraction(1, 3)
    sys = RenewalBase([(-1, 1, third), (0, S2, third), (1, S3, third)])
    assert sys.nu_tau_exact is None
    assert sys.nu_tau == pytest.approx(
        (1 + math.sqrt(2) + math.sqrt(3)) / 3, abs=1e-14)


def test_renewal_value_group_and_tau_support():
    sys = osc_system()
    gens, shift = sys.value_group()
    assert shift == (as_quad(-1), 2 - S2)
    assert gens == [(as_quad(1), S2 - 1), (as_quad(2), 2 * S2 - 3)]


def test_renewal_sampling_frequencies():
    sys = osc_system()
    rng = np.random.default_rng(7)
    draws = sys.draw_base(20000, rng)
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, [1 / 3, 1 / 3, 1 / 3], atol=0.02)
    nxt = np.bincount(sys.step(draws, rng), minlength=3) / len(draws)
    assert np.allclose(nxt, [1 / 3, 1 / 3, 1 / 3], atol=0.02)
    sb = sys.draw_start(20000, rng)
    sfreq = np.bincount(sb, minlength=3) / len(sb)
    expect = sys.probs * sys.ys / sys.nu_tau
    assert np.allclose(sfreq, expect, atol=0.02)


def test_renewal_leap_stays_within_budget():
    sys = osc_system()
    rng = np.random.default_rng(21)
    budget = rng.uniform(-2, 300, 20_000)
    count, phi_sum, tau_sum = sys.leap(budget, rng)
    assert count.dtype == np.int64 and np.all(count >= 0)
    slack = np.maximum(budget, 0) - tau_sum
    assert np.all(slack >= 0) and np.all(slack < sys.ys.max())
    assert np.all(count[budget < 1] == 0)
    # every cell is at least min y long
    assert np.all(tau_sum >= count * sys.ys.min() - 1e-9)


def test_renewal_leap_coin_parity():
    # unit cells of reward +-1: the phi sum of c cells has c's parity and
    # lies in [-c, c]; the leap takes floor(budget) cells
    sys = coin_system()
    rng = np.random.default_rng(22)
    budget = rng.uniform(-2, 300, 20_000)
    count, phi_sum, tau_sum = sys.leap(budget, rng)
    assert np.array_equal(count, np.floor(np.maximum(budget, 0)))
    assert np.array_equal(tau_sum, count)
    assert np.all((phi_sum - count) % 2 == 0)
    assert np.all(np.abs(phi_sum) <= count)


def test_renewal_leap_skips_zero_probability_atoms():
    # zero-probability atoms, one of them the longest and trailing ones at
    # the end of the chain: no cell of them, and no 0/0 probability
    half = Fraction(1, 2)
    sys = RenewalBase([(0, 5, 0), (-1, 1, half), (1, 2, half), (3, 7, 0),
                       (2, 9, 0)])
    rng = np.random.default_rng(23)
    budget = rng.uniform(-2, 300, 5000)
    count, phi_sum, tau_sum = sys.leap(budget, rng)
    assert np.all(np.isfinite(phi_sum)) and np.all(np.isfinite(tau_sum))
    # with only the atoms (-1, 1) and (1, 2): tau = c + k, phi = k - (c - k)
    k = tau_sum - count
    assert np.all((k >= 0) & (k <= count))
    assert np.array_equal(phi_sum, 2 * k - count)
    slack = np.maximum(budget, 0) - tau_sum
    assert np.all(slack >= 0) and np.all(slack < 2)
    single = RenewalBase([(0, S2, 1), (1, 3, 0)])
    count, phi_sum, tau_sum = single.leap(np.array([10.0, 0.5]), rng)
    assert count.tolist() == [7, 0] and phi_sum.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# flow integration (scalar reference in tests/flowref.py)
# ---------------------------------------------------------------------------

def test_flow_integrate_additive_and_counts_crossings():
    # path-by-path additivity on one stream holds for the one-crossing loop
    # alone: a leap's draws depend on the budget, so use a system without one
    sys = MarkovShiftBase(P3, f3_table())
    rng = np.random.default_rng(3)
    start = sample_stationary(sys, rng)
    rng2 = np.random.default_rng(99)
    full, end, ncross = flow_integrate(sys, start, 7.3, rng2)
    rng3 = np.random.default_rng(99)
    a, mid, n1 = flow_integrate(sys, start, 3.1, rng3)
    b, end2, n2 = flow_integrate(sys, mid, 7.3 - 3.1, rng3)
    assert a + b == pytest.approx(full, abs=1e-12)
    assert n1 + n2 == ncross
    assert end2.s == pytest.approx(end.s, abs=1e-12)
    assert 0 <= end.s < sys.tau(np.array([end.state]))[0]


def test_flow_integrate_deterministic_single_atom():
    sys = RenewalBase([(0, 2, 1)])
    val, end, n = flow_integrate(sys, FlowPoint(0, 0.5), 5.0,
                                 np.random.default_rng(0))
    assert val == 0.0
    assert n == 2              # crossings at elapsed 1.5 and 3.5
    assert end.s == pytest.approx(1.5)


def test_flow_integrate_rejects_bad_height():
    sys = coin_system()
    with pytest.raises(ValueError):
        flow_integrate(sys, FlowPoint(0, 1.5), 1.0)
    with pytest.raises(ValueError):
        flow_integrate(sys, FlowPoint(0, 0.0), -1.0)


def test_sample_stationary_height_uniform():
    sys = coin_system()
    rng = np.random.default_rng(11)
    ss = [sample_stationary(sys, rng).s for _ in range(5000)]
    assert np.mean(ss) == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# markov shift
# ---------------------------------------------------------------------------

P3 = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


def f3_table():
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 1] = [1.0, 2.0]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[0, 0, 0] = 0.5
    f[1, 1, 0] = -0.5
    return f


def test_markov_stationary_and_means():
    sys = MarkovShiftBase(P3, f3_table())
    assert np.allclose(sys.stationary, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    edge_w = sys.stationary[:, None] * np.asarray(P3)
    f = f3_table()
    assert sys.nu_tau == pytest.approx(np.sum(edge_w * f[:, :, 1]), abs=1e-14)
    assert sys.nu_phi == pytest.approx(np.sum(edge_w * f[:, :, 0]), abs=1e-14)


def test_markov_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        MarkovShiftBase([[0.5, 0.4], [0.5, 0.5]], np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="irreducible"):
        MarkovShiftBase([[1.0, 0.0], [0.0, 1.0]], np.ones((2, 2, 2)))
    bad = np.ones((2, 2, 2))
    bad[0, 1, 1] = 0.0
    with pytest.raises(ValueError, match="positive"):
        MarkovShiftBase([[0.5, 0.5], [0.5, 0.5]], bad)


def test_markov_step_follows_transition_structure():
    sys = MarkovShiftBase(P3, f3_table())
    rng = np.random.default_rng(5)
    edge = sys.draw_base(200, rng)
    assert np.all(sys.P[edge // 3, edge % 3] > 0)
    for _ in range(200):
        nxt = sys.step(edge, rng)
        assert np.array_equal(nxt // 3, edge % 3)
        assert np.all(sys.P[nxt // 3, nxt % 3] > 0)
        edge = nxt
    # edge values are the per-transition table entries
    assert np.array_equal(sys.phi(edge), f3_table()[edge // 3, edge % 3, 0])
    assert np.array_equal(sys.tau(edge), f3_table()[edge // 3, edge % 3, 1])


class _TopDrawRng:
    """Every uniform draw is 1 - 2^-53, the largest double below 1."""

    def random(self, n):
        return np.full(n, 1 - 2.0 ** -53)


def test_top_uniform_draw_never_lands_on_zero_weight_cell():
    # float cumulative sums of 0.6, 0.3, 0.1 end at 1 - 2^-53 itself, so the
    # top draw is past every cumulative entry
    assert np.cumsum([0.6, 0.3, 0.1])[-1] == 1 - 2.0 ** -53
    rng = _TopDrawRng()
    P = [[0, .6, .3, .1], [.5, .5, 0, 0], [.5, 0, .5, 0], [.5, 0, 0, .5]]
    chain = MarkovShiftBase(P, np.ones((4, 4, 2)))
    w = chain.P.ravel()
    assert np.all(w[chain.step(np.arange(16), rng)] > 0)
    assert np.all(w[chain.draw_start(4, rng)] > 0)
    assert np.all(w[chain.draw_base(4, rng)] > 0)
    renewal = RenewalBase([(1, 1, Fraction(6, 10)), (-1, 1, Fraction(3, 10)),
                           (-3, 1, Fraction(1, 10)), (5, 1, 0)])
    assert np.all(renewal.draw_base(4, rng) == 2)
    assert np.all(renewal.draw_start(4, rng) == 2)


# ---------------------------------------------------------------------------
# intermittent interval map
# ---------------------------------------------------------------------------

def test_pm_map_branches():
    assert pm_map(0.75, 0.25) == pytest.approx(0.5)
    assert pm_map(0.5, 0.25) == pytest.approx(
        0.5 * (1 + 2 ** 0.25 * 0.5 ** 0.25))
    assert pm_map(0.0, 0.25) == 0.0
    arr = pm_map(np.array([0.25, 0.75]), 0.25)
    assert arr.shape == (2,)


def test_pm_first_return_examples():
    # x = 0.75 maps to 0.5 which needs one more left-branch step
    y, r = pm_first_return(0.75, 0.25)
    assert r == 2
    assert 0.5 < y <= 1
    # x = 1 maps straight back to 1
    y, r = pm_first_return(1.0, 0.25)
    assert (y, r) == (1.0, 1)
    with pytest.raises(ValueError):
        pm_first_return(0.3, 0.25)


def test_pm_return_time_matches_direct_iteration():
    sys = PMTowerBase(0.25)
    rng = np.random.default_rng(21)
    xs = 0.5 + 0.5 * rng.random(300)
    fast = sys.return_time(xs)
    slow = np.array([pm_first_return(float(x), 0.25)[1] for x in xs])
    assert np.array_equal(fast, slow)


def test_pm_threshold_table_size():
    sys = PMTowerBase(0.25)
    # thresholds decay like n^{-1/alpha} = n^{-4}: reaching 1e-13 needs
    # roughly (1e13)^{1/4} ~ 1800 entries; sanity-bound the count
    assert 1000 < len(sys.thresholds) < 100_000
    assert np.all(np.diff(sys.thresholds) < 0)


def test_pm_return_time_tail_exponent():
    # P(r > n) ~ n^{-1/alpha}: regression slope of log P(r > n) against
    # log n over n in [10, 50] should be near -4 for alpha = 1/4
    sys = PMTowerBase(0.25)
    rng = np.random.default_rng(2)
    xs = 0.5 + 0.5 * rng.random(2_000_000)
    r = sys.return_time(xs)
    ns = np.arange(10, 51)
    tail = np.array([(r > n).mean() for n in ns])
    slope = np.polyfit(np.log(ns), np.log(tail), 1)[0]
    assert abs(slope - (-4.0)) < 0.5


def test_pm_observable_centered():
    sys = PMTowerBase(0.25)
    rng = np.random.default_rng(4)
    vals = sys.phi(sys.draw_base(5000, rng))
    assert abs(vals.mean()) < 0.02
    assert 0 < sys.nu_tau <= 1.5


def test_pm_induced_density_is_invariant():
    # the backward orbits solve L(U[k]) = U[k - 1], and the induced density
    # is a fixed point of L_F h(z) = sum_r h(psi_r(z)) psi_r'(z) at points of
    # Y off the Chebyshev nodes, summed over the same branches
    sys = PMTowerBase(0.25)
    z = 0.5 + 0.5 * np.random.default_rng(3).random(200)
    U, D = _pm_pullback(0.25, z, depth=len(sys.thresholds))
    assert np.max(np.abs(_pm_left(U[1:], 0.25) / U[:-1] - 1)) <= 1e-14
    Lh = np.sum(sys.induced_density((1 + U) / 2) * D / 2, axis=0)
    h = sys.induced_density(z)
    assert np.max(np.abs(Lh - h) / h) <= 1e-8
    # h is a probability density on Y
    y = 0.5 + 0.5 * (np.arange(20_000) + 0.5) / 20_000
    assert np.mean(sys.induced_density(y)) / 2 == pytest.approx(1, abs=1e-9)


def test_pm_rate_mean_matches_ensemble_estimate():
    # a Monte Carlo estimate (200k uniform starts pushed 2000 steps) gave
    # 0.4565232845 with standard error 6.6e-4
    assert abs(PMTowerBase(0.25).rate_mean - 0.4565232845) <= 3 * 6.6e-4


def test_pm_affine_roof_kac_constants():
    unit = PMTowerBase(0.25)
    affine = PMTowerBase(0.25, roof="affine")
    assert unit.nu_tau == 1.0
    assert abs(affine.nu_tau - (1 + unit.rate_mean / 2)) <= 1e-12
    # roof-size-biased starts have mean rate_mean (the roof-weighted mean),
    # drawn in one batch or one at a time
    rng = np.random.default_rng(6)
    for x in (affine.draw_start(1 << 16, rng),
              np.concatenate([affine.draw_start(1, rng)
                              for _ in range(4000)])):
        assert abs(x.mean() - affine.rate_mean) <= 4 * x.std() / len(x) ** .5


@pytest.mark.parametrize("alpha", [0.25, 0.4])
def test_pm_draws_are_invariant(alpha):
    # one step of the map leaves the law of tower draws unchanged (at
    # alpha = 0.4 the return time has no second moment)
    sys = PMTowerBase(alpha)
    rng = np.random.default_rng(5)
    pushed = pm_map(sys.draw_base(1 << 16, rng), alpha)
    fresh = sys.draw_base(1 << 16, rng)
    assert stats.ks_2samp(pushed, fresh).pvalue > 0.01


def test_pm_alpha_validation():
    with pytest.raises(ValueError):
        PMTowerBase(0.6)
    with pytest.raises(ValueError):
        PMTowerBase(0.0)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_system_round_trips():
    obj = {"type": "renewal", "D": 2,
           "atoms": [[-1, 0, 2, -1, 1, 3],
                     [0, 0, 1, 0, 1, 3],
                     [1, 0, -1, 1, 1, 3]]}
    sys = load_system(obj)
    assert sys.kind == "renewal"
    assert sys.nu_tau_exact == as_quad(Fraction(2, 3))

    sys2 = load_system({"type": "markov", "P": P3,
                        "f": f3_table().tolist()})
    assert sys2.kind == "markov"

    sys3 = load_system({"type": "pm", "alpha": 0.25})
    assert sys3.kind == "pm" and sys3.alpha == 0.25

    with pytest.raises(ConfigError):
        load_system({"type": "nope"})
