"""Concrete suspension-flow models: renewal, Markov shift, intermittent map."""

import cmath
import functools
import itertools
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy import stats

from lcltflow import systems
from lcltflow.config import renewal_atoms
from lcltflow.errors import ConfigError
from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.spectral import (TwistedOperatorModel, leading_eigenvalue,
                               twisted_matrix)
from lcltflow.systems import (_PULLBACK_BLOCK, _PULLBACK_CAP, _PULLBACK_FLOOR,
                              MarkovShiftBase, PMTowerBase, RenewalBase,
                              _count_vectors_between, _multinomial_masses,
                              _pm_left, _pm_pullback, load_system, pm_map)

from flowref import (FlowPoint, WithoutLeap, flow_integrate,
                     pm_first_return, pm_map_where, pm_pullback,
                     pm_pullback_table, pm_tower_dense, return_time,
                     sample_stationary, scan_edges, scan_index)

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
    atoms, (gens, shift) = renewal_atoms(osc_system().atoms)
    assert atoms == osc_system().atoms
    assert shift == (as_quad(-1), 2 - S2)
    assert gens == [(as_quad(1), S2 - 1), (as_quad(2), 2 * S2 - 3)]
    # one atom: the trivial group, shifted to its value
    assert renewal_atoms([(0, 2, 1)])[1] == ([(as_quad(0), as_quad(0))],
                                             (as_quad(0), as_quad(2)))
    # durations in two rings span no group over one field, but still make
    # a system (its mean roof a float)
    half = Fraction(1, 2)
    assert renewal_atoms([(-1, S2, half), (1, S3, half)])[1] is None
    assert RenewalBase([(-1, S2, half), (1, S3, half)]).nu_tau_exact is None


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
    states = sys.draw_base(len(budget), rng)
    count, phi_sum, tau_sum, after = sys.leap(states, budget, rng)
    # iid cells: the leapt cells come before the current one, which stays,
    # in a new array
    assert after is not states and np.array_equal(after, states)
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
    states = np.zeros(len(budget), dtype=np.intp)
    count, phi_sum, tau_sum, _ = sys.leap(states, budget, rng)
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
    states = np.zeros(len(budget), dtype=np.intp)
    count, phi_sum, tau_sum, _ = sys.leap(states, budget, rng)
    assert np.all(np.isfinite(phi_sum)) and np.all(np.isfinite(tau_sum))
    # with only the atoms (-1, 1) and (1, 2): tau = c + k, phi = k - (c - k)
    k = tau_sum - count
    assert np.all((k >= 0) & (k <= count))
    assert np.array_equal(phi_sum, 2 * k - count)
    slack = np.maximum(budget, 0) - tau_sum
    assert np.all(slack >= 0) and np.all(slack < 2)
    single = RenewalBase([(0, S2, 1), (1, 3, 0)])
    count, phi_sum, tau_sum, _ = single.leap(np.zeros(2, dtype=np.intp),
                                             np.array([10.0, 0.5]), rng)
    assert count.tolist() == [7, 0] and phi_sum.tolist() == [0.0, 0.0]


# type-class tables of the renewal leap

def eight_atom_system():
    # symmetric rewards and unequal probabilities; durations 8^i, so that
    # each count vector of |n| <= 7 has its own tau-sum
    p = [Fraction(k, 16) for k in (1, 2, 3, 2, 2, 3, 2, 1)]
    xs = (-4, -3, -2, -1, 1, 2, 3, 4)
    return RenewalBase(list(zip(xs, (8 ** i for i in range(8)), p)))


def _size_level(m, k):
    """The count vectors of k atoms with |n| = m, as one array."""
    return np.concatenate(list(_count_vectors_between(np.ones(k), m, m)))


def _stars_and_bars(m, k):
    """Every vector of k nonnegative counts summing to m: the places of
    k - 1 bars among m + k - 1, in lexicographic order."""
    rows = []
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        ends = (-1,) + bars + (m + k - 1,)
        rows.append([b - a - 1 for a, b in zip(ends, ends[1:])])
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_vectors_of_one_size_are_stars_and_bars(k):
    # the same rows in the same order, which keeps the leap tables and
    # every Monte Carlo stream as they were
    for m in range(41):
        assert np.array_equal(_size_level(m, k), _stars_and_bars(m, k)), m


@pytest.mark.parametrize("chunk", [None, 7])
def test_count_vectors_between_match_a_grid_filter(monkeypatch, chunk):
    # irrational durations: every vector of the full grid whose sum lies in
    # the window, in lexicographic order, whatever the chunk size
    if chunk:
        monkeypatch.setattr(systems, "_CHUNK_ROWS", chunk)
    for y, lo, hi in (([math.sqrt(2), 1.0, math.sqrt(3) - 1], 4.3, 6.1),
                      ([math.pi / 3, math.sqrt(5), 0.7071, math.e / 4],
                       2.05, 3.3),
                      ([math.sqrt(2) - 1], 1.1, 3.9),
                      ([2 - math.sqrt(2), 1.0], -3.0, 2.5),
                      ([math.sqrt(2), 1.0], 2.7, 2.6)):
        grid = np.indices([int(hi // v) + 1 for v in y]).reshape(len(y), -1).T
        total = grid @ np.array(y)
        want = grid[(total >= lo) & (total <= hi)]
        arrays = list(_count_vectors_between(y, lo, hi))
        got = np.concatenate(arrays) if arrays else np.zeros((0, len(y)))
        assert np.array_equal(got, want), (y, lo, hi)
        # each array is a run of whole leading values
        leads = [a[:, 0] for a in arrays]
        assert all(a[-1] < b[0] for a, b in zip(leads, leads[1:]))
        if chunk:
            assert all(len(a) <= chunk or len(set(a[:, 0])) == 1
                       for a in arrays)


def _exact_multinomial(n, probs):
    mass = Fraction(math.factorial(int(sum(n))))
    for c, p in zip(n, probs):
        mass *= p ** int(c) / math.factorial(int(c))
    return mass


@pytest.mark.parametrize("make, levels", [
    (osc_system, [89, 44, 22, 11, 5, 2, 1]),
    (lambda: RenewalBase([(0, S2, 1), (1, 3, 0)]),
     [1 << k for k in range(12, -1, -1)]),
    (eight_atom_system, [7, 3, 1])], ids=["cap", "one-atom", "eight-atom"])
def test_type_tables_hold_every_count_vector_with_its_mass(make, levels):
    sys = make()
    pos = [j for j, a in enumerate(sys.atoms) if a[2] > 0]
    probs = [sys.atoms[j][2] for j in pos]
    tables = sys.path_tables()
    # M is the largest m with at most 2^12 vectors, or the cap itself for
    # a single atom
    assert [t.m for t in tables] == levels
    top = len(_size_level(levels[0], len(pos)))
    assert top <= 1 << 12
    if len(pos) > 1:
        assert len(_size_level(levels[0] + 1, len(pos))) > 1 << 12
    for table in tables:
        counts = _size_level(table.m, len(pos))
        assert np.all(counts.sum(axis=1) == table.m)
        assert len({tuple(c) for c in counts.tolist()}) == len(counts)
        assert len(counts) == math.comb(table.m + len(pos) - 1,
                                        len(pos) - 1)
        mass = _multinomial_masses(counts, probs)
        exact = np.array([float(_exact_multinomial(c, probs))
                          for c in counts.tolist()])
        np.testing.assert_allclose(mass, exact, rtol=1e-12, atol=0)
        assert abs(mass.sum() - 1) <= 1e-12
        # the table: the same masses, heaviest first, with n.x and n.y
        assert np.array_equal(table.prob, np.sort(mass)[::-1])
        assert abs(table.prob.sum() - 1) <= 1e-12
        assert table.reach[0] == table.tau.max()
        np.testing.assert_allclose(table.reach[0],
                                   table.m * sys.ys[pos].max(), rtol=1e-12)
        if make is eight_atom_system:
            # each tau-sum names its vector: phi and mass follow it
            key = {float(t): k for k, t in
                   enumerate(counts @ sys.ys[pos])}
            k = [key[float(t)] for t in table.tau]
            np.testing.assert_allclose(table.phi, counts[k] @ sys.xs[pos],
                                       atol=1e-12)
            np.testing.assert_allclose(table.prob, exact[k], rtol=1e-12,
                                       atol=0)


def test_renewal_tables_are_built_on_first_use():
    sys = osc_system()
    sys.step(sys.draw_base(4, np.random.default_rng(0)),
             np.random.default_rng(1))
    assert sys._tables is None
    sys.leap(sys.draw_start(4, np.random.default_rng(0)), np.ones(4),
             np.random.default_rng(1))
    assert sys._tables is not None


def test_renewal_sigma_is_the_exact_atom_covariance():
    # section 6.1: Var x = 2/3, Cov(x, y) = (2 sqrt2 - 3) / 3 and Var y =
    # (26 - 18 sqrt2) / 9, each the float of its exact value
    expected = [[2 / 3, float((2 * S2 - 3) / 3)],
                [float((2 * S2 - 3) / 3), float((26 - 18 * S2) / 9)]]
    assert osc_system().sigma().tolist() == expected


def _ball_masses_by_sequences(sys, w, R):
    """P(S_n in B(w nu, R)) for n = 0, 1, ... by every atom sequence of
    length n, each with the product of its probabilities, until every
    sequence's tau-sum has passed the ball."""
    c = w * sys.nu_tau
    phi, tau, prob = np.zeros(1), np.zeros(1), np.ones(1)
    masses = []
    while tau.min() <= c + R:
        inside = phi ** 2 + (tau - c) ** 2 <= R * R
        masses.append(prob[inside].sum())
        phi = (phi[:, None] + sys.xs).ravel()
        tau = (tau[:, None] + sys.ys).ravel()
        prob = (prob[:, None] * sys.probs).ravel()
    return np.array(masses)


@pytest.mark.parametrize("make, w, R", [(osc_system, 4, 1.5),
                                        (coin_system, 9, 3.0)],
                         ids=["section-6.1", "coin"])
def test_moderate_deviation_table_is_the_sum_over_atom_sequences(make, w,
                                                                  R):
    sys = make()
    ref = _ball_masses_by_sequences(sys, w, R)
    mass = sys.ball_masses(w, R)
    n = min(len(mass), len(ref))
    assert np.all(ref[n:] == 0) and np.all(mass[n:] == 0)
    np.testing.assert_allclose(mass[:n], ref[:n], rtol=1e-12, atol=0)
    K_list = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
    vals = sys.moderate_dev_table([w], K_list, R)[w]
    sizes = np.arange(len(ref))
    want = [math.sqrt(w) * ref[np.abs(sizes - w) > K * math.sqrt(w)].sum()
            for K in K_list]
    assert want[0] > 0 and want[-1] == 0
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_renewal_sigma_falls_back_to_floats_across_rings():
    third, half = Fraction(1, 3), Fraction(1, 2)
    # durations in two rings, so no exact mean roof (criterion 4) ...
    c4 = RenewalBase([(-1, 1, third), (0, S2, third), (1, S3, third)])
    ey = (1 + math.sqrt(2) + math.sqrt(3)) / 3
    np.testing.assert_allclose(c4.sigma(), [
        [2 / 3, (math.sqrt(3) - 1) / 3],
        [(math.sqrt(3) - 1) / 3, 2 - ey ** 2]], rtol=1e-14, atol=0)
    # ... and rewards in Q(sqrt 3) against durations in Q(sqrt 2): an exact
    # mean roof, but no exact Cov(x, y)
    mixed = RenewalBase([(-S3, 1, half), (S3, S2, half)])
    assert mixed.nu_tau_exact is not None
    cxy = math.sqrt(3) * (math.sqrt(2) - 1) / 2
    np.testing.assert_allclose(mixed.sigma(), [
        [3, cxy], [cxy, (3 - 2 * math.sqrt(2)) / 4]], rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# flow integration (scalar reference in tests/flowref.py)
# ---------------------------------------------------------------------------

def test_flow_integrate_additive_and_counts_crossings():
    # path-by-path additivity on one stream holds for the one-crossing loop
    # alone: a leap's draws depend on the budget, so hide the leap
    sys = WithoutLeap(MarkovShiftBase(P3, f3_table()))
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
    # rows summing to 1 through a negative entry would simulate another chain
    with pytest.raises(ValueError, match="nonnegative"):
        MarkovShiftBase([[0.6, 0.5, -0.1], [0.3, 0.4, 0.3],
                         [0.3, 0.3, 0.4]], np.ones((3, 3, 2)))
    with pytest.raises(ValueError, match="finite"):
        MarkovShiftBase([[math.nan, 0.5], [0.5, 0.5]], np.ones((2, 2, 2)))
    # a NaN value and an infinite roof (an infinite time budget)
    for entry in ((0, 1, 0), (0, 1, 1)):
        for v in (math.nan, math.inf):
            bad = np.ones((2, 2, 2))
            bad[entry] = v
            with pytest.raises(ValueError, match="finite"):
                MarkovShiftBase([[0.5, 0.5], [0.5, 0.5]], bad)


def test_markov_rejects_a_large_reducible_chain():
    # two closed blocks of 100 states: no power of the support is positive,
    # though its path counts overflow a float power long before 2n
    P = np.zeros((200, 200))
    P[:100, :100] = P[100:, 100:] = 1 / 100
    with pytest.raises(ValueError, match="irreducible"):
        MarkovShiftBase(P, np.ones((200, 200, 2)))


def test_markov_accepts_a_primitive_chain_of_wielandt_exponent():
    # i -> i + 1 and 4 -> {0, 1}: the first positive power of the support
    # is the (n - 1)^2 + 1 = 17th, past 2n = 10
    P = np.zeros((5, 5))
    P[np.arange(4), np.arange(1, 5)] = 1
    P[4, :2] = 0.5
    chain = MarkovShiftBase(P, np.ones((5, 5, 2)))
    assert np.max(np.abs(chain.stationary @ P - chain.stationary)) <= 1e-15
    assert chain.stationary.sum() == pytest.approx(1, abs=1e-15)


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


class _FixedDrawRng:
    """Every uniform draw comes from a fixed array of the requested length."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


def _guide_test_chains():
    yield np.asarray(P3)
    yield np.array([[0, .6, .3, .1], [.5, .5, 0, 0], [.5, 0, .5, 0],
                    [.5, 0, 0, .5]])
    # three breakpoints strictly inside the guide cell [8/16, 9/16) of row 0
    yield np.array([[.5, .01, .01, .01, .47]] + [[.2] * 5] * 4)
    # random chains with zero entries, kept irreducible and aperiodic by a
    # positive diagonal and a positive cycle i -> i + 1
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(3):
            P = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            P[np.arange(n), np.arange(n)] += 0.1
            P[np.arange(n), (np.arange(n) + 1) % n] += 0.1
            yield P / P.sum(axis=1, keepdims=True)


def test_guide_table_draws_the_edges_of_the_scan():
    rng = np.random.default_rng(12)
    interior = trailing = clustered = False
    for P in _guide_test_chains():
        n = len(P)
        chain = MarkovShiftBase(P, np.ones((n, n, 2)))
        zero = P == 0
        interior |= bool(np.any(zero[:, :-1] & (P[:, 1:] > 0)))
        trailing |= bool(np.any(zero[:, -1]))
        clustered |= chain._next.advance >= 3
        # every breakpoint, its neighbours, the ends of [0, 1) and random u
        cuts = chain.cumP[np.isfinite(chain.cumP)]
        u = np.concatenate([cuts, np.nextafter(cuts, 0),
                            np.nextafter(cuts, 2), [0.0, 1 - 2.0 ** -53],
                            rng.random(10 ** 5)])
        u = u[(u >= 0) & (u < 1)]
        for i in range(n):
            rows = np.full(len(u), i)
            assert np.array_equal(chain._edges_from(rows, _FixedDrawRng(u)),
                                  scan_edges(chain, rows, u))
    assert interior and trailing and clustered


# path tables: enumerated, sampled and leapt

BENCH_P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
SKEWED_P = [[0.99, 0.01], [0.5, 0.5]]
ZEROS_P = [[0, .6, .3, .1], [.5, .5, 0, 0], [.5, 0, .5, 0], [.5, 0, 0, .5]]


def _random_values(n, seed):
    f = np.random.default_rng(seed).random((n, n, 2))
    f[:, :, 0] -= 0.5
    f[:, :, 1] += 0.5
    return f


def _enumerate_paths(P, f, v, m):
    """(probability, phi-sum but the last edge, tau-sum, last edge) of every
    positive-probability m-step path from v, in lexicographic order."""
    n = len(P)
    if m == 0:
        return [(1.0, [], [], None, v)]
    out = []
    for prob, phis, taus, last, head in _enumerate_paths(P, f, v, m - 1):
        for j in range(n):
            if P[head][j] > 0:
                out.append((prob * P[head][j],
                            phis + ([] if last is None else
                                    [f[last // n, last % n, 0]]),
                            taus + [f[head, j, 1]], head * n + j, j))
    return out


@pytest.mark.parametrize("P", [BENCH_P, SKEWED_P, ZEROS_P, P3],
                         ids=["bench", "skewed", "zeros", "P3"])
def test_path_tables_hold_every_path_with_its_sums(P):
    n = len(P)
    f = _random_values(n, 5)
    chain = MarkovShiftBase(P, f)
    tables = chain.path_tables()
    # M is the longest m with at most 2^12 paths from any vertex
    adj = (np.asarray(P) > 0).astype(np.int64)
    M = tables[0].m
    for m, within in ((M, True), (M + 1, False)):
        paths = np.linalg.matrix_power(adj, m).sum(axis=1).max()
        assert (paths <= 1 << 12) == within
    assert [t.m for t in tables] == [M >> k for k in range(M.bit_length())]
    for table in tables:
        for v in range(n):
            lo, hi = table.offsets[v], table.offsets[v + 1]
            assert table.prob[lo:hi].sum() == pytest.approx(1, abs=1e-12)
            ref = _enumerate_paths(P, f, v, table.m)
            assert hi - lo == len(ref)
            np.testing.assert_allclose(table.prob[lo:hi],
                                       [r[0] for r in ref], rtol=1e-12)
            np.testing.assert_allclose(table.phi[lo:hi],
                                       [sum(r[1]) for r in ref], atol=1e-12)
            np.testing.assert_allclose(table.tau[lo:hi],
                                       [sum(r[2]) for r in ref], rtol=1e-12)
            assert table.last[lo:hi].tolist() == [r[3] for r in ref]
            assert table.reach[v] == table.tau[lo:hi].max()


def test_path_table_levels_follow_the_path_count():
    # a full 3-state chain has 3^m paths per vertex: 3^7 = 2187 <= 2^12
    full = MarkovShiftBase(np.full((3, 3), 1 / 3), np.ones((3, 3, 2)))
    assert [t.m for t in full.path_tables()] == [7, 3, 1]
    # a one-state chain has one path of every length: the cap stops it
    one = MarkovShiftBase([[1.0]], np.ones((1, 1, 2)))
    assert one.path_tables()[0].m == 1 << 12
    # 65^2 > 2^12 two-step paths: no m >= 2 level, and the leap takes no
    # step, leaving the engine's one-step loop
    big = MarkovShiftBase(np.full((65, 65), 1 / 65), np.ones((65, 65, 2)))
    assert [t.m for t in big.path_tables()] == [1]
    states = big.draw_start(10, np.random.default_rng(1))
    count, phi_sum, tau_sum, after = big.leap(states, np.full(10, 100.0),
                                              np.random.default_rng(2))
    assert not count.any() and not phi_sum.any() and not tau_sum.any()
    assert np.array_equal(after, states)


def test_construction_builds_no_path_table():
    chain = MarkovShiftBase(BENCH_P, _random_values(3, 1))
    TwistedOperatorModel(chain)
    assert chain._tables is None
    chain.step(chain.draw_base(4, np.random.default_rng(0)),
               np.random.default_rng(1))
    assert chain._tables is None
    chain.leap(chain.draw_start(4, np.random.default_rng(0)), np.ones(4),
               np.random.default_rng(1))
    assert chain._tables is not None


def criterion3_chain():
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 0] = [0.5, 1.0]
    f[0, 1] = [1.0, 2.0]
    f[1, 1] = [-0.5, 1.0]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[2, 2] = [0.0, 1.0]
    return MarkovShiftBase(BENCH_P, f)


def bench_chain():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "configs",
                        "markov_flow_verify.json")
    with open(path) as fh:
        return load_system(json.load(fh)["system"])


def zeros_chain():
    # four states, zeros in P and a stationary law far from uniform
    return MarkovShiftBase(ZEROS_P, _random_values(4, 5))


def green_kubo_sigma(chain):
    """The reference Sigma: with fb = f - nu(f), the lag-0 term E[fb fb']
    over the stationary edges plus the lags a' Z g + (a' Z g)', where
    a_j = sum_i pi_i P_ij fb_ij, g_l = sum_m P_lm fb_lm and
    Z = (I - P + 1 pi)^-1 sums the centred powers of P."""
    n, P, pi = chain.n_states, chain.P, chain.stationary
    fb = chain.f - [chain.nu_phi, chain.nu_tau]
    edge_w = pi[:, None] * P
    a = np.einsum("ij,ijk->jk", edge_w, fb)
    g = np.einsum("ij,ijk->ik", P, fb)
    lags = a.T @ np.linalg.solve(np.eye(n) - P + pi, g)
    return np.einsum("ij,ijk,ijl->kl", edge_w, fb, fb) + lags + lags.T


@pytest.mark.parametrize("make", [criterion3_chain, bench_chain, zeros_chain],
                         ids=["criterion3", "bench", "zeros"])
def test_markov_sigma_is_twice_the_eigenvalue_expansion(make):
    # two independent checks of the one series sigma() reads: its order-5
    # truncation against log lambda from the eigen-solver, along phi, tau
    # and phi + tau (the polarisation sigma() takes), where the order-6
    # remainder is below 3e-14; and sigma() against Green-Kubo
    chain = make()
    model = TwistedOperatorModel(chain)
    for u in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        u = np.array(u) / np.linalg.norm(u)
        coef = chain._log_eigenvalue_series(chain.f @ u, 5)
        for t in (0.01, -0.01):
            lam = leading_eigenvalue(twisted_matrix(model, t * u))[0]
            series = sum(c * (1j * t) ** k for k, c in enumerate(coef, 1))
            assert abs(cmath.log(lam) - series) < 1e-13
    np.testing.assert_allclose(chain.sigma(), green_kubo_sigma(chain),
                               rtol=0, atol=1e-14)


def test_markov_sigma_of_identical_rows_is_the_renewal_covariance():
    # identical rows and f(i, j) = (x_j, y_j) make the cells iid: the lags
    # add nothing
    osc = osc_system()
    P = np.tile(osc.probs, (3, 1))
    f = np.tile(np.stack([osc.xs, osc.ys], axis=-1), (3, 1, 1))
    np.testing.assert_allclose(MarkovShiftBase(P, f).sigma(), osc.sigma(),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("P", [BENCH_P, SKEWED_P, ZEROS_P],
                         ids=["bench", "skewed", "zeros"])
def test_markov_leap_stays_within_budget(P):
    # every leapt path ends within its budget, and the budget left is below
    # the one-step reach from the edge the leap stops on
    n = len(P)
    chain = MarkovShiftBase(P, _random_values(n, 3))
    rng = np.random.default_rng(24)
    states = chain.draw_start(1 << 17, rng)
    budget = rng.uniform(-2, 300, len(states))
    count, phi_sum, tau_sum, after = chain.leap(states, budget, rng)
    assert count.dtype == np.int64 and count.min() == 0
    slack = budget - tau_sum
    assert np.all(slack >= np.minimum(budget, 0))
    one_step = chain.path_tables()[-1]
    assert np.all(slack < one_step.reach[chain._head[after]])
    # a path that leaps nothing keeps its edge
    assert np.array_equal(after[count == 0], states[count == 0])
    # unit roofs: the tau sum of c edges is c
    unit = MarkovShiftBase(P, np.ones((n, n, 2)))
    count, phi_sum, tau_sum, _ = unit.leap(states, budget, rng)
    assert np.array_equal(tau_sum, count)
    assert np.array_equal(phi_sum, count)


@pytest.mark.parametrize("P", [SKEWED_P, ZEROS_P, P3, BENCH_P],
                         ids=["skewed", "zeros", "P3", "bench"])
def test_path_sampler_draws_the_paths_of_the_scan(P):
    rng = np.random.default_rng(13)
    n = len(P)
    chain = MarkovShiftBase(P, _random_values(n, 2))
    for table in chain.path_tables():
        cum = table.sampler.cum
        for v in range(n):
            lo, hi = table.offsets[v], table.offsets[v + 1]
            row = cum[lo:hi]
            cuts = row[np.isfinite(row)]
            u = np.concatenate([cuts, np.nextafter(cuts, 0),
                                np.nextafter(cuts, 2), [0.0, 1 - 2.0 ** -53],
                                rng.random(10 ** 4)])
            u = u[(u >= 0) & (u < 1)]
            got = table.sampler.draw(np.full(len(u), v), u)
            assert np.array_equal(got, lo + scan_index(row, u))
    # the skewed table has cells with several breakpoints, so the advance
    # passes run
    if P is SKEWED_P:
        assert chain.path_tables()[0].sampler.advance >= 2


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


@pytest.mark.parametrize("alpha", [0.125, 0.25, 0.4])
def test_pm_map_matches_both_branch_reference(alpha):
    # bit-equal to evaluating both branches everywhere, on arrays and scalars
    rng = np.random.default_rng(8)
    edges = [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0]
    x = np.concatenate([edges, rng.random(10 ** 5)])
    assert np.array_equal(pm_map(x, alpha), pm_map_where(x, alpha))
    for v in edges:
        got = pm_map(v, alpha)
        assert type(got) is float and got == pm_map_where(v, alpha)


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
    fast = return_time(sys, xs)
    slow = np.array([pm_first_return(float(x), 0.25)[1] for x in xs])
    assert np.array_equal(fast, slow)
    # scalars in Y = (1/2, 1], its right end included
    for x in (0.75, 1.0):
        got = return_time(sys, x)
        assert type(got) is int and got == pm_first_return(x, 0.25)[1]
    # 2x - 1 below the threshold table's last entry: iterated past it
    edge = np.nextafter(0.5, 1)
    assert return_time(sys, edge) == 27574 == pm_first_return(edge, 0.25)[1]
    deep = np.array([edge, 0.5 + 3e-16, 0.5 + 1e-14, 0.75])
    assert 2 * deep[2] - 1 < sys.thresholds[-1]
    assert return_time(sys, deep).tolist() == [
        pm_first_return(float(x), 0.25)[1] for x in deep]


@pytest.mark.parametrize("x", [0.3, 0.5, 1.5, 0.0, -0.2, float("nan"),
                               [0.75, 0.5], [0.75, float("nan")]])
def test_pm_return_time_rejects_points_outside_Y(x):
    # the first-return reference's domain, with its error
    sys = PMTowerBase(0.25)
    with pytest.raises(ValueError, match=r"x must lie in \(1/2, 1\]"):
        return_time(sys, x)
    if np.ndim(x) == 0:
        with pytest.raises(ValueError, match=r"x must lie in \(1/2, 1\]"):
            pm_first_return(x, 0.25)


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
    r = return_time(sys, xs)
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


# the Chebyshev-Lobatto nodes of Y that PMTowerBase pulls back
PM_NODES = (3 + np.cos(np.pi * np.arange(33) / 32)) / 4


@functools.lru_cache(maxsize=None)
def stepped_orbit_of_half():
    """The stepped reference's backward orbit of 1/2 at alpha = 1/4, down
    to the floor."""
    return pm_pullback(0.25, [0.5])[0][:, 0]


def assert_pullbacks_agree(alpha, got, want):
    """Equal row counts, rows within 1e-13 and D within 1e-12 relative,
    and every row solves L(U[k]) = U[k - 1] to 1e-14."""
    (U, D), (U0, D0) = got, want
    assert U.shape == U0.shape
    assert np.max(np.abs(U / U0 - 1)) <= 1e-13
    assert np.max(np.abs(D / D0 - 1)) <= 1e-12
    if len(U) > 1:
        assert np.max(np.abs(_pm_left(U[1:], alpha) / U[:-1] - 1)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.125, 0.25, 0.3, 0.4])
def test_pm_pullback_matches_the_stepped_reference(alpha):
    got = pm_pullback_table(alpha, PM_NODES)
    assert_pullbacks_agree(alpha, got, pm_pullback(alpha, PM_NODES))
    U = got[0]
    if alpha == 0.4:
        # the last node, 1/2, is still above the floor at the row cap,
        # which is not a whole number of blocks
        assert len(U) == _PULLBACK_CAP and U[-1, -1] > _PULLBACK_FLOOR
        assert _PULLBACK_CAP % _PULLBACK_BLOCK
    else:
        assert U[-1, -1] <= _PULLBACK_FLOOR < U[-2, -1]


@pytest.mark.parametrize("row", [0, 1, _PULLBACK_BLOCK, _PULLBACK_BLOCK + 1,
                                 2 * _PULLBACK_BLOCK])
def test_pm_pullback_stops_at_the_floor_on_any_row_of_a_block(row):
    # started from a row of the reference's orbit of 1/2, the orbit first
    # reaches the floor on the given row: row 0 is the start, rows 1 and
    # B + 1 open a block of B rows, rows B and 2B close one
    x = stepped_orbit_of_half()
    assert x[-1] <= _PULLBACK_FLOOR < x[-2]
    z = x[[len(x) - 1 - row]]
    got = pm_pullback_table(0.25, z)
    assert len(got[0]) == row + 1
    assert_pullbacks_agree(0.25, got, pm_pullback(0.25, z))


@pytest.mark.parametrize("z", [[1.0, float("nan"), 0.5], [0.75, 0.0],
                               [1.5], [-0.25], [float("inf")], [],
                               [[0.75]]])
def test_pm_pullback_rejects_points_outside_the_unit_interval(z):
    with pytest.raises(ValueError, match=r"z must"):
        pm_pullback_table(0.25, z)


def test_pm_pullback_bounds_its_newton_steps(monkeypatch):
    # the first block of the nodes needs more than one step
    monkeypatch.setattr(systems, "_PULLBACK_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        pm_pullback_table(0.25, PM_NODES)


def test_pm_pullback_streams_each_block_as_it_is_solved(monkeypatch):
    # row 0 is z alone, then one Newton solve per block of at most
    # _PULLBACK_BLOCK rows, and a block is handed on before the next solve
    lens = [len(U) for U, _ in _pm_pullback(0.25, PM_NODES)]
    assert lens[0] == 1 and lens[1:-1] == [_PULLBACK_BLOCK] * (len(lens) - 2)
    assert 1 <= lens[-1] <= _PULLBACK_BLOCK
    monkeypatch.setattr(systems, "_PULLBACK_STEPS", 1)
    stream = _pm_pullback(0.25, PM_NODES)
    U, D = next(stream)
    assert np.array_equal(U, [PM_NODES]) and np.array_equal(D, np.ones((1, 33)))
    with pytest.raises(ArithmeticError, match="did not converge"):
        next(stream)


@pytest.mark.parametrize("roof", ["unit", "affine"])
@pytest.mark.parametrize("alpha", [0.125, 0.25, 0.3, 0.4])
def test_pm_streamed_build_matches_the_dense_build(alpha, roof):
    # one pass over the streamed blocks gives the whole branch table's
    # numbers: the same thresholds, D carried across blocks as one cumprod
    # down the table, and h and Kac's constants to rounding
    sys, ref = PMTowerBase(alpha, roof), pm_tower_dense(alpha, roof)
    assert np.array_equal(sys.thresholds, ref.thresholds)
    assert np.array_equal(ref.streamed_D, ref.D)
    assert np.max(np.abs(sys._hcoef - ref.hcoef)) <= 1e-14
    assert sys.nu_tau == pytest.approx(ref.nu_tau, rel=1e-14)
    assert sys.rate_mean == pytest.approx(ref.rate_mean, rel=1e-14)


def test_pm_build_memory_is_bounded_by_its_blocks():
    # at alpha = 0.4 the branches run to the 100,000-row cap, where one
    # stored array of branches by nodes takes 26 MB; at alpha = 1/4 the
    # Chebyshev and weight tables of a whole 256-row Newton block took the
    # peak to 2.0 MiB, where those of a 64-row slice keep it under 1.25 MiB
    for alpha, bound in ((0.4, 16 << 20), (0.25, 1.25 * (1 << 20))):
        tracemalloc.start()
        try:
            PMTowerBase(alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_pm_induced_density_is_invariant():
    # the backward orbits solve L(U[k]) = U[k - 1], and the induced density
    # is a fixed point of L_F h(z) = sum_r h(psi_r(z)) psi_r'(z) at points of
    # Y off the Chebyshev nodes, summed over the same branches: the node 1/2
    # comes last, so the stream stops where the thresholds stop
    sys = PMTowerBase(0.25)
    z = 0.5 + 0.5 * np.random.default_rng(3).random(200)
    U, D = pm_pullback_table(0.25, np.append(z, 0.5))
    assert len(U) == len(sys.thresholds)
    U, D = U[:, :-1], D[:, :-1]
    assert np.max(np.abs(_pm_left(U[1:], 0.25) / U[:-1] - 1)) <= 1e-14
    Lh = np.sum(sys.induced_density((1 + U) / 2) * D / 2, axis=0)
    h = sys.induced_density(z)
    assert np.max(np.abs(Lh - h) / h) <= 1e-8
    # h is a probability density on Y
    y = 0.5 + 0.5 * (np.arange(20_000) + 0.5) / 20_000
    assert np.mean(sys.induced_density(y)) / 2 == pytest.approx(1, abs=1e-9)


def test_pm_induced_density_is_the_chebyshev_series_in_any_shape():
    # evaluated in slices, bit for bit the series at once
    sys = PMTowerBase(0.25)
    y = 0.5 + 0.5 * np.random.default_rng(9).random((3, 50_000))
    want = chebval(4 * y - 3, sys._hcoef)
    assert np.array_equal(sys.induced_density(y), want)
    assert np.array_equal(sys.induced_density(y[0]), want[0])
    got = sys.induced_density(0.75)
    assert np.ndim(got) == 0 and got == chebval(0.0, sys._hcoef)


def test_pm_rate_mean_matches_ensemble_estimate():
    # a Monte Carlo estimate (200k uniform starts pushed 2000 steps) gave
    # 0.4565232845 with standard error 6.6e-4
    assert abs(PMTowerBase(0.25).rate_mean - 0.4565232845) <= 3 * 6.6e-4


@pytest.mark.parametrize("roof", ["unit", "affine"])
def test_pm_kac_sums_equal_the_sums_along_each_orbit(roof):
    # Kac's formula as first written: each branch's weight times g summed
    # along its orbit psi_r, U[k], ..., U[1], one cumsum per observable
    sys = PMTowerBase(0.25, roof)
    U, D = pm_pullback_table(0.25, PM_NODES)
    P, dP = (1 + U) / 2, D / 2
    wts = pm_tower_dense(0.25, roof).quad * dP * sys.induced_density(P)
    g = systems.PM_ROOFS[roof]

    def kac(f):
        return np.sum(wts * f(P)) + np.sum(wts[1:] * np.cumsum(f(U[1:]), 0))

    assert sys.nu_tau == pytest.approx(kac(g) / kac(np.ones_like), rel=1e-13)
    assert sys.rate_mean == pytest.approx(
        kac(lambda x: x * g(x)) / kac(g), rel=1e-13)


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
