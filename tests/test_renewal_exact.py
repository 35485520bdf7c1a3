"""Error-free renewal computations: exact DP versus path enumeration,
stationary-start events, and the oscillating scaled probabilities."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from lcltflow import renewal_exact
from lcltflow.errors import StateExplosion
from lcltflow.montecarlo import estimate_mlclt
from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.renewal_exact import (_exact_atoms, _prune_bound,
                                    counterexample_scan, dp_distribution,
                                    frac_cell, scan_csv_rows,
                                    section_61_atoms,
                                    stationary_event_probability)
from lcltflow.systems import RenewalBase

from exactref import (PathExplosion, brute_force_enumerate, palm_sweep_at,
                      scan_per_t)

S2 = QuadScalar.sqrtD(2)
ONE = as_quad(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

COIN = [(-1, ONE, HALF), (1, ONE, HALF)]
# probabilities 1/2, 1/3, 1/6: integer weights 3, 2, 1 over L = 6
MIXED = [(-1, as_quad(2) - S2, HALF), (0, ONE, THIRD),
         (3, S2, Fraction(1, 6))]
# an atom of probability 0 still makes (massless) states
ZERO_ATOM = [(-1, ONE, HALF), (1, S2, HALF), (2, as_quad(2) - S2, 0)]

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def same_distribution(a, b):
    for k in set(a) | set(b):
        assert a.get(k, Fraction(0)) == b.get(k, Fraction(0)), k
    return True


# ---------------------------------------------------------------------------
# Palm start: DP against full enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [Fraction(1, 2), 1, Fraction(5, 2), 4, 6])
def test_dp_equals_enumeration_coin(t):
    same_distribution(dp_distribution(COIN, t),
                      brute_force_enumerate(COIN, t))


@pytest.mark.parametrize("t", [Fraction(1, 2), 2, Fraction(9, 2), 6])
def test_dp_equals_enumeration_section61(t):
    atoms = section_61_atoms()
    same_distribution(dp_distribution(atoms, t),
                      brute_force_enumerate(atoms, t))


@pytest.mark.parametrize("t", [Fraction(1, 2), 2, Fraction(7, 2), 5])
def test_dp_equals_enumeration_mixed_weights(t):
    same_distribution(dp_distribution(MIXED, t),
                      brute_force_enumerate(MIXED, t))


def test_small_t_palm_distribution_by_hand():
    # t = 1/2: only the first cell can be pending.  Atoms with duration
    # > 1/2 leave (S=0, overshoot 1/2); the sqrt2-1 ~ 0.414 atom completes
    # and its successor is always pending, overshoot 1/2 - (sqrt2 - 1)
    dist = dp_distribution(section_61_atoms(), Fraction(1, 2))
    over = as_quad(Fraction(1, 2))
    short = over - (S2 - 1)
    assert dist[(0, over)] == Fraction(2, 3)
    assert dist[(1, short)] == Fraction(1, 3)
    assert len(dist) == 2


def test_below_first_duration_is_point_mass():
    dist = dp_distribution(COIN, Fraction(1, 3))
    assert dist == {(0, as_quad(Fraction(1, 3))): Fraction(1)}


def test_single_deterministic_atom():
    atoms = [(0, as_quad(2), Fraction(1))]
    dist = dp_distribution(atoms, 7)
    # renewals at 0, 2, 4, 6: last one at 6, overshoot 1
    assert dist == {(0, ONE): Fraction(1)}


def test_mixed_weights_distributions_sum_to_one():
    assert sum(dp_distribution(MIXED, 12).values()) == 1
    # at t = 12 at most 21 cells of the -1 atom and 9 of the +3 one count,
    # so every stationary value lies in -21 ... 27
    total = sum((stationary_event_probability(MIXED, 12, S)
                 for S in range(-21, 28)), start=as_quad(0))
    assert total == 1


def test_coin_stationary_equals_palm():
    # unit deterministic roof: the size-biased first cell is again uniform
    # over atoms and by time t = 9 exactly 9 cells complete; the stationary
    # marginal is the binomial law of 9 flips
    for k in range(10):
        assert stationary_event_probability(COIN, 9, 2 * k - 9) == \
            Fraction(math.comb(9, k), 2 ** 9)


# ---------------------------------------------------------------------------
# the band sweep against the one-state-at-a-time heap sweep
# ---------------------------------------------------------------------------

def _table(sweep):
    S, P, Q, _T, M = sweep.states
    return list(zip(zip(S.tolist(), P.tolist(), Q.tolist()), M.tolist()))


def _l_power(den, ref_den, atoms):
    """den / ref_den, which must be a power of L."""
    L = math.lcm(*(p.denominator for _, _, p in atoms))
    scale = 1
    while ref_den * scale < den:
        scale *= L
    assert ref_den * scale == den
    return scale


def _equals_heap_sweeps(atoms, groups):
    """One band sweep over ``groups`` against palm_sweep_at at every
    horizon: the same finals and cut, and at the last horizon, inside the
    kept window, the same states in the same order, all up to the common
    power of L."""
    den, sweeps = renewal_exact._palm_sweep(atoms, groups)
    max_y = max(float(y) for _, y, _ in atoms)
    for (horizons, bound), sweep in zip(groups, sweeps):
        bound = math.inf if bound is None else bound
        for t, (finals, cut) in zip(horizons, sweep.ends):
            states, ref_finals, pruned, ref_den = palm_sweep_at(atoms, t,
                                                                bound)
            scale = _l_power(den, ref_den, atoms)
            assert finals == [(S, p, q, m * scale)
                              for S, p, q, m in ref_finals]
            assert cut == sum(pruned.values()) * scale
        table = _table(sweep)
        ref = [(k, m * scale) for k, m in states.items()]
        window = float(horizons[0]) - 2 * max_y
        assert table == [(k, m) for k, m in ref
                         if k[1] + k[2] * math.sqrt(2) >= window - 1e-6]
        assert sweep.off_zero == next(((p, q) for S, p, q in states
                                       if S == 0 and q != 0), None)


def _groups(*groups):
    return [([as_quad(t) for t in ts], bound) for ts, bound in groups]


@pytest.mark.parametrize("atoms, groups", [
    (section_61_atoms(), _groups(([20.2, 20.5], 67), ([20.9], 68),
                                 ([7.5, 9.2], 4), ([12], None))),
    (COIN, _groups(([4, 6.5], None), ([5.5], 2))),
    (MIXED, _groups(([7, 9.5], None), ([8], 3))),
    (ZERO_ATOM, _groups(([6, 7.5], None), ([7], 2))),
], ids=["section61", "coin", "mixed", "zero-probability-atom"])
def test_band_sweep_equals_heap_sweep(atoms, groups):
    _equals_heap_sweeps(_exact_atoms(atoms), groups)


def test_horizon_on_a_renewal_time_takes_the_exact_sign(monkeypatch):
    # 3 = 3 * 1 and 1 + sqrt2 = 2 * 1 + (sqrt2 - 1) are renewal times
    atoms = _exact_atoms(section_61_atoms())
    groups = [([1 + S2, as_quad(3)], None), ([as_quad(3)], 3)]
    signs = []
    sign = QuadScalar.sign

    def spy(self):
        signs.append(self)
        return sign(self)

    monkeypatch.setattr(QuadScalar, "sign", spy)
    _den, sweeps = renewal_exact._palm_sweep(atoms, groups)
    monkeypatch.undo()
    assert any(x.is_zero() for x in signs)
    for (horizons, _), sweep in zip(groups, sweeps):
        times = {QuadScalar(p, q, 2) for (_, p, q), _ in _table(sweep)}
        assert all(t in times for t in horizons)
    _equals_heap_sweeps(atoms, groups)


def test_one_pass_equals_separate_passes():
    atoms = _exact_atoms(MIXED)
    groups = _groups(([9.5, 12.2], 9), ([20.9], 20), ([5.5], 2), ([14], None))
    den, sweeps = renewal_exact._palm_sweep(atoms, groups)
    for group, sweep in zip(groups, sweeps):
        one_den, [one] = renewal_exact._palm_sweep(atoms, [group])
        scale = _l_power(den, one_den, atoms)
        assert sweep.ends == [([(S, p, q, m * scale) for S, p, q, m in f],
                               c * scale) for f, c in one.ends]
        assert _table(sweep) == [(k, m * scale) for k, m in _table(one)]
        assert np.array_equal(sweep.states[3], one.states[3])
        assert sweep.off_zero == one.off_zero


def _heap_sweep(atoms, groups):
    """A single-horizon _palm_sweep result from the heap reference, with
    every state kept."""
    [([t], bound)] = groups
    states, finals, pruned, den = palm_sweep_at(
        atoms, t, math.inf if bound is None else bound)
    S, P, Q = (np.array(c, dtype=np.int64) for c in zip(*states))
    table = (S, P, Q, P + Q * math.sqrt(2),
             np.array(list(states.values()), dtype=object))
    return den, [renewal_exact._Sweep(
        table, [(finals, sum(pruned.values()))], None)]


@pytest.mark.parametrize("I, J", [
    (None, None), ((0.3, 0.4), None), ((S2 - 1, ONE), (0.1, 0.9)),
    ((0.5, 2), (0, 0.3))])
def test_stationary_events_need_no_state_below_the_window(monkeypatch, I, J):
    # lo(I) > 0 reads fewer states than I = None; neither reads one that
    # the sweep drops.  At t = 9 every positive value lies in -16 ... 21
    def events():
        return [stationary_event_probability(MIXED, 9, S, I=I, J=J)
                for S in range(-16, 22)]
    kept = events()
    assert any(p.sign() > 0 for p in kept)
    monkeypatch.setattr(renewal_exact, "_palm_sweep", _heap_sweep)
    assert events() == kept


def test_stationary_start_heights_below_zero_are_cut():
    # s0 lies in [0, y_i): I = [-1, 3/10) is the event I = [0, 3/10)
    atoms = section_61_atoms()
    for S in (0, 1):
        assert stationary_event_probability(
            atoms, 12, S, I=(-1, Fraction(3, 10))) == \
            stationary_event_probability(atoms, 12, S, I=(0, Fraction(3, 10)))


# ---------------------------------------------------------------------------
# stationary events
# ---------------------------------------------------------------------------

def test_stationary_event_total_is_one():
    atoms = section_61_atoms()
    total = Fraction(0)
    for S in range(-32, 33):
        v = stationary_event_probability(atoms, 12, S)
        total = total + v
    assert (as_quad(1) - total).is_zero()


def test_stationary_event_pinned_value():
    # the configuration used throughout: t = 100, I = J = [0, sqrt2 - 1)
    atoms = section_61_atoms()
    Iset = (as_quad(0), S2 - 1)
    v = stationary_event_probability(atoms, 100, 0, I=Iset, J=Iset)
    assert float(v) * 10 == pytest.approx(0.3714587607794109, abs=1e-12)


def test_stationary_event_matches_monte_carlo():
    atoms = section_61_atoms()
    sysm = RenewalBase(atoms)
    t = 50
    exact = float(stationary_event_probability(atoms, t, 0)) * math.sqrt(t)
    est = estimate_mlclt(sysm, float(t), 400_000, 13, window=("section", 1, 0))
    assert abs(est.point - exact) < 3 * est.std_error


def test_stationary_event_interval_constraints_partition():
    atoms = section_61_atoms()
    cuts = [as_quad(0), S2 - 1, as_quad(2) - S2, as_quad(1)]
    whole = stationary_event_probability(atoms, 30, 0)
    parts = sum((stationary_event_probability(atoms, 30, 0,
                                              I=(a, b))
                 for a, b in zip(cuts, cuts[1:])), start=as_quad(0))
    assert (whole - parts).is_zero()


@pytest.mark.parametrize("t", [5, 12])
def test_stationary_event_of_scaled_atoms_is_section_61s(t):
    # halved rewards: the event at v = l / 2 is section 6.1's at v = l, and
    # a value off the half-integers has probability 0; halved durations:
    # the event at t / 2 with I / 2 and J / 2 is section 6.1's at t, I, J.
    # Both are exact, in Q(sqrt 2)
    atoms = section_61_atoms()
    I, J = (as_quad(0), S2 - 1), (ONE - S2 / 2, ONE)
    half_x = [(x * HALF, y, p) for x, y, p in atoms]
    half_y = [(x, y * HALF, p) for x, y, p in atoms]
    for l in (0, 1):
        want = stationary_event_probability(atoms, t, l, I=I, J=J)
        assert want.sign() > 0
        assert stationary_event_probability(half_x, t, l * HALF, I=I,
                                            J=J) == want
        assert stationary_event_probability(
            half_y, as_quad(t) * HALF, l, I=tuple(e * HALF for e in I),
            J=tuple(e * HALF for e in J)) == want
    assert stationary_event_probability(half_x, t, Fraction(1, 4)) == 0


def test_stationary_event_rejects_rewards_off_the_rationals():
    # the DP keys on rational reward sums; a sqrt 2 part cannot be scaled
    # away
    atoms = [(-S2, ONE, HALF), (S2, ONE, HALF)]
    with pytest.raises(ValueError, match="rewards must be integers"):
        stationary_event_probability(atoms, 4, 0)


# ---------------------------------------------------------------------------
# the oscillation scan
# ---------------------------------------------------------------------------

def test_frac_cell_partition():
    assert frac_cell(as_quad(Fraction(1, 5))) == 0
    assert frac_cell(S2 - 1) == 1
    assert frac_cell(as_quad(Fraction(7, 10))) == 2
    assert frac_cell(as_quad(3) + Fraction(1, 5)) == 0


def test_counterexample_scan_cells_disagree():
    rows = counterexample_scan([Fraction(201, 10), Fraction(205, 10),
                                Fraction(209, 10)])
    by_cell = {cell: v for _, cell, v, _ in rows}
    assert set(by_cell) == {0, 1, 2}
    # the three subsequences approach limits in ratio 1 : 2/3 : 1/3; already
    # at t ~ 20 the values are far apart
    assert by_cell[0] > by_cell[1] > by_cell[2] > 0
    assert by_cell[2] / by_cell[0] == pytest.approx(1 / 3, abs=0.1)


def test_benchmark_scan_rows_are_exact():
    # the benchmark's renewal workload, against its reference rows with ==
    with open(os.path.join(PERFBENCH, "configs", "renewal_scan.json")) as fh:
        t_values = json.load(fh)["t_values"]
    with open(os.path.join(PERFBENCH, "expected_scan.json")) as fh:
        expected = json.load(fh)
    assert [list(row) for row in counterexample_scan(t_values)] == expected


def _bounds(t_values, atoms=None):
    atoms = _exact_atoms(section_61_atoms() if atoms is None else atoms)
    return [_prune_bound(atoms, as_quad(t)) for t in t_values]


@pytest.mark.parametrize("t_values, bounds", [
    ([20.9, 20.2, 20.5], [68, 67, 67]),             # unsorted
    ([20.5, 20.2, 20.5], [67, 67, 67]),             # a duplicate
    ([80.9, 80.2, 80.5], [133, 132, 132]),          # a bound change
    ([3, 2.9, 19.9, 20], [26, 26, 66, 66]),         # landings exactly on t
    ([1 + S2, 2.4], [23, 23]),                      # a ring element
], ids=["unsorted", "duplicate", "bound-change", "integer", "ring"])
def test_grouped_scan_equals_per_t_sweeps(t_values, bounds):
    # each set reads at least two t values from one sweep
    assert _bounds(t_values) == bounds
    assert counterexample_scan(t_values) == scan_per_t(t_values)


@pytest.mark.parametrize("atoms, t_values, message", [
    # durations 1 and sqrt2: S = 0 recurs off the integer lattice
    ([(-1, ONE, HALF), (1, S2, HALF)], [5, 5.2], "non-integer time"),
    # renewals at 0, 2, 4, ...: the last one before t = 5 is at 4
    ([(0, as_quad(2), Fraction(1))], [4.9, 5], "not at floor"),
])
def test_grouped_scan_keeps_structural_checks(atoms, t_values, message):
    assert len(set(_bounds(t_values, atoms))) == 1
    for scan in (counterexample_scan, scan_per_t):
        with pytest.raises(ValueError, match=message):
            scan(t_values, atoms=atoms)


def test_scan_rejects_t_below_one_before_sweeping(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept before validating every t")
    monkeypatch.setattr(renewal_exact, "_palm_sweep", no_sweep)
    with pytest.raises(ValueError, match="t >= 1"):
        counterexample_scan([120.9, 0.5])


def test_scan_csv_rows_format():
    rows = counterexample_scan([Fraction(21, 2)])
    lines = list(scan_csv_rows(rows))
    assert lines[0] == "t,frac_cell,sqrt_t_times_p,pruned_mass"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# validation and budgets
# ---------------------------------------------------------------------------

def test_rejects_noninteger_rewards():
    with pytest.raises(ValueError, match="integer"):
        dp_distribution([(S2, ONE, Fraction(1))], 2)


def test_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="sum"):
        dp_distribution([(-1, ONE, THIRD), (1, ONE, THIRD)], 2)
    # these sum to 1, and a -1/2 atom would make a "distribution" of total 1
    with pytest.raises(ValueError, match="nonnegative"):
        dp_distribution([(0, ONE, -HALF), (0, ONE, HALF),
                         (0, as_quad(2), 1)], 3)


def test_state_budget_raises_state_explosion(monkeypatch):
    # a 50 kB budget holds about 250 states of the t = 20 sweep, which
    # reaches about 870
    monkeypatch.setattr(renewal_exact, "_MEMORY_BUDGET", 50_000)
    with pytest.raises(StateExplosion, match="states"):
        dp_distribution(section_61_atoms(), 20)
    monkeypatch.setattr(renewal_exact, "_MEMORY_BUDGET", 1 << 20)
    assert sum(dp_distribution(section_61_atoms(), 20).values()) == 1


def test_state_keys_beyond_int64_raise_state_explosion():
    # four transitions of duration ~2^60 overflow the packed state key
    big = 1 << 60
    atoms = [(-1, as_quad(big), HALF), (1, big + S2, HALF)]
    with pytest.raises(StateExplosion, match="int64"):
        dp_distribution(atoms, 3 * big)
    assert sum(dp_distribution(atoms, 3 * (1 << 50)).values()) == 1


def test_enumeration_budget_guard():
    with pytest.raises(PathExplosion):
        brute_force_enumerate(section_61_atoms(), 60)

