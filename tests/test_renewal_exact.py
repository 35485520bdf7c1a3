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
from lcltflow.renewal_exact import (ExactDistribution, PalmStart,
                                    StationaryStart, _exact_atoms,
                                    _prune_bound,
                                    counterexample_scan, dp_distribution,
                                    frac_cell, scan_csv_rows,
                                    section_61_atoms,
                                    stationary_event_probability)
from lcltflow.systems import RenewalBase

from exactref import PathExplosion, brute_force_enumerate, scan_per_t

S2 = QuadScalar.sqrtD(2)
ONE = as_quad(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

COIN = [(-1, ONE, HALF), (1, ONE, HALF)]
# probabilities 1/2, 1/3, 1/6: integer weights 3, 2, 1 over L = 6
MIXED = [(-1, as_quad(2) - S2, HALF), (0, ONE, THIRD),
         (3, S2, Fraction(1, 6))]

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def same_distribution(a: ExactDistribution, b: ExactDistribution):
    assert a.pruned_mass == 0 and b.pruned_mass == 0
    keys = set(a.mass) | set(b.mass)
    for k in keys:
        assert a.mass.get(k, Fraction(0)) == b.mass.get(k, Fraction(0)), k
    return True


# ---------------------------------------------------------------------------
# Palm start: DP against full enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [Fraction(1, 2), 1, Fraction(5, 2), 4, 6])
def test_dp_equals_enumeration_coin(t):
    same_distribution(dp_distribution(COIN, t, prune=False),
                      brute_force_enumerate(COIN, t))


@pytest.mark.parametrize("t", [Fraction(1, 2), 2, Fraction(9, 2), 6])
def test_dp_equals_enumeration_section61(t):
    atoms = section_61_atoms()
    same_distribution(dp_distribution(atoms, t, prune=False),
                      brute_force_enumerate(atoms, t))


@pytest.mark.parametrize("t", [Fraction(1, 2), 2, Fraction(7, 2), 5])
def test_dp_equals_enumeration_mixed_weights(t):
    same_distribution(dp_distribution(MIXED, t, prune=False),
                      brute_force_enumerate(MIXED, t))


def test_small_t_palm_distribution_by_hand():
    # t = 1/2: only the first cell can be pending.  Atoms with duration
    # > 1/2 leave (S=0, overshoot 1/2); the sqrt2-1 ~ 0.414 atom completes
    # and its successor is always pending, overshoot 1/2 - (sqrt2 - 1)
    dist = dp_distribution(section_61_atoms(), Fraction(1, 2), prune=False)
    over = as_quad(Fraction(1, 2))
    short = over - (S2 - 1)
    assert dist.mass[(0, over)] == Fraction(2, 3)
    assert dist.mass[(1, short)] == Fraction(1, 3)
    assert len(dist.mass) == 2


def test_below_first_duration_is_point_mass():
    dist = dp_distribution(COIN, Fraction(1, 3), prune=False)
    assert dist.mass == {(0, as_quad(Fraction(1, 3))): Fraction(1)}


def test_single_deterministic_atom():
    atoms = [(0, as_quad(2), Fraction(1))]
    dist = dp_distribution(atoms, 7, prune=False)
    # renewals at 0, 2, 4, 6: last one at 6, overshoot 1
    assert dist.mass == {(0, ONE): Fraction(1)}


def test_mass_conservation_with_pruning():
    dist = dp_distribution(section_61_atoms(), 40, prune=True)
    assert dist.total() == 1
    assert dist.pruned_mass >= 0


def test_stationary_distribution_sums_to_one():
    dist = dp_distribution(section_61_atoms(), 20, mode=StationaryStart,
                           prune=False)
    assert dist.total() == 1
    # the stationary marginal carries no overshoot key
    assert all(o is None for _, o in dist.mass)


def test_mixed_weights_distributions_sum_to_one():
    for mode in (PalmStart, StationaryStart):
        assert dp_distribution(MIXED, 12, mode=mode, prune=False).total() == 1
    # at t = 40 the cutoff |S| <= 82 drops mass, which the total includes
    cut = dp_distribution(MIXED, 40, prune=True)
    assert cut.total() == 1 and cut.pruned_mass > 0


def test_stationary_pruned_measure_counts_cut_times():
    # a path cut at Palm time T' is lost only for start heights s0 with
    # T' <= t - y_i + s0, so the pruned measure depends on T'
    dist = dp_distribution(section_61_atoms(), 40, mode=StationaryStart,
                           prune=True)
    assert dist.total() == 1 and dist.pruned_mass > 0


def test_coin_stationary_equals_palm():
    # unit deterministic roof: the size-biased first cell is again uniform
    # over atoms and by time t = 9 exactly 9 cells complete; the stationary
    # marginal is the binomial law of 9 flips
    dist = dp_distribution(COIN, 9, mode=StationaryStart, prune=False)
    for k in range(10):
        S = 2 * k - 9
        assert dist.mass.get((S, None), Fraction(0)) == \
            Fraction(math.comb(9, k), 2 ** 9)


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
                         (0, as_quad(2), 1)], 3, prune=False)


def test_state_budget_raises_state_explosion(monkeypatch):
    # a 50 kB budget holds about 250 states of the t = 20 sweep, which
    # reaches about 870
    monkeypatch.setattr(renewal_exact, "_MEMORY_BUDGET", 50_000)
    with pytest.raises(StateExplosion, match="states"):
        dp_distribution(section_61_atoms(), 20)
    monkeypatch.setattr(renewal_exact, "_MEMORY_BUDGET", 1 << 20)
    assert dp_distribution(section_61_atoms(), 20).total() == 1


def test_enumeration_budget_guard():
    with pytest.raises(PathExplosion):
        brute_force_enumerate(section_61_atoms(), 60)

