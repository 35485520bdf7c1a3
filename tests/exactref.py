"""References for the exact renewal DP.

- ``brute_force_enumerate``: every Palm-start renewal path up to time t,
  one by one, with an exact rational probability per path and exact elapsed
  times held as integer pairs (p, q) for p + q sqrt(D).  Tests require exact
  equality with ``renewal_exact.dp_distribution``.
- ``palm_sweep_at``: the DP as a one-state-at-a-time heap sweep to one
  horizon, against which tests check the band sweep of
  ``renewal_exact._palm_sweep``.
- ``scan_per_t``: the oscillation scan with one heap sweep per t value.
  Tests require ``renewal_exact.counterexample_scan``, which reads every
  t value from one band sweep, to return the same rows.
"""

import heapq
import math
from fractions import Fraction

from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.renewal_exact import (_exact_atoms, _prune_bound, frac_cell,
                                    section_61_atoms)

_MARGIN = 1e-9     # float comparisons closer than this use the exact sign


class PathExplosion(Exception):
    """Enumeration would exceed the path budget."""


def brute_force_enumerate(atoms, t):
    """Exact law of (S_{N_t}, t - t_{N_t}) from a renewal at time 0, by
    enumerating every path, as {(S, overshoot): Fraction}.  Durations must
    be quadratic integers."""
    atoms = _exact_atoms(atoms)
    t = t if isinstance(t, QuadScalar) else as_quad(t)
    min_y = min((y for _, y, _ in atoms), key=float)
    depth = int(float(t) / float(min_y)) + 2
    if len(atoms) ** depth > 10 ** 8:
        raise PathExplosion(
            f"~{len(atoms)}^{depth} paths exceed the enumeration budget")
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    assert all(y.p.denominator == y.q.denominator == 1 for _, y, _ in atoms)
    steps = [(x, int(y.p), int(y.q), p) for x, y, p in atoms]
    t_float = float(t)
    sqD = math.sqrt(D)

    def within(Tp, Tq):
        """T = Tp + Tq sqrt(D) <= t, exactly."""
        diff = t_float - (Tp + Tq * sqD)
        if abs(diff) <= _MARGIN:
            return QuadScalar(t.p - Tp, t.q - Tq, D).sign() >= 0
        return diff > 0

    mass = {}

    def rec(S, Tp, Tq, prob):
        for x, yp, yq, p in steps:
            if within(Tp + yp, Tq + yq):
                rec(S + x, Tp + yp, Tq + yq, prob * p)
            else:
                key = (S, Tp, Tq)
                mass[key] = mass.get(key, Fraction(0)) + prob * p

    rec(0, 0, 0, Fraction(1))
    dist = {(S, t - QuadScalar(Tp, Tq, D)): m
            for (S, Tp, Tq), m in mass.items()}
    assert sum(dist.values()) == 1
    return dist


def palm_sweep_at(atoms, t, prune_bound):
    """One DP sweep to horizon t, one state at a time through a heap:
    (states, finals, pruned, den), the finals summed from the transitions
    past t as the loop meets them.  ``renewal_exact._palm_sweep`` must give
    the same finals and cut, and the same states within its kept window, up
    to a power of L."""
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    L = math.lcm(*(p.denominator for _, _, p in atoms))
    steps = [(x, int(y.p), int(y.q), int(p * L)) for x, y, p in atoms]
    den = L ** (max((t / min(y for _, y, _ in atoms)).floor(), 0) + 1)
    t_float = float(t)
    sqD = math.sqrt(D)
    pending = {(0, 0, 0): den}
    heap = [(0.0, (0, 0, 0))]
    states, finals, pruned = {}, [], {}
    while heap:
        _, key = heapq.heappop(heap)
        if key in states:
            continue
        mass = states[key] = pending.pop(key)
        S, Tp, Tq = key
        over = 0
        for x, yp, yq, wk in steps:
            w = mass // L * wk
            p2, q2 = Tp + yp, Tq + yq
            at = p2 + q2 * sqD
            diff = t_float - at
            if abs(diff) <= _MARGIN:
                diff = QuadScalar(t.p - p2, t.q - q2, D).sign()
            if diff < 0:
                over += w
            elif abs(S + x) > prune_bound:
                pruned[p2, q2] = pruned.get((p2, q2), 0) + w
            else:
                k2 = (S + x, p2, q2)
                if k2 not in pending:
                    pending[k2] = 0
                    heapq.heappush(heap, (at, k2))
                pending[k2] += w
        if over:
            finals.append((S, Tp, Tq, over))
    assert sum(f[3] for f in finals) + sum(pruned.values()) == den
    return states, finals, pruned, den


def scan_per_t(t_values, atoms=None):
    """``counterexample_scan`` rows from one sweep per t value."""
    atoms = _exact_atoms(section_61_atoms() if atoms is None else atoms)
    rows = []
    for t in t_values:
        t_exact = as_quad(t)
        if float(t_exact) < 1:
            raise ValueError("scan requires t >= 1")
        states, finals, pruned, den = palm_sweep_at(
            atoms, t_exact, _prune_bound(atoms, t_exact))
        off = next(((Tp, Tq) for S, Tp, Tq in states if S == 0 and Tq != 0),
                   None)
        if off is not None:
            raise ValueError(f"zero-reward renewal at non-integer time "
                             f"{off[0]}+{off[1]}*sqrt")
        p0 = 0
        for S, Tp, _Tq, w in finals:
            if S == 0:
                if Tp != t_exact.floor():
                    raise ValueError(
                        "last zero-reward renewal is not at floor(t)")
                p0 += w
        rows.append((float(t_exact), frac_cell(t_exact),
                     math.sqrt(float(t_exact)) * float(Fraction(p0, den)),
                     float(Fraction(sum(pruned.values()), den))))
    return rows
