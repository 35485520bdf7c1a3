"""Full path enumeration reference for the exact renewal DP.

Every Palm-start renewal path up to time t is enumerated one by one, with
an exact rational probability per path and exact elapsed times held as
integer pairs (p, q) for p + q sqrt(D).  Tests require exact equality with
``renewal_exact.dp_distribution``.
"""

import math
from fractions import Fraction

from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.renewal_exact import ExactDistribution, _exact_atoms

_MARGIN = 1e-9     # float comparisons closer than this use the exact sign


class PathExplosion(Exception):
    """Enumeration would exceed the path budget."""


def brute_force_enumerate(atoms, t) -> ExactDistribution:
    """Exact law of (S_{N_t}, t - t_{N_t}) from a renewal at time 0, by
    enumerating every path.  Durations must be quadratic integers."""
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
    dist = ExactDistribution({(S, t - QuadScalar(Tp, Tq, D)): m
                              for (S, Tp, Tq), m in mass.items()})
    assert dist.total() == 1
    return dist
