"""Full path enumeration reference for the exact renewal DP.

Every Palm-start renewal path up to time t is enumerated one by one, with
exact rational probabilities and exact ring elapsed times.  Tests require
exact equality with ``renewal_exact.dp_distribution``.
"""

from fractions import Fraction

from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.renewal_exact import ExactDistribution, _exact_atoms


class PathExplosion(Exception):
    """Enumeration would exceed the path budget."""


def brute_force_enumerate(atoms, t) -> ExactDistribution:
    """Exact law of (S_{N_t}, t - t_{N_t}) from a renewal at time 0, by
    enumerating every path."""
    atoms = _exact_atoms(atoms)
    t = t if isinstance(t, QuadScalar) else as_quad(t)
    min_y = min((y for _, y, _ in atoms), key=float)
    depth = int(float(t) / float(min_y)) + 2
    if len(atoms) ** depth > 10 ** 8:
        raise PathExplosion(
            f"~{len(atoms)}^{depth} paths exceed the enumeration budget")
    mass = {}

    def rec(S, T, prob):
        for x, y, p in atoms:
            T2 = T + y
            if T2 <= t:
                rec(S + x, T2, prob * p)
            else:
                key = (S, t - T)
                mass[key] = mass.get(key, Fraction(0)) + prob * p

    rec(0, t - t, Fraction(1))
    dist = ExactDistribution(mass)
    assert dist.total() == 1
    return dist
