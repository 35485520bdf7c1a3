"""References for the closed-subgroup engine.

- ``weyl_average``: the averaged Haar masses of the translates of a test
  set along -n r mod M, which tend to the Haar measure of the closure of
  <M, r>.
- ``case_group``: the canonical closed subgroup that a case label
  describes, rebuilt from the label alone.
- ``apply_shear``: the exact image of a closed subgroup under the shear
  [[1, -v], [0, 1]].

Tests check ``groups.classify_case`` and ``groups.shear_reduce`` against
them: a case group classifies back to its label, and the sheared group of a
label classifies to the label that ``shear_reduce`` gives.
"""

from lcltflow.errors import UnsupportedGroupError
from lcltflow.groups import (CaseLabel, ClosedSubgroup2, Group1D,
                             _canon_direction, _canon_lattice,
                             _canon_line_lattice, _dot, _lattice_count,
                             _sign_normalize_q4, haar_mass)
from lcltflow.quadfield import QuadScalar, as_quad


def weyl_average(M: Group1D, r, N, test_set):
    """(1/N) sum_{n=1..N} u_M(test_set + kappa_n) with kappa_n = -n r mod M.

    Tests weak convergence of the averaged translates toward the Haar measure
    of the closure of <M, r>."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(test_set, tuple) and test_set and test_set[0] in ("int", "pt"):
        test_set = [test_set]
    if M.kind == "R":
        return haar_mass(M, test_set)
    if M.kind != "lattice":
        raise UnsupportedGroupError("weyl_average needs M = R or a lattice")
    a = float(M.a)
    r = float(r)
    total = sum(_lattice_count(a, _translate(it, (-n * r) % a))
                for n in range(1, N + 1) for it in test_set)
    return a * (total / N)


def _translate(item, shift):
    """An interval or point item of ``groups.interval`` / ``groups.point``
    moved by ``shift``."""
    if item[0] == "pt":
        return ("pt", item[1] + shift)
    _, lo, hi, lc, rc = item
    return ("int", lo + shift, hi + shift, lc, rc)


def case_group(c: CaseLabel, D=2) -> ClosedSubgroup2:
    """Rebuild the canonical closed subgroup described by a case label."""
    one = as_quad(1, D)
    zero = QuadScalar(0, 0, D)
    if c.variant == "A":
        return ClosedSubgroup2(2, [(one, zero), (zero, one)], [], D)
    if c.variant == "B":
        if c.a.is_zero():
            return ClosedSubgroup2(1, [(zero, one)], [], D)
        return ClosedSubgroup2(1, [(zero, one)], [(c.a, zero)], D)
    if c.variant == "C":
        u = (one, c.alpha)
        if c.beta.is_zero():
            return ClosedSubgroup2(1, [u], [], D)
        # lattice generator orthogonal to the line with functional value beta
        y0 = (-c.alpha / c.beta, 1 / c.beta)
        n2 = _dot(y0, y0)
        z = _sign_normalize_q4((y0[0] / n2, y0[1] / n2))
        return ClosedSubgroup2(1, [u], [z], D)
    if c.variant == "D":
        return _canon_lattice([(c.a, c.b), (zero, c.d)], D)
    if c.variant == "E":
        return _canon_lattice([(c.a_p, c.b_p), (c.c_p, c.d_p)], D)
    raise UnsupportedGroupError("no unique group for a Degenerate label")


def apply_shear(group: ClosedSubgroup2, v) -> ClosedSubgroup2:
    """Exact image of a closed subgroup under [[1, -v], [0, 1]]."""
    v = as_quad(v, group.D)

    def img(w):
        return (w[0] - v * w[1], w[1])

    dirs = [img(u) for u in group.linear_dirs]
    basis = [img(z) for z in group.lattice_basis]
    if group.dim_linear == 0:
        if len(basis) == 2:
            return _canon_lattice(basis, group.D)
        return ClosedSubgroup2(0, [], [_sign_normalize_q4(b) for b in basis],
                               group.D)
    if group.dim_linear == 2:
        return ClosedSubgroup2(2, dirs, [], group.D)
    if basis:
        return _canon_line_lattice(dirs[0], basis[0], group.D)
    return ClosedSubgroup2(1, [_canon_direction(dirs[0])], [], group.D)
