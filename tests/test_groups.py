"""Closure, classification and shear reduction of value groups in R^2."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lcltflow.errors import (InfiniteCovolumeError, NotShearableError,
                             UnsupportedGroupError)
from lcltflow.groups import (CaseLabel, GroupWithShift, classify_case,
                             closure_1d, closure_of_group, covolume,
                             fiber_group, haar_mass, interval, point,
                             reduce_shift, shear_reduce, Group1D)
from lcltflow.quadfield import QuadScalar, as_quad

from groupref import apply_shear, case_group, weyl_average

S2 = QuadScalar.sqrtD(2)
ZERO = QuadScalar(0, 0, 2)
ONE = as_quad(1)


def classify(gens, shift=(0, 0)):
    return classify_case(closure_of_group(gens, shift=shift))


# ---------------------------------------------------------------------------
# pinned classifications
# ---------------------------------------------------------------------------

def test_vertical_and_irrational_slope_lattice_is_case_D():
    # generated by (0, 1) and (1, sqrt2): a = 1, d = 1, b = sqrt2 mod 1
    c = classify([(ZERO, ONE), (ONE, S2)])
    assert c.variant == "D"
    assert c.a == 1 and c.d == 1
    # canonical representative of sqrt2 modulo 1
    assert c.b == S2 - 1
    assert c.b.mod(c.d) == S2.mod(c.d)
    assert covolume(c) == 1.0


def test_rational_lattice_is_degenerate():
    c = classify([(ZERO, ONE), (ONE, as_quad(Fraction(1, 2)))])
    assert c.variant == "Degenerate"


def test_two_dense_directions_give_case_A():
    gens = [(ONE, ZERO), (S2, ZERO), (ZERO, ONE), (ZERO, S2)]
    c = classify(gens)
    assert c.variant == "A"


def test_dense_line_with_transverse_lattice_is_case_C():
    # closure of {(m + n sqrt2)(1, 1)} + Z(1, 0) contains the line of slope 1
    gens = [(ONE, ONE), (S2, S2), (ONE, ZERO)]
    c = classify(gens)
    assert c.variant == "C"
    assert c.alpha == 1 and c.beta == 1


def test_vertical_line_with_lattice_is_case_B():
    gens = [(ZERO, ONE), (ZERO, S2), (as_quad(3), ZERO)]
    c = classify(gens)
    assert c.variant == "B"
    assert c.a == 3


def test_case_E_no_vertical_or_horizontal_member():
    # lattice spanned by (1 + sqrt2, sqrt2) and (1, 1): no lattice point on
    # either axis (exact), so the label must be E
    gens = [(1 + S2, S2), (ONE, ONE)]
    c = classify(gens)
    assert c.variant == "E"
    assert c.d_p.sign() > 0
    assert (c.a_p * c.d_p - c.b_p * c.c_p).sign() > 0


def test_horizontal_lattice_vector_is_degenerate():
    c = classify([(ONE, ZERO), (S2, ONE)])
    assert c.variant == "Degenerate"


def test_closure_idempotent_on_case_groups():
    for gens in ([(ZERO, ONE), (ONE, S2)], [(1 + S2, S2), (ONE, ONE)]):
        c = classify(gens)
        grp = case_group(c)
        again = classify_case(GroupWithShift(grp, (ZERO, ZERO)))
        assert again == c


def test_shift_changes_nothing_when_inside_the_group():
    a = classify([(ZERO, ONE), (ONE, S2)])
    b = classify([(ZERO, ONE), (ONE, S2)], shift=(ONE, S2))
    assert a == b


# ---------------------------------------------------------------------------
# shear reduction
# ---------------------------------------------------------------------------

def test_shear_E_to_D_pinned():
    c = CaseLabel("E", a_p=1 + S2, b_p=S2, c_p=ONE, d_p=ONE)
    d, v = shear_reduce(c)
    assert d.variant == "D"
    assert v == 1
    assert d.a == 1 and d.d == 1
    assert d.b == S2 - 1  # sqrt2 reduced modulo d = 1
    # shear has determinant 1: covolume is preserved exactly
    assert covolume(d) == pytest.approx(covolume(c), abs=0)


def test_shear_C_to_B():
    c = CaseLabel("C", alpha=S2, beta=as_quad(3))
    b, v = shear_reduce(c)
    assert b.variant == "B"
    assert v == 1 / S2
    assert b.a == abs(as_quad(3) / S2)


def test_shear_group_image_matches_label():
    c = classify([(1 + S2, S2), (ONE, ONE)])
    d, v = shear_reduce(c)
    sheared = apply_shear(case_group(c), v)
    assert classify_case(GroupWithShift(sheared, (ZERO, ZERO))) == d


def test_shear_rejects_wrong_cases():
    with pytest.raises(NotShearableError):
        shear_reduce(CaseLabel("A"))
    with pytest.raises(NotShearableError):
        shear_reduce(CaseLabel("B", a=1))


def test_covolume_needs_a_lattice():
    with pytest.raises(InfiniteCovolumeError):
        covolume(CaseLabel("A"))


# ---------------------------------------------------------------------------
# haar mass, fiber group, weyl averages
# ---------------------------------------------------------------------------

def test_haar_mass_full_and_lattice():
    assert haar_mass(Group1D.full(), interval(-1, 2)) == 3.0
    M = Group1D.lattice(Fraction(1, 2))
    # points 0, 1/2, 1 in [0, 1]: spacing-weighted count
    assert haar_mass(M, interval(0, 1, True, True)) == pytest.approx(1.5)
    assert haar_mass(M, point(0.5)) == pytest.approx(0.5)
    assert haar_mass(M, point(0.3)) == 0.0


def test_fiber_groups():
    assert fiber_group(CaseLabel("A")).kind == "R"
    assert fiber_group(CaseLabel("B", a=2)).a == 2
    g = fiber_group(CaseLabel("C", alpha=S2, beta=as_quad(1)))
    assert g.a == abs(1 / S2)
    with pytest.raises(UnsupportedGroupError):
        fiber_group(CaseLabel("D", a=1, b=S2, d=1))


def test_lattice_count_that_overflows_a_float_says_so():
    M = Group1D.lattice(Fraction(1, 2))
    for item in (interval(-1e308, 1e308), point(1e308)):
        with pytest.raises(OverflowError, match="overflow a float"):
            haar_mass(M, item)


def test_weyl_average_irrational_converges_to_lebesgue():
    # <Z, sqrt2> is dense: averaged translates approach Lebesgue measure
    got = weyl_average(Group1D.lattice(1), S2, 10 ** 5, interval(0, 0.5))
    assert got == pytest.approx(0.5, abs=0.02)


def test_weyl_average_rational_stays_atomic():
    # r = 1/3: shifts cycle through {0, 1/3, 2/3}; the point {0} is hit
    # exactly every third time
    got = weyl_average(Group1D.lattice(1), Fraction(1, 3), 3 * 10 ** 4,
                       point(0.0))
    assert got == pytest.approx(1 / 3, abs=1e-9)


def test_weyl_average_full_group_is_exact():
    assert weyl_average(Group1D.full(), 0.123, 10, interval(0, 2)) == 2.0


def test_closure_1d():
    assert closure_1d([ONE, S2]).kind == "R"
    g = closure_1d([Fraction(1, 2), Fraction(1, 3)])
    assert g.kind == "lattice" and g.a == Fraction(1, 6)
    assert closure_1d([ZERO]).kind == "trivial"
    g = closure_1d([S2, 3 * S2])
    assert g.a == S2


# ---------------------------------------------------------------------------
# floating clustering oracle on randomized generator sets
# ---------------------------------------------------------------------------

def _dist_to_group(grp_float, pt):
    """Distance from pt to a classified closed subgroup, floats."""
    kind, data = grp_float
    x = np.asarray(pt, dtype=float)
    if kind == "full":
        return 0.0
    if kind == "line_lattice":
        u, z = data  # unit line direction, transverse lattice step (may be 0)
        perp = x - np.dot(x, u) * u
        if z is None:
            return float(np.hypot(*perp))
        k = np.round(np.dot(perp, z) / np.dot(z, z))
        return float(np.hypot(*(perp - k * z)))
    if kind == "lattice":
        B = data  # 2x2 basis columns
        c = np.linalg.solve(B, x)
        return float(np.linalg.norm(B @ (c - np.round(c))))
    if kind == "rank1":
        z = data
        k = np.round(np.dot(x, z) / np.dot(z, z))
        r = x - k * z
        return float(np.hypot(*r))
    raise AssertionError(kind)


def _float_form(group):
    if group.dim_linear == 2:
        return ("full", None)
    if group.dim_linear == 1:
        u = np.array([float(group.linear_dirs[0][0]),
                      float(group.linear_dirs[0][1])])
        u = u / np.linalg.norm(u)
        z = None
        if group.lattice_basis:
            z = np.array([float(group.lattice_basis[0][0]),
                          float(group.lattice_basis[0][1])])
        return ("line_lattice", (u, z))
    if len(group.lattice_basis) == 2:
        B = np.array([[float(v[0]) for v in group.lattice_basis],
                      [float(v[1]) for v in group.lattice_basis]])
        return ("lattice", B)
    if group.lattice_basis:
        z = np.array([float(group.lattice_basis[0][0]),
                      float(group.lattice_basis[0][1])])
        return ("rank1", z)
    return ("lattice", np.eye(2) * 0 + np.eye(2))


def test_clustering_oracle_on_random_generator_sets():
    rng = random.Random(901)
    for trial in range(10):
        k = rng.choice([2, 2, 3])
        gens = []
        for _ in range(k):
            gens.append(tuple(
                QuadScalar(Fraction(rng.randint(-3, 3)),
                           Fraction(rng.choice([0, 0, 1, -1, 2])), 2)
                for _ in range(2)))
        if all(g[0].is_zero() and g[1].is_zero() for g in gens):
            continue
        g = closure_of_group(gens)
        form = _float_form(g.group)
        # every integer combination with |n_i| <= 40 must lie in the closure
        fg = [(float(v[0]), float(v[1])) for v in gens]
        for _ in range(400):
            ns = [rng.randint(-40, 40) for _ in range(k)]
            pt = (sum(n * v[0] for n, v in zip(ns, fg)),
                  sum(n * v[1] for n, v in zip(ns, fg)))
            assert _dist_to_group(form, pt) < 1e-6, (trial, gens, ns)


def _contains(group, v):
    """Exact membership of a field vector: v reduces to zero."""
    return all(c.is_zero() for c in reduce_shift(group, v))


def test_membership_is_exact_for_lattice_case():
    g = closure_of_group([(ZERO, ONE), (ONE, S2)])
    assert _contains(g.group, (as_quad(3), 3 * S2 + 5))
    assert not _contains(g.group, (as_quad(Fraction(1, 2)), ZERO))


# ---------------------------------------------------------------------------
# membership and shift reduction on every group shape
# ---------------------------------------------------------------------------

HALF = as_quad(Fraction(1, 2))

# generators of each closed shape, with points off the closure
SHAPES = {
    "A": ([(ONE, ZERO), (S2, ZERO), (ZERO, ONE), (ZERO, S2)], []),
    "B": ([(ZERO, ONE), (ZERO, S2), (as_quad(3), ZERO)],
          [(ONE, ZERO), (S2, S2)]),
    "C": ([(ONE, ONE), (S2, S2), (ONE, ZERO)],
          [(HALF, ZERO), (S2, ZERO)]),
    "C bare line": ([(ONE, ONE), (S2, S2)], [(ONE, ZERO), (ZERO, HALF)]),
    "D": ([(ZERO, ONE), (ONE, S2)], [(HALF, ZERO), (ONE, ONE)]),
    "E": ([(1 + S2, S2), (ONE, ONE)], [(ONE, ZERO), (HALF, HALF)]),
    "rank-1 lattice": ([(ONE, S2)], [(HALF, S2 * HALF), (ONE, ZERO)]),
    "trivial": ([(ZERO, ZERO)], [(ONE, ZERO), (ZERO, S2)]),
}


def _combination(gens, ns):
    return (sum((n * g[0] for n, g in zip(ns, gens)), ZERO),
            sum((n * g[1] for n, g in zip(ns, gens)), ZERO))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_contains_and_reduce_shift_on_every_shape(shape):
    gens, off = SHAPES[shape]
    grp = closure_of_group(gens).group
    rng = random.Random(17)
    members = list(gens)
    members += [_combination(gens, [rng.randint(-5, 5) for _ in gens])
                for _ in range(6)]
    for m in members:
        assert _contains(grp, m), (shape, m)
    for v in off:
        assert not _contains(grp, v), (shape, v)
    for _ in range(6):
        v = (QuadScalar(Fraction(rng.randint(-9, 9), 7),
                        Fraction(rng.randint(-9, 9), 5), 2),
             QuadScalar(Fraction(rng.randint(-9, 9), 3),
                        Fraction(rng.randint(-9, 9), 11), 2))
        r = reduce_shift(grp, v)
        for m in members:
            assert reduce_shift(grp, (v[0] + m[0], v[1] + m[1])) == r
        # lattice coordinates of the reduced shift lie in [0, 1)
        basis = grp.lattice_basis
        if len(basis) == 2:
            det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
            coords = [(r[0] * basis[1][1] - r[1] * basis[1][0]) / det,
                      (basis[0][0] * r[1] - basis[0][1] * r[0]) / det]
        else:
            coords = [(r[0] * z[0] + r[1] * z[1]) / (z[0] * z[0] + z[1] * z[1])
                      for z in basis]
        assert all(c.floor() == 0 for c in coords), (shape, v, r)


def test_closure_accepts_five_generators():
    # the case-D lattice of (0, 1), (1, sqrt2) with three redundant members
    gens = [(ZERO, ONE), (ONE, S2), (as_quad(2), 2 * S2), (ZERO, as_quad(3)),
            (ONE, 1 + S2)]
    assert classify(gens) == classify(gens[:2])
