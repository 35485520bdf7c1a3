"""Closed subgroups of R^2 over a quadratic field: closures, classification,
shear reduction, Haar mass.

Scalars live in Q(sqrt D).  A finitely generated subgroup of R^2 with
generators in Q(sqrt D)^2 has a computable closure because density questions
reduce to exact rationality tests.  The closure is one of: the trivial group,
a rank-1 or rank-2 lattice, a line, a line plus a transverse rank-1 lattice,
or R^2.  The case labels (A)-(E) and Degenerate are read off that shape.

Algorithm sketch for ``closure_of_group``: embed each generator
(p1 + q1 sqrt D, p2 + q2 sqrt D) as the rational 4-vector (p1, q1, p2, q2).
The embedding is a group isomorphism onto the generated subgroup of R^2, so
an integer Hermite normal form gives the abstract rank rho.  For rho <= 2 the
closure is the group itself (a lattice) or a dense line.  For rho >= 3 the
group cannot be discrete; we compute its annihilator
Gamma = {y : <g, y> in Z for all generators g} exactly (the conditions split
into a sqrt-D part, which is an integer kernel condition, and a rational
part, which is a congruence condition) and return the bidual, which equals
the closure for subgroups of R^n.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (InfiniteCovolumeError, MixedRingError, NotShearableError,
                     RankError, UnsupportedGroupError)
from .quadfield import QuadScalar, as_quad

Vec2 = tuple  # (QuadScalar, QuadScalar)


# ---------------------------------------------------------------------------
# small exact integer linear algebra
# ---------------------------------------------------------------------------

def _hnf(rows):
    """Row Hermite normal form of an integer matrix; returns the nonzero
    echelon rows (leading entries positive, entries above pivots reduced)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                k = rows[i][c] // rows[i0][c]
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[i0])]
        nz = [i for i in range(r, m) if rows[i][c] != 0]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            k = rows[i][c] // rows[r][c]
            if k:
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return [row for row in rows[:r] if any(row)]


def _int_kernel(M, ncols):
    """Basis (HNF rows) of {x in Z^ncols : M x = 0} for an integer matrix M
    given as a list of rows."""
    m = len(M)
    aug = []
    for j in range(ncols):
        aug.append([M[i][j] for i in range(m)] +
                   [1 if k == j else 0 for k in range(ncols)])
    H = _hnf(aug)
    return [row[m:] for row in H if not any(row[:m])]


def _admissible_lattice(qrows, prows):
    """Basis of {m in Z^2 : q.m = 0 for q in qrows, p.m in Z for p in prows}
    where qrows/prows are length-2 Fraction vectors."""
    if qrows:
        scaled = []
        for qv in qrows:
            L = math.lcm(qv[0].denominator, qv[1].denominator)
            scaled.append([int(qv[0] * L), int(qv[1] * L)])
        K = _int_kernel(scaled, 2)
    else:
        K = [[1, 0], [0, 1]]
    if not K or not prows:
        return K
    r = len(K)
    Pk = [[sum(p[j] * K[i][j] for j in range(2)) for i in range(r)]
          for p in prows]
    L = 1
    for row in Pk:
        for e in row:
            L = math.lcm(L, e.denominator)
    A = [[int(e * L) for e in row] for row in Pk]
    J = len(A)
    M = [A[i] + [-L if k == i else 0 for k in range(J)] for i in range(J)]
    ker = _int_kernel(M, r + J)
    C = _hnf([v[:r] for v in ker])
    return [[sum(c[i] * K[i][j] for i in range(r)) for j in range(2)]
            for c in C]


# ---------------------------------------------------------------------------
# field-vector helpers
# ---------------------------------------------------------------------------

def _cross(v, w):
    return v[0] * w[1] - v[1] * w[0]


def _dot(v, w):
    return v[0] * w[0] + v[1] * w[1]


def _solve2(a, b, rhs):
    """Solve the 2x2 system with columns a, b equal to rhs, by Cramer."""
    det = _cross(a, b)
    if det.is_zero():
        raise ZeroDivisionError("singular 2x2 system")
    x = _cross(rhs, b) / det
    y = _cross(a, rhs) / det
    return x, y


def _vec_to_q4(v):
    return [v[0].p, v[0].q, v[1].p, v[1].q]


def _vec_from_q4(row, D):
    return (QuadScalar(row[0], row[1], D), QuadScalar(row[2], row[3], D))


def _q4_module_basis(vectors, D):
    """Z-basis of the module generated by the given field vectors, via the
    rational 4-dimensional embedding and integer HNF."""
    fracs = [_vec_to_q4(v) for v in vectors]
    L = 1
    for row in fracs:
        for e in row:
            L = math.lcm(L, e.denominator)
    ints = [[int(e * L) for e in row] for row in fracs]
    H = _hnf(ints)
    return [_vec_from_q4([Fraction(e, L) for e in row], D) for row in H]


def _sign_normalize_q4(v):
    """Flip the sign of a field vector so its first nonzero rational
    coordinate (in p1, q1, p2, q2 order) is positive."""
    for e in _vec_to_q4(v):
        if e != 0:
            return v if e > 0 else (-v[0], -v[1])
    return v


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ClosedSubgroup2:
    """A closed subgroup of R^2 in canonical form.

    dim_linear linear directions (0, 1 or 2) plus a transverse lattice basis
    of at most 2 - dim_linear vectors; all entries in Q(sqrt D).
    """

    def __init__(self, dim_linear, linear_dirs, lattice_basis, D=2):
        self.dim_linear = dim_linear
        self.linear_dirs = list(linear_dirs)
        self.lattice_basis = list(lattice_basis)
        self.D = D
        if dim_linear + len(self.lattice_basis) > 2:
            raise RankError("more than 2 independent directions in R^2")

    def __eq__(self, other):
        if not isinstance(other, ClosedSubgroup2):
            return NotImplemented
        return (self.dim_linear == other.dim_linear
                and self.linear_dirs == other.linear_dirs
                and self.lattice_basis == other.lattice_basis)

    def __repr__(self):
        return (f"ClosedSubgroup2(dim_linear={self.dim_linear}, "
                f"dirs={self.linear_dirs}, lattice={self.lattice_basis})")

    def to_json(self):
        return {
            "dim_linear": self.dim_linear,
            "linear_dirs": [[u[0].to_pair(), u[1].to_pair()]
                            for u in self.linear_dirs],
            "lattice_basis": [[v[0].to_pair(), v[1].to_pair()]
                              for v in self.lattice_basis],
            "D": self.D,
        }


class GroupWithShift:
    """A closed subgroup M of R^2 plus a coset shift r reduced modulo M."""

    def __init__(self, group: ClosedSubgroup2, shift):
        self.group = group
        self.shift = reduce_shift(group, shift)

    def __eq__(self, other):
        if not isinstance(other, GroupWithShift):
            return NotImplemented
        return self.group == other.group and self.shift == other.shift

    def __repr__(self):
        return f"GroupWithShift({self.group!r}, shift={self.shift})"

    def to_json(self):
        obj = self.group.to_json()
        obj["shift"] = [self.shift[0].to_pair(), self.shift[1].to_pair()]
        return obj


class CaseLabel:
    """Case label A | B(a) | C(alpha, beta) | D(a, b, d) | E(a', b', c', d')
    | Degenerate with exact parameters.

    Extensions beyond the strict case list, for totality of classification:
    B with a = 0 encodes the bare vertical line {0} x R, and C with beta = 0
    encodes a bare non-horizontal line; predictions reject these.
    """

    def __init__(self, variant, **params):
        self.variant = variant
        self.params = {k: as_quad(v) for k, v in params.items()}

    def __getattr__(self, name):
        try:
            return self.__dict__["params"][name]
        except KeyError:
            raise AttributeError(name)

    def __eq__(self, other):
        if not isinstance(other, CaseLabel):
            return NotImplemented
        return self.variant == other.variant and self.params == other.params

    def __repr__(self):
        ps = ", ".join(f"{k}={float(v):.6g}" for k, v in self.params.items())
        return f"Case {self.variant}({ps})" if ps else f"Case {self.variant}"


class Group1D:
    """A closed subgroup of R: R itself, a lattice aZ, or {0}."""

    def __init__(self, kind, a=None):
        if kind not in ("R", "lattice", "trivial"):
            raise ValueError(f"unknown 1-d group kind {kind!r}")
        if kind == "lattice":
            a = as_quad(a)
            if a.sign() <= 0:
                raise ValueError("lattice spacing must be positive")
        self.kind = kind
        self.a = a

    @classmethod
    def full(cls):
        return cls("R")

    @classmethod
    def lattice(cls, a):
        return cls("lattice", a)

    def __repr__(self):
        if self.kind == "lattice":
            return f"Group1D({float(self.a):.6g}Z)"
        return f"Group1D({self.kind})"


# ---------------------------------------------------------------------------
# real-set helper for Haar mass
# ---------------------------------------------------------------------------

def interval(lo, hi, lo_closed=True, hi_closed=False):
    """Interval item for haar_mass; default half-open [lo, hi)."""
    return ("int", float(lo), float(hi), lo_closed, hi_closed)


def point(x):
    return ("pt", float(x))


def _lattice_count(a, item):
    """Number of k in Z with a*k in the item, as a float; OverflowError
    when the count or a bound of it overflows a float."""
    tol = 1e-9          # slack of a float bound on the lattice
    try:
        if item[0] == "pt":
            x = item[1]
            return 1.0 * (abs(a * round(x / a) - x) <= tol)
        _, lo, hi, lc, rc = item
        klo = math.ceil(lo / a - tol) if lc else math.floor(lo / a + tol) + 1
        khi = math.floor(hi / a + tol) if rc else math.ceil(hi / a - tol) - 1
        return float(max(0, khi - klo + 1))
    except OverflowError:
        raise OverflowError(f"the points of the lattice {a!r}Z in {item!r} "
                            f"overflow a float") from None


def haar_mass(V: Group1D, items):
    """Haar measure of a finite union of intervals/points in a closed
    subgroup of R, normalized so large balls carry Lebesgue-comparable mass:
    Lebesgue for V = R, spacing x point-count for V = aZ.

    ``items`` is a list built from :func:`interval` / :func:`point`; a single
    item may be passed directly.
    """
    if isinstance(items, tuple) and items and items[0] in ("int", "pt"):
        items = [items]
    if V.kind == "R":
        total = 0.0
        for it in items:
            if it[0] == "int":
                total += max(0.0, it[2] - it[1])
        return total
    if V.kind == "lattice":
        a = float(V.a)
        return a * float(sum(_lattice_count(a, it) for it in items))
    raise UnsupportedGroupError("Haar mass undefined for the trivial group "
                                "under ball normalization")


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def _common_D(vectors):
    D = None
    for v in vectors:
        for c in v:
            if c.q != 0:
                if D is None:
                    D = c.D
                elif D != c.D:
                    raise MixedRingError("generators mix different "
                                         "quadratic rings")
    return D if D is not None else 2


def _as_field_vec(v, D):
    return (as_quad(v[0], D), as_quad(v[1], D))


def reduce_shift(group: ClosedSubgroup2, shift):
    """Reduce a shift vector into the canonical fundamental domain of the
    group: linear-direction components to 0, lattice coordinates into [0,1)
    by exact floor."""
    D = group.D
    s = _as_field_vec(shift, D)
    if group.dim_linear == 2:
        return (QuadScalar(0, 0, D), QuadScalar(0, 0, D))
    if group.dim_linear == 1:
        u = group.linear_dirs[0]
        c = _dot(s, u) / _dot(u, u)
        s = (s[0] - c * u[0], s[1] - c * u[1])
    if len(group.lattice_basis) == 2:
        x, y = _solve2(group.lattice_basis[0], group.lattice_basis[1], s)
        kx, ky = x.floor(), y.floor()
        b1, b2 = group.lattice_basis
        return (s[0] - kx * b1[0] - ky * b2[0],
                s[1] - kx * b1[1] - ky * b2[1])
    if group.lattice_basis:
        # a rank-1 lattice, or the one transverse to the line
        z = group.lattice_basis[0]
        k = (_dot(s, z) / _dot(z, z)).floor()
        return (s[0] - k * z[0], s[1] - k * z[1])
    return s


def _canon_direction(u):
    if not u[0].is_zero():
        return (as_quad(1, u[0].D), u[1] / u[0])
    return (QuadScalar(0, 0, u[1].D), as_quad(1, u[1].D))


def _canon_line_lattice(u, z, D):
    """Canonicalize a line direction plus transverse lattice generator:
    direction scaled to (1, alpha) or (0, 1), lattice generator orthogonal
    to the line with a fixed sign."""
    u = _canon_direction(u)
    c = _dot(z, u) / _dot(u, u)
    z = (z[0] - c * u[0], z[1] - c * u[1])
    z = _sign_normalize_q4(z)
    return ClosedSubgroup2(1, [u], [z], D)


def _canon_lattice(basis, D):
    basis = _q4_module_basis(basis, D)
    return ClosedSubgroup2(0, [], basis, D)


def closure_of_group(generators, shift=(0, 0), D=None) -> GroupWithShift:
    """Topological closure in R^2 of the group generated by the given field
    vectors, canonicalized, with the shift reduced modulo the closure."""
    if not generators:
        raise ValueError("at least one generator required")
    gens = [_as_field_vec(v, D or 2) for v in generators]
    if D is None:
        D = _common_D(gens + [_as_field_vec(shift, 2)])
    basis = _q4_module_basis(gens, D)
    rho = len(basis)

    if rho == 0:
        group = ClosedSubgroup2(0, [], [], D)
        return GroupWithShift(group, shift)

    collinear = all(_cross(basis[0], v).is_zero() for v in basis[1:])
    if collinear:
        if rho == 1:
            group = _canon_lattice(basis, D)
        else:
            # Z-rank >= 2 on a single line is dense in the line
            group = ClosedSubgroup2(1, [_canon_direction(basis[0])], [], D)
        return GroupWithShift(group, shift)

    if rho == 2:
        return GroupWithShift(_canon_lattice(basis, D), shift)

    # rho >= 3: dual (annihilator) method
    pair = None
    for i in range(rho):
        for j in range(i + 1, rho):
            if not _cross(basis[i], basis[j]).is_zero():
                pair = (i, j)
                break
        if pair:
            break
    v1, v2 = basis[pair[0]], basis[pair[1]]
    extras = [basis[k] for k in range(rho) if k not in pair]
    qrows, prows = [], []
    for v in extras:
        # c = A^{-1} v with A columns v1, v2: <v, A^{-T} m> = c . m
        c1, c2 = _solve2(v1, v2, v)
        qrows.append([c1.q, c2.q])
        prows.append([c1.p, c2.p])
    lam = _admissible_lattice(qrows, prows)
    if not lam:
        group = ClosedSubgroup2(2, [(as_quad(1, D), as_quad(0, D)),
                                    (as_quad(0, D), as_quad(1, D))], [], D)
        return GroupWithShift(group, shift)
    if len(lam) >= 2:
        raise RankError("rank >= 3 subgroup of R^2 computed a rank-2 "
                        "annihilator; impossible for a non-discrete group")
    m0 = lam[0]
    # y0 solves <v1, y0> = m0[0], <v2, y0> = m0[1]; i.e. A^T y0 = m0
    y0 = _solve2((v1[0], v2[0]), (v1[1], v2[1]),
                 (as_quad(m0[0], D), as_quad(m0[1], D)))
    # closure = {z : <y0, z> in Z} = line y0-perp + Z * y0 / |y0|^2
    u = (y0[1], -y0[0])
    n2 = _dot(y0, y0)
    z0 = (y0[0] / n2, y0[1] / n2)
    group = _canon_line_lattice(u, z0, D)
    return GroupWithShift(group, shift)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _first_comp_kernel(basis, component):
    """Primitive integer relations (m, n) with m*b1[c] + n*b2[c] = 0."""
    g1, g2 = basis[0][component], basis[1][component]
    L = math.lcm(g1.p.denominator, g1.q.denominator,
                 g2.p.denominator, g2.q.denominator)
    M = [[int(g1.p * L), int(g2.p * L)],
         [int(g1.q * L), int(g2.q * L)]]
    return _int_kernel(M, 2)


def _classify_lattice(group: ClosedSubgroup2) -> CaseLabel:
    basis = group.lattice_basis
    vker = _first_comp_kernel(basis, 0)
    if vker:
        m, n = vker[0]
        v0 = (m * basis[0][0] + n * basis[1][0],
              m * basis[0][1] + n * basis[1][1])
        d = abs(v0[1])
        # complete the primitive relation (m, n) to a unimodular basis of Z^2;
        # with x*m + y*n = 1 the pair (y, -x) satisfies det [[y,-x],[m,n]] = 1
        x, y = _xgcd(m, n)
        u1, u2 = y, -x
        w = (u1 * basis[0][0] + u2 * basis[1][0],
             u1 * basis[0][1] + u2 * basis[1][1])
        if w[0].sign() < 0:
            w = (-w[0], -w[1])
        a = w[0]
        b = w[1].mod(d)
        if (b / d).is_rational():
            return CaseLabel("Degenerate")
        return CaseLabel("D", a=a, b=b, d=d)
    hker = _first_comp_kernel(basis, 1)
    if hker:
        # a horizontal lattice vector makes the height projection cyclic
        return CaseLabel("Degenerate")
    v, w = _lagrange_reduce(basis[0], basis[1])
    # shorter vector becomes (c', d') with d' > 0; the other becomes (a', b')
    if w[1].sign() < 0:
        w = (-w[0], -w[1])
    if _cross(v, w).sign() < 0:
        v = (-v[0], -v[1])
    return CaseLabel("E", a_p=v[0], b_p=v[1], c_p=w[0], d_p=w[1])


def _xgcd(m, n):
    """Return (x, y) with x*m + y*n = gcd(m, n) = 1 for coprime m, n."""
    old_r, r = m, n
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _lagrange_reduce(v, w):
    """Lagrange-Gauss reduction of a 2-d lattice basis, exact steps; returns
    (longer, shorter)."""
    def n2(x):
        return _dot(x, x)

    if n2(v) < n2(w):
        v, w = w, v
    while True:
        # mu = nearest integer to <v, w>/<w, w>
        mu = (_dot(v, w) / n2(w) + Fraction(1, 2)).floor()
        v = (v[0] - mu * w[0], v[1] - mu * w[1])
        if n2(v) < n2(w):
            v, w = w, v
        else:
            break
    return v, w


def classify_case(g: GroupWithShift) -> CaseLabel:
    """Read the case label off a canonical closed group (already including
    the shift, i.e. the closure of <M, r>)."""
    grp = g.group
    if grp.dim_linear == 2:
        return CaseLabel("A")
    if grp.dim_linear == 1:
        u = grp.linear_dirs[0]
        if u[0].is_zero():  # vertical line
            if grp.lattice_basis:
                return CaseLabel("B", a=abs(grp.lattice_basis[0][0]))
            return CaseLabel("B", a=0)
        alpha = u[1]  # direction canonicalized to (1, alpha)
        if alpha.is_zero():
            return CaseLabel("Degenerate")
        if not grp.lattice_basis:
            return CaseLabel("C", alpha=alpha, beta=0)
        z = grp.lattice_basis[0]
        beta = abs(z[1] - alpha * z[0])
        return CaseLabel("C", alpha=alpha, beta=beta)
    if len(grp.lattice_basis) == 2:
        return _classify_lattice(grp)
    return CaseLabel("Degenerate")


def shear_reduce(c: CaseLabel):
    """Apply the shear [[1, -v], [0, 1]] that straightens case C to case B
    (v = 1/alpha) or case E to case D (v = c'/d'); returns (new label, v)."""
    if c.variant == "C":
        if c.alpha.is_zero() or c.beta.is_zero():
            raise NotShearableError("bare-line C label has no shear normal "
                                    "form")
        v = 1 / c.alpha
        return CaseLabel("B", a=abs(c.beta / c.alpha)), v
    if c.variant == "E":
        v = c.c_p / c.d_p
        a = c.a_p - c.b_p * c.c_p / c.d_p
        b = c.b_p
        if a.sign() < 0:
            a, b = -a, -b
        d = abs(c.d_p)
        return CaseLabel("D", a=a, b=b.mod(d), d=d), v
    raise NotShearableError(f"case {c.variant} is not sheared")


def covolume(c: CaseLabel) -> float:
    """Covolume of the discrete cases: a*d for D, |a'd' - b'c'| for E."""
    if c.variant == "D":
        return float(c.a * c.d)
    if c.variant == "E":
        return float(abs(c.a_p * c.d_p - c.b_p * c.c_p))
    raise InfiniteCovolumeError(f"case {c.variant} is not a lattice")


def fiber_group(c: CaseLabel) -> Group1D:
    """The 1-d group V of admissible flow-integral values: R for case A,
    aZ for B, (beta/alpha)Z for C."""
    if c.variant == "A":
        return Group1D.full()
    if c.variant == "B":
        if c.a.is_zero():
            return Group1D("trivial")
        return Group1D.lattice(c.a)
    if c.variant == "C":
        if c.beta.is_zero():
            return Group1D("trivial")
        return Group1D.lattice(abs(c.beta / c.alpha))
    raise UnsupportedGroupError(f"no 1-d value group for case {c.variant}")


def closure_1d(values) -> Group1D:
    """Closure of the subgroup of R generated by exact scalar values: the
    vertical slice of ``closure_of_group`` on the vectors (0, v), so {0}, a
    lattice aZ or R."""
    grp = closure_of_group([(0, v) for v in values] or [(0, 0)]).group
    if grp.dim_linear:
        return Group1D.full()
    if not grp.lattice_basis:
        return Group1D("trivial")
    return Group1D.lattice(abs(grp.lattice_basis[0][1]))
