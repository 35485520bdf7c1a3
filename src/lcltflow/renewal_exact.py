"""Exact distribution of the reward sum at the last renewal before time t.

For finitely supported reward-renewal processes with integer rewards and
durations in a quadratic ring Z[sqrt(D)], the pair (S_{N_t}, t - t_{N_t}) has
an exactly computable distribution: elapsed times live in the ring, and
every comparison against t is exact.  This is the error-free oracle used to
arbitrate Monte Carlo estimates and to exhibit the oscillating
sqrt(t)-scaled probabilities that rule out a single local limit for
arithmetic duration supports.

Every probability mass of the DP is a Python int over one denominator
den = L**K.  L is the lcm of the atom-probability denominators, so atom k
has integer weight w_k = p_k L, and K = floor(t / min y) + 1 bounds the
number of transitions on any path.  The start state carries den and a
transition maps mass m to m w_k / L.  That division is exact: a path of n
transitions carries L**(K - n) times a product of weights, and a state
within t has been reached in at most K - 1 transitions, so each state's
mass is a multiple of L.  Each sweep checks that the masses leaving t and
the pruned masses sum to exactly den; reported values are Fractions over
den.

One sweep serves several horizons: the states reached by time t are the
same in a sweep that runs past t, with every mass times L**(K' - K) for the
longer sweep's K', so each Fraction over den is unchanged.  The oscillation
scan therefore runs one sweep per prune bound, to the largest t with that
bound, and reads every t of the group from it, with the exact
mass-conservation check at each t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StateExplosion
from .quadfield import QuadScalar, as_fraction, as_quad

PalmStart = "PalmStart"
StationaryStart = "StationaryStart"

# a sweep raises StateExplosion before its tables pass _MEMORY_BUDGET bytes,
# at _STATE_BYTES (190-250 B measured on CPython 3.11) plus the mass a state
_MEMORY_BUDGET = 1 << 30
_STATE_BYTES = 192


def _exact_atoms(atoms):
    out = []
    for x, y, p in atoms:
        x, y, p = as_quad(x), as_quad(y), as_fraction(p)
        if not x.is_rational() or x.p.denominator != 1:
            raise ValueError(f"rewards must be integers, got {x}")
        if y.sign() <= 0:
            raise ValueError("durations must be positive")
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        out.append((int(x.p), y, p))
    if sum(p for _, _, p in out) != 1:
        raise ValueError("probabilities must sum to 1")
    return out


def _nu_tau(atoms):
    return sum((y * p for _, y, p in atoms), start=as_quad(0))


def _prune_bound(atoms, t):
    return max(12, math.ceil(12 * math.sqrt(max(float(t), 1.0)
                                            / float(_nu_tau(atoms)))))


@dataclass
class ExactDistribution:
    """Exact distribution over (S, overshoot = t - t_{N_t}); ``pruned_mass``
    is the total rational path mass dropped by the |S| cutoff."""
    mass: dict           # (S: int, overshoot: QuadScalar | None) -> exact
    pruned_mass: Fraction = field(default_factory=lambda: Fraction(0))

    def total(self):
        return sum(self.mass.values(), start=self.pruned_mass)


def _palm_sweep(atoms, horizons, prune_bound=None):
    """Renewal measure of the reward-sum process, read at several horizons.

    ``horizons`` are exact times in increasing order, and one sweep to the
    last of them serves them all: the states with elapsed time T <= t do not
    depend on how far past t the sweep goes, and every mass is the mass of
    a sweep that stops at t times one power of L (see the module
    docstring), so every Fraction over ``den`` is the same.  The horizons
    share the prune bound: counterexample_scan passes the t values of one
    bound, the other callers a single t.

    Processes states (S, t_elapsed) in increasing elapsed time, merging all
    paths that meet at the same state (valid because durations are strictly
    positive, so every predecessor is strictly earlier).  Returns
    (states, ends, pruned, den), every mass an integer over ``den``:
    ``states`` maps (S, p, q) -- elapsed time p + q sqrt(D) -- to the mass
    of the paths that renew there with reward sum S; ``pruned`` maps (p, q)
    to the mass dropped there by the |S| cutoff; ``ends`` holds one
    (finals, cut) pair per horizon t, where ``finals`` lists (S, p, q, mass)
    for the transitions out of a state with T <= t that land past t and
    ``cut`` is the mass pruned at times <= t.  Raises AssertionError unless
    finals and cut add up to exactly ``den`` at every horizon.

    Durations must be quadratic integers so elapsed times are exact integer
    pairs; the comparison against t falls back to exact sign evaluation
    only near the float boundary.
    """
    import heapq

    t = horizons[-1]
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    if any(h.q != 0 and h.D != D for h in horizons):
        raise ValueError("durations and t must share one ring")
    for _, y, _ in atoms:
        if y.p.denominator != 1 or y.q.denominator != 1:
            raise ValueError(
                "durations must be quadratic integers (integral p, q)")
        if y.q != 0 and y.D != D:
            raise ValueError("durations must share one ring")
    # masses are integers over den = L**K (see the module docstring)
    L = math.lcm(*(p.denominator for _, _, p in atoms))
    steps = [(x, int(y.p), int(y.q), int(p * L)) for x, y, p in atoms]
    K = max((t / min(y for _, y, _ in atoms)).floor(), 0) + 1
    den = L ** K
    cap = _MEMORY_BUDGET // (_STATE_BYTES + den.bit_length() // 8)
    bound = math.inf if prune_bound is None else prune_bound
    t_p, t_q = t.p, t.q
    t_float = float(t)
    sqD = math.sqrt(D)

    pending = {(0, 0, 0): den}
    heap = [(0.0, (0, 0, 0))]
    states = {}
    pruned = {}
    while heap:
        _, key = heapq.heappop(heap)
        if key in states:
            continue
        mass = pending.pop(key)
        states[key] = mass
        if len(states) > cap:
            raise StateExplosion(f"the DP to t = {float(t):g} needs over "
                                 f"{cap} states, {_MEMORY_BUDGET >> 20} MB")
        S, Tp, Tq = key
        unit = mass // L            # exact: a state's mass is a multiple of L
        for x, yp, yq, wk in steps:
            p2, q2 = Tp + yp, Tq + yq
            at = p2 + q2 * sqD
            diff = t_float - at
            if abs(diff) <= 1e-6:
                # exact sign near the float boundary
                diff = QuadScalar(t_p - p2, t_q - q2, D).sign()
            if diff < 0:
                continue            # past the last horizon: see _horizon_end
            w = unit * wk
            S2 = S + x
            if abs(S2) > bound:
                pruned[p2, q2] = pruned.get((p2, q2), 0) + w
                continue
            k2 = (S2, p2, q2)
            if k2 in pending:
                pending[k2] += w
            else:
                pending[k2] = w
                heapq.heappush(heap, (at, k2))
    ends = [_horizon_end(states, pruned, steps, L, h, D) for h in horizons]
    for finals, cut in ends:
        if sum(f[3] for f in finals) + cut != den:
            raise AssertionError("mass leak in the renewal DP")
    return states, ends, pruned, den


def _horizon_end(states, pruned, steps, L, t, D):
    """(finals, cut) of horizon t from a sweep's tables (see _palm_sweep).

    ``states`` is in the order the sweep took it, increasing elapsed time,
    so it is read backwards and only down to the states one longest
    duration before t.  Each comparison against t is the sweep's.
    """
    sqD = math.sqrt(D)
    t_float = float(t)

    def past(p, q):
        diff = t_float - (p + q * sqD)
        if abs(diff) <= 1e-6:
            diff = QuadScalar(t.p - p, t.q - q, D).sign()
        return diff < 0

    reach = t_float - max(yp + yq * sqD for _, yp, yq, _ in steps) - 1e-6
    finals = []
    for (S, Tp, Tq), mass in reversed(states.items()):
        if Tp + Tq * sqD < reach:
            break
        if past(Tp, Tq):
            continue
        unit = mass // L
        over = sum(unit * wk for _, yp, yq, wk in steps
                   if past(Tp + yp, Tq + yq))
        if over:
            finals.append((S, Tp, Tq, over))
    finals.reverse()
    cut = sum(m for (p, q), m in pruned.items() if not past(p, q))
    return finals, cut


def dp_distribution(atoms, t, mode=PalmStart, prune=True) -> ExactDistribution:
    """Exact law of (S_{N_t}, t - t_{N_t}) with N_t = max{n : t_n <= t}.

    PalmStart places a renewal at time 0; overshoots are ring elements.
    StationaryStart draws the first cell size-biased with uniform height and
    integrates it exactly; the overshoot is then continuous, so the returned
    distribution is the exact marginal over the reward sum (overshoot key
    None, values exact ring elements).  Functionals that constrain the start
    height or the overshoot go through stationary_event_probability.
    """
    atoms = _exact_atoms(atoms)
    t = as_quad(t)
    bound = _prune_bound(atoms, t) if prune else None
    if mode == PalmStart:
        _states, [(finals, cut)], _pruned, den = _palm_sweep(atoms, [t],
                                                             bound)
        D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
        mass = {}
        for S, Tp, Tq, w in finals:
            # distinct states are distinct (S, T), so keys never repeat
            mass[(S, t - QuadScalar(Tp, Tq, D))] = Fraction(w, den)
        return ExactDistribution(mass, Fraction(cut, den))
    if mode == StationaryStart:
        masses, pruned_meas = _stationary_masses(atoms, t, bound)
        dist = ExactDistribution({(S, None): w for S, w in masses.items()},
                                 pruned_meas)
        total = dist.total()
        if not (total - 1).is_zero():
            raise AssertionError(f"mass leak: total = {float(total)}")
        return dist
    raise ValueError(f"unknown mode {mode!r}")


def _stationary_masses(atoms, t, prune_bound=None, S_filter=None,
                       I=None, J=None):
    """Exact stationary-start event measure of each section value.

    A stationary start picks the first cell size-biased with a uniform
    height s0 (joint density p_i / nu(tau) over (cell i, s0)).  After the
    first crossing the process is a Palm renewal path; a renewal state
    (S, T) with next gap y_j is the realized final state exactly when
    s_end = s0 + t - y_i - T lies in [0, y_j).  Every (first cell, state,
    next atom) triple therefore contributes an s0-interval.  Intersected
    with the constraints s0 in I and s_end in J, their exact weights are
    summed into {value: weight}, returned with the pruned measure.

    Only states with T > t - y_i - y_j + lo(I) can give an s0-interval
    (lo(I) the lower end of I, 0 without I), so states clearly below
    t - 2 max y + lo(I) in the float embedding, by the margin of the
    sweep's comparison against t, are skipped.
    """
    nu = _nu_tau(atoms)
    zero = t - t
    states, _ends, pruned, den = _palm_sweep(atoms, [t], prune_bound)
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    I = None if I is None else (as_quad(I[0]), as_quad(I[1]))
    J = None if J is None else (as_quad(J[0]), as_quad(J[1]))
    sqD = math.sqrt(D)
    reach = (float(t) - 2 * max(float(y) for _, y, _ in atoms)
             + (0.0 if I is None else float(I[0])) - 1e-6)
    near = [(S, QuadScalar(Tp, Tq, D), m)
            for (S, Tp, Tq), m in states.items() if Tp + Tq * sqD > reach]
    acc = {}
    masses = {}
    pruned_meas = zero
    for x_i, y_i, p_i in atoms:
        dens = p_i / nu
        i_lo = zero if I is None else I[0]
        i_hi = y_i if I is None or (I[1] - y_i).sign() > 0 else I[1]
        # no-crossing branch: s0 + t < y_i, empty reward sum, s_end = s0 + t
        if S_filter is None or S_filter == 0:
            lo, hi = i_lo, i_hi
            nc_hi = y_i - t
            if (nc_hi - hi).sign() < 0:
                hi = nc_hi
            if J is not None:
                if (J[0] - t - lo).sign() > 0:
                    lo = J[0] - t
                if (J[1] - t - hi).sign() < 0:
                    hi = J[1] - t
            seg = _interval_len(lo, hi)
            if seg.sign() > 0:
                masses[0] = masses.get(0, zero) + dens * seg
        for S, T, m in near:
            val = S + x_i
            if S_filter is not None and val != S_filter:
                continue
            base = y_i + T - t
            for _x_j, y_j, p_j in atoms:
                lo = base
                hi = base + y_j
                if J is not None:
                    if (base + J[0] - lo).sign() > 0:
                        lo = base + J[0]
                    if (base + J[1] - hi).sign() < 0:
                        hi = base + J[1]
                seg = _overlap(lo, hi, i_lo, i_hi)
                if seg.sign() > 0:
                    acc[val] = acc.get(val, zero) + dens * p_j * seg * m
        # a path cut at Palm time T' is lost for every start height s0
        # with T' <= t - y_i + s0: a length min(y_i, t - T') of [0, y_i)
        for (Tp, Tq), m in pruned.items():
            left = t - QuadScalar(Tp, Tq, D)
            cross = y_i if (y_i - left).sign() < 0 else left
            pruned_meas = pruned_meas + dens * Fraction(m, den) * cross
    for val, a in acc.items():
        masses[val] = masses.get(val, zero) + a / den
    return masses, pruned_meas


def _interval_len(lo, hi):
    d = hi - lo
    return d if d.sign() > 0 else (lo - lo)


def _overlap(a_lo, a_hi, b_lo, b_hi):
    lo = a_lo if (a_lo - b_lo).sign() >= 0 else b_lo
    hi = a_hi if (a_hi - b_hi).sign() <= 0 else b_hi
    return _interval_len(lo, hi)


def stationary_event_probability(atoms, t, S_target, I=None, J=None):
    """Exact P(s0 in I, value = S_target, s_end in J) for the flow started
    from the invariant measure (size-biased first cell, uniform height s0).

    ``value`` is the section-corrected integral: the sum of the rewards of
    all completed cells, counting the partially started first cell in full
    (the transfer-function convention under which lattice-valued observables
    stay lattice-valued along the flow).  I and J are fiber intervals (lo,
    hi), half-open, exact; None means unconstrained.  Returns an exact
    element of Q(sqrt(D)); pruning is disabled, so this is error-free.
    A value off the integers, where no reward sum lies, has probability 0.
    """
    atoms = _exact_atoms(atoms)
    t = as_quad(t)
    v = as_quad(S_target)
    if not (v.is_rational() and v.p.denominator == 1):
        return t - t
    masses, _pruned = _stationary_masses(atoms, t, prune_bound=None,
                                         S_filter=int(v.p), I=I, J=J)
    return masses.get(int(v.p), t - t)


# ---------------------------------------------------------------------------
# the oscillation scan
# ---------------------------------------------------------------------------

def section_61_atoms():
    """Three atoms, probability 1/3 each: rewards -1, 0, 1 with durations
    2 - sqrt2, 1, sqrt2 - 1 (mean duration 2/3, zero-mean rewards)."""
    s2 = QuadScalar.sqrtD(2)
    third = Fraction(1, 3)
    return [(-1, as_quad(2) - s2, third), (0, as_quad(1), third),
            (1, s2 - as_quad(1), third)]


def frac_cell(u) -> int:
    """Index of the fractional-part cell in the partition
    [0, sqrt2-1), [sqrt2-1, 2-sqrt2), [2-sqrt2, 1) (exact comparisons)."""
    u = u if isinstance(u, QuadScalar) else as_quad(u)
    u = u.frac()
    s2 = QuadScalar.sqrtD(2)
    if (u - (s2 - 1)).sign() < 0:
        return 0
    if (u - (as_quad(2) - s2)).sign() < 0:
        return 1
    return 2


def counterexample_scan(t_values, atoms=None):
    """Exact sqrt(t) P(S_{N_t} = 0) over t_values with the cell of frac(t).

    Returns rows (t, cell, sqrt_t_times_p, pruned_mass) in the order of
    t_values, duplicates included.  The t values are grouped by prune
    bound, and each group is read from one sweep to its largest t, which
    checks exact mass conservation at every t of the group (see
    _palm_sweep).  Requires the structural identity that every zero-reward
    renewal happens at an integer time, so the last zero-reward renewal
    before t is at floor(t) and the value factorizes through the cell of
    frac(t); raises ValueError for atoms that break it.
    """
    if atoms is None:
        atoms = section_61_atoms()
    atoms = _exact_atoms(atoms)
    ts = [as_quad(t) for t in t_values]
    if any(float(t) < 1 for t in ts):
        raise ValueError("scan requires t >= 1")
    groups = {}
    for t in ts:
        groups.setdefault(_prune_bound(atoms, t), set()).add(t)
    row = {}
    for bound, group in groups.items():
        horizons = sorted(group)
        states, ends, _pruned, den = _palm_sweep(atoms, horizons, bound)
        off = next(((Tp, Tq) for S, Tp, Tq in states if S == 0 and Tq != 0),
                   None)
        if off is not None:
            raise ValueError(f"zero-reward renewal at non-integer time "
                             f"{off[0]}+{off[1]}*sqrt")
        # free this group's state table before the next sweep builds one
        del states
        for t, (finals, cut) in zip(horizons, ends):
            t_floor = t.floor()
            p0 = 0
            for S, Tp, _Tq, w in finals:
                if S == 0:
                    # a final is a state, so its time Tp is an integer
                    if Tp != t_floor:
                        raise ValueError(
                            "last zero-reward renewal is not at floor(t)")
                    p0 += w
            row[t] = (float(t), frac_cell(t),
                      math.sqrt(float(t)) * float(Fraction(p0, den)),
                      float(Fraction(cut, den)))
    return [row[t] for t in ts]


def scan_csv_rows(rows):
    yield "t,frac_cell,sqrt_t_times_p,pruned_mass"
    for t, cell, v, pm in rows:
        yield f"{t!r},{cell},{v!r},{pm!r}"
