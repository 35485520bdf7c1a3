"""Exact distribution of the reward sum at the last renewal before time t.

For finitely supported reward-renewal processes with integer rewards and
durations in a quadratic ring Z[sqrt(D)], the pair (S_{N_t}, t - t_{N_t}) has
an exactly computable distribution: elapsed times live in the ring, and
every comparison against t is exact.  This is the error-free oracle used to
arbitrate Monte Carlo estimates and to exhibit the oscillating
sqrt(t)-scaled probabilities that rule out a single local limit for
arithmetic duration supports.  ``dp_distribution`` is the unpruned Palm
law of that pair.  The stationary start is answered one event at a time by
``stationary_event_probability``, which also takes rational rewards and
durations in Q(sqrt(D)), scaled to those integers by ``integral_atoms``.

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

One sweep serves several horizons and several prune bounds.  The states
reached by time t are the same in a sweep that runs past t, with every mass
times L**(K' - K) for the longer sweep's K', so each Fraction over den is
unchanged; likewise a prune bound whose largest t is below the sweep's
shares the sweep's den.  The sweep therefore carries the prune-bound group
in its state key and reads every t of every group from one pass, with the
exact mass-conservation check at each t.

The sweep works in bands of width min y (Delta-stepping, Meyer and
Sanders, J. Algorithms 49, 2003): no state in a band can feed another one
in it, so each band is expanded and merged with numpy, the masses Python
ints in object arrays.  A state's table row is needed only near a horizon,
so a sweep keeps only the states within 2 max y of each group's first
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StateExplosion
from .quadfield import QuadScalar, as_fraction, as_quad

# a sweep raises StateExplosion once a group's states would pass
# _MEMORY_BUDGET bytes, at _STATE_BYTES (190-250 B measured on CPython 3.11
# for one state of a heap sweep's tables) plus the mass a state carries
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


def integral_atoms(atoms):
    """The atoms as the DP keys them, with rewards scaled by L_x, the lcm of
    their denominators, and durations by L_y, the lcm of the denominators
    of their p and q: integer rewards and quadratic-integer durations.
    Returns (atoms, L_x, L_y).  Raises ValueError where ``_exact_atoms``
    does, for a reward with a sqrt(D) part among others.  It is cheap, so
    a caller can make its checks before any other work."""
    atoms = [(as_quad(x), as_quad(y), p) for x, y, p in atoms]
    L_x = math.lcm(*(x.p.denominator for x, _, _ in atoms))
    L_y = math.lcm(*(d.denominator for _, y, _ in atoms for d in (y.p, y.q)))
    return (_exact_atoms([(x * L_x, y * L_y, p) for x, y, p in atoms]),
            L_x, L_y)


def _nu_tau(atoms):
    return sum((y * p for _, y, p in atoms), start=as_quad(0))


def _prune_bound(atoms, t):
    return max(12, math.ceil(12 * math.sqrt(max(float(t), 1.0)
                                            / float(_nu_tau(atoms)))))


@dataclass
class _Sweep:
    """One prune-bound group of a _palm_sweep, every mass over its den.

    ``states`` is the kept table (S, p, q, T, mass), arrays in sweep order,
    T the float of the elapsed time p + q sqrt(D).  ``ends`` holds one
    (finals, cut) pair per horizon t: ``finals`` lists (S, p, q, mass) for
    the transitions out of a state with time <= t that land past t, and
    ``cut`` is the mass pruned at times <= t.  ``off_zero`` is the (p, q)
    of the first state with S = 0 at an irrational time, or None."""
    states: tuple
    ends: list
    off_zero: tuple | None


def _palm_sweep(atoms, groups):
    """Renewal measure of the reward-sum process for several prune bounds.

    ``groups`` lists (horizons, prune_bound) pairs: exact horizons in
    increasing order and an |S| cutoff (None: no pruning).  All groups run
    through one sweep with the group index in the state key, and share
    den = L**K for the K of the largest horizon, so every Fraction over den
    is that of a sweep of the group alone (see the module docstring).

    States are final band by band, in increasing elapsed time, with all
    paths that meet at the same (group, S, p, q) merged.  Every duration is
    at least y_min, so each pending state whose float time is below (the
    smallest pending time) + y_min - 1e-9 has only final predecessors, and
    the whole band is expanded at once.  A band is ordered by (group, float
    time, S, p, q), so each group's table comes in increasing elapsed time,
    the order of a one-state-at-a-time sweep.  A transition that lands past
    the group's last horizon is dropped (_horizon_end reads it back), and
    one whose |S| passes the bound is pruned.  Each comparison against a
    horizon falls back to exact sign evaluation within 1e-6 of it.

    Only the states within 2 max y of the group's first horizon are kept:
    _horizon_end, the scan and stationary_event_probability read no
    others.  Returns (den, sweeps), one _Sweep per group.  Raises
    AssertionError unless finals and cut add up to exactly ``den`` at
    every horizon, and StateExplosion when a group passes its state budget
    or the packed state key could leave the int64 range.  Durations must be
    quadratic integers so elapsed times are exact integer pairs.
    """
    D = next((y.D for _, y, _ in atoms if y.q != 0), groups[-1][0][-1].D)
    if any(h.q != 0 and h.D != D for hs, _ in groups for h in hs):
        raise ValueError("durations and t must share one ring")
    for _, y, _ in atoms:
        if y.p.denominator != 1 or y.q.denominator != 1:
            raise ValueError(
                "durations must be quadratic integers (integral p, q)")
        if y.q != 0 and y.D != D:
            raise ValueError("durations must share one ring")
    L = math.lcm(*(p.denominator for _, _, p in atoms))
    steps = [(x, int(y.p), int(y.q), int(p * L)) for x, y, p in atoms]
    y_min = min(y for _, y, _ in atoms)
    last = [hs[-1] for hs, _ in groups]
    Ks = [max((t / y_min).floor(), 0) + 1 for t in last]
    den = L ** max(Ks)
    # each group's budget at the den of a sweep to its own last horizon
    caps = np.array([_MEMORY_BUDGET // (_STATE_BYTES
                                        + (L ** K).bit_length() // 8)
                     for K in Ks])
    # the state key packs (group, S, p, q) into one int64; a state is at
    # most K transitions from the start, which bounds each column
    G = len(groups)
    span = [(max(Ks) * min(0, *c), max(Ks) * max(0, *c))
            for c in list(zip(*steps))[:3]]
    (lo_S, _), (lo_P, _), (lo_Q, _) = span
    n_S, n_P, n_Q = (hi - lo + 1 for lo, hi in span)
    if G * n_S * n_P * n_Q >= 1 << 63:
        raise StateExplosion(f"the DP to t = {float(max(last)):g} needs "
                             f"state keys beyond int64")
    X, YP, YQ = (np.array(c, dtype=np.int64) for c in list(zip(*steps))[:3])
    step_key = (X * n_P + YP) * n_Q + YQ
    sqD = math.sqrt(D)
    last_f = np.array([float(t) for t in last])
    bound = np.array([math.inf if b is None else b for _, b in groups])
    max_y = max(float(y) for _, y, _ in atoms)
    keep_from = np.array([float(hs[0]) - 2 * max_y - 1e-6
                          for hs, _ in groups])

    # pending states as (key, T, mass): the G starts
    g = np.arange(G)
    pend = ((((g * n_S - lo_S) * n_P - lo_P) * n_Q - lo_Q), np.zeros(G),
            np.full(G, den, object))
    none = (np.zeros(0, np.int64),) * 3 + (np.zeros(0), np.zeros(0, object))
    kept = [[none] for _ in range(G)]
    cuts = []
    count = np.zeros(G, np.int64)
    off_zero = [None] * G
    while pend[0].size:
        now = pend[1] < pend[1].min() + float(y_min) - 1e-9
        key, T, M = (c[now] for c in pend)
        pend = [c[~now] for c in pend]
        rest, Q = np.divmod(key, n_Q)
        g, P = np.divmod(rest, n_P)
        g, S = np.divmod(g, n_S)
        S, P, Q = S + lo_S, P + lo_P, Q + lo_Q
        order = np.lexsort((key, T, g))
        key, g, S, P, Q, T, M = (c[order] for c in (key, g, S, P, Q, T, M))
        count += np.bincount(g, minlength=G)
        full = np.flatnonzero(count > caps)
        if full.size:
            k = full[0]
            raise StateExplosion(
                f"the DP to t = {float(last[k]):g} needs over {caps[k]} "
                f"states, {_MEMORY_BUDGET >> 20} MB")
        for i in np.flatnonzero((S == 0) & (Q != 0)):
            if off_zero[g[i]] is None:
                off_zero[g[i]] = (int(P[i]), int(Q[i]))
        keep = T >= keep_from[g]
        # np.unique would import numpy.ma
        for k in np.flatnonzero(np.bincount(g[keep], minlength=G)):
            sel = keep & (g == k)
            kept[k].append((S[sel], P[sel], Q[sel], T[sel], M[sel]))
        # every transition of the band at once, one row per state and atom;
        # m // L is exact, a state's mass being a multiple of L, and a
        # weight of 1 passes the quotient on without a multiplication
        g2 = np.repeat(g, len(steps))
        S2 = (S[:, None] + X).ravel()
        P2 = (P[:, None] + YP).ravel()
        Q2 = (Q[:, None] + YQ).ravel()
        T2 = P2 + Q2 * sqD
        unit = M // L
        W2 = np.stack([unit if w == 1 else unit * w for *_, w in steps],
                      axis=1).ravel()
        live = ~_past(last_f[g2] - T2, lambda i: last[g2[i]], P2, Q2, D)
        cut = live & (np.abs(S2) > bound[g2])
        cuts.append(((g2[cut] * n_P + P2[cut] - lo_P) * n_Q + Q2[cut] - lo_Q,
                     W2[cut]))
        live &= ~cut
        key2 = (key[:, None] + step_key).ravel()
        pend = _merge(*(np.concatenate((a, b[live])) for a, b in
                        zip(pend, (key2, T2, W2))))

    ckey, cM = _merge(*(np.concatenate(c) for c in zip(*cuts)))
    cg, cP = np.divmod(ckey, n_P * n_Q)
    cP, cQ = np.divmod(cP, n_Q)
    cP, cQ = cP + lo_P, cQ + lo_Q
    sweeps = []
    for k, (horizons, _) in enumerate(groups):
        table = tuple(np.concatenate(c) for c in zip(*kept[k]))
        mine = cg == k
        cut = (cP[mine], cQ[mine], cM[mine])
        ends = [_horizon_end(table, cut, steps, L, t, D) for t in horizons]
        for finals, c in ends:
            if sum(f[3] for f in finals) + c != den:
                raise AssertionError("mass leak in the renewal DP")
        sweeps.append(_Sweep(table, ends, off_zero[k]))
    return den, sweeps


def _merge(key, *cols):
    """The rows sorted by ``key`` with equal keys merged: the last column,
    the masses, summed, and the others, equal on equal keys, kept once."""
    if not key.size:
        return (key, *cols)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return (key[starts], *(c[order[starts]] for c in cols[:-1]),
            np.add.reduceat(cols[-1][order], starts))


def _past(diff, horizon, P, Q, D):
    """Mask of the times p + q sqrt(D) past their horizon, from the float
    differences ``diff`` (horizon minus time); within 1e-6 the exact sign
    of horizon(i) - time decides."""
    diff = diff.copy()
    for i in np.flatnonzero(np.abs(diff) <= 1e-6):
        t = horizon(i)
        diff[i] = QuadScalar(t.p - int(P[i]), t.q - int(Q[i]), D).sign()
    return diff < 0


def _horizon_end(table, cut, steps, L, t, D):
    """(finals, cut) of horizon t from a group's kept table and its pruned
    (p, q, mass) columns (see _Sweep).

    Only the states one longest duration before t can leave across t.
    Each comparison against t is the sweep's.
    """
    S, P, Q, T, M = table
    sqD = math.sqrt(D)
    t_float = float(t)

    def past(P, Q):
        return _past(t_float - (P + Q * sqD), lambda i: t, P, Q, D)

    reach = t_float - max(yp + yq * sqD for _, yp, yq, _ in steps) - 1e-6
    near = T >= reach
    near[near] = ~past(P[near], Q[near])
    S, P, Q, M = S[near], P[near], Q[near], M[near]
    unit = M // L
    over = np.zeros(S.size, object)
    for _, yp, yq, wk in steps:
        over += np.where(past(P + yp, Q + yq), unit * wk, 0)
    nz = over != 0
    finals = list(zip(S[nz].tolist(), P[nz].tolist(), Q[nz].tolist(),
                      over[nz].tolist()))
    cP, cQ, cM = cut
    return finals, int(cM[~past(cP, cQ)].sum())


def dp_distribution(atoms, t):
    """Exact Palm law of (S_{N_t}, t - t_{N_t}) with N_t = max{n : t_n <= t}
    and a renewal at time 0, unpruned: {(S, overshoot): Fraction}, the
    overshoots exact ring elements."""
    atoms = _exact_atoms(atoms)
    t = as_quad(t)
    den, [sweep] = _palm_sweep(atoms, [([t], None)])
    [(finals, _cut)] = sweep.ends
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    # distinct states are distinct (S, T), so keys never repeat
    return {(S, t - QuadScalar(Tp, Tq, D)): Fraction(w, den)
            for S, Tp, Tq, w in finals}


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

    Rational rewards and durations in Q(sqrt D) are scaled to the DP's
    integers by ``integral_atoms``, the target with the rewards and t, I
    and J with the durations, which leaves the event's probability as it
    is.  A value off (1 / L_x) Z, where no reward sum lies, has
    probability 0.

    The first cell i has joint density p_i / nu(tau) over (i, s0), and a
    start height lies in [0, y_i), so I is cut to s0 >= 0.  After the first
    crossing the process is a Palm renewal path: a state (S, T) of the
    sweep with next gap y_j is the final one exactly when s_end = s0 + t -
    y_i - T lies in [0, y_j), so each (i, state, j) with S + x_i = value
    gives an s0-interval, which is cut to I and J and weighted.  Only
    states with T > t - y_i - y_j + lo(I) can give one (lo(I) >= 0 the
    lower end of the cut I), so those clearly below t - 2 max y + lo(I) in
    the float embedding, by the margin of the sweep's comparison against t,
    are skipped: the sweep keeps no state below t - 2 max y.  For value 0
    the event also holds paths with no crossing, s0 + t < y_i.
    """
    atoms, L_x, L_y = integral_atoms(atoms)
    t = as_quad(t) * L_y
    v = as_quad(S_target) * L_x
    I, J = (None if e is None else (as_quad(e[0]) * L_y, as_quad(e[1]) * L_y)
            for e in (I, J))
    zero = t - t
    if not (v.is_rational() and v.p.denominator == 1):
        return zero
    v = int(v.p)
    den, [sweep] = _palm_sweep(atoms, [([t], None)])
    D = next((y.D for _, y, _ in atoms if y.q != 0), t.D)
    i_lo = zero if I is None or I[0].sign() < 0 else I[0]
    reach = (float(t) - 2 * max(float(y) for _, y, _ in atoms)
             + float(i_lo) - 1e-6)
    S, P, Q, T, M = sweep.states
    near = (T > reach) & np.isin(S, [v - x for x, _, _ in atoms])
    near = [(s, QuadScalar(p, q, D), m) for s, p, q, m in
            zip(S[near].tolist(), P[near].tolist(), Q[near].tolist(),
                M[near].tolist())]
    nu = _nu_tau(atoms)
    acc = zero          # the probability times den
    for x_i, y_i, p_i in atoms:
        dens = p_i / nu
        i_hi = y_i if I is None or (I[1] - y_i).sign() > 0 else I[1]
        if v == 0:
            # no crossing: s0 + t < y_i, empty reward sum, s_end = s0 + t
            lo, hi = i_lo, i_hi
            if (y_i - t - hi).sign() < 0:
                hi = y_i - t
            if J is not None:
                if (J[0] - t - lo).sign() > 0:
                    lo = J[0] - t
                if (J[1] - t - hi).sign() < 0:
                    hi = J[1] - t
            seg = _interval_len(lo, hi)
            if seg.sign() > 0:
                acc = acc + dens * seg * den
        for s, T, m in near:
            if s + x_i != v:
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
                    acc = acc + dens * p_j * seg * m
    return acc / den


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
    bound, and one sweep reads every t of every group, checking exact mass
    conservation at each (see _palm_sweep).  Requires the structural
    identity that every zero-reward renewal happens at an integer time, so
    the last zero-reward renewal before t is at floor(t) and the value
    factorizes through the cell of frac(t); raises ValueError for atoms
    that break it.
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
    groups = [(sorted(group), bound) for bound, group in groups.items()]
    den, sweeps = _palm_sweep(atoms, groups)
    row = {}
    for (horizons, _), sweep in zip(groups, sweeps):
        if sweep.off_zero is not None:
            p, q = sweep.off_zero
            raise ValueError(f"zero-reward renewal at non-integer time "
                             f"{p}+{q}*sqrt")
        for t, (finals, cut) in zip(horizons, sweep.ends):
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
