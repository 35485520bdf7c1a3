"""Concrete suspension-flow models.

Three base families: iid reward-renewal processes (finite atoms with exact
coordinates), finite-state Markov shifts with per-transition values, and the
intermittent interval map with a neutral fixed point, used directly as an
ambient suspension whose invariant measure is built on its Young tower over
the first-return set (1/2, 1] (return times through ``return_time``).

Each system is a suspension flow given by a base step, a roof tau and a
per-cell observable integral phi, and exposes it through one vectorised
protocol on arrays of base states, which is all the Monte Carlo engine uses:

- ``draw_start(n, rng)``: n states from the roof-size-biased measure (the
  base marginal of the flow-invariant measure);
- ``draw_base(n, rng)``: n states from the base-invariant measure, where
  the base walks of batch means start;
- ``step(states, rng)``: one application of the base dynamics;
- ``tau(states)`` and ``phi(states)``: roof and per-cell integral;
- ``leap(states, budget, rng)``: (count, phi_sum, tau_sum, states) per
  path over whole cells that certainly end within its time budget, taken
  as sums.  ``count`` cells are crossed, ``phi_sum`` is phi over the cells
  left and ``tau_sum`` tau over the cells entered, and ``states`` are the
  current cells after the leap, in a new array.  Renewal draws fresh iid
  cells as count vectors from type-class tables and keeps its current
  cells (the next cell is then drawn fresh by ``step``); a Markov shift
  leaves its current edge along m-step edge paths drawn whole from path
  tables; the intermittent map runs each orbit through the cells that fit
  under the largest roof.  A system with nothing to leap returns zero
  counts.

Renewal and Markov systems also give ``sigma()``, the 2 x 2 asymptotic
covariance of the base sums of (phi, tau), in closed form: the limit of
Cov(S_m) / m that batch means estimate.  Renewal systems give their exact
moderate-deviation table (``moderate_dev_table``).

States are atom indices (renewal), flat edge indices i*n + j for the
transition i -> j being traversed (Markov), and points of (0, 1] (the
intermittent map).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .config import read_system, renewal_atoms
from .errors import MixedRingError
from .quadfield import as_quad


def _cdf_table(weights):
    """Cumulative sums along the last axis for inverse-CDF draws (the drawn
    index is the number of entries <= u), set to +inf from the last cell of
    positive weight on.  A float cumulative sum can end below 1; the inf
    sends a u past its end to that cell instead of a zero-weight one."""
    w = np.asarray(weights, dtype=float)
    last = w.shape[-1] - 1 - np.argmax(w[..., ::-1] > 0, axis=-1)
    cum = np.cumsum(w, axis=-1)
    cum[np.arange(w.shape[-1]) >= np.expand_dims(last, -1)] = np.inf
    return cum


class _GuideTable:
    """Inverse-CDF draws from many finite laws at once, through a guide
    table (Chen & Asau 1974).

    Law r is given by its row of cumulative sums (a ``_cdf_table`` row, so
    it ends in +inf); the rows are laid end to end, and a draw returns an
    index into that concatenation.  Each row's [0, 1) is cut into K cells,
    K a power of two at least twice the longest row, so u*K and k/K are
    exact, and cell k of row r stores the index of u = k/K.  A draw u starts
    at its cell's index and advances past every cumulative entry <= u.
    Every row is nondecreasing, so the index is the one of the plain inverse
    CDF, for every u.  Only the draws that still need an advance pass take
    one, on a shrinking index set; a cell holds on average at most 1/2
    entry, so a draw costs O(1) expected passes however skewed its law."""

    def __init__(self, rows):
        K = 1 << (2 * max(map(len, rows)) - 1).bit_length()
        grid = np.arange(K + 1) / K
        guide = np.empty((len(rows), K), dtype=np.intp)
        start = 0
        # the most entries strictly inside one cell: 0 means no draw ever
        # advances
        self.advance = 0
        for r, row in enumerate(rows):
            at = np.searchsorted(row, grid[:-1], side="right")
            below = np.searchsorted(row, grid[1:], side="left")
            guide[r] = start + at
            self.advance = max(self.advance, int(np.max(below - at)))
            start += len(row)
        self.K = K
        self.guide = guide.ravel()
        self.cum = np.concatenate(rows)

    def draw(self, rows, u):
        """Index of the entry of law ``rows[k]`` that ``u[k]`` selects:
        #{entries of the row <= u} past the row's start."""
        # k = floor(u*K) < K; numpy casts a float to int32 far faster than
        # to int64
        e = self.guide[rows * self.K + (u * self.K).astype(np.int32)]
        if self.advance:
            idx = np.flatnonzero(u >= self.cum[e])
            while idx.size:
                e[idx] += 1
                idx = idx[u[idx] >= self.cum[e[idx]]]
        return e


# ---------------------------------------------------------------------------
# leaps by multi-cell tables
# ---------------------------------------------------------------------------

_PATH_CAP = 1 << 12          # entries per vertex in the longest table


def _levels(M):
    """The table levels M, M // 2, ..., 1, longest first."""
    return [M >> k for k in range(M.bit_length())]


class _PathTable:
    """Every positive-probability way to cross m cells from each vertex,
    grouped by start vertex: its probability, ``phi`` and ``tau`` the sums
    that its owner's ``_leap_paths`` adds, and ``last`` the cell it ends on
    (None where the current cell stays).  ``reach[v]`` is the largest
    tau-sum from v, and ``sampler`` draws an entry of vertex v by the
    inverse CDF of v's probabilities, in table order."""

    def __init__(self, m, start, prob, phi, tau, last, n):
        self.m = m
        self.prob, self.phi, self.tau, self.last = prob, phi, tau, last
        # vertex v's entries are offsets[v]:offsets[v + 1]
        self.offsets = np.searchsorted(start, np.arange(n + 1))
        self.sampler = _GuideTable([
            _cdf_table(prob[lo:hi])
            for lo, hi in zip(self.offsets, self.offsets[1:])])
        self.reach = np.maximum.reduceat(tau, self.offsets[:-1])


class _TableLeap:
    """``leap`` by ``_PathTable`` levels m = M, M // 2, ..., 1, shared by the
    systems that have them.  A subclass builds the tables in
    ``_build_path_tables`` (called once, on first use: the Monte Carlo
    estimators ask for them before they fork), maps current cells
    to table vertices in ``_vertex`` and draws one entry per cell in
    ``_leap_paths(table, cur, rng)``, which returns (phi added, tau added,
    current cells after)."""

    _tables = None

    def path_tables(self):
        """The ``_PathTable`` of each level, longest first, built once."""
        if self._tables is None:
            self._tables = self._build_path_tables()
        return self._tables

    def leap(self, states, budget, rng):
        """(count, phi_sum, tau_sum, states) per path, the states a new
        array: at each level, while the budget left is at least the level's
        reach from the current vertex, take one m-cell entry of the table.
        It then certainly ends within the budget, and the decision depends
        only on the cells before, so the sums have the law of the same m
        crossings stepped one at a time.  A system without an m >= 2 level
        leaps nothing, and the engine's loop steps it.  The engine hands it
        one Monte Carlo block at a time, whose gathers stay in cache."""
        n = len(states)
        count = np.zeros(n, dtype=np.int64)
        phi_sum = np.zeros(n)
        tau_sum = np.zeros(n)
        cur = states.copy()
        tables = self.path_tables()
        if tables[0].m < 2:
            return count, phi_sum, tau_sum, cur
        for table in tables:
            idx = np.flatnonzero(budget - tau_sum
                                 >= table.reach[self._vertex(cur)])
            while idx.size:
                p, t, last = self._leap_paths(table, cur[idx], rng)
                phi_sum[idx] += p
                tau_sum[idx] += t
                count[idx] += table.m
                cur[idx] = last
                idx = idx[budget[idx] - tau_sum[idx]
                          >= table.reach[self._vertex(last)]]
        return count, phi_sum, tau_sum, cur


_CHUNK_ROWS = 1 << 16        # rows per array of _count_vectors_between


def _count_vectors_between(y, lo, hi):
    """The count vectors n >= 0 with lo <= n.y <= hi (y > 0) in lexicographic
    order, as arrays of rows for runs of leading values n_0 that hold at most
    _CHUNK_ROWS rows (or one n_0).  A run is built one coordinate at a time:
    each row takes every value of the next coordinate that can still end in
    the window.  With y = 1 and lo = hi = m, the vectors with |n| = m."""
    y, k = np.asarray(y, dtype=float), len(y)
    # no n_0 has more rows than the product of the other coordinates' ranges
    most = math.prod(math.floor((hi - max(lo, 0) if j == k - 1 else hi)
                                / y[j]) + 1 for j in range(1, k))
    run = max(_CHUNK_ROWS // max(most, 1), 1)
    end = math.floor(hi / y[0]) + 1
    for n0 in range(max(math.ceil(lo / y[0]), 0) if k == 1 else 0, end, run):
        rows = np.arange(n0, min(n0 + run, end))[:, None]
        s = rows[:, 0] * y[0]
        for j in range(1, k):
            top = np.floor((hi - s) / y[j]).astype(np.int64)
            low = 0 if j < k - 1 else np.maximum(
                np.ceil((lo - s) / y[j]), 0).astype(np.int64)
            width = np.maximum(top - low + 1, 0)
            rep = np.repeat(np.arange(len(rows)), width)
            n_j = np.arange(len(rep)) + np.repeat(
                low + width - np.cumsum(width), width)
            rows, s = np.column_stack([rows[rep], n_j]), s[rep] + n_j * y[j]
        if len(rows):
            yield rows


def _binomial_pmf(N, odds):
    """Binomial(N, q) masses of 0, ..., N, given the odds q / (1 - q).  The
    ratios (N - a + 1) / a * odds of consecutive masses are multiplied
    outward from the mode and the row is then normalised, so no factorial
    or power overflows and each mass is within about (its distance from
    the mode) x 2^-51 of the exact one, relatively."""
    a = np.arange(1, N + 1)
    ratio = (N - a + 1) / a * odds
    # the ratios fall with a: the mode is the last a whose ratio is >= 1
    mode = int(np.count_nonzero(ratio >= 1))
    r = np.ones(N + 1)
    r[mode + 1:] = np.cumprod(ratio[mode:])
    r[:mode] = np.cumprod(1 / ratio[:mode][::-1])[::-1]
    return r / r.sum()


def _multinomial_masses(counts, probs):
    """Multinomial masses of the count vectors in the rows of ``counts``
    for the exact probabilities ``probs`` (Fractions, all positive, summing
    to 1), as a chain of binomials: n_j is Binomial(m - n_0 - ... - n_{j-1},
    p_j / (p_j + ... + p_last)), whose odds are taken exactly before the
    float cast."""
    mass = np.ones(len(counts))
    left = counts.sum(axis=1)
    tail = Fraction(1)
    for j, p in enumerate(probs[:-1]):
        tail -= p
        odds = float(p / tail)
        # (np.unique would import numpy.ma, 25 ms, in every worker)
        for N in np.flatnonzero(np.bincount(left)):
            sel = np.flatnonzero(left == N)
            mass[sel] *= _binomial_pmf(int(N), odds)[counts[sel, j]]
        left = left - counts[:, j]
    return mass


# ---------------------------------------------------------------------------
# reward renewal
# ---------------------------------------------------------------------------

class RenewalBase(_TableLeap):
    """iid atoms (x_i, y_i) with rational probabilities: reward x, duration
    y > 0, zero-mean rewards.  State = atom index.

    ``leap`` takes m iid cells at once by their type class (the method
    of types; Csiszar, IEEE Trans. IT 44, 1998): m cells that fall n_i on
    atom i add n.x and n.y, with multinomial mass.  For m = M, M // 2,
    ..., 1, a one-vertex ``_PathTable`` lists every count vector n of the
    atoms of positive probability with |n| = m, heaviest first, so the
    draws that need the guide table's advance passes are rare.  M is the
    largest m with at most _PATH_CAP vectors (a single atom, one vector
    per level, stops at the cap); the tables are built on first use."""

    def __init__(self, atoms):
        self.atoms = renewal_atoms(atoms)[0]
        self.xs = np.array([float(a[0]) for a in self.atoms])
        self.ys = np.array([float(a[1]) for a in self.atoms])
        self.probs = np.array([float(a[2]) for a in self.atoms])
        self.cum = _cdf_table(self.probs)
        try:
            self.nu_tau_exact = sum((a[1] * a[2] for a in self.atoms),
                                    start=as_quad(0))
            self.nu_tau = float(self.nu_tau_exact)
        except MixedRingError:
            # atoms spanning several quadratic rings: keep the mean roof as
            # a float; exact-DP paths are unavailable for such systems
            self.nu_tau_exact = None
            self.nu_tau = float(np.dot(self.probs, self.ys))
        sb = self.probs * self.ys / self.nu_tau
        self.size_biased_cum = _cdf_table(sb / sb.sum())

    kind = "renewal"

    def draw_start(self, n, rng):
        return np.searchsorted(self.size_biased_cum, rng.random(n), "right")

    def draw_base(self, n, rng):
        return np.searchsorted(self.cum, rng.random(n), "right")

    def step(self, states, rng):
        # iid atoms: the next cell does not depend on the current one
        return self.draw_base(len(states), rng)

    def tau(self, states):
        return self.ys[states]

    def phi(self, states):
        return self.xs[states]

    # -- type-class tables ------------------------------------------------

    def _build_path_tables(self):
        pos = [j for j, a in enumerate(self.atoms) if a[2] > 0]
        k = len(pos)
        # C(m + k - 1, k - 1) vectors at level m
        M = 1
        while M < _PATH_CAP and math.comb(M + k, k - 1) <= _PATH_CAP:
            M += 1
        tables = []
        for m in _levels(M):
            counts = np.concatenate(list(_count_vectors_between(np.ones(k),
                                                                m, m)))
            mass = _multinomial_masses(counts, [self.atoms[j][2]
                                                for j in pos])
            order = np.argsort(-mass, kind="stable")
            counts = counts[order]
            tables.append(_PathTable(
                m, np.zeros(len(counts), dtype=np.intp), mass[order],
                counts @ self.xs[pos], counts @ self.ys[pos], None, 1))
        return tables

    def _vertex(self, cur):
        return 0

    def _leap_paths(self, table, cur, rng):
        """One count vector per cell of cur: the sums over m fresh iid
        cells, taken before the current cell, which stays (the cells are
        exchangeable, so the sums have the law of the next m cells)."""
        k = table.sampler.draw(0, rng.random(len(cur)))
        return table.phi[k], table.tau[k], cur

    # -- moderate deviations ----------------------------------------------

    def ball_masses(self, w, R):
        """P(S_n in B(w nu, R)) for n = 0, 1, ... up to the last n with mass:
        S_n is the sum of (phi, tau) over n cells, nu = (0, nu_tau) and B the
        closed disc.  It is the multinomial mass of the count vectors n of
        the positive atoms whose (n.x, n.y) lies in B."""
        pos = [j for j, a in enumerate(self.atoms) if a[2] > 0]
        xs, ys, c = self.xs[pos], self.ys[pos], w * self.nu_tau
        inside = np.concatenate([np.zeros((0, len(pos)), dtype=np.int64)] + [
            n[(n @ xs) ** 2 + (n @ ys - c) ** 2 <= R * R]
            for n in _count_vectors_between(ys, c - R, c + R)])
        mass = _multinomial_masses(inside, [self.atoms[j][2] for j in pos])
        return np.bincount(inside.sum(axis=1), weights=mass)

    def moderate_dev_table(self, w_list, K_list, R):
        """{w: [sqrt(w) sum_{n : |n - w| > K sqrt(w)} P(S_n in B(w nu, R))
        for each K]}.  The masses are added from the farthest n inward, so
        the table is non-increasing in K to the last bit."""
        table = {}
        for w in w_list:
            mass = self.ball_masses(w, R)
            far = np.abs(np.arange(len(mass)) - w)
            tail = np.cumsum(np.r_[0.0, mass[np.argsort(-far, kind="stable")]])
            table[w] = [math.sqrt(w) * float(tail[np.count_nonzero(
                far > K * math.sqrt(w))]) for K in K_list]
        return table

    def sigma(self):
        """Cov((x, y)) of one atom, which is the asymptotic covariance of
        iid cells: exact in Q(sqrt D), cast to floats at the end, or from
        the float atoms when they span several quadratic rings."""
        # E[x] = 0, so the covariances are means of x x, x dy and dy dy,
        # dy = y - E[y]
        x = [a[0] for a in self.atoms]
        p = [a[2] for a in self.atoms]
        try:
            if self.nu_tau_exact is None:
                raise MixedRingError("durations in several quadratic rings")
            dy = [a[1] - self.nu_tau_exact for a in self.atoms]
            cov = [float(sum((w * s * r for w, s, r in zip(p, u, v)),
                             start=as_quad(0)))
                   for u, v in ((x, x), (x, dy), (dy, dy))]
        except MixedRingError:
            x, dy = self.xs, self.ys - self.nu_tau
            cov = [self.probs @ (u * v)
                   for u, v in ((x, x), (x, dy), (dy, dy))]
        return np.array([[cov[0], cov[1]], [cov[1], cov[2]]])


# ---------------------------------------------------------------------------
# finite Markov shift
# ---------------------------------------------------------------------------

class MarkovShiftBase(_TableLeap):
    """Finite-state chain with per-transition values f(i, j) = (phi, tau).
    Flow state = the flat index i*n + j of the current edge (i, j): the point
    sits in the fiber over the transition being traversed.

    Next states are inverse-CDF draws on the rows of P through a
    ``_GuideTable``.  ``leap`` takes many steps per pass with path tables:
    for m = M, M // 2, ..., 1, every positive-probability m-step path from
    each vertex, drawn whole by the same sampler.  M is the largest m with
    at most _PATH_CAP paths from any vertex; the tables are built on first
    use, so a chain that only serves the exact oracles never pays for
    them."""

    def __init__(self, P, f):
        P = np.asarray(P, dtype=float)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(P)):
            raise ValueError("transition probabilities must be finite")
        if np.any(P < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.max(np.abs(P.sum(axis=1) - 1)) > 1e-12:
            raise ValueError("rows must sum to 1")
        if np.min(np.linalg.matrix_power(np.where(P > 0, 1.0, 0.0), 2 * n)) \
                <= 0:
            raise ValueError("chain must be irreducible and aperiodic")
        self.P = P
        self.n_states = n
        self.f = np.asarray(f, dtype=float)  # (n, n, 2): [phi, tau]
        if self.f.shape != (n, n, 2):
            raise ValueError("f must give (phi, tau) per transition")
        if not np.all(np.isfinite(self.f)):
            raise ValueError("transition values must be finite")
        if np.any(self.f[:, :, 1][P > 0] <= 0):
            raise ValueError("roof values must be positive")
        w, v = np.linalg.eig(P.T)
        k = int(np.argmin(np.abs(w - 1)))
        pi = np.real(v[:, k])
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ P - pi)) > 1e-12:
            raise ValueError("stationary vector inaccurate")
        self.stationary = pi
        self.stationary_cum = _cdf_table(pi)
        self.cumP = _cdf_table(P)
        # row i's index j is the flat edge i*n + j
        self._next = _GuideTable(list(self.cumP))
        self.edge_phi = self.f[:, :, 0].ravel()
        self.edge_tau = self.f[:, :, 1].ravel()
        # the end vertex j of each flat edge i*n + j: a lookup, not a modulo
        self._head = np.tile(np.arange(n), n)
        edge_w = pi[:, None] * P
        self.nu_phi = float(np.sum(edge_w * self.f[:, :, 0]))
        self.nu_tau = float(np.sum(edge_w * self.f[:, :, 1]))
        sb = (edge_w * self.f[:, :, 1]).ravel()
        self.size_biased_cum = _cdf_table(sb / sb.sum())

    kind = "markov"

    def _edges_from(self, i, rng):
        """Edges i -> j with j drawn from row i of P: j = #{cumP[i] <= u}."""
        return self._next.draw(i, rng.random(len(i)))

    def draw_start(self, n, rng):
        return np.searchsorted(self.size_biased_cum, rng.random(n),
                               side="right")

    def draw_base(self, n, rng):
        i = np.searchsorted(self.stationary_cum, rng.random(n), side="right")
        return self._edges_from(i, rng)

    def step(self, states, rng):
        return self._edges_from(self._head[states], rng)

    def tau(self, states):
        return self.edge_tau[states]

    def phi(self, states):
        return self.edge_phi[states]

    # -- path tables ------------------------------------------------------

    def _build_path_tables(self):
        n = self.n_states
        pos = self.P > 0
        # paths per vertex of each length: M is the longest within the cap
        # (and a one-state chain, one path of every length, stops there too)
        adj = pos.astype(np.int64)
        count = adj.sum(axis=1)
        M = 1
        while M < _PATH_CAP:
            count = adj @ count
            if count.max() > _PATH_CAP:
                break
            M += 1
        levels = _levels(M)
        # positive edges in flat order, hence grouped by tail vertex
        edges = np.flatnonzero(pos.ravel())
        out_start = np.searchsorted(edges // n, np.arange(n + 1))
        degree = np.diff(out_start)
        start, last = edges // n, edges
        prob = self.P.ravel()[edges]
        phi = np.zeros(len(edges))
        tau = self.edge_tau[edges]
        tables = {}
        for m in range(1, M + 1):
            if m > 1:
                # extend each path by every positive edge out of its head,
                # path by path, so paths stay grouped by start vertex
                head = self._head[last]
                rep = np.repeat(np.arange(len(last)), degree[head])
                first = np.cumsum(degree[head]) - degree[head]
                child = edges[out_start[head][rep]
                              + np.arange(len(rep)) - first[rep]]
                start, prob = start[rep], prob[rep] * self.P.ravel()[child]
                phi = phi[rep] + self.edge_phi[last[rep]]
                tau = tau[rep] + self.edge_tau[child]
                last = child
            if m in levels:
                tables[m] = _PathTable(m, start, prob, phi, tau, last, n)
        return [tables[m] for m in levels]

    def _vertex(self, cur):
        return self._head[cur]

    def _leap_paths(self, table, cur, rng):
        """One path of ``table`` from the head of each edge in cur: (phi of
        cur plus the path's phi-sum, the path's tau-sum, its last edge),
        the sums of ``table.m`` passes of the crossing loop."""
        k = table.sampler.draw(self._head[cur], rng.random(len(cur)))
        return self.edge_phi[cur] + table.phi[k], table.tau[k], table.last[k]

    def _log_eigenvalue_series(self, g, order):
        """Taylor coefficients c_1..c_order at s = 0 of log lambda(s), with
        lambda(s) the leading eigenvalue of P_s = P o exp(s g) for a scalar
        edge observable g (n x n): c_k = kappa_k / k!, kappa_k the k-th
        cumulant rate of the edge sums of g.  The Nagaev-Guivarc'h expansion
        (Hennion and Herve, Lecture Notes in Math. 1766, 2001) order by
        order: with P_b = P o g^b / b!, v_0 = 1 and pi v_k = 0,
        lambda_k = pi sum_b P_b v_{k-b} and
        v_k = Z (sum_b P_b v_{k-b} - sum_b lambda_b v_{k-b}) over b = 1..k,
        where Z = (I - P + 1 pi)^-1 (Kemeny and Snell, Finite Markov Chains,
        1960).  Then c_k = lambda_k - sum_{j<k} j c_j lambda_{k-j} / k."""
        P, pi = self.P, self.stationary
        Z = np.linalg.inv(np.eye(self.n_states) - P + pi)
        P_b = [P * g ** b / math.factorial(b) for b in range(order + 1)]
        lam, v = [1.0], [np.ones(self.n_states)]
        for k in range(1, order + 1):
            r = sum(P_b[b] @ v[k - b] for b in range(1, k + 1))
            lam.append(float(pi @ r))
            v.append(Z @ (r - sum(lam[b] * v[k - b]
                                  for b in range(1, k + 1))))
        c = [0.0]
        for k in range(1, order + 1):
            c.append(lam[k] - sum(j * c[j] * lam[k - j]
                                  for j in range(1, k)) / k)
        return np.array(c[1:])

    def sigma(self):
        """The asymptotic covariance of the edge sums of f = (phi, tau):
        kappa_2 of phi, of tau and, polarised, of phi + tau, from the
        perturbation series of the leading eigenvalue."""
        def kappa2(g):
            return 2 * self._log_eigenvalue_series(g, 2)[1]

        phi, tau = self.f[:, :, 0], self.f[:, :, 1]
        var_phi, var_tau = kappa2(phi), kappa2(tau)
        cov = (kappa2(phi + tau) - var_phi - var_tau) / 2
        return np.array([[var_phi, cov], [cov, var_tau]])


# ---------------------------------------------------------------------------
# intermittent (neutral fixed point) interval map
# ---------------------------------------------------------------------------

def _pm_left(x, alpha):
    return x * (1 + (2 ** alpha) * x ** alpha)


def pm_map(x, alpha):
    """The ambient interval map: x(1 + 2^alpha x^alpha) on [0, 1/2],
    2x - 1 on (1/2, 1].  Works on scalars and numpy arrays, and evaluates
    the left branch only where it applies."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(_pm_left(x[()], alpha) if x <= 0.5 else 2 * x - 1)
    flat = x.ravel()
    out = flat * 2
    out -= 1
    left = np.flatnonzero(flat <= 0.5)
    out[left] = _pm_left(flat[left], alpha)
    return out.reshape(x.shape)


_PULLBACK_FLOOR = 1e-13      # _pm_pullback stops below this length ...
_PULLBACK_CAP = 100_000      # ... or at this many rows
_PULLBACK_BLOCK = 256        # rows per Newton solve
_PULLBACK_STEPS = 16         # Newton steps per block before giving up


def _pm_pullback(alpha, z):
    """Backward orbits of the left branch L(u) = u(1 + 2^alpha u^alpha),
    as a stream of row blocks.

    Yields blocks (U, D) whose rows, stacked, are U[k] = L^{-k}(z) and
    D[k] = dU[k]/dz for k = 0, 1, ... up to the first row whose last entry
    is <= _PULLBACK_FLOOR (at most _PULLBACK_CAP rows).  z is a nonempty
    vector of points of (0, 1], else ValueError (on the first block).

    The first block is row 0, z itself.  The rest come in blocks of
    _PULLBACK_BLOCK rows, each one Newton solve of F[j] = L(V[j]) -
    V[j - 1] = 0 with V[0] the row before the block.  The Jacobian is
    lower bidiagonal (L'(V[j]) on the diagonal, -1 below it), so each step
    is one cumprod and one cumsum.  The start is the second-order
    Fatou-coordinate guess: w = V^-alpha grows by alpha 2^alpha per row,
    less (1 + alpha) 2^alpha / 2 log(w / w0).  A block is done after a
    step that moves no entry by more than 1e-8 relative (the next would be
    below 1e-16); ArithmeticError if that takes more than _PULLBACK_STEPS
    steps.  Each block's D is a cumprod that starts from the last row of D
    before it, so D is one cumprod down the stacked rows, bit for bit.
    """
    z = np.asarray(z, dtype=float)
    # NaN fails both comparisons
    if z.ndim != 1 or not z.size or not np.all((z > 0) & (z <= 1)):
        raise ValueError("z must be a nonempty vector of points in (0, 1]")
    c = 2.0 ** alpha
    u, d = z, np.ones_like(z)
    yield u[None], d[None]
    k = 1
    while k < _PULLBACK_CAP and u[-1] > _PULLBACK_FLOOR:
        n = min(_PULLBACK_BLOCK, _PULLBACK_CAP - k)
        w0 = u ** -alpha
        w = w0 + alpha * c * np.arange(1, n + 1)[:, None]
        V = (w - (1 + alpha) * c / 2 * np.log(w / w0)) ** (-1 / alpha)
        for _ in range(_PULLBACK_STEPS):
            t = c * V ** alpha
            F = V * (1 + t)
            F[0] -= u
            F[1:] -= V[:-1]
            a = 1 / (1 + (1 + alpha) * t)
            # with a = 1 / L'(V) and A = cumprod(a), the step
            # d[j] = a[j] (d[j - 1] - F[j]) = -A[j] sum_{i<=j} a[i] F[i] / A[i]
            A = np.cumprod(a, axis=0)
            F *= a
            F /= A
            step = A * np.cumsum(F, axis=0)
            V -= step
            if np.max(np.abs(step) / V) <= 1e-8:
                break
        else:
            raise ArithmeticError(
                f"the pull-back at alpha = {alpha} did not converge in "
                f"{_PULLBACK_STEPS} Newton steps")
        below = np.flatnonzero(V[:, -1] <= _PULLBACK_FLOOR)
        if below.size:
            V = V[:below[0] + 1]
        a = 1 / (1 + (1 + alpha) * c * V ** alpha)
        D = np.cumprod(np.concatenate((d[None], a)), axis=0)[1:]
        u, d = V[-1], D[-1]
        k += len(V)
        yield V, D


PM_ROOFS = {
    "unit": lambda y: np.ones(np.shape(y)),
    "affine": lambda y: 1.0 + np.asarray(y, dtype=float) / 2,
}

# Chebyshev degree of the induced density on Y: its coefficients fall by
# ~0.13 per degree, so the induced-operator residual is at the 1e-13 level
# of the truncated branch tail already at degree 16
_PM_DEG = 32
_LEAP_SLICE = 1 << 15        # points per slice of induced_density
_CHEB_DEGS = 8               # Chebyshev degrees per piece of the build


def _tower_sums(alpha, s, gs):
    """One pass over the inverse branches of the first-return map F on
    Y = (1/2, 1] at the Chebyshev-Lobatto nodes y = (3 + s) / 4, block by
    block as ``_pm_pullback`` solves them.  Branch r = k + 1 is
    psi_r = (1 + U[k]) / 2 with derivative D[k] / 2, and the orbit of
    psi_r(y) runs psi_r, U[k], ..., U[1] before it returns to y = U[0].

    Returns the thresholds U[k, -1] (the orbit of the last node, 1/2) and
    S with S[i, 0, j] = sum_r psi_r'(y_i) T_j(4 psi_r(y_i) - 3), the
    Nystrom matrix of L_F on the Chebyshev series c of h, and
    S[i, 1 + q, j] the same sum with each branch weighted by the sum of
    g = gs[q] along its orbit.  Kac's sum int_Y h sum_{k<r} g o T^k is
    then quad @ S[:, 1 + q] @ c, linear in c, so h needs no second pass.
    """
    deg = len(s) - 1
    y = (3 + s) / 4
    S = np.zeros((len(s), 1 + len(gs), deg + 1))
    thresholds = []
    # running sums of g down the rows, from -g(y) so that row 0, the
    # orbits' common end y, sums to exactly 0
    run = -np.stack([g(y) for g in gs])[:, None]
    # the last _CHEB_DEGS Chebyshev degrees of a block, T_j(4 P[k, i] - 3)
    # at [j % _CHEB_DEGS, i, k]
    T = np.empty((_CHEB_DEGS, len(s), _PULLBACK_BLOCK))
    for U, D in _pm_pullback(alpha, y):
        # a copy, so that the block itself is freed
        thresholds.append(U[:, -1].copy())
        P, dP = (1 + U) / 2, D / 2
        G = np.stack([g(U) for g in gs])
        G = np.cumsum(np.concatenate((run, G), axis=1), axis=1)[:, 1:]
        run = G[:, -1:]
        # weight sets [node, set, row]: 1, then the sum of each g along
        # each orbit, g(psi_r) + g(U[k]) + ... + g(U[1])
        W = np.concatenate((dP[None], (G + np.stack([g(P) for g in gs]))
                            * dP)).transpose(2, 0, 1).copy()
        # [node, row] and contiguous, as the recurrence runs along rows
        x = (4 * P - 3).T.copy()
        t = T[:, :, :len(U)]
        t[0] = 1
        t[1] = x
        x *= 2
        for j0 in range(0, deg + 1, _CHEB_DEGS):
            for j in range(max(j0, 2), min(j0 + _CHEB_DEGS, deg + 1)):
                # T_j = 2x T_{j-1} - T_{j-2}
                np.multiply(t[(j - 1) % _CHEB_DEGS], x, out=t[j % _CHEB_DEGS])
                t[j % _CHEB_DEGS] -= t[(j - 2) % _CHEB_DEGS]
            # degrees j0, j0 + 1, ... go into S by one matmul per node
            piece = t[:deg + 1 - j0].transpose(1, 2, 0)
            S[:, :, j0:j0 + _CHEB_DEGS] += W @ piece
    return np.concatenate(thresholds), S


def _induced_fixed_point(s, M):
    """Nystrom solve for the invariant density h of the first-return map F
    on Y = (1/2, 1], with M @ c the values of L_F h at the
    Chebyshev-Lobatto nodes y = (3 + s) / 4 for the Chebyshev series c of
    h in 4y - 3.  Returns c, normalised to integrate to 1 over Y, and the
    Clenshaw-Curtis weights of the nodes on Y."""
    # only the intermittent map loads numpy.polynomial
    from numpy.polynomial.chebyshev import chebvander

    deg = len(s) - 1
    V = chebvander(s, deg)
    lam, vec = np.linalg.eig(np.linalg.solve(V.T, M.T).T)
    coef = np.linalg.solve(V, np.real(vec[:, np.argmin(np.abs(lam - 1))]))
    # integrals of T_j over [-1, 1]
    moments = np.zeros(deg + 1)
    moments[::2] = 2 / (1 - np.arange(0, deg + 1, 2) ** 2)
    return coef / (moments @ coef / 4), np.linalg.solve(V.T, moments) / 4


class PMTowerBase:
    """The intermittent map used as a suspension base.

    Ambient representation: state = a point of (0, 1], roof = upsilon(state),
    per-cell observable integral = (x - m) * upsilon(x) for the flow rate
    g(x) = x, with m the invariant-measure mean of g weighted by upsilon.

    The invariant measure comes from the Young tower over Y = (1/2, 1]: the
    first-return map F has full branches Y_r = {return time r}, and its
    invariant density h is the fixed point of a Nystrom discretisation of
    L_F h(z) = sum_r h(psi_r(z)) psi_r'(z) on Chebyshev-Lobatto nodes of Y,
    with the branches cut where the remaining Lebesgue mass of Y is below
    1e-13.  Ambient averages follow from Kac's formula,
    int g dmu = int_Y h sum_{k<r} g o T^k / int_Y r h, and invariant points
    are drawn on the tower: a branch r with probability ~ r |Y_r|, y uniform
    on Y_r accepted with probability h(y) / max h, a level k uniform in
    [0, r), then x = T^k y.  The return times are exposed through
    ``return_time``.
    """

    def __init__(self, alpha, roof="unit"):
        if not 0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        self.alpha = alpha
        self.roof_id = roof
        self._roof = PM_ROOFS[roof]
        # both roofs are nondecreasing: their supremum on (0, 1] is at 1
        self._roof_max = float(self._roof(1.0))
        # Chebyshev-Lobatto nodes s of [-1, 1], y = (3 + s) / 4 in Y; the
        # last node is y = 1/2
        s = np.cos(np.pi * np.arange(_PM_DEG + 1) / _PM_DEG)
        # Kac's sums of the roof, 1 and x roof: on the unit roof the first
        # two are one sum
        gs = {"unit": PM_ROOFS["unit"], roof: self._roof,
              "rate": lambda x: x * self._roof(x)}
        # preimages x_n = L^{-n}(1/2): the return time of x in (1/2, 1] is
        # 1 + #{n >= 0 : 2x - 1 <= x_n}
        self.thresholds, S = _tower_sums(alpha, s, list(gs.values()))
        self._hcoef, quad = _induced_fixed_point(s, S[:, 0])
        # |T_j| <= 1 on [-1, 1], so this bounds h
        self._hmax = float(np.abs(self._hcoef).sum())
        kac = dict(zip(gs, (quad @ (S[:, 1:] @ self._hcoef)).tolist()))
        self.nu_tau = kac[roof] / kac["unit"]
        self.rate_mean = kac["rate"] / kac[roof]
        # tower draws: branch r = k + 1 has 2y - 1 in (x_k, x_{k-1}], with
        # x_{-1} = 1
        self._zwidth = np.concatenate(([1.0], self.thresholds[:-1])) \
            - self.thresholds
        branch_w = np.arange(1, len(self._zwidth) + 1) * self._zwidth
        self._branch_cum = _cdf_table(branch_w / branch_w.sum())

    kind = "pm"

    def induced_density(self, y):
        """The invariant density h of the first-return map on Y = (1/2, 1],
        normalised to integrate to 1 over Y."""
        from numpy.polynomial.chebyshev import chebval

        y = np.asarray(y, dtype=float)
        h = (4 * y - 3).ravel()
        # 4y - 3 becomes h in slices of _LEAP_SLICE points, which keep
        # Clenshaw's temporaries in cache
        for lo in range(0, h.size, _LEAP_SLICE):
            sl = slice(lo, lo + _LEAP_SLICE)
            h[sl] = chebval(h[sl], self._hcoef)
        return h.reshape(y.shape)[()]

    # -- ambient suspension interface -----------------------------------

    def draw_base(self, n, rng):
        """Points of the ambient invariant measure, drawn on the tower."""
        ks, zs, need = [], [], n
        while need:
            k = np.searchsorted(self._branch_cum, rng.random(need),
                                side="right")
            z = self.thresholds[k] + rng.random(need) * self._zwidth[k]
            ok = (rng.random(need) * self._hmax
                  < self.induced_density((1 + z) / 2))
            ks.append(k[ok])
            zs.append(z[ok])
            need -= len(ks[-1])
        k, z = np.concatenate(ks), np.concatenate(zs)
        # level j uniform in [0, r): y itself, or T^j y = L^{j-1}(2y - 1)
        level = rng.integers(0, k + 1)
        x = np.where(level == 0, (1 + z) / 2, z)
        idx = np.flatnonzero(level > 1)
        while idx.size:
            x[idx] = _pm_left(x[idx], self.alpha)
            level[idx] -= 1
            idx = idx[level[idx] > 1]
        return x

    def draw_start(self, n, rng):
        """Roof-size-biased points: invariant draws, thinned by roof-weighted
        rejection unless the roof is constant."""
        if self.roof_id == "unit":
            return self.draw_base(n, rng)
        out, need = [], n
        while need:
            x = self.draw_base(need, rng)
            out.append(x[rng.random(need) * self._roof_max < self._roof(x)])
            need -= len(out[-1])
        return np.concatenate(out)

    def step(self, states, rng):
        return pm_map(states, self.alpha)

    def tau(self, states):
        return self._roof(states)

    def phi(self, states):
        # on the unit roof, x - m is (x - m) * 1.0 to the last bit
        centred = states - self.rate_mean
        if self.roof_id == "unit":
            return centred
        return centred * self._roof(states)

    # -- whole-cell passes ------------------------------------------------

    def _orbit(self, x, m, psi, tau):
        """Run the orbits x forward in place by m[k] cells each (m holds
        whole numbers), adding phi of every cell left to psi and, unless
        the roof is the unit one, its roof to tau (tau is None then).
        These are the float operations of ``phi`` and ``pm_map`` in the
        order of the crossing loop, so psi is the loop's to the last bit.
        The paths step as a whole while each has cells left, and by index
        after that; ``leap`` hands them over one Monte Carlo block at a
        time, which stays in cache."""
        buf, mask = np.empty(len(x)), np.empty(len(x), dtype=bool)
        k = int(m.min()) if len(m) else 0
        for _ in range(k):
            self._orbit_step(x, psi, tau, buf, mask)
        idx = np.flatnonzero(m > k)
        while idx.size:
            xi, pi = x[idx], psi[idx]
            ti = None if tau is None else tau[idx]
            self._orbit_step(xi, pi, ti, buf[:idx.size], mask[:idx.size])
            x[idx], psi[idx] = xi, pi
            if tau is not None:
                tau[idx] = ti
            k += 1
            idx = idx[m[idx] > k]

    def _orbit_step(self, x, psi, tau, buf, mask):
        """One cell of ``_orbit``: phi (and the roof) of x, then x mapped in
        place, the left branch only where it applies.  buf and mask are
        scratch space of x's length."""
        np.subtract(x, self.rate_mean, out=buf)
        if tau is not None:
            r = self._roof(x)
            buf *= r
            tau += r
        psi += buf
        left = np.flatnonzero(np.less_equal(x, 0.5, out=mask))
        xl = x[left]
        x *= 2
        x -= 1
        x[left] = _pm_left(xl, self.alpha)

    def leap(self, states, budget, rng):
        """(count, phi_sum, tau_sum, states) per path over the m =
        floor(budget / max roof) whole cells that follow its current one:
        every roof is at most the maximum, so these cells end within the
        budget.  The map is deterministic, so nothing is drawn.  On the
        unit roof tau_sum is m and the sums are the crossing loop's to the
        last bit."""
        m = np.floor_divide(budget, self._roof_max)
        np.maximum(m, 0, out=m)
        cur = states.copy()
        phi_sum = np.zeros(len(cur))
        if self.roof_id == "unit":
            self._orbit(cur, m, phi_sum, None)
            tau_sum = m
        else:
            # the roofs of the cells left, less the first, plus the last
            tau_sum = np.zeros(len(cur))
            self._orbit(cur, m, phi_sum, tau_sum)
            tau_sum += self._roof(cur) - self._roof(states)
        return m.astype(np.int64), phi_sum, tau_sum, cur

    # -- induced first-return structure ---------------------------------

    def return_time(self, x):
        """Return time of x in (1/2, 1], the number of pm_map steps until
        the orbit re-enters (1/2, 1], via the precomputed threshold table
        (vectorized).  Where 2x - 1 lies below the table's last entry, the
        left branch is iterated until the orbit passes it, one return step
        each, and the table counts the rest.  Raises ValueError unless
        every entry lies in (1/2, 1]."""
        x = np.asarray(x, dtype=float)
        # NaN fails both comparisons
        if not np.all((x > 0.5) & (x <= 1)):
            raise ValueError("x must lie in (1/2, 1]")
        z = np.array(2 * x - 1, ndmin=1).ravel()
        deep = np.zeros(len(z), dtype=np.int64)
        last = self.thresholds[-1]
        idx = np.flatnonzero(z < last)
        while idx.size:
            z[idx] = _pm_left(z[idx], self.alpha)
            deep[idx] += 1
            idx = idx[z[idx] < last]
        # r = 1 + #{n >= 0 : z <= x_n}: each uncleared threshold costs one
        # extra left-branch step (the table is decreasing, hence the negation)
        out = 1 + deep + np.searchsorted(-self.thresholds, -z, side="right")
        return int(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_SYSTEM_TYPES = {
    "renewal": RenewalBase,
    "markov": MarkovShiftBase,
    "pm": PMTowerBase,
}


def load_system(spec):
    """Build a system from a JSON object, JSON string, or file path, read
    through ``config.SYSTEMS`` before any domain check."""
    kind, args = read_system(spec)
    return _SYSTEM_TYPES[kind](**args)
