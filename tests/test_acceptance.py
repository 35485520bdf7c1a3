"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them live).  Tolerances follow the project contract:
Monte Carlo quantities use 3 standard errors plus a stated systematic
allowance; exact quantities use exact equality or 1e-8/1e-10 bounds.
"""

import math
import random
from fractions import Fraction

import numpy as np
from scipy import stats

from lcltflow.groups import (CaseLabel, Group1D, classify_case,
                             closure_of_group, interval, shear_reduce)
from lcltflow.montecarlo import (estimate_correlation,
                                 estimate_lclt, estimate_mlclt,
                                 estimate_sigma, sample_flow_integrals)
from lcltflow.predict import (FlowMLCLTParams, PredictionRequest,
                              mixing_classify, predict)
from lcltflow.quadfield import QuadScalar, as_quad
from lcltflow.renewal_exact import (counterexample_scan, dp_distribution,
                                    section_61_atoms,
                                    stationary_event_probability)
from lcltflow.spectral import (EigenCurve, TwistedOperatorModel,
                               expansion_fit, fourier_lclt)
from lcltflow.systems import MarkovShiftBase, PMTowerBase, RenewalBase

from exactref import brute_force_enumerate
from flowref import return_time
from groupref import weyl_average

SEED = 20260823
WORKERS = 4
S2 = QuadScalar.sqrtD(2)
S3 = QuadScalar.sqrtD(3)
SQ2 = math.sqrt(2)
THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


def report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def osc_system():
    return RenewalBase(section_61_atoms())


def coin_chain():
    P = [[0.5, 0.5], [0.5, 0.5]]
    f = np.zeros((2, 2, 2))
    f[:, 0, 0] = -1.0
    f[:, 1, 0] = 1.0
    f[:, :, 1] = 1.0
    return MarkovShiftBase(P, f)


def test_criterion_1_oscillating_scaled_probabilities():
    """Exact sqrt(t) P(S = 0) splits into three subsequence limits in ratio
    1 : 2/3 : 1/3 according to the fractional-part cell of t."""
    ts = [Fraction(K) + f for K in (20, 30, 40)
          for f in (Fraction(2, 10), Fraction(5, 10), Fraction(9, 10))]
    rows = counterexample_scan(ts)
    by_cell = {}
    for t, cell, v, _ in rows:
        by_cell.setdefault(cell, []).append((float(t), v))
    limits = {}
    for cell, pts in by_cell.items():
        # one-step extrapolation in 1/sqrt(t): v(t) = v_inf + c / sqrt(t)
        x = np.array([1 / math.sqrt(t) for t, _ in pts])
        y = np.array([v for _, v in pts])
        A = np.vstack([np.ones_like(x), x]).T
        limits[cell] = np.linalg.lstsq(A, y, rcond=None)[0][0]
    r1 = limits[1] / limits[0]
    r2 = limits[2] / limits[0]
    ok = (set(limits) == {0, 1, 2}
          and abs(r1 - 2 / 3) < 0.05 * (2 / 3)
          and abs(r2 - 1 / 3) < 0.05 * (1 / 3))
    report(1, "exact scan shows cell limits in ratio 1 : 2/3 : 1/3", ok,
           f"ratios {r1:.4f}, {r2:.4f}")


def test_criterion_2_fourier_and_dp_exactness():
    """Fourier inversion reproduces the exact binomial point mass and the
    renewal DP agrees with full path enumeration as exact rationals."""
    model = TwistedOperatorModel(coin_chain(), components=(0,))
    fo = fourier_lclt(model, 10, [0.0])
    ok = abs(fo - 252 / 1024) < 1e-10
    atoms = section_61_atoms()
    for t in (2, Fraction(9, 2), 6):
        a = dp_distribution(atoms, t)
        b = brute_force_enumerate(atoms, t)
        ok = ok and all(a.get(k, Fraction(0)) == b.get(k, Fraction(0))
                        for k in set(a) | set(b))
    report(2, "Fourier oracle exact at 252/1024; DP == enumeration, t <= 6",
           ok, f"fourier error {abs(fo - 252 / 1024):.2e}")


def test_criterion_3_eigenvalue_expansion_fit():
    """Quadratic eigenvalue expansion: drift equals the stationary means to
    1e-8, the coin variance is 1/2 to 1e-6, cubic remainder confirmed."""
    f = np.zeros((3, 3, 2))
    f[:, :, 1] = 1.0
    f[0, 0] = [0.5, 1.0]
    f[0, 1] = [1.0, 2.0]
    f[1, 1] = [-0.5, 1.0]
    f[1, 2] = [-1.0, 3.0]
    f[2, 0] = [0.0, 2.0]
    f[2, 2] = [0.0, 1.0]
    chain = MarkovShiftBase([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                             [0.5, 0.0, 0.5]], f)
    drift, m, order = expansion_fit(EigenCurve(TwistedOperatorModel(chain)))
    ok = (abs(drift[0] - 0.0) < 1e-8 and abs(drift[1] - 5 / 3) < 1e-8
          and order >= 2.9)
    dc, mc, _ = expansion_fit(
        EigenCurve(TwistedOperatorModel(coin_chain(), components=(0,))))
    ok = ok and abs(mc[0, 0] - 0.5) < 1e-6
    report(3, "drift = (0, nu(tau)) to 1e-8, coin m = 0.5 to 1e-6, "
              "remainder order >= 2.9", ok,
           f"drift err {max(abs(drift[0]), abs(drift[1] - 5 / 3)):.1e}, "
           f"order {order:.3f}")


def test_criterion_4_nonarithmetic_flow_lclt():
    """Renewal flow with rationally independent durations: the scaled
    central-window mass matches the Gaussian density with the variance of
    ``sigma()``, and the w = +-1 windows reproduce the Gaussian ratio."""
    sysm = RenewalBase([(-1, as_quad(1), THIRD), (0, S2, THIRD),
                        (1, S3, THIRD)])
    Sigma = sysm.sigma()[0, 0] / sysm.nu_tau
    g0 = 1 / math.sqrt(2 * math.pi * Sigma)
    # one set of paths for all three windows, as `lcltflow verify` does
    ws = (0.0, 1.0, -1.0)
    wins = [("flow", w, -0.5, 0.5) for w in ws]
    ests = dict(zip(ws, estimate_lclt(sysm, 400.0, wins, 10 ** 6, SEED,
                                      workers=WORKERS)))
    e0 = ests[0.0]
    ok = abs(e0.point - g0) <= 3 * e0.std_error + 0.10 * g0
    target = math.exp(-1 / (2 * Sigma))
    detail = [f"w=0: {e0.point:.4f} vs {g0:.4f}"]
    for w in (1.0, -1.0):
        e = ests[w]
        r = e.point / e0.point
        r_se = r * math.hypot(e.std_error / e.point,
                              e0.std_error / e0.point)
        ok = ok and abs(r - target) <= 3 * r_se
        detail.append(f"w={w:+g} ratio {r:.4f} vs {target:.4f}")
    report(4, "flow windows match Gaussian density and ratios", ok,
           "; ".join(detail))


def test_criterion_5_lattice_mlclt_three_way():
    """Stationary-start fiber event at t = 100: Monte Carlo versus the
    closed-form lattice prediction and the error-free DP value."""
    atoms = section_61_atoms()
    sysm = RenewalBase(atoms)
    If = (0.0, SQ2 - 1)
    est = estimate_mlclt(sysm, 100.0, 10 ** 7, SEED,
                         window=("section", 1, 0), I=If, J=If,
                         workers=WORKERS)
    params = FlowMLCLTParams(CaseLabel("D", a=1, b=S2, d=1),
                             sigma_flow=1.0, nu_tau=2 / 3)
    pred = predict(params, PredictionRequest(t=100, l=0, I=If, J=If))
    Ix = (as_quad(0), S2 - 1)
    exact = 10 * float(stationary_event_probability(atoms, 100, 0,
                                                    I=Ix, J=Ix))
    ok = (abs(est.point - pred) <= 3 * est.std_error + 0.10 * pred
          and abs(est.point - exact) <= 3 * est.std_error)
    report(5, "MC vs prediction vs exact DP agree at t = 100", ok,
           f"mc {est.point:.5f} +- {est.std_error:.5f}, pred {pred:.5f}, "
           f"exact {exact:.5f}")


def test_criterion_6_mixing_dichotomy():
    """Classifier verdicts on the four pinned inputs, plus a 10x band-set
    correlation contrast between an integer roof and a sqrt2 roof."""
    verdicts = (mixing_classify(Group1D.lattice(1), S2) == "Mixing"
                and mixing_classify(Group1D.full(), 0) == "Mixing"
                and mixing_classify(Group1D.lattice(1),
                                    Fraction(1, 2)) == "NotWeaklyMixing"
                and mixing_classify(Group1D("trivial"),
                                    1) == "NotWeaklyMixing")

    def band(states, s):
        return np.mod(s, 1.0) < 0.3

    coin = RenewalBase([(-1, as_quad(1), HALF), (1, as_quad(1), HALF)])
    rows_p = estimate_correlation(coin, band, band,
                                  [50.0 + 0.125 * k for k in range(9)],
                                  10 ** 6, seed=SEED, workers=WORKERS)
    rows_m = estimate_correlation(osc_system(), band, band,
                                  [50.0 + k for k in range(11)],
                                  10 ** 6, seed=SEED, workers=WORKERS)
    mx_p = max(abs(c) for _, c, _ in rows_p)
    mx_m = max(abs(c) for _, c, _ in rows_m)
    ok = verdicts and mx_p >= 10 * mx_m
    report(6, "mixing verdicts correct; band correlation contrast >= 10x",
           ok, f"periodic {mx_p:.4f} vs mixing {mx_m:.4f}")


def test_criterion_7_intermittent_tower():
    """Intermittent map, alpha = 1/4: return-time tail exponent -4, Gaussian
    flow integrals, and the central window mass at t = 200."""
    pm = PMTowerBase(0.25)
    rng = np.random.default_rng(SEED)
    xs = 0.5 + 0.5 * rng.random(10 ** 7)
    r = return_time(pm, xs)
    ns = np.arange(10, 51)
    tail = np.array([(r > n).mean() for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(tail), 1)[0])
    ok = abs(slope - (-4.0)) < 0.5

    vals = sample_flow_integrals(pm, 200.0, 2000, seed=SEED, workers=WORKERS)
    z = (vals - vals.mean()) / vals.std()
    ad = stats.anderson(z, dist="norm", method="interpolate")
    ok = ok and float(ad.pvalue) > 0.01

    cov, _ = estimate_sigma(pm, n_blocks=2000, block_len=500, seed=SEED,
                            workers=WORKERS)
    Sigma = cov[0, 0] / pm.nu_tau
    g0 = 1 / math.sqrt(2 * math.pi * Sigma)
    est = estimate_mlclt(pm, 200.0, 400_000, SEED,
                         window=("flow", 0.0, -0.5, 0.5), workers=WORKERS)
    ok = ok and abs(est.point - g0) <= 0.15 * g0
    report(7, "tail slope -4, normality at 1%, window within 15%", ok,
           f"slope {slope:.3f}, AD {float(ad.statistic):.3f} "
           f"(p {float(ad.pvalue):.3f}), "
           f"window {est.point:.4f} vs {g0:.4f}")


def test_criterion_8_group_engine():
    """Classification, randomized clustering cross-check, exact shear, and
    Weyl-average convergence."""
    ZERO, ONE = as_quad(0), as_quad(1)
    c = classify_case(closure_of_group([(ZERO, ONE), (ONE, S2)]))
    ok = (c.variant == "D" and c.a == 1 and c.d == 1
          and c.b.mod(c.d) == S2.mod(c.d))

    rng = random.Random(901)
    for _ in range(10):
        k = rng.choice([2, 2, 3])
        gens = [tuple(QuadScalar(Fraction(rng.randint(-3, 3)),
                                 Fraction(rng.choice([0, 0, 1, -1, 2])), 2)
                      for _ in range(2)) for _ in range(k)]
        if all(g[0].is_zero() and g[1].is_zero() for g in gens):
            continue
        grp = closure_of_group(gens).group
        fg = [(float(v[0]), float(v[1])) for v in gens]
        for _ in range(200):
            ns = [rng.randint(-40, 40) for _ in range(k)]
            pt = (sum(n * v[0] for n, v in zip(ns, fg)),
                  sum(n * v[1] for n, v in zip(ns, fg)))
            ok = ok and _dist_to(grp, pt) < 1e-6

    b, v = shear_reduce(CaseLabel("C", alpha=S2, beta=as_quad(3)))
    ok = ok and b.variant == "B" and v == 1 / S2 and b.a == abs(as_quad(3) / S2)

    wa = weyl_average(Group1D.lattice(1), S2, 10 ** 5, interval(0, 0.5))
    ok = ok and abs(wa - 0.5) < 0.02
    report(8, "classification, clustering oracle, shear, Weyl average", ok,
           f"weyl {wa:.4f}")


def _dist_to(group, pt):
    """Float distance from pt to a classified closed subgroup of R^2."""
    x = np.asarray(pt, dtype=float)
    if group.dim_linear == 2:
        return 0.0
    if group.dim_linear == 1:
        u = np.array([float(group.linear_dirs[0][0]),
                      float(group.linear_dirs[0][1])])
        u = u / np.linalg.norm(u)
        perp = x - np.dot(x, u) * u
        if not group.lattice_basis:
            return float(np.hypot(*perp))
        z = np.array([float(group.lattice_basis[0][0]),
                      float(group.lattice_basis[0][1])])
        k = np.round(np.dot(perp, z) / np.dot(z, z))
        return float(np.hypot(*(perp - k * z)))
    if len(group.lattice_basis) == 2:
        B = np.array([[float(v[0]) for v in group.lattice_basis],
                      [float(v[1]) for v in group.lattice_basis]])
        coef = np.linalg.solve(B, x)
        return float(np.linalg.norm(B @ (coef - np.round(coef))))
    if group.lattice_basis:
        z = np.array([float(group.lattice_basis[0][0]),
                      float(group.lattice_basis[0][1])])
        k = np.round(np.dot(x, z) / np.dot(z, z))
        return float(np.hypot(*(x - k * z)))
    return float(np.hypot(*x))


def test_criterion_9_moderate_deviations():
    """The exact moderate-deviation table at w = 400, R = 10 is
    non-increasing in K, 0.0021681 at K = 2, below 1e-30 at K = 5 and 0 at
    K = 10, so it drops at least 5x by K = 10; and its ball masses at sizes
    400 and 360 lie within 3 SE of 2^20 base sums S_n, each drawn as the
    count vector of its n iid cells."""
    sys = osc_system()
    w, R, N = 400, 10.0, 1 << 20
    vals = sys.moderate_dev_table([w], [2.0, 5.0, 10.0], R)[w]
    ok = (vals[0] >= vals[1] >= vals[2] >= 0
          and vals[0] > 0 and vals[2] <= vals[0] / 5
          and abs(vals[0] / 0.0021681 - 1) <= 1e-4
          and 0 < vals[1] < 1e-30 and vals[2] == 0)
    exact = sys.ball_masses(w, R)
    rng = np.random.default_rng(SEED)
    detail = []
    values = np.column_stack((sys.xs, sys.ys))
    for n in (400, 360):
        phi, tau = (rng.multinomial(n, sys.probs, size=N) @ values).T
        p = np.count_nonzero(phi ** 2 + (tau - w * sys.nu_tau) ** 2
                             <= R * R) / N
        se = math.sqrt(max(p * (1 - p), 1 / N) / N)
        ok = ok and abs(p - exact[n]) <= 3 * se
        detail.append(f"n={n}: {exact[n]:.6g} vs {p:.6g} +- {se:.2g}")
    report(9, "exact moderate-deviation table decays in K (5x by K = 10) "
           "and its ball masses match Monte Carlo", ok,
           f"values {[float(v) for v in vals]}; " + "; ".join(detail))
