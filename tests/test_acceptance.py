"""Acceptance suite: one check per headline claim, one printed
pass/fail line each.

Two checks are expected to fail and are kept failing on purpose:

* criterion 7 (global log-concavity of the approximate-prior
  posterior): the claimed theorem is false — the posterior has a
  power-law tail in a, and every power-tailed density is log-convex
  far enough out.  The closed-form curvature (which matches finite
  differences to full precision) is positive there.
* criterion 9 (sparse mode asymptotics at the stated 20% band): the
  asymptotic mode formula converges only logarithmically, and at
  n = 10^4 the relative error still exceeds 20% for r0 in {20, 100}.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from overallprior.catalogue import (BvnParams, haar_arithmetic_average,
                                    right_haar_density)
from overallprior.hier import (CountTable, LimitProfile,
                               approx_posterior_curvature,
                               hypergeometric_overall_prior,
                               hypergeometric_pmf, likelihood_mode_a,
                               limit_density_psi, log_concavity_certificate,
                               marginal_log_likelihood, mode_asymptotic,
                               posterior_log_density_a,
                               reference_prior_exact, sample_posterior)
from overallprior.refdist import (CountVector, RefDistConfig,
                                  dirichlet_posterior_means, d_mu, d_sigma,
                                  expected_loss, optimal_a)
from overallprior.shrinkage import (MeansData, flat_prior_theta_mean,
                                    gibbs_sample, theta_posterior_samples)


def _report(num: int, label: str, ok: bool):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


# --------------------------------------------------------------------- 1


def test_criterion_01_reference_distance_optimum():
    ok = True
    a1 = optimal_a(RefDistConfig(m=10, n=100)).argmin
    a2 = optimal_a(RefDistConfig(m=1000, n=100)).argmin
    ok &= abs(a1 - 0.0834) <= 0.02 * 0.0834
    ok &= abs(a2 - 0.000768) <= 0.02 * 0.000768
    for m in (10, 100, 200, 1000):
        for n in (5, 10, 25, 100, 500):
            prod = m * optimal_a(RefDistConfig(m=m, n=n)).argmin
            ok &= 0.7 <= prod <= 0.9
    _report(1, "optimal a matches published values; m*a_star in [0.7,0.9]",
            ok)


# --------------------------------------------------------------------- 2


def test_criterion_02_two_cells_jeffreys_exact():
    ok = True
    for n in (5, 17, 60):
        res = optimal_a(RefDistConfig(m=2, n=n))
        ok &= abs(res.argmin - 0.5) <= 1e-4
        ok &= expected_loss(0.5, RefDistConfig(m=2, n=n)) <= 1e-12
    _report(2, "m=2 optimum is a=1/2 with zero expected loss", ok)


# --------------------------------------------------------------------- 3


def test_criterion_03_normal_risks():
    ok = True
    for n in range(2, 51):
        ok &= abs(d_mu(1.0, n)) <= 1e-12
        ok &= abs(d_sigma(1.0, n)) <= 1e-12
    grid = np.linspace(0.2, 3.0, 281)
    for fn in (d_mu, d_sigma):
        vals = np.array([fn(a, 12) for a in grid])
        ok &= bool(np.all(vals >= -1e-15))
        flips = np.flatnonzero(np.diff(np.sign(np.diff(vals))))
        ok &= len(flips) == 1 and abs(grid[flips[0] + 1] - 1.0) < 0.02
    _report(3, "normal-model risks vanish only at the reference a=1", ok)


# --------------------------------------------------------------------- 4


def test_criterion_04_sparse_table_means():
    x = CountVector(counts=tuple([2, 1] + [0] * 998))
    jef = dirichlet_posterior_means(x, 0.5)
    ovr = dirichlet_posterior_means(x, 1.0 / 1000)
    ok = (abs(jef[0] - 2.5 / 503) < 1e-12 and abs(jef[1] - 1.5 / 503) < 1e-12
          and abs(ovr[0] - 2.001 / 4) < 1e-12
          and abs(ovr[1] - 1.001 / 4) < 1e-12)
    _report(4, "sparse-table posterior means (Jeffreys vs overall a=1/m)",
            ok)


# --------------------------------------------------------------------- 5


def _normalizer(m, n, upper):
    z, _ = scipy.integrate.quad(lambda a: reference_prior_exact(a, m, n),
                                0.0, upper, epsrel=1e-10, epsabs=0.0,
                                limit=200)
    return z + reference_prior_exact(upper, m, n) * upper


def test_criterion_05_exact_hyperprior_proper_with_known_small_a():
    ok = True
    for m, n in ((10, 5), (150, 10), (500, 10)):
        z1 = _normalizer(m, n, 1e3)
        z2 = _normalizer(m, n, 2e3)
        ok &= math.isfinite(z1) and z1 > 0.0
        ok &= abs(z2 - z1) / z1 < 2e-3
        lo, hi = 1e-8, 1e-7
        slope = ((math.log(reference_prior_exact(hi, m, n))
                  - math.log(reference_prior_exact(lo, m, n)))
                 / (math.log(hi) - math.log(lo)))
        ok &= abs(slope + 0.5) <= 0.05
        cn = sum(1.0 / j for j in range(1, n))
        coef = reference_prior_exact(1e-8, m, n) * math.sqrt(1e-8)
        ok &= abs(coef - math.sqrt((m - 1) * cn / m)) <= \
            0.02 * math.sqrt((m - 1) * cn / m)
    _report(5, "exact hyperprior proper; a^{-1/2} blow-up with known "
               "coefficient", ok)


# --------------------------------------------------------------------- 6


def test_criterion_06_likelihood_mode_scaling():
    ok = True
    for m in (100, 1000):
        t = CountTable(m=m, counts={0: 2, 1: 1})
        ok &= 1.35 <= m * likelihood_mode_a(t) <= 1.48
    _report(6, "type-II ML mode of a scales like sqrt(2)/m for the "
               "(2,1) table", ok)


# --------------------------------------------------------------------- 7


def test_criterion_07_log_concavity():
    # Finite-difference agreement of the closed-form curvature.
    fd_ok = True
    t = CountTable.from_dense([5, 3, 0, 2] + [0] * 6)
    for a in (0.05, 0.3, 1.0, 4.0):
        h = 2e-3 * a
        fd = (posterior_log_density_a(a + h, t, "approx")
              - 2 * posterior_log_density_a(a, t, "approx")
              + posterior_log_density_a(a - h, t, "approx")) / h ** 2
        closed = approx_posterior_curvature(a, t)
        fd_ok &= abs(closed - fd) <= 1e-5 * max(1.0, abs(fd))

    # 100 fuzzed tables: the concavity claim itself.  EXPECTED FAIL —
    # the posterior tail is log-convex (power law), so the certificate
    # honestly reports False once the grid reaches large a.
    rng = np.random.default_rng(0)
    grid = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 60))
    concave_ok = True
    for _ in range(100):
        m = int(rng.integers(4, 60))
        n = int(rng.integers(6, 40))
        counts = rng.multinomial(n, rng.dirichlet(np.full(m, 0.5)))
        t = CountTable.from_dense(counts)
        if t.r0 < 3:
            continue
        concave_ok &= log_concavity_certificate(t, grid)
    _report(7, "approximate-prior posterior log-concave on all fuzzed "
               "tables (closed-form curvature matches finite differences: "
               f"{fd_ok})", fd_ok and concave_ok)


# --------------------------------------------------------------------- 8


def test_criterion_08_large_m_limit_convergence():
    start = time.time()
    vgrid = np.exp(np.linspace(math.log(1e-3), math.log(500.0), 600))
    ok = True
    for n, r0 in ((10, 2), (10, 5), (50, 10)):
        counts = [n - r0 + 1] + [1] * (r0 - 1)
        profile = LimitProfile(n=n, r0=r0)
        psi = np.array([limit_density_psi(v, profile) for v in vgrid])
        psi /= np.trapezoid(psi, vgrid)
        sups = []
        for m in (10 ** 2, 10 ** 3, 10 ** 4):
            t = CountTable.from_dense(counts + [0] * (m - r0))
            logd = np.array([posterior_log_density_a(v / m, t, "exact")
                             for v in vgrid])
            d = np.exp(logd - logd.max())
            d /= np.trapezoid(d, vgrid)
            sups.append(float(np.max(np.abs(d - psi))))
        ok &= sups[-1] < 0.02
        ok &= sups[0] > sups[1] > sups[2]
    elapsed = time.time() - start
    _report(8, f"posterior of v=ma converges to the Psi limit "
               f"(sup<0.02 at m=1e4, monotone; {elapsed:.1f}s)",
            ok and elapsed < 60.0)


# --------------------------------------------------------------------- 9


def test_criterion_09_limit_mode_asymptotics():
    n = 10 ** 4
    vgrid = np.exp(np.linspace(math.log(0.05), math.log(2.0 * n), 1200))
    ok = True
    for r0 in (5, 20, 100):
        profile = LimitProfile(n=n, r0=r0)
        vals = [limit_density_psi(v, profile) for v in vgrid]
        numeric = vgrid[int(np.argmax(vals))]
        asym = mode_asymptotic(profile, regime="sparse")
        ok &= abs(asym - numeric) <= 0.20 * numeric
    profile = LimitProfile(n=n, r0=n // 2)
    vals = [limit_density_psi(v, profile) for v in vgrid]
    numeric = vgrid[int(np.argmax(vals))]
    asym = mode_asymptotic(profile, regime="dense")
    ok &= abs(asym - numeric) <= 0.20 * numeric
    _report(9, "Psi-mode asymptotics within 20% at n=1e4 (sparse r0 in "
               "{5,20,100} and dense r0=n/2)", ok)


# -------------------------------------------------------------------- 10


def _ks_against_grid(samples, t, prior):
    grid = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 6000))
    logd = np.array([posterior_log_density_a(a, t, prior) for a in grid])
    d = np.exp(logd - logd.max())
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * 0.5
                                           * (d[1:] + d[:-1]))))
    cdf /= cdf[-1]
    s = np.sort(samples)
    model = np.interp(s, grid, cdf)
    emp_hi = np.arange(1, s.size + 1) / s.size
    emp_lo = np.arange(0, s.size) / s.size
    return max(np.max(np.abs(emp_hi - model)),
               np.max(np.abs(emp_lo - model)))


def test_criterion_10_hyperposterior_samplers():
    rng = np.random.default_rng(42)
    theta = rng.dirichlet(np.full(50, 0.3))
    t = CountTable.from_dense(rng.multinomial(20, theta))
    ok = True
    for method in ("mh", "slice"):
        chain = sample_posterior(t, 100000, seed=9, prior="exact",
                                 method=method)
        ok &= _ks_against_grid(chain.a_samples, t, "exact") < 0.03
        again = sample_posterior(t, 1000, seed=9, prior="exact",
                                 method=method)
        ok &= bool(np.array_equal(chain.a_samples[:1000], again.a_samples))
    _report(10, "MH and slice chains match the grid posterior "
                "(KS < 0.03 at 1e5 draws) and are seed-reproducible", ok)


# -------------------------------------------------------------------- 11


def test_criterion_11_shrinkage_fixes_flat_prior_bias():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=100000)
    mu *= math.sqrt(mu.size) / np.linalg.norm(mu)  # theta_T = 1
    x = rng.normal(mu, 1.0)
    flat = flat_prior_theta_mean(MeansData(x))
    ok = abs(flat - 3.0) <= 0.05

    rng = np.random.default_rng(2)
    mu = rng.normal(size=200)
    mu *= math.sqrt(mu.size) / np.linalg.norm(mu)
    x = rng.normal(mu, 1.0)
    chain = gibbs_sample(MeansData(x), 6000, seed=4)
    theta = theta_posterior_samples(chain)[500:]
    ok &= 0.7 <= float(theta.mean()) <= 1.3
    _report(11, "flat prior overshoots theta by +2; hierarchical prior "
                "recovers theta_T = 1", ok)


# -------------------------------------------------------------------- 12


def _splits(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_12_hypergeometric_reduction():
    ok = True
    for N in (4, 6, 8):
        for k in (1, 2, 3):
            n = N // 2
            for r in _splits(n, k + 1):
                r_head = list(r[:-1])
                mixed = sum(
                    hypergeometric_pmf(r_head, n, list(R[:-1]), N)
                    * hypergeometric_overall_prior(list(R[:-1]), N, k)
                    for R in _splits(N, k + 1))
                direct = hypergeometric_overall_prior(r_head, n, k)
                ok &= abs(mixed - direct) <= 1e-12
    _report(12, "hypergeometric sample mixed over the population prior "
                "reproduces the same law (N<=8, k<=3, 1e-12)", ok)


# -------------------------------------------------------------------- 13


def test_criterion_13_right_haar_average_identity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        p = BvnParams(0.0, 0.0, float(rng.uniform(0.2, 4.0)),
                      float(rng.uniform(0.2, 4.0)),
                      float(rng.uniform(-0.9, 0.9)))
        avg, _ = scipy.integrate.quad(lambda b: right_haar_density(p, b),
                                      0.0, math.pi)
        ok &= abs(avg / math.pi / haar_arithmetic_average(p) - 1.0) < 1e-10
    _report(13, "uniform-beta average of right-Haar priors equals the "
                "arithmetic average with a parameter-free constant", ok)
