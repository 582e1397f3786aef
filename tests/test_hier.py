"""Hierarchical multinomial prior: marginal likelihood, hyperpriors,
modes, MCMC, large-m limit, and the hypergeometric reduction."""

import functools
import math
import pickle
import sys
import time
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special as sp
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overallprior import hier
from overallprior.exceptions import (AccuracyError, BoundaryModeError,
                                     DomainError, PreconditionError)
from overallprior.hier import (CountTable, LimitProfile, _fisher_sum,
                               approx_posterior_curvature,
                               hypergeometric_overall_prior,
                               hypergeometric_pmf, likelihood_mode_a,
                               limit_density_psi, log_concavity_certificate,
                               marginal_log_likelihood, marginal_pmf,
                               mode_asymptotic, posterior_log_density_a,
                               posterior_mode_a, reference_prior_approx,
                               reference_prior_exact, sample_posterior)

# ---------------------------------------------------------------- tables


def test_count_table_basics():
    t = CountTable.from_dense([5, 3, 0, 2, 0])
    assert (t.m, t.n, t.r0) == (5, 10, 3)
    assert t.r_profile[:5] == (3, 3, 2, 1, 1)


def test_count_table_validation():
    with pytest.raises(DomainError):
        CountTable(m=1, counts={0: 3})
    with pytest.raises(DomainError):
        CountTable(m=5, counts={7: 1})
    with pytest.raises(DomainError):
        CountTable(m=5, counts={0: 0})


def _two_cell_table():
    # n = 2e6 in two cells: every derived piece of size n would be large.
    return CountTable(m=2, counts={0: 10**6, 1: 10**6})


def test_count_table_builds_nothing_of_size_n():
    tracemalloc.start()
    try:
        t = _two_cell_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not any(isinstance(v, np.ndarray) for v in vars(t).values())


@pytest.mark.parametrize("a", [1e-3, 0.5, 1e3])
def test_two_cell_table_likelihood_mpmath(a):
    # The log likelihood is about -15 here, a sum of terms up to log n! =
    # 2.7e7 that cancel: its error is set by their rounding, measured at
    # 2.8e-16 of log n! (3.6e-10, 4.9e-10 and 1.5e-11 relative).
    t = _two_cell_table()
    err = marginal_log_likelihood(t, a) - _mll_mpmath(t, a)
    assert float(abs(err)) < 1e-15 * math.lgamma(t.n + 1)


def test_approx_chain_builds_no_profile_or_slope_arrays():
    t = _two_cell_table()
    tracemalloc.start()
    try:
        sample_posterior(t, 200, seed=0, prior="approx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "_exceed" not in vars(t) and "_slope_jw" not in vars(t)


def test_mode_searches_share_the_cached_slope_arrays():
    t = _synthetic_table()
    assert "_slope_jw" not in vars(t)
    posterior_mode_a(t, prior="approx")
    j, w = vars(t)["_slope_jw"]
    likelihood_mode_a(t)
    assert all(a is b for a, b in zip(vars(t)["_slope_jw"], (j, w)))


def test_sparse_text_roundtrip():
    t = CountTable.from_sparse_text("1000 3\n0 2\n1 1\n")
    assert (t.m, t.n, t.r0) == (1000, 3, 2)
    assert t.counts == {0: 2, 1: 1}


def test_sparse_text_errors():
    with pytest.raises(DomainError):
        CountTable.from_sparse_text("")
    with pytest.raises(DomainError):
        CountTable.from_sparse_text("10 5\n0 junk\n")
    with pytest.raises(DomainError):
        CountTable.from_sparse_text("10 5\n0 2\n")  # header/sum mismatch


# --------------------------------------------------- marginal likelihood


def _mll_oracle(counts, m, a):
    """Dirichlet-multinomial log pmf via scipy gammaln, dense."""
    c = np.zeros(m)
    for i, v in counts.items():
        c[i] = v
    n = c.sum()
    return float(sp.gammaln(n + 1) - sp.gammaln(c + 1).sum()
                 + sp.gammaln(m * a) - sp.gammaln(n + m * a)
                 + (sp.gammaln(c + a) - sp.gammaln(a)).sum())


@pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 7.3])
def test_marginal_log_likelihood_oracle(a):
    t = CountTable(m=40, counts={0: 5, 3: 2, 17: 1})
    assert marginal_log_likelihood(t, a) == pytest.approx(
        _mll_oracle(t.counts, t.m, a), rel=1e-12, abs=1e-12)


def _dense_poisson_table():
    return CountTable.from_dense(np.random.default_rng(0).poisson(0.5, 2000))


@pytest.mark.parametrize("log_a", [10, 25, 30, 35, 40])
def test_marginal_log_likelihood_far_tail_mpmath(log_a):
    # Here m a exceeds n by 10^7 to 10^20, where lgamma(m a) and
    # lgamma(n + m a) are nearly equal and their difference cancels.
    t = _dense_poisson_table()
    a = math.exp(log_a)
    lg = mpmath.loggamma
    with mpmath.workdps(50):
        ma = mpmath.mpf(a)
        ref = lg(t.n + 1) + lg(t.m * ma) - lg(t.n + t.m * ma)
        for c in t.counts.values():
            ref += lg(c + ma) - lg(ma) - lg(c + 1)
        ref = float(ref)
    assert marginal_log_likelihood(t, a) == pytest.approx(ref, rel=1e-14)


def _sweep_tables():
    """Dense Poisson (n = 987 over 2000 cells), m = n = 60, a small
    three-cell table and a sparse m = 1000, n = 30 table."""
    return {
        "poisson": _dense_poisson_table(),
        "60x60": CountTable.from_dense(
            np.random.default_rng(7).multinomial(60, np.full(60, 1 / 60))),
        "40x8": CountTable(m=40, counts={0: 5, 3: 2, 17: 1}),
        "1000x30": CountTable.from_dense(np.random.default_rng(8).multinomial(
            30, np.random.default_rng(9).dirichlet(np.full(1000, 0.05)))),
    }


def _mll_mpmath(t, a):
    """Log marginal likelihood over the distinct counts, at 60 digits or,
    at large m a, 40 + 1.05 log10(m a): there lgamma(m a) and
    lgamma(n + m a), of order m a log(m a), cancel to about n log(m a)."""
    lg = mpmath.loggamma
    with mpmath.workdps(max(60, 40 + int(1.05 * math.log10(t.m * a)))):
        a = mpmath.mpf(a)
        ref = lg(t.n + 1) + lg(t.m * a) - lg(t.n + t.m * a)
        for c, k in Counter(t.counts.values()).items():
            ref += k * (lg(c + a) - lg(a) - lg(c + 1))
        return ref


@pytest.mark.parametrize("name", ["poisson", "60x60", "40x8", "1000x30",
                                  "500-3-1"])
def test_marginal_log_likelihood_mpmath_sweep(name):
    # log a over [-690, 460]: from _TINY_A = 1e-300 across the samplers'
    # window [1e-200, 1e200].  At m = 1e6, {0: 500, 1: 3, 2: 1} is a
    # difference of terms some 250 times its size, each a few ulp off
    # (9e-14 the most found on a finer grid).
    t = {**_sweep_tables(),
         "500-3-1": CountTable(m=10**6, counts={0: 500, 1: 3, 2: 1})}[name]
    rel = 1e-13 if name == "500-3-1" else 1e-14
    for log_a in np.linspace(-690.0, 460.0, 116):
        a = math.exp(log_a)
        ref = _mll_mpmath(t, a)
        assert float(abs((marginal_log_likelihood(t, a) - ref) / ref)) \
            < rel, (name, log_a)


@pytest.mark.parametrize("a", [1e-308, 1e-310, 5e-324])
def test_marginal_log_likelihood_subnormal_a(a):
    # J/a overflows a float here; the tiny-a form must not.  At m = 1e300
    # and 1e307, m a is not below 2^-53 (m a + 1 != 1), and the form
    # keeps L(m a, n - 1): dropping it was up to 3.2e-4 off at 1e-308.
    huge = {f"{m:.0e}-{name}": CountTable(m=m, counts=counts)
            for m in (10**300, 10**307)
            for name, counts in (("3-20-1", {0: 3, 1: 20, 2: 1}),
                                 ("500-3-1", {0: 500, 1: 3, 2: 1}))}
    for name, t in {**_sweep_tables(), **huge}.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marginal_log_likelihood(t, a)
            row = marginal_log_likelihood(t, np.array([a, 1.0]))[0]
        ref = _mll_mpmath(t, a)
        assert math.isfinite(got) and row == pytest.approx(got, rel=1e-13)
        assert float(abs((got - ref) / ref)) < 1e-14, name


def test_marginal_likelihood_sums_to_one_small_case():
    # All tables with n=3 over m=3 cells.
    total = 0.0
    a = 0.7
    for i in range(4):
        for j in range(4 - i):
            k = 3 - i - j
            dense = [i, j, k]
            if sum(dense) != 3:
                continue
            t = CountTable.from_dense(dense)
            total += math.exp(marginal_log_likelihood(t, a))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_single_cell_marginal_is_beta_binomial():
    m, n, a = 12, 20, 0.8
    p = marginal_pmf(a, m, n)
    assert p.shape == (n + 1,)
    for x in (0, 1, 7, 20):
        ref = float(scipy.stats.betabinom.pmf(x, n, a, (m - 1) * a))
        assert p[x] == pytest.approx(ref, rel=1e-10)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_pmf_rows_match_scalar_calls():
    m, n = 10, 50
    a = np.array([1e-6, 0.05, 0.7, 3.0, 250.0])
    rows = marginal_pmf(a, m, n)
    assert rows.shape == (a.size, n + 1)
    for row, v in zip(rows, a):
        np.testing.assert_array_equal(row, marginal_pmf(float(v), m, n))


def _pmf_mpmath(a, m, n):
    """The beta-binomial(a, (m-1)a) row in 50-digit mpmath from its
    rising factorials, independent of the ratio recurrence."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        total = mpmath.rf(m * a, n)
        return np.array([float(mpmath.binomial(n, x) * mpmath.rf(a, x)
                               * mpmath.rf((m - 1) * a, n - x) / total)
                         for x in range(n + 1)])


@pytest.mark.parametrize("m,n,a", [(2, 300, 189.0), (2000, 500, 0.3),
                                   (60, 60, 4520.0)])
def test_marginal_pmf_mpmath(m, n, a):
    # Measured: 5.1e-14, 3.8e-13 and 4.6e-14.  Relative error is only
    # asked of entries above the subnormal range.
    ref = _pmf_mpmath(a, m, n)
    normal = ref > np.finfo(float).tiny
    np.testing.assert_allclose(marginal_pmf(a, m, n)[normal], ref[normal],
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("a", [1e-320, 1e-310, 1e-300, 1e150])
@pytest.mark.parametrize("m,n", [(2, 300), (60, 60), (10**12, 30)])
def test_marginal_pmf_extreme_a(a, m, n):
    # RuntimeWarnings are errors in this suite.
    p = marginal_pmf(a, m, n)
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("m,n", [(60, 5), (60, 60), (2, 300), (10**6, 30)])
def test_marginal_pmf_binomial_limit_at_huge_a(m, n):
    # Around the a at which (m-1)a would overflow, the beta-binomial row
    # equals its a -> inf limit, the Binomial(n, 1/m) pmf, to rounding
    # (they differ by O(n/a)).
    edge = sys.float_info.max / (m - 1)
    a = [math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 1e308,
         sys.float_info.max]
    ref = scipy.stats.binom.pmf(np.arange(n + 1), n, 1.0 / m)
    normal = ref > np.finfo(float).tiny
    rows = marginal_pmf(np.array(a), m, n)
    for row, v in zip(rows, a):
        np.testing.assert_array_equal(row, marginal_pmf(v, m, n))
        np.testing.assert_allclose(row[normal], ref[normal], rtol=1e-12)


@given(st.floats(1e-8, 1e8), st.integers(2, 10**6), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_marginal_pmf_sums_to_one_with_mean_n_over_m(a, m, n):
    p = marginal_pmf(a, m, n)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert p @ np.arange(n + 1) == pytest.approx(n / m, rel=1e-12)


@pytest.mark.parametrize("a,m", [(0.0, 10), (-0.5, 10), (math.nan, 10),
                                 (np.array([0.5, 0.0]), 10),
                                 (np.array([-1.0, 2.0]), 10), (0.5, 1)])
def test_marginal_pmf_domain(a, m):
    with pytest.raises(DomainError):
        marginal_pmf(a, m, 20)


# ---------------------------------------------------------- exact prior


def _exact_prior_oracle(a, m, n):
    """Independent implementation with scipy vectorized gammaln."""
    x = np.arange(n + 1)
    logp = (sp.gammaln(n + 1) - sp.gammaln(x + 1) - sp.gammaln(n - x + 1)
            + sp.gammaln(x + a) + sp.gammaln(n - x + (m - 1) * a)
            + sp.gammaln(m * a) - sp.gammaln(a) - sp.gammaln((m - 1) * a)
            - sp.gammaln(n + m * a))
    p = np.exp(logp)
    q = np.cumsum(p[::-1])[::-1][1:]
    j = np.arange(n)
    s = np.sum(q / (a + j) ** 2 - m / (m * a + j) ** 2)
    return math.sqrt(max(s, 0.0))


@pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("mn", [(10, 5), (150, 10), (7, 30)])
def test_exact_prior_oracle(a, mn):
    m, n = mn
    assert reference_prior_exact(a, m, n) == pytest.approx(
        _exact_prior_oracle(a, m, n), rel=1e-9, abs=1e-12)


def test_exact_prior_small_a_limit():
    m, n = 10, 50
    cn = sum(1.0 / j for j in range(1, n))
    target = math.sqrt((m - 1) * cn / m)
    for a in (1e-7, 1e-8):
        assert reference_prior_exact(a, m, n) * math.sqrt(a) == \
            pytest.approx(target, rel=1e-3)


def test_exact_prior_tail_slope_pin():
    # Pinned resolution of the paper-internal O(a^{-3/2}) vs O(a^{-2})
    # discrepancy: the measured tail decays as a^{-2}.
    m, n = 10, 50
    lo, hi = 1e3, 1e4
    slope = ((math.log(reference_prior_exact(hi, m, n))
              - math.log(reference_prior_exact(lo, m, n)))
             / (math.log(hi) - math.log(lo)))
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_exact_prior_n1_bracket_vanishes():
    # With one draw the cell is uniform whatever a is: no information.
    for a in (1e-9, 1e-5, 0.5, 1e4):
        assert reference_prior_exact(a, 10, 1) == 0.0


def test_exact_prior_domain():
    with pytest.raises(DomainError):
        reference_prior_exact(0.0, 10, 5)
    with pytest.raises(DomainError):
        reference_prior_exact(1.0, 1, 5)


_ARRAY_A = np.concatenate(([5e-324, 1e-310, 1e-300, 3e-300],
                           np.exp(np.linspace(-40.0, 12.0, 53))))


@pytest.mark.parametrize("name", ["poisson", "60x60", "40x8", "1000x30"])
def test_likelihood_array_matches_scalar_calls(name):
    t = _sweep_tables()[name]
    assert marginal_log_likelihood(t, _ARRAY_A).tolist() == [
        marginal_log_likelihood(t, float(a)) for a in _ARRAY_A]
    with pytest.raises(DomainError):
        marginal_log_likelihood(t, np.array([1.0, 0.0]))


@pytest.mark.parametrize("name", ["poisson", "60x60", "40x8", "1000x30"])
def test_approx_log_density_array_matches_scalar_calls(name):
    # An array maps the float path: np.log would round the prior's log 1
    # ulp off math.log at a = 0.011646386073420592 for m = n = 60.
    t = _sweep_tables()[name]
    a = np.append(_ARRAY_A, 0.011646386073420592)
    for f in (lambda v: hier._log_prior(v, t.m, t.n, "approx"),
              lambda v: posterior_log_density_a(v, t, "approx")):
        assert f(a).tolist() == [f(float(v)) for v in a]


@pytest.mark.parametrize("mn", [(60, 60), (1000, 30), (10, 5), (7, 30)])
def test_priors_array_match_scalar_calls(mn):
    m, n = mn
    for prior in (reference_prior_exact, reference_prior_approx):
        got = prior(_ARRAY_A, m, n)
        assert got.shape == _ARRAY_A.shape
        np.testing.assert_allclose(
            got, [prior(float(a), m, n) for a in _ARRAY_A], rtol=1e-13)
        with pytest.raises(DomainError):
            prior(np.array([1.0, -1.0]), m, n)


def _quad(f, lo, hi):
    return scipy.integrate.quad(f, lo, hi, epsrel=1e-10, epsabs=0.0,
                                limit=200)[0]


def normalizer(m, n, upper):
    z = _quad(lambda a: reference_prior_exact(a, m, n), 0.0, upper)
    return z + reference_prior_exact(upper, m, n) * upper


@pytest.mark.parametrize("mn", [(10, 5), (150, 10)])
def test_exact_prior_proper_and_stable(mn):
    m, n = mn
    z1 = normalizer(m, n, 1e3)
    z2 = normalizer(m, n, 2e3)
    assert math.isfinite(z1) and z1 > 0
    assert abs(z2 - z1) / z1 < 1e-3


# ---------------------------------------------------------- approx prior


def test_approx_prior_integrates_to_one():
    for m, n in ((10, 5), (500, 10)):
        z = _quad(lambda a: reference_prior_approx(a, m, n), 0.0, math.inf)
        assert z == pytest.approx(1.0, abs=1e-8)


def test_approx_prior_is_beta_half_one_in_phi():
    # phi = a/(a + n/m) ~ Be(1/2, 1): P(phi <= p) = sqrt(p).
    m, n = 50, 10
    c = n / m
    for p in (0.1, 0.5, 0.9):
        a_cut = p * c / (1 - p)
        mass = _quad(lambda a: reference_prior_approx(a, m, n), 0.0, a_cut)
        assert mass == pytest.approx(math.sqrt(p), abs=1e-7)


def test_approx_prior_median():
    m, n = 20, 10
    median = (n / m) / 3.0  # phi median 1/4 => a = (n/m)/3
    mass = _quad(lambda a: reference_prior_approx(a, m, n), 0.0, median)
    assert mass == pytest.approx(0.5, abs=1e-8)


def _approx_log_density_mpmath(t, a):
    """log p(x | a) plus the log of the approximate prior at 50 digits,
    log p(x | a) summed as log coef + sum_j R_j log(a + j)
    - sum_i log(m a + i)."""
    log = mpmath.log
    with mpmath.workdps(50):
        a, c = mpmath.mpf(a), mpmath.mpf(t.n) / t.m
        ref = mpmath.loggamma(t.n + 1) - mpmath.fsum(
            mpmath.loggamma(k + 1) for k in t.counts.values())
        ref += mpmath.fsum(log(a + j) for k in t.counts.values()
                           for j in range(k))
        ref -= mpmath.fsum(log(t.m * a + i) for i in range(t.n))
        return float(ref + log(c / 2) - log(a) / 2 - 1.5 * log(a + c))


@pytest.mark.parametrize("a", [1e100, 1e154, 1.5e154, 1e160, 1e170, 1e200,
                               1e250, 1e300, 1.7e308])
def test_approx_prior_far_tail(a):
    # The prior is formed as (n/m)/(2(a + n/m)) / (sqrt(a) sqrt(a + n/m))
    # at every a, so past a of about 1.3e154, where sqrt(a) (a + n/m)^1.5
    # would overflow, it is still a float, 0.0 only where it underflows,
    # with no OverflowError or RuntimeWarning, for a float and an array.
    # The log of the prior is log(n/(2m)) - log(a)/2 - 1.5 log(a + n/m)
    # at every a, also where the prior is 0.0 (a >= 1e170): the log
    # density is within 1e-13 of 50-digit mpmath at every a, the same
    # float for a float, an array and the samplers' bound kernel.
    for m, n in ((2, 10 ** 6), (60, 60)):
        c = n / m
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            want = float(c / 2 / (mpmath.sqrt(am) * (am + c) ** 1.5))
        got = reference_prior_approx(a, m, n)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-323)
        assert reference_prior_approx(np.array([a]), m, n)[0] == got
        assert got == 0.5 * c / (a + c) / (math.sqrt(a) * math.sqrt(a + c))
    t = _synthetic_table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = posterior_log_density_a(a, t, "approx")
        assert posterior_log_density_a(np.array([a]), t, "approx")[0] == got
        bound = (hier._likelihood_kernel(t)(a)
                 + hier._approx_log_prior(t.m, t.n)(a))
    assert bound == got
    assert got == pytest.approx(_approx_log_density_mpmath(t, a), rel=1e-13,
                                abs=0.0)


def test_exact_vs_approx_prior_pin():
    # The paper claims the closed form approximates the exact prior
    # well for large sparse tables; no tolerance is given, so the
    # sup-norm over the plotting range a in [0.01, 10] is pinned.
    m, n = 500, 10
    z = normalizer(m, n, 1e3)
    grid = np.exp(np.linspace(math.log(0.01), math.log(10), 120))
    sup = max(abs(reference_prior_exact(a, m, n) / z
                  - reference_prior_approx(a, m, n)) for a in grid)
    assert sup < 4.5  # pinned from first run (observed ~3.7)


# ------------------------------------------------------------ modes


def test_posterior_mode_boundary_hazard():
    t = CountTable(m=100, counts={0: 4})
    with pytest.raises(BoundaryModeError):
        posterior_mode_a(t)


def test_likelihood_mode_near_sqrt2_over_m():
    for m in (100, 1000):
        t = CountTable(m=m, counts={0: 2, 1: 1})
        a_hat = likelihood_mode_a(t)
        assert 1.35 <= m * a_hat <= 1.48


def test_likelihood_mode_missing_when_all_cells_occupied():
    t = CountTable.from_dense([1, 1, 1, 1])
    with pytest.raises(BoundaryModeError):
        likelihood_mode_a(t)


def test_modes_scale_as_one_over_m_at_huge_m():
    # The mode in v = m a is of order 1, so at m = 1e10 the mode in a is
    # below 1e-9; the search window must reach it.
    def scaled_modes(m):
        t = CountTable(m=m, counts={0: 2, 1: 1, 2: 1})
        return np.array([posterior_mode_a(t, prior="approx"),
                         posterior_mode_a(t, prior="exact"),
                         likelihood_mode_a(t)]) * m

    ref = scaled_modes(10**8)
    for m in (10**10, 10**12):
        np.testing.assert_allclose(scaled_modes(m), ref, rtol=1e-5)


@pytest.mark.parametrize("cells", [2, 5])
def test_likelihood_rising_over_the_window_has_no_mode(cells):
    # Singletons among 1e12 cells: the likelihood's slope in log a is
    # positive over the whole window, while its log is flat to rounding
    # near the top.  A 240-point scan of the log found an argmax there
    # and returned a = 377.925 (2 cells) and 990.412 (5 cells).
    t = CountTable(m=10**12, counts={i: 1 for i in range(cells)})
    with pytest.raises(BoundaryModeError):
        likelihood_mode_a(t)


@pytest.mark.parametrize("m", [10**302, 10**304, 10**307],
                         ids=["1e302", "1e304", "1e307"])
def test_modes_scale_as_one_over_m_past_1e300(m):
    # m a at both modes keeps its value at m = 1e298 (below).  The window
    # reaches down to 1e-4/m, below 1e-300, where a scan of the log
    # density read the likelihood's tiny-a form past its domain: m a of
    # the approximate-prior mode was 0.778 at 1e302 and 168244.7 at 1e307.
    t = CountTable(m=m, counts={0: 3, 1: 20, 2: 1})
    assert posterior_mode_a(t, prior="approx") * m == pytest.approx(
        0.46352174531874607, rel=1e-9)
    assert likelihood_mode_a(t) * m == pytest.approx(0.6657880510110482,
                                                     rel=1e-9)


def _slopes_on_window(t, prior, points):
    """The slope in t = log a of the log likelihood, plus that of the log
    of hyperprior ``prior`` unless it is None, at ``points`` points
    uniform in t over the mode search window, and a bound on its
    rounding.  The likelihood's slope is taken from the exceedance
    profile R, as sum_{j<n} [(j/m)/(a + j/m) - R_j j/(a + j)]; the
    exact prior's is the table's ``_Shape.slope_at``."""
    shape = hier._Shape(t.m, t.n)
    u = np.linspace(math.log(shape.lo), math.log(shape.hi), points)
    a, m = np.exp(u), float(t.m)
    j = np.arange(t.n, dtype=float)
    r, jm = np.array(t.r_profile, dtype=float), j / m
    slope, size = np.empty(points), np.empty(points)
    for k in range(0, points, 100):  # 100 x n temporaries
        col = a[k:k + 100, None]
        up, down = jm / (col + jm), r * j / (col + j)
        slope[k:k + 100] = np.sum(up - down, axis=1)
        size[k:k + 100] = np.sum(up + down, axis=1)
    if prior == "approx":
        slope -= 0.5 + 1.5 * a / (a + t.n / m)
    elif prior == "exact":
        slope += [shape.slope_at(v) for v in u.tolist()]
    return u, slope, 1e-13 * (size + 2.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(math.log(2.0), math.log(1e12)).map(
           lambda v: max(2, round(math.exp(v)))),
       st.lists(st.integers(1, 300), min_size=2, max_size=8),
       st.sampled_from(["exact", "approx", None]))
@example(10**298, [3, 20, 1], "approx")
@example(10**298, [3, 20, 1], None)
@example(10**307, [3, 20, 1], "approx")
@example(10**307, [1, 1, 1, 1, 1], None)
def test_slope_changes_sign_at_most_once(m, counts, prior):
    # The premise of the mode search: the likelihood is unimodal in a
    # (Levin and Reeds, Ann. Statist. 5:79, 1977), and so is the density
    # under each prior on these tables, so the slope falls through zero
    # at most once over the window and Brent's method on the whole
    # window finds the mode.  Points where the slope is within rounding
    # of zero, as far out in a flat tail, carry no sign.
    t = CountTable(m=m, counts=dict(enumerate(counts[:m])))
    u, slope, rounding = _slopes_on_window(t, prior, 2000)
    signs = np.sign(slope[np.abs(slope) > rounding])
    assert not np.any(np.diff(signs) > 0)
    mode = hier._log_mode(t, prior)
    shape = hier._shape(t.m, t.n)
    if shape.lo < mode < shape.hi:
        if prior is None:
            density = functools.partial(marginal_log_likelihood, t)
        else:
            density = functools.partial(posterior_log_density_a, x=t,
                                        prior=prior)
        assert density(mode) >= np.max(density(np.exp(u))) - 1e-9


def test_posterior_mode_matches_grid_argmax():
    t = CountTable(m=50, counts={0: 3, 1: 2, 2: 1, 3: 1})
    for prior in ("exact", "approx"):
        mode = posterior_mode_a(t, prior=prior)
        grid = np.exp(np.linspace(math.log(1e-5), math.log(50), 3000))
        vals = [posterior_log_density_a(a, t, prior) for a in grid]
        assert mode == pytest.approx(grid[int(np.argmax(vals))], rel=0.01)


def _stencil_root(log_density, lo, hi, h=1e-3):
    """The zero on [lo, hi] of the slope of ``log_density`` in t = log a,
    by scipy's brentq.  The slope is the five-point stencil of step h
    in t, with error of order h^4 and eps |log_density| / h: within
    3e-11 of the mpmath modes on the tables of these tests."""
    def slope(t):
        f = [log_density(math.exp(t + k * h)) for k in (-2, -1, 1, 2)]
        return (8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h)
    return math.exp(scipy.optimize.brentq(slope, lo, hi, xtol=1e-15,
                                          rtol=1e-15))


def _scalar_scan_mode(log_density):
    """The mode search with its 240-point scan made one scalar call at a
    time, as a reference for the array scan, and refined on the public
    density by ``_stencil_root``."""
    grid = np.linspace(math.log(1e-9), math.log(1e4), 240)
    k = int(np.argmax([log_density(math.exp(t)) for t in grid]))
    return _stencil_root(log_density, grid[max(k - 1, 0)],
                         grid[min(k + 1, 239)])


def test_modes_match_scalar_scan():
    t = _synthetic_table()
    for prior in ("exact", "approx"):
        ref = _scalar_scan_mode(
            lambda a: posterior_log_density_a(a, t, prior))
        assert posterior_mode_a(t, prior=prior) == pytest.approx(ref,
                                                                 rel=1e-9)
    ref = _scalar_scan_mode(functools.partial(marginal_log_likelihood, t))
    assert likelihood_mode_a(t) == pytest.approx(ref, rel=1e-9)


# --------------------------------------------------------- log-concavity


def test_curvature_matches_finite_differences():
    t = CountTable.from_dense([5, 3, 0, 2, 0, 0, 0, 0, 0, 0])
    for a in (0.05, 0.3, 1.0, 4.0):
        h = 2e-3 * a
        fd = (posterior_log_density_a(a + h, t, "approx")
              - 2 * posterior_log_density_a(a, t, "approx")
              + posterior_log_density_a(a - h, t, "approx")) / h ** 2
        closed = approx_posterior_curvature(a, t)
        assert closed == pytest.approx(fd, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("a", [1e-300, 1e-150, 1e150, 1e300])
def test_curvature_mpmath_at_extreme_a(a):
    # The closed form against 50-digit mpmath: -inf where the true value
    # is below -max float (a = 1e-300), 0.0 where it underflows
    # (a = 1e300), and no ZeroDivisionError, OverflowError or numpy
    # warning on the way.
    for t in (_synthetic_table(), CountTable.from_dense([5, 3, 2, 0, 0, 0])):
        m, n, exceed = t.m, t.n, t.r_profile
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            want = (sum(m * m / (m * am + j) ** 2 - exceed[j] / (am + j) ** 2
                        for j in range(n))
                    + 1 / (2 * am ** 2) + mpmath.mpf(3) / 2
                    / (am + mpmath.mpf(n) / m) ** 2)
        got = approx_posterior_curvature(a, t)
        if abs(want) > sys.float_info.max:
            assert got == math.copysign(math.inf, want)
        elif abs(want) < sys.float_info.min:
            assert abs(got) < sys.float_info.min
        else:
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_certificate_requires_three_cells():
    t = CountTable(m=10, counts={0: 2, 1: 1})
    with pytest.raises(PreconditionError):
        log_concavity_certificate(t, [0.5])


def test_certificate_detects_convex_tail():
    # The posterior under the approximate prior has a power-law tail,
    # which is log-convex; the certificate reports this honestly.
    t = CountTable.from_dense([5, 3, 2, 0, 0, 0, 0, 0, 0, 0])
    assert approx_posterior_curvature(1000.0, t) > 0.0
    assert log_concavity_certificate(t, [1e-4]) is True
    assert log_concavity_certificate(t, [1e-4, 1000.0]) is False


# ------------------------------------------------------------- sampling


def _synthetic_table(m=50, n=20, seed=42):
    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(np.full(m, 0.3))
    counts = rng.multinomial(n, theta)
    return CountTable.from_dense(counts)


def _grid_cdf(t, prior, lo=1e-6, hi=1e3, k=6000):
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), k))
    logd = np.array([posterior_log_density_a(a, t, prior) for a in grid])
    d = np.exp(logd - logd.max())
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * 0.5
                                           * (d[1:] + d[:-1]))))
    return grid, cdf / cdf[-1]


def _ks_against_grid(samples, grid, cdf):
    s = np.sort(samples)
    model = np.interp(s, grid, cdf)
    emp_hi = np.arange(1, s.size + 1) / s.size
    emp_lo = np.arange(0, s.size) / s.size
    return max(np.max(np.abs(emp_hi - model)),
               np.max(np.abs(emp_lo - model)))


@pytest.mark.parametrize("prior,method", [("exact", "mh"),
                                          ("approx", "slice")])
def test_chain_matches_grid_posterior(prior, method):
    t = _synthetic_table()
    chain = sample_posterior(t, 30000, seed=9, prior=prior, method=method)
    grid, cdf = _grid_cdf(t, prior)
    assert _ks_against_grid(chain.a_samples, grid, cdf) < 0.05


def test_chain_reproducible():
    t = _synthetic_table()
    c1 = sample_posterior(t, 500, seed=7)
    c2 = sample_posterior(t, 500, seed=7)
    assert np.array_equal(c1.a_samples, c2.a_samples)


def test_mh_acceptance_band():
    t = _synthetic_table()
    chain = sample_posterior(t, 5000, seed=3)
    assert 0.2 <= chain.acceptance_rate <= 0.6


def test_theta_draws_rao_blackwell():
    t = _synthetic_table(m=10, n=20, seed=1)
    chain = sample_posterior(t, 8000, seed=2, thetas=True)
    assert np.allclose(chain.theta_samples.sum(axis=1), 1.0, atol=1e-12)
    dense = np.zeros(t.m)
    for i, c in t.counts.items():
        dense[i] = c
    # E[theta_i | a, x] = (x_i + a)/(n + m a), averaged over the chain.
    rb = np.mean([(dense + a) / (t.n + t.m * a)
                  for a in chain.a_samples], axis=0)
    assert np.max(np.abs(chain.theta_samples.mean(axis=0) - rb)) < 0.01


# Recorded values: how the prior table is read or how theta is drawn
# must not change the chain for a given seed.  The MH values were
# recorded again when MH moved to block-drawn variates.
_PINNED_CHAINS = {
    # (prior, method): (a[0], a[99], a[-1], sum(a), acceptance rate)
    ("exact", "mh"): (0.36109242647598344, 0.12213093196843938,
                      0.41631104220400467, 78.75475802230245, 0.365),
    ("exact", "slice"): (0.11005940018244767, 0.320763293096854,
                         2.9963588519938247, 85.88366361225602, 1.0),
    ("approx", "mh"): (0.34814165773040945, 0.1701568772730317,
                       0.8589671627986674, 77.5898650409917, 0.36),
    ("approx", "slice"): (0.4364293631850667, 0.21569259525528214,
                          0.3259610185402397, 88.78881506634477, 1.0),
}


@pytest.mark.parametrize("prior,method", sorted(_PINNED_CHAINS))
def test_chain_pinned(prior, method):
    chain = sample_posterior(_synthetic_table(), 200, seed=11, prior=prior,
                             method=method, warmup=200)
    a = chain.a_samples
    np.testing.assert_allclose(
        [a[0], a[99], a[-1], a.sum(), chain.acceptance_rate],
        _PINNED_CHAINS[prior, method], rtol=1e-12)


# Recorded values for MH chains whose warm-up is not a whole number of
# 50-draw adaptation blocks, or empty: the acceptances of an unfinished
# block must not reach the acceptance rate of the kept draws.
_PINNED_WARMUP_CHAINS = {
    # (prior, warmup): (a[0], a[99], a[-1], sum(a), acceptance rate)
    ("approx", 0): (0.41391362399374165, 0.28218937942801714,
                    0.43217160063184185, 80.80291049759225, 0.575),
    ("approx", 75): (0.8860827258645458, 0.7308301040258873,
                     0.3421205473066073, 80.89416238230655, 0.54),
    ("exact", 0): (0.41391362399374165, 0.2857303217484188,
                   0.3872635804306716, 80.01482960216428, 0.57),
    ("exact", 75): (0.59937434159179, 0.7533354343827124,
                    0.34621360599721906, 85.34583101450531, 0.535),
}


@pytest.mark.parametrize("prior,warmup", sorted(_PINNED_WARMUP_CHAINS))
def test_mh_chain_pinned_at_partial_warmup(prior, warmup):
    chain = sample_posterior(_synthetic_table(), 200, seed=11, prior=prior,
                             method="mh", warmup=warmup)
    a = chain.a_samples
    np.testing.assert_allclose(
        [a[0], a[99], a[-1], a.sum(), chain.acceptance_rate],
        _PINNED_WARMUP_CHAINS[prior, warmup], rtol=1e-12)


def test_theta_draws_pinned():
    chain = sample_posterior(_synthetic_table(), 200, seed=11, warmup=200,
                             thetas=True)
    th = chain.theta_samples
    assert th.shape == (200, 50)
    np.testing.assert_allclose(
        [th[0, 0], th[-1, 1], th[:, :5].sum(), (th ** 2).sum(),
         chain.a_samples.sum()],
        [0.00011770321764859436, 0.0002562700781001468, 19.55347699710378,
         15.073986784295904, 78.75475802230245], rtol=1e-12)


# The theta draws follow the chain in the random stream, so they pin
# where the generator is left after the slice sampler: after its last
# block of uniforms.  sum(a) is the slice chain's own pin.
_PINNED_SLICE_THETAS = {
    # prior: (th[0, 0], th[-1, 1], th[:, :5].sum(), (th**2).sum(), sum(a))
    "approx": (0.00367364079699515, 0.0036435676690214727,
               21.533266327009187, 14.930224267455458, 88.78881506634477),
    "exact": (4.019576745622066e-05, 0.006865662268628649,
              19.73673448441874, 15.453333598635563, 85.88366361225602),
}


@pytest.mark.parametrize("prior", sorted(_PINNED_SLICE_THETAS))
def test_slice_theta_draws_pinned(prior):
    chain = sample_posterior(_synthetic_table(), 200, seed=11, warmup=200,
                             method="slice", prior=prior, thetas=True)
    th = chain.theta_samples
    assert [th[0, 0], th[-1, 1], th[:, :5].sum(), (th ** 2).sum(),
            chain.a_samples.sum()] == list(_PINNED_SLICE_THETAS[prior])


class _ThetaWatch:
    """A generator that records its state when the theta draws begin."""

    def __init__(self, rng):
        self.rng = rng
        self.state = None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def _first(self, draw, *args, **kwargs):
        if self.state is None:
            self.state = self.rng.bit_generator.state
        return draw(*args, **kwargs)

    def gamma(self, *args, **kwargs):
        return self._first(self.rng.gamma, *args, **kwargs)

    def standard_gamma(self, *args, **kwargs):
        return self._first(self.rng.standard_gamma, *args, **kwargs)


@pytest.mark.parametrize("method", ["mh", "slice"])
def test_theta_blocks_match_one_gamma_call(method, monkeypatch):
    # At m = 1000 the theta rows are drawn 16 at a time, so 40 draws
    # cross two block edges.  They must equal one rng.gamma call over
    # all rows from the same state, which they must leave behind too.
    t = _synthetic_table(m=1000, n=30, seed=4)
    assert hier._CACHE_CHUNK // t.m < 40 // 2
    real = np.random.default_rng
    watches = []

    def watched(seed):
        watches.append(_ThetaWatch(real(seed)))
        return watches[-1]
    monkeypatch.setattr(hier.np.random, "default_rng", watched)
    chain = sample_posterior(t, 40, seed=6, prior="approx", method=method,
                             warmup=100, thetas=True)
    rng = real()
    rng.bit_generator.state = watches[0].state
    dense = np.zeros(t.m)
    for i, c in t.counts.items():
        dense[i] = c
    want = rng.gamma(dense + chain.a_samples[:, None])
    want /= want.sum(axis=1, keepdims=True)
    assert np.array_equal(chain.theta_samples, want)
    assert watches[0].rng.bit_generator.state == rng.bit_generator.state


def test_theta_draws_peak_memory():
    # The rows go straight into the result: working memory is one block,
    # not a second array as large as the output.
    t = _synthetic_table(m=1000, n=30, seed=4)
    length = 3000
    marginal_log_likelihood(t, 1.0)  # the table's cached terms
    tracemalloc.start()
    try:
        chain = sample_posterior(t, length, seed=6, prior="approx",
                                 thetas=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chain.theta_samples.nbytes + (1 << 20)


def test_modes_pinned():
    # Recorded with the modes found as zeros of their closed-form slopes
    # over the whole window; 4.7e-16 and 3.3e-16 relative off the
    # 40-digit mpmath roots.
    t = _synthetic_table()
    assert posterior_mode_a(t, prior="approx") == 0.23787090099492678
    assert likelihood_mode_a(t) == 0.338827394130461


@pytest.mark.parametrize("method", ["mh", "slice"])
def test_chain_counts_target_evaluations(method, monkeypatch):
    seen = []
    bound = hier._log_target

    def recording(x, log_prior):
        target, evals = bound(x, log_prior)

        def log_target(t):
            seen.append(t)
            return target(t)
        return log_target, evals

    monkeypatch.setattr(hier, "_log_target", recording)
    chain = sample_posterior(_synthetic_table(), 100, seed=5, prior="approx",
                             method=method, warmup=50)
    assert chain.target_evals == len(seen)
    if method == "mh":  # the start, then one proposal per step
        assert len(seen) == 151
    else:  # at least the two step-out ends and one proposal per step
        assert len(seen) >= 451


def test_samplers_reject_bad_seeds():
    t = _synthetic_table()
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(DomainError, match="seed"):
            sample_posterior(t, 10, seed=seed)
    assert sample_posterior(t, 10, seed=np.int64(3)).seed == 3


def test_exact_prior_sampler_needs_two_draws():
    # The exact hyperprior is identically zero when n = 1.
    with pytest.raises(PreconditionError):
        sample_posterior(CountTable(m=10, counts={0: 1}), 10, seed=0)


def test_sampler_argument_validation():
    t = _synthetic_table()
    with pytest.raises(DomainError):
        sample_posterior(t, 0, seed=1)
    with pytest.raises(DomainError):
        sample_posterior(t, 10, seed=1, method="nuts")
    with pytest.raises(DomainError):
        sample_posterior(t, 10, seed=1, prior="flat")
    for method in ("mh", "slice"):
        with pytest.raises(DomainError):
            sample_posterior(t, 10, seed=1, method=method, warmup=-1)


@pytest.mark.parametrize("method", ["mh", "slice"])
def test_samplers_refuse_m_above_1e176(method):
    # The samplers keep a >= 1e-200, and the posterior sits at m a of
    # order 1: at m = 1e202 their median m a was 103 (mode 0.46), and past
    # m = 1e250 MH kept its start and the slice chain wandered below
    # a = 1e-293.  Up to 1e176 the mass they miss is about 1e-12.
    counts = {0: 3, 1: 20, 2: 1}
    for m in (10**177, 10**250, 10**300):
        with pytest.raises(PreconditionError, match="1e176"):
            sample_posterior(CountTable(m=m, counts=counts), 10, seed=0,
                             prior="approx", method=method)
    t = CountTable(m=10**176, counts=counts)
    chain = sample_posterior(t, 200, seed=0, prior="approx", method=method)
    assert 1e-3 < np.median(t.m * chain.a_samples) < 1e3


def test_slice_sampler_steps_out_into_far_tail():
    # Under the approximate prior the slice sampler steps out to m a of
    # about 7e74 on this table; the target must stay finite there.
    t = _dense_poisson_table()
    chain = sample_posterior(t, 50, seed=0, prior="approx", method="slice",
                             warmup=50)
    assert chain.a_samples.shape == (50,)
    assert np.all(np.isfinite(chain.a_samples))


def test_fisher_sum_rows_match_single_values():
    m, n = 60, 60
    a = np.exp(np.linspace(math.log(1e-9), math.log(1e4), 37))
    rows = _fisher_sum(a, m, n)
    assert rows.shape == a.shape
    single = [_fisher_sum(np.array([v]), m, n)[0] for v in a]
    np.testing.assert_allclose(rows, single, rtol=1e-12)


def _fisher_sum_mpmath(a, m, n):
    """The Fisher sum term by term from the single-cell pmf in mpmath,
    the pmf by its ratio recurrence and the tails summed from the top,
    with enough digits to absorb both cancellations: of Q_0 - 1/m at
    small a, and of the leading 1/a^2 terms at large a."""
    digits = abs(math.log10(a)) * (2 if a > 1 else 1) + math.log10(m)
    with mpmath.workdps(40 + int(digits)):
        a = mpmath.mpf(a)
        p = [mpmath.rf((m - 1) * a, n) / mpmath.rf(m * a, n)]
        for x in range(n):
            p.append(p[-1] * (n - x) * (a + x)
                     / ((x + 1) * ((m - 1) * a + n - x - 1)))
        total, out = mpmath.mpf(0), mpmath.mpf(0)
        for j in range(n - 1, -1, -1):
            total += p[j + 1]  # Q_j
            out += total / (a + j) ** 2 - m / (m * a + j) ** 2
        return out


@pytest.mark.parametrize("mn", [(60, 60), (2000, 3), (10, 2), (2, 300),
                                (1000, 30)])
def test_fisher_sum_small_a_mpmath(mn):
    m, n = mn
    a = np.array([1e-30, 1e-12, 1e-9, 1e-5, 1e-2])
    np.testing.assert_allclose(
        _fisher_sum(a, m, n), [float(_fisher_sum_mpmath(v, m, n)) for v in a],
        rtol=2e-15)


@pytest.mark.parametrize("a", [1e-200, 1e-300, 2e-308, 1e-310, 1e-320])
def test_exact_prior_extreme_small_a_mpmath(a):
    # Below about 2e-308 the sum itself overflows a float; its root does not.
    ref = float(mpmath.sqrt(_fisher_sum_mpmath(a, 60, 60)))
    assert reference_prior_exact(a, 60, 60) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("a", [1e-300, 3e-305, 1e-320, 5e-324])
def test_tiny_a_closed_forms_at_huge_m(a):
    # At a <= 1e-300 the likelihood is log(n/m) - sum log(counts)
    # + (r0 - 1) log a and the prior root sqrt((m-1)/m H_{n-1} / a): both
    # drop a against j/m >= 1/m, which holds while m a < 2^-53, so also at
    # m = 1e12.
    t = CountTable(m=10**12, counts={i: 1 + i % 4 for i in range(30)})
    got = marginal_log_likelihood(t, a)
    ref = _mll_mpmath(t, a)
    assert float(abs((got - ref) / ref)) < 1e-14
    assert marginal_log_likelihood(t, np.array([a]))[0] == pytest.approx(
        got, rel=1e-15)
    ref = float(mpmath.sqrt(_fisher_sum_mpmath(a, t.m, t.n)))
    assert reference_prior_exact(a, t.m, t.n) == pytest.approx(ref,
                                                              rel=1e-15)


# (m, n, a) at a <= 1e-300, where the prior takes its tiny-a form, with
# m a up to 1e7: at m = 1e300 and 1e307 with a = 1e-300, dropping m a
# against i was 31% to 1.2e6 times off.
_TINY_A_POINTS = [(m, 24, a) for m in (60, 10**6, 10**290, 10**300, 10**307)
                  for a in (1e-300, 5e-324)] + [
    (10**300, 2, 1e-300), (10**307, 60, 1e-300), (10**307, 60, 5e-324),
    (10**290, 2, 5e-324)]


@pytest.mark.parametrize("m,n,a", _TINY_A_POINTS, ids=[
    f"m{float(m):.0e}-n{n}-a{a:.0e}" for m, n, a in _TINY_A_POINTS])
def test_exact_prior_tiny_a_keeps_m_a(m, n, a):
    # The reference takes the j = 0 term in closed form, (m-1)/m (1 -
    # prod_{i<n} (1 - a/(ma+i))) / a^2 by expm1 and log1p, so 50 digits
    # suffice where Q_0 - 1/m would cancel to about a.
    with mpmath.workdps(50):
        mp_a = mpmath.mpf(a)
        b = (m - 1) * mp_a
        p = [mpmath.binomial(n, x) * mpmath.beta(x + mp_a, n - x + b)
             / mpmath.beta(mp_a, b) for x in range(n + 1)]
        log_p0_ratio = mpmath.fsum(mpmath.log1p(-mp_a / (m * mp_a + i))
                                   for i in range(1, n))
        s = -(m - 1) * mpmath.expm1(log_p0_ratio) / m / mp_a ** 2
        s += mpmath.fsum(mpmath.fsum(p[j + 1:]) / (mp_a + j) ** 2
                         - m / (m * mp_a + j) ** 2 for j in range(1, n))
        ref = mpmath.sqrt(s)
    got = reference_prior_exact(a, m, n)
    assert float(abs((got - ref) / ref)) < 1e-15
    assert reference_prior_exact(np.array([a, 1.0]), m, n)[0] == got


# (m, n): relative bound on the Fisher sum for a in [1e-300, 1e8].  Up
# to m = 2000 the pmf row sets the error, and it grows with n (measured
# 2.3e-14, 7.7e-15, 4.7e-15, 5.0e-13 and 7.8e-13, in order).  At
# m >= 1e8 it peaks where the two forms meet, a sqrt(m) = n, as both
# cancel there (measured 9.7e-12, 1.3e-10, 1.6e-9 and 3.1e-10, in order).
_FISHER_SWEEP = {(60, 60): 5e-14, (1000, 30): 5e-14, (10, 2): 5e-14,
                 (2, 300): 2e-12, (20, 1000): 3e-12, (10**8, 5): 1e-10,
                 (10**10, 2): 1e-9, (10**12, 2): 1e-8, (10**12, 30): 1e-8}


def _mn_id(mn):
    return "x".join(f"{v:.0e}" if v >= 10**6 else str(v) for v in mn)


@pytest.mark.parametrize("mn", sorted(_FISHER_SWEEP), ids=_mn_id)
def test_fisher_sum_mpmath_sweep(mn):
    m, n = mn
    # 40 points over the range, and 13 around either switch of the forms
    near = np.exp(np.linspace(-3.0, 3.0, 13))
    a = np.sort(np.concatenate((
        np.exp(np.linspace(math.log(1e-300), math.log(1e8), 40)),
        n / math.sqrt(m) * near, max(1.0, n / m) * near)))
    ref = np.array([float(_fisher_sum_mpmath(v, m, n)) for v in a])
    np.testing.assert_allclose(_fisher_sum(a, m, n), ref,
                               rtol=_FISHER_SWEEP[mn], atol=0.0)


@pytest.mark.parametrize("mn", [(10**8, 2), (10**10, 2), (10**12, 2),
                                (60, 60), (1000, 30), (2, 300)], ids=_mn_id)
def test_fisher_sum_positive_at_large_a(mn):
    # Term by term the sum cancels to zero or below from a of about 60
    # at m = 1e12; in moments it stays positive.
    a = np.exp(np.linspace(math.log(10.0), math.log(1e9), 4000))
    assert (_fisher_sum(a, *mn) > 0.0).all()


def test_exact_prior_no_overflow_at_sampler_window():
    # The samplers reach a = 1e200 at most; the prior underflows to 0
    # there without a warning (warnings are errors in this suite).
    for m in (2, 60, 10**12):
        assert reference_prior_exact(1e200, m, 30) == 0.0
        np.testing.assert_array_equal(
            reference_prior_exact(np.array([1e50, 1e200]), m, 30) > 0.0,
            [True, False])


@pytest.mark.parametrize("mn", [(60, 60), (1000, 30), (10**12, 30),
                                (2, 300)], ids=_mn_id)
def test_exact_prior_is_zero_where_its_sum_is_subnormal(mn):
    # A Fisher sum below the normal float range has lost digits (up to
    # 6.6e-2 on (1000, 30) at a = 1e80), so the prior is 0.0 there, from
    # 1.5e-154 down, and elsewhere within 1e-13 of mpmath; on (2, 300),
    # where the pmf row sets the error, within 5e-13 (1.4e-13 measured).
    m, n = mn
    rel = 5e-13 if mn == (2, 300) else 1e-13
    a = np.concatenate((np.logspace(8, 200, 49), [1e74, 1e79, 1e80]))
    for v, prior in zip(a.tolist(), reference_prior_exact(a, m, n)):
        if prior != 0.0:
            ref = mpmath.sqrt(_fisher_sum_mpmath(v, m, n))
            assert float(abs(prior / ref - 1)) < rel, v
        else:
            assert float(_fisher_sum_mpmath(v, m, n)) < 2.3e-308, v


@pytest.mark.parametrize("n", [2, 30, 300])
@pytest.mark.parametrize("m", [2, 60, 10**6, 10**12])
def test_far_tail_reaches_the_binomial_limit(m, n):
    # Each ratio factor of the pmf is -log(m-1) exactly where a + n
    # rounds to a, so the row is the Binomial(n, 1/m) pmf, and the exact
    # prior underflows to 0.0, with no warning.  a = inf counts as the
    # largest float.
    a = [1e300, 1e307, 1e308, sys.float_info.max, math.inf]
    ref = scipy.stats.binom.pmf(np.arange(n + 1), n, 1.0 / m)
    normal = ref > np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = marginal_pmf(np.array(a), m, n)
        for row, v in zip(rows, a):
            np.testing.assert_array_equal(row, marginal_pmf(v, m, n))
            np.testing.assert_allclose(row[normal], ref[normal], rtol=1e-12)
            assert reference_prior_exact(v, m, n) == 0.0
        np.testing.assert_array_equal(reference_prior_exact(np.array(a), m, n),
                                      0.0)


def test_exact_prior_zero_where_its_terms_would_overflow():
    # Far out in a, around and above a = 1.8e308/(3 m^3), where products
    # such as 3a and m^3 a would overflow, the Fisher sum underflows:
    # the prior is far below the smallest float, so it is 0.0, with no
    # warning, as mpmath confirms at two of the points.
    for a, m, n in ((1e308, 60, 60), (1e300, 10**6, 30)):
        assert reference_prior_exact(a, m, n) == 0.0
        root = mpmath.sqrt(_fisher_sum_mpmath(a, m, n))
        assert root < mpmath.mpf("1e-600")
    for m, n in ((2, 30), (60, 60), (10**12, 30)):
        edge = sys.float_info.max / (3.0 * m ** 3)
        a = np.array([1e200, math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, math.inf), 1e307,
                      sys.float_info.max])
        np.testing.assert_array_equal(reference_prior_exact(a, m, n), 0.0)
        assert all(reference_prior_exact(float(v), m, n) == 0.0 for v in a)


_CACHE_TS = np.linspace(math.log(1e-9), math.log(1e4), 3000)


def _fake_fisher_forms(monkeypatch, below):
    """Stand in, for both forms of the Fisher sum, a sum of 1/a up to
    cache grid point 1234, and `below` from there on."""
    cut = 0.5 * (_CACHE_TS[1233] + _CACHE_TS[1234])
    for form in ("_fisher_small", "_fisher_moment"):
        monkeypatch.setattr(hier, form, lambda a, q, m, n: np.where(
            np.log(a) < cut, 1.0 / a, below))


def test_exact_prior_array_raises_like_scalar_calls(monkeypatch):
    # Both forms of the sum are positive to their accuracy, so a
    # negative sum is a defect, and raises.
    _fake_fisher_forms(monkeypatch, -1.0)
    a = np.exp(_CACHE_TS[1200:1300])
    with pytest.raises(AccuracyError):
        reference_prior_exact(float(a[-1]), 10, 5)
    with pytest.raises(AccuracyError):
        reference_prior_exact(a, 10, 5)


def test_exact_prior_cache_raises_below_cancellation_floor(monkeypatch):
    _fake_fisher_forms(monkeypatch, -1.0)
    with pytest.raises(AccuracyError):
        hier._Shape(10, 5)._coef


def _count_fisher_sums(monkeypatch):
    """Record the number of a values of each ``_fisher_sum`` call."""
    values = []
    real = hier._fisher_sum

    def counted(a, m, n):
        values.append(np.size(a))
        return real(a, m, n)

    monkeypatch.setattr(hier, "_fisher_sum", counted)
    return values


def test_exact_prior_table_takes_128_fisher_sums(monkeypatch):
    values = _count_fisher_sums(monkeypatch)
    hier._Shape(60, 60)._coef
    assert sum(values) == 128


def test_mode_and_chain_share_one_exact_prior_table(monkeypatch,
                                                   fresh_shape_caches):
    values = _count_fisher_sums(monkeypatch)
    t = _synthetic_table()
    posterior_mode_a(t, prior="exact")
    chain = sample_posterior(t, 500, seed=1, prior="exact")
    assert chain.direct_prior_evals == 0
    assert sum(values) == 128


def _table_of_shape(m, n, seed):
    """Dirichlet-multinomial(1/2) counts in m cells summing to n, drawn
    with ``seed``: the posterior of a lies inside the prior table."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, rng.dirichlet(np.full(m, 0.5)))
    return CountTable.from_dense(counts.tolist())


def test_count_tables_of_one_shape_share_one_exact_prior_table(
        monkeypatch, fresh_shape_caches):
    # The exact prior depends on (m, n) only, so a second table of that
    # shape with other counts takes no Fisher sum; another shape builds
    # its own table.
    values = _count_fisher_sums(monkeypatch)
    first, second = _table_of_shape(60, 60, 1), _table_of_shape(60, 60, 2)
    assert first.counts != second.counts
    posterior_mode_a(first, prior="exact")
    chain = sample_posterior(second, 500, seed=1, prior="exact")
    posterior_mode_a(second, prior="exact")
    assert chain.direct_prior_evals == 0
    assert sum(values) == 128
    posterior_mode_a(_table_of_shape(40, 60, 3), prior="exact")
    assert sum(values) == 256
    assert hier._shape.cache_info().currsize == 2


def test_shared_table_keeps_each_chains_direct_prior_evals(
        fresh_shape_caches):
    # Two chains on two tables of one shape read one table; each counts
    # only its own lookups outside it.
    first = CountTable(m=10**10, counts={0: 1, 1: 1})
    second = CountTable(m=10**10, counts={5: 1, 9: 1})
    one = sample_posterior(first, 2000, seed=4).direct_prior_evals
    two = sample_posterior(second, 2000, seed=5).direct_prior_evals
    assert hier._shape.cache_info().misses == 1
    assert 0 < one != two > 0
    assert sample_posterior(second, 2000, seed=5).direct_prior_evals == two


@pytest.mark.parametrize("method", ["mh", "slice"])
def test_chain_on_shared_table_equals_one_on_fresh_table(monkeypatch, method):
    t = _synthetic_table()
    shared = sample_posterior(t, 1500, seed=3, method=method)
    mode = posterior_mode_a(t, prior="exact")
    monkeypatch.setattr(hier, "_shape", hier._Shape)
    fresh = sample_posterior(t, 1500, seed=3, method=method)
    assert np.array_equal(shared.a_samples, fresh.a_samples)
    assert shared.direct_prior_evals == fresh.direct_prior_evals
    assert posterior_mode_a(t, prior="exact") == mode


def test_approx_mode_search_builds_no_exact_prior_table(
        monkeypatch, fresh_shape_caches):
    values = _count_fisher_sums(monkeypatch)
    t = _synthetic_table()
    _modes(t, "approx")
    assert values == []
    assert "_coef" not in vars(hier._shape(t.m, t.n))


def _modes(t, prior):
    """Both modes of ``t``, None for a likelihood mode on the boundary."""
    try:
        lik = likelihood_mode_a(t)
    except BoundaryModeError:
        lik = None
    return posterior_mode_a(t, prior=prior), lik


def _count_log1p_sums(monkeypatch):
    calls = []
    real = hier._log1p_sum

    def counted(y, k):
        calls.append(k)
        return real(y, k)

    monkeypatch.setattr(hier, "_log1p_sum", counted)
    return calls


def test_mode_search_takes_no_log1p_sum(monkeypatch, fresh_shape_caches):
    # The mode search reads only closed-form slopes: it evaluates no log
    # density, so it takes no L(y, k) on a table of a new shape or of a
    # seen one, whatever its counts.
    calls = _count_log1p_sums(monkeypatch)
    for counts in ({0: 30, 1: 20, 2: 5, 3: 5}, {4: 16, 5: 16, 6: 16, 7: 12},
                   {0: 1, 1: 2, 2: 57}):
        _modes(CountTable(m=60, counts=counts), "exact")
        posterior_mode_a(CountTable(m=60, counts=counts), prior="approx")
    assert calls == []
    assert hier._shape.cache_info()[:2] == (8, 1)  # hits, misses


def test_exact_prior_tables_are_bounded(fresh_shape_caches):
    # The table is a part of its (m, n) shape, so at most 16 tables of
    # 96 kB are kept, the least recently used dropped first; no table
    # keeps its build's Vandermonde matrices.
    for n in range(2, 20):
        hier._shape(10, n)._coef
    info = hier._shape.cache_info()
    assert info.maxsize == hier._SHAPES == 16
    assert info.currsize == 16
    shape = hier._shape(10, 19)
    assert hier._shape.cache_info().hits == 1
    assert vars(shape).keys() == {"m", "n", "lo", "hi", "_t0", "_h",
                                  "_coef"}
    assert len(shape._coef) * shape._coef.itemsize == 4 * 2999 * 8


def test_mode_shapes_are_bounded(fresh_shape_caches):
    # One shape per (m, n), whatever the counts; at most 16 are kept, the
    # least recently used dropped first.  A fresh shape has built no part,
    # and an approximate-prior mode search builds none.
    posterior_mode_a(CountTable(m=10, counts={0: 3, 1: 16}), prior="approx")
    posterior_mode_a(CountTable(m=10, counts={4: 18, 5: 1}), prior="approx")
    assert hier._shape.cache_info()[:2] == (1, 1)  # hits, misses
    hier._shape.cache_clear()
    for n in range(2, 20):
        hier._shape(10, n)
    info = hier._shape.cache_info()
    assert info.maxsize == hier._SHAPES == 16
    assert info.currsize == 16
    shape = hier._shape(10, 19)
    hier._shape(10, 4)  # kept; (10, 2) and (10, 3) were dropped
    assert hier._shape.cache_info()[:2] == (2, 18)
    hier._shape(10, 3)
    assert hier._shape.cache_info()[:2] == (2, 19)
    assert (shape.m, shape.n) == (10, 19)
    fresh = {"m", "n", "lo", "hi", "_t0", "_h"}
    assert vars(shape).keys() == fresh
    posterior_mode_a(CountTable(m=10, counts={0: 10, 1: 9}), prior="approx")
    assert vars(shape).keys() == fresh


@pytest.mark.parametrize("m", [10, 99999, 100001, 10**12])
def test_shape_grid_spans_its_window(m):
    # The mode search and the exact-prior table share one window,
    # computed once.
    shape = hier._Shape(m, 30)
    assert shape.lo == min(1e-9, 1e-4 / m) and shape.hi == 1e4


def _log_prior_mpmath(a, m, n):
    return float(mpmath.log(_fisher_sum_mpmath(a, m, n)) / 2)


def _table_error(m, n, points):
    """Largest |table - mpmath| of the log prior at ``points`` points
    spread over the window, none of them on a Chebyshev node."""
    cache = hier._Shape(m, n)
    log_value = cache.reader()[0]
    a = np.exp(np.linspace(math.log(cache.lo), math.log(cache.hi),
                           points + 2)[1:-1] + 1e-3)
    return max(abs(log_value(float(v)) - _log_prior_mpmath(v, m, n))
               for v in a)


def test_exact_prior_cache_accuracy():
    # Measured: 3.5e-12, 4.7e-12, 2.3e-12 and 1.3e-9 (set by the
    # interpolant: the log prior at the nodes is within 4e-13).
    for m, n, bound in ((60, 60, 1e-11), (1000, 30, 1e-11), (10, 2, 1e-11),
                        (2, 300, 2e-9)):
        assert _table_error(m, n, 61) < bound, (m, n)


_LARGE_TABLE_BOUNDS = {(2000, 10029): 5e-9, (10**10, 2): 1e-9,
                       (10**12, 2): 5e-9, (10**12, 30): 5e-9}


@pytest.mark.parametrize("mn", sorted(_LARGE_TABLE_BOUNDS), ids=_mn_id)
def test_exact_prior_cache_accuracy_large(mn):
    # Measured: 5.2e-12, 2.8e-10, 2.2e-9 and 6.5e-10.
    assert _table_error(*mn, 7 if mn[1] > 1000 else 41) < \
        _LARGE_TABLE_BOUNDS[mn]


def test_exact_chain_stays_on_table_at_huge_m():
    # The posterior mode is a = 3e-10, so every draw lies in the table,
    # which reaches down to 1e-4/m = 1e-14 and up to 1e4.  Only MH
    # proposals in the far lower tail fall below it, where the target is
    # below e^-12.7 of its mode, and are evaluated directly.
    t = CountTable(m=10**10, counts={0: 1, 1: 1})
    warmup, length = 2000, 2000
    chain = sample_posterior(t, length, seed=4, warmup=warmup)
    a = chain.a_samples
    assert 1e-14 < a.min() and a.max() < 1e4
    assert 1e-11 < np.median(a) < 1e-9
    assert chain.direct_prior_evals < 0.1 * (warmup + length)


def test_exact_prior_table_refuses_m_above_1e12(fresh_shape_caches):
    # The table's window widens with log m while its nodes stay fixed, so
    # above m = 1e12 it would lose digits with no error (the exact mode of
    # this table drifted in its fourth digit by m = 1e30): the exact mode
    # and chains raise instead.  The approximate prior, the likelihood
    # and the direct exact prior keep working.
    t = CountTable(m=10**13, counts={0: 3, 1: 20, 2: 1})
    with pytest.raises(PreconditionError, match="m <= 1e12"):
        posterior_mode_a(t, prior="exact")
    with pytest.raises(PreconditionError, match="m <= 1e12"):
        sample_posterior(t, 10, seed=0, prior="exact")
    assert posterior_mode_a(t, prior="approx") > 0.0
    assert likelihood_mode_a(t) > 0.0
    assert sample_posterior(t, 10, seed=0, prior="approx").a_samples.size
    assert reference_prior_exact(1e-13, t.m, t.n) > 0.0


def test_count_table_pickles_after_building_its_prior_table():
    t = _synthetic_table()
    mode = posterior_mode_a(t, prior="exact")
    again = pickle.loads(pickle.dumps(t))
    assert again == t
    assert posterior_mode_a(again, prior="exact") == mode


def test_direct_prior_evals_count_each_chain_alone():
    # The table is shared by every chain on a CountTable, so each chain
    # counts its own direct lookups.  On this table (see
    # test_exact_chain_stays_on_table_at_huge_m) MH proposals reach below
    # the table; the mode search, which builds it here, reads only its
    # slopes.
    def table():
        return CountTable(m=10**10, counts={0: 1, 1: 1})

    t = table()
    posterior_mode_a(t, prior="exact")
    for seed in (4, 5):
        alone = sample_posterior(table(), 2000, seed=seed).direct_prior_evals
        assert alone > 0
        assert sample_posterior(t, 2000, seed=seed).direct_prior_evals == alone


@pytest.mark.parametrize("prior", ["exact", "approx"])
@pytest.mark.parametrize("warmup", [0, 75, 2000])
def test_mh_chain_is_a_prefix_of_a_longer_chain(prior, warmup):
    # MH variates come in fixed-size blocks, whatever the length and the
    # warm-up, so a chain is the start of a longer chain with its seed;
    # 1500 draws after the warm-up cross at least one block boundary.
    t = _synthetic_table()
    short, long = (sample_posterior(t, length, seed=8, prior=prior,
                                    warmup=warmup).a_samples
                   for length in (1500, 3000))
    assert np.array_equal(short, long[:1500])


def _direct_exact_mode(t):
    """The exact-prior mode search on the validated public density: the
    240-point scan of the window, then ``_stencil_root``."""
    shape = hier._Shape(t.m, t.n)
    lo, hi = shape.lo, shape.hi
    grid = np.linspace(math.log(lo), math.log(hi), 240)
    k = int(np.argmax(posterior_log_density_a(np.exp(grid), t, "exact")))
    return _stencil_root(lambda a: posterior_log_density_a(a, t, "exact"),
                         grid[max(k - 1, 0)], grid[min(k + 1, 239)])


_EXACT_MODE_TABLES = {
    "60x60": lambda: _synthetic_table(60, 60),
    "1000x30": lambda: _synthetic_table(1000, 30),
    "2x300": lambda: _synthetic_table(2, 300),
    "20x1000": lambda: _synthetic_table(20, 1000),
    # the perfbench hier-dense table at seed 0: m = n = 60, r0 = 26
    "hier-dense": lambda: CountTable(m=60, counts={
        1: 3, 4: 5, 6: 1, 11: 1, 14: 7, 16: 3, 17: 3, 19: 5, 20: 1, 21: 3,
        25: 1, 27: 3, 29: 2, 32: 1, 33: 1, 35: 3, 39: 2, 40: 3, 44: 1, 45: 1,
        46: 1, 51: 1, 52: 4, 54: 1, 55: 1, 56: 2}),
    **{f"{m:.0e}": functools.partial(CountTable, m=m,
                                      counts={0: 2, 1: 1, 2: 1})
       for m in (10**8, 10**10, 10**12)},
}


@pytest.mark.parametrize("name", list(_EXACT_MODE_TABLES))
def test_exact_mode_from_table_matches_direct_prior(name):
    # The mode search reads the exact prior's slope from the table; the
    # mode must stay within the CLI's --pin tolerance, 1e-6 relative, of
    # the one found on the directly evaluated prior (measured: at most
    # 5.6e-9, on 2x300).
    t = _EXACT_MODE_TABLES[name]()
    assert posterior_mode_a(t, prior="exact") == pytest.approx(
        _direct_exact_mode(t), rel=1e-6)


def _mode_root_mpmath(t, prior, guess):
    """The 40-digit zero in u = log a of the slope of log p(x|a), plus
    that of the approximate prior's log unless ``prior`` is None, by the
    secant method from ``guess``.  The likelihood's slope is taken from
    the exceedance profile R: sum_j R_j a/(a+j) - sum_{i<n} m a/(m a+i)."""
    m, n, exceed = t.m, t.n, t.r_profile

    def slope(u):
        a = mpmath.exp(u)
        out = (mpmath.fsum(r * a / (a + j) for j, r in enumerate(exceed))
               - mpmath.fsum(m * a / (m * a + i) for i in range(n)))
        if prior == "approx":
            out -= 0.5 + 1.5 * a / (a + mpmath.mpf(n) / m)
        return out

    with mpmath.workdps(40):
        u = mpmath.log(guess)
        return float(mpmath.exp(mpmath.findroot(slope, (u, u + 1e-6))))


@pytest.mark.parametrize("name", list(_EXACT_MODE_TABLES))
def test_modes_match_mpmath_roots(name):
    # Measured: at most 2.5e-14 under the approximate prior and 8.9e-15
    # for the likelihood, both on 2x300.
    t = _EXACT_MODE_TABLES[name]()
    mode = posterior_mode_a(t, prior="approx")
    assert mode == pytest.approx(_mode_root_mpmath(t, "approx", mode),
                                 rel=1e-12)
    if name == "1000x30":  # the likelihood increases in a: no mode
        with pytest.raises(BoundaryModeError):
            likelihood_mode_a(t)
        return
    mode = likelihood_mode_a(t)
    assert mode == pytest.approx(_mode_root_mpmath(t, None, mode), rel=1e-12)


def _log_prior_slope_mpmath(t, m, n, h=mpmath.mpf("1e-12")):
    """The derivative in t = log a of the mpmath log prior: a central
    difference of step h on 40 or more digits, with error of order h^2."""
    def log_prior(u):
        return mpmath.log(_fisher_sum_mpmath(mpmath.exp(u), m, n)) / 2

    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return float((log_prior(t + h) - log_prior(t - h)) / (2 * h))


# (m, n): bound on |slope - mpmath slope| of the exact-prior table.
_TABLE_SLOPE_BOUNDS = {(60, 60): 2e-9, (1000, 30): 2e-9, (10, 2): 2e-9,
                       (2, 300): 3e-8, (10**12, 30): 1e-8}


@pytest.mark.parametrize("mn", sorted(_TABLE_SLOPE_BOUNDS), ids=_mn_id)
def test_exact_prior_table_slope_mpmath(mn):
    # The exact-prior mode is the zero of this slope plus the
    # likelihood's, so it sets that mode's accuracy.  Measured at these
    # points: 9.9e-9 on (2, 300), 3.2e-10 to 6.6e-10 on the moderate
    # tables and 3.9e-9 at m = 1e12.
    cache = hier._Shape(*mn)
    t = np.linspace(math.log(cache.lo), math.log(cache.hi), 23)[1:-1] + 1e-3
    err = max(abs(cache.slope_at(float(u)) - _log_prior_slope_mpmath(u, *mn))
              for u in t)
    assert err < _TABLE_SLOPE_BOUNDS[mn]


def test_chain_counts_direct_prior_evaluations():
    t = _synthetic_table()
    log_value, direct = hier._Shape(t.m, t.n).reader()
    log_value(1e3)
    assert direct() == 0
    assert log_value(2e4) == hier._log_prior(2e4, t.m, t.n, "exact")
    assert direct() == 1
    chain = sample_posterior(t, 50, seed=1, prior="approx")
    assert chain.direct_prior_evals == 0


@pytest.mark.parametrize("prior", ["exact", "approx"])
def test_sampler_target_window(prior):
    # One occupied cell: the posterior in t falls only as e^{t/2} below
    # its mode, so slice step-outs reach the low edge of the window.
    t = CountTable(m=10, counts={0: 5})
    log_prior = (hier._Shape(t.m, t.n).reader()[0] if prior == "exact"
                 else lambda a: hier._log_prior(a, t.m, t.n, prior))
    target, _ = hier._log_target(t, log_prior)
    edge = hier._LOG_A_LIMIT
    # Past either edge the target is -inf, not an OverflowError from
    # exp(t) or a DomainError from a = 0, so MH proposals there are
    # rejected.
    for t_out in (-800.0, -edge - 1e-9, edge + 1e-9, 720.0, math.nan):
        assert target(t_out) == -math.inf
    # Start at the finite points of the target nearest either edge: the
    # low edge itself, and at the high end where the prior underflows.
    finite = [u for u in np.linspace(-edge, edge, 922)
              if math.isfinite(target(u))]
    assert finite[0] == -edge
    rng = np.random.default_rng(3)
    for u in (finite[0], finite[-1]):
        lt = target(u)
        for _ in range(5):
            u, lt = hier._slice_step(target, rng.random, u, lt)
            assert -edge <= u <= edge and math.isfinite(lt)


_KERNEL_TABLES = {
    "synthetic": _synthetic_table,
    # r0 = 24 cells, six of them holding 2 (n = 30)
    "sparse-1000x30": lambda: CountTable(
        m=1000, counts={7 * i: 1 + (i < 6) for i in range(24)}),
    "huge-m": lambda: CountTable(m=10**10, counts={0: 1, 1: 1}),
}
# The samplers' window edges, and log a on a grid between them.
_KERNEL_A = [1e-200, 1e200] + np.exp(np.linspace(-hier._LOG_A_LIMIT,
                                                 hier._LOG_A_LIMIT,
                                                 301)).tolist()


@pytest.mark.parametrize("prior", ["exact", "approx"])
@pytest.mark.parametrize("name", sorted(_KERNEL_TABLES))
def test_bound_kernel_matches_public_functions(name, prior):
    # The samplers evaluate the likelihood and the approximate prior
    # through kernels bound once per table; they must give the floats
    # of the validated public functions, bit for bit.  The exact prior is read from the table: the direct function
    # outside its window, and to the table's accuracy inside it.
    t = _KERNEL_TABLES[name]()
    log_lik = hier._likelihood_kernel(t)
    table = hier._shape(t.m, t.n)
    log_prior = (table.reader()[0] if prior == "exact"
                 else hier._approx_log_prior(t.m, t.n))
    for a in _KERNEL_A:
        lik = log_lik(a)
        assert lik == marginal_log_likelihood(t, a)
        if prior == "exact" and table.lo <= a <= table.hi:
            assert lik + log_prior(a) == pytest.approx(
                posterior_log_density_a(a, t, prior), rel=0.0, abs=5e-9)
        else:
            assert lik + log_prior(a) == posterior_log_density_a(a, t, prior)
    if prior == "approx":
        target, _ = hier._log_target(t, log_prior)
        for u in np.linspace(-hier._LOG_A_LIMIT, hier._LOG_A_LIMIT, 301):
            assert target(u) == posterior_log_density_a(math.exp(u), t,
                                                        prior) + u


def test_bound_kernel_cost_does_not_grow_with_n():
    # A likelihood call costs O(distinct counts): on a Poisson(5) table
    # with m = 2e4 (n about 1e5) the bound kernel's best-of-5 time per
    # call stays within 3x of its time on the 60 x 60 sweep table; a pass
    # over the c_max + n - 1 terms takes about 100x.
    big = CountTable.from_dense(np.random.default_rng(0).poisson(5.0, 20000))
    kernels = [hier._likelihood_kernel(t)
               for t in (big, _sweep_tables()["60x60"])]
    a_grid = np.exp(np.linspace(-5.0, 5.0, 50)).tolist() * 4
    best = [math.inf, math.inf]
    for _ in range(5):
        for i, log_lik in enumerate(kernels):
            start = time.perf_counter()
            for a in a_grid:
                log_lik(a)
            best[i] = min(best[i], time.perf_counter() - start)
    assert best[0] < 3.0 * best[1], best


def test_bound_kernels_guard_their_domain():
    # The samplers' window stays above _TINY_A, where J/a in the kernel
    # cannot overflow; an unknown prior is refused.
    t = _synthetic_table()
    assert math.exp(-hier._LOG_A_LIMIT) > hier._TINY_A
    with pytest.raises(DomainError):
        posterior_mode_a(t, prior="flat")


# ----------------------------------------------------------- large-m limit


def _mp_limit_log_density(v, n, r0):
    """log of v^{r0-3/2} Gamma(v+1) Gamma(n) / Gamma(v+n) sqrt(S) in
    mpmath, with S = sum_{i<n} i/(v+i)^2
    = psi(v+n) - psi(v+1) - v (psi'(v+1) - psi'(v+n))."""
    v = mpmath.mpf(v)
    s = (mpmath.digamma(v + n) - mpmath.digamma(v + 1)
         - v * (mpmath.psi(1, v + 1) - mpmath.psi(1, v + n)))
    return ((r0 - 1.5) * mpmath.log(v) + mpmath.loggamma(v + 1)
            + mpmath.loggamma(n) - mpmath.loggamma(v + n) + mpmath.log(s) / 2)


def _mp_limit_log_scale(n, r0):
    """log C(n, r0): the factors before the square root at their
    maximum, the root of sum_{i<n} v/(v+i) = r0 - 3/2."""
    c = r0 - 1.5
    t = mpmath.findroot(lambda t: mpmath.fsum(
        1 / (1 + i * mpmath.exp(-t)) for i in range(1, n)) - c, 0)
    v = mpmath.exp(t)
    return (c * t + mpmath.loggamma(v + 1) + mpmath.loggamma(n)
            - mpmath.loggamma(v + n))


def test_limit_density_value_oracle():
    # psi is divided by C(n, r0), the maximum of its Gamma factors, which
    # scipy's brentq finds here independently of the package.
    prof = LimitProfile(n=10, r0=3)
    v = 2.0
    i = np.arange(1, 10)
    t_star = scipy.optimize.brentq(
        lambda t: float(np.sum(1.0 / (1.0 + i * math.exp(-t)))) - 1.5,
        -10.0, 10.0, xtol=1e-14)
    v_star = math.exp(t_star)
    log_c = float(1.5 * t_star + sp.gammaln(v_star + 1) + sp.gammaln(10)
                  - sp.gammaln(v_star + 10))
    ref = math.exp(float(sp.gammaln(v + 1) + sp.gammaln(10)
                         - sp.gammaln(v + 10)) - log_c) \
        * v ** 1.5 * math.sqrt(float(np.sum(i / (v + i) ** 2)))
    assert limit_density_psi(v, prof) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("v", [1e10, 1e12, 1e14])
def test_limit_density_large_v_mpmath(v):
    with mpmath.workdps(50):
        ref = float(mpmath.exp(_mp_limit_log_density(v, 10, 3)
                               - _mp_limit_log_scale(10, 3)))
    # Values are about 2e-78..2e-112: no absolute tolerance.
    assert limit_density_psi(v, LimitProfile(n=10, r0=3)) == \
        pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r0", [5, 20, 100, 5000])
def test_limit_density_argmax_at_large_n(r0):
    # Criterion 9's grid at n = 1e4: the grid point where psi peaks is the
    # one where the mpmath log density peaks.  The unscaled product
    # Gamma(v+1)/Gamma(v+n) underflowed to 0.0 at every v there, so the
    # argmax was the grid's first point.
    n = 10 ** 4
    vgrid = np.exp(np.linspace(math.log(0.05), math.log(2.0 * n), 1200))
    prof = LimitProfile(n=n, r0=r0)
    vals = [limit_density_psi(v, prof) for v in vgrid]
    with mpmath.workdps(20):
        ref = [_mp_limit_log_density(v, n, r0) for v in vgrid]
    assert int(np.argmax(vals)) == max(range(vgrid.size),
                                       key=ref.__getitem__)


@pytest.mark.parametrize("r0", [1, 3, 9])
def test_limit_density_finite_over_float_range(r0):
    # No overflow, and no log(0) from the sum of i/(v+i)^2, from the
    # smallest normal v to the largest.
    prof = LimitProfile(n=10, r0=r0)
    for v in (1e-300, 1e-10, 1.0, 1e10, 1e200, 1e308):
        assert 0.0 <= limit_density_psi(v, prof) < math.inf


def test_limit_profile_validation():
    with pytest.raises(DomainError):
        LimitProfile(n=10, r0=0)
    with pytest.raises(DomainError):
        LimitProfile(n=10, r0=11)
    with pytest.raises(DomainError):
        limit_density_psi(0.0, LimitProfile(n=10, r0=2))


def test_mode_asymptotic_dense_solves_implicit_equation():
    prof = LimitProfile(n=1000, r0=500)
    v = mode_asymptotic(prof, regime="dense")
    c = v / 1000
    assert c * math.log1p(1 / c) == pytest.approx(0.5, abs=1e-9)


def test_mode_asymptotic_sparse_formula():
    prof = LimitProfile(n=1000, r0=5)
    assert mode_asymptotic(prof, regime="sparse") == pytest.approx(
        3.5 / math.log(1 + 200), rel=1e-12)


def test_mode_asymptotic_validation():
    with pytest.raises(DomainError):
        mode_asymptotic(LimitProfile(n=10, r0=10))
    with pytest.raises(DomainError):
        mode_asymptotic(LimitProfile(n=10, r0=5), regime="sideways")


# ------------------------------------------------------- hypergeometric


def test_hypergeometric_pmf_oracle():
    # Two categories + complement: N=10, R=(3,4) so complement 3.
    assert hypergeometric_pmf([1, 2], 4, [3, 4], 10) == pytest.approx(
        math.comb(3, 1) * math.comb(4, 2) * math.comb(3, 1)
        / math.comb(10, 4), abs=1e-15)


def test_hypergeometric_pmf_zero_when_overdrawn():
    assert hypergeometric_pmf([4], 4, [3], 10) == 0.0


def test_hypergeometric_pmf_validation():
    with pytest.raises(DomainError):
        hypergeometric_pmf([-1], 2, [3], 10)
    with pytest.raises(DomainError):
        hypergeometric_pmf([3], 2, [3], 10)
    with pytest.raises(DomainError):
        hypergeometric_pmf([1], 2, [11], 10)


def test_hypergeometric_overall_prior_normalized():
    k, N = 2, 6
    total = sum(hypergeometric_overall_prior([r1, r2], N, k)
                for r1 in range(N + 1) for r2 in range(N + 1 - r1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_hypergeometric_overall_prior_validation():
    with pytest.raises(DomainError):
        hypergeometric_overall_prior([], 5, 0)
    with pytest.raises(DomainError):
        hypergeometric_overall_prior([1, 2], 5, 1)
    with pytest.raises(DomainError):
        hypergeometric_overall_prior([-1], 5, 1)
    with pytest.raises(DomainError):
        hypergeometric_overall_prior([3, 3], 5, 2)


@given(st.integers(2, 8), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_hypergeometric_reduction_identity(N, k):
    # Mixing the hypergeometric sample over the Dirichlet-multinomial
    # population prior returns the same Dirichlet-multinomial law for
    # the sample.
    n = max(1, N // 2)

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(total - first, parts - 1):
                yield (first,) + rest

    for r in splits(n, k + 1):
        r_head = list(r[:-1])
        total = 0.0
        for R in splits(N, k + 1):
            total += (hypergeometric_pmf(r_head, n, list(R[:-1]), N)
                      * hypergeometric_overall_prior(list(R[:-1]), N, k))
        assert total == pytest.approx(
            hypergeometric_overall_prior(r_head, n, k), abs=1e-12)
