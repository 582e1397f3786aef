"""Hierarchical multinomial prior: marginal likelihood, hyperpriors,
modes, MCMC, large-m limit, and the hypergeometric reduction."""

import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from overallprior import hier
from overallprior.exceptions import (AccuracyError, BoundaryModeError,
                                     DomainError, PreconditionError)
from overallprior.hier import (CountTable, LimitProfile, _ExactPriorCache,
                               _fisher_sum,
                               approx_posterior_curvature,
                               hypergeometric_overall_prior,
                               hypergeometric_pmf, likelihood_mode_a,
                               limit_density_psi, log_concavity_certificate,
                               marginal_log_likelihood, marginal_pmf_single,
                               mode_asymptotic, posterior_log_density_a,
                               posterior_mode_a, reference_prior_approx,
                               reference_prior_exact, sample_posterior,
                               tail_Q)
from overallprior.numerics import integrate, minimize_scalar

# ---------------------------------------------------------------- tables


def test_count_table_basics():
    t = CountTable.from_dense([5, 3, 0, 2, 0])
    assert (t.m, t.n, t.r0) == (5, 10, 3)
    assert t.r_profile[:5] == (3, 3, 2, 1, 1)


def test_count_table_histogram():
    t = CountTable.from_dense([5, 3, 0, 2, 0, 3, 3])
    values, cells = t.histogram
    assert values.tolist() == [2, 3, 5]
    assert cells.tolist() == [1, 3, 1]
    assert t.n == 16


def test_count_table_validation():
    with pytest.raises(DomainError):
        CountTable(m=1, counts={0: 3})
    with pytest.raises(DomainError):
        CountTable(m=5, counts={7: 1})
    with pytest.raises(DomainError):
        CountTable(m=5, counts={0: 0})


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
    """Log marginal likelihood at 60 digits, over the distinct counts."""
    lg = mpmath.loggamma
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        ref = lg(t.n + 1) + lg(t.m * a) - lg(t.n + t.m * a)
        for c, k in Counter(t.counts.values()).items():
            ref += k * (lg(c + a) - lg(a) - lg(c + 1))
        return ref


@pytest.mark.parametrize("name", ["poisson", "60x60", "40x8", "1000x30"])
def test_marginal_log_likelihood_mpmath_sweep(name):
    t = _sweep_tables()[name]
    for log_a in np.linspace(-690.0, 40.0, 74):
        a = math.exp(log_a)
        ref = _mll_mpmath(t, a)
        assert float(abs((marginal_log_likelihood(t, a) - ref) / ref)) \
            < 1e-14, (name, log_a)


@pytest.mark.parametrize("a", [1e-308, 1e-310, 5e-324])
def test_marginal_log_likelihood_subnormal_a(a):
    # J/a overflows a float here; the tiny-a form must not.
    for name, t in _sweep_tables().items():
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
    for x in (0, 1, 7, 20):
        ref = float(scipy.stats.betabinom.pmf(x, n, a, (m - 1) * a))
        assert marginal_pmf_single(x, a, m, n) == pytest.approx(ref,
                                                                rel=1e-10)
    assert sum(marginal_pmf_single(x, a, m, n) for x in range(n + 1)) == \
        pytest.approx(1.0, abs=1e-12)


def test_tail_q_identity():
    m, n, a = 10, 50, 0.7
    for j in (0, 3, 49):
        direct = sum(marginal_pmf_single(l, a, m, n)
                     for l in range(j + 1, n + 1))
        assert tail_Q(j, a, m, n) == pytest.approx(direct, abs=1e-13)
    with pytest.raises(DomainError):
        tail_Q(n, a, m, n)


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
    np.testing.assert_allclose(
        marginal_log_likelihood(t, _ARRAY_A),
        [marginal_log_likelihood(t, float(a)) for a in _ARRAY_A], rtol=1e-13)
    with pytest.raises(DomainError):
        marginal_log_likelihood(t, np.array([1.0, 0.0]))


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


def normalizer(m, n, upper):
    z = integrate(lambda a: reference_prior_exact(a, m, n), 0.0, upper,
                  tol=1e-7)
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
        z = integrate(lambda a: reference_prior_approx(a, m, n),
                      0.0, math.inf, tol=1e-10)
        assert z == pytest.approx(1.0, abs=1e-8)


def test_approx_prior_is_beta_half_one_in_phi():
    # phi = a/(a + n/m) ~ Be(1/2, 1): P(phi <= p) = sqrt(p).
    m, n = 50, 10
    c = n / m
    for p in (0.1, 0.5, 0.9):
        a_cut = p * c / (1 - p)
        mass = integrate(lambda a: reference_prior_approx(a, m, n),
                         0.0, a_cut, tol=1e-10)
        assert mass == pytest.approx(math.sqrt(p), abs=1e-7)


def test_approx_prior_median():
    m, n = 20, 10
    median = (n / m) / 3.0  # phi median 1/4 => a = (n/m)/3
    mass = integrate(lambda a: reference_prior_approx(a, m, n),
                     0.0, median, tol=1e-10)
    assert mass == pytest.approx(0.5, abs=1e-8)


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


def test_posterior_mode_matches_grid_argmax():
    t = CountTable(m=50, counts={0: 3, 1: 2, 2: 1, 3: 1})
    for prior in ("exact", "approx"):
        mode = posterior_mode_a(t, prior=prior)
        grid = np.exp(np.linspace(math.log(1e-5), math.log(50), 3000))
        vals = [posterior_log_density_a(a, t, prior) for a in grid]
        assert mode == pytest.approx(grid[int(np.argmax(vals))], rel=0.01)


def _scalar_scan_mode(neg_log_density):
    """The mode search with its 240-point scan made one scalar call at a
    time, as a reference for the array scan."""
    grid = np.linspace(math.log(1e-9), math.log(1e4), 240)
    k = int(np.argmin([neg_log_density(math.exp(t)) for t in grid]))
    res = minimize_scalar(lambda t: neg_log_density(math.exp(t)),
                          grid[max(k - 1, 0)], grid[min(k + 1, 239)],
                          tol=1e-12)
    return math.exp(res.argmin)


def test_modes_match_scalar_scan():
    t = _synthetic_table()
    for prior in ("exact", "approx"):
        ref = _scalar_scan_mode(
            lambda a: -posterior_log_density_a(a, t, prior))
        assert posterior_mode_a(t, prior=prior) == pytest.approx(ref,
                                                                 rel=1e-9)
    ref = _scalar_scan_mode(lambda a: -marginal_log_likelihood(t, a))
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
# must not change the chain for a given seed.
_PINNED_CHAINS = {
    # (prior, method): (a[0], a[99], a[-1], sum(a), acceptance rate)
    ("exact", "mh"): (0.5286074359396418, 0.24934568041123117,
                      0.27134555115253406, 72.03073617241313, 0.355),
    ("exact", "slice"): (0.11005940018244767, 0.320763293096854,
                         2.9963588519938247, 85.88366361225602, 1.0),
    ("approx", "mh"): (0.5038142705769901, 0.271031274647888,
                       1.286464711364696, 76.65283257602567, 0.365),
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


def test_theta_draws_pinned():
    chain = sample_posterior(_synthetic_table(), 200, seed=11, warmup=200,
                             thetas=True)
    th = chain.theta_samples
    assert th.shape == (200, 50)
    np.testing.assert_allclose(
        [th[0, 0], th[-1, 1], th[:, :5].sum(), (th ** 2).sum(),
         chain.a_samples.sum()],
        [0.00017263792183384448, 0.00018060344964977633, 20.325430464449152,
         16.842101049877517, 72.03073617241313], rtol=1e-12)


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


def test_slice_sampler_steps_out_into_far_tail():
    # Under the approximate prior the slice sampler steps out to m a
    # beyond 1e154 on this table; the target must stay finite there.
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
    np.testing.assert_allclose(rows, [float(_fisher_sum(v, m, n)) for v in a],
                               rtol=1e-12)


def _fisher_sum_mpmath(a, m, n):
    """The Fisher sum from the single-cell pmf in mpmath, with enough
    digits to absorb the cancellation of Q_0 - 1/m at small a."""
    with mpmath.workdps(40 + max(0, int(-math.log10(a)))):
        a = mpmath.mpf(a)
        p = [mpmath.binomial(n, x) * mpmath.rf(a, x)
             * mpmath.rf((m - 1) * a, n - x) / mpmath.rf(m * a, n)
             for x in range(n + 1)]
        return sum(mpmath.fsum(p[j + 1:]) / (a + j) ** 2
                   - m / (m * a + j) ** 2 for j in range(n))


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


_CACHE_TS = np.linspace(math.log(1e-9), math.log(1e4), 3000)


def _fake_fisher_sum(monkeypatch, below):
    """Stand in a Fisher sum of 1/a up to cache grid point 1234, and
    `below` from there on."""
    cut = 0.5 * (_CACHE_TS[1233] + _CACHE_TS[1234])
    monkeypatch.setattr(hier, "_fisher_sum", lambda a, m, n: np.where(
        np.log(a) < cut, 1.0 / np.asarray(a), below))


def test_exact_prior_cache_truncates_where_sum_vanishes(monkeypatch):
    # Within the cancellation floor the sum is clamped once and the
    # grid is cut at the first vanishing point.
    _fake_fisher_sum(monkeypatch, -1e-12)
    before = hier.clamp_diagnostics["count"]
    cache = _ExactPriorCache(10, 5)
    assert hier.clamp_diagnostics["count"] == before + 1
    assert cache.hi == pytest.approx(math.exp(_CACHE_TS[1233]), rel=1e-12)
    # Below the cut the table holds log sqrt(1/a) = -t/2; beyond it,
    # lookups fall back to direct evaluation.
    t = _CACHE_TS[600]
    assert cache.log_value(math.exp(t)) == pytest.approx(-0.5 * t, abs=1e-9)
    assert cache.log_value(math.exp(_CACHE_TS[2000])) == -math.inf


def test_exact_prior_array_clamps_like_scalar_calls(monkeypatch):
    _fake_fisher_sum(monkeypatch, -1e-12)
    a = np.exp(_CACHE_TS[1200:1300])
    before = hier.clamp_diagnostics["count"]
    scalar = [reference_prior_exact(float(v), 10, 5) for v in a]
    clamped = hier.clamp_diagnostics["count"] - before
    assert clamped == 66
    np.testing.assert_allclose(reference_prior_exact(a, 10, 5), scalar,
                               rtol=1e-13)
    assert hier.clamp_diagnostics["count"] - before == 2 * clamped


def test_exact_prior_array_raises_like_scalar_calls(monkeypatch):
    _fake_fisher_sum(monkeypatch, -1.0)
    a = np.exp(_CACHE_TS[1200:1300])
    with pytest.raises(AccuracyError):
        reference_prior_exact(float(a[-1]), 10, 5)
    with pytest.raises(AccuracyError):
        reference_prior_exact(a, 10, 5)


def test_exact_prior_cache_raises_below_cancellation_floor(monkeypatch):
    _fake_fisher_sum(monkeypatch, -1.0)
    with pytest.raises(AccuracyError):
        _ExactPriorCache(10, 5)


@pytest.mark.parametrize("j", [0, 1, 1500, 2998, 2999])
def test_exact_prior_cache_reproduces_grid_nodes(j):
    cache = _ExactPriorCache(60, 60)
    a = math.exp(_CACHE_TS[j])
    assert cache.log_value(a) == pytest.approx(
        0.5 * math.log(float(_fisher_sum(a, 60, 60))), rel=0.0, abs=1e-12)


def test_exact_prior_cache_accuracy():
    m, n = 50, 20
    cache = _ExactPriorCache(m, n)
    grid = np.exp(np.linspace(math.log(1e-6), math.log(50), 400))
    err = max(abs(cache.log_value(a)
                  - math.log(reference_prior_exact(a, m, n))) for a in grid)
    assert err < 1e-6


# ----------------------------------------------------------- large-m limit


def test_limit_density_value_oracle():
    prof = LimitProfile(n=10, r0=3)
    v = 2.0
    i = np.arange(1, 10)
    ref = math.exp(float(sp.gammaln(v + 1) - sp.gammaln(v + 10))) \
        * v ** 1.5 * math.sqrt(float(np.sum(i / (v + i) ** 2)))
    assert limit_density_psi(v, prof) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("v", [1e10, 1e12, 1e14])
def test_limit_density_large_v_mpmath(v):
    with mpmath.workdps(50):
        mv = mpmath.mpf(v)
        log_ratio = mpmath.loggamma(mv + 1) - mpmath.loggamma(mv + 10)
        ref = float(mpmath.exp(log_ratio) * mv ** 1.5 * mpmath.sqrt(
            mpmath.fsum(i / (mv + i) ** 2 for i in range(1, 10))))
    # Values are about 1e-85..1e-119: no absolute tolerance.
    assert limit_density_psi(v, LimitProfile(n=10, r0=3)) == \
        pytest.approx(ref, rel=1e-12, abs=0.0)


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
