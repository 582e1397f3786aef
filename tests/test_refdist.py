"""Reference-distance selection: expected-loss curve, its minimizer,
normal-model closed forms, and posterior summaries."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from overallprior.exceptions import DegenerateDataError, DomainError
from overallprior.numerics import kl_beta
from overallprior.refdist import (CountVector, RefDistConfig,
                                  dirichlet_posterior_means,
                                  dirichlet_posterior_variances, d_mu,
                                  d_sigma, expected_loss, loss_curve,
                                  normal_posterior_sample, optimal_a,
                                  phi_posterior_from_sample,
                                  reference_predictive)

# ------------------------------------------------------- predictive weights


def test_reference_predictive_sums_to_one():
    n = 60
    assert sum(reference_predictive(x, n) for x in range(n + 1)) == \
        pytest.approx(1.0, abs=1e-12)


def test_reference_predictive_oracle():
    # Beta-binomial(1/2, 1/2) pmf via scipy.
    n = 25
    for x in (0, 3, 12, 25):
        ref = float(scipy.stats.betabinom.pmf(x, n, 0.5, 0.5))
        assert reference_predictive(x, n) == pytest.approx(ref, rel=1e-12)


def test_reference_predictive_rejects_out_of_range():
    with pytest.raises(DomainError):
        reference_predictive(5, 4)


# --------------------------------------------------------- expected loss


def test_expected_loss_positive_off_reference():
    cfg = RefDistConfig(m=10, n=30)
    assert expected_loss(2.0, cfg) > 0.0


def test_expected_loss_zero_at_jeffreys_for_two_cells():
    # With m = 2 the candidate at a = 1/2 reproduces the per-cell
    # reference posterior exactly.
    cfg = RefDistConfig(m=2, n=17)
    assert expected_loss(0.5, cfg) == pytest.approx(0.0, abs=1e-12)


def _scalar_expected_loss(a, m, n):
    """Reference sum over x of the scalar divergence times the scalar
    reference predictive."""
    return sum(kl_beta(x + a, n - x + (m - 1) * a, x + 0.5, n - x + 0.5)
               * reference_predictive(x, n) for x in range(n + 1))


# The scalar reference is itself accurate to about 2e-13 at these sizes
# (checked against mpmath); at n = 1000 its own error reaches 2.5e-12,
# so that size is checked against mpmath directly below.
@pytest.mark.parametrize("a", [1e-6, 0.08, 10.0])
@pytest.mark.parametrize("mn", [(2, 17), (3, 40), (10, 100), (1000, 30)])
def test_expected_loss_matches_scalar_reference(a, mn):
    m, n = mn
    assert expected_loss(a, RefDistConfig(m, n)) == pytest.approx(
        _scalar_expected_loss(a, m, n), rel=1e-12)


@pytest.mark.parametrize("a", [1e-6, 0.008, 10.0])
def test_expected_loss_mpmath_large_n(a):
    m, n = 100, 1000
    lg, dg = mpmath.loggamma, mpmath.digamma
    with mpmath.workdps(30):
        am = mpmath.mpf(a)
        ref = mpmath.mpf(0)
        for x in range(n + 1):
            a0, b0 = x + am, n - x + (m - 1) * am
            al, be = mpmath.mpf(x) + 0.5, mpmath.mpf(n - x) + 0.5
            kl = (lg(al + be) - lg(a0 + b0) + lg(a0) - lg(al)
                  + lg(b0) - lg(be) + (al - a0) * dg(al)
                  + (be - b0) * dg(be) - (al + be - a0 - b0) * dg(al + be))
            weight = mpmath.exp(lg(al) + lg(be) - lg(x + 1)
                                - lg(n - x + 1)) / mpmath.pi
            ref += kl * weight
        ref = float(ref)
    assert expected_loss(a, RefDistConfig(m, n)) == pytest.approx(ref,
                                                                  rel=1e-12)


def test_config_validation():
    with pytest.raises(DomainError):
        RefDistConfig(1, 5)
    with pytest.raises(DomainError):
        RefDistConfig(3, 0)


def test_expected_loss_rejects_nonpositive_a():
    with pytest.raises(DomainError):
        expected_loss(0.0, RefDistConfig(3, 5))


# --------------------------------------------------------- the optimum


def test_optimal_a_published_values():
    res = optimal_a(RefDistConfig(m=10, n=100))
    assert res.converged
    assert res.argmin == pytest.approx(0.083, rel=0.05)
    res = optimal_a(RefDistConfig(m=1000, n=100))
    assert res.argmin == pytest.approx(0.00076, rel=0.10)


def test_optimal_a_two_cells_is_half():
    res = optimal_a(RefDistConfig(m=2, n=40))
    assert res.argmin == pytest.approx(0.5, rel=1e-4)


@given(st.sampled_from([3, 10, 50, 300]), st.sampled_from([5, 20, 80]))
@settings(max_examples=12, deadline=None)
def test_optimal_a_scales_like_inverse_m(m, n):
    res = optimal_a(RefDistConfig(m=m, n=n))
    assert 0.4 <= m * res.argmin <= 1.1


def test_loss_curve_minimum_matches_optimizer():
    cfg = RefDistConfig(m=20, n=50)
    res = optimal_a(cfg)
    grid = np.exp(np.linspace(math.log(res.argmin / 5),
                              math.log(res.argmin * 5), 81))
    curve = loss_curve(cfg, grid)
    k = int(np.argmin(curve.grid.values))
    assert curve.grid.points[k] == pytest.approx(res.argmin, rel=0.1)
    assert min(curve.grid.values) >= res.min_value - 1e-12


def test_loss_curve_rejects_nonpositive_grid():
    with pytest.raises(DomainError):
        loss_curve(RefDistConfig(3, 5), [0.0, 1.0])


# --------------------------------------------- Dirichlet posterior summaries


def test_posterior_means_sparse_table():
    # n=3 observations in m=1000 cells: counts {2, 1}.
    counts = [2, 1] + [0] * 998
    x = CountVector(counts=tuple(counts))
    jeffreys = dirichlet_posterior_means(x, 0.5)
    assert jeffreys[0] == pytest.approx(2.5 / 503, abs=1e-15)
    assert jeffreys[1] == pytest.approx(1.5 / 503, abs=1e-15)
    overall = dirichlet_posterior_means(x, 1.0 / 1000)
    assert overall[0] == pytest.approx(2.001 / 4, abs=1e-15)
    assert overall[1] == pytest.approx(1.001 / 4, abs=1e-15)


def test_posterior_means_sum_to_one():
    x = CountVector(counts=(4, 0, 3, 1))
    for a in (0.1, 0.5, 2.0):
        assert sum(dirichlet_posterior_means(x, a)) == pytest.approx(1.0)


def test_posterior_variances_match_beta_marginal():
    x = CountVector(counts=(1, 1))
    # Dirichlet(2,2) marginal: Be(2,2), variance 1/20.
    assert dirichlet_posterior_variances(x, 1.0)[0] == \
        pytest.approx(0.05, abs=1e-15)


# ------------------------------------------------------ normal closed forms


@pytest.mark.parametrize("n", list(range(2, 51)))
def test_normal_risks_vanish_at_reference(n):
    assert d_mu(1.0, n) == pytest.approx(0.0, abs=1e-12)
    assert d_sigma(1.0, n) == pytest.approx(0.0, abs=1e-12)


def test_normal_risks_positive_off_reference():
    for a in (0.3, 0.7, 1.5, 3.0):
        assert d_mu(a, 10) > 0.0
        assert d_sigma(a, 10) > 0.0


def test_normal_risk_derivative_changes_sign_once_at_one():
    n = 12
    grid = np.linspace(0.2, 3.0, 281)
    for fn in (d_mu, d_sigma):
        vals = np.array([fn(a, n) for a in grid])
        deriv = np.diff(vals)
        flips = np.flatnonzero(np.diff(np.sign(deriv)))
        assert len(flips) == 1
        assert abs(grid[flips[0] + 1] - 1.0) < 0.02


def test_normal_risk_domain():
    with pytest.raises(DomainError):
        d_mu(1.0, 1)
    with pytest.raises(DomainError):
        d_sigma(-0.5, 10)


# --------------------------------------------------------- exact sampling


def _data():
    rng = np.random.default_rng(8)
    return rng.normal(2.0, 1.5, size=12)


def test_normal_posterior_mu_marginal_is_student():
    x = _data()
    n = x.size
    s = math.sqrt(np.mean((x - x.mean()) ** 2))
    draws = normal_posterior_sample(x, 1.0, size=40000, seed=11)
    # mu marginal: Student t, df n-1, location xbar, scale s/sqrt(n-1)
    t = (draws.mu - x.mean()) / (s / math.sqrt(n - 1))
    stat, pval = scipy.stats.kstest(t, "t", args=(n - 1,))
    assert pval > 0.01


def test_normal_posterior_precision_marginal_is_gamma():
    x = _data()
    n = x.size
    s2 = float(np.mean((x - x.mean()) ** 2))
    a = 2.0
    draws = normal_posterior_sample(x, a, size=40000, seed=5)
    lam = 1.0 / draws.sigma ** 2
    stat, pval = scipy.stats.kstest(
        lam, "gamma", args=((n + a - 2) / 2, 0.0, 2.0 / (n * s2)))
    assert pval > 0.01


def test_normal_posterior_reproducible():
    x = _data()
    d1 = normal_posterior_sample(x, 1.0, size=100, seed=3)
    d2 = normal_posterior_sample(x, 1.0, size=100, seed=3)
    assert np.array_equal(d1.mu, d2.mu) and np.array_equal(d1.sigma, d2.sigma)


def test_normal_posterior_rejects_constant_data():
    with pytest.raises(DegenerateDataError):
        normal_posterior_sample([1.0, 1.0, 1.0], 1.0, size=10, seed=0)


def test_phi_draws():
    x = _data()
    d = normal_posterior_sample(x, 1.0, size=50, seed=3)
    phi = phi_posterior_from_sample(d)
    assert np.allclose(phi, d.mu / d.sigma)
