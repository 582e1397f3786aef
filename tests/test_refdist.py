"""Reference-distance selection: expected-loss curve, its minimizer,
normal-model closed forms, and posterior summaries."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from overallprior import refdist
from overallprior.exceptions import (AccuracyError, DegenerateDataError,
                                     DomainError)
from overallprior.numerics import digamma, kl_beta
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


def test_reference_predictive_large_n_mpmath():
    # A difference of four log-gamma terms of size n log n would lose
    # about 1e-10 of relative accuracy here.
    n = 10**5
    with mpmath.workdps(50):
        for x in (0, 1, n // 3, n // 2, n - 1, n):
            ref = float(mpmath.gamma(x + 0.5) * mpmath.gamma(n - x + 0.5)
                        / (mpmath.factorial(x) * mpmath.factorial(n - x)
                           * mpmath.pi))
            assert reference_predictive(x, n) == pytest.approx(
                ref, rel=1e-12, abs=0.0)


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


def _expected_loss_mpmath(a, m, n):
    """The sum over x of the divergence times the reference predictive,
    in 30-digit mpmath."""
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
    return float(ref)


@pytest.mark.parametrize("a", [1e-6, 0.008, 10.0, 1e-300, 1e300])
def test_expected_loss_mpmath_large_n(a):
    # a = 1e-300 and 1e300 give log_rising_ratio a ratio term that is
    # exactly -1 in log1p form: no divide-by-zero warning there.
    m, n = 100, 1000
    assert expected_loss(a, RefDistConfig(m, n)) == pytest.approx(
        _expected_loss_mpmath(a, m, n), rel=1e-12)


@pytest.mark.parametrize("a", [1e-308, 1e-310, 1e-320, 5e-324])
def test_expected_loss_mpmath_subnormal_a(a):
    # In log_rising_ratio(1, m a, n), x/y - 1 overflows at a subnormal
    # m a; its first term is log 1 - log(m a) there, so the loss is
    # finite, with no RuntimeWarning.  (At 1e-308 it was finite before.)
    m, n = 10, 100
    assert expected_loss(a, RefDistConfig(m, n)) == pytest.approx(
        _expected_loss_mpmath(a, m, n), rel=1e-12)


def test_expected_loss_domain_ends_where_log_gamma_overflows():
    # log Gamma(m a) leaves the float range above m a = 2.5e305.
    cfg = RefDistConfig(10, 100)
    assert math.isfinite(expected_loss(1e304, cfg))
    for a in (1.1e304, 1e308, math.inf, math.nan, 0.0):
        with pytest.raises(DomainError):
            expected_loss(a, cfg)
    with pytest.raises(DomainError):
        loss_curve(cfg, [1.0, 1e305])


@pytest.mark.parametrize("n", [1, 17, 1000])
def test_reference_predictive_log_theta_identity(n):
    # expected_loss replaces its digamma terms by this constant: the
    # predictive average of psi(x + 1/2) - psi(n + 1) is E[log theta]
    # under Be(1/2, 1/2), psi(1/2) - psi(1) = -2 log 2.
    row = np.array([reference_predictive(x, n) for x in range(n + 1)])
    x = np.arange(n + 1)
    assert row @ (digamma(x + 0.5) - digamma(n + 1.0)) == pytest.approx(
        -2.0 * math.log(2.0), rel=1e-14)


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


# 40-digit mpmath argmins of d(a | m, n), to 16 digits: the zero of
# mpmath.diff of d(a), summed from its definition (the predictive mean
# of the KL divergence between the two beta posteriors of a cell), by
# mpmath.findroot.
_OPTIMAL_A_MPMATH = {(10, 100): 0.08343687738298266,
                     (100, 1000): 0.007792165362322067,
                     (1000, 100): 0.0007682228189578834}


@pytest.mark.parametrize("mn", sorted(_OPTIMAL_A_MPMATH),
                         ids=lambda mn: f"{mn[0]}x{mn[1]}")
def test_optimal_a_matches_mpmath_argmin(mn):
    # Measured: 7.2e-15, 2.6e-14 and 4.8e-15 relative, in 10, 12 and 11
    # slope evaluations, the two at the warm bracket's ends included.
    cfg = RefDistConfig(*mn)
    res = optimal_a(cfg)
    assert res.argmin == pytest.approx(_OPTIMAL_A_MPMATH[mn], rel=1e-12)
    assert res.converged and res.iterations <= 12
    assert res.min_value == expected_loss(res.argmin, cfg)


# Slope evaluations of the solve on the whole window [1e-4/m, 10].
_WHOLE_WINDOW_EVALS = {(10, 100): 14, (100, 1000): 17, (1000, 100): 13}


@pytest.mark.parametrize("warm", [(2.0, 3.0), (0.1, 0.3)],
                         ids=["root-below", "root-above"])
@pytest.mark.parametrize("mn", sorted(_OPTIMAL_A_MPMATH),
                         ids=lambda mn: f"{mn[0]}x{mn[1]}")
def test_optimal_a_falls_back_to_the_whole_window(mn, warm, monkeypatch):
    # A warm bracket [lo/m, hi/m] that misses m a* ~ 0.8: the solve on
    # the whole window still finds a*, after the two warm evaluations.
    monkeypatch.setattr(refdist, "_A_WARM_LO_TIMES_M", warm[0])
    monkeypatch.setattr(refdist, "_A_WARM_HI_TIMES_M", warm[1])
    cfg = RefDistConfig(*mn)
    res = optimal_a(cfg)
    assert res.argmin == pytest.approx(_OPTIMAL_A_MPMATH[mn], rel=1e-12)
    assert res.iterations == _WHOLE_WINDOW_EVALS[mn] + 2
    assert res.min_value == expected_loss(res.argmin, cfg)


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


def test_loss_curve_values_are_expected_loss():
    # The curve computes the reference predictive once; its values are
    # expected_loss's, bit for bit.
    cfg = RefDistConfig(m=100, n=1000)
    grid = np.exp(np.linspace(math.log(1e-3), math.log(10.0), 60)).tolist()
    curve = loss_curve(cfg, grid)
    assert curve.grid.points == tuple(grid)
    assert list(curve.grid.values) == [expected_loss(a, cfg) for a in grid]
    res = optimal_a(cfg)
    assert res.min_value == expected_loss(res.argmin, cfg)


def test_loss_curve_rejects_nonpositive_grid():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            loss_curve(RefDistConfig(3, 5), [bad, 1.0])


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


def _normal_risks_mpmath(a, n):
    """d_sigma and d_mu at 60 digits, from their log-gamma forms."""
    lg, dg = mpmath.loggamma, mpmath.digamma
    with mpmath.workdps(60):
        a, n = mpmath.mpf(a), mpmath.mpf(n)
        sigma = (lg((a + n) / 2 - 1) - lg((n - 1) / 2)
                 - (a - 1) / 2 * dg((n - 1) / 2))
        mu = (lg(n / 2) + lg((a + n) / 2 - 1) - lg((n - 1) / 2)
              - lg((a + n - 1) / 2) - (a - 1) / 2 * (dg((n - 1) / 2)
                                                     - dg(n / 2)))
        return float(sigma), float(mu)


# The risks are differences of log-gamma terms that cancel to a value
# of order (a-1)^2/n for d_sigma and (a-1)^2/n^2 for d_mu, so their
# relative error grows with n.  Over n <= 100 the worst measured is
# 1.5e-8, for d_mu(0.7, 100); at n = 1000 d_mu loses 3e-7 to 6e-6
# (the xfail cases below) until the log-gamma differences are summed
# without cancellation.
_NORMAL_RISK_RTOL = 5e-8


@pytest.mark.parametrize("a", [0.3, 0.7, 1.5, 3.0, 10.0])
@pytest.mark.parametrize("n", [3, 10, 100])
def test_normal_risks_mpmath(a, n):
    sigma, mu = _normal_risks_mpmath(a, n)
    assert d_sigma(a, n) == pytest.approx(sigma, rel=_NORMAL_RISK_RTOL,
                                          abs=0.0)
    assert d_mu(a, n) == pytest.approx(mu, rel=_NORMAL_RISK_RTOL, abs=0.0)


@pytest.mark.xfail(strict=True, reason="d_mu cancels at large n")
@pytest.mark.parametrize("a", [0.3, 0.7, 1.5, 3.0])
def test_d_mu_mpmath_large_n(a):
    _, mu = _normal_risks_mpmath(a, 1000)
    assert d_mu(a, 1000) == pytest.approx(mu, rel=_NORMAL_RISK_RTOL,
                                          abs=0.0)


def _d_sigma_mpmath(a, n):
    """d_sigma at 60 digits, its second gamma argument formed as
    (a + (n - 2))/2 so that it keeps a tiny a."""
    lg, dg = mpmath.loggamma, mpmath.digamma
    with mpmath.workdps(60):
        a, y = mpmath.mpf(a), mpmath.mpf(n - 1) / 2
        return lg((a + (n - 2)) / 2) - lg(y) - (a - 1) / 2 * dg(y)


@pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-17, 1e-16, 1e-12, 1e-8,
                               0.01, 3.0])
@pytest.mark.parametrize("n", [2, 3])
def test_normal_risks_mpmath_tiny_a(a, n):
    # At n = 2 the second gamma argument is a/2: as (n - 1)/2 + (a - 1)/2
    # it would round to 0.0 below a = 1.1e-16 and lose digits above.
    sigma = _d_sigma_mpmath(a, n)
    with mpmath.workdps(60):
        mu = sigma - _d_sigma_mpmath(a, n + 1)
    assert d_sigma(a, n) == pytest.approx(float(sigma), rel=1e-13, abs=0.0)
    assert d_mu(a, n) == pytest.approx(float(mu), rel=1e-13, abs=0.0)


def test_normal_risks_domain_ends_where_log_gamma_overflows():
    # log Gamma((n - 2 + a)/2) leaves the float range for a above about
    # 5.1e305 - n.
    assert math.isfinite(d_sigma(5e305, 10))
    assert math.isfinite(d_mu(5e305, 10))
    for fn in (d_sigma, d_mu):
        with pytest.raises(DomainError):
            fn(1e306, 10)


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


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_normal_posterior_rejects_bad_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        normal_posterior_sample(_data(), 1.0, size=10, seed=seed)


def test_normal_posterior_rejects_constant_data():
    # Where the computed mean rounds off the data's value, s^2 is tiny but
    # not 0.0 ([0.1] * 3 has mean 0.10000000000000002): still degenerate.
    for data in ([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], [0.7] * 6,
                 [123.456] * 5, [0.01] * 10, [-3.3] * 7):
        with pytest.raises(DegenerateDataError):
            normal_posterior_sample(data, 1.0, size=10, seed=0)


@pytest.mark.parametrize("data,match", [
    ([1.0, math.nan, 2.0], "finite"), ([1.0, math.inf, 2.0], "finite"),
    ([1e200, -1e200], "overflows"),
    ([1.7e308, 1.7e308, -1.7e308], "overflows")])
def test_normal_posterior_rejects_data_it_cannot_handle(data, match):
    # NaN data gave NaN draws; inf and overflowing n s^2 gave a
    # RuntimeWarning and sigma = inf.
    with pytest.raises(DomainError, match=match):
        normal_posterior_sample(data, 1.0, size=10, seed=0)


def test_normal_posterior_samples_data_of_tiny_spread():
    # At spread 1e-154 the precision draws of the data overflow, and at
    # 1e-170 s^2 underflows to 0.0; both are drawn as x / max|x|, whose
    # draws are those of [1, -1], with sigma scaled back.
    unit = normal_posterior_sample([1.0, -1.0], 1.0, size=1000, seed=0)
    for c in (1e-154, 1e-170):
        d = normal_posterior_sample([c, -c], 1.0, size=1000, seed=0)
        assert (d.sigma > 0.0).all() and np.isfinite(d.sigma).all()
        np.testing.assert_allclose(d.sigma, c * unit.sigma, rtol=5e-16)
        np.testing.assert_allclose(d.mu, c * unit.mu, rtol=1e-15)
    # Constant data stay degenerate on that path; sigma below the
    # smallest subnormal is a draw past the float range.
    for data in ([1e-170, 1e-170], [1e-200] * 3, [0.0, 0.0]):
        with pytest.raises(DegenerateDataError):
            normal_posterior_sample(data, 1.0, size=10, seed=0)
    with pytest.raises(AccuracyError):
        normal_posterior_sample([5e-324, -5e-324], 1.0, size=1000, seed=0)


def test_normal_posterior_draws_pinned():
    # The rescaled path is taken only where it is needed: draws of data of
    # normal spread, and of spread 1e-140, keep the bits they had before
    # it existed.
    for scale, digest in (
            (1.0, "06846d51c55f7c812a50be6538d8b20b"
                  "236d893fec4b8c2f04856d5bac710dd2"),
            (1e-140, "adba911400d1996d5cc3e716dd2489f7"
                     "68438778aa26c70c827624b6fc6ea4b7")):
        d = normal_posterior_sample(_data() * scale, 1.0, size=100, seed=3)
        got = hashlib.sha256(d.mu.tobytes() + d.sigma.tobytes()).hexdigest()
        assert got == digest


def test_phi_draws():
    x = _data()
    d = normal_posterior_sample(x, 1.0, size=50, seed=3)
    phi = phi_posterior_from_sample(d)
    assert np.allclose(phi, d.mu / d.sigma)
