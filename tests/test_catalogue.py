"""Catalogue of closed-form overall priors: values, normalizers,
reparametrizations, and the right-Haar averaging identity."""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from overallprior.catalogue import (ENTRIES, BvnParams, DiagFisherSpec,
                                    bivariate_binomial_prior,
                                    directional_multinomial_prior,
                                    eta_to_theta_psi, expfam_prior,
                                    gamma_expfam_curvatures,
                                    gamma_mean_prior,
                                    haar_arithmetic_average,
                                    haar_geometric_average,
                                    inverse_gamma_expfam_curvatures,
                                    inverse_gaussian_expfam_curvatures,
                                    inverse_gaussian_prior,
                                    normal_expfam_curvatures,
                                    right_haar_density,
                                    stress_strength_prior, theorem1_prior,
                                    theta_psi_to_eta, theta_to_xi,
                                    xi_to_theta)
from overallprior.exceptions import DomainError, SingularityError

# ---------------------------------------------------------- theorem-1 form


def test_theorem1_prior_is_product_of_roots():
    spec = DiagFisherSpec(f_list=(lambda t: 1.0 / (t * (1 - t)),
                                  lambda t: 1.0 / t))
    val = theorem1_prior(spec, [0.25, 4.0])
    assert val == pytest.approx(math.sqrt(1.0 / (0.25 * 0.75) * 0.25),
                                rel=1e-14)


def test_theorem1_prior_validation():
    spec = DiagFisherSpec(f_list=(lambda t: t,))
    with pytest.raises(DomainError):
        theorem1_prior(spec, [1.0, 2.0])
    with pytest.raises(DomainError):
        theorem1_prior(spec, [-1.0])


@pytest.mark.parametrize("theta", [[1e300, 1e300, 1e300], [1e300, 1e-300],
                                   [5e-324, 5e-324], [5e-324, 1e308],
                                   [0.3, 7.0, 1e-5, 2e10], [3e-200] * 3])
def test_theorem1_prior_mpmath(theta):
    # sqrt(prod f_i) with identity factors: within a few ulps of 50-digit
    # mpmath wherever it is a normal float, inf above the float range
    # (1e450 for three factors of 1e300) and 0.0 below it.
    spec = DiagFisherSpec(f_list=(float,) * len(theta))
    with mpmath.workdps(50):
        ref = mpmath.sqrt(mpmath.fprod(mpmath.mpf(t) for t in theta))
    got = theorem1_prior(spec, theta)
    if ref > sys.float_info.max:
        assert got == math.inf
    elif ref < sys.float_info.min:
        assert got < sys.float_info.min
    else:
        assert got == pytest.approx(float(ref), rel=1e-15, abs=0.0)


# ----------------------------------------------------- bivariate binomial


def test_bivariate_binomial_value():
    assert bivariate_binomial_prior(0.5, 0.5) == pytest.approx(4.0)


def test_bivariate_binomial_normalizer_is_pi_squared():
    val, _ = scipy.integrate.dblquad(bivariate_binomial_prior,
                                     0.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(math.pi ** 2, rel=1e-8)


def test_bivariate_binomial_boundary():
    with pytest.raises(SingularityError):
        bivariate_binomial_prior(0.0, 0.5)


def test_bivariate_binomial_fisher_information_oracle():
    # Monte-Carlo score covariance of the sequential model
    # x1 ~ Bin(n, theta1), x2 | x1 ~ Bin(x1, theta2): the Fisher matrix
    # is n diag(1/(t1(1-t1)), t1/(t2(1-t2))), so the prior above is
    # Jeffreys in theta1 and conditional-Jeffreys in theta2.
    rng = np.random.default_rng(77)
    n, t1, t2 = 30, 0.3, 0.6
    x1 = rng.binomial(n, t1, size=400000)
    x2 = rng.binomial(x1, t2)
    s1 = x1 / t1 - (n - x1) / (1 - t1)
    s2 = x2 / t2 - (x1 - x2) / (1 - t2)
    cov = np.cov(np.vstack([s1, s2]))
    assert cov[0, 0] == pytest.approx(n / (t1 * (1 - t1)), rel=0.02)
    assert cov[1, 1] == pytest.approx(n * t1 / (t2 * (1 - t2)), rel=0.02)
    assert abs(cov[0, 1]) < 0.02 * cov[1, 1]


# ------------------------------------------------ directional multinomial


def test_directional_prior_value():
    assert directional_multinomial_prior([0.5, 0.5]) == pytest.approx(4.0)


def test_theta_xi_roundtrip():
    theta = np.array([0.1, 0.25, 0.3, 0.35])
    xi = theta_to_xi(theta)
    assert np.allclose(xi_to_theta(xi), theta, atol=1e-15)
    assert xi[0] == pytest.approx(0.1)
    assert xi[-1] == pytest.approx(0.3 / 0.65)


def test_directional_prior_jacobian_oracle():
    # Pushing the xi-density through xi -> theta (m = 3) must give
    # a Dirichlet-like kernel; check against a numerical Jacobian.
    theta = np.array([0.2, 0.5, 0.3])
    xi = theta_to_xi(theta)
    h = 1e-7
    jac = np.empty((2, 2))
    for j in range(2):
        tp = theta.copy()
        tp[j] += h
        tp[2] -= h  # stay on the simplex
        jac[:, j] = (theta_to_xi(tp) - xi) / h
    induced = directional_multinomial_prior(xi) * abs(np.linalg.det(jac))
    # Exact push-forward: the Jacobian det is 1/(1-theta1) and
    # xi2(1-xi2) = theta2 theta3/(1-theta1)^2, so the induced density
    # is {theta1(1-theta1) theta2 theta3}^{-1/2}.
    expected = (theta[0] * (1 - theta[0]) * theta[1] * theta[2]) ** -0.5
    assert induced == pytest.approx(expected, rel=1e-5)


def test_parametrization_validation():
    with pytest.raises(DomainError):
        theta_to_xi([0.5, 0.6])
    with pytest.raises(DomainError):
        xi_to_theta([0.5, 1.0])
    with pytest.raises(SingularityError):
        directional_multinomial_prior([0.5, 1.0])


# ------------------------------------------------- two-parameter expfam


def test_normal_expfam_reduces_to_one_over_sigma():
    # theta1 = -1/(2 sigma^2), theta2 = mu/sigma^2; the natural-space
    # prior sqrt(G1'' G2'') = sqrt(1/(2 t1^2) * 2) = 1/|t1| is, up to
    # the (theta -> (mu, sigma)) Jacobian 1/sigma^5, proportional to
    # the reference prior 1/sigma in (mu, sigma).
    g1pp, g2pp = normal_expfam_curvatures()
    for sigma in (0.5, 1.0, 3.0):
        t1 = -0.5 / sigma ** 2
        natural = expfam_prior(g1pp, g2pp, t1, 0.7)
        assert natural == pytest.approx(2.0 * sigma ** 2, rel=1e-12)
        assert natural / sigma ** 5 * 0.5 == pytest.approx(1.0 / sigma ** 3)


def test_inverse_gaussian_closed_form():
    g1pp, g2pp = inverse_gaussian_expfam_curvatures()
    assert expfam_prior(g1pp, g2pp, -2.0, 1.0) == pytest.approx(
        math.sqrt(0.5 / 4.0 * 2.0), rel=1e-14)
    assert inverse_gaussian_prior(4.0, 1.0) == pytest.approx(0.25)


def test_gamma_mean_prior_value():
    # alpha = mu = 1: sqrt(trigamma(1) - 1) = sqrt(pi^2/6 - 1).
    assert gamma_mean_prior(1.0, 1.0) == pytest.approx(
        math.sqrt(math.pi ** 2 / 6.0 - 1.0), rel=1e-12)
    assert gamma_mean_prior(1.0, 1.0) == pytest.approx(0.80308, abs=5e-6)


def test_gamma_mean_prior_mpmath_sweep():
    # alpha trigamma(alpha) - 1 is about 1/(2 alpha): as a direct
    # difference it loses log10(alpha) digits, and the oracle carries
    # that many extra.  alpha = 9 is where the series form takes over.
    mu = 0.5
    for alpha in np.logspace(-3, 300, 304).tolist() + [9.0]:
        with mpmath.workdps(50 + max(0, int(math.log10(alpha)))):
            a = mpmath.mpf(alpha)
            ref = float(mpmath.sqrt(a * mpmath.psi(1, a) - 1)
                        / (mpmath.sqrt(a) * mu))
        assert gamma_mean_prior(alpha, mu) == pytest.approx(ref, rel=1e-13,
                                                            abs=0.0)


def test_gamma_expfam_consistent_with_closed_form():
    g1pp, g2pp = gamma_expfam_curvatures()
    alpha, mu = 2.5, 3.0
    natural = expfam_prior(g1pp, g2pp, -alpha, mu)
    assert natural == pytest.approx(
        math.sqrt((float(sp.polygamma(1, alpha)) - 1 / alpha) / mu ** 2),
        rel=1e-10)
    # sqrt(alpha trigamma(alpha) - 1)/(sqrt(alpha) mu) is the same
    # number as sqrt((trigamma(alpha) - 1/alpha)) / mu.
    assert gamma_mean_prior(alpha, mu) == pytest.approx(natural, rel=1e-10)


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 8.99, 9.0, 1e8, 1e12, 1e15,
                                   1e17, 1e300])
def test_gamma_expfam_curvature_mpmath(alpha):
    # G1'' = trigamma(alpha) - 1/alpha cancels like alpha trigamma(alpha)
    # - 1 in gamma_mean_prior and shares its series form from alpha = 9.
    # At alpha = 1e300 the value, 5e-601, rounds to 0 in both.
    with mpmath.workdps(50 + max(0, int(math.log10(alpha)))):
        a = mpmath.mpf(alpha)
        ref = float(mpmath.psi(1, a) - 1 / a)
    g1pp, _ = gamma_expfam_curvatures()
    assert g1pp(-alpha) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_gamma_expfam_prior_at_large_alpha():
    # The direct difference trigamma(alpha) - 1/alpha was exactly 0 here,
    # so this valid point raised DomainError.
    g1pp, g2pp = gamma_expfam_curvatures()
    value = expfam_prior(g1pp, g2pp, -1e17, 1.0)
    assert math.isfinite(value) and value > 0.0
    assert value == pytest.approx(math.sqrt(0.5) / 1e17, rel=1e-13,
                                  abs=0.0)


def test_inverse_gamma_matches_gamma():
    g1, g2 = gamma_expfam_curvatures()
    h1, h2 = inverse_gamma_expfam_curvatures()
    assert expfam_prior(g1, g2, -1.5, 2.0) == \
        expfam_prior(h1, h2, -1.5, 2.0)


def test_expfam_domain_errors():
    g1pp, g2pp = normal_expfam_curvatures()
    with pytest.raises(DomainError):
        expfam_prior(g1pp, g2pp, 1.0, 1.0)
    with pytest.raises(DomainError, match="must be positive"):
        expfam_prior(g1pp, lambda t: -1.0, -1.0, 1.0)


def test_expfam_prior_curvature_past_the_float_range():
    # The prior 1e200 at the normal point, and 1/sqrt(1e150) at the
    # inverse-Gaussian one, are floats; a curvature, 2e400 and 2e-450,
    # is not, so each point raises a DomainError that names it.
    g1pp, g2pp = normal_expfam_curvatures()
    with pytest.raises(DomainError, match=r"G1'' = inf .*float range"):
        expfam_prior(g1pp, g2pp, -1e-200, 1.0)
    g1pp, g2pp = inverse_gaussian_expfam_curvatures()
    with pytest.raises(DomainError, match=r"G2'' = 0.0 .*float range"):
        expfam_prior(g1pp, g2pp, -1e-150, 1e150)


# --------------------------------------------------------- stress-strength


def test_stress_strength_value():
    assert stress_strength_prior(0.5, 1.0) == pytest.approx(4.0)
    with pytest.raises(SingularityError):
        stress_strength_prior(1.0, 1.0)
    with pytest.raises(SingularityError):
        stress_strength_prior(0.5, 0.0)


def test_eta_parametrization_roundtrip():
    m, n = 5, 7
    for eta in ((1.0, 2.0), (0.3, 0.3), (10.0, 0.1)):
        theta, psi = eta_to_theta_psi(*eta, m, n)
        back = theta_psi_to_eta(theta, psi, m, n)
        assert back[0] == pytest.approx(eta[0], rel=1e-12)
        assert back[1] == pytest.approx(eta[1], rel=1e-12)


@pytest.mark.parametrize("eta1,eta2,m,n", [
    (1e200, 1e-200, 1, 1), (1e300, 1e300, 1, 1), (1e308, 1e308, 3, 2),
    (5e-324, 1e308, 1, 1), (1e-300, 1e-300, 1000, 1), (2.5, 0.3, 7, 5),
    (1e10, 1e-10, 1, 1000)])
def test_eta_to_theta_psi_mpmath(eta1, eta2, m, n):
    # theta to rounding; psi within its docstring's bound,
    # 3 * 2^-53 max(1, |L1| + |L2|) relative, inf above the float range
    # and 0.0 below it.  At (1e200, 1e-200, 1, 1) psi is 1 to 1e-13.
    with mpmath.workdps(50):
        e1, e2 = mpmath.mpf(eta1), mpmath.mpf(eta2)
        terms = (mpmath.mpf(m + n) / n * mpmath.log(e1),
                 mpmath.mpf(m + n) / m * mpmath.log(e2))
        ref_psi = mpmath.exp(sum(terms))
        ref_theta = float(e1 / (e1 + e2))
        bound = 3 * 2.0 ** -53 * max(1.0, float(sum(map(abs, terms))))
    theta, psi = eta_to_theta_psi(eta1, eta2, m, n)
    assert theta == pytest.approx(ref_theta, rel=4e-16, abs=0.0)
    if ref_psi > sys.float_info.max:
        assert psi == math.inf
    elif ref_psi < sys.float_info.min:
        assert psi < sys.float_info.min
    else:
        assert psi == pytest.approx(float(ref_psi), rel=bound, abs=0.0)
    if (eta1, eta2) == (1e200, 1e-200):
        assert abs(psi - 1.0) <= 1e-13


def test_theta_psi_to_eta_past_the_float_range():
    # eta2 = r^{-m/(m+n)} psi^{mn/(m+n)^2}, about e^743.7 here: inf, and
    # eta1 = r eta2, about 1e-1, stays finite.
    eta1, eta2 = theta_psi_to_eta(5e-324, 1.0, 1000, 1)
    assert eta2 == math.inf
    with mpmath.workdps(50):
        r = mpmath.mpf(5e-324) / (1 - mpmath.mpf(5e-324))
        ref = float(r ** (mpmath.mpf(1) / 1001))
    assert eta1 == pytest.approx(ref, rel=1e-12)
    with pytest.raises(DomainError):
        theta_psi_to_eta(0.5, 1.0, 0, 1)


def test_stress_strength_is_jeffreys_in_rates():
    # In the rate parametrization the prior is 1/(eta1 eta2); pushing
    # 1/{theta(1-theta)psi} back through the map must reproduce it.
    m = n = 5
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta1, eta2 = rng.uniform(0.2, 5.0, size=2)
        theta, psi = eta_to_theta_psi(eta1, eta2, m, n)
        h = 1e-6
        jac = np.empty((2, 2))
        for j, d in enumerate(((h, 0.0), (0.0, h))):
            tp = eta_to_theta_psi(eta1 + d[0], eta2 + d[1], m, n)
            jac[:, j] = [(tp[0] - theta) / h, (tp[1] - psi) / h]
        induced = stress_strength_prior(theta, psi) * abs(np.linalg.det(jac))
        # proportional to 1/(eta1 eta2); the constant is (m+n)^2/(m n)
        assert induced == pytest.approx(
            (m + n) ** 2 / (m * n) / (eta1 * eta2), rel=1e-4)


# ---------------------------------------------------------- right Haar


def _params():
    return BvnParams(0.3, -1.0, 1.5, 0.7, 0.4)


def test_right_haar_endpoints():
    p = _params()
    d = 1 - p.rho ** 2
    assert right_haar_density(p, 0.0) == pytest.approx(
        1.0 / (p.sigma1 ** 2 * d), rel=1e-14)
    assert right_haar_density(p, math.pi / 2) == pytest.approx(
        1.0 / (p.sigma2 ** 2 * d), rel=1e-12)


def test_uniform_beta_average_identity():
    # (1/pi) int_0^pi right_haar dbeta equals the arithmetic average of
    # the two endpoint priors, with the same constant c = 1 at every
    # parameter point.
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = BvnParams(0.0, 0.0, float(rng.uniform(0.2, 4)),
                      float(rng.uniform(0.2, 4)),
                      float(rng.uniform(-0.9, 0.9)))
        avg, _ = scipy.integrate.quad(
            lambda b: right_haar_density(p, b), 0.0, math.pi)
        avg /= math.pi
        assert abs(avg / haar_arithmetic_average(p) - 1.0) < 1e-10


def test_geometric_average_is_root_product():
    p = _params()
    d = 1 - p.rho ** 2
    pi1 = 1.0 / (p.sigma1 ** 2 * d)
    pi2 = 1.0 / (p.sigma2 ** 2 * d)
    assert haar_geometric_average(p) == pytest.approx(
        math.sqrt(pi1 * pi2), rel=1e-14)


def test_bvn_params_validation():
    with pytest.raises(DomainError):
        BvnParams(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        BvnParams(0.0, 0.0, 1.0, 1.0, 1.0)


# ------------------------------------------------------------- registry


def test_entries_registry():
    assert set(ENTRIES) == {
        "bivariate-binomial", "directional-multinomial",
        "inverse-gaussian", "gamma-expfam", "stress-strength",
        "right-haar", "arithmetic-average", "geometric-average"}
    fn, _, proper, nargs = ENTRIES["bivariate-binomial"]
    assert proper is True and nargs == 2
    assert fn([0.5, 0.5]) == pytest.approx(4.0)
    fn, _, proper, nargs = ENTRIES["geometric-average"]
    assert proper is False and nargs == 3
    assert fn([1.0, 1.0, 0.0]) == pytest.approx(1.0)
    assert ENTRIES["directional-multinomial"][3] is None


# ------------------------------------------- extreme valid arguments

_ONE_LESS = 1.0 - 2.0 ** -53   # the float just below 1


def _mp_right_haar(beta, s1, s2, rho):
    s, c = mpmath.sin(beta), mpmath.cos(beta)
    return ((s * s * s1 ** 2 + c * c * s2 ** 2 + 2 * s * c * rho * s1 * s2)
            / (s1 ** 2 * s2 ** 2 * (1 - rho ** 2)))


# name -> (60-digit reference, points).  Points whose value leaves the
# float range must give inf (or 0), as the reference does when rounded.
_EXTREMES = {
    "bivariate-binomial": (
        lambda t1, t2: 1 / mpmath.sqrt(t1 * (1 - t1) * t2 * (1 - t2)),
        [(1e-320, 1e-320), (5e-324, 0.5), (1e-300, 1e-300),
         (_ONE_LESS, _ONE_LESS)]),
    "directional-multinomial": (
        lambda *xi: mpmath.fprod(1 / mpmath.sqrt(x * (1 - x)) for x in xi),
        [(5e-324,), (1e-320, 1e-320), (1e-160, 0.5, _ONE_LESS)]),
    "inverse-gaussian": (
        lambda a, p: 1 / (a * mpmath.sqrt(p)),
        [(1e-320, 1e-320), (5e-324, 1.0), (1e-300, 1e300),
         (1.7e308, 1.7e308)]),
    "gamma-expfam": (
        lambda a, mu: mpmath.sqrt(a * mpmath.psi(1, a) - 1)
        / (mpmath.sqrt(a) * mu),
        [(1e-320, 1e-320), (1e-200, 1.0), (5e-324, 1.7e308),
         (0.5, 5e-324), (3.0, 1e300)]),
    "stress-strength": (
        lambda t, p: 1 / (t * (1 - t) * p),
        [(1e-320, 1e-320), (_ONE_LESS, 1e-300), (0.5, 1.7e308)]),
    "right-haar": (
        _mp_right_haar,
        [(0.7, 1e-320, 1e-320, -0.5), (0.7, 1e-200, 1e-200, 0.5),
         (0.0, 1e-200, 1.0, 0.0), (2.0, 5e-324, 1.7e308, _ONE_LESS),
         (1e300, 1.0, 1.0, -_ONE_LESS), (1.0, 1e150, 1e-150, 0.3)]),
    "arithmetic-average": (
        lambda s1, s2, rho: (1 / s1 ** 2 + 1 / s2 ** 2) / (2 * (1 - rho ** 2)),
        [(1e-200, 1.0, 0.0), (5e-324, 5e-324, _ONE_LESS),
         (1.7e308, 1.7e308, 0.0), (1e150, 1e-150, -0.5)]),
    "geometric-average": (
        lambda s1, s2, rho: 1 / (s1 * s2 * (1 - rho ** 2)),
        [(1e-200, 1e-200, 0.0), (5e-324, 1.7e308, -_ONE_LESS),
         (1.7e308, 1.7e308, 0.5), (1e-160, 1e-150, 0.0)]),
}


def test_extremes_cover_every_entry():
    assert set(_EXTREMES) == set(ENTRIES)


@pytest.mark.parametrize("name", sorted(_EXTREMES))
def test_entries_at_extreme_valid_arguments(name):
    # Each point is valid; products of tiny factors used to underflow to 0
    # and raise ZeroDivisionError.  A value past the float range is inf.
    fn = ENTRIES[name][0]
    ref_fn, points = _EXTREMES[name]
    for point in points:
        with mpmath.workdps(60):
            ref = float(ref_fn(*(mpmath.mpf(v) for v in point)))
        got = fn(list(point))
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), point


@pytest.mark.parametrize("family, g1, g2", [
    ("normal", lambda t: 1 / (2 * t * t), lambda t: mpmath.mpf(2)),
    ("inverse-gaussian", lambda t: 1 / (2 * t * t), lambda t: 2 / t ** 3),
    ("gamma", lambda t: mpmath.psi(1, -t) + 1 / t, lambda t: 1 / (t * t)),
])
def test_expfam_prior_at_extreme_arguments(family, g1, g2):
    # Each curvature is a float at these points, but their product
    # underflows or overflows: it used to give 0 or inf.
    curvatures = {"normal": normal_expfam_curvatures,
                  "inverse-gaussian": inverse_gaussian_expfam_curvatures,
                  "gamma": gamma_expfam_curvatures}[family]()
    for t1, t2 in ((-1e100, 1e100), (-1e-100, 1e-100), (-3e-103, 3e-103)):
        with mpmath.workdps(400):
            t1m, t2m = mpmath.mpf(t1), mpmath.mpf(t2)
            ref = float(mpmath.sqrt(g1(t1m) * g2(t2m)))
        assert expfam_prior(*curvatures, t1, t2) == pytest.approx(
            ref, rel=1e-13, abs=0.0), (t1, t2)


@pytest.mark.parametrize("name, point", [
    ("right-haar", (math.inf, 1.0, 1.0, 0.0)),
    ("right-haar", (math.nan, 1.0, 1.0, 0.0)),
    ("right-haar", (0.5, math.inf, 1.0, 0.0)),
    ("arithmetic-average", (1.0, math.inf, 0.0)),
    ("geometric-average", (1e-320, math.inf, 0.0)),
    ("inverse-gaussian", (math.inf, 1.0)),
    ("gamma-expfam", (1e-320, math.inf)),
    ("stress-strength", (1e-320, math.inf)),
])
def test_entries_reject_non_finite_arguments(name, point):
    with pytest.raises(DomainError):
        ENTRIES[name][0](list(point))
