"""Special functions, optimization, and quadrature against independent
oracles (scipy/mpmath) plus property-based checks."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from overallprior.exceptions import (AccuracyError, DomainError,
                                     EvaluationError)
from overallprior.numerics import (Grid1D, digamma, integrate, kl_beta,
                                   kl_numeric, log_gamma, log_rising,
                                   log_rising_ratio, minimize_scalar,
                                   trigamma)

# ---------------------------------------------------------------- specials


@pytest.mark.parametrize("x", [1e-4, 0.1, 0.5, 1.0, 1.5, 2.0, 8.9, 9.1,
                               25.0, 100.0, 1234.5, 1e6])
def test_log_gamma_oracle(x):
    ref = float(sp.gammaln(x))
    assert log_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("x", [1e-3, 0.3, 0.5, 1.0, 2.5, 8.99, 9.01,
                               42.0, 1e4])
def test_digamma_oracle(x):
    ref = float(sp.digamma(x))
    assert digamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.5, 8.99, 9.01, 42.0, 1e4])
def test_trigamma_oracle(x):
    ref = float(sp.polygamma(1, x))
    assert trigamma(x) == pytest.approx(ref, rel=1e-11, abs=1e-10)


def test_trigamma_tiny_argument_relative():
    # psi'(1e-4) ~ 1e8; only relative accuracy is meaningful there.
    assert trigamma(1e-4) == pytest.approx(float(sp.polygamma(1, 1e-4)),
                                           rel=1e-12)


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_specials_reject_nonpositive(fn, x):
    with pytest.raises(DomainError):
        fn(x)


# Log-spaced over [1e-8, 1e12], plus points at and next to the
# rising-factorial lengths below, where log_rising switches form.
_WIDE_X = sorted(set(np.exp(np.linspace(math.log(1e-8), math.log(1e12),
                                        25)).tolist()
                     + [0.5, 1.0, 6.5, 7.0, 59.9, 60.0, 999.0, 1000.0]))


def test_log_gamma_mpmath_wide_range():
    with mpmath.workdps(50):
        for x in _WIDE_X:
            ref = float(mpmath.loggamma(x))
            assert log_gamma(x) == pytest.approx(ref, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", [0, 1, 7, 60, 1000])
def test_log_rising_mpmath(k):
    with mpmath.workdps(50):
        for x in _WIDE_X:
            base = mpmath.loggamma(x)
            ref = np.array([float(mpmath.loggamma(x + j) - base)
                            for j in range(k + 1)])
            got = log_rising(x, k)
            assert got.shape == (k + 1,)
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)


def test_log_rising_array_rows_match_scalar_calls():
    # Rows below and above x = k take the two different forms.
    x = np.array([[1e-8, 0.3, 59.0], [60.0, 1e3, 1e12]])
    got = log_rising(x, 60)
    assert got.shape == (2, 3, 61)
    for idx in np.ndindex(x.shape):
        np.testing.assert_array_equal(got[idx], log_rising(x[idx], 60))


def test_log_rising_domain():
    with pytest.raises(DomainError):
        log_rising(0.0, 3)
    with pytest.raises(DomainError):
        log_rising(np.array([1.0, -1.0]), 3)
    with pytest.raises(DomainError):
        log_rising(1.0, -1)


@pytest.mark.parametrize("x,y", [(1e-6, 0.5), (0.08, 0.5), (10.0, 0.5),
                                 (0.5, 1.0), (1e3, 1.0), (1e-8, 1.0),
                                 (5e5, 5e5 + 1e-3), (1.0, 1e12)])
@pytest.mark.parametrize("k", [0, 1, 60, 1000])
def test_log_rising_ratio_mpmath(x, y, k):
    with mpmath.workdps(50):
        base = mpmath.loggamma(x) - mpmath.loggamma(y)
        ref = np.array([float(mpmath.loggamma(x + j)
                              - mpmath.loggamma(y + j) - base)
                        for j in range(k + 1)])
    np.testing.assert_allclose(log_rising_ratio(x, y, k), ref,
                               rtol=1e-13, atol=1e-14)


def test_log_rising_ratio_domain():
    with pytest.raises(DomainError):
        log_rising_ratio(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        log_rising_ratio(1.0, -1.0, 3)


def test_digamma_array_matches_scalar_and_scipy():
    x = np.exp(np.linspace(math.log(1e-8), math.log(1e12), 400))
    got = digamma(x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, [digamma(float(v)) for v in x],
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(got, sp.digamma(x), rtol=1e-14, atol=1e-14)
    grid = x.reshape(20, 20)
    np.testing.assert_array_equal(digamma(grid), got.reshape(20, 20))


def test_digamma_array_rejects_nonpositive_entries():
    with pytest.raises(DomainError):
        digamma(np.array([1.0, 0.0]))


@given(st.floats(0.01, 50.0))
@settings(max_examples=80, deadline=None)
def test_digamma_is_log_gamma_derivative(x):
    h = 1e-6 * max(1.0, x)
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
    assert digamma(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------- kl_beta


def _kl_beta_quad(a0, b0, a, b):
    """Independent numeric oracle: directed divergence of Be(a0,b0)
    from Be(a,b) by quadrature."""
    def f(x):
        lp = (sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)
              + (a - 1) * np.log(x) + (b - 1) * np.log1p(-x))
        lq = (sp.gammaln(a0 + b0) - sp.gammaln(a0) - sp.gammaln(b0)
              + (a0 - 1) * np.log(x) + (b0 - 1) * np.log1p(-x))
        return np.exp(lp) * (lp - lq)
    val, _ = scipy.integrate.quad(f, 0.0, 1.0, limit=200)
    return val


@pytest.mark.parametrize("args", [
    (0.5, 0.5, 2.0, 3.0),
    (1.0, 1.0, 1.0, 1.0),
    (2.5, 100.5, 2.0, 101.0),
])
def test_kl_beta_matches_quadrature(args):
    a0, b0, a, b = args
    assert kl_beta(a0, b0, a, b) == pytest.approx(
        _kl_beta_quad(a0, b0, a, b), rel=1e-8, abs=1e-10)


def test_kl_beta_double_singularity_mpmath_oracle():
    # Both densities unbounded at both endpoints; scipy.quad cannot
    # converge here, so use high-precision quadrature instead.
    a0, b0, a, b = 0.1, 0.2, 0.3, 0.4

    def f(x):
        x = mpmath.mpf(x)
        lp = (mpmath.loggamma(a + b) - mpmath.loggamma(a)
              - mpmath.loggamma(b) + (a - 1) * mpmath.log(x)
              + (b - 1) * mpmath.log(1 - x))
        lq = (mpmath.loggamma(a0 + b0) - mpmath.loggamma(a0)
              - mpmath.loggamma(b0) + (a0 - 1) * mpmath.log(x)
              + (b0 - 1) * mpmath.log(1 - x))
        return mpmath.e ** lp * (lp - lq)

    with mpmath.workdps(40):
        ref = float(mpmath.quad(f, [0, 0.5, 1]))
    assert kl_beta(a0, b0, a, b) == pytest.approx(ref, rel=1e-9)


@given(st.floats(0.05, 50), st.floats(0.05, 50),
       st.floats(0.05, 50), st.floats(0.05, 50))
@settings(max_examples=120, deadline=None)
def test_kl_beta_nonnegative(a0, b0, a, b):
    assert kl_beta(a0, b0, a, b) >= -1e-12


@given(st.floats(0.05, 50), st.floats(0.05, 50))
@settings(max_examples=60, deadline=None)
def test_kl_beta_zero_iff_same(a, b):
    assert kl_beta(a, b, a, b) == pytest.approx(0.0, abs=1e-12)


def test_kl_beta_rejects_nonpositive_parameters():
    with pytest.raises(DomainError):
        kl_beta(0.0, 1.0, 1.0, 1.0)


def test_kl_numeric_matches_closed_form():
    xs = np.linspace(1e-6, 1 - 1e-6, 200001)
    def beta_pdf(a, b):
        return np.exp(sp.gammaln(a + b) - sp.gammaln(a) - sp.gammaln(b)
                      + (a - 1) * np.log(xs) + (b - 1) * np.log1p(-xs))
    p = Grid1D(points=tuple(xs), values=tuple(beta_pdf(2.0, 3.0)))
    q = Grid1D(points=tuple(xs), values=tuple(beta_pdf(3.0, 2.0)))
    assert kl_numeric(p, q) == pytest.approx(kl_beta(3.0, 2.0, 2.0, 3.0),
                                             rel=1e-4)


# ---------------------------------------------------------------- optimize


def test_minimize_quadratic():
    res = minimize_scalar(lambda t: (t - 1.25) ** 2 + 3.0, -10, 10, tol=1e-10)
    assert res.converged
    assert res.argmin == pytest.approx(1.25, abs=1e-7)
    assert res.min_value == pytest.approx(3.0, abs=1e-12)


def test_minimize_nonsmooth():
    res = minimize_scalar(lambda t: abs(t - 0.3), -2, 2, tol=1e-9)
    assert res.argmin == pytest.approx(0.3, abs=1e-6)


def test_minimize_rejects_nonfinite_objective():
    with pytest.raises(EvaluationError):
        minimize_scalar(lambda t: math.nan, 0.0, 1.0)


# ---------------------------------------------------------------- integrate


def test_integrate_polynomial_exact():
    assert integrate(lambda x: 3 * x * x, 0, 10, tol=1e-12) == \
        pytest.approx(1000.0, rel=1e-12)


def test_integrate_endpoint_singularity():
    assert integrate(lambda x: x ** -0.5, 0, 1, tol=1e-10) == \
        pytest.approx(2.0, rel=1e-9)


def test_integrate_improper_exponential():
    assert integrate(lambda x: math.exp(-x), 0, math.inf, tol=1e-12) == \
        pytest.approx(1.0, rel=1e-10)


def test_integrate_heavy_tail():
    # 1/(1+x)^2 integrates to 1 over the half line.
    assert integrate(lambda x: (1 + x) ** -2, 0, math.inf, tol=1e-11) == \
        pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("center,width", [(30, 5), (100, 10), (999, 30)])
def test_integrate_distant_peak_not_missed(center, width):
    # Gaussian bumps well away from the origin on the half line.
    val = integrate(lambda x: math.exp(-0.5 * ((x - center) / width) ** 2),
                    0, math.inf, tol=1e-9)
    assert val == pytest.approx(width * math.sqrt(2 * math.pi), rel=1e-6)


def test_integrate_reports_failure_with_best_estimate():
    rng = np.random.default_rng(1)
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: float(rng.normal()), 0, 1, tol=1e-14)
    assert exc.value.best_estimate is not None


def test_integrate_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


# ---------------------------------------------------------------- Grid1D


def test_grid_requires_increasing_points():
    with pytest.raises(DomainError):
        Grid1D(points=(0.0, 0.0, 1.0), values=(1.0, 1.0, 1.0))


def test_grid_requires_finite_values():
    with pytest.raises(DomainError):
        Grid1D(points=(0.0, 1.0), values=(1.0, math.inf))
