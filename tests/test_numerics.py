"""Special functions and the root finder against independent
oracles (scipy/mpmath) plus property-based checks."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overallprior.exceptions import AccuracyError, DomainError
from overallprior.numerics import (Grid1D, _find_root, _log1p_sum, digamma,
                                   kl_beta, log_gamma, log_rising_ratio,
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


@pytest.mark.parametrize("fn, order", [(digamma, 0), (trigamma, 1)])
@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, 1e-300, 1e-200,
                               1e-160, 1e-150, 1e300])
def test_polygamma_at_extreme_arguments(fn, order, x):
    # psi(x) ~ -1/x and psi'(x) ~ 1/x^2 leave the float range at tiny x:
    # the value is then -inf or inf, with no ZeroDivisionError or
    # overflow warning on the way.
    with mpmath.workdps(30):
        ref = float(mpmath.psi(order, x))
    assert fn(x) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_specials_reject_nonpositive(fn, x):
    with pytest.raises(DomainError):
        fn(x)


# Log-spaced over [1e-8, 1e12], plus points at and next to integers
# and half-integers, where log Gamma is a log factorial or nearly one.
_WIDE_X = sorted(set(np.exp(np.linspace(math.log(1e-8), math.log(1e12),
                                        25)).tolist()
                     + [0.5, 1.0, 6.5, 7.0, 59.9, 60.0, 999.0, 1000.0]))


def test_log_gamma_mpmath_wide_range():
    with mpmath.workdps(50):
        for x in _WIDE_X:
            ref = float(mpmath.loggamma(x))
            assert log_gamma(x) == pytest.approx(ref, rel=1e-14, abs=1e-14)


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


@pytest.mark.parametrize("x,y", [(1e-300, 0.5), (1.0, 1e302)])
def test_log_rising_ratio_ratio_term_of_minus_one(x, y):
    # (x - y)/(y + i) rounds to -1: the log of the ratio is taken
    # directly, with no log1p(-1) and so no RuntimeWarning.
    k = 1000
    with mpmath.workdps(50):
        terms = [mpmath.log((x + mpmath.mpf(i)) / (y + mpmath.mpf(i)))
                 for i in range(k)]
        ref = [0.0] + [float(v) for v in np.cumsum(terms)]
    np.testing.assert_allclose(log_rising_ratio(x, y, k), ref,
                               rtol=1e-13, atol=1e-14)


def _log_rising_ratio_mpmath(x, y, k):
    with mpmath.workdps(40):
        terms = [mpmath.log(x + mpmath.mpf(i)) - mpmath.log(y + mpmath.mpf(i))
                 for i in range(k)]
        return np.array([0.0] + [float(v) for v in np.cumsum(terms)])


@pytest.mark.parametrize("x,y", [(1.0, 5e-323), (1.0, 5e-324), (3.0, 1e-310),
                                 (1e300, 1e-10), (5e-324, 1.0),
                                 (5e-324, 1e300), (1e-300, 1.7e308)])
def test_log_rising_ratio_ratio_out_of_float_range(x, y):
    # x/y past 2^1000 (overflow of x/y - 1 at a subnormal y), or a ratio
    # (x + i)/(y + i) below the normal range: those entries are
    # log(x + i) - log(y + i), finite and with no RuntimeWarning.
    k = 5
    got = log_rising_ratio(x, y, k)
    np.testing.assert_allclose(got, _log_rising_ratio_mpmath(x, y, k),
                               rtol=1e-14, atol=0.0)
    if (x, y) == (1.0, 5e-323):
        assert round(got[1], 2) == 742.14


def test_log_rising_ratio_domain():
    with pytest.raises(DomainError):
        log_rising_ratio(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        log_rising_ratio(1.0, -1.0, 3)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            log_rising_ratio(bad, 1.0, 3)
        with pytest.raises(DomainError):
            log_rising_ratio(1.0, bad, 3)


def test_digamma_array_matches_scalar_and_scipy():
    x = np.exp(np.linspace(math.log(1e-8), math.log(1e12), 400))
    got = digamma(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got, [digamma(float(v)) for v in x])
    np.testing.assert_allclose(got, sp.digamma(x), rtol=1e-14, atol=1e-14)
    grid = x.reshape(20, 20)
    np.testing.assert_array_equal(digamma(grid), got.reshape(20, 20))


# Log-uniform over [1e-300, 1e300] (fixed seed), the float next to the
# series cutoff 9 on each side, and the integers 1 to 20.
_DIGAMMA_SWEEP = np.concatenate([
    10.0 ** np.random.default_rng(17).uniform(-300, 300, 2000),
    [math.nextafter(9.0, 0.0), 9.0, math.nextafter(9.0, 10.0)],
    np.arange(1.0, 21.0)])


def test_digamma_float_path_matches_scipy():
    # Relative, or absolute where |psi(x)| < 1: near the zero of psi at
    # 1.4616 the value is a difference of terms near 2.
    got = np.array([digamma(float(x)) for x in _DIGAMMA_SWEEP])
    np.testing.assert_allclose(got, sp.digamma(_DIGAMMA_SWEEP), rtol=1e-14,
                               atol=1e-14)


@pytest.mark.parametrize("x", [3, 3.0, np.float64(3.0)],
                         ids=["int", "float", "float64"])
def test_digamma_float_path_returns_python_float(x):
    got = digamma(x)
    assert type(got) is float
    assert got == digamma(np.array([3.0]))[0]


@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_digamma_float_path_below_float_range(x):
    # psi(x) ~ -1/x is past the float range: -inf, with no warning and
    # no OverflowError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert digamma(x) == -math.inf


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, -math.inf])
def test_digamma_float_path_rejects_outside_domain(x):
    with pytest.raises(DomainError):
        digamma(x)


def test_digamma_array_rejects_nonpositive_entries():
    with pytest.raises(DomainError):
        digamma(np.array([1.0, 0.0]))


@given(st.floats(0.01, 50.0))
@settings(max_examples=80, deadline=None)
def test_digamma_is_log_gamma_derivative(x):
    h = 1e-6 * max(1.0, x)
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
    assert digamma(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def _log1p_sum_mpmath(y, k):
    """lgamma(y + k + 1) - lgamma(y + 1) - k log y in mpmath.  The terms
    are of order (y + k) log(y + k) and L falls to about k^2/(2y) at
    k << y, so the digits rise as 2 log10(y)."""
    with mpmath.workdps(30 + int(2 * max(0.0, math.log10(y)))):
        y = mpmath.mpf(y)
        return (mpmath.loggamma(y + k + 1) - mpmath.loggamma(y + 1)
                - k * mpmath.log(y))


@given(st.floats(-300.0, 300.0), st.floats(0.0, 6.0))
@example(13.0, 0.0)  # y = 1e13, k = 1: k << y, where phi(u) cancels
@settings(max_examples=300, deadline=None, derandomize=True)
def test_log1p_sum_mpmath(log10_y, log10_k):
    # y log-uniform over [1e-300, 1e300], k log-uniform over [1, 1e6].
    y, k = 10.0 ** log10_y, round(10.0 ** log10_k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log1p_sum(y, k)
    ref = _log1p_sum_mpmath(y, k)
    assert float(abs((got - ref) / ref)) < 1e-14, (y, k)


@pytest.mark.parametrize("y", [math.nextafter(9.0, 0.0), 9.0,
                               math.nextafter(30.0, 0.0), 30.0])
@pytest.mark.parametrize("k", [9, 10, 11, 37, 1000])
def test_log1p_sum_at_its_form_switches(y, k):
    # Each side of the direct sum (k = 9), the shift (y = 9), the Stirling
    # term counts (y = 30) and the phi series (u = 1/2, at y = 2 (k + 1)).
    for v in (y, 2.0 * (k + 1), math.nextafter(2.0 * (k + 1), 0.0)):
        ref = _log1p_sum_mpmath(v, k)
        assert float(abs((_log1p_sum(v, k) - ref) / ref)) < 1e-14, (v, k)
    assert _log1p_sum(math.inf, k) == 0.0


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


@pytest.mark.parametrize("bad", [1.01e300, math.inf, math.nan])
def test_kl_beta_rejects_parameters_past_its_range(bad):
    for k in range(4):
        args = [1.0] * 4
        args[k] = bad
        with pytest.raises(DomainError):
            kl_beta(*args)
    assert math.isfinite(kl_beta(1e300, 1e300, 1e300, 1.0))


@pytest.mark.parametrize("a,b", [(5e-324, 1.0), (1e-320, 2.0),
                                 (5e-324, 5e-324), (1e-310, 1e300)])
def test_kl_beta_zero_at_equal_subnormal_pairs(a, b):
    # psi(a) is -inf below about 5.6e-309; the divergence of a pair from
    # itself is still exactly 0.
    assert kl_beta(a, b, a, b) == 0.0


def _kl_beta_mpmath(a0, b0, a, b):
    """The divergence in 150-digit mpmath, enough for the cancellation
    of its 1/a parts at the parameters of the tests."""
    with mpmath.workdps(150):
        a0, b0, a, b = (mpmath.mpf(v) for v in (a0, b0, a, b))
        lb = mpmath.loggamma
        return (lb(a0) + lb(b0) - lb(a0 + b0) - lb(a) - lb(b)
                + lb(a + b) + (a - a0) * mpmath.digamma(a)
                + (b - b0) * mpmath.digamma(b)
                + (a0 + b0 - a - b) * mpmath.digamma(a + b))


@pytest.mark.parametrize("args", [
    (1e-310, 1.0, 2e-310, 1.0), (2e-310, 1.0, 1e-310, 1.0),
    (1e-320, 3.0, 4e-320, 0.5), (1e120, 1e-250, 1e-200, 1e-250),
    (1e-300, 1e-305, 1e-308, 1e-322), (2.0, 1e-323, 1.0, 5e-324)],
    ids=str)
def test_kl_beta_tiny_parameters_mpmath(args):
    # Where psi(x) ~ -1/x or (x0 - x) psi(x) overflows, the 1/x parts of
    # the three gamma divergences are gathered into one finite term.
    assert kl_beta(*args) == pytest.approx(float(_kl_beta_mpmath(*args)),
                                           rel=1e-12)


def test_kl_beta_inf_only_past_the_float_range():
    # Be(1, 5e-324) puts almost all its mass at 1, where the Be(5e-324,
    # 1) density is near 0: the divergence is about 2e323.
    assert _kl_beta_mpmath(5e-324, 1.0, 1.0, 5e-324) > mpmath.mpf("1e323")
    assert kl_beta(5e-324, 1.0, 1.0, 5e-324) == math.inf


# ------------------------------------------------------------- root finder


@pytest.mark.parametrize("f, lo, hi, root", [
    (math.cos, 1.0, 2.0, math.pi / 2),
    (lambda x: x ** 3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: math.exp(x) - 3.0, -5.0, 5.0, math.log(3.0)),
    (lambda x: math.tanh(x - 0.7), -30.0, 30.0, 0.7),
], ids=["cos", "cube", "exp", "tanh"])
def test_find_root_to_two_ulp(f, lo, hi, root):
    x, evals = _find_root(f, lo, hi)
    assert abs(x - root) <= 2 * math.ulp(root)
    assert 0 < evals < 30


def test_find_root_takes_given_end_values_and_zero_ends():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert _find_root(f, 0.0, 1.0, -0.25, 0.75)[0] == 0.25
    assert 0.0 not in calls and 1.0 not in calls
    assert _find_root(f, 0.25, 1.0) == (0.25, 2)


def test_find_root_rejects_bracket_without_sign_change():
    with pytest.raises(AccuracyError):
        _find_root(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_find_root_rejects_nonfinite_values(value):
    with pytest.raises(AccuracyError):
        _find_root(lambda x: value, 0.0, 1.0)
    # A non-finite value inside the bracket stops the search too.
    with pytest.raises(AccuracyError):
        _find_root(lambda x: x - 0.3 if x in (0.0, 1.0) else value, 0.0, 1.0)


# ---------------------------------------------------------------- Grid1D


def test_grid_requires_increasing_points():
    with pytest.raises(DomainError):
        Grid1D(points=(0.0, 0.0, 1.0), values=(1.0, 1.0, 1.0))


def test_grid_requires_finite_values():
    with pytest.raises(DomainError):
        Grid1D(points=(0.0, 1.0), values=(1.0, math.inf))
