"""Domain sweep: public functions over the whole float range of their
arguments.

Each call must give a finite value (or the inf or 0.0 its docstring
states), or raise an ``OverallPriorError``: never nan, a bare Python
exception or a RuntimeWarning, which this suite turns into errors.
Positive reals are drawn as 2^e with e over [-1074, 1024), that is
from 5e-324 to 1.8e308, subnormals included, and m as e^t up to 1e12.
The draws are derandomized, so the sweep is the same on every run.
The sweep checks that values are finite, not that they are accurate:
``d_mu`` cancels at large n, e.g. ``d_mu(2.0, 10**15)`` is 2.0, and
the accuracy tests sit with each module's other tests.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overallprior.catalogue import (ENTRIES, BvnParams, DiagFisherSpec,
                                    directional_multinomial_prior,
                                    eta_to_theta_psi, expfam_prior,
                                    gamma_expfam_curvatures,
                                    gamma_mean_prior,
                                    inverse_gamma_expfam_curvatures,
                                    inverse_gaussian_expfam_curvatures,
                                    inverse_gaussian_prior,
                                    normal_expfam_curvatures,
                                    right_haar_density, stress_strength_prior,
                                    theorem1_prior, theta_psi_to_eta,
                                    theta_to_xi, xi_to_theta)
from overallprior.exceptions import DomainError, OverallPriorError
from overallprior.hier import (CountTable, LimitProfile,
                               approx_posterior_curvature,
                               hypergeometric_overall_prior,
                               limit_density_psi, log_concavity_certificate,
                               marginal_log_likelihood,
                               marginal_pmf, mode_asymptotic,
                               posterior_log_density_a,
                               reference_prior_approx, reference_prior_exact,
                               sample_posterior)
from overallprior.numerics import (digamma, kl_beta, log_gamma,
                                   log_rising_ratio, trigamma)
from overallprior.refdist import (CountVector, RefDistConfig, d_mu, d_sigma,
                                  dirichlet_posterior_variances,
                                  expected_loss, loss_curve,
                                  normal_posterior_sample, optimal_a,
                                  reference_predictive)
from overallprior.shrinkage import (MeansData, gibbs_sample,
                                    hierarchical_prior_density,
                                    reference_prior_density)

FLOAT_MAX = sys.float_info.max

# 2^e for e in [-1074, 1024): 5e-324 (2^-1074) up to 1.8e308.
positive = st.floats(-1074.0, 1023.999).map(lambda e: math.pow(2.0, e))
cells = st.floats(math.log(2.0), math.log(1e12)).map(
    lambda t: max(2, round(math.exp(t))))
sizes = st.integers(1, 300)
# Count tables: cell counts in the likelihood's head (<= 16) and above it.
table_counts = st.lists(st.one_of(st.integers(1, 16), st.integers(17, 300)),
                        min_size=1, max_size=20)
# Reals of either sign over the whole float range, with (0, 1) drawn on
# its own so that probabilities and correlations reach their domain.
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
reals = st.one_of(positive, positive.map(lambda v: -v), unit)
sweep = settings(max_examples=200, deadline=None, derandomize=True)
light = settings(sweep, max_examples=100)  # cheap functions, few branches
EXPFAM = {"normal": normal_expfam_curvatures(),
          "inverse-gaussian": inverse_gaussian_expfam_curvatures(),
          "gamma": gamma_expfam_curvatures(),
          "inverse-gamma": inverse_gamma_expfam_curvatures()}


def _value_or_typed_error(f, *args):
    """f(*args) with warnings as errors, or None where it raises an
    ``OverallPriorError``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args)
        except OverallPriorError:
            return None


@sweep
@given(positive, cells, sizes)
@example(1e308, 60, 60)
@example(1e300, 10**6, 30)
@example(5e-324, 10**12, 30)
@example(FLOAT_MAX, 2, 300)
@example(FLOAT_MAX, 10**12, 300)
@example(math.inf, 2, 30)
@example(math.inf, 10**12, 30)
def test_reference_prior_exact_over_its_domain(a, m, n):
    # The prior is 0.0 where it underflows.
    v = reference_prior_exact(a, m, n)
    assert isinstance(v, float)
    assert math.isfinite(v) and v >= 0.0


@sweep
@given(positive, cells, sizes)
@example(1e308, 60, 5)
@example(1e300, 10**12, 30)
@example(5e-324, 2, 300)
@example(FLOAT_MAX, 2, 300)
@example(FLOAT_MAX, 10**12, 300)
@example(math.inf, 2, 30)
@example(math.inf, 10**12, 30)
def test_marginal_pmf_over_its_domain(a, m, n):
    p = marginal_pmf(a, m, n)
    assert p.shape == (n + 1,)
    assert np.isfinite(p).all() and (p >= 0.0).all()
    assert abs(p.sum() - 1.0) <= 1e-13


@sweep
@given(positive, positive, st.integers(0, 50))
@example(1.0, 5e-323, 3)
@example(1e-300, FLOAT_MAX, 3)
@example(FLOAT_MAX, 5e-324, 3)
def test_log_rising_ratio_over_its_domain(x, y, k):
    out = log_rising_ratio(x, y, k)
    assert out.shape == (k + 1,) and out[0] == 0.0
    assert np.isfinite(out).all()


@sweep
@given(positive, cells, st.integers(1, 200))
@example(1e-310, 10, 100)
@example(5e-324, 10**12, 200)
@example(1e306, 2, 5)
def test_expected_loss_over_its_domain(a, m, n):
    # Its domain is m a <= 1e305, past which log Gamma(m a) overflows.
    try:
        v = expected_loss(a, RefDistConfig(m, n))
    except DomainError:
        assert m * a > 1e305
        return
    assert math.isfinite(v)


@sweep
@given(cells, sizes)
@example(2, 1)
@example(10**12, 300)
def test_optimal_a_over_its_domain(m, n):
    # The minimizer lies in the search window [1e-4/m, 10], with a finite
    # minimum.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimal_a(RefDistConfig(m, n))
    assert 1e-4 / m <= res.argmin <= 10.0
    assert math.isfinite(res.min_value)


@sweep
@given(positive, positive, positive, positive, st.booleans())
@example(5e-324, 1.0, 5e-324, 1.0, False)
@example(1e-320, 2.0, 1e-320, 2.0, False)
@example(1e120, 1e-250, 1e-200, 1e-250, False)
@example(1e306, 1.0, 1.0, 1.0, False)
def test_kl_beta_over_its_domain(alpha0, beta0, alpha, beta, same):
    # Parameters above 1e300 are out of its domain; the value is inf
    # only where the divergence leaves the float range, and 0.0 where
    # the two pairs coincide.
    if same:
        alpha, beta = alpha0, beta0
    try:
        v = kl_beta(alpha0, beta0, alpha, beta)
    except OverallPriorError:
        assert max(alpha0, beta0, alpha, beta) > 1e300
        return
    assert not math.isnan(v) and v > -math.inf
    if (alpha0, beta0) == (alpha, beta):
        assert v == 0.0


@sweep
@given(positive, cells, sizes)
@example(5e-324, 2, 1)
@example(1.3e154, 60, 60)
@example(1e160, 2, 10**6)
@example(FLOAT_MAX, 10**12, 300)
def test_reference_prior_approx_over_its_domain(a, m, n):
    # One closed form at every a: 0.0 only where it underflows, and the
    # same float for a float as for an array entry.
    v = reference_prior_approx(a, m, n)
    assert isinstance(v, float)
    assert math.isfinite(v) and v >= 0.0
    assert reference_prior_approx(np.array([a]), m, n)[0] == v


@sweep
@given(positive, cells, st.lists(st.integers(1, 60), min_size=1,
                                 max_size=20))
@example(5e-324, 2, [1])
@example(1e160, 10**12, [60, 1, 1])
@example(FLOAT_MAX, 2, [300])
def test_posterior_log_density_approx_over_its_domain(a, m, counts):
    t = CountTable(m=max(m, len(counts)), counts=dict(enumerate(counts)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = posterior_log_density_a(a, t, "approx")
        row = posterior_log_density_a(np.array([a]), t, "approx")
    assert isinstance(v, float) and math.isfinite(v)
    assert np.isfinite(row).all()


@sweep
@given(positive)
@example(5e-324)
@example(2.5e305)
@example(2.56e305)
@example(1e306)
@example(FLOAT_MAX)
@example(10**400)
def test_log_gamma_over_its_domain(x):
    # log Gamma(x) leaves the float range above x = 2.56e305, and an int
    # past the float range has no float: a DomainError for both.
    try:
        v = log_gamma(x)
    except DomainError:
        assert x > 2.5e305
        return
    assert math.isfinite(v)


@sweep
@given(positive, st.integers(2, 10**12))
@example(5e-324, 2)
@example(1e-17, 2)
@example(1e306, 10)
@example(2.0, 10**15)
@example(2.0, 10**400)
def test_normal_risks_over_their_domain(a, n):
    # A DomainError only where log Gamma((n - 2 + a)/2) leaves the float
    # range, or where a/2 underflows to 0.0 at n = 2.
    for fn in (d_sigma, d_mu):
        try:
            v = fn(a, n)
        except DomainError:
            assert n > 5e305 - a or (n == 2 and a / 2 == 0.0)
            continue
        assert math.isfinite(v)


@sweep
@given(st.sampled_from(sorted(ENTRIES)), st.lists(reals, min_size=4,
                                                  max_size=6))
def test_catalogue_entries_over_their_domain(name, args):
    # Each catalogue command's callable on as many arguments as the
    # command takes: its value, inf where that exceeds the float range,
    # or a typed error.
    fn, _, _, count = ENTRIES[name]
    v = _value_or_typed_error(fn, args[:count] if count else args)
    assert v is None or (isinstance(v, float) and v >= 0.0
                         and not math.isnan(v))


@light
@given(st.lists(positive, min_size=1, max_size=4))
@example([1e300, 1e300, 1e300])
def test_theorem1_prior_over_its_domain(theta):
    # Identity factors: the prior is sqrt(prod theta), inf past the
    # float range and 0.0 below it.
    spec = DiagFisherSpec(tuple(float for _ in theta))
    v = _value_or_typed_error(theorem1_prior, spec, theta)
    assert v is not None and v >= 0.0 and not math.isnan(v)


@light
@given(st.sampled_from(sorted(EXPFAM)), reals, reals)
@example("normal", -1e-200, 1.0)
@example("inverse-gaussian", -1e-150, 1e150)
def test_expfam_prior_over_its_domain(pair, theta1, theta2):
    # At a valid point a DomainError may only name a curvature past the
    # float range; elsewhere the value is finite.
    g1, g2 = EXPFAM[pair]
    valid = theta1 < 0.0 and (pair == "normal" or theta2 > 0.0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = expfam_prior(g1, g2, theta1, theta2)
    except DomainError as exc:
        assert not valid or "float range" in str(exc)
        return
    assert valid and math.isfinite(v) and v > 0.0


@light
@given(positive, positive, sizes, sizes)
@example(1e300, 1e300, 1, 1)
@example(1e200, 1e-200, 1, 1)
@example(1e308, 1e308, 1, 1)
def test_eta_to_theta_psi_over_its_domain(eta1, eta2, m, n):
    # theta is 0.0 only where eta1/eta2 underflows; psi is inf past the
    # float range and 0.0 below it.
    theta, psi = _value_or_typed_error(eta_to_theta_psi, eta1, eta2, m, n)
    assert 0.0 <= theta <= 1.0 and psi >= 0.0 and not math.isnan(psi)
    assert theta > 0.0 or eta1 / eta2 < 1e-300


@light
@given(unit, positive, st.integers(0, 1000), st.integers(0, 1000))
@example(5e-324, 1.0, 1000, 1)
@example(0.5, 1.0, 0, 1)
def test_theta_psi_to_eta_over_its_domain(theta, psi, m, n):
    # Each rate is inf past the float range and 0.0 below it.
    out = _value_or_typed_error(theta_psi_to_eta, theta, psi, m, n)
    assert out is not None or min(m, n) < 1
    assert out is None or all(v >= 0.0 and not math.isnan(v) for v in out)


@light
@given(st.lists(reals, min_size=1, max_size=8))
def test_shrinkage_densities_over_their_domain(mu):
    # inf or 0.0 past the float range; SingularityError at mu = 0.
    for f in (hierarchical_prior_density, reference_prior_density):
        v = _value_or_typed_error(f, mu)
        assert v is not None and v >= 0.0 and not math.isnan(v)


@light
@given(st.lists(reals, min_size=2, max_size=6), positive)
@example([1.0, math.nan, 2.0], 1.0)
@example([1.0, math.inf, 2.0], 1.0)
@example([1e200, -1e200], 1.0)
def test_normal_posterior_sample_over_its_domain(data, a):
    draws = _value_or_typed_error(normal_posterior_sample, data, a, 8, 0)
    assert draws is None or (np.isfinite(draws.mu).all()
                             and (draws.sigma > 0.0).all()
                             and np.isfinite(draws.sigma).all())
    if not np.isfinite(data).all():
        assert draws is None


@light
@given(positive, cells, st.lists(st.integers(1, 60), min_size=1,
                                 max_size=20))
def test_approx_posterior_curvature_over_its_domain(a, m, counts):
    # +-inf only where it leaves the float range.
    t = CountTable(m=max(m, len(counts)), counts=dict(enumerate(counts)))
    v = _value_or_typed_error(approx_posterior_curvature, a, t)
    assert v is not None and not math.isnan(v)


@light
@given(positive, st.integers(2, 300), st.integers(1, 300))
def test_limit_density_psi_over_its_domain(v, n, r0):
    profile = LimitProfile(n=n, r0=min(r0, n))
    psi = _value_or_typed_error(limit_density_psi, v, profile)
    assert psi is not None and math.isfinite(psi) and psi >= 0.0


def _table(m, counts):
    return CountTable(m=max(m, len(counts)), counts=dict(enumerate(counts)))


@sweep
@given(positive, positive, cells, table_counts)
@example(5e-324, FLOAT_MAX, 10**12, [1, 1])
@example(1e-300, 3e-300, 2, [300, 17])
@example(FLOAT_MAX, 1e154, 10**12, [60, 1, 1, 300])
def test_marginal_log_likelihood_over_its_domain(a, b, m, counts):
    # A log probability: finite at every a.  An array gives the float
    # calls' values bit for bit.
    t = _table(m, counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = marginal_log_likelihood(t, a)
        row = marginal_log_likelihood(t, np.array([a, b]))
        assert row.tolist() == [v, marginal_log_likelihood(t, b)]
    assert isinstance(v, float) and math.isfinite(v)


@light
@given(positive, cells, table_counts)
@example(5e-324, 10**12, [1, 1])
@example(1e100, 60, [1] * 60)
@example(FLOAT_MAX, 2, [300])
@example(1.0, 10, [1])
def test_posterior_log_density_exact_over_its_domain(a, m, counts):
    # -inf only where the exact prior underflows, or is zero (n = 1).
    t = _table(m, counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = posterior_log_density_a(a, t, "exact")
        zero = reference_prior_exact(a, t.m, t.n) == 0.0
    assert isinstance(v, float)
    assert math.isfinite(v) or (v == -math.inf and zero)


@light
@given(positive)
@example(5e-324)
@example(5.5e-309)
@example(5.6e-309)
@example(1e-154)
@example(FLOAT_MAX)
def test_digamma_and_trigamma_over_their_domain(x):
    # psi is -inf and psi' inf only where -1/x and 1/x^2 overflow; an
    # array gives the float calls' values bit for bit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, psi1 = digamma(x), trigamma(x)
        assert digamma(np.array([x])).tolist() == [psi]
    assert math.isfinite(psi) or (psi == -math.inf and 1.0 / x == math.inf)
    assert psi1 > 0.0
    assert psi1 < math.inf or 1.0 / x / x == math.inf


_HUGE = 10**400  # an int with no float
_SMALL = CountTable(m=10, counts={0: 2, 1: 1, 2: 1})
_INT_PAST_FLOAT_RANGE = {
    "digamma": lambda: digamma(_HUGE),
    "digamma-list": lambda: digamma([1.0, _HUGE]),
    "trigamma": lambda: trigamma(_HUGE),
    "log_rising_ratio-x": lambda: log_rising_ratio(_HUGE, 1.0, 3),
    "log_rising_ratio-y": lambda: log_rising_ratio(1.0, _HUGE, 3),
    "log_rising_ratio-k": lambda: log_rising_ratio(1.0, 2.0, _HUGE),
    "kl_beta": lambda: kl_beta(1.0, 1.0, 1.0, _HUGE),
    "marginal_log_likelihood": lambda: marginal_log_likelihood(_SMALL, _HUGE),
    "marginal_pmf": lambda: marginal_pmf(_HUGE, 10, 4),
    "reference_prior_exact": lambda: reference_prior_exact(_HUGE, 10, 4),
    "reference_prior_approx": lambda: reference_prior_approx(_HUGE, 10, 4),
    "posterior_log_density_a": lambda: posterior_log_density_a(
        _HUGE, _SMALL, "approx"),
    "approx_posterior_curvature": lambda: approx_posterior_curvature(
        _HUGE, _SMALL),
    "log_concavity_certificate": lambda: log_concavity_certificate(
        _SMALL, [_HUGE]),
    "limit_density_psi": lambda: limit_density_psi(_HUGE,
                                                   LimitProfile(5, 2)),
    "CountTable-m": lambda: CountTable(m=_HUGE, counts={0: 1}),
    "CountTable-n": lambda: CountTable(m=10, counts={0: _HUGE}),
    "hypergeometric_overall_prior-N": lambda: hypergeometric_overall_prior(
        [1], _HUGE, 1),
    "reference_prior_exact-m": lambda: reference_prior_exact(1.0, _HUGE, 5),
    "reference_prior_exact-n": lambda: reference_prior_exact(1.0, 5, _HUGE),
    "marginal_pmf-m": lambda: marginal_pmf(1.0, _HUGE, 5),
    "marginal_pmf-n": lambda: marginal_pmf(1.0, 10, _HUGE),
    "reference_prior_approx-m": lambda: reference_prior_approx(1.0, _HUGE, 5),
    "reference_prior_approx-n": lambda: reference_prior_approx(1.0, 5, _HUGE),
    "LimitProfile-n": lambda: LimitProfile(_HUGE, 3),
    "limit_density_psi-n": lambda: limit_density_psi(
        1.0, LimitProfile(_HUGE, 3)),
    "mode_asymptotic-n": lambda: mode_asymptotic(LimitProfile(_HUGE, 3)),
    # Sizes: each is checked before anything is allocated or looped over.
    "sample_posterior-length": lambda: sample_posterior(_SMALL, _HUGE, seed=0),
    "sample_posterior-warmup": lambda: sample_posterior(_SMALL, 10, seed=0,
                                                        warmup=_HUGE),
    "reference_predictive-n": lambda: reference_predictive(1, _HUGE),
    "normal_posterior_sample-size": lambda: normal_posterior_sample(
        [1.0, 3.0, 2.0], 1.0, _HUGE, seed=0),
    "gibbs_sample-length": lambda: gibbs_sample(MeansData([1.0, 3.0, 2.0]),
                                                _HUGE, seed=0),
    "RefDistConfig-m": lambda: RefDistConfig(_HUGE, 5),
    "RefDistConfig-n": lambda: RefDistConfig(5, _HUGE),
    "optimal_a-m": lambda: optimal_a(RefDistConfig(_HUGE, 5)),
    "loss_curve": lambda: loss_curve(RefDistConfig(5, 5), [_HUGE]),
    "d_sigma": lambda: d_sigma(_HUGE, 5),
    "d_mu": lambda: d_mu(_HUGE, 5),
    "normal_posterior_sample-data": lambda: normal_posterior_sample(
        [1.0, _HUGE, 2.0], 1.0, 3, seed=0),
    "normal_posterior_sample-a": lambda: normal_posterior_sample(
        [1.0, 3.0, 2.0], _HUGE, 3, seed=0),
    "CountVector-n": lambda: CountVector((1, _HUGE)),
    "dirichlet_posterior_variances": lambda: dirichlet_posterior_variances(
        CountVector((1, 2)), _HUGE),
    "MeansData": lambda: MeansData([1.0, _HUGE, 2.0]),
    "hierarchical_prior_density": lambda: hierarchical_prior_density(
        [_HUGE, 1.0]),
    "reference_prior_density": lambda: reference_prior_density([_HUGE, 1.0]),
    "BvnParams": lambda: BvnParams(0.0, 0.0, _HUGE, 1.0, 0.5),
    "inverse_gaussian_prior": lambda: inverse_gaussian_prior(_HUGE, 1.0),
    "gamma_mean_prior": lambda: gamma_mean_prior(_HUGE, 1.0),
    "stress_strength_prior": lambda: stress_strength_prior(0.5, _HUGE),
    "eta_to_theta_psi": lambda: eta_to_theta_psi(_HUGE, 1.0, 2, 3),
    "eta_to_theta_psi-m": lambda: eta_to_theta_psi(1.0, 1.0, _HUGE, 3),
    "theta_psi_to_eta-n": lambda: theta_psi_to_eta(0.5, 1.0, 2, _HUGE),
    "directional_multinomial_prior": lambda: directional_multinomial_prior(
        [_HUGE]),
    "theta_to_xi": lambda: theta_to_xi([_HUGE, 0.5]),
    "xi_to_theta": lambda: xi_to_theta([_HUGE]),
    "right_haar_density": lambda: right_haar_density(
        BvnParams(0.0, 0.0, 1.0, 1.0, 0.5), _HUGE),
    "expfam_prior": lambda: expfam_prior(*normal_expfam_curvatures(),
                                         -_HUGE, 1.0),
    "theorem1_prior": lambda: theorem1_prior(DiagFisherSpec((float,)),
                                             [_HUGE]),
}


def _entry_past_float_range(name, k):
    """Catalogue command ``name`` with 10**400 in argument place k and 0.5
    in the others."""
    fn, _, _, count = ENTRIES[name]
    args = [0.5] * (count or 2)
    args[k] = _HUGE
    return lambda: fn(args)


_INT_PAST_FLOAT_RANGE.update(
    (f"ENTRIES-{name}-{k}", _entry_past_float_range(name, k))
    for name, entry in ENTRIES.items() for k in range(entry[3] or 2))


@pytest.mark.parametrize("name", sorted(_INT_PAST_FLOAT_RANGE))
def test_int_past_the_float_range_is_a_domain_error(name):
    # float() of such an int raises a bare OverflowError; each entry point
    # turns it into a DomainError, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            _INT_PAST_FLOAT_RANGE[name]()
