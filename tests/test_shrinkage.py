"""Multi-normal-means shrinkage: prior densities, the exact posterior
sampler, and posterior summaries of theta = |mu|^2 / m."""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

from overallprior import shrinkage
from overallprior.exceptions import (AccuracyError, DomainError,
                                     PreconditionError, SingularityError)
from overallprior.shrinkage import (MeansData, flat_prior_theta_mean,
                                    gibbs_sample,
                                    hierarchical_prior_density,
                                    reference_prior_density,
                                    theta_posterior_samples)

# ------------------------------------------------------------- flat prior


def test_flat_prior_theta_mean_examples():
    assert flat_prior_theta_mean(MeansData(np.array([1.0, 2.0]))) == \
        pytest.approx(3.5, abs=1e-15)
    assert flat_prior_theta_mean(MeansData(np.zeros(4))) == \
        pytest.approx(1.0, abs=1e-15)


def test_flat_prior_overshoots_by_two():
    # theta_T = 1 exactly; the flat-prior answer concentrates near 3.
    rng = np.random.default_rng(0)
    mu = rng.normal(size=100000)
    mu *= math.sqrt(mu.size) / np.linalg.norm(mu)  # |mu|^2/m = 1
    x = rng.normal(mu, 1.0)
    assert flat_prior_theta_mean(MeansData(x)) == pytest.approx(3.0,
                                                               abs=0.05)


def test_means_data_validation():
    with pytest.raises(DomainError):
        MeansData(np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        MeansData(np.array([1.0, math.nan]))


# ----------------------------------------------------- prior densities


def _hier_density_oracle(mu):
    """Independent high-precision oracle for the tau^2 mixture."""
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    s = float(mu @ mu)

    def f(t2):
        t2 = mpmath.mpf(t2)
        return ((2 * mpmath.pi * t2) ** (-mpmath.mpf(m) / 2)
                * mpmath.e ** (-s / (2 * t2)) / (1 + t2))

    with mpmath.workdps(30):
        return float(mpmath.quad(f, [0, s / m, 1, mpmath.inf]))


@pytest.mark.parametrize("mu", [[1.0, 0.0, 0.0], [0.5, -0.5, 1.5],
                                [2.0, 0.0, 0.0, 0.0, 0.0],
                                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]])
def test_hierarchical_density_oracle(mu):
    assert hierarchical_prior_density(mu) == pytest.approx(
        _hier_density_oracle(mu), rel=1e-7)


def test_hierarchical_density_pin():
    # Derived pin (m=3, |mu|=1) fixed on first run.
    assert hierarchical_prior_density([1.0, 0.0, 0.0]) == pytest.approx(
        0.05480030283171133, rel=1e-9)


def test_hierarchical_density_rotation_invariant():
    a = hierarchical_prior_density([3.0, 0.0, 0.0, 0.0])
    b = hierarchical_prior_density([1.5, -1.5, 1.5, 1.5])
    assert a == pytest.approx(b, rel=1e-9)


def test_hierarchical_density_decreasing_in_norm():
    vals = [hierarchical_prior_density([r, 0.0, 0.0])
            for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(u > v for u, v in zip(vals, vals[1:]))


def test_hierarchical_density_tail_slope_is_minus_m():
    # Pinned resolution: the mixture tail decays as |mu|^{-m}, one
    # power steeper than the |mu|-reference prior |mu|^{-(m-1)}.
    for m, lo, hi in ((5, 30.0, 100.0), (100, 300.0, 1000.0)):
        f = lambda r: hierarchical_prior_density([r] + [0.0] * (m - 1))
        slope = (math.log(f(hi)) - math.log(f(lo))) / (math.log(hi)
                                                       - math.log(lo))
        assert slope == pytest.approx(-m, abs=0.01)


def test_hierarchical_density_singular_at_origin():
    with pytest.raises(SingularityError):
        hierarchical_prior_density([0.0, 0.0, 0.0])


def _hier_density_mp(m, x):
    """50-digit value of the density at mu = (x, ..., x) of length m:
    (2 pi)^{-b} Gamma(b) z^{1-b} F(b, z), b = m/2, z = |mu|^2/2, with
    F(b, z) = int_0^inf e^{-zt} (1+t)^{-b} dt by quadrature.
    (mpmath.gammainc is not used: at 50 digits it returns -3.5e-767
    for Gamma(-249, 500).)"""
    with mpmath.workdps(50):
        b = mpmath.mpf(m) / 2
        z = b * mpmath.mpf(x) ** 2
        f = mpmath.quad(lambda t: mpmath.exp(-z * t) * (1 + t) ** -b,
                        [0, 1 / (z + b), mpmath.inf])
        return (2 * mpmath.pi) ** -b * mpmath.gamma(b) * z ** (1 - b) * f


# |mu|^2 over [1e-12, 1e6], either side of z = 1 (where m < 40 switches
# from the recurrence to the continued fraction), and the bands where
# the density at m = 500 and m = 1e4 is a normal float, which the
# coarse grid barely meets.
_SWEEP = {m: list(np.geomspace(1e-12, 1e6, 7)) + [1.9, 2.1]
          for m in (1, 2, 3, 5, 8, 20, 40, 100, 500, 10000)}
_SWEEP[500] += list(np.geomspace(3.0, 700.0, 4))
_SWEEP[10000] += list(np.linspace(520.0, 660.0, 4))


@pytest.mark.parametrize("m", sorted(_SWEEP))
def test_hierarchical_density_mpmath_sweep(m):
    # Relative error 5e-13 wherever the density is a normal float; for
    # m > 500 the rounding of log Gamma(m/2), about 3.8e4 at m = 1e4,
    # allows m * 1e-15.  Past the float range the value is inf or 0.0.
    tol = max(5e-13, m * 1e-15)
    for sq_norm in _SWEEP[m]:
        x = math.sqrt(sq_norm / m)
        got = hierarchical_prior_density(np.full(m, x))
        want = _hier_density_mp(m, x)
        if want > sys.float_info.max:
            assert got == math.inf
        elif want < sys.float_info.min:
            assert got < sys.float_info.min
        else:
            assert got == pytest.approx(float(want), rel=tol, abs=0.0), \
                sq_norm


@pytest.mark.parametrize("density", [hierarchical_prior_density,
                                     reference_prior_density])
@pytest.mark.parametrize("mu", [[math.nan, 0.0, 0.0], [1.0, -math.inf],
                                [math.inf]])
def test_prior_densities_reject_non_finite_mu(density, mu):
    with pytest.raises(DomainError):
        density(mu)


@pytest.mark.parametrize("density", [hierarchical_prior_density,
                                     reference_prior_density])
def test_prior_densities_singular_only_at_zero(density):
    # A tiny nonzero mu is inside the domain: |mu|^2 is formed after
    # scaling by max |mu_i|, so it does not underflow to 0.
    for mu in ([1e-170, 0.0, 0.0], [1e-200], [0.0, 5e-324]):
        assert density(mu) > 0.0
    with pytest.raises(SingularityError):
        density([0.0, -0.0])


@pytest.mark.parametrize("mu,hier,ref", [
    ([1e200, 0.0, 0.0], 0.0, 0.0),          # both about 1e-400
    ([1e-170, 0.0, 0.0], 1.0 / (2.0 * math.pi * 1e-170), math.inf),
    ([1e-4] + [0.0] * 99, math.inf, math.inf),  # hierarchical 8.6e427
    ([1.0] + [0.0] * 499, math.inf, 1.0),
])
def test_prior_densities_past_float_range(mu, hier, ref):
    # Values past the float range come back as inf or 0.0, with no
    # OverflowError or RuntimeWarning.
    assert hierarchical_prior_density(mu) == pytest.approx(hier, rel=1e-14,
                                                           abs=0.0)
    assert reference_prior_density(mu) == ref


def test_hierarchical_density_where_z_leaves_the_float_range():
    # Below |mu| of about 1e-154, z = |mu|^2/2 underflows and F is read
    # through log z; above about 1.9e154 z overflows and F = 1/z.  The
    # leading terms as mu -> 0 are exact to double precision there.
    # m = 1: the density tends to sqrt(pi/2) at 0, takes that value at
    # 0, and tends to 1/|mu| far out.
    for r in (1e-150, 1e-160, 1e-300, 0.0):
        assert hierarchical_prior_density([r]) == pytest.approx(
            math.sqrt(0.5 * math.pi), rel=1e-14)
    for r in (1e150, 1e160, 1e300):
        assert hierarchical_prior_density([r]) * r == pytest.approx(
            1.0, rel=1e-14)
    # m = 2: -(gamma + log z)/(2 pi).
    for r in (1e-150, 1e-160, 1e-300):
        log_z = 2.0 * math.log(r) - math.log(2.0)
        assert hierarchical_prior_density([r, 0.0]) == pytest.approx(
            -(0.5772156649015329 + log_z) / (2.0 * math.pi), rel=1e-14)
    # m = 3: 1/(2 pi |mu|).  For m > 3 the density there is past the
    # float range.
    for r in (1e-150, 1e-160, 1e-300):
        assert hierarchical_prior_density([r, 0.0, 0.0]) * r == \
            pytest.approx(0.5 / math.pi, rel=1e-14)


def test_reference_prior_examples():
    assert reference_prior_density([2.0, 0.0]) == pytest.approx(0.5)
    assert reference_prior_density([0.0, 3.0, 4.0]) == pytest.approx(
        5.0 ** -2)
    with pytest.raises(SingularityError):
        reference_prior_density([0.0, 0.0])
    # m = 1: |mu|^0, flat, and finite at 0 too.
    for mu in ([0.0], [-0.0], [1e-300], [-3.0], [1e300]):
        assert reference_prior_density(mu) == 1.0


def test_reference_prior_scaling():
    m = 6
    base = reference_prior_density([1.0] * m)
    assert reference_prior_density([2.0] * m) == pytest.approx(
        base * 2.0 ** (-(m - 1)), rel=1e-12)


# ------------------------------------------------------------ exact law


def _log_shrink_cdf(b, lam):
    """(y, CDF) on a fine grid for y = -log s, where s has density
    proportional to s^{b-1} e^{-lam s} on (0, 1): y has log density
    -b y - lam e^{-y} on y > 0, integrated by the trapezoid rule from 0
    to past the point where it is 60 below its maximum."""
    def log_dens(y):
        return -b * y - lam * np.exp(-y)
    mode = math.log(lam / b) if lam > b else 0.0
    top, width = log_dens(mode), 1.0 / b
    while log_dens(mode + width) > top - 60.0:
        width *= 2.0
    y = np.linspace(0.0, mode + width, 200001)
    dens = np.exp(log_dens(y) - top)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(y) * 0.5
                                           * (dens[1:] + dens[:-1]))))
    return y, cdf / cdf[-1]


def _data_with_sq_norm(m, sq_norm, seed):
    z = np.random.default_rng(seed).normal(size=m)
    return z * math.sqrt(sq_norm / float(z @ z))


def _assert_shrink_law(x, n, seed):
    """n draws of y = -log s = log(1 + tau^2) from gibbs_sample on the
    data x are within the 0.1% KS critical value of their exact law, and
    at least 45% of the proposals were kept."""
    chain = gibbs_sample(MeansData(x), n, seed=seed)
    y, cdf = _log_shrink_cdf(0.5 * x.size, 0.5 * float(x @ x))
    model = np.interp(np.sort(np.log1p(chain.tau2_samples)), y, cdf)
    i = np.arange(1, n + 1)
    dist = max(np.max(i / n - model), np.max(model - (i - 1) / n))
    assert dist < 1.95 / math.sqrt(n)
    assert 1.0 - chain.rejection_rate >= 0.45


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, 0.99, 1.0, 1.01, 2.0, 5.0])
@pytest.mark.parametrize("m", [3, 5, 20, 500, 10000])
def test_gibbs_draws_follow_truncated_gamma_law(m, ratio):
    # s = 1/(1 + tau^2) given x is Gamma(m/2, rate |x|^2/2) truncated to
    # (0, 1); |x|^2/m = 1 is where the sampler switches branch.  At
    # m = 1e4 s lies within about 1e-4 of 1, so the law is compared on
    # the scale of y = -log s.
    _assert_shrink_law(_data_with_sq_norm(m, ratio * m, seed=m), 100000,
                       seed=int(100 * ratio))


@pytest.mark.parametrize("m,s", [(500, 20.0), (500, 500.0), (5, 3.0),
                                 (3, 0.01), (3, 1e-17)])
def test_tau2_step_ks(m, s):
    # The tau^2 step is one exact draw, here at |x|^2 = s, down to data
    # so close to 0 that s is nearly Beta(m/2, 1).
    _assert_shrink_law(_data_with_sq_norm(m, s, seed=7), 100000, seed=7)


class _StubRng:
    """Generator stand-in for gibbs_sample: every variate it is asked
    for is `variate`."""

    def __init__(self, variate):
        self.variate = variate

    def standard_gamma(self, shape, size):
        return np.full(size, self.variate)

    def standard_exponential(self, size):
        return np.full(size, self.variate)

    def noncentral_chisquare(self, df, nonc):
        return np.full(np.shape(nonc), self.variate)


@pytest.mark.parametrize("variate", [5e-324, 1e308])
def test_gibbs_raises_on_draws_out_of_float_range(monkeypatch, variate):
    # At x = 0 every proposal is kept, with y = -log s = variate / 1.5.
    # A subnormal variate makes theta underflow to 0; a huge one sends
    # tau^2 = e^y - 1 to inf.  Either way the chain raises a typed error
    # instead of returning the draws.
    monkeypatch.setattr(shrinkage.np.random, "default_rng",
                        lambda seed: _StubRng(variate))
    with pytest.raises(AccuracyError):
        gibbs_sample(MeansData(np.zeros(3)), 50, seed=0)


# ------------------------------------------------------------- sampler


def test_gibbs_requires_three_means():
    with pytest.raises(PreconditionError):
        gibbs_sample(MeansData(np.array([1.0, 2.0])), 10, seed=0)
    with pytest.raises(DomainError):
        gibbs_sample(MeansData(np.array([1.0, 2.0, 3.0])), 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_gibbs_rejects_bad_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        gibbs_sample(MeansData(np.array([1.0, 2.0, 3.0])), 10, seed=seed)


def test_gibbs_reproducible():
    data = MeansData(np.array([1.0, -2.0, 0.5, 3.0]))
    c1 = gibbs_sample(data, 300, seed=17)
    c2 = gibbs_sample(data, 300, seed=17)
    assert np.array_equal(c1.theta_samples, c2.theta_samples)
    assert np.array_equal(c1.tau2_samples, c2.tau2_samples)
    assert c1.rejection_rate == c2.rejection_rate


# (scale of the data, rejection rate, (sum of tau^2, sum of theta),
# [(index, tau^2, theta)]): |x|^2/m is about 1.004 and 0.25, either side
# of the switch between the sampler's branches at 1.
_PINNED_CHAINS = [
    (1.0, 182 / 382, (10.989825976555927, 10.856495758353812),
     [(0, 0.015895023815636965, 0.01565360460795672),
      (1, 0.00123766142222447, 0.0011702926693503391),
      (99, 0.04551641056988357, 0.04961590527505678),
      (199, 0.06603845269528599, 0.06817553759482793)]),
    (0.5, 0.0, (1.029807424283601, 1.0228894199498109),
     [(0, 0.0028363738459196075, 0.0028034265406552514),
      (199, 0.02250807033416622, 0.02259417462161108)]),
]


def test_gibbs_chain_pinned():
    # Recorded from the exact sampler: s by rejection from one generator,
    # theta by one noncentral chi-square call from a second; the random
    # stream must not change.  tau^2 and theta are held to rel 1e-14,
    # since |x|^2 is a BLAS dot product, whose summation order may vary.
    for scale, rejection, sums, draws in _PINNED_CHAINS:
        x = scale * np.random.default_rng(3).normal(size=500)
        chain = gibbs_sample(MeansData(x), 200, seed=5)
        assert chain.rejection_rate == pytest.approx(rejection, rel=1e-15)
        for got, want in zip((chain.tau2_samples, chain.theta_samples),
                             sums):
            assert float(got.sum()) == pytest.approx(want, rel=1e-14,
                                                     abs=0.0)
        for i, tau2, theta in draws:
            assert chain.tau2_samples[i] == pytest.approx(tau2, rel=1e-14,
                                                          abs=0.0)
            assert chain.theta_samples[i] == pytest.approx(
                theta, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x,length,seed,burn", [
    (np.array([2.0, -1.0, 0.5, 1.5, -2.5]), 60000, 21, 1000),
    (np.random.default_rng(5).normal(2.0, 0.2, size=20), 4000, 8, 500),
], ids=["five-means", "twenty-means"])
def test_gibbs_rao_blackwell_theta_mean(x, length, seed, burn):
    # Given tau^2, mu_i ~ N(s x_i, s) with s = tau^2/(1+tau^2), so
    # E[theta | x, tau^2] = s^2 mean(x^2) + s.  The chain mean of theta
    # must match that conditional mean averaged over the tau^2 draws;
    # the tolerance is 5-10 batch-means standard errors.  The draws are
    # independent, so the first ``burn`` of them are no burn-in: dropping
    # them only leaves both means over the same draws.
    chain = gibbs_sample(MeansData(x), length, seed=seed)
    t2 = chain.tau2_samples[burn:]
    s = t2 / (1 + t2)
    rb = float(np.mean(s ** 2 * np.mean(x ** 2) + s))
    direct = float(theta_posterior_samples(chain)[burn:].mean())
    assert direct == pytest.approx(rb, rel=0.02)


def test_gibbs_chain_memory_is_linear_in_length():
    # Two floats per draw (theta and tau^2), however many means.
    rng = np.random.default_rng(3)
    length = 2000
    chain = gibbs_sample(MeansData(rng.normal(size=500)), length, seed=0)
    held = sum(v.nbytes for v in vars(chain).values()
               if isinstance(v, np.ndarray))
    assert held <= 16 * length


@pytest.mark.parametrize("length", [1, 1023, 1024, 1025, 5000])
def test_gibbs_chain_is_prefix_of_longer_chain(length):
    # Proposals and chi-square variates come in fixed blocks, so a chain
    # is the start of any longer chain with the same seed, on each side
    # of a block edge and on both branches of the sampler for s.
    z = np.random.default_rng(3).normal(size=500)
    for x in (_THETA_ONE, 0.5 * z):  # |x|^2/m about 2 and 0.25
        data = MeansData(x)
        chain = gibbs_sample(data, length, seed=5)
        longer = gibbs_sample(data, 7000, seed=5)
        assert np.array_equal(chain.theta_samples,
                              longer.theta_samples[:length])
        assert np.array_equal(chain.tau2_samples,
                              longer.tau2_samples[:length])


def test_gibbs_peak_memory_per_draw():
    # 16 bytes kept (theta and tau^2) and 16 of chi-square arguments and
    # variates per draw; proposals for s are drawn and screened one
    # fixed-size block at a time, not for the whole chain.
    data = MeansData(np.random.default_rng(3).normal(size=500))
    length = 50000
    tracemalloc.start()
    try:
        gibbs_sample(data, length, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * length


def test_gibbs_recovers_theta_scale():
    # theta_T = 1 at m = 200; the hierarchical answer stays near 1
    # (no +2 bias).
    rng = np.random.default_rng(2)
    mu = rng.normal(size=200)
    mu *= math.sqrt(mu.size) / np.linalg.norm(mu)
    x = rng.normal(mu, 1.0)
    chain = gibbs_sample(MeansData(x), 6000, seed=4)
    theta = theta_posterior_samples(chain)[500:]
    assert 0.7 <= float(theta.mean()) <= 1.3


def test_theta_samples_example():
    # theta_posterior_samples returns the chain's theta draws; an empty
    # chain has none to give.
    chain = gibbs_sample(MeansData(np.array([1.0, 2.0, 3.0])), 5, seed=1)
    theta = theta_posterior_samples(chain)
    assert theta is chain.theta_samples and theta.shape == (5,)
    empty = shrinkage.ShrinkChain(theta_samples=np.empty(0),
                                  tau2_samples=np.empty(0), seed=1,
                                  rejection_rate=0.0)
    with pytest.raises(DomainError):
        theta_posterior_samples(empty)


# ------------------------------------------- law of the collapsed chain

def _theta_one_data():
    """The theta_T = 1, m = 200 data of test_gibbs_recovers_theta_scale."""
    rng = np.random.default_rng(2)
    mu = rng.normal(size=200)
    mu *= math.sqrt(mu.size) / np.linalg.norm(mu)
    return rng.normal(mu, 1.0)


_THETA_ONE = _theta_one_data()


@pytest.mark.parametrize("tau2", [0.05, 1.0, 20.0])
def test_sq_norm_draw_matches_explicit_mu(tau2):
    # Given tau^2, |mu|^2 with mu ~ N(s x, s I) is s chi'^2_m(lam),
    # lam = s |x|^2.  The sampler draws it as s ((z + sqrt(lam))^2 + c),
    # z ~ N(0, 1), c ~ chi^2_{m-1}: that must match numpy's noncentral
    # chi-square and the norm of m explicit normal draws in law, and all
    # three must match the exact mean s (m + lam) and variance
    # 2 s^2 (m + 2 lam) within 5 standard errors.
    x, n = _THETA_ONE, 40000
    m, s = x.size, tau2 / (1.0 + tau2)
    lam = s * float(x @ x)
    rng = np.random.default_rng(1)
    collapsed = s * ((rng.standard_normal(n) + math.sqrt(lam)) ** 2
                     + rng.chisquare(m - 1, n))
    noncentral = s * np.random.default_rng(3).noncentral_chisquare(m, lam, n)
    mu = np.random.default_rng(2).normal(s * x, math.sqrt(s), size=(n, m))
    explicit = np.einsum("ij,ij->i", mu, mu)
    for other in (noncentral, explicit):
        assert scipy.stats.ks_2samp(collapsed, other).pvalue > 0.001
    mean, var = s * (m + lam), 2.0 * s * s * (m + 2.0 * lam)
    kappa4 = 48.0 * s ** 4 * (m + 4.0 * lam)
    for draws in (collapsed, noncentral, explicit):
        assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / n)
        assert abs(draws.var() - var) < 5.0 * math.sqrt(
            (kappa4 + 2.0 * var * var) / n)


def _full_mu_gibbs(x, length, seed):
    """Reference sampler: the Gibbs scheme that draws all m means,
    mu ~ N(s x, s I), and accepts an inverse-gamma tau^2 proposal with
    probability tau^2/(1+tau^2).  Returns (theta, tau^2) draws."""
    rng = np.random.default_rng(seed)
    m = x.size
    theta, tau2s = np.empty(length), np.empty(length)
    tau2 = 1.0
    for it in range(length):
        s = tau2 / (1.0 + tau2)
        mu = rng.normal(x * s, math.sqrt(s))
        sq_norm = float(mu @ mu)
        while True:
            tau2 = 1.0 / rng.gamma(0.5 * m, 2.0 / sq_norm)
            if rng.random() < tau2 / (1.0 + tau2):
                break
        theta[it], tau2s[it] = sq_norm / m, tau2
    return theta, tau2s


def _batch_mean_se(draws, batches=50):
    means = draws[:draws.size // batches * batches].reshape(batches, -1)
    means = means.mean(axis=1)
    return float(draws.mean()), float(means.std(ddof=1) / math.sqrt(batches))


@pytest.mark.parametrize("x,length", [
    (np.array([2.0, -1.0, 0.5, 1.5, -2.5]), 60000),
    (_THETA_ONE, 20000),
], ids=["five-means", "theta-one-m200"])
def test_collapsed_chain_matches_full_mu_gibbs(x, length):
    # Both samplers leave the posterior of (mu, tau^2) invariant, and
    # their tau^2 steps read mu only through |mu|^2: the theta and tau^2
    # means agree within 5 batch-means standard errors.
    burn = 1000
    chain = gibbs_sample(MeansData(x), length, seed=31)
    ref_theta, ref_tau2 = _full_mu_gibbs(x, length, seed=32)
    for new, ref in ((chain.theta_samples, ref_theta),
                     (chain.tau2_samples, ref_tau2)):
        (a, se_a), (b, se_b) = _batch_mean_se(new[burn:]), \
            _batch_mean_se(ref[burn:])
        assert abs(a - b) < 5.0 * math.hypot(se_a, se_b)


def test_gibbs_near_zero_theta_few_proposals():
    # theta_T = 0 at m = 500: |x|^2/m is near 1, where the sampler for s
    # switches branch and keeps the fewest proposals, just over half.
    # rejection_rate counts the proposals up to the last draw kept.
    x = np.random.default_rng(0).normal(size=500)
    chain = gibbs_sample(MeansData(x), 10000, seed=1)
    assert 0.0 < chain.rejection_rate <= 0.55


def _tau2_marginal_cdf(tau2, x):
    """Closed-form CDF of tau^2 | x: x_i ~ N(0, 1+tau^2) given tau^2, so
    the density is (1+tau^2)^{-m/2-1} exp(-|x|^2/(2(1+tau^2))), an
    inverse gamma (m/2, |x|^2/2) in 1+tau^2, truncated to 1+tau^2 > 1."""
    a, b = 0.5 * x.size, 0.5 * float(x @ x)
    q = scipy.special.gammaincc
    return (q(a, b / (1.0 + tau2)) - q(a, b)) / scipy.special.gammainc(a, b)


@pytest.mark.parametrize("x", [
    np.array([1.0, 2.0, 3.0]),
    np.array([2.0, -1.0, 0.5, 1.5, -2.5]),
    _THETA_ONE,
], ids=["m3", "m5", "m200"])
def test_gibbs_tau2_marginal_ks(x):
    # The tau^2 draws are independent; about 5000 of them, every 20th
    # from the 1000th on, follow the exact marginal posterior of tau^2:
    # KS distance within the 0.1% critical value.  (The offset and the
    # stride need not be there for independent draws; they keep the
    # sample size of the gate.)
    chain = gibbs_sample(MeansData(x), 101000, seed=11)
    draws = chain.tau2_samples[1000::20]
    dist = scipy.stats.kstest(draws, _tau2_marginal_cdf, args=(x,))
    assert dist.statistic < 1.95 / math.sqrt(draws.size)


def _ess_per_draw(draws):
    """Effective sample size per draw, 1/(1 + 2 sum rho_k), summing the
    autocorrelations by Geyer's initial positive sequence."""
    y = draws - draws.mean()
    n = y.size
    f = np.fft.rfft(y, 2 * n)
    rho = np.fft.irfft(f * np.conj(f))[:n]
    rho /= rho[0]
    pairs = rho[:n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.argmax(pairs <= 0.0) if np.any(pairs <= 0.0) else pairs.size
    return 1.0 / (2.0 * float(pairs[:stop].sum()) - 1.0)


def test_gibbs_theta_ess_matches_full_mu_gibbs():
    # Independent draws: on the theta_T = 1, m = 200 data the theta
    # draws have an effective sample size per draw near 1, above that
    # of the Gibbs sampler that draws all m means.
    length, burn = 20000, 1000
    new = gibbs_sample(MeansData(_THETA_ONE), length, seed=31).theta_samples
    ref, _ = _full_mu_gibbs(_THETA_ONE, length, seed=32)
    assert _ess_per_draw(new) >= max(0.9, _ess_per_draw(ref[burn:]))


@pytest.mark.parametrize("x", [np.array([2.0, -1.0, 0.5, 1.5, -2.5]),
                               _THETA_ONE, np.zeros(4)],
                         ids=["five-means", "theta-one-m200", "zeros"])
def test_gibbs_draws_are_independent(x):
    # Lag-1 autocorrelations of theta and tau^2 within 4 standard errors
    # of 0.
    n = 100000
    chain = gibbs_sample(MeansData(x), n, seed=13)
    for draws in (chain.theta_samples, chain.tau2_samples):
        assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) < 4.0 / math.sqrt(n)
