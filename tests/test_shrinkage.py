"""Multi-normal-means shrinkage: prior densities, the Gibbs sampler,
and posterior summaries of theta = |mu|^2 / m."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats

from overallprior.exceptions import (DomainError, PreconditionError,
                                     SingularityError)
from overallprior.shrinkage import (MeansData, _tau2_step,
                                    flat_prior_theta_mean, gibbs_sample,
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
    m = 5
    lo, hi = 30.0, 100.0
    f = lambda r: hierarchical_prior_density([r] + [0.0] * (m - 1))
    slope = (math.log(f(hi)) - math.log(f(lo))) / (math.log(hi)
                                                   - math.log(lo))
    assert slope == pytest.approx(-m, abs=0.01)


def test_hierarchical_density_singular_at_origin():
    with pytest.raises(SingularityError):
        hierarchical_prior_density([0.0, 0.0, 0.0])


def test_reference_prior_examples():
    assert reference_prior_density([2.0, 0.0]) == pytest.approx(0.5)
    assert reference_prior_density([0.0, 3.0, 4.0]) == pytest.approx(
        5.0 ** -2)
    with pytest.raises(SingularityError):
        reference_prior_density([0.0, 0.0])


def test_reference_prior_scaling():
    m = 6
    base = reference_prior_density([1.0] * m)
    assert reference_prior_density([2.0] * m) == pytest.approx(
        base * 2.0 ** (-(m - 1)), rel=1e-12)


# ----------------------------------------------------------- tau^2 step


def test_tau2_step_stationary_distribution():
    # With mu fixed, the accepted draws follow
    #   pi(tau^2) propto (tau^2)^{-m/2} exp(-|mu|^2/2tau^2) / (1+tau^2).
    m = 5
    mu = np.array([1.0, -0.5, 0.8, 0.3, -1.2])
    s = float(mu @ mu)
    rng = np.random.default_rng(123)
    draws = np.array([_tau2_step(rng, m, s)[0] for _ in range(100000)])

    grid = np.exp(np.linspace(math.log(1e-4), math.log(1e3), 8000))
    dens = grid ** (-0.5 * m) * np.exp(-0.5 * s / grid) / (1 + grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * 0.5
                                           * (dens[1:] + dens[:-1]))))
    cdf /= cdf[-1]
    srt = np.sort(draws)
    model = np.interp(srt, grid, cdf)
    emp = np.arange(1, srt.size + 1) / srt.size
    assert np.max(np.abs(emp - model)) < 0.01


# --------------------------------------------------------------- Gibbs


def test_gibbs_requires_three_means():
    with pytest.raises(PreconditionError):
        gibbs_sample(MeansData(np.array([1.0, 2.0])), 10, seed=0)
    with pytest.raises(DomainError):
        gibbs_sample(MeansData(np.array([1.0, 2.0, 3.0])), 0, seed=0)


def test_gibbs_reproducible():
    data = MeansData(np.array([1.0, -2.0, 0.5, 3.0]))
    c1 = gibbs_sample(data, 300, seed=17)
    c2 = gibbs_sample(data, 300, seed=17)
    assert np.array_equal(c1.theta_samples, c2.theta_samples)
    assert np.array_equal(c1.tau2_samples, c2.tau2_samples)
    assert c1.rejection_rate == c2.rejection_rate


@pytest.mark.parametrize("x,length,seed,burn", [
    (np.array([2.0, -1.0, 0.5, 1.5, -2.5]), 60000, 21, 1000),
    (np.random.default_rng(5).normal(2.0, 0.2, size=20), 4000, 8, 500),
], ids=["five-means", "twenty-means"])
def test_gibbs_rao_blackwell_theta_mean(x, length, seed, burn):
    # Given tau^2, mu_i ~ N(s x_i, s) with s = tau^2/(1+tau^2), so
    # E[theta | x, tau^2] = s^2 mean(x^2) + s.  The chain mean of theta
    # must match that conditional mean averaged over the tau^2 draws;
    # the tolerance is 5-10 batch-means standard errors.
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
    # Replay the sampler's random stream: each theta is |mu|^2 / m of the
    # mu draw that feeds the next tau^2 step.
    x = np.array([1.0, 2.0, 3.0])
    chain = gibbs_sample(MeansData(x), 5, seed=1)
    theta = theta_posterior_samples(chain)
    assert theta.shape == (5,)
    rng = np.random.default_rng(1)
    tau2 = 1.0
    for it in range(5):
        shrink = tau2 / (1.0 + tau2)
        mu = rng.normal(x * shrink, math.sqrt(shrink))
        tau2, _ = _tau2_step(rng, 3, float(mu @ mu))
        assert tau2 == chain.tau2_samples[it]
        assert theta[it] == pytest.approx(np.sum(mu ** 2) / 3.0, rel=1e-14)


def test_rejection_rate_band():
    data = MeansData(np.array([1.0, -2.0, 0.5, 3.0, 0.0]))
    chain = gibbs_sample(data, 3000, seed=9)
    assert 0.0 < chain.rejection_rate < 0.95
