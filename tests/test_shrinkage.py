"""Multi-normal-means shrinkage: prior densities, the Gibbs sampler,
and posterior summaries of theta = |mu|^2 / m."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats

from overallprior import shrinkage
from overallprior.exceptions import (AccuracyError, DomainError,
                                     PreconditionError, SingularityError)
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


def _tau2_cdf(m, s):
    """CDF of tau^2 | mu, integrated in log tau^2 on a fine grid around
    its scale |mu|^2/m (log density shifted to its maximum)."""
    t0 = math.log(s / m)
    t = np.linspace(t0 - 8.0, max(t0, 0.0) + 40.0, 40001)
    log_dens = ((1.0 - 0.5 * m) * t - 0.5 * s * np.exp(-t)
                - np.logaddexp(0.0, t))
    dens = np.exp(log_dens - log_dens.max())
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(t) * 0.5
                                           * (dens[1:] + dens[:-1]))))
    return t, cdf / cdf[-1]


@pytest.mark.parametrize("m,s", [(500, 20.0), (500, 500.0), (5, 3.0),
                                 (3, 0.01), (3, 1e-17)])
def test_tau2_step_ks(m, s):
    # KS distance of 10^5 draws from the exact tau^2 | mu law, within the
    # 0.1% critical value.  At (3, 1e-17) the proposal constant
    # c = L/(1+L), L = m/|mu|^2, rounds to 1.
    if s == 1e-17:
        assert 3.0 / s / (1.0 + 3.0 / s) == 1.0
    n = 100000
    rng = np.random.default_rng(7)
    draws = np.sort([_tau2_step(rng, m, s)[0] for _ in range(n)])
    t, cdf = _tau2_cdf(m, s)
    model = np.interp(np.log(draws), t, cdf)
    i = np.arange(1, n + 1)
    dist = max(np.max(i / n - model), np.max(model - (i - 1) / n))
    assert dist < 1.95 / math.sqrt(n)


class _StubRng:
    """Generator stand-in: gamma() returns the listed values in turn,
    then repeats the last; random() returns `uniform`."""

    def __init__(self, gammas, uniform):
        self.gammas, self.uniform = list(gammas), uniform

    def gamma(self, shape, scale):
        return self.gammas.pop(0) if len(self.gammas) > 1 else self.gammas[0]

    def random(self):
        return self.uniform


def test_tau2_step_rejection_cap(monkeypatch):
    # Uniforms just below 1 accept only where the acceptance ratio is 1;
    # proposals 1000x the scale of tau^2 | mu are far from that point,
    # so five proposals cannot pass.
    monkeypatch.setattr(shrinkage, "_REJECTION_CAP", 5)
    m, s = 3, 1e-12
    with pytest.raises(AccuracyError):
        _tau2_step(_StubRng([1e3 * m / s], 1.0 - 2.0 ** -53), m, s)


def test_tau2_step_rejects_proposals_out_of_float_range(monkeypatch):
    # A precision that underflows to 0, is subnormal (1/lam overflows) or
    # overflows is rejected, never divided by; the next valid one is kept.
    m, s = 5, 3.0
    rng = _StubRng([0.0, 5e-324, math.inf, m / s], 0.0)
    assert _tau2_step(rng, m, s) == (s / m, 3)
    monkeypatch.setattr(shrinkage, "_REJECTION_CAP", 5)
    for bad in (0.0, math.inf):
        with pytest.raises(AccuracyError):
            _tau2_step(_StubRng([bad], 0.0), m, s)


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


def test_gibbs_chain_pinned():
    # Recorded from the sampler that draws |mu|^2 as a scaled noncentral
    # chi-square and proposes the tau^2 precision from Gamma(m/2 - c, r):
    # the random stream must not change.  tau^2 and the rejection rate
    # are exact; theta is held to rel 1e-14, since |x|^2 is a BLAS dot
    # product, whose summation order may vary.
    x = np.random.default_rng(3).normal(size=500)
    chain = gibbs_sample(MeansData(x), 200, seed=5)
    assert float(chain.tau2_samples.sum()) == 21.849468091351934
    assert chain.rejection_rate == 0.0  # 200 proposals, none rejected
    assert float(chain.theta_samples.sum()) == pytest.approx(
        21.774669637726127, rel=1e-14, abs=0.0)
    for i, tau2, theta in [(0, 0.7005527977806185, 0.7167465067510851),
                           (1, 0.5304431341569024, 0.5850472838711366),
                           (99, 0.059924067761378326, 0.06311424702481956),
                           (199, 0.06252249003401779, 0.06160589329639655)]:
        assert chain.tau2_samples[i] == tau2
        assert chain.theta_samples[i] == pytest.approx(theta, rel=1e-14,
                                                       abs=0.0)


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
    # Replay the sampler's random stream: |mu|^2 = s chi'^2_m(s |x|^2) is
    # drawn, stored as theta = |mu|^2 / m, and feeds the next tau^2 step.
    x = np.array([1.0, 2.0, 3.0])
    chain = gibbs_sample(MeansData(x), 5, seed=1)
    theta = theta_posterior_samples(chain)
    assert theta.shape == (5,)
    rng = np.random.default_rng(1)
    tau2 = 1.0
    for it in range(5):
        shrink = tau2 / (1.0 + tau2)
        sq_norm = shrink * rng.noncentral_chisquare(3, shrink * 14.0)
        tau2, _ = _tau2_step(rng, 3, sq_norm)
        assert tau2 == chain.tau2_samples[it]
        assert theta[it] == sq_norm / 3.0


def test_rejection_rate_band():
    data = MeansData(np.array([1.0, -2.0, 0.5, 3.0, 0.0]))
    chain = gibbs_sample(data, 3000, seed=9)
    assert 0.0 < chain.rejection_rate < 0.95


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
    # Given tau^2, |mu|^2 with mu ~ N(s x, s I) is s chi'^2_m(s |x|^2):
    # the sampler's one scalar draw must match the norm of m explicit
    # normal draws in law, and both must match the exact mean
    # s (m + lam) and variance 2 s^2 (m + 2 lam) within 5 standard errors.
    x, n = _THETA_ONE, 40000
    m, s = x.size, tau2 / (1.0 + tau2)
    lam = s * float(x @ x)
    collapsed = s * np.random.default_rng(1).noncentral_chisquare(m, lam, n)
    mu = np.random.default_rng(2).normal(s * x, math.sqrt(s), size=(n, m))
    explicit = np.einsum("ij,ij->i", mu, mu)
    assert scipy.stats.ks_2samp(collapsed, explicit).pvalue > 0.001
    mean, var = s * (m + lam), 2.0 * s * s * (m + 2.0 * lam)
    kappa4 = 48.0 * s ** 4 * (m + 4.0 * lam)
    for draws in (collapsed, explicit):
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
    # The tau^2 step reads mu only through |mu|^2, so (theta, tau^2) is a
    # Markov chain with the same kernel under both samplers: the theta
    # and tau^2 means agree within 5 batch-means standard errors.
    burn = 1000
    chain = gibbs_sample(MeansData(x), length, seed=31)
    ref_theta, ref_tau2 = _full_mu_gibbs(x, length, seed=32)
    for new, ref in ((chain.theta_samples, ref_theta),
                     (chain.tau2_samples, ref_tau2)):
        (a, se_a), (b, se_b) = _batch_mean_se(new[burn:]), \
            _batch_mean_se(ref[burn:])
        assert abs(a - b) < 5.0 * math.hypot(se_a, se_b)


def test_gibbs_near_zero_theta_few_proposals():
    # theta_T = 0 at m = 500: tau^2 | mu sits near 1/m, where a proposal
    # that ignored the 1/(1+tau^2) factor would be accepted with
    # probability about tau^2.
    x = np.random.default_rng(0).normal(size=500)
    chain = gibbs_sample(MeansData(x), 10000, seed=1)
    assert 1.0 / (1.0 - chain.rejection_rate) <= 1.5
