"""Overall prior for the multi-normal-means model.

Observations x_i ~ N(mu_i, 1); the quantity of interest is the average
squared mean theta = |mu|^2 / m.  The flat prior on mu is badly
inconsistent for theta (posterior mean theta_T + 2); the recommended
overall prior is the scale mixture mu_i | tau^2 ~ N(0, tau^2) with
pi(tau^2) = 1/(1 + tau^2), sampled by a Gibbs scheme with a rejection
step.  The |mu|-reference prior |mu|^{-(m-1)} is provided for
comparison (tails one power apart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (AccuracyError, DomainError, PreconditionError,
                         SingularityError)
from .numerics import integrate

__all__ = [
    "MeansData",
    "ShrinkChain",
    "flat_prior_theta_mean",
    "hierarchical_prior_density",
    "reference_prior_density",
    "gibbs_sample",
    "theta_posterior_samples",
]

_REJECTION_CAP = 10 ** 6


@dataclass(frozen=True)
class MeansData:
    """One unit-variance observation per mean."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 1:
            raise DomainError("data must be a non-empty vector")
        if not np.all(np.isfinite(x)):
            raise DomainError("data must be finite")
        object.__setattr__(self, "x", x)

    @property
    def m(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ShrinkChain:
    """Gibbs draws of theta = |mu|^2 / m and tau^2, and the tau^2-step
    rejection rate.  mu itself is never drawn: the Rao-Blackwellised
    mean of mu is x * mean(tau2 / (1 + tau2))."""

    theta_samples: np.ndarray
    tau2_samples: np.ndarray
    seed: int
    rejection_rate: float

    def __post_init__(self):
        if self.theta_samples.shape != self.tau2_samples.shape:
            raise DomainError("theta and tau2 sample lists must align")
        if np.any(self.tau2_samples <= 0.0):
            raise DomainError("tau2 draws must be positive")


def flat_prior_theta_mean(data: MeansData) -> float:
    """Posterior mean of theta under the flat prior on mu:
    1 + (1/m) sum x_i^2.  Off by +2 from the true theta for large m."""
    return 1.0 + float(np.mean(data.x ** 2))


def hierarchical_prior_density(mu: Sequence[float]) -> float:
    """Marginal overall prior density of mu (unnormalized, improper):

        integral over tau^2 of (2 pi tau^2)^{-m/2}
            exp(-|mu|^2 / (2 tau^2)) / (1 + tau^2).

    Depends on mu only through its norm; tail slope in log|mu| is
    -m, one power steeper than the |mu|-reference prior.
"""
    v = np.asarray(mu, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("mu must be a non-empty vector")
    m = v.size
    s = float(v @ v)
    if s == 0.0:
        raise SingularityError("hierarchical prior density diverges at mu=0")

    # Substituting w = |mu|^2 / (2 tau^2) turns the integral into
    # (pi s)^{-m/2} s * int w^{m/2-1} e^{-w} / (2w + s) dw, whose
    # integrand peaks at w = O(m) for every |mu| (the original tau^2
    # form peaks at |mu|^2/m, which adaptive panels can miss).
    log_front = -0.5 * m * math.log(math.pi * s) + math.log(s)

    def integrand(w: float) -> float:
        return math.exp(log_front + (0.5 * m - 1.0) * math.log(w) - w) \
            / (2.0 * w + s)

    return integrate(integrand, 0.0, math.inf, tol=1e-9)


def reference_prior_density(mu: Sequence[float]) -> float:
    """Reference prior for |mu| as quantity of interest: |mu|^{-(m-1)}."""
    v = np.asarray(mu, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("mu must be a non-empty vector")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise SingularityError("reference prior is singular at mu = 0")
    return norm ** (-(v.size - 1))


def _tau2_step(rng: np.random.Generator, m: int, sq_norm: float):
    """Sample tau^2 | mu exactly, given m and |mu|^2 > 0.  The precision
    lam = 1/tau^2 has density lam^{m/2-1} exp(-r lam)/(1+lam), r = |mu|^2/2:
    propose lam ~ Gamma(m/2 - c, rate r), accept with probability
    lam^c/(1+lam) / (c^c (1-c)^{1-c}), which peaks at 1 at lam = L for
    c = L/(1+L), L = m/|mu|^2.  Exact for every c in [0, 1), and nearly
    rejection-free also near theta = 0; a proposal whose tau^2 is not a
    positive finite float is rejected.  Returns (draw, rejections)."""
    q = sq_norm / m  # 1/L, so that 1 - c = q/(1+q) never rounds to 0
    c, one_minus_c = 1.0 / (1.0 + q), q / (1.0 + q)
    log_bound = one_minus_c * math.log(one_minus_c) - c * math.log1p(q)
    shape, scale = 0.5 * m - c, 2.0 / sq_norm
    rejections = 0
    for _ in range(_REJECTION_CAP):
        lam = rng.gamma(shape, scale)
        tau2 = 1.0 / lam if lam > 0.0 else math.inf
        if 0.0 < tau2 < math.inf and rng.random() < math.exp(
                c * math.log(lam) - math.log1p(lam) - log_bound):
            return tau2, rejections
        rejections += 1
    raise AccuracyError("tau2 rejection step exceeded its cap",
                        best_estimate=None)


def gibbs_sample(data: MeansData, length: int, seed: int) -> ShrinkChain:
    """Gibbs sampler for the hierarchical posterior of (mu, tau^2).

    Given tau^2, mu_i | x ~ N(s x_i, s) with s = tau^2/(1+tau^2); the
    exact rejection step for tau^2 | mu reads mu only through |mu|^2, so
    that is drawn directly as s * chi'^2_m(s |x|^2): one noncentral
    chi-square per draw, O(1) in m.  The (theta, tau^2) chain has the law
    of the Gibbs sampler that draws all m means.  Requires m >= 3, the
    case the paper treats.  Memory is O(length); a fixed seed gives a
    bit-identical chain.
    """
    if data.m < 3:
        raise PreconditionError("gibbs_sample requires m >= 3")
    if length < 1:
        raise DomainError("chain length must be >= 1")
    rng = np.random.default_rng(seed)
    m = data.m
    xx = float(data.x @ data.x)
    theta_draws = np.empty(length)
    tau2_draws = np.empty(length)
    tau2 = 1.0
    rejections = 0
    for it in range(length):
        shrink = tau2 / (1.0 + tau2)
        sq_norm = shrink * rng.noncentral_chisquare(m, shrink * xx)
        tau2, rej = _tau2_step(rng, m, sq_norm)
        rejections += rej
        theta_draws[it] = sq_norm / m
        tau2_draws[it] = tau2
    total_proposals = length + rejections
    return ShrinkChain(theta_samples=theta_draws, tau2_samples=tau2_draws,
                       seed=seed,
                       rejection_rate=rejections / total_proposals)


def theta_posterior_samples(chain: ShrinkChain) -> np.ndarray:
    """Per-draw theta = |mu|^2 / m, as stored by the chain."""
    if chain.theta_samples.size < 1:
        raise DomainError("empty chain")
    return chain.theta_samples
