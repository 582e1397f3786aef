"""Overall prior for the multi-normal-means model.

Observations x_i ~ N(mu_i, 1); the quantity of interest is the average
squared mean theta = |mu|^2 / m.  The flat prior on mu is badly
inconsistent for theta (posterior mean theta_T + 2); the recommended
overall prior is the scale mixture mu_i | tau^2 ~ N(0, tau^2) with
pi(tau^2) = 1/(1 + tau^2), sampled by a Gibbs scheme whose every
variate is drawn in bulk before its loop.  The |mu|-reference prior
|mu|^{-(m-1)} is provided for comparison (tails one power apart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (AccuracyError, DomainError, PreconditionError,
                         SingularityError)
from .numerics import _check_seed, integrate

__all__ = [
    "MeansData",
    "ShrinkChain",
    "flat_prior_theta_mean",
    "hierarchical_prior_density",
    "reference_prior_density",
    "gibbs_sample",
    "theta_posterior_samples",
]

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
        with np.errstate(over="ignore"):
            if not math.isfinite(float(x @ x)):
                raise DomainError("the sum of squared data overflows a float")
        object.__setattr__(self, "x", x)

    @property
    def m(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ShrinkChain:
    """Gibbs draws of theta = |mu|^2 / m and tau^2.  mu itself is never
    drawn: the Rao-Blackwellised mean of mu is x * mean(tau2 / (1 + tau2)).
    The tau^2 step has no rejection, so ``rejection_rate`` is always 0.0;
    it stays for the readers of the CLI's summary.json."""

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


def gibbs_sample(data: MeansData, length: int, seed: int) -> ShrinkChain:
    """Gibbs sampler for the hierarchical posterior of (mu, tau^2).

    Given tau^2, mu_i | x ~ N(s x_i, s) with s = tau^2/(1+tau^2), and the
    tau^2 step reads mu only through |mu|^2 = s chi'^2_m(s |x|^2), drawn
    as s ((z + sqrt(s |x|^2))^2 + c), z ~ N(0, 1), c ~ chi^2_{m-1}.  The
    precision lam = 1/tau^2 has conditional density
    lam^{m/2-1} exp(-lam |mu|^2/2) / (1+lam); writing 1/(1+lam) as the
    integral of exp(-v (1+lam)) over v > 0 adds an auxiliary variable
    with v | lam ~ Exp(1+lam), i.e. v = s e with e ~ Exp(1), and
    lam | mu, v ~ Gamma(m/2, rate |mu|^2/2 + v) (Damien, Wakefield and
    Walker, JRSS B 61:331, 1999).  Each draw thus takes one each of four
    variates, which are drawn in bulk before the loop, so the loop is
    plain float arithmetic, O(1) in m.  Requires m >= 3, the case the
    paper treats.  Memory is O(length); a fixed seed gives a
    bit-identical chain.  Raises AccuracyError if a tau^2 or theta draw
    is not a positive finite float.
    """
    if data.m < 3:
        raise PreconditionError("gibbs_sample requires m >= 3")
    if length < 1:
        raise DomainError("chain length must be >= 1")
    rng = np.random.default_rng(_check_seed(seed))
    m = data.m
    xx = float(data.x @ data.x)
    draws = (rng.standard_normal(length), rng.chisquare(m - 1, length),
             rng.standard_gamma(0.5 * m, length),
             rng.standard_exponential(length))
    sq_norms, tau2s = [], []
    tau2 = 1.0
    for z, c, g, e in zip(*(d.tolist() for d in draws)):
        shrink = tau2 / (1.0 + tau2)
        u = z + math.sqrt(shrink * xx)
        sq_norm = shrink * (u * u + c)
        tau2 = (0.5 * sq_norm + shrink * e) / g
        sq_norms.append(sq_norm)
        tau2s.append(tau2)
    theta_draws = np.array(sq_norms) / m
    tau2_draws = np.array(tau2s)
    if not all(np.all((d > 0.0) & (d < math.inf))
               for d in (theta_draws, tau2_draws)):
        raise AccuracyError("a tau^2 or theta draw is not a positive "
                            "finite float")
    return ShrinkChain(theta_samples=theta_draws, tau2_samples=tau2_draws,
                       seed=seed, rejection_rate=0.0)


def theta_posterior_samples(chain: ShrinkChain) -> np.ndarray:
    """Per-draw theta = |mu|^2 / m, as stored by the chain."""
    if chain.theta_samples.size < 1:
        raise DomainError("empty chain")
    return chain.theta_samples
