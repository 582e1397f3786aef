"""Overall prior for the multi-normal-means model.

Observations x_i ~ N(mu_i, 1); the quantity of interest is the average
squared mean theta = |mu|^2 / m.  The flat prior on mu is badly
inconsistent for theta (posterior mean theta_T + 2); the recommended
overall prior is the scale mixture mu_i | tau^2 ~ N(0, tau^2) with
pi(tau^2) = 1/(1 + tau^2), whose posterior is drawn exactly: with mu
integrated out, s = 1/(1 + tau^2) is a gamma variate truncated to
(0, 1), drawn by rejection, and |mu|^2 given s is a scaled noncentral
chi-square.  The |mu|-reference prior |mu|^{-(m-1)} is provided for
comparison (tails one power apart).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (AccuracyError, DomainError, PreconditionError,
                         SingularityError)
from .numerics import _check_seed, _exp, _float

__all__ = [
    "MeansData",
    "ShrinkChain",
    "flat_prior_theta_mean",
    "hierarchical_prior_density",
    "reference_prior_density",
    "gibbs_sample",
    "theta_posterior_samples",
]

_EULER = 0.5772156649015329
_CF_MAX_TERMS = 1000  # where it is used, the fraction takes under 100

# Proposals per bulk draw of the rejection sampler for s.  A fixed size,
# so that a chain is the start of any longer chain with the same seed.
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class MeansData:
    """One unit-variance observation per mean; an int datum past the float
    range raises ``DomainError``."""

    x: np.ndarray

    def __post_init__(self):
        x = _float(self.x, array=True)
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
    """Independent posterior draws of theta = |mu|^2 / m and tau^2.  mu
    itself is never drawn: the Rao-Blackwellised mean of mu is
    x * mean(tau2 / (1 + tau2)).  ``rejection_rate`` is the share of
    the rejection sampler's proposals for tau^2 that it rejected, up to
    the last draw kept."""

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


def _log_sq_norm(mu: Sequence[float]) -> tuple[int, float]:
    """(m, log |mu|^2) for a finite vector mu of length m.

    The squares are summed after dividing by max |mu_i|, so that no
    |mu_i|^2 overflows or underflows.  Raises DomainError on a
    non-finite entry, or an int entry past the float range.  At mu = 0
    it returns log |mu|^2 = -inf for m = 1, where both densities are
    finite, and raises SingularityError for m >= 2, where both are
    singular.
    """
    v = _float(mu, array=True)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("mu must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise DomainError("mu must be finite")
    big = float(np.max(np.abs(v)))
    if big == 0.0:
        if v.size == 1:
            return 1, -math.inf
        raise SingularityError("the prior density is singular at mu = 0")
    u = v / big
    return v.size, 2.0 * math.log(big) + math.log(float(u @ u))


def _log_f(m: int, z: float, log_z: float) -> float:
    """log F(m/2, z), F(b, z) = int_0^inf e^{-z t} (1 + t)^{-b} dt
    = z^{b-1} e^z Gamma(1 - b, z) (DLMF 8.6.5), for z > 0 given with
    its log; z may have overflowed to inf or underflowed to 0."""
    b = 0.5 * m
    if z == math.inf:
        return -log_z  # F = (1 - O(b/z))/z
    if z >= 1.0 or m >= 40:
        # 1/F = z + b - 1 b/(z + b + 2 - 2 (b + 1)/(z + b + 4 - ...)), the
        # even form of Legendre's fraction (DLMF 8.9.2), summed by
        # modified Lentz; its denominators stay positive.
        den = z + b
        cf = c = den
        d = 0.0
        for n in range(1, _CF_MAX_TERMS):
            a = -n * (n - 1.0 + b)
            den += 2.0
            d = 1.0 / (den + a * d)
            c = den + a / c
            cf *= c * d
            if abs(c * d - 1.0) <= 2.0 * sys.float_info.epsilon:
                return -math.log(cf)
        raise AccuracyError(f"continued fraction for b={b}, z={z} did "
                            f"not converge in {_CF_MAX_TERMS} terms")
    # Small z and m: the fraction needs thousands of terms here, so
    # recur upward from b = 1/2 or 1 with F(b, z) = (1 - z F(b-1, z))/(b-1),
    # which scales an error by z/(b-1) per step.  The recurrence runs in
    # logs and reads z through log z, so it holds as z underflows.
    if m % 2:
        c = 0.5
        log_f = (z + 0.5 * (math.log(math.pi) - log_z)
                 + math.log(math.erfc(math.sqrt(z))))
    else:
        # e^z E_1(z), E_1 by its power series (DLMF 6.6.2), whose terms
        # fall below 1e-18 by k = 19 for z < 1.
        c, term, total = 1.0, 1.0, 0.0
        for k in range(1, 20):
            term *= -z / k
            total += term / k
        log_f = z + math.log(-_EULER - log_z - total)
    while c < b:
        log_f = math.log1p(-math.exp(log_z + log_f)) - math.log(c)
        c += 1.0
    return log_f


def hierarchical_prior_density(mu: Sequence[float]) -> float:
    """Marginal overall prior density of mu (unnormalized, improper):

        integral over tau^2 of (2 pi tau^2)^{-m/2}
            exp(-|mu|^2 / (2 tau^2)) / (1 + tau^2)
        = (2 pi)^{-m/2} Gamma(m/2) e^z Gamma(1 - m/2, z),  z = |mu|^2/2.

    Depends on mu only through its norm; tail slope in log|mu| is
    -m, one power steeper than the |mu|-reference prior.  Evaluated in
    logs, with the incomplete gamma function from a continued fraction
    where z >= 1 or m >= 40 and from an upward recurrence elsewhere.
    Against 50-digit mpmath the relative error is below 5e-13 for
    m <= 500 wherever the value is a normal float, and below m * 1e-15
    beyond, from the rounding of log Gamma(m/2).  A value past the
    float range is returned as inf or 0.0.  At mu = 0 the density is
    sqrt(pi/2) for m = 1 and singular (SingularityError) for m >= 2.
    """
    m, log_s = _log_sq_norm(mu)
    if log_s == -math.inf:
        return math.sqrt(0.5 * math.pi)  # m = 1: e^z erfc(sqrt z) -> 1
    b = 0.5 * m
    log_z = log_s - math.log(2.0)
    return _exp(-b * math.log(2.0 * math.pi) + math.lgamma(b)
                + (1.0 - b) * log_z + _log_f(m, _exp(log_z), log_z))


def reference_prior_density(mu: Sequence[float]) -> float:
    """Reference prior for |mu| as quantity of interest: |mu|^{-(m-1)}.
    A value past the float range is returned as inf or 0.0.  At mu = 0
    it is 1.0 for m = 1 (the density is flat) and singular
    (SingularityError) for m >= 2."""
    m, log_s = _log_sq_norm(mu)
    return 1.0 if m == 1 else _exp(-0.5 * (m - 1) * log_s)


def _log_shrink_draws(rng: np.random.Generator, b: float, lam: float,
                      length: int) -> tuple:
    """``length`` independent draws of y = -log s, where s has density
    proportional to s^{b-1} e^{-lam s} on (0, 1), b >= 1, by rejection
    from proposals drawn ``_DRAW_BLOCK`` at a time.  Returns the draws
    and the number of proposals spent up to the last one kept."""
    if lam >= b:
        # s = G/lam with G ~ Gamma(b), kept if s < 1.
        def block():
            g = rng.standard_gamma(b, _DRAW_BLOCK)
            keep = np.flatnonzero(g < lam)
            g = g[keep]
            return keep, np.log1p((lam - g) / g)
    else:
        # y has density e^{-b y - lam e^{-y}} on y > 0; propose it from
        # Exp(r) and keep it if log U <= top - d y - lam e^{-y}, with
        # d = b - r and top = d (1 + log(lam/d)) the minimum over y of
        # d y + lam e^{-y}.  r solves r^2 - (b - lam) r - lam = 0, so
        # d = lam (1 - 1/r) lies in [0, lam), log(lam/d) is
        # -log1p(-1/r), and at lam = 0 every proposal is kept.  e is
        # -log U, an Exp(1) variate.
        q = b - lam
        r = 0.5 * (q + math.sqrt(q * q + 4.0 * lam))
        d = lam * (1.0 - 1.0 / r)
        top = d * (1.0 - math.log1p(-1.0 / r))

        def block():
            y, e = rng.standard_exponential((2, _DRAW_BLOCK))
            y /= r
            keep = np.flatnonzero(e >= d * y + lam * np.exp(-y) - top)
            return keep, y[keep]
    y = np.empty(length)
    filled = spent = 0
    while filled < length:
        keep, kept = block()
        take = min(keep.size, length - filled)
        y[filled:filled + take] = kept[:take]
        filled += take
        spent += int(keep[take - 1]) + 1 if filled == length else _DRAW_BLOCK
    return y, spent


def gibbs_sample(data: MeansData, length: int, seed: int) -> ShrinkChain:
    """Independent draws from the posterior of (tau^2, theta).

    With mu integrated out, x_i | tau^2 ~ N(0, 1 + tau^2), so
    s = 1/(1 + tau^2) given x is Gamma(b = m/2, rate lam = |x|^2/2)
    truncated to (0, 1), drawn by rejection with at least half the
    proposals kept (Devroye 1986, Non-Uniform Random Variate Generation,
    ch. II; Philippe, Stat. Comput. 7:173, 1997).  Given s, theta reads
    mu ~ N((1 - s) x, (1 - s) I) only through
    |mu|^2 = (1 - s) chi'^2_m((1 - s) |x|^2): one noncentral chi-square
    call for the whole chain.  The two come from two generators spawned
    from ``seed``, in fixed blocks, so a seed gives a bit-identical
    chain, and a chain is the start of any longer one with the same
    seed.  (The name is kept for its callers.)  Requires m >= 3, the
    case the paper treats.  Memory per draw: the 16 bytes of theta and
    tau^2 kept, and 16 of chi-square arguments and variates.  Raises
    AccuracyError if a tau^2 or theta draw is not a positive finite
    float.
    """
    if data.m < 3:
        raise PreconditionError("gibbs_sample requires m >= 3")
    if _float(length) < 1:
        raise DomainError("chain length must be >= 1")
    s_rng, theta_rng = (np.random.default_rng(child) for child in
                        np.random.SeedSequence(_check_seed(seed)).spawn(2))
    m = data.m
    xx = float(data.x @ data.x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        y, spent = _log_shrink_draws(s_rng, 0.5 * m, 0.5 * xx, length)
        theta = -np.expm1(-y)  # 1 - s, then theta
        tau2 = np.expm1(y, out=y)  # e^y - 1: never rounds to 0
        theta *= theta_rng.noncentral_chisquare(m, theta * xx)
        theta /= m
    if not all(np.all((d > 0.0) & (d < math.inf)) for d in (theta, tau2)):
        raise AccuracyError("a tau^2 or theta draw is not a positive "
                            "finite float")
    return ShrinkChain(theta_samples=theta, tau2_samples=tau2, seed=seed,
                       rejection_rate=1.0 - length / spent)


def theta_posterior_samples(chain: ShrinkChain) -> np.ndarray:
    """Per-draw theta = |mu|^2 / m, as stored by the chain."""
    if chain.theta_samples.size < 1:
        raise DomainError("empty chain")
    return chain.theta_samples
