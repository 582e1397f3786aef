"""Reference-distance selection of an overall prior.

Covers the symmetric-Dirichlet candidate family for the multinomial
(expected logarithmic loss over the hyperparameter a, and its
minimizer), the closed-form location and scale risks for the normal
model under the relatively-invariant family sigma^{-a}, and the
posterior-summary helpers used by the sparse-table demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import DegenerateDataError, DomainError
from .numerics import (Grid1D, OptimResult, digamma, log_gamma,
                       log_rising_ratio, minimize_scalar)

__all__ = [
    "RefDistConfig",
    "LossCurve",
    "CountVector",
    "NormalPosteriorSample",
    "reference_predictive",
    "expected_loss",
    "optimal_a",
    "loss_curve",
    "dirichlet_posterior_means",
    "dirichlet_posterior_variances",
    "d_mu",
    "d_sigma",
    "normal_posterior_sample",
    "phi_posterior_from_sample",
]

# Bracket for the hyperparameter search, in units of 1/m on the low end.
# Covers 0.8/m for every m up to 1e5 as well as the Jeffreys value 1/2.
_A_BRACKET_LO_TIMES_M = 1e-4
_A_BRACKET_HI = 10.0

# psi(1) = -gamma (Euler's constant) and psi(1/2) = -gamma - 2 log 2.
_PSI_ONE = -0.5772156649015329
_PSI_HALF = _PSI_ONE - 2.0 * math.log(2.0)


@dataclass(frozen=True)
class RefDistConfig:
    """Multinomial problem size: m cells, sample size n.

    Every cell of the symmetric Dirichlet candidate family has the same
    expected loss, so d(a) is the loss of any one cell.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"need m >= 2 cells, got {self.m}")
        if self.n < 1:
            raise DomainError(f"need sample size n >= 1, got {self.n}")


@dataclass(frozen=True)
class LossCurve:
    """Tabulated expected logarithmic loss d(a | m, n)."""

    grid: Grid1D
    m: int
    n: int

    def __post_init__(self):
        if any(v < -1e-12 for v in self.grid.values):
            raise DomainError("loss values must be nonnegative")


@dataclass(frozen=True)
class CountVector:
    """Dense multinomial counts; n is their sum."""

    counts: tuple

    def __post_init__(self):
        c = tuple(int(x) for x in self.counts)
        if any(x < 0 for x in c):
            raise DomainError("counts must be nonnegative")
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)


def reference_predictive(x: int, n: int) -> float:
    """Predictive mass of a cell count under the per-cell Be(1/2,1/2) prior.

    p(x | n) = (1/pi) Gamma(x+1/2) Gamma(n-x+1/2) / (x! (n-x)!).
    """
    if not (0 <= x <= n):
        raise DomainError(f"count x={x} outside 0..{n}")
    return math.exp(
        log_gamma(x + 0.5) + log_gamma(n - x + 0.5)
        - log_gamma(x + 1.0) - log_gamma(n - x + 1.0)
    ) / math.pi


def _reference_terms(n: int):
    """The parts of the expected loss that do not depend on a: the
    reference predictive p(x | n) and psi(x + 1/2) for x = 0..n, and
    psi(n + 1), from the rising-factorial and digamma recurrences."""
    # log[Gamma(x + 1/2) / (Gamma(1/2) x!)]; Gamma(1/2)^2 = pi cancels
    # the 1/pi of the predictive.
    g = log_rising_ratio(0.5, 1.0, n)
    predictive = np.exp(g + g[::-1])
    steps = np.arange(n, dtype=float)
    psi_half = np.empty(n + 1)
    psi_half[0] = _PSI_HALF
    psi_half[1:] = _PSI_HALF + np.cumsum(1.0 / (steps + 0.5))
    psi_next = _PSI_ONE + float(np.sum(1.0 / (steps + 1.0)))
    return predictive, psi_half, psi_next


def expected_loss(a: float, cfg: RefDistConfig) -> float:
    """Predictive-averaged divergence of the Dirichlet(a,..,a) marginal
    posterior from the per-cell reference posterior.

    By symmetry of the candidate family all m cells carry the same
    expected loss, so the weighted sum collapses to a single sum over
    the cell count x = 0..n of
    kl_beta(x + a, n - x + (m-1)a, x + 1/2, n - x + 1/2) p(x | n),
    evaluated as one array expression in which every log-gamma
    difference is a rising-factorial ratio.
    """
    if not (a > 0.0):
        raise DomainError(f"hyperparameter a must be positive, got {a}")
    m, n = cfg.m, cfg.n
    b = (m - 1) * a
    predictive, psi_half, psi_next = _reference_terms(n)
    divergence = (
        log_rising_ratio(1.0, m * a, n)[-1]
        + log_gamma(a) + log_gamma(b) - log_gamma(m * a) - math.log(math.pi)
        + log_rising_ratio(a, 0.5, n) + log_rising_ratio(b, 0.5, n)[::-1]
        + (0.5 - a) * psi_half + (0.5 - b) * psi_half[::-1]
        - (1.0 - m * a) * psi_next
    )
    return float(predictive @ divergence)


def optimal_a(cfg: RefDistConfig, tol: float = 1e-8) -> OptimResult:
    """Minimize expected_loss over a, searching in log(a) space.

    The optimum scales like 1/m, so the bracket is [1e-4/m, 10] on the
    original scale.
    """
    lo = math.log(_A_BRACKET_LO_TIMES_M / cfg.m)
    hi = math.log(_A_BRACKET_HI)
    res = minimize_scalar(lambda t: expected_loss(math.exp(t), cfg),
                          lo, hi, tol=tol)
    return OptimResult(argmin=math.exp(res.argmin), min_value=res.min_value,
                       iterations=res.iterations, converged=res.converged)


def loss_curve(cfg: RefDistConfig, a_grid: Sequence[float]) -> LossCurve:
    """Tabulate d(a | m, n) on the given positive increasing grid."""
    pts = [float(a) for a in a_grid]
    if any(a <= 0 for a in pts):
        raise DomainError("grid values must be positive")
    vals = [expected_loss(a, cfg) for a in pts]
    return LossCurve(grid=Grid1D(points=tuple(pts), values=tuple(vals)),
                     m=cfg.m, n=cfg.n)


def dirichlet_posterior_means(x: CountVector, a: float) -> list:
    """Posterior cell means (x_i + a) / (n + m a) under Dirichlet(a,..,a)."""
    if not (a > 0.0):
        raise DomainError("a must be positive")
    denom = x.n + x.m * a
    return [(c + a) / denom for c in x.counts]


def dirichlet_posterior_variances(x: CountVector, a: float) -> list:
    """Beta marginal variances of each cell under the Dirichlet posterior."""
    if not (a > 0.0):
        raise DomainError("a must be positive")
    denom = x.n + x.m * a
    out = []
    for c in x.counts:
        mean = (c + a) / denom
        out.append(mean * (1.0 - mean) / (denom + 1.0))
    return out


def _check_normal_risk_args(a: float, n: int) -> None:
    if n < 2:
        raise DomainError(f"need n >= 2 observations, got {n}")
    if not (a > 0.0):
        raise DomainError("a must be positive")
    if not (a + n > 2.0):
        raise DomainError("need a + n > 2 for finite gamma arguments")


def d_mu(a: float, n: int) -> float:
    """Expected logarithmic risk for the location parameter under the
    prior sigma^{-a}; parameter-free, concave in a, zero at a = 1.
    """
    _check_normal_risk_args(a, n)
    return (
        log_gamma(n / 2.0) + log_gamma((a + n) / 2.0 - 1.0)
        - log_gamma((n - 1) / 2.0) - log_gamma((a + n - 1) / 2.0)
        - 0.5 * (a - 1.0) * (digamma((n - 1) / 2.0) - digamma(n / 2.0))
    )


def d_sigma(a: float, n: int) -> float:
    """Expected logarithmic risk for the scale parameter under sigma^{-a}."""
    _check_normal_risk_args(a, n)
    return (
        log_gamma((a + n) / 2.0 - 1.0) - log_gamma((n - 1) / 2.0)
        - 0.5 * (a - 1.0) * digamma((n - 1) / 2.0)
    )


@dataclass(frozen=True)
class NormalPosteriorSample:
    """Joint posterior draws of (mu, sigma) for the normal model."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape:
            raise DomainError("mu and sigma draws must align")


def normal_posterior_sample(data: Sequence[float], a: float, size: int,
                            seed: int) -> NormalPosteriorSample:
    """Exact joint posterior draws under the prior sigma^{-a}.

    Two-stage conjugate decomposition: the precision 1/sigma^2 is
    Gamma((n+a-2)/2, rate n s^2 / 2), then mu | sigma is normal with
    mean xbar and variance sigma^2/n.  For a = 1 the mu-marginal is
    Student t with n-1 degrees of freedom, location xbar and scale
    s/sqrt(n-1).
    """
    x = np.asarray(data, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("need at least two observations")
    if not (a > 0.0):
        raise DomainError("a must be positive")
    if not (a + n > 2.0):
        raise DomainError("need a + n > 2 for a proper posterior")
    if size < 1:
        raise DomainError("size must be >= 1")
    xbar = float(x.mean())
    s2 = float(np.mean((x - xbar) ** 2))
    if s2 <= 0.0:
        raise DegenerateDataError("constant data: posterior degenerates")
    rng = np.random.default_rng(seed)
    shape = 0.5 * (n + a - 2.0)
    rate = 0.5 * n * s2
    lam = rng.gamma(shape, 1.0 / rate, size=size)
    sigma = 1.0 / np.sqrt(lam)
    mu = rng.normal(xbar, sigma / math.sqrt(n))
    return NormalPosteriorSample(mu=mu, sigma=sigma)


def phi_posterior_from_sample(sample: NormalPosteriorSample) -> np.ndarray:
    """Standardized-mean draws phi = mu / sigma."""
    if np.any(sample.sigma <= 0.0):
        raise DomainError("sigma draws must be positive")
    return sample.mu / sample.sigma
