"""Catalogue of common reference priors with closed forms.

Models whose Fisher information is diagonal with each entry a product
of one-variable factors admit a single one-at-a-time reference prior
shared by every parameter of interest; this module exposes those
kernels (mostly improper, evaluated pointwise and unnormalized)
together with the bivariate-normal right-Haar family and its
arithmetic/geometric averages.

Scale arguments must be positive and finite.  No partial product
under- or overflows (``_reciprocal_product``): a valid point gives its
value, or inf where that exceeds the float range.  Every argument is
taken as a float: an int past the float range raises ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError, SingularityError
from .numerics import (_TINY_FLOAT, _exp, _float, _trigamma_excess,
                       trigamma)

__all__ = [
    "BvnParams",
    "DiagFisherSpec",
    "theorem1_prior",
    "bivariate_binomial_prior",
    "directional_multinomial_prior",
    "theta_to_xi",
    "xi_to_theta",
    "expfam_prior",
    "normal_expfam_curvatures",
    "inverse_gaussian_expfam_curvatures",
    "gamma_expfam_curvatures",
    "inverse_gamma_expfam_curvatures",
    "inverse_gaussian_prior",
    "gamma_mean_prior",
    "stress_strength_prior",
    "eta_to_theta_psi",
    "theta_psi_to_eta",
    "right_haar_density",
    "haar_arithmetic_average",
    "haar_geometric_average",
    "ENTRIES",
]


def _reciprocal_product(*factors: float) -> float:
    """1 / prod(factors) for positive finite factors, mantissas and binary
    exponents taken apart (``math.frexp``): inf where the value exceeds
    the float range, 0 or a subnormal where it falls below it."""
    mantissa, exponent = 1.0, 0
    for f in factors:
        mf, ef = math.frexp(f)
        mantissa, em = math.frexp(mantissa * mf)
        exponent -= ef + em
    mf, ef = math.frexp(1.0 / mantissa)
    return math.inf if ef + exponent > 1024 else math.ldexp(mf, ef + exponent)


@dataclass(frozen=True)
class BvnParams:
    """Bivariate normal parameters (means, scales, correlation), stored
    as floats."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "rho"):
            object.__setattr__(self, name, _float(getattr(self, name)))
        if not all(0.0 < v < math.inf for v in (self.sigma1, self.sigma2)):
            raise DomainError("scales must be positive and finite")
        if not (-1.0 < self.rho < 1.0):
            raise DomainError("correlation must lie in (-1, 1)")


@dataclass(frozen=True)
class DiagFisherSpec:
    """Per-coordinate positive Fisher factors f_i(theta_i)."""

    f_list: tuple

    def __post_init__(self):
        if len(self.f_list) < 1:
            raise DomainError("need at least one Fisher factor")


def theorem1_prior(spec: DiagFisherSpec, theta: Sequence[float]) -> float:
    """One-at-a-time reference prior for a diagonal Fisher matrix whose
    i-th entry factorizes with theta_i-dependence f_i: sqrt(prod f_i).
    The same prior serves every parameter of interest and ordering;
    formed as 1 / prod(1/sqrt(f_i)), inf past the float range."""
    if len(theta) != len(spec.f_list):
        raise DomainError("theta length must match the number of factors")
    roots = []
    for f, t in zip(spec.f_list, theta):
        v = f(_float(t))
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"Fisher factor non-positive at theta={t}")
        roots.append(1.0 / math.sqrt(v))
    return _reciprocal_product(*roots)


def bivariate_binomial_prior(theta1: float, theta2: float) -> float:
    """Reference prior for the bivariate binomial:
    {theta1(1-theta1) theta2(1-theta2)}^{-1/2}, a product of Be(1/2,1/2)
    kernels (proper; normalizer pi^2)."""
    theta1, theta2 = _float(theta1), _float(theta2)
    for t in (theta1, theta2):
        if not (0.0 < t < 1.0):
            raise SingularityError(f"theta={t} on the boundary of (0,1)")
    return _reciprocal_product(math.sqrt(theta1 * (1 - theta1)),
                               math.sqrt(theta2 * (1 - theta2)))


def directional_multinomial_prior(xi: Sequence[float]) -> float:
    """Reference prior for the multinomial in the conditional-cell
    parametrization: independent Be(1/2,1/2) kernels for each xi_j."""
    xi = [_float(x) for x in xi]
    for x in xi:
        if not (0.0 < x < 1.0):
            raise SingularityError(f"xi={x} on the boundary of (0,1)")
    return _reciprocal_product(*(math.sqrt(x * (1.0 - x)) for x in xi))


def theta_to_xi(theta: Sequence[float]) -> np.ndarray:
    """Cell probabilities to conditional probabilities:
    xi_j = theta_j / (theta_j + ... + theta_m), j = 1..m-1."""
    t = _float(theta, array=True)
    if t.ndim != 1 or t.size < 2:
        raise DomainError("theta must have at least 2 cells")
    if np.any(t <= 0.0) or abs(t.sum() - 1.0) > 1e-12:
        raise DomainError("theta must be interior to the simplex")
    tails = np.cumsum(t[::-1])[::-1]
    return t[:-1] / tails[:-1]


def xi_to_theta(xi: Sequence[float]) -> np.ndarray:
    """Inverse of theta_to_xi: theta_j = xi_j prod_{i<j} (1 - xi_i)."""
    x = _float(xi, array=True)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("xi must be a non-empty vector")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("each xi must lie in (0,1)")
    survivors = np.concatenate(([1.0], np.cumprod(1.0 - x)))
    theta = np.empty(x.size + 1)
    theta[:-1] = x * survivors[:-1]
    theta[-1] = survivors[-1]
    return theta


def expfam_prior(G1pp: Callable[[float], float],
                 G2pp: Callable[[float], float],
                 theta1: float, theta2: float) -> float:
    """Common reference prior sqrt(G1''(theta1) G2''(theta2)) for the
    two-parameter exponential family with carriers G1, G2.  A negative
    curvature, or one past the normal float range, which cannot carry
    the prior's value, raises ``DomainError``."""
    c1 = G1pp(_float(theta1))
    c2 = G2pp(_float(theta2))
    if not (c1 >= 0.0 and c2 >= 0.0):
        raise DomainError("both curvatures must be positive")
    for k, c, t in ((1, c1, theta1), (2, c2, theta2)):
        if not (_TINY_FLOAT <= c < math.inf):
            raise DomainError(f"curvature G{k}'' = {c} at theta{k} = {t} "
                              "has left the float range")
    return math.sqrt(c1) * math.sqrt(c2)


def _h_curvature(theta1: float) -> float:
    # G1(t) = -t + t log(-t) + log Gamma(-t), t = -alpha < 0, so
    # G1'' = trigamma(alpha) - 1/alpha = (alpha trigamma(alpha) - 1)/alpha.
    if not (theta1 < 0.0):
        raise DomainError("natural parameter theta1 must be negative")
    return _trigamma_excess(-theta1) / -theta1


def _log_curvature(theta1: float) -> float:
    # G1 = -log(-2 theta1)/2, so G1'' = 1/(2 theta1^2) for theta1 < 0.
    if not (theta1 < 0.0):
        raise DomainError("natural parameter theta1 must be negative")
    return 0.5 / theta1 / theta1


def normal_expfam_curvatures():
    """Natural-parameter curvatures for the normal model:
    G1 = -log(-2 theta1)/2 (theta1 = -1/(2 sigma^2)), G2 = theta2^2."""
    return _log_curvature, (lambda t2: 2.0)


def inverse_gaussian_expfam_curvatures():
    """G1 = -log(-2 theta1)/2, G2 = 1/theta2 (theta2 > 0)."""
    def g2pp(t2):
        if not (t2 > 0.0):
            raise DomainError("theta2 must be positive")
        return 2.0 / t2 / t2 / t2
    return _log_curvature, g2pp


def gamma_expfam_curvatures():
    """G1 = h(theta1) with theta1 = -alpha, G2 = -log theta2 with
    theta2 = mu."""
    def g2pp(t2):
        if not (t2 > 0.0):
            raise DomainError("theta2 must be positive")
        return 1.0 / t2 / t2
    return _h_curvature, g2pp


def inverse_gamma_expfam_curvatures():
    """Same carriers as the gamma; only the sufficient statistics
    differ (log x, 1/x), so the reference prior coincides."""
    return gamma_expfam_curvatures()


def inverse_gaussian_prior(alpha: float, psi: float) -> float:
    """Common reference prior for the inverse Gaussian: 1/(alpha sqrt(psi))."""
    alpha, psi = _float(alpha), _float(psi)
    if not (0.0 < alpha < math.inf and 0.0 < psi < math.inf):
        raise DomainError("alpha and psi must be positive and finite")
    return _reciprocal_product(alpha, math.sqrt(psi))


def gamma_mean_prior(alpha: float, mu: float) -> float:
    """Common reference prior for the Gamma(alpha, mean mu):
    sqrt(alpha trigamma(alpha) - 1) / (sqrt(alpha) mu), the difference
    taken from `_trigamma_excess`; below alpha = 1, where 1/alpha may
    overflow, as sqrt(1 - alpha + alpha^2 trigamma(alpha + 1))/(alpha mu)."""
    alpha, mu = _float(alpha), _float(mu)
    if not (0.0 < alpha < math.inf and 0.0 < mu < math.inf):
        raise DomainError("alpha and mu must be positive and finite")
    if alpha < 1.0:
        return (math.sqrt(1.0 - alpha + alpha * alpha * trigamma(alpha + 1.0))
                * _reciprocal_product(alpha, mu))
    return math.sqrt(_trigamma_excess(alpha)) * _reciprocal_product(
        math.sqrt(alpha), mu)


def stress_strength_prior(theta: float, psi: float) -> float:
    """Reference (= Jeffreys) prior for the exponential stress-strength
    reliability: 1 / {theta (1-theta) psi}."""
    theta, psi = _float(theta), _float(psi)
    if not (0.0 < theta < 1.0):
        raise SingularityError("theta must lie strictly in (0,1)")
    if not (0.0 < psi < math.inf):
        raise SingularityError("psi must be positive and finite")
    return _reciprocal_product(theta, 1.0 - theta, psi)


def eta_to_theta_psi(eta1: float, eta2: float, m: int, n: int):
    """Exponential-rates to (reliability, nuisance):
    theta = eta1/(eta1+eta2), psi = eta1^{(m+n)/n} eta2^{(m+n)/m}.

    theta is 1/(1 + eta2/eta1) and psi exp(L1 + L2), with L1 and L2
    the logs of the two powers, so psi is inf past the float range and
    0.0 below it.  Against 40-digit mpmath at 20,000 random points its
    relative error is below 3 * 2^-53 max(1, |L1| + |L2|)."""
    eta1, eta2, m, n = map(_float, (eta1, eta2, m, n))
    if not (0.0 < eta1 < math.inf and 0.0 < eta2 < math.inf):
        raise DomainError("rates must be positive and finite")
    if m < 1 or n < 1:
        raise DomainError("sample sizes must be positive")
    theta = 1.0 / (1.0 + eta2 / eta1)
    psi = _exp((m + n) / n * math.log(eta1) + (m + n) / m * math.log(eta2))
    return theta, psi


def theta_psi_to_eta(theta: float, psi: float, m: int, n: int):
    """Inverse of eta_to_theta_psi, solved from the ratio
    eta1/eta2 = theta/(1-theta) and the psi product in logs; a rate is
    inf past the float range and 0.0 below it."""
    theta, psi, m, n = map(_float, (theta, psi, m, n))
    if not (0.0 < theta < 1.0 and 0.0 < psi < math.inf and min(m, n) >= 1):
        raise DomainError("need theta in (0,1), finite psi > 0, m, n >= 1")
    log_r = math.log(theta / (1.0 - theta))  # eta1 = r * eta2
    # psi = (r eta2)^{(m+n)/n} eta2^{(m+n)/m}
    p = (m + n) / n + (m + n) / m
    log_eta2 = (math.log(psi) - (m + n) / n * log_r) / p
    return _exp(log_r + log_eta2), _exp(log_eta2)


def right_haar_density(p: BvnParams, beta: float) -> float:
    """Right-Haar prior for the bivariate normal observed through the
    rotation by beta: the family interpolating pi_1 (beta = pi/2) and
    pi_2 (beta = 0), for finite beta: with u = sin(beta)/sigma2 and
    v = cos(beta)/sigma1, (u + rho v)^2/(1 - rho^2) + v^2."""
    beta = _float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    u, v = math.sin(beta) / p.sigma2, math.cos(beta) / p.sigma1
    if math.isinf(u) or math.isinf(v):
        return math.inf
    w = u + p.rho * v
    return w * w / (1.0 - p.rho ** 2) + v * v


def haar_arithmetic_average(p: BvnParams) -> float:
    """Arithmetic average of the two standard right-Haar priors; equals
    the uniform-beta average of right_haar_density up to a constant."""
    d = 1.0 - p.rho ** 2
    return 0.5 * (_reciprocal_product(p.sigma1, p.sigma1, d)
                  + _reciprocal_product(p.sigma2, p.sigma2, d))


def haar_geometric_average(p: BvnParams) -> float:
    """Geometric average of the two right-Haar priors,
    1/[sigma1 sigma2 (1-rho^2)]: the recommended overall prior."""
    return _reciprocal_product(p.sigma1, p.sigma2, 1.0 - p.rho ** 2)


# name -> (callable over positional floats, argument description,
# proper?, number of arguments, or None for any number from 1 up)
ENTRIES = {
    "bivariate-binomial": (
        lambda args: bivariate_binomial_prior(args[0], args[1]),
        "theta1 theta2 in (0,1)", True, 2),
    "directional-multinomial": (
        lambda args: directional_multinomial_prior(args),
        "xi_1 .. xi_{m-1} in (0,1)", True, None),
    "inverse-gaussian": (
        lambda args: inverse_gaussian_prior(args[0], args[1]),
        "alpha psi > 0", False, 2),
    "gamma-expfam": (
        lambda args: gamma_mean_prior(args[0], args[1]),
        "alpha mu > 0", False, 2),
    "stress-strength": (
        lambda args: stress_strength_prior(args[0], args[1]),
        "theta in (0,1), psi > 0", False, 2),
    "right-haar": (
        lambda args: right_haar_density(
            BvnParams(0.0, 0.0, args[1], args[2], args[3]), args[0]),
        "beta sigma1 sigma2 rho", False, 4),
    "arithmetic-average": (
        lambda args: haar_arithmetic_average(
            BvnParams(0.0, 0.0, args[0], args[1], args[2])),
        "sigma1 sigma2 rho", False, 3),
    "geometric-average": (
        lambda args: haar_geometric_average(
            BvnParams(0.0, 0.0, args[0], args[1], args[2])),
        "sigma1 sigma2 rho", False, 3),
}
