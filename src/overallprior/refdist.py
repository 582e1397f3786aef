"""Reference-distance selection of an overall prior.

Covers the symmetric-Dirichlet candidate family for the multinomial
(expected logarithmic loss over the hyperparameter a, and its
minimizer), the closed-form location and scale risks for the normal
model under the relatively-invariant family sigma^{-a}, and the
posterior-summary helpers used by the sparse-table demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import AccuracyError, DegenerateDataError, DomainError
from .numerics import (_FLOAT_MAX, OptimResult, _check_seed,
                       _digamma_float, _find_root, _float, _gamma_kl,
                       log_gamma, log_rising_ratio)

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
# The warm bracket [0.5/m, 1.1/m] that ``optimal_a`` tries first: m a*
# stays in [0.72, 1.00] for m from 2 to 1e12 and n from 1 to 3000.  For
# every m >= 2 it lies inside the bracket above.
_A_WARM_LO_TIMES_M = 0.5
_A_WARM_HI_TIMES_M = 1.1

# The largest m a at which the expected loss is evaluated: log Gamma(m a)
# leaves the float range above about 2.5e305.
_MAX_MA = 1e305

# Below this rate per unit of shape, the mean precision shape/rate of the
# normal posterior is within a factor 2^64 of the float range, so a
# precision draw can overflow: ``normal_posterior_sample`` then samples
# the data over their largest magnitude.
_MIN_RATE_PER_SHAPE = 2.0 ** -960


@dataclass(frozen=True)
class RefDistConfig:
    """Multinomial problem size: m cells, sample size n.

    Every cell of the symmetric Dirichlet candidate family has the same
    expected loss, so d(a) is the loss of any one cell.  An int m or n
    past the float range raises ``DomainError``.
    """

    m: int
    n: int

    def __post_init__(self):
        if _float(self.m) < 2:
            raise DomainError(f"need m >= 2 cells, got {self.m}")
        if _float(self.n) < 1:
            raise DomainError(f"need sample size n >= 1, got {self.n}")


@dataclass(frozen=True)
class LossCurve:
    """Tabulated expected logarithmic loss d(a | m, n): finite,
    nonnegative (to -1e-12, for rounding) ``values`` at strictly
    increasing ``points`` a, as tuples of floats of one nonzero length."""

    points: tuple
    values: tuple
    m: int
    n: int

    def __post_init__(self):
        points = tuple(float(p) for p in self.points)
        values = tuple(float(v) for v in self.values)
        if not points or len(points) != len(values):
            raise DomainError("need as many points as values, at least one")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise DomainError("grid points must be strictly increasing")
        if not all(math.isfinite(v) and v >= -1e-12 for v in values):
            raise DomainError("loss values must be finite and nonnegative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CountVector:
    """Dense multinomial counts; n is their sum, which must have a float."""

    counts: tuple

    def __post_init__(self):
        c = tuple(int(x) for x in self.counts)
        if any(x < 0 for x in c):
            raise DomainError("counts must be nonnegative")
        _float(sum(c))
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)


def _predictive_row(n: int) -> np.ndarray:
    """The reference predictive p(x | n) for x = 0..n, each log-gamma
    difference a rising-factorial ratio, so no large logs cancel."""
    # log[Gamma(x + 1/2) / (Gamma(1/2) x!)]; Gamma(1/2)^2 = pi cancels
    # the 1/pi of the predictive.
    g = log_rising_ratio(0.5, 1.0, n)
    return np.exp(g + g[::-1])


def reference_predictive(x: int, n: int) -> float:
    """Predictive mass of a cell count under the per-cell Be(1/2,1/2) prior.

    p(x | n) = (1/pi) Gamma(x+1/2) Gamma(n-x+1/2) / (x! (n-x)!).
    """
    if not (0 <= x <= _float(n)):
        raise DomainError(f"count x={x} outside 0..{n}")
    return float(_predictive_row(n)[x])


def expected_loss(a: float, cfg: RefDistConfig) -> float:
    """Predictive-averaged divergence of the Dirichlet(a,..,a) marginal
    posterior from the per-cell reference posterior: by symmetry, the
    sum over x = 0..n of kl_beta(x + a, n - x + b, x + 1/2, n - x + 1/2)
    p(x | n), with b = (m-1)a.  By the chain rule of relative entropy
    (Cover and Thomas, Elements of Information Theory, Thm 2.5.3),

        d(a) = KL(Be(1/2, 1/2) || Be(a, b)) - KL(p_ref || p_a),

    with p_ref = p(x | n) and p_a the beta-binomial(a, b) law of the
    cell count.  The digamma parts of the first add up to
    (1 - m a)(psi(1/2) - psi(1)) = -2 (1 - m a) log 2; the second is one
    dot product of the symmetric p_ref with rising-factorial ratios.
    Relative error below 2e-13 against mpmath for m, n up to 1000 and
    a in [1e-6, 10].  Defined for a > 0 with m a <= 1e305, down to the
    subnormal a.
    """
    if not _in_domain(a, cfg.m):
        raise DomainError(f"hyperparameter a must be positive with "
                          f"m a <= {_MAX_MA}, got {a}")
    return _expected_loss(a, cfg.m, cfg.n, _predictive_row(cfg.n))


def _in_domain(a: float, m: int) -> bool:
    """Whether a > 0 and m a <= ``_MAX_MA``, the domain of the loss."""
    return 0.0 < a and m * a <= _MAX_MA


def _expected_loss(a: float, m: int, n: int, predictive: np.ndarray) -> float:
    """``expected_loss`` at a valid a, given ``_predictive_row(n)``."""
    b = (m - 1) * a
    return float(
        log_rising_ratio(1.0, m * a, n)[-1]
        + log_gamma(a) + log_gamma(b) - log_gamma(m * a) - math.log(math.pi)
        + predictive @ (log_rising_ratio(a, 0.5, n)
                        + log_rising_ratio(b, 0.5, n))
        - 2.0 * (1.0 - m * a) * math.log(2.0)
    )


def optimal_a(cfg: RefDistConfig) -> OptimResult:
    """Minimize expected_loss over a in [1e-4/m, 10]: the zero of its
    slope in t = log a, by ``numerics._find_root``.  With b = (m-1)a
    and P the reference predictive, that slope a d'(a) is

        a psi(a) + b psi(b) - ma psi(ma) + 2 ma log 2
        + sum_{i<n} [P(X > i) (a/(a+i) + b/(b+i)) - ma/(ma+i)],

    whose sums cancel term by term near a*, so they are taken as one.
    The slope is first taken at the ends of the warm bracket
    [0.5/m, 1.1/m], around m a* ~ 0.8; where it changes sign there, the
    root is solved in that bracket, and otherwise on the whole window,
    as if the warm ends had not been tried.  a* is within 3e-14
    relative of 40-digit mpmath argmins for (m, n) = (10, 100),
    (100, 1000) and (1000, 100), where the slope's rounding sets it.
    ``iterations`` counts slope evaluations, the two at the warm ends
    included: 10 to 12 there, and 2 more than the whole window's count
    where the root is outside the warm bracket.  ``min_value`` is
    ``expected_loss`` at a*.  Each evaluation makes three float digamma
    calls and builds no array: its O(n) sum runs in two buffers
    allocated once per solve.
    """
    m, n = cfg.m, cfg.n
    predictive = _predictive_row(n)
    # P(X > i) for i < n; 1 - cumsum keeps the large tails to 1e-16.
    tail = 1.0 - np.cumsum(predictive[:-1])
    i = np.arange(n, dtype=float)
    buffers = np.empty(n), np.empty(n)
    two_log2 = 2.0 * math.log(2.0)
    psi = _digamma_float

    def slope(t: float) -> float:
        u, v = buffers
        a = math.exp(t)
        b, ma = (m - 1) * a, m * a
        # tail (a/(a+i) + b/(b+i)) - ma/(ma+i), in place.
        np.divide(a, np.add(i, a, out=u), out=u)
        u += np.divide(b, np.add(i, b, out=v), out=v)
        u *= tail
        u -= np.divide(ma, np.add(i, ma, out=v), out=v)
        return (a * psi(a) + b * psi(b) - ma * psi(ma)
                + two_log2 * ma + float(u.sum()))

    lo, hi = (math.log(_A_WARM_LO_TIMES_M / m),
              math.log(_A_WARM_HI_TIMES_M / m))
    f_lo, f_hi = slope(lo), slope(hi)
    if (f_lo > 0.0) != (f_hi > 0.0):
        t, evals = _find_root(slope, lo, hi, f_lo, f_hi)
    else:
        t, evals = _find_root(slope, math.log(_A_BRACKET_LO_TIMES_M / m),
                              math.log(_A_BRACKET_HI))
    a = math.exp(t)
    return OptimResult(argmin=a, min_value=_expected_loss(a, m, n, predictive),
                       iterations=evals + 2)


def loss_curve(cfg: RefDistConfig, a_grid: Sequence[float]) -> LossCurve:
    """Tabulate d(a | m, n) on the given positive increasing grid, with
    m a <= 1e305 (see ``expected_loss``)."""
    pts = [_float(a) for a in a_grid]
    if not all(_in_domain(a, cfg.m) for a in pts):
        raise DomainError(f"grid values must be positive, with "
                          f"m a <= {_MAX_MA}")
    predictive = _predictive_row(cfg.n)
    vals = [_expected_loss(a, cfg.m, cfg.n, predictive) for a in pts]
    return LossCurve(points=tuple(pts), values=tuple(vals), m=cfg.m, n=cfg.n)


def dirichlet_posterior_means(x: CountVector, a: float) -> list:
    """Posterior cell means (x_i + a) / (n + m a) under Dirichlet(a,..,a)."""
    a = _float(a)
    if not (a > 0.0):
        raise DomainError("a must be positive")
    denom = x.n + x.m * a
    return [(c + a) / denom for c in x.counts]


def dirichlet_posterior_variances(x: CountVector, a: float) -> list:
    """Beta marginal variances of each cell under the Dirichlet posterior."""
    means = dirichlet_posterior_means(x, a)
    denom = x.n + x.m * a + 1.0
    return [mu * (1.0 - mu) / denom for mu in means]


def d_sigma(a: float, n: int) -> float:
    """Expected logarithmic risk for the scale parameter under sigma^{-a}:
    R(y, delta) of ``numerics._gamma_kl``, with y = (n-1)/2 and
    delta = (a-1)/2; zero at a = 1.  Its terms cancel to order
    delta^2/n, so against mpmath its relative error for a in [0.3, 10]
    grows from 2e-13 at n = 10 to 1.3e-10 at n = 100 and 1.3e-8 at 1000.
    Its second argument is formed as (n - 2 + a)/2, exactly a/2 at n = 2,
    so it keeps its digits at tiny a.  It raises ``DomainError`` where
    log Gamma((n - 2 + a)/2) leaves the float range, for a above about
    5.1e305 - n, at n = 2 for a = 5e-324, whose half rounds to 0.0, and
    for an n or a past the float range.
    """
    a = _float(a)
    if not (2 <= n <= _FLOAT_MAX and a > 0.0):
        raise DomainError(f"need 2 <= n <= 1.8e308 and a > 0, got n={n}, "
                          f"a={a}")
    return _gamma_kl((n - 1) / 2.0, (n - 2 + a) / 2.0)


def d_mu(a: float, n: int) -> float:
    """Expected logarithmic risk for the location parameter under the
    prior sigma^{-a}: d_sigma(a, n) - d_sigma(a, n + 1).  Parameter-free,
    concave in a, zero at a = 1.  It cancels to order (a-1)^2/n^2: its
    relative error reaches 1.5e-8 at n = 100 and 6e-6 at n = 1000.  It
    raises ``DomainError`` for a above about 5.1e305 - n, as d_sigma.
    """
    return d_sigma(a, n) - d_sigma(a, n + 1)


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
    s/sqrt(n-1).  Where the spread is so small that s^2 underflows, or
    that a precision draw could overflow (mean precision above 2^960),
    the draws are those of x/c, c = max |x|, with sigma scaled back by c:
    the same random stream.  Non-finite data, an int datum or a past the
    float range, or n s^2 past it, raise ``DomainError``; constant data
    (every x equal, however their mean rounds) ``DegenerateDataError``;
    a draw past the float range ``AccuracyError``.
    """
    x, a = _float(data, array=True), _float(a)
    n = x.size
    if n < 2:
        raise DomainError("need at least two observations")
    if not np.isfinite(x).all():
        raise DomainError("data must be finite")
    if not (0.0 < a < math.inf):
        raise DomainError("a must be positive and finite")
    if not (a + n > 2.0):
        raise DomainError("need a + n > 2 for a proper posterior")
    if _float(size) < 1:
        raise DomainError("size must be >= 1")
    if x.min() == x.max():
        raise DegenerateDataError("constant data: posterior degenerates")

    def moments(y):
        with np.errstate(over="ignore", invalid="ignore"):
            ybar = float(y.mean())
            return ybar, float(np.mean((y - ybar) ** 2))

    xbar, s2 = moments(x)
    shape, rate = 0.5 * (n + a - 2.0), 0.5 * n * s2
    scale = 1.0  # of the data whose precision is drawn
    if rate < shape * _MIN_RATE_PER_SHAPE and x.any():
        scale = float(np.abs(x).max())
        xbar, s2 = moments(x / scale)
        xbar, rate = scale * xbar, 0.5 * n * s2
    if not (rate < math.inf):
        raise DomainError("n s^2 of the data overflows a float")
    rng = np.random.default_rng(_check_seed(seed))
    lam = rng.gamma(shape, 1.0 / rate, size=size)
    if not ((lam > 0.0) & (lam < math.inf)).all():
        raise AccuracyError("a precision draw left the float range")
    sigma = scale / np.sqrt(lam)
    if not (sigma > 0.0).all():
        raise AccuracyError("a sigma draw underflows")
    mu = rng.normal(xbar, sigma / math.sqrt(n))
    return NormalPosteriorSample(mu=mu, sigma=sigma)


def phi_posterior_from_sample(sample: NormalPosteriorSample) -> np.ndarray:
    """Standardized-mean draws phi = mu / sigma."""
    if np.any(sample.sigma <= 0.0):
        raise DomainError("sigma draws must be positive")
    return sample.mu / sample.sigma
