"""Hierarchical overall prior for the multinomial model.

The symmetric Dirichlet(a,..,a) stage is mixed over a reference
hyperprior on a: the exact hyperprior derived from the Fisher
information of the marginal model, or its proper closed-form
approximation for large sparse tables.  Also provides posterior
sampling over (a, theta), empirical-Bayes modes, the large-m limit of
the posterior of v = m a, and the multivariate hypergeometric
reduction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .exceptions import (AccuracyError, BoundaryModeError, DomainError,
                         PreconditionError)
from .numerics import log_gamma, log_rising, minimize_scalar

__all__ = [
    "CountTable",
    "HierChain",
    "LimitProfile",
    "marginal_log_likelihood",
    "marginal_pmf_single",
    "tail_Q",
    "reference_prior_exact",
    "reference_prior_approx",
    "posterior_log_density_a",
    "posterior_mode_a",
    "likelihood_mode_a",
    "approx_posterior_curvature",
    "log_concavity_certificate",
    "sample_posterior",
    "limit_density_psi",
    "mode_asymptotic",
    "hypergeometric_pmf",
    "hypergeometric_overall_prior",
    "clamp_diagnostics",
]

# Catastrophic cancellation in the Fisher-information sum is expected
# at large a (the leading 1/a^2 terms cancel because the marginal mean
# is n/m); values within this floor of zero are clamped, anything more
# negative is treated as a bug signal.
_NEGATIVE_FLOOR = -1e-10

# Search window for modes of a, in log space.
_MODE_BRACKET = (1e-9, 1e4)

# Points of the exact-prior cache grid, uniform in log a.
_CACHE_SIZE = 3000

# Entries per temporary (grid rows x (n + 1) floats, 128 kB) when the
# exact-prior cache evaluates its grid in 2-D passes.
_CACHE_CHUNK = 1 << 14

clamp_diagnostics = {"count": 0}


@dataclass(frozen=True)
class CountTable:
    """Sparse multinomial counts over m cells.

    ``counts`` maps cell index (0-based) to a positive count; absent
    cells are zero.  ``n`` is the total count and ``histogram`` a pair
    of arrays, the distinct counts (ascending) and the number of cells
    holding each; both are computed once, on construction.
    ``r_profile[j]`` is the number of cells whose count exceeds j, for
    j = 0..n-1.
    """

    m: int
    counts: Dict[int, int]
    n: int = field(init=False, repr=False, compare=False)
    histogram: tuple = field(init=False, repr=False, compare=False)
    # log of the multinomial coefficient n! / prod(counts!)
    _log_coef: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"need m >= 2 cells, got {self.m}")
        counts = {int(i): int(c) for i, c in self.counts.items()}
        if any(c <= 0 for c in counts.values()):
            raise DomainError("sparse counts must be positive")
        if any(i < 0 or i >= self.m for i in counts):
            raise DomainError("cell index out of range")
        object.__setattr__(self, "counts", counts)
        n = sum(counts.values())
        if n < 1:
            raise DomainError("need at least one observation")
        values, cells = zip(*sorted(Counter(counts.values()).items()))
        values, cells = np.array(values), np.array(cells, dtype=float)
        log_fact = log_rising(1.0, values[-1])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "histogram", (values, cells))
        object.__setattr__(self, "_log_coef",
                           log_gamma(n + 1.0) - float(cells @ log_fact[values]))

    @property
    def r0(self) -> int:
        return len(self.counts)

    @property
    def r_profile(self) -> tuple:
        vals = sorted(self.counts.values(), reverse=True)
        return tuple(sum(1 for v in vals if v > j) for j in range(self.n))

    @classmethod
    def from_dense(cls, counts: Sequence[int]) -> "CountTable":
        sparse = {i: int(c) for i, c in enumerate(counts) if c}
        return cls(m=len(counts), counts=sparse)

    @classmethod
    def from_sparse_text(cls, text: str) -> "CountTable":
        """Parse the sparse exchange format: header "m n", then lines
        "cell_index count"; absent cells are zero."""
        lines = [ln for ln in (s.strip() for s in text.splitlines())
                 if ln and not ln.startswith("#")]
        if not lines:
            raise DomainError("empty count-table input")
        try:
            m, n = (int(tok) for tok in lines[0].split())
            counts = {}
            for ln in lines[1:]:
                idx, c = (int(tok) for tok in ln.split())
                counts[idx] = counts.get(idx, 0) + c
        except ValueError as exc:
            raise DomainError(f"malformed count-table line: {exc}") from exc
        table = cls(m=m, counts=counts)
        if table.n != n:
            raise DomainError(
                f"header says n={n} but counts sum to {table.n}")
        return table


@dataclass(frozen=True)
class HierChain:
    """MCMC draws from the hierarchical posterior."""

    a_samples: np.ndarray
    theta_samples: Optional[np.ndarray]
    seed: int
    acceptance_rate: float

    def __post_init__(self):
        if np.any(self.a_samples <= 0.0):
            raise DomainError("all a draws must be positive")


@dataclass(frozen=True)
class LimitProfile:
    """What the large-m limit of the posterior depends on."""

    n: int
    r0: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("need n >= 2")
        if not (1 <= self.r0 <= self.n):
            raise DomainError("need 1 <= r0 <= n")


def marginal_log_likelihood(x: CountTable, a: float) -> float:
    """Log marginal probability of the table under Dirichlet(a,..,a),
    multinomial coefficient included.  Zero-count cells contribute
    log[Gamma(a)/Gamma(a)] = 0, and cells with equal counts contribute
    equally, so the terms run over the distinct counts."""
    if not (a > 0.0):
        raise DomainError("a must be positive")
    values, cells = x.histogram
    per_cell = log_rising(a, values[-1])[values]
    return (x._log_coef + float(cells @ per_cell)
            - float(log_rising(x.m * a, x.n)[-1]))


def _log_pmf_single_vec(a, m: int, n: int) -> np.ndarray:
    """Log of the beta-binomial(a, (m-1)a) cell marginal for x = 0..n,
    log C(n,x) + R_a[x] + R_{(m-1)a}[n-x] - R_{ma}[n] with R the log
    rising factorials.  An array of a gives one row per value."""
    a = np.asarray(a, dtype=float)
    log_fact = log_rising(1.0, n)
    return (log_fact[-1] - log_fact - log_fact[::-1]
            + log_rising(a, n) + log_rising((m - 1) * a, n)[..., ::-1]
            - log_rising(m * a, n)[..., -1:])


def marginal_pmf_single(x: int, a: float, m: int, n: int) -> float:
    """Marginal pmf of a single cell count: beta-binomial(a, (m-1)a)."""
    if not (0 <= x <= n):
        raise DomainError(f"count x={x} outside 0..{n}")
    if not (a > 0.0):
        raise DomainError("a must be positive")
    if m < 2:
        raise DomainError("need m >= 2")
    return float(np.exp(_log_pmf_single_vec(a, m, n)[x]))


def tail_Q(j: int, a: float, m: int, n: int) -> float:
    """Right tail of the single-cell marginal: sum of p(l) for l > j."""
    if not (0 <= j <= n - 1):
        raise DomainError(f"tail index j={j} outside 0..{n - 1}")
    p = np.exp(_log_pmf_single_vec(a, m, n))
    return float(p[j + 1:].sum())


def _fisher_sum(a, m: int, n: int) -> np.ndarray:
    """The Fisher-information sum whose square root is the exact
    hyperprior, at each a of a scalar or 1-D array; one O(n) pass over
    the single-cell pmf per value.

    The sum runs over j = 0..n-1 of Q_j/(a+j)^2 - m/(ma+j)^2, with Q_j
    the right tail of the pmf above j.  Its j = 0 term (Q_0 - 1/m)/a^2
    is taken in closed form: Q_0 - 1/m = (m-1)/m (1 - prod_{i=1}^{n-1}
    (1 - a/(ma+i))), which keeps its digits however small a is."""
    a = np.asarray(a, dtype=float)[..., None]
    p = np.exp(_log_pmf_single_vec(a[..., 0], m, n))
    # Q[j] = sum_{l > j} p_l for j = 1..n-1
    q = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1][..., 2:]
    j = np.arange(1, n, dtype=float)
    maj = m * a + j
    log_p0_ratio = np.sum(np.log1p(-a / maj), axis=-1)
    lead = -(m - 1) / m * np.expm1(log_p0_ratio) / a[..., 0] / a[..., 0]
    return lead + np.sum(q / (a + j) ** 2 - m / maj ** 2, axis=-1)


def _clamp_fisher_sum(s: float, a: float) -> float:
    """Clamp a Fisher sum within the cancellation floor below zero to
    zero (counted in ``clamp_diagnostics``); raise if it is further
    below."""
    if s < 0.0:
        if s < _NEGATIVE_FLOOR:
            raise AccuracyError(
                f"Fisher sum {s} below cancellation floor at a={a}",
                best_estimate=0.0)
        clamp_diagnostics["count"] += 1
        s = 0.0
    return s


def reference_prior_exact(a: float, m: int, n: int) -> float:
    """Unnormalized exact reference hyperprior: square root of the
    marginal-model Fisher information.

    Behaves like sqrt((m-1) c_n / m) / sqrt(a) near zero and decays at
    infinity, hence proper.  Slightly negative sums (within 1e-10 of
    zero) are clamped: the leading large-a terms cancel analytically.
    """
    if not (a > 0.0):
        raise DomainError("a must be positive")
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and n >= 1")
    if a <= 1e-300:
        # Every j >= 1 term is below 1e-290 of the j = 0 term, about
        # (m-1)/m sum_i 1/(ma+i) / a, which overflows at subnormal a:
        # take the two square roots separately.
        i = np.arange(1, n, dtype=float)
        return (math.sqrt((m - 1) / m * float(np.sum(1.0 / (m * a + i))))
                / math.sqrt(a))
    return math.sqrt(_clamp_fisher_sum(float(_fisher_sum(a, m, n)), a))


def reference_prior_approx(a: float, m: int, n: int) -> float:
    """Proper closed-form approximation to the exact hyperprior:
    (1/2)(n/m) a^{-1/2} (a + n/m)^{-3/2}, i.e. a/(a + n/m) ~ Be(1/2, 1).
    Integrates to 1 exactly."""
    if not (a > 0.0):
        raise DomainError("a must be positive")
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and n >= 1")
    c = n / m
    return 0.5 * c / (math.sqrt(a) * (a + c) ** 1.5)


def _log_prior(a: float, m: int, n: int, prior: str) -> float:
    if prior == "exact":
        v = reference_prior_exact(a, m, n)
    elif prior == "approx":
        v = reference_prior_approx(a, m, n)
    else:
        raise DomainError(f"unknown prior {prior!r}; use 'exact' or 'approx'")
    return math.log(v) if v > 0.0 else -math.inf


def posterior_log_density_a(a: float, x: CountTable,
                            prior: str = "exact") -> float:
    """Unnormalized log posterior density of the hyperparameter a."""
    return marginal_log_likelihood(x, a) + _log_prior(a, x.m, x.n, prior)


def _log_mode(neg_log_density, lo: float, hi: float) -> float:
    """Coarse log-grid scan followed by local refinement."""
    grid = np.linspace(math.log(lo), math.log(hi), 240)
    vals = np.array([neg_log_density(t) for t in grid])
    k = int(np.argmin(vals))
    left = grid[max(k - 1, 0)]
    right = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(neg_log_density, left, right, tol=1e-12)
    return math.exp(res.argmin)


def posterior_mode_a(x: CountTable, prior: str = "exact") -> float:
    """Empirical-Bayes mode of the hyperposterior of a.

    Requires at least two nonzero cells; with a single occupied cell
    the mode sits at the unusable a = 0 boundary.
    """
    if x.r0 <= 1:
        raise BoundaryModeError(
            "posterior mode is at a=0 when only one cell is occupied")
    return _log_mode(lambda t: -posterior_log_density_a(math.exp(t), x, prior),
                     *_MODE_BRACKET)


def likelihood_mode_a(x: CountTable) -> float:
    """Type-II maximum likelihood value of a (no hyperprior).

    The marginal likelihood is bounded away from zero at infinity, so
    an interior maximizer need not exist; when every cell is occupied
    the likelihood is increasing in a and this raises."""
    a_hat = _log_mode(lambda t: -marginal_log_likelihood(x, math.exp(t)),
                      *_MODE_BRACKET)
    if a_hat > 0.5 * _MODE_BRACKET[1]:
        raise BoundaryModeError("marginal likelihood has no interior mode")
    return a_hat


def approx_posterior_curvature(a: float, x: CountTable) -> float:
    """Closed-form second derivative of log[p(x|a) pi*(a|m,n)] in a."""
    if not (a > 0.0):
        raise DomainError("a must be positive")
    m, n = x.m, x.n
    j = np.arange(n, dtype=float)
    r = np.asarray(x.r_profile, dtype=float)
    out = float(np.sum(m * m / (m * a + j) ** 2) - np.sum(r / (a + j) ** 2))
    return out + 0.5 / a ** 2 + 1.5 / (a + n / m) ** 2


def log_concavity_certificate(x: CountTable,
                              a_grid: Sequence[float]) -> bool:
    """Check the closed-form curvature of the approximate-prior
    posterior on a grid; true iff strictly negative everywhere.
    Requires at least three occupied cells (the hypothesis of the
    log-concavity result)."""
    if x.r0 < 3:
        raise PreconditionError(
            "log-concavity certificate needs at least 3 nonzero cells")
    return all(approx_posterior_curvature(float(a), x) < 0.0 for a in a_grid)


class _ExactPriorCache:
    """Memoized log of the exact hyperprior on a grid uniform in log a
    over ``_MODE_BRACKET``.

    Direct evaluation dominates the MCMC cost for large n.  Lookups use
    a shape-preserving (Fritsch-Carlson) cubic Hermite interpolant, which
    reproduces direct values to better than 1e-6; outside the tabulated
    range they fall back to direct evaluation.
    """

    def __init__(self, m: int, n: int):
        if n < 2:
            raise PreconditionError(
                "the exact hyperprior is identically zero when n = 1")
        self.m, self.n = m, n
        lo, hi = _MODE_BRACKET
        ts = np.linspace(math.log(lo), math.log(hi), _CACHE_SIZE)
        rows = max(1, _CACHE_CHUNK // (n + 1))
        s = np.concatenate([_fisher_sum(np.exp(ts[k:k + rows]), m, n)
                            for k in range(0, _CACHE_SIZE, rows)])
        vanished = np.flatnonzero(s <= 0.0)
        if vanished.size:
            # Cancellation noise clamped to zero: truncate the grid here
            # and fall back to direct evaluation beyond it.
            k = vanished[0]
            _clamp_fisher_sum(float(s[k]), math.exp(ts[k]))
            s = s[:k]
        if len(s) < 2:
            raise AccuracyError("exact prior vanished over the cache range",
                                best_estimate=None)
        ys = 0.5 * np.log(s)
        h = (ts[-1] - ts[0]) / (_CACHE_SIZE - 1)
        delta = np.diff(ys) / h
        # On a uniform grid the Fritsch-Carlson weighted harmonic mean of
        # the neighbouring secants is their plain harmonic mean; the
        # slope is zero where they disagree in sign.
        d = np.empty_like(ys)
        d[0], d[-1] = delta[0], delta[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = 2.0 / (1.0 / delta[:-1] + 1.0 / delta[1:])
        d[1:-1] = np.where(delta[:-1] * delta[1:] > 0.0, mean, 0.0)
        # Python floats: a lookup does scalar arithmetic only.
        self._ys, self._hd = ys.tolist(), (h * d).tolist()
        self._t0, self._h, self._last = float(ts[0]), float(h), len(ys) - 2
        self.lo, self.hi = lo, math.exp(ts[len(ys) - 1])

    def log_value(self, a: float) -> float:
        if not (self.lo <= a <= self.hi):
            return _log_prior(a, self.m, self.n, "exact")
        x = (math.log(a) - self._t0) / self._h
        i = min(int(x), self._last)
        t = x - i
        ys, hd = self._ys, self._hd
        return ((1 + 2 * t) * (1 - t) ** 2 * ys[i] + t * (1 - t) ** 2 * hd[i]
                + t * t * (3 - 2 * t) * ys[i + 1] + t * t * (t - 1) * hd[i + 1])


def sample_posterior(x: CountTable, length: int, seed: int,
                     prior: str = "exact", thetas: bool = False,
                     method: str = "mh", warmup: int = 2000) -> HierChain:
    """Draw an MCMC chain targeting the hyperposterior of a.

    ``method="mh"`` runs a random-walk Metropolis sampler on log a,
    with the step size adapted during a discarded warm-up to land in
    the 30-45% acceptance band.  ``method="slice"`` runs a univariate
    slice sampler on log a (appropriate under the approximate prior
    with three or more occupied cells, where the target is log-concave
    in a).  With ``thetas=True`` each a is augmented by a
    Dirichlet(x_1+a, .., x_m+a) draw of the cell probabilities.

    Chains are reproducible: a fixed seed yields an identical chain.
    """
    if length < 1:
        raise DomainError("chain length must be >= 1")
    if method not in ("mh", "slice"):
        raise DomainError(f"unknown method {method!r}")
    if prior == "exact":
        log_prior = _ExactPriorCache(x.m, x.n).log_value
    else:
        def log_prior(a: float) -> float:
            return _log_prior(a, x.m, x.n, prior)

    def log_target(t: float) -> float:
        # +t is the log-a change-of-variables Jacobian
        a = math.exp(t)
        return marginal_log_likelihood(x, a) + log_prior(a) + t

    rng = np.random.default_rng(seed)
    t = math.log(x.n / x.m) if x.n < x.m else 0.0  # start near prior median scale
    lt = log_target(t)

    draws = np.empty(length)
    accepted = 0

    if method == "mh":
        scale = 1.0
        block_acc = 0
        for i in range(warmup):
            prop = t + scale * rng.standard_normal()
            lprop = log_target(prop)
            if math.log(rng.random()) < lprop - lt:
                t, lt = prop, lprop
                block_acc += 1
            if (i + 1) % 50 == 0:
                rate = block_acc / 50.0
                scale *= math.exp(1.2 * (rate - 0.375))
                scale = min(max(scale, 1e-3), 50.0)
                block_acc = 0
        for i in range(length):
            prop = t + scale * rng.standard_normal()
            lprop = log_target(prop)
            if math.log(rng.random()) < lprop - lt:
                t, lt = prop, lprop
                accepted += 1
            draws[i] = math.exp(t)
        acc_rate = accepted / length
    else:
        w = 2.0
        max_steps = 200
        for i in range(-min(warmup, 200), length):
            ly = lt + math.log(rng.random())
            left = t - w * rng.random()
            right = left + w
            steps = max_steps
            while steps > 0 and log_target(left) > ly:
                left -= w
                steps -= 1
            steps = max_steps
            while steps > 0 and log_target(right) > ly:
                right += w
                steps -= 1
            while True:
                # rng.uniform(left, right) to the bit, at a third the cost
                prop = left + (right - left) * rng.random()
                lprop = log_target(prop)
                if lprop >= ly:
                    t, lt = prop, lprop
                    break
                if prop < t:
                    left = prop
                else:
                    right = prop
            if i >= 0:
                draws[i] = math.exp(t)
        acc_rate = 1.0

    theta_draws = None
    if thetas:
        dense = np.zeros(x.m)
        for idx, c in x.counts.items():
            dense[idx] = c
        # One row per draw, generated in the same order as row-by-row calls.
        theta_draws = rng.gamma(dense + draws[:, None])
        theta_draws /= theta_draws.sum(axis=1, keepdims=True)

    return HierChain(a_samples=draws, theta_samples=theta_draws, seed=seed,
                     acceptance_rate=acc_rate)


def limit_density_psi(v: float, profile: LimitProfile) -> float:
    """Unnormalized large-m limit density of v = m a given (n, r0)."""
    if not (v > 0.0):
        raise DomainError("v must be positive")
    n, r0 = profile.n, profile.r0
    i = np.arange(1, n, dtype=float)
    log_sum = 0.5 * math.log(float(np.sum(i / (v + i) ** 2)))
    return math.exp(-log_rising(v + 1.0, n - 1)[-1]
                    + (r0 - 1.5) * math.log(v) + log_sum)


def _solve_cstar(ratio: float) -> float:
    """Root of c log(1 + 1/c) = ratio on (0, inf); monotone increasing."""
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid * math.log1p(1.0 / mid) < ratio:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def mode_asymptotic(profile: LimitProfile, regime: str = "auto") -> float:
    """Asymptotic mode of the limit density of v = m a.

    Sparse regime (r0/n -> 0): (r0 - 1.5) / log(1 + n/r0).  Dense
    regime (r0/n -> c in (0,1)): c* n with c* log(1 + 1/c*) = r0/n.
    ``regime`` may force "sparse" or "dense"; "auto" switches at
    r0/n = 0.2.
    """
    n, r0 = profile.n, profile.r0
    if r0 < 2:
        raise DomainError("need r0 >= 2")
    if r0 >= n:
        raise DomainError("need r0 < n")
    ratio = r0 / n
    if regime == "auto":
        regime = "dense" if ratio >= 0.2 else "sparse"
    if regime == "sparse":
        return (r0 - 1.5) / math.log1p(n / r0)
    if regime == "dense":
        return _solve_cstar(ratio) * n
    raise DomainError(f"unknown regime {regime!r}")


def _validate_hy_args(r, n, R, N):
    r = [int(v) for v in r]
    R = [int(v) for v in R]
    if len(r) != len(R):
        raise DomainError("r and R must have the same number of components")
    if any(v < 0 for v in r) or any(v < 0 for v in R):
        raise DomainError("counts must be nonnegative")
    if sum(r) > n:
        raise DomainError("sum of r exceeds the sample size n")
    if sum(R) > N:
        raise DomainError("sum of R exceeds the population size N")
    if n > N:
        raise DomainError("sample size exceeds population size")
    return r, R


def hypergeometric_pmf(r: Sequence[int], n: int, R: Sequence[int],
                       N: int) -> float:
    """Multivariate hypergeometric mass of the sample split r given the
    population split R (complement categories appended internally).
    Draws exceeding a category's population size have probability 0."""
    r, R = _validate_hy_args(r, n, R, N)
    r_full = r + [n - sum(r)]
    R_full = R + [N - sum(R)]
    num = 1
    for rj, Rj in zip(r_full, R_full):
        if rj > Rj:
            return 0.0
        num *= math.comb(Rj, rj)
    return num / math.comb(N, n)


def hypergeometric_overall_prior(R: Sequence[int], N: int, k: int) -> float:
    """Dirichlet-multinomial prior mass of the population split R with
    symmetric parameter 1/k over the k+1 categories."""
    R = [int(v) for v in R]
    if k < 1:
        raise DomainError(f"need k >= 1 categories, got {k}")
    if len(R) != k:
        raise DomainError(f"R must have k={k} components")
    if any(v < 0 for v in R):
        raise DomainError("counts must be nonnegative")
    if sum(R) > N:
        raise DomainError("sum of R exceeds N")
    alpha = 1.0 / k
    R_full = R + [N - sum(R)]
    out = log_gamma(N + 1.0) + log_gamma((k + 1) * alpha) \
        - log_gamma(N + (k + 1) * alpha)
    for Rj in R_full:
        out += log_gamma(Rj + alpha) - log_gamma(alpha) - log_gamma(Rj + 1.0)
    return math.exp(out)
