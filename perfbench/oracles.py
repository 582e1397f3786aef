"""Independent reference computations for the benchmark's output checks.

Everything here uses numpy and the standard library's ``math.lgamma``
only; nothing is imported from ``overallprior``.  Log-gamma
differences are written as log rising factorials,
``lgamma(y + k) - lgamma(y) = sum_{i<k} log(y + i)``, summed with
``numpy.cumsum``, so the references share no algorithm with the
package's Stirling-series special functions.

Each ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def lgamma(x) -> np.ndarray:
    return _LGAMMA(np.asarray(x, dtype=float)).astype(float)


def digamma(x) -> np.ndarray:
    """psi(x) for x > 0: shift by 20 with the recurrence, then the
    asymptotic series (truncation error below 1e-17 at y >= 20)."""
    x = np.asarray(x, dtype=float)
    y = x + 20.0
    acc = -np.sum(1.0 / (x[..., None] + np.arange(20.0)), axis=-1)
    z = 1.0 / (y * y)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (
        1 / 240 - z * (1 / 132)))))
    return acc + np.log(y) - 0.5 / y - series


def log_rising_table(y: np.ndarray, k: int) -> np.ndarray:
    """Table R[..., j] = log[Gamma(y + j) / Gamma(y)] for j = 0..k."""
    y = np.asarray(y, dtype=float)[..., None]
    steps = np.log(y + np.arange(k, dtype=float))
    out = np.zeros(y.shape[:-1] + (k + 1,))
    out[..., 1:] = np.cumsum(steps, axis=-1)
    return out


# ---------------------------------------------------------------- hier


def log_likelihood_grid(counts: dict, m: int, a: np.ndarray) -> np.ndarray:
    """Dirichlet-multinomial log marginal likelihood of a sparse table,
    multinomial coefficient included, at every a in the grid."""
    vals = np.array(list(counts.values()), dtype=int)
    n = int(vals.sum())
    a = np.asarray(a, dtype=float)
    const = math.lgamma(n + 1.0) - sum(math.lgamma(c + 1.0) for c in vals)
    distinct, mult = np.unique(vals, return_counts=True)
    rise_a = log_rising_table(a, int(distinct.max()))
    rise_ma = log_rising_table(m * a, n)[..., n]
    return const + rise_a[..., distinct] @ mult - rise_ma


def fisher_sum_grid(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """The Fisher-information sum under the exact reference hyperprior,
    sum_j [Q_j / (a + j)^2 - m / (m a + j)^2] with Q_j = P(X > j) for
    the beta-binomial(n, a, (m-1) a) cell count X."""
    a = np.asarray(a, dtype=float)[:, None]
    x = np.arange(n + 1)
    binom = (math.lgamma(n + 1.0) - lgamma(x + 1.0) - lgamma(n - x + 1.0))
    log_p = (binom + log_rising_table(a[:, 0], n)
             + log_rising_table((m - 1) * a[:, 0], n)[:, ::-1]
             - log_rising_table(m * a[:, 0], n)[:, n:])
    p = np.exp(log_p)
    q = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
    j = np.arange(n, dtype=float)
    return np.sum(q / (a + j) ** 2 - m / (m * a + j) ** 2, axis=1)


def log_prior_grid(a: np.ndarray, m: int, n: int, prior: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if prior == "exact":
        s = fisher_sum_grid(a, m, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s > 0.0, 0.5 * np.log(np.maximum(s, 1e-300)),
                            -np.inf)
    c = n / m
    return math.log(0.5 * c) - 0.5 * np.log(a) - 1.5 * np.log(a + c)


def _refined_argmax(t: np.ndarray, f: np.ndarray) -> float:
    """Vertex of the parabola through the grid maximum and its
    neighbours."""
    k = int(np.argmax(f))
    k = min(max(k, 1), len(t) - 2)
    f0, f1, f2 = f[k - 1], f[k], f[k + 1]
    h = t[k + 1] - t[k]
    den = f0 - 2.0 * f1 + f2
    shift = 0.5 * h * (f0 - f2) / den if den < 0.0 else 0.0
    return float(t[k] + min(max(shift, -h), h))


def _grid_mode(logdens, lo: float, hi: float) -> float:
    """Maximise logdens(t) on [lo, hi] by successive log-grid zooms."""
    for points in (400, 200, 200):
        t = np.linspace(lo, hi, points)
        t0 = _refined_argmax(t, logdens(t))
        step = (hi - lo) / (points - 1)
        lo, hi = t0 - 3.0 * step, t0 + 3.0 * step
    return t0


class HierReference:
    """Grid posterior of t = log a for a count table and a prior."""

    def __init__(self, counts: dict, m: int, prior: str):
        self.counts, self.m, self.prior = counts, m, prior
        self.n = int(sum(counts.values()))
        self.log_lik = lambda t: log_likelihood_grid(counts, m, np.exp(t))
        self.log_post = lambda t: (self.log_lik(t) + log_prior_grid(
            np.exp(t), m, self.n, prior))
        lo, hi = math.log(1e-6), math.log(1e3)
        self.mode_a = math.exp(_grid_mode(self.log_post, lo, hi))
        self.lik_mode_a = math.exp(_grid_mode(self.log_lik, lo, hi))
        # Chain density in t carries the Jacobian e^t of a = e^t.
        t = np.linspace(lo, hi, 1000)
        lp = self.log_post(t) + t
        keep = lp > lp.max() - 40.0
        t = np.linspace(t[keep][0] - 0.5, t[keep][-1] + 0.5, 1500)
        dens = np.exp(self.log_post(t) + t - lp.max())
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))))
        self.t_grid, self.cdf = t, cdf / cdf[-1]

    def ks_distance(self, a_draws: np.ndarray) -> float:
        """Kolmogorov-Smirnov distance between the draws of a and the
        grid posterior."""
        t = np.sort(np.log(np.asarray(a_draws, dtype=float)))
        ref = np.interp(t, self.t_grid, self.cdf, left=0.0, right=1.0)
        k = np.arange(1, t.size + 1) / t.size
        return float(max(np.max(k - ref), np.max(ref - (k - 1.0 / t.size))))

    def prior_value(self, a: float) -> float:
        return float(np.exp(log_prior_grid(np.array([a]), self.m, self.n,
                                           self.prior))[0])


def ess_geyer(x: np.ndarray) -> float:
    """Effective sample size by Geyer's (1992) initial monotone
    sequence estimator of the integrated autocorrelation time."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or np.ptp(x) == 0.0:
        return float(n)
    y = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.nonzero(pairs <= 0.0)[0]
    pairs = pairs[: nonpositive[0] if nonpositive.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return n / max(tau, 1.0 / n)


def ks_limit(ess: float) -> float:
    """KS acceptance limit for autocorrelated draws: the iid 0.1% critical
    value 1.95/sqrt(n) at n = ESS, plus 0.02 for grid and ESS error."""
    return 1.95 / math.sqrt(max(ess, 1.0)) + 0.02


def check_hier(ref: HierReference, mode_a, lik_mode_a, a_draws,
               prior_rows=()) -> list:
    problems = []
    if mode_a is not None and not math.isclose(mode_a, ref.mode_a,
                                               rel_tol=1e-4):
        problems.append(f"posterior mode {mode_a} != reference {ref.mode_a}")
    if lik_mode_a is not None and not math.isclose(lik_mode_a, ref.lik_mode_a,
                                                   rel_tol=1e-4):
        problems.append(
            f"likelihood mode {lik_mode_a} != reference {ref.lik_mode_a}")
    if a_draws is not None:
        a_draws = np.asarray(a_draws, dtype=float)
        if not np.all(np.isfinite(a_draws) & (a_draws > 0.0)):
            problems.append("chain holds non-positive or non-finite a")
        else:
            ess = ess_geyer(np.log(a_draws))
            d = ref.ks_distance(a_draws)
            if d > ks_limit(ess):
                problems.append(f"chain KS distance {d:.3f} exceeds "
                                f"{ks_limit(ess):.3f} (ESS {ess:.0f})")
    for a, value in prior_rows:
        want = ref.prior_value(a)
        if not math.isclose(value, want, rel_tol=1e-6):
            problems.append(f"prior({a}) = {value} != reference {want}")
    return problems


# ------------------------------------------------------------- refdist


def expected_loss(a, m: int, n: int) -> np.ndarray:
    """Expected logarithmic loss d(a | m, n) of the Dirichlet(a,..,a)
    candidate against the per-cell Be(1/2, 1/2) reference posterior."""
    a = np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    x = np.arange(n + 1, dtype=float)
    log_pred = (lgamma(x + 0.5) + lgamma(n - x + 0.5) - lgamma(x + 1.0)
                - lgamma(n - x + 1.0) - math.log(math.pi))
    al0, be0 = x + a, n - x + (m - 1) * a
    al, be = x + 0.5, n - x + 0.5
    kl = (math.lgamma(n + 1.0) - lgamma(al0 + be0) + lgamma(al0) - lgamma(al)
          + lgamma(be0) - lgamma(be)
          + (al - al0) * digamma(al) + (be - be0) * digamma(be)
          - ((n + 1.0) - (al0 + be0)) * digamma(n + 1.0))
    return kl @ np.exp(log_pred)


def check_refdist(a_star: float, d_star: float, m: int, n: int,
                  curve_rows=()) -> list:
    problems = []
    lo, here, hi = expected_loss(a_star * np.exp([-0.05, 0.0, 0.05]), m, n)
    if not (here < lo and here < hi):
        problems.append(f"a_star {a_star} is not a bracketed local minimum "
                        f"({lo}, {here}, {hi})")
    if not math.isclose(d_star, here, rel_tol=1e-7):
        problems.append(f"d_star {d_star} != recomputed {here}")
    if not (0.6 <= a_star * m <= 1.0):
        problems.append(f"m * a_star = {a_star * m} not near 0.8")
    if curve_rows:
        a, d = np.array(curve_rows, dtype=float).T
        want = expected_loss(a, m, n)
        bad = ~np.isclose(d, want, rtol=1e-7, atol=1e-12)
        if np.any(bad):
            problems.append(f"loss curve differs at a = {a[bad].tolist()}")
    return problems


# -------------------------------------------------------------- shrink


THETA_BAND = (0.5, 1.5)


def check_shrink(x: np.ndarray, flat_mean, hier_mean: float) -> list:
    """The hierarchical theta mean must sit in a band around theta_T = 1
    (posterior sd is about sqrt(6/m) = 0.11 at m = 500, while the flat
    prior's mean is near 3); the flat-prior mean is 1 + mean(x^2)."""
    problems = []
    if flat_mean is not None:
        want = 1.0 + float(np.mean(np.asarray(x) ** 2))
        if not math.isclose(flat_mean, want, rel_tol=1e-12):
            problems.append(f"flat theta mean {flat_mean} != {want}")
    if not (THETA_BAND[0] <= hier_mean <= THETA_BAND[1]):
        problems.append(f"hierarchical theta mean {hier_mean} outside "
                        f"{THETA_BAND}")
    return problems
