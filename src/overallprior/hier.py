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

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .exceptions import (AccuracyError, BoundaryModeError, DomainError,
                         PreconditionError)
from .numerics import (_FLOAT_MAX, _TINY_FLOAT, _check_seed, _find_root,
                       _float, _log1p_sum, log_gamma)

__all__ = [
    "CountTable",
    "HierChain",
    "LimitProfile",
    "marginal_log_likelihood",
    "marginal_pmf",
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
]

# The mode search window and exact-prior table range, whose low end
# falls to _MODE_LO_TIMES_M / m above m = 1e5 (the mode in m a is O(1)),
# and the largest m whose table keeps its stated accuracy.
_MODE_BRACKET = (1e-9, 1e4)
_MODE_LO_TIMES_M = 1e-4
_TABLE_MAX_M = 1e12

# Points of the exact-prior table, uniform in log a (even, so that its
# halves mirror each other), and the Chebyshev nodes in log a at which
# the log prior is evaluated to fill it.
_CACHE_SIZE = 3000
_CHEB_NODES = 128

# Shapes (m, n) whose ``_Shape`` a process keeps, the least recently
# used dropped first.  A shape holds its exact-prior table (96 kB):
# about 1.5 MB in all.
_SHAPES = 16

# The samplers' support in t = log a: |t| <= _LOG_A_LIMIT, a in
# [1e-200, 1e200].  The posterior in t falls at least as fast as
# exp(-|t|/2) in both tails, so the mass outside is far below anything a
# chain resolves; inside it, a, m a and a^1.5 stay finite floats.
_LOG_A_LIMIT = math.log(1e200)

# Variates per bulk draw of the samplers: the slice sampler's uniforms
# (``_uniform_stream``), and the MH sampler's normals and log-uniforms
# (``_mh_variates``).  A fixed size, so that a chain is a prefix of any
# longer chain with the same seed and warm-up.
_VARIATE_BLOCK = 1024

# Entries per temporary (rows of a x terms per row, 128 kB) when the
# exact prior or its cache evaluate an array of a in 2-D passes, and
# when ``sample_posterior`` draws its theta rows.
_CACHE_CHUNK = 1 << 14

# At or below this a, j/a in the likelihood and the Fisher sum (of
# order 1/a^2) can overflow a float; both switch to closed forms that
# take log a or sqrt(a) separately.  Both drop a against every j >= 1
# (a + j == j in floats).  The likelihood's form also drops m a against
# every i >= 1 in log(m a + i) while m a < _TINY_MA, that is for m below
# about 1e284; above, it keeps L(m a, n - 1).
_TINY_A = 1e-300
_TINY_MA = 2.0 ** -53

# Counts up to this enter the likelihood term by term (``CountTable``).
_LIK_HEAD = 16


@dataclass(frozen=True)
class CountTable:
    """Sparse multinomial counts over m cells.

    ``counts`` maps cell index (0-based) to a positive count; absent
    cells are zero.  ``n`` is the total count and ``r_profile[j]`` the
    number of cells whose count exceeds j, for j = 0..n-1.  Both are
    computed once, on construction, with the likelihood's pieces (see
    ``marginal_log_likelihood``) and the mode search's slope's J = (1, ..,
    c_max - 1, 1/m, .., (n-1)/m) and W = (r_profile[1:c_max], then n - 1
    entries of -1), with c_max the largest count.
    """

    m: int
    counts: Dict[int, int]
    n: int = field(init=False, repr=False, compare=False)
    # r_profile; c0 = log[n! / prod(counts!)] - n log m; (j, R'_j), (v-1, c_v)
    _exceed: np.ndarray = field(init=False, repr=False, compare=False)
    _lik_c0: float = field(init=False, repr=False, compare=False)
    _lik_head: tuple = field(init=False, repr=False, compare=False)
    _lik_runs: tuple = field(init=False, repr=False, compare=False)
    _lik_j: np.ndarray = field(init=False, repr=False, compare=False)
    _lik_w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if _float(self.m) < 2:
            raise DomainError(f"need m >= 2 cells, got {self.m}")
        counts = {int(i): int(c) for i, c in self.counts.items()}
        if any(c <= 0 for c in counts.values()):
            raise DomainError("sparse counts must be positive")
        if any(i < 0 or i >= self.m for i in counts):
            raise DomainError("cell index out of range")
        object.__setattr__(self, "counts", counts)
        m, n = self.m, sum(counts.values())
        if _float(n) < 1:
            raise DomainError("need at least one observation")
        values, cells = zip(*sorted(Counter(counts.values()).items()))
        log_coef = log_gamma(n + 1.0) - sum(
            c * log_gamma(v + 1.0) for v, c in zip(values, cells))
        # exceed[j] = number of cells whose count v > j
        by_count = np.zeros(n + 1, dtype=int)
        by_count[list(values)] = cells
        exceed = np.cumsum(by_count[::-1])[::-1][1:]
        top = values[-1]
        big = sum(c for v, c in zip(values, cells) if v > _LIK_HEAD)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_exceed", exceed)
        object.__setattr__(self, "_lik_c0", log_coef - n * math.log(m))
        object.__setattr__(self, "_lik_head", tuple(
            (float(j), float(exceed[j] - big))
            for j in range(1, min(top, _LIK_HEAD)) if exceed[j] > big))
        object.__setattr__(self, "_lik_runs", tuple(
            (v - 1, c) for v, c in zip(values, cells) if v > _LIK_HEAD))
        object.__setattr__(self, "_lik_j", np.concatenate(
            [np.arange(1.0, top), np.arange(1.0, n) / m]))
        object.__setattr__(self, "_lik_w", np.concatenate(
            [exceed[1:top], np.full(n - 1, -1)]).astype(float))

    @property
    def r0(self) -> int:
        return len(self.counts)

    @property
    def r_profile(self) -> tuple:
        return tuple(self._exceed.tolist())

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
    """MCMC draws from the hierarchical posterior.

    ``direct_prior_evals`` counts this chain's exact-prior lookups that
    fell outside the prior table and were evaluated directly (0 under the
    approximate prior, which has no table).  The table is a part of the
    shape's ``_Shape``, shared with the mode search and with every chain
    on a ``CountTable`` of that shape, whose lookups are not counted
    here.  ``target_evals`` counts the log-target evaluations, warm-up
    included."""

    a_samples: np.ndarray
    theta_samples: Optional[np.ndarray]
    seed: int
    acceptance_rate: float
    direct_prior_evals: int = 0
    target_evals: int = 0

    def __post_init__(self):
        if np.any(self.a_samples <= 0.0):
            raise DomainError("all a draws must be positive")


@dataclass(frozen=True)
class LimitProfile:
    """What the large-m limit of the posterior depends on."""

    n: int
    r0: int

    def __post_init__(self):
        if _float(self.n) < 2:
            raise DomainError("need n >= 2")
        if not (1 <= self.r0 <= self.n):
            raise DomainError("need 1 <= r0 <= n")


def _is_array(a) -> bool:
    """Raise unless a > 0 (elementwise for an ndarray); true for an
    ndarray, which the caller evaluates elementwise."""
    if isinstance(a, np.ndarray):
        if not (a > 0.0).all():
            raise DomainError("a must be positive")
        return True
    if not (_float(a) > 0.0):
        raise DomainError("a must be positive")
    return False


def _check_shape(m: int, n: int) -> None:
    """Raise unless m >= 2 and n >= 1, or where either is an int past the
    float range."""
    if _float(m) < 2 or _float(n) < 1:
        raise DomainError("need m >= 2 and n >= 1")


def _elementwise(f, a):
    """f at a float a, or at each entry of an array a, as a float; a > 0
    checked as in ``_is_array``."""
    if _is_array(a):
        flat = a.astype(float).ravel().tolist()
        return np.array([f(v) for v in flat]).reshape(a.shape)
    return f(float(a))


def marginal_log_likelihood(x: CountTable, a):
    """Log marginal probability of the table under Dirichlet(a,..,a),
    multinomial coefficient included; elementwise for an array of a.

    With R_j the number of cells whose count exceeds j,

        log p(x|a) = log coef + sum_{j>=0} R_j log(a + j)
                     - sum_{i=0}^{n-1} log(m a + i).

    Writing log(y + i) = log y + log1p(i/y), the n log a terms cancel
    exactly against the n log(m a) terms (sum_j R_j = n).  With L(y, k)
    the O(1) sum of log1p(i/y) over i = 1..k (``numerics._log1p_sum``)
    and c_v the number of cells holding v, that leaves c0
    + sum_{j<16} R'_j log1p(j/a) + sum_{v>16} c_v L(a, v - 1)
    - L(m a, n - 1), R'_j the cells whose count is in (j, 16]: O(distinct
    counts) a call.  Against mpmath over log a in [-690, 460] its relative
    error is below 1e-15 on the tables of the tests; 9e-14 on {0: 500,
    1: 3, 2: 1} at m = 1e6, a difference of terms 250 times its size.
    Below ``_TINY_A`` (j/a would overflow, a + j == j) it is log(n/m)
    - sum log(counts) + (r0 - 1) log a where m a < 2^-53 (m a + i == i),
    and log n! - sum log(counts) + r0 log a - n log(m a) - L(m a, n - 1)
    where m a is larger, at m above about 1e284.  Every a is one kernel
    call."""
    return _elementwise(_likelihood_kernel(x), a)


def _likelihood_kernel(x: CountTable):
    """``marginal_log_likelihood(x, a)`` at one float a > 0 in ``math``,
    built once per table, with no validation or dispatch per call."""
    c0, head, runs = x._lik_c0, x._lik_head, x._lik_runs
    m, k, tiny = float(x.m), x.n - 1, _TINY_A
    log1p, log1p_sum = math.log1p, _log1p_sum

    def log_lik(a: float) -> float:
        if a <= tiny:
            ma = m * a
            if ma < _TINY_MA:
                return (math.log(x.n / x.m) + (x.r0 - 1) * math.log(a)
                        - sum(map(math.log, x.counts.values())))
            return (math.lgamma(x.n + 1.0)
                    - sum(map(math.log, x.counts.values()))
                    + x.r0 * math.log(a) - x.n * math.log(ma)
                    - log1p_sum(ma, k))
        s = -log1p_sum(m * a, k)
        for j, r in head:
            s += r * log1p(j / a)
        for v, c in runs:
            s += c * log1p_sum(a, v)
        return c0 + s
    return log_lik


def marginal_pmf(a, m: int, n: int) -> np.ndarray:
    """Marginal pmf of a single cell count, beta-binomial(a, (m-1)a),
    for x = 0..n.  An array of a gives one row per value.

    The row follows the ratio recurrence
    p_{x+1}/p_x = (n-x)(a+x) / ((x+1)((m-1)a+n-1-x)): one cumulative
    sum of the logs of its factors, shifted by its maximum, exponentiated
    and divided by its sum.  A factor's log is formed as
    log(a+x) - log(a+(n-1-x)/(m-1)) - log(m-1), which overflows at no a
    (inf counts as the largest float); where a + n rounds to a, it is
    -log(m-1), so the row is the a -> inf limit, Binomial(n, 1/m).
    Against 50-digit mpmath the relative error of the entries above the
    subnormal range is 5.1e-14 at (m, n, a) = (2, 300, 189), 3.8e-13 at
    (2000, 500, 0.3) and 4.6e-14 at (60, 60, 4520); it grows with n, as
    the sum of n logs does.
    """
    _is_array(a)
    if _float(m) < 2 or _float(n) < 0:
        raise DomainError("need m >= 2 and n >= 0")
    col = np.minimum(np.asarray(a, dtype=float), _FLOAT_MAX)[..., None]
    x = np.arange(n, dtype=float)
    log_ratio = (np.log(col + x) - np.log(col + (n - 1 - x) / (m - 1))
                 - math.log(m - 1))
    log_p = np.zeros(col.shape[:-1] + (n + 1,))
    np.cumsum(log_ratio + np.log((n - x) / (x + 1)), axis=-1,
              out=log_p[..., 1:])
    p = np.exp(log_p - log_p.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def _fisher_sum(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """The Fisher-information sum whose square root is the exact
    hyperprior, at each a of a 1-D array; one O(n) pass over the
    single-cell pmf per value, in row slices.

    The sum runs over j = 0..n-1 of Q_j/(a+j)^2 - m/(ma+j)^2, with Q_j
    the right tail of the pmf above j.  Term by term it cancels at large
    a, and in moments at small a, so each a takes one of two forms:
    ``_fisher_moment`` where a >= 1 and a >= n/m, or where a >= n/sqrt(m)
    (which m >> n^2 reaches at a << 1), and ``_fisher_small`` elsewhere.
    Swept against mpmath, that rule keeps the sum within a small multiple
    of the better form's error at every a (see ``reference_prior_exact``).
    Both forms are positive to their accuracy, so a negative sum is a
    defect, not rounding, and raises ``AccuracyError``."""

    def rows(v: np.ndarray) -> np.ndarray:
        p = marginal_pmf(v, m, n)
        # Q[j] = sum_{l > j} p_l for j = 1..n-1
        q = np.cumsum(p[:, ::-1], axis=-1)[:, ::-1][:, 2:]
        moment = (v >= n / math.sqrt(m)) | ((v >= 1.0) & (v >= n / m))
        out = np.empty(v.shape)
        for form, mask in ((_fisher_moment, moment), (_fisher_small, ~moment)):
            if mask.any():  # an empty call costs as much as a full one
                out[mask] = form(v[mask], q[mask], m, n)
        return out

    h = max(1, _CACHE_CHUNK // (n + 1))  # rows per (h x n+1) temporary
    s = np.concatenate([rows(a[k:k + h]) for k in range(0, a.size or 1, h)])
    below = np.flatnonzero(s < 0.0)
    if below.size:
        k = below[0]
        raise AccuracyError(f"negative Fisher sum {s[k]} at a={a[k]}")
    return s


def _fisher_small(a: np.ndarray, q: np.ndarray, m: int, n: int):
    """The Fisher sum term by term, given the tails Q_1..Q_{n-1} of each
    a.  Its j = 0 term (Q_0 - 1/m)/a^2 is taken in closed form:
    Q_0 - 1/m = (m-1)/m (1 - prod_{i=1}^{n-1} (1 - a/(ma+i))), which
    keeps its digits however small a is."""
    a = a[..., None]
    j = np.arange(1, n, dtype=float)
    maj = m * a + j
    log_p0_ratio = np.sum(np.log1p(-a / maj), axis=-1)
    lead = -(m - 1) / m * np.expm1(log_p0_ratio) / a[..., 0] / a[..., 0]
    return lead + np.sum(q / (a + j) ** 2 - m / maj ** 2, axis=-1)


def _fisher_moment(a: np.ndarray, q: np.ndarray, m: int, n: int):
    """The Fisher sum with its leading terms cancelled in closed form,
    given the tails Q_1..Q_{n-1} of each a.

    The sum is the integral of f(y) = 1/(a+y)^2 against mass Q_j at each
    j less mass 1/m at each j/m.  Write
    f(y) = 1/a^2 - 2y/a^3 + g(y)/a^3 with g(y) = y^2 (3a+2y)/(a+y)^2.
    Both masses total n/m, so the 1/a^2 terms drop out exactly; the
    first moments differ by the beta-binomial factorial moment
    n(n-1)(m-1)/(2 m^2 (ma+1)).  Hence the sum is

        [-n(n-1)(m-1)/(m^2 (ma+1)) + sum_j Q_j g(j)
         - (1/m) sum_j g(j/m)] / a^3,

    where g(0) = 0 drops the j = 0 terms.  Each term is taken over a
    once more, g(y)/a = u^2 (3 + 2y/a) with u = y/(a+y), and the bracket
    over a^2, so no step overflows at any a."""
    mf = float(m)
    col = a[..., None]

    def g_over_a(y):
        u = y / (col + y)
        return u * u * (3.0 + 2.0 * y / col)

    j = np.arange(1, n, dtype=float)
    first = n * (n - 1) * ((mf - 1.0) / mf) / mf / mf / (a + 1.0 / mf) / a
    bracket = (np.sum(q * g_over_a(j), axis=-1)
               - np.sum(g_over_a(j / mf), axis=-1) / mf - first)
    return bracket / a / a


def reference_prior_exact(a, m: int, n: int):
    """Unnormalized exact reference hyperprior: square root of the
    marginal-model Fisher information; elementwise for an array of a.

    Behaves like sqrt((m-1) c_n / m) / sqrt(a) near zero and decays as
    a^-2 at infinity, hence proper.  The Fisher sum takes the one of its
    two forms that keeps its digits at each a (``_fisher_sum``).
    Against mpmath over a in [1e-300, 1e8] its relative error is below
    2e-14 on (m, n) = (60, 60), (1000, 30) and (10, 2) (1.3e-14 the
    most found), and below 1e-12 on (2, 300) and (20, 1000) (4e-13),
    where the pmf row sets it.  At m = 1e12 it reaches
    2.6e-9 near the switch between the forms, where both cancel.  The
    prior's error is half the sum's.  The sum is positive for n >= 2.
    Below the normal float range it loses digits (7e-2 on (1000, 30) at
    a = 1e80), so there the prior is 0.0: where it would be below
    1.5e-154, for a beyond about 2e77 on (60, 60).  A negative sum is a
    defect and raises ``AccuracyError``.  Unlike the table that the mode
    search and the samplers read, which needs m <= 1e12
    (``_Shape._coef``), it takes any m: at m a in [1e-3, 100] it is
    within 2e-14 relative of mpmath up to m = 1e40 (n = 2 and 24).
    """
    array = _is_array(a)
    _check_shape(m, n)
    flat = np.ravel(np.asarray(a, dtype=float))
    out = np.zeros(flat.shape)
    tiny = flat <= _TINY_A
    if tiny.any():
        # Every j >= 1 term of the Fisher sum is below 1e-290 of the j = 0
        # term, (m-1)/m sum_i 1/(ma+i) / a = (m-1)/m H_{n-1} / a, which
        # overflows at subnormal a: take the two square roots separately.
        harmonic = np.sum(1.0 / np.arange(1.0, n))
        out[tiny] = np.sqrt((m - 1) / m * harmonic) / np.sqrt(flat[tiny])
    s = _fisher_sum(flat[~tiny], m, n)
    out[~tiny] = np.sqrt(np.where(s < _TINY_FLOAT, 0.0, s))
    return out.reshape(a.shape) if array else float(out[0])


def reference_prior_approx(a, m: int, n: int):
    """Proper closed-form approximation to the exact hyperprior:
    (1/2)(n/m) a^{-1/2} (a + n/m)^{-3/2}, i.e. a/(a + n/m) ~ Be(1/2, 1).
    Integrates to 1 exactly.  Elementwise for an array of a.  Formed as
    (n/m)/(2(a + n/m)) / (sqrt(a) sqrt(a + n/m)) at every a, which
    overflows nowhere and is 0.0 only where the prior underflows; the
    square roots are correctly rounded, so a float and an array entry
    give the same float."""
    _check_shape(m, n)
    c = n / m
    if _is_array(a):
        sqrt = np.sqrt
    else:
        a, sqrt = float(a), math.sqrt
    return 0.5 * c / (a + c) / (sqrt(a) * sqrt(a + c))


def _check_prior(prior: str) -> None:
    if prior not in ("exact", "approx"):
        raise DomainError(f"unknown prior {prior!r}; use 'exact' or 'approx'")


def _log_prior(a, m: int, n: int, prior: str):
    """The log of hyperprior ``prior`` at a.  The exact prior's is -inf
    where the prior underflows.  The approximate prior's is
    log(n/(2m)) - log(a)/2 - 1.5 log(a + n/m) at every a, finite out to
    a = 1.8e308: ``_approx_log_prior`` at a float and at each entry of
    an array alike."""
    _check_prior(prior)
    if prior == "approx":
        _check_shape(m, n)
        return _elementwise(_approx_log_prior(m, n), a)
    v = reference_prior_exact(a, m, n)
    if isinstance(v, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(v)
    return math.log(v) if v > 0.0 else -math.inf


def _approx_log_prior(m: int, n: int):
    """``_log_prior(a, m, n, "approx")`` at one float a > 0, bound once
    with log(n/(2m)) precomputed and no validation."""
    c = n / m
    log_half_c, log = math.log(0.5 * c), math.log

    def log_prior(a: float) -> float:
        return log_half_c - 0.5 * log(a) - 1.5 * log(a + c)
    return log_prior


def posterior_log_density_a(a, x: CountTable, prior: str = "exact"):
    """Unnormalized log posterior density of the hyperparameter a;
    elementwise for an array of a.  Under the exact prior it is -inf
    where that prior is 0.0: at n = 1, and where it underflows."""
    return marginal_log_likelihood(x, a) + _log_prior(a, x.m, x.n, prior)


def _cheb_vander(x: np.ndarray, size: int) -> np.ndarray:
    """T_k(x) for k = 0..size-1, one row per k, by the three-term
    recurrence T_{k+1} = 2x T_k - T_{k-1}."""
    v = np.empty((size, x.size))
    v[0], v[1] = 1.0, x
    x2 = 2.0 * x
    for k in range(1, size - 1):
        np.multiply(x2, v[k], out=v[k + 1])
        v[k + 1] -= v[k - 1]
    return v


class _Shape:
    """What is computed from a table's shape (m, n) alone, kept per shape
    by ``_shape`` and read by the mode search and the samplers on every
    table of that shape: on construction, the window [lo, hi] of a that
    the mode search solves over and the exact-prior table covers; on
    first use, ``_coef``, the exact-prior table."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.lo = min(_MODE_BRACKET[0], _MODE_LO_TIMES_M / m)
        self.hi = _MODE_BRACKET[1]
        self._t0, t1 = math.log(self.lo), math.log(self.hi)
        self._h = (t1 - self._t0) / (_CACHE_SIZE - 1)  # the table's step

    @functools.cached_property
    def _coef(self) -> array:
        """The exact-prior table: the cubic Hermite interpolant of the
        log prior on ``_CACHE_SIZE`` points uniform in t over [lo, hi],
        four coefficients per interval in its local coordinate, in one
        flat array of doubles (96 kB).  The log prior is smooth in t and
        nearly linear at both ends (slope -1/2, then -2), so its
        interpolating Chebyshev series on ``_CHEB_NODES`` nodes in t
        (coefficients by the discrete cosine sum) gives the values and
        exact slopes.  Against mpmath the lookups are within 5e-12 on
        (m, n) = (60, 60), (1000, 30), (10, 2) and (2000, 10029), 1.3e-9
        on (2, 300), set by the interpolant, and 2.2e-9 at m = 1e12, set
        by the Fisher sums at the nodes; ``slope_at`` is within 1e-9,
        1.3e-8 and 4e-9 (also at m = 1e10).  The window widens with log m
        while the nodes stay put, so past ``_TABLE_MAX_M`` the table would
        lose digits silently (2e-3 at m = 1e25): it raises
        ``PreconditionError`` instead."""
        m, n = self.m, self.n
        if n < 2:
            raise PreconditionError(
                "the exact hyperprior is identically zero when n = 1")
        if m > _TABLE_MAX_M:
            raise PreconditionError(
                f"the exact-prior table needs m <= 1e12 cells, got m = {m}")
        t0, t1 = self._t0, math.log(self.hi)
        half = 0.5 * (t1 - t0)
        # Nodes x_k = cos(pi (k + 1/2) / N) in [-1, 1], t = t0 + half (1 + x)
        nodes = np.cos(np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES)
        at_nodes = 0.5 * np.log(_fisher_sum(
            np.exp(t0 + half * (1.0 + nodes)), m, n))
        # c_j = (2/N) sum_k y(x_k) T_j(x_k), c_0 halved
        c = (2.0 / _CHEB_NODES) * (_cheb_vander(nodes, _CHEB_NODES)
                                   @ at_nodes)
        c[0] *= 0.5
        # Slope series: d_{j-1} = d_{j+1} + 2j c_j, i.e. d_j sums 2i c_i
        # over i = j+1, j+3, .., with d_0 halved.
        w = 2.0 * np.arange(_CHEB_NODES) * c
        tail = np.empty_like(w)
        tail[0::2] = np.cumsum(w[0::2][::-1])[::-1]
        tail[1::2] = np.cumsum(w[1::2][::-1])[::-1]
        d = np.append(tail[1:], 0.0)
        d[0] *= 0.5
        # The table is symmetric about x = 0 and T_j(-x) = (-1)^j T_j(x):
        # one Vandermonde matrix on its right half serves both halves.
        right = np.arange(1, _CACHE_SIZE, 2) / (_CACHE_SIZE - 1)
        flip = (-1.0) ** np.arange(_CHEB_NODES)
        v = np.stack([c, d, flip * c, flip * d]) @ _cheb_vander(right,
                                                               _CHEB_NODES)
        ys = np.concatenate((v[2, ::-1], v[0]))
        # The step times the slope in t, which is dy/dx / half
        hd = self._h / half * np.concatenate((v[3, ::-1], v[1]))
        # On interval i, at s = (t - t_i)/h in [0, 1], the interpolant is
        # y_i + s (hd_i + s (c2_i + s c3_i)): a flat array of doubles, a
        # quarter of the memory of a list of Python floats.
        dy, d0, d1 = np.diff(ys), hd[:-1], hd[1:]
        return array("d", np.stack(
            (ys[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy),
            axis=1).tobytes())

    def reader(self):
        """A lookup of the exact log prior at one float a > 0, read from
        the table in [lo, hi] and evaluated directly outside it, and a
        function that gives the number of direct evaluations it has made,
        so that each chain counts its own."""
        lo, hi, m, n = self.lo, self.hi, self.m, self.n
        coef, t0, h, last = self._coef, self._t0, self._h, _CACHE_SIZE - 2
        log, direct = math.log, 0

        def log_value(a: float) -> float:
            nonlocal direct
            if not lo <= a <= hi:
                direct += 1
                return _log_prior(a, m, n, "exact")
            x = (log(a) - t0) / h
            i = min(int(x), last)
            s = x - i
            k = 4 * i
            return coef[k] + s * (coef[k + 1] + s * (coef[k + 2]
                                                     + s * coef[k + 3]))
        return log_value, lambda: direct

    def slope_at(self, t: float) -> float:
        """The slope in t of the table's cubic piece at one t = log a in
        the window: (hd + 2 s c2 + 3 s^2 c3) / h."""
        x = (t - self._t0) / self._h
        i = min(int(x), _CACHE_SIZE - 2)
        s, c = x - i, self._coef[4 * i + 1:4 * i + 4]
        return (c[0] + s * (2.0 * c[1] + 3.0 * s * c[2])) / self._h


@functools.lru_cache(maxsize=_SHAPES)
def _shape(m: int, n: int) -> _Shape:
    """The ``_Shape`` of (m, n), one per shape in a process."""
    return _Shape(m, n)


def _log_mode(x: CountTable, prior: Optional[str] = None) -> float:
    """Maximize log p(x|a), plus the log of hyperprior ``prior`` unless
    it is None, over the mode search window [lo, hi] of the table's
    ``_Shape``: the zero of the slope in t = log a on [log lo, log hi]
    (``numerics._find_root``, from the two end slopes), or the window's
    edge where the slope has one sign at both ends.  The likelihood is
    unimodal in a (Levin and Reeds, Ann. Statist. 5:79, 1977), and on
    every table tested so is the density under each prior, so the slope
    changes sign at most once, from + to -.  The slopes are closed forms:
    -W . (J / (a + J)) over the table's stored J and W for the
    likelihood (r0 - 1 as a -> 0, with no overflow), -1/2 - (3/2)
    a/(a + n/m) for the approximate prior, and ``_Shape.slope_at`` for
    the exact prior, the slope of the cubic piece of the table, which
    spans the window.  So the search evaluates no log density, and is
    right where that density is flat to rounding."""
    if prior is not None:
        _check_prior(prior)
    shape = _shape(x.m, x.n)
    j, dot, buf = x._lik_j, x._lik_w.dot, np.empty_like(x._lik_j)
    exp, add, divide, c = math.exp, np.add, np.divide, x.n / x.m

    def lik_slope(a: float) -> float:
        return -float(dot(divide(j, add(j, a, out=buf), out=buf)))

    if prior is None:
        def slope(t: float) -> float:
            return lik_slope(exp(t))
    elif prior == "exact":
        table_slope = shape.slope_at

        def slope(t: float) -> float:
            return lik_slope(exp(t)) + table_slope(t)
    else:
        def slope(t: float) -> float:
            a = exp(t)
            return lik_slope(a) - 0.5 - 1.5 * a / (a + c)
    left, right = math.log(shape.lo), math.log(shape.hi)
    s_left, s_right = slope(left), slope(right)
    if s_left * s_right > 0.0:
        return exp(right if s_left > 0.0 else left)
    return exp(_find_root(slope, left, right, s_left, s_right)[0])


def posterior_mode_a(x: CountTable, prior: str = "exact") -> float:
    """Empirical-Bayes mode of the hyperposterior of a.

    The zero of the slope of the log density in log a over the whole
    mode search window (``_log_mode``), 9 to 21 slope evaluations on
    the tables tested, 15 the median.
    Under the approximate prior it is within 3e-14 relative of the
    40-digit mpmath root on the tables tested, m up to 1e12.  Under the
    exact prior the slope is read from the exact-prior table of (m, n);
    the mode is within 6e-9 relative of the one on the directly
    evaluated prior on the tables tested; past m = 1e12 the table would
    lose digits, and this raises ``PreconditionError``.  The window and
    the table are one ``_Shape`` per (m, n), for at most 16 shapes,
    shared with every chain and mode search on a table of that shape.

    Requires at least two nonzero cells; with a single occupied cell
    the mode sits at the unusable a = 0 boundary.
    """
    if x.r0 <= 1:
        raise BoundaryModeError(
            "posterior mode is at a=0 when only one cell is occupied")
    return _log_mode(x, prior)


def likelihood_mode_a(x: CountTable) -> float:
    """Type-II maximum likelihood value of a (no hyperprior).

    The zero of the likelihood's slope in log a over the whole mode
    search window (``_log_mode``), within 1e-14 relative of the
    40-digit mpmath root on the tables tested, m up to 1e12.  The
    marginal likelihood is bounded away from zero at infinity, so an
    interior maximizer need not exist.  Where the mode lies above 5e3,
    half the window's top, this raises; so it does where the likelihood
    increases over the whole window: when every cell is occupied, and on
    sparse tables of huge m, such as two singletons among 1e12 cells."""
    a_hat = _log_mode(x)
    if a_hat > 0.5 * _MODE_BRACKET[1]:
        raise BoundaryModeError("marginal likelihood has no interior mode")
    return a_hat


def approx_posterior_curvature(a: float, x: CountTable) -> float:
    """Closed-form second derivative of log[p(x|a) pi*(a|m,n)] in a:
    sum_{j<n} [1/(a + j/m)^2 - R_j/(a + j)^2] + 1/(2a^2)
    + 3/(2(a + n/m)^2), with R_j the number of cells whose count
    exceeds j.  The j = 0 terms are taken together, as (1.5 - r0)/a^2,
    and the others are formed as squared ratios, so the value is +-inf
    only where it leaves the float range, and 0.0 where it underflows."""
    a = _float(a)
    if not (a > 0.0):
        raise DomainError("a must be positive")
    m, n = x.m, x.n
    j = np.arange(1.0, n)
    rest = float(np.sum((1.0 / (a + j / m)) ** 2
                        - x._exceed[1:] * (1.0 / (a + j)) ** 2))
    return (1.5 - x.r0) / a / a + rest + 1.5 * (1.0 / (a + n / m)) ** 2


def log_concavity_certificate(x: CountTable,
                              a_grid: Sequence[float]) -> bool:
    """Check the closed-form curvature of the approximate-prior
    posterior on a grid; true iff strictly negative everywhere.
    Requires at least three occupied cells (the hypothesis of the
    log-concavity result)."""
    if x.r0 < 3:
        raise PreconditionError(
            "log-concavity certificate needs at least 3 nonzero cells")
    return all(approx_posterior_curvature(a, x) < 0.0 for a in a_grid)


def _log_target(x: CountTable, log_prior):
    """The samplers' log target in t = log a: log likelihood (the bound
    kernel) plus ``log_prior`` of a plus the Jacobian t, and -inf outside
    the support window |t| <= ``_LOG_A_LIMIT``.  Returns the target and a
    function that gives the number of calls made to it so far."""
    lo, hi = -_LOG_A_LIMIT, _LOG_A_LIMIT  # closure cells: cheaper reads
    log_lik = _likelihood_kernel(x)
    exp, neg_inf = math.exp, -math.inf
    calls = 0

    def log_target(t: float) -> float:
        nonlocal calls
        calls += 1
        if not lo <= t <= hi:
            return neg_inf
        a = exp(t)
        return log_lik(a) + log_prior(a) + t
    return log_target, lambda: calls


def _uniform_stream(rng: np.random.Generator):
    """The uniforms on [0, 1) that successive slice steps use, drawn
    ``_VARIATE_BLOCK`` at a time."""
    while True:
        yield from rng.random(_VARIATE_BLOCK).tolist()


def _mh_variates(rng: np.random.Generator):
    """The pairs (z, log u) of a standard normal and the log of a uniform
    that successive MH steps use, drawn ``_VARIATE_BLOCK`` of each at a
    time: normals first, then log u as -E, E standard exponential, which
    has the law of log u and never takes the log of 0."""
    while True:
        yield from zip(rng.standard_normal(_VARIATE_BLOCK).tolist(),
                       (-rng.standard_exponential(_VARIATE_BLOCK)).tolist())


def _slice_step(log_target, uniform, t: float, lt: float):
    """One slice-sampling update of t, whose log target is lt: step out
    by 2 at most 200 times a side, then shrink the bracket until a
    proposal lands in the slice (Neal, Ann. Statist. 31:705, 2003).
    ``uniform`` is a zero-argument source of uniforms on [0, 1).
    Returns the new t and its target."""
    ly = lt + math.log(uniform())
    left = t - 2.0 * uniform()
    right = left + 2.0
    steps = 200
    while steps > 0 and log_target(left) > ly:
        left -= 2.0
        steps -= 1
    steps = 200
    while steps > 0 and log_target(right) > ly:
        right += 2.0
        steps -= 1
    while True:
        # rng.uniform(left, right) to the bit
        prop = left + (right - left) * uniform()
        lprop = log_target(prop)
        if lprop >= ly:
            return prop, lprop
        if prop < t:
            left = prop
        else:
            right = prop


def sample_posterior(x: CountTable, length: int, seed: int,
                     prior: str = "exact", thetas: bool = False,
                     method: str = "mh", warmup: int = 2000) -> HierChain:
    """Draw an MCMC chain targeting the hyperposterior of a.

    ``method="mh"`` runs a random-walk Metropolis sampler on log a.  Its
    ``warmup`` discarded draws adapt the step size after every block of
    50, towards the 30-45% acceptance band; the acceptances of an
    unfinished last block are dropped, and the reported acceptance rate
    counts the kept draws only.  ``method="slice"`` runs a univariate
    slice sampler on log a (appropriate under the approximate prior
    with three or more occupied cells, where the target is log-concave
    in a), after min(warmup, 200) discarded draws.  With
    ``thetas=True`` each a is augmented by a Dirichlet(x_1+a, ..,
    x_m+a) draw of the cell probabilities.

    Chains are reproducible: a fixed seed yields an identical chain,
    and a chain is the start of any longer one with the same seed and
    warm-up.  The log target is one kernel bound to the table and the
    prior (``_log_target``), with no validation per call.  The exact
    prior depends on (m, n) only, so it is read from the table of the
    shape's ``_Shape`` (``_Shape.reader``), shared with
    ``posterior_mode_a`` and with every later ``CountTable`` of that
    shape; past m = 1e12 that table, and so an exact chain, raises
    ``PreconditionError``.  MH draws its normals and
    log-uniforms in fixed-size blocks (``_mh_variates``), and the slice
    sampler its uniforms (``_uniform_stream``); the slice chain is that
    of one ``rng.random()`` call per uniform.  The theta rows are drawn
    straight into the result, a block of rows at a time, and equal one
    ``rng.gamma`` call over all of them.  ``target_evals`` counts
    the log-target calls.
    """
    if _float(length) < 1:
        raise DomainError("chain length must be >= 1")
    if _float(warmup) < 0:
        raise DomainError("warmup must be >= 0")
    if method not in ("mh", "slice"):
        raise DomainError(f"unknown method {method!r}")
    _check_seed(seed)
    if prior == "exact":
        log_prior, direct_evals = _shape(x.m, x.n).reader()
    else:
        _check_prior(prior)
        log_prior, direct_evals = _approx_log_prior(x.m, x.n), lambda: 0
    log_target, target_evals = _log_target(x, log_prior)

    rng = np.random.default_rng(seed)
    t = math.log(x.n / x.m) if x.n < x.m else 0.0  # start near prior median scale
    lt = log_target(t)

    draws = np.empty(length)
    mh = method == "mh"
    if mh:
        variates = _mh_variates(rng).__next__
    else:
        uniform = _uniform_stream(rng).__next__
    first = -warmup if mh else -min(warmup, 200)
    scale = 1.0
    accepted = 0
    for i in range(first, length):
        if mh:
            z, log_u = variates()
            prop = t + scale * z
            lprop = log_target(prop)
            if log_u < lprop - lt:
                t, lt = prop, lprop
                accepted += 1
            if i < 0 and (i - first + 1) % 50 == 0:
                rate = accepted / 50.0
                scale *= math.exp(1.2 * (rate - 0.375))
                scale = min(max(scale, 1e-3), 50.0)
                accepted = 0
        else:
            t, lt = _slice_step(log_target, uniform, t, lt)
        if i >= 0:
            draws[i] = math.exp(t)
        elif i == -1:  # end of warm-up: drop an unfinished 50-draw block
            accepted = 0

    theta_draws = None
    if thetas:
        dense = np.zeros(x.m)
        for idx, c in x.counts.items():
            dense[idx] = c
        # One row per draw, generated in the same order as row-by-row
        # calls, a block of at most _CACHE_CHUNK entries at a time.
        theta_draws = np.empty((length, x.m))
        rows = max(1, _CACHE_CHUNK // x.m)
        for k in range(0, length, rows):
            block = theta_draws[k:k + rows]
            rng.standard_gamma(dense + draws[k:k + rows, None], out=block)
            block /= block.sum(axis=1, keepdims=True)

    return HierChain(a_samples=draws, theta_samples=theta_draws, seed=seed,
                     acceptance_rate=accepted / length if mh else 1.0,
                     direct_prior_evals=direct_evals(),
                     target_evals=target_evals())


@functools.lru_cache(maxsize=64)
def _limit_log_scale(n: int, r0: int) -> float:
    """Log of the maximum over v of v^{r0-3/2} prod_{i<n} (1 + v/i)^{-1},
    reached where sum_{i<n} v/(v+i) = r0 - 3/2; 0 at r0 = 1, where the
    product decreases in v.  The sum lies between (n-1) v/(v+n-1) and
    v H_{n-1}, whose roots bracket the root in log v."""
    c = r0 - 1.5
    if c < 0.0:
        return 0.0
    i = np.arange(1, n, dtype=float)
    log_v, _ = _find_root(
        lambda u: float(np.sum(1.0 / (1.0 + i * math.exp(-u)))) - c,
        math.log(c / float(np.sum(1.0 / i))),
        math.log(c * (n - 1) / (n - 1 - c)))
    v = math.exp(log_v)
    return c * log_v - float(np.sum(np.log1p(v / i)))


def limit_density_psi(v: float, profile: LimitProfile) -> float:
    """Large-m limit density of v = m a given (n, r0), up to a v-free
    factor:

        v^{r0-3/2} Gamma(v+1) Gamma(n) / Gamma(v+n)
            * sqrt(sum_{i<n} i/(v+i)^2) / C(n, r0),

    where Gamma(v+1) Gamma(n) / Gamma(v+n) = prod_{i<n} (1 + v/i)^{-1}
    and C(n, r0) is the maximum over v of the factors before the square
    root (1 at r0 = 1).  So psi is of order 1 near its mode for every n:
    without (n-1)! it underflows to 0 at every v once n > 170, and
    without C it overflows near the mode at r0 = n/2, n = 1e4.
    """
    v = _float(v)
    if not (0.0 < v < math.inf):
        raise DomainError("v must be positive and finite")
    n, r0 = profile.n, profile.r0
    i = np.arange(1, n, dtype=float)
    w = max(v, 1.0)  # sum_i i/(v+i)^2 underflows at v > 1e154
    log_root = 0.5 * math.log(float(np.sum(i / ((v + i) / w) ** 2))) \
        - math.log(w)
    return math.exp((r0 - 1.5) * math.log(v)
                    - float(np.sum(np.log1p(v / i)))
                    - _limit_log_scale(n, r0) + log_root)


def _solve_cstar(ratio: float) -> float:
    """Root of c log(1 + 1/c) = ratio, found in log c over
    [1e-12, 1e12]; the left side increases from 0 to 1."""
    log_c, _ = _find_root(
        lambda u: math.exp(u) * math.log1p(math.exp(-u)) - ratio,
        math.log(1e-12), math.log(1e12))
    return math.exp(log_c)


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
    out = log_gamma(_float(N) + 1.0) + log_gamma((k + 1) * alpha) \
        - log_gamma(N + (k + 1) * alpha)
    for Rj in R_full:
        out += log_gamma(Rj + alpha) - log_gamma(alpha) - log_gamma(Rj + 1.0)
    return math.exp(out)
