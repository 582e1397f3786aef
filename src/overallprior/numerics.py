"""Special functions, divergences, quadrature and 1-D minimization.

Everything in this module is a pure function of its inputs and safe to
call concurrently.  The special functions set the accuracy floor for
every formula built on top of them:

- ``log_gamma`` is ``math.lgamma`` behind a domain check;
- ``log_rising`` and ``log_rising_ratio`` give log rising factorials
  for every j = 0..k in one numpy pass.  The single-cell pmf, the
  multinomial coefficient and the expected loss take their log-gamma
  differences at arguments an integer apart through them rather than
  as a difference of two ``lgamma`` values, which cancels when the
  argument is much larger than the step.  The marginal likelihood
  needs no log-gamma at all: ``hier.CountTable`` writes it as one
  weighted sum of log1p terms (see ``hier.marginal_log_likelihood``);
- ``digamma`` (elementwise on arrays) and ``trigamma`` shift the
  argument up with the recurrence and then sum the asymptotic series.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import AccuracyError, DomainError, EvaluationError

__all__ = [
    "Grid1D",
    "OptimResult",
    "log_gamma",
    "log_rising",
    "log_rising_ratio",
    "digamma",
    "trigamma",
    "kl_beta",
    "kl_numeric",
    "minimize_scalar",
    "integrate",
]

# B_{2k} / (2k) for digamma.
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2k} for trigamma.
_TRIGAMMA_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_SHIFT = 9.0  # asymptotic series cutoff; below this, recur upward


@dataclass(frozen=True)
class Grid1D:
    """A tabulated function: strictly increasing abscissae and values."""

    points: tuple
    values: tuple

    def __post_init__(self):
        points = tuple(float(p) for p in self.points)
        values = tuple(float(v) for v in self.values)
        if len(points) != len(values):
            raise DomainError("points and values must have equal length")
        if len(points) < 1:
            raise DomainError("grid must be non-empty")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise DomainError("grid points must be strictly increasing")
        if not all(math.isfinite(v) for v in values):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a scalar minimization."""

    argmin: float
    min_value: float
    iterations: int
    converged: bool


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (``math.lgamma``).

    Error below 1e-14 on [1e-8, 1e12]: relative, or absolute where
    |log Gamma(x)| < 1 (near the zeros at x = 1 and x = 2).
    """
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _steps(k) -> np.ndarray:
    """The offsets i = 0..k-1 of a rising factorial of integer length k."""
    k = operator.index(k)
    if k < 0:
        raise DomainError(f"rising-factorial length must be >= 0, got {k}")
    return np.arange(k, dtype=float)


def _log_rising_tail(x: np.ndarray, i: np.ndarray, big: bool) -> np.ndarray:
    """log_rising for j = 1..k along the last axis; ``x`` is 0-d or a
    column, and ``big`` picks the form for x >= k."""
    if big:
        return ((i + 1.0) * np.log(x)
                + np.add.accumulate(np.log1p(i / x), axis=-1))
    return np.add.accumulate(np.log(x + i), axis=-1)


def log_rising(x, k: int) -> np.ndarray:
    """Log rising factorials log[Gamma(x + j) / Gamma(x)] for j = 0..k.

    ``x`` is a positive scalar or array; the result has shape
    ``np.shape(x) + (k + 1,)``.  Where x >= k the sum is written as
    j log x + sum_{i<j} log1p(i/x), otherwise as sum_{i<j} log(x + i).
    Error below 1e-14 for x in [1e-8, 1e12] and k <= 1000: relative,
    or absolute where the value is below 1.
    """
    i = _steps(k)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if not (float(x) > 0.0 if scalar else (x > 0.0).all()):
        raise DomainError(f"log_rising requires x > 0, got {x}")
    if scalar:
        out = np.zeros(i.size + 1)
        out[1:] = _log_rising_tail(x, i, float(x) >= i.size)
        return out
    col = x.reshape(-1, 1)
    big = col[:, 0] >= i.size
    out = np.zeros((col.shape[0], i.size + 1))
    out[big, 1:] = _log_rising_tail(col[big], i, True)
    out[~big, 1:] = _log_rising_tail(col[~big], i, False)
    return out.reshape(x.shape + (i.size + 1,))


def log_rising_ratio(x: float, y: float, k: int) -> np.ndarray:
    """log[Gamma(x + j) Gamma(y) / (Gamma(x) Gamma(y + j))] for j = 0..k,
    for scalars x, y > 0.

    Summed as log1p((x - y)/(y + i)), so the result keeps its relative
    accuracy when x and y are close and both large, where the
    difference of two ``log_rising`` rows would cancel.  Error below
    1e-13 for k <= 1000: relative, or absolute where the value is
    below 1.
    """
    i = _steps(k)
    x, y = float(x), float(y)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"log_rising_ratio requires x, y > 0, "
                          f"got {x}, {y}")
    u = (x - y) / (y + i)
    terms = np.log1p(u)
    # Near u = -1 the rounding of u dominates; take the ratio directly.
    near = u < -0.5
    terms[near] = np.log((x + i[near]) / (y + i[near]))
    out = np.zeros(i.size + 1)
    out[1:] = np.add.accumulate(terms)
    return out


def digamma(x):
    """Digamma function psi(x) for x > 0, elementwise on arrays.

    A scalar argument gives a float.  Error below 1e-14 on
    [1e-8, 1e12]: relative, or absolute where |psi(x)| < 1.
    """
    y = np.asarray(x, dtype=float)
    if not (y > 0.0).all():
        raise DomainError(f"digamma requires x > 0, got {x}")
    # psi(y) = psi(y + s) - sum_{i<s} 1/(y + i), with s the unit steps
    # that lift y into the range of the asymptotic series.
    s = np.ceil(np.maximum(_SHIFT - y, 0.0))
    i = np.arange(_SHIFT)
    acc = -np.where(i < s[..., None], 1.0 / (y[..., None] + i), 0.0).sum(-1)
    y = y + s
    z = 1.0 / (y * y)
    series = 0.0
    for c in reversed(_DIGAMMA_COEF):
        series = (series + c) * z
    out = acc + np.log(y) - 0.5 / y - series
    return float(out) if out.ndim == 0 else out


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) for x > 0; absolute error below 1e-10."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    y = x
    while y < _SHIFT:
        acc += 1.0 / (y * y)
        y += 1.0
    z = 1.0 / (y * y)
    series = 0.0
    for c in reversed(_TRIGAMMA_COEF):
        series = (series + c) * z
    series *= 1.0 / y  # series terms are B_2k / y^{2k+1}
    return acc + 1.0 / y + 0.5 * z + series


def kl_beta(alpha0: float, beta0: float, alpha: float, beta: float) -> float:
    """Directed logarithmic divergence of Be(alpha0, beta0) from Be(alpha, beta).

    This is the expectation, under Be(alpha, beta), of the log-ratio of
    the Be(alpha, beta) density over the Be(alpha0, beta0) density.
    Nonnegative, and zero iff the two parameter pairs coincide.
    """
    for name, v in (("alpha0", alpha0), ("beta0", beta0),
                    ("alpha", alpha), ("beta", beta)):
        if not (float(v) > 0.0):
            raise DomainError(f"kl_beta requires {name} > 0, got {v}")
    return (
        log_gamma(alpha + beta) - log_gamma(alpha0 + beta0)
        + log_gamma(alpha0) - log_gamma(alpha)
        + log_gamma(beta0) - log_gamma(beta)
        + (alpha - alpha0) * digamma(alpha)
        + (beta - beta0) * digamma(beta)
        - ((alpha + beta) - (alpha0 + beta0)) * digamma(alpha + beta)
    )


def kl_numeric(p: Grid1D, q: Grid1D) -> float:
    """Trapezoid estimate of the directed divergence of q from p's law.

    ``p`` and ``q`` must be tabulated on the same grid and ``p`` should
    integrate to about 1.  Returns ``math.inf`` when q vanishes on a
    point where p does not (mismatched support), rather than raising:
    callers minimize over families whose boundary members degenerate.
    """
    if p.points != q.points:
        raise DomainError("kl_numeric requires a common support grid")
    integrand = []
    for pv, qv in zip(p.values, q.values):
        if pv < 0.0 or qv < 0.0:
            raise DomainError("densities must be nonnegative")
        if pv == 0.0:
            integrand.append(0.0)
        elif qv == 0.0:
            return math.inf
        else:
            integrand.append(pv * math.log(pv / qv))
    xs = p.points
    total = 0.0
    for i in range(len(xs) - 1):
        total += 0.5 * (integrand[i] + integrand[i + 1]) * (xs[i + 1] - xs[i])
    return total


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _checked_eval(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise EvaluationError(f"objective returned non-finite value at x={x}", x)
    return v


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-10, max_iter: int = 500) -> OptimResult:
    """Bracketing minimizer on [lo, hi]: golden section with parabolic steps.

    For a unimodal f the returned point is the global minimizer to
    within ``tol``; otherwise it is a local minimizer (converged flag
    still reports bracket collapse).
    """
    if not (lo < hi):
        raise DomainError("minimize_scalar requires lo < hi")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = _checked_eval(f, x)
    d = e = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-15
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        use_golden = True
        if abs(e) > tol1:
            # Parabola through (x, w, v)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            pnum = (x - v) * q - (x - w) * r
            pden = 2.0 * (q - r)
            if pden > 0.0:
                pnum = -pnum
            pden = abs(pden)
            e_prev = e
            e = d
            if (abs(pnum) < abs(0.5 * pden * e_prev)
                    and pnum > pden * (a - x) and pnum < pden * (b - x)):
                d = pnum / pden
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if mid > x else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = _checked_eval(f, u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return OptimResult(argmin=x, min_value=fx, iterations=iterations,
                       converged=converged)


# Gauss-Kronrod 15-point rule on [-1, 1]: Kronrod nodes/weights and the
# embedded 7-point Gauss weights (on the odd-indexed nodes).
_GK_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
)
_GK_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
)
_G_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def _gk15(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = []
    for t in _GK_NODES:
        x = mid + half * t
        v = f(x)
        if not math.isfinite(v):
            raise EvaluationError(
                f"integrand returned non-finite value at x={x}", x)
        fk.append(v)
    kronrod = half * sum(w * v for w, v in zip(_GK_WEIGHTS, fk))
    gauss = half * sum(w * fk[2 * i + 1] for i, w in enumerate(_G_WEIGHTS))
    return kronrod, abs(kronrod - gauss)


def _adaptive(f, a, b, tol_abs, max_panels=2000):
    """Globally adaptive subdivision: repeatedly bisect the panel with
    the worst error estimate until the total meets ``tol_abs`` or the
    panel budget runs out.  The budget bounds the cost when part of the
    range is dominated by floating-point noise (e.g. a far tail whose
    true contribution is below machine precision)."""
    est, err = _gk15(f, a, b)
    panels = [(-err, a, b, est, err)]
    while len(panels) < max_panels:
        err_total = sum(p[4] for p in panels)
        if err_total <= tol_abs:
            break
        neg_err, pa, pb, pest, perr = heapq.heappop(panels)
        if neg_err == 0.0:
            # Worst remaining panel is already unsplittable.
            heapq.heappush(panels, (neg_err, pa, pb, pest, perr))
            break
        if (pb - pa) < 1e-14 * (abs(pa) + abs(pb) + 1.0):
            # Can't subdivide further; keep as-is with its error.
            heapq.heappush(panels, (0.0, pa, pb, pest, perr))
            continue
        mid = 0.5 * (pa + pb)
        le, lerr = _gk15(f, pa, mid)
        re, rerr = _gk15(f, mid, pb)
        heapq.heappush(panels, (-lerr, pa, mid, le, lerr))
        heapq.heappush(panels, (-rerr, mid, pb, re, rerr))
    return (sum(p[3] for p in panels), sum(p[4] for p in panels))


def _finite_at(f, x):
    try:
        return math.isfinite(f(x))
    except (OverflowError, ValueError, ZeroDivisionError):
        return False


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod estimate of the integral of f over (lo, hi).

    ``hi`` may be ``math.inf``; the tail is mapped to a finite interval
    with u = x / (1 + x), which flattens the O(x^{-1/2}) and heavy-tail
    endpoint behaviors this package encounters.  Integrable endpoint
    singularities on finite panels are removed by a square-root
    substitution.  Raises AccuracyError (with the best estimate
    attached) if the error estimate does not meet ``tol``.
    """
    lo = float(lo)
    hi = float(hi)
    if not (hi > lo):
        raise DomainError("integrate requires hi > lo")
    if math.isinf(lo):
        raise DomainError("lower limit must be finite")

    panels = []
    if math.isinf(hi):
        # Split at lo + 1; map [lo + 1, inf) through x = lo + u/(1-u).
        panels.append((f, lo, lo + 1.0))

        def tail(u, _f=f, _lo=lo):
            x = _lo + u / (1.0 - u)
            return _f(x) / (1.0 - u) ** 2

        # Seed the subdivision with panels reaching far into the tail
        # so a distant peak cannot be missed by a single rule pass.
        for ua, ub in ((0.5, 0.9), (0.9, 0.99), (0.99, 0.999),
                       (0.999, 0.9999), (0.9999, 1.0)):
            panels.append((tail, ua, ub))
    else:
        panels.append((f, lo, hi))

    total = 0.0
    err_total = 0.0
    for g, a, b in panels:
        # Remove endpoint singularities by substitution before recursing.
        if not _finite_at(g, a):
            width = b - a

            def g_lo(t, _g=g, _a=a):
                x = _a + t * t
                if x <= _a:  # t*t underflowed onto the singular endpoint
                    return 0.0
                return 2.0 * t * _g(x)

            g, a, b = g_lo, 0.0, math.sqrt(width)
        if not _finite_at(g, b):
            width = b - a

            def g_hi(t, _g=g, _b=b):
                x = _b - t * t
                if x >= _b:  # t*t underflowed onto the singular endpoint
                    return 0.0
                return 2.0 * t * _g(x)

            g, a, b = g_hi, 0.0, math.sqrt(width)
        rough, _ = _gk15(g, a, b)
        tol_abs = 0.25 * tol * max(1.0, abs(rough))
        est, err = _adaptive(g, a, b, tol_abs)
        total += est
        err_total += err
    if err_total > max(tol, tol * abs(total)) * 4.0:
        raise AccuracyError(
            f"integrate did not reach tol={tol} (error estimate {err_total})",
            best_estimate=total, error_estimate=err_total)
    return total
