"""Special functions, divergences and the package's one root finder.

Everything in this module is a pure function of its inputs and safe to
call concurrently.  The special functions set the accuracy floor for
every formula built on top of them:

- ``log_gamma`` is ``math.lgamma`` behind a domain check;
- ``log_rising_ratio`` gives the log of a ratio of two rising
  factorials for every j = 0..k in one numpy pass: the log-gamma
  differences of the reference predictive and the expected loss, at
  arguments an integer apart, without the cancellation of two
  ``lgamma`` values;
- ``digamma`` and ``trigamma`` shift the argument up with the
  recurrence and then sum the asymptotic series; they return -inf and
  inf where psi and psi' leave the float range.  ``digamma`` works in
  ``math`` on one float; an array is mapped over that one path;
- ``_log1p_sum``: the likelihood's sum_{i<=k} log1p(i/y), O(1), to 2e-15;
- ``_gamma_kl`` is the one divergence kernel: ``kl_beta`` and the
  normal-model risks ``refdist.d_sigma`` and ``refdist.d_mu`` are sums
  and differences of it;
- ``_find_root`` is Brent's bracketed zero finder, the one 1-D solver:
  the modes of ``hier`` and ``refdist.optimal_a`` are zeros of
  closed-form slopes in log a.  It stops at full double precision
  (within 2 ulp of known roots in the tests); the roots it returns
  are within 3e-14 relative of 40-digit mpmath roots of the slopes,
  whose rounding sets that.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import AccuracyError, DomainError

__all__ = [
    "OptimResult",
    "log_gamma",
    "log_rising_ratio",
    "digamma",
    "trigamma",
    "kl_beta",
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

# The float range: the smallest positive normal float (below it a float
# keeps fewer than 53 bits, and its log loses digits) and the largest.
_TINY_FLOAT = sys.float_info.min
_FLOAT_MAX = sys.float_info.max

# Above this x/y, ``log_rising_ratio`` takes log x - log y in place of
# log1p(x/y - 1), whose argument could overflow.
_BIG = 2.0 ** 1000

# The largest parameter of ``kl_beta``: its log-gamma terms, up to 2e300
# log 2e300, and their sums stay finite.
_KL_MAX = 1e300

# Arguments that ``digamma`` evaluates in ``math`` rather than numpy.
_SCALAR_TYPES = (int, float, np.floating)


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a scalar minimization: ``iterations`` counts the
    evaluations the solver made.  There is no convergence flag: a solver
    that fails raises ``AccuracyError`` instead of returning."""

    argmin: float
    min_value: float
    iterations: int


def _float(x, array: bool = False):
    """float(x), or x as a float array if ``array``.  An int beyond the
    float range raises ``DomainError``, not a bare ``OverflowError``."""
    try:
        return np.asarray(x, dtype=float) if array else float(x)
    except OverflowError:
        raise DomainError("an int argument is beyond the float range "
                          "(1.8e308)") from None


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (``math.lgamma``).

    Error below 1e-14 on [1e-8, 1e12]: relative, or absolute where
    |log Gamma(x)| < 1 (near the zeros at x = 1 and x = 2).  Above
    x = 2.56e305 log Gamma(x) leaves the float range: ``DomainError``.
    """
    x = _float(x)
    try:
        if x > 0.0:
            return math.lgamma(x)
    except OverflowError:
        raise DomainError("log Gamma(x) leaves the float range above "
                          "x = 2.56e305") from None
    raise DomainError(f"log_gamma requires x > 0, got {x}")


def log_rising_ratio(x: float, y: float, k: int) -> np.ndarray:
    """log[Gamma(x + j) Gamma(y) / (Gamma(x) Gamma(y + j))] for j = 0..k,
    for scalars x, y > 0.

    Summed as log1p((x - y)/(y + i)), so the result keeps its relative
    accuracy when x and y are close and both large, where the
    difference of the two log rising factorials would cancel.  Error below
    1e-13 for k <= 1000: relative, or absolute where the value is
    below 1.  Finite for every finite x, y > 0: an entry whose ratio
    (x + i)/(y + i) leaves the normal float range, such as i = 0 at a
    subnormal y, is log(x + i) - log(y + i), with no cancellation there.
    """
    k = operator.index(k)
    if _float(k) < 0:
        raise DomainError(f"rising-factorial length must be >= 0, got {k}")
    i = np.arange(k, dtype=float)
    x, y = _float(x), _float(y)
    if not (0.0 < x <= _FLOAT_MAX and 0.0 < y <= _FLOAT_MAX):
        raise DomainError(f"log_rising_ratio requires finite x, y > 0, "
                          f"got {x}, {y}")
    # Only the i = 0 entry, u = x/y - 1, can overflow (y + i >= 1 after
    # it); past 2^1000 it is log x - log y.
    big = k > 0 and x - y > _BIG * y
    u = y + i
    if big:
        u[0] = x
    np.divide(x - y, u, out=u)
    # Near u = -1 the rounding of u dominates; take the ratio directly,
    # and keep log1p off those entries, where u may round to -1.
    near = u < -0.5
    u[near] = 0.0
    terms = np.log1p(u)
    ratio = (x + i[near]) / (y + i[near])
    # Ratios below the normal range, whose log would lose digits or be
    # -inf, come first: near and the ratio both grow with i.
    sub = 0
    if ratio.size and ratio[0] < _TINY_FLOAT:
        sub = int(np.count_nonzero(ratio < _TINY_FLOAT))
        ratio[:sub] = 1.0
    terms[near] = np.log(ratio)
    if sub:
        terms[:sub] = np.log(x + i[:sub]) - np.log(y + i[:sub])
    if big:
        terms[0] = math.log(x) - math.log(y)
    out = np.zeros(i.size + 1)
    out[1:] = np.add.accumulate(terms)
    return out


def _series(coef, z):
    """sum_k coef[k] z^(k+1) by Horner's rule; z a float or an array."""
    out = 0.0
    for c in reversed(coef):
        out = (out + c) * z
    return out


def _digamma_float(y: float) -> float:
    """psi(y) at one float y > 0, with no validation."""
    # psi(y) = psi(y + s) - sum_{i<s} 1/(y + i), with s the unit steps
    # that lift y into the range of the asymptotic series.
    acc = 0.0
    if y < _SHIFT:
        s = math.ceil(_SHIFT - y)
        for i in range(s):
            acc -= 1.0 / (y + i)  # inf where psi(y) ~ -1/y is too
        y += s
    return acc + math.log(y) - 0.5 / y - _series(_DIGAMMA_COEF, 1.0 / y / y)


def digamma(x):
    """Digamma function psi(x) for x > 0, elementwise on arrays.

    A Python int or float, or a numpy float scalar, is evaluated in
    ``math`` with no numpy set-up, and gives a Python float: x is
    shifted up by s = ceil(9 - x) unit steps and the asymptotic series
    summed at x + s.  Any other argument is made a numpy array and each
    entry goes through that same float path, so an array gives the
    floats of the scalar calls, bit for bit (a 0-d array gives a
    float).  Error below 1e-14 on [1e-8, 1e12]: relative, or absolute
    where |psi(x)| < 1.  It is -inf below about 5.6e-309, where
    psi(x) ~ -1/x overflows.
    """
    if isinstance(x, _SCALAR_TYPES):
        y = _float(x)
        if not (y > 0.0):
            raise DomainError(f"digamma requires x > 0, got {x}")
        return _digamma_float(y)
    y = _float(x, array=True)
    if not (y > 0.0).all():
        raise DomainError(f"digamma requires x > 0, got {x}")
    out = np.array([_digamma_float(v) for v in y.ravel().tolist()])
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


def _log1p_sum(y: float, k: int) -> float:
    """L(y, k) = sum_{i=1}^{k} log1p(i/y) in O(1), at one float y >= 1e-300
    and an int k >= 0, unvalidated; 0.0 at y = inf, the sum itself up to
    k = 9.  At y >= 9, with u = (k + 1)/y, phi(u) = (1 + u) log1p(u) - u
    and S Stirling's remainder (DLMF 5.11.1; 7 terms, 4 from y = 30), it
    is (k + 1) phi(u)/u - log1p(u)/2 + S(y + k + 1) - S(y), which folds
    the textbook 1 - (y + 1/2) log1p(1/y), cancelling at large y, into
    S(y + 1) - S(y); below u = 1/2 phi(u)/u is a positive series in
    r = u/(2 + u).  Below y = 9 it is k log1p(9/y) + L(y + 9, k - 9)
    + log prod_{i<9} (y + i)/(y + 9).  Relative error below 2e-15 against
    mpmath over y in [1e-300, 1e300] and k in [1, 1e6]."""
    if k <= 9:
        return math.fsum([math.log1p(i / y) for i in range(1, k + 1)])
    if y < 9.0:
        z = y + 9.0
        rising = (((y + 1.0) * (y + 2.0)) * ((y + 3.0) * (y + 4.0))
                  * (((y + 5.0) * (y + 6.0)) * ((y + 7.0) * (y + 8.0))))
        return (k * math.log1p(9.0 / y) + math.log(rising / z ** 8)
                + _log1p_sum(z, k - 9))
    k1 = k + 1.0
    u = k1 / y
    lu = math.log1p(u)
    if u < 0.5:
        r = u / (2.0 + u)
        z = r * r
        g = r * (1.0 + r * (1.0 + r) * (
            1/3 + z * (1/5 + z * (1/7 + z * (1/9 + z * (1/11 + z * (
                1/13 + z * (1/15 + z * (1/17 + z * (1/19 + z / 21))))))))))
    else:
        g = (1.0 + 1.0 / u) * lu - 1.0
    w, v = 1.0 / y, 1.0 / (y + k1)
    w2, v2 = w * w, v * v
    if y < 30.0:  # coefficients B_2j / (2j (2j - 1))
        sw = 1/12 + w2 * (-1/360 + w2 * (1/1260 + w2 * (-1/1680 + w2 * (
            1/1188 + w2 * (-691/360360 + w2 / 156)))))
        sv = 1/12 + v2 * (-1/360 + v2 * (1/1260 + v2 * (-1/1680 + v2 * (
            1/1188 + v2 * (-691/360360 + v2 / 156)))))
    else:
        sw = 1/12 + w2 * (-1/360 + w2 * (1/1260 - w2 / 1680))
        sv = 1/12 + v2 * (-1/360 + v2 * (1/1260 - v2 / 1680))
    return k1 * g - 0.5 * lu + (v * sv - w * sw)


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) for x > 0; absolute error below 1e-10.
    It is inf below about 1e-154, where psi'(x) ~ 1/x^2 overflows."""
    x = _float(x)
    if not (x > 0.0):
        raise DomainError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    y = x
    while y < _SHIFT:
        acc += 1.0 / y / y  # y * y would underflow to 0 first
        y += 1.0
    z = 1.0 / (y * y)
    series = _series(_TRIGAMMA_COEF, z)
    series *= 1.0 / y  # series terms are B_2k / y^{2k+1}
    return acc + 1.0 / y + 0.5 * z + series


def _trigamma_excess(alpha: float) -> float:
    """alpha trigamma(alpha) - 1 (about 1/(2 alpha)) for alpha > 0,
    summed from alpha = 9 as 1/(2 alpha) + sum_k B_2k alpha^-2k, where
    the direct difference would cancel."""
    if alpha < _SHIFT:
        return alpha * trigamma(alpha) - 1.0
    return 0.5 / alpha + _series(_TRIGAMMA_COEF, 1.0 / (alpha * alpha))


def _gamma_kl(x: float, x0: float) -> float:
    """KL(Gamma(x) || Gamma(x0)) = lgamma(x0) - lgamma(x) - (x0 - x) psi(x)
    for x, x0 > 0: the R(x, x0 - x) of ``kl_beta``, ``refdist.d_sigma``
    and ``refdist.d_mu``.  Its terms cancel where |x0 - x| << x.  It is
    0.0 where x0 == x, also where psi(x) is -inf."""
    if x0 == x:
        return 0.0
    return log_gamma(x0) - log_gamma(x) - (x0 - x) * digamma(x)


def kl_beta(alpha0: float, beta0: float, alpha: float, beta: float) -> float:
    """Directed logarithmic divergence of Be(alpha0, beta0) from Be(alpha, beta).

    This is the expectation, under Be(alpha, beta), of the log-ratio of
    the Be(alpha, beta) density over the Be(alpha0, beta0) density.
    Nonnegative, and zero iff the two parameter pairs coincide.  It is
    k(alpha, alpha0) + k(beta, beta0) - k(alpha + beta, alpha0 + beta0),
    with k the gamma divergence ``_gamma_kl``.  Each parameter must lie
    in (0, 1e300].  Where that sum is not finite (psi(x) ~ -1/x
    overflows, or (x0 - x) psi(x) does, at tiny alpha or beta), it is
    taken with psi(x) = psi(x + 1) - 1/x and the three 1/x parts
    gathered into one (``_kl_beta_split``); the value is inf only where
    those parts leave the float range.
    """
    for name, v in (("alpha0", alpha0), ("beta0", beta0),
                    ("alpha", alpha), ("beta", beta)):
        if not (0.0 < _float(v) <= _KL_MAX):
            raise DomainError(f"kl_beta requires 0 < {name} <= {_KL_MAX}, "
                              f"got {v}")
    kl = (_gamma_kl(alpha, alpha0) + _gamma_kl(beta, beta0)
          - _gamma_kl(alpha + beta, alpha0 + beta0))
    if math.isfinite(kl):
        return kl
    return _kl_beta_split(float(alpha0), float(beta0), float(alpha),
                          float(beta))


def _kl_beta_split(a0: float, b0: float, a: float, b: float) -> float:
    """``kl_beta`` with psi(x) = psi(x + 1) - 1/x in each gamma
    divergence.  The 1/x parts, (a0 - a)/a + (b0 - b)/b
    - (a0 + b0 - a - b)/(a + b), sum to

        a0 b / (a (a + b)) + b0 a / (b (a + b)) - 1,

    two positive terms, each x0/x times y/(a + b) <= 1, formed from logs
    where x0/x or the term leaves the normal range, so that neither
    overflows before the value does; the rest is three finite terms."""
    def regular(x, x0):
        return log_gamma(x0) - log_gamma(x) - (x0 - x) * digamma(x + 1.0)

    def part(x0, x, y):
        v = x0 / x * (y / s)
        if _TINY_FLOAT <= v <= _FLOAT_MAX:
            return v
        e = math.log(x0) - math.log(x) + math.log(y) - math.log(s)
        return _exp(e)

    s = a + b
    return (regular(a, a0) + regular(b, b0) - regular(s, a0 + b0)
            + part(a0, a, b) + part(b0, b, a) - 1.0)


def _exp(x: float) -> float:
    """exp(x), or inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_seed(seed):
    """Return a sampler's ``seed`` for ``np.random.default_rng`` if it is
    a non-negative integer; otherwise raise DomainError, where numpy
    would raise a bare ValueError or TypeError."""
    try:
        ok = operator.index(seed) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


_EPS = 2.0 ** -52


def _find_root(f, lo: float, hi: float, f_lo=None, f_hi=None):
    """A zero of f on [lo, hi] and the number of evaluations of f, by
    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic and secant steps, kept in
    the bracket by bisection, until it is at most 2 eps (2 |x| + 1)
    wide, full double precision for the x = log a of the package's
    solves.  ``f_lo`` and ``f_hi`` are f(lo) and f(hi) where the caller
    has them.  A non-finite value of f, or f of one strict sign at both
    ends, raises ``AccuracyError``."""
    a, b = float(lo), float(hi)
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    evals = (f_lo is None) + (f_hi is None)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise AccuracyError(f"non-finite value at an end of [{lo}, {hi}]")
    if fa == 0.0:
        return a, evals
    if (fa > 0.0) == (fb > 0.0) and fb != 0.0:
        raise AccuracyError(f"no sign change on [{lo}, {hi}]: "
                            f"f = {fa} and {fb}")
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if (fb > 0.0) == (fc > 0.0) and fb != 0.0:
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = _EPS * (2.0 * abs(b) + 1.0)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b, evals
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        evals += 1
        if not math.isfinite(fb):
            raise AccuracyError(f"non-finite value {fb} at {b}")
