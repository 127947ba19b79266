"""Special functions and closed-form partition-function / dephasing-rate formulas.

Contents:

* Normalized Hermite functions
  ``phi_l(x) = exp(-x^2/2) H_l(x) / sqrt(sqrt(pi) 2^l l!)`` by a three-term
  recurrence carried on ``phi`` directly, so the values stay O(1) and no
  overflow occurs up to degrees of a few thousand.
* Generalized Laguerre polynomials ``L_n^(alpha)`` in log-scaled form for
  ``x <= 0``, where every recurrence term is positive.
* The modified-Bessel ratio ``g(x) = I_2(x)/I_1(x)`` by a Gauss continued
  fraction (modified Lentz) for moderate arguments and by the large-argument
  asymptotic series beyond, so the ratio is available for arguments up to
  ``1e30`` where ``I_nu`` itself overflows by thousands of orders.
* The GUE-averaged partition function in its finite-dimension Laguerre form
  ``<Z(beta)> = exp(beta^2/4) L_{d-1}^(1)(-beta^2/2)`` and in its semicircle
  form ``sqrt(2 d) I_1(sqrt(2 d) beta) / beta``, both log-scaled.
* Energy-dephasing rates of a thermofield double over GUE Hamiltonians:
  the finite-d Laguerre-ratio formula and the semicircle Bessel-ratio
  formula ``8 gamma d [1 - 3 g(x)/x - g(x)^2]`` with ``x = sqrt(2 d) beta``,
  valid for dimensions as large as ``2**60``: beyond ``x = 50`` the bracket
  is one cancellation-free asymptotic series in ``1/x``.

Conventions: hbar = 1; the GUE weight is ``exp(-tr X^2)``, so the
semicircle support is ``[-sqrt(2 d), sqrt(2 d)]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

# Continued fraction / asymptotic-series crossover for I_2/I_1.
_G_CF_CUTOFF = 50.0
_G_CF_TOL = 1e-14
_LOG_SCALE_CAP = 1e250


def _hermite_functions(n: int, x):
    """Yield ``phi_0(x), ..., phi_{n-1}(x)`` for a float array ``x``; n >= 1."""
    phi_prev, phi = np.zeros_like(x), np.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield phi
    for m in range(n - 1):
        # phi_{m+1} = x sqrt(2/(m+1)) phi_m - sqrt(m/(m+1)) phi_{m-1}
        phi_prev, phi = phi, x * math.sqrt(2.0 / (m + 1)) * phi - math.sqrt(
            m / (m + 1)) * phi_prev
        yield phi


def hermite_phi(l: int, x):
    """Normalized Hermite function ``exp(-x^2/2) H_l(x) / sqrt(sqrt(pi) 2^l l!)``."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    for phi in _hermite_functions(l + 1, x):
        pass
    return phi if phi.ndim else float(phi)


# Bounded, so at most 64 rules (32 KB each at the 2048-node cap) stay alive.
@functools.lru_cache(maxsize=64)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights (weight ``exp(-x^2)``) by Golub-Welsch.

    Stable for any practical node count, unlike the power-basis route which
    overflows near 400 nodes.  The rule is cached per node count (one dense
    eigensolve each) and shared by every caller, so both arrays are
    read-only: writing to them raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("need at least one node")
    k = np.arange(1, n)
    jac = np.diag(np.sqrt(k / 2.0), 1)
    nodes, vecs = np.linalg.eigh(jac + jac.T)
    weights = math.sqrt(math.pi) * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def log_laguerre_l(n: int, alpha: float, x: float) -> float:
    """``log L_n^(alpha)(x)`` for ``x <= 0``.

    All recurrence terms are positive in this range, so the running pair is
    renormalized whenever it grows large and the result is exact to roundoff.
    """
    if x > 0:
        raise ValueError("log-scaled form requires x <= 0")
    if n < 0:
        raise ValueError("degree must be nonnegative for the log form")
    if n == 0:
        return 0.0
    prev, cur = 1.0, 1.0 + alpha - x
    shift = 0.0
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m - 1 + alpha - x) * cur - (m - 1 + alpha) * prev) / m
        if cur > _LOG_SCALE_CAP:
            prev /= cur
            shift += math.log(cur)
            cur = 1.0
    return math.log(cur) + shift


def _laguerre_ratio_chain(d: int, x: float) -> tuple[float, float, float]:
    """Jointly recurse ``L^(1)``, ``L^(2)``, ``L^(3)`` up to degrees d-1, d-2, d-3.

    One loop of O(d) scalar steps per ``x``: the three chains advance
    together up to degree d-3, then a two-step tail takes ``L^(2)`` and
    ``L^(1)`` to their degrees while the finished values stay frozen.
    Whenever the largest of the three current values exceeds the scale
    cap, every value is divided by it, so the returned ratios
    ``f12 = L_{d-2}^(2)/L_{d-1}^(1)`` and ``f13 = L_{d-3}^(3)/L_{d-1}^(1)``
    never pass through an overflowing intermediate.  Also returns
    ``log L_{d-1}^(1)(x)``.  Requires ``x <= 0``, where every term is
    positive.
    """
    if x > 0:
        raise ValueError("ratio chain requires x <= 0")
    cap = _LOG_SCALE_CAP
    p1 = p2 = p3 = 1.0                              # degree 0
    c1, c2, c3 = 2.0 - x, 3.0 - x, 4.0 - x          # degree 1
    shift = 0.0
    # The degree m counts in floats (exact), since float-only arithmetic is
    # what makes this loop fast.  Every value is positive, so comparing each
    # with the cap screens for the peak test.
    m = 1.0
    for _ in range(2, d - 2):
        m += 1.0
        k = m + m
        p1, c1 = c1, ((k - x) * c1 - m * p1) / m
        p2, c2 = c2, ((k + 1.0 - x) * c2 - (m + 1.0) * p2) / m
        p3, c3 = c3, ((k + 2.0 - x) * c3 - (m + 2.0) * p3) / m
        if c1 > cap or c2 > cap or c3 > cap:
            peak = max(abs(c1), abs(c2), abs(c3))
            if peak > cap:
                p1, c1, p2, c2, p3, c3 = (p1 / peak, c1 / peak, p2 / peak,
                                          c2 / peak, p3 / peak, c3 / peak)
                shift += math.log(peak)
    for n in range(max(2, d - 2), d):
        p1, c1 = c1, ((2 * n - x) * c1 - n * p1) / n
        if n == d - 2:
            p2, c2 = c2, ((2 * n + 1 - x) * c2 - (n + 1) * p2) / n
        peak = max(abs(c1), abs(c2), abs(c3))
        if peak > cap:
            p1, c1, p2, c2, p3, c3 = (p1 / peak, c1 / peak, p2 / peak,
                                      c2 / peak, p3 / peak, c3 / peak)
            shift += math.log(peak)
    # Below d = 4 a chain of target degree 0 ends on its L_0, one of
    # target degree -1 on zero.
    l1 = c1 if d > 1 else p1
    f2 = c2 if d > 2 else p2 if d == 2 else 0.0
    f3 = c3 if d > 3 else p3 if d == 3 else 0.0
    if l1 <= 0.0:
        raise NumericalError("Laguerre ratio chain lost positivity")
    return math.log(l1) + shift, f2 / l1, f3 / l1


def bessel_i_ratio_g(x: float) -> float:
    """Ratio ``g(x) = I_2(x)/I_1(x)`` of modified Bessel functions.

    Uses the Gauss continued fraction with modified Lentz iteration for
    ``x <= 50`` and the large-argument asymptotic series beyond; relative
    accuracy is better than 1e-12 across ``[1e-8, 1e30]``.  The ratio lies in
    (0, 1), behaves as ``x/4`` for small ``x`` and as ``1 - 3/(2x)`` for
    large ``x``.
    """
    if x <= 0:
        raise ValueError("argument must be positive")
    if x < 1e-6:
        # Series ratio; the next omitted term is O(x^5).  Also avoids the
        # continued fraction's 1/x overflow for subnormal arguments.
        return 0.25 * x * (1.0 - x * x / 24.0)
    if x <= _G_CF_CUTOFF:
        return _ratio_continued_fraction(x)
    return _i_asymptotic_series(2, x) / _i_asymptotic_series(1, x)


def _ratio_continued_fraction(x: float, nu: int = 1) -> float:
    # I_{nu+1}/I_nu = 1 / (2(nu+1)/x + 1 / (2(nu+2)/x + ...)), modified Lentz.
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for k in range(1, 40000):
        b = 2.0 * (nu + k) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _G_CF_TOL:
            return f
    raise NumericalError(f"Bessel ratio continued fraction stalled at x={x}")


def _i_asymptotic_series(nu: int, x: float) -> float:
    # Truncated asymptotic sum for I_nu(x) * sqrt(2 pi x) * exp(-x),
    # stopped at the smallest term (optimal truncation).
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = math.inf
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag < 1e-18:
            break
    return total


def _rate_bracket_coefficients(n_terms: int) -> tuple[float, ...]:
    """Coefficients ``c_k`` of ``1 - 3 g/x - g^2 ~ sum_k c_k x^-k`` for large x.

    Built from the asymptotic coefficients ``a_k`` of ``I_1`` and ``b_k`` of
    ``I_2`` (those of :func:`_i_asymptotic_series`): with ``A = sum a_k x^-k``
    and ``B = sum b_k x^-k`` the bracket is ``(A^2 - 3 A B/x - B^2) / A^2``.
    The ``x^0`` and ``x^-1`` coefficients of the numerator cancel exactly, so
    the series starts ``3/(2x^2) - 3/(4x^3) - 9/(8x^4)`` and evaluating it
    loses no digits, unlike the direct form.
    """
    def i_coefficients(nu):
        mu = 4.0 * nu * nu
        c = [1.0]
        for k in range(1, n_terms):
            c.append(c[-1] * -(mu - (2 * k - 1) ** 2) / (8.0 * k))
        return c

    def product(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n_terms)]

    a, b = i_coefficients(1), i_coefficients(2)
    aa, ab, bb = product(a, a), product(a, b), product(b, b)
    numerator = [aa[k] - bb[k] - (3.0 * ab[k - 1] if k else 0.0)
                 for k in range(n_terms)]
    out: list[float] = []
    for k in range(n_terms):          # series division by aa, with aa[0] = 1
        out.append(numerator[k] - sum(out[i] * aa[k - i] for i in range(k)))
    return tuple(out)


# Thirty terms cover x > 50 to full precision (at most 17 are used there).
_RATE_BRACKET = _rate_bracket_coefficients(30)


def _rate_bracket_series(x: float) -> float:
    # Optimally truncated sum of _RATE_BRACKET for x > _G_CF_CUTOFF.
    t = 1.0 / x
    power = t * t
    total = 0.0
    prev = math.inf
    for c in _RATE_BRACKET[2:]:
        term = c * power
        mag = abs(term)
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag < 1e-17 * abs(total):
            break
        power *= t
    return total


def log_bessel_i1(x: float) -> float:
    """``log I_1(x)`` via the power series (x < 30) or asymptotics (x >= 30)."""
    if x <= 0:
        raise ValueError("argument must be positive")
    if x < 30.0:
        t = 1.0
        s = 1.0
        q = 0.25 * x * x
        for k in range(1, 500):
            t *= q / (k * (k + 1))
            s += t
            if t < 1e-18 * s:
                break
        return math.log(0.5 * x) + math.log(s)
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(_i_asymptotic_series(1, x))


@dataclass(frozen=True)
class PartitionValue:
    """Log-scaled partition function value: ``log_value`` is ``ln Z``."""

    log_value: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def z_gue_exact(beta: float, d: int) -> PartitionValue:
    """GUE-averaged partition function, finite-d Laguerre closed form.

    ``<Z(beta)> = exp(beta^2/4) L_{d-1}^(1)(-beta^2/2)``; equals ``d`` at
    ``beta = 0``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return PartitionValue(beta * beta / 4.0 + log_laguerre_l(d - 1, 1, -beta * beta / 2.0))


def z_gue_semicircle(beta: float, d: float) -> PartitionValue:
    """GUE-averaged partition function in the semicircle (large-d) form.

    ``<Z(beta)> = sqrt(2 d) I_1(sqrt(2 d) beta) / beta``; the ``beta -> 0``
    limit is ``d``.  Accepts huge dimensions (e.g. ``2.0**50``) since only
    ``log I_1`` is evaluated.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    if beta == 0.0:
        return PartitionValue(math.log(d))
    x = math.sqrt(2.0 * d) * beta
    return PartitionValue(0.5 * math.log(2.0 * d) + log_bessel_i1(x) - math.log(beta))


def rate_tfd_gue_exact(beta: float, d: int, gamma: float) -> float:
    """Finite-d energy-dephasing rate of the thermofield double over GUE.

    Evaluates ``4 gamma d^2/dbeta^2 ln <Z(beta)>`` in closed form through the
    Laguerre ratios ``f12`` and ``f13`` at ``-beta^2/2``:

    ``2 gamma [1 + 2 f12 - 2 beta^2 f12^2 + 2 beta^2 f13]``.

    The ratios come from jointly renormalized upward recurrences, never from
    independently overflowing values.  At ``beta = 0`` this equals
    ``2 gamma d``; above ``beta = 1e25`` it is its limit ``2 gamma``, to
    which ``2 gamma [1 - 4 (d-1)/beta^2]`` rounds there.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if beta > 1e25:             # 4 (d-1)/beta^2 < 2^-53 for every d <= 2^60
        return 2.0 * gamma
    _, f12, f13 = _laguerre_ratio_chain(d, -beta * beta / 2.0)
    b2 = beta * beta
    return 2.0 * gamma * (1.0 + 2.0 * f12 - 2.0 * b2 * f12 * f12 + 2.0 * b2 * f13)


def rate_tfd_gue_semicircle(beta: float, d: float, gamma: float) -> float:
    """Semicircle energy-dephasing rate ``8 gamma d [1 - 3 g(x)/x - g(x)^2]``.

    Here ``x = sqrt(2 d) beta`` and ``g = I_2/I_1``.  ``d`` may be passed as a
    float as large as ``2.0**60``; ``beta = 0`` is handled by its limit
    ``2 gamma d``.  For ``x > 50`` the bracket comes from its own asymptotic
    series, since the direct form cancels to ``3/(2 x^2)``.  The high- and
    low-temperature limits are ``2 gamma d`` (``beta << beta_c``) and
    ``6 gamma / beta^2`` (``beta >> beta_c``), with ``beta_c = sqrt(3/d)``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    if beta == 0.0:
        return 2.0 * gamma * d
    x = math.sqrt(2.0 * d) * beta
    if x > 1e150:               # the bracket is 3/(2 x^2) to the last bit
        return 6.0 * gamma / beta / beta
    if x > _G_CF_CUTOFF:
        return 8.0 * gamma * d * _rate_bracket_series(x)
    g = bessel_i_ratio_g(x)
    return 8.0 * gamma * d * (1.0 - 3.0 * g / x - g * g)


def beta_crossover(d: float) -> float:
    """Crossover inverse temperature ``sqrt(3/d)`` between the rate regimes."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.sqrt(3.0 / d)
