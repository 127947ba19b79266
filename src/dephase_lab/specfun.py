"""Special functions and the closed-form rate formulas, in scalar ``math`` only,
so the closed-form CLI commands never load numpy.  Contents:

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
* The GUE-channel rates ``Gamma d^2/(d+1)`` and ``Gamma (d - 1/P0)`` (see
  ``rates``), the k-body bounds, their calibration and the crossover scan.
* :func:`_check_real`, the domain check of every scalar input in the
  package, and the ``2^10`` dimension cap of the sampling commands.

Conventions: hbar = 1; the GUE weight is ``exp(-tr X^2)``, so the
semicircle support is ``[-sqrt(2 d), sqrt(2 d)]``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exceptions import NumericalError

# Continued fraction / asymptotic-series crossover for I_2/I_1.
_G_CF_CUTOFF = 50.0
_G_CF_TOL = 1e-14
_LOG_SCALE_CAP = 1e250
# Largest log2(dimension) that the sampling commands and ensembles draw.
_SAMPLING_LOG2_CAP = 10


def _check_real(name: str, x: float, domain: str | None = "nonnegative") -> float:
    """``x``, refused with ``ValueError`` unless it is finite and lies in
    ``domain``: ``"nonnegative"`` (``x >= 0``), ``"positive"`` (``x > 0``) or
    ``None`` (any sign).  The one check of a scalar input, in every layer."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    if domain is not None and (x <= 0 if domain == "positive" else x < 0):
        raise ValueError(f"{name} must be {domain}")
    return x


def _check_dim(d: float) -> None:
    if _check_real("dimension", d, None) < 1:
        raise ValueError("dimension must be >= 1")


def log_laguerre_l(n: int, alpha: float, x: float) -> float:
    """``log L_n^(alpha)(x)`` for ``x <= 0``.

    All recurrence terms are positive in this range, so the running pair is
    renormalized before a step, which multiplies by up to ``2n - 1 + alpha - x``,
    could overflow; the result is exact to roundoff.  A non-finite ``x``
    raises ``NumericalError``.
    """
    if x > 0:
        raise ValueError("log-scaled form requires x <= 0")
    if not math.isfinite(x):
        raise NumericalError(f"log_laguerre_l needs a finite x, got {x}")
    _check_real("degree", n)
    if n == 0:
        return 0.0
    cap = min(_LOG_SCALE_CAP, 1e300 / (2 * n + alpha - x))
    prev, cur = 1.0, 1.0 + alpha - x
    shift = 0.0
    for m in range(2, n + 1):
        if cur > cap:
            prev /= cur
            shift += math.log(cur)
            cur = 1.0
        prev, cur = cur, ((2 * m - 1 + alpha - x) * cur - (m - 1 + alpha) * prev) / m
    return math.log(cur) + shift


def _laguerre_ratio_chain(d: int, x: float) -> tuple[float, float]:
    """Jointly recurse ``L^(1)``, ``L^(2)``, ``L^(3)`` up to degrees d-1, d-2, d-3.

    One loop of O(d) scalar steps per ``x``: the three chains advance
    together up to degree d-3, then a two-step tail takes ``L^(2)`` and
    ``L^(1)`` to their degrees while the finished values stay frozen.
    Whenever the largest of the three current values exceeds the scale
    cap, every value is divided by it, so the returned ratios
    ``f12 = L_{d-2}^(2)/L_{d-1}^(1)`` and ``f13 = L_{d-3}^(3)/L_{d-1}^(1)``
    never pass through an overflowing intermediate.  Requires a finite
    ``x <= 0``, where every term is positive.  A step grows a value less
    than ``2d + 4 - x``-fold, so the cap (``_LOG_SCALE_CAP`` up to
    ``|x| = 5e49``) leaves that much headroom.
    """
    if x > 0:
        raise ValueError("ratio chain requires x <= 0")
    if not math.isfinite(x):
        raise NumericalError(f"Laguerre ratio chain needs a finite x, got {x}")
    cap = min(_LOG_SCALE_CAP, 1e300 / (2 * d + 4 - x))
    p1 = p2 = p3 = 1.0                              # degree 0
    c1, c2, c3 = 2.0 - x, 3.0 - x, 4.0 - x          # degree 1, c3 the largest
    if c3 > cap:
        p1 = p2 = p3 = 1.0 / c3
        c1, c2, c3 = c1 / c3, c2 / c3, 1.0
    # The degree m counts in floats (exact), since float-only arithmetic is
    # what makes this loop fast.  Every value is positive, so one exceeding
    # the cap makes the peak exceed it.
    m = 1.0
    for _ in range(2, d - 2):
        m += 1.0
        k = m + m
        p1, c1 = c1, ((k - x) * c1 - m * p1) / m
        p2, c2 = c2, ((k + 1.0 - x) * c2 - (m + 1.0) * p2) / m
        p3, c3 = c3, ((k + 2.0 - x) * c3 - (m + 2.0) * p3) / m
        if c1 > cap or c2 > cap or c3 > cap:
            peak = max(c1, c2, c3)
            p1, c1, p2, c2, p3, c3 = (p1 / peak, c1 / peak, p2 / peak,
                                      c2 / peak, p3 / peak, c3 / peak)
    for n in range(max(2, d - 2), d):
        p1, c1 = c1, ((2 * n - x) * c1 - n * p1) / n
        if n == d - 2:
            p2, c2 = c2, ((2 * n + 1 - x) * c2 - (n + 1) * p2) / n
        peak = max(abs(c1), abs(c2), abs(c3))
        if peak > cap:
            p1, c1, p2, c2, p3, c3 = (p1 / peak, c1 / peak, p2 / peak,
                                      c2 / peak, p3 / peak, c3 / peak)
    # Below d = 4 a chain of target degree 0 ends on its L_0, one of
    # target degree -1 on zero.
    l1 = c1 if d > 1 else p1
    f2 = c2 if d > 2 else p2 if d == 2 else 0.0
    f3 = c3 if d > 3 else p3 if d == 3 else 0.0
    if l1 <= 0.0:
        raise NumericalError("Laguerre ratio chain lost positivity")
    return f2 / l1, f3 / l1


def bessel_i_ratio_g(x: float) -> float:
    """Ratio ``g(x) = I_2(x)/I_1(x)`` of modified Bessel functions.

    Uses the Gauss continued fraction with modified Lentz iteration for
    ``x <= 50`` and the large-argument asymptotic series beyond; relative
    accuracy is better than 1e-12 across ``[1e-8, 1e30]``.  The ratio lies in
    (0, 1), behaves as ``x/4`` for small ``x`` and as ``1 - 3/(2x)`` for
    large ``x``.
    """
    _check_real("argument", x, "positive")
    if x < 1e-6:
        # Series ratio; the next omitted term is O(x^5).  Also avoids the
        # continued fraction's 1/x overflow for subnormal arguments.
        return 0.25 * x * (1.0 - x * x / 24.0)
    if x <= _G_CF_CUTOFF:
        return _ratio_continued_fraction(x)
    return _optimal_sum(_HANKEL[2], 1 / x, 1.0) / _optimal_sum(_HANKEL[1], 1 / x, 1.0)


def _ratio_continued_fraction(x: float) -> float:
    # I_2/I_1 = 1 / (4/x + 1 / (6/x + ...)), modified Lentz.
    tiny = 1e-300
    f = c = tiny
    d = 0.0
    for k in range(1, 40000):
        b = 2.0 * (1 + k) / x
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


def _hankel_coefficients(nu: int, n_terms: int) -> list[float]:
    """Coefficients ``a_k`` of the large-x series
    ``I_nu(x) sqrt(2 pi x) exp(-x) ~ sum_k a_k x^-k``."""
    mu = 4.0 * nu * nu
    c = [1.0]
    for k in range(1, n_terms):
        c.append(c[-1] * -(mu - (2 * k - 1) ** 2) / (8.0 * k))
    return c


def _optimal_sum(coeffs, t: float, power: float) -> float:
    """``sum_k coeffs[k] power t^k`` of an asymptotic series, stopped before
    its terms grow (optimal truncation) or once they stop counting."""
    total = 0.0
    prev = math.inf
    for c in coeffs:
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


# I_nu(x) sqrt(2 pi x) exp(-x) at x >= 30 is _optimal_sum(_HANKEL[nu], 1/x, 1),
# to full precision in at most 18 terms.
_HANKEL = {nu: _hankel_coefficients(nu, 30) for nu in (1, 2)}


def _rate_bracket_coefficients(n_terms: int) -> tuple[float, ...]:
    """Coefficients ``c_k`` of ``1 - 3 g/x - g^2 ~ sum_k c_k x^-k`` for large x.

    Built from the coefficients ``a_k`` of ``I_1`` and ``b_k`` of ``I_2``
    (:func:`_hankel_coefficients`): with ``A = sum a_k x^-k`` and
    ``B = sum b_k x^-k`` the bracket is ``(A^2 - 3 A B/x - B^2) / A^2``.
    The ``x^0`` and ``x^-1`` coefficients of the numerator cancel exactly, so
    the series starts ``3/(2x^2) - 3/(4x^3) - 9/(8x^4)`` and evaluating it
    loses no digits, unlike the direct form.
    """
    def product(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n_terms)]

    a, b = _hankel_coefficients(1, n_terms), _hankel_coefficients(2, n_terms)
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
    return _optimal_sum(_RATE_BRACKET[2:], t, t * t)


def log_bessel_i1(x: float) -> float:
    """``log I_1(x)`` via the power series (x < 30) or asymptotics (x >= 30)."""
    _check_real("argument", x, "positive")
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
    return (x - 0.5 * math.log(2.0 * math.pi * x)
            + math.log(_optimal_sum(_HANKEL[1], 1 / x, 1.0)))


def z_gue_exact(beta: float, d: int) -> float:
    """``ln <Z(beta)>`` of the GUE average in its finite-d Laguerre form.

    ``<Z(beta)> = exp(beta^2/4) L_{d-1}^(1)(-beta^2/2)``; equals ``d`` at
    ``beta = 0``.
    """
    _check_dim(d)
    return beta * beta / 4.0 + log_laguerre_l(d - 1, 1, -beta * beta / 2.0)


def z_gue_semicircle(beta: float, d: float) -> float:
    """``ln <Z(beta)>`` of the GUE average in its semicircle (large-d) form.

    ``<Z(beta)> = sqrt(2 d) I_1(sqrt(2 d) beta) / beta``; the ``beta -> 0``
    limit is ``d``.  Accepts huge dimensions (e.g. ``2.0**50``) since only
    ``log I_1`` is evaluated.
    """
    _check_dim(d)
    _check_real("inverse temperature", beta)
    if beta == 0.0:
        return math.log(d)
    x = math.sqrt(2.0 * d) * beta
    return 0.5 * math.log(2.0 * d) + log_bessel_i1(x) - math.log(beta)


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
    _check_dim(d)
    _check_real("inverse temperature", beta)
    _check_real("gamma", gamma, "positive")
    if beta > 1e25:             # 4 (d-1)/beta^2 < 2^-53 for every d <= 2^60
        return 2.0 * gamma
    f12, f13 = _laguerre_ratio_chain(d, -beta * beta / 2.0)
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
    _check_dim(d)
    _check_real("inverse temperature", beta)
    _check_real("gamma", gamma)
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
    _check_dim(d)
    return math.sqrt(3.0 / d)


class KBodySpec(namedtuple("KBodySpec", "n k epsilon", defaults=(1.0,))):
    """All-to-all k-body sigma^z-string operator on n qubits, amplitude epsilon.

    An immutable tuple ``(n, k, epsilon)``: a namedtuple rather than a
    dataclass, since importing ``dataclasses`` would load ``inspect`` and
    ``ast`` into every closed-form command.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, epsilon: float = 1.0):
        if not 1 <= k <= n:
            raise ValueError("locality k must satisfy 1 <= k <= n")
        _check_real("epsilon", epsilon, "positive")
        return super().__new__(cls, n, k, epsilon)

    @property
    def norm(self) -> float:
        """Spectral norm epsilon * C(n, k) (attained on the all-up state)."""
        return self.epsilon * math.comb(self.n, self.k)


def rate_gue_haar(d: int, total_gamma: float) -> float:
    """Closed form ``Gamma d^2/(d+1)`` for a fixed pure state (vanishing
    ``<(tr V)^2>`` variant).  Where ``Gamma d^2`` overflows (``d = 2^512`` at
    ``Gamma = 1``, or ``d = 2`` near the largest double) it is
    ``Gamma (d / (1 + 1/d))``, finite wherever the rate is."""
    _check_dim(d)
    _check_real("gamma", total_gamma)
    rate = total_gamma * d * d / (d + 1.0)
    return total_gamma * (d / (1.0 + 1.0 / d)) if math.isinf(rate) else rate


def rate_gue_wick(d: int, total_gamma: float, purity0: float = 1.0) -> float:
    """Closed form ``Gamma (d - 1/P0)`` from entrywise Wick contractions
    (``<(tr V)^2> = d/2`` variant); ``P0`` is the initial purity."""
    _check_dim(d)
    _check_real("gamma", total_gamma)
    if not 0 < purity0 <= 1 + 1e-12:
        raise ValueError("purity must lie in (0, 1]")
    return total_gamma * (d - 1.0 / purity0)


def rate_kbody_bound(spec: KBodySpec, gamma: float, mode: str = "approx") -> float:
    """State-independent upper bound on the k-body decoherence rate.

    ``approx`` uses ``2 gamma eps^2 n^(2k)/(k!)^2`` (large-n form of the
    squared-norm bound); ``exact-binomial`` uses ``2 gamma eps^2 C(n,k)^2``.
    Both assume unit-norm string factors.
    """
    _check_real("gamma", gamma)
    if mode == "approx":
        try:
            rate = 2.0 * gamma * spec.epsilon ** 2 * float(spec.n) ** (2 * spec.k) \
                / math.factorial(spec.k) ** 2
        except OverflowError:   # n^(2k) or (k!)^2 past a double raises, not inf
            rate = math.inf
        if math.isinf(rate):    # n^(2k) overflowed: n^k/k! as a product of n/j >= 1
            ratio = math.prod(spec.n / j for j in range(1, spec.k + 1))
            rate = _two_gamma_times(gamma, spec.epsilon ** 2, ratio, ratio)
        return rate
    if mode == "exact-binomial":
        return _two_gamma_times(gamma, spec.epsilon ** 2, math.comb(spec.n, spec.k) ** 2)
    raise ValueError(f"unknown mode {mode!r}")


def _two_gamma_times(gamma: float, *factors) -> float:
    """``2 gamma`` times ``factors``, left to right.  Where that overflows,
    ``gamma`` goes last instead: ``2 gamma`` alone passes the largest double
    for ``gamma`` above about 9e307, where the product need not."""
    rate = math.prod((2.0, gamma, *factors))
    return math.prod((2.0, *factors, gamma)) if math.isinf(rate) else rate


def calibrate_epsilon(n0: int, k: int, gamma: float, mode: str = "exact-binomial"
                      ) -> float:
    """Squared amplitude matching the GUE rate and the k-body bound at ``n0``.

    Solves ``rate_gue_haar(2^n0) = rate_kbody_bound(n0, k, eps)`` for
    ``eps^2``; the channel rate cancels.  The reference calibration
    ``n0 = 1, k = 1`` gives ``eps^2 = 2/3`` in either mode.  Where ``gamma``
    overflows the unit bound, both rates are taken at unit ``gamma``.
    """
    if n0 < k:
        raise ValueError("n0 must be at least k")
    target = rate_gue_haar(2 ** n0, gamma)
    unit = rate_kbody_bound(KBodySpec(n0, k, 1.0), gamma, mode)
    if math.isinf(unit):
        target = rate_gue_haar(2 ** n0, 1.0)
        unit = rate_kbody_bound(KBodySpec(n0, k, 1.0), 1.0, mode)
    return target / unit


def crossover_min_n(k: int, epsilon_sq: float, mode: str = "approx",
                    n_cap: int = 64) -> int | None:
    """Smallest n past which the GUE rate exceeds the k-body bound for good.

    The exponential ``Gamma d^2/(d+1)`` with ``d = 2^n`` overtakes the
    polynomial bound permanently; this returns the first n of that final
    regime.  Exact equality counts as not crossed, so the calibration point
    itself never qualifies, and an isolated crossing at ``n = k`` (where the
    binomial bound is trivially small) is ignored.  Returns ``None`` when no
    permanent crossover exists below ``n_cap``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_real("epsilon_sq", epsilon_sq, "positive")
    eps = math.sqrt(epsilon_sq)
    first, crossed = k, False
    for n in range(k, n_cap + 1):
        bound = rate_kbody_bound(KBodySpec(n, k, eps), 1.0, mode)
        crossed = rate_gue_haar(2 ** n, 1.0) > bound
        if not crossed:
            first = n + 1
    return first if crossed else None
