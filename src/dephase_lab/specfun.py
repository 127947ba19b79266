"""Special functions and the closed-form rate formulas, in scalar ``math`` only,
so the closed-form CLI commands never load numpy.  Contents:

* Generalized Laguerre polynomials ``L_n^(alpha)`` for ``x <= 0``, where
  every recurrence term is positive, from one renormalized upward
  recurrence: it returns ``log L_n^(alpha)`` and, from two running sums of
  its terms, the ratios of ``L_{n-1}^(alpha+1)`` and ``L_{n-2}^(alpha+2)``
  to ``L_n^(alpha)`` that the finite-d rate reads.
* Modified Bessel functions ``I_1`` and ``I_2`` for every semicircle form,
  from one loop of three positive power series (DLMF 10.25.2) up to
  ``x = 50`` and, beyond, from one exact integer recurrence for the
  large-argument series of ``y = I_1'/I_1`` (Bessel's equation as a Riccati
  equation): the ratio ``g(x) = I_2(x)/I_1(x) = y - 1/x`` (for arguments up
  to ``1e30``, where ``I_nu`` itself overflows by thousands of orders) and
  ``log I_1``, whose derivative is ``y``.
* The GUE-averaged partition function in its finite-dimension Laguerre form
  ``<Z(beta)> = exp(beta^2/4) L_{d-1}^(1)(-beta^2/2)`` and in its semicircle
  form ``sqrt(2 d) I_1(sqrt(2 d) beta) / beta``, both log-scaled.
* Energy-dephasing rates of a thermofield double over GUE Hamiltonians:
  the finite-d Laguerre-ratio formula and the semicircle Bessel-ratio
  formula ``8 gamma d [1 - 3 g(x)/x - g(x)^2]`` with ``x = sqrt(2 d) beta``,
  finite wherever ``2 gamma d`` (``x <= 50``) or ``6 gamma/beta^2``
  (``x > 50``) is: the bracket is one cancellation-free series on each side
  of ``x = 50``, a power series below and an asymptotic series in ``1/x``
  above.
* The GUE-channel rates ``Gamma d^2/(d+1)`` and ``Gamma (d - 1/P0)`` (see
  ``rates``); the k-body bounds, calibration and crossover, in integers.
* :func:`_check_real` and :func:`_check_int`, the domain checks of every
  scalar input and every count in the package, and the ``2^10`` dimension
  cap of the sampling commands.

Conventions: hbar = 1; the GUE weight is ``exp(-tr X^2)``, so the
semicircle support is ``[-sqrt(2 d), sqrt(2 d)]``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .exceptions import NumericalError

# Crossover of every semicircle form from the power series in x^2/4 to the
# large-x series in 1/x read from the one recurrence of I_1'/I_1.
_SERIES_CUTOFF = 50.0
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


def _check_int(name: str, n: int, lo: int, hi: int | None = None) -> int:
    """``n`` as an ``int``, refused with ``ValueError`` unless it is an
    integer (a Python or numpy one; not a ``bool``, not an integral float)
    in ``[lo, hi]``.  The one check of a count, in every layer."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"{name} must be an integer")
    n = operator.index(n)
    if n < lo:
        raise ValueError(f"{name} must be at least {lo}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} must be at most {hi}")
    return n


def _check_dim(d: float) -> None:
    if _check_real("dimension", d, None) < 1:
        raise ValueError("dimension must be at least 1")


def _laguerre_sums(n: int, alpha: float, x: float) -> tuple[float, float, float]:
    """``log L_n^(alpha)(x)``, ``L_{n-1}^(alpha+1)(x) / L_n^(alpha)(x)`` and
    ``L_{n-2}^(alpha+2)(x) / L_n^(alpha)(x)`` for ``x <= 0`` and ``alpha > -1``,
    where every term is positive.  A non-finite ``x`` raises
    ``NumericalError``.

    One upward recurrence of ``L_m^(alpha)`` also keeps two running sums:
    ``s1``, the sum of the terms below degree ``m``, is
    ``L_{m-1}^(alpha+1)``, and ``s2``, the sum of the earlier ``s1``, is
    ``L_{m-2}^(alpha+2)`` (DLMF 18.18's convolution formula at ``y = 0``).
    A step multiplies by less than ``2n + 1 + alpha - x``, so before a step
    from above the cap that leaves this headroom, the pair and both sums are
    divided by the current value.
    """
    if x > 0:
        raise ValueError("Laguerre recurrence requires x <= 0")
    if not math.isfinite(x):
        raise NumericalError(f"Laguerre recurrence needs a finite x, got {x}")
    cap = min(_LOG_SCALE_CAP, 1e300 / (2 * n + 1 + alpha - x))
    prev, cur, s1, s2 = 0.0, 1.0, 0.0, 0.0          # L_{-1}, L_0, two empty sums
    shift = 0.0
    # The degree m counts in floats (exact), since float-only arithmetic is
    # what makes this loop fast.
    m = 0.0
    for _ in range(n):
        m += 1.0
        s2 += s1
        s1 += cur
        if cur > cap:
            prev /= cur
            s1 /= cur
            s2 /= cur
            shift += math.log(cur)
            cur = 1.0
        prev, cur = cur, ((2.0 * m - 1.0 + alpha - x) * cur - (m - 1.0 + alpha) * prev) / m
    return math.log(cur) + shift, s1 / cur, s2 / cur


def log_laguerre_l(n: int, alpha: float, x: float) -> float:
    """``log L_n^(alpha)(x)`` for ``x <= 0`` and ``alpha > -1``, exact to
    roundoff at any degree (:func:`_laguerre_sums`)."""
    _check_real("alpha + 1", alpha + 1.0, "positive")
    return _laguerre_sums(_check_int("degree", n, 0), alpha, x)[0]


def _laguerre_ratio_chain(d: int, x: float) -> tuple[float, float]:
    """``f12 = L_{d-2}^(2)/L_{d-1}^(1)`` and ``f13 = L_{d-3}^(3)/L_{d-1}^(1)``
    at ``x <= 0``, from the running sums of one ``L^(1)`` recurrence."""
    return _laguerre_sums(d - 1, 1.0, x)[1:]


def _bessel_sums(x: float) -> tuple[float, float, float]:
    """``a - 1``, ``b`` and ``c`` of three positive power series in
    ``q = x^2/4`` (DLMF 10.25.2), for ``0 <= x <= 50``:
    ``a = sum q^k/(k! (k+1)!)``, so ``I_1(x) = (x/2) a``;
    ``b = sum q^k/(k! (k+2)!)``, whose terms are ``a``'s over ``k + 2``, so
    ``I_2(x) = (x/2)^2 b``; and ``c = a^2 - (3/2) a b - q b^2``, the
    numerator of the rate bracket ``1 - 3 g/x - g^2 = c/a^2``, summed from its
    own coefficients ``c_0 = 1/4``, ``c_k = c_{k-1} 2 (2k+1)/(k (k+2) (k+3))``
    (the Cauchy product of the first two), so nothing cancels.  ``a - 1``
    keeps the digits of ``log a = log1p(a - 1)`` at small ``x``.  The terms
    of ``c`` shrink last, so the loop stops once they no longer count.
    """
    q = 0.25 * x * x
    ta, tc = 1.0, 0.25
    a, b, c = 0.0, 0.5, tc
    k = 0.0
    while tc > 1e-17 * c:
        k += 1.0
        ta *= q / (k * (k + 1.0))
        tc *= (4.0 * k + 2.0) * q / (k * (k + 2.0) * (k + 3.0))
        a += ta
        b += ta / (k + 2.0)
        c += tc
    return a, b, c


def _riccati_coefficients(n_terms: int) -> list[int]:
    """``Y_k = 4^k y_k``, exact integers, of the large-x series
    ``y = I_1'/I_1 ~ sum_k y_k x^-k``: Bessel's equation (DLMF 10.25.1) makes
    ``y`` solve ``y' = 1 + 1/x^2 - y/x - y^2``, so ``y_0 = 1``, ``y_1 = -1/2``
    and ``2 y_k = (k-2) y_{k-1} - sum_{0<i<k} y_i y_{k-i} + [k = 2]`` for
    ``k >= 2``.  Scaled by ``4^k`` it only halves an even sum, so each float
    coefficient read from it is one correctly rounded integer quotient."""
    y = [1, -2]
    for k in range(2, n_terms):
        s = sum(y[i] * y[k - i] for i in range(1, k))
        y.append(2 * (k - 2) * y[-1] - s // 2 + (8 if k == 2 else 0))
    return y


def _optimal_sum(coeffs, t: float, power: float) -> float:
    """``sum_k coeffs[k] power t^k`` of an asymptotic series, stopped before
    its terms grow (optimal truncation) or once they stop counting.  The
    first coefficient must be nonzero: a leading 0 ends the sum at once."""
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


# Each semicircle form at x > 50 sums one series in 1/x read from the one
# sequence y_k = _Y[k] / 4^k, to full precision in at most 16 terms.
_Y = _riccati_coefficients(24)
# g - 1 = y - 1 - 1/x from x^-1 (DLMF 10.29.2: I_2 = I_1' - I_1/x); the 1 is
# added last, so g is within a few hundredths of an ulp of correctly rounded.
_G_SERIES = (-1.5,) + tuple(_Y[k] / 4 ** k for k in range(2, len(_Y)))
# log(I_1 sqrt(2 pi x) e^-x) = sum_{k>=1} -y_{k+1}/k x^-k from x^-1, the
# integral of y - 1 + 1/(2x) from infinity.
_LOG_I1_SERIES = tuple(-_Y[k + 1] / (k * 4 ** (k + 1)) for k in range(1, len(_Y) - 1))
# The rate bracket 1 - 3g/x - g^2 = y' + 1/x^2
# = 3/(2x^2) - sum_{k>=2} k y_k x^-(k+1) over its leading term 3/(2x^2):
# a series in 1/x from 1, in which nothing cancels.
_RATE_SERIES = (1.0,) + tuple(-2 * k * _Y[k] / (3 * 4 ** k) for k in range(2, len(_Y)))


def bessel_i_ratio_g(x: float) -> float:
    """Ratio ``g(x) = I_2(x)/I_1(x)`` of modified Bessel functions.

    ``(x/2) b/a`` from the power series of :func:`_bessel_sums` for
    ``x <= 50`` and ``y - 1/x`` beyond, with ``y = I_1'/I_1`` from
    :func:`_riccati_coefficients`; within 1e-15 relative of 60-digit mpmath
    across ``[1e-300, 1e30]`` (4.1e-16 at worst on a log grid).  The
    ratio lies in (0, 1), behaves as ``x/4`` for small ``x`` and as
    ``1 - 3/(2x)`` for large ``x``.
    """
    _check_real("argument", x, "positive")
    if x <= _SERIES_CUTOFF:
        a1, b, _ = _bessel_sums(x)
        return 0.5 * x * b / (1.0 + a1)
    return 1.0 + _optimal_sum(_G_SERIES, 1 / x, 1 / x)


def log_bessel_i1(x: float) -> float:
    """``log I_1(x)``: ``log x - log 2 + log a`` from the power series of
    :func:`_bessel_sums` for ``x <= 50`` (finite down to the smallest
    subnormal ``x``), and beyond ``x - (log 2 pi + log x)/2`` (finite up to
    the largest double) plus the series of ``log(I_1 sqrt(2 pi x) e^-x)``."""
    _check_real("argument", x, "positive")
    if x <= _SERIES_CUTOFF:
        return math.log(x) - math.log(2.0) + math.log1p(_bessel_sums(x)[0])
    return (x - 0.5 * (math.log(2.0 * math.pi) + math.log(x))
            + _optimal_sum(_LOG_I1_SERIES, 1 / x, 1 / x))


def z_gue_exact(beta: float, d: int) -> float:
    """``ln <Z(beta)>`` of the GUE average in its finite-d Laguerre form.

    ``<Z(beta)> = exp(beta^2/4) L_{d-1}^(1)(-beta^2/2)``; equals ``d`` at
    ``beta = 0``.
    """
    _check_int("dimension", d, 1)
    _check_real("inverse temperature", beta)
    return beta * beta / 4.0 + log_laguerre_l(d - 1, 1, -beta * beta / 2.0)


def _semicircle_x(beta: float, d: float) -> float:
    """``x = sqrt(2 d) beta`` of a checked ``beta >= 0`` and ``d >= 1``,
    written ``2 sqrt(d/2) beta`` (the same bits) so that it stays finite, and
    0 at ``beta = 0``, for every finite ``d``: ``2 d`` overflows from
    ``2^1023``."""
    _check_dim(d)
    _check_real("inverse temperature", beta)
    return 2.0 * math.sqrt(0.5 * d) * beta


def z_gue_semicircle(beta: float, d: float) -> float:
    """``ln <Z(beta)>`` of the GUE average in its semicircle (large-d) form.

    ``<Z(beta)> = sqrt(2 d) I_1(x) / beta`` with ``x = sqrt(2 d) beta``, which
    is ``d a`` in the power series of :func:`_bessel_sums` (``x <= 50``, so
    ``beta = 0`` gives ``log d``) and ``log x - 2 log beta + log I_1(x)``
    beyond.  Every finite dimension is accepted, up to ``2.0**1023``: only
    logarithms of finite factors are taken.
    """
    x = _semicircle_x(beta, d)
    if x <= _SERIES_CUTOFF:
        return math.log(d) + math.log1p(_bessel_sums(x)[0])
    return math.log(x) - 2.0 * math.log(beta) + log_bessel_i1(x)


def rate_tfd_gue_exact(beta: float, d: int, gamma: float) -> float:
    """Finite-d energy-dephasing rate of the thermofield double over GUE.

    Evaluates ``4 gamma d^2/dbeta^2 ln <Z(beta)>`` in closed form through the
    Laguerre ratios ``f12`` and ``f13`` at ``-beta^2/2``:

    ``2 gamma [1 + 2 f12 - 2 beta^2 f12^2 + 2 beta^2 f13]``.

    Both ratios come from the running sums of one renormalized ``L^(1)``
    recurrence, never from independently overflowing values.  Against
    60-digit mpmath the relative error is at most 1.8e-11 up to ``d = 2^10``
    and 2.4e-9 at ``d = 2^14`` (measured at beta from 1e-3 to 3).  At
    ``beta = 0`` this equals
    ``2 gamma d``; above ``beta = 1e25`` it is its limit ``2 gamma``, to
    which ``2 gamma [1 - 4 (d-1)/beta^2]`` rounds there.
    """
    d = _check_int("dimension", d, 1)
    _check_real("inverse temperature", beta)
    _check_real("gamma", gamma, "positive")
    if beta > 1e25:             # 4 (d-1)/beta^2 < 2^-53 for every d <= 2^60
        return 2.0 * gamma
    f12, f13 = _laguerre_ratio_chain(d, -beta * beta / 2.0)
    b2 = beta * beta
    return 2.0 * gamma * (1.0 + 2.0 * f12 - 2.0 * b2 * f12 * f12 + 2.0 * b2 * f13)


def rate_tfd_gue_semicircle(beta: float, d: float, gamma: float) -> float:
    """Semicircle energy-dephasing rate ``8 gamma d [1 - 3 g(x)/x - g(x)^2]``.

    Here ``x = sqrt(2 d) beta`` and ``g = I_2/I_1``; ``d`` may be any finite
    float.  The direct form cancels (to ``3/(2 x^2)`` at large ``x``), so the
    bracket never comes from ``g``: for ``x <= 50`` it is ``c/a^2`` of
    :func:`_bessel_sums` and the rate ``2 gamma d (4 c/a^2)``, exactly
    ``2 gamma d`` at ``beta = 0`` and finite wherever that is; beyond, it is
    ``y' + 1/x^2`` with ``y = I_1'/I_1`` (:func:`_riccati_coefficients`), an
    asymptotic series in ``1/x`` taken over its leading term, so the rate
    is ``6 gamma/beta^2`` times a series that starts at 1, finite wherever
    ``6 gamma/beta^2`` is (``8 gamma d`` is never formed).  Within 1e-14
    relative of 60-digit mpmath from ``d = 2`` to ``2^60`` and at
    ``2^1022``.  The high- and low-temperature limits are ``2 gamma d``
    (``beta << beta_c``) and ``6 gamma / beta^2`` (``beta >> beta_c``), with
    ``beta_c = sqrt(3/d)``.
    """
    x = _semicircle_x(beta, d)
    _check_real("gamma", gamma, "positive")
    if x <= _SERIES_CUTOFF:
        a1, _, c = _bessel_sums(x)
        return 2.0 * gamma * d * (4.0 * c / (1.0 + a1) ** 2)
    return 6.0 * gamma / beta / beta * _optimal_sum(_RATE_SERIES, 1 / x, 1.0)


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
        n = _check_int("qubit count n", n, 1)
        k = _check_int("locality k", k, 1, n)
        _check_real("epsilon", epsilon, "positive")
        return super().__new__(cls, n, k, epsilon)

    @property
    def norm(self) -> float:
        """Spectral norm epsilon * C(n, k) (attained on the all-up state)."""
        return _rounded(math.comb(self.n, self.k), 1, self.epsilon)


def _kbody_square(n: int, k: int, mode: str) -> tuple[int, int]:
    """Exact ``(num, den)`` of ``n^(2k)/(k!)^2`` or ``C(n, k)^2``, by ``mode``."""
    if mode == "approx":
        return n ** (2 * k), math.factorial(k) ** 2
    if mode == "exact-binomial":
        return math.comb(n, k) ** 2, 1
    raise ValueError(f"unknown mode {mode!r}")


def _rounded(num: int, den: int, *factors: float) -> float:
    """``num/den`` times the exact ratios of ``factors``' doubles, rounded once
    by Python's ``int / int``; ``inf`` past the largest double."""
    for p, q in (float(x).as_integer_ratio() for x in factors):
        num, den = num * p, den * q
    try:
        return num / den
    except OverflowError:
        return math.inf


def rate_gue_haar(d: int, total_gamma: float) -> float:
    """Closed form ``Gamma d^2/(d+1)`` for a fixed pure state (vanishing
    ``<(tr V)^2>`` variant): ``Gamma p^2/(q (p + q))`` for ``d = p/q``,
    rounded once (:func:`_rounded`), so finite wherever the rate is."""
    _check_dim(d)
    _check_real("gamma", total_gamma)
    p, q = float(d).as_integer_ratio()
    return _rounded(p * p, q * (p + q), total_gamma)


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
    Both assume unit-norm string factors.  Rounded once (:func:`_rounded`),
    so correct at every ``gamma`` and ``eps``, subnormal ones included.
    """
    _check_real("gamma", gamma)
    num, den = _kbody_square(spec.n, spec.k, mode)
    return _rounded(2 * num, den, gamma, spec.epsilon, spec.epsilon)


def calibrate_epsilon(n0: int, k: int, gamma: float, mode: str = "exact-binomial"
                      ) -> float:
    """Squared amplitude matching the GUE rate and the k-body bound at ``n0``.

    Solves ``rate_gue_haar(2^n0) = rate_kbody_bound(n0, k, eps)`` in integers,
    ``eps^2 = 4^n0 den / ((2^n0 + 1) 2 num)`` (:func:`_kbody_square`), so
    ``gamma`` cancels exactly, and returns the least double at or above it,
    so the point is never crossed.  ``n0 = k = 1`` gives 2/3 rounded up.
    """
    spec = KBodySpec(_check_int("n0", n0, 1), k)    # then 1 <= k <= n0
    _check_real("gamma", gamma)
    num, den = _kbody_square(spec.n, spec.k, mode)
    top, bottom = 4 ** spec.n * den, (2 ** spec.n + 1) * 2 * num
    eps_sq = _rounded(top, bottom)
    p, q = eps_sq.as_integer_ratio()
    return math.nextafter(eps_sq, math.inf) if p * bottom < top * q else eps_sq


def crossover_min_n(k: int, epsilon_sq: float, mode: str = "approx",
                    n_cap: int = 64) -> int | None:
    """Smallest n past which the GUE rate exceeds the k-body bound for good.

    The exponential ``Gamma d^2/(d+1)`` with ``d = 2^n`` overtakes the
    polynomial bound permanently; this returns the first n of that final
    regime, comparing ``d^2 den q > (d + 1) 2 num p`` in integers for
    ``epsilon_sq = p/q``.  Equality is not crossed, so the calibration point
    never qualifies, and an isolated crossing at ``n = k`` (where the binomial
    bound is trivially small) is ignored.  Returns ``None`` when no permanent
    crossover exists below ``n_cap``.
    """
    k = _check_int("locality k", k, 1)
    n_cap = _check_int("n_cap", n_cap, 1)
    p, q = float(_check_real("epsilon_sq", epsilon_sq, "positive")).as_integer_ratio()
    _kbody_square(k, k, mode)           # checks the mode, even if n_cap < k
    first, crossed = k, False
    for n in range(k, n_cap + 1):
        num, den = _kbody_square(n, k, mode)
        crossed = 4 ** n * den * q > (2 ** n + 1) * 2 * num * p
        if not crossed:
            first = n + 1
    return first if crossed else None
