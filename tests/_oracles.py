"""Shared numerical oracles for the test suite.

These deliberately take independent routes from the library code:
quadrature over the exact finite-d eigenvalue correlations instead of
sampling, direct summations instead of recurrences, and the raw polynomial
recurrences that the library replaces by scaled forms.  The one exception is
``laguerre_ratio_chain``: the library's earlier form of the same recurrence,
kept as the reference that the tight loop must reproduce bit for bit.
"""

import math

import numpy as np

from dephase_lab.ensembles import _gue_matrix
from dephase_lab.exceptions import NumericalError
from dephase_lab.specfun import _LOG_SCALE_CAP


def dense_gue_spectrum(gen, d: int) -> np.ndarray:
    """Ascending eigenvalues of one dense GUE matrix, by a complex eigensolve."""
    return np.linalg.eigvalsh(_gue_matrix(d, gen))


def purity_double_sum(sys, t: float) -> float:
    """Thermofield-double purity as the full ``d x d`` double sum.

    ``sum_kl p_k p_l exp(-2 gamma t (E_k - E_l)^2)`` over every ordered pair,
    with every exponential evaluated, subnormal or not.
    """
    e = sys.energies
    p = sys.weights ** 2
    gaps2 = (e[:, None] - e[None, :]) ** 2
    return float((p[:, None] * p[None, :]
                  * np.exp(-2.0 * sys.gamma * t * gaps2)).sum())


def gue_pair_tail(d: int, gamma_t: float, n_u: int = 80, n_w: int = 1200) -> float:
    """Ensemble mean of the residual purity tail at infinite temperature.

    E[P_t - P_inf] = (1/d^2) * E[sum_{k != l} exp(-2 gamma t (E_k - E_l)^2)],
    evaluated from the exact two-point eigenvalue correlation
    rho_2(v, v') = rho(v) rho(v') - K(v, v')^2 with the Hermite-function
    kernel K.  Integration uses rotated coordinates so the sharp Gaussian in
    the gap variable is resolved explicitly.
    """
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    u_max = 6.0 / np.sqrt(4.0 * gamma_t)
    u = xu * u_max
    wu = wu * u_max
    w_max = np.sqrt(2.0) * (np.sqrt(2.0 * d) + 3.0)
    xw, ww = np.polynomial.legendre.leggauss(n_w)
    w = xw * w_max
    ww = ww * w_max

    v1 = (w[:, None] + u[None, :]) / np.sqrt(2.0)
    v2 = (w[:, None] - u[None, :]) / np.sqrt(2.0)

    def kernel_terms(a, b):
        # Returns (K(a, b), rho(a), rho(b)) accumulated over degrees < d.
        pa_prev = np.zeros_like(a)
        pb_prev = np.zeros_like(b)
        pa = np.pi ** -0.25 * np.exp(-0.5 * a * a)
        pb = np.pi ** -0.25 * np.exp(-0.5 * b * b)
        k = pa * pb
        ra = pa * pa
        rb = pb * pb
        for l in range(1, d):
            ca, cb = np.sqrt(2.0 / l), np.sqrt((l - 1) / l)
            pa_prev, pa = pa, a * ca * pa - cb * pa_prev
            pb_prev, pb = pb, b * ca * pb - cb * pb_prev
            k += pa * pb
            ra += pa * pa
            rb += pb * pb
        return k, ra, rb

    k, ra, rb = kernel_terms(v1, v2)
    rho2 = ra * rb - k * k
    gauss = np.exp(-4.0 * gamma_t * u * u)[None, :]
    total = float((ww[:, None] * wu[None, :] * gauss * rho2).sum())
    return total / d ** 2


def haar_unitary_2d(gen, d: int) -> np.ndarray:
    """One Haar unitary from one 2-D QR of a Ginibre matrix, phases fixed."""
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_second_sample(gen, xm: np.ndarray) -> np.ndarray:
    """One sample of ``U X U^dagger``, drawn and multiplied on its own."""
    u = haar_unitary_2d(gen, xm.shape[0])
    return u @ xm @ u.conj().T


def haar_fourth_sample(gen, m1: np.ndarray, m2: np.ndarray,
                       m3: np.ndarray) -> np.ndarray:
    """One sample of ``U X1 U^dagger X2 U X3 U^dagger``, drawn on its own."""
    u = haar_unitary_2d(gen, m1.shape[0])
    udag = u.conj().T
    return u @ m1 @ udag @ m2 @ u @ m3 @ udag


def hermite_h(l: int, x):
    """Physicists' Hermite polynomial ``H_l(x)`` by the raw recurrence.

    Overflows for large ``l`` or ``|x|``; the library's ``hermite_phi``
    carries the Gaussian weight instead.
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if l == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for m in range(1, l):
        h_prev, h = h, 2.0 * x * h - 2.0 * m * h_prev
    return h if h.ndim else float(h)


def laguerre_l(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial ``L_n^(alpha)(x)`` by upward recurrence.

    May overflow for large ``n`` with ``x < 0``, where the library's
    ``log_laguerre_l`` stays finite.
    """
    if n < 0:
        return 0.0
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m - 1 + alpha - x) * cur - (m - 1 + alpha) * prev) / m
    return cur


def laguerre_ratio_chain(d: int, x: float) -> tuple[float, float, float]:
    """Jointly recurse ``L^(1)``, ``L^(2)``, ``L^(3)`` up to degrees d-1, d-2, d-3.

    All three chains share every renormalization step, so the returned ratios
    ``f12 = L_{d-2}^(2)/L_{d-1}^(1)`` and ``f13 = L_{d-3}^(3)/L_{d-1}^(1)``
    never pass through an overflowing intermediate.  Also returns
    ``log L_{d-1}^(1)(x)``.  Requires ``x <= 0``.

    Per-chain state in dicts, a ``done`` map and one generator ``max`` per
    step: the reference for ``specfun._laguerre_ratio_chain``.
    """
    if x > 0:
        raise ValueError("ratio chain requires x <= 0")
    targets = {1: d - 1, 2: d - 2, 3: d - 3}
    prev = {a: 1.0 for a in (1, 2, 3)}
    cur = {a: 1.0 + a - x for a in (1, 2, 3)}
    done: dict[int, float] = {}
    for a in (1, 2, 3):
        t = targets[a]
        if t < 0:
            done[a] = 0.0
        elif t == 0:
            done[a] = 1.0
        elif t == 1:
            done[a] = cur[a]
    shift = 0.0
    n = 1
    while n < targets[1]:
        n += 1
        for a in (1, 2, 3):
            if a in done:
                continue
            prev[a], cur[a] = cur[a], ((2 * n - 1 + a - x) * cur[a]
                                       - (n - 1 + a) * prev[a]) / n
            if n == targets[a]:
                done[a] = cur[a]
        peak = max(abs(v) for v in (*cur.values(), *done.values()))
        if peak > _LOG_SCALE_CAP:
            for a in (1, 2, 3):
                prev[a] /= peak
                cur[a] /= peak
                if a in done:
                    done[a] /= peak
            shift += math.log(peak)
    l1 = done.get(1, cur[1])
    if l1 <= 0.0:
        raise NumericalError("Laguerre ratio chain lost positivity")
    return math.log(l1) + shift, done[2] / l1, done[3] / l1


def z_from_spectrum(energies: np.ndarray, beta: float, y: float = 0.0) -> complex:
    """Complex logarithm of ``Z(beta - i y) = sum_k exp(-(beta - i y) E_k)``.

    Max-shifted for stability; at ``y = 0`` the real part is ``ln Z``.
    """
    e = np.asarray(energies, dtype=float)
    shift = float((-beta * e).max())
    return shift + np.log(complex(np.exp(-beta * e - shift + 1j * y * e).sum()))
