"""Shared numerical oracles for the test suite.

These deliberately take independent routes from the library code:
quadrature over the exact finite-d eigenvalue correlations instead of
sampling, direct summations instead of recurrences, and the raw polynomial
recurrences that the library replaces by scaled forms.  The exceptions are
``log_laguerre_reference``, the library's earlier form of the same
recurrence, kept as the reference that the current loop must reproduce bit
for bit, and ``gue_block_triangles``, the library's earlier GUE draw, which
the current one must match in law and, for a basis state, in every rate of
the same normals up to rounding.
``build_tbre_hamiltonian`` is the illustrative TBRE Hamiltonian draw; the
library's TBRE rate and bound read only the fixed operator, which
``tbre_pair_sum`` builds pair by pair.
"""

import math

import numpy as np

from dephase_lab.ensembles import _gue_matrix
from dephase_lab.rates import PAULI
from dephase_lab.specfun import _LOG_SCALE_CAP


def dense_gue_spectrum(gen, d: int) -> np.ndarray:
    """Ascending eigenvalues of one dense GUE matrix, by a complex eigensolve."""
    return np.linalg.eigvalsh(_gue_matrix(d, gen))


def gue_block_triangles(gen, m: int, d: int) -> np.ndarray:
    """``m`` GUE draws ``V = S + iK`` from the normals ``g`` of
    ``gen.standard_normal((m, d, d))``: ``S_jj = sqrt(1/2) g_jj``, and for
    ``j < k``, ``S_jk = S_kj = g_jk/2`` and ``K_jk = -K_kj = -g_kj/2``."""
    g = gen.standard_normal((m, d, d))
    diag = np.arange(d)
    g_jj = np.sqrt(0.5) * g[:, diag, diag]
    g *= 0.5
    s, k = np.triu(g, 1), np.tril(g, -1)
    s += s.transpose(0, 2, 1)
    k -= k.transpose(0, 2, 1)
    s[:, diag, diag] = g_jj
    return s + 1j * k


def gue_rates_triangles(gen, m: int, d: int, gamma: float,
                        psi: np.ndarray) -> np.ndarray:
    """Block function of the sample engine: ``2 gamma var_psi(V)`` of the
    ``gue_block_triangles`` draws, as ``|V psi - <V> psi|^2`` per matrix.  For a
    basis state ``e_0`` that is ``sum_{j != 0} |V_j0|^2``, with no cancellation."""
    w = gue_block_triangles(gen, m, d) @ psi
    mean = (w @ psi.conj()).real
    return 2.0 * gamma * (np.abs(w - mean[:, None] * psi) ** 2).sum(axis=1)


def site_operator(n: int, site: int, alpha: str) -> np.ndarray:
    """Pauli ``alpha`` on ``site`` of ``n`` spins, as a dense ``2^n`` matrix."""
    op = np.eye(1, dtype=complex)
    for l in range(n):
        op = np.kron(op, PAULI[alpha] if l == site else np.eye(2, dtype=complex))
    return op


def tbre_pair_sum(n: int) -> np.ndarray:
    """The TBRE Lindblad operator as the sum of its ``9 (n - 1)`` Pauli-pair
    products ``sigma^a_l sigma^b_{l+1}``, each one dense matrix product."""
    v = np.zeros((1 << n, 1 << n), dtype=complex)
    for l in range(n - 1):
        for a in "xyz":
            sa = site_operator(n, l, a)
            for b in "xyz":
                v += sa @ site_operator(n, l + 1, b)
    return v


def build_tbre_hamiltonian(n: int, rng, *, coupling_scale: float = 1.0,
                           field_scale: float = 1.0) -> np.ndarray:
    """Illustrative TBRE Hamiltonian draw (random couplings A and fields B) of an
    ``n``-spin open chain, from ``rng``'s generator."""
    gen = rng.generator()
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(n - 1):
        for a in "xyz":
            sa = site_operator(n, l, a)
            for b in "xyz":
                h += coupling_scale * gen.standard_normal() \
                    * (sa @ site_operator(n, l + 1, b))
    for l in range(n):
        for a in "xyz":
            h += field_scale * gen.standard_normal() * site_operator(n, l, a)
    return h


def to_product_basis(c: np.ndarray) -> np.ndarray:
    """Dense ``d^2 x d^2`` density matrix on the doubled Hilbert space of the
    doubled-basis coefficients ``c_kl`` that ``dynamics.evolve_tfd`` returns."""
    d = c.shape[0]
    rho = np.zeros((d * d, d * d), dtype=complex)
    kk = np.arange(d) * d + np.arange(d)
    rho[np.ix_(kk, kk)] = c
    return rho


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


def purity_fsum(energies: np.ndarray, probs: np.ndarray, gamma_t: float) -> float:
    """Thermofield-double purity ``sum_kl p_k p_l exp(-2 gamma t (E_k - E_l)^2)``
    of one Gibbs law ``probs``, exactly rounded by ``math.fsum``.

    Every ordered pair's term is evaluated.  The terms of ``(k, l)`` and
    ``(l, k)`` are the same float, so each pair ``k < l`` enters once,
    doubled (exactly), next to the diagonal ``p_k^2``; exact zeros are left
    out.  No summation order enters the result.
    """
    iu, ju = np.triu_indices(len(energies), 1)
    pairs = 2.0 * (probs[iu] * probs[ju]
                   * np.exp(-2.0 * gamma_t * (energies[iu] - energies[ju]) ** 2))
    terms = np.concatenate([probs ** 2, pairs])
    return math.fsum(terms[terms > 0].tolist())


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


def log_laguerre_reference(n: int, alpha: float, x: float) -> float:
    """The library's earlier ``log_laguerre_l`` loop, which renormalizes
    after each step at a fixed cap: the reference its guarded form must
    reproduce bit for bit wherever no step can overflow."""
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


def z_from_spectrum(energies: np.ndarray, beta: float, y: float = 0.0) -> complex:
    """Complex logarithm of ``Z(beta - i y) = sum_k exp(-(beta - i y) E_k)``.

    Max-shifted for stability; at ``y = 0`` the real part is ``ln Z``.
    """
    e = np.asarray(energies, dtype=float)
    shift = float((-beta * e).max())
    return shift + np.log(complex(np.exp(-beta * e - shift + 1j * y * e).sum()))
