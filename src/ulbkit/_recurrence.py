"""Three-term recurrence machinery for orthogonal polynomial systems.

Monic convention: pi_{k+1}(t) = (t - beta_k) pi_k(t) - gamma_k pi_{k-1}(t),
with pi_0 = 1 and gamma_0 holding the total mass of the weight, so that
||pi_k||^2 = gamma_0 * gamma_1 * ... * gamma_k.
"""

import math

import numpy as np

from .errors import ConvergenceError, ParameterError


def jacobi_monic(alpha: float, beta: float, count: int):
    """Recurrence coefficients of monic Jacobi polynomials.

    Weight (1-t)^alpha (1+t)^beta on [-1, 1], alpha, beta > -1.

    Parameters
    ----------
    alpha, beta : float
        Jacobi exponents.
    count : int
        Number of coefficient pairs (supports degrees 0..count).

    Returns
    -------
    b, g : ndarray
        Offsets beta_k and ratios gamma_k, k = 0..count-1; g[0] is the
        total mass of the weight.
    """
    if alpha <= -1 or beta <= -1:
        raise ParameterError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    ab = alpha + beta
    b = np.zeros(count)
    g = np.zeros(count)
    g[0] = math.exp(
        (ab + 1) * math.log(2.0)
        + math.lgamma(alpha + 1)
        + math.lgamma(beta + 1)
        - math.lgamma(ab + 2)
    )
    if count == 0:
        return b, g
    b[0] = (beta - alpha) / (ab + 2)
    if count > 1:
        b[1] = (beta * beta - alpha * alpha) / ((2 + ab) * (4 + ab))
        g[1] = 4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))
    for k in range(2, count):
        d = 2 * k + ab
        b[k] = (beta * beta - alpha * alpha) / (d * (d + 2))
        g[k] = 4 * k * (k + alpha) * (k + beta) * (k + ab) / (d * d * (d + 1) * (d - 1))
    return b, g


def stieltjes(x, w, count: int):
    """Recurrence coefficients of a discrete measure by the Stieltjes procedure.

    Parameters
    ----------
    x, w : ndarray
        Atoms and (positive) masses of the measure.
    count : int
        Number of coefficient pairs; must not exceed the number of atoms.

    Returns
    -------
    b, g : ndarray
        Monic recurrence coefficients; g[0] = sum(w).
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if count > len(x):
        raise ParameterError(f"degree {count - 1} needs more than the {len(x)} atoms available")
    b = np.zeros(count)
    g = np.zeros(count)
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    norm_prev = 0.0
    norm_cur = float(np.sum(w))
    g[0] = norm_cur
    for k in range(count):
        if k > 0:
            norm_new = float(np.sum(w * p_cur * p_cur))
            if norm_new <= 0 or not np.isfinite(norm_new):
                raise ConvergenceError(f"lost positivity of norms at degree {k}")
            g[k] = norm_new / norm_cur
            norm_prev, norm_cur = norm_cur, norm_new
        b[k] = float(np.sum(w * x * p_cur * p_cur)) / norm_cur
        p_prev, p_cur = p_cur, (x - b[k]) * p_cur - (g[k] if k > 0 else 0.0) * p_prev
    return b, g


def eval_all(b, g, deg: int, t):
    """Values of the monic polynomials of degrees 0..deg at t.

    Returns an array of shape (deg+1,) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((deg + 1,) + t.shape)
    out[0] = 1.0
    if deg >= 1:
        out[1] = t - b[0]
    for k in range(1, deg):
        out[k + 1] = (t - b[k]) * out[k] - g[k] * out[k - 1]
    return out


def eval_one(b, g, deg: int, t):
    """Value of the monic polynomial of degree deg at t."""
    t = np.asarray(t, dtype=float)
    p_prev = np.zeros_like(t)
    p_cur = np.ones_like(t)
    for k in range(deg):
        p_prev, p_cur = p_cur, (t - b[k]) * p_cur - (g[k] if k > 0 else 0.0) * p_prev
    return p_cur if p_cur.shape else float(p_cur)


def eval_derivatives(b, g, deg: int, order: int, t):
    """Derivatives of orders 0..order of the monic polynomials of degrees 0..deg at t.

    Differentiating the recurrence r times gives
    pi_{k+1}^{(r)} = (t - beta_k) pi_k^{(r)} + r pi_k^{(r-1)} - gamma_k pi_{k-1}^{(r)}.
    Returns an array of shape (deg+1, order+1) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    r = np.arange(1, order + 1).reshape((order,) + (1,) * t.ndim)
    out = np.zeros((deg + 1, order + 1) + t.shape)
    out[0, 0] = 1.0
    for k in range(deg):
        out[k + 1] = (t - b[k]) * out[k]
        out[k + 1, 1:] += r * out[k, :-1]
        if k > 0:
            out[k + 1] -= g[k] * out[k - 1]
    return out


def jacobi_matrix(b, g, deg: int):
    """The deg x deg symmetric tridiagonal Jacobi matrix of the recurrence.

    Diagonal beta_0..beta_{deg-1} and off-diagonal sqrt(gamma_1..gamma_{deg-1});
    its characteristic polynomial is pi_deg.
    """
    J = np.diag(np.asarray(b[:deg], dtype=float))
    off = np.sqrt(g[1:deg])
    i = np.arange(deg - 1)
    J[i + 1, i] = J[i, i + 1] = off
    return J


def jacobi_zeros(b, g, deg: int):
    """All zeros of pi_deg, ascending.

    They are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 1969): real and simple.
    """
    return np.linalg.eigvalsh(jacobi_matrix(b, g, deg))


def gauss(b, g, deg: int):
    """The deg-point Gauss rule of the recurrence's measure: nodes ascending, weights.

    Nodes are the eigenvalues of the Jacobi matrix, weights gamma_0 times
    the squared first components of its unit eigenvectors (Golub & Welsch,
    Math. Comp. 1969): positive by construction and accurate relative to
    their size.
    """
    x, vecs = np.linalg.eigh(jacobi_matrix(b, g, deg))
    return x, g[0] * vecs[0] ** 2
