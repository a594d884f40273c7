"""Three-term recurrence machinery for orthogonal polynomial systems.

Monic convention: pi_{k+1}(t) = (t - beta_k) pi_k(t) - gamma_k pi_{k-1}(t),
with pi_0 = 1 and gamma_0 holding the total mass of the weight, so that
||pi_k||^2 = gamma_0 * gamma_1 * ... * gamma_k.  Values and derivatives are
those of P_k = 2^k pi_k, by P_{k+1} = 2 (t - beta_k) P_k - 4 gamma_k P_{k-1}:
every factor 2 and 4 is exact, so P_k carries the bits of pi_k wherever that
is a normal float, while P_k(1) grows polynomially where pi_k(1) falls like 2^-k.
"""

import numpy as np


def eval_all(b, g, deg: int, t):
    """Values of P_0..P_deg at t.

    ``b`` and ``g`` are arrays or sequences of Python floats; the
    sequences a system makes once (``OrthoSystem.beta_floats``,
    ``gamma_floats``) spare each call a conversion.  Returns an array of
    shape (deg+1,) + shape(t).  A 0-d t runs the loop on Python floats,
    an array t on arrays, with the same operations in the same order, so
    a point's values equal, bit for bit, those of an array holding it.
    The loop starts from P_{-1} = 0, which the finite mass g_0 multiplies
    into an exact 0.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((deg + 1,) + t.shape)
    x2 = 2.0 * (t if t.ndim else float(t))
    prev, cur = 0.0, 1.0
    out[0] = cur
    for k in range(deg):
        prev, cur = cur, (x2 - 2.0 * b[k]) * cur - 4.0 * g[k] * prev
        out[k + 1] = cur
    return out


def eval_derivatives(b, g, deg: int, order: int, t):
    """Derivatives of orders 0..order of P_0..P_deg at t.

    Differentiating the recurrence r times gives
    P_{k+1}^{(r)} = 2 (t - beta_k) P_k^{(r)} + 2r P_k^{(r-1)} - 4 gamma_k P_{k-1}^{(r)},
    evaluated in that order.  The loop carries the order-1 rows halved
    and the higher ones at 1/8, so that 2r P_k^{(r-1)} is the row below
    itself for r <= 2, and only orders >= 3 multiply it (by 2r).  Scaling
    by a power of two is exact, and it is undone once at the end, so the
    values equal, bit for bit, those of a loop that forms every term as a
    new array, wherever they are normal floats.  Each row of the output
    holds one degree, every order side by side, under a zero row P_{-1}.
    Step k multiplies the rows k-1 and k, as one stacked block, by the
    block of 4 gamma_k over 2 (t - beta_k), made once for every k, adds
    the row below into the slopes of the second product and writes row
    k+1 as their difference: 3 ufunc calls per degree up to order 2.
    Returns an array of shape (deg+1, order+1) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    width = (order + 1) * n
    rows = np.zeros((deg + 2, width))  # P_{-1} = 0, then P_0..P_deg
    rows[1, :n] = 1.0
    # 4 gamma_k (0 at k = 0, against P_{-1}) over 2 (t - beta_k), as wide as a row
    coef = np.empty((deg, 2, order + 1, n))
    coef[:, 0] = np.reshape(4.0 * g[:deg], (deg, 1, 1))
    coef[:1, 0] = 0.0
    coef[:, 1] = (2.0 * (t.reshape(-1) - np.reshape(b[:deg], (deg, 1))))[:, None]
    # rows k-1 and k, stacked, for every k
    step = rows.strides[0]
    pairs = np.ndarray((deg, 2, width), buffer=rows, strides=(step, step, rows.itemsize))
    prod = np.empty((2, width))
    older, newer = prod
    newer_high = newer[n:]
    r_coef = None
    if order > 2:
        # 2r times the scale of order r over that of order r-1: 1 up to order 2
        r_coef = np.repeat([1.0, 1.0] + [2.0 * r for r in range(3, order + 1)], n)
        tmp_high = np.empty(order * n)
    mul, add, sub = np.multiply, np.add, np.subtract
    for c, pair, low, row in zip(coef.reshape(deg, 2, width), pairs, rows[1:, : order * n], rows[2:]):
        mul(c, pair, prod)
        if r_coef is not None:
            mul(r_coef, low, tmp_high)
            add(newer_high, tmp_high, newer_high)
        elif order:
            add(newer_high, low, newer_high)
        sub(newer, older, row)
    out = rows[1:].reshape((deg + 1, order + 1) + t.shape)
    out[:, 1:2] *= 2.0
    if order > 1:
        out[:, 2:] *= 8.0
    return out


def jacobi_matrix(b, g, deg: int):
    """The deg x deg symmetric tridiagonal Jacobi matrix of the recurrence.

    Diagonal beta_0..beta_{deg-1} and off-diagonal sqrt(gamma_1..gamma_{deg-1});
    its characteristic polynomial is pi_deg.
    """
    J = np.zeros((deg, deg))
    flat = J.reshape(-1)
    flat[:: deg + 1] = b[:deg]
    flat[1 :: deg + 1] = flat[deg :: deg + 1] = np.sqrt(g[1:deg])
    return J


def jacobi_zeros(b, g, deg: int):
    """All zeros of pi_deg, ascending.

    They are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 1969): real and simple.
    """
    return np.linalg.eigvalsh(jacobi_matrix(b, g, deg))


def gauss(J, mass: float):
    """The Gauss rule of a Jacobi matrix J of a measure of total mass: nodes ascending, weights.

    Nodes are the eigenvalues of J, weights the mass (gamma_0) times the
    squared first components of its unit eigenvectors (Golub & Welsch,
    Math. Comp. 1969): positive by construction and accurate relative to
    their size.
    """
    x, vecs = np.linalg.eigh(J)
    return x, mass * vecs[0] ** 2
