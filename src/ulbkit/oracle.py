"""Independent ground truth: explicit codes, energies, and searches.

Everything here is deliberately decoupled from the bound machinery.  A
finite code has one energy, 2 sum_d A_d h(t_d) over its distance
distribution counted in O(M n) memory (0.1 MiB on the full H(11,2) cube),
which the exhaustive search ranks by; sphere and projective codes sum h
over their pairs.  Design strength comes from the raw moment sums, and
the sphere minimizer is a seeded L-BFGS descent (an upper estimate only).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import orthopoly, pmspace
from .errors import DomainError, ParameterError, integer
from .pmspace import Family, SpaceDescriptor
from .potentials import Potential

_COINCIDENT = 1.0 - 1e-12


@dataclass(frozen=True, eq=False)
class Code:
    """A finite configuration in a space.

    ``points`` holds unit vectors row-wise (sphere), words over
    {0..q-1} (Hamming), binary weight-w words (Johnson), or unit
    representatives of lines (projective; complex entries allowed, and
    quaternionic ones as pairs of complex numbers along a last axis).
    """

    space: SpaceDescriptor
    points: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)


def make_code(space: SpaceDescriptor, points) -> Code:
    """Validate points and wrap them as a code."""
    fam = space.family
    if fam is Family.SPHERE:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.n:
            raise ParameterError(f"sphere points must be rows of length {space.n}")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ParameterError("sphere points must be unit vectors")
        pts = pts / norms[:, None]
    elif fam is Family.HAMMING:
        pts = np.asarray(points, dtype=int)
        if pts.ndim != 2 or pts.shape[1] != space.n:
            raise ParameterError(f"Hamming words must have length {space.n}")
        if pts.min() < 0 or pts.max() >= space.q:
            raise ParameterError(f"Hamming symbols must lie in 0..{space.q - 1}")
    elif fam is Family.JOHNSON:
        pts = np.asarray(points, dtype=int)
        if pts.ndim != 2 or pts.shape[1] != space.n:
            raise ParameterError(f"Johnson words must have length {space.n}")
        if not np.all((pts == 0) | (pts == 1)) or np.any(pts.sum(axis=1) != space.w):
            raise ParameterError(f"Johnson words must be binary of weight {space.w}")
    else:
        pts = np.asarray(points)
        if space.field_dim == 4:
            if pts.ndim != 3 or pts.shape[1:] != (space.n, 2):
                raise ParameterError(
                    f"quaternionic points must have shape (M, {space.n}, 2)"
                )
            pts = pts.astype(complex)
            sq = np.sum(np.abs(pts) ** 2, axis=(1, 2))
        else:
            if pts.ndim != 2 or pts.shape[1] != space.n:
                raise ParameterError(f"projective points must be rows of length {space.n}")
            pts = pts.astype(complex if space.field_dim == 2 else float)
            sq = np.sum(np.abs(pts) ** 2, axis=1)
        if np.any(np.abs(sq - 1.0) > 1e-8):
            raise ParameterError("projective representatives must be unit vectors")
    code = Code(space, pts)
    if np.any(_pair_values(code)[0] > _COINCIDENT):
        raise ParameterError("duplicate points in code")
    return code


def pairwise_t(code: Code) -> np.ndarray:
    """Matrix of substituted distances t(x, y) for all pairs."""
    sp, pts = code.space, code.points
    if sp.family is Family.SPHERE:
        return np.clip(pts @ pts.T, -1.0, 1.0)
    if sp.family in (Family.HAMMING, Family.JOHNSON):
        # row by row, with no (M, M, n) array
        t = np.empty((len(pts), len(pts)))
        for i, row in enumerate(pts):
            (pts != row).sum(axis=1, out=t[i])
        return _count_t(sp, t, out=t)
    if sp.field_dim == 4:
        # x y* for quaternions stored as complex pairs (a, b) = a + b j
        a, b = code.points[:, :, 0], code.points[:, :, 1]
        first = a @ a.conj().T + b @ b.conj().T
        second = b @ a.T - a @ b.T
        cos2 = np.abs(first) ** 2 + np.abs(second) ** 2
    else:
        gram = code.points @ code.points.conj().T
        cos2 = np.abs(gram) ** 2
    return np.clip(2.0 * cos2 - 1.0, -1.0, 1.0)


def _count_t(space: SpaceDescriptor, counts, out=None):
    """t of two words that differ in ``counts`` coordinates."""
    # 1 - 2d/n with d the Hamming distance, and 1 - 2d/w with d the Johnson
    # distance, half the count: each quotient is that real number rounded
    t = np.divide(counts, space.n / 2.0 if space.family is Family.HAMMING else space.w, out=out)
    return np.subtract(1.0, t, out=t)


def _pair_values(code: Code):
    """(t, A): a finite code's distance distribution, or a Gram code's pairs and None.

    t_d and A_d at the counts d of differing coordinates that occur, d
    ascending, counted row by row; pairwise_t's upper triangle in C order.
    """
    sp, pts = code.space, code.points
    if sp.family not in (Family.HAMMING, Family.JOHNSON):
        return pairwise_t(code)[~np.tri(len(pts), dtype=bool)], None
    counts = np.zeros(sp.n + 1, dtype=np.intp)
    for i in range(len(pts) - 1):
        counts += np.bincount((pts[i + 1 :] != pts[i]).sum(axis=1), minlength=sp.n + 1)
    d = np.flatnonzero(counts)
    return _count_t(sp, d), counts[d]


def _h_at(h: Potential, t) -> list:
    """h at each t of an array, one Python float at a time."""
    return [float(h(x)) for x in t.tolist()]


def _distribution_sum(counts, hval):
    """sum_d A_d h_d of each row of ``counts``, d ascending: column j holds the A at hval[j]."""
    vals = np.zeros(len(counts))
    for a, hd in zip(counts.T, hval):
        vals += a * hd
    return vals


def _check_space(space: SpaceDescriptor, code: Code):
    if space != code.space:
        raise ParameterError(f"the code lies in {code.space.label()}, not in {space.label()}")


def energy(space: SpaceDescriptor, code: Code, h: Potential) -> float:
    """Energy of a code: the sum of h(t(x,y)) over its ordered pairs x != y.

    Finite codes sum 2 * sum_d A_d h(t_d), d ascending, as exhaustive_hamming does.
    Raises DomainError on coincident points, where singular potentials
    have no finite value and codes stop being sets.
    """
    _check_space(space, code)
    if code.size < 2:
        return 0.0
    vals, counts = _pair_values(code)
    if np.any(vals > _COINCIDENT):
        raise DomainError("code contains coincident points")
    hv = h(vals) if counts is None else _distribution_sum(counts[None], _h_at(h, vals))
    return 2.0 * float(np.sum(hv))


def separation(space: SpaceDescriptor, code: Code):
    """Extreme pairwise substituted distances (s, ell, u); s = u.

    s is the separation max t(x,y); ell the minimum; u repeats s under
    the name used for design-structure queries.
    """
    _check_space(space, code)
    if code.size < 2:
        raise ParameterError("separation needs at least two points")
    vals = _pair_values(code)[0]
    s = float(np.max(vals))
    ell = float(np.min(vals))
    return s, ell, s


def design_strength(space: SpaceDescriptor, code: Code, tau_max: int) -> int:
    """Largest tau <= tau_max with vanishing moment sums of orders 1..tau."""
    _check_space(space, code)
    tau_max = integer("design_strength", "tau_max", tau_max)
    cap = space.max_degree
    if cap is not None and tau_max > cap:
        raise ParameterError(f"tau_max {tau_max} exceeds the degree cap {cap}")
    vals, counts = _pair_values(code)
    M = code.size
    tol = 1e-8 * M * M
    q = orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, tau_max), tau_max, vals)
    # full double sums: M diagonal terms Q_i(1)=1 plus both pair orders
    totals = M + 2.0 * (np.sum(q, axis=1) if counts is None else q @ counts)
    strength = 0
    for i in range(1, tau_max + 1):
        if abs(totals[i]) > tol:
            break
        strength = i
    return strength


# --- named configurations -------------------------------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _simplex(n: int) -> np.ndarray:
    # Gram matrix with off-diagonal -1/n factors through its eigenbasis
    m = n + 1
    gram = (np.eye(m) * (1.0 + 1.0 / n)) - np.full((m, m), 1.0 / n)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-10
    pts = vecs[:, keep] * np.sqrt(vals[keep])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _icosahedron() -> np.ndarray:
    base = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            base += [(0.0, s1, s2 * _PHI), (s1, s2 * _PHI, 0.0), (s2 * _PHI, 0.0, s1)]
    return np.asarray(base) / math.sqrt(1.0 + _PHI * _PHI)


def _rm_1_3_words() -> np.ndarray:
    # 16 words spanned by the all-ones word and three coordinate masks
    gens = np.array(
        [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
        ]
    )
    words = []
    for bits in itertools.product((0, 1), repeat=4):
        words.append(np.mod(np.dot(bits, gens), 2))
    return np.asarray(words)


_FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def named_config(space: SpaceDescriptor, name: str) -> Code:
    """A classical configuration, by name.

    Sphere: ``simplex``, ``cross_polytope`` (any n), ``cube``,
    ``icosahedron`` (n=3).  Hamming (q=2): ``repetition``,
    ``parity_check``, ``extended_hamming_8`` (n=8).  Johnson: ``fano``
    (J(7,3)), ``steiner_quadruple_8`` (J(8,4)).
    """
    fam = space.family
    if fam is Family.SPHERE:
        if name == "simplex":
            return make_code(space, _simplex(space.n))
        if name == "cross_polytope":
            eye = np.eye(space.n)
            return make_code(space, np.vstack([eye, -eye]))
        if name == "cube" and space.n == 3:
            pts = np.array(list(itertools.product((1.0, -1.0), repeat=3))) / math.sqrt(3)
            return make_code(space, pts)
        if name == "icosahedron" and space.n == 3:
            return make_code(space, _icosahedron())
    elif fam is Family.HAMMING and space.q == 2:
        if name == "repetition":
            return make_code(space, [[0] * space.n, [1] * space.n])
        if name == "parity_check":
            words = [w for w in itertools.product((0, 1), repeat=space.n) if sum(w) % 2 == 0]
            return make_code(space, words)
        if name == "extended_hamming_8" and space.n == 8:
            return make_code(space, _rm_1_3_words())
    elif fam is Family.JOHNSON:
        if name == "fano" and (space.n, space.w) == (7, 3):
            words = np.zeros((7, 7), dtype=int)
            for row, line in enumerate(_FANO_LINES):
                words[row, [p - 1 for p in line]] = 1
            return make_code(space, words)
        if name == "steiner_quadruple_8" and (space.n, space.w) == (8, 4):
            words = _rm_1_3_words()
            return make_code(space, words[words.sum(axis=1) == 4])
    raise ParameterError(f"no configuration named {name!r} for {space.label()}")


# --- searches ---------------------------------------------------------------


# entries of the Gram matrices and L-BFGS histories of one batch of
# restarts: 2 MB in all.  The two-loop recursion's scratch buffer, one
# entry per coordinate of the batch, takes the place of temporaries of
# its size, so it adds nothing to the peak
_BATCH_ENTRIES = 1 << 18

# the (move, gradient change) pairs of each restart's L-BFGS history
_MEMORY = 5


def minimize_sphere(
    n: int,
    M: int,
    h: Potential,
    restarts: int = 20,
    seed: int = 0,
    iterations: int = 4000,
):
    """Best local minimum of sphere energy from seeded random starts.

    The restarts descend together as one array of shape (restarts, M, n),
    split into smaller batches for large M to bound memory, each restart
    with its own history and stopping rule.  A step moves every point
    along a limited-memory BFGS direction (the two-loop recursion over
    the restart's last five moves and tangential-gradient changes,
    projected onto the tangent space; the gradient scaled by 0.05
    before the first move) and projects back to the sphere.  Step 1 is
    tried first and halved until the energy falls, so the energy of
    each restart only decreases.  A restart stops when a rejected
    step's predicted decrease, its length times |<direction, gradient>|,
    is at most 8 eps |E|, below the rounding of its energy E; when its
    step falls below 1e-16 (an energy of 0); or after ``iterations``
    steps, the cap of each restart.  The result is deterministic for a
    fixed seed, and an upper estimate of the minimal energy only, never
    a certificate of optimality.  ``seed`` is None (fresh entropy) or an
    integer >= 0; an integral float is taken as its integer.  Raises
    ParameterError for n, M, restarts or iterations not an integer, n < 2,
    M < 2, restarts < 1, iterations < 1, or any other seed.

    Returns
    -------
    code : Code
        The best configuration found.
    value : float
        Its energy, ``energy(space, code, h)``; the
        descent's own sum for it, in ``restart_energies``, can differ
        in the last bits.
    info : dict
        ``restart_energies``: the final energy of each restart, in the
        order of the starts; ``iterations_best``: the iterations the
        best restart took.
    """
    n, M, restarts, iterations = (
        integer("minimize_sphere", *arg)
        for arg in (("n", n), ("M", M), ("restarts", restarts), ("iterations", iterations)))
    if n < 2 or M < 2:
        raise ParameterError("need n >= 2 and M >= 2")
    if restarts < 1 or iterations < 1:
        raise ParameterError(
            f"need restarts >= 1 and iterations >= 1, got {restarts} and {iterations}"
        )
    if seed is not None and integer("minimize_sphere", "seed", seed) < 0:
        raise ParameterError(f"minimize_sphere needs a seed >= 0 or None, got {seed!r}")
    space = pmspace.make_space("sphere", n=n)
    rng = np.random.default_rng(None if seed is None else int(seed))
    x = rng.normal(size=(restarts, M, n))
    x /= np.linalg.norm(x, axis=2)[..., None]
    # restarts descend independently, so batching them changes no result;
    # it bounds the memory of the batch's Gram matrices and histories for large M
    per = max(1, _BATCH_ENTRIES // (M * M + 2 * _MEMORY * M * n))
    parts = [_descend(x[i : i + per], h, iterations) for i in range(0, len(x), per)]
    x, vals, iters = (np.concatenate(arrays) for arrays in zip(*parts))
    best = int(np.argmin(vals))
    code = make_code(space, x[best])
    info = {"restart_energies": vals.tolist(), "iterations_best": int(iters[best])}
    return code, energy(space, code, h), info


def _descend(x, h, iterations):
    """Descend each configuration of x, shape (R, M, n), on its own.

    Returns the final configurations, their energies and the number of
    iterations each took.
    """
    R, M, n = x.shape
    pairs = np.ravel_multi_index(np.triu_indices(M, k=1), (M, M))
    out_x, out_val = np.empty_like(x), np.empty(R)
    iters = np.full(R, iterations)
    # the rows still descending: their indices, iterates, energies,
    # tangential gradients, directions and step lengths
    live = np.arange(R)
    xl = x.copy()
    vl, tl = _energy_and_gradient(xl, h, pairs)
    # the history ring of moves s, gradient changes y and 1/<s,y>, shared
    # by the rows: iteration it writes slot it % _MEMORY of every row, a
    # zero pair where the row stored no pair, so a row's history depends
    # on its own moves only
    hs = np.zeros((_MEMORY, R, M * n))
    hy = np.zeros_like(hs)
    rho = np.zeros((_MEMORY, R))
    scale = np.full(R, 0.05)
    d = _direction(xl, tl, hs, hy, rho, scale, 0)
    alpha = np.ones(R)
    floor = 8.0 * np.finfo(float).eps
    for it in range(iterations):
        cand = xl + alpha[:, None, None] * d
        cand /= np.sqrt(np.add.reduce(cand * cand, axis=2, keepdims=True))
        cand_val, cand_tang = _energy_and_gradient(cand, h, pairs)
        accept = cand_val < vl
        # a rejected step that could not lower the energy by more than
        # its rounding ends the row, as does a step below 1e-16 (an
        # energy of 0 has no rounding)
        slope = np.abs(np.add.reduce(d * tl, axis=(1, 2)))
        done = ~accept & ((alpha * slope <= floor * np.abs(vl)) | (alpha < 1e-16))
        # the move and gradient change go straight into the slot, which
        # then keeps them only in the rows that store a pair
        slot = it % _MEMORY
        s, y = hs[slot], hy[slot]
        np.subtract(cand.reshape(s.shape), xl.reshape(s.shape), out=s)
        np.subtract(cand_tang.reshape(y.shape), tl.reshape(y.shape), out=y)
        sy = np.add.reduce(s * y, axis=1)
        store = accept & (sy > 0)
        unstored = ~store[:, None]
        np.copyto(s, 0.0, where=unstored)
        np.copyto(y, 0.0, where=unstored)
        rho[slot] = 0.0
        np.divide(1.0, sy, out=rho[slot], where=store)
        np.divide(sy, np.add.reduce(y * y, axis=1), out=scale, where=store)
        moved = accept[:, None, None]
        np.copyto(xl, cand, where=moved)
        np.copyto(vl, cand_val, where=accept)
        np.copyto(tl, cand_tang, where=moved)
        alpha = np.where(accept, 1.0, 0.5 * alpha)
        np.copyto(d, _direction(xl, tl, hs, hy, rho, scale, slot), where=moved)
        if done.any():
            rows = live[done]
            out_x[rows], out_val[rows], iters[rows] = xl[done], vl[done], it + 1
            keep = ~done
            live, xl, vl, tl, d, alpha, scale = (
                a[keep] for a in (live, xl, vl, tl, d, alpha, scale)
            )
            hs, hy, rho = hs[:, keep], hy[:, keep], rho[:, keep]
            if not live.size:
                break
    out_x[live], out_val[live] = xl, vl
    return out_x, out_val, iters


def _direction(x, g, hs, hy, rho, scale, newest):
    """L-BFGS descent directions at x, shape (R, M, n), of tangential gradients g.

    The two-loop recursion runs over each row's history ``hs``, ``hy``,
    ``rho`` (slot ``newest`` the latest) from the initial Hessian
    ``scale``; the direction is projected onto the tangent space, and
    where it does not descend, ``-scale * g`` replaces it.  A slot that
    no row has written holds only zero pairs, which leave every row as
    it is, so the recursion skips it.
    """
    q = g.reshape(len(g), -1).copy()
    tmp = np.empty_like(q)
    written = rho.any(axis=1).tolist()
    order = [k for k in ((newest - j) % _MEMORY for j in range(_MEMORY)) if written[k]]
    a = {}
    for k in order:
        a[k] = rho[k] * np.add.reduce(np.multiply(hs[k], q, out=tmp), axis=1)
        q -= np.multiply(hy[k], a[k][:, None], out=tmp)
    q *= scale[:, None]
    for k in reversed(order):
        b = rho[k] * np.add.reduce(np.multiply(hy[k], q, out=tmp), axis=1)
        q += np.multiply(hs[k], (a[k] - b)[:, None], out=tmp)
    d = np.negative(q, out=q).reshape(g.shape)
    d -= np.add.reduce(d * x, axis=2, keepdims=True) * x
    ascent = ~(np.add.reduce(d * g, axis=(1, 2)) < 0)
    if ascent.any():
        d[ascent] = -scale[ascent, None, None] * g[ascent]
    return d


def _energy_and_gradient(x, h, pairs):
    """Energies of configurations x, shape (R, M, n), and their tangential gradients.

    ``pairs`` holds the flat indices of the entries (i, j), i < j, of an
    M x M matrix.
    """
    R, M, _ = x.shape
    g = x @ x.transpose(0, 2, 1)
    np.maximum(g, -1.0, out=g)
    np.minimum(g, 1.0 - 1e-12, out=g)
    # take gives C-ordered rows, so each row sums in the same order
    # whatever the number of rows
    flat = g.reshape(R, -1)
    val = 2.0 * np.add.reduce(h(flat.take(pairs, axis=1)), axis=1)
    # the diagonals, as every (M+1)-th entry of each flat row
    flat[:, :: M + 1] = -1.0  # self-terms must not blow up riesz
    # C order, so that the flat view below writes into dh itself
    dh = np.ascontiguousarray(h.deriv(g, 1))
    dh.reshape(R, -1)[:, :: M + 1] = 0.0
    grad = 2.0 * dh @ x
    tang = grad - np.add.reduce(grad * x, axis=2, keepdims=True) * x
    return val, tang


# rows of the combination table summed per array pass: at M = 5 a pass of
# 8192 rows holds 0.6 MB of index columns, sums and temporaries, and the
# whole H(6,2) search peaks at 0.71 MB, its table (0.11 MB) included
_CHUNK = 1 << 13

# the largest combination table built: 64 MiB.  Only codes of nearly all
# 2^n words have larger ones (H(6,2) M=59 would take 352 MiB, H(9,2)
# M=510 126 MiB; H(5,2) M=25 takes 45 MiB), and their searches would
# sum billions of pair terms anyway
_TABLE_BYTES = 1 << 26

# the most pair terms a search sums: C(M, 2) for each row of the n
# suffixes it visits.  H(6,2) M=5 has 7.8e5 (3 ms), H(11,2) M=2048 2.1e6
# (0.06 s), H(6,2) M=61 6.9e7 (0.3 s) and H(9,2) M=511 6.6e7 (0.7 s, the
# slowest that passes); H(12,2) M=4095 has 3.4e10, though it passes the
# count and the table size
_PAIR_TERMS = 10**8


def exhaustive_hamming(n: int, M: int, h: Potential):
    """Exact minimal energy over all M-subsets of the binary cube.

    A code's energy depends only on its distance distribution: with A_d
    its number of pairs at distance d, it is taken to be
    2 * sum_{d=1..n} A_d * h(1 - 2d/n), summed over d in ascending
    order, so every code of one symmetry class has the same float
    energy.  Translations and coordinate permutations keep the
    distribution, and they take a code of minimum distance d to one that
    holds 0 and c_d = 2^d - 1 and whose other words have weight at least
    d: translate one word of a closest pair to 0, then permute the
    coordinates so that the other becomes c_d.  With the nonzero words
    ordered by weight, c_d first among those of weight d, such a code is
    0, c_d and an (M-2)-subset of the words after c_d, a suffix of one
    table: the (M-2)-subsets of the words after c_1 in lexicographic
    order, built once per call.  The search visits the n suffixes, one
    per d, in passes of at most ``_CHUNK`` table rows.  A pass adds each
    row's pair terms in the order that takes fewest numpy calls, and
    ranks by the formula every row within that sum's rounding bound of
    the pass's least sum, so the energy returned is the least that the
    formula gives over all M-subsets.  The code returned is the first
    least-energy row in the order of d and then of the table.  A row of
    suffix d with a pair closer than d has a representative of its
    class in an earlier suffix, so that code holds 0 and c_d, d its
    minimum distance.

    Raises ParameterError for a non-integer n or M, n < 2, M outside
    2..2^n, an instance with C(2^n, M) above ten million, one whose
    table would take more than 64 MiB, or one whose suffixes hold more
    than 1e8 pair terms.  The instances that pass all three take at most
    about 0.7 s: H(9,2) M=511 sums 6.6e7 pair terms.
    """
    n, M = integer("exhaustive_hamming", "n", n), integer("exhaustive_hamming", "M", M)
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    total = 1 << n
    if M < 2 or M > total:
        raise ParameterError(f"need 2 <= M <= {total}, got M={M}")
    if _comb_above(total, M, 10_000_000):
        raise ParameterError(f"instance too large: C(2^{n}, {M}) > 1e7")
    # each binomial below is at most C(2^n, M), so exact and cheap from here
    table_bytes = math.comb(total - 2, M - 2) * (M - 2) * np.min_scalar_type(total - 1).itemsize
    if table_bytes > _TABLE_BYTES:
        raise ParameterError(
            f"instance too large: its table of {M - 2}-subsets would take "
            f"{table_bytes / 2**20:.0f} MiB > {_TABLE_BYTES >> 20} MiB"
        )
    # c_d is the nonzero word at position s = C(n,1) + ... + C(n,d-1) by
    # weight; the table covers the 2^n - 2 positions after c_1, and suffix
    # d is its last C(2^n - 2 - s, M - 2) rows, whose words all lie after c_d
    tails = [math.comb(total - 2 - s, M - 2)
             for s in itertools.accumulate((math.comb(n, d) for d in range(1, n)), initial=0)]
    terms = sum(tails) * math.comb(M, 2)
    if terms > _PAIR_TERMS:
        raise ParameterError(
            f"instance too large: its search would sum {terms:.2e} pair terms > {_PAIR_TERMS:.0e}"
        )
    space = pmspace.make_space("hamming", n=n, q=2)
    hval = _h_at(h, _count_t(space, np.arange(1, n + 1)))
    bits = np.array([w.bit_count() for w in range(total)])
    best_val, best_set = _search_classes(bits, hval, M, tails)
    # the words are distinct by construction, so make_code's O(M^2 n)
    # check for duplicates is skipped
    code = Code(space, (np.array(best_set)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    return code, 2.0 * best_val


def _comb_above(n, k, limit):
    """Whether C(n, k) > limit, multiplying only until the product passes limit.

    math.comb would build the exact number, which takes minutes for
    C(2^24, 2^23).
    """
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        if c > limit:
            break
        c = c * (n - k + i) // i  # C(n - k + i, i), rising with i
    return c > limit


def _search_classes(bits, hval, M, tails):
    """Least sum_d A_d h_d over the codes (0, c_d, *row), and a canonical code that has it.

    ``bits`` holds the weight of each word, ``hval`` h at the distances
    1..n and ``tails`` the number of rows of each suffix d.  The table
    is walked in passes of at most ``_CHUNK`` rows, and a pass visits
    the rows of each suffix d in it, d ascending; the code returned is
    the first least one in the order of d and then of rows.  It is
    canonical: a row of suffix d with a pair closer than d has a
    representative of its class, of the same energy, in an earlier
    suffix.
    """
    total, n, k = len(bits), len(hval), M - 2
    # h of the distance between two words, indexed by their xor; distinct
    # words never have xor 0
    hxor = np.array([math.inf] + hval)[bits]
    # the nonzero words by weight, the first of weight d its least word c_d
    order = (1 + np.argsort(bits[1:], kind="stable")).astype(np.min_scalar_type(total - 1))
    tab = _combination_table(order[1:], k)
    rows = tab.shape[1]
    # the terms of a word w with 0 and with c_d, h(w) + h(c_d ^ w)
    cs = [(1 << d) - 1 for d in range(1, n + 1)]
    hc = hxor + hxor[np.array(cs)[:, None] ^ np.arange(total)]
    # a row's fast sum of its K = C(M, 2) terms lies within
    # gamma_(K-1) K max|h| of its exact value, and its formula within
    # gamma_n K max|h| (gamma_m = m u / (1 - m u), u = eps/2); their sum
    # e is below 1.01 (K + n) u K max|h|.  A row whose formula is at most
    # that of the row of least fast sum then has a fast sum within 2e of
    # the least, and a row whose formula is below best a fast sum below
    # best + e.  tol, twice the bound on 2e, also covers the rounding of
    # low + tol and best + tol
    K = math.comb(M, 2)
    tol = 2.0 * np.finfo(float).eps * (K + n) * K * max(abs(v) for v in hval)
    best, best_set = (math.inf, 0), None
    for a in range(0, rows, _CHUNK):
        cols = tab[:, a : a + _CHUNK].astype(np.intp)
        # the terms within a row, the same for every d, taken by the first
        # word of each pair, so a near-full code takes O(M) numpy calls
        inner = np.zeros(cols.shape[1])
        for i in range(k - 1):
            inner += np.add.reduce(hxor[cols[i + 1 :] ^ cols[i]], axis=0)
        for d, tail in enumerate(tails, 1):
            lo = max(rows - tail - a, 0)  # suffix d's first row in the pass
            if lo >= cols.shape[1]:
                break
            vals = np.add.reduce(hc[d - 1][cols[:, lo:]], axis=0)
            vals += inner[lo:]
            vals += hval[d - 1]
            low = vals.min()
            if low > best[0] + tol:
                continue  # no row here has a formula as low as the best
            near = lo + np.flatnonzero(vals <= low + tol)
            codes = np.empty((M, len(near)), dtype=np.intp)
            codes[0], codes[1], codes[2:] = 0, cs[d - 1], cols[:, near]
            exact = _distribution_energies(codes, bits, hval)
            at = int(np.argmin(exact))
            if (exact[at], d) < best:
                best, best_set = (float(exact[at]), d), codes[:, at].tolist()
    return best[0], best_set


def _distribution_energies(codes, bits, hval):
    """sum_{d=1..n} A_d h_d, d ascending, of each code, a column of ``codes``.

    Pairs are taken by their first word, so a near-full code takes O(M)
    numpy calls.
    """
    M, rows = codes.shape
    width = len(hval) + 1
    counts = np.zeros(rows * width, dtype=np.intp)
    base = np.arange(0, rows * width, width)
    for i in range(M - 1):
        at = bits[codes[i + 1 :] ^ codes[i]]
        at += base
        counts += np.bincount(at.ravel(), minlength=len(counts))
    return _distribution_sum(counts.reshape(rows, width)[:, 1:], hval)


def _combination_table(words, k):
    """All k-subsets of ``words`` as the columns of a (k, rows) array, in ``words``' dtype.

    The subsets are in lexicographic order of the words' positions.
    """
    m = len(words)
    # built from the last position back: the tails from position j on are
    # the (k-j)-subsets of positions j..m-1, each a first position f
    # followed by the last C(m-1-f, k-j-1) of the next tails, those whose
    # first position exceeds f, so no intermediate table outgrows the
    # last.  Position k holds the one empty tail
    tab = np.empty((0, 1), dtype=words.dtype)
    for j in range(k - 1, -1, -1):
        width = tab.shape[1]
        firsts = range(j, m - k + j + 1)
        sizes = [math.comb(m - 1 - f, k - j - 1) for f in firsts]
        out = np.empty((k - j, sum(sizes)), dtype=words.dtype)
        pos = 0
        for f, size in zip(firsts, sizes):
            end = pos + size
            out[0, pos:end] = words[f]
            out[1:, pos:end] = tab[:, width - size :]
            pos = end
        tab = out
    return tab
