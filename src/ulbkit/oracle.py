"""Independent ground truth: explicit codes, energies, and searches.

Everything here is deliberately decoupled from the bound machinery:
energies are direct pair sums over explicit configurations, design
strength comes from the raw moment sums, the sphere minimizer is a
seeded projected gradient descent (an upper estimate only), and the
Hamming search is exhaustive over translation classes.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import orthopoly, pmspace
from .errors import DomainError, ParameterError
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
    t = pairwise_t(code)
    iu = np.triu_indices(len(pts), k=1)
    if len(pts) > 1 and np.any(t[iu] > _COINCIDENT):
        raise ParameterError("duplicate points in code")
    return code


def pairwise_t(code: Code) -> np.ndarray:
    """Matrix of substituted distances t(x, y) for all pairs."""
    sp, pts = code.space, code.points
    if sp.family is Family.SPHERE:
        return np.clip(pts @ pts.T, -1.0, 1.0)
    if sp.family is Family.HAMMING:
        d = np.count_nonzero(pts[:, None, :] != pts[None, :, :], axis=2)
        return 1.0 - 2.0 * d / sp.n
    if sp.family is Family.JOHNSON:
        inter = pts @ pts.T
        d = sp.w - inter
        return 1.0 - 2.0 * d / sp.w
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


def energy(space: SpaceDescriptor, code: Code, h: Potential, convention: str = "sum") -> float:
    """Pair-sum energy of a code; "mean" divides the sum by the size.

    Raises DomainError on coincident points, where singular potentials
    have no finite value and codes stop being sets.
    """
    if convention not in ("sum", "mean"):
        raise ParameterError(f"unknown energy convention {convention!r}")
    if code.size < 2:
        return 0.0
    t = pairwise_t(code)
    iu = np.triu_indices(code.size, k=1)
    vals = t[iu]
    if np.any(vals > _COINCIDENT):
        raise DomainError("code contains coincident points")
    total = 2.0 * float(np.sum(h(vals)))
    return total if convention == "sum" else total / code.size


def separation(space: SpaceDescriptor, code: Code):
    """Extreme pairwise substituted distances (s, ell, u); s = u.

    s is the separation max t(x,y); ell the minimum; u repeats s under
    the name used for design-structure queries.
    """
    if code.size < 2:
        raise ParameterError("separation needs at least two points")
    t = pairwise_t(code)
    iu = np.triu_indices(code.size, k=1)
    s = float(np.max(t[iu]))
    ell = float(np.min(t[iu]))
    return s, ell, s


def design_strength(space: SpaceDescriptor, code: Code, tau_max: int) -> int:
    """Largest tau <= tau_max with vanishing moment sums of orders 1..tau."""
    cap = space.max_degree
    if cap is not None and tau_max > cap:
        raise ParameterError(f"tau_max {tau_max} exceeds the degree cap {cap}")
    t = pairwise_t(code)
    iu = np.triu_indices(code.size, k=1)
    vals = t[iu]
    M = code.size
    tol = 1e-8 * M * M
    q = orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, tau_max), tau_max, vals)
    # full double sums: M diagonal terms Q_i(1)=1 plus both pair orders
    totals = M + 2.0 * np.sum(q, axis=1)
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
    a certificate of optimality.  Raises ParameterError for n < 2,
    M < 2, restarts < 1 or iterations < 1.

    Returns
    -------
    code : Code
        The best configuration found.
    value : float
        Its energy (sum convention).
    info : dict
        ``restart_energies``: the final energy of each restart, in the
        order of the starts; ``iterations_best``: the iterations the
        best restart took.
    """
    if n < 2 or M < 2:
        raise ParameterError("need n >= 2 and M >= 2")
    if restarts < 1 or iterations < 1:
        raise ParameterError(
            f"need restarts >= 1 and iterations >= 1, got {restarts} and {iterations}"
        )
    space = pmspace.make_space("sphere", n=n)
    rng = np.random.default_rng(seed)
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
    return code, float(vals[best]), info


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
# 8192 rows holds 0.4 MB of index columns, sums and temporaries, and the
# whole H(6,2) search peaks at 0.77 MB, its table (0.11 MB) and h tables
# (0.09 MB) included
_CHUNK = 1 << 13

# the largest combination table built: 64 MiB.  Only codes of nearly all
# 2^n words have larger ones (H(6,2) M=59 would take 352 MiB, H(9,2)
# M=510 126 MiB; H(5,2) M=25 takes 45 MiB), and their searches would
# need millions of numpy passes anyway
_TABLE_BYTES = 1 << 26

# the most pair terms a search sums: C(2^n - 1, M - 1) subsets with the
# first word pinned, C(M, 2) pairs each.  H(6,2) M=5 has 6.0e6 (20 ms),
# H(8,2) M=255 8.3e6 (0.2 s) and H(9,2) M=511 6.7e7 (1 s); H(10,2)
# M=1023 has 5.3e8 and H(12,2) M=4095 3.4e10 (~2 min), though both pass
# the count and the table size
_PAIR_TERMS = 10**8


def exhaustive_hamming(n: int, M: int, h: Potential, convention: str = "sum"):
    """Exact minimal energy over all M-subsets of the binary cube.

    Translation symmetry pins the first word at zero, and the subsets
    are visited in lexicographic order.  Those whose second word is w
    are w followed by a suffix of one table, the (M-2)-subsets of the
    words 2..2^n-1 in lexicographic order, built once per call.  The
    suffixes, one after another, are summed in passes of at most
    ``_CHUNK`` rows, so a long suffix spans several passes and a pass
    packs several short ones; each row is summed pair by pair in the
    order of a pair loop, so each energy is the float sum that loop
    gives.  The first subset of least energy is returned.  Raises
    ParameterError for n < 2, M outside 2..2^n, an unknown convention,
    an instance with C(2^n, M) above ten million, one whose table
    would take more than 64 MiB, or one that would sum more than 1e8 pair
    terms.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    total = 1 << n
    if M < 2 or M > total:
        raise ParameterError(f"need 2 <= M <= {total}, got M={M}")
    if convention not in ("sum", "mean"):
        raise ParameterError(f"unknown energy convention {convention!r}")
    if _comb_above(total, M, 10_000_000):
        raise ParameterError(f"instance too large: C(2^{n}, {M}) > 1e7")
    # each binomial below is at most C(2^n, M), so exact and cheap from here
    table_bytes = math.comb(total - 2, M - 2) * (M - 2) * np.min_scalar_type(total - 1).itemsize
    if table_bytes > _TABLE_BYTES:
        raise ParameterError(
            f"instance too large: its table of {M - 2}-subsets would take "
            f"{table_bytes / 2**20:.0f} MiB > {_TABLE_BYTES >> 20} MiB"
        )
    terms = math.comb(total - 1, M - 1) * math.comb(M, 2)
    if terms > _PAIR_TERMS:
        raise ParameterError(
            f"instance too large: its search would sum {terms:.2e} pair terms > {_PAIR_TERMS:.0e}"
        )
    space = pmspace.make_space("hamming", n=n, q=2)
    hval = [float(h(1.0 - 2.0 * d / n)) for d in range(1, n + 1)]
    # h of the distance between two words, indexed by their xor; distinct
    # words never have xor 0
    bits = np.array([w.bit_count() for w in range(total)])
    hxor = np.array([math.inf] + hval)[bits]
    if M == 2:
        vals = np.zeros(total - 1)
        vals += hxor[1:]
        at = int(np.argmin(vals))
        best_val, best_set = float(vals[at]), [0, at + 1]
    else:
        best_val, best_set = _search_table(hxor, M)
    pts = [[(wd >> i) & 1 for i in range(n - 1, -1, -1)] for wd in best_set]
    code = make_code(space, pts)
    total_energy = 2.0 * best_val
    return code, (total_energy if convention == "sum" else total_energy / M)


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


def _search_table(hxor, M):
    """Least pair sum of hxor over the M-sets (0, w1, *row), M >= 3, and the first such set.

    The rows are the (M-2)-subsets of the words above w1, in
    lexicographic order.
    """
    total = len(hxor)
    n = total.bit_length() - 1
    # words above w1 >= 1, so the table starts at word 2
    tab = _combination_table(2, total, M - 2)
    w1s = range(1, total - M + 2)
    # the first row of the suffix whose entries all exceed w1; keys of the
    # table's dtype spare searchsorted a widened copy of the table
    starts = np.searchsorted(tab[0], np.array(w1s, dtype=tab.dtype), side="right")
    # a pass holds each word w of a row as (w1 << n) | w, its row's w1 in
    # the high bits, so one gather looks up a term of w1 and w, and the
    # xor of two such words is the xor of the words.  At that index h0 is
    # h(w), h1 is h(w1 ^ w), and first is 0.0 + h(w1) + h(w), the sum of
    # a row's first two terms.  The three tables take 1.5 MB at H(8,2)
    # M=3, the most words and w1s searched
    every_w1 = np.arange(w1s[-1] + 1)[:, None]
    h0 = np.tile(hxor, len(every_w1))
    h1 = hxor[every_w1 ^ np.arange(total)].ravel()
    first = ((0.0 + hxor[every_w1]) + hxor).ravel()
    best_val, best_set = math.inf, None
    for segments in _passes(w1s, starts.tolist(), tab.shape[1]):
        cols = np.empty((M - 2, sum(b - a for _, a, b in segments)), dtype=np.intp)
        end = 0
        for w1, a, b in segments:
            np.bitwise_or(tab[:, a:b], np.intp(w1 << n), out=cols[:, end : end + b - a])
            end += b - a
        # the pair terms in the (i, j) order of a pair loop over
        # (0, w1, *row): (0, w1), (0, row), (w1, row), then within row
        vals = first[cols[0]]
        for c in cols[1:]:
            vals += h0[c]
        for c in cols:
            vals += h1[c]
        for i, j in itertools.combinations(range(M - 2), 2):
            vals += hxor[cols[i] ^ cols[j]]
        at = int(np.argmin(vals))
        if vals[at] < best_val:
            row = cols[:, at].tolist()
            best_val = float(vals[at])
            best_set = [0, row[0] >> n, *(w & (total - 1) for w in row)]
    return best_val, best_set


def _passes(w1s, starts, rows):
    """The suffixes of every w1, in order, cut into passes of at most ``_CHUNK`` rows.

    Suffix w1 is the rows ``starts[i]..rows-1`` of the table.  Each pass
    is a list of (w1, first row, end row) segments, so a long suffix
    spans several passes and a pass packs several short ones.
    """
    segments, size = [], 0
    for w1, a in zip(w1s, starts):
        while a < rows:
            b = min(rows, a + _CHUNK - size)
            segments.append((w1, a, b))
            size += b - a
            a = b
            if size == _CHUNK:
                yield segments
                segments, size = [], 0
    if segments:
        yield segments


def _combination_table(lo, hi, k):
    """All k-subsets of lo..hi-1 in lexicographic order, as the columns of a (k, rows) array.

    The entries take the narrowest unsigned dtype that holds hi - 1.
    """
    dtype = np.min_scalar_type(hi - 1)
    # built from the last position back: the tails from position j on are
    # the (k-j)-subsets of lo+j..hi-1, each a first word f followed by the
    # suffix of the next tails whose first word exceeds f, so no
    # intermediate table outgrows the last
    tab = np.arange(lo + k - 1, hi, dtype=dtype)[None, :]
    for j in range(k - 2, -1, -1):
        firsts = range(lo + j, hi - k + j + 1)
        keys = np.array(firsts, dtype=dtype)
        starts = np.searchsorted(tab[0], keys, side="right").tolist()
        size = sum(tab.shape[1] - s for s in starts)
        out = np.empty((k - j, size), dtype=dtype)
        pos = 0
        for f, s in zip(firsts, starts):
            end = pos + tab.shape[1] - s
            out[0, pos:end] = f
            out[1:, pos:end] = tab[:, s:]
            pos = end
        tab = out
    return tab
