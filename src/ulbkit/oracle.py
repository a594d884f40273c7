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


def minimize_sphere(
    n: int,
    M: int,
    h: Potential,
    restarts: int = 20,
    seed: int = 0,
    iterations: int = 4000,
):
    """Best local minimum of sphere energy from seeded random starts.

    Projected gradient descent with an adaptive step; deterministic for
    a fixed seed.  This is an upper estimate of the minimal energy only,
    never a certificate of optimality.

    Returns
    -------
    code : Code
    value : float
        Energy of the best configuration found (sum convention).
    info : dict
        Per-restart energies and convergence data.
    """
    if n < 2 or M < 2:
        raise ParameterError("need n >= 2 and M >= 2")
    space = pmspace.make_space("sphere", n=n)
    rng = np.random.default_rng(seed)
    best = None
    history = []
    for _ in range(max(1, restarts)):
        x = rng.normal(size=(M, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        x, val, iters = _descend(x, h, iterations)
        history.append(val)
        if best is None or val < best[1]:
            best = (x, val, iters)
    code = make_code(space, best[0])
    info = {"restart_energies": history, "iterations_best": best[2]}
    return code, best[1], info


def _descend(x, h, iterations):
    step = 0.05
    val = _sphere_energy(x, h)
    it = -1
    for it in range(iterations):
        g = x @ x.T
        np.fill_diagonal(g, -1.0)  # self-terms must not blow up riesz
        dh = h.deriv(np.clip(g, -1.0, 1.0 - 1e-12), 1)
        np.fill_diagonal(dh, 0.0)
        grad = 2.0 * dh @ x
        # tangential part; descent stops when it vanishes
        tang = grad - np.sum(grad * x, axis=1)[:, None] * x
        gnorm = np.max(np.linalg.norm(tang, axis=1))
        if gnorm < 1e-12:
            break
        cand = x - step * tang
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        cand_val = _sphere_energy(cand, h)
        if cand_val < val:
            x, val = cand, cand_val
            step = min(step * 1.2, 1.0)
        else:
            step *= 0.5
            if step < 1e-16:
                break
    return x, val, it + 1


def _sphere_energy(x, h):
    g = np.clip(x @ x.T, -1.0, 1.0 - 1e-12)
    iu = np.triu_indices(len(x), k=1)
    return 2.0 * float(np.sum(h(g[iu])))


def exhaustive_hamming(n: int, M: int, h: Potential, convention: str = "sum"):
    """Exact minimal energy over all M-subsets of the binary cube.

    Translation symmetry pins the first word at zero.  Refuses
    instances with C(2^n, M) above ten million.
    """
    total = 1 << n
    if math.comb(total, M) > 10_000_000:
        raise ParameterError(f"instance too large: C(2^{n}, {M}) > 1e7")
    if M < 2 or M > total:
        raise ParameterError(f"need 2 <= M <= {total}")
    space = pmspace.make_space("hamming", n=n, q=2)
    hval = [float(h(1.0 - 2.0 * d / n)) for d in range(1, n + 1)]
    best_val, best_set = math.inf, None
    for rest in itertools.combinations(range(1, total), M - 1):
        words = (0,) + rest
        val = 0.0
        for i in range(M):
            for j in range(i + 1, M):
                val += hval[(words[i] ^ words[j]).bit_count() - 1]
                if val >= best_val:
                    break
            else:
                continue
            break
        else:
            if val < best_val:
                best_val, best_set = val, words
    pts = [[(wd >> i) & 1 for i in range(n - 1, -1, -1)] for wd in best_set]
    code = make_code(space, pts)
    total_energy = 2.0 * best_val
    return code, (total_energy if convention == "sum" else total_energy / M)
