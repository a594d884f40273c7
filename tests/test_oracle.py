import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ulbkit import levenshtein, oracle, orthopoly, pmspace
from ulbkit.errors import DomainError, ParameterError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb

RIESZ1 = builtin("riesz", p=1)
S3 = make_space("sphere", n=3)


def test_icosahedron_inner_products():
    code = oracle.named_config(S3, "icosahedron")
    assert code.size == 12
    t = oracle.pairwise_t(code)
    off = t[np.triu_indices(12, k=1)]
    vals = {round(v, 9) for v in off}
    assert vals == {round(1 / math.sqrt(5), 9), round(-1 / math.sqrt(5), 9), -1.0}


def test_simplex_gram():
    for n in (3, 6):
        code = oracle.named_config(make_space("sphere", n=n), "simplex")
        t = oracle.pairwise_t(code)
        off = t[np.triu_indices(n + 1, k=1)]
        assert np.allclose(off, -1 / n, atol=1e-10)


def test_extended_hamming_code():
    space = make_space("hamming", n=8, q=2)
    code = oracle.named_config(space, "extended_hamming_8")
    assert code.size == 16
    d = 4 * (1 - oracle.pairwise_t(code))  # back to Hamming distance: n(1-t)/2
    iu = np.triu_indices(16, k=1)
    assert d[iu].min() == pytest.approx(4.0)


@pytest.mark.parametrize("n,q,M", [(8, 2, 16), (7, 3, 40), (5, 4, 2)])
def test_hamming_pairwise_t_equals_the_broadcast_count(n, q, M):
    # the (M, M, n) form the row-by-row count replaced, bit for bit
    words = np.random.default_rng(n).permutation(q**n)[:M]
    pts = (words[:, None] // q ** np.arange(n)) % q
    code = oracle.make_code(make_space("hamming", n=n, q=q), pts)
    d = np.count_nonzero(pts[:, None, :] != pts[None, :, :], axis=2)
    assert oracle.pairwise_t(code).tobytes() == (1.0 - 2.0 * d / n).tobytes()


def test_hamming_pairwise_t_of_the_full_cube_stays_small():
    # H(11,2) M=2048: the (M, M) float result takes 32 MB; an (M, M, n)
    # boolean temporary alone would take 44 MB
    n, M = 11, 2048
    pts = (np.arange(M)[:, None] >> np.arange(n)) & 1
    code = oracle.make_code(make_space("hamming", n=n, q=2), pts)
    tracemalloc.start()
    try:
        t = oracle.pairwise_t(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * t.nbytes
    assert np.array_equal(np.sort(t[0]), np.sort(1.0 - 2.0 * pts.sum(axis=1) / n))


def test_energy_examples():
    tet = oracle.named_config(S3, "simplex")
    assert oracle.energy(S3, tet, RIESZ1) == pytest.approx(12 * (3 / 8) ** 0.5, rel=1e-12)
    two = oracle.make_code(S3, [[0, 0, 1], [0, 0, -1]])
    for h in (RIESZ1, builtin("gaussian", c=2)):
        assert oracle.energy(S3, two, h) == pytest.approx(2 * h(-1.0), rel=1e-13)


def test_duplicate_points_rejected():
    with pytest.raises(ParameterError):
        oracle.make_code(S3, [[0, 0, 1], [0, 0, 1]])
    # force a coincident pair through the dataclass to hit the energy guard
    code = oracle.Code(S3, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(DomainError):
        oracle.energy(S3, code, RIESZ1)


def test_make_code_tells_close_points_from_coincident_ones():
    # 1e-4 rad apart, t = 1 - 5e-9, is a code; 1e-7 rad apart, t = 1 - 5e-15,
    # is refused as one point twice
    def pair(angle):
        return [[1.0, 0.0, 0.0], [math.cos(angle), math.sin(angle), 0.0]]

    code = oracle.make_code(S3, pair(1e-4))
    assert 1 - oracle.separation(S3, code)[0] == pytest.approx(5e-9, rel=1e-6)
    with pytest.raises(ParameterError, match="duplicate points"):
        oracle.make_code(S3, pair(1e-7))


def test_separation_examples():
    cp = oracle.named_config(S3, "cross_polytope")
    assert oracle.separation(S3, cp) == pytest.approx((0.0, -1.0))
    simp = oracle.named_config(make_space("sphere", n=5), "simplex")
    s, ell = oracle.separation(make_space("sphere", n=5), simp)
    assert s == pytest.approx(-0.2, abs=1e-12)
    assert ell == pytest.approx(-0.2, abs=1e-12)
    h52 = make_space("hamming", n=5, q=2)
    rep = oracle.named_config(h52, "repetition")
    assert oracle.separation(h52, rep)[0] == -1.0


@pytest.mark.parametrize(
    "name,strength",
    [("simplex", 2), ("cross_polytope", 3), ("cube", 3), ("icosahedron", 5)],
)
def test_design_strength_sphere(name, strength):
    code = oracle.named_config(S3, name)
    assert oracle.design_strength(S3, code) == strength


def test_design_strength_finite():
    h82 = make_space("hamming", n=8, q=2)
    assert oracle.design_strength(h82, oracle.named_config(h82, "extended_hamming_8")) == 3
    h62 = make_space("hamming", n=6, q=2)
    assert oracle.design_strength(h62, oracle.named_config(h62, "parity_check")) == 5
    assert oracle.design_strength(h62, oracle.named_config(h62, "repetition")) == 1
    j73 = make_space("johnson", n=7, w=3)
    assert oracle.design_strength(j73, oracle.named_config(j73, "fano")) == 2
    j84 = make_space("johnson", n=8, w=4)
    assert oracle.design_strength(j84, oracle.named_config(j84, "steiner_quadruple_8")) == 3


def test_design_strength_checks_the_orders_the_design_bound_allows():
    # a tau-design of M points has M >= D(tau): one point is no 1-design
    # (D(1) = 2); the tight 20-gon is tested through the CLI
    assert oracle.design_strength(S3, oracle.make_code(S3, [[1.0, 0.0, 0.0]])) == 0
    # the whole H(7,2) is a design of every order up to the cap 7, where D(13) = D(14) = 128
    h72 = make_space("hamming", n=7, q=2)
    cube = oracle.make_code(h72, list(itertools.product((0, 1), repeat=7)))
    assert oracle.design_strength(h72, cube) == 7


def test_design_strength_of_a_large_design_sums_its_pairs_in_blocks():
    # the 400-gon is a 399-design: Q_0..Q_399 at all its 79800 pairs at once
    # peaked at 488 MiB (two 244 MiB tables), and a block's tables take 8 MiB
    s1 = make_space("sphere", n=2)
    angles = 2 * np.pi * np.arange(400) / 400
    gon = oracle.make_code(s1, np.column_stack([np.cos(angles), np.sin(angles)]))
    tracemalloc.start()
    try:
        assert oracle.design_strength(s1, gon) == 399
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_unknown_config_rejected():
    with pytest.raises(ParameterError):
        oracle.named_config(S3, "dodecahedron")


@pytest.mark.parametrize(
    "space, points, message",
    [
        (S3, [[1.0, 0.0]], "sphere points must be rows of length 3"),
        (S3, [[1.0, 1.0, 0.0]], "sphere points must be unit vectors"),
        (make_space("hamming", n=4, q=3), [[0, 1, 2]], "Hamming words must have length 4"),
        (make_space("hamming", n=4, q=3), [[0, 1, 2, 3]],
         re.escape("Hamming symbols must lie in 0..2")),
        (make_space("johnson", n=6, w=2), [[1, 1, 0, 0, 0]], "Johnson words must have length 6"),
        (make_space("johnson", n=6, w=2), [[1, 1, 1, 0, 0, 0]],
         "Johnson words must be binary of weight 2"),
        (make_space("projective", n=3, field_dim=4), np.zeros((2, 3)),
         re.escape("quaternionic points must have shape (M, 3, 2)")),
        (make_space("projective", n=3, field_dim=2), [[1.0, 0.0]],
         "projective points must be rows of length 3"),
        (make_space("projective", n=3, field_dim=2), [[1.0, 1j, 0.0]],
         "projective representatives must be unit vectors"),
        (make_space("projective", n=3, field_dim=1), [[1.0, 1.0, 0.0]],
         "projective representatives must be unit vectors"),
        # a NaN fails every check; a cast to int would turn 0.5 or 1.9 into another word
        (S3, [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]], "sphere points must be unit vectors"),
        (make_space("projective", n=3, field_dim=2), [[np.nan, 0.0, 0.0]],
         "projective representatives must be unit vectors"),
        (make_space("projective", n=2, field_dim=4), [[[np.nan, 0], [0, 0]]],
         "projective representatives must be unit vectors"),
        (make_space("hamming", n=4, q=3), [[0, 1, 0.5, 2]],
         re.escape("Hamming symbols must lie in 0..2 and be integers")),
        (make_space("hamming", n=4, q=3), [[0, 1, 1.9, 2]], "and be integers"),
        (make_space("hamming", n=4, q=3), [[0, 1, np.nan, 2]], "and be integers"),
        (make_space("johnson", n=6, w=2), [[1.9, 1, 0, 0, 0, 0]],
         "Johnson words must be binary of weight 2"),
        (make_space("johnson", n=6, w=2), [[np.nan, 1, 1, 0, 0, 0]],
         "Johnson words must be binary of weight 2"),
        (S3, [[1.0, 0.0, 0.0], [0.0, 1.0]], "points must be a regular array of numbers"),
        (make_space("hamming", n=3, q=2), [[0, 1, 1], [0, 1]],
         "points must be a regular array of numbers"),
        # a cast to float would drop the imaginary part
        (S3, np.array([[1.0, 0.5j, 0.0]]), "points in a real space must not be complex"),
        (make_space("projective", n=3, field_dim=1), [[1.0, 0.5j, 0.0]],
         "points in a real space must not be complex"),
    ],
    ids=["sphere-length", "sphere-norm", "hamming-length", "hamming-symbol", "johnson-length",
         "johnson-weight", "quaternionic-shape", "projective-length", "complex-norm", "real-norm",
         "sphere-nan", "complex-nan", "quaternionic-nan", "hamming-half", "hamming-1.9",
         "hamming-nan", "johnson-1.9", "johnson-nan", "sphere-ragged", "hamming-ragged",
         "sphere-complex", "real-projective-complex"],
)
def test_make_code_refuses_points_outside_the_space(space, points, message):
    with pytest.raises(ParameterError, match=message):
        oracle.make_code(space, points)


def test_make_code_takes_integral_floats_as_words():
    h43, j62 = make_space("hamming", n=4, q=3), make_space("johnson", n=6, w=2)
    for space, words in ((h43, [[0, 1, 2, 0], [2, 2, 1, 0]]), (j62, [[1, 1, 0, 0, 0, 0]])):
        code = oracle.make_code(space, np.array(words, dtype=float))
        assert code.points.dtype == int
        assert np.array_equal(code.points, oracle.make_code(space, words).points)


def test_energy_separation_and_strength_refusals():
    one = oracle.make_code(S3, [[1.0, 0.0, 0.0]])
    # one point has no pairs
    assert oracle.energy(S3, one, builtin("riesz", p=1)) == 0.0
    with pytest.raises(ParameterError, match="separation needs at least two points"):
        oracle.separation(S3, one)
    h72 = make_space("hamming", n=7, q=2)
    # D(2) = 8 > 2: no order past 1 is checked, and none past the cap 7
    assert oracle.design_strength(h72, oracle.named_config(h72, "repetition")) == 1
    with pytest.raises(ParameterError, match="need n >= 2 and M >= 2"):
        oracle.minimize_sphere(1, 3, builtin("riesz", p=1))


@pytest.mark.parametrize("angle, strength", [(1e-4, 5), (1e-3, 1)])
def test_a_design_moved_off_its_moments_loses_strength(angle, strength):
    # one icosahedron vertex turned by the angle: the moment sums of orders
    # 1..5, over M^2, grow to about 1e-9 at 1e-4 rad and to 7e-9..1e-7 at
    # 1e-3 rad, against the tolerance 1e-8
    points = oracle.named_config(S3, "icosahedron").points.copy()
    x = points[0]
    v = np.cross(x, [0.3, 0.5, 0.7])
    points[0] = math.cos(angle) * x + math.sin(angle) * v / np.linalg.norm(v)
    assert oracle.design_strength(S3, oracle.make_code(S3, points)) == strength


def test_a_code_is_measured_only_in_its_own_space():
    # the pairs come from the code's space and the Q-system or potential
    # from the given one: a mismatch would mix two spaces
    h82 = make_space("hamming", n=8, q=2)
    code = oracle.named_config(h82, "extended_hamming_8")
    assert oracle.design_strength(h82, code) == 3
    for call in (lambda: oracle.energy(S3, code, builtin("gaussian", c=1)),
                 lambda: oracle.separation(S3, code),
                 lambda: oracle.design_strength(S3, code)):
        with pytest.raises(ParameterError, match=r"the code lies in H\(8,2\), not in S\^2"):
            call()
    # a space of the same family with another dimension is another space
    with pytest.raises(ParameterError, match=r"the code lies in S\^2, not in S\^3"):
        oracle.energy(make_space("sphere", n=4), oracle.named_config(S3, "icosahedron"),
                      builtin("gaussian", c=1))


def _random_codes():
    """One code per family and field, drawn from a seeded generator."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(9, 4))
    yield make_space("sphere", n=4), x / np.linalg.norm(x, axis=1)[:, None]
    words = rng.permutation(3**5)[:30]
    yield make_space("hamming", n=5, q=3), (words[:, None] // 3 ** np.arange(5)) % 3
    yield make_space("hamming", n=8, q=2), oracle._rm_1_3_words()
    yield make_space("johnson", n=8, w=4), oracle.named_config(
        make_space("johnson", n=8, w=4), "steiner_quadruple_8").points
    ones = np.array([c for c in itertools.combinations(range(10), 5)])[rng.permutation(252)[:40]]
    johnson = np.zeros((40, 10), dtype=int)
    np.put_along_axis(johnson, ones, 1, axis=1)
    yield make_space("johnson", n=10, w=5), johnson
    for field_dim, shape in ((1, (7, 3)), (2, (8, 3)), (4, (6, 2, 2))):
        z = rng.normal(size=shape) + (1j * rng.normal(size=shape) if field_dim > 1 else 0)
        z /= np.sqrt(np.sum(np.abs(z) ** 2, axis=tuple(range(1, z.ndim)), keepdims=True))
        yield make_space("projective", n=shape[1], field_dim=field_dim), z


def _distance_t_reference(code):
    """The (M, M) matrix t of a Hamming or Johnson code by the broadcast formulas."""
    sp, pts = code.space, code.points
    if sp.family is pmspace.Family.HAMMING:
        d = np.count_nonzero(pts[:, None, :] != pts[None, :, :], axis=2)
        return 1.0 - 2.0 * d / sp.n
    return 1.0 - 2.0 * (sp.w - pts @ pts.T) / sp.w


def test_pair_values_are_the_upper_triangle_bit_for_bit():
    # sphere and projective codes: energy, separation and design strength
    # read the pairs i < j in C order, each with the bits of pairwise_t's
    # entry; finite codes: pairwise_t equals the broadcast formulas
    for space, pts in _random_codes():
        code = oracle.make_code(space, pts)
        t = oracle.pairwise_t(code)
        if space.family in (pmspace.Family.HAMMING, pmspace.Family.JOHNSON):
            assert t.tobytes() == _distance_t_reference(code).tobytes(), space.label()
            continue
        vals = t[np.triu_indices(code.size, k=1)]
        got, counts = oracle._pair_values(code)
        assert counts is None and got.tobytes() == vals.tobytes(), space.label()
        energy = 2.0 * float(np.sum(RIESZ1(vals)))
        assert oracle.energy(space, code, RIESZ1) == energy
        assert oracle.separation(space, code) == (vals.max(), vals.min())
    for M in (0, 1):
        code = oracle.Code(S3, np.eye(3)[:M])
        assert oracle._pair_values(code)[0].shape == (0,)


def _finite_codes():
    """Seeded random Johnson and q-ary Hamming codes, and the named finite configurations."""
    rng = np.random.default_rng(31)
    for n, q, M in ((5, 3, 30), (7, 3, 60), (4, 5, 40), (9, 2, 100)):
        words = rng.permutation(q**n)[:M]
        yield make_space("hamming", n=n, q=q), (words[:, None] // q ** np.arange(n)) % q
    for n, w, M in ((10, 5, 40), (9, 3, 30), (12, 4, 80)):
        ones = np.array(list(itertools.combinations(range(n), w)))
        ones = ones[rng.permutation(len(ones))[:M]]
        words = np.zeros((M, n), dtype=int)
        np.put_along_axis(words, ones, 1, axis=1)
        yield make_space("johnson", n=n, w=w), words
    for family, params, name in (
        ("hamming", {"n": 8, "q": 2}, "extended_hamming_8"),
        ("hamming", {"n": 6, "q": 2}, "parity_check"),
        ("hamming", {"n": 6, "q": 2}, "repetition"),
        ("johnson", {"n": 7, "w": 3}, "fano"),
        ("johnson", {"n": 8, "w": 4}, "steiner_quadruple_8"),
    ):
        space = make_space(family, **params)
        yield space, oracle.named_config(space, name).points


def test_finite_codes_match_their_pair_sums():
    # the distance distribution against every pair of the broadcast matrix:
    # the energy within rounding, the separation bit for bit, and the same
    # design strength as the moment sums over all pairs
    for space, pts in _finite_codes():
        code = oracle.make_code(space, pts)
        vals = _distance_t_reference(code)[np.triu_indices(code.size, k=1)]
        for h in (RIESZ1, builtin("gaussian", c=1)):
            want = 2.0 * float(np.sum(h(vals)))
            assert oracle.energy(space, code, h) == pytest.approx(want, rel=1e-14, abs=0)
        assert oracle.separation(space, code) == (vals.max(), vals.min())
        tau = max(t for t in range(space.max_degree + 1)
                  if t == 0 or levenshtein.exact_design_bound(space, t) <= code.size)
        q = orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, tau), tau, vals)
        totals = code.size + 2.0 * np.sum(q, axis=1)
        want = next((i - 1 for i in range(1, tau + 1)
                     if abs(totals[i]) > 1e-8 * code.size**2), tau)
        assert oracle.design_strength(space, code) == want, space.label()


def test_pair_sums_of_the_full_cube_stay_small():
    # H(11,2) M=2048: its C(M, 2) pair values alone would take 16 MiB, and
    # building them peaked at 48.0 (energy), 18.0 (make_code) and 16.1 MiB
    # (separation); the distance distribution takes O(M n) scratch
    n, M = 11, 2048
    space = make_space("hamming", n=n, q=2)
    pts = (np.arange(M)[:, None] >> np.arange(n)) & 1
    code = oracle.make_code(space, pts)
    for call in (
        lambda: oracle.energy(space, code, RIESZ1),
        lambda: oracle.make_code(space, pts),
        lambda: oracle.separation(space, code),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


def test_projective_codes():
    cp3 = make_space("projective", n=3, field_dim=2)
    lines = np.eye(3, dtype=complex)
    code = oracle.make_code(cp3, lines)
    t = oracle.pairwise_t(code)
    assert np.allclose(t[np.triu_indices(3, 1)], -1.0)
    assert oracle.energy(cp3, code, RIESZ1) == pytest.approx(6 * RIESZ1(-1.0))
    # a representative times a phase is the same line
    phased = lines.copy()
    phased[1] *= np.exp(1j * 0.7)
    assert np.allclose(oracle.pairwise_t(oracle.make_code(cp3, phased)), t)


def test_quaternionic_representatives():
    hp2 = make_space("projective", n=2, field_dim=4)
    pts = np.zeros((2, 2, 2), dtype=complex)
    pts[0, 0, 0] = 1.0  # line through (1, 0)
    pts[1, 1, 1] = 1.0  # line through (0, j)
    code = oracle.make_code(hp2, pts)
    t = oracle.pairwise_t(code)
    assert t[0, 1] == pytest.approx(-1.0)


def test_minimize_sphere_finds_known_optima():
    cases = [
        (4, 12 * (3 / 8) ** 0.5),
        (6, 6 * RIESZ1(-1.0) + 24 * RIESZ1(0.0)),
    ]
    for M, expected in cases:
        _, val, info = oracle.minimize_sphere(3, M, RIESZ1, restarts=10, seed=4)
        assert val == pytest.approx(expected, rel=1e-6)
        assert len(info["restart_energies"]) == 10
    code, val, _ = oracle.minimize_sphere(3, 2, RIESZ1, restarts=4, seed=0)
    assert val == pytest.approx(2 * RIESZ1(-1.0), rel=1e-8)
    # the pentagonal bipyramid: the poles at distance 2, ten pole-to-ring
    # pairs at sqrt(2), and the ring's five edges and five diagonals
    s36, s72 = math.sin(math.radians(36)), math.sin(math.radians(72))
    bipyramid = 2 * (1 / 2 + 10 / math.sqrt(2) + 5 / (2 * s36) + 5 / (2 * s72))
    _, val, info = oracle.minimize_sphere(3, 7, RIESZ1, restarts=20, seed=2024)
    assert val == pytest.approx(bipyramid, rel=2e-15)
    assert info["iterations_best"] <= 200


def test_minimize_sphere_refuses_no_restarts_or_iterations():
    for restarts in (0, -3):
        with pytest.raises(ParameterError, match=f"need restarts >= 1, got {restarts}$"):
            oracle.minimize_sphere(3, 4, RIESZ1, restarts=restarts)
    # the cap on the steps of a restart is the library's own
    with pytest.raises(TypeError):
        oracle.minimize_sphere(3, 4, RIESZ1, iterations=10)


@pytest.mark.parametrize("name, value", [("n", 3.5), ("M", 4.5), ("restarts", 1.5)])
def test_minimize_sphere_refuses_non_integer_sizes(name, value):
    # M and restarts raised a bare TypeError from numpy, n the sphere's message
    sizes = {"n": 3, "M": 4, "restarts": 2, name: value}
    with pytest.raises(ParameterError, match=f"minimize_sphere needs an integer {name}, got {value}"):
        oracle.minimize_sphere(h=RIESZ1, **sizes)


@pytest.mark.parametrize("seed", [1.5, 2.5, "3", -1, -2.0, math.nan, [1], None])
def test_minimize_sphere_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # 1.5 and "3" raised numpy's bare TypeError, -1 a bare ValueError, and
    # None drew fresh entropy, so the result did not depend on the arguments
    with pytest.raises(ParameterError, match=f"minimize_sphere needs .*seed.*got {re.escape(repr(seed))}"):
        oracle.minimize_sphere(3, 4, RIESZ1, restarts=2, seed=seed)


def test_minimize_sphere_takes_an_integral_float_seed_as_its_integer(monkeypatch):
    monkeypatch.setattr(oracle, "_ITERATIONS", 10)
    runs = [oracle.minimize_sphere(3, 4, RIESZ1, restarts=2, seed=seed)
            for seed in (2, 2.0, np.int64(2))]
    assert len({run[1] for run in runs}) == 1


@pytest.mark.parametrize("name, value", [("n", 3.5), ("M", 2.5)])
def test_exhaustive_refuses_non_integer_sizes(name, value):
    sizes = {"n": 4, "M": 3, name: value}
    with pytest.raises(ParameterError, match=f"exhaustive_hamming needs an integer {name}, got {value}"):
        oracle.exhaustive_hamming(h=RIESZ1, **sizes)


@pytest.mark.parametrize("h", [RIESZ1, builtin("gaussian", c=1)], ids=["riesz", "gaussian"])
def test_minimize_sphere_returns_the_energy_of_its_code(h):
    # the descent's own sum was 1 ulp off in 3 of these 36 cases (S^2 M=10, 11, S^3 M=4, Gaussian)
    for n, M in itertools.product((3, 4), range(4, 13)):
        code, val, info = oracle.minimize_sphere(n, M, h, restarts=20, seed=2024)
        assert val == oracle.energy(code.space, code, h), (n, M)
        assert val == pytest.approx(min(info["restart_energies"]), rel=1e-14)


def test_minimize_sphere_deterministic():
    _, a, _ = oracle.minimize_sphere(3, 7, RIESZ1, restarts=3, seed=11)
    _, b, _ = oracle.minimize_sphere(3, 7, RIESZ1, restarts=3, seed=11)
    assert a == b


def _unit_starts(seed, R, M, n=3):
    x = np.random.default_rng(seed).normal(size=(R, M, n))
    return x / np.linalg.norm(x, axis=2)[..., None]


def test_restarts_descend_independently():
    # a batch holds restarts that stop at different iterations; each must
    # end as it would alone
    starts = _unit_starts(3, 4, 9)
    _, vals, iters = oracle._descend(starts, RIESZ1, 4000)
    assert len(set(iters.tolist())) > 1
    for r in range(len(starts)):
        _, val, it = oracle._descend(starts[r : r + 1], RIESZ1, 4000)
        assert val[0] == pytest.approx(vals[r], rel=1e-12, abs=0)
        assert it[0] == iters[r]


def _direction_all_slots(x, g, hs, hy, rho, scale, newest):
    # the two-loop recursion over all five slots, written or not: the
    # reference for _direction, which skips the slots that no row wrote
    q = g.reshape(len(g), -1).copy()
    order = [(newest - k) % oracle._MEMORY for k in range(oracle._MEMORY)]
    a = np.empty_like(rho)
    for k in order:
        a[k] = rho[k] * (hs[k] * q).sum(axis=1)
        q -= a[k][:, None] * hy[k]
    q *= scale[:, None]
    for k in reversed(order):
        b = rho[k] * (hy[k] * q).sum(axis=1)
        q += (a[k] - b)[:, None] * hs[k]
    d = -q.reshape(g.shape)
    d -= (d * x).sum(axis=2)[..., None] * x
    ascent = ~((d * g).sum(axis=(1, 2)) < 0)
    d[ascent] = -scale[ascent, None, None] * g[ascent]
    return d


def test_direction_skips_unwritten_slots_bit_for_bit(monkeypatch):
    # every direction of these descents equals the full five-slot two-loop
    # bit for bit: the first step (no slot written), the steps of a partial
    # history, and steps whose newest slot no row filled because every row
    # rejected its step (a lone restart's last steps)
    seen = set()
    direction = oracle._direction

    def checked(x, g, hs, hy, rho, scale, newest):
        d = direction(x, g, hs, hy, rho, scale, newest)
        assert d.tobytes() == _direction_all_slots(x, g, hs, hy, rho, scale, newest).tobytes()
        written = rho.any(axis=1)
        if not written.any():
            seen.add("first")
        elif not written.all():
            seen.add("partial")
        if written.any() and not written[newest]:
            seen.add("all rejected")
        return d

    monkeypatch.setattr(oracle, "_direction", checked)
    for R, M in ((1, 6), (4, 9)):
        oracle._descend(_unit_starts(3, R, M), RIESZ1, 4000)
    assert seen == {"first", "partial", "all rejected"}


def test_exact_antipodal_pairs_take_the_steepest_descent_fallback():
    # the tangential gradient of an exact antipodal pair is exactly 0, so the
    # L-BFGS direction does not descend and -scale * g, zero too, replaces
    # it; the first step cannot lower the energy and ends each row
    e1, _, e3 = np.eye(3)
    starts = np.array([[e1, -e1], [e3, -e3]])
    x, vals, iters = oracle._descend(starts, RIESZ1, 30)
    assert iters.tolist() == [1, 1] and vals.tolist() == [1.0, 1.0]
    assert np.array_equal(x, starts)


def test_iterations_cap_each_restart(monkeypatch):
    starts = _unit_starts(5, 6, 7)
    x, vals, iters = oracle._descend(starts, RIESZ1, 30)
    assert iters.tolist() == [30] * 6  # these M=7 starts need 46-83 steps
    # the energy only decreases, and the iterates stay on the sphere
    for r in range(6):
        start = oracle.energy(S3, oracle.make_code(S3, starts[r]), RIESZ1)
        assert vals[r] < start
        assert np.allclose(np.linalg.norm(x[r], axis=1), 1.0, atol=1e-14)
    _, _, info = oracle.minimize_sphere(3, 5, RIESZ1, restarts=3, seed=2)
    assert len(info["restart_energies"]) == 3
    assert 0 < info["iterations_best"] < oracle._ITERATIONS == 4000
    monkeypatch.setattr(oracle, "_ITERATIONS", 30)
    code, val, info = oracle.minimize_sphere(3, 7, RIESZ1, restarts=5, seed=2)
    assert len(info["restart_energies"]) == 5
    assert info["iterations_best"] == 30
    assert val == oracle.energy(S3, code, RIESZ1)


def test_restarts_in_batches_give_the_same_result(monkeypatch):
    whole = oracle.minimize_sphere(3, 6, RIESZ1, restarts=7, seed=3)
    # room for the Gram matrices and histories of two restarts: batches of 2, 2, 2, 1
    monkeypatch.setattr(oracle, "_BATCH_ENTRIES", 2 * (6 * 6 + 2 * oracle._MEMORY * 6 * 3))
    code, val, info = oracle.minimize_sphere(3, 6, RIESZ1, restarts=7, seed=3)
    assert np.array_equal(code.points, whole[0].points)
    assert (val, info) == whole[1:]


@functools.lru_cache(maxsize=None)
def _all_distributions(n, M):
    # every M-subset of the cube's words and its distance distribution,
    # A_0..A_n per row, counted pair by pair
    subsets = np.array(list(itertools.combinations(range(1 << n), M)))
    bits = np.array([w.bit_count() for w in range(1 << n)])
    counts = np.zeros((len(subsets), n + 1), dtype=int)
    rows = np.arange(len(subsets))
    for i, j in itertools.combinations(range(M), 2):
        counts[rows, bits[subsets[:, i] ^ subsets[:, j]]] += 1
    return counts


def _formula(counts, h, n):
    # 2 * sum_{d=1..n} A_d h(1 - 2d/n), summed over d in ascending order,
    # for each row of counts; numpy rounds each product and sum as Python
    # floats do
    vals = np.zeros(len(counts))
    for d in range(1, n + 1):
        vals += counts[:, d] * float(h(1.0 - 2.0 * d / n))
    return 2.0 * vals


def _assert_matches_all_subsets(n, M, h):
    # the least energy over all M-subsets, bit for bit, attained by a code
    # that holds 0 and c_d = 2^d - 1, d its minimum distance
    code, val = oracle.exhaustive_hamming(n, M, h)
    assert val == _formula(_all_distributions(n, M), h, n).min()
    words = [int("".join(map(str, row)), 2) for row in code.points.tolist()]
    assert len(set(words)) == M
    counts = np.zeros((1, n + 1), dtype=int)
    for x, y in itertools.combinations(words, 2):
        counts[0, (x ^ y).bit_count()] += 1
    assert _formula(counts, h, n)[0] == val
    assert oracle.energy(code.space, code, h) == val
    d = int(np.flatnonzero(counts[0])[0])
    assert words[:2] == [0, (1 << d) - 1]


# h linear in the distance gives codes of different distributions the
# same exact energy, whose fast sums and formulas round apart: H(4,2) M=7
# needs the rows that lie within the rounding bound of the least fast sum
LINEAR = builtin("series", coeffs=[1 / 3, 1 / 7])


@pytest.mark.parametrize(
    "h", [RIESZ1, builtin("gaussian", c=1), LINEAR], ids=["riesz", "gaussian", "linear"]
)
def test_exhaustive_matches_all_subsets(h):
    cases = [(n, M) for n in (2, 3, 4) for M in range(2, 2**n + 1)]
    for n, M in cases + [(5, M) for M in range(2, 6)]:
        _assert_matches_all_subsets(n, M, h)


def test_exhaustive_full_cube_by_its_distribution():
    # all 1024 words of H(10,2): 2^(n-1) C(n,d) pairs at distance d
    n, M = 10, 1024
    code, val = oracle.exhaustive_hamming(n, M, RIESZ1)
    counts = np.array([[2 ** (n - 1) * math.comb(n, d) for d in range(n + 1)]])
    assert val == _formula(counts, RIESZ1, n)[0]
    assert sorted(map(tuple, code.points.tolist())) == list(itertools.product((0, 1), repeat=n))


# energies (float hex) and codes of H(6,2) M=5: each energy is the least
# by the distribution formula over all C(64, 5) subsets (a brute force
# of about 10 s, too slow for the suite), and each code has it
@pytest.mark.parametrize(
    "h, energy, words",
    [(RIESZ1, "0x1.a02b9c24676cap+3",
      [[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1],
       [1, 0, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0]]),
     (builtin("gaussian", c=1), "0x1.0992f26d1b17ep+4",
      [[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1],
       [1, 0, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0]])],
    ids=["riesz", "gaussian"],
)
def test_exhaustive_6_5_keeps_its_pinned_result(h, energy, words):
    code, val = oracle.exhaustive_hamming(6, 5, h)
    assert val.hex() == energy
    assert code.points.tolist() == words


def test_exhaustive_across_chunks(monkeypatch):
    # the tables of M = 3, (4, 4), (4, 5) and the near-full (4, 14) and
    # (4, 15) hold 14, 91, 364, 91 and 14 rows; suffixes d = 2 and 3
    # start at rows 4 and 10, 46 and 85, and 244 and 360 (the near-full
    # tables have suffix d = 1 only).  Passes of 4 and 5 rows split every
    # table, with a short last pass or exactly (364 at 4), and suffixes
    # start both at pass boundaries (244 and 360 at 4, 85 and 360 at 5)
    # and inside passes; passes of 300 split only (4, 5).  Under the
    # linear h, (4, 8) (3003 rows) meets a pass whose least fast sum lies
    # within the rounding bound of the best so far, but holds a row of
    # lower formula, so such a pass must not be skipped
    for chunk in (4, 5, 300):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for n, M in ((4, 3), (4, 4), (4, 5), (4, 14), (4, 15)):
            _assert_matches_all_subsets(n, M, RIESZ1)
        _assert_matches_all_subsets(4, 8, LINEAR)


@pytest.mark.parametrize(
    "lo, hi, k", [(2, 4, 0), (2, 4, 1), (2, 4, 2), (1, 16, 1), (2, 16, 3), (2, 32, 4),
                  (2, 32, 30), (2, 256, 2), (2, 512, 2)]
)
def test_combination_table_is_lexicographic(lo, hi, k):
    # words in descending order, so the table's order is that of their
    # positions and not of their values
    words = np.arange(hi - 1, lo - 1, -1, dtype=np.min_scalar_type(hi - 1))
    tab = oracle._combination_table(words, k)
    assert tab.dtype == (np.uint8 if hi <= 256 else np.uint16)
    assert tab.T.tolist() == [list(c) for c in itertools.combinations(words.tolist(), k)]


def test_exhaustive_memory_stays_small():
    # the table and one pass of H(6,2) M=5 peak at ~0.7 MB; a warm-up call
    # keeps first-call allocations out of the peak
    oracle.exhaustive_hamming(4, 4, RIESZ1)
    tracemalloc.start()
    try:
        oracle.exhaustive_hamming(6, 5, RIESZ1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_exhaustive_hamming_examples():
    for n in (3, 4):
        code, val = oracle.exhaustive_hamming(n, 2, RIESZ1)
        assert val == pytest.approx(2 * RIESZ1(-1.0), rel=1e-13)
        d = (code.points[0] != code.points[1]).sum()
        assert d == n
    # n and M are checked before the size of the search, which bad values
    # make meaningless; the count alone bounds the word tables: H(20,2) M=3
    # passes the table and pair-term limits
    for n, M, message in ((10, 12, "too large"), (1, 2, "n >= 2"), (-2, 3, "n >= 2"),
                          (4, -1, "M <= 16"), (4, 17, "M <= 16"), (30, 1, "M <= 1073741824"),
                          (20, 3, "C(2^20, 3) > 1e7")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            oracle.exhaustive_hamming(n, M, RIESZ1)
    # codes of nearly every word pass the count but not the table's size
    with pytest.raises(ParameterError, match="table of 57-subsets would take 352 MiB"):
        oracle.exhaustive_hamming(6, 59, RIESZ1)


def test_exhaustive_refuses_near_full_codes_by_their_pair_terms(monkeypatch):
    # H(12,2) M=4095 passes the count (4096 subsets) and the table size
    # (33 MB), but sums 3.4e10 pair terms, about two minutes: it is refused
    # before any table is built
    built = []
    monkeypatch.setattr(oracle, "_combination_table", lambda *args: built.append(args))
    with pytest.raises(ParameterError, match="3.43e\\+10 pair terms > 1e\\+08"):
        oracle.exhaustive_hamming(12, 4095, RIESZ1)
    assert built == []


def test_exhaustive_matches_unreduced_enumeration():
    # tiny instance: compare against brute force over all M-subsets
    n, M = 3, 3
    h = RIESZ1
    space = make_space("hamming", n=n, q=2)
    words = list(itertools.product((0, 1), repeat=n))
    best = math.inf
    for sub in itertools.combinations(range(2**n), M):
        pts = [words[i] for i in sub]
        code = oracle.Code(space, np.asarray(pts))
        best = min(best, oracle.energy(space, code, h))
    code, val = oracle.exhaustive_hamming(n, M, h)
    assert oracle.energy(space, code, h) == val == best


@pytest.mark.parametrize("h", [RIESZ1, builtin("gaussian", c=1)], ids=["riesz", "gaussian"])
def test_exhaustive_energy_is_the_energy_of_its_code(h):
    # one formula: the energy the search returns is oracle.energy of its
    # code, bit for bit, on every instance it accepts with n = 3..7, M = 2..8
    accepted = 0
    for n, M in itertools.product(range(3, 8), range(2, 9)):
        try:
            code, val = oracle.exhaustive_hamming(n, M, h)
        except ParameterError:
            continue
        accepted += 1
        assert oracle.energy(code.space, code, h) == val, (n, M)
    assert accepted == 26


def test_exhaustive_above_bound():
    space = make_space("hamming", n=4, q=2)
    for M in (2, 3, 4):
        _, val = oracle.exhaustive_hamming(4, M, RIESZ1)
        assert ulb(space, M, RIESZ1).value_sum <= val + 1e-9


def test_sharp_config_energies_match_bounds():
    # tight configurations attain the bound exactly
    h82 = make_space("hamming", n=8, q=2)
    code = oracle.named_config(h82, "extended_hamming_8")
    for h in (RIESZ1, builtin("gaussian", c=1)):
        assert oracle.energy(h82, code, h) == pytest.approx(
            ulb(h82, 16, h).value_sum, rel=1e-12
        )
    j73 = make_space("johnson", n=7, w=3)
    fano = oracle.named_config(j73, "fano")
    assert oracle.energy(j73, fano, RIESZ1) == pytest.approx(
        ulb(j73, 7, RIESZ1).value_sum, rel=1e-10
    )
