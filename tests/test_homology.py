import random
from fractions import Fraction

import pytest

from conftest import dense_snf, identity_matrix, mat_mul, sparse_columns
from hda_lab.homology import (
    FpEchelon,
    HomologyGroup,
    SmithNormalForm,
    all_homology,
    boundary_columns,
    boundary_matrix,
    boundary_violations,
    chain_boundary,
    chain_to_column,
    gf2_boundary_columns,
    homology,
    lattice_membership,
    smith_normal_form,
    _field_homology,
)
from hda_lab.constructions import interval_grid, standard_cube, tensor
from hda_lab.precubical import PrecubicalSet
from hda_lab.rings import GF2, ZZ, CoefficientRing

GF5 = CoefficientRing(5)


def circle(k):
    """Directed cycle with k vertices and k edges."""
    cells = {0: [f"v{i}" for i in range(k)], 1: [f"x{i}" for i in range(k)]}
    faces = {
        (1, f"x{i}"): ([f"v{i}"], [f"v{(i + 1) % k}"]) for i in range(k)
    }
    return PrecubicalSet(cells, faces)


def loop_square_torus():
    """Tensor square of the one-loop circle: a torus."""
    L = PrecubicalSet({0: ["v"], 1: ["e"]}, {(1, "e"): (["v"], ["v"])})
    return tensor(L, L)


def klein():
    """Two squares glued with a flip; integral H_1 has 2-torsion."""
    cells = {0: ["u", "v"], 1: ["e1", "e2", "m", "cv"], 2: ["s1", "s2"]}
    faces = {
        (1, "e1"): (["u"], ["v"]),
        (1, "e2"): (["u"], ["v"]),
        (1, "m"): (["u"], ["u"]),
        (1, "cv"): (["v"], ["v"]),
        (2, "s1"): (["m", "e1"], ["cv", "e2"]),
        (2, "s2"): (["m", "e2"], ["cv", "e1"]),
    }
    return PrecubicalSet(cells, faces)


def hollow_cube():
    """The boundary of the 3-cube: all grid cells of dimension <= 2."""
    G = standard_cube(3)
    cells = {n: list(G.cells(n)) for n in (0, 1, 2)}
    faces = {
        (n, key): G.face_keys((n, key)) for n in (1, 2) for key in G.cells(n)
    }
    return PrecubicalSet(cells, faces)


def betti(P, ring):
    return [g.free_rank for n, g in sorted(all_homology(P, ring).items())]


# -- Smith normal form -------------------------------------------------------


def test_snf_pinned_2_3():
    snf = smith_normal_form(*sparse_columns([[2, 0], [0, 3]]))
    assert snf.diagonal == [1, 6]
    assert snf.verify()


def test_snf_small_cases():
    assert smith_normal_form(*sparse_columns([])).diagonal == []
    assert smith_normal_form(*sparse_columns([], 3)).diagonal == []
    assert smith_normal_form(*sparse_columns([[0, 0], [0, 0]])).diagonal == []
    assert smith_normal_form(*sparse_columns(identity_matrix(3))).diagonal == [1, 1, 1]
    snf = smith_normal_form(*sparse_columns([[4]]))
    assert snf.diagonal == [4]
    assert smith_normal_form(*sparse_columns([[-4]])).diagonal == [4]
    snf = smith_normal_form(*sparse_columns([[2, 4, 4], [-6, 6, 12]]))
    assert snf.diagonal == [2, 6]
    assert snf.verify()


def test_snf_divisibility_chain_forced():
    # Diagonal entries that need the pair-repair pass.
    snf = smith_normal_form(*sparse_columns([[6, 0, 0], [0, 10, 0], [0, 0, 15]]))
    assert snf.diagonal == [1, 30, 30]
    assert snf.verify()


def test_snf_random_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1729)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(*sparse_columns(m))
        assert snf.verify(), m
        expected = [int(x) for x in invariant_factors(sympy.Matrix(m)) if x != 0]
        assert snf.diagonal == expected, m


def test_snf_certificates_are_recomputed_products():
    rng = random.Random(55)
    for _ in range(50):
        m = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(3)]
        snf = dense_snf(smith_normal_form(*sparse_columns(m)))
        umv = mat_mul(mat_mul(snf.u, m, 3), snf.v, 4)
        assert umv == snf.d
        assert mat_mul(snf.u, snf.u_inv, 3) == identity_matrix(3)
        assert mat_mul(snf.v, snf.v_inv, 4) == identity_matrix(4)


def test_snf_operation_order_is_pinned():
    # Takes the extended-gcd branch in both the row and the column sweep,
    # then the divisibility repair; the certificates are pinned entry for
    # entry, so a change to the pivot rule or the elimination order shows.
    # The matrix also has tied pivot candidates, and the final certificates
    # differ if either sweep runs backwards or ties go to a later entry.
    snf = smith_normal_form(*sparse_columns([[3, 2, 2], [-3, 4, 3], [0, 6, 0], [-2, 0, 9]]))
    assert snf.verify()
    assert snf.diagonal == [1, 1, 2]
    snf = dense_snf(snf)
    assert snf.u == [
        [1, 0, 0, 0],
        [-25, -37, 33, 18],
        [-52, -74, 67, 32],
        [63, 93, -83, -45],
    ]
    assert snf.u_inv == [
        [1, 0, 0, 0],
        [-7, 359, 9, 150],
        [-6, 354, 9, 148],
        [-2, 89, 2, 37],
    ]
    assert snf.v == [[1, -40, -2], [-1, 59, 3], [0, 1, 0]]
    assert snf.v_inv == [[3, 2, 2], [0, 0, 1], [1, 1, -19]]


FACTORS = ("m_rows", "u_rows", "u_inv_cols", "v_cols", "v_inv_rows")

# Small matrices whose reductions take every kind of step: a divisibility
# repair, the pinned extended-gcd case, and random dense and sparse ones.
VERIFY_CASES = [
    [[2, 0], [0, 3]],
    [[3, 2, 2], [-3, 4, 3], [0, 6, 0], [-2, 0, 9]],
    [[random.Random(7).randint(-5, 5) for _ in range(4)] for _ in range(3)],
    [[0, 4, 0], [6, 0, 0]],
]


def _certificate(snf, **changes):
    """A copy of a Smith normal form, its lines copied, with fields replaced."""
    fields = {name: [dict(line) for line in getattr(snf, name)] for name in FACTORS}
    fields.update(rows=snf.rows, cols=snf.cols, diagonal=list(snf.diagonal))
    fields.update(changes)
    return SmithNormalForm(**fields)


@pytest.mark.parametrize("mat", VERIFY_CASES)
@pytest.mark.parametrize("factor", FACTORS)
def test_snf_verify_rejects_every_single_entry_change(factor, mat):
    # U, U^-1, V and V^-1 are invertible, so a change to any one entry of M
    # or of a factor breaks U*M*V = D or one of the inverse identities.
    snf = smith_normal_form(*sparse_columns(mat))
    assert snf.verify()
    width = {"m_rows": snf.cols, "u_rows": snf.rows, "u_inv_cols": snf.rows}.get(factor, snf.cols)
    changed = 0
    for i in range(len(getattr(snf, factor))):
        for k in range(width):
            for step in (1, -2):
                bad = _certificate(snf)
                line = getattr(bad, factor)[i]
                line[k] = line.get(k, 0) + step
                if not line[k]:
                    del line[k]
                assert not bad.verify(), (factor, i, k, step)
                changed += 1
    assert changed == 2 * len(getattr(snf, factor)) * width > 0


def test_snf_verify_rejects_a_bad_diagonal_or_shape():
    # Certificates whose products hold, so that only the diagonal rule fails.
    one = [{0: 1}, {1: 1}]

    def diagonal_form(d0, d1):
        return SmithNormalForm(2, 2, [d0, d1], [{0: d0}, {1: d1}], one, one, one, one)

    assert diagonal_form(2, 6).verify()
    assert not diagonal_form(2, 3).verify()  # 2 does not divide 3
    assert not diagonal_form(-1, 2).verify()
    assert not diagonal_form(0, 2).verify()
    assert not diagonal_form(2, -2).verify()
    # A certificate of the pinned matrix with a line too few, or an index
    # outside the matrix.
    snf = smith_normal_form(*sparse_columns(VERIFY_CASES[1]))
    for factor in FACTORS:
        assert not _certificate(snf, **{factor: getattr(snf, factor)[:-1]}).verify(), factor
        far = _certificate(snf)
        getattr(far, factor)[0][99] = 1
        assert not far.verify(), factor
    assert not _certificate(snf, diagonal=snf.diagonal + [2]).verify()


def test_snf_verify_shares_no_code_with_the_reduction(monkeypatch):
    import hda_lab.homology as homology

    snfs = [smith_normal_form(*sparse_columns(mat)) for mat in VERIFY_CASES]

    def broken(*args, **kwargs):
        raise AssertionError("verify called a module function")

    for name, value in vars(homology).items():
        if callable(value) and getattr(value, "__module__", None) == homology.__name__:
            if name != "SmithNormalForm":
                monkeypatch.setattr(homology, name, broken)
    assert all(snf.verify() for snf in snfs)
    bad = _certificate(snfs[1])
    bad.u_rows[0][0] = 2
    assert not bad.verify()


def test_snf_tall_sparse_membership():
    # Two sparse generators in 300 coordinates, the shape of a label
    # membership query: the lattice they span has a non-unit invariant factor.
    from hda_lab.homology import nonmembership_certificate, verify_nonmembership

    m = 300
    g0, g1 = [0] * m, [0] * m
    for i, x in {3: 2, 70: 4, 151: -6, 299: 2}.items():
        g0[i] = x
    for i, x in {3: 3, 70: 6, 151: 1, 200: 9}.items():
        g1[i] = x
    vectors = [g0, g1]
    mat = [[g0[i], g1[i]] for i in range(m)]
    snf = smith_normal_form(*sparse_columns(mat))
    assert snf.verify()
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    expected = [int(x) for x in invariant_factors(sympy.Matrix(mat)) if x != 0]
    assert snf.diagonal == expected
    assert snf.diagonal[-1] > 1

    member = [5 * a - 7 * b for a, b in zip(g0, g1)]
    assert lattice_membership(vectors, member) == [5, -7]
    assert nonmembership_certificate(vectors, member) is None

    half = [a // 2 for a in g0]  # in the rational span, not in the lattice
    outside = [0] * m
    outside[0] = 1  # not even in the rational span
    for target, modular in ((half, True), (outside, False)):
        assert lattice_membership(vectors, target) is None
        cert = nonmembership_certificate(vectors, target)
        assert (cert[1] > 1) if modular else (cert[1] == 0)
        assert verify_nonmembership(vectors, target, cert)


# -- boundaries ---------------------------------------------------------------


def test_edge_boundary_is_target_minus_source():
    P = circle(3)
    b = chain_boundary(P, {(1, "x0"): 1})
    assert b == {(0, "v1"): 1, (0, "v0"): -1}
    col = chain_to_column(P, 0, b)
    assert col == [-1, 1, 0]


def test_boundary_of_boundary_vanishes():
    for P in (interval_grid((2, 2)), standard_cube(3), loop_square_torus(), klein()):
        assert boundary_violations(P) == []
        for n in range(2, P.max_dim + 1):
            prod = mat_mul(
                boundary_matrix(P, n - 1),
                boundary_matrix(P, n),
                P.size(n - 1),
            )
            assert all(all(x == 0 for x in row) for row in prod)


def test_the_boundary_of_a_loop_edge_is_zero():
    from hda_lab.models import torus_hda

    P = torus_hda().complex
    for ring in (ZZ, GF2, GF5):
        assert chain_boundary(P, {(1, "cu"): 1}, ring) == {}
        assert chain_boundary(P, {(1, "cu"): 3, (1, "h1"): 1}, ring) == {
            (0, "v"): 1, (0, "u"): ring.normalize(-1)
        }


def test_gf2_boundary_columns_match_matrix():
    for P in (loop_square_torus(), klein(), interval_grid((2, 1))):
        for n in (1, 2):
            cols = gf2_boundary_columns(P, n)
            mat = boundary_matrix(P, n, GF2)
            for j, bits in enumerate(cols):
                for r in range(P.size(n - 1)):
                    assert (bits >> r) & 1 == mat[r][j]


# -- homology of pinned spaces -------------------------------------------------


def test_point_and_empty():
    point = PrecubicalSet({0: ["p"]}, {})
    h = all_homology(point, ZZ)
    assert h[0].describe() == "Z"
    empty = PrecubicalSet({}, {})
    assert homology(empty, 0, ZZ).describe() == "0"
    assert homology(empty, 1, GF2).describe() == "0"


def test_two_components():
    P = PrecubicalSet({0: ["p", "q"]}, {})
    assert homology(P, 0, ZZ).free_rank == 2
    assert homology(P, 0, GF5).free_rank == 2


def test_circle_integral():
    P = circle(3)
    h = all_homology(P, ZZ)
    assert h[0].describe() == "Z"
    assert h[1].describe() == "Z"
    assert h[1].free_generators == [{(1, "x0"): 1, (1, "x1"): 1, (1, "x2"): 1}]
    for k in (1, 2, 5):
        hk = homology(circle(k), 1, ZZ)
        assert hk.free_rank == 1 and not hk.torsion


def test_circle_over_fields():
    for ring in (GF2, GF5):
        assert betti(circle(4), ring) == [1, 1]


def test_contractible_grids():
    for shape in ((2,), (2, 2), (1, 1, 1)):
        G = interval_grid(shape)
        for ring in (ZZ, GF2, GF5):
            bs = betti(G, ring)
            assert bs[0] == 1 and all(b == 0 for b in bs[1:]), (shape, ring)


def test_torus_homology():
    T = loop_square_torus()
    hz = all_homology(T, ZZ)
    assert [hz[n].describe() for n in (0, 1, 2)] == ["Z", "Z^2", "Z"]
    # The 2-cycle is the single square, up to sign convention exactly once.
    assert hz[2].free_generators == [{(2, ("e", "e")): 1}]
    assert betti(T, GF2) == [1, 2, 1]
    assert betti(T, GF5) == [1, 2, 1]


def test_klein_integral():
    K = klein()
    h0, h1, h2 = (homology(K, n, ZZ) for n in (0, 1, 2))
    assert h0.describe() == "Z"
    assert h1.free_rank == 1 and h1.torsion == [2]
    assert h2.describe() == "0"
    # The torsion class is [cv - m]: twice it bounds, once it does not.
    t = h1.torsion_generators[0]
    im_cols = [
        chain_to_column(K, 1, chain_boundary(K, {(2, s): 1}))
        for s in ("s1", "s2")
    ]
    t_col = chain_to_column(K, 1, t)
    assert lattice_membership(im_cols, t_col, ZZ) is None
    assert lattice_membership(im_cols, [2 * x for x in t_col], ZZ) is not None
    # Free generator has infinite order in the quotient.
    f_col = chain_to_column(K, 1, h1.free_generators[0])
    for k in (1, 2, 3, 4):
        assert lattice_membership(im_cols, [k * x for x in f_col], ZZ) is None
    # Completeness: every 1-cycle decomposes over boundaries and generators.
    span = im_cols + [f_col, t_col]
    for cycle in ({(1, "m"): 1}, {(1, "cv"): 1}, {(1, "e1"): 1, (1, "e2"): -1}):
        assert chain_boundary(K, cycle) == {}
        assert lattice_membership(span, chain_to_column(K, 1, cycle), ZZ) is not None


def test_klein_gf2():
    assert betti(klein(), GF2) == [1, 2, 1]
    # Universal coefficients: the 2-torsion shows up once in degree 1 and
    # once in degree 2.
    assert betti(klein(), GF5) == [1, 1, 0]


def test_hollow_cube():
    S = hollow_cube()
    h = all_homology(S, ZZ)
    assert [h[n].describe() for n in (0, 1, 2)] == ["Z", "0", "Z"]
    gen = h[2].free_generators[0]
    assert len(gen) == 6 and all(c in (1, -1) for c in gen.values())
    assert chain_boundary(S, gen) == {}


def test_generators_are_cycles_and_nonbounding():
    for P in (circle(5), loop_square_torus(), klein(), hollow_cube()):
        for n, h in all_homology(P, ZZ).items():
            cols = [
                chain_to_column(P, n, chain_boundary(P, {(n + 1, key): 1}))
                for key in P.cells(n + 1)
            ]
            for g in h.generators:
                assert chain_boundary(P, g) == {}
                assert lattice_membership(cols, chain_to_column(P, n, g), ZZ) is None


def test_gf2_agrees_with_generic_prime_path():
    # Same field, two implementations: bitsets vs generic elimination.
    for P in (circle(4), loop_square_torus(), klein(), hollow_cube()):
        slow = _field_homology(P, GF2, bitsets=False)
        for n in range(P.max_dim + 1):
            fast = homology(P, n, GF2)
            assert fast.free_rank == slow[n].free_rank, (P, n)


def test_field_generators_are_independent_cycles():
    for ring in (GF2, GF5):
        for P in (loop_square_torus(), klein()):
            h = homology(P, 1, ring)
            for g in h.generators:
                assert chain_boundary(P, g, ring) == {}
            cols = [
                chain_to_column(P, 1, chain_boundary(P, {(2, key): 1}, ring))
                for key in P.cells(2)
            ]
            for j, g in enumerate(h.generators):
                others = cols + [
                    chain_to_column(P, 1, x)
                    for t, x in enumerate(h.generators)
                    if t != j
                ]
                assert (
                    lattice_membership(others, chain_to_column(P, 1, g), ring) is None
                )


# -- gf2 echelon ----------------------------------------------------------------


class Gf2Echelon:
    """Incremental GF(2) column echelon that tracks the combinations it is given.

    Vectors are ints; pivot is the highest set bit.  ``add`` reduces a vector
    against the echelon and either absorbs it (returning None) or reports the
    fully reduced dependency combination.  A pivot records its combination
    when ``add`` is given one, and ``reduce`` combines only when it is given
    a combination (0 is the empty one).  The GF(2) pass of the package used
    it before it kept only pivot rows; the oracles below still do.
    """

    def __init__(self):
        self.pivots = {}
        self.combos = {}

    def __len__(self):
        return len(self.pivots)

    def reduce(self, vec, combo=None):
        while vec:
            p = vec.bit_length() - 1
            if p not in self.pivots:
                break
            vec ^= self.pivots[p]
            if combo is not None:
                combo ^= self.combos[p]
        return vec, combo

    def add(self, vec, combo=None):
        """Insert; returns the (residue, combo) pair only if vec was dependent."""
        vec, combo = self.reduce(vec, combo)
        if vec == 0:
            return 0, combo
        p = vec.bit_length() - 1
        self.pivots[p] = vec
        if combo is not None:
            self.combos[p] = combo
        return None


def test_gf2_echelon_tracking():
    ech = Gf2Echelon()
    assert ech.add(0b0011, 0b001) is None
    assert ech.add(0b0110, 0b010) is None
    dep = ech.add(0b0101, 0b100)
    assert dep == (0, 0b111)
    assert len(ech) == 2


# -- membership -----------------------------------------------------------------


def test_lattice_membership_z_basic():
    vecs = [[2, 0], [0, 3]]
    assert lattice_membership(vecs, [4, 3], ZZ) == [2, 1]
    assert lattice_membership(vecs, [1, 0], ZZ) is None
    assert lattice_membership([[2, 4]], [1, 2], ZZ) is None
    assert lattice_membership([[2, 4]], [3, 6], ZZ) is None
    assert lattice_membership([[2, 4]], [4, 8], ZZ) == [2]
    assert lattice_membership([], [0, 0], ZZ) == []
    assert lattice_membership([], [1, 0], ZZ) is None
    assert lattice_membership([[1, 1], [1, -1]], [1, 0], ZZ) is None


def test_lattice_membership_constructed_combos():
    rng = random.Random(8128)
    for _ in range(200):
        m = rng.randint(1, 5)
        k = rng.randint(1, 4)
        vecs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        target = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(m)]
        got = lattice_membership(vecs, target, ZZ)
        assert got is not None
        # The witness is verified inside; just confirm it reproduces target.
        for i in range(m):
            assert sum(x * vecs[j][i] for j, x in enumerate(got)) == target[i]


def test_lattice_membership_full_rank_oracle():
    # For independent vectors the rational solution is unique, so integer
    # membership can be decided by exact fraction elimination.
    rng = random.Random(6174)
    tried = 0
    while tried < 120:
        k = rng.randint(1, 4)
        vecs = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        det = _det_fraction(vecs)
        if det == 0:
            continue
        tried += 1
        target = [rng.randint(-6, 6) for _ in range(k)]
        sol = _solve_fraction(vecs, target)
        expected = sol if all(x.denominator == 1 for x in sol) else None
        got = lattice_membership(vecs, target, ZZ)
        if expected is None:
            assert got is None
        else:
            assert got == [int(x) for x in expected]


def _det_fraction(cols):
    k = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(k)] for i in range(k)]
    det = Fraction(1)
    for t in range(k):
        pivot = next((r for r in range(t, k) if m[r][t]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != t:
            m[t], m[pivot] = m[pivot], m[t]
            det = -det
        det *= m[t][t]
        inv = 1 / m[t][t]
        for r in range(t + 1, k):
            if m[r][t]:
                f = m[r][t] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[t])]
    return det


def _solve_fraction(cols, target):
    k = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(k)]
    for t in range(k):
        pivot = next(r for r in range(t, k) if m[r][t])
        m[t], m[pivot] = m[pivot], m[t]
        inv = 1 / m[t][t]
        m[t] = [x * inv for x in m[t]]
        for r in range(k):
            if r != t and m[r][t]:
                f = m[r][t]
                m[r] = [a - f * b for a, b in zip(m[r], m[t])]
    return [m[i][k] for i in range(k)]


def test_membership_over_fields():
    assert lattice_membership([[2, 0], [0, 1]], [1, 1], GF5) == [3, 1]
    assert lattice_membership([[1, 1]], [1, 0], GF5) is None
    got = lattice_membership([[1, 1, 0], [0, 1, 1]], [1, 0, 1], GF2)
    assert got == [1, 1]
    assert lattice_membership([[1, 1, 0]], [1, 0, 1], GF2) is None
    # Scaling that only works mod p.
    assert lattice_membership([[2]], [1], GF5) == [3]
    assert lattice_membership([[2]], [1], ZZ) is None


def test_membership_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lattice_membership([[1, 2], [1]], [0, 0], ZZ)


def test_nonmembership_certificates_basic():
    from hda_lab.homology import nonmembership_certificate, verify_nonmembership

    # outside the rational span
    cert = nonmembership_certificate([[1, 0, 0]], [0, 1, 0], ZZ)
    assert cert is not None and cert[1] == 0
    assert verify_nonmembership([[1, 0, 0]], [0, 1, 0], cert)
    # inside the span but outside the lattice: divisibility failure
    cert = nonmembership_certificate([[2]], [1], ZZ)
    assert cert is not None and cert[1] == 2
    assert verify_nonmembership([[2]], [1], cert)
    # members yield no certificate
    assert nonmembership_certificate([[2]], [1], GF5) is None
    assert nonmembership_certificate([[2]], [4], ZZ) is None
    assert nonmembership_certificate([], [0, 0], ZZ) is None
    # empty generating set
    cert = nonmembership_certificate([], [0, 3], ZZ)
    assert cert == ([0, 1], 0)
    cert = nonmembership_certificate([], [5, 2], GF5)
    assert cert is not None and verify_nonmembership([], [5, 2], cert)


def membership_stream():
    """400 seeded (trial, vectors, target) queries, about half of them members."""
    rng = random.Random(90125)
    for trial in range(400):
        m = rng.randint(1, 6)
        k = rng.randint(0, 4)
        vectors = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        if rng.random() < 0.5 and k:
            target = [0] * m
            for v in vectors:
                c = rng.randint(-3, 3)
                target = [a + c * b for a, b in zip(target, v)]
        else:
            target = [rng.randint(-4, 4) for _ in range(m)]
        yield trial, vectors, target


def test_membership_and_certificate_are_complementary():
    from hda_lab.homology import nonmembership_certificate, verify_nonmembership

    for trial, vectors, target in membership_stream():
        ring = [ZZ, GF2, GF5][trial % 3]
        member = lattice_membership(vectors, target, ring)
        cert = nonmembership_certificate(vectors, target, ring)
        assert (member is None) != (cert is None), (vectors, target, ring)
        if cert is not None:
            assert verify_nonmembership(vectors, target, cert)
            phi, modulus = cert
            mod = modulus if modulus else 0
            for v in vectors:
                s = sum(a * b for a, b in zip(phi, v))
                assert s % mod == 0 if mod else s == 0
            s = sum(a * b for a, b in zip(phi, target))
            assert (s % mod != 0) if mod else s != 0
        if cert is not None and ring.characteristic:
            assert cert[1] == ring.characteristic


# sha256 of repr() of the list of certificates over GF(2), GF(3) and GF(5),
# in that order for each query of ``membership_stream``; 465 of the 1200
# are not None.
FIELD_CERTIFICATES = "672b964dc694606f189d0936b0f183b8c0fd681bf089e0b7dd1092ab0bf4619b"


def test_field_certificates_are_pinned():
    from hashlib import sha256

    from hda_lab.homology import nonmembership_certificate

    certs = [
        nonmembership_certificate(vectors, target, CoefficientRing(p))
        for _, vectors, target in membership_stream()
        for p in (2, 3, 5)
    ]
    assert sum(c is not None for c in certs) == 465
    assert sha256(repr(certs).encode()).hexdigest() == FIELD_CERTIFICATES


def test_field_witness_is_the_unique_solution_on_independent_bases():
    from itertools import product

    rng = random.Random(2718)
    checked = 0
    for trial in range(300):
        p = (2, 3, 5)[trial % 3]
        k, m = rng.randint(1, 3), rng.randint(1, 5)
        vectors = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]

        def combine(x):
            return tuple(sum(c * v[i] for c, v in zip(x, vectors)) % p for i in range(m))

        images = {combine(x): list(x) for x in product(range(p), repeat=k)}
        if len(images) < p**k:
            continue  # dependent: some target has several solutions
        checked += 1
        ring = CoefficientRing(p)
        member = rng.choice(sorted(images))
        assert lattice_membership(vectors, list(member), ring) == images[member]
        outside = [rng.randrange(p) for _ in range(m)]
        got = lattice_membership(vectors, outside, ring)
        assert got == images.get(tuple(outside)), (vectors, outside, p)
    assert checked > 100


def test_membership_edge_cases_over_every_ring():
    from hda_lab.homology import nonmembership_certificate, verify_nonmembership

    cases = [
        ([], []),
        ([[0, 0, 0]], [0, 0, 0]),
        ([[0, 0, 0]], [0, 1, 0]),
        ([[0, 0, 0], [1, 2, 0]], [2, 4, 0]),
        ([[0, 0, 0], [1, 2, 0]], [1, 0, 0]),
        ([[1, 2, 0], [1, 2, 0]], [3, 6, 0]),
        ([[1, 2, 0], [1, 2, 0]], [0, 0, 1]),
        ([[2, 4, 0], [2, 4, 0]], [1, 2, 0]),
    ]
    for ring in (ZZ, GF2, CoefficientRing(3), GF5):
        assert lattice_membership([], [], ring) == []
        assert nonmembership_certificate([], [], ring) is None
        for vectors, target in cases:
            x = lattice_membership(vectors, target, ring)
            cert = nonmembership_certificate(vectors, target, ring)
            assert (x is None) != (cert is None), (vectors, target, ring)
            if x is not None:
                assert len(x) == len(vectors)
                for i, t in enumerate(target):
                    assert ring.normalize(sum(c * v[i] for c, v in zip(x, vectors)) - t) == 0
            else:
                assert verify_nonmembership(vectors, target, cert), (vectors, target, ring)
    # (1, 2, 0) is a multiple of (2, 4, 0) only where 2 is a unit.
    assert lattice_membership([[2, 4, 0], [2, 4, 0]], [1, 2, 0], ZZ) is None
    assert lattice_membership([[2, 4, 0], [2, 4, 0]], [1, 2, 0], GF5) is not None


@pytest.mark.parametrize("ring", [ZZ, GF2, CoefficientRing(3)])
def test_a_perturbed_witness_fails_the_recheck(monkeypatch, ring):
    import hda_lab.homology as homology

    vectors, target = [[1, 0, 0], [0, 1, 0]], [0, 1, 0]
    assert lattice_membership(vectors, target, ring) == [0, 1]
    solve = homology._solve

    def perturbed(vectors, target, ring):
        x, certificate = solve(vectors, target, ring)
        return [x[0] + 1, *x[1:]], certificate

    monkeypatch.setattr(homology, "_solve", perturbed)
    with pytest.raises(AssertionError, match="witness failed verification"):
        lattice_membership(vectors, target, ring)


def test_verify_nonmembership_refuses_a_functional_of_the_wrong_length():
    from hda_lab.homology import verify_nonmembership

    assert verify_nonmembership([[1, 0]], [0, 1], ([0, 1], 0))
    assert not verify_nonmembership([[1, 0]], [0, 1], ([0, 1, 5], 0))
    assert not verify_nonmembership([[1, 0]], [0, 1], ([0], 0))
    assert not verify_nonmembership([], [0, 1], ([0, 1, 5], 0))
    assert not verify_nonmembership([[1, 0, 0]], [0, 1], ([0, 1], 0))
    assert not verify_nonmembership([[1, 0]], [0, 1, 0], ([0, 1], 3))


# -- field homology against the per-degree reduction ------------------------------


def gf2_per_degree(P, n):
    """H_n over GF(2) by itself, without clearing: d_n and d_{n+1} assembled
    and reduced afresh, the quotient kept as raw kernel masks."""
    cn = P.size(n)
    if cn == 0:
        return HomologyGroup(n, GF2, 0)
    kernel_masks = []
    if n == 0:
        kernel_masks = [1 << j for j in range(cn)]
    else:
        ech = Gf2Echelon()
        for j, col in enumerate(gf2_boundary_columns(P, n)):
            dep = ech.add(col, 1 << j)
            if dep is not None:
                kernel_masks.append(dep[1])
    quot = Gf2Echelon()
    if P.size(n + 1):
        for col in gf2_boundary_columns(P, n + 1):
            quot.add(col)
    cells = P.cells(n)
    chains = []
    for mask in kernel_masks:
        if quot.add(mask) is None:
            chains.append({(n, cells[j]): 1 for j in range(cn) if mask >> j & 1})
    return HomologyGroup(n, GF2, len(chains), [], chains, [])


def gf2_echelon_pass(P):
    """H_0, ..., H_top over GF(2) in one pass from the top down, with
    clearing, as the package computed it while it kept the whole echelon
    of d_{n+1} as the image: every kernel cycle is checked against the
    image before it becomes a generator, and every pivot stores its
    combination.  Also returns, per degree, the number of uncleared
    columns that reduce to zero."""
    groups, zero_columns = [], []
    image = Gf2Echelon()
    for n in range(P.max_dim, -1, -1):
        cells = P.cells(n)
        ech = Gf2Echelon()
        cols = gf2_boundary_columns(P, n) if n else [0] * len(cells)
        kernel = []
        for j, col in enumerate(cols):
            if j in image.pivots:
                continue
            dep = ech.add(col, 1 << j)
            if dep is not None:
                kernel.append(dep[1])
        chains = []
        for mask in kernel:
            if image.add(mask) is None:
                chains.append({(n, cells[j]): 1 for j in range(len(cells)) if mask >> j & 1})
        groups.append(HomologyGroup(n, GF2, len(chains), [], chains, []))
        zero_columns.append(len(kernel))
        image = ech
    return groups[::-1], zero_columns[::-1]


def fp_per_degree(P, n, ring):
    """H_n over GF(p) by itself, without clearing; generators are the kernel
    cycles reduced at the image's pivots."""
    p = ring.characteristic
    kernel = []
    ech = FpEchelon(p)
    for j, col in enumerate(boundary_columns(P, n, ring)):
        dep = ech.add(col, {j: 1})
        if dep is not None:
            kernel.append(dep[1])
    image = FpEchelon(p)
    for col in boundary_columns(P, n + 1, ring):
        image.add(col)
    gens = FpEchelon(p)
    cells = P.cells(n)
    chains = []
    for kvec in kernel:
        vec, _ = image.reduce(kvec)
        if gens.add(vec) is None:
            chains.append({(n, cells[i]): vec[i] for i in sorted(vec)})
    return HomologyGroup(n, ring, len(chains), [], chains, [])


def _oracle_complexes():
    from conftest import random_circle, random_torus, suite_rng
    from test_programs import shuffled_butler

    from hda_lab import models
    from hda_lab.programs import program_to_hda

    out = {
        "circle4": circle(4),
        "torus": loop_square_torus(),
        "klein": klein(),
        "hollow cube": hollow_cube(),
        "empty": PrecubicalSet({}, {}),
        "boundary square": models.boundary_square().complex,
        "filled square": models.filled_square().complex,
        "torus fixture": models.torus_hda().complex,
        "klein fixture": models.klein_hda().complex,
        "lock spec": models.lock_spec().complex,
        "peterson": program_to_hda(models.peterson()).complex,
        "lock counter": program_to_hda(models.lock_counter()).complex,
        "phil3": program_to_hda(models.dining_philosophers(3)).complex,
        "phil4": program_to_hda(models.dining_philosophers(4)).complex,
        "butler3": program_to_hda(shuffled_butler(3, "butler3")).complex,
    }
    rng = suite_rng("field-oracle")
    for k in range(6):
        out[f"random circle {k}"] = random_circle(rng).complex
        out[f"random torus {k}"] = random_torus(rng).complex
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_homology_equals_the_per_degree_reduction(p):
    ring = CoefficientRing(p)
    for name, P in _oracle_complexes().items():
        got = all_homology(P, ring)
        for n in range(max(P.max_dim, 0) + 2):
            want = gf2_per_degree(P, n) if p == 2 else fp_per_degree(P, n, ring)
            have = got[n] if n in got else homology(P, n, ring)
            assert have == want, (name, n)
            # Chain for chain, coefficients in the same order.
            assert [list(c.items()) for c in have.generators] == [
                list(c.items()) for c in want.generators
            ], (name, n)


def test_gf2_pass_equals_the_echelon_pass_and_the_clearing_lemma():
    from conftest import random_circle, random_torus, suite_rng
    from test_programs import shuffled_butler

    from hda_lab.products import tensor_hda
    from hda_lab.programs import program_to_hda

    complexes = _oracle_complexes()
    complexes["butler4"] = program_to_hda(shuffled_butler(4, "butler4")).complex
    rng = suite_rng("gf2-clearing")
    for k in range(6):
        complexes[f"random circle {k}"] = random_circle(rng, max_edges=6).complex
        complexes[f"random torus {k}"] = random_torus(rng).complex
        complexes[f"random 3-torus {k}"] = tensor_hda(
            random_torus(rng), random_circle(rng, "z")
        ).complex
    for name, P in complexes.items():
        lean = _field_homology(P, GF2, bitsets=True)
        old, zero_columns = gf2_echelon_pass(P)
        # Chain for chain, cells in the same order.
        assert [[list(c.items()) for c in g.generators] for g in lean] == [
            [list(c.items()) for c in g.generators] for g in old
        ], name
        for n, g in enumerate(old):
            # The clearing lemma: every uncleared column that reduces to
            # zero gives a class, so their number is the Betti number.
            ker = P.size(n) - (gf2_rank(gf2_boundary_columns(P, n)) if n else 0)
            assert zero_columns[n] == g.free_rank == ker - gf2_rank(
                gf2_boundary_columns(P, n + 1) if P.size(n + 1) else []
            ), (name, n)


def gf2_rank(cols):
    ech = Gf2Echelon()
    for col in cols:
        ech.add(col)
    return len(ech)


def per_cell_scan(n, cells, mask):
    """The GF(2) read-out before it walked the set bits: one shift per cell."""
    return {(n, cells[j]): 1 for j in range(len(cells)) if mask >> j & 1}


def test_gf2_generators_equal_the_per_cell_scan(monkeypatch):
    import hda_lab.homology as hom

    rng = random.Random(5)
    cells = [f"c{j}" for j in range(300)]
    for mask in [0, 1, 1 << 299, (1 << 300) - 1] + [rng.getrandbits(300) for _ in range(50)]:
        chain = hom._gf2_chain(2, cells, mask)
        assert list(chain.items()) == list(per_cell_scan(2, cells, mask).items())
    complexes = _oracle_complexes()
    got = {name: hom._field_homology(P, GF2, True) for name, P in complexes.items()}
    monkeypatch.setattr(hom, "_gf2_chain", per_cell_scan)
    for name, P in complexes.items():
        want = hom._field_homology(P, GF2, True)
        # Chain for chain, cells in the same order.
        assert [[list(c.items()) for c in g.generators] for g in got[name]] == [
            [list(c.items()) for c in g.generators] for g in want
        ], name
    assert max(len(c) for c in got["phil4"][1].generators) > 1


def test_field_homology_is_computed_once_per_complex(monkeypatch):
    import hda_lab.homology as hom

    passes = []
    real = hom._field_homology

    def counting(P, ring, bitsets):
        passes.append(ring.characteristic)
        return real(P, ring, bitsets)

    monkeypatch.setattr(hom, "_field_homology", counting)
    P = klein()
    for ring in (GF2, GF5, GF2, GF5):
        for n in range(4):
            homology(P, n, ring)
        all_homology(P, ring)
    assert passes == [2, 5]
    assert homology(P, 1, GF2) is homology(P, 1, GF2)
    assert homology(klein(), 1, GF2) == homology(P, 1, GF2)
    assert passes == [2, 5, 2]


@pytest.mark.parametrize("p", [2, 3])
def test_analyses_assemble_each_boundary_once(p, monkeypatch):
    import hda_lab.homology as hom
    from hda_lab import models
    from hda_lab.labeling import labeled_homology
    from hda_lab.programs import program_to_hda
    from hda_lab.reports import implements_report, independence_report, realized_labels

    ring = CoefficientRing(p)
    assembled = {}
    for name in ("gf2_boundary_columns", "boundary_columns"):
        real = getattr(hom, name)

        def counting(P, n, *rest, real=real):
            assembled[id(P), n] = assembled.get((id(P), n), 0) + 1
            return real(P, n, *rest)

        monkeypatch.setattr(hom, name, counting)
    # Every model stays alive to the end, so no two share an id.
    peterson = program_to_hda(models.peterson())
    counter = program_to_hda(models.lock_counter())
    spec = models.lock_spec()
    torus = models.torus_hda()
    parts = [models.labeled_circle(["a1", "a2"]), models.labeled_circle(["b"])]
    labeled_homology(peterson, ring)
    labeled_homology(torus, ring)
    implements_report(realized_labels(counter, ring), spec, ring)
    implements_report(realized_labels(peterson, ring), peterson, ring)
    independence_report(torus, parts, ring)
    assert assembled
    assert max(assembled.values()) == 1, assembled
