import itertools
import tracemalloc

import pytest

from conftest import raw_faces
from hda_lab.constructions import (
    Path,
    PcMorphism,
    grid_top_cells,
    interval,
    interval_grid,
    standard_cube,
    tensor,
)
from hda_lab.precubical import (
    PrecubicalSet,
    _identities_hold,
    assert_valid_precubical,
    edge_in_direction,
    evaluate_subcube,
    Violation,
    validate_precubical,
)
from hda_lab.hda import Alphabet, Hda, validate_hda


def two_square():
    # One filled square: vertices 00,10,01,11, edges a (bottom), b (top),
    # c (left), d (right), square s with direction 1 horizontal.
    cells = {0: ["00", "10", "01", "11"], 1: ["a", "b", "c", "d"], 2: ["s"]}
    faces = {
        (1, "a"): (["00"], ["10"]),
        (1, "b"): (["01"], ["11"]),
        (1, "c"): (["00"], ["01"]),
        (1, "d"): (["10"], ["11"]),
        (2, "s"): (["a", "c"], ["b", "d"]),
    }
    return PrecubicalSet(cells, faces)


def test_basic_queries():
    P = two_square()
    assert P.max_dim == 2
    assert P.dims() == (0, 1, 2)
    assert P.size(0) == 4 and P.size(1) == 4 and P.size(2) == 1
    assert (2, "s") in P
    assert (2, "t") not in P
    assert (3, "s") not in P
    assert P.face((2, "s"), 0, 1) == (1, "a")
    assert P.face((2, "s"), 1, 2) == (1, "d")
    assert P.cell_index((1, "c")) == 2
    assert list(P.cubes(1)) == [(1, "a"), (1, "b"), (1, "c"), (1, "d")]


def test_face_index_bounds():
    P = two_square()
    with pytest.raises(IndexError):
        P.face((2, "s"), 0, 3)
    with pytest.raises(IndexError):
        P.face((2, "s"), 0, 0)
    with pytest.raises(IndexError):
        P.face((2, "s"), 2, 1)


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        PrecubicalSet({0: ["v", "v"]}, {})


def test_validate_clean():
    assert validate_precubical(two_square()) == []
    assert_valid_precubical(two_square())


def test_validate_missing_and_dangling():
    cells = {0: ["p"], 1: ["e", "f"]}
    faces = {(1, "e"): (["p"], ["q"])}
    P = PrecubicalSet(cells, faces)
    kinds = sorted(v.kind for v in validate_precubical(P))
    assert kinds == ["dangling-face", "missing-faces"]


def test_an_unhashable_face_key_is_a_dangling_face():
    P = PrecubicalSet({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], [["u"]])})
    (v,) = validate_precubical(P)
    assert (v.kind, v.cube, v.data) == ("dangling-face", (1, "e"), (1, 1))
    h = Hda(P, Alphabet(["a"]), {"e": ("a",)})
    assert [v.kind for v in validate_hda(h)] == ["dangling-face"]


def broken_square():
    # Square whose left edge has the wrong source: d[0,1]d[0,2] != d[0,1]d[0,1].
    cells = {0: ["00", "10", "01", "11", "xx"], 1: ["a", "b", "c", "d"], 2: ["s"]}
    faces = {
        (1, "a"): (["00"], ["10"]),
        (1, "b"): (["01"], ["11"]),
        (1, "c"): (["xx"], ["01"]),
        (1, "d"): (["10"], ["11"]),
        (2, "s"): (["a", "c"], ["b", "d"]),
    }
    return PrecubicalSet(cells, faces)


def test_validate_broken_identity():
    P = broken_square()
    bad = [v for v in validate_precubical(P) if v.kind == "cubical-identity"]
    assert bad, "expected a cubical identity violation"
    assert bad[0].cube == (2, "s")
    # The identity that fails involves i=1, j=2 with the lower face on j.
    assert any(v.data[1] == 1 and v.data[3] == 2 for v in bad)


def _one_cell_per_dimension(top):
    """The cube of dimension ``top`` whose faces, in every dimension, are the
    one cell below: every cubical identity holds."""
    cells = {n: [f"c{n}"] for n in range(top + 1)}
    faces = {(n, f"c{n}"): ([f"c{n - 1}"] * n, [f"c{n - 1}"] * n) for n in range(1, top + 1)}
    return PrecubicalSet(cells, faces)


def test_identities_hold_in_a_dimension_of_one_cell():
    # With one cell, both sides of an identity gather a bare position, not a
    # tuple of them; they must still compare, pass or fail, as tuples would.
    for P in (two_square(), _one_cell_per_dimension(2), _one_cell_per_dimension(4)):
        for n in range(2, P.max_dim + 1):
            assert P.size(n) == 1
            assert _identities_hold(n, P.face_positions(n), P.face_positions(n - 1))
        assert validate_precubical(P) == []
    broken = broken_square()
    assert not _identities_hold(2, broken.face_positions(2), broken.face_positions(1))
    assert [(v.kind, v.cube, v.data) for v in validate_precubical(broken)] == [
        ("cubical-identity", (2, "s"), (0, 1, 0, 2))
    ]


def test_validate_orphan_face_entry():
    P = PrecubicalSet({0: ["v"]}, {(1, "ghost"): (["v"], ["v"])})
    kinds = [v.kind for v in validate_precubical(P)]
    assert kinds == ["orphan-face-entry"]


def test_interval():
    P = interval(2, 5)
    assert P.cells(0) == (2, 3, 4, 5)
    assert P.cells(1) == ((2, 3), (3, 4), (4, 5))
    assert P.face((1, (3, 4)), 0, 1) == (0, 3)
    assert P.face((1, (3, 4)), 1, 1) == (0, 4)
    assert_valid_precubical(P)
    single = interval(7, 7)
    assert single.cells(0) == (7,)
    assert single.size(1) == 0
    with pytest.raises(ValueError):
        interval(3, 2)


def test_interval_grid_counts():
    # Grid of shape (2, 3): (2*2+1)*(2*3+1) cells graded binomially.
    G = interval_grid((2, 3))
    assert G.size(0) == 3 * 4
    assert G.size(1) == 2 * 4 + 3 * 3
    assert G.size(2) == 2 * 3
    assert G.max_dim == 2
    assert_valid_precubical(G)
    assert grid_top_cells((2, 3)) == [
        ((0, 1), (0, 1)),
        ((0, 1), (1, 2)),
        ((0, 1), (2, 3)),
        ((1, 2), (0, 1)),
        ((1, 2), (1, 2)),
        ((1, 2), (2, 3)),
    ]


def test_interval_grid_faces():
    G = interval_grid((2, 2))
    c = (2, ((0, 1), (1, 2)))
    assert G.face(c, 0, 1) == (1, (0, (1, 2)))
    assert G.face(c, 1, 1) == (1, (1, (1, 2)))
    assert G.face(c, 0, 2) == (1, ((0, 1), 1))
    assert G.face(c, 1, 2) == (1, ((0, 1), 2))


def test_standard_cube():
    C3 = standard_cube(3)
    assert C3.size(3) == 1
    assert C3.size(2) == 6
    assert C3.size(1) == 12
    assert C3.size(0) == 8
    assert_valid_precubical(C3)
    C0 = standard_cube(0)
    assert C0.cells(0) == ((),)


def test_evaluate_subcube_on_grid():
    # On a grid, evaluating the top cell at a coordinate should return the
    # cell with exactly those coordinates once intervals are substituted.
    G = interval_grid((1, 1, 1))
    top = (3, ((0, 1), (0, 1), (0, 1)))
    for combo in itertools.product([0, 1, (0, 1)], repeat=3):
        got = evaluate_subcube(G, top, combo)
        assert got == (sum(1 for c in combo if c == (0, 1)), combo)
    with pytest.raises(ValueError):
        evaluate_subcube(G, top, (0, 1))
    with pytest.raises(ValueError):
        evaluate_subcube(G, top, (0, 2, 1))


def test_edge_in_direction_square():
    P = two_square()
    s = (2, "s")
    # e[0,i]: the other direction is pushed to its upper end, so e[0,1] is
    # the direction-1 edge sitting at the top of direction 2, which is the
    # face d[1,2] of s, and so on.
    assert edge_in_direction(P, s, 0, 1) == (1, "d")
    assert edge_in_direction(P, s, 0, 2) == (1, "b")
    assert edge_in_direction(P, s, 1, 1) == (1, "c")
    assert edge_in_direction(P, s, 1, 2) == (1, "a")
    e = (1, "a")
    assert edge_in_direction(P, e, 0, 1) == e
    assert edge_in_direction(P, e, 1, 1) == e
    with pytest.raises(ValueError):
        edge_in_direction(P, (0, "00"), 0, 1)


def test_edge_in_direction_matches_subcube_evaluation():
    # On the standard cube the direction-i edge has an explicit grid formula:
    # coordinate i is the interval, the rest sit at 1-k.
    for n in (1, 2, 3, 4):
        C = standard_cube(n)
        top = (n, ((0, 1),) * n)
        for i in range(1, n + 1):
            for k in (0, 1):
                coords = tuple(
                    (0, 1) if pos == i else 1 - k for pos in range(1, n + 1)
                )
                assert edge_in_direction(C, top, k, i) == evaluate_subcube(
                    C, top, coords
                )


def test_tensor_of_intervals_is_grid():
    A = interval(0, 2)
    B = interval(0, 1)
    T = tensor(A, B)
    G = interval_grid((2, 1))
    for n in (0, 1, 2):
        assert T.size(n) == G.size(n)
    assert_valid_precubical(T)
    # Check one square' faces against the same square in the grid.
    sq = (2, ((0, 1), (0, 1)))
    assert T.face(sq, 0, 1) == (1, (0, (0, 1)))
    assert T.face(sq, 1, 2) == (1, ((0, 1), 1))


def test_tensor_face_split():
    P = two_square()
    Q = interval(0, 1)
    T = tensor(P, Q)
    assert_valid_precubical(T)
    cube = (3, ("s", (0, 1)))
    assert cube in T
    # Directions 1 and 2 act on the square, direction 3 on the interval.
    assert T.face(cube, 0, 1) == (2, ("a", (0, 1)))
    assert T.face(cube, 1, 2) == (2, ("d", (0, 1)))
    assert T.face(cube, 0, 3) == (2, ("s", 0))
    assert T.face(cube, 1, 3) == (2, ("s", 1))


def test_tensor_ambiguity_rejected():
    # Both factors reuse one key for a vertex and a loop edge, so the pair
    # ("e", "v") would name both an edge x vertex and a vertex x edge cell in
    # dimension 1.
    P = PrecubicalSet({0: ["e"], 1: ["e"]}, {(1, "e"): (["e"], ["e"])})
    Q = PrecubicalSet({0: ["v"], 1: ["v"]}, {(1, "v"): (["v"], ["v"])})
    with pytest.raises(ValueError):
        tensor(P, Q)


def test_paths():
    P = interval(0, 3)
    e = lambda j: (1, (j, j + 1))
    p = Path(P, (e(0), e(1)), (0, 0))
    assert p.source == (0, 0)
    assert p.target == (0, 2)
    assert len(p) == 2
    empty = Path(P, (), (0, 2))
    assert empty.source == empty.target == (0, 2)
    with pytest.raises(ValueError):
        Path(P, (e(0), e(2)), (0, 0))
    with pytest.raises(ValueError):
        Path(P, (), (0, 9))


def test_morphism_violation_kinds():
    P = two_square()
    mapping = {c: c for c in P.all_cubes()}
    del mapping[(2, "s")]
    f = PcMorphism(P, P, dict(mapping))
    assert {v.kind for v in f.violations()} == {"not-total"}

    mapping2 = {c: c for c in P.all_cubes()}
    mapping2[(1, "c")] = (0, "00")
    mapping2[(0, "01")] = (0, "zz")
    f2 = PcMorphism(P, P, mapping2)
    kinds = {v.kind for v in f2.violations()}
    assert kinds == {"dimension", "bad-image"}

    mapping3 = {c: c for c in P.all_cubes()}
    mapping3[(1, "d")] = (1, "c")
    f3 = PcMorphism(P, P, mapping3)
    bad = f3.violations()
    assert bad and all(v.kind == "face-commute" for v in bad)
    # The square's direction-2 upper face no longer commutes.
    assert any(v.cube == (2, "s") and v.data == (1, 2) for v in bad)


def test_morphism_valid_and_path_image():
    # Fold an interval onto a single loop; every genuine morphism condition
    # holds.
    A = interval(0, 2)
    L = PrecubicalSet({0: ["v"], 1: ["e"]}, {(1, "e"): (["v"], ["v"])})
    f = PcMorphism(
        A,
        L,
        {
            (0, 0): (0, "v"),
            (0, 1): (0, "v"),
            (0, 2): (0, "v"),
            (1, (0, 1)): (1, "e"),
            (1, (1, 2)): (1, "e"),
        },
    )
    assert f.violations() == []

    g = PcMorphism(A, A, {c: c for c in A.all_cubes()})
    assert g.violations() == []


# -- golden validation reports ------------------------------------------------------


def _named_cube3():
    """The standard 3-cube with short string keys, one letter per axis.

    An axis reads 0 or 1 at an end and e along the edge, so "e01" is the
    direction-1 edge at x2 = 0, x3 = 1.  Returns (cells, faces) as mutable
    dicts of lists so that a test can damage them.
    """
    def name(key):
        return "".join("e" if isinstance(c, tuple) else str(c) for c in key)

    grid = interval_grid((1, 1, 1))
    cells = {n: [name(key) for key in grid.cells(n)] for n in grid.dims()}
    faces = {}
    for n in grid.dims():
        for key in grid.cells(n) if n else ():
            d0, d1 = grid.face_keys((n, key))
            faces[(n, name(key))] = ([name(k) for k in d0], [name(k) for k in d1])
    return cells, faces


def _damaged_cube3(case):
    cells, faces = _named_cube3()
    if case == "missing-entry":
        del faces[(1, "e00")]
        del faces[(2, "ee1")]
    elif case == "face-arity":
        # Too long only, so that no identity reads past the end of a tuple.
        faces[(2, "0ee")] = (["00e", "0e0"], ["01e", "0e1", "0ee"])
        faces[(1, "1e1")] = (["101", "111"], ["111"])
    elif case == "dangling-face":
        faces[(2, "e1e")][1][0] = "zz"
        faces[(3, "eee")][0][2] = "ghost"
    elif case == "broken-identity":
        # The top cube's upper faces in directions 1 and 2 trade places, and
        # one square's lower edge starts at the wrong vertex.
        d1 = faces[(3, "eee")][1]
        d1[0], d1[1] = d1[1], d1[0]
        faces[(1, "0e0")] = (["100"], ["010"])
    elif case == "orphan-entry":
        faces[(2, "ghost")] = (["e00", "0e0"], ["e10", "1e0"])
        faces[(1, "ee0")] = (["00"], ["10"])
    elif case == "short-inner-face":
        # An edge with no lower vertex under two squares, and a square with
        # a one-edge lower side under the top cube.  The damage of
        # broken-identity is added: identities that do not read the short
        # tuples still report it, including the top cube's after a skip.
        faces[(1, "e00")] = ([], ["100"])
        faces[(2, "ee1")] = (["0e1"], ["1e1", "e11"])
        d1 = faces[(3, "eee")][1]
        d1[0], d1[1] = d1[1], d1[0]
        faces[(1, "0e0")] = (["100"], ["010"])
    else:
        raise ValueError(case)
    return PrecubicalSet(cells, faces)


def _report(P, validate=None):
    validate = validate or validate_precubical
    return [(v.kind, v.cube, v.message, v.data) for v in validate(P)]


# Full reports, in order.  Each one but short-inner-face was recorded from
# the validator that read faces through PrecubicalSet.face; on short inner
# face tuples that validator raised IndexError instead of reporting.
GOLDEN_REPORTS = {
    "missing-entry": [
        ("missing-faces", (1, "e00"), "no face entry", ()),
        ("missing-faces", (2, "ee1"), "no face entry", ()),
    ],
    "face-arity": [
        ("face-arity", (1, "1e1"), "expected 1 lower and upper faces, got 2/1", ()),
        ("face-arity", (2, "0ee"), "expected 2 lower and upper faces, got 2/3", ()),
    ],
    "dangling-face": [
        ("dangling-face", (2, "e1e"), "d[1,1] refers to missing cell 'zz' in dim 1", (1, 1)),
        ("dangling-face", (3, "eee"), "d[0,3] refers to missing cell 'ghost' in dim 2", (0, 3)),
    ],
    "broken-identity": [
        (
            "cubical-identity",
            (2, "0ee"),
            "d[0,1]d[0,2] = (0, '100') but d[0,1]d[0,1] = (0, '000')",
            (0, 1, 0, 2),
        ),
        (
            "cubical-identity",
            (2, "ee0"),
            "d[0,1]d[0,2] = (0, '000') but d[0,1]d[0,1] = (0, '100')",
            (0, 1, 0, 2),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[0,1]d[1,2] = (1, '10e') but d[1,1]d[0,1] = (1, '01e')",
            (0, 1, 1, 2),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[0,2] = (1, '10e') but d[0,1]d[1,1] = (1, '01e')",
            (1, 1, 0, 2),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[0,3] = (1, '1e0') but d[0,2]d[1,1] = (1, 'e10')",
            (1, 1, 0, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[1,3] = (1, '1e1') but d[1,2]d[1,1] = (1, 'e11')",
            (1, 1, 1, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,2]d[0,3] = (1, 'e10') but d[0,2]d[1,2] = (1, '1e0')",
            (1, 2, 0, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,2]d[1,3] = (1, 'e11') but d[1,2]d[1,2] = (1, '1e1')",
            (1, 2, 1, 3),
        ),
    ],
    "orphan-entry": [
        ("orphan-face-entry", (2, "ghost"), "face entry for unknown cell", ()),
        ("orphan-face-entry", (1, "ee0"), "face entry for unknown cell", ()),
    ],
    "short-inner-face": [
        ("face-arity", (1, "e00"), "expected 1 lower and upper faces, got 0/1", ()),
        (
            "cubical-identity",
            (2, "0ee"),
            "d[0,1]d[0,2] = (0, '100') but d[0,1]d[0,1] = (0, '000')",
            (0, 1, 0, 2),
        ),
        ("face-arity", (2, "ee1"), "expected 2 lower and upper faces, got 1/2", ()),
        (
            "cubical-identity",
            (3, "eee"),
            "d[0,1]d[1,2] = (1, '10e') but d[1,1]d[0,1] = (1, '01e')",
            (0, 1, 1, 2),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[0,2] = (1, '10e') but d[0,1]d[1,1] = (1, '01e')",
            (1, 1, 0, 2),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[0,3] = (1, '1e0') but d[0,2]d[1,1] = (1, 'e10')",
            (1, 1, 0, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,1]d[1,3] = (1, '1e1') but d[1,2]d[1,1] = (1, 'e11')",
            (1, 1, 1, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,2]d[0,3] = (1, 'e10') but d[0,2]d[1,2] = (1, '1e0')",
            (1, 2, 0, 3),
        ),
        (
            "cubical-identity",
            (3, "eee"),
            "d[1,2]d[1,3] = (1, 'e11') but d[1,2]d[1,2] = (1, '1e1')",
            (1, 2, 1, 3),
        ),
    ],
}


@pytest.mark.parametrize("case", list(GOLDEN_REPORTS))
def test_validation_reports_are_pinned(case):
    P = _damaged_cube3(case)
    assert _report(P) == GOLDEN_REPORTS[case]
    assert _report(P, reference_validate_precubical) == GOLDEN_REPORTS[case]


def test_named_cube3_is_clean():
    cells, faces = _named_cube3()
    assert validate_precubical(PrecubicalSet(cells, faces)) == []


def test_validation_reports_instead_of_raising_on_random_damage():
    """Shortened, lengthened, rewritten and deleted face lists never raise."""
    from conftest import suite_rng

    rng = suite_rng("damaged-cube3")
    pristine = _named_cube3()[1]
    for _ in range(300):
        cells, faces = _named_cube3()
        names = [key for n in cells for key in cells[n]] + ["zz"]
        for _ in range(rng.randint(1, 4)):
            cube = rng.choice(list(faces))
            side = rng.choice(faces[cube])
            op = rng.randrange(4)
            if op == 0 and side:
                side.pop(rng.randrange(len(side)))
            elif op == 1:
                side.append(rng.choice(names))
            elif op == 2 and side:
                side[rng.randrange(len(side))] = rng.choice(names)
            elif op == 3:
                del faces[cube]
        P = PrecubicalSet(cells, faces)
        report = validate_precubical(P)
        # A rewrite can put back the key it replaced.
        assert bool(report) == (faces != pristine)
        assert report == reference_validate_precubical(P)


def test_face_arity_in_a_high_dimension_builds_no_identities():
    # 4·C(300, 2) identity tuples would take about 15 MB; a cube whose face
    # tuples fail the arity check needs none of them.
    P = PrecubicalSet({300: ["v"]}, {(300, "v"): ([], [])})
    tracemalloc.start()
    try:
        report = _report(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == [
        ("face-arity", (300, "v"), "expected 300 lower and upper faces, got 0/0", ())
    ]
    assert peak < 1 << 20


def test_validation_visits_only_the_dimensions_that_have_cells():
    # A vertex moved to dimension 10**9 gets its face-arity violation at
    # once, without a walk through the empty dimensions below it.
    n = 10**9
    faces = {(2, "e"): (["u", "u"], ["u", "u"]), (n, "v"): ([], [])}
    P = PrecubicalSet({0: ["u"], 2: ["e"], n: ["v"]}, faces)
    assert _report(P) == _report(P, reference_validate_precubical) == [
        ("dangling-face", (2, "e"), "d[0,1] refers to missing cell 'u' in dim 1", (0, 1)),
        ("dangling-face", (2, "e"), "d[0,2] refers to missing cell 'u' in dim 1", (0, 2)),
        ("dangling-face", (2, "e"), "d[1,1] refers to missing cell 'u' in dim 1", (1, 1)),
        ("dangling-face", (2, "e"), "d[1,2] refers to missing cell 'u' in dim 1", (1, 2)),
        ("face-arity", (n, "v"), f"expected {n} lower and upper faces, got 0/0", ()),
    ]


# -- the validator before the gathered identity check, as reference ------------

_NO_FACES = ((), ())


def reference_validate_precubical(P: PrecubicalSet) -> list[Violation]:
    """validate_precubical as it was when every cube ran the full check."""
    out: list[Violation] = []
    faces = raw_faces(P)
    for n in P.dims():
        if n == 0:
            continue
        below = P.positions(n - 1)
        checks = None
        for cube in P.cubes(n):
            entry = faces.get(cube)
            if entry is None:
                out.append(Violation("missing-faces", cube, "no face entry"))
                continue
            d0, d1 = entry
            if len(d0) != n or len(d1) != n:
                out.append(
                    Violation(
                        "face-arity",
                        cube,
                        f"expected {n} lower and upper faces, got {len(d0)}/{len(d1)}",
                    )
                )
                continue
            dangling = False
            for k, keys in ((0, d0), (1, d1)):
                for i, key in enumerate(keys, start=1):
                    if key not in below:
                        out.append(
                            Violation(
                                "dangling-face",
                                cube,
                                f"d[{k},{i}] refers to missing cell {key!r} in dim {n-1}",
                                (k, i),
                            )
                        )
                        dangling = True
            if dangling or n == 1:
                continue
            if checks is None:
                checks = [
                    (k, i, l, j)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                    for k in (0, 1)
                    for l in (0, 1)
                ]
            inner = (
                [faces.get((n - 1, key), _NO_FACES) for key in d0],
                [faces.get((n - 1, key), _NO_FACES) for key in d1],
            )
            for k, i, l, j in checks:
                try:
                    left = inner[l][j - 1][k][i - 1]
                    right = inner[k][i - 1][l][j - 2]
                except IndexError:
                    continue
                if left != right:
                    out.append(
                        Violation(
                            "cubical-identity",
                            cube,
                            f"d[{k},{i}]d[{l},{j}] = {(n - 2, left)} but "
                            f"d[{l},{j-1}]d[{k},{i}] = {(n - 2, right)}",
                            (k, i, l, j),
                        )
                    )
    for cube in faces:
        if cube not in P:
            out.append(Violation("orphan-face-entry", cube, "face entry for unknown cell"))
    return out


def _damaged_model(rng, h):
    """h with one to three random defects in its faces, labels or marks."""
    P = h.complex
    cells = {n: list(P.cells(n)) for n in P.dims()}
    faces = {cube: (list(d0), list(d1)) for cube, (d0, d1) in raw_faces(P).items()}
    labels, marks = dict(h.labels), [set(h.initial), set(h.final)]
    for _ in range(rng.randint(1, 3)):
        cube = rng.choice(list(faces))
        n = cube[0]
        side = rng.choice(faces[cube])
        op = rng.randrange(12)
        if op == 0 and side:  # dangling reference
            side[rng.randrange(len(side))] = "nowhere"
        elif op == 1 and side:  # short tuple
            side.pop(rng.randrange(len(side)))
        elif op == 2:  # long tuple
            side.append(rng.choice(cells[n - 1]))
        elif op == 3:  # orphan entry
            faces[(n, f"ghost{len(faces)}")] = faces[cube]
        elif op == 4:  # missing entry
            del faces[cube]
        elif op == 5 and side:  # broken square: a real face in the wrong place
            side[rng.randrange(len(side))] = rng.choice(cells[n - 1])
        elif op == 6 and n > 1:  # lower and upper face of one direction swapped
            i = rng.randrange(n)
            d0, d1 = faces[cube]
            d0[i], d1[i] = d1[i], d0[i]
        elif op == 7:  # orphan label, or a word moved to another edge
            edge = rng.choice(cells[1])
            labels[rng.choice([edge, "ghost"])] = labels[rng.choice(cells[1])]
        elif op == 8:  # a word that is not a tuple of letters
            labels[rng.choice(cells[1])] = rng.choice(
                [["a"], ("a", ["b"]), (3,), (None, "x"), "ab", ()]
            )
        elif op == 9:  # a letter outside the alphabet
            edge = rng.choice(cells[1])
            labels[edge] = tuple(labels.get(edge, ())) + ("zz",)
        elif op == 10:  # an unlabeled edge
            labels.pop(rng.choice(cells[1]), None)
        else:  # a marked cell outside the complex
            rng.choice(marks).add(rng.choice([(0, "nowhere"), (1, cells[1][0]), (5, "v")]))
    return Hda(
        PrecubicalSet(cells, faces), h.alphabet, labels, frozenset(marks[0]), frozenset(marks[1])
    )


def reference_validate_hda(h: Hda) -> list[Violation]:
    """validate_hda as it was when every edge ran the per-letter checks."""
    out = reference_validate_precubical(h.complex)
    P = h.complex
    for key in P.cells(1):
        if key not in h.labels:
            out.append(Violation("unlabeled-edge", (1, key), "edge has no word"))
            continue
        word = h.labels[key]
        if not isinstance(word, tuple) or any(not isinstance(a, str) for a in word):
            out.append(
                Violation("bad-word", (1, key), f"word must be a tuple of letters, got {word!r}")
            )
            continue
        for a in word:
            if a not in h.alphabet:
                out.append(
                    Violation("unknown-letter", (1, key), f"letter {a!r} not in alphabet")
                )
    edge_keys = set(P.cells(1))
    for key in h.labels:
        if key not in edge_keys:
            out.append(Violation("orphan-label", (1, key), "label for unknown edge"))
    if not any(v.kind in ("missing-faces", "dangling-face", "face-arity") for v in out):
        for key in P.cells(2):
            sq = (2, key)
            for i, (lo, hi) in enumerate(zip(*P.face_keys(sq)), start=1):
                wl = h.labels.get(lo)
                wh = h.labels.get(hi)
                if wl is not None and wh is not None and wl != wh:
                    out.append(
                        Violation(
                            "square-condition",
                            sq,
                            f"opposite edges disagree in direction {i}: "
                            f"{wl!r} vs {wh!r}",
                            (i,),
                        )
                    )
    for name, cubes in (("initial", h.initial), ("final", h.final)):
        for cube in cubes:
            if cube not in P:
                out.append(Violation(f"{name}-not-in-complex", cube, "marked cell missing"))
    return out


def damaged_models():
    """The damaged-model stream: 40 random damages of each of three programs."""
    from conftest import suite_rng
    from hda_lab.models import dining_philosophers, lock_counter, peterson
    from hda_lab.programs import program_to_hda

    rng = suite_rng("damaged-models")
    for prog in (peterson(), dining_philosophers(3), lock_counter()):
        h = program_to_hda(prog)
        for _ in range(40):
            yield _damaged_model(rng, h)


def test_validation_matches_the_reference_on_damaged_models():
    kinds = set()
    for damaged in damaged_models():
        expected = reference_validate_hda(damaged)
        assert validate_hda(damaged) == expected
        kinds |= {v.kind for v in expected}
    assert kinds >= {
        "dangling-face", "face-arity", "orphan-face-entry", "missing-faces",
        "cubical-identity", "orphan-label", "square-condition",
        "initial-not-in-complex", "final-not-in-complex",
        "unlabeled-edge", "bad-word", "unknown-letter",
    }


def test_face_lists_are_stored_as_tuples():
    faces = {(1, "a"): (["u"], ["v"]), (1, "b"): [("u",), ["v"]], (1, "c"): (("v",), ("u",))}
    P = PrecubicalSet({0: ["u", "v"], 1: ["a", "b", "c"]}, faces)
    for key, (d0, d1) in faces.items():
        pair = P.face_keys(key)
        assert type(pair) is tuple and pair == (tuple(d0), tuple(d1))
        assert type(pair[0]) is tuple and type(pair[1]) is tuple
    assert faces[(1, "a")] == (["u"], ["v"])  # the caller's lists are not touched


def test_a_vertex_has_no_face_keys():
    from hda_lab.models import torus_hda

    P = torus_hda().complex
    assert P.cells(0)
    for key in P.cells(0):
        assert P.face_keys((0, key)) == ((), ())
        with pytest.raises(IndexError, match="out of range for dimension 0"):
            P.face((0, key), 0, 1)
    with pytest.raises(KeyError):
        P.face_keys((0, "nowhere"))


# -- the position store against a key-based reference -------------------------------


class KeyFaces:
    """Face entries kept by cube, as the constructor is given them: the store
    before integer positions, as the reference for ``face`` and ``face_keys``."""

    def __init__(self, faces):
        self.faces = {cube: (tuple(d0), tuple(d1)) for cube, (d0, d1) in faces.items()}

    def face_keys(self, cube):
        if not cube[0]:  # a vertex has no faces, unless it was given some
            return self.faces.get(cube, ((), ()))
        return self.faces[cube]

    def face(self, cube, k, i):
        n = cube[0]
        if not 1 <= i <= n or k not in (0, 1):
            raise IndexError(cube, k, i)
        return (n - 1, self.faces[cube][k][i - 1])


def _outcome(call, *args):
    try:
        return call(*args)
    except (KeyError, IndexError) as e:
        return type(e)


def assert_store_matches(P, faces):
    """P answers ``face`` and ``face_keys`` as a key-based store of ``faces``
    does, for its cells and for every entry, and a face it resolved to a
    cell is that cell's own key object."""
    ref = KeyFaces(faces)
    for cube in itertools.chain(P.all_cubes(), ref.faces):
        n = cube[0]
        assert _outcome(P.face_keys, cube) == _outcome(ref.face_keys, cube), cube
        for k, i in itertools.product((0, 1), range(1, n + 1)):
            assert _outcome(P.face, cube, k, i) == _outcome(ref.face, cube, k, i), (cube, k, i)
        if cube in P and n and P.face_positions(n)[P.cell_index(cube)] is not None:
            below, pos = P.cells(n - 1), P.positions(n - 1)
            assert all(key is below[pos[key]] for key in itertools.chain(*P.face_keys(cube)))


def _models():
    """Every fixture, the conftest streams and the damaged-model stream."""
    from conftest import random_circle, random_torus, suite_rng
    from hda_lab import cli, models
    from hda_lab.products import tensor_hda
    from hda_lab.programs import program_to_hda

    for build in cli._FIXTURES.values():
        yield build(models)
    yield tensor_hda(models.labeled_circle(["a"]), models.labeled_circle(["b", "c"]))
    yield program_to_hda(models.dining_philosophers(3))
    rng = suite_rng("face-store")
    for _ in range(6):
        yield random_circle(rng)
        yield random_torus(rng)
    yield from damaged_models()


def test_the_constructor_matches_a_key_based_store(monkeypatch):
    built = []
    init = PrecubicalSet.__init__

    def recording(self, cells, faces=None):
        init(self, cells, faces)
        built.append((self, KeyFaces(faces or {}).faces))

    monkeypatch.setattr(PrecubicalSet, "__init__", recording)
    models = list(_models())
    grids = [interval_grid((2, 1, 3)), tensor(interval(0, 2), standard_cube(2))]
    monkeypatch.undo()
    assert len(built) > len(models) // 2 and all(any(P is G for P, _ in built) for G in grids)
    for P, faces in built:
        assert_store_matches(P, faces)


def _reordered(doc, order):
    cubes = doc["cubes"]
    if order == "reversed":
        cubes = cubes[::-1]
    elif order == "top-dimension-first":
        cubes = sorted(cubes, key=lambda e: -e["dim"])
    return {**doc, "cubes": cubes}


def test_loaded_files_match_a_key_based_store_in_any_cube_order():
    """Canonical files resolve faces while loading; a file in another order
    goes through the key-based constructor.  Both load the same complex:
    the same faces, the same bytes on save and the same validation reports."""
    from conftest import id_form
    from hda_lab.fileformats import FileFormatError, canonical_json, hda_from_json, hda_to_json

    loaded, kinds = 0, set()
    for h in _models():
        try:
            written = hda_to_json(h)
        except (KeyError, FileFormatError):  # a damage no file can hold
            continue
        doc = id_form(written)
        faces = {(e["dim"], e["id"]): (e["d0"], e["d1"]) for e in doc["cubes"] if e["dim"]}
        if all(type(key) is str for n in h.complex.dims() for key in h.complex.cells(n)):
            if not validate_hda(h):
                assert_store_matches(h.complex, faces)
        try:
            canonical = hda_from_json(doc)
        except FileFormatError:
            for order in ("reversed", "top-dimension-first"):
                with pytest.raises(FileFormatError):
                    hda_from_json(_reordered(doc, order))
            continue
        loaded += 1
        text = canonical_json(written)
        report = validate_hda(canonical)
        kinds |= {v.kind for v in report}
        assert_store_matches(canonical.complex, faces)
        assert canonical_json(hda_to_json(canonical)) == text
        for order in ("reversed", "top-dimension-first"):
            other = hda_from_json(_reordered(doc, order))
            assert_store_matches(other.complex, faces)
            assert canonical_json(hda_to_json(other)) == text
            if order == "reversed":  # each dimension's cells, and so reports, run backwards
                assert sorted(map(str, validate_hda(other))) == sorted(map(str, report))
            else:
                assert validate_hda(other) == report
    assert loaded > 90
    assert kinds >= {"dangling-face", "face-arity", "cubical-identity", "square-condition"}
