"""Subdividing directed maps: validation and induced chain maps."""

from hda_lab.dimap import (
    CubeMap,
    ElementaryDimap,
    check_chain_map,
    check_naturality,
    face_restriction,
    identity_dimap,
    path_image,
    perm_sign,
    pushforward_chain,
    pushforward_cube,
    validate_dimap,
)
from hda_lab import exterior
from hda_lab.hda import Alphabet, Hda, assert_valid_hda
from hda_lab.labeling import chain_label, label_cochain
from hda_lab.models import (
    directed_circle,
    filled_square,
    labeled_circle,
    labeled_interval,
    torus_hda,
)
from hda_lab.constructions import Path, interval_grid
from hda_lab.precubical import PrecubicalSet
from hda_lab.rings import GF2, ZZ, CoefficientRing

GF3 = CoefficientRing(3)


def grid_hda(shape, axis_words, initial, final):
    """Label an interval grid, axis by axis; axis_words[t][j] names slot j."""
    P = interval_grid(shape)
    labels = {}
    for _, key in P.cubes(1):
        for t, comp in enumerate(key):
            if isinstance(comp, tuple):
                labels[key] = (axis_words[t][comp[0]],)
    letters = [w for ws in axis_words for w in ws]
    h = Hda(
        complex=P,
        alphabet=Alphabet(dict.fromkeys(letters)),
        labels=labels,
        initial=frozenset({(0, initial)}),
        final=frozenset({(0, final)}),
    )
    assert_valid_hda(h)
    return h


def coarse_square():
    """A single square whose first direction word has two letters."""
    cells = {0: ["00", "10", "01", "11"], 1: ["bottom", "top", "left", "right"], 2: ["s"]}
    faces = {
        (1, "bottom"): (["00"], ["10"]),
        (1, "top"): (["01"], ["11"]),
        (1, "left"): (["00"], ["01"]),
        (1, "right"): (["10"], ["11"]),
        (2, "s"): (["left", "bottom"], ["right", "top"]),
    }
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(["a1", "a2", "b"]),
        labels={
            "bottom": ("a1", "a2"),
            "top": ("a1", "a2"),
            "left": ("b",),
            "right": ("b",),
        },
        initial=frozenset({(0, "00")}),
        final=frozenset({(0, "11")}),
    )
    assert_valid_hda(h)
    return h


def subdivision_dimap():
    """The coarse square spread over a 2 x 1 grid of single-letter squares."""
    src = coarse_square()
    tgt = grid_hda((2, 1), [["a1", "a2"], ["b"]], (0, 0), (2, 1))
    vertex_map = {
        (0, "00"): (0, (0, 0)),
        (0, "10"): (0, (2, 0)),
        (0, "01"): (0, (0, 1)),
        (0, "11"): (0, (2, 1)),
    }
    horizontal = lambda y: {
        (0,): (0, (0, y)),
        (1,): (0, (1, y)),
        (2,): (0, (2, y)),
        ((0, 1),): (1, ((0, 1), y)),
        ((1, 2),): (1, ((1, 2), y)),
    }
    vertical = lambda x: {
        (0,): (0, (x, 0)),
        (1,): (0, (x, 1)),
        ((0, 1),): (1, (x, (0, 1))),
    }
    square_flat = {key: (d, key) for d, key in interval_grid((2, 1)).all_cubes()}
    cube_maps = {
        (1, "bottom"): CubeMap((2,), (1,), horizontal(0)),
        (1, "top"): CubeMap((2,), (1,), horizontal(1)),
        (1, "left"): CubeMap((1,), (1,), vertical(0)),
        (1, "right"): CubeMap((1,), (1,), vertical(2)),
        (2, "s"): CubeMap((2, 1), (1, 2), square_flat),
    }
    return ElementaryDimap(src, tgt, vertex_map, cube_maps)


def test_an_edge_twice_round_a_loop_pushes_forward_to_twice_the_loop():
    # The loop's edge covers the target loop twice: both cells of its
    # shape-(2,) grid land on the one target edge.
    src = directed_circle(["aa"])
    tgt = labeled_circle(["a"])
    v, x = (0, "v0"), (1, "x0")
    flat = {(0,): v, (1,): v, (2,): v, ((0, 1),): x, ((1, 2),): x}
    f = ElementaryDimap(src, tgt, {v: v}, {x: CubeMap((2,), (1,), flat)})
    assert validate_dimap(f) == []
    assert pushforward_cube(f, x, ZZ) == {x: 2}
    assert pushforward_chain(f, {x: 3}, ZZ) == {x: 6}
    assert pushforward_cube(f, x, GF2) == {}
    assert pushforward_chain(f, {x: 1, v: 1}, GF2) == {v: 1}
    assert pushforward_cube(f, x, GF3) == {x: 2}


def transposition_dimap():
    """The square with its two directions swapped in the target."""
    src = filled_square("a", "b")
    tgt = filled_square("b", "a")
    vertex_map = {
        (0, "00"): (0, "00"),
        (0, "10"): (0, "01"),
        (0, "01"): (0, "10"),
        (0, "11"): (0, "11"),
    }
    cube_maps = {
        (1, "bottom"): CubeMap((1,), (1,), {(0,): (0, "00"), (1,): (0, "01"), ((0, 1),): (1, "left")}),
        (1, "top"): CubeMap((1,), (1,), {(0,): (0, "10"), (1,): (0, "11"), ((0, 1),): (1, "right")}),
        (1, "left"): CubeMap((1,), (1,), {(0,): (0, "00"), (1,): (0, "10"), ((0, 1),): (1, "bottom")}),
        (1, "right"): CubeMap((1,), (1,), {(0,): (0, "01"), (1,): (0, "11"), ((0, 1),): (1, "top")}),
        (2, "s"): CubeMap(
            (1, 1),
            (2, 1),
            {
                (0, 0): (0, "00"),
                (1, 0): (0, "10"),
                (0, 1): (0, "01"),
                (1, 1): (0, "11"),
                ((0, 1), 0): (1, "bottom"),
                ((0, 1), 1): (1, "top"),
                (0, (0, 1)): (1, "left"),
                (1, (0, 1)): (1, "right"),
                ((0, 1), (0, 1)): (2, "s"),
            },
        ),
    }
    return ElementaryDimap(src, tgt, vertex_map, cube_maps)


def subdivide_then_transpose_dimap():
    """The coarse square spread over a 1 x 2 grid turned on its side.

    This is subdivision_dimap followed by strip_transposition_dimap, written
    out as one map: the first direction's two letters run along grid axis 2,
    and axis_perm records that grid axis 1 realizes the second direction.
    """
    src = coarse_square()
    tgt = grid_hda((1, 2), [["b"], ["a1", "a2"]], (0, 0), (1, 2))
    vertex_map = {
        (0, "00"): (0, (0, 0)),
        (0, "10"): (0, (0, 2)),
        (0, "01"): (0, (1, 0)),
        (0, "11"): (0, (1, 2)),
    }
    horizontal = lambda x: {
        (0,): (0, (x, 0)),
        (1,): (0, (x, 1)),
        (2,): (0, (x, 2)),
        ((0, 1),): (1, (x, (0, 1))),
        ((1, 2),): (1, (x, (1, 2))),
    }
    vertical = lambda y: {
        (0,): (0, (0, y)),
        (1,): (0, (1, y)),
        ((0, 1),): (1, ((0, 1), y)),
    }
    square_flat = {key: (d, key) for d, key in interval_grid((1, 2)).all_cubes()}
    cube_maps = {
        (1, "bottom"): CubeMap((2,), (1,), horizontal(0)),
        (1, "top"): CubeMap((2,), (1,), horizontal(1)),
        (1, "left"): CubeMap((1,), (1,), vertical(0)),
        (1, "right"): CubeMap((1,), (1,), vertical(2)),
        (2, "s"): CubeMap((1, 2), (2, 1), square_flat),
    }
    return ElementaryDimap(src, tgt, vertex_map, cube_maps)


def _shift(coord, offsets):
    out = []
    for comp, off in zip(coord, offsets):
        if isinstance(comp, tuple):
            out.append((comp[0] + off, comp[1] + off))
        else:
            out.append(comp + off)
    return tuple(out)


def _as_cube(coord):
    return (sum(1 for c in coord if isinstance(c, tuple)), coord)


def strip_transposition_dimap(strip):
    """The 2 x 1 grid turned on its side into a 1 x 2 grid."""
    tgt = grid_hda((1, 2), [["b"], ["a1", "a2"]], (0, 0), (1, 2))
    vertex_map = {
        (0, (i, j)): (0, (j, i)) for i in range(3) for j in range(2)
    }
    cube_maps = {}
    for _, key in strip.complex.cubes(1):
        swapped = (key[1], key[0])
        lo = tuple(c[0] if isinstance(c, tuple) else c for c in swapped)
        hi = tuple(c[1] if isinstance(c, tuple) else c for c in swapped)
        cube_maps[(1, key)] = CubeMap(
            (1,), (1,), {(0,): (0, lo), (1,): (0, hi), ((0, 1),): (1, swapped)}
        )
    for slot in range(2):
        key = ((slot, slot + 1), (0, 1))
        # The grid embeds straight into the target; only axis_perm records
        # that grid axis 1 realizes the source square's second direction.
        flat = {
            coord: _as_cube(_shift(coord, (0, slot)))
            for _, coord in interval_grid((1, 1)).all_cubes()
        }
        cube_maps[(2, key)] = CubeMap((1, 1), (2, 1), flat)
    return ElementaryDimap(strip, tgt, vertex_map, cube_maps)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((3, 2, 1)) == -1
    assert perm_sign is exterior.perm_sign


def test_cube_maps_compare_by_their_three_fields():
    flat = {(0,): (1, "e")}
    cm = CubeMap((1,), (1,), flat)
    assert cm == CubeMap((1,), (1,), dict(flat))
    assert cm != CubeMap((2,), (1,), flat)
    assert cm != CubeMap((1,), (1,), {(0,): (1, "f")})
    assert cm.__eq__(((1,), (1,), flat)) is NotImplemented


def test_identity_dimap():
    for h in (filled_square(), torus_hda()):
        f = identity_dimap(h)
        assert validate_dimap(f) == []
        assert check_chain_map(f, ZZ) == []
        assert check_naturality(f, ZZ) == []
        assert check_naturality(f, GF2) == []
        for x in h.complex.all_cubes():
            assert pushforward_cube(f, x, ZZ) == {x: 1}


def test_subdivision_validates():
    f = subdivision_dimap()
    assert validate_dimap(f) == []
    assert check_chain_map(f, ZZ) == []


def test_face_restriction_recovers_stored_edges():
    f = subdivision_dimap()
    sm = f.cube_maps[(2, "s")]
    assert face_restriction(sm, 0, 1) == f.cube_maps[(1, "left")]
    assert face_restriction(sm, 1, 1) == f.cube_maps[(1, "right")]
    assert face_restriction(sm, 0, 2) == f.cube_maps[(1, "bottom")]
    assert face_restriction(sm, 1, 2) == f.cube_maps[(1, "top")]


def test_subdivision_pushforward_and_naturality():
    f = subdivision_dimap()
    y1 = (2, ((0, 1), (0, 1)))
    y2 = (2, ((1, 2), (0, 1)))
    assert pushforward_cube(f, (2, "s"), ZZ) == {y1: 1, y2: 1}
    assert check_naturality(f, ZZ) == []
    assert check_naturality(f, GF2) == []
    # The label of the coarse square is (a1 + a2) ^ b, spread over the grid.
    lhs = label_cochain(f.source, (2, "s"), ZZ)
    rhs = chain_label(f.target, {y1: 1, y2: 1}, ZZ)
    assert lhs == rhs.retag(f.source.alphabet)


def test_subdivision_path_image():
    f = subdivision_dimap()
    p = Path(f.source.complex, ((1, "bottom"), (1, "right")), (0, "00"))
    q = path_image(f, p)
    assert q.start == (0, (0, 0))
    assert q.edges == ((1, ((0, 1), 0)), (1, ((1, 2), 0)), (1, (2, (0, 1))))
    assert f.source.path_word(p) == f.target.path_word(q)


def test_transposition_sign():
    f = transposition_dimap()
    assert validate_dimap(f) == []
    assert check_chain_map(f, ZZ) == []
    assert pushforward_cube(f, (2, "s"), ZZ) == {(2, "s"): -1}
    assert pushforward_cube(f, (2, "s"), GF2) == {(2, "s"): 1}
    assert check_naturality(f, ZZ) == []
    assert check_naturality(f, GF3) == []


def test_transposition_without_sign_breaks_integral_naturality():
    f = transposition_dimap()
    f.cube_maps[(2, "s")].axis_perm = (1, 2)
    assert check_naturality(f, ZZ) != []
    # Mod 2 the orientation is invisible, so only the signed check sees it.
    assert check_naturality(f, GF2) == []


def test_composite_subdivide_then_transpose():
    f = subdivision_dimap()
    g = strip_transposition_dimap(f.target)
    assert validate_dimap(g) == []
    comp = subdivide_then_transpose_dimap()
    assert validate_dimap(comp) == []
    assert check_chain_map(comp, ZZ) == []
    assert check_naturality(comp, ZZ) == []
    cm = comp.cube_maps[(2, "s")]
    assert cm.shape == (1, 2)
    assert cm.axis_perm == (2, 1)
    w1 = (2, ((0, 1), (0, 1)))
    w2 = (2, ((0, 1), (1, 2)))
    assert pushforward_cube(comp, (2, "s"), ZZ) == {w1: -1, w2: -1}
    for ring in (ZZ, GF2, GF3):
        for x in f.source.complex.all_cubes():
            chained = pushforward_chain(g, pushforward_cube(f, x, ring), ring)
            assert chained == pushforward_cube(comp, x, ring)
    p = Path(f.source.complex, ((1, "bottom"), (1, "right")), (0, "00"))
    q, r = path_image(comp, p), path_image(g, path_image(f, p))
    assert (q.start, q.edges) == (r.start, r.edges)


def test_no_dimap_from_circle_to_interval():
    """Exhaustively: no directed map can open up a directed loop.

    Grids longer than the word already fail on labels, so shapes 1 and 2
    cover every candidate worth writing down; the deeper failure is that a
    loop's two endpoints are one vertex and an interval's are not, which the
    face family reports no matter where the vertex goes.
    """
    src = labeled_circle(["a"])
    tgt = labeled_interval(["a"])
    loop = (1, "x0")
    tgt_vertices = [(0, "v0"), (0, "v1")]
    candidates = []
    for dest in tgt_vertices:
        for length in (1, 2):
            def fill(prefix):
                if len(prefix) == length + 1:
                    flat = {}
                    for pos, img in enumerate(prefix):
                        flat[(pos,)] = img
                    for j in range(length):
                        flat[((j, j + 1),)] = (1, "x0")
                    candidates.append(
                        ElementaryDimap(
                            src,
                            tgt,
                            {(0, "v0"): dest},
                            {loop: CubeMap((length,), (1,), flat)},
                        )
                    )
                    return
                for v in tgt_vertices:
                    fill(prefix + [v])
            fill([])
    assert len(candidates) == 2 * (4 + 8)
    for cand in candidates:
        bad = validate_dimap(cand)
        assert bad != []
        hard = [v for v in bad if not v.kind.endswith("not-preserved")]
        assert hard != []


def test_validation_families_detect_defects():
    def kinds(f):
        return {v.kind for v in validate_dimap(f)}

    f = subdivision_dimap()
    f.cube_maps[(2, "s")].shape = (2,)
    assert "bad-shape" in kinds(f)

    f = subdivision_dimap()
    f.cube_maps[(2, "s")].axis_perm = (1, 1)
    assert "bad-axis-perm" in kinds(f)

    f = subdivision_dimap()
    del f.cube_maps[(2, "s")].flat[(1, 0)]
    assert "flat-missing-cell" in kinds(f)

    f = subdivision_dimap()
    f.cube_maps[(2, "s")].flat[(9, 9)] = (0, (0, 0))
    assert "flat-orphan-cell" in kinds(f)

    f = subdivision_dimap()
    f.cube_maps[(1, "bottom")].flat[((1, 2),)] = (1, ((0, 1), 0))
    assert any(k.startswith("flat-") for k in kinds(f))

    f = subdivision_dimap()
    f.cube_maps[(1, "top")] = f.cube_maps[(1, "bottom")]
    found = kinds(f)
    assert "face-data" in found or "face-vertex" in found

    f = subdivision_dimap()
    f.source.labels["bottom"] = ("a1", "a1")
    assert "label-mismatch" in kinds(f)

    f = subdivision_dimap()
    del f.vertex_map[(0, "00")]
    assert "vertex-unmapped" in kinds(f)

    f = subdivision_dimap()
    del f.cube_maps[(1, "top")]
    assert "cube-unmapped" in kinds(f)

    f = subdivision_dimap()
    f = ElementaryDimap(
        f.source,
        Hda(
            complex=f.target.complex,
            alphabet=f.target.alphabet,
            labels=f.target.labels,
            initial=f.target.initial,
            final=frozenset(),
        ),
        f.vertex_map,
        f.cube_maps,
    )
    assert "final-not-preserved" in kinds(f)


def test_a_table_its_grid_outgrows_builds_no_grid():
    # The bottom edge claims 20000 grid steps but its table holds 5 cells.
    # One of the grid's first 6 cells is missing, found without building
    # the grid's 40001 cells (several MB); bounded by the table instead.
    import tracemalloc

    f = subdivision_dimap()
    f.cube_maps[(1, "bottom")].shape = (20000,)
    tracemalloc.start()
    try:
        bad = validate_dimap(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    flat = [(v.kind, v.cube, v.message) for v in bad if v.kind.startswith("flat-")]
    assert flat == [("flat-missing-cell", (1, "bottom"), "grid cell ((2, 3),) unmapped")]
    assert peak < 1 << 20


def reference_flat_violations(x, cm):
    """The flat-table part of the structural check as it was when it built
    every grid: each missing cell in grid order, then each orphan entry."""
    grid = interval_grid(cm.shape)
    out = [
        ("flat-missing-cell", x, f"grid cell {cell[1]} unmapped")
        for cell in grid.all_cubes()
        if cm.flat.get(cell[1]) is None
    ]
    for coord in cm.flat:
        dim = sum(1 for c in coord if isinstance(c, tuple))
        if (dim, coord) not in grid:
            out.append(("flat-orphan-cell", x, f"no grid cell {coord}"))
    return out


def test_flat_table_reports_match_the_full_grid_check():
    # A table with at most one cell short of its grid gets the full grid's
    # report; a shorter one gets the missing cells among the grid's first
    # len(flat) + 1 cells, in the same order, so at least one.
    from math import prod

    from conftest import suite_rng

    rng = suite_rng("dimap-flat")
    for trial in range(300):
        f = (subdivision_dimap if trial % 2 else transposition_dimap)()
        for cm in f.cube_maps.values():
            for coord in rng.sample(sorted(cm.flat, key=repr), rng.randint(0, 3)):
                if rng.random() < 0.5:
                    del cm.flat[coord]
                else:
                    cm.flat[coord] = None
            for _ in range(rng.randint(0, 2)):
                parts = [rng.randint(-1, 4), (rng.randint(-1, 3), rng.randint(-1, 4))]
                cm.flat[tuple(rng.choice(parts) for _ in range(rng.randint(0, 3)))] = (0, "x")
            if rng.random() < 0.2:
                cm.shape = tuple(l + rng.randint(0, 2) for l in cm.shape)
        got = [(v.kind, v.cube, v.message) for v in validate_dimap(f) if v.kind in (
            "flat-missing-cell", "flat-orphan-cell")]
        for x, cm in f.cube_maps.items():
            want = reference_flat_violations(x, cm)
            mine = [v for v in got if v[1] == x]
            if prod(2 * l + 1 for l in cm.shape) <= len(cm.flat) + 1:
                assert mine == want
            else:
                rest = iter(want)
                assert all(v in rest for v in mine)
                assert any(v[0] == "flat-missing-cell" for v in mine)
