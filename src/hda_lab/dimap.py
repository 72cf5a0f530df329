"""Directed maps between automata that may subdivide and permute directions.

A plain precubical morphism sends an n-cube to an n-cube.  The maps here are
looser, matching monotone continuous maps of the geometric realizations: each
source n-cube x is carried onto a rectangular grid of target cells, described
by three pieces of data per cube:

  shape      grid side lengths (l_1, ..., l_n), each >= 1,
  axis_perm  which source direction each grid axis realizes,
  flat       a precubical morphism from interval_grid(shape) to the target.

Vertices map by a plain vertex table.  The data must cohere across faces: the
face d[k,i] x of x drops the grid axis realizing direction i at the matching
end, and what remains must be exactly the data stored for the face cell.  On
labels, the word of a source edge must be the concatenation of the words its
grid path runs through.  Validation checks four independent families
(structure, face coherence, labels, start/accept markings) and reports each
failure separately.

The induced chain map sends a cube to the signed sum of its grid's top cells,
the sign being that of the axis permutation; a transposed square pushes to
minus its image square.  This is the map the label cochain is natural for.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .hda import Hda
from .homology import Chain, chain_boundary
from .labeling import chain_label, label_cochain
from .precubical import (
    Cube,
    GridCoord,
    Path,
    PcMorphism,
    Violation,
    evaluate_subcube,
    grid_top_cells,
    interval_grid,
)
from .rings import CoefficientRing, ZZ


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a value sequence."""
    sign = 1
    vals = list(perm)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


@dataclass
class CubeMap:
    """Grid data of one source cube: shape, axis permutation, flattening.

    ``axis_perm[m-1]`` is the source direction realized by grid axis m; the
    identity tuple (1, 2, ..., n) means no transposition.  ``flat`` maps
    every cell of ``interval_grid(shape)`` (keyed by its coordinate tuple) to
    a target cube of the same dimension.
    """

    shape: tuple[int, ...]
    axis_perm: tuple[int, ...]
    flat: dict[GridCoord, Cube]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeMap):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.axis_perm == other.axis_perm
            and self.flat == other.flat
        )


@dataclass
class ElementaryDimap:
    """A subdividing directed map of automata."""

    source: Hda
    target: Hda
    vertex_map: dict[Cube, Cube]
    cube_maps: dict[Cube, CubeMap]


def face_restriction(cm: CubeMap, k: int, i: int) -> CubeMap:
    """The grid data a face d[k,i] inherits from its cofaces.

    Grid axis m = axis_perm^{-1}(i) disappears: the shape drops position m,
    the permutation drops that slot with higher direction values shifted
    down, and the flattening keeps the cells whose m-th coordinate sits at
    the frozen end (0 for k = 0, the full length for k = 1).
    """
    m = cm.axis_perm.index(i) + 1
    frozen = 0 if k == 0 else cm.shape[m - 1]
    shape2 = cm.shape[: m - 1] + cm.shape[m:]
    perm2 = tuple(
        d - 1 if d > i else d for d in cm.axis_perm[: m - 1] + cm.axis_perm[m:]
    )
    flat2 = {}
    for cell, img in cm.flat.items():
        if cell[m - 1] == frozen:
            flat2[cell[: m - 1] + cell[m:]] = img
    return CubeMap(shape2, perm2, flat2)


def _structural_violations(f: ElementaryDimap) -> list[Violation]:
    out: list[Violation] = []
    P = f.source.complex
    Q = f.target.complex
    for v in P.cubes(0):
        img = f.vertex_map.get(v)
        if img is None:
            out.append(Violation("vertex-unmapped", v, "no image vertex"))
        elif img not in Q or img[0] != 0:
            out.append(Violation("vertex-bad-image", v, f"image {img} is not a target vertex"))
    for v in f.vertex_map:
        if v not in P or v[0] != 0:
            out.append(Violation("vertex-orphan", v, "entry for a non-vertex"))
    for n in P.dims():
        if n == 0:
            continue
        for x in P.cubes(n):
            cm = f.cube_maps.get(x)
            if cm is None:
                out.append(Violation("cube-unmapped", x, "no grid data"))
                continue
            if len(cm.shape) != n or any(l < 1 for l in cm.shape):
                out.append(
                    Violation("bad-shape", x, f"shape {cm.shape} invalid for dimension {n}")
                )
                continue
            if sorted(cm.axis_perm) != list(range(1, n + 1)):
                out.append(
                    Violation("bad-axis-perm", x, f"{cm.axis_perm} is not a permutation of 1..{n}")
                )
                continue
            grid = interval_grid(cm.shape)
            mapping = {}
            complete = True
            for cell in grid.all_cubes():
                img = cm.flat.get(cell[1])
                if img is None:
                    out.append(Violation("flat-missing-cell", x, f"grid cell {cell[1]} unmapped"))
                    complete = False
                else:
                    mapping[cell] = img
            for coord in cm.flat:
                dim = sum(1 for c in coord if isinstance(c, tuple))
                if (dim, coord) not in grid:
                    out.append(Violation("flat-orphan-cell", x, f"no grid cell {coord}"))
            if not complete:
                continue
            for v in PcMorphism(grid, Q, mapping).violations():
                out.append(
                    Violation("flat-" + v.kind, x, f"grid cell {v.cube}: {v.message}", v.data)
                )
    for x in f.cube_maps:
        if x not in P or x[0] == 0:
            out.append(Violation("cube-orphan", x, "grid data for unknown or 0-dim cell"))
    return out


def _face_violations(f: ElementaryDimap) -> list[Violation]:
    out: list[Violation] = []
    P = f.source.complex
    for n in P.dims():
        if n == 0:
            continue
        for x in P.cubes(n):
            cm = f.cube_maps.get(x)
            if cm is None or len(cm.shape) != n:
                continue
            if sorted(cm.axis_perm) != list(range(1, n + 1)):
                continue
            for i in range(1, n + 1):
                for k in (0, 1):
                    derived = face_restriction(cm, k, i)
                    face = P.face(x, k, i)
                    if n == 1:
                        want = f.vertex_map.get(face)
                        got = derived.flat.get(())
                        if want is not None and got != want:
                            out.append(
                                Violation(
                                    "face-vertex",
                                    x,
                                    f"end {k} flattens to {got} but the vertex maps to {want}",
                                    (k, i),
                                )
                            )
                        continue
                    stored = f.cube_maps.get(face)
                    if stored is None:
                        continue
                    if stored != derived:
                        out.append(
                            Violation(
                                "face-data",
                                x,
                                f"face d[{k},{i}] = {face} stores different grid data "
                                f"than the restriction",
                                (k, i),
                            )
                        )
    return out


def _label_violations(f: ElementaryDimap) -> list[Violation]:
    out: list[Violation] = []
    P = f.source.complex
    for n in P.dims():
        if n == 0:
            continue
        for x in P.cubes(n):
            cm = f.cube_maps.get(x)
            if cm is None or len(cm.shape) != n or sorted(cm.axis_perm) != list(
                range(1, n + 1)
            ):
                continue
            for i in range(1, n + 1):
                m = cm.axis_perm.index(i) + 1
                word: list[str] = []
                ok = True
                for j in range(cm.shape[m - 1]):
                    coord = tuple(
                        (j, j + 1) if t == m else 0 for t in range(1, n + 1)
                    )
                    img = cm.flat.get(coord)
                    if img is None or img[0] != 1:
                        ok = False
                        break
                    word.extend(f.target.labels.get(img[1], ()))
                if not ok:
                    continue
                want = f.source.direction_word(x, i)
                if tuple(word) != want:
                    out.append(
                        Violation(
                            "label-mismatch",
                            x,
                            f"direction {i} spells {tuple(word)!r} in the target "
                            f"but the source word is {want!r}",
                            (i,),
                        )
                    )
    return out


def _marking_violations(f: ElementaryDimap) -> list[Violation]:
    out: list[Violation] = []
    for name, cubes, image_set in (
        ("initial", f.source.initial, f.target.initial),
        ("final", f.source.final, f.target.final),
    ):
        for cube in cubes:
            if cube[0] != 0:
                out.append(
                    Violation(
                        f"{name}-not-preserved",
                        cube,
                        f"marked cell has dimension {cube[0]}, cannot check its image",
                    )
                )
                continue
            img = f.vertex_map.get(cube)
            if img is None or img not in image_set:
                out.append(
                    Violation(
                        f"{name}-not-preserved",
                        cube,
                        f"image {img} is not a target {name} cell",
                    )
                )
    return out


def validate_dimap(f: ElementaryDimap) -> list[Violation]:
    """All defects, grouped by family: structure, faces, labels, markings."""
    out = _structural_violations(f)
    out += _face_violations(f)
    out += _label_violations(f)
    out += _marking_violations(f)
    return out


def assert_valid_dimap(f: ElementaryDimap) -> None:
    bad = validate_dimap(f)
    if bad:
        raise ValueError("invalid dimap:\n" + "\n".join(str(v) for v in bad[:10]))


# -- induced maps --------------------------------------------------------------


def pushforward_cube(f: ElementaryDimap, cube: Cube, ring: CoefficientRing = ZZ) -> Chain:
    """The chain image of one cube: signed sum of its grid's top cells."""
    n = cube[0]
    if n == 0:
        return {f.vertex_map[cube]: 1}
    cm = f.cube_maps[cube]
    sign = perm_sign(cm.axis_perm)
    out: Chain = {}
    for top in grid_top_cells(cm.shape):
        img = cm.flat[top]
        out[img] = out.get(img, 0) + sign
    return {c: v for c, v in ((c, ring.normalize(x)) for c, x in out.items()) if v}


def pushforward_chain(f: ElementaryDimap, chain: Chain, ring: CoefficientRing = ZZ) -> Chain:
    out: Chain = {}
    for cube, c in chain.items():
        for img, x in pushforward_cube(f, cube, ring).items():
            out[img] = out.get(img, 0) + c * x
    return {c: v for c, v in ((c, ring.normalize(x)) for c, x in out.items()) if v}


def path_image(f: ElementaryDimap, path: Path) -> Path:
    """The target path a source path runs through, edge grids concatenated."""
    edges: list[Cube] = []
    for e in path.edges:
        cm = f.cube_maps[e]
        for j in range(cm.shape[0]):
            edges.append(cm.flat[((j, j + 1),)])
    return Path(f.target.complex, tuple(edges), f.vertex_map[path.start])


def check_chain_map(f: ElementaryDimap, ring: CoefficientRing = ZZ) -> list[Violation]:
    """Verify d(f x) = f(d x) on every source cube; empty when f is a chain map."""
    out: list[Violation] = []
    P = f.source.complex
    for n in P.dims():
        if n == 0:
            continue
        for x in P.cubes(n):
            lhs = chain_boundary(f.target.complex, pushforward_cube(f, x, ring), ring)
            rhs = pushforward_chain(f, chain_boundary(P, {x: 1}, ring), ring)
            if lhs != rhs:
                out.append(
                    Violation(
                        "chain-map",
                        x,
                        f"boundary of image {lhs} differs from image of boundary {rhs}",
                    )
                )
    return out


def check_naturality(f: ElementaryDimap, ring: CoefficientRing = ZZ) -> list[Violation]:
    """Verify label(x) = label(f x) for every source cube.

    Both sides are compared over the union alphabet, so source and target may
    name their letters over different alphabets as long as shared letters
    agree.
    """
    out: list[Violation] = []
    alphabet = f.source.alphabet.union(f.target.alphabet)
    for x in f.source.complex.all_cubes():
        lhs = label_cochain(f.source, x, ring).retag(alphabet)
        rhs = chain_label(f.target, pushforward_cube(f, x, ring), ring).retag(alphabet)
        if lhs != rhs:
            out.append(
                Violation(
                    "naturality",
                    x,
                    f"source label {lhs} but image labels to {rhs}",
                )
            )
    return out


# -- identity and composition ---------------------------------------------------


def identity_dimap(h: Hda) -> ElementaryDimap:
    """The identity map as grid data: unit shapes, identity permutations."""
    vertex_map = {v: v for v in h.complex.cubes(0)}
    cube_maps: dict[Cube, CubeMap] = {}
    for n in h.complex.dims():
        if n == 0:
            continue
        grid = interval_grid((1,) * n)
        for x in h.complex.cubes(n):
            flat = {
                coord: evaluate_subcube(h.complex, x, coord)
                for _, coord in grid.all_cubes()
            }
            cube_maps[x] = CubeMap((1,) * n, tuple(range(1, n + 1)), flat)
    return ElementaryDimap(h, h, vertex_map, cube_maps)


def _slot(starts: list[int], pos: int, count: int) -> int:
    """Which slab a global axis position belongs to.

    A position on an interior slab boundary joins the slab starting there;
    the global end joins the last slab.  Either choice gives the same image
    cell when the map is face coherent, so one fixed rule suffices.
    """
    return min(bisect_right(starts, pos) - 1, count - 1)


def compose_dimaps(f: ElementaryDimap, g: ElementaryDimap) -> ElementaryDimap:
    """The composite source -> middle -> target as one elementary map.

    Grid axes of the composite follow the axis order of g's data on the
    image cubes, so axis permutations (and hence pushforward signs) compose.
    All top cells of a source cube's grid must therefore agree on their g
    axis permutation; a mix would mean the composite is not expressible as a
    single grid per cube, and is rejected.
    """
    if f.target.complex is not g.source.complex:
        raise ValueError("dimaps do not compose: middle automata differ")
    vertex_map = {v: g.vertex_map[img] for v, img in f.vertex_map.items()}
    cube_maps: dict[Cube, CubeMap] = {}
    for x, fm in f.cube_maps.items():
        n = len(fm.shape)
        tops = grid_top_cells(fm.shape)
        mids = [fm.flat[t] for t in tops]
        perms = {g.cube_maps[z].axis_perm for z in mids}
        if len(perms) != 1:
            raise ValueError(
                f"composite of {x} is not elementary: mixed axis permutations {perms}"
            )
        tau = perms.pop()
        # Slab lengths along each f grid axis m, read off representative
        # slabs with all other axes in their first slot.
        starts: dict[int, list[int]] = {}
        for m in range(1, n + 1):
            acc = [0]
            for j in range(fm.shape[m - 1]):
                cell = tuple(
                    (j, j + 1) if t == m else (0, 1) for t in range(1, n + 1)
                )
                z = fm.flat[cell]
                gz = g.cube_maps[z]
                a = tau.index(m) + 1
                acc.append(acc[-1] + gz.shape[a - 1])
            starts[m] = acc
        shape = tuple(starts[tau[a - 1]][-1] for a in range(1, n + 1))
        axis_perm = tuple(fm.axis_perm[tau[a - 1] - 1] for a in range(1, n + 1))
        flat: dict[GridCoord, Cube] = {}
        for _, coord in interval_grid(shape).all_cubes():
            slots = {}
            locals_by_axis = {}
            for a in range(1, n + 1):
                m = tau[a - 1]
                st = starts[m]
                comp = coord[a - 1]
                if isinstance(comp, tuple):
                    j = _slot(st, comp[0], fm.shape[m - 1])
                    locals_by_axis[a] = (comp[0] - st[j], comp[1] - st[j])
                else:
                    j = _slot(st, comp, fm.shape[m - 1])
                    locals_by_axis[a] = comp - st[j]
                slots[m] = j
            fcell = tuple(
                (slots[m], slots[m] + 1) for m in range(1, n + 1)
            )
            z = fm.flat[fcell]
            gz = g.cube_maps[z]
            local = tuple(locals_by_axis[a] for a in range(1, n + 1))
            flat[coord] = gz.flat[local]
        cube_maps[x] = CubeMap(shape, axis_perm, flat)
    return ElementaryDimap(f.source, g.target, vertex_map, cube_maps)
