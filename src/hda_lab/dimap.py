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
grid path runs through.  Validation reports four families: structure, face
coherence, labels and start/accept markings.  The face and label families
read only the cubes the structural check accepted, so a cube with broken grid
data reports its structural violation and nothing derived from it.

The induced chain map sends a cube to the signed sum of its grid's top cells,
the sign being that of the axis permutation; a transposed square pushes to
minus its image square.  This is the map the label cochain is natural for.

The documents of map files and of chains are encoded at the end of this
module, so that only the commands that read them compile the codec.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Sequence

from .constructions import Path, PcMorphism, grid_top_cells, interval_grid
from .exterior import perm_sign
from .fileformats import FileFormatError, _id_maps, _want, render_id
from .hda import Hda
from .homology import Chain, chain_boundary
from .labeling import chain_label, label_cochain
from .precubical import Cube, GridCoord, Key, Violation, evaluate_subcube
from .rings import CoefficientRing, Record, ZZ


class CubeMap(Record):
    """Grid data of one source cube: shape, axis permutation, flattening.

    ``axis_perm[m-1]`` is the source direction realized by grid axis m; the
    identity tuple (1, 2, ..., n) means no transposition.  ``flat`` maps
    every cell of ``interval_grid(shape)`` (keyed by its coordinate tuple) to
    a target cube of the same dimension.  Cube maps with the same three
    fields are equal.
    """

    def __init__(
        self, shape: tuple[int, ...], axis_perm: tuple[int, ...], flat: dict[GridCoord, Cube]
    ) -> None:
        self.shape = shape
        self.axis_perm = axis_perm
        self.flat = flat


class ElementaryDimap:
    """A subdividing directed map of automata."""

    def __init__(
        self,
        source: Hda,
        target: Hda,
        vertex_map: dict[Cube, Cube],
        cube_maps: dict[Cube, CubeMap],
    ) -> None:
        self.source = source
        self.target = target
        self.vertex_map = vertex_map
        self.cube_maps = cube_maps


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
        if len(cell) >= m and cell[m - 1] == frozen:  # orphans may be short
            flat2[cell[: m - 1] + cell[m:]] = img
    return CubeMap(shape2, perm2, flat2)


def _grid_prefix(shape: Sequence[int], count: int) -> Iterator[GridCoord]:
    """The first ``count`` cells of interval_grid(shape) in product order,
    vertex j then edge (j, j+1) along each axis, without building the grid.

    A cell among the first ``count`` uses only the first ``count`` components
    of each axis, so no axis is listed further.
    """
    axes = [
        [t // 2 if t % 2 == 0 else (t // 2, t // 2 + 1) for t in range(min(2 * l + 1, count))]
        for l in shape
    ]
    return itertools.islice(itertools.product(*axes), count)


def _is_grid_cell(coord: GridCoord, shape: Sequence[int]) -> bool:
    """Whether coord names a cell of interval_grid(shape)."""
    if len(coord) != len(shape):
        return False
    for c, l in zip(coord, shape):
        if isinstance(c, tuple):
            if not (len(c) == 2 and isinstance(c[0], int) and c[1] == c[0] + 1 and 0 <= c[0] < l):
                return False
        elif not (isinstance(c, int) and 0 <= c <= l):
            return False
    return True


def _structural_violations(
    f: ElementaryDimap,
) -> tuple[list[Violation], list[tuple[Cube, int, CubeMap]]]:
    """The structural violations, and each source cube of dimension n >= 1
    that got none, as (cube, n, grid data) in cell order: the cubes whose
    faces and labels can be checked."""
    out: list[Violation] = []
    accepted: list[tuple[Cube, int, CubeMap]] = []
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
            # A valid table holds one entry per grid cell.  So when the grid
            # has more cells than the table, one of its first len(flat) + 1
            # cells is missing, and the grid is built only for a full table.
            missing = sorted(
                (sum(isinstance(c, tuple) for c in coord), pos, coord)
                for pos, coord in enumerate(_grid_prefix(cm.shape, len(cm.flat) + 1))
                if cm.flat.get(coord) is None
            )
            for _, _, coord in missing:
                out.append(Violation("flat-missing-cell", x, f"grid cell {coord} unmapped"))
            ok = not missing
            for coord in cm.flat:
                if not _is_grid_cell(coord, cm.shape):
                    out.append(Violation("flat-orphan-cell", x, f"no grid cell {coord}"))
                    ok = False
            if missing:
                continue
            grid = interval_grid(cm.shape)
            mapping = {cell: cm.flat[cell[1]] for cell in grid.all_cubes()}
            for v in PcMorphism(grid, Q, mapping).violations():
                out.append(
                    Violation("flat-" + v.kind, x, f"grid cell {v.cube}: {v.message}", v.data)
                )
                ok = False
            if ok:
                accepted.append((x, n, cm))
    for x in f.cube_maps:
        if x not in P or x[0] == 0:
            out.append(Violation("cube-orphan", x, "grid data for unknown or 0-dim cell"))
    return out, accepted


def _face_violations(
    f: ElementaryDimap, accepted: list[tuple[Cube, int, CubeMap]]
) -> list[Violation]:
    out: list[Violation] = []
    P = f.source.complex
    for x, n, cm in accepted:
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


def _label_violations(
    f: ElementaryDimap, accepted: list[tuple[Cube, int, CubeMap]]
) -> list[Violation]:
    out: list[Violation] = []
    for x, n, cm in accepted:
        for i in range(1, n + 1):
            m = cm.axis_perm.index(i) + 1
            # An accepted grid maps each of its edges to a target edge.
            word: list[str] = []
            for j in range(cm.shape[m - 1]):
                coord = tuple((j, j + 1) if t == m else 0 for t in range(1, n + 1))
                word.extend(f.target.labels.get(cm.flat[coord][1], ()))
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
    out, accepted = _structural_violations(f)
    out += _face_violations(f, accepted)
    out += _label_violations(f, accepted)
    out += _marking_violations(f)
    return out


# -- induced maps --------------------------------------------------------------


def pushforward_cube(f: ElementaryDimap, cube: Cube, ring: CoefficientRing = ZZ) -> Chain:
    """The chain image of one cube: signed sum of its grid's top cells."""
    if cube[0] == 0:
        return {f.vertex_map[cube]: 1}
    cm = f.cube_maps[cube]
    sign = perm_sign(cm.axis_perm)
    return ring.combine(({cm.flat[top]: 1}, sign) for top in grid_top_cells(cm.shape))


def pushforward_chain(f: ElementaryDimap, chain: Chain, ring: CoefficientRing = ZZ) -> Chain:
    return ring.combine((pushforward_cube(f, cube, ring), c) for cube, c in chain.items())


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


# -- identity ------------------------------------------------------------------


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


# -- files -----------------------------------------------------------------------
# The documents of map files and ``--chain`` arguments; ``fileformats`` reads
# and writes the files.


_COORD_PART = re.compile(r"\[(\d+),(\d+)\]|(-?\d+)")


def render_grid_coord(coord: GridCoord) -> str:
    parts = []
    for c in coord:
        if isinstance(c, tuple):
            parts.append(f"[{c[0]},{c[1]}]")
        else:
            parts.append(str(c))
    return "(" + ",".join(parts) + ")"


def parse_grid_coord(text: str) -> GridCoord:
    if not (text.startswith("(") and text.endswith(")")):
        raise FileFormatError(f"bad grid coordinate {text!r}")
    inside = text[1:-1]
    if not inside:
        return ()
    out: list = []
    for m in _COORD_PART.finditer(inside):
        if m.group(3) is not None:
            out.append(int(m.group(3)))
        else:
            out.append((int(m.group(1)), int(m.group(2))))
    coord = tuple(out)
    if render_grid_coord(coord) != text:
        raise FileFormatError(f"bad grid coordinate {text!r}")
    return coord


def dimap_to_json(f: ElementaryDimap, source_ref: str, target_ref: str) -> dict:
    _id_maps(f.source.complex)
    _id_maps(f.target.complex)
    f0 = {
        render_id(v[1]): render_id(w[1]) for v, w in sorted(
            f.vertex_map.items(), key=lambda kv: render_id(kv[0][1])
        )
    }
    cubes = []
    for cube, cm in f.cube_maps.items():
        flat = {
            render_grid_coord(gc): render_id(tgt[1])
            for gc, tgt in cm.flat.items()
        }
        cubes.append(
            {
                "id": render_id(cube[1]),
                "shape": list(cm.shape),
                "sigma": list(cm.axis_perm),
                "flat": dict(sorted(flat.items())),
            }
        )
    cubes.sort(key=lambda e: (len(e["shape"]), e["id"]))
    return {"source": source_ref, "target": target_ref, "f0": f0, "cubes": cubes}


def dimap_from_json(doc: dict, source: Hda, target: Hda) -> ElementaryDimap:
    src_ids = _id_maps(source.complex)
    tgt_ids = _id_maps(target.complex)

    def resolve(table: dict[int, dict[str, Key]], dim: int, rid, where: str) -> Cube:
        if not isinstance(rid, str) or rid not in table.get(dim, ()):
            raise FileFormatError(f"{where}: no cube {rid!r} in dimension {dim}")
        return (dim, table[dim][rid])

    vertex_map = {}
    for rid, tid in _want(doc, "f0", dict, "dimap").items():
        vertex_map[resolve(src_ids, 0, rid, "dimap.f0")] = resolve(
            tgt_ids, 0, tid, "dimap.f0"
        )
    cube_maps = {}
    for pos, entry in enumerate(_want(doc, "cubes", list, "dimap")):
        where = f"dimap.cubes[{pos}]"
        shape = _want(entry, "shape", list, where)
        sigma = _want(entry, "sigma", list, where)
        for name, values in (("shape", shape), ("sigma", sigma)):
            if not {int}.issuperset(map(type, values)):
                raise FileFormatError(f"{where}.{name}: expected list of int")
        n = len(shape)
        cube = resolve(src_ids, n, _want(entry, "id", str, where), where)
        flat = {}
        for text, tid in _want(entry, "flat", dict, where).items():
            gc = parse_grid_coord(text)
            d = sum(1 for c in gc if isinstance(c, tuple))
            flat[gc] = resolve(tgt_ids, d, tid, f"{where}.flat[{text}]")
        cube_maps[cube] = CubeMap(tuple(shape), tuple(sigma), flat)
    return ElementaryDimap(source, target, vertex_map, cube_maps)


def chain_from_json(doc: dict, h: Hda) -> tuple[int, Chain]:
    degree = _want(doc, "degree", int, "chain")
    if degree < 0:
        raise FileFormatError("chain.degree: expected a dimension")
    ids = _id_maps(h.complex).get(degree, {})
    chain: Chain = {}
    for rid, c in _want(doc, "coeffs", dict, "chain").items():
        if rid not in ids:
            raise FileFormatError(f"chain.coeffs: no cube {rid!r} in degree {degree}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise FileFormatError(f"chain.coeffs[{rid}]: expected an integer")
        if c:
            chain[(degree, ids[rid])] = c
    return degree, chain
