"""Constructions on precubical sets: intervals, grids, the standard cube,
tensor products, edge paths and morphisms.

They build on ``precubical`` and are kept apart from it so that a command
that only loads, validates or reduces a complex never compiles them: the
tensor product of automata (``products``), directed maps (``dimap``) and
the tests import this module, nothing else does.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

from .precubical import Cube, GridCoord, Key, PrecubicalSet, Violation
from .rings import Frozen


# -- intervals and grids --------------------------------------------------


def interval(k: int, l: int) -> PrecubicalSet:
    """The interval [[k, l]]: vertices k..l, edges (j-1, j), nothing higher."""
    if l < k:
        raise ValueError(f"empty interval [{k}, {l}]")
    cells: dict[int, list[Key]] = {0: list(range(k, l + 1))}
    faces: dict[Cube, tuple[list[Key], list[Key]]] = {}
    if l > k:
        cells[1] = [(j - 1, j) for j in range(k + 1, l + 1)]
        for j in range(k + 1, l + 1):
            faces[(1, (j - 1, j))] = ([j - 1], [j])
    return PrecubicalSet(cells, faces)


def _axis_components(length: int) -> list[Any]:
    """Vertices and edges of one grid axis of the given length, in order."""
    out: list[Any] = []
    for j in range(length):
        out.append(j)
        out.append((j, j + 1))
    out.append(length)
    return out


def interval_grid(shape: Sequence[int]) -> PrecubicalSet:
    """The grid [[0,l_1]] x ... x [[0,l_n]] with flat coordinate-tuple keys.

    A cell is a tuple with one component per axis, each an int vertex j or an
    edge pair (j, j+1); its dimension is the number of edge components.  The
    i-th face direction of a cell is its i-th edge component, and d[k,i]
    replaces that component with its k-end.  This flattened form is what
    dimaps use as the domain of their per-cube flattening morphisms; it is
    isomorphic to the iterated tensor of intervals but far easier to index.
    """
    shape = tuple(shape)
    if any(l < 1 for l in shape):
        raise ValueError(f"grid axis lengths must be >= 1, got {shape}")
    cells: dict[int, list[Key]] = {}
    faces: dict[Cube, tuple[list[Key], list[Key]]] = {}
    for combo in itertools.product(*(_axis_components(l) for l in shape)):
        dim = sum(1 for c in combo if isinstance(c, tuple))
        cells.setdefault(dim, []).append(combo)
        if dim:
            d0: list[Key] = []
            d1: list[Key] = []
            for pos, comp in enumerate(combo):
                if isinstance(comp, tuple):
                    lo, hi = comp
                    d0.append(combo[:pos] + (lo,) + combo[pos + 1 :])
                    d1.append(combo[:pos] + (hi,) + combo[pos + 1 :])
            faces[(dim, combo)] = (d0, d1)
    return PrecubicalSet(cells, faces)


def grid_top_cells(shape: Sequence[int]) -> list[GridCoord]:
    """All top-dimensional cells of interval_grid(shape), in axis order."""
    return [
        combo
        for combo in itertools.product(*(((j, j + 1) for j in range(l)) for l in shape))
    ]


def standard_cube(n: int) -> PrecubicalSet:
    """The precubical n-cube as a grid; its top cell is ((0,1),) * n."""
    if n == 0:
        return PrecubicalSet({0: [()]}, {})
    return interval_grid((1,) * n)


# -- tensor product -------------------------------------------------------


def tensor(P: PrecubicalSet, Q: PrecubicalSet) -> PrecubicalSet:
    """Tensor product; cells are key pairs (x, y), dim = dim x + dim y.

    Face maps follow the degree split: direction i acts on the left factor
    for i <= dim x and on the right factor (shifted by dim x) above that.
    Iterated products nest left-associatively, e.g. ((x, y), z).  Keys must
    determine their dimension split uniquely; if the same pair would name
    cells of two different splits the product is ambiguous and rejected.
    """
    cells: dict[int, list[Key]] = {}
    faces: dict[Cube, tuple[list[Key], list[Key]]] = {}
    seen: dict[Cube, tuple[int, int]] = {}
    for p in P.dims():
        for q in Q.dims():
            n = p + q
            bucket = cells.setdefault(n, [])
            for xk in P.cells(p):
                for yk in Q.cells(q):
                    key = (xk, yk)
                    if (n, key) in seen:
                        raise ValueError(
                            f"ambiguous tensor key {key!r}: splits "
                            f"{seen[(n, key)]} and {(p, q)} both produce it"
                        )
                    seen[(n, key)] = (p, q)
                    bucket.append(key)
                    if n == 0:
                        continue
                    d0: list[Key] = []
                    d1: list[Key] = []
                    for i in range(1, n + 1):
                        if i <= p:
                            d0.append((P.face((p, xk), 0, i)[1], yk))
                            d1.append((P.face((p, xk), 1, i)[1], yk))
                        else:
                            d0.append((xk, Q.face((q, yk), 0, i - p)[1]))
                            d1.append((xk, Q.face((q, yk), 1, i - p)[1]))
                    faces[(n, key)] = (d0, d1)
    return PrecubicalSet(cells, faces)


# -- paths ----------------------------------------------------------------


class Path(Frozen):
    """A directed edge path: consecutive edges share target/source vertices.

    ``edges`` is the sequence of 1-cells; ``start`` is the source vertex and
    is required to disambiguate length-0 paths.  Construction checks the
    gluing condition d[0,1] x_{j+1} == d[1,1] x_j.  Immutable; paths over
    the same complex object with the same edges and start are equal.
    """

    def __init__(self, complex: PrecubicalSet, edges: tuple[Cube, ...], start: Cube) -> None:
        P = complex
        if start[0] != 0 or start not in P:
            raise ValueError(f"path start {start} is not a vertex of the complex")
        at = start
        for x in edges:
            if x[0] != 1 or x not in P:
                raise ValueError(f"path step {x} is not an edge of the complex")
            if P.face(x, 0, 1) != at:
                raise ValueError(
                    f"path breaks at {x}: starts at {P.face(x, 0, 1)}, expected {at}"
                )
            at = P.face(x, 1, 1)
        self.__dict__.update(complex=complex, edges=edges, start=start)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> Cube:
        return self.start

    @property
    def target(self) -> Cube:
        if not self.edges:
            return self.start
        return self.complex.face(self.edges[-1], 1, 1)


# -- morphisms ------------------------------------------------------------


class PcMorphism:
    """A map of precubical sets: dimension-preserving, face-commuting."""

    def __init__(
        self, source: PrecubicalSet, target: PrecubicalSet, mapping: dict[Cube, Cube]
    ) -> None:
        self.source = source
        self.target = target
        self.mapping = mapping

    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        for cube in self.source.all_cubes():
            if cube not in self.mapping:
                out.append(Violation("not-total", cube, "no image assigned"))
                continue
            img = self.mapping[cube]
            if img not in self.target:
                out.append(Violation("bad-image", cube, f"image {img} not in target"))
                continue
            if img[0] != cube[0]:
                out.append(
                    Violation("dimension", cube, f"image {img} has wrong dimension")
                )
        if out:
            return out
        for cube in self.source.all_cubes():
            n = cube[0]
            for i in range(1, n + 1):
                for k in (0, 1):
                    want = self.mapping[self.source.face(cube, k, i)]
                    got = self.target.face(self.mapping[cube], k, i)
                    if want != got:
                        out.append(
                            Violation(
                                "face-commute",
                                cube,
                                f"f(d[{k},{i}] x) = {want} but d[{k},{i}] f(x) = {got}",
                                (k, i),
                            )
                        )
        return out
