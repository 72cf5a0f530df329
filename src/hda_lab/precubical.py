"""Finite precubical sets with explicit face maps.

A precubical set is a graded family of cells P_0, P_1, P_2, ... together with
face maps d[k,i] : P_n -> P_{n-1} for k in {0,1} and i in 1..n, subject to

    d[k,i] d[l,j] = d[l,j-1] d[k,i]   for i < j.

Cells are identified by (dim, key) pairs; keys are arbitrary hashable values,
unique within their dimension.  Inside a set, a cell's position in its
dimension is its basis position, and its faces are stored once, as positions
one dimension down: validation and boundary assembly read integers, and keys
appear only where cells are named (construction, ``face``, ``face_keys``,
files and reports).  Everything here is finite and immutable after
construction.  Face indices are 1-based throughout, matching the usual
convention for cubical identities; the k index says which end of direction i
is taken (0 = lower, 1 = upper).

Besides the plain data structure this module provides validation and
subcube evaluation, which the labeling machinery builds on; the "edge in
direction i" of a cube is subcube evaluation at one grid edge.  Intervals,
grids, tensor products, paths and morphisms live in ``constructions``.
"""

from __future__ import annotations

import itertools
from itertools import chain
from operator import itemgetter
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from .rings import Frozen

Key = Hashable
Cube = tuple[int, Key]  # (dimension, key)

# Marker used in flat grid coordinates: an interval component (j, j+1) is the
# edge of the axis, an int component is a vertex of the axis.
GridCoord = tuple[Any, ...]


class Violation(Frozen):
    """One structural defect found by a validator.

    ``kind`` is a stable machine-readable tag, ``cube`` the offending cell (if
    any) and ``data`` whatever indices pin the failure down, e.g. the (k, i,
    l, j) quadruple of a broken cubical identity.  Immutable; violations
    with the same four fields are equal and hash alike.
    """

    def __init__(self, kind: str, cube: Cube | None, message: str, data: tuple = ()) -> None:
        self.__dict__.update(kind=kind, cube=cube, message=message, data=data)

    def __str__(self) -> str:
        where = f" at {self.cube}" if self.cube is not None else ""
        return f"[{self.kind}]{where}: {self.message}"


class PrecubicalSet:
    """Cells per dimension plus face maps.

    ``cells`` maps a dimension to an iterable of keys (order is kept and used
    as the basis order for chain groups).  ``faces`` maps (dim, key) of each
    cell of dimension >= 1 to a pair of key sequences (lower faces d[0,i],
    upper faces d[1,i]) indexed by i = 1..dim; the referenced keys live one
    dimension down.  The constructor only enforces key uniqueness; structural
    problems (missing faces, broken identities) are reported by
    ``validate_precubical`` so that damaged inputs can be diagnosed instead of
    rejected blindly.

    Faces are stored once, as integer positions: the faces of an n-cell are
    one tuple of 2n positions into the cells of dimension n - 1, d[0,1..n]
    followed by d[1,1..n] (``face_positions``).  A face entry that cannot be
    stored so (a face that names no cell, a tuple of the wrong length, an
    entry for a cell that does not exist) is kept by cube, as given, in a
    side table for the validator; its cell's positions read None, as do
    those of a cell with no entry at all.  Builders that resolve every face
    themselves (the program compiler, the loader's whole-dimension pass) go
    through ``from_positions``; anything else, a defective file included,
    comes through this constructor.
    """

    __slots__ = ("_cells", "_index", "_faces", "_unresolved", "__weakref__")

    def __init__(
        self,
        cells: Mapping[int, Iterable[Key]],
        faces: Mapping[Cube, tuple[Sequence[Key], Sequence[Key]]] | None = None,
    ) -> None:
        self._cells: dict[int, tuple[Key, ...]] = {}
        self._index: dict[int, dict[Key, int]] = {}
        for n in sorted(cells):
            keys = tuple(cells[n])
            if not keys:
                continue
            if n < 0:
                raise ValueError(f"negative dimension {n}")
            index = {key: pos for pos, key in enumerate(keys)}
            if len(index) != len(keys):
                raise ValueError(f"duplicate cell keys in dimension {n}")
            self._cells[n] = keys
            self._index[n] = index
        store = self._faces = {n: [None] * len(keys) for n, keys in self._cells.items() if n}
        unresolved = self._unresolved = {}
        index = self._index
        for cube, (d0, d1) in (faces or {}).items():
            n, key = cube
            try:
                if len(d0) == n == len(d1):
                    store[n][index[n][key]] = tuple(map(index[n - 1].__getitem__, chain(d0, d1)))
                    continue
            except (KeyError, TypeError):  # no such cell or face, or an unhashable key
                pass
            unresolved[cube] = (tuple(d0), tuple(d1))

    @classmethod
    def from_positions(
        cls,
        index: Mapping[int, dict[Key, int]],
        faces: Mapping[int, list[tuple[int, ...]]],
    ) -> "PrecubicalSet":
        """A set whose builder has already resolved every face.

        ``index[n]`` maps each key of dimension n to its position, in
        position order; ``faces[n]`` lists, per n-cell in that order, what
        ``face_positions`` returns, never None, so the side table is empty.
        The dictionaries are taken over and the positions are trusted.
        """
        P = cls.__new__(cls)
        P._index = {n: index[n] for n in sorted(index) if index[n]}
        P._cells = {n: tuple(keys) for n, keys in P._index.items()}
        P._faces = {n: faces[n] for n in P._cells if n}
        P._unresolved = {}
        return P

    # -- basic queries ---------------------------------------------------

    @property
    def max_dim(self) -> int:
        return max(self._cells, default=-1)

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self._cells))

    def cells(self, n: int) -> tuple[Key, ...]:
        return self._cells.get(n, ())

    def size(self, n: int) -> int:
        return len(self._cells.get(n, ()))

    def cell_index(self, cube: Cube) -> int:
        return self._index[cube[0]][cube[1]]

    def positions(self, n: int) -> Mapping[Key, int]:
        """Key -> basis position of every cell in dimension n; do not mutate."""
        return self._index.get(n, {})

    def face_positions(self, n: int) -> Sequence[tuple[int, ...] | None]:
        """Per n-cell, in basis order, the positions of d[0,1..n] and then
        d[1,1..n] among the (n-1)-cells; None for a cell whose faces are not
        n cells of dimension n - 1 on each side.  Do not mutate."""
        return self._faces.get(n, ())

    def cubes(self, n: int) -> Iterator[Cube]:
        for key in self.cells(n):
            yield (n, key)

    def all_cubes(self) -> Iterator[Cube]:
        for n in self.dims():
            yield from self.cubes(n)

    def __contains__(self, cube: Cube) -> bool:
        n, key = cube
        return key in self._index.get(n, {})

    def face(self, cube: Cube, k: int, i: int) -> Cube:
        """d[k,i] of the cube; k in {0,1}, i in 1..dim."""
        n, key = cube
        if not 1 <= i <= n:
            raise IndexError(f"face index {i} out of range for dimension {n}")
        if k not in (0, 1):
            raise IndexError(f"face side {k} must be 0 or 1")
        try:
            flat = self._faces[n][self._index[n][key]]
        except KeyError:
            flat = None
        if flat is None:
            return (n - 1, self._unresolved[cube][k][i - 1])
        return (n - 1, self._cells[n - 1][flat[k * n + i - 1]])

    def face_keys(self, cube: Cube) -> tuple[tuple[Key, ...], tuple[Key, ...]]:
        """The keys of d[0,1..n] and of d[1,1..n]: the cells themselves, or
        the entry as given when its faces are not cells.  A vertex has none."""
        n, key = cube
        try:
            flat = self._faces[n][self._index[n][key]]
        except KeyError:
            flat = None
        if flat is None:
            if not n and cube in self:
                return self._unresolved.get(cube, ((), ()))
            return self._unresolved[cube]
        below = self._cells[n - 1]
        return tuple(map(below.__getitem__, flat[:n])), tuple(map(below.__getitem__, flat[n:]))

    def __repr__(self) -> str:
        counts = ", ".join(f"{self.size(n)} in dim {n}" for n in self.dims())
        return f"<PrecubicalSet: {counts or 'empty'}>"


_NO_FACES: tuple[tuple[Key, ...], tuple[Key, ...]] = ((), ())


def _identities(n: int) -> list[tuple[int, int, int, int]]:
    """The cubical identities (k, i, l, j) of an n-cube, in report order."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return [(k, i, l, j) for i, j in pairs for k in (0, 1) for l in (0, 1)]


def _identities_hold(n: int, flats: list, flats_below: list) -> bool:
    """Whether every n-cube, all faces resolved, meets every identity.

    Each identity is checked for the whole dimension at once: with m = n - 1,
    d[k,i]d[l,j] x is entry k·m + i - 1 of the positions of face l·n + j - 1
    of x, so both sides are columns of positions gathered, by ``itemgetter``,
    from columns of the dimension below.  A dimension of one cell gathers a
    bare position on both sides, which compare just as well.
    """
    if None in flats_below:
        return False
    m = n - 1
    cols = list(zip(*flats))
    inner = list(zip(*flats_below))
    return all(
        itemgetter(*cols[l * n + j - 1])(inner[k * m + i - 1])
        == itemgetter(*cols[k * n + i - 1])(inner[l * m + j - 2])
        for k, i, l, j in _identities(n)
    )


def validate_precubical(P: PrecubicalSet) -> list[Violation]:
    """All structural defects of P, empty when P is a genuine precubical set.

    Checks, per cell of dimension n >= 1: the face entry exists, both face
    tuples have length n, every referenced face exists one dimension down,
    and for n >= 2 the cubical identities
    d[k,i] d[l,j] x == d[l,j-1] d[k,i] x for 1 <= i < j <= n.  Identity
    violations carry (k, i, l, j) in their data field.  An identity is
    skipped when one of its inner faces has no face entry or a face tuple
    too short to hold the index it needs; that face's own missing-faces or
    face-arity violation is reported when it is visited.
    """
    out: list[Violation] = []
    store, unresolved = P._faces, P._unresolved
    for n in filter(None, P.dims()):
        flats = store[n]
        # A dimension whose faces all resolved and meet the identities is
        # clean; any other is diagnosed cube by cube, from face keys.
        if None not in flats and (n == 1 or _identities_hold(n, flats, store[n - 1])):
            continue
        below = P.positions(n - 1)
        # The 4·C(n,2) identities, built only once a cube passes the arity test.
        checks = None
        for key, flat in zip(P.cells(n), flats):
            cube = (n, key)
            entry = P.face_keys(cube) if flat is not None else unresolved.get(cube)
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
                    try:
                        found = key in below
                    except TypeError:  # an unhashable key names no cell
                        found = False
                    if not found:
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
                checks = _identities(n)
            # The face tuples of d[k,i] x, read once per face: inner[k][i-1].
            # A missing entry reads as two empty tuples, so it fails like a
            # too-short tuple does: with IndexError.
            inner = (
                [_entry(P, (n - 1, key)) for key in d0],
                [_entry(P, (n - 1, key)) for key in d1],
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
    # Face entries for cells that are not in the set at all.
    for cube in unresolved:
        if cube not in P:
            out.append(Violation("orphan-face-entry", cube, "face entry for unknown cell"))
    return out


def _entry(P: PrecubicalSet, cube: Cube) -> tuple[tuple[Key, ...], tuple[Key, ...]]:
    """The face keys of a cell, or two empty tuples when it has no entry."""
    try:
        return P.face_keys(cube)
    except KeyError:
        return _NO_FACES


def assert_valid_precubical(P: PrecubicalSet) -> None:
    bad = validate_precubical(P)
    if bad:
        raise ValueError(
            "invalid precubical set:\n" + "\n".join(str(v) for v in bad[:10])
        )


def edge_in_direction(P: PrecubicalSet, cube: Cube, k: int, i: int) -> Cube:
    """The direction-i edge e[k,i] of an n-cube, n >= 1: subcube evaluation.

    It is ``evaluate_subcube`` at the grid edge whose coordinate i is the
    interval and whose other coordinates sit at their (1-k) end:

        e[k,i] x = d[1-k,1] ... d[1-k,i-1] d[1-k,i+1] ... d[1-k,n] x.

    For n == 1 this is the cube itself.  With k = 0 the result is the edge
    leaving the "all other coordinates finished" corner; with k = 1 the edge
    at the start corner.
    """
    return evaluate_subcube(P, cube, (1 - k,) * (i - 1) + ((0, 1),) + (1 - k,) * (cube[0] - i))


def evaluate_subcube(P: PrecubicalSet, cube: Cube, coords: GridCoord) -> Cube:
    """Evaluate the characteristic morphism of ``cube`` at a standard subcube.

    ``coords`` has one component per direction of ``cube``: 0 or 1 freezes
    that direction at the corresponding end, the interval pair (0, 1) keeps
    it.  The result is the subcube of ``cube`` carved out by the frozen
    directions, i.e. the image of the grid cell under the unique morphism
    from the standard cube sending the top cell to ``cube``.
    """
    n = cube[0]
    if len(coords) != n:
        raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    y = cube
    # Freeze from the highest direction down; lower indices stay valid.
    for pos in range(n, 0, -1):
        c = coords[pos - 1]
        if c == (0, 1):
            continue
        if c not in (0, 1):
            raise ValueError(f"coordinate {c!r} is not 0, 1 or (0, 1)")
        y = P.face(y, c, pos)
    return y
