"""Cubical chain complexes and their homology.

The boundary of an n-cube x is the alternating sum over its face pairs,

    d x = sum over i of (-1)^i (d[0,i] x - d[1,i] x),

so an edge maps to target minus source.  Homology over the integers is
computed from Smith normal forms that carry full change-of-basis certificates
(U, U^-1, V, V^-1 with U*M*V = D); the certificates are cheap to re-verify by
multiplying the sparse factors, and the test suite does so.  Over a prime field
column elimination is used instead: bitsets for GF(2) homology, and one
sparse echelon (``FpEchelon``) for the homology over the other primes and for
label images and membership over every prime.  ``lattice_membership`` and
``nonmembership_certificate`` are two reads of one solver per ring, ``_solve``.

Field homology runs in one pass per complex, from the top degree down.
Each boundary d_n is assembled once and reduced once, and the reduction
skips the columns whose index is a pivot row of the reduced d_{n+1}
(clearing, after Chen and Kerber, "Persistent homology computation with a
twist", and Bauer, Kerber and Reininghaus, "Clear and Compress"): such a
column would reduce to zero and its cycle adds no class.  Every other
column that reduces to zero adds one, as its top cell is no pivot row of
the image, so over GF(2) the pivot rows are all that is kept of d_{n+1};
over the other primes its echelon is kept, to reduce each new cycle.  The
groups of every degree are kept per complex and field while the complex
lives.

Sparse vectors are dicts from index to nonzero entry (``Line``); lists of
them are the one matrix format here and in ``labeling``; chains are sparse
vectors keyed by cube.  Outside the reductions and the boundary assembly, a
linear combination of sparse vectors is one ``CoefficientRing.combine``.
Boundaries are assembled from the face positions the complex stores, as
sparse signed columns (``boundary_columns``) or GF(2) bitsets.  The Smith
normal form takes sparse columns and a row count, and keeps and rechecks
its certificates sparse.  Dense lists remain at two edges: ``boundary_matrix``,
the dense view of a boundary; and the vectors of ``lattice_membership`` and
``nonmembership_certificate``, whose answers are rechecked by dot products.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Container, Iterable, Sequence

from .precubical import Cube, Key, PrecubicalSet
from .rings import CoefficientRing, Record, ZZ, xgcd

Chain = dict[Cube, int]


# -- Smith normal form ------------------------------------------------------

Line = dict[int, int]  # one sparse row or column: index -> nonzero entry


def _axpy(dst: Line, src: Line, c: int) -> None:
    """dst += c * src in place, dropping entries that cancel."""
    if not c:
        return
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _mix(p: Line, q: Line, x: int, y: int, z: int, w: int) -> tuple[Line, Line]:
    """The pair (x p + y q, z p + w q), zeros dropped."""
    new_p: Line = {}
    new_q: Line = {}
    for k in p.keys() | q.keys():
        a, b = p.get(k, 0), q.get(k, 0)
        if e := x * a + y * b:
            new_p[k] = e
        if e := z * a + w * b:
            new_q[k] = e
    return new_p, new_q


def _transpose(lines: Sequence[Line], width: int) -> list[Line]:
    out: list[Line] = [{} for _ in range(width)]
    for i, line in enumerate(lines):
        for k, x in line.items():
            out[k][i] = x
    return out


def _sparse(vectors: Iterable[Sequence[int]]) -> list[Line]:
    """Dense vectors (the rows or columns of a matrix) as sparse lines."""
    return [{i: x for i, x in enumerate(v) if x} for v in vectors]


def _units(n: int) -> list[Line]:
    return [{i: 1} for i in range(n)]


class SmithNormalForm:
    """A certified decomposition U * M * V = D with U, V unimodular.

    ``diagonal`` lists the nonzero invariant factors d_1 | d_2 | ..., all
    positive; the rest of D is zero.  ``u_inv`` and ``v_inv`` are the exact
    inverses, tracked during the reduction rather than computed after it, so
    ``verify`` is a genuine independent check by multiplication.

    Every factor is stored sparse, in the orientation the reduction updates:
    M, U and V^-1 as rows (``m_rows``, ``u_rows``, ``v_inv_rows``), U^-1 and
    V as columns (``u_inv_cols``, ``v_cols``), each a dict from index to
    nonzero entry.  ``verify`` multiplies them in those orientations.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        diagonal: list[int],
        m_rows: list[Line],
        u_rows: list[Line],
        u_inv_cols: list[Line],
        v_cols: list[Line],
        v_inv_rows: list[Line],
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self.m_rows = m_rows
        self.u_rows = u_rows
        self.u_inv_cols = u_inv_cols
        self.v_cols = v_cols
        self.v_inv_rows = v_inv_rows

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def verify(self) -> bool:
        """Recheck U*M*V == D, U*U^-1 == I and V^-1*V == I by multiplication,
        and that the diagonal is positive, each entry dividing the next.

        The products are taken on the stored lines with the loops below, so
        the check shares no code with the reduction it rechecks.
        """
        r, c, d = self.rows, self.cols, self.diagonal
        for lines, count, width in (
            (self.m_rows, r, c), (self.u_rows, r, r), (self.u_inv_cols, r, r),
            (self.v_cols, c, c), (self.v_inv_rows, c, c),
        ):
            if len(lines) != count or any(k not in range(width) for line in lines for k in line):
                return False
        if len(d) > min(r, c) or any(x <= 0 or i and x % d[i - 1] for i, x in enumerate(d)):
            return False

        def dot(a: Line, b: Line) -> int:
            return sum(x * b[k] for k, x in a.items() if k in b)

        def is_diagonal(rows: Sequence[Line], cols: Sequence[Line], diag: Sequence[int]) -> bool:
            """Whether the rows times the columns is diag, zero elsewhere."""
            return all(
                dot(row, col) == (diag[i] if i == j < len(diag) else 0)
                for i, row in enumerate(rows)
                for j, col in enumerate(cols)
            )

        um = []  # U*M by rows
        for u in self.u_rows:
            acc: Line = {}
            for k, x in u.items():
                for j, y in self.m_rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            um.append(acc)
        return (
            is_diagonal(um, self.v_cols, d)
            and is_diagonal(self.u_rows, self.u_inv_cols, [1] * r)
            and is_diagonal(self.v_inv_rows, self.v_cols, [1] * c)
        )


# One side of the reduction: the lines of a in the orientation it operates
# on, the same matrix in the crossing orientation, the transform acting on
# those lines (U for rows, V for columns) and its inverse, whose lines are
# the crossing ones (columns of U^-1, rows of V^-1).
_Side = tuple[list[Line], list[Line], list[Line], list[Line]]


def _store(side: _Side, i: int, new: Line) -> None:
    """Replace line i of a, keeping the crossing orientation in step."""
    lines, cross = side[0], side[1]
    for k in lines[i]:
        del cross[k][i]
    for k, x in new.items():
        cross[k][i] = x
    lines[i] = new


def _swap(side: _Side, i: int, j: int) -> None:
    a, _, t, t_inv = side
    li, lj = a[i], a[j]
    _store(side, i, {})
    _store(side, j, li)
    _store(side, i, lj)
    t[i], t[j] = t[j], t[i]
    t_inv[i], t_inv[j] = t_inv[j], t_inv[i]


def _negate(side: _Side, i: int) -> None:
    a, _, t, t_inv = side
    _store(side, i, {k: -x for k, x in a[i].items()})
    t[i] = {k: -x for k, x in t[i].items()}
    t_inv[i] = {k: -x for k, x in t_inv[i].items()}


def _add(side: _Side, i: int, j: int, c: int) -> None:
    """line i += c * line j; the inverse gets line j -= c * line i."""
    if not c:
        return
    a, cross, t, t_inv = side
    li = a[i]
    for k, x in a[j].items():
        y = li.get(k, 0) + c * x
        if y:
            li[k] = cross[k][i] = y
        else:
            del li[k], cross[k][i]
    _axpy(t[i], t[j], c)
    _axpy(t_inv[j], t_inv[i], -c)


def _combine(side: _Side, i: int, j: int, x: int, y: int, z: int, w: int) -> None:
    """lines (i, j) <- (x li + y lj, z li + w lj), with xw - yz = s in {1, -1}.

    The inverse gets the inverse transform, (s (w li - z lj), s (x lj - y li)).
    """
    a, _, t, t_inv = side
    s = x * w - y * z
    new_i, new_j = _mix(a[i], a[j], x, y, z, w)
    _store(side, i, new_i)
    _store(side, j, new_j)
    t[i], t[j] = _mix(t[i], t[j], x, y, z, w)
    t_inv[i], t_inv[j] = _mix(t_inv[i], t_inv[j], s * w, -s * z, -s * y, s * x)


def smith_normal_form(columns: Sequence[Line], rows: int) -> SmithNormalForm:
    """Smith normal form over Z with tracked unimodular certificates.

    The matrix is given as sparse columns and a row count.  Pivots are the
    minimal absolute values of the remaining submatrix, the first in
    row-major order on ties; non-divisible entries are folded into the pivot
    with extended-gcd row and column transforms; a final pass repairs the
    divisibility chain.  Each step touches only the nonzeros it combines.
    """
    cols = len(columns)
    a_rows = _transpose(columns, rows)
    m_rows = [dict(r) for r in a_rows]
    a_cols = _transpose(a_rows, cols)
    by_rows: _Side = (a_rows, a_cols, _units(rows), _units(rows))
    by_cols: _Side = (a_cols, a_rows, _units(cols), _units(cols))

    limit = min(rows, cols)
    t = 0
    while t < limit:
        # Smallest nonzero entry of the remaining block becomes the pivot.
        # Rows from t on hold no entry left of column t, and nothing beats 1.
        best, bi, bj = 0, -1, -1
        for i in range(t, rows):
            for j, x in a_rows[i].items():
                x = abs(x)
                if not best or x < best or (x == best and i == bi and j < bj):
                    best, bi, bj = x, i, j
            if best == 1:
                break
        if not best:
            break
        if bi != t:
            _swap(by_rows, t, bi)
        if bj != t:
            _swap(by_cols, t, bj)
        while True:
            for i in sorted(a_cols[t]):
                if i == t:
                    continue
                p, x = a_rows[t][t], a_rows[i][t]
                q, r = divmod(x, p)
                if r == 0:
                    _add(by_rows, i, t, -q)
                else:
                    g_x, g_y, g = xgcd(p, x)
                    _combine(by_rows, t, i, g_x, g_y, -(x // g), p // g)
            if len(a_cols[t]) > 1:
                continue
            for j in sorted(a_rows[t]):
                if j == t:
                    continue
                p, x = a_rows[t][t], a_rows[t][j]
                q, r = divmod(x, p)
                if r == 0:
                    _add(by_cols, j, t, -q)
                else:
                    g_x, g_y, g = xgcd(p, x)
                    _combine(by_cols, t, j, g_x, g_y, -(x // g), p // g)
            if len(a_rows[t]) > 1 or len(a_cols[t]) > 1:
                continue
            break
        if a_rows[t][t] < 0:
            _negate(by_rows, t)
        t += 1

    rank = t
    # Repair the divisibility chain d_i | d_{i+1} pair by pair.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a_rows[i][i], a_rows[i + 1][i + 1]
            if dj % di == 0:
                continue
            changed = True
            _add(by_cols, i, i + 1, 1)  # puts dj below the pivot
            x, y, g = xgcd(di, dj)
            _combine(by_rows, i, i + 1, x, y, -(dj // g), di // g)
            # Entry (i, i+1) is now y*dj, divisible by the new pivot g.
            _add(by_cols, i + 1, i, -(a_rows[i].get(i + 1, 0) // g))

    return SmithNormalForm(
        rows=rows,
        cols=cols,
        diagonal=[a_rows[i][i] for i in range(rank)],
        m_rows=m_rows,
        u_rows=by_rows[2],
        u_inv_cols=by_rows[3],
        v_cols=by_cols[2],
        v_inv_rows=by_cols[3],
    )


# -- boundaries -------------------------------------------------------------


def boundary_columns(P: PrecubicalSet, n: int, ring: CoefficientRing = ZZ) -> list[Line]:
    """The degree-n boundary over the ring as sparse columns, one per n-cell.

    Column j maps the row index of each (n-1)-cell to its nonzero
    coefficient in the boundary of the j-th n-cell; d_0 has empty columns.
    """
    if n < 1:
        return [{} for _ in P.cells(n)]
    cols = []
    for flat in P.face_positions(n):
        acc: Line = {}
        for i, (lo, hi) in enumerate(zip(flat[:n], flat[n:]), 1):
            sign = -1 if i % 2 else 1
            for r, s in ((lo, sign), (hi, -sign)):
                acc[r] = acc.get(r, 0) + s
        cols.append({r: x for r, x in ((r, ring.normalize(x)) for r, x in acc.items()) if x})
    return cols


def boundary_matrix(P: PrecubicalSet, n: int, ring: CoefficientRing = ZZ) -> list[list[int]]:
    """The degree-n boundary as a dense size(n-1) x size(n) matrix, by rows."""
    out = [[0] * P.size(n) for _ in range(P.size(n - 1))]
    for j, col in enumerate(boundary_columns(P, n, ring)):
        for i, x in col.items():
            out[i][j] = x
    return out


def chain_boundary(P: PrecubicalSet, chain: Chain, ring: CoefficientRing = ZZ) -> Chain:
    """Boundary of a chain given as {cube: coefficient}."""
    # One term per face: a loop edge's two ends are the same vertex.
    return ring.combine(
        ({P.face(cube, k, i): 1}, (-1) ** (i + k) * c)
        for cube, c in chain.items()
        for i in range(1, cube[0] + 1)
        for k in (0, 1)
    )


def chain_to_column(P: PrecubicalSet, n: int, chain: Chain) -> list[int]:
    col = [0] * P.size(n)
    for cube, c in chain.items():
        if cube[0] != n:
            raise ValueError(f"chain is not homogeneous of degree {n}: {cube}")
        col[P.cell_index(cube)] = c
    return col


def boundary_violations(P: PrecubicalSet) -> list[Cube]:
    """Cubes whose boundary fails d(d x) = 0 over the integers."""
    bad = []
    for n in P.dims():
        if n < 2:
            continue
        for cube in P.cubes(n):
            if chain_boundary(P, chain_boundary(P, {cube: 1})):
                bad.append(cube)
    return bad


# -- homology groups ---------------------------------------------------------


class HomologyGroup(Record):
    """One homology group with explicit cycle representatives.

    Over Z: free part of rank ``free_rank`` plus cyclic torsion summands of
    the listed orders.  Over a field the group is a vector space and torsion
    is empty.  Generators are chains; free ones come first, aligned with
    ``free_generators``, then torsion ones aligned with ``torsion``.  Groups
    with the same fields are equal.
    """

    def __init__(
        self,
        degree: int,
        ring: CoefficientRing,
        free_rank: int,
        torsion: list[int] | None = None,
        free_generators: list[Chain] | None = None,
        torsion_generators: list[Chain] | None = None,
    ) -> None:
        self.degree = degree
        self.ring = ring
        self.free_rank = free_rank
        self.torsion = [] if torsion is None else torsion
        self.free_generators = [] if free_generators is None else free_generators
        self.torsion_generators = [] if torsion_generators is None else torsion_generators

    @property
    def generators(self) -> list[Chain]:
        return self.free_generators + self.torsion_generators

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append(str(self.ring))
        elif self.free_rank:
            base = f"({self.ring})" if self.ring.is_field else str(self.ring)
            parts.append(f"{base}^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _integer_homology(P: PrecubicalSet, n: int) -> HomologyGroup:
    cn = P.size(n)
    if cn == 0:
        return HomologyGroup(n, ZZ, 0)
    # Kernel of d_n as sparse columns over the n-cells, and for each n-cell
    # the sparse column of its kernel coordinates: the tail of V^-1, past
    # the rank, read by columns.
    if n == 0:
        kernel_cols = coords = _units(cn)
    else:
        snf_a = smith_normal_form(_transpose(_sparse(boundary_matrix(P, n)), cn), P.size(n - 1))
        r = snf_a.rank
        if r == cn:
            return HomologyGroup(n, ZZ, 0)
        kernel_cols = snf_a.v_cols[r:]
        coords = _transpose(snf_a.v_inv_rows[r:], cn)
    kdim = len(kernel_cols)

    # The boundaries of the (n+1)-cells in kernel coordinates.
    cols = _transpose(_sparse(boundary_matrix(P, n + 1)), P.size(n + 1))
    q = [ZZ.combine((coords[i], c) for i, c in col.items()) for col in cols]
    snf_q = smith_normal_form(q, kdim)

    free_gens: list[Chain] = []
    tors_gens: list[Chain] = []
    torsion: list[int] = []
    diag = snf_q.diagonal
    cells = P.cells(n)
    for i in range(kdim):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        gen = ZZ.combine((kernel_cols[j], c) for j, c in snf_q.u_inv_cols[i].items())
        # Sign-normalized: the first nonzero coefficient in cell order is > 0.
        order = sorted(gen)
        sign = 1 if gen[order[0]] > 0 else -1
        chain = {(n, cells[k]): sign * gen[k] for k in order}
        if d == 0:
            free_gens.append(chain)
        else:
            torsion.append(d)
            tors_gens.append(chain)
    return HomologyGroup(n, ZZ, len(free_gens), torsion, free_gens, tors_gens)


# -- GF(2) bitset elimination -------------------------------------------------


def gf2_boundary_columns(P: PrecubicalSet, n: int) -> list[int]:
    """Boundary columns over GF(2) as bitsets (bit r = row cell r)."""
    if n == 0:
        return [0] * P.size(0)
    cols = []
    for flat in P.face_positions(n):
        bits = 0
        for r in flat:
            bits ^= 1 << r
        cols.append(bits)
    return cols


def _gf2_reduce(cols: Sequence[int], cleared: Container[int]) -> tuple[set[int], list[int]]:
    """Reduce the GF(2) columns of one boundary, skipping the cleared ones.

    Returns the pivot rows of the reduced matrix and, in column order, the
    combination (a bitset of columns) of each column that reduces to zero.
    The pivot is a column's highest set bit.  A pivot that needed no
    reduction step remembers its column j, and its combination 1 << j is
    built only when a later column adds it.
    """
    pivots: dict[int, int] = {}  # pivot row -> reduced column
    column: dict[int, int] = {}  # pivot row -> its column, if unreduced
    combos: dict[int, int] = {}  # pivot row -> its combination, if reduced
    kernel: list[int] = []
    for j, col in enumerate(cols):
        if j in cleared:
            continue
        combo = 0
        while col:
            p = col.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                break
            col ^= other
            c = combos.get(p)
            combo ^= 1 << column[p] if c is None else c
        if not col:
            kernel.append(combo | 1 << j)
            continue
        pivots[p] = col
        if combo:
            combos[p] = combo | 1 << j
        else:
            column[p] = j
    return set(pivots), kernel


def _gf2_chain(n: int, cells: Sequence[Key], mask: int) -> Chain:
    """The GF(2) chain on the n-cells of the set bits of mask, lowest first."""
    chain = {}
    while mask:  # one step per set bit, not per cell
        low = mask & -mask
        chain[(n, cells[low.bit_length() - 1])] = 1
        mask ^= low
    return chain


# -- general prime field elimination ------------------------------------------


class FpEchelon:
    """Incremental GF(p) column echelon that tracks the combinations it is given.

    Vectors are sparse lines with entries in 0..p-1; the pivot of a stored
    vector is its highest index, normalized to 1.  ``reduce`` clears every
    pivot index of a vector, highest first, so a residue is zero at all
    pivots; ``add`` reduces a vector and either stores it (returning None)
    or reports the dependency combination.  A pivot records its combination
    when ``add`` is given one, and ``reduce`` combines only when it is given
    a combination ({} is the empty one).
    """

    def __init__(self, p: int) -> None:
        self.p = p
        self.pivots: dict[int, Line] = {}
        self.combos: dict[int, Line] = {}

    def reduce(self, vec: Line, combo: Line | None = None) -> tuple[Line, Line | None]:
        vec, pivots = dict(vec), self.pivots
        combo = None if combo is None else dict(combo)
        # Subtracting pivot q's vector changes only indices below q, so a
        # max-heap of the nonzero pivot indices visits them in the order of
        # a descending scan over all pivots.
        todo = [-k for k in vec.keys() & pivots.keys()]
        heapq.heapify(todo)
        while todo:
            q = -heapq.heappop(todo)
            c = vec.get(q)
            if not c:
                continue
            for k in (pivots[q].keys() & pivots.keys()) - vec.keys():
                heapq.heappush(todo, -k)
            _sub_mod(vec, pivots[q], c, self.p)
            if combo is not None:
                _sub_mod(combo, self.combos[q], c, self.p)
        return vec, combo

    def add(self, vec: Line, combo: Line | None = None) -> tuple[Line, Line | None] | None:
        """Insert; returns the (residue, combo) pair only if vec was dependent."""
        vec, combo = self.reduce(vec, combo)
        if not vec:
            return vec, combo
        p, q = self.p, max(vec)
        inv = pow(vec[q], p - 2, p)
        self.pivots[q] = {k: x * inv % p for k, x in vec.items()}
        if combo is not None:
            self.combos[q] = {k: x * inv % p for k, x in combo.items()}
        return None


def _sub_mod(dst: Line, src: Line, c: int, p: int) -> None:
    """dst -= c * src over GF(p) in place, dropping entries that vanish."""
    for k, y in src.items():
        x = (dst.get(k, 0) - c * y) % p
        if x:
            dst[k] = x
        else:
            del dst[k]


# -- homology over a prime field ------------------------------------------------


def _field_homology(
    P: PrecubicalSet, ring: CoefficientRing, bitsets: bool
) -> list[HomologyGroup]:
    """H_0, ..., H_top of P over a prime field, in one pass from the top down.

    Column j of d_n is skipped (cleared) when j is a pivot row of the reduced
    d_{n+1}: that reduced column is a boundary e_j + (lower cells) which d_n
    kills, so column j would reduce to zero and its cycle adds no class.
    This needs d_n d_{n+1} = 0, which the cubical identities give.  Every
    other column j that reduces to zero gives a class (the clearing lemma):
    its cycle is e_j + (lower cells), every nonzero boundary has its top cell
    at a pivot row of the reduced d_{n+1}, and j is none, so no combination
    of these cycles bounds.  Their number is dim ker d_n - rank d_{n+1}, the
    Betti number.  Over GF(2) a generator is that cycle as it is, so only
    the pivot rows of the reduced d_{n+1} are kept, to clear d_n; over the
    other primes it is the cycle reduced at the image's pivots, so the
    echelon of d_{n+1} is kept.
    """
    p = ring.characteristic
    groups: list[HomologyGroup] = []
    cleared: Container[int] = set()  # the pivot rows of the reduced d_{n+1}
    image = FpEchelon(p)  # the reduced d_{n+1}, over the other primes
    for n in range(P.max_dim, -1, -1):
        cells = P.cells(n)
        if bitsets:
            cols = gf2_boundary_columns(P, n) if n else [0] * len(cells)
            cleared, kernel = _gf2_reduce(cols, cleared)
            del cols  # before d_{n-1} is assembled
            chains = [_gf2_chain(n, cells, mask) for mask in kernel]
        else:
            ech = FpEchelon(p)
            chains = []
            for j, col in enumerate(boundary_columns(P, n, ring)):
                if j in image.pivots:
                    continue
                dep = ech.add(col, {j: 1})
                if dep is not None:
                    vec, _ = image.reduce(dep[1])
                    chains.append({(n, cells[i]): vec[i] for i in sorted(vec)})
            ech.combos = {}  # only the kernel needed them
            image = ech
        groups.append(HomologyGroup(n, ring, len(chains), [], chains, []))
    return groups[::-1]


# Complex -> characteristic -> its groups by degree.  A complex does not
# change after construction, and its entry goes when it does.
_FIELD_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def homology(P: PrecubicalSet, n: int, ring: CoefficientRing = ZZ) -> HomologyGroup:
    """The degree-n homology of the cubical chain complex of P.

    Over a field every degree comes from one pass per complex, kept while
    the complex lives; the groups returned are shared, so do not mutate
    them.
    """
    if n < 0:
        raise ValueError("negative degree")
    p = ring.characteristic
    if p == 0:
        return _integer_homology(P, n)
    memo = _FIELD_GROUPS.setdefault(P, {})
    if p not in memo:
        memo[p] = _field_homology(P, ring, bitsets=p == 2)
    groups = memo[p]
    return groups[n] if n < len(groups) else HomologyGroup(n, ring, 0)


def all_homology(P: PrecubicalSet, ring: CoefficientRing = ZZ) -> dict[int, HomologyGroup]:
    """Homology in all degrees 0..max dimension of P."""
    return {n: homology(P, n, ring) for n in range(max(P.max_dim, 0) + 1)}


# -- membership in a spanned sublattice / subspace -----------------------------


def _solve(
    vectors: Sequence[Sequence[int]], target: Sequence[int], ring: CoefficientRing
) -> tuple[list[int] | None, tuple[list[int], int] | None]:
    """Solve sum_j x_j * vectors[j] == target, or prove that no x does.

    Returns (x, None) for a target in the span (over Z: the lattice), else
    (None, (phi, modulus)).  Over Z, with U M V = D the generators' Smith
    form and y = U * target, the first y_i that d_i does not divide (0 past
    the rank) gives phi = row i of U modulo d_i; if there is none, x is
    V * (y / D).  Over a prime field, one echelon of the reversed vectors,
    recording combinations, has the pivots of the reduced row echelon form.
    A zero residue of the target leaves -x in the combination; otherwise
    phi is 1 at the residue's first nonzero and 0 off the pivots, and
    killing each echelon vector, lowest pivot first, fixes phi at its pivot.
    """
    m, k, p = len(target), len(vectors), ring.characteristic
    if any(len(v) != m for v in vectors):
        raise ValueError("vector length mismatch")
    if p == 0:
        snf = smith_normal_form(_sparse(vectors), m)
        y = [sum(x * target[c] for c, x in row.items()) for row in snf.u_rows]
        for i in range(m):
            d = snf.diagonal[i] if i < snf.rank else 0
            if (y[i] % d) if d else y[i]:
                return None, ([snf.u_rows[i].get(c, 0) for c in range(m)], d)
        x = ZZ.combine((snf.v_cols[j], y[j] // d) for j, d in enumerate(snf.diagonal))
        return [x.get(t, 0) for t in range(k)], None

    def flip(vec: Sequence[int]) -> Line:
        return {i: x % p for i, x in enumerate(reversed(vec)) if x % p}

    ech = FpEchelon(p)
    for j, vec in enumerate(vectors):
        ech.add(flip(vec), {j: 1})
    residue, combo = ech.reduce(flip(target), {})
    if not residue:
        return [-combo.get(j, 0) % p for j in range(k)], None
    phi = {max(residue): 1}
    for q in sorted(ech.pivots):
        s = sum(phi.get(i, 0) * x for i, x in ech.pivots[q].items())
        if s % p:
            phi[q] = -s % p
    return None, ([phi.get(i, 0) for i in range(m - 1, -1, -1)], p)


def lattice_membership(
    vectors: Sequence[Sequence[int]],
    target: Sequence[int],
    ring: CoefficientRing = ZZ,
) -> list[int] | None:
    """Solve sum_j x_j * vectors[j] == target over the ring.

    Returns the coefficient list on success, None when the target is outside
    the span (over Z: outside the lattice the vectors generate).  The
    witness is the first read of ``_solve``, verified before being returned.
    """
    x = _solve(vectors, target, ring)[0]
    if x is not None:
        rest = list(target)
        for c, v in zip(x, vectors):
            if c:
                rest = [t - c * e for t, e in zip(rest, v)]
        if any(map(ring.normalize, rest)):
            raise AssertionError("membership witness failed verification")
    return x


def nonmembership_certificate(
    vectors: Sequence[Sequence[int]],
    target: Sequence[int],
    ring: CoefficientRing = ZZ,
) -> tuple[list[int], int] | None:
    """A functional proving the target lies outside the span of the vectors.

    Returns (phi, modulus) with phi . v == 0 (mod modulus) for every
    generator v and phi . target != 0 (mod modulus); modulus 0 means exact
    integer equality.  Returns None when the target is inside.  It is the
    second read of ``_solve`` and ``lattice_membership`` the first, so
    either answer comes with checkable evidence.
    """
    return _solve(vectors, target, ring)[1]


def verify_nonmembership(
    vectors: Sequence[Sequence[int]],
    target: Sequence[int],
    certificate: tuple[Sequence[int], int],
) -> bool:
    """Recheck a nonmembership certificate by its length and plain dot products."""
    phi, modulus = certificate

    def dot(v: Sequence[int]) -> int:
        s = sum(a * b for a, b in zip(phi, v))
        return s % modulus if modulus else s

    if any(len(v) != len(phi) or dot(v) for v in vectors):
        return False
    return len(target) == len(phi) and dot(target) != 0
