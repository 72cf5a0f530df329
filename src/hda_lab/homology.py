"""Cubical chain complexes and their homology.

The boundary of an n-cube x is the alternating sum over its face pairs,

    d x = sum over i of (-1)^i (d[0,i] x - d[1,i] x),

so an edge maps to target minus source.  Homology over the integers is
computed from Smith normal forms that carry full change-of-basis certificates
(U, U^-1, V, V^-1 with U*M*V = D); the certificates are cheap to re-verify by
plain matrix multiplication and the test suite does so.  Over a prime field
column elimination is used instead: bitsets for GF(2) homology, which keep
the larger models fast, and one sparse echelon (``FpEchelon``) for the
homology over the other primes and for label images and membership over
every prime.

Sparse vectors are dicts from index to nonzero entry (``Line``).  Boundaries
are assembled from the face tuples as sparse signed columns
(``boundary_columns``); ``boundary_matrix`` is their dense view.  Matrices
passed in and out (that view, SNF inputs, the certificate views) are plain
lists of rows of ints.  An empty matrix loses its column count, so
functions that can meet one take the count explicitly.  Inside the Smith
normal form every matrix is a list of sparse rows or columns, and the
integer homology reads its kernels and generators from those directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .precubical import Cube, PrecubicalSet
from .rings import CoefficientRing, ZZ, xgcd

Matrix = list[list[int]]
Chain = dict[Cube, int]


# -- small dense integer matrix helpers, for boundaries and verification ----


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix, inner: int | None = None) -> Matrix:
    """Matrix product; ``inner`` disambiguates when a is empty."""
    if a:
        inner = len(a[0])
    if inner is None:
        raise ValueError("empty product needs the inner dimension")
    if inner and b and len(b) != inner:
        raise ValueError(f"shape mismatch: {inner} columns vs {len(b)} rows")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for t, x in enumerate(row):
            if x:
                brow = b[t]
                for j in range(cols):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def mat_cols(a: Matrix, cols: int | None = None) -> list[list[int]]:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [[row[j] for row in a] for j in range(len(a[0]))]


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


def _dense(lines: Sequence[Line], width: int) -> Matrix:
    return [[line.get(k, 0) for k in range(width)] for line in lines]


def _units(n: int) -> list[Line]:
    return [{i: 1} for i in range(n)]


@dataclass
class SmithNormalForm:
    """A certified decomposition U * M * V = D with U, V unimodular.

    ``diagonal`` lists the nonzero invariant factors d_1 | d_2 | ..., all
    positive; the rest of D is zero.  ``u_inv`` and ``v_inv`` are the exact
    inverses, tracked during the reduction rather than computed after it, so
    ``verify`` is a genuine independent check by multiplication.

    Every factor is stored sparse, in the orientation the reduction updates:
    M, U and V^-1 as rows (``m_rows``, ``u_rows``, ``v_inv_rows``), U^-1 and
    V as columns (``u_inv_cols``, ``v_cols``), each a dict from index to
    nonzero entry.  The dense properties ``matrix``, ``u``, ``u_inv``, ``v``
    and ``v_inv`` exist for verification and tests only.
    """

    rows: int
    cols: int
    diagonal: list[int]
    m_rows: list[Line]
    u_rows: list[Line]
    u_inv_cols: list[Line]
    v_cols: list[Line]
    v_inv_rows: list[Line]

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def matrix(self) -> Matrix:
        return _dense(self.m_rows, self.cols)

    @property
    def u(self) -> Matrix:
        return _dense(self.u_rows, self.rows)

    @property
    def u_inv(self) -> Matrix:
        return _dense(_transpose(self.u_inv_cols, self.rows), self.rows)

    @property
    def v(self) -> Matrix:
        return _dense(_transpose(self.v_cols, self.cols), self.cols)

    @property
    def v_inv(self) -> Matrix:
        return _dense(self.v_inv_rows, self.cols)

    def d_matrix(self) -> Matrix:
        d = zero_matrix(self.rows, self.cols)
        for i, x in enumerate(self.diagonal):
            d[i][i] = x
        return d

    def apply_u(self, vec: Sequence[int]) -> list[int]:
        """U * vec."""
        return [sum(x * vec[k] for k, x in row.items()) for row in self.u_rows]

    def verify(self) -> bool:
        """Recheck U*M*V == D, U*U^-1 == I and V*V^-1 == I by multiplication.

        The products are dense, so the check shares no code with the sparse
        reduction it rechecks.
        """
        umv = mat_mul(mat_mul(self.u, self.matrix, self.rows), self.v, self.cols)
        if umv != self.d_matrix():
            return False
        if mat_mul(self.u, self.u_inv, self.rows) != identity_matrix(self.rows):
            return False
        if mat_mul(self.v, self.v_inv, self.cols) != identity_matrix(self.cols):
            return False
        for i, x in enumerate(self.diagonal):
            if x <= 0:
                return False
            if i and x % self.diagonal[i - 1]:
                return False
        return True


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


def smith_normal_form(mat: Matrix, cols: int | None = None) -> SmithNormalForm:
    """Smith normal form over Z with tracked unimodular certificates.

    Pivots are chosen by minimal absolute value in the remaining submatrix,
    the first in row-major order on ties; non-divisible entries are folded
    into the pivot with extended-gcd row and column transforms; a final pass
    repairs the divisibility chain.  The work is sparse: each step touches
    only the nonzeros of the lines it combines.
    """
    rows = len(mat)
    if rows:
        cols = len(mat[0])
    elif cols is None:
        cols = 0
    a_rows = [{j: x for j, x in enumerate(r) if x} for r in mat]
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
    row = P.positions(n - 1)
    cols = []
    for key in P.cells(n):
        acc: Line = {}
        lower, upper = P.face_keys((n, key))
        for i, (lo, hi) in enumerate(zip(lower, upper), 1):
            sign = -1 if i % 2 else 1
            for r, s in ((row[lo], sign), (row[hi], -sign)):
                acc[r] = acc.get(r, 0) + s
        cols.append({r: x for r, x in ((r, ring.normalize(x)) for r, x in acc.items()) if x})
    return cols


def boundary_matrix(P: PrecubicalSet, n: int, ring: CoefficientRing = ZZ) -> Matrix:
    """The degree-n boundary as a dense size(n-1) x size(n) matrix."""
    out = zero_matrix(P.size(n - 1), P.size(n))
    for j, col in enumerate(boundary_columns(P, n, ring)):
        for i, x in col.items():
            out[i][j] = x
    return out


def chain_boundary(P: PrecubicalSet, chain: Chain, ring: CoefficientRing = ZZ) -> Chain:
    """Boundary of a chain given as {cube: coefficient}."""
    out: Chain = {}
    for cube, c in chain.items():
        n = cube[0]
        if n == 0 or not c:
            continue
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            for k, s in ((0, sign), (1, -sign)):
                f = P.face(cube, k, i)
                out[f] = out.get(f, 0) + s * c
    return {cube: v for cube, v in ((c, ring.normalize(x)) for c, x in out.items()) if v}


def chain_to_column(P: PrecubicalSet, n: int, chain: Chain) -> list[int]:
    col = [0] * P.size(n)
    for cube, c in chain.items():
        if cube[0] != n:
            raise ValueError(f"chain is not homogeneous of degree {n}: {cube}")
        col[P.cell_index(cube)] = c
    return col


def column_to_chain(P: PrecubicalSet, n: int, col: Sequence[int]) -> Chain:
    cells = P.cells(n)
    return {(n, cells[i]): x for i, x in enumerate(col) if x}


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


@dataclass
class HomologyGroup:
    """One homology group with explicit cycle representatives.

    Over Z: free part of rank ``free_rank`` plus cyclic torsion summands of
    the listed orders.  Over a field the group is a vector space and torsion
    is empty.  Generators are chains; free ones come first, aligned with
    ``free_generators``, then torsion ones aligned with ``torsion``.
    """

    degree: int
    ring: CoefficientRing
    free_rank: int
    torsion: list[int] = field(default_factory=list)
    free_generators: list[Chain] = field(default_factory=list)
    torsion_generators: list[Chain] = field(default_factory=list)

    @property
    def generators(self) -> list[Chain]:
        return self.free_generators + self.torsion_generators

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append(str(self.ring))
        elif self.free_rank:
            parts.append(f"{self.ring}^{self.free_rank}")
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
        snf_a = smith_normal_form(boundary_matrix(P, n), cols=cn)
        r = snf_a.rank
        if r == cn:
            return HomologyGroup(n, ZZ, 0)
        kernel_cols = snf_a.v_cols[r:]
        coords = _transpose(snf_a.v_inv_rows[r:], cn)
    kdim = len(kernel_cols)

    # The boundaries of the (n+1)-cells in kernel coordinates.
    cn1 = P.size(n + 1)
    b_rows = [{j: x for j, x in enumerate(row) if x} for row in boundary_matrix(P, n + 1)]
    q = zero_matrix(kdim, cn1)
    for j, col in enumerate(_transpose(b_rows, cn1)):
        acc: Line = {}
        for i, c in col.items():
            _axpy(acc, coords[i], c)
        for k, x in acc.items():
            q[k][j] = x
    snf_q = smith_normal_form(q, cols=cn1)

    free_gens: list[Chain] = []
    tors_gens: list[Chain] = []
    torsion: list[int] = []
    diag = snf_q.diagonal
    cells = P.cells(n)
    for i in range(kdim):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        gen: Line = {}
        for j, c in snf_q.u_inv_cols[i].items():
            _axpy(gen, kernel_cols[j], c)
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
    row = P.positions(n - 1)
    cols = []
    for key in P.cells(n):
        bits = 0
        for side in P.face_keys((n, key)):
            for face in side:
                bits ^= 1 << row[face]
        cols.append(bits)
    return cols


class Gf2Echelon:
    """Incremental GF(2) column echelon with optional combination tracking.

    Vectors are ints; pivot is the highest set bit.  ``add`` reduces a vector
    against the echelon and either absorbs it (returning None) or reports the
    fully reduced dependency combination.
    """

    def __init__(self, track: bool = False) -> None:
        self.pivots: dict[int, int] = {}
        self.combos: dict[int, int] = {}
        self.track = track

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
        while vec:
            p = vec.bit_length() - 1
            if p not in self.pivots:
                break
            vec ^= self.pivots[p]
            if self.track:
                combo ^= self.combos[p]
        return vec, combo

    def add(self, vec: int, combo: int = 0) -> tuple[int, int] | None:
        """Insert; returns the (residue, combo) pair only if vec was dependent."""
        vec, combo = self.reduce(vec, combo)
        if vec == 0:
            return 0, combo
        p = vec.bit_length() - 1
        self.pivots[p] = vec
        if self.track:
            self.combos[p] = combo
        return None


def _gf2_homology(P: PrecubicalSet, n: int) -> HomologyGroup:
    ring = CoefficientRing(2)
    cn = P.size(n)
    if cn == 0:
        return HomologyGroup(n, ring, 0)
    # Kernel of d_n as combination masks over the n-cells.
    kernel_masks: list[int] = []
    if n == 0:
        kernel_masks = [1 << j for j in range(cn)]
    else:
        ech = Gf2Echelon(track=True)
        for j, col in enumerate(gf2_boundary_columns(P, n)):
            dep = ech.add(col, 1 << j)
            if dep is not None:
                kernel_masks.append(dep[1])
    # Quotient by the image of d_{n+1}: seed an echelon with the boundary
    # columns, then keep each kernel mask the echelon absorbs as new.  Top-bit
    # reduction decides independence exactly, though it does not compute
    # canonical residues, so the kept generators are the raw kernel cycles.
    quot = Gf2Echelon()
    if P.size(n + 1):
        for col in gf2_boundary_columns(P, n + 1):
            quot.add(col)
    chains: list[Chain] = []
    cells = P.cells(n)
    for mask in kernel_masks:
        if quot.add(mask) is None:
            chain = {(n, cells[j]): 1 for j in range(cn) if mask >> j & 1}
            chains.append(chain)
    return HomologyGroup(n, ring, len(chains), [], chains, [])


# -- general prime field elimination ------------------------------------------


class FpEchelon:
    """Incremental GF(p) column echelon with optional combination tracking.

    Vectors are sparse lines with entries in 0..p-1; the pivot of a stored
    vector is its highest index, normalized to 1.  ``reduce`` clears every
    pivot index of a vector, highest first, so a residue is zero at all
    pivots; ``add`` reduces a vector and either stores it (returning None)
    or reports the dependency combination, like ``Gf2Echelon.add``.
    """

    def __init__(self, p: int, track: bool = False) -> None:
        self.p = p
        self.pivots: dict[int, Line] = {}
        self.combos: dict[int, Line] = {}
        self.track = track

    def reduce(self, vec: Line, combo: Line | None = None) -> tuple[Line, Line]:
        vec, combo, pivots = dict(vec), dict(combo or {}), self.pivots
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
            if self.track:
                _sub_mod(combo, self.combos[q], c, self.p)
        return vec, combo

    def add(self, vec: Line, combo: Line | None = None) -> tuple[Line, Line] | None:
        """Insert; returns the (residue, combo) pair only if vec was dependent."""
        vec, combo = self.reduce(vec, combo)
        if not vec:
            return vec, combo
        p, q = self.p, max(vec)
        inv = pow(vec[q], p - 2, p)
        self.pivots[q] = {k: x * inv % p for k, x in vec.items()}
        if self.track:
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


def mod_line(vec: Iterable[int], p: int) -> Line:
    """A dense integer vector reduced mod p, as a sparse line."""
    return {i: x % p for i, x in enumerate(vec) if x % p}


def _fp_homology(P: PrecubicalSet, n: int, ring: CoefficientRing) -> HomologyGroup:
    p = ring.characteristic
    # Kernel of d_n as combinations over the n-cells; d_0 has empty columns.
    kernel: list[Line] = []
    ech = FpEchelon(p, track=True)
    for j, col in enumerate(boundary_columns(P, n, ring)):
        dep = ech.add(col, {j: 1})
        if dep is not None:
            kernel.append(dep[1])
    image = FpEchelon(p)
    for col in boundary_columns(P, n + 1, ring):
        image.add(col)
    gens = FpEchelon(p)
    chains: list[Chain] = []
    cells = P.cells(n)
    for kvec in kernel:
        vec, _ = image.reduce(kvec)
        if gens.add(vec) is None:
            chains.append({(n, cells[i]): vec[i] for i in sorted(vec)})
    return HomologyGroup(n, ring, len(chains), [], chains, [])


def homology(P: PrecubicalSet, n: int, ring: CoefficientRing = ZZ) -> HomologyGroup:
    """The degree-n homology of the cubical chain complex of P."""
    if n < 0:
        raise ValueError("negative degree")
    if ring.characteristic == 0:
        return _integer_homology(P, n)
    if ring.characteristic == 2:
        return _gf2_homology(P, n)
    return _fp_homology(P, n, ring)


def all_homology(
    P: PrecubicalSet, ring: CoefficientRing = ZZ, top: int | None = None
) -> dict[int, HomologyGroup]:
    """Homology in all degrees 0..top (default: max dimension of P)."""
    top = P.max_dim if top is None else top
    return {n: homology(P, n, ring) for n in range(max(top, 0) + 1)}


# -- membership in a spanned sublattice / subspace -----------------------------


def lattice_membership(
    vectors: Sequence[Sequence[int]],
    target: Sequence[int],
    ring: CoefficientRing = ZZ,
) -> list[int] | None:
    """Solve sum_j x_j * vectors[j] == target over the ring.

    Returns the coefficient list on success, None when the target is outside
    the span (over Z: outside the lattice the vectors generate).  The witness
    is verified before being returned.
    """
    k = len(vectors)
    m = len(target)
    for v in vectors:
        if len(v) != m:
            raise ValueError("vector length mismatch")
    if ring.characteristic:
        p = ring.characteristic
        ech = FpEchelon(p, track=True)
        for j, vec in enumerate(vectors):
            ech.add(mod_line(vec, p), {j: 1})
        residue, coeffs = ech.reduce(mod_line(target, p))
        if residue:
            return None
        x = [-coeffs.get(j, 0) % p for j in range(k)]
    else:
        mat = [[vectors[j][i] for j in range(k)] for i in range(m)]
        snf = smith_normal_form(mat, cols=k)
        y = snf.apply_u(target)
        for i in range(m):
            d = snf.diagonal[i] if i < snf.rank else 0
            if (y[i] % d) if d else y[i]:
                return None
        x = [0] * k
        for j, d in enumerate(snf.diagonal):
            for t, c in snf.v_cols[j].items():
                x[t] += c * (y[j] // d)
    # Confirm the witness before handing it out.
    for i in range(m):
        acc = sum(x[j] * vectors[j][i] for j in range(k))
        if ring.normalize(acc - target[i]) != 0:
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
    integer equality.  Returns None when the target is inside, so between
    this and ``lattice_membership`` both answers come with checkable
    evidence.  Over Z the functional is a row of the unimodular U from the
    Smith decomposition of the generator matrix and the modulus is the
    matching invariant factor (or 0 past the rank); over a prime field it is
    solved from an ``FpEchelon`` of the generators.
    """
    m = len(target)
    for v in vectors:
        if len(v) != m:
            raise ValueError("vector length mismatch")
    if ring.characteristic:
        # Reversed, the echelon has the pivots of the reduced row echelon
        # form, so the residue is the target reduced against that form.  phi
        # is 1 at the residue's first nonzero and 0 off the pivots; killing
        # each echelon vector, lowest pivot first, fixes phi at its pivot.
        p = ring.characteristic
        ech = FpEchelon(p)
        for vec in vectors:
            ech.add(mod_line(reversed(vec), p))
        residue, _ = ech.reduce(mod_line(reversed(target), p))
        if not residue:
            return None
        phi = {max(residue): 1}
        for q in sorted(ech.pivots):
            s = sum(phi.get(k, 0) * x for k, x in ech.pivots[q].items())
            if s % p:
                phi[q] = -s % p
        return [phi.get(i, 0) for i in range(m - 1, -1, -1)], p
    k = len(vectors)
    mat = [[vectors[j][i] for j in range(k)] for i in range(m)]
    snf = smith_normal_form(mat, cols=k)
    y = snf.apply_u(target)
    for i in range(m):
        d = snf.diagonal[i] if i < snf.rank else 0
        if (y[i] % d) if d else y[i]:
            return [snf.u_rows[i].get(c, 0) for c in range(m)], d
    return None


def verify_nonmembership(
    vectors: Sequence[Sequence[int]],
    target: Sequence[int],
    certificate: tuple[Sequence[int], int],
) -> bool:
    """Recheck a nonmembership certificate by plain dot products."""
    phi, modulus = certificate

    def dot(v: Sequence[int]) -> int:
        s = sum(a * b for a, b in zip(phi, v))
        return s % modulus if modulus else s

    if any(dot(v) for v in vectors):
        return False
    return dot(target) != 0
