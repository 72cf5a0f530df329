"""Tensor products of automata and the cross product on chains.

The tensor product runs two automata truly concurrently: cells are pairs,
every mixed pair of directions is filled, labels restrict from the factors
and the alphabet is the stable union (left factor's letters first, then the
right factor's new ones).  On chains the pairing extends bilinearly to the
cross product; with the face split used by the tensor construction the
pairing is itself the chain isomorphism, satisfying the boundary rule

    d (a x b) = (d a) x b + (-1)^deg(a) a x (d b)

with no extra sign bookkeeping.  Labels are multiplicative over the pairing:
the label of a product cell is the wedge of the factor labels, and the same
identity descends to homology classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .constructions import tensor
from .hda import Hda
from .precubical import PrecubicalSet, Violation
from .rings import CoefficientRing, ZZ

if TYPE_CHECKING:
    from .homology import Chain


def tensor_hda(A: Hda, B: Hda) -> Hda:
    """The synchronization-free product of two labeled automata."""
    T = tensor(A.complex, B.complex)
    alphabet = A.alphabet.union(B.alphabet)
    a_edges = set(A.complex.cells(1))
    b_vertices = set(B.complex.cells(0))
    labels = {}
    for key in T.cells(1):
        xk, yk = key
        if xk in a_edges and yk in b_vertices:
            side, edge, word = "left", xk, A.labels.get(xk)
        else:
            side, edge, word = "right", yk, B.labels.get(yk)
        if word is None:
            raise ValueError(f"the {side} factor's edge {edge!r} has no label")
        labels[key] = word
    initial = frozenset(
        (x[0] + y[0], (x[1], y[1])) for x in A.initial for y in B.initial
    )
    final = frozenset(
        (x[0] + y[0], (x[1], y[1])) for x in A.final for y in B.final
    )
    return Hda(T, alphabet, labels, initial, final)


def cross_chain(a: Chain, b: Chain, ring: CoefficientRing = ZZ) -> Chain:
    """Bilinear pairing of chains into the tensor complex."""
    return ring.combine(
        ({(p + q, (xk, yk)): cb for (q, yk), cb in b.items()}, ca) for (p, xk), ca in a.items()
    )


def check_tensor_label_identity(
    A: Hda, B: Hda, ring: CoefficientRing = ZZ
) -> list[Violation]:
    """Compare product labels against wedges of factor labels, cell by cell.

    Returns one violation per product cell where the degree-(p+q) label of
    (x, y) differs from label(x) ^ label(y); empty on every valid pair of
    automata.
    """
    from .labeling import label_cochain

    T = tensor_hda(A, B)
    out: list[Violation] = []
    for p in A.complex.dims():
        for q in B.complex.dims():
            for xk in A.complex.cells(p):
                la = label_cochain(A, (p, xk), ring).retag(T.alphabet)
                for yk in B.complex.cells(q):
                    lb = label_cochain(B, (q, yk), ring).retag(T.alphabet)
                    cube = (p + q, (xk, yk))
                    got = label_cochain(T, cube, ring)
                    want = la.wedge(lb)
                    if got != want:
                        out.append(
                            Violation(
                                "tensor-label",
                                cube,
                                f"product label {got} but factors wedge to {want}",
                            )
                        )
    return out


def kunneth_profile(
    A: PrecubicalSet, B: PrecubicalSet, ring: CoefficientRing
) -> tuple[list[int], list[int]]:
    """Betti numbers of the tensor vs the field Kunneth prediction.

    Returns (actual, predicted), each indexed by degree 0..dim A + dim B.
    Over a field homology is a vector space, so the predicted dimension in
    degree n is the convolution sum of the factor dimensions.  Over Z the
    formula would need torsion correction terms, so this helper requires a
    field ring.
    """
    from .homology import homology

    if not ring.is_field:
        raise ValueError("the rank convolution formula needs field coefficients")
    degrees = range(A.max_dim + B.max_dim + 1)
    a, b, actual = (
        [homology(P, n, ring).free_rank for n in degrees] for P in (A, B, tensor(A, B))
    )
    predicted = [sum(a[p] * b[n - p] for p in range(n + 1)) for n in degrees]
    return actual, predicted
