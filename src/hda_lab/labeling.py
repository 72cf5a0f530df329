"""The labeling cochain and homology with labels attached.

Every n-cube of an HDA gets an exterior-algebra value of degree n: the wedge,
over the n directions, of the letter sums of the direction words,

    label(x) = dir_1(x) ^ dir_2(x) ^ ... ^ dir_n(x),

with vertices mapping to the unit.  The square condition makes each factor
independent of the corner the edge is read at, and the whole assignment is a
cocycle: it kills boundaries, so it descends to homology classes.  This
module computes that descent: homology generators with their labels, the
image of the label map, and the classes the label map cannot see.

Degree-n labels are expressed over the basis of strictly increasing letter
index tuples, ordered lexicographically; that fixed order is what turns
labels into coefficient columns for rank computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .exterior import Alphabet, ExteriorElement, word_to_vector
from .hda import Hda
from .homology import (
    Chain,
    FpEchelon,
    HomologyGroup,
    Line,
    homology,
    mod_line,
    smith_normal_form,
)
from .precubical import Cube, edge_in_direction
from .rings import CoefficientRing, ZZ


def label_cochain(h: Hda, cube: Cube, ring: CoefficientRing = ZZ) -> ExteriorElement:
    """The exterior label of one cube; unit in degree 0."""
    n = cube[0]
    acc = ExteriorElement.unit(h.alphabet, ring)
    for i in range(1, n + 1):
        edge = edge_in_direction(h.complex, cube, 0, i)
        acc = acc.wedge(word_to_vector(h.alphabet, h.edge_word(edge), ring))
    return acc


def chain_label(h: Hda, chain: Chain, ring: CoefficientRing = ZZ) -> ExteriorElement:
    """Linear extension of the label cochain to chains."""
    acc = ExteriorElement.zero(h.alphabet, ring)
    for cube, c in chain.items():
        acc = acc + label_cochain(h, cube, ring).scale(c)
    return acc


def path_label(h: Hda, path, ring: CoefficientRing = ZZ) -> ExteriorElement:
    """Letter sum of the word a path spells; degree-1 label of the path chain."""
    return word_to_vector(h.alphabet, h.path_word(path), ring)


def degree_monomials(alphabet: Alphabet, n: int) -> list[tuple[int, ...]]:
    """The ordered degree-n exterior basis over the alphabet."""
    return list(itertools.combinations(range(len(alphabet)), n))


def label_to_column(x: ExteriorElement, n: int, monomials: Sequence[tuple[int, ...]]) -> list[int]:
    extra = [idx for idx in x.terms if len(idx) != n]
    if extra:
        raise ValueError(f"label has terms outside degree {n}: {extra}")
    return [x.terms.get(idx, 0) for idx in monomials]


def column_to_label(
    alphabet: Alphabet,
    ring: CoefficientRing,
    col: Sequence[int],
    monomials: Sequence[tuple[int, ...]],
) -> ExteriorElement:
    return ExteriorElement(alphabet, ring, {m: c for m, c in zip(monomials, col) if c})


@dataclass
class LabeledClass:
    """One homology class with its label; order 0 means infinite order."""

    chain: Chain
    label: ExteriorElement
    order: int = 0

    @property
    def is_torsion(self) -> bool:
        return self.order != 0


@dataclass
class DegreeLabelReport:
    """Labeled homology in one degree.

    ``classes`` pairs each generator with its label, free classes first.
    ``label_image_basis`` spans the image of the label map on the degree's
    homology (over Z: the image lattice of the free part; torsion classes
    always label to zero there since d * label = label of a boundary = 0).
    ``zero_label_classes`` generate the kernel of the label map on the free
    part; their count is ``zero_label_rank``.
    """

    degree: int
    ring: CoefficientRing
    group: HomologyGroup
    classes: list[LabeledClass]
    label_image_basis: list[ExteriorElement]
    zero_label_classes: list[Chain]

    @property
    def label_image_rank(self) -> int:
        return len(self.label_image_basis)

    @property
    def zero_label_rank(self) -> int:
        return len(self.zero_label_classes)


def _combine_chains(chains: Sequence[Chain], coeffs: Line, ring: CoefficientRing) -> Chain:
    out: Chain = {}
    for t in sorted(coeffs):
        c = coeffs[t]
        for cube, x in chains[t].items():
            out[cube] = out.get(cube, 0) + c * x
    return {cube: v for cube, v in ((k, ring.normalize(x)) for k, x in out.items()) if v}


def labeled_degree(h: Hda, n: int, ring: CoefficientRing = ZZ) -> DegreeLabelReport:
    """Homology of degree n with labels, image basis and invisible classes."""
    group = homology(h.complex, n, ring)
    monomials = degree_monomials(h.alphabet, n)

    classes: list[LabeledClass] = []
    free_chains: list[Chain] = []
    free_labels: list[ExteriorElement] = []
    for chain in group.free_generators:
        label = chain_label(h, chain, ring)
        if ring.characteristic == 0:
            chain, label = _orient_by_label(chain, label)
        classes.append(LabeledClass(chain, label, 0))
        free_chains.append(chain)
        free_labels.append(label)
    for order, chain in zip(group.torsion, group.torsion_generators):
        classes.append(LabeledClass(chain, chain_label(h, chain, ring), order))

    cols = [label_to_column(lbl, n, monomials) for lbl in free_labels]
    image_basis: list[ExteriorElement] = []
    zero_classes: list[Chain] = []
    r = len(cols)
    if r:
        if ring.characteristic == 0:
            mat = [[cols[j][i] for j in range(r)] for i in range(len(monomials))]
            snf = smith_normal_form(mat, cols=r)
            for d, u_col in zip(snf.diagonal, snf.u_inv_cols):
                col = [d * u_col.get(row, 0) for row in range(len(monomials))]
                image_basis.append(column_to_label(h.alphabet, ring, col, monomials))
            for v_col in snf.v_cols[snf.rank :]:
                zero_classes.append(_combine_chains(free_chains, v_col, ring))
        else:
            ech = FpEchelon(ring.characteristic, track=True)
            for j, col in enumerate(cols):
                dep = ech.add(mod_line(col, ring.characteristic), {j: 1})
                if dep is not None:
                    zero_classes.append(_combine_chains(free_chains, dep[1], ring))
            for _, vec in sorted(ech.pivots.items()):
                col = [vec.get(i, 0) for i in range(len(monomials))]
                image_basis.append(column_to_label(h.alphabet, ring, col, monomials))
    return DegreeLabelReport(n, ring, group, classes, image_basis, zero_classes)


def labeled_homology(
    h: Hda, ring: CoefficientRing = ZZ, top: int | None = None
) -> dict[int, DegreeLabelReport]:
    top = h.complex.max_dim if top is None else top
    return {n: labeled_degree(h, n, ring) for n in range(max(top, 0) + 1)}


def _orient_by_label(chain: Chain, label: ExteriorElement) -> tuple[Chain, ExteriorElement]:
    """Flip a free generator so its first label coefficient is positive.

    Generators arrive sign-normalized by their first chain coefficient; when
    the label is nonzero the label's leading sign wins instead, which keeps
    printed labels free of gratuitous minus signs.
    """
    for idx in sorted(label.terms, key=lambda t: (len(t), t)):
        c = label.terms[idx]
        if c > 0:
            return chain, label
        if c < 0:
            return {k: -v for k, v in chain.items()}, label.scale(-1)
    return chain, label


def label_membership(
    basis: Sequence[ExteriorElement],
    target: ExteriorElement,
    ring: CoefficientRing,
    degree: int,
    alphabet: Alphabet,
) -> list[int] | None:
    """Coefficients expressing target over the basis, or None if outside.

    Used for the obstruction question "is this exterior value realized by
    the labels of a model's homology"; over Z membership means membership in
    the lattice the basis spans.
    """
    from .homology import lattice_membership

    monomials = degree_monomials(alphabet, degree)
    cols = [label_to_column(b, degree, monomials) for b in basis]
    return lattice_membership(cols, label_to_column(target, degree, monomials), ring)
