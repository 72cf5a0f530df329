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
from typing import Mapping, Sequence

from .exterior import ExteriorElement, Terms, wedge_terms, word_to_vector
from .hda import Alphabet, Hda, Word
from .homology import (
    Chain,
    FpEchelon,
    HomologyGroup,
    Line,
    homology,
    smith_normal_form,
)
from .precubical import Cube
from .rings import CoefficientRing, ZZ


def label_cochain(h: Hda, cube: Cube, ring: CoefficientRing = ZZ) -> ExteriorElement:
    """The exterior label of one cube; unit in degree 0."""
    return chain_label(h, {cube: 1}, ring)


def chain_label(h: Hda, chain: Chain, ring: CoefficientRing = ZZ) -> ExteriorElement:
    """Linear extension of the label cochain to chains.

    The label of each distinct tuple of direction words, and the letter sum
    of each distinct word, is computed once.
    """
    sums: dict[Word, Terms] = {}
    labels: dict[tuple[Word, ...], Terms] = {}
    pairs = []
    for cube, c in chain.items():
        words = tuple(h.direction_word(cube, i) for i in range(1, cube[0] + 1))
        terms = labels.get(words)
        if terms is None:
            terms = {(): 1}
            for word in words:
                if word not in sums:
                    sums[word] = word_to_vector(h.alphabet, word, ring).terms
                terms = wedge_terms(terms, sums[word], ring)
            labels[words] = terms
        pairs.append((terms, c))
    return ExteriorElement(h.alphabet, ring, ring.combine(pairs))


def degree_monomials(alphabet: Alphabet, n: int) -> list[tuple[int, ...]]:
    """The ordered degree-n exterior basis over the alphabet."""
    return list(itertools.combinations(range(len(alphabet)), n))


def _degree_terms(x: ExteriorElement, n: int) -> Mapping[tuple[int, ...], int]:
    extra = [idx for idx in x.terms if len(idx) != n]
    if extra:
        raise ValueError(f"label has terms outside degree {n}: {extra}")
    return x.terms


def label_to_column(x: ExteriorElement, n: int, monomials: Sequence[tuple[int, ...]]) -> list[int]:
    terms = _degree_terms(x, n)
    return [terms.get(idx, 0) for idx in monomials]


class LabeledClass:
    """One homology class with its label; order 0 means infinite order."""

    def __init__(self, chain: Chain, label: ExteriorElement, order: int = 0) -> None:
        self.chain = chain
        self.label = label
        self.order = order


class DegreeLabelReport:
    """Labeled homology in one degree.

    ``classes`` pairs each generator with its label, free classes first.
    ``label_image_basis`` spans the image of the label map on the degree's
    homology (over Z: the image lattice of the free part; torsion classes
    always label to zero there since d * label = label of a boundary = 0).
    ``zero_label_classes`` generate the kernel of the label map on the free
    part; their count is ``zero_label_rank``.
    """

    def __init__(
        self,
        degree: int,
        ring: CoefficientRing,
        group: HomologyGroup,
        classes: list[LabeledClass],
        label_image_basis: list[ExteriorElement],
        zero_label_classes: list[Chain],
    ) -> None:
        self.degree = degree
        self.ring = ring
        self.group = group
        self.classes = classes
        self.label_image_basis = label_image_basis
        self.zero_label_classes = zero_label_classes

    @property
    def label_image_rank(self) -> int:
        return len(self.label_image_basis)

    @property
    def zero_label_rank(self) -> int:
        return len(self.zero_label_classes)


def labeled_degree(h: Hda, n: int, ring: CoefficientRing = ZZ) -> DegreeLabelReport:
    """Homology of degree n with labels, image basis and invisible classes."""
    group = homology(h.complex, n, ring)

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

    image_basis: list[ExteriorElement] = []
    zero_classes: list[Chain] = []
    if free_labels:
        # Listed only here: a degree has C(|alphabet|, n) monomials.
        monomials = degree_monomials(h.alphabet, n)
        index = {m: i for i, m in enumerate(monomials)}
        lines = [{index[m]: c for m, c in _degree_terms(x, n).items()} for x in free_labels]

        def label_of(line: Line, d: int = 1) -> ExteriorElement:
            terms = {monomials[i]: d * c for i, c in sorted(line.items())}
            return ExteriorElement(h.alphabet, ring, terms)

        # The kernel of the label map, as combinations of the free generators.
        if ring.characteristic == 0:
            snf = smith_normal_form(lines, len(monomials))
            image_basis = [label_of(u, d) for d, u in zip(snf.diagonal, snf.u_inv_cols)]
            kernel = snf.v_cols[snf.rank :]
        else:
            ech = FpEchelon(ring.characteristic)
            deps = (ech.add(line, {j: 1}) for j, line in enumerate(lines))
            kernel = [dep[1] for dep in deps if dep is not None]
            image_basis = [label_of(vec) for _, vec in sorted(ech.pivots.items())]
        zero_classes = [ring.combine((free_chains[t], v[t]) for t in sorted(v)) for v in kernel]
    return DegreeLabelReport(n, ring, group, classes, image_basis, zero_classes)


def labeled_homology(h: Hda, ring: CoefficientRing = ZZ) -> dict[int, DegreeLabelReport]:
    return {n: labeled_degree(h, n, ring) for n in range(max(h.complex.max_dim, 0) + 1)}


def _orient_by_label(chain: Chain, label: ExteriorElement) -> tuple[Chain, ExteriorElement]:
    """Flip a free generator so its leading label coefficient is positive.

    Generators arrive sign-normalized by their first chain coefficient; when
    the label is nonzero the sign of its first term in (degree, index) order
    wins instead (no stored coefficient is zero), which keeps printed labels
    free of gratuitous minus signs.
    """
    if label.terms and label.terms[min(label.terms, key=lambda t: (len(t), t))] < 0:
        return {k: -v for k, v in chain.items()}, label.scale(-1)
    return chain, label
