import pytest

from hda_lab.exterior import Alphabet, ExteriorElement, word_to_vector
from hda_lab.hda import Hda
from hda_lab.homology import chain_boundary
from hda_lab.labeling import (
    chain_label,
    column_to_label,
    degree_monomials,
    label_cochain,
    label_membership,
    label_to_column,
    labeled_degree,
    labeled_homology,
    path_label,
)
from hda_lab.models import (
    boundary_square,
    two_phase_torus,
    filled_square,
    klein_hda,
    labeled_circle,
    torus_hda,
)
from hda_lab.precubical import Path, PrecubicalSet
from hda_lab.rings import GF2, ZZ, CoefficientRing

GF3 = CoefficientRing(3)


def lab(h, ring=ZZ):
    def build(**counts):
        acc = ExteriorElement.zero(h.alphabet, ring)
        for letter, c in counts.items():
            acc = acc + ExteriorElement.letter(h.alphabet, letter, ring).scale(c)
        return acc

    return build


def test_vertex_label_is_unit():
    h = filled_square()
    assert label_cochain(h, (0, "00")) == ExteriorElement.unit(h.alphabet)


def test_square_label_is_wedge():
    h = filled_square("a", "b")
    a = ExteriorElement.letter(h.alphabet, "a")
    b = ExteriorElement.letter(h.alphabet, "b")
    assert label_cochain(h, (2, "s")) == a ^ b
    assert label_cochain(h, (1, "bottom")) == a


def test_torus_square_labels():
    h = torus_hda("a1", "a2", "b")
    a1 = ExteriorElement.letter(h.alphabet, "a1")
    a2 = ExteriorElement.letter(h.alphabet, "a2")
    b = ExteriorElement.letter(h.alphabet, "b")
    assert label_cochain(h, (2, "s1")) == a1 ^ b
    assert label_cochain(h, (2, "s2")) == a2 ^ b


def test_label_kills_boundaries():
    # The cocycle property on concrete cubes: label(d x) = 0.
    for h in (filled_square(), torus_hda(), klein_hda(), two_phase_torus()):
        for ring in (ZZ, GF2, GF3):
            for n in range(1, h.complex.max_dim + 1):
                for cube in h.complex.cubes(n):
                    db = chain_boundary(h.complex, {cube: 1}, ring)
                    assert chain_label(h, db, ring).is_zero(), (h, cube, ring)


def test_chain_label_linear():
    h = torus_hda()
    x = {(1, "h1"): 2, (1, "cu"): -1}
    y = {(1, "h1"): 1, (1, "h2"): 5}
    both = chain_label(h, {(1, "h1"): 3, (1, "cu"): -1, (1, "h2"): 5})
    assert chain_label(h, x) + chain_label(h, y) == both


def test_path_label():
    h = labeled_circle(["a", "b", "c"])
    p = Path.from_edges(h.complex, [(1, "x0"), (1, "x1"), (1, "x2")])
    assert path_label(h, p) == word_to_vector(h.alphabet, ("a", "b", "c"))
    assert path_label(h, Path.empty(h.complex, (0, "v0"))).is_zero()


def test_monomial_columns_roundtrip():
    A = Alphabet(["a", "b", "c"])
    monos = degree_monomials(A, 2)
    assert monos == [(0, 1), (0, 2), (1, 2)]
    x = ExteriorElement(A, ZZ, {(0, 1): 2, (1, 2): -1})
    col = label_to_column(x, 2, monos)
    assert col == [2, 0, -1]
    assert column_to_label(A, ZZ, col, monos) == x
    with pytest.raises(ValueError):
        label_to_column(ExteriorElement.unit(A), 2, monos)


def test_circle_class_label_is_letter_sum():
    h = labeled_circle(["a", "b", "c"])
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    assert rep.classes[0].label == word_to_vector(h.alphabet, ("a", "b", "c"))
    assert rep.label_image_rank == 1
    assert rep.zero_label_rank == 0
    rep2 = labeled_degree(h, 1, GF2)
    assert rep2.classes[0].label == word_to_vector(h.alphabet, ("a", "b", "c"), GF2)


def test_boundary_square_hole_is_invisible():
    h = boundary_square()
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    assert rep.classes[0].label.is_zero()
    assert rep.label_image_rank == 0
    assert rep.zero_label_rank == 1
    assert rep.zero_label_classes[0] == rep.classes[0].chain
    # Filling the square removes the class entirely.
    assert labeled_degree(filled_square(), 1, ZZ).group.is_trivial()


def test_torus_gf2_spans():
    h = torus_hda("a1", "a2", "b")
    build = lab(h, GF2)
    rep1 = labeled_degree(h, 1, GF2)
    assert rep1.group.free_rank == 2
    assert rep1.label_image_rank == 2
    assert rep1.zero_label_rank == 0
    targets = [build(a1=1, a2=1), build(b=1)]
    for t in targets:
        assert label_membership(rep1.label_image_basis, t, GF2, 1, h.alphabet) is not None
    for b in rep1.label_image_basis:
        assert label_membership(targets, b, GF2, 1, h.alphabet) is not None

    rep2 = labeled_degree(h, 2, GF2)
    assert rep2.group.free_rank == 1
    a1 = ExteriorElement.letter(h.alphabet, "a1", GF2)
    a2 = ExteriorElement.letter(h.alphabet, "a2", GF2)
    bb = ExteriorElement.letter(h.alphabet, "b", GF2)
    assert rep2.label_image_basis == [(a1 ^ bb) + (a2 ^ bb)]
    assert rep2.classes[0].label == (a1 ^ bb) + (a2 ^ bb)


def test_torus_integral_labels():
    h = torus_hda()
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.describe() == "Z^2"
    assert rep.label_image_rank == 2
    assert rep.zero_label_rank == 0
    rep2 = labeled_degree(h, 2, ZZ)
    assert rep2.group.describe() == "Z"
    # Integral degree-2 label of the generator [s1 - s2] is a1^b - a2^b.
    a1, a2, b = (ExteriorElement.letter(h.alphabet, x) for x in ("a1", "a2", "b"))
    assert rep2.classes[0].label in ((a1 ^ b) - (a2 ^ b), (a2 ^ b) - (a1 ^ b))


def test_klein_integral_labels():
    h = klein_hda("a", "b")
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    assert rep.group.torsion == [2]
    free = rep.classes[0]
    tors = rep.classes[1]
    assert not free.is_torsion and tors.is_torsion and tors.order == 2
    assert free.label == ExteriorElement.letter(h.alphabet, "b")
    assert tors.label.is_zero()
    assert rep.label_image_rank == 1
    assert rep.zero_label_rank == 0
    assert labeled_degree(h, 2, ZZ).group.is_trivial()


def test_klein_gf2_labels():
    h = klein_hda("a", "b")
    rep1 = labeled_degree(h, 1, GF2)
    assert rep1.group.free_rank == 2
    assert rep1.label_image_rank == 1
    assert rep1.zero_label_rank == 1
    assert rep1.label_image_basis == [ExteriorElement.letter(h.alphabet, "b", GF2)]
    z = rep1.zero_label_classes[0]
    assert chain_label(h, z, GF2).is_zero()
    assert z  # a genuine nonzero chain
    rep2 = labeled_degree(h, 2, GF2)
    assert rep2.group.free_rank == 1
    assert rep2.classes[0].label.is_zero()
    assert rep2.label_image_rank == 0
    assert rep2.zero_label_rank == 1


def test_two_phase_torus_top_label_factors():
    h = two_phase_torus("a+", "a-", "b+", "b-")
    rep = labeled_degree(h, 2, GF2)
    assert rep.group.free_rank == 1
    left = word_to_vector(h.alphabet, ("a+", "a-"), GF2)
    right = word_to_vector(h.alphabet, ("b+", "b-"), GF2)
    assert rep.classes[0].label == left ^ right
    assert rep.label_image_basis == [left ^ right]


def test_labeled_homology_all_degrees():
    h = torus_hda()
    reps = labeled_homology(h, GF2)
    assert sorted(reps) == [0, 1, 2]
    assert reps[0].group.free_rank == 1
    assert reps[0].classes[0].label == ExteriorElement.unit(h.alphabet, GF2)


def test_orientation_prefers_positive_label():
    # Cell order would normalize the cycle to start at e2, giving label b - a;
    # the label-first rule flips it to a - b.
    P = PrecubicalSet(
        {0: ["u", "v"], 1: ["e2", "e1"]},
        {(1, "e2"): (["u"], ["v"]), (1, "e1"): (["u"], ["v"])},
    )
    h = Hda(P, Alphabet(["a", "b"]), {"e1": ("a",), "e2": ("b",)})
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    lbl = rep.classes[0].label
    a = ExteriorElement.letter(h.alphabet, "a")
    b = ExteriorElement.letter(h.alphabet, "b")
    assert lbl == a - b
    assert rep.classes[0].chain == {(1, "e1"): 1, (1, "e2"): -1}


def test_label_membership_over_z_lattice():
    h = torus_hda()
    rep = labeled_degree(h, 1, ZZ)
    basis = rep.label_image_basis
    build = lab(h, ZZ)
    inside = build(a1=1, a2=-1)
    doubled = build(a1=2, a2=-2)
    assert label_membership(basis, doubled, ZZ, 1, h.alphabet) is not None
    assert label_membership(basis, inside, ZZ, 1, h.alphabet) is not None
    # a1 alone is not a label of any class: only a1 - a2 and b generate.
    outside = build(a1=1)
    assert label_membership(basis, outside, ZZ, 1, h.alphabet) is None


# -- prime-field bytes -------------------------------------------------------


def _prime_field_models():
    from hda_lab.models import dining_philosophers, peterson
    from hda_lab.programs import program_to_hda

    return {
        "peterson": lambda: program_to_hda(peterson()),
        "klein": klein_hda,
        "torus": torus_hda,
        "phil3": lambda: program_to_hda(dining_philosophers(3)),
    }


def _chain_json(chain):
    from hda_lab.fileformats import render_id

    return [[render_id(cube[1]), c] for cube, c in chain.items()]


def _prime_field_doc(h, ring):
    """Homology and labeled homology with every generator, in output order."""
    from hda_lab.homology import all_homology

    return {
        "homology": [
            {
                "degree": n,
                "rank": g.free_rank,
                "torsion": g.torsion,
                "generators": [_chain_json(c) for c in g.generators],
            }
            for n, g in sorted(all_homology(h.complex, ring).items())
        ],
        "labels": [
            {
                "degree": n,
                "classes": [[_chain_json(c.chain), str(c.label), c.order] for c in rep.classes],
                "label_image": [str(x) for x in rep.label_image_basis],
                "zero_label_classes": [_chain_json(c) for c in rep.zero_label_classes],
            }
            for n, rep in sorted(labeled_homology(h, ring).items())
        ],
    }


def _obstruction_reports(ring):
    """An implements and an independence report whose certificates meet a
    nonempty span, so the functional is more than a unit vector."""
    from hda_lab.models import directed_circle
    from hda_lab.products import tensor_hda
    from hda_lab.reports import implements_report, independence_report

    spec = tensor_hda(
        directed_circle([("a", "a", "b"), ("c",)]), directed_circle([("d",), ("e", "e")])
    )
    impl = tensor_hda(
        directed_circle([("a", "b", "c", "d", "e")]), directed_circle([("b", "d"), ("c", "e")])
    )
    main = tensor_hda(spec, directed_circle([("f",)]))
    parts = [directed_circle([(x,)]) for x in "adf"]
    return {
        "implements": implements_report(impl, spec, ring).to_dict(),
        "independence": independence_report(main, parts, ring).to_dict(),
    }


# SHA-256 of the canonical JSON above over GF(3) and GF(5): homology
# generators, class labels, label images, zero-label classes and
# nonmembership functionals.  Any change to the prime-field elimination's
# pivot order or normalization shows here.
GOLDEN_PRIME_FIELD = {
    "klein/3": "25749a0c054739f191af2d593adc5a8d1f20117d18be99ce43c6ae89636e22c3",
    "klein/5": "25749a0c054739f191af2d593adc5a8d1f20117d18be99ce43c6ae89636e22c3",
    "obstructions/3": "de4a44ff4a455eb08e3eb0a5ca4111246bb810039da4861c1262a74a2ee688bb",
    "obstructions/5": "70abcdb2d8b8c5727f837e13b68d545846882ba680898aebc4447059bbd7dd1c",
    "peterson/3": "666e0adfeec0d093344f7db8e78340de848f14ee5be0c9e76d0ee59a0ea82ead",
    "peterson/5": "3387dd7b5058bb51496fdb8a902fad484999ec18e6f167ca35f05e080492f973",
    "phil3/3": "ae47fa081c9f0c1f81f822623afa384ffae3775b356d7ddd60bd02f003987812",
    "phil3/5": "ae47fa081c9f0c1f81f822623afa384ffae3775b356d7ddd60bd02f003987812",
    "torus/3": "168cfd5fad1077a24a2da9c230112b73f6041904b1cd548c149a0e909a1e3a23",
    "torus/5": "2d442f8f7c8b780d36295f84f29bef5248d08cd58320c630cb078912ee139929",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_PRIME_FIELD))
def test_prime_field_bytes_are_pinned(key):
    from hashlib import sha256

    from hda_lab.fileformats import canonical_json

    name, p = key.split("/")
    ring = CoefficientRing(int(p))
    if name == "obstructions":
        doc = _obstruction_reports(ring)
        for rep in doc.values():
            assert rep["verdict"] == "obstruction-found"
    else:
        doc = _prime_field_doc(_prime_field_models()[name](), ring)
    text = canonical_json(doc)
    assert sha256(text.encode()).hexdigest() == GOLDEN_PRIME_FIELD[key]
