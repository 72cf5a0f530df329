import random

import pytest

from hda_lab.exterior import word_to_vector
from hda_lab.hda import validate_hda
from hda_lab.homology import all_homology, chain_boundary
from hda_lab.labeling import chain_label, labeled_degree
from hda_lab.models import (
    boundary_square,
    two_phase_torus,
    filled_square,
    klein_hda,
    labeled_circle,
    labeled_interval,
    torus_hda,
)
from hda_lab.products import (
    check_tensor_label_identity,
    cross_chain,
    kunneth_profile,
    tensor_hda,
)
from hda_lab.rings import GF2, ZZ, CoefficientRing

GF5 = CoefficientRing(5)


def test_tensor_of_intervals_is_filled_square():
    A = labeled_interval(["a"])
    B = labeled_interval(["b"])
    T = tensor_hda(A, B)
    assert validate_hda(T) == []
    assert T.complex.size(2) == 1
    assert T.alphabet.letters == ("a", "b")
    sq = next(T.complex.cubes(2))
    a = word_to_vector(T.alphabet, ("a",))
    b = word_to_vector(T.alphabet, ("b",))
    from hda_lab.labeling import label_cochain

    assert label_cochain(T, sq) == a ^ b
    # Same labeled homology as the hand-built filled square.
    assert labeled_degree(T, 1, ZZ).group.describe() == "0"
    assert labeled_degree(filled_square(), 1, ZZ).group.describe() == "0"


def test_tensor_alphabet_stable_union():
    A = labeled_circle(["a", "shared"])
    B = labeled_circle(["shared", "b"])
    T = tensor_hda(A, B)
    assert T.alphabet.letters == ("a", "shared", "b")


def test_tensor_markings():
    A = labeled_interval(["a"])
    B = labeled_interval(["b"])
    T = tensor_hda(A, B)
    assert T.initial == {(0, ("v0", "v0"))}
    assert T.final == {(0, ("v1", "v1"))}


def test_tensor_names_a_factor_edge_without_a_label():
    # Built in memory, so no loader has checked the labels.
    bare = labeled_interval(["a"])
    bare.labels = {}
    other = labeled_circle(["b", "c"])
    with pytest.raises(ValueError, match="the left factor's edge 'x0' has no label"):
        tensor_hda(bare, other)
    with pytest.raises(ValueError, match="the right factor's edge 'x0' has no label"):
        tensor_hda(other, bare)


def test_tensor_of_circles_is_directed_torus():
    A = labeled_circle(["a+", "a-"])
    B = labeled_circle(["b+", "b-"])
    T = tensor_hda(A, B)
    assert validate_hda(T) == []
    D = two_phase_torus("a+", "a-", "b+", "b-")
    for n in (0, 1, 2):
        assert T.complex.size(n) == D.complex.size(n)
    rep_t = labeled_degree(T, 2, GF2)
    rep_d = labeled_degree(D, 2, GF2)
    assert rep_t.group.free_rank == rep_d.group.free_rank == 1
    assert rep_t.classes[0].label == rep_d.classes[0].label
    left = word_to_vector(T.alphabet, ("a+", "a-"), GF2)
    right = word_to_vector(T.alphabet, ("b+", "b-"), GF2)
    assert rep_t.classes[0].label == left ^ right


def test_cross_chain_bilinear():
    a1 = {(1, "x0"): 2}
    a2 = {(1, "x0"): 1, (0, "v0"): 3}
    b = {(1, "y"): 5}
    lhs = cross_chain({**a1}, b)
    assert lhs == {(2, ("x0", "y")): 10}
    mixed = cross_chain(a2, b)
    assert mixed == {(2, ("x0", "y")): 5, (1, ("v0", "y")): 15}
    # Coefficients multiply in the ring: both terms vanish mod 5.
    assert cross_chain(a2, b, GF5) == {}
    assert cross_chain({(1, "x0"): 2}, {(1, "y"): 3}, GF5) == {(2, ("x0", "y")): 1}


def test_cross_chain_boundary_rule():
    # d(a x b) = da x b + (-1)^p a x db for elementary and mixed chains.
    rng = random.Random(2024)
    A = torus_hda()
    B = labeled_circle(["c1", "c2"])
    T = tensor_hda(A, B)
    for _ in range(200):
        p = rng.choice([0, 1, 2])
        q = rng.choice([0, 1])
        a_cells = list(A.complex.cubes(p))
        b_cells = list(B.complex.cubes(q))
        a = {c: rng.randint(-3, 3) for c in rng.sample(a_cells, min(2, len(a_cells)))}
        b = {c: rng.randint(-3, 3) for c in rng.sample(b_cells, min(2, len(b_cells)))}
        lhs = chain_boundary(T.complex, cross_chain(a, b))
        da_b = cross_chain(chain_boundary(A.complex, a), b)
        sign = -1 if p % 2 else 1
        a_db = cross_chain(a, chain_boundary(B.complex, b))
        rhs = dict(da_b)
        for cube, c in a_db.items():
            rhs[cube] = rhs.get(cube, 0) + sign * c
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (a, b, p, q)


def test_tensor_label_identity_on_fixtures():
    pairs = [
        (labeled_interval(["a"]), labeled_interval(["b"])),
        (labeled_circle(["a", "b"]), labeled_circle(["c"])),
        (torus_hda(), labeled_circle(["z"])),
        (klein_hda(), labeled_interval(["w", "w2"])),
    ]
    for A, B in pairs:
        for ring in (ZZ, GF2):
            assert check_tensor_label_identity(A, B, ring) == []


def test_cross_label_multiplicative_on_classes():
    # Cycle labels multiply: the torus from two circles in degree 2.
    A = labeled_circle(["a1", "a2", "a3"])
    B = labeled_circle(["b1"])
    T = tensor_hda(A, B)
    alpha = {(1, f"x{i}"): 1 for i in range(3)}  # the circle class of A
    beta = {(1, "x0"): 1}  # the circle class of B
    z = cross_chain(alpha, beta)
    assert chain_boundary(T.complex, z) == {}
    got = chain_label(T, z)
    la = chain_label(A, alpha).retag(T.alphabet)
    lb = chain_label(B, beta).retag(T.alphabet)
    assert got == la ^ lb
    assert not got.is_zero()


def test_kunneth_profiles():
    circle = labeled_circle(["a"]).complex
    torus = torus_hda().complex
    klein = klein_hda().complex
    square = boundary_square().complex
    cases = [
        (circle, circle, GF2),
        (circle, circle, GF5),
        (torus, circle, GF2),
        (klein, circle, GF2),
        (klein, circle, GF5),
        (klein, klein, GF2),
        (square, torus, GF5),
    ]
    for A, B, ring in cases:
        actual, predicted = kunneth_profile(A, B, ring)
        assert actual == predicted, (ring,)
    with pytest.raises(ValueError):
        kunneth_profile(circle, circle, ZZ)


def test_kunneth_klein_gf2_vs_gf5_differ():
    # Sanity pin: the same pair has different field profiles when torsion
    # is visible to one field and not the other.
    klein = klein_hda().complex
    circle = labeled_circle(["a"]).complex
    gf2_actual, _ = kunneth_profile(klein, circle, GF2)
    gf5_actual, _ = kunneth_profile(klein, circle, GF5)
    assert gf2_actual != gf5_actual
    # One rank per degree 0..3, the tensor's top degree included.
    assert (gf2_actual, gf5_actual) == ([1, 3, 3, 1], [1, 2, 1, 0])


def test_tensor_homology_matches_integral_expectation():
    # Circle x circle over Z: the torus ranks, including degree 2.
    A = labeled_circle(["a+", "a-"])
    B = labeled_circle(["b+", "b-"])
    T = tensor_hda(A, B)
    h = all_homology(T.complex, ZZ)
    assert [h[n].describe() for n in (0, 1, 2)] == ["Z", "Z^2", "Z"]
