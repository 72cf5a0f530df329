"""Bulk law checks for the labeling machinery.

Each suite here runs at least CASE_TARGET checked cases, where a case is
one cube, one (cube, direction) pair, one product cell pair, or one pair
of homology generators, depending on the law.  Models come from the
program pipeline, the fixed geometric zoo, and seeded random circle and
torus families, so the sweeps see letters repeating inside one model,
shared alphabets, and cubes of dimension up to four.

The suite runners are plain functions returning their case count; the
acceptance tests re-run them through the same entry points.
"""

import pytest

from conftest import random_circle, random_torus, random_words, suite_rng
from hda_lab.homology import all_homology, chain_boundary
from hda_lab.labeling import chain_label, label_cochain
from hda_lab.models import (
    boundary_square,
    dining_philosophers,
    directed_circle,
    directed_torus,
    filled_square,
    klein_hda,
    labeled_interval,
    lock_counter,
    lock_spec,
    peterson,
    torus_hda,
    two_phase_torus,
)
from hda_lab.precubical import edge_in_direction
from hda_lab.products import check_tensor_label_identity, cross_chain, tensor_hda
from hda_lab.programs import program_to_hda
from hda_lab.rings import GF2, ZZ, CoefficientRing

CASE_TARGET = 10_000
GF3 = CoefficientRing(3)
RINGS = (ZZ, ZZ, GF2, GF3)
MODEL_CAP = 50_000


def build_pool():
    """Fixed models every sweep starts from before drawing random ones."""
    spin = directed_circle([("p",), ("q",)])
    cube3 = tensor_hda(
        tensor_hda(spin, directed_circle([("r",)])),
        directed_circle([("s", "t")]),
    )
    return [
        program_to_hda(peterson()),
        program_to_hda(lock_counter()),
        program_to_hda(dining_philosophers(3)),
        lock_spec(),
        torus_hda(),
        klein_hda(),
        boundary_square(),
        filled_square(),
        labeled_interval("abc"),
        two_phase_torus(),
        directed_circle(["ab", "c"]),
        cube3,
        tensor_hda(cube3, directed_circle([("u",)])),
    ]


@pytest.fixture(scope="module")
def pool():
    return build_pool()


def random_model(rng):
    """A random labeled model with cells in dimension two or three."""
    roll = rng.random()
    if roll < 0.40:
        return random_torus(rng)
    if roll < 0.70:
        return tensor_hda(random_torus(rng), random_circle(rng, "z", 2))
    if roll < 0.90:
        return directed_torus(
            random_words(rng, rng.randint(1, 3), "u"),
            random_words(rng, rng.randint(1, 3), "w"),
        )
    return random_circle(rng)


def run_cocycle_suite(pool):
    """The degree-n label kills every boundary, so it is a cocycle."""
    rng = suite_rng("cocycle")
    cases = 0
    for h in pool:
        P = h.complex
        for n in P.dims():
            if n == 0:
                continue
            for cube in P.cubes(n):
                lab = chain_label(h, chain_boundary(P, {cube: 1}, ZZ), ZZ)
                assert lab.is_zero(), f"label of d{cube} is {lab}"
                cases += 1
    for _ in range(MODEL_CAP):
        if cases >= CASE_TARGET:
            break
        h = random_model(rng)
        P = h.complex
        dims = [n for n in P.dims() if n >= 1]
        for _ in range(40):
            ring = rng.choice(RINGS)
            n = rng.choice(dims)
            cells = P.cells(n)
            chain = {}
            for _ in range(rng.randint(1, 4)):
                cube = (n, rng.choice(cells))
                chain[cube] = chain.get(cube, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
            lab = chain_label(h, chain_boundary(P, chain, ring), ring)
            assert lab.is_zero(), f"label of d{chain} is {lab} over {ring}"
            cases += 1
    return cases


def test_boundary_labels_vanish(pool):
    assert run_cocycle_suite(pool) >= CASE_TARGET


def edge_sweep(h, ring):
    """Check the two direction-i edges of every cube agree in label."""
    P = h.complex
    checked = 0
    for n in P.dims():
        if n < 2:
            continue
        for cube in P.cubes(n):
            for i in range(1, n + 1):
                lo = label_cochain(h, edge_in_direction(P, cube, 0, i), ring)
                hi = label_cochain(h, edge_in_direction(P, cube, 1, i), ring)
                assert lo == hi, f"cube {cube} direction {i}: {lo} vs {hi}"
                checked += 1
    return checked


def run_edge_suite(pool):
    rng = suite_rng("e-edge")
    cases = 0
    for h in pool:
        cases += edge_sweep(h, ZZ)
    for _ in range(MODEL_CAP):
        if cases >= CASE_TARGET:
            break
        cases += edge_sweep(random_model(rng), rng.choice(RINGS))
    return cases


def test_opposite_characteristic_edges_have_equal_labels(pool):
    assert run_edge_suite(pool) >= CASE_TARGET


def face_sweep(h, ring):
    """Check the two direction-i faces of every cube agree in label."""
    P = h.complex
    checked = 0
    for n in P.dims():
        if n < 2:
            continue
        for cube in P.cubes(n):
            for i in range(1, n + 1):
                lo = label_cochain(h, P.face(cube, 0, i), ring)
                hi = label_cochain(h, P.face(cube, 1, i), ring)
                assert lo == hi, f"cube {cube} direction {i}: {lo} vs {hi}"
                checked += 1
    return checked


def run_face_suite(pool):
    rng = suite_rng("face")
    cases = 0
    for h in pool:
        cases += face_sweep(h, ZZ)
    for _ in range(MODEL_CAP):
        if cases >= CASE_TARGET:
            break
        cases += face_sweep(random_model(rng), rng.choice(RINGS))
    return cases


def test_opposite_faces_have_equal_labels(pool):
    assert run_face_suite(pool) >= CASE_TARGET


def random_factor(rng, prefix):
    roll = rng.random()
    if roll < 0.35:
        return random_circle(rng, prefix)
    if roll < 0.60:
        return random_torus(rng, prefix)
    if roll < 0.70:
        return labeled_interval([prefix + str(j) for j in range(rng.randint(1, 3))])
    if roll < 0.80:
        return filled_square(prefix + "0", prefix + "1")
    if roll < 0.90:
        return lock_spec()
    return klein_hda(prefix + "a", prefix + "b")


def total_cells(h):
    return sum(h.complex.size(n) for n in h.complex.dims())


def run_tensor_suite():
    """Every product cell's label is the wedge of its factor labels."""
    rng = suite_rng("tensor")
    cases = 0
    for _ in range(MODEL_CAP):
        if cases >= CASE_TARGET:
            break
        # reusing a prefix about once in four pairs exercises shared letters
        left = random_factor(rng, "l")
        right = random_factor(rng, rng.choice(["r", "r", "r", "l"]))
        ring = rng.choice(RINGS)
        bad = check_tensor_label_identity(left, right, ring)
        assert bad == [], f"{len(bad)} mismatches over {ring}, first: {bad[0]}"
        cases += total_cells(left) * total_cells(right)
    return cases


def test_tensor_labels_are_wedges_of_factor_labels():
    assert run_tensor_suite() >= CASE_TARGET


def free_generators_by_degree(h, ring):
    out = []
    for n, group in sorted(all_homology(h.complex, ring).items()):
        for z in group.free_generators:
            out.append((n, z))
    return out


def run_cross_suite():
    """Labels of cross products factor as wedges, over Z and prime fields."""
    rng = suite_rng("cross")
    cases = 0
    for _ in range(MODEL_CAP):
        if cases >= CASE_TARGET:
            break
        left = random_circle(rng, "l") if rng.random() < 0.7 else random_torus(rng, "l")
        right = random_circle(rng, "r") if rng.random() < 0.7 else random_torus(rng, "r")
        ring = rng.choice(RINGS)
        product = tensor_hda(left, right)
        for p, za in free_generators_by_degree(left, ring):
            la = chain_label(left, za, ring).retag(product.alphabet)
            for q, zb in free_generators_by_degree(right, ring):
                lb = chain_label(right, zb, ring).retag(product.alphabet)
                got = chain_label(product, cross_chain(za, zb, ring), ring)
                assert got == la.wedge(lb), (
                    f"H_{p} x H_{q} over {ring}: {got} vs {la.wedge(lb)}"
                )
                cases += 1
    return cases


def test_cross_product_classes_multiply_labels():
    assert run_cross_suite() >= CASE_TARGET


def test_label_factors_through_upper_edges(pool):
    """The label also factors over the e1 edges, not just the e0 ones."""
    for h in pool:
        P = h.complex
        for n in P.dims():
            if n < 2:
                continue
            for cube in P.cubes(n):
                acc = label_cochain(h, edge_in_direction(P, cube, 1, 1))
                for i in range(2, n + 1):
                    acc = acc.wedge(
                        label_cochain(h, edge_in_direction(P, cube, 1, i))
                    )
                assert acc == label_cochain(h, cube)


def test_class_labels_ignore_representative_choice(pool):
    """Perturbing a cycle by boundaries leaves its label alone."""
    rng = suite_rng("representative")
    checked = 0
    for h in pool:
        P = h.complex
        for n, group in all_homology(P, ZZ).items():
            if P.size(n + 1) == 0:
                continue
            uppers = P.cells(n + 1)
            for z in group.free_generators:
                base = chain_label(h, z, ZZ)
                for _ in range(5):
                    noise = {}
                    for _ in range(rng.randint(1, 3)):
                        key = (n + 1, rng.choice(uppers))
                        noise[key] = noise.get(key, 0) + rng.choice([-2, -1, 1, 2])
                    moved = dict(z)
                    for cube, c in chain_boundary(P, noise, ZZ).items():
                        moved[cube] = moved.get(cube, 0) + c
                    assert chain_label(h, moved, ZZ) == base
                    checked += 1
    assert checked > 100


def test_universal_coefficients_agree_across_backends():
    """dim H_n(X; F_p) = rank H_n + #{p | torsion of H_n} + #{p | torsion of H_(n-1)}.

    The integer SNF, the GF(2) bitsets and the prime-field echelon are
    three separate eliminations; the Klein models carry Z/2 torsion, so
    GF(2) must see extra classes in two degrees where GF(3) and GF(5) do not.
    """
    rng = suite_rng("uct")
    klein = klein_hda()
    models = [klein, tensor_hda(klein, klein_hda("c", "d"))]
    models += [tensor_hda(klein, random_circle(rng, "k")) for _ in range(4)]
    models += [random_model(rng) for _ in range(12)]
    torsion_seen = 0
    for h in models:
        P = h.complex
        integral = all_homology(P, ZZ)
        euler = sum((-1) ** n * P.size(n) for n in integral)
        for p in (2, 3, 5):
            dims = {}
            for n, group in all_homology(P, CoefficientRing(p)).items():
                expected = integral[n].free_rank + sum(d % p == 0 for d in integral[n].torsion)
                if n:
                    expected += sum(d % p == 0 for d in integral[n - 1].torsion)
                assert group.free_rank == expected, (h.alphabet.letters, p, n)
                dims[n] = group.free_rank
                torsion_seen += expected != integral[n].free_rank
            assert sum((-1) ** n * d for n, d in dims.items()) == euler
    assert torsion_seen >= 12
