"""End-to-end acceptance checks, one test per shipping criterion.

Each test pins the headline numbers for one workflow the package must
get right, including the stated runtime budgets.  The randomized parts
draw from the seeded streams in conftest, so failures reproduce.

Peterson's H_1 is Z^5 (20, 34 and 10 cells give chi = -4), and every
1-cycle projects to multiples of the two processes' 4-edge loops, so the
label image has rank 2 and rank-nullity fixes the zero-label sublattice
at rank 3.
"""

import time

import pytest

from conftest import dense_snf, mat_mul, random_circle, sparse_columns, suite_rng
from test_dimap import (
    subdivide_then_transpose_dimap,
    subdivision_dimap,
    transposition_dimap,
)
from test_properties import (
    CASE_TARGET,
    build_pool,
    random_factor,
    random_model,
    run_cocycle_suite,
    run_cross_suite,
    run_edge_suite,
    run_face_suite,
    run_tensor_suite,
)
from test_reports import reported_certificate, reported_label

from hda_lab.dimap import (
    check_chain_map,
    check_naturality,
    identity_dimap,
    pushforward_cube,
    validate_dimap,
)
from hda_lab.exterior import word_to_vector
from hda_lab.homology import (
    boundary_columns,
    boundary_matrix,
    boundary_violations,
    chain_boundary,
    chain_to_column,
    lattice_membership,
    smith_normal_form,
    verify_nonmembership,
)
from hda_lab.labeling import (
    chain_label,
    degree_monomials,
    label_to_column,
    labeled_degree,
    labeled_homology,
)
from hda_lab.models import (
    boundary_square,
    dining_philosophers,
    directed_circle,
    klein_hda,
    labeled_circle,
    labeled_interval,
    lock_counter,
    lock_spec,
    peterson,
    torus_hda,
)
from hda_lab.products import kunneth_profile, tensor_hda
from hda_lab.programs import program_to_hda
from hda_lab.reports import (
    NO_OBSTRUCTION,
    OBSTRUCTION,
    _membership,
    implements_report,
    independence_report,
    realized_labels,
)
from hda_lab.rings import GF2, ZZ, CoefficientRing

GF3 = CoefficientRing(3)
GF5 = CoefficientRing(5)

PETERSON_LOOP_0 = ("b0:=1_0", "t:=1_0", "crit_0", "b0:=0_0")
PETERSON_LOOP_1 = ("b1:=1_1", "t:=0_1", "crit_1", "b1:=0_1")


@pytest.fixture(scope="module")
def peterson_report():
    t0 = time.perf_counter()
    h = program_to_hda(peterson())
    groups = labeled_homology(h, ZZ)
    return h, groups, time.perf_counter() - t0


def test_c01_peterson_homology_and_label_image(peterson_report):
    h, groups, took = peterson_report
    assert took < 10.0, f"peterson analysis took {took:.2f}s"
    assert groups[0].group.describe() == "Z"
    assert groups[1].group.free_rank == 5
    assert groups[1].group.torsion == []
    for n in sorted(groups):
        if n >= 2:
            assert groups[n].group.describe() == "0"
    rep = groups[1]
    assert rep.label_image_rank == 2
    for loop in (PETERSON_LOOP_0, PETERSON_LOOP_1):
        target = word_to_vector(h.alphabet, loop, ZZ)
        found = _membership(rep.label_image_basis, target, ZZ, 1, h.alphabet)[0]
        assert found is not None, f"{target} missing from the degree-1 label image"


def test_c01_peterson_zero_label_sublattice(peterson_report):
    """The part of H_1 the labels cannot see: a rank-3 sublattice of cycles."""
    h, groups, _ = peterson_report
    rep = groups[1]
    assert rep.zero_label_rank == 3
    assert rep.zero_label_rank + rep.label_image_rank == rep.group.free_rank
    P = h.complex
    for z in rep.zero_label_classes:
        assert chain_boundary(P, z, ZZ) == {}
        assert chain_label(h, z, ZZ).is_zero()
    # independent modulo boundaries: each class raises the rank over im d_2
    filled = boundary_columns(P, 2)
    extra = [{P.cell_index(c): x for c, x in z.items()} for z in rep.zero_label_classes]
    rows = P.size(1)
    gain = smith_normal_form(filled + extra, rows).rank - smith_normal_form(filled, rows).rank
    assert gain == 3


def philosopher_circle(i):
    steps = ("pick_l", "pick_r", "eat", "put_l", "put_r", "think")
    return labeled_circle([f"{a}_{i}" for a in steps])


@pytest.fixture(scope="module")
def philosophers4():
    t0 = time.perf_counter()
    h = program_to_hda(dining_philosophers(4))
    return h, time.perf_counter() - t0


def test_c02_four_philosophers_cells_and_betti(philosophers4):
    h, build_took = philosophers4
    P = h.complex
    assert P.max_dim == 4
    assert [P.size(n) for n in range(5)] == [465, 1508, 1766, 884, 160]
    t0 = time.perf_counter()
    groups = labeled_homology(h, GF2)
    betti_took = time.perf_counter() - t0
    assert [groups[n].group.free_rank for n in range(5)] == [1, 4, 2, 0, 0]
    assert build_took + betti_took < 60.0, (
        f"generation {build_took:.2f}s + homology {betti_took:.2f}s over budget"
    )


def test_c03_philosopher_independence_verdicts(philosophers4):
    h, _ = philosophers4
    monos = degree_monomials(h.alphabet, 2)
    basis_cols = [
        label_to_column(b, 2, monos)
        for b in labeled_degree(h, 2, GF2).label_image_basis
    ]
    for i, j in ((0, 2), (1, 3)):
        rep = independence_report(h, [philosopher_circle(i), philosopher_circle(j)], GF2)
        assert rep["verdict"] == NO_OBSTRUCTION, f"philosophers {i},{j}"
    for i in range(4):
        j = (i + 1) % 4
        rep = independence_report(h, [philosopher_circle(i), philosopher_circle(j)], GF2)
        assert rep["verdict"] == OBSTRUCTION, f"philosophers {i},{j}"
        witness = rep["witness"]
        assert witness["degree"] == 2
        target = label_to_column(reported_label(witness, h.alphabet, GF2), 2, monos)
        assert verify_nonmembership(basis_cols, target, reported_certificate(witness))


def test_c04_small_model_label_quartet():
    t0 = time.perf_counter()
    rep = labeled_degree(boundary_square(), 1, ZZ)
    assert rep.group.free_rank == 1
    assert rep.classes[0].label.is_zero()
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    torus = torus_hda("a1", "a2", "b")
    rep1 = labeled_degree(torus, 1, GF2)
    assert rep1.group.free_rank == 2
    assert rep1.zero_label_rank == 0
    spanning = [
        word_to_vector(torus.alphabet, ("a1", "a2"), GF2),
        word_to_vector(torus.alphabet, ("b",), GF2),
    ]
    for x in spanning:
        assert _membership(rep1.label_image_basis, x, GF2, 1, torus.alphabet)[0]
    for b in rep1.label_image_basis:
        assert _membership(spanning, b, GF2, 1, torus.alphabet)[0]
    rep2 = labeled_degree(torus, 2, GF2)
    a1, a2, bb = (
        word_to_vector(torus.alphabet, (x,), GF2) for x in ("a1", "a2", "b")
    )
    assert rep2.group.free_rank == 1
    assert rep2.classes[0].label == (a1 ^ bb) + (a2 ^ bb)
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    klein = klein_hda("a", "b")
    rep1 = labeled_degree(klein, 1, GF2)
    assert rep1.group.free_rank == 2
    assert rep1.label_image_basis == [word_to_vector(klein.alphabet, ("b",), GF2)]
    assert rep1.zero_label_rank == 1
    rep2 = labeled_degree(klein, 2, GF2)
    assert rep2.group.free_rank == 1
    assert rep2.classes[0].label.is_zero()
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    for h in (directed_circle(["ab", "c"]), labeled_circle(["p", "q", "r"])):
        rep = labeled_degree(h, 1, ZZ)
        assert rep.group.free_rank == 1
        letters = h.alphabet.letters
        assert rep.classes[0].label == word_to_vector(h.alphabet, letters, ZZ)
    assert time.perf_counter() - t0 < 1.0


def test_c05_unlocked_counter_is_caught_by_the_lock_spec():
    impl = program_to_hda(lock_counter())
    spec = lock_spec()
    rep = implements_report(realized_labels(impl, ZZ), spec, ZZ)
    assert rep["verdict"] == OBSTRUCTION
    assert [w["degree"] for w in rep["witnesses"]] == [2]
    witness = rep["witnesses"][0]
    expected = word_to_vector(impl.alphabet, ("x++_0", "x--_0"), ZZ) ^ word_to_vector(
        impl.alphabet, ("x++_1", "x--_1"), ZZ
    )
    assert reported_label(witness, impl.alphabet, ZZ) == expected
    assert witness["label"] == str(expected)
    monos = degree_monomials(impl.alphabet, 2)
    spec_cols = [
        label_to_column(b.retag(impl.alphabet), 2, monos)
        for b in labeled_degree(spec, 2, ZZ).label_image_basis
    ]
    assert verify_nonmembership(
        spec_cols, label_to_column(expected, 2, monos), reported_certificate(witness)
    )
    # a model always implements itself, so the verdict is about the specification
    assert implements_report(realized_labels(impl, ZZ), impl, ZZ)["verdict"] == NO_OBSTRUCTION


def test_c06_labeling_property_suites():
    pool = build_pool()
    counts = {
        "cocycle": run_cocycle_suite(pool),
        "edges": run_edge_suite(pool),
        "faces": run_face_suite(pool),
        "tensor": run_tensor_suite(),
        "cross": run_cross_suite(),
    }
    short = {name: n for name, n in counts.items() if n < CASE_TARGET}
    assert not short, f"suites below {CASE_TARGET} cases: {short}"


def test_c07_dimap_laws_on_the_fixture_family():
    t0 = time.perf_counter()
    sub = subdivision_dimap()
    fixtures = [
        identity_dimap(sub.source),
        sub,
        transposition_dimap(),
        subdivide_then_transpose_dimap(),
    ]
    for f in fixtures:
        assert validate_dimap(f) == []
        for ring in (ZZ, GF2, GF3):
            assert check_chain_map(f, ring) == []
            assert check_naturality(f, ring) == []
    flip = transposition_dimap()
    assert pushforward_cube(flip, (2, "s"), ZZ) == {(2, "s"): -1}
    assert time.perf_counter() - t0 < 5.0


def cycle_class_is_nonzero(P, z, ring):
    """A cycle's class is nonzero exactly when it is not a boundary."""
    assert chain_boundary(P, z, ring) == {}
    rows = range(P.size(1))
    filled = [[col.get(i, 0) for i in rows] for col in boundary_columns(P, 2, ring)]
    return lattice_membership(filled, chain_to_column(P, 1, z), ring) is None


def test_c08_boundary_snf_and_loop_cycle_oracles():
    models = build_pool()
    models.append(program_to_hda(dining_philosophers(4)))
    for h in models:
        assert boundary_violations(h.complex) == []
    rng = suite_rng("oracle-dd")
    for _ in range(30):
        assert boundary_violations(random_model(rng).complex) == []
    # the same vanishing seen through matrix products
    for h in models[:4]:
        P = h.complex
        for n in P.dims():
            if n < 2:
                continue
            squared = mat_mul(boundary_matrix(P, n - 1), boundary_matrix(P, n))
            assert all(not any(row) for row in squared)

    rng = suite_rng("oracle-snf")
    for h in models[: len(models) - 1]:
        P = h.complex
        for n in P.dims():
            if n == 0:
                continue
            mat = boundary_matrix(P, n)
            snf = smith_normal_form(*sparse_columns(mat))
            assert snf.verify()
            dense = dense_snf(snf)
            assert mat_mul(mat_mul(dense.u, mat), dense.v) == dense.d
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(*sparse_columns(mat))
        assert snf.verify()
        dense = dense_snf(snf)
        assert mat_mul(mat_mul(dense.u, mat), dense.v) == dense.d

    rng = suite_rng("loop-cycle")
    for _ in range(50):
        h = random_circle(rng, "c", 6)
        edges = h.complex.cells(1)
        wraps = rng.randint(1, 3)
        length = len(edges) * wraps
        z = {(1, key): wraps for key in edges}
        lifted = tensor_hda(h, labeled_interval("i"))
        z_lifted = {(1, (key, "v0")): wraps for key in edges}
        for ring in (ZZ, GF2, GF3, GF5):
            if ring.characteristic and length % ring.characteristic == 0:
                continue
            assert cycle_class_is_nonzero(h.complex, z, ring)
            assert cycle_class_is_nonzero(lifted.complex, z_lifted, ring)


def test_c09_kunneth_rank_check_over_gf2():
    rng = suite_rng("kunneth")
    for _ in range(20):
        left = random_factor(rng, "l")
        right = random_factor(rng, "r")
        actual, predicted = kunneth_profile(left.complex, right.complex, GF2)
        assert actual == predicted, f"{actual} vs {predicted}"
