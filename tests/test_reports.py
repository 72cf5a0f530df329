import json
from itertools import combinations

import pytest

import hda_lab.reports
from hda_lab.exterior import ExteriorElement, word_to_vector
from hda_lab.labeling import degree_monomials, label_to_column
from hda_lab.homology import verify_nonmembership
from hda_lab.models import (
    boundary_square,
    dining_philosophers,
    filled_square,
    labeled_circle,
    lock_counter,
    lock_spec,
    torus_hda,
)
from hda_lab.programs import program_to_hda
from hda_lab.reports import (
    NO_OBSTRUCTION,
    OBSTRUCTION,
    _membership,
    implements_report,
    independence_report,
    realized_labels,
    render_implements,
    render_independence,
)
from hda_lab.rings import GF2, ZZ


def philosopher_circle(i):
    """The six-action cycle of one philosopher as a standalone component."""
    word = tuple(f"{a}_{i}" for a in ("pick_l", "pick_r", "eat", "put_l", "put_r", "think"))
    return labeled_circle(word)


def reported_label(entry, alphabet, ring):
    """The label of a report entry, rebuilt from its spelled-out terms."""
    index = {a: i for i, a in enumerate(alphabet.letters)}
    terms = {tuple(index[a] for a in letters): c for letters, c in entry["terms"]}
    return ExteriorElement(alphabet, ring, terms)


def reported_certificate(entry):
    """The (functional, modulus) pair of a report entry's certificate."""
    cert = entry["certificate"]
    assert cert is not None
    return cert["functional"], cert["modulus"]


def recheck_certificate(rep_main, check, ring, alphabet):
    """Re-verify a failed wedge against the image basis by dot products."""
    monomials = degree_monomials(alphabet, check["degree"])
    cols = [label_to_column(b, check["degree"], monomials) for b in rep_main]
    target = label_to_column(reported_label(check, alphabet, ring), check["degree"], monomials)
    assert verify_nonmembership(cols, target, reported_certificate(check))


def test_independence_on_the_torus():
    t = torus_hda()
    a_loop = labeled_circle(["a1", "a2"])
    b_loop = labeled_circle(["b"])
    rep = independence_report(t, [a_loop, b_loop], GF2)
    assert rep["verdict"] == NO_OBSTRUCTION
    assert rep["part_class_counts"] == [1, 1]
    assert len(rep["wedges_checked"]) == 1
    assert rep["wedges_checked"][0]["degree"] == 2
    assert rep["wedges_checked"][0]["coefficients"] is not None


def test_independence_ring_sensitivity():
    # over Z the torus squares carry the two a-edges with opposite signs, so
    # the unsigned wedge (a1+a2)^b is realized only after reducing mod 2
    t = torus_hda()
    parts = [labeled_circle(["a1", "a2"]), labeled_circle(["b"])]
    assert independence_report(t, parts, GF2)["verdict"] == NO_OBSTRUCTION
    zrep = independence_report(t, parts, ZZ)
    assert zrep["verdict"] == OBSTRUCTION
    witness = zrep["witness"]
    assert witness is not None and witness["degree"] == 2
    from hda_lab.labeling import labeled_degree

    basis = labeled_degree(t, 2, ZZ).label_image_basis
    recheck_certificate(basis, witness, ZZ, t.alphabet)


def test_independence_needs_a_filled_square():
    hollow = boundary_square()
    parts = [labeled_circle(["a"]), labeled_circle(["b"])]
    rep = independence_report(hollow, parts, GF2)
    assert rep["verdict"] == OBSTRUCTION
    assert rep["witness"]["certificate"] is not None


def test_independence_zero_label_selection_is_trivially_clear():
    # the hollow square's loop labels to zero, and zero is in every image
    main = filled_square("a", "b")
    part = boundary_square("a", "b")
    rep = independence_report(main, [part], GF2, selections=[(1, 0)])
    assert rep["verdict"] == NO_OBSTRUCTION
    [check] = rep["wedges_checked"]
    assert check["member"] and check["degree"] == 1
    assert check["label"] == "0"


def test_independence_skips_zero_wedges_by_default():
    main = filled_square("a", "b")
    parts = [labeled_circle(["a"]), labeled_circle(["a"])]
    rep = independence_report(main, parts, GF2)
    assert rep["verdict"] == NO_OBSTRUCTION
    assert rep["wedges_checked"] == []
    assert rep["zero_wedges_skipped"] == 1


def test_independence_degree_overflow_is_an_obstruction():
    main = labeled_circle(["a", "b"])
    parts = [labeled_circle(["a"]), labeled_circle(["b"])]
    rep = independence_report(main, parts, ZZ)
    assert rep["verdict"] == OBSTRUCTION
    assert rep["witness"]["degree"] == 2
    assert "top dimension" in rep["witness"]["reason"]
    assert rep["witness"]["certificate"] is not None


def test_independence_input_checks():
    t = torus_hda()
    with pytest.raises(ValueError, match="not in the main alphabet"):
        independence_report(t, [labeled_circle(["zz"])], GF2)
    with pytest.raises(ValueError, match="at least one part"):
        independence_report(t, [], GF2)
    with pytest.raises(ValueError, match="one class selection per part"):
        independence_report(t, [labeled_circle(["b"])], GF2, selections=[])
    with pytest.raises(ValueError, match="no index"):
        independence_report(t, [labeled_circle(["b"])], GF2, selections=[(1, 5)])


def test_independence_across_the_table():
    d = program_to_hda(dining_philosophers(4))
    for i, j in combinations(range(4), 2):
        rep = independence_report(d, [philosopher_circle(i), philosopher_circle(j)], GF2)
        expected = NO_OBSTRUCTION if j - i == 2 else OBSTRUCTION
        assert rep["verdict"] == expected, (i, j)
        assert len(rep["wedges_checked"]) == 1


def test_independence_report_serializes():
    t = torus_hda()
    rep = independence_report(t, [labeled_circle(["a1", "a2"]), labeled_circle(["b"])], GF2)
    blob = json.loads(json.dumps(rep))
    assert blob == rep
    assert blob["verdict"] == NO_OBSTRUCTION
    assert blob["analysis"] == "independence"
    assert blob["part_class_counts"] == [1, 1]
    assert blob["witness"] is None
    wedge = blob["wedges_checked"][0]
    assert wedge["member"] is True
    assert ["a1", "b"] in [term[0] for term in wedge["terms"]]
    text = render_independence(rep)
    assert "no obstruction" in text
    assert "realized" in text


def test_implements_flags_the_unlocked_counter():
    impl = program_to_hda(lock_counter())
    spec = lock_spec()
    rep = implements_report(realized_labels(impl, ZZ), spec, ZZ)
    assert rep["verdict"] == OBSTRUCTION
    assert [w["degree"] for w in rep["witnesses"]] == [2]
    assert (
        rep["witnesses"][0]["label"]
        == "x++_0∧x++_1 + x++_0∧x--_1 + x--_0∧x++_1 + x--_0∧x--_1"
    )
    assert rep["labels_checked"] == 3
    from hda_lab.labeling import labeled_degree

    basis = [b.retag(impl.alphabet) for b in labeled_degree(spec, 2, ZZ).label_image_basis]
    recheck_certificate(basis, rep["witnesses"][0], ZZ, impl.alphabet)

    text = render_implements(rep)
    assert "degree 2 label not realized" in text
    blob = json.loads(json.dumps(rep))
    assert blob == rep
    assert blob["witnesses"][0]["certificate"]["modulus"] == 0


def test_implements_is_reflexive():
    impl = program_to_hda(lock_counter())
    assert implements_report(realized_labels(impl, ZZ), impl, ZZ)["verdict"] == NO_OBSTRUCTION


def test_implements_spec_direction_passes():
    # the locked behavior is a sub-behavior of the unlocked counter
    impl = program_to_hda(lock_counter())
    spec = lock_spec()
    rep = implements_report(realized_labels(spec, ZZ), impl, ZZ)
    assert rep["verdict"] == NO_OBSTRUCTION
    assert rep["labels_checked"] == 2


def test_implements_zero_labels_pass():
    impl = boundary_square("a", "b")
    spec = filled_square("a", "b")
    rep = implements_report(realized_labels(impl, ZZ), spec, ZZ)
    assert rep["verdict"] == NO_OBSTRUCTION
    assert rep["labels_checked"] == 0
    assert rep["zero_labels_skipped"] == 1


def test_implements_requires_matching_alphabets():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        implements_report(realized_labels(labeled_circle(["a"]), ZZ), labeled_circle(["b"]), ZZ)


def test_implements_tolerates_reordered_alphabets():
    impl = labeled_circle(["a", "b"])
    spec = labeled_circle(["b", "a"])
    rep = implements_report(realized_labels(impl, ZZ), spec, ZZ)
    assert rep["verdict"] == NO_OBSTRUCTION
    assert rep["labels_checked"] == 1


@pytest.mark.parametrize("ring", [ZZ, GF2])
def test_a_tampered_certificate_is_refused(ring, monkeypatch):
    # a1 is outside the span of b: phi is nonzero at a1, its first nonzero
    # entry, and zero there it no longer separates a1 from the span.
    real = hda_lab.reports.nonmembership_certificate

    def tampered(vectors, target, ring):
        phi, modulus = real(vectors, target, ring)
        k = next(i for i, x in enumerate(phi) if x)
        return phi[:k] + [0] + phi[k + 1 :], modulus

    t = torus_hda()
    a, b = (word_to_vector(t.alphabet, (x,), ring) for x in ("a1", "b"))
    basis = [b]
    assert _membership(basis, a, ring, 1, t.alphabet)[1] is not None
    monkeypatch.setattr(hda_lab.reports, "nonmembership_certificate", tampered)
    with pytest.raises(AssertionError, match="failed verification"):
        _membership(basis, a, ring, 1, t.alphabet)
