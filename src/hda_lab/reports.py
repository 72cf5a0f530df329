"""Concurrency analyses phrased as label-image membership questions.

Both analyses ask whether values that concurrency would force into the
label image of a model's homology are actually there, and both only ever
prove the negative: "obstruction-found" comes with a machine-checkable
certificate, while "no-obstruction" merely reports that this particular
necessary condition did not fail.

The independence question takes a main model plus standalone component
models.  If the components ran independently inside the main model, the
wedge of any of their homology class labels would be realized by a class
of the main model; a wedge that is missing from the label image proves
the components interfere somewhere.

The implements question compares an implementation against a
specification over the same alphabet.  A refinement cannot invent
observable homology: every label the implementation realizes must be
realized by the specification too, so any label the specification cannot
produce is a witness that the implementation does something the
specification never allowed.  The check has two halves that share only
labels: ``realized_labels`` reduces the implementation to its alphabet and
the labels of its classes, and ``implements_report`` asks the
specification's label image for each.  So a caller can let the
implementation's model go before it reads the specification's, and the
two models are never held at once.

Each analysis returns its report as the JSON document that ``--format
json`` prints, with the verdict and the witnesses computed where the
report is built; its ``render_*`` function writes the text form from that
document.  A nonmembership certificate is rechecked by dot products before
it goes into a report, as a membership witness is.
"""

from __future__ import annotations

from itertools import product

from .exterior import ExteriorElement
from .hda import Alphabet, Hda
from .homology import lattice_membership, nonmembership_certificate, verify_nonmembership
from .labeling import degree_monomials, label_to_column, labeled_degree
from .rings import CoefficientRing, ZZ

OBSTRUCTION = "obstruction-found"
NO_OBSTRUCTION = "no-obstruction"


def _labeled(degree: int, label: ExteriorElement) -> dict:
    """The fields of a reported label: degree, text, and monomials spelled out."""
    letters = label.alphabet.letters
    terms = [[[letters[i] for i in idx], label.terms[idx]] for idx in sorted(label.terms)]
    return {"degree": degree, "label": str(label), "terms": terms}


def _membership(
    basis: list[ExteriorElement],
    target: ExteriorElement,
    ring: CoefficientRing,
    degree: int,
    alphabet: Alphabet,
) -> tuple[list[int] | None, dict | None]:
    """Membership coefficients or a rechecked nonmembership certificate, never both."""
    monomials = degree_monomials(alphabet, degree)
    cols = [label_to_column(b, degree, monomials) for b in basis]
    tcol = label_to_column(target, degree, monomials)
    coeffs = lattice_membership(cols, tcol, ring)
    if coeffs is not None:
        return coeffs, None
    cert = nonmembership_certificate(cols, tcol, ring)
    if cert is None:
        raise AssertionError("membership and certificate disagree")
    if not verify_nonmembership(cols, tcol, cert):
        raise AssertionError("nonmembership certificate failed verification")
    phi, modulus = cert
    return None, {"functional": phi, "modulus": modulus}


def _candidate_classes(
    part: Hda, ring: CoefficientRing
) -> list[tuple[int, int, ExteriorElement]]:
    """Positive-degree generator classes with nonzero label, in degree order."""
    found = []
    for n in range(1, part.complex.max_dim + 1):
        rep = labeled_degree(part, n, ring)
        for idx, cls in enumerate(rep.classes):
            if cls.label.terms:
                found.append((n, idx, cls.label))
    return found


def independence_report(
    main: Hda,
    parts: list[Hda],
    ring: CoefficientRing = ZZ,
    selections: list[tuple[int, int]] | None = None,
) -> dict:
    """Test component homology labels for joint realizability in the main model.

    With ``selections`` (one ``(degree, index)`` per part) exactly that wedge
    of class labels is tested; otherwise every combination of one nonzero
    positive-degree generator label per part is tried, stopping at the first
    wedge outside the main label image, the witness.  Wedges that collapse
    to zero are skipped in the default mode, since zero lies in every image.
    """
    if not parts:
        raise ValueError("need at least one part")
    for k, part in enumerate(parts):
        for letter in part.alphabet.letters:
            if letter not in main.alphabet:
                raise ValueError(
                    f"part {k} action {letter!r} is not in the main alphabet"
                )
    explicit = selections is not None
    if explicit:
        if len(selections) != len(parts):
            raise ValueError("need one class selection per part")
        candidate_lists = []
        for k, (part, (n, idx)) in enumerate(zip(parts, selections)):
            rep = labeled_degree(part, n, ring)
            if not 0 <= idx < len(rep.classes):
                raise ValueError(
                    f"part {k} has {len(rep.classes)} classes in degree {n},"
                    f" no index {idx}"
                )
            candidate_lists.append([(n, idx, rep.classes[idx].label)])
    else:
        candidate_lists = [_candidate_classes(part, ring) for part in parts]

    checks = []
    skipped = 0
    witness = None
    unit = ExteriorElement.unit(main.alphabet, ring)
    images: dict[int, list[ExteriorElement]] = {}
    for combo in product(*candidate_lists):
        wedge = unit
        for _, _, label in combo:
            wedge = wedge ^ label.retag(main.alphabet)
        degree = sum(n for n, _, _ in combo)
        if wedge.is_zero() and not explicit:
            skipped += 1
            continue
        if degree not in images:
            images[degree] = labeled_degree(main, degree, ring).label_image_basis
        coeffs, cert = _membership(images[degree], wedge, ring, degree, main.alphabet)
        reason = None
        if coeffs is None and degree > main.complex.max_dim:
            reason = "wedge degree exceeds the main model's top dimension"
        check = {
            "selection": [
                {"part": k, "degree": n, "class": idx} for k, (n, idx, _) in enumerate(combo)
            ],
            **_labeled(degree, wedge),
            "member": coeffs is not None,
            "coefficients": coeffs,
            "certificate": cert,
            "reason": reason,
        }
        checks.append(check)
        if coeffs is None:
            witness = check
            break
    return {
        "analysis": "independence",
        "verdict": NO_OBSTRUCTION if witness is None else OBSTRUCTION,
        "ring": str(ring),
        "alphabet": list(main.alphabet.letters),
        "part_class_counts": [len(c) for c in candidate_lists],
        "wedges_checked": checks,
        "zero_wedges_skipped": skipped,
        "witness": witness,
    }


def realized_labels(
    impl: Hda, ring: CoefficientRing = ZZ
) -> tuple[Alphabet, dict[int, list[ExteriorElement]]]:
    """The implementation's half of the implements check: its alphabet and,
    for each degree from 1 through its top dimension, the labels of its
    classes.  Degree 0 carries only the unit and says nothing.  Nothing
    returned refers to the model, so it can go once this returns."""
    labels = {
        n: [c.label for c in labeled_degree(impl, n, ring).classes]
        for n in range(1, impl.complex.max_dim + 1)
    }
    return impl.alphabet, labels


def implements_report(
    realized: tuple[Alphabet, dict[int, list[ExteriorElement]]],
    spec: Hda,
    ring: CoefficientRing = ZZ,
) -> dict:
    """Check that every realized implementation label is a specification label.

    ``realized`` is what ``realized_labels`` returns for the implementation.
    Both models must use the same action letters (order may differ).  Zero
    labels are skipped: zero lies in every image, so a degree whose labels
    are all zero asks nothing of the specification.  Each label outside the
    specification's image is a witness.
    """
    alphabet, realized_by_degree = realized
    if set(alphabet.letters) != set(spec.alphabet.letters):
        only_impl = sorted(set(alphabet.letters) - set(spec.alphabet.letters))
        only_spec = sorted(set(spec.alphabet.letters) - set(alphabet.letters))
        raise ValueError(
            f"alphabet mismatch: implementation-only {only_impl},"
            f" specification-only {only_spec}"
        )
    witnesses = []
    checked = 0
    skipped = 0
    for n, labels in realized_by_degree.items():
        if all(l.is_zero() for l in labels):
            skipped += len(labels)
            continue
        spec_basis = [
            b.retag(alphabet) for b in labeled_degree(spec, n, ring).label_image_basis
        ]
        for label in labels:
            if label.is_zero():
                skipped += 1
                continue
            checked += 1
            coeffs, cert = _membership(spec_basis, label, ring, n, alphabet)
            if coeffs is None:
                witnesses.append({**_labeled(n, label), "certificate": cert})
    return {
        "analysis": "implements",
        "verdict": OBSTRUCTION if witnesses else NO_OBSTRUCTION,
        "ring": str(ring),
        "alphabet": list(alphabet.letters),
        "degrees": list(realized_by_degree),
        "labels_checked": checked,
        "zero_labels_skipped": skipped,
        "witnesses": witnesses,
    }


def render_independence(doc: dict) -> str:
    lines = [
        f"independence over {doc['ring']}",
        f"  candidate classes per part: {doc['part_class_counts']}",
        f"  wedges tested: {len(doc['wedges_checked'])}"
        f" (zero wedges skipped: {doc['zero_wedges_skipped']})",
    ]
    for c in doc["wedges_checked"]:
        parts = ", ".join(
            f"part {s['part']} H_{s['degree']} class {s['class']}" for s in c["selection"]
        )
        state = "realized" if c["member"] else "NOT realized"
        lines.append(f"  [{parts}] wedge {c['label']}: {state}")
        if c["reason"]:
            lines.append(f"    ({c['reason']})")
    if doc["verdict"] == NO_OBSTRUCTION:
        lines.append("  verdict: no obstruction (inconclusive for independence)")
    else:
        lines.append("  verdict: obstruction found, the parts are not independent")
    return "\n".join(lines)


def render_implements(doc: dict) -> str:
    lines = [
        f"implements check over {doc['ring']}",
        f"  degrees checked: {doc['degrees'] or 'none'}",
        f"  realized labels checked: {doc['labels_checked']}"
        f" (zero labels skipped: {doc['zero_labels_skipped']})",
    ]
    for w in doc["witnesses"]:
        lines.append(f"  degree {w['degree']} label not realized by spec: {w['label']}")
    if doc["verdict"] == NO_OBSTRUCTION:
        lines.append("  every implementation label is realized by the specification")
        lines.append("  verdict: no obstruction (inconclusive for refinement)")
    else:
        lines.append("  verdict: obstruction found, implementation is not a refinement")
    return "\n".join(lines)
