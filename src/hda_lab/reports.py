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
specification never allowed.
"""

from __future__ import annotations

from itertools import product

from .exterior import ExteriorElement
from .hda import Alphabet, Hda
from .homology import lattice_membership, nonmembership_certificate
from .labeling import DegreeLabelReport, degree_monomials, label_to_column, labeled_degree
from .rings import CoefficientRing, ZZ

OBSTRUCTION = "obstruction-found"
NO_OBSTRUCTION = "no-obstruction"


def element_terms(x: ExteriorElement) -> list[tuple[list[str], int]]:
    """Monomials of an exterior element with letters spelled out."""
    out = []
    for idx in sorted(x.terms):
        letters = [x.alphabet.letters[i] for i in idx]
        out.append((letters, x.terms[idx]))
    return out


def _certificate_dict(cert: tuple[list[int], int] | None) -> dict | None:
    if cert is None:
        return None
    phi, modulus = cert
    return {"functional": list(phi), "modulus": modulus}


def _membership(
    basis: list[ExteriorElement],
    target: ExteriorElement,
    ring: CoefficientRing,
    degree: int,
    alphabet: Alphabet,
) -> tuple[list[int] | None, tuple[list[int], int] | None]:
    """Membership coefficients or a nonmembership certificate, never both."""
    monomials = degree_monomials(alphabet, degree)
    cols = [label_to_column(b, degree, monomials) for b in basis]
    tcol = label_to_column(target, degree, monomials)
    coeffs = lattice_membership(cols, tcol, ring)
    if coeffs is not None:
        return coeffs, None
    cert = nonmembership_certificate(cols, tcol, ring)
    if cert is None:
        raise AssertionError("membership and certificate disagree")
    return None, cert


class WedgeCheck:
    """One wedge of component class labels tested against the main image."""

    def __init__(
        self,
        selection: tuple[tuple[int, int, int], ...],
        degree: int,
        label: ExteriorElement,
        member: bool,
        coefficients: list[int] | None,
        certificate: tuple[list[int], int] | None = None,
        reason: str = "",
    ) -> None:
        self.selection = selection
        self.degree = degree
        self.label = label
        self.member = member
        self.coefficients = coefficients
        self.certificate = certificate
        self.reason = reason

    def to_dict(self) -> dict:
        return {
            "selection": [
                {"part": p, "degree": d, "class": c} for p, d, c in self.selection
            ],
            "degree": self.degree,
            "label": str(self.label),
            "terms": [[ls, c] for ls, c in element_terms(self.label)],
            "member": self.member,
            "coefficients": self.coefficients,
            "certificate": _certificate_dict(self.certificate),
            "reason": self.reason or None,
        }


class IndependenceReport:
    """Outcome of the component-independence necessary condition."""

    def __init__(
        self,
        ring: CoefficientRing,
        alphabet: Alphabet,
        part_sizes: list[int],
        checks: list[WedgeCheck] | None = None,
        skipped_zero: int = 0,
    ) -> None:
        self.ring = ring
        self.alphabet = alphabet
        self.part_sizes = part_sizes
        self.checks = [] if checks is None else checks
        self.skipped_zero = skipped_zero

    @property
    def verdict(self) -> str:
        if any(not c.member for c in self.checks):
            return OBSTRUCTION
        return NO_OBSTRUCTION

    @property
    def witness(self) -> WedgeCheck | None:
        for c in self.checks:
            if not c.member:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "analysis": "independence",
            "verdict": self.verdict,
            "ring": str(self.ring),
            "alphabet": list(self.alphabet.letters),
            "part_class_counts": self.part_sizes,
            "wedges_checked": [c.to_dict() for c in self.checks],
            "zero_wedges_skipped": self.skipped_zero,
            "witness": self.witness.to_dict() if self.witness else None,
        }


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
) -> IndependenceReport:
    """Test component homology labels for joint realizability in the main model.

    With ``selections`` (one ``(degree, index)`` per part) exactly that wedge
    of class labels is tested; otherwise every combination of one nonzero
    positive-degree generator label per part is tried, stopping at the first
    wedge outside the main label image.  Wedges that collapse to zero are
    skipped in the default mode, since zero lies in every image.
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

    report = IndependenceReport(
        ring, main.alphabet, [len(c) for c in candidate_lists]
    )
    unit = ExteriorElement(main.alphabet, ring, {(): 1})
    image_cache: dict[int, DegreeLabelReport] = {}
    for combo in product(*candidate_lists):
        wedge = unit
        for _, _, label in combo:
            wedge = wedge ^ label.retag(main.alphabet)
        degree = sum(n for n, _, _ in combo)
        if wedge.is_zero() and not explicit:
            report.skipped_zero += 1
            continue
        if degree not in image_cache:
            image_cache[degree] = labeled_degree(main, degree, ring)
        basis = image_cache[degree].label_image_basis
        coeffs, cert = _membership(basis, wedge, ring, degree, main.alphabet)
        reason = ""
        if coeffs is None and degree > main.complex.max_dim:
            reason = "wedge degree exceeds the main model's top dimension"
        selection = tuple((k, n, idx) for k, (n, idx, _) in enumerate(combo))
        check = WedgeCheck(
            selection, degree, wedge, coeffs is not None, coeffs, cert, reason
        )
        report.checks.append(check)
        if coeffs is None:
            break
    return report


class ImplementsWitness:
    """A label the implementation realizes but the specification cannot."""

    def __init__(
        self, degree: int, label: ExteriorElement, certificate: tuple[list[int], int] | None
    ) -> None:
        self.degree = degree
        self.label = label
        self.certificate = certificate

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "label": str(self.label),
            "terms": [[ls, c] for ls, c in element_terms(self.label)],
            "certificate": _certificate_dict(self.certificate),
        }


class ImplementsReport:
    """Outcome of the label-image refinement check, degree by degree."""

    def __init__(
        self,
        ring: CoefficientRing,
        alphabet: Alphabet,
        degrees: list[int],
        checked: int,
        skipped_zero: int,
        witnesses: list[ImplementsWitness],
    ) -> None:
        self.ring = ring
        self.alphabet = alphabet
        self.degrees = degrees
        self.checked = checked
        self.skipped_zero = skipped_zero
        self.witnesses = witnesses

    @property
    def verdict(self) -> str:
        return OBSTRUCTION if self.witnesses else NO_OBSTRUCTION

    def to_dict(self) -> dict:
        return {
            "analysis": "implements",
            "verdict": self.verdict,
            "ring": str(self.ring),
            "alphabet": list(self.alphabet.letters),
            "degrees": self.degrees,
            "labels_checked": self.checked,
            "zero_labels_skipped": self.skipped_zero,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def implements_report(
    impl: Hda,
    spec: Hda,
    ring: CoefficientRing = ZZ,
) -> ImplementsReport:
    """Check that every realized implementation label is a specification label.

    Both models must use the same action letters (order may differ).  Degrees
    run from 1 through the implementation's top dimension; degree 0 carries
    only the unit and says nothing.  Zero labels are skipped: zero lies in
    every image.
    """
    if set(impl.alphabet.letters) != set(spec.alphabet.letters):
        only_impl = sorted(set(impl.alphabet.letters) - set(spec.alphabet.letters))
        only_spec = sorted(set(spec.alphabet.letters) - set(impl.alphabet.letters))
        raise ValueError(
            f"alphabet mismatch: implementation-only {only_impl},"
            f" specification-only {only_spec}"
        )
    alphabet = impl.alphabet
    degrees = list(range(1, impl.complex.max_dim + 1))
    witnesses = []
    checked = 0
    skipped = 0
    for n in degrees:
        impl_rep = labeled_degree(impl, n, ring)
        labels = [c.label for c in impl_rep.classes]
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
                witnesses.append(ImplementsWitness(n, label, cert))
    return ImplementsReport(ring, alphabet, degrees, checked, skipped, witnesses)


def render_independence(rep: IndependenceReport) -> str:
    lines = [
        f"independence over {rep.ring}",
        f"  candidate classes per part: {rep.part_sizes}",
        f"  wedges tested: {len(rep.checks)} (zero wedges skipped: {rep.skipped_zero})",
    ]
    for c in rep.checks:
        parts = ", ".join(f"part {p} H_{d} class {i}" for p, d, i in c.selection)
        state = "realized" if c.member else "NOT realized"
        lines.append(f"  [{parts}] wedge {c.label or 0}: {state}")
        if c.reason:
            lines.append(f"    ({c.reason})")
    if rep.verdict == NO_OBSTRUCTION:
        lines.append("  verdict: no obstruction (inconclusive for independence)")
    else:
        lines.append("  verdict: obstruction found, the parts are not independent")
    return "\n".join(lines)


def render_implements(rep: ImplementsReport) -> str:
    lines = [
        f"implements check over {rep.ring}",
        f"  degrees checked: {rep.degrees or 'none'}",
        f"  realized labels checked: {rep.checked}"
        f" (zero labels skipped: {rep.skipped_zero})",
    ]
    if not rep.witnesses:
        lines.append("  every implementation label is realized by the specification")
        lines.append("  verdict: no obstruction (inconclusive for refinement)")
    for w in rep.witnesses:
        lines.append(f"  degree {w.degree} label not realized by spec: {w.label}")
    if rep.witnesses:
        lines.append("  verdict: obstruction found, implementation is not a refinement")
    return "\n".join(lines)
