"""Command line front end.

Every command reads the canonical JSON documents from ``fileformats`` and
writes one report to stdout (or ``--out``), as text or JSON via
``--format``.  Identical invocations produce identical bytes.

Exit codes, chosen so scripts can branch on the interesting outcomes:

    0  success / no obstruction found
    1  unreadable input: I/O trouble, JSON syntax, schema errors, bad usage
    2  input read fine but fails validation or a precondition
    3  an obstruction was proved (independence / implements)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath
from typing import Sequence

from .dimap import check_chain_map, check_naturality, validate_dimap
from .fileformats import (
    FileFormatError,
    canonical_json,
    chain_from_json,
    hda_to_json,
    load_dimap,
    load_hda,
    load_program,
    render_id,
)
from .hda import Hda, validate_hda
from .homology import all_homology
from .labeling import chain_label, labeled_homology
from .dimap import pushforward_chain
from .models import (
    boundary_square,
    dining_philosophers,
    directed_circle,
    filled_square,
    klein_hda,
    lock_counter,
    lock_spec,
    peterson,
    torus_hda,
)
from .products import tensor_hda
from .programs import program_to_hda
from .reports import (
    OBSTRUCTION,
    implements_report,
    independence_report,
    render_implements,
    render_independence,
)
from .rings import CoefficientRing, parse_ring

EXIT_OK = 0
EXIT_BROKEN_INPUT = 1
EXIT_INVALID = 2
EXIT_OBSTRUCTION = 3


class _Failure(Exception):
    """A finished report with a non-zero exit code."""

    def __init__(self, code: int, doc: dict, text: str) -> None:
        super().__init__(text)
        self.code = code
        self.doc = doc
        self.text = text


class _Parser(argparse.ArgumentParser):
    """Argparse, except usage errors are input errors (exit 1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BROKEN_INPUT, f"{self.prog}: error: {message}\n")


def _ring_arg(spec: str) -> CoefficientRing:
    try:
        return parse_ring(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _cube_ref(cube) -> dict | None:
    if cube is None:
        return None
    dim, key = cube
    try:
        return {"dim": dim, "id": render_id(key)}
    except FileFormatError:
        return {"dim": dim, "id": repr(key)}


def _violation_dicts(violations) -> list[dict]:
    return [
        {"kind": v.kind, "cube": _cube_ref(v.cube), "message": v.message}
        for v in violations
    ]


def _checked_hda(path: str, analysis: str) -> Hda:
    """Load an HDA file and refuse to analyze an invalid one."""
    h = load_hda(path)
    violations = validate_hda(h)
    if violations:
        doc = {
            "analysis": analysis,
            "input": path,
            "valid": False,
            "violations": _violation_dicts(violations),
        }
        lines = [f"{path}: invalid"] + [str(v) for v in violations]
        raise _Failure(EXIT_INVALID, doc, "\n".join(lines) + "\n")
    return h


def _render_group(ring: CoefficientRing, rank: int, torsion: Sequence[int]) -> str:
    parts = []
    if rank:
        base = str(ring)
        if rank == 1:
            parts.append(base)
        elif ring.is_field:
            parts.append(f"({base})^{rank}")
        else:
            parts.append(f"{base}^{rank}")
    for d in torsion:
        parts.append(f"Z/{d}")
    return " + ".join(parts) if parts else "0"


# -- plain commands ----------------------------------------------------------


def _cmd_validate(args) -> tuple[int, dict, str]:
    h = load_hda(args.file)
    violations = validate_hda(h)
    P = h.complex
    doc = {
        "analysis": "validate",
        "valid": not violations,
        "cells": [P.size(n) for n in range(P.max_dim + 1)],
        "alphabet": list(h.alphabet.letters),
        "violations": _violation_dicts(violations),
    }
    if violations:
        lines = [str(v) for v in violations]
        plural = "" if len(violations) == 1 else "s"
        lines.append(f"invalid: {len(violations)} violation{plural}")
        return EXIT_INVALID, doc, "\n".join(lines) + "\n"
    sizes = " ".join(str(s) for s in doc["cells"])
    return EXIT_OK, doc, f"valid: cells {sizes} over {len(h.alphabet.letters)} letters\n"


def _cmd_homology(args) -> tuple[int, dict, str]:
    h = _checked_hda(args.file, "homology")
    P = h.complex
    groups = all_homology(P, args.ring)
    cells = [P.size(n) for n in range(P.max_dim + 1)]
    euler = sum((-1) ** n * c for n, c in enumerate(cells))
    doc = {
        "analysis": "homology",
        "ring": str(args.ring),
        "cells": cells,
        "euler": euler,
        "groups": [
            {"degree": n, "rank": g.free_rank, "torsion": list(g.torsion)}
            for n, g in sorted(groups.items())
        ],
    }
    lines = [
        f"ring: {args.ring}",
        "cells: " + " ".join(str(c) for c in cells),
        f"euler: {euler}",
    ]
    for n, g in sorted(groups.items()):
        lines.append(f"H_{n} = {_render_group(args.ring, g.free_rank, g.torsion)}")
    return EXIT_OK, doc, "\n".join(lines) + "\n"


def _cmd_labels(args) -> tuple[int, dict, str]:
    h = _checked_hda(args.file, "labels")
    reports = labeled_homology(h, args.ring)
    degrees = []
    lines = [f"ring: {args.ring}", "alphabet: " + " ".join(h.alphabet.letters)]
    for n, rep in sorted(reports.items()):
        g = rep.group
        degrees.append(
            {
                "degree": n,
                "rank": g.free_rank,
                "torsion": list(g.torsion),
                "classes": [
                    {"label": str(c.label), "order": c.order} for c in rep.classes
                ],
                "label_image": [str(x) for x in rep.label_image_basis],
                "label_image_rank": rep.label_image_rank,
                "zero_label_rank": rep.zero_label_rank,
            }
        )
        lines.append(
            f"H_{n} = {_render_group(args.ring, g.free_rank, g.torsion)}"
        )
        for c in rep.classes:
            order = f" (order {c.order})" if c.order else ""
            lines.append(f"  class: {c.label}{order}")
        image = "; ".join(str(x) for x in rep.label_image_basis) or "0"
        lines.append(f"  label image (rank {rep.label_image_rank}): {image}")
        lines.append(f"  zero-label rank: {rep.zero_label_rank}")
    doc = {
        "analysis": "labels",
        "ring": str(args.ring),
        "alphabet": list(h.alphabet.letters),
        "degrees": degrees,
    }
    return EXIT_OK, doc, "\n".join(lines) + "\n"


# -- model and tensor emit HDA files ------------------------------------------


_FIXTURES = {
    "peterson": lambda: program_to_hda(peterson()),
    "lock-counter": lambda: program_to_hda(lock_counter()),
    "lock-spec": lock_spec,
    "torus": torus_hda,
    "klein": klein_hda,
    "boundary-square": boundary_square,
    "filled-square": filled_square,
}


def _cmd_model(args) -> tuple[int, dict, str]:
    name = args.name
    if name == "program":
        if not args.file:
            raise FileFormatError("model program needs --file with a program file")
        h = program_to_hda(load_program(args.file))
    elif name == "philosophers":
        if args.n is None:
            raise FileFormatError("model philosophers needs --n")
        h = program_to_hda(dining_philosophers(args.n))
    elif name == "circle":
        if not args.labels:
            raise FileFormatError("model circle needs --labels, e.g. --labels a.b,c")
        words = [tuple(part.split(".")) for part in args.labels.split(",")]
        if any(not a for word in words for a in word):
            raise FileFormatError(f"bad --labels {args.labels!r}: empty letter")
        h = directed_circle(words)
    else:
        h = _FIXTURES[name]()
    doc = hda_to_json(h)
    return EXIT_OK, doc, canonical_json(doc)


def _cmd_tensor(args) -> tuple[int, dict, str]:
    a = _checked_hda(args.a, "tensor")
    b = _checked_hda(args.b, "tensor")
    doc = hda_to_json(tensor_hda(a, b))
    return EXIT_OK, doc, canonical_json(doc)


# -- dimap commands ------------------------------------------------------------


def _checked_dimap(path: str, analysis: str):
    f = load_dimap(path)
    for which, h in (("source", f.source), ("target", f.target)):
        violations = validate_hda(h)
        if violations:
            doc = {
                "analysis": analysis,
                "input": path,
                "valid": False,
                "endpoint": which,
                "violations": _violation_dicts(violations),
            }
            lines = [f"{path}: {which} automaton invalid"]
            lines += [str(v) for v in violations]
            raise _Failure(EXIT_INVALID, doc, "\n".join(lines) + "\n")
    return f


def _cmd_dimap_check(args) -> tuple[int, dict, str]:
    f = _checked_dimap(args.file, "dimap-check")
    structure = validate_dimap(f)
    chain_map = check_chain_map(f, args.ring) if not structure else []
    naturality = check_naturality(f, args.ring) if not structure else []
    ok = not (structure or chain_map or naturality)
    doc = {
        "analysis": "dimap-check",
        "ring": str(args.ring),
        "ok": ok,
        "structure": _violation_dicts(structure),
        "chain_map": _violation_dicts(chain_map),
        "naturality": _violation_dicts(naturality),
    }
    lines = []
    for title, bunch in (
        ("structure", structure),
        ("chain map", chain_map),
        ("naturality", naturality),
    ):
        if bunch:
            lines.append(f"{title}: {len(bunch)} violations")
            lines += [str(v) for v in bunch]
        else:
            lines.append(f"{title}: ok")
    if structure:
        lines.append("chain map and naturality not checked on a broken map")
    code = EXIT_OK if ok else EXIT_INVALID
    return code, doc, "\n".join(lines) + "\n"


def _chain_doc(spec: str) -> dict:
    if spec.startswith("@"):
        path = spec[1:]
        try:
            text = FsPath(path).read_text()
        except OSError as e:
            raise FileFormatError(f"{path}: {e.strerror or e}") from e
    else:
        text = spec
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(
            f"chain: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise FileFormatError("chain: expected a JSON object")
    return doc


def _render_chain(chain) -> dict:
    return {render_id(cube[1]): c for cube, c in sorted(
        chain.items(), key=lambda kv: render_id(kv[0][1])
    )}


def _cmd_pushforward(args) -> tuple[int, dict, str]:
    f = _checked_dimap(args.file, "pushforward")
    violations = validate_dimap(f)
    if violations:
        doc = {
            "analysis": "pushforward",
            "input": args.file,
            "valid": False,
            "violations": _violation_dicts(violations),
        }
        lines = [f"{args.file}: invalid dimap"] + [str(v) for v in violations]
        raise _Failure(EXIT_INVALID, doc, "\n".join(lines) + "\n")
    degree, chain = chain_from_json(_chain_doc(args.chain), f.source)
    image = pushforward_chain(f, chain, args.ring)
    label = chain_label(f.source, chain, args.ring)
    image_label = chain_label(f.target, image, args.ring)
    doc = {
        "analysis": "pushforward",
        "ring": str(args.ring),
        "degree": degree,
        "chain": _render_chain(chain),
        "label": str(label),
        "image": _render_chain(image),
        "image_label": str(image_label),
    }
    lines = [
        f"ring: {args.ring}",
        f"degree: {degree}",
        "chain: " + (json.dumps(doc["chain"], sort_keys=True) or ""),
        f"label: {label}",
        "image: " + json.dumps(doc["image"], sort_keys=True),
        f"image label: {image_label}",
    ]
    return EXIT_OK, doc, "\n".join(lines) + "\n"


# -- analysis commands ----------------------------------------------------------


def _parse_selector(text: str) -> tuple[int, int]:
    left, sep, right = text.partition(":")
    if not sep:
        raise FileFormatError(f"bad class selector {text!r}: expected deg:idx")
    try:
        degree, idx = int(left), int(right)
    except ValueError:
        raise FileFormatError(
            f"bad class selector {text!r}: expected two integers"
        ) from None
    if degree < 0 or idx < 0:
        raise FileFormatError(f"bad class selector {text!r}: negative values")
    return degree, idx


def _cmd_independence(args) -> tuple[int, dict, str]:
    main = _checked_hda(args.main, "independence")
    parts = [_checked_hda(p, "independence") for p in args.parts]
    selections = None
    if args.classes is not None:
        selections = [_parse_selector(s) for s in args.classes]
    try:
        rep = independence_report(main, parts, args.ring, selections)
    except ValueError as e:
        raise _Failure(
            EXIT_INVALID,
            {"analysis": "independence", "error": str(e)},
            f"error: {e}\n",
        ) from None
    code = EXIT_OBSTRUCTION if rep.verdict == OBSTRUCTION else EXIT_OK
    return code, rep.to_dict(), render_independence(rep)


def _cmd_implements(args) -> tuple[int, dict, str]:
    impl = _checked_hda(args.impl, "implements")
    spec = _checked_hda(args.spec, "implements")
    try:
        rep = implements_report(impl, spec, args.ring)
    except ValueError as e:
        raise _Failure(
            EXIT_INVALID,
            {"analysis": "implements", "error": str(e)},
            f"error: {e}\n",
        ) from None
    code = EXIT_OBSTRUCTION if rep.verdict == OBSTRUCTION else EXIT_OK
    return code, rep.to_dict(), render_implements(rep)


# -- wiring ---------------------------------------------------------------------


_DISPATCH = {
    "validate": _cmd_validate,
    "homology": _cmd_homology,
    "labels": _cmd_labels,
    "model": _cmd_model,
    "tensor": _cmd_tensor,
    "dimap-check": _cmd_dimap_check,
    "pushforward": _cmd_pushforward,
    "independence": _cmd_independence,
    "implements": _cmd_implements,
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hda-lab",
        description="Labeled cubical homology workbench for higher-dimensional automata.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def common(sp, ring=True):
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="report format (default text)",
        )
        if ring:
            sp.add_argument(
                "--ring",
                type=_ring_arg,
                default="z",
                help="coefficients: z or zp:<p> (default z)",
            )

    sp = sub.add_parser("validate", help="check an automaton file")
    sp.add_argument("file")
    common(sp, ring=False)

    sp = sub.add_parser("homology", help="homology of an automaton")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("labels", help="labeled homology classes and label image")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("model", help="emit a built-in model as an automaton file")
    sp.add_argument("name", choices=sorted(_FIXTURES) + ["circle", "philosophers", "program"])
    sp.add_argument("--n", type=int, help="table size for philosophers")
    sp.add_argument(
        "--labels",
        help="circle edges: commas separate edges, dots separate letters"
        " within one edge (a.b,c is an a,b edge then a c edge)",
    )
    sp.add_argument("--file", help="program file for model program")
    common(sp, ring=False)

    sp = sub.add_parser("tensor", help="tensor product of two automata")
    sp.add_argument("a")
    sp.add_argument("b")
    common(sp, ring=False)

    sp = sub.add_parser("dimap-check", help="structure, chain map and label naturality")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("pushforward", help="push a chain through a dimap")
    sp.add_argument("file")
    sp.add_argument(
        "--chain",
        required=True,
        help='{"degree": n, "coeffs": {id: c}} inline or @file',
    )
    common(sp)

    sp = sub.add_parser(
        "independence",
        help="wedge-of-labels obstruction to independence of parts inside main",
    )
    sp.add_argument("main")
    sp.add_argument("parts", nargs="+")
    sp.add_argument(
        "--classes",
        nargs="*",
        help="one deg:idx selector per part (default: all classes)",
    )
    common(sp)

    sp = sub.add_parser(
        "implements",
        help="label-image obstruction to implementing a specification",
    )
    sp.add_argument("impl")
    sp.add_argument("spec")
    common(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, text = _DISPATCH[args.cmd](args)
    except FileFormatError as e:
        print(f"hda-lab: {e}", file=sys.stderr)
        return EXIT_BROKEN_INPUT
    except _Failure as f:
        code, doc, text = f.code, f.doc, f.text
    except ValueError as e:
        print(f"hda-lab: {e}", file=sys.stderr)
        return EXIT_INVALID
    payload = canonical_json(doc) if args.format == "json" else text
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        FsPath(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
