"""Command line front end.

Every command reads the canonical JSON documents from ``fileformats`` and
writes one report to stdout (or ``--out``), as text or JSON via
``--format``.  Identical invocations produce identical bytes.

Exit codes, chosen so scripts can branch on the interesting outcomes:

    0  success / no obstruction found
    1  unreadable input: I/O trouble, JSON syntax, schema errors, bad usage;
       also an internal error, reported on one line with no report written
    2  input read fine but fails validation or a precondition
    3  an obstruction was proved (independence / implements)

A command loads the layers it runs when it runs: this module imports only
file formats, automata and rings, so ``model klein`` never compiles the
homology code.  Only the program compiler imports ``dataclasses`` (which
brings in ``inspect``, ``ast`` and ``dis``); it keeps its dataclasses
because callers derive program variants with ``dataclasses.replace``.
Every other layer uses plain classes, so a command that compiles no
program pays for neither.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
from pathlib import Path as FsPath
from typing import Sequence

from .fileformats import (
    FileFormatError,
    canonical_json,
    hda_to_json,
    json_object,
    load_dimap,
    load_hda,
    load_program,
    read_text,
    render_id,
)
from .hda import Hda, validate_hda
from .rings import CoefficientRing, parse_ring

EXIT_OK = 0
EXIT_BROKEN_INPUT = 1
EXIT_INVALID = 2
EXIT_OBSTRUCTION = 3

# Layer functions the commands call, by defining module; each loads on first use.
_LAYERS = {
    "program_to_hda": "programs",
    "tensor_hda": "products",
    "all_homology": "homology",
    "labeled_homology": "labeling",
    "realized_labels": "reports",
    "implements_report": "reports",
    "independence_report": "reports",
}


def __getattr__(name: str):
    """Import a layer function's module on first access (PEP 562) and keep
    the function itself in this module's namespace."""
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fn = getattr(importlib.import_module(f".{_LAYERS[name]}", __package__), name)
    globals()[name] = fn
    return fn


# This module as callers see it.  Commands look layer functions up through
# it, so a function set on it is the one run.  They do so before reading
# their input: a layer compiled while the input is live would add the
# compiler's scratch memory to the process's peak.
_cli = sys.modules[__name__]


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


def _invalid(analysis: str, path: str, what: str, violations, **extra) -> _Failure:
    """The exit-2 report that refuses an input: ``<path>: <what>`` and its violations,
    the path as its bytes read as UTF-8, whatever the locale, with each byte
    that is not UTF-8 escaped."""
    try:
        path = path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    except UnicodeEncodeError:  # a surrogate no byte decodes to, from an in-process caller
        path = path.encode("utf-8", "backslashreplace").decode()
    doc = {"analysis": analysis, "input": path, "valid": False, **extra}
    doc["violations"] = _violation_dicts(violations)
    lines = [f"{path}: {what}"] + [str(v) for v in violations]
    return _Failure(EXIT_INVALID, doc, "\n".join(lines) + "\n")


def _checked_hda(path: str, analysis: str) -> Hda:
    """Load an HDA file and refuse to analyze an invalid one."""
    h = load_hda(path)
    violations = validate_hda(h)
    if violations:
        raise _invalid(analysis, path, "invalid", violations)
    return h


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
    all_homology = _cli.all_homology
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
        lines.append(f"H_{n} = {g.describe()}")
    return EXIT_OK, doc, "\n".join(lines) + "\n"


def _cmd_labels(args) -> tuple[int, dict, str]:
    labeled_homology = _cli.labeled_homology
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
        lines.append(f"H_{n} = {g.describe()}")
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
# Their report is the HDA document in every format, so they return no text
# and ``main`` encodes the document once.

# Built-in models, each built from the ``models`` module.
_FIXTURES = {
    "peterson": lambda models: _cli.program_to_hda(models.peterson()),
    "lock-counter": lambda models: _cli.program_to_hda(models.lock_counter()),
    "lock-spec": lambda models: models.lock_spec(),
    "torus": lambda models: models.torus_hda(),
    "klein": lambda models: models.klein_hda(),
    "boundary-square": lambda models: models.boundary_square(),
    "filled-square": lambda models: models.filled_square(),
}


def _cmd_model(args) -> tuple[int, dict, None]:
    name = args.name
    if name == "program":
        if not args.file:
            raise FileFormatError("model program needs --file with a program file")
        h = _cli.program_to_hda(load_program(args.file))
    elif name == "philosophers":
        if args.n is None:
            raise FileFormatError("model philosophers needs --n")
        from .models import dining_philosophers

        h = _cli.program_to_hda(dining_philosophers(args.n))
    elif name == "circle":
        if not args.labels:
            raise FileFormatError("model circle needs --labels, e.g. --labels a.b,c")
        words = [tuple(part.split(".")) for part in args.labels.split(",")]
        if any(not a for word in words for a in word):
            raise FileFormatError(f"bad --labels {args.labels!r}: empty letter")
        from .models import directed_circle

        h = directed_circle(words)
    else:
        from . import models

        h = _FIXTURES[name](models)
    return EXIT_OK, hda_to_json(h), None


def _cmd_tensor(args) -> tuple[int, dict, None]:
    tensor_hda = _cli.tensor_hda
    a = _checked_hda(args.a, "tensor")
    b = _checked_hda(args.b, "tensor")
    return EXIT_OK, hda_to_json(tensor_hda(a, b)), None


# -- dimap commands ------------------------------------------------------------


def _checked_dimap(path: str, analysis: str):
    f = load_dimap(path)
    for which, h in (("source", f.source), ("target", f.target)):
        violations = validate_hda(h)
        if violations:
            raise _invalid(analysis, path, f"{which} automaton invalid", violations, endpoint=which)
    return f


def _cmd_dimap_check(args) -> tuple[int, dict, str]:
    from .dimap import check_chain_map, check_naturality, validate_dimap

    f = _checked_dimap(args.file, "dimap-check")
    structure = validate_dimap(f)
    # On a broken map the other two checks do not run: None, not "ok".
    chain_map = naturality = None
    if not structure:
        chain_map = check_chain_map(f, args.ring)
        naturality = check_naturality(f, args.ring)
    ok = not (structure or chain_map or naturality)
    doc = {"analysis": "dimap-check", "ring": str(args.ring), "ok": ok}
    lines = []
    for key, title, bunch in (
        ("structure", "structure", structure),
        ("chain_map", "chain map", chain_map),
        ("naturality", "naturality", naturality),
    ):
        doc[key] = None if bunch is None else _violation_dicts(bunch)
        if bunch is None:
            lines.append(f"{title}: not checked")
        elif bunch:
            lines.append(f"{title}: {len(bunch)} violations")
            lines += [str(v) for v in bunch]
        else:
            lines.append(f"{title}: ok")
    code = EXIT_OK if ok else EXIT_INVALID
    return code, doc, "\n".join(lines) + "\n"


def _chain(spec: str, h: Hda) -> tuple[int, dict]:
    """Read ``--chain``: inline JSON, or ``@FILE``, whose errors name the file."""
    from .dimap import chain_from_json

    if not spec.startswith("@"):
        return chain_from_json(json_object(spec, "chain"), h)
    path = spec[1:]
    doc = json_object(read_text(path), path)
    try:
        return chain_from_json(doc, h)
    except FileFormatError as e:
        raise FileFormatError(f"{path}: {e}") from None


def _render_chain(chain) -> dict:
    return {render_id(cube[1]): c for cube, c in sorted(
        chain.items(), key=lambda kv: render_id(kv[0][1])
    )}


def _cmd_pushforward(args) -> tuple[int, dict, str]:
    from .dimap import pushforward_chain, validate_dimap
    from .labeling import chain_label

    f = _checked_dimap(args.file, "pushforward")
    violations = validate_dimap(f)
    if violations:
        raise _invalid("pushforward", args.file, "invalid dimap", violations)
    degree, chain = _chain(args.chain, f.source)
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
    from .reports import OBSTRUCTION, render_independence

    independence_report = _cli.independence_report
    main = _checked_hda(args.main, "independence")
    parts = [_checked_hda(p, "independence") for p in args.parts]
    selections = None
    if args.classes is not None:
        selections = [_parse_selector(s) for s in args.classes]
    try:
        doc = independence_report(main, parts, args.ring, selections)
    except ValueError as e:
        raise _Failure(
            EXIT_INVALID,
            {"analysis": "independence", "error": str(e)},
            f"error: {e}\n",
        ) from None
    code = EXIT_OBSTRUCTION if doc["verdict"] == OBSTRUCTION else EXIT_OK
    return code, doc, render_independence(doc)


def _cmd_implements(args) -> tuple[int, dict, str]:
    from .reports import OBSTRUCTION, render_implements

    realized_labels = _cli.realized_labels
    implements_report = _cli.implements_report
    # One model at a time: the implementation is reduced to its labels and
    # let go, the homology kept for its complex with it, before the
    # specification is read.
    realized = realized_labels(_checked_hda(args.impl, "implements"), args.ring)
    spec = _checked_hda(args.spec, "implements")
    try:
        doc = implements_report(realized, spec, args.ring)
    except ValueError as e:
        raise _Failure(
            EXIT_INVALID,
            {"analysis": "implements", "error": str(e)},
            f"error: {e}\n",
        ) from None
    code = EXIT_OBSTRUCTION if doc["verdict"] == OBSTRUCTION else EXIT_OK
    return code, doc, render_implements(doc)


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
    # The cyclic collector never finds anything a command made: what it finds
    # at the end is the same few hundred objects imports leave, whatever the
    # input.  Each of its runs walks the whole loaded model, so a command runs
    # without it, and the caller's setting comes back on every way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        if argv is None:
            _text_as_utf8(args)
        return _run(args)
    except Exception as e:
        # A fault of the program, not of its input: one line, and the report
        # is not written, since that comes last.
        message = " ".join(f"{type(e).__name__}: {e}".splitlines())
        print(f"hda-lab: internal error: {message}", file=sys.stderr)
        return EXIT_BROKEN_INPUT
    finally:
        if enabled:
            gc.enable()


def _text_as_utf8(args) -> None:
    """Read ``--labels`` and an inline ``--chain`` as UTF-8, as files are,
    whatever the locale; paths stay as the locale decodes them, so that
    they name the same files."""
    for name in ("labels", "chain"):
        text = getattr(args, name, None)
        if text and not (name == "chain" and text.startswith("@")):
            setattr(args, name, os.fsencode(text).decode("utf-8", "surrogateescape"))


def _run(args) -> int:
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
    payload = canonical_json(doc) if text is None or args.format == "json" else text
    if not payload.endswith("\n"):
        payload += "\n"
    # A report is written as UTF-8 bytes, whatever the locale: a text stream
    # or file would encode it once just the same.  One that cannot be encoded
    # (a lone surrogate from a JSON escape) fails before anything is written.
    try:
        data = payload.encode()
    except UnicodeEncodeError as e:
        bad = e.object[e.start : e.end]
        print(f"hda-lab: report cannot be written as UTF-8: {bad!r}: {e.reason}",
              file=sys.stderr)
        return EXIT_BROKEN_INPUT
    if args.out:
        try:
            FsPath(args.out).write_bytes(data)
        except OSError as e:
            print(f"hda-lab: {args.out}: {e.strerror or e}", file=sys.stderr)
            return EXIT_BROKEN_INPUT
    else:
        sys.stdout.flush()  # whatever the caller wrote to it comes first
        sys.stdout.buffer.write(data)
    return code


def script() -> int:
    """``main`` as a process runs it, for ``python -m hda_lab.cli`` and the
    ``hda-lab`` console script.

    The process ends once the report is written, so the objects left by the
    imports are frozen into the collector's permanent generation: the
    interpreter's collections at exit then skip them (teardown 10 → 3 ms on
    a small model).  ``os._exit`` would save a little more, but it skips
    atexit handlers and the flushing of stdout and stderr.  A caller of
    ``main`` keeps its collector as it was.
    """
    try:
        return main()
    finally:  # argparse's exits included
        gc.freeze()


if __name__ == "__main__":
    sys.exit(script())
