"""Outside-in layer trace: wrappers around the package's functions, and the
per-layer metrics computed from the spans they record.

Run as a script, it executes one ``hda-lab`` command with the wrappers in
place and writes the spans as JSON when the command ends:

    python bench/spans.py SPANS_FILE JOB_ID HDA_LAB_ARGS...

Each wrapper goes on the name where the caller looks the function up, so
no file of the package changes.  A span is ``[name, start, end, parent,
attrs]``; its name is the defining module and function, whichever
namespace it was called through.  Counts a wrapper derives from a call's
result are taken after the call's span has closed, inside a
``trace.annotate`` span, so they add to the tracing overhead and not to
the layer's time.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# Namespace -> names wrapped there: the callers' lookups, not the definitions.
WRAPPED = {
    "hda_lab.cli": (
        "load_hda",
        "load_program",
        "hda_to_json",
        "canonical_json",
        "validate_hda",
        "program_to_hda",
        "tensor_hda",
        "all_homology",
        "labeled_homology",
        "implements_report",
        "independence_report",
    ),
    "hda_lab.programs": ("reachable_states",),
    "hda_lab.homology": (
        "homology",
        "boundary_matrix",
        "gf2_boundary_columns",
        "smith_normal_form",
    ),
    "hda_lab.labeling": ("homology", "labeled_degree", "smith_normal_form"),
    "hda_lab.reports": ("labeled_degree", "lattice_membership", "nonmembership_certificate"),
}

ROOT_SPAN = "cli.main"


def _dense(out, P, n, ring=None):
    rows = len(out)
    return {
        "boundary": f"{id(P)}:{n}",
        "nnz": sum(len(r) - r.count(0) for r in out),
        "slots": rows * (len(out[0]) if rows else 0),
    }


def _bitset(out, P, n):
    return {"boundary": f"{id(P)}:{n}", "nnz": sum(c.bit_count() for c in out)}


def _snf(out, mat, cols=None):
    return {"slots": len(mat) * (cols if cols is not None else len(mat[0]) if mat else 0)}


def _certificate(out, vectors, target, ring=None):
    return {
        "vectors": [list(v) for v in vectors],
        "target": list(target),
        "certificate": None if out is None else [list(out[0]), out[1]],
    }


# Counts derived from a call, keyed by span name.
ANNOTATE = {
    "homology.boundary_matrix": _dense,
    "homology.gf2_boundary_columns": _bitset,
    "homology.smith_normal_form": _snf,
    "homology.nonmembership_certificate": _certificate,
    "programs.reachable_states": lambda out, prog: {"states": len(out)},
    "programs.program_to_hda": lambda out, prog: {
        "cubes": sum(out.complex.size(n) for n in range(out.complex.max_dim + 1))
    },
    "fileformats.load_hda": lambda out, path: {"bytes": os.path.getsize(path)},
    "fileformats.load_program": lambda out, path: {"bytes": os.path.getsize(path)},
    "fileformats.canonical_json": lambda out, doc: {"bytes": len(out)},
}


class Tracer:
    """Spans of one process, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if annotate is not None:
                note = self.begin("trace.annotate")
                self.spans[idx][4] = annotate(out, *args, **kwargs)
                self.end(note)
            return out

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED; one wrapper per function object."""
        import importlib

        wrappers = {}
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn)
                setattr(module, attr, wrappers[id(fn)])


# -- what each job must show ------------------------------------------------------

_COMPILED_MODELS = {"program", "peterson", "lock-counter"}
_RING_SPANS = {
    "z": {"homology.boundary_matrix", "homology.smith_normal_form"},
    "zp:2": {"homology.gf2_boundary_columns"},
}
_ANALYSIS_SPANS = {
    "homology": {"homology.all_homology"},
    "labels": {"labeling.labeled_homology", "labeling.labeled_degree"},
    "implements": {
        "reports.implements_report",
        "labeling.labeled_degree",
        "homology.lattice_membership",
    },
    "independence": {
        "reports.independence_report",
        "labeling.labeled_degree",
        "homology.lattice_membership",
    },
}


def expected_spans(job) -> set[str]:
    """Span names a job cannot finish without; each must record a call."""
    cmd = job.argv[0]
    names = {ROOT_SPAN}
    if cmd in ("model", "tensor"):
        names |= {"fileformats.hda_to_json", "fileformats.canonical_json"}
        if cmd == "tensor":
            names |= {"fileformats.load_hda", "hda.validate_hda", "products.tensor_hda"}
        elif job.argv[1] in _COMPILED_MODELS:
            names |= {"programs.program_to_hda", "programs.reachable_states"}
            if job.argv[1] == "program":
                names.add("fileformats.load_program")
        return names
    names |= {"fileformats.load_hda", "hda.validate_hda", "homology.homology"}
    names |= _RING_SPANS[job.ring]
    names |= _ANALYSIS_SPANS[cmd]
    if job.exit == 3:
        names.add("homology.nonmembership_certificate")
    return names


def certificates(spans: list[list]) -> list[dict]:
    """The captured inputs and output of every nonmembership certificate call."""
    return [s[4] for s in spans if s[0] == "homology.nonmembership_certificate"]


# -- per-layer metrics ---------------------------------------------------------------

PER_LAYER = (
    ("programs.explore_s", "s"),
    ("programs.fill_s", "s"),
    ("programs.states", "count"),
    ("programs.cubes", "count"),
    ("fileformats.read_s", "s"),
    ("fileformats.write_s", "s"),
    ("fileformats.bytes", "B"),
    ("hda.validate_s", "s"),
    ("homology.assembly_s", "s"),
    ("homology.assembly_calls", "count"),
    ("homology.assembly_per_boundary", "ratio"),
    ("homology.boundary_nnz", "count"),
    ("homology.boundary_slots", "count"),
    ("homology.reduce_s", "s"),
    ("homology.snf_s", "s"),
    ("homology.snf_calls", "count"),
    ("homology.snf_slots", "count"),
    ("homology.calls", "count"),
    ("labeling.self_s", "s"),
    ("labeling.calls", "count"),
    ("reports.self_s", "s"),
    ("reports.membership_s", "s"),
    ("reports.certificate_s", "s"),
    ("reports.queries", "count"),
    ("reports.certificates", "count"),
    ("products.tensor_s", "s"),
    ("cli.self_s", "s"),
    ("job.unattributed_s", "s"),
    ("job.trace_overhead_s", "s"),
)

_ASSEMBLY = ("homology.boundary_matrix", "homology.gf2_boundary_columns")


def layer_metrics(traced: list[tuple[float, list[list], float]], untraced: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``traced`` holds each job's traced wall time, its spans and the scale
    from its wall seconds to the seconds reported; ``untraced`` is the
    summed reported time of the same jobs run without tracing.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    boundaries = set()
    unattributed = 0.0
    for job, (wall, job_spans, scale) in enumerate(traced):
        wall *= scale
        dur = [(end - start) * scale for _, start, end, _, _ in job_spans]
        self_time = list(dur)
        for (_, _, _, parent, _), d in zip(job_spans, dur):
            if parent is None:
                unattributed += wall - d
            else:
                self_time[parent] -= d
        for (name, _, _, _, attrs), d, st in zip(job_spans, dur, self_time):
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
            for key, value in attrs.items():
                if key == "boundary":
                    boundaries.add((job, value))
                elif isinstance(value, int):
                    counts[name, key] = counts.get((name, key), 0) + value

    def time_in(*names):
        return sum(total.get(n, 0.0) for n in names)

    def self_in(*names):
        return sum(own.get(n, 0.0) for n in names)

    def calls_to(*names):
        return sum(calls.get(n, 0) for n in names)

    def counted(key, *names):
        return sum(counts.get((n, key), 0) for n in names)

    snf = "homology.smith_normal_form"
    reads = ("fileformats.load_hda", "fileformats.load_program")
    return {
        "programs.explore_s": time_in("programs.reachable_states"),
        "programs.fill_s": self_in("programs.program_to_hda"),
        "programs.states": counted("states", "programs.reachable_states"),
        "programs.cubes": counted("cubes", "programs.program_to_hda"),
        "fileformats.read_s": time_in(*reads),
        "fileformats.write_s": time_in("fileformats.hda_to_json", "fileformats.canonical_json"),
        "fileformats.bytes": counted("bytes", *reads, "fileformats.canonical_json"),
        "hda.validate_s": time_in("hda.validate_hda"),
        "homology.assembly_s": time_in(*_ASSEMBLY),
        "homology.assembly_calls": calls_to(*_ASSEMBLY),
        "homology.assembly_per_boundary": calls_to(*_ASSEMBLY) / max(len(boundaries), 1),
        "homology.boundary_nnz": counted("nnz", *_ASSEMBLY),
        "homology.boundary_slots": counted("slots", "homology.boundary_matrix"),
        "homology.reduce_s": self_in("homology.homology"),
        "homology.snf_s": time_in(snf),
        "homology.snf_calls": calls_to(snf),
        "homology.snf_slots": counted("slots", snf),
        "homology.calls": calls_to("homology.homology"),
        "labeling.self_s": self_in("labeling.labeled_degree", "labeling.labeled_homology"),
        "labeling.calls": calls_to("labeling.labeled_degree"),
        "reports.self_s": self_in("reports.implements_report", "reports.independence_report"),
        "reports.membership_s": time_in("homology.lattice_membership"),
        "reports.certificate_s": time_in("homology.nonmembership_certificate"),
        "reports.queries": calls_to("homology.lattice_membership"),
        "reports.certificates": calls_to("homology.nonmembership_certificate"),
        "products.tensor_s": time_in("products.tensor_hda"),
        "cli.self_s": self_in(ROOT_SPAN),
        "job.unattributed_s": unattributed,
        "job.trace_overhead_s": sum(w * scale for w, _, scale in traced) - untraced,
    }


def main(argv: list[str]) -> int:
    spans_file, job_id, *command = argv
    tracer = Tracer()
    tracer.install()
    import hda_lab.cli

    root = tracer.begin(ROOT_SPAN)
    try:
        return hda_lab.cli.main(command)
    finally:
        tracer.end(root)
        with open(spans_file, "w") as f:
            json.dump({"job": job_id, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
