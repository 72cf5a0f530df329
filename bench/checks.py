"""Output checks: every job against the expectation table, every certificate by hand.

Only fields that do not depend on the choice of basis are compared: cell
counts, ranks and torsion, the Euler characteristic, label image and
zero-label ranks, verdicts and exit codes.  Certificates are rechecked with
plain dot products, never through the package's own verifier.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import EXPECTED, OBSTRUCTION_EXIT, Job

VERDICT = {0: "no-obstruction", OBSTRUCTION_EXIT: "obstruction-found"}


def check_job(job: Job, code: int, stdout: str, workdir: Path) -> list[str]:
    """Problems with one finished job; an empty list means it passed."""
    if code != job.exit:
        return [f"exit code {code}, expected {job.exit}"]
    if job.out is not None:
        out = workdir / job.out
        if not out.is_file() or out.stat().st_size == 0:
            return [f"no HDA file written to {job.out}"]
        return []
    try:
        return check_document(job, json.loads(stdout))
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    except (KeyError, IndexError, TypeError) as e:
        return [f"malformed report: {e!r}"]


def check_document(job: Job, doc: dict) -> list[str]:
    """Problems with one analysis report, given as the parsed JSON document."""
    cmd = job.command
    if doc.get("analysis") != cmd:
        return [f"analysis {doc.get('analysis')!r}, expected {cmd!r}"]
    if cmd in ("implements", "independence"):
        want = VERDICT[job.exit]
        got = doc.get("verdict")
        return [] if got == want else [f"verdict {got!r}, expected {want!r}"]
    exp = EXPECTED[job.model]
    problems = []
    groups = doc["groups"] if cmd == "homology" else doc["degrees"]
    got = [(g["rank"], tuple(g["torsion"])) for g in groups]
    if got != list(exp.groups):
        problems.append(f"groups {got}, expected {list(exp.groups)}")
    if cmd == "homology":
        cells = doc["cells"]
        if tuple(cells) != exp.cells:
            problems.append(f"cells {cells}, expected {list(exp.cells)}")
        euler = sum((-1) ** n * c for n, c in enumerate(cells))
        ranks = sum((-1) ** n * g["rank"] for n, g in enumerate(groups))
        if doc["euler"] != euler or ranks != euler:
            problems.append(
                f"euler {doc['euler']}, from cells {euler}, from ranks {ranks}"
            )
    else:
        got = [(g["label_image_rank"], g["zero_label_rank"]) for g in groups]
        if got != list(exp.labels):
            problems.append(f"label ranks {got}, expected {list(exp.labels)}")
    return problems


def certificate_holds(
    vectors: list[list[int]], target: list[int], phi: list[int], modulus: int
) -> bool:
    """Does phi kill every basis column and miss the target, mod the modulus?"""

    def dot(v: list[int]) -> int:
        s = sum(a * b for a, b in zip(phi, v))
        return s % modulus if modulus else s

    if any(len(v) != len(phi) for v in [*vectors, target]):
        return False
    return all(dot(v) == 0 for v in vectors) and dot(target) != 0
