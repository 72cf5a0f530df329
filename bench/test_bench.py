"""The benchmark's own checks must be able to fail.

    PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
LADDER = workloads.jobs("ladder-z", 0)


def _job(*prefix: str) -> workloads.Job:
    (job,) = [j for j in LADDER if j.argv[: len(prefix)] == prefix]
    return job


def _hda_lab(where: Path, argv, spans_file: Path | None = None):
    if spans_file is None:
        launcher = ["-m", "hda_lab.cli"]
    else:
        launcher = [str(BENCH / "spans.py"), str(spans_file), "test"]
    return subprocess.run(
        [sys.executable, *launcher, *argv],
        cwd=where,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=120,
    )


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> Path:
    """The small ladder-z models, written by the CLI as in a run."""
    where = tmp_path_factory.mktemp("models")
    for name in ("klein", "peterson", "lock-counter", "lock-spec"):
        assert _hda_lab(where, _job("model", name).argv).returncode == 0
    return where


def _set(doc: dict, path: tuple, change) -> None:
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = change(doc[last])


@pytest.mark.parametrize(
    "analysis, path, change",
    [
        (("homology", "klein.json"), ("cells", 1), lambda c: c + 1),
        (("homology", "klein.json"), ("euler",), lambda e: e - 1),
        (("homology", "klein.json"), ("groups", 1, "rank"), lambda r: r + 1),
        (("homology", "klein.json"), ("groups", 1, "torsion"), lambda t: []),
        (("labels", "peterson.json"), ("degrees", 1, "label_image_rank"), lambda r: r + 1),
        (("labels", "peterson.json"), ("degrees", 1, "zero_label_rank"), lambda r: r - 1),
        (("implements", "lock.json"), ("verdict",), lambda v: "no-obstruction"),
    ],
)
def test_expectation_checker_catches_a_doctored_document(models, analysis, path, change):
    job = _job(*analysis)
    run = _hda_lab(models, job.argv)
    assert checks.check_job(job, run.returncode, run.stdout, models) == []
    doc = json.loads(run.stdout)
    _set(doc, path, change)
    assert checks.check_document(job, doc)
    assert checks.check_job(job, run.returncode + 1, run.stdout, models)


def _certificates(where: Path, argv, spans_file: Path) -> list[dict]:
    run = _hda_lab(where, argv, spans_file)
    assert run.returncode == workloads.OBSTRUCTION_EXIT, run.stderr
    captured = json.loads(spans_file.read_text())["spans"]
    certs = [c for c in spans.certificates(captured) if c["certificate"] is not None]
    assert certs
    for cert in certs:
        phi, modulus = cert["certificate"]
        assert checks.certificate_holds(cert["vectors"], cert["target"], phi, modulus)
    return certs


def test_certificate_recheck_rejects_a_flipped_functional_entry(models, tmp_path):
    # The lock pair's witness has an empty basis: phi only has to hit the target.
    job = _job("implements", "lock.json")
    for cert in _certificates(models, job.argv, tmp_path / "lock.json"):
        phi, modulus = cert["certificate"]
        for j in (j for j, a in enumerate(phi) if a):
            flipped = list(phi)
            flipped[j] = 0
            assert not checks.certificate_holds([], cert["target"], flipped, modulus)
    # The README's torus wedge is missed by a nonzero image: moving phi on a
    # coordinate a basis column uses breaks phi . v = 0.
    for argv in (
        ("model", "torus", "--out", "torus.json"),
        ("model", "circle", "--labels", "a1,a2", "--out", "ca.json"),
        ("model", "circle", "--labels", "b", "--out", "cb.json"),
    ):
        assert _hda_lab(tmp_path, argv).returncode == 0
    argv = ("independence", "torus.json", "ca.json", "cb.json", "--ring", "z")
    for cert in _certificates(tmp_path, argv, tmp_path / "torus.spans"):
        vectors, target = cert["vectors"], cert["target"]
        phi, modulus = cert["certificate"]
        used = [[x % modulus if modulus else x for x in v] for v in vectors]
        support = [j for j in range(len(phi)) if any(v[j] for v in used)]
        assert support
        for j in support:
            flipped = list(phi)
            flipped[j] += 1
            assert not checks.certificate_holds(vectors, target, flipped, modulus)


def test_expectation_table_is_consistent():
    for name, exp in workloads.EXPECTED.items():
        euler = sum((-1) ** n * c for n, c in enumerate(exp.cells))
        ranks = sum((-1) ** n * rank for n, (rank, _) in enumerate(exp.groups))
        assert euler == ranks, name
        if exp.labels is not None:
            assert [a + b for a, b in exp.labels] == [r for r, _ in exp.groups], name
