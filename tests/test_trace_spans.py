"""The benchmark's traced runs must keep seeing the package's layers.

``bench/spans.py`` wraps the package's functions by name and requires each
analysis job to record certain spans (``spans.expected_spans``): the
assembly of every boundary over Z and over GF(2), the label map, membership
and, when a job exits 3, the nonmembership certificate.  A refactor that
renames or bypasses one of those functions breaks only the traced run, so
these tests run the tracer as the benchmark does, on the small fixtures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hda_lab.cli import main as run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

RINGS = ("z", "zp:2")

# Command and input files -> exit code, the same over both rings.
ANALYSES = {
    ("homology", "klein.json"): 0,
    ("labels", "peterson.json"): 0,
    ("implements", "lock.json", "lockspec.json"): workloads.OBSTRUCTION_EXIT,
    ("independence", "torus.json", "ca.json", "cb.json"): 0,
}


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("traced")
    for argv in (
        ["model", "klein", "--out", "klein.json"],
        ["model", "peterson", "--out", "peterson.json"],
        ["model", "lock-counter", "--out", "lock.json"],
        ["model", "lock-spec", "--out", "lockspec.json"],
        ["model", "circle", "--labels", "a,b.c", "--out", "ca.json"],
        ["model", "circle", "--labels", "d.e,f", "--out", "cb.json"],
        ["tensor", "ca.json", "cb.json", "--out", "torus.json"],
    ):
        assert run([str(where / a) if a.endswith(".json") else a for a in argv]) == 0
    return where


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("analysis", list(ANALYSES), ids=lambda a: a[0])
def test_a_traced_job_records_the_spans_the_benchmark_requires(
    analysis, ring, fixtures, tmp_path
):
    job = workloads.Job((*analysis, "--ring", ring, "--format", "json"), ANALYSES[analysis])
    spans_file = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(spans_file), "test", *job.argv],
        cwd=fixtures,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert done.returncode == job.exit, done.stderr
    recorded = {span[0] for span in json.loads(spans_file.read_text())["spans"]}
    assert spans.expected_spans(job) <= recorded
