"""Benchmark: real ``hda-lab`` command lines, timed end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  This process starts one
``python -m hda_lab.cli ...`` child at a time, waits for it, then starts
the next, so every job pays interpreter start, import, load, validation,
compute, rendering and output, as in a user's shell.  A pass runs the
workload's job list once (see ``workloads.py``); passes repeat while the
next one still fits in ``--seconds``, after a minimum of two (one when
traced).  Every job's exit code and output are checked against the
expectation table after its pass, outside the timed stretch.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
the median set-up time, and each job's median over the passes, summed over
the pass and per command.  With ``--trace 1`` each job also runs a second time
through ``spans.py``, right after its plain run, and the last line carries
the per-layer metrics, medians over passes; the spans are written to
``.bench_work/trace-<workload>-seed<seed>.json``.  The exit code is 0 only
when every job passed its checks.

Every time in the result line is in reference seconds.  A virtual machine
on a shared cloud host sees each CPU's speed change by up to 1.7 times for
one to ten seconds at a stretch, and by 40 % over minutes, for every
program alike (measured on a 2-vCPU VM), so raw wall times of the same code
drift from run to run by more than the benchmark's bounds.  So this process
samples the speed of the CPU each child runs on: a short pure-Python loop
is timed there before the child starts, every ``SAMPLE_EVERY_S`` while it
runs (each sample pauses the child for about 1 ms, 1 % of its time) and
once after it ends.  The child's wall time times the mean of those speeds,
each relative to ``REFERENCE_STEP_S`` per loop step, is its time on a CPU
that runs the loop at that pace.  The package never runs the loop, so a
change to the package shows in full.  The raw wall-time figures are printed
beside the reported ones on the lines above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 9
PROBES, PROBE_STEPS = 2, 30_000  # about 2 ms of Python per probe
SAMPLE_EVERY_S, SAMPLE_STEPS = 0.1, 15_000  # about 1 ms of Python per sample
REFERENCE_STEP_S = 2e-3 / 30_000  # the loop pace at which reported times are wall times
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the jobs do

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    *((f"{cmd}_s", "s") for cmd in workloads.COMMANDS),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Result:
    """One finished (or killed) child process."""

    job: workloads.Job
    job_id: str
    wall: float
    ref: float  # the wall time in reference seconds
    code: int | None  # None when the child was killed at its timeout
    rss_mb: float
    stdout: Path
    stderr: Path
    spans: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Launcher:
    """Starts the run's children one at a time, each on the fastest CPU.

    On a shared cloud host, neighbours slow a virtual machine's CPUs one at
    a time: on a 2-vCPU VM, by up to 1.7 times for one to ten seconds at a
    stretch.  Before each child starts, a short loop is timed on every CPU
    and the child is pinned to the fastest, which keeps part of that noise
    out of the timings.  This process then stays on that CPU and samples
    its speed until the child ends, which turns the wall time into
    reference seconds (see the module docstring).
    """

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0))

    def fastest_cpu(self) -> tuple[int, float]:
        """The fastest CPU and its speed, in reference seconds per second."""
        took = []
        try:
            for cpu in self.cpus * PROBES:
                os.sched_setaffinity(0, {cpu})
                took.append((_speed(PROBE_STEPS), cpu))
        finally:
            os.sched_setaffinity(0, self.cpus)
        speed, cpu = max(took)
        return cpu, speed

    def spawn(self, argv: list[str], name: str):
        """Run one child to completion, killing it at the run's deadline.

        Returns (wall seconds, reference seconds, exit code or None if
        killed, peak RSS MB); the child's stdout and stderr go to
        logs/<name>.out and .err.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        base = self.work / "logs" / name
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            cpu, speed = self.fastest_cpu()
            speeds = [speed]
            # The child inherits the CPU, and the samples below share it.
            os.sched_setaffinity(0, {cpu})
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=self.work, stdout=out, stderr=err, env=env)
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while True:
                        left = self.deadline - time.perf_counter()
                        if select.select([pidfd], [], [], max(min(SAMPLE_EVERY_S, left), 0.0))[0]:
                            finished = True
                            break
                        if left <= SAMPLE_EVERY_S:
                            finished = False
                            break
                        speeds.append(_speed(SAMPLE_STEPS))
                    wall = time.perf_counter() - start
                    if not finished:
                        proc.kill()
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    os.close(pidfd)
                speeds.append(max(_speed(PROBE_STEPS) for _ in range(PROBES)))
            finally:
                os.sched_setaffinity(0, self.cpus)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if finished else None
        return wall, wall * statistics.fmean(speeds), code, usage.ru_maxrss / 1024

    def run_job(self, job, job_id: str, traced: bool) -> Result:
        name = job_id.replace("/", "-") + ("-traced" if traced else "")
        base = self.work / "logs" / name
        if traced:
            prefix = [sys.executable, str(BENCH / "spans.py"), f"{base}.spans", job_id]
        else:
            prefix = [sys.executable, "-m", "hda_lab.cli"]
        wall, ref, code, rss = self.spawn([*prefix, *job.argv], name)
        return Result(job, job_id, wall, ref, code, rss, Path(f"{base}.out"), Path(f"{base}.err"))


def _speed(steps: int) -> float:
    """This CPU's speed now, in reference seconds per second, from a timed loop."""
    begun = time.perf_counter()
    sum(i * i for i in range(steps))
    return REFERENCE_STEP_S * steps / (time.perf_counter() - begun)


def run_pass(launcher: Launcher, jobs, tag: str, traced: bool):
    """Run the job list once, in order, in the work directory.

    Returns the plain results and, when traced, the traced ones: then each
    job runs twice back to back, plain and through ``spans.py``, so both
    see the same machine state.
    """
    for job in jobs:
        if job.out:
            (launcher.work / job.out).unlink(missing_ok=True)
    plain, with_spans = [], []
    for i, job in enumerate(jobs):
        job_id = f"{tag}/{i:02d}-{job.argv[0]}"
        plain.append(launcher.run_job(job, job_id, traced=False))
        if traced:
            with_spans.append(launcher.run_job(job, job_id, traced=True))
    return plain, with_spans


def check_pass(results: list[Result], work: Path, traced: bool) -> None:
    """Fill in each result's problems: exit code, output, spans, certificates."""
    for r in results:
        cmdline = "hda-lab " + " ".join(r.job.argv)
        if r.code is None:
            r.problems.append(f"killed at the run's time limit after {r.wall:.1f} s")
        else:
            r.problems += checks.check_job(r.job, r.code, r.stdout.read_text(), work)
        if traced:
            r.problems += _check_trace(r)
        if r.problems:
            err = r.stderr.read_text().strip().splitlines()
            detail = f" (stderr: {err[-1]})" if err else ""
            for p in r.problems:
                print(f"FAILED {cmdline}: {p}{detail}", file=sys.stderr)


def _check_trace(r: Result) -> list[str]:
    try:
        r.spans = json.loads(r.stdout.with_suffix(".spans").read_text())["spans"]
    except (OSError, ValueError, KeyError):
        return ["traced child wrote no spans"]
    seen = {s[0] for s in r.spans}
    problems = [
        f"span {name} recorded zero calls"
        for name in sorted(spans.expected_spans(r.job) - seen)
    ]
    for cert in spans.certificates(r.spans):
        if cert["certificate"] is None:
            continue
        phi, modulus = cert["certificate"]
        if not checks.certificate_holds(cert["vectors"], cert["target"], phi, modulus):
            problems.append("nonmembership certificate fails its recheck")
    return problems


def end_to_end(passes: list[list[Result]], clock: str) -> dict[str, float]:
    """Each job's median run, summed per command and over the whole pass.

    ``clock`` names the time to use, ``ref`` or ``wall``.  Speed samples
    correct each run only on average, so a job's median over the passes is
    the steadier estimate of its cost.  Set-up is measured apart.
    """
    typical = [
        (runs[0].job, statistics.median(getattr(r, clock) for r in runs)) for runs in zip(*passes)
    ]
    values = {"run_s": sum(t for _, t in typical)}
    for cmd in workloads.COMMANDS:
        values[f"{cmd}_s"] = sum(t for job, t in typical if job.command == cmd)
    return values


def setup(launcher: Launcher, workload: str, seed: int) -> list[dict[str, float]]:
    """Import hda_lab and write the seeded input files, SETUPS times over.

    Returns each set-up's reference and wall seconds.
    """
    argv = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), "."]
    times = []
    for i in range(SETUPS):
        wall, ref, code, _ = launcher.spawn(argv, f"setup{i}")
        if code != 0:
            err = (launcher.work / "logs" / f"setup{i}.err").read_text()
            sys.exit(f"bench: set-up failed with exit {code}:\n{err}")
        times.append({"ref": ref, "wall": wall})
    return times


def measure(args, work: Path, deadline: float):
    """Set up, then run passes while the next one still fits in --seconds.

    Untraced runs make at least two passes, so no job's median rests on a
    single run; traced runs make at least one.  Returns the set-up times
    and the passes.
    """
    jobs = workloads.jobs(args.workload, args.seed)
    (work / "logs").mkdir()
    launcher = Launcher(work, deadline)
    setup_times = setup(launcher, args.workload, args.seed)
    window_end = time.perf_counter() + args.seconds
    passes, took = [], []
    while True:
        begun = time.perf_counter()
        plain, traced = run_pass(launcher, jobs, f"p{len(passes)}", args.trace)
        check_pass(plain, work, traced=False)
        check_pass(traced, work, traced=True)
        passes.append((plain, traced))
        took.append(time.perf_counter() - begun)
        enough = len(passes) >= (1 if args.trace else 2)
        if enough and time.perf_counter() + statistics.median(took) > window_end:
            return setup_times, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hda_lab" / "cli.py").is_file():
        print(f"bench: no hda_lab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times, passes = measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [r for plain, traced in passes for r in plain + traced]
    failed = sum(1 for r in every if r.problems)
    if args.trace:
        per_pass = [
            spans.layer_metrics(
                [(r.wall, r.spans, r.ref / r.wall) for r in traced], sum(r.ref for r in plain)
            )
            for plain, traced in passes
        ]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        raw = {}  # spans are timed inside the child, so there is no wall-time twin
        units = dict(spans.PER_LAYER)
        _write_trace(args, [r for _, traced in passes for r in traced])
    else:
        plain = [plain for plain, _ in passes]
        peak = max(r.rss_mb for r in every)
        values, raw = (
            {
                "setup_s": statistics.median(t[clock] for t in setup_times),
                **end_to_end(plain, clock),
                "peak_rss_mb": peak,
            }
            for clock in ("ref", "wall")
        )
        units = dict(END_TO_END)
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}:"
        f" {len(passes)} pass(es) of {len(passes[0][0])} jobs,"
        f" {failed} of {len(every)} jobs failed (fail_frac {failed / len(every):.4g})"
    )
    print(f"  {'metric':32s} {'reported':>14s} {'wall':>14s}")
    for name in units:
        wall = f"{raw[name]:14.6g}" if name in raw else f"{'':14s}"
        print(f"  {name:32s} {values[name]:14.6g} {wall} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": len(every), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _write_trace(args, traced: list[Result]) -> None:
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [
            {"job": r.job_id, "argv": list(r.job.argv), "wall": r.wall, "spans": r.spans}
            for r in traced
        ],
    }
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
