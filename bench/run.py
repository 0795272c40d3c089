"""listlab benchmark: seeded CLI job streams, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

One client in one process calls `listlab.cli.main(argv)` in a closed loop:
each job starts when the previous one has returned. Jobs come from
`workloads.plan(workload, seed)`, and their code files are written during
set-up by `listlab code make` in a fresh interpreter.

--trace 0 reports the end-to-end metrics: set-up time (median of
SETUP_REPEATS fresh interpreters, spread over the run), jobs per second,
per-job latency of the `main()` call at p50 and p90, and peak resident
memory. Jobs run in whole
rounds until `--seconds` of job time and at least MIN_JOBS jobs are done, so
every run has the same mix of work.

Timings are scaled to a reference CPU speed (see `SpeedProbe`): on a shared
host the CPU runs up to twice as slow for minutes at a time, and the scaling
takes that out. The unscaled wall-clock figures are printed on the line
before the result.

--trace 1 runs one pass over the seed's rounds untraced, then the same pass
with every public listlab function wrapped by `tracer.Tracer`, and reports
per-layer self times, work counts, layer shares and the tracing overhead.
The pass is the same work whatever `--seconds` says, so counts repeat
exactly across runs of one seed. A failed analytic-count check aborts the run.

Every job's exit code and canonical-region sha256 are checked against
`expected.json`, and a violated certificate must pass `verify()` after it is
reloaded; checks run outside the timed span. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin numeric libraries to one thread before numpy loads: one client, and
# steadier timings on a shared 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100  # p90 needs at least 10 samples beyond it
SETUP_REPEATS = 9
MAX_TIMED_S = 150.0
# Time of one SpeedProbe.measure() on an idle reference machine (Intel Xeon
# KVM guest, 2 vCPUs, Python 3.11.7, numpy 2.4.6). It only sets the scale of
# the scaled timings: both sides of a comparison use the same value.
REF_PROBE_S = 0.0025
EXPECTED_PATH = BENCH_DIR / "expected.json"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def percentile(values, p: float, min_beyond: int = 10) -> float:
    """Nearest-rank p-th percentile (0 < p < 100).

    Raises BenchError unless at least `min_beyond` samples lie above the
    reported rank, so a tail percentile always rests on enough samples.
    """
    xs = sorted(values)
    if not xs or not 0 < p < 100:
        raise BenchError(f"percentile {p} of {len(xs)} samples")
    rank = math.ceil(p / 100 * len(xs))
    if len(xs) - rank < min_beyond:
        raise BenchError(
            f"p{p:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it, "
            f"need {min_beyond}"
        )
    return xs[rank - 1]


class SpeedProbe:
    """Measures how fast the CPU runs right now, to scale timings by it.

    The host's other tenants share its physical cores: a fixed loop runs 1.1
    to 2.4 times slower than when the host is idle, in periods of seconds to
    minutes, and interpreted Python suffers most. `measure()` times a fixed
    reference loop: three quarters interpreted Python and one quarter numpy
    array comparisons, the two kinds of work listlab does. `adjust(elapsed)`
    measures again and scales a timing by REF_PROBE_S over the mean of the
    loop's times just before and just after it. A faster listlab shortens the
    timing but not the loop, so a gain shows in full.
    """

    def __init__(self, measure=None):
        if measure is None:
            import numpy as np

            rows = np.arange(256 * 8, dtype=np.int64).reshape(256, 8) % 7
            words = (np.arange(64 * 8, dtype=np.int64).reshape(64, 8) * 3) % 7
            measure = functools.partial(_reference_loop, rows, words)
        self.measure = measure
        self.last = measure()
        self.samples = [self.last]

    def adjust(self, elapsed: float) -> float:
        before, self.last = self.last, self.measure()
        self.samples.append(self.last)
        return elapsed * REF_PROBE_S / ((before + self.last) / 2)


def _reference_loop(rows, words) -> float:
    start = time.perf_counter()
    acc, seen = 0, {}
    for i in range(17000):
        acc += (i * 31) % 7
        seen[i & 255] = acc
    int((rows[:, None, :] == words[None, :, :]).sum(axis=2).max())
    return time.perf_counter() - start


def canonical_digest(report: dict) -> str:
    """sha256 of a report's canonical region, as listlab itself defines it."""
    from listlab.reports import canonical_bytes

    return hashlib.sha256(canonical_bytes(report)).hexdigest()


def run_job(cli, argv) -> tuple[int | None, float, str, str | None]:
    """Call cli.main(argv) once; return (exit code, seconds, stdout, error).

    `main` is looked up on the module at each call, so a traced run reaches
    the wrapper the tracer installed there.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a raising job is a failed job, not a crash
            return None, time.perf_counter() - start, "", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue() or None


def check_job(expected: dict, job, rc, stdout: str, error: str | None) -> str | None:
    """Why a job's output is wrong, or None when it matches this commit's."""
    want = expected.get(job.id)
    if want is None:
        return "no recorded expectation"
    if rc is None:
        return f"raised {error}"
    if rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}: {error or ''}".strip()
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if canonical_digest(doc) != want["sha256"]:
        return "canonical region differs from the recorded digest"
    cert = doc["results"].get("certificate")
    if cert is not None and cert["verdict"] == "violated":
        from listlab.oracle import certificate_from_json_dict

        if not certificate_from_json_dict(cert).verify():
            return "violated certificate fails verify() after reload"
    return None


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def write_manifest(plan, name: str) -> Path:
    path = ROOT / workloads.WORK_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    (ROOT / workloads.CODE_DIR).mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([[p, list(a)] for p, a in plan.codes]), encoding="utf-8")
    return path


class Setup:
    """Times a fresh interpreter that imports listlab and writes the run's codes.

    Every call rewrites the same code files with the same bytes, so a timed
    run can repeat the set-up between its rounds and report the median.
    """

    def __init__(self, plan, workload: str, speed: SpeedProbe):
        self.manifest = write_manifest(plan, f"manifest-{workload}.json")
        self.speed = speed
        self.wall: list[float] = []
        self.times: list[float] = []  # scaled by self.speed

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_codes.py"), str(ROOT / "src"),
             str(self.manifest)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        self.wall.append(time.perf_counter() - start)
        self.times.append(self.speed.adjust(self.wall[-1]))
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")


class Runner:
    """Runs and checks jobs; counts what it attempted and what failed."""

    def __init__(self, cli, expected: dict, speed: SpeedProbe):
        self.cli = cli
        self.expected = expected
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job, paused=contextlib.nullcontext) -> tuple[float, float]:
        """Run and check one job; return its (wall, scaled) `main()` time."""
        rc, elapsed, stdout, error = run_job(self.cli, job.argv)
        with paused():
            scaled = self.speed.adjust(elapsed)
            why = check_job(self.expected, job, rc, stdout, error)
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{job.id}: {why}")
        return elapsed, scaled


def timed_run(runner: Runner, plan, seconds: float, setup: Setup) -> tuple[dict, dict]:
    """Time whole rounds of jobs; repeat the set-up evenly between them.

    Spreading the SETUP_REPEATS set-ups over the run lets their median see
    the same machine conditions as the jobs, not just the run's first seconds.
    Returns the metrics from scaled timings, and the same from wall times.
    """
    for job in plan.rounds[0]:  # warm-up round: lazy imports and first calls
        runner.run(job)
    wall: list[float] = []
    latencies: list[float] = []
    busy = 0.0
    r = 1
    while busy < seconds or len(latencies) < MIN_JOBS:
        for job in plan.rounds[r % len(plan.rounds)]:
            w, scaled = runner.run(job)
            wall.append(w)
            latencies.append(scaled)
        busy = sum(wall)
        r += 1
        if len(setup.times) < SETUP_REPEATS and busy >= seconds * len(setup.times) / SETUP_REPEATS:
            setup()
        if busy > MAX_TIMED_S:
            break
    while len(setup.times) < SETUP_REPEATS:
        setup()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return _timings(setup.times, latencies, rss), _timings(setup.wall, wall, rss)


def _timings(setups: list[float], latencies: list[float], rss: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1000 * percentile(latencies, 50),
        "job_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": rss,
    }


def traced_run(runner: Runner, plan, package, trace_path: Path) -> dict:
    for job in plan.rounds[0]:
        runner.run(job)
    jobs = [job for rnd in plan.rounds for job in rnd]
    untraced = sum(runner.run(job)[1] for job in jobs)

    t = tracing.Tracer()
    t.install(package)
    t.active = True
    traced = 0.0
    try:
        for i, job in enumerate(jobs):
            t.current_job = i
            traced += runner.run(job, t.paused)[1]
    finally:
        t.active = False
        t.uninstall()
    if t.failures:
        raise BenchError("analytic-count check failed: " + "; ".join(t.failures[:5]))
    metrics = t.metrics()
    metrics.update({
        "trace.jobs": len(jobs),
        "trace.jobs_per_s_untraced": len(jobs) / untraced,
        "trace.jobs_per_s_traced": len(jobs) / traced,
        "trace.overhead_frac": traced / untraced - 1,
    })
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    t.write(trace_path)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # jobs name their code files by paths relative to the root
    if not (ROOT / "src" / "listlab" / "cli.py").is_file():
        print(f"error: no listlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        expected = load_expected(args.workload)
        plan = workloads.plan(args.workload, args.seed)
        speed = SpeedProbe()
        setup = Setup(plan, args.workload, speed)
        setup()  # the jobs read the code files it writes
        sys.path.insert(0, str(ROOT / "src"))
        import listlab
        import listlab.cli

        runner = Runner(listlab.cli, expected, speed)
        if args.trace:
            trace_path = ROOT / workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.tsv"
            values = traced_run(runner, plan, listlab, trace_path)
            units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        else:
            values, wall = timed_run(runner, plan, args.seconds, setup)
            units = END_TO_END
            print("unscaled wall-clock: " + json.dumps({
                **wall, "reference_loop_median_s": statistics.median(speed.samples),
                "reference_loop_idle_s": REF_PROBE_S,
            }))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
