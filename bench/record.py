"""Record the expected exit code and canonical digest of every pool job.

    python3 bench/record.py [workload ...]

Writes bench/expected.json from the current sources. Run it only when a
change to listlab is meant to change canonical output, and say so in that
change. Each job runs twice and must give the same digest; the script stops
on an exit code other than 0 or 1 (the benchmark's workloads have no failing
operations) and on a pool job that misses the property its workload is
built around. It also prints each job class's median latency.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

import run as bench
import workloads


def _assert_shape(workload: str, job, rc: int, doc: dict) -> None:
    results = doc["results"]
    cmd = job.argv[:2]
    if workload == "scan" and cmd == ("oracle", "check"):
        assert results["certificate"]["verdict"] == "decodable", job.id
    if workload == "scan" and cmd == ("plurality", "Q"):
        assert results["mass"]["route"] == "scan", job.id
    if workload == "subsets" and cmd == ("plurality", "Q"):
        assert results["mass"]["route"] == "subsets", job.id
    if workload == "subsets" and cmd == ("chain", "mc"):
        assert results["concentration"]["mode"] == "exact", job.id
    if workload == "sweep" and cmd == ("oracle", "check"):
        assert results["certificate"]["verdict"] == "violated", job.id
    if job.argv[:2] == ("code", "make") and workload == "subsets":
        info = results["info"]
        assert info["rank"] == info["rows"], f"rank-deficient pool code {job.id}"


def record(workload: str, cli) -> dict:
    jobs = workloads.pool_jobs(workload)
    codes = sorted({(v.code_path, v.make_argv) for _, v in jobs if v.code_path})
    plan = workloads.Plan(rounds=(), codes=tuple(codes))
    manifest = bench.write_manifest(plan, f"manifest-record-{workload}.json")
    subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "setup_codes.py"), str(bench.ROOT / "src"),
         str(manifest)], cwd=bench.ROOT, check=True,
    )
    for path, argv in codes:
        rc, _, out, _ = bench.run_job(cli, argv)
        _assert_shape(workload, workloads.Job(path, argv), rc, json.loads(out))

    expected = {}
    times = defaultdict(list)
    for job, _ in jobs:
        digests = []
        for _ in range(2):
            rc, elapsed, out, error = bench.run_job(cli, job.argv)
            if rc not in (0, 1):
                raise SystemExit(f"{job.id} exited {rc}: {error}")
            doc = json.loads(out)
            digests.append(bench.canonical_digest(doc))
            times[job.id.split("/")[0]].append(elapsed)
        if digests[0] != digests[1]:
            raise SystemExit(f"{job.id}: canonical region differs between two runs")
        _assert_shape(workload, job, rc, doc)
        expected[job.id] = {"rc": rc, "sha256": digests[0]}
    for cls, ts in sorted(times.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"{workload:8s} {cls:32s} {1000 * statistics.median(ts):9.1f} ms", file=sys.stderr)
    return expected


def main() -> int:
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.ROOT / "src"))
    import listlab.cli

    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    current = {}
    if bench.EXPECTED_PATH.exists():
        current = json.loads(bench.EXPECTED_PATH.read_text(encoding="utf-8"))
    for name in names:
        current[name] = record(name, listlab.cli)
    bench.EXPECTED_PATH.write_text(
        json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
