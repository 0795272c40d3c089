"""Tests of the benchmark itself: job generation, self time, percentiles, tracing.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _write_codes(plan, cwd: Path) -> dict[str, str]:
    (cwd / workloads.CODE_DIR).mkdir(parents=True)
    manifest = cwd / "manifest.json"
    manifest.write_text(json.dumps([[p, list(a)] for p, a in plan.codes]))
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_codes.py"), str(ROOT / "src"), str(manifest)],
        cwd=cwd, check=True,
    )
    return {
        p: hashlib.sha256((cwd / p).read_bytes()).hexdigest() for p, _ in plan.codes
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    a, b, c = (workloads.plan(workload, s) for s in (7, 7, 8))
    assert a == b
    assert a.rounds != c.rounds
    assert len(a.rounds) == workloads.RUN_VARIANTS
    assert all(len(r) == len(a.rounds[0]) for r in a.rounds)


def test_subset_workload_sizes_take_the_subset_route():
    # plurality_mass enumerates subsets when C(N, L) fits the default budget
    # and is below the scan cost q^n * N (all pool codes have full rank)
    for name, (q, k, n) in workloads.SUBSET_CODES.items():
        sizes = [workloads.SUBSET_Q_LIST_SIZE[name]]
        if name in workloads.SUBSET_AVG_LIST_BOUND:
            sizes.append(workloads.SUBSET_AVG_LIST_BOUND[name] + 1)
        for L in sizes:
            count = math.comb(q**k, L)
            assert count <= 1 << 22 and count < q**n * q**k, (name, L)


def test_scan_workload_sizes_take_the_scan_route():
    # RS codes with k = 2 have N = q^2 codewords; the subset route is out of
    # budget and no cheaper than the scan
    for (q, n), L in workloads.SCAN_Q_LIST_SIZE.items():
        count, scan = math.comb(q**2, L), q**n * q**2
        assert scan <= 1 << 28 and (count > 1 << 22 or scan <= count), (q, n, L)


def test_same_seed_byte_identical_code_files(tmp_path):
    plan = workloads.plan("subsets", 3)
    first = _write_codes(plan, tmp_path / "one")
    second = _write_codes(plan, tmp_path / "two")
    assert first == second and len(first) == len(plan.codes)


def test_every_pool_job_has_an_expectation():
    expected = json.loads(run.EXPECTED_PATH.read_text())
    for workload in workloads.WORKLOADS:
        ids = {job.id for job, _ in workloads.pool_jobs(workload)}
        assert ids == set(expected[workload])
        assert {e["rc"] for e in expected[workload].values()} <= {0, 1}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracer.per_layer_metrics()
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_nested_and_overlapping_children():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlaps 1;
    # 3: grandchild [1.5, 2] inside 1; 4: child [9, 12] runs past the root
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = tracer.self_times(start, end, parent)
    want = [10 - (5 + 1), 3 - 0.5, 3, 0.5, 3]
    assert got == pytest.approx(want)


def test_self_time_ignores_span_order():
    start = [5.0, 0.0, 2.0]
    end = [6.0, 10.0, 7.0]
    parent = [1, -1, 1]  # children listed out of start order
    assert tracer.self_times(start, end, parent) == pytest.approx([1.0, 5.0, 5.0])


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    with pytest.raises(run.BenchError):
        run.percentile(values[:99], 90)
    assert run.percentile(list(range(1, 111)), 90) == 99
    with pytest.raises(run.BenchError):
        run.percentile(list(range(1, 20)), 50)


def test_speed_probe_scales_by_the_loop_times_around_a_timing():
    loop_times = iter([run.REF_PROBE_S, 3 * run.REF_PROBE_S, 2 * run.REF_PROBE_S])
    speed = run.SpeedProbe(measure=lambda: next(loop_times))
    # loop at 1x before and 3x after: the CPU ran at half speed on average
    assert speed.adjust(0.4) == pytest.approx(0.2)
    # 3x before, 2x after
    assert speed.adjust(0.5) == pytest.approx(0.2)
    assert speed.samples == pytest.approx([run.REF_PROBE_S * f for f in (1, 3, 2)])


def test_speed_probe_reference_loop_runs():
    speed = run.SpeedProbe()
    assert speed.last > 0
    assert speed.adjust(1.0) > 0


def test_traced_run_keeps_outputs_and_counts_work(tmp_path):
    import listlab
    import listlab.cli
    from listlab.reports import canonical_bytes

    code = str(tmp_path / "rs.json")
    jobs = [
        ["oracle", "profile", "--code", code, "--max-list-size", "2"],
        ["oracle", "check", "--code", code, "--radius", "1/5", "--list-bound", "1"],
        ["plurality", "Q", "--code", code, "--list-size", "3"],
        ["plurality", "Q", "--code", code, "--list-size", "6"],  # C(25, 6) > 5^5 * 25: scan route
        ["chain", "mc", "--check", "concentration", "--code", code, "--list-size", "4"],
    ]
    rc, *_ = run.run_job(listlab.cli, ["code", "make", "--kind", "rs", "--q", "5", "--k",
                                       "2", "--evals", "0,1,2,3,4", "--out", code])
    assert rc == 0
    plain = [run.run_job(listlab.cli, argv) for argv in jobs]
    original = listlab.plurality.agreement_block
    t = tracer.Tracer()
    t.install(listlab)
    t.active = True
    try:
        traced = [run.run_job(listlab.cli, argv) for argv in jobs]
    finally:
        t.active = False
        t.uninstall()
    assert listlab.plurality.agreement_block is original
    assert listlab.oracle.agreement_block is original
    assert "sum" not in vars(listlab.plurality)
    for (rc1, _, out1, _), (rc2, _, out2, _) in zip(plain, traced):
        assert rc1 == rc2 == 0
        assert canonical_bytes(json.loads(out1)) == canonical_bytes(json.loads(out2))
    assert t.failures == []
    m = t.metrics()
    assert m["plurality.received_words"] == 3 * 5**5
    assert m["oracle.scan_fraction"] == 1
    assert m["plurality.subsets_visited"] == math.comb(25, 3)
    assert m["chaining.concentration_subsets"] == 2**4 - 1
    assert m["plurality.plurality_mass.scan.self_s"] > 0
    assert m["plurality.top_agreement_scan.self_s"] > 0
    assert m["cli.main.self_s"] > 0
    assert sum(m[f"share.module.{mod}"] for mod in tracer.MODULES) == pytest.approx(1)


def test_analytic_check_flags_a_short_scan():
    import listlab.linear_code as lc
    from listlab.galois import field_new

    code = lc.rs_code(field_new(5), 2, [0, 1, 2])
    t = tracer.Tracer()
    after = tracer._profile_scan(t, (code, 2), {})
    t.counts["plurality.received_words"] += 5**3 - 1
    after(None, 0)
    assert t.failures and "q^n = 125" in t.failures[0]
