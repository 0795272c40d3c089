"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single "C<k>: PASS - <measured detail>" line (shown with
pytest -s; on failure the line says FAIL and the assertion carries the same
detail). The pytest -v status per test is the official verdict. Statistical
criteria state their tolerated miss counts inline; exhaustive criteria allow
zero violations. Runtime-capped criteria measure and assert their own wall
time.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from listlab.bounds import (
    ConstantsConfig,
    johnson_agreement_bound_eps,
    root_bound_exceeded,
)
from listlab.chaining import (
    build_nets,
    chain_params,
    gaussian_process_sample,
    net_invariant_violations,
    symmetrization_check,
)
from listlab.cli import main as cli_main
from listlab.galois import field_new
from listlab.harness import experiment_beyond_johnson
from listlab.linear_code import LinearCode, hadamard_code, rs_code
from listlab.oracle import (
    DECODABLE,
    VIOLATED,
    ListDecQuery,
    certificate_from_json,
    certificate_to_json,
    is_avg_radius_list_decodable,
    is_list_decodable,
)
from listlab.plurality import (
    CodeFamily,
    MessageSet,
    max_agreement_sum,
    plurality_profile,
)
from listlab.reports import canonical_bytes


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


_Z_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _all_received(q: int, n: int) -> np.ndarray:
    key = (q, n)
    if key not in _Z_CACHE:
        _Z_CACHE[key] = np.array(
            list(itertools.product(range(q), repeat=n)), dtype=np.int16
        )
    return _Z_CACHE[key]


# -- criterion 1: agreement bounds, exhaustive at tiny scale ---------------------


def test_c01_agreement_bounds_exhaustive_small():
    """Both agreement bounds hold for every codeword subset and received word.

    For each random 2-row code: every subset of up to 4 distinct codewords,
    every received word, the slack-parameter bound at eps in {1/4, 1/2, 3/4}
    and the square-root bound. All comparisons run in exact integer
    arithmetic; the vectorized forms are cross-checked against the library
    functions on a thin sample of subsets.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    eps_grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    codes = 0
    subsets_checked = 0
    cross_checks = 0
    for q in (2, 3, 5):
        field = field_new(q)
        for n in (2, 3, 4):
            received = _all_received(q, n)
            for _ in range(23):
                gen = rng.integers(0, q, size=(2, n))
                code = LinearCode(field, gen)
                words = np.unique(code.codeword_matrix(), axis=0)
                n_words = words.shape[0]
                agr = (received[:, None, :] == words[None, :, :]).sum(
                    axis=2, dtype=np.int32
                )
                dist = n - (words[:, None, :] == words[None, :, :]).sum(axis=2)
                for size in range(1, min(4, n_words) + 1):
                    subs = np.array(
                        list(itertools.combinations(range(n_words), size)),
                        dtype=np.int64,
                    )
                    agr_max = np.empty(len(subs), dtype=np.int64)
                    for lo in range(0, len(subs), 2048):
                        blk = subs[lo : lo + 2048]
                        agr_max[lo : lo + len(blk)] = (
                            agr[:, blk].sum(axis=2).max(axis=0)
                        )
                    sd_int = dist[subs[:, :, None], subs[:, None, :]].sum(axis=(1, 2))
                    # square-root bound: S <= (n + sqrt(r))/2 with
                    # r = n^2 + 4n^2 L(L-1) - 4n * (integer pair-distance sum)
                    lhs = 2 * agr_max - n
                    radicand = n * n + 4 * n * n * size * (size - 1) - 4 * n * sd_int
                    root_viol = (lhs > 0) & (lhs * lhs > radicand)
                    assert not root_viol.any(), (q, n, size)
                    # slack bound is affine in the pair-distance sum:
                    # bound(sd) = b0 - sd * slope, compared over a common
                    # denominator so the check stays exact
                    for eps in eps_grid:
                        b0 = johnson_agreement_bound_eps(n, q, size, eps, Fraction(0))
                        if size > 1:
                            slope = (
                                b0
                                - johnson_agreement_bound_eps(
                                    n, q, size, eps, Fraction(1)
                                )
                            ) / n
                        else:
                            slope = Fraction(0)
                        den = math.lcm(b0.denominator, slope.denominator)
                        ok = agr_max * den <= int(b0 * den) - sd_int * int(slope * den)
                        assert ok.all(), (q, n, size, eps)
                    step = max(1, len(subs) // 7)
                    for idx in range(0, len(subs), step):
                        assert not root_bound_exceeded(
                            n, size, Fraction(int(sd_int[idx]), n), int(agr_max[idx])
                        )
                        cross_checks += 1
                    subsets_checked += len(subs)
                codes += 1
    elapsed = time.perf_counter() - start
    _report(
        "C1",
        codes >= 200 and elapsed < 60.0,
        f"{codes} codes, {subsets_checked} subsets x all received words x "
        f"3 eps values, 0 violations, {cross_checks} library cross-checks, "
        f"{elapsed:.1f}s (< 60s)",
    )


# -- criteria 2/3 share one instance pool ----------------------------------------


@pytest.fixture(scope="module")
def identity_instances():
    rng = np.random.default_rng(202)
    max_n = {2: 12, 3: 7, 4: 6, 5: 5}
    instances = []
    while len(instances) < 500:
        q = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(2, max_n[q] + 1))
        k = int(rng.integers(1, 4))
        code = LinearCode(field_new(q), rng.integers(0, q, size=(k, n)))
        n_msgs = q**k
        lam_size = int(rng.integers(1, min(5, n_msgs) + 1))
        picks = sorted(rng.choice(n_msgs, size=lam_size, replace=False).tolist())
        lam = MessageSet.from_indices(q, k, picks)
        instances.append((code, lam))
    return instances


def test_c02_plurality_identity_exact(identity_instances):
    """max_agreement_sum equals the brute-force maximum over all received
    words, and both equal the summed per-coordinate plurality counts."""
    start = time.perf_counter()
    matches = 0
    for code, lam in identity_instances:
        q, n = code.field.q, code.n
        words = code.encode_all(lam.messages).astype(np.int16)
        received = _all_received(q, n)
        per_word = (received[:, None, :] == words[None, :, :]).sum(axis=(1, 2))
        brute = int(per_word.max())
        total, witness = max_agreement_sum(code, lam)
        counts_sum = sum(plurality_profile(code, lam).counts)
        assert total == brute == counts_sum
        witness_total = sum(
            int((np.array(witness, dtype=np.int16) == w).sum()) for w in words
        )
        assert witness_total == total
        matches += 1
    elapsed = time.perf_counter() - start
    _report(
        "C2",
        matches == 500 and elapsed < 60.0,
        f"{matches}/500 instances match the brute-force maximum exactly, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_c03_small_agreement_implies_decodable(identity_instances):
    """Whenever no L distinct codewords can jointly reach total agreement
    n*L*(1/q + eps) with any received word, the exhaustive standard oracle
    confirms (1 - 1/q - eps, L-1)-decodability.

    Soundness: a standard violation at that radius needs L codewords each
    agreeing on at least n*(1 - rho) coordinates, so their total agreement
    would reach the threshold; if the top-L scan stays strictly below it, no
    such configuration exists.
    """
    eps_grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    confirmed = 0
    scanned = 0
    for code, lam in identity_instances:
        q, n = code.field.q, code.n
        lam_size = len(lam)
        words = np.unique(code.codeword_matrix(), axis=0)
        if words.shape[0] < lam_size:
            continue
        received = _all_received(q, n)
        agr = (received[:, None, :] == words[None, :, :]).sum(axis=2)
        if lam_size < words.shape[0]:
            top = np.partition(agr, words.shape[0] - lam_size, axis=1)[:, -lam_size:]
        else:
            top = agr
        scan = int(top.sum(axis=1).max())
        scanned += 1
        for eps in eps_grid:
            rho = 1 - Fraction(1, q) - eps
            if rho < 0:
                continue
            if Fraction(scan) < n * lam_size * (Fraction(1, q) + eps):
                cert = is_list_decodable(
                    code, ListDecQuery(rho, lam_size - 1, "standard")
                )
                assert cert.verdict == DECODABLE, (q, n, lam_size, eps)
                confirmed += 1
    _report(
        "C3",
        confirmed > 0,
        f"{confirmed} threshold-triggered oracle confirmations across "
        f"{scanned} scanned instances, 0 counterexamples",
    )


# -- criterion 4: exact distance of evaluation codes -----------------------------


def test_c04_rs_exact_distance():
    rng = np.random.default_rng(404)
    done = 0
    for _ in range(100):
        q = int(rng.choice([5, 7]))
        k = int(rng.choice([2, 3]))
        n = int(rng.integers(k, q + 1))
        evals = tuple(int(e) for e in rng.choice(q, size=n, replace=False))
        code = rs_code(field_new(q), k, evals)
        assert code.min_distance_exact() == 1 - Fraction(k - 1, n), (q, k, evals)
        done += 1
    _report("C4", done == 100, f"{done}/100 evaluation subsets at distance exactly 1-(k-1)/n")


# -- criterion 5: oracle self-consistency ----------------------------------------


def test_c05_average_implies_standard_and_certificates():
    """Average-radius decodable implies standard decodable at the same
    (rho, L); every verdict re-verifies from its stored witness, violations
    additionally after a JSON round trip. Radii are odd multiples of 1/(2n)
    so the ball boundary never sits on an integer distance."""
    rng = np.random.default_rng(505)
    avg_decodable = 0
    violations = 0
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        code = LinearCode(field_new(q), rng.integers(0, q, size=(2, n)))
        rho = Fraction(2 * int(rng.integers(0, n)) + 1, 2 * n)
        list_bound = int(rng.integers(1, 4))
        cert_avg = is_avg_radius_list_decodable(
            code, ListDecQuery(rho, list_bound, "average-radius")
        )
        cert_std = is_list_decodable(code, ListDecQuery(rho, list_bound, "standard"))
        if cert_avg.verdict == DECODABLE:
            avg_decodable += 1
            assert cert_std.verdict == DECODABLE, (q, n, rho, list_bound)
        for cert in (cert_avg, cert_std):
            assert cert.verify()
            if cert.verdict == VIOLATED:
                assert certificate_from_json(certificate_to_json(cert)).verify()
                violations += 1
    _report(
        "C5",
        avg_decodable > 0 and violations > 0,
        f"200 instances: {avg_decodable} average-radius-decodable verdicts all "
        f"confirmed standard, {violations} violation certificates re-verified, "
        f"0 failures",
    )


# -- criterion 6: chaining net postconditions ------------------------------------


def test_c06_chaining_net_postconditions():
    """100 accepted net builds at list size 64 over the GF(3) length-243
    Hadamard code: plurality-mass budget, set-size bracket, containment, and
    the Hoelder step bound hold on every level; the per-run minimal width
    constant stays at most 50 (calibration target, not a proven bound)."""
    start = time.perf_counter()
    code = hadamard_code(field_new(3), 5)
    lam = MessageSet.from_indices(3, 5, range(64))
    params = chain_params(64, eta=0.5)
    c4_configured = ConstantsConfig().C4
    accepted = 0
    attempts = 0
    worst_c4 = 0.0
    seed = 0
    while accepted < 100:
        result = build_nets(code, lam, seed=seed, params=params)
        seed += 1
        attempts += 1
        assert attempts <= 120, "too many rejected builds"
        if not result.success:
            continue
        accepted += 1
        assert net_invariant_violations(result) == ()
        assert len(result.levels) == params.t_max + 1
        for level in result.levels:
            t = level.level
            budget = params.q_bound(result.q_base, t)
            assert float(level.pl_sum) <= budget * (1 + 1e-12)
            bracket = 64 * (0.5**t)
            assert (1 - params.eta) ** t * bracket - 1e-9 <= level.lam_size
            assert level.lam_size <= (1 + params.eta) ** t * bracket + 1e-9
            if t == 0:
                continue
            prev = result.levels[t - 1]
            assert set(level.coords) <= set(prev.coords)
            assert set(level.lam) <= set(prev.lam)
            assert level.holder_lhs <= level.holder_rhs * (1 + 1e-12)
            unit = level.width_rhs / c4_configured
            assert level.step_distance <= result.min_sufficient_c4 * unit * (1 + 1e-9)
        worst_c4 = max(worst_c4, result.min_sufficient_c4)
    elapsed = time.perf_counter() - start
    _report(
        "C6",
        accepted == 100 and worst_c4 <= 50.0 and elapsed < 300.0,
        f"{accepted}/100 accepted builds ({attempts} attempts), all levels "
        f"clean, max minimal width constant {worst_c4:.3f} <= 50, "
        f"{elapsed:.1f}s (< 300s)",
    )


# -- criterion 7: symmetrization comparisons -------------------------------------


def test_c07_symmetrization_comparisons():
    """Centered deviation vs Rademacher vs Gaussian comparisons on 20
    sampled-code instances; at most 1 combined statistical miss tolerated."""
    combos = [
        ("sampled-hadamard", 3, 2, 6, 3),
        ("sampled-rs", 5, 2, 5, 3),
        ("sampled-rs", 7, 2, 6, 4),
        ("sampled-hadamard", 2, 3, 5, 4),
    ]
    misses = 0
    instance = 0
    for repeat in range(5):
        for kind, q, k, n, lam_size in combos:
            family = CodeFamily(kind, field=field_new(q), k=k, n=n)
            rep = symmetrization_check(
                family,
                lam_size,
                trials=120,
                seed=700 + instance,
                n_candidates=6,
            )
            if not (rep.deviation_vs_rademacher_ok and rep.rademacher_vs_gaussian_ok):
                misses += 1
            instance += 1
    _report(
        "C7",
        instance == 20 and misses <= 1,
        f"20 instances, {misses} statistical miss(es) (tolerance 1): "
        f"D <= 2R + 3SE and R <= sqrt(pi/2) G + 3SE",
    )


# -- criterion 8: variance exactness ---------------------------------------------


def test_c08_gaussian_variance_exactness():
    """Empirical variance of the weighted Gaussian sum matches the analytic
    sum of squared pluralities within 5 standard errors at 10^4 trials on 50
    (coordinate set, codeword set) instances; at most 2 misses tolerated."""
    rng = np.random.default_rng(808)
    codes = [
        rs_code(field_new(5), 2, (0, 1, 2, 3, 4)),
        hadamard_code(field_new(3), 3),
        rs_code(field_new(7), 3, (1, 2, 3, 4, 5, 6)),
    ]
    pairs_per_code = [[] for _ in codes]
    for i in range(50):
        which = i % len(codes)
        code = codes[which]
        q, k, n = code.field.q, code.k, code.n
        lam_size = int(rng.integers(1, 5))
        picks = sorted(rng.choice(q**k, size=lam_size, replace=False).tolist())
        lam = MessageSet.from_indices(q, k, picks)
        m = int(rng.integers(1, n + 1))
        coords = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        pairs_per_code[which].append((coords, lam))
    misses = 0
    checked = 0
    for which, code in enumerate(codes):
        rep = gaussian_process_sample(
            code, pairs_per_code[which], trials=10_000, seed=800 + which
        )
        for i in range(rep.pair_count):
            gap = abs(rep.empirical_variances[i] - float(rep.variances_exact[i]))
            if gap > 5 * rep.variance_standard_error(i):
                misses += 1
            checked += 1
    _report(
        "C8",
        checked == 50 and misses <= 2,
        f"{checked} instances at 10^4 trials, {misses} miss(es) beyond 5 SE "
        f"(tolerance 2)",
    )


# -- criterion 9: profile table reproducibility ----------------------------------


def test_c09_beyond_johnson_reproducibility():
    """The q=7, k=2, n=5 random-evaluation profile table is exactly
    reproducible: each call recomputes its table twice internally, and two
    independent calls agree byte for byte. The report must carry the
    small-scale disclaimer rather than claim a radius separation."""
    first = experiment_beyond_johnson(q=7, k=2, n=5, l_cap=6, n_seeds=20, seed=0)
    second = experiment_beyond_johnson(q=7, k=2, n=5, l_cap=6, n_seeds=20, seed=0)
    assert first.measurements["rerun_identical"]
    assert second.measurements["rerun_identical"]
    assert first.measurements["results_sha256"] == second.measurements["results_sha256"]
    assert first.as_dict() == second.as_dict()
    rows = first.measurements["rows"]
    assert len(rows) == 20
    for row in rows:
        assert row["standard_radii"] and row["johnson_radius"]
    note = first.verdicts["note"]
    assert "not expected to be visible" in note
    _report(
        "C9",
        True,
        "20 seeds byte-identical across internal rerun and independent call "
        "(sha256 match), small-scale disclaimer present",
    )


# -- criterion 10: CLI determinism -----------------------------------------------


def test_c10_cli_determinism(tmp_path):
    """One command per subcommand family, run twice with the same seed: the
    canonical JSON region (everything but wall-clock metadata) is
    byte-identical."""
    code_path = tmp_path / "rs.json"
    assert cli_main([
        "code", "make", "--kind", "rs", "--q", "5", "--k", "2",
        "--evals", "0,1,2,3", "--out", str(code_path),
    ]) == 0
    had_path = tmp_path / "had.json"
    assert cli_main([
        "code", "make", "--kind", "hadamard", "--q", "3", "--k", "5",
        "--out", str(had_path),
    ]) == 0
    commands = {
        "field": ["field", "--q", "16"],
        "code": ["code", "make", "--kind", "sample-rs", "--q", "7", "--k", "2",
                 "--n", "6", "--seed", "3"],
        "oracle": ["oracle", "profile", "--code", str(code_path),
                   "--max-list-size", "4"],
        "bounds": ["bounds", "table", "--q-grid", "2,1048576",
                   "--eps-grid", "1/4,2/5"],
        "plurality": ["plurality", "Q", "--code", str(code_path),
                      "--list-size", "3"],
        "chain": ["chain", "build", "--code", str(had_path), "--list-size", "64",
                  "--eta", "0.5", "--seed", "7"],
        "experiment": ["experiment", "corollary", "--variant", "small-q",
                       "--q", "5", "--eps", "1/2", "--k", "2", "--draws", "5",
                       "--n", "4", "--seed", "11"],
        "suite": ["suite", "--scope", "galois"],
    }
    identical = 0
    for family, argv in commands.items():
        regions = []
        for attempt in range(2):
            out = tmp_path / f"{family}-{attempt}.json"
            assert cli_main(argv + ["--out", str(out)]) == 0, family
            regions.append(canonical_bytes(json.loads(out.read_text())))
        assert regions[0] == regions[1], family
        identical += 1
    _report(
        "C10",
        identical == len(commands),
        f"{identical}/{len(commands)} subcommand families byte-identical "
        f"across consecutive seeded runs",
    )
