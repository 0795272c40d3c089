"""Experiment orchestration: desk-scale decodability experiments for sampled
codes, the small Reed-Solomon radius-profile demonstration, and the invariant
suite that re-runs every module's checkable properties.

Experiments are deterministic in (parameters, seed): draws use per-index
child seeds, aggregation is order-independent, and wall-clock time is kept
out of the reproducible region of every report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .bounds import (
    corollary_list_size,
    decodable_blocklength,
    is_large_q,
    johnson_agreement_bound_eps,
    q_ary_entropy,
    root_bound_exceeded,
)
from .chaining import (
    build_nets,
    chain_params,
    concentration_check,
    gaussian_process_sample,
    net_invariant_violations,
    symmetrization_check,
)
from .config import Budgets, ConstantsConfig
from .galois import check_field_order, field_new
from .linear_code import (
    LinearCode,
    code_from_json,
    code_to_json,
    hadamard_code,
    rs_code,
    sample_code,
)
from .oracle import (
    AVERAGE_RADIUS,
    DECODABLE,
    STANDARD,
    VIOLATED,
    ListDecQuery,
    certificate_from_json,
    certificate_to_json,
    decoding_radius_profile,
    is_avg_radius_list_decodable,
    is_list_decodable,
)
from .plurality import (
    CodeFamily,
    MessageSet,
    max_agreement_sum,
    plurality_mass,
    top_agreement_scan,
)
from .reports import Record, build_report, canonical_bytes
from .seeds import child_seed, rng_for


@dataclass(frozen=True)
class ExperimentReport(Record):
    """One experiment's outcome, all of it reproducible."""

    name: str
    params: dict
    measurements: dict
    bounds: dict
    verdicts: dict


SMALL_Q = "small-q"
LARGE_Q = "large-q"
# draws of the sampled plurality mass that stands in for an infeasible exact
# oracle when a corollary run allows it
SAMPLED_MASS_TRIALS = 500


def experiment_corollary(
    variant: str,
    q: int,
    eps,
    k: int,
    draws: int = 50,
    cfg: ConstantsConfig = ConstantsConfig(),
    seed: int = 0,
    *,
    budgets: Budgets = Budgets(),
    n_override: int | None = None,
    allow_sampled: bool = False,
    require_success_rate: float | None = None,
) -> ExperimentReport:
    """Sample codes from a good parent and measure how often the
    average-radius oracle accepts them at the predicted radius and list size.

    small-q: Hadamard parent (distance exactly 1 - 1/q), decoding radius
    1 - 1/q - (2 + sqrt(2)) * eps, list size ceil(2 / eps^2). large-q:
    full-evaluation Reed-Solomon parent, which needs q > 1/eps^2 and
    k - 1 <= eps^2 q so its distance is at least 1 - eps^2; radius
    1 - 5 eps, list size ceil(1 / eps). The block length comes from the
    rate formulas unless overridden. A radius that lands below zero is
    clamped to zero and flagged (the claim degenerates but stays checkable).
    The success fraction is reported, not asserted, unless a required rate
    is given. With `allow_sampled`, a draw whose `mass_route` is "sampled"
    is decided by a sampled mass, and the report's oracle reads "sampled".
    """
    check_field_order(q)  # before 1/q; field_new below also refuses non-prime-powers
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if draws < 1:
        raise ValueError("need at least one draw")
    if require_success_rate is not None and not 0 <= require_success_rate <= 1:
        raise ValueError(f"required success rate must lie in [0, 1], got {require_success_rate}")
    if eps >= 1 - Fraction(1, q):
        raise ValueError(f"eps = {eps} at or above 1 - 1/q leaves no radius")
    if variant == SMALL_Q:
        rho_raw = 1 - 1 / q - (2 + math.sqrt(2)) * float(eps)
    elif variant == LARGE_Q:
        if not is_large_q(q, eps):
            raise ValueError(f"large-q variant needs q > 1/eps^2, got q = {q}")
        if k - 1 > eps * eps * q:
            raise ValueError(
                f"k - 1 = {k - 1} exceeds eps^2 q = {float(eps * eps * q)}; "
                "parent distance would drop below 1 - eps^2"
            )
        rho_raw = 1 - 5 * float(eps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    L = corollary_list_size(variant, eps)
    n = n_override if n_override is not None else decodable_blocklength(q, eps, variant, k, cfg)
    kind = "sampled-hadamard" if variant == SMALL_Q else "sampled-rs"
    family = CodeFamily(kind, field=field_new(q), k=k, n=n)
    degenerate_radius = rho_raw < 0
    rho = Fraction(max(rho_raw, 0.0))
    query = ListDecQuery(rho, L, AVERAGE_RADIUS)

    successes = 0
    oracle_mode = "exhaustive"
    verdicts = []
    for i, cols in enumerate(family.columns(seed, range(draws))):
        code = family.code_on(cols)
        if allow_sampled and budgets.mass_route(code, L + 1, sampled=True) == "sampled":
            oracle_mode = "sampled"
            mass = plurality_mass(
                code, L + 1, "sampled", trials=SAMPLED_MASS_TRIALS, seed=child_seed(seed, i, 1),
                budgets=budgets,
            )
            verdict = VIOLATED if mass.value * (L + 1) > query.most_agreement(n) else DECODABLE
        else:
            verdict = is_avg_radius_list_decodable(code, query, budgets=budgets).verdict
        verdicts.append(verdict)
        successes += verdict == DECODABLE
    frac = successes / draws
    se = math.sqrt(frac * (1 - frac) / draws)
    verdict_block = {"per_draw": verdicts}
    if require_success_rate is not None:
        verdict_block["required_rate"] = require_success_rate
        verdict_block["passed"] = frac >= require_success_rate
    return ExperimentReport(
        name="corollary",
        params={
            "variant": variant,
            "q": q,
            "eps": str(eps),
            "k": k,
            "draws": draws,
            "seed": seed,
            "n": n,
            "n_overridden": n_override is not None,
            "constants": cfg.as_dict(),
        },
        measurements={
            "successes": successes,
            "success_fraction": frac,
            "standard_error": se,
            "oracle": oracle_mode,
        },
        bounds={
            "list_size": L,
            "radius": str(rho),
            "radius_raw": rho_raw,
            "degenerate_radius": degenerate_radius,
            "parent_kind": "hadamard" if variant == SMALL_Q else "full-rs",
        },
        verdicts=verdict_block,
    )


def johnson_radius_from_distance(q: int, delta: Fraction) -> tuple[float, bool]:
    """The list-decoding radius the distance alone promises: a code at
    distance 1 - 1/q - eps^2 decodes to 1 - 1/q - eps. Distances beyond
    1 - 1/q clamp the promise at 1 - 1/q (flagged)."""
    beta = 1 - 1 / q
    gap = beta - float(delta)
    if gap <= 0:
        return beta, True
    return beta - math.sqrt(gap), False


SCALE_NOTE = (
    "Small-scale demonstration: at this block length the asymptotic gap over "
    "the distance-based radius is not expected to be visible; the reproducible "
    "artifact is the exact per-seed profile table itself."
)


def experiment_beyond_johnson(
    q: int = 7,
    k: int = 2,
    n: int = 5,
    l_cap: int = 6,
    n_seeds: int = 20,
    seed: int = 0,
    *,
    rho_grid: list | None = None,
    budgets: Budgets = Budgets(),
) -> ExperimentReport:
    """Exact decoding-radius profiles of Reed-Solomon codes with random
    evaluation points, next to the distance-implied radius.

    Per seed: draw n evaluation points with replacement, compute the exact
    profile for list sizes 1..l_cap and the exact minimum distance, and mark
    profile entries that exceed the distance-implied radius. The whole table
    is computed twice and the report records that the re-run was
    byte-identical, plus a sha256 of the reproducible region.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    family = CodeFamily("sampled-rs", field=field_new(q), k=k, n=n)

    def one_pass() -> list[dict]:
        rows = []
        for s, cols in enumerate(family.columns(seed, range(n_seeds))):
            code = family.code_on(cols)
            profile = decoding_radius_profile(code, l_cap, budgets=budgets)
            delta = code.min_distance_exact(budgets=budgets)
            johnson, clamped = johnson_radius_from_distance(q, delta)
            row = {
                "seed_index": s,
                # the full-RS parent evaluates its column c at the point c
                "evaluation_points": cols.tolist(),
                "distance": str(delta),
                "johnson_radius": johnson,
                "johnson_clamped": clamped,
                "standard_radii": [str(r.standard_radius) for r in profile],
                "average_radii": [str(r.average_radius) for r in profile],
                "beyond_at": [
                    r.list_size for r in profile if float(r.standard_radius) > johnson
                ],
            }
            if rho_grid is not None:
                reach = []
                for rho in rho_grid:
                    hit = next(
                        (r.list_size for r in profile if r.standard_radius >= Fraction(rho)),
                        None,
                    )
                    reach.append(hit)
                row["grid_first_list_size"] = reach
            rows.append(row)
        return rows

    first = one_pass()
    second = one_pass()
    identical = first == second
    results = {"rows": first, "note": SCALE_NOTE, "rerun_identical": identical}
    digest = hashlib.sha256(
        canonical_bytes(build_report("experiment beyond-johnson", {}, results))
    ).hexdigest()
    beyond_total = sum(len(r["beyond_at"]) for r in first)
    return ExperimentReport(
        name="beyond-johnson",
        params={
            "q": q,
            "k": k,
            "n": n,
            "l_cap": l_cap,
            "n_seeds": n_seeds,
            "seed": seed,
            "rho_grid": None if rho_grid is None else [str(Fraction(r)) for r in rho_grid],
        },
        measurements={
            "rows": first,
            "beyond_entries": beyond_total,
            "rerun_identical": identical,
            "results_sha256": digest,
        },
        bounds={},
        verdicts={"note": SCALE_NOTE},
    )


# -- invariant suite ---------------------------------------------------------------


@dataclass(frozen=True)
class InvariantResult(Record):
    name: str
    module: str
    kind: str  # "exact" | "statistical"
    passed: bool
    details: str


@dataclass(frozen=True)
class SuiteResult(Record):
    scope: str
    seed: int
    entries: tuple[InvariantResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "total": len(self.entries),
            "failed": sum(not e.passed for e in self.entries),
            "all_passed": self.passed,
        }


def _check_field_axioms(seed: int):
    for q in (5, 8):
        f = field_new(q)
        a, b, c = np.indices((q, q, q))
        lhs = f.scale_array(a, f.add_array(b, c))
        rhs = f.add_array(f.scale_array(a, b), f.scale_array(a, c))
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            return False, f"distributivity fails in GF({q}) at {tuple(bad[0].tolist())}"
        units = np.arange(1, q)
        bad = units[f.scale_array(units, np.array([f.inv(u) for u in range(1, q)])) != 1]
        if len(bad):
            return False, f"inverse fails in GF({q}) at {bad[0]}"
    return True, "distributivity and inverses over all of GF(5), GF(8)"


def _check_encode_linearity(seed: int):
    f = field_new(4)
    code = sample_code(hadamard_code(f, 2), 6, seed=child_seed(seed, 1))
    m1, m2 = rng_for(seed, 2).integers(0, 4, size=(2, 20, 2))
    lhs = code.encode_all(f.add_array(m1, m2))
    rhs = f.add_array(code.encode_all(m1), code.encode_all(m2))
    if (lhs != rhs).any():
        return False, "encode not additive on 20 random GF(4) message pairs"
    return True, "encode additive on 20 random GF(4) message pairs"


def _check_serialization(seed: int):
    code = rs_code(field_new(5), 2, [0, 1, 3])
    back = code_from_json(code_to_json(code))
    ok = back.generator == code.generator and back.field.q == 5
    return ok, "round trip preserves generator and field"


def _check_rs_distance(seed: int):
    code = rs_code(field_new(7), 2, [0, 1, 2, 4, 6])
    d = code.min_distance_exact()
    return d == Fraction(4, 5), f"distance {d} vs expected 4/5"


def _check_plurality_identity(seed: int):
    rng = rng_for(seed, 3)
    for trial in range(30):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        f = field_new(q)
        gen = rng.integers(0, q, size=(2, n))
        code = LinearCode(f, gen.tolist())
        size = min(code.size, int(rng.integers(2, 5)))
        lam = MessageSet.from_indices(q, 2, range(size))
        total, _ = max_agreement_sum(code, lam)
        words = code.encode_all(lam.messages)
        best, _ = top_agreement_scan(words, q, len(lam))
        if total != best:
            return False, f"identity fails at trial {trial}"
    return True, "plurality identity on 30 random instances"


def _check_mass_routes(seed: int):
    code = rs_code(field_new(3), 2, [0, 1, 2])
    by_scan = plurality_mass(code, 3, "exact", budgets=Budgets(max_subsets=1))
    by_subsets = plurality_mass(code, 3, "exact", budgets=Budgets(max_received_words=1))
    ok = by_scan.value == by_subsets.value and by_scan.exact and by_subsets.exact
    return ok, f"scan {by_scan.value} vs subsets {by_subsets.value}"


def _check_avg_implies_std(seed: int):
    rng = rng_for(seed, 4)
    checked = 0
    for trial in range(30):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        f = field_new(q)
        code = LinearCode(f, rng.integers(0, q, size=(2, n)).tolist())
        if code.size < 3:
            continue
        L = 2
        rho = Fraction(2 * int(rng.integers(0, n)) + 1, 2 * n)  # never integral * n
        avg = is_avg_radius_list_decodable(code, ListDecQuery(rho, L, AVERAGE_RADIUS))
        if avg.verdict == DECODABLE:
            std = is_list_decodable(code, ListDecQuery(rho, L, STANDARD))
            if std.verdict != DECODABLE:
                return False, f"implication fails at trial {trial}"
            checked += 1
    return checked > 0, f"implication held on {checked} decodable instances"


def _check_certificate_roundtrip(seed: int):
    code = rs_code(field_new(5), 2, [0, 1, 2, 3])
    cert = is_list_decodable(code, ListDecQuery(Fraction(1, 2), 2, STANDARD))
    if cert.verdict != VIOLATED:
        return False, "expected a violated instance"
    back = certificate_from_json(certificate_to_json(cert))
    return back.verify(), "violated certificate re-verified after round trip"


def _check_entropy_concavity(seed: int):
    for q in (2, 5):
        top = 1 - 1 / q
        xs = [top * i / 40 for i in range(1, 40)]
        for x in xs[1:-1]:
            h = top / 40
            mid = q_ary_entropy(q, x)
            if mid < (q_ary_entropy(q, x - h) + q_ary_entropy(q, x + h)) / 2 - 1e-12:
                return False, f"concavity fails at q={q}, x={x}"
    return True, "midpoint concavity on interior grids for q in {2, 5}"


def _check_johnson_small(seed: int):
    rng = rng_for(seed, 5)
    f = field_new(3)
    n = 3
    for trial in range(5):
        code = LinearCode(f, rng.integers(0, 3, size=(2, n)).tolist())
        words = [tuple(int(x) for x in row) for row in code.codeword_matrix()]
        for size in (2, 3):
            for lam in combinations(words, min(size, len(words))):
                pair_sum = Fraction(0)
                for a in lam:
                    for b in lam:
                        if a != b:
                            pair_sum += Fraction(sum(x != y for x, y in zip(a, b)), n)
                agr = max(
                    sum(sum(zi == ci for zi, ci in zip(z, c)) for c in lam)
                    for z in product(range(3), repeat=n)
                )
                if root_bound_exceeded(n, len(lam), pair_sum, agr):
                    return False, f"root bound violated at trial {trial}"
                bound = johnson_agreement_bound_eps(n, 3, len(lam), Fraction(1, 2), pair_sum)
                if Fraction(agr) > bound:
                    return False, f"eps bound violated at trial {trial}"
    return True, "both agreement bounds over 5 random GF(3) codes, all sets, all z"


def _check_spread_identity(seed: int):
    q, epsv = 4, Fraction(1, 2)
    L = int(2 / epsv / epsv)
    n = 8
    pair_sum = L * (L - 1) * (1 - Fraction(1, q) - epsv * epsv / 2)
    rhs = johnson_agreement_bound_eps(n, q, L, epsv, pair_sum)
    target = n * L * (Fraction(1, q) + epsv)
    return rhs <= target, f"spread bound {rhs} vs target {target}"


def _check_net_postconditions(seed: int):
    had = hadamard_code(field_new(3), 5)
    lam = MessageSet.from_indices(3, 5, range(64))
    for s in range(3):
        res = build_nets(had, lam, seed=child_seed(seed, s), params=chain_params(64, eta=0.5))
        if not res.success:
            return False, f"build {s} did not accept"
        if net_invariant_violations(res):
            return False, f"postconditions fail on build {s}"
    return True, "3 builds accepted with clean postconditions"


def _check_concentration_exact(seed: int):
    code = LinearCode(field_new(2), [[1, 1, 0]])
    rep = concentration_check(code, MessageSet(((0,), (1,))), seed=seed)
    ok = rep.first_moment == (0.25, 0.25, 0.0) and rep.min_sufficient_c5 == 0.125
    return ok, "two-codeword exact moments match hand values"


def _check_variance_statistical(seed: int):
    code = rs_code(field_new(5), 2, [0, 1, 2, 3])
    lam = MessageSet(((1, 2), (2, 0), (0, 1)))
    rep = gaussian_process_sample(code, [(tuple(range(4)), lam)], trials=4000, seed=seed)
    exact = float(rep.variances_exact[0])
    gap = abs(rep.empirical_variances[0] - exact)
    se = rep.variance_standard_error(0)
    return gap <= 3 * se, f"variance gap {gap:.4f} vs 3 SE = {3 * se:.4f}"


def _check_symmetrization_statistical(seed: int):
    fam = CodeFamily("sampled-hadamard", field=field_new(3), k=2, n=6)
    rep = symmetrization_check(fam, L=4, trials=150, seed=seed, n_candidates=5)
    ok = rep.deviation_vs_rademacher_ok and rep.rademacher_vs_gaussian_ok
    return ok, (
        f"D={rep.deviation:.3f} vs 2R={2 * rep.rademacher:.3f}; "
        f"R={rep.rademacher:.3f} vs sqrt(pi/2)G={math.sqrt(math.pi / 2) * rep.gaussian:.3f}"
    )


def _check_corollary_monotonicity(seed: int):
    cfg = ConstantsConfig(C0=0.002)
    fr = []
    for n in (3, 5):
        rep = experiment_corollary(
            SMALL_Q, 5, Fraction(1, 4), 2, draws=50, cfg=cfg, seed=seed, n_override=n
        )
        fr.append(
            (rep.measurements["success_fraction"], rep.measurements["standard_error"])
        )
    (f1, s1), (f2, s2) = fr
    ok = f2 >= f1 - 3 * math.sqrt(s1**2 + s2**2)
    return ok, f"fractions {f1:.2f} -> {f2:.2f} as n grows"


def _check_report_determinism(seed: int):
    a = experiment_beyond_johnson(q=5, k=2, n=3, l_cap=3, n_seeds=2, seed=seed)
    b = experiment_beyond_johnson(q=5, k=2, n=3, l_cap=3, n_seeds=2, seed=seed)
    ba = canonical_bytes(build_report("x", a.params, a.as_dict()))
    bb = canonical_bytes(build_report("x", b.params, b.as_dict()))
    return ba == bb and a.measurements["rerun_identical"], "re-run is byte-identical"


# (name, module, kind, check); check(seed) returns (passed, details)
_REGISTRY = [
    ("field-axioms", "galois", "exact", _check_field_axioms),
    ("encode-linearity", "linear_code", "exact", _check_encode_linearity),
    ("serialization-roundtrip", "linear_code", "exact", _check_serialization),
    ("rs-distance", "linear_code", "exact", _check_rs_distance),
    ("plurality-identity", "plurality", "exact", _check_plurality_identity),
    ("mass-route-agreement", "plurality", "exact", _check_mass_routes),
    ("avg-implies-std", "oracle", "exact", _check_avg_implies_std),
    ("certificate-roundtrip", "oracle", "exact", _check_certificate_roundtrip),
    ("entropy-concavity", "bounds", "exact", _check_entropy_concavity),
    ("johnson-small-exhaustive", "bounds", "exact", _check_johnson_small),
    ("spread-identity", "bounds", "exact", _check_spread_identity),
    ("net-postconditions", "chaining", "exact", _check_net_postconditions),
    ("concentration-exact-small", "chaining", "exact", _check_concentration_exact),
    ("variance-3se", "chaining", "statistical", _check_variance_statistical),
    ("symmetrization-3se", "chaining", "statistical", _check_symmetrization_statistical),
    ("corollary-monotonicity", "harness", "statistical", _check_corollary_monotonicity),
    ("report-determinism", "harness", "exact", _check_report_determinism),
]

SUITE_MODULES = tuple(sorted({module for _, module, _, _ in _REGISTRY}))


def invariant_suite(scope: str = "all", seed: int = 0) -> SuiteResult:
    """Run the registered invariants (all, or one module's worth).

    Exact entries are deterministic; statistical ones use 3-standard-error
    tolerances at fixed seeds and are labeled so a rare flake can be read as
    such. Check failures (and exceptions) are results, not errors.
    """
    if scope != "all" and scope not in SUITE_MODULES:
        raise ValueError(f"unknown scope {scope!r}; pick all or one of {SUITE_MODULES}")
    if seed < 0:  # every check keys numpy streams on it, which take no negatives
        raise ValueError(f"seed must be >= 0, got {seed}")
    entries = []
    for name, module, kind, check in _REGISTRY:
        if scope != "all" and module != scope:
            continue
        try:
            passed, details = check(seed)
        except Exception as exc:  # failures are results here
            passed, details = False, f"raised {exc!r}"
        entries.append(InvariantResult(name, module, kind, passed, details))
    return SuiteResult(scope=scope, seed=seed, entries=tuple(entries))
