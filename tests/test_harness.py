"""Tests for the experiment harness and the invariant suite."""

import math
from fractions import Fraction

import pytest

from listlab import harness
from listlab.bounds import ConstantsConfig
from listlab.chaining import gaussian_supremum_experiment
from listlab.config import Budgets
from listlab.errors import InfeasibleError
from listlab.galois import Field, field_new
from listlab.harness import (
    SCALE_NOTE,
    _REGISTRY,
    experiment_beyond_johnson,
    experiment_corollary,
    invariant_suite,
    johnson_radius_from_distance,
)
from listlab.linear_code import full_rs_code, rs_code, sample_code
from listlab.seeds import child_seed

DESK_CFG = ConstantsConfig(C0=0.002)


def test_corollary_small_q_desk_run():
    rep = experiment_corollary("small-q", 5, Fraction(1, 2), 2, draws=50, cfg=DESK_CFG, seed=1)
    assert rep.name == "corollary"
    assert rep.params["n"] <= 6 and not rep.params["n_overridden"]
    assert rep.bounds["list_size"] == 8
    assert rep.bounds["parent_kind"] == "hadamard"
    # (2 + sqrt(2)) * 1/2 pushes the radius below zero at q = 5
    assert rep.bounds["degenerate_radius"] and rep.bounds["radius"] == "0"
    assert rep.measurements["oracle"] == "exhaustive"
    assert rep.measurements["success_fraction"] == 1.0
    assert len(rep.verdicts["per_draw"]) == 50
    assert "wall_time_s" not in rep.as_dict()


def test_corollary_deterministic_and_seed_sensitive():
    a = experiment_corollary("small-q", 5, Fraction(1, 4), 2, draws=20, cfg=DESK_CFG, seed=3)
    b = experiment_corollary("small-q", 5, Fraction(1, 4), 2, draws=20, cfg=DESK_CFG, seed=3)
    assert a.as_dict() == b.as_dict()


def test_corollary_large_q_accepted():
    rep = experiment_corollary("large-q", 17, Fraction(1, 4), 2, draws=10, n_override=4, seed=2)
    assert rep.bounds["list_size"] == 4
    assert rep.bounds["radius_raw"] == pytest.approx(-0.25)
    assert rep.bounds["degenerate_radius"]
    assert rep.bounds["parent_kind"] == "full-rs"
    assert rep.measurements["success_fraction"] == 1.0


def test_corollary_rejections():
    with pytest.raises(ValueError, match="1 - 1/q"):
        experiment_corollary("small-q", 5, Fraction(4, 5), 2, draws=1, n_override=3)
    with pytest.raises(ValueError, match="q > 1/eps"):
        experiment_corollary("large-q", 9, Fraction(1, 4), 2, draws=1, n_override=3)
    # the variant precondition passes for q = 25 and the field itself refuses
    with pytest.raises(ValueError, match="25"):
        experiment_corollary("large-q", 25, Fraction(1, 4), 2, draws=1, n_override=3)
    with pytest.raises(ValueError, match="eps\\^2 q"):
        experiment_corollary("large-q", 17, Fraction(1, 4), 4, draws=1, n_override=3)
    with pytest.raises(ValueError, match="variant"):
        experiment_corollary("medium-q", 5, Fraction(1, 4), 2, draws=1, n_override=3)
    with pytest.raises(ValueError):
        experiment_corollary("small-q", 5, Fraction(1, 4), 2, draws=0, n_override=3)
    with pytest.raises(ValueError):
        experiment_corollary("small-q", 5, Fraction(3, 2), 2, draws=1, n_override=3)


def test_corollary_required_rate_verdict():
    rep = experiment_corollary(
        "small-q", 5, Fraction(1, 2), 2, draws=10, cfg=DESK_CFG, seed=1,
        n_override=4, require_success_rate=0.9,
    )
    assert rep.verdicts["passed"] is True
    assert rep.verdicts["required_rate"] == 0.9


def test_corollary_sampled_fallback():
    tiny = Budgets(max_subsets=1, max_received_words=1)
    with pytest.raises(InfeasibleError):
        experiment_corollary(
            "small-q", 5, Fraction(1, 2), 2, draws=2, cfg=DESK_CFG, seed=1,
            n_override=4, budgets=tiny,
        )
    rep = experiment_corollary(
        "small-q", 5, Fraction(1, 2), 2, draws=2, cfg=DESK_CFG, seed=1,
        n_override=4, budgets=tiny, allow_sampled=True,
    )
    assert rep.measurements["oracle"] == "sampled"


ROUTE_BUDGETS = {
    "tiny": Budgets(max_codewords=1, max_received_words=1, max_subsets=1),
    "only-codewords": Budgets(max_received_words=1, max_subsets=1),
    "codewords-1": Budgets(max_codewords=1),
    "default": Budgets(),
}
# (variant, q, eps, k, draws, n, seed)
ROUTE_COROLLARIES = {
    "q5": ("small-q", 5, Fraction(1, 2), 2, 2, 4, 1),
    "q4-positive-radius": ("small-q", 4, Fraction(1, 5), 3, 2, 4, 1),
    # N = 2 codewords, L + 1 = 19: vacuously decodable before any budget is charged
    "vacuous": ("small-q", 2, Fraction(1, 3), 1, 1, 2, 0),
}
CODEWORDS_25 = "row space has 25 codewords, budget 1"
CODEWORDS_64 = "row space has 64 codewords, budget 1"
SAMPLED_2 = ("sampled", ["decodable"] * 2)
EXHAUSTIVE_2 = ("exhaustive", ["decodable"] * 2)
EXHAUSTIVE_1 = ("exhaustive", ["decodable"])


def _outcome(run):
    try:
        return run()
    except InfeasibleError as exc:
        return str(exc)


@pytest.mark.parametrize("case, budgets, allow_sampled, expected", [
    ("q5", "tiny", False, CODEWORDS_25),
    ("q5", "tiny", True, CODEWORDS_25),
    ("q5", "only-codewords", False,
     "exact mass needs a scan of 15625 comparisons or 2042975 subsets; budgets are 1 and 1"),
    ("q5", "only-codewords", True, SAMPLED_2),
    ("q5", "codewords-1", False, CODEWORDS_25),
    ("q5", "codewords-1", True, CODEWORDS_25),
    ("q5", "default", False, EXHAUSTIVE_2),
    ("q5", "default", True, EXHAUSTIVE_2),
    ("q4-positive-radius", "tiny", True, CODEWORDS_64),
    ("q4-positive-radius", "only-codewords", False,
     "exact mass needs a scan of 16384 comparisons or 13136858812224 subsets; "
     "budgets are 1 and 1"),
    ("q4-positive-radius", "only-codewords", True, SAMPLED_2),
    ("q4-positive-radius", "codewords-1", True, CODEWORDS_64),
    ("q4-positive-radius", "default", True, EXHAUSTIVE_2),
    *[("vacuous", name, allow, EXHAUSTIVE_1) for name in ROUTE_BUDGETS for allow in (False, True)],
])
def test_corollary_route_and_error_text(case, budgets, allow_sampled, expected):
    variant, q, eps, k, draws, n, seed = ROUTE_COROLLARIES[case]

    def run():
        rep = experiment_corollary(
            variant, q, eps, k, draws=draws, cfg=DESK_CFG, seed=seed, n_override=n,
            budgets=ROUTE_BUDGETS[budgets], allow_sampled=allow_sampled,
        )
        return rep.measurements["oracle"], rep.verdicts["per_draw"]

    assert _outcome(run) == expected


@pytest.mark.parametrize("budgets, expected", [
    ("tiny", CODEWORDS_25),
    ("only-codewords", ("9/4", False)),
    ("codewords-1", CODEWORDS_25),
    ("default", ("9/4", True)),
])
def test_supremum_route_and_error_text(budgets, expected):
    code = rs_code(field_new(5), 2, [0, 1, 2, 3])

    def run():
        rep = gaussian_supremum_experiment(
            code, 4, n_candidates=3, trials=20, seed=2, budgets=ROUTE_BUDGETS[budgets]
        )
        return str(rep.q_hat), rep.q_hat_exact

    assert _outcome(run) == expected


def test_johnson_radius_from_distance_values():
    j, clamped = johnson_radius_from_distance(7, Fraction(4, 5))
    assert not clamped
    assert j == pytest.approx(6 / 7 - math.sqrt(6 / 7 - 4 / 5))
    j2, clamped2 = johnson_radius_from_distance(7, Fraction(1))
    assert clamped2 and j2 == pytest.approx(6 / 7)


def test_beyond_johnson_structure_and_reproducibility():
    rep = experiment_beyond_johnson(q=7, k=2, n=5, l_cap=6, n_seeds=2, seed=0)
    assert rep.measurements["rerun_identical"]
    assert rep.verdicts["note"] == SCALE_NOTE
    rows = rep.measurements["rows"]
    assert len(rows) == 2
    for row in rows:
        assert len(row["standard_radii"]) == 6
        assert len(row["average_radii"]) == 6
        assert Fraction(row["distance"]) <= Fraction(4, 5)
        for ell in row["beyond_at"]:
            assert 1 <= ell <= 6
    again = experiment_beyond_johnson(q=7, k=2, n=5, l_cap=6, n_seeds=2, seed=0)
    assert again.measurements["results_sha256"] == rep.measurements["results_sha256"]


def test_beyond_johnson_rho_grid_and_k1():
    rep = experiment_beyond_johnson(
        q=5, k=2, n=4, l_cap=3, n_seeds=2, seed=1, rho_grid=[Fraction(1, 4), Fraction(9, 10)]
    )
    for row in rep.measurements["rows"]:
        reach = row["grid_first_list_size"]
        assert len(reach) == 2
        assert reach[1] is None  # 9/10 is out of reach at n = 4
    deg = experiment_beyond_johnson(q=5, k=1, n=3, l_cap=2, n_seeds=1, seed=0)
    row = deg.measurements["rows"][0]
    # constant codewords: all pairs at full distance, promise clamped
    assert row["distance"] == "1"
    assert row["johnson_clamped"]


@pytest.mark.parametrize("k", [1, 2])
def test_beyond_johnson_reports_the_drawn_evaluation_points(k):
    rep = experiment_beyond_johnson(q=7, k=k, n=4, l_cap=2, n_seeds=2, seed=3)
    parent = full_rs_code(field_new(7), k)
    for s, row in enumerate(rep.measurements["rows"]):
        code = sample_code(parent, 4, seed=child_seed(3, s))
        assert row["evaluation_points"] == code.provenance["columns"]
        if k > 1:  # row 1 of the monomial generator holds the points themselves
            assert row["evaluation_points"] == list(code.generator[1])
    assert [r["evaluation_points"] for r in rep.measurements["rows"]] == [
        [4, 4, 4, 1], [6, 3, 4, 1]
    ]


def test_invariant_suite_all_green():
    res = invariant_suite("all", seed=0)
    assert res.passed
    assert len(res.entries) == len(_REGISTRY)
    kinds = {e.kind for e in res.entries}
    assert kinds == {"exact", "statistical"}
    d = res.as_dict()
    assert d["failed"] == 0 and d["all_passed"]


def test_invariant_suite_scope_and_seed():
    oracle_only = invariant_suite("oracle", seed=0)
    assert {e.module for e in oracle_only.entries} == {"oracle"}
    assert 0 < len(oracle_only.entries) < len(_REGISTRY)
    with pytest.raises(ValueError):
        invariant_suite("nonexistent-module")
    shifted = invariant_suite("all", seed=99)
    exact_failures = [e for e in shifted.entries if e.kind == "exact" and not e.passed]
    assert exact_failures == []


def test_invariant_suite_refuses_a_negative_seed(monkeypatch):
    # refused up front: a check keyed on a negative seed would raise inside
    # numpy and be reported as a failed entry
    seen = []
    spy = ("spy", "chaining", "exact", lambda seed: (seen.append(seed) or True, ""))
    monkeypatch.setattr(harness, "_REGISTRY", [spy])
    for scope, seed in (("chaining", -3), ("all", -1)):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            invariant_suite(scope, seed=seed)
    assert seen == []
    assert invariant_suite("chaining", seed=0).passed and seen == [0]


@pytest.mark.parametrize("kind, attr, wrong", [
    ("prime", "add_array", lambda f, x, y: x + y),  # no reduction mod p
    ("prime", "scale_array", lambda f, s, x: s * x),
    ("binary-extension", "add_array", lambda f, x, y: x | y),
    ("binary-extension", "scale_array", lambda f, s, x: s * x % f.q),  # integer product
])
def test_field_axioms_entry_fails_on_a_wrong_array_op(monkeypatch, kind, attr, wrong):
    right = getattr(Field, attr)
    monkeypatch.setattr(
        Field, attr, lambda f, x, y: (wrong if f.kind == kind else right)(f, x, y)
    )
    (entry,) = invariant_suite("galois").entries
    assert entry.name == "field-axioms" and not entry.passed
    assert f"GF({5 if kind == 'prime' else 8})" in entry.details
