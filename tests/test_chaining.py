"""Tests for the Gaussian process sampler and the net hierarchy.

Hand-checked values: for the two codewords (0,0,0) and (1,1,0) of the GF(2)
code generated by (1,1,0), the four subsets give exact half-subset moments
E[|S| |pl_j - pl_j(S)|] = 1/4 and E[|S|^2 (pl_j - pl_j(S))^2] = 1/8 on the
two disagreeing coordinates and 0 on the constant one, hence a minimal
sufficient constant of (1/8) / (2 * log2(2) * 1/2) = 1/8.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab import chaining
from listlab.bounds import ConstantsConfig
from listlab.chaining import (
    _pl_matrix,
    build_nets,
    chain_params,
    concentration_check,
    gaussian_process_sample,
    gaussian_supremum_experiment,
    net_invariant_violations,
    symmetrization_check,
)
from listlab.config import Budgets
from listlab.galois import field_new
from listlab.linear_code import LinearCode, full_rs_code, hadamard_code, rs_code, sample_code
from listlab.plurality import (
    CodeFamily,
    MessageSet,
    _batch_size,
    candidate_message_sets,
    plurality_counts_array,
    plurality_profile,
)
from listlab.seeds import child_seed, rng_for

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)
HAD5 = hadamard_code(F3, 5)
LAM64 = MessageSet.from_indices(3, 5, range(64))


def test_chain_params_defaults_and_degeneracy():
    p = chain_params(64)
    assert p.eta == pytest.approx(1 / 6)
    assert p.t_max == 0 and p.degenerate
    p2 = chain_params(64, eta=0.5)
    assert p2.t_max == 1 and not p2.degenerate
    assert p2.gamma == pytest.approx(4 * 16.0 * 6 / ((0.5) ** 2 * (0.5) ** 2))
    # small sets clamp eta to the ceiling and are degenerate by the size floor
    p3 = chain_params(3)
    assert p3.eta == 0.5 and p3.degenerate
    big = chain_params(1 << 20, eta=0.5)
    assert big.t_max == (20 - 2 - 2) // 2 and not big.degenerate


def test_chain_params_validation():
    with pytest.raises(ValueError):
        chain_params(1)
    with pytest.raises(ValueError):
        chain_params(64, eta=0.7)
    with pytest.raises(ValueError):
        chain_params(64, eta=0.0)
    with pytest.raises(ValueError):
        chain_params(64, retry_limit=0)
    with pytest.raises(ValueError):
        chain_params(64, cfg=ConstantsConfig(c1=1.0, C5=1.0))  # c1 < 16 C5


def test_q_bound_growth():
    p = chain_params(64, eta=0.5)
    assert p.q_bound(8.0, 0) == 8.0
    assert p.q_bound(8.0, 2) == pytest.approx(8.0 * 1.5**2)


def test_gaussian_sample_variance_matches_exact():
    rs = rs_code(F5, 2, [0, 1, 2, 3])
    lam = MessageSet(((1, 2),))
    rep = gaussian_process_sample(rs, [(tuple(range(4)), lam)], trials=10_000, seed=3)
    # a single codeword has plurality 1 everywhere, so the variance is n
    assert rep.variances_exact[0] == Fraction(4)
    se = rep.variance_standard_error(0)
    assert abs(rep.empirical_variances[0] - 4.0) <= 5 * se
    assert abs(rep.empirical_means[0]) <= 5 * math.sqrt(4.0 / rep.trials)


def test_gaussian_sample_empty_coords_is_zero():
    rs = rs_code(F5, 2, [0, 1, 2, 3])
    lam = MessageSet(((1, 2),))
    rep = gaussian_process_sample(rs, [((), lam)], trials=10, seed=3)
    assert rep.variances_exact[0] == 0
    assert rep.empirical_variances[0] == 0.0
    assert rep.mean_abs_max == 0.0


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, 2**70 + 1])
def test_gaussian_sample_matches_per_trial_streams(seed):
    # trial t's normals come from rng_for(seed, t), whichever way it is derived
    rs = rs_code(F5, 2, [0, 1, 2, 3])
    pairs = [((0, 1, 2, 3), MessageSet(((1, 2),))), ((0, 2), MessageSet(((1, 2), (2, 0), (0, 1))))]
    weights = np.array([[float(v) if j in cs else 0.0 for j, v in
                         enumerate(plurality_profile(rs, lam).pl)] for cs, lam in pairs])
    samples = np.array([weights @ rng_for(seed, t).standard_normal(4) for t in range(30)])
    rep = gaussian_process_sample(rs, pairs, trials=30, seed=seed)
    assert rep.empirical_means == tuple(samples.mean(axis=0).tolist())
    assert rep.empirical_variances == tuple(samples.var(axis=0, ddof=1).tolist())
    assert rep.mean_abs_max == float(np.abs(samples).max(axis=1).mean())


def test_gaussian_sample_order_invariance_and_errors():
    rs = rs_code(F5, 2, [0, 1, 2, 3])
    pair_a = ((0, 1, 2, 3), MessageSet(((1, 2),)))
    pair_b = ((0, 2), MessageSet(((1, 2), (2, 0), (0, 1))))
    fwd = gaussian_process_sample(rs, [pair_a, pair_b], trials=64, seed=9)
    rev = gaussian_process_sample(rs, [pair_b, pair_a], trials=64, seed=9)
    assert fwd.empirical_means[0] == rev.empirical_means[1]
    assert fwd.empirical_variances[1] == rev.empirical_variances[0]
    assert fwd.mean_abs_max == rev.mean_abs_max
    with pytest.raises(ValueError):
        gaussian_process_sample(rs, [], trials=10)
    with pytest.raises(ValueError):
        gaussian_process_sample(rs, [pair_a], trials=1)
    with pytest.raises(ValueError):
        gaussian_process_sample(rs, [((7,), MessageSet(((1, 2),)))], trials=10)


@given(
    st.lists(
        st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=2, max_size=10
    ),
    st.integers(0, 1 << 16),
)
@settings(max_examples=60, deadline=None)
def test_subset_plurality_counts_never_exceed_full(rows, bits):
    # the fact behind coordinate nesting: dropping codewords cannot raise a count
    words = np.array(rows, dtype=np.int64)
    keep = [(bits >> i) & 1 == 1 for i in range(len(rows))]
    if not any(keep):
        keep[0] = True
    full = plurality_counts_array(words, 3)[0]
    sub = plurality_counts_array(words[np.array(keep)], 3)[0]
    assert (sub <= full).all()


def test_build_level0_identity():
    res = build_nets(HAD5, LAM64, seed=1, params=chain_params(64, eta=0.5))
    lv0 = res.levels[0]
    assert lv0.coords == tuple(range(HAD5.n))
    assert lv0.lam == LAM64 and lv0.lam_size == 64
    prof = plurality_profile(HAD5, LAM64)
    assert lv0.pl_sum == Fraction(sum(prof.counts), prof.size)
    assert res.q_base == lv0.pl_sum
    assert lv0.q_bound == pytest.approx(float(res.q_base))
    assert lv0.retries == 0 and lv0.step_distance is None


def test_build_hadamard_l64_postconditions():
    res = build_nets(HAD5, LAM64, seed=7, params=chain_params(64, eta=0.5))
    assert res.success and res.failed_level is None
    assert len(res.levels) == 2
    assert net_invariant_violations(res) == ()
    lv1 = res.levels[1]
    # default c1 = 16 puts the heaviness cutoff far above any count
    assert lv1.coords == ()
    assert 16 <= lv1.lam_size <= 48
    assert set(lv1.lam) < set(LAM64)
    assert lv1.holder_lhs <= lv1.holder_rhs
    assert res.min_sufficient_c4 is not None and res.min_sufficient_c4 <= 50
    assert len(res.increment_scales) == 1 and len(res.union_bound_terms) == 1
    assert res.increment_scales[0] > 0 and res.union_bound_terms[0] > 0
    assert len(res.log2_net_sizes) == 2 and res.log2_net_sizes[0] > 0
    d = res.as_dict()
    assert d["success"] and len(d["levels"]) == 2


def test_build_deterministic_in_seed():
    a = build_nets(HAD5, LAM64, seed=21, params=chain_params(64, eta=0.5))
    b = build_nets(HAD5, LAM64, seed=21, params=chain_params(64, eta=0.5))
    assert a.as_dict() == b.as_dict()


def test_build_repeated_seeds_accept():
    # condition 1 alone gates the default config; its window is ~4 sigma wide,
    # so every seed should accept within a couple of draws
    total_retries = 0
    for seed in range(30):
        res = build_nets(HAD5, LAM64, seed=seed, params=chain_params(64, eta=0.5))
        assert res.success
        total_retries += res.levels[1].retries
    assert total_retries <= 30


def test_build_nonempty_heavy_sets_success():
    cfg = ConstantsConfig(c1=0.05, C5=0.003125)
    res = build_nets(HAD5, LAM64, seed=11, params=chain_params(64, cfg=cfg, eta=0.5))
    assert res.success
    lv1 = res.levels[1]
    assert len(lv1.coords) > 0
    assert set(lv1.coords) <= set(res.levels[0].coords)
    assert lv1.pl_sum <= Fraction(3, 2) * res.q_base  # level-1 budget, exact
    assert net_invariant_violations(res) == ()


def test_build_understated_constants_fail_cleanly():
    cfg = ConstantsConfig(c1=0.01, C5=0.000625)
    res = build_nets(HAD5, LAM64, seed=11, params=chain_params(64, cfg=cfg, eta=0.5))
    assert not res.success
    assert res.failed_level == 1
    assert len(res.levels) == 1
    assert res.min_sufficient_c4 is None
    assert res.condition_failures[1] + res.condition_failures[2] >= 150
    assert sum(res.condition_failures) == chain_params(64, cfg=cfg, eta=0.5).retry_limit


def test_build_degenerate_params_single_level():
    res = build_nets(HAD5, LAM64, seed=0, params=chain_params(64))  # default eta -> t_max 0
    assert res.params.degenerate and res.success
    assert len(res.levels) == 1
    assert res.increment_scales == () and res.union_bound_terms == ()


def test_build_preconditions():
    had2 = hadamard_code(F3, 2)  # 9 codewords
    lam5 = MessageSet.from_indices(3, 2, range(5))
    with pytest.raises(ValueError):
        build_nets(had2, lam5, params=chain_params(5, eta=0.5))
    with pytest.raises(ValueError):
        build_nets(HAD5, LAM64, params=chain_params(32, eta=0.5))


def test_net_invariant_violations_flag_tampering():
    res = build_nets(HAD5, LAM64, seed=7, params=chain_params(64, eta=0.5))
    bad_level = dataclasses.replace(res.levels[0], pl_sum=res.levels[0].pl_sum * 3)
    bad = dataclasses.replace(res, levels=(bad_level, res.levels[1]))
    assert any("plurality sum" in v for v in net_invariant_violations(bad))
    shrunk = dataclasses.replace(res.levels[1], lam_size=2)
    bad2 = dataclasses.replace(res, levels=(res.levels[0], shrunk))
    assert any("size" in v for v in net_invariant_violations(bad2))


def test_concentration_exact_two_codewords():
    code = LinearCode(F2, [[1, 1, 0]])
    lam = MessageSet(((0,), (1,)))
    rep = concentration_check(code, lam, seed=5)
    assert rep.mode == "exact" and rep.trials == 4
    assert rep.pl == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert rep.first_moment == (0.25, 0.25, 0.0)
    assert rep.second_moment == (0.125, 0.125, 0.0)
    assert rep.min_sufficient_c5 == pytest.approx(0.125)
    assert rep.satisfied_with_configured


def _exact_moments_reference(code, lam):
    """Half-subset moments summed subset by subset in Fractions."""
    words = code.encode_all(lam.messages)
    L, q = len(lam), code.field.q
    full = plurality_counts_array(words, q)[0]
    sum1 = [Fraction(0)] * code.n
    sum2 = [Fraction(0)] * code.n
    for bits in range(1, 1 << L):
        members = [i for i in range(L) if bits >> i & 1]
        counts_s = plurality_counts_array(words[members], q)[0]
        for j in range(code.n):
            diff = abs(len(members) * int(full[j]) - L * int(counts_s[j]))
            sum1[j] += Fraction(diff, L)
            sum2[j] += Fraction(diff * diff, L * L)
    return tuple(float(v / (1 << L)) for v in sum1), tuple(float(v / (1 << L)) for v in sum2)


def test_concentration_exact_matches_fraction_reference():
    rng = np.random.default_rng(12)
    # L = 2 is the smallest exact set and L = 12 the largest, 2^12 - 1 = 4,095 subsets
    for q, k, n, L in ((3, 2, 9, 7), (5, 2, 6, 9), (2, 4, 8, 10), (3, 2, 9, 2), (4, 2, 6, 12)):
        code = LinearCode(field_new(q), rng.integers(0, q, size=(k, n)).tolist())
        idxs = rng.choice(q**k, size=L, replace=False)
        lam = MessageSet.from_indices(q, k, idxs)
        rep = concentration_check(code, lam, seed=1)
        assert rep.mode == "exact"
        assert (rep.first_moment, rep.second_moment) == _exact_moments_reference(code, lam)


def test_concentration_constant_column_zero_deviation():
    # all codewords share coordinate 2, so the deviation vanishes there
    code = LinearCode(F2, [[1, 1, 0]])
    rep = concentration_check(code, MessageSet(((0,), (1,))), seed=5)
    assert rep.first_moment[2] == 0.0 and rep.second_moment[2] == 0.0


def test_concentration_sampled_tracks_exact():
    had2 = hadamard_code(F3, 2)
    lam9 = MessageSet.from_indices(3, 2, range(9))
    exact = concentration_check(had2, lam9, seed=6)
    sampled = concentration_check(
        had2, lam9, trials=3000, seed=6, budgets=Budgets(max_subsets=2**8 - 1)
    )
    assert exact.mode == "exact" and sampled.mode == "sampled"
    assert exact.satisfied_with_configured and sampled.satisfied_with_configured
    assert exact.min_sufficient_c5 < 1.0
    assert abs(exact.min_sufficient_c5 - sampled.min_sufficient_c5) <= 0.03
    for j in range(had2.n):
        assert abs(exact.first_moment[j] - sampled.first_moment[j]) <= 0.1


def _sampled_moments_reference(code, lam, trials, seed):
    """Half-subset moments of the sampled route, one subset per trial."""
    words = code.encode_all(lam.messages)
    L, q = len(lam), code.field.q
    full = plurality_counts_array(words, q)[0]
    rng = rng_for(seed)
    acc1, acc2 = np.zeros(code.n), np.zeros(code.n)
    for _ in range(trials):
        keep = rng.random(L) < 0.5
        s = int(keep.sum())
        if s == 0:
            continue
        dev = np.abs(s * full / L - plurality_counts_array(words[keep], q)[0])
        acc1 += dev
        acc2 += dev**2
    return tuple((acc1 / trials).tolist()), tuple((acc2 / trials).tolist())


@pytest.mark.parametrize("q, k, n, L", [(2, 3, 5, 2), (5, 2, 6, 3), (16, 2, 7, 4), (3, 3, 9, 20)])
def test_concentration_sampled_matches_trial_by_trial_reference(q, k, n, L):
    # max_subsets=1 forces sampling at every L; at L = 2-4 empty subsets are
    # common, and the trial counts straddle the side-by-side chunks
    rng = np.random.default_rng(q + L)
    code = LinearCode(field_new(q), rng.integers(0, q, size=(k, n)).tolist())
    lam = MessageSet.from_indices(q, k, rng.choice(q**k, size=L, replace=False))
    step = _batch_size(q + L, n, L)
    for trials in (1, 3, step - 1, step + 1, 2 * step + 5):
        for seed in (0, 7):
            rep = concentration_check(code, lam, trials, seed, budgets=Budgets(max_subsets=1))
            assert rep.mode == "sampled" and rep.trials == trials
            want = _sampled_moments_reference(code, lam, trials, seed)
            assert (rep.first_moment, rep.second_moment) == want


def test_concentration_preconditions():
    code = LinearCode(F2, [[1, 1, 0]])
    with pytest.raises(ValueError):
        concentration_check(code, MessageSet(((1,),)))
    with pytest.raises(ValueError):
        concentration_check(
            hadamard_code(F3, 2),
            MessageSet.from_indices(3, 2, range(9)),
            trials=0,
            budgets=Budgets(max_subsets=2**4 - 1),
        )


@pytest.mark.parametrize("code, L, count", [
    (hadamard_code(F3, 2), 4, 5),
    (rs_code(F5, 2, [0, 1, 2, 3, 4]), 1, 3),
    # 10 * (256 + 3) cells per set: 60 sets take three side-by-side batches
    (rs_code(field_new(256), 2, list(range(0, 200, 20))), 3, 60),
])
def test_pl_matrix_rows_are_float_profiles(code, L, count):
    lams = candidate_message_sets(code.field, code.k, L, count, seed=7)
    want = [[float(v) for v in plurality_profile(code, lam).pl] for lam in lams]
    assert _pl_matrix(code, lams).tolist() == want


def test_symmetrization_fixed_family_trivial():
    fam = CodeFamily("fixed", code=rs_code(F5, 2, [0, 1, 2, 3]))
    rep = symmetrization_check(fam, L=3, trials=60, seed=2, n_candidates=4)
    assert rep.deviation <= 1e-12
    assert rep.deviation_vs_rademacher_ok and rep.rademacher_vs_gaussian_ok
    assert rep.lambda_family == "sampled"


def test_symmetrization_single_codeword_closed_form():
    # one codeword on one coordinate: pl = 1 always, so D = 0, the sign sum
    # is exactly 1 in absolute value, and the Gaussian term is E|g|
    fam = CodeFamily("sampled-rs", field=F5, k=1, n=1)
    rep = symmetrization_check(fam, L=1, trials=1500, seed=4, n_candidates=3)
    assert rep.deviation == 0.0
    assert rep.rademacher == 1.0 and rep.rademacher_se == 0.0
    assert abs(rep.gaussian - math.sqrt(2 / math.pi)) <= 3 * rep.gaussian_se
    assert rep.deviation_vs_rademacher_ok and rep.rademacher_vs_gaussian_ok


def test_symmetrization_sampled_hadamard():
    fam = CodeFamily("sampled-hadamard", field=F3, k=2, n=6)
    rep = symmetrization_check(fam, L=4, trials=150, seed=9, n_candidates=5)
    assert rep.deviation_vs_rademacher_ok
    assert rep.rademacher_vs_gaussian_ok
    assert rep.family["kind"] == "sampled-hadamard"
    again = symmetrization_check(fam, L=4, trials=150, seed=9, n_candidates=5)
    assert rep.as_dict() == again.as_dict()
    with pytest.raises(ValueError):
        symmetrization_check(fam, L=4, trials=1)


def _symmetrization_reference(family, L, trials, seed, n_candidates):
    """(D, R, G) means and standard errors from a code drawn per trial out of
    the whole parent, its plurality vectors read off plurality_profile set by set."""
    if family.kind == "fixed":
        parent = family.code_on(range(family.n))
    else:
        parent = (full_rs_code if family.kind == "sampled-rs" else hadamard_code)(
            family.field, family.k)
    lams = candidate_message_sets(family.field, family.k, L, n_candidates, seed)

    def pl_matrix(s, i):
        code = parent
        if family.kind != "fixed":
            code = sample_code(parent, family.n, seed=child_seed(s, i))
        return np.array([[float(v) for v in plurality_profile(code, lam).pl] for lam in lams])

    mean_pl = np.zeros((len(lams), family.n))
    for i in range(trials):
        mean_pl += pl_matrix(seed + 1_000_003, i)
    mean_pl /= trials
    vals = np.empty((3, trials))
    for t in range(trials):
        mat = pl_matrix(seed, t)
        signs = 1 - 2 * rng_for(seed, t, 1).integers(0, 2, size=family.n)
        gauss = rng_for(seed, t, 2).standard_normal(family.n)
        vals[:, t] = (
            np.abs((mat - mean_pl).sum(axis=1)).max(),
            np.abs(mat @ signs).max(),
            np.abs(mat @ gauss).max(),
        )
    return [(float(v.mean()), float(v.std(ddof=1) / math.sqrt(trials))) for v in vals]


@pytest.mark.parametrize("family, L", [
    (CodeFamily("fixed", code=rs_code(F5, 2, [0, 1, 2, 3, 1])), 3),
    (CodeFamily("sampled-rs", field=field_new(7), k=2, n=8), 4),
    (CodeFamily("sampled-hadamard", field=F3, k=2, n=6), 4),
    (CodeFamily("sampled-hadamard", field=F2, k=5, n=7), 3),
])
def test_symmetrization_matches_trial_by_trial_reference(family, L):
    for trials, seed in ((2, 0), (17, 5), (40, 11)):
        rep = symmetrization_check(family, L, trials=trials, seed=seed, n_candidates=4)
        got = [(rep.deviation, rep.deviation_se), (rep.rademacher, rep.rademacher_se),
               (rep.gaussian, rep.gaussian_se)]
        assert got == _symmetrization_reference(family, L, trials, seed, 4)


def test_symmetrization_table_spans_only_drawn_columns(monkeypatch):
    # 5 pilot and 5 main draws of 6 columns each, out of 4,096 parent columns
    family = CodeFamily("sampled-hadamard", field=F2, k=12, n=6)
    assert family.parent_n == 4096
    widths = []

    def spy(code, lams):
        widths.append(code.n)
        return _pl_matrix(code, lams)

    monkeypatch.setattr(chaining, "_pl_matrix", spy)
    rep = symmetrization_check(family, 4, trials=5, seed=3, n_candidates=4)
    assert len(widths) == 1 and widths[0] <= 2 * 5 * 6
    monkeypatch.undo()
    assert rep == symmetrization_check(family, 4, trials=5, seed=3, n_candidates=4)


def test_supremum_experiment_small_hadamard():
    had2 = hadamard_code(F3, 2)
    rep = gaussian_supremum_experiment(had2, L=4, n_candidates=6, trials=500, seed=8)
    assert rep.q_hat_exact
    assert rep.q_hat == Fraction(11, 2)
    assert 0 < rep.empirical <= rep.target
    assert rep.min_sufficient_c3 == pytest.approx(rep.empirical / (rep.target))
    assert rep.satisfied
    d = rep.as_dict()
    assert d["q_hat"] == "11/2"


def test_supremum_experiment_preconditions():
    had2 = hadamard_code(F3, 2)
    with pytest.raises(ValueError):
        gaussian_supremum_experiment(had2, L=1)
    with pytest.raises(ValueError):
        gaussian_supremum_experiment(LinearCode(F2, [[1]]), L=2)
