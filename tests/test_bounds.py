"""Bounds tests: frozen arithmetic, exact boundary logic, small MC checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from listlab.bounds import (
    BoundReport,
    ConstantsConfig,
    capacity_rate,
    capacity_rate_small_eps,
    decodable_blocklength,
    evaluate_bound,
    gaussian_max_bound,
    hoeffding_tail,
    johnson_agreement_bound_eps,
    johnson_agreement_bound_root,
    q_ary_entropy,
    random_code_agreement_bound,
    rate_summary,
    root_bound_exceeded,
)
from listlab.config import constants_from_dict
from listlab.galois import field_new
from listlab.linear_code import LinearCode
from listlab.plurality import agreement


def test_constants_config():
    cfg = ConstantsConfig()
    assert cfg.C0 == cfg.C3 == cfg.C4 == cfg.C5 == cfg.C6 == cfg.C7 == 1.0
    assert cfg.c0 == 16.0 and cfg.c1 == 16.0
    cfg.validate_chaining()  # 16 >= 16 * 1
    with pytest.raises(ValueError):
        ConstantsConfig(C0=0)
    with pytest.raises(ValueError):
        ConstantsConfig(c1=-2)
    with pytest.raises(ValueError):
        ConstantsConfig(C4=float("inf"))
    with pytest.raises(ValueError):
        ConstantsConfig(C5=1.0, c1=1.0).validate_chaining()
    # stress configuration keeps the coupling with equality
    ConstantsConfig(c1=0.01, C5=0.000625).validate_chaining()
    assert constants_from_dict(cfg.as_dict()) == cfg
    with pytest.raises(ValueError):
        constants_from_dict({"C9": 1.0})


def test_entropy_values_and_domain():
    for q in (2, 3, 5, 16):
        assert q_ary_entropy(q, 0) == 0.0
        assert q_ary_entropy(q, 1 - 1 / q) == pytest.approx(1.0, abs=1e-12)
        assert q_ary_entropy(q, 1) == pytest.approx(math.log(q - 1) / math.log(q))
    assert q_ary_entropy(2, 0.5) == pytest.approx(1.0)
    assert q_ary_entropy(2, 0.11) == pytest.approx(q_ary_entropy(2, 0.89))
    with pytest.raises(ValueError):
        q_ary_entropy(1, 0.5)
    with pytest.raises(ValueError):
        q_ary_entropy(3, 1.5)
    with pytest.raises(ValueError):
        q_ary_entropy(3, -0.1)


def test_entropy_concave_on_grid():
    h = 1e-3
    for q in (2, 3, 16):
        for m in np.linspace(h, 1 - h, 97):
            mid = q_ary_entropy(q, m)
            avg = 0.5 * (q_ary_entropy(q, m - h) + q_ary_entropy(q, m + h))
            assert mid >= avg - 1e-12


def test_capacity_trivial_endpoints():
    for q in (2, 3, 7, 64):
        assert capacity_rate(q, 0) == pytest.approx(0.0, abs=1e-12)
        assert capacity_rate(q, 1 - 1 / q) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        capacity_rate(4, 0.8)  # above 1 - 1/q


def test_capacity_small_eps_expansion():
    # leading-order agreement in the sub-1/eps alphabet regime
    for q, eps in ((16, 0.01), (4, 0.005), (9, 0.02)):
        exact = capacity_rate(q, eps)
        approx = capacity_rate_small_eps(q, eps)
        assert abs(exact - approx) / exact < 0.10


def test_johnson_eps_single_codeword_never_violated():
    # L = 1 leaves no pairs; the bound must stay at or above n
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        for q in (2, 5, 16):
            value = johnson_agreement_bound_eps(6, q, 1, eps, 0)
            assert value >= 6


def test_johnson_eps_spread_code_instance():
    # L = 2/eps^2 codewords at pairwise distance 1 - 1/q - eps^2/2 push the
    # bound below n*L*(1/q + eps); checked exactly in rationals
    for q in (2, 3, 5, 16):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            L = int(2 / eps**2)
            assert L == 2 / eps**2
            dist = 1 - Fraction(1, q) - eps**2 / 2
            pair_sum = L * (L - 1) * dist
            for n in (1, 7):
                rhs = johnson_agreement_bound_eps(n, q, L, eps, pair_sum)
                assert isinstance(rhs, Fraction)
                assert rhs <= n * L * (Fraction(1, q) + eps)


def test_johnson_root_trivial_collapses():
    assert johnson_agreement_bound_root(5, 1, 0) == 5.0
    for L in (2, 3, 5):
        for n in (3, 10):
            assert johnson_agreement_bound_root(n, L, L * (L - 1)) == pytest.approx(n)


def test_bounds_monotone_decreasing_in_pair_sum():
    grid = [Fraction(i, 4) for i in range(0, 9)]  # 0 .. 2 = L(L-1) at L = 2
    eps_vals = [johnson_agreement_bound_eps(5, 3, 2, Fraction(1, 2), s) for s in grid]
    root_vals = [johnson_agreement_bound_root(5, 2, s) for s in grid]
    assert all(a > b for a, b in zip(eps_vals, eps_vals[1:]))
    assert all(a > b for a, b in zip(root_vals, root_vals[1:]))


def test_root_bound_exceeded_exact_boundary():
    # n=3, L=2, pair sum 0: radicand = 81, bound = (3+9)/2 = 6 exactly
    assert johnson_agreement_bound_root(3, 2, 0) == 6.0
    assert not root_bound_exceeded(3, 2, 0, 6)  # equality is allowed
    assert root_bound_exceeded(3, 2, 0, 7)
    assert not root_bound_exceeded(3, 2, 0, 0)
    # fractional pair sums stay exact
    assert root_bound_exceeded(3, 2, Fraction(3, 2), 5) == (
        5 > johnson_agreement_bound_root(3, 2, Fraction(3, 2)) + 1e-9
    )
    with pytest.raises(ValueError):
        root_bound_exceeded(3, 2, 3, 4)  # pair sum above L(L-1)


def test_johnson_validity_small_exhaustive():
    # both bounds are universally valid, so zero violations are expected over
    # every codeword set of every small code
    f = field_new(3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        code = LinearCode(f, rng.integers(0, 3, size=(2, 3)).tolist())
        words = [tuple(int(v) for v in w) for w in code.codeword_matrix()]
        n = code.n
        for size in (1, 2, 3):
            for lam in itertools.combinations(words, min(size, len(words))):
                L = len(lam)
                pair_sum = sum(
                    Fraction(n - agreement(x, y), n) for x in lam for y in lam if x != y
                )
                best = max(
                    sum(agreement(z, c) for c in lam)
                    for z in itertools.product(range(3), repeat=n)
                )
                assert not root_bound_exceeded(n, L, pair_sum, best)
                for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    assert best <= johnson_agreement_bound_eps(n, 3, L, eps, pair_sum)


def test_random_code_agreement_bound_values():
    # L = 16, N = 256: the additive term is 16 * 8 * 4^5 = 131072 exactly
    assert random_code_agreement_bound(0, 16, 256) == 131072.0
    assert random_code_agreement_bound(131072.0, 16, 256) == pytest.approx(3 * 131072.0)
    # alphabet-aware variant trims one log factor when q is small
    assert random_code_agreement_bound(0, 16, 256, q=4) == 65536.0
    assert random_code_agreement_bound(0, 16, 256, q=1 << 20) == 131072.0
    for e in (0.0, 1.0, 10.0, 1e6):
        assert random_code_agreement_bound(e, 4, 16) >= e
    grid = [random_code_agreement_bound(e, 4, 16) for e in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    low = random_code_agreement_bound(5.0, 8, 64, ConstantsConfig(C0=0.5))
    high = random_code_agreement_bound(5.0, 8, 64, ConstantsConfig(C0=2.0))
    assert low < high
    with pytest.raises(ValueError):
        random_code_agreement_bound(-1, 4, 16)
    with pytest.raises(ValueError):
        random_code_agreement_bound(0, 1, 16)
    with pytest.raises(ValueError):
        random_code_agreement_bound(0, 4, 1)


def test_decodable_blocklength_frozen_and_monotone():
    # small-q: q=16, eps=1/4: list 32, log2^5 = 3125, log2(N) = 8, min = 1/4
    n = decodable_blocklength(16, 0.25, "small-q", 2)
    assert n == 100000
    value = 1.0 * 8 * math.log2(32) ** 5 / min(0.25, 16 * 0.25**2)
    assert n >= value and n - 1 < value  # minimal integer satisfying the bound
    assert decodable_blocklength(16, 0.125, "small-q", 2) > n
    # large-q: q=1024, eps=1/8: list 8, factor 2, denominator eps
    assert decodable_blocklength(1024, 0.125, "large-q", 2) == 77760
    # the list size is ceil(2/eps^2) = 98 on the exact eps, not 99 from float(1/7)
    assert decodable_blocklength(8, Fraction(1, 7), "small-q", 2) == 531868
    with pytest.raises(ValueError):
        decodable_blocklength(25, 0.1, "large-q", 2)  # q <= 1/eps^2
    with pytest.raises(ValueError):
        decodable_blocklength(16, 0.25, "mid-q", 2)
    with pytest.raises(ValueError):
        decodable_blocklength(16, 0.0, "small-q", 2)
    with pytest.raises(ValueError):
        decodable_blocklength(1, 0.25, "small-q", 2)


def test_rate_summary_predicate_and_regimes():
    big = rate_summary(1 << 20, 0.4)
    assert big.rs_rate == pytest.approx(0.4 / (20 * math.log2(2.5) ** 5))
    assert big.johnson_rate == pytest.approx(0.16)
    assert not big.beats_johnson
    tiny = rate_summary(2, 1e-10)
    assert tiny.beats_johnson
    # the advantage over the generic rate grows without bound as eps shrinks
    ratios = [rate_summary(2, e).rs_rate / e**2 for e in (1e-2, 1e-6, 1e-10)]
    assert ratios[0] < ratios[1] < ratios[2]
    # sampled-linear rate switches arms at q = 1/eps
    below = rate_summary(50, 0.01)
    above = rate_summary(200, 0.01)
    assert below.rs_rate / below.rlc_rate == pytest.approx(2 / (50 * 0.01))
    assert above.rs_rate / above.rlc_rate == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rate_summary(2, 0.5)
    with pytest.raises(ValueError):
        rate_summary(1, 0.1)


def test_hoeffding_tail_edges():
    assert hoeffding_tail([(0, 1)], 0) == 2.0
    assert hoeffding_tail([(0, 1)], 1) == pytest.approx(2 * math.exp(-2))
    assert hoeffding_tail([(2, 2), (3, 3)], 0) == 2.0  # degenerate ranges
    assert hoeffding_tail([(2, 2)], 0.5) == 0.0
    vals = [hoeffding_tail([(0, 1), (0, 2)], v) for v in (0, 0.5, 1, 2, 4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        hoeffding_tail([(1, 0)], 1)
    with pytest.raises(ValueError):
        hoeffding_tail([(0, 1)], -1)


def test_gaussian_max_bound_value_and_simulation():
    bound = gaussian_max_bound(1, 1000)
    assert bound == pytest.approx(3.9315848910168056)
    assert gaussian_max_bound(2.5, 1000) == pytest.approx(2.5 * bound)
    with pytest.raises(ValueError):
        gaussian_max_bound(0, 1000)
    with pytest.raises(ValueError):
        gaussian_max_bound(1, 1)
    # the guarantee is on the expected maximum of absolute values; check it
    # with wide margin, and freeze the observed per-trial coverage (~96%)
    rng = np.random.default_rng(123)
    draws = rng.standard_normal((1000, 1000))
    assert np.abs(draws).max(axis=1).mean() <= bound - 0.3
    assert (draws.max(axis=1) <= bound).mean() >= 0.94


def test_evaluate_bound_dispatcher():
    cases = {
        "entropy": {"q": 3, "x": 0.5},
        "capacity": {"q": 4, "eps": 0.1},
        "capacity-small-eps": {"q": 16, "eps": 0.01},
        "johnson-eps": {"n": 5, "q": 3, "L": 2, "eps": 0.5, "pair_sum": 1.0},
        "johnson-root": {"n": 5, "L": 2, "pair_sum": 1.0},
        "sampled-agreement": {"E": 2.0, "L": 4, "N": 16},
        "blocklength": {"q": 16, "eps": 0.25, "variant": "small-q", "k": 2},
        "hoeffding": {"ranges": [(0, 1)], "v": 1},
        "gaussian-max": {"sigma": 1, "n": 1000},
    }
    for name, params in cases.items():
        report = evaluate_bound(name, params)
        assert report.name == name
        assert math.isfinite(report.value)
        assert dict(report.inputs) == params
    assert evaluate_bound("blocklength", cases["blocklength"]).value == 100000.0
    # a fraction string is the exact real: eps = 1/7 sizes the corollary's n,
    # which the nearest float, just below 1/7, does not
    exact = {"q": 8, "eps": "1/7", "variant": "small-q", "k": 2}
    report = evaluate_bound("blocklength", exact)
    assert report.value == decodable_blocklength(8, Fraction(1, 7), "small-q", 2) == 531868.0
    assert dict(report.inputs) == exact
    assert evaluate_bound("blocklength", {**exact, "eps": 1 / 7}).value == 537782.0
    assert evaluate_bound("entropy", {"q": 3, "x": "1/2"}).value == q_ary_entropy(3, 0.5)
    for bad in ("abc", "1/0", "nan", "inf", "1e400", ""):
        with pytest.raises(ValueError, match="invalid eps"):
            evaluate_bound("blocklength", {**exact, "eps": bad})
    with pytest.raises(ValueError):
        evaluate_bound("sharpest", {})
    with pytest.raises(ValueError):
        BoundReport("demo", (), float("nan"))
