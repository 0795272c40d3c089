"""Closed-form bound calculators: agreement bounds, capacity, tails.

Everything here is a pure function of its inputs. The two agreement bounds
keep exact arithmetic when fed Fractions (no hidden float conversions), so
boundary cases can be decided exactly; the capacity, rate, and tail helpers
are float-valued.

Logarithms in list-size and rate expressions are base 2. The small-epsilon
capacity expansion and the Gaussian maximum bound use natural logs (they come
from calculus, not from counting).
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .config import ConstantsConfig
from .reports import Record

_LOG2 = math.log(2.0)


def _log2(x: float) -> float:
    return math.log(float(x)) / _LOG2


@dataclass(frozen=True)
class BoundReport(Record):
    """One evaluated bound: name, echoed inputs, value."""

    name: str
    inputs: dict
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value}")


# -- entropy and capacity ------------------------------------------------------


def q_ary_entropy(q: int, x) -> float:
    """H_q(x) with the boundary convention 0*log(0) = 0."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    x = float(x)
    if not (0 <= x <= 1):
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    lq = math.log(q)
    out = x * math.log(q - 1) / lq  # the q = 2 case contributes log(1) = 0
    if 0 < x:
        out -= x * math.log(x) / lq
    if x < 1:
        out -= (1 - x) * math.log(1 - x) / lq
    return out


def capacity_rate(q: int, eps) -> float:
    """Best possible rate at relative radius 1 - 1/q - eps."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    eps = float(eps)
    if not (0 <= eps <= 1 - 1 / q):
        raise ValueError(f"eps must lie in [0, 1 - 1/q], got {eps}")
    return 1 - q_ary_entropy(q, 1 - 1 / q - eps)


def capacity_rate_small_eps(q: int, eps) -> float:
    """Leading term of capacity_rate as eps -> 0 (natural-log calculus)."""
    eps = float(eps)
    if q < 2 or eps < 0:
        raise ValueError("need q >= 2 and eps >= 0")
    return q * eps * eps / (2 * math.log(q) * (1 - 1 / q))


# -- average-radius agreement bounds --------------------------------------------


def johnson_agreement_bound_eps(n, q, L, eps, pairwise_distance_sum):
    """Distance-sensitive agreement bound with a tunable slack parameter.

    Upper-bounds the total agreement of any L codewords with any received
    word, given the sum of relative distances over ordered pairs of the L
    codewords (a value in [0, L*(L-1)]). Exact when fed exact inputs.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    _check_pair_sum(L, pairwise_distance_sum)
    one = Fraction(1) if isinstance(eps, (int, Fraction)) else 1.0
    return (
        one * n * L / q
        + (n * L / (2 * eps)) * (one + eps * eps) * (one - one / q)
        - (n / (2 * L * eps)) * pairwise_distance_sum
    )


def johnson_agreement_bound_root(n, L, pairwise_distance_sum) -> float:
    """Square-root agreement bound: no alphabet or slack parameter."""
    _check_pair_sum(L, pairwise_distance_sum)
    radicand = n * n + 4 * n * n * (L * (L - 1) - pairwise_distance_sum)
    assert radicand >= 0  # guaranteed by the pair-sum range
    return 0.5 * (n + math.sqrt(float(radicand)))


def root_bound_exceeded(n, L, pairwise_distance_sum, agreement_sum) -> bool:
    """Exact test for agreement_sum > johnson_agreement_bound_root(...).

    Avoids the float square root: S > (n + sqrt(r))/2 iff 2S - n > 0 and
    (2S - n)^2 > r. All arithmetic stays in integers/Fractions.
    """
    _check_pair_sum(L, pairwise_distance_sum)
    radicand = n * n + 4 * n * n * (L * (L - 1) - pairwise_distance_sum)
    lhs = 2 * agreement_sum - n
    return lhs > 0 and lhs * lhs > radicand


def _check_pair_sum(L, pairwise_distance_sum) -> None:
    if L < 1:
        raise ValueError(f"need at least one codeword, got L={L}")
    if not (0 <= pairwise_distance_sum <= L * (L - 1)):
        raise ValueError(
            f"ordered-pair distance sum must lie in [0, {L * (L - 1)}], "
            f"got {pairwise_distance_sum}"
        )


# -- sampled-code agreement bound ------------------------------------------------


def random_code_agreement_bound(
    E, L: int, N: int, cfg: ConstantsConfig = ConstantsConfig(), *, q: int | None = None
) -> float:
    """Expected-maximum agreement bound for column-sampled codes.

    Returns E + Y + sqrt(E*Y) with Y = C0 * L * log2(N) * log2(L)^5. Passing
    an alphabet size `q` replaces one log2(L) factor by min(log2(L),
    log2(q)); this sharper variant is off by default.
    """
    E = float(E)
    if E < 0:
        raise ValueError(f"expected-value term must be >= 0, got {E}")
    if L < 2:
        raise ValueError(f"list size must be >= 2, got {L}")
    if N < 2:
        raise ValueError(f"code size must be >= 2, got {N}")
    log_l = _log2(L)
    last = log_l if q is None else min(log_l, _log2(q))
    y = cfg.C0 * L * _log2(N) * log_l**4 * last
    return E + y + math.sqrt(E * y)


def is_large_q(q: int, eps) -> bool:
    """The large-q regime q * eps^2 > 1, decided exactly on Fraction(eps)."""
    return q * Fraction(eps) ** 2 > 1


def corollary_list_size(variant: str, eps) -> int:
    """The corollary's list size, exact on Fraction(eps): ceil(2/eps^2) for
    small-q, ceil(1/eps) for large-q."""
    eps = Fraction(eps)
    if variant == "small-q":
        return math.ceil(2 / eps**2)
    if variant == "large-q":
        return math.ceil(1 / eps)
    raise ValueError(f"variant must be 'small-q' or 'large-q', got {variant!r}")


def decodable_blocklength(
    q: int, eps, variant: str, k: int, cfg: ConstantsConfig = ConstantsConfig()
) -> int:
    """Minimal blocklength the sampling guarantees need, rounded up.

    variant "small-q": list size 2/eps^2, denominator min(eps, q*eps^2);
    variant "large-q": needs q > 1/eps^2, list size 1/eps, a factor-2
    numerator, and denominator eps. The list size and the regime are exact
    on Fraction(eps); the rest is float arithmetic.
    """
    eps_f = float(eps)
    if q < 2 or k < 1:
        raise ValueError("need q >= 2 and k >= 1")
    if not (0 < eps_f < 1 and eps_f**2 >= sys.float_info.min):
        raise ValueError(f"eps must lie in (0, 1), with eps^2 a normal float, got {eps_f}")
    lst = corollary_list_size(variant, eps)
    log_n_codewords = k * _log2(q)
    if variant == "small-q":
        value = cfg.C0 * log_n_codewords * _log2(lst) ** 5 / min(eps_f, q * eps_f**2)
    else:
        if not is_large_q(q, eps):
            raise ValueError(f"large-q variant needs q > 1/eps^2, got q={q}, eps={eps_f}")
        if lst < 2:
            raise ValueError(f"large-q list size 1/eps must be >= 2, got eps={eps_f}")
        value = 2 * cfg.C0 * log_n_codewords * _log2(lst) ** 5 / eps_f
    if not math.isfinite(value):
        raise ValueError(f"eps is too small: the blocklength overflows a float, got {eps_f}")
    return math.ceil(value)


# -- rate comparison --------------------------------------------------------------


@dataclass(frozen=True)
class RateSummary:
    """The three displayed rate expressions at one (q, eps) point."""

    q: int
    eps: float
    rs_rate: float
    rlc_rate: float
    johnson_rate: float

    @property
    def beats_johnson(self) -> bool:
        return self.rs_rate > self.johnson_rate


def rate_summary(q: int, eps: float, cfg: ConstantsConfig = ConstantsConfig()) -> RateSummary:
    """Rates of the sampled evaluation-point and sampled linear constructions
    against the generic square-root-bound rate eps^2."""
    eps = float(eps)
    if q < 2 or not _is_real(q):
        raise ValueError(f"alphabet size must be >= 2 and convert to a finite float, got {q}")
    if not (0 < eps < 0.5 and eps**2 >= sys.float_info.min):
        raise ValueError(f"eps must lie in (0, 1/2), with eps^2 a normal float, got {eps}")
    log_inv = _log2(1 / eps) ** 5
    rs = eps / (_log2(q) * log_inv)
    rlc = min(eps, q * eps * eps) / (2 * cfg.C0 * _log2(q) * log_inv)
    return RateSummary(q, eps, rs, rlc, eps * eps)


# -- tail helpers -------------------------------------------------------------------


def hoeffding_tail(ranges, v) -> float:
    """Two-sided tail bound 2*exp(-2 v^2 / sum (b-a)^2) for bounded sums."""
    v = float(v)
    if v < 0:
        raise ValueError(f"deviation must be >= 0, got {v}")
    denom = 0.0
    for a, b in ranges:
        if b < a:
            raise ValueError(f"range ({a}, {b}) has b < a")
        width = float(b) - float(a)
        denom += width * width
    if not math.isfinite(denom):
        raise ValueError("ranges are too wide: the sum of squared widths overflows a float")
    if denom == 0:
        return 2.0 if v == 0 else 0.0
    return 2.0 * math.exp(-2.0 * v * v / denom)


def gaussian_max_bound(sigma: float, n: int) -> float:
    """Upper bound on the expected maximum absolute value of n Gaussians
    with standard deviations at most sigma."""
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n < 2:
        raise ValueError(f"need n >= 2 variables, got {n}")
    ln_n = math.log(n)
    return sigma * math.sqrt(2 * ln_n) + sigma / math.sqrt(math.pi * ln_n)


# -- CLI-facing dispatcher -----------------------------------------------------------


# each named bound: the parameters it requires and its evaluator; "variant"
# is a string, "ranges" a list of (a, b) pairs, the sizes in _INT_PARAMS
# integers (an alphabet size q at least 2), and every other parameter a real
# number or a fraction string such as "1/7"
_BOUNDS = {
    "entropy": (("q", "x"), lambda p, cfg: q_ary_entropy(p["q"], p["x"])),
    "capacity": (("q", "eps"), lambda p, cfg: capacity_rate(p["q"], p["eps"])),
    "capacity-small-eps": (
        ("q", "eps"),
        lambda p, cfg: capacity_rate_small_eps(p["q"], p["eps"]),
    ),
    "johnson-eps": (
        ("n", "q", "L", "eps", "pair_sum"),
        lambda p, cfg: johnson_agreement_bound_eps(p["n"], p["q"], p["L"], p["eps"], p["pair_sum"]),
    ),
    "johnson-root": (
        ("n", "L", "pair_sum"),
        lambda p, cfg: johnson_agreement_bound_root(p["n"], p["L"], p["pair_sum"]),
    ),
    "sampled-agreement": (
        ("E", "L", "N"),
        lambda p, cfg: random_code_agreement_bound(p["E"], p["L"], p["N"], cfg, q=p.get("q")),
    ),
    "blocklength": (
        ("q", "eps", "variant", "k"),
        lambda p, cfg: decodable_blocklength(p["q"], p["eps"], p["variant"], p["k"], cfg),
    ),
    "hoeffding": (("ranges", "v"), lambda p, cfg: hoeffding_tail(p["ranges"], p["v"])),
    "gaussian-max": (("sigma", "n"), lambda p, cfg: gaussian_max_bound(p["sigma"], p["n"])),
}


def _is_real(v) -> bool:
    """A number (not a bool) that converts to a finite float."""
    if not isinstance(v, Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


_INT_PARAMS = frozenset(("q", "n", "L", "N", "k"))


def _real(v):
    """A real param as evaluated: a fraction string is its Fraction, or None."""
    with contextlib.suppress(ValueError, ZeroDivisionError):
        return Fraction(v) if isinstance(v, str) else v


def _param_ok(key: str, v) -> bool:
    if key in _INT_PARAMS:
        return _is_real(v) and isinstance(v, int) and (key != "q" or v >= 2)
    if key == "variant":
        return isinstance(v, str)
    if key == "ranges":
        return isinstance(v, (list, tuple)) and all(
            isinstance(r, (list, tuple)) and len(r) == 2 and all(map(_is_real, r)) for r in v
        )
    return _is_real(_real(v))


def _check_params(name: str, params) -> None:
    if not isinstance(params, dict):
        raise ValueError(f"params of bound {name!r} must be a JSON object")
    keys = _BOUNDS[name][0]
    missing = [key for key in keys if key not in params]
    if missing:
        raise ValueError(f"bound {name!r} needs params {missing}")
    if name == "sampled-agreement" and params.get("q") is not None:
        keys += ("q",)  # the optional alphabet size
    for key in keys:
        if not _param_ok(key, params[key]):
            raise ValueError(f"bound {name!r} got an invalid {key}: {params[key]!r}")


def evaluate_bound(name: str, params: dict, cfg: ConstantsConfig = ConstantsConfig()) -> BoundReport:
    """Evaluate one named bound from a flat parameter dict."""
    if name not in _BOUNDS:
        raise ValueError(f"unknown bound {name!r}")
    _check_params(name, params)
    p = dict(params)
    value = _BOUNDS[name][1]({k: v if k == "variant" else _real(v) for k, v in p.items()}, cfg)
    return BoundReport(name, p, float(value))
