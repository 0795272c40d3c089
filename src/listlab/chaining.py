"""Gaussian processes over plurality vectors and the net hierarchy.

The process of interest assigns to a coordinate set I and a codeword set
Lambda the Gaussian sum X(I, Lambda) = sum_{j in I} g_j * pl_j(Lambda). This
module samples it, builds the multilevel net hierarchy that controls its
supremum (heavy-coordinate restriction plus random halving of the codeword
set, realized as rejection sampling), and runs the Monte Carlo checks behind
the halving step: half-subset concentration and symmetrization comparisons.

Conventions: list-size logarithms are base 2; the union-bound diagnostics
(net sizes, increment scales) use natural logs where they arise from Gaussian
tails. Plurality vectors are exact rationals; the acceptance conditions of
the halving step are evaluated in float arithmetic (documented, since their
right-hand sides involve square roots).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import Budgets, ConstantsConfig
from .linear_code import LinearCode, lex_digits
from .plurality import (
    CodeFamily,
    MessageSet,
    _batch_size,
    _counts_side_by_side,
    candidate_message_sets,
    plurality_counts_array,
    plurality_mass,
    plurality_profile,
)
from .reports import Record
from .seeds import rng_for, streams

DEFAULT_RETRY_LIMIT = 200
# draws of the sampled plurality mass that stands in for an infeasible exact Q
SUPREMUM_MASS_TRIALS = 2000


# -- chain parameters -----------------------------------------------------------


@dataclass(frozen=True)
class ChainParams(Record):
    """Knobs for one net hierarchy: level count, halving width, heaviness."""

    list_size: int
    eta: float
    t_max: int
    gamma: float
    constants: ConstantsConfig
    retry_limit: int
    degenerate: bool

    def q_bound(self, q_base: float, t: int) -> float:
        """Level-t budget for the heavy plurality sum: (1+eta)^t * q_base."""
        return (1 + self.eta) ** t * q_base


def chain_params(
    L: int,
    cfg: ConstantsConfig = ConstantsConfig(),
    eta: float | None = None,
    retry_limit: int = DEFAULT_RETRY_LIMIT,
) -> ChainParams:
    """Derive the chain knobs for a level-0 set of L codewords.

    eta defaults to 1/log2(L), clamped to the legal ceiling 1/2 (tiny L
    would otherwise push it above). The level count is
    floor((log2(L) - 2*log2(1/eta) - 2) / log2(2/(1-eta))); when that is
    not positive, or L is at or below the applicability floor c0, the chain
    is degenerate: a single level and no halving steps.
    """
    cfg.validate_chaining()
    if L < 2:
        raise ValueError(f"need at least 2 codewords to chain, got {L}")
    if retry_limit < 1:
        raise ValueError("retry limit must be >= 1")
    log_l = math.log2(L)
    if eta is None:
        eta = min(0.5, 1 / log_l)
    if not (0 < eta <= 0.5 and eta**2 >= sys.float_info.min):
        raise ValueError(f"eta must lie in (0, 1/2], with eta^2 a normal float, got {eta}")
    t_raw = (log_l - 2 * math.log2(1 / eta) - 2) / math.log2(2 / (1 - eta))
    t_max = math.floor(t_raw)
    gamma = 4 * cfg.c1 * log_l / ((1 - eta) ** 2 * eta**2)
    degenerate = t_max <= 0 or L <= cfg.c0
    if degenerate:
        t_max = 0
    return ChainParams(L, float(eta), t_max, gamma, cfg, retry_limit, degenerate)


# -- net levels -------------------------------------------------------------------


@dataclass(frozen=True)
class NetLevel(Record):
    """One level of the hierarchy plus its step diagnostics.

    Step fields describe the move from the previous level and are None at
    level 0. All plurality sums are exact; the step metrics are floats.
    """

    level: int
    coords: tuple[int, ...]
    lam: MessageSet
    lam_size: int
    pl_sum: Fraction
    q_bound: float
    size_guard: bool
    retries: int = 0
    step_distance: float | None = None
    width_rhs: float | None = None
    holder_lhs: float | None = None
    holder_rhs: float | None = None

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["messages"] = [list(m) for m in doc.pop("lam")]
        return {**doc, "pl_sum_float": float(self.pl_sum)}


@dataclass(frozen=True)
class NetBuildResult(Record):
    """Outcome of one hierarchy construction."""

    params: ChainParams
    levels: tuple[NetLevel, ...]
    success: bool
    failed_level: int | None
    condition_failures: tuple[int, int, int]
    q_base: Fraction
    min_sufficient_c4: float | None
    increment_scales: tuple[float, ...]
    union_bound_terms: tuple[float, ...]
    log2_net_sizes: tuple[float, ...]

    def as_dict(self) -> dict:
        return {**super().as_dict(), "q_base_float": float(self.q_base)}


def _log2_binomial(n: int, k: int) -> float:
    k = min(k, n)
    if k < 0:
        return float("-inf")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


def _log2_net_sizes(n_codewords: int, L: int, c6: float, t_top: int) -> tuple[float, ...]:
    """log2 of the net-size bounds per level: level 0 counts L-subsets, later
    levels pay for the heavy-set choice and the halved codeword set."""
    out = [_log2_binomial(n_codewords, L)]
    for t in range(1, t_top + 1):
        cur = math.floor(math.e * L / 2**t)
        prev = math.floor(math.e * L / 2 ** (t - 1))
        out.append(
            math.log2(c6)
            + _log2_binomial(n_codewords, cur)
            + _log2_binomial(n_codewords, prev)
        )
    return tuple(out)


def build_nets(
    code: LinearCode,
    lam0: MessageSet,
    seed: int = 0,
    *,
    params: ChainParams,
) -> NetBuildResult:
    """Build the net hierarchy from a level-0 codeword set.

    Each step fixes the heavy coordinates (plurality count at least gamma)
    deterministically, then draws fair-coin subsets of the current codeword
    set until the three halving conditions hold: size within (1 +- eta)/2 of
    half, heavy plurality sum not growing by more than the allowed slack,
    and a bounded per-coordinate l2 move. Runs out of retries -> returned
    with success=False and the per-condition failure counts (each draw
    succeeds with probability at least 1/6, so this is rare).

    Degenerate parameter sets return the single level 0. The number of
    codewords must exceed twice the set size.
    """
    if params.list_size != len(lam0):
        raise ValueError(
            f"params built for list size {params.list_size}, set has {len(lam0)}"
        )
    L = len(lam0)
    if code.size <= 2 * L:
        raise ValueError(f"need more than 2L = {2 * L} codewords, code has {code.size}")
    q, c1, eta_v = code.field.q, params.constants.c1, params.eta
    log_l = math.log2(L)
    words = code.encode_all(lam0.messages)
    rows, coords = np.arange(L), np.arange(code.n)
    counts = plurality_counts_array(words, q)[0]
    q_base = Fraction(int(counts.sum()), L)
    levels = [
        NetLevel(
            level=0,
            coords=tuple(range(code.n)),
            lam=lam0,
            lam_size=L,
            pl_sum=q_base,
            q_bound=float(q_base),
            size_guard=L >= 4 / eta_v**2,
        )
    ]
    fails = [0, 0, 0]
    min_c4 = failed_level = None

    for t in range(params.t_max):
        m_t = len(rows)
        q_t = params.q_bound(float(q_base), t)
        heavy = np.nonzero(counts >= params.gamma)[0]
        pl_t = counts / m_t
        lo, hi = (1 - eta_v) / 2 * m_t, (1 + eta_v) / 2 * m_t
        for attempt in range(params.retry_limit):
            sub = rows[rng_for(seed, t, attempt).random(m_t) < 0.5]
            m_new = len(sub)
            if not (lo <= m_new <= hi):
                fails[0] += 1
                continue
            counts_new = plurality_counts_array(words[sub], q)[0]
            pl_new = counts_new / m_new
            if heavy.size:
                slack = np.sqrt(c1 * m_t * log_l * pl_t[heavy]).sum() / m_new
                if pl_new[heavy].sum() > pl_t[heavy].sum() + slack:
                    fails[1] += 1
                    continue
                move = math.sqrt(float(((pl_new[heavy] - pl_t[heavy]) ** 2).sum()))
                if move > math.sqrt(c1 * m_t * log_l * q_t) / m_new:
                    fails[2] += 1
                    continue
            break
        else:
            failed_level = t + 1
            break
        # step metrics: l2 distance between the plurality vectors restricted to
        # the old and new coordinates, the width budget, and the Holder control
        # of the dropped mass (counts only shrink, so heavy lies inside coords)
        step_vec = np.zeros(code.n)
        step_vec[coords] = pl_t[coords]
        step_vec[heavy] -= pl_new[heavy]
        step_distance = math.sqrt(float((step_vec**2).sum()))
        if q_t > 0:
            needed = step_distance * eta_v * math.sqrt(m_t) / math.sqrt(q_t * log_l)
            min_c4 = needed if min_c4 is None else max(min_c4, needed)
        dropped = pl_t[coords[counts[coords] < params.gamma]].tolist()  # coords minus heavy
        rows, counts, coords = sub, counts_new, heavy
        levels.append(
            NetLevel(
                level=t + 1,
                coords=tuple(heavy.tolist()),
                lam=MessageSet(tuple(lam0.messages[i] for i in rows)),
                lam_size=m_new,
                pl_sum=Fraction(int(counts[heavy].sum()), m_new),
                q_bound=params.q_bound(float(q_base), t + 1),
                size_guard=m_new >= 4 / eta_v**2,
                retries=attempt,
                step_distance=step_distance,
                width_rhs=params.constants.C4 * math.sqrt(q_t * log_l) / (eta_v * math.sqrt(m_t)),
                # a Python sum in coordinate order: a numpy reduction would reorder the additions
                holder_lhs=math.sqrt(sum(p**2 for p in dropped)),
                holder_rhs=math.sqrt(params.gamma * q_t / m_t),
            )
        )

    t_top = len(levels) - 1
    log_sizes = _log2_net_sizes(code.size, L, params.constants.C6, t_top)
    deltas = tuple(
        math.sqrt(2.0)
        * (math.e * params.constants.C4 / eta_v)
        * math.sqrt(float(q_base) * log_l * 2**t / L)
        for t in range(t_top)
    )
    terms = tuple(
        math.sqrt(2 * max((log_sizes[t] + log_sizes[t + 1]) * math.log(2), 0.0)) * deltas[t]
        for t in range(t_top)
    )
    result = NetBuildResult(
        params=params,
        levels=tuple(levels),
        success=failed_level is None,
        failed_level=failed_level,
        condition_failures=tuple(fails),
        q_base=q_base,
        min_sufficient_c4=min_c4,
        increment_scales=deltas,
        union_bound_terms=terms,
        log2_net_sizes=log_sizes,
    )
    problems = net_invariant_violations(result) if result.success else ()
    if problems:
        raise RuntimeError("net postcondition violated: " + "; ".join(problems))
    return result


# -- Gaussian process sampling ----------------------------------------------------


@dataclass(frozen=True)
class GaussianSampleReport(Record):
    """Empirical summary of X(I, Lambda) over a family of (I, Lambda) pairs."""

    trials: int
    pair_count: int
    variances_exact: tuple[Fraction, ...]
    empirical_means: tuple[float, ...]
    empirical_variances: tuple[float, ...]
    mean_abs_max: float
    seed: int

    def variance_standard_error(self, pair: int) -> float:
        """Standard error of the empirical variance under Gaussian sampling."""
        return float(self.variances_exact[pair]) * math.sqrt(2 / (self.trials - 1))

    def as_dict(self) -> dict:
        return {**super().as_dict(), "variances_float": [float(v) for v in self.variances_exact]}


def gaussian_process_sample(
    code: LinearCode,
    pairs: list[tuple[tuple[int, ...], MessageSet]],
    trials: int = 1000,
    seed: int = 0,
) -> GaussianSampleReport:
    """Sample X(I, Lambda) = sum_{j in I} g_j pl_j(Lambda) for each pair.

    One standard normal vector per trial is shared by all pairs, drawn from
    a per-trial stream keyed on (seed, trial) so that results do not depend
    on evaluation order. The exact variance of each coordinate sum is
    sum_{j in I} pl_j(Lambda)^2, reported alongside the empirical one.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if not pairs:
        raise ValueError("need at least one (coords, set) pair")
    n = code.n
    weights = np.zeros((len(pairs), n))
    exact = []
    for i, (coords, lam) in enumerate(pairs):
        cs = sorted(set(int(j) for j in coords))
        if cs and not (0 <= cs[0] and cs[-1] < n):
            raise ValueError("coordinate out of range")
        pl = plurality_profile(code, lam).pl
        for j in cs:
            weights[i, j] = float(pl[j])
        exact.append(sum((pl[j] ** 2 for j in cs), Fraction(0)))
    samples = np.empty((trials, len(pairs)))
    for t, rng in enumerate(streams((seed, t) for t in range(trials))):
        samples[t] = weights @ rng.standard_normal(n)
    return GaussianSampleReport(
        trials=trials,
        pair_count=len(pairs),
        variances_exact=tuple(exact),
        empirical_means=tuple(samples.mean(axis=0).tolist()),
        empirical_variances=tuple(samples.var(axis=0, ddof=1).tolist()),
        mean_abs_max=float(np.abs(samples).max(axis=1).mean()),
        seed=seed,
    )


# -- half-subset concentration ------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport(Record):
    """Per-coordinate moments of the half-subset plurality deviation."""

    mode: str
    trials: int
    set_size: int
    pl: tuple[Fraction, ...]
    first_moment: tuple[float, ...]
    second_moment: tuple[float, ...]
    first_bound: tuple[float, ...]
    second_bound: tuple[float, ...]
    min_sufficient_c5: float
    configured_c5: float
    satisfied_with_configured: bool
    seed: int


def concentration_check(
    code: LinearCode,
    lam: MessageSet,
    trials: int = 2000,
    seed: int = 0,
    cfg: ConstantsConfig = ConstantsConfig(),
    *,
    budgets: Budgets = Budgets(),
) -> ConcentrationReport:
    """Check the two half-subset concentration moments per coordinate.

    For a fair-coin subset S of the codeword set, this bounds
    E[|S| * |pl_j - pl_j(S)|] by sqrt(C5 * L * log2(L) * pl_j) and
    E[|S|^2 (pl_j - pl_j(S))^2] by C5 * L * log2(L) * pl_j. When the 2^L - 1
    nonempty subsets fit `budgets.max_subsets` (capped at 4,095) all are
    enumerated (exact rational moments); else `trials` subsets are sampled.
    The empty subset contributes zero through its |S| weight. The report
    carries the smallest C5 that makes both inequalities hold as observed.
    """
    L = len(lam)
    if L < 2:
        raise ValueError("need at least 2 codewords")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    q = code.field.q
    words = code.encode_all(lam.messages)
    counts_full = plurality_counts_array(words, q)[0]
    n = code.n
    log_l = math.log2(L)
    pl_exact = tuple(Fraction(int(c), L) for c in counts_full)

    # capped at 2^12 - 1: each subset costs a plurality-counter call, not a DFS leaf
    if (1 << L) - 1 <= min(budgets.max_subsets, 4095):
        mode = "exact"
        total = 1 << L
        # member[bits, i] is bit i of bits; the empty subset's row contributes zero
        member = lex_digits(2, L, np.arange(total))[::-1].T == 1
        counts_s = np.zeros((total, n), dtype=np.int16)
        for bits in range(1, total):
            counts_s[bits] = plurality_counts_array(words[member[bits]], q)[0]
        # integer sums of |S| * |pl_j - pl_j(S)| * L and its square, so the
        # moments are exact rationals until the final float conversion
        sizes = member.sum(axis=1, dtype=np.int16)[:, None]
        diff = np.abs(sizes * counts_full.astype(np.int16) - L * counts_s)
        sum1 = diff.sum(axis=0, dtype=np.int64)
        sum2 = np.einsum("ij,ij->j", diff, diff, dtype=np.int64)
        m1 = [float(Fraction(int(v), L * total)) for v in sum1]
        m2 = [float(Fraction(int(v), L * L * total)) for v in sum2]
        trials_used = total
    else:
        mode = "sampled"
        keep = rng_for(seed).random((trials, L)) < 0.5
        # row i left out of a subset reads symbol q + i, which counts at most 1,
        # so a nonempty subset's counts are exact; the empty one adds zero
        keep = keep[keep.any(axis=1)]
        fill = q + np.arange(L)[:, None]
        step = _batch_size(q + L, n, L)
        acc1 = acc2 = np.zeros((1, n))
        for lo in range(0, len(keep), step):
            part = keep[lo : lo + step]
            counts_s = _counts_side_by_side(np.where(part[:, :, None], words, fill), q + L)
            dev = np.abs(part.sum(axis=1)[:, None] * counts_full / L - counts_s)
            # running sums in trial order, as one += per trial would round them
            acc1 = np.add.accumulate(np.vstack([acc1, dev]))[-1:]
            acc2 = np.add.accumulate(np.vstack([acc2, dev**2]))[-1:]
        m1 = (acc1[0] / trials).tolist()
        m2 = (acc2[0] / trials).tolist()
        trials_used = trials

    scale = L * log_l
    b1 = [math.sqrt(cfg.C5 * scale * float(p)) for p in pl_exact]
    b2 = [cfg.C5 * scale * float(p) for p in pl_exact]
    needed = 0.0
    for j in range(n):
        denom = scale * float(pl_exact[j])
        needed = max(needed, m1[j] ** 2 / denom, m2[j] / denom)
    return ConcentrationReport(
        mode=mode,
        trials=trials_used,
        set_size=L,
        pl=pl_exact,
        first_moment=tuple(m1),
        second_moment=tuple(m2),
        first_bound=tuple(b1),
        second_bound=tuple(b2),
        min_sufficient_c5=needed,
        configured_c5=cfg.C5,
        satisfied_with_configured=all(
            m1[j] <= b1[j] and m2[j] <= b2[j] for j in range(n)
        ),
        seed=seed,
    )


# -- symmetrization -----------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrizationReport(Record):
    """Deviation / Rademacher / Gaussian comparison for a random code family."""

    deviation: float
    deviation_se: float
    rademacher: float
    rademacher_se: float
    gaussian: float
    gaussian_se: float
    trials: int
    pilot_trials: int
    lambda_sets: int
    lambda_family: str
    family: dict
    deviation_vs_rademacher_ok: bool
    rademacher_vs_gaussian_ok: bool
    seed: int


def _pl_matrix(code: LinearCode, lams: list[MessageSet]) -> np.ndarray:
    """(len(lams), n) float plurality vectors of message sets of one size L.

    Each batch of sets is encoded in one call and counted side by side in
    one more; counts / L rounds exactly as float(Fraction(count, L)) does.
    """
    q, n, L = code.field.q, code.n, len(lams[0])
    step = _batch_size(q, n, L)
    out = np.empty((len(lams), n))
    for lo in range(0, len(lams), step):
        part = lams[lo : lo + step]
        words = code.encode_all([m for lam in part for m in lam])
        out[lo : lo + len(part)] = _counts_side_by_side(words.reshape(len(part), L, n), q) / L
    return out


def symmetrization_check(
    family: CodeFamily,
    L: int,
    trials: int = 200,
    seed: int = 0,
    n_candidates: int = 8,
) -> SymmetrizationReport:
    """Compare the centered plurality-sum deviation with its Rademacher and
    Gaussian symmetrizations over a random code family.

    D estimates E_C max_Lambda |sum_j (pl_j - E pl_j)|, with E pl_j taken
    from an independent pilot sample of `trials` codes. R and G replace the
    centering by independent sign flips / standard normals. The classical
    comparisons are D <= 2R and R <= sqrt(pi/2) G; each is checked up to
    three combined standard errors. The Lambda family is sampled, and
    flagged as such.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    # allocated first, so a trial count past numpy's array limit is a ValueError
    d_vals, r_vals, g_vals = np.empty((3, trials))
    lams = candidate_message_sets(family.field, family.k, L, n_candidates, seed)
    # pl_j of a drawn code is pl of its parent column, so one table over the
    # distinct drawn columns serves every trial: pilot draws first, then main
    draws = np.array([c for s in (seed + 1_000_003, seed) for c in family.columns(s, range(trials))])
    used, where = np.unique(draws, return_inverse=True)
    where = where.reshape(draws.shape)
    table = _pl_matrix(family.code_on(used), lams)
    mean_pl = np.zeros((len(lams), family.n))
    for cols in where[:trials]:
        mean_pl += table.take(cols, axis=1)
    mean_pl /= trials

    # trial t's signs and normals come from rng_for(seed, t, 1) and (seed, t, 2)
    rngs = streams((seed, t, s) for t in range(trials) for s in (1, 2))
    for t, cols in enumerate(where[trials:]):
        # take, not table[:, cols]: a C-ordered matrix, as BLAS rounds by layout
        mat = table.take(cols, axis=1)
        signs = 1 - 2 * next(rngs).integers(0, 2, size=family.n)
        gauss = next(rngs).standard_normal(family.n)
        d_vals[t] = np.abs((mat - mean_pl).sum(axis=1)).max()
        r_vals[t] = np.abs(mat @ signs).max()
        g_vals[t] = np.abs(mat @ gauss).max()

    def stderr(v):
        return float(v.std(ddof=1) / math.sqrt(trials))

    d, r, g = float(d_vals.mean()), float(r_vals.mean()), float(g_vals.mean())
    d_se, r_se, g_se = stderr(d_vals), stderr(r_vals), stderr(g_vals)
    first_ok = d <= 2 * r + 3 * math.sqrt(d_se**2 + 4 * r_se**2)
    ratio = math.sqrt(math.pi / 2)
    second_ok = r <= ratio * g + 3 * math.sqrt(r_se**2 + ratio**2 * g_se**2)
    return SymmetrizationReport(
        deviation=d,
        deviation_se=d_se,
        rademacher=r,
        rademacher_se=r_se,
        gaussian=g,
        gaussian_se=g_se,
        trials=trials,
        pilot_trials=trials,
        lambda_sets=len(lams),
        lambda_family="sampled",
        family=family.descriptor(),
        deviation_vs_rademacher_ok=first_ok,
        rademacher_vs_gaussian_ok=second_ok,
        seed=seed,
    )


# -- empirical supremum against the chaining target ---------------------------------


@dataclass(frozen=True)
class SupremumReport(Record):
    """Empirical E max |X| against C3 * sqrt(Q * log2(N) * log2(L)^5)."""

    empirical: float
    target: float
    min_sufficient_c3: float
    q_hat: Fraction
    q_hat_exact: bool
    lambda_sets: int
    trials: int
    configured_c3: float
    satisfied: bool
    seed: int

    def as_dict(self) -> dict:
        return {**super().as_dict(), "q_hat_float": float(self.q_hat)}


def gaussian_supremum_experiment(
    code: LinearCode,
    L: int,
    n_candidates: int = 16,
    trials: int = 1000,
    seed: int = 0,
    cfg: ConstantsConfig = ConstantsConfig(),
    *,
    budgets: Budgets = Budgets(),
) -> SupremumReport:
    """Estimate E max over candidate sets of |X([n], Lambda)| and compare it
    to C3 * sqrt(Q * log2(N) * log2(L)^5).

    Q is the maximum plurality mass at list size L: exact on the route that
    `budgets.mass_route(sampled=True)` picks, or, when it says "sampled", a
    sampled lower bound (flagged, which makes the target a lower bound). The max
    runs over a sampled family of candidate sets, so the empirical value is
    also a lower bound on the true supremum; the minimal sufficient C3 is
    reported under that reading.
    """
    if L < 2:
        raise ValueError("need list size at least 2")
    if code.size < 4:
        raise ValueError("need at least 4 codewords")
    mode = "sampled" if budgets.mass_route(code, L, sampled=True) == "sampled" else "exact"
    mass = plurality_mass(code, L, mode, trials=SUPREMUM_MASS_TRIALS, seed=seed, budgets=budgets)
    lams = candidate_message_sets(code.field, code.k, L, n_candidates, seed)
    coords = tuple(range(code.n))
    sample = gaussian_process_sample(code, [(coords, lam) for lam in lams], trials, seed)
    scale = math.sqrt(
        float(mass.value) * math.log2(code.size) * math.log2(L) ** 5
    )
    emp = sample.mean_abs_max
    return SupremumReport(
        empirical=emp,
        target=cfg.C3 * scale,
        min_sufficient_c3=emp / scale,
        q_hat=mass.value,
        q_hat_exact=mass.exact,
        lambda_sets=len(lams),
        trials=trials,
        configured_c3=cfg.C3,
        satisfied=emp <= cfg.C3 * scale,
        seed=seed,
    )


def net_invariant_violations(result: NetBuildResult) -> tuple[str, ...]:
    """Postcondition check for accepted hierarchies; empty means clean.

    Verifies the plurality-sum budget, the set-size brackets, the nesting of
    both set sequences, and the Holder control of each dropped-coordinate
    block. A nonempty answer on a success result is a bug, not bad luck.
    """
    out = []
    p = result.params
    L = p.list_size
    qb = float(result.q_base)
    tol = 1e-9
    for lv in result.levels:
        budget = p.q_bound(qb, lv.level)
        if float(lv.pl_sum) > budget * (1 + tol) + tol:
            out.append(f"level {lv.level}: plurality sum {float(lv.pl_sum)} > budget {budget}")
        lo = ((1 - p.eta) / 2) ** lv.level * L
        hi = ((1 + p.eta) / 2) ** lv.level * L
        if not (lo - tol <= lv.lam_size <= hi + tol):
            out.append(f"level {lv.level}: size {lv.lam_size} outside [{lo}, {hi}]")
        if lv.level > 0:
            prev = result.levels[lv.level - 1]
            if not set(lv.coords) <= set(prev.coords):
                out.append(f"level {lv.level}: coordinates not nested")
            if not set(lv.lam) <= set(prev.lam):
                out.append(f"level {lv.level}: codeword set not nested")
            if lv.holder_lhs > lv.holder_rhs + tol:
                out.append(
                    f"level {lv.level}: Holder {lv.holder_lhs} > {lv.holder_rhs}"
                )
    return tuple(out)
