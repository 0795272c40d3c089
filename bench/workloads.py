"""Job pools for the listlab benchmark and their seeded selection.

A workload is a list of families. A family has POOL_VARIANTS variants, each
an input (usually one code file plus a few parameters), and one or more job
classes that turn a variant into a `listlab` argv list. Every variant of a
class costs the same work (same field, length, code size and list size), so
which variants a seed picks changes the inputs but not the mix of work.

A run with workload seed s picks RUN_VARIANTS variants per family and plays
them in rounds: round i runs every class once on the family's i-th picked
variant, in a seed-shuffled class order. Every workload has 15 classes: over
whole rounds the nearest-rank p50 and p90 then sit in the middle of one
class's samples (7.5 and 1.5 classes from the slowest), not on the edge
between two classes of different cost, whatever order the costs take. The pool itself comes from the fixed
POOL_SEED, so the exit code and canonical digest of every pool job can be
recorded once (expected.json) and checked on any seed.

The generator uses its own SplitMix64 stream rather than `random` or numpy,
whose streams may change between versions; a changed job list would no
longer match the recorded digests.
"""

from __future__ import annotations

from dataclasses import dataclass

POOL_SEED = 20131007
POOL_VARIANTS = 12
RUN_VARIANTS = 6

WORK_DIR = ".bench_work"
CODE_DIR = WORK_DIR + "/codes"

_MASK = (1 << 64) - 1


class SplitMix:
    """SplitMix64: a small generator whose output is fixed by its definition."""

    def __init__(self, *key: int):
        state = 0
        for k in key:
            state = self._mix((state ^ (k & _MASK)) + 0x9E3779B97F4A7C15)
        self.state = state

    @staticmethod
    def _mix(z: int) -> int:
        z &= _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        return self._mix(self.state)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class Job:
    """One CLI call: `argv` for `listlab.cli.main`, keyed by a stable id."""

    id: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Variant:
    """One input of a family: an optional code file and free parameters."""

    index: int
    code_path: str | None
    make_argv: tuple[str, ...] | None
    params: dict


@dataclass(frozen=True)
class Family:
    name: str
    variants: tuple[Variant, ...]
    classes: tuple[tuple[str, object], ...]  # (class name, variant -> argv)


def _code_variant(family: str, index: int, make_argv: list[str], **params) -> Variant:
    path = f"{CODE_DIR}/{family}-v{index:02d}.json"
    return Variant(index, path, tuple(make_argv), params)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# -- scan: exhaustive received-word scans -------------------------------------

SCAN_SHAPES = ((5, 6), (5, 7), (7, 5), (7, 6), (8, 5), (8, 6))
BEYOND_JOHNSON_SHAPES = ((5, 7), (7, 5))
# `plurality Q` list sizes per (q, n): C(N, L) exceeds the subset budget and
# q^n * N, so plurality_mass takes its exact received-word scan route
SCAN_Q_LIST_SIZE = {(8, 5): 5}


def _scan_families() -> list[Family]:
    fams = []
    for q, n in SCAN_SHAPES:
        name = f"rs-q{q}n{n}"
        rng = SplitMix(POOL_SEED, 1, q, n)
        variants = []
        for v in range(POOL_VARIANTS):
            while True:  # evaluation points drawn with replacement, not all equal
                evals = [rng.below(q) for _ in range(n)]
                top = max(evals.count(a) for a in set(evals))
                if top < n:
                    break
            # k = 2: a nonzero codeword a + b*x vanishes on one point value
            # at most, so d = n - (largest point multiplicity); a radius
            # below d/2 keeps every ball to one codeword, a decodable verdict
            # that still scans all q^n received words
            d = n - top
            variants.append(_code_variant(
                name, v,
                ["code", "make", "--kind", "rs", "--q", str(q), "--k", "2",
                 "--evals", _csv(evals)],
                radius=f"{(d - 1) // 2}/{n}",
                list_bound=1 + rng.below(3),
            ))
        classes = [
            (f"profile-q{q}n{n}", lambda v: [
                "oracle", "profile", "--code", v.code_path, "--max-list-size", "3"]),
            (f"check-q{q}n{n}", lambda v: [
                "oracle", "check", "--code", v.code_path,
                "--radius", v.params["radius"],
                "--list-bound", str(v.params["list_bound"])]),
        ]
        if (q, n) in SCAN_Q_LIST_SIZE:
            L = SCAN_Q_LIST_SIZE[q, n]
            classes.append((f"Q-q{q}n{n}-L{L}", lambda v, L=L: [
                "plurality", "Q", "--code", v.code_path, "--list-size", str(L)]))
        fams.append(Family(name, tuple(variants), tuple(classes)))
    for q, n in BEYOND_JOHNSON_SHAPES:
        name = f"bj-q{q}n{n}"
        rng = SplitMix(POOL_SEED, 2, q, n)
        variants = tuple(
            Variant(v, None, None, {"seed": rng.below(1 << 31)}) for v in range(POOL_VARIANTS)
        )
        fams.append(Family(name, variants, (
            (name, lambda v, q=q, n=n: [
                "experiment", "beyond-johnson", "--q", str(q), "--k", "2", "--n", str(n),
                "--l-cap", "3", "--seeds-count", "1", "--seed", str(v.params["seed"])]),
        )))
    return fams


# -- subsets: exact subset enumeration -----------------------------------------

# (q, k, n) of column-sampled Hadamard codes; N = q^k codewords. Each list
# size below keeps C(N, L) under both q^n * N and the default subset budget,
# so plurality_mass takes the exact subset route.
SUBSET_CODES = {
    "had-q2k4n12": (2, 4, 12),
    "had-q2k5n10": (2, 5, 10),
    "had-q3k3n8": (3, 3, 8),
    "had-q4k2n6": (4, 2, 6),
    "had-q5k2n6": (5, 2, 6),
}
SUBSET_Q_LIST_SIZE = {"had-q2k4n12": 6, "had-q2k5n10": 3, "had-q3k3n8": 4,
                      "had-q4k2n6": 6, "had-q5k2n6": 4}
SUBSET_AVG_LIST_BOUND = {"had-q2k4n12": 5, "had-q3k3n8": 3, "had-q4k2n6": 5,
                         "had-q5k2n6": 3}
CONCENTRATION_LIST_SIZE = {"had-q2k5n10": 11, "had-q3k3n8": 10, "had-q4k2n6": 12,
                           "had-q5k2n6": 8}
AVG_RADII = ("1/4", "1/3", "1/2")
# (q, k, eps, n, draws) for `experiment corollary --variant small-q`
COROLLARY_SHAPES = ((2, 4, "49/100", 10, 2), (4, 2, "1/2", 6, 2))


def _subset_families() -> list[Family]:
    fams = []
    for name, (q, k, n) in SUBSET_CODES.items():
        rng = SplitMix(POOL_SEED, 3, q, k, n)
        variants = tuple(
            _code_variant(
                name, v,
                ["code", "make", "--kind", "sample-hadamard", "--q", str(q), "--k", str(k),
                 "--n", str(n), "--seed", str(rng.below(1 << 31))],
                radius=AVG_RADII[rng.below(len(AVG_RADII))],
            )
            for v in range(POOL_VARIANTS)
        )
        classes = []
        L = SUBSET_Q_LIST_SIZE[name]
        classes.append((f"Q-{name}-L{L}", lambda v, L=L: [
            "plurality", "Q", "--code", v.code_path, "--list-size", str(L)]))
        if name in SUBSET_AVG_LIST_BOUND:
            b = SUBSET_AVG_LIST_BOUND[name]
            classes.append((f"avg-{name}-B{b}", lambda v, b=b: [
                "oracle", "check", "--mode", "average-radius", "--code", v.code_path,
                "--radius", v.params["radius"], "--list-bound", str(b)]))
        if name in CONCENTRATION_LIST_SIZE:
            L = CONCENTRATION_LIST_SIZE[name]
            classes.append((f"conc-{name}-L{L}", lambda v, L=L: [
                "chain", "mc", "--check", "concentration", "--code", v.code_path,
                "--list-size", str(L)]))
        fams.append(Family(name, variants, tuple(classes)))
    for q, k, eps, n, draws in COROLLARY_SHAPES:
        name = f"cor-q{q}k{k}n{n}"
        rng = SplitMix(POOL_SEED, 4, q, k, n)
        variants = tuple(
            Variant(v, None, None, {"seed": rng.below(1 << 31)}) for v in range(POOL_VARIANTS)
        )
        fams.append(Family(name, variants, (
            (name, lambda v, q=q, k=k, eps=eps, n=n, draws=draws: [
                "experiment", "corollary", "--variant", "small-q", "--q", str(q),
                "--eps", eps, "--k", str(k), "--n", str(n), "--draws", str(draws),
                "--seed", str(v.params["seed"])]),
        )))
    return fams


# -- sweep: the short and medium commands of a parameter sweep ------------------


def _messages(rng: SplitMix, q: int, k: int, count: int) -> str:
    seen: list[tuple[int, ...]] = []
    while len(seen) < count:
        m = tuple(rng.below(q) for _ in range(k))
        if m not in seen:
            seen.append(m)
    return ";".join(_csv(m) for m in seen)


def _sweep_families() -> list[Family]:
    fams = []

    def family(name: str, key: int, make_variant, *classes) -> None:
        rng = SplitMix(POOL_SEED, 5, key)
        variants = tuple(make_variant(v, rng) for v in range(POOL_VARIANTS))
        fams.append(Family(name, variants, classes))

    def seed_only(v, rng):
        return Variant(v, None, None, {"seed": rng.below(1 << 31)})

    # exact minimum distance over ~1M-codeword row spaces, GF(2^10) and a prime
    family("make-q1024", 1, seed_only, ("make-puncture-rs-q1024", lambda v: [
        "code", "make", "--kind", "puncture-rs", "--q", "1024", "--k", "2",
        "--n", "12", "--seed", str(v.params["seed"])]))
    family("make-q101k3", 2, seed_only, ("make-puncture-rs-q101k3", lambda v: [
        "code", "make", "--kind", "puncture-rs", "--q", "101", "--k", "3",
        "--n", "14", "--seed", str(v.params["seed"])]))

    # code info on 2^16-codeword punctured RS codes over GF(256)
    family("info-q256", 3, lambda v, rng: _code_variant("info-q256", v, [
        "code", "make", "--kind", "puncture-rs", "--q", "256", "--k", "2",
        "--n", "20", "--seed", str(rng.below(1 << 31))]),
        ("info-q256", lambda v: ["code", "info", "--code", v.code_path]))

    # standard oracle checks that find a violation in their first block
    # (q^n * N stays within the default scan budget, which is charged upfront)
    def early(v, rng):
        evals = [rng.below(8) for _ in range(7)]
        return _code_variant("early", v, [
            "code", "make", "--kind", "rs", "--q", "8", "--k", "2", "--evals", _csv(evals)],
            list_bound=2 + rng.below(4))
    family("early", 4, early, ("check-violated", lambda v: [
        "oracle", "check", "--code", v.code_path, "--radius", "6/7",
        "--list-bound", str(v.params["list_bound"])]))

    # plurality vectors of explicit message sets over GF(3)^5 Hadamard samples
    family("plural", 5, lambda v, rng: _code_variant("plural", v, [
        "code", "make", "--kind", "sample-hadamard", "--q", "3", "--k", "5",
        "--n", "243", "--seed", str(rng.below(1 << 31))],
        messages=_messages(rng, 3, 5, 24)),
        *((f"plurality-{action}", lambda v, action=action: [
            "plurality", action, "--code", v.code_path, "--messages", v.params["messages"]])
          for action in ("profile", "maxagr")))

    # net hierarchies at L = 32..128 on punctured RS codes over GF(32); at
    # L = 32 the default eta leaves a single level, eta = 1/2 gives one
    # halving step at L = 64 and 128
    family("nets", 6, lambda v, rng: _code_variant("nets", v, [
        "code", "make", "--kind", "puncture-rs", "--q", "32", "--k", "2",
        "--n", "24", "--seed", str(rng.below(1 << 31))], seed=rng.below(1 << 31)),
        ("chain-build-L32", lambda v: [
            "chain", "build", "--code", v.code_path, "--list-size", "32",
            "--seed", str(v.params["seed"])]),
        ("chain-build-L64", lambda v: [
            "chain", "build", "--code", v.code_path, "--list-size", "64",
            "--eta", "0.5", "--seed", str(v.params["seed"])]),
        ("chain-build-L128", lambda v: [
            "chain", "build", "--code", v.code_path, "--list-size", "128",
            "--eta", "0.5", "--seed", str(v.params["seed"])]),
        ("chain-mc-sampled", lambda v: [
            "chain", "mc", "--code", v.code_path, "--list-size", "24",
            "--trials", "300", "--seed", str(v.params["seed"])]))

    # Gaussian supremum against the chaining target; the exact mass is over
    # budget here, so it falls back to the sampled lower bound
    family("sup", 7, lambda v, rng: _code_variant("sup", v, [
        "code", "make", "--kind", "puncture-rs", "--q", "16", "--k", "2",
        "--n", "12", "--seed", str(rng.below(1 << 31))], seed=rng.below(1 << 31)),
        ("chain-mc-supremum", lambda v: [
            "chain", "mc", "--check", "supremum", "--code", v.code_path,
            "--list-size", "6", "--trials", "200", "--candidates", "8",
            "--seed", str(v.params["seed"])]))

    family("sym", 8, seed_only, ("chain-symmetrize", lambda v: [
        "chain", "symmetrize", "--family", "sampled-rs", "--q", "7", "--k", "2", "--n", "8",
        "--list-size", "4", "--trials", "50", "--candidates", "4",
        "--seed", str(v.params["seed"])]))

    def tables(v, rng):
        qs = sorted(rng.shuffle(list(range(2, 32)))[:4]) + [1 << 20]
        eps = [f"1/{d}" for d in sorted(rng.shuffle(list(range(3, 15)))[:3])]
        return Variant(v, None, None, {"qs": _csv(qs), "eps": _csv(eps),
                                       "k": 2 + rng.below(8), "q": 2 + rng.below(14)})
    family("bounds", 9, tables,
           ("bounds-table", lambda v: [
               "bounds", "table", "--q-grid", v.params["qs"], "--eps-grid", v.params["eps"]]),
           ("bounds-eval", lambda v: [
               "bounds", "eval", "--name", "blocklength", "--params",
               '{"eps": 0.2, "k": %d, "q": %d, "variant": "small-q"}'
               % (v.params["k"], v.params["q"])]))

    family("field", 10, lambda v, rng: Variant(v, None, None, {}),
           ("field-q65536", lambda v: ["field", "--q", "65536"]))
    return fams


WORKLOADS = {
    "scan": _scan_families,
    "subsets": _subset_families,
    "sweep": _sweep_families,
}


def pool(workload: str) -> list[Family]:
    """The fixed job pool of one workload."""
    return WORKLOADS[workload]()


def pool_jobs(workload: str) -> list[tuple[Job, Variant]]:
    """Every job the pool can produce, for recording expected outputs."""
    out = []
    for fam in pool(workload):
        for v in fam.variants:
            for cname, make in fam.classes:
                out.append((Job(f"{cname}/v{v.index:02d}", tuple(make(v))), v))
    return out


@dataclass(frozen=True)
class Plan:
    """A seeded run: the rounds of jobs and the code files they read."""

    rounds: tuple[tuple[Job, ...], ...]
    codes: tuple[tuple[str, tuple[str, ...]], ...]  # (path, code make argv)


def plan(workload: str, seed: int) -> Plan:
    """Pick RUN_VARIANTS variants per family and lay them out in rounds."""
    rng = SplitMix(seed, 0x5EED)
    fams = pool(workload)
    picks = {f.name: rng.shuffle(list(f.variants))[:RUN_VARIANTS] for f in fams}
    rounds = []
    for i in range(RUN_VARIANTS):
        jobs = []
        for fam in fams:
            v = picks[fam.name][i]
            for cname, make in fam.classes:
                jobs.append(Job(f"{cname}/v{v.index:02d}", tuple(make(v))))
        rounds.append(tuple(rng.shuffle(jobs)))
    codes = sorted(
        {(v.code_path, v.make_argv) for vs in picks.values() for v in vs if v.code_path}
    )
    return Plan(tuple(rounds), tuple(codes))
