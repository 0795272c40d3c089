"""Agreement counts and per-coordinate plurality calculus over codeword sets.

For a set of codewords, the plurality at coordinate j is the largest
fraction sharing one symbol there. The coordinate-wise plurality word
maximizes the total agreement with the set over all received words, which
turns several otherwise-exponential maxima into per-coordinate counts.
Counts stay exact integers; fractions are rationals; floats appear only in
report payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq

import numpy as np

from .config import Budgets
from .errors import InfeasibleError
from .galois import Field
from .linear_code import LinearCode, full_rs_code, hadamard_code, lex_digits, sample_code
from .reports import Record
from .seeds import child_seed, rng_for


def agreement(x, y) -> int:
    """Number of coordinates where two equal-length words agree."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a == b for a, b in zip(x, y))


@dataclass(frozen=True)
class MessageSet:
    """An ordered, duplicate-free set of messages."""

    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        msgs = tuple(tuple(int(v) for v in m) for m in self.messages)
        object.__setattr__(self, "messages", msgs)
        if not msgs:
            raise ValueError("message set must be non-empty")
        if len(set(msgs)) != len(msgs):
            raise ValueError("duplicate messages")
        if len({len(m) for m in msgs}) != 1:
            raise ValueError("messages of mixed length")

    @classmethod
    def from_indices(cls, q: int, k: int, indices) -> MessageSet:
        """The length-k messages over [0, q) at these lexicographic indices, in order."""
        return cls(lex_digits(q, k, indices).T.tolist())

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)


@dataclass(frozen=True)
class PluralityProfile:
    """Per-coordinate plurality data for a fixed codeword set of size L.

    counts[j] is the plurality count at coordinate j; maximizers[j] is the
    smallest symbol attaining it.
    """

    size: int
    counts: tuple[int, ...]
    maximizers: tuple[int, ...]

    @property
    def pl(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.size) for c in self.counts)


def plurality_profile(code: LinearCode, lam: MessageSet) -> PluralityProfile:
    """Plurality profile of the codewords of a message set."""
    counts, maximizers = plurality_counts_array(code.encode_all(lam.messages), code.field.q)
    return PluralityProfile(len(lam), tuple(counts.tolist()), tuple(maximizers.tolist()))


def plurality_counts_array(words: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(plurality counts, smallest maximizing symbol) per coordinate.

    words is an (L, n) integer array over [0, q). One bincount over
    words[i, j] + q*j tallies every (coordinate, symbol) pair in O(L*n + q*n)
    memory; ties resolve to the smallest symbol because argmax returns the
    first maximum.
    """
    n = words.shape[1]
    keys = (words + q * np.arange(n)).ravel()
    symbol_counts = np.bincount(keys, minlength=q * n).reshape(n, q)
    return symbol_counts.max(axis=1), symbol_counts.argmax(axis=1)


def max_agreement_sum(code: LinearCode, lam: MessageSet) -> tuple[int, tuple[int, ...]]:
    """Maximum over received words z of the summed agreement with the set.

    The maximum is attained by the coordinate-wise plurality word, so the
    value equals the sum of plurality counts (size L times the plurality
    mass). Returns (value, witness z).
    """
    prof = plurality_profile(code, lam)
    return sum(prof.counts), prof.maximizers


# -- received-word enumeration helpers (shared with the oracle) --------------


def iter_received_blocks(q: int, n: int, chunk: int = 1 << 14):
    """Yield (start_index, block) over all q^n received words in lexicographic
    order, first coordinate most significant."""
    total = q**n
    # with chunk a multiple of q^r, blocks are whole runs of the last r
    # coordinates: those columns repeat one table, the others are constant
    # along a run
    r = 0
    while r < n and chunk % q ** (r + 1) == 0:
        r += 1
    run = q**r
    tail = lex_digits(q, r, np.arange(run)).T
    for start in range(0, total, chunk):
        runs = np.arange(start // run, min(start + chunk, total) // run)
        block = np.empty((len(runs), run, n), dtype=np.int64)
        block[:, :, n - r :] = tail
        # column by column: broadcasting the (runs, 1, n - r) digits in one
        # assignment copies only n - r symbols per inner loop, and is slower
        for j, digit in enumerate(lex_digits(q, n - r, runs)):
            block[:, :, j] = digit[:, None]
        yield start, block.reshape(len(runs) * run, n)


def agreement_block(received: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(m, N) agreement counts between m received words and N codewords."""
    acc = np.zeros((received.shape[0], words.shape[0]), dtype=np.int32)
    for j in range(received.shape[1]):
        acc += received[:, j : j + 1] == words[None, :, j]
    return acc


# float32 sums of fewer than 2^24 ones are exact; one-hot and suffix tables
# stay under _TABLE_CELLS entries, and a tail block spans about _BLOCK_ROWS words
_F32_EXACT = 1 << 24
_TABLE_CELLS = 1 << 20
_BLOCK_ROWS = 1 << 13


def _agreements(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(x), len(y)) agreement counts of two small word arrays."""
    return (x[:, None, :] == y[None, :, :]).sum(axis=2)


def _suffix_table(suffixes: np.ndarray, words: np.ndarray, shifts: int, levels) -> np.ndarray:
    """((shift, codeword), (suffix, level)) table of [A_suf(s, c) >= levels[j] - i].

    A one-hot prefix row, 1 at (i, c) when the prefix agrees with codeword c
    in i coordinates, times this table counts the codewords c with
    i + A_suf(s, c) >= levels[j]: one product gives the tail counts of every
    received word (prefix, s) at every requested level. The table is one
    lookup, per (codeword, suffix) agreement a, of the rows [a >= levels - i].
    """
    need = np.asarray(levels) - np.arange(shifts)[:, None]
    rows = (np.arange(words.shape[1] + 1)[:, None] >= need[:, None, :]).astype(np.float32)
    return np.take(rows, _agreements(words, suffixes), axis=1).reshape(shifts * len(words), -1)


def _agreement_tails(words: np.ndarray, q: int, levels):
    """Yield (start, block, tails) over all q^n received words in lexicographic
    order; tails[i, j] counts the rows of `words` agreeing with block[i] in at
    least levels[j] coordinates.

    Agreement splits into a prefix part (the first ceil(n/2) coordinates)
    and a suffix part, so for a block of whole prefixes the tails are one
    product of a one-hot prefix table and a suffix threshold table; no
    (m, N) agreement matrix is built. The codeword axis is cut into parts of
    fewer than 2^24 rows, so every float32 sum is exact, and small enough to
    bound the tables; the parts' tails add in int64.
    """
    n_words, n = words.shape
    pre = n - n // 2
    n_suf = q ** (n // 2)
    suffixes = lex_digits(q, n // 2, np.arange(n_suf)).T
    step = max(1, min(n_words, _F32_EXACT - 1, _TABLE_CELLS // ((pre + 1) * n_suf * len(levels))))
    # one part: build its suffix table once; more: rebuild per block to bound memory
    table = _suffix_table(suffixes, words[:, pre:], pre + 1, levels) if step == n_words else None
    n_pre = max(1, min(_BLOCK_ROWS // n_suf, _TABLE_CELLS // ((pre + 1) * step)))
    for start, block in iter_received_blocks(q, n, n_pre * n_suf):
        prefixes = block[::n_suf, :pre]
        tails = 0
        for lo in range(0, n_words, step):
            part = words[lo : lo + step]
            agr = _agreements(prefixes, part[:, :pre])
            left = (agr[:, None, :] == np.arange(pre + 1)[:, None]).astype(np.float32)
            right = table
            if right is None:
                right = _suffix_table(suffixes, part[:, pre:], pre + 1, levels)
            tails = tails + (left.reshape(len(prefixes), -1) @ right).astype(np.int64)
        # column-major: each level's tail counts are contiguous for the reducers
        yield start, block, np.asfortranarray(tails.reshape(-1, len(levels)))


def _top_sums(tails: np.ndarray, ks) -> np.ndarray:
    """(len(ks), m) top-k agreement sums of the words of one tail block.

    With tails[:, a - 1] the number of rows agreeing in >= a coordinates
    (levels 1..n), the k-th largest agreement of a word is
    #{a >= 1 : tail_a >= k}, and its top-k sum is the sum over a >= 1 of
    min(tail_a, k).
    """
    ks = np.asarray(ks)[:, None]
    sums = np.zeros((len(ks), len(tails)), dtype=np.int64)
    for tail in tails.T:
        sums += np.minimum(tail, ks)
    return sums


# -- plurality mass (max over codeword sets) ---------------------------------


@dataclass(frozen=True)
class MassResult(Record):
    """Result of a plurality-mass computation at list size L."""

    list_size: int
    value: Fraction
    exact: bool
    lower_bound: bool
    mode: str
    route: str | None
    witness_codewords: tuple[tuple[int, ...], ...]
    witness_received: tuple[int, ...] | None

    def as_dict(self) -> dict:
        return {**super().as_dict(), "value_float": float(self.value)}


def top_agreement_scan(words: np.ndarray, q: int, top: int):
    """Exact max over all received words of the top-`top` agreement sum.

    Returns (best_sum, best_z_index); the received-word index is the first
    attaining the maximum in lexicographic order. The top-`top` sum of each
    word is read off its tail counts at levels 1..n.
    """
    best = -1
    best_idx = 0
    for start, _, tails in _agreement_tails(words, q, range(1, words.shape[1] + 1)):
        sums = _top_sums(tails, (top,))[0]
        pos = int(sums.argmax())
        if int(sums[pos]) > best:
            best = int(sums[pos])
            best_idx = start + pos
    return best, best_idx


def _scan_witness(words: np.ndarray, q: int, top: int, z_index: int):
    n = words.shape[1]
    z = tuple(lex_digits(q, n, z_index)[:, 0].tolist())
    agr = agreement_block(np.array([z], dtype=np.int64), words)[0]
    order = np.argsort(-agr, kind="stable")[:top]
    chosen = sorted(int(i) for i in order)
    return tuple(tuple(int(v) for v in words[i]) for i in chosen), z


def _mass_by_subsets(words: np.ndarray, q: int, L: int) -> list[int]:
    """Rows of the first L-set, in DFS order, with the largest plurality-count sum.

    counts[s + q*j] tallies symbol s at coordinate j over the chosen rows and
    top[j] is their plurality count there. Adding a row raises top[j] by one
    exactly where its count equals top[j], so each node passes down a running
    total, and a last-level row scores that total plus its number of ties.
    """
    n_words, n = words.shape
    keys = (words + q * np.arange(n)).tolist()
    counts = [0] * (q * n)
    count_of = counts.__getitem__
    best = [-1, None]

    def visit(chosen: list[int], start: int, top: list[int], total: int) -> None:
        if len(chosen) == L - 1:
            for i in range(start, n_words):
                score = total + sum(map(eq, map(count_of, keys[i]), top))
                if score > best[0]:
                    best[:] = score, (*chosen, i)
            return
        for i in range(start, n_words - (L - len(chosen)) + 1):
            ties = list(map(eq, map(count_of, keys[i]), top))
            for key in keys[i]:
                counts[key] += 1
            chosen.append(i)
            visit(chosen, i + 1, list(map(add, top, ties)), total + ties.count(True))
            chosen.pop()
            for key in keys[i]:
                counts[key] -= 1

    visit([], 0, [0] * n, 0)
    return list(best[1])


def _greedy_rows(words: np.ndarray, q: int, L: int) -> np.ndarray:
    """Sorted rows of a greedy L-set: start from row 0, then add the first row
    whose addition gives the largest plurality-count sum."""
    n_words, n = words.shape
    cols = np.arange(n)
    counts = np.zeros((n, q), dtype=np.int64)
    counts[cols, words[0]] = 1
    taken = np.zeros(n_words, dtype=bool)
    taken[0] = True
    for _ in range(L - 1):
        gains = np.maximum(counts.max(axis=1), counts[cols, words] + 1).sum(axis=1)
        gains[taken] = -1
        best = int(gains.argmax())
        taken[best] = True
        counts[cols, words[best]] += 1
    return np.nonzero(taken)[0]


def _mass_result(words, rows, q, exact, mode, route) -> MassResult:
    """MassResult of the codeword set words[rows], with its plurality word as
    the witness received word."""
    counts, z = plurality_counts_array(words[rows], q)
    witness = tuple(tuple(w) for w in words[rows].tolist())
    L = len(witness)
    return MassResult(
        L, Fraction(int(counts.sum()), L), exact, not exact, mode, route, witness, tuple(z.tolist())
    )


def plurality_mass(
    code: LinearCode,
    L: int,
    mode: str = "exact",
    *,
    trials: int = 200,
    seed: int = 0,
    budgets: Budgets = Budgets(),
) -> MassResult:
    """Largest plurality mass over sets of L distinct codewords.

    exact mode is a true maximum (via either a received-word scan using the
    plurality identity, or subset enumeration, whichever is feasible);
    greedy and sampled modes return flagged lower bounds.
    """
    if L < 1:
        raise ValueError("list size must be >= 1")
    words = code.codeword_matrix(budgets=budgets)
    n_words = words.shape[0]
    if L > n_words:
        raise ValueError(f"list size {L} exceeds code size {n_words}")
    q = code.field.q

    if mode == "exact":
        scan_cost = budgets.scan_cost(code)
        subset_count = math.comb(n_words, L)
        scan_ok = scan_cost <= budgets.max_received_words
        subsets_ok = subset_count <= budgets.max_subsets
        if not scan_ok and not subsets_ok:
            raise InfeasibleError(
                f"exact mass needs a scan of {scan_cost} comparisons or {subset_count} subsets; "
                f"budgets are {budgets.max_received_words} and {budgets.max_subsets}"
            )
        if scan_ok and (not subsets_ok or scan_cost <= subset_count):
            value, z_idx = top_agreement_scan(words, q, L)
            witness, z = _scan_witness(words, q, L, z_idx)
            return MassResult(L, Fraction(value, L), True, False, mode, "scan", witness, z)
        return _mass_result(words, _mass_by_subsets(words, q, L), q, True, mode, "subsets")

    if mode == "greedy":
        return _mass_result(words, _greedy_rows(words, q, L), q, False, mode, None)

    if mode == "sampled":
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        rng = rng_for(seed, 0)
        best_val, best_rows = -1, None
        for _ in range(trials):
            rows = np.sort(rng.choice(n_words, size=L, replace=False))
            total = int(plurality_counts_array(words[rows], q)[0].sum())
            if total > best_val:
                best_val, best_rows = total, rows
        return _mass_result(words, best_rows, q, False, mode, None)

    raise ValueError(f"unknown mode {mode!r}")


# -- randomized code families and candidate message sets ---------------------


class CodeFamily:
    """A randomized code construction: i.i.d. uniformly sampled columns of a
    fixed parent (Reed-Solomon on all field elements, or Hadamard), or a
    fixed code for zero-variance baselines."""

    def __init__(self, kind: str, *, field: Field | None = None, k: int | None = None,
                 n: int | None = None, code: LinearCode | None = None):
        if kind in ("sampled-rs", "sampled-hadamard"):
            if field is None or k is None or n is None:
                raise ValueError("sampled families need field, k, and n")
            self.parent = full_rs_code(field, k) if kind == "sampled-rs" else hadamard_code(field, k)
            self.field = field
            self.k = k
            self.n = n
        elif kind == "fixed":
            if code is None:
                raise ValueError("fixed family needs a code")
            self.parent = code
            self.field = code.field
            self.k = code.k
            self.n = code.n
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind

    def draw(self, seed: int, index: int) -> LinearCode:
        if self.kind == "fixed":
            return self.parent
        return sample_code(self.parent, self.n, seed=child_seed(seed, index))

    def descriptor(self) -> dict:
        return {"kind": self.kind, "q": self.field.q, "poly": self.field.poly,
                "k": self.k, "n": self.n}


def _sample_distinct(rng: np.random.Generator, total: int, count: int) -> list[int]:
    if total <= 1 << 22:
        return sorted(int(i) for i in rng.choice(total, size=count, replace=False))
    picked: set[int] = set()
    while len(picked) < count:
        picked.add(int(rng.integers(0, total)))
    return sorted(picked)


def candidate_message_sets(field: Field, k: int, L: int, count: int, seed: int) -> list[MessageSet]:
    """Uniform random message sets plus structured near-maximizer candidates.

    Structured candidates are "boxes": the lexicographically first L messages
    supported on the leading coordinates (for Reed-Solomon messages these are
    the low-degree polynomials, for Hadamard messages a subgroup), plus a few
    random additive shifts of that box (cosets).
    """
    if count < 1:
        raise ValueError(f"candidates must be >= 1, got {count}")
    q = field.q
    total = q**k
    if L > total:
        raise ValueError(f"L = {L} exceeds message count {total}")
    rng = rng_for(seed, 0xC0DE)
    out: list[MessageSet] = []

    j = 1
    while q**j < L:
        j += 1
    box = np.zeros((L, k), dtype=np.int64)
    box[:, :j] = lex_digits(q, j, np.arange(L)).T
    out.append(MessageSet(box.tolist()))
    n_shifts = min(2, max(0, count - 1))
    for _ in range(n_shifts):
        shift = lex_digits(q, k, int(rng.integers(0, total)))[:, 0]
        out.append(MessageSet(field.add_array(box, shift).tolist()))

    while len(out) < count:
        out.append(MessageSet.from_indices(q, k, _sample_distinct(rng, total, L)))
    return out[:count]
