"""Deterministic RNG stream derivation.

Every randomized operation takes an explicit seed; substreams are derived
from (seed, path) so trial-parallel and serial runs see identical draws.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

# numpy's SeedSequence hash constants (a 4-word pool) and its PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_MIN_BATCH = 12  # one pass costs about as much as numpy's own calls for 12 keys
_KEY_CHUNK = 4096  # keys per pass, so memory does not grow with the key count


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *path))


def child_seed(seed: int, *path: int) -> int:
    """A derived 64-bit integer seed, e.g. for provenance records."""
    return int(seed_sequence(seed, *path).generate_state(1, np.uint64)[0])


def _hash(x, init: int, mult: int, at: int = 0):
    """Row i of x through numpy's hash call at + i (constants c_j = init * mult^j mod 2^32)."""
    c = np.uint32(init) * np.uint32(mult) ** np.arange(at, at + len(x) + 1, dtype=np.uint32)
    x = (x ^ c[:-1, None]) * c[1:, None]
    return x ^ (x >> 16)


def _states(keys: list, n_words: int) -> np.ndarray:
    """(len(keys), n_words) uint32: seed_sequence(*key).generate_state(n_words) per key.
    numpy's hash constants do not depend on the data, so _MIN_BATCH or more keys
    of one length, seed < 2^64 and path parts < 2^32, are hashed together (the seed
    padded to the pool as before a spawn key); other batches take numpy's calls."""
    try:
        parts = np.array(keys, dtype=np.uint64).reshape(len(keys), -1)
        # a negative numpy integer wraps above, where rng_for refuses it
        if len(keys) < _MIN_BATCH or (parts[:, 1:] >> 32).any() or (
                (parts >> 63).any() and min(map(min, keys)) < 0):
            raise OverflowError
    except (OverflowError, ValueError):
        states = [seed_sequence(*k).generate_state(n_words) for k in keys]
        return np.array(states, dtype=np.uint32).reshape(-1, n_words)
    seed = parts[:, 0]
    words = np.vstack([seed & 0xFFFFFFFF, seed >> 32, 0 * seed, 0 * seed, parts[:, 1:].T])
    words = words.astype(np.uint32)
    pool = _hash(words[:4], _INIT_A, _MULT_A)
    # each pool word mixes into the other three, then each path word into all four
    for i, at in enumerate([4, 7, 10, 13, *range(16, 4 * len(words), 4)]):
        dst = [d for d in range(4) if d != i]
        y = _hash((pool if i < 4 else words)[[i] * len(dst)], _INIT_A, _MULT_A, at)
        r = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * y
        pool[dst] = r ^ (r >> 16)
    return _hash(pool[np.arange(n_words) % 4], _INIT_B, _MULT_B).T


def _chunk_states(keys, n_words: int):
    """Yield _states(chunk, n_words) as uint64 for successive chunks of at most
    _KEY_CHUNK keys, drawn from `keys` only as each chunk is needed."""
    keys = iter(keys)
    while chunk := list(islice(keys, _KEY_CHUNK)):
        yield _states(chunk, n_words).astype(np.uint64)


def child_seeds(keys):
    """Yield child_seed(*key) for each (seed, *path) key, _KEY_CHUNK keys per pass."""
    for w in _chunk_states(keys, 2):
        yield from (w[:, 0] | w[:, 1] << 32).tolist()


def streams(keys):
    """Yield per (seed, *path) key a generator in rng_for(*key)'s state: one
    reused generator, so each is valid only until the next is drawn. It is set
    as numpy seeds PCG64: generate_state(4, uint64) gives 128-bit (hi, lo)
    words init and seq, inc = 2 seq + 1 and state = (inc + init) * mult + inc."""
    rng = np.random.Generator(bits := np.random.PCG64(0))
    for w in _chunk_states(keys, 8):
        for s0, s1, i0, i1 in (w[:, 0::2] | w[:, 1::2] << 32).tolist():
            inc = (i0 << 65 | i1 << 1 | 1) % (1 << 128)
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) % (1 << 128)
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng
