"""The batch stream derivation against numpy's own per-key calls."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from listlab import seeds
from listlab.seeds import child_seed, child_seeds, rng_for, streams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3]


def _paths(t: int) -> list[tuple[int, ...]]:
    return [(), (t,), (t, 1), (t, 2), (0xC0DE,), (t, 2**32 + t), (2**40, 3, t)]


# keys of every entropy length in one call, which takes numpy's own call per
# key: the seed's words, padded to the 4-word pool only when a path follows,
# then one or two words per path part
KEYS = [(s, *p) for s in SEEDS for t in (0, 7, 2**32 - 1) for p in _paths(t)]


def _assert_same(got: np.random.Generator, key: tuple[int, ...]) -> None:
    want = rng_for(*key)
    assert got.bit_generator.state == want.bit_generator.state, key
    assert (got.integers(0, 2, size=9) == want.integers(0, 2, size=9)).all(), key
    assert (got.standard_normal(5) == want.standard_normal(5)).all(), key
    assert (got.integers(0, 7, size=3) == want.integers(0, 7, size=3)).all(), key


def test_streams_match_rng_for_across_entropy_lengths():
    count = 0
    for key, rng in zip(KEYS, streams(KEYS), strict=True):
        _assert_same(rng, key)
        count += 1
    assert count == len(KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_and_child_seeds_match_per_trial_calls(seed):
    # one key length per call, as the Monte Carlo loops ask; in the last call
    # the path parts of every other key need two words
    batches = [[(seed, t, *path) for t in range(40)] for path in ((), (1,), (2,))]
    batches += [[(seed, 0xC0DE), *((seed, t) for t in range(12))], [(seed,)], [(seed, 5, 2)]]
    batches += [[(seed, t, 2**32 * (t % 2) + t) for t in range(16)]]
    for keys in batches:
        for key, rng in zip(keys, streams(keys), strict=True):
            _assert_same(rng, key)
        assert list(child_seeds(keys)) == [child_seed(*k) for k in keys]


def test_child_seeds_match_child_seed():
    assert list(child_seeds(KEYS)) == [child_seed(*k) for k in KEYS]
    # a child seed is itself a spawn-free key, as CodeFamily.columns uses it
    kids = [(c,) for c in child_seeds((5, i) for i in range(50))]
    assert any(c >= 2**32 for (c,) in kids)
    assert list(child_seeds(kids)) == [child_seed(*k) for k in kids]
    for key, rng in zip(kids, streams(kids), strict=True):
        _assert_same(rng, key)


def test_common_keys_take_no_per_key_numpy_call(monkeypatch):
    # seeds below 2^64 and path parts below 2^32 are hashed in the batch
    keys = [(s, t, 1) for s in (0, 2**32, 2**64 - 1) for t in range(5)]
    want = [rng_for(*k).bit_generator.state for k in keys]

    def refuse(*key):
        raise AssertionError(f"per-key numpy call for {key}")

    monkeypatch.setattr(seeds, "seed_sequence", refuse)
    assert [rng.bit_generator.state for rng in streams(keys)] == want


def test_streams_reuse_one_generator_and_accept_edge_keys():
    for count in (1, 2, 12):  # one generator, whatever the batch and the route
        first = streams((1, t) for t in range(count))
        rng = next(first)
        assert all(later is rng for later in first)
        mixed = streams([(1, 0), (2**70, 0)])
        assert next(mixed) is next(mixed)
    assert list(streams([])) == [] and list(child_seeds([])) == []
    for count in (1, 12):  # the numpy fallback refuses these as rng_for does
        with pytest.raises(ValueError):
            list(streams([(-1, t) for t in range(count)]))
        with pytest.raises(ValueError):  # a numpy integer, which a uint64 array would wrap
            list(streams([(np.int64(-1), t) for t in range(count)]))
        with pytest.raises(ValueError):
            list(child_seeds([(3, -2 - t) for t in range(count)]))


@pytest.mark.parametrize("chunk", [None, 5])
def test_keys_are_derived_one_chunk_at_a_time(monkeypatch, chunk):
    # chunk None keeps the default; 5 is below _MIN_BATCH, so every chunk
    # takes numpy's per-key route
    if chunk is not None:
        monkeypatch.setattr(seeds, "_KEY_CHUNK", chunk)
    size = seeds._KEY_CHUNK
    sizes = []
    original = seeds._states

    def counting(keys, n_words):
        sizes.append(len(keys))
        return original(keys, n_words)

    monkeypatch.setattr(seeds, "_states", counting)
    count = 2 * size + 3
    got = list(child_seeds((9, t) for t in range(count)))
    assert got == [child_seed(9, t) for t in range(count)]
    for t, rng in enumerate(streams((9, t, 1) for t in range(count))):
        assert rng.bit_generator.state == rng_for(9, t, 1).bit_generator.state, t
    assert t == count - 1
    assert sizes == [size, size, 3] * 2
    # an endless key generator is drawn one chunk at a time
    assert next(child_seeds((9, t) for t in itertools.count())) == child_seed(9, 0)
    assert next(streams((9, t, 1) for t in itertools.count())).bit_generator.state == (
        rng_for(9, 0, 1).bit_generator.state)
    assert max(sizes) == size
