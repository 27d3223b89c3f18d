"""Reproducible random streams.

Every agent owns an independent stream derived from ``(master_seed, agent id)``
so that per-agent draw sequences do not depend on scheduling or worker count.
World-level draws (initial birthdates, newborn sex, immigrant attributes) use
a single reserved stream consumed only in the engine's sequential phases.

An agent's stream is ``default_rng(SeedSequence((master_seed, 0, agent_id)))``,
draw for draw, but its seed state is computed for a block of consecutive ids
at once. ``SeedSequence`` splits its entropy into 32-bit words (seed words,
then the tag word 0, then id words), hashes them into a pool of four words
(``mix_entropy``), and hashes the pool into the eight words that seed a
``PCG64`` (``generate_state(4, uint64)``). Its hash constants depend on no
data, and every word is hashed lane by lane, so the same steps on uint32
arrays, whose arithmetic wraps modulo 2**32 just as ``SeedSequence``'s does,
give the state of every id of a block in one pass. Blocks are aligned to
``_BLOCK`` ids and 2**32 is a multiple of ``_BLOCK``, so the ids of one block
share their word count and their high words and differ only in the lowest
word. ``PCG64`` reads its state through the ``ISeedSequence`` interface, which
hands it an agent's four precomputed words.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_AGENT_TAG = 0
_WORLD_TAG = 1

_BLOCK = 1024  # ids per computed block; divides 2**32

# SeedSequence's hash constants
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for ``(master_seed, *key)``; same key, same draws."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))


def agent_stream(master_seed: int, agent_id: int) -> np.random.Generator:
    """The generator ``substream(master_seed, 0, agent_id)`` returns, built from
    a precomputed seed state."""
    block, lane = divmod(agent_id, _BLOCK)
    words = _block_state(master_seed, block)[lane].tobytes()
    return np.random.Generator(np.random.PCG64(_seed_state_class()(words)))


def world_stream(master_seed: int) -> np.random.Generator:
    return substream(master_seed, _WORLD_TAG)


@lru_cache(maxsize=None)
def _seed_state_class():
    """The ``ISeedSequence`` that hands ``PCG64`` an agent's precomputed words.
    Defined on first use: numpy imports ``numpy.random`` only when it is first
    used, and importing popsim should not load it either."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """Four precomputed uint64 words, kept as 32 bytes."""

        __slots__ = ("_words",)

        def __init__(self, words: bytes):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("a precomputed seed state holds four uint64 words")
            return np.frombuffer(self._words, np.uint64)

    return SeedState


def _words32(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=2)
def _block_state(master_seed: int, block: int) -> np.ndarray:
    """The seed state of ids ``block * _BLOCK`` onwards, one row of four uint64
    words per id, equal to ``SeedSequence((master_seed, 0, id))
    .generate_state(4, np.uint64)``. Read-only, since the cache shares it."""
    if master_seed < 0 or block < 0:
        raise ValueError("seed and agent id must be non-negative")
    low, *high = _words32(block * _BLOCK)  # only the lowest id word varies in a block
    entropy = [np.array([word], np.uint32) for word in (*_words32(master_seed), _AGENT_TAG)]
    entropy.append(np.arange(low, low + _BLOCK, dtype=np.uint32))
    entropy += [np.array([word], np.uint32) for word in high]

    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((_BLOCK, 2 * _POOL_SIZE), dtype="<u4")
    hash_b = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        state[:, i] = value ^ (value >> np.uint32(16))
    out = state.view("<u8").astype(np.uint64, copy=False)
    out.flags.writeable = False
    return out
