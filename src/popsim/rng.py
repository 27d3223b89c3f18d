"""Reproducible random streams.

Every agent owns an independent stream derived from ``(master_seed, agent id)``
so that per-agent draw sequences do not depend on scheduling or worker count.
World-level draws (initial birthdates, newborn sex, immigrant attributes) use
a single reserved stream consumed only in the engine's sequential phases.

An agent's stream is ``agent_stream(master_seed, agent_id)``, which is
``substream(master_seed, 0, agent_id)``. The engine draws from a
``StreamArray`` instead: it holds many agents' streams as columns, draws what
their generators would draw, and seeds a block of consecutive ids at once.
``SeedSequence`` splits its entropy into 32-bit words (seed words, then the
tag word 0, then id words), hashes them into a pool of four words
(``mix_entropy``), and hashes the pool into the eight words that seed a
``PCG64`` (``generate_state(4, uint64)``). Its hash constants depend on no
data, and every word is hashed lane by lane, so the same steps on uint32
arrays, whose arithmetic wraps modulo 2**32 just as ``SeedSequence``'s does,
give the state of every id of a block in one pass. Blocks are aligned to
``_BLOCK`` ids and 2**32 is a multiple of ``_BLOCK``, so the ids of one block
share their word count and their high words and differ only in the lowest
word.

``PCG64`` (O'Neill 2014) is a 128-bit linear congruential generator: each
draw steps ``state = state * MULT + inc`` modulo 2**128 and outputs the 64-bit
xor of the state's halves, rotated right by the state's top six bits;
``random()`` keeps the output's top 53 bits. Seeding sets ``inc`` from the
last two seed words and steps twice around adding the first two. The 128-bit
words are kept as uint64 (high, low) pairs, and the high half of a 64 x 64-bit
product is summed from 32-bit limbs, so every operand is uint64: mixed with a
signed integer numpy would compute in float64.
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

# PCG64's multiplier and the uint64 constants of its arithmetic
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LIMB = np.uint64(0xFFFFFFFF)
_U0, _U1, _U11, _U32, _U58, _U63 = (np.uint64(n) for n in (0, 1, 11, 32, 58, 63))
_DOUBLE_UNIT = 2.0 ** -53


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for ``(master_seed, *key)``; same key, same draws."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))


def agent_stream(master_seed: int, agent_id: int) -> np.random.Generator:
    """The stream of agent ``agent_id``: ``substream(master_seed, 0, agent_id)``,
    numpy's own ``SeedSequence`` seeding of that key, whose draws lane
    ``agent_id`` of a ``StreamArray`` reproduces."""
    return substream(master_seed, _AGENT_TAG, agent_id)


def world_stream(master_seed: int) -> np.random.Generator:
    return substream(master_seed, _WORLD_TAG)


class StreamArray:
    """The streams of agents ``0, 1, 2, ...`` of ``master_seed``, one lane per
    id: lane ``i`` draws what ``agent_stream(master_seed, i)`` draws."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.size = 0
        # rows: PCG64 state (high, low) and increment (high, low); a column per lane
        self._words = np.zeros((4, 0), np.uint64)

    def grow(self, n: int) -> None:
        """Add the lanes of the next ``n`` ids."""
        size = self.size + n
        if size > self._words.shape[1]:
            words = np.zeros((4, max(size, 2 * self._words.shape[1])), np.uint64)
            words[:, :self.size] = self._words[:, :self.size]
            self._words = words
        first, skip = divmod(self.size, _BLOCK)
        seeds = np.concatenate([_block_state(self.master_seed, block) for block in
                                range(first, (size - 1) // _BLOCK + 1)])[skip:skip + n].T
        state_hi, state_lo, inc_hi, inc_lo = self._words[:, self.size:size]
        # PCG64's seeding: inc = (seed words 2, 3) << 1 | 1; step from state 0,
        # add seed words 0, 1 to the state and step again
        inc_hi[:] = (seeds[2] << _U1) | (seeds[3] >> _U63)
        inc_lo[:] = (seeds[3] << _U1) | _U1
        hi, lo = _step(np.zeros(n, np.uint64), np.zeros(n, np.uint64), inc_hi, inc_lo)
        lo = lo + seeds[1]
        hi = hi + seeds[0] + (lo < seeds[1])
        state_hi[:], state_lo[:] = _step(hi, lo, inc_hi, inc_lo)
        self.size = size

    def draw(self, lanes: np.ndarray) -> np.ndarray:
        """The next ``random()`` double of each of ``lanes``, which must be
        distinct; the other lanes do not move."""
        state_hi, state_lo, inc_hi, inc_lo = self._words
        hi, lo = _step(state_hi[lanes], state_lo[lanes], inc_hi[lanes], inc_lo[lanes])
        state_hi[lanes] = hi
        state_lo[lanes] = lo
        out = hi ^ lo
        rot = hi >> _U58
        out = (out >> rot) | (out << ((_U0 - rot) & _U63))
        return (out >> _U11) * _DOUBLE_UNIT


def _step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's 128-bit LCG on (high, low) uint64 arrays."""
    lo_mult = lo * _MULT_LO
    new_lo = lo_mult + inc_lo
    new_hi = (hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo, _MULT_LO) + inc_hi
              + (new_lo < lo_mult))
    return new_hi, new_lo


def _mulhi(a, b):
    """The high 64 bits of ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LIMB, a >> _U32, b & _LIMB, b >> _U32
    low = a0 * b0
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (low >> _U32) + (cross0 & _LIMB) + (cross1 & _LIMB)
    return a1 * b1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)


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
