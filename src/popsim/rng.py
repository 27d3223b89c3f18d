"""Reproducible random streams.

Every agent owns an independent stream derived from ``(master_seed, agent id)``
so that per-agent draw sequences do not depend on scheduling or worker count.
World-level draws (initial birthdates, newborn sex, immigrant attributes) use
a single reserved stream consumed only in the engine's sequential phases.
Their references are numpy's generators ``agent_stream(master_seed, agent_id)``,
``substream(master_seed, 0, agent_id)``, and ``world_stream(master_seed)``,
``substream(master_seed, 1)``; the engine draws the same numbers without
``numpy.random``, a ``StreamArray`` holding many agents' streams as columns
and a ``WorldStream`` the world stream.

``SeedSequence`` splits its entropy into 32-bit words (seed words, the tag
word, any id words), hashes them into a pool of four words (``mix_entropy``),
and hashes the pool into the eight words that seed a ``PCG64``
(``generate_state(4, uint64)``). Its hash constants depend on no data, and
every word is hashed lane by lane, so the same steps on uint32 arrays, which
wrap modulo 2**32 as ``SeedSequence`` does, hash many keys in one pass: the
ids of a block of ``_BLOCK`` (a divisor of 2**32) differ only in the lowest.

``PCG64`` (O'Neill 2014) is a 128-bit linear congruential generator: each
draw steps ``state = state * MULT + inc`` modulo 2**128 and outputs the 64-bit
xor of the state's halves, rotated right by the state's top six bits;
``random()`` keeps the output's top 53 bits. Seeding sets ``inc`` from the
last two seed words and steps twice around adding the first two. ``k`` steps
are one affine map, ``state * MULT**k + inc * (MULT**(k-1) + ... + 1)``, so
the world stream computes its next ``_BLOCK`` states at once. The 128-bit
words are uint64 (high, low) pairs, and the high half of a 64 x 64-bit
product is summed from 32-bit limbs, so every operand is uint64: mixed with a
signed integer numpy would compute in float64.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

_AGENT_TAG = 0
_WORLD_TAG = 1

_BLOCK = 1024  # ids per computed block, and world-stream states per jump; divides 2**32

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
                                range(first, (size - 1) // _BLOCK + 1)])[skip:skip + n]
        self._words[:, self.size:size] = _pcg64_seeded(seeds.T)
        self.size = size

    def draw(self, lanes: np.ndarray) -> np.ndarray:
        """The next ``random()`` double of each of ``lanes``, which must be
        distinct; the other lanes do not move."""
        state_hi, state_lo, inc_hi, inc_lo = self._words
        hi, lo = _step(state_hi[lanes], state_lo[lanes], inc_hi[lanes], inc_lo[lanes])
        state_hi[lanes], state_lo[lanes] = hi, lo
        return _double(hi, lo)


class WorldStream:
    """The world stream of ``master_seed``, drawing what ``world_stream`` draws."""

    def __init__(self, master_seed: int):
        seeds = _seed_sequence_state([*_words32(master_seed), _WORLD_TAG])
        self._hi, self._lo, inc_hi, inc_lo = _pcg64_seeded(seeds.T)
        powers_hi, powers_lo, sums_hi, sums_lo = _jump_tables()  # state k is A_k s + C_k inc
        self._jump = (*_step(sums_hi, sums_lo, _U0, _U0, inc_hi, inc_lo), powers_hi, powers_lo)
        self._spare = np.zeros(0)  # drawn but not yet handed out

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` ``random()`` doubles."""
        out = np.empty(n)
        done = min(n, len(self._spare))
        out[:done], self._spare = self._spare[:done], self._spare[done:]
        for start in range(done, n, _BLOCK):
            hi, lo = _step(self._hi, self._lo, *self._jump)
            self._hi, self._lo = hi[-1:], lo[-1:]
            drawn = _double(hi, lo)
            out[start:start + _BLOCK], self._spare = drawn[:n - start], drawn[n - start:]
        return out


def _pcg64_seeded(seeds):
    """PCG64's (state, inc) rows (high, low) seeded from ``generate_state``'s rows."""
    inc_hi = (seeds[2] << _U1) | (seeds[3] >> _U63)
    inc_lo = (seeds[3] << _U1) | _U1
    lo = inc_lo + seeds[1]  # the first step, from state 0, leaves inc
    hi = inc_hi + seeds[0] + (lo < inc_lo)
    return (*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _step(hi, lo, add_hi, add_lo, mult_hi=_MULT_HI, mult_lo=_MULT_LO):
    """``(hi, lo) * mult + add`` mod 2**128 on uint64 (high, low); by default a PCG64 step."""
    lo_mult = lo * mult_lo
    new_lo = lo_mult + add_lo
    new_hi = (hi * mult_lo + lo * mult_hi + _mulhi(lo, mult_lo) + add_hi
              + (new_lo < lo_mult))
    return new_hi, new_lo


def _mulhi(a, b):
    """The high 64 bits of ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LIMB, a >> _U32, b & _LIMB, b >> _U32
    low = a0 * b0
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (low >> _U32) + (cross0 & _LIMB) + (cross1 & _LIMB)
    return a1 * b1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)


def _double(hi, lo):
    """PCG64's ``random()`` double of each state: the top 53 bits of its output."""
    out = hi ^ lo
    rot = hi >> _U58
    out = (out >> rot) | (out << ((_U0 - rot) & _U63))
    return (out >> _U11) * _DOUBLE_UNIT


@lru_cache(maxsize=1)
def _jump_tables() -> tuple:
    """(high, low) words of A_k = MULT**k, C_k = MULT**(k-1) + ... + 1 mod 2**128, k <= _BLOCK."""
    mult = int(_MULT_HI) << 64 | int(_MULT_LO)
    powers = [*accumulate(range(_BLOCK), lambda power, _: power * mult % 2**128, initial=1)]
    sums = [*accumulate(powers[:-1], lambda total, power: (total + power) % 2**128)]
    return tuple(np.array([value >> shift & 0xFFFFFFFFFFFFFFFF for value in values], np.uint64)
                 for values in (powers[1:], sums) for shift in (64, 0))


def _words32(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError("seed and agent id must be non-negative")
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
    low, *high = _words32(block * _BLOCK)  # only the lowest id word varies in a block
    out = _seed_sequence_state([*_words32(master_seed), _AGENT_TAG,
                                np.arange(low, low + _BLOCK, dtype=np.uint32), *high])
    out.flags.writeable = False
    return out


def _seed_sequence_state(words) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of many keys, a row each,
    from their 32-bit words: per position, every key's word or one shared word."""
    words = [np.array(word, np.uint32, ndmin=1) for word in words]
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

    pool = [hashmix(word) for word in (words + [np.zeros(1, np.uint32)] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((max(map(len, pool)), 2 * _POOL_SIZE), dtype="<u4")
    hash_b = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64, copy=False)
