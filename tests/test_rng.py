"""Agent and world streams: the engine's seeding and PCG64 kernel give
SeedSequence's and numpy's draws."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim import rng
from popsim.rng import agent_stream

_rand = random.Random(20261018)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5] + [_rand.randrange(2**40) for _ in range(3)]


# early blocks, the first block of two-word ids (high word 1), the last of one-word ids
# and a block of two-word ids whose high word is not 1
@pytest.mark.parametrize("master_seed, block", [(7, 0), (2**64 + 5, 3), (1, 2**32 // 1024),
                                                (0, (2**32 - 1) // 1024),
                                                (2**32 - 1, 10**13 // 1024)])
def test_every_lane_of_a_block_matches_seed_sequence(master_seed, block):
    state = rng._block_state(master_seed, block)
    first = block * rng._BLOCK
    expected = [np.random.SeedSequence((master_seed, 0, first + lane)).generate_state(4, np.uint64)
                for lane in range(rng._BLOCK)]
    np.testing.assert_array_equal(state, expected)


def test_agent_stream_rejects_negative_keys():
    with pytest.raises(ValueError):
        agent_stream(-1, 0)
    with pytest.raises(ValueError):
        agent_stream(0, -1)


# ----- the stream array: every agent's stream as uint64 columns ------------------

EDGE_IDS = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 2100]


@pytest.mark.parametrize("master_seed", SEEDS + [2**32 + 3])
def test_stream_array_draws_match_agent_streams(master_seed):
    streams = rng.StreamArray(master_seed)
    streams.grow(1000)  # lanes seeded in two batches, across the 1023/1024 block edge
    streams.grow(1101)
    lanes = np.array(EDGE_IDS)
    got = np.stack([streams.draw(lanes) for _ in range(50)], axis=1)
    for lane, draws in zip(EDGE_IDS, got):
        np.testing.assert_array_equal(draws, agent_stream(master_seed, lane).random(50),
                                      err_msg=f"seed {master_seed}, lane {lane}")


@pytest.mark.parametrize("master_seed", [0, 31, 2**32 + 3])
def test_masked_draws_leave_other_lanes_alone(master_seed):
    # lanes over more than one block draw in random subsets; each lane's sequence is
    # its own numpy-seeded stream's, however often the other lanes drew
    n = 2 * rng._BLOCK + 50
    streams = rng.StreamArray(master_seed)
    streams.grow(n)
    reference = [agent_stream(master_seed, lane) for lane in range(n)]
    pick = np.random.default_rng(master_seed % 2**32)
    for _ in range(6):
        lanes = np.flatnonzero(pick.random(n) < 0.3)
        expected = [reference[lane].random() for lane in lanes.tolist()]
        np.testing.assert_array_equal(streams.draw(lanes), expected)
    np.testing.assert_array_equal(streams.draw(np.arange(n)),
                                  [stream.random() for stream in reference])


# ----- the SeedSequence hash of many keys, and the world stream ------------------

@settings(max_examples=50)
@given(st.integers(2, 6).flatmap(lambda words: st.lists(
    st.lists(st.integers(0, 2**32 - 1), min_size=words, max_size=words),
    min_size=1, max_size=8)))
def test_hash_of_many_keys_matches_seed_sequence(keys):
    # keys of more than four words take SeedSequence's extra-word mixing
    state = rng._seed_sequence_state(np.array(keys, np.uint32).T)
    expected = [np.random.SeedSequence(key).generate_state(4, np.uint64) for key in keys]
    np.testing.assert_array_equal(state, expected)


B = rng._BLOCK


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, 2**32 - 1, 2**32 + 3, 2**63, 2**96 + 7]),
       st.lists(st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 7]), max_size=6))
def test_world_stream_draws_match_numpy(master_seed, requests):
    stream = rng.WorldStream(master_seed)
    got = [stream.random(n) for n in requests]
    assert [len(draws) for draws in got] == requests
    np.testing.assert_array_equal(np.concatenate([np.zeros(0), *got]),
                                  rng.world_stream(master_seed).random(sum(requests)))


def test_world_stream_empty_draw_leaves_it_alone():
    stream = rng.WorldStream(5)
    assert stream.random(0).shape == (0,)
    stream.random(3)
    assert stream.random(0).shape == (0,)
    np.testing.assert_array_equal(stream.random(B), rng.world_stream(5).random(B + 3)[3:])
