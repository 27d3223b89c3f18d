"""Agent streams: the block-wise seed derivation gives SeedSequence's draws."""

import random

import numpy as np
import pytest

from popsim import rng
from popsim.rng import agent_stream

from conftest import seed_sequence_stream

_rand = random.Random(20261018)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5] + [_rand.randrange(2**40) for _ in range(3)]
IDS = [0, 1, 1023, 1024, 1025, 2**32 - 1, 2**32, 10**13] + [_rand.randrange(10**7)
                                                            for _ in range(3)]


@pytest.mark.parametrize("master_seed", SEEDS)
def test_agent_stream_draws_match_seed_sequence(master_seed):
    for agent_id in IDS:
        np.testing.assert_array_equal(agent_stream(master_seed, agent_id).random(50),
                                      seed_sequence_stream(master_seed, agent_id).random(50),
                                      err_msg=f"seed {master_seed}, id {agent_id}")


@pytest.mark.parametrize("master_seed, block", [(7, 0), (2**64 + 5, 3), (1, 2**32 // 1024)])
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
    reference = [seed_sequence_stream(master_seed, lane) for lane in range(n)]
    pick = np.random.default_rng(master_seed % 2**32)
    for _ in range(6):
        lanes = np.flatnonzero(pick.random(n) < 0.3)
        expected = [reference[lane].random() for lane in lanes.tolist()]
        np.testing.assert_array_equal(streams.draw(lanes), expected)
    np.testing.assert_array_equal(streams.draw(np.arange(n)),
                                  [stream.random() for stream in reference])
