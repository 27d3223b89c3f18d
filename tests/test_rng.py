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
