import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefl import simulate, streams

from helpers import client_rng_reference

SRC = Path(__file__).resolve().parent.parent / "src" / "latticefl"

uint32_words = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9)


@settings(max_examples=200, deadline=None)
@given(words=uint32_words, spawn_key=st.lists(st.integers(0, 2**32 - 1), max_size=3),
       n_words=st.integers(1, 8))
def test_seed_sequence_state_matches_numpy(words, spawn_key, n_words):
    # 1 to 9 words of entropy, past the pool of 4, and for a spawned child
    # the entropy padded with zeros to the pool, then its spawn key
    assembled = words + ([0] * (4 - len(words)) + spawn_key if spawn_key else [])
    state = streams.seed_sequence_state(np.array(assembled, dtype=np.uint32)[:, None], n_words)
    sequence = np.random.SeedSequence(np.array(words, dtype=np.uint32), spawn_key=spawn_key)
    assert state.dtype == np.uint64 and state.shape == (n_words, 1)
    assert state[:, 0].tolist() == sequence.generate_state(n_words, np.uint64).tolist()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**100), words=st.lists(st.integers(0, 2**32 - 1), max_size=3),
       child=st.none() | st.integers(0, 2**32 - 1))
def test_entropy_columns_seed_numpy_sequences(seed, words, child):
    state = streams.seed_sequence_state(streams.entropy(seed, *words, child=child), 2)
    sequence = np.random.SeedSequence([seed, *words])
    if child is not None:
        sequence = np.random.SeedSequence(sequence.entropy, spawn_key=(child,))
    assert state[:, 0].tolist() == sequence.generate_state(2, np.uint64).tolist()


def test_entropy_broadcasts_words_into_columns():
    columns = streams.entropy(7, 3, np.array([[1, 2], [3, 4]]), child=np.array([5, 6]))
    assert columns.dtype == np.uint32 and columns.shape == (5, 4)  # a child pads to the pool
    assert columns.T.tolist() == [[7, 3, 1, 0, 5], [7, 3, 2, 0, 6], [7, 3, 3, 0, 5], [7, 3, 4, 0, 6]]
    with pytest.raises(ValueError):
        streams.entropy(-1, 0)
    # a word outside [0, 2**32) is refused, never wrapped, in any form
    for word in (2**32, -1, np.array([1, 2**32 + 1]), np.array([-1, 2]), [[0], [2**32]]):
        with pytest.raises(OverflowError):
            streams.entropy(0, word)


@pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**63 - 1])
def test_bulk_generators_equal_one_default_rng_per_client(master):
    ids = [0, 1, 2**31, 2**32 - 1]
    for domain in (simulate._DOM_LOCAL, simulate._DOM_QUANTIZE):
        generators = streams.generators(streams.entropy(master, domain, 5, ids))
        for cid, generator in zip(ids, generators):
            expected = client_rng_reference(master, domain, 5, cid)
            assert generator.bit_generator.state == expected.bit_generator.state
            # leave half of a 64-bit word buffered: the next load must drop it
            assert generator.integers(0, 2**32, dtype=np.uint32) == expected.integers(0, 2**32, dtype=np.uint32)
            assert generator.bit_generator.state["has_uint32"] == 1
        assert next(generators, None) is None


def test_seed_constants_live_only_in_streams():
    # SeedSequence's hash constants and PCG64's multiplier: one port of each
    constants = re.compile(r"0x43B0D7E5|0x8B51F9DD|0x2360ED051FC65DA44385DF649FCCF645", re.IGNORECASE)
    found = {path.name: len(constants.findall(path.read_text())) for path in SRC.glob("*.py")}
    assert found.pop("streams.py") == 3
    assert not any(found.values()), found
