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


def test_held_generators_are_each_their_own_default_rng():
    # every generator stays its sequence's default_rng after later ones are
    # taken, whatever the memory layout of the entropy it came from
    columns = streams.entropy(11, 3, np.arange(6))
    layouts = [columns, np.ascontiguousarray(columns.T).T, np.repeat(columns, 2, axis=1)[:, ::2]]
    for entropy in layouts:
        held = list(streams.generators(entropy))
        assert len(held) == 6
        for cid, generator in enumerate(held):
            expected = np.random.default_rng(np.random.SeedSequence([11, 3, cid]))
            assert generator.bit_generator.state == expected.bit_generator.state
            assert generator.random(5).tolist() == expected.random(5).tolist()


def test_hashed_words_serve_only_pcg64s_request():
    state = streams.seed_sequence_state(streams.entropy(5, np.arange(3)), 4)
    hashed = streams._Hashed(np.ascontiguousarray(state[:, 1]))  # a contiguous row, as generators() hands over
    assert np.random.PCG64(hashed).state == np.random.PCG64(np.random.SeedSequence([5, 1])).state
    for n_words, dtype in [(2, np.uint64), (8, np.uint64), (4, np.uint32), (4, np.int64)]:
        with pytest.raises(ValueError):
            hashed.generate_state(n_words, dtype)


def test_hash_tables_cover_64_entropy_words_and_128_state_words():
    words = np.arange(64, dtype=np.uint32)[:, None]
    expected = np.random.SeedSequence(np.arange(64, dtype=np.uint32)).generate_state(128, np.uint64)
    assert streams.seed_sequence_state(words, 128)[:, 0].tolist() == expected.tolist()
    # past the tables the constants run out, and the hashing cannot broadcast
    for entropy, n_words in ((np.zeros((65, 1), dtype=np.uint32), 4), (words, 129)):
        with pytest.raises(ValueError):
            streams.seed_sequence_state(entropy, n_words)


def test_seed_constants_live_only_in_streams():
    # SeedSequence's two hash constants have one port; PCG64 seeds itself
    hash_constants = re.compile(r"0x43B0D7E5|0x8B51F9DD", re.IGNORECASE)
    pcg64_multiplier = re.compile(r"0x2360ED051FC65DA44385DF649FCCF645", re.IGNORECASE)
    found = {path.name: len(hash_constants.findall(path.read_text())) for path in SRC.glob("*.py")}
    assert found.pop("streams.py") == 2
    assert not any(found.values()), found
    assert not [path.name for path in SRC.glob("*.py") if pcg64_multiplier.search(path.read_text())]
