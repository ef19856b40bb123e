"""The trial generators' streams against numpy's own: sim._seed_words restates
SeedSequence's hash, and codec.draw_messages draws each trial's messages in
one call, so both are checked draw for draw against the numpy forms they
replace.  A numpy release that changes either fails here."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avrc import sim
from avrc.codec import draw_messages

# one 32-bit word, several words, and more words than SeedSequence's 4-word pool
entropy_ints = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                         st.integers(2**128, 2**200), st.sampled_from([0, 2**32, 2**128]))
prefixes = st.lists(entropy_ints, min_size=1, max_size=3)
trial_lists = st.lists(st.one_of(st.integers(0, sim.MAX_TRIALS), st.sampled_from([0, sim.MAX_TRIALS])),
                       min_size=1, max_size=8)
COUNTS = [1, 2, 3, 4, 5, 7, 2**20, 2**31, 2**32, 2**32 + 1]


def seed_sequence_states(prefixes, trials):
    return [[np.random.SeedSequence([*prefix, t]).generate_state(4, np.uint64) for t in trials]
            for prefix in prefixes]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(prefixes=st.lists(prefixes, min_size=1, max_size=3), trials=trial_lists)
@example(prefixes=[[0]], trials=[0])
@example(prefixes=[[2**200, 2**128, 2**64], [7], [3, 7]], trials=[sim.MAX_TRIALS, 0])
def test_seed_words_equal_seed_sequence_state(prefixes, trials):
    # prefixes of different word counts hash in separate passes of one call
    words = sim._seed_words(prefixes, trials)
    assert words.dtype == np.uint64 and words.shape == (len(prefixes), len(trials), 4)
    assert words.flags.c_contiguous
    np.testing.assert_array_equal(words, seed_sequence_states(prefixes, trials))


def test_seed_words_cover_a_whole_chunk_range():
    words = sim._seed_words([[2], [3, 2]], range(40, 82))
    np.testing.assert_array_equal(words, seed_sequence_states([[2], [3, 2]], range(40, 82)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(prefixes=st.lists(prefixes, min_size=1, max_size=2), trials=trial_lists)
def test_generators_draw_the_stream_of_default_rng(prefixes, trials):
    for prefix, rngs in zip(prefixes, sim._generators(prefixes, trials), strict=True):
        for t, rng in zip(trials, rngs, strict=True):
            ref = np.random.default_rng(np.random.SeedSequence([*prefix, t]))
            np.testing.assert_array_equal(rng.normal(size=5), ref.normal(size=5))
            np.testing.assert_array_equal(rng.integers(0, 1000, 7), ref.integers(0, 1000, 7))
            np.testing.assert_array_equal(rng.permutation(16), ref.permutation(16))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("index", [2**32, -1])
def test_seed_words_refuse_a_trial_index_outside_one_word(index):
    with pytest.raises(ValueError, match="trial indices"):
        sim._seed_words([[1]], [0, index])


def test_seed_words_refuse_negative_entropy():
    with pytest.raises(ValueError, match="seed entropy"):
        sim._seed_words([[1], [-1]], [0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m1=st.one_of(st.sampled_from(COUNTS), st.integers(1, 2**40)),
       m2=st.one_of(st.sampled_from(COUNTS), st.integers(1, 2**40)),
       blocks=st.integers(2, 6), seed=st.integers(0, 2**64))
def test_draw_messages_equals_two_calls_per_trial(m1, m2, blocks, seed):
    code = SimpleNamespace(num_blocks=blocks, m1_count=m1, m2_count=m2)
    rngs = [np.random.default_rng([seed, t]) for t in range(3)]
    refs = [np.random.default_rng([seed, t]) for t in range(3)]
    msgs = draw_messages(code, rngs)
    two_calls = np.array([[r.integers(0, m1, blocks - 1), r.integers(0, m2, blocks - 1)]
                          for r in refs]).transpose(0, 2, 1)
    assert msgs.dtype == two_calls.dtype and msgs.shape == (3, blocks - 1, 2)
    np.testing.assert_array_equal(msgs, two_calls)
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state
