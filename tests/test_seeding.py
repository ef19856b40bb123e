"""The trial generators' streams against numpy's own: sim._seed_words restates
SeedSequence's hash, codec.draw_messages restates integers' multiply-shift
draw on raw words, and codec.normals, codec.permutations and codec.row_powers
stack per-trial normal, permutation and dot calls, so each is checked draw
for draw, and state for state, against the numpy forms it replaces.  A numpy
release that changes any of them fails here."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avrc import sim
from avrc.codec import draw_messages, normals, permutations, row_powers

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


@pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (2, np.uint64), (4, np.uint32)])
def test_fixed_seed_hands_out_its_four_uint64_words_only(n_words, dtype):
    words = np.arange(4, dtype=np.uint64)
    seed = sim._fixed_seed_type()(words)
    assert seed.generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match=r"^FixedSeed holds 4 uint64 words only$"):
        seed.generate_state(n_words, dtype)


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


def _next_draws(rng):
    """What a generator draws next through each of numpy's paths: 64-bit
    words (integers over a wide range), 32-bit halves (a small permutation)
    and float32s (halves again)."""
    return rng.integers(0, 2**40, 3), rng.permutation(9), rng.random(5, dtype=np.float32)


def _assert_same_generators(rngs, refs):
    for rng, ref in zip(rngs, refs, strict=True):
        # some bit generators keep arrays in their state, which == cannot compare
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        for got, want in zip(_next_draws(rng), _next_draws(ref), strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class _CountedGenerator(np.random.Generator):
    """A Generator that records whether `integers` ran on it."""
    drew_integers = False

    def integers(self, *args, **kwargs):
        self.drew_integers = True
        return super().integers(*args, **kwargs)


def _words_past(rng, words):
    """The PCG state `words` raw words past rng's, leaving rng as it is."""
    probe = np.random.Generator(np.random.PCG64())
    probe.bit_generator.state = rng.bit_generator.state
    probe.bit_generator.advance(words)
    return probe.bit_generator.state["state"]


# 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of their half
# words, 2**32 - 1 almost none; 2**32 takes the half word as it is; 1 draws
# nothing, and a count above 2**32 draws from 64-bit words
@pytest.mark.parametrize("m1, m2", [(2**31 + 1, 3 * 2**30 + 1), (2**32 - 1, 2**31 + 1),
                                    (2**32, 2**32 - 1), (5, 2**32), (2**32, 1), (1, 2**32),
                                    (2**32, 2**32 + 1), (2**33 + 3, 3 * 2**30 + 1)])
@pytest.mark.parametrize("blocks", [2, 4])
@pytest.mark.parametrize("buffered", [False, True])
def test_draw_messages_equals_integers_where_numpy_rejects(m1, m2, blocks, buffered):
    code = SimpleNamespace(num_blocks=blocks, m1_count=m1, m2_count=m2)
    rngs = [_CountedGenerator(np.random.PCG64([41, t])) for t in range(48)]
    refs = [np.random.default_rng([41, t]) for t in range(48)]
    if buffered:
        # a float32 draw leaves the generator holding a 32-bit half word
        for rng in rngs[::2] + refs[::2]:
            rng.random(dtype=np.float32)
    held = [ref.bit_generator.state["has_uint32"] == 1 for ref in refs]
    unrejected = [_words_past(ref, blocks - 1) for ref in refs]
    msgs = draw_messages(code, rngs)
    two_calls = np.array([[r.integers(0, m1, blocks - 1), r.integers(0, m2, blocks - 1)]
                          for r in refs]).transpose(0, 2, 1)
    assert msgs.dtype == two_calls.dtype and msgs.shape == (48, blocks - 1, 2)
    np.testing.assert_array_equal(msgs, two_calls)
    # integers runs for exactly the trials the raw words cannot serve: numpy
    # rejected a draw (so it took more than B-1 words), the generator held a
    # half word, or a count is outside [2, 2**32]
    outside = not (2 <= min(m1, m2) and max(m1, m2) <= 2**32)
    rejected = [ref.bit_generator.state["state"] != want for ref, want in zip(refs, unrejected)]
    assert [rng.drew_integers for rng in rngs] == [
        outside or h or r for h, r in zip(held, rejected)]
    _assert_same_generators(rngs, refs)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64, np.random.PCG64DXSM])
def test_draw_messages_on_other_bit_generators_equals_integers(bit_generator):
    # the raw-word draw restates PCG64's; any other bit generator takes integers
    code = SimpleNamespace(num_blocks=3, m1_count=2**31 + 1, m2_count=5)
    rngs = [np.random.Generator(bit_generator(t)) for t in range(8)]
    refs = [np.random.Generator(bit_generator(t)) for t in range(8)]
    two_calls = np.array([[r.integers(0, 2**31 + 1, 2), r.integers(0, 5, 2)]
                          for r in refs]).transpose(0, 2, 1)
    np.testing.assert_array_equal(draw_messages(code, rngs), two_calls)
    _assert_same_generators(rngs, refs)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0])
def test_normals_are_the_floats_of_normal(scale):
    rngs = [np.random.default_rng([43, t]) for t in range(6)]
    refs = [np.random.default_rng([43, t]) for t in range(6)]
    stack = normals(rngs, scale, (3, 17))
    want = np.stack([r.normal(0.0, scale, (3, 17)) for r in refs])
    # byte equality also compares the sign bits of zeros: numpy's 0.0 + 0.0 * g
    # is +0.0 for a negative g as well
    assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
    if scale == 0.0:
        assert not np.signbit(stack).any()
    _assert_same_generators(rngs, refs)


@pytest.mark.parametrize("n", [1, 2, 16, 128, 513])
def test_permutations_equal_permutation_per_generator(n):
    rngs = [np.random.default_rng([47, t]) for t in range(5)]
    refs = [np.random.default_rng([47, t]) for t in range(5)]
    stack = permutations(rngs, n)
    want = np.stack([r.permutation(n) for r in refs])
    assert stack.dtype == want.dtype
    np.testing.assert_array_equal(stack, want)
    _assert_same_generators(rngs, refs)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 127, 128, 512, 1000, 4096])
def test_row_powers_equal_the_per_row_dot(n):
    rows = np.random.default_rng(n).normal(size=(9, n)) * np.logspace(-3, 3, 9)[:, None]
    want = np.array([row @ row for row in rows])
    assert row_powers(rows).tobytes() == want.tobytes()
    # a stack of blocks, as the power checks pass them, gives the same floats
    assert row_powers(rows.reshape(3, 3, n)).tobytes() == want.tobytes()
