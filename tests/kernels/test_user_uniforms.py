"""The chunk-wide RNG primitive reads exactly the per-user streams.

``user_uniforms`` replays SeedSequence pool mixing and PCG64 seeding as
array arithmetic over a whole chunk of user ids; every byte it returns
must equal the concatenated ``user_rng(seed, uid).random(count)`` reads
it replaces, for any seed width (one to several entropy words) and any
user id that fits one spawn-key word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.gaussian import split_user_blocks, user_rng, user_uniforms

#: Seeds of one, two and three entropy words, plus random ones up to
#: five words (past the pool size of four).
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3)
seeds = st.one_of(
    st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**160)
)
uids = st.one_of(st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1))
chunks = st.lists(st.tuples(uids, st.integers(0, 12)), max_size=16)


def _reference(seed, user_ids, counts):
    parts = [
        user_rng(seed, uid).random(count) for uid, count in zip(user_ids, counts)
    ]
    return np.concatenate([np.empty(0)] + parts)


def _split(chunk):
    user_ids = np.array([uid for uid, _ in chunk], dtype=np.int64)
    counts = np.array([count for _, count in chunk], dtype=np.int64)
    return user_ids, counts


@given(seeds, chunks)
@settings(max_examples=60, deadline=None)
def test_bytes_equal_per_user_generators(seed, chunk):
    user_ids, counts = _split(chunk)
    got = user_uniforms(seed, user_ids, counts)
    assert got.dtype == np.float64
    assert got.tobytes() == _reference(seed, user_ids, counts).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_extreme_uids_and_zero_counts(seed):
    user_ids = np.array([0, 2**32 - 1, 7, 2**31], dtype=np.int64)
    counts = np.array([5, 0, 3, 9], dtype=np.int64)
    got = user_uniforms(seed, user_ids, counts)
    assert len(got) == 17
    assert got.tobytes() == _reference(seed, user_ids, counts).tobytes()


def test_empty_chunk_and_all_zero_counts():
    assert user_uniforms(3, [], []).shape == (0,)
    assert user_uniforms(3, [4, 5], [0, 0]).shape == (0,)


def test_uid_beyond_one_spawn_key_word_raises():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        user_uniforms(0, [1, 2**32], [1, 1])


def test_negative_uid_raises():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        user_uniforms(0, [-1], [1])


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        user_uniforms(-1, [0], [1])


def test_mismatched_lengths_raise():
    with pytest.raises(ValueError):
        user_uniforms(0, [0, 1], [1])
    with pytest.raises(ValueError, match="non-negative"):
        user_uniforms(0, [0], [-1])


def test_split_user_blocks_cuts_each_users_buffer_in_part_order():
    # Two users; user 0 owns parts of size (2, 1), user 1 of (0, 3).
    buf = np.array([10, 11, 12, 20, 21, 22])
    first, second = split_user_blocks(buf, (np.array([2, 0]), np.array([1, 3])))
    np.testing.assert_array_equal(first, [10, 11])
    np.testing.assert_array_equal(second, [12, 20, 21, 22])
