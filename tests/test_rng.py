"""The named streams: their keys, the key Philox runs on, and the raw
words the generator streams and the trial streams are read from, a
block at a time."""

import numpy as np
import numpy.random.bit_generator
import pytest

from subsetphase.rng import TrialStreams, block_seeds, derive_seed, stream, stream_key, stream_words

# stream_key(5, "gen", "sign", 0): one word below 2^63 and one above it
SHA_WORDS = (3527113363713847396, 15705697461484566599)
PHILOX_KEY = (3527113363713847296, 15705697461484566528)


class TestStreamKey:
    def test_pinned_words(self):
        assert stream_key(5, "gen", "sign", 0) == SHA_WORDS
        assert derive_seed(5, "gen", "sign", 0) == SHA_WORDS[0]

    def test_tags_are_typed(self):
        assert stream_key(1, 2) != stream_key(1, "2")
        assert stream_key(np.int64(1), np.uint8(2), "x") == stream_key(1, 2, "x")
        assert stream_key(True, "x") == stream_key(1, "x")
        with pytest.raises(TypeError, match="boolean"):
            stream_key(1, True)
        with pytest.raises(TypeError, match="float"):
            stream_key(1, 2.0)


class TestPhiloxKey:
    def test_mixed_key_is_rounded(self):
        # np.asarray of a pair with one word on each side of 2^63 is
        # float64, so Philox runs on both words rounded to 53 bits
        rng = stream(5, "gen", "sign", 0)
        assert tuple(rng.bit_generator.state["state"]["key"].tolist()) == PHILOX_KEY
        assert np.asarray(SHA_WORDS).dtype == np.float64
        assert tuple(np.asarray(SHA_WORDS).astype(np.uint64).tolist()) == PHILOX_KEY

    def test_raw_and_generator_paths_read_the_same_words(self):
        reference = np.random.Philox(key=SHA_WORDS).random_raw(100)
        assert np.array_equal(stream(5, "gen", "sign", 0).bit_generator.random_raw(100), reference)
        assert np.array_equal(stream_words([5], "gen", "sign", 0, count=100)[0], reference)

    def test_keys_equal_philox_keyword_keys(self):
        # both halves of the rule: about half of the keys are mixed
        mixed = 0
        for i in range(400):
            key = stream_key(7, "keys", i)
            mixed += np.asarray(key).dtype == np.float64
            want = np.random.Philox(key=key).state["state"]["key"]
            assert np.array_equal(stream(7, "keys", i).bit_generator.state["state"]["key"], want)
        assert 120 < mixed < 280

    def test_no_seed_sequence_from_os_entropy(self, monkeypatch):
        def refuse(bits):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr(numpy.random.bit_generator, "randbits", refuse)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=SHA_WORDS)
        rng = stream(5, "gen", "sign", 0)
        assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
        stream_words([5, 6], "gen", "sign", 0, count=3)


class TestStreamWords:
    def test_block_rows_are_each_seeds_stream(self):
        seeds = [0, 3, 2**40, 11]
        words = stream_words(seeds, "a", 1, count=50)
        assert words.shape == (4, 50) and words.dtype == np.uint64
        for row, seed in zip(words, seeds):
            assert np.array_equal(row, stream(seed, "a", 1).bit_generator.random_raw(50))
        assert stream_words([], "a", count=5).shape == (0, 5)

    # uint8 fair bits of two integers calls, then random() keys
    @pytest.mark.parametrize("n_bits,n_coins,n_keys", [(1, 1, 3), (3, 5, 2), (5, 4, 1), (8, 9, 4), (290, 1740, 1740)])
    def test_generator_calls_read_the_documented_words(self, n_bits, n_coins, n_keys):
        bit_u32, coin_u32 = -(-n_bits // 4), -(-n_coins // 4)
        first_key = -(-(bit_u32 + coin_u32) // 2)
        for seed in range(4):
            rng = stream(seed, "map")
            bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
            coins = rng.integers(0, 2, size=n_coins, dtype=np.uint8)
            keys = rng.random(n_keys)
            words = stream_words([seed], "map", count=first_key + n_keys)[0]
            data = words.astype("<u8").view(np.uint8)
            assert np.array_equal(bits, data[:n_bits] >> 7)
            assert np.array_equal(coins, data[4 * bit_u32 : 4 * bit_u32 + n_coins] >> 7)
            assert np.array_equal(keys, (words[first_key:] >> 11) * 2.0**-53)

    def test_bytes_read_whole_words(self):
        # a copy stream reads only bytes(8c) calls, each the next c words
        rng = stream(9, "pool")
        pools = [np.frombuffer(rng.bytes(8 * c), dtype="<u8") for c in (64, 3, 128)]
        assert np.array_equal(np.concatenate(pools), stream_words([9], "pool", count=195)[0])


def key_kind(key) -> str:
    """Which side of 2^63 the two words of a key lie on."""
    high = [word >= 2**63 for word in key]
    return "mixed" if high[0] != high[1] else ("high" if high[0] else "low")


class TestBlockReads:
    """One Philox a block, re-keyed per stream, reads what a fresh Philox
    per stream would."""

    @pytest.mark.parametrize(
        "master_seed,tag,lo,hi", [(7, "sign-circuit", 0, 57), (2**63 + 5, "bit-circuit", 990, 1003)]
    )
    def test_block_seeds_are_derived_seeds(self, master_seed, tag, lo, hi):
        assert block_seeds(master_seed, tag, lo, hi) == [derive_seed(master_seed, tag, i) for i in range(lo, hi)]
        assert block_seeds(master_seed, tag, lo, lo) == []

    def test_trial_words_equal_each_streams_words(self):
        streams = TrialStreams(7, "keys", 0, 400)
        kinds = [key_kind(stream_key(7, "keys", i)) for i in range(400)]
        # exact keys on both sides of 2^63, and rounded mixed ones
        assert min(kinds.count(kind) for kind in ("low", "mixed", "high")) > 50
        words = streams.words(37)
        assert words.shape == (400, 37) and words.dtype == np.uint64
        for i, row in enumerate(words):
            assert np.array_equal(row, stream(7, "keys", i).bit_generator.random_raw(37))

    def test_a_block_keeps_the_rounded_key(self):
        # the pinned mixed key is read rounded inside a block, as alone
        reference = np.random.Philox(key=PHILOX_KEY).random_raw(20)
        assert np.array_equal(np.random.Philox(key=SHA_WORDS).random_raw(20), reference)
        assert np.array_equal(stream_words([5, 6, 5], "gen", "sign", 0, count=20)[[0, 2]], [reference] * 2)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_a_rekey_leaves_no_buffered_word(self, count):
        # Philox makes four words at a time: a read of 1, 2 or 3 leaves
        # the rest buffered, and a re-keyed stream must not start on them
        seeds = list(range(9))
        words = stream_words(seeds, "gen", "sign", 0, count=count)
        for row, seed in zip(words, seeds):
            assert np.array_equal(row, stream(seed, "gen", "sign", 0).bit_generator.random_raw(count))
        trial_words = TrialStreams(3, "pool", 0, 9).words(count)
        for i, row in enumerate(trial_words):
            assert np.array_equal(row, stream(3, "pool", i).bit_generator.random_raw(count))

    def test_a_trials_generator_reads_on_past_its_words(self):
        streams = TrialStreams(4, "pool", 10, 16)
        assert len(streams) == 6
        words = streams.words(7)
        for b in range(6):
            whole = stream(4, "pool", 10 + b).bit_generator.random_raw(12)
            assert np.array_equal(words[b], whole[:7])
            assert np.array_equal(streams[b].bit_generator.random_raw(5), whole[7:])
