import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetphase import drivers
from subsetphase.copysim import pack_bits, unpack_bits
from subsetphase.f2linalg import (
    BitMatrix,
    RankBoundParams,
    full_rank_probability_bound,
    full_rank_probability_sequential,
    is_full_row_rank,
    rank,
    ranks,
    wilson_interval,
)
from subsetphase.drivers import monte_carlo_full_rank_streamed
from subsetphase.rng import derive_seed, stream

from conftest import span_rank

# frozen from a 60-digit evaluation of the bound expressions
CLOSED_16_64 = 0.99999700989437226389
CLOSED_24_96 = 0.99999999697241578554


def bm(rows_bits: list[str]) -> BitMatrix:
    """Rows written as bit strings, leftmost character = column 1."""
    cols = len(rows_bits[0])
    ints = [sum(int(ch) << j for j, ch in enumerate(row)) for row in rows_bits]
    return BitMatrix(len(rows_bits), cols, ints)


class TestRank:
    def test_identity(self):
        assert rank(bm(["100", "010", "001"])) == 3

    def test_zero_matrix(self):
        assert rank(BitMatrix(4, 6, [0] * 4)) == 0

    def test_duplicate_row(self):
        assert rank(bm(["110", "110", "011"])) == 2

    def test_empty(self):
        assert rank(BitMatrix(0, 0, [])) == 0

    def test_input_unchanged(self):
        m = bm(["110", "011"])
        before = list(m.row_ints)
        rank(m)
        assert m.row_ints == before

    def test_exhaustive_small_shapes(self):
        # all matrices with rows*cols <= 10, one ``ranks`` call per shape;
        # the full sweep up to 16 bits runs in the acceptance suite
        for r in range(1, 11):
            for c in range(1, 10 // r + 1):
                mats = list(product(range(1 << c), repeat=r))
                got = ranks(np.array(mats, dtype=np.uint64).reshape(-1, r, 1))
                assert got.tolist() == [span_rank(list(rows)) for rows in mats]

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_transpose_preserves_rank(self, r, c, seed):
        rng = stream(seed, "transpose")
        bits = rng.random((8, r, c)) < rng.random()
        got = ranks(pack_bits(bits))
        assert got.tolist() == ranks(pack_bits(bits.swapaxes(-1, -2))).tolist()
        assert (got <= min(r, c)).all()

    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2**36 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_operations_preserve_rank(self, r, c, packed, data):
        rows = [(packed >> (i * c)) & ((1 << c) - 1) for i in range(r)]
        base = rank(BitMatrix(r, c, rows))
        i = data.draw(st.integers(0, r - 1))
        j = data.draw(st.integers(0, r - 1))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert rank(BitMatrix(r, c, swapped)) == base
        if i != j:
            added = list(rows)
            added[i] ^= added[j]
            assert rank(BitMatrix(r, c, added)) == base


class TestFullRowRank:
    def test_independent_rows(self):
        assert is_full_row_rank(bm(["1000", "0100"]))

    def test_dependent_rows(self):
        assert not is_full_row_rank(bm(["1010", "1010"]))

    def test_more_rows_than_cols_is_false(self):
        assert not is_full_row_rank(bm(["10", "01", "11"]))

    def test_matches_rank(self):
        rng = stream(11, "frr")
        for _ in range(200):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(r, 9))
            m = BitMatrix.from_dense(rng.random((r, c)) < 0.4)
            assert is_full_row_rank(m) == (rank(m) == r)


class TestRanks:
    """The batched elimination every rank runs through."""

    @pytest.mark.parametrize("r,c", [(5, 130), (70, 40), (66, 130), (9, 3), (64, 64)])
    def test_matches_known_rank_across_words(self, r, c):
        # three words a row at c = 130, more rows than a word at r > 64,
        # and more rows than columns, batched and one matrix at a time.
        # L @ E @ U has rank k when E holds a k x k identity and L, U are
        # unit triangular, so invertible
        rng = stream(31, "ranks", r, c)
        want = [0, 1, min(r, c) // 2, min(r, c) - 1, min(r, c)]
        bits = []
        for k in want:
            L = np.tril(rng.integers(0, 2, (r, r)), -1) + np.eye(r, dtype=np.int64)
            U = np.triu(rng.integers(0, 2, (c, c)), 1) + np.eye(c, dtype=np.int64)
            E = np.zeros((r, c), dtype=np.int64)
            E[range(k), range(k)] = 1
            bits.append(L @ E @ U % 2)
        assert ranks(pack_bits(np.array(bits))).tolist() == want
        assert [rank(BitMatrix.from_dense(x)) for x in bits] == want

    def test_leading_axes_keep_their_shape(self):
        bits = stream(32, "lead").random((2, 3, 4, 5, 70)) < 0.5
        got = ranks(pack_bits(bits))
        assert got.shape == (2, 3, 4) and got.dtype == np.int64
        assert got.reshape(-1).tolist() == ranks(pack_bits(bits.reshape(-1, 5, 70))).tolist()
        assert ranks(pack_bits(bits[0, 0, 0])).shape == ()
        assert int(ranks(pack_bits(bits[0, 0, 0]))) == got[0, 0, 0]

    @pytest.mark.parametrize("shape", [(4, 0, 2), (4, 3, 0), (0, 3, 2), (0, 0, 0), (2, 0, 3, 1)])
    def test_empty_shapes(self, shape):
        # no rows, no column words, or no matrices: every rank is 0
        got = ranks(np.ones(shape, dtype=np.uint64))
        assert got.shape == shape[:-2] and not got.any()

    def test_input_unchanged(self):
        rows = pack_bits(stream(33, "same").random((16, 12, 100)) < 0.5)
        before = rows.copy()
        ranks(rows)
        assert np.array_equal(rows, before)


class TestRankMcBlocks:
    """``rank-mc``'s trials, read a block of trial streams at a time."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_block_bits_replay_generator(self, monkeypatch, p):
        # every trial's matrix is what a fresh Generator on its stream
        # draws, ``random((rows, cols)) < p``, whatever block it sits in
        rows, cols, seed, lo, hi = 5, 70, 9, 3, 150
        seen = []
        monkeypatch.setattr(drivers, "ranks", lambda words: seen.append(words) or ranks(words))
        monkeypatch.setattr(drivers, "_RANK_SPAN_TRIALS", 64)
        hits = drivers._mc_rank_span((rows, cols, p, seed, lo, hi))
        assert [len(words) for words in seen] == [64, 64, 19]
        got = unpack_bits(np.concatenate(seen), cols).astype(bool)
        want = np.stack([stream(seed, "rank-mc", i).random((rows, cols)) < p for i in range(lo, hi)])
        assert np.array_equal(got, want)
        assert hits == sum(span_rank(BitMatrix.from_dense(x).row_ints) == rows for x in want)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.3, 0.5, 1.0])
    def test_cut_at_its_boundary(self, monkeypatch, p):
        # words whose top 53 bits sit just below, at and just above
        # p * 2^53 are cut as ``Generator.random`` cuts them:
        # (w >> 11) * 2^-53 < p
        edge = math.ceil(p * 2**53)
        top = np.array([min(max(v, 0), 2**53 - 1) for v in (edge - 1, edge, edge + 1, 0, 2**53)], dtype=np.uint64)
        words = (top << np.uint64(11)) | np.array([0, 2047, 5, 1, 2047], dtype=np.uint64)

        class Fixed:
            """Every trial's stream starts with ``words``."""

            def __init__(self, master_seed, tag, lo, hi):
                self.trials = hi - lo

            def words(self, count):
                return np.tile(words[:count], (self.trials, 1))

        seen = []
        monkeypatch.setattr(drivers, "TrialStreams", Fixed)
        monkeypatch.setattr(drivers, "ranks", lambda w: seen.append(w) or ranks(w))
        drivers._mc_rank_span((1, 5, p, 0, 0, 2))
        got = unpack_bits(np.concatenate(seen), 5)[:, 0].astype(bool)
        assert got.tolist() == [((words >> np.uint64(11)) * 2.0**-53 < p).tolist()] * 2

    def test_blocks_stay_under_the_word_cap(self, monkeypatch):
        # a block's raw words stay within 64 * _BLOCK_CELLS, at least one
        # trial a block, and the estimate does not depend on block size
        sizes = []
        monkeypatch.setattr(drivers, "ranks", lambda words: sizes.append(len(words)) or ranks(words))
        monkeypatch.setattr(drivers, "_BLOCK_CELLS", 8)
        first = drivers._mc_rank_span((4, 40, 0.3, 5, 0, 20))
        assert sizes == [3] * 6 + [2]
        sizes.clear()
        drivers._mc_rank_span((30, 30, 0.3, 5, 0, 2))  # 900 words a trial
        assert sizes == [1, 1]
        monkeypatch.setattr(drivers, "_BLOCK_CELLS", 1 << 14)
        assert drivers._mc_rank_span((4, 40, 0.3, 5, 0, 20)) == first

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            monte_carlo_full_rank_streamed(2, 2, p, 10, 0)


class TestRankBoundParams:
    def test_derived_quantities(self):
        p = RankBoundParams(p=0.25, l=16, m=64, epsilon=0.5)
        assert p.q == 0.75
        assert p.p_hi == pytest.approx(0.375)
        assert p.q_hi == pytest.approx(0.625)
        assert p.s == pytest.approx((0.25 * 0.75) ** 0.625)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0, "l": 4, "m": 8},
            {"p": 0.6, "l": 4, "m": 8},
            {"p": 0.25, "l": 4, "m": 8, "epsilon": 1.5},
            {"p": 0.25, "l": 4, "m": 8, "epsilon": 0.0},
            {"p": 0.25, "l": -1, "m": 8},
            {"p": 0.25, "l": 9, "m": 8},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            RankBoundParams(**kwargs)


class TestClosedFormBound:
    def test_trivial_l_zero(self):
        assert full_rank_probability_bound(RankBoundParams(p=0.25, l=0, m=8)) == 1.0

    def test_pinned_value_16_64(self):
        got = full_rank_probability_bound(RankBoundParams(p=0.25, l=16, m=64, epsilon=0.5))
        assert got == pytest.approx(CLOSED_16_64, rel=1e-12)

    def test_pinned_value_24_96(self):
        got = full_rank_probability_bound(RankBoundParams(p=0.25, l=24, m=96, epsilon=0.5))
        assert got == pytest.approx(CLOSED_24_96, rel=1e-12)

    def test_monotone_in_m(self):
        prev = 0.0
        for m in (16, 24, 40, 64, 120):
            cur = full_rank_probability_bound(RankBoundParams(p=0.25, l=16, m=m, epsilon=0.5))
            assert cur >= prev
            prev = cur

    def test_value_in_unit_interval(self):
        for p in (0.1, 0.25, 0.5):
            for l, m in ((4, 16), (8, 32), (16, 200)):
                v = full_rank_probability_bound(RankBoundParams(p=p, l=l, m=m))
                assert 0.0 < v <= 1.0


class TestSequentialBound:
    def test_trivial_l_zero(self):
        assert full_rank_probability_sequential(RankBoundParams(p=0.25, l=0, m=8)).value == 1.0

    def test_single_row_is_one_minus_qm(self):
        for m in (8, 16, 33):
            got = full_rank_probability_sequential(RankBoundParams(p=0.25, l=1, m=m))
            assert got.value == pytest.approx(1.0 - 0.75**m, rel=1e-14)
            assert got.valid

    def test_agrees_with_closed_form(self):
        # the closed form replaces the product by an exponential; at these
        # points the gap is far below 1e-9 relative
        for l, m, pinned in ((16, 64, CLOSED_16_64), (24, 96, CLOSED_24_96)):
            seq = full_rank_probability_sequential(RankBoundParams(p=0.25, l=l, m=m, epsilon=0.5))
            assert seq.valid
            assert abs(seq.value - pinned) / pinned < 1e-9

    def test_result_in_unit_interval_and_valid(self):
        # the m >= l and p <= 1/2 invariants keep every factor positive
        # (checked over a wide grid), so the negative-factor clamp is a
        # defensive guard and validity holds across the legal domain
        for p in (0.02, 0.25, 0.5):
            for l, m in ((1, 1), (8, 8), (8, 24), (40, 40)):
                v = full_rank_probability_sequential(RankBoundParams(p=p, l=l, m=m, epsilon=0.95))
                assert 0.0 <= v.value <= 1.0
                assert v.valid


class TestMonteCarlo:
    def test_certain_full_rank(self):
        est = monte_carlo_full_rank_streamed(1, 1, 1.0, 50, derive_seed(0, "mc1"))
        assert est.estimate == 1.0

    def test_two_by_two_half(self):
        # exhaustive oracle: 6 of the 16 GF(2) 2x2 matrices are invertible
        invertible = sum(
            1
            for rows in product(range(4), repeat=2)
            if span_rank(list(rows)) == 2
        )
        assert invertible == 6
        est = monte_carlo_full_rank_streamed(2, 2, 0.5, 20_000, 3)
        assert est.ci95.lo <= 6 / 16 <= est.ci95.hi

    def test_deterministic_per_seed(self):
        a = monte_carlo_full_rank_streamed(4, 8, 0.25, 500, derive_seed(5, "mcdet"))
        b = monte_carlo_full_rank_streamed(4, 8, 0.25, 500, derive_seed(5, "mcdet"))
        assert a == b

    def test_estimate_dominates_bound(self):
        est = monte_carlo_full_rank_streamed(16, 64, 0.25, 10_000, derive_seed(8, "mcbound"))
        bound = full_rank_probability_bound(RankBoundParams(p=0.25, l=16, m=64, epsilon=0.5))
        assert est.estimate >= bound - (est.ci95.hi - est.ci95.lo) / 2

    def test_bound_below_estimate_across_grid(self):
        # p <= 1/4 and m*p >= 8 as the validity envelope
        for p, l, m in ((0.25, 8, 32), (0.25, 16, 64), (0.125, 8, 64), (0.125, 12, 96)):
            est = monte_carlo_full_rank_streamed(l, m, p, 2_000, derive_seed(13, "grid", l, m))
            bound = full_rank_probability_bound(RankBoundParams(p=p, l=l, m=m, epsilon=0.5))
            half = (est.ci95.hi - est.ci95.lo) / 2
            assert bound <= est.estimate + 2 * half


class TestWilson:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi == pytest.approx(1.0, abs=1e-12)

    def test_contains_phat(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi


class TestBitMatrixBasics:
    def test_dense_roundtrip(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        m = BitMatrix.from_dense(a)
        assert m == BitMatrix(2, 3, [0b101, 0b110])
        assert np.array_equal([[(v >> j) & 1 for j in range(m.cols)] for v in m.row_ints], a)

    def test_from_dense_packs_column_j_into_bit_j(self):
        a = stream(19, "dense").integers(0, 2, size=(5, 70), dtype=np.uint8)
        m = BitMatrix.from_dense(a)
        assert m.row_ints == [sum(int(b) << j for j, b in enumerate(row)) for row in a]
        assert BitMatrix.from_dense(np.zeros((3, 0), dtype=bool)) == BitMatrix(3, 0, [0] * 3)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, [4])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix(2, 2, [1])
