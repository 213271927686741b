import numpy as np
import pytest

from subsetphase import copysim
from subsetphase.circuit import MCX, SIGNED_MCZ, Circuit, ControlTerm, Gate, Layer
from subsetphase.copysim import (
    CopyEnsemble,
    apply_circuit,
    apply_circuit_recording,
    compile_circuit,
    pack_bits,
    pack_conditions,
    round_probes,
    run_steps,
    sample_initial_copies,
    site_words,
    step_program,
    unpack_bits,
    words_needed,
)
from subsetphase.f2linalg import BitMatrix, rank
from subsetphase.generators import (
    GenParams,
    depth_opt_thermalizer,
    gate_opt_program,
    gate_opt_thermalizer,
)
from subsetphase.rng import TrialStreams, stream
from test_circuit import ccx, mcx, random_circuit

from conftest import _pack_terms_words, _satisfied_words, apply_gate


class TestSampleInitialCopies:
    def test_full_domain(self):
        e = sample_initial_copies(6, 3, 8, stream(0, "full"))
        assert sorted(e.to_ints()) == list(range(8))

    def test_high_bits_zero(self):
        e = sample_initial_copies(40, 12, 50, stream(1, "hi0"))
        assert all(v < (1 << 12) for v in e.to_ints())
        assert np.all(e.signs == 1)

    def test_distinct(self):
        e = sample_initial_copies(64, 24, 200, stream(2, "dist"))
        assert e.is_distinct() and e.t == 200

    def test_first_k_marginals_fair(self):
        counts = np.zeros(10)
        trials = 3000
        for i in range(trials):
            e = sample_initial_copies(16, 10, 2, stream(3, "marg", i))
            counts += e.bits()[:, :10].sum(axis=0)
        freqs = counts / (2 * trials)
        assert np.all(np.abs(freqs - 0.5) < 0.05)

    def test_rejects_oversized_t(self):
        with pytest.raises(ValueError):
            sample_initial_copies(8, 3, 9, stream(0, "bad"))

    def test_deterministic(self):
        a = sample_initial_copies(32, 16, 5, stream(9, "det"))
        b = sample_initial_copies(32, 16, 5, stream(9, "det"))
        assert a == b

    def test_wide_system(self):
        e = sample_initial_copies(100, 80, 10, stream(4, "wide"))
        assert e.copies.shape == (10, words_needed(100))
        assert e.is_distinct()


def reference_initial_copies(n: int, k: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Per-trial sampler, written out: a permutation prefix of a small
    domain; otherwise the first t distinct strings of pools of
    max(2t, 64) draws, in draw order."""
    copies = np.zeros((t, words_needed(n)), dtype=np.uint64)
    if k <= 12:
        copies[:, 0] = rng.permutation(1 << k)[:t]
        return copies
    kept: list[bytes] = []
    while len(kept) < t:
        raw = np.frombuffer(rng.bytes(max(2 * t, 64) * 8), dtype=np.uint64)
        for value in (raw & np.uint64((1 << k) - 1 if k < 64 else 2**64 - 1)).tolist():
            if value not in kept:
                kept.append(value)
    copies[:, 0] = kept[:t]
    return copies


class TestSampleInitialBlock:
    # two dense shapes; sparse at k=24 and at full width; sparse with about
    # a fifth of the trials colliding within their first t draws
    SHAPES = [(12, 12, 6), (40, 10, 50), (64, 24, 200), (64, 64, 32), (64, 13, 64)]

    @pytest.mark.parametrize("n,k,t", SHAPES)
    def test_equals_per_trial_sampler(self, monkeypatch, n, k, t):
        fallbacks = []
        first_distinct = copysim._first_distinct

        def counted(pool, *args):
            fallbacks.append(len(pool))
            return first_distinct(pool, *args)

        monkeypatch.setattr(copysim, "_first_distinct", counted)
        trials = 200
        block = copysim.sample_initial_block(n, k, t, TrialStreams(20, "block", 0, trials))
        assert block.shape == (trials, t, words_needed(n))
        dedupes = len(fallbacks)
        for i in range(trials):
            one = sample_initial_copies(n, k, t, stream(20, "block", i))
            assert np.array_equal(block[i], one.copies)
            assert np.array_equal(block[i], reference_initial_copies(n, k, t, stream(20, "block", i)))
        if (n, k, t) == (64, 13, 64):
            # 1 - exp(-64·63/2 / 2^13) = 0.218 of the trials take the fallback
            assert 0.1 * trials < dedupes < 0.35 * trials
        elif k > 12:
            assert dedupes == 0


    def test_top_ups_read_the_stream_on(self):
        # a pool of one repeated row keeps one copy: every other copy comes
        # from top-ups of max(2t, 64) strings each, read on from the
        # stream as rng.bytes reads it; 60 of a 2^6 domain takes several
        n, k, t = 70, 6, 60
        top_ups = []
        for i in range(20):
            got = copysim._first_distinct(np.zeros((64, 2), dtype=np.uint64), stream(21, "top-up", i), n, k, t)
            rng, kept, reads = stream(21, "top-up", i), [0], 0
            while len(kept) < t:
                reads += 1
                for value in (np.frombuffer(rng.bytes(max(2 * t, 64) * 8), dtype=np.uint64) & np.uint64(63)).tolist():
                    if value not in kept:
                        kept.append(value)
            assert got[:, 0].tolist() == kept[:t] and not got[:, 1].any()
            top_ups.append(reads)
        assert max(top_ups) >= 2


    def test_wide_collisions_dedupe_on_both_words(self, monkeypatch):
        # k = 70 strings take two words.  Trial b's first t draws repeat
        # pair b's first draw at its second; in a second set of trials the
        # repeat differs in the high word alone, so those stay as drawn
        n, k, t = 130, 70, 4
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        trials = 2 * len(pairs)

        class Planted:
            """``TrialStreams`` whose pool words repeat a draw per trial."""

            def __init__(self):
                self.streams = TrialStreams(24, "wide", 0, trials)

            def __len__(self):
                return trials

            def __getitem__(self, b):
                return self.streams[b]

            def words(self, count):
                words = self.streams.words(count)
                for b, (i, j) in enumerate(pairs * 2):
                    words[b, 2 * j : 2 * j + 2] = words[b, 2 * i : 2 * i + 2]
                    words[b, 2 * j + 1] ^= np.uint64(b >= len(pairs))
                self.drawn = words
                return words

        fallbacks = []
        first_distinct = copysim._first_distinct

        def counted(pool, *args):
            fallbacks.append(len(pool))
            return first_distinct(pool, *args)

        monkeypatch.setattr(copysim, "_first_distinct", counted)
        streams = Planted()
        block = copysim.sample_initial_block(n, k, t, streams)
        assert len(fallbacks) == len(pairs)
        strings = streams.drawn.reshape(trials, -1, 2) & np.array([2**64 - 1, 63], dtype=np.uint64)
        for b in range(trials):
            kept = []
            for value in map(tuple, strings[b].tolist()):
                if value not in kept:
                    kept.append(value)
            assert block[b, :, :2].tolist() == [list(v) for v in kept[:t]]
            assert not block[b, :, 2].any()


def set_rule(copies: np.ndarray) -> list[bool]:
    """Whether each trial's (t, W) copies are distinct, by a set of row bytes."""
    return [len({row.tobytes() for row in trial}) == len(trial) for trial in copies]


class TestDistinct:
    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_equals_the_set_rule(self, W):
        # trial b repeats copy i at copy j for pair b; in a second set of
        # trials the repeat differs in its last word alone
        t = 6
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        copies = stream(22, "distinct", W).integers(0, 2**64, size=(2 * len(pairs), t, W), dtype=np.uint64)
        for b, (i, j) in enumerate(pairs * 2):
            copies[b, j] = copies[b, i]
            copies[b, j, -1] ^= np.uint64(b >= len(pairs))
        got = copysim.distinct(copies)
        assert got.tolist() == set_rule(copies) == [False] * len(pairs) + [True] * len(pairs)
        # leading axes stay as they are, and one set of copies gives a 0-d flag
        assert copysim.distinct(copies.reshape(2, -1, t, W)).tolist() == got.reshape(2, -1).tolist()
        assert [bool(copysim.distinct(trial)) for trial in copies] == got.tolist()

    @pytest.mark.parametrize("W", [1, 2])
    def test_one_copy_and_no_trials(self, W):
        assert copysim.distinct(np.zeros((3, 1, W), dtype=np.uint64)).tolist() == [True] * 3
        assert copysim.distinct(np.zeros((0, 5, W), dtype=np.uint64)).shape == (0,)


class TestApplyGate:
    def test_ccx_flips_only_matching_copies(self):
        # controls at sites 2 and 3 requiring 1, target site 5: only the
        # copy with both bits set gets its fifth bit flipped
        e = CopyEnsemble.from_ints(5, [0b00110, 0b00010, 0b10110])
        g = ccx(2, 3, 5)
        out = apply_gate(e, g)
        assert out.to_ints() == [0b10110, 0b00010, 0b00110]

    def test_polarized_controls(self):
        # control requires value 0 at site 1
        e = CopyEnsemble.from_ints(3, [0b000, 0b001])
        g = Gate(MCX, (ControlTerm(1, 0),), 3)
        out = apply_gate(e, g)
        assert out.to_ints() == [0b100, 0b001]

    def test_mcx_involution(self):
        rng = stream(5, "invol")
        e = sample_initial_copies(12, 12, 6, rng)
        g = mcx([2, 5, 7], 9)
        assert apply_gate(apply_gate(e, g), g) == e

    def test_mcz_never_changes_bits(self):
        e = CopyEnsemble.from_ints(4, [0b0011, 0b1011])
        g = Gate(SIGNED_MCZ, (ControlTerm(1, 1), ControlTerm(2, 1)), 4, target_value=1)
        out = apply_gate(e, g)
        assert out.to_ints() == e.to_ints()
        assert list(out.signs) == [1, -1]

    def test_input_unchanged(self):
        e = CopyEnsemble.from_ints(3, [0b111])
        apply_gate(e, ccx(1, 2, 3))
        assert e.to_ints() == [0b111]


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        e = sample_initial_copies(10, 4, 3, stream(0, "id"))
        assert apply_circuit(e, Circuit(n=10, layers=())) == e

    def test_layer_permutation_invariance(self):
        rng = stream(6, "perm")
        for _ in range(20):
            n = 10
            c = random_circuit(rng, n, 4)
            e = sample_initial_copies(n, n, 5, rng)
            base = apply_circuit(e, c)
            shuffled_layers = tuple(
                Layer((layer.gates[i] for i in rng.permutation(len(layer.gates))), check=False)
                for layer in c.layers
            )
            again = apply_circuit(e, Circuit(n=n, layers=shuffled_layers))
            assert base == again

    @pytest.mark.parametrize("n", [12, 70, 130])
    def test_step_walk_equals_naive_gate_by_gate(self, n):
        # the step kernel evaluates whole steps of rows against one state;
        # this must be observationally identical to sequential apply_gate,
        # probes included, at one, two and three words per copy
        rng = stream(7, "steps", n)
        for trial in range(40):
            c = random_circuit(rng, n, 5 if n == 12 else 12)
            e = sample_initial_copies(n, n, 6, rng)
            probes = []
            for _ in range(int(rng.integers(0, 4))):
                sites = rng.choice(n, size=int(rng.integers(0, 4)), replace=False) + 1
                terms = [ControlTerm(int(s), int(rng.integers(0, 2))) for s in sites]
                probes.append((int(rng.integers(0, len(c.layers) + 1)), terms))
            stepped, x = apply_circuit_recording(e, c, probes)
            naive = e
            columns = [None] * len(probes)
            for li in range(len(c.layers) + 1):
                for slot, (at, terms) in enumerate(probes):
                    if at == li:
                        mask, pattern = _pack_terms_words(terms, naive.copies.shape[1])
                        columns[slot] = _satisfied_words(naive.copies, mask, pattern)
                if li < len(c.layers):
                    for g in c.layers[li].gates:
                        naive = apply_gate(naive, g)
            assert stepped == naive
            want = np.stack(columns, axis=1) if columns else np.zeros((6, 0), dtype=bool)
            assert x == BitMatrix.from_dense(want)

    def test_shared_condition_runs_in_one_step(self):
        # same condition, many targets in a row, including a repeated
        # target (flips twice, i.e. cancels)
        shared = (ControlTerm(1, 1), ControlTerm(2, 1))
        gates = [Gate(MCX, shared, t) for t in (3, 4, 5, 4)]
        layers = tuple(Layer([g]) for g in gates)
        c = Circuit(n=5, layers=layers)
        assert compile_circuit(layers, 1).starts == (0,)
        e = CopyEnsemble.from_ints(5, [0b00011, 0b00001])
        out = apply_circuit(e, c)
        naive = e
        for g in gates:
            naive = apply_gate(naive, g)
        assert out == naive
        assert out.to_ints()[0] == 0b00011 ^ 0b00100 ^ 0b01000 ^ 0b10000 ^ 0b01000

    def test_dependent_read_starts_a_new_step(self):
        # second gate reads the first gate's target, so the first flip
        # must land before the second gate is evaluated
        g1 = Gate(MCX, (ControlTerm(1, 1),), 2)
        g2 = Gate(MCX, (ControlTerm(2, 1),), 3)
        c = Circuit(n=3, layers=(Layer([g1]), Layer([g2])))
        assert compile_circuit(c.layers, 1).starts == (0, 1)
        e = CopyEnsemble.from_ints(3, [0b001])
        assert apply_circuit(e, c).to_ints() == [0b111]

    def test_mcz_sees_pending_flips(self):
        g1 = Gate(MCX, (ControlTerm(1, 1),), 2)
        gz = Gate(SIGNED_MCZ, (ControlTerm(1, 1),), 2, target_value=1)
        c = Circuit(n=2, layers=(Layer([g1]), Layer([gz])))
        e = CopyEnsemble.from_ints(2, [0b01])
        out = apply_circuit(e, c)
        assert out.to_ints() == [0b11]
        assert list(out.signs) == [-1]

    def test_wide_system_matches_narrow_semantics(self):
        # same circuit on n=70 (two words) and n=20 acting on low sites
        rng = stream(8, "wide-eq")
        c20 = random_circuit(rng, 20, 4, allow_mcz=True)
        c70 = Circuit(n=70, layers=c20.layers)
        vals = [int(v) for v in rng.integers(0, 2**20, size=5)]
        e20 = CopyEnsemble.from_ints(20, vals)
        e70 = CopyEnsemble.from_ints(70, vals)
        out20 = apply_circuit(e20, c20)
        out70 = apply_circuit(e70, c70)
        assert out20.to_ints() == out70.to_ints()
        assert list(out20.signs) == list(out70.signs)

    def test_bijectivity_exhaustive(self):
        # a circuit permutes the whole basis: apply to all 2^n strings
        rng = stream(9, "biject")
        for n in (8, 10, 12):
            c = random_circuit(rng, n, 4, allow_mcz=False)
            e = CopyEnsemble.from_ints(n, list(range(1 << n)))
            out = apply_circuit(e, c)
            assert sorted(out.to_ints()) == list(range(1 << n))

    def test_distinctness_preserved_across_thermalizer(self):
        for seed in range(15):
            gp = GenParams(n=24, k=8, t=4, alpha=3.0, m=2, seed=seed)
            c = gate_opt_thermalizer(gp)
            e = sample_initial_copies(24, 8, 4, stream(10, "dp", seed))
            assert apply_circuit(e, c).is_distinct()

    def test_dimension_mismatch_rejected(self):
        e = sample_initial_copies(8, 4, 2, stream(0, "dim"))
        with pytest.raises(ValueError):
            apply_circuit(e, Circuit(n=9, layers=()))


def condition_matrix(e: CopyEnsemble, conditions) -> BitMatrix:
    """Condition matrix of a fixed ensemble: layer-0 probes recorded
    through an empty circuit, which leaves the copies as they are."""
    final, x = apply_circuit_recording(e, Circuit(n=e.n, layers=()), [(0, terms) for terms in conditions])
    assert final == e
    return x


class TestConditionMatrix:
    def test_empty_condition_gives_ones_column(self):
        e = sample_initial_copies(8, 8, 4, stream(11, "ones"))
        x = condition_matrix(e, [[]])
        assert x.rows == 4 and x.cols == 1
        assert x.row_ints == [1, 1, 1, 1]

    def test_single_copy_pattern(self):
        e = CopyEnsemble.from_ints(4, [0b0101])
        conds = [
            [ControlTerm(1, 1)],  # satisfied
            [ControlTerm(2, 1)],  # not
            [ControlTerm(1, 1), ControlTerm(3, 1)],  # satisfied
        ]
        x = condition_matrix(e, conds)
        assert x.row_ints == [0b101]

    def test_entry_frequency_matches_condition_size(self):
        # uniform copies satisfy an m-site polarized condition w.p. 2^-m
        rng = stream(12, "freq")
        hits = 0
        total = 0
        for _ in range(300):
            e = sample_initial_copies(16, 16, 8, rng)
            conds = []
            for _ in range(10):
                sites = rng.choice(16, size=3, replace=False)
                vals = rng.integers(0, 2, size=3)
                conds.append([ControlTerm(int(s) + 1, int(v)) for s, v in zip(sites, vals)])
            x = condition_matrix(e, conds)
            hits += sum(r.bit_count() for r in x.row_ints)
            total += x.rows * x.cols
        freq = hits / total
        assert abs(freq - 2**-3) < 0.01

    def test_recording_matches_standalone_for_static_stage(self):
        # stage-1 conditions read only [1, k], which stage 1 never writes,
        # so inline recording equals evaluation against the initial state
        gp = GenParams(n=20, k=8, t=4, alpha=3.0, m=2, seed=13)
        c = gate_opt_thermalizer(gp)
        e = sample_initial_copies(20, 8, 4, stream(14, "static"))
        probes = round_probes(c, stage=1)
        _, x_inline = apply_circuit_recording(e, c, probes)
        x_static = condition_matrix(e, [terms for _, terms in probes])
        assert x_inline == x_static

    def test_recording_on_depth_opt_needs_metadata(self):
        c = depth_opt_thermalizer(GenParams(n=16, k=4, t=2, alpha=2.0, m=2, seed=0))
        with pytest.raises(ValueError):
            round_probes(c)

    def test_full_rank_ties_to_independent_flips(self):
        # 32 condition rounds on 4 copies: failure rate ~7e-4, so all 30
        # runs reach full rank with overwhelming probability
        full = 0
        for seed in range(30):
            gp = GenParams(n=32, k=12, t=4, alpha=8.0, m=2, seed=seed)
            c = gate_opt_thermalizer(gp)
            e = sample_initial_copies(32, 12, 4, stream(15, "fr", seed))
            _, x = apply_circuit_recording(e, c, round_probes(c))
            if rank(x) == 4:
                full += 1
        assert full >= 29


def gate_opt_steps(programs, record=0):
    """Step program of a batch of one-seed gate-opt programs, one row set
    per trial."""
    masks, patterns, flips = (np.concatenate([getattr(p, f) for p in programs]) for f in ("masks", "patterns", "flips"))
    return step_program(masks, patterns, flips, record=range(record))


class TestRunRounds:
    """Gate-opt round programs through the step kernel, batched over trials."""

    @pytest.mark.parametrize("n,k,t,m", [(20, 8, 4, 2), (64, 24, 8, 3), (130, 40, 5, 2)])
    def test_batch_matches_circuit_walk(self, n, k, t, m):
        gps = [GenParams(n=n, k=k, t=t, alpha=2.0, m=m, seed=s) for s in range(5)]
        programs = [gate_opt_program(gp) for gp in gps]
        initial = [sample_initial_copies(n, k, t, stream(16, "rounds", s)) for s in range(5)]
        copies = np.stack([e.copies for e in initial])
        prog = gate_opt_steps(programs, record=gps[0].rounds)
        # stage 2 reads what stage 1 writes: two steps
        assert prog.starts == (0, gps[0].rounds)
        recorded = run_steps(prog, copies)
        assert recorded.shape == (5, t, gps[0].rounds)
        for b, (gp, e) in enumerate(zip(gps, initial)):
            c = gate_opt_thermalizer(gp)
            final, x = apply_circuit_recording(e, c, round_probes(c, stage=1))
            assert np.array_equal(copies[b], final.copies)
            assert BitMatrix.from_dense(recorded[b]) == x

    def test_no_recording(self):
        gp = GenParams(n=16, k=6, t=3, alpha=2.0, m=2, seed=1)
        e = sample_initial_copies(16, 6, 3, stream(17, "rounds"))
        copies = e.copies[None].copy()
        recorded = run_steps(gate_opt_steps([gate_opt_program(gp)]), copies)
        assert recorded.shape == (1, 3, 0)
        assert np.array_equal(copies[0], apply_circuit(e, gate_opt_thermalizer(gp)).copies)


class TestPackBits:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_roundtrip_and_layout(self, n):
        bits = stream(18, "pack", n).integers(0, 2, size=(7, n), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (7, words_needed(n)) and words.dtype == np.uint64
        assert np.array_equal(unpack_bits(words, n), bits)
        ints = [sum(int(b) << j for j, b in enumerate(row)) for row in bits]
        assert CopyEnsemble(n, words, np.ones(7, dtype=np.int8), check=False).to_ints() == ints


    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_pack_conditions_equals_bit_loop(self, W):
        # conditions of distinct sites, padded with site 0 at random places
        rng = stream(19, "sites", W)
        sites = np.array([rng.permutation(64 * W + 1)[:5] for _ in range(40)]).reshape(2, 4, 5, 5)
        values = rng.integers(0, 2, size=sites.shape, dtype=np.uint8)
        masks, patterns = pack_conditions(sites, values, W)
        assert masks.shape == patterns.shape == (2, 4, 5, W) and masks.dtype == patterns.dtype == np.uint64

        def words(value):
            return [(value >> (64 * w)) & (2**64 - 1) for w in range(W)]

        for index in np.ndindex(sites.shape[:-1]):
            terms = [(int(s), int(v)) for s, v in zip(sites[index], values[index]) if s]
            assert [int(w) for w in masks[index]] == words(sum(1 << (s - 1) for s, _ in terms))
            assert [int(w) for w in patterns[index]] == words(sum(v << (s - 1) for s, v in terms))
        for site in range(64 * W + 1):
            assert [int(w) for w in site_words(W)[site]] == words(1 << (site - 1) if site else 0)
        empty = pack_conditions(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.uint8), W)
        assert [a.tolist() for a in empty] == [[[0] * W] * 3] * 2


class TestEnsembleBasics:
    def test_rejects_duplicate_copies(self):
        with pytest.raises(ValueError):
            CopyEnsemble.from_ints(4, [3, 3])

    def test_rejects_out_of_range_bits(self):
        arr = np.array([[1 << 5]], dtype=np.uint64)
        with pytest.raises(ValueError):
            CopyEnsemble(4, arr, np.array([1], dtype=np.int8))

    def test_bits_unpacking(self):
        e = CopyEnsemble.from_ints(6, [0b101001])
        assert list(e.bits()[0]) == [1, 0, 0, 1, 0, 1]
