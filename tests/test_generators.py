import math

import numpy as np
import pytest
from scipy import stats as sps

from subsetphase import generators
from subsetphase.circuit import (
    DECOMPOSED,
    MCX,
    SIGNED_MCZ,
    UNIT,
    Circuit,
    Gate,
    Layer,
    ccx_equivalent_count,
    ccx_ladder_count,
    circuit_to_obj,
    depth,
    dumps_canonical,
    validate,
)
from subsetphase.copysim import compile_circuit, unpack_bits, words_needed
from subsetphase.generators import (
    CostMeasurement,
    GenParams,
    _depth_opt_stages,
    _draw_stages,
    _gate_opt_stages,
    _sign_stages,
    ceil_rounds,
    depth_opt_cost_profile,
    depth_opt_program,
    depth_opt_thermalizer,
    gate_opt_cost_profile,
    gate_opt_program,
    gate_opt_thermalizer,
    sign_cost_profile,
    sign_program,
    sign_thermalizer,
)
from subsetphase.analysis import predicted_cost
from subsetphase.rng import stream, stream_key

from conftest import depth_opt_stage_count, prmc, rmc, stage_blocks


class TestCeilRounds:
    def test_plain(self):
        assert ceil_rounds(6.0, 1, 1) == 6
        assert ceil_rounds(6.1, 1, 1) == 7

    def test_float_fuzz(self):
        assert ceil_rounds(0.1, 30, 1) == 3  # 0.1*30 = 3.0000000000000004

    def test_no_round_dropped_at_large_alpha(self):
        assert ceil_rounds(1e12, 1, 1) == 10**12
        assert ceil_rounds(25000000.01, 1, 1) == 25000001
        assert ceil_rounds(1e9, 3, 7) == 428571429

    def test_floor_at_one(self):
        assert ceil_rounds(1e-12, 1, 1) == 1


class TestRmc:
    def test_window_filled_when_m_equals_window(self):
        [(controls, mask)] = rmc(10, 3, 6, 4, stream(0, "rmc-full"))
        assert [c.position for c in controls] == [3, 4, 5, 6]
        assert mask.shape == (6,)  # n minus window size

    def test_deterministic(self):
        [a] = rmc(12, 1, 6, 3, stream(5, "rmc-det"))
        [b] = rmc(12, 1, 6, 3, stream(5, "rmc-det"))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_position_frequencies_uniform(self):
        n, x1, x2, m = 30, 1, 20, 4
        draws = 10_000
        counts = np.zeros(21)
        for controls, _ in rmc(n, x1, x2, m, stream(2, "rmc-freq"), rounds=draws):
            for c in controls:
                counts[c.position] += 1
        expect = draws * m / 20
        sigma = math.sqrt(draws * (m / 20) * (1 - m / 20))
        for pos in range(1, 21):
            assert abs(counts[pos] - expect) < 3.3 * sigma

    def test_value_coin_is_fair(self):
        rounds = rmc(16, 1, 8, 2, stream(3, "rmc-vals"), rounds=4000)
        vals = [c.required_value for controls, _ in rounds for c in controls]
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            rmc(10, 1, 4, 5, stream(0, "rmc-bad"))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            rmc(10, 5, 5, 1, stream(0, "rmc-bad2"))


class TestPrmc:
    def test_single_group_mirrors_rmc_shape(self):
        [(groups, apply_bits)] = prmc(16, 1, 8, 3, 1, stream(7, "prmc-1"))
        assert len(groups) == 1 and len(groups[0]) == 3
        assert apply_bits.shape == (1,)
        positions = [c.position for c in groups[0]]
        assert len(set(positions)) == 3 and all(1 <= p <= 8 for p in positions)

    def test_groups_pairwise_disjoint(self):
        for groups, _ in prmc(40, 1, 36, 3, 12, stream(8, "prmc-disjoint"), rounds=300):
            seen: set[int] = set()
            for g in groups:
                for c in g:
                    assert c.position not in seen
                    seen.add(c.position)

    def test_apply_bits_fair(self):
        bits = np.concatenate([b for _, b in prmc(20, 1, 20, 2, 10, stream(9, "prmc-apply"), rounds=1000)])
        assert abs(bits.mean() - 0.5) < 0.02

    def test_rejects_oversized_product(self):
        with pytest.raises(ValueError):
            prmc(10, 1, 6, 3, 3, stream(0, "prmc-bad"))


class TestGenParams:
    def test_rounds_is_ceiling(self):
        assert GenParams(n=8, k=4, t=3, alpha=2.5, m=2).rounds == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "k": 2, "t": 1, "alpha": 1.0, "m": 2},
            {"n": 8, "k": 1, "t": 1, "alpha": 1.0, "m": 2},
            {"n": 8, "k": 9, "t": 1, "alpha": 1.0, "m": 2},
            {"n": 8, "k": 4, "t": 0, "alpha": 1.0, "m": 2},
            {"n": 8, "k": 4, "t": 1, "alpha": 0.0, "m": 2},
            {"n": 8, "k": 4, "t": 1, "alpha": 1.0, "m": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)


class TestGateOpt:
    def test_layer_count_is_rounds_times_n(self):
        gp = GenParams(n=20, k=8, t=2, alpha=3.0, m=2, seed=4)
        c = gate_opt_thermalizer(gp)
        assert len(c.layers) == gp.rounds * 20
        assert depth(c, UNIT) == gp.rounds * 20

    def test_all_gates_ccx_class_for_m2(self):
        c = gate_opt_thermalizer(GenParams(n=16, k=6, t=2, alpha=3.0, m=2, seed=1))
        assert all(g.kind == MCX and len(g.controls) == 2 for g in c.gates())
        # a 2-control gate is one CCX, so the CCX total equals the gate count
        assert ccx_equivalent_count(c) == c.gate_count

    def test_round_structure(self):
        gp = GenParams(n=12, k=5, t=2, alpha=2.0, m=3, seed=6)
        c = gate_opt_thermalizer(gp)
        rounds = c.extra["rounds"]
        assert len(rounds) == 2 * gp.rounds
        for r in rounds:
            window = range(1, 6) if r["stage"] == 1 else range(6, 13)
            assert all(pos in window for pos, _ in r["controls"])
        # all gates within a round share the round's condition
        per_round = gp.rounds
        stage2_first = c.extra["stage2_first_layer"]
        for ri, r in enumerate(rounds):
            width = 12 - 5 if r["stage"] == 1 else 5
            for li in range(r["layer"], r["layer"] + width):
                for g in c.layers[li].gates:
                    assert [[t.position, t.required_value] for t in g.controls] == r["controls"]
        assert stage2_first == per_round * (12 - 5)

    def test_targets_match_stage(self):
        gp = GenParams(n=14, k=6, t=2, alpha=2.0, m=2, seed=2)
        c = gate_opt_thermalizer(gp)
        boundary = c.extra["stage2_first_layer"]
        for li, layer in enumerate(c.layers):
            for g in layer.gates:
                if li < boundary:
                    assert 7 <= g.target <= 14
                else:
                    assert 1 <= g.target <= 6

    def test_gate_count_statistics(self):
        # total gates over seeds ~ Binomial(seeds * rounds * n, 1/2)
        gp_base = dict(n=24, k=10, t=2, alpha=2.0, m=2)
        rounds = GenParams(**gp_base, seed=0).rounds
        seeds = 60
        total = sum(
            gate_opt_thermalizer(GenParams(**gp_base, seed=s)).gate_count for s in range(seeds)
        )
        slots = seeds * rounds * 24
        sigma = math.sqrt(slots * 0.25)
        assert abs(total - slots / 2) < 4 * sigma

    def test_validates_across_seeds(self):
        for seed in range(10):
            c = gate_opt_thermalizer(GenParams(n=18, k=7, t=3, alpha=2.0, m=2, seed=seed))
            assert validate(c) == []

    def test_deterministic_bytes(self):
        gp = GenParams(n=16, k=6, t=2, alpha=3.0, m=2, seed=11)
        one = dumps_canonical(circuit_to_obj(gate_opt_thermalizer(gp)))
        two = dumps_canonical(circuit_to_obj(gate_opt_thermalizer(gp)))
        assert one == two

    def test_rejects_m_larger_than_windows(self):
        with pytest.raises(ValueError):
            gate_opt_thermalizer(GenParams(n=8, k=6, t=1, alpha=1.0, m=3, seed=0))  # m > n-k


def rmc_gate_opt_reference(gp: GenParams) -> Circuit:
    """Round-by-round ``rmc`` construction of the gate-opt circuit: the
    reference for the program and its export view.  Stage j (numbered
    j + 1 in the metadata) reads the stream ("gen", "gate-opt", j)."""
    n, k, m = gp.n, gp.k, gp.m
    layers, meta = [], []
    for stage, x1, x2, target_first in ((1, 1, k, k + 1), (2, k + 1, n, 1)):
        rng = stream(gp.seed, "gen", "gate-opt", stage - 1)
        for controls, mask in rmc(n, x1, x2, m, rng, gp.rounds):
            meta.append({"stage": stage, "layer": len(layers),
                         "controls": [[c.position, c.required_value] for c in controls]})
            for idx, bit in enumerate(mask):
                gates = (Gate(MCX, tuple(controls), target_first + idx),) if bit else ()
                layers.append(Layer(gates))
    extra = {"rounds": meta, "stage2_first_layer": gp.rounds * (n - k)}
    return Circuit(n=n, layers=tuple(layers), generator="gate-opt", params=gp.as_dict(),
                   seed=gp.seed, extra=extra)


class TestGateOptProgram:
    SHAPES = [(12, 5, 2, 2.0, 3), (64, 24, 8, 6.0, 2), (100, 30, 6, 4.0, 3), (130, 64, 3, 2.0, 4)]

    @pytest.mark.parametrize("n,k,t,alpha,m", SHAPES)
    def test_export_view_equals_rmc_reference(self, n, k, t, alpha, m):
        for seed in range(3):
            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
            got, want = gate_opt_thermalizer(gp), rmc_gate_opt_reference(gp)
            assert got.layers == want.layers
            assert got.extra == want.extra
            assert dumps_canonical(circuit_to_obj(got)) == dumps_canonical(circuit_to_obj(want))

    @pytest.mark.parametrize("n,k,t,alpha,m", SHAPES)
    def test_round_arrays(self, n, k, t, alpha, m):
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=4)
        prog = gate_opt_program(gp)
        # one seed is a block of one trial
        shape = (1, 2 * gp.rounds, (n + 63) // 64)
        for a in (prog.masks, prog.patterns, prog.flips):
            assert a.shape == shape and a.dtype == np.uint64
        assert prog.fired.shape == shape[:2]
        masks, patterns, flips, fired = prog.masks[0], prog.patterns[0], prog.flips[0], prog.fired[0]
        cond, flip_bits = unpack_bits(masks, n), unpack_bits(flips, n)
        assert np.all(cond.sum(axis=1) == m)
        assert np.all(patterns & ~masks == 0)
        # a round's targets never meet its own condition
        assert np.all(masks & flips == 0)
        assert np.array_equal(fired, flip_bits.sum(axis=1))
        stage1, stage2 = slice(0, gp.rounds), slice(gp.rounds, None)
        assert not cond[stage1, k:].any() and not flip_bits[stage1, :k].any()
        assert not cond[stage2, :k].any() and not flip_bits[stage2, k:].any()
        masks, patterns, flips, diagonal = prog.rows()
        assert masks is prog.masks and patterns is prog.patterns and flips is prog.flips
        assert diagonal.shape == shape[:2] and not diagonal.any()
        # a round flips many sites, so it names no one target
        assert prog.targets.shape == shape[:2] and not prog.targets.any()

    def test_rejects_m_above_windows(self):
        with pytest.raises(ValueError):
            gate_opt_program(GenParams(n=8, k=6, t=1, alpha=1.0, m=3, seed=0))
        with pytest.raises(ValueError):
            gate_opt_program(GenParams(n=8, k=2, t=1, alpha=1.0, m=3, seed=0))


class TestDepthOpt:
    def test_unit_depth_exact(self):
        for seed in range(6):
            gp = GenParams(n=40, k=8, t=2, alpha=2.0, m=2, seed=seed)
            c = depth_opt_thermalizer(gp)
            stages = depth_opt_stage_count(40, 8, 2)
            assert depth(c, UNIT) == (stages + 1) * gp.rounds
            assert c.extra["growth_stages"] == stages

    def test_stage_confinement(self):
        gp = GenParams(n=36, k=9, t=2, alpha=2.0, m=3, seed=3)
        c = depth_opt_thermalizer(gp)
        stages = c.extra["stages"]
        rounds = gp.rounds
        for si, meta in enumerate(stages):
            first = meta["first_layer"]
            for li in range(first, first + rounds):
                for g in c.layers[li].gates:
                    if meta["s"] == "closing":
                        assert all(c_.position > 9 for c_ in g.controls)
                        assert 1 <= g.target <= 9
                    else:
                        s = meta["s"]
                        assert all(c_.position <= s for c_ in g.controls)
                        assert s < g.target <= s + meta["p"]

    def test_targets_truncated_at_n(self):
        c = depth_opt_thermalizer(GenParams(n=20, k=8, t=2, alpha=2.0, m=2, seed=5))
        assert all(g.target <= 20 for g in c.gates())

    def test_stage_count_growth_model(self):
        # control region grows by ~(1+1/m) per stage
        for n, k, m in ((4096, 64, 4), (1024, 32, 2), (512, 16, 3)):
            stages = depth_opt_stage_count(n, k, m)
            predicted = math.log(n / k) / math.log(1 + 1 / m)
            assert stages == pytest.approx(predicted, rel=0.25)

    def test_validates_across_seeds(self):
        for seed in range(8):
            c = depth_opt_thermalizer(GenParams(n=30, k=6, t=2, alpha=2.0, m=2, seed=seed))
            assert validate(c) == []

    def test_rejects_m_above_k(self):
        with pytest.raises(ValueError):
            depth_opt_thermalizer(GenParams(n=16, k=3, t=1, alpha=1.0, m=4, seed=0))

    def test_rejects_k_equal_n(self):
        with pytest.raises(ValueError):
            depth_opt_thermalizer(GenParams(n=8, k=8, t=1, alpha=1.0, m=2, seed=0))


def prmc_depth_opt_reference(gp: GenParams) -> Circuit:
    """Round-by-round ``prmc`` construction of the depth-opt circuit: the
    reference for the program and its export view.  Stage j reads the
    stream ("gen", "depth-opt", j) and keeps its first ``slots`` groups."""
    n, k, m = gp.n, gp.k, gp.m
    # growth stages from s = k, each targeting the next p sites, then the closer
    stages = []
    s = k
    while s < n:
        stages.append((1, s, s // m, min(s // m, n - s), s))
        s += s // m
    stages.append((k + 1, n, (n - k) // m, min((n - k) // m, k), 0))
    layers, meta = [], []
    for j, (x1, x2, p, slots, target_base) in enumerate(stages):
        meta.append({"s": x2 if x1 == 1 else "closing", "p": p, "targets": slots,
                     "first_layer": len(layers)})
        rng = stream(gp.seed, "gen", "depth-opt", j)
        for groups, apply_bits in prmc(n, x1, x2, m, p, rng, gp.rounds, slots):
            layers.append(Layer([
                Gate(MCX, tuple(sorted(groups[x], key=lambda c: c.position)), target_base + x + 1)
                for x in range(slots)
                if apply_bits[x]
            ]))
    extra = {"stages": meta, "growth_stages": len(stages) - 1}
    return Circuit(n=n, layers=tuple(layers), generator="depth-opt", params=gp.as_dict(),
                   seed=gp.seed, extra=extra)


class TestDepthOptProgram:
    # the last shape has a two-site closing window
    SHAPES = [(64, 24, 8, 6.0, 2), (100, 30, 4, 2.0, 3), (128, 24, 4, 2.0, 2), (20, 8, 2, 1.0, 3),
              (10, 8, 1, 2.0, 1)]

    @pytest.mark.parametrize("n,k,t,alpha,m", SHAPES)
    def test_export_view_equals_prmc_reference(self, n, k, t, alpha, m):
        for seed in range(3):
            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
            got, want = depth_opt_thermalizer(gp), prmc_depth_opt_reference(gp)
            assert got.layers == want.layers
            assert got.extra == want.extra
            assert dumps_canonical(circuit_to_obj(got)) == dumps_canonical(circuit_to_obj(want))

    @pytest.mark.parametrize("n,k,t,alpha,m", SHAPES)
    def test_rows_equal_compiled_circuit(self, n, k, t, alpha, m):
        for seed in range(3):
            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
            rows = [a[0] for a in depth_opt_program(gp).rows()]
            want = compile_circuit(prmc_depth_opt_reference(gp).layers, words_needed(n))
            assert np.array_equal(rows[0], want.masks)
            assert np.array_equal(rows[1], want.patterns)
            assert np.array_equal(rows[2], want.flips)
            assert np.array_equal(rows[3], want.diagonal)

    def test_stage_rows_follow_the_circuit_stages(self):
        gp = GenParams(n=36, k=9, t=2, alpha=2.0, m=3, seed=3)
        ref = prmc_depth_opt_reference(gp)
        prog = depth_opt_program(gp)
        stages = depth_opt_stage_count(36, 9, 3) + 1
        assert prog.fired.shape == (1, stages * gp.rounds)
        assert prog.fired[0].tolist() == [len(layer.gates) for layer in ref.layers]
        # one row per gate, the stages back to back in one row set
        masks, patterns, flips, diagonal = prog.rows()
        assert masks.shape == patterns.shape == flips.shape == (1, ref.gate_count, 1)
        assert diagonal.shape == prog.targets.shape == (1, ref.gate_count)
        assert not diagonal.any()
        # each row flips its own target and no other site
        assert prog.targets[0].tolist() == [g.target for g in ref.gates()]
        rows, cols = np.nonzero(unpack_bits(flips[0], 36))
        assert np.array_equal(rows, np.arange(ref.gate_count)) and np.array_equal(cols + 1, prog.targets[0])

    def test_rejects_m_above_k(self):
        with pytest.raises(ValueError):
            depth_opt_program(GenParams(n=16, k=3, t=1, alpha=1.0, m=4, seed=0))

    def test_rejects_single_site_closing_window(self):
        # n = k+1 with m = 1 has one closing group on a one-site window
        gp = GenParams(n=9, k=8, t=1, alpha=1.0, m=1)
        for build in (depth_opt_program, depth_opt_thermalizer, depth_opt_cost_profile):
            with pytest.raises(ValueError, match="closing window"):
                build(gp)
        # the stage table itself exists, so the prediction stays total
        assert predicted_cost("depth-opt", 9, 8, 1, 1.0, 1).unit_depth == 2


class TestCostProfiles:
    """The counting profiles replay the generators' random streams, so
    their metrics must equal the materialized circuits' metrics exactly."""

    @pytest.mark.parametrize(
        "n,k,t,alpha,m,seed",
        [(32, 8, 2, 3.0, 2, 0), (48, 12, 4, 2.5, 3, 5), (40, 16, 3, 4.0, 4, 11)],
    )
    def test_gate_opt_profile_matches_circuit(self, n, k, t, alpha, m, seed):
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
        c = gate_opt_thermalizer(gp)
        prof = gate_opt_cost_profile(gp)
        assert prof.gates == c.gate_count
        assert prof.unit_depth == depth(c, UNIT)
        assert prof.decomposed_depth == depth(c, DECOMPOSED)
        assert prof.ccx_count == ccx_equivalent_count(c)

    @pytest.mark.parametrize(
        "n,k,t,alpha,m,seed",
        [(32, 8, 2, 3.0, 2, 0), (48, 12, 4, 2.5, 3, 5), (40, 16, 3, 4.0, 4, 11)],
    )
    def test_depth_opt_profile_matches_circuit(self, n, k, t, alpha, m, seed):
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
        c = depth_opt_thermalizer(gp)
        prof = depth_opt_cost_profile(gp)
        assert prof.gates == c.gate_count
        assert prof.unit_depth == depth(c, UNIT)
        assert prof.decomposed_depth == depth(c, DECOMPOSED)
        assert prof.ccx_count == ccx_equivalent_count(c)

    def test_sign_profile_matches_circuit(self):
        for seed in range(4):
            c = sign_thermalizer(32, 8, 3.0, 5, 3, seed=seed)
            prof = sign_cost_profile(32, 8, 3.0, 5, 3, seed=seed)
            assert prof.gates == c.gate_count
            assert prof.unit_depth == depth(c, UNIT)
            assert prof.decomposed_depth == depth(c, DECOMPOSED)
            assert prof.ccx_count == ccx_equivalent_count(c)

    # the first shape has a two-site closing window
    GRID = [(10, 8, 1, 2.0, 1), (12, 5, 2, 2.0, 3), (64, 24, 8, 6.0, 2), (100, 30, 4, 2.0, 3),
            (130, 64, 3, 2.0, 4)]

    @pytest.mark.parametrize("n,k,t,alpha,m", GRID)
    def test_bit_profiles_equal_program_costs(self, n, k, t, alpha, m):
        cost = ccx_ladder_count(m)
        for seed in range(3):
            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
            fired = depth_opt_program(gp).fired.ravel()
            gates = int(fired.sum())
            decomposed = int(np.where(fired > 0, cost, 1).sum())
            assert depth_opt_cost_profile(gp) == CostMeasurement(gates, len(fired), decomposed, gates * cost)
            # one layer per candidate target, empty when its mask bit is 0
            gates = int(gate_opt_program(gp).fired.sum())
            slots = gp.rounds * n
            want = CostMeasurement(gates, slots, gates * cost + slots - gates, gates * cost)
            assert gate_opt_cost_profile(gp) == want

    @pytest.mark.parametrize("n,p,alpha,t,m", [(24, 4, 3.0, 4, 3), (70, 8, 8.0, 4, 3), (16, 16, 4.0, 4, 1),
                                               (2, 1, 1.0, 1, 2)])
    def test_sign_profile_equals_program_costs(self, n, p, alpha, t, m):
        cost = ccx_ladder_count(m)
        for seed in range(3):
            fired = sign_program(n, p, alpha, t, m, seed).fired[0]
            gates = int(fired.sum())
            decomposed = int(np.where(fired > 0, cost, 1).sum())
            want = CostMeasurement(gates, len(fired), decomposed, gates * cost)
            assert sign_cost_profile(n, p, alpha, t, m, seed) == want

    def test_profiles_read_only_the_firing_bits(self, monkeypatch):
        # every stage stream gives one raw read, the words of its firing
        # bits and no keys: ceil(ceil(N1/4)/2) words for N1 firing bits
        reads = []
        real = generators.stream_words

        def recording(seeds, *tags, count):
            reads.append((tags, count))
            return real(seeds, *tags, count=count)

        def firing_words(algorithm, table):
            return [(("gen", algorithm, row.stage), -(-(-(-row.rounds * row.firing // 4)) // 2)) for row in table]

        monkeypatch.setattr(generators, "stream_words", recording)
        gp = GenParams(n=64, k=24, t=8, alpha=6.0, m=2, seed=1)
        gate_opt_cost_profile(gp)
        assert reads == firing_words("gate-opt", _gate_opt_stages(gp))
        reads.clear()
        depth_opt_cost_profile(gp)
        assert len(reads) == depth_opt_stage_count(64, 24, 2) + 1
        assert reads == firing_words("depth-opt", _depth_opt_stages(gp))
        reads.clear()
        sign_cost_profile(64, 10, 9.0, 32, 6, seed=1)
        assert reads == firing_words("sign", _sign_stages(64, 10, 9.0, 32, 6)) == [(("gen", "sign", 0), 37)]


class TestRawStageReads:
    """``_draw_stages`` cuts its blocks out of one raw read of each stage
    stream; they must be what the layout's ``Generator`` calls read from
    the same stream."""

    # (rounds, firing, groups, m, window); the bits fill ceil(N1/4)
    # uint32s and the coins ceil(N2/4): an odd first count leaves a high
    # half that the coins start on, an odd sum a half that the keys skip
    SHAPES = [(1, 3, 1, 2, 4), (3, 3, 2, 2, 5), (2, 5, 1, 3, 7), (2, 4, 1, 2, 3), (4, 4, 2, 3, 6),
              (7, 3, 1, 1, 2), (29, 10, 10, 6, 60), (48, 40, 1, 2, 24)]

    @staticmethod
    def halves(rounds, firing, groups, m):
        bit_u32, coin_u32 = -(-rounds * firing // 4), -(-rounds * groups * m // 4)
        return bit_u32 % 2, (bit_u32 + coin_u32) % 2

    def test_grid_carries_and_skips_halves(self):
        halves = {self.halves(*shape[:4]) for shape in self.SHAPES}
        assert halves == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("rounds,firing,groups,m,window", SHAPES)
    def test_blocks_equal_generator_calls(self, rounds, firing, groups, m, window):
        row = generators.Stage(3, rounds, 2, window, firing, groups, firing)
        seeds = list(range(8))
        # Philox rounds the keys of about half the streams (tests/test_rng.py)
        mixed = [len({w >> 63 for w in stream_key(seed, "gen", "raw", 3)}) == 2 for seed in seeds]
        assert any(mixed) and not all(mixed)
        [(_, bits, coins, sites)] = _draw_stages("raw", [row], m, seeds)
        [(_, firing_bits, _, _)] = _draw_stages("raw", [row], m, seeds, firing_only=True)
        assert bits.dtype == coins.dtype == firing_bits.dtype == np.uint8
        for b, seed in enumerate(seeds):
            want_bits, want_coins, keys = stage_blocks(stream(seed, "gen", "raw", 3), rounds, firing, groups * m, window)
            assert np.array_equal(bits[b], want_bits)
            assert np.array_equal(firing_bits[b], want_bits)
            assert np.array_equal(coins[b].reshape(rounds, -1), want_coins)
            assert np.array_equal(sites[b].reshape(rounds, -1), 2 + np.argsort(keys, axis=1)[:, : groups * m])


# False-alarm rate of each distribution check below on a correct
# generator: a check fails at one seed in 10^4.
DRAW_ALPHA = 1e-4


def assert_uniform(rows: np.ndarray, cells: int):
    """Every one of ``cells`` outcomes occurs among the drawn ``rows``, and
    a chi-square against equal counts does not reject at DRAW_ALPHA.
    At 30 draws a cell, a cell goes missing with chance below cells/e^30."""
    assert len(rows) >= 30 * cells
    _, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(counts) == cells
    p_value = sps.chisquare(counts).pvalue
    assert p_value > DRAW_ALPHA, f"chi-square p={p_value:.2e} over {cells} cells"


def assert_fair(bits: np.ndarray):
    """A two-sided binomial test of fair coins at DRAW_ALPHA."""
    p_value = sps.binomtest(int(bits.sum()), bits.size).pvalue
    assert p_value > DRAW_ALPHA, f"{bits.mean():.4f} ones over {bits.size} coins (p={p_value:.2e})"


class TestStageDraws:
    """Distributions of the stage blocks at small windows, pooled over
    rounds (independent key rows) and seeds."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gate_opt_subsets_uniform(self, m):
        # windows of 5 and 4 sites: every binom(window, m) subset
        picks = [[], []]
        for seed in range(200):
            gp = GenParams(n=9, k=5, t=8, alpha=4.0, m=m, seed=seed)
            for stage, (_, _, _, sites) in enumerate(_draw_stages("gate-opt", _gate_opt_stages(gp), m, [seed])):
                picks[stage].append(np.sort(sites[0, :, 0], axis=1))
        for stage, window in enumerate((5, 4)):
            rows = np.concatenate(picks[stage])
            assert np.all(np.diff(rows, axis=1) > 0)
            assert_uniform(rows, math.comb(window, m))

    @pytest.mark.parametrize("n,k,m", [(6, 4, 2), (10, 8, 1), (9, 6, 3)])
    def test_depth_opt_groups_uniform(self, n, k, m):
        # a stage's kept groups, members in draw order, are a uniform
        # ordered selection from its window: a uniform partition with a
        # uniform last member per group
        stages = generators.stage_table("depth-opt", n, k, 16, 16.0, m)
        kept = [[] for _ in stages]
        for seed in range(100):
            gp = GenParams(n=n, k=k, t=16, alpha=16.0, m=m, seed=seed)
            for j, (_, _, _, sites) in enumerate(_draw_stages("depth-opt", _depth_opt_stages(gp), m, [seed])):
                kept[j].append(sites.reshape(gp.rounds, -1))
        for row, rows in zip(stages, kept):
            assert_uniform(np.concatenate(rows) - row.first, math.perm(row.window, row.groups * m))

    @pytest.mark.parametrize("n,p,m", [(4, 2, 2), (6, 2, 3), (6, 3, 2)])
    def test_sign_groups_uniform(self, n, p, m):
        # the groups in draw order arrange the whole window, so the
        # partition and the signed target (each group's last member)
        # are uniform
        [(_, _, _, sites)] = _draw_stages("sign", _sign_stages(n, p, 32.0, 16, m), m, list(range(150)))
        assert_uniform(sites.reshape(-1, m * p), math.factorial(m * p))

    def test_firing_and_polarity_coins_fair(self):
        blocks = {f"{name} {block}": [] for name in ("gate-opt", "depth-opt", "sign") for block in ("firing", "coins")}
        for seed in range(100):
            gp = GenParams(n=20, k=8, t=4, alpha=4.0, m=2, seed=seed)
            for name, table, m in (("gate-opt", _gate_opt_stages(gp), 2), ("depth-opt", _depth_opt_stages(gp), 2),
                                   ("sign", _sign_stages(20, 6, 16.0, 16, 3), 3)):
                for _, bits, coins, _ in _draw_stages(name, table, m, [seed]):
                    blocks[f"{name} firing"].append(bits.ravel())
                    blocks[f"{name} coins"].append(coins.ravel())
        for name, bits in blocks.items():
            bits = np.concatenate(bits)
            assert set(np.unique(bits)) == {0, 1}, name
            assert_fair(bits)


class TestSignThermalizer:
    def test_unit_layer_when_p_covers_rounds(self):
        # rounds = alpha*t <= p means a single layer
        c = sign_thermalizer(n=64, p=64, alpha=8.0, t=8, m=1, seed=0)
        assert len(c.layers) == 1
        assert depth(c, UNIT) == 1
        assert depth(c, DECOMPOSED) == 1

    def test_layer_count_formula(self):
        for alpha, t, p in ((9.0, 256, 10), (3.0, 5, 4), (2.0, 7, 3)):
            c = sign_thermalizer(n=64, p=p, alpha=alpha, t=t, m=6 if p == 10 else 2, seed=1)
            assert len(c.layers) == ceil_rounds(alpha, t, p)

    def test_m1_degenerates_to_single_site_condition(self):
        c = sign_thermalizer(n=16, p=16, alpha=4.0, t=4, m=1, seed=2)
        for g in c.gates():
            assert g.kind == SIGNED_MCZ
            assert g.controls == ()
            assert g.target_value in (0, 1)

    def test_gates_only_for_fired_slots(self):
        # across seeds the emitted-gate fraction tracks the fair apply coin
        total = 0
        slots = 0
        for seed in range(40):
            c = sign_thermalizer(n=24, p=8, alpha=4.0, t=4, m=3, seed=seed)
            total += c.gate_count
            slots += len(c.layers) * 8
        assert abs(total / slots - 0.5) < 0.05

    def test_condition_positions_confined_to_window(self):
        c = sign_thermalizer(n=64, p=10, alpha=9.0, t=16, m=6, seed=3)
        for g in c.gates():
            sites = [c_.position for c_ in g.controls] + [g.target]
            assert all(1 <= s <= 60 for s in sites)  # window [1, m*p]

    def test_validates(self):
        for seed in range(6):
            assert validate(sign_thermalizer(n=32, p=8, alpha=3.0, t=4, m=2, seed=seed)) == []

    @pytest.mark.parametrize("n,p,alpha,t,m", [(24, 4, 3.0, 4, 3), (70, 8, 8.0, 4, 3), (16, 16, 4.0, 4, 1)])
    def test_rows_equal_compiled_circuit(self, n, p, alpha, t, m):
        for seed in range(3):
            rows = sign_program(n, p, alpha, t, m, seed).rows()
            want = compile_circuit(sign_thermalizer(n, p, alpha, t, m, seed).layers, words_needed(n))
            for got, a in zip(rows, (want.masks, want.patterns, want.flips, want.diagonal)):
                assert np.array_equal(got[0], a)

    @pytest.mark.parametrize("n,p,alpha,t,m", [(24, 4, 3.0, 4, 3), (70, 8, 8.0, 4, 3), (16, 16, 4.0, 4, 1)])
    def test_export_view_equals_prmc_reference(self, n, p, alpha, t, m):
        for seed in range(3):
            got, want = sign_thermalizer(n, p, alpha, t, m, seed), prmc_sign_reference(n, p, alpha, t, m, seed)
            assert got.layers == want.layers
            assert dumps_canonical(circuit_to_obj(got)) == dumps_canonical(circuit_to_obj(want))

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            sign_thermalizer(n=10, p=4, alpha=1.0, t=1, m=3, seed=0)


def prmc_sign_reference(n: int, p: int, alpha: float, t: int, m: int, seed: int) -> Circuit:
    """Round-by-round ``prmc`` construction of the sign circuit: one stage,
    the stream ("gen", "sign", 0), on the window [1, m*p]."""
    rng = stream(seed, "gen", "sign", 0)
    layers = []
    for groups, apply_bits in prmc(n, 1, m * p, m, p, rng, ceil_rounds(alpha, t, p)):
        layers.append(Layer([
            Gate(SIGNED_MCZ, tuple(sorted(g[:-1], key=lambda c: c.position)), g[-1].position,
                 target_value=g[-1].required_value)
            for g, bit in zip(groups, apply_bits)
            if bit
        ]))
    return Circuit(n=n, layers=tuple(layers), generator="sign",
                   params={"n": n, "p": p, "t": t, "alpha": alpha, "m": m}, seed=seed,
                   extra={"layer_count": len(layers), "slots_per_layer": p})


SEEDS = [0, 7, 123, 2**40 + 5, 99]
FIELDS = ("masks", "patterns", "flips", "diagonal", "targets")


def assert_trial_equals_single(block, single, b) -> np.ndarray:
    """Row set b of a block program, its rows with a condition, equals the
    one-seed program in all six fields, and its other rows are padding:
    zero, target 0 and off the diagonal.  Returns the kept rows."""
    # every row of a program conditions on m >= 1 sites
    keep = block.masks[b].any(axis=1)
    assert np.array_equal(block.fired[b], single.fired[0])
    for f in FIELDS:
        got = getattr(block, f)[b]
        assert np.array_equal(got[keep], getattr(single, f)[0]), f
        assert not got[~keep].any(), f
    return keep


class TestBlockPrograms:
    """A block program over a list of seeds holds, trial for trial, the
    one-seed program of each seed."""

    # the gate-opt and depth-opt test shapes; a two-word depth-opt shape
    BITS = TestGateOptProgram.SHAPES + TestDepthOptProgram.SHAPES + [(100, 30, 6, 3.0, 3)]

    @pytest.mark.parametrize("n,k,t,alpha,m", BITS)
    def test_gate_and_depth_opt(self, n, k, t, alpha, m):
        base = GenParams(n=n, k=k, t=t, alpha=alpha, m=m)
        stages = len(_depth_opt_stages(base))
        builds = [depth_opt_program]
        if m <= min(k, n - k):
            builds.append(gate_opt_program)
        for build in builds:
            block = build(base, SEEDS)
            for b, seed in enumerate(SEEDS):
                single = build(GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed))
                keep = assert_trial_equals_single(block, single, b)
                if build is gate_opt_program:
                    assert keep.all()
                    continue
                # each stage starts at the same row in every trial, after
                # the block's most fired slots of the stage before
                counts = block.fired.reshape(len(SEEDS), stages, -1).sum(axis=2)
                starts = np.cumsum(counts.max(axis=0)) - counts.max(axis=0)
                rows = [start + np.arange(count) for start, count in zip(starts, counts[b])]
                assert np.array_equal(np.flatnonzero(keep), np.concatenate(rows))

    @pytest.mark.parametrize("n,p,alpha,t,m", [
        (24, 4, 3.0, 4, 3), (70, 8, 8.0, 4, 3), (16, 16, 4.0, 4, 1), (2, 1, 1.0, 1, 2),
        (64, 10, 9.0, 32, 6),  # the signs workload
        (64, 10, 9.0, 256, 6),  # criterion 6(b): 231 layers
        (130, 20, 6.0, 8, 6),  # two words
    ])
    def test_sign(self, n, p, alpha, t, m):
        block = sign_program(n, p, alpha, t, m, seeds=SEEDS)
        for b, seed in enumerate(SEEDS):
            single = sign_program(n, p, alpha, t, m, seed)
            keep = assert_trial_equals_single(block, single, b)
            # a trial's rows come first, each diagonal
            assert np.array_equal(np.flatnonzero(keep), np.arange(single.fired.sum()))
            assert np.array_equal(block.diagonal[b], keep)
