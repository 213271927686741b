import math

import numpy as np
import pytest

from subsetphase.circuit import (
    DECOMPOSED,
    MCX,
    SIGNED_MCZ,
    UNIT,
    Circuit,
    Gate,
    Layer,
    ccx_equivalent_count,
    circuit_to_obj,
    depth,
    dumps_canonical,
    validate,
)
from subsetphase.copysim import compile_circuit, unpack_bits, words_needed
from subsetphase.generators import (
    GenParams,
    ceil_rounds,
    depth_opt_cost_profile,
    depth_opt_program,
    depth_opt_stage_count,
    depth_opt_thermalizer,
    gate_opt_cost_profile,
    gate_opt_program,
    gate_opt_thermalizer,
    sign_cost_profile,
    sign_program,
    sign_thermalizer,
)
from subsetphase.analysis import predicted_cost
from subsetphase.rng import stream

from conftest import prmc, rmc


class TestCeilRounds:
    def test_plain(self):
        assert ceil_rounds(6.0) == 6
        assert ceil_rounds(6.1) == 7

    def test_float_fuzz(self):
        assert ceil_rounds(0.1 * 30) == 3  # 0.1*30 = 3.0000000000000004

    def test_floor_at_one(self):
        assert ceil_rounds(1e-12) == 1


class TestRmc:
    def test_window_filled_when_m_equals_window(self):
        controls, mask = rmc(10, 3, 6, 4, stream(0, "rmc-full"))
        assert [c.position for c in controls] == [3, 4, 5, 6]
        assert mask.shape == (6,)  # n minus window size

    def test_deterministic(self):
        a = rmc(12, 1, 6, 3, stream(5, "rmc-det"))
        b = rmc(12, 1, 6, 3, stream(5, "rmc-det"))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_position_frequencies_uniform(self):
        n, x1, x2, m = 30, 1, 20, 4
        draws = 10_000
        counts = np.zeros(21)
        rng = stream(2, "rmc-freq")
        for _ in range(draws):
            controls, _ = rmc(n, x1, x2, m, rng)
            for c in controls:
                counts[c.position] += 1
        expect = draws * m / 20
        sigma = math.sqrt(draws * (m / 20) * (1 - m / 20))
        for pos in range(1, 21):
            assert abs(counts[pos] - expect) < 3.3 * sigma

    def test_value_coin_is_fair(self):
        rng = stream(3, "rmc-vals")
        vals = [c.required_value for _ in range(4000) for c in rmc(16, 1, 8, 2, rng)[0]]
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            rmc(10, 1, 4, 5, stream(0, "rmc-bad"))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            rmc(10, 5, 5, 1, stream(0, "rmc-bad2"))


class TestPrmc:
    def test_single_group_mirrors_rmc_shape(self):
        groups, apply_bits = prmc(16, 1, 8, 3, 1, stream(7, "prmc-1"))
        assert len(groups) == 1 and len(groups[0]) == 3
        assert apply_bits.shape == (1,)
        positions = [c.position for c in groups[0]]
        assert len(set(positions)) == 3 and all(1 <= p <= 8 for p in positions)

    def test_groups_pairwise_disjoint(self):
        rng = stream(8, "prmc-disjoint")
        for _ in range(300):
            groups, _ = prmc(40, 1, 36, 3, 12, rng)
            seen: set[int] = set()
            for g in groups:
                for c in g:
                    assert c.position not in seen
                    seen.add(c.position)

    def test_apply_bits_fair(self):
        rng = stream(9, "prmc-apply")
        bits = np.concatenate([prmc(20, 1, 20, 2, 10, rng)[1] for _ in range(1000)])
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
    reference for the program and its export view."""
    n, k, m = gp.n, gp.k, gp.m
    rng = stream(gp.seed, "gen", "gate-opt")
    layers, meta = [], []
    for stage, x1, x2, target_first in ((1, 1, k, k + 1), (2, k + 1, n, 1)):
        for _ in range(gp.rounds):
            controls, mask = rmc(n, x1, x2, m, rng)
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
        shape = (2 * gp.rounds, (n + 63) // 64)
        for a in (prog.masks, prog.patterns, prog.flips):
            assert a.shape == shape and a.dtype == np.uint64
        cond, flips = unpack_bits(prog.masks, n), unpack_bits(prog.flips, n)
        assert np.all(cond.sum(axis=1) == m)
        assert np.all(prog.patterns & ~prog.masks == 0)
        # a round's targets never meet its own condition
        assert np.all(prog.masks & prog.flips == 0)
        assert np.array_equal(prog.fired, flips.sum(axis=1))
        stage1, stage2 = slice(0, gp.rounds), slice(gp.rounds, None)
        assert not cond[stage1, k:].any() and not flips[stage1, :k].any()
        assert not cond[stage2, :k].any() and not flips[stage2, k:].any()
        [(masks, patterns, flips, diagonal)] = prog.rows()
        assert masks is prog.masks and patterns is prog.patterns and flips is prog.flips
        assert diagonal.shape == (2 * gp.rounds,) and not diagonal.any()

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
    reference for the program and its export view."""
    n, k, m = gp.n, gp.k, gp.m
    # growth stages from s = k, each targeting the next p sites, then the closer
    stages = []
    s = k
    while s < n:
        stages.append((1, s, s // m, min(s // m, n - s), s))
        s += s // m
    stages.append((k + 1, n, (n - k) // m, min((n - k) // m, k), 0))
    rng = stream(gp.seed, "gen", "depth-opt")
    layers, meta = [], []
    for x1, x2, p, slots, target_base in stages:
        meta.append({"s": x2 if x1 == 1 else "closing", "p": p, "targets": slots,
                     "first_layer": len(layers)})
        for _ in range(gp.rounds):
            groups, apply_bits = prmc(n, x1, x2, m, p, rng)
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
            rows = [np.concatenate(a) for a in zip(*depth_opt_program(gp).rows())]
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
        assert prog.fired.shape == (stages, gp.rounds)
        assert prog.fired.ravel().tolist() == [len(layer.gates) for layer in ref.layers]
        assert prog.sites.shape == prog.values.shape == (ref.gate_count, 3)
        assert prog.targets.shape == (ref.gate_count,)
        segments = prog.rows()
        assert len(segments) == stages
        for (masks, patterns, flips, diagonal), rows in zip(segments, prog.fired.sum(axis=1)):
            assert masks.shape == patterns.shape == flips.shape == (rows, 1)
            assert diagonal.shape == (rows,)

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
            assert len(c.layers) == ceil_rounds(alpha * t / p)

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
            [rows] = sign_program(n, p, alpha, t, m, seed).rows()
            want = compile_circuit(sign_thermalizer(n, p, alpha, t, m, seed).layers, words_needed(n))
            for got, a in zip(rows, (want.masks, want.patterns, want.flips, want.diagonal)):
                assert np.array_equal(got, a)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            sign_thermalizer(n=10, p=4, alpha=1.0, t=1, m=3, seed=0)
