import numpy as np
import pytest
from conftest import reference_moment_states

from subsetphase import drivers, subsetstate
from subsetphase.circuit import ccx_equivalent_count, ccx_ladder_count
from subsetphase.copysim import (
    apply_circuit,
    apply_circuit_recording,
    round_probes,
    run_steps,
    sample_initial_copies,
    step_program,
)
from subsetphase.f2linalg import is_full_row_rank, rank
from subsetphase.generators import (
    GenParams,
    depth_opt_thermalizer,
    gate_opt_program,
    gate_opt_thermalizer,
)
from subsetphase.rng import derive_seed, stream


def reference_battery(algorithm, n, k, t, m, alpha, trials, master_seed, diagnostics=True):
    """Per-trial generate-then-walk loop over ``Circuit`` objects: the
    reference the batched program path must reproduce exactly."""
    build = gate_opt_thermalizer if algorithm == "gate-opt" else depth_opt_thermalizer
    result = drivers.BitBatteryResult(ensembles=[])
    for i in range(trials):
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=derive_seed(master_seed, "bit-circuit", i))
        circuit = build(gp)
        copies = sample_initial_copies(n, k, t, stream(master_seed, "bit-copies", i))
        if diagnostics and algorithm == "gate-opt":
            final, x = apply_circuit_recording(copies, circuit, round_probes(circuit, stage=1))
            result.x_ranks.append(rank(x))
            result.x_full_rank.append(is_full_row_rank(x))
        else:
            final = apply_circuit(copies, circuit)
        result.ensembles.append(final)
        result.distinct.append(final.is_distinct())
        result.ccx_counts.append(ccx_equivalent_count(circuit))
    return result


def assert_same_battery(got, want):
    assert got.ensembles == want.ensembles
    assert got.x_ranks == want.x_ranks
    assert got.x_full_rank == want.x_full_rank
    assert got.distinct == want.distinct
    assert got.ccx_counts == want.ccx_counts


class TestGateOptBatteryMatchesCircuitPath:
    @pytest.mark.parametrize(
        "n,k,t,m,alpha,trials,seed",
        [
            (16, 6, 4, 2, 4.0, drivers._TRIAL_BLOCK + 44, 21),  # two blocks, the last partial
            (100, 30, 6, 3, 4.0, 12, 22),  # two words per copy
            (64, 24, 8, 2, 6.0, 30, 23),  # exactly one word
        ],
    )
    def test_identical_to_per_trial_reference(self, n, k, t, m, alpha, trials, seed):
        got = drivers.run_bit_battery("gate-opt", n, k, t, m, alpha, trials, seed)
        want = reference_battery("gate-opt", n, k, t, m, alpha, trials, seed)
        assert_same_battery(got, want)
        assert len(got.x_ranks) == trials

    def test_without_diagnostics(self):
        args = (20, 8, 3, 2, 4.0, 25, 24)
        got = drivers.run_bit_battery("gate-opt", *args, diagnostics=False)
        want = reference_battery("gate-opt", *args, diagnostics=False)
        assert_same_battery(got, want)
        assert got.x_ranks == [] and got.x_full_rank == []

    def test_no_trials(self):
        battery = drivers.run_bit_battery("gate-opt", 16, 6, 4, 2, 4.0, 0, 1)
        assert battery.ensembles == [] and battery.ccx_counts == []


class TestDepthOptBatteryMatchesCircuitPath:
    @pytest.mark.parametrize(
        "n,k,t,m,alpha,trials,seed",
        [
            (100, 30, 6, 3, 2.0, drivers._TRIAL_BLOCK + 44, 26),  # two words, the last block partial
            (64, 24, 8, 2, 6.0, 12, 27),  # exactly one word
            (20, 8, 3, 3, 2.0, 40, 28),  # targets truncated at n
        ],
    )
    def test_identical_to_per_trial_reference(self, n, k, t, m, alpha, trials, seed):
        got = drivers.run_bit_battery("depth-opt", n, k, t, m, alpha, trials, seed)
        want = reference_battery("depth-opt", n, k, t, m, alpha, trials, seed)
        assert_same_battery(got, want)
        assert len(got.ensembles) == trials


@pytest.mark.parametrize("algorithm", ["gate-opt", "depth-opt"])
def test_blocks_closed_by_row_words(monkeypatch, algorithm):
    # a budget of 300 words closes a block after a few trials
    monkeypatch.setattr(drivers, "_BLOCK_CELLS", 300)
    args = (40, 12, 3, 2, 3.0, 30, 29)
    assert_same_battery(drivers.run_bit_battery(algorithm, *args), reference_battery(algorithm, *args))


def words(*values):
    """One-word rows holding ``values``."""
    return np.array(values, dtype=np.uint64)[:, None]


class TestPackBlock:
    def test_pads_each_segment_to_the_block_maximum(self):
        got = drivers.pack_block([
            [(words(1), np.array([True])), (words(2, 3), np.array([False, True]))],
            [(words(4, 5), np.array([True, True])), (words(6), np.array([True]))],
        ])
        assert [a.shape for a in got] == [(2, 4, 1), (2, 4)]
        assert got[0][:, :, 0].tolist() == [[1, 0, 2, 3], [4, 5, 6, 0]]
        assert got[1].tolist() == [[True, False, False, True], [True, True, True, False]]

    def test_padding_rows_change_nothing(self):
        # one trial's single flip row padded against another trial's three;
        # every row reads site 1 and wants it set
        masks, patterns, flips = drivers.pack_block([
            [(words(1), words(1), words(2))],
            [(words(1, 1, 1), words(1, 1, 1), words(2, 4, 8))],
        ])
        copies = np.array([[[1], [0]], [[1], [0]]], dtype=np.uint64)
        run_steps(step_program(masks, patterns, flips), copies)
        assert copies[:, :, 0].tolist() == [[3, 0], [15, 0]]


class TestMomentStatesMatchCircuitPath:
    @pytest.mark.parametrize(
        "n,k,t,samples,params",
        [
            (6, 4, 1, 260, (16.0, 2, 24.0, 3, 2)),  # 256 samples a block, the last partial
            (6, 4, 2, 260, (16.0, 2, 24.0, 3, 2)),
            (8, 6, 3, 70, (4.0, 2, 6.0, 3, 2)),  # 64 samples a block
            (4, 2, 2, 40, (8.0, 2, 8.0, 2, 2)),
        ],
    )
    def test_identical_images_and_signs(self, n, k, t, samples, params):
        got = list(drivers.moment_states(n, k, t, samples, 31, *params))
        want = list(reference_moment_states(n, k, t, samples, 31, *params))
        assert len(got) == samples
        for a, b in zip(got, want):
            assert np.array_equal(a.images, b.images)
            assert np.array_equal(a.signs, b.signs)

    def test_experiment_reads_the_block_states(self):
        exp = drivers.run_moment_experiment(4, 2, 2, 150, 32, 8.0, 2, 8.0, 2, 2)
        states = reference_moment_states(4, 2, 2, 150, 32, 8.0, 2, 8.0, 2, 2)
        moment = subsetstate.empirical_moment(states, 2)
        assert exp.td_primary == subsetstate.trace_distance(moment, subsetstate.haar_moment(4, 2))


class TestCcxCounts:
    @pytest.mark.parametrize("n,k,t,m,alpha", [(24, 8, 3, 2, 3.0), (40, 16, 4, 4, 2.0), (70, 20, 2, 5, 2.0)])
    def test_fired_times_ladder_equals_circuit_count(self, n, k, t, m, alpha):
        for seed in range(5):
            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
            fired = int(gate_opt_program(gp).fired.sum())
            assert fired * ccx_ladder_count(m) == ccx_equivalent_count(gate_opt_thermalizer(gp))

    def test_depth_opt_battery_counts(self):
        n, k, t, m, alpha, trials, seed = 24, 8, 3, 3, 2.0, 6, 25
        battery = drivers.run_bit_battery("depth-opt", n, k, t, m, alpha, trials, seed)
        want = [
            ccx_equivalent_count(depth_opt_thermalizer(
                GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=derive_seed(seed, "bit-circuit", i))
            ))
            for i in range(trials)
        ]
        assert battery.ccx_counts == want
        assert battery.x_ranks == []


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        drivers.run_bit_battery("serial", 16, 6, 4, 2, 4.0, 1, 0)


def test_moment_guard_runs_before_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise RuntimeError("a state was sampled")

    monkeypatch.setattr(drivers, "gate_opt_program", sampled)
    monkeypatch.setattr(drivers.subsetstate, "sample_oracle_state", sampled)
    # t = 3 at n = 6: d_sym = 45760, so 5000 samples need a 5000 x 5000 Gram
    with pytest.raises(ValueError, match="over the cap"):
        drivers.run_moment_experiment(6, 4, 3, 5000, master_seed=0)
