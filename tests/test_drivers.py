import pytest

from subsetphase import drivers
from subsetphase.circuit import ccx_equivalent_count, ccx_ladder_count
from subsetphase.copysim import apply_circuit, apply_circuit_recording, round_probes, sample_initial_copies
from subsetphase.f2linalg import is_full_row_rank, rank
from subsetphase.generators import (
    GenParams,
    depth_opt_thermalizer,
    gate_opt_program,
    gate_opt_thermalizer,
)
from subsetphase.rng import derive_seed, stream


def reference_gate_opt_battery(n, k, t, m, alpha, trials, master_seed, diagnostics=True):
    """Per-trial generate-then-walk loop over ``Circuit`` objects: the
    reference the batched program path must reproduce exactly."""
    result = drivers.BitBatteryResult(ensembles=[])
    for i in range(trials):
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=derive_seed(master_seed, "bit-circuit", i))
        circuit = gate_opt_thermalizer(gp)
        copies = sample_initial_copies(n, k, t, stream(master_seed, "bit-copies", i))
        if diagnostics:
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
        want = reference_gate_opt_battery(n, k, t, m, alpha, trials, seed)
        assert_same_battery(got, want)
        assert len(got.x_ranks) == trials

    def test_without_diagnostics(self):
        args = (20, 8, 3, 2, 4.0, 25, 24)
        got = drivers.run_bit_battery("gate-opt", *args, diagnostics=False)
        want = reference_gate_opt_battery(*args, diagnostics=False)
        assert_same_battery(got, want)
        assert got.x_ranks == [] and got.x_full_rank == []

    def test_no_trials(self):
        battery = drivers.run_bit_battery("gate-opt", 16, 6, 4, 2, 4.0, 0, 1)
        assert battery.ensembles == [] and battery.ccx_counts == []


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

    monkeypatch.setattr(drivers, "gate_opt_thermalizer", sampled)
    monkeypatch.setattr(drivers.subsetstate, "sample_oracle_state", sampled)
    # t = 3 at n = 6: d_sym = 45760, so 5000 samples need a 5000 x 5000 Gram
    with pytest.raises(ValueError, match="over the cap"):
        drivers.run_moment_experiment(6, 4, 3, 5000, master_seed=0)
