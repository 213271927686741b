import multiprocessing

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import reference_moment_states

from subsetphase import cli, copysim, drivers, generators, subsetstate
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


@pytest.fixture
def block_sizes(monkeypatch):
    """Trials in each kernel call that ``drivers.run_blocks`` makes, on
    one core, so that every call is made in this process."""
    sizes = []
    run_steps = drivers.run_steps

    def counted(prog, copies, signs=None):
        sizes.append(len(copies))
        return run_steps(prog, copies, signs)

    monkeypatch.setattr(drivers, "run_steps", counted)
    monkeypatch.setattr(drivers, "_core_count", lambda: 1)
    return sizes


def assert_same_battery(got, want):
    assert got.ensembles == want.ensembles
    assert got.x_ranks == want.x_ranks
    assert got.x_full_rank == want.x_full_rank
    assert got.distinct == want.distinct
    assert got.ccx_counts == want.ccx_counts


class TestGateOptBatteryMatchesCircuitPath:
    @pytest.mark.parametrize(
        "n,k,t,m,alpha,trials,seed,cells",
        [
            # 32 rounds and 4 copies hold 3 * 32 + 4 words a trial: blocks
            # of 256 and 44 trials
            (16, 6, 4, 2, 4.0, 300, 21, 256 * 100),
            (100, 30, 6, 3, 4.0, 12, 22, None),  # two words per copy
            (64, 24, 8, 2, 6.0, 30, 23, None),  # exactly one word
        ],
    )
    def test_identical_to_per_trial_reference(
        self, monkeypatch, block_sizes, n, k, t, m, alpha, trials, seed, cells
    ):
        if cells:
            monkeypatch.setattr(drivers, "_BLOCK_CELLS", cells)
        got = drivers.run_bit_battery("gate-opt", n, k, t, m, alpha, trials, seed)
        want = reference_battery("gate-opt", n, k, t, m, alpha, trials, seed)
        assert_same_battery(got, want)
        assert len(got.x_ranks) == trials
        if cells:
            assert block_sizes == [256, 44]

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
        "n,k,t,m,alpha,trials,seed,cells",
        [
            # two words; at most 1116 slot rows a trial: blocks of 131
            # trials, the last partial
            (100, 30, 6, 3, 2.0, 300, 26, 250 * 3500),
            (64, 24, 8, 2, 6.0, 12, 27, None),  # exactly one word
            (20, 8, 3, 3, 2.0, 40, 28, None),  # targets truncated at n
        ],
    )
    def test_identical_to_per_trial_reference(
        self, monkeypatch, block_sizes, n, k, t, m, alpha, trials, seed, cells
    ):
        if cells:
            monkeypatch.setattr(drivers, "_BLOCK_CELLS", cells)
        got = drivers.run_bit_battery("depth-opt", n, k, t, m, alpha, trials, seed)
        want = reference_battery("depth-opt", n, k, t, m, alpha, trials, seed)
        assert_same_battery(got, want)
        assert len(got.ensembles) == trials
        if cells:
            assert len(block_sizes) >= 2 and block_sizes[-1] < block_sizes[0]


@pytest.mark.parametrize("algorithm", ["gate-opt", "depth-opt"])
def test_blocks_closed_by_row_words(monkeypatch, block_sizes, algorithm):
    # a budget of 1200 words closes a block after a few trials
    monkeypatch.setattr(drivers, "_BLOCK_CELLS", 1200)
    args = (40, 12, 3, 2, 3.0, 30, 29)
    assert_same_battery(drivers.run_bit_battery(algorithm, *args), reference_battery(algorithm, *args))
    assert 1 < len(block_sizes) < 30, block_sizes


def words(*values):
    """One-word rows holding ``values``."""
    return np.array(values, dtype=np.uint64)[:, None]


class TestPackBlock:
    def test_padding_rows_change_nothing(self):
        # one trial's single flip row padded with zero rows against another
        # trial's three; every real row reads site 1 and wants it set
        masks, patterns, flips = (
            np.stack([words(1, 0, 0), words(1, 1, 1)]),
            np.stack([words(1, 0, 0), words(1, 1, 1)]),
            np.stack([words(2, 0, 0), words(2, 4, 8)]),
        )
        copies = np.array([[[1], [0]], [[1], [0]]], dtype=np.uint64)
        run_steps(step_program(masks, patterns, flips), copies)
        assert copies[:, :, 0].tolist() == [[3, 0], [15, 0]]


class TestMomentStatesMatchCircuitPath:
    @pytest.mark.parametrize(
        "n,k,t,samples,params",
        [
            (6, 4, 1, 260, (16.0, 2, 24.0, 3, 2)),  # three blocks, the last partial
            (6, 4, 2, 260, (16.0, 2, 24.0, 3, 2)),
            (8, 6, 3, 70, (4.0, 2, 6.0, 3, 2)),
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


def at_default_and_one_trial_blocks(monkeypatch, block_sizes, run, trials):
    """``run()`` at the default budget, which packs several trials a
    block, and again with one trial a block."""
    default = run()
    assert max(block_sizes) > 1
    block_sizes.clear()
    monkeypatch.setattr(drivers, "_BLOCK_CELLS", 1)
    one = run()
    assert block_sizes == [1] * trials
    return default, one


class TestBlockSizeInvariance:
    """Every trial loop gives the same results whatever the block size."""

    @pytest.mark.parametrize("algorithm", ["gate-opt", "depth-opt"])
    def test_bit_battery(self, monkeypatch, block_sizes, algorithm):
        default, one = at_default_and_one_trial_blocks(
            monkeypatch, block_sizes,
            lambda: drivers.run_bit_battery(algorithm, 70, 10, 4, 3, 2.0, 40, 41), 40,
        )
        assert_same_battery(one, default)

    def test_sign_trials(self, monkeypatch, block_sizes):
        default, one = at_default_and_one_trial_blocks(
            monkeypatch, block_sizes, lambda: drivers.run_sign_trials(70, 8, 8.0, 4, 3, 40, 42), 40
        )
        assert one.layer_count == default.layer_count
        assert one.gate_counts == default.gate_counts
        assert np.array_equal(one.sign_vectors, default.sign_vectors)

    def test_moment_states(self, monkeypatch, block_sizes):
        default, one = at_default_and_one_trial_blocks(
            monkeypatch, block_sizes,
            lambda: list(drivers.moment_states(6, 4, 2, 60, 43, 16.0, 2, 24.0, 3, 2)), 60,
        )
        assert np.array_equal([s.images for s in one], [s.images for s in default])
        assert np.array_equal([s.signs for s in one], [s.signs for s in default])

    def test_sim_report_bytes(self, monkeypatch, block_sizes, tmp_path):
        runner = CliRunner()
        circuit = tmp_path / "c.json"
        res = runner.invoke(cli.cli, [
            "gen", "--algorithm", "gate-opt", "--n", "70", "--k", "10", "--t", "4", "--alpha", "2",
            "--m", "3", "--seed", "9", "--out", str(circuit),
        ])
        assert res.exit_code == 0, res.output
        report = tmp_path / "r.json"

        def sim():
            res = runner.invoke(cli.cli, [
                "sim", "--circuit", str(circuit), "--trials", "30", "--seed", "10",
                "--diagnostics", "rank", "--report", str(report),
            ])
            assert res.exit_code == 0, res.output
            return report.read_bytes()

        default, one = at_default_and_one_trial_blocks(monkeypatch, block_sizes, sim, 30)
        assert one == default


@pytest.fixture
def stage_reads(monkeypatch):
    """The generator tag of every ``generators._draw_stages`` call."""
    tags = []
    draw_stages = generators._draw_stages

    def counted(algorithm, *args, **kwargs):
        tags.append(algorithm)
        return draw_stages(algorithm, *args, **kwargs)

    monkeypatch.setattr(generators, "_draw_stages", counted)
    return tags


class TestOneReadPerBlock:
    """Every driver reads each generator's streams once per block of
    trials, not once per trial."""

    @pytest.mark.parametrize("algorithm", ["gate-opt", "depth-opt"])
    def test_bit_battery(self, block_sizes, stage_reads, algorithm):
        drivers.run_bit_battery(algorithm, 40, 12, 3, 2, 3.0, 300, 51)
        assert len(block_sizes) > 1 and max(block_sizes) > 1
        assert stage_reads == [algorithm] * len(block_sizes)

    def test_sign_trials(self, block_sizes, stage_reads):
        drivers.run_sign_trials(64, 10, 9.0, 32, 6, 100, 52)
        assert len(block_sizes) > 1 and max(block_sizes) > 1
        assert stage_reads == ["sign"] * len(block_sizes)

    def test_moment_states(self, block_sizes, stage_reads):
        list(drivers.moment_states(6, 4, 2, 300, 53, 16.0, 2, 24.0, 3, 2))
        assert len(block_sizes) > 1 and max(block_sizes) > 1
        assert stage_reads == ["gate-opt", "sign"] * len(block_sizes)


def test_sim_groups_its_rows_once(monkeypatch, block_sizes, tmp_path):
    # every sim trial runs the one compiled circuit: grouped into steps
    # once, however many blocks the trials take
    groupings = []

    def counted(step_program):
        def grouped(*args, **kwargs):
            groupings.append(step_program)
            return step_program(*args, **kwargs)
        return grouped

    # ``compile_circuit`` calls the one in copysim, ``run_blocks`` its import
    for module in (copysim, drivers):
        monkeypatch.setattr(module, "step_program", counted(module.step_program))
    monkeypatch.setattr(drivers, "_BLOCK_CELLS", 500)
    runner = CliRunner()
    circuit, report = tmp_path / "c.json", tmp_path / "r.json"
    res = runner.invoke(cli.cli, [
        "gen", "--algorithm", "depth-opt", "--n", "40", "--k", "10", "--t", "4", "--alpha", "2",
        "--m", "2", "--seed", "9", "--out", str(circuit),
    ])
    assert res.exit_code == 0, res.output
    groupings.clear()
    res = runner.invoke(cli.cli, [
        "sim", "--circuit", str(circuit), "--trials", "25", "--seed", "10", "--report", str(report),
    ])
    assert res.exit_code == 0, res.output
    assert len(block_sizes) > 1 and max(block_sizes) > 1 and sum(block_sizes) == 25
    assert len(groupings) == 1


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


@pytest.fixture
def short_spans(monkeypatch):
    """Three cores, and spans of as little as one block of a few trials,
    so that small runs split unevenly and off the block boundaries."""
    monkeypatch.setattr(drivers, "_core_count", lambda: 3)
    monkeypatch.setattr(drivers, "_SPAN_BLOCKS", 1)
    monkeypatch.setattr(drivers, "_BLOCK_CELLS", 300)


def on_each_core_count(monkeypatch, run):
    """``run()`` on 1, 2 and 3 cores."""
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(drivers, "_core_count", lambda: cores)
        runs.append(run())
    return runs


class TestWorkerCountInvariance:
    """Spans on 1, 2 and 3 worker processes give the same results."""

    def test_sign_trials(self, monkeypatch, short_spans, pools):
        # 200-word trials make blocks of 2; 41 trials split 13 + 14 + 14
        runs = on_each_core_count(monkeypatch, lambda: drivers.run_sign_trials(70, 8, 8.0, 4, 3, 41, 61))
        assert pools == [2, 3]
        for run in runs[1:]:
            assert run.layer_count == runs[0].layer_count
            assert run.gate_counts == runs[0].gate_counts
            assert np.array_equal(run.sign_vectors, runs[0].sign_vectors)
        assert len(runs[0].sign_vectors) == 41

    @pytest.mark.parametrize(
        "algorithm,diagnostics", [("gate-opt", True), ("gate-opt", False), ("depth-opt", True)]
    )
    def test_bit_battery(self, monkeypatch, short_spans, pools, algorithm, diagnostics):
        # gate-opt's 57-word trials make blocks of 6; 31 trials split
        # 10 + 10 + 11
        args = (40, 12, 3, 2, 3.0, 31, 62)
        runs = on_each_core_count(
            monkeypatch, lambda: drivers.run_bit_battery(algorithm, *args, diagnostics=diagnostics)
        )
        assert pools == [2, 3]
        for run in runs[1:]:
            assert_same_battery(run, runs[0])
        assert len(runs[0].ensembles) == 31
        assert len(runs[0].x_ranks) == (31 if algorithm == "gate-opt" and diagnostics else 0)
        assert_same_battery(runs[0], reference_battery(algorithm, *args, diagnostics=diagnostics))

    def test_bit_battery_at_the_benchmark_shape(self, monkeypatch, pools):
        # verify --suite bits at n=64, k=24, t=8: 1000 trials in blocks of
        # 56 fill two spans of at least _SPAN_BLOCKS blocks on two cores
        args = ("gate-opt", 64, 24, 8, 2, 6.0, 1000, 63)
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(drivers, "_core_count", lambda: cores)
            runs.append(drivers.run_bit_battery(*args))
        assert pools == [2]
        assert_same_battery(runs[1], runs[0])
        assert len(runs[0].x_ranks) == 1000

    def test_rank_mc(self, monkeypatch, short_spans, pools):
        # 64-trial spans at least: 601 trials split 200 + 200 + 201
        runs = on_each_core_count(monkeypatch, lambda: drivers.monte_carlo_full_rank_streamed(3, 8, 0.3, 601, 4))
        assert pools == [2, 3]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_no_trials_start_no_pool(self, short_spans, pools):
        battery = drivers.run_bit_battery("gate-opt", 16, 6, 4, 2, 4.0, 0, 1)
        assert battery.ensembles == [] and battery.x_ranks == [] and battery.ccx_counts == []
        assert drivers.run_sign_trials(70, 8, 8.0, 4, 3, 0, 61).sign_vectors == []
        assert pools == []


def test_no_pool_where_the_platform_cannot_fork(monkeypatch, short_spans, pools):
    # a worker started by spawn or forkserver imports numpy afresh, which
    # costs more than a span saves
    runs = []
    for methods in (["fork", "spawn"], ["spawn"]):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        signs = drivers.run_sign_trials(70, 8, 8.0, 4, 3, 41, 61)
        ranks = drivers.monte_carlo_full_rank_streamed(3, 8, 0.3, 601, 4)
        runs.append((signs.sign_vectors, ranks))
    assert pools == [3, 3]
    assert np.array_equal(runs[1][0], runs[0][0]) and runs[1][1] == runs[0][1]


@pytest.mark.parametrize(
    "mask,cores,pool",
    [(None, 8, 8), (None, 64, 10), (3, 64, 3), (None, None, 1)],
)
def test_rank_mc_pool_is_capped(monkeypatch, mask, cores, pool):
    # 640 trials make spans of at least 64, so at most ten of them; the
    # pool is min(spans, cores), the cores being the affinity mask's (as
    # ``taskset`` sets it) or, without a mask, the machine's
    sizes, spans = [], []

    class RecordingPool:
        """Runs the spans in this process and records the pool size."""

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            spans.extend(span[-2:] for span in args)
            return map(fn, args)

    with monkeypatch.context() as one_core:
        one_core.setattr(drivers, "_core_count", lambda: 1)
        want = drivers.monte_carlo_full_rank_streamed(3, 8, 0.3, 640, 4)
    monkeypatch.setattr(drivers, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(drivers.os, "cpu_count", lambda: cores)
    if mask is None:
        # a platform without an affinity mask reads its core count, if any
        monkeypatch.delattr(drivers.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(drivers.os, "sched_getaffinity", lambda pid: set(range(mask)), raising=False)
    assert drivers.monte_carlo_full_rank_streamed(3, 8, 0.3, 640, 4) == want
    # a pool of one runs in this process instead
    assert sizes == ([pool] if pool > 1 else [])
    if pool > 1:
        # contiguous spans of near-equal size cover every trial once, in order
        assert len(spans) == pool and spans[0][0] == 0 and spans[-1][1] == 640
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert max(hi - lo for lo, hi in spans) - min(hi - lo for lo, hi in spans) <= 1


def test_core_count_reads_the_affinity_mask(monkeypatch):
    # the fallback to the core count is test_rank_mc_pool_is_capped's
    monkeypatch.setattr(drivers.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(drivers.os, "cpu_count", lambda: 64)
    assert drivers._core_count() == 3
