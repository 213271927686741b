"""Traced replica of the subsetphase commands the benchmark runs.

    python3 replica.py --workload NAME --shape full|smoke --seed N \
        --report PATH --trace PATH [--circuit PATH]

Each workload function repeats the loop behind one CLI command: it calls
the same public functions in the same order on the same streams, and
writes the same report bytes, so comparing the two files shows that the
replica measured the shipped program.  A span is recorded around every
call into a module and counts at the same boundaries; both stay in
memory and are written to the trace file when the run ends.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from subsetphase import analysis, cli, drivers, stats, subsetstate
from subsetphase.circuit import ccx_equivalent_count, load_circuit, validate, write_json_atomic
from subsetphase.copysim import (
    apply_circuit,
    apply_circuit_recording,
    round_probes,
    sample_initial_copies,
)
from subsetphase.f2linalg import is_full_row_rank, rank
from subsetphase.generators import (
    GenParams,
    depth_opt_cost_profile,
    gate_opt_thermalizer,
    sign_thermalizer,
)
from subsetphase.rng import derive_seed, stream

from tracing import ROOT, Tracer
from workloads import WORKLOADS, derive


def _write_report(tr: Tracer, path: str, config: dict, results) -> None:
    payload = {"tool": cli.tool_info(), "config": config, "results": results}
    with tr.span("cli.report_write"):
        write_json_atomic(path, payload)
    tr.count("cli.report_bytes", os.path.getsize(path))


def _count_circuit(tr: Tracer, circuit) -> None:
    tr.count("generators.circuits")
    tr.count("generators.gates", circuit.gate_count)
    tr.count("generators.layers", len(circuit.layers))


def bit_battery(tr: Tracer, n, k, t, m, alpha, trials, seed) -> drivers.BitBatteryResult:
    """``drivers.run_bit_battery`` for gate-opt with diagnostics on.

    Each trial also runs the plain ``apply_circuit`` on the same input
    (an extra span), so the cost of recording the condition matrix is
    the recording run's time minus the plain run's.
    """
    result = drivers.BitBatteryResult(ensembles=[])
    per_gate_ccx = max(1, 2 * m - 3)
    for i in range(trials):
        tr.run = i
        with tr.span("rng.stream"):
            circuit_seed = derive_seed(seed, "bit-circuit", i)
        with tr.span("generators.gen"):
            circuit = gate_opt_thermalizer(
                GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=circuit_seed))
        with tr.span("rng.stream"):
            rng = stream(seed, "bit-copies", i)
        with tr.span("copysim.sample"):
            copies = sample_initial_copies(n, k, t, rng)
        with tr.span("copysim.record"):
            probes = round_probes(circuit, stage=1)
            final, x = apply_circuit_recording(copies, circuit, probes)
        with tr.span("copysim.sim", extra=True):
            apply_circuit(copies, circuit)
        with tr.span("f2linalg.rank"):
            result.x_ranks.append(rank(x))
        with tr.span("f2linalg.fullrank"):
            full = is_full_row_rank(x)
        result.x_full_rank.append(full)
        result.ensembles.append(final)
        result.distinct.append(final.is_distinct())
        ccx = circuit.gate_count * per_gate_ccx
        if i < 8 and ccx != ccx_equivalent_count(circuit):
            raise RuntimeError("CCX count disagrees with ccx_equivalent_count")
        result.ccx_counts.append(ccx)
        _count_circuit(tr, circuit)
        tr.count("rng.streams", 2)
        tr.count("copysim.copies_sampled", t)
        tr.count("copysim.gate_copy_apps", circuit.gate_count * t)
        tr.count("copysim.probes", len(probes))
        tr.set("copysim.words", final.copies.shape[1])
        tr.count("f2linalg.rank_calls")
        tr.count("f2linalg.rank_cells", x.rows * x.cols)
        tr.count("f2linalg.full_rank_attempts")
        tr.count("f2linalg.full_rank_hits", int(full))
    tr.run = -1
    return result


def bits_gateopt(tr: Tracer, s: dict, seed: int, report: str, circuit: str) -> None:
    """``subsetphase verify --suite bits --algorithm gate-opt``."""
    n, k, t, m, trials = s["n"], s["k"], s["t"], s["m"], s["trials"]
    alpha = float(s["alpha"])
    battery = bit_battery(tr, n, k, t, m, alpha, trials, seed)
    with tr.span("stats.marginal"):
        reports = [stats.marginal_bias_test(battery.ensembles, seed=seed)]
    with tr.span("stats.xor"):
        reports.append(stats.pairwise_xor_test(battery.ensembles, seed=seed))
    tr.count("stats.cells", t * n + t * (t - 1) // 2 * n)
    freq = battery.x_full_rank_frequency
    reports.append(stats.TestReport(
        name="condition_matrix_full_rank", statistic=freq, samples=trials,
        passed=freq >= 0.99, threshold=0.99, seed=seed,
        details={"ranks_min": min(battery.x_ranks), "t": t},
    ))
    reports.append(stats.TestReport(
        name="distinctness", statistic=float(battery.all_distinct), samples=trials,
        passed=battery.all_distinct, threshold=1.0, seed=seed,
    ))
    config = {
        "command": "verify", "suite": "bits", "algorithm": "gate-opt", "n": n, "k": k,
        "t": t, "alpha": alpha, "m": m, "p": None, "trials": trials, "seed": seed,
    }
    _write_report(tr, report, config, [r.to_dict() for r in reports])


def sim_wide(tr: Tracer, s: dict, seed: int, report: str, circuit_path: str) -> None:
    """``subsetphase sim`` without diagnostics."""
    trials = s["trials"]
    with tr.span("circuit.load"):
        circuit = load_circuit(circuit_path)
        problems = validate(circuit)
    if problems:
        raise ValueError(f"circuit file is malformed: {problems[0]}")
    tr.count("circuit.file_bytes", os.path.getsize(circuit_path))
    n = circuit.n
    k = int(circuit.params.get("k", n))
    t = int(circuit.params.get("t", 1))
    bit_totals = None
    distinct: list[bool] = []
    sign_flip_rate = 0.0
    for i in range(trials):
        tr.run = i
        with tr.span("rng.stream"):
            rng = stream(seed, "sim-copies", i)
        with tr.span("copysim.sample"):
            copies = sample_initial_copies(n, k, t, rng)
        with tr.span("copysim.sim"):
            final = apply_circuit(copies, circuit)
        bits = final.bits()
        bit_totals = bits.astype("int64") if bit_totals is None else bit_totals + bits
        distinct.append(final.is_distinct())
        sign_flip_rate += float((final.signs < 0).mean())
        tr.count("rng.streams")
        tr.count("copysim.copies_sampled", t)
        tr.count("copysim.gate_copy_apps", circuit.gate_count * t)
        tr.set("copysim.words", final.copies.shape[1])
    tr.run = -1
    results = {
        "trials": trials,
        "n": n,
        "k": k,
        "t": t,
        "marginals": (bit_totals / trials).tolist(),
        "distinct_all": all(distinct),
        "distinct_per_trial": distinct,
        "sign_flip_rate": sign_flip_rate / trials,
    }
    config = {
        "command": "sim", "circuit": os.path.basename(circuit_path), "trials": trials,
        "seed": seed, "t": t, "diagnostics": "none",
    }
    _write_report(tr, report, config, results)


def signs(tr: Tracer, s: dict, seed: int, report: str, circuit: str) -> None:
    """``subsetphase verify --suite signs``.

    The shipped loop runs inside ``drivers.run_sign_trials``; the replica
    then draws the same per-trial streams and copies again (extra spans),
    so the sign kernel's time is the driver's time minus theirs.
    """
    n, p, m, t, trials = s["n"], s["p"], s["m"], s["t"], s["trials"]
    alpha = float(s["alpha"])
    with tr.span("drivers.sign_trials"):
        run = drivers.run_sign_trials(n, p, alpha, t, m, trials, seed)
    for i in range(trials):
        tr.run = i
        with tr.span("rng.stream", extra=True):
            derive_seed(seed, "sign-circuit", i)
            rng = stream(seed, "sign-copies", i)
        with tr.span("copysim.sample", extra=True):
            sample_initial_copies(n, n, t, rng)
    tr.run = -1
    tr.count("rng.streams", 2 * trials)
    tr.count("copysim.copies_sampled", t * trials)
    bins = min(t, 8)
    with tr.span("stats.sign"):
        test = stats.sign_vector_test(run.sign_vectors, bins, seed=seed)
    tr.count("stats.cells", 1 << bins)
    config = {
        "command": "verify", "suite": "signs", "algorithm": "gate-opt", "n": n, "k": None,
        "t": t, "alpha": alpha, "m": m, "p": p, "trials": trials, "seed": seed,
    }
    _write_report(tr, report, config, [test.to_dict()])


# ``subsetphase moments`` defaults
MOMENT_PARAMS = {"alpha_bit": 16.0, "m_bit": 2, "alpha_sign": 24.0, "m_sign": 3, "p_sign": 2}


def moments(tr: Tracer, s: dict, seed: int, report: str, circuit: str) -> None:
    """``subsetphase moments`` (``drivers.run_moment_experiment``)."""
    n, k, t, samples = s["n"], s["k"], s["t"], s["samples"]
    mp = MOMENT_PARAMS
    with tr.span("subsetstate.haar"):
        haar = subsetstate.haar_moment(n, t)
    dim = haar.dim
    tr.set("subsetstate.moment_dim", dim)

    def alg_states():
        for i in range(samples):
            tr.run = i
            with tr.span("rng.stream"):
                bit_seed = derive_seed(seed, "moment-bit", i)
                sign_seed = derive_seed(seed, "moment-sign", i)
            with tr.span("generators.gen"):
                bit_circuit = gate_opt_thermalizer(
                    GenParams(n=n, k=k, t=t, alpha=mp["alpha_bit"], m=mp["m_bit"], seed=bit_seed))
                sign_circuit = sign_thermalizer(
                    n, mp["p_sign"], mp["alpha_sign"], t, mp["m_sign"], seed=sign_seed)
            with tr.span("subsetstate.evolve"):
                state = subsetstate.initial_subset_state(n, k)
                state = subsetstate.apply_circuit(state, bit_circuit)
                state = subsetstate.apply_circuit(state, sign_circuit)
            tr.count("rng.streams", 2)
            _count_circuit(tr, bit_circuit)
            _count_circuit(tr, sign_circuit)
            yield state

    def oracle_states(tag: str):
        for i in range(samples):
            tr.run = i
            with tr.span("rng.stream"):
                rng = stream(seed, tag, i)
            with tr.span("subsetstate.oracle"):
                state = subsetstate.sample_oracle_state(n, k, rng)
            tr.count("rng.streams")
            yield state

    distances = []
    for states in (alg_states(), oracle_states("moment-oracle")):
        with tr.span("subsetstate.accumulate"):
            moment = subsetstate.empirical_moment(states, t)
        tr.run = -1
        tr.count("subsetstate.accumulate_gflop", samples * dim * dim / 1e9)
        with tr.span("subsetstate.eig"):
            distances.append(subsetstate.trace_distance(moment, haar))
        del moment
    td_primary, td_oracle = distances
    results = {
        "td_empirical": td_primary,
        "td_oracle_baseline": td_oracle,
        "samples": samples,
        "seed": seed,
        "excess_over_baseline": td_primary - td_oracle,
    }
    config = {
        "command": "moments", "n": n, "k": k, "t": t, "samples": samples,
        "seed": seed, "baseline": "algorithm", **mp,
    }
    _write_report(tr, report, config, results)


def scaling(tr: Tracer, s: dict, seed: int, report: str, circuit: str) -> None:
    """``subsetphase scaling --algorithm depth-opt`` with alpha and m auto."""
    rows = []
    for n in s["n"]:
        for t in s["t"]:
            m = max(2, math.ceil(math.log2(t)))
            alpha = float(math.ceil(2 * math.log(n)))
            for k in s["k"]:
                tr.run = len(rows)
                with tr.span("rng.stream"):
                    point_seed = derive_seed(seed, "scaling", "depth-opt", n, t, m, k)
                with tr.span("generators.profile"):
                    meas = depth_opt_cost_profile(
                        GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=point_seed))
                with tr.span("analysis.predict"):
                    pred = analysis.predicted_cost("depth-opt", n, k, t, alpha, m)
                tr.count("rng.streams")
                rows.append([
                    "depth-opt", n, k, t, alpha, m,
                    meas.gates, meas.unit_depth, meas.decomposed_depth,
                    pred.gates, pred.decomposed_depth, seed,
                ])
    tr.run = -1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["algorithm", "n", "k", "t", "alpha", "m", "gates", "unit_depth",
                     "decomposed_depth", "predicted_gates", "predicted_depth", "seed"])
    writer.writerows(rows)
    with tr.span("cli.report_write"):
        with open(report, "w") as fh:
            fh.write(buf.getvalue())
    tr.count("cli.report_bytes", os.path.getsize(report))


REPLICAS = {
    "bits-gateopt": bits_gateopt,
    "sim-wide": sim_wide,
    "signs": signs,
    "moments": moments,
    "scaling": scaling,
}


def main(argv: list[str]) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(REPLICAS), required=True)
    ap.add_argument("--shape", choices=["full", "smoke"], default="full")
    ap.add_argument("--seed", type=int, required=True, help="the workload seed")
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", required=True)
    ap.add_argument("--circuit", default="")
    args = ap.parse_args(argv)
    shape = WORKLOADS[args.workload].shapes[args.shape]
    tr = Tracer()
    with tr.span(ROOT):
        REPLICAS[args.workload](
            tr, shape, derive(args.seed, args.workload), args.report, args.circuit)
    tr.dump(args.trace, workload=args.workload, shape=args.shape, seed=args.seed)


if __name__ == "__main__":
    main(sys.argv[1:])
