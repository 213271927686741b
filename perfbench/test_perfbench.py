"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The smoke test runs every workload's command, output check and traced
replica at a tiny size (about a minute on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from subsetphase import drivers  # noqa: E402

import replica  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_bit_battery_replica_matches_driver():
    args = (16, 8, 4, 2, 8.0, 40, 11)  # n, k, t, m, alpha, trials, seed
    tr = tracing.Tracer()
    got = replica.bit_battery(tr, *args)
    n, k, t, m, alpha, trials, seed = args
    want = drivers.run_bit_battery("gate-opt", n, k, t, m, alpha, trials, seed)
    assert got.ensembles == want.ensembles
    assert got.x_ranks == want.x_ranks
    assert got.x_full_rank == want.x_full_rank
    assert got.distinct == want.distinct
    assert got.ccx_counts == want.ccx_counts
    assert all(0 < start <= end for _, start, end, *_ in tr.spans)
    assert tr.counts["f2linalg.rank_calls"] == trials


def test_self_time_subtracts_child_spans():
    spans = [
        ["replica", 0.0, 10.0, -1, -1, False],
        ["generators.gen", 1.0, 4.0, 0, 0, False],
        ["rng.stream", 2.0, 3.0, 1, 0, False],
        ["copysim.sim", 5.0, 6.0, 0, 0, True],
    ]
    own, extra = tracing.self_times(spans)
    assert own == {"replica": 6.0, "generators.gen": 2.0, "rng.stream": 1.0, "copysim.sim": 1.0}
    assert extra == {"copysim.sim": 1.0}
    metrics = tracing.layer_metrics({"spans": spans, "counts": {}}, untraced_s=8.0)
    assert metrics["trace.overhead_frac"] == (10.0 - 1.0 - 8.0) / 8.0
    assert metrics["copysim.record_s"] == 0.0  # no recording run at all


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(replica.REPLICAS) == set(workloads.WORKLOADS)


def test_checks_reject_wrong_outputs():
    w = workloads.WORKLOADS
    s = w["sim-wide"].shapes["full"]
    fair = [[0.5] * s["n"] for _ in range(s["t"])]
    r = {"trials": s["trials"], "t": s["t"], "n": s["n"], "distinct_all": True,
         "marginals": fair}
    assert w["sim-wide"].check(s, 0, json.dumps({"results": r}).encode()) == []
    stuck = [row[:5] + [0.0] + row[6:] for row in fair]  # bit 5 never set
    r = dict(r, marginals=stuck)
    assert w["sim-wide"].check(s, 0, json.dumps({"results": r}).encode())

    s = w["moments"].shapes["smoke"]
    r = {"td_empirical": 0.5, "td_oracle_baseline": 0.4, "samples": s["samples"]}
    assert w["moments"].check(s, 0, json.dumps({"results": r}).encode())

    s = w["scaling"].shapes["smoke"]
    header = "algorithm,n,k,t,alpha,m,gates,unit_depth\n"
    rows = "".join(f"depth-opt,{n},16,{t},9.0,2,100,1\n" for n in s["n"] for t in s["t"])
    assert w["scaling"].check(s, 0, (header + rows).encode())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert r.stdout == ""


def test_smoke_run():
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert r.returncode == 0 and last["correct"] and last["failed"] == 0, r.stderr[-3000:]
    assert last["attempted"] >= 4 * len(workloads.WORKLOADS)
