import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest
from click.testing import CliRunner

from subsetphase import cli, drivers


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "subsetphase.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_main(monkeypatch, capsys, *args):
    """``cli.main`` in this process, so that patches reach its workers:
    its exit code and standard error."""
    monkeypatch.setattr(sys, "argv", ["subsetphase", *args])
    try:
        cli.main()
        code = 0
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err


GEN_SMALL = [
    "gen", "--algorithm", "gate-opt", "--n", "12", "--k", "4", "--t", "2",
    "--alpha", "2.0", "--m", "2", "--seed", "7",
]


class TestGen:
    def test_writes_circuit(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(*GEN_SMALL, "--out", str(out))
        assert res.returncode == 0, res.stderr
        obj = read_json(out)
        assert obj["n"] == 12
        assert obj["seed"] == 7
        assert obj["generator"] == "gate-opt"
        assert obj["tool"]["name"] == "subsetphase"
        assert "layers" in obj and "params" in obj

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*GEN_SMALL, "--out", str(a)).returncode == 0
        assert run_cli(*GEN_SMALL, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(*GEN_SMALL, "--out", str(a))
        run_cli(*GEN_SMALL[:-2], "--seed", "8", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_sign_generation(self, tmp_path):
        out = tmp_path / "s.json"
        res = run_cli(
            "gen", "--algorithm", "sign", "--n", "16", "--t", "4", "--alpha", "4.0",
            "--m", "1", "--p", "16", "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert read_json(out)["generator"] == "sign"

    def test_sign_requires_p(self, tmp_path):
        res = run_cli(
            "gen", "--algorithm", "sign", "--n", "16", "--t", "4", "--alpha", "4.0",
            "--m", "1", "--seed", "1", "--out", str(tmp_path / "x.json"),
        )
        assert res.returncode == 1

    def test_strict_premise_violation_exits_2(self, tmp_path):
        # t > k/2 under the CCX regime
        res = run_cli(
            "gen", "--algorithm", "gate-opt", "--n", "64", "--k", "8", "--t", "6",
            "--alpha", "2.0", "--m", "2", "--seed", "0",
            "--regime", "gate-opt-ccx", "--strict", "--out", str(tmp_path / "x.json"),
        )
        assert res.returncode == 2
        assert "premise" in res.stderr

    def test_nonstrict_premise_violation_warns_and_proceeds(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(
            "gen", "--algorithm", "gate-opt", "--n", "64", "--k", "8", "--t", "6",
            "--alpha", "2.0", "--m", "2", "--seed", "0",
            "--regime", "gate-opt-ccx", "--out", str(out),
        )
        assert res.returncode == 0
        assert "premise" in res.stderr
        assert out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("algorithm", ["gate-opt", "sign"])
    def test_non_finite_alpha_exits_1_naming_alpha(self, tmp_path, algorithm, alpha):
        out = tmp_path / "x.json"
        res = run_cli(
            "gen", "--algorithm", algorithm, "--n", "8", "--k", "4", "--p", "2", "--t", "1",
            "--alpha", alpha, "--m", "2", "--out", str(out),
        )
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"error: alpha must be positive and finite, got {alpha}" in res.stderr
        assert not out.exists()

    def test_unallocatable_circuit_exits_1_without_traceback(self, tmp_path):
        # about 2e14 rounds of 8 target slots: a 1.4 PiB array, more than an
        # address space holds, so the request fails before touching memory
        out = tmp_path / "x.json"
        res = run_cli(
            "gen", "--algorithm", "gate-opt", "--n", "8", "--k", "4", "--t", "1",
            "--alpha", "1e14", "--m", "2", "--out", str(out),
        )
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "error: out of memory: Unable to allocate" in res.stderr and "PiB" in res.stderr
        assert not out.exists()


class TestSim:
    def test_missing_circuit_flag_exits_1(self):
        res = run_cli("sim", "--trials", "5", "--report", "r.json")
        assert res.returncode == 1

    def test_pipeline_report(self, tmp_path):
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        res = run_cli(
            "sim", "--circuit", str(circ), "--trials", "50", "--seed", "3",
            "--diagnostics", "rank", "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        obj = read_json(rep)
        assert obj["config"]["seed"] == 3
        assert obj["tool"]["rng"].startswith("philox")
        results = obj["results"]
        assert results["distinct_all"] is True
        assert len(results["x_ranks"]) == 50
        assert 0.0 <= results["x_full_rank_frequency"] <= 1.0

    def test_report_reproducible(self, tmp_path):
        circ = tmp_path / "c.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["sim", "--circuit", str(circ), "--trials", "30", "--seed", "5"]
        run_cli(*args, "--report", str(r1))
        run_cli(*args, "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()

    def test_gate_missing_key_exits_1_without_traceback(self, tmp_path):
        circ = tmp_path / "c.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        obj = read_json(circ)
        layer = next(i for i, layer in enumerate(obj["layers"]) if layer)
        del obj["layers"][layer][0]["controls"]
        circ.write_text(json.dumps(obj))
        res = run_cli("sim", "--circuit", str(circ), "--report", str(tmp_path / "r.json"))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"layer {layer} gate 0: missing key 'controls'" in res.stderr

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_1_without_report(self, tmp_path, trials):
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        res = run_cli("sim", "--circuit", str(circ), "--trials", trials, "--report", str(rep))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "--trials" in res.stderr
        assert not rep.exists()

    @pytest.mark.parametrize(
        "edit,args,message",
        [
            ({"params": [1, 2]}, [], "circuit params must be a JSON object"),
            ({"metadata": {"rounds": [{"stage": 1}]}}, ["--diagnostics", "rank"],
             "metadata round 0: missing key 'controls'"),
            ({"metadata": {"rounds": 5}}, ["--diagnostics", "rank"], "metadata rounds must be a list"),
            ({"metadata": {"rounds": [{"stage": 1, "layer": 0, "controls": [[99, 1]]}]}},
             ["--diagnostics", "rank"], "metadata round 0: control site 99 outside [1, 12]"),
            ({"metadata": {"rounds": [{"stage": 1, "layer": 0, "controls": [[3, 2]]}]}},
             ["--diagnostics", "rank"], "metadata round 0: required_value must be 0 or 1"),
        ],
        ids=["params-list", "round-without-controls", "rounds-int", "control-site-outside", "control-value-2"],
    )
    def test_malformed_metadata_exits_1_without_traceback(self, tmp_path, edit, args, message):
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        circ.write_text(json.dumps({**read_json(circ), **edit}))
        res = run_cli("sim", "--circuit", str(circ), *args, "--report", str(rep))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert message in res.stderr
        assert not rep.exists()

    @pytest.mark.parametrize("key", ["n", "seed", "params.t", "pos"])
    def test_number_past_float_range_exits_1_naming_the_key(self, tmp_path, key):
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        obj = read_json(circ)
        layer = next(i for i, layer in enumerate(obj["layers"]) if layer)
        where, message = {
            "n": (obj, "n must be an integer, got inf"),
            "seed": (obj, "seed must be an integer, got inf"),
            "params.t": (obj["params"], "t must be an integer, got inf"),
            "pos": (obj["layers"][layer][0]["controls"][0], f"layer {layer} gate 0: pos must be an integer, got inf"),
        }[key]
        where[key.rpartition(".")[2]] = "BIG"
        # json.dumps writes no number past the float range, so splice one in
        circ.write_text(json.dumps(obj).replace('"BIG"', "1e400"))
        res = run_cli("sim", "--circuit", str(circ), "--report", str(rep))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"error: {message}" in res.stderr
        assert not rep.exists()

    @pytest.mark.parametrize("value,message", [(2.7, "pos must be an integer, got 2.7"), (3.0, None)])
    def test_non_integral_number_exits_1_naming_the_key(self, tmp_path, value, message):
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        obj = read_json(circ)
        layer = next(i for i, layer in enumerate(obj["layers"]) if layer)
        obj["layers"][layer][0]["controls"][0]["pos"] = value
        circ.write_text(json.dumps(obj))
        res = run_cli("sim", "--circuit", str(circ), "--report", str(rep))
        assert "Traceback" not in res.stderr
        if message is None:
            # an integral float reads as its int
            assert res.returncode == 0, res.stderr
        else:
            assert res.returncode == 1
            assert f"error: layer {layer} gate 0: {message}" in res.stderr
            assert not rep.exists()

    @pytest.mark.parametrize("stages", [(), (2,)], ids=["no-rounds", "stage-2-only"])
    def test_rank_diagnostics_without_stage_1_rounds(self, tmp_path, stages):
        # no stage-1 round records no column: every rank is 0, and so is
        # the full-rank frequency
        circ = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli(*GEN_SMALL, "--out", str(circ))
        obj = read_json(circ)
        obj["metadata"]["rounds"] = [r for r in obj["metadata"]["rounds"] if r["stage"] in stages]
        assert len(obj["metadata"]["rounds"]) == 4 * len(stages)
        circ.write_text(json.dumps(obj))
        res = CliRunner().invoke(cli.cli, [
            "sim", "--circuit", str(circ), "--trials", "7", "--diagnostics", "rank", "--report", str(rep),
        ])
        assert res.exit_code == 0, (res.output, res.exception)
        results = read_json(rep)["results"]
        assert results["x_ranks"] == [0] * 7
        assert results["x_full_rank_frequency"] == 0.0

    def test_unreadable_circuit_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("sim", "--circuit", str(bad), "--report", str(tmp_path / "r.json"))
        assert res.returncode == 1


class TestRankMc:
    def test_json_report(self, tmp_path):
        out = tmp_path / "mc.json"
        res = run_cli(
            "rank-mc", "--rows", "4", "--cols", "16", "--p", "0.25",
            "--trials", "500", "--seed", "2", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        obj = read_json(out)
        assert obj["config"]["rows"] == 4
        assert 0.9 < obj["results"]["estimate"] <= 1.0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "mc.csv"
        run_cli(
            "rank-mc", "--rows", "2", "--cols", "2", "--p", "0.5",
            "--trials", "400", "--seed", "2", "--format", "csv", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "rows,cols,p,trials,estimate,ci_lo,ci_hi,seed"
        assert len(lines) == 2

    @pytest.mark.parametrize(
        "rows,cols,estimate", [(0, 5, 1.0), (2, 0, 0.0), (5, 3, 0.0)], ids=["no-rows", "no-cols", "rows-past-cols"]
    )
    def test_zero_size_and_tall_shapes(self, tmp_path, rows, cols, estimate):
        # no rows is full row rank; more rows than columns never is
        out = tmp_path / "mc.json"
        res = CliRunner().invoke(cli.cli, [
            "rank-mc", "--rows", str(rows), "--cols", str(cols), "--p", "0.5", "--trials", "50", "--out", str(out),
        ])
        assert res.exit_code == 0, (res.output, res.exception)
        assert read_json(out)["results"]["estimate"] == estimate

    def test_threads_reproduce_single_process(self, monkeypatch, tmp_path, pools):
        # rank-mc runs on every core of the affinity mask; in this process,
        # so that the patched core count reaches it
        reports = []
        for cores in (1, 3):
            monkeypatch.setattr(drivers, "_core_count", lambda: cores)
            out = tmp_path / f"mc{cores}.json"
            res = CliRunner().invoke(cli.cli, [
                "rank-mc", "--rows", "3", "--cols", "8", "--p", "0.3", "--trials", "600", "--seed", "4",
                "--out", str(out),
            ])
            assert res.exit_code == 0, (res.output, res.exception)
            reports.append(out.read_bytes())
        assert pools == [3]
        assert reports[0] == reports[1]


def _killed_span(span):
    """A rank-mc span whose worker process is killed."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def forking(monkeypatch, pools):
    """Two cores and spans of one block, so that small runs fork; the
    size of every pool started (``pools``)."""
    monkeypatch.setattr(drivers, "_core_count", lambda: 2)
    monkeypatch.setattr(drivers, "_SPAN_BLOCKS", 1)
    return pools


class TestWorkers:
    """Commands that run their trials in a process pool."""

    @pytest.mark.parametrize(
        "args",
        [
            ["--suite", "bits", "--n", "16", "--k", "6", "--t", "2", "--alpha", "4", "--m", "2",
             "--trials", "1000", "--seed", "5"],
            ["--suite", "signs", "--n", "16", "--t", "4", "--alpha", "4", "--m", "2", "--p", "4",
             "--trials", "10000", "--seed", "6"],
            ["--suite", "subsets", "--algorithm", "depth-opt", "--n", "16", "--k", "8", "--t", "4",
             "--alpha", "4", "--m", "2", "--trials", "300", "--seed", "5"],
        ],
        ids=["bits", "signs", "subsets"],
    )
    def test_verify_forks_and_writes_the_one_worker_bytes(self, monkeypatch, tmp_path, forking, args):
        reports = []
        for cores in (1, 2):
            monkeypatch.setattr(drivers, "_core_count", lambda: cores)
            rep = tmp_path / f"v{cores}.json"
            res = CliRunner().invoke(cli.cli, ["verify", *args, "--report", str(rep)])
            assert res.exit_code == 0, (res.output, res.exception)
            reports.append(rep.read_bytes())
        assert forking == [2]
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_failing_verify_leaves_no_worker(self, monkeypatch, capsys, tmp_path, forking):
        # 2 rounds cannot thermalize; marginal bias fails under --strict.
        # Blocks of 72 of its 14-word trials make spans.
        monkeypatch.setattr(drivers, "_BLOCK_CELLS", 1000)
        code, err = run_main(
            monkeypatch, capsys, "verify", "--suite", "bits", "--n", "16", "--k", "6", "--t", "2",
            "--alpha", "1.0", "--m", "2", "--trials", "1000", "--seed", "5", "--strict",
            "--report", str(tmp_path / "v.json"),
        )
        assert (code, forking) == (2, [2])
        assert "strict check failed" in err
        assert multiprocessing.active_children() == []

    def test_worker_error_exits_1(self, monkeypatch, capsys, tmp_path, forking):
        def broken(*args, **kwargs):
            raise ValueError("no program in this worker")

        # only the workers draw programs: the parent checks the stage table
        monkeypatch.setattr(drivers, "sign_program", broken)
        rep = tmp_path / "v.json"
        code, err = run_main(
            monkeypatch, capsys, "verify", "--suite", "signs", "--n", "16", "--t", "4", "--alpha", "4",
            "--m", "2", "--p", "4", "--trials", "10000", "--seed", "6", "--report", str(rep),
        )
        assert (code, forking) == (1, [2])
        assert "error: no program in this worker" in err
        assert "Traceback" not in err
        assert not rep.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_1_with_a_message(self, monkeypatch, capsys, tmp_path, forking):
        monkeypatch.setattr(drivers, "_mc_rank_span", _killed_span)
        out = tmp_path / "mc.json"
        code, err = run_main(
            monkeypatch, capsys, "rank-mc", "--rows", "3", "--cols", "8", "--p", "0.3", "--trials", "600",
            "--out", str(out),
        )
        assert (code, forking) == (1, [2])
        assert "error: a worker process died" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_rank_mc_checks_p_before_the_pool(self, monkeypatch, capsys, tmp_path, forking):
        code, err = run_main(
            monkeypatch, capsys, "rank-mc", "--rows", "3", "--cols", "8", "--p", "1.5", "--trials", "600",
            "--out", str(tmp_path / "mc.json"),
        )
        assert (code, forking) == (1, [])
        assert "error: p must lie in [0, 1]" in err


class TestBounds:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "bounds.csv"
        res = run_cli(
            "bounds", "--p", "0.25", "--l", "4,6", "--m", "24", "--epsilon", "0.5",
            "--trials", "300", "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ("p,l,m,epsilon,bound_closed,bound_sequential,"
                            "mc_estimate,mc_ci_lo,mc_ci_hi,trials,seed")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[4]) <= 1.0 and float(row[6]) <= 1.0


class TestVerify:
    def test_bits_suite(self, tmp_path):
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "bits", "--n", "16", "--k", "6", "--t", "2",
            "--alpha", "16.0", "--m", "2", "--trials", "1000", "--seed", "5",
            "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        obj = read_json(rep)
        names = {r["name"] for r in obj["results"]}
        assert {"marginal_bias", "pairwise_xor", "condition_matrix_full_rank",
                "distinctness"} <= names
        assert all(r["passed"] for r in obj["results"])

    def test_strict_failing_suite_exits_2(self, tmp_path):
        # 2 rounds cannot thermalize; marginal bias must fail
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "bits", "--n", "16", "--k", "6", "--t", "2",
            "--alpha", "1.0", "--m", "2", "--trials", "1000", "--seed", "5",
            "--strict", "--report", str(rep),
        )
        assert res.returncode == 2
        obj = read_json(rep)
        assert any(not r["passed"] for r in obj["results"])

    def test_signs_suite(self, tmp_path):
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "signs", "--n", "16", "--t", "4", "--alpha", "4.0",
            "--m", "1", "--p", "16", "--trials", "10000", "--seed", "6",
            "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        obj = read_json(rep)
        assert obj["results"][0]["name"] == "sign_vector"
        assert obj["results"][0]["passed"]

    def test_signs_suite_default_trials(self, tmp_path):
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "signs", "--n", "16", "--t", "4", "--alpha", "4.0",
            "--m", "1", "--p", "16", "--seed", "6", "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        obj = read_json(rep)
        assert obj["config"]["trials"] == 10_000
        assert obj["results"][0]["samples"] == 10_000

    def test_bits_suite_default_trials(self, tmp_path):
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "bits", "--n", "16", "--k", "6", "--t", "2",
            "--alpha", "1.0", "--m", "2", "--seed", "5", "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        assert read_json(rep)["config"]["trials"] == 2000

    def test_subsets_suite_falls_back_to_collisions(self, tmp_path):
        # binom(2^16, 4) is far past the enumerable 10^5 subsets
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "subsets", "--n", "16", "--k", "8", "--t", "4",
            "--alpha", "16.0", "--m", "2", "--trials", "300", "--seed", "5",
            "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        [r] = read_json(rep)["results"]
        assert r["name"] == "subset_collision"
        assert r["passed"]

    def test_signs_suite_checks_trials_before_running(self, tmp_path):
        # m*p = 80 > n fails as soon as a trial draws its circuit, so
        # getting the trials message shows the check runs before any trial
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "signs", "--n", "70", "--t", "4", "--alpha", "4.0",
            "--m", "2", "--p", "40", "--trials", "50", "--seed", "6",
            "--report", str(rep),
        )
        assert res.returncode == 1
        assert "sign vector test needs at least 10^4 trials" in res.stderr
        assert "Traceback" not in res.stderr
        assert not rep.exists()

    @pytest.mark.parametrize(
        "trials,t,message",
        [
            ("50", "4", "marginal bias test needs at least 1000 trials"),
            ("1000", "1", "need at least two copies for pairwise tests"),
        ],
    )
    def test_bits_suite_checks_its_inputs_before_running(self, tmp_path, trials, t, message):
        # m = 3 > n - k = 2 fails as soon as a gate-opt trial draws its
        # circuit, so getting the floor message shows the check runs first
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", "bits", "--n", "16", "--k", "14", "--t", t, "--alpha", "4.0",
            "--m", "3", "--trials", trials, "--seed", "6", "--report", str(rep),
        )
        assert res.returncode == 1
        assert message in res.stderr
        assert "Traceback" not in res.stderr
        assert not rep.exists()

    @pytest.mark.parametrize(
        "suite,trials", [("subsets", "-5"), ("subsets", "0"), ("bits", "-1"), ("signs", "0")]
    )
    def test_nonpositive_trials_exit_1_naming_the_flag(self, tmp_path, suite, trials):
        # m = 3 > n - k = 2 fails as soon as a bit trial draws its circuit,
        # so getting the flag's message shows the check runs first
        rep = tmp_path / "v.json"
        res = run_cli(
            "verify", "--suite", suite, "--n", "16", "--k", "14", "--p", "4", "--t", "4",
            "--alpha", "4.0", "--m", "3", "--trials", trials, "--seed", "6", "--report", str(rep),
        )
        assert res.returncode == 1
        assert "--trials" in res.stderr
        assert "Traceback" not in res.stderr
        assert not rep.exists()


class TestScaling:
    def test_csv_schema_and_exactness(self, tmp_path):
        out = tmp_path / "scaling.csv"
        res = run_cli(
            "scaling", "--grid", "n=64,128;t=4;k=16;alpha=4;m=2",
            "--algorithm", "depth-opt", "--seed", "3", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ("algorithm,n,k,t,alpha,m,gates,unit_depth,decomposed_depth,"
                            "predicted_gates,predicted_depth,seed")
        assert len(lines) == 3
        from subsetphase.analysis import predicted_cost

        for line in lines[1:]:
            row = line.split(",")
            n = int(row[1])
            assert int(row[7]) == predicted_cost("depth-opt", n, 16, 4, 4.0, 2).unit_depth

    def test_grid_requires_n_and_t(self, tmp_path):
        res = run_cli("scaling", "--grid", "n=64", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "grid,named",
        [
            ("n=64;t=4;p=4,8;alpah=3", ["alpah"]),
            ("n=64;t=4;m=2;p=4,8", ["p=4,8"]),
            ("n=64;t=4;m=2;p=", ["p="]),
            ("n=64;t=4;K=16;steps=2", ["K", "steps"]),
            # the sign thermalizer has no k
            ("n=64;t=4;k=16,32", ["grid name k", "sign"]),
        ],
    )
    def test_grid_rejects_unknown_names_and_several_p(self, tmp_path, grid, named):
        out = tmp_path / "x.csv"
        res = run_cli("scaling", "--grid", grid, "--algorithm", "sign", "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        for name in named:
            assert name in res.stderr
        assert not out.exists()


    @pytest.mark.parametrize("grid,named", [
        ("n=256;t=4;m=0", "m=0"), ("n=0;t=4", "n=0"), ("n=64;t=0", "t=0"), ("n=64;t=4;m=-2", "m=-2"),
    ])
    def test_grid_rejects_counts_below_one(self, tmp_path, grid, named):
        out = tmp_path / "x.csv"
        res = run_cli("scaling", "--grid", grid, "--algorithm", "sign", "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "Error:" in res.stderr and f"grid value {named} must be at least 1" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm,grid,key",
        [
            ("depth-opt", "n=abc;t=4", "n"),
            ("depth-opt", "n=64;t=abc", "t"),
            ("depth-opt", "n=64;t=4;k=abc", "k"),
            ("depth-opt", "n=64;t=4;m=abc", "m"),
            ("sign", "n=64;t=4;p=abc", "p"),
            ("depth-opt", "n=64;t=4;alpha=abc", "alpha"),
        ],
        ids=["n", "t", "k", "m", "p", "alpha"],
    )
    def test_grid_names_the_key_of_a_non_number(self, tmp_path, algorithm, grid, key):
        out = tmp_path / "x.csv"
        res = run_cli("scaling", "--grid", grid, "--algorithm", algorithm, "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"grid value {key}=abc is not" in res.stderr, res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("algorithm", ["depth-opt", "sign"])
    def test_grid_rejects_non_finite_alpha(self, tmp_path, algorithm, alpha):
        out = tmp_path / "x.csv"
        res = run_cli("scaling", "--grid", f"n=128;t=4;alpha={alpha}", "--algorithm", algorithm, "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"error: alpha must be positive and finite, got {alpha}" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["gate-opt", "depth-opt"])
    def test_grid_rejects_p_for_bit_thermalizers(self, tmp_path, algorithm):
        out = tmp_path / "x.csv"
        res = run_cli("scaling", "--grid", "n=64;t=4;k=16;p=4", "--algorithm", algorithm, "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "grid name p" in res.stderr and algorithm in res.stderr
        assert not out.exists()


class TestMoments:
    def test_algorithm_baseline_report(self, tmp_path):
        rep = tmp_path / "m.json"
        res = run_cli(
            "moments", "--n", "4", "--k", "2", "--t", "1", "--samples", "400",
            "--alpha", "8.0", "--m", "2", "--alpha-sign", "8.0", "--m-sign", "2",
            "--p-sign", "2", "--seed", "9", "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        results = read_json(rep)["results"]
        assert 0.0 <= results["td_empirical"] <= 1.0
        assert 0.0 <= results["td_oracle_baseline"] <= 1.0

    def test_oracle_baseline_null_comparison(self, tmp_path):
        rep = tmp_path / "m.json"
        res = run_cli(
            "moments", "--n", "4", "--k", "2", "--t", "1", "--samples", "400",
            "--seed", "9", "--baseline", "oracle", "--report", str(rep),
        )
        assert res.returncode == 0, res.stderr
        results = read_json(rep)["results"]
        # two independent oracle runs: close but not identical
        assert abs(results["td_empirical"] - results["td_oracle_baseline"]) < 0.1

    def test_t3_below_d_sym(self, tmp_path):
        # 200 samples against d_sym = binom(66, 3) = 45760: the 200 x 200 Gram side
        rep = tmp_path / "m.json"
        res = run_cli("moments", "--n", "6", "--k", "4", "--t", "3", "--samples", "200",
                      "--report", str(rep))
        assert res.returncode == 0, res.stderr
        results = read_json(rep)["results"]
        for key in ("td_empirical", "td_oracle_baseline"):
            assert 0.0 < results[key] <= 1.0
            assert results[key] >= 1.0 - 200 / 45760 - 1e-12

    def test_over_guard_exits_1(self, tmp_path):
        rep = tmp_path / "m.json"
        res = run_cli("moments", "--n", "6", "--k", "4", "--t", "3", "--samples", "5000",
                      "--report", str(rep))
        assert res.returncode == 1
        assert "over the cap" in res.stderr
        assert "Traceback" not in res.stderr
        assert not rep.exists()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Fixed-seed artifacts as (command, digest under the first stream layout,
# digest now).  The ``bounds`` and ``rank-mc`` CSVs read no generator
# stream and embed no ``RNG_KIND``, so their two digests agree.
_BITS = ["verify", "--suite", "bits", "--n", "20", "--k", "8", "--t", "4", "--alpha", "4",
         "--m", "2", "--trials", "1000", "--seed", "11"]
BITS_REPORTS = [
    (_BITS + ["--algorithm", "gate-opt"],
     "38d4b52fa85d3a0a95b001d89bf1b7766a32a14eedadbc7446c275dff4860b4c",
     "a157a531dd5c214c77b445a0a23715cc6bbebe738cd1d2e700d42d52c52524aa"),
    (_BITS + ["--algorithm", "depth-opt"],
     "150655447b5224d0bb54e5b8d2b35bbcfe6d42928d4a62a93d150cd96bcf1d64",
     "6177f08c7e6370aeb230c5dc3c199c5c43919b3ad5258a339f2ba59d3760ec6c"),
    # two words per copy
    (["verify", "--suite", "bits", "--algorithm", "gate-opt", "--n", "70", "--k", "10",
      "--t", "4", "--alpha", "2", "--m", "3", "--trials", "1000", "--seed", "13"],
     "864ca675fd37bfb88cf81ad5712941935e5d02b850db1928d4920ddad7216be6",
     "f3c6ecf22f11895d32d24ba06ee3b39f20638f889b126ff1bc2c87d4a46c8843"),
    (["verify", "--suite", "bits", "--algorithm", "depth-opt", "--n", "70", "--k", "10",
      "--t", "4", "--alpha", "2", "--m", "3", "--trials", "1000", "--seed", "13"],
     "62943a1ad7bb4f3676be7b1cd0010a63cc822063e4d62906046df00506a2a6ef",
     "810bf015871af612f4969e2bba81088be81a2d311e499341d9aea3cdbf9aef4d"),
]
# the output path is the last argument
WRITTEN_FILES = [
    (["gen", "--algorithm", "gate-opt", "--n", "40", "--k", "12", "--t", "4",
      "--alpha", "3", "--m", "2", "--seed", "5", "--out"],
     "4231e2eb370c8560ad196a9ce83b70c7b57166325e057ecb5a68e431568ef1b6",
     "7a2d870a5e2533cf62941f9e1b361cf4a7e77f34e2d36b1dd0aafc147ededb51"),
    (["scaling", "--grid", "n=64,128;t=4,8;k=16", "--algorithm", "gate-opt",
      "--seed", "3", "--out"],
     "9b00c7b5411a440d7736229d46066b3d576088a07b368abb84a38c5ecea5c4aa",
     "622ca914975c5a80231c1f35cfae8da23e02125950c697fa1a704ad8b228c417"),
    (["bounds", "--p", "0.25", "--l", "4,6", "--m", "24", "--epsilon", "0.5",
      "--trials", "300", "--seed", "1", "--out"],
     "69dd319bc68ec03061c363dc942f5a54c0cf83e74222759a221e38926df2d56c",
     "69dd319bc68ec03061c363dc942f5a54c0cf83e74222759a221e38926df2d56c"),
    (["rank-mc", "--rows", "3", "--cols", "8", "--p", "0.3", "--trials", "600",
      "--seed", "4", "--format", "csv", "--out"],
     "aae18663d62b5914e4fbbb40d418daba28d0a4488502f0708e418b3491bf6795",
     "aae18663d62b5914e4fbbb40d418daba28d0a4488502f0708e418b3491bf6795"),
    (["gen", "--algorithm", "sign", "--n", "24", "--p", "4", "--m", "3", "--t", "4",
      "--alpha", "3", "--seed", "5", "--out"],
     "f7a5d893e1a0fdab86333d9b32a0848fecf2359158e76a69c5397976866c84c3",
     "d5b7f11d217ec0547e9ee992ef3f603963c7b22f8f2cd42c1881973091135d30"),
    (["verify", "--suite", "signs", "--n", "16", "--t", "4", "--alpha", "4", "--m", "2",
      "--p", "4", "--trials", "10000", "--seed", "6", "--report"],
     "b4ea005f1bb8cfae79de315942347e01d77d5abb7d37cb533877fec27ed7d828",
     "a5ef7f48eb3d611c31c231a9ff3c0beda92d2371d276d1d1b8b5601b927d94ca"),
    # two words per copy, and sites past 64 in the sign window
    (["verify", "--suite", "signs", "--n", "70", "--t", "4", "--alpha", "8", "--m", "3",
      "--p", "8", "--trials", "10000", "--seed", "12", "--report"],
     "8bd4d6283846cf423a3ee07d4aa28e32135f5a572f97ee89b9766003dd04a4f8",
     "42c5b34766d325fe33394dbd69862ee38144bf02e8c65dab9dc9d25b944e0156"),
    (["moments", "--n", "4", "--k", "2", "--t", "1", "--samples", "200", "--alpha", "8.0",
      "--m", "2", "--alpha-sign", "8.0", "--m-sign", "2", "--p-sign", "2", "--seed", "3",
      "--report"],
     "527e67abb216b5d46f6d451af33b22fef60d4737af8aebe899a3a171dc76026d",
     "844c37eb74a7f7e3ab34bdb70cac41fe707bcb38258a75f664fb7d0237f66b55"),
    (["scaling", "--grid", "n=64,128;t=4,8;k=16", "--algorithm", "depth-opt",
      "--seed", "3", "--out"],
     "af72e8f201fa7df2dca0599d2beb718bad487138f4c3ced549d1a28af7dcc5bd",
     "e5132ec2e008cce472e4cd4ca5f94aaa2b0b7c7810f02c52985a5cd81cc11d2c"),
    (["scaling", "--grid", "n=64,128;t=4,8", "--algorithm", "sign", "--seed", "3", "--out"],
     "a64d82d5e949927d51c2b790b9f49ffdbd200695e5f709d0ea53491d2a9265fa",
     "feb4046505cdce615a70830cc7db97047b7f4fdf7e5f1f43c79052e8f1861902"),
    # N < d_sym: the distances read their floor, and the bytes carry the
    # samples only through eigensolver roundoff
    (["moments", "--n", "6", "--k", "4", "--t", "2", "--samples", "200", "--seed", "5",
      "--report"],
     "e49f43abf0de4001136a83a2cd69008d4f954f0affe8f25adb5fe0fe42336924",
     "ed021bad666c96e2c40610da3a31bd1f99ee1750b178e2f921208cf63331f65c"),
    (["moments", "--n", "6", "--k", "4", "--t", "3", "--samples", "200", "--seed", "5",
      "--report"],
     "f1738a747155488fececc8c1772c97face23a40bdb33348d3bd5ff5e88122832",
     "9785a47a0d33c84296f6c4b652f44c49850c6152b5dc09d24b1cd05623fc65f3"),
    # N > d_sym = 136: the accumulated moment
    (["moments", "--n", "4", "--k", "2", "--t", "2", "--samples", "200", "--m-sign", "2",
      "--seed", "5", "--report"],
     "556742f6857291c6e0fc9b9ffb364e93a6d0cf55c1a3cdef061984cb11b0a2f2",
     "5841f17e6e31b309f3b6c6946278d365296348dc1e1f0cbe5d3aee5c9c81ddc5"),
    # three words per copy
    (["gen", "--algorithm", "depth-opt", "--n", "128", "--k", "24", "--t", "4", "--alpha", "2",
      "--m", "2", "--seed", "7", "--out"],
     "6747962e12b5c354dde8a87f673ce1dc5fb97af5996c181b40afbbdcc9d78ee6",
     "cab9598a66bebde1a31089bdac8b25acdb3e3b44c26fd0f6d37bb1e9399e8653"),
]
# (circuit file name, gen arguments, sim arguments, digests)
SIM_REPORTS = [
    # three words per copy
    ("dopt.json", ["--algorithm", "depth-opt", "--n", "128", "--k", "24", "--t", "4", "--alpha", "2",
      "--m", "2", "--seed", "7"],
     ["--trials", "10", "--seed", "8"],
     "b2d0f8f71cc73af02336677ad5c1387da73d8694b9f95bfdcb4c85babe1d1443",
     "1934f987bd46e2d92686f817e81aab5c2dc728f7f2e3bbd789038266b1c049e0"),
    ("gopt.json", ["--algorithm", "gate-opt", "--n", "70", "--k", "10", "--t", "4", "--alpha", "2",
      "--m", "3", "--seed", "9"],
     ["--trials", "10", "--seed", "10", "--diagnostics", "rank"],
     "eb71226a4c0722fd780627e890c4e297e13aac268aa877a2ca976e838ccff0f4",
     "3a99643b92cf5a9c18400c4da47b425ca6681259a5b5a602bc31f4478eb40945"),
    ("sign.json", ["--algorithm", "sign", "--n", "24", "--p", "4", "--m", "3", "--t", "4",
      "--alpha", "3", "--seed", "5"],
     ["--trials", "10", "--seed", "11"],
     "7dfa48c9b83a69111c054f7b4e1c60801c80b27d1f0b64130a9a4c5f166d79d3",
     "282386d1770b9e4e51466a515e45ec45a97e4f8cce8a3bf3f0b2f8f414ba364d"),
]


def first_layout_cases(table):
    return [case[:-1] for case in table]


def current_cases(table):
    return [case[:-2] + case[-1:] for case in table]


def run_cli_in_process(*args):
    # in this process, so that the ``first_layout`` fixture's draws are
    # the ones the command runs
    res = CliRunner().invoke(cli.cli, list(args))
    assert res.exit_code == 0, (res.output, res.exception)


class TestPinnedBytes:
    """Fixed-seed artifacts pinned by SHA-256.

    The ``*_v2`` tests pin the current bytes, re-recorded when every
    generator stage got its own stream, read in three whole blocks
    (``RNG_KIND`` ending in ``gen-stage-blocks-v2``).  The others run the
    command in-process with the first stream layout put back in place of
    the draw functions (the ``first_layout`` fixture) and pin the bytes
    recorded under that layout: everything downstream of the draws (the
    programs, kernels, batteries and writers) must still reproduce them.
    A change here means the random streams or the report layout moved."""

    @pytest.mark.parametrize("args,digest", first_layout_cases(BITS_REPORTS))
    def test_verify_bits_report(self, tmp_path, first_layout, args, digest):
        rep = tmp_path / "v.json"
        run_cli_in_process(*args, "--report", str(rep))
        assert sha256(rep) == digest

    @pytest.mark.parametrize("args,digest", current_cases(BITS_REPORTS))
    def test_verify_bits_report_v2(self, tmp_path, args, digest):
        rep = tmp_path / "v.json"
        res = run_cli(*args, "--report", str(rep))
        assert res.returncode == 0, res.stderr
        assert sha256(rep) == digest

    @pytest.mark.parametrize("args,digest", first_layout_cases(WRITTEN_FILES))
    def test_written_file(self, tmp_path, first_layout, args, digest):
        out = tmp_path / "out"
        run_cli_in_process(*args, str(out))
        assert sha256(out) == digest

    @pytest.mark.parametrize("args,digest", current_cases(WRITTEN_FILES))
    def test_written_file_v2(self, tmp_path, args, digest):
        out = tmp_path / "out"
        res = run_cli(*args, str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == digest

    @pytest.mark.parametrize("name,gen_args,sim_args,digest", first_layout_cases(SIM_REPORTS))
    def test_sim_report(self, tmp_path, first_layout, name, gen_args, sim_args, digest):
        # the report names the circuit file
        circuit = tmp_path / name
        run_cli_in_process("gen", *gen_args, "--out", str(circuit))
        rep = tmp_path / "r.json"
        run_cli_in_process("sim", "--circuit", str(circuit), *sim_args, "--report", str(rep))
        assert sha256(rep) == digest

    @pytest.mark.parametrize("name,gen_args,sim_args,digest", current_cases(SIM_REPORTS))
    def test_sim_report_v2(self, tmp_path, name, gen_args, sim_args, digest):
        circuit = tmp_path / name
        assert run_cli("gen", *gen_args, "--out", str(circuit)).returncode == 0
        rep = tmp_path / "r.json"
        res = run_cli("sim", "--circuit", str(circuit), *sim_args, "--report", str(rep))
        assert res.returncode == 0, res.stderr
        assert sha256(rep) == digest
