"""The benchmark's workloads: one subsetphase CLI command each.

Every workload fixes its shapes here, at a full size (the measured run)
and a smoke size (the self-test).  From the workload seed it derives the
seeds its commands receive, builds their argument lists and checks their
outputs.  Standard library only, so the launcher never imports numpy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from statistics import NormalDist

# Family-wise false-alarm rate of the checks this file adds on top of
# the program's own verdicts: a correct program fails one seed in 10^6.
CHECK_ALPHA = 1e-6


def derive(seed: int, *tags: str) -> int:
    """A 31-bit seed for one command, a pure function of (seed, tags)."""
    text = "/".join(["perfbench", str(seed), *tags]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") >> 1


def _z_bound(cells: int) -> float:
    return NormalDist().inv_cdf(1.0 - CHECK_ALPHA / (2.0 * cells))


def depth_opt_stage_count(n: int, k: int, m: int) -> int:
    """Growth stages of the staged thermalizer, counted independently of
    the program: the control region s grows by floor(s/m) until s >= n."""
    s, stages = k, 0
    while s < n:
        s += s // m
        stages += 1
    return stages


class Workload:
    """One CLI command with its shapes, argument list and output check."""

    name = ""
    shapes: dict[str, dict] = {}

    def units(self, shape: dict) -> int:
        return shape["trials"]

    def prepare(self, shape: dict, seed: int, circuit: str) -> list[str] | None:
        """CLI arguments that build the command's input file, if any."""
        return None

    def command(self, shape: dict, seed: int, report: str, circuit: str) -> list[str]:
        raise NotImplementedError

    def check(self, shape: dict, returncode: int, report: bytes) -> list[str]:
        """Problems with one run's output; empty when it is correct."""
        raise NotImplementedError


def _results(report: bytes):
    return json.loads(report)["results"]


def _exit_problem(returncode: int) -> list[str]:
    return [] if returncode == 0 else [f"exit code {returncode}"]


class BitsGateOpt(Workload):
    name = "bits-gateopt"
    shapes = {
        "full": dict(n=64, k=24, t=8, alpha=6, m=2, trials=1000),
        "smoke": dict(n=16, k=8, t=4, alpha=8, m=2, trials=1000),
    }

    def command(self, s, seed, report, circuit):
        return ["verify", "--suite", "bits", "--algorithm", "gate-opt",
                "--n", str(s["n"]), "--k", str(s["k"]), "--t", str(s["t"]),
                "--alpha", str(s["alpha"]), "--m", str(s["m"]),
                "--trials", str(s["trials"]), "--seed", str(derive(seed, self.name)),
                "--strict", "--report", report]

    def check(self, s, returncode, report):
        problems = _exit_problem(returncode)
        tests = {r["name"]: r for r in _results(report)}
        expected = {"marginal_bias", "pairwise_xor", "condition_matrix_full_rank", "distinctness"}
        if set(tests) != expected:
            problems.append(f"tests run: {sorted(tests)}")
        problems += [f"{name} failed" for name, r in tests.items() if not r["passed"]]
        problems += [f"{name} saw {r['samples']} trials" for name, r in tests.items()
                     if r["samples"] != s["trials"]]
        return problems


class SimWide(Workload):
    name = "sim-wide"
    shapes = {
        "full": dict(n=128, k=24, t=8, alpha=6, m=2, trials=20),
        "smoke": dict(n=72, k=12, t=4, alpha=4, m=2, trials=10),
    }

    def prepare(self, s, seed, circuit):
        return ["gen", "--algorithm", "depth-opt",
                "--n", str(s["n"]), "--k", str(s["k"]), "--t", str(s["t"]),
                "--alpha", str(s["alpha"]), "--m", str(s["m"]),
                "--seed", str(derive(seed, self.name, "gen")), "--out", circuit]

    def command(self, s, seed, report, circuit):
        return ["sim", "--circuit", circuit, "--trials", str(s["trials"]),
                "--seed", str(derive(seed, self.name)), "--report", report]

    def check(self, s, returncode, report):
        problems = _exit_problem(returncode)
        r = _results(report)
        if r["trials"] != s["trials"] or r["t"] != s["t"] or r["n"] != s["n"]:
            problems.append("report shape differs from the command's")
        if not r["distinct_all"]:
            problems.append("copies collided")
        cells = s["t"] * s["n"]
        if sum(len(row) for row in r["marginals"]) != cells:
            return problems + ["marginals have the wrong shape"]
        # One Bonferroni family: every (copy, bit) cell over the trials,
        # and every bit position pooled over the t copies.  At few trials
        # only the pooled tests can reject.
        z_crit = _z_bound(cells + s["n"])
        sigma = 0.5 / math.sqrt(s["trials"])
        worst = max(abs(f - 0.5) / sigma for row in r["marginals"] for f in row)
        if worst > z_crit:
            problems.append(f"marginal |z| {worst:.2f} exceeds {z_crit:.2f}")
        pooled_sigma = 0.5 / math.sqrt(s["t"] * s["trials"])
        pooled = [sum(col) / s["t"] for col in zip(*r["marginals"])]
        worst = max(abs(f - 0.5) / pooled_sigma for f in pooled)
        if worst > z_crit:
            problems.append(f"pooled marginal |z| {worst:.2f} exceeds {z_crit:.2f}")
        return problems


class Signs(Workload):
    name = "signs"
    shapes = {
        "full": dict(n=64, p=10, m=6, alpha=9, t=32, trials=10_000),
        "smoke": dict(n=16, p=4, m=3, alpha=6, t=8, trials=10_000),
    }

    def command(self, s, seed, report, circuit):
        return ["verify", "--suite", "signs",
                "--n", str(s["n"]), "--p", str(s["p"]), "--m", str(s["m"]),
                "--alpha", str(s["alpha"]), "--t", str(s["t"]),
                "--trials", str(s["trials"]), "--seed", str(derive(seed, self.name)),
                "--strict", "--report", report]

    def check(self, s, returncode, report):
        problems = _exit_problem(returncode)
        tests = _results(report)
        if [r["name"] for r in tests] != ["sign_vector"]:
            return problems + ["sign_vector did not run"]
        r = tests[0]
        if not r["passed"]:
            problems.append(f"sign_vector failed (p={r['p_value']})")
        if r["samples"] != s["trials"]:
            problems.append(f"sign_vector saw {r['samples']} trials")
        return problems


class Moments(Workload):
    name = "moments"
    shapes = {
        "full": dict(n=6, k=4, t=2, samples=200),
        "smoke": dict(n=6, k=4, t=1, samples=100),
    }

    def units(self, s):
        return s["samples"]

    def command(self, s, seed, report, circuit):
        return ["moments", "--n", str(s["n"]), "--k", str(s["k"]), "--t", str(s["t"]),
                "--samples", str(s["samples"]), "--seed", str(derive(seed, self.name)),
                "--report", report]

    def check(self, s, returncode, report):
        problems = _exit_problem(returncode)
        r = _results(report)
        excess = r["td_empirical"] - r["td_oracle_baseline"]
        # the criterion-7 rule
        if not excess <= 0.02:
            problems.append(f"td_empirical exceeds the oracle baseline by {excess:.4f}")
        if not all(0.0 < r[key] <= 1.0 for key in ("td_empirical", "td_oracle_baseline")):
            problems.append("a trace distance lies outside (0, 1]")
        if r["samples"] != s["samples"]:
            problems.append("report sample count differs from the command's")
        return problems


class Scaling(Workload):
    name = "scaling"
    shapes = {
        "full": dict(n=[256, 512, 1024, 2048, 4096, 8192], t=[4, 8, 16, 32], k=[64]),
        "smoke": dict(n=[64, 128], t=[4, 8], k=[16]),
    }

    def units(self, s):
        return len(s["n"]) * len(s["t"]) * len(s["k"])

    @staticmethod
    def grid(s) -> str:
        return ";".join(f"{key}={','.join(map(str, s[key]))}" for key in ("n", "t", "k"))

    def command(self, s, seed, report, circuit):
        return ["scaling", "--algorithm", "depth-opt", "--grid", self.grid(s),
                "--seed", str(derive(seed, self.name)), "--out", report]

    def check(self, s, returncode, report):
        problems = _exit_problem(returncode)
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        if len(rows) != self.units(s):
            problems.append(f"{len(rows)} grid points, expected {self.units(s)}")
        for row in rows:
            n, k, t, m = (int(row[key]) for key in ("n", "k", "t", "m"))
            rounds = math.ceil(float(row["alpha"]) * t)
            want = (depth_opt_stage_count(n, k, m) + 1) * rounds
            if int(row["unit_depth"]) != want:
                problems.append(f"n={n} t={t}: unit depth {row['unit_depth']}, expected {want}")
            if int(row["gates"]) <= 0:
                problems.append(f"n={n} t={t}: no gates")
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (BitsGateOpt(), SimWide(), Signs(), Moments(), Scaling())
}
