"""subsetphase benchmark: one seeded CLI command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  Each command runs in a fresh process, as users run it, in a
closed loop with one client.  With ``--trace 0`` the command is run
again and again at one seed for about S seconds (at least twice, so the
report bytes can be compared) and the end-to-end metrics are medians over
those runs.  With ``--trace 1`` the command runs once untraced and then
once as the traced replica (replica.py), whose report must equal the
command's byte for byte; the per-layer metrics come from its spans.
``--smoke`` runs every workload at a tiny size through its command,
output check and traced replica.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines record the
environment and each run.  Working files go to ``.perfbench/`` in the
checkout; the trace of a traced run is kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENTRY = HERE / "entry.py"
REPLICA = HERE / "replica.py"
OUT = ROOT / ".perfbench"
# Set-up is sampled at least this many times per run: the environment
# probe and the command launches count, import-only launches make up
# the rest.
MIN_SETUP_SAMPLES = 3
# Every process a run starts is killed this long after the run began.
DEADLINE_S = 170.0

END_TO_END = [
    ("trials_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def blas_threads() -> int:
    """Two BLAS threads, the count the baseline used, or fewer if fewer
    cores are available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Launch:
    """One finished process: when it started, how long it ran, when its
    imports finished, its peak memory and exit code."""

    def __init__(self, start: float, wall: float, usage, returncode: int, stderr: str):
        self.start = start
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_kb = usage.ru_maxrss
        self.returncode = returncode
        self.stderr = stderr
        self.setup: float | None = None

    @property
    def command_s(self) -> float:
        """Time after imports, up to exit."""
        return self.wall - self.setup


class Runner:
    """Starts processes in one working directory, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env()
        self.deadline = deadline
        self.launches = 0

    def run(self, argv: list[str]) -> Launch:
        self.launches += 1
        stderr_path = self.work / f"stderr-{self.launches}.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("the run's deadline passed")
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.send_signal, (signal.SIGKILL,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(start, end - start, usage, proc.returncode,
                      stderr_path.read_text(errors="replace")[-2000:])

    def cli(self, args: list[str]) -> Launch:
        """Run ``subsetphase ARGS``, or only import it when ARGS is empty.

        ``setup`` is the time from launch until the import finished, or
        None when the process never got that far."""
        mark = self.work / "import-mark"
        mark.unlink(missing_ok=True)
        launch = self.run([sys.executable, str(ENTRY), str(mark), *args])
        if mark.exists():
            launch.setup = float(mark.read_text()) - launch.start
        return launch


def source_digest() -> str:
    """SHA-256 over the paths and bytes of every .py file under src/, which
    names the code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(runner: Runner) -> tuple[dict, Launch]:
    """Versions, core and BLAS thread counts, the git revision and a digest
    of the sources, from an import-only launch (which also warms the
    bytecode cache)."""
    out = runner.work / "env.json"
    launch = runner.cli(["--env", str(out)])
    if launch.returncode != 0 or not out.exists():
        raise RuntimeError(f"cannot import subsetphase: {launch.stderr.strip()}")
    env = json.loads(out.read_text())
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads"] = blas_threads()
    try:
        env["git_revision"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_revision"] = "unknown (not a git checkout)"
    env["src_sha256"] = source_digest()
    print(json.dumps({"environment": env}))
    return env, launch


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def command_problems(workload, shape, launch: Launch, report: Path) -> list[str]:
    if launch.setup is None:
        return [f"exit code {launch.returncode} before imports: {launch.stderr.strip()}"]
    if not report.exists():
        return [f"exit code {launch.returncode}, no report: {launch.stderr.strip()}"]
    return workload.check(shape, launch.returncode, report.read_bytes())


def prepare(runner: Runner, workload, shape, seed, tally: Tally) -> str:
    circuit = runner.work / "circuit.json"
    args = workload.prepare(shape, seed, str(circuit))
    if args is not None:
        launch = runner.cli(args)
        tally.add([] if launch.returncode == 0 else [f"gen failed: {launch.stderr.strip()}"])
    return str(circuit)


def timed(runner: Runner, workload, shape, seed, seconds, tally: Tally) -> dict:
    """Untraced runs at one seed for about ``seconds``; medians of them."""
    _, env_launch = environment(runner)
    circuit = prepare(runner, workload, shape, seed, tally)
    report = runner.work / "report.out"
    launches: list[Launch] = []
    first: bytes | None = None
    start = time.perf_counter()
    while True:
        report.unlink(missing_ok=True)
        launch = runner.cli(workload.command(shape, seed, str(report), circuit))
        problems = command_problems(workload, shape, launch, report)
        if report.exists():
            data = report.read_bytes()
            if first is None:
                first = data
            elif data != first:
                problems.append("report bytes differ between two runs at one seed")
        tally.add(problems)
        launches.append(launch)
        elapsed = time.perf_counter() - start
        # stop where the run ends nearest ``seconds``: before a launch
        # that would finish more than half a launch past it
        if len(launches) >= 2 and elapsed * (1 + 0.5 / len(launches)) >= seconds:
            break
    setups = [x.setup for x in [env_launch, *launches] if x.setup is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        extra = runner.cli([])
        if extra.setup is None:
            tally.add([f"import failed: {extra.stderr.strip()}"])
            break
        setups.append(extra.setup)
    print(json.dumps({"runs": [
        {"wall_s": x.wall, "setup_s": x.setup, "cpu_s": x.cpu, "peak_rss_kb": x.rss_kb,
         "exit": x.returncode} for x in launches], "setup_s": setups}))
    ok = [x for x in launches if x.setup is not None]
    if not ok:
        return {}
    units = workload.units(shape)
    return {
        "trials_per_s": statistics.median(units / x.command_s for x in ok),
        "wall_s": statistics.median(x.wall for x in ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(x.rss_kb for x in ok) / 1024.0,
    }


def traced(runner: Runner, workload, shape_name, seed, tally: Tally, keep: Path) -> dict:
    """One untraced command, then the traced replica at the same seed."""
    environment(runner)
    shape = workload.shapes[shape_name]
    circuit = prepare(runner, workload, shape, seed, tally)
    report = runner.work / "report.out"
    launch = runner.cli(workload.command(shape, seed, str(report), circuit))
    tally.add(command_problems(workload, shape, launch, report))
    replica_report = runner.work / "replica.out"
    trace = runner.work / "trace.json"
    replica = runner.run([sys.executable, str(REPLICA), "--workload", workload.name,
                          "--shape", shape_name, "--seed", str(seed),
                          "--report", str(replica_report), "--trace", str(trace),
                          "--circuit", circuit])
    if replica.returncode != 0 or not trace.exists():
        tally.add([f"replica exit code {replica.returncode}: {replica.stderr.strip()}"])
        return {}
    same = (report.exists() and replica_report.exists()
            and report.read_bytes() == replica_report.read_bytes())
    tally.add([] if same else ["replica report differs from the command's"])
    shutil.copyfile(trace, keep)
    data = json.loads(trace.read_text())
    if launch.setup is None:
        return {}
    return layer_metrics(data, launch.command_s)


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def smoke() -> int:
    """Every workload at its smoke size: command twice, check, replica."""
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    work = OUT / f"smoke-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(work, time.monotonic() + 600.0)
        for name, workload in WORKLOADS.items():
            before = tally.failed
            shape = workload.shapes["smoke"]
            timed(runner, workload, shape, 1, 0.0, tally)
            traced(runner, workload, "smoke", 1, tally, OUT / f"trace-smoke-{name}.json")
            print(json.dumps({"workload": name, "failed": tally.failed - before}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(result_line(tally, {}, {}))
    return 0 if tally.failed == 0 else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "subsetphase" / "cli.py").is_file():
        print(f"no subsetphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    try:
        runner = Runner(work, time.monotonic() + DEADLINE_S)
        if args.trace:
            keep = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics = traced(runner, workload, "full", args.seed, tally, keep)
            units = dict(PER_LAYER)
        else:
            metrics = timed(runner, workload, workload.shapes["full"], args.seed,
                            args.seconds, tally)
            units = dict(END_TO_END)
    except (TimeoutError, RuntimeError) as e:
        print(f"run abandoned: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    if set(metrics) != set(units):
        tally.add(["metrics missing from the run"])
        metrics = {}
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
