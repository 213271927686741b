"""Command line interface: gen / sim / rank-mc / bounds / moments /
verify / scaling.

Every artifact embeds the tool version, the full configuration, the
master seed, and the stream-derivation scheme, and is written atomically
(temp file + rename), so re-running an embedded config reproduces the
artifact byte for byte.

Exit codes: 0 success, 1 I/O or parameter errors or a worker process
that died, 2 failed strict-mode checks (premise violations or failed
statistical tests under --strict).
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import click
import numpy as np

from . import __version__, analysis, drivers, stats
from .circuit import (
    DECOMPOSED,
    UNIT,
    depth,
    int_value,
    load_circuit,
    save_circuit,
    validate,
    write_json_atomic,
    write_text_atomic,
)
from .copysim import compile_circuit, distinct, pack_bits, round_probes, sample_initial_block, unpack_bits, words_needed
from .f2linalg import RankBoundParams, full_rank_probability_bound, full_rank_probability_sequential, ranks
from .generators import (
    GenParams,
    depth_opt_cost_profile,
    depth_opt_thermalizer,
    gate_opt_cost_profile,
    gate_opt_thermalizer,
    sign_cost_profile,
    sign_thermalizer,
)
from .rng import RNG_KIND, TrialStreams, derive_seed


# ``verify --trials`` defaults; the sign test refuses fewer than 10^4
VERIFY_TRIALS = 2000
SIGN_VERIFY_TRIALS = 10_000


class StrictFailure(Exception):
    """Raised by --strict runs whose checks did not pass; maps to exit 2."""


def tool_info() -> dict:
    return {"name": "subsetphase", "version": __version__, "rng": RNG_KIND}


def _report_payload(config: dict, results: dict) -> dict:
    return {"tool": tool_info(), "config": config, "results": results}


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_number_list(text: str, cast) -> list:
    try:
        return [cast(part) for part in text.split(",") if part]
    except ValueError as e:
        raise click.BadParameter(str(e))


def _check_premises(regime: str | None, strict: bool, **params) -> list[str]:
    if regime is None:
        return []
    violations = analysis.premise_check(regime, **params)
    for msg in violations:
        click.echo(f"premise [{regime}]: {msg}", err=True)
    if violations and strict:
        raise StrictFailure(f"{len(violations)} premise violation(s) under --strict")
    return violations


@click.group()
@click.version_option(__version__)
def cli():
    """Random multi-controlled circuit generation, simulation, and
    statistical verification."""


@cli.command()
@click.option("--algorithm", type=click.Choice(["gate-opt", "depth-opt", "sign"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None, help="Subset exponent (bit thermalizers).")
@click.option("--t", type=int, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--m", type=int, required=True)
@click.option("--p", type=int, default=None, help="Parallel slots per layer (sign only).")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--regime", type=click.Choice(analysis.REGIMES), default=None,
              help="Check parameters against this regime's premises.")
@click.option("--strict", is_flag=True, help="Exit 2 on premise violations.")
def gen(algorithm, n, k, t, alpha, m, p, seed, out, regime, strict):
    """Generate a circuit and write it as canonical JSON."""
    _check_premises(regime, strict, n=n, k=k, t=t, alpha=alpha, m=m, p=p)
    if algorithm == "sign":
        if p is None:
            raise click.UsageError("sign generation requires --p")
        circuit = sign_thermalizer(n, p, alpha, t, m, seed=seed)
    else:
        if k is None:
            raise click.UsageError(f"{algorithm} generation requires --k")
        gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=seed)
        circuit = gate_opt_thermalizer(gp) if algorithm == "gate-opt" else depth_opt_thermalizer(gp)
    save_circuit(out, circuit, tool_info())
    click.echo(
        f"wrote {out}: {circuit.gate_count} gates, "
        f"unit depth {depth(circuit, UNIT)}, decomposed depth {depth(circuit, DECOMPOSED)}"
    )


@cli.command()
@click.option("--circuit", "circuit_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0)
@click.option("--t", "t_override", type=int, default=None, help="Override the copy count.")
@click.option("--diagnostics", type=click.Choice(["none", "rank"]), default="none", show_default=True)
@click.option("--report", type=click.Path(dir_okay=False), required=True)
def sim(circuit_path, trials, seed, t_override, diagnostics, report):
    """Simulate a circuit file on fresh t-copy ensembles per trial."""
    circuit = load_circuit(circuit_path)
    problems = validate(circuit)
    if problems:
        raise click.ClickException(f"circuit file is malformed: {problems[0]}")
    n = circuit.n
    k = int_value(circuit.params, "k", n)
    t = t_override if t_override is not None else int_value(circuit.params, "t", 1)
    probes = None
    if diagnostics == "rank":
        if "rounds" not in circuit.extra:
            raise click.ClickException("--diagnostics rank needs a circuit with recorded rounds")
        probes = round_probes(circuit, stage=1)
    W = words_needed(n)
    program = compile_circuit(circuit.layers, W, probes or ())

    def draw(lo: int, hi: int):
        copies = sample_initial_block(n, k, t, TrialStreams(seed, "sim-copies", lo, hi))
        return None, copies, np.ones((hi - lo, t), dtype=np.int8)

    bit_totals = np.zeros((t, n), dtype=np.int64)
    x_ranks: list[int] = []
    flags: list[bool] = []
    sign_flip_rate = 0.0
    for _, copies, signs, recorded in drivers.run_blocks(0, trials, draw, t * W, shared=program):
        if probes is not None:
            x_ranks += ranks(pack_bits(recorded)).tolist()
        bit_totals += unpack_bits(copies, n).sum(axis=0, dtype=np.int64)
        flags += distinct(copies).tolist()
        # added one trial at a time, in trial order: the float sum, and so
        # the report's bytes, depend on the order
        for rate in (signs < 0).mean(axis=1).tolist():
            sign_flip_rate += rate
    results = {
        "trials": trials,
        "n": n,
        "k": k,
        "t": t,
        "marginals": (bit_totals / trials).tolist(),
        "distinct_all": all(flags),
        "distinct_per_trial": flags,
        "sign_flip_rate": sign_flip_rate / trials,
    }
    if probes is not None:
        results["x_ranks"] = x_ranks
        results["x_full_rank_frequency"] = x_ranks.count(t) / trials
    config = {
        "command": "sim",
        "circuit": os.path.basename(circuit_path),
        "trials": trials,
        "seed": seed,
        "t": t,
        "diagnostics": diagnostics,
    }
    write_json_atomic(report, _report_payload(config, results))
    click.echo(f"wrote {report}")


@cli.command("rank-mc")
@click.option("--rows", type=int, required=True)
@click.option("--cols", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def rank_mc(rows, cols, p, trials, seed, fmt, out):
    """Monte Carlo full-rank frequency of Bernoulli(p) matrices, on every
    core of the affinity mask; any core count writes the same bytes."""
    est = drivers.monte_carlo_full_rank_streamed(rows, cols, p, trials, seed)
    config = {
        "command": "rank-mc",
        "rows": rows,
        "cols": cols,
        "p": p,
        "trials": trials,
        "seed": seed,
    }
    if fmt == "json":
        results = {
            "estimate": est.estimate,
            "ci95": [est.ci95.lo, est.ci95.hi],
            "successes": est.successes,
        }
        write_json_atomic(out, _report_payload(config, results))
    else:
        header = ["rows", "cols", "p", "trials", "estimate", "ci_lo", "ci_hi", "seed"]
        row = [rows, cols, p, trials, est.estimate, est.ci95.lo, est.ci95.hi, seed]
        write_text_atomic(out, _csv_text(header, [row]))
    click.echo(f"estimate {est.estimate:.6f} ci95 [{est.ci95.lo:.6f}, {est.ci95.hi:.6f}]")


@cli.command()
@click.option("--p", "p_list", default="0.25", show_default=True, help="Comma-separated list.")
@click.option("--l", "l_list", default="16", show_default=True, help="Comma-separated list.")
@click.option("--m", "m_list", default="64", show_default=True, help="Comma-separated list.")
@click.option("--epsilon", "eps_list", default="0.5", show_default=True, help="Comma-separated list.")
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def bounds(p_list, l_list, m_list, eps_list, trials, seed, out):
    """Sweep the full-rank bound evaluators against Monte Carlo estimates.

    Emits CSV columns: p,l,m,epsilon,bound_closed,bound_sequential,
    mc_estimate,mc_ci_lo,mc_ci_hi,trials,seed.
    """
    ps = _parse_number_list(p_list, float)
    ls = _parse_number_list(l_list, int)
    ms = _parse_number_list(m_list, int)
    epss = _parse_number_list(eps_list, float)
    rows = []
    for pv in ps:
        for lv in ls:
            for mv in ms:
                for ev in epss:
                    params = RankBoundParams(p=pv, l=lv, m=mv, epsilon=ev)
                    closed = full_rank_probability_bound(params)
                    seq = full_rank_probability_sequential(params)
                    point_seed = derive_seed(seed, "bounds", f"{pv},{lv},{mv},{ev}")
                    est = drivers.monte_carlo_full_rank_streamed(lv, mv, pv, trials, point_seed)
                    rows.append(
                        [pv, lv, mv, ev, closed, seq.value,
                         est.estimate, est.ci95.lo, est.ci95.hi, trials, seed]
                    )
    header = ["p", "l", "m", "epsilon", "bound_closed", "bound_sequential",
              "mc_estimate", "mc_ci_lo", "mc_ci_hi", "trials", "seed"]
    write_text_atomic(out, _csv_text(header, rows))
    click.echo(f"wrote {out}: {len(rows)} parameter points")


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--samples", type=int, default=20000, show_default=True)
@click.option("--alpha", "alpha_bit", type=float, default=16.0, show_default=True,
              help="Bit-thermalizer alpha (rounds = ceil(alpha*t)).")
@click.option("--m", "m_bit", type=int, default=2, show_default=True, help="Bit-thermalizer m.")
@click.option("--alpha-sign", type=float, default=24.0, show_default=True)
@click.option("--m-sign", type=int, default=3, show_default=True)
@click.option("--p-sign", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0)
@click.option("--baseline", type=click.Choice(["oracle", "algorithm"]), default="algorithm",
              show_default=True, help="Which ensemble td_empirical measures.")
@click.option("--report", type=click.Path(dir_okay=False), required=True)
def moments(n, k, t, samples, alpha_bit, m_bit, alpha_sign, m_sign, p_sign, seed, baseline, report):
    """Empirical t-th-moment trace distances at tiny scale.

    td_empirical is the selected ensemble's distance from the maximally
    random moment; td_oracle_baseline (a direct uniform-subset+sign
    sampler) is computed in the same run for comparison.
    """
    exp = drivers.run_moment_experiment(
        n, k, t, samples, seed,
        alpha_bit=alpha_bit, m_bit=m_bit,
        alpha_sign=alpha_sign, m_sign=m_sign, p_sign=p_sign,
        primary=baseline,
    )
    results = {
        "td_empirical": exp.td_primary,
        "td_oracle_baseline": exp.td_oracle,
        "samples": samples,
        "seed": seed,
        "excess_over_baseline": exp.td_primary - exp.td_oracle,
    }
    config = {
        "command": "moments", "n": n, "k": k, "t": t, "samples": samples,
        "seed": seed, "baseline": baseline, **exp.params,
    }
    write_json_atomic(report, _report_payload(config, results))
    click.echo(
        f"td_empirical {exp.td_primary:.4f}  td_oracle_baseline {exp.td_oracle:.4f}"
    )


@cli.command()
@click.option("--suite", type=click.Choice(["bits", "signs", "subsets"]), required=True)
@click.option("--algorithm", type=click.Choice(["gate-opt", "depth-opt"]), default="gate-opt",
              show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--t", type=int, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--m", type=int, required=True)
@click.option("--p", type=int, default=None, help="Sign suite: parallel slots per layer.")
@click.option("--trials", type=click.IntRange(min=1), default=None,
              help=f"Trials [default: {VERIFY_TRIALS}; {SIGN_VERIFY_TRIALS} for --suite signs].")
@click.option("--seed", type=int, default=0)
@click.option("--regime", type=click.Choice(analysis.REGIMES), default=None)
@click.option("--strict", is_flag=True, help="Exit 2 on premise violations or failed tests.")
@click.option("--report", type=click.Path(dir_okay=False), required=True)
def verify(suite, algorithm, n, k, t, alpha, m, p, trials, seed, regime, strict, report):
    """Run a thermalization test battery and emit TestReports as JSON."""
    _check_premises(regime, strict, n=n, k=k, t=t, alpha=alpha, m=m, p=p)
    if trials is None:
        trials = SIGN_VERIFY_TRIALS if suite == "signs" else VERIFY_TRIALS
    reports: list[stats.TestReport] = []
    if suite == "bits":
        if k is None:
            raise click.UsageError("bits suite requires --k")
        stats.check_marginal_trials(trials)
        stats.check_pairwise_shape(trials, t)
        battery = drivers.run_bit_battery(algorithm, n, k, t, m, alpha, trials, seed)
        reports.append(stats.marginal_bias_test(battery.ensembles, seed=seed))
        reports.append(stats.pairwise_xor_test(battery.ensembles, seed=seed))
        if battery.x_full_rank:
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
    elif suite == "signs":
        if p is None:
            raise click.UsageError("signs suite requires --p")
        stats.check_sign_trials(trials)
        run = drivers.run_sign_trials(n, p, alpha, t, m, trials, seed)
        reports.append(stats.sign_vector_test(run.sign_vectors, min(t, 8), seed=seed))
    else:
        if k is None:
            raise click.UsageError("subsets suite requires --k")
        battery = drivers.run_bit_battery(algorithm, n, k, t, m, alpha, trials, seed,
                                          diagnostics=False)
        subsets = drivers.ensemble_subsets(battery.ensembles)
        if math.comb(1 << n, t) > stats.SUBSET_DOMAIN_MAX:
            reports.append(stats.subset_collision_test(subsets, n, t, seed=seed))
        else:
            reports.append(stats.subset_uniformity_test(subsets, n, t, seed=seed))
    config = {
        "command": "verify", "suite": suite, "algorithm": algorithm, "n": n, "k": k,
        "t": t, "alpha": alpha, "m": m, "p": p, "trials": trials, "seed": seed,
    }
    write_json_atomic(report, _report_payload(config, [r.to_dict() for r in reports]))
    for r in reports:
        click.echo(f"{r.name}: {'pass' if r.passed else 'FAIL'}")
    if strict and not all(r.passed for r in reports):
        raise StrictFailure("one or more verification tests failed under --strict")


def _grid_count(name: str, text: str) -> int:
    """A grid value of ``name`` that must be a positive int."""
    try:
        value = int(text)
    except ValueError:
        raise click.BadParameter(f"grid value {name}={text} is not an integer") from None
    if value < 1:
        raise click.BadParameter(f"grid value {name}={value} must be at least 1")
    return value


def _grid_alpha(text: str) -> float:
    """A grid value of alpha, which must be a number; ``GenParams`` and
    the sign stage table refuse one that is not positive and finite."""
    try:
        return float(text)
    except ValueError:
        raise click.BadParameter(f"grid value alpha={text} is not a number") from None


def _parse_grid(spec: str) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise click.BadParameter(f"grid clause {clause!r} is not name=value[,value...]")
        name, _, values = clause.partition("=")
        grid[name.strip()] = [v.strip() for v in values.split(",") if v.strip()]
    return grid


@cli.command()
@click.option("--grid", "grid_spec", required=True,
              help="e.g. \"n=256,512,1024;t=4,8;k=64;alpha=auto;m=auto\"")
@click.option("--algorithm", type=click.Choice(["gate-opt", "depth-opt", "sign"]),
              default="depth-opt", show_default=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def scaling(grid_spec, algorithm, seed, out):
    """Generate circuits over a parameter grid and tabulate measured vs
    predicted costs (CSV).

    auto rules: alpha=auto -> ceil(2 ln n); m=auto -> max(2, ceil(log2 t));
    p=auto (sign) -> floor(n/m).
    """
    grid = _parse_grid(grid_spec)
    for required in ("n", "t"):
        if required not in grid:
            raise click.BadParameter(f"grid must set {required}")
    unknown = sorted(set(grid) - {"n", "t", "k", "alpha", "m", "p"})
    if unknown:
        raise click.BadParameter(f"unknown grid name(s): {', '.join(unknown)}")
    if "p" in grid and algorithm != "sign":
        raise click.BadParameter(f"grid name p applies to --algorithm sign only, not {algorithm}")
    if "k" in grid and algorithm == "sign":
        raise click.BadParameter("grid name k applies to --algorithm gate-opt and depth-opt only, not sign")
    if len(grid.get("p", ["auto"])) != 1:
        raise click.BadParameter(f"grid takes one p value, got p={','.join(grid['p'])}")
    rows = []
    for n_s in grid["n"]:
        n = _grid_count("n", n_s)
        for t_s in grid["t"]:
            t = _grid_count("t", t_s)
            for m_s in grid.get("m", ["auto"]):
                m = max(2, math.ceil(math.log2(t))) if m_s == "auto" else _grid_count("m", m_s)
                for alpha_s in grid.get("alpha", ["auto"]):
                    alpha = float(math.ceil(2 * math.log(n))) if alpha_s == "auto" else _grid_alpha(alpha_s)
                    for k_s in grid.get("k", ["64"]):
                        k = _grid_count("k", k_s)
                        point_seed = derive_seed(seed, "scaling", algorithm, n, t, m, k)
                        # cost profiles replay the generator's exact random
                        # stream without materializing gate objects
                        if algorithm == "sign":
                            p_s = grid.get("p", ["auto"])[0]
                            p = n // m if p_s == "auto" else _grid_count("p", p_s)
                            meas = sign_cost_profile(n, p, alpha, t, m, seed=point_seed)
                            pred = analysis.predicted_cost("sign", n, k, t, alpha, m, p=p)
                        else:
                            gp = GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=point_seed)
                            meas = (gate_opt_cost_profile(gp) if algorithm == "gate-opt"
                                    else depth_opt_cost_profile(gp))
                            pred = analysis.predicted_cost(algorithm, n, k, t, alpha, m)
                        rows.append([
                            algorithm, n, k, t, alpha, m,
                            meas.gates, meas.unit_depth, meas.decomposed_depth,
                            pred.gates, pred.decomposed_depth, seed,
                        ])
    header = ["algorithm", "n", "k", "t", "alpha", "m", "gates", "unit_depth",
              "decomposed_depth", "predicted_gates", "predicted_depth", "seed"]
    write_text_atomic(out, _csv_text(header, rows))
    click.echo(f"wrote {out}: {len(rows)} grid points")


def main() -> None:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(standalone_mode=False)
    except StrictFailure as e:
        click.echo(f"strict check failed: {e}", err=True)
        sys.exit(2)
    except click.UsageError as e:
        e.show()
        sys.exit(1)
    except click.ClickException as e:
        e.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except (ValueError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except MemoryError as e:
        click.echo(f"error: out of memory: {e}", err=True)
        sys.exit(1)
    except BrokenProcessPool as e:
        click.echo(f"error: a worker process died: {e}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
