"""Command-line entry point: solve, verify and sweep runs with manifests.

Output layout: <outdir>/<run-id>/{manifest.json, config.json, reports/*.json,
data/*.csv} with run-id the first 12 hex digits of the config hash.  The
GKDV_OUT environment variable overrides the output root.  Exit codes:
0 success, 1 computational failure, 2 usage error.  _run owns the lifecycle
every command shares: the exit codes 0/1/2, the run directory, which a rerun
of the config replaces, and the manifest; each command passes it only its
own work.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, GkdvError
from .probes import gaussian_field
from .runconfig import SUITES, RunConfig
from .solver import IvpProblem, solve
from .tasks import side_by_side
from .verifier import (
    render_report_table,
    verify_contraction_scaling,
    verify_hausdorff_young,
    verify_multiplier_decay,
    verify_nonlinear_estimate,
    verify_smoothing,
    verify_threshold_conditions,
    verify_weighted_linear,
)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _run(command: str, config_path: str, suite: str | None, out_override: str | None,
         build, body) -> int:
    """The lifecycle every command shares; returns the exit code.

    The config is parsed and build(cfg) run before any directory exists, so a
    ConfigError exits 2 and leaves nothing behind.  The run directory is then
    made afresh, body(cfg, built, run_dir) does the command's own work and
    returns its exit code, a GkdvError it raises exits 1, and the manifest is
    written in either case.  suite is verify's --suite, else None; the
    manifest of verify and sweep records the suite that ran, suite or the
    config's.
    """
    started = time.time()
    try:
        cfg = RunConfig.from_file(config_path, command)
        built = build(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    out_root = Path(out_override or os.environ.get("GKDV_OUT") or "gkdv-runs")
    run_dir = out_root / cfg.config_hash()[:12]
    # --suite is not part of the run id, so an earlier run of this config may
    # have left files here that this run would not write, yet would list
    if run_dir.exists():
        shutil.rmtree(run_dir)
    for sub in ("reports", "data"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(cfg.canonical_json() + "\n")
    try:
        code = body(cfg, built, run_dir)
    except GkdvError as exc:
        label = {"solve": "solver", "verify": "verification", "sweep": "sweep"}[command]
        click.echo(f"{label} failure: {exc}", err=True)
        code = 1
    import hashlib  # OpenSSL loads only once a run has files to vouch for

    files = [
        {"path": str(path.relative_to(run_dir)), "bytes": path.stat().st_size,
         "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for path in sorted(run_dir.rglob("*")) if path.is_file()
    ]
    manifest = {"config_hash": cfg.config_hash(), "artifact_version": __version__,
                "started_at": started, "finished_at": time.time(), "files": files}
    if command != "solve":
        manifest["suite"] = suite or cfg.suite
    _write_json(run_dir / "manifest.json", manifest)
    return code


def run_solve(config_path: str, out_override: str | None) -> int:
    def body(cfg: RunConfig, prob: IvpProblem, run_dir: Path) -> int:
        solution, trace = solve(prob, **cfg.opts("solver", "max_iter", "tol", "panels"))
        output_times = cfg.opts(None, "output_times").get("output_times") or [trace.t_final]
        fields = solution.at([min(t, trace.t_final) for t in output_times])
        del solution  # its held iterate is not read again; free it before the files are written
        for idx, fld in enumerate(fields):
            # line by line, each number formed as its line is: no file's lines
            # or column of numbers are held as a list
            columns = zip(map(float, prob.grid.x), map(float, fld.phys))
            with open(run_dir / "data" / f"trajectory_{idx:03d}.csv", "w") as out:
                out.write("x,value\n")
                out.writelines(f"{x!r},{v!r}\n" for x, v in columns)
        _write_json(run_dir / "reports" / "picard_trace.json", asdict(trace))
        if not trace.converged:
            click.echo(f"solver failure: no convergence in {len(trace.iterates)} iterations",
                       err=True)
            return 1
        click.echo(
            f"solve: converged={trace.converged} r={trace.r:.6g} T={trace.t_final:.6g} "
            f"iterations={len(trace.iterates)} -> {run_dir}"
        )
        return 0

    return _run("solve", config_path, None, out_override, RunConfig.build_problem, body)


def _verify_reports(cfg: RunConfig, prob: IvpProblem, suite: str):
    """Yield the reports of one suite on prob, the problem cfg builds, each as
    soon as its check has finished."""
    grid, symbol, k, s = prob.grid, prob.symbol, prob.k, prob.s
    seed = cfg.seed
    if suite in ("all", "linear"):
        for theta in cfg.opts("verify", "theta_values").get("theta_values", [1.0]):
            yield verify_multiplier_decay(symbol, theta, **cfg.opts("verify", "tau_window"))
        yield verify_weighted_linear(symbol, k, s=s, grid=grid, base_seed=seed,
                                     **cfg.opts("verify", "n_seeds"))
        hy_fields = [
            gaussian_field(grid, amplitude=1.0 + 0.1 * i, width=grid.length / (20.0 + i))
            for i in range(4)
        ]
        for p1 in cfg.opts("verify", "hy_exponents").get("hy_exponents", [2.0, 4.0]):
            yield verify_hausdorff_young(hy_fields, p1)
        yield verify_threshold_conditions(symbol, **cfg.opts("verify", "xi_max"))
    if suite in ("all", "nonlinear"):
        yield verify_nonlinear_estimate(prob, seed=seed)
        yield verify_contraction_scaling(prob, seed=seed, **cfg.opts("verify", "n_pairs"))
    if suite in ("all", "smoothing"):
        yield verify_smoothing(prob, seed=seed, **cfg.opts("verify", "t_horizon"))


def run_verify(config_path: str, suite: str | None, out_override: str | None) -> int:
    def body(cfg: RunConfig, prob: IvpProblem, run_dir: Path) -> int:
        reports = []
        # each report is written as it arrives, so a later check that raises
        # keeps the reports of the checks before it
        for rep in _verify_reports(cfg, prob, suite or cfg.suite):
            _write_json(run_dir / "reports" / f"{rep.estimate_id}.json", asdict(rep))
            reports.append(rep)
        table = render_report_table(reports)
        (run_dir / "reports" / "summary.txt").write_text(table + "\n")
        click.echo(table)
        return 1 if any(not r.passed for r in reports) else 0

    return _run("verify", config_path, suite, out_override, RunConfig.build_problem, body)


def _sweep_job(cfg: RunConfig) -> tuple[list[str], GkdvError | None]:
    """The sweep.csv rows of one combination, labelled with the k, p and s of
    the problem that ran, and the GkdvError that stopped its checks, or None.
    A stopped combination keeps the rows of the checks that finished, and
    one more row names the exception's class, with verdict error."""
    prob = cfg.build_problem()
    kps = ",".join(repr(v) for v in (prob.k, prob.symbol.p, prob.s))
    rows = []
    try:
        for rep in _verify_reports(cfg, prob, cfg.suite):
            theo = "" if rep.theoretical_exponent is None else repr(float(rep.theoretical_exponent))
            fit = "" if rep.fitted_exponent is None else repr(float(rep.fitted_exponent))
            rows.append(f"{kps},{rep.estimate_id},{theo},{fit},{rep.verdict}")
    except GkdvError as exc:
        return [*rows, f"{kps},{type(exc).__name__},,,error"], exc
    return rows, None


def run_sweep(config_path: str, jobs: int, out_override: str | None) -> int:
    def build(cfg: RunConfig) -> list[RunConfig]:
        combos = cfg.sweep_configs()
        for combo in combos:
            combo.build_problem()
        return combos

    def body(cfg: RunConfig, combos: list[RunConfig], run_dir: Path) -> int:
        results = side_by_side([partial(_sweep_job, combo) for combo in combos], jobs=jobs)
        rows = [row for combo_rows, _ in results for row in combo_rows]
        header = "k,p,s,estimate_id,theoretical,fitted,verdict"
        (run_dir / "data" / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
        # every combination's rows are written before the first error stops the run
        for _, exc in results:
            if exc is not None:
                raise exc
        click.echo(f"sweep: {len(combos)} combinations -> {run_dir}")
        return 1 if any(row.endswith(",fail") for row in rows) else 0

    return _run("sweep", config_path, None, out_override, build, body)


@click.group()
@click.version_option(__version__)
def main():
    """Pseudo-spectral toolkit for dissipative generalized KdV equations."""


@main.command("solve")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_override", default=None, help="Output root (overrides GKDV_OUT)")
def solve_cmd(config_path, out_override):
    """Run the fixed-point solver for one configured problem."""
    sys.exit(run_solve(config_path, out_override))


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--suite", type=click.Choice(SUITES), default=None,
              help="Which estimate family to check (default: config or 'all')")
@click.option("--out", "out_override", default=None)
def verify_cmd(config_path, suite, out_override):
    """Run estimate checks and emit reports; exit 0 iff all pass."""
    sys.exit(run_verify(config_path, suite, out_override))


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Most processes to run on, this one included; at most one per "
                   "combination and usable CPU")
@click.option("--out", "out_override", default=None)
def sweep_cmd(config_path, jobs, out_override):
    """Cartesian sweep over configured (k, p, s) values."""
    sys.exit(run_sweep(config_path, jobs, out_override))


if __name__ == "__main__":
    main()
