"""Command-line entry point: solve, verify and sweep runs with manifests.

Output layout: <outdir>/<run-id>/{manifest.json, config.json, reports/*.json,
data/*.csv} with run-id the first 12 hex digits of the config hash.  The
GKDV_OUT environment variable overrides the output root.  Exit codes:
0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, GkdvError
from .probes import gaussian_field
from .runconfig import SUITES, RunConfig, _set_keys
from .solver import IvpProblem, solve
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


def _out_root(cfg: RunConfig, override: str | None) -> Path:
    root = override or os.environ.get("GKDV_OUT") or cfg.raw.get("output_dir") or "gkdv-runs"
    return Path(root)


def _prepare_run_dir(cfg: RunConfig, out_root: Path) -> Path:
    run_dir = out_root / cfg.config_hash()[:12]
    (run_dir / "reports").mkdir(parents=True, exist_ok=True)
    (run_dir / "data").mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(cfg.canonical_json() + "\n")
    return run_dir


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(cfg: RunConfig, run_dir: Path, started: float) -> None:
    files = []
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files.append(
                {
                    "path": str(path.relative_to(run_dir)),
                    "sha256": _sha256(path),
                    "bytes": path.stat().st_size,
                }
            )
    manifest = {
        "config_hash": cfg.config_hash(),
        "artifact_version": __version__,
        "started_at": started,
        "finished_at": time.time(),
        "files": files,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_solve(config_path: str, out_override: str | None) -> int:
    started = time.time()
    try:
        cfg = RunConfig.from_file(config_path, "solve")
        prob = cfg.build_problem()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    run_dir = _prepare_run_dir(cfg, _out_root(cfg, out_override))
    solver_opts = _set_keys(cfg.raw.get("solver", {}), max_iter=int, tol=float, panels=int)
    try:
        solution, trace = solve(prob, **solver_opts)
        output_times = cfg.raw.get("output_times") or [trace.t_final]
        x_column = [repr(x) for x in prob.grid.x.tolist()]
        for idx, t in enumerate(output_times):
            t = min(float(t), trace.t_final)
            fld = solution(t)
            lines = ["x,value"]
            lines += [f"{x},{v!r}" for x, v in zip(x_column, fld.phys.tolist())]
            (run_dir / "data" / f"trajectory_{idx:03d}.csv").write_text("\n".join(lines) + "\n")
        _write_json(run_dir / "reports" / "picard_trace.json", trace.to_json_dict())
    except GkdvError as exc:
        click.echo(f"solver failure: {exc}", err=True)
        _write_manifest(cfg, run_dir, started)
        return 1
    _write_manifest(cfg, run_dir, started)
    if not trace.converged:
        click.echo(f"solver failure: no convergence in {len(trace.iterates)} iterations", err=True)
        return 1
    click.echo(
        f"solve: converged={trace.converged} r={trace.r:.6g} T={trace.t_final:.6g} "
        f"iterations={len(trace.iterates)} -> {run_dir}"
    )
    return 0


def _verify_reports(cfg: RunConfig, prob: IvpProblem, suite: str):
    """Yield the reports of one suite on prob, the problem cfg builds, each as
    soon as its check has finished."""
    opts = cfg.raw.get("verify", {})
    grid, symbol, k, s = prob.grid, prob.symbol, prob.k, prob.s
    seed = cfg.seed
    if suite in ("all", "linear"):
        for theta in _set_keys(opts, theta_values=list).get("theta_values", [1.0]):
            yield verify_multiplier_decay(
                symbol, float(theta), **_set_keys(opts, tau_window=tuple, n_tau=int)
            )
        yield verify_weighted_linear(
            symbol, k, s=s, grid=grid, base_seed=seed, **_set_keys(opts, n_seeds=int)
        )
        hy_fields = [
            gaussian_field(grid, amplitude=1.0 + 0.1 * i, width=grid.length / (20.0 + i))
            for i in range(4)
        ]
        for p1 in _set_keys(opts, hy_exponents=list).get("hy_exponents", [2.0, 4.0]):
            yield verify_hausdorff_young(hy_fields, float(p1))
        yield verify_threshold_conditions(symbol, **_set_keys(opts, xi_max=float))
    if suite in ("all", "nonlinear"):
        yield verify_nonlinear_estimate(
            prob, seed=seed, **_set_keys(opts, t_values=list, panels=int, n_times=int)
        )
        yield verify_contraction_scaling(
            prob, seed=seed,
            **_set_keys(opts, t_values=list, n_pairs=int, panels=int, n_times=int),
        )
    if suite in ("all", "smoothing"):
        yield verify_smoothing(
            prob, seed=seed, **_set_keys(opts, panels=int, t_horizon=float, data_scale=float)
        )


def run_verify(config_path: str, suite: str | None, out_override: str | None) -> int:
    started = time.time()
    try:
        cfg = RunConfig.from_file(config_path, "verify")
        prob = cfg.build_problem()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    run_dir = _prepare_run_dir(cfg, _out_root(cfg, out_override))
    reports = []
    try:
        # each report is written as it arrives, so a later check that raises
        # keeps the reports of the checks before it
        for rep in _verify_reports(cfg, prob, suite or cfg.suite):
            _write_json(run_dir / "reports" / f"{rep.estimate_id}.json", rep.to_json_dict())
            reports.append(rep)
    except GkdvError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        _write_manifest(cfg, run_dir, started)
        return 1
    table = render_report_table(reports)
    (run_dir / "reports" / "summary.txt").write_text(table + "\n")
    _write_manifest(cfg, run_dir, started)
    click.echo(table)
    failed = [r for r in reports if not r.passed]
    return 1 if failed else 0


def _sweep_job(cfg: RunConfig) -> list[str]:
    """The sweep.csv rows of one combination, labelled with the k, p and s of
    the problem that ran."""
    prob = cfg.build_problem()
    kps = ",".join(repr(float(v)) for v in (prob.k, prob.symbol.p, prob.s))
    rows = []
    for rep in _verify_reports(cfg, prob, cfg.suite):
        theo = "" if rep.theoretical_exponent is None else repr(float(rep.theoretical_exponent))
        fit = "" if rep.fitted_exponent is None else repr(float(rep.fitted_exponent))
        rows.append(f"{kps},{rep.estimate_id},{theo},{fit},{rep.verdict}")
    return rows


def run_sweep(config_path: str, jobs: int, out_override: str | None) -> int:
    started = time.time()
    try:
        cfg = RunConfig.from_file(config_path, "sweep")
        combos = cfg.sweep_configs()
        for combo in combos:
            combo.build_problem()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    run_dir = _prepare_run_dir(cfg, _out_root(cfg, out_override))
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_sweep_job, combos))
        else:
            results = [_sweep_job(combo) for combo in combos]
    except GkdvError as exc:
        click.echo(f"sweep failure: {exc}", err=True)
        _write_manifest(cfg, run_dir, started)
        return 1
    rows = [row for combo_rows in results for row in combo_rows]
    header = "k,p,s,estimate_id,theoretical,fitted,verdict"
    (run_dir / "data" / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
    _write_manifest(cfg, run_dir, started)
    click.echo(f"sweep: {len(combos)} combinations -> {run_dir}")
    return 1 if any(row.endswith(",fail") for row in rows) else 0


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
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", "out_override", default=None)
def sweep_cmd(config_path, jobs, out_override):
    """Cartesian sweep over configured (k, p, s) values."""
    sys.exit(run_sweep(config_path, jobs, out_override))


if __name__ == "__main__":
    main()
