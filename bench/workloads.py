"""The four workloads: build, run through gkdv's public API or CLI, check.

Each workload has
  setup(inputs)         parse the config, build grid, symbol and probes;
  run(inputs)           the timed body;
  outputs(inputs, raw)  what run returned, or wrote, as plain JSON values --
                        the same dict a golden file holds;
  check(inputs, out)    seed-independent invariants, as a list of problems.
outputs and check run outside the timed and traced region.
"""

from __future__ import annotations

import json
import math
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gkdv import cli, probes, solver, verifier
from gkdv.runconfig import RunConfig
from gkdv.solver import IvpProblem
from gkdv.spectral import GridSpec, zero_field
from gkdv.symbols import builtin_symbol

GOLDENS = Path(__file__).resolve().parent / "goldens"

# Largest drift from a golden value, relative to the largest magnitude of
# that golden scalar or array.  It admits changes of summation order and the
# 7e-9 relative change in rho(T) that moving the contraction check onto the
# exponential product rule produced.
GOLDEN_RTOL = 1e-6


def _grid_and_symbol(inp: dict) -> tuple[GridSpec, object]:
    return GridSpec(inp["length"], inp["n_points"]), builtin_symbol(inp["symbol"])


def _gaussian_samples(grid: GridSpec, gaussian: dict) -> np.ndarray:
    """The initial data recomputed here, independently of gkdv.probes."""
    x = -0.5 * grid.length + grid.h * np.arange(grid.n_points)
    return gaussian["amplitude"] * np.exp(-(((x - gaussian["center"]) / gaussian["width"]) ** 2))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _ostrovsky_linear_flow(grid: GridSpec, gaussian: dict, t: float) -> np.ndarray:
    """exp(t*(i*xi^3 + |xi| - |xi|^3)) applied to the initial data, with the
    dispersive phase dropped on the unpaired Nyquist mode as gkdv does."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.h)
    xi_disp = xi.copy()
    xi_disp[grid.n_points // 2] = 0.0
    z = 1j * xi_disp ** 3 + np.abs(xi) - np.abs(xi) ** 3
    return np.fft.ifft(np.fft.fft(_gaussian_samples(grid, gaussian)) * np.exp(t * z)).real


@contextmanager
def _run_dir(inp):
    """The one run directory a CLI op wrote; removed after reading, so the
    next op cannot pass on stale files."""
    out_dir = Path(inp["out_dir"])
    try:
        (run_dir,) = out_dir.iterdir()
        yield run_dir
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class Contraction:
    """verify_contraction_scaling on seeded rough pairs."""

    @staticmethod
    def build(inp):
        grid, symbol = _grid_and_symbol(inp)
        return IvpProblem(symbol=symbol, grid=grid, k=inp["k"], mode=inp["mode"],
                          s=inp["s"], initial_data=zero_field(grid))

    @classmethod
    def setup(cls, inp):
        """The problem and the rough pairs the check draws from the seed."""
        prob = cls.build(inp)
        exponent = verifier.contraction_probe_exponent(inp["k"])
        seeds = range(inp["seed"], inp["seed"] + 2 * inp["n_pairs"])
        return prob, [probes.rough_field(prob.grid, seed=s, spectral_exponent=exponent)
                      for s in seeds]

    @classmethod
    def run(cls, inp):
        return verifier.verify_contraction_scaling(cls.build(inp), n_pairs=inp["n_pairs"],
                                                   seed=inp["seed"])

    @staticmethod
    def outputs(inp, rep):
        return {
            "verdict": rep.verdict,
            "fitted_exponent": rep.fitted_exponent,
            "rhos": rep.notes["rhos"],
            "t_values": rep.notes["t_values"],
        }

    @staticmethod
    def check(inp, out):
        problems = []
        t, rho = np.array(out["t_values"]), np.array(out["rhos"])
        if not (_finite(rho) and np.all(rho > 0)):
            return ["rho(T) is not finite and positive"]
        if not np.all(np.diff(t) > 0):
            problems.append("T values are not increasing")
        slope = np.polyfit(np.log(t), np.log(rho), 1)[0]
        if abs(slope - out["fitted_exponent"]) > 1e-9:
            problems.append(f"fitted exponent {out['fitted_exponent']} != refit {slope}")
        # omega_k for p = 4 (kdv-ks), k = 1; the verdict allows 15% of it.
        p, k = 4.0, inp["k"]
        omega = (2 * p - 3 * k - 2) / (2 * p)
        want = "pass" if abs(out["fitted_exponent"] - omega) <= 0.15 * omega else "fail"
        if out["verdict"] != want:
            problems.append(f"verdict {out['verdict']} but the fit says {want}")
        return problems


class Solve:
    """gkdv solve: calibrate c, pick (r, T), Picard-iterate, write outputs."""

    @staticmethod
    def setup(inp):
        return RunConfig.from_file(inp["config_path"], "solve").build_problem()

    @staticmethod
    def run(inp):
        return cli.run_solve(inp["config_path"], inp["out_dir"])

    @staticmethod
    def outputs(inp, rc):
        with _run_dir(inp) as run_dir:
            trace = json.loads((run_dir / "reports" / "picard_trace.json").read_text())
            trajectories = [
                np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
                for path in sorted((run_dir / "data").glob("trajectory_*.csv"))
            ]
        return {
            "rc": rc,
            "converged": trace["converged"],
            "iterations": len(trace["iterates"]),
            "r": trace["r"],
            "t_final": trace["t_final"],
            "c_calibrated": trace["c_calibrated"],
            "space_norms": [it["space_norm"] for it in trace["iterates"]],
            "increments": [it["increment_norm"] for it in trace["iterates"]],
            "means": [float(np.mean(v)) for v in trajectories],
            "trajectories": [v[::64].tolist() for v in trajectories],
        }

    @staticmethod
    def check(inp, out):
        config = json.loads(Path(inp["config_path"]).read_text())
        problems = []
        if out["rc"] != 0:
            problems.append(f"gkdv solve exited {out['rc']}")
        if not out["converged"]:
            problems.append("picard_trace.json says converged: false")
        if len(out["trajectories"]) != len(config["output_times"]):
            problems.append("wrong number of trajectory files")
        if not (_finite(out["trajectories"]) and _finite(out["space_norms"])):
            problems.append("non-finite output")
        # Both the propagator and d_x(v^2) leave mode 0 alone: the mean of
        # every output equals the mean of the initial data.
        grid = GridSpec(config["grid"]["length"], config["grid"]["n_points"])
        gaussian = config["initial_data"]
        mean0 = float(np.mean(_gaussian_samples(grid, gaussian)))
        for mean in out["means"]:
            if abs(mean - mean0) > 1e-9 * gaussian["amplitude"]:
                problems.append(f"mean {mean} drifted from {mean0}")
        return problems


class Reference:
    """reference_integrate: ETDRK4 with the nonlinearity at every stage."""

    @staticmethod
    def build(inp):
        grid, symbol = _grid_and_symbol(inp)
        g = inp["gaussian"]
        data = probes.gaussian_field(grid, amplitude=g["amplitude"], width=g["width"],
                                     center=g["center"])
        return IvpProblem(symbol=symbol, grid=grid, k=inp["k"], mode=inp["mode"],
                          s=inp["s"], initial_data=data)

    setup = build

    @classmethod
    def run(cls, inp):
        return solver.reference_integrate(cls.build(inp), inp["t_final"], n_steps=inp["n_steps"])

    @staticmethod
    def outputs(inp, ref):
        final = ref.final.phys
        # The nonlinear part alone: over T = 0.01 it is a small share of the
        # field, and a golden on the field would miss a drift in it.
        grid, _ = _grid_and_symbol(inp)
        nonlinear = final - _ostrovsky_linear_flow(grid, inp["gaussian"], inp["t_final"])
        return {
            "steps": len(ref.times) - 1,
            "final_mean": float(np.mean(final)),
            "final": final[::16].tolist(),
            "nonlinear_part": nonlinear[::16].tolist(),
            "l2_history": ref.l2_norms[::64].tolist(),
        }

    @staticmethod
    def check(inp, out):
        problems = []
        if out["steps"] != inp["n_steps"]:
            problems.append(f"{out['steps']} steps taken, {inp['n_steps']} asked")
        if not (_finite(out["final"]) and _finite(out["l2_history"])):
            return problems + ["non-finite output"]
        grid, _ = _grid_and_symbol(inp)
        v0 = _gaussian_samples(grid, inp["gaussian"])
        l2_0 = math.sqrt(float(np.sum(v0 ** 2)) * grid.h)
        if abs(out["l2_history"][0] - l2_0) > 1e-10 * l2_0:
            problems.append(f"initial L2 norm {out['l2_history'][0]} != {l2_0}")
        # Phi(0) = 0 for ostrovsky and d_x(v^3) has no mean: mass is conserved.
        if abs(out["final_mean"] - float(np.mean(v0))) > 1e-9 * inp["gaussian"]["amplitude"]:
            problems.append("mean of the final field drifted")
        return problems


class VerifyLinear:
    """gkdv verify --suite linear: free-flow estimates, no nonlinearity."""

    @staticmethod
    def setup(inp):
        cfg = RunConfig.from_file(inp["config_path"], "verify")
        grid = cfg.build_grid()
        return grid, cfg.build_symbol(), cfg.build_initial_data(grid)

    @staticmethod
    def run(inp):
        return cli.run_verify(inp["config_path"], inp["suite"], inp["out_dir"])

    @staticmethod
    def outputs(inp, rc):
        reports = {}
        with _run_dir(inp) as run_dir:
            for path in sorted((run_dir / "reports").glob("*.json")):
                rep = json.loads(path.read_text())
                reports[rep["estimate_id"]] = {
                    "verdict": rep["verdict"],
                    "fitted_exponent": rep["fitted_exponent"],
                    "empirical_constant": rep["empirical_constant"],
                }
        return {"rc": rc, "reports": reports}

    @staticmethod
    def check(inp, out):
        problems = []
        reports = out["reports"]
        failed = [name for name, rep in reports.items() if rep["verdict"] not in ("pass", "pass-weak")]
        if failed or out["rc"] != 0:
            problems.append(f"gkdv verify exited {out['rc']}; failed checks {failed}")
        # Parseval makes the Hausdorff-Young constant exactly 1 at p1 = 2.
        hy2 = reports.get("hausdorff-young-p2", {}).get("empirical_constant")
        if hy2 is None or abs(hy2 - 1.0) > 1e-10:
            problems.append(f"Hausdorff-Young constant at p1=2 is {hy2}, not 1")
        # For Phi = -|xi|^4 the conditions hold exactly above M = 1.
        m = next((rep["empirical_constant"] for name, rep in reports.items()
                  if name.startswith("threshold-conditions-")), None)
        if m is None or abs(m - 1.0) > 1e-6:
            problems.append(f"threshold M is {m}, not 1")
        return problems


WORKLOADS = {
    "contraction": Contraction,
    "solve": Solve,
    "reference": Reference,
    "verify-linear": VerifyLinear,
}


def golden_path(workload: str, seed: int) -> Path:
    return GOLDENS / f"{workload}-seed{seed}.json"


def golden_drift(got, want, where: str = "") -> list[str]:
    """Places where outputs drift from a golden by more than GOLDEN_RTOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for key in want for p in golden_drift(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list) and want and all(isinstance(v, float) for v in want):
        got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got_a.shape != want_a.shape:
            return [f"{where}: shape {got_a.shape} != {want_a.shape}"]
        drift = float(np.max(np.abs(got_a - want_a)))
        scale = float(np.max(np.abs(want_a)))
        return [] if drift <= GOLDEN_RTOL * scale else [f"{where}: drift {drift:.3e} of {scale:.3e}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in golden_drift(g, w, f"{where}/{i}")]
    if isinstance(want, float) and isinstance(got, float):
        drift = abs(got - want)
        return [] if drift <= GOLDEN_RTOL * abs(want) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]
