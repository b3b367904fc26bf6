"""Benchmark worker: one workload in a fresh process, imported from ./src.

  python3 bench/worker.py setup INPUTS
      Import numpy and gkdv, parse the config, build grid, symbol and
      probes, and exit; bench/run.py times the whole process.
  python3 bench/worker.py run INPUTS SECONDS TRACE RESULT
      Run the workload body again and again for SECONDS, check every
      output, and write per-op times (TRACE=0) or per-layer metrics from
      traced ops alternating with untraced ones (TRACE=1) to RESULT.

bench/run.py starts it with the BLAS thread count pinned in the
environment, before numpy is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gkdv  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, golden_drift, golden_path  # noqa: E402

# Per-layer metrics read off the spans: (span name, stats reported).  The
# rest of the per-layer metrics in BENCHMARK.json are derived in layer_counts.
SPAN_STATS = (
    ("semigroup.duhamel_integral", ("calls", "total_s", "self_s")),
    ("solver.nonlinearity_eval", ("calls", "total_s", "self_s")),
    ("solver.calibrate_c", ("total_s",)),
    ("solver.picard_iterate", ("total_s", "self_s")),
    ("solver.solve", ("total_s",)),
    ("solver.reference_integrate", ("total_s", "self_s")),
    ("fft.forward", ("calls",)),
    ("fft.inverse", ("calls",)),
    ("spectral.inverse_transform", ("calls", "self_s")),
    ("spectral.apply_multiplier_values", ("calls", "self_s")),
    ("spectral.dealias", ("calls", "self_s")),
    ("spectral.forward_transform", ("calls",)),
    ("spectral.linear_combination", ("self_s",)),
    ("semigroup.Propagator.multiplier", ("calls", "self_s")),
    ("semigroup.apply_semigroup", ("calls",)),
    ("semigroup.smoothing_norm_profile", ("self_s",)),
    ("norms.x_norm", ("calls", "total_s", "self_s")),
    ("norms.lebesgue_norm", ("calls", "total_s", "self_s")),
    ("norms.sobolev_norm", ("calls", "total_s", "self_s")),
    ("verifier.verify_contraction_scaling", ("total_s",)),
    ("verifier.verify_multiplier_decay", ("total_s",)),
    ("verifier.verify_weighted_linear", ("total_s",)),
    ("verifier.verify_hausdorff_young", ("total_s",)),
    ("verifier.verify_threshold_conditions", ("total_s",)),
    ("symbols.evaluate_phi", ("self_s",)),
    ("probes.rough_field", ("self_s",)),
    ("probes.gaussian_field", ("self_s",)),
    ("cli.run_solve", ("self_s",)),
    ("cli.run_verify", ("self_s",)),
    ("runconfig.RunConfig.from_file", ("total_s",)),
    ("runconfig.RunConfig.build_grid", ("total_s",)),
    ("runconfig.RunConfig.build_symbol", ("total_s",)),
    ("runconfig.RunConfig.build_initial_data", ("total_s",)),
    ("runconfig.RunConfig.build_problem", ("total_s",)),
)


def layer_counts(tracer: Tracer, first: int, out: dict | None) -> dict:
    """Everything one traced op gives, before medians over ops are taken."""
    totals = tracer.totals(first)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {
        f"{span}.{stat}": totals.get(span, zero)[stat] for span, stats in SPAN_STATS for stat in stats
    }
    fwd, inv = values["fft.forward.calls"], values["fft.inverse.calls"]
    mult_calls = values["semigroup.Propagator.multiplier.calls"]
    values["fft.inverse_per_forward"] = inv / fwd if fwd else 0.0
    values["fft.self_s"] = sum(totals.get(s, zero)["self_s"] for s in ("fft.forward", "fft.inverse"))
    values["fft.bytes_computed"] = tracer.fft_bytes
    values["semigroup.Propagator.multiplier.unique_frac"] = (
        len(tracer.multiplier_keys) / mult_calls if mult_calls else 0.0
    )
    values["solver.picard.iterations"] = (out or {}).get("iterations", 0)
    return values


def tracer_self_check(inp: dict, values: dict) -> list[str]:
    """ETDRK4 with N steps calls the nonlinearity 4N times, and each call
    needs at least one forward and one inverse transform; the initial data
    adds one of each.  A tracer that misses calls fails this."""
    if inp["workload"] != "reference":
        return []
    n = inp["n_steps"]
    problems = []
    if values["solver.nonlinearity_eval.calls"] != 4 * n:
        problems.append(f"{values['solver.nonlinearity_eval.calls']} nonlinearity calls, want {4 * n}")
    for kind in ("forward", "inverse"):
        if values[f"fft.{kind}.calls"] < 4 * n + 1:
            problems.append(f"{values[f'fft.{kind}.calls']} {kind} FFTs, want >= {4 * n + 1}")
    return problems


def _cache_size(level: int) -> int | None:
    """Total bytes of the level-`level` data caches, summed over instances."""
    seen, total = set(), 0
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            if int((index / "level").read_text()) != level or "Instruction" in (index / "type").read_text():
                continue
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            return None
        if shared not in seen:
            seen.add(shared)
            total += int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    return total or None


def environment() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": _cache_size(2),
        "l3_bytes": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if hasattr(np.fft, "_pocketfft_umath") else "unknown",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gkdv": gkdv.__version__,
        "bytes_note": "fft.bytes_computed is input plus output bytes per transform, "
                      "computed from array sizes; every field array fits in L2, "
                      "so it is not a measured memory bandwidth",
    }


def _attempt(body):
    """Run body once: (what it returned, whether it raised, wall seconds)."""
    t0 = time.perf_counter()
    try:
        raw, raised = body(), False
    except Exception:  # a failed op is counted, the run goes on
        traceback.print_exc()
        raw, raised = None, True
    return raw, raised, time.perf_counter() - t0


def run(inp: dict, seconds: float, trace: bool, result_path: Path) -> None:
    wl = WORKLOADS[inp["workload"]]
    gpath = golden_path(inp["workload"], inp["seed"])
    golden = json.loads(gpath.read_text()) if gpath.exists() else None
    tracer = Tracer()
    walls, traced_walls, layers, bindings = [], [], [], []
    attempted = failed = 0
    problems_seen: list[str] = []
    start = time.perf_counter()
    while True:
        # With tracing on, ops alternate untraced / traced, so the two
        # medians share the machine's conditions.
        traced_now = trace and attempted % 2 == 1
        if traced_now:
            with tracer:
                first = len(tracer.start)
                tracer.reset_counters()
                raw, raised, wall = _attempt(lambda: tracer.span(lambda: wl.run(inp)))
                bindings = tracer.bindings
            traced_walls.append(wall)
        else:
            raw, raised, wall = _attempt(lambda: wl.run(inp))
            walls.append(wall)
        attempted += 1
        out, problems = None, ["raised an exception"]
        if not raised:
            try:
                out = wl.outputs(inp, raw)
                problems = wl.check(inp, out)
            except Exception:  # outputs missing or malformed: the op failed
                traceback.print_exc()
                problems = ["outputs missing or malformed"]
        if out is not None and golden is not None:
            problems += golden_drift(out, golden)
        if traced_now:
            layers.append(layer_counts(tracer, first, out))
        if problems:
            failed += 1
            problems_seen += problems
            print(f"op {attempted} failed: {problems}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        next_op = max(statistics.median(w) for w in (walls, traced_walls) if w)
        if attempted >= (2 if trace else 1) and elapsed + next_op > seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:20],
        "golden": gpath.name if golden is not None else None,
        "walls": walls,
        "env": environment(),
    }
    if trace:
        result.update(traced_walls=traced_walls, bindings=bindings, **summarize(inp, layers, walls, traced_walls))
        tracer.save(result_path.with_name("spans.npz"))
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result_path.write_text(json.dumps(result, indent=1) + "\n")


def summarize(inp: dict, layers: list[dict], walls: list, traced_walls: list) -> dict:
    """Medians over traced ops; counts must repeat exactly from op to op."""
    counts = [{k: v for k, v in op.items() if not k.endswith("_s")} for op in layers]
    tracer_problems = tracer_self_check(inp, layers[-1])
    if any(c != counts[0] for c in counts):
        tracer_problems.append("per-layer counts differ between identical ops")
    layer = {
        k: statistics.median(op[k] for op in layers) if k.endswith("_s") else layers[-1][k]
        for k in layers[-1]
    }
    layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    return {"layers": layer, "tracer_problems": tracer_problems}


def main(argv: list[str]) -> int:
    mode, inputs = argv[0], json.loads(Path(argv[1]).read_text())
    if mode == "setup":
        WORKLOADS[inputs["workload"]].setup(inputs)
        return 0
    seconds, trace, result = float(argv[2]), argv[3] == "1", Path(argv[4])
    run(inputs, seconds, trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
