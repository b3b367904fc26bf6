"""gkdv benchmark: one workload, one seed, a fixed measuring time.

  python3 bench/run.py --workload contraction --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's src/, and everything the run writes goes under .bench_work/.
Workloads, metrics and bounds are declared in BENCHMARK.json; the reasons
for them are in bench/README.md.

--trace 0 prints the end-to-end metrics: median wall time of the workload
body over the ops that fit in --seconds, median set-up time over several
fresh interpreters, and the peak resident memory of the run process.
--trace 1 prints the per-layer metrics of traced ops.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, DEFAULT_SEED, write_inputs

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
# Set-up is timed in this many fresh interpreters before the measured ops
# and as many after, so that a slow spell of the machine does not set the
# median alone.
SETUP_REPEATS = 8
# Margin on top of --seconds for the last op and process start-up; the run
# as a whole must stay inside three minutes.
WORKER_TIMEOUT_PAD = 100.0


def child_env() -> dict:
    """One BLAS thread: steady timings, and the single-threaded baseline."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(inputs_path: Path, env: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that only set up.

    No timeout here: with one, the wait polls with sleeps of up to 50 ms,
    which then show in the times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(WORKER), "setup", str(inputs_path)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gkdv" / "__init__.py").is_file():
        print(f"no gkdv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_path = write_inputs(args.workload, args.seed, work)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = child_env()

    setup_times = []
    if not args.trace:
        time_setup(inputs_path, env, 1)  # untimed: fills the bytecode cache
        setup_times += time_setup(inputs_path, env, SETUP_REPEATS)
    with open(work / "worker.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "run", str(inputs_path), str(args.seconds),
             str(args.trace), str(result_path)],
            env=env, stdout=log, timeout=args.seconds + WORKER_TIMEOUT_PAD,
        )
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}; see {work / 'worker.log'}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    if not args.trace:
        setup_times += time_setup(inputs_path, env, SETUP_REPEATS)

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    if set(values) != {m["name"] for m in declared}:
        print("reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    tracer_problems = res.get("tracer_problems", [])
    for problem in res["problems"] + tracer_problems:
        print(f"problem: {problem}", file=sys.stderr)

    print(json.dumps({"env": res["env"], "golden": res["golden"]}))
    print(f"{args.workload} seed={args.seed}: {res['attempted']} ops, {res['failed']} failed, "
          f"fail_frac={res['failed'] / res['attempted']:g}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not tracer_problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
