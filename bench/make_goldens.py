"""Write bench/goldens/<workload>-seed<n>.json for the default and held-out seeds.

  python3 bench/make_goldens.py [workload ...]

Run it only from a commit whose outputs are trusted; a later change is
judged against these files.  Inputs and outputs are the same as in a
benchmark run; the run's work files go under .bench_work/goldens/.
"""

from __future__ import annotations

import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
from inputs import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, write_inputs  # noqa: E402
from workloads import WORKLOADS as BODIES, golden_path  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            path = write_inputs(name, seed, worker.ROOT / ".bench_work" / "goldens" / f"{name}-seed{seed}")
            inp = json.loads(path.read_text())
            out = BODIES[name].outputs(inp, BODIES[name].run(inp))
            problems = BODIES[name].check(inp, out)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            golden_path(name, seed).write_text(json.dumps(out, indent=1) + "\n")
            print(f"wrote {golden_path(name, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
