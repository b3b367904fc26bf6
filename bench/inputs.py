"""Seeded inputs for the benchmark workloads (standard library only).

The seed moves the data: the rough probe seeds, the config seed and the
amplitude, width and centre of the Gaussian initial data.  Grids, step
counts, horizons and quadrature settings stay fixed, so the work done, and
every per-layer count, is the same for every seed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("contraction", "solve", "reference", "verify-linear")

# Goldens are kept for these two seeds: develop a change on the first,
# re-check it on the second.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# Copies of configs/kdvks.json (n_points raised to 8192, three output
# times) and configs/verify-pure-power.json, so that editing the shipped
# examples does not change the benchmark.
_CONFIGS = Path(__file__).resolve().parent / "configs"


def _uniform(seed: int, label: str) -> float:
    return random.Random(f"{label}/{seed}").random()


def _gaussian(seed: int, label: str, amplitude: float, width: float) -> dict:
    """Amplitude and width within +-10% of nominal, centre within +-5."""
    return {
        "amplitude": amplitude * (0.9 + 0.2 * _uniform(seed, label + "/amplitude")),
        "width": width * (0.9 + 0.2 * _uniform(seed, label + "/width")),
        "center": 10.0 * (_uniform(seed, label + "/center") - 0.5),
    }


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload run; CLI workloads carry a whole config."""
    if workload == "contraction":
        # Acceptance criterion 3 (kdv-ks) with the grid cut from 2^15 to 2^12.
        return {
            "symbol": "kdv-ks", "length": 50.0 * math.pi, "n_points": 2 ** 12,
            "k": 1.0, "mode": "conservative", "s": 0.0, "n_pairs": 2, "seed": seed,
        }
    if workload == "reference":
        return {
            "symbol": "ostrovsky", "length": 100.0, "n_points": 2 ** 12,
            "k": 2.0, "mode": "conservative", "s": 0.0,
            "gaussian": _gaussian(seed, "reference", 0.4, 4.0),
            "t_final": 0.01, "n_steps": 1024,
        }
    if workload == "solve":
        config = json.loads((_CONFIGS / "kdvks.json").read_text())
        config["seed"] = seed
        config["initial_data"] = {"type": "gaussian", **_gaussian(seed, "solve", 0.02, 4.0)}
        return {"config": config}
    if workload == "verify-linear":
        config = json.loads((_CONFIGS / "verify-pure-power.json").read_text())
        config["seed"] = seed
        return {"config": config, "suite": "linear"}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(workload: str, seed: int, work_dir: Path) -> Path:
    """Write the run's inputs (and its config file, if any) into work_dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    inputs = {"workload": workload, "seed": seed, **make_inputs(workload, seed)}
    if "config" in inputs:
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(inputs.pop("config"), indent=2) + "\n")
        inputs["config_path"] = str(config_path)
        inputs["out_dir"] = str(work_dir / "out")
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)
    path = work_dir / "inputs.json"
    path.write_text(json.dumps(inputs, indent=2) + "\n")
    return path
