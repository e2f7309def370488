"""Workload definitions: the seeded list of eprsim CLI jobs each workload runs.

The seed chooses physical parameters only (drive strength, heating rate,
squeeze parameter, grid offsets).  Truncations and grid sizes are fixed
per workload, so every seed costs the same.  Seed 0 runs the shipped
``configs/`` files unchanged, which lets the bell-sweep artifact be
compared byte for byte with ``golden/``.

``smoke=True`` shrinks truncations and grids so the whole job list runs
in seconds; it exists for the benchmark's own tests.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("steady-state", "bell-sweep", "short-jobs")

# Seconds before a job is killed and counted as failed.  About three times
# the job's measured run time on a 2-core host, so a hang (for example a
# non-finite config stuck in an integrator) cannot stall a run.
TIMEOUTS = {
    "steady-state": 120.0,
    "bell-sweep": 60.0,
    "nopa-spectrum": 30.0,
    "feasibility": 30.0,
    "cascade": 30.0,
    "wigner": 30.0,
    "evolve": 30.0,
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m eprsim <command> --config <config_path>``."""

    label: str          # unique within a workload, used for artifact names
    command: str
    config_path: str
    config: dict
    shipped: bool       # config is the shipped file, unchanged

    @property
    def timeout(self) -> float:
        return TIMEOUTS[self.command]

    def argv(self, out_path: str) -> list[str]:
        return [self.command, "--config", self.config_path, "--out", out_path]


def _load(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _steady_state(cfg, rng, smoke):
    # eps/kappa up to 0.52 keeps the top Fock level below the solver's
    # 1e-4 truncation-warning threshold at the smoke truncation too.
    # Heating makes the steady state mixed.  It is on for every varied
    # seed: its extra generator terms raise the solve's peak memory by
    # about 10%, which would otherwise split the seeds into two groups.
    if rng is not None:
        cfg["model"] = {"epsilon_over_kappa": rng.uniform(0.40, 0.52),
                        "heating_rate": rng.uniform(0.01, 0.05)}
    if smoke:
        cfg["n_max"] = 24


def _bell(cfg, rng, smoke):
    # r stays <= 1.2, where the n_max 40 truncation tail is below 5e-7.
    if rng is not None:
        cfg["r_grid"]["start"] = 0.1 + rng.uniform(0.0, 0.05)
        cfg["r_grid"]["stop"] = 1.2 - rng.uniform(0.0, 0.1)
        cfg["j_grid"]["start"] = 0.05 + rng.uniform(0.0, 0.02)
        cfg["j_grid"]["stop"] = 0.5 - rng.uniform(0.0, 0.05)
    if smoke:
        cfg["n_max"] = 20
        cfg["r_grid"]["num"] = 3
        cfg["j_grid"]["num"] = 2


def _nopa(cfg, rng, smoke):
    if rng is not None:
        cfg["epsilon_over_kappa"] = rng.uniform(0.3, 0.7)
    if smoke:
        cfg["omega_grid"]["num"] = 11


def _feasibility(cfg, rng, smoke):
    if rng is not None:
        cfg["r"] = rng.uniform(0.9, 1.3)


def _cascade(cfg, rng, smoke):
    if rng is not None:
        cfg["epsilon_over_kappa"] = rng.uniform(0.3, 0.7)


def _wigner(cfg, rng, smoke):
    if rng is not None:
        cfg["r"] = rng.uniform(0.4, 0.6)
        for axis in cfg["grid"].values():
            shift = rng.uniform(-0.1, 0.1)
            axis["start"] += shift
            axis["stop"] += shift
    if smoke:
        cfg["n_max"] = 16
        for axis in cfg["grid"].values():
            axis.update(start=-1.0, stop=1.0, num=2)


def _evolve(cfg, rng, smoke):
    # Heating stays off: the check compares with N (1 - exp(-2 gamma t)).
    # The integrator's step count grows with N (3323 steps at eps 0.25,
    # 5135 at 0.35), so eps stays near 0.3 to keep the cost seed-independent.
    if rng is not None:
        cfg["model"] = {"epsilon_over_kappa": rng.uniform(0.29, 0.31)}
    if smoke:
        cfg["times"].update(stop=1.0, num=3)


# workload -> [(label, command, shipped config name, seeded variation)]
_PLANS = {
    "steady-state": [
        ("steady_state", "steady-state", "steady_state", _steady_state),
    ],
    "bell-sweep": [
        ("bell_default", "bell-sweep", "bell_default", _bell),
        ("bell_beta2_negative", "bell-sweep", "bell_beta2_negative", _bell),
    ],
    "short-jobs": [
        ("nopa_spectrum", "nopa-spectrum", "nopa_spectrum", _nopa),
        ("feasibility", "feasibility", "feasibility_example", _feasibility),
        ("cascade", "cascade", "cascade", _cascade),
        ("wigner", "wigner", "wigner_slice", _wigner),
        ("evolve", "evolve", "evolve_vacuum", _evolve),
    ],
}


def make_jobs(workload: str, seed: int, root: str, config_dir: str,
              smoke: bool = False) -> list[Job]:
    """The workload's job list for ``seed``; varied configs go to ``config_dir``."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jobs = []
    for index, (label, command, shipped_name, vary) in enumerate(_PLANS[workload]):
        cfg = _load(root, shipped_name)
        rng = None if seed == 0 else random.Random(f"{workload}/{seed}/{index}")
        vary(cfg, rng, smoke)
        if rng is None and not smoke:
            path = os.path.join(root, "configs", shipped_name + ".json")
        else:
            path = os.path.join(config_dir, label + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)
        jobs.append(Job(label, command, path, cfg, shipped=rng is None and not smoke))
    return jobs
