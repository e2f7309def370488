"""Artifact checks: each job's output against an independent route.

Tolerances are the ones the repository's acceptance criteria use:

* steady-state: <n1>, <n2> within 1e-3 of the Gaussian (Lyapunov) moments
  (criterion 02), and no truncation warning;
* bell-sweep: with the shipped default config the CSV equals
  ``golden/bell_sweep.csv`` byte for byte and the summary is within 1e-9
  of ``golden/bell_sweep_max.json`` (criterion 07); every sweep also
  matches the closed-form B, a combination of (pi/2)^2 W with the
  analytic Wigner function, within the truncation tail;
* evolve: n1(t), n2(t) within 1e-6 of N (1 - exp(-2 gamma t)) (criterion 04);
* wigner: w_from_rho within 1e-3 of w_analytic (criterion 05);
* cascade, nopa-spectrum, feasibility: the artifact parses and every
  value is finite.

Each check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from eprsim.gaussian import model_from_lindblad, steady_covariance
from eprsim.lindblad import LindbladModel
from eprsim.nopa import NopaParams, effective_N_M
from eprsim.states import TmssSpec, wigner_analytic


class CheckFailed(Exception):
    """An artifact disagrees with its reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 2, f"{os.path.basename(path)}: no data rows")
    header, body = rows[0], rows[1:]
    _require(all(len(r) == len(header) for r in body), "ragged CSV rows")
    data = np.array(body, dtype=float)
    _require(bool(np.all(np.isfinite(data))), "non-finite value in CSV")
    return header, data


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return math.isfinite(obj)
    return True


def _axis(block: dict) -> np.ndarray:
    return np.linspace(block["start"], block["stop"], block["num"])


def _model(cfg: dict) -> LindbladModel:
    block = cfg["model"]
    n_p, m_p = effective_N_M(NopaParams(block["epsilon_over_kappa"], 1.0))
    return LindbladModel(gamma=block.get("gamma", 1.0), n_param=n_p, m_param=m_p,
                         heating_rate=block.get("heating_rate", 0.0))


def check_steady_state(job, out: str, root: str):
    report = _read_json(out)
    _require(report["truncation_warning"] is False, "truncation warning is on")
    cov = steady_covariance(model_from_lindblad(_model(job.config))).cov
    for mode in (0, 1):
        gauss_n = (cov[2 * mode, 2 * mode] + cov[2 * mode + 1, 2 * mode + 1]) / 4.0 - 0.5
        fock_n = report[f"mean_phonon_{mode + 1}"]
        _require(abs(fock_n - gauss_n) < 1e-3,
                 f"<n{mode + 1}> {fock_n} vs Gaussian {gauss_n}")


def _closed_form_b(r: float, j: float, beta2_sign: float) -> float:
    """CHSH value from E(a, b) = (pi/2)^2 W(Re a, Im a, Re b, Im b)."""
    root = math.sqrt(j)
    spec = TmssSpec(r)

    def corr(a: float, b: float) -> float:
        return (math.pi / 2.0) ** 2 * wigner_analytic(spec, a, 0.0, b, 0.0)

    b2 = beta2_sign * root
    return corr(0.0, 0.0) + corr(0.0, b2) + corr(root, 0.0) - corr(root, b2)


def check_bell_sweep(job, out: str, root: str):
    cfg = job.config
    header, data = _read_csv(out)
    _require(header == ["r", "J", "B"], f"header {header}")
    r_axis, j_axis = _axis(cfg["r_grid"]), _axis(cfg["j_grid"])
    _require(data.shape[0] == len(r_axis) * len(j_axis), f"{data.shape[0]} rows")
    _require(bool(np.array_equal(data[:, 0], np.repeat(r_axis, len(j_axis)))), "r column")
    _require(bool(np.array_equal(data[:, 1], np.tile(j_axis, len(r_axis)))), "J column")

    n_max, sign = cfg["n_max"], float(cfg.get("beta2_sign", 1))
    for r, j, b in data:
        # The routes differ by truncation: the Fock state drops amplitudes
        # below tanh(r)^n_max.  With beta2 > 0 the gap stays near the
        # population tail tanh(r)^(2 n_max) (6.5e-7 on the golden grid);
        # with beta2 < 0 it reaches 16 times that at r = 1.2, J = 0.5, so
        # the bound is the amplitude tail.
        tol = math.tanh(r) ** n_max + 1e-9
        ref = _closed_form_b(r, j, sign)
        _require(abs(b - ref) <= tol, f"B({r}, {j}) = {b} vs closed form {ref}")

    summary = _read_json(out + ".summary.json")
    best = int(np.argmax(data[:, 2]))
    _require(summary["max_b"] == data[best, 2] and summary["r"] == data[best, 0]
             and summary["j"] == data[best, 1], "summary does not match the CSV maximum")

    if job.shipped and job.label == "bell_default":
        golden_csv = os.path.join(root, "golden", "bell_sweep.csv")
        with open(out, "rb") as fh, open(golden_csv, "rb") as gh:
            _require(fh.read() == gh.read(), "CSV differs from golden/bell_sweep.csv")
        golden = _read_json(os.path.join(root, "golden", "bell_sweep_max.json"))
        for key in ("max_b", "r", "j"):
            _require(abs(summary[key] - golden[key]) < 1e-9,
                     f"summary {key} {summary[key]} vs golden {golden[key]}")


def check_evolve(job, out: str, root: str):
    header, data = _read_csv(out)
    col = {name: k for k, name in enumerate(header)}
    times = _axis(job.config["times"])
    _require(bool(np.array_equal(data[:, col["t"]], times)), "t column")
    model = _model(job.config)
    expected = model.n_param * (1.0 - np.exp(-2.0 * model.gamma * times))
    for name in ("n1", "n2"):
        err = float(np.max(np.abs(data[:, col[name]] - expected)))
        _require(err < 1e-6, f"{name}(t) deviates from N(1-exp(-2 gamma t)) by {err:.2e}")


def check_wigner(job, out: str, root: str):
    header, data = _read_csv(out)
    col = {name: k for k, name in enumerate(header)}
    grid = job.config["grid"]
    _require(data.shape[0] == math.prod(grid[a]["num"] for a in ("q1", "p1", "q2", "p2")),
             f"{data.shape[0]} rows")
    err = float(np.max(np.abs(data[:, col["w_from_rho"]] - data[:, col["w_analytic"]])))
    _require(err < 1e-3, f"|w_from_rho - w_analytic| = {err:.2e}")
    meta = _read_json(out + ".meta.json")
    _require(meta["truncation_warning"] is False, "truncation warning is on")


def check_finite_csv(job, out: str, root: str):
    _read_csv(out)


def check_finite_json(job, out: str, root: str):
    report = _read_json(out)
    _require(bool(report) and _all_finite(report), "empty or non-finite report")


CHECKS = {
    "steady-state": check_steady_state,
    "bell-sweep": check_bell_sweep,
    "evolve": check_evolve,
    "wigner": check_wigner,
    "nopa-spectrum": check_finite_csv,
    "cascade": check_finite_csv,
    "feasibility": check_finite_json,
}


def check(job, out: str, root: str) -> str | None:
    """None if the job's artifact passes, else the reason it fails."""
    try:
        CHECKS[job.command](job, out, root)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable artifact: {type(exc).__name__}: {exc}"
    return None
