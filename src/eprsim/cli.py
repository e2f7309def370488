"""Batch command-line front end.

Verbs: nopa-spectrum, steady-state, evolve, wigner, bell-sweep,
feasibility, cascade.  Each takes a JSON config (--config), writes CSV
and/or JSON to --out (stdout when omitted), and is fully deterministic:
identical configs produce byte-identical outputs.  Floats are emitted
with 17 significant digits so outputs are stable golden-file material.

Exit codes: 0 success, 2 config error, 3 numerical failure.
Set EPRSIM_LOG=INFO (or DEBUG) for progress logging on stderr.

Unit conventions in configs: model rates are dimensionless ratios
(epsilon in units of kappa_c; times in units of 1/gamma).  Only the
feasibility command takes absolute rates, in rad/s, because its
plausibility band is about absolute magnitudes.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import feasibility as feas
from .gaussian import (
    cascade_model,
    epr_variances,
    model_from_lindblad,
    steady_covariance,
)
from .hilbert import FockBasis, vacuum_state
from .lindblad import LindbladModel, NumericalError, evolve, purity, steady_state
from .metrics import BellSettings, chsh_value, epr_criterion, fidelity, mean_phonon
from .nopa import NopaParams, effective_N_M, squeeze_parameter, squeezing_spectra
from .states import (
    TmssSpec,
    TruncationWarning,
    WignerGrid,
    tmss_fock,
    wigner_analytic,
    wigner_from_density,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or missing configuration; message names the field."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    return cfg


def _field(cfg: dict, name: str, typ, where: str = ""):
    path = f"{where}.{name}" if where else name
    if name not in cfg:
        raise ConfigError(f"{path}: required field is missing")
    val = cfg[name]
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"{path}: expected a number, got {val!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{path}: expected a finite number, got {val!r}")
        return float(val)
    if typ is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"{path}: expected an integer, got {val!r}")
        return val
    if not isinstance(val, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {val!r}")
    return val


def _grid_axis(block: dict, where: str) -> np.ndarray:
    start = _field(block, "start", float, where)
    stop = _field(block, "stop", float, where)
    num = _field(block, "num", int, where)
    if num < 0:
        raise ConfigError(f"{where}.num: must be >= 0, got {num}")
    return np.linspace(start, stop, num)


def _parse_model(cfg: dict) -> LindbladModel:
    block = _field(cfg, "model", dict)
    gamma = _field(block, "gamma", float, "model") if "gamma" in block else 1.0
    heating = _field(block, "heating_rate", float, "model") if "heating_rate" in block else 0.0
    try:
        if "epsilon_over_kappa" in block:
            eps = _field(block, "epsilon_over_kappa", float, "model")
            n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
        else:
            n_p = _field(block, "n_param", float, "model")
            m_p = _field(block, "m_param", float, "model")
        return LindbladModel(gamma=gamma, n_param=n_p, m_param=m_p, heating_rate=heating)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"model: {exc}") from exc


def _n_max(cfg: dict, override: int | None, default: int | None = None) -> int:
    if override is not None:
        n = override
    elif "n_max" in cfg:
        n = _field(cfg, "n_max", int)
    elif default is not None:
        n = default
    else:
        raise ConfigError("n_max: required field is missing")
    if n < 2:
        raise ConfigError(f"n_max: must be >= 2, got {n}")
    return n


def _write_text(out_path: str | None, text: str):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sibling(out_path: str | None, suffix: str) -> str | None:
    return None if out_path is None else out_path + suffix


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_nopa_spectrum(cfg: dict, out: str | None, n_max_override) -> int:
    eps = _field(cfg, "epsilon_over_kappa", float)
    omega = _grid_axis(_field(cfg, "omega_grid", dict), "omega_grid")
    try:
        params = NopaParams(eps, 1.0)
    except ValueError as exc:
        raise ConfigError(f"epsilon_over_kappa: {exc}") from exc
    table = squeezing_spectra(params, omega)
    rows = zip(table.omega, table.sum_x_variance, table.diff_y_variance)
    _write_text(out, _csv(["omega_over_kappa", "sum_x_var", "diff_y_var"], rows))
    return 0


def cmd_steady_state(cfg: dict, out: str | None, n_max_override) -> int:
    model = _parse_model(cfg)
    n_max = _n_max(cfg, n_max_override, default=40)
    density_csv = cfg.get("density_csv")
    if density_csv is not None and not isinstance(density_csv, str):
        raise ConfigError(f"density_csv: expected a path string, got {density_csv!r}")

    basis = FockBasis(n_max, 2)
    trunc_warned = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        rho = steady_state(model, basis)
        trunc_warned = any(issubclass(w.category, TruncationWarning) for w in caught)
    for w in (caught or []):
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    r_equiv = float(np.arcsinh(np.sqrt(model.n_param)))
    target = tmss_fock(TmssSpec(r_equiv), basis)
    dd = model_from_lindblad(model)
    var_q, var_p = epr_variances(steady_covariance(dd))
    value, entangled = epr_criterion(var_q, var_p)
    report = {
        "n_max": n_max,
        "gamma": model.gamma,
        "n_param": model.n_param,
        "m_param": model.m_param,
        "heating_rate": model.heating_rate,
        "fidelity_tmss": fidelity(rho, target),
        "purity": purity(rho),
        "mean_phonon_1": mean_phonon(rho, 0),
        "mean_phonon_2": mean_phonon(rho, 1),
        "var_sum_q": var_q,
        "var_diff_p": var_p,
        "epr_value": value,
        "entangled": entangled,
        "truncation_warning": trunc_warned,
    }
    _write_text(out, _json_text(report))
    if density_csv is not None:
        d = basis.dimension
        idx = np.arange(d * d)
        flat = rho.elements.reshape(-1)
        rows = zip(idx // d, idx % d, flat.real, flat.imag)
        _write_text(density_csv, _csv(["row", "col", "re", "im"], rows))
    return 0


def cmd_evolve(cfg: dict, out: str | None, n_max_override) -> int:
    model = _parse_model(cfg)
    n_max = _n_max(cfg, n_max_override, default=20)
    times = _grid_axis(_field(cfg, "times", dict), "times")
    if len(times) == 0:
        raise ConfigError("times.num: must be >= 1 for evolve")
    initial = cfg.get("initial", "vacuum")
    if initial != "vacuum":
        raise ConfigError(f"initial: only 'vacuum' is supported, got {initial!r}")

    basis = FockBasis(n_max, 2)
    rho0 = vacuum_state(basis).density_matrix()
    result = evolve(rho0, model, times)

    n = basis.n_max
    b = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    b1 = np.kron(b, np.eye(n))
    b2 = np.kron(np.eye(n), b)
    q_op = b1 + b1.T + b2 + b2.T
    p_op = -1j * (b1 - b1.T) + 1j * (b2 - b2.T)
    q_sq = q_op @ q_op
    p_sq = (p_op @ p_op).real

    rows = []
    for k, state in enumerate(result.states):
        el = state.elements
        mean_q = np.sum(el * q_op.T).real
        mean_p = np.sum(el * p_op.T).real
        var_q = np.sum(el * q_sq.T).real - mean_q**2
        var_p = np.sum(el * p_sq.T).real - mean_p**2
        rows.append(
            (
                result.times[k],
                result.n1[k],
                result.n2[k],
                result.b1b2[k].real,
                result.b1b2[k].imag,
                var_q,
                var_p,
                purity(state),
            )
        )
    header = ["t", "n1", "n2", "re_b1b2", "im_b1b2", "var_sum_q", "var_diff_p", "purity"]
    _write_text(out, _csv(header, rows))
    return 0


def cmd_wigner(cfg: dict, out: str | None, n_max_override) -> int:
    r = _field(cfg, "r", float)
    if r < 0:
        raise ConfigError(f"r: must be >= 0, got {r}")
    grid_cfg = _field(cfg, "grid", dict)
    axes = {
        name: _grid_axis(_field(grid_cfg, name, dict, "grid"), f"grid.{name}")
        for name in ("q1", "p1", "q2", "p2")
    }
    from_density = bool(cfg.get("from_density", False))
    n_max = _n_max(cfg, n_max_override, default=30) if from_density else None

    spec = TmssSpec(r)
    grid = WignerGrid(axes["q1"], axes["p1"], axes["q2"], axes["p2"])
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    w_analytic = wigner_analytic(spec, *mesh)

    trunc_warned = False
    w_rho = None
    if from_density:
        basis = FockBasis(n_max, 2)
        rho = tmss_fock(spec, basis).density_matrix()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            w_rho = wigner_from_density(rho, grid).values
            trunc_warned = any(issubclass(w.category, TruncationWarning) for w in caught)
        if trunc_warned:
            log.warning("wigner: truncation warning raised at n_max=%d", n_max)

    header = ["q1", "p1", "q2", "p2", "w_analytic"]
    cols = [m.ravel() for m in mesh] + [np.atleast_1d(w_analytic).ravel()]
    if w_rho is not None:
        header.append("w_from_rho")
        cols.append(w_rho.ravel())
    rows = zip(*cols) if len(cols[0]) else []
    _write_text(out, _csv(header, rows))

    meta = {"truncation_warning": trunc_warned, "from_density": from_density}
    if n_max is not None:
        meta["n_max"] = n_max
    meta_path = _sibling(out, ".meta.json")
    if meta_path is not None:
        _write_text(meta_path, _json_text(meta))
    else:
        log.info("wigner metadata: %s", meta)
    return 0


def cmd_bell_sweep(cfg: dict, out: str | None, n_max_override) -> int:
    state_kind = cfg.get("state", "tmss")
    if state_kind not in ("tmss", "vacuum"):
        raise ConfigError(f"state: expected 'tmss' or 'vacuum', got {state_kind!r}")
    n_max = _n_max(cfg, n_max_override, default=40)
    r_grid = _grid_axis(cfg.get("r_grid", {"start": 0.1, "stop": 1.2, "num": 12}), "r_grid")
    j_grid = _grid_axis(cfg.get("j_grid", {"start": 0.05, "stop": 0.5, "num": 10}), "j_grid")
    beta2_sign = _field(cfg, "beta2_sign", float) if "beta2_sign" in cfg else 1.0
    if beta2_sign not in (1.0, -1.0):
        raise ConfigError(f"beta2_sign: expected 1 or -1, got {beta2_sign!r}")
    if np.any(r_grid < 0):
        raise ConfigError("r_grid: squeeze parameters must be >= 0")
    if np.any(j_grid < 0):
        raise ConfigError("j_grid: displacement strengths must be >= 0")
    if np.any(np.sqrt(j_grid) > 3.0):
        raise ConfigError("j_grid: sqrt(J) exceeds the truncation-safety bound 3")

    basis = FockBasis(n_max, 2)
    rows = []
    best = (-np.inf, None, None)
    for r in r_grid:
        state = (vacuum_state(basis) if state_kind == "vacuum"
                 else tmss_fock(TmssSpec(float(r)), basis))
        for j in j_grid:
            root = math.sqrt(j)
            b_val = chsh_value(state, BellSettings(0.0, root, 0.0, beta2_sign * root))
            rows.append((r, j, b_val))
            if b_val > best[0]:
                best = (b_val, float(r), float(j))
    _write_text(out, _csv(["r", "J", "B"], rows))

    summary = {"max_b": best[0], "r": best[1], "j": best[2],
               "state": state_kind, "n_max": n_max, "beta2_sign": beta2_sign}
    summary_path = _sibling(out, ".summary.json")
    if summary_path is not None:
        _write_text(summary_path, _json_text(summary))
    else:
        sys.stdout.write(_json_text(summary))
    return 0


def cmd_feasibility(cfg: dict, out: str | None, n_max_override) -> int:
    block = _field(cfg, "experiment", dict)
    kwargs = {}
    for name in ("g0", "kappa_a", "gamma_atom", "delta_big", "eta_x",
                 "e_laser", "nu_x", "kappa_c", "t_decoherence"):
        kwargs[name] = _field(block, name, float, "experiment")
    r = _field(cfg, "r", float)
    threshold = float(cfg.get("ratio_threshold", 10.0))
    try:
        params = feas.ExperimentParams(**kwargs)
        report = feas.check_all(params, r, threshold)
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    _write_text(out, _json_text(report.as_dict()))
    return 0


def cmd_cascade(cfg: dict, out: str | None, n_max_override) -> int:
    eps = _field(cfg, "epsilon_over_kappa", float)
    ratios = _field(cfg, "kappa_over_gamma", list)
    if not ratios or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0 for x in ratios
    ):
        raise ConfigError("kappa_over_gamma: expected a non-empty list of positive numbers")
    try:
        params = NopaParams(eps, 1.0)
    except ValueError as exc:
        raise ConfigError(f"epsilon_over_kappa: {exc}") from exc

    n_p, m_p = effective_N_M(params)
    wn = 2.0 * (1.0 + 2.0 * n_p - 2.0 * m_p)
    rows = []
    for ratio in ratios:
        dd = cascade_model(params, gamma=1.0 / float(ratio))
        sigma = steady_covariance(dd).cov[4:, 4:]
        var_q = float(sigma[0, 0] + sigma[2, 2] + 2.0 * sigma[0, 2])
        rel = abs(var_q - wn) / wn if wn != 0 else 0.0
        rows.append((float(ratio), var_q, wn, rel))
    _write_text(out, _csv(
        ["kappa_over_gamma", "var_sum_q", "var_sum_q_whitenoise", "rel_error"], rows))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "nopa-spectrum": cmd_nopa_spectrum,
    "steady-state": cmd_steady_state,
    "evolve": cmd_evolve,
    "wigner": cmd_wigner,
    "bell-sweep": cmd_bell_sweep,
    "feasibility": cmd_feasibility,
    "cascade": cmd_cascade,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="Deterministic batch simulations of remotely entangled motional modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--n-max", type=int, default=None, dest="n_max",
                       help="override the config's Fock truncation")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("EPRSIM_LOG", "WARNING").upper()
    if level not in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args.out, args.n_max)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
