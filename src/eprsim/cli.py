"""Batch command-line front end.

Verbs: nopa-spectrum, steady-state, evolve, wigner, bell-sweep,
feasibility, cascade.  Each takes a JSON config (--config), writes CSV
and/or JSON to --out (stdout when omitted), and is fully deterministic:
identical configs produce byte-identical outputs.  Floats are emitted
with 17 significant digits so outputs are stable golden-file material.

Exit codes: 0 success, 2 config error or unwritable output, 3 numerical
failure, including a truncation that does not fit in memory.  Every
artifact of a command is staged and renamed into place only once all of
them are written, so a failed command leaves none.  ``--n-max``, which
overrides the config's ``n_max``, exists only on the commands that
truncate a Fock space.  Set EPRSIM_LOG=INFO (or DEBUG) for progress
logging on stderr.

Unit conventions in configs: model rates are dimensionless ratios
(epsilon in units of kappa_c; times in the inverse of gamma's unit).
Only the feasibility command takes absolute rates, in rad/s, because its
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

from .errors import NumericalError, TruncationWarning

# numpy and the eprsim layers are imported inside the functions that use
# them, so a command loads only what it runs: usage and config errors and
# ``feasibility`` need the standard library alone.

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or missing configuration; message names the field."""


class OutputError(RuntimeError):
    """An artifact could not be written; message names the path."""


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


def _field(cfg: dict, name: str, typ, where: str = "", default=None):
    """``cfg[name]`` checked against ``typ``; ``default`` (if given) when absent."""
    path = f"{where}.{name}" if where else name
    if name not in cfg:
        if default is not None:
            return default
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


def _grid_axis(block: dict, where: str, least: int = 0) -> np.ndarray:
    import numpy as np

    start = _field(block, "start", float, where)
    stop = _field(block, "stop", float, where)
    num = _field(block, "num", int, where)
    if num < least:
        raise ConfigError(f"{where}.num: must be >= {least}, got {num}")
    if not math.isfinite(stop - start):  # linspace would fill the grid with nan
        raise NumericalError(f"{where}: stop - start overflows from {start:.6g} to {stop:.6g}")
    return np.linspace(start, stop, num)


def _parse_model(cfg: dict) -> LindbladModel:
    from .lindblad import LindbladModel
    from .nopa import NopaParams, effective_N_M

    block = _field(cfg, "model", dict)
    gamma = _field(block, "gamma", float, "model", default=1.0)
    heating = _field(block, "heating_rate", float, "model", default=0.0)
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


def _basis(cfg: dict, default: int) -> FockBasis:
    from .hilbert import FockBasis

    n_max = _field(cfg, "n_max", int, default=default)
    try:
        return FockBasis(n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _recording_truncation(fn, *args):
    """``fn(*args)`` and whether it warned of truncation; every warning is re-emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        result = fn(*args)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result, any(issubclass(w.category, TruncationWarning) for w in caught)


def _write(*artifacts):
    """Write each ``(path, text)`` artifact, to stdout where ``path`` is None.

    ``text`` is a string or an iterable of string chunks.  Files are staged
    as temp files beside their targets and renamed only after every one is
    written, so a failure, raised as :class:`OutputError`, leaves no
    artifact and no temp file behind.  Stdout is written last.
    """
    files = [(path, text) for path, text in artifacts if path is not None]
    staged, renamed = [], []
    try:
        for path, text in files:
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                staged.append(tmp)
                fh.writelines([text] if isinstance(text, str) else text)
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
            renamed.append(path)
    except OSError as exc:
        for done in renamed:  # a later rename failed: take the earlier ones back
            os.remove(done)
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    for path, text in artifacts:
        if path is None:
            sys.stdout.writelines([text] if isinstance(text, str) else text)


def _csv(header: list[str], columns) -> str:
    """The CSV text of equal-length float ``columns``, each value as :func:`_fmt` writes it.

    Formatting is most of the cost, so each distinct value of a column (by
    its bits, so -0.0 and 0.0 stay apart) is formatted once.
    """
    import numpy as np

    texts = []
    for col in columns:
        col = np.asarray(col, dtype=float)
        _, first, inverse = np.unique(col.view(np.int64), return_index=True, return_inverse=True)
        labels = ["%.17g" % x for x in col[first].tolist()]
        texts.append([labels[i] for i in inverse.ravel().tolist()])
    return "\n".join([",".join(header), *map(",".join, zip(*texts))]) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sibling(out_path: str | None, suffix: str) -> str | None:
    return None if out_path is None else out_path + suffix


def _density_csv(rho):
    """Chunks of the ``row, col, re, im`` CSV of every entry of a density matrix.

    All d**2 rows are written, zeros included; a row's zero entries come
    from one preformatted template, so only stored entries are formatted.
    """
    import numpy as np

    yield "row,col,re,im\n"
    d = rho.basis.dimension
    rows, cols = np.divmod(rho.keys, d)
    bounds = np.searchsorted(rows, np.arange(d + 1))
    labels = [_fmt(j) for j in range(d)]
    zero_tails = [f",{label},0,0\n" for label in labels]
    for i in range(d):
        lo, hi = bounds[i], bounds[i + 1]
        tails = zero_tails
        if hi > lo:
            tails = list(zero_tails)
            for j, v in zip(cols[lo:hi], rho.values[lo:hi]):
                tails[j] = f",{labels[j]},{_fmt(v.real)},{_fmt(v.imag)}\n"
        row = _fmt(i)
        yield row + row.join(tails)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_nopa_spectrum(cfg: dict, out: str | None) -> int:
    from .nopa import NopaParams, squeezing_spectra

    eps = _field(cfg, "epsilon_over_kappa", float)
    omega = _grid_axis(_field(cfg, "omega_grid", dict), "omega_grid")
    try:
        params = NopaParams(eps, 1.0)
    except ValueError as exc:
        raise ConfigError(f"epsilon_over_kappa: {exc}") from exc
    var = squeezing_spectra(params, omega)  # the X-sum and Y-difference spectra are equal
    _write((out, _csv(["omega_over_kappa", "sum_x_var", "diff_y_var"], [omega, var, var])))
    return 0


def cmd_steady_state(cfg: dict, out: str | None) -> int:
    import numpy as np

    from .gaussian import epr_variances, model_from_lindblad, steady_covariance
    from .lindblad import _rate_scaled, moments, steady_state
    from .metrics import epr_criterion, fidelity
    from .states import TmssSpec, tmss_fock

    model = _parse_model(cfg)
    basis = _basis(cfg, default=40)
    density_csv = cfg.get("density_csv")
    if density_csv is not None and not isinstance(density_csv, str):
        raise ConfigError(f"density_csv: expected a path string, got {density_csv!r}")

    rho, trunc_warned = _recording_truncation(steady_state, model, basis)

    r_equiv = float(np.arcsinh(np.sqrt(model.n_param)))
    target = tmss_fock(TmssSpec(r_equiv), basis)
    # A valid config gives a physical Gaussian model, so a ValueError on this
    # route is rounding at extreme rates.  The state depends on the rates'
    # ratios alone, so it is solved in the units steady_state uses, where the
    # diffusion stays finite up to rates of 1e308.
    try:
        var_q, var_p = epr_variances(steady_covariance(model_from_lindblad(_rate_scaled(model)[1])))
    except ValueError as exc:
        raise NumericalError(f"Gaussian steady state: {exc}") from exc
    value, entangled = epr_criterion(var_q, var_p)
    fock = moments([rho])
    report = {
        "n_max": basis.n_max,
        "gamma": model.gamma,
        "n_param": model.n_param,
        "m_param": model.m_param,
        "heating_rate": model.heating_rate,
        "fidelity_tmss": fidelity(rho, target),
        "purity": float(fock["purity"][0]),
        "mean_phonon_1": float(fock["n1"][0]),
        "mean_phonon_2": float(fock["n2"][0]),
        "var_sum_q": var_q,
        "var_diff_p": var_p,
        "epr_value": value,
        "entangled": entangled,
        "truncation_warning": trunc_warned,
    }
    artifacts = [(out, _json_text(report))]
    if density_csv is not None:
        artifacts.append((density_csv, _density_csv(rho)))
    _write(*artifacts)
    return 0


def cmd_evolve(cfg: dict, out: str | None) -> int:
    from .lindblad import evolve, moments

    model = _parse_model(cfg)
    basis = _basis(cfg, default=20)
    times = _grid_axis(_field(cfg, "times", dict), "times", least=1)
    initial = cfg.get("initial", "vacuum")
    if initial != "vacuum":
        raise ConfigError(f"initial: only 'vacuum' is supported, got {initial!r}")

    try:
        # The grid is a linspace, so only a non-increasing one is refused.
        states = evolve(model, basis, times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    m = moments(states)
    header = ["t", "n1", "n2", "re_b1b2", "im_b1b2", "var_sum_q", "var_diff_p", "purity"]
    cols = [times, m["n1"], m["n2"], m["b1b2"].real, m["b1b2"].imag,
            m["var_sum_q"], m["var_diff_p"], m["purity"]]
    _write((out, _csv(header, cols)))
    return 0


def cmd_wigner(cfg: dict, out: str | None) -> int:
    import numpy as np

    from .states import TmssSpec, tmss_fock, wigner_analytic, wigner_from_density

    r = _field(cfg, "r", float)
    if r < 0:
        raise ConfigError(f"r: must be >= 0, got {r}")
    grid_cfg = _field(cfg, "grid", dict)
    axes = {
        name: _grid_axis(_field(grid_cfg, name, dict, "grid"), f"grid.{name}")
        for name in ("q1", "p1", "q2", "p2")
    }
    from_density = _field(cfg, "from_density", bool, default=False)
    basis = _basis(cfg, default=30) if from_density else None

    spec = TmssSpec(r)
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    w_analytic = wigner_analytic(spec, *mesh)

    trunc_warned = False
    w_rho = None
    if from_density:
        state = tmss_fock(spec, basis)
        w_rho, trunc_warned = _recording_truncation(wigner_from_density, state, *axes.values())

    header = ["q1", "p1", "q2", "p2", "w_analytic"]
    cols = [m.ravel() for m in mesh] + [np.ravel(w_analytic)]
    if w_rho is not None:
        header.append("w_from_rho")
        cols.append(w_rho.ravel())

    meta = {"truncation_warning": trunc_warned, "from_density": from_density}
    if basis is not None:
        meta["n_max"] = basis.n_max
    artifacts = [(out, _csv(header, cols))]
    meta_path = _sibling(out, ".meta.json")
    if meta_path is None:
        log.info("wigner metadata: %s", meta)
    else:
        artifacts.append((meta_path, _json_text(meta)))
    _write(*artifacts)
    return 0


def cmd_bell_sweep(cfg: dict, out: str | None) -> int:
    import numpy as np

    from .hilbert import vacuum_state
    from .metrics import MAX_SETTING_MAGNITUDE, BellSettings, chsh_value
    from .states import TmssSpec, tmss_fock

    state_kind = cfg.get("state", "tmss")
    if state_kind not in ("tmss", "vacuum"):
        raise ConfigError(f"state: expected 'tmss' or 'vacuum', got {state_kind!r}")
    basis = _basis(cfg, default=40)
    r_default = {"start": 0.1, "stop": 1.2, "num": 12}
    j_default = {"start": 0.05, "stop": 0.5, "num": 10}
    r_grid = _grid_axis(_field(cfg, "r_grid", dict, default=r_default), "r_grid", least=1)
    j_grid = _grid_axis(_field(cfg, "j_grid", dict, default=j_default), "j_grid", least=1)
    beta2_sign = _field(cfg, "beta2_sign", float, default=1.0)
    if beta2_sign not in (1.0, -1.0):
        raise ConfigError(f"beta2_sign: expected 1 or -1, got {beta2_sign!r}")
    if np.any(r_grid < 0):
        raise ConfigError("r_grid: squeeze parameters must be >= 0")
    if np.any(j_grid < 0):
        raise ConfigError("j_grid: displacement strengths must be >= 0")
    if np.any(np.sqrt(j_grid) > MAX_SETTING_MAGNITUDE):
        raise ConfigError(
            f"j_grid: sqrt(J) exceeds the truncation-safety bound {MAX_SETTING_MAGNITUDE:g}")

    settings = [BellSettings(0.0, math.sqrt(j), 0.0, beta2_sign * math.sqrt(j)) for j in j_grid]

    def sweep_j(state):
        return [chsh_value(state, s) for s in settings]

    if state_kind == "vacuum":  # the control does not depend on r: one row for every r
        b_rows = [sweep_j(vacuum_state(basis))] * len(r_grid)
    else:
        b_rows = (sweep_j(tmss_fock(TmssSpec(float(r)), basis)) for r in r_grid)
    rows = [(r, j, b_val) for r, b_row in zip(r_grid, b_rows) for j, b_val in zip(j_grid, b_row)]
    r_best, j_best, max_b = max(rows, key=lambda row: row[2])  # the first of equal maxima
    summary = {"max_b": max_b, "r": float(r_best), "j": float(j_best),
               "state": state_kind, "n_max": basis.n_max, "beta2_sign": beta2_sign}
    _write((out, _csv(["r", "J", "B"], zip(*rows))),
           (_sibling(out, ".summary.json"), _json_text(summary)))
    return 0


def cmd_feasibility(cfg: dict, out: str | None) -> int:
    from dataclasses import fields

    from . import feasibility as feas

    block = _field(cfg, "experiment", dict)
    kwargs = {f.name: _field(block, f.name, float, "experiment")
              for f in fields(feas.ExperimentParams)}
    r = _field(cfg, "r", float)
    if r < 0:
        raise ConfigError(f"r: must be >= 0, got {r}")
    threshold = _field(cfg, "ratio_threshold", float, default=10.0)
    if threshold <= 0:
        raise ConfigError(f"ratio_threshold: must be > 0, got {threshold}")
    try:
        params = feas.ExperimentParams(**kwargs)
        report = feas.check_all(params, r, threshold)
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    _write((out, _json_text(report)))
    return 0


def cmd_cascade(cfg: dict, out: str | None) -> int:
    from .gaussian import CovarianceState, cascade_model, epr_variances, steady_covariance
    from .nopa import NopaParams, effective_N_M

    eps = _field(cfg, "epsilon_over_kappa", float)
    ratios = _field(cfg, "kappa_over_gamma", list)
    if not ratios or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x < math.inf
        for x in ratios
    ):
        raise ConfigError(
            "kappa_over_gamma: expected a non-empty list of positive finite numbers")
    try:
        params = NopaParams(eps, 1.0)
    except ValueError as exc:
        raise ConfigError(f"epsilon_over_kappa: {exc}") from exc

    n_p, m_p = effective_N_M(params)
    wn = 2.0 * (1.0 + 2.0 * n_p - 2.0 * m_p)
    rows = []
    for ratio in ratios:
        # The model is physical for every valid ratio, so a failure here is rounding.
        try:
            dd = cascade_model(params, gamma=1.0 / float(ratio))
            motion = CovarianceState(steady_covariance(dd).cov[4:, 4:])  # the atoms
        except (ValueError, NumericalError) as exc:
            raise NumericalError(f"cascade at kappa_over_gamma {ratio!r}: {exc}") from exc
        var_q, _ = epr_variances(motion)
        rel = abs(var_q - wn) / wn if wn != 0 else 0.0
        rows.append((float(ratio), var_q, wn, rel))
    _write((out, _csv(
        ["kappa_over_gamma", "var_sum_q", "var_sum_q_whitenoise", "rel_error"], zip(*rows))))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# The commands that truncate a Fock space, and so take --n-max.
_TRUNCATING = ("steady-state", "evolve", "wigner", "bell-sweep")

_COMMANDS = {
    "nopa-spectrum": cmd_nopa_spectrum,
    "steady-state": cmd_steady_state,
    "evolve": cmd_evolve,
    "wigner": cmd_wigner,
    "bell-sweep": cmd_bell_sweep,
    "feasibility": cmd_feasibility,
    "cascade": cmd_cascade,
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a known ``command``, with its subparser alone.

    One subparser costs a seventh of the seven; the subparsers' metavar
    still names every command, so usage lines and messages are the same.
    """
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="Deterministic batch simulations of remotely entangled motional modes.",
    )
    known = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(_COMMANDS) if known else None)
    for name in [command] if known else _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if name in _TRUNCATING:
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if getattr(args, "n_max", None) is not None:
            cfg["n_max"] = args.n_max
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        hint = "; lower n_max" if args.command in _TRUNCATING else ""
        print(f"numerical failure: out of memory ({str(exc) or 'allocation failed'}){hint}",
              file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
